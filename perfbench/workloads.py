"""The four seeded workloads: their inputs, their timed operations, and the answer checks.

A workload draws each round of operations from its own `random.Random(seed)`,
so one seed always gives the same inputs.  An operation is a pair
`(run, check)`: `run(lib)` makes the timed library calls through the namespace
from `spans.library`, and `check(result)` judges the answer afterwards, outside
the timed region, from facts the benchmark knows without the fast path it
checks.  With `corrupt` set, every check compares against a deliberately wrong
expected value, which the benchmark's self-test uses to show failures count.
"""

from __future__ import annotations

import json
from math import gcd
from random import Random

import christoffel
from christoffel import ChristoffelSpec, DecimationSpec, Direction

# sweep: lengths of the acceptance grid; each block crosses up to PICKS marked
# counts of each word, so every spec is built several times, as in the grid.
# A round draws one equal-length and one unequal-length block from every
# stratum of STRATUM lengths, which keeps the size mix of rounds alike.
SWEEP_MAX_LEN = 120
SWEEP_PICKS = 8
SWEEP_STRATUM = 10

SOLVE_INSTANCES = 400

# cli: README worked examples with their exact output.
CLI_EXAMPLES = (
    (("gen", "--n", "8", "--alpha", "5"), "aaxaaxax\n"),
    (("balance", "--word", "112121"),
     "word: 112121\nbalanced: yes\ncircularly balanced: no\nprimitive: yes\ncounts: 1=4 2=2\n"),
    (("frobenius", "--a", "8", "--b", "5", "--amount", "27"),
     "g(8,5) = 27; non-representable: 14\nrepresentable(27): no\n"),
    (("fraenkel", "--k", "3", "--project", "1"), "1213121\n1x1x1x1\n"),
    (("beatty", "--p", "3", "--q", "2", "--lo", "1", "--hi", "4"), "1, 3, 4, 6\n"),
)
CLI_POOL = 8
CLI_MAX_LEN = 60


class Shares:
    """How many superimposition instances a workload ran, and of which kind."""

    def __init__(self):
        self.instances = self.superimposable = self.small_x = 0

    def add(self, superimposable: bool, x: int, beta: int):
        self.instances += 1
        if superimposable:
            self.superimposable += 1
            self.small_x += x <= beta

    def record(self) -> dict:
        def share(part, whole):
            return round(part / whole, 4) if whole else None

        return {
            "superimposition_instances": self.instances,
            "superimposable_share": share(self.superimposable, self.instances),
            # count branch xy (x <= beta) vs x*alpha + y*beta - alpha*beta, among superimposable
            "branch_small_x_share": share(self.small_x, self.superimposable),
            "branch_large_x_share": share(self.superimposable - self.small_x, self.superimposable),
        }


def bezout_xy(p: int, q: int, alpha: int, beta: int) -> tuple[int, int]:
    """The windowed solution of x*alpha + y*beta = p - 2*alpha*beta*(q-1), 1 <= y <= alpha."""
    rhs = p - 2 * alpha * beta * (q - 1)
    y = (rhs * pow(beta, -1, alpha)) % alpha if alpha > 1 else 0
    y = y or alpha
    return (rhs - y * beta) // alpha, y


def marks_disjoint(u: str, mark_u: str, v: str, mark_v: str) -> bool:
    """Periodic marked sets of u and v never meet: by CRT, iff no two marks agree mod gcd."""
    g = gcd(len(u), len(v))
    left = {i % g for i, c in enumerate(u) if c == mark_u}
    return not any(j % g in left for j, c in enumerate(v) if c == mark_v)


def _random_coprime(rng: Random, n: int, lo: int, hi: int) -> int:
    """A random integer in [lo, hi] coprime to n."""
    while True:
        a = rng.randint(lo, hi)
        if gcd(a, n) == 1:
            return a


class Sweep:
    """The acceptance grid's traffic: full fast-path vs oracle crosschecks."""

    def __init__(self, seed: int, corrupt: int = 0):
        self.rng = Random(seed)
        self.corrupt = corrupt
        self.shares = Shares()
        self.coprimes = [[]] + [[a for a in range(1, n + 1) if gcd(a, n) == 1]
                                for n in range(1, SWEEP_MAX_LEN + 1)]

    def setup(self):
        pass

    def make_round(self):
        rng, ops = self.rng, []
        for low in range(1, SWEEP_MAX_LEN + 1, SWEEP_STRATUM):
            n = rng.randint(low, low + SWEEP_STRATUM - 1)
            for m in (n, rng.choice([k for k in range(1, SWEEP_MAX_LEN + 1) if k != n])):
                firsts = rng.sample(self.coprimes[n], min(SWEEP_PICKS, len(self.coprimes[n])))
                seconds = rng.sample(self.coprimes[m], min(SWEEP_PICKS, len(self.coprimes[m])))
                ops += [self._op(n, a, m, b) for a in firsts for b in seconds]
        return ops

    def _op(self, n, a_count, m, b_count):
        def run(lib):
            problem = lib.from_letter_counts(n, a_count, m, b_count)
            u, v = lib.first_word(problem), lib.second_word(problem)
            fast = lib.is_superimposable(problem)
            count = lib.count_superimpositions(problem)
            verdict = lib.oracle_superimposable(u, v)
            if not fast:
                return problem, u, fast, count, verdict, None, None
            shift, _ = lib.canonical_shift(problem)
            witness = lib.conjugate(lib.reverse(v), shift)
            return problem, u, fast, count, verdict, witness, lib.perfectly_superimposable(u, witness)

        def check(out):
            problem, u, fast, count, verdict, witness, valid = out
            x, _ = bezout_xy(problem.p, problem.q, problem.alpha, problem.beta)
            self.shares.add(verdict.decision, x, problem.beta)
            if fast != verdict.decision or count != len(verdict.witnesses) + self.corrupt:
                return False
            if not fast:
                return True
            return valid is True and marks_disjoint(u.symbols, "a", witness.symbols, "b")

        return run, check


def planted_problem(rng: Random):
    """(n, m, q, alpha, beta) whose Bezout pair (x, y) is chosen before the lengths.

    p = x*alpha + y*beta + 2*alpha*beta*(q-1) and the lengths are coprime
    multiples of p, so the decision (x >= 1), the count branch (x <= beta)
    and the count are known without calling the library.
    """
    while True:
        alpha, beta = rng.randint(1, 3000), rng.randint(1, 3000)
        if gcd(alpha, beta) != 1:
            continue
        q, y = rng.randint(1, 40), rng.randint(1, alpha)
        kind = rng.randrange(3)
        x = (-rng.randint(0, 2 * beta), rng.randint(1, beta), rng.randint(beta + 1, 4 * beta))[kind]
        p = x * alpha + y * beta + 2 * alpha * beta * (q - 1)
        s, t = rng.randint(1, 1000), rng.randint(1, 1000)
        if p < 1 or gcd(s, t) != 1:
            continue
        n, m = p * s, p * t
        if q * alpha <= n and q * beta <= m and gcd(q * alpha, n) == 1 and gcd(q * beta, m) == 1:
            return n, m, q, alpha, beta, x, y


def _representable(a: int, b: int, amount: int) -> bool:
    """amount = a*x + b*y with x, y >= 0, by one modular inverse."""
    if amount < 0:
        return False
    x = (amount * pow(a, -1, b)) % b if b > 1 else 0
    return a * x <= amount


class Solve:
    """Closed-form answers only, on planted instances with lengths up to ~10^12.

    One operation feeds one planted instance to all five closed forms:
    analyze(n, m, q, alpha, beta), the Beatty criterion for slopes n/(q*alpha)
    and m/(q*beta) (the same equation), the mirror criterion at length
    x*alpha + y*beta or alpha*beta minus a payable amount, and the money
    problem with the coprime coins n and q*alpha.
    """

    def __init__(self, seed: int, corrupt: int = 0):
        self.rng = Random(seed)
        self.corrupt = corrupt
        self.shares = Shares()

    def setup(self):
        pass

    def make_round(self):
        return [self._op() for _ in range(SOLVE_INSTANCES)]

    def _op(self):
        rng, corrupt = self.rng, self.corrupt
        n, m, q, alpha, beta, x, y = planted_problem(rng)
        p, ok = gcd(n, m), x >= 1
        self.shares.add(ok, x, beta)
        base = (x * y if x <= beta else x * alpha + y * beta - alpha * beta) if ok else 0
        expected = (ok, x, y, alpha - y, base * (max(n, m) // p) + corrupt)
        # alpha*beta minus a payable amount has no positive solution; x'*alpha + y'*beta has
        length = alpha * beta - alpha * rng.randint(0, 50) - beta * rng.randint(0, 50)
        mirror = length < max(alpha, beta) or rng.random() < 0.5
        if mirror:
            length = alpha * rng.randint(1, 10**6) + beta * rng.randint(1, 10**6)
        coin = q * alpha
        frobenius = (-1 if coin == 1 else n * coin - n - coin) + corrupt

        def run(lib):
            coins = lib.CoinPair(n, coin)
            return (lib.analyze(lib.SuperimpositionProblem(n, m, q, alpha, beta)),
                    lib.beatty_disjoint_exists(n, q * alpha, m, q * beta),
                    lib.reversal_superimposition_criterion(length, alpha, beta),
                    lib.frobenius_number(coins), lib.nonrepresentable_count(coins))

        def check(out):
            rep, beatty, mirrored, g, gaps = out
            got = (rep.superimposable, rep.bezout.x, rep.bezout.y, rep.bezout.z, rep.count)
            if (got != expected or beatty is not ok or mirrored is not mirror
                    or gaps != (n - 1) * (coin - 1) // 2 or g != frobenius):
                return False
            # certificates: g is the largest unpayable amount; the shift is 1 - r, q*r = 1 (mod p)
            if coin > 1 and (_representable(n, coin, g) or not _representable(n, coin, g + 1)):
                return False
            if not ok:
                return rep.canonical_shift is None
            return 0 <= rep.canonical_shift < m and (q * (1 - rep.canonical_shift)) % p == 1 % p

        return run, check


class Large:
    """Few, big calls on fresh inputs: builds, predicates, transforms, validators."""

    def __init__(self, seed: int, corrupt: int = 0):
        self.rng = Random(seed)
        self.corrupt = corrupt
        self.shares = Shares()

    def setup(self):
        pass

    def make_round(self):
        return [self._build(), self._positions(), self._balanced(), self._circular(),
                self._fraenkel(), self._primitive(True), self._primitive(False),
                self._conjugate(), self._decimate(), self._dense(), self._representable()]

    # Sizes vary little, so every round costs about the same, yet no input repeats.
    def _spec(self, n_min):
        n = self.rng.randint(n_min, n_min + n_min // 1000)
        return ChristoffelSpec(n, _random_coprime(self.rng, n, n // 5, 4 * n // 5))

    def _word(self, n_min):
        return christoffel.christoffel_word(self._spec(n_min))

    def _known(self, run, expected):
        expected ^= bool(self.corrupt)
        return run, lambda got: got is expected

    def _build(self):
        spec = self._spec(100_000)
        n, alpha = spec.n, spec.alpha

        def check(word):
            # low letters sit at the multiples of -alpha^-1 mod n
            step = -pow(alpha, -1, n) % n
            lows = [i for i, c in enumerate(word.symbols) if c == "a"]
            return len(word) == n + self.corrupt and lows == sorted(k * step % n for k in range(alpha))

        return (lambda lib: lib.christoffel_word(spec)), check

    def _positions(self):
        spec = self._spec(100_000)
        n, alpha, beta = spec.n, spec.alpha, spec.beta

        def check(pos):
            # letter r is low iff (r+1)*beta advances past r*beta modulo n without wrapping
            return len(pos) == alpha + self.corrupt and all(
                (r + 1) * beta % n > r * beta % n for r in pos.residues)

        return (lambda lib: lib.letter_positions(spec)), check

    def _balanced(self):
        word = self._word(4000)  # Christoffel words are balanced
        return self._known(lambda lib: lib.is_balanced(word), True)

    def _circular(self):
        word = self._word(2000)  # ... and so are their conjugates, circularly
        word = christoffel.conjugate(word, self.rng.randrange(len(word)))
        return self._known(lambda lib: lib.is_circularly_balanced(word), True)

    def _fraenkel(self):
        index, filler = self.rng.randrange(12), self.rng.choice("xyzwvu")

        def run(lib):  # every projection of a Fraenkel word is circularly balanced
            word = lib.fraenkel_word(12)
            return lib.is_circularly_balanced(lib.projection(word, word.alphabet.letters[index], filler))

        return self._known(run, True)

    def _primitive(self, coprime: bool):
        if coprime:
            word = self._word(100_000)
        else:  # gcd(n, alpha) = r > 1 gives the r-th power of a shorter word
            r = self.rng.randint(2, 9)
            spec = self._spec(100_000 // r)
            word = christoffel.christoffel_word(ChristoffelSpec(spec.n * r, spec.alpha * r))
        return self._known(lambda lib: lib.is_primitive(word), coprime)

    def _conjugate(self):
        word = self._word(100_000)
        k = self.rng.randrange(1, len(word))
        s = word.symbols

        def check(got):
            return got.symbols == s[k + self.corrupt:] + s[:k + self.corrupt]

        return (lambda lib: lib.conjugate(word, k)), check

    def _decimate(self):
        rng = self.rng
        word = self._word(100_000)
        q = rng.randint(2, 9)
        letter = rng.choice("ax")
        spec = DecimationSpec(rng.randint(1, q - 1), q, rng.choice(list(Direction)), letter)
        total = word.symbols.count(letter)
        removed = spec.p * (total // q) + min(spec.p, total % q) + self.corrupt

        def check(got):
            other = "x" if letter == "a" else "a"
            return (got.symbols.count(letter) == total - removed
                    and got.symbols.count(other) == word.symbols.count(other)
                    and len(got) == len(word) - removed)

        return (lambda lib: lib.decimate(word, spec)), check

    def _dense(self):
        n = self.rng.randint(1000, 1004)
        a = max(c for c in range(1, n // 2 + 1) if gcd(c, n) == 1)
        b = max(c for c in range(1, (n + 1) // 2 + 1) if gcd(c, n + 1) == 1)
        u = christoffel.christoffel_word(ChristoffelSpec(n, a, "a", "x"))
        v = christoffel.christoffel_word(ChristoffelSpec(n + 1, b, "b", "x"))
        # coprime lengths: every pair of marks meets somewhere
        return self._known(lambda lib: lib.perfectly_superimposable(u, v), False)

    def _representable(self):
        # worst case: a small coin, and an amount that is never payable
        # (a*b - a - b minus a payable amount)
        a = 3
        b = _random_coprime(self.rng, a, 400_000, 400_400)
        amount = a * b - a - b - a * self.rng.randint(0, 50)
        return self._known(lambda lib: lib.representable(lib.CoinPair(a, b), amount), False)


class Cli:
    """One client, closed loop: README verbs run back to back as child processes."""

    def __init__(self, seed: int, corrupt: int = 0):
        self.rng = Random(seed)
        self.corrupt = corrupt
        self.shares = Shares()
        self.pool = []

    def setup(self):
        """Seeded superimpose instances, half of them superimposable, with oracle answers."""
        rng = self.rng
        while len(self.pool) < CLI_POOL:
            n, m = rng.randint(2, CLI_MAX_LEN), rng.randint(2, CLI_MAX_LEN)
            if rng.random() < 0.5:
                m = n
            a_count = _random_coprime(rng, n, 1, n)
            b_count = _random_coprime(rng, m, 1, m)
            problem = christoffel.SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
            u, v = problem.first_word(), problem.second_word()
            verdict = christoffel.oracle_superimposable(u, v)
            if verdict.decision != (len(self.pool) % 2 == 0):
                continue
            x, _ = bezout_xy(problem.p, problem.q, problem.alpha, problem.beta)
            self.shares.add(verdict.decision, x, problem.beta)
            self.pool.append((problem, v.symbols[::-1], verdict))

    def make_round(self):
        ops = [self._example(argv, out) for argv, out in CLI_EXAMPLES]
        ops.append(self._superimpose(*self.rng.choice(self.pool)))
        return ops

    def _example(self, argv, stdout):
        expected = (stdout + " " * self.corrupt).encode()
        return (lambda lib: lib.cli(argv)), lambda got: got == (0, expected)

    def _superimpose(self, problem, reversed_v, verdict):
        pr = problem
        argv = ("superimpose", "--n", str(pr.n), "--m", str(pr.m), "--q", str(pr.q),
                "--a", str(pr.alpha), "--b", str(pr.beta), "--count", "--shift", "--json")
        u = pr.first_word().symbols

        def check(got):
            status, stdout = got
            out = json.loads(stdout)
            x, y = out["x"], out["y"]
            if (status != 0 or out["superimposable"] != verdict.decision
                    or out["count"] != len(verdict.witnesses) + self.corrupt
                    or x * pr.alpha + y * pr.beta != pr.p - 2 * pr.alpha * pr.beta * (pr.q - 1)
                    or not 1 <= y <= pr.alpha):
                return False
            shift = out["canonical_shift"]
            if not verdict.decision:
                return shift is None
            return marks_disjoint(u, "a", reversed_v[shift:] + reversed_v[:shift], "b")

        return (lambda lib: lib.cli(argv)), check


WORKLOADS = {"sweep": Sweep, "large": Large, "solve": Solve, "cli": Cli}
