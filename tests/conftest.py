"""Shared helpers: independent brute-force reference checks used across the suite."""

from itertools import product
from math import gcd, lcm

from hypothesis import settings

from christoffel import ChristoffelSpec, christoffel_word

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def coprimes(n):
    return [a for a in range(1, n + 1) if gcd(a, n) == 1]


def cw(n, alpha, low="a", high="x"):
    return christoffel_word(ChristoffelSpec(n, alpha, low, high))


def brute_christoffel(n, alpha, low="a", high="x"):
    """C(n, alpha) letter by letter: i is low iff (i+1)*beta advances mod n without wrapping."""
    if alpha == n:
        return low * n
    beta = n - alpha
    prev = 0
    out = []
    for i in range(n):
        cur = ((i + 1) * beta) % n
        out.append(low if cur > prev else high)
        prev = cur
    return "".join(out)


def brute_superimposable(u, v):
    """Superimposition from mark position lists, each shift rotated bit by bit over the lcm.

    Returns (decision, witnesses, modulus), with the operands ordered like
    `oracle_superimposable` and the fields of `OracleResult`.
    """
    def marks(w, other):
        lw, lo = set(w.alphabet.letters), set(other.alphabet.letters)
        mark = (lw - lo).pop()
        return [i for i, c in enumerate(w.symbols) if c == mark]

    def replicated(positions, period, length):
        base = 0
        for pos in positions:
            base |= 1 << pos
        mask = 0
        for t in range(length // period):
            mask |= base << (t * period)
        return mask

    pos_u, pos_v = marks(u, v), marks(v, u)
    n, m = len(u), len(v)
    if n > m:
        pos_u, pos_v = pos_v, pos_u
        n, m = m, n
    period = lcm(n, m)
    fixed = replicated(pos_u, n, period)
    moving = replicated(pos_v, m, period)
    full = (1 << period) - 1
    witnesses = []
    for k in range(m):
        rotated = ((moving >> k) | (moving << (period - k))) & full
        if rotated & fixed == 0:
            witnesses.append(k)
    return bool(witnesses), tuple(witnesses), m


def scan_positions(word, letter):
    """Letter positions read off the word symbols directly."""
    return {i for i, c in enumerate(word.symbols) if c == letter}


def brute_balanced(s):
    """Balance by literal comparison of every pair of equal-length factors."""
    n = len(s)
    for width in range(1, n + 1):
        factors = [s[i:i + width] for i in range(n - width + 1)]
        for letter in set(s):
            counts = [f.count(letter) for f in factors]
            if max(counts) - min(counts) > 1:
                return False
    return True


def brute_circularly_balanced(s):
    return brute_balanced(s + s)


def brute_primitive(s):
    """Primitivity by trying every proper divisor d of the length as a root length."""
    n = len(s)
    return not any(n % d == 0 and s == s[:d] * (n // d) for d in range(1, n))


def balanced_words(letters, max_len):
    """All balanced words up to max_len, grown by DFS.

    A factor of a balanced word is balanced, so unbalanced prefixes prune.
    """
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for c in letters:
                cand = w + c
                if brute_balanced(cand):
                    new.append(cand)
        frontier = new
        out.extend(new)
    return out


def words_upto(letters, max_len):
    for length in range(max_len + 1):
        for tup in product(letters, repeat=length):
            yield "".join(tup)
