"""Command-line interface exposing every library operation.

Exit codes: 0 success (including negative answers), 2 argument errors,
3 precondition violations, 4 oracle disagreement under --oracle or oracle-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from .christoffel import (
    ChristoffelSpec,
    cayley_graph,
    christoffel_path,
    christoffel_word,
    letter_positions,
    modular_complement,
)
from .fraenkel import beatty_disjoint_exists, beatty_slice, BeattySpec, fraenkel_word, letter_frequencies
from .money import CoinPair, boundary_word, frobenius_number, nonrepresentable_count, representable, shifted_cayley
from .oracle import crosscheck, crosscheck_beatty, crosscheck_money
from .superimpose import (
    SuperimpositionProblem,
    analyze,
    canonical_witness,
    collapse_merge,
    interval_offsets,
    merge_superimposition,
    perfectly_superimposable,
    reversal_superimposition_criterion,
)
from .words import (
    Direction,
    DecimationSpec,
    OrderedAlphabet,
    Word,
    decimate,
    is_balanced,
    is_circularly_balanced,
    is_primitive,
    projection,
)

OK, PRECONDITION_ERROR, ORACLE_MISMATCH = 0, 3, 4


class CommandError(Exception):
    """A precondition or consistency failure with a CLI exit status."""

    def __init__(self, message, status=PRECONDITION_ERROR):
        super().__init__(message)
        self.status = status


def _split(spec: str) -> tuple[str, ...]:
    """The letters of a --letters value: comma-separated if it has a comma, else one per character."""
    return tuple(spec.split(",")) if "," in spec else tuple(spec)


def _letters(spec: str, count: int) -> tuple[str, ...]:
    parts = _split(spec)
    if len(parts) != count:
        raise CommandError(f"expected {count} letters, got {spec!r}")
    return parts


def _word(args) -> Word:
    """--word over the --letters order, or over its own letters sorted."""
    letters = _split(args.letters) if args.letters else sorted(set(args.word))
    return Word(args.word, OrderedAlphabet(letters))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational number: {text!r}") from None


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _oracle_verdict(payload, lines, part: str | None, detail: str, **fields) -> int:
    """Record a cross-check's verdict in the output; the part that disagreed, if any, makes the exit status 4."""
    payload.update(fields, oracle_agrees=part is None)
    lines.append(f"oracle: agree{detail}" if part is None else f"oracle: DISAGREE on {part}{detail}")
    return OK if part is None else ORACLE_MISMATCH


def _cmd_gen(args):
    low, high = _letters(args.letters, 2)
    spec = ChristoffelSpec(args.n, args.alpha, low, high)
    word = christoffel_word(spec)
    payload = {"n": args.n, "alpha": args.alpha,
               "letters": [low, high], "word": word.symbols}
    lines = [word.symbols]
    if args.cayley:
        graph = cayley_graph(spec)
        payload["cayley_traversal"] = list(graph.traversal)
        payload["cayley_labels"] = graph.labels
        lines.append("cayley: " + " -> ".join(str(v) for v in graph.traversal))
    if args.path:
        path = christoffel_path(args.alpha, args.n - args.alpha)
        moves = "".join(step.value for step in path.steps)
        payload["path"] = moves
        payload["path_endpoint"] = list(path.endpoint)
        lines.append("path: " + moves)
    return OK, payload, lines


def _cmd_positions(args):
    spec = ChristoffelSpec(args.n, args.alpha)
    pos = letter_positions(spec)
    complement = None
    if args.n >= 2 and gcd(args.n, args.alpha) == 1:
        complement = modular_complement(args.alpha, args.n)
    payload = {"n": args.n, "alpha": args.alpha,
               "residues": list(pos.residues), "complement": complement}
    return OK, payload, [" ".join(str(r) for r in pos.residues)]


def _cmd_balance(args):
    word = _word(args)
    balanced = is_balanced(word)
    circular = is_circularly_balanced(word)
    primitive = is_primitive(word) if len(word) > 0 else None
    counts = letter_frequencies(word)
    payload = {"word": word.symbols, "balanced": balanced,
               "circularly_balanced": circular, "primitive": primitive, "counts": counts}
    lines = [
        f"word: {word.symbols}",
        f"balanced: {_yesno(balanced)}",
        f"circularly balanced: {_yesno(circular)}",
        f"primitive: {'n/a' if primitive is None else _yesno(primitive)}",
        "counts: " + " ".join(f"{c}={k}" for c, k in counts.items()),
    ]
    return OK, payload, lines


def _cmd_superimpose(args):
    problem = SuperimpositionProblem(args.n, args.m, args.q, args.a, args.b)
    report = analyze(problem)
    sol, ok = report.bezout, report.superimposable
    payload = {"n": args.n, "m": args.m, "q": args.q,
               "alpha": args.a, "beta": args.b, "superimposable": ok,
               "x": sol.x, "y": sol.y, "z": sol.z}
    lines = [f"superimposable: {_yesno(ok)}", f"x={sol.x} y={sol.y} z={sol.z}"]
    status = OK
    if args.count:
        payload["count"] = report.count
        lines.append(f"count: {report.count}")
    if args.shift:
        payload["canonical_shift"] = report.canonical_shift
        payload["reversed"] = ok
        lines.append(f"canonical shift: {report.canonical_shift} (reversed second word)" if ok
                     else "canonical shift: none")
    if args.offsets:
        offsets = list(interval_offsets(problem))
        payload["offsets"] = offsets
        lines.append("offsets: " + " ".join(str(v) for v in offsets))
    if args.mirror:
        if args.n != args.m or args.q != 1:
            raise CommandError("--mirror applies to same-length words with q=1")
        mirror = reversal_superimposition_criterion(args.n, args.a, args.b)
        payload["mirror"] = mirror
        lines.append(f"mirror criterion: {_yesno(mirror)}")
    if args.oracle:
        result, part = crosscheck(problem)
        count = len(result.witnesses)
        status = _oracle_verdict(payload, lines, part, f" (count {count})",
                                 oracle_decision=result.decision, oracle_count=count)
    return status, payload, lines


def _cmd_decimate(args):
    word = _word(args)
    spec = DecimationSpec(args.p, args.q, args.direction, args.letter)
    out = decimate(word, spec)
    payload = {"word": word.symbols, "letter": args.letter,
               "p": args.p, "q": args.q, "direction": args.direction, "result": out.symbols}
    return OK, payload, [out.symbols]


def _cmd_merge(args):
    mark_u, mark_v, filler = _letters(args.letters, 3)
    if args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise CommandError("word mode needs both --u and --v")
        u = Word(args.u, OrderedAlphabet((mark_u, filler)))
        v = Word(args.v, OrderedAlphabet((mark_v, filler)))
        merged = merge_superimposition(u, v)
        collapsed = collapse_merge(merged, filler)
        payload = {"u": u.symbols, "v": v.symbols,
                   "merged": merged.symbols, "collapsed": collapsed.symbols}
        return OK, payload, [f"merged: {merged.symbols}", f"collapsed: {collapsed.symbols}"]
    if args.n is None or args.a is None or args.b is None:
        raise CommandError("pipeline mode needs --n, --a and --b")
    problem = SuperimpositionProblem.from_letter_counts(args.n, args.a, args.n, args.b)
    report = analyze(problem)
    if not report.superimposable:
        raise CommandError(f"C({args.n},{args.a}) and C({args.n},{args.b}) are not superimposable")
    u, witness = canonical_witness(problem, mark_u, mark_v, filler)
    v = problem.second_word(mark_v, filler)
    if not perfectly_superimposable(u, witness):
        raise CommandError("internal: canonical witness failed to superimpose", ORACLE_MISMATCH)
    merged = merge_superimposition(u, witness)
    collapsed = collapse_merge(merged, filler)
    payload = {"n": args.n, "a": args.a, "b": args.b,
               "u": u.symbols, "v": v.symbols, "shift": report.canonical_shift, "witness": witness.symbols,
               "merged": merged.symbols, "collapsed": collapsed.symbols}
    lines = [f"u: {u.symbols}", f"v: {v.symbols}", f"witness: {witness.symbols}",
             f"merged: {merged.symbols}", f"collapsed: {collapsed.symbols}"]
    return OK, payload, lines


def _cmd_frobenius(args):
    coins = CoinPair(args.a, args.b)
    g = frobenius_number(coins)
    count = nonrepresentable_count(coins)
    payload = {"a": args.a, "b": args.b,
               "frobenius": g, "nonrepresentable": count}
    lines = [f"g({args.a},{args.b}) = {g}; non-representable: {count}"]
    status = OK
    if args.amount is not None:
        ok = representable(coins, args.amount)
        payload["amount"] = args.amount
        payload["representable"] = ok
        lines.append(f"representable({args.amount}): {_yesno(ok)}")
    if args.oracle:
        (largest, gaps), part = crosscheck_money(coins)
        status = _oracle_verdict(payload, lines, part, f" ({largest}, {gaps})",
                                 oracle_frobenius=largest, oracle_nonrepresentable=gaps)
    return status, payload, lines


def _cmd_boundary(args):
    low, high = _letters(args.letters, 2)
    coins = CoinPair(args.a, args.b)
    walk = boundary_word(coins, low, high)
    payload = {"a": args.a, "b": args.b, "letters": [low, high],
               "word": walk.word.symbols, "values": list(walk.values),
               "cells": sorted([x, y, value] for (x, y), value in walk.cells.items())}
    lines = [walk.word.symbols]
    if args.values:
        values = shifted_cayley(coins)
        payload["shifted_cayley"] = list(values)
        lines.append(", ".join(str(v) for v in values))
    return OK, payload, lines


def _cmd_fraenkel(args):
    word = fraenkel_word(args.k)
    freq = letter_frequencies(word)
    payload = {"k": args.k, "word": word.symbols, "frequencies": freq}
    lines = [word.symbols]
    if args.project is not None:
        if not 1 <= args.project <= args.k:
            raise CommandError(f"projection index must lie in [1, {args.k}]")
        letter = word.alphabet.letters[args.project - 1]
        proj = projection(word, letter, args.filler)
        payload["projection"] = proj.symbols
        payload["projection_circularly_balanced"] = is_circularly_balanced(proj)
        lines.append(proj.symbols)
    return OK, payload, lines


def _cmd_beatty(args):
    slice_mode = args.p is not None
    disjoint_mode = args.p1 is not None
    if slice_mode == disjoint_mode:
        raise CommandError("use either --p/--q/--lo/--hi or --p1/--q1/--p2/--q2")
    if slice_mode:
        if None in (args.q, args.lo, args.hi):
            raise CommandError("slice mode needs --p, --q, --lo and --hi")
        spec = BeattySpec(args.p, args.q, args.offset)
        values = beatty_slice(spec, args.lo, args.hi)
        payload = {"p": args.p, "q": args.q, "offset": str(spec.offset),
                   "lo": args.lo, "hi": args.hi, "values": values}
        return OK, payload, [", ".join(str(v) for v in values)]
    if None in (args.q1, args.p2, args.q2):
        raise CommandError("disjoint mode needs --p1, --q1, --p2 and --q2")
    exists = beatty_disjoint_exists(args.p1, args.q1, args.p2, args.q2)
    payload = {"p1": args.p1, "q1": args.q1, "p2": args.p2, "q2": args.q2,
               "disjoint_possible": exists}
    lines = [f"disjoint offsets exist: {_yesno(exists)}"]
    status = OK
    if args.oracle:
        result, part = crosscheck_beatty(args.p1, args.q1, args.p2, args.q2)
        offsets = None if result.offsets is None else [str(f) for f in result.offsets]
        witness = "" if offsets is None else f" (offsets {offsets[0]}, {offsets[1]})"
        status = _oracle_verdict(payload, lines, part, witness,
                                 oracle_disjoint=result.disjoint_possible, oracle_offsets=offsets)
    return status, payload, lines


def _cmd_oracle_check(args):
    checked = 0
    disagreements, reproducers = [], []
    for flag, bound in (("--max-n", args.max_n), ("--unequal-max", args.unequal_max)):
        if bound < 0:
            raise CommandError(f"{flag} must not be negative, got {bound}")
    sizes = [(n, n) for n in range(1, args.max_n + 1)]
    if args.unequal_max:
        sizes += [(n, m) for n in range(1, args.unequal_max + 1)
                  for m in range(1, args.unequal_max + 1) if n != m]
    for n, m in sizes:
        for a_count in (a for a in range(1, n + 1) if gcd(a, n) == 1):
            for b_count in (b for b in range(1, m + 1) if gcd(b, m) == 1):
                problem = SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
                checked += 1
                part = crosscheck(problem)[1]
                if part:  # superimpose takes the reduced counts q, alpha and beta
                    disagreements.append([n, m, a_count, b_count, part])
                    reproducers.append(f"disagree ({part}): n={n} m={m} a={a_count} b={b_count}: christoffel "
                                       f"superimpose --n {n} --m {m} --q {problem.q} --a {problem.alpha} "
                                       f"--b {problem.beta} --count --shift --oracle")
    payload = {"max_n": args.max_n,
               "unequal_max": args.unequal_max, "instances": checked,
               "disagreements": disagreements}
    lines = [f"checked {checked} instances: {len(disagreements)} disagreements", *reproducers]
    return (OK if not disagreements else ORACLE_MISMATCH), payload, lines


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="christoffel",
        description="Christoffel words: construction, superimposition, decimation, Beatty and money problems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
        return p

    p = add("gen", _cmd_gen, help="generate C(n, alpha)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--letters", default="a,x", help="low,high letters (default a,x)")
    p.add_argument("--cayley", action="store_true", help="include the Cayley graph walk")
    p.add_argument("--path", action="store_true", help="include the lattice path encoding")

    p = add("positions", _cmd_positions, help="positions of the low letter modulo n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)

    p = add("balance", _cmd_balance, help="balance, circular balance, primitivity, letter counts")
    p.add_argument("--word", required=True)
    p.add_argument("--letters", default=None, help="alphabet order (default: sorted letters of the word)")

    p = add("superimpose", _cmd_superimpose, help="decide and analyse a superimposition problem")
    p.add_argument("--n", type=int, required=True, help="length of the first word")
    p.add_argument("--m", type=int, required=True, help="length of the second word")
    p.add_argument("--a", type=int, required=True, help="reduced marked count of the first word")
    p.add_argument("--b", type=int, required=True, help="reduced marked count of the second word")
    p.add_argument("--q", type=int, default=1, help="common factor of the marked counts (default 1)")
    p.add_argument("--count", action="store_true", help="include the number of admissible shifts")
    p.add_argument("--shift", action="store_true", help="include the canonical witness shift")
    p.add_argument("--offsets", action="store_true", help="include the interval offsets diagnostic")
    p.add_argument("--mirror", action="store_true",
                   help="include the reversal criterion (same length, q=1 only)")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")

    p = add("decimate", _cmd_decimate, help="remove p of every q occurrences of a letter")
    p.add_argument("--word", required=True)
    p.add_argument("--letter", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--direction", choices=[d.value for d in Direction], required=True)
    p.add_argument("--letters", default=None, help="alphabet order (default: sorted letters of the word)")

    p = add("merge", _cmd_merge, help="overlay two superimposable words and collapse the filler")
    p.add_argument("--n", type=int, default=None, help="common length (pipeline mode)")
    p.add_argument("--a", type=int, default=None, help="marked count of the first word")
    p.add_argument("--b", type=int, default=None, help="marked count of the second word")
    p.add_argument("--u", default=None, help="first word (word mode)")
    p.add_argument("--v", default=None, help="second word (word mode)")
    p.add_argument("--letters", default="a,b,z", help="first mark, second mark, filler (default a,b,z)")

    p = add("frobenius", _cmd_frobenius, help="largest non-payable amount and the gap count")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--amount", type=int, default=None, help="also test one amount for payability")
    p.add_argument("--oracle", action="store_true", help="cross-check against the sieve")

    p = add("boundary", _cmd_boundary, help="staircase boundary word of the money quadrant")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--letters", default="α,β", help="right,up letters (default greek alpha,beta)")
    p.add_argument("--values", action="store_true", help="include the shifted Cayley value walk")

    p = add("fraenkel", _cmd_fraenkel, help="the recursive Fraenkel word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--project", type=int, default=None, help="also project onto the i-th letter")
    p.add_argument("--filler", default="x", help="filler letter for the projection (default x)")

    p = add("beatty", _cmd_beatty, help="Beatty sequence slices and disjointness")
    p.add_argument("--p", type=int, default=None, help="slope numerator (slice mode)")
    p.add_argument("--q", type=int, default=None, help="slope denominator (slice mode)")
    p.add_argument("--offset", type=_fraction, default="0", help="rational offset, e.g. 1/2 (slice mode)")
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.add_argument("--p1", type=int, default=None, help="first slope numerator (disjoint mode)")
    p.add_argument("--q1", type=int, default=None)
    p.add_argument("--p2", type=int, default=None)
    p.add_argument("--q2", type=int, default=None)
    p.add_argument("--oracle", action="store_true", help="cross-check by exhaustive shift search")

    p = add("oracle-check", _cmd_oracle_check, help="sweep the fast paths against the oracle")
    p.add_argument("--max-n", type=int, default=30, help="same-length sweep bound (default 30)")
    p.add_argument("--unequal-max", type=int, default=0,
                   help="also sweep unequal lengths up to this bound")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, payload, lines = args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    if args.json:
        payload["verb"] = args.verb
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
