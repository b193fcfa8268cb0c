import contextlib
import importlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
from math import gcd

import pytest

import christoffel
from christoffel import (BeattyOracleResult, CoinPair, SuperimpositionProblem, SuperimpositionReport, analyze,
                         count_superimpositions, crosscheck, crosscheck_beatty, crosscheck_money)
from christoffel import oracle
from christoffel.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# Public functions that no README command calls. The library tests cover them,
# and test_cli_count_is_count_superimpositions ties the count to `superimpose --count`.
LIBRARY_ONLY = {"count_superimpositions"}


def run_cli(capsys, *args):
    status = main(list(args))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def readme_commands():
    """The argument lists of the README's command-line block, program name dropped."""
    with open(README, encoding="utf-8") as f:
        block = f.read().split("## Command-line usage", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
                if line.startswith("christoffel ")]
    # A smaller sweep reaches the same functions as the README's.
    return [["oracle-check", "--max-n", "8", "--unequal-max", "6"] if argv[0] == "oracle-check" else argv
            for argv in commands]


README_BYTES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "readme_cli.json")


def readme_runs():
    """Each README command, in text and --json form, with its stdout, stderr and exit status."""
    runs = []
    for argv in readme_commands():
        for form in (argv, argv + ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(form)
            runs.append({"argv": form, "status": status, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return runs


def test_readme_commands_print_the_recorded_bytes():
    # The record is written once by `PYTHONPATH=src python tests/test_cli.py`
    # and never edited to make a change pass.
    with open(README_BYTES, encoding="utf-8") as f:
        recorded = json.load(f)
    runs = readme_runs()
    assert [run["argv"] for run in runs] == [run["argv"] for run in recorded]
    for run, expected in zip(runs, recorded):
        assert run == expected, run["argv"]


def test_every_operation_is_reachable(capsys):
    """Run the README's commands under a profiler and list the public functions they call.

    Functions are matched by code object, not by name, so a method or property
    that shares a public function's name cannot stand in for it.
    """
    functions = {name: getattr(christoffel, name).__code__ for name in christoffel.__all__
                 if not inspect.isclass(getattr(christoffel, name))}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    commands = readme_commands()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        statuses = [main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert statuses == [0] * len(commands)
    unreached = {name for name, code in functions.items() if code not in called}
    assert unreached == LIBRARY_ONLY


def test_all_lists_every_public_definition():
    """Each library module's __all__ is exactly its public functions and classes.

    The package's __all__ is their sorted union, with no name in two lists.
    """
    exported = []
    for module_name in ("words", "christoffel", "superimpose", "money", "fraenkel", "oracle"):
        module = importlib.import_module(f"christoffel.{module_name}")
        defined = {name for name, obj in vars(module).items()
                   if (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__ and not name.startswith("_")}
        assert set(module.__all__) == defined, module.__name__
        exported += module.__all__
    assert len(set(exported)) == len(exported)
    assert christoffel.__all__ == sorted(exported)


def test_cli_count_is_count_superimpositions(capsys):
    """superimpose --count prints what count_superimpositions returns, on every small primitive pair."""
    sizes = [(n, n) for n in range(1, 21)] + [(n, m) for n in range(1, 13) for m in range(1, 13) if n != m]
    counts = set()
    for n, m in sizes:
        for a_count in (a for a in range(1, n + 1) if gcd(a, n) == 1):
            for b_count in (b for b in range(1, m + 1) if gcd(b, m) == 1):
                problem = SuperimpositionProblem.from_letter_counts(n, a_count, m, b_count)
                status, out, _ = run_cli(
                    capsys, "superimpose", "--n", str(n), "--m", str(m), "--q", str(problem.q),
                    "--a", str(problem.alpha), "--b", str(problem.beta), "--count", "--json",
                )
                assert status == 0
                count = json.loads(out)["count"]
                assert count == count_superimpositions(problem), (n, m, a_count, b_count)
                counts.add(count)
    assert 0 in counts and len(counts) > 10


def test_gen(capsys):
    assert run_cli(capsys, "gen", "--n", "8", "--alpha", "5", "--letters", "a,x") == (0, "aaxaaxax\n", "")


def test_gen_cayley_and_path(capsys):
    status, out, _ = run_cli(capsys, "gen", "--n", "8", "--alpha", "5", "--cayley", "--path")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "aaxaaxax"
    assert lines[1] == "cayley: 0 -> 3 -> 6 -> 1 -> 4 -> 7 -> 2 -> 5 -> 0"
    assert lines[2] == "path: RRURRURU"


def test_gen_json_round_trip(capsys):
    status, out, _ = run_cli(capsys, "gen", "--n", "13", "--alpha", "4", "--letters", "a,z", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["word"] == "azzazzazzazzz"
    assert json.dumps(payload, sort_keys=True) + "\n" == out


def test_gen_precondition_violation(capsys):
    status, _, err = run_cli(capsys, "gen", "--n", "8", "--alpha", "0")
    assert status == 3
    assert "alpha" in err
    assert run_cli(capsys, "gen", "--n", "8", "--alpha", "5", "--letters", "abc") == (
        3, "", "error: expected 2 letters, got 'abc'\n")


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "8"])
    assert exc.value.code == 2


def test_positions(capsys):
    assert run_cli(capsys, "positions", "--n", "8", "--alpha", "5") == (0, "0 1 3 4 6\n", "")
    status, out, _ = run_cli(capsys, "positions", "--n", "13", "--alpha", "4", "--json")
    payload = json.loads(out)
    assert payload["residues"] == [0, 3, 6, 9]
    assert payload["complement"] == 3


def test_balance(capsys):
    status, out, _ = run_cli(capsys, "balance", "--word", "112121")
    assert status == 0
    lines = out.splitlines()
    assert "balanced: yes" in lines
    assert "circularly balanced: no" in lines
    status, out, _ = run_cli(capsys, "balance", "--word", "112", "--json")
    payload = json.loads(out)
    assert payload["balanced"] and payload["circularly_balanced"]
    assert payload["counts"] == {"1": 2, "2": 1}
    assert payload["primitive"] is True
    status, out, _ = run_cli(capsys, "balance", "--word", "abab", "--letters", "b,a")
    assert status == 0
    assert "counts: b=2 a=2" in out.splitlines()


@pytest.mark.parametrize("letters, message", [
    ("aa", "alphabet letters must be distinct: ('a', 'a')"),
    ("a,", "letter '' is not a single printable character"),
    ("ab,c", "letter 'ab' is not a single printable character"),
])
@pytest.mark.parametrize("verb", [
    ["balance"],
    ["decimate", "--letter", "a", "--p", "1", "--q", "2", "--direction", "left-to-right"],
])
def test_word_letters_are_checked_by_the_alphabet(capsys, verb, letters, message):
    """--letters of balance and decimate is split like every other --letters and checked as an alphabet."""
    assert run_cli(capsys, *verb, "--word", "aa", "--letters", letters) == (3, "", f"error: {message}\n")


def test_superimpose_json_example(capsys):
    status, out, _ = run_cli(
        capsys, "superimpose", "--n", "13", "--a", "4", "--m", "13", "--b", "3",
        "--q", "1", "--count", "--shift", "--json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["superimposable"] is True
    assert payload["x"] == 1 and payload["y"] == 3
    assert payload["count"] == 3
    assert payload["canonical_shift"] == 0
    assert payload["reversed"] is True


def test_superimpose_text_with_oracle(capsys):
    status, out, _ = run_cli(
        capsys, "superimpose", "--n", "4", "--a", "1", "--m", "6", "--b", "1",
        "--count", "--shift", "--oracle",
    )
    assert status == 0
    assert "superimposable: yes" in out
    assert "count: 3" in out
    assert "oracle: agree (count 3)" in out


def test_superimpose_offsets_and_mirror(capsys):
    status, out, _ = run_cli(
        capsys, "superimpose", "--n", "13", "--a", "4", "--m", "13", "--b", "3",
        "--offsets", "--mirror", "--json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["offsets"] == [0, 4, 8, 12]
    assert payload["mirror"] is True


def test_superimpose_mirror_requires_equal_lengths(capsys):
    status, _, err = run_cli(
        capsys, "superimpose", "--n", "4", "--a", "1", "--m", "6", "--b", "1", "--mirror",
    )
    assert status == 3
    assert "mirror" in err


def test_superimpose_invalid_problem(capsys):
    status, _, err = run_cli(capsys, "superimpose", "--n", "8", "--a", "2", "--m", "8", "--b", "3")
    assert status == 3
    assert "coprime" in err


def test_decimate(capsys):
    assert run_cli(capsys, "decimate", "--word", "aabaabababa", "--letter", "a", "--p", "1", "--q", "3",
                   "--direction", "right-to-left") == (0, "abababab\n", "")
    assert run_cli(capsys, "decimate", "--word", "abababab", "--letter", "b", "--p", "1", "--q", "2",
                   "--direction", "left-to-right") == (0, "aabaab\n", "")


def test_merge_pipeline(capsys):
    status, out, _ = run_cli(capsys, "merge", "--n", "13", "--a", "4", "--b", "3", "--letters", "a,b,z")
    assert status == 0
    assert out.splitlines() == [
        "u: azzazzazzazzz",
        "v: bzzzbzzzbzzzz",
        "witness: zzzzbzzzbzzzb",
        "merged: azzabzazbazzb",
        "collapsed: aababab",
    ]


def test_merge_word_mode(capsys):
    status, out, _ = run_cli(
        capsys, "merge", "--u", "azzazzazzazzz", "--v", "zzzzbzzzbzzzb",
    )
    assert status == 0
    assert "merged: azzabzazbazzb" in out
    assert "collapsed: aababab" in out


def test_merge_word_mode_conflict(capsys):
    status, _, err = run_cli(capsys, "merge", "--u", "az", "--v", "bz")
    assert status == 3
    assert "collide" in err
    for argv, message in [(("--u", "az"), "word mode needs both --u and --v"),
                          (("--n", "13", "--a", "4"), "pipeline mode needs --n, --a and --b")]:
        assert run_cli(capsys, "merge", *argv) == (3, "", f"error: {message}\n")


def test_merge_witness_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr("christoffel.cli.perfectly_superimposable", lambda u, v: False)
    assert run_cli(capsys, "merge", "--n", "13", "--a", "4", "--b", "3") == (
        4, "", "error: internal: canonical witness failed to superimpose\n")


def test_merge_not_superimposable(capsys):
    status, _, err = run_cli(capsys, "merge", "--n", "7", "--a", "3", "--b", "5")
    assert status == 3
    assert "not superimposable" in err


def test_frobenius(capsys):
    assert run_cli(capsys, "frobenius", "--a", "8", "--b", "5") == (0, "g(8,5) = 27; non-representable: 14\n", "")
    status, out, _ = run_cli(capsys, "frobenius", "--a", "8", "--b", "5",
                             "--amount", "27", "--oracle")
    assert status == 0
    assert "representable(27): no" in out
    assert "oracle: agree" in out
    assert run_cli(capsys, "frobenius", "--a", "1", "--b", "5", "--oracle") == (
        0, "g(1,5) = -1; non-representable: 0\noracle: agree (-1, 0)\n", "")


def test_boundary(capsys):
    assert run_cli(capsys, "boundary", "--a", "8", "--b", "5") == (0, "ααβααβαβααβαβ\n", "")
    status, out, _ = run_cli(capsys, "boundary", "--a", "8", "--b", "5", "--values")
    lines = out.splitlines()
    assert lines[1] == "27, 32, 37, 29, 34, 39, 31, 36, 28, 33, 38, 30, 35, 27"
    assert run_cli(capsys, "boundary", "--a", "1", "--b", "5", "--values") == (
        0, "αβββββ\n-1, 4, 3, 2, 1, 0, -1\n", "")


def test_fraenkel(capsys):
    assert run_cli(capsys, "fraenkel", "--k", "3") == (0, "1213121\n", "")
    status, out, _ = run_cli(capsys, "fraenkel", "--k", "3", "--project", "1", "--json")
    payload = json.loads(out)
    assert payload["frequencies"] == {"1": 4, "2": 2, "3": 1}
    assert payload["projection"] == "1x1x1x1"
    assert payload["projection_circularly_balanced"] is True
    assert run_cli(capsys, "fraenkel", "--k", "3", "--project", "0") == (
        3, "", "error: projection index must lie in [1, 3]\n")


def test_beatty_slice(capsys):
    assert run_cli(capsys, "beatty", "--p", "3", "--q", "2", "--lo", "1", "--hi", "4") == (0, "1, 3, 4, 6\n", "")
    status, out, _ = run_cli(capsys, "beatty", "--p", "7", "--q", "3",
                             "--offset=-1/2", "--lo", "0", "--hi", "3", "--json")
    payload = json.loads(out)
    assert payload["values"] == [-1, 1, 4, 6]


def test_beatty_bad_offset_is_usage_error(capsys):
    for offset in ("abc", "1/0"):
        with pytest.raises(SystemExit) as exc:
            main(["beatty", "--p", "3", "--q", "2", "--lo", "1", "--hi", "4", "--offset", offset])
        assert exc.value.code == 2


def test_beatty_disjoint(capsys):
    status, out, _ = run_cli(capsys, "beatty", "--p1", "13", "--q1", "4",
                             "--p2", "13", "--q2", "3", "--oracle")
    assert status == 0
    assert "disjoint offsets exist: yes" in out
    assert "oracle: agree" in out
    status, out, _ = run_cli(capsys, "beatty", "--p1", "3", "--q1", "1",
                             "--p2", "4", "--q2", "1")
    assert status == 0
    assert "disjoint offsets exist: no" in out


def test_beatty_mode_confusion(capsys):
    for argv, message in [
        (("--p", "3", "--q", "2", "--lo", "1", "--hi", "4", "--p1", "3"),
         "use either --p/--q/--lo/--hi or --p1/--q1/--p2/--q2"),
        (("--p", "3", "--q", "2"), "slice mode needs --p, --q, --lo and --hi"),
        (("--p1", "3", "--q1", "2"), "disjoint mode needs --p1, --q1, --p2 and --q2"),
    ]:
        assert run_cli(capsys, "beatty", *argv) == (3, "", f"error: {message}\n")


def test_oracle_check(capsys):
    assert run_cli(capsys, "oracle-check", "--max-n", "12") == (0, "checked 250 instances: 0 disagreements\n", "")


def test_oracle_check_rejects_negative_bounds(capsys):
    for argv, message in [(("--max-n", "-3"), "--max-n must not be negative, got -3"),
                          (("--max-n", "2", "--unequal-max", "-1"), "--unequal-max must not be negative, got -1")]:
        assert run_cli(capsys, "oracle-check", *argv) == (3, "", f"error: {message}\n")
    assert run_cli(capsys, "oracle-check", "--max-n", "0") == (0, "checked 0 instances: 0 disagreements\n", "")


def test_oracle_check_unequal(capsys):
    status, out, _ = run_cli(capsys, "oracle-check", "--max-n", "8", "--unequal-max", "8", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["disagreements"] == []
    assert payload["instances"] > 200


def test_determinism(capsys):
    first = run_cli(capsys, "superimpose", "--n", "13", "--a", "4", "--m", "13",
                    "--b", "3", "--count", "--shift", "--json")
    second = run_cli(capsys, "superimpose", "--n", "13", "--a", "4", "--m", "13",
                     "--b", "3", "--count", "--shift", "--json")
    assert first == second


def test_boolean_false_still_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "superimpose", "--n", "3", "--a", "1", "--m", "4", "--b", "1")
    assert status == 0
    assert "superimposable: no" in out


def _lying_analyze(lie):
    """A lying superimposition fast path: the fields of `analyze`'s report passed through `lie`."""
    return lambda problem: SuperimpositionReport(*lie(*analyze(problem)._values()))


ONE_FAULT_PER_PART = [  # (verb, name patched in christoffel.oracle, its lie, the part that disagrees)
    ("superimpose", "analyze", _lying_analyze(lambda ok, xy, count, shift: (not ok, xy, count, shift)), "decision"),
    ("superimpose", "analyze", _lying_analyze(lambda ok, xy, count, shift: (ok, xy, 999, shift)), "count"),
    # C(13,4) and C(13,3) admit 3 of 13 shifts; rotating the witness by one breaks it.
    ("superimpose", "analyze",
     _lying_analyze(lambda ok, xy, count, shift: (ok, xy, count, shift if shift is None else shift + 1)), "shift"),
    ("frobenius", "oracle_frobenius", lambda coins: (999, 0), "frobenius"),
    ("frobenius", "nonrepresentable_count", lambda coins: 0, "nonrepresentable"),
    ("beatty", "oracle_beatty_disjoint", lambda *args: BeattyOracleResult(False, None), "decision"),
]
CROSSCHECKS = {  # each verb's cross-check, its arguments, and the command that runs it on them
    "superimpose": (crosscheck, (SuperimpositionProblem(13, 13, 1, 4, 3),),
                    "superimpose --n 13 --a 4 --m 13 --b 3 --oracle"),
    "frobenius": (crosscheck_money, (CoinPair(8, 5),), "frobenius --a 8 --b 5 --oracle"),
    "beatty": (crosscheck_beatty, (13, 4, 13, 3), "beatty --p1 13 --q1 4 --p2 13 --q2 3 --oracle"),
}


@pytest.mark.parametrize("verb, target, liar, part", ONE_FAULT_PER_PART,
                         ids=[f"{CROSSCHECKS[row[0]][0].__name__}-{row[3]}" for row in ONE_FAULT_PER_PART])
def test_each_part_of_each_crosscheck_exits_four(capsys, monkeypatch, verb, target, liar, part):
    check, args, command = CROSSCHECKS[verb]
    monkeypatch.setattr(oracle, target, liar)
    assert check(*args)[1] == part
    status, out, _ = run_cli(capsys, *command.split())
    assert status == 4 and out.splitlines()[-1].startswith(f"oracle: DISAGREE on {part}")
    status, out, _ = run_cli(capsys, *command.split(), "--json")
    assert status == 4 and json.loads(out)["oracle_agrees"] is False
    if verb != "superimpose":
        return
    # oracle-check names the part, and each reproducer, run under the same fault, exits 4.
    status, out, _ = run_cli(capsys, "oracle-check", "--max-n", "3")
    header, *found = out.splitlines()
    assert status == 4 and found and header == f"checked 6 instances: {len(found)} disagreements"
    for line in found:
        assert line.startswith(f"disagree ({part}): n=")
        assert main(shlex.split(line.split(": christoffel ")[1])) == 4
    capsys.readouterr()
    status, out, _ = run_cli(capsys, "oracle-check", "--max-n", "3", "--json")
    assert status == 4 and {entry[4] for entry in json.loads(out)["disagreements"]} == {part}
    if part == "count":  # every instance disagrees; n=3, a=b=2 reduces to q=2, alpha=beta=1
        assert len(found) == 6
        assert found[0] == ("disagree (count): n=1 m=1 a=1 b=1: "
                            "christoffel superimpose --n 1 --m 1 --q 1 --a 1 --b 1 --count --shift --oracle")
        assert found[-1] == ("disagree (count): n=3 m=3 a=2 b=2: "
                             "christoffel superimpose --n 3 --m 3 --q 2 --a 1 --b 1 --count --shift --oracle")


def test_oracle_check_holds_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(christoffel.__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "christoffel.cli", "oracle-check", "--max-n", "12", "--unequal-max", "8"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert ": 0 disagreements" in done.stdout


if __name__ == "__main__":
    with open(README_BYTES, "w", encoding="utf-8") as f:
        json.dump(readme_runs(), f, indent=1)
        f.write("\n")
