"""Run one workload of the christoffel benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root: the package is imported from ./src, since it
need not be installed.  Each workload runs in its own child process
(worker.py, with PYTHONPATH=src).  With --trace 0 the last line of standard
output carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run.  The lines before it give each metric with its unit
and the run record (git sha, versions, CPU count, load average, input shares).
The full record, with the kept spans of a traced run, is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # fresh processes set up per untraced run; set-up time is their median
LIMIT_S = 170.0  # a run ends within 180 s whatever happens


class RunError(Exception):
    pass


def spawn(args, env, deadline, setup_only):
    """Start a worker; returns (process, its set-up seconds scaled, raw)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, deadline - perf_counter())):
                raise RunError("worker did not finish set-up in time")
        fields = proc.stdout.readline().split()
        if len(fields) != 3 or fields[0] != b"ready":
            raise RunError(f"worker failed during set-up (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, float(fields[1]), float(fields[2])


def finish(proc, deadline) -> bytes:
    """Wait for a worker and return its standard output; kill it if time runs out."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunError("worker did not finish in time") from None
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="sweep, large, solve or cli")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="check against wrong expected values (the benchmark's self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "christoffel", "__init__.py")):
        print("error: src/christoffel not found; run from the repository root", file=sys.stderr)
        return 2
    deadline = perf_counter() + LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))

    try:
        setups, raw_setups = [], []
        samples = 1 if args.trace else SETUP_SAMPLES
        for i in range(samples):
            last = i == samples - 1
            proc, setup, raw = spawn(args, env, deadline, setup_only=not last)
            setups.append(setup)
            raw_setups.append(raw)
            if not last:
                finish(proc, deadline)
        result = json.loads(finish(proc, deadline).splitlines()[-1])
    except (RunError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = result["record"]
    metrics = result["metrics"]
    if not args.trace:
        record["raw_setup_samples_s"] = raw_setups
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  attempted=result["attempted"], failed=result["failed"])

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as f:
        json.dump({"record": record, "metrics": metrics}, f)
    spans = record.pop("spans", None)
    if spans is not None:
        record["spans_kept"] = len(spans)
    print("record: " + json.dumps(record))
    for key, metric in metrics.items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
