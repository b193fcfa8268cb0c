"""One workload in one process: set up, print "ready", measure, print the result.

Started by run.py with PYTHONPATH=src.  Set-up is timed from before this
module's imports, so it covers importing christoffel, generating inputs and
one warm-up round; the "ready" line carries it, scaled and raw.  The last line
of standard output is a JSON object with the metrics, the attempted and failed
operation counts, and the run record.
"""

from __future__ import annotations

from time import perf_counter

from reference import slowness

SETUP_SLOWNESS = slowness()
SETUP_START = perf_counter()

# Imported after the clock starts: their import cost is part of set-up.
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

from spans import BENCH, Tracer, library  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_REPEATS = 5
MAX_REPORTS = 5


def conditions() -> dict:
    """Where and under what load the run happened."""
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_round(ops, lib, tracer, latencies):
    """Run one round of operations; returns (wall seconds, results).

    Only the calls are timed; an exception is kept as the result so the
    check counts it as a failure.
    """
    results = []
    start = perf_counter()
    for run, _ in ops:
        t0 = perf_counter()
        try:
            out = run(lib) if tracer is None else tracer.span(BENCH, run, lib)
        except Exception as exc:  # counted as a failed operation
            out = exc
        if latencies is not None:
            latencies.append(perf_counter() - t0)
        results.append(out)
    return perf_counter() - start, results


def count_failures(ops, results, reports: list) -> int:
    """Check each result; the first few failures are described on standard error."""
    failed = 0
    for (_, check), out in zip(ops, results):
        if isinstance(out, Exception):
            why = f"operation raised {type(out).__name__}: {out}"
        else:
            try:
                why = None if check(out) else "wrong answer"
            except Exception as exc:  # a malformed answer is a wrong answer
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failed += 1
            if len(reports) < MAX_REPORTS:
                reports.append(why)
                print(why, file=sys.stderr)
    return failed


def cli_probes() -> dict:
    """Interpreter floor, import cost and CPU of one CLI call, each a median of child runs."""
    interp, imports, numpy_imports, cpu = [], [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append((perf_counter() - t0) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import christoffel"],
                              capture_output=True, text=True, check=True, timeout=60)
        cumulative = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e3
        imports.append(cumulative["christoffel"])
        numpy_imports.append(cumulative.get("numpy", 0.0))  # 0 once numpy is not imported
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-m", "christoffel.cli", "gen", "--n", "8", "--alpha", "5"],
                       capture_output=True, check=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append((after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime) * 1e3)
    med = statistics.median
    return {"cli.interp_ms": (med(interp), "ms"), "cli.import_ms": (med(imports), "ms"),
            "cli.import_numpy_ms": (med(numpy_imports), "ms"), "cli.cpu_ms": (med(cpu), "ms")}


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.corrupt)
    workload.setup()
    plain = library()
    warm = workload.make_round()
    _, results = run_round(warm, plain, None, None)
    setup_s = perf_counter() - SETUP_START
    print(f"ready {setup_s / ((SETUP_SLOWNESS + slowness()) / 2)} {setup_s}", flush=True)
    if args.setup_only:
        return 0
    reports = []
    failed = count_failures(warm, results, reports)

    record = conditions()
    # Only work done in this thread is scaled: the loop does not track the
    # speed of CLI child processes (scaling CLI times by it widened their spread).
    scaled = args.workload != "cli"
    tracer = Tracer() if args.trace else None
    traced = library(tracer) if tracer else None
    latencies = array("d")  # scaled to the reference speed
    rates, traced_rates, raw_rates, slownesses = [], [], [], []
    traced_wall = 0.0
    attempted = len(warm)
    deadline = perf_counter() + args.seconds
    rounds = 0
    while rounds < (2 if tracer else 1) or perf_counter() < deadline:
        ops = workload.make_round()
        # traced runs alternate traced and untraced rounds to measure the overhead
        use_trace = tracer is not None and rounds % 2 == 0
        before = slowness() if scaled else 1.0
        first = len(latencies)
        if use_trace:
            wall, results = run_round(ops, traced, tracer, None)
        else:
            wall, results = run_round(ops, plain, None, latencies)
        slow = (before + slowness()) / 2 if scaled else 1.0
        slownesses.append(slow)
        if use_trace:
            traced_rates.append(len(ops) / wall * slow)
            traced_wall += wall
        else:
            raw_rates.append(len(ops) / wall)
            rates.append(len(ops) / wall * slow)
            for i in range(first, len(latencies)):
                latencies[i] /= slow
        attempted += len(ops)
        failed += count_failures(ops, results, reports)
        rounds += 1

    peak_mb = peak_rss_mb(args.workload == "cli")  # before the sorting below adds its own
    record["loadavg_end"] = os.getloadavg()
    record["inputs"] = workload.shares.record()
    record["rounds"] = rounds
    record["failed_ratio"] = failed / attempted
    record["slowness_median"] = statistics.median(slownesses)
    if tracer is None:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        record["latency_samples"] = len(latencies)
        record["raw_throughput_per_s"] = statistics.median(raw_rates)
        metrics = {
            "throughput_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (deciles[4] * 1e3, "ms"),
            "latency_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(traced_wall)
        overhead = statistics.median(rates) / statistics.median(traced_rates) - 1
        metrics["trace.overhead"] = (overhead, "ratio")
        metrics.update(cli_probes())
        record["spans"] = tracer.dump()
    print(json.dumps({"attempted": attempted, "failed": failed, "record": record,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
