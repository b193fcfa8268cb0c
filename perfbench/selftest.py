"""The benchmark's own tests: run with `python3 perfbench/selftest.py` from anywhere.

Short runs of every workload check that a corrupted expected value is counted
as a failure, that two seeds report the same metric names (the ones
BENCHMARK.json declares), and that the benchmark refuses to run without the
package source.  Not collected by pytest; it takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
# cli is not declared (its times are not steady on a shared machine) but still runs on demand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cli"]


def bench(workload, seed, trace=0, corrupt=0, cwd=ROOT):
    """Run run.py for one second; returns (exit status, stdout lines)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--corrupt", str(corrupt)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return done.returncode, done.stdout.splitlines()


def result(workload, seed, trace=0, corrupt=0):
    status, lines = bench(workload, seed, trace, corrupt)
    assert status == 0, f"{workload} exited with {status}"
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


class BenchmarkSelfTest(unittest.TestCase):
    def test_seed_code_passes_and_names_match_across_seeds(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = result(workload, 1), result(workload, 2)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first["failed"], 0)
                self.assertGreaterEqual(first["attempted"], 1)
                self.assertEqual(set(first["metrics"]), names)
                self.assertEqual(set(second["metrics"]), names)

    def test_corrupted_expected_value_raises_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = result(workload, 3, corrupt=1)
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = result(workload, 4, trace=1)
                self.assertTrue(out["correct"])
                self.assertEqual(set(out["metrics"]), names)

    def test_refuses_to_run_without_the_source(self):
        bare = os.path.join(HERE, "results", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            status, lines = bench(WORKLOADS[0], 1, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(status, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
