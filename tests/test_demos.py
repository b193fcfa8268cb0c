"""The demos print the recorded bytes and exit 0."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
DEMO_BYTES = os.path.join(ROOT, "tests", "demos.json")


def demo_runs():
    """Each demo's name, exit status and stdout, run as a script against src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    runs = []
    for name in sorted(name for name in os.listdir(DEMOS) if name.endswith(".py")):
        proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], capture_output=True,
                              encoding="utf-8", env=env, cwd=ROOT, timeout=120)
        runs.append({"demo": name, "status": proc.returncode, "stdout": proc.stdout})
    return runs


def test_demos_print_the_recorded_bytes():
    # The record is written once by `python tests/test_demos.py` and never
    # edited to make a change pass.
    with open(DEMO_BYTES, encoding="utf-8") as f:
        recorded = json.load(f)
    runs = demo_runs()
    assert [run["demo"] for run in runs] == [run["demo"] for run in recorded]
    for run, expected in zip(runs, recorded):
        assert run == expected, run["demo"]


if __name__ == "__main__":
    with open(DEMO_BYTES, "w", encoding="utf-8") as f:
        json.dump(demo_runs(), f, indent=1, ensure_ascii=False)
        f.write("\n")
