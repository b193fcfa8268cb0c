"""Layer spans recorded around the benchmark's calls into the christoffel package.

Every library call the workloads make goes through a namespace built by
`library()`.  Untraced, its attributes are the library's own functions; traced,
each is wrapped in a span named after the layer (module) it belongs to.  Spans
live in memory and are written out when the run ends.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

import christoffel

# The layers, named after the modules they live in.  "cli" spans are whole
# child processes; "bench" is the benchmark's own code inside a timed operation
# (the root span of each operation, minus its children).
LAYERS = (
    "christoffel.build",
    "words.transform",
    "words.predicate",
    "superimpose.kernel",
    "superimpose.validate",
    "oracle",
    "money",
    "fraenkel",
    "cli",
    "bench",
)

# Which layer each library call the workloads make belongs to.
CALLS = {
    "christoffel.build": ("christoffel_word", "letter_positions", "first_word", "second_word"),
    "words.transform": ("reverse", "conjugate", "projection", "decimate"),
    "words.predicate": ("is_balanced", "is_circularly_balanced", "is_primitive"),
    "superimpose.kernel": (
        "SuperimpositionProblem", "from_letter_counts", "is_superimposable",
        "count_superimpositions", "canonical_shift", "analyze",
        "reversal_superimposition_criterion",
    ),
    "superimpose.validate": ("perfectly_superimposable",),
    "oracle": ("oracle_superimposable",),
    "money": ("CoinPair", "frobenius_number", "nonrepresentable_count", "representable"),
    "fraenkel": ("fraenkel_word", "beatty_disjoint_exists"),
}

# The Christoffel word each build call produces, so repeated builds can be
# told apart from distinct ones.
BUILD_KEYS = {
    "christoffel_word": lambda spec: ("word", spec.n, spec.alpha, spec.low, spec.high),
    "letter_positions": lambda spec: ("positions", spec.n, spec.alpha),
    "first_word": lambda pr: ("word", pr.n, pr.q * pr.alpha, "a", "x"),
    "second_word": lambda pr: ("word", pr.m, pr.q * pr.beta, "b", "x"),
}

BENCH = LAYERS.index("bench")
BUILD = LAYERS.index("christoffel.build")


def _resolve(name: str):
    if name in ("first_word", "second_word", "from_letter_counts"):
        return getattr(christoffel.SuperimpositionProblem, name)
    return getattr(christoffel, name)


def run_cli(argv) -> tuple[int, bytes]:
    """Run `python -m christoffel.cli *argv` to completion: (exit status, stdout bytes)."""
    done = subprocess.run([sys.executable, "-m", "christoffel.cli", *argv],
                          capture_output=True, timeout=60, check=False)
    return done.returncode, done.stdout


def library(tracer: "Tracer | None" = None) -> SimpleNamespace:
    """The calls the workloads make, each wrapped in a span of its layer when `tracer` is given."""
    funcs = {name: _resolve(name) for names in CALLS.values() for name in names}
    funcs["cli"] = run_cli
    if tracer is not None:
        layer_of = {name: layer for layer, names in CALLS.items() for name in names}
        layer_of["cli"] = "cli"
        funcs = {name: tracer.wrap(layer_of[name], fn, BUILD_KEYS.get(name))
                 for name, fn in funcs.items()}
    return SimpleNamespace(**funcs)


class Tracer:
    """Spans with parent links; per-layer call counts and self time.

    A span's self time is its duration minus the time its child spans cover.
    Counts and times cover every span; only the first `keep` spans are kept
    whole, so a long run stays within a few megabytes.
    """

    def __init__(self, keep: int = 5000):
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.build_keys: set = set()
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.keep = keep
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]

    def wrap(self, layer: str, fn, key=None):
        idx = LAYERS.index(layer)
        if key is None:
            return lambda *args, **kwargs: self.span(idx, fn, *args, **kwargs)

        def build(*args, **kwargs):
            self.build_keys.add(key(*args, **kwargs))
            return self.span(idx, fn, *args, **kwargs)

        return build

    def span(self, idx: int, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of layer LAYERS[idx]."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        entry = [span_id, 0.0]
        self._stack.append(entry)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            took = end - start
            if self._stack:
                self._stack[-1][1] += took
            self.calls[idx] += 1
            self.self_s[idx] += took - entry[1]
            if len(self.spans) < self.keep:
                self.spans.append((span_id, parent, idx, start, end))

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """`<layer>.calls`, `.self_s` and `.share` of `wall_s` for every layer."""
        out = {}
        for idx, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[idx], "count")
            out[f"{layer}.self_s"] = (self.self_s[idx], "s")
            out[f"{layer}.share"] = (self.self_s[idx] / wall_s if wall_s > 0 else 0.0, "ratio")
        ratio = len(self.build_keys) / self.calls[BUILD] if self.calls[BUILD] else 0.0
        out["christoffel.build.distinct_ratio"] = (ratio, "ratio")
        return out

    def dump(self) -> list[dict]:
        """Kept spans as records, times in seconds from the first kept span."""
        if not self.spans:
            return []
        origin = min(s[3] for s in self.spans)
        return [
            {"id": sid, "parent": parent, "layer": LAYERS[idx],
             "start": start - origin, "end": end - origin}
            for sid, parent, idx, start, end in self.spans
        ]
