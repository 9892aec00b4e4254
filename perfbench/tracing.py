"""Spans and counters recorded from outside the program.

A `Tracer` replaces public functions of the trackform modules with thin
wrappers, at the module attributes their callers resolve at call time (for
example `trackform.pipelines.hom` is what `Run.hom_at` calls, and
`trackform.verification.measure` is what the audit calls).  Nothing under
`src/` changes: `uninstall` puts every original back.

Each span is one list `[name, start_ns, end_ns, parent_index]`, appended in
start order, so a parent always precedes its children.  Spans stay in memory
and are written out once, when the run ends.  The two hottest calls,
`classify` and `corner_length`, get no spans: `classify` gets a plain call
counter, and the classify cache's misses are spanned where the miss is
computed (`snippet_core._classify_uncached`), because each miss is
expensive.  `corner_length` is left unwrapped.
"""
from __future__ import annotations

import gzip
import json
import time
from pathlib import Path

from trackform import (curve_ops, formats, homotopy_engine, pipelines,
                       snippet_core, track_model, verification)

# (module, attribute, span name).  A module attribute is patched only where
# some caller resolves it through that module at call time.
SPANNED = (
    (pipelines, "efficient_position", "efficient_position"),
    (pipelines, "reduce_to_two", "reduce_to_two"),
    (pipelines, "reduce_to_one", "reduce_to_one"),
    (pipelines, "single_bad", "single_bad"),
    (pipelines, "hom", "hom"),
    (verification, "hom", "hom"),
    (pipelines, "validate_curve", "validate_curve"),
    (curve_ops, "validate_curve", "validate_curve"),
    (verification, "check_efficient", "check_efficient"),
    (verification, "audit_trace", "audit_trace"),
    (verification, "exhaustive_oracle", "exhaustive_oracle"),
    (formats, "parse_track", "parse_track"),
    (formats, "parse_curve", "parse_curve"),
    (formats, "parse_trace", "parse_trace"),
    (formats, "serialize_curve", "serialize_curve"),
    (formats, "serialize_trace", "serialize_trace"),
    (track_model, "build_tie_neighbourhood", "build_tie_neighbourhood"),
    (snippet_core, "_classify_uncached", "classify_miss"),
)
# `measure` is spanned and also counts the snippets it scans.
MEASURED = ((pipelines, "measure"), (verification, "measure"))
COUNTED = (
    (pipelines, "classify"),
    (curve_ops, "classify"),
    (homotopy_engine, "classify"),
    (verification, "classify"),
)

# Spans whose self time is the pipeline's own work.
PIPELINE_SPANS = frozenset(
    {"efficient_position", "reduce_to_two", "reduce_to_one", "single_bad"})
PHASES = ("reduce_to_two", "reduce_to_one", "single_bad")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"classify": 0, "measure_snippets": 0}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _measure(self, fn):
        counts = self.counts
        spanned = self.span("measure", fn)

        def wrapper(curve, nb):
            counts["measure_snippets"] += len(curve.snippets)
            return spanned(curve, nb)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in SPANNED:
            self._patch(mod, attr, self.span(name, getattr(mod, attr)))
        for mod, attr in MEASURED:
            self._patch(mod, attr, self._measure(getattr(mod, attr)))
        for mod, attr in COUNTED:
            self._patch(mod, attr, self._counter(attr, getattr(mod, attr)))

    def _patch(self, mod, attr: str, wrapper) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end (ns), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- analysis ---------------------------------------------------------------


class SpanTable:
    """Durations, self times and roots of a tracer's spans."""

    def __init__(self, spans: list[list]) -> None:
        n = len(spans)
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0] * n
        self.root = [0] * n
        self.by_name: dict[str, list[int]] = {}
        for i, (name, _a, _b, parent) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent < 0:
                self.root[i] = i
            else:
                child[parent] += self.dur[i]
                self.root[i] = self.root[parent]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]

    def select(self, names, lo: int = 0, hi: int | None = None,
               root: str | None = None, under: str | None = None):
        """Indices in [lo, hi) of spans named in `names`, optionally only
        those whose outermost span is named `root`, or that have an
        ancestor named `under`."""
        spans = self.spans
        hi = len(spans) if hi is None else hi
        return [i for name in names for i in self.by_name.get(name, ())
                if lo <= i < hi
                and (root is None or spans[self.root[i]][0] == root)
                and (under is None or self._has_ancestor(i, under))]

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def total_ms(self, idx) -> float:
        return sum(self.dur[i] for i in idx) / 1e6

    def self_ms(self, idx) -> float:
        return sum(self.self_ns[i] for i in idx) / 1e6
