"""Run one workload: set-up, timed rounds, checks, metrics.

An untraced run (`trace=False`) gives the end-to-end metrics.  A traced run
(`trace=True`) runs the same rounds twice from fresh state, first under the
tracer and then without it, and gives the per-layer metrics plus the
tracer's overhead.  Counts are taken over round 0 only, which every run
completes whatever its length, so they repeat exactly for a given seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import PHASES, PIPELINE_SPANS, SpanTable, Tracer
from workloads import (WORKLOADS, Workload, output_bytes, run_checked,
                       trace_text)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
REFERENCE_SEED = 0
# Every input is timed `Workload.passes` times, in passes spread over the
# run, and keeps its fastest timing: on a shared host, speed drifts by tens
# of percent over seconds, and a slow stretch only ever adds time.
MIN_ITEMS = 100  # enough for ten samples beyond the 90th percentile
clock = time.perf_counter

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "curves_per_s": "curves/s",
    "curve_ms_p50": "ms",
    "curve_ms_p90": "ms",
    "pushes_per_s": "pushes/s",
    "time_len_exponent": "slope",
    "peak_rss_mb": "MiB",
}
# reported by every run, but only meaningful on some workloads
WORKLOAD_RATES = {
    "audit_events_per_s": ("events/s", "audited-mixed"),
    "oracle_states_per_s": ("states/s", "oracle-small"),
}
PER_LAYER = {
    "track_model.build_ms": "ms/build",
    "formats.serialize_ms": "ms/curve",
    "formats.parse_ms": "ms/curve",
    "formats.trace_bytes": "bytes",
    "snippet_core.classify_calls": "count",
    "snippet_core.classify_misses": "count",
    "snippet_core.classify_hit_ratio": "ratio",
    "snippet_core.cache_entries": "count",
    "snippet_core.classify_ms": "ms/curve",
    "curve_ops.measure_calls": "count",
    "curve_ops.measure_snippets": "count",
    "curve_ops.measure_ms": "ms/curve",
    "curve_ops.validate_ms": "ms/curve",
    "homotopy_engine.hom_calls": "count",
    "homotopy_engine.hom_us_p50": "us",
    "homotopy_engine.hom_self_ms": "ms/curve",
    "pipelines.self_ms": "ms/curve",
    **{f"pipelines.phase_ms.{p}": "ms/curve" for p in PHASES},
    **{f"pipelines.pushes.{p}": "count" for p in PHASES},
    "pipelines.events": "count",
    "pipelines.pushes_per_snippet": "ratio",
    "pipelines.push_len_exponent": "slope",
    "pipelines.peak_len": "count",
    "verification.audit_ms": "ms/curve",
    "verification.audit_self_ms": "ms/curve",
    "verification.audit_checks": "count",
    "verification.check_efficient_ms": "ms/curve",
    "verification.oracle_ms": "ms/curve",
    "verification.oracle_states": "count",
    "verification.oracle_hom_calls": "count",
    "verification.oracle_new_state_ratio": "ratio",
    "verification.oracle_inconclusive": "count",
    "generate.corpus_ms": "ms",
    **{k: unit for k, (unit, _wl) in WORKLOAD_RATES.items()},
    "trace_overhead_frac": "ratio",
}
# the per-layer counts that must repeat exactly for a given seed
EXACT_COUNTS = (
    "pipelines.pushes.reduce_to_two", "pipelines.pushes.reduce_to_one",
    "pipelines.pushes.single_bad", "pipelines.events",
    "verification.audit_checks", "verification.oracle_states",
    "verification.oracle_hom_calls", "curve_ops.measure_calls",
    "curve_ops.measure_snippets", "snippet_core.classify_calls",
    "snippet_core.classify_misses", "snippet_core.cache_entries",
    "homotopy_engine.hom_calls", "pipelines.peak_len",
    "formats.trace_bytes",
)


# -- the timed loop ---------------------------------------------------------


def timed_rounds(wl: Workload, state, seconds: float, passes: int = 1,
                 max_rounds: int | None = None, tracer: Tracer | None = None,
                 marks: dict | None = None, between=None) -> list[list]:
    """Run rounds of distinct inputs for `seconds / passes` (and, at full
    size, until MIN_ITEMS items are done), or exactly `max_rounds` rounds;
    round 0 always runs.  Then run the same rounds `passes - 1` more times,
    keeping each item's fastest timings, calling `between()` before each."""
    min_items = 0 if wl.small else MIN_ITEMS
    rounds: list[list] = []
    done = 0
    t0 = clock()
    run_item = run_checked
    if tracer is not None:
        run_item = tracer.span("item", run_checked)
    while True:
        if max_rounds is not None:
            if len(rounds) >= max_rounds:
                break
        elif (rounds and clock() - t0 >= seconds / passes
              and done >= min_items):
            break
        r = len(rounds)
        items = state.round(wl, r)
        wl.begin_round(state)
        if tracer is not None and r == 0:
            marks.update(round0_start=len(tracer.spans),
                         counts0=dict(tracer.counts))
        outs = [run_item(wl, state, it) for it in items]
        if tracer is not None and r == 0:
            marks.update(round0_end=len(tracer.spans),
                         counts1=dict(tracer.counts))
        if r > 0:  # only round 0's outputs are digested and counted
            for o in outs:
                o.events, o.final, o.nb = [], None, None
        rounds.append(outs)
        done += len(items)
    for _ in range(passes - 1):
        if between is not None:
            between()
        for r, outs in enumerate(rounds):
            wl.begin_round(state)
            for out, item in zip(outs, state.round(wl, r)):
                _keep_fastest(out, run_checked(wl, state, item))
    return rounds


def _keep_fastest(out, again) -> None:
    if out.failure is not None:
        return
    if again.failure is not None:
        out.failure = again.failure
        return
    for attr in ("latency_s", "ep_s", "audit_s", "oracle_s"):
        setattr(out, attr, min(getattr(out, attr), getattr(again, attr)))


def _ok(rounds):
    return [o for rnd in rounds for o in rnd if o.failure is None]


def _median_rate(rounds, num, den) -> float:
    """Median over rounds of sum(num) / sum(den) (0 when nothing ran)."""
    rates = []
    for rnd in rounds:
        ok = [o for o in rnd if o.failure is None]
        d = sum(den(o) for o in ok)
        if d > 0:
            rates.append(sum(num(o) for o in ok) / d)
    return statistics.median(rates) if rates else 0.0


def _slope(points) -> float:
    """Least-squares slope of log y against log x (0 without two x's)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    xs, ys = zip(*pts)
    return statistics.linear_regression(xs, ys).slope


def time_len_exponent(rounds) -> float:
    """Slope of log efficient_position time against log curve length, over
    the per-tier medians of the random closed curves."""
    tiers: dict[int, list] = {}
    for o in _ok(rounds):
        if o.item.kind == "closed":
            tiers.setdefault(o.item.group, []).append(o)
    return _slope([
        (statistics.median(len(o.item.curve.snippets) for o in outs),
         statistics.median(o.ep_s for o in outs))
        for outs in tiers.values()])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def end_to_end(rounds, setup_s: float) -> dict:
    lat = [o.latency_s * 1e3 for o in _ok(rounds)]
    p50 = statistics.median(lat) if lat else 0.0
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else p50
    return {
        "setup_s": setup_s,
        "curves_per_s": _median_rate(rounds, lambda o: 1,
                                     lambda o: o.latency_s),
        "curve_ms_p50": p50,
        "curve_ms_p90": p90,
        "pushes_per_s": _median_rate(rounds, lambda o: o.pushes,
                                     lambda o: o.ep_s),
        "time_len_exponent": time_len_exponent(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def workload_rates(rounds) -> dict:
    return {
        "audit_events_per_s": _median_rate(
            rounds, lambda o: o.audit_events, lambda o: o.audit_s),
        "oracle_states_per_s": _median_rate(
            rounds, lambda o: o.oracle_states, lambda o: o.oracle_s),
    }


# -- per-layer metrics from the traced pass ----------------------------------


def _push_counts(outs) -> dict:
    pushes = dict.fromkeys(PHASES, 0)
    for o in outs:
        for ev in o.events:
            if ev["op"] == "hom":
                ph = ev["phase"]
                pushes[ph if ph in pushes else "single_bad"] += 1
    return pushes


def _peak_len(o) -> int:
    return max([len(o.item.curve.snippets)]
               + [max(ev["n"]) for ev in o.events if ev["op"] == "hom"])


def per_layer(tracer: Tracer, marks: dict, traced, untraced,
              corpus_s: float) -> dict:
    tab = SpanTable(tracer.spans)
    lo, hi = marks["round0_start"], marks["round0_end"]
    n_items = sum(len(rnd) for rnd in traced)

    def per_item(names, self_time=False):
        idx = tab.select(names, root="item")
        ms = tab.self_ms(idx) if self_time else tab.total_ms(idx)
        return ms / n_items

    def count0(names, under=None):
        return len(tab.select(names, lo, hi, root="item", under=under))

    r0 = traced[0]
    pushes = _push_counts(r0)
    calls = marks["counts1"]["classify"] - marks["counts0"]["classify"]
    misses = len(tab.select({"classify_miss"}, lo, hi))
    caches = {id(o.nb): len(o.nb.__dict__.get("_classify_cache", ()))
              for o in r0 if o.nb is not None}
    builds = tab.select({"build_tie_neighbourhood"})
    homs = tab.select({"hom"}, root="item")
    snippets_in = sum(len(o.item.curve.snippets) for o in r0)
    states = sum(o.oracle_states for o in r0)
    oracle_homs = count0({"hom"}, under="exhaustive_oracle")
    traced_busy = sum(o.latency_s for rnd in traced for o in rnd)
    untraced_busy = sum(o.latency_s for rnd in untraced for o in rnd)
    m = {
        "track_model.build_ms": tab.total_ms(builds) / max(len(builds), 1),
        "formats.serialize_ms": per_item({"serialize_curve",
                                          "serialize_trace"}),
        "formats.parse_ms": per_item({"parse_track", "parse_curve",
                                      "parse_trace"}),
        "formats.trace_bytes": sum(
            len(trace_text(o).encode()) for o in r0 if o.failure is None),
        "snippet_core.classify_calls": calls,
        "snippet_core.classify_misses": misses,
        "snippet_core.classify_hit_ratio": 1 - misses / calls if calls else 0,
        "snippet_core.cache_entries": sum(caches.values()),
        "snippet_core.classify_ms": per_item({"classify_miss"}),
        "curve_ops.measure_calls": count0({"measure"}),
        "curve_ops.measure_snippets": (marks["counts1"]["measure_snippets"]
                                       - marks["counts0"]["measure_snippets"]),
        "curve_ops.measure_ms": per_item({"measure"}),
        "curve_ops.validate_ms": per_item({"validate_curve"}),
        "homotopy_engine.hom_calls": count0({"hom"}),
        "homotopy_engine.hom_us_p50": (
            statistics.median(tab.dur[i] for i in homs) / 1e3
            if homs else 0.0),
        "homotopy_engine.hom_self_ms": per_item({"hom"}, self_time=True),
        "pipelines.self_ms": per_item(PIPELINE_SPANS, self_time=True),
        **{f"pipelines.phase_ms.{p}": per_item({p}) for p in PHASES},
        **{f"pipelines.pushes.{p}": pushes[p] for p in PHASES},
        "pipelines.events": sum(len(o.events) for o in r0),
        "pipelines.pushes_per_snippet": sum(pushes.values()) / snippets_in,
        "pipelines.push_len_exponent": _slope(
            (len(o.item.curve.snippets), o.pushes)
            for o in r0 if o.item.kind == "closed"),
        "pipelines.peak_len": max(_peak_len(o) for o in r0),
        "verification.audit_ms": per_item({"audit_trace"}),
        "verification.audit_self_ms": per_item({"audit_trace"},
                                               self_time=True),
        "verification.audit_checks": sum(o.audit_checks for o in r0),
        "verification.check_efficient_ms": per_item({"check_efficient"}),
        "verification.oracle_ms": per_item({"exhaustive_oracle"}),
        "verification.oracle_states": states,
        "verification.oracle_hom_calls": oracle_homs,
        "verification.oracle_new_state_ratio": (
            states / oracle_homs if oracle_homs else 0.0),
        "verification.oracle_inconclusive": sum(o.inconclusive for o in r0),
        "generate.corpus_ms": corpus_s * 1e3,
        **workload_rates(untraced),
        "trace_overhead_frac": (traced_busy / untraced_busy - 1
                                if untraced_busy else 0.0),
    }
    return m


# -- output digests ----------------------------------------------------------


def round_digest(outs) -> str:
    """SHA-256 over the trace/1 and curve/1 bytes of a round, in order."""
    h = hashlib.sha256()
    for o in outs:
        if o.failure is None:
            h.update(output_bytes(o))
    return h.hexdigest()


def reference_check(wl: Workload):
    """Run round 0 of the reference seed and compare its output digest
    with the recorded one.  Returns (digest, recorded, items, failures)."""
    state = wl.prepare(REFERENCE_SEED)
    wl.begin_round(state)
    outs = [run_checked(wl, state, it) for it in state.round(wl, 0)]
    digest = round_digest(outs)
    recorded = json.loads(DIGESTS.read_text()).get(_digest_key(wl)) \
        if DIGESTS.exists() else None
    failures = [o.failure for o in outs if o.failure is not None]
    if digest != recorded:
        failures.append(f"reference digest {digest} != recorded {recorded}")
    return digest, recorded, len(outs), failures


def _digest_key(wl: Workload) -> str:
    return wl.name + ("/small" if wl.small else "")


def record_digests() -> None:
    """Rewrite digests.json from the current program's reference runs."""
    digests = {}
    for cls in WORKLOADS.values():
        for small in (False, True):
            wl = cls(small=small)
            digests[_digest_key(wl)] = reference_check(wl)[0]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


# -- environment -------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(root),
        "seed": seed,
    }


# -- one run -----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool,
        import_s: float, small: bool = False) -> dict:
    """One benchmark run.  Returns the full result record."""
    wl = WORKLOADS[name](small=small)
    marks: dict = {}
    tracer = None
    if trace:
        state = wl.prepare(seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced_state = wl.prepare(seed)
            traced = timed_rounds(wl, traced_state, seconds / 2,
                                  tracer=tracer, marks=marks)
        finally:
            tracer.uninstall()
        rounds = timed_rounds(wl, state, 0, max_rounds=len(traced))
        metrics = per_layer(tracer, marks, traced, rounds,
                            traced_state.corpus_s)
        outcomes = traced + rounds
    else:
        # set-ups spread over the run: two before the timed loop, one
        # between each two passes and two after, so that their median does
        # not hang on one stretch of host speed
        setups = []

        def set_up():
            t = clock()
            state = wl.prepare(seed)
            setups.append(clock() - t)
            return state

        set_up()
        rounds = timed_rounds(wl, set_up(), seconds, wl.passes,
                              between=set_up)
        set_up()
        set_up()
        metrics = end_to_end(rounds, import_s + statistics.median(setups))
        outcomes = rounds
    failures = [o.failure for rnd in outcomes for o in rnd
                if o.failure is not None]
    ref_digest, ref_recorded, ref_items, ref_failures = reference_check(wl)
    attempted = sum(len(rnd) for rnd in outcomes) + ref_items
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(HERE.parent, seed),
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": len(failures) + len(ref_failures),
        "failures": (failures + ref_failures)[:20],
        "inconclusive": sum(o.inconclusive for rnd in outcomes for o in rnd),
        "digest_seed_round0": round_digest(rounds[0]),
        "digest_reference": ref_digest,
        "digest_reference_recorded": ref_recorded,
        "metrics": metrics,
        "workload_rates": workload_rates(rounds),
    }
    if tracer is not None:
        tracer.write(HERE / "out" / f"spans-{name}-s{seed}.jsonl.gz")
    return result


def units(trace: bool) -> dict:
    return PER_LAYER if trace else END_TO_END
