"""The two benchmark workloads: seeded corpora, one timed item, checks.

Every workload is a closed loop with one caller: the next item starts only
after the previous one returned.  Inputs come in rounds.  Round `r` of a
workload is generated from `(workload, seed, r)` alone, so the same seed
gives the same inputs; every round has the same shape (fixtures, length
tiers, kinds), so rounds can be compared with each other.

Program functions are always called through their module attributes
(`pipelines.efficient_position`, not a name bound at import), so that the
tracer's wrappers see every call.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from trackform import (formats, generate, pipelines, track_model,
                       verification)
from trackform.errors import AuditFailure
from trackform.fixtures import FIXTURE_NAMES, fixture_text
from trackform.track_model import ANNULUS

FIXTURES = FIXTURE_NAMES  # t11, t11d, s04, s12
clock = time.perf_counter


@dataclass
class Item:
    fixture: str
    kind: str            # closed | arc | doubled_back | bounce | power
    group: int           # requested length (the tier); 0 for fixed shapes
    curve: object
    curve_text: str = ""  # audited-mixed: the curve/1 input file
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one item cost and produced.  `failure` is None when every check
    on its outputs passed."""
    item: Item
    latency_s: float = 0.0
    ep_s: float = 0.0          # wall time inside efficient_position
    pushes: int = 0
    events: list = field(default_factory=list, repr=False)
    status: str = ""
    final: object = None       # the terminal curve
    audit_s: float = 0.0
    audit_events: int = 0
    audit_checks: int = 0
    oracle_s: float = 0.0
    oracle_states: int = 0
    inconclusive: int = 0
    nb: object = None          # the neighbourhood the item ran on
    failure: str | None = None


def build(fixture: str):
    """Parse a fixture's track text and build its neighbourhood."""
    nb = track_model.build_tie_neighbourhood(
        formats.parse_track(fixture_text(fixture)))
    nb.name = fixture
    return nb


def trace_text(out: Outcome) -> str:
    """The trace/1 text of an item's run, as `trackform run` writes it."""
    return formats.serialize_trace(out.events, track=out.nb.name,
                                   status=out.status)


def output_bytes(out: Outcome) -> bytes:
    """The canonical trace/1 and curve/1 bytes an item produced."""
    return (trace_text(out)
            + formats.serialize_curve(out.final, out.nb)).encode()


def _efficient_ok(status: str, curve, nb) -> bool:
    return status != pipelines.EFFICIENT or \
        verification.check_efficient(curve, nb).ok


class Workload:
    name = ""
    why = ""
    passes = 3  # timings per input, in passes spread over the run

    def __init__(self, small: bool = False) -> None:
        self.small = small

    def prepare(self, seed: int):
        """Build the state a run needs, ending with round 0 generated."""
        raise NotImplementedError

    def make_round(self, state, r: int) -> list[Item]:
        raise NotImplementedError

    def begin_round(self, state) -> None:
        """Per-round set-up outside the items' timing (default: none)."""

    def run_item(self, state, item: Item) -> Outcome:
        raise NotImplementedError


class State:
    def __init__(self, seed: int, nbs: dict) -> None:
        self.seed = seed
        self.nbs = nbs
        self.rounds: dict[int, list[Item]] = {}
        self.corpus_s = 0.0

    def round(self, wl: Workload, r: int) -> list[Item]:
        if r not in self.rounds:
            t = clock()
            self.rounds[r] = wl.make_round(self, r)
            if r == 0:
                self.corpus_s = clock() - t
        return self.rounds[r]


def _record_result(out: Outcome, res) -> None:
    out.pushes = res.homs
    out.events = res.events
    out.status = res.status
    out.final = res.curve


# -- audited-mixed ----------------------------------------------------------


class AuditedMixed(Workload):
    name = "audited-mixed"
    why = ("the CLI run-then-verify path on fresh neighbourhoods: the audit, "
           "file formats, track build and a cold classify cache dominate")

    @property
    def tiers(self):
        return (20, 40) if self.small else (100, 200, 400)

    def prepare(self, seed: int) -> State:
        state = State(seed, {f: build(f) for f in FIXTURES})
        state.round(self, 0)
        return state

    def make_round(self, state, r: int) -> list[Item]:
        items = []
        for f in FIXTURES:
            nb = state.nbs[f]
            rng = random.Random(f"{self.name}/{state.seed}/{r}/{f}")
            for n in self.tiers:
                items.append(Item(f, "closed", n,
                                  generate.random_closed(nb, rng, n)))
            # arcs and doubled-back curves cost about as much as the
            # 100-snippet closed curves, so the median curve lies in a
            # dense cluster of similar items
            arc_len, db_len = (15, 4) if self.small else (100, 50)
            items.append(Item(f, "arc", 0,
                              generate.random_arc(nb, rng, arc_len)))
            items.append(Item(f, "doubled_back", 0,
                              generate.doubled_back(nb, rng, db_len),
                              expect={"class": "inessential"}))
            # one annulus face per fixture and round, in turn
            annuli = [ri for ri, reg in enumerate(nb.regions)
                      if reg.kind == ANNULUS]
            ri = annuli[r % len(annuli)]
            power = 1 + r % 3
            want = {"class": "peripheral", "power": power,
                    "boundary": nb.boundary_components.index(
                        (ri, nb.boundary_side(ri)))}
            items.append(Item(f, "bounce", 0, generate.peripheral_bounce(
                nb, ri, power), expect=want))
            items.append(Item(f, "power", 0, generate.boundary_power(
                nb, ri, power), expect=want))
        for it in items:
            it.curve_text = formats.serialize_curve(it.curve, state.nbs[
                it.fixture])
        return items

    def run_item(self, state, item: Item, tamper=None) -> Outcome:
        """Follow `trackform run` then `trackform verify` on one curve.

        `tamper`, if given, edits the trace/1 text between writing and
        reading it back; the checks must then report a failure."""
        out = Outcome(item)
        t0 = clock()
        nb = build(item.fixture)
        before = formats.parse_curve(item.curve_text, nb)
        t_ep = clock()
        res = pipelines.efficient_position(before, nb)
        out.ep_s = clock() - t_ep
        trace_text = formats.serialize_trace(res.events, track=nb.name,
                                             status=res.status)
        curve_text = formats.serialize_curve(res.curve, nb)
        if tamper is not None:
            trace_text = tamper(trace_text)
        head, events = formats.parse_trace(trace_text)
        after = formats.parse_curve(curve_text, nb)
        t_audit = clock()
        try:
            rep = verification.audit_trace(events, before, after, nb)
        except AuditFailure as exc:
            out.failure = f"AuditFailure: {exc}"
            return out
        out.audit_s = clock() - t_audit
        ok = _efficient_ok(head.get("status"), after, nb)
        info = pipelines.terminal_summary(res, nb)
        out.latency_s = clock() - t0
        out.nb = nb
        _record_result(out, res)
        out.audit_events, out.audit_checks = rep.events, rep.checks
        if not ok:
            out.failure = "check_efficient rejects an Efficient result"
        elif not _round_trips(item, nb, before, head, events, trace_text,
                              after, curve_text):
            out.failure = "parse -> serialize is not byte-identical"
        elif any(info.get(k) != v for k, v in item.expect.items()):
            out.failure = f"read off {info}, expected {item.expect}"
        return out


def _round_trips(item, nb, before, head, events, trace_text, after,
                 curve_text) -> bool:
    meta = {k: v for k, v in head.items() if k != "format"}
    return (formats.serialize_curve(before, nb) == item.curve_text
            and formats.serialize_trace(events, **meta) == trace_text
            and formats.serialize_curve(after, nb) == curve_text)


# -- oracle-small -----------------------------------------------------------


class OracleSmall(Workload):
    name = "oracle-small"
    why = ("tiny curves and arcs under the exhaustive BFS oracle: many hom "
           "calls, state keys and a filling classify cache; pipeline idle")
    # efficient_position takes well under a millisecond here and swings
    # most with the host's speed: with three passes pushes_per_s spread
    # 0.16-0.28 across ten seeds.  Rounds are cheap, so four passes still
    # time some forty distinct rounds, which curves_per_s needs: a few BFS
    # runs of hundreds of milliseconds dominate a round's time.
    passes = 4

    @property
    def closed_tiers(self):
        # a BFS over a closed curve of 10 snippets can take 1.5 s and its
        # state set sets the run's peak memory, so one such curve swings a
        # run's figures; 8 (criterion 7's limit) is the longest kept
        return range(2, 5) if self.small else range(2, 8)

    @property
    def arc_tiers(self):
        return range(1, 4) if self.small else range(1, 8)

    def prepare(self, seed: int) -> State:
        state = State(seed, {f: build(f) for f in FIXTURES})
        state.round(self, 0)
        return state

    def begin_round(self, state) -> None:
        # each round starts from fresh neighbourhoods, so every round fills
        # an empty classify cache
        state.nbs = {f: build(f) for f in FIXTURES}

    def make_round(self, state, r: int) -> list[Item]:
        items = []
        for f in FIXTURES:
            nb = state.nbs[f]
            for n in self.closed_tiers:
                rng = random.Random(f"{self.name}/{state.seed}/{r}/{f}/c{n}")
                curve = generate.random_closed(nb, rng, n)
                # a closing walk can overshoot; keep lengths near the tier
                while len(curve.snippets) > n + 1:
                    curve = generate.random_closed(nb, rng, n)
                items.append(Item(f, "closed", n, curve))
            for n in self.arc_tiers:
                rng = random.Random(f"{self.name}/{state.seed}/{r}/{f}/a{n}")
                items.append(Item(f, "arc", n,
                                  generate.random_arc(nb, rng, n)))
        return items

    def run_item(self, state, item: Item) -> Outcome:
        nb = state.nbs[item.fixture]
        out = Outcome(item, nb=nb)
        t0 = clock()
        verdict = verification.exhaustive_oracle(item.curve, nb)
        t1 = clock()
        res = pipelines.efficient_position(item.curve, nb)
        t2 = clock()
        agree = verification.oracle_agrees(verdict, res.status)
        out.latency_s = clock() - t0
        out.oracle_s, out.ep_s = t1 - t0, t2 - t1
        _record_result(out, res)
        out.oracle_states = verdict.states
        if not verdict.conclusive:
            out.inconclusive = 1
        elif not agree:
            out.failure = (f"oracle (efficient={verdict.efficient_reachable},"
                           f" single={verdict.single_reachable}) disagrees "
                           f"with {res.status}")
        return out


WORKLOADS = {w.name: w for w in (AuditedMixed, OracleSmall)}


def run_checked(wl: Workload, state, item: Item) -> Outcome:
    """Run one item; any program error counts as that item's failure."""
    try:
        return wl.run_item(state, item)
    except Exception as exc:  # BudgetExceeded, ParseError, a crash: the
        # loop must go on and report the item as failed
        return Outcome(item, failure=f"{type(exc).__name__}: {exc}")
