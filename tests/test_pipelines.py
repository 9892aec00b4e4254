"""Pipeline oracles on the theta-track t11.

The small inputs and their expected outputs are derived by hand from the
t11 gluing table (recorded in test_homotopy_engine.py's docstring):

* trigon chase: the arc [vertical dual, B(h,t), carried, deep dual] needs two
  pushes; the B(h,t) hands off to an S(h,v,2), whose push threads a branch
  tie and leaves every interior snippet efficient.
* penultimate-bigon arc: [S(h,t,1), B(t,t), S(h,t,1)] collapses to the
  single switch tie (0,0)->(2,0).
* the length-2 closed curve [B(t,t), S(t,t,0)] is null-homotopic: the seam
  step closes the surviving snippet into the trivial loop of branch a.
* the length-2 closed curve [same-locus deep dual winding 4, S(v,v,0)] is
  the first boundary power: duplicating, merging (winds 4 + 4) and seaming
  (minus the duplicated 4) leaves the closed face snippet winding 4.
* the carried 4-loop is already efficient and must come back unchanged.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOOP_TRACK, load_loop_track, one_ended_arc, src_env
from test_loop_track import HOR_BIGON
from trackform import pipelines
from trackform.curve_ops import (ARC, CLOSED, Curve, WorkingCurve, measure,
                                 validate_curve)
from trackform.errors import BudgetExceeded, InconsistentSnippet
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.formats import parse_curve
from trackform.generate import (
    boundary_power,
    doubled_back,
    peripheral_bounce,
    random_arc,
    random_closed,
    trivial_loop,
)
from trackform.homotopy_engine import _push_recipe_uncached, hom
from trackform.pipelines import (
    EFFICIENT,
    INSIDE_EFFICIENT,
    NON_HORIZONTAL,
    RESOLVERS,
    SINGLE_SNIPPET,
    Run,
    big_arc,
    drive,
    efficient_position,
    proven_push_bound,
    reduce_to_two,
    single_bad,
    terminal_summary,
    trig_arc,
    trig_curve,
)
from trackform.snippet_core import (BIGON_TYPES, TRIGON_TYPES, Snippet,
                                    classify, fact_table)
from trackform.track_model import ANNULUS, BRANCH, SWITCH, H, T
from trackform.verification import audit_trace


# --- hand-derived span algorithm oracles -----------------------------------


def test_trig_arc_two_step_chase(t11):
    r = t11.region_id
    arc = Curve(ARC, (
        Snippet(r["face:0"], (3, 2), (1, 2), 2),
        Snippet(r["br:a"], (0, 0), (1, 0)),
        Snippet(r["sw:v1"], (1, 0), (3, 1)),
        Snippet(r["face:0"], (2, 0), (3, 3), -3),
    ))
    run = Run(arc, t11)
    trig_arc(run)
    assert run.curve == Curve(ARC, (
        Snippet(r["face:0"], (3, 2), (1, 0), 2),
        Snippet(r["br:b"], (2, 0), (0, 0)),
        Snippet(r["face:0"], (3, 0), (3, 3), -4),
    ))
    assert run.homs == 2
    rules = [e["rule"] for e in run.events]
    assert rules == ["B(h,t)", "S(h,v,2)"]


def test_trig_arc_leaves_endpoint_trigon_alone(t11):
    r = t11.region_id
    arc = Curve(ARC, (
        Snippet(r["face:0"], (3, 2), (1, 2), 2),
        Snippet(r["br:a"], (0, 0), (1, 0)),
        Snippet(r["sw:v1"], (1, 0), (3, 1)),
    ))
    run = Run(arc, t11)
    trig_arc(run)
    assert run.curve == Curve(ARC, (
        Snippet(r["face:0"], (3, 2), (1, 1), 2),
        Snippet(r["sw:v1"], (2, 0), (3, 1)),
    ))
    # the surviving S(h,v,2) sits at the arc end: outside the interior
    assert run.homs == 1
    assert [classify(s, t11).type for s in run.curve.snippets][1] == "S(h,v,2)"


def test_big_arc_collapses_penultimate_bigon(t11):
    r = t11.region_id
    arc = Curve(ARC, (
        Snippet(r["sw:v0"], (0, 0), (1, 0)),
        Snippet(r["br:a"], (3, 0), (3, 0), 0),
        Snippet(r["sw:v0"], (1, 0), (2, 0)),
    ))
    run = Run(arc, t11)
    big_arc(run)
    assert run.curve == Curve(ARC, (Snippet(r["sw:v0"], (0, 0), (2, 0)),))
    assert run.homs == 1


def test_reduce_to_two_sweeps_interior(t11):
    r = t11.region_id
    arc = Curve(ARC, (
        Snippet(r["sw:v0"], (0, 0), (1, 0)),
        Snippet(r["br:a"], (3, 0), (3, 0), 0),
        Snippet(r["sw:v0"], (1, 0), (1, 0), 0),
        Snippet(r["br:a"], (3, 0), (1, 0)),
    ))
    run = Run(arc, t11)
    reduce_to_two(run)
    assert run.curve == Curve(ARC, (
        Snippet(r["sw:v0"], (0, 0), (1, 0)),
        Snippet(r["br:a"], (3, 0), (1, 0)),
    ))
    # the interior of the result is empty, hence efficient
    assert [p for p in run.bads() if 0 < p < run.n - 1] == []


# --- end-to-end drivers ----------------------------------------------------


def test_efficient_position_fixes_carried_loop(t11, carried_loop):
    res = efficient_position(carried_loop, t11)
    assert res.status == EFFICIENT
    assert res.curve == carried_loop
    assert res.homs == 0


def test_efficient_position_contracts_trivial_pair(t11):
    r = t11.region_id
    curve = Curve(CLOSED, (
        Snippet(r["br:a"], (3, 0), (3, 0), 0),
        Snippet(r["sw:v0"], (1, 0), (1, 0), 0),
    ))
    res = efficient_position(curve, t11)
    assert res.status == SINGLE_SNIPPET
    assert res.curve == Curve(CLOSED, (Snippet(r["br:a"], None, None, 0),))
    info = terminal_summary(res, t11)
    assert info["class"] == "inessential"


def test_efficient_position_reads_off_boundary_power(t11):
    r = t11.region_id
    curve = Curve(CLOSED, (
        Snippet(r["face:0"], (0, 0), (0, 0), 4),
        Snippet(r["sw:v0"], (3, 1), (3, 1), 0),
    ))
    res = efficient_position(curve, t11)
    assert res.status == SINGLE_SNIPPET
    assert res.curve == Curve(CLOSED, (Snippet(r["face:0"], None, None, 4),))
    info = terminal_summary(res, t11)
    assert info["class"] == "peripheral"
    assert info["power"] == 1


def test_efficient_position_arc_keeps_bad_endpoint(t11):
    r = t11.region_id
    arc = Curve(ARC, (
        Snippet(r["sw:v0"], (0, 0), (1, 0)),
        Snippet(r["br:a"], (3, 0), (3, 0), 0),
        Snippet(r["sw:v0"], (1, 0), (1, 0), 0),
        Snippet(r["br:a"], (3, 0), (1, 0)),
    ))
    res = efficient_position(arc, t11)
    assert res.status == INSIDE_EFFICIENT
    assert res.curve == Curve(ARC, (
        Snippet(r["sw:v0"], (0, 0), (1, 0)),
        Snippet(r["br:a"], (3, 0), (1, 0)),
    ))


def test_terminal_summary_of_builders(t11):
    for k in (1, 2, 3, -2):
        res = efficient_position(boundary_power(t11, 5, k), t11)
        assert res.status == SINGLE_SNIPPET
        info = terminal_summary(res, t11)
        assert info["class"] == "peripheral"
        assert info["power"] == k
    res = efficient_position(trivial_loop(t11, 2), t11)
    assert terminal_summary(res, t11)["class"] == "inessential"


def test_peripheral_bounce_reduces_to_power(t11):
    for k in (1, 2, -1):
        res = efficient_position(peripheral_bounce(t11, 5, k), t11)
        assert res.status == SINGLE_SNIPPET
        info = terminal_summary(res, t11)
        assert info["class"] == "peripheral"
        assert info["power"] == k


def test_doubled_back_curves_contract(t11):
    for seed in range(6):
        curve = doubled_back(t11, random.Random(seed), 3)
        res = efficient_position(curve, t11)
        assert res.status == SINGLE_SNIPPET
        info = terminal_summary(res, t11)
        assert info["class"] == "inessential"


# --- a weight-one bigon dispatch, on a hand-built 14-snippet curve ---------


@pytest.fixture(scope="module")
def weight_one_curve(t11):
    r = t11.region_id
    f, v0, v1, a, b, d = (r["face:0"], r["sw:v0"], r["sw:v1"],
                          r["br:a"], r["br:b"], r["br:d"])
    curve = Curve(CLOSED, (
        Snippet(v0, (3, 0), (3, 1)),        # S(t,v,1): the only bad snippet
        Snippet(f, (0, 0), (1, 2), -3),     # deep dual
        Snippet(a, (0, 0), (2, 0)),         # tie
        Snippet(f, (3, 2), (1, 3), 2),      # vertical dual
        Snippet(v0, (0, 0), (2, 0)),        # tie
        Snippet(f, (3, 1), (1, 0), 2),      # vertical dual
        Snippet(b, (2, 0), (0, 0)),         # tie
        Snippet(f, (3, 0), (1, 1), 2),      # vertical dual
        Snippet(v1, (2, 0), (0, 0)),        # tie
        Snippet(f, (3, 3), (0, 0), -3),     # deep dual
        Snippet(v0, (3, 1), (1, 0)),        # carried
        Snippet(a, (3, 0), (1, 0)),         # carried
        Snippet(v1, (1, 0), (3, 0)),        # carried
        Snippet(b, (1, 0), (3, 0)),         # carried
    ))
    validate_curve(curve, t11)
    return curve


def test_weight_one_curve_has_unique_bad(t11, weight_one_curve):
    kinds = [classify(s, t11) for s in weight_one_curve.snippets]
    bad = [i for i, c in enumerate(kinds) if c.bad]
    assert bad == [0]
    assert kinds[0].type == "S(t,v,1)"


def test_single_bad_resolves_weight_one(t11, weight_one_curve):
    run = Run(weight_one_curve, t11)
    before = run.report()
    single_bad(run)
    assert run.bads() == [] or run.n == 1
    phases = {e["phase"] for e in run.events}
    assert "weight_one_bigon" in phases
    after = run.report()
    s = t11.s_N
    # contract: resolving the weight-one bigon moves reduced length by at
    # most +2s - 5 (trigon outcome) and decreases it when a bigon remains
    assert after.len_red <= before.len_red + 2 * s - 5


def test_efficient_position_weight_one_terminates(t11, weight_one_curve):
    res = efficient_position(weight_one_curve, t11)
    assert res.status in (EFFICIENT, SINGLE_SNIPPET)
    validate_curve(res.curve, t11)


# --- determinism, counters, and sweeps -------------------------------------


def test_pipeline_is_deterministic(t11, weight_one_curve):
    r1 = efficient_position(weight_one_curve, t11)
    r2 = efficient_position(weight_one_curve, t11)
    assert r1.curve == r2.curve
    assert json.dumps(r1.events, sort_keys=True) == \
        json.dumps(r2.events, sort_keys=True)


def test_counters_match_full_recount(t11):
    # the incrementally maintained counters must agree with a full remeasure
    # at every terminal state, across a spread of random inputs
    for seed in range(12):
        curve = random_closed(t11, random.Random(seed), 8)
        res = efficient_position(curve, t11)
        assert res.report == measure(res.curve, t11)


def test_random_closed_sweep(t11):
    for seed in range(25):
        curve = random_closed(t11, random.Random(seed), 10)
        res = efficient_position(curve, t11)
        assert res.status in (EFFICIENT, SINGLE_SNIPPET)
        validate_curve(res.curve, t11)
        if res.status == EFFICIENT:
            assert all(not classify(s, t11).bad for s in res.curve.snippets)


def test_random_arc_sweep(t11):
    for seed in range(25):
        arc = random_arc(t11, random.Random(seed), 9)
        res = efficient_position(arc, t11)
        assert res.status in (EFFICIENT, INSIDE_EFFICIENT, SINGLE_SNIPPET)
        validate_curve(res.curve, t11)
        bad = [i for i, s in enumerate(res.curve.snippets)
               if classify(s, t11).bad]
        assert all(i in (0, len(res.curve.snippets) - 1) for i in bad)


def test_zero_push_budget_stops_before_the_first_push():
    """`max_homs=0` raises `BudgetExceeded` on every curve whose run pushes
    and leaves every other run as it was."""
    pushed = 0
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for seed in range(8):
            rng = random.Random(seed)
            for c in (random_closed(nb, rng, 6), random_arc(nb, rng, 4)):
                res = efficient_position(c, nb)
                if res.homs:
                    with pytest.raises(BudgetExceeded):
                        efficient_position(c, nb, max_homs=0)
                    pushed += 1
                else:
                    assert efficient_position(c, nb, max_homs=0) == res
    assert pushed >= 30


def test_a_bare_run_is_budgeted_at_twice_the_proven_bound():
    """A `Run` made without a cap gets the cap `efficient_position` uses
    by default; a given cap is kept."""
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        c = random_closed(nb, random.Random(name), 6)
        assert Run(c, nb).max_homs == \
            2 * proven_push_bound(nb, len(c.snippets))
        assert Run(c, nb, 0).max_homs == 0


class _StuckRun(Run):
    """A run whose pushes leave the curve as it is, so a loop that pushes
    runs into its step limit."""

    def hom_at(self, k: int, phase: str) -> None:
        return None


# (loop, curve, message, budget_log row): t11 has s_N = 9.  The arc's span
# has 2 interior snippets, so trig_arc's limit is 2 (2 + 1) (9 + 2) = 66.
# The closed pair [B(t,t), S(t,t,0)] has len_red 4 and no trigon, so
# trig_curve's limit is 2 (4 + 2 * 9 + 2) (9 + 2) = 528 and single_bad's is
# 2 (4 + 1) + 1 = 11; each row records limit + 1 steps and no event.
_STUCK = (
    (trig_arc, "arc",
     "trigon chase exceeded 66 pushes on a span of 2 interior snippets",
     ("trig_arc", 67, 2, 0, 0, 0, 0)),
    (trig_curve, "pair", "closed trigon chase exceeded 528 pushes",
     ("trig_curve", 529, 4, 0, 0, 0, 0)),
    (single_bad, "pair", "single-bad resolution exceeded 11 rounds",
     ("single_bad", 12, 4, 0, 0, 0, 0)),
)


@pytest.mark.parametrize("loop, shape, message, row", _STUCK,
                         ids=[case[0].__name__ for case in _STUCK])
def test_each_loop_stops_at_its_step_limit(t11, loop, shape, message, row):
    r = t11.region_id
    curve = {
        "arc": Curve(ARC, (
            Snippet(r["face:0"], (3, 2), (1, 2), 2),
            Snippet(r["br:a"], (0, 0), (1, 0)),
            Snippet(r["sw:v1"], (1, 0), (3, 1)),
            Snippet(r["face:0"], (2, 0), (3, 3), -3),
        )),
        "pair": Curve(CLOSED, (
            Snippet(r["br:a"], (3, 0), (3, 0), 0),
            Snippet(r["sw:v0"], (1, 0), (1, 0), 0),
        )),
    }[shape]
    run = _StuckRun(curve, t11)
    with pytest.raises(BudgetExceeded) as exc:
        loop(run)
    assert str(exc.value) == message
    assert run.budget_log == [row]
    assert run.curve == curve


def test_random_sweep_other_tracks(s04):
    for seed in range(12):
        curve = random_closed(s04, random.Random(seed), 8)
        res = efficient_position(curve, s04)
        assert res.status in (EFFICIENT, SINGLE_SNIPPET)
        validate_curve(res.curve, s04)


def test_two_trigons_pushes_a_last_r_hv_then_its_window_end():
    """A seeded t11d closed curve (24 snippets) whose `two_trigons` step
    finds an R(h,v) at the curve's last position: it pushes it (a rotation
    by 8 first, on a 10-snippet curve) and then the snippet at the end of
    that push's window.  No other tier-1 input reaches this branch."""
    nb = load_fixture("t11d")
    rng = random.Random("t11d/21717/reach")
    n = rng.randrange(2, 40)
    assert n == 22
    c = random_closed(nb, rng, n)
    assert len(c.snippets) == 24
    res = efficient_position(c, nb)
    assert (res.status, res.homs) == (EFFICIENT, 30)
    rep = audit_trace(res.events, c, res.curve, nb)
    assert (rep.events, rep.checks) == (35, 475)
    ev, nxt = res.events[26], res.events[27]
    assert (ev.op, ev.phase, ev.rule, ev.rot, ev.n[0]) == \
        ("hom", "two_trigons", "R(h,v)", 8, 10)
    ws, wl = ev.win
    assert (nxt.op, nxt.phase, nxt.rot, nxt.k) == \
        ("hom", "two_trigons", 0, ws + wl - 1)


def test_all_fixture_tracks_smoke():
    for name in ("t11", "s12", "s04", "t11d"):
        nb = load_fixture(name)
        for seed in range(6):
            curve = random_closed(nb, random.Random(seed), 6)
            res = efficient_position(curve, nb)
            assert res.status in (EFFICIENT, SINGLE_SNIPPET)
            validate_curve(res.curve, nb)


# --- Run bookkeeping against a full scan --------------------------------------


class _CheckedRun(Run):
    """A Run that, after every operation, compares its bad positions,
    counters, fact records and bad flags with a scan, a full count, fresh
    table lookups and `validate_curve` of `run.curve`, and that compares
    the fact records `hom` hands over with fresh lookups of the window."""

    def __init__(self, curve, nb, rng):
        self.rng = rng
        self.ops: set[str] = set()
        super().__init__(curve, nb)
        self._compare("init")

    def _compare(self, op):
        self.ops.add(op)
        curve = self.curve
        n = len(curve.snippets)
        assert (self.n, self.kind) == (n, curve.kind)
        scan = [i for i, s in enumerate(curve.snippets)
                if classify(s, self.nb).bad]
        assert self.bads() == scan, op
        table = fact_table(self.nb)
        fresh = [table[s] for s in curve.snippets]
        assert self.facts == fresh, op
        assert validate_curve(curve, self.nb) == self.facts, op
        assert self.bad == bytearray(f.bad for f in fresh), op
        assert self.report() == measure(curve, self.nb), op
        spans = [(-1, None), (0, n - 1), (n, None), (3, 2), (2, -5)]
        spans += [(self.rng.randrange(-1, n + 1), self.rng.randrange(-2, n + 3))
                  for _ in range(6)]
        for lo, hi in spans:
            want = next((p for p in scan
                         if p > lo and (hi is None or p < hi)), None)
            assert self.first_bad(lo, hi) == want, (op, lo, hi)

    def _record(self, ev, phase, *window):
        if window:
            snippets, wf = window
            table = fact_table(self.nb)
            assert list(wf) == [table[s] for s in snippets], ev
        ev = super()._record(ev, phase, *window)
        self._compare(ev["op"])
        return ev


def _bookkeeping_corpus(nb, name):
    for seed in range(8):  # s04's seed 6 takes the mirror (reverse) path
        rng = random.Random(f"{name}/{seed}/bookkeeping")
        yield random_closed(nb, rng, rng.randrange(2, 201))
        if seed < 3:
            yield random_arc(nb, rng, rng.randrange(3, 60))
            yield random_arc(nb, rng, rng.randrange(1, 60), proper=True)
            yield one_ended_arc(nb, rng, rng.randrange(1, 60))
    yield doubled_back(nb, random.Random(name), 5)
    for ri, r in enumerate(nb.regions):
        if r.kind == ANNULUS:
            yield peripheral_bounce(nb, ri, 2)


def test_run_bookkeeping_matches_a_scan_after_every_operation():
    ops = set()
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for c in _bookkeeping_corpus(nb, name):
            run = _CheckedRun(c, nb, random.Random(len(c.snippets)))
            drive(run)
            ops |= run.ops
    assert ops == {"init", "hom", "rotate", "reverse", "open", "seam"}


# --- What a wide R(h,h) push leaves at its window start -----------------------


def test_wide_hor_bigon_push_starts_its_window_on_a_tie():
    """`hor_bigon_comp` needs no early return for a B(h,h) or S(h,h,0) at
    the window start after a wide push: that snippet is the previous one,
    its end slid one step off a rectangle's horizontal segment, and both
    step neighbours of every such segment are ties (not the cusp), so its
    type has a t.  Checked on the step table and on every wide R(h,h)
    recipe of the fixtures' locus space."""
    h_loci = wide = 0
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for ri, r in enumerate(nb.regions):
            loci = nb.polygon_loci(ri)
            if r.kind in (BRANCH, SWITCH):
                for l in loci:
                    if nb.side_label(ri, l) == H:
                        cw, _, ccw, _ = nb._steps[ri][l]
                        for m in (cw, ccw):  # (3, 1) is a switch's cusp
                            assert nb.side_label(ri, m) == T and m != (3, 1), \
                                (name, ri, l)
                        h_loci += 1
                continue
            h = [l for l in loci if nb.side_label(ri, l) == H]
            for a in h:
                for b in h:
                    for wind in range(-2, 3):
                        s = Snippet(ri, a, b, wind)
                        try:
                            cls = classify(s, nb)
                        except InconsistentSnippet:
                            continue
                        if cls.type != "R(h,h)" or cls.j == 0:
                            continue
                        rec = _push_recipe_uncached(s, nb, cls)
                        p_region, _ = rec.before
                        assert nb.regions[p_region].kind in (BRANCH, SWITCH)
                        assert nb.side_label(p_region, rec.new_end) == T
                        assert rec.new_end != (3, 1)
                        wide += 1
    assert h_loci == 70, h_loci
    assert wide > 0


# --- Push-order invariance of the read-off ------------------------------------


@pytest.fixture(scope="module")
def tracks():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


_SHAPES = {"closed": random_closed, "arc": random_arc,
           "doubled-back": doubled_back, "one-ended": one_ended_arc,
           "proper": lambda nb, rng, n: random_arc(nb, rng, n, proper=True)}


def _read_off(curve, nb):
    """Status, class, boundary component and power of the curve's run: the
    read-off a homotopy cannot change.  An inessential curve's region is
    left out; it depends on which snippet survives."""
    info = terminal_summary(efficient_position(curve, nb), nb)
    return (info["status"], info["class"], info.get("boundary"),
            info.get("power"))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES),
       shape=st.sampled_from(sorted(_SHAPES)),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(5, 60),
       pushes=st.integers(1, 20), data=st.data())
def test_bad_pushes_before_a_run_keep_its_read_off(tracks, name, shape, seed,
                                                   steps, pushes, data):
    nb = tracks[name]
    curve = _SHAPES[shape](nb, random.Random(seed), steps)
    work = WorkingCurve(curve, nb)
    for _ in range(pushes):
        n = len(work.snippets)
        bads = [p for p in range(n) if work.bad[p]
                and not work.snippets[p].closed
                and (work.kind == CLOSED or 0 < p < n - 1)]
        if not bads:
            break
        window, wf, push = hom(work, data.draw(st.sampled_from(bads)), nb)
        work.apply(push, window, wf)
    assert _read_off(work.freeze(), nb) == _read_off(curve, nb)


# --- The single-bad resolver table --------------------------------------------


def test_every_bigon_type_has_one_resolver():
    """`RESOLVERS` covers exactly the bigon types, no trigon, and an
    R(h,h) push may leave any bigon but R(h,h) and B(h,h)."""
    assert set(RESOLVERS) == BIGON_TYPES
    assert not set(RESOLVERS) & TRIGON_TYPES
    assert NON_HORIZONTAL == BIGON_TYPES - {"R(h,h)", "B(h,h)"}


def _loop_track_hor_bigon():
    """The loop-branch track's two-snippet R(h,h) known answer."""
    nb = load_loop_track()
    text = json.dumps({"format": "curve/1", "kind": "closed",
                       "snippets": HOR_BIGON})
    return nb, parse_curve(text, nb)


def _criterion_3_closed(name, seed):
    """The closed curve at `seed` of criterion 3's corpus on a fixture."""
    nb = load_fixture(name)
    rng = random.Random(f"{name}/{seed}/c3")
    return nb, random_closed(nb, rng, rng.randrange(2, 13))


# A tier-1 input per "one bad left" site that leaves a bad there, and the
# types that site allows.
_LEFT_SITES = {
    "hor_bigon_comp": (_loop_track_hor_bigon, NON_HORIZONTAL),
    "_hor_bigon_wide": (lambda: _criterion_3_closed("t11d", 751),
                        NON_HORIZONTAL),
    "hor_bigon_branch": (lambda: _criterion_3_closed("t11", 1580),
                         {"R(h,h)"}),
}


@pytest.mark.parametrize("site", sorted(_LEFT_SITES))
def test_each_one_bad_left_check_runs(site, monkeypatch):
    """With no type allowed, the check on the bad a push leaves fails at
    each site that makes it, on a bad of a type the site allows."""
    build, allowed = _LEFT_SITES[site]
    nb, curve = build()
    resolve_left = pipelines._resolve_left
    monkeypatch.setattr(pipelines, "_resolve_left",
                        lambda run, types: resolve_left(run, frozenset()))
    with pytest.raises(AssertionError) as info:
        efficient_position(curve, nb)
    assert [e.name for e in info.traceback][-3:] == \
        [site, "<lambda>", "_resolve_left"]
    assert str(info.value) in allowed


# `digest(path)` hashes the trace/1 and curve/1 bytes of a seeded corpus:
# closed curves and arcs on the four fixtures and on the track at `path`.
_CORPUS_DIGEST = """
import hashlib, random
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.formats import (parse_track, read_text, serialize_curve,
                               serialize_trace)
from trackform.generate import random_arc, random_closed
from trackform.pipelines import efficient_position
from trackform.track_model import build_tie_neighbourhood


def digest(path):
    h = hashlib.sha256()
    tracks = [load_fixture(name) for name in FIXTURE_NAMES]
    tracks.append(build_tie_neighbourhood(parse_track(read_text(path))))
    for nb in tracks:
        for seed in range(92):
            rng = random.Random(seed)
            for make in (random_closed, random_arc):
                curve = make(nb, rng, rng.randrange(2, 24))
                res = efficient_position(curve, nb)
                h.update(serialize_trace(res.events).encode())
                h.update(serialize_curve(res.curve, nb).encode())
    return h.hexdigest()
"""


def test_push_path_asserts_have_no_side_effect():
    """Under `python -O`, with every assert stripped, a seeded corpus gives
    the same trace and curve bytes as in this process."""
    code = _CORPUS_DIGEST + "import sys; print(__debug__, digest(sys.argv[1]))"
    p = subprocess.run([sys.executable, "-O", "-c", code, str(LOOP_TRACK)],
                       capture_output=True, text=True, env=src_env(),
                       timeout=120)
    assert p.returncode == 0, p.stderr
    namespace = {}
    exec(_CORPUS_DIGEST, namespace)
    assert p.stdout.split() == ["False", namespace["digest"](LOOP_TRACK)]
