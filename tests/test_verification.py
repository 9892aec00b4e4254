"""Oracles for the verification layer: the independent efficiency checker,
the trace auditor (including forged-trace rejection), and the exhaustive
search oracle cross-validated against the pipeline."""
from __future__ import annotations

import random
from collections import deque
from typing import Callable, NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trackform.pipelines as pipelines
import trackform.verification as verification
from trackform.curve_ops import ARC, CLOSED, Curve, measure
from trackform.errors import AdjacencyError, AuditFailure, BadInput
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.generate import (GenerationFailed, boundary_power,
                                doubled_back, peripheral_bounce, random_arc,
                                random_closed, trivial_loop)
from trackform.homotopy_engine import EXPECTED_J, hom
from trackform.pipelines import (EFFICIENT, INSIDE_EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position)
from trackform.snippet_core import (BIGON_TYPES, TRIGON_TYPES, Snippet,
                                    classify, fact_table, facts)
from trackform.track_model import ANNULUS
from trackform.verification import (OracleVerdict, _Audit, audit_trace,
                                    check_efficient, exhaustive_oracle,
                                    oracle_agrees)


@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


@pytest.fixture(scope="module")
def s04():
    return load_fixture("s04")


def carried_loop(nb) -> Curve:
    return Curve(CLOSED, (
        Snippet(0, (3, 0), (1, 0)),
        Snippet(4, (1, 0), (3, 0)),
        Snippet(1, (1, 0), (3, 0)),
        Snippet(3, (3, 0), (1, 0)),
    ))


def chase_arc(nb) -> Curve:
    # interior B(h,t) at 1 followed by S(h,v,2)-producing chase; see the
    # pipeline oracles for its full resolution
    return Curve(ARC, (
        Snippet(5, (3, 2), (1, 2), 2),
        Snippet(0, (0, 0), (1, 0)),
        Snippet(4, (1, 0), (3, 1)),
        Snippet(5, (2, 0), (3, 3), -3),
    ))


# -- check_efficient --------------------------------------------------------


def test_checker_passes_carried_loop(t11):
    rep = check_efficient(carried_loop(t11), t11)
    assert rep.ok
    assert rep.first_failure is None
    assert rep.verdicts == (True, True, True, True)


def test_checker_flags_first_bad_index(t11):
    rep = check_efficient(chase_arc(t11), t11)
    assert not rep.ok
    assert rep.first_failure == 1
    assert rep.verdicts[1] is False
    assert rep.verdicts[0] is True


def test_checker_rejects_closed_snippet(t11):
    rep = check_efficient(Curve(CLOSED, (Snippet(5, None, None, 4),)), t11)
    assert not rep.ok and rep.first_failure == 0


def test_checker_agrees_with_classifier(t11, s04):
    for nb in (t11, s04):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randrange(1, 14)
            try:
                c = (random_closed(nb, rng, max(n, 2)) if seed % 2
                     else random_arc(nb, rng, n))
            except GenerationFailed:
                continue
            rep = check_efficient(c, nb)
            expect = tuple(not classify(s, nb).bad for s in c.snippets)
            assert rep.verdicts == expect
            assert rep.ok == all(expect)
            if not rep.ok:
                assert rep.first_failure == expect.index(False)


def test_pipeline_efficient_outputs_pass_checker(t11, s04):
    for nb in (t11, s04):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            try:
                c = random_closed(nb, rng, rng.randrange(2, 18))
            except GenerationFailed:
                continue
            res = efficient_position(c, nb)
            if res.status == EFFICIENT:
                assert check_efficient(res.curve, nb).ok
            else:
                assert not check_efficient(res.curve, nb).ok


# -- audit_trace ------------------------------------------------------------


def _traced_run(nb, seed=7, length=14):
    rng = random.Random(seed)
    c = random_closed(nb, rng, length)
    res = efficient_position(c, nb)
    return c, res


def test_audit_accepts_pipeline_traces(t11, s04):
    for nb, seed in ((t11, 3), (t11, 7), (t11, 11), (s04, 5)):
        c, res = _traced_run(nb, seed)
        rep = audit_trace(res.events, c, res.curve, nb)
        assert rep.ok
        assert rep.events == len(res.events)
        assert rep.checks > rep.events


def test_audit_accepts_arc_traces(t11):
    rng = random.Random(13)
    c = random_arc(t11, rng, 12)
    res = efficient_position(c, t11)
    assert audit_trace(res.events, c, res.curve, t11).ok


def _first_hom_index(events, rule=None):
    for i, ev in enumerate(events):
        if ev["op"] == "hom" and (rule is None or ev["rule"] == rule):
            return i
    raise AssertionError("no such hom event")


def test_audit_rejects_forged_rule(t11):
    c, res = _traced_run(t11)
    events = [dict(ev) for ev in res.events]
    i = _first_hom_index(events, "B(h,t)")
    events[i]["rule"] = "R(h,h)"
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert "rule" in err.value.clause


def test_audit_rejects_forged_j(t11):
    c, res = _traced_run(t11)
    events = [dict(ev) for ev in res.events]
    i = _first_hom_index(events)
    events[i]["j"] = events[i]["j"] + 1
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i


# A forged field that leaves the pushed position alone fails the comparison
# of that field with the replayed record.  A forged `k` or `rot` moves the
# push: the replayed push is illegal there, or it differs from the record in
# the first field compared (an adjacent bad snippet of another type fails
# at `rule`).
_FORGED_FIELD_CLAUSES = {
    "rule": {"rule"}, "turn": {"turn"}, "j": {"j"}, "n": {"length"},
    "win": {"window"}, "win-start": {"window"},
    "k": {"not-bad", "rot", "k", "rule"},
    "rot": {"not-bad", "rot", "k", "rule"},
}


def _forged(ev: dict, case: str):
    """The field a forgery case changes, and its forged value: `win`
    lengthens the window, `win-start` shifts it."""
    if case == "rule":
        return "rule", "R(h,h)" if ev["rule"] != "R(h,h)" else "B(h,t)"
    if case == "turn":
        return "turn", "Left" if ev["turn"] != "Left" else "Right"
    if case == "win-start":
        return "win", [ev["win"][0] + 1, ev["win"][1]]
    if case in ("n", "win"):
        return case, [ev[case][0], ev[case][1] + 1]
    return case, ev[case] + 1


@pytest.mark.parametrize("case", list(_FORGED_FIELD_CLAUSES))
def test_audit_names_each_forged_hom_field(t11, case):
    runs = [_traced_run(t11)]
    rng = random.Random(13)
    arc = random_arc(t11, rng, 12)
    runs.append((arc, efficient_position(arc, t11)))
    forged = 0
    for c, res in runs:
        for i, ev in enumerate(res.events):
            if ev["op"] != "hom":
                continue
            events = [dict(e) for e in res.events]
            key, value = _forged(ev, case)
            events[i][key] = value
            with pytest.raises(AuditFailure) as err:
                audit_trace(events, c, res.curve, t11)
            assert err.value.event_index == i
            assert err.value.clause in _FORGED_FIELD_CLAUSES[case], \
                (i, err.value)
            forged += 1
    assert forged >= 20


def test_audit_rejects_tampered_counters(t11):
    c, res = _traced_run(t11)
    events = [dict(ev) for ev in res.events]
    i = _first_hom_index(events)
    events[i]["c"] = list(events[i]["c"])
    events[i]["c"][0] += 1
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert "counter" in err.value.clause


def test_audit_rejects_tampered_final_curve(t11):
    c, res = _traced_run(t11)
    bad_after = Curve(res.curve.kind, res.curve.snippets + res.curve.snippets)
    with pytest.raises(AuditFailure) as err:
        audit_trace(res.events, c, bad_after, t11)
    assert "final" in err.value.clause


def test_audit_rejects_dropped_event(t11):
    c, res = _traced_run(t11)
    events = list(res.events)
    del events[len(events) // 2]
    with pytest.raises(AuditFailure):
        audit_trace(events, c, res.curve, t11)


def test_audit_rejects_forged_seam_wind(t11):
    c, res = _traced_run(t11)
    events = [dict(ev) for ev in res.events]
    seams = [i for i, ev in enumerate(events) if ev["op"] == "seam"]
    assert seams, "expected a seam event in a closed-curve run"
    events[seams[0]]["orig_wind"] += 2
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert "wind" in err.value.clause


def _unchained(curve: Curve) -> Curve:
    """The curve with its snippets 1 and 2 swapped."""
    s = list(curve.snippets)
    s[1], s[2] = s[2], s[1]
    return Curve(curve.kind, tuple(s))


def test_audit_checks_the_input_curve_before_any_event(t11):
    c, res = _traced_run(t11)
    trace = iter(res.events)
    with pytest.raises(AdjacencyError, match="snippets 0 and 1 do not chain"):
        audit_trace(trace, _unchained(c), res.curve, t11)
    assert next(trace) is res.events[0]  # no event was read


@pytest.mark.parametrize("kind", [ARC, CLOSED])
def test_empty_curves_are_bad_input(t11, kind):
    empty = Curve(kind, ())
    with pytest.raises(BadInput):
        efficient_position(empty, t11)
    with pytest.raises(BadInput):
        audit_trace([], empty, empty, t11)
    with pytest.raises(BadInput):
        exhaustive_oracle(empty, t11)


def _first_index(events, pred):
    return next(i for i, ev in enumerate(events) if pred(ev))


def test_audit_checks_contracts_on_three_snippet_arcs(t11, monkeypatch):
    """A push on a three-snippet arc leaves no snippet outside its window,
    yet its contracts are checked: a `hom` that slides the previous
    snippet a whole turn too far fails at `slide`."""
    arc = Curve(ARC, chase_arc(t11).snippets[:3])
    res = efficient_position(arc, t11)
    assert res.events[0]["n"] == [3, 2]
    real_hom = verification.hom

    def mis_slid(curve, k, nb):
        window, wf, ev = real_hom(curve, k, nb)
        s = window[0]
        turn = nb.total_corners(s.region, nb.polygon_cycle(s.region))
        s = s._replace(wind=s.wind + turn)
        return (s, *window[1:]), (facts(s, nb), *wf[1:]), ev

    monkeypatch.setattr(verification, "hom", mis_slid)
    with pytest.raises(AuditFailure) as err:
        audit_trace(res.events, arc, res.curve, t11)
    assert (err.value.event_index, err.value.clause) == (0, "slide")


def _n(ev, d0, d1):
    return ev._replace(n=[ev.n[0] + d0, ev.n[1] + d1])


def _two_closed_run(nb):
    """A two-snippet closed curve, [B(t,t), S(t,t,0)], whose B(t,t) is
    pushed by hand: no pipeline branch that pushes on a two-snippet closed
    curve is reached by a seeded input."""
    r = nb.region_id
    c = Curve(CLOSED, (Snippet(r["br:a"], (3, 0), (3, 0)),
                       Snippet(r["sw:v0"], (1, 0), (1, 0))))
    run = pipelines.Run(c, nb)
    run.hom_at(0, "weight_two_bigon")
    return c, run


def _merge_arc_run(nb):
    """A three-snippet arc whose middle B(t,t) merges its neighbours into
    one snippet, the whole result."""
    r = nb.region_id
    c = Curve(ARC, (Snippet(r["sw:v0"], (0, 0), (1, 0)),
                    Snippet(r["br:a"], (3, 0), (3, 0)),
                    Snippet(r["sw:v0"], (1, 0), (2, 0))))
    return c, efficient_position(c, nb)


def _refiled(nb, window, ev):
    return window, tuple(facts(s, nb) for s in window), ev


def _full_turn_later(nb, s):
    """The snippet wound one more full turn of its annulus, still valid."""
    return s._replace(wind=s.wind + nb.total_corners(
        s.region, nb.polygon_cycle(s.region)))


def _one_more_carried(wf):
    """The window's records with one efficient record counting one more
    carried snippet than it is."""
    i = next(i for i, f in enumerate(wf) if not f.row[4])
    f = wf[i]
    row = (f.row[0], f.row[1] + 1, *f.row[2:])
    return (*wf[:i], f._replace(row=row), *wf[i + 1:])


def _far_walk(ev, j=1000):
    """The record with a walk of j points, and the length it implies."""
    return ev._replace(j=j, n=[ev.n[0], ev.n[0] + j - 2])


class _Doctored(NamedTuple):
    """A doctored push that breaks one contract: which push is doctored
    (picked by its record), whether the run's `hom` is doctored too so
    that its record matches the replayed push, the doctor (neighbourhood,
    pushed snippet, window, fact records, push) -> (window, fact records,
    push), the clause and message expected for the undoctored record, and
    the run doctored (seed 7's 14-snippet t11 curve unless named)."""
    pick: Callable
    record_too: bool
    doctor: Callable
    expect: Callable
    run: Callable = _traced_run


def _trigon(ev) -> bool:
    return ev.n[0] > 2 and ev.rule in TRIGON_TYPES


_DOCTORED_CLAUSES = {
    "length": _Doctored(
        lambda ev: ev.n[0] > 2, True,
        lambda nb, a, window, wf, ev: (window, wf, _n(ev, 0, 1)),
        lambda ev: ("length", f"delta {ev.j - 1} with j={ev.j}")),
    "length-two-closed": _Doctored(
        lambda ev: ev.n[0] == 2, True,
        lambda nb, a, window, wf, ev: (window, wf, _n(ev, 0, 1)),
        lambda ev: ("length", "two-snippet closed rewrite length delta"),
        _two_closed_run),
    "j": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.rule in EXPECTED_J, True,
        lambda nb, a, window, wf, ev: (
            window, wf, _n(ev, 0, 1)._replace(j=ev.j + 1)),
        lambda ev: ("j", f"rule {ev.rule} cannot have j={ev.j + 1}")),
    "j-R(h,v)": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.rule == "R(h,v)", True,
        lambda nb, a, window, wf, ev: (window, wf, _far_walk(ev)),
        lambda ev: ("j", "R(h,v) walk of 1000 points")),
    "j-untabled": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.rule == "R(h,h)", True,
        lambda nb, a, window, wf, ev: (window, wf, _far_walk(ev)),
        lambda ev: ("j", "R(h,h) walk of 1000 points")),
    "locality-before": _Doctored(
        lambda ev: ev.n[0] > 2, True,
        lambda nb, a, window, wf, ev: (window, wf, _n(ev, 1, 1)),
        lambda ev: ("locality", "window not glued to the snippet before it")),
    "locality-after": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.j >= 1, False,
        lambda nb, a, window, wf, ev: _refiled(nb, (
            *window[:-1],
            window[-1]._replace(end=window[-1].start, wind=0)), ev),
        lambda ev: ("locality", "window not glued to the snippet after it")),
    # seed 7's first push with j >= 1 slides its next snippet in an annulus
    "slide-next": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.j >= 1, False,
        lambda nb, a, window, wf, ev: _refiled(nb, (
            *window[:-1], _full_turn_later(nb, window[-1])), ev),
        lambda ev: ("slide", "next snippet slid illegally")),
    "slide-merge": _Doctored(
        lambda ev: ev.j == 0, False,
        lambda nb, a, window, wf, ev: _refiled(nb, (a,), ev),
        lambda ev: ("slide", "merge left its region"),
        _merge_arc_run),
    "inner-bad": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.j >= 2, False,
        lambda nb, a, window, wf, ev: _refiled(
            nb, (window[0], a, *window[2:]), ev),
        lambda ev: ("inner-bad", "replacement interior snippet is bad")),
    # seed 7's first trigon push is a B(h,t) between efficient snippets,
    # handing off to an R(h,v); its second, that R(h,v), hands back a
    # B(h,t); the window records are doctored, the snippets kept
    "chase-multiplicity": _Doctored(
        _trigon, False,
        lambda nb, a, window, wf, ev: (
            window, tuple(facts(a, nb) for _ in wf), ev),
        lambda ev: ("chase-multiplicity",
                    "2 bad snippets out of one trigon")),
    "graph-edge": _Doctored(
        _trigon, False,
        lambda nb, a, window, wf, ev: (
            window, tuple(facts(a, nb) if f.row[4] else f for f in wf), ev),
        lambda ev: ("graph-edge", "B(h,t) -> B(h,t) is not a hand-off")),
    "turn": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.rule == "B(h,t)", True,
        lambda nb, a, window, wf, ev: (
            window, wf, ev._replace(turn="Left" if ev.turn == "Right"
                                    else "Right")),
        lambda ev: ("turn", "hand-off flipped the turn")),
    "chase-delta-R(h,v)": _Doctored(
        lambda ev: ev.n[0] > 2 and ev.rule == "R(h,v)", False,
        lambda nb, a, window, wf, ev: (window, _one_more_carried(wf), ev),
        lambda ev: ("chase-delta", "R(h,v) step changed (1,0,0)")),
    "chase-delta-hand-off": _Doctored(
        _trigon, False,
        lambda nb, a, window, wf, ev: (window, _one_more_carried(wf), ev),
        lambda ev: ("chase-delta", "B(h,t) -> R(h,v) changed (1,-1,0)")),
    # seed 4's first trigon push, an S(h,v,2), hands off nothing
    "chase-delta-terminal": _Doctored(
        _trigon, False,
        lambda nb, a, window, wf, ev: (window, _one_more_carried(wf), ev),
        lambda ev: ("chase-delta", "terminal step changed (1,1,0)"),
        lambda nb: _traced_run(nb, seed=4)),
}


def _doctored(real_hom, m, doctor):
    """`hom`, with its call number m (from 0) doctored."""
    calls = [0]

    def doctored(curve, k, nb):
        window, wf, ev = real_hom(curve, k, nb)
        calls[0] += 1
        if calls[0] == m + 1:
            a = curve.snippets[k % len(curve.snippets)]
            window, wf, ev = doctor(nb, a, window, wf, ev)
        return window, wf, ev
    return doctored


@pytest.mark.parametrize("case", list(_DOCTORED_CLAUSES))
def test_audit_names_each_contract_clause(t11, monkeypatch, case):
    """A push whose record matches the replayed push but breaks a rewrite
    contract fails at that contract's clause, with its message."""
    pick, record_too, doctor, expect, run = _DOCTORED_CLAUSES[case]
    c, res = run(t11)
    i = _first_index(res.events, lambda ev: ev.op == "hom" and pick(ev))
    m = sum(ev.op == "hom" for ev in res.events[:i])
    clause, detail = expect(res.events[i])
    real_hom = verification.hom
    if record_too:
        monkeypatch.setattr(pipelines, "hom", _doctored(real_hom, m, doctor))
        c, res = run(t11)
    monkeypatch.setattr(verification, "hom", _doctored(real_hom, m, doctor))
    with pytest.raises(AuditFailure) as err:
        audit_trace(res.events, c, res.curve, t11)
    assert (err.value.event_index, err.value.clause, str(err.value)) == \
        (i, clause, f"event {i}: {clause} ({detail})")


# -- running counters -------------------------------------------------------


class _CountingAudit(_Audit):
    """An audit that also compares its running counters with a full count
    of the replayed curve, and its fact records and bad flags with fresh
    table lookups, after every event."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops: set[str] = set()

    def _check_counters(self, work, ev) -> None:
        assert work.c == measure(work, self.nb).counters, (self.index, ev)
        table = fact_table(self.nb)
        fresh = [table[s] for s in work.snippets]
        assert work.facts == fresh, (self.index, ev)
        assert work.bad == bytearray(f.cls.bad for f in fresh), \
            (self.index, ev)
        self.ops.add(ev["op"])
        super()._check_counters(work, ev)


def _counter_corpus(nb, name):
    for seed in range(16):
        rng = random.Random(f"{name}/{seed}/counters")
        yield random_closed(nb, rng, rng.randrange(2, 30))
        if seed < 6:
            yield random_arc(nb, rng, rng.randrange(3, 30))
    yield doubled_back(nb, random.Random(name), 3)
    for ri, r in enumerate(nb.regions):
        if r.kind == ANNULUS:
            yield peripheral_bounce(nb, ri, 2)


def test_audit_running_counters_match_full_count():
    ops = set()
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for c in _counter_corpus(nb, name):
            res = efficient_position(c, nb)
            audit = _CountingAudit(res.events, c, res.curve, nb)
            rep = audit.run()
            assert rep.events == len(res.events)
            assert audit.work.c == measure(res.curve, nb).counters
            ops |= audit.ops
    assert ops == {"hom", "rotate", "reverse", "open", "seam"}


def _corpus_run(nb, op):
    """The first t11 corpus run with an `op` event that is not its last."""
    for c in _counter_corpus(nb, "t11"):
        res = efficient_position(c, nb)
        if any(ev["op"] == op for ev in res.events[:-1]):
            return c, res
    raise AssertionError(f"no {op} event in the corpus")


@pytest.mark.parametrize("op", ["open", "seam", "rotate", "reverse"])
def test_audit_rejects_forged_counters_after(t11, op):
    c, res = _corpus_run(t11, op)
    events = [dict(ev) for ev in res.events]
    i = _first_index(events[:-1], lambda ev: ev["op"] == op) + 1
    events[i]["c"] = list(events[i]["c"])
    events[i]["c"][2] += 1
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert err.value.clause == "counters"


@pytest.mark.parametrize("shift", ["plus-n", "minus-n", "zero", "n"])
def test_audit_rejects_out_of_range_rotation(t11, shift):
    # `Run` records rotations by 0 < by < n; any other `by`, even one equal
    # to the recorded one modulo n, fails at its event
    c, res = _corpus_run(t11, "rotate")
    events = [dict(ev) for ev in res.events]
    i = _first_index(events, lambda ev: ev["op"] == "rotate")
    assert events[i - 1]["op"] == "hom"
    n, by = events[i - 1]["n"][1], events[i]["by"]
    events[i]["by"] = {"plus-n": by + n, "minus-n": by - n, "zero": 0,
                       "n": n}[shift]
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert err.value.clause == "by"


@pytest.mark.parametrize("forge", [
    "list-record", "missing-n", "null-k", "string-by", "bool-counters",
    "missing-phase", "null-phase"])
def test_audit_rejects_malformed_record(t11, forge):
    c, res = _corpus_run(t11, "rotate")
    events = [dict(ev) for ev in res.events]
    if forge == "list-record":
        i = _first_hom_index(events)
        events[i] = list(events[i].items())
    elif forge == "missing-n":
        i = _first_hom_index(events)
        del events[i]["n"]
    elif forge == "null-k":
        i = _first_hom_index(events)
        events[i]["k"] = None
    elif forge == "string-by":
        i = _first_index(events, lambda ev: ev["op"] == "rotate")
        events[i]["by"] = str(events[i]["by"])
    elif forge == "missing-phase":
        i = _first_index(events, lambda ev: ev["op"] == "rotate")
        del events[i]["phase"]
    elif forge == "null-phase":
        i = _first_hom_index(events)
        events[i]["phase"] = None
    else:
        # true == 1 in Python, so only a type check tells them apart
        i = _first_index(events, lambda ev: 1 in ev["c"])
        events[i]["c"] = [True if x == 1 else x for x in events[i]["c"]]
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert err.value.clause == "record"


# -- auditor soundness ------------------------------------------------------


_OPS = ["hom", "rotate", "reverse", "open", "seam"]
_NAMES = sorted(BIGON_TYPES | TRIGON_TYPES) + ["Right", "Left"]


class _LengthAudit(_Audit):
    """An audit that notes the replayed curve's length before each event."""

    def __init__(self, trace, before, *args) -> None:
        super().__init__(trace, before, *args)
        self.lens = [len(before.snippets)]

    def _check_counters(self, work, ev) -> None:
        self.lens.append(len(work.snippets))
        super()._check_counters(work, ev)


@pytest.fixture(scope="module")
def recorded_runs():
    """(nb, input, events, output, audit report, the curve's length before
    each event) of the runs on every fixture's counter corpus; their events
    cover all five ops."""
    runs, ops = [], set()
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for c in _counter_corpus(nb, name):
            res = efficient_position(c, nb)
            if res.events:
                audit = _LengthAudit(res.events, c, res.curve, nb)
                runs.append((nb, c, res.events, res.curve, audit.run(),
                             audit.lens))
                ops |= {ev["op"] for ev in res.events}
    assert ops == set(_OPS)
    return runs


def _other_values(v, n: int):
    """Values to put in place of a record field holding v, on a curve of n
    snippets: nearby ints, ints equal to v modulo n, distant ints, names,
    ops, other JSON types, and a list changed in one place or in length."""
    small = st.integers(-3, 3)
    other = st.one_of(
        st.sampled_from(_NAMES + _OPS), st.none(), st.booleans(),
        st.floats(-4, 4), st.just(""), st.just([]), st.just({}))
    scalar = st.one_of(
        small.map(lambda d: v + d) if type(v) is int else small,
        small.map(lambda m: v + m * n) if type(v) is int else small,
        st.integers(-10**6, 10**6), other)
    if not isinstance(v, list):
        return scalar
    at = st.integers(0, len(v) - 1)
    return st.one_of(
        st.tuples(at, scalar).map(lambda p: v[:p[0]] + [p[1]] + v[p[0] + 1:]),
        st.just(v[:-1]), st.just(v + [0]), scalar)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_audit_rejects_or_ignores_any_forged_field(recorded_runs, data):
    # a forged trace audits exactly as the recorded one or raises
    # AuditFailure; any other exception fails the test
    nb, before, events, after, report, lens = recorded_runs[
        data.draw(st.integers(0, len(recorded_runs) - 1))]
    events = list(events)
    i = data.draw(st.integers(0, len(events) - 1))
    key = data.draw(st.sampled_from(sorted(events[i].keys())))
    events[i] = {**events[i],
                 key: data.draw(_other_values(events[i][key], lens[i]))}
    try:
        got = audit_trace(events, before, after, nb)
    except AuditFailure:
        return
    assert got == report


# hom fields and rotate `by`, each of which a forgery must not get past
_MUST_FAIL = [("hom", "k"), ("hom", "rule"), ("hom", "win"), ("hom", "c"),
              ("rotate", "by")]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_audit_rejects_every_forged_run(recorded_runs, data):
    forge = data.draw(st.sampled_from(_MUST_FAIL + ["drop", "swap"]))
    if forge in _MUST_FAIL:  # a run with a record of the forged op
        op, key = forge
        r, i = data.draw(st.sampled_from(
            [(r, i) for r, run in enumerate(recorded_runs)
             for i, ev in enumerate(run[2]) if ev["op"] == op]))
    else:
        r = data.draw(st.integers(0, len(recorded_runs) - 1))
    nb, before, events, after, _, lens = recorded_runs[r]
    events = list(events)
    if forge == "drop":
        del events[data.draw(st.integers(0, len(events) - 1))]
    elif forge == "swap":
        assume(len(events) >= 2)
        i = data.draw(st.integers(0, len(events) - 2))
        j = data.draw(st.integers(i + 1, len(events) - 1))
        assume(events[i] != events[j])
        events[i], events[j] = events[j], events[i]
    else:
        v = events[i][key]
        events[i] = {**events[i], key: data.draw(
            _other_values(v, lens[i]).filter(
                lambda w: type(w) is not type(v) or w != v))}
    with pytest.raises(AuditFailure):
        audit_trace(events, before, after, nb)


# -- exhaustive_oracle ------------------------------------------------------


def _trivial_pair() -> Curve:
    return Curve(CLOSED, (Snippet(0, (3, 0), (3, 0), 0),
                          Snippet(3, (1, 0), (1, 0), 0)))


def test_oracle_trivial_pair_reaches_single(t11):
    c = _trivial_pair()
    v = exhaustive_oracle(c, t11)
    assert v.conclusive and v.single_reachable
    res = efficient_position(c, t11)
    assert res.status == SINGLE_SNIPPET
    assert oracle_agrees(v, res.status)


def test_oracle_on_efficient_input(t11):
    c = carried_loop(t11)
    v = exhaustive_oracle(c, t11)
    assert v.conclusive and v.efficient_reachable and not v.single_reachable
    assert oracle_agrees(v, EFFICIENT)


def test_oracle_respects_state_cap(t11):
    c = doubled_back(t11, random.Random(3), 4)
    v = exhaustive_oracle(c, t11, cap_states=2)
    assert not v.conclusive
    assert v.reason is not None
    for cap in (0, -1):
        with pytest.raises(BadInput):
            exhaustive_oracle(c, t11, cap_states=cap)


def test_oracle_rejects_a_curve_that_does_not_chain(t11):
    c, _ = _traced_run(t11)
    with pytest.raises(AdjacencyError, match="snippets 0 and 1 do not chain"):
        exhaustive_oracle(_unchained(c), t11)


def _random_closed_inputs(t11, s04):
    for nb, base in ((t11, 0), (s04, 500)):
        for seed in range(30):
            rng = random.Random(base + seed)
            try:
                yield nb, seed, random_closed(nb, rng, rng.randrange(2, 7))
            except GenerationFailed:
                continue


def test_oracle_agreement_random_closed(t11, s04):
    checked = inconclusive = 0
    for nb, seed, c in _random_closed_inputs(t11, s04):
        res = efficient_position(c, nb)
        v = exhaustive_oracle(c, nb, cap_states=30000)
        if not v.conclusive:
            inconclusive += 1
            continue
        checked += 1
        assert oracle_agrees(v, res.status), (nb.name, seed, res.status, v)
        assert v.single_reachable == (res.status == SINGLE_SNIPPET)
        if res.status == EFFICIENT:
            assert v.efficient_reachable
    assert checked >= 30
    assert inconclusive <= checked


def _random_arc_inputs(t11):
    for seed in range(25):
        rng = random.Random(seed * 3 + 1)
        yield seed, random_arc(t11, rng, rng.randrange(1, 7))


def test_oracle_agreement_random_arcs(t11):
    checked = 0
    for seed, c in _random_arc_inputs(t11):
        res = efficient_position(c, t11)
        v = exhaustive_oracle(c, t11, cap_states=30000)
        if not v.conclusive:
            continue
        checked += 1
        assert oracle_agrees(v, res.status), (seed, res.status, v)
    assert checked >= 15


def _builder_inputs(t11):
    return (trivial_loop(t11, 5), boundary_power(t11, 5, 2),
            doubled_back(t11, random.Random(9), 3))


def test_oracle_agreement_builders(t11):
    for c in _builder_inputs(t11):
        res = efficient_position(c, t11)
        assert res.status == SINGLE_SNIPPET
        v = exhaustive_oracle(c, t11, cap_states=60000)
        if v.conclusive:
            assert v.single_reachable and oracle_agrees(v, res.status)


def _criterion_7_corpus():
    """Criterion 7's curves, each with its neighbourhood."""
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for seed in range(45):
            rng = random.Random(f"{name}/{seed}/c7")
            if seed % 3 == 0:
                curve = random_arc(nb, rng, rng.randrange(1, 7))
            else:
                curve = random_closed(nb, rng, rng.randrange(2, 9))
            if len(curve.snippets) <= 8:
                yield nb, curve


def test_oracle_agreement_past_length_8():
    """Ground truth for arcs and closed curves of 9-12 snippets on every
    fixture: each search is conclusive and agrees with the pipeline."""
    lengths = set()
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for seed in range(60):
            rng = random.Random(f"{name}/{seed}/long")
            if seed % 3 == 0:
                c = random_arc(nb, rng, rng.randrange(9, 13))
            else:
                c = random_closed(nb, rng, rng.randrange(9, 13))
            if len(c.snippets) > 12:
                continue
            v = exhaustive_oracle(c, nb, cap_states=200_000)
            res = efficient_position(c, nb)
            assert v.conclusive, (name, seed, v)
            assert oracle_agrees(v, res.status), (name, seed, res.status, v)
            lengths.add(len(c.snippets))
    assert lengths == {9, 10, 11, 12}


# The oracle as it searched before snippet ids: whole curves, a `hom` and a
# splice per push, and states keyed by snippet tuples.  It is the reference
# the id search must equal, verdict for verdict, so it splices with its own
# code rather than the code it checks.


def _splice(curve: Curve, window, ev) -> Curve:
    """The whole curve `hom` rewrote into `window` and its record `ev`."""
    r, ws = ev["rot"], ev["win"][0]
    snap = curve.snippets[r:] + curve.snippets[:r]
    return Curve(curve.kind, (*snap[:ws], *window, *snap[ws + 3:]))


def _state_key(curve: Curve):
    """An arc's snippets; a closed curve's least rotation of them.  Only a
    one-snippet curve can hold a closed snippet's None loci, so rotations
    of two or more snippets compare as plain snippet tuples."""
    snap = curve.snippets
    if curve.kind == ARC:
        return snap
    return min(snap[i:] + snap[:i] for i in range(len(snap)))


def reference_oracle(curve: Curve, nb, max_len: int | None = None,
                     cap_states: int = 50_000) -> OracleVerdict:
    s_N = nb.s_N
    if max_len is None:
        max_len = len(curve.snippets) + 3 * s_N
    w0 = max((abs(s.wind) for s in curve.snippets), default=0)
    wind_cap = w0 + 3 * s_N

    seen = {_state_key(curve)}
    queue = deque([curve])
    efficient_found = False
    single_found = False
    pruned = False
    states = 0
    while queue:
        cur = queue.popleft()
        states += 1
        n = len(cur.snippets)
        bads = [i for i, s in enumerate(cur.snippets)
                if classify(s, nb).bad]
        if not bads:
            efficient_found = True
        elif n == 1:
            single_found = True
            return OracleVerdict(True, efficient_found, True, states)
        if cur.kind == ARC:
            bads = [i for i in bads if 0 < i < n - 1]
        for k in bads:
            window, _, ev = hom(cur, k, nb)
            child = _splice(cur, window, ev)
            if len(child.snippets) > max_len or any(
                    abs(s.wind) > wind_cap for s in child.snippets):
                pruned = True
                continue
            key = _state_key(child)
            if key in seen:
                continue
            if len(seen) >= cap_states:
                return OracleVerdict(False, efficient_found, single_found,
                                     states, reason="state cap")
            seen.add(key)
            queue.append(child)
    if pruned and not single_found:
        return OracleVerdict(False, efficient_found, single_found, states,
                             reason="length or winding cap")
    return OracleVerdict(True, efficient_found, single_found, states)


def _oracle_test_searches(t11, s04):
    """(neighbourhood, curve, state cap) of each search the oracle tests
    above make."""
    yield t11, _trivial_pair(), 50_000
    yield t11, carried_loop(t11), 50_000
    yield t11, doubled_back(t11, random.Random(3), 4), 2
    for nb, _, c in _random_closed_inputs(t11, s04):
        yield nb, c, 30000
    for _, c in _random_arc_inputs(t11):
        yield t11, c, 30000
    for c in _builder_inputs(t11):
        yield t11, c, 60000


@pytest.mark.parametrize("corpus", ["criterion-7", "oracle-tests"])
def test_oracle_equals_reference(t11, s04, corpus):
    """Every verdict field, `states` and `reason` included, equals the
    reference's: at each search's own cap, at caps that stop the search
    early, where `states` shows any change in breadth-first order, and with
    no growth in length allowed, which prunes."""
    if corpus == "criterion-7":
        searches = ((nb, c, 50_000) for nb, c in _criterion_7_corpus())
    else:
        searches = _oracle_test_searches(t11, s04)
    reasons = {"state cap": 0, "length or winding cap": 0}
    for nb, c, cap in searches:
        n = len(c.snippets)
        for max_len, cap in ((None, cap), (None, 2), (None, 20), (None, 300),
                             (n, cap)):
            v = exhaustive_oracle(c, nb, max_len, cap)
            assert v == reference_oracle(c, nb, max_len, cap), (c, max_len,
                                                                cap)
            if v.reason:
                reasons[v.reason] += 1
    assert min(reasons.values()) >= 20, reasons


def _old_state_key(curve: Curve):
    """The oracle's state key when it rebuilt a 4-tuple per snippet."""
    rep = tuple((s.region, s.start or (-1, -1), s.end or (-1, -1), s.wind)
                for s in curve.snippets)
    if curve.kind == ARC:
        return (ARC, rep)
    n = len(rep)
    return (CLOSED, min(rep[i:] + rep[:i] for i in range(n)))


def test_state_key_splits_states_as_the_old_key(monkeypatch):
    """On criterion 7's corpus, the closed curves each oracle search keys
    fall into the same classes under the least rotation of their snippet
    ids as under the old key.  (An arc's key is its id tuple, which stands
    for its snippets one to one.)"""
    keyed: list[tuple[int, ...]] = []
    tables: list = []
    least_rotation = verification._least_rotation
    id_table = verification._IdTable

    def recording(ids):
        keyed.append(ids)
        return least_rotation(ids)

    def new_table(nb):
        tables.append(id_table(nb))
        return tables[-1]

    monkeypatch.setattr(verification, "_least_rotation", recording)
    monkeypatch.setattr(verification, "_IdTable", new_table)
    searches = states = 0
    for nb, curve in _criterion_7_corpus():
        if curve.kind == ARC:
            continue
        keyed.clear()
        tables.clear()
        exhaustive_oracle(curve, nb)
        snippets, = (t.snippets for t in tables)
        old_to_new: dict = {}
        new_to_old: dict = {}
        for ids in keyed:
            old = _old_state_key(
                Curve(CLOSED, tuple(snippets[i] for i in ids)))
            new = least_rotation(ids)
            assert old_to_new.setdefault(old, new) == new, (nb.name, curve)
            assert new_to_old.setdefault(new, old) == old, (nb.name, curve)
        searches += 1
        states += len(new_to_old)
    assert searches > 80 and states > 1000


def test_oracle_table_files_each_snippets_own_facts(monkeypatch):
    """On criterion 7's corpus, every snippet an oracle search interns,
    from the input or from a pushed window, carries the bad flag its
    classification gives and its own |wind|, although the table takes
    them from the fact records its callers hold."""
    tables: list = []
    id_table = verification._IdTable

    def new_table(nb):
        tables.append(id_table(nb))
        return tables[-1]

    monkeypatch.setattr(verification, "_IdTable", new_table)
    interned = 0
    for nb, curve in _criterion_7_corpus():
        tables.clear()
        exhaustive_oracle(curve, nb)
        tab, = tables
        assert len(tab.ids) == len(tab.snippets) == len(tab.bad) \
            == len(tab.wind)
        for i, s in enumerate(tab.snippets):
            assert tab.ids[s] == i
            assert tab.bad[i] == classify(s, nb).bad, (nb.name, s)
            assert tab.wind[i] == abs(s.wind), (nb.name, s)
        interned += len(tab.snippets)
    assert interned > 2000


def test_oracle_pushes_each_distinct_triple_once(monkeypatch):
    """Timing-free cost guard: in each search on criterion 7's corpus, the
    oracle runs the window step exactly once per distinct (previous, bad,
    next) triple that the reference search, which pushes every triple of
    every state it dequeues, meets in three-snippet-or-longer states, and
    in the order it first meets them."""
    stepped: list = []
    met: list = []
    step, real_hom = verification.push_window, hom

    def counted(prev, a, nxt, nb, k=1):
        stepped.append((prev, a, nxt))
        return step(prev, a, nxt, nb, k)

    def recording(curve, k, nb):
        snap = curve.snippets
        n = len(snap)
        if n >= 3:
            met.append((snap[k - 1], snap[k], snap[(k + 1) % n]))
        return real_hom(curve, k, nb)

    monkeypatch.setattr(verification, "push_window", counted)
    monkeypatch.setitem(globals(), "hom", recording)
    repeats = 0
    for nb, curve in _criterion_7_corpus():
        stepped.clear()
        met.clear()
        assert exhaustive_oracle(curve, nb) == reference_oracle(curve, nb)
        assert stepped == list(dict.fromkeys(met)), (nb.name, curve)
        repeats += len(met) - len(stepped)
    assert repeats > 1000
