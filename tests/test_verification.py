"""Oracles for the verification layer: the independent efficiency checker,
the trace auditor (including forged-trace rejection), and the exhaustive
search oracle cross-validated against the pipeline."""
from __future__ import annotations

import random

import pytest

import trackform.verification as verification
from trackform.curve_ops import ARC, CLOSED, Curve, measure
from trackform.errors import AuditFailure
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.generate import (GenerationFailed, boundary_power,
                                doubled_back, peripheral_bounce, random_arc,
                                random_closed, trivial_loop)
from trackform.pipelines import (EFFICIENT, INSIDE_EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position)
from trackform.snippet_core import Snippet, classify
from trackform.track_model import ANNULUS
from trackform.verification import (_Audit, audit_trace, check_efficient,
                                    exhaustive_oracle, oracle_agrees)


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


def test_audit_rejects_forged_window(t11):
    c, res = _traced_run(t11)
    events = [dict(ev) for ev in res.events]
    i = _first_hom_index(events)
    events[i]["win"] = [events[i]["win"][0] + 1, events[i]["win"][1]]
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert "window" in err.value.clause


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
    "win": {"window"},
    "k": {"not-bad", "rot", "k", "rule"},
    "rot": {"not-bad", "rot", "k", "rule"},
}


def _forged(ev: dict, key: str):
    if key == "rule":
        return "R(h,h)" if ev["rule"] != "R(h,h)" else "B(h,t)"
    if key == "turn":
        return "Left" if ev["turn"] != "Left" else "Right"
    if key in ("n", "win"):
        return [ev[key][0], ev[key][1] + 1]
    return ev[key] + 1


@pytest.mark.parametrize("key", list(_FORGED_FIELD_CLAUSES))
def test_audit_names_each_forged_hom_field(t11, key):
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
            events[i][key] = _forged(ev, key)
            with pytest.raises(AuditFailure) as err:
                audit_trace(events, c, res.curve, t11)
            assert err.value.event_index == i
            assert err.value.clause in _FORGED_FIELD_CLAUSES[key], \
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


def _first_index(events, pred):
    return next(i for i, ev in enumerate(events) if pred(ev))


# -- running counters -------------------------------------------------------


class _CountingAudit(_Audit):
    """An audit that also compares its running counters with a full count
    of the replayed curve after every event."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops: set[str] = set()

    def _check_counters(self, cur, ev) -> None:
        assert self.counters == tuple(measure(cur, self.nb).counters), \
            (self.index, ev)
        self.ops.add(ev["op"])
        super()._check_counters(cur, ev)


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
            assert audit.counters == tuple(measure(res.curve, nb).counters)
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


@pytest.mark.parametrize("forge", [
    "list-record", "missing-n", "null-k", "string-by", "bool-counters"])
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
    else:
        # true == 1 in Python, so only a type check tells them apart
        i = _first_index(events, lambda ev: 1 in ev["c"])
        events[i]["c"] = [True if x == 1 else x for x in events[i]["c"]]
    with pytest.raises(AuditFailure) as err:
        audit_trace(events, c, res.curve, t11)
    assert err.value.event_index == i
    assert err.value.clause == "record"


# -- exhaustive_oracle ------------------------------------------------------


def test_oracle_trivial_pair_reaches_single(t11):
    c = Curve(CLOSED, (Snippet(0, (3, 0), (3, 0), 0),
                       Snippet(3, (1, 0), (1, 0), 0)))
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


def test_oracle_agreement_random_closed(t11, s04):
    checked = inconclusive = 0
    for nb, base in ((t11, 0), (s04, 500)):
        for seed in range(30):
            rng = random.Random(base + seed)
            try:
                c = random_closed(nb, rng, rng.randrange(2, 7))
            except GenerationFailed:
                continue
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


def test_oracle_agreement_random_arcs(t11):
    checked = 0
    for seed in range(25):
        rng = random.Random(seed * 3 + 1)
        c = random_arc(t11, rng, rng.randrange(1, 7))
        res = efficient_position(c, t11)
        v = exhaustive_oracle(c, t11, cap_states=30000)
        if not v.conclusive:
            continue
        checked += 1
        assert oracle_agrees(v, res.status), (seed, res.status, v)
    assert checked >= 15


def test_oracle_agreement_builders(t11):
    for c in (trivial_loop(t11, 5), boundary_power(t11, 5, 2),
              doubled_back(t11, random.Random(9), 3)):
        res = efficient_position(c, t11)
        assert res.status == SINGLE_SNIPPET
        v = exhaustive_oracle(c, t11, cap_states=60000)
        if v.conclusive:
            assert v.single_reachable and oracle_agrees(v, res.status)


def _old_state_key(curve: Curve):
    """The oracle's state key when it rebuilt a 4-tuple per snippet."""
    rep = tuple((s.region, s.start or (-1, -1), s.end or (-1, -1), s.wind)
                for s in curve.snippets)
    if curve.kind == ARC:
        return (ARC, rep)
    n = len(rep)
    return (CLOSED, min(rep[i:] + rep[:i] for i in range(n)))


def test_state_key_splits_states_as_the_old_key(monkeypatch):
    """On criterion 7's corpus, the curves each oracle search keys fall into
    the same classes under the snippet-tuple key as under the old key."""
    keyed: list[Curve] = []
    state_key = verification._state_key

    def recording(curve):
        keyed.append(curve)
        return state_key(curve)

    monkeypatch.setattr(verification, "_state_key", recording)
    searches = states = 0
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for seed in range(45):
            rng = random.Random(f"{name}/{seed}/c7")
            if seed % 3 == 0:
                curve = random_arc(nb, rng, rng.randrange(1, 7))
            else:
                curve = random_closed(nb, rng, rng.randrange(2, 9))
            if len(curve.snippets) > 8:
                continue
            keyed.clear()
            exhaustive_oracle(curve, nb)
            old_to_new: dict = {}
            new_to_old: dict = {}
            for c in keyed:
                old, new = _old_state_key(c), state_key(c)
                assert old_to_new.setdefault(old, new) == new, (name, seed)
                assert new_to_old.setdefault(new, old) == old, (name, seed)
            searches += 1
            states += len(new_to_old)
    assert searches > 100 and states > 1000
