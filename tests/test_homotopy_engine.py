"""Rewrite-engine oracles: hand-computed homotopy outputs on t11.

Every expected curve below was derived by hand before the engine existed, by
walking the t11 gluing table: partner loci, wedge slides at the tiling
vertices, and winding adjustments at corner crossings.  The gluings used
(region ids per load order: br:a=0, br:b=1, br:d=2, sw:v0=3, sw:v1=4,
face:0=5):

  (0,3,0)-(3,1,0)  (0,1,0)-(4,1,0)  (1,3,0)-(3,3,0)  (1,1,0)-(4,3,0)
  (2,3,0)-(3,3,2)  (2,1,0)-(4,3,2)  cusps (5,0,0)-(3,3,1), (5,2,0)-(4,3,1)
  side1: (5,1,0)-(1,2,0) (5,1,1)-(4,2,0) (5,1,2)-(0,0,0) (5,1,3)-(3,0,0)
         (5,1,4)-(2,2,0)
  side3: (5,3,0)-(1,0,0) (5,3,1)-(3,2,0) (5,3,2)-(0,2,0) (5,3,3)-(4,0,0)
         (5,3,4)-(2,0,0)
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_snippet_curves
from trackform.curve_ops import (ARC, CLOSED, Curve, WorkingCurve, reverse,
                                 validate_curve)
from trackform.errors import (AdjacencyError, BadInput, ClosedSnippet,
                              GenerationFailed, InconsistentSnippet, NotBad,
                              TrackformError)
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.formats import Hom
from trackform.generate import random_arc, random_closed, trivial_loop
from trackform.homotopy_engine import _push_recipe_uncached, hom, push_window
from trackform.snippet_core import TRIGON_GRAPH, Snippet, classify, fact_table
from trackform.track_model import ANNULUS


def _pushed(curve, window, wf, ev, nb):
    """The whole curve after a push, spliced by `WorkingCurve.apply`, the
    step runs and audits replay a push with."""
    w = WorkingCurve(curve, nb)
    w.apply(ev, window, wf)
    return w.freeze()


def _ids(t11):
    r = t11.region_id
    return r["br:a"], r["br:b"], r["br:d"], r["sw:v0"], r["sw:v1"], r["face:0"]


def test_narrow_merge_branch_bigon(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(V0, (0, 0), (1, 0)),   # S(h,t,1)
        Snippet(A, (3, 0), (3, 0)),    # B(t,t): the bad snippet
        Snippet(V0, (1, 0), (2, 0)),   # S(h,t,1)
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (Snippet(V0, (0, 0), (2, 0)),))
    assert (ev["rule"], ev["j"], ev["n"]) == ("B(t,t)", 0, [3, 1])


def test_branch_trigon_right(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(F, (3, 2), (1, 2), 2),  # vertical dual, Right
        Snippet(A, (0, 0), (1, 0)),     # B(h,t), turn Right
        Snippet(V1, (1, 0), (3, 1)),    # carried
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(F, (3, 2), (1, 1), 2),  # end slid over a mark: wind kept
        Snippet(V1, (2, 0), (3, 1)),    # start slid over a corner
    ))
    assert (ev["rule"], ev["turn"], ev["j"]) == ("B(h,t)", "Right", 1)
    assert ev["n"] == [3, 2]
    # the trigon moved into the switch: B(h,t) -> S(h,v,2)
    assert classify(out.snippets[1], t11).type == "S(h,v,2)"
    assert "S(h,v,2)" in TRIGON_GRAPH["B(h,t)"]


def test_switch_trigon_weight_three(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(F, (3, 3), (1, 3), 2),  # vertical dual, Right
        Snippet(V0, (0, 0), (3, 0)),    # S(h,t,3), turn Left
        Snippet(B, (3, 0), (1, 0)),     # carried
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(F, (3, 3), (1, 4), 2),   # slid over a mark
        Snippet(D, (2, 0), (0, 0)),      # inner: branch tie
        Snippet(F, (3, 4), (1, 0), 2),   # inner: vertical dual through cusp
        Snippet(B, (2, 0), (1, 0)),      # slid: the trigon moves on
    ))
    assert (ev["rule"], ev["turn"], ev["j"], ev["n"][1]) == \
        ("S(h,t,3)", "Left", 3, 4)
    assert classify(out.snippets[3], t11).type == "B(h,t)"
    inner_cls = classify(out.snippets[2], t11)
    assert inner_cls.vertical_dual and inner_cls.turn == "Right"


def test_switch_bigon_weight_two(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(B, (1, 0), (3, 0)),     # carried
        Snippet(V0, (3, 0), (3, 2)),    # S(t,t,2), turn Right
        Snippet(D, (3, 0), (1, 0)),     # carried
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(B, (1, 0), (2, 0)),      # slid: carried -> B(h,t)
        Snippet(F, (1, 0), (3, 4), -2),  # inner: vertical dual, turn Left
        Snippet(D, (0, 0), (1, 0)),      # slid: carried -> B(h,t)
    ))
    assert (ev["rule"], ev["turn"], ev["j"], ev["n"][1]) == \
        ("S(t,t,2)", "Right", 2, 3)
    assert classify(out.snippets[0], t11).type == "B(h,t)"
    assert classify(out.snippets[2], t11).type == "B(h,t)"
    mid = classify(out.snippets[1], t11)
    assert mid.vertical_dual and mid.turn == "Left"


def test_wide_horizontal_bigon_in_annulus(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(B, (0, 0), (2, 0)),     # tie
        Snippet(F, (1, 0), (1, 2), 0),  # R(h,h) wide, turn Right, two marks
        Snippet(A, (0, 0), (2, 0)),     # tie
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(B, (0, 0), (1, 0)),     # tie -> B(h,t)
        Snippet(V1, (3, 0), (1, 0)),    # inner: carried under the run
        Snippet(A, (1, 0), (2, 0)),     # tie -> B(h,t)
    ))
    assert (ev["rule"], ev["turn"], ev["j"], ev["n"][1]) == \
        ("R(h,h)", "Right", 2, 3)


def test_wide_annulus_trigon(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(A, (2, 0), (0, 0)),      # tie
        Snippet(F, (1, 2), (0, 0), -1),  # R(h,v), turn Left, j=3
        Snippet(V0, (3, 1), (1, 0)),     # carried
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(A, (2, 0), (1, 0)),      # tie -> B(h,t)
        Snippet(V1, (1, 0), (3, 0)),     # inner: carried
        Snippet(B, (1, 0), (3, 0)),      # inner: carried
        Snippet(V0, (3, 0), (1, 0)),     # slid over the cusp mark: carried
    ))
    assert (ev["rule"], ev["turn"], ev["j"], ev["n"][1]) == \
        ("R(h,v)", "Left", 3, 4)
    assert classify(out.snippets[0], t11).type == "B(h,t)"


def test_wind_decrement_on_corner_slide(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (
        Snippet(F, (3, 1), (1, 0), 2),  # vertical dual, Right
        Snippet(B, (2, 0), (3, 0)),     # B(h,t), turn Right
        Snippet(V0, (3, 0), (1, 0)),    # carried
    ))
    validate_curve(arc, t11)
    window, wf, ev = hom(arc, 1, t11)
    out = _pushed(arc, window, wf, ev, t11)
    assert out == Curve(ARC, (
        Snippet(F, (3, 1), (0, 0), 1),  # end slid over a corner: wind 2 -> 1
        Snippet(V0, (3, 1), (1, 0)),    # start slid over a mark: carried
    ))
    assert classify(out.snippets[0], t11).type == "R(h,v)"
    assert classify(out.snippets[0], t11).turn == "Right"


def test_len_two_closed_merges_to_single_closed(t11):
    A, B, D, V0, V1, F = _ids(t11)
    curve = Curve(CLOSED, (
        Snippet(A, (3, 0), (3, 0)),  # B(t,t)
        Snippet(V0, (1, 0), (1, 0)),  # S(t,t,0)
    ))
    validate_curve(curve, t11)
    window, wf, ev = hom(curve, 0, t11)
    out = _pushed(curve, window, wf, ev, t11)
    assert out == Curve(CLOSED, (Snippet(V0, None, None, 0),))
    assert (ev["j"], ev["n"][1]) == (0, 1)
    assert classify(out.snippets[0], t11).type == "Trivial"


def test_len_two_closed_push_rotates_window_and_records(t11):
    """Pushing the S(h,v,2) at 0 of a two-snippet closed curve puts the
    in-between snippet at 0 and the slid survivor after it; the fact
    records `hom` hands back are rotated with the window."""
    A, B, D, V0, V1, F = _ids(t11)
    curve = Curve(CLOSED, (
        Snippet(V1, (0, 0), (3, 1)),     # S(h,v,2), turn Left
        Snippet(F, (2, 0), (3, 3), 5),
    ))
    validate_curve(curve, t11)
    window, wf, ev = hom(curve, 0, t11)
    assert window == (Snippet(D, (0, 0), (2, 0)), Snippet(F, (1, 4), (3, 4), 6))
    assert (ev["rule"], ev["j"], ev["n"], ev["win"]) == \
        ("S(h,v,2)", 2, [2, 2], [0, 2])
    assert list(wf) == [fact_table(t11)[s] for s in window]
    assert [f.verdict for f in wf] == ["DualTie", "DualComp"]


def test_closed_wraparound_rotates_window_first(t11):
    A, B, D, V0, V1, F = _ids(t11)
    curve = Curve(CLOSED, (
        Snippet(A, (0, 0), (1, 0)),      # B(h,t), turn Right (the hom target)
        Snippet(V1, (1, 0), (3, 1)),     # carried
        Snippet(F, (2, 0), (1, 2), -1),  # R(h,v), turn Left
    ))
    validate_curve(curve, t11)
    window, wf, ev = hom(curve, 0, t11)
    out = _pushed(curve, window, wf, ev, t11)
    assert ev["rot"] == 2
    assert out == Curve(CLOSED, (
        Snippet(F, (2, 0), (1, 1), -1),
        Snippet(V1, (2, 0), (3, 1)),
    ))
    validate_curve(out, t11)
    assert classify(out.snippets[1], t11).type == "S(h,v,2)"


@pytest.fixture(scope="module")
def hom_cases(t11):
    A, B, D, V0, V1, F = _ids(t11)
    return [
        Curve(ARC, (Snippet(V0, (0, 0), (1, 0)), Snippet(A, (3, 0), (3, 0)),
                    Snippet(V0, (1, 0), (2, 0)))),
        Curve(ARC, (Snippet(F, (3, 2), (1, 2), 2), Snippet(A, (0, 0), (1, 0)),
                    Snippet(V1, (1, 0), (3, 1)))),
        Curve(ARC, (Snippet(F, (3, 3), (1, 3), 2), Snippet(V0, (0, 0), (3, 0)),
                    Snippet(B, (3, 0), (1, 0)))),
        Curve(ARC, (Snippet(B, (1, 0), (3, 0)), Snippet(V0, (3, 0), (3, 2)),
                    Snippet(D, (3, 0), (1, 0)))),
        Curve(ARC, (Snippet(B, (0, 0), (2, 0)), Snippet(F, (1, 0), (1, 2), 0),
                    Snippet(A, (0, 0), (2, 0)))),
        Curve(ARC, (Snippet(A, (2, 0), (0, 0)), Snippet(F, (1, 2), (0, 0), -1),
                    Snippet(V0, (3, 1), (1, 0)))),
        Curve(ARC, (Snippet(F, (3, 1), (1, 0), 2), Snippet(B, (2, 0), (3, 0)),
                    Snippet(V0, (3, 0), (1, 0)))),
    ]


def test_mirror_property(t11, hom_cases):
    """Reversing the curve, rewriting the mirrored position, and reversing
    back gives exactly the original rewrite."""
    for arc in hom_cases:
        window, wf, ev = hom(arc, 1, t11)
        out = _pushed(arc, window, wf, ev, t11)
        rarc = reverse(arc)
        rwindow, rwf, rev_ev = hom(rarc, len(arc.snippets) - 2, t11)
        rout = _pushed(rarc, rwindow, rwf, rev_ev, t11)
        assert reverse(rout) == out
        assert rev_ev["rule"] == ev["rule"]
        assert rev_ev["j"] == ev["j"]
        flip = {"Left": "Right", "Right": "Left", None: None}
        assert rev_ev["turn"] == flip[ev["turn"]]


def test_outputs_validate_and_len_delta(t11, hom_cases):
    for arc in hom_cases:
        window, wf, ev = hom(arc, 1, t11)
        out = _pushed(arc, window, wf, ev, t11)
        validate_curve(out, t11)
        assert ev["n"][1] - ev["n"][0] == ev["j"] - 2
        assert ev["n"][1] == len(out.snippets)


def test_preconditions(t11):
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (Snippet(F, (3, 2), (1, 2), 2), Snippet(A, (0, 0), (1, 0)),
                      Snippet(V1, (1, 0), (3, 1))))
    with pytest.raises(BadInput):
        hom(arc, 0, t11)  # arc endpoints are never rewritten
    with pytest.raises(BadInput):
        hom(arc, 2, t11)
    with pytest.raises(NotBad):
        hom(Curve(ARC, (Snippet(A, (3, 0), (1, 0)), Snippet(V1, (1, 0), (3, 0)),
                        Snippet(B, (1, 0), (3, 0)))), 1, t11)  # carried snippet
    with pytest.raises(ClosedSnippet):
        hom(Curve(CLOSED, (Snippet(F, None, None, 4),)), 0, t11)


@pytest.fixture(scope="module")
def named():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), closed=st.booleans(),
       seed=st.integers(0, 10**6), length=st.integers(3, 16))
def test_window_reads_only_prev_bad_next(named, name, closed, seed, length):
    """The window `hom` gives at any pushable position of a closed curve of
    3 or more snippets or of an arc is the window it gives on the arc of
    the bad snippet and its two neighbours alone, pushed at 1: the
    exhaustive oracle memoises pushes on that triple."""
    nb = named[name]
    rng = random.Random(seed)
    try:
        curve = (random_closed(nb, rng, length) if closed
                 else random_arc(nb, rng, length))
    except GenerationFailed:
        return
    snap = curve.snippets
    n = len(snap)
    assert n >= 3
    for k in range(n) if closed else range(1, n - 1):
        if not classify(snap[k], nb).bad:
            continue
        window = hom(curve, k, nb)[0]
        triple = Curve(ARC, (snap[k - 1], snap[k], snap[(k + 1) % n]))
        assert hom(triple, 1, nb)[0] == window, (k, curve)


def _raised(fn, *args):
    """The class and message of the `TrackformError` a call raises."""
    with pytest.raises(TrackformError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def _step_corpus(nb, name):
    for seed in range(12):
        rng = random.Random(f"{name}/{seed}/step")
        yield random_closed(nb, rng, rng.randrange(3, 40))
        yield random_arc(nb, rng, rng.randrange(3, 30))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_push_window_is_homs_window_step(named, name):
    """At every interior position of seeded curves of three or more
    snippets, `push_window` on the snippet and its two neighbours gives the
    window and fact records `hom` gives, and the recipe behind its record;
    where `hom` raises (a snippet not bad, a neighbour not glued to it, a
    closed snippet), the step raises the same class and message."""
    nb = named[name]
    pushed = refused = unglued = 0
    for curve in _step_corpus(nb, name):
        snap = curve.snippets
        n = len(snap)
        if n < 3:
            continue
        for k in range(n) if curve.kind == CLOSED else range(1, n - 1):
            prev, a, nxt = snap[k - 1], snap[k], snap[(k + 1) % n]
            if not classify(a, nb).bad:
                assert _raised(push_window, prev, a, nxt, nb, k) == \
                    _raised(hom, curve, k, nb)
                refused += 1
                continue
            window, wf, ev = hom(curve, k, nb)
            got, got_facts, rec = push_window(prev, a, nxt, nb, k)
            assert (got, got_facts) == (window, wf), (curve, k)
            assert (rec.cls.type, rec.cls.turn, rec.cls.j) == \
                (ev["rule"], ev["turn"], ev["j"])
            pushed += 1
            for x in snap:
                if (x.region, x.end) != (prev.region, prev.end):
                    assert _raised(push_window, x, a, nxt, nb, 1) == \
                        _raised(hom, Curve(ARC, (x, a, nxt)), 1, nb) == \
                        (AdjacencyError,
                         "previous snippet is not glued to the bad one")
                    unglued += 1
                    break
            for x in snap:
                if (x.region, x.start) != (nxt.region, nxt.start):
                    assert _raised(push_window, prev, a, x, nb, 1) == \
                        _raised(hom, Curve(ARC, (prev, a, x)), 1, nb) == \
                        (AdjacencyError,
                         "next snippet is not glued to the bad one")
                    unglued += 1
                    break
    loop = trivial_loop(nb, 0)
    c = loop.snippets[0]
    assert _raised(push_window, c, c, c, nb, 0) == _raised(hom, loop, 0, nb) \
        == (ClosedSnippet, "cannot rewrite a closed snippet")
    assert pushed > 50 and refused > 50 and unglued > 50, \
        (pushed, refused, unglued)


def _reference_two(prev, a, k, nb):
    """`hom` on the two-snippet closed curve (prev, a), worked out as it
    was before its window came from `push_window`: one survivor with both
    of `prev`'s endpoints slid and both winding changes added where
    windings count (or, j = 0, the closed snippet of `prev`'s winding),
    then the in-between snippets, rotated so they stand at position k."""
    if a.closed:
        raise ClosedSnippet("cannot rewrite a closed snippet")
    cls = classify(a, nb)
    if not cls.bad:
        raise NotBad(f"snippet at {k} is {cls.verdict}, not bad")
    rec = _push_recipe_uncached(a, nb, cls)
    if (prev.region, prev.end) != rec.before:
        raise AdjacencyError("previous snippet is not glued to the bad one")
    if (prev.region, prev.start) != rec.after:
        raise AdjacencyError("next snippet is not glued to the bad one")
    j = cls.j
    if j == 0:
        merged = Snippet(prev.region, None, None, prev.wind)
        return ((merged,), (classify(merged, nb),),
                Hom(k, 0, cls.type, cls.turn, 0, [2, 1], [0, 1]))
    counts = (nb.regions[prev.region].kind == ANNULUS
              and nb.partner(prev.region, prev.start) is not None
              and nb.partner(prev.region, prev.end) is not None)
    wind = prev.wind + (rec.d_end + rec.d_start if counts else 0)
    slid = Snippet(prev.region, rec.new_start, rec.new_end, wind)
    window, wf = (slid, *rec.inners), (classify(slid, nb), *rec.inner_facts)
    r0 = (k - 1) % j
    if r0:
        window, wf = window[-r0:] + window[:-r0], wf[-r0:] + wf[:-r0]
    return window, wf, Hom(k, 0, cls.type, cls.turn, j, [2, j], [0, j])


# pushes of bad snippets, and positions refused, per fixture
_TWO_PUSHES = {"t11": (248, 304), "t11d": (292, 156), "s04": (528, 384),
               "s12": (376, 344)}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_push_two_keeps_the_two_snippet_arithmetic(name):
    """At both positions of every valid two-snippet closed curve with
    windings -8..8, `hom` (through `push_two`: `push_window` with `prev` as
    both neighbours, then the seam) gives the window, fact records and
    `Hom` record of the former direct arithmetic, or raises the same
    error."""
    nb = load_fixture(name)
    counts = [0, 0]
    for curve in two_snippet_curves(nb, range(-8, 9)):
        for k in (0, 1):
            prev, a = curve.snippets[k - 1], curve.snippets[k]
            want = _raised_or(_reference_two, prev, a, k, nb)
            assert _raised_or(hom, curve, k, nb) == want, (curve, k)
            counts[isinstance(want[0], type)] += 1
    assert tuple(counts) == _TWO_PUSHES[name]


def _raised_or(fn, *args):
    """What the call returns, or the class and message of the
    `TrackformError` it raises."""
    try:
        return fn(*args)
    except TrackformError as exc:
        return type(exc), str(exc)


def test_merge_with_an_unknown_locus_is_a_structured_error(t11):
    """`hom` reads only three snippets of a curve it is handed unchecked:
    a merge that composes a winding onto an unknown locus raises
    `InconsistentSnippet` naming it, as any unchecked snippet does."""
    A, B, D, V0, V1, F = _ids(t11)
    arc = Curve(ARC, (Snippet(F, (9, 9), (1, 3), 0),
                      Snippet(V0, (0, 0), (0, 0), 0),
                      Snippet(F, (1, 3), (3, 4), 6)))
    assert _raised(hom, arc, 1, t11) == \
        (InconsistentSnippet, "no locus (9, 9) in region face:0")
