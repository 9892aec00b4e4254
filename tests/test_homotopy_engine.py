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

import pytest

from trackform.curve_ops import ARC, CLOSED, Curve, reverse, validate_curve
from trackform.errors import BadInput, ClosedSnippet, NotBad
from trackform.fixtures import load_fixture
from trackform.homotopy_engine import TRIGON_GRAPH, hom, splice
from trackform.snippet_core import Snippet, classify


@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(arc, 1, t11)
    out = splice(arc, window, ev)
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
    window, ev = hom(curve, 0, t11)
    out = splice(curve, window, ev)
    assert out == Curve(CLOSED, (Snippet(V0, None, None, 0),))
    assert (ev["j"], ev["n"][1]) == (0, 1)
    assert classify(out.snippets[0], t11).type == "Trivial"


def test_closed_wraparound_rotates_window_first(t11):
    A, B, D, V0, V1, F = _ids(t11)
    curve = Curve(CLOSED, (
        Snippet(A, (0, 0), (1, 0)),      # B(h,t), turn Right (the hom target)
        Snippet(V1, (1, 0), (3, 1)),     # carried
        Snippet(F, (2, 0), (1, 2), -1),  # R(h,v), turn Left
    ))
    validate_curve(curve, t11)
    window, ev = hom(curve, 0, t11)
    out = splice(curve, window, ev)
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
        window, ev = hom(arc, 1, t11)
        out = splice(arc, window, ev)
        rarc = reverse(arc)
        rwindow, rev_ev = hom(rarc, len(arc.snippets) - 2, t11)
        rout = splice(rarc, rwindow, rev_ev)
        assert reverse(rout) == out
        assert rev_ev["rule"] == ev["rule"]
        assert rev_ev["j"] == ev["j"]
        flip = {"Left": "Right", "Right": "Left", None: None}
        assert rev_ev["turn"] == flip[ev["turn"]]


def test_outputs_validate_and_len_delta(t11, hom_cases):
    for arc in hom_cases:
        window, ev = hom(arc, 1, t11)
        out = splice(arc, window, ev)
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
