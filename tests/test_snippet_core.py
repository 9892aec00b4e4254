"""Classification oracles: the complete endpoint-pair tables for rectangle
snippets and hand-walked complementary cases on the bundled tracks.

Every expected value below was computed by hand from the region boundary
walks before the classifier existed: the cut-off piece of a rectangle or disc
region is the boundary walk with at most one corner (positive index
1 - (2 + corners)/4), a two-corner walk cuts an index-zero strip (dual), and
annulus regions dispatch on the winding number instead.
"""
from __future__ import annotations

import pytest

from trackform.errors import InconsistentSnippet
from trackform.fixtures import load_fixture
from trackform.snippet_core import (
    BAD,
    CARRIED,
    DUAL_COMP,
    DUAL_TIE,
    LEFT,
    RIGHT,
    Snippet,
    classify,
    corner_length,
    reverse_snippet,
    validate_snippet,
)


@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


@pytest.fixture(scope="module")
def t11d():
    return load_fixture("t11d")


# --- branch rectangle: all 16 ordered endpoint pairs -----------------------

BR = {
    # ((start), (end)): (verdict, type, turn, j)
    ((1, 0), (3, 0)): (CARRIED, None, None, None),
    ((3, 0), (1, 0)): (CARRIED, None, None, None),
    ((0, 0), (2, 0)): (DUAL_TIE, None, None, None),
    ((2, 0), (0, 0)): (DUAL_TIE, None, None, None),
    ((0, 0), (0, 0)): (BAD, "B(h,h)", None, 0),
    ((2, 0), (2, 0)): (BAD, "B(h,h)", None, 0),
    ((1, 0), (1, 0)): (BAD, "B(t,t)", None, 0),
    ((3, 0), (3, 0)): (BAD, "B(t,t)", None, 0),
    ((0, 0), (1, 0)): (BAD, "B(h,t)", RIGHT, 1),
    ((1, 0), (0, 0)): (BAD, "B(h,t)", LEFT, 1),
    ((1, 0), (2, 0)): (BAD, "B(h,t)", RIGHT, 1),
    ((2, 0), (1, 0)): (BAD, "B(h,t)", LEFT, 1),
    ((2, 0), (3, 0)): (BAD, "B(h,t)", RIGHT, 1),
    ((3, 0), (2, 0)): (BAD, "B(h,t)", LEFT, 1),
    ((3, 0), (0, 0)): (BAD, "B(h,t)", RIGHT, 1),
    ((0, 0), (3, 0)): (BAD, "B(h,t)", LEFT, 1),
}

# --- switch rectangle: all 36 ordered endpoint pairs -----------------------

SW_LOCI = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]


def _sym(table):
    """Expand unordered entries (a, b): (v, t, turn_ab, j) into both orders,
    flipping the turn."""
    out = {}
    for (a, b), (v, t, turn, j) in table.items():
        out[(a, b)] = (v, t, turn, j)
        if a != b:
            flip = {RIGHT: LEFT, LEFT: RIGHT, None: None}[turn]
            out[(b, a)] = (v, t, flip, j)
    return out


SW = _sym({
    ((1, 0), (3, 0)): (CARRIED, None, None, None),
    ((1, 0), (3, 1)): (CARRIED, None, None, None),
    ((1, 0), (3, 2)): (CARRIED, None, None, None),
    ((0, 0), (2, 0)): (DUAL_TIE, None, None, None),
    ((0, 0), (0, 0)): (BAD, "S(h,h,0)", None, 0),
    ((2, 0), (2, 0)): (BAD, "S(h,h,0)", None, 0),
    ((1, 0), (1, 0)): (BAD, "S(t,t,0)", None, 0),
    ((3, 0), (3, 0)): (BAD, "S(t,t,0)", None, 0),
    ((3, 2), (3, 2)): (BAD, "S(t,t,0)", None, 0),
    ((3, 1), (3, 1)): (BAD, "S(v,v,0)", None, 0),
    ((3, 0), (3, 1)): (BAD, "S(t,v,1)", RIGHT, 1),
    ((3, 1), (3, 2)): (BAD, "S(t,v,1)", RIGHT, 1),
    ((3, 0), (3, 2)): (BAD, "S(t,t,2)", RIGHT, 2),
    ((0, 0), (1, 0)): (BAD, "S(h,t,1)", RIGHT, 1),
    ((1, 0), (2, 0)): (BAD, "S(h,t,1)", RIGHT, 1),
    ((3, 2), (0, 0)): (BAD, "S(h,t,1)", RIGHT, 1),
    ((2, 0), (3, 0)): (BAD, "S(h,t,1)", RIGHT, 1),
    ((3, 1), (0, 0)): (BAD, "S(h,v,2)", RIGHT, 2),
    ((2, 0), (3, 1)): (BAD, "S(h,v,2)", RIGHT, 2),
    ((3, 0), (0, 0)): (BAD, "S(h,t,3)", RIGHT, 3),
    ((2, 0), (3, 2)): (BAD, "S(h,t,3)", RIGHT, 3),
})


def test_switch_table_is_total():
    assert set(SW) == {(a, b) for a in SW_LOCI for b in SW_LOCI}


@pytest.mark.parametrize("table,rname", [(BR, "br:a"), (SW, "sw:v0")])
def test_rectangle_tables(t11, table, rname):
    ri = t11.region_id[rname]
    for (a, b), (verdict, typ, turn, j) in table.items():
        got = classify(Snippet(ri, a, b), t11)
        assert (got.verdict, got.type, got.turn, got.j) == (verdict, typ, turn, j), \
            f"{rname} {a}->{b}"


def test_rectangle_closed_and_lengths(t11):
    br, sw = t11.region_id["br:a"], t11.region_id["sw:v1"]
    c = classify(Snippet(br, None, None), t11)
    assert (c.verdict, c.type, c.turn) == (BAD, "Trivial", None)
    c = classify(Snippet(sw, None, None), t11)
    assert (c.verdict, c.type) == (BAD, "Trivial")
    # corner length of any tie-rectangle snippet depends only on the kind
    for a, b in [((0, 0), (2, 0)), ((1, 0), (3, 0)), ((0, 0), (0, 0))]:
        assert corner_length(Snippet(br, a, b), t11) == 1
    for a, b in [((0, 0), (2, 0)), ((1, 0), (3, 1)), ((3, 0), (3, 2))]:
        assert corner_length(Snippet(sw, a, b), t11) == 3
    assert corner_length(Snippet(br, None, None), t11) == 0
    assert corner_length(Snippet(sw, None, None), t11) == 0


# --- t11 annulus face: winding-driven classification -----------------------
# face:0 polygon (CCW): side0 = cusp v0.c, side1 = [b.l v1.t a.r v0.b d.l],
# side2 = cusp v1.c, side3 = [b.r v0.t a.l v1.b d.r]; side4 = surface
# boundary.  Four corners, so closed windings are multiples of 4.


def test_annulus_arcs(t11):
    f = t11.region_id["face:0"]
    # narrow bigon against a horizontal edge
    c = classify(Snippet(f, (1, 0), (1, 0), 0), t11)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,h)", None, 0)
    # wide bigon across two marks; cut piece to the right
    c = classify(Snippet(f, (1, 0), (1, 2), 0), t11)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,h)", RIGHT, 2)
    assert corner_length(Snippet(f, (1, 0), (1, 2), 0), t11) == 3
    # bigon against the cusp side
    c = classify(Snippet(f, (0, 0), (0, 0), 0), t11)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(v,v)", None, 0)
    # trigon: same loci admit wind -1 (trigon to the left) or +3 (efficient)
    c = classify(Snippet(f, (1, 0), (0, 0), -1), t11)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,v)", LEFT, 1)
    c = classify(Snippet(f, (1, 0), (0, 0), 3), t11)
    assert (c.verdict, c.type, c.turn) == (DUAL_COMP, None, None)
    assert not (c.vertical_dual or c.horizontal_dual)
    with pytest.raises(InconsistentSnippet):
        classify(Snippet(f, (1, 0), (0, 0), 1), t11)  # 1 not in {3+4d} u {-(1+4d)}
    # passing through with |wind| = 2: a vertical dual
    c = classify(Snippet(f, (1, 0), (3, 0), 2), t11)
    assert (c.verdict, c.turn, c.vertical_dual, c.horizontal_dual) == (
        DUAL_COMP, RIGHT, True, False)
    assert corner_length(Snippet(f, (1, 0), (3, 0), 2), t11) == 3 + 1 + 3 + 1 + 1
    # cusp-to-cusp with |wind| = 2: a horizontal dual parallel to a run
    c = classify(Snippet(f, (0, 0), (2, 0), 2), t11)
    assert (c.verdict, c.turn, c.vertical_dual, c.horizontal_dual) == (
        DUAL_COMP, RIGHT, False, True)
    assert corner_length(Snippet(f, (0, 0), (2, 0), 2), t11) == 9  # s(C)
    c = classify(Snippet(f, (0, 0), (2, 0), -2), t11)
    assert (c.turn, c.horizontal_dual) == (LEFT, True)


def test_annulus_boundary_and_closed(t11):
    f = t11.region_id["face:0"]
    twosn = 2 * t11.s_N
    # both endpoints on the surface boundary: the inessential bigon
    c = classify(Snippet(f, (4, 0), (4, 0), 0), t11)
    assert (c.verdict, c.type, c.turn) == (BAD, "R(∂S,∂S)", None)
    assert corner_length(Snippet(f, (4, 0), (4, 0), 0), t11) == 0
    # exactly one endpoint on the surface boundary: efficient
    c = classify(Snippet(f, (4, 0), (1, 2), 0), t11)
    assert (c.verdict, c.type, c.turn) == (DUAL_COMP, None, None)
    assert corner_length(Snippet(f, (4, 0), (1, 2), 0), t11) == twosn
    with pytest.raises(InconsistentSnippet):
        classify(Snippet(f, (4, 0), (1, 2), 1), t11)  # boundary endpoint forces 0
    # closed snippets: contractible, or a power of the boundary (wind 4k)
    c = classify(Snippet(f, None, None, 0), t11)
    assert (c.verdict, c.type) == (BAD, "R-trivial")
    assert corner_length(Snippet(f, None, None, 0), t11) == 0
    for k in (1, 2, 3, -1):
        c = classify(Snippet(f, None, None, 4 * k), t11)
        assert (c.verdict, c.type) == (BAD, "PeripheralCurve")
    assert corner_length(Snippet(f, None, None, 4), t11) == twosn
    with pytest.raises(InconsistentSnippet):
        classify(Snippet(f, None, None, 2), t11)
    # pass-through with |wind| >= 3 has no dual flavour and no turn
    assert corner_length(Snippet(f, (1, 0), (0, 0), 3), t11) == twosn


def test_disc_face_cases(t11d):
    f = t11d.region_id["face:0"]  # disc: sides V,H(3),V,H(1),V,H(9)
    # closed in a disc region is contractible
    c = classify(Snippet(f, None, None), t11d)
    assert (c.verdict, c.type) == (BAD, "R-trivial")
    # narrow and wide horizontal bigons
    c = classify(Snippet(f, (5, 0), (5, 0)), t11d)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,h)", None, 0)
    c = classify(Snippet(f, (5, 0), (5, 3)), t11d)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,h)", RIGHT, 3)
    assert corner_length(Snippet(f, (5, 0), (5, 3)), t11d) == 3 + 1
    # vertical bigon against a cusp side
    c = classify(Snippet(f, (0, 0), (0, 0)), t11d)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(v,v)", None, 0)
    # adjacent trigon and a wide trigon under a long run
    c = classify(Snippet(f, (1, 0), (0, 0)), t11d)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,v)", LEFT, 1)
    assert corner_length(Snippet(f, (1, 0), (0, 0)), t11d) == 0
    c = classify(Snippet(f, (0, 0), (5, 4)), t11d)
    assert (c.verdict, c.type, c.turn, c.j) == (BAD, "R(h,v)", LEFT, 5)
    assert corner_length(Snippet(f, (0, 0), (5, 4)), t11d) == 3 + 1 + 3 + 1
    # horizontal dual parallel to the short run: corner length s(C) = 5
    c = classify(Snippet(f, (0, 0), (2, 0)), t11d)
    assert (c.verdict, c.turn, c.horizontal_dual, c.vertical_dual) == (
        DUAL_COMP, RIGHT, True, False)
    assert corner_length(Snippet(f, (0, 0), (2, 0)), t11d) == 5
    # vertical dual under the long side
    c = classify(Snippet(f, (1, 0), (5, 0)), t11d)
    assert (c.verdict, c.turn, c.vertical_dual) == (DUAL_COMP, LEFT, True)
    assert corner_length(Snippet(f, (1, 0), (5, 0)), t11d) == 17
    # cusp to the short run's far side: both walks pass three corners, so the
    # snippet is efficient with no index-zero piece on either side
    c = classify(Snippet(f, (0, 0), (3, 0)), t11d)
    assert (c.verdict, c.turn, c.vertical_dual, c.horizontal_dual) == (
        DUAL_COMP, None, False, False)
    assert corner_length(Snippet(f, (0, 0), (3, 0)), t11d) == 2 * t11d.s_N


def test_reverse_mirrors_classification(t11, t11d):
    cases = []
    for (a, b) in BR:
        cases.append((t11, Snippet(t11.region_id["br:a"], a, b, 0)))
    for (a, b) in SW:
        cases.append((t11, Snippet(t11.region_id["sw:v0"], a, b, 0)))
    f = t11.region_id["face:0"]
    for s in [Snippet(f, (1, 0), (1, 2), 0), Snippet(f, (1, 0), (0, 0), -1),
              Snippet(f, (1, 0), (3, 0), 2), Snippet(f, (0, 0), (2, 0), 2),
              Snippet(f, (1, 0), (0, 0), 3), Snippet(f, None, None, 4)]:
        cases.append((t11, s))
    fd = t11d.region_id["face:0"]
    for s in [Snippet(fd, (0, 0), (5, 4), 0), Snippet(fd, (0, 0), (2, 0), 0)]:
        cases.append((t11d, s))
    flip = {RIGHT: LEFT, LEFT: RIGHT, None: None}
    for nb, s in cases:
        c, cr = classify(s, nb), classify(reverse_snippet(s), nb)
        assert cr.verdict == c.verdict and cr.type == c.type
        assert cr.turn == flip[c.turn]
        assert cr.j == c.j
        assert (cr.vertical_dual, cr.horizontal_dual) == (c.vertical_dual, c.horizontal_dual)
        assert corner_length(reverse_snippet(s), nb) == corner_length(s, nb)


def test_validation_errors(t11):
    br, f = t11.region_id["br:a"], t11.region_id["face:0"]
    with pytest.raises(InconsistentSnippet):
        validate_snippet(Snippet(br, (0, 0), None), t11)  # half-closed
    with pytest.raises(InconsistentSnippet):
        validate_snippet(Snippet(br, (0, 0), (2, 0), 1), t11)  # wind outside annulus
    with pytest.raises(InconsistentSnippet):
        validate_snippet(Snippet(br, (4, 0), (0, 0)), t11)  # no such side
    with pytest.raises(InconsistentSnippet):
        validate_snippet(Snippet(f, (1, 5), (1, 0), 0), t11)  # no such segment
    with pytest.raises(InconsistentSnippet):
        validate_snippet(Snippet(99, (0, 0), (0, 0)), t11)
