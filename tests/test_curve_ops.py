"""Curve operation oracles on hand-assembled t11 curves.

The closed test curve follows branch a to switch v1, back along branch b to
switch v0, and through the large end to branch a again: four carried
snippets.  The blocker arc is [vertical dual (Right), branch tie, vertical
dual (Right)] through the annulus face and branch a, with all gluings
written out by hand from the face word.
"""
from __future__ import annotations

import pytest

from trackform.curve_ops import (
    ARC,
    CLOSED,
    Curve,
    is_blocker,
    measure,
    reverse,
    seam,
    validate_curve,
)
from trackform.errors import AdjacencyError, BadInput, NotGluable
from trackform.snippet_core import Snippet, classify


@pytest.fixture(scope="module")
def blocker_arc(t11):
    r = t11.region_id
    return Curve(ARC, (
        Snippet(r["face:0"], (3, 1), (1, 2), 2),
        Snippet(r["br:a"], (0, 0), (2, 0)),
        Snippet(r["face:0"], (3, 2), (1, 0), 2),
    ))


def test_validation(t11, carried_loop, blocker_arc):
    validate_curve(carried_loop, t11)
    validate_curve(blocker_arc, t11)
    # broken junction
    broken = Curve(CLOSED, carried_loop.snippets[:2] + carried_loop.snippets[1:2]
                   + carried_loop.snippets[3:])
    with pytest.raises(AdjacencyError):
        validate_curve(broken, t11)
    # closed-type snippet inside a longer curve
    with pytest.raises(BadInput):
        validate_curve(Curve(CLOSED, (Snippet(t11.region_id["face:0"], None, None, 4),
                                      carried_loop.snippets[0])), t11)
    # a single closed snippet is a legal closed curve
    validate_curve(Curve(CLOSED, (Snippet(t11.region_id["face:0"], None, None, 4),)), t11)
    with pytest.raises(BadInput):
        validate_curve(Curve(ARC, (Snippet(t11.region_id["face:0"], None, None, 4),)), t11)
    # an arc does not close up: last-to-first junction not required
    validate_curve(Curve(ARC, carried_loop.snippets[:2]), t11)


def test_measure_carried_loop(t11, carried_loop):
    m = measure(carried_loop, t11)
    assert (m.len, m.len_corn, m.len_block, m.len_red) == (4, 8, 0, 8)
    assert (m.carr, m.dual_R, m.dual_L, m.bad_count) == (4, 0, 0, 0)
    assert m.len <= m.len_corn + m.bad_count <= 2 * t11.s_N * m.len + m.bad_count


def test_measure_blocker_arc(t11, blocker_arc):
    m = measure(blocker_arc, t11)
    assert (m.len, m.len_corn, m.len_block, m.len_red) == (3, 16, 1, 14)
    assert (m.carr, m.dual_R, m.dual_L, m.bad_count) == (0, 2, 0, 0)
    assert is_blocker(blocker_arc, t11, 0)
    assert m.len_corn >= 7  # a blocker alone already carries corner length 7


def test_measure_bad_closed(t11):
    r = t11.region_id
    # replace the carried branch-a snippet by a bigon-bearing detour is
    # overkill here; a one-snippet closed peripheral curve exercises the
    # closed rules instead
    c = Curve(CLOSED, (Snippet(r["face:0"], None, None, 4),))
    m = measure(c, t11)
    assert (m.len, m.len_corn, m.bad_count) == (1, 2 * t11.s_N, 1)
    assert (m.carr, m.dual_R, m.dual_L, m.len_block) == (0, 0, 0, 0)


def test_concat_reverse_glue(t11, carried_loop):
    c = carried_loop
    whole = Curve(ARC, c.snippets)
    validate_curve(whole, t11)
    # reverse is an involution and reverses order
    r = reverse(whole)
    validate_curve(r, t11)
    assert reverse(r) == whole
    assert r.snippets[0].start == whole.snippets[-1].end
    rc = reverse(c)
    validate_curve(rc, t11)
    assert reverse(rc) == c
    # seam gluing joins the two copies of the first snippet into one again
    opened = c.snippets + c.snippets[:1]
    glued, rec = seam(opened, opened[0].wind, t11)
    assert (glued, *opened[1:-1]) == c.snippets
    assert rec is classify(glued, t11)
    with pytest.raises(NotGluable):
        seam(c.snippets, 0, t11)  # its ends lie in different regions


def test_measure_additivity(t11, carried_loop):
    c = carried_loop
    left, right = Curve(ARC, c.snippets[:2]), Curve(ARC, c.snippets[2:])
    ml, mr, mw = (measure(left, t11), measure(right, t11),
                  measure(Curve(ARC, c.snippets), t11))
    assert mw.len == ml.len + mr.len
    assert mw.len_corn == ml.len_corn + mr.len_corn
