"""Arcs with an endpoint on the surface boundary: known answers and a
bounded-exhaustive sweep.

The paper pushes properly immersed arcs, whose endpoints lie on ∂S.  An
interior endpoint stays fixed under a push; a boundary endpoint slides
along its boundary component, so a snippet with a boundary endpoint has
winding 0, and a push that merges a snippet onto ∂S drops the winding
the merge would compose.  Each input below goes through a run, an audit
of its trace, `check_efficient` where the run ends `Efficient`, and the
exhaustive oracle, which must be conclusive and agree.
"""
from __future__ import annotations

import random

import pytest

from trackform.curve_ops import ARC, Curve
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.generate import random_arc
from trackform.pipelines import (EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position, terminal_summary)
from trackform.snippet_core import Snippet, valid_winds
from trackform.verification import (audit_trace, check_efficient,
                                    exhaustive_oracle, oracle_agrees)


def _checked(curve: Curve, nb):
    """Run the curve, audit its trace, check an `Efficient` result and ask
    the oracle; return the run's result."""
    res = efficient_position(curve, nb)
    audit_trace(res.events, curve, res.curve, nb)
    if res.status == EFFICIENT:
        assert check_efficient(res.curve, nb).ok, curve
    verdict = exhaustive_oracle(curve, nb)
    assert verdict.conclusive, curve
    assert oracle_agrees(verdict, res.status), (curve, verdict, res.status)
    return res


def _seed4_arc(nb) -> Curve:
    """`random_arc(t11, Random(4), 5, proper=True)`: from the boundary of
    face:0, a bounce off sw:v0, a full turn (winding 6) round face:0, a
    bounce off br:d, and back to the boundary."""
    r = nb.region_id
    face, v0, d = r["face:0"], r["sw:v0"], r["br:d"]
    return Curve(ARC, (
        Snippet(face, (4, 0), (1, 3), 0),
        Snippet(v0, (0, 0), (0, 0), 0),
        Snippet(face, (1, 3), (3, 4), 6),
        Snippet(d, (0, 0), (0, 0), 0),
        Snippet(face, (3, 4), (4, 0), 0),
    ))


def test_seed4_proper_arc_contracts_into_its_face(t11):
    """Both bounces are pushed away; the two merges onto ∂S drop the
    turn round face:0, and the arc ends as one boundary-to-boundary
    snippet, read off as inessential."""
    arc = _seed4_arc(t11)
    assert random_arc(t11, random.Random(4), 5, proper=True) == arc
    res = _checked(arc, t11)
    face = t11.region_id["face:0"]
    assert res.status == SINGLE_SNIPPET
    assert res.curve.snippets == (Snippet(face, (4, 0), (4, 0), 0),)
    assert terminal_summary(res, t11)["class"] == "inessential"


# The smallest one-ended three-snippet arc on each fixture whose push
# merged a winding onto ∂S: least total |winding|, then first in the
# sweep's order.  A face snippet turning once from a cusp, a bounce off a
# branch rectangle, and a face snippet out to the boundary.
_SMALLEST = {
    "t11": ("face:0", (0, 0), (1, 0), "br:b", (2, 0), (4, 0)),
    "t11d": ("face:1", (0, 0), (1, 0), "br:e12", (0, 0), (2, 0)),
    "s04": ("face:0", (0, 0), (1, 0), "br:e02", (2, 0), (2, 0)),
    "s12": ("face:0", (0, 0), (1, 0), "br:b", (2, 0), (4, 0)),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_smallest_one_ended_arc_merges_onto_the_boundary(name):
    nb = load_fixture(name)
    face_name, a, b, rect_name, bounce, out = _SMALLEST[name]
    face, rect = nb.region_id[face_name], nb.region_id[rect_name]
    arc = Curve(ARC, (Snippet(face, a, b, 1),
                      Snippet(rect, bounce, bounce, 0),
                      Snippet(face, b, out, 0)))
    assert nb.partner(face, out) is None
    res = _checked(arc, nb)
    # the bounce merges the two face snippets into one from the fixed end
    # to the boundary end, winding 0: a dual strip, so efficient
    assert res.status == EFFICIENT
    assert res.curve.snippets == (Snippet(face, a, out, 0),)


# -- every three-snippet arc with an endpoint on ∂S ---------------------------


def _winds(nb, region, start, end) -> list[int]:
    """Every winding of the snippet with at most one extra whole turn."""
    fams = valid_winds(Snippet(region, start, end, 0), nb)
    if fams is None:
        return [0]
    m_r, m_l, n2 = fams
    if start == end:
        return [-n2, 0, n2]
    return [m_r, m_r + n2, -m_l, -m_l - n2]


def _boundary_arcs(nb, n: int):
    """Every valid arc of n snippets with at least one endpoint on ∂S and
    windings of at most one extra turn, in a fixed order: by start region
    and locus, then by each snippet's end locus and winding."""
    def loci(region):
        return [(si, gi) for si, side in enumerate(nb.regions[region].sides)
                for gi in range(side.n_segments)]

    def walk(prefix, region, start, anchored):
        last = len(prefix) == n - 1
        ends = ([l for l in loci(region)
                 if anchored or nb.partner(region, l) is None]
                if last else nb.polygon_loci(region))
        for end in ends:
            for w in _winds(nb, region, start, end):
                s = Snippet(region, start, end, w)
                if last:
                    yield Curve(ARC, (*prefix, s))
                else:
                    yield from walk((*prefix, s), *nb.partner(region, end),
                                    anchored)

    for region in range(len(nb.regions)):
        for start in loci(region):
            yield from walk((), region, start,
                            nb.partner(region, start) is None)


# one-ended and two-ended arcs per fixture
_SWEEP_COUNTS = {"t11": (3108, 30), "t11d": (1072, 8), "s04": (3336, 60),
                 "s12": (6216, 60)}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_three_snippet_boundary_arc(name):
    """Every three-snippet arc with an endpoint on ∂S runs, audits clean,
    passes `check_efficient` when it ends `Efficient`, and agrees with a
    conclusive oracle."""
    nb = load_fixture(name)
    ends = [0, 0]
    for arc in _boundary_arcs(nb, 3):
        first, last = arc.snippets[0], arc.snippets[-1]
        two = (nb.partner(first.region, first.start) is None
               and nb.partner(last.region, last.end) is None)
        ends[two] += 1
        _checked(arc, nb)
    assert tuple(ends) == _SWEEP_COUNTS[name]
