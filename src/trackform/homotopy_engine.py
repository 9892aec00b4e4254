"""The elementary homotopy: push one bad snippet across the track.

A bad snippet cuts a piece of positive index off its region, bounded on the
far side by a boundary walk passing j tiling points (j = the snippet's weight:
corners plus marks of that walk).  Pushing the curve across the piece removes
the bad snippet and threads the curve along the far side of the walk instead:

* j = 0 (narrow): the two neighbours lie against the same tiling edge and
  merge into one snippet; the curve shortens by two.
* j >= 1: at each of the j tiling points three edges meet; the pushed curve
  crosses the one edge not on the region's boundary.  The neighbour before
  the bad snippet slides its endpoint to the first such crossing, the
  neighbour after slides to the last, and j - 1 new snippets are threaded
  between consecutive crossings; the curve grows by j - 2.

Winding numbers change only when a slid endpoint crosses a region corner:
sliding an end counter-clockwise adds one, clockwise subtracts one, and for a
start endpoint the signs flip.

Most of a push depends on the bad snippet alone: its cut-off walk and j,
both slide targets with their corner flags, the j - 1 in-between snippets
with their fact records, and the chain of crossed edges.  That part is a
`PushRecipe`, worked out once per distinct bad snippet per neighbourhood
and filed beside its fact record.  The checks on it run once, when it is
filed: j against the rule, each in-between snippet valid and not bad, and
the two sides of each crossed edge gluing partners.  A recipe is filed only
for an open bad snippet, so a push whose snippet has one is one lookup;
only a snippet without one is checked for being open and bad.  Each `hom`
call does only what depends on the neighbours, and checks them every time:
the previous snippet must end and the next must start on the partners of
the bad snippet's endpoints, a slid endpoint's winding moves only where
windings count (`_wind_ok`), and both slid snippets are validated, which
looks up (or files) their fact records.  `hom` returns the replacement
window, not the curve, with the window's fact records and the push's own
trace/1 fields: a run or an audit splices the window and its records into
its working curve, so a push costs its window whatever the curve's length.
"""
from __future__ import annotations

from typing import NamedTuple

from .curve_ops import ARC, CLOSED, Curve
from .errors import BadInput, ClosedSnippet, NotBad
from .formats import Hom
from .snippet_core import (RIGHT, Snippet, SnippetClass, SnippetFacts,
                           classify, facts)
from .track_model import ANNULUS, BOUNDARY, Locus, TieNeighbourhood

# Weight of the cut-off walk for each rectangle bad type; complementary-region
# types R(h,h) and R(h,v) have track-dependent weights (marks under a run).
EXPECTED_J: dict[str, set[int]] = {
    "B(h,h)": {0}, "B(t,t)": {0}, "S(h,h,0)": {0}, "S(t,t,0)": {0},
    "S(v,v,0)": {0}, "B(h,t)": {1}, "S(h,t,1)": {1}, "S(t,v,1)": {1},
    "S(h,v,2)": {2}, "S(t,t,2)": {2}, "S(h,t,3)": {3}, "R(v,v)": {0},
}

# When every other snippet is efficient, pushing a bad trigon either reaches
# an efficient curve or hands the trigon to a neighbour; only these handoffs
# can occur.
TRIGON_GRAPH: dict[str, frozenset[str]] = {
    "B(h,t)": frozenset({"S(h,t,1)", "S(h,t,3)", "S(h,v,2)", "R(h,v)"}),
    "S(h,t,1)": frozenset({"B(h,t)"}),
    "S(h,t,3)": frozenset({"B(h,t)"}),
    "S(h,v,2)": frozenset({"R(h,v)"}),
    "R(h,v)": frozenset({"B(h,t)", "S(h,t,1)", "S(h,t,3)"}),
}


def _slide_target(nb: TieNeighbourhood, region: int, locus: Locus,
                  at_ccw_start: bool) -> tuple[Locus, bool, bool]:
    """Slide an endpoint off `locus` through the tiling point at its CCW start
    (or end), onto the adjacent locus across that wedge.

    Returns (new locus, slid counter-clockwise?, crossed a region corner?).
    """
    ci, pos = nb.locus_cycle(region, locus)
    loci = nb.cycle_loci(region, ci)
    n = len(loci)
    if at_ccw_start:
        gap = (pos - 1) % n
        return loci[gap], False, nb.gap_is_corner(region, ci, gap)
    return loci[(pos + 1) % n], True, nb.gap_is_corner(region, ci, pos)


def _wind_ok(nb: TieNeighbourhood, region: int, s: Snippet) -> bool:
    """Does the snippet live where winding numbers are meaningful?"""
    if nb.regions[region].kind != ANNULUS:
        return False
    return not any(
        nb.side_label(region, l) == BOUNDARY for l in (s.start, s.end))


def _hug_wind(nb: TieNeighbourhood, region: int, start: Locus, end: Locus,
              crossed: Locus, dir_right: bool) -> int:
    """Winding of an in-between snippet threaded through an annulus: it hugs
    the crossed edge's locus, on the left of a right-turning push."""
    if nb.regions[region].kind != ANNULUS:
        return 0
    if dir_right:
        hug = nb.walk_ccw(region, end, start)
        sign = -1
    else:
        hug = nb.walk_ccw(region, start, end)
        sign = 1
    assert hug.between == (crossed,), "in-between snippet does not hug its edge"
    return sign * hug.corners


class PushRecipe(NamedTuple):
    """The part of a push fixed by the bad snippet alone."""
    cls: SnippetClass
    j: int
    # the (region, locus) the previous snippet must end on and the next
    # snippet must start on: the partners of the bad snippet's endpoints
    before: tuple[int, Locus]
    after: tuple[int, Locus]
    # j >= 1: where the previous snippet's end slides to, with the winding
    # change that slide makes where windings count; likewise the next
    # snippet's start
    new_end: Locus | None
    d_end: int
    new_start: Locus | None
    d_start: int
    inners: tuple[Snippet, ...]  # the j - 1 in-between snippets
    inner_facts: tuple[SnippetFacts, ...]  # and their fact records


def push_recipe(a: Snippet, nb: TieNeighbourhood) -> PushRecipe:
    """The recipe for pushing the bad snippet `a`, worked out and filed on
    the first push of `a` in this neighbourhood."""
    rec = nb._push_recipes.get(a)
    if rec is None:
        rec = nb._push_recipes[a] = _push_recipe_uncached(a, nb)
    return rec


def _push_recipe_uncached(a: Snippet, nb: TieNeighbourhood) -> PushRecipe:
    cls = classify(a, nb)
    assert cls.bad and not a.closed, "recipes are for open bad snippets"
    j = cls.j
    if cls.type in EXPECTED_J:
        assert j in EXPECTED_J[cls.type], (cls.type, j)

    before = nb.partner(a.region, a.start)
    if j == 0:
        return PushRecipe(cls, 0, before, before, None, 0, None, 0, (), ())
    # the cut-off walk passes j gaps counter-clockwise from the start
    # (Right) or from the end (Left); its j - 1 inner loci, in the order
    # the push crosses them
    dir_right = cls.turn == RIGHT
    ci, p0 = nb.locus_cycle(a.region, a.start if dir_right else a.end)
    loci = nb.cycle_loci(a.region, ci)
    steps = range(1, j) if dir_right else range(j - 1, 0, -1)
    between = [loci[(p0 + i) % len(loci)] for i in steps]

    # Slide the endpoint of the neighbour before the window ...
    p_region, p_locus = before
    new_end, slid_ccw, corner = _slide_target(nb, p_region, p_locus, dir_right)
    d_end = (1 if slid_ccw else -1) if corner else 0
    # ... and of the neighbour after it.
    after = nb.partner(a.region, a.end)
    q_region, q_locus = after
    new_start, slid_ccw2, corner2 = _slide_target(
        nb, q_region, q_locus, not dir_right)
    d_start = (-1 if slid_ccw2 else 1) if corner2 else 0

    inners: list[Snippet] = []
    inner_facts: list[SnippetFacts] = []
    for ci_locus in between:
        w_region, w_locus = nb.partner(a.region, ci_locus)
        s_loc, _, _ = _slide_target(nb, w_region, w_locus, not dir_right)
        e_loc, _, _ = _slide_target(nb, w_region, w_locus, dir_right)
        wind = _hug_wind(nb, w_region, s_loc, e_loc, w_locus, dir_right)
        inner = Snippet(w_region, s_loc, e_loc, wind)
        rec = facts(inner, nb)  # validates it first
        assert not rec.cls.bad, "in-between snippet came out bad"
        inners.append(inner)
        inner_facts.append(rec)

    # Each crossed edge must be one tiling edge seen from its two sides.
    chain = [(p_region, new_end)]
    for s in inners:
        chain.append((s.region, s.start))
        chain.append((s.region, s.end))
    chain.append((q_region, new_start))
    for i in range(0, len(chain), 2):
        left, right = chain[i], chain[i + 1]
        assert nb.partner(*left) == right, f"crossed edge mismatch at {i // 2}"
    return PushRecipe(cls, j, before, after, new_end, d_end, new_start,
                      d_start, tuple(inners), tuple(inner_facts))


def _push(cls: SnippetClass, k: int, j: int, rot: int, n0: int, n1: int,
           ws: int, wl: int) -> Hom:
    """A push's own trace/1 fields, as a `Hom` record its run stamps."""
    return Hom(k, rot, cls.type, cls.turn, j, [n0, n1], [ws, wl])


def hom(curve: Curve, k: int, nb: TieNeighbourhood
        ) -> tuple[tuple[Snippet, ...], tuple[SnippetFacts, ...], Hom]:
    """Remove the bad snippet at position k by one elementary homotopy.

    Returns the replacement window, its snippets' fact records, and the
    push's own trace/1 fields, a `Hom` record whose `phase` and `c` are
    left None for a run to stamp:
    `k` (the rewritten position, after any rotation), `rot` (the rotation
    applied first), `rule` and `turn` (the rewritten snippet's type and
    the side of its cut-off piece), `j` (the walk's weight), `n` (lengths
    before and after) and `win` (first index and length of the window).
    The window stands in place of the three snippets from `win[0]` on,
    after the rotation (all of a two-snippet closed curve);
    `WorkingCurve.apply` splices it and its records in.  `curve` may be a
    `WorkingCurve`: nothing but the three snippets around k is read.

    Arcs keep their endpoints: only strictly interior positions may be
    rewritten.  On closed curves any position works; if the three-snippet
    window would wrap, the curve is taken as first rotated so it does not,
    and the rotation is recorded.
    """
    snap = curve.snippets
    n = len(snap)
    if curve.kind == ARC:
        if not 0 < k < n - 1:
            raise BadInput(
                f"arc position {k} of {n} is an endpoint or out of range")
    else:
        k %= n
    a = snap[k]
    rec = nb._push_recipes.get(a)
    if rec is None:  # recipes are filed for open bad snippets only
        if a.closed:
            raise ClosedSnippet("cannot rewrite a closed snippet")
        cls = classify(a, nb)
        if not cls.bad:
            raise NotBad(f"snippet at {k} is {cls.verdict}, not bad")
        rec = push_recipe(a, nb)
    prev, nxt = snap[(k - 1) % n], snap[(k + 1) % n]
    assert (prev.region, prev.end) == rec.before, \
        "previous snippet is not glued to the bad one"
    assert (nxt.region, nxt.start) == rec.after, \
        "next snippet is not glued to the bad one"

    rotation = 0
    if curve.kind == CLOSED and n >= 3 and (k == 0 or k == n - 1):
        rotation = (k - 1) % n
        k = 1
    two_closed = curve.kind == CLOSED and n == 2
    cls, j = rec.cls, rec.j

    if j == 0:
        if two_closed:
            merged = Snippet(prev.region, None, None, prev.wind)
        else:
            merged = Snippet(prev.region, prev.start, nxt.end,
                             prev.wind + nxt.wind)
        n1 = 1 if two_closed else n - 2
        return ((merged,), (facts(merged, nb),),
                _push(cls, k, 0, rotation, n, n1, max(k - 1, 0), 1))

    # windings move where a slid endpoint crosses a corner of an annulus
    d_end = rec.d_end if rec.d_end and _wind_ok(nb, prev.region, prev) else 0
    d_start = (rec.d_start if rec.d_start and _wind_ok(nb, nxt.region, nxt)
               else 0)

    if two_closed:
        slid = Snippet(prev.region, rec.new_start, rec.new_end,
                       prev.wind + d_end + d_start)
        # Keep positional semantics: the in-between snippets stand where the
        # rewritten snippet was (position k), the slid survivor at k - 1.
        window = (slid, *rec.inners)
        wf = (facts(slid, nb), *rec.inner_facts)
        r0 = (k - 1) % j
        if r0:
            window = window[-r0:] + window[:-r0]
            wf = wf[-r0:] + wf[:-r0]
        return window, wf, _push(cls, k, j, rotation, n, j, 0, j)

    slid_prev = Snippet(prev.region, prev.start, rec.new_end, prev.wind + d_end)
    slid_next = Snippet(nxt.region, rec.new_start, nxt.end, nxt.wind + d_start)
    return ((slid_prev, *rec.inners, slid_next),
            (facts(slid_prev, nb), *rec.inner_facts, facts(slid_next, nb)),
            _push(cls, k, j, rotation, n, n + j - 2, k - 1, j + 1))

