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
and filed beside its fact record.  Filing one is table lookups: the
neighbourhood's step table gives each slide target and its corner flag
(one step round the cycle from the partner of the bad snippet's start or
end), the cut-off walk's inner loci are j - 1 further steps from the
start, and each in-between snippet is threaded once per (region, crossed
locus, turn) into the neighbourhood's thread table, then looked up.  The
checks on a recipe run once, when it is filed: its class and j against the
rule, each in-between snippet valid and not bad, and the two sides of each
crossed edge gluing partners; the check that an in-between snippet hugs
its edge depends only on its thread-table key and runs once per key.  A
recipe is filed only for an open bad snippet, so a push whose snippet has
one is one lookup; only a snippet without one is checked for being open
and bad.  Each `hom` call does only what depends on the neighbours, and
checks them every time: the previous snippet must end and the next must
start on the partners of the bad snippet's endpoints (`AdjacencyError`
otherwise), a slid endpoint's winding moves only where windings count
(`_wind_ok`), and both slid snippets are validated, which looks up (or
files) their fact records.  `hom` returns the replacement window, not the
curve, with the window's fact records and the push's own trace/1 fields:
a run or an audit splices the window and its records into its working
curve, so a push costs its window whatever the curve's length.
"""
from __future__ import annotations

from typing import NamedTuple

from .curve_ops import ARC, CLOSED, Curve
from .errors import AdjacencyError, BadInput, ClosedSnippet, NotBad
from .formats import Hom
from .snippet_core import (RIGHT, Snippet, SnippetClass, SnippetFacts,
                           classify, facts, file_facts)
from .track_model import ANNULUS, Locus, TieNeighbourhood

# Weight of the cut-off walk for each rectangle bad type; complementary-region
# types R(h,h) and R(h,v) have track-dependent weights (marks under a run).
EXPECTED_J: dict[str, set[int]] = {
    "B(h,h)": {0}, "B(t,t)": {0}, "S(h,h,0)": {0}, "S(t,t,0)": {0},
    "S(v,v,0)": {0}, "B(h,t)": {1}, "S(h,t,1)": {1}, "S(t,v,1)": {1},
    "S(h,v,2)": {2}, "S(t,t,2)": {2}, "S(h,t,3)": {3}, "R(v,v)": {0},
}


def _wind_ok(nb: TieNeighbourhood, region: int, s: Snippet) -> bool:
    """Does the snippet live where winding numbers are meaningful: in an
    annulus, with neither endpoint on the surface boundary?"""
    if nb.regions[region].kind != ANNULUS:
        return False
    # per locus: (cycle, position, label, on the surface boundary?)
    info = nb._locus_info[region]
    return not (info[s.start][3] or info[s.end][3])


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


def _push_recipe_uncached(a: Snippet, nb: TieNeighbourhood,
                          cls: SnippetClass | None = None) -> PushRecipe:
    """The recipe, read off the neighbourhood's step table: each slide is
    one step from a partner locus, and each in-between snippet is threaded
    once per (region, crossed locus, turn) and then looked up.  `cls` is
    the snippet's class, when the caller has just looked it up."""
    if cls is None:
        cls = classify(a, nb)
    assert cls.bad and not a.closed, "recipes are for open bad snippets"
    j = cls.j
    if cls.type in EXPECTED_J:
        assert j in EXPECTED_J[cls.type], (cls.type, j)

    partners = nb._partners
    before = partners[a.region][a.start]
    if j == 0:
        return PushRecipe(cls, 0, before, before, None, 0, None, 0, (), ())
    steps = nb._steps
    dir_right = cls.turn == RIGHT
    # Slide the endpoint of the neighbour before the window one step
    # clockwise (Right) or counter-clockwise (Left), and the start of the
    # neighbour after it one step the other way.  Sliding an end
    # counter-clockwise across a corner adds one to the winding, and a
    # start the opposite.
    p_region, p_locus = before
    after = partners[a.region][a.end]
    q_region, q_locus = after
    if dir_right:
        new_end, corner, _, _ = steps[p_region][p_locus]
        _, _, new_start, corner2 = steps[q_region][q_locus]
        d_end, d_start = -corner, -corner2
    else:
        _, _, new_end, corner = steps[p_region][p_locus]
        new_start, corner2, _, _ = steps[q_region][q_locus]
        d_end, d_start = int(corner), int(corner2)
    inners, inner_facts = _threaded(a, j, dir_right, nb) if j > 1 else ((), ())

    # Each crossed edge must be one tiling edge seen from its two sides.
    region, locus = p_region, new_end
    for i, s in enumerate(inners):
        assert partners[region][locus] == (s.region, s.start), \
            f"crossed edge mismatch at {i}"
        region, locus = s.region, s.end
    assert partners[region][locus] == (q_region, new_start), \
        f"crossed edge mismatch at {j - 1}"
    return PushRecipe(cls, j, before, after, new_end, d_end, new_start,
                      d_start, inners, inner_facts)


def _threaded(a: Snippet, j: int, dir_right: bool, nb: TieNeighbourhood
              ) -> tuple[tuple[Snippet, ...], tuple[SnippetFacts, ...]]:
    """The j - 1 in-between snippets of pushing `a`, with their fact
    records, each checked valid and not bad.  The cut-off walk's inner
    loci are the j - 1 steps from the start towards the cut-off side, in
    the order the push crosses them; each in-between snippet is looked up
    in the neighbourhood's thread table, and threaded on a miss."""
    region_steps = nb._steps[a.region]
    toward = 2 if dir_right else 0
    locus = a.start
    inners: list[Snippet] = []
    inner_facts: list[SnippetFacts] = []
    for _ in range(j - 1):
        locus = region_steps[locus][toward]
        inner = nb._threads.get((a.region, locus, dir_right))
        if inner is None:
            inner = _thread(nb, a.region, locus, dir_right)
        rec = facts(inner, nb)  # validates it first
        assert not rec.cls.bad, "in-between snippet came out bad"
        inners.append(inner)
        inner_facts.append(rec)
    return tuple(inners), tuple(inner_facts)


def _thread(nb: TieNeighbourhood, region: int, crossed: Locus,
            dir_right: bool) -> Snippet:
    """The in-between snippet a push turning `dir_right` threads across the
    partner of `crossed`, filed in the neighbourhood's thread table.

    It runs from one neighbour of the partner locus to the other, hugging
    that locus on the left of a right-turning push; in an annulus its
    winding counts the corners of the two gaps it hugs."""
    w_region, w_locus = nb._partners[region][crossed]
    cw, cw_corner, ccw, ccw_corner = nb._steps[w_region][w_locus]
    start, end = (ccw, cw) if dir_right else (cw, ccw)
    wind = 0
    if nb.regions[w_region].kind == ANNULUS:
        assert start != end, "in-between snippet does not hug its edge"
        wind = cw_corner + ccw_corner
        if dir_right:
            wind = -wind
    inner = nb._threads[(region, crossed, dir_right)] = Snippet(
        w_region, start, end, wind)
    return inner


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
        rec = nb._push_recipes[a] = _push_recipe_uncached(a, nb, cls)
    prev, nxt = snap[(k - 1) % n], snap[(k + 1) % n]
    if (prev.region, prev.end) != rec.before:
        raise AdjacencyError("previous snippet is not glued to the bad one")
    if (nxt.region, nxt.start) != rec.after:
        raise AdjacencyError("next snippet is not glued to the bad one")

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
    # their fact records: one lookup each, and a miss files the record
    get = nb._classify_cache.get
    return ((slid_prev, *rec.inners, slid_next),
            (get(slid_prev) or file_facts(slid_prev, nb), *rec.inner_facts,
             get(slid_next) or file_facts(slid_next, nb)),
            _push(cls, k, j, rotation, n, n + j - 2, k - 1, j + 1))

