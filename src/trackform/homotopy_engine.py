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
and filed beside its fact record.  Filing one is one pass of table
lookups along the cut-off walk: the neighbourhood's step table gives each
slide target and its corner flag (one step round the polygon from the
partner of the bad snippet's start or end), and the walk's j - 1 inner
loci are further steps from the start.  At each inner locus the pass takes
its partner, builds the in-between snippet from the partner's step entry
and files its fact record.  An in-between snippet may start and end on one
locus: in the one-cusp annulus of a loop branch (a face word of one cusp
and one branch edge) it runs from the cusp round the edge back to the
cusp.  The checks on a recipe run once, in that pass: its class and j
against the rule, each in-between snippet valid and not bad, and the two
sides of each crossed edge gluing partners.  A recipe is filed only for an
open bad snippet, so a push whose snippet has one is one lookup; only a
snippet without one is checked for being open and bad.

What depends on the neighbours is one step, `push_window(prev, bad, next)`,
which reads those three snippets and nothing else and checks them every
time: it looks up (or files) the recipe, the previous snippet must end and
the next must start on the partners of the bad snippet's endpoints
(`AdjacencyError` otherwise), and the merged or slid snippets are built by
`snippet_core.composed`, which keeps their composed winding only where
windings count and looks up (or files) their fact records.  A two-snippet
closed curve, whose window is all of it, is pushed by `push_two`: the same
step with one snippet as both neighbours, then the window's ends glued by
`curve_ops.seam`.  `hom` adds what depends on the curve: the position
checks, the rotation of a closed curve whose window would wrap, and the
push's own trace/1 fields.  A run or an audit splices the window and its
records into its working curve, so a push costs its window whatever the
curve's length; the exhaustive oracle calls the two steps directly,
`push_window` once per distinct triple of snippets it meets.
"""
from __future__ import annotations

from typing import NamedTuple

from .curve_ops import ARC, CLOSED, Curve, seam
from .errors import AdjacencyError, BadInput, ClosedSnippet, NotBad
from .formats import Hom
from .snippet_core import RIGHT, Snippet, SnippetFacts, classify, composed
from .track_model import ANNULUS, Locus, TieNeighbourhood

# Weight of the cut-off walk for each rectangle bad type; complementary-region
# types R(h,h) and R(h,v) have track-dependent weights (marks under a run).
EXPECTED_J: dict[str, set[int]] = {
    "B(h,h)": {0}, "B(t,t)": {0}, "S(h,h,0)": {0}, "S(t,t,0)": {0},
    "S(v,v,0)": {0}, "B(h,t)": {1}, "S(h,t,1)": {1}, "S(t,v,1)": {1},
    "S(h,v,2)": {2}, "S(t,t,2)": {2}, "S(h,t,3)": {3}, "R(v,v)": {0},
}


class PushRecipe(NamedTuple):
    """The part of a push fixed by the bad snippet alone."""
    cls: SnippetFacts  # the bad snippet's fact record
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
                          cls: SnippetFacts) -> PushRecipe:
    """The recipe of the open bad snippet `a` with fact record `cls`, read
    off the neighbourhood's step table in one pass along the cut-off walk:
    each slide is one step from a partner locus, and each in-between
    snippet is built and filed as the walk crosses its locus."""
    assert cls.bad and not a.closed, "recipes are for open bad snippets"
    j = cls.j
    if cls.type in EXPECTED_J:
        assert j in EXPECTED_J[cls.type], (cls.type, j)

    partners = nb._partners
    before = partners[a.region][a.start]
    if j == 0:
        return PushRecipe(cls, before, before, None, 0, None, 0, (), ())
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

    # The cut-off walk's inner loci are the j - 1 steps from the start
    # towards the cut-off side, in the order the push crosses them.  The
    # in-between snippet across each runs from one neighbour of the partner
    # locus to the other, hugging it on the left of a right-turning push;
    # in an annulus its winding counts the corners of the two gaps it hugs
    # (the two neighbours are one locus in a one-cusp annulus of one edge).
    # Each crossed edge must be one tiling edge seen from its two sides.
    toward = 2 if dir_right else 0
    crossed = a.start
    region, end = p_region, new_end  # where the snippet before ends
    inners: list[Snippet] = []
    inner_facts: list[SnippetFacts] = []
    for i in range(j - 1):
        crossed = steps[a.region][crossed][toward]
        w_region, w_locus = partners[a.region][crossed]
        cw, cw_corner, ccw, ccw_corner = steps[w_region][w_locus]
        start, stop = (ccw, cw) if dir_right else (cw, ccw)
        wind = 0
        if nb.regions[w_region].kind == ANNULUS:
            wind = cw_corner + ccw_corner
            if dir_right:
                wind = -wind
        inner = Snippet(w_region, start, stop, wind)
        assert partners[region][end] == (w_region, start), \
            f"crossed edge mismatch at {i}"
        rec = classify(inner, nb)  # validates it first
        assert not rec.bad, "in-between snippet came out bad"
        inners.append(inner)
        inner_facts.append(rec)
        region, end = w_region, stop
    assert partners[region][end] == (q_region, new_start), \
        f"crossed edge mismatch at {j - 1}"
    return PushRecipe(cls, before, after, new_end, d_end, new_start, d_start,
                      tuple(inners), tuple(inner_facts))


def push_window(prev: Snippet, a: Snippet, nxt: Snippet,
                nb: TieNeighbourhood, k: int = 1
                ) -> tuple[tuple[Snippet, ...], tuple[SnippetFacts, ...],
                           PushRecipe]:
    """Push the bad snippet `a` between its neighbours `prev` and `nxt`:
    the step of a push that reads the three snippets and nothing else.

    Returns the window that stands in place of the three, its snippets'
    fact records, and the push's recipe.  The recipe is looked up, or
    filed on a miss after checking that `a` is open (`ClosedSnippet`) and
    bad (`NotBad`, naming position `k`); then both neighbours must be
    glued to `a` (`AdjacencyError`).  The merged snippet (j = 0) or the two
    slid ones are `composed`.  `hom` calls it for every push, through
    `push_two` on a two-snippet closed curve; the exhaustive oracle calls
    it once per distinct triple it meets."""
    rec = nb._push_recipes.get(a)
    if rec is None:  # recipes are filed for open bad snippets only
        if a.closed:
            raise ClosedSnippet("cannot rewrite a closed snippet")
        cls = classify(a, nb)
        if not cls.bad:
            raise NotBad(f"snippet at {k} is {cls.verdict}, not bad")
        rec = nb._push_recipes[a] = _push_recipe_uncached(a, nb, cls)
    if (prev.region, prev.end) != rec.before:
        raise AdjacencyError("previous snippet is not glued to the bad one")
    if (nxt.region, nxt.start) != rec.after:
        raise AdjacencyError("next snippet is not glued to the bad one")
    if rec.cls.j == 0:
        merged, f = composed(prev.region, prev.start, nxt.end,
                             prev.wind + nxt.wind, nb)
        return (merged,), (f,), rec
    slid_prev, f_prev = composed(prev.region, prev.start, rec.new_end,
                                 prev.wind + rec.d_end, nb)
    slid_next, f_next = composed(nxt.region, rec.new_start, nxt.end,
                                 nxt.wind + rec.d_start, nb)
    return ((slid_prev, *rec.inners, slid_next),
            (f_prev, *rec.inner_facts, f_next), rec)


def push_two(prev: Snippet, a: Snippet, nb: TieNeighbourhood, k: int
             ) -> tuple[tuple[Snippet, ...], tuple[SnippetFacts, ...],
                        PushRecipe]:
    """Push the bad snippet `a` at position `k` of the two-snippet closed
    curve (`prev`, `a`): `push_window` with `prev` as both neighbours, then
    the window's two ends, the halves of `prev`, glued at the seam
    (`curve_ops.seam`).  The window is the whole pushed curve, laid out by
    position: the in-between snippets stand where `a` was (position k) and
    the glued survivor at k - 1.  `hom` and the exhaustive oracle both push
    a two-snippet closed curve with it."""
    window, wf, rec = push_window(prev, a, prev, nb, k)
    s, f = seam(window, prev.wind, nb)
    window, wf = (s, *window[1:-1]), (f, *wf[1:-1])
    r0 = (k - 1) % len(window)
    if r0:
        window = window[-r0:] + window[:-r0]
        wf = wf[-r0:] + wf[:-r0]
    return window, wf, rec


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
    and the rotation is recorded.  The window and its records come from
    `push_window` on the bad snippet and its two neighbours, or from
    `push_two` on a two-snippet closed curve.
    """
    snap = curve.snippets
    n = len(snap)
    if curve.kind == ARC:
        if not 0 < k < n - 1:
            raise BadInput(
                f"arc position {k} of {n} is an endpoint or out of range")
    else:
        k %= n
    prev, a, nxt = snap[(k - 1) % n], snap[k], snap[(k + 1) % n]
    if curve.kind == CLOSED and n == 2:
        window, wf, rec = push_two(prev, a, nb, k)
    else:
        window, wf, rec = push_window(prev, a, nxt, nb, k)
    rotation = 0
    if curve.kind == CLOSED and n >= 3 and (k == 0 or k == n - 1):
        rotation = (k - 1) % n
        k = 1
    m = len(window)
    cls = rec.cls
    return window, wf, Hom(k, rotation, cls.type, cls.turn, cls.j,
                           [n, n - min(n, 3) + m], [max(k - 1, 0), m])
