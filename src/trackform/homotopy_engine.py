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
start endpoint the signs flip.  Every produced snippet is validated, the two
sides of each crossed edge are checked to be gluing partners, and the new
in-between snippets are checked to be efficient, so a bookkeeping error
cannot silently produce a broken curve.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curve_ops import ARC, CLOSED, Curve
from .errors import BadInput, ClosedSnippet, NotBad
from .snippet_core import RIGHT, Snippet, _t_walk, classify, validate_snippet
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


@dataclass(frozen=True)
class RewriteEvent:
    """What one elementary homotopy did."""
    rule: str           # type name of the rewritten bad snippet
    turn: str | None    # which side of the snippet the cut-off piece was on
    k: int              # rewritten position (after any rotation)
    j: int              # walk weight: window size is j + 1 new snippets
    rotation: int       # closed curves only: cyclic shift applied first
    len_before: int
    len_after: int
    window_start: int   # first index of the replaced/merged stretch
    window_len: int     # number of snippets now standing in its place


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


def hom(curve: Curve, k: int, nb: TieNeighbourhood
        ) -> tuple[Curve, RewriteEvent]:
    """Remove the bad snippet at position k by one elementary homotopy.

    Arcs keep their endpoints: only strictly interior positions may be
    rewritten.  On closed curves any position works; if the three-snippet
    window would wrap, the curve is first rotated so it does not, and the
    rotation is recorded in the event.
    """
    n = len(curve)
    snippets = list(curve.snippets)
    if curve.kind == ARC:
        if not 0 < k < n - 1:
            raise BadInput(
                f"arc position {k} of {n} is an endpoint or out of range")
    else:
        k %= n
    a = snippets[k]
    if a.closed:
        raise ClosedSnippet("cannot rewrite a closed snippet")
    cls = classify(a, nb)
    if not cls.bad:
        raise NotBad(f"snippet at {k} is {cls.verdict}, not bad")

    rotation = 0
    if curve.kind == CLOSED and n >= 3 and (k == 0 or k == n - 1):
        rotation = (k - 1) % n
        snippets = snippets[rotation:] + snippets[:rotation]
        k = 1

    tw = _t_walk(a, nb)
    assert tw is not None, "bad snippet without a cut-off walk"
    walk, side = tw
    dir_right = side == RIGHT
    j = walk.corners + walk.marks
    if cls.type in EXPECTED_J:
        assert j in EXPECTED_J[cls.type], (cls.type, j)
    assert cls.j == j

    between = walk.between if dir_right else tuple(reversed(walk.between))
    components: tuple[Locus, ...]
    if j == 0:
        components = (a.start,)
    else:
        components = (a.start, *between, a.end)

    prev = snippets[(k - 1) % len(snippets)]
    nxt = snippets[(k + 1) % len(snippets)]
    two_closed = curve.kind == CLOSED and n == 2

    if j == 0:
        w_region, w_locus = nb.partner(a.region, a.start)
        assert (w_region, w_locus) == (prev.region, prev.end)
        assert (w_region, w_locus) == (nxt.region, nxt.start)
        if two_closed:
            merged = Snippet(prev.region, None, None, prev.wind)
            out = Curve(CLOSED, (merged,))
        else:
            merged = Snippet(prev.region, prev.start, nxt.end,
                             prev.wind + nxt.wind)
            validate_snippet(merged, nb)
            new = snippets[:k - 1] + [merged] + snippets[k + 2:]
            out = Curve(curve.kind, tuple(new))
        ev = RewriteEvent(cls.type, cls.turn, k, 0, rotation, n, len(out),
                          max(k - 1, 0), 1)
        return out, ev

    # Slide the endpoint of the neighbour before the window.
    p_region, p_locus = nb.partner(a.region, components[0])
    assert (p_region, p_locus) == (prev.region, prev.end)
    new_end, slid_ccw, corner = _slide_target(nb, p_region, p_locus, dir_right)
    d_end = 0
    if corner and _wind_ok(nb, p_region, prev):
        d_end = 1 if slid_ccw else -1

    # ... and of the neighbour after it.
    q_region, q_locus = nb.partner(a.region, components[-1])
    assert (q_region, q_locus) == (nxt.region, nxt.start)
    new_start, slid_ccw2, corner2 = _slide_target(
        nb, q_region, q_locus, not dir_right)
    d_start = 0
    if corner2 and _wind_ok(nb, q_region, nxt):
        d_start = -1 if slid_ccw2 else 1

    inners: list[Snippet] = []
    for ci_locus in components[1:-1]:
        w_region, w_locus = nb.partner(a.region, ci_locus)
        s_loc, _, _ = _slide_target(nb, w_region, w_locus, not dir_right)
        e_loc, _, _ = _slide_target(nb, w_region, w_locus, dir_right)
        wind = _hug_wind(nb, w_region, s_loc, e_loc, w_locus, dir_right)
        inner = Snippet(w_region, s_loc, e_loc, wind)
        inner_cls = classify(inner, nb)  # validates it first
        assert not inner_cls.bad, "in-between snippet came out bad"
        inners.append(inner)

    # Each crossed edge must be one tiling edge seen from its two sides.
    chain = [(p_region, new_end)]
    for s in inners:
        chain.append((s.region, s.start))
        chain.append((s.region, s.end))
    chain.append((q_region, new_start))
    for i in range(0, len(chain), 2):
        left, right = chain[i], chain[i + 1]
        assert nb.partner(*left) == right, f"crossed edge mismatch at {i // 2}"

    if two_closed:
        slid = Snippet(p_region, new_start, new_end,
                       prev.wind + d_end + d_start)
        validate_snippet(slid, nb)
        # Keep positional semantics: the in-between snippets stand where the
        # rewritten snippet was (position k), the slid survivor at k - 1.
        base = [slid, *inners]
        r0 = (k - 1) % j
        out = Curve(CLOSED, tuple(base[-r0:] + base[:-r0]) if r0 else tuple(base))
        ev = RewriteEvent(cls.type, cls.turn, k, j, rotation, n, len(out), 0,
                          len(out))
        return out, ev

    slid_prev = Snippet(prev.region, prev.start, new_end, prev.wind + d_end)
    slid_next = Snippet(nxt.region, new_start, nxt.end, nxt.wind + d_start)
    validate_snippet(slid_prev, nb)
    validate_snippet(slid_next, nb)
    window = [slid_prev, *inners, slid_next]
    new = snippets[:k - 1] + window + snippets[k + 2:]
    out = Curve(curve.kind, tuple(new))
    ev = RewriteEvent(cls.type, cls.turn, k, j, rotation, n, len(out), k - 1,
                      len(window))
    return out, ev


def bad_positions(curve: Curve, nb: TieNeighbourhood) -> list[int]:
    """All positions holding bad snippets (arc endpoints included)."""
    return [i for i, s in enumerate(curve.snippets) if classify(s, nb).bad]
