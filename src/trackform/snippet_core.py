"""Strong snippet classes: winding numbers, classification, corner length.

A snippet is an arc in one region recorded by its endpoint loci (side,
segment) plus a winding number in annulus regions; ``start = end = None``
means a closed snippet.  The classifier finds the cut-off piece: for simply
connected regions the boundary walk between the endpoints with at most one
corner bounds a positive-index piece (bad snippet), a walk with exactly two
corners bounds an index-zero strip (dual), and if both walks pass at least
two corners every piece has non-positive index (efficient).  Annulus regions
dispatch on the winding number: 0 or +-1 is bad, +-2 is a dual strip, and
magnitude >= 2 is efficient (passing through).

Everything this module derives about a snippet depends only on the snippet
and its tie neighbourhood, which never changes once built.  So each distinct
snippet is worked out once per neighbourhood: `facts` files one
`SnippetFacts` record (class, corner length, counter row, blocker roles) in
the neighbourhood's fact table, and `classify`, `corner_length` and the
counters in `curve_ops` all read that record.  Filing a record is the
snippet's one full validity check: `_classify_uncached` runs it first, and
`validate_snippet` on a snippet missing from the table files its record.
So each distinct valid snippet is fully checked exactly once per
neighbourhood, and validating it again is one table lookup; an invalid
snippet raises `InconsistentSnippet` on every check and is never filed.
The boundary walks that classification and validation take come from
`TieNeighbourhood.walk_ccw`, which computes each walk once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InconsistentSnippet, NotApplicable
from .track_model import (
    ANNULUS,
    BOUNDARY,
    BRANCH,
    DISC,
    SWITCH,
    H,
    T,
    V,
    Locus,
    TieNeighbourhood,
    Walk,
)

CARRIED = "Carried"
DUAL_TIE = "DualTie"
DUAL_COMP = "DualComp"
BAD = "Bad"
LEFT = "Left"
RIGHT = "Right"

TRIVIAL = "Trivial"
R_TRIVIAL = "R-trivial"
PERIPHERAL = "PeripheralCurve"
INESSENTIAL_BIGON = "InessentialBigon"
R_BOUNDARY = "R(∂S,∂S)"

BIGON_TYPES = frozenset({
    "B(h,h)", "B(t,t)", "S(h,h,0)", "S(t,t,0)", "S(v,v,0)",
    "S(t,v,1)", "S(t,t,2)", "R(h,h)", "R(v,v)",
})
TRIGON_TYPES = frozenset({"B(h,t)", "S(h,t,1)", "S(h,v,2)", "S(h,t,3)", "R(h,v)"})


class Snippet(NamedTuple):
    region: int
    start: Locus | None
    end: Locus | None
    wind: int = 0

    @property
    def closed(self) -> bool:
        return self.start is None


@dataclass(frozen=True)
class SnippetClass:
    verdict: str  # Carried | DualTie | DualComp | Bad
    type: str | None = None  # bad-type name, only for Bad
    turn: str | None = None  # Left | Right | None
    vertical_dual: bool = False
    horizontal_dual: bool = False
    j: int | None = None  # tiling points on the cut-off piece boundary

    @property
    def bad(self) -> bool:
        return self.verdict == BAD

    @property
    def efficient(self) -> bool:
        return self.verdict != BAD


def reverse_snippet(s: Snippet) -> Snippet:
    return Snippet(s.region, s.end, s.start, -s.wind)


def _locus_ok(nb: TieNeighbourhood, region: int, locus: Locus) -> bool:
    si, gi = locus
    sides = nb.regions[region].sides
    return 0 <= si < len(sides) and 0 <= gi < sides[si].n_segments


def valid_winds(s: Snippet, nb: TieNeighbourhood) -> tuple[int, int, int] | None:
    """For an annulus snippet off the surface boundary: (m_r, m_l, n2) with
    valid windings {m_r + n2*d} and {-(m_l + n2*d)} for d >= 0; same-locus
    endpoints admit every multiple of n2.  None when windings are forced 0."""
    r = nb.regions[s.region]
    if r.kind != ANNULUS:
        return None
    if not s.closed and any(
            nb.side_label(s.region, l) == BOUNDARY for l in (s.start, s.end)):
        return None
    n2 = nb.total_corners(s.region, nb.polygon_cycle(s.region))
    if s.closed or s.start == s.end:
        return (0, 0, n2)
    m_r = nb.walk_ccw(s.region, s.start, s.end).corners
    return (m_r, n2 - m_r, n2)


def validate_snippet(s: Snippet, nb: TieNeighbourhood) -> None:
    """Raise InconsistentSnippet unless the snippet is valid; a valid
    snippet missing from the fact table gets its record filed."""
    if s not in nb._classify_cache:
        facts(s, nb)


def _check_snippet(s: Snippet, nb: TieNeighbourhood) -> None:
    """The full validity check: region, loci, and the winding the loci
    admit."""
    if not (0 <= s.region < len(nb.regions)):
        raise InconsistentSnippet(f"no region {s.region}")
    r = nb.regions[s.region]
    if (s.start is None) != (s.end is None):
        raise InconsistentSnippet("one endpoint closed, the other not")
    if not s.closed:
        for locus in (s.start, s.end):
            if not _locus_ok(nb, s.region, locus):
                raise InconsistentSnippet(f"no locus {locus} in region {r.name}")
        if r.kind != ANNULUS and any(
                nb.side_label(s.region, l) == BOUNDARY for l in (s.start, s.end)):
            raise InconsistentSnippet("boundary endpoint outside an annulus region")
    fams = valid_winds(s, nb)
    if fams is None:
        if s.wind != 0:
            raise InconsistentSnippet(
                f"winding {s.wind} must be 0 for {r.name} snippet")
        return
    m_r, m_l, n2 = fams
    if s.closed or s.start == s.end:
        ok = s.wind % n2 == 0
    else:
        ok = (s.wind >= m_r and (s.wind - m_r) % n2 == 0) or \
             (s.wind <= -m_l and (-s.wind - m_l) % n2 == 0)
    if not ok:
        raise InconsistentSnippet(
            f"winding {s.wind} impossible for loci {s.start}->{s.end}"
            f" (forward walk passes {m_r} corners, polygon has {n2})")


def _wrapped_walk(nb: TieNeighbourhood, region: int, a: Locus, b: Locus,
                  need_corners: int) -> Walk:
    """CCW walk from a to b passing exactly need_corners corners, adding full
    wraps of the polygon cycle when the direct walk passes fewer (possible on
    annuli whose corner period divides the winding number)."""
    direct = nb.walk_ccw(region, a, b)
    ci, pa = nb.locus_cycle(region, a)
    loci = nb.cycle_loci(region, ci)
    n = len(loci)
    total_corners = nb.total_corners(region, ci)
    extra = need_corners - direct.corners
    if extra == 0:
        return direct
    assert extra > 0 and extra % total_corners == 0, (
        f"walk cannot pass {need_corners} corners from {a} to {b}")
    wraps = extra // total_corners
    gaps = len(direct.between) + 1 + wraps * n if a != b else wraps * n
    between = tuple(loci[(pa + i) % n] for i in range(1, gaps))
    return Walk(need_corners, gaps - need_corners, between)


def _t_walk(s: Snippet, nb: TieNeighbourhood) -> tuple[Walk, str] | None:
    """The boundary walk around the cut-off piece with non-negative index,
    with the side it lies on ('Right' = the CCW start-to-end walk).

    Returns None when no such piece exists (both walks pass >= 3 corners,
    |wind| >= 3, or a boundary/closed case)."""
    r = nb.regions[s.region]
    if s.closed:
        return None
    if r.kind == ANNULUS:
        for l in (s.start, s.end):
            if nb.side_label(s.region, l) == BOUNDARY:
                return None
        if abs(s.wind) > 2:
            return None
        if s.wind > 0:
            return _wrapped_walk(nb, s.region, s.start, s.end, s.wind), RIGHT
        if s.wind < 0:
            return _wrapped_walk(nb, s.region, s.end, s.start, -s.wind), LEFT
        wr = nb.walk_ccw(s.region, s.start, s.end)
        if wr.corners == 0:
            return wr, RIGHT
        wl = nb.walk_ccw(s.region, s.end, s.start)
        assert wl.corners == 0, "winding 0 requires a corner-free side"
        return wl, LEFT
    wr = nb.walk_ccw(s.region, s.start, s.end)
    wl = nb.walk_ccw(s.region, s.end, s.start)
    if wr.corners <= wl.corners:
        best, side = wr, RIGHT
    else:
        best, side = wl, LEFT
    if best.corners > 2:
        return None
    return best, side


class SnippetFacts(NamedTuple):
    """What the rest of the program reads off one snippet."""
    cls: SnippetClass
    # contribution to the counters other than len_block:
    # (len_corn, carried, dual_R, dual_L, bad)
    row: tuple[int, int, int, int, int]
    # the turn of a vertical dual, which can flank a blocker; else None
    outer: str | None
    # a DualTie in a branch rectangle, which can stand inside a blocker
    mid: bool


def fact_table(nb: TieNeighbourhood) -> dict[Snippet, SnippetFacts]:
    """The neighbourhood's fact table: every snippet classified so far."""
    return nb._classify_cache


def facts(s: Snippet, nb: TieNeighbourhood) -> SnippetFacts:
    """The snippet's fact record, worked out and filed on first use."""
    rec = nb._classify_cache.get(s)
    if rec is None:
        rec = nb._classify_cache[s] = _facts_uncached(s, nb)
    return rec


def _facts_uncached(s: Snippet, nb: TieNeighbourhood) -> SnippetFacts:
    cls = _classify_uncached(s, nb)
    dual = cls.vertical_dual or cls.horizontal_dual
    row = (_corner_length_uncached(s, nb), int(cls.verdict == CARRIED),
           int(dual and cls.turn == RIGHT), int(dual and cls.turn == LEFT),
           int(cls.bad))
    return SnippetFacts(
        cls, row, cls.turn if cls.vertical_dual else None,
        cls.verdict == DUAL_TIE and nb.regions[s.region].kind == BRANCH)


def classify(s: Snippet, nb: TieNeighbourhood) -> SnippetClass:
    return facts(s, nb).cls


def _classify_uncached(s: Snippet, nb: TieNeighbourhood) -> SnippetClass:
    _check_snippet(s, nb)
    r = nb.regions[s.region]

    if s.closed:
        if r.kind in (BRANCH, SWITCH):
            return SnippetClass(BAD, TRIVIAL)
        if r.kind == ANNULUS and s.wind != 0:
            return SnippetClass(BAD, PERIPHERAL)
        return SnippetClass(BAD, R_TRIVIAL)

    if r.kind in (BRANCH, SWITCH):
        return _classify_rect(s, nb)

    labels = (nb.side_label(s.region, s.start), nb.side_label(s.region, s.end))
    if labels.count(BOUNDARY) == 2:
        return SnippetClass(BAD, R_BOUNDARY)
    if labels.count(BOUNDARY) == 1:
        return SnippetClass(DUAL_COMP)

    if r.kind == ANNULUS and abs(s.wind) >= 3:
        return SnippetClass(DUAL_COMP)

    tw = _t_walk(s, nb)
    if tw is None:
        return SnippetClass(DUAL_COMP)
    walk, side = tw
    if walk.corners == 2:
        # index-zero strip: a dual; flavour from the endpoint labels
        vert = labels == (H, H)
        horiz = labels == (V, V)
        return SnippetClass(DUAL_COMP, turn=side,
                            vertical_dual=vert, horizontal_dual=horiz)
    x, y = sorted(labels)
    typ = f"R({x},{y})"
    j = walk.corners + walk.marks
    return SnippetClass(BAD, typ, turn=side if j > 0 else None, j=j)


def _classify_rect(s: Snippet, nb: TieNeighbourhood) -> SnippetClass:
    r = nb.regions[s.region]
    la, lb = nb.locus_label(s.region, s.start), nb.locus_label(s.region, s.end)
    sa, sb = s.start[0], s.end[0]
    if r.kind == BRANCH:
        if {la, lb} == {T} and sa != sb:
            return SnippetClass(CARRIED)
        if {la, lb} == {H} and sa != sb:
            return SnippetClass(DUAL_TIE)
        prefix = "B"
    else:
        if {sa, sb} == {1, 3}:
            return SnippetClass(CARRIED)
        if {la, lb} == {H} and sa != sb:
            return SnippetClass(DUAL_TIE)
        prefix = "S"
    tw = _t_walk(s, nb)
    assert tw is not None, "rectangle snippets always cut a piece"
    walk, side = tw
    assert walk.corners <= 1, "no efficient rectangle snippet reaches here"
    j = walk.corners + walk.marks
    x, y = sorted((la, lb))
    typ = f"{prefix}({x},{y})" if prefix == "B" else f"S({x},{y},{j})"
    return SnippetClass(BAD, typ, turn=side if j > 0 else None, j=j)


def corner_length(s: Snippet, nb: TieNeighbourhood) -> int:
    """len_corn: vertical edges and branch edges count 1, switch edges 3,
    summed over the full edges of the cut-off piece's boundary walk; 2*s_N
    when no piece with non-negative index exists."""
    return facts(s, nb).row[0]


def _corner_length_uncached(s: Snippet, nb: TieNeighbourhood) -> int:
    r = nb.regions[s.region]
    if r.kind in (BRANCH, SWITCH):
        if s.closed:
            return 0
        return 1 if r.kind == BRANCH else 3
    two_sn = 2 * nb.s_N
    if s.closed:
        return 0 if s.wind == 0 else two_sn
    labels = [nb.side_label(s.region, l) for l in (s.start, s.end)]
    if labels.count(BOUNDARY) == 2:
        return 0
    if labels.count(BOUNDARY) == 1:
        return two_sn
    tw = _t_walk(s, nb)
    if tw is None:
        return two_sn
    walk, _side = tw
    return sum(nb.edge_weight(s.region, l) for l in walk.between)


def weight(s: Snippet, nb: TieNeighbourhood) -> int:
    """Tiling points enclosed by the cut-off piece of a bad switch-rectangle
    snippet (0..3)."""
    if s.closed or nb.regions[s.region].kind != SWITCH:
        raise NotApplicable("weight needs a switch-rectangle snippet")
    cls = classify(s, nb)
    if not cls.bad:
        raise NotApplicable("snippet is carried or a tie")
    assert cls.j is not None and 0 <= cls.j <= 3
    return cls.j


def is_bigon(cls: SnippetClass) -> bool:
    return cls.type in BIGON_TYPES


def is_trigon(cls: SnippetClass) -> bool:
    return cls.type in TRIGON_TYPES
