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
counters in `curve_ops` all read that record.  Filing a record takes one
pass of table lookups and arithmetic (`_classify_uncached`): each endpoint
is looked up once in the neighbourhood's build-time locus tables (cycle,
position, segment label, boundary flag), the two boundary walks between
the endpoints are differences of the cycle's corner prefixes, and the
cut-off walk's corner length a difference of its edge-weight prefixes.
Equal records are one object per neighbourhood, and a bad type's name is
read from a constant table, so filing one builds no string and, past the
first few per neighbourhood, no new record.

Filing a record is the snippet's one full validity check: `facts` on a
snippet missing from the table checks it and files its record, and a
caller that has just missed in the table files it with `file_facts`, so a
miss costs one lookup, the check and one insert.  So each
distinct valid snippet is fully checked exactly once per neighbourhood, and
checking it again is one table lookup; an invalid snippet raises
`InconsistentSnippet` on every check and is never filed.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InconsistentSnippet
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

# Bad-type names by the endpoints' segment labels, and for a switch
# rectangle by j (a walk on its six loci passes at most five gaps), so that
# filing a record builds no string.
_LABEL_PAIRS = {(x, y): tuple(sorted((x, y))) for x in (H, T, V)
                for y in (H, T, V)}
_R_TYPES = {k: "R(%s,%s)" % p for k, p in _LABEL_PAIRS.items()}
_B_TYPES = {k: "B(%s,%s)" % p for k, p in _LABEL_PAIRS.items()}
_S_TYPES = {(*k, j): "S(%s,%s,%d)" % (*p, j)
            for k, p in _LABEL_PAIRS.items() for j in range(6)}


class Snippet(NamedTuple):
    region: int
    start: Locus | None
    end: Locus | None
    wind: int = 0

    @property
    def closed(self) -> bool:
        return self.start is None


class SnippetClass(NamedTuple):
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
    return nb._classify_cache.get(s) or file_facts(s, nb)


def file_facts(s: Snippet, nb: TieNeighbourhood) -> SnippetFacts:
    """File the record of a snippet the caller found missing from the fact
    table: the full check, then one insert."""
    rec = nb._classify_cache[s] = _classify_uncached(s, nb)
    return rec


def classify(s: Snippet, nb: TieNeighbourhood) -> SnippetClass:
    return facts(s, nb).cls


def _classify_uncached(s: Snippet, nb: TieNeighbourhood) -> SnippetFacts:
    """The snippet's fact record, read off the neighbourhood's locus tables:
    the full validity check, then class, j, turn and corner length.

    Each endpoint is looked up once, for its (cycle, position), segment
    label and boundary flag.  The CCW walks between the endpoints are
    differences of the cycle's corner prefixes; the cut-off walk is the one
    passing fewer corners (an annulus snippet's winding fixes its side and
    corner count, full turns added arithmetically), j is its number of gaps,
    and its corner length a difference of the cycle's weight prefixes."""
    region, start, end, wind = s
    if not 0 <= region < len(nb.regions):
        raise InconsistentSnippet(f"no region {region}")
    r = nb.regions[region]
    kind = r.kind
    if start is None or end is None:
        if start is not None or end is not None:
            raise InconsistentSnippet("one endpoint closed, the other not")
        if kind == ANNULUS:
            n2 = nb.total_corners(region, nb.polygon_cycle(region))
            if not _winding_admitted(wind, 0, 0, n2):
                raise _bad_winding(s, 0, n2)
        elif wind != 0:
            raise InconsistentSnippet(
                f"winding {wind} must be 0 for {r.name} snippet")
        if kind in (BRANCH, SWITCH):
            return _record(nb, 0, BAD, TRIVIAL)
        if wind:
            return _record(nb, 2 * nb.s_N, BAD, PERIPHERAL)
        return _record(nb, 0, BAD, R_TRIVIAL)

    info = nb._locus_info[region]
    ia, ib = info.get(start), info.get(end)
    if ia is None or ib is None:
        raise InconsistentSnippet(
            f"no locus {start if ia is None else end} in region {r.name}")
    ci, pa, la, a_off = ia
    _, pb, lb, b_off = ib
    if a_off or b_off:
        if kind != ANNULUS:
            raise InconsistentSnippet(
                "boundary endpoint outside an annulus region")
        if wind != 0:
            raise InconsistentSnippet(
                f"winding {wind} must be 0 for {r.name} snippet")
        if a_off and b_off:
            return _record(nb, 0, BAD, R_BOUNDARY)
        return _record(nb, 2 * nb.s_N, DUAL_COMP)

    # both endpoints on the region's one glued cycle: the CCW walks a -> b
    # (Right) and b -> a (Left) pass g_r, g_l gaps and c_r, c_l corners
    before = nb._corners_before[region][ci]
    n = len(before) // 2
    g_r, g_l = (pb - pa) % n, (pa - pb) % n
    c_r = before[pa + g_r] - before[pa]
    c_l = before[pb + g_l] - before[pb]
    if kind == ANNULUS:
        n2 = before[n]
        if not _winding_admitted(wind, c_r, c_l, n2):
            raise _bad_winding(s, c_r, n2)
        if abs(wind) >= 3:
            return _record(nb, 2 * nb.s_N, DUAL_COMP)
        # the hugged piece passes |wind| corners, after full turns of the
        # cycle where the direct walk passes fewer
        if wind > 0 or (wind == 0 and c_r == 0):
            corners, p0, side = wind, pa, RIGHT
            gaps = g_r + (wind - c_r) // n2 * n
        else:
            corners, p0, side = -wind, pb, LEFT
            gaps = g_l + (-wind - c_l) // n2 * n
    elif wind != 0:
        raise InconsistentSnippet(
            f"winding {wind} must be 0 for {r.name} snippet")
    else:
        corners, gaps, p0, side = ((c_r, g_r, pa, RIGHT) if c_r <= c_l
                                   else (c_l, g_l, pb, LEFT))
        if kind != DISC:
            return _rect_record(nb, kind, start[0], end[0], la, lb, corners,
                                gaps, side)
        if corners > 2:
            return _record(nb, 2 * nb.s_N, DUAL_COMP)

    if gaps:
        weights = nb._weights_before[region][ci]
        turns, rest = divmod(gaps, n)
        corn = weights[p0 + rest] - weights[p0 + 1] + turns * weights[n]
    else:
        corn = 0
    if corners == 2:
        # index-zero strip: a dual; flavour from the endpoint labels
        return _record(nb, corn, DUAL_COMP, None, side, None, la == lb == H,
                       la == lb == V)
    return _record(nb, corn, BAD, _R_TYPES[la, lb], side if gaps else None,
                   gaps)


def _rect_record(nb: TieNeighbourhood, kind: str, sa: int, sb: int, la: str,
                 lb: str, corners: int, j: int, side: str) -> SnippetFacts:
    """A rectangle snippet's record, from its endpoint sides and labels and
    the cut-off walk (corners, gaps j, side) that passes fewer corners."""
    corn = 1 if kind == BRANCH else 3
    if kind == BRANCH:
        if la == lb == T and sa != sb:
            return _record(nb, corn, CARRIED)
    elif (sa, sb) in ((1, 3), (3, 1)):
        return _record(nb, corn, CARRIED)
    if la == lb == H and sa != sb:
        return _record(nb, corn, DUAL_TIE, None, None, None, False, False,
                       kind == BRANCH)
    assert corners <= 1, "no efficient rectangle snippet reaches here"
    typ = _B_TYPES[la, lb] if kind == BRANCH else _S_TYPES[la, lb, j]
    return _record(nb, corn, BAD, typ, side if j else None, j)


def _winding_admitted(wind: int, m_r: int, m_l: int, n2: int) -> bool:
    """Is the winding one of m_r + n2*d or -(m_l + n2*d), d >= 0?  With
    m_r = m_l = 0 (closed or same-locus snippets) every multiple of n2."""
    return (wind >= m_r and (wind - m_r) % n2 == 0) or \
        (wind <= -m_l and (-wind - m_l) % n2 == 0)


def _bad_winding(s: Snippet, m_r: int, n2: int) -> InconsistentSnippet:
    return InconsistentSnippet(
        f"winding {s.wind} impossible for loci {s.start}->{s.end}"
        f" (forward walk passes {m_r} corners, polygon has {n2})")


def _record(nb: TieNeighbourhood, corn: int, verdict: str,
            typ: str | None = None, turn: str | None = None,
            j: int | None = None, vertical: bool = False,
            horizontal: bool = False, mid: bool = False) -> SnippetFacts:
    """The fact record with these values, one object per distinct record
    and class in the neighbourhood."""
    key = (corn, verdict, typ, turn, j, vertical, horizontal, mid)
    rec = nb._fact_records.get(key)
    if rec is None:
        cls = SnippetClass(verdict, typ, turn, vertical, horizontal, j)
        cls = nb._snippet_classes.setdefault(cls, cls)
        dual = vertical or horizontal
        row = (corn, int(verdict == CARRIED), int(dual and turn == RIGHT),
               int(dual and turn == LEFT), int(verdict == BAD))
        rec = nb._fact_records[key] = SnippetFacts(
            cls, row, turn if vertical else None, mid)
    return rec


def corner_length(s: Snippet, nb: TieNeighbourhood) -> int:
    """len_corn: vertical edges and branch edges count 1, switch edges 3,
    summed over the full edges of the cut-off piece's boundary walk; 2*s_N
    when no piece with non-negative index exists."""
    return facts(s, nb).row[0]


def is_bigon(cls: SnippetClass) -> bool:
    return cls.type in BIGON_TYPES


def is_trigon(cls: SnippetClass) -> bool:
    return cls.type in TRIGON_TYPES
