"""Tie-neighbourhood model: regions, sides, gluings, vertices, and indices.

A branch rectangle has sides CCW: 0 = horizontal (right of the branch's 0->1
travel), 1 = tie end at end 1, 2 = horizontal (left side), 3 = tie end at end 0.
A switch rectangle (large end pictured east, smalls west, smalls listed
top-first) has sides CCW: 0 = bottom horizontal, 1 = large tie side,
2 = top horizontal, 3 = west side subdivided into segments
(3,0) = top small tie, (3,1) = cusp (vertical), (3,2) = bottom small tie.
Complementary regions are discs or peripheral annuli; their polygon cycle
alternates vertical sides (cusps) and horizontal sides (runs of rectangle
horizontal edges, with marks between consecutive edges). Annuli carry one
extra side on the surface boundary, as a separate boundary cycle.

All boundary cycles are stored counter-clockwise as seen from inside the
region; every gluing then reverses orientation, and the tiling-vertex table is
built by identifying each edge's CCW-end with its partner's CCW-start.

A neighbourhood never changes once built, so it carries the tables the rest
of the program reads instead of walking its cycles: per locus its cycle,
position, segment label and boundary flag, its gluing partner, and its step
table entry (the loci one step clockwise and counter-clockwise on its
cycle, and whether each of those gaps is a corner); per cycle its corner
and edge-weight prefix sums.  It also holds the tables filled as it meets
snippets: the fact table (`snippet_core`), and the push recipes and the
in-between snippets threaded for them (`homotopy_engine`).  None of these
outlives the neighbourhood.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadInput,
    InvalidValence,
    LowComplexity,
    NonNegativeIndexRegion,
    NotLarge,
)

Locus = tuple[int, int]  # (side index, segment index)
PartnerRef = tuple[int, int, int]  # (region index, side index, segment index)

H = "h"
V = "v"
T = "t"
BOUNDARY = "boundary"

BRANCH = "branch"
SWITCH = "switch"
DISC = "disc"
ANNULUS = "annulus"


@dataclass(frozen=True)
class SwitchDesc:
    name: str
    large: tuple[str, int]
    smalls: tuple[tuple[str, int], tuple[str, int]]  # (top, bottom)


@dataclass(frozen=True)
class FaceDesc:
    kind: str  # "disc" | "annulus"
    word: tuple[str, ...]  # cyclic tokens, face on the left


@dataclass(frozen=True)
class TrainTrackDesc:
    genus: int
    boundary: int
    branches: tuple[str, ...]
    switches: tuple[SwitchDesc, ...]
    faces: tuple[FaceDesc, ...]


@dataclass(frozen=True)
class Side:
    label: str  # H | V | T | BOUNDARY
    partners: tuple[PartnerRef | None, ...]  # one per segment

    @property
    def n_segments(self) -> int:
        return len(self.partners)


@dataclass(frozen=True)
class Region:
    kind: str  # BRANCH | SWITCH | DISC | ANNULUS
    name: str
    sides: tuple[Side, ...]
    cycles: tuple[tuple[int, ...], ...]  # cycles of side indices, CCW


def index(chi: int, corners_down: int, corners_up: int) -> Fraction:
    """Index of a surface piece: chi - (outward corners)/4 + (inward corners)/4."""
    return Fraction(chi) - Fraction(corners_down, 4) + Fraction(corners_up, 4)


@dataclass(frozen=True)
class Walk:
    """A CCW boundary walk between two loci of one region (possibly empty)."""
    corners: int
    marks: int
    between: tuple[Locus, ...]  # loci strictly between the two endpoints


class TieNeighbourhood:
    """The tiled surface: rectangles plus complementary regions, with
    navigation tables (cycles, partners, tiling vertices)."""

    def __init__(self, desc: TrainTrackDesc, regions: tuple[Region, ...]):
        self.desc = desc
        self.regions = regions
        self.region_id: dict[str, int] = {r.name: i for i, r in enumerate(regions)}
        # Per region: the loci of each boundary cycle, CCW, and per locus
        # (cycle, position, segment label, on the surface boundary?), the
        # switch cusp labelled V; per cycle, over two turns, the number of
        # corners (side changes) among its first i gaps and the edge weights
        # of its first i loci, so a walk's corners and the corner length of
        # the loci it passes are differences of two entries.  Also the
        # polygon (non-boundary) cycle and the crossable loci of each region.
        # The step table gives, per locus, its neighbours one step clockwise
        # and one step counter-clockwise on its cycle and whether the gap to
        # each is a corner: (cw locus, cw gap a corner?, ccw locus, ccw gap a
        # corner?).  A push reads its slides and in-between snippets off it.
        self._cycle_loci: list[tuple[tuple[Locus, ...], ...]] = []
        self._locus_info: list[dict[Locus, tuple[int, int, str, bool]]] = []
        self._steps: list[dict[Locus, tuple[Locus, bool, Locus, bool]]] = []
        self._corners_before: list[tuple[tuple[int, ...], ...]] = []
        self._polygon_cycle: list[int | None] = []
        self._crossable: list[tuple[Locus, ...]] = []
        for r in regions:
            cycles = []
            info: dict[Locus, tuple[int, int, str, bool]] = {}
            steps: dict[Locus, tuple[Locus, bool, Locus, bool]] = {}
            prefixes = []
            for ci, cyc in enumerate(r.cycles):
                loci: list[Locus] = []
                for si in cyc:
                    for gi in range(r.sides[si].n_segments):
                        loci.append((si, gi))
                for p, l in enumerate(loci):
                    label = r.sides[l[0]].label
                    if r.kind == SWITCH and l == (3, 1):
                        label = V
                    info[l] = (ci, p, label, label == BOUNDARY)
                n = len(loci)
                for p, l in enumerate(loci):
                    cw, ccw = loci[p - 1], loci[(p + 1) % n]
                    steps[l] = (cw, cw[0] != l[0], ccw, l[0] != ccw[0])
                cycles.append(tuple(loci))
                counts = [0]
                for p in range(2 * n):
                    counts.append(counts[-1]
                                  + (loci[p % n][0] != loci[(p + 1) % n][0]))
                prefixes.append(tuple(counts))
            self._cycle_loci.append(tuple(cycles))
            self._locus_info.append(info)
            self._steps.append(steps)
            self._corners_before.append(tuple(prefixes))
            self._polygon_cycle.append(next(
                (ci for ci, cyc in enumerate(r.cycles)
                 if r.sides[cyc[0]].label != BOUNDARY), None))
            self._crossable.append(tuple(
                (si, gi) for si, side in enumerate(r.sides)
                if side.label != BOUNDARY for gi in range(side.n_segments)))
        # the (region, locus) glued to each locus, None on the surface
        # boundary; every locus in it is one of the cycle tuples above
        self._partners: list[dict[Locus, tuple[int, Locus] | None]] = [
            {l: None for l in info} for info in self._locus_info]
        for ri, r in enumerate(regions):
            for l in self._locus_info[ri]:
                ref = r.sides[l[0]].partners[l[1]]
                if ref is not None:
                    c2, p2 = self.locus_cycle(ref[0], ref[1:])
                    self._partners[ri][l] = (ref[0],
                                             self._cycle_loci[ref[0]][c2][p2])
        # edge weights count only on the glued sides of complementary
        # regions (vertical 1, horizontal by the rectangle across); rectangle
        # and surface-boundary loci weigh 0, as no walk's length reads them
        self._weights_before: list[tuple[tuple[int, ...], ...]] = []
        for ri, r in enumerate(regions):
            prefixes = []
            for loci in self._cycle_loci[ri]:
                w = [self.edge_weight(ri, l)
                     if r.kind in (DISC, ANNULUS)
                     and r.sides[l[0]].label in (H, V) else 0
                     for l in loci]
                sums = [0]
                for p in range(2 * len(loci)):
                    sums.append(sums[-1] + w[p % len(loci)])
                prefixes.append(tuple(sums))
            self._weights_before.append(tuple(prefixes))
        self._walks: dict[tuple[int, Locus, Locus], Walk] = {}
        # snippet -> fact record, filled and read by snippet_core, with the
        # distinct records and classes it filed, so equal ones are one object
        self._classify_cache: dict = {}
        self._fact_records: dict = {}
        self._snippet_classes: dict = {}
        # bad snippet -> push recipe, and (region, crossed locus, turn) ->
        # in-between snippet, filled and read by homotopy_engine
        self._push_recipes: dict = {}
        self._threads: dict = {}
        self._build_vertices()
        self.s_N = self._compute_s_N()
        self.boundary_components: tuple[tuple[int, int], ...] = tuple(
            (ri, si)
            for ri, r in enumerate(regions)
            for si, s in enumerate(r.sides)
            if s.label == BOUNDARY
        )

    # -- basic navigation ---------------------------------------------------

    def partner(self, region: int, locus: Locus) -> tuple[int, Locus] | None:
        try:
            return self._partners[region][locus]
        except KeyError:
            raise BadInput(f"no locus {locus} in region {self.regions[region].name}") from None

    def side_label(self, region: int, locus: Locus) -> str:
        return self.regions[region].sides[locus[0]].label

    def locus_label(self, region: int, locus: Locus) -> str:
        """Per-segment label: the middle segment of a switch rectangle's west
        side is the cusp and counts as vertical."""
        try:
            return self._locus_info[region][locus][2]
        except KeyError:
            raise BadInput(f"no locus {locus} in region {self.regions[region].name}") from None

    def cycle_loci(self, region: int, ci: int) -> tuple[Locus, ...]:
        return self._cycle_loci[region][ci]

    def locus_cycle(self, region: int, locus: Locus) -> tuple[int, int]:
        """(cycle index, position) of a locus."""
        try:
            ci, pos, _label, _boundary = self._locus_info[region][locus]
            return ci, pos
        except KeyError:
            raise BadInput(f"no locus {locus} in region {self.regions[region].name}") from None

    def polygon_cycle(self, region: int) -> int:
        """Cycle index of the polygon (non-boundary) cycle of a comp region."""
        ci = self._polygon_cycle[region]
        if ci is None:
            raise BadInput(
                f"region {self.regions[region].name} has no polygon cycle")
        return ci

    def crossable_loci(self, region: int) -> tuple[Locus, ...]:
        """Loci on glued sides of a region, side by side — the places a
        curve may cross."""
        return self._crossable[region]

    def boundary_side(self, region: int) -> int | None:
        r = self.regions[region]
        for si, s in enumerate(r.sides):
            if s.label == BOUNDARY:
                return si
        return None

    def total_corners(self, region: int, ci: int) -> int:
        before = self._corners_before[region][ci]  # two turns: 2n + 1 entries
        return before[len(before) // 2]

    def gap_is_corner(self, region: int, ci: int, pos: int) -> bool:
        """Is the gap after cycle position pos a region corner (side change)
        rather than a mark (same side)?"""
        loci = self._cycle_loci[region][ci]
        n = len(loci)
        return loci[pos % n][0] != loci[(pos + 1) % n][0]

    def walk_ccw(self, region: int, a: Locus, b: Locus) -> Walk:
        """CCW boundary walk from locus a to locus b (same cycle).

        Counts the corner and mark gaps passed and lists the loci strictly
        between. a == b gives the empty walk.  Each walk is computed once;
        loci that admit no walk raise on every call."""
        key = (region, a, b)
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = self._walk_ccw(region, a, b)
        return walk

    def _walk_ccw(self, region: int, a: Locus, b: Locus) -> Walk:
        ca, pa = self.locus_cycle(region, a)
        cb, pb = self.locus_cycle(region, b)
        if ca != cb:
            raise BadInput("walk endpoints on different boundary cycles")
        loci = self._cycle_loci[region][ca]
        gaps = (pb - pa) % len(loci)
        before = self._corners_before[region][ca]
        corners = before[pa + gaps] - before[pa]
        return Walk(corners, gaps - corners, (loci + loci)[pa + 1:pa + gaps])

    # -- tiling vertices ------------------------------------------------------

    def _build_vertices(self) -> None:
        """Union gaps (region wedges at tiling points) into vertices.

        gap key = (region, cycle, pos): the wedge between cycle position pos
        and pos+1. A gap relates to the partner-side gaps of both adjacent
        edges; classes must have exactly three wedges."""
        parent: dict[tuple[int, int, int], tuple[int, int, int]] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        gaps: list[tuple[int, int, int]] = []
        for ri, _ in enumerate(self.regions):
            for ci, loci in enumerate(self._cycle_loci[ri]):
                if len(loci) < 2:
                    continue  # surface-boundary circle: no tiling points
                for p in range(len(loci)):
                    g = (ri, ci, p)
                    parent[g] = g
                    gaps.append(g)

        for ri, ci, p in gaps:
            loci = self._cycle_loci[ri][ci]
            n = len(loci)
            before, after = loci[p], loci[(p + 1) % n]
            # The vertex is the CCW-end of `before`, which is the CCW-start of
            # its partner edge: the gap *preceding* the partner locus.
            pb = self.partner(ri, before)
            if pb is not None:
                r2, l2 = pb
                c2, p2 = self.locus_cycle(r2, l2)
                n2 = len(self._cycle_loci[r2][c2])
                union((ri, ci, p), (r2, c2, (p2 - 1) % n2))
            # ... and the CCW-start of `after`, i.e. the CCW-end of its
            # partner: the gap *at* the partner locus.
            pa = self.partner(ri, after)
            if pa is not None:
                r2, l2 = pa
                c2, p2 = self.locus_cycle(r2, l2)
                union((ri, ci, p), (r2, c2, p2))

        classes: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
        for g in gaps:
            classes.setdefault(find(g), []).append(g)
        bad = [c for c in classes.values() if len(c) != 3]
        if bad:
            raise NotLarge(
                f"tiling vertex with {len(bad[0])} wedges (face words inconsistent): {sorted(bad[0])}")
        self._vertex_gaps: list[tuple[tuple[int, int, int], ...]] = [
            tuple(sorted(classes[root])) for root in sorted(classes)]

    @property
    def n_vertices(self) -> int:
        return len(self._vertex_gaps)

    # -- derived measures ----------------------------------------------------

    def region_chi(self, region: int) -> int:
        return 0 if self.regions[region].kind == ANNULUS else 1

    def region_index(self, region: int) -> Fraction:
        ci = self.polygon_cycle(region) if self.regions[region].kind in (DISC, ANNULUS) else 0
        return index(self.region_chi(region), self.total_corners(region, ci), 0)

    def h_side_weight(self, region: int, locus: Locus) -> int:
        """Corner-length weight of the full edge at a comp-region horizontal
        locus: branch edge 1, switch edge 3."""
        pr = self.partner(region, locus)
        if pr is None:
            raise BadInput("boundary side has no weight")
        return 1 if self.regions[pr[0]].kind == BRANCH else 3

    def edge_weight(self, region: int, locus: Locus) -> int:
        """Corner-length weight of a full comp-region edge: vertical 1,
        branch horizontal 1, switch horizontal 3."""
        lbl = self.side_label(region, locus)
        if lbl == V:
            return 1
        if lbl == H:
            return self.h_side_weight(region, locus)
        raise BadInput(f"edge weight undefined for label {lbl}")

    def h_run_length(self, region: int, side: int) -> int:
        """s(C) of one horizontal side of a comp region."""
        r = self.regions[region]
        if r.sides[side].label != H:
            raise BadInput("not a horizontal side")
        return sum(self.edge_weight(region, (side, gi))
                   for gi in range(r.sides[side].n_segments))

    def _compute_s_N(self) -> int:
        best = 0
        for ri, r in enumerate(self.regions):
            if r.kind not in (DISC, ANNULUS):
                continue
            for si, s in enumerate(r.sides):
                if s.label == H:
                    best = max(best, self.h_run_length(ri, si))
        return best

    @property
    def n_edges(self) -> int:
        return sum(
            1
            for ri, r in enumerate(self.regions)
            for si, s in enumerate(r.sides)
            for gi in range(s.n_segments)
            if s.partners[gi] is not None
        ) // 2

    @property
    def euler(self) -> int:
        return self.n_vertices - self.n_edges + sum(
            self.region_chi(ri) for ri in range(len(self.regions)))


# --- construction -----------------------------------------------------------


def _parse_token(tok: str, branches: set[str], switches: set[str]
                 ) -> tuple[str, str, str]:
    """-> (kind, owner, flavour): kind in {'bh','sh','cusp'}."""
    stem, _, suf = tok.rpartition(".")
    if not stem or suf not in ("l", "r", "t", "b", "c"):
        raise BadInput(f"malformed face token {tok!r}")
    if suf in ("l", "r"):
        if stem not in branches:
            raise BadInput(f"face token {tok!r}: unknown branch {stem!r}")
        return "bh", stem, suf
    if stem not in switches:
        raise BadInput(f"face token {tok!r}: unknown switch {stem!r}")
    return ("cusp" if suf == "c" else "sh"), stem, suf


def build_tie_neighbourhood(desc: TrainTrackDesc) -> TieNeighbourhood:
    g, b = desc.genus, desc.boundary
    if 3 * g - 3 + b < 1:
        raise LowComplexity(f"3g-3+b = {3 * g - 3 + b} < 1 for (g,b)=({g},{b})")

    branch_names = list(desc.branches)
    if len(set(branch_names)) != len(branch_names):
        raise BadInput("duplicate branch names")
    switch_names = [s.name for s in desc.switches]
    if len(set(switch_names)) != len(switch_names):
        raise BadInput("duplicate switch names")
    if set(branch_names) & set(switch_names):
        raise BadInput("branch and switch names must not collide")

    # Every branch end in exactly one switch slot.
    slot_of_end: dict[tuple[str, int], tuple[str, str]] = {}
    for sw in desc.switches:
        ends = [sw.large, sw.smalls[0], sw.smalls[1]]
        if len(ends) != 3 or len(sw.smalls) != 2:
            raise InvalidValence(f"switch {sw.name} needs one large and two small ends")
        for end, slot in zip(ends, ("large", "top", "bottom")):
            bname, e = end
            if bname not in set(branch_names) or e not in (0, 1):
                raise InvalidValence(f"switch {sw.name}: unknown end {end}")
            if end in slot_of_end:
                raise InvalidValence(f"branch end {end} attached twice")
            slot_of_end[end] = (sw.name, slot)
    missing = [(x, e) for x in branch_names for e in (0, 1) if (x, e) not in slot_of_end]
    if missing:
        raise InvalidValence(f"unattached branch ends: {missing}")

    # Face-token coverage.
    bset, sset = set(branch_names), set(switch_names)
    expected = {f"{x}.{s}" for x in branch_names for s in ("l", "r")}
    expected |= {f"{w}.{s}" for w in switch_names for s in ("t", "b", "c")}
    used: list[str] = [t for f in desc.faces for t in f.word]
    if sorted(used) != sorted(expected):
        raise NotLarge("face words do not cover every horizontal edge and cusp exactly once")
    for f in desc.faces:
        if f.kind not in (DISC, ANNULUS):
            raise BadInput(f"unknown face kind {f.kind!r}")
        cusps = sum(1 for t in f.word if _parse_token(t, bset, sset)[0] == "cusp")
        if f.kind == DISC and cusps < 3:
            raise NonNegativeIndexRegion(f"disc face with {cusps} cusp(s)")
        if f.kind == ANNULUS and cusps < 1:
            raise NonNegativeIndexRegion("annulus face with no cusp")
    n_annuli = sum(1 for f in desc.faces if f.kind == ANNULUS)
    if n_annuli != b:
        raise NotLarge(f"{n_annuli} annulus face(s) for declared boundary count {b}")

    # Region order: branches, switches, faces.
    names: list[str] = [f"br:{x}" for x in branch_names]
    names += [f"sw:{w}" for w in switch_names]
    names += [f"face:{i}" for i in range(len(desc.faces))]
    ridx = {n: i for i, n in enumerate(names)}

    # Where does each branch end attach on its switch rectangle?
    def switch_slot_side(sw_name: str, slot: str) -> tuple[int, int]:
        return {"large": (1, 0), "top": (3, 0), "bottom": (3, 2)}[slot]

    def branch_end_side(end: int) -> tuple[int, int]:
        return (1, 0) if end == 1 else (3, 0)

    # token -> (region index, side index) of the rectangle horizontal edge
    def token_rect_side(tok: str) -> tuple[int, int]:
        kind, owner, fl = _parse_token(tok, bset, sset)
        if kind == "bh":
            return ridx[f"br:{owner}"], (0 if fl == "r" else 2)
        if kind == "sh":
            return ridx[f"sw:{owner}"], (0 if fl == "b" else 2)
        raise BadInput(f"token {tok!r} is not a horizontal edge")

    partners: dict[tuple[int, int, int], PartnerRef] = {}

    def glue(a: tuple[int, int, int], bref: tuple[int, int, int]) -> None:
        assert a not in partners and bref not in partners, f"double gluing {a} {bref}"
        partners[a] = bref
        partners[bref] = a

    # t-gluings from switches
    for sw in desc.switches:
        for end, slot in zip((sw.large, sw.smalls[0], sw.smalls[1]),
                             ("large", "top", "bottom")):
            bname, e = end
            sside, sseg = switch_slot_side(sw.name, slot)
            bside, bseg = branch_end_side(e)
            glue((ridx[f"sw:{sw.name}"], sside, sseg), (ridx[f"br:{bname}"], bside, bseg))

    # face sides
    face_sides: list[list[Side]] = []
    face_cycles: list[tuple[tuple[int, ...], ...]] = []
    for fi, f in enumerate(desc.faces):
        w = list(f.word)
        starts = [i for i, t in enumerate(w) if _parse_token(t, bset, sset)[0] == "cusp"]
        rot = w[starts[0]:] + w[:starts[0]]
        sides: list[Side] = []
        fridx = ridx[f"face:{fi}"]
        i = 0
        while i < len(rot):
            tok = rot[i]
            kind, owner, _fl = _parse_token(tok, bset, sset)
            if kind == "cusp":
                si = len(sides)
                sides.append(Side(V, (None,)))  # partner filled below
                glue((fridx, si, 0), (ridx[f"sw:{owner}"], 3, 1))
                i += 1
            else:
                run = []
                while i < len(rot) and _parse_token(rot[i], bset, sset)[0] != "cusp":
                    run.append(rot[i])
                    i += 1
                si = len(sides)
                sides.append(Side(H, tuple(None for _ in run)))
                for gi, t in enumerate(run):
                    rr, rs = token_rect_side(t)
                    glue((fridx, si, gi), (rr, rs, 0))
        poly = tuple(range(len(sides)))
        if f.kind == ANNULUS:
            sides.append(Side(BOUNDARY, (None,)))
            face_cycles.append((poly, (len(sides) - 1,)))
        else:
            face_cycles.append((poly,))
        face_sides.append(sides)

    # materialize regions with partner tuples
    regions: list[Region] = []
    for x in branch_names:
        ri = ridx[f"br:{x}"]
        sides = []
        for si, lbl in ((0, H), (1, T), (2, H), (3, T)):
            nseg = 1
            segs = tuple(partners.get((ri, si, gi)) for gi in range(nseg))
            sides.append(Side(lbl, segs))
        regions.append(Region(BRANCH, f"br:{x}", tuple(sides), ((0, 1, 2, 3),)))
    for w in switch_names:
        ri = ridx[f"sw:{w}"]
        sides = []
        for si, lbl, nseg in ((0, H, 1), (1, T, 1), (2, H, 1)):
            segs = tuple(partners.get((ri, si, gi)) for gi in range(nseg))
            sides.append(Side(lbl, segs))
        # side 3 runs top-to-bottom CCW: small tie, cusp, small tie; the side
        # label stays "t" and locus_label() reports segment (3,1) as vertical
        segs = tuple(partners.get((ri, 3, gi)) for gi in range(3))
        sides.append(Side(T, segs))
        regions.append(Region(SWITCH, f"sw:{w}", tuple(sides), ((0, 1, 2, 3),)))
    for fi, f in enumerate(desc.faces):
        ri = ridx[f"face:{fi}"]
        sides = [
            Side(s.label, tuple(partners.get((ri, si, gi)) for gi in range(s.n_segments)))
            for si, s in enumerate(face_sides[fi])
        ]
        kind = DISC if f.kind == DISC else ANNULUS
        regions.append(Region(kind, f"face:{fi}", tuple(sides), face_cycles[fi]))

    nb = TieNeighbourhood(desc, tuple(regions))

    if nb.euler != 2 - 2 * g - b:
        raise NotLarge(
            f"Euler characteristic {nb.euler} != {2 - 2 * g - b} for (g,b)=({g},{b})")
    for ri, r in enumerate(nb.regions):
        if r.kind in (DISC, ANNULUS) and nb.region_index(ri) > Fraction(-1, 4):
            raise NonNegativeIndexRegion(f"region {r.name} has index {nb.region_index(ri)}")
    assert sum(nb.region_index(ri) for ri, r in enumerate(nb.regions)
               if r.kind in (BRANCH, SWITCH)) == 0
    assert nb.s_N >= 5
    return nb
