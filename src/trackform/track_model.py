"""Tie-neighbourhood model: regions, sides, gluings, vertices, and indices.

A branch rectangle has sides CCW: 0 = horizontal (right of the branch's 0->1
travel), 1 = tie end at end 1, 2 = horizontal (left side), 3 = tie end at end 0.
A switch rectangle (large end pictured east, smalls west, smalls listed
top-first) has sides CCW: 0 = bottom horizontal, 1 = large tie side,
2 = top horizontal, 3 = west side subdivided into segments
(3,0) = top small tie, (3,1) = cusp (vertical), (3,2) = bottom small tie.
Complementary regions are discs or peripheral annuli, as the track is
large; so every region meets the rest of the tiling along one glued cycle,
its polygon.  A face's polygon alternates vertical sides (cusps) and
horizontal sides (runs of rectangle horizontal edges, with marks between
consecutive edges).  An annulus also has one side on the surface boundary,
listed last: one locus, glued to nothing and on no polygon.

Every polygon is stored counter-clockwise as seen from inside its region,
so every gluing reverses orientation.  The tiling vertices are the orbits
of the corner permutation σ on the wedges (gaps) between consecutive loci
of a polygon: the point after position p is the CCW-start of the locus at
p+1, hence the CCW-end of its partner, so σ sends that gap to the gap after
the partner locus.

The builder reads each face word through one token table built from the
switch lines: per token, the rectangle segment the face side is glued to and
its successor, the token that follows it round its face.  Every face word
must be a cyclic orbit of the successor map.

A neighbourhood never changes once built, so it carries the tables the rest
of the program reads instead of walking its polygons: per locus its polygon
position, segment label and boundary flag, its gluing partner, and its step
table entry (the loci one step clockwise and counter-clockwise on the
polygon, and whether each of those gaps is a corner); per region its
polygon's corner and edge-weight prefix sums.  The partner table is the one
form of the gluing: it is derived from the builder's table of glued
segments, and a `Side` holds only its label and segment count.  The
neighbourhood also holds the tables filled as it meets snippets: the fact
table and its distinct records (`snippet_core`), and the push recipes
(`homotopy_engine`), each filed in one pass along its cut-off walk.  None
of these outlives the neighbourhood.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from .errors import (
    BadInput,
    InvalidValence,
    LowComplexity,
    NonNegativeIndexRegion,
    NotLarge,
)

Locus = tuple[int, int]  # (side index, segment index)

H = "h"
V = "v"
T = "t"
BOUNDARY = "boundary"

BRANCH = "branch"
SWITCH = "switch"
DISC = "disc"
ANNULUS = "annulus"


class SwitchDesc(NamedTuple):
    name: str
    large: tuple[str, int]
    smalls: tuple[tuple[str, int], tuple[str, int]]  # (top, bottom)


class FaceDesc(NamedTuple):
    kind: str  # "disc" | "annulus"
    word: tuple[str, ...]  # cyclic tokens, face on the left


class TrainTrackDesc(NamedTuple):
    genus: int
    boundary: int
    branches: tuple[str, ...]
    switches: tuple[SwitchDesc, ...]
    faces: tuple[FaceDesc, ...]


class Side(NamedTuple):
    label: str  # H | V | T | BOUNDARY
    n_segments: int


class Region(NamedTuple):
    kind: str  # BRANCH | SWITCH | DISC | ANNULUS
    name: str
    sides: tuple[Side, ...]  # CCW; an annulus's boundary side last


# The sides of every branch rectangle and of every switch rectangle, all
# on the polygon.  A switch rectangle's side 3 runs top-to-bottom CCW: small
# tie, cusp, small tie; the side label stays "t" and the locus table labels
# segment (3,1) as vertical.
_BRANCH_SIDES = (Side(H, 1), Side(T, 1), Side(H, 1), Side(T, 1))
_SWITCH_SIDES = (Side(H, 1), Side(T, 1), Side(H, 1), Side(T, 3))
_CUSP = (3, 1)


def index(chi: int, corners_down: int, corners_up: int) -> Fraction:
    """Index of a surface piece: chi - (outward corners)/4 + (inward corners)/4."""
    return Fraction(chi) - Fraction(corners_down, 4) + Fraction(corners_up, 4)


class TieNeighbourhood:
    """The tiled surface: rectangles plus complementary regions, with
    navigation tables (polygons, partners, tiling vertices).

    `gluing` maps each glued (region, side, segment) to the one glued to it,
    in both directions.  `name` is None until a caller names the track
    (`load_fixture` and the CLI do)."""

    def __init__(self, desc: TrainTrackDesc, regions: tuple[Region, ...],
                 gluing: dict[tuple[int, int, int], tuple[int, int, int]]):
        self.desc = desc
        self.regions = regions
        self.name: str | None = None
        self.region_id: dict[str, int] = {r.name: i for i, r in enumerate(regions)}
        # Per region: its polygon, the loci of its glued sides in side
        # order (CCW), and per locus (polygon position, segment label, on
        # the surface boundary?), the switch cusp labelled V and an
        # annulus's one boundary locus at position None; over two turns of
        # the polygon, the number of corners (side changes) among its first
        # i gaps and the edge weights of its first i loci, so a walk's
        # corners and the corner length of the loci it passes are
        # differences of two entries.
        # The step table gives, per polygon locus, its neighbours one step
        # clockwise and one step counter-clockwise and whether the gap to
        # each is a corner: (cw locus, cw gap a corner?, ccw locus, ccw gap
        # a corner?).  A push reads its slides and in-between snippets off
        # it.
        self._polygon: list[tuple[Locus, ...]] = []
        self._locus_info: list[dict[Locus, tuple[int | None, str, bool]]] = []
        self._steps: list[dict[Locus, tuple[Locus, bool, Locus, bool]]] = []
        self._corners_before: list[tuple[int, ...]] = []
        for r in regions:
            loci: list[Locus] = []
            info: dict[Locus, tuple[int | None, str, bool]] = {}
            for si, side in enumerate(r.sides):
                for gi in range(side.n_segments):
                    if side.label == BOUNDARY:
                        info[si, gi] = (None, BOUNDARY, True)
                        continue
                    label = V if r.kind == SWITCH and (si, gi) == _CUSP \
                        else side.label
                    info[si, gi] = (len(loci), label, False)
                    loci.append((si, gi))
            n = len(loci)
            steps: dict[Locus, tuple[Locus, bool, Locus, bool]] = {}
            for p, l in enumerate(loci):
                cw, ccw = loci[p - 1], loci[(p + 1) % n]
                steps[l] = (cw, cw[0] != l[0], ccw, l[0] != ccw[0])
            counts = [0]
            for p in range(2 * n):
                counts.append(counts[-1]
                              + (loci[p % n][0] != loci[(p + 1) % n][0]))
            self._polygon.append(tuple(loci))
            self._locus_info.append(info)
            self._steps.append(steps)
            self._corners_before.append(tuple(counts))
        # the (region, locus) glued to each locus, None on the surface
        # boundary; every locus in it is one of the polygon tuples above
        self._partners: list[dict[Locus, tuple[int, Locus] | None]] = [
            {l: None for l in info} for info in self._locus_info]
        for (ri, si, gi), (r2, s2, g2) in gluing.items():
            self._partners[ri][si, gi] = (
                r2, self._polygon[r2][self._locus_info[r2][s2, g2][0]])
        self.n_edges = len(gluing) // 2
        # edge weights count only on the glued sides of complementary
        # regions (vertical 1, horizontal by the rectangle across); rectangle
        # loci weigh 0, as no walk's length reads them
        self._weights_before: list[tuple[int, ...]] = []
        for ri, (r, loci) in enumerate(zip(regions, self._polygon)):
            w = [self.edge_weight(ri, l) if r.kind in (DISC, ANNULUS) else 0
                 for l in loci]
            sums = [0]
            for p in range(2 * len(loci)):
                sums.append(sums[-1] + w[p % len(loci)])
            self._weights_before.append(tuple(sums))
        # snippet -> fact record, filled and read by snippet_core, with the
        # distinct records it filed, so equal ones are one object
        self._classify_cache: dict = {}
        self._fact_records: dict = {}
        # bad snippet -> push recipe, filled and read by homotopy_engine
        self._push_recipes: dict = {}
        self._build_vertices()
        self.s_N = self._compute_s_N()
        self.boundary_components: tuple[tuple[int, int], ...] = tuple(
            (ri, si)
            for ri, r in enumerate(regions)
            for si, s in enumerate(r.sides)
            if s.label == BOUNDARY
        )
        # each annulus's boundary component: its index in the tuple above
        self.component_of = {ri: k for k, (ri, _) in
                             enumerate(self.boundary_components)}

    # -- basic navigation ---------------------------------------------------

    def partner(self, region: int, locus: Locus) -> tuple[int, Locus] | None:
        try:
            return self._partners[region][locus]
        except KeyError:
            raise BadInput(f"no locus {locus} in region {self.regions[region].name}") from None

    def side_label(self, region: int, locus: Locus) -> str:
        return self.regions[region].sides[locus[0]].label

    def polygon_loci(self, region: int) -> tuple[Locus, ...]:
        """The loci of the region's polygon, CCW: the loci of its glued
        sides in side order, where a curve may cross."""
        return self._polygon[region]

    def locus_position(self, region: int, locus: Locus) -> int | None:
        """Position of a locus on its region's polygon; None for an
        annulus's surface-boundary locus."""
        try:
            return self._locus_info[region][locus][0]
        except KeyError:
            raise BadInput(f"no locus {locus} in region {self.regions[region].name}") from None

    def boundary_side(self, region: int) -> int | None:
        k = self.component_of.get(region)
        return None if k is None else self.boundary_components[k][1]

    def total_corners(self, region: int) -> int:
        before = self._corners_before[region]  # two turns: 2n + 1 entries
        return before[len(before) // 2]

    def gap_is_corner(self, region: int, pos: int) -> bool:
        """Is the gap after polygon position pos a region corner (side
        change) rather than a mark (same side)?"""
        loci = self._polygon[region]
        n = len(loci)
        return loci[pos % n][0] != loci[(pos + 1) % n][0]

    # -- tiling vertices ------------------------------------------------------

    def _build_vertices(self) -> None:
        """The tiling vertices, as the orbits of the corner permutation σ.

        gap key = (region, pos): the wedge between polygon positions pos and
        pos+1, which σ sends to the gap at the partner of the locus at
        pos+1.  An annulus's surface-boundary side is glued to nothing and
        holds no tiling point.  Each vertex lists its gaps in order, and
        vertices are numbered in the order of the σ-images of their first
        gaps."""
        sigma: dict[tuple[int, int], tuple[int, int]] = {}
        for ri, loci in enumerate(self._polygon):
            partners = self._partners[ri]
            for p, l in enumerate(loci[1:] + loci[:1]):
                r2, l2 = partners[l]
                sigma[ri, p] = (r2, self._locus_info[r2][l2][0])
        orbits = []
        seen: set[tuple[int, int]] = set()
        for g in sigma:
            if g not in seen:
                orbit = [g]
                while sigma[orbit[-1]] != g:
                    orbit.append(sigma[orbit[-1]])
                seen.update(orbit)
                orbits.append(tuple(sorted(orbit)))
        self._vertex_gaps: list[tuple[tuple[int, int], ...]] = sorted(
            orbits, key=lambda v: sigma[v[0]])

    @property
    def n_vertices(self) -> int:
        return len(self._vertex_gaps)

    # -- derived measures ----------------------------------------------------

    def region_chi(self, region: int) -> int:
        return 0 if self.regions[region].kind == ANNULUS else 1

    def region_index(self, region: int) -> Fraction:
        return index(self.region_chi(region), self.total_corners(region), 0)

    def edge_weight(self, region: int, locus: Locus) -> int:
        """Corner-length weight of a full comp-region edge: vertical 1,
        branch horizontal 1, switch horizontal 3 (by the rectangle glued
        across; a horizontal locus is always glued)."""
        lbl = self.side_label(region, locus)
        if lbl == V:
            return 1
        if lbl == H:
            across = self.regions[self.partner(region, locus)[0]]
            return 1 if across.kind == BRANCH else 3
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
    def euler(self) -> int:
        return self.n_vertices - self.n_edges + sum(
            self.region_chi(ri) for ri in range(len(self.regions)))


# --- construction -----------------------------------------------------------


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
    if "" in branch_names or "" in switch_names:
        raise BadInput("branch and switch names must not be empty")

    # Every branch end in exactly one switch slot.
    branch_id = {x: i for i, x in enumerate(branch_names)}
    attached: set[tuple[str, int]] = set()
    for sw in desc.switches:
        if len(sw.smalls) != 2:
            raise InvalidValence(f"switch {sw.name} needs one large and two small ends")
        for end in (sw.large, *sw.smalls):
            bname, e = end
            if bname not in branch_id or e not in (0, 1):
                raise InvalidValence(f"switch {sw.name}: unknown end {end}")
            if end in attached:
                raise InvalidValence(f"branch end {end} attached twice")
            attached.add(end)
    missing = [(x, e) for x in branch_names for e in (0, 1) if (x, e) not in attached]
    if missing:
        raise InvalidValence(f"unattached branch ends: {missing}")

    gluing: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def glue(a: tuple[int, int, int], bref: tuple[int, int, int]) -> None:
        assert a not in gluing and bref not in gluing, f"double gluing {a} {bref}"
        gluing[a] = bref
        gluing[bref] = a

    # Region order: branches, switches, faces.  The token table gives each
    # face token the rectangle segment its face side is glued to and its
    # successor round the face.  Walking branch x into end e (x.l reaches
    # end 1, x.r end 0) leads to the token of the slot that end fills at
    # switch w: large w.b, top w.t, bottom w.c.  A switch token leads on
    # along a branch leaving w (x.l from end 0, x.r from end 1): w.b the
    # bottom small, w.t the large, w.c the top small.  Each slot is also
    # glued to the tie side at its branch end (side 1 at end 1, side 3 at
    # end 0).
    tokens: dict[str, tuple[tuple[int, int, int], str]] = {}
    for si, sw in enumerate(desc.switches, start=len(branch_names)):
        large, (top, bottom) = sw.large, sw.smalls
        for (x, e), suffix, slot in zip((large, top, bottom), "btc",
                                        ((1, 0), (3, 0), (3, 2))):
            tokens[f"{x}.{'rl'[e]}"] = ((branch_id[x], 2 * e, 0),
                                        f"{sw.name}.{suffix}")
            glue((si, *slot), (branch_id[x], 1 if e == 1 else 3, 0))
        for suffix, seg, (x, e) in (("b", (0, 0), bottom), ("t", (2, 0), large),
                                    ("c", _CUSP, top)):
            tokens[f"{sw.name}.{suffix}"] = ((si, *seg), f"{x}.{'lr'[e]}")

    # Face-token coverage.
    used: list[str] = [t for f in desc.faces for t in f.word]
    if sorted(used) != sorted(tokens):
        raise NotLarge("face words do not cover every horizontal edge and cusp exactly once")
    for f in desc.faces:
        if f.kind not in (DISC, ANNULUS):
            raise BadInput(f"unknown face kind {f.kind!r}")
        cusps = sum(1 for t in f.word if tokens[t][0][1:] == _CUSP)
        if f.kind == DISC and cusps < 3:
            raise NonNegativeIndexRegion(f"disc face with {cusps} cusp(s)")
        if f.kind == ANNULUS and cusps < 1:
            raise NonNegativeIndexRegion("annulus face with no cusp")
    n_annuli = sum(1 for f in desc.faces if f.kind == ANNULUS)
    if n_annuli != b:
        raise NotLarge(f"{n_annuli} annulus face(s) for declared boundary count {b}")
    for fi, f in enumerate(desc.faces):
        for tok, nxt in zip(f.word, f.word[1:] + f.word[:1]):
            if nxt != tokens[tok][1]:
                raise NotLarge(
                    f"face:{fi} does not follow the switches: {tok!r} is "
                    f"followed by {nxt!r}, not {tokens[tok][1]!r}")

    # rectangles share their sides; face sides are built as the words are
    # read, from the first cusp: a cusp, then the run of horizontal edges up
    # to the next cusp (a cusp is always followed by a branch edge)
    regions: list[Region] = [
        Region(BRANCH, f"br:{x}", _BRANCH_SIDES) for x in branch_names]
    regions += [Region(SWITCH, f"sw:{w}", _SWITCH_SIDES)
                for w in switch_names]
    for fi, f in enumerate(desc.faces):
        segs = [tokens[t][0] for t in f.word]
        first = next(i for i, seg in enumerate(segs) if seg[1:] == _CUSP)
        sides: list[Side] = []
        for cusp, run in groupby(segs[first:] + segs[:first],
                                 key=lambda seg: seg[1:] == _CUSP):
            run = list(run)
            for gi, seg in enumerate(run):
                glue((len(regions), len(sides), gi), seg)
            sides.append(Side(V, 1) if cusp else Side(H, len(run)))
        if f.kind == ANNULUS:
            sides.append(Side(BOUNDARY, 1))
        regions.append(Region(f.kind, f"face:{fi}", tuple(sides)))

    nb = TieNeighbourhood(desc, tuple(regions), gluing)

    if nb.euler != 2 - 2 * g - b:
        raise NotLarge(
            f"Euler characteristic {nb.euler} != {2 - 2 * g - b} for (g,b)=({g},{b})")
    assert all(len(v) == 3 for v in nb._vertex_gaps)
    assert nb.s_N >= 5
    return nb
