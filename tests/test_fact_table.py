"""The per-neighbourhood fact table and the memoised navigation tables, each
checked against a cold recomputation; the snippet and record value types;
and the direct curve/1 writer against `json.dumps`.

The reference for a fact record is the walk-based derivation the
table-driven `snippet_core._classify_uncached` replaced: it builds both
boundary walks between the endpoints and reads validity, class and corner
length off them.  It finds each walk, and the corners of a turn, by stepping
round the region's polygon gap by gap (`polygon_loci`, `gap_is_corner`),
locates loci by scanning the polygon and labels them from their sides, so
it reads none of the neighbourhood's prefix or locus tables.  Every snippet
of each fixture's locus space, and random snippets, must get the same record
(or the same `InconsistentSnippet`) from both, and every push recipe must
equal one built from the reference walk.  The reference's slides step along
the polygon tuples (`_slide_target`), not along the neighbourhood's step
table, and its in-between snippets hug a computed walk (`_hug_wind`)."""
from __future__ import annotations

import json
import random
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackform.snippet_core as snippet_core
from conftest import load_loop_track, segment_label
from trackform.curve_ops import (ARC, CLOSED, Curve, LengthReport, measure,
                                 validate_curve)
from trackform.errors import BadInput, GenerationFailed, InconsistentSnippet
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.formats import parse_curve, serialize_curve
from trackform.generate import (boundary_power, doubled_back,
                                peripheral_bounce, random_arc, random_closed,
                                trivial_loop)
from trackform.homotopy_engine import (EXPECTED_J, PushRecipe,
                                       _push_recipe_uncached, hom)
from trackform.pipelines import EFFICIENT, Result, efficient_position
from trackform.snippet_core import (BAD, CARRIED, DUAL_COMP, DUAL_TIE, LEFT,
                                    PERIPHERAL, R_BOUNDARY, R_TRIVIAL, RIGHT,
                                    TRIVIAL, Snippet, SnippetFacts, classify,
                                    corner_length, fact_table, is_bigon,
                                    is_trigon, valid_winds)
from trackform.track_model import (ANNULUS, BOUNDARY, BRANCH, DISC, SWITCH,
                                   FaceDesc, H, Locus, Region, Side,
                                   SwitchDesc, T, TieNeighbourhood,
                                   TrainTrackDesc, V)
from trackform.verification import (AuditReport, EfficiencyReport,
                                    OracleVerdict, audit_trace)

# -- the reference derivation -------------------------------------------------


def _locus_ok(nb: TieNeighbourhood, region: int, locus: Locus) -> bool:
    si, gi = locus
    sides = nb.regions[region].sides
    return 0 <= si < len(sides) and 0 <= gi < sides[si].n_segments


class _Class(NamedTuple):
    """A snippet's class as the reference derives it: the fact record's
    first six fields."""
    verdict: str
    type: str | None = None
    turn: str | None = None
    vertical_dual: bool = False
    horizontal_dual: bool = False
    j: int | None = None

    @property
    def bad(self) -> bool:
        return self.verdict == BAD


class _Walk(NamedTuple):
    """A CCW boundary walk: the corner and mark gaps it passes and the loci
    strictly between its endpoints."""
    corners: int
    marks: int
    between: tuple[Locus, ...]


def _locate(nb: TieNeighbourhood, ri: int, locus: Locus) -> int:
    """Polygon position of a locus, found by scanning the polygon."""
    loci = nb.polygon_loci(ri)
    assert locus in loci, f"no locus {locus} on the polygon of region {ri}"
    return loci.index(locus)


def _stepped_walk(nb: TieNeighbourhood, ri: int, a: Locus, b: Locus,
                  corners: int | None = None) -> _Walk:
    """The CCW walk from a to b found by stepping gap by gap: the first
    arrival at b (a == b gives the empty walk), or the one passing exactly
    `corners` corners, full turns of the polygon included."""
    p = _locate(nb, ri, a)
    loci = nb.polygon_loci(ri)
    assert b in loci, f"no locus {b} on the polygon of region {ri}"
    passed = marks = 0
    between = []
    while loci[p] != b or (corners is not None and passed != corners):
        assert corners is None or passed <= corners, (
            f"walk cannot pass {corners} corners from {a} to {b}")
        if nb.gap_is_corner(ri, p):
            passed += 1
        else:
            marks += 1
        p = (p + 1) % len(loci)
        between.append(loci[p])
    return _Walk(passed, marks, tuple(between[:-1]))


def _turn_corners(nb: TieNeighbourhood, ri: int) -> int:
    """n2: the corners passed in one turn of the region's polygon, counted
    gap by gap."""
    return sum(nb.gap_is_corner(ri, p)
               for p in range(len(nb.polygon_loci(ri))))


def _check_snippet(s: Snippet, nb: TieNeighbourhood) -> None:
    """The full validity check: region, loci, and the winding the loci
    admit."""
    if not (0 <= s.region < len(nb.regions)):
        raise InconsistentSnippet(f"no region {s.region}")
    r = nb.regions[s.region]
    if (s.start is None) != (s.end is None):
        raise InconsistentSnippet("one endpoint closed, the other not")
    on_boundary = False
    if not s.closed:
        for locus in (s.start, s.end):
            if not _locus_ok(nb, s.region, locus):
                raise InconsistentSnippet(f"no locus {locus} in region {r.name}")
        on_boundary = any(nb.side_label(s.region, l) == BOUNDARY
                          for l in (s.start, s.end))
        if r.kind != ANNULUS and on_boundary:
            raise InconsistentSnippet("boundary endpoint outside an annulus region")
    if r.kind != ANNULUS or on_boundary:
        if s.wind != 0:
            raise InconsistentSnippet(
                f"winding {s.wind} must be 0 for {r.name} snippet")
        return
    n2 = _turn_corners(nb, s.region)
    if s.closed or s.start == s.end:
        m_r = 0
        ok = s.wind % n2 == 0
    else:
        m_r = _stepped_walk(nb, s.region, s.start, s.end).corners
        m_l = _stepped_walk(nb, s.region, s.end, s.start).corners
        ok = (s.wind >= m_r and (s.wind - m_r) % n2 == 0) or \
             (s.wind <= -m_l and (-s.wind - m_l) % n2 == 0)
    if not ok:
        raise InconsistentSnippet(
            f"winding {s.wind} impossible for loci {s.start}->{s.end}"
            f" (forward walk passes {m_r} corners, polygon has {n2})")


def _t_walk(s: Snippet, nb: TieNeighbourhood) -> tuple[_Walk, str] | None:
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
            return _stepped_walk(nb, s.region, s.start, s.end, s.wind), RIGHT
        if s.wind < 0:
            return _stepped_walk(nb, s.region, s.end, s.start, -s.wind), LEFT
        wr = _stepped_walk(nb, s.region, s.start, s.end)
        if wr.corners == 0:
            return wr, RIGHT
        wl = _stepped_walk(nb, s.region, s.end, s.start)
        assert wl.corners == 0, "winding 0 requires a corner-free side"
        return wl, LEFT
    wr = _stepped_walk(nb, s.region, s.start, s.end)
    wl = _stepped_walk(nb, s.region, s.end, s.start)
    if wr.corners <= wl.corners:
        best, side = wr, RIGHT
    else:
        best, side = wl, LEFT
    if best.corners > 2:
        return None
    return best, side


def _classify_uncached(s: Snippet, nb: TieNeighbourhood) -> _Class:
    _check_snippet(s, nb)
    r = nb.regions[s.region]

    if s.closed:
        if r.kind in (BRANCH, SWITCH):
            return _Class(BAD, TRIVIAL)
        if r.kind == ANNULUS and s.wind != 0:
            return _Class(BAD, PERIPHERAL)
        return _Class(BAD, R_TRIVIAL)

    if r.kind in (BRANCH, SWITCH):
        return _classify_rect(s, nb)

    labels = (nb.side_label(s.region, s.start), nb.side_label(s.region, s.end))
    if labels.count(BOUNDARY) == 2:
        return _Class(BAD, R_BOUNDARY)
    if labels.count(BOUNDARY) == 1:
        return _Class(DUAL_COMP)

    if r.kind == ANNULUS and abs(s.wind) >= 3:
        return _Class(DUAL_COMP)

    tw = _t_walk(s, nb)
    if tw is None:
        return _Class(DUAL_COMP)
    walk, side = tw
    if walk.corners == 2:
        # index-zero strip: a dual; flavour from the endpoint labels
        vert = labels == (H, H)
        horiz = labels == (V, V)
        return _Class(DUAL_COMP, turn=side, vertical_dual=vert,
                      horizontal_dual=horiz)
    x, y = sorted(labels)
    typ = f"R({x},{y})"
    j = walk.corners + walk.marks
    return _Class(BAD, typ, turn=side if j > 0 else None, j=j)


def _classify_rect(s: Snippet, nb: TieNeighbourhood) -> _Class:
    r = nb.regions[s.region]
    la, lb = (segment_label(nb, s.region, s.start),
              segment_label(nb, s.region, s.end))
    sa, sb = s.start[0], s.end[0]
    if r.kind == BRANCH:
        if {la, lb} == {T} and sa != sb:
            return _Class(CARRIED)
        if {la, lb} == {H} and sa != sb:
            return _Class(DUAL_TIE)
        prefix = "B"
    else:
        if {sa, sb} == {1, 3}:
            return _Class(CARRIED)
        if {la, lb} == {H} and sa != sb:
            return _Class(DUAL_TIE)
        prefix = "S"
    tw = _t_walk(s, nb)
    assert tw is not None, "rectangle snippets always cut a piece"
    walk, side = tw
    assert walk.corners <= 1, "no efficient rectangle snippet reaches here"
    j = walk.corners + walk.marks
    x, y = sorted((la, lb))
    typ = f"{prefix}({x},{y})" if prefix == "B" else f"S({x},{y},{j})"
    return _Class(BAD, typ, turn=side if j > 0 else None, j=j)


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


def _reference_facts(s, nb) -> SnippetFacts:
    """The fact record (class, counter row, outer, mid) as the reference
    derives it."""
    cls = _classify_uncached(s, nb)
    dual = cls.vertical_dual or cls.horizontal_dual
    row = (_corner_length_uncached(s, nb), int(cls.verdict == CARRIED),
           int(dual and cls.turn == RIGHT), int(dual and cls.turn == LEFT),
           int(cls.bad))
    return SnippetFacts(
        *cls, row, cls.turn if cls.vertical_dual else None,
        cls.verdict == DUAL_TIE and nb.regions[s.region].kind == BRANCH)


def _slide_target(nb: TieNeighbourhood, region: int, locus: Locus,
                  at_ccw_start: bool) -> tuple[Locus, bool, bool]:
    """Slide an endpoint off `locus` through the tiling point at its CCW start
    (or end), onto the adjacent locus across that wedge.

    Returns (new locus, slid counter-clockwise?, crossed a region corner?).
    """
    pos = _locate(nb, region, locus)
    loci = nb.polygon_loci(region)
    n = len(loci)
    if at_ccw_start:
        gap = (pos - 1) % n
        return loci[gap], False, nb.gap_is_corner(region, gap)
    return loci[(pos + 1) % n], True, nb.gap_is_corner(region, pos)


def _hug_wind(nb: TieNeighbourhood, region: int, start: Locus, end: Locus,
              crossed: Locus, dir_right: bool) -> int:
    """Winding of an in-between snippet threaded through an annulus: it hugs
    the crossed edge's locus, on the left of a right-turning push."""
    if nb.regions[region].kind != ANNULUS:
        return 0
    first, last = (end, start) if dir_right else (start, end)
    # two walks, not one from first to last: in the one-cusp annulus of a
    # loop branch first and last are one locus
    to = _stepped_walk(nb, region, first, crossed)
    on = _stepped_walk(nb, region, crossed, last)
    assert to.between == on.between == (), \
        "in-between snippet does not hug its edge"
    return (-1 if dir_right else 1) * (to.corners + on.corners)


def _reference_recipe(a, nb):
    """A push recipe built on the reference's cut-off walk."""
    cls = _reference_facts(a, nb)
    assert cls.bad and not a.closed, "recipes are for open bad snippets"
    tw = _t_walk(a, nb)
    assert tw is not None, "bad snippet without a cut-off walk"
    walk, side = tw
    dir_right = side == RIGHT
    j = walk.corners + walk.marks
    if cls.type in EXPECTED_J:
        assert j in EXPECTED_J[cls.type], (cls.type, j)
    assert cls.j == j

    before = nb.partner(a.region, a.start)
    if j == 0:
        return PushRecipe(cls, before, before, None, 0, None, 0, (), ())

    p_region, p_locus = before
    new_end, slid_ccw, corner = _slide_target(nb, p_region, p_locus, dir_right)
    d_end = (1 if slid_ccw else -1) if corner else 0
    after = nb.partner(a.region, a.end)
    q_region, q_locus = after
    new_start, slid_ccw2, corner2 = _slide_target(
        nb, q_region, q_locus, not dir_right)
    d_start = (-1 if slid_ccw2 else 1) if corner2 else 0

    between = walk.between if dir_right else tuple(reversed(walk.between))
    inners = []
    for ci_locus in between:
        w_region, w_locus = nb.partner(a.region, ci_locus)
        s_loc, _, _ = _slide_target(nb, w_region, w_locus, not dir_right)
        e_loc, _, _ = _slide_target(nb, w_region, w_locus, dir_right)
        wind = _hug_wind(nb, w_region, s_loc, e_loc, w_locus, dir_right)
        inners.append(Snippet(w_region, s_loc, e_loc, wind))
    return PushRecipe(cls, before, after, new_end, d_end, new_start, d_start,
                      tuple(inners),
                      tuple(_reference_facts(s, nb) for s in inners))


def _outcome(derive, s, nb):
    """What `derive` makes of a snippet: its result or its error message."""
    try:
        return derive(s, nb)
    except InconsistentSnippet as exc:
        return ("InconsistentSnippet", str(exc))


def _table_facts(s, nb):
    return tuple(snippet_core._classify_uncached(s, nb))


# -- the fact table -----------------------------------------------------------


def _annuli(nb):
    return [ri for ri, r in enumerate(nb.regions) if r.kind == ANNULUS]


def _corpus(nb, name):
    """Closed curves, arcs, doubled-back and peripheral inputs, closed
    snippets."""
    for seed in range(10):
        rng = random.Random(f"{name}/{seed}/facts")
        yield random_closed(nb, rng, rng.randrange(2, 40))
        yield random_arc(nb, rng, rng.randrange(3, 40))
    yield doubled_back(nb, random.Random(name), 4)
    yield trivial_loop(nb, 0)
    for ri in _annuli(nb):
        yield peripheral_bounce(nb, ri, 2)
        yield boundary_power(nb, ri, 1)


def _push_every_bad(curve, nb):
    """Push each bad position of the curve once, from the input curve."""
    n = len(curve.snippets)
    for k, s in enumerate(curve.snippets):
        legal = curve.kind == CLOSED or 0 < k < n - 1
        if n >= 2 and legal and not s.closed and classify(s, nb).bad:
            hom(curve, k, nb)


@pytest.fixture(scope="module")
def warm():
    """Fresh neighbourhoods whose fact tables hold every snippet of the
    corpus, every snippet `hom` produced from it, and everything a run and
    its audit touched."""
    out = {}
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for c in _corpus(nb, name):
            measure(c, nb)
            _push_every_bad(c, nb)
            res = efficient_position(c, nb)
            audit_trace(res.events, c, res.curve, nb)
        out[name] = nb
    return out


def test_fact_records_equal_cold_recomputation(warm):
    seen = {"carried": 0, "outer": 0, "mid": 0, "bad": 0, "dual": 0}
    for name, nb in warm.items():
        fresh = load_fixture(name)
        table = fact_table(nb)
        assert len(table) > 100
        for s, rec in table.items():
            ref = _reference_facts(s, fresh)
            dual = ref.vertical_dual or ref.horizontal_dual
            assert rec == ref, s
            assert classify(s, nb) is rec
            assert corner_length(s, nb) == ref.row[0]
            seen["carried"] += ref.verdict == CARRIED
            seen["outer"] += rec.outer is not None
            seen["mid"] += rec.mid
            seen["bad"] += ref.bad
            seen["dual"] += dual and not ref.vertical_dual
    assert all(seen.values()), seen


def _loci(nb, ri):
    return [(si, gi) for si, side in enumerate(nb.regions[ri].sides)
            for gi in range(side.n_segments)]


def _endpoints(nb, ri):
    """Every locus of the region, the closed endpoint, and two loci the
    region lacks."""
    sides = nb.regions[ri].sides
    return _loci(nb, ri) + [None, (len(sides), 0), (0, sides[0].n_segments)]


def _windings(nb, ri):
    if nb.regions[ri].kind == ANNULUS:
        n2 = _turn_corners(nb, ri)
        return range(-3 * n2 - 2, 3 * n2 + 3)
    return range(-1, 2)


def _kind_of(s, nb, outcome):
    """Which part of the snippet space a compared snippet belongs to."""
    if outcome[0] == "InconsistentSnippet":
        return "invalid"
    if s.closed:
        return "closed"
    labels = [nb.side_label(s.region, l) for l in (s.start, s.end)]
    if labels.count(BOUNDARY) == 1:
        return "one-boundary"
    if labels.count(BOUNDARY) == 2:
        return "boundary"
    return "wound" if abs(s.wind) >= 3 else outcome.verdict


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_snippet_files_the_reference_record(name):
    """All (region, start, end) of the fixture with the windings around each
    region's corner period: the filed record, or the InconsistentSnippet
    message, equals the reference's, on a cold and then a warm table."""
    nb, ref = load_fixture(name), load_fixture(name)
    seen: dict[str, int] = {}
    invalid = [Snippet(-1, (0, 0), (0, 0)),
               Snippet(len(nb.regions), None, None)]
    for ri in range(len(nb.regions)):
        ends = _endpoints(nb, ri)
        for wind in _windings(nb, ri):
            for a in ends:
                for b in ends:
                    s = Snippet(ri, a, b, wind)
                    want = _outcome(_reference_facts, s, ref)
                    assert _outcome(classify, s, nb) == want, s
                    kind = _kind_of(s, nb, want)
                    seen[kind] = seen.get(kind, 0) + 1
                    if kind == "invalid":
                        invalid.append(s)
    assert {"invalid", "closed", BAD, DUAL_COMP} <= set(seen), seen
    if any(r.kind == ANNULUS for r in nb.regions):
        assert {"one-boundary", "boundary", "wound"} <= set(seen), seen
    # on the now warm table every invalid snippet still raises
    for s in invalid:
        with pytest.raises(InconsistentSnippet) as exc:
            classify(s, nb)
        assert str(exc.value) == _outcome(_reference_facts, s, ref)[1]
    assert not set(invalid) & set(fact_table(nb))


_SHARED = {name: (load_fixture(name), load_fixture(name))
           for name in FIXTURE_NAMES}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), data=st.data())
def test_random_snippets_file_the_reference_record(name, data):
    """Random snippets, valid or not, on tables shared across examples: the
    record or error equals the reference's."""
    nb, ref = _SHARED[name]
    ri = data.draw(st.integers(-1, len(nb.regions)), label="region")
    region = nb.regions[ri if 0 <= ri < len(nb.regions) else 0]
    locus = st.none() | st.tuples(
        st.integers(-1, len(region.sides)),
        st.integers(-1, max(side.n_segments for side in region.sides)))
    s = Snippet(ri, data.draw(locus, label="start"),
                data.draw(locus, label="end"),
                data.draw(st.integers(-20, 20), label="wind"))
    want = _outcome(_reference_facts, s, ref)
    assert _outcome(classify, s, nb) == want
    assert _outcome(_table_facts, s, load_fixture(name)) == want


def test_push_recipes_equal_the_reference_recipe():
    """Every bigon and trigon snippet of each fixture's locus space (the
    pushable ones), and of the loop-branch track's, gets the recipe the
    reference walk gives."""
    loaders = [partial(load_fixture, n) for n in FIXTURE_NAMES]
    for load in (*loaders, load_loop_track):
        nb, ref = load(), load()
        pushed = 0
        for ri in range(len(nb.regions)):
            for wind in _windings(nb, ri):
                for a in _loci(nb, ri):
                    for b in _loci(nb, ri):
                        s = Snippet(ri, a, b, wind)
                        try:
                            cls = classify(s, nb)
                        except InconsistentSnippet:
                            continue
                        if is_bigon(cls) or is_trigon(cls):
                            assert _push_recipe_uncached(s, nb, cls) == \
                                _reference_recipe(s, ref), s
                            pushed += 1
        assert pushed > 100, nb.name


def test_invalid_snippets_still_raise_on_a_warm_table(warm):
    nb = warm["t11"]
    br, f = nb.region_id["br:a"], nb.region_id["face:0"]
    assert nb.regions[f].kind == ANNULUS
    invalid = [
        Snippet(br, (0, 0), None),          # half-closed
        Snippet(br, (0, 0), (2, 0), 1),     # winding outside an annulus
        Snippet(br, (4, 0), (0, 0)),        # no such side
        Snippet(f, (1, 5), (1, 0), 0),      # no such segment
        Snippet(f, (1, 0), (1, 0), 1),      # same locus, winding off period
        Snippet(99, (0, 0), (0, 0)),        # no such region
    ]
    # the valid neighbours of these encodings are in the table
    assert Snippet(br, (0, 0), (2, 0)) in fact_table(nb)
    for s in invalid:
        with pytest.raises(InconsistentSnippet):
            classify(s, nb)
        assert s not in fact_table(nb)
    with pytest.raises(InconsistentSnippet):
        validate_curve(Curve(ARC, (Snippet(br, (0, 0), (2, 0)),
                                   Snippet(br, (0, 0), (2, 0), 1))), nb)


def test_valid_winds_equal_the_stepped_walks():
    """On every annulus, for every ordered pair of polygon loci (a
    same-locus pair included), `valid_winds` gives (m_r, m_l, n2): the
    corners of the CCW walks start -> end and end -> start and of one turn,
    found by stepping.  It gives None for a boundary endpoint and outside an
    annulus."""
    pairs = 0
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for ri, r in enumerate(nb.regions):
            loci = _loci(nb, ri)
            if r.kind != ANNULUS:
                assert valid_winds(Snippet(ri, None, None), nb) is None
                for a in loci:
                    for b in loci:
                        assert valid_winds(Snippet(ri, a, b), nb) is None
                continue
            n2 = _turn_corners(nb, ri)
            assert valid_winds(Snippet(ri, None, None, n2), nb) == (0, 0, n2)
            poly = nb.polygon_loci(ri)
            for a in poly:
                for b in poly:
                    m_r = _stepped_walk(nb, ri, a, b).corners
                    m_l = _stepped_walk(nb, ri, b, a).corners
                    assert a == b or m_r + m_l == n2
                    assert valid_winds(Snippet(ri, a, b), nb) == \
                        (m_r, m_l, n2), (name, ri, a, b)
                    pairs += 1
            for off in set(loci) - set(poly):
                assert nb.side_label(ri, off) == BOUNDARY
                for other in loci:
                    assert valid_winds(Snippet(ri, off, other), nb) is None
                    assert valid_winds(Snippet(ri, other, off), nb) is None
    assert pairs > 100, pairs


@pytest.mark.parametrize("region, start, end, message", [
    ("face:0", (9, 9), (1, 0), "no locus (9, 9) in region face:0"),
    ("face:0", (1, 0), (9, 9), "no locus (9, 9) in region face:0"),
    ("br:a", (0, 0), (7, 0), "no locus (7, 0) in region br:a"),
    (99, (0, 0), (1, 0), "no region 99"),
    (99, None, None, "no region 99"),
], ids=["start", "end", "rectangle", "region", "closed"])
def test_valid_winds_names_an_unknown_region_or_locus(t11, region, start,
                                                      end, message):
    """`valid_winds` raises `InconsistentSnippet` with the fact table's
    message for a region or locus the neighbourhood does not have."""
    ri = t11.region_id.get(region, region)
    with pytest.raises(InconsistentSnippet) as exc:
        valid_winds(Snippet(ri, start, end), t11)
    assert str(exc.value) == message
    with pytest.raises(InconsistentSnippet) as exc:
        classify(Snippet(ri, start, end), t11)
    assert str(exc.value) == message


def test_step_table_matches_the_cycles():
    """Each polygon locus's step-table entry holds its neighbours one step
    clockwise and one step counter-clockwise on the polygon, and whether
    each of those gaps is a corner, as `polygon_loci` and `gap_is_corner`
    give them; the table has no other entry."""
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for ri in range(len(nb.regions)):
            loci = nb.polygon_loci(ri)
            n = len(loci)
            for p, locus in enumerate(loci):
                assert nb._steps[ri][locus] == (
                    loci[(p - 1) % n], nb.gap_is_corner(ri, p - 1),
                    loci[(p + 1) % n], nb.gap_is_corner(ri, p)), \
                    (name, ri, locus)
            assert n == len(nb._steps[ri])


def test_partners_share_the_cycle_loci():
    nb = load_fixture("s04")
    for ri in range(len(nb.regions)):
        for locus in nb.polygon_loci(ri):
            pr = nb.partner(ri, locus)
            r2, l2 = pr
            assert l2 is nb.polygon_loci(r2)[nb.locus_position(r2, l2)]
            assert nb.partner(ri, locus) is pr
    with pytest.raises(BadInput):
        nb.partner(0, (9, 9))


def test_snippet_is_an_immutable_value():
    a = Snippet(3, (1, 0), (2, 0))
    b = Snippet(3, (1, 0), (2, 0), 0)
    assert a == b and hash(a) == hash(b)
    assert a != Snippet(3, (1, 0), (2, 0), 4)
    assert a != Snippet(3, (2, 0), (1, 0))
    assert {a: 1}[b] == 1
    assert not a.closed and Snippet(3, None, None, 2).closed
    with pytest.raises(AttributeError):
        a.wind = 1  # type: ignore[misc]
    c1 = Curve(CLOSED, (a, Snippet(4, (0, 0), (1, 0))))
    c2 = Curve(CLOSED, (b, Snippet(4, (0, 0), (1, 0), 0)))
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1 != Curve(ARC, c2.snippets)
    assert repr(a) == "Snippet(region=3, start=(1, 0), end=(2, 0), wind=0)"


def _records() -> dict:
    """A value of each record type, by name, built afresh on every call."""
    curve = Curve(CLOSED, (Snippet(3, (1, 0), (2, 0)),))
    report = LengthReport(1, 2, 0, 1, 0, 0, 1)
    side = Side(H, 1)
    return {
        "Curve": curve,
        "LengthReport": report,
        "Result": Result(EFFICIENT, curve, (), 0, report, ()),
        "EfficiencyReport": EfficiencyReport(True, (True,), None),
        "AuditReport": AuditReport(3, 12),
        "OracleVerdict": OracleVerdict(True, True, False, 5),
        "SwitchDesc": SwitchDesc("v0", ("a", 0), (("b", 0), ("d", 0))),
        "FaceDesc": FaceDesc(DISC, ("v0.b", "a.l")),
        "TrainTrackDesc": TrainTrackDesc(1, 1, ("a",), (), ()),
        "Side": side,
        "Region": Region(BRANCH, "br:a", (side,)),
    }


@pytest.mark.parametrize("kind", sorted(_records()))
def test_record_is_an_immutable_value(kind):
    """Records built from equal fields are equal with equal hashes, and
    no field can be assigned."""
    a, b = _records()[kind], _records()[kind]
    assert a is not b and a == b and hash(a) == hash(b)
    assert type(a).__name__ == kind
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)


# -- the curve/1 writer -------------------------------------------------------


def _reference_text(curve, nb) -> str:
    """curve/1 text as json.dumps writes it."""
    recs = []
    for s in curve.snippets:
        rec = {"region": nb.regions[s.region].name,
               "start": None if s.start is None else list(s.start),
               "end": None if s.end is None else list(s.end)}
        if s.wind:
            rec["wind"] = s.wind
        recs.append(rec)
    doc = {"format": "curve/1",
           "kind": "closed" if curve.kind == CLOSED else "arc",
           "snippets": recs}
    if nb.name is not None:
        doc["track"] = nb.name
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _curve(nb, shape, seed, length):
    rng = random.Random(seed)
    annuli = _annuli(nb)
    if shape == "closed":
        return random_closed(nb, rng, length)
    if shape == "arc":
        return random_arc(nb, rng, length, proper=seed % 2 == 0)
    if shape == "doubled":
        return doubled_back(nb, rng, length // 4 + 1)
    if shape == "bounce":
        return peripheral_bounce(nb, rng.choice(annuli), seed % 5 - 2 or 1)
    return boundary_power(nb, rng.choice(annuli), seed % 7 - 3 or 2)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES),
       shape=st.sampled_from(["closed", "arc", "doubled", "bounce", "power"]),
       seed=st.integers(0, 10**6), length=st.integers(2, 60),
       track=st.none() | st.text(max_size=12))
def test_serialize_curve_matches_json_dumps(name, shape, seed, length, track):
    """On a neighbourhood of the example's own, named `track` (or unnamed):
    the text equals json.dumps's and parses back to the curve."""
    nb = load_fixture(name)
    nb.name = track
    try:
        curve = _curve(nb, shape, seed, length)
    except GenerationFailed:
        return
    text = serialize_curve(curve, nb)
    assert text == _reference_text(curve, nb)
    assert parse_curve(text, nb) == curve


def test_serialize_curve_covers_windings_closed_snippets_and_no_track():
    nb = load_fixture("t11")
    f = _annuli(nb)[0]
    power = boundary_power(nb, f, -2)
    bounce = peripheral_bounce(nb, f, 3)
    assert power.snippets[0].closed and power.snippets[0].wind
    assert any(s.wind for s in bounce.snippets)
    for track in (None, "t11", 'quo"teé'):
        nb.name = track
        for curve in (power, bounce):
            text = serialize_curve(curve, nb)
            assert text == _reference_text(curve, nb)
            assert ('"track"' in text) == (track is not None)
    with pytest.raises(BadInput):  # a curve has at least one snippet
        serialize_curve(Curve(ARC, ()), nb)
