"""Structural oracles for the tie-neighbourhood model on the bundled tracks.

Expected counts were derived by hand (and with an independent strand-pairing
face tracer) before the model was written: vertex/edge counts from valence,
Euler characteristics from (genus, boundary), run lengths by walking each
face word, and indices from the corner-count formula.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from trackform.errors import (
    BadInput,
    InvalidValence,
    LowComplexity,
    NonNegativeIndexRegion,
    NotLarge,
    ParseError,
)
from trackform.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from trackform.formats import format_track, parse_track
from trackform.track_model import (
    ANNULUS,
    BOUNDARY,
    BRANCH,
    DISC,
    H,
    SWITCH,
    T,
    V,
    FaceDesc,
    SwitchDesc,
    TrainTrackDesc,
    build_tie_neighbourhood,
    index,
    side_length,
)


@pytest.fixture(scope="module")
def tracks():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def test_index_formula_examples():
    assert index(1, 4, 0) == 0
    assert index(1, 6, 0) == Fraction(-1, 2)
    assert index(1, 0, 0) == 1
    assert index(0, 4, 0) == -1
    assert index(1, 3, 1) == Fraction(1, 2)
    assert isinstance(index(1, 6, 0), Fraction)


def test_side_length_examples():
    assert side_length(4) == 5
    assert side_length(6) == 9
    assert side_length(2) == 1
    with pytest.raises(BadInput):
        side_length(1)


# Expected structure: (n_branches, n_switches, disc runs, annulus runs, s_N, euler)
EXPECTED = {
    #               V   E  kinds of faces          s(C) per h-side         s_N  chi
    "t11": dict(v=12, e=18, discs=0, annuli=1, runs=[[9, 9]], s_N=9, chi=-1),
    "t11d": dict(v=24, e=36, discs=1, annuli=1, runs=[[5, 1, 17], [13]], s_N=17, chi=-1),
    "s04": dict(v=24, e=36, discs=0, annuli=4, runs=[[9], [9], [9], [9]], s_N=9, chi=-2),
    "s12": dict(v=24, e=36, discs=0, annuli=2, runs=[[13, 5], [13, 5]], s_N=13, chi=-2),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_counts(tracks, name):
    nb = tracks[name]
    exp = EXPECTED[name]
    assert nb.n_vertices == exp["v"]
    assert nb.n_edges == exp["e"]
    assert nb.euler == exp["chi"]
    kinds = [r.kind for r in nb.regions]
    assert kinds.count(DISC) == exp["discs"]
    assert kinds.count(ANNULUS) == exp["annuli"]
    assert kinds.count(SWITCH) * 3 == kinds.count(BRANCH) * 2
    assert nb.s_N == exp["s_N"]
    assert len(nb.boundary_components) == exp["annuli"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_run_lengths(tracks, name):
    nb = tracks[name]
    got = []
    for ri, r in enumerate(nb.regions):
        if r.kind not in (DISC, ANNULUS):
            continue
        got.append([nb.h_run_length(ri, si)
                    for si, s in enumerate(r.sides) if s.label == H])
    assert sorted(map(sorted, got)) == sorted(map(sorted, EXPECTED[name]["runs"]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_region_indices_sum_to_euler(tracks, name):
    nb = tracks[name]
    total = Fraction(0)
    for ri, r in enumerate(nb.regions):
        ind = nb.region_index(ri)
        if r.kind in (BRANCH, SWITCH):
            assert ind == 0
        else:
            assert ind <= Fraction(-1, 4)
        total += ind
    assert total == nb.euler


def test_t11_face_word_pattern(tracks):
    nb = tracks["t11"]
    face = nb.regions[nb.region_id["face:0"]]
    labels = [face.sides[si].label for si in face.cycles[0]]
    assert labels == [V, H, V, H]
    assert [face.sides[si].n_segments for si in face.cycles[0]] == [1, 5, 1, 5]
    assert face.sides[face.cycles[1][0]].label == BOUNDARY


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_partner_involution_and_labels(tracks, name):
    nb = tracks[name]
    n_glued = 0
    for ri, r in enumerate(nb.regions):
        for si, s in enumerate(r.sides):
            for gi in range(s.n_segments):
                pr = nb.partner(ri, (si, gi))
                if pr is None:
                    assert s.label == BOUNDARY
                    continue
                n_glued += 1
                r2, l2 = pr
                assert nb.partner(r2, l2) == (ri, (si, gi))
                a, b = nb.locus_label(ri, (si, gi)), nb.locus_label(r2, l2)
                # gluings pair tie-to-tie and horizontal-to-horizontal and
                # cusp(v)-to-v
                if T in (a, b):
                    assert {a, b} == {T}
                elif V in (a, b):
                    assert {a, b} == {V}
                else:
                    assert {a, b} == {H}
    assert n_glued == 2 * nb.n_edges


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_vertex_has_three_wedges(tracks, name):
    nb = tracks[name]
    for vid in range(nb.n_vertices):
        assert len(nb.vertex_gaps(vid)) == 3
        assert len(nb.edges_at_vertex(vid)) == 3


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_walks(tracks, name):
    nb = tracks[name]
    for ri, r in enumerate(nb.regions):
        if r.kind not in (DISC, ANNULUS):
            continue
        ci = nb.polygon_cycle(ri)
        loci = nb.cycle_loci(ri, ci)
        # full walk from a locus to itself is empty; corners around the cycle
        # equal twice the cusp count
        w = nb.walk_ccw(ri, loci[0], loci[0])
        assert (w.corners, w.marks, w.between) == (0, 0, ())
        assert nb.total_corners(ri, ci) == 2 * nb.cusp_count(ri)
        # walk from first to second locus passes one gap, no loci between
        w = nb.walk_ccw(ri, loci[0], loci[1])
        assert w.corners + w.marks == 1 and w.between == ()
        # complementary walks partition the gaps
        a, b = loci[0], loci[3]
        w1, w2 = nb.walk_ccw(ri, a, b), nb.walk_ccw(ri, b, a)
        assert w1.corners + w2.corners == nb.total_corners(ri, ci)
        assert len(w1.between) + len(w2.between) + 2 == len(loci)


def test_track_round_trip():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        desc = parse_track(text)
        again = parse_track(format_track(desc))
        assert again == desc


def _theta(genus=1, boundary=1, faces=None) -> TrainTrackDesc:
    return TrainTrackDesc(
        genus=genus, boundary=boundary, branches=("a", "b", "d"),
        switches=(SwitchDesc("v0", ("a", 0), (("b", 0), ("d", 0))),
                  SwitchDesc("v1", ("a", 1), (("b", 1), ("d", 1)))),
        faces=faces if faces is not None else (
            FaceDesc("annulus", ("v0.c", "b.l", "v1.t", "a.r", "v0.b", "d.l",
                                 "v1.c", "b.r", "v0.t", "a.l", "v1.b", "d.r")),),
    )


def test_validation_errors():
    with pytest.raises(LowComplexity):
        build_tie_neighbourhood(_theta(genus=0, boundary=2))
    with pytest.raises(NotLarge):
        # wrong boundary count for the declared face list
        build_tie_neighbourhood(_theta(boundary=2))
    # a disc face with too few cusps
    bad = _theta(faces=(FaceDesc("disc", ("v0.c", "b.l", "v1.t", "a.r", "v0.b", "d.l",
                                          "v1.c", "b.r", "v0.t", "a.l", "v1.b", "d.r")),))
    with pytest.raises(NonNegativeIndexRegion):
        build_tie_neighbourhood(bad)
    # tokens not covering every edge exactly once
    bad = _theta(faces=(FaceDesc("annulus", ("v0.c", "b.l", "v1.t", "a.r", "v0.b", "d.l",
                                             "v1.c", "b.r", "v0.t", "a.l", "v1.b", "b.r")),))
    with pytest.raises(NotLarge):
        build_tie_neighbourhood(bad)
    # a branch end attached twice
    with pytest.raises(InvalidValence):
        build_tie_neighbourhood(TrainTrackDesc(
            genus=1, boundary=1, branches=("a", "b", "d"),
            switches=(SwitchDesc("v0", ("a", 0), (("b", 0), ("b", 0))),
                      SwitchDesc("v1", ("a", 1), (("b", 1), ("d", 1)))),
            faces=_theta().faces))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_track("genus: 1\n")  # no format line
    with pytest.raises(ParseError):
        parse_track("format: track/9\n")
    err = None
    try:
        parse_track("format: track/1\ngenus: x\n")
    except ParseError as e:
        err = e
    assert err is not None and "line 2" in str(err)
    with pytest.raises(ParseError):
        parse_track("format: track/1\ngenus: 1\nboundary: 1\nbranches: a\n"
                     "switch v0: large a.2 smalls a.0 a.1\n")


@pytest.mark.parametrize("line", [
    "x" * 5000 + ": 1",                  # unknown key
    "branches: " + "a" * 5000 + "-",     # bad branch name
    "genus: " + "9" * 5000,              # integer past int()'s digit limit
    "format: " + "t" * 5000,             # unsupported format
    "face " + "k" * 5000 + ": a.l",      # unknown face kind
    "[" * 5000,                          # not a key: value line
])
def test_parse_errors_quote_at_most_a_prefix(line):
    with pytest.raises(ParseError) as exc:
        parse_track("format: track/1\n" + line + "\n")
    assert len(str(exc.value)) < 200 and "(line 2)" in str(exc.value)
