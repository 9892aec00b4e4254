"""Structural oracles for the tie-neighbourhood model on the bundled tracks.

Expected counts were derived by hand (and with an independent strand-pairing
face tracer) before the model was written: vertex/edge counts from valence,
Euler characteristics from (genus, boundary), run lengths by walking each
face word, and indices from the corner-count formula.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import segment_label
from trackform.errors import (
    BadInput,
    InvalidValence,
    LowComplexity,
    NonNegativeIndexRegion,
    NotLarge,
    ParseError,
    TrackformError,
)
from trackform.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from trackform.formats import format_track, parse_track
from trackform.generate import random_closed
from trackform.pipelines import efficient_position
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
)
from trackform.verification import audit_trace


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
    # each annulus's component is the one its boundary side lies on
    assert nb.component_of == {
        ri: nb.boundary_components.index((ri, nb.boundary_side(ri)))
        for ri, r in enumerate(nb.regions) if r.kind == ANNULUS}


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
    *poly, boundary = face.sides
    assert [side.label for side in poly] == [V, H, V, H]
    assert [side.n_segments for side in poly] == [1, 5, 1, 5]
    assert boundary.label == BOUNDARY


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
                a = segment_label(nb, ri, (si, gi))
                b = segment_label(nb, r2, l2)
                # gluings pair tie-to-tie and horizontal-to-horizontal and
                # cusp(v)-to-v
                if T in (a, b):
                    assert {a, b} == {T}
                elif V in (a, b):
                    assert {a, b} == {V}
                else:
                    assert {a, b} == {H}
    assert n_glued == 2 * nb.n_edges


def _token_of(nb, region: int, locus) -> str:
    """The face-word token naming a rectangle locus a face is glued to."""
    kind, name = nb.regions[region].name.split(":")
    if kind == "br":
        return name + {(0, 0): ".r", (2, 0): ".l"}[locus]
    return name + {(0, 0): ".b", (2, 0): ".t", (3, 1): ".c"}[locus]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_gluing_follows_the_track_description(tracks, name):
    """Each face's polygon is glued, locus by locus, to the rectangle sides
    its face word names, in the word's cyclic order; an annulus's one locus
    off its polygon, its boundary side, is glued to nothing; and each
    switch slot is glued to the tie side of the branch end the switch lists
    there."""
    nb = tracks[name]
    for fi, face in enumerate(nb.desc.faces):
        ri = nb.region_id[f"face:{fi}"]
        loci = nb.polygon_loci(ri)
        got = [_token_of(nb, *nb.partner(ri, l)) for l in loci]
        word = list(face.word)
        assert len(got) == len(word)
        assert any(got == word[i:] + word[:i] for i in range(len(word))), \
            (name, fi, got, word)
        off = [(si, gi) for si, side in enumerate(nb.regions[ri].sides)
               for gi in range(side.n_segments) if (si, gi) not in loci]
        assert [nb.partner(ri, l) for l in off] == \
            ([None] if face.kind == ANNULUS else [])
    for sw in nb.desc.switches:
        si = nb.region_id[f"sw:{sw.name}"]
        for (branch, end), slot in zip((sw.large, *sw.smalls),
                                       ((1, 0), (3, 0), (3, 2))):
            tie = (1, 0) if end == 1 else (3, 0)
            assert nb.partner(si, slot) == (nb.region_id[f"br:{branch}"], tie)


def test_a_built_neighbourhood_is_unnamed_until_named():
    nb = build_tie_neighbourhood(parse_track(fixture_text("t11")))
    assert nb.name is None
    assert load_fixture("t11").name == "t11"


def _edges_at_vertex(nb, gaps) -> set:
    """The tiling edges at a vertex given by its wedges (region, gap
    position), each as the set of its two (region, locus) sides."""
    edges = set()
    for ri, p in gaps:
        loci = nb.polygon_loci(ri)
        for l in (loci[p], loci[(p + 1) % len(loci)]):
            edges.add(frozenset({(ri, l), nb.partner(ri, l)}))
    return edges


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_vertex_has_three_wedges(tracks, name):
    nb = tracks[name]
    for vid in range(nb.n_vertices):
        gaps = nb._vertex_gaps[vid]
        assert len(gaps) == 3
        assert len(_edges_at_vertex(nb, gaps)) == 3


def _union_find_vertex_gaps(nb) -> list:
    """The tiling vertices by a union-find over gaps, independent of the
    corner permutation: gap (region, pos) is the wedge between polygon
    positions pos and pos+1; it joins the gap before the partner of the
    locus at pos and the gap at the partner of the locus at pos+1.  Classes
    come out sorted, and in the order of their roots."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    gaps = [(ri, p) for ri in range(len(nb.regions))
            for p in range(len(nb.polygon_loci(ri)))]
    parent.update((g, g) for g in gaps)
    for ri, p in gaps:
        loci = nb.polygon_loci(ri)
        # the CCW-end of the locus at p is the CCW-start of its partner ...
        r2, l2 = nb.partner(ri, loci[p])
        p2 = nb.locus_position(r2, l2)
        union((ri, p), (r2, (p2 - 1) % len(nb.polygon_loci(r2))))
        # ... and the CCW-start of the locus at p+1 the CCW-end of its partner
        r2, l2 = nb.partner(ri, loci[(p + 1) % len(loci)])
        union((ri, p), (r2, nb.locus_position(r2, l2)))
    classes = {}
    for g in gaps:
        classes.setdefault(find(g), []).append(g)
    return [tuple(sorted(classes[root])) for root in sorted(classes)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_vertex_table_matches_a_union_find(tracks, name):
    nb = tracks[name]
    assert nb._vertex_gaps == _union_find_vertex_gaps(nb)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_walks(tracks, name):
    """The corners a boundary walk passes are read off its polygon's corner
    prefix sums, which, over two turns, step up exactly at the gaps
    `gap_is_corner` calls corners.  One turn passes four corners on a
    rectangle and twice the cusp count on a face's polygon."""
    nb = tracks[name]
    for ri, r in enumerate(nb.regions):
        n = len(nb.polygon_loci(ri))
        before = nb._corners_before[ri]
        assert len(before) == 2 * n + 1 and before[0] == 0
        for p in range(2 * n):
            assert before[p + 1] - before[p] == nb.gap_is_corner(ri, p), \
                (ri, p)
        assert nb.total_corners(ri) == before[n]
        if r.kind in (DISC, ANNULUS):
            cusps = sum(1 for side in r.sides if side.label == V)
            assert nb.total_corners(ri) == 2 * cusps
        else:
            assert nb.total_corners(ri) == 4


def test_track_round_trip():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        desc = parse_track(text)
        again = parse_track(format_track(desc))
        assert again == desc


_WORD = ("v0.c", "b.l", "v1.t", "a.r", "v0.b", "d.l",
         "v1.c", "b.r", "v0.t", "a.l", "v1.b", "d.r")
_SWITCHES = (SwitchDesc("v0", ("a", 0), (("b", 0), ("d", 0))),
             SwitchDesc("v1", ("a", 1), (("b", 1), ("d", 1))))


def _theta(genus=1, boundary=1, faces=None) -> TrainTrackDesc:
    return TrainTrackDesc(
        genus=genus, boundary=boundary, branches=("a", "b", "d"),
        switches=_SWITCHES,
        faces=faces if faces is not None else (FaceDesc("annulus", _WORD),),
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


def _theta_with(**changes) -> TrainTrackDesc:
    return _theta()._replace(**changes)


@pytest.mark.parametrize("desc, error, message", [
    (_theta_with(branches=("a", "a", "d")), BadInput,
     "duplicate branch names"),
    (_theta_with(switches=(_SWITCHES[0], SwitchDesc(
        "v0", ("a", 1), (("b", 1), ("d", 1))))),
     BadInput, "duplicate switch names"),
    (_theta_with(branches=("a", "b", "v0")), BadInput,
     "branch and switch names must not collide"),
    (_theta_with(switches=(SwitchDesc("v0", ("a", 0), (("b", 0), ("d", 0),
                                                       ("a", 1))),
                           _SWITCHES[1])),
     InvalidValence, "switch v0 needs one large and two small ends"),
    (_theta_with(switches=(SwitchDesc("v0", ("z", 0), (("b", 0), ("d", 0))),
                           _SWITCHES[1])),
     InvalidValence, "switch v0: unknown end ('z', 0)"),
    (_theta_with(switches=(SwitchDesc("v0", ("a", 2), (("b", 0), ("d", 0))),
                           _SWITCHES[1])),
     InvalidValence, "switch v0: unknown end ('a', 2)"),
    (_theta_with(branches=("a", "b", "d", "e")), InvalidValence,
     "unattached branch ends: [('e', 0), ('e', 1)]"),
    # an unknown token leaves some edge uncovered
    (_theta_with(faces=(FaceDesc("annulus", tuple(
        "z.l" if t == "a.l" else t for t in _WORD)),)),
     NotLarge,
     "face words do not cover every horizontal edge and cusp exactly once"),
    # an empty branch name gives the tokens ".l" and ".r"
    (_theta_with(branches=("", "b", "d"),
                 switches=(SwitchDesc("v0", ("", 0), (("b", 0), ("d", 0))),
                           SwitchDesc("v1", ("", 1), (("b", 1), ("d", 1)))),
                 faces=(FaceDesc("annulus", tuple(
                     t.replace("a.", ".") for t in _WORD)),)),
     BadInput, "branch and switch names must not be empty"),
    (_theta_with(faces=(FaceDesc("sphere", _WORD),)), BadInput,
     "unknown face kind 'sphere'"),
    (_theta_with(faces=(FaceDesc("annulus", ("b.l",)),
                        FaceDesc("disc", tuple(t for t in _WORD
                                               if t != "b.l")))),
     NonNegativeIndexRegion, "annulus face with no cusp"),
    # two h tokens swapped: covered, but not the walk the switches give
    (_theta_with(faces=(FaceDesc("annulus", (
        "v0.c", "a.r", "v1.t", "b.l", "v0.b", "d.l",
        "v1.c", "b.r", "v0.t", "a.l", "v1.b", "d.r")),)),
     NotLarge, "face:0 does not follow the switches: 'v0.c' is followed by "
               "'a.r', not 'b.l'"),
    (_theta_with(genus=2), NotLarge,
     "Euler characteristic -1 != -3 for (g,b)=(2,1)"),
], ids=["duplicate-branch", "duplicate-switch", "name-collision", "valence",
        "unknown-end", "unknown-end-index", "unattached-end", "unknown-token",
        "malformed-token", "face-kind", "annulus-no-cusp", "tiling-vertex",
        "euler"])
def test_build_errors_name_class_and_message(desc, error, message):
    with pytest.raises(error) as exc:
        build_tie_neighbourhood(desc)
    assert type(exc.value) is error and str(exc.value) == message


def test_one_cusp_face_is_a_structured_error():
    """A face word of one cusp token is covered and counted like any other
    but is no walk the switches give; its polygon cycle has one locus."""
    desc = _theta_with(boundary=2, faces=(FaceDesc("annulus", ("v0.c",)),
                                          FaceDesc("annulus", _WORD[1:])))
    with pytest.raises(NotLarge) as exc:
        build_tie_neighbourhood(desc)
    assert str(exc.value) == ("face:0 does not follow the switches: 'v0.c' "
                              "is followed by 'v0.c', not 'b.l'")


def _successors(desc) -> dict:
    """Each face token to the token after it round its face, from the
    switch lines: arriving at a branch end leads to the switch token of its
    slot (large: bottom edge, top small: top edge, bottom small: cusp); a
    switch token leads on along a branch leaving the switch (bottom edge:
    the bottom small, top edge: the large, cusp: the top small)."""
    def arriving(end):
        return f"{end[0]}.{'l' if end[1] == 1 else 'r'}"

    def leaving(end):
        return f"{end[0]}.{'l' if end[1] == 0 else 'r'}"

    succ = {}
    for sw in desc.switches:
        large, (top, bottom) = sw.large, sw.smalls
        succ[arriving(large)] = f"{sw.name}.b"
        succ[arriving(top)] = f"{sw.name}.t"
        succ[arriving(bottom)] = f"{sw.name}.c"
        succ[f"{sw.name}.b"] = leaving(bottom)
        succ[f"{sw.name}.t"] = leaving(large)
        succ[f"{sw.name}.c"] = leaving(top)
    return succ


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_faces_are_successor_orbits(name):
    desc = parse_track(fixture_text(name))
    succ = _successors(desc)
    assert sorted(succ) == sorted(t for f in desc.faces for t in f.word)
    for f in desc.faces:
        assert [succ[t] for t in f.word] == list(f.word[1:] + f.word[:1])


def _mutant(desc: TrainTrackDesc, data) -> TrainTrackDesc:
    """`desc` changed once: two tokens swapped, a face split in two or two
    faces merged, a word rotated, a face's kind flipped, or a new genus or
    boundary count."""
    words = [list(f.word) for f in desc.faces]
    kinds = [f.kind for f in desc.faces]
    change = data.draw(st.sampled_from(
        ("swap", "split", "merge", "rotate", "flip", "genus", "boundary")))
    if change in ("genus", "boundary"):
        return desc._replace(**{change: data.draw(st.integers(0, 4))})
    fi = data.draw(st.integers(0, len(words) - 1))
    if change == "swap":
        fj = data.draw(st.integers(0, len(words) - 1))
        i = data.draw(st.integers(0, len(words[fi]) - 1))
        j = data.draw(st.integers(0, len(words[fj]) - 1))
        words[fi][i], words[fj][j] = words[fj][j], words[fi][i]
    elif change == "split" and len(words[fi]) > 1:
        cut = data.draw(st.integers(1, len(words[fi]) - 1))
        words.append(words[fi][cut:])
        kinds.append(data.draw(st.sampled_from((DISC, ANNULUS))))
        words[fi] = words[fi][:cut]
    elif change == "merge" and len(words) > 1:
        fj = data.draw(st.integers(0, len(words) - 1).filter(
            lambda j: j != fi))
        other = words.pop(fj)
        kinds.pop(fj)
        words[fi - (fj < fi)] += other
    elif change == "rotate":
        k = data.draw(st.integers(0, len(words[fi]) - 1))
        words[fi] = words[fi][k:] + words[fi][:k]
    elif change == "flip":
        kinds[fi] = ANNULUS if kinds[fi] == DISC else DISC
    return desc._replace(faces=tuple(
        FaceDesc(kind, tuple(word)) for kind, word in zip(kinds, words)))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), n=st.integers(1, 3),
       data=st.data())
def test_mutated_descriptions_build_or_raise_a_structured_error(name, n,
                                                                 data):
    """No track description crashes the build: each mutant of a fixture's
    description builds or raises a TrackformError, and one that builds has
    the Euler characteristic of its track plus its discs, three wedges at
    every vertex (one each of a branch, a switch and a face), and faces
    that walk the switches' successor map."""
    desc = parse_track(fixture_text(name))
    for _ in range(n):
        desc = _mutant(desc, data)
    try:
        nb = build_tie_neighbourhood(desc)
    except TrackformError:
        return
    discs = sum(1 for f in desc.faces if f.kind == DISC)
    assert nb.euler == len(desc.switches) - len(desc.branches) + discs
    for gaps in nb._vertex_gaps:
        assert len(gaps) == 3 and len(_edges_at_vertex(nb, gaps)) == 3
        kinds = [nb.regions[ri].kind for ri, _ in gaps]
        assert kinds[:2] == [BRANCH, SWITCH] and kinds[2] in (DISC, ANNULUS)
    succ = _successors(desc)
    for f in desc.faces:
        assert [succ[t] for t in f.word] == list(f.word[1:] + f.word[:1])


def test_t11d_with_its_disc_declared_an_annulus():
    """The tetrahedral track on the twice-punctured torus: t11d's faces,
    both annuli.  It builds, and seeded runs on it pass the audit."""
    desc = parse_track(fixture_text("t11d"))
    desc = desc._replace(boundary=2, faces=tuple(
        f._replace(kind=ANNULUS) for f in desc.faces))
    nb = build_tie_neighbourhood(desc)
    assert (nb.euler, nb.n_vertices, nb.n_edges, nb.s_N) == (-2, 24, 36, 17)
    assert len(nb.boundary_components) == 2
    for seed in (1, 2, 3, 4):
        curve = random_closed(nb, random.Random(seed), 12)
        res = efficient_position(curve, nb)
        assert audit_trace(res.events, curve, res.curve, nb).events == \
            len(res.events)


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
