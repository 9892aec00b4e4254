"""The per-neighbourhood fact table and the memoised navigation tables, each
checked against a cold recomputation; the snippet value type; and the
direct curve/1 writer against `json.dumps`."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackform.curve_ops import ARC, CLOSED, Curve, measure, validate_curve
from trackform.errors import BadInput, GenerationFailed, InconsistentSnippet
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.formats import parse_curve, serialize_curve
from trackform.generate import (boundary_power, doubled_back,
                                peripheral_bounce, random_arc, random_closed,
                                trivial_loop)
from trackform.homotopy_engine import hom
from trackform.pipelines import efficient_position
from trackform.snippet_core import (CARRIED, DUAL_TIE, LEFT, RIGHT, Snippet,
                                    _classify_uncached,
                                    _corner_length_uncached, classify,
                                    corner_length, fact_table,
                                    validate_snippet)
from trackform.track_model import ANNULUS, BRANCH, Walk
from trackform.verification import audit_trace


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
            cls = _classify_uncached(s, fresh)
            corn = _corner_length_uncached(s, fresh)
            dual = cls.vertical_dual or cls.horizontal_dual
            assert rec.cls == cls, s
            assert rec.row == (corn, cls.verdict == CARRIED,
                               dual and cls.turn == RIGHT,
                               dual and cls.turn == LEFT, cls.bad), s
            assert rec.outer == (cls.turn if cls.vertical_dual else None), s
            assert rec.mid == (cls.verdict == DUAL_TIE and
                               nb.regions[s.region].kind == BRANCH), s
            assert classify(s, nb) is rec.cls
            assert corner_length(s, nb) == corn
            seen["carried"] += cls.verdict == CARRIED
            seen["outer"] += rec.outer is not None
            seen["mid"] += rec.mid
            seen["bad"] += cls.bad
            seen["dual"] += dual and not cls.vertical_dual
    assert all(seen.values()), seen


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
        for check in (validate_snippet, classify):
            with pytest.raises(InconsistentSnippet):
                check(s, nb)
        assert s not in fact_table(nb)
    with pytest.raises(InconsistentSnippet):
        validate_curve(Curve(ARC, (Snippet(br, (0, 0), (2, 0)),
                                   Snippet(br, (0, 0), (2, 0), 1))), nb)


def _stepped_walk(nb, ri, a, b):
    """The walk from a to b found by stepping gap by gap."""
    ci, p = nb.locus_cycle(ri, a)
    loci = nb.cycle_loci(ri, ci)
    corners = marks = 0
    between = []
    while loci[p] != b:
        if nb.gap_is_corner(ri, ci, p):
            corners += 1
        else:
            marks += 1
        p = (p + 1) % len(loci)
        between.append(loci[p])
    return Walk(corners, marks, tuple(between[:-1]))


def test_walks_equal_the_uncached_walk(warm):
    for name in FIXTURE_NAMES:
        nb = warm[name]
        for ri, r in enumerate(nb.regions):
            cycles = [nb.cycle_loci(ri, ci) for ci in range(len(r.cycles))]
            pairs = [(a, b) for loci in cycles for a in loci for b in loci]
            random.Random(f"{name}/{ri}").shuffle(pairs)
            for a, b in pairs:
                w = nb.walk_ccw(ri, a, b)
                assert w == nb._walk_ccw(ri, a, b), (name, ri, a, b)
                assert w == _stepped_walk(nb, ri, a, b), (name, ri, a, b)
                assert nb.walk_ccw(ri, a, b) is w
            if len(cycles) > 1:
                # loci on different cycles admit no walk, every time
                for _ in range(2):
                    with pytest.raises(BadInput):
                        nb.walk_ccw(ri, cycles[0][0], cycles[1][0])
            for _ in range(2):
                with pytest.raises(BadInput):
                    nb.walk_ccw(ri, (99, 0), cycles[0][0])


def test_partners_share_the_cycle_loci():
    nb = load_fixture("s04")
    for ri, r in enumerate(nb.regions):
        for ci in range(len(r.cycles)):
            for locus in nb.cycle_loci(ri, ci):
                pr = nb.partner(ri, locus)
                if pr is None:
                    continue
                r2, l2 = pr
                c2, p2 = nb.locus_cycle(r2, l2)
                assert l2 is nb.cycle_loci(r2, c2)[p2]
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


# -- the curve/1 writer -------------------------------------------------------


def _reference_text(curve, nb, track=None) -> str:
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
    name = track if track is not None else getattr(nb, "name", None)
    if name is not None:
        doc["track"] = name
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def named():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


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
def test_serialize_curve_matches_json_dumps(named, name, shape, seed, length,
                                            track):
    nb = named[name]
    try:
        curve = _curve(nb, shape, seed, length)
    except GenerationFailed:
        return
    text = serialize_curve(curve, nb, track=track)
    assert text == _reference_text(curve, nb, track)
    if track in (None, name):
        assert parse_curve(text, nb) == curve


def test_serialize_curve_covers_windings_closed_snippets_and_no_track(named):
    nb = named["t11"]
    f = _annuli(nb)[0]
    power = boundary_power(nb, f, -2)
    bounce = peripheral_bounce(nb, f, 3)
    assert power.snippets[0].closed and power.snippets[0].wind
    assert any(s.wind for s in bounce.snippets)
    for curve in (power, bounce, Curve(ARC, ())):
        for track in (None, "t11", 'quo"teé'):
            assert serialize_curve(curve, nb, track) == \
                _reference_text(curve, nb, track)
    unnamed = load_fixture("t11")
    del unnamed.name
    text = serialize_curve(bounce, unnamed)
    assert '"track"' not in text and text == _reference_text(bounce, unnamed)
