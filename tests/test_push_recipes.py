"""Push recipes and the one-full-check rule, each against a cold
recomputation.

Every pushable bad snippet of criterion 2's exhaustive snippet space (all
locus pairs, windings -8..8 in the complementary regions, bigon and trigon
types) is taken on all four fixtures."""
from __future__ import annotations

import random

import pytest

import trackform.snippet_core as snippet_core
from trackform.curve_ops import ARC, Curve
from trackform.errors import AdjacencyError, InconsistentSnippet
from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.generate import (doubled_back, peripheral_bounce, random_arc,
                                random_closed)
from trackform.homotopy_engine import _push_recipe_uncached, hom
from trackform.pipelines import efficient_position
from trackform.snippet_core import (Snippet, classify, fact_table, is_bigon,
                                    is_trigon, reverse_snippet)
from trackform.track_model import ANNULUS, DISC
from trackform.verification import audit_trace


def _valid(s, nb) -> bool:
    try:
        classify(s, nb)
    except InconsistentSnippet:
        return False
    return True


def _snippet_space(nb):
    """Every open snippet of criterion 2's exhaustive space that is valid."""
    for ri, r in enumerate(nb.regions):
        loci = [(si, gi) for si, side in enumerate(r.sides)
                for gi in range(side.n_segments)]
        winds = range(-8, 9) if r.kind in (DISC, ANNULUS) else (0,)
        for w in winds:
            for a in loci:
                for b in loci:
                    s = Snippet(ri, a, b, w)
                    if _valid(s, nb):
                        yield s


def _pushable(nb):
    return [s for s in _snippet_space(nb)
            if is_bigon(classify(s, nb)) or is_trigon(classify(s, nb))]


def _corpus(nb, name):
    for seed in range(6):
        rng = random.Random(f"{name}/{seed}/recipes")
        yield random_closed(nb, rng, rng.randrange(2, 80))
        yield random_arc(nb, rng, rng.randrange(3, 40))
    yield doubled_back(nb, random.Random(name), 4)
    for ri, r in enumerate(nb.regions):
        if r.kind == ANNULUS:
            yield peripheral_bounce(nb, ri, 2)


@pytest.fixture(scope="module")
def warm():
    """Per fixture: a neighbourhood whose recipe table was filled by runs
    and audits of a corpus, and the pushable snippets of the space."""
    out = {}
    for name in FIXTURE_NAMES:
        nb = load_fixture(name)
        for c in _corpus(nb, name):
            res = efficient_position(c, nb)
            audit_trace(res.events, c, res.curve, nb)
        out[name] = nb, _pushable(load_fixture(name))
    return out


def test_recipes_equal_a_fresh_recomputation(warm):
    filed_by_runs = 0
    for name, (nb, pushable) in warm.items():
        fresh = load_fixture(name)
        filed_by_runs += len(nb._push_recipes)
        assert len(pushable) > 100
        assert set(nb._push_recipes) <= set(pushable)
        for s in pushable:
            rec = (nb._push_recipes.get(s)
                   or _push_recipe_uncached(s, nb, classify(s, nb)))
            assert rec == _push_recipe_uncached(s, fresh,
                                                classify(s, fresh)), s
            assert rec.cls == classify(s, fresh)
            assert len(rec.inners) == max(rec.cls.j - 1, 0)
            for inner in rec.inners:
                assert _valid(inner, fresh), (s, inner)
                assert not classify(inner, fresh).bad, (s, inner)
    assert filed_by_runs > 100


def _ending(nb, region, locus, other=False):
    """A valid snippet of `region` that ends on `locus` (or, with `other`,
    on another locus of the region)."""
    r = nb.regions[region]
    loci = [(si, gi) for si, side in enumerate(r.sides)
            for gi in range(side.n_segments)]
    ends = [l for l in loci if l != locus] if other else [locus]
    for end in ends:
        for start in loci:
            for w in (0, 1, -1, 2, -2, 3, -3, 4, -4):
                s = Snippet(region, start, end, w)
                if _valid(s, nb):
                    return s
    raise AssertionError(f"no snippet ends on {locus} in region {region}")


def test_hom_checks_the_neighbours_against_the_recipe(warm):
    """A push between neighbours glued to the bad snippet goes through; a
    neighbour that ends (or starts) elsewhere raises `AdjacencyError`."""
    for name, (nb, pushable) in warm.items():
        for a in pushable:
            rec = _push_recipe_uncached(a, nb, classify(a, nb))
            prev = _ending(nb, *rec.before)
            nxt = reverse_snippet(_ending(nb, *rec.after))
            window, _, ev = hom(Curve(ARC, (prev, a, nxt)), 1, nb)
            assert (ev["rule"], ev["j"], ev["win"][1]) == \
                (rec.cls.type, rec.cls.j, len(window))
            bad_prev = _ending(nb, *rec.before, other=True)
            with pytest.raises(AdjacencyError,
                               match="previous snippet is not glued"):
                hom(Curve(ARC, (bad_prev, a, nxt)), 1, nb)
            bad_next = reverse_snippet(_ending(nb, *rec.after, other=True))
            with pytest.raises(AdjacencyError,
                               match="next snippet is not glued"):
                hom(Curve(ARC, (prev, a, bad_next)), 1, nb)


def test_one_full_check_per_record_filed(monkeypatch):
    """On a fresh neighbourhood, a run and its audit check each snippet
    in full exactly once: when its fact record is filed."""
    checks = []
    full_check = snippet_core._classify_uncached

    def counted(s, nb):
        checks.append(s)
        return full_check(s, nb)

    monkeypatch.setattr(snippet_core, "_classify_uncached", counted)
    for name in FIXTURE_NAMES:
        gen = load_fixture(name)
        for c in _corpus(gen, name):
            nb = load_fixture(name)
            checks.clear()
            res = efficient_position(c, nb)
            audit_trace(res.events, c, res.curve, nb)
            assert len(checks) == len(set(checks)), (name, c)
            assert set(checks) == set(fact_table(nb)), (name, c)
