"""Generator tests: determinism in the seed, structural validity of every
output, and the advertised homotopy classes of the special builders."""

from __future__ import annotations

import random

import pytest

from trackform.curve_ops import ARC, CLOSED, validate_curve
from trackform.errors import BadInput
from trackform.generate import (
    boundary_power,
    doubled_back,
    peripheral_bounce,
    random_arc,
    random_closed,
    trivial_loop,
)
from trackform.fixtures import load_fixture
from trackform.snippet_core import classify


@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


@pytest.fixture(scope="module")
def s04():
    return load_fixture("s04")


def test_crossable_loci_excludes_boundary(t11):
    for region in range(len(t11.regions)):
        for locus in t11.crossable_loci(region):
            assert t11.partner(region, locus) is not None


def test_random_arc_valid_and_deterministic(t11):
    a1 = random_arc(t11, random.Random(7), 12)
    a2 = random_arc(t11, random.Random(7), 12)
    assert a1 == a2
    assert a1.kind == ARC and len(a1.snippets) == 12
    validate_curve(a1, t11)
    a3 = random_arc(t11, random.Random(8), 12)
    assert a1 != a3


def test_random_closed_valid_and_deterministic(t11):
    for seed in range(20):
        c = random_closed(t11, random.Random(seed), 10)
        assert c.kind == CLOSED and len(c.snippets) >= 10
        validate_curve(c, t11)
    c1 = random_closed(t11, random.Random(3), 10)
    c2 = random_closed(t11, random.Random(3), 10)
    assert c1 == c2


def test_random_closed_works_on_other_tracks(s04):
    for seed in range(10):
        c = random_closed(s04, random.Random(seed), 8)
        validate_curve(c, s04)


def test_trivial_loop_classifies_inessential(t11):
    loop = trivial_loop(t11, 0)
    cls = classify(loop.snippets[0], t11)
    assert cls.type in ("Trivial", "R-trivial")


def test_boundary_power_reads_off(t11):
    for k in (1, 2, 3, -2):
        c = boundary_power(t11, 5, k)
        s = c.snippets[0]
        n2 = t11.total_corners(5, t11.polygon_cycle(5))
        assert s.wind == k * n2
        assert classify(s, t11).type == "PeripheralCurve"


def test_boundary_power_rejects_rect(t11):
    with pytest.raises(BadInput):
        boundary_power(t11, 0, 1)


def test_peripheral_bounce_shape(t11):
    c = peripheral_bounce(t11, 5, 2)
    assert c.kind == CLOSED and len(c.snippets) == 2
    validate_curve(c, t11)
    assert c.snippets[0].wind == 2 * t11.total_corners(5, t11.polygon_cycle(5))
    assert c.snippets[1].start == c.snippets[1].end


def test_doubled_back_shape(t11):
    c = doubled_back(t11, random.Random(5), 4)
    assert c.kind == CLOSED and len(c.snippets) == 10
    validate_curve(c, t11)
