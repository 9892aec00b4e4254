"""Runs on a closed surface (`closed_genus2.track`, genus 2, boundary 0).

With no boundary there is no peripheral class: a run that contracts a
curve to one snippet has found it inessential, and no arc can end on the
surface boundary.  Seeded closed curves and interior arcs must each audit
clean, an `Efficient` result must pass the independent efficiency check,
and a conclusive oracle must agree with the run.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import CLOSED_TRACK, load_track_file
from trackform.errors import BadInput
from trackform.generate import doubled_back, random_arc, random_closed
from trackform.pipelines import (EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position, terminal_summary)
from trackform.verification import (audit_trace, check_efficient,
                                    exhaustive_oracle, oracle_agrees)

SEEDS = range(40)


@pytest.fixture(scope="module")
def nb():
    return load_track_file(CLOSED_TRACK)


def test_the_track_is_a_closed_genus_two_surface(nb):
    assert (nb.desc.genus, nb.desc.boundary) == (2, 0)
    assert nb.boundary_components == ()
    assert nb.s_N == 25


def _closed(nb, rng):
    return random_closed(nb, rng, rng.randrange(2, 9))


def _arc(nb, rng):
    return random_arc(nb, rng, rng.randrange(1, 8))


def _doubled_back(nb, rng):
    return doubled_back(nb, rng, rng.randrange(1, 4))


# generator, then the pinned (status, class) counts and conclusive oracle
# verdicts over SEEDS
@pytest.mark.parametrize("draw, classes, conclusive", [
    (_closed, {(EFFICIENT, "essential"): 34,
               (SINGLE_SNIPPET, "inessential"): 6}, 40),
    (_arc, {(EFFICIENT, "essential"): 12,
            ("InsideEfficient", "essential"): 27,
            (SINGLE_SNIPPET, "inessential"): 1}, 40),
    (_doubled_back, {(SINGLE_SNIPPET, "inessential"): 40}, 40),
], ids=["closed", "arc", "doubled-back"])
def test_seeded_runs_audit_and_agree_with_the_oracle(nb, draw, classes,
                                                     conclusive):
    seen, decided = Counter(), 0
    for seed in SEEDS:
        curve = draw(nb, random.Random(seed))
        res = efficient_position(curve, nb)
        assert audit_trace(res.events, curve, res.curve, nb).events == \
            len(res.events), seed
        if res.status == EFFICIENT:
            assert check_efficient(res.curve, nb).ok, seed
        info = terminal_summary(res, nb)
        assert info["class"] != "peripheral", seed
        seen[res.status, info["class"]] += 1
        verdict = exhaustive_oracle(curve, nb)
        if verdict.conclusive:
            decided += 1
            assert oracle_agrees(verdict, res.status), seed
    assert (dict(seen), decided) == (classes, conclusive)


def test_proper_arcs_need_a_boundary(nb):
    with pytest.raises(BadInput, match="^track has no surface boundary "
                                       "inside its faces$"):
        random_arc(nb, random.Random(0), 3, proper=True)
