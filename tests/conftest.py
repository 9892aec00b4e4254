"""Shared pytest plumbing: a repeatable Hypothesis profile, the fixtures
several test modules share, and the acceptance-criterion result lines,
printed after the run outside output capture."""
from __future__ import annotations

import pytest
from hypothesis import settings

from trackform.curve_ops import ARC, CLOSED, Curve, reverse
from trackform.fixtures import load_fixture
from trackform.generate import random_arc
from trackform.snippet_core import Snippet

# Every run draws the same examples, and none are replayed from a saved
# database, so a property test passes or fails the same way each time.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


# Module scope: each test module builds its own fresh neighbourhoods, so the
# tables one module fills are never seen by another.
@pytest.fixture(scope="module")
def t11():
    return load_fixture("t11")


@pytest.fixture(scope="module")
def s04():
    return load_fixture("s04")


@pytest.fixture(scope="module")
def carried_loop(t11):
    """A closed curve carried by t11: four tie-to-tie rectangle snippets."""
    r = t11.region_id
    return Curve(CLOSED, (
        Snippet(r["br:a"], (3, 0), (1, 0)),
        Snippet(r["sw:v1"], (1, 0), (3, 0)),
        Snippet(r["br:b"], (1, 0), (3, 0)),
        Snippet(r["sw:v0"], (3, 0), (1, 0)),
    ))


def one_ended_arc(nb, rng, length: int, flip: bool = True) -> Curve:
    """A random arc of at least `length` snippets with exactly one endpoint
    on the surface boundary: a proper arc without its last snippet, so it
    ends on a glued edge.  It starts on the boundary, or with `flip` ends
    there on a coin toss."""
    arc = random_arc(nb, rng, length + 1, proper=True)
    arc = Curve(ARC, arc.snippets[:-1])
    return reverse(arc) if flip and rng.random() < 0.5 else arc


ACCEPTANCE: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)
