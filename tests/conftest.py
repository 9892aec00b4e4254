"""Shared pytest plumbing: a repeatable Hypothesis profile, the fixtures
and helpers several test modules share, and the acceptance-criterion
result lines, printed after the run outside output capture."""
from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from trackform.curve_ops import ARC, CLOSED, Curve, reverse, validate_curve
from trackform.errors import TrackformError
from trackform.fixtures import load_fixture
from trackform.formats import parse_track, read_text
from trackform.generate import random_arc
from trackform.snippet_core import Snippet
from trackform.track_model import build_tie_neighbourhood

LOOP_TRACK = Path(__file__).resolve().parent / "loop_annulus.track"
CLOSED_TRACK = Path(__file__).resolve().parent / "closed_genus2.track"

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


def load_track_file(path: Path):
    """The neighbourhood of a track file, named by its stem as the CLI
    names it."""
    nb = build_tie_neighbourhood(parse_track(read_text(path)))
    nb.name = path.stem
    return nb


def load_loop_track():
    """The track of `loop_annulus.track`, whose face 3 is the one-cusp
    annulus of the loop branch x1."""
    return load_track_file(LOOP_TRACK)


def one_ended_arc(nb, rng, length: int, flip: bool = True) -> Curve:
    """A random arc of at least `length` snippets with exactly one endpoint
    on the surface boundary: a proper arc without its last snippet, so it
    ends on a glued edge.  It starts on the boundary, or with `flip` ends
    there on a coin toss."""
    arc = random_arc(nb, rng, length + 1, proper=True)
    arc = Curve(ARC, arc.snippets[:-1])
    return reverse(arc) if flip and rng.random() < 0.5 else arc


def two_snippet_curves(nb, turns):
    """Every valid two-snippet closed curve with windings in `turns`, in
    both rotations."""
    for r0 in range(len(nb.regions)):
        for a in nb.polygon_loci(r0):
            for b in nb.polygon_loci(r0):
                r1, start = nb.partner(r0, b)
                back, end = nb.partner(r0, a)
                if back != r1:
                    continue
                for w0 in turns:
                    for w1 in turns:
                        curve = Curve(CLOSED, (Snippet(r0, a, b, w0),
                                               Snippet(r1, start, end, w1)))
                        try:
                            validate_curve(curve, nb)
                        except TrackformError:
                            continue
                        yield curve


def src_env() -> dict[str, str]:
    """The environment for a subprocess that imports trackform from this
    checkout's `src`."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


ACCEPTANCE: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)
