"""Known answers on a track with a loop branch (`loop_annulus.track`).

Branch x1 has both ends at switch v2, so face 3, `v2.c x1.r`, is a
one-cusp annulus whose word is one cusp and one branch edge.  Its polygon
cycle has two loci, so the in-between snippet a push threads across the
edge x1.r starts and ends on the one cusp locus, hugging the edge.  The
curves here are closed curves on this track; the known answers include
pipeline branches that no fixture's curve reaches.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import (LOOP_TRACK, load_loop_track, src_env,
                      two_snippet_curves)
from trackform.formats import parse_curve
from trackform.pipelines import (EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position, terminal_summary)
from trackform.verification import (audit_trace, exhaustive_oracle,
                                    oracle_agrees)

# Once round the loop branch x1; its second snippet is an S(t,t,2).
LOOP = [{"end": [1, 0], "region": "br:x1", "start": [3, 0]},
        {"end": [3, 2], "region": "sw:v2", "start": [3, 0]}]
# Reaches `weight_two` on a two-snippet curve.
WEIGHT_TWO = [{"end": [0, 0], "region": "br:x2", "start": [2, 0]},
              {"end": [1, 4], "region": "face:1", "start": [1, 0]}]
# Reaches `hor_bigon_comp` on a two-snippet curve.
HOR_BIGON = [{"end": [0, 0], "region": "face:1", "start": [1, 5],
              "wind": -1},
             {"end": [2, 0], "region": "sw:v0", "start": [3, 1]}]
# Reaches the S(t,t,0) exit of `two_trigons`; found among `random_closed`
# curves on this track.
TWO_TRIGONS = [{"end": [1, 0], "region": "face:0", "start": [0, 0],
                "wind": -1},
               {"end": [1, 0], "region": "br:x4", "start": [2, 0]},
               {"end": [0, 0], "region": "sw:v1", "start": [3, 0]},
               {"end": [1, 9], "region": "face:1", "start": [1, 7],
                "wind": -2},
               {"end": [3, 1], "region": "sw:v3", "start": [0, 0]}]

# snippets, boundary component, power, pushes, oracle states
KNOWN = {"loop": (LOOP, 3, -1, 2, 3),
         "weight_two": (WEIGHT_TWO, 3, -1, 4, 5),
         "hor_bigon": (HOR_BIGON, 3, 1, 5, 7),
         "two_trigons": (TWO_TRIGONS, 3, 1, 11, 44)}


@pytest.fixture(scope="module")
def nb():
    return load_loop_track()


def _text(snippets) -> str:
    return json.dumps({"format": "curve/1", "kind": "closed",
                       "snippets": snippets})


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_answers(nb, name):
    """Each curve contracts to a power of boundary component 3 after its
    known number of pushes; the audit passes and a conclusive oracle
    agrees."""
    snippets, boundary, power, pushes, states = KNOWN[name]
    curve = parse_curve(_text(snippets), nb)
    res = efficient_position(curve, nb)
    info = terminal_summary(res, nb)
    assert (res.status, info["class"], info["boundary"], info["power"],
            res.homs) == (SINGLE_SNIPPET, "peripheral", boundary, power,
                          pushes)
    assert audit_trace(res.events, curve, res.curve, nb).ok
    v = exhaustive_oracle(curve, nb)
    assert v.conclusive and v.states == states
    assert oracle_agrees(v, res.status)


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "trackform.cli", *args],
                          capture_output=True, text=True, env=src_env(),
                          timeout=120)


def test_loop_curve_through_the_cli(tmp_path):
    """`run`, `verify` and `oracle` on the loop curve, each in its own
    process: `run` exits 2 with the read-off and no traceback."""
    before, after = tmp_path / "before.curve", tmp_path / "after.curve"
    trace = tmp_path / "run.trace"
    before.write_text(_text(LOOP))
    p = _cli("run", str(LOOP_TRACK), str(before), "--trace", str(trace),
             "--out", str(after))
    assert p.returncode == 2, p.stderr
    assert "Traceback" not in p.stderr
    assert {"class: peripheral", "boundary: 3", "power: -1"} <= \
        set(p.stdout.splitlines())
    p = _cli("verify", str(LOOP_TRACK), str(before), str(after), "--trace",
             str(trace))
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "PASS: 4 events, 32 checks"
    p = _cli("oracle", str(LOOP_TRACK), str(before))
    assert p.returncode == 0, p.stderr
    assert "states=3" in p.stdout and "agreement: yes" in p.stdout


def test_every_two_snippet_curve_runs_audits_and_agrees(nb):
    """Every valid two-snippet closed curve on the track, in both
    rotations, with windings -6..6 on each snippet: the run succeeds, its
    trace audits clean and a conclusive oracle agrees with it."""
    statuses = {SINGLE_SNIPPET: 0, EFFICIENT: 0}
    for curve in two_snippet_curves(nb, range(-6, 7)):
        res = efficient_position(curve, nb)
        assert audit_trace(res.events, curve, res.curve, nb).ok, curve
        v = exhaustive_oracle(curve, nb)
        assert v.conclusive and oracle_agrees(v, res.status), curve
        statuses[res.status] += 1
    assert statuses == {SINGLE_SNIPPET: 376, EFFICIENT: 68}
