"""Structured errors and guard returns that no other test reaches, one row
each: the call, and the exception with its whole message, or the value, it
must give.  The CLI rows give the exit code and the whole of stderr, so an
`error:` line means no traceback was printed."""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from trackform import cli
from trackform.cli import main
from trackform.curve_ops import ARC, CLOSED, Curve, is_blocker, validate_curve
from trackform.errors import BadInput, InconsistentSnippet
from trackform.fixtures import load_fixture
from trackform.formats import Rotate, parse_curve, serialize_curve
from trackform.generate import (doubled_back, peripheral_bounce, random_arc,
                                random_closed)
from trackform.pipelines import Run, reduce_to_one, terminal_status
from trackform.snippet_core import Snippet

# two of t11's regions: br:a, a branch rectangle, and face:0, the annulus
# (sides v h v h boundary)
BR_A, FACE_0 = 0, 5


class Raises(NamedTuple):
    exc: type[BaseException]
    message: str


def _arc(nb):
    return random_arc(nb, random.Random(1), 5)


def _half_closed_doc(nb) -> str:
    """A curve/1 file whose second snippet has a null start and a locus as
    its end."""
    doc = json.loads(serialize_curve(_arc(nb), nb))
    doc["snippets"][1]["start"] = None
    return json.dumps(doc)


def _blocker_round_the_end(nb, _tmp, _mp):
    """A closed curve's blocker window that wraps round its end: a blocker
    there, and outside the arc of the same snippets."""
    for seed in range(1000):
        c = random_closed(nb, random.Random(seed), 6)
        n = len(c.snippets)
        for k in (n - 2, n - 1):
            if is_blocker(c, nb, k):
                return True, is_blocker(Curve(ARC, c.snippets), nb, k)
    raise AssertionError("no blocker window wraps round a curve's end")


def _cli(*args: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


def _run_half_closed(nb, tmp_path, _mp):
    path = tmp_path / "half.curve"
    path.write_text(_half_closed_doc(nb))
    return _cli("run", "t11", str(path))


def _verify_refused_efficient(nb, tmp_path, monkeypatch):
    """`verify` on a genuine run whose trace claims Efficient, with the
    final curve's efficiency check made to fail."""
    before, after, trace = (tmp_path / f for f in ("b.curve", "a.curve",
                                                   "run.trace"))
    before.write_text(serialize_curve(random_closed(
        nb, random.Random(3), 8), nb))
    assert _cli("run", "t11", str(before), "--trace", str(trace),
                "--out", str(after)) == (0, "")
    assert '"status":"Efficient"' in trace.read_text().split("\n")[0]
    monkeypatch.setattr(cli, "check_efficient",
                        lambda curve, nb: SimpleNamespace(ok=False))
    return _cli("verify", "t11", str(before), str(after), "--trace",
                str(trace))


ROWS = [
    ("validate_curve-unknown-kind",
     lambda nb, *_: validate_curve(Curve("loop", _arc(nb).snippets), nb),
     Raises(BadInput, "unknown curve kind 'loop'")),
    ("is_blocker-two-snippets",
     lambda nb, *_: is_blocker(Curve(CLOSED, _arc(nb).snippets[:2]), nb, 0),
     False),
    ("is_blocker-window-outside-the-arc", _blocker_round_the_end,
     (True, False)),
    ("load_fixture-unknown", lambda nb, *_: load_fixture("nope"),
     Raises(BadInput, "unknown fixture 'nope'; available: t11, t11d, s04, "
                      "s12")),
    ("record-unknown-key", lambda nb, *_: Rotate(1)["nope"],
     Raises(KeyError, "'nope'")),
    ("record-integer-index", lambda nb, *_: Rotate(1, "p")[:2], (1, "p")),
    ("parse_curve-one-null-endpoint",
     lambda nb, *_: parse_curve(_half_closed_doc(nb), nb),
     Raises(InconsistentSnippet, "one endpoint closed, the other not")),
    ("cli-run-one-null-endpoint", _run_half_closed,
     (1, "error: one endpoint closed, the other not\n")),
    ("random_arc-length-0",
     lambda nb, *_: random_arc(nb, random.Random(0), 0),
     Raises(BadInput, "arc length must be >= 1")),
    ("random_closed-length-1",
     lambda nb, *_: random_closed(nb, random.Random(0), 1),
     Raises(BadInput, "closed walks need length >= 2")),
    ("peripheral_bounce-power-0",
     lambda nb, *_: peripheral_bounce(nb, FACE_0, 0),
     Raises(BadInput, "power must be nonzero")),
    ("peripheral_bounce-rectangle",
     lambda nb, *_: peripheral_bounce(nb, BR_A, 1),
     Raises(BadInput, "region br:a is not an annulus face")),
    ("locus_position-unknown-locus",
     lambda nb, *_: nb.locus_position(BR_A, (9, 9)),
     Raises(BadInput, "no locus (9, 9) in region br:a")),
    ("edge_weight-tie-locus", lambda nb, *_: nb.edge_weight(BR_A, (1, 0)),
     Raises(BadInput, "edge weight undefined for label t")),
    ("h_run_length-vertical-side",
     lambda nb, *_: nb.h_run_length(FACE_0, 0),
     Raises(BadInput, "not a horizontal side")),
    ("Run.rotate-arc", lambda nb, *_: Run(_arc(nb), nb).rotate(1, "p"),
     Raises(BadInput, "only closed curves rotate")),
    ("Run.open_dup-arc", lambda nb, *_: Run(_arc(nb), nb).open_dup("p"),
     Raises(BadInput, "only closed curves open at a seam")),
    ("Run.open_dup-closed-snippet",
     lambda nb, *_: Run(Curve(CLOSED, (Snippet(FACE_0, None, None, 4),)),
                        nb).open_dup("p"),
     Raises(BadInput, "cannot open a curve at a closed snippet")),
    ("Run.seam-without-open", lambda nb, *_: Run(_arc(nb), nb).seam("p"),
     Raises(BadInput, "seam closes an arc opened by open_dup")),
    ("reduce_to_one-arc", lambda nb, *_: reduce_to_one(Run(_arc(nb), nb)),
     Raises(BadInput, "the seam step applies to closed curves")),
    # a one-snippet closed curve is a closed snippet, as no region is
    # glued to itself, so it cannot be opened at a seam
    ("reduce_to_one-one-snippet",
     lambda nb, *_: reduce_to_one(
         Run(Curve(CLOSED, (Snippet(FACE_0, None, None, 4),)), nb)),
     Raises(BadInput, "cannot open a curve at a closed snippet")),
    ("terminal_status-interior-bad",
     lambda nb, *_: terminal_status(doubled_back(nb, random.Random(0), 2),
                                    nb),
     None),
    ("cli-verify-refused-efficient", _verify_refused_efficient,
     (1, "FAIL: trace claims Efficient but the final curve has a bad "
         "snippet\n")),
]


@pytest.mark.parametrize("call, want",
                         [pytest.param(c, w, id=i) for i, c, w in ROWS])
def test_unreached_errors(call, want, t11, tmp_path, monkeypatch):
    if isinstance(want, Raises):
        with pytest.raises(want.exc, match=f"^{re.escape(want.message)}$"):
            call(t11, tmp_path, monkeypatch)
    else:
        assert call(t11, tmp_path, monkeypatch) == want
