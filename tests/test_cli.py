"""End-to-end CLI oracles: subcommand behaviour, the exit-code protocol,
and byte determinism of generated artifacts."""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import click
import pytest

from trackform import cli, pipelines
from trackform.cli import main
from trackform.errors import ParseError
from trackform.fixtures import fixture_text, load_fixture
from trackform.formats import parse_curve, parse_track, serialize_curve
from trackform.generate import random_arc
from trackform.pipelines import efficient_position


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def curve_file(tmp_path) -> Path:
    code, out, _ = run_cli("gen", "t11", "--len", "8", "--seed", "2")
    assert code == 0
    p = tmp_path / "c.curve"
    p.write_text(out)
    return p


def test_validate_fixture():
    code, out, _ = run_cli("validate", "t11")
    assert code == 0
    assert "s_N: 9" in out and "valid" in out


def test_validate_unknown_track_is_usage_error():
    code, _, err = run_cli("validate", "no-such-track")
    assert code == 64
    assert "no track file" in err


def test_classify_lists_each_snippet(curve_file):
    code, out, _ = run_cli("classify", "t11", str(curve_file))
    assert code == 0
    lines = out.strip().splitlines()
    n = len(json.loads(curve_file.read_text())["snippets"])
    assert len(lines) == n + 1
    assert lines[-1].startswith("len=")


def test_run_emits_trace_and_exit_code(tmp_path, curve_file):
    trace = tmp_path / "run.trace"
    after = tmp_path / "after.curve"
    code, out, _ = run_cli("run", "t11", str(curve_file),
                           "--trace", str(trace), "--out", str(after))
    assert code in (0, 2)
    assert "status:" in out and "pushes:" in out
    assert trace.exists() and after.exists()
    if code == 2:
        assert "class: " in out
        assert "SingleSnippet" in out
    # byte determinism: a second identical run writes identical bytes
    trace2 = tmp_path / "run2.trace"
    code2, out2, _ = run_cli("run", "t11", str(curve_file),
                             "--trace", str(trace2))
    assert code2 == code and out2.split("final:")[0] == out.split("final:")[0]
    assert trace2.read_bytes() == trace.read_bytes()


def test_run_reads_off_boundary_power(tmp_path):
    # a curve built as the (-1)-st power of the boundary contracts to a
    # single annulus snippet; run reports the component and power, exit 2
    from trackform.fixtures import load_fixture
    from trackform.formats import serialize_curve
    from trackform.generate import boundary_power

    nb = load_fixture("t11")
    p = tmp_path / "b.curve"
    p.write_text(serialize_curve(boundary_power(nb, 5, -1), nb))
    code, out, _ = run_cli("run", "t11", str(p))
    assert code == 2
    assert "class: peripheral" in out
    assert "boundary: 0" in out
    assert "power: -1" in out


def test_run_and_oracle_push_a_proper_arc(tmp_path):
    """A proper arc whose pushes merge a turn round its face onto the
    boundary (`test_proper_arcs` pins it): the turn is dropped, so both
    commands finish with no error line."""
    nb = load_fixture("t11")
    p = tmp_path / "arc.curve"
    p.write_text(serialize_curve(
        random_arc(nb, random.Random(4), 5, proper=True), nb))
    code, out, err = run_cli("run", "t11", str(p))
    assert (code, err) == (2, ""), out
    assert "status: SingleSnippet" in out and "class: inessential" in out
    code, out, err = run_cli("oracle", "t11", str(p))
    assert (code, err) == (0, ""), out
    assert "agreement: yes" in out


def test_verify_accepts_and_rejects(tmp_path, curve_file):
    trace = tmp_path / "run.trace"
    after = tmp_path / "after.curve"
    run_cli("run", "t11", str(curve_file), "--trace", str(trace),
            "--out", str(after))
    code, out, _ = run_cli("verify", "t11", str(curve_file), str(after),
                           "--trace", str(trace))
    assert code == 0 and "PASS" in out

    # tamper with one recorded rule: audit must fail with exit 1
    lines = trace.read_text().strip().split("\n")
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if rec.get("op") == "hom":
            rec["rule"] = "R(h,h)" if rec["rule"] != "R(h,h)" else "B(h,t)"
            lines[i] = json.dumps(rec, sort_keys=True,
                                  separators=(",", ":"))
            break
    forged = tmp_path / "forged.trace"
    forged.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli("verify", "t11", str(curve_file), str(after),
                           "--trace", str(forged))
    assert code == 1 and "FAIL" in err


def _recorded_run(tmp_path, curve_file) -> tuple[Path, Path]:
    trace, after = tmp_path / "run.trace", tmp_path / "after.curve"
    run_cli("run", "t11", str(curve_file), "--trace", str(trace),
            "--out", str(after))
    return trace, after


_STATUSES = ("Efficient", "SingleSnippet", "InsideEfficient")


@pytest.mark.parametrize("forge", [
    "genuine", *_STATUSES, "no-status", "foreign-track"])
@pytest.mark.parametrize("seed", [2, 3])  # SingleSnippet, Efficient
def test_verify_checks_the_trace_header(tmp_path, seed, forge):
    curve_file = tmp_path / "c.curve"
    curve_file.write_text(
        run_cli("gen", "t11", "--len", "8", "--seed", str(seed))[1])
    trace, after = _recorded_run(tmp_path, curve_file)
    head, *records = trace.read_text().split("\n")
    meta = json.loads(head)
    genuine = forge == "genuine" or forge == meta["status"]
    if forge in _STATUSES:
        meta["status"] = forge
    elif forge == "no-status":
        del meta["status"]
    elif forge == "foreign-track":
        meta["track"] = "s04"
    trace.write_text("\n".join(
        [json.dumps(meta, sort_keys=True, separators=(",", ":")), *records]))
    code, out, err = run_cli("verify", "t11", str(curve_file), str(after),
                             "--trace", str(trace))
    if genuine:
        assert code == 0 and out.startswith("PASS: "), err
    else:
        assert code == 1 and err.startswith("FAIL: "), (out, err)
        assert "PASS" not in out


@pytest.mark.parametrize("case", [
    "validate-dir", "run-curve-dir", "verify-trace-dir", "run-trace-nodir",
    "render-svg-nodir", "gen-out-file"])
def test_bad_paths_exit_one(tmp_path, curve_file, case):
    trace, after = _recorded_run(tmp_path, curve_file)
    d, missing = str(tmp_path), str(tmp_path / "nodir" / "x")
    args = {
        "validate-dir": ["validate", d],
        "run-curve-dir": ["run", "t11", d],
        "verify-trace-dir": ["verify", "t11", str(curve_file), str(after),
                             "--trace", d],
        "run-trace-nodir": ["run", "t11", str(curve_file), "--trace",
                            missing],
        "render-svg-nodir": ["render", "t11", "--svg", missing],
        "gen-out-file": ["gen", "t11", "--len", "6", "--count", "2",
                         "--out", str(curve_file)],
    }[case]
    code, _, err = run_cli(*args)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_rejects_malformed_records(tmp_path, curve_file):
    trace = tmp_path / "run.trace"
    after = tmp_path / "after.curve"
    run_cli("run", "t11", str(curve_file), "--trace", str(trace),
            "--out", str(after))
    head, first, *rest = trace.read_text().strip().split("\n")
    rec = json.loads(first)
    for bad in ("[1,2]", json.dumps({**rec, "k": None}),
                json.dumps({k: v for k, v in rec.items() if k != "n"})):
        forged = tmp_path / "forged.trace"
        forged.write_text("\n".join([head, bad, *rest]) + "\n")
        code, _, err = run_cli("verify", "t11", str(curve_file), str(after),
                               "--trace", str(forged))
        assert code == 1
        assert "FAIL: event 0: record" in err and "Traceback" not in err


def test_oracle_agreement_exit_zero(tmp_path):
    code, out, _ = run_cli("gen", "t11", "--len", "4", "--seed", "5")
    p = tmp_path / "s.curve"
    p.write_text(out)
    code, out, _ = run_cli("oracle", "t11", str(p), "--cap", "30000")
    assert code == 0
    assert "agreement: yes" in out


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_is_usage_error(curve_file, cap):
    code, out, err = run_cli("oracle", "t11", str(curve_file), "--cap", cap)
    assert code == 64
    assert "--cap" in err and "oracle:" not in out


def test_gen_batch_and_stats(tmp_path):
    batch = tmp_path / "batch"
    code, out, _ = run_cli("gen", "t11", "--len", "10", "--seed", "0",
                           "--count", "5", "--out", str(batch))
    assert code == 0
    files = sorted(batch.glob("*.curve"))
    assert len(files) == 5
    code, out, _ = run_cli("stats", "t11", "--batch", str(batch))
    assert code == 0
    assert "within budget: 5/5" in out
    assert "fitted exponent" in out


def test_stats_counts_a_run_over_the_proven_bound(tmp_path, monkeypatch):
    # A run that takes between one and two times the proven bound finishes
    # under the global budget (twice the bound) and must still be counted
    # as over it.
    batch = tmp_path / "batch"
    assert run_cli("gen", "t11", "--len", "12", "--seed", "3",
                   "--count", "1", "--out", str(batch))[0] == 0
    [f] = batch.glob("*.curve")
    nb = load_fixture("t11")
    pushes = efficient_position(parse_curve(f.read_text(), nb), nb).homs
    assert pushes >= 2
    bound = (pushes + 1) // 2  # bound < pushes <= 2 * bound
    monkeypatch.setattr(pipelines, "proven_push_bound", lambda nb, n0: bound)
    monkeypatch.setattr(cli, "proven_push_bound", lambda nb, n0: bound)
    code, out, _ = run_cli("stats", "t11", "--batch", str(batch))
    assert f"pushes={pushes}" in out
    assert "within budget: 0/1" in out
    assert code == 1


@pytest.mark.parametrize("args", [
    ("run", "--max-steps", "-1"), ("gen", "--len", "0"),
    ("gen", "--len", "-3")])
def test_out_of_range_counts_are_usage_errors(curve_file, args):
    cmd, opt, value = args
    rest = (str(curve_file),) if cmd == "run" else ()
    code, out, err = run_cli(cmd, "t11", *rest, opt, value)
    assert code == 64
    assert opt in err and not out


def test_run_past_the_push_budget_exits_one(tmp_path):
    # this curve needs 37 pushes
    p = tmp_path / "c.curve"
    p.write_text(run_cli("gen", "t11", "--len", "30", "--seed", "3")[1])
    code, out, err = run_cli("run", "t11", str(p), "--max-steps", "2")
    assert code == 1 and not out
    assert err == "error: global rewrite budget of 2 pushes exhausted\n"


def _readme_cli_lines() -> list[list[str]]:
    """The `trackform` command lines of README's CLI quick start, split
    into words, without their comments."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Quick start (CLI)", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("trackform ")]


def test_readme_cli_lines_name_real_commands_and_options():
    lines = _readme_cli_lines()
    assert len(lines) >= 8
    for words in lines:
        command = cli.cli.commands.get(words[1])
        assert command is not None, words
        opts = {o for p in command.params if isinstance(p, click.Option)
                for o in p.opts}
        for w in words[2:]:
            assert not w.startswith("-") or w in opts, (words[1], w)
    assert {words[1] for words in lines} == set(cli.cli.commands)


def test_gen_count_needs_out_dir():
    code, _, err = run_cli("gen", "t11", "--len", "5", "--count", "3")
    assert code == 64


def test_gen_is_deterministic():
    a = run_cli("gen", "t11", "--len", "7", "--seed", "11")
    b = run_cli("gen", "t11", "--len", "7", "--seed", "11")
    assert a == b and a[0] == 0


def test_render_writes_svg(tmp_path, curve_file):
    svg = tmp_path / "out.svg"
    code, out, _ = run_cli("render", "t11", str(curve_file),
                           "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # track-only rendering works too and is deterministic
    svg2 = tmp_path / "track.svg"
    run_cli("render", "t11", "--svg", str(svg2))
    run_cli("render", "t11", "--svg", str(svg))
    assert svg.read_text() != text  # no curve overlay now
    run_cli("render", "t11", "--svg", str(svg))
    assert svg.read_text() == svg2.read_text()


@pytest.mark.parametrize("field,value,named", [
    ("region", ["br:a"], "snippet 0"),
    ("region", {"name": "br:a"}, "snippet 0"),
    ("kind", ["closed"], "curve kind"),
    ("kind", {"closed": True}, "curve kind"),
])
def test_unhashable_curve_values_exit_one(tmp_path, curve_file, field, value,
                                          named):
    doc = json.loads(curve_file.read_text())
    if field == "region":
        doc["snippets"][0]["region"] = value
    else:
        doc["kind"] = value
    bad = tmp_path / "bad.curve"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("classify", "t11", str(bad))
    assert code == 1
    assert named in err and "Traceback" not in err


def test_structural_error_exits_one(tmp_path, curve_file):
    doc = json.loads(curve_file.read_text())
    doc["snippets"][0]["region"] = "br:zz"
    bad = tmp_path / "bad.curve"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("classify", "t11", str(bad))
    assert code == 1
    assert "br:zz" in err


_HUGE = "1" + "0" * 5000
_NESTED = "[" * 100_000


def _bad_file(tmp_path, fmt, case, curve_file) -> tuple[Path, int | None]:
    """A track, curve or trace file that cannot be decoded (bytes that are
    not UTF-8, an integer of 5001 digits, 100000 nested arrays), and the
    line the error must name, where it is known."""
    if fmt == "track":
        good = "format: track/1\n"
        bad = {"bytes": b"\xff\n", "int": f"genus: {_HUGE}\n".encode(),
               "nested": _NESTED.encode()}[case]
        text, line = good.encode() + bad, 2
    elif fmt == "curve":
        doc = curve_file.read_text()
        if case == "bytes":
            text, line = doc.replace('"kind"', '"ki\udcffnd"', 1).encode(
                "utf-8", "surrogateescape"), 3
        elif case == "int":
            text, line = doc.replace('"end": [', f'"wind": {_HUGE}, "end": [',
                                     1).encode(), None
        else:
            text, line = _NESTED.encode(), None
    else:
        trace = tmp_path / "run.trace"
        run_cli("run", "t11", str(curve_file), "--trace", str(trace),
                "--out", str(tmp_path / "after.curve"))
        head = trace.read_text().split("\n")[0]
        bad = {"bytes": b"\xff", "int": f'{{"n": {_HUGE}}}'.encode(),
               "nested": _NESTED.encode()}[case]
        text, line = head.encode() + b"\n" + bad + b"\n", 2
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(text)
    return path, line


@pytest.mark.parametrize("case", ["bytes", "int", "nested"])
@pytest.mark.parametrize("fmt", ["track", "curve", "trace"])
def test_undecodable_files_exit_one(tmp_path, curve_file, fmt, case):
    path, line = _bad_file(tmp_path, fmt, case, curve_file)
    if fmt == "track":
        args = ["validate", str(path)]
    elif fmt == "curve":
        args = ["run", "t11", str(path)]
    else:
        args = ["verify", "t11", str(curve_file),
                str(tmp_path / "after.curve"), "--trace", str(path)]
    code, _, err = run_cli(*args)
    assert code == 1, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err) < 300  # the offending text is not echoed in full
    if line is not None:
        assert f"(line {line}" in err, err


def test_one_cusp_face_exits_one(tmp_path):
    """A face word of one cusp token is a structured error, not a crash."""
    path = tmp_path / "one-cusp.track"
    path.write_text(
        "format: track/1\ngenus: 1\nboundary: 2\nbranches: a b d\n"
        "switch v0: large a.0 smalls b.0 d.0\n"
        "switch v1: large a.1 smalls b.1 d.1\n"
        "face annulus: v0.c\n"
        "face annulus: b.l v1.t a.r v0.b d.l v1.c b.r v0.t a.l v1.b d.r\n")
    code, _, err = run_cli("validate", str(path))
    assert code == 1, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "face:0 does not follow the switches" in err


# -- malformed files that decode --------------------------------------------

_T11 = fixture_text("t11")
_SWITCH = "switch v0: large a.0 smalls b.0 d.0"


def _drop(line: str) -> str:
    return "".join(l for l in _T11.splitlines(keepends=True)
                   if not l.startswith(line))


# (track text, message, line): each line of t11's description counts from
# its leading comment, so its switch v0 line is line 6
_MALFORMED_TRACKS = {
    "switch-line": (_T11.replace(_SWITCH, "switch v0: large a.0 smalls b.0"),
                    "switch line must read 'large BR.E smalls BR.E BR.E'", 6),
    "empty-face-word": (_T11 + "face disc:\n", "empty face word", 9),
    "no-genus": (_drop("genus:"),
                 "missing genus, boundary, or branches line", 1),
    "no-boundary": (_drop("boundary:"),
                    "missing genus, boundary, or branches line", 1),
    "no-branches": (_drop("branches:"),
                    "missing genus, boundary, or branches line", 1),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_TRACKS))
def test_malformed_track_line_is_a_parse_error(tmp_path, case):
    text, message, line = _MALFORMED_TRACKS[case]
    with pytest.raises(ParseError) as exc:
        parse_track(text)
    assert exc.value.line == line
    assert str(exc.value) == f"{message} (line {line})"
    path = tmp_path / "bad.track"
    path.write_text(text)
    code, out, err = run_cli("validate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message} (line {line})\n"


def test_snippet_that_is_not_an_object_is_a_parse_error(tmp_path,
                                                        curve_file):
    """A curve/1 error names the snippet: the JSON decoder keeps no line
    for a value, and every other snippet error names its index too."""
    doc = json.loads(curve_file.read_text())
    doc["snippets"][1] = [1, 2]
    text = json.dumps(doc, indent=2)
    with pytest.raises(ParseError) as exc:
        parse_curve(text, load_fixture("t11"))
    assert str(exc.value) == "snippet 1 is not an object"
    path = tmp_path / "bad.curve"
    path.write_text(text)
    code, out, err = run_cli("run", "t11", str(path))
    assert (code, out) == (1, "")
    assert err == "error: snippet 1 is not an object\n"


# -- paths and counts the other tests do not take ---------------------------


def test_track_given_as_a_file_path_is_named_by_its_stem(tmp_path):
    path = tmp_path / "theta.track"
    path.write_text(_T11)
    code, out, err = run_cli("validate", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "track theta: valid"
    assert "size s_N: 9" in out


@pytest.mark.parametrize("case", [
    "curve", "trace", "count-0", "stats-no-dir", "stats-no-curves"])
def test_missing_inputs_are_usage_errors(tmp_path, curve_file, case):
    missing, empty = str(tmp_path / "missing"), tmp_path / "empty"
    empty.mkdir()
    args, named = {
        "curve": (["classify", "t11", missing],
                  f"no curve file {missing!r}"),
        "trace": (["verify", "t11", str(curve_file), str(curve_file),
                   "--trace", missing], f"no trace file {missing!r}"),
        "count-0": (["gen", "t11", "--len", "4", "--count", "0"],
                    "--count must be >= 1"),
        "stats-no-dir": (["stats", "t11", "--batch", missing],
                         f"{missing!r} is not a directory"),
        "stats-no-curves": (["stats", "t11", "--batch", str(empty)],
                            f"no .curve files in {str(empty)!r}"),
    }[case]
    code, out, err = run_cli(*args)
    assert (code, out) == (64, "")
    assert err.splitlines()[-1] == f"Error: {named}"


def test_oracle_at_its_smallest_cap_is_inconclusive(curve_file):
    code, out, err = run_cli("oracle", "t11", str(curve_file), "--cap", "1")
    assert code == 1
    assert out == ("oracle: conclusive=False efficient_reachable=False"
                   " single_reachable=False states=1\n")
    assert err == "inconclusive: state cap\n"
