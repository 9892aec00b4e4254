"""End-to-end CLI oracles: subcommand behaviour, the exit-code protocol,
and byte determinism of generated artifacts."""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from trackform.cli import main


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
