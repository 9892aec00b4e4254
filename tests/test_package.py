"""The package façade and the library example in README.md."""
from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

from conftest import src_env
import trackform

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [n for n in trackform.__all__ if not hasattr(trackform, n)]
    assert not missing
    assert len(set(trackform.__all__)) == len(trackform.__all__)


def test_import_loads_no_dataclasses():
    """The record types are NamedTuples: a fresh `import trackform.cli`
    leaves `dataclasses` unloaded."""
    p = subprocess.run(
        [sys.executable, "-c",
         "import sys, trackform.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"


def test_readme_library_quick_start_runs():
    text = README.read_text()
    block = re.search(r"## Quick start \(library\)\s+```python\n(.*?)```",
                      text, re.S).group(1)
    # the outputs the block's comments promise
    assert "# Efficient 5 pushes" in block
    assert "'class': 'essential'" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "Efficient 5 pushes"
    assert "'class': 'essential'" in lines[1]


def test_traced_functions_stay_module_attributes(monkeypatch):
    """The benchmark's tracer (perfbench/tracing.py) wraps these module
    attributes.  Callers must resolve them at call time: a name bound
    once, at import or in a local alias, would bypass the wrapper and
    silently leave the per-layer metrics blind."""
    from trackform import (curve_ops, formats, homotopy_engine, pipelines,
                           verification)

    assert pipelines.hom is verification.hom is homotopy_engine.hom
    # nothing calls pipelines.measure; the tracer wraps it all the same
    assert pipelines.measure is verification.measure is curve_ops.measure
    calls = {}

    def count(mod, attr):
        real = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            key = f"{mod.__name__}.{attr}"
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, attr, wrapper)

    for mod, attr in ((pipelines, "hom"), (verification, "hom"),
                      (verification, "measure"), (formats, "parse_trace"),
                      (formats, "serialize_trace")):
        count(mod, attr)
    nb = trackform.load_fixture("t11")
    curve = trackform.gen_random_curve(nb, 12, 10)
    res = pipelines.efficient_position(curve, nb)
    head, events = formats.parse_trace(formats.serialize_trace(res.events))
    verification.audit_trace(events, curve, res.curve, nb)
    homs = sum(ev["op"] == "hom" for ev in events)
    assert homs == res.homs > 0
    assert calls == {
        "trackform.pipelines.hom": homs, "trackform.verification.hom": homs,
        "trackform.verification.measure": 1,
        "trackform.formats.parse_trace": 1,
        "trackform.formats.serialize_trace": 1}
    # the curve/1 reader and writer each check the curve once, through
    # curve_ops' attribute
    calls.clear()
    count(curve_ops, "validate_curve")
    formats.parse_curve(formats.serialize_curve(curve, nb), nb)
    assert calls == {"trackform.curve_ops.validate_curve": 2}
