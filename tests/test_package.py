"""The package façade and the library example in README.md."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import trackform

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [n for n in trackform.__all__ if not hasattr(trackform, n)]
    assert not missing
    assert len(set(trackform.__all__)) == len(trackform.__all__)


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
