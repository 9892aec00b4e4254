"""List the statements under src/trackform that no tier-1 test executes.

Runs the tier-1 suite (`pytest`, with the repository's own configuration)
in this process under a `sys.settrace` line tracer, then prints each
statement of `src/trackform` with bytecode whose lines never ran, as
`path:line` followed by the statement's first line of source.  Uses the
standard library and pytest only.

    python tools/line_probe.py [PYTEST ARGS...]

Extra arguments go to pytest (for example `-x` or a test path).  The
tracer slows the suite several times over, so this is not part of tier-1.
A statement counts as executed when any of its own lines (those not inside
a nested statement) ran; a statement whose own lines carry no bytecode,
such as a function's docstring, is not listed.  Only this process is
traced: a statement that the tests run only in a subprocess is listed as
not executed.  To cover one, reach it in-process as well, as the
`cli-run-as-a-module` row of `tests/test_errors.py` does with `runpy`.

Exits 0 when pytest passes and every statement ran, and 1 otherwise, so
it can gate a change.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trackform"


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in a code object and those nested in
    it."""
    lines = {ln for _, _, ln in code.co_lines() if ln is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """Each statement of the file with its own lines that carry bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    has_code = _code_lines(compile(source, str(path), "exec"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            for sub in ast.walk(child):
                if isinstance(sub, ast.stmt):
                    own -= set(range(sub.lineno, sub.end_lineno + 1))
        own &= has_code
        if own:
            yield node.lineno, own


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), "-c",
                              str(ROOT / "pyproject.toml"), *argv])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        hit = ran.get(str(path), set())
        for lineno, own in sorted(_statements(path)):
            if not own & hit:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: "
                      f"{lines[lineno - 1].strip()}")
    print(f"{missed} statements not executed (pytest exit {int(status)})")
    return int(bool(missed or status))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
