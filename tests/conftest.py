"""Shared pytest plumbing: a repeatable Hypothesis profile, and the
acceptance-criterion result lines, printed after the run outside output
capture."""
from __future__ import annotations

from hypothesis import settings

# Every run draws the same examples, and none are replayed from a saved
# database, so a property test passes or fails the same way each time.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

ACCEPTANCE: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)
