"""Error types for track, snippet, curve, rewrite, and pipeline operations."""
from __future__ import annotations


class TrackformError(Exception):
    """Base class for all structured errors raised by this package."""


# --- track / neighbourhood construction -----------------------------------

class InvalidValence(TrackformError):
    """A switch does not have exactly one large end and two small ends."""


class NotLarge(TrackformError):
    """The complement does not assemble into discs and peripheral annuli
    matching the declared surface (Euler characteristic mismatch)."""


class NonNegativeIndexRegion(TrackformError):
    """A complementary region has non-negative index (disc with fewer than
    three cusps, or annulus polygon with no cusp)."""


class LowComplexity(TrackformError):
    """The declared surface has 3g - 3 + b < 1."""


# --- snippets / curves -----------------------------------------------------

class InconsistentSnippet(TrackformError):
    """Snippet data does not describe a realizable homotopy class
    (unknown locus, impossible winding, nonzero wind off an annulus, ...)."""


class NotApplicable(TrackformError):
    """The requested quantity is undefined for this snippet type."""


class NotGluable(TrackformError):
    """Arc ends cannot be closed or seam-glued as requested."""


class ClosedSnippet(TrackformError):
    """Length-one curves are terminal; no rewrite applies."""


class NotBad(TrackformError):
    """Rewrite requested at a position holding an efficient snippet."""


class BadInput(TrackformError):
    """Operation preconditions violated (wrong kind, position, or length)."""


# --- pipelines / verification / io ----------------------------------------

class BudgetExceeded(TrackformError):
    """A rewrite loop exceeded twice its proven step bound."""


class AuditFailure(TrackformError):
    """A recorded trace fails replay or a contract clause.

    Carries the failing event index and clause name when known."""

    def __init__(self, message: str, event_index: int | None = None,
                 clause: str | None = None) -> None:
        super().__init__(message)
        self.event_index = event_index
        self.clause = clause

    @classmethod
    def at(cls, index: int, clause: str, detail: str = "") -> AuditFailure:
        """The failure of event `index` at `clause`, with the message
        `event INDEX: CLAUSE (DETAIL)`."""
        msg = f"event {index}: {clause}"
        if detail:
            msg += f" ({detail})"
        return cls(msg, event_index=index, clause=clause)


class ParseError(TrackformError):
    """Track or curve file syntax error, with 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None) -> None:
        where = ""
        if line is not None and col is not None:
            where = f" (line {line}, col {col})"
        elif line is not None:
            where = f" (line {line})"
        super().__init__(message + where)
        self.line = line
        self.col = col


class AdjacencyError(TrackformError):
    """Curve file names snippets that do not chain along gluings."""


class GenerationFailed(TrackformError):
    """Random generation could not close a cycle within the retry budget."""
