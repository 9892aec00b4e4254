"""trackform: snippet decompositions of curves on surfaces relative to the
tie neighbourhood of a large train track, and homotopy to efficient position.

The public façade re-exports the objects most workflows need:

- model: :func:`parse_track` / :func:`build_tie_neighbourhood` /
  :class:`TieNeighbourhood`, bundled demo tracks via :func:`load_fixture`
- snippets and curves: :class:`Snippet`, :class:`Curve`, :func:`classify`
  (the one lookup of a snippet's fact record, :class:`SnippetFacts`: its
  class and the lengths it adds), :func:`measure`, :func:`validate_curve`
- rewriting: :func:`hom` (one local push, returning the replacement
  window, its fact records and the push's own trace/1 fields as an
  unstamped `hom` record), :func:`efficient_position` (the full
  driver), :func:`terminal_summary` (trichotomy read-off)
- verification: :func:`check_efficient`, :func:`audit_trace`,
  :func:`exhaustive_oracle`, :func:`oracle_agrees`
- file formats: curve/trace serialization and parsing, SVG rendering
"""
from __future__ import annotations

from .curve_ops import (ARC, CLOSED, Curve, LengthReport, is_blocker, measure,
                        reverse, validate_curve)
from .errors import (AdjacencyError, AuditFailure, BadInput, BudgetExceeded,
                     GenerationFailed, InconsistentSnippet, NotLarge,
                     ParseError, TrackformError)
from .fixtures import load_fixture
from .formats import (format_track, parse_curve, parse_trace, parse_track,
                      serialize_curve, serialize_trace)
from .generate import (boundary_power, doubled_back, gen_random_curve,
                       peripheral_bounce, random_arc, random_closed,
                       trivial_loop)
from .homotopy_engine import EXPECTED_J, hom
from .pipelines import (EFFICIENT, INSIDE_EFFICIENT, SINGLE_SNIPPET, Result,
                        Run, efficient_position, terminal_summary)
from .render import render_svg
from .snippet_core import (TRIGON_GRAPH, Snippet, SnippetFacts, classify,
                           corner_length)
from .track_model import TieNeighbourhood, TrainTrackDesc, \
    build_tie_neighbourhood
from .verification import (AuditReport, EfficiencyReport, OracleVerdict,
                           audit_trace, check_efficient, exhaustive_oracle,
                           oracle_agrees)

__version__ = "1.0.0"

__all__ = [
    "ARC", "CLOSED", "Curve", "LengthReport", "is_blocker", "measure",
    "reverse", "validate_curve",
    "AdjacencyError", "AuditFailure", "BadInput", "BudgetExceeded",
    "GenerationFailed", "InconsistentSnippet", "NotLarge", "ParseError",
    "TrackformError",
    "load_fixture",
    "format_track", "parse_curve", "parse_trace", "parse_track",
    "serialize_curve", "serialize_trace",
    "boundary_power", "doubled_back", "gen_random_curve",
    "peripheral_bounce", "random_arc", "random_closed", "trivial_loop",
    "EXPECTED_J", "hom",
    "EFFICIENT", "INSIDE_EFFICIENT", "SINGLE_SNIPPET", "Result", "Run",
    "efficient_position", "terminal_summary",
    "render_svg",
    "TRIGON_GRAPH", "Snippet", "SnippetFacts", "classify", "corner_length",
    "TieNeighbourhood", "TrainTrackDesc", "build_tie_neighbourhood",
    "AuditReport", "EfficiencyReport", "OracleVerdict", "audit_trace",
    "check_efficient", "exhaustive_oracle", "oracle_agrees",
    "__version__",
]
