"""Snippet-decomposed arcs and closed curves: slicing algebra, length
measures, and blocker detection.

Consecutive snippets chain across gluings: the end locus of one snippet and
the start locus of the next are partner segments (cyclically for closed
curves).  Slicing uses circular indices on closed curves; all operations
return new immutable curves.

The length counters are read off each snippet's fact record in the
neighbourhood's fact table (`snippet_core.SnippetFacts`): its counter row
and its blocker roles, one dictionary lookup per snippet.  A snippet not
yet in the table is classified, which files its record.  Validating a curve
re-checks only snippets the table does not hold yet.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AdjacencyError,
    BadInput,
    NotAdjacent,
    NotGluable,
    OutOfRange,
)
from .snippet_core import (
    Snippet,
    SnippetFacts,
    classify,
    fact_table,
    reverse_snippet,
    validate_snippet,
)
from .track_model import TieNeighbourhood

ARC = "Arc"
CLOSED = "Closed"


@dataclass(frozen=True)
class Curve:
    kind: str  # Arc | Closed
    snippets: tuple[Snippet, ...]

    def __len__(self) -> int:
        return len(self.snippets)

    def at(self, i: int) -> Snippet:
        if self.kind == CLOSED:
            return self.snippets[i % len(self.snippets)]
        return self.snippets[i]


@dataclass(frozen=True)
class LengthReport:
    len: int
    len_corn: int
    len_block: int
    carr: int
    dual_R: int
    dual_L: int
    bad_count: int

    @property
    def len_red(self) -> int:
        return self.len_corn - 2 * self.len_block

    @property
    def counters(self) -> list[int]:
        """The six counters in the order trace events record them."""
        return [self.len_corn, self.len_block, self.carr, self.dual_R,
                self.dual_L, self.bad_count]


def validate_curve(curve: Curve, nb: TieNeighbourhood) -> None:
    if curve.kind not in (ARC, CLOSED):
        raise BadInput(f"unknown curve kind {curve.kind!r}")
    n = len(curve.snippets)
    if n == 0:
        return
    for s in curve.snippets:
        validate_snippet(s, nb)
    closed_snippets = [s for s in curve.snippets if s.closed]
    if closed_snippets:
        if n > 1:
            raise BadInput("closed-type snippet inside a longer curve")
        if curve.kind != CLOSED:
            raise BadInput("a closed snippet forms a closed curve, not an arc")
        return
    pairs = range(n) if curve.kind == CLOSED else range(n - 1)
    for i in pairs:
        a, b = curve.snippets[i], curve.snippets[(i + 1) % n]
        if nb.partner(a.region, a.end) != (b.region, b.start):
            raise AdjacencyError(
                f"snippets {i} and {(i + 1) % n} do not chain: end {a.end} of"
                f" {nb.regions[a.region].name} is not glued to start {b.start}"
                f" of {nb.regions[b.region].name}")


def slice(curve: Curve, i: int, j: int) -> Curve:
    """Subarc [i:j); circular on closed curves (j may wrap past the end, up
    to one full turn), Python-style negative indices on arcs."""
    n = len(curve.snippets)
    if curve.kind == CLOSED:
        if n == 0:
            raise OutOfRange("cannot slice an empty curve")
        if j - i > n or j < i:
            raise OutOfRange(f"slice [{i}:{j}] exceeds one full turn of length {n}")
        return Curve(ARC, tuple(curve.snippets[k % n] for k in range(i, j)))
    if i < 0:
        i += n
    if j < 0:
        j += n
    if not (0 <= i <= j <= n):
        raise OutOfRange(f"slice [{i}:{j}] out of range for arc of length {n}")
    return Curve(ARC, curve.snippets[i:j])


def concat(a: Curve, b: Curve, nb: TieNeighbourhood) -> Curve:
    if a.kind != ARC or b.kind != ARC:
        raise BadInput("concat needs two arcs")
    if not a.snippets:
        return b
    if not b.snippets:
        return a
    tail, head = a.snippets[-1], b.snippets[0]
    if nb.partner(tail.region, tail.end) != (head.region, head.start):
        raise NotAdjacent(
            f"end {tail.end} of {nb.regions[tail.region].name} is not glued to"
            f" start {head.start} of {nb.regions[head.region].name}")
    return Curve(ARC, a.snippets + b.snippets)


def reverse(curve: Curve) -> Curve:
    return Curve(curve.kind, tuple(reverse_snippet(s) for s in reversed(curve.snippets)))


def glue(arc: Curve, nb: TieNeighbourhood) -> Curve:
    """Close an arc whose first and last snippets are the same strong class
    by dropping the duplicate."""
    if arc.kind != ARC or len(arc.snippets) < 2:
        raise NotGluable("glue needs an arc with a duplicated end snippet")
    if arc.snippets[0] != arc.snippets[-1]:
        raise NotGluable(
            f"first and last snippets differ: {arc.snippets[0]} vs {arc.snippets[-1]}")
    out = Curve(CLOSED, arc.snippets[:-1])
    validate_curve(out, nb)
    return out


def glue_seam(arc: Curve, original_wind: int, nb: TieNeighbourhood) -> Curve:
    """Close an arc that starts and ends inside two halves of one original
    snippet: the first and last snippets merge into their common region,
    keeping the slid endpoints of both and composing the windings.

    original_wind is the winding the snippet had before its two copies'
    endpoints were slid independently.

    A length-1 arc means everything between the two halves collapsed; the
    halves then close up into a single closed snippet whose winding is the
    merged winding minus the duplicated original."""
    if arc.kind != ARC or len(arc.snippets) < 1:
        raise NotGluable("seam glue needs an arc of length >= 1")
    if len(arc.snippets) == 1:
        s = arc.snippets[0]
        closed = Snippet(s.region, None, None, s.wind - original_wind)
        validate_snippet(closed, nb)
        out = Curve(CLOSED, (closed,))
        validate_curve(out, nb)
        return out
    first, last = arc.snippets[0], arc.snippets[-1]
    if first.region != last.region:
        raise NotGluable("seam halves lie in different regions")
    seam = Snippet(first.region, last.start, first.end,
                   last.wind + first.wind - original_wind)
    validate_snippet(seam, nb)
    out = Curve(CLOSED, (seam,) + arc.snippets[1:-1])
    validate_curve(out, nb)
    return out


def _classified(s: Snippet, nb: TieNeighbourhood) -> SnippetFacts:
    """Classify a snippet missing from the fact table, which files its
    record, and return the record."""
    classify(s, nb)
    return fact_table(nb)[s]


def _blockers_near(curve: Curve, nb: TieNeighbourhood, starts) -> int:
    """How many distinct windows [k, k+1, k+2], k in `starts` (modulo the
    length on closed curves, inside the arc on arcs), are blockers: vertical
    duals turning the same way around a branch-rectangle tie."""
    snap = curve.snippets
    n = len(snap)
    if n < 3:
        return 0
    if curve.kind == CLOSED:
        ks = {k % n for k in starts}
    else:
        ks = {k for k in starts if 0 <= k <= n - 3}
    get = fact_table(nb).get
    total = 0
    for k in ks:
        a, mid, b = snap[k], snap[(k + 1) % n], snap[(k + 2) % n]
        turn = (get(a) or _classified(a, nb)).outer
        if turn is not None and turn == (get(b) or _classified(b, nb)).outer:
            total += (get(mid) or _classified(mid, nb)).mid
    return total


def is_blocker(curve: Curve, nb: TieNeighbourhood, k: int) -> bool:
    """Is the window [k, k+1, k+2] a blocker?"""
    return _blockers_near(curve, nb, (k,)) > 0


def _tally(c: list[int], snippets, nb: TieNeighbourhood, sign: int) -> None:
    """Add (sign 1) or take away (sign -1) the snippets' contributions to
    every counter but len_block."""
    get = fact_table(nb).get
    for s in snippets:
        corn, carried, dual_r, dual_l, bad = (get(s) or _classified(s, nb)).row
        c[0] += sign * corn
        c[2] += sign * carried
        c[3] += sign * dual_r
        c[4] += sign * dual_l
        c[5] += sign * bad


def measure(curve: Curve, nb: TieNeighbourhood) -> LengthReport:
    """Count every length counter of the whole curve."""
    c = [0] * 6
    _tally(c, curve.snippets, nb, 1)
    c[1] = _blockers_near(curve, nb, range(len(curve.snippets)))
    return LengthReport(len(curve.snippets), *c)


def update_counters(c: list[int], before: Curve, out: Curve, ws: int,
                    wl: int, nb: TieNeighbourhood) -> list[int]:
    """The counters of `out` from the counters `c` of `before`, where
    out.snippets[ws:ws + wl] replaced before.snippets[ws:ws + 3]: only the
    rewritten snippets and the blocker windows touching them are recounted,
    except on whole-curve rewrites and curves of at most four snippets,
    whose windows wrap onto each other."""
    if wl == len(out.snippets) or len(before.snippets) <= 4:
        return measure(out, nb).counters
    c = list(c)
    c[1] -= _blockers_near(before, nb, range(ws - 2, ws + 3))
    _tally(c, before.snippets[ws:ws + 3], nb, -1)
    _tally(c, out.snippets[ws:ws + wl], nb, 1)
    c[1] += _blockers_near(out, nb, range(ws - 2, ws + wl))
    return c
