"""Snippet-decomposed arcs and closed curves: reversal, seam gluing, length
measures, and blocker detection.

Consecutive snippets chain across gluings: the end locus of one snippet and
the start locus of the next are partner segments (cyclically for closed
curves).  A `Curve` is immutable, and every operation here returns a new
one.  A `WorkingCurve` is the one mutable form: a run or an audit splices
each rewrite window into its snippet list in place, and everything here
that reads a curve reads it too.

The length counters are read off each snippet's fact record in the
neighbourhood's fact table (`snippet_core.SnippetFacts`): its counter row
and its blocker roles, one dictionary lookup per snippet.  A snippet not
yet in the table is classified, which files its record.  Validating a curve
re-checks only snippets the table does not hold yet.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AdjacencyError, BadInput, NotGluable
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


class WorkingCurve:
    """A curve being rewritten in place: its kind and a snippet list that
    each rewrite window is spliced into, so a rewrite costs its window and
    not the curve's length.  `freeze` gives the `Curve` it stands for."""
    __slots__ = ("kind", "snippets")

    def __init__(self, curve: Curve) -> None:
        self.kind = curve.kind
        self.snippets = list(curve.snippets)

    def freeze(self) -> Curve:
        return Curve(self.kind, tuple(self.snippets))

    def rotate(self, r: int) -> None:
        """Make position r the first (closed curves)."""
        rotate_in_place(self.snippets, r)

    def splice(self, ws: int, window) -> None:
        """Put the window in place of the three snippets from ws on."""
        self.snippets[ws:ws + 3] = window


def rotate_in_place(seq, r: int) -> None:
    """Rotate a list or bytearray left by r, moving its shorter end: a
    rotation by one either way moves one item."""
    n = len(seq)
    r %= n
    if 2 * r <= n:
        seq += seq[:r]
        del seq[:r]
    else:
        seq[:0] = seq[r:]
        del seq[n:]


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


def reverse(curve: Curve) -> Curve:
    return Curve(curve.kind, tuple(reverse_snippet(s) for s in reversed(curve.snippets)))


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


def _blockers_in(snippets, nb: TieNeighbourhood) -> int:
    """How many windows of three consecutive snippets in the sequence (not
    wrapping) are blockers: vertical duals turning the same way around a
    branch-rectangle tie."""
    get = fact_table(nb).get
    total = 0
    for i in range(len(snippets) - 2):
        a, mid, b = snippets[i], snippets[i + 1], snippets[i + 2]
        turn = (get(a) or _classified(a, nb)).outer
        if turn is not None and turn == (get(b) or _classified(b, nb)).outer:
            total += (get(mid) or _classified(mid, nb)).mid
    return total


def is_blocker(curve: Curve, nb: TieNeighbourhood, k: int) -> bool:
    """Is the window [k, k+1, k+2] (modulo the length on closed curves,
    inside the arc on arcs) a blocker?"""
    snap = curve.snippets
    n = len(snap)
    if n < 3:
        return False
    if curve.kind == CLOSED:
        return _blockers_in([snap[(k + i) % n] for i in range(3)], nb) > 0
    return 0 <= k <= n - 3 and _blockers_in(snap[k:k + 3], nb) > 0


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
    """Count every length counter of the whole curve (or working curve)."""
    snap = curve.snippets
    c = [0] * 6
    _tally(c, snap, nb, 1)
    if curve.kind == CLOSED and len(snap) >= 3:
        c[1] = _blockers_in(snap + snap[:2], nb)
    else:
        c[1] = _blockers_in(snap, nb)
    return LengthReport(len(snap), *c)


def update_counters(c: list[int], before: Curve, ws: int, window,
                    nb: TieNeighbourhood) -> list[int]:
    """The counters after `window` replaces before.snippets[ws:ws + 3],
    from the counters `c` of `before` (a curve or working curve, already
    rotated so the three do not wrap).  Only the rewritten snippets and the
    blocker windows touching them are recounted, within the two snippets
    on either side; curves of at most four snippets, whose windows wrap
    onto each other, are counted in full."""
    snap = before.snippets
    n = len(snap)
    old = snap[ws:ws + 3]
    if n <= 4:
        out = Curve(before.kind, (*snap[:ws], *window, *snap[ws + 3:]))
        return measure(out, nb).counters
    if before.kind == CLOSED:
        left = (snap[(ws - 2) % n], snap[(ws - 1) % n])
        right = (snap[(ws + 3) % n], snap[(ws + 4) % n])
    else:
        left, right = snap[max(ws - 2, 0):ws], snap[ws + 3:ws + 5]
    c = list(c)
    c[1] += (_blockers_in((*left, *window, *right), nb)
             - _blockers_in((*left, *old, *right), nb))
    _tally(c, old, nb, -1)
    _tally(c, window, nb, 1)
    return c
