"""Snippet-decomposed arcs and closed curves: reversal, seam gluing, length
measures, and blocker detection.

Consecutive snippets chain across gluings: the end locus of one snippet and
the start locus of the next are partner segments (cyclically for closed
curves).  A `Curve` is immutable, and every operation here returns a new
one.  A `WorkingCurve` is the one mutable form and the replay state of a
run and of an audit: its snippet list, each position's fact record, a
byte per position marking the bad snippets, and the six length counters.
`WorkingCurve.apply` replays one typed trace/1 record on it and is the only
code that changes them: the three lists are rotated and spliced together,
and a `hom` window's counters are updated from the fact records alone, so
a push costs its window and not the curve's length.  Everything here that
reads a curve reads a working curve too.

The length counters are read off each snippet's fact record in the
neighbourhood's fact table (`snippet_core.SnippetFacts`): its counter row
and its blocker roles.  A working curve looks each snippet up once, when it
enters the curve, and carries the record at its position from then on; a
push looks up only its window's snippets.  A snippet not yet in the table
is classified, which files its record.  Validating a curve re-checks only
snippets the table does not hold yet.
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
    """A curve being rewritten in place: its kind, its snippet list, each
    position's fact record (`snippet_core.SnippetFacts`), a byte per
    position that is 1 where the snippet is bad, its counters `c`
    (`LengthReport.counters`), and while it is opened at a seam the winding
    of the duplicated basepoint snippet (else None).  `freeze` gives the
    `Curve` it stands for."""
    __slots__ = ("nb", "kind", "snippets", "facts", "bad", "c", "orig_wind")

    def __init__(self, curve: Curve, nb: TieNeighbourhood) -> None:
        self.nb = nb
        self.kind = curve.kind
        self.snippets = list(curve.snippets)
        self.orig_wind: int | None = None
        self._count()

    def freeze(self) -> Curve:
        return Curve(self.kind, tuple(self.snippets))

    def _count(self) -> None:
        self.facts = _facts_of(self.snippets, self.nb)
        self.c = _counters(self.kind, self.facts)
        self.bad = bytearray([f.row[4] for f in self.facts])

    def apply(self, ev, window=()) -> None:
        """Replay the trace/1 event `ev` (a `hom` with the `window` it
        put in place of three snippets, a `rotate`, `reverse`, `open` or
        `seam`), reading its op and fields as attributes.  The event is
        taken as legal here: `Run` records only legal events, and the
        audit checks each before it replays it."""
        op = ev.op
        snap, facts, bad = self.snippets, self.facts, self.bad
        if op == "hom":
            if ev.rot:
                rotate_in_place(snap, ev.rot)
                rotate_in_place(facts, ev.rot)
                rotate_in_place(bad, ev.rot)
            ws = ev.win[0]
            wf = _facts_of(window, self.nb)
            self.c = update_counters(self.c, self, ws, wf)
            snap[ws:ws + 3] = window
            facts[ws:ws + 3] = wf
            bad[ws:ws + 3] = [f.row[4] for f in wf]
            return
        if op == "rotate":
            rotate_in_place(snap, ev.by)
            rotate_in_place(facts, ev.by)
            rotate_in_place(bad, ev.by)
            return
        if op == "reverse":
            self.snippets = list(reverse(self).snippets)
        elif op == "open":  # duplicate the basepoint snippet at the far end
            self.kind = ARC
            self.orig_wind = snap[0].wind
            snap.append(snap[0])
        else:  # seam
            glued = glue_seam(self.freeze(), self.orig_wind, self.nb)
            self.kind, self.snippets = glued.kind, list(glued.snippets)
            self.orig_wind = None
        self._count()


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


def _facts_of(snippets, nb: TieNeighbourhood) -> list[SnippetFacts]:
    """The snippets' fact records, one table lookup each."""
    get = fact_table(nb).get
    return [get(s) or _classified(s, nb) for s in snippets]


def _blockers_in(facts) -> int:
    """How many windows of three consecutive fact records in the sequence
    (not wrapping) are blockers: vertical duals turning the same way
    around a branch-rectangle tie."""
    total = 0
    for i in range(len(facts) - 2):
        turn = facts[i].outer
        if turn is not None and turn == facts[i + 2].outer:
            total += facts[i + 1].mid
    return total


def is_blocker(curve: Curve, nb: TieNeighbourhood, k: int) -> bool:
    """Is the window [k, k+1, k+2] (modulo the length on closed curves,
    inside the arc on arcs) a blocker?"""
    snap = curve.snippets
    n = len(snap)
    if n < 3:
        return False
    if curve.kind == CLOSED:
        window = [snap[(k + i) % n] for i in range(3)]
    elif 0 <= k <= n - 3:
        window = snap[k:k + 3]
    else:
        return False
    return _blockers_in(_facts_of(window, nb)) > 0


def _tally(c: list[int], facts, sign: int) -> None:
    """Add (sign 1) or take away (sign -1) the contributions of the fact
    records to every counter but len_block."""
    for f in facts:
        corn, carried, dual_r, dual_l, bad = f.row
        c[0] += sign * corn
        c[2] += sign * carried
        c[3] += sign * dual_r
        c[4] += sign * dual_l
        c[5] += sign * bad


def _counters(kind: str, facts: list[SnippetFacts]) -> list[int]:
    """The six counters of a whole curve of this kind, from its positions'
    fact records."""
    c = [0] * 6
    _tally(c, facts, 1)
    if kind == CLOSED and len(facts) >= 3:
        c[1] = _blockers_in(facts + facts[:2])
    else:
        c[1] = _blockers_in(facts)
    return c


def measure(curve: Curve, nb: TieNeighbourhood) -> LengthReport:
    """Count every length counter of the whole curve (or working curve)."""
    facts = _facts_of(curve.snippets, nb)
    return LengthReport(len(facts), *_counters(curve.kind, facts))


def update_counters(c: list[int], before: WorkingCurve, ws: int,
                    wf: list[SnippetFacts]) -> list[int]:
    """The counters after a window whose fact records are `wf` replaces
    the three snippets from `ws` on, from the counters `c` of the working
    curve `before` (already rotated so the three do not wrap).  Only the
    rewritten positions and the blocker windows touching them are
    recounted, within the two positions on either side, from the fact
    records `before` carries; curves of at most four snippets, whose
    windows wrap onto each other, are counted in full."""
    facts = before.facts
    n = len(facts)
    old = facts[ws:ws + 3]
    if n <= 4:
        return _counters(before.kind, [*facts[:ws], *wf, *facts[ws + 3:]])
    if before.kind == CLOSED:
        left = (facts[(ws - 2) % n], facts[(ws - 1) % n])
        right = (facts[(ws + 3) % n], facts[(ws + 4) % n])
    else:
        left, right = facts[max(ws - 2, 0):ws], facts[ws + 3:ws + 5]
    c = list(c)
    c[1] += (_blockers_in((*left, *wf, *right))
             - _blockers_in((*left, *old, *right)))
    _tally(c, old, -1)
    _tally(c, wf, 1)
    return c
