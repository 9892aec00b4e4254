"""Snippet-decomposed arcs and closed curves: reversal, seam gluing, length
measures, and blocker detection.

Consecutive snippets chain across gluings: the end locus of one snippet and
the start locus of the next are partner segments (cyclically for closed
curves).  A `Curve` is immutable, and every operation here returns a new
one.  A `WorkingCurve` is the one mutable form, and a run (`pipelines.Run`)
and an audit are each one: its snippet list, each position's fact record, a
byte per position marking the bad snippets, and the six length counters.
`WorkingCurve.apply` replays one typed trace/1 record on it and is the only
code that changes them: the three lists are rotated and spliced together,
and a `hom` window's counters are updated from the fact records alone, so
a push costs its window and not the curve's length.  The counter list is
replaced on every change, never mutated, so a trace record may keep it.
Everything here that reads a curve reads a working curve too.

The length counters are read off each snippet's fact record in the
neighbourhood's fact table (`snippet_core.SnippetFacts`): its counter row
and its blocker roles.  `validate_curve`, the one whole-curve check,
returns the positions' records: a snippet not yet in the table is
classified, which checks it and files its record.  A working curve is built
from those records, so it is a checked curve by construction, and carries
the record at each position from then on; a push hands over its window's
records with the window (`homotopy_engine.hom` looks them up).
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import AdjacencyError, BadInput, NotGluable
from .snippet_core import (
    Snippet,
    SnippetFacts,
    composed,
    fact_table,
    file_facts,
    reverse_snippet,
)
# Nothing here calls `classify` any more, but perfbench's tracer wraps this
# module attribute, so it stays.
from .snippet_core import classify  # noqa: F401
from .track_model import TieNeighbourhood

ARC = "arc"
CLOSED = "closed"


class Curve(NamedTuple):
    kind: str  # ARC | CLOSED, the curve/1 words
    snippets: tuple[Snippet, ...]


class WorkingCurve:
    """A curve being rewritten in place: its kind, its snippet list, each
    position's fact record (`snippet_core.SnippetFacts`), a byte per
    position that is 1 where the snippet is bad, its counters `c`
    (`LengthReport.counters`), and while it is opened at a seam the winding
    of the duplicated basepoint snippet (else None).  `c` is replaced by a
    new list whenever the counters change and is never mutated, so a
    caller may keep it.  Building one checks the curve (`validate_curve`,
    whose errors it raises).  `freeze` gives the `Curve` it stands for.
    A run and an audit are subclasses that replay events on themselves."""
    __slots__ = ("nb", "kind", "snippets", "facts", "bad", "c", "orig_wind")

    def __init__(self, curve: Curve, nb: TieNeighbourhood) -> None:
        self.nb = nb
        self.kind = curve.kind
        self.snippets = list(curve.snippets)
        self.orig_wind: int | None = None
        self._count(validate_curve(curve, nb))

    def freeze(self) -> Curve:
        return Curve(self.kind, tuple(self.snippets))

    def _count(self, facts: list[SnippetFacts]) -> None:
        self.facts = facts
        self.c = _counters(self.kind, facts)
        self.bad = bytearray([f.row[4] for f in facts])

    def apply(self, ev, window=(), wf=()) -> None:
        """Replay the trace/1 event `ev` (a `hom` with the `window` it
        put in place of three snippets and the window's fact records `wf`,
        as `homotopy_engine.hom` returns them; a `rotate`, `reverse`,
        `open` or `seam`), reading its op and fields as attributes.  The
        event is taken as legal here: a `Run` records only legal events,
        and the audit checks each before it replays it."""
        op = ev.op
        snap, facts, bad = self.snippets, self.facts, self.bad
        if op == "hom":
            if ev.rot:
                rotate_in_place(snap, ev.rot)
                rotate_in_place(facts, ev.rot)
                rotate_in_place(bad, ev.rot)
            ws = ev.win[0]
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
        else:  # seam: the two copies of the basepoint snippet become one
            glued, _ = seam(snap, self.orig_wind, self.nb)
            self.kind, self.snippets = CLOSED, [glued, *snap[1:-1]]
            self.orig_wind = None
        self._count(_facts_of(self.snippets, self.nb))


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


class LengthReport(NamedTuple):
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


def validate_curve(curve: Curve, nb: TieNeighbourhood) -> list[SnippetFacts]:
    """Check the curve (or working curve), raising `BadInput`,
    `InconsistentSnippet` or `AdjacencyError`; return its fact records."""
    if curve.kind not in (ARC, CLOSED):
        raise BadInput(f"unknown curve kind {curve.kind!r}")
    n = len(curve.snippets)
    if n == 0:
        raise BadInput("a curve needs at least one snippet")
    facts = _facts_of(curve.snippets, nb)
    if any(s.closed for s in curve.snippets):
        if n > 1:
            raise BadInput("closed-type snippet inside a longer curve")
        if curve.kind != CLOSED:
            raise BadInput("a closed snippet forms a closed curve, not an arc")
        return facts
    pairs = range(n) if curve.kind == CLOSED else range(n - 1)
    for i in pairs:
        a, b = curve.snippets[i], curve.snippets[(i + 1) % n]
        if nb.partner(a.region, a.end) != (b.region, b.start):
            raise AdjacencyError(
                f"snippets {i} and {(i + 1) % n} do not chain: end {a.end} of"
                f" {nb.regions[a.region].name} is not glued to start {b.start}"
                f" of {nb.regions[b.region].name}")
    return facts


def reverse(curve: Curve) -> Curve:
    return Curve(curve.kind, tuple(reverse_snippet(s) for s in reversed(curve.snippets)))


def seam(snippets, original_wind: int, nb: TieNeighbourhood
         ) -> tuple[Snippet, SnippetFacts]:
    """The snippet that closes a curve opened inside one snippet of winding
    `original_wind`, with its fact record: the first and last snippets, the
    two halves, merge into their common region, keeping the slid endpoints
    of both, with the halves' windings less the duplicated original
    (`snippet_core.composed`).  A lone snippet means everything between the
    halves collapsed, and it closes up into a closed snippet."""
    first, last = snippets[0], snippets[-1]
    if len(snippets) == 1:
        return composed(first.region, None, None,
                        first.wind - original_wind, nb)
    if first.region != last.region:
        raise NotGluable("seam halves lie in different regions")
    return composed(first.region, last.start, first.end,
                    last.wind + first.wind - original_wind, nb)


def _facts_of(snippets, nb: TieNeighbourhood) -> list[SnippetFacts]:
    """The snippets' fact records, one table lookup each; a snippet missing
    from the table is checked and filed with one insert."""
    get = fact_table(nb).get
    return [get(s) or file_facts(s, nb) for s in snippets]


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


def _counters(kind: str, facts: list[SnippetFacts]) -> list[int]:
    """The six counters of a whole curve of this kind, from its positions'
    fact records."""
    c = [0] * 6
    for f in facts:
        corn, carried, dual_r, dual_l, bad = f.row
        c[0] += corn
        c[2] += carried
        c[3] += dual_r
        c[4] += dual_l
        c[5] += bad
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
                    wf: tuple[SnippetFacts, ...]) -> list[int]:
    """The counters, as a new list, after a window whose fact records are
    `wf` replaces the three snippets from `ws` on, from the counters `c`
    of the working curve `before` (already rotated so the three do not
    wrap).  Only the rewritten positions and the blocker windows touching
    them are recounted, within the two positions on either side, from the
    fact records `before` carries; curves of at most four snippets, whose
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
    corn, block, carried, dual_r, dual_l, bad = c
    block += (_blockers_in((*left, *wf, *right))
              - _blockers_in((*left, *old, *right)))
    for f in old:
        f_corn, f_carried, f_dual_r, f_dual_l, f_bad = f.row
        corn -= f_corn
        carried -= f_carried
        dual_r -= f_dual_r
        dual_l -= f_dual_l
        bad -= f_bad
    for f in wf:
        f_corn, f_carried, f_dual_r, f_dual_l, f_bad = f.row
        corn += f_corn
        carried += f_carried
        dual_r += f_dual_r
        dual_l += f_dual_l
        bad += f_bad
    return [corn, block, carried, dual_r, dual_l, bad]
