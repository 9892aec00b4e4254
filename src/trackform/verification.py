"""Independent checkers for efficiency, trace soundness, and reachability.

Three layers of defence against a wrong pipeline:

* `check_efficient` re-decides per-snippet efficiency from the region
  incidence data alone — stepping locus by locus around the region's
  polygon and counting corner gaps — without calling the classifier's walk
  machinery, so a bug there cannot hide.

* `audit_trace` replays a recorded run event by event on the audit, a
  working curve as a `Run` is, with `WorkingCurve.apply`, the step a run
  records each event with, so an event costs its window and not the
  curve's length.  It reads the events from any iterable, counting them
  as it goes.  It takes the typed trace/1 records a run makes as they
  are, and reads a decoded JSON object (a parsed trace file) into its
  record type at its own event index, which checks its fields and their
  JSON types once (`formats.trace_record`).  A rotation must lie strictly
  between 0 and the curve's length.  A trace must end as it began, as
  every run does: each `open` sealed by a `seam`, and `reverse`s in
  pairs, none while opened.  Each rewrite is re-executed, and the replayed
  push must equal the recorded one on its seven own fields, in one
  comparison that is walked field by field only to name the first that
  differs, before the event is replayed with the window and fact records
  the replayed push gave.  The replayed counters must equal each event's
  record and, at the end, a full count of the terminal curve, which must
  also equal the recorded output snippet for snippet.  The
  audit also asserts the per-rule contracts: length deltas, window
  locality, inner efficiency, slide winding deltas, and — on chase steps
  whose neighbours are efficient — membership in the trigon hand-off graph
  with its exact carried/dual deltas and turn preservation.  Locality is
  two O(1) seam checks: the window spliced at the recorded place must be
  glued, across the partner tables, to the audit's own untouched snippets
  just before and just after it.  Malformed records, forged rules, shifted
  windows, doctored counters, or a tampered final curve all raise
  `AuditFailure` naming the event and clause.

* `exhaustive_oracle` closes a small curve under *all* legal pushes
  (breadth-first, deduplicating closed curves up to rotation) and reports
  whether a fully efficient state or a one-snippet state is reachable,
  cross-validating the pipeline's terminal status on desk-scale instances.
  It searches over tuples of snippet ids interned in a table of its own,
  which ends with the search, and memoises each push on its (previous,
  bad, next) ids, so a push it has seen is one lookup.  A new triple is
  pushed by `homotopy_engine.push_window`, the step `hom` takes its window
  from, on the three snippets alone; each snippet is interned with the bad
  flag of the fact record that comes with it, so the search classifies
  nothing itself.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import NamedTuple

from .curve_ops import (CLOSED, Curve, WorkingCurve, measure,
                        validate_curve)
from .errors import AuditFailure, BadInput, TrackformError
from .formats import _OWN, Hom, trace_record
from .homotopy_engine import EXPECTED_J, hom, push_two, push_window
from .pipelines import EFFICIENT, SINGLE_SNIPPET
from .snippet_core import TRIGON_GRAPH, TRIGON_TYPES, Snippet, SnippetFacts
# Nothing here calls `classify` any more, but perfbench's tracer wraps this
# module attribute, so it stays.
from .snippet_core import classify  # noqa: F401
from .track_model import ANNULUS, BOUNDARY, TieNeighbourhood


# -- independent efficiency checker -----------------------------------------


class EfficiencyReport(NamedTuple):
    ok: bool
    verdicts: tuple[bool, ...]  # True = the snippet is in efficient position
    first_failure: int | None


def _stepped_corners(nb: TieNeighbourhood, region: int, a, b) -> int:
    """Corners passed stepping counter-clockwise round the region's polygon
    from locus a to locus b."""
    pa = nb.locus_position(region, a)
    pb = nb.locus_position(region, b)
    n = len(nb.polygon_loci(region))
    c = 0
    for i in range((pb - pa) % n):
        if nb.gap_is_corner(region, (pa + i) % n):
            c += 1
    return c


def _snippet_efficient(s: Snippet, nb: TieNeighbourhood) -> bool:
    """Decide efficiency from first principles.

    A snippet is bad exactly when it cuts off a piece of its region whose
    boundary, besides the snippet itself, passes at most one corner: such a
    piece has positive index.  A two-corner piece is an index-zero dual
    strip and anything longer is negative."""
    r = nb.regions[s.region]
    if s.closed:
        # bounds a disc (positive index) or runs parallel to the surface
        # boundary (index zero): never efficient
        return False
    if r.kind == ANNULUS:
        on_boundary = [nb.side_label(s.region, l) == BOUNDARY
                       for l in (s.start, s.end)]
        if all(on_boundary):
            return False  # cuts a strip against the surface boundary
        if any(on_boundary):
            return True  # runs from the track across to the surface boundary
        # the hugged piece of a wound snippet passes |wind| corners
        return abs(s.wind) >= 2
    c_r = _stepped_corners(nb, s.region, s.start, s.end)
    c_l = _stepped_corners(nb, s.region, s.end, s.start)
    return min(c_r, c_l) >= 2


def check_efficient(curve: Curve, nb: TieNeighbourhood) -> EfficiencyReport:
    verdicts = tuple(_snippet_efficient(s, nb) for s in curve.snippets)
    first = None
    for i, v in enumerate(verdicts):
        if not v:
            first = i
            break
    return EfficiencyReport(ok=first is None, verdicts=verdicts,
                            first_failure=first)


# -- trace audit ------------------------------------------------------------


class AuditReport(NamedTuple):
    ok: bool
    events: int
    checks: int


# The fields of a replayed push, each compared with the recorded one under
# its clause, in this order, when the two differ.
_HOM_CLAUSES = (("rot", "rot"), ("k", "k"), ("rule", "rule"),
                ("turn", "turn"), ("j", "j"), ("n", "length"),
                ("win", "window"))
# A record's own fields (all but `phase` and `c`) are sliced by tuple's own
# __getitem__ rather than the record's slower Python one.
_tuple_item = tuple.__getitem__


def _glued(work: WorkingCurve, i: int) -> bool:
    """Does the snippet at i end where the one at i + 1 starts (cyclically
    on closed curves; vacuously true past either end of an arc)?"""
    snap = work.snippets
    n = len(snap)
    if work.kind == CLOSED:
        a, b = snap[i % n], snap[(i + 1) % n]
    elif 0 <= i < n - 1:
        a, b = snap[i], snap[i + 1]
    else:
        return True
    return work.nb.partner(a.region, a.end) == (b.region, b.start)


class _Audit(WorkingCurve):
    """A recorded run's replay: a working curve built from the run's input,
    with its output, the checks made and the index of the event read."""
    __slots__ = ("after", "checks", "index")

    def __init__(self, before: Curve, after: Curve,
                 nb: TieNeighbourhood) -> None:
        super().__init__(before, nb)
        self.after = after
        self.checks = 0
        self.index = -1

    def fail(self, clause: str, detail: str = "") -> None:
        raise AuditFailure.at(self.index, clause, detail)

    def check(self, cond: bool, clause: str, detail: str = "",
              *args) -> None:
        """Count one check, and fail it unless `cond`.  The detail is
        formatted with `args` only on a failure, so a passing check costs
        no string."""
        self.checks += 1
        if not cond:
            self.fail(clause, detail.format(*args) if args else detail)

    def run(self, trace) -> AuditReport:
        """Replay the events of `trace`, any iterable, as they are read."""
        flipped = False
        for self.index, ev in enumerate(trace):
            ev = trace_record(ev, self.index)
            op = ev.op
            snap = self.snippets
            if op == "rotate":
                self.check(self.kind == CLOSED, "op", "rotate on an arc")
                if not 0 < ev.by < len(snap):
                    self.fail("by", f"rotation by {ev.by} of a curve of"
                              f" {len(snap)} snippets")
            elif op == "open":
                self.check(self.kind == CLOSED and not snap[0].closed,
                           "op", "open needs a closed curve of open snippets")
                self.check(ev.orig_wind == snap[0].wind,
                           "open-wind", "recorded seam winding is not the "
                           "basepoint snippet's")
            elif op == "seam":
                self.check(self.orig_wind is not None, "op",
                           "seam without open")
                self.check(ev.orig_wind == self.orig_wind, "seam-wind",
                           "seam winding differs from the opening event")
            elif op == "reverse":
                if self.orig_wind is not None:
                    self.fail("op", "reverse while opened at a seam")
                flipped = not flipped
            if op == "hom":
                self._replay_hom(ev)
            else:
                self.apply(ev)
            self._check_counters(ev)
        self.index += 1  # the number of events read
        if self.orig_wind is not None:
            self.fail("final", "an open that no seam closed")
        if flipped:
            self.fail("final", "an odd number of reverses")
        if self.kind != self.after.kind or \
                self.snippets != list(self.after.snippets):
            self.fail("final", "replayed terminal curve differs")
        full = measure(self, self.nb).counters
        self.check(full == self.c, "final",
                   "running counters {} != recomputed {}", self.c, full)
        return AuditReport(ok=True, events=self.index, checks=self.checks)

    def _check_counters(self, ev) -> None:
        self.checks += 1
        if ev.c != self.c:
            self.fail("counters", f"recorded {ev.c} != recomputed {self.c}")

    def _replay_hom(self, ev: Hom) -> None:
        snap, bad = self.snippets, self.bad
        n = len(snap)
        k_orig = (ev.k + ev.rot) % n
        try:
            window, wf, push = hom(self, k_orig, self.nb)
        except TrackformError as exc:
            self.fail("not-bad", f"recorded push is illegal here: {exc}")
        # one comparison of the push's own fields with the record's; only a
        # mismatch is walked clause by clause, to name the first
        if _tuple_item(push, _OWN) == _tuple_item(ev, _OWN):
            self.checks += len(_HOM_CLAUSES)
        else:
            for key, clause in _HOM_CLAUSES:
                mine = getattr(push, key)
                self.check(mine == getattr(ev, key), clause,
                           "replayed {} {}", key, mine)
        # the snippets either side of the pushed one, and their bad flags,
        # before the push rewrites them
        p, q = (k_orig - 1) % n, (k_orig + 1) % n
        pre = (snap[p], snap[q])
        pre_bad = bad[p] or bad[q]
        c0 = self.c
        self.apply(push, window, wf)
        self._check_contracts(pre, pre_bad, window, push, c0)

    def _check_contracts(self, pre, pre_bad, post, push: Hom, c0) -> None:
        """Check a replayed push's contracts, in order, failing at the
        first that does not hold, and count the checks made."""
        nb, fail = self.nb, self.fail
        n0, n1 = push.n
        ws, wl = push.win
        j, rule, turn = push.j, push.rule, push.turn

        # length delta is determined by the tiling points on the cut piece
        two_closed = n0 == 2 and self.kind == CLOSED
        if two_closed:
            if n1 - n0 != (j - 2 if j >= 1 else -1):
                fail("length", "two-snippet closed rewrite length delta")
        elif n1 - n0 != j - 2:
            fail("length", f"delta {n1 - n0} with j={j}")

        # j is pinned per rule; the comp-region bigon/trigon walks are
        # bounded by the tiling size
        if rule in EXPECTED_J:
            if j not in EXPECTED_J[rule]:
                fail("j", f"rule {rule} cannot have j={j}")
        elif rule == "R(h,v)":
            if not 0 <= j <= nb.s_N:
                fail("j", f"R(h,v) walk of {j} points")
        elif not 0 <= j <= 2 * nb.s_N:
            fail("j", f"{rule} walk of {j} points")

        if two_closed:  # the window is the whole rewritten curve
            self.checks += 2
            return

        # locality: the window was spliced at the recorded place, in place
        # of three snippets, and is glued to the untouched snippets on both
        # sides of it
        if not (len(self.snippets) == n1 and _glued(self, ws - 1)):
            fail("locality", "window not glued to the snippet before it")
        if not _glued(self, ws + wl - 1):
            fail("locality", "window not glued to the snippet after it")

        if j >= 1:
            # slid neighbours keep their far endpoint and region; their
            # winding moves by at most one corner crossing
            if not (post[0].region == pre[0].region
                    and post[0].start == pre[0].start
                    and abs(post[0].wind - pre[0].wind) <= 1):
                fail("slide", "previous snippet slid illegally")
            if not (post[-1].region == pre[1].region
                    and post[-1].end == pre[1].end
                    and abs(post[-1].wind - pre[1].wind) <= 1):
                fail("slide", "next snippet slid illegally")
            inner = self.bad[ws + 1:ws + wl - 1]
            if any(inner):
                fail("inner-bad", "replacement interior snippet is bad")
            checks = 6 + len(inner)
        else:
            if post[0].region != pre[0].region:
                fail("slide", "merge left its region")
            checks = 5

        # chase step: a lone bad trigon between efficient neighbours obeys
        # the hand-off graph with exact carried/dual deltas
        if rule in TRIGON_TYPES and not pre_bad:
            bad_out = [f for f in self.facts[ws:ws + wl] if f.row[4]]
            if len(bad_out) > 1:
                fail("chase-multiplicity",
                     f"{len(bad_out)} bad snippets out of one trigon")
            c1 = self.c
            dc, dr, dl = c1[2] - c0[2], c1[3] - c0[3], c1[4] - c0[4]
            dt, do = (dr, dl) if turn == "Right" else (dl, dr)
            if bad_out:
                t2 = bad_out[0].type
                hand_offs = TRIGON_GRAPH[rule]
                if t2 not in hand_offs:
                    fail("graph-edge", f"{rule} -> {t2} is not a hand-off")
                if bad_out[0].turn != turn:
                    fail("turn", "hand-off flipped the turn")
                delta = hand_offs[t2]
                if delta is None:  # R(h,v)
                    if (dc, dt, do) != (j - 1, 0, 0):
                        fail("chase-delta",
                             f"R(h,v) step changed ({dc},{dt},{do})")
                elif (dc, dt, do) != delta:
                    fail("chase-delta",
                         f"{rule} -> {t2} changed ({dc},{dt},{do})")
                checks += 4
            else:
                if not (dc == (j - 1 if rule == "R(h,v)" else 0)
                        and abs(dt) <= 1 and abs(do) <= 1):
                    fail("chase-delta",
                         f"terminal step changed ({dc},{dt},{do})")
                checks += 2
        self.checks += checks


def audit_trace(trace, before: Curve, after: Curve,
                nb: TieNeighbourhood) -> AuditReport:
    """Replay a recorded run, any iterable of its events, and verify every
    event against its contracts.

    Raises what `validate_curve` raises on an invalid `before`, first, and
    AuditFailure naming the first failing event and clause."""
    return _Audit(before, after, nb).run(trace)


# -- exhaustive search oracle -----------------------------------------------


class OracleVerdict(NamedTuple):
    conclusive: bool
    efficient_reachable: bool
    single_reachable: bool
    states: int
    reason: str | None = None


class _IdTable:
    """The table of one oracle search, filled as it meets new snippets:
    snippet -> dense int id, id -> snippet, each id's bad flag, and the
    push memo (prev, bad, next) ids -> window ids.  A snippet is interned
    with the bad flag of the fact record its caller holds, so the table
    classifies nothing itself."""
    __slots__ = ("nb", "ids", "snippets", "bad", "pushes")

    def __init__(self, nb: TieNeighbourhood) -> None:
        self.nb = nb
        self.ids: dict[Snippet, int] = {}
        self.snippets: list[Snippet] = []
        self.bad = bytearray()
        self.pushes: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def intern(self, snippets: Sequence[Snippet],
               records: Sequence[SnippetFacts]) -> tuple[int, ...]:
        """The snippets' ids; a new id files the bad flag (`row[4]`) of
        the snippet's fact record."""
        ids, snap, bad = self.ids, self.snippets, self.bad
        out = []
        for s, f in zip(snippets, records):
            i = ids.get(s)
            if i is None:
                i = ids[s] = len(snap)
                snap.append(s)
                bad.append(f.row[4])
            out.append(i)
        return tuple(out)

    def push(self, arc: tuple[int, int, int]) -> tuple[int, ...]:
        """Push the middle snippet of the triple `arc` with `push_window`
        and memoise its window: the step reads only the bad snippet and
        its two neighbours, so the window is the same wherever the three
        stand in a curve."""
        snap = self.snippets
        p, b, q = arc
        window, wf, _ = push_window(snap[p], snap[b], snap[q], self.nb)
        hit = self.pushes[arc] = self.intern(window, wf)
        return hit

    def push_two(self, cur: tuple[int, ...], k: int) -> tuple[int, ...]:
        """A push on a two-snippet closed curve: `push_two`'s window."""
        snap = self.snippets
        window, wf, _ = push_two(snap[cur[k - 1]], snap[cur[k]], self.nb, k)
        return self.intern(window, wf)


def _least_rotation(ids: tuple[int, ...]) -> tuple[int, ...]:
    """A closed curve's state key: its least rotation, which starts at a
    position holding its least id."""
    m = min(ids)
    if ids.count(m) == 1:
        i = ids.index(m)
        return ids[i:] + ids[:i]
    return min(ids[i:] + ids[:i] for i, x in enumerate(ids) if x == m)


def exhaustive_oracle(curve: Curve, nb: TieNeighbourhood,
                      cap_states: int = 50_000) -> OracleVerdict:
    """Check the curve (`validate_curve`), close it under all legal pushes
    and report what is reachable.

    Visits every curve obtainable by pushing bad snippets (interior ones for
    arcs), up to len(curve) + 3 s_N snippets and `cap_states` distinct
    states.  A search cut short is reported inconclusive rather than
    guessed — except that a reached one-snippet state is already a positive
    witness.

    The search runs over tuples of dense int snippet ids, interned in a
    table of its own with each id's bad flag; the table ends with the
    search.  The input's bad flags come from the fact records
    `validate_curve` returns, and a window's from the records its push
    returns.  A push is memoised on its (prev, bad, next) ids, since its
    window depends on those three snippets alone: each distinct triple is
    pushed once by `push_window`, the step `hom` uses, and every later
    push of it is one lookup.  A child is laid out as `WorkingCurve.apply`
    lays out a push, so the breadth-first order, and with it `states` under
    a state cap, is that of a search over whole curves.  A closed curve is
    keyed by its least rotation.  A two-snippet closed curve, whose push
    rewrites all of it, is pushed by `push_two`, as `hom` pushes it; the
    window is the child.
    Curves of up to 12 snippets take 0.1 ms to under 0.2 s; an 18-snippet
    curve of tens of thousands of states takes 0.6 to 1 s (2-vCPU VM)."""
    if cap_states < 1:
        raise BadInput(f"state cap {cap_states} is not positive")
    facts = validate_curve(curve, nb)
    tab = _IdTable(nb)
    max_len = len(curve.snippets) + 3 * nb.s_N
    closed = curve.kind == CLOSED
    start = tab.intern(curve.snippets, facts)
    bad, pushes = tab.bad, tab.pushes
    seen = {_least_rotation(start) if closed else start}
    queue = deque([start])
    efficient_found = False
    pruned = False
    states = 0
    while queue:
        cur = queue.popleft()
        states += 1
        n = len(cur)
        bads = [i for i, x in enumerate(cur) if bad[x]]
        if not bads:
            efficient_found = True
        elif n == 1:
            # a lone bad snippet is the contracted (inessential or
            # peripheral) terminal form: a positive witness
            return OracleVerdict(True, efficient_found, True, states)
        if not closed:
            bads = [i for i in bads if 0 < i < n - 1]
        for k in bads:
            if n == 2:  # closed: an arc of two has no interior position
                child = tab.push_two(cur, k)
            else:
                arc = (cur[k - 1], cur[k], cur[(k + 1) % n])
                win = pushes.get(arc) or tab.push(arc)
                # as `WorkingCurve.apply` lays it out: rotated first when
                # the window would wrap
                if 0 < k < n - 1:
                    child = cur[:k - 1] + win + cur[k + 2:]
                elif k == 0:
                    child = win + cur[2:n - 1]
                else:
                    child = win + cur[1:n - 2]
            if len(child) > max_len:
                pruned = True
                continue
            key = _least_rotation(child) if closed else child
            if key in seen:
                continue
            if len(seen) >= cap_states:
                return OracleVerdict(False, efficient_found, False, states,
                                     reason="state cap")
            seen.add(key)
            queue.append(child)
    if pruned:
        return OracleVerdict(False, efficient_found, False, states,
                             reason="length cap")
    return OracleVerdict(True, efficient_found, False, states)


def oracle_agrees(verdict: OracleVerdict, status: str) -> bool:
    """Does a conclusive oracle verdict agree with a pipeline status on the
    single-snippet-vs-not question (and efficiency, where decided)?"""
    if status == SINGLE_SNIPPET:
        return verdict.single_reachable
    if verdict.single_reachable:
        return False
    if status == EFFICIENT:
        return verdict.efficient_reachable
    return True
