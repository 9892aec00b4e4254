"""Independent checkers for efficiency, trace soundness, and reachability.

Three layers of defence against a wrong pipeline:

* `check_efficient` re-decides per-snippet efficiency from the region
  incidence data alone — stepping locus by locus around boundary cycles and
  counting corner gaps — without calling the classifier's walk machinery, so
  a bug there cannot hide.

* `audit_trace` replays a recorded run event by event on its own working
  curve (`WorkingCurve`), splicing each replayed window in place, so an
  event costs its window and not the curve's length.  Each record's field
  types are checked, each rewrite is re-executed and every recorded field
  must match.  The audit's own length counters follow each replayed `hom`
  window in O(window) (`update_counters`), are counted in full at the
  start and after `reverse`, `open` and `seam`, and must equal each
  event's record and, at the end, a full count of the terminal curve,
  which must also equal the recorded output snippet for snippet.  The
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
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .curve_ops import (ARC, CLOSED, Curve, WorkingCurve, glue_seam, measure,
                        reverse, update_counters)
from .errors import AuditFailure, NotApplicable, TrackformError
from .formats import _is_int
from .homotopy_engine import EXPECTED_J, TRIGON_GRAPH, hom, splice
from .snippet_core import TRIGON_TYPES, Snippet, classify
from .track_model import ANNULUS, BOUNDARY, TieNeighbourhood

__all__ = [
    "EfficiencyReport",
    "AuditReport",
    "OracleVerdict",
    "check_efficient",
    "audit_trace",
    "exhaustive_oracle",
    "oracle_agrees",
]


# -- independent efficiency checker -----------------------------------------


@dataclass(frozen=True)
class EfficiencyReport:
    ok: bool
    verdicts: tuple[bool, ...]  # True = the snippet is in efficient position
    first_failure: int | None


def _stepped_corners(nb: TieNeighbourhood, region: int, a, b) -> int:
    """Corners passed stepping counter-clockwise from locus a to locus b."""
    ci, pa = nb.locus_cycle(region, a)
    cj, pb = nb.locus_cycle(region, b)
    if ci != cj:
        raise NotApplicable("endpoints on different boundary cycles")
    n = len(nb.cycle_loci(region, ci))
    c = 0
    for i in range((pb - pa) % n):
        if nb.gap_is_corner(region, ci, (pa + i) % n):
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


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    events: int
    checks: int


# Exact whole-curve (carried, dual-on-turn-side, dual-on-opposite-side)
# deltas of a chase step, keyed by (rule, surviving bad type).
_CHASE_DELTAS: dict[tuple[str, str], tuple[int, int, int]] = {
    ("B(h,t)", "S(h,t,1)"): (-1, 0, 0),
    ("B(h,t)", "S(h,t,3)"): (-1, 0, 0),
    ("B(h,t)", "S(h,v,2)"): (-1, 0, 0),
    ("B(h,t)", "R(h,v)"): (0, -1, 0),
    ("S(h,t,1)", "B(h,t)"): (-1, 0, 0),
    ("S(h,t,3)", "B(h,t)"): (-1, 0, 1),
    ("S(h,v,2)", "R(h,v)"): (0, -1, 0),
}


def _ints(n: int):
    return lambda v: (isinstance(v, list) and len(v) == n
                      and all(map(_is_int, v)))


def _name(v) -> bool:
    return v is None or isinstance(v, str)


# The tests each op's trace/1 record must pass, in order: the counters
# "c", then the fields it carries besides "op" and "phase", each with a test
# of its JSON type.
_RECORD_CHECKS = {
    op: (("c", _ints(6)), *fields.items()) for op, fields in {
        "hom": {"k": _is_int, "rot": _is_int, "j": _is_int, "n": _ints(2),
                "win": _ints(2), "rule": _name, "turn": _name},
        "rotate": {"by": _is_int},
        "reverse": {},
        "open": {"orig_wind": _is_int},
        "seam": {"orig_wind": _is_int},
    }.items()
}


# The replayed `hom` record's fields, each compared with the recorded one
# under its clause, in this order.
_HOM_CLAUSES = (("rot", "rot"), ("k", "k"), ("rule", "rule"),
                ("turn", "turn"), ("j", "j"), ("n", "length"),
                ("win", "window"))


def _glued(nb: TieNeighbourhood, work: WorkingCurve, i: int) -> bool:
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
    return nb.partner(a.region, a.end) == (b.region, b.start)


class _Audit:
    def __init__(self, trace, before: Curve, after: Curve,
                 nb: TieNeighbourhood) -> None:
        self.trace = trace
        self.before = before
        self.after = after
        self.nb = nb
        self.checks = 0
        self.index = -1
        self._c: list[int] = []

    @property
    def counters(self) -> tuple[int, ...]:
        """The running counters of the replayed curve."""
        return tuple(self._c)

    def fail(self, clause: str, detail: str = "") -> None:
        msg = f"event {self.index}: {clause}"
        if detail:
            msg += f" ({detail})"
        raise AuditFailure(msg, event_index=self.index, clause=clause)

    def check(self, cond: bool, clause: str, detail: str = "") -> None:
        self.checks += 1
        if not cond:
            self.fail(clause, detail)

    def run(self) -> AuditReport:
        nb = self.nb
        work = WorkingCurve(self.before)
        self._c = measure(work, nb).counters
        open_wind: int | None = None
        for self.index, ev in enumerate(self.trace):
            op = self._check_record(ev)
            snap = work.snippets
            if op == "hom":
                self._replay_hom(work, ev)
            elif op == "rotate":
                self.check(work.kind == CLOSED, "op", "rotate on an arc")
                work.rotate(ev["by"])
            elif op == "reverse":
                work = WorkingCurve(reverse(work.freeze()))
            elif op == "open":
                self.check(work.kind == CLOSED and not snap[0].closed,
                           "op", "open needs a closed curve of open snippets")
                self.check(ev["orig_wind"] == snap[0].wind,
                           "open-wind", "recorded seam winding is not the "
                           "basepoint snippet's")
                open_wind = snap[0].wind
                work.kind = ARC
                snap.append(snap[0])
            else:  # seam
                self.check(open_wind is not None, "op", "seam without open")
                self.check(ev["orig_wind"] == open_wind, "seam-wind",
                           "seam winding differs from the opening event")
                work = WorkingCurve(glue_seam(work.freeze(), open_wind, nb))
                open_wind = None
            if op in ("reverse", "open", "seam"):
                self._c = measure(work, nb).counters
            self._check_counters(work, ev)
        self.index = len(self.trace)
        if work.kind != self.after.kind or \
                work.snippets != list(self.after.snippets):
            self.fail("final", "replayed terminal curve differs")
        full = measure(work, nb).counters
        self.check(full == self._c, "final",
                   f"running counters {self._c} != recomputed {full}")
        return AuditReport(ok=True, events=len(self.trace),
                           checks=self.checks)

    def _check_record(self, ev) -> str:
        """Check a record's fields and their types; return its op."""
        if not isinstance(ev, dict):
            self.fail("record", f"a {type(ev).__name__}, not an object")
        op = ev.get("op")
        checks = _RECORD_CHECKS.get(op) if isinstance(op, str) else None
        if checks is None:
            self.fail("op", f"unknown op {op!r}")
        for key, ok in checks:
            if key not in ev:
                self.fail("record", f"{op} record has no {key!r}")
            if not ok(ev[key]):
                self.fail("record", f"bad {key!r} value {ev[key]!r}")
        return op

    def _check_counters(self, cur: WorkingCurve, ev: dict) -> None:
        self.check(ev["c"] == self._c, "counters",
                   f"recorded {ev['c']} != recomputed {self._c}")

    def _replay_hom(self, work: WorkingCurve, ev: dict) -> None:
        nb = self.nb
        k_orig = (ev["k"] + ev["rot"]) % len(work.snippets)
        try:
            window, e2 = hom(work, k_orig, nb)
        except TrackformError as exc:
            self.fail("not-bad", f"recorded push is illegal here: {exc}")
        for key, clause in _HOM_CLAUSES:
            self.check(e2[key] == ev[key], clause,
                       f"replayed {key} {e2[key]}")
        if e2["rot"]:
            work.rotate(e2["rot"])
        ws = e2["win"][0]
        pre = work.snippets[ws:ws + 3]
        c0 = self._c
        self._c = update_counters(c0, work, ws, window, nb)
        work.splice(ws, window)
        self._check_contracts(work, pre, window, e2, c0)

    def _check_contracts(self, work: WorkingCurve, pre, post, e2,
                         c0) -> None:
        nb = self.nb
        n0, n1 = e2["n"]
        ws, wl = e2["win"]
        j, rule, turn = e2["j"], e2["rule"], e2["turn"]

        # length delta is determined by the tiling points on the cut piece
        if n0 == 2 and work.kind == CLOSED:
            self.check(n1 - n0 == (j - 2 if j >= 1 else -1), "length",
                       "two-snippet closed rewrite length delta")
        else:
            self.check(n1 - n0 == j - 2, "length",
                       f"delta {n1 - n0} with j={j}")

        # j is pinned per rule; the comp-region bigon/trigon walks are
        # bounded by the tiling size
        if rule in EXPECTED_J:
            self.check(j in EXPECTED_J[rule], "j",
                       f"rule {rule} cannot have j={j}")
        elif rule == "R(h,v)":
            self.check(0 <= j <= nb.s_N, "j", f"R(h,v) walk of {j} points")
        else:
            self.check(0 <= j <= 2 * nb.s_N, "j",
                       f"{rule} walk of {j} points")

        if wl == n1:  # whole-curve rewrite of a two-snippet closed curve
            return

        # locality: the window was spliced at the recorded place, in place
        # of three snippets, and is glued to the untouched snippets on both
        # sides of it
        self.check(len(work.snippets) == n1 and _glued(nb, work, ws - 1),
                   "locality", "window not glued to the snippet before it")
        self.check(_glued(nb, work, ws + wl - 1), "locality",
                   "window not glued to the snippet after it")

        if j >= 1:
            # slid neighbours keep their far endpoint and region; their
            # winding moves by at most one corner crossing
            self.check(post[0].region == pre[0].region
                       and post[0].start == pre[0].start
                       and abs(post[0].wind - pre[0].wind) <= 1,
                       "slide", "previous snippet slid illegally")
            self.check(post[-1].region == pre[2].region
                       and post[-1].end == pre[2].end
                       and abs(post[-1].wind - pre[2].wind) <= 1,
                       "slide", "next snippet slid illegally")
            for s in post[1:-1]:
                self.check(not classify(s, nb).bad, "inner-bad",
                           "replacement interior snippet is bad")
        else:
            self.check(post[0].region == pre[0].region, "slide",
                       "merge left its region")

        # chase step: a lone bad trigon between efficient neighbours obeys
        # the hand-off graph with exact carried/dual deltas
        if rule in TRIGON_TYPES and not classify(pre[0], nb).bad \
                and not classify(pre[2], nb).bad:
            bad_out = [classify(s, nb) for s in post
                       if classify(s, nb).bad]
            self.check(len(bad_out) <= 1, "chase-multiplicity",
                       f"{len(bad_out)} bad snippets out of one trigon")
            dc, dr, dl = (self._c[i] - c0[i] for i in (2, 3, 4))
            dt, do = (dr, dl) if turn == "Right" else (dl, dr)
            if bad_out:
                t2 = bad_out[0].type
                self.check(t2 in TRIGON_GRAPH[rule], "graph-edge",
                           f"{rule} -> {t2} is not a hand-off")
                self.check(bad_out[0].turn == turn, "turn",
                           "hand-off flipped the turn")
                if rule == "R(h,v)":
                    self.check((dc, dt, do) == (j - 1, 0, 0), "chase-delta",
                               f"R(h,v) step changed ({dc},{dt},{do})")
                else:
                    self.check((dc, dt, do) == _CHASE_DELTAS[(rule, t2)],
                               "chase-delta",
                               f"{rule} -> {t2} changed ({dc},{dt},{do})")
            else:
                self.check(dc == (j - 1 if rule == "R(h,v)" else 0)
                           and abs(dt) <= 1 and abs(do) <= 1,
                           "chase-delta",
                           f"terminal step changed ({dc},{dt},{do})")


def audit_trace(trace, before: Curve, after: Curve,
                nb: TieNeighbourhood) -> AuditReport:
    """Replay a recorded run and verify every event against its contracts.

    Raises AuditFailure naming the first failing event and clause."""
    return _Audit(trace, before, after, nb).run()


# -- exhaustive search oracle -----------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    conclusive: bool
    efficient_reachable: bool
    single_reachable: bool
    states: int
    reason: str | None = None


def _state_key(curve: Curve):
    """An arc's snippets; a closed curve's least rotation of them.  Only a
    one-snippet curve can hold a closed snippet's None loci, so rotations
    of two or more snippets compare as plain snippet tuples."""
    snap = curve.snippets
    if curve.kind == ARC:
        return snap
    return min(snap[i:] + snap[:i] for i in range(len(snap)))


def exhaustive_oracle(curve: Curve, nb: TieNeighbourhood,
                      max_len: int | None = None,
                      cap_states: int = 50_000) -> OracleVerdict:
    """Close the curve under all legal pushes and report what is reachable.

    Visits every curve obtainable by pushing bad snippets (interior ones for
    arcs), up to `max_len` snippets and `cap_states` distinct states; winding
    numbers are allowed to drift by at most 3*s_N from the input.  A search
    cut short is reported inconclusive rather than guessed — except that a
    reached one-snippet state is already a positive witness."""
    s_N = nb.s_N
    if max_len is None:
        max_len = len(curve.snippets) + 3 * s_N
    w0 = max((abs(s.wind) for s in curve.snippets), default=0)
    wind_cap = w0 + 3 * s_N

    seen = {_state_key(curve)}
    queue = deque([curve])
    efficient_found = False
    single_found = False
    pruned = False
    states = 0
    while queue:
        cur = queue.popleft()
        states += 1
        n = len(cur.snippets)
        bads = [i for i, s in enumerate(cur.snippets)
                if classify(s, nb).bad]
        if not bads:
            efficient_found = True
        elif n == 1:
            # a lone bad snippet is the contracted (inessential or
            # peripheral) terminal form: a positive witness
            single_found = True
            return OracleVerdict(True, efficient_found, True, states)
        if cur.kind == ARC:
            bads = [i for i in bads if 0 < i < n - 1]
        for k in bads:
            window, ev = hom(cur, k, nb)
            child = splice(cur, window, ev)
            if len(child.snippets) > max_len or any(
                    abs(s.wind) > wind_cap for s in child.snippets):
                pruned = True
                continue
            key = _state_key(child)
            if key in seen:
                continue
            if len(seen) >= cap_states:
                return OracleVerdict(False, efficient_found, single_found,
                                     states, reason="state cap")
            seen.add(key)
            queue.append(child)
    if pruned and not single_found:
        return OracleVerdict(False, efficient_found, single_found, states,
                             reason="length or winding cap")
    return OracleVerdict(True, efficient_found, single_found, states)


def oracle_agrees(verdict: OracleVerdict, status: str) -> bool:
    """Does a conclusive oracle verdict agree with a pipeline status on the
    single-snippet-vs-not question (and efficiency, where decided)?"""
    from .pipelines import EFFICIENT, SINGLE_SNIPPET
    if status == SINGLE_SNIPPET:
        return verdict.single_reachable
    if verdict.single_reachable:
        return False
    if status == EFFICIENT:
        return verdict.efficient_reachable
    return True
