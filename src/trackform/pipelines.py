"""Drive a curve or arc into efficient position by elementary homotopies.

The strategy works outside-in.  A sweep (`reduce_to_two`) grows a prefix of
the curve one snippet at a time, each step collapsing the newest interior
bigon and chasing trigons out of the prefix interior, so that afterwards only
the two outermost positions can hold bad snippets.  For closed curves a seam
step (`reduce_to_one`) then duplicates the basepoint snippet, cleans the
opened arc, and glues the two halves of the duplicate back together, leaving
at most one bad snippet.  A final case analysis (`single_bad`) removes that
survivor, dispatching on its bigon type through one table, `RESOLVERS`:
most bigon types vanish in one push; the horizontal bigons need follow-up
pushes chosen by the shape of their neighbourhood (narrow or wide
complement bigons, blocked branch bigons); whenever a push hands the problem
to a trigon, a plain chase (`trig_curve`) finishes.  `drive` runs the
phases in this order on a `Run`; `efficient_position` builds the run and
calls it.

Every operation goes through `Run`, which is the working curve it pushes
(a `WorkingCurve`), enforces the global rewrite budget and records one
trace event per operation.  Each of its five operations only builds the
event's typed trace/1 record without its phase and counters (`hom` returns
a push's window and the window's fact records with the push's own fields
as such a record) and hands it to `Run._record`, which replays it on the
run itself with `WorkingCurve.apply` (the step the audit replays each
recorded event with) and then builds the full record once, stamped with
its phase (one of `PHASES`) and the counters it leaves: the run's own
counter list, which is replaced on each change and never mutated.  A push
thus changes the curve, its counters and its bad flags within its window
only.  `run.curve` builds the `Curve` on demand.  The recorded events are
self-contained: an auditor can replay them from the input curve and
byte-compare every intermediate state.

Termination is certified by step budgets, one entry of `LOOP_BOUNDS` per
loop.  With s = s_N, `trig_arc` is proven to take at most (size + 1)(s + 2)
pushes, size being its span's interior snippets; `trig_curve` (size + 2s +
2)(s + 2) pushes and `single_bad` size + 1 rounds, size being the reduced
corner length when the loop starts.  Each raises `BudgetExceeded` past
twice its bound (twice plus one for `single_bad`) rather than run away.
"""

from __future__ import annotations

from typing import NamedTuple

from .curve_ops import (
    ARC,
    CLOSED,
    Curve,
    LengthReport,
    WorkingCurve,
    is_blocker,
    measure,  # unused here; the benchmark's tracer wraps pipelines.measure
    validate_curve,
)
from .errors import BadInput, BudgetExceeded
from .formats import Hom, Open, Reverse, Rotate, Seam
from .homotopy_engine import hom
from .snippet_core import classify, is_bigon, is_trigon
from .track_model import TieNeighbourhood

EFFICIENT = "Efficient"
SINGLE_SNIPPET = "SingleSnippet"
INSIDE_EFFICIENT = "InsideEfficient"

# The phases `drive` records, one of which stamps each trace event: the
# sweep, the seam step, and the steps of the single-bad case analysis.
PHASES = frozenset((
    "reduce_to_two", "reduce_to_one", "all_but", "weight_one_bigon",
    "weight_two_bigon", "two_trigons", "hor_bigon_comp", "hor_bigon_wide",
    "hor_bigon_branch", "trig_curve"))


class Run(WorkingCurve):
    """One homotopy run: the working curve it pushes, with its trace events,
    budget log and push count against the global rewrite budget."""
    __slots__ = ("events", "budget_log", "homs", "max_homs")

    def __init__(self, curve: Curve, nb: TieNeighbourhood,
                 max_homs: int | None = None) -> None:
        super().__init__(curve, nb)
        self.events: list = []
        # one row per budgeted loop run, as `_budgeted` logs it
        self.budget_log: list[tuple[str, int, int, int, int, int, int]] = []
        self.homs = 0
        self.max_homs = max_homs if max_homs is not None \
            else 2 * proven_push_bound(nb, len(curve.snippets))

    # -- state queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.snippets)

    def bads(self) -> list[int]:
        out = []
        p = self.bad.find(1)
        while p >= 0:
            out.append(p)
            p = self.bad.find(1, p + 1)
        return out

    def first_bad(self, lo: int = -1, hi: int | None = None) -> int | None:
        """The first bad position p with lo < p < hi, or None."""
        b = self.bad
        p = b.find(1, lo + 1, len(b) if hi is None else max(hi, 0))
        return None if p < 0 else p

    def report(self) -> LengthReport:
        return LengthReport(self.n, *self.c)

    # -- operations (each records one trace event) --------------------------

    def _record(self, ev, phase: str, window=(), wf=()):
        """Replay the op `ev` (an unstamped trace/1 record: for a push,
        `hom`'s own fields, with its window and their fact records) on the
        run itself, then stamp it with its phase and the counters it
        leaves and keep it as the next trace event."""
        self.apply(ev, window, wf)
        rec = ev.stamped(phase, self.c)
        self.events.append(rec)
        return rec

    def hom_at(self, k: int, phase: str) -> Hom:
        """Push the bad snippet at k; record and return the push's trace/1
        `hom` record."""
        if self.homs >= self.max_homs:
            raise BudgetExceeded(
                f"global rewrite budget of {self.max_homs} pushes exhausted")
        window, wf, push = hom(self, k, self.nb)
        self.homs += 1
        return self._record(push, phase, window, wf)

    def rotate(self, r: int, phase: str) -> None:
        if self.kind != CLOSED:
            raise BadInput("only closed curves rotate")
        r %= self.n
        if r:
            self._record(Rotate(r), phase)

    def reverse_(self, phase: str) -> None:
        self._record(Reverse(), phase)

    def open_dup(self, phase: str) -> None:
        """Open a closed curve into an arc by duplicating its basepoint
        snippet at the far end; the seam step undoes the duplication."""
        if self.kind != CLOSED:
            raise BadInput("only closed curves open at a seam")
        s0 = self.snippets[0]
        if s0.closed:
            raise BadInput("cannot open a curve at a closed snippet")
        self._record(Open(s0.wind), phase)

    def seam(self, phase: str) -> None:
        if self.kind != ARC or self.orig_wind is None:
            raise BadInput("seam closes an arc opened by open_dup")
        self._record(Seam(self.orig_wind), phase)


# -- step budgets -----------------------------------------------------------

# Each budgeted loop's proven 1x step bound as a function of its size and
# s_N, the slack its limit adds to twice the bound, and its overrun message.
LOOP_BOUNDS = {
    "trig_arc": (lambda n, s: (n + 1) * (s + 2), 0, "trigon chase exceeded "
                 "{limit} pushes on a span of {size} interior snippets"),
    "trig_curve": (lambda n, s: (n + 2 * s + 2) * (s + 2), 0,
                   "closed trigon chase exceeded {limit} pushes"),
    "single_bad": (lambda n, s: n + 1, 1,
                   "single-bad resolution exceeded {limit} rounds"),
}


def _budgeted(run: Run, tag: str, size: int, pick, phase: str | None,
              lo: int = 0, tail: int = 0, step=None) -> None:
    """Run a budgeted loop: while `pick(run, lo, tail)` finds a bad position
    k, count a step, raise past the loop's limit and push at k in `phase`,
    or take the loop's own `step(run, k)`, which ends the loop by returning
    true.  Every exit logs the row (tag, steps, size, lo, tail, first event
    index, end event index), so an audit can check the proven bound and
    replay the loop's own events against its own span."""
    steps, e0 = 0, len(run.events)
    try:
        while (k := pick(run, lo, tail)) is not None:
            if not steps:  # looked up here, as most chases push nothing
                bound, slack, overrun = LOOP_BOUNDS[tag]
                limit = 2 * bound(size, run.nb.s_N) + slack
            steps += 1
            if steps > limit:
                raise BudgetExceeded(overrun.format(limit=limit, size=size))
            if step is None:
                run.hom_at(k, phase)
            elif step(run, k):
                return
    finally:
        run.budget_log.append((tag, steps, size, lo, tail, e0,
                               len(run.events)))


# The budgeted loops' rules for picking the next bad position.
def _span_bad(run: Run, lo: int, tail: int) -> int | None:
    return run.first_bad(lo, run.n - 1 - tail)


def _any_bad(run: Run, lo: int, tail: int) -> int | None:
    return run.first_bad() if run.n > 1 else None


# -- span algorithms --------------------------------------------------------


def trig_arc(run: Run, lo: int, tail: int, phase: str) -> None:
    """Push every bad snippet out of the span interior.

    The span covers positions [lo, n - 1 - tail]; its two end positions are
    never rewritten.  The span boundary stays put while interior pushes
    shrink or grow the curve, so `tail` keeps addressing the same suffix."""
    _budgeted(run, "trig_arc", max(run.n - tail - lo - 2, 0), _span_bad,
              phase, lo, tail)


def big_arc(run: Run, tail: int, phase: str) -> None:
    """Collapse a bigon at the penultimate position of the span [0, n - 1
    - tail], then chase."""
    hi = run.n - 1 - tail
    if hi > 1 and is_bigon(run.facts[hi - 1]):
        run.hom_at(hi - 1, phase)
    trig_arc(run, 0, tail, phase)


def reduce_to_two(run: Run) -> None:
    """Sweep the curve so only the outermost two positions stay bad."""
    n0 = run.n
    if n0 <= 2:
        return
    for k in range(3, n0):
        big_arc(run, n0 - k, "reduce_to_two")
    big_arc(run, 0, "reduce_to_two")


def reduce_to_one(run: Run) -> None:
    """Merge the two adjacent bad positions of a swept closed curve."""
    run.open_dup("reduce_to_one")
    big_arc(run, 0, "reduce_to_one")
    run.seam("reduce_to_one")


# -- the single-bad-snippet case analysis -----------------------------------


def one_push(run: Run, k: int) -> None:
    """Remove a bigon that vanishes in one push with no follow-up."""
    run.hom_at(k, "all_but")


def weight_one(run: Run, k: int) -> None:
    """Push an S(t,v,1) bigon; collapse the annulus trigon it may leave."""
    phase = "weight_one_bigon"
    ev = run.hom_at(k, phase)
    assert ev.n[0] > 2, "a weight-one bigon cannot close a 2-curve"
    ws = ev.win[0]
    for p in (ws, ws + 1):
        if run.facts[p].type == "R(h,v)":
            run.hom_at(p, phase)
            return


def weight_two(run: Run, k: int) -> None:
    """Push an S(t,t,2) bigon and clean up after it.

    The push leaves a vertical dual flanked by two annulus trigons; chasing
    from just past the dual sweeps one trigon around the curve.  If it comes
    back as a bigon against the other trigon, one more push removes both."""
    phase = "weight_two_bigon"
    two = run.n == 2
    ev = run.hom_at(k, phase)
    if two:
        run.hom_at((ev.k - 1) % run.n, phase)
        return
    run.rotate(ev.k, phase)
    trig_arc(run, 0, 0, phase)
    if is_bigon(run.facts[run.n - 1]):
        run.hom_at(run.n - 1, phase)


def two_trigons(run: Run) -> None:
    """Resolve a closed curve whose only bads are an adjacent S(h,t,1) or
    S(h,t,3) at position 0 and a B(h,t) at position 1, turning the same
    way."""
    phase = "two_trigons"
    t0 = run.facts[0].type
    assert t0 in ("S(h,t,1)", "S(h,t,3)"), t0
    assert run.facts[1].type == "B(h,t)"
    if t0 == "S(h,t,3)":
        run.hom_at(1, phase)
        if not run.facts[1].bad:
            return
        run.hom_at(1, phase)
        if run.facts[0].type == "S(t,t,0)":
            run.hom_at(0, phase)
            return
        trig_arc(run, 1, 0, phase)
        if run.facts[run.n - 1].type == "R(h,v)":
            ws, wl = run.hom_at(run.n - 1, phase).win
            run.hom_at(ws + wl - 1, phase)
            return
        if not run.facts[1].bad:
            return
    run.hom_at(1, phase)
    run.hom_at(0, phase)


def hor_bigon_comp(run: Run, k: int) -> None:
    """Remove an R(h,h) bigon in a complementary region."""
    phase = "hor_bigon_comp"
    assert run.facts[k].type == "R(h,h)"
    two = run.n == 2
    ev = run.hom_at(k, phase)
    if two:
        _resolve_left(run, NON_HORIZONTAL)
    elif ev.j == 0:
        # narrow: the merge lands flat against the far side of a rectangle
        t = run.facts[ev.win[0]].type
        assert t in ("B(h,h)", "S(h,h,0)"), t
    else:
        # wide: the slid previous end lies on a tie, so no B(h,h) or S(h,h,0)
        _hor_bigon_wide(run, ev)


def _hor_bigon_wide(run: Run, ev: Hom) -> None:
    """Continue after pushing a wide R(h,h): the window opened a fan of
    trigons; chase them around the curve and resolve what returns."""
    phase = "hor_bigon_wide"
    run.rotate(ev.k, phase)
    trig_arc(run, 0, 1, phase)
    if not any(p <= run.n - 2 for p in run.bads()):
        return
    if run.facts[run.n - 2].type == "R(h,v)":
        run.hom_at(run.n - 2, phase)
        _resolve_left(run, NON_HORIZONTAL)
        return
    # the bads left are `two_trigons`' pair at positions n - 1 and 0, or
    # its mirror image, which is flipped, resolved and flipped back
    flip = run.facts[run.n - 1].type not in ("S(h,t,1)", "S(h,t,3)")
    if flip:
        run.reverse_(phase)
    run.rotate(run.n - 1, phase)
    two_trigons(run)
    if flip:
        run.reverse_(phase)


def hor_bigon_branch(run: Run, k: int) -> None:
    """Remove a B(h,h) bigon in a branch rectangle.

    One push suffices unless both neighbours are vertical duals of opposite
    turns guarded by blockers on both sides; that double-blocked shape takes
    three pushes.  When exactly one neighbour is a short complement snippet,
    the push turns the bigon into an R(h,h) handled by `hor_bigon_comp`."""
    phase = "hor_bigon_branch"
    assert run.facts[k].type == "B(h,h)"
    nb = run.nb
    n = run.n
    blocked = short = False
    if n > 2:
        km, kp = (k - 1) % n, (k + 1) % n
        clm, clp = run.facts[km], run.facts[kp]
        cm, cp = clm.row[0], clp.row[0]
        # one push suffices beside a neighbour of corner length 2 s_N,
        # between two longer than 1 or between same-turn vertical duals
        if not (2 * nb.s_N in (cm, cp) or cm > 1 and cp > 1
                or clm.vertical_dual and clp.vertical_dual
                and clm.turn is not None and clm.turn == clp.turn):
            if cm == 1 and cp == 1:
                blocked = (is_blocker(run, nb, (k - 3) % n)
                           and is_blocker(run, nb, kp))
            else:
                short = True
    ws = run.hom_at(k, phase).win[0]
    if blocked:
        ws = run.hom_at(ws, phase).win[0]
        run.hom_at(ws, phase)
    elif short:
        _resolve_left(run, ("R(h,h)",))


def trig_curve(run: Run) -> None:
    """Chase bad snippets around a closed curve until none remain."""
    _budgeted(run, "trig_curve", max(run.report().len_red, 0), _any_bad,
              "trig_curve")


def single_bad(run: Run) -> None:
    """Remove the last bad snippet of a closed curve."""
    _budgeted(run, "single_bad", max(run.report().len_red, 0), _any_bad,
              None, step=_resolve)


# The resolver of each bigon type; a trigon has none and is left to the
# chase.
RESOLVERS = dict.fromkeys(
    ("B(t,t)", "S(h,h,0)", "S(t,t,0)", "S(v,v,0)", "R(v,v)"), one_push) | {
    "S(t,v,1)": weight_one, "S(t,t,2)": weight_two,
    "R(h,h)": hor_bigon_comp, "B(h,h)": hor_bigon_branch}
# The types of the one bad an R(h,h) push may leave.
NON_HORIZONTAL = frozenset(RESOLVERS) - {"R(h,h)", "B(h,h)"}


def _resolve_left(run: Run, types) -> None:
    """Resolve the bad snippet a push left, if any: there is at most one,
    and its type is one of `types`."""
    b = run.bads()
    if run.n > 1 and b:
        assert len(b) == 1, b
        t = run.facts[b[0]].type
        assert t in types, t
        RESOLVERS[t](run, b[0])


def _resolve(run: Run, k: int) -> bool:
    """One round of `single_bad`: remove the bad snippet at k by its
    type's resolver; True when a trigon chase has finished the curve."""
    resolver = RESOLVERS.get(run.facts[k].type)
    if resolver is not None:
        resolver(run, k)
    if run.n > 1 and any(is_trigon(run.facts[p]) for p in run.bads()):
        trig_curve(run)
        return True
    return False


# -- driver -----------------------------------------------------------------


class Result(NamedTuple):
    """Outcome of one full homotopy run."""
    status: str
    curve: Curve
    events: list
    homs: int
    report: LengthReport
    budget_log: list


def proven_push_bound(nb: TieNeighbourhood, n0: int) -> int:
    """The proven quadratic bound on the pushes of a run on an n0-snippet
    input."""
    s = nb.s_N
    return (6 * s * (s + 2) + 8) * (n0 + 2) ** 2


def drive(run: Run) -> None:
    """Run the phases on a run's curve: an arc is swept; a closed curve is
    swept when it has more than two snippets, then, when it has more than
    one, seamed and cleared of its last bad snippet."""
    if run.kind == ARC:
        reduce_to_two(run)
        return
    if run.n > 2:
        reduce_to_two(run)
    if run.n > 1:
        reduce_to_one(run)
        single_bad(run)


def efficient_position(curve: Curve, nb: TieNeighbourhood,
                       max_homs: int | None = None) -> Result:
    """Homotope the curve or arc into efficient position, or contract it to
    a single snippet exposing its homotopy class.  The global rewrite
    budget defaults to twice the proven push bound."""
    run = Run(curve, nb, max_homs)
    drive(run)
    out = run.curve
    validate_curve(out, nb)
    status = terminal_status(out, nb)
    assert status is not None, "terminal curve still has interior bad snippets"
    return Result(status=status, curve=out, events=run.events, homs=run.homs,
                  report=run.report(), budget_log=run.budget_log)


def terminal_status(curve: Curve, nb: TieNeighbourhood) -> str | None:
    """The terminal state the curve is in: `Efficient` (no bad snippet),
    `SingleSnippet` (one snippet) or `InsideEfficient` (an arc bad only at
    its endpoints); None if it is in none of them."""
    snap = curve.snippets
    n = len(snap)
    b = [i for i, s in enumerate(snap) if classify(s, nb).bad]
    if not b:
        return EFFICIENT
    if n == 1:
        return SINGLE_SNIPPET
    if curve.kind == ARC and all(p in (0, n - 1) for p in b):
        return INSIDE_EFFICIENT
    return None


def terminal_summary(result: Result, nb: TieNeighbourhood) -> dict:
    """Human-facing reading of a terminal state: essential curves stay in
    efficient position; single snippets are read off as inessential or as a
    power of a boundary component."""
    info: dict = {"status": result.status,
                  "len": len(result.curve.snippets)}
    if result.status == EFFICIENT:
        info["class"] = "essential"
        return info
    if result.status == INSIDE_EFFICIENT:
        info["class"] = "essential"
        info["note"] = "endpoints fixed as given; interior efficient"
        return info
    s = result.curve.snippets[0]
    cls = classify(s, nb)
    info["region"] = nb.regions[s.region].name
    if cls.type == "PeripheralCurve":
        n2 = nb.total_corners(s.region)
        info["class"] = "peripheral"
        info["power"] = s.wind // n2
        info["boundary"] = nb.component_of[s.region]
    else:
        info["class"] = "inessential"
    return info
