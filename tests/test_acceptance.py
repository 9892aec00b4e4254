"""The eight acceptance criteria, one test and one printed verdict line each.

Every criterion measures the library end to end at desk scale: structural
validation of the fixture tracks, classifier totality against the
independent walker, per-event rewrite contracts, trigon-chase monotonicity
and graph membership, strict step budgets with a fitted complexity
exponent, the end-to-end trichotomy with boundary-power read-off,
exhaustive-search agreement on small instances, and the length-measure
identities."""
from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from conftest import record

import trackform.pipelines as P
from trackform.curve_ops import (ARC, CLOSED, Curve, is_blocker, measure,
                                 validate_curve)
from trackform.errors import (AuditFailure, InconsistentSnippet,
                              TrackformError)
from trackform.fixtures import load_fixture
from trackform.generate import (boundary_power, doubled_back,
                                peripheral_bounce, random_arc, random_closed,
                                trivial_loop)
from trackform.homotopy_engine import TRIGON_GRAPH
from trackform.pipelines import (EFFICIENT, SINGLE_SNIPPET,
                                 efficient_position, terminal_summary)
from trackform.snippet_core import Snippet, classify, corner_length
from trackform.track_model import (ANNULUS, BRANCH, DISC, SWITCH,
                                   TieNeighbourhood)
from trackform.verification import (_snippet_efficient, audit_trace,
                                    check_efficient, exhaustive_oracle,
                                    oracle_agrees)

FIXTURES = ("t11", "s12", "s04", "t11d")
TRIGON_TYPES = frozenset(TRIGON_GRAPH)


@pytest.fixture(scope="module")
def tracks() -> dict[str, TieNeighbourhood]:
    return {name: load_fixture(name) for name in FIXTURES}


def _fail(line: str) -> None:
    record(line)
    pytest.fail(line, pytrace=False)


# -- criterion 1: structural validation -------------------------------------


def test_criterion_1_structural_validation(tracks):
    t0 = time.perf_counter()
    problems = []
    for name, nb in tracks.items():
        rect_sum = Fraction(0)
        for ri, r in enumerate(nb.regions):
            ind = nb.region_index(ri)
            if r.kind in (BRANCH, SWITCH):
                rect_sum += ind
            elif ind > Fraction(-1, 4):
                problems.append(f"{name}:{r.name} index {ind}")
        if rect_sum != 0:
            problems.append(f"{name}: rectangle index sum {rect_sum}")
        if nb.s_N < 5:
            problems.append(f"{name}: s_N {nb.s_N} < 5")
    elapsed = time.perf_counter() - t0
    if problems or elapsed >= 1.0:
        _fail(f"criterion 1 (structural validation): FAIL — "
              f"{problems or f'{elapsed:.2f}s >= 1s'}")
    record(f"criterion 1 (structural validation): PASS — {len(FIXTURES)} "
           f"fixtures, rectangle index sums 0, complementary indices <= -1/4,"
           f" s_N >= 5, {elapsed * 1000:.0f}ms")


# -- criterion 2: classification totality -----------------------------------


def _region_loci(nb: TieNeighbourhood, ri: int) -> list[tuple[int, int]]:
    r = nb.regions[ri]
    return [(si, gi) for si, side in enumerate(r.sides)
            for gi in range(side.n_segments)]


def test_criterion_2_classification_totality(tracks):
    t0 = time.perf_counter()
    verdicts = {"Carried", "DualTie", "DualComp", "Bad"}
    counts = {"valid": 0, "invalid": 0, "malformed": 0, "disagree": 0}

    def tally(s: Snippet, nb: TieNeighbourhood) -> None:
        try:
            cls = classify(s, nb)
        except InconsistentSnippet:
            counts["invalid"] += 1
            return
        counts["valid"] += 1
        if cls.verdict not in verdicts or \
                (cls.verdict == "Bad") != (cls.type is not None):
            counts["malformed"] += 1
        if cls.efficient != _snippet_efficient(s, nb):
            counts["disagree"] += 1

    for name, nb in tracks.items():
        for ri, r in enumerate(nb.regions):
            loci = _region_loci(nb, ri)
            if r.kind in (DISC, ANNULUS):
                for w in range(-8, 9):
                    tally(Snippet(ri, None, None, w), nb)
                    for a in loci:
                        for b in loci:
                            tally(Snippet(ri, a, b, w), nb)
            else:
                for a in loci:
                    for b in loci:
                        tally(Snippet(ri, a, b, 0), nb)
    rng = random.Random(20817)
    while counts["valid"] < 100_000:
        nb = tracks[FIXTURES[rng.randrange(4)]]
        ri = rng.randrange(len(nb.regions))
        loci = _region_loci(nb, ri)
        w = rng.randrange(-40, 41) \
            if nb.regions[ri].kind in (DISC, ANNULUS) else 0
        if rng.random() < 0.1 and nb.regions[ri].kind in (DISC, ANNULUS):
            tally(Snippet(ri, None, None, w), nb)
        else:
            tally(Snippet(ri, rng.choice(loci), rng.choice(loci), w), nb)
    elapsed = time.perf_counter() - t0
    ok = counts["disagree"] == counts["malformed"] == 0 and elapsed < 30
    line = (f"criterion 2 (classification totality): "
            f"{'PASS' if ok else 'FAIL'} — {counts['valid']} valid snippets "
            f"classified ({counts['invalid']} invalid encodings rejected), "
            f"{counts['disagree']} disagreements with the index-walk "
            f"checker, {counts['malformed']} malformed verdicts, "
            f"{elapsed:.1f}s")
    if not ok:
        _fail(line)
    record(line)


# -- criterion 3: rewrite contracts -----------------------------------------


def _corpus(nb: TieNeighbourhood, name: str, count: int, max_len: int,
            salt: str = ""):
    for seed in range(count):
        rng = random.Random(f"{name}/{seed}/{salt}")
        length = rng.randrange(2, max_len + 1)
        if seed % 3 == 0:
            yield random_arc(nb, rng, max(length - 1, 1))
        else:
            yield random_closed(nb, rng, length)


def test_criterion_3_rewrite_contracts(tracks):
    curves = events_seen = audits_ok = audits_run = 0
    delta_bad = window_bad = 0
    for name, nb in tracks.items():
        s = nb.s_N
        for curve in _corpus(nb, name, 2500, 12, salt="c3"):
            res = efficient_position(curve, nb)
            curves += 1
            for ev in res.events:
                if ev["op"] != "hom":
                    continue
                events_seen += 1
                n0, n1 = ev["n"]
                d = n1 - n0
                rule = ev["rule"]
                if (rule == "B(h,t)" and d != -1) or \
                   (rule == "S(h,t,3)" and d != 1) or \
                   (rule == "S(h,v,2)" and d != 0) or \
                   (rule == "R(h,v)" and d > s - 2):
                    delta_bad += 1
                ws, wl = ev["win"]
                if not (0 <= ws and wl >= 1 and ws + wl <= n1):
                    window_bad += 1
            audits_run += 1
            try:
                audit_trace(res.events, curve, res.curve, nb)
                audits_ok += 1
            except AuditFailure:
                pass
    ok = delta_bad == 0 and window_bad == 0 and audits_ok == audits_run
    line = (f"criterion 3 (rewrite contracts): {'PASS' if ok else 'FAIL'} — "
            f"{curves} curves, {events_seen} hom events, "
            f"{delta_bad} per-type delta violations, "
            f"{window_bad} window violations, audits (locality + turn "
            f"preservation included) {audits_ok}/{audits_run}")
    if not ok:
        _fail(line)
    record(line)


# -- criterion 4: trigon monotonicity and graph membership ------------------


class _RecordingRun(P.Run):
    """A Run that keeps the curve after every recorded event."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.states = [self.curve]

    def _note(self):
        while len(self.states) < len(self.events) + 1:
            self.states.append(self.curve)

    def hom_at(self, k, phase):
        ev = super().hom_at(k, phase)
        self._note()
        return ev

    def rotate(self, r, phase):
        super().rotate(r, phase)
        self._note()

    def reverse_(self, phase):
        super().reverse_(phase)
        self._note()

    def open_dup(self, phase):
        super().open_dup(phase)
        self._note()

    def seam(self, phase):
        super().seam(phase)
        self._note()


def _span_red(curve: Curve, lo: int, tail: int, nb: TieNeighbourhood) -> int:
    hi = len(curve.snippets) - 1 - tail
    if hi - 1 < lo + 1:
        return 0
    return measure(Curve(ARC, curve.snippets[lo + 1:hi]), nb).len_red


def _drive(run: _RecordingRun) -> None:
    if run.kind == ARC:
        P.reduce_to_two(run)
    else:
        if run.n > 2:
            P.reduce_to_two(run)
        if run.n > 1:
            P.reduce_to_one(run)
            P.single_bad(run)


def test_criterion_4_trigon_monotonicity_and_graph(tracks):
    runs = red_viol = edge_viol = foreign = curves = 0
    for name, nb in tracks.items():
        s = nb.s_N
        for curve in _corpus(nb, name, 450, 15, salt="c4"):
            run = _RecordingRun(curve, nb)
            _drive(run)
            curves += 1
            assert len(run.states) == len(run.events) + 1
            for tag, steps, size, lo, tail, e0, e1 in run.budget_log:
                if not tag.startswith("trig"):
                    continue
                runs += 1
                if e0 == e1:
                    continue
                if tag == "trig_arc":
                    red = [_span_red(run.states[i], lo, tail, nb)
                           for i in range(e0, e1 + 1)]
                else:
                    red = [measure(run.states[i], nb).len_red
                           for i in range(e0, e1 + 1)]
                for j in range(len(red) - 1):
                    d = red[j + 1] - red[j]
                    if (j < len(red) - 2 and d > 0) or d > 2 * s:
                        red_viol += 1
                rules = [run.events[i]["rule"] for i in range(e0, e1)]
                foreign += sum(1 for r in rules if r not in TRIGON_TYPES)
                bad_c = [sum(1 for x in run.states[i].snippets
                             if classify(x, nb).bad)
                         for i in range(e0, e1 + 1)]
                for j in range(len(rules) - 1):
                    if bad_c[j + 1] == bad_c[j] and \
                            rules[j + 1] not in TRIGON_GRAPH[rules[j]]:
                        edge_viol += 1
    ok = runs >= 10_000 and red_viol == 0 and edge_viol == 0 and foreign == 0
    line = (f"criterion 4 (trigon monotonicity & graph): "
            f"{'PASS' if ok else 'FAIL'} — {runs} chase-loop runs over "
            f"{curves} curves, {red_viol} reduced-corner-length violations "
            f"(non-increasing until terminal, then <= +2s), "
            f"{edge_viol} off-graph transitions, {foreign} non-trigon rules")
    if not ok:
        _fail(line)
    record(line)


# -- criterion 5: step budgets and fitted exponent --------------------------


def test_criterion_5_step_budgets(tracks):
    t0 = time.perf_counter()
    over_trig_arc = over_trig_curve = over_single = 0
    curves = 0
    fits = {}
    for name, nb in tracks.items():
        s = nb.s_N
        lens, pushes = [], []
        for i in range(250):
            rng = random.Random(f"{name}/{i}/c5")
            length = 2 + (i * 198) // 249
            curve = random_closed(nb, rng, length)
            res = efficient_position(curve, nb)
            curves += 1
            lens.append(len(curve.snippets))
            pushes.append(res.homs)
            for tag, steps, size, lo, tail, e0, e1 in res.budget_log:
                if tag == "trig_arc" and steps > (size + 1) * (s + 2):
                    over_trig_arc += 1
                elif tag == "trig_curve" and \
                        steps > (size + 2 * s + 2) * (s + 2):
                    over_trig_curve += 1
                elif tag == "single_bad" and steps > size + 1:
                    over_single += 1
        xs = [math.log(l) for l, p in zip(lens, pushes) if p >= 1 and l >= 3]
        ys = [math.log(p) for l, p in zip(lens, pushes) if p >= 1 and l >= 3]
        fits[name] = (statistics.linear_regression(xs, ys).slope
                      if len(xs) > 10 else 0.0)
    elapsed = time.perf_counter() - t0
    worst = max(fits.values())
    ok = (over_trig_arc == over_trig_curve == over_single == 0
          and worst <= 2.2 and elapsed < 300)
    line = (f"criterion 5 (step budgets): {'PASS' if ok else 'FAIL'} — "
            f"{curves} curves up to length 200; strict bounds: "
            f"{over_trig_arc} trig-arc, {over_trig_curve} trig-curve, "
            f"{over_single} single-bad overruns; fitted exponents "
            + ", ".join(f"{k}={v:.2f}" for k, v in fits.items())
            + f" (max {worst:.2f} <= 2.2), {elapsed:.0f}s < 300s")
    if not ok:
        _fail(line)
    record(line)


# -- criterion 6: end-to-end trichotomy -------------------------------------


def _carried_loop(nb: TieNeighbourhood) -> Curve | None:
    """Follow carried snippets region to region until the path closes."""
    for ri, r in enumerate(nb.regions):
        if r.kind not in (BRANCH, SWITCH):
            continue
        for entry in _region_loci(nb, ri):
            path, seen = [], {}
            state = (ri, entry)
            while state not in seen:
                seen[state] = len(path)
                reg, loc = state
                exits = [m for m in _region_loci(nb, reg)
                         if classify(Snippet(reg, loc, m, 0),
                                     nb).verdict == "Carried"]
                if not exits:
                    break
                path.append(Snippet(reg, loc, exits[0], 0))
                nxt = nb.partner(reg, exits[0])
                if nxt is None:
                    break
                state = nxt
            else:
                k = seen[state]
                loop = Curve(CLOSED, tuple(path[k:]))
                try:
                    validate_curve(loop, nb)
                except TrackformError:
                    continue
                return loop
    return None


def test_criterion_6_trichotomy(tracks):
    cases = failures = 0
    notes = []
    for name, nb in tracks.items():
        annuli = [ri for ri, r in enumerate(nb.regions)
                  if r.kind == ANNULUS]
        suite: list[tuple[Curve, str, dict]] = []
        for ri in range(len(nb.regions)):
            suite.append((trivial_loop(nb, ri), "inessential", {}))
        for seed in range(3):
            rng = random.Random(f"{name}/{seed}/c6")
            suite.append((doubled_back(nb, rng, rng.randrange(1, 5)),
                          "inessential", {}))
        for ri in annuli:
            comp = nb.boundary_components.index(
                (ri, nb.boundary_side(ri)))
            for k in (1, 2, 3):
                suite.append((boundary_power(nb, ri, k), "peripheral",
                              {"power": k, "component": comp}))
                suite.append((peripheral_bounce(nb, ri, k), "peripheral",
                              {"power": k, "component": comp}))
        loop = _carried_loop(nb)
        if loop is None:
            failures += 1
            notes.append(f"{name}: no carried loop found")
        else:
            suite.append((loop, "efficient", {}))
        for curve, expect, want in suite:
            cases += 1
            res = efficient_position(curve, nb)
            n_out = len(res.curve.snippets)
            if not (check_efficient(res.curve, nb).ok or n_out == 1):
                failures += 1
                notes.append(f"{name}: output neither efficient nor len 1")
                continue
            info = terminal_summary(res, nb)
            if expect == "efficient":
                if res.status != EFFICIENT or info["class"] != "essential":
                    failures += 1
                    notes.append(f"{name}: carried loop -> {res.status}")
            elif expect == "inessential":
                if res.status != SINGLE_SNIPPET or \
                        info["class"] != "inessential":
                    failures += 1
                    notes.append(f"{name}: trivial input -> {res.status}")
            else:
                s_out = res.curve.snippets[0]
                comp_out = nb.boundary_components.index(
                    (s_out.region, nb.boundary_side(s_out.region))) \
                    if nb.regions[s_out.region].kind == ANNULUS else None
                if res.status != SINGLE_SNIPPET or \
                        info["class"] != "peripheral" or \
                        info["power"] != want["power"] or \
                        comp_out != want["component"]:
                    failures += 1
                    notes.append(
                        f"{name}: boundary power {want} -> {res.status} "
                        f"{info.get('class')} power={info.get('power')}")
    ok = failures == 0
    line = (f"criterion 6 (end-to-end trichotomy): "
            f"{'PASS' if ok else 'FAIL'} — {cases} constructed inputs "
            f"(trivial loops, doubled-back loops, boundary powers k=1..3, "
            f"carried loops); every output checker-efficient or length 1; "
            f"{failures} read-off failures{'; ' if notes else ''}"
            + "; ".join(notes[:4]))
    if not ok:
        _fail(line)
    record(line)


# -- criterion 7: oracle agreement ------------------------------------------


def test_criterion_7_oracle_agreement(tracks):
    checked = inconclusive = disagreements = 0
    for name, nb in tracks.items():
        for seed in range(45):
            rng = random.Random(f"{name}/{seed}/c7")
            if seed % 3 == 0:
                curve = random_arc(nb, rng, rng.randrange(1, 7))
            else:
                curve = random_closed(nb, rng, rng.randrange(2, 9))
            if len(curve.snippets) > 8:
                continue
            verdict = exhaustive_oracle(curve, nb)
            res = efficient_position(curve, nb)
            if not verdict.conclusive:
                inconclusive += 1
                continue
            checked += 1
            if not oracle_agrees(verdict, res.status):
                disagreements += 1
    total = checked + inconclusive
    ok = disagreements == 0 and checked > 0
    line = (f"criterion 7 (oracle agreement): {'PASS' if ok else 'FAIL'} — "
            f"{total} instances of length <= 8, {checked} conclusive, "
            f"agreement {checked - disagreements}/{checked}, "
            f"inconclusive rate {inconclusive}/{total}")
    if not ok:
        _fail(line)
    record(line)


# -- criterion 8: length-measure identities ---------------------------------


def test_criterion_8_length_identities(tracks):
    curves = identity_bad = bound_bad = blocker_windows = blocker_bad = 0
    for name, nb in tracks.items():
        two_s = 2 * nb.s_N
        for curve in _corpus(nb, name, 120, 24, salt="c8"):
            for c in (curve, efficient_position(curve, nb).curve):
                curves += 1
                m = measure(c, nb)
                n = len(c.snippets)
                corn = sum(corner_length(s, nb) for s in c.snippets)
                limit = n if c.kind == CLOSED and n >= 3 else max(n - 2, 0)
                blocks = sum(1 for k in range(limit) if is_blocker(c, nb, k))
                if c.kind == CLOSED and n < 3:
                    blocks = 0
                if m.len_corn != corn or m.len_block != blocks or \
                        m.len_red != corn - 2 * blocks:
                    identity_bad += 1
                bad = sum(1 for s in c.snippets if classify(s, nb).bad)
                if not (n <= corn + bad <= two_s * n + bad):
                    bound_bad += 1
                if any(corner_length(s, nb) > two_s for s in c.snippets):
                    bound_bad += 1
                for k in range(limit):
                    if is_blocker(c, nb, k):
                        blocker_windows += 1
                        w = sum(corner_length(c.snippets[(k + d) % n], nb)
                                for d in range(3))
                        if w < 7:
                            blocker_bad += 1
    ok = (identity_bad == 0 and bound_bad == 0 and blocker_bad == 0
          and blocker_windows > 0)
    line = (f"criterion 8 (length identities): {'PASS' if ok else 'FAIL'} — "
            f"{curves} measured curves; len_red = len_corn - 2*len_block "
            f"({identity_bad} failures); len <= len_corn + bads <= "
            f"2*s_N*len + bads ({bound_bad} failures); {blocker_windows} "
            f"blocker windows all with corner length >= 7 "
            f"({blocker_bad} below)")
    if not ok:
        _fail(line)
    record(line)
