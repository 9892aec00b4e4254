"""Command-line surface.

Exit codes encode the trichotomy so shell pipelines can branch on it:
0 = success (for `run`: the curve is essential), 2 = `run` contracted the
input to a single snippet (inessential or boundary-parallel), 1 = structural
error, failed verification or a file that cannot be read or written,
64 = usage error.
"""
from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

import click

from .curve_ops import measure
from .errors import AuditFailure, TrackformError
from .fixtures import FIXTURE_NAMES, load_fixture
from .formats import (parse_curve, parse_trace, parse_track, read_text,
                      serialize_curve, serialize_trace)
from .generate import gen_random_curve
from .pipelines import (EFFICIENT, SINGLE_SNIPPET, efficient_position,
                        proven_push_bound, terminal_status, terminal_summary)
from .render import render_svg
from .snippet_core import classify
from .track_model import build_tie_neighbourhood
from .verification import (audit_trace, check_efficient, exhaustive_oracle,
                           oracle_agrees)


def _load_track(source: str):
    """A track argument is a file path or the name of a bundled fixture."""
    p = Path(source)
    if p.exists():
        nb = build_tie_neighbourhood(parse_track(read_text(p)))
        nb.name = p.stem
        return nb
    if source in FIXTURE_NAMES:
        return load_fixture(source)
    raise click.UsageError(
        f"no track file {source!r} (bundled fixtures: {', '.join(FIXTURE_NAMES)})")


def _load_curve(path: str, nb):
    p = Path(path)
    if not p.exists():
        raise click.UsageError(f"no curve file {path!r}")
    return parse_curve(read_text(p), nb)


@click.group()
def cli() -> None:
    """Curves on surfaces as snippet decompositions over a train track."""


@cli.command()
@click.argument("track")
def validate(track: str) -> int:
    """Parse and build a track; print its invariants."""
    nb = _load_track(track)
    kinds = {}
    for r in nb.regions:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    click.echo(f"track {nb.name}: valid")
    click.echo("regions: " + ", ".join(
        f"{v} {k}" for k, v in sorted(kinds.items())))
    click.echo(f"size s_N: {nb.s_N}")
    click.echo(f"boundary components: {len(nb.boundary_components)}")
    return 0


@cli.command("classify")
@click.argument("track")
@click.argument("curve")
def classify_cmd(track: str, curve: str) -> int:
    """Classify every snippet of a curve."""
    nb = _load_track(track)
    c = _load_curve(curve, nb)
    for i, s in enumerate(c.snippets):
        cls = classify(s, nb)
        what = cls.type if cls.bad else cls.verdict
        extra = f" turn={cls.turn}" if cls.turn else ""
        wind = f" wind={s.wind:+d}" if s.wind else ""
        click.echo(f"{i:4d} {nb.regions[s.region].name:>10}"
                   f" {str(s.start):>8}->{str(s.end):<8}{wind:<9}"
                   f" {what}{extra}")
    m = measure(c, nb)
    click.echo(f"len={m.len} len_corn={m.len_corn} len_block={m.len_block}"
               f" len_red={m.len_red} carr={m.carr} dual_R={m.dual_R}"
               f" dual_L={m.dual_L} bad={m.bad_count}")
    return 0


@cli.command()
@click.argument("track")
@click.argument("curve")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="write the rewrite trace here")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write the terminal curve here")
@click.option("--max-steps", type=click.IntRange(min=0), default=None,
              help="override the global rewrite budget")
def run(track: str, curve: str, trace_path: str | None,
        out_path: str | None, max_steps: int | None) -> int:
    """Homotope a curve into efficient position."""
    nb = _load_track(track)
    c = _load_curve(curve, nb)
    res = efficient_position(c, nb, max_homs=max_steps)
    info = terminal_summary(res, nb)
    click.echo(f"status: {res.status}")
    click.echo(f"class: {info['class']}")
    if info["class"] == "peripheral":
        click.echo(f"boundary: {info['boundary']}")
        click.echo(f"power: {info['power']}")
    click.echo(f"pushes: {res.homs}")
    r = res.report
    click.echo(f"final: len={r.len} len_corn={r.len_corn}"
               f" len_red={r.len_red} bad={r.bad_count}")
    if trace_path:
        Path(trace_path).write_text(serialize_trace(
            res.events, track=nb.name, status=res.status))
    if out_path:
        Path(out_path).write_text(serialize_curve(res.curve, nb))
    return 2 if res.status == SINGLE_SNIPPET else 0


@cli.command()
@click.argument("track")
@click.argument("curve_before")
@click.argument("curve_after")
@click.option("--trace", "trace_path", type=click.Path(), required=True,
              help="the recorded trace to audit")
def verify(track: str, curve_before: str, curve_after: str,
           trace_path: str) -> int:
    """Replay a trace and verify every recorded contract."""
    nb = _load_track(track)
    before = _load_curve(curve_before, nb)
    after = _load_curve(curve_after, nb)
    p = Path(trace_path)
    if not p.exists():
        raise click.UsageError(f"no trace file {trace_path!r}")
    head, events = parse_trace(read_text(p))
    named = head.get("track", nb.name)
    if named != nb.name:
        click.echo(f"FAIL: trace is for track {named!r}, not {nb.name!r}",
                   err=True)
        return 1
    try:
        rep = audit_trace(events, before, after, nb)
    except AuditFailure as exc:
        click.echo(f"FAIL: {exc}", err=True)
        return 1
    # the audit has matched the replayed terminal curve to `after`
    claimed, status = head.get("status"), terminal_status(after, nb)
    if status is None or claimed != status:
        click.echo(f"FAIL: trace claims status {claimed!r}; the final"
                   f" curve's terminal state is {status!r}", err=True)
        return 1
    if claimed == EFFICIENT and not check_efficient(after, nb).ok:
        click.echo("FAIL: trace claims Efficient but the final curve has a"
                   " bad snippet", err=True)
        return 1
    click.echo(f"PASS: {rep.events} events, {rep.checks} checks")
    return 0


@cli.command()
@click.argument("track")
@click.argument("curve")
@click.option("--cap", type=click.IntRange(min=1), default=50_000,
              help="state-space cap for the search")
def oracle(track: str, curve: str, cap: int) -> int:
    """Exhaustively search all pushes of a small curve and compare with the
    pipeline's verdict."""
    nb = _load_track(track)
    c = _load_curve(curve, nb)
    v = exhaustive_oracle(c, nb, cap_states=cap)
    res = efficient_position(c, nb)
    click.echo(f"oracle: conclusive={v.conclusive}"
               f" efficient_reachable={v.efficient_reachable}"
               f" single_reachable={v.single_reachable} states={v.states}")
    if not v.conclusive:
        click.echo(f"inconclusive: {v.reason}", err=True)
        return 1
    agree = oracle_agrees(v, res.status)
    click.echo(f"pipeline: {res.status}")
    click.echo(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


@cli.command()
@click.argument("track")
@click.option("--len", "target_len", type=click.IntRange(min=1),
              required=True, help="target snippet length")
@click.option("--seed", type=int, default=0, help="base random seed")
@click.option("--count", type=int, default=1, help="how many curves")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="directory for the curve files (required for --count > 1)")
def gen(track: str, target_len: int, seed: int, count: int,
        out_dir: str | None) -> int:
    """Generate seeded random closed curves."""
    nb = _load_track(track)
    if count < 1:
        raise click.UsageError("--count must be >= 1")
    if count > 1 and not out_dir:
        raise click.UsageError("--count > 1 needs --out DIR")
    if out_dir:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            c = gen_random_curve(nb, target_len, seed + i)
            path = d / f"{nb.name}-L{target_len}-s{seed + i}.curve"
            path.write_text(serialize_curve(c, nb))
            click.echo(str(path))
    else:
        click.echo(serialize_curve(nb=nb, curve=gen_random_curve(
            nb, target_len, seed)), nl=False)
    return 0


@cli.command()
@click.argument("track")
@click.option("--batch", "batch_dir", type=click.Path(), required=True,
              help="directory of .curve files to run")
def stats(track: str, batch_dir: str) -> int:
    """Run a batch and report step counts and the fitted length exponent."""
    nb = _load_track(track)
    d = Path(batch_dir)
    if not d.is_dir():
        raise click.UsageError(f"{batch_dir!r} is not a directory")
    files = sorted(d.glob("*.curve"))
    if not files:
        raise click.UsageError(f"no .curve files in {batch_dir!r}")
    rows = []
    for f in files:
        c = parse_curve(read_text(f), nb)
        n0 = len(c.snippets)
        res = efficient_position(c, nb)
        rows.append((f.name, n0, res.homs, res.status,
                     proven_push_bound(nb, n0)))
        click.echo(f"{f.name}\tlen={n0}\tpushes={res.homs}\t{res.status}")
    click.echo(f"curves: {len(rows)}")
    click.echo(f"max pushes: {max(r[2] for r in rows)}")
    over = [r for r in rows if r[2] > r[4]]
    click.echo(f"within budget: {len(rows) - len(over)}/{len(rows)}")
    pts = [(r[1], r[2]) for r in rows if r[1] >= 2 and r[2] >= 1]
    if len(pts) >= 2 and len({p[0] for p in pts}) >= 2:
        exponent = statistics.linear_regression(
            [math.log(p[0]) for p in pts],
            [math.log(p[1]) for p in pts]).slope
        click.echo(f"fitted exponent: {exponent:.3f}")
    else:
        click.echo("fitted exponent: n/a (need spread in lengths)")
    return 1 if over else 0


@cli.command()
@click.argument("track")
@click.argument("curve", required=False)
@click.option("--svg", "svg_path", type=click.Path(), required=True,
              help="output SVG file")
def render(track: str, curve: str | None, svg_path: str) -> int:
    """Draw the neighbourhood (and a curve) as a schematic SVG."""
    nb = _load_track(track)
    c = _load_curve(curve, nb) if curve else None
    Path(svg_path).write_text(render_svg(nb, c))
    click.echo(svg_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code protocol."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return 64
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 130
    except (TrackformError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
