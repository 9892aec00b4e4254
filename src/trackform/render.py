"""Schematic SVG pictures of a tie neighbourhood and, optionally, a curve.

Documentation artifact only: every region is drawn as its own box (branch
and switch rectangles as rectangles with their tie sides marked, faces as
polygons with their locus rings), and a curve is overlaid as one chord per
snippet from its entry locus to its exit locus, numbered along the curve.
The output is a pure function of the inputs — floats are formatted to one
decimal so repeated runs emit identical bytes.
"""
from __future__ import annotations

import math

from .curve_ops import Curve
from .snippet_core import classify
from .track_model import ANNULUS, BOUNDARY, BRANCH, SWITCH, TieNeighbourhood

_BOX = 180.0
_PAD = 26.0
_PER_ROW = 4


def _fmt(x: float) -> str:
    return f"{x:.1f}"


def _rect_point(region_sides, si: int, gi: int, x0: float, y0: float,
                w: float, h: float) -> tuple[float, float]:
    """Point of locus (si, gi) on a rectangle drawn with side 0 at the
    bottom, going counter-clockwise (1 east, 2 top, 3 west)."""
    n = region_sides[si].n_segments
    t = (gi + 1) / (n + 1)
    if si == 0:
        return x0 + w * t, y0 + h
    if si == 1:
        return x0 + w, y0 + h * (1 - t)
    if si == 2:
        return x0 + w * (1 - t), y0
    return x0, y0 + h * t


class _Layout:
    def __init__(self, nb: TieNeighbourhood) -> None:
        self.nb = nb
        self.origin: dict[int, tuple[float, float]] = {}
        for i in range(len(nb.regions)):
            row, col = divmod(i, _PER_ROW)
            self.origin[i] = (_PAD + col * (_BOX + _PAD),
                              _PAD + row * (_BOX + _PAD))
        rows = (len(nb.regions) + _PER_ROW - 1) // _PER_ROW
        cols = min(len(nb.regions), _PER_ROW)
        self.width = _PAD + cols * (_BOX + _PAD)
        self.height = _PAD + rows * (_BOX + _PAD)

    def point(self, region: int, locus) -> tuple[float, float]:
        nb = self.nb
        x0, y0 = self.origin[region]
        r = nb.regions[region]
        if r.kind in (BRANCH, SWITCH):
            return _rect_point(r.sides, locus[0], locus[1],
                               x0 + 20, y0 + 40, _BOX - 40, _BOX - 80)
        # polygon loci round the face circle; an annulus's boundary locus
        # at the top of the inner (boundary) circle
        pos = nb.locus_position(region, locus)
        cx, cy = x0 + _BOX / 2, y0 + _BOX / 2
        if pos is None:
            radius, ang = _BOX / 2 - 58, -math.pi / 2
        else:
            n = len(nb.polygon_loci(region))
            radius, ang = _BOX / 2 - 28, 2 * math.pi * pos / n - math.pi / 2
        return cx + radius * math.cos(ang), cy + radius * math.sin(ang)


def _region_svg(lay: _Layout, region: int) -> list[str]:
    nb = lay.nb
    r = nb.regions[region]
    x0, y0 = lay.origin[region]
    out = [f'<text x="{_fmt(x0 + 4)}" y="{_fmt(y0 + 14)}" class="name">'
           f'{r.name}</text>']
    if r.kind in (BRANCH, SWITCH):
        out.append(
            f'<rect x="{_fmt(x0 + 20)}" y="{_fmt(y0 + 40)}"'
            f' width="{_fmt(_BOX - 40)}" height="{_fmt(_BOX - 80)}"'
            f' class="{r.kind}"/>')
    else:
        cx, cy = x0 + _BOX / 2, y0 + _BOX / 2
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}"'
                   f' r="{_fmt(_BOX / 2 - 28)}" class="face"/>')
        if r.kind == ANNULUS:
            out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}"'
                       f' r="{_fmt(_BOX / 2 - 58)}" class="boundary"/>')
    for si, side in enumerate(r.sides):
        if side.label == BOUNDARY and r.kind == ANNULUS:
            continue
        for gi in range(side.n_segments):
            px, py = lay.point(region, (si, gi))
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.2"'
                       f' class="locus lab-{side.label}"/>')
    return out


def _curve_svg(lay: _Layout, curve: Curve) -> list[str]:
    nb = lay.nb
    out = []
    for i, s in enumerate(curve.snippets):
        x0, y0 = lay.origin[s.region]
        if s.closed:
            cx, cy = x0 + _BOX / 2, y0 + _BOX / 2
            out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="16.0"'
                       f' class="snippet"/>')
            label_at = (cx + 4, cy - 20)
        else:
            ax, ay = lay.point(s.region, s.start)
            bx, by = lay.point(s.region, s.end)
            cls = classify(s, nb)
            out.append(
                f'<path d="M {_fmt(ax)} {_fmt(ay)} Q'
                f' {_fmt(x0 + _BOX / 2)} {_fmt(y0 + _BOX / 2)}'
                f' {_fmt(bx)} {_fmt(by)}" class="snippet'
                f'{" bad" if cls.bad else ""}"/>')
            label_at = ((ax + bx) / 2, (ay + by) / 2 - 4)
        text = str(i) if not s.wind else f"{i} (w{s.wind:+d})"
        out.append(f'<text x="{_fmt(label_at[0])}" y="{_fmt(label_at[1])}"'
                   f' class="idx">{text}</text>')
    return out


_STYLE = """
  rect.branch { fill: #eef6ff; stroke: #3a6ea5; }
  rect.switch { fill: #fff3e0; stroke: #c77d2e; }
  circle.face { fill: #f4f9f1; stroke: #4a7c52; }
  circle.boundary { fill: none; stroke: #999; stroke-dasharray: 4 3; }
  circle.locus { fill: #555; }
  circle.lab-v { fill: #b03030; }
  path.snippet, circle.snippet { fill: none; stroke: #222; stroke-width: 1.4; }
  path.snippet.bad { stroke: #c02020; stroke-width: 2.0; }
  text.name { font: bold 12px sans-serif; fill: #333; }
  text.idx { font: 10px sans-serif; fill: #666; }
"""


def render_svg(nb: TieNeighbourhood, curve: Curve | None = None) -> str:
    """A standalone SVG document: the region boxes of the neighbourhood,
    with the curve's snippets overlaid as numbered chords when given."""
    lay = _Layout(nb)
    body: list[str] = []
    for region in range(len(nb.regions)):
        body.extend(_region_svg(lay, region))
    if curve is not None:
        body.extend(_curve_svg(lay, curve))
    inner = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg"'
        f' viewBox="0 0 {_fmt(lay.width)} {_fmt(lay.height)}"'
        f' width="{_fmt(lay.width)}" height="{_fmt(lay.height)}">\n'
        f'<style>{_STYLE}</style>\n'
        f'{inner}\n'
        f'</svg>\n'
    )
