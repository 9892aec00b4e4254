"""Seeded generators for immersed curves and arcs on a tie neighbourhood.

The random walks step through the gluing: each snippet ends on a glued edge
segment, whose partner fixes the start of the next snippet.  Exits and
windings are drawn from a caller-supplied ``random.Random``, so every
generator is deterministic in the seed.

Besides the uniform walks there are builders for inputs with a known
homotopy class: single closed snippets (inessential loops), boundary powers
read off a face winding, bounce representatives of boundary powers, and
doubled-back curves that retrace themselves (null-homotopic by
construction).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .curve_ops import ARC, CLOSED, Curve, reverse, validate_curve
from .errors import BadInput, GenerationFailed
from .snippet_core import Snippet, valid_winds
from .track_model import ANNULUS, Locus, TieNeighbourhood

__all__ = [
    "random_arc",
    "random_closed",
    "trivial_loop",
    "boundary_power",
    "peripheral_bounce",
    "doubled_back",
]

# The most whole turns `_pick_wind` adds to a winding, and the most closing
# steps `random_closed` takes to return to its starting edge.
_SPREAD = 2
_PATIENCE = 256


def _pick_wind(nb: TieNeighbourhood, region: int, start: Locus, end: Locus,
               rng: random.Random) -> int:
    """A valid winding for the snippet, biased towards small magnitudes."""
    probe = Snippet(region, start, end, 0)
    fams = valid_winds(probe, nb)
    if fams is None:
        return 0
    m_r, m_l, n2 = fams
    d = min(rng.randrange(_SPREAD + 1), rng.randrange(_SPREAD + 1))
    if start == end:
        sign = rng.choice((1, -1))
        return sign * d * n2
    if rng.random() < 0.5:
        return m_r + n2 * d
    return -(m_l + n2 * d)


def _step(nb: TieNeighbourhood, region: int, start: Locus,
          rng: random.Random,
          end_pool: Sequence[Locus] | None = None) -> Snippet:
    pool = end_pool or nb.polygon_loci(region)
    end = rng.choice(pool)
    wind = _pick_wind(nb, region, start, end, rng)
    return Snippet(region, start, end, wind)


def random_arc(nb: TieNeighbourhood, rng: random.Random, length: int,
               proper: bool = False) -> Curve:
    """A random arc of the requested snippet length, its endpoints on
    interior tiling edges.  With ``proper=True`` both lie on the surface
    boundary (the track's complement must meet it): after ``length - 1``
    free steps the walk crosses to the nearest face meeting the boundary,
    so the arc can be longer than requested, and ends on its boundary."""
    if length < 1:
        raise BadInput("arc length must be >= 1")
    # each boundary side is one segment
    on_boundary = [(r, (si, 0)) for r, si in nb.boundary_components]
    if proper and not on_boundary:
        raise BadInput("track has no surface boundary inside its faces")
    starts = on_boundary if proper else [
        (r, l) for r in range(len(nb.regions)) for l in nb.polygon_loci(r)]
    region, start = rng.choice(starts)
    hops = _hops_to(nb, nb.component_of) if proper else None
    snippets: list[Snippet] = []
    while len(snippets) < length - 1 or proper and hops[region]:
        pool = None if len(snippets) < length - 1 else [
            l for l in nb.polygon_loci(region)
            if hops[nb.partner(region, l)[0]] < hops[region]]
        s = _step(nb, region, start, rng, end_pool=pool)
        snippets.append(s)
        region, start = nb.partner(s.region, s.end)
    pool = [l for r, l in on_boundary if r == region] if proper else None
    snippets.append(_step(nb, region, start, rng, end_pool=pool))
    arc = Curve(ARC, tuple(snippets))
    validate_curve(arc, nb)
    return arc


def _hops_to(nb: TieNeighbourhood, targets) -> dict[int, int]:
    """Each region's fewest crossings to one of the target regions."""
    hops, queue = dict.fromkeys(targets, 0), list(targets)
    for region in queue:  # breadth first
        for l in nb.polygon_loci(region):
            far = nb.partner(region, l)[0]
            if far not in hops:
                hops[far] = hops[region] + 1
                queue.append(far)
    return hops


def random_closed(nb: TieNeighbourhood, rng: random.Random,
                  length: int) -> Curve:
    """A random closed curve of at least the requested snippet length.

    The walk runs freely for ``length - 1`` steps and then continues until
    it re-enters the region containing the gluing partner of its starting
    locus, where it closes up.  The result is therefore at least ``length``
    snippets long and seldom exactly that: the closing walk adds a few
    snippets whatever the target (a median of one or two on the bundled
    fixtures, up to about twenty on s04), so a short target can come out
    several times longer.
    """
    if length < 2:
        raise BadInput("closed walks need length >= 2")
    starts = [(r, l) for r in range(len(nb.regions))
              for l in nb.polygon_loci(r)]
    region0, start0 = rng.choice(starts)
    back = nb.partner(region0, start0)
    assert back is not None
    close_region, close_locus = back
    region, start = region0, start0
    snippets: list[Snippet] = []
    for _ in range(length - 1):
        s = _step(nb, region, start, rng)
        snippets.append(s)
        region, start = nb.partner(s.region, s.end)
    for _ in range(_PATIENCE):
        if region == close_region:
            break
        pool = nb.polygon_loci(region)
        into_target = [l for l in pool
                       if nb.partner(region, l)[0] == close_region]
        s = _step(nb, region, start, rng, end_pool=into_target or pool)
        snippets.append(s)
        region, start = nb.partner(s.region, s.end)
    else:
        raise GenerationFailed("walk failed to return to its starting edge")
    wind = _pick_wind(nb, region, start, close_locus, rng)
    snippets.append(Snippet(region, start, close_locus, wind))
    curve = Curve(CLOSED, tuple(snippets))
    validate_curve(curve, nb)
    return curve


def trivial_loop(nb: TieNeighbourhood, region: int) -> Curve:
    """The null-homotopic loop contained in one region."""
    loop = Curve(CLOSED, (Snippet(region, None, None, 0),))
    validate_curve(loop, nb)
    return loop


def boundary_power(nb: TieNeighbourhood, region: int, power: int) -> Curve:
    """The closed snippet winding ``power`` times around an annulus face."""
    r = nb.regions[region]
    if r.kind != ANNULUS:
        raise BadInput(f"region {r.name} is not an annulus face")
    n2 = nb.total_corners(region)
    curve = Curve(CLOSED, (Snippet(region, None, None, power * n2),))
    validate_curve(curve, nb)
    return curve


def peripheral_bounce(nb: TieNeighbourhood, region: int, power: int) -> Curve:
    """A two-snippet representative of a boundary power: a same-locus face
    snippet winding ``power`` times around the annulus, bouncing off the
    region behind one of the face's glued edges."""
    if power == 0:
        raise BadInput("power must be nonzero")
    r = nb.regions[region]
    if r.kind != ANNULUS:
        raise BadInput(f"region {r.name} is not an annulus face")
    n2 = nb.total_corners(region)
    locus = nb.polygon_loci(region)[0]
    other_region, other_locus = nb.partner(region, locus)
    curve = Curve(CLOSED, (
        Snippet(region, locus, locus, power * n2),
        Snippet(other_region, other_locus, other_locus, 0),
    ))
    validate_curve(curve, nb)
    return curve


def doubled_back(nb: TieNeighbourhood, rng: random.Random,
                 length: int) -> Curve:
    """A closed curve that walks out and retraces itself — null-homotopic
    by construction.  Snippet length is 2 * length + 2."""
    out = random_arc(nb, rng, length)
    back = reverse(out)
    far_region, far_locus = nb.partner(out.snippets[-1].region,
                                       out.snippets[-1].end)
    home_region, home_locus = nb.partner(out.snippets[0].region,
                                         out.snippets[0].start)
    curve = Curve(CLOSED, (
        *out.snippets,
        Snippet(far_region, far_locus, far_locus, 0),
        *back.snippets,
        Snippet(home_region, home_locus, home_locus, 0),
    ))
    validate_curve(curve, nb)
    return curve


def gen_random_curve(nb: TieNeighbourhood, target_len: int,
                     seed: int) -> Curve:
    """Seeded closed-curve generator: deterministic in (track, target_len,
    seed).  A target of 1 yields a trivial loop in the first region."""
    if target_len < 1:
        raise BadInput("target_len must be >= 1")
    if target_len == 1:
        return trivial_loop(nb, 0)
    return random_closed(nb, random.Random(seed), target_len)
