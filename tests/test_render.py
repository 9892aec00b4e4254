"""The SVG picture's bytes, pinned per fixture: `render_svg` of the track
alone, of seeded proper arcs (their endpoints lie on the surface boundary),
of a boundary power round each annulus face (a closed snippet) and of a
peripheral bounce round each annulus face.  Each digest is the SHA-256 of
the pictures of one kind, in region order."""
from __future__ import annotations

import hashlib
import random

import pytest

from trackform.fixtures import FIXTURE_NAMES, load_fixture
from trackform.generate import boundary_power, peripheral_bounce, random_arc
from trackform.render import render_svg
from trackform.track_model import ANNULUS

PINNED = {
    "t11": {
        "track": "9b88f9d959ddf19af6bed7b8006ecca89d41bc534d185402635911ef73c6123e",
        "arcs": "0674f30958ba376ae9bd8922d548c2c8b48b7ed55213871326aa72d5986948c4",
        "powers": "f4798f3b3d364dcc9ccda291191c1b60b8fa580af98548455a1a4254262b6212",
        "bounces": "c3dc3747519ef272c8706049304d7ba0875e05704d958091a910052ac08d48a7",
    },
    "t11d": {
        "track": "1d0847e815542c0be09e12b9856b9bd53c9ad1ebf232b4ec6e16508192e80f89",
        "arcs": "4e5245c17c3b2af70d43554be43d3c4197c51e65fba69c0e1a44b065d32a6f3d",
        "powers": "9dd0ef83375acd6615d42099c866aff2cc6d5c10f6f52145e29773586e7cdb98",
        "bounces": "6678c33a81bf1bef9becfdfcbf6d425aeec87553a94451412bcf733578ee69ea",
    },
    "s04": {
        "track": "1b66ff48eb4392b31c2e52aa2011ef492362ef0fa6076a0810011eab535f7c35",
        "arcs": "0171b9a08d22390e7492de6a9f93d9438ebb674160d682bdbcc5071183ef8567",
        "powers": "79569261ba5fab8ced654ebb8747a866548f0806f2448d476253e7a1c6f20c88",
        "bounces": "1983477010d7baff25ad1c7054326dc96c8a4285740489530335cf0649ad1896",
    },
    "s12": {
        "track": "44bd9e2012fc100b1de017285496aeceee46c5aa6a23bc6261f6c64fd75e921d",
        "arcs": "ac4fc2b95d8a23ee628461c9a5f1419befb745171617c4ba5772d133367e7256",
        "powers": "7b7b4b7fd002617980e4b4900d8507546ab06797a9838dc55090cd69a53c7737",
        "bounces": "f4bbf579531058f51a4ab2eb9b99ae3db30566cd480c6c2a712c550ca7cf4217",
    },
}


def _pictures(nb) -> dict[str, list[str]]:
    rng = random.Random(29)
    annuli = [ri for ri, r in enumerate(nb.regions) if r.kind == ANNULUS]
    return {
        "track": [render_svg(nb)],
        "arcs": [render_svg(nb, random_arc(nb, rng, 6, proper=True))
                 for _ in range(4)],
        "powers": [render_svg(nb, boundary_power(nb, ri, 2))
                   for ri in annuli],
        "bounces": [render_svg(nb, peripheral_bounce(nb, ri, -1))
                    for ri in annuli],
    }


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_render_svg_bytes_are_pinned(fixture):
    nb = load_fixture(fixture)
    digests = {}
    for kind, svgs in _pictures(nb).items():
        assert svgs, kind
        h = hashlib.sha256()
        for svg in svgs:
            h.update(svg.encode())
        digests[kind] = h.hexdigest()
    assert digests == PINNED[fixture]
