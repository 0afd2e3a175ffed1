"""Golden controllers of the fixtures: piece count and order, and per
piece its exit facet, cover rank, path length, sub-rank, region vertices
and law.  The integers must match exactly; vertices and laws are stored
with ``float.hex`` and must match within 1e-12 relative to the largest
entry.  A change meant to alter these controllers regenerates the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from reachctl import synth

from helpers import (box4d_fixture, box_fixture, cube_fixture,
                     pinned_corner_fixture, tet_cover_f_fixture, wedge_fixture)

GOLDEN = Path(__file__).with_name("golden_controllers.json")
# fixture and the margin it is synthesized with
FIXTURES = {
    "box": (box_fixture, None),
    "wedge": (wedge_fixture, 0.1),
    "pinned": (pinned_corner_fixture, None),
    "cube": (cube_fixture, None),
    "box4d": (box4d_fixture, None),
    "tet_cover_F": (tet_cover_f_fixture, None),
}
FLOATS = ("vertices", "law")


def _hex(a: np.ndarray) -> list[str]:
    """One string of ``float.hex`` entries per row."""
    return [" ".join(float(x).hex() for x in row) for row in a]


def _unhex(rows: list[str]) -> np.ndarray:
    return np.array([[float.fromhex(x) for x in row.split()] for row in rows])


def controller_record(name: str) -> list[dict]:
    fixture, eps = FIXTURES[name]
    sys, p, f = fixture()
    ctrl = synth.synth_polytope(sys, p, f, eps=eps)
    return [{"exit_facet": pc.exit_facet, "rank": list(pc.rank), "path_len": pc.path_len,
             "sub_rank": pc.sub_rank, "vertices": _hex(pc.region.vertices), "law": _hex(pc.law)}
            for pc in ctrl.pieces]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_controller_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = controller_record(name)
    assert [{k: v for k, v in pc.items() if k not in FLOATS} for pc in got] == \
        [{k: v for k, v in pc.items() if k not in FLOATS} for pc in want]
    for g, w in zip(got, want):
        for key in FLOATS:
            a, b = _unhex(g[key]), _unhex(w[key])
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), (name, key)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: controller_record(name) for name in FIXTURES},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
