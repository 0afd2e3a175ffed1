"""Hypothesis properties of the clip and the split.

Every draw is a hull of n+1 to n+6 points, n in {2, 3, 4}, with
coordinates k/1000 in [-1, 1], and a plane with a normal of coordinates
k/1000 and its offset at a fraction 0.05-0.95 of the range the hull's
vertices take along it.  Grid coordinates keep every draw exact to
print and small to shrink.  The runs are derandomized, keep no example
database and have a fixed budget, so every run draws the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachctl import geometry as geo

EXAMPLES = 300
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=EXAMPLES)

grid = st.integers(-1000, 1000).map(lambda k: k / 1000)


@st.composite
def crossed_hulls(draw):
    """A full-dimensional hull and a plane through its interior."""
    n = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(n + 1, n + 6))
    pts = np.array(draw(st.lists(st.lists(grid, min_size=n, max_size=n),
                                 min_size=k, max_size=k)))
    assume(geo.affine_dimension(pts) == n)
    p = geo.convex_hull(pts)
    normal = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
    assume(np.linalg.norm(normal) > 0)
    vals = p.vertices @ normal
    frac = draw(st.floats(0.05, 0.95))
    return p, geo.Hyperplane(normal, vals.min() + frac * (vals.max() - vals.min()))


def same_polytope(a: geo.Polytope, b: geo.Polytope) -> bool:
    """Equal vertices, facet rows, incidence and dimension, bit for bit."""
    return (a.dim == b.dim and np.array_equal(a.vertices, b.vertices)
            and all(np.array_equal(x, y) for x, y in zip(a.rows, b.rows))
            and np.array_equal(a.incidence, b.incidence))


@PROPERTY
@given(crossed_hulls())
def test_each_clip_is_its_half_of_the_split(drawn):
    """A margin cut keeps one clip where it once kept one half of a split:
    the two are the same polytope."""
    p, plane = drawn
    lower, upper = geo.split_by_hyperplane(p, plane)
    assume(not lower.is_empty and not upper.is_empty)
    assert same_polytope(geo.clip_to_halfspace(p, plane.lower()), lower)
    assert same_polytope(geo.clip_to_halfspace(p, plane.upper()), upper)


@PROPERTY
@given(crossed_hulls())
def test_the_halves_of_a_split_fill_the_polytope(drawn):
    """Away from the vertices, where no crossing point merges with one,
    the two halves' volumes add up to the polytope's."""
    p, plane = drawn
    vals = plane.value(p.vertices)
    assume(np.abs(vals).min() >= 1e-3 * (vals.max() - vals.min()))
    lower, upper = geo.split_by_hyperplane(p, plane)
    assert abs(lower.volume() + upper.volume() - p.volume()) <= 1e-9 * p.volume()
