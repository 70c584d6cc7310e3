"""Derived adjacency on random small grids: the closed form of
``triangulate_structured`` and the child arrays of Loop subdivision must
equal, bit for bit, what the sorting constructor finds."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jacobiset import loop_subdivide, triangulate_structured

from conftest import assert_same_topology, grid_triangles


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(2, 7),
    h=st.integers(2, 7),
    sx=st.sampled_from([1.0, -1.0]),
    sy=st.sampled_from([1.0, -1.0]),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_and_loop_adjacency_match_the_sorting_constructor(w, h, sx, sy, steps, seed):
    rng = np.random.default_rng(seed)
    grid = triangulate_structured(
        w, h, (0.5 * sx, 0.75 * sy), rng.normal(size=w * h), rng.normal(size=w * h)
    )
    assert_same_topology(grid, grid_triangles(w, h))
    assert_same_topology(loop_subdivide(grid, steps))
