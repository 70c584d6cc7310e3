"""Derived adjacency and vertex order on random small grids.

The closed form of ``triangulate_structured`` and the child arrays of Loop
subdivision must equal, bit for bit, what the sorting constructor finds.
And the combinatorial stages must not depend on the order in which a
triangle lists its vertices: the same grid built through the sorting
constructor from rotated and reversed vertex lists gives the same signs,
Jacobi set, regions and graph."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jacobiset import (
    TriField,
    build_graph,
    build_regions,
    compute_jacobi_set,
    loop_subdivide,
    orientation_signs,
    triangulate_structured,
)

from conftest import assert_same_topology, bits, grid_triangles


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


@settings(max_examples=80, deadline=None)
@given(
    w=st.integers(2, 8),
    h=st.integers(2, 8),
    dx=st.sampled_from([0.25, 0.5, 1.0, -0.5]),
    dy=st.sampled_from([0.25, 0.5, 2.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vertex_order_does_not_change_signs_jacobi_set_or_regions(w, h, dx, dy, seed):
    # Dyadic spacings and small-integer values keep every product of the
    # determinant exact, so any difference below comes from the order of
    # the vertex slots, not from rounding. A constant rectangle adds a
    # plateau of degenerate triangles, which the ring search must decide.
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=(h, w, 2)).astype(np.float64)
    j0, i0 = rng.integers(0, h), rng.integers(0, w)
    j1, i1 = rng.integers(j0, h) + 1, rng.integers(i0, w) + 1
    values[j0:j1, i0:i1] = rng.integers(-2, 3, size=2)
    grid = triangulate_structured(
        w, h, (dx, dy), values[..., 0].ravel(), values[..., 1].ravel()
    )

    # Rotate each vertex list by 0-2 slots, and reverse some of them.
    tris = grid_triangles(w, h)
    rows = np.arange(len(tris))[:, None]
    tris = tris[rows, (np.arange(3) + rng.integers(0, 3, size=(len(tris), 1))) % 3]
    reverse = rng.random(len(tris)) < 0.5
    tris[reverse] = tris[reverse, ::-1]
    shuffled = TriField(grid.positions, grid.values, tris)

    assert np.array_equal(orientation_signs(shuffled), orientation_signs(grid))
    js, js_grid = compute_jacobi_set(shuffled), compute_jacobi_set(grid)
    assert np.array_equal(js.assigned, js_grid.assigned)
    assert np.array_equal(js.edges, js_grid.edges)
    for variant in "ABCD":
        regs = build_regions(shuffled, js.assigned, variant=variant)
        regs_grid = build_regions(grid, js_grid.assigned, variant=variant)
        assert np.array_equal(regs.label, regs_grid.label), variant
        graph, graph_grid = build_graph(shuffled, regs), build_graph(grid, regs_grid)
        assert np.array_equal(graph.sign, graph_grid.sign), variant
        assert np.array_equal(graph.triangle_count, graph_grid.triangle_count), variant
        for name in ("domain_area", "range_area", "hypervolume"):
            a, b = getattr(graph, name), getattr(graph_grid, name)
            assert np.array_equal(bits(a), bits(b)), (variant, name)
        assert graph.edges == graph_grid.edges, variant
