"""Two facts of the Jacobi set's structure, checked with none of the code
that computes it beyond the set itself and the A regions.

- **Parity.** Around a vertex off the boundary, the effective signs of its
  star form a cycle of +-1 values. A cycle changes sign an even number of
  times, so every such vertex has even degree in the Jacobi graph.
- **Euler.** On a disk-shaped domain, let G be the Jacobi edges plus the
  boundary edges. Two triangles share an A region iff some path of shared
  edges that are not Jacobi edges joins them, so the A regions are the
  faces of G inside the domain: ``len(A regions) == E - V + C`` of G.

The grid fields take their boundary from the grid coordinates, and C
from conftest's BFS. The twin pair is not a disk (two triangles on the
same three vertices), so it runs under parity only.
"""

from collections import Counter

import numpy as np
import pytest

from jacobiset import build_regions, compute_jacobi_set, neighborhood_graph, simplify

from conftest import bfs_edge_components, random_sign_field, twin_pair_field, wave_field

KINDS = ["waves", "noise", "rounded 0.5", "rounded 0.25", "zero disk"]


def random_grid_field(kind, seed):
    """A ``w x h`` grid field of ``kind``, 3 to 29 samples per side."""
    rng = np.random.default_rng([KINDS.index(kind), seed])
    w, h = (int(x) for x in rng.integers(3, 30, size=2))
    if kind == "noise":
        return random_sign_field(rng, w, h), w, h
    step = float(kind.split()[1]) if kind.startswith("rounded") else None
    field = wave_field(rng, w, h, step)
    if kind == "zero disk":
        # A plateau of exactly degenerate triangles with a signed rim.
        centre = rng.uniform(0, (w - 1, h - 1))
        radius = rng.uniform(1.0, 0.4 * max(w, h))
        values = field.values.copy()
        values[np.hypot(*(field.positions - centre).T) <= radius] = 0.0
        field = field.with_values(values)
    return field, w, h


def grid_boundary(w, h):
    """The boundary vertices and edges of a ``w x h`` grid, from its
    coordinates: vertex ``(i, j)`` has id ``j * w + i``."""
    i, j = np.meshgrid(np.arange(w), np.arange(h))
    on_boundary = ((i == 0) | (i == w - 1) | (j == 0) | (j == h - 1)).ravel()
    edges = [(j * w + i, j * w + i + 1) for j in (0, h - 1) for i in range(w - 1)]
    edges += [(j * w + i, (j + 1) * w + i) for i in (0, w - 1) for j in range(h - 1)]
    return on_boundary, edges


def assert_parity(field, js, on_boundary):
    degree = np.bincount(js.edges.ravel(), minlength=field.n_vertices)
    odd = np.flatnonzero((degree % 2 == 1) & ~on_boundary)
    assert odd.tolist() == []


def assert_euler(field, js, boundary_edges):
    graph = {tuple(map(int, e)) for e in js.edges} | set(boundary_edges)
    vertices = {v for e in graph for v in e}
    faces = len(graph) - len(vertices) + bfs_edge_components(sorted(graph))
    assert len(build_regions(field, js.assigned, variant="A")) == faces


def assert_invariants(field, w, h, epsilon):
    js = compute_jacobi_set(field, epsilon)
    on_boundary, boundary_edges = grid_boundary(w, h)
    assert_parity(field, js, on_boundary)
    assert_euler(field, js, boundary_edges)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_parity_and_euler_hold_before_and_after_simplify(kind, seed, epsilon):
    field, w, h = random_grid_field(kind, seed)
    assert_invariants(field, w, h, epsilon)
    variant = "ABCD"[seed % 4]
    _, _, _, graph = neighborhood_graph(field, variant, epsilon)
    simplify(field, variant, float(np.median(graph.hypervolume)), epsilon)
    assert_invariants(field, w, h, epsilon)


def test_parity_holds_on_the_twin_pair(rng):
    field = twin_pair_field()
    field = field.with_values(rng.normal(size=field.values.shape))
    # A vertex is on the boundary if it ends an edge that one triangle
    # holds. Every vertex of the twin pair does, so no degree is checked;
    # the test pins that the check runs on a mesh that is not a disk.
    sides = Counter(
        tuple(sorted((int(a), int(b))))
        for tri in field.triangles
        for a, b in zip(tri, np.roll(tri, -1))
    )
    on_boundary = np.zeros(field.n_vertices, dtype=bool)
    on_boundary[[v for edge, n in sides.items() if n == 1 for v in edge]] = True
    assert_parity(field, compute_jacobi_set(field), on_boundary)
