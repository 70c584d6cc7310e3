"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from jacobiset import TriField, triangulate_structured


def make_field(positions, values, triangles) -> TriField:
    return TriField(positions, values, triangles)


def unit_triangle(values) -> TriField:
    """Single triangle (0,0), (1,0), (0,1) with the given 3x2 values."""
    return TriField([(0, 0), (1, 0), (0, 1)], values, [(0, 1, 2)])


def quad_field(f, g) -> TriField:
    """Unit square split along the diagonal (0,0)-(1,1).

    Vertices run (0,0), (1,0), (1,1), (0,1); triangles (0,1,2), (0,2,3).
    """
    positions = [(0, 0), (1, 0), (1, 1), (0, 1)]
    values = np.column_stack([f, g])
    return TriField(positions, values, [(0, 1, 2), (0, 2, 3)])


def grid_field(w, h, fn_f, fn_g, spacing=(1.0, 1.0)) -> TriField:
    """Structured field with values sampled from two callables of (x, y)."""
    xs = np.arange(w) * spacing[0]
    ys = np.arange(h) * spacing[1]
    xx = np.tile(xs, h)
    yy = np.repeat(ys, w)
    return triangulate_structured(w, h, spacing, fn_f(xx, yy), fn_g(xx, yy))


def random_sign_field(rng, w=6, h=6) -> TriField:
    """Structured field with i.i.d. values: a soup of mixed-sign triangles."""
    n = w * h
    return triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=n), rng.normal(size=n))


def noisy_island_field(rng, w=16, h=16, n_islands=3, amplitude=4.0):
    """Smooth base field (det > 0 everywhere) with impulse perturbations at
    a few interior vertices, creating small negative-orientation islands.

    Returns (field, islands_exist) where islands_exist reports whether the
    perturbation actually produced negative triangles.
    """
    xs = np.arange(w, dtype=float)
    ys = np.arange(h, dtype=float)
    xx = np.tile(xs, h)
    yy = np.repeat(ys, w)
    f = xx + 0.25 * yy
    g = yy - 0.1 * xx
    interior = [
        j * w + i for j in range(2, h - 2) for i in range(2, w - 2)
    ]
    picks = rng.choice(len(interior), size=n_islands, replace=False)
    for p in picks:
        v = interior[p]
        g[v] += amplitude * (1 if rng.random() < 0.5 else -1)
    field = triangulate_structured(w, h, (1.0, 1.0), f, g)
    return field, bool((field.dets < 0).any())


def wave_field(rng, w, h, step=None) -> TriField:
    """Smooth waves plus small noise on a unit grid:
    f = sin x cos y + 0.02 N, g = cos 0.7x + sin 1.3y + 0.02 N, with N
    drawn from ``rng`` as (h, w) arrays, f's first. With ``step``, both
    are rounded to multiples of it, which leaves plateaus of degenerate
    triangles."""
    noise_f = rng.standard_normal((h, w))
    noise_g = rng.standard_normal((h, w))
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    f = np.sin(x) * np.cos(y) + 0.02 * noise_f
    g = np.cos(0.7 * x) + np.sin(1.3 * y) + 0.02 * noise_g
    if step is not None:
        f = np.round(f / step) * step
        g = np.round(g / step) * step
    return triangulate_structured(w, h, (1.0, 1.0), f.ravel(), g.ravel())


# -- independent oracles -----------------------------------------------------


def shoelace(points) -> float:
    """Signed polygon area via the shoelace sum (independent formula)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def bfs_edge_components(edges) -> int:
    """Connected components of an edge list where edges sharing a vertex
    are connected: plain BFS over a vertex adjacency dict."""
    edges = [tuple(map(int, e)) for e in edges]
    if not edges:
        return 0
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    components = 0
    for start in sorted(adj):
        if start in seen:
            continue
        components += 1
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return components


def bfs_region_labels(field, eff, variant="A", nbr_sums=None) -> np.ndarray:
    """Region labels from a BFS with the same merge predicates but none of
    the program's connectivity code."""
    m = field.n_triangles
    adjacency = [set() for _ in range(m)]
    for t in range(m):
        for n in field.neighbors[t]:
            if n >= 0 and eff[t] == eff[n]:
                adjacency[t].add(int(n))
                adjacency[int(n)].add(t)
    if variant in ("B", "C"):
        wanted = -1 if variant == "B" else 1
        for star in field.vertex_stars:
            members = [int(t) for t in star if eff[t] == wanted]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    adjacency[members[i]].add(members[j])
                    adjacency[members[j]].add(members[i])
    elif variant == "D":
        for star in field.vertex_stars:
            for i in range(len(star)):
                for j in range(i + 1, len(star)):
                    a, b = int(star[i]), int(star[j])
                    if eff[a] == eff[b] and nbr_sums[a] == nbr_sums[b]:
                        adjacency[a].add(b)
                        adjacency[b].add(a)
    return bfs_labels(adjacency)


def bfs_labels(adjacency) -> np.ndarray:
    """Component labels numbered by first occurrence, by BFS over a list
    of neighbor sets."""
    m = len(adjacency)
    labels = np.full(m, -1, dtype=np.int64)
    next_label = 0
    for start in range(m):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adjacency[v]:
                if labels[u] < 0:
                    labels[u] = next_label
                    queue.append(u)
        next_label += 1
    return labels


def point_neighbor_sum_oracle(field, eff) -> np.ndarray:
    """Per-triangle sum of effective signs over vertex-sharing triangles,
    computed by brute-force set construction."""
    m = field.n_triangles
    out = np.zeros(m, dtype=np.int64)
    for t in range(m):
        nbrs = set()
        for v in field.triangles[t]:
            nbrs.update(int(x) for x in field.vertex_stars[v])
        nbrs.discard(t)
        out[t] = sum(int(eff[u]) for u in nbrs)
    return out


def ring_assignment_oracle(field, signs, prefer=None) -> dict:
    """Degenerate-sign assignment by a per-triangle search: grow the point
    neighborhood one ring at a time, triangle by triangle, until a ring
    decides (strict majority of the running sum, or with ``prefer`` the
    first ring holding a signed triangle)."""
    out = {}
    for seed in np.flatnonzero(signs == 0):
        seed = int(seed)
        visited = {seed}
        frontier = [seed]
        total = 0
        decided = 1  # fully degenerate component
        while frontier:
            ring = []
            for u in frontier:
                for v in field.point_neighbors(u):
                    v = int(v)
                    if v not in visited:
                        visited.add(v)
                        ring.append(v)
            if not ring:
                break
            if prefer is None:
                total += int(sum(int(signs[v]) for v in ring))
                if total != 0:
                    decided = 1 if total > 0 else -1
                    break
            else:
                ring_signs = {int(signs[v]) for v in ring} - {0}
                if ring_signs:
                    decided = prefer if prefer in ring_signs else -prefer
                    break
            frontier = ring
        out[seed] = decided
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
