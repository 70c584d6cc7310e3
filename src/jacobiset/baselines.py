"""Comparison methods: grid smoothing filters and Loop subdivision.

The binomial and Gaussian filters run separably on structured grids only.
Loop subdivision refines a triangle mesh 1-to-4 per step; the field values
get the classic subdivision weights while vertex positions use plain
midpoint refinement, which keeps the planar domain outline fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import GridField
from .mesh import TriField

# np.pad modes: clamp repeats the edge sample, mirror reflects about it.
_BOUNDARY_MODES = {"clamp": "edge", "mirror": "reflect"}


@dataclass
class FilterSpec:
    kind: str = "binomial"
    radius: int = 1
    sigma: float = 1.0
    truncation: float = 3.0
    boundary: str = "clamp"

    def __post_init__(self):
        if self.kind not in ("binomial", "gaussian"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")
        if not self.truncation >= 1:
            raise ValueError("truncation must be >= 1")
        if self.boundary not in _BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {sorted(_BOUNDARY_MODES)}")


def _binomial_kernel(radius: int) -> np.ndarray:
    k = np.array([math.comb(2 * radius, i) for i in range(2 * radius + 1)], dtype=np.float64)
    return k / 4.0**radius


def _gaussian_kernel(sigma: float, truncation: float, max_radius: int) -> np.ndarray:
    radius = min(int(math.ceil(truncation * sigma)), max_radius)
    radius = max(radius, 1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _separable(data: np.ndarray, kx: np.ndarray, ky: np.ndarray, mode: str) -> np.ndarray:
    # Filter relative to the first sample so constant inputs come back
    # bit-identical (the normalized kernel need not sum to exactly 1).
    ref = data[0, 0]
    out = data - ref
    out = _correlate1d(out, ky, 0, mode)
    out = _correlate1d(out, kx, 1, mode)
    return out + ref


def _correlate1d(x: np.ndarray, k: np.ndarray, axis: int, mode: str) -> np.ndarray:
    """Correlate ``x`` with the symmetric kernel ``k`` along ``axis``.

    Bit-identical to ``scipy.ndimage.correlate1d`` with ``nearest`` /
    ``mirror`` boundaries: the centre tap first, then each pair of taps
    summed and scaled, outermost pair first.
    """
    r = len(k) // 2
    n = x.shape[axis]
    widths = [(0, 0)] * x.ndim
    widths[axis] = (r, r)
    padded = np.pad(x, widths, mode=mode)

    def tap(j):
        index = [slice(None)] * x.ndim
        index[axis] = slice(r + j, r + j + n)
        return padded[tuple(index)]

    out = tap(0) * k[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(tap(-j), tap(j), out=pair)
        pair *= k[r - j]
        out += pair
    return out


def binomial_filter(grid: GridField, spec: FilterSpec) -> GridField:
    """Separable binomial smoothing; r=1 is the [1, 2, 1]/4 kernel."""
    if not isinstance(grid, GridField):
        raise TypeError("binomial filter requires a structured grid")
    k = _binomial_kernel(spec.radius)
    mode = _BOUNDARY_MODES[spec.boundary]
    return GridField(
        grid.width,
        grid.height,
        grid.dx,
        grid.dy,
        _separable(grid.f, k, k, mode),
        _separable(grid.g, k, k, mode),
    )


def gaussian_filter(grid: GridField, spec: FilterSpec) -> GridField:
    """Separable sampled-Gaussian smoothing, truncated at
    ``truncation * sigma`` and capped at the grid size."""
    if not isinstance(grid, GridField):
        raise TypeError("gaussian filter requires a structured grid")
    mode = _BOUNDARY_MODES[spec.boundary]
    kx = _gaussian_kernel(spec.sigma, spec.truncation, grid.width - 1)
    ky = _gaussian_kernel(spec.sigma, spec.truncation, grid.height - 1)
    return GridField(
        grid.width,
        grid.height,
        grid.dx,
        grid.dy,
        _separable(grid.f, kx, ky, mode),
        _separable(grid.g, kx, ky, mode),
    )


def loop_subdivide(field: TriField, steps: int) -> TriField:
    """Refine ``steps`` times, splitting every triangle into four.

    New vertices sit at edge midpoints. Values use the Loop masks, written
    in difference form so constant fields are preserved exactly: interior
    edge vertex 3/8 (a+b) + 1/8 (c+d); boundary edge vertex (a+b)/2;
    interior old vertex (1-k*beta) v + beta * sum of ring neighbors with
    beta = (5/8 - (3/8 + cos(2 pi / k)/4)^2) / k; boundary old vertex
    3/4 v + 1/8 (left + right).

    Each step derives the children's neighbours, edges and edge triangles
    from the parent's instead of sorting the 12m child edge slots: only
    the 3m edges between midpoints are sorted.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = field.copy()
    for _ in range(steps):
        out = _loop_once(out)
    return out


def _loop_once(field: TriField) -> TriField:
    n = field.n_vertices
    edges = field.edges
    edge_tris = field.edge_triangles
    boundary_edge = edge_tris[:, 1] < 0

    pos = field.positions
    val = field.values
    new_pos = 0.5 * (np.take(pos, edges[:, 0], axis=0) + np.take(pos, edges[:, 1], axis=0))

    # Edge-vertex values.
    a = np.take(val, edges[:, 0], axis=0)
    b = np.take(val, edges[:, 1], axis=0)
    new_val = a + 0.5 * (b - a)
    interior = np.flatnonzero(~boundary_edge)
    if len(interior):
        opp = _opposite_vertices(
            field, np.take(edges, interior, axis=0), np.take(edge_tris, interior, axis=0)
        )
        ai = np.take(a, interior, axis=0)
        bi = np.take(b, interior, axis=0)
        c = np.take(val, opp[:, 0], axis=0)
        d = np.take(val, opp[:, 1], axis=0)
        new_val[interior] = ai + 0.375 * (bi - ai) + 0.125 * (c - ai) + 0.125 * (d - ai)

    # Old-vertex values. Boundary vertices with two boundary neighbors
    # (left = the smaller id) use the boundary mask; pinched boundary
    # vertices and vertices in no triangle keep their value.
    old_val = val.copy()
    b_start, b_deg, b_nbrs, _ = _sorted_neighbors(n, edges[boundary_edge])
    rim = np.flatnonzero(b_deg == 2)
    left = val[b_nbrs[b_start[rim]]]
    right = val[b_nbrs[b_start[rim] + 1]]
    old_val[rim] = val[rim] + 0.125 * (left - val[rim]) + 0.125 * (right - val[rim])

    # Interior vertices: sum the ring differences one neighbor slot at a
    # time in ascending neighbor order, the order of a sequential sum over
    # the sorted ring. Taken by degree, descending, the vertices that have
    # a given slot are a prefix.
    start, deg, nbrs, half_order = _sorted_neighbors(n, edges)
    inner = np.flatnonzero((b_deg == 0) & (deg > 0))
    inner = inner[np.argsort(-deg[inner], kind="stable")]
    k = deg[inner]
    first = start[inner]
    val_inner = np.take(val, inner, axis=0)
    ring_sum = np.zeros((len(inner), 2))
    for slot in range(int(k.max(initial=0))):
        live = np.count_nonzero(k > slot)
        ring_sum[:live] += np.take(val, nbrs[first[:live] + slot], axis=0) - val_inner[:live]
    degrees, which = np.unique(k, return_inverse=True)
    betas = [
        (0.625 - (0.375 + 0.25 * math.cos(2.0 * math.pi / d)) ** 2) / d
        for d in degrees.tolist()
    ]
    beta = np.array(betas, dtype=np.float64)[which]
    old_val[inner] = val_inner + beta[:, None] * ring_sum

    # 1-to-4 split; children of a CCW parent are CCW because the new
    # vertices are geometric midpoints. Midpoint ids come from the sorted
    # (min, max) keys of `edges`.
    tri = field.triangles
    ends = np.stack([tri, np.roll(tri, -1, axis=1)])
    keys = ends.min(axis=0) * n + ends.max(axis=0)
    eid = np.searchsorted(edges[:, 0] * n + edges[:, 1], keys)
    mid = n + eid
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    out_tris = np.empty((4 * len(tri), 3), dtype=np.int64)
    out_tris[0::4] = np.column_stack([v0, m01, m20])
    out_tris[1::4] = np.column_stack([v1, m12, m01])
    out_tris[2::4] = np.column_stack([v2, m20, m12])
    out_tris[3::4] = np.column_stack([m01, m12, m20])

    return TriField(
        np.vstack([pos, new_pos]),
        np.vstack([old_val, new_val]),
        out_tris,
        _adjacency=_child_adjacency(field, eid, half_order),
    )


def _child_adjacency(field: TriField, eid, half_order):
    """``(neighbors, edges, edge_triangles)`` of the 1-to-4 split of
    ``field``, derived from the parent's, in the order a sort would give.

    Edge slot e of parent t runs from a = ``tri[t, e]`` to b, and
    ``eid[t, e]`` is its edge id; ``half_order`` lists the half edges,
    numbered below, in ascending (vertex, edge id) order. The corner
    child 4t+e holds the half at a and 4t+(e+1)%3 the half at b; the
    centre child 4t+3 holds the three midpoint edges.
    Returns None when a midpoint edge lies in two parents, which only
    triangles on the same three vertices give: then the child is
    non-manifold, and the constructor's sort rejects it.
    """
    tri = field.triangles
    m, n, n_edges = len(tri), field.n_vertices, len(field.edges)
    base = 4 * np.arange(m)[:, None]
    corner = base + np.arange(3)
    across = base + [1, 2, 0]
    # Half edge j = side * E + k is the half of parent edge k at its lower
    # (side 0) or upper end. Entry 2j + p of `half_tris` is its child in
    # the lower-id (p = 0) or the higher-id triangle of the parent edge.
    nbr = field.neighbors
    p = (nbr >= 0) & (nbr < np.arange(m)[:, None])
    descending = tri > tri[:, [1, 2, 0]]
    at_a = 2 * (eid + n_edges * descending) + p
    at_b = 2 * (eid + n_edges * ~descending) + p
    half_tris = np.full(4 * n_edges, -1, dtype=np.int64)
    half_tris[at_a] = corner
    half_tris[at_b] = across

    # A corner child's slot 0 is the half at a of its parent slot, and its
    # slot 2 the half at b of the slot before. Across each lies the child
    # on the other side of that half edge: entry 2j + 1 - p.
    neighbors = np.empty((m, 4, 3), dtype=np.int64)
    neighbors[:, :3, 0] = half_tris[at_a ^ 1]
    neighbors[:, :3, 1] = base + 3
    neighbors[:, :3, 2] = half_tris[at_b[:, [2, 0, 1]] ^ 1]
    neighbors[:, 3] = across

    # Half edges have an old vertex as their lower end, so they come first.
    # Midpoint edge e of t joins the midpoints of parent slots e and e+1,
    # between the centre and the corner child across from it.
    mid = n + eid
    mid_next = mid[:, [1, 2, 0]]
    lo = np.minimum(mid, mid_next).ravel()
    hi = np.maximum(mid, mid_next).ravel()
    keys = lo * (n + n_edges) + hi
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        return None
    n_half = 2 * n_edges
    edges = np.empty((n_half + 3 * m, 2), dtype=np.int64)
    edges[:n_half, 0] = np.repeat(np.arange(n), np.bincount(field.edges.ravel(), minlength=n))
    edges[:n_half, 1] = n + half_order % n_edges
    edges[n_half:, 0] = lo[order]
    edges[n_half:, 1] = hi[order]
    edge_tris = np.empty_like(edges)
    edge_tris[:n_half] = np.take(half_tris.reshape(-1, 2), half_order, axis=0)
    edge_tris[n_half:, 0] = across.ravel()[order]
    edge_tris[n_half:, 1] = 4 * (order // 3) + 3
    return neighbors.reshape(-1, 3), edges, edge_tris


def _sorted_neighbors(n: int, edges: np.ndarray):
    """Per-vertex neighbor lists of an edge list sorted by ``(min, max)``,
    in CSR form: vertex ``v`` has ``deg[v]`` neighbors, ascending, at
    ``nbrs[start[v]:]``. The last array gives each entry's index in
    ``edges.T.ravel()``: ``side * E + k`` for the end ``side`` of edge
    ``k``; listed upper ends first, a stable sort by vertex sorts them."""
    src = edges.T.ravel()
    # Position p of the sort key is entry (p + E) % 2E; `src[p]` is its neighbor.
    by_vertex = np.argsort(np.concatenate([edges[:, 1], edges[:, 0]]), kind="stable")
    entry = np.roll(np.arange(2 * len(edges)), -len(edges))
    deg = np.bincount(src, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=start[1:])
    return start, deg, np.take(src, by_vertex), np.take(entry, by_vertex)


def _opposite_vertices(field, edges, edge_tris):
    """For interior edges, the third vertex of each adjacent triangle."""
    tri_sums = field.triangles.sum(axis=1)
    ab = (edges[:, 0] + edges[:, 1])[:, None]
    return tri_sums[edge_tris] - ab
