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
from scipy.ndimage import correlate1d

from .fileio import GridField
from .mesh import TriField

_BOUNDARY_MODES = {"clamp": "nearest", "mirror": "mirror"}


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
    out = correlate1d(out, ky, axis=0, mode=mode)
    out = correlate1d(out, kx, axis=1, mode=mode)
    return out + ref


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
    new_pos = 0.5 * (pos[edges[:, 0]] + pos[edges[:, 1]])

    # Edge-vertex values.
    a = val[edges[:, 0]]
    b = val[edges[:, 1]]
    new_val = a + 0.5 * (b - a)
    interior = ~boundary_edge
    if interior.any():
        opp = _opposite_vertices(field, edges[interior], edge_tris[interior])
        ai = val[edges[interior, 0]]
        bi = val[edges[interior, 1]]
        c = val[opp[:, 0]]
        d = val[opp[:, 1]]
        new_val[interior] = ai + 0.375 * (bi - ai) + 0.125 * (c - ai) + 0.125 * (d - ai)

    # Old-vertex values. Boundary vertices with two boundary neighbors
    # (left = the smaller id) use the boundary mask; pinched boundary
    # vertices and vertices in no triangle keep their value.
    old_val = val.copy()
    b_start, b_deg, b_nbrs = _sorted_neighbors(n, edges[boundary_edge])
    rim = np.flatnonzero(b_deg == 2)
    left = val[b_nbrs[b_start[rim]]]
    right = val[b_nbrs[b_start[rim] + 1]]
    old_val[rim] = val[rim] + 0.125 * (left - val[rim]) + 0.125 * (right - val[rim])

    # Interior vertices: sum the ring differences one neighbor slot at a
    # time in ascending neighbor order, the order of a sequential sum over
    # the sorted ring.
    start, deg, nbrs = _sorted_neighbors(n, edges)
    inner = np.flatnonzero((b_deg == 0) & (deg > 0))
    k = deg[inner]
    ring_sum = np.zeros((len(inner), 2))
    for slot in range(int(k.max(initial=0))):
        live = np.flatnonzero(k > slot)
        v = inner[live]
        ring_sum[live] += val[nbrs[start[v] + slot]] - val[v]
    degrees, which = np.unique(k, return_inverse=True)
    betas = [
        (0.625 - (0.375 + 0.25 * math.cos(2.0 * math.pi / d)) ** 2) / d
        for d in degrees.tolist()
    ]
    beta = np.array(betas, dtype=np.float64)[which]
    old_val[inner] = val[inner] + beta[:, None] * ring_sum

    # 1-to-4 split; children of a CCW parent are CCW because the new
    # vertices are geometric midpoints. Midpoint ids come from the sorted
    # (min, max) keys of `edges`.
    tri = field.triangles
    ends = np.stack([tri, np.roll(tri, -1, axis=1)])
    keys = ends.min(axis=0) * n + ends.max(axis=0)
    mid = n + np.searchsorted(edges[:, 0] * n + edges[:, 1], keys)
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    out_tris = np.empty((4 * len(tri), 3), dtype=np.int64)
    out_tris[0::4] = np.column_stack([v0, m01, m20])
    out_tris[1::4] = np.column_stack([v1, m12, m01])
    out_tris[2::4] = np.column_stack([v2, m20, m12])
    out_tris[3::4] = np.column_stack([m01, m12, m20])

    return TriField(
        np.vstack([pos, new_pos]), np.vstack([old_val, new_val]), out_tris
    )


def _sorted_neighbors(n: int, edges: np.ndarray):
    """Per-vertex neighbor lists of an edge list in CSR form: vertex ``v``
    has ``deg[v]`` neighbors, ascending, at ``nbrs[start[v]:]``."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src * n + dst)
    deg = np.bincount(src, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=start[1:])
    return start, deg, dst[order]


def _opposite_vertices(field, edges, edge_tris):
    """For interior edges, the third vertex of each adjacent triangle."""
    tri_sums = field.triangles.sum(axis=1)
    ab = (edges[:, 0] + edges[:, 1])[:, None]
    return tri_sums[edge_tris] - ab
