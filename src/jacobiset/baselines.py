"""Comparison methods: grid smoothing filters and Loop subdivision.

The binomial filter (``radius``, ``boundary``) and the Gaussian filter
(``sigma``, ``truncation``, ``boundary``) run separably on structured
grids only. The Gaussian kernel's radius is ``ceil(truncation * sigma)``,
at least 1, but an axis of ``n`` samples takes at most radius ``n - 1``,
its grid extent: where ``truncation * sigma`` exceeds it, the kernel is
cut there and the filter warns with a :class:`KernelCutWarning`. An
infinite sigma gives the cut uniform kernel. The binomial radius runs from
1 to ``BINOMIAL_MAX_RADIUS``, and its kernel is never cut.

Loop subdivision refines a triangle mesh 1-to-4 per step; the field values
get the classic subdivision weights while vertex positions use plain
midpoint refinement, which keeps the planar domain outline fixed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fileio import GridField
from .mesh import TriField, _non_manifold, _slot_keys

# np.pad modes: clamp repeats the edge sample, mirror reflects about it.
_BOUNDARY_MODES = {"clamp": "edge", "mirror": "reflect"}

# The most triangles :func:`loop_subdivide` makes. A run of `jacobiset
# compare --methods loop` peaks at 200-220 bytes of resident memory per
# output triangle (numpy 2.4: 595 MiB for 2.86 million triangles, 618 MiB
# for 3.06 million, 1,306 MiB for 6.91 million), so an accepted call stays
# below about 3.5 GB.
LOOP_MAX_TRIANGLES = 16_000_000


# The widest binomial kernel. Its build and its 2r + 1 taps per sample grow
# with the radius, so one option value must not start unbounded work: at
# radius 4096 (standard deviation 45 samples) a 220x110 grid takes about
# a second.
BINOMIAL_MAX_RADIUS = 4096


class KernelCutWarning(UserWarning):
    """A Gaussian kernel was cut at the grid extent of an axis."""


def _binomial_kernel(radius: int) -> np.ndarray:
    # Exact coefficients over the exact 4**radius: every tap is correctly
    # rounded and none overflows.
    row = [1]
    for i in range(2 * radius):
        row.append(row[-1] * (2 * radius - i) // (i + 1))
    scale = 4**radius
    return np.array([c / scale for c in row], dtype=np.float64)


def _gaussian_kernel(sigma: float, truncation: float, max_radius: int) -> np.ndarray:
    """The sampled Gaussian of radius ``ceil(truncation * sigma)``, cut at
    ``max_radius`` with a :class:`KernelCutWarning`."""
    reach = truncation * sigma
    if reach > max_radius >= 1:  # an axis of one sample has no extent to cut
        warnings.warn(
            f"truncation*sigma = {reach:g} exceeds the grid extent {max_radius}; "
            f"the gaussian kernel is cut at radius {max_radius}",
            KernelCutWarning,
        )
    radius = max(math.ceil(min(reach, max_radius)), 1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    # A tiny sigma overflows x / sigma to inf off the centre, where the
    # tap is then exactly 0.
    with np.errstate(over="ignore"):
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


def binomial_filter(grid: GridField, radius: int = 1, boundary: str = "clamp") -> GridField:
    """Separable binomial smoothing; radius 1 is the [1, 2, 1]/4 kernel,
    and ``radius`` may be at most ``BINOMIAL_MAX_RADIUS``."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if radius > BINOMIAL_MAX_RADIUS:
        raise ValueError(f"radius must be <= {BINOMIAL_MAX_RADIUS}")
    k = _binomial_kernel(radius)
    return _smooth(grid, "binomial", boundary, lambda cap: k)


def gaussian_filter(
    grid: GridField, sigma: float, truncation: float = 3.0, boundary: str = "clamp"
) -> GridField:
    """Separable sampled-Gaussian smoothing, truncated at
    ``truncation * sigma`` and cut, with a :class:`KernelCutWarning`, at
    the grid extent of each axis."""
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    if not truncation >= 1:
        raise ValueError("truncation must be >= 1")
    return _smooth(
        grid, "gaussian", boundary, lambda cap: _gaussian_kernel(sigma, truncation, cap)
    )


def _smooth(grid: GridField, method: str, boundary: str, kernel) -> GridField:
    """``grid`` with both components filtered separably: an axis of ``n``
    samples by the kernel ``kernel(n - 1)``."""
    if not isinstance(grid, GridField):
        raise TypeError(f"{method} filter requires a structured grid")
    if boundary not in _BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {sorted(_BOUNDARY_MODES)}")
    mode = _BOUNDARY_MODES[boundary]
    kx, ky = kernel(grid.width - 1), kernel(grid.height - 1)
    f, g = (_separable(c, kx, ky, mode) for c in (grid.f, grid.g))
    return GridField(grid.width, grid.height, grid.dx, grid.dy, f, g)


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
    the 3m edges between midpoints are sorted. A request for more than
    ``LOOP_MAX_TRIANGLES`` output triangles raises ``ValueError`` before
    anything is allocated.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    m = field.n_triangles
    # Past 32 steps any triangle is over the limit; the exact count of a
    # huge step count is not worth forming.
    if m and (steps > 32 or m * 4**steps > LOOP_MAX_TRIANGLES):
        count = f"{m * 4**steps:,}" if steps <= 32 else f"{m:,} x 4**{steps}"
        raise ValueError(
            f"{steps} Loop steps on {m:,} triangles make {count} triangles, "
            f"more than the limit of {LOOP_MAX_TRIANGLES:,}"
        )
    if steps == 0 or m == 0:
        # A step changes nothing on a mesh without triangles.
        return field.copy()
    out = field
    for _ in range(steps):
        out = _loop_once(out)
    return out


def _loop_once(field: TriField) -> TriField:
    # Each stage writes into the child's arrays, and its temporaries go
    # when it returns, so the child's adjacency and construction find
    # little else alive.
    n, n_edges = field.n_vertices, len(field.edges)
    positions = np.empty((n + n_edges, 2))
    values = np.empty((n + n_edges, 2))
    positions[:n] = field.positions
    _edge_vertices(field, positions[n:], values[n:])
    half_order = _old_vertex_values(field, values[:n])
    # Edge slot e of triangle t is edge eid[t, e] of the sorted `edges`.
    eid = np.searchsorted(_slot_keys(field.edges, n)[:, 0], _slot_keys(field.triangles, n))
    triangles = _split(field.triangles, n + eid)
    adjacency = _child_adjacency(field, eid, half_order)
    del eid, half_order  # before the constructor allocates
    return TriField(positions, values, triangles, _adjacency=adjacency)


def _edge_vertices(field: TriField, pos_out, val_out) -> None:
    """Write the midpoint and the Loop value of every edge's new vertex."""
    pos, val = field.positions, field.values
    edges, edge_tris = field.edges, field.edge_triangles
    pos_out[:] = 0.5 * (np.take(pos, edges[:, 0], axis=0) + np.take(pos, edges[:, 1], axis=0))
    a = np.take(val, edges[:, 0], axis=0)
    b = np.take(val, edges[:, 1], axis=0)
    val_out[:] = a + 0.5 * (b - a)
    interior = np.flatnonzero(edge_tris[:, 1] >= 0)
    if len(interior):
        opp = _opposite_vertices(
            field, np.take(edges, interior, axis=0), np.take(edge_tris, interior, axis=0)
        )
        ai = np.take(a, interior, axis=0)
        bi = np.take(b, interior, axis=0)
        c = np.take(val, opp[:, 0], axis=0)
        d = np.take(val, opp[:, 1], axis=0)
        val_out[interior] = ai + 0.375 * (bi - ai) + 0.125 * (c - ai) + 0.125 * (d - ai)


def _old_vertex_values(field: TriField, out):
    """Write the Loop value of every old vertex into ``out``, and return
    the ``half_order`` of :func:`_sorted_neighbors` over all edges."""
    n, edges, val = field.n_vertices, field.edges, field.values
    # Boundary vertices with two boundary neighbors (left = the smaller
    # id) use the boundary mask; pinched boundary vertices and vertices in
    # no triangle keep their value.
    out[:] = val
    b_start, b_deg, b_nbrs, _ = _sorted_neighbors(n, edges[field.edge_triangles[:, 1] < 0])
    rim = np.flatnonzero(b_deg == 2)
    left = val[b_nbrs[b_start[rim]]]
    right = val[b_nbrs[b_start[rim] + 1]]
    out[rim] = val[rim] + 0.125 * (left - val[rim]) + 0.125 * (right - val[rim])

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
    out[inner] = val_inner + beta[:, None] * ring_sum
    return half_order


def _split(tri, mid) -> np.ndarray:
    """The 1-to-4 split of ``tri``, whose edge slot e has its midpoint
    vertex at ``mid[t, e]``: corner child 4t+e is (v_e, m_e, m_{e-1}), and
    the centre child 4t+3 is (m_0, m_1, m_2). Children of a CCW parent are
    CCW because the new vertices are geometric midpoints."""
    children = np.empty((len(tri), 4, 3), dtype=np.int64)
    children[:, :3, 0] = tri
    children[:, :3, 1] = mid
    children[:, :3, 2] = mid[:, [2, 0, 1]]
    children[:, 3] = mid
    return children.reshape(-1, 3)


def _child_adjacency(field: TriField, eid, half_order):
    """``(neighbors, edges, edge_triangles)`` of the 1-to-4 split of
    ``field``, derived from the parent's, in the order a sort would give.

    Edge slot e of parent t runs from a = ``tri[t, e]`` to b, and
    ``eid[t, e]`` is its edge id; ``half_order`` lists the half edges,
    numbered as in :func:`_child_neighbors`, in ascending (vertex, edge id)
    order. The centre child 4t+3 holds the three midpoint edges.
    Raises :class:`~jacobiset.mesh.NonManifoldError` when a midpoint edge
    lies in two parents, which only triangles on the same three vertices
    give. It names the lowest such edge, as a sort of the child's slots
    would: no half edge lies in more than two children.
    """
    m, n, n_edges = field.n_triangles, field.n_vertices, len(field.edges)
    neighbors, half_tris = _child_neighbors(field, eid)

    # Half edges have an old vertex as their lower end, so they come first.
    # Midpoint edge e of t joins the midpoints of parent slots e and e+1,
    # between the centre and the corner child across from it. The sorted
    # keys alone are kept: they hold both ends.
    span = n + n_edges
    keys = _slot_keys(n + eid, span).ravel()
    order = np.argsort(keys)
    keys = keys.take(order)
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        raise _non_manifold(keys[repeated[0]], span)
    n_half = 2 * n_edges
    edge_tris = np.empty((n_half + 3 * m, 2), dtype=np.int64)
    edge_tris[:n_half] = np.take(half_tris.reshape(-1, 2), half_order, axis=0)
    edge_tris[n_half:, 0] = np.take(neighbors[:, 3], order)
    edge_tris[n_half:, 1] = 4 * (order // 3) + 3
    edges = np.empty_like(edge_tris)
    edges[:n_half, 0] = np.repeat(np.arange(n), np.bincount(field.edges.ravel(), minlength=n))
    edges[:n_half, 1] = n + half_order % n_edges
    np.floor_divide(keys, span, out=edges[n_half:, 0])
    np.remainder(keys, span, out=edges[n_half:, 1])
    return neighbors.reshape(-1, 3), edges, edge_tris


def _child_neighbors(field: TriField, eid):
    """The children's neighbours, shape (m, 4, 3), and ``half_tris``.

    Half edge j = side * E + k is the half of parent edge k at its lower
    (side 0) or upper end. Entry 2j + p of ``half_tris`` is its child in
    the lower-id (p = 0) or the higher-id triangle of the parent edge. The
    corner child 4t+e holds the half at a = ``tri[t, e]`` of parent slot
    e, and 4t+(e+1)%3 the half at its other end b.
    """
    tri, nbr = field.triangles, field.neighbors
    m, n_edges = len(tri), len(field.edges)
    base = 4 * np.arange(m)[:, None]
    across = base + [1, 2, 0]
    p = (nbr >= 0) & (nbr < np.arange(m)[:, None])
    descending = tri > tri[:, [1, 2, 0]]
    at_a = 2 * (eid + n_edges * descending) + p
    at_b = 2 * (eid + n_edges * ~descending) + p
    half_tris = np.full(4 * n_edges, -1, dtype=np.int64)
    half_tris[at_a] = base + np.arange(3)
    half_tris[at_b] = across

    # A corner child's slot 0 is the half at a of its parent slot, and its
    # slot 2 the half at b of the slot before. Across each lies the child
    # on the other side of that half edge: entry 2j + 1 - p.
    neighbors = np.empty((m, 4, 3), dtype=np.int64)
    neighbors[:, :3, 0] = half_tris[at_a ^ 1]
    neighbors[:, :3, 1] = base + 3
    neighbors[:, :3, 2] = half_tris[at_b[:, [2, 0, 1]] ^ 1]
    neighbors[:, 3] = across
    return neighbors, half_tris


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
