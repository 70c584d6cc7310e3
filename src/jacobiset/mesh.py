"""Triangle meshes carrying a bivariate scalar field.

A :class:`TriField` stores a 2D triangulation together with two scalar
values ``(f, g)`` per vertex, interpolated linearly inside each triangle.
Construction validates the mesh: triangle winding is normalized to
counter-clockwise, zero-area triangles are rejected, and every edge may be
shared by at most two triangles (manifold with boundary).

The adjacency arrays (``neighbors``, ``edges``, ``edge_triangles``) of a
triangle list, such as one read from a BSF file, are found by sorting its
3m edge keys. The two builders that know their mesh's structure derive
them instead:
:func:`triangulate_structured` in closed form from the grid, and Loop
subdivision (:func:`jacobiset.baselines.loop_subdivide`) from the parent
mesh. Both still construct through ``TriField.__init__``, which validates
their positions, values and triangles as it does any other input.

Vertex values are the only mutable state; positions and connectivity are
fixed after construction and read-only, so fields that differ only in
their values can share them (:meth:`TriField.with_values`).

The kernels gather with ``ndarray.take`` (``axis=0`` for rows) and select
with ``np.compress``, not fancy or boolean indexing: the arrays are the
same, and on numpy 2.4 a (47742, 3) row gather from (24200, 2) positions
takes 0.22 ms against 2.1 ms, a boolean selection 0.12 against 0.64 ms.
An index of -1 (no neighbour) reads the last element; callers mask it.

A whole-mesh computation holds little more than its inputs and outputs.
It gathers one coordinate column at a time and works in place
(:func:`_mesh_cross`) rather than gathering an (m, 3, 2) array and
forming full-size temporaries; a builder writes into the arrays it hands
to the constructor, which keeps them; and each stage's temporaries go
before the next stage allocates. One Loop step of a 220x110 grid and its
first ``dets`` then peak at 1.34 times the child's array bytes
(``tracemalloc``), against 2.7 when every temporary lived to the end.
"""

from __future__ import annotations

import numpy as np


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class NonManifoldError(MeshError):
    """An edge is shared by more than two triangles."""


class DegenerateTriangleError(MeshError):
    """A triangle has repeated vertices or zero domain area."""


class TriField:
    """Triangulated 2D domain with values (f, g) at every vertex.

    Parameters
    ----------
    positions : array_like, shape (n, 2)
        Vertex coordinates in the domain.
    values : array_like, shape (n, 2)
        Per-vertex field samples, column 0 = f, column 1 = g.
    triangles : array_like, shape (m, 3)
        Vertex indices. Winding is normalized to counter-clockwise;
        triangles with zero signed area are rejected.

    Attributes
    ----------
    domain_areas : ndarray, shape (m,)
        Domain area of every triangle.
    neighbors : ndarray, shape (m, 3)
        ``neighbors[t, e]`` is the triangle across edge ``e`` of ``t``
        (edge ``e`` joins local vertices ``e`` and ``(e+1) % 3``), or -1
        on the domain boundary.
    edges : ndarray, shape (E, 2)
        Every mesh edge once as ``(min, max)`` vertex ids, sorted by
        ``(min, max)`` ascending, so that a subset taken by a mask stays
        sorted and an edge can be found by ``searchsorted``.
    edge_triangles : ndarray, shape (E, 2)
        The triangles on each side of ``edges[i]``, ascending; the second
        is -1 on the domain boundary.
    stars : (ndarray, ndarray)
        Vertex stars in CSR form (built on first use): the triangles
        incident to vertex ``v`` are
        ``star_tids[star_offsets[v]:star_offsets[v + 1]]``, ascending.

    Every array but ``values`` is read-only.

    The constructor checks that positions and values are finite, indices
    in range, no triangle repeats a vertex and none has zero area, and it
    makes every winding counter-clockwise. The adjacency arrays come from
    sorting the edges, which also rejects a non-manifold edge, unless a
    builder in this package passes arrays it derived from the mesh's
    structure through the private ``_adjacency`` argument; the constructor
    then only swaps the neighbour slots of the triangles it flips, and it
    keeps the builder's fresh arrays as its own without copying them.
    """

    def __init__(self, positions, values, triangles, *, _adjacency=None):
        as_array = np.array if _adjacency is None else np.asarray
        pos = as_array(positions, dtype=np.float64)
        val = as_array(values, dtype=np.float64)
        tri = as_array(triangles, dtype=np.int64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise MeshError(f"positions must be (n, 2), got {pos.shape}")
        if not np.isfinite(pos).all():
            raise MeshError("non-finite vertex position")
        _check_values(val, pos.shape)
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError(f"triangles must be (m, 3), got {tri.shape}")
        n = len(pos)
        if tri.size and (tri.min() < 0 or tri.max() >= n):
            raise MeshError("triangle vertex index out of range")
        repeated = (
            (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
        )
        if repeated.any():
            raise DegenerateTriangleError(
                f"degenerate triangle (repeated vertex) at id {int(np.flatnonzero(repeated)[0])}"
            )

        # Normalize winding so every signed domain area is positive.
        doubled = _mesh_cross(pos, tri)
        flip = doubled < 0
        if flip.any():
            tri[flip] = tri[flip][:, [0, 2, 1]]
            np.abs(doubled, out=doubled)
        if (doubled == 0).any():
            raise DegenerateTriangleError(
                f"degenerate triangle (zero domain area) at id {int(np.flatnonzero(doubled == 0)[0])}"
            )

        self.positions = _read_only(pos)
        self.values = val
        self.triangles = _read_only(tri)
        self._doubled_areas = _read_only(doubled)
        self.domain_areas = _read_only(0.5 * doubled)
        if _adjacency is None:
            neighbors, edges, edge_tris = _sorted_adjacency(tri, n)
        else:
            # Derived arrays describe the triangles as given: flipping one
            # turns its edge slots (0, 1, 2) into (2, 1, 0).
            neighbors, edges, edge_tris = _adjacency
            if flip.any():
                neighbors[flip] = neighbors[flip][:, [2, 1, 0]]
        self.neighbors = _read_only(neighbors)
        self.edges = _read_only(edges)
        self.edge_triangles = _read_only(edge_tris)
        self._stars = None
        self._dets = None

    @property
    def stars(self) -> tuple[np.ndarray, np.ndarray]:
        """``(star_offsets, star_tids)``: every vertex star, built once."""
        if self._stars is None:
            flat = self.triangles.ravel()
            tids = np.argsort(flat, kind="stable") // 3
            counts = np.bincount(flat, minlength=len(self.positions))
            offsets = np.concatenate([[0], np.cumsum(counts)])
            self._stars = (_read_only(offsets), _read_only(tids))
        return self._stars

    def star_entries(self, vertex_ids) -> tuple[np.ndarray, np.ndarray]:
        """The stars of ``vertex_ids`` concatenated, and the size of each."""
        offsets, tids = self.stars
        vids = np.asarray(vertex_ids, dtype=np.int64)
        starts = offsets.take(vids)
        counts = offsets.take(vids + 1) - starts
        # Output slot i takes entry i - (first output slot of its star)
        # of that star.
        skip = (starts - counts.cumsum() + counts).repeat(counts)
        return tids.take(np.arange(len(skip)) + skip), counts

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def dets(self) -> np.ndarray:
        """Jacobian determinant of the per-triangle linear map (cached)."""
        if self._dets is None:
            dets = _mesh_cross(self.values, self.triangles)
            dets /= self._doubled_areas
            self._dets = dets
        return self._dets

    def compute_dets(self, tids, moves=None, target=None, corners=None) -> np.ndarray:
        """Determinants of triangles ``tids`` from the current values, or as
        if the corners where the ``(len(tids), 3)`` mask ``moves`` is True
        carried ``target`` (the field is unchanged): one (f, g) for all
        triangles, or one per triangle as shape ``(len(tids), 2)``. A
        caller that holds ``triangles[tids]`` passes it as ``corners``.

        Value-edge cross product over domain-edge cross product. The
        numerator is exactly 0.0 whenever two vertices of the triangle
        carry identical (f, g) values; 0/area keeps that exact.
        """
        if corners is None:
            corners = self.triangles.take(tids, axis=0)
        w = self.values.take(corners, axis=0)
        if moves is not None:
            w = np.where(moves[..., None], np.asarray(target)[..., None, :], w)
        return _edge_cross(lambda i, j: w[:, i, j]) / self._doubled_areas.take(tids)

    def incident_triangles(self, vertex_ids) -> np.ndarray:
        """Triangles with at least one vertex in ``vertex_ids`` (ascending)."""
        return np.unique(self.star_entries(vertex_ids)[0])

    def point_neighbors(self, t: int) -> np.ndarray:
        """Triangles sharing at least one vertex with ``t`` (excluding ``t``)."""
        star = self.incident_triangles(self.triangles[t])
        return star[star != t]

    # -- mutation ------------------------------------------------------------

    def set_vertex_values(self, vertex_ids, value, tids=None, dets=None) -> None:
        """Assign ``value = (f, g)`` to the given vertices and refresh the
        determinant cache of every incident triangle.

        A caller that already holds the new determinants passes them as
        ``dets`` of the triangles ``tids``, which must be
        ``incident_triangles(vertex_ids)``; they are stored as given.
        """
        vids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        self.values[vids] = np.asarray(value, dtype=np.float64)
        if self._dets is not None and len(vids):
            if dets is None:
                tids = self.incident_triangles(vids)
                dets = self.compute_dets(tids)
            self._dets[tids] = dets

    def with_values(self, values) -> "TriField":
        """A field on this mesh with ``values`` at the vertices, validated
        as the constructor does. It shares this field's read-only
        positions and connectivity, and owns its values."""
        val = np.array(values, dtype=np.float64)
        _check_values(val, self.positions.shape)
        dup = object.__new__(TriField)
        dup.__dict__.update(self.__dict__)
        dup.values = val
        dup._dets = None
        return dup

    def copy(self) -> "TriField":
        dup = self.with_values(self.values)
        dup._dets = None if self._dets is None else self._dets.copy()
        return dup


def _check_values(val: np.ndarray, shape) -> None:
    if val.shape != shape:
        raise MeshError(f"values must match positions shape, got {val.shape}")
    if not np.isfinite(val).all():
        raise MeshError("non-finite vertex value")


def _sorted_adjacency(tri: np.ndarray, n: int):
    """``(neighbors, edges, edge_triangles)`` of any triangle list, found by
    sorting the keys of all 3m edge slots."""
    m = len(tri)
    # Slot t*3 + e holds edge e of triangle t.
    packed = _slot_keys(tri, n).ravel()
    order = np.argsort(packed, kind="stable")
    spacked = packed[order]
    new_group = np.ones(len(spacked), dtype=bool)
    if len(spacked) > 1:
        new_group[1:] = spacked[1:] != spacked[:-1]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, len(spacked)))
    if (counts > 2).any():
        raise _non_manifold(spacked[starts[counts > 2][0]], n)
    neighbors = np.full((m, 3), -1, dtype=np.int64)
    paired = starts[counts == 2]
    a = order[paired]
    b = order[paired + 1]
    neighbors[a // 3, a % 3] = b // 3
    neighbors[b // 3, b % 3] = a // 3
    firsts = spacked[starts]
    edges = np.column_stack([firsts // n, firsts % n])
    edge_tris = np.full((len(starts), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = order[starts] // 3
    edge_tris[counts == 2, 1] = b // 3
    return neighbors, edges, edge_tris


def _slot_keys(ids, span) -> np.ndarray:
    """``min * span + max`` of the ids at slot e of each row and at the
    next slot, cyclically: one sortable key per edge slot, in the shape of
    ``ids``. Slot e of a triangle's row is its edge e; column 0 of an
    edge list's rows is the edge's key."""
    nxt = np.roll(ids, -1, axis=1)
    keys = np.minimum(ids, nxt)
    keys *= span
    keys += np.maximum(ids, nxt, out=nxt)
    return keys


def _non_manifold(key, span) -> NonManifoldError:
    """The error for the edge whose :func:`_slot_keys` key is ``key``."""
    return NonManifoldError(
        f"edge ({key // span}, {key % span}) shared by more than two triangles"
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _edge_cross(corner) -> np.ndarray:
    """Cross product ``(p1 - p0) x (p2 - p0)`` of point triples: twice the
    signed domain area for positions, the determinant numerator for values.

    ``corner(i, j)`` gives coordinate ``j`` of point ``i`` of every triple
    as an array that this function may overwrite. Each is asked for once,
    when it is needed, and the arithmetic runs in place, so at most four
    columns are alive at a time.
    """
    x0 = corner(0, 0)
    y0 = corner(0, 1)
    out = corner(1, 0)
    out -= x0
    t = corner(2, 1)
    t -= y0
    out *= t  # (x1 - x0) * (y2 - y0)
    del t
    t = corner(2, 0)
    t -= x0
    del x0
    u = corner(1, 1)
    u -= y0
    t *= u  # (x2 - x0) * (y1 - y0)
    out -= t
    return out


def _mesh_cross(points, triangles) -> np.ndarray:
    """:func:`_edge_cross` of every triangle, gathering ``points`` one
    coordinate of one corner at a time."""
    return _edge_cross(lambda i, j: points[:, j].take(triangles[:, i]))


def triangulate_structured(width, height, spacing, f, g) -> TriField:
    """Triangulate a regular grid of ``width x height`` samples.

    Every grid cell is split along its lower-left to upper-right diagonal,
    giving ``2 * (width-1) * (height-1)`` triangles: cell ``c``, numbered
    row-major, holds the lower triangle ``2c`` and the upper ``2c + 1``.
    ``f`` and ``g`` are row-major with x varying fastest; vertex (i, j)
    sits at ``(i * spacing[0], j * spacing[1])``. The adjacency arrays are
    written down from the grid in closed form, not sorted for; they equal
    what the sort would give, for any sign of the spacing.
    """
    w, h = int(width), int(height)
    if w < 2 or h < 2:
        raise ValueError("grid must be at least 2 x 2")
    f = np.asarray(f, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    if len(f) != w * h or len(g) != w * h:
        raise ValueError(f"expected {w * h} samples per component, got {len(f)}, {len(g)}")
    dx, dy = float(spacing[0]), float(spacing[1])
    xs = np.arange(w, dtype=np.float64) * dx
    ys = np.arange(h, dtype=np.float64) * dy
    positions = np.column_stack(
        [np.tile(xs, h), np.repeat(ys, w)]
    )
    values = np.column_stack([f, g])

    ii, jj = np.meshgrid(np.arange(w - 1), np.arange(h - 1), indexing="xy")
    v00 = (jj * w + ii).ravel()
    v10 = v00 + 1
    v01 = v00 + w
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * len(v00), 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return TriField(positions, values, triangles, _adjacency=_grid_adjacency(w, h))


def _grid_adjacency(w: int, h: int):
    """``(neighbors, edges, edge_triangles)`` of the triangulation of a
    ``w x h`` grid, in the order :func:`_sorted_adjacency` gives them."""
    lower = 2 * np.arange((h - 1) * (w - 1)).reshape(h - 1, w - 1)
    upper = lower + 1
    # Lower (v00, v10, v11) meets, across its edge slots 0-2, the upper
    # triangles of the cell below, of the cell to the right and of its own
    # cell; upper (v00, v11, v01) the lower triangles of its own cell, of
    # the cell above and of the cell to the left.
    neighbors = np.full((h - 1, w - 1, 2, 3), -1, dtype=np.int64)
    neighbors[1:, :, 0, 0] = upper[:-1]
    neighbors[:, :-1, 0, 1] = upper[:, 1:]
    neighbors[:, :, 0, 2] = upper
    neighbors[:, :, 1, 0] = lower
    neighbors[:-1, :, 1, 1] = lower[1:]
    neighbors[:, 1:, 1, 2] = lower[:, :-1]

    # Vertex v is the lower end of its edges to v+1, v+w and v+w+1, where
    # they exist, so listing them vertex by vertex sorts them by (min, max).
    # The lower-id triangle of an edge comes first.
    v = np.arange(h * w).reshape(h, w, 1)
    edges = np.empty((h, w, 3, 2), dtype=np.int64)
    edges[..., 0] = v
    edges[..., 1] = v + np.array([1, w, w + 1])
    exists = np.ones((h, w, 3), dtype=bool)
    exists[:, -1, 0] = False
    exists[-1, :, 1] = False
    exists[:, -1, 2] = False
    exists[-1, :, 2] = False
    sides = np.full((h, w, 3, 2), -1, dtype=np.int64)
    sides[1:, :-1, 0, 0] = upper  # v -- v+1: top of the cell below,
    sides[:-1, :-1, 0, 1] = lower  # bottom of the cell above
    sides[0, :-1, 0] = sides[0, :-1, 0, ::-1]  # bottom row: no cell below
    sides[:-1, 1:, 1, 0] = lower  # v -- v+w: right of the cell to the left,
    sides[:-1, :-1, 1, 1] = upper  # left of the cell to the right
    sides[:-1, 0, 1] = sides[:-1, 0, 1, ::-1]  # left column: none to the left
    sides[:-1, :-1, 2, 0] = lower  # v -- v+w+1: the diagonal of a cell
    sides[:-1, :-1, 2, 1] = upper
    keep = exists.ravel()
    edges = np.compress(keep, edges.reshape(-1, 2), axis=0)
    edge_tris = np.compress(keep, sides.reshape(-1, 2), axis=0)
    return neighbors.reshape(-1, 3), edges, edge_tris
