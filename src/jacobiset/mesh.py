"""Triangle meshes carrying a bivariate scalar field.

A :class:`TriField` stores a 2D triangulation together with two scalar
values ``(f, g)`` per vertex, interpolated linearly inside each triangle.
Construction validates the mesh: triangle winding is normalized to
counter-clockwise, zero-area triangles are rejected, and every edge may be
shared by at most two triangles (manifold with boundary).

Vertex values are the only mutable state; positions and connectivity are
fixed after construction.
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
        Domain area of every triangle (read-only).
    neighbors : ndarray, shape (m, 3)
        ``neighbors[t, e]`` is the triangle across edge ``e`` of ``t``
        (edge ``e`` joins local vertices ``e`` and ``(e+1) % 3``), or -1
        on the domain boundary.
    stars : (ndarray, ndarray)
        Vertex stars in CSR form (read-only, built on first use): the
        triangles incident to vertex ``v`` are
        ``star_tids[star_offsets[v]:star_offsets[v + 1]]``, ascending.
    """

    def __init__(self, positions, values, triangles):
        pos = np.array(positions, dtype=np.float64)
        val = np.array(values, dtype=np.float64)
        tri = np.array(triangles, dtype=np.int64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise MeshError(f"positions must be (n, 2), got {pos.shape}")
        if val.shape != pos.shape:
            raise MeshError(f"values must match positions shape, got {val.shape}")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError(f"triangles must be (m, 3), got {tri.shape}")
        if not np.isfinite(pos).all():
            raise MeshError("non-finite vertex position")
        if not np.isfinite(val).all():
            raise MeshError("non-finite vertex value")
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
        doubled = _edge_cross(pos[tri])
        flip = doubled < 0
        if flip.any():
            tri[flip] = tri[flip][:, [0, 2, 1]]
            doubled = np.abs(doubled)
        if (doubled == 0).any():
            raise DegenerateTriangleError(
                f"degenerate triangle (zero domain area) at id {int(np.flatnonzero(doubled == 0)[0])}"
            )

        self.positions = pos
        self.values = val
        self.triangles = tri
        self._doubled_areas = doubled
        self.domain_areas = _read_only(0.5 * doubled)
        self._build_adjacency()
        self._stars = None
        self._dets = None
        self._vertex_neighbors = None

    # -- construction helpers ------------------------------------------------

    def _build_adjacency(self):
        tri = self.triangles
        m = len(tri)
        n = len(self.positions)
        # Directed edge e of triangle t runs tri[t, e] -> tri[t, (e+1) % 3];
        # slot t*3 + e holds it, packed into one sortable key per edge.
        lo = np.empty(3 * m, dtype=np.int64)
        hi = np.empty(3 * m, dtype=np.int64)
        for e in range(3):
            a = tri[:, e]
            b = tri[:, (e + 1) % 3]
            np.minimum(a, b, out=lo[e::3])
            np.maximum(a, b, out=hi[e::3])
        packed = lo * n + hi
        order = np.argsort(packed, kind="stable")
        spacked = packed[order]
        new_group = np.ones(len(spacked), dtype=bool)
        if len(spacked) > 1:
            new_group[1:] = spacked[1:] != spacked[:-1]
        starts = np.flatnonzero(new_group)
        counts = np.diff(np.append(starts, len(spacked)))
        if (counts > 2).any():
            bad = spacked[starts[counts > 2][0]]
            raise NonManifoldError(
                f"edge ({bad // n}, {bad % n}) shared by more than two triangles"
            )
        neighbors = np.full((m, 3), -1, dtype=np.int64)
        paired = starts[counts == 2]
        a = order[paired]
        b = order[paired + 1]
        neighbors[a // 3, a % 3] = b // 3
        neighbors[b // 3, b % 3] = a // 3
        self.neighbors = neighbors
        firsts = spacked[starts]
        self.edges = np.column_stack([firsts // n, firsts % n])
        edge_tris = np.full((len(starts), 2), -1, dtype=np.int64)
        edge_tris[:, 0] = order[starts] // 3
        edge_tris[counts == 2, 1] = b // 3
        self.edge_triangles = edge_tris

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
        """The stars of ``vertex_ids`` concatenated: triangle ids, and for
        each the position in ``vertex_ids`` of the vertex it came from."""
        offsets, tids = self.stars
        vids = np.asarray(vertex_ids, dtype=np.int64)
        starts = offsets[vids]
        counts = offsets[vids + 1] - starts
        owner = np.repeat(np.arange(len(vids)), counts)
        # Output slot i takes entry i - (first output slot of its star)
        # of that star.
        shift = starts - (np.cumsum(counts) - counts)
        return tids[np.arange(len(owner)) + shift[owner]], owner

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
            self._dets = self.compute_dets(np.arange(self.n_triangles))
        return self._dets

    def det(self, t: int) -> float:
        return float(self.dets[t])

    def compute_dets(self, tids, moves=None, target=None) -> np.ndarray:
        """Determinants of triangles ``tids`` from the current values, or as
        if the corners where the ``(len(tids), 3)`` mask ``moves`` is True
        carried ``target`` (the field is unchanged): one (f, g) for all
        triangles, or one per triangle as shape ``(len(tids), 2)``.

        Value-edge cross product over domain-edge cross product. The
        numerator is exactly 0.0 whenever two vertices of the triangle
        carry identical (f, g) values; 0/area keeps that exact.
        """
        w = self.values[self.triangles[tids]]
        if moves is not None:
            w = np.where(moves[..., None], np.asarray(target)[..., None, :], w)
        return _edge_cross(w) / self._doubled_areas[tids]

    def boundary_edge_mask(self) -> np.ndarray:
        """Boolean mask over `edges`: True where the edge has one triangle."""
        return self.edge_triangles[:, 1] < 0

    def vertex_neighbors(self, v: int) -> np.ndarray:
        """Vertex ids connected to ``v`` by a mesh edge (ascending)."""
        if self._vertex_neighbors is None:
            n = self.n_vertices
            deg = np.bincount(self.edges.ravel(), minlength=n)
            nbrs = [np.empty(d, dtype=np.int64) for d in deg]
            fill = np.zeros(n, dtype=np.int64)
            for a, b in self.edges:
                nbrs[a][fill[a]] = b
                fill[a] += 1
                nbrs[b][fill[b]] = a
                fill[b] += 1
            self._vertex_neighbors = [np.sort(x) for x in nbrs]
        return self._vertex_neighbors[v]

    def incident_triangles(self, vertex_ids) -> np.ndarray:
        """Triangles with at least one vertex in ``vertex_ids`` (ascending)."""
        return np.unique(self.star_entries(vertex_ids)[0])

    def point_neighbors(self, t: int) -> np.ndarray:
        """Triangles sharing at least one vertex with ``t`` (excluding ``t``)."""
        star = self.incident_triangles(self.triangles[t])
        return star[star != t]

    def edge_endpoints(self, t: int, e: int) -> tuple[int, int]:
        """Endpoints of edge slot ``e`` of triangle ``t`` as (min, max)."""
        a = int(self.triangles[t, e])
        b = int(self.triangles[t, (e + 1) % 3])
        return (a, b) if a < b else (b, a)

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

    def copy(self) -> "TriField":
        dup = object.__new__(TriField)
        dup.positions = self.positions.copy()
        dup.values = self.values.copy()
        dup.triangles = self.triangles.copy()
        dup._doubled_areas = self._doubled_areas.copy()
        dup.domain_areas = _read_only(self.domain_areas.copy())
        dup.neighbors = self.neighbors.copy()
        dup.edges = self.edges.copy()
        dup.edge_triangles = self.edge_triangles.copy()
        dup._stars = self._stars
        dup._dets = None if self._dets is None else self._dets.copy()
        dup._vertex_neighbors = None
        return dup


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _edge_cross(p) -> np.ndarray:
    """Cross product ``(p1 - p0) x (p2 - p0)`` of point triples ``p`` of
    shape (m, 3, 2): twice the signed domain area for positions, the
    determinant numerator for values."""
    return (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])


def domain_area(field: TriField, t: int) -> float:
    """Domain area of triangle ``t`` (shoelace, strictly positive)."""
    if not 0 <= t < field.n_triangles:
        raise IndexError(f"triangle id {t} out of range")
    return float(field.domain_areas[t])


def triangulate_structured(width, height, spacing, f, g) -> TriField:
    """Triangulate a regular grid of ``width x height`` samples.

    Every grid cell is split along its lower-left to upper-right diagonal,
    giving ``2 * (width-1) * (height-1)`` triangles. ``f`` and ``g`` are
    row-major with x varying fastest; vertex (i, j) sits at
    ``(i * spacing[0], j * spacing[1])``.
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
    return TriField(positions, values, triangles)
