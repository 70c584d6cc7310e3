"""Per-triangle linear maps, orientations, and Jacobi set extraction.

The field restricted to a triangle is an affine map ``x -> A x + b``.
The sign of ``det A`` is the triangle's orientation: positive maps keep
the winding in the range, negative maps mirror it, zero means the image
collapsed to a segment or point. The Jacobi set is the set of interior
mesh edges whose two triangles have opposite effective orientation, where
degenerate triangles borrow a sign from their neighborhood first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .mesh import TriField
from .unionfind import connected_labels


class Orientation(IntEnum):
    POSITIVE = 1
    DEGENERATE = 0
    NEGATIVE = -1


@dataclass
class TriangleJacobian:
    """Affine map of one triangle: value(x) = a @ x + b."""

    a: np.ndarray
    b: np.ndarray
    det: float
    range_area: float


def jacobian(field: TriField, t: int) -> TriangleJacobian:
    """Solve the 3-point interpolation for triangle ``t``.

    ``det`` is computed as the value-edge cross product over the
    domain-edge cross product rather than from the entries of ``a``, so it
    is exactly zero whenever two vertices share identical values.
    """
    tri = field.triangles[t]
    p = field.positions[tri]
    w = field.values[tri]
    # a and b go through extended precision so the rounded result
    # reproduces the vertex values to within a few ulp.
    pl = p.astype(np.longdouble)
    wl = w.astype(np.longdouble)
    x1, y1 = pl[1] - pl[0]
    x2, y2 = pl[2] - pl[0]
    dl = x1 * y2 - x2 * y1  # = 2 * domain area, positive after CCW normalization
    f1, g1 = wl[1] - wl[0]
    f2, g2 = wl[2] - wl[0]
    a_l = np.array(
        [
            [(f1 * y2 - f2 * y1) / dl, (f2 * x1 - f1 * x2) / dl],
            [(g1 * y2 - g2 * y1) / dl, (g2 * x1 - g1 * x2) / dl],
        ],
        dtype=np.longdouble,
    )
    b = (wl[0] - a_l @ pl[0]).astype(np.float64)
    # det uses the double kernel of the determinant cache: exactly zero
    # whenever an edge carries identical values.
    det = float(field.compute_dets([t])[0])
    d = float(field._doubled_areas[t])
    return TriangleJacobian(
        a=a_l.astype(np.float64), b=b, det=det, range_area=abs(det) * d / 2.0
    )


def orientation(j: TriangleJacobian, epsilon: float = 0.0) -> Orientation:
    """Classify the sign of the determinant with a degeneracy band of
    ``+-epsilon`` (default 0: exact sign test)."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    if j.det > epsilon:
        return Orientation.POSITIVE
    if j.det < -epsilon:
        return Orientation.NEGATIVE
    return Orientation.DEGENERATE


def orientation_signs(field: TriField, epsilon: float = 0.0) -> np.ndarray:
    """Vector of orientation signs (+1 / 0 / -1) for all triangles."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    d = field.dets
    return np.where(d > epsilon, 1, np.where(d < -epsilon, -1, 0)).astype(np.int8)


def assign_degenerate(field: TriField, signs: np.ndarray, prefer: int | None = None):
    """Assign +1 or -1 to every degenerate triangle from its neighborhood.

    The default rule sums the signs over the point neighborhood (all
    triangles sharing a vertex, degenerate ones counting 0) and takes the
    majority; ties and all-degenerate neighborhoods grow the neighborhood
    ring by ring until a strict majority appears. A fully degenerate mesh
    falls back to +1.

    With ``prefer`` set (+1 or -1), the first ring that contains any signed
    triangle decides: the preferred sign wins if present there at all,
    otherwise the other sign is taken.

    Ring 1 is decided for all degenerate triangles at once from
    :func:`point_neighbor_sums` of the positive and negative triangles;
    only triangles it leaves undecided grow further rings.
    """
    signs = np.asarray(signs)
    degenerate = np.flatnonzero(signs == 0)
    if len(degenerate) == 0:
        return {}
    pos = point_neighbor_sums(field, signs > 0)[degenerate]
    neg = point_neighbor_sums(field, signs < 0)[degenerate]
    if prefer is None:
        out = np.sign(pos - neg)
    else:
        preferred, other = (pos, neg) if prefer > 0 else (neg, pos)
        out = np.where(preferred > 0, prefer, np.where(other > 0, -prefer, 0))
    # Ring 1 from vertex counts needs distinct edge neighbours; a triangle
    # whose twin (same three vertices) borders all its edges, or one that
    # ring 1 leaves undecided, takes the ring search.
    nbr = field.neighbors[degenerate]
    out[(nbr[:, 0] == nbr[:, 1]) & (nbr[:, 0] >= 0)] = 0
    undecided = np.flatnonzero(out == 0)
    if len(undecided):
        # The ring search reads the star offsets once per vertex it
        # reaches, and a list is faster to index than an array.
        offsets = field.stars[0].tolist()
        for i in undecided:
            out[i] = _ring_search(field, signs, offsets, int(degenerate[i]), prefer)
    return dict(zip(degenerate.tolist(), out.tolist()))


def point_neighbor_sums(field: TriField, weights: np.ndarray) -> np.ndarray:
    """For each triangle, the sum of the integer per-triangle ``weights``
    over all triangles sharing at least one vertex with it (itself
    excluded)."""
    weights = np.asarray(weights).astype(np.int64)
    tri = field.triangles
    per_vertex = np.bincount(tri.ravel(), np.repeat(weights, 3), field.n_vertices)
    total = per_vertex.astype(np.int64)[tri].sum(axis=1)
    # Vertex sums count edge neighbors twice and the triangle itself three
    # times; correct both to get the plain point-neighborhood sum.
    nbr = field.neighbors
    edge_nbr_sum = np.where(nbr >= 0, weights[np.clip(nbr, 0, None)], 0).sum(axis=1)
    return total - edge_nbr_sum - 3 * weights


def _ring_search(field, signs, offsets, seed, prefer):
    """Grow point-neighborhood rings around ``seed`` until one decides.

    Ring k+1 is the stars of the vertices first reached by ring k, less
    the triangles already seen. ``offsets`` is ``field.stars[0]`` as a
    list.
    """
    star_tids = field.stars[1]
    seen_t = {seed}
    seen_v = set()
    fresh = field.triangles[seed].tolist()
    total = 0
    while True:
        seen_v.update(fresh)
        ring = []
        for v in fresh:
            for t in star_tids[offsets[v] : offsets[v + 1]].tolist():
                if t not in seen_t:
                    seen_t.add(t)
                    ring.append(t)
        if not ring:
            return 1  # fully degenerate component
        ring_signs = signs[ring]
        if prefer is None:
            total += int(ring_signs.sum(dtype=np.int64))
            if total:
                return 1 if total > 0 else -1
        elif (ring_signs == prefer).any():
            return prefer
        elif (ring_signs == -prefer).any():
            return -prefer
        fresh = {v for v in field.triangles[ring].ravel().tolist() if v not in seen_v}


def effective_signs(field: TriField, signs: np.ndarray, assignment) -> np.ndarray:
    """Orientation signs with degenerate triangles replaced per `assignment`."""
    eff = signs.astype(np.int8).copy()
    if assignment:
        eff[np.fromiter(assignment.keys(), np.int64)] = np.fromiter(assignment.values(), np.int8)
    return eff


@dataclass
class JacobiSet:
    """Interior edges separating opposite effective orientations.

    ``edges`` is an (E, 2) array of vertex-id pairs sorted by (min, max);
    ``degenerate_assignment`` records the sign borrowed by each degenerate
    triangle.
    """

    edges: np.ndarray
    degenerate_assignment: dict

    def __len__(self):
        return len(self.edges)


def extract_jacobi_set(field: TriField, signs: np.ndarray, assignment) -> JacobiSet:
    """Collect interior mesh edges whose two triangles disagree in
    effective sign. Boundary edges are never Jacobi edges."""
    eff = effective_signs(field, signs, assignment)
    et = field.edge_triangles
    interior = et[:, 1] >= 0
    differ = interior.copy()
    differ[interior] = eff[et[interior, 0]] != eff[et[interior, 1]]
    edges = field.edges[differ]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return JacobiSet(edges=edges[order], degenerate_assignment=dict(assignment))


def compute_jacobi_set(field: TriField, epsilon: float = 0.0) -> JacobiSet:
    """Orientation, degenerate assignment, and extraction in one step."""
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    return extract_jacobi_set(field, signs, assignment)


def jacobi_length(field: TriField, js: JacobiSet) -> float:
    """Total Euclidean length of the Jacobi edges in the domain."""
    if len(js.edges) == 0:
        return 0.0
    delta = field.positions[js.edges[:, 0]] - field.positions[js.edges[:, 1]]
    return float(np.hypot(delta[:, 0], delta[:, 1]).sum())


def component_count(field: TriField, js: JacobiSet) -> int:
    """Number of connected components of the Jacobi edge set, two edges
    being connected iff they share a vertex."""
    if len(js.edges) == 0:
        return 0
    verts, ends = np.unique(js.edges, return_inverse=True)
    ends = ends.reshape(-1, 2)
    return int(connected_labels(len(verts), ends[:, 0], ends[:, 1]).max()) + 1


def jacobi_measures(field: TriField, js: JacobiSet) -> dict:
    """The two evaluation measures of ``js``: total length and component
    count."""
    return {"length": jacobi_length(field, js), "components": component_count(field, js)}


def measures(field: TriField, epsilon: float = 0.0) -> dict:
    """The two evaluation measures of the field's Jacobi set."""
    return jacobi_measures(field, compute_jacobi_set(field, epsilon))


def jacobi_set_to_json(js: JacobiSet) -> dict:
    return {
        "edges": [[int(a), int(b)] for a, b in js.edges],
        "degenerate": {
            str(t): ("+" if s > 0 else "-")
            for t, s in sorted(js.degenerate_assignment.items())
        },
    }
