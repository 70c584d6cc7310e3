"""Orientation signs, degenerate assignment, and Jacobi set extraction.

A triangle's orientation is the sign of its Jacobian determinant, which
is the sign of its determinant numerator ``TriField.numerators``: positive
keeps the winding in the range, negative mirrors it, zero means the image
collapsed to a segment or point. The Jacobi set is the set of interior
mesh edges whose two triangles have opposite effective orientation, where
degenerate triangles borrow a sign from their neighborhood first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriField
from .unionfind import connected_labels


def orientation_signs(field: TriField, epsilon: float = 0.0) -> np.ndarray:
    """Vector of orientation signs (+1 / 0 / -1) for all triangles: a
    triangle whose determinant lies within ``epsilon`` of zero is
    degenerate. The test compares the numerator N with ``epsilon`` times
    the doubled domain area, so at ``epsilon = 0`` it is the sign of N."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    n = field.numerators
    # A bound that overflows exceeds every finite N, as its true value does.
    with np.errstate(over="ignore"):
        bound = epsilon * field.doubled_areas
    return np.where(n > bound, 1, np.where(n < -bound, -1, 0)).astype(np.int8)


# Rows of the array that :func:`assign_degenerate` returns, one per rule.
MAJORITY, PREFER_NEGATIVE, PREFER_POSITIVE = range(3)


def assign_degenerate(field: TriField, signs: np.ndarray) -> np.ndarray:
    """Effective orientation signs: a new (3, m) int8 array, one row per
    rule, each equal to ``signs`` except that each degenerate triangle
    (sign 0) borrows +1 or -1 from its neighborhood.

    The ``MAJORITY`` rule sums the signs over the point neighborhood (all
    triangles sharing a vertex, degenerate ones counting 0) and takes the
    majority; ties and all-degenerate neighborhoods grow the neighborhood
    ring by ring until a strict majority appears. A degenerate triangle
    that no ring decides takes +1. Under ``PREFER_NEGATIVE`` and
    ``PREFER_POSITIVE`` the first ring that contains any signed triangle
    decides: the preferred sign wins if present there at all, otherwise
    the other sign is taken.

    Ring 1 is decided for all degenerate triangles at once from
    :func:`point_neighbor_sums` of the positive and negative triangles;
    the triangles whose majority it leaves undecided grow further rings.
    """
    signs = np.asarray(signs)
    eff = np.tile(signs.astype(np.int8), (3, 1))
    degenerate = np.flatnonzero(signs == 0)
    if len(degenerate) == 0:
        return eff
    tri = field.triangles.take(degenerate, axis=0)
    nbr = field.neighbors.take(degenerate, axis=0)
    pos = _neighbor_sums(field, signs > 0, tri, nbr)
    neg = _neighbor_sums(field, signs < 0, tri, nbr)
    out = np.empty((3, len(degenerate)), dtype=np.int64)
    out[MAJORITY] = np.sign(pos - neg)
    out[PREFER_NEGATIVE] = np.where(neg > 0, -1, np.sign(pos))
    out[PREFER_POSITIVE] = np.where(pos > 0, 1, -np.sign(neg))
    # A triangle whose majority ring 1 leaves undecided takes the ring
    # search. A ring that decides the majority holds a sign, and so decides
    # the other rules.
    undecided = np.flatnonzero(out[MAJORITY] == 0)
    if len(undecided):
        # A plateau (degenerate triangles joined at shared vertices) that
        # touches no signed triangle takes +1 at once: no ring reaches a sign.
        plateau = connected_labels(field.n_vertices, tri[:, :2].ravel(), tri[:, 1:].ravel())
        signed = np.zeros(field.n_vertices, dtype=bool)
        signed[plateau.take(np.compress(signs != 0, field.triangles, axis=0))] = True
        lone = ~signed.take(plateau.take(tri[undecided, 0]))
        out[:, undecided[lone]] = 1
        undecided = undecided[~lone]
    if len(undecided):
        # The ring search reads the star offsets once per vertex it
        # reaches, and a list is faster to index than an array.
        offsets = field.stars[0].tolist()
        found = [_ring_search(field, signs, offsets, t) for t in degenerate[undecided].tolist()]
        out[:, undecided] = np.array(found).T
    eff[:, degenerate] = out
    return eff


def point_neighbor_sums(field: TriField, weights: np.ndarray) -> np.ndarray:
    """For each triangle, the sum of the integer per-triangle ``weights``
    over all triangles sharing at least one vertex with it (itself
    excluded)."""
    weights = np.asarray(weights).astype(np.int64)
    return _neighbor_sums(field, weights, field.triangles, field.neighbors) - 3 * weights


def _neighbor_sums(field: TriField, weights: np.ndarray, tri, nbr) -> np.ndarray:
    """:func:`point_neighbor_sums` of the triangles with corner rows ``tri``
    and edge-neighbour rows ``nbr``, plus three times their own weights."""
    # bincount sums float64 weights, and casts int64 ones several times slower.
    per_vertex = np.bincount(
        field.triangles.ravel(), np.repeat(weights.astype(np.float64), 3), field.n_vertices
    )
    # Vertex sums count edge neighbors twice; take them off once. A missing
    # neighbour's -1 gathers the padded 0.
    padded = np.zeros(len(weights) + 1, dtype=np.int64)
    padded[:-1] = weights
    sums = per_vertex.astype(np.int64).take(tri)
    sums -= padded.take(nbr)
    out = sums[:, 0] + sums[:, 1] + sums[:, 2]
    # A twin (the same three vertices) borders all three edges: counted
    # three times and taken off three times, it is added back once.
    twin = np.flatnonzero(nbr[:, 0] == nbr[:, 1])
    out[twin] += padded.take(nbr[twin, 0])
    return out


def _ring_search(field, signs, offsets, seed):
    """Grow point-neighborhood rings around ``seed`` until one decides the
    majority, and return the three rules' signs in row order.

    Ring k+1 is the stars of the vertices first reached by ring k, less
    the triangles already seen. ``offsets`` is ``field.stars[0]`` as a list.
    """
    star_tids = field.stars[1]
    seen_t = {seed}
    seen_v = set()
    fresh = field.triangles[seed].tolist()
    total = 0
    first = None  # the preferred rules' signs, set by the first signed ring
    while True:
        seen_v.update(fresh)
        ring = []
        for v in fresh:
            for t in star_tids[offsets[v] : offsets[v + 1]].tolist():
                if t not in seen_t:
                    seen_t.add(t)
                    ring.append(t)
        if not ring:
            return (1, *(first or (1, 1)))  # no ring decides the majority
        ring_signs = signs[ring]
        if first is None and ring_signs.any():
            first = (-1 if (ring_signs < 0).any() else 1, 1 if (ring_signs > 0).any() else -1)
        total += int(ring_signs.sum(dtype=np.int64))
        if total:
            return (1 if total > 0 else -1, *first)
        fresh = {v for v in field.triangles[ring].ravel().tolist() if v not in seen_v}


@dataclass
class JacobiSet:
    """Interior edges separating opposite effective orientations.

    ``edges`` is an (E, 2) array of vertex-id pairs sorted by (min, max).
    ``signs`` holds the orientation signs (+1 / 0 / -1) of the triangles
    and ``assigned`` the rows of :func:`assign_degenerate`, where each
    degenerate triangle carries its borrowed sign; ``effective`` is the
    ``MAJORITY`` row, which the edges separate.
    """

    edges: np.ndarray
    signs: np.ndarray
    assigned: np.ndarray

    def __len__(self):
        return len(self.edges)

    @property
    def effective(self) -> np.ndarray:
        return self.assigned[MAJORITY]


def extract_jacobi_set(field: TriField, signs: np.ndarray, assigned: np.ndarray) -> JacobiSet:
    """Collect interior mesh edges whose two triangles disagree in the
    ``MAJORITY`` row of ``assigned``. Boundary edges are never Jacobi edges."""
    if np.shape(assigned) != (3, field.n_triangles):
        raise ValueError(f"assigned signs must have shape (3, {field.n_triangles})")
    effective = assigned[MAJORITY]
    et = field.edge_triangles
    differ = (effective.take(et[:, 0]) != effective.take(et[:, 1])) & (et[:, 1] >= 0)
    # field.edges is sorted by (min, max), and so is any subset of it.
    return JacobiSet(np.compress(differ, field.edges, axis=0), signs, assigned)


def compute_jacobi_set(field: TriField, epsilon: float = 0.0) -> JacobiSet:
    """Orientation, degenerate assignment, and extraction in one step."""
    signs = orientation_signs(field, epsilon)
    return extract_jacobi_set(field, signs, assign_degenerate(field, signs))


def jacobi_length(field: TriField, js: JacobiSet) -> float:
    """Total Euclidean length of the Jacobi edges in the domain."""
    # Rows (x0, y0, x1, y1) of the two ends of each edge.
    ends = field.positions.take(js.edges, axis=0).reshape(-1, 4)
    return float(np.hypot(ends[:, 0] - ends[:, 2], ends[:, 1] - ends[:, 3]).sum())


def component_count(field: TriField, js: JacobiSet) -> int:
    """Number of connected components of the Jacobi edge set, two edges
    being connected iff they share a vertex."""
    if len(js.edges) == 0:
        return 0
    # Number the vertices the edges touch 0..k-1, in vertex order.
    number = np.bincount(js.edges.ravel(), minlength=field.n_vertices).astype(bool).cumsum()
    ends = number.take(js.edges) - 1
    return int(connected_labels(int(number[-1]), ends[:, 0], ends[:, 1]).max()) + 1


def jacobi_measures(field: TriField, js: JacobiSet) -> dict:
    """The two evaluation measures of ``js``: total length and component
    count."""
    return {"length": jacobi_length(field, js), "components": component_count(field, js)}


def measures(field: TriField, epsilon: float = 0.0) -> dict:
    """The two evaluation measures of the field's Jacobi set."""
    return jacobi_measures(field, compute_jacobi_set(field, epsilon))


def jacobi_set_to_json(js: JacobiSet) -> dict:
    degenerate = np.flatnonzero(js.signs == 0)
    return {
        "edges": js.edges.tolist(),
        "degenerate": {
            str(t): ("+" if s > 0 else "-")
            for t, s in zip(degenerate.tolist(), js.effective[degenerate].tolist())
        },
    }
