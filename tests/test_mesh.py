import numpy as np
import pytest

from jacobiset import (
    DegenerateTriangleError,
    MeshError,
    NonManifoldError,
    TriField,
    domain_area,
    triangulate_structured,
)

from conftest import bits, quad_field, shoelace, unit_triangle, vertex_stars


def test_minimal_simplex():
    field = unit_triangle([(0, 0), (1, 0), (0, 1)])
    assert field.n_triangles == 1
    assert field.n_vertices == 3
    assert domain_area(field, 0) == 0.5


def test_cw_triangle_normalized_to_ccw():
    field = TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), [(0, 2, 1)])
    assert field.domain_areas[0] > 0
    assert tuple(field.triangles[0]) in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_repeated_vertex_rejected():
    with pytest.raises(DegenerateTriangleError, match="degenerate triangle"):
        TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), [(0, 1, 1)])


def test_zero_area_rejected():
    with pytest.raises(DegenerateTriangleError, match="zero domain area"):
        TriField([(0, 0), (1, 1), (2, 2)], np.zeros((3, 2)), [(0, 1, 2)])


def test_out_of_range_index_rejected():
    with pytest.raises(MeshError, match="out of range"):
        TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), [(0, 1, 3)])


def test_non_finite_rejected():
    with pytest.raises(MeshError, match="non-finite"):
        TriField([(0, 0), (1, 0), (0, np.nan)], np.zeros((3, 2)), [(0, 1, 2)])
    with pytest.raises(MeshError, match="non-finite"):
        TriField([(0, 0), (1, 0), (0, 1)], [(0, 0), (np.inf, 0), (0, 0)], [(0, 1, 2)])


def test_non_manifold_rejected():
    # Three triangles share edge (0, 1).
    positions = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    triangles = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
    with pytest.raises(NonManifoldError):
        TriField(positions, np.zeros((5, 2)), triangles)


def test_quad_adjacency_symmetric():
    field = quad_field([0, 1, 1, 0], [0, 0, 1, 1])
    # Two triangles share the diagonal (0, 2); adjacency must link them both ways.
    n0 = [n for n in field.neighbors[0] if n >= 0]
    n1 = [n for n in field.neighbors[1] if n >= 0]
    assert n0 == [1] and n1 == [0]
    # The shared edge slot endpoints agree.
    slots0 = [field.edge_endpoints(0, e) for e in range(3) if field.neighbors[0, e] == 1]
    slots1 = [field.edge_endpoints(1, e) for e in range(3) if field.neighbors[1, e] == 0]
    assert slots0 == slots1 == [(0, 2)]


def test_structured_counts_and_cells():
    field = triangulate_structured(2, 2, (1.0, 1.0), np.zeros(4), np.zeros(4))
    assert field.n_triangles == 2
    assert field.n_vertices == 4

    field = triangulate_structured(450, 200, (1.0, 1.0), np.zeros(90000), np.zeros(90000))
    assert field.n_triangles == 178_702


def test_structured_constant_field_all_degenerate():
    field = triangulate_structured(3, 2, (1.0, 1.0), np.zeros(6), np.zeros(6))
    assert field.n_triangles == 4
    assert (field.dets == 0).all()


def test_structured_size_mismatch():
    with pytest.raises(ValueError, match="expected"):
        triangulate_structured(3, 3, (1.0, 1.0), np.zeros(8), np.zeros(9))


def test_structured_cell_areas_and_total():
    w, h, dx, dy = 7, 5, 0.5, 0.25
    field = triangulate_structured(w, h, (dx, dy), np.zeros(w * h), np.zeros(w * h))
    assert np.allclose(field.domain_areas, dx * dy / 2)
    total = field.domain_areas.sum()
    assert total == pytest.approx((w - 1) * (h - 1) * dx * dy, rel=1e-10)


def test_domain_area_against_shoelace_oracle(rng):
    for _ in range(50):
        pts = rng.uniform(-5, 5, size=(3, 2))
        area = abs(shoelace(pts))
        if area < 1e-3:
            continue
        field = TriField(pts, np.zeros((3, 2)), [(0, 1, 2)])
        assert domain_area(field, 0) == pytest.approx(area, rel=1e-14)


def test_domain_area_bad_id():
    field = unit_triangle(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        domain_area(field, 5)


def test_point_neighbors_and_stars():
    field = triangulate_structured(3, 3, (1.0, 1.0), np.zeros(9), np.zeros(9))
    # Every triangle is in the star of each of its vertices, and the
    # stars are ascending and hold nothing else.
    stars = vertex_stars(field)
    for t in range(field.n_triangles):
        for v in field.triangles[t]:
            assert t in stars[v]
    assert sum(len(s) for s in stars) == 3 * field.n_triangles
    assert all((np.diff(s) > 0).all() for s in stars)
    offsets, tids = field.stars
    assert not offsets.flags.writeable and not tids.flags.writeable
    assert field.copy().stars is field.stars
    # Point neighbors exclude the triangle itself and share >= 1 vertex.
    for t in range(field.n_triangles):
        nbrs = field.point_neighbors(t)
        assert t not in nbrs
        for u in nbrs:
            assert set(field.triangles[t]) & set(field.triangles[u])


def test_set_vertex_values_refreshes_dets():
    field = quad_field([0, 1, 1, 0], [0, 0, 1, 1])
    before = field.dets.copy()
    field.set_vertex_values([2], (5.0, -3.0))
    fresh = TriField(field.positions, field.values, field.triangles)
    assert np.array_equal(field.dets, fresh.dets)
    assert not np.array_equal(field.dets, before)


def test_copy_is_independent():
    field = quad_field([0, 1, 1, 0], [0, 0, 1, 1])
    dup = field.copy()
    dup.set_vertex_values([0], (9.0, 9.0))
    assert field.values[0, 0] == 0.0
    assert dup.values[0, 0] == 9.0


def _scalar_cross(a, b, c) -> float:
    """(b - a) x (c - a) in Python floats, one operation at a time."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def _irregular_field(rng, w=9, h=7) -> TriField:
    n = w * h
    return triangulate_structured(
        w, h, (0.37, 1.3), rng.normal(size=n) * 1e3, rng.normal(size=n) * 1e-3
    )


def test_dets_and_areas_match_scalar_oracle_bitwise(rng):
    field = _irregular_field(rng)
    pos = field.positions.tolist()
    val = field.values.tolist()
    doubled = [_scalar_cross(*(pos[v] for v in tri)) for tri in field.triangles.tolist()]
    dets = [
        _scalar_cross(*(val[v] for v in tri)) / d
        for tri, d in zip(field.triangles.tolist(), doubled)
    ]
    assert np.array_equal(bits(field.domain_areas), bits([0.5 * d for d in doubled]))
    assert np.array_equal(bits(field.dets), bits(dets))


def test_compute_dets_of_moved_vertices_matches_set_vertex_values_bitwise(rng):
    field = _irregular_field(rng)
    values = field.values.copy()
    moved = [10, 11, 20]
    target = 0.5 * (field.values[10] + field.values[11])
    tids = field.incident_triangles(moved)
    simulated = field.compute_dets(tids, np.isin(field.triangles[tids], moved), target)
    assert np.array_equal(bits(field.values), bits(values))  # field untouched
    dup = field.copy()
    dup.set_vertex_values(moved, target)
    assert np.array_equal(bits(simulated), bits(dup.dets[tids]))
    assert np.array_equal(bits(field.compute_dets(tids)), bits(field.dets[tids]))
