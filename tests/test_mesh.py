import numpy as np
import pytest

from jacobiset import (
    DegenerateTriangleError,
    MeshError,
    NonManifoldError,
    TriField,
    loop_subdivide,
    triangulate_structured,
)
from jacobiset.mesh import _edge_cross, _mesh_cross, _sorted_adjacency

from conftest import (
    assert_same_topology,
    bits,
    edge_cross_oracle,
    edge_endpoints,
    grid_triangles,
    move_vertices,
    quad_field,
    shoelace,
    star_union,
    unit_triangle,
    vertex_stars,
)


def test_minimal_simplex():
    field = unit_triangle([(0, 0), (1, 0), (0, 1)])
    assert field.n_triangles == 1
    assert field.n_vertices == 3
    assert field.domain_areas[0] == 0.5


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


@pytest.mark.parametrize(
    "positions, triangles, message",
    [
        (np.zeros((3, 3)), [(0, 1, 2)], r"positions must be \(n, 2\), got \(3, 3\)"),
        ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2, 0)], r"triangles must be \(m, 3\), got \(1, 4\)"),
    ],
)
def test_wrong_array_shape_rejected(positions, triangles, message):
    with pytest.raises(MeshError, match=message):
        TriField(positions, np.zeros((3, 2)), triangles)


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
    slots0 = [edge_endpoints(field, 0, e) for e in range(3) if field.neighbors[0, e] == 1]
    slots1 = [edge_endpoints(field, 1, e) for e in range(3) if field.neighbors[1, e] == 0]
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


@pytest.mark.parametrize("w, h", [(1, 2), (2, 1), (0, 0)])
def test_structured_grid_smaller_than_2x2_rejected(w, h):
    with pytest.raises(ValueError, match="^grid must be at least 2 x 2$"):
        triangulate_structured(w, h, (1.0, 1.0), np.zeros(w * h), np.zeros(w * h))


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
        assert field.domain_areas[0] == pytest.approx(area, rel=1e-14)


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
    assert [s.tolist() for s in np.split(tids, offsets[1:-1])] == [s.tolist() for s in stars]
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
    move_vertices(field, [2], (5.0, -3.0))
    fresh = TriField(field.positions, field.values, field.triangles)
    assert np.array_equal(field.dets, fresh.dets)
    assert not np.array_equal(field.dets, before)


def test_copy_is_independent():
    field = quad_field([0, 1, 1, 0], [0, 0, 1, 1])
    dup = field.copy()
    move_vertices(dup, [0], (9.0, 9.0))
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
    tids = star_union(field, moved)
    corners = field.triangles[tids]
    simulated = field.compute_dets(tids, np.isin(corners, moved), target, corners)
    assert np.array_equal(bits(field.values), bits(values))  # field untouched
    values[moved] = target
    fresh = TriField(field.positions, values, field.triangles)
    assert np.array_equal(bits(simulated), bits(fresh.dets[tids]))


def _cross_input(kind, rng):
    """Points and triangles, as given, for the cross-product tests."""
    w, h = 23, 17
    tri = grid_triangles(w, h)
    if kind == "mirrored":
        # A negative x spacing turns every triangle clockwise.
        zeros = np.zeros(w * h)
        return triangulate_structured(w, h, (-0.37, 1.3), zeros, zeros).positions, tri
    n = w * h
    x = rng.normal(size=n)
    if kind == "random":
        points = np.column_stack([x, rng.normal(size=n)])
        return points, rng.integers(0, n, size=(3 * len(tri), 3))
    if kind == "near-collinear":
        return np.column_stack([x, 0.3 * x + 1e-12 * rng.normal(size=n)]), tri
    # Coordinates near 1e154: products near 1e308 overflow to inf, and
    # inf - inf gives NaN.
    return 1e154 * rng.uniform(-1.0, 1.0, size=(n, 2)), tri


@pytest.mark.parametrize("kind", ["random", "near-collinear", "mirrored", "huge"])
def test_column_cross_product_matches_the_gathered_formula_bitwise(rng, kind):
    points, tri = _cross_input(kind, rng)
    gathered = points[tri]
    with np.errstate(over="ignore", invalid="ignore"):
        want = edge_cross_oracle(gathered)
        whole_mesh = _mesh_cross(points, tri)
        # compute_dets' form; it overwrites `gathered`, so it runs last.
        in_place = _edge_cross(lambda i, j: gathered[:, i, j])
    assert np.array_equal(bits(whole_mesh), bits(want))
    assert np.array_equal(bits(in_place), bits(want))
    if kind == "mirrored":
        assert (want < 0).all()
    if kind == "huge":
        assert np.isinf(want).any() and np.isnan(want).any()


@pytest.mark.parametrize("kind", ["irregular", "mirrored", "loop child", "huge"])
def test_cached_dets_equal_compute_dets_of_every_triangle_bitwise(rng, kind):
    w, h = 13, 9
    f, g = rng.normal(size=w * h), rng.normal(size=w * h)
    if kind == "irregular":
        field = _irregular_field(rng)
    elif kind == "mirrored":
        field = triangulate_structured(w, h, (0.37, -1.3), f, g)
    elif kind == "loop child":
        field = loop_subdivide(_irregular_field(rng), 1)
    else:
        field = triangulate_structured(w, h, (1.0, 1.0), 1e154 * f, 1e154 * g)
    with np.errstate(over="ignore", invalid="ignore"):
        tids = np.arange(field.n_triangles)
        no_moves = np.zeros((len(tids), 3), dtype=bool)
        every = field.compute_dets(tids, no_moves, np.zeros(2), field.triangles)
        assert np.array_equal(bits(field.dets), bits(every))
    if kind == "huge":
        assert np.isinf(every).any() and np.isnan(every).any()


def _shuffled_mesh(rng, w, h) -> TriField:
    """A grid field with its vertices relabelled and its triangles given in
    random order, rotation and winding."""
    n = w * h
    base = triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=n), rng.normal(size=n))
    new_id = rng.permutation(n)
    positions = np.empty_like(base.positions)
    positions[new_id] = base.positions
    values = np.empty_like(base.values)
    values[new_id] = base.values
    tri = new_id[base.triangles][rng.permutation(base.n_triangles)]
    turn = (np.arange(3) + rng.integers(0, 3, size=(len(tri), 1))) % 3
    tri = np.take_along_axis(tri, turn, axis=1)
    mirror = rng.random(len(tri)) < 0.5
    tri[mirror] = tri[mirror][:, ::-1]
    return TriField(positions, values, tri)


def test_edges_strictly_ascending_by_min_max(rng):
    for w, h in [(2, 2), (3, 5), (7, 4), (9, 9)]:
        field = _shuffled_mesh(rng, w, h)
        edges = field.edges
        assert (edges[:, 0] < edges[:, 1]).all()
        assert (np.diff(edges[:, 0] * field.n_vertices + edges[:, 1]) > 0).all()
        expected = {
            tuple(sorted((t[i], t[(i + 1) % 3])))
            for t in field.triangles.tolist()
            for i in range(3)
        }
        assert set(map(tuple, edges.tolist())) == expected


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros((3, 2)), "values must match positions shape"),
        (np.zeros((4, 3)), "values must match positions shape"),
        ([(0, 0), (np.nan, 0), (0, 0), (0, 0)], "non-finite vertex value"),
        ([(0, 0), (0, 0), (0, -np.inf), (0, 0)], "non-finite vertex value"),
    ],
)
def test_with_values_rejects_as_the_constructor_does(values, message):
    field = quad_field([0, 1, 1, 0], [0, 0, 1, 1])
    with pytest.raises(MeshError, match=message) as shared:
        field.with_values(values)
    with pytest.raises(MeshError) as fresh:
        TriField(field.positions, values, field.triangles)
    assert str(shared.value) == str(fresh.value)


def test_with_values_dets_match_fresh_triangulation_bitwise(rng):
    w, h, spacing = 9, 7, (0.37, 1.3)
    base = triangulate_structured(w, h, spacing, rng.normal(size=w * h), rng.normal(size=w * h))
    base.dets  # a cached det array must not carry over
    f, g = rng.normal(size=w * h) * 1e3, rng.normal(size=w * h) * 1e-3
    shared = base.with_values(np.column_stack([f, g]))
    fresh = triangulate_structured(w, h, spacing, f, g)
    assert np.array_equal(bits(shared.dets), bits(fresh.dets))
    assert not np.array_equal(bits(shared.dets), bits(base.dets))


def test_with_values_shares_read_only_topology_and_owns_values(rng):
    base = _irregular_field(rng)
    base_values, base_dets = base.values.copy(), base.dets.copy()
    other = base.with_values(base.values * 2)
    move_vertices(other, [0, 5], (7.0, -7.0))
    assert np.array_equal(bits(base.values), bits(base_values))
    assert np.array_equal(bits(base.dets), bits(base_dets))
    other_values = other.values.copy()
    move_vertices(base, [1], (3.0, 3.0))
    assert np.array_equal(bits(other.values), bits(other_values))
    for name in ("positions", "triangles", "domain_areas", "neighbors", "edges", "edge_triangles"):
        array = getattr(base, name)
        assert getattr(other, name) is array
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    assert other.values.flags.writeable


SPACING_SIGNS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


@pytest.mark.parametrize("w, h", [(2, 2), (2, 7), (7, 2), (5, 4)])
@pytest.mark.parametrize("sx, sy", SPACING_SIGNS)
def test_structured_adjacency_matches_the_sorting_constructor(rng, w, h, sx, sy):
    field = triangulate_structured(
        w, h, (0.37 * sx, 1.3 * sy), rng.normal(size=w * h), rng.normal(size=w * h)
    )
    # A spacing of one negative sign flips every triangle, and with it
    # the derived neighbour slots.
    assert np.array_equal(field.triangles, grid_triangles(w, h)) == (sx * sy > 0)
    assert_same_topology(field, grid_triangles(w, h))


def test_derived_adjacency_follows_the_triangles_the_constructor_flips(rng):
    # Arrays derived for the triangles as given must come out as the sort
    # finds them for the normalized ones, whichever triangles flip.
    w, h = 6, 5
    base = triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=w * h), rng.normal(size=w * h))
    tri = grid_triangles(w, h)
    flipped = rng.random(len(tri)) < 0.5
    tri[flipped] = tri[flipped][:, [0, 2, 1]]
    as_given = _sorted_adjacency(tri, base.n_vertices)
    derived = TriField(base.positions, base.values, tri, _adjacency=as_given)
    assert 0 < flipped.sum() < len(tri)
    assert_same_topology(derived, tri)
