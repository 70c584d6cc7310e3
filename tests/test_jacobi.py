import numpy as np
import pytest

from jacobiset import (
    TriField,
    assign_degenerate,
    component_count,
    compute_jacobi_set,
    extract_jacobi_set,
    jacobi_length,
    load_bsf,
    measures,
    neighborhood_graph,
    orientation_signs,
    save_bsf,
    triangulate_structured,
)
from jacobiset.jacobi import (
    MAJORITY,
    PREFER_NEGATIVE,
    PREFER_POSITIVE,
    _neighbor_sums,
    jacobi_set_to_json,
    point_neighbor_sums,
)

from conftest import (
    affine_map_oracle,
    bfs_edge_components,
    bits,
    grid_field,
    RULE_ROW,
    point_neighbor_sum_oracle,
    quad_field,
    random_sign_field,
    ring_assignment_oracle,
    shoelace,
    twin_pair_field,
    unit_triangle,
    wave_field,
)


# -- determinants ------------------------------------------------------------


def range_area(field, t: int) -> float:
    """Range area of triangle ``t`` as the graph sums it: |det| * area."""
    return abs(float(field.dets[t])) * float(field.domain_areas[t])


def test_identity_map():
    field = unit_triangle([(0, 0), (1, 0), (0, 1)])
    a, b = affine_map_oracle(field, 0)
    assert np.allclose(a, np.eye(2))
    assert np.allclose(b, 0)
    assert field.dets[0] == 1.0
    assert range_area(field, 0) == 0.5


def test_equal_components_degenerate():
    field = unit_triangle([(0, 0), (1, 1), (0, 0)])  # f = g, image is a line
    assert field.dets[0] == 0.0
    assert orientation_signs(field)[0] == 0


def test_scaled_map_det_and_range_area():
    field = unit_triangle([(0, 0), (2, 0), (0, 3)])
    assert field.dets[0] == pytest.approx(6.0)
    # Image triangle (0,0), (2,0), (0,3) has shoelace area 3 = 6 * 0.5.
    assert range_area(field, 0) == pytest.approx(3.0)
    assert range_area(field, 0) == pytest.approx(abs(shoelace([(0, 0), (2, 0), (0, 3)])))


def test_det_area_identity_random(rng):
    for _ in range(300):
        pts = rng.uniform(-4, 4, size=(3, 2))
        if abs(shoelace(pts)) < 0.05:
            continue
        vals = rng.uniform(-5, 5, size=(3, 2))
        field = TriField(pts, vals, [(0, 1, 2)])
        det = field.dets[0]
        image_area = abs(shoelace(vals))
        assert abs(det) * field.domain_areas[0] == pytest.approx(image_area, rel=1e-12)
        a, _ = affine_map_oracle(field, 0)
        assert det == pytest.approx(np.linalg.det(a), rel=1e-9, abs=1e-12)


def test_identical_edge_values_give_exact_zero(rng):
    # Shared (f, g) on any two vertices zeroes a factor of the det formula.
    for _ in range(100):
        pts = rng.uniform(-4, 4, size=(3, 2))
        if abs(shoelace(pts)) < 0.05:
            continue
        pair = rng.choice(3, size=2, replace=False)
        vals = rng.uniform(-5, 5, size=(3, 2))
        vals[pair[1]] = vals[pair[0]]
        field = TriField(pts, vals, [(0, 1, 2)])
        assert field.dets[0] == 0.0
        assert field.compute_dets([0])[0] == 0.0


def test_jacobian_det_is_the_cached_det_bitwise(rng):
    field = wave_field(rng, 12, 9, step=0.25)
    dets = [field.compute_dets([t])[0] for t in range(field.n_triangles)]
    assert np.array_equal(bits(dets), bits(field.dets))
    assert 0.0 in dets  # the rounded field has exact-zero triangles


# -- orientation -------------------------------------------------------------


def test_orientation_classification():
    # Image triangles of determinant 6, 0, -1e-300 and 0.5: values
    # (0, 0), (a, 0), (0, 1) on the unit triangle give det a.
    for det, eps, sign in [(6.0, 0.0, 1), (0.0, 0.0, 0), (-1e-300, 0.0, -1), (0.5, 1.0, 0)]:
        field = unit_triangle([(0, 0), (det, 0), (0, 1)])
        assert field.dets[0] == det
        # -1e-300 stays negative: the sign test is exact by default.
        assert orientation_signs(field, eps)[0] == sign
    with pytest.raises(ValueError):
        orientation_signs(field, epsilon=-1.0)


def test_orientation_signs_vectorized():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    assert np.array_equal(orientation_signs(field), [-1, 1])
    assert np.array_equal(orientation_signs(field, epsilon=2.0), [0, 0])


# -- degenerate assignment ---------------------------------------------------


def _assigned(signs, eff) -> dict:
    """The borrowed sign of each degenerate triangle, as the ring oracle
    gives it: ``{t: eff[t]}`` over the triangles with ``signs[t] == 0``."""
    return {t: int(eff[t]) for t in np.flatnonzero(signs == 0).tolist()}


def _fan_field(n=6):
    """n triangles around a central vertex (closed fan)."""
    center = (0.0, 0.0)
    ring = [
        (np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)
    ]
    positions = [center] + ring
    triangles = [(0, 1 + k, 1 + (k + 1) % n) for k in range(n)]
    return TriField(positions, np.zeros((n + 1, 2)), triangles)


def test_assign_unanimous_neighbors():
    # Central triangle with all three edge neighbors positive.
    positions = [(0, 0), (1, 0), (0.5, 0.9), (0.5, -0.9), (1.5, 0.9), (-0.5, 0.9)]
    triangles = [(0, 1, 2), (0, 3, 1), (1, 4, 2), (0, 2, 5)]
    field = TriField(positions, np.zeros((6, 2)), triangles)
    signs = np.array([0, 1, 1, 1], dtype=np.int8)
    assert assign_degenerate(field, signs).tolist() == [[1, 1, 1, 1]] * 3


def test_assign_majority_in_fan():
    field = _fan_field(6)
    # Point neighborhood of triangle 0 is the 5 others: 2 positive, 3 negative.
    signs = np.array([0, 1, 1, -1, -1, -1], dtype=np.int8)
    assert assign_degenerate(field, signs)[MAJORITY, 0] == -1


def test_assign_recursive_chain_on_strip():
    # 3x2 grid -> 4 triangles forming an edge-adjacency path; the two
    # middle ones are degenerate and every signed neighbor is negative.
    field = triangulate_structured(3, 2, (1.0, 1.0), np.zeros(6), np.zeros(6))
    signs = np.zeros(4, dtype=np.int8)
    signs[[1, 2]] = -1  # the two ends of the path
    out = assign_degenerate(field, signs)
    assert out.tolist() == [[-1, -1, -1, -1]] * 3


def test_assign_expands_rings_until_majority():
    # 7x7 grid, 72 triangles: degenerate everywhere except the outermost
    # cells, which are negative; the central triangles see only degenerate
    # point neighbors and must expand a second ring to find a sign.
    field = triangulate_structured(7, 7, (1.0, 1.0), np.zeros(49), np.zeros(49))
    signs = np.zeros(field.n_triangles, dtype=np.int8)
    centers = field.positions[field.triangles].mean(axis=1)
    outer = (
        (centers[:, 0] < 1) | (centers[:, 0] > 5) | (centers[:, 1] < 1) | (centers[:, 1] > 5)
    )
    signs[outer] = -1
    inner = np.flatnonzero(~outer)
    center_tris = [
        t for t in inner if all(signs[u] == 0 for u in field.point_neighbors(t))
    ]
    assert center_tris, "construction should leave fully degenerate-ringed triangles"
    out = assign_degenerate(field, signs)
    assert (out[:, signs == 0] == -1).all()


def test_assign_all_degenerate_falls_back_positive():
    field = triangulate_structured(3, 3, (1.0, 1.0), np.zeros(9), np.zeros(9))
    signs = np.zeros(field.n_triangles, dtype=np.int8)
    out = assign_degenerate(field, signs)
    assert set(out.ravel().tolist()) == {1}


def test_assign_with_preference():
    field = _fan_field(6)
    signs = np.array([0, 1, 1, -1, 1, 1], dtype=np.int8)
    # Majority is positive, but a negative neighbor exists.
    out = assign_degenerate(field, signs)
    assert out[MAJORITY, 0] == 1
    assert out[PREFER_NEGATIVE, 0] == -1
    assert out[PREFER_POSITIVE, 0] == 1
    # Preference falls through to the other sign if absent.
    signs = np.array([0, 1, 1, 1, 1, 1], dtype=np.int8)
    assert assign_degenerate(field, signs)[PREFER_NEGATIVE, 0] == 1


@pytest.mark.parametrize("prefer", [None, 1, -1])
def test_assign_matches_ring_oracle_on_plateaus(rng, prefer):
    # Values rounded to 0.5 give plateaus of degenerate triangles, with
    # ties and all-degenerate first rings that need the ring search.
    for w, h in [(12, 9), (20, 14), (9, 17), (30, 20)]:
        for _ in range(3):
            field = wave_field(rng, w, h, step=0.5)
            signs = orientation_signs(field)
            assert (signs == 0).mean() >= 0.15
            out = assign_degenerate(field, signs)[RULE_ROW[prefer]]
            assert _assigned(signs, out) == ring_assignment_oracle(field, signs, prefer)


@pytest.mark.parametrize("prefer", [None, 1, -1])
def test_assign_matches_ring_oracle_past_first_ring(rng, prefer):
    # Degenerate 9x9 core inside a border of random signs: the central
    # triangles only find signed triangles several rings out.
    field = triangulate_structured(11, 11, (1.0, 1.0), np.zeros(121), np.zeros(121))
    centers = field.positions[field.triangles].mean(axis=1)
    border = ((centers < 1) | (centers > 9)).any(axis=1)
    inputs = []
    for _ in range(5):
        signs = np.zeros(field.n_triangles, dtype=np.int8)
        signs[border] = rng.choice([-1, 1], size=int(border.sum()))
        inputs.append(signs)
    # Around the central triangle, the first signed ring (ring 1 or 2)
    # holds one +1 and one -1 and the next ring one +1: the majority ties
    # and is decided a ring later, past where the preferred rules decide.
    seed = int(np.argmin(np.abs(centers - 5.0).sum(axis=1)))
    rings = _rings(field, seed, 3)
    for k in (0, 1):
        signs = np.zeros(field.n_triangles, dtype=np.int8)
        signs[[rings[k][0], rings[k][-1], rings[k + 1][0]]] = (1, -1, 1)
        assert ring_assignment_oracle(field, signs)[seed] == 1
        assert ring_assignment_oracle(field, signs, -1)[seed] == -1
        inputs.append(signs)
    for signs in inputs:
        out = assign_degenerate(field, signs)[RULE_ROW[prefer]]
        assert _assigned(signs, out) == ring_assignment_oracle(field, signs, prefer)


def _rings(field, seed, count):
    """The first ``count`` point-neighborhood rings around triangle
    ``seed``, each as a sorted list of triangle ids."""
    seen, ring, rings = {seed}, [seed], []
    for _ in range(count):
        ring = sorted({int(v) for u in ring for v in field.point_neighbors(u)} - seen)
        seen.update(ring)
        rings.append(ring)
    return rings


@pytest.mark.parametrize("prefer", [None, 1, -1])
def test_assign_matches_ring_oracle_all_degenerate(prefer):
    field = triangulate_structured(6, 5, (1.0, 1.0), np.zeros(30), np.zeros(30))
    signs = orientation_signs(field)
    out = assign_degenerate(field, signs)[RULE_ROW[prefer]]
    assert _assigned(signs, out) == ring_assignment_oracle(field, signs, prefer)
    assert set(out.tolist()) == {1}


def test_assign_twin_triangle_matches_ring_oracle(rng):
    # Triangle 1 repeats the vertices of triangle 0, so each borders the
    # other across all three edges; triangle 2 touches them at vertex 1.
    positions = [(0, 0), (1, 0), (0, 1), (2, 0), (2, 1)]
    triangles = [(0, 1, 2), (0, 1, 2), (1, 3, 4)]
    cases = [(TriField(positions, np.zeros((5, 2)), triangles), np.array([0, 1, -1], np.int8))]
    twins = twin_pair_field()
    cases += [(twins, rng.integers(-1, 2, size=5).astype(np.int8)) for _ in range(100)]
    for field, signs in cases:
        out = assign_degenerate(field, signs)
        for prefer in (None, 1, -1):
            expected = ring_assignment_oracle(field, signs, prefer)
            assert _assigned(signs, out[RULE_ROW[prefer]]) == expected


@pytest.mark.parametrize("prefer", [None, 1, -1])
def test_assign_constant_field_all_positive(prefer):
    # One all-degenerate plateau of 3,422 triangles: every triangle takes
    # +1 at once, with no ring search over the plateau.
    field = triangulate_structured(60, 30, (1.0, 1.0), np.zeros(1800), np.zeros(1800))
    signs = orientation_signs(field)
    assert not signs.any()
    out = assign_degenerate(field, signs)[RULE_ROW[prefer]]
    assert out.dtype == np.int8
    assert (out == 1).all()


def test_assign_two_islands_matches_ring_oracle(rng, tmp_path):
    # A BSF of two grids that share no vertex: a constant one, all one
    # degenerate plateau, and a rounded wave field whose plateaus touch
    # signed triangles.
    flat = triangulate_structured(12, 8, (1.0, 1.0), np.zeros(96), np.zeros(96))
    wave = wave_field(rng, 20, 14, step=0.5)
    positions = np.concatenate([flat.positions, wave.positions + (20.0, 0.0)])
    values = np.concatenate([flat.values, wave.values])
    triangles = np.concatenate([flat.triangles, wave.triangles + flat.n_vertices])
    path = tmp_path / "islands.bsf"
    save_bsf(TriField(positions, values, triangles), path)
    field = load_bsf(path)
    signs = orientation_signs(field)
    assert not signs[: flat.n_triangles].any()
    assert (signs[flat.n_triangles :] == 0).any() and signs[flat.n_triangles :].any()
    assigned = assign_degenerate(field, signs)
    for prefer in (None, 1, -1):
        out = assigned[RULE_ROW[prefer]]
        assert _assigned(signs, out) == ring_assignment_oracle(field, signs, prefer)
        assert (out[: flat.n_triangles] == 1).all()


@pytest.mark.parametrize("prefer", [None, 1, -1])
def test_assign_returns_effective_sign_array(rng, prefer):
    fields = [wave_field(rng, w, h, step=0.5) for w, h in [(12, 9), (20, 14), (9, 17)]]
    fields.append(triangulate_structured(6, 5, (1.0, 1.0), np.zeros(30), np.zeros(30)))
    for field in fields:
        signs = orientation_signs(field)
        before = signs.copy()
        assigned = assign_degenerate(field, signs)
        assert assigned.shape == (3, field.n_triangles)
        out = assigned[RULE_ROW[prefer]]
        assert out.dtype == np.int8
        assert np.isin(out, (-1, 1)).all()
        assert np.array_equal(out[signs != 0], signs[signs != 0])
        assert np.array_equal(signs, before)
        assert out is not signs


def test_neighborhood_graph_effective_matches_jacobi_set(rng):
    fields = [wave_field(rng, 12, 9, step) for step in (None, 0.5)]
    for field in fields:
        js = compute_jacobi_set(field)
        assert np.array_equal(js.signs, orientation_signs(field))
        for variant in "ABCD":
            signs, effective, _, _ = neighborhood_graph(field, variant)
            assert np.array_equal(signs, js.signs)
            assert np.array_equal(effective, js.effective)


# -- extraction and measures -------------------------------------------------


def test_globally_injective_map_empty_jacobi_set():
    field = grid_field(3, 3, lambda x, y: x, lambda x, y: y)
    js = compute_jacobi_set(field)
    assert len(js) == 0
    assert jacobi_length(field, js) == 0.0
    assert component_count(field, js) == 0


def test_two_sign_quad_shared_edge():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    assert np.array_equal(field.dets, [-1.0, 1.0])
    js = compute_jacobi_set(field)
    assert js.edges.tolist() == [[0, 2]]
    assert jacobi_length(field, js) == pytest.approx(np.sqrt(2))
    assert component_count(field, js) == 1


def test_product_field_vertical_chain():
    # f = x, g = x*y over [-1, 1]^2: the determinant reduces to the fitted
    # y-slope of g, whose sign is the sign of x, giving one vertical chain
    # of Jacobi edges near x = 0.
    xs = np.arange(21) * 0.1 - 1.0
    f = np.tile(xs, 21)
    g = f * np.repeat(xs, 21)
    field = triangulate_structured(21, 21, (0.1, 0.1), f, g)
    signs = orientation_signs(field)
    # Independent sign oracle: least-squares affine fit per triangle.
    for t in range(0, field.n_triangles, 7):
        tri = field.triangles[t]
        basis = np.column_stack([field.positions[tri], np.ones(3)])
        cf = np.linalg.solve(basis, f[tri])
        cg = np.linalg.solve(basis, g[tri])
        det_fit = cf[0] * cg[1] - cf[1] * cg[0]
        if abs(det_fit) > 1e-12:
            assert signs[t] == np.sign(det_fit)
    m = measures(field)
    assert m["components"] == 1
    assert 1.9 <= m["length"] <= 2.1


def test_boundary_edges_never_jacobi():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    js = compute_jacobi_set(field)
    interior = field.edges[field.edge_triangles[:, 1] >= 0]
    for edge in js.edges:
        assert any((edge == e).all() for e in interior)


def test_extraction_separates_signs_full_scan(rng):
    for _ in range(20):
        field = random_sign_field(rng, 5, 5)
        signs = orientation_signs(field)
        assigned = assign_degenerate(field, signs)
        js = extract_jacobi_set(field, signs, assigned)
        eff = assigned[MAJORITY]
        jacobi = {tuple(e) for e in js.edges.tolist()}
        for (a, b), (t1, t2) in zip(field.edges, field.edge_triangles):
            if t2 < 0:
                assert (int(a), int(b)) not in jacobi
            else:
                differ = eff[t1] != eff[t2]
                assert ((int(a), int(b)) in jacobi) == differ


def test_component_count_vs_bfs_oracle(rng):
    for _ in range(100):
        field = random_sign_field(rng, 5, 4)
        js = compute_jacobi_set(field)
        assert component_count(field, js) == bfs_edge_components(js.edges)


def test_component_count_disjoint_edges():
    field = grid_field(4, 2, lambda x, y: x, lambda x, y: y)
    js = compute_jacobi_set(field)
    js.edges = np.array([[0, 1], [2, 3]])
    assert component_count(field, js) == 2


def test_component_count_of_few_vertices_of_a_large_mesh(rng):
    # The edges touch a few scattered vertices, the first and the last
    # among them, so most vertex numbers go unused.
    field = grid_field(60, 40, lambda x, y: x, lambda x, y: y)
    js = compute_jacobi_set(field)
    assert len(js.edges) == 0 and component_count(field, js) == 0
    last = len(field.edges) - 1
    for size in (1, 2, 5, 30):
        picks = np.unique(np.concatenate([[0, last], rng.choice(last, size, replace=False)]))
        js.edges = field.edges[picks]
        assert component_count(field, js) == bfs_edge_components(js.edges), size
    js.edges = np.empty((0, 2), dtype=np.int64)
    assert component_count(field, js) == 0


@pytest.mark.parametrize("step", [0.5, 0.25])
def test_ring_one_on_degenerate_rows_matches_full_point_neighbor_sums(rng, step):
    field = wave_field(rng, 30, 20, step)
    signs = orientation_signs(field)
    degenerate = np.flatnonzero(signs == 0)
    assert len(degenerate) > 20
    tri = field.triangles.take(degenerate, axis=0)
    nbr = field.neighbors.take(degenerate, axis=0)
    for weights in (signs > 0, signs < 0):
        expected = point_neighbor_sums(field, weights)[degenerate]
        assert np.array_equal(expected, point_neighbor_sum_oracle(field, weights)[degenerate])
        assert np.array_equal(_neighbor_sums(field, weights, tri, nbr), expected)


def test_measure_json_shapes():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    js = compute_jacobi_set(field)
    payload = jacobi_set_to_json(js)
    assert payload == {"edges": [[0, 2]], "degenerate": {}}
    field2 = triangulate_structured(3, 2, (1.0, 1.0), np.zeros(6), np.zeros(6))
    js2 = compute_jacobi_set(field2)
    payload2 = jacobi_set_to_json(js2)
    assert payload2["edges"] == []
    assert set(payload2["degenerate"].values()) == {"+"}


def test_range_area_identity_across_mesh(rng):
    field = random_sign_field(rng, 7, 6)
    for t in range(0, field.n_triangles, 5):
        image = field.values[field.triangles[t]]
        assert abs(field.compute_dets([t])[0]) * field.domain_areas[t] == pytest.approx(
            abs(shoelace(image)), rel=1e-12, abs=1e-300
        )
