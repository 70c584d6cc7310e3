import numpy as np
import pytest

from jacobiset import (
    TriField,
    assign_degenerate,
    build_graph,
    build_regions,
    extract_jacobi_set,
    find_collapsible_cells,
    neighborhood_graph,
    orientation_signs,
    triangulate_structured,
)
from jacobiset.jacobi import MAJORITY
from jacobiset.regions import _star_links, graph_to_dot, graph_to_json, point_neighbor_sums

from conftest import (
    RULE_ROW,
    bfs_region_labels,
    collapsible_cells_oracle,
    graph_nodes_oracle,
    grid_field,
    noisy_island_field,
    point_neighbor_sum_oracle,
    quad_field,
    random_sign_field,
    split_regions_oracle,
    twin_pair_field,
    unit_triangle,
    wave_field,
)

# 3x3-vertex grid whose 8 triangles form a quad checkerboard: quads (0,0)
# and (1,1) negative, (1,0) and (0,1) positive, touching at the center.
CHECKER_F = [-1.0, -2.0, 1.0, -2.0, -2.0, -1.0, 2.0, 0.0, 1.0]
CHECKER_G = [-3.0, -1.0, 2.0, 2.0, 1.0, 3.0, -1.0, -2.0, -3.0]


def checkerboard():
    return triangulate_structured(3, 3, (1.0, 1.0), CHECKER_F, CHECKER_G)


def decompose(field, variant):
    signs = orientation_signs(field)
    assignment = assign_degenerate(field, signs)
    return signs, build_regions(field, assignment, variant=variant)


def test_injective_field_single_region_all_variants():
    field = grid_field(4, 4, lambda x, y: x, lambda x, y: y)
    for variant in "ABCD":
        _, regs = decompose(field, variant)
        assert len(regs) == 1
        graph = build_graph(field, regs)
        assert len(graph.hypervolume) == 1
        assert graph.edges == []


def test_checkerboard_sign_pattern():
    field = checkerboard()
    assert np.array_equal(orientation_signs(field), [-1, -1, 1, 1, 1, 1, -1, -1])


def test_checkerboard_variant_a_vs_b():
    field = checkerboard()
    _, regs_a = decompose(field, "A")
    assert len(regs_a) == 4  # two negative and two positive quads, all separate
    _, regs_b = decompose(field, "B")
    assert len(regs_b) == 3  # the vertex-touching negative quads merge
    neg_regions_b = np.unique(regs_b.label[regs_b.signs < 0])
    assert len(neg_regions_b) == 1
    assert np.flatnonzero(regs_b.label == neg_regions_b[0]).tolist() == [0, 1, 6, 7]
    _, regs_c = decompose(field, "C")
    assert len(regs_c) == 3  # mirror: the positive quads merge


def test_labels_match_bfs_oracle_all_variants(rng):
    cases = []
    for _ in range(25):
        field = random_sign_field(rng, 5, 5)
        cases.append((field, orientation_signs(field)))
    # Each twin is a point neighbour of the other once: D's sums and merge
    # key count it once, so the first sign set below gives D 2 regions, not 4.
    twins = twin_pair_field()
    cases.append((twins, np.array([-1, -1, -1, -1, 1], dtype=np.int8)))
    cases += [(twins, rng.integers(-1, 2, size=5).astype(np.int8)) for _ in range(100)]
    for field, signs in cases:
        assignment = assign_degenerate(field, signs)
        for variant in "ABCD":
            regs = build_regions(field, assignment, variant=variant)
            eff = regs.signs
            nbr_sums = point_neighbor_sum_oracle(field, eff) if variant == "D" else None
            oracle = bfs_region_labels(field, eff, variant, nbr_sums)
            assert np.array_equal(regs.label, oracle), variant


def test_regions_uniform_sign_and_edge_rule(rng):
    field = random_sign_field(rng, 6, 5)
    signs, regs = decompose(field, "A")
    eff = regs.signs
    for r in range(len(regs)):
        assert len(set(eff[regs.label == r].tolist())) == 1
    # Triangles sharing a non-Jacobi interior edge share a label.
    for (t1, t2) in field.edge_triangles:
        if t2 >= 0 and eff[t1] == eff[t2]:
            assert regs.label[t1] == regs.label[t2]


def test_coarsening_monotonicity(rng):
    for _ in range(30):
        field = random_sign_field(rng, 5, 4)
        counts = {}
        for variant in "ABCD":
            _, regs = decompose(field, variant)
            counts[variant] = len(regs)
        assert counts["B"] <= counts["A"]
        assert counts["C"] <= counts["A"]
        assert counts["D"] <= counts["A"]


def test_point_neighbor_sums_vectorized_vs_oracle(rng):
    for _ in range(10):
        field = random_sign_field(rng, 5, 4)
        signs = orientation_signs(field)
        assignment = assign_degenerate(field, signs)
        regs = build_regions(field, assignment, variant="A")
        eff = regs.signs
        assert np.array_equal(
            point_neighbor_sums(field, eff), point_neighbor_sum_oracle(field, eff)
        )
    twins = twin_pair_field()
    for weights in ([-1, -1, -1, -1, 1], [1, 2, 4, 8, 16], rng.integers(-3, 4, size=5)):
        assert np.array_equal(
            point_neighbor_sums(twins, weights), point_neighbor_sum_oracle(twins, weights)
        )


def test_two_triangle_graph():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    signs, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    assert len(graph.hypervolume) == 2
    assert graph.edges == [(0, 1)]


def test_checkerboard_graph_counts_match_regions():
    field = checkerboard()
    for variant in "AB":
        signs, regs = decompose(field, variant)
        graph = build_graph(field, regs)
        assert len(graph.hypervolume) == len(regs)
        # Every graph edge is witnessed by a sign-separating mesh edge.
        eff = regs.signs
        witnessed = set()
        for (t1, t2) in field.edge_triangles:
            if t2 >= 0 and regs.label[t1] != regs.label[t2]:
                assert eff[t1] != eff[t2]
                witnessed.add(
                    (min(regs.label[t1], regs.label[t2]), max(regs.label[t1], regs.label[t2]))
                )
        assert set(graph.edges) == witnessed


def test_region_metric_ops():
    field = unit_triangle([(0, 0), (2, 0), (0, 3)])  # det 6, area 0.5
    signs, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    assert len(graph.hypervolume) == len(regs) == 1
    assert graph.domain_area[0] == pytest.approx(0.5)
    assert graph.range_area[0] == pytest.approx(3.0)
    assert graph.hypervolume[0] == pytest.approx(1.5)


def test_region_metrics_identity_triangle():
    field = unit_triangle([(0, 0), (1, 0), (0, 1)])
    _, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    assert graph.domain_area[0] == pytest.approx(0.5)
    assert graph.range_area[0] == pytest.approx(0.5)
    assert graph.hypervolume[0] == pytest.approx(0.25)


def test_collapsed_region_zero_metrics():
    field = unit_triangle([(1, 1), (1, 1), (1, 1)])
    _, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    assert graph.range_area[0] == 0.0
    assert graph.hypervolume[0] == 0.0


def test_region_metrics_vs_summation_oracle(rng):
    field = random_sign_field(rng, 6, 5)
    _, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    for r in range(len(regs)):
        tris = np.flatnonzero(regs.label == r)
        a = field.domain_areas[tris]
        ra = np.abs(field.dets[tris]) * a
        assert graph.domain_area[r] == pytest.approx(float(a.sum()), rel=1e-12)
        assert graph.range_area[r] == pytest.approx(float(ra.sum()), rel=1e-12)
        assert graph.hypervolume[r] == pytest.approx(float((a * ra).sum()), rel=1e-12)
    # Domain areas over all regions sum to the mesh total.
    total = graph.domain_area.sum()
    assert total == pytest.approx(float(field.domain_areas.sum()), rel=1e-10)


def test_find_collapsible_cells_threshold():
    field = checkerboard()
    signs, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    assert len(find_collapsible_cells(graph, regs, 0.0)) == 0  # strict <
    assert len(find_collapsible_cells(graph, regs, np.inf)) == field.n_triangles
    hvs = sorted(graph.hypervolume.tolist())
    t = 0.5 * (hvs[0] + hvs[-1])
    picked = find_collapsible_cells(graph, regs, t)
    expected = np.sort(
        np.concatenate(
            [np.flatnonzero(regs.label == r) for r, hv in enumerate(graph.hypervolume) if hv < t]
        )
    )
    assert np.array_equal(picked, expected)
    assert 0 < len(picked) < field.n_triangles
    with pytest.raises(ValueError):
        find_collapsible_cells(graph, regs, -1.0)


def test_two_region_mesh_selected_by_hv(rng):
    # A small sign island inside a large positive sea: only the island's
    # region falls below the threshold.
    field, has_island = noisy_island_field(rng, 12, 12, 1)
    assert has_island
    signs, regs = decompose(field, "A")
    graph = build_graph(field, regs)
    hvs = sorted(zip(graph.hypervolume.tolist(), range(len(regs))))
    t = 0.5 * (hvs[-1][0] + hvs[-2][0]) if len(hvs) > 1 else 1.0
    picked = set(find_collapsible_cells(graph, regs, t).tolist())
    sea = np.flatnonzero(regs.label == hvs[-1][1])
    assert picked
    assert not picked & set(sea.tolist())


def test_graph_exports():
    field = checkerboard()
    _, _, regs, graph = neighborhood_graph(field, "A")
    payload = graph_to_json(graph)
    assert payload["variant"] == "A"
    assert len(payload["nodes"]) == 4
    assert all(set(n) == {"id", "sign", "domain_area", "range_area", "hv", "triangles"}
               for n in payload["nodes"])
    assert all(n["sign"] in "+-" for n in payload["nodes"])
    dot = graph_to_dot(graph)
    assert dot.startswith("graph neighborhood_A {")
    assert dot.count(" -- ") == len(graph.edges)
    for r in range(len(graph.hypervolume)):
        assert f'{r} [label="{r}|' in dot


def test_unknown_variant_rejected():
    field = checkerboard()
    with pytest.raises(ValueError, match="variant"):
        build_regions(field, {}, variant="X")


def test_mis_shaped_assignment_rejected(rng):
    # A 40-triangle mesh: one row of signs, a row too many or too few
    # triangles, or the rows transposed are all refused, never read.
    field = random_sign_field(rng, 6, 5)
    assert field.n_triangles == 40
    signs = orientation_signs(field)
    assigned = assign_degenerate(field, signs)
    bad = [
        np.ones(41, dtype=np.int8),
        assigned[MAJORITY],
        assigned[:2],
        np.ones((3, 41), dtype=np.int8),
        assigned[:, :-1],
        assigned.T,
    ]
    for wrong in bad:
        for variant in "ABCD":
            with pytest.raises(ValueError, match=r"shape \(3, 40\)"):
                build_regions(field, wrong, variant=variant)
        with pytest.raises(ValueError, match=r"shape \(3, 40\)"):
            extract_jacobi_set(field, signs, wrong)


def test_region_and_node_views_match_split_oracle_all_variants(rng):
    fields = [random_sign_field(rng, 7, 6) for _ in range(4)]
    fields += [wave_field(rng, 12, 9, step) for step in (None, 0.5)]
    for field in fields:
        signs = orientation_signs(field)
        assignment = assign_degenerate(field, signs)
        for variant in "ABCD":
            regs = build_regions(field, assignment, variant=variant)
            graph = build_graph(field, regs)
            oracle = split_regions_oracle(regs.label, regs.signs)
            assert len(regs) == len(regs.regions) == len(oracle) == regs.label.max() + 1
            for region, (r, sign, tri_ids) in zip(regs.regions, oracle):
                assert (region.id, region.sign) == (r, sign)
                assert np.array_equal(region.triangles, tri_ids)
            nodes = graph_nodes_oracle(field, regs.label, regs.signs)
            assert [
                (n.id, n.sign, n.domain_area, n.range_area, n.hypervolume, n.triangle_count)
                for n in graph.nodes
            ] == nodes
            hvs = np.array([node[4] for node in nodes])
            for t in (0.0, *np.quantile(hvs, [0.1, 0.5, 0.9]), np.inf):
                picked = find_collapsible_cells(graph, regs, t)
                expected = collapsible_cells_oracle(field, regs.label, regs.signs, t)
                assert picked.dtype == expected.dtype
                assert np.array_equal(picked, expected), (variant, t)


def test_empty_mesh_regions_graph_and_exports():
    field = TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), np.empty((0, 3), dtype=int))
    signs = orientation_signs(field)
    assignment = assign_degenerate(field, signs)
    for variant in "ABCD":
        regs = build_regions(field, assignment, variant=variant)
        assert len(regs) == 0
        assert list(regs.regions) == []
        graph = build_graph(field, regs)
        assert graph.nodes == []
        assert graph.edges == []
        assert len(find_collapsible_cells(graph, regs, np.inf)) == 0
        assert graph_to_json(graph) == {"variant": variant, "nodes": [], "edges": []}
        assert graph_to_dot(graph) == f"graph neighborhood_{variant} {{\n}}\n"


def hub_fan_field(k=48):
    """A hub of valence ``k`` ringed by a band of ``2k`` triangles, so
    that point-neighbourhood sizes range from 3 up to about ``k``."""
    ang = 2 * np.pi * np.arange(k) / k
    inner = np.column_stack([np.cos(ang), np.sin(ang)])
    outer = 2.5 * np.column_stack([np.cos(ang + 0.3), np.sin(ang + 0.3)])
    tris = [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    tris += [(1 + i, 1 + k + i, 1 + (i + 1) % k) for i in range(k)]
    tris += [(1 + (i + 1) % k, 1 + k + i, 1 + k + (i + 1) % k) for i in range(k)]
    positions = np.vstack([[0.0, 0.0], inner, outer])
    return TriField(positions, np.zeros((len(positions), 2)), tris)


def star_links_lexsort_oracle(field, eff):
    """Variant D's star links ordered by three sort keys: vertex, then
    sign, then point-neighbourhood sum."""
    vertex = field.triangles.ravel()
    tid = np.repeat(np.arange(field.n_triangles), 3)
    key = point_neighbor_sums(field, eff)
    order = np.lexsort((key[tid], eff[tid], vertex))
    vertex, tid = vertex[order], tid[order]
    lo, hi = tid[:-1], tid[1:]
    link = (vertex[1:] == vertex[:-1]) & (eff[lo] == eff[hi]) & (key[lo] == key[hi])
    return lo[link], hi[link]


@pytest.mark.parametrize("hub_sign", [1, -1])
def test_variant_d_one_key_order_matches_three_key_lexsort(rng, hub_sign):
    field = hub_fan_field()
    # The hub's triangles mostly share one sign, the band's are mixed.
    eff = np.where(rng.random(field.n_triangles) < 0.5, 1, -1).astype(np.int8)
    eff[:48] = np.where(rng.random(48) < 0.9, hub_sign, -hub_sign)
    sums = point_neighbor_sums(field, eff)
    assert sums.max() - sums.min() > 30
    lo, hi = _star_links(field, eff, "D")
    expected_lo, expected_hi = star_links_lexsort_oracle(field, eff)
    assert len(lo) > 0
    assert np.array_equal(lo, expected_lo) and np.array_equal(hi, expected_hi)


def star_links_argsort_oracle(field, eff, variant):
    """Variant B's or C's star links as a stable argsort orders them: the
    vertex-star slots of the triangles with the wanted sign, sorted by
    vertex alone, each linked to the next slot at the same vertex."""
    vertex = field.triangles.ravel()
    slot = np.flatnonzero(np.repeat(eff == (-1 if variant == "B" else 1), 3))
    key = vertex[slot]
    order = np.argsort(key, kind="stable")
    key = key[order]
    tid = slot[order] // 3
    link = key[1:] == key[:-1]
    return tid[:-1][link], tid[1:][link]


def with_unused_vertices(field):
    """``field`` with an unused vertex before and after its own, so that
    the first and the last vertex star are empty."""
    positions = np.vstack([[-1.0, -1.0], field.positions, [-2.0, -2.0]])
    return TriField(positions, np.zeros((len(positions), 2)), field.triangles + 1)


@pytest.mark.parametrize("variant", ["B", "C"])
@pytest.mark.parametrize("prefer", [-1, 1])
def test_variant_b_c_star_links_match_stable_argsort(rng, variant, prefer):
    field = wave_field(rng, 24, 16, 0.5)
    signs = orientation_signs(field)
    assert (signs == 0).sum() > 20
    fields = [(field, assign_degenerate(field, signs)[RULE_ROW[prefer]])]
    hub = hub_fan_field()
    fields.append((hub, np.where(rng.random(hub.n_triangles) < 0.5, 1, -1).astype(np.int8)))
    fields.append((with_unused_vertices(hub), fields[-1][1]))
    for f, eff in fields:
        lo, hi = _star_links(f, eff, variant)
        expected_lo, expected_hi = star_links_argsort_oracle(f, eff, variant)
        assert len(lo) > 0
        assert np.array_equal(lo, expected_lo) and np.array_equal(hi, expected_hi)
