import numpy as np
import pytest

from jacobiset import (
    CollapseStatus,
    TriField,
    apply_collapse_variant,
    cell_neighborhood,
    cells_oscillated,
    evaluate_variant,
    find_best_collapse_variant,
    find_collapsible_cells,
    flipped_cell_neighbors,
    measures,
    neighborhood_graph,
    orientation_signs,
    possible_collapse_variants,
    simplify,
    triangulate_structured,
)
from jacobiset.collapse import CollapseHistory, CollapseVariant, VertexGroups

from conftest import noisy_island_field, quad_field, wave_field

# 4-triangle fan around cell 0 where collapsing edge (1, 2) flips one
# neighbor and the other candidate edges flip none (signs + + - -).
FAN_POSITIONS = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (1.5, 1), (-0.5, 1)]
FAN_TRIANGLES = [(0, 1, 2), (0, 3, 1), (1, 4, 2), (0, 2, 5)]
FAN_VALUES = [
    (-1.7, -1.1),
    (1.2, 0.3),
    (-1.6, -0.3),
    (-0.1, -1.4),
    (0.9, -1.5),
    (-0.4, 0.1),
]


def fan_field():
    return TriField(FAN_POSITIONS, FAN_VALUES, FAN_TRIANGLES)


def island_threshold(field):
    """Threshold between the largest region's hypervolume and the rest."""
    _, _, regs, graph = neighborhood_graph(field, "A")
    hvs = sorted(n.hypervolume for n in graph.nodes)
    assert len(hvs) >= 2
    return 0.5 * (hvs[-2] + hvs[-1])


# -- cell neighborhood and candidate edges -----------------------------------


def test_cell_neighborhood_cases():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    interior = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] >= 0).all()
    )
    nbrs = [int(n) for n in field.neighbors[interior]]
    assert cell_neighborhood(set(nbrs), field, interior) == 0  # case 4, skipped
    assert cell_neighborhood(set(), field, interior) == 3  # case 1
    boundary = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] < 0).sum() == 1
    )
    bn = [int(n) for n in field.neighbors[boundary] if n >= 0]
    assert cell_neighborhood({bn[0]}, field, boundary) == 1


def test_possible_collapse_variants_cases():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    interior = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] >= 0).all()
    )
    edges_of = lambda t: sorted(field.edge_endpoints(t, e) for e in range(3))
    # Case 1: no selected neighbor -> all three edges.
    assert possible_collapse_variants(field, set(), interior) == edges_of(interior)
    nbrs = [int(n) for n in field.neighbors[interior]]
    # Case 2: one selected neighbor -> only the shared edge (no boundary here).
    shared = [
        field.edge_endpoints(interior, e)
        for e in range(3)
        if field.neighbors[interior, e] == nbrs[0]
    ]
    assert possible_collapse_variants(field, {nbrs[0]}, interior) == shared
    # Case 3: two selected neighbors -> exactly those two shared edges.
    expect = sorted(
        field.edge_endpoints(interior, e)
        for e in range(3)
        if field.neighbors[interior, e] in nbrs[:2]
    )
    assert possible_collapse_variants(field, set(nbrs[:2]), interior) == expect


def test_possible_collapse_variants_boundary_case2():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    boundary = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] < 0).sum() == 1
    )
    nbrs = [int(n) for n in field.neighbors[boundary] if n >= 0]
    cands = possible_collapse_variants(field, {nbrs[0]}, boundary)
    shared = [
        field.edge_endpoints(boundary, e)
        for e in range(3)
        if field.neighbors[boundary, e] == nbrs[0]
    ]
    bedge = [
        field.edge_endpoints(boundary, e)
        for e in range(3)
        if field.neighbors[boundary, e] < 0
    ]
    assert cands == sorted(shared + bedge)
    assert len(cands) == 2


# -- variant evaluation ------------------------------------------------------


def test_evaluate_idempotent_collapse():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    field.set_vertex_values([2], field.values[0])  # endpoints 0 and 2 equal
    flips, delta, variant = evaluate_variant(field, 0, (0, 2))
    assert flips == 0
    assert delta == 0.0
    before = field.values.copy()
    apply_collapse_variant(field, variant)
    assert np.array_equal(field.values, before)


def test_evaluate_flip_counts_against_recompute_oracle():
    field = fan_field()
    assert np.array_equal(orientation_signs(field), [1, 1, -1, -1])
    results = {}
    for edge in possible_collapse_variants(field, set(), 0):
        flips, delta, variant = evaluate_variant(field, 0, edge)
        # Oracle: apply to a copy and compare signs recomputed from scratch.
        probe = field.copy()
        apply_collapse_variant(probe, variant)
        fresh = TriField(probe.positions, probe.values, probe.triangles)
        s0 = np.sign(field.dets)
        s1 = np.sign(fresh.dets)
        crossed = [
            t
            for t in range(field.n_triangles)
            if t != 0 and s0[t] != 0 and s1[t] != 0 and s0[t] != s1[t]
        ]
        assert flips == len(crossed), edge
        results[edge] = flips
    assert sorted(results.values()) == [0, 0, 1]
    best = find_best_collapse_variant(field, list(results), 0)
    assert results[best.edge] == 0


def test_evaluate_simulated_self_det_zero():
    field = fan_field()
    assert field.det(0) != 0.0
    _, _, variant = evaluate_variant(field, 0, (0, 1))
    probe = field.copy()
    apply_collapse_variant(probe, variant)
    assert probe.det(0) == 0.0


def test_find_best_single_candidate():
    field = fan_field()
    _, _, expected = evaluate_variant(field, 0, (0, 1))
    best = find_best_collapse_variant(field, [(0, 1)], 0)
    assert best.edge == expected.edge
    assert np.array_equal(best.target_value, expected.target_value)
    with pytest.raises(ValueError):
        find_best_collapse_variant(field, [], 0)


def test_find_best_delta_tiebreak():
    # Symmetric two-candidate setup where flips tie at 0; the variant
    # shrinking the range more must win.
    field = fan_field()
    cands = [(0, 1), (0, 2)]
    scored = {e: evaluate_variant(field, 0, e)[:2] for e in cands}
    assert scored[(0, 1)][0] == scored[(0, 2)][0] == 0
    best = find_best_collapse_variant(field, cands, 0)
    want = min(cands, key=lambda e: (scored[e][0], scored[e][1], e))
    assert best.edge == want


def test_find_best_full_tie_lowest_edge():
    # Equilateral-ish triangle alone in the mesh: all three collapses have
    # 0 flips and identical deltas; the lowest (min, max) edge wins.
    field = TriField(
        [(0, 0), (1, 0), (0.5, 0.9)], [(0, 0), (1, 0), (0.5, 1)], [(0, 1, 2)]
    )
    best = find_best_collapse_variant(field, possible_collapse_variants(field, set(), 0), 0)
    assert best.edge == (0, 1)


# -- application and flips ---------------------------------------------------


def test_apply_sets_exact_zero_and_idempotent():
    field = fan_field()
    _, _, variant = evaluate_variant(field, 0, (0, 1))
    apply_collapse_variant(field, variant)
    assert field.det(0) == 0.0
    assert np.array_equal(field.values[0], field.values[1])
    snapshot = field.values.copy()
    apply_collapse_variant(field, variant)  # second application is a no-op
    assert np.array_equal(field.values, snapshot)


def test_apply_neighbor_dets_match_fresh_recompute():
    field = fan_field()
    _, _, variant = evaluate_variant(field, 0, (1, 2))
    apply_collapse_variant(field, variant)
    fresh = TriField(field.positions, field.values, field.triangles)
    assert np.array_equal(field.dets, fresh.dets)


def test_flipped_cell_neighbors_zero_and_one_flip():
    field = fan_field()
    for edge, expected_flips in [((0, 1), 0), ((1, 2), 1)]:
        probe = field.copy()
        before = {t: int(np.sign(probe.det(t))) for t in range(probe.n_triangles)}
        _, _, variant = evaluate_variant(probe, 0, edge)
        apply_collapse_variant(probe, variant)
        flipped = flipped_cell_neighbors(probe, before, 0)
        assert len(flipped) == expected_flips
        # Oracle: set difference of sign maps recomputed from scratch.
        fresh = TriField(probe.positions, probe.values, probe.triangles)
        crossed = sorted(
            t
            for t in range(probe.n_triangles)
            if t != 0
            and before[t] != 0
            and np.sign(fresh.dets[t]) != 0
            and before[t] != np.sign(fresh.dets[t])
        )
        assert flipped == crossed


def test_groups_keep_earlier_collapses_glued():
    # Strip of cells: collapsing (a, b) then (b, c) must not break the
    # first collapse; the merged group moves together.
    field = triangulate_structured(4, 2, (1.0, 1.0), np.arange(8.0), np.arange(8.0) ** 2)
    groups = VertexGroups(field.n_vertices)
    v_a, v_b, v_c = 1, 5, 2  # edges (1,5) and (2,5) share vertex 5

    target1 = 0.5 * (field.values[v_a] + field.values[v_b])
    apply_collapse_variant(field, CollapseVariant((v_a, v_b), target1), groups)
    assert np.array_equal(field.values[v_a], field.values[v_b])

    target2 = 0.5 * (field.values[v_b] + field.values[v_c])
    apply_collapse_variant(field, CollapseVariant((v_b, v_c), target2), groups)
    # All three vertices now share one value; every triangle containing
    # two of them has an exactly zero determinant.
    assert np.array_equal(field.values[v_a], field.values[v_b])
    assert np.array_equal(field.values[v_b], field.values[v_c])

    # Without groups the same sequence breaks the first pair.
    field2 = triangulate_structured(4, 2, (1.0, 1.0), np.arange(8.0), np.arange(8.0) ** 2)
    apply_collapse_variant(field2, CollapseVariant((v_a, v_b), target1))
    t2 = 0.5 * (field2.values[v_b] + field2.values[v_c])
    apply_collapse_variant(field2, CollapseVariant((v_b, v_c), t2))
    assert not np.array_equal(field2.values[v_a], field2.values[v_b])


# -- oscillation guard -------------------------------------------------------


def test_oscillation_first_sweep_false():
    history = CollapseHistory()
    history.record_entry(3)
    history.record_sweep({3, 4})
    assert not cells_oscillated(history)


def test_oscillation_snapshot_repeat():
    history = CollapseHistory()
    history.record_sweep({1, 2})
    history.record_sweep({2, 3})
    assert not cells_oscillated(history)
    history.record_sweep({1, 2})
    assert cells_oscillated(history)


def test_oscillation_entry_count():
    history = CollapseHistory(max_entries=16)
    for _ in range(17):
        history.record_entry(9)
    assert cells_oscillated(history)
    history2 = CollapseHistory(max_entries=16)
    for _ in range(16):
        history2.record_entry(9)
    assert not cells_oscillated(history2)


# -- simplify ----------------------------------------------------------------


def test_simplify_zero_threshold_noop(rng):
    field, _ = noisy_island_field(rng, 10, 10, 2)
    before_vals = field.values.copy()
    report = simplify(field, "A", 0.0)
    assert report.status is CollapseStatus.COMPLETED
    assert report.collapsed_cells == 0
    assert report.residual_cl == []
    assert np.array_equal(field.values, before_vals)


def test_simplify_island_completes_and_zeroes(rng):
    field, has_island = noisy_island_field(rng, 16, 16, 2)
    assert has_island
    t = island_threshold(field)
    _, _, regs, graph = neighborhood_graph(field, "A")
    seeds = find_collapsible_cells(graph, regs, t)
    assert len(seeds) > 0
    report = simplify(field, "A", t)
    assert report.status is CollapseStatus.COMPLETED
    assert report.residual_cl == []
    for c in seeds:
        assert field.det(int(c)) == 0.0
    assert report.after["components"] < report.before["components"]
    # Report measures match a fresh recomputation of the mutated field.
    assert measures(field) == report.after


def test_simplify_mutation_locality(rng):
    field, _ = noisy_island_field(rng, 14, 14, 2)
    t = island_threshold(field)
    original = field.values.copy()
    _, _, regs, graph = neighborhood_graph(field, "A")
    seeds = find_collapsible_cells(graph, regs, t)
    report = simplify(field, "A", t)
    changed = np.flatnonzero((field.values != original).any(axis=1))
    # Every changed vertex belongs to some triangle that was worked on.
    touched_ok = set()
    for c in np.flatnonzero(np.abs(field.dets) == 0):
        touched_ok.update(int(v) for v in field.triangles[c])
    for v in changed:
        assert int(v) in touched_ok


def test_simplify_deterministic(rng):
    base, _ = noisy_island_field(rng, 14, 14, 3)
    t = island_threshold(base)
    f1, f2 = base.copy(), base.copy()
    r1 = simplify(f1, "A", t)
    r2 = simplify(f2, "A", t)
    assert np.array_equal(f1.values, f2.values)
    assert r1.to_dict() == r2.to_dict()


def test_simplify_all_selected_stalls_oscillated(rng):
    field, _ = noisy_island_field(rng, 8, 8, 1)
    report = simplify(field, "A", np.inf)
    assert report.status is CollapseStatus.OSCILLATED
    assert report.residual_cl  # non-empty exactly when not completed
    assert report.collapsed_cells == 0


def test_simplify_exhausted_with_tiny_sweep_cap(rng):
    field, _ = noisy_island_field(rng, 8, 8, 1)
    # Disable the snapshot guard and cap sweeps below what the stall needs.
    report = simplify(
        field, "A", np.inf, max_entries=10**9, snapshot_window=0, sweep_cap_factor=0
    )
    assert report.status is CollapseStatus.EXHAUSTED


def test_simplify_final_state_has_no_eligible_cells(rng):
    # After a completed run, re-deriving the graph and re-selecting with
    # the same threshold only turns up cells that are already collapsed.
    field, _ = noisy_island_field(rng, 16, 16, 3)
    t = island_threshold(field)
    report = simplify(field, "A", t)
    assert report.status is CollapseStatus.COMPLETED
    _, _, regs, graph = neighborhood_graph(field, "A")
    leftovers = find_collapsible_cells(graph, regs, t)
    assert all(field.det(int(c)) == 0.0 for c in leftovers)


def test_simplify_isolated_triangle_stalls():
    # A lone triangle has no unselected edge neighbors, so its cell
    # neighborhood is 0 and no sweep can touch it; the guard fires.
    field = TriField([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    report = simplify(field, "A", np.inf)
    assert report.status is CollapseStatus.OSCILLATED
    assert report.collapsed_cells == 0
    assert field.det(0) == 1.0  # untouched


def test_simplify_variant_parameter(rng):
    field, _ = noisy_island_field(rng, 12, 12, 2)
    for variant in "BCD":
        probe = field.copy()
        report = simplify(probe, variant, island_threshold(field))
        assert report.status in (
            CollapseStatus.COMPLETED,
            CollapseStatus.OSCILLATED,
            CollapseStatus.EXHAUSTED,
        )
        assert report.variant == variant


def test_report_serialization(rng):
    field, _ = noisy_island_field(rng, 12, 12, 1)
    report = simplify(field, "A", island_threshold(field))
    payload = report.to_dict()
    assert payload["status"] == "completed"
    assert set(payload["before"]) == {"length", "components"}
    assert "elapsed_ms" not in payload
    assert report.elapsed_ms is not None
    assert "elapsed_ms" in report.to_dict(include_elapsed=True)


def test_simplify_median_threshold_pinned():
    # Recorded from the reference implementation; any change to a
    # candidate score or tie-break shows up here as a different report.
    field = wave_field(np.random.default_rng(7), 48, 30)
    _, _, _, graph = neighborhood_graph(field, "A")
    threshold = 0.13415684375520825
    assert np.median([n.hypervolume for n in graph.nodes]) == pytest.approx(threshold, rel=1e-12)
    payload = simplify(field, "A", threshold).to_dict()
    assert {k: payload[k] for k in ("status", "collapsed_cells", "flip_repairs", "iterations")} == {
        "status": "completed",
        "collapsed_cells": 155,
        "flip_repairs": 40,
        "iterations": 4,
    }
    assert payload["residual_cl"] == []
    assert payload["before"]["components"] == 33
    assert payload["after"]["components"] == 19
    assert payload["before"]["length"] == pytest.approx(1397.9919907732865, rel=1e-12)
    assert payload["after"]["length"] == pytest.approx(1006.1147904132613, rel=1e-12)
