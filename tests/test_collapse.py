import numpy as np
import pytest

from jacobiset import (
    CollapseStatus,
    TriField,
    find_collapsible_cells,
    measures,
    neighborhood_graph,
    orientation_signs,
    simplify,
    triangulate_structured,
)
from jacobiset import collapse
from jacobiset.collapse import (
    CHUNK_CELLS,
    CellScores,
    VertexGroups,
    Worklist,
    _open_sides,
    score_cells,
)

from conftest import (
    VertexGroupsOracle,
    bits,
    edge_endpoints,
    evaluate_variant_oracle,
    noisy_island_field,
    open_sides_oracle,
    possible_collapse_variants_oracle,
    quad_field,
    score_cell,
    simplify_oracle,
    wave_field,
)

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


def worklist(field, cells=()):
    cl = Worklist(field.n_triangles)
    for t in cells:
        cl.add(t)
    return cl


def commit(scores, j, field, groups=None):
    """``scores.commit`` of candidate ``j`` with an empty worklist, and
    unmerged groups unless ``groups`` is given."""
    groups = groups or VertexGroups(field.n_vertices)
    return scores.commit(j, field, groups, worklist(field))


def run(scores, j):
    """Candidate ``j``'s moved triangles, their determinants after the
    move, and the triangles it flips and moves off zero."""
    p = slice(scores.pair_start[j], scores.pair_start[j + 1])
    tids = scores.tids[p]
    return tids, scores.new_dets[p], tids[scores.flipped[p]], tids[scores.requeue[p]]


def island_threshold(field):
    """Threshold between the largest region's hypervolume and the rest."""
    _, _, _, graph = neighborhood_graph(field, "A")
    hvs = np.sort(graph.hypervolume)
    assert len(hvs) >= 2
    return float(0.5 * (hvs[-2] + hvs[-1]))


# -- cell neighborhood and candidate edges -----------------------------------


def test_cell_neighborhood_cases():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    interior = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] >= 0).all()
    )
    nbrs = [int(n) for n in field.neighbors[interior]]
    assert _open_sides(field, [interior], worklist(field, nbrs))[0] == 0  # case 4, skipped
    assert _open_sides(field, [interior], worklist(field))[0] == 3  # case 1
    boundary = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] < 0).sum() == 1
    )
    bn = [int(n) for n in field.neighbors[boundary] if n >= 0]
    assert _open_sides(field, [boundary], worklist(field, bn[:1]))[0] == 1
    selected = list(range(0, field.n_triangles, 3))
    assert _open_sides(field, np.arange(field.n_triangles), worklist(field, selected)).tolist() == [
        open_sides_oracle(field, set(selected), t) for t in range(field.n_triangles)
    ]


def test_boundary_cell_ignores_the_last_triangle_selected():
    # A missing neighbour is -1, which indexes the last triangle; with that
    # triangle selected, a boundary cell away from it still has all three
    # candidate edges and its open sides count only real neighbours.
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    last = field.n_triangles - 1
    boundary = next(
        t
        for t in range(field.n_triangles)
        if (field.neighbors[t] < 0).any() and last not in field.neighbors[t]
    )
    cl = worklist(field, [last])
    scores = score_cells(field, [boundary], cl, VertexGroups(field.n_vertices))
    assert sorted(scores.edges) == possible_collapse_variants_oracle(field, {last}, boundary)
    assert len(scores.edges) == 3
    assert _open_sides(field, [boundary], cl)[0] == open_sides_oracle(field, {last}, boundary)


def test_possible_collapse_variants_cases():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    interior = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] >= 0).all()
    )
    edges_of = lambda t: sorted(edge_endpoints(field, t, e) for e in range(3))
    candidates = lambda selected: sorted(score_cell(field, interior, selected).edges)
    # Case 1: no selected neighbor -> all three edges.
    assert candidates([]) == edges_of(interior)
    nbrs = [int(n) for n in field.neighbors[interior]]
    # Case 2: one selected neighbor -> only the shared edge (no boundary here).
    shared = [
        edge_endpoints(field, interior, e)
        for e in range(3)
        if field.neighbors[interior, e] == nbrs[0]
    ]
    assert candidates([nbrs[0]]) == shared
    # Case 3: two selected neighbors -> exactly those two shared edges.
    expect = sorted(
        edge_endpoints(field, interior, e)
        for e in range(3)
        if field.neighbors[interior, e] in nbrs[:2]
    )
    assert candidates(nbrs[:2]) == expect


def test_possible_collapse_variants_boundary_case2():
    field = triangulate_structured(4, 4, (1.0, 1.0), np.zeros(16), np.arange(16.0))
    boundary = next(
        t for t in range(field.n_triangles) if (field.neighbors[t] < 0).sum() == 1
    )
    nbrs = [int(n) for n in field.neighbors[boundary] if n >= 0]
    cands = sorted(score_cell(field, boundary, [nbrs[0]]).edges)
    shared = [
        edge_endpoints(field, boundary, e)
        for e in range(3)
        if field.neighbors[boundary, e] == nbrs[0]
    ]
    bedge = [
        edge_endpoints(field, boundary, e)
        for e in range(3)
        if field.neighbors[boundary, e] < 0
    ]
    assert cands == sorted(shared + bedge)
    assert len(cands) == 2


# -- variant evaluation ------------------------------------------------------


def test_evaluate_idempotent_collapse():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    field.set_vertex_values([2], field.values[0])  # endpoints 0 and 2 equal
    scores = score_cell(field, 0)
    j = scores.edges.index((0, 2))
    assert scores.flips[j] == 0
    assert scores.delta(j) == 0.0
    before = field.values.copy()
    commit(scores, j, field)
    assert np.array_equal(field.values, before)


def test_evaluate_flip_counts_against_recompute_oracle():
    field = fan_field()
    assert np.array_equal(orientation_signs(field), [1, 1, -1, -1])
    scores = score_cell(field, 0)
    results = {}
    for j, edge in enumerate(scores.edges):
        # Oracle: apply to a copy and compare signs recomputed from scratch.
        probe = field.copy()
        commit(scores, j, probe)
        fresh = TriField(probe.positions, probe.values, probe.triangles)
        s0 = np.sign(field.dets)
        s1 = np.sign(fresh.dets)
        crossed = [
            t
            for t in range(field.n_triangles)
            if t != 0 and s0[t] != 0 and s1[t] != 0 and s0[t] != s1[t]
        ]
        assert scores.flips[j] == len(crossed), edge
        results[edge] = scores.flips[j]
    assert sorted(results.values()) == [0, 0, 1]
    assert results[scores.edges[scores.best(0)]] == 0


def test_evaluate_simulated_self_det_zero():
    field = fan_field()
    assert field.dets[0] != 0.0
    scores = score_cell(field, 0)
    j = scores.edges.index((0, 1))
    tids, dets, _, _ = run(scores, j)
    assert dets[tids == 0].tolist() == [0.0]
    probe = field.copy()
    commit(scores, j, probe)
    assert probe.dets[0] == 0.0


def test_find_best_single_candidate():
    # With one selected edge neighbor and no boundary edge, the shared
    # edge is the only candidate and wins.
    field = fan_field()
    scores = score_cell(field, 0, [1])
    assert scores.edges == [(0, 1)]
    assert scores.best(0) == 0
    alone = score_cell(field, 0)
    j = alone.edges.index((0, 1))
    assert np.array_equal(scores.target[0], alone.target[j])


def test_find_best_delta_tiebreak():
    # Symmetric two-candidate setup where flips tie at 0; the variant
    # shrinking the range more must win. Selecting the neighbors across
    # (0, 1) and (0, 2) leaves exactly those two edges.
    field = fan_field()
    scores = score_cell(field, 0, [1, 3])
    assert sorted(scores.edges) == [(0, 1), (0, 2)]
    scored = {e: (scores.flips[j], scores.delta(j)) for j, e in enumerate(scores.edges)}
    assert scored[(0, 1)][0] == scored[(0, 2)][0] == 0
    want = min(scored, key=lambda e: (scored[e][0], scored[e][1], e))
    assert scores.edges[scores.best(0)] == want


def test_find_best_full_tie_lowest_edge():
    # Equilateral-ish triangle alone in the mesh: all three collapses have
    # 0 flips and identical deltas; the lowest (min, max) edge wins.
    field = TriField(
        [(0, 0), (1, 0), (0.5, 0.9)], [(0, 0), (1, 0), (0.5, 1)], [(0, 1, 2)]
    )
    scores = score_cell(field, 0)
    assert scores.edges[scores.best(0)] == (0, 1)


# -- application and flips ---------------------------------------------------


def test_apply_sets_exact_zero_and_idempotent():
    field = fan_field()
    scores = score_cell(field, 0)
    j = scores.edges.index((0, 1))
    groups = VertexGroups(field.n_vertices)
    commit(scores, j, field, groups)
    assert field.dets[0] == 0.0
    assert np.array_equal(field.values[0], field.values[1])
    snapshot = field.values.copy()
    commit(scores, j, field, groups)  # second application is a no-op
    assert np.array_equal(field.values, snapshot)


def test_apply_neighbor_dets_match_fresh_recompute():
    field = fan_field()
    scores = score_cell(field, 0)
    j = scores.edges.index((1, 2))
    tids, dets, _, _ = run(scores, j)
    commit(scores, j, field)
    fresh = TriField(field.positions, field.values, field.triangles)
    assert np.array_equal(field.dets, fresh.dets)
    # The kernel's simulated determinants are the ones a commit stores.
    assert np.array_equal(bits(dets), bits(fresh.dets[tids]))
    assert np.array_equal(tids, field.incident_triangles((1, 2)))


def test_flipped_cell_neighbors_zero_and_one_flip():
    field = fan_field()
    scores = score_cell(field, 0)
    before = {t: int(np.sign(field.dets[t])) for t in range(field.n_triangles)}
    for edge, expected_flips in [((0, 1), 0), ((1, 2), 1)]:
        j = scores.edges.index(edge)
        probe = field.copy()
        flipped, _ = commit(scores, j, probe)
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
    cl = Worklist(field.n_triangles)
    v_a, v_b, v_c = 1, 5, 4  # mesh edges (1,5) and (4,5) share vertex 5

    def collapse_edge(edge):
        c = next(t for t in range(field.n_triangles) if set(edge) <= set(field.triangles[t]))
        scores = score_cells(field, [c], cl, groups)
        j = scores.edges.index(edge)
        scores.commit(j, field, groups, cl)
        return scores.target[j]

    target1 = collapse_edge((v_a, v_b))
    assert np.array_equal(field.values[v_a], field.values[v_b])

    collapse_edge((v_c, v_b))
    # All three vertices now share one value; every triangle containing
    # two of them has an exactly zero determinant, and the stored
    # determinants equal a recomputation.
    assert np.array_equal(field.values[v_a], field.values[v_b])
    assert np.array_equal(field.values[v_b], field.values[v_c])
    glued = np.isin(field.triangles, [v_a, v_b, v_c]).sum(axis=1) >= 2
    assert (field.dets[glued] == 0.0).all()
    fresh = TriField(field.positions, field.values, field.triangles)
    assert np.array_equal(bits(field.dets), bits(fresh.dets))

    # Moving only the endpoints, the same sequence breaks the first pair.
    field2 = triangulate_structured(4, 2, (1.0, 1.0), np.arange(8.0), np.arange(8.0) ** 2)
    field2.set_vertex_values([v_a, v_b], target1)
    field2.set_vertex_values([v_b, v_c], 0.5 * (field2.values[v_b] + field2.values[v_c]))
    assert not np.array_equal(field2.values[v_a], field2.values[v_b])


@pytest.mark.parametrize("seed", range(5))
def test_group_labels_count_their_members(seed):
    # The sweep reads group sizes as bincount(label): that is exact only if
    # every group's label is the id of one of its members. Merges inside
    # one group, and of a vertex with itself, happen too.
    rng = np.random.default_rng(seed)
    n = 40
    groups = VertexGroups(n)
    oracle = {v: {v} for v in range(n)}  # vertex -> the set of its group
    for _ in range(120):
        u, v = rng.integers(n, size=2).tolist()
        if rng.random() < 0.25:
            v = int(rng.choice(sorted(oracle[u])))
        members = groups.merge(u, v)
        merged = oracle[u] | oracle[v]
        for w in merged:
            oracle[w] = merged
        assert sorted(members.tolist()) == sorted(merged)
        size = np.bincount(groups.label)
        for w in range(n):
            assert size[groups.label[w]] == len(oracle[w])
            assert groups.label[w] in oracle[w]


# -- oscillation guard -------------------------------------------------------


def test_oscillation_first_sweep_false():
    cl = Worklist(10)
    cl.add(3)
    cl.add(4)
    cl.end_sweep()
    assert not cl.oscillated


def test_oscillation_snapshot_repeat():
    cl = Worklist(10)
    cl.add(1)
    cl.add(2)
    cl.end_sweep()
    cl.discard(1)
    cl.add(3)
    cl.end_sweep()
    assert not cl.oscillated
    cl.discard(3)
    cl.add(1)
    cl.end_sweep()
    assert cl.oscillated


def test_oscillation_entry_count(monkeypatch):
    monkeypatch.setattr(collapse, "MAX_ENTRIES", 16)
    for entries, oscillated in ((17, True), (16, False)):
        cl = Worklist(10)
        for _ in range(entries):
            assert cl.add(9)
            cl.discard(9)
        assert cl.entries[9] == entries
        assert cl.oscillated is oscillated


@pytest.mark.parametrize("max_entries, window", [(3, 0), (10**9, 4), (4, 3)])
def test_worklist_matches_set_and_dict_model(max_entries, window, monkeypatch):
    # Random add/discard/moved/end_sweep sequences on 6 triangles, against
    # a set, a dict of entry counts and stamps, and a list of snapshots.
    monkeypatch.setattr(collapse, "MAX_ENTRIES", max_entries)
    monkeypatch.setattr(collapse, "SNAPSHOT_WINDOW", window)
    rng = np.random.default_rng(max_entries + window)
    fired = set()
    for _ in range(30):
        cl, n = Worklist(6), 6
        members, entries, stamp, snapshots = set(), {}, {}, []
        changes, over_entered, repeated = 0, False, False
        for _ in range(80):
            op, t = rng.integers(4), int(rng.integers(n))
            if op == 0:
                entered = t not in members
                assert cl.add(t) is entered
                if entered:
                    members.add(t)
                    entries[t] = entries.get(t, 0) + 1
                    over_entered |= entries[t] > max_entries
                    changes += 1
                    stamp[t] = changes
            elif op == 1:
                cl.discard(t)
                if t in members:
                    members.discard(t)
                    changes += 1
                    stamp[t] = changes
            elif op == 2:
                tids = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                cl.moved(tids)
                changes += 1
                stamp.update((int(u), changes) for u in tids)
            else:
                cl.end_sweep()
                snapshot = frozenset(members)
                repeated |= window > 0 and snapshot in snapshots[-window:]
                snapshots.append(snapshot)
            assert len(cl) == len(members)
            assert cl.cells().tolist() == sorted(members)
            assert cl.entries.tolist() == [entries.get(u, 0) for u in range(n)]
            assert cl.stamp.tolist() == [stamp.get(u, 0) for u in range(n)]
            assert cl.changes == changes
            assert cl.oscillated is (over_entered or repeated)
        fired.add((over_entered, repeated))
    # Each guard that the constants leave on trips in some sequence.
    assert any(over for over, _ in fired) or max_entries > 80
    assert any(repeated for _, repeated in fired) or window == 0


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
        assert field.dets[int(c)] == 0.0
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


# Guard constants that switch off the entry and snapshot guards and cap
# the sweeps below what any stall needs.
EXHAUSTING_GUARDS = {"MAX_ENTRIES": 10**9, "SNAPSHOT_WINDOW": 0, "SWEEP_CAP_FACTOR": 0}


def test_simplify_exhausted_with_tiny_sweep_cap(rng, monkeypatch):
    field, _ = noisy_island_field(rng, 8, 8, 1)
    for name, value in EXHAUSTING_GUARDS.items():
        monkeypatch.setattr(collapse, name, value)
    report = simplify(field, "A", np.inf)
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
    assert all(field.dets[int(c)] == 0.0 for c in leftovers)


def test_simplify_isolated_triangle_stalls():
    # A lone triangle has no unselected edge neighbors, so its cell
    # neighborhood is 0 and no sweep can touch it; the guard fires.
    field = TriField([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    report = simplify(field, "A", np.inf)
    assert report.status is CollapseStatus.OSCILLATED
    assert report.collapsed_cells == 0
    assert field.dets[0] == 1.0  # untouched


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
    assert list(payload) == [
        "status",
        "variant",
        "threshold",
        "collapsed_cells",
        "flip_repairs",
        "iterations",
        "residual_cl",
        "before",
        "after",
    ]
    assert payload["status"] == "completed"
    assert set(payload["before"]) == {"length", "components"}
    assert "elapsed_ms" not in payload


def test_simplify_median_threshold_pinned():
    # Recorded from the reference implementation; any change to a
    # candidate score or tie-break shows up here as a different report.
    field = wave_field(np.random.default_rng(7), 48, 30)
    _, _, _, graph = neighborhood_graph(field, "A")
    threshold = 0.13415684375520825
    assert np.median(graph.hypervolume) == pytest.approx(threshold, rel=1e-12)
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


# -- chunk scoring against the per-cell loop ---------------------------------


def _hv_quantile(field, variant, q):
    _, _, _, graph = neighborhood_graph(field, variant)
    return float(np.quantile(graph.hypervolume, q))


def assert_simplify_matches_oracle(field, variant, threshold):
    ours, ref = field.copy(), field.copy()
    report = simplify(ours, variant, threshold)
    expected = simplify_oracle(ref, variant, threshold)
    assert np.array_equal(bits(ours.values), bits(ref.values))
    assert report.to_dict() == expected.to_dict()
    return report


@pytest.mark.parametrize("step", [None, 0.25, 0.5])
@pytest.mark.parametrize("variant", "ABCD")
@pytest.mark.parametrize("quantile", [0.1, 0.5])
def test_simplify_matches_per_cell_loop_oracle(step, variant, quantile):
    # Rounded values leave plateaus of degenerate cells and let merged
    # groups grow large.
    field = wave_field(np.random.default_rng(31), 40, 30, step)
    assert_simplify_matches_oracle(field, variant, _hv_quantile(field, variant, quantile))


def test_simplify_matches_oracle_over_several_chunks():
    field = wave_field(np.random.default_rng(5), 110, 60)
    threshold = _hv_quantile(field, "A", 0.5)
    _, _, regs, graph = neighborhood_graph(field, "A")
    assert len(find_collapsible_cells(graph, regs, threshold)) > 2 * CHUNK_CELLS
    report = assert_simplify_matches_oracle(field, "A", threshold)
    assert report.status is CollapseStatus.COMPLETED


def test_group_budget_ends_chunks_early(monkeypatch):
    # With a budget of 7 corner-group vertices a chunk holds at most two
    # unmerged cells, or one cell whose corner groups hold more; the
    # result must not depend on where chunks end.
    budget = 7
    loads = []

    def recording(field, cells, cl, groups):
        cells = np.asarray(cells, dtype=np.int64)
        size = np.bincount(groups.label)
        loads.append((len(cells), int(size[groups.label[field.triangles[cells]]].sum())))
        return score_cells(field, cells, cl, groups)

    monkeypatch.setattr(collapse, "CHUNK_GROUP_VERTICES", budget)
    monkeypatch.setattr(collapse, "score_cells", recording)
    field = wave_field(np.random.default_rng(31), 40, 30, 0.25)
    assert_simplify_matches_oracle(field, "B", _hv_quantile(field, "B", 0.5))
    assert any(n > 1 for n, _ in loads)
    assert any(load > budget for _, load in loads)
    assert all(n == 1 or load <= budget for n, load in loads)


@pytest.mark.parametrize(
    "seed, size, islands, guards, status",
    [
        (20240817, 8, 1, {}, CollapseStatus.OSCILLATED),
        (20240817, 8, 1, EXHAUSTING_GUARDS, CollapseStatus.EXHAUSTED),
        (11, 12, 3, {}, CollapseStatus.OSCILLATED),
    ],
)
def test_simplify_matches_oracle_on_guard_paths(
    seed, size, islands, guards, status, monkeypatch
):
    for name, value in guards.items():
        monkeypatch.setattr(collapse, name, value)
    field, _ = noisy_island_field(np.random.default_rng(seed), size, size, islands)
    report = assert_simplify_matches_oracle(field, "A", np.inf)
    assert report.status is status


def test_batch_scores_equal_scores_of_each_cell_alone(rng):
    # A chunk is scored in one pass; each cell's part of it must equal,
    # bit for bit, the scores of that cell alone, with selected
    # neighbours and merged groups in play.
    field = wave_field(rng, 30, 20, 0.25)
    cells = rng.choice(field.n_triangles, size=120, replace=False)
    cl = Worklist(field.n_triangles)
    for t in rng.choice(field.n_triangles, size=300, replace=False).tolist():
        cl.add(t)
    groups = VertexGroups(field.n_vertices)
    for u, v in rng.integers(field.n_vertices, size=(40, 2)).tolist():
        if u != v:
            groups.merge(u, v)
    batch = score_cells(field, cells, cl, groups)
    for k, c in enumerate(cells.tolist()):
        alone = score_cells(field, [c], cl, groups)
        candidates = range(batch.cand_start[k], batch.cand_start[k + 1])
        assert [batch.edges[j] for j in candidates] == alone.edges
        assert [batch.flips[j] for j in candidates] == alone.flips
        assert np.array_equal(
            bits([batch.delta(j) for j in candidates]),
            bits([alone.delta(i) for i in range(len(alone.edges))]),
        )
        assert batch.edges[batch.best(k)] == alone.edges[alone.best(0)]
        for i, j in enumerate(candidates):
            (tids, dets, flipped, requeue), expected = run(batch, j), run(alone, i)
            assert np.array_equal(tids, expected[0])
            assert np.array_equal(bits(dets), bits(expected[1]))
            assert np.array_equal(flipped, expected[2])
            assert np.array_equal(requeue, expected[3])


def test_score_cells_of_no_cells_is_empty():
    # The sweep scores an empty chunk when none of its cells is live.
    field = wave_field(np.random.default_rng(2), 6, 5)
    scores = score_cells(field, [], Worklist(field.n_triangles), VertexGroups(field.n_vertices))
    assert scores.cells == scores.edges == scores.flips == []
    assert scores.cand_start == scores.pair_start == [0]
    for name in ("target", "tids", "new_dets", "growth", "flipped", "requeue"):
        assert len(getattr(scores, name)) == 0, name


@pytest.mark.parametrize("step", [None, 0.25])
def test_best_is_the_eager_minimum_of_the_per_candidate_oracle(rng, monkeypatch, step):
    # The eager rule sums every candidate's growth and takes the minimum
    # (flips, delta, edge) in ascending edge order. `best` must pick the
    # same edge on a batch of cells whose fewest flips tie, and on a batch
    # whose fewest flips never tie, without summing any growth there.
    field = wave_field(rng, 30, 20, step)
    selected = set(rng.choice(field.n_triangles, size=300, replace=False).tolist())
    cl = worklist(field, selected)
    groups = VertexGroups(field.n_vertices)
    oracle_groups = VertexGroupsOracle()
    for u, v in rng.integers(field.n_vertices, size=(40, 2)).tolist():
        if u != v:
            groups.merge(u, v)
            oracle_groups.merge(u, v)
    eager, tie, n_candidates = {}, {}, {}
    for c in rng.choice(field.n_triangles, size=200, replace=False).tolist():
        keys = [
            (*evaluate_variant_oracle(field, c, edge, selected, oracle_groups)[:2], edge)
            for edge in possible_collapse_variants_oracle(field, selected, c)
        ]
        eager[c] = min(keys)[2]
        fewest = min(flips for flips, _, _ in keys)
        tie[c] = sum(flips == fewest for flips, _, _ in keys) > 1
        n_candidates[c] = len(keys)
    tied = [c for c in eager if tie[c]]
    untied = [c for c in eager if not tie[c]]
    assert tied and any(n_candidates[c] > 1 for c in untied)

    scores = score_cells(field, tied, cl, groups)
    assert [scores.edges[scores.best(k)] for k in range(len(tied))] == [eager[c] for c in tied]

    scores = score_cells(field, untied, cl, groups)
    monkeypatch.setattr(CellScores, "delta", lambda self, j: pytest.fail("growth summed"))
    assert [scores.edges[scores.best(k)] for k in range(len(untied))] == [eager[c] for c in untied]
