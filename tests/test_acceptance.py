"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities."""

import json
import os
import time

import numpy as np
import pytest

from jacobiset import (
    CollapseStatus,
    TriField,
    assign_degenerate,
    binomial_filter,
    build_graph,
    build_regions,
    component_count,
    compute_jacobi_set,
    find_collapsible_cells,
    gaussian_filter,
    loop_subdivide,
    measures,
    neighborhood_graph,
    orientation_signs,
    simplify,
    triangulate_structured,
)
from jacobiset.cli import main
from jacobiset.collapse import VertexGroups, Worklist
from jacobiset.fileio import GridField, load_field, save_bsf

from conftest import (
    bfs_edge_components,
    bfs_region_labels,
    noisy_island_field,
    point_neighbor_sum_oracle,
    random_sign_field,
    score_cell,
    shoelace,
)


def gate(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_triangulation_count_and_speed():
    rng = np.random.default_rng(1)
    f = rng.normal(size=450 * 200)
    g = rng.normal(size=450 * 200)
    # One small call first so allocator/import warm-up stays out of the timing.
    triangulate_structured(2, 2, (1.0, 1.0), np.zeros(4), np.zeros(4))
    t0 = time.perf_counter()
    field = triangulate_structured(450, 200, (1.0, 1.0), f, g)
    elapsed = time.perf_counter() - t0
    ok = field.n_triangles == 178_702 and elapsed < 1.0
    gate(1, ok, f"450x200 -> {field.n_triangles} triangles in {elapsed:.3f}s")


def test_c02_det_area_identity():
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    while checked < 1000:
        pts = rng.uniform(-4, 4, size=(3, 2))
        if abs(shoelace(pts)) < 0.05:
            continue
        vals = rng.uniform(-5, 5, size=(3, 2))
        field = TriField(pts, vals, [(0, 1, 2)])
        image_area = abs(shoelace(field.values[field.triangles[0]]))
        lhs = abs(field.dets[0]) * field.domain_areas[0]
        rel = abs(lhs - image_area) / max(image_area, 1e-300)
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-12
    gate(2, ok, f"1000 triangles, worst relative deviation {worst:.2e}")


def test_c03_analytic_jacobi_line():
    xs = np.arange(21) * 0.1 - 1.0
    f = np.tile(xs, 21)
    g = f * np.repeat(xs, 21)
    field = triangulate_structured(21, 21, (0.1, 0.1), f, g)
    m = measures(field)
    ident = triangulate_structured(
        21, 21, (0.1, 0.1), np.tile(xs, 21), np.repeat(xs, 21)
    )
    mi = measures(ident)
    ok = (
        m["components"] == 1
        and 1.9 <= m["length"] <= 2.1
        and mi["components"] == 0
        and mi["length"] == 0.0
    )
    gate(
        3,
        ok,
        f"product field: {m['components']} component(s), length {m['length']:.4f}; "
        f"identity field: {mi['components']}, {mi['length']}",
    )


def test_c04_collapse_postcondition_50_fields():
    rng = np.random.default_rng(4)
    completed = 0
    attempted = 0
    violations = []
    t0 = time.perf_counter()
    while attempted < 50:
        field, has_island = noisy_island_field(rng, 16, 16, 3)
        if not has_island:
            continue
        attempted += 1
        _, _, regs, graph = neighborhood_graph(field, "A")
        hvs = sorted(graph.hypervolume.tolist())
        threshold = 0.5 * (hvs[-2] + hvs[-1])
        seeds = find_collapsible_cells(graph, regs, threshold)
        report = simplify(field, "A", threshold)
        if report.status is CollapseStatus.COMPLETED:
            completed += 1
            bad_det = [int(c) for c in seeds if field.dets[int(c)] != 0.0]
            if bad_det:
                violations.append(f"nonzero dets {bad_det[:3]}")
            if not report.after["components"] < report.before["components"]:
                violations.append(
                    f"components {report.before['components']} -> {report.after['components']}"
                )
    elapsed = time.perf_counter() - t0
    ok = completed >= 45 and not violations and elapsed < 5.0
    gate(
        4,
        ok,
        f"{completed}/50 completed, {len(violations)} violation(s), {elapsed:.2f}s total",
    )


def test_c05_exact_zero_collapse_100_cells():
    rng = np.random.default_rng(5)
    checked = 0
    exact = 0
    while checked < 100:
        field = random_sign_field(rng, 6, 6)
        c = int(rng.integers(field.n_triangles))
        if field.dets[c] == 0.0:
            continue
        scores = score_cell(field, c)
        candidates = sorted(range(len(scores.edges)), key=scores.edges.__getitem__)
        j = candidates[int(rng.integers(len(candidates)))]
        scores.commit(j, field, VertexGroups(field.n_vertices), Worklist(field.n_triangles))
        checked += 1
        if field.dets[c] == 0.0:
            exact += 1
    ok = exact == 100
    gate(5, ok, f"{exact}/100 collapsed cells compare equal to 0.0")


def test_c06_graph_coarsening_and_label_oracle():
    rng = np.random.default_rng(6)
    coarsening_ok = True
    labels_ok = True
    for _ in range(100):
        field = random_sign_field(rng, 5, 4)
        signs = orientation_signs(field)
        assignment = assign_degenerate(field, signs)
        counts = {}
        for variant in "ABCD":
            regs = build_regions(field, assignment, variant=variant)
            counts[variant] = len(regs)
            nbr = point_neighbor_sum_oracle(field, regs.signs) if variant == "D" else None
            oracle = bfs_region_labels(field, regs.signs, variant, nbr)
            if not np.array_equal(regs.label, oracle):
                labels_ok = False
        if not (
            counts["B"] <= counts["A"]
            and counts["C"] <= counts["A"]
            and counts["D"] <= counts["A"]
        ):
            coarsening_ok = False
    ok = coarsening_ok and labels_ok
    gate(
        6,
        ok,
        f"100 fields: coarsening {'ok' if coarsening_ok else 'violated'}, "
        f"labels {'match BFS' if labels_ok else 'diverge'}",
    )


def test_c07_measure_oracles():
    rng = np.random.default_rng(7)
    comp_ok = True
    worst = dict.fromkeys(("domain_area", "range_area", "hypervolume"), 0.0)
    for _ in range(100):
        field = random_sign_field(rng, 5, 4)
        js = compute_jacobi_set(field)
        if component_count(field, js) != bfs_edge_components(js.edges):
            comp_ok = False
        signs = orientation_signs(field)
        assignment = assign_degenerate(field, signs)
        regs = build_regions(field, assignment, variant="A")
        graph = build_graph(field, regs)
        for r in range(len(regs)):
            tris = np.flatnonzero(regs.label == r)
            area = [float(field.domain_areas[t]) for t in tris]
            image = [abs(float(field.dets[t])) * a for t, a in zip(tris, area)]
            brute = {
                "domain_area": sum(area),
                "range_area": sum(image),
                "hypervolume": sum(a * i for a, i in zip(area, image)),
            }
            for name, want in brute.items():
                got = float(getattr(graph, name)[r])
                rel = abs(got - want) / max(abs(want), 1e-300)
                worst[name] = max(worst[name], rel)
    ok = comp_ok and max(worst.values()) <= 1e-12
    gate(
        7,
        ok,
        f"component counts {'match BFS' if comp_ok else 'diverge'}, worst rel dev "
        + ", ".join(f"{name} {dev:.2e}" for name, dev in worst.items()),
    )


def test_c08_baseline_identities():
    rng = np.random.default_rng(8)
    c1, c2 = 0.123456789012345, -7.0000000123
    grid = GridField(9, 7, 1.0, 1.0, np.full(63, c1), np.full(63, c2))
    bin_out = binomial_filter(grid)
    gauss_out = gaussian_filter(grid, 2.0)
    const_ok = (
        np.array_equal(bin_out.f, grid.f)
        and np.array_equal(bin_out.g, grid.g)
        and np.array_equal(gauss_out.f, grid.f)
        and np.array_equal(gauss_out.g, grid.g)
    )
    field = triangulate_structured(5, 5, (1.0, 1.0), rng.normal(size=25), rng.normal(size=25))
    zero = loop_subdivide(field, 0)
    ident_ok = (
        np.array_equal(zero.positions, field.positions)
        and np.array_equal(zero.values, field.values)
        and np.array_equal(zero.triangles, field.triangles)
    )
    two = loop_subdivide(field, 2)
    count_ok = two.n_triangles == 16 * field.n_triangles
    area_rel = abs(two.domain_areas.sum() - field.domain_areas.sum()) / field.domain_areas.sum()
    ok = const_ok and ident_ok and count_ok and area_rel <= 1e-10
    gate(
        8,
        ok,
        f"filters constant-exact {const_ok}, loop identity {ident_ok}, "
        f"x16 {count_ok}, area rel dev {area_rel:.2e}",
    )


def test_c09_cmd_simplify_determinism(tmp_path):
    rng = np.random.default_rng(9)
    field, has_island = noisy_island_field(rng, 14, 14, 2)
    assert has_island
    src = tmp_path / "input.bsf"
    save_bsf(field, src)
    _, _, _, graph = neighborhood_graph(field, "A")
    hvs = sorted(graph.hypervolume.tolist())
    threshold = str(0.5 * (hvs[-2] + hvs[-1]))
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}.bsf"
        report = tmp_path / f"report_{tag}.json"
        code = main(
            [
                "simplify", str(src),
                "--variant", "A", "--threshold", threshold,
                "--out", str(out), "--report", str(report),
            ]
        )
        assert code == 0
        blobs.append((out.read_bytes(), report.read_bytes()))
    ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    gate(9, ok, f"reruns byte-identical: field {blobs[0][0] == blobs[1][0]}, "
                f"report {blobs[0][1] == blobs[1][1]}")


def test_c10_cylinder_flow_soft_reproduction():
    path = os.environ.get("JSS_CYLINDER_FLOW", "data/cylinder_flow.bsf")
    if not os.path.exists(path):
        print("CRITERION 10: SKIP - cylinder flow dataset not supplied "
              "(set JSS_CYLINDER_FLOW or place data/cylinder_flow.bsf)")
        pytest.skip("cylinder flow dataset not supplied")
    field = load_field(path)
    m = measures(field)
    print(
        f"CRITERION 10 (soft targets): original length {m['length']:.4f} "
        f"(reference 92.4614), components {m['components']} (reference 679)"
    )
    t0 = time.perf_counter()
    report = simplify(field, "A", 0.0001)
    elapsed = time.perf_counter() - t0
    ok = (
        report.after["components"] < 70
        and report.after["length"] < 55.0
        and elapsed < 20.0
    )
    gate(
        10,
        ok,
        f"CA variant A at t=0.0001: components {report.after['components']} (<70), "
        f"length {report.after['length']:.4f} (<55), {elapsed:.1f}s (<20)",
    )


def test_c11_termination_guard():
    # Adversary: select every cell, so no cell has an unselected neighbor
    # and no sweep can make progress; the guard must fire, not hang.
    rng = np.random.default_rng(11)
    field, _ = noisy_island_field(rng, 12, 12, 3)
    seeds = field.n_triangles
    t0 = time.perf_counter()
    report = simplify(field, "A", np.inf)
    elapsed = time.perf_counter() - t0
    ok = (
        report.status in (CollapseStatus.OSCILLATED, CollapseStatus.EXHAUSTED)
        and report.iterations <= 10 * seeds
        and elapsed < 60.0
    )
    gate(
        11,
        ok,
        f"status {report.status.value} after {report.iterations} sweep(s), {elapsed:.2f}s",
    )
