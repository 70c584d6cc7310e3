"""Iterative simplification by collapsing cells of low-hypervolume regions.

The worklist algorithm selects every triangle of each region whose
hypervolume falls below a threshold, then repeatedly collapses border
cells: one edge of the cell is chosen and both endpoints are assigned the
same value, which zeroes the cell's determinant. Candidate edges depend on
how many edge neighbors are themselves selected (interior cells with all
neighbors selected are skipped until the region has shrunk to them), and
among the candidates the one with the fewest orientation flips in the
point neighborhood wins, then the smallest growth of range area, then the
lowest edge ids.

Vertices merged by a collapse stay merged: later collapses that touch a
merged vertex move its whole equal-value group together, so cells
collapsed earlier keep a determinant of exactly zero. Oscillation guards
(re-entry counts, repeated worklist snapshots, and a sweep cap) bound the
repair loop that re-queues flipped neighbors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from time import perf_counter

import numpy as np

from .jacobi import (
    assign_degenerate,
    extract_jacobi_set,
    jacobi_measures,
    measures,
    orientation_signs,
)
from .mesh import TriField
from .regions import build_graph, build_regions, find_collapsible_cells
from .unionfind import UnionFind

DEFAULT_MAX_ENTRIES = 16
DEFAULT_SNAPSHOT_WINDOW = 64
DEFAULT_SWEEP_CAP_FACTOR = 10


class CollapseStatus(Enum):
    COMPLETED = "completed"
    OSCILLATED = "oscillated"
    EXHAUSTED = "exhausted"


@dataclass
class CollapseVariant:
    """One way to collapse a cell: assign ``target_value`` to both
    endpoints of ``edge``, degenerating the cell's image to a line."""

    edge: tuple
    target_value: np.ndarray


@dataclass
class CollapseReport:
    status: CollapseStatus
    collapsed_cells: int
    flip_repairs: int
    iterations: int
    residual_cl: list
    before: dict
    after: dict
    variant: str
    threshold: float
    elapsed_ms: float | None = None

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "status": self.status.value,
            "variant": self.variant,
            "threshold": self.threshold,
            "collapsed_cells": self.collapsed_cells,
            "flip_repairs": self.flip_repairs,
            "iterations": self.iterations,
            "residual_cl": [int(t) for t in self.residual_cl],
            "before": self.before,
            "after": self.after,
        }
        if include_elapsed and self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out


class VertexGroups:
    """Equal-value vertex groups created by collapses.

    Collapsing an edge merges its endpoints' groups; every member of the
    merged group is assigned the common target value, so pairs glued by
    earlier collapses never drift apart.
    """

    def __init__(self, n_vertices: int):
        self._uf = UnionFind(n_vertices)
        self._members: dict[int, list] = {}

    def members(self, v: int) -> list:
        return self._members.get(self._uf.find(v), [v])

    def merged_members(self, u: int, v: int) -> list:
        """Members of the union of both groups, without merging."""
        mu = self.members(u)
        if self._uf.connected(u, v):
            return mu
        return mu + self.members(v)

    def merge(self, u: int, v: int) -> list:
        mu = self.merged_members(u, v)
        root = self._uf.union(u, v)
        self._members[root] = mu
        return mu


class CollapseHistory:
    """Worklist history used by the oscillation guard."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        snapshot_window: int = DEFAULT_SNAPSHOT_WINDOW,
    ):
        self.max_entries = max_entries
        self.entry_counts: dict[int, int] = {}
        self.snapshots = deque(maxlen=snapshot_window)
        self.over_entered = False
        self.snapshot_repeated = False

    def record_entry(self, cell: int) -> None:
        count = self.entry_counts.get(cell, 0) + 1
        self.entry_counts[cell] = count
        if count > self.max_entries:
            self.over_entered = True

    def record_sweep(self, cl) -> None:
        snapshot = hash(frozenset(cl))
        if snapshot in self.snapshots:
            self.snapshot_repeated = True
        self.snapshots.append(snapshot)


def cells_oscillated(history: CollapseHistory) -> bool:
    """True once any cell re-entered the worklist too often or a worklist
    snapshot repeated within the recent window."""
    return history.over_entered or history.snapshot_repeated


def cell_neighborhood(cl, field: TriField, c: int) -> int:
    """Number of edge-adjacent triangles of ``c`` that exist and are not
    selected for collapse; 0 means the cell is interior and is skipped."""
    return int(sum(1 for n in field.neighbors[c] if n >= 0 and int(n) not in cl))


def possible_collapse_variants(field: TriField, cl, c: int) -> list:
    """Candidate edges of ``c``, by the number of selected edge neighbors.

    0 selected: all three edges. 1 selected: the shared edge plus any mesh
    boundary edges. 2 selected: the two shared edges. Returns (min, max)
    vertex pairs, ascending.
    """
    in_cl = []
    boundary = []
    for e in range(3):
        n = int(field.neighbors[c, e])
        if n < 0:
            boundary.append(e)
        elif n in cl:
            in_cl.append(e)
    if not in_cl:
        slots = [0, 1, 2]
    elif len(in_cl) == 1:
        slots = in_cl + boundary
    else:
        slots = in_cl
    return sorted(field.edge_endpoints(c, e) for e in slots)


def evaluate_variant(
    field: TriField,
    c: int,
    edge,
    cl=frozenset(),
    groups: VertexGroups | None = None,
):
    """Simulate collapsing ``edge`` of cell ``c`` without touching the field.

    Both endpoints (and their equal-value groups, when ``groups`` is
    given) move to the midpoint of the endpoint values. Returns
    ``(flips, range_area_delta, variant)`` where flips counts triangles
    around the moved vertices, outside ``cl`` and other than ``c``, whose
    orientation would cross between positive and negative, and the delta
    sums the change of range area over all affected triangles.
    """
    u, v = int(edge[0]), int(edge[1])
    target = 0.5 * (field.values[u] + field.values[v])
    moved = groups.merged_members(u, v) if groups is not None else [u, v]
    affected = field.incident_triangles(moved)

    old_dets = field.dets[affected]
    new_dets = field.compute_dets(affected, moved, target)
    crossed = np.sign(old_dets) * np.sign(new_dets) < 0
    flips = sum(1 for t in affected[crossed].tolist() if t != c and t not in cl)
    delta = float(((np.abs(new_dets) - np.abs(old_dets)) * field.domain_areas[affected]).sum())
    variant = CollapseVariant(edge=(min(u, v), max(u, v)), target_value=target)
    return flips, delta, variant


def find_best_collapse_variant(
    field: TriField,
    candidates,
    c: int,
    cl=frozenset(),
    groups: VertexGroups | None = None,
) -> CollapseVariant:
    """Pick the candidate with (fewest flips, smallest range-area growth,
    lowest edge ids), in that order."""
    if not candidates:
        raise ValueError("no collapse candidates")
    best = None
    for edge in candidates:
        flips, delta, variant = evaluate_variant(field, c, edge, cl, groups)
        key = (flips, delta, variant.edge)
        if best is None or key < best[0]:
            best = (key, variant)
    return best[1]


def apply_collapse_variant(
    field: TriField, variant: CollapseVariant, groups: VertexGroups | None = None
) -> None:
    """Assign the target value to both endpoints of the variant's edge
    (and to their merged group, when tracking groups)."""
    u, v = variant.edge
    moved = groups.merge(u, v) if groups is not None else [u, v]
    field.set_vertex_values(moved, variant.target_value)


def flipped_cell_neighbors(field: TriField, before_signs: dict, c: int) -> list:
    """Triangles from the snapshot whose orientation crossed between
    positive and negative; transitions through degenerate do not count."""
    flipped = []
    for t, s0 in before_signs.items():
        if t == c or s0 == 0:
            continue
        d = field.det(t)
        s1 = 1 if d > 0 else -1 if d < 0 else 0
        if s1 != 0 and s1 != s0:
            flipped.append(t)
    return sorted(flipped)


def simplify(
    field: TriField,
    variant: str = "A",
    threshold: float = 0.0,
    epsilon: float = 0.0,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    snapshot_window: int = DEFAULT_SNAPSHOT_WINDOW,
    sweep_cap_factor: int = DEFAULT_SWEEP_CAP_FACTOR,
) -> CollapseReport:
    """Run the full collapse loop on ``field`` (mutating it).

    Builds the neighborhood graph, seeds the worklist with all cells of
    regions below the hypervolume threshold, and sweeps it border-first
    until empty. Cells whose orientation flips as a side effect re-enter
    the worklist. Terminates with COMPLETED (worklist empty), OSCILLATED
    (guard tripped), or EXHAUSTED (sweep cap hit).
    """
    t0 = perf_counter()
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    before = jacobi_measures(field, extract_jacobi_set(field, signs, assignment))
    regions = build_regions(field, signs, assignment, variant)
    graph = build_graph(field, regions)
    seeds = find_collapsible_cells(graph, regions, threshold)

    history = CollapseHistory(max_entries=max_entries, snapshot_window=snapshot_window)
    groups = VertexGroups(field.n_vertices)
    cl: set[int] = set()
    ever: set[int] = set()
    for c in seeds:
        c = int(c)
        cl.add(c)
        ever.add(c)
        history.record_entry(c)

    sweep_cap = sweep_cap_factor * len(seeds)
    status = CollapseStatus.COMPLETED
    collapsed = 0
    flip_repairs = 0
    sweeps = 0
    while cl:
        sweeps += 1
        order = sorted(cl, key=lambda t: (-cell_neighborhood(cl, field, t), t))
        for c in order:
            if c not in cl:
                continue
            if field.det(c) == 0.0:
                cl.discard(c)  # already collapsed, nothing to apply
                continue
            if cell_neighborhood(cl, field, c) == 0:
                continue
            candidates = possible_collapse_variants(field, cl, c)
            best = find_best_collapse_variant(field, candidates, c, cl, groups)

            moved = groups.merged_members(*best.edge)
            affected = field.incident_triangles(moved)
            dets = field.dets[affected]
            before_signs = {
                int(t): (1 if d > 0 else -1 if d < 0 else 0)
                for t, d in zip(affected, dets)
            }
            apply_collapse_variant(field, best, groups)
            collapsed += 1
            cl.discard(c)

            for t in flipped_cell_neighbors(field, before_signs, c):
                if t not in cl:
                    cl.add(t)
                    ever.add(t)
                    history.record_entry(t)
                    flip_repairs += 1
            # A touched cell that was collapsed before must stay collapsed;
            # re-queue it if a value move broke its zero determinant.
            for t in sorted(before_signs):
                if before_signs[t] == 0 and t in ever and t not in cl:
                    if field.det(t) != 0.0:
                        cl.add(t)
                        history.record_entry(t)
        if not cl:
            break
        history.record_sweep(cl)
        if cells_oscillated(history):
            status = CollapseStatus.OSCILLATED
            break
        if sweeps >= sweep_cap:
            status = CollapseStatus.EXHAUSTED
            break

    after = measures(field, epsilon)
    elapsed_ms = (perf_counter() - t0) * 1000.0
    return CollapseReport(
        status=status,
        collapsed_cells=collapsed,
        flip_repairs=flip_repairs,
        iterations=sweeps,
        residual_cl=sorted(cl),
        before=before,
        after=after,
        variant=variant,
        threshold=float(threshold),
        elapsed_ms=elapsed_ms,
    )
