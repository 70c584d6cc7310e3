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

Candidates are scored in chunks. At the first cell of each run of at most
``CHUNK_CELLS`` cells of a sweep's order, :func:`score_cells` scores every
candidate of every cell of the run that could be collapsed at that moment,
in one numpy pass: flips, range-area growth, the determinants after the
move, and the triangles that would flip or leave a zero determinant. When
the walk reaches a cell it uses the stored scores, unless something they
read has changed since: a commit moved a vertex of one of the candidates'
affected triangles (a commit stamps every vertex of the group it moves),
or one of those triangles entered or left the worklist. The affected
triangles include the cell and its edge neighbors, whose membership picks
the candidates. A stale cell is scored again, alone, by the same kernel.
A run also ends early once the groups at the corners of its cells hold
``CHUNK_GROUP_VERTICES`` vertices: a candidate's working set is the stars
of its merged group, so this bounds a chunk's memory when groups grow
large.

This gives the result of scoring each cell when the walk reaches it, bit
for bit. The scores of a cell read only the worklist membership of its
affected triangles and the values, groups and determinants of their
vertices, and the checks above see every change to those. The arithmetic
is the per-cell arithmetic: one ``_edge_cross`` per triangle on the same
values, and, for the candidates of a cell that tie on fewest flips (the
only ones growth can order), the range-area growth of each summed by its
own ``.sum()`` over its triangles in ascending order. A commit stores the
scored determinants of the winner, which equal a recomputation after the
move, through :func:`apply_collapse_variant`. The flip repairs and
re-queues it triggers are filtered against the live worklist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from time import perf_counter

import numpy as np

from .jacobi import compute_jacobi_set, jacobi_measures, measures
from .mesh import TriField
from .regions import build_graph, build_regions, find_collapsible_cells

DEFAULT_MAX_ENTRIES = 16
DEFAULT_SNAPSHOT_WINDOW = 64
DEFAULT_SWEEP_CAP_FACTOR = 10
# Cells of a sweep's order scored per `score_cells` call. Measured on the
# 330x165 benchmark field, chunks of 64 to 1,024 cells ran equally fast;
# scoring a whole sweep at once raised the peak memory by about 15 MB.
CHUNK_CELLS = 256
# A chunk also ends once the vertex groups at its cells' corners hold this
# many vertices in all. Each candidate moves the stars of two of them, so a
# 256-cell chunk of 200-vertex groups needed about 120 MB. On the benchmark
# inputs a 256-cell chunk holds at most about 1,500, so none ends early.
CHUNK_GROUP_VERTICES = 2048


class CollapseStatus(Enum):
    COMPLETED = "completed"
    OSCILLATED = "oscillated"
    EXHAUSTED = "exhausted"


@dataclass
class CollapseVariant:
    """One scored way to collapse a cell: assign ``target_value`` to the
    merged group of ``edge``, degenerating the cell's image to a line.
    ``tids`` are the triangles with a moved vertex, ascending, and
    ``dets`` their determinants after the move."""

    edge: tuple
    target_value: np.ndarray
    tids: np.ndarray
    dets: np.ndarray


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
    earlier collapses never drift apart. ``label[v]`` names the group of
    ``v``; a merge gives the merged group the label of its larger part.
    ``size[label[v]]`` counts the members of that group, and
    ``members[label[v]]`` lists them once there are two or more.
    ``stamp[v]`` is the merge count at which ``v`` last moved: a merge
    stamps every member of the merged group, also when no value changes.
    """

    def __init__(self, n_vertices: int):
        self.label = np.arange(n_vertices, dtype=np.int64)
        self.size = np.ones(n_vertices, dtype=np.int64)
        self.stamp = np.zeros(n_vertices, dtype=np.int64)
        self.merges = 0
        self.members: dict[int, list] = {}

    def merge(self, u: int, v: int) -> np.ndarray:
        """Merge both groups, stamp every member as moved, and return the
        members as an index array."""
        lu, lv = int(self.label[u]), int(self.label[v])
        keep, merged = lu, self.members.get(lu, [u])
        if lu != lv:
            mu, mv = self.members.pop(lu, merged), self.members.pop(lv, [v])
            merged = mu + mv
            keep = lu if len(mu) >= len(mv) else lv
            self.size[keep] = len(merged)
            self.members[keep] = merged
        ids = np.array(merged, dtype=np.int64)
        self.label[ids] = keep
        self.merges += 1
        self.stamp[ids] = self.merges
        return ids


class Worklist(set):
    """The cells selected for collapse.

    A set of triangle ids, mirrored in the boolean ``mask``; ``stamp[t]``
    is the count of worklist changes at which ``t`` last entered or left.
    Change it only through `add` and `discard`, which keep both in step.
    """

    def __init__(self, n_triangles: int):
        super().__init__()
        self.mask = np.zeros(n_triangles, dtype=bool)
        self.stamp = np.zeros(n_triangles, dtype=np.int64)
        self.changes = 0

    def add(self, t: int) -> None:
        super().add(t)
        self._stamp(t, True)

    def discard(self, t: int) -> None:
        super().discard(t)
        self._stamp(t, False)

    def _stamp(self, t: int, member: bool) -> None:
        self.mask[t] = member
        self.changes += 1
        self.stamp[t] = self.changes


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
    return sum(1 for n in field.neighbors[c].tolist() if n >= 0 and n not in cl)


def _open_sides(field: TriField, cells: np.ndarray, cl: Worklist) -> np.ndarray:
    """`cell_neighborhood` of every cell in ``cells`` at once."""
    nbr = field.neighbors[cells]
    return ((nbr >= 0) & ~cl.mask[nbr]).sum(axis=1)


@dataclass
class CellScores:
    """Every candidate collapse of a batch of cells, scored against one
    state of the field, the worklist and the vertex groups.

    The candidates of ``cells[k]`` are ``cand_start[k] <= j <
    cand_start[k + 1]``. Candidate ``j`` moves the merged group of
    ``edges[j]`` to ``target[j]``; the triangles with a moved vertex are
    ``tids[p]`` for ``pair_start[j] <= p < pair_start[j + 1]``,
    ascending, and ``new_dets[p]`` is their determinant after the move.
    ``flipped[p]`` marks the ones whose orientation crosses between
    positive and negative (never the cell: its determinant becomes 0),
    ``requeue[p]`` those whose determinant leaves zero, ``growth[p]`` the
    change of range area; ``flips[j]`` counts flipped ones outside ``cl``.
    """

    cells: list
    edges: list
    target: np.ndarray
    flips: list
    cand_start: list
    pair_start: list
    tids: np.ndarray
    corners: np.ndarray
    new_dets: np.ndarray
    growth: np.ndarray
    flipped: np.ndarray
    requeue: np.ndarray
    scored_at: tuple

    def best(self, k: int) -> int:
        """The candidate of ``cells[k]`` with (fewest flips, smallest
        range-area growth, lowest edge ids), compared in ascending edge
        order like a per-cell loop; growth is summed only on a flip tie."""
        a, b = self.cand_start[k], self.cand_start[k + 1]
        flips = self.flips[a:b]
        fewest = min(flips)
        if flips.count(fewest) == 1:
            return a + flips.index(fewest)
        tied = [j for j in range(a, b) if self.flips[j] == fewest]
        tied.sort(key=self.edges.__getitem__)
        return min(tied, key=lambda j: (self.delta(j), self.edges[j]))

    def delta(self, j: int) -> float:
        """Range-area growth of candidate ``j``, summed as ``.sum()`` sums its run."""
        return float(np.add.reduce(self.growth[self._run(j)]))

    def fresh(self, k: int, cl: Worklist, groups: VertexGroups) -> bool:
        """True while nothing the scores of ``cells[k]`` read has changed
        since they were made: no vertex of a candidate's affected
        triangles moved, and none of those triangles entered or left the
        worklist.

        The affected triangles include the cell and its edge neighbors,
        whose membership picks the candidates: each candidate moves two
        of the cell's three vertices, and each edge neighbor holds two of
        them. An edge neighbor can leave the worklist with no vertex
        moving (the discard of a cell whose determinant is already zero);
        any other affected triangle enters or leaves only when one of its
        vertices moves, or with a zero determinant, which never counts as
        a flip.
        """
        p0 = self.pair_start[self.cand_start[k]]
        p1 = self.pair_start[self.cand_start[k + 1]]
        merges, changes = self.scored_at
        return bool(
            np.maximum.reduce(groups.stamp.take(self.corners[p0:p1]), None) <= merges
            and np.maximum.reduce(cl.stamp.take(self.tids[p0:p1])) <= changes
        )

    def variant(self, j: int) -> CollapseVariant:
        p = self._run(j)
        return CollapseVariant(self.edges[j], self.target[j], self.tids[p], self.new_dets[p])

    def repairs(self, j: int) -> tuple[list, list]:
        """Triangles that candidate ``j`` flips, and those it moves off zero."""
        p = self._run(j)
        tids = self.tids[p]
        return tids[self.flipped[p]].tolist(), tids[self.requeue[p]].tolist()

    def _run(self, j: int) -> slice:
        return slice(self.pair_start[j], self.pair_start[j + 1])


def score_cells(field: TriField, cells, cl: Worklist, groups: VertexGroups) -> CellScores:
    """Simulate every candidate collapse of every cell in ``cells`` in
    one pass, without touching the field.

    Candidate edges depend on how many edge neighbors are in ``cl``: with
    none, all three edges; with one, the shared edge plus any mesh
    boundary edges; with two or three, the shared edges. Each candidate
    moves both endpoints and their equal-value groups to the midpoint of
    the endpoint values.
    """
    cells = np.asarray(cells, dtype=np.int64)
    corner_rows = field.triangles.take(cells, axis=0)
    edges, moved, cand_start = [], [], [0]
    for corner, labels, nbr in zip(
        corner_rows.tolist(),
        groups.label.take(corner_rows).tolist(),
        field.neighbors.take(cells, axis=0).tolist(),
    ):
        selected = [n in cl for n in nbr]  # -1, no neighbor, is never in cl
        n_selected = sum(selected)
        for e, f in ((0, 1), (1, 2), (2, 0)):
            if selected[e] or not n_selected or (n_selected == 1 and nbr[e] < 0):
                u, v, lu, lv = corner[e], corner[f], labels[e], labels[f]
                edges.append((u, v) if u < v else (v, u))
                group = groups.members.get(lu, [u])
                moved.append(group if lu == lv else group + groups.members.get(lv, [v]))
        cand_start.append(len(edges))
    n_cand = len(edges)

    # Affected triangles: the stars of each candidate's moved vertices,
    # one sorted run per candidate.
    sizes = [len(group) for group in moved]
    moved_ids = np.fromiter(chain.from_iterable(moved), np.int64, sum(sizes))
    star_tids, star_sizes = field.star_entries(moved_ids)
    m = field.n_triangles
    pairs = np.arange(n_cand).repeat(sizes).repeat(star_sizes) * m + star_tids
    pairs.sort()
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    cand, tids = np.divmod(pairs[first], m)
    pair_start = cand.searchsorted(np.arange(n_cand + 1))

    ends = np.array(edges, dtype=np.int64).reshape(n_cand, 2)
    end_labels = groups.label.take(ends).take(cand, axis=0)
    corners = field.triangles.take(tids, axis=0)
    label = groups.label.take(corners)
    moves = (label == end_labels[:, :1]) | (label == end_labels[:, 1:])
    end_values = field.values.take(ends, axis=0)
    target = 0.5 * (end_values[:, 0] + end_values[:, 1])
    new_dets = field.compute_dets(tids, moves, target.take(cand, axis=0), corners)
    old_dets = field.dets.take(tids)
    flipped = np.sign(old_dets) * np.sign(new_dets) < 0
    flips = np.bincount(cand[flipped & ~cl.mask.take(tids)], minlength=n_cand)
    return CellScores(
        cells=cells.tolist(),
        edges=edges,
        target=target,
        flips=flips.tolist(),
        cand_start=cand_start,
        pair_start=pair_start.tolist(),
        tids=tids,
        corners=corners,
        new_dets=new_dets,
        growth=(np.abs(new_dets) - np.abs(old_dets)) * field.domain_areas.take(tids),
        flipped=flipped,
        requeue=~((old_dets > 0) | (old_dets < 0)) & (new_dets != 0.0),
        scored_at=(groups.merges, cl.changes),
    )


def apply_collapse_variant(field: TriField, variant: CollapseVariant, groups: VertexGroups) -> None:
    """Merge the groups of the variant's endpoints, assign the target value
    to every member, and store the scored determinants. ``variant`` must
    have been scored against the current field and ``groups``."""
    field.set_vertex_values(
        groups.merge(*variant.edge), variant.target_value, variant.tids, variant.dets
    )


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
    js = compute_jacobi_set(field, epsilon)
    before = jacobi_measures(field, js)
    regions = build_regions(field, js.signs, js.effective, variant)
    graph = build_graph(field, regions)
    seeds = find_collapsible_cells(graph, regions, threshold)

    history = CollapseHistory(max_entries=max_entries, snapshot_window=snapshot_window)
    groups = VertexGroups(field.n_vertices)
    cl = Worklist(field.n_triangles)
    ever: set[int] = set()
    for c in seeds.tolist():
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
        cells = np.fromiter(cl, np.int64, len(cl))
        order = cells[np.lexsort((cells, -_open_sides(field, cells, cl)))].tolist()
        chunk_end = 0
        for i, c in enumerate(order):
            if i == chunk_end:
                chunk = np.array(order[i : i + CHUNK_CELLS])
                live = cl.mask[chunk] & (field.dets[chunk] != 0.0)
                live &= _open_sides(field, chunk, cl) > 0
                corner_groups = groups.size[groups.label[field.triangles[chunk]]].sum(axis=1)
                load = np.cumsum(corner_groups * live)
                n = max(1, int(np.searchsorted(load, CHUNK_GROUP_VERTICES, side="right")))
                chunk_end = i + n
                chunk_scores = score_cells(field, chunk[:n][live[:n]], cl, groups)
                index = {t: k for k, t in enumerate(chunk_scores.cells)}
            if c not in cl:
                continue
            if field.dets[c] == 0.0:
                cl.discard(c)  # already collapsed, nothing to apply
                continue
            if cell_neighborhood(cl, field, c) == 0:
                continue
            scores, k = chunk_scores, index.get(c)
            if k is None or not scores.fresh(k, cl, groups):
                scores, k = score_cells(field, [c], cl, groups), 0
            j = scores.best(k)
            apply_collapse_variant(field, scores.variant(j), groups)
            collapsed += 1
            cl.discard(c)

            flipped, requeue = scores.repairs(j)
            for t in flipped:
                if t not in cl:
                    cl.add(t)
                    ever.add(t)
                    history.record_entry(t)
                    flip_repairs += 1
            # A touched cell that was collapsed before must stay collapsed;
            # re-queue it if a value move broke its zero determinant.
            for t in requeue:
                if t in ever and t not in cl:
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
