"""Orientation regions and the neighborhood graph over them.

Triangles not separated by a Jacobi edge are merged into regions; the
neighborhood graph has one node per region and one edge per pair of
regions that touch across at least one mesh edge. Four variants control
extra merges across shared vertices, each reading its row of
:func:`~jacobiset.jacobi.assign_degenerate` (the majority rule for A and D):

* ``A`` - edge merges only.
* ``B`` - also merge vertex-connected pairs that are both negative;
  degenerate triangles side with a negative neighbor whenever one exists.
* ``C`` - mirror image of B for positive pairs.
* ``D`` - merge vertex-connected pairs with the same sign whose point
  neighborhoods also sum to the same total orientation.

A region is a connected component of these merge links, found by one
vectorized labelling pass (:func:`connected_labels`); regions are
numbered in order of their lowest triangle id.

Each node carries domain area, range area, and hypervolume (the summed
per-triangle product of the two), the quantity thresholded to pick
regions for collapsing. :func:`build_graph` sums them for every region
at once, and its arrays are the one source of region measures. The
:class:`Region` and :class:`GraphNode` views (``regions.regions``,
``graph.nodes``) are built from the arrays on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .jacobi import MAJORITY, PREFER_NEGATIVE, PREFER_POSITIVE
from .jacobi import compute_jacobi_set, point_neighbor_sums
from .mesh import TriField
from .unionfind import connected_labels

# Each variant and the row of the degenerate assignment it merges by.
VARIANTS = {"A": MAJORITY, "B": PREFER_NEGATIVE, "C": PREFER_POSITIVE, "D": MAJORITY}


@dataclass
class Region:
    id: int
    sign: int
    triangles: np.ndarray


@dataclass
class RegionDecomposition:
    """Regions as arrays: ``label[t]`` is the region of triangle ``t`` and
    ``signs[t]`` its effective sign; ``len()`` is the region count.

    ``regions`` lists them as :class:`Region` objects, built on first use;
    the program itself reads only the arrays.
    """

    variant: str
    label: np.ndarray
    signs: np.ndarray = dataclass_field(repr=False)

    def __len__(self):
        # Labels are numbered by first occurrence, so the largest is the count less one.
        return int(self.label.max()) + 1 if len(self.label) else 0

    @cached_property
    def regions(self) -> "_RegionList":
        return _RegionList(self)


class _RegionList(Sequence):
    """The :class:`Region` of every region id. ``len`` builds none of
    them; the first item access splits the triangles by label."""

    def __init__(self, decomposition: RegionDecomposition):
        self._decomposition = decomposition
        self._items = None

    def __len__(self):
        return len(self._decomposition)

    def __getitem__(self, r):
        if self._items is None:
            d = self._decomposition
            order = np.argsort(d.label, kind="stable")
            bounds = np.flatnonzero(np.diff(d.label[order])) + 1
            self._items = [
                Region(id=i, sign=int(d.signs[tri_ids[0]]), triangles=tri_ids)
                for i, tri_ids in enumerate(np.split(order, bounds) if len(d) else [])
            ]
        return self._items[r]


@dataclass
class GraphNode:
    id: int
    sign: int
    domain_area: float
    range_area: float
    hypervolume: float
    triangle_count: int


@dataclass
class NeighborhoodGraph:
    """One node per region, as arrays indexed by region id, and the sorted
    ``(lo, hi)`` region pairs that share a mesh edge.

    ``nodes`` lists the nodes as :class:`GraphNode` objects, built on first
    use; the program itself reads only the arrays.
    """

    variant: str
    sign: np.ndarray
    domain_area: np.ndarray
    range_area: np.ndarray
    hypervolume: np.ndarray
    triangle_count: np.ndarray
    edges: list

    @cached_property
    def nodes(self) -> list:
        return [GraphNode(*row) for row in self._rows()]

    def _rows(self):
        """The fields of each :class:`GraphNode`, as Python scalars."""
        return zip(
            range(len(self.sign)),
            self.sign.tolist(),
            self.domain_area.tolist(),
            self.range_area.tolist(),
            self.hypervolume.tolist(),
            self.triangle_count.tolist(),
        )


def build_regions(field: TriField, assigned, *, variant: str):
    """Decompose the triangles into orientation regions: the connected
    components of the variant's merge links, labelled by first occurrence.

    ``assigned`` is the (3, m) array of effective signs that
    :func:`~jacobiset.jacobi.assign_degenerate` returns; the variant merges
    by its row, which is the result's ``signs``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if np.shape(assigned) != (3, field.n_triangles):
        raise ValueError(f"assigned signs must have shape (3, {field.n_triangles})")
    eff = assigned[VARIANTS[variant]]

    m = field.n_triangles
    et = field.edge_triangles
    same = (eff.take(et[:, 0]) == eff.take(et[:, 1])) & (et[:, 1] >= 0)
    a, b = np.compress(same, et[:, 0]), np.compress(same, et[:, 1])
    if variant != "A":
        sa, sb = _star_links(field, eff, variant)
        a, b = np.concatenate([a, sa]), np.concatenate([b, sb])
        del sa, sb
    label = connected_labels(m, a, b)
    del a, b
    return RegionDecomposition(variant=variant, label=label, signs=eff)


def _star_links(field: TriField, eff: np.ndarray, variant: str):
    """Extra merge links of variants B-D as triangle pairs ``(a, b)``.

    Listing the vertex-star entries of ``field.stars`` by (vertex, key)
    puts the triangles of one star that share a key next to each other;
    linking neighbours in that order connects them as the full pairwise
    merge would. The key is the wanted sign for B and C, whose other
    triangles take no part: the kept entries are in that order already.
    For D it is (sign, point-neighborhood sum), and the entries are sorted
    by it.
    """
    offsets, star_tids = field.stars
    vertex = np.arange(field.n_vertices).repeat(np.diff(offsets))
    if variant == "D":
        sums = point_neighbor_sums(field, eff)
        sums -= sums.min(initial=0)
        span = sums.max(initial=0) + 1
        # (vertex, sign, sum) packed into one int64 that sorts as the three
        # keys would, built in place.
        key = vertex * 3
        del vertex
        key += eff.take(star_tids)
        key += 1
        key *= span
        key += sums.take(star_tids)
        del sums
        order = np.argsort(key, kind="stable")
        key = key.take(order)
        tid = star_tids.take(order)
    else:
        keep = eff.take(star_tids) == (-1 if variant == "B" else 1)
        tid = np.compress(keep, star_tids)
        key = np.compress(keep, vertex)
    link = key[1:] == key[:-1]
    del key
    return np.compress(link, tid[:-1]), np.compress(link, tid[1:])


def build_graph(field: TriField, regions: RegionDecomposition) -> NeighborhoodGraph:
    """Aggregate per-node metrics and connect regions that share a mesh edge."""
    label = regions.label
    areas = field.domain_areas
    range_areas = np.abs(field.dets) * areas
    n = len(regions)
    # Regions are numbered by first occurrence, so a region's lowest
    # triangle is where the running maximum of the labels steps up.
    first = np.flatnonzero(np.diff(np.maximum.accumulate(label), prepend=-1))
    et = field.edge_triangles
    la = label.take(et[:, 0])
    lb = label.take(et[:, 1])
    differ = (la != lb) & (et[:, 1] >= 0)
    la, lb = np.compress(differ, la), np.compress(differ, lb)
    # One sortable key per region pair (lo, hi): ascending keys are the
    # pairs in lexicographic order.
    keys = np.unique(np.minimum(la, lb) * n + np.maximum(la, lb))
    edges = list(zip((keys // n).tolist(), (keys % n).tolist()))
    return NeighborhoodGraph(
        variant=regions.variant,
        sign=regions.signs.take(first),
        domain_area=np.bincount(label, weights=areas, minlength=n),
        range_area=np.bincount(label, weights=range_areas, minlength=n),
        hypervolume=np.bincount(label, weights=areas * range_areas, minlength=n),
        triangle_count=np.bincount(label, minlength=n),
        edges=edges,
    )


def find_collapsible_cells(graph: NeighborhoodGraph, regions: RegionDecomposition, t: float):
    """Triangle ids of every region whose hypervolume is strictly below
    ``t``, in ascending order."""
    if not t >= 0:
        raise ValueError("threshold must be >= 0")
    return np.flatnonzero(graph.hypervolume[regions.label] < t)


def neighborhood_graph(field: TriField, variant: str = "A", epsilon: float = 0.0):
    """Convenience pipeline: ``(signs, effective, regions, graph)``, the
    orientation and effective signs as in :class:`~jacobiset.jacobi.JacobiSet`,
    then the variant's regions and graph."""
    js = compute_jacobi_set(field, epsilon)
    regions = build_regions(field, js.assigned, variant=variant)
    return js.signs, js.effective, regions, build_graph(field, regions)


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-" if sign < 0 else "0"


def graph_to_json(graph: NeighborhoodGraph) -> dict:
    return {
        "variant": graph.variant,
        "nodes": [
            {
                "id": r,
                "sign": _sign_char(sign),
                "domain_area": domain_area,
                "range_area": range_area,
                "hv": hv,
                "triangles": count,
            }
            for r, sign, domain_area, range_area, hv, count in graph._rows()
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }


def graph_to_dot(graph: NeighborhoodGraph) -> str:
    lines = [f"graph neighborhood_{graph.variant} {{"]
    for r, sign, _, _, hv, _ in graph._rows():
        lines.append(f'  {r} [label="{r}|{_sign_char(sign)}|{hv!r}"];')
    for a, b in graph.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
