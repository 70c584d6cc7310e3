"""Orientation regions and the neighborhood graph over them.

Triangles not separated by a Jacobi edge are merged into regions; the
neighborhood graph has one node per region and one edge per pair of
regions that touch across at least one mesh edge. Four variants control
extra merges across shared vertices:

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
regions for collapsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .jacobi import assign_degenerate, effective_signs, orientation_signs, point_neighbor_sums
from .mesh import TriField
from .unionfind import connected_labels

VARIANTS = ("A", "B", "C", "D")


@dataclass
class Region:
    id: int
    sign: int
    triangles: np.ndarray


@dataclass
class RegionDecomposition:
    variant: str
    label: np.ndarray
    regions: list
    field: TriField = dataclass_field(repr=False, default=None)
    signs: np.ndarray = dataclass_field(repr=False, default=None)

    def __len__(self):
        return len(self.regions)


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
    variant: str
    nodes: list
    edges: list


def build_regions(field: TriField, signs, assignment, variant: str = "A"):
    """Decompose the triangles into orientation regions: the connected
    components of the variant's merge links, labelled by first occurrence.

    ``assignment`` is used as-is for variants A and D; variants B and C
    re-derive degenerate signs with their stated preference (negative for
    B, positive for C) before merging.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    signs = np.asarray(signs, dtype=np.int8)
    if variant == "B":
        assignment = assign_degenerate(field, signs, prefer=-1)
    elif variant == "C":
        assignment = assign_degenerate(field, signs, prefer=1)
    eff = effective_signs(field, signs, assignment)

    m = field.n_triangles
    et = field.edge_triangles
    et = et[et[:, 1] >= 0]
    et = et[eff[et[:, 0]] == eff[et[:, 1]]]
    a, b = et[:, 0], et[:, 1]
    if variant != "A":
        sa, sb = _star_links(field, eff, variant)
        a, b = np.concatenate([a, sa]), np.concatenate([b, sb])
        del sa, sb
    del et
    label = connected_labels(m, a, b)
    del a, b

    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    regions = [
        Region(id=r, sign=int(eff[tri_ids[0]]), triangles=tri_ids)
        for r, tri_ids in enumerate(np.split(order, bounds) if m else [])
    ]
    return RegionDecomposition(
        variant=variant, label=label, regions=regions, field=field, signs=eff
    )


def _star_links(field: TriField, eff: np.ndarray, variant: str):
    """Extra merge links of variants B-D as triangle pairs ``(a, b)``.

    Sorting the vertex-star entries by (vertex, key) puts the triangles of
    one star that share a key next to each other; linking neighbours in
    that order connects them as the full pairwise merge would. The key is
    the wanted sign for B and C, whose other triangles take no part, and
    (sign, point-neighborhood sum) for D.
    """
    vertex = field.triangles.ravel()
    tid = np.repeat(np.arange(field.n_triangles), 3)
    if variant == "D":
        key = point_neighbor_sums(field, eff)
        order = np.lexsort((key[tid], eff[tid], vertex))
    else:
        keep = eff[tid] == (-1 if variant == "B" else 1)
        vertex, tid = vertex[keep], tid[keep]
        del keep
        order = np.argsort(vertex, kind="stable")
    vertex, tid = vertex[order], tid[order]
    del order
    link = vertex[1:] == vertex[:-1]
    del vertex
    lo, hi = tid[:-1], tid[1:]
    if variant == "D":
        link &= (eff[lo] == eff[hi]) & (key[lo] == key[hi])
    return lo[link], hi[link]


def build_graph(field: TriField, regions: RegionDecomposition) -> NeighborhoodGraph:
    """Aggregate per-node metrics and connect regions that share a mesh edge."""
    label = regions.label
    areas = field.domain_areas
    range_areas = np.abs(field.dets) * areas
    hv = areas * range_areas
    n = len(regions.regions)
    node_area = np.bincount(label, weights=areas, minlength=n)
    node_range = np.bincount(label, weights=range_areas, minlength=n)
    node_hv = np.bincount(label, weights=hv, minlength=n)
    counts = np.bincount(label, minlength=n)
    nodes = [
        GraphNode(
            id=r.id,
            sign=r.sign,
            domain_area=float(node_area[r.id]),
            range_area=float(node_range[r.id]),
            hypervolume=float(node_hv[r.id]),
            triangle_count=int(counts[r.id]),
        )
        for r in regions.regions
    ]
    et = field.edge_triangles
    interior = et[:, 1] >= 0
    la = label[et[interior, 0]]
    lb = label[et[interior, 1]]
    differ = la != lb
    # One sortable key per region pair (lo, hi): ascending keys are the
    # pairs in lexicographic order.
    keys = np.unique(np.minimum(la, lb)[differ] * n + np.maximum(la, lb)[differ])
    edges = list(zip((keys // n).tolist(), (keys % n).tolist()))
    return NeighborhoodGraph(variant=regions.variant, nodes=nodes, edges=edges)


def _check_region(regions: RegionDecomposition, r: int) -> Region:
    if not 0 <= r < len(regions.regions):
        raise IndexError(f"region id {r} out of range")
    return regions.regions[r]


def region_domain_area(regions: RegionDecomposition, r: int) -> float:
    reg = _check_region(regions, r)
    return float(regions.field.domain_areas[reg.triangles].sum())


def region_range_area(regions: RegionDecomposition, r: int) -> float:
    reg = _check_region(regions, r)
    f = regions.field
    return float((np.abs(f.dets[reg.triangles]) * f.domain_areas[reg.triangles]).sum())


def region_hypervolume(regions: RegionDecomposition, r: int) -> float:
    """Sum over member triangles of domain area times range area."""
    reg = _check_region(regions, r)
    f = regions.field
    a = f.domain_areas[reg.triangles]
    return float((a * (np.abs(f.dets[reg.triangles]) * a)).sum())


def find_collapsible_cells(graph: NeighborhoodGraph, regions: RegionDecomposition, t: float):
    """Triangle ids of every region whose hypervolume is strictly below
    ``t``, in ascending order."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    picked = [n.id for n in graph.nodes if n.hypervolume < t]
    if not picked:
        return np.empty(0, dtype=np.int64)
    ids = np.concatenate([regions.regions[r].triangles for r in picked])
    return np.sort(ids)


def neighborhood_graph(field: TriField, variant: str = "A", epsilon: float = 0.0):
    """Convenience pipeline: signs, assignment, regions, and graph."""
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    regions = build_regions(field, signs, assignment, variant)
    graph = build_graph(field, regions)
    return signs, assignment, regions, graph


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-" if sign < 0 else "0"


def graph_to_json(graph: NeighborhoodGraph) -> dict:
    return {
        "variant": graph.variant,
        "nodes": [
            {
                "id": n.id,
                "sign": _sign_char(n.sign),
                "domain_area": n.domain_area,
                "range_area": n.range_area,
                "hv": n.hypervolume,
                "triangles": n.triangle_count,
            }
            for n in graph.nodes
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }


def graph_to_dot(graph: NeighborhoodGraph) -> str:
    lines = [f"graph neighborhood_{graph.variant} {{"]
    for n in graph.nodes:
        lines.append(f'  {n.id} [label="{n.id}|{_sign_char(n.sign)}|{n.hypervolume!r}"];')
    for a, b in graph.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
