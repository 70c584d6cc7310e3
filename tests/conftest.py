"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from jacobiset import TriField, triangulate_structured
from jacobiset.fileio import GridField, ParseError
from jacobiset.mesh import TriangleError
from jacobiset import collapse
from jacobiset.collapse import (
    CollapseReport,
    CollapseStatus,
    VertexGroups,
    Worklist,
    score_cells,
)
from jacobiset.jacobi import (
    MAJORITY,
    PREFER_NEGATIVE,
    PREFER_POSITIVE,
    assign_degenerate,
    extract_jacobi_set,
    jacobi_measures,
    measures,
    orientation_signs,
)
from jacobiset.regions import build_graph, build_regions, find_collapsible_cells


def unit_triangle(values) -> TriField:
    """Single triangle (0,0), (1,0), (0,1) with the given 3x2 values."""
    return TriField([(0, 0), (1, 0), (0, 1)], values, [(0, 1, 2)])


def quad_field(f, g) -> TriField:
    """Unit square split along the diagonal (0,0)-(1,1).

    Vertices run (0,0), (1,0), (1,1), (0,1); triangles (0,1,2), (0,2,3).
    """
    positions = [(0, 0), (1, 0), (1, 1), (0, 1)]
    values = np.column_stack([f, g])
    return TriField(positions, values, [(0, 1, 2), (0, 2, 3)])


def grid_field(w, h, fn_f, fn_g, spacing=(1.0, 1.0)) -> TriField:
    """Structured field with values sampled from two callables of (x, y)."""
    xs = np.arange(w) * spacing[0]
    ys = np.arange(h) * spacing[1]
    xx = np.tile(xs, h)
    yy = np.repeat(ys, w)
    return triangulate_structured(w, h, spacing, fn_f(xx, yy), fn_g(xx, yy))


def twin_pair_field() -> TriField:
    """Triangles 0 and 1 on the same three vertices, so each borders the
    other across all three edges, and one more triangle at each of their
    vertices: (0,1,2), (0,1,2), (0,3,4), (1,5,6), (2,7,8). Values are 0."""
    positions = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (2, 0), (1, -1), (0, 2), (-1, 1)]
    triangles = [(0, 1, 2), (0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8)]
    return TriField(positions, np.zeros((9, 2)), triangles)


def far_range_grid(kind) -> GridField:
    """A 3x2 grid whose determinants leave the float range while their
    numerators N do not. ``"tiny"``: cells of doubled area 1e-320 and N of
    order 1, so N / area overflows. ``"huge"``: cells of doubled area
    1e300 and N of order 1e-200, so N / area underflows to zero. At any
    spacing, triangle 2 has the opposite orientation of the other three,
    and the one Jacobi edge, (1, 5), is its edge to triangle 3."""
    spacing, scale = {"tiny": (1e-160, 1.0), "huge": (1e150, 1e-100)}[kind]
    f = scale * np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
    g = scale * np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    return GridField(3, 2, spacing, spacing, f, g)


def random_sign_field(rng, w=6, h=6) -> TriField:
    """Structured field with i.i.d. values: a soup of mixed-sign triangles."""
    n = w * h
    return triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=n), rng.normal(size=n))


def noisy_island_field(rng, w=16, h=16, n_islands=3, amplitude=4.0):
    """Smooth base field (det > 0 everywhere) with impulse perturbations at
    a few interior vertices, creating small negative-orientation islands.

    Returns (field, islands_exist) where islands_exist reports whether the
    perturbation actually produced negative triangles.
    """
    xs = np.arange(w, dtype=float)
    ys = np.arange(h, dtype=float)
    xx = np.tile(xs, h)
    yy = np.repeat(ys, w)
    f = xx + 0.25 * yy
    g = yy - 0.1 * xx
    interior = [
        j * w + i for j in range(2, h - 2) for i in range(2, w - 2)
    ]
    picks = rng.choice(len(interior), size=n_islands, replace=False)
    for p in picks:
        v = interior[p]
        g[v] += amplitude * (1 if rng.random() < 0.5 else -1)
    field = triangulate_structured(w, h, (1.0, 1.0), f, g)
    return field, bool((field.numerators < 0).any())


def wave_field(rng, w, h, step=None) -> TriField:
    """Smooth waves plus small noise on a unit grid:
    f = sin x cos y + 0.02 N, g = cos 0.7x + sin 1.3y + 0.02 N, with N
    drawn from ``rng`` as (h, w) arrays, f's first. With ``step``, both
    are rounded to multiples of it, which leaves plateaus of degenerate
    triangles."""
    noise_f = rng.standard_normal((h, w))
    noise_g = rng.standard_normal((h, w))
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    f = np.sin(x) * np.cos(y) + 0.02 * noise_f
    g = np.cos(0.7 * x) + np.sin(1.3 * y) + 0.02 * noise_g
    if step is not None:
        f = np.round(f / step) * step
        g = np.round(g / step) * step
    return triangulate_structured(w, h, (1.0, 1.0), f.ravel(), g.ravel())


def score_cell(field, c, selected=()):
    """`score_cells` of cell ``c`` alone, with the cells ``selected`` in
    the worklist and no vertex merged yet."""
    cl = Worklist(field.n_triangles)
    for t in selected:
        cl.add(t)
    return score_cells(field, [c], cl, VertexGroups(field.n_vertices))


def vertex_stars(field) -> list:
    """Per-vertex incident triangle ids (ascending), collected by a loop
    over the triangles."""
    stars = [[] for _ in range(field.n_vertices)]
    for t, corners in enumerate(field.triangles.tolist()):
        for v in corners:
            stars[v].append(t)
    return [np.array(star, dtype=np.int64) for star in stars]


# The last topology star_union read, and its vertex_stars: the collapse
# oracles ask for the stars of one field over and over, and a field's
# copies and with_values share its read-only triangles. The entry holds
# the array it is keyed on, so no other array can match it.
_STARS = [None, None]


def star_union(field, vertex_ids) -> np.ndarray:
    """Triangles with at least one vertex in ``vertex_ids`` (ascending),
    from :func:`vertex_stars`, built once per ``field.triangles``."""
    if _STARS[0] is not field.triangles:
        _STARS[:] = field.triangles, vertex_stars(field)
    stars = _STARS[1]
    return np.unique(np.concatenate([stars[v] for v in vertex_ids]))


def point_neighbors(field, t) -> np.ndarray:
    """Triangles sharing at least one vertex with ``t``, less ``t``
    (ascending), from :func:`star_union`."""
    star = star_union(field, field.triangles[t])
    return star[star != t]


def move_vertices(field, vertex_ids, value) -> None:
    """``field.set_vertex_values`` with the stars and numerators of
    :func:`star_union` and :func:`numerators_oracle`."""
    tids = star_union(field, vertex_ids)
    numerators = numerators_oracle(field, tids, vertex_ids, value)
    field.set_vertex_values(vertex_ids, value, tids, numerators)


def vertex_neighbors(field, v: int) -> np.ndarray:
    """Vertex ids joined to ``v`` by a mesh edge (ascending), read off
    `TriField.edges`."""
    edges = field.edges
    return np.sort(np.concatenate([edges[edges[:, 0] == v, 1], edges[edges[:, 1] == v, 0]]))


def edge_endpoints(field, t: int, e: int) -> tuple:
    """Endpoints of edge slot ``e`` of triangle ``t`` as (min, max)."""
    a = int(field.triangles[t, e])
    b = int(field.triangles[t, (e + 1) % 3])
    return (a, b) if a < b else (b, a)


# -- independent oracles -----------------------------------------------------


def shoelace(points) -> float:
    """Signed polygon area via the shoelace sum (independent formula)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def affine_map_oracle(field, t: int):
    """``(A, b)`` of the affine map ``x -> A x + b`` that interpolates the
    values of triangle ``t``, solved from its two edge vectors with
    ``np.linalg.solve``."""
    p = field.positions[field.triangles[t]]
    w = field.values[field.triangles[t]]
    # A @ [p1 - p0, p2 - p0] = [w1 - w0, w2 - w0], solved for A's rows.
    a = np.linalg.solve(p[1:] - p[0], w[1:] - w[0]).T
    return a, w[0] - a @ p[0]


def bfs_edge_components(edges) -> int:
    """Connected components of an edge list where edges sharing a vertex
    are connected: plain BFS over a vertex adjacency dict."""
    edges = [tuple(map(int, e)) for e in edges]
    if not edges:
        return 0
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    components = 0
    for start in sorted(adj):
        if start in seen:
            continue
        components += 1
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return components


def bfs_region_labels(field, eff, variant="A", nbr_sums=None) -> np.ndarray:
    """Region labels from a BFS with the same merge predicates but none of
    the program's connectivity code."""
    m = field.n_triangles
    adjacency = [set() for _ in range(m)]
    for t in range(m):
        for n in field.neighbors[t]:
            if n >= 0 and eff[t] == eff[n]:
                adjacency[t].add(int(n))
                adjacency[int(n)].add(t)
    if variant in ("B", "C"):
        wanted = -1 if variant == "B" else 1
        for star in vertex_stars(field):
            members = [int(t) for t in star if eff[t] == wanted]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    adjacency[members[i]].add(members[j])
                    adjacency[members[j]].add(members[i])
    elif variant == "D":
        for star in vertex_stars(field):
            for i in range(len(star)):
                for j in range(i + 1, len(star)):
                    a, b = int(star[i]), int(star[j])
                    if eff[a] == eff[b] and nbr_sums[a] == nbr_sums[b]:
                        adjacency[a].add(b)
                        adjacency[b].add(a)
    return bfs_labels(adjacency)


def split_regions_oracle(label, eff) -> list:
    """``(id, sign, triangles)`` of every region, by splitting the
    label-sorted triangle ids: the per-region build the program used before
    it kept regions as arrays."""
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    return [
        (r, int(eff[tri_ids[0]]), tri_ids)
        for r, tri_ids in enumerate(np.split(order, bounds) if len(label) else [])
    ]


def graph_nodes_oracle(field, label, eff) -> list:
    """``(id, sign, domain_area, range_area, hypervolume, triangle_count)``
    of every region, one node per :func:`split_regions_oracle` region."""
    regions = split_regions_oracle(label, eff)
    areas = area_oracle(field, field.positions)
    range_areas = area_oracle(field, field.values)
    n = len(regions)
    node_area = np.bincount(label, weights=areas, minlength=n)
    node_range = np.bincount(label, weights=range_areas, minlength=n)
    node_hv = np.bincount(label, weights=areas * range_areas, minlength=n)
    counts = np.bincount(label, minlength=n)
    return [
        (r, sign, float(node_area[r]), float(node_range[r]), float(node_hv[r]), int(counts[r]))
        for r, sign, _ in regions
    ]


def collapsible_cells_oracle(field, label, eff, t) -> np.ndarray:
    """Triangle ids of every region with hypervolume below ``t``: the picked
    regions' triangles concatenated and sorted."""
    nodes = graph_nodes_oracle(field, label, eff)
    regions = split_regions_oracle(label, eff)
    picked = [regions[node[0]][2] for node in nodes if node[4] < t]
    if not picked:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(picked))


def bfs_labels(adjacency) -> np.ndarray:
    """Component labels numbered by first occurrence, by BFS over a list
    of neighbor sets."""
    m = len(adjacency)
    labels = np.full(m, -1, dtype=np.int64)
    next_label = 0
    for start in range(m):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adjacency[v]:
                if labels[u] < 0:
                    labels[u] = next_label
                    queue.append(u)
        next_label += 1
    return labels


def point_neighbor_sum_oracle(field, eff) -> np.ndarray:
    """Per-triangle sum of effective signs over vertex-sharing triangles,
    computed by brute-force set construction."""
    m = field.n_triangles
    out = np.zeros(m, dtype=np.int64)
    stars = vertex_stars(field)
    for t in range(m):
        nbrs = set()
        for v in field.triangles[t]:
            nbrs.update(int(x) for x in stars[v])
        nbrs.discard(t)
        out[t] = sum(int(eff[u]) for u in nbrs)
    return out


# The row of the array that assign_degenerate returns for each rule, keyed
# by the sign the rule prefers as ring_assignment_oracle takes it.
RULE_ROW = {None: MAJORITY, -1: PREFER_NEGATIVE, 1: PREFER_POSITIVE}


def ring_assignment_oracle(field, signs, prefer=None) -> dict:
    """Degenerate-sign assignment by a per-triangle search: grow the point
    neighborhood one ring at a time, triangle by triangle, until a ring
    decides (strict majority of the running sum, or with ``prefer`` the
    first ring holding a signed triangle)."""
    stars = vertex_stars(field)
    out = {}
    for seed in np.flatnonzero(signs == 0):
        seed = int(seed)
        visited = {seed}
        frontier = [seed]
        total = 0
        decided = 1  # fully degenerate component
        while frontier:
            ring = []
            for u in frontier:
                for corner in field.triangles[u].tolist():
                    for v in stars[corner].tolist():
                        if v not in visited:
                            visited.add(v)
                            ring.append(v)
            if not ring:
                break
            if prefer is None:
                total += int(sum(int(signs[v]) for v in ring))
                if total != 0:
                    decided = 1 if total > 0 else -1
                    break
            else:
                ring_signs = {int(signs[v]) for v in ring} - {0}
                if ring_signs:
                    decided = prefer if prefer in ring_signs else -prefer
                    break
            frontier = ring
        out[seed] = decided
    return out


# -- loop-based reference implementations -----------------------------------
# The per-element versions that the array code in baselines, render and
# fileio replaced, kept unchanged as bitwise oracles.


def loop_once_oracle(field: TriField) -> TriField:
    """One Loop subdivision step with per-vertex and per-triangle loops."""
    n = field.n_vertices
    edges = field.edges
    edge_tris = field.edge_triangles
    boundary_edge = edge_tris[:, 1] < 0
    edge_index = {(int(a), int(b)): i for i, (a, b) in enumerate(edges)}

    pos = field.positions
    val = field.values
    new_pos = 0.5 * (pos[edges[:, 0]] + pos[edges[:, 1]])

    # Edge-vertex values.
    a = val[edges[:, 0]]
    b = val[edges[:, 1]]
    new_val = a + 0.5 * (b - a)
    interior = ~boundary_edge
    if interior.any():
        opp = opposite_vertices_oracle(field, edges[interior], edge_tris[interior])
        ai = val[edges[interior, 0]]
        bi = val[edges[interior, 1]]
        c = val[opp[:, 0]]
        d = val[opp[:, 1]]
        new_val[interior] = ai + 0.375 * (bi - ai) + 0.125 * (c - ai) + 0.125 * (d - ai)

    # Old-vertex values.
    boundary_vertex = np.zeros(n, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True
    boundary_nbrs: dict[int, list] = {}
    for ea, eb in edges[boundary_edge]:
        boundary_nbrs.setdefault(int(ea), []).append(int(eb))
        boundary_nbrs.setdefault(int(eb), []).append(int(ea))

    old_val = val.copy()
    for v in range(n):
        if boundary_vertex[v]:
            nbrs = boundary_nbrs[v]
            if len(nbrs) == 2:
                left, right = val[nbrs[0]], val[nbrs[1]]
                old_val[v] = val[v] + 0.125 * (left - val[v]) + 0.125 * (right - val[v])
            # Pinched boundary vertices keep their value.
        else:
            ring = vertex_neighbors(field, v)
            k = len(ring)
            beta = (0.625 - (0.375 + 0.25 * math.cos(2.0 * math.pi / k)) ** 2) / k
            old_val[v] = val[v] + beta * (val[ring] - val[v]).sum(axis=0)

    # 1-to-4 split; children of a CCW parent are CCW because the new
    # vertices are geometric midpoints.
    tri = field.triangles
    mid = np.empty((len(tri), 3), dtype=np.int64)
    for t in range(len(tri)):
        for e in range(3):
            key = edge_endpoints(field, t, e)
            mid[t, e] = n + edge_index[key]
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.concatenate(
        [
            np.column_stack([v0, m01, m20]),
            np.column_stack([v1, m12, m01]),
            np.column_stack([v2, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    order = np.arange(len(tri))
    interleave = np.concatenate([4 * order, 4 * order + 1, 4 * order + 2, 4 * order + 3])
    out_tris = np.empty_like(children)
    out_tris[interleave] = children

    return TriField(
        np.vstack([pos, new_pos]), np.vstack([old_val, new_val]), out_tris
    )


def opposite_vertices_oracle(field, edges, edge_tris):
    """For interior edges, the third vertex of each adjacent triangle."""
    out = np.empty((len(edges), 2), dtype=np.int64)
    tri = field.triangles
    for i, ((a, b), (t1, t2)) in enumerate(zip(edges, edge_tris)):
        for j, t in enumerate((t1, t2)):
            verts = tri[t]
            out[i, j] = verts[(verts != a) & (verts != b)][0]
    return out


def edge_test_oracle(field) -> dict:
    """Edelsbrunner and Harer's test of each interior edge, from the values
    alone. For an edge uv with link vertices a and b, the combination
    h = (g(v) - g(u)) f + (f(u) - f(v)) g is constant on uv, and uv is
    critical iff h(a) - h(u) and h(b) - h(u) have the same nonzero sign.

    Maps each interior edge (u, v), u < v, to ``(verdict, t1, t2)``: its
    two triangles, and True (critical), False (not critical) or None
    (undecided: h(a) = h(u) or h(b) = h(u))."""
    links: dict[tuple, list] = {}
    for t, tri in enumerate(field.triangles.tolist()):
        for k in range(3):
            u, v, a = tri[k], tri[k - 2], tri[k - 1]
            links.setdefault((min(u, v), max(u, v)), []).append((a, t))
    f, g = field.values.T.tolist()
    out = {}
    for (u, v), link in links.items():
        if len(link) != 2:
            continue
        (a, t1), (b, t2) = link
        alpha, beta = g[v] - g[u], f[u] - f[v]
        ha, hb = (alpha * (f[x] - f[u]) + beta * (g[x] - g[u]) for x in (a, b))
        verdict = None if ha == 0 or hb == 0 else (ha > 0) == (hb > 0)
        out[u, v] = verdict, t1, t2
    return out


_MIN_SATURATION = 0.08
_RED = (255, 0, 0)
_BLUE = (0, 0, 255)


def _blend(color, saturation: float) -> str:
    r, g, b = (round(255 + (c - 255) * saturation) for c in color)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg_oracle(
    field: TriField,
    show_jacobi: bool = True,
    saturation_scale: float = 1.0,
    epsilon: float = 0.0,
    canvas_width: float = 800.0,
) -> str:
    """SVG rendering with one formatted line per triangle and edge."""
    if saturation_scale <= 0:
        raise ValueError("saturation scale must be > 0")
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    js = extract_jacobi_set(field, signs, assignment)

    range_areas = area_oracle(field, field.values)
    nonzero = range_areas[range_areas > 0]
    median = float(np.median(nonzero)) if len(nonzero) else 1.0
    scale_ref = saturation_scale * median

    # The longer side of the domain spans the canvas; one point draws on
    # the square.
    pos = field.positions
    xmin, ymin = pos.min(axis=0)
    xmax, ymax = pos.max(axis=0)
    w, h = float(xmax - xmin), float(ymax - ymin)
    if max(w, h) == 0:
        w = h = 1.0
    px = canvas_width / max(w, h)
    canvas_w, canvas_h = w * px, h * px

    def to_px(p):
        return ((p[0] - xmin) * px, (ymax - p[1]) * px)  # y grows downward in SVG

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas_w:.0f}" '
        f'height="{canvas_h:.2f}" viewBox="0 0 {canvas_w:.2f} {canvas_h:.2f}">',
        '<g stroke="none">',
    ]
    eff_color = {1: _RED, -1: _BLUE}
    for t in range(field.n_triangles):
        s = int(signs[t])
        if s == 0:
            color = eff_color[assignment[MAJORITY, t]]
            sat = _MIN_SATURATION
        else:
            color = eff_color[s]
            sat = min(1.0, float(range_areas[t]) / scale_ref) if scale_ref > 0 else 1.0
        pts = " ".join(
            f"{x:.3f},{y:.3f}" for x, y in (to_px(pos[v]) for v in field.triangles[t])
        )
        lines.append(f'<polygon points="{pts}" fill="{_blend(color, sat)}"/>')
    lines.append("</g>")

    if show_jacobi and len(js.edges):
        stroke = 0.004 * canvas_width
        lines.append(f'<g stroke="#000000" stroke-width="{stroke:.3f}" stroke-linecap="round">')
        for a, b in js.edges:
            x1, y1 = to_px(pos[a])
            x2, y2 = to_px(pos[b])
            lines.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _parse_float(tok: str, path, line) -> float:
    try:
        return float(tok)
    except ValueError:
        pass
    try:
        return float.fromhex(tok)
    except ValueError:
        raise ParseError(path, line, f"not a number: {tok!r}") from None


def _parse_int(tok: str, path, line) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, line, f"not an integer: {tok!r}") from None


def _check_declared(path, lines, count: int, what: str) -> None:
    """Reject a header declaring more data lines than the file holds,
    before any array is sized from it."""
    present = len(lines) - 2 - (lines[-1] == "")
    if count > present:
        raise ParseError(path, 2, f"header declares {what} lines, file has {present}")


def _check_finite(path, line, numbers) -> None:
    if not all(math.isfinite(x) for x in numbers):
        raise ParseError(path, line, "non-finite value")


def _fmt(x: float) -> str:
    return repr(float(x))


def load_bsf_oracle(path) -> TriField:
    """Line-by-line BSF reader."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")

    def need(idx):
        if idx >= len(lines):
            raise ParseError(path, len(lines), "unexpected end of file")
        return lines[idx]

    if need(0).strip() != "bsf 1":
        raise ParseError(path, 1, f"expected 'bsf 1' header, got {lines[0]!r}")
    # A file that ends within or right after its first line has no line 2.
    if len(lines) < 2 or lines[1:] == [""]:
        raise ParseError(path, 2, "unexpected end of file")
    head = lines[1].split()
    if len(head) != 4 or head[0] != "vertices" or head[2] != "triangles":
        raise ParseError(path, 2, "expected 'vertices <N> triangles <M>'")
    n = _parse_int(head[1], path, 2)
    m = _parse_int(head[3], path, 2)
    if n < 0 or m < 0:
        raise ParseError(path, 2, "negative count")
    _check_declared(path, lines, n + m, f"{n} vertex and {m} triangle")

    positions = np.empty((n, 2), dtype=np.float64)
    values = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        lineno = 3 + i
        toks = need(2 + i).split()
        if len(toks) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(toks)}")
        positions[i, 0] = _parse_float(toks[0], path, lineno)
        positions[i, 1] = _parse_float(toks[1], path, lineno)
        values[i, 0] = _parse_float(toks[2], path, lineno)
        values[i, 1] = _parse_float(toks[3], path, lineno)
        _check_finite(path, lineno, (*positions[i], *values[i]))
    triangles = np.empty((m, 3), dtype=np.int64)
    for j in range(m):
        lineno = 3 + n + j
        toks = need(2 + n + j).split()
        if len(toks) != 3:
            raise ParseError(path, lineno, f"expected 3 indices, got {len(toks)}")
        triangles[j] = [_parse_int(t, path, lineno) for t in toks]
    try:
        return TriField(positions, values, triangles)
    except TriangleError as exc:
        raise ParseError(path, 3 + n + exc.triangle, str(exc)) from None


def save_bsf_oracle(field: TriField, path) -> None:
    """One formatted line per vertex and triangle."""
    out = ["bsf 1", f"vertices {field.n_vertices} triangles {field.n_triangles}"]
    for p, v in zip(field.positions, field.values):
        out.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(v[0])} {_fmt(v[1])}")
    for t in field.triangles:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def load_sgf_oracle(path) -> GridField:
    """Line-by-line SGF reader."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0].strip() != "sgf 1":
        raise ParseError(path, 1, f"expected 'sgf 1' header")
    if len(lines) < 2 or lines[1:] == [""]:
        raise ParseError(path, 2, "unexpected end of file")
    head = lines[1].split()
    if len(head) != 5 or head[0] != "grid":
        raise ParseError(path, 2, "expected 'grid <W> <H> <dx> <dy>'")
    w = _parse_int(head[1], path, 2)
    h = _parse_int(head[2], path, 2)
    dx = _parse_float(head[3], path, 2)
    dy = _parse_float(head[4], path, 2)
    if w < 2 or h < 2:
        raise ParseError(path, 2, "grid must be at least 2 x 2")
    if not (math.isfinite(dx) and math.isfinite(dy) and dx != 0 and dy != 0):
        raise ParseError(path, 2, "grid spacing must be finite and nonzero")
    if not math.isfinite((w - 1) * dx):
        raise ParseError(path, 2, f"grid x extent (W-1)*dx = {(w - 1) * dx!r} must be finite")
    if not math.isfinite((h - 1) * dy):
        raise ParseError(path, 2, f"grid y extent (H-1)*dy = {(h - 1) * dy!r} must be finite")
    if not math.isfinite(dx * dy) or dx * dy == 0:
        raise ParseError(path, 2, f"grid cell area dx*dy = {dx * dy!r} must be finite and nonzero")
    _check_declared(path, lines, w * h, f"{w} x {h} sample")
    f = np.empty(w * h, dtype=np.float64)
    g = np.empty(w * h, dtype=np.float64)
    for i in range(w * h):
        lineno = 3 + i
        if 2 + i >= len(lines):
            raise ParseError(path, len(lines), "unexpected end of file")
        toks = lines[2 + i].split()
        if len(toks) != 2:
            raise ParseError(path, lineno, f"expected 2 fields, got {len(toks)}")
        f[i] = _parse_float(toks[0], path, lineno)
        g[i] = _parse_float(toks[1], path, lineno)
        _check_finite(path, lineno, (f[i], g[i]))
    return GridField(w, h, dx, dy, f.reshape(h, w), g.reshape(h, w))


def save_sgf_oracle(grid: GridField, path) -> None:
    """One formatted line per sample."""
    out = ["sgf 1", f"grid {grid.width} {grid.height} {_fmt(grid.dx)} {_fmt(grid.dy)}"]
    for fv, gv in zip(grid.f.ravel(), grid.g.ravel()):
        out.append(f"{_fmt(fv)} {_fmt(gv)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


# -- the collapse loop before chunk scoring ----------------------------------
# The per-cell, per-candidate evaluation that `collapse.score_cells`
# replaced, kept unchanged as a bitwise oracle for `simplify`.


def edge_cross_oracle(p) -> np.ndarray:
    """``(p1 - p0) x (p2 - p0)`` of point triples ``p`` of shape (m, 3, 2),
    by whole-array arithmetic on the gathered triples."""
    return (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])


def numerators_oracle(field, tids, moved=(), target=None) -> np.ndarray:
    """Determinant numerators of the triangles ``tids``, as if the
    vertices ``moved`` carried ``target``."""
    tri = field.triangles[tids]
    w = field.values[tri]
    if len(moved):
        w[(tri[:, :, None] == np.asarray(moved)).any(axis=2)] = target
    return edge_cross_oracle(w)


def area_oracle(field, points) -> np.ndarray:
    """Unsigned area of every triangle's image under ``points``: the
    domain areas for ``field.positions``, the range areas for
    ``field.values``. Half the :func:`edge_cross_oracle`, as the shoelace
    sum of a triangle gives it."""
    return 0.5 * np.abs(edge_cross_oracle(points[field.triangles]))


@dataclass
class CollapseVariantOracle:
    """One way to collapse a cell: assign ``target_value`` to both
    endpoints of ``edge``, degenerating the cell's image to a line."""

    edge: tuple
    target_value: np.ndarray


class VertexGroupsOracle:
    """Equal-value vertex groups created by collapses.

    Collapsing an edge merges its endpoints' groups; every member of the
    merged group is assigned the common target value, so pairs glued by
    earlier collapses never drift apart.
    """

    def __init__(self):
        # A union-find in dicts: a vertex without a parent is a root, and
        # a root keys the members of its group once it has merged.
        self._parent: dict[int, int] = {}
        self._members: dict[int, list] = {}

    def _root(self, v: int) -> int:
        while v in self._parent:
            v = self._parent[v]
        return v

    def members(self, v: int) -> list:
        return self._members.get(self._root(v), [v])

    def merged_members(self, u: int, v: int) -> list:
        """Members of the union of both groups, without merging."""
        mu = self.members(u)
        if self._root(u) == self._root(v):
            return mu
        return mu + self.members(v)

    def merge(self, u: int, v: int) -> list:
        mu = self.merged_members(u, v)
        ru, rv = self._root(u), self._root(v)
        if ru != rv:
            self._parent[rv] = ru
            self._members.pop(rv, None)
        self._members[ru] = mu
        return mu


def open_sides_oracle(field: TriField, cl, c: int) -> int:
    """Number of edge neighbors of ``c`` that exist and are not in ``cl``;
    0 means the cell is interior and is skipped."""
    return sum(1 for n in field.neighbors[c].tolist() if n >= 0 and n not in cl)


class CollapseHistoryOracle:
    """The oscillation guards over a set worklist: trips once a cell
    entered more than ``collapse.MAX_ENTRIES`` times, or the worklist at
    the end of a sweep equals one of the last ``collapse.SNAPSHOT_WINDOW``."""

    def __init__(self):
        self.entry_counts: dict[int, int] = {}
        self.snapshots = deque(maxlen=collapse.SNAPSHOT_WINDOW)
        self.over_entered = False
        self.snapshot_repeated = False

    def record_entry(self, cell: int) -> None:
        self.entry_counts[cell] = self.entry_counts.get(cell, 0) + 1
        if self.entry_counts[cell] > collapse.MAX_ENTRIES:
            self.over_entered = True

    def record_sweep(self, cl) -> None:
        snapshot = frozenset(cl)
        if snapshot in self.snapshots:
            self.snapshot_repeated = True
        self.snapshots.append(snapshot)

    @property
    def oscillated(self) -> bool:
        return self.over_entered or self.snapshot_repeated


def possible_collapse_variants_oracle(field: TriField, cl, c: int) -> list:
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
    return sorted(edge_endpoints(field, c, e) for e in slots)


def evaluate_variant_oracle(
    field: TriField,
    c: int,
    edge,
    cl=frozenset(),
    groups: VertexGroupsOracle | None = None,
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
    affected = star_union(field, moved)

    old = numerators_oracle(field, affected)
    new = numerators_oracle(field, affected, moved, target)
    crossed = np.sign(old) * np.sign(new) < 0
    flips = sum(1 for t in affected[crossed].tolist() if t != c and t not in cl)
    # Range areas, as area_oracle takes them.
    delta = float((0.5 * np.abs(new) - 0.5 * np.abs(old)).sum())
    variant = CollapseVariantOracle(edge=(min(u, v), max(u, v)), target_value=target)
    return flips, delta, variant


def find_best_collapse_variant_oracle(
    field: TriField,
    candidates,
    c: int,
    cl=frozenset(),
    groups: VertexGroupsOracle | None = None,
) -> CollapseVariantOracle:
    """Pick the candidate with (fewest flips, smallest range-area growth,
    lowest edge ids), in that order."""
    if not candidates:
        raise ValueError("no collapse candidates")
    best = None
    for edge in candidates:
        flips, delta, variant = evaluate_variant_oracle(field, c, edge, cl, groups)
        key = (flips, delta, variant.edge)
        if best is None or key < best[0]:
            best = (key, variant)
    return best[1]


def apply_collapse_variant_oracle(
    field: TriField, variant: CollapseVariantOracle, groups: VertexGroupsOracle | None = None
) -> None:
    """Assign the target value to both endpoints of the variant's edge
    (and to their merged group, when tracking groups)."""
    u, v = variant.edge
    moved = groups.merge(u, v) if groups is not None else [u, v]
    move_vertices(field, moved, variant.target_value)


def flipped_cell_neighbors_oracle(field: TriField, before_signs: dict, c: int) -> list:
    """Triangles from the snapshot whose orientation crossed between
    positive and negative; transitions through degenerate do not count."""
    flipped = []
    for t, s0 in before_signs.items():
        if t == c or s0 == 0:
            continue
        n = numerators_oracle(field, [t])[0]
        s1 = 1 if n > 0 else -1 if n < 0 else 0
        if s1 != 0 and s1 != s0:
            flipped.append(t)
    return sorted(flipped)


def simplify_oracle(
    field: TriField,
    variant: str = "A",
    threshold: float = 0.0,
    epsilon: float = 0.0,
) -> CollapseReport:
    """Run the full collapse loop on ``field`` (mutating it).

    Builds the neighborhood graph, seeds the worklist with all cells of
    regions below the hypervolume threshold, and sweeps it border-first
    until empty. Cells whose orientation flips as a side effect re-enter
    the worklist. Terminates with COMPLETED (worklist empty), OSCILLATED
    (guard tripped), or EXHAUSTED (sweep cap hit).
    """
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    before = jacobi_measures(field, extract_jacobi_set(field, signs, assignment))
    regions = build_regions(field, assignment, variant=variant)
    graph = build_graph(field, regions)
    seeds = find_collapsible_cells(graph, regions, threshold)

    history = CollapseHistoryOracle()
    groups = VertexGroupsOracle()
    cl: set[int] = set()
    for c in seeds:
        c = int(c)
        cl.add(c)
        history.record_entry(c)

    sweep_cap = collapse.SWEEP_CAP_FACTOR * len(seeds)
    status = CollapseStatus.COMPLETED
    collapsed = 0
    flip_repairs = 0
    sweeps = 0
    while cl:
        sweeps += 1
        order = sorted(cl, key=lambda t: (-open_sides_oracle(field, cl, t), t))
        for c in order:
            if c not in cl:
                continue
            if numerators_oracle(field, [c])[0] == 0.0:
                cl.discard(c)  # already collapsed, nothing to apply
                continue
            if open_sides_oracle(field, cl, c) == 0:
                continue
            candidates = possible_collapse_variants_oracle(field, cl, c)
            best = find_best_collapse_variant_oracle(field, candidates, c, cl, groups)

            moved = groups.merged_members(*best.edge)
            affected = star_union(field, moved)
            before_signs = {
                int(t): (1 if n > 0 else -1 if n < 0 else 0)
                for t, n in zip(affected, numerators_oracle(field, affected))
            }
            apply_collapse_variant_oracle(field, best, groups)
            collapsed += 1
            cl.discard(c)

            for t in flipped_cell_neighbors_oracle(field, before_signs, c):
                if t not in cl:
                    cl.add(t)
                    history.record_entry(t)
                    flip_repairs += 1
            # A touched cell that was collapsed before must stay collapsed;
            # re-queue it if a value move broke its zero numerator.
            for t in sorted(before_signs):
                if before_signs[t] == 0 and t in history.entry_counts and t not in cl:
                    if numerators_oracle(field, [t])[0] != 0.0:
                        cl.add(t)
                        history.record_entry(t)
        if not cl:
            break
        history.record_sweep(cl)
        if history.oscillated:
            status = CollapseStatus.OSCILLATED
            break
        if sweeps >= sweep_cap:
            status = CollapseStatus.EXHAUSTED
            break

    after = measures(field, epsilon)
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
    )



def bits(a) -> np.ndarray:
    """Float array as int64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_field(a: TriField, b: TriField) -> None:
    """Positions, values and triangles equal bit for bit."""
    assert np.array_equal(bits(a.positions), bits(b.positions))
    assert np.array_equal(bits(a.values), bits(b.values))
    assert np.array_equal(a.triangles, b.triangles)


def assert_same_topology(derived: TriField, triangles=None) -> None:
    """``derived`` holds, bit for bit, the neighbours, edges, edge
    triangles, normalized triangles and domain areas that the sorting
    constructor gives for ``triangles`` (default: its own)."""
    if triangles is None:
        triangles = derived.triangles
    sorted_ = TriField(derived.positions, derived.values, triangles)
    for name in ("neighbors", "edges", "edge_triangles", "triangles", "domain_areas"):
        a, b = getattr(derived, name), getattr(sorted_, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def grid_triangles(w, h) -> np.ndarray:
    """The triangles of the SGF rule in the given winding, cell by cell:
    lower (v00, v10, v11), then upper (v00, v11, v01)."""
    tris = []
    for j in range(h - 1):
        for i in range(w - 1):
            v = j * w + i
            tris += [(v, v + 1, v + w + 1), (v, v + w + 1, v + w)]
    return np.array(tris, dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
