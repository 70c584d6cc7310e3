"""Output checks written independently of the program under test.

Nothing here imports ``jacobiset``: files are parsed with plain string
splitting, determinants are recomputed from vertex values, degenerate
triangles get their sign by a per-triangle ring search, and Jacobi set
components are counted by breadth-first search. A check returns a list
of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from collections import deque

import numpy as np
from scipy import sparse

from workloads import grid_mesh


class Mesh:
    """A triangulated field as read from a file, winding made CCW."""

    def __init__(self, positions, values, triangles):
        self.positions = positions
        self.values = values
        p = positions[triangles]
        doubled = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 2, 0] - p[:, 0, 0]
        ) * (p[:, 1, 1] - p[:, 0, 1])
        cw = doubled < 0
        triangles = triangles.copy()
        triangles[cw] = triangles[cw][:, [0, 2, 1]]
        self.triangles = triangles
        self.doubled_areas = np.abs(doubled)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def dets(self) -> np.ndarray:
        """Jacobian determinant per triangle: value-edge cross product over
        domain-edge cross product."""
        w = self.values[self.triangles]
        num = (w[:, 1, 0] - w[:, 0, 0]) * (w[:, 2, 1] - w[:, 0, 1]) - (
            w[:, 2, 0] - w[:, 0, 0]
        ) * (w[:, 1, 1] - w[:, 0, 1])
        return num / self.doubled_areas


def read_bsf(path) -> Mesh:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    head = lines[1].split()
    n, m = int(head[1]), int(head[3])
    verts = np.array(" ".join(lines[2 : 2 + n]).split(), dtype=np.float64).reshape(n, 4)
    tris = np.array(" ".join(lines[2 + n : 2 + n + m]).split(), dtype=np.int64).reshape(m, 3)
    return Mesh(verts[:, :2].copy(), verts[:, 2:].copy(), tris)


def read_sgf(path) -> Mesh:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    _, w, h, dx, dy = lines[1].split()
    w, h = int(w), int(h)
    values = np.array(" ".join(lines[2 : 2 + w * h]).split(), dtype=np.float64).reshape(-1, 2)
    positions, triangles = grid_mesh(w, h)
    positions = positions * np.array([float(dx), float(dy)])
    return Mesh(positions, values, triangles)


def read_mesh(path) -> Mesh:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    return read_sgf(path) if header == "sgf 1" else read_bsf(path)


def _point_adjacency(mesh: Mesh) -> sparse.csr_matrix:
    """Triangle x triangle matrix, nonzero where two distinct triangles
    share at least one vertex."""
    m = mesh.n_triangles
    rows = np.repeat(np.arange(m), 3)
    inc = sparse.csr_matrix(
        (np.ones(3 * m, dtype=np.int32), (rows, mesh.triangles.ravel())),
        shape=(m, len(mesh.positions)),
    )
    adj = (inc @ inc.T).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def effective_signs(mesh: Mesh) -> np.ndarray:
    """Orientation signs with each degenerate triangle replaced by the sign
    of the first strict majority over growing point-neighbor rings (+1 if
    none ever appears)."""
    signs = np.sign(mesh.dets()).astype(np.int64)
    zero = np.flatnonzero(signs == 0)
    if len(zero) == 0:
        return signs
    adj = _point_adjacency(mesh)
    eff = signs.copy()
    indptr, indices = adj.indptr, adj.indices
    visited = np.zeros(mesh.n_triangles, dtype=bool)
    for t in zero:
        visited[t] = True
        seen = [np.array([t])]
        frontier = seen[0]
        total = 0
        result = 1
        while True:
            ring = np.unique(
                np.concatenate([indices[indptr[u] : indptr[u + 1]] for u in frontier])
            )
            ring = ring[~visited[ring]]
            if len(ring) == 0:
                break
            visited[ring] = True
            seen.append(ring)
            total += int(signs[ring].sum())
            if total != 0:
                result = 1 if total > 0 else -1
                break
            frontier = ring
        eff[t] = result
        for s in seen:
            visited[s] = False
    return eff


def jacobi_edges(mesh: Mesh) -> np.ndarray:
    """Interior edges whose two triangles differ in effective sign, as
    (min, max) vertex pairs sorted lexicographically."""
    eff = effective_signs(mesh)
    tri = mesh.triangles
    a = tri.ravel()
    b = tri[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    owner = np.repeat(np.arange(mesh.n_triangles), 3)
    order = np.lexsort((hi, lo))
    lo, hi, owner = lo[order], hi[order], owner[order]
    pair = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    first = np.flatnonzero(pair)
    differ = eff[owner[first]] != eff[owner[first + 1]]
    return np.column_stack([lo[first][differ], hi[first][differ]])


def bfs_components(edges: np.ndarray) -> int:
    adjacency: dict[int, list] = {}
    for a, b in edges.tolist():
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = set()
    count = 0
    for start in adjacency:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for v in adjacency[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


def jacobi_measures(mesh: Mesh) -> dict:
    """Length and component count of the Jacobi set, plus its edge count."""
    edges = jacobi_edges(mesh)
    delta = mesh.positions[edges[:, 0]] - mesh.positions[edges[:, 1]]
    return {
        "length": math.fsum(np.hypot(delta[:, 0], delta[:, 1]).tolist()),
        "components": bfs_components(edges),
        "edges": len(edges),
    }


def _measures_differ(label, got: dict, want: dict) -> list:
    out = []
    if got.get("components") != want["components"]:
        out.append(f"{label}: components {got.get('components')} != oracle {want['components']}")
    length = got.get("length")
    if not isinstance(length, (int, float)) or not math.isclose(
        length, want["length"], rel_tol=1e-9
    ):
        out.append(f"{label}: length {length} != oracle {want['length']}")
    return out


def check_stats(stdout: str, want: dict, n_triangles: int) -> list:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stats: stdout is not JSON ({exc})"]
    out = _measures_differ("stats", payload, want)
    if payload.get("triangles") != n_triangles:
        out.append(f"stats: triangles {payload.get('triangles')} != {n_triangles}")
    return out


def check_simplify(report_path, bsf_path, before: dict, seeds) -> list:
    """``report.after`` must match the output field and ``report.before``
    the input; every seeded cell that left the worklist must have an
    exactly zero determinant in the output."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    mesh = read_bsf(bsf_path)
    out = _measures_differ("simplify before", report["before"], before)
    out += _measures_differ("simplify after", report["after"], jacobi_measures(mesh))
    dets = mesh.dets()
    pending = set(report["residual_cl"])
    nonzero = [int(t) for t in seeds if t not in pending and dets[t] != 0.0]
    if nonzero:
        out.append(f"simplify: {len(nonzero)} seeded cells keep a nonzero det, e.g. {nonzero[:5]}")
    return out


def check_graph_dot(dot_path, regions_d: int) -> list:
    with open(dot_path, encoding="utf-8") as fh:
        nodes = sum(1 for line in fh if re.match(r"\s+\d+ \[label=", line))
    if nodes != regions_d:
        return [f"graph: {nodes} DOT nodes != stats regions_per_variant D {regions_d}"]
    return []


def check_svg(svg_path, n_triangles: int, n_jacobi_edges: int) -> list:
    try:
        root = ET.parse(svg_path).getroot()
    except ET.ParseError as exc:
        return [f"render: SVG does not parse as XML ({exc})"]
    ns = "{http://www.w3.org/2000/svg}"
    polygons = sum(1 for _ in root.iter(f"{ns}polygon"))
    lines = sum(1 for _ in root.iter(f"{ns}line"))
    out = []
    if polygons != n_triangles:
        out.append(f"render: {polygons} polygons != {n_triangles} triangles")
    if lines != n_jacobi_edges:
        out.append(f"render: {lines} Jacobi lines != oracle {n_jacobi_edges} edges")
    return out


def check_compare(table_path, methods, original: dict) -> list:
    with open(table_path, encoding="utf-8") as fh:
        rows = [line.split("|")[1:-1] for line in fh.read().splitlines()[2:]]
    cells = {r[1].strip(): [c.strip().strip("*") for c in r[2:]] for r in rows}
    out = [f"compare: error row for {m}" for m, c in cells.items() if c[0].startswith("error")]
    if sorted(cells) != sorted(methods):
        out.append(f"compare: rows {sorted(cells)} != methods {sorted(methods)}")
    elif cells["original"][1] != str(original["components"]):
        out.append(f"compare: original components {cells['original'][1]} != oracle")
    return out
