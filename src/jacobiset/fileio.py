"""Plain-text file formats.

BSF holds a triangulated bivariate field::

    bsf 1
    vertices <N> triangles <M>
    <x> <y> <f> <g>      (N lines, decimal or hex floats)
    <i> <j> <k>          (M lines, 0-based vertex indices)

SGF holds a structured grid of samples::

    sgf 1
    grid <W> <H> <dx> <dy>
    <f> <g>              (W*H lines, row-major, x fastest)

Floats are written with ``repr`` so a save/load round trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriField, triangulate_structured


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


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


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class GridField:
    """Structured bivariate samples on a regular grid.

    ``f`` and ``g`` are (height, width) arrays; row index is y, column
    index is x. ``dx``/``dy`` give the sample spacing.
    """

    width: int
    height: int
    dx: float
    dy: float
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=np.float64).reshape(self.height, self.width)
        self.g = np.asarray(self.g, dtype=np.float64).reshape(self.height, self.width)

    def to_tri_field(self) -> TriField:
        return triangulate_structured(
            self.width, self.height, (self.dx, self.dy), self.f.ravel(), self.g.ravel()
        )


def load_bsf(path) -> TriField:
    """Read a BSF file into a validated :class:`TriField`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")

    def need(idx):
        if idx >= len(lines):
            raise ParseError(path, len(lines), "unexpected end of file")
        return lines[idx]

    if need(0).strip() != "bsf 1":
        raise ParseError(path, 1, f"expected 'bsf 1' header, got {lines[0]!r}")
    head = need(1).split()
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
    triangles = np.empty((m, 3), dtype=np.int64)
    for j in range(m):
        lineno = 3 + n + j
        toks = need(2 + n + j).split()
        if len(toks) != 3:
            raise ParseError(path, lineno, f"expected 3 indices, got {len(toks)}")
        triangles[j] = [_parse_int(t, path, lineno) for t in toks]
    return TriField(positions, values, triangles)


def save_bsf(field: TriField, path) -> None:
    """Write ``field`` as BSF; loading the result restores it bit-exactly."""
    out = ["bsf 1", f"vertices {field.n_vertices} triangles {field.n_triangles}"]
    for p, v in zip(field.positions, field.values):
        out.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(v[0])} {_fmt(v[1])}")
    for t in field.triangles:
        out.append(f"{t[0]} {t[1]} {t[2]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def load_sgf(path) -> GridField:
    """Read an SGF file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0].strip() != "sgf 1":
        raise ParseError(path, 1, f"expected 'sgf 1' header")
    if len(lines) < 2:
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
    return GridField(w, h, dx, dy, f.reshape(h, w), g.reshape(h, w))


def save_sgf(grid: GridField, path) -> None:
    out = ["sgf 1", f"grid {grid.width} {grid.height} {_fmt(grid.dx)} {_fmt(grid.dy)}"]
    for fv, gv in zip(grid.f.ravel(), grid.g.ravel()):
        out.append(f"{_fmt(fv)} {_fmt(gv)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def sniff_format(path) -> str:
    """Return 'bsf' or 'sgf' from the file header."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first == "bsf 1":
        return "bsf"
    if first == "sgf 1":
        return "sgf"
    raise ParseError(path, 1, f"unrecognized header {first!r}")


def load_field(path) -> TriField:
    """Load either format as a :class:`TriField` (SGF is triangulated)."""
    if sniff_format(path) == "bsf":
        return load_bsf(path)
    return load_sgf(path).to_tri_field()
