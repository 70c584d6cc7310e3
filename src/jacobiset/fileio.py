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

The readers parse the data lines in chunks of ``CHUNK_LINES``: each line
of a chunk must hold the expected number of tokens, and the chunk's tokens
are converted by one ``float``/``int`` pass into an array. Any anomaly in
a chunk - a wrong token count, a hex float, a token that ``float``/``int``
rejects, an index beyond int64 - sends that chunk through the line-by-line
parser, which accepts hex floats and raises :class:`ParseError` with the
offending line number. Both paths convert each token with the same
Python call, so they give the same bits. The writers format a chunk of
rows with one ``%`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .mesh import TriField, triangulate_structured


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


# A chunk's split token lists cost about 350 bytes a line; 512 lines keep
# them far below the size of the file's own line list.
CHUNK_LINES = 512
_INT64 = np.iinfo(np.int64)


def _parse_float(tok: str, path, line) -> float:
    try:
        return float(tok)
    except ValueError:
        pass
    try:
        return float.fromhex(tok)
    except ValueError:
        raise ParseError(path, line, f"not a number: {tok!r}") from None
    except OverflowError:
        raise ParseError(path, line, f"number out of range: {tok!r}") from None


def _parse_int(tok: str, path, line) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, line, f"not an integer: {tok!r}") from None


def _parse_index_row(toks, path, line) -> list:
    row = [_parse_int(t, path, line) for t in toks]
    for t, v in zip(toks, row):
        if not _INT64.min <= v <= _INT64.max:
            raise ParseError(path, line, f"index out of range: {t!r}")
    return row


def _parse_lines(path, lines, first: int, count: int, width: int, kind) -> np.ndarray:
    """Parse ``lines[first:first + count]`` into a (count, width) array of
    ``kind`` (float or int), one chunk of lines at a time. ``lines`` must
    hold all of them."""
    dtype = np.float64 if kind is float else np.int64
    noun = "fields" if kind is float else "indices"
    out = np.empty((count, width), dtype=dtype)
    for lo in range(0, count, CHUNK_LINES):
        hi = min(lo + CHUNK_LINES, count)
        rows = list(map(str.split, lines[first + lo : first + hi]))
        if set(map(len, rows)) == {width}:
            try:
                out[lo:hi] = np.fromiter(
                    map(kind, chain.from_iterable(rows)), dtype, (hi - lo) * width
                ).reshape(-1, width)
                continue
            except (ValueError, OverflowError):
                pass
        for i, toks in enumerate(rows, start=lo):
            lineno = first + i + 1
            if len(toks) != width:
                raise ParseError(path, lineno, f"expected {width} {noun}, got {len(toks)}")
            if kind is float:
                out[i] = [_parse_float(t, path, lineno) for t in toks]
            else:
                out[i] = _parse_index_row(toks, path, lineno)
    return out


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

    samples = _parse_lines(path, lines, 2, n, 4, float)
    triangles = _parse_lines(path, lines, 2 + n, m, 3, int)
    del lines  # release the text before TriField builds its adjacency
    return TriField(samples[:, :2], samples[:, 2:], triangles)


def format_rows(row_format: str, rows: np.ndarray):
    """Yield the rows of a 2D array as text, each formatted by ``row_format``
    and ended by a newline, one ``%`` call per chunk of ``CHUNK_LINES`` rows
    (``%r`` gives the ``repr`` of a float)."""
    for lo in range(0, len(rows), CHUNK_LINES):
        chunk = rows[lo : lo + CHUNK_LINES]
        yield (row_format + "\n") * len(chunk) % tuple(chunk.ravel().tolist())


def save_bsf(field: TriField, path) -> None:
    """Write ``field`` as BSF; loading the result restores it bit-exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"bsf 1\nvertices {field.n_vertices} triangles {field.n_triangles}\n")
        fh.writelines(format_rows("%r %r %r %r", np.hstack([field.positions, field.values])))
        fh.writelines(format_rows("%d %d %d", field.triangles))


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
    samples = _parse_lines(path, lines, 2, w * h, 2, float)
    f, g = samples[:, 0], samples[:, 1]
    return GridField(w, h, dx, dy, f.reshape(h, w), g.reshape(h, w))


def save_sgf(grid: GridField, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sgf 1\ngrid {grid.width} {grid.height} {_fmt(grid.dx)} {_fmt(grid.dy)}\n")
        fh.writelines(format_rows("%r %r", np.column_stack([grid.f.ravel(), grid.g.ravel()])))


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
