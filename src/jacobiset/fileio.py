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

Both formats share one reader. It takes the two header lines with
``readline`` and hands each data block the header declares, the next
``count`` lines of the open file, to numpy's C text reader
(``np.loadtxt``), with no list of the file's lines; then it decodes the
rest of the file. A block counts only if the reader raised and warned
nothing and returned exactly ``count`` rows of the expected width.
Anything else - a wrong token count, a blank line, a short file, a hex
float, ``1_0`` or a non-ASCII digit, an index beyond int64, a float that
is not finite, a byte that is not UTF-8 anywhere in the file - re-reads
the file through the exact parser. It parses each block that numpy's
reader does not take whole line by line with ``float``/``int`` (and
``float.fromhex``), and raises :class:`ParseError` with the first bad
line's number. It decodes the file's bytes itself, as
:func:`sniff_format` does the first line's, so a byte that is not UTF-8
is the error of the line that holds it; ``\\r\\n`` and ``\\r`` end a
line, as in text mode. numpy's reader
accepts only tokens that ``float``/``int`` read to the same bits, and
splits a line on the same whitespace as ``str.split``, so both paths give
the same arrays. The writers format a chunk of rows with one ``%`` call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .mesh import MeshError, TriField, triangulate_structured


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


# The writers format this many rows with one ``%`` call.
CHUNK_LINES = 512
_INT64 = np.iinfo(np.int64)
_DTYPE = {float: np.float64, int: np.int64}
# What the fast path raises on a file it cannot take: a reader error, a
# warning turned into an error, a block of the wrong shape or with a float
# that is not finite, a header ParseError or a UnicodeDecodeError. Each
# sends the file to the line parser, which raises the error with its line
# number or returns the same arrays. So the fast path may check the header
# lines with their newline: a header error it finds is raised again by the
# line parser.
_FALLBACK_ERRORS = (ValueError, OverflowError, Warning)


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


def _read_block(rows, count: int, width: int, kind) -> np.ndarray:
    """Parse the ``count`` text lines ``rows`` with numpy's text reader into
    a (count, width) array of ``kind`` (float or int). Raises one of
    ``_FALLBACK_ERRORS`` if the reader fails or warns, if a line was
    blank, missing or of another width, or if a float is not finite."""
    if count == 0:
        return np.empty((0, width), dtype=_DTYPE[kind])
    with warnings.catch_warnings():
        # numpy 1.24-1.26 reads "5.0" as an index with a DeprecationWarning,
        # and a file that ends before the block warns "input contained no data".
        warnings.simplefilter("error")
        block = np.loadtxt(rows, dtype=_DTYPE[kind], comments=None, ndmin=2)
    if block.shape != (count, width):
        raise ValueError(f"expected a {count} x {width} block, got {block.shape}")
    if kind is float and not np.isfinite(block).all():
        raise ValueError("non-finite value")
    return block


def _parse_lines(path, lines, first: int, count: int, width: int, kind) -> np.ndarray:
    """Parse ``lines[first:first + count]`` into a (count, width) array of
    ``kind`` (float or int). ``lines`` must hold all of them. A block that
    numpy's reader takes whole is not parsed line by line: in a hex-float
    BSF only the vertex block needs the line loop."""
    try:
        return _read_block(lines[first : first + count], count, width, kind)
    except _FALLBACK_ERRORS:
        pass
    out = np.empty((count, width), dtype=_DTYPE[kind])
    noun = "fields" if kind is float else "indices"
    for i in range(count):
        lineno = first + i + 1
        toks = lines[first + i].split()
        if len(toks) != width:
            raise ParseError(path, lineno, f"expected {width} {noun}, got {len(toks)}")
        if kind is float:
            row = [_parse_float(t, path, lineno) for t in toks]
            if not all(map(math.isfinite, row)):
                raise ParseError(path, lineno, "non-finite value")
            out[i] = row
        else:
            out[i] = _parse_index_row(toks, path, lineno)
    return out


def _bsf_header(path, head) -> tuple:
    """Check the first two lines of a BSF file (one if it has no more);
    return no metadata, the vertex and triangle blocks as (count, width,
    kind), and what the header declares."""
    if head[0].strip() != "bsf 1":
        raise ParseError(path, 1, f"expected 'bsf 1' header, got {head[0]!r}")
    if len(head) < 2:
        raise ParseError(path, 2, "unexpected end of file")
    toks = head[1].split()
    if len(toks) != 4 or toks[0] != "vertices" or toks[2] != "triangles":
        raise ParseError(path, 2, "expected 'vertices <N> triangles <M>'")
    n = _parse_int(toks[1], path, 2)
    m = _parse_int(toks[3], path, 2)
    if n < 0 or m < 0:
        raise ParseError(path, 2, "negative count")
    return (), [(n, 4, float), (m, 3, int)], f"{n} vertex and {m} triangle"


def _sgf_header(path, head) -> tuple:
    """Check the first two lines of an SGF file (one if it has no more);
    return (width, height, dx, dy), the sample block as (count, width,
    kind), and what the header declares."""
    if head[0].strip() != "sgf 1":
        raise ParseError(path, 1, "expected 'sgf 1' header")
    if len(head) < 2:
        raise ParseError(path, 2, "unexpected end of file")
    toks = head[1].split()
    if len(toks) != 5 or toks[0] != "grid":
        raise ParseError(path, 2, "expected 'grid <W> <H> <dx> <dy>'")
    w = _parse_int(toks[1], path, 2)
    h = _parse_int(toks[2], path, 2)
    dx = _parse_float(toks[3], path, 2)
    dy = _parse_float(toks[4], path, 2)
    if w < 2 or h < 2:
        raise ParseError(path, 2, "grid must be at least 2 x 2")
    if not _spacing_ok(dx, dy):
        raise ParseError(path, 2, _BAD_SPACING)
    return (w, h, dx, dy), [(w * h, 2, float)], f"{w} x {h} sample"


_BAD_SPACING = "grid spacing must be finite and nonzero"


def _spacing_ok(dx, dy) -> bool:
    return bool(np.isfinite(dx) and np.isfinite(dy) and dx and dy)


def _decode(path, data: bytes) -> str:
    """``data`` as UTF-8 text with text mode's newlines (``\\r\\n`` and
    ``\\r`` read as ``\\n``), or the :class:`ParseError` of the line that
    holds its first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(
            path, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_lines(path) -> list:
    """The file's lines without their newlines. A final newline ends the
    last line and starts none, so ``bsf 1\\n`` has no line 2."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read()).removesuffix("\n").split("\n")


def _check_declared(path, lines, count: int, what: str) -> None:
    """Reject a header declaring more data lines than the file holds,
    before any array is sized from it."""
    present = len(lines) - 2
    if count > present:
        raise ParseError(path, 2, f"header declares {what} lines, file has {present}")


def _read(path, header) -> tuple:
    """Read a file whose first two lines ``header`` checks: the header's
    metadata followed by one array per data block it declares. The blocks
    stream through numpy's reader, and the rest of the file is decoded too;
    on any of ``_FALLBACK_ERRORS`` the exact parser reads the file's lines
    and raises the :class:`ParseError` of the first bad one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta, blocks, _ = header(path, [fh.readline(), fh.readline()])
            arrays = [_read_block(islice(fh, c), c, w, kind) for c, w, kind in blocks]
            fh.read()  # a byte after the data that is not UTF-8 falls back too
    except _FALLBACK_ERRORS:
        arrays = None  # parse outside the handler: its errors get no context
    if arrays is None:
        lines = _read_lines(path)
        meta, blocks, declared = header(path, lines[:2])
        _check_declared(path, lines, sum(c for c, _, _ in blocks), declared)
        first, arrays = 2, []
        for count, width, kind in blocks:
            arrays.append(_parse_lines(path, lines, first, count, width, kind))
            first += count
    return (*meta, *arrays)


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class GridField:
    """Structured bivariate samples on a regular grid.

    ``f`` and ``g`` are (height, width) arrays; row index is y, column
    index is x. ``dx``/``dy`` give the sample spacing: finite and nonzero
    (a ``ValueError`` otherwise), and negative to mirror that axis. The
    samples must be finite, as a :class:`TriField`'s values must be: the
    same :class:`MeshError` otherwise.
    """

    width: int
    height: int
    dx: float
    dy: float
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if not _spacing_ok(self.dx, self.dy):
            raise ValueError(_BAD_SPACING)
        self.f = np.asarray(self.f, dtype=np.float64).reshape(self.height, self.width)
        self.g = np.asarray(self.g, dtype=np.float64).reshape(self.height, self.width)
        if not (np.isfinite(self.f).all() and np.isfinite(self.g).all()):
            raise MeshError("non-finite vertex value")

    def to_tri_field(self) -> TriField:
        return triangulate_structured(
            self.width, self.height, (self.dx, self.dy), self.f.ravel(), self.g.ravel()
        )


def load_bsf(path) -> TriField:
    """Read a BSF file into a validated :class:`TriField`."""
    samples, triangles = _read(path, _bsf_header)
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
    w, h, dx, dy, samples = _read(path, _sgf_header)
    f, g = samples[:, 0], samples[:, 1]
    return GridField(w, h, dx, dy, f.reshape(h, w), g.reshape(h, w))


def save_sgf(grid: GridField, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sgf 1\ngrid {grid.width} {grid.height} {_fmt(grid.dx)} {_fmt(grid.dy)}\n")
        fh.writelines(format_rows("%r %r", np.column_stack([grid.f.ravel(), grid.g.ravel()])))


def sniff_format(path) -> str:
    """Return 'bsf' or 'sgf' from the file header."""
    with open(path, "rb") as fh:
        first = _decode(path, fh.readline()).split("\n")[0].strip()
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
