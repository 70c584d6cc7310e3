import functools
import warnings

import numpy as np
import pytest

from jacobiset import (
    DegenerateTriangleError,
    MeshError,
    ParseError,
    load_bsf,
    load_field,
    load_sgf,
    save_bsf,
    save_sgf,
    triangulate_structured,
)
from jacobiset import fileio
from jacobiset.fileio import GridField, sniff_format

from conftest import (
    assert_same_field,
    bits,
    load_bsf_oracle,
    load_sgf_oracle,
    save_bsf_oracle,
    save_sgf_oracle,
    unit_triangle,
    wave_field,
)

MINIMAL_BSF = """bsf 1
vertices 3 triangles 1
0.0 0.0 0.0 0.0
1.0 0.0 1.0 0.0
0.0 1.0 0.0 1.0
0 1 2
"""


def test_load_minimal_simplex(tmp_path):
    path = tmp_path / "tri.bsf"
    path.write_text(MINIMAL_BSF)
    field = load_bsf(path)
    assert field.n_triangles == 1
    assert field.domain_areas[0] > 0
    assert np.array_equal(field.values, [[0, 0], [1, 0], [0, 1]])


def test_load_hex_floats(tmp_path):
    path = tmp_path / "tri.bsf"
    path.write_text(
        "bsf 1\nvertices 3 triangles 1\n"
        "0x0.0p+0 0.0 0x1.8p+1 0.0\n"
        "1.0 0.0 1.0 0.0\n"
        "0.0 1.0 0.0 1.0\n"
        "0 1 2\n"
    )
    field = load_bsf(path)
    assert field.values[0, 0] == 3.0


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.bsf"
    path.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 oops 0\n0 1 0 1\n0 1 2\n")
    with pytest.raises(ParseError) as err:
        load_bsf(path)
    assert err.value.line == 4


def test_repeated_index_is_degenerate_error(tmp_path):
    path = tmp_path / "bad.bsf"
    path.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n0 1 0 1\n0 1 1\n")
    with pytest.raises(DegenerateTriangleError, match="degenerate triangle"):
        load_bsf(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "short.bsf"
    path.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n")
    with pytest.raises(ParseError):
        load_bsf(path)


def test_roundtrip_minimal(tmp_path):
    field = unit_triangle([(0.1, -0.2), (1e-17, 2.5), (3.125, -7.0)])
    path = tmp_path / "rt.bsf"
    save_bsf(field, path)
    back = load_bsf(path)
    assert np.array_equal(back.positions, field.positions)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.triangles, field.triangles)


def test_roundtrip_structured_bit_exact(tmp_path, rng):
    w, h = 45, 20
    field = triangulate_structured(
        w, h, (0.31, 0.17), rng.normal(size=w * h), rng.normal(size=w * h)
    )
    path = tmp_path / "grid.bsf"
    save_bsf(field, path)
    back = load_bsf(path)
    assert back.n_triangles == field.n_triangles
    assert np.array_equal(back.positions, field.positions)
    assert np.array_equal(back.values, field.values)
    # Saving again is byte-identical (determinism).
    path2 = tmp_path / "grid2.bsf"
    save_bsf(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_paper_scale_grid(tmp_path, rng):
    n = 450 * 200
    field = triangulate_structured(
        450, 200, (1.0, 1.0), rng.normal(size=n), rng.normal(size=n)
    )
    path = tmp_path / "big.bsf"
    save_bsf(field, path)
    back = load_bsf(path)
    assert back.n_vertices == field.n_vertices
    assert back.n_triangles == field.n_triangles == 178_702
    assert np.array_equal(back.positions, field.positions)
    assert np.array_equal(back.values, field.values)


def test_save_unwritable_path(tmp_path):
    field = unit_triangle(np.zeros((3, 2)))
    with pytest.raises(OSError):
        save_bsf(field, tmp_path / "missing_dir" / "x.bsf")


def test_sgf_roundtrip(tmp_path, rng):
    grid = GridField(5, 4, 0.5, 0.25, rng.normal(size=20), rng.normal(size=20))
    path = tmp_path / "grid.sgf"
    save_sgf(grid, path)
    back = load_sgf(path)
    assert back.width == 5 and back.height == 4
    assert back.dx == 0.5 and back.dy == 0.25
    assert np.array_equal(back.f, grid.f)
    assert np.array_equal(back.g, grid.g)


def test_sgf_to_tri_field():
    grid = GridField(3, 3, 1.0, 1.0, np.arange(9.0), np.arange(9.0) ** 2)
    field = grid.to_tri_field()
    assert field.n_triangles == 8
    # Row-major, x fastest: vertex (i, j) holds sample j*w + i.
    assert field.values[4, 0] == 4.0


def test_sniff_and_load_field(tmp_path):
    bsf = tmp_path / "a.bsf"
    bsf.write_text(MINIMAL_BSF)
    sgf = tmp_path / "b.sgf"
    save_sgf(GridField(2, 2, 1.0, 1.0, np.zeros(4), np.zeros(4)), sgf)
    assert sniff_format(bsf) == "bsf"
    assert sniff_format(sgf) == "sgf"
    assert load_field(bsf).n_triangles == 1
    assert load_field(sgf).n_triangles == 2
    junk = tmp_path / "c.txt"
    junk.write_text("hello\n")
    with pytest.raises(ParseError):
        sniff_format(junk)


def test_bsf_huge_declared_count_is_parse_error(tmp_path):
    path = tmp_path / "huge.bsf"
    path.write_text("bsf 1\nvertices 100000000000 triangles 1\n0 0 0 0\n")
    with pytest.raises(ParseError) as err:
        load_bsf(path)
    assert err.value.line == 2


def test_sgf_huge_declared_count_is_parse_error(tmp_path):
    path = tmp_path / "huge.sgf"
    path.write_text("sgf 1\ngrid 100000 1000000 1 1\n0 0\n")
    with pytest.raises(ParseError) as err:
        load_sgf(path)
    assert err.value.line == 2


@pytest.mark.parametrize("spacing", ["nan", "inf", "-inf", "0"])
def test_sgf_bad_grid_spacing_is_parse_error(tmp_path, spacing):
    path = tmp_path / "bad.sgf"
    for header in (f"grid 2 2 {spacing} 1", f"grid 2 2 1 {spacing}"):
        path.write_text(f"sgf 1\n{header}\n0 0\n1 0\n0 1\n1 1\n")
        with pytest.raises(ParseError, match="grid spacing must be finite and nonzero") as err:
            load_sgf(path)
        assert err.value.line == 2


@pytest.mark.parametrize(
    "name, text, line, message",
    [
        ("only.bsf", "bsf 1", 2, "unexpected end of file"),
        ("only.bsf", "bsf 1\n", 2, "unexpected end of file"),
        ("neg.bsf", "bsf 1\nvertices -1 triangles 0\n", 2, "negative count"),
        ("neg.bsf", "bsf 1\nvertices 3 triangles -2\n0 0 0 0\n1 0 0 0\n0 1 0 0\n", 2,
         "negative count"),
        ("only.sgf", "sgf 1", 2, "unexpected end of file"),
        ("only.sgf", "sgf 1\n", 2, "unexpected end of file"),
        ("empty.bsf", "", 1, "expected 'bsf 1' header, got ''"),
        ("blank.bsf", "bsf 1\n\n0 0 0 0\n", 2, "expected 'vertices <N> triangles <M>'"),
        ("blank.sgf", "sgf 1\n\n0 0\n", 2, "expected 'grid <W> <H> <dx> <dy>'"),
        ("thin.sgf", "sgf 1\ngrid 1 2 1 1\n0 0\n0 0\n", 2, "grid must be at least 2 x 2"),
        ("flat.sgf", "sgf 1\ngrid 2 1 1 1\n0 0\n0 0\n", 2, "grid must be at least 2 x 2"),
    ],
)
def test_header_error_is_parse_error_of_its_line(tmp_path, name, text, line, message):
    path = tmp_path / name
    path.write_text(text)
    load, oracle = (load_bsf, load_bsf_oracle) if name.endswith(".bsf") else (load_sgf, load_sgf_oracle)
    with pytest.raises(ParseError) as new:
        load(path)
    with pytest.raises(ParseError) as old:
        oracle(path)
    assert str(new.value) == str(old.value) == f"{path}:{line}: {message}"


def test_sgf_negative_grid_spacing_loads(tmp_path):
    path = tmp_path / "neg.sgf"
    path.write_text("sgf 1\ngrid 2 2 -1 0.5\n0 0\n1 0\n0 1\n1 1\n")
    grid = load_sgf(path)
    assert (grid.dx, grid.dy) == (-1.0, 0.5)


@pytest.mark.parametrize("spacing", [float("nan"), float("inf"), 0.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_grid_field_rejects_bad_spacing_as_the_reader_does(spacing, axis):
    dx, dy = (spacing, 1.0) if axis == 0 else (1.0, spacing)
    with pytest.raises(ValueError, match="^grid spacing must be finite and nonzero$"):
        GridField(3, 2, dx, dy, np.zeros(6), np.zeros(6))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("component", ["f", "g"])
def test_grid_field_rejects_a_non_finite_sample_as_the_mesh_does(bad, component):
    samples = {"f": np.zeros(6), "g": np.zeros(6)}
    samples[component][4] = bad
    with pytest.raises(MeshError, match="^non-finite vertex value$"):
        GridField(3, 2, 1.0, 1.0, **samples)


@pytest.mark.parametrize("dx, dy", [(-1.0, 1.0), (1.0, -0.5), (-2.0, -0.5)])
def test_grid_field_negative_spacing_builds_and_roundtrips(tmp_path, dx, dy):
    grid = GridField(3, 2, dx, dy, np.arange(6.0), np.arange(6.0) ** 2)
    path = tmp_path / "neg.sgf"
    save_sgf(grid, path)
    back = load_sgf(path)
    assert (back.dx, back.dy) == (dx, dy)
    assert back.to_tri_field().n_triangles == 4


def no_leaked_warnings(test):
    """Fail ``test`` if a warning escapes the readers: numpy's reader warns
    on a block the file ends before, and on "5.0" as an index under numpy
    1.24-1.26."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            test(*args, **kwargs)
        assert [str(w.message) for w in caught] == []

    return run


def _no_fallback(path):
    raise AssertionError(f"{path} left numpy's reader for the line parser")


@pytest.fixture
def fallbacks(monkeypatch):
    """The paths the readers hand to their line-by-line fallback."""
    calls = []
    read_lines = fileio._read_lines
    monkeypatch.setattr(fileio, "_read_lines", lambda path: calls.append(path) or read_lines(path))
    return calls


def assert_same_sgf(a, b):
    assert (a.width, a.height) == (b.width, b.height)
    assert np.array_equal(bits(np.array([a.dx, a.dy])), bits(np.array([b.dx, b.dy])))
    assert np.array_equal(bits(a.f), bits(b.f))
    assert np.array_equal(bits(a.g), bits(b.g))


@no_leaked_warnings
def test_bsf_matches_line_oracle(tmp_path, rng, monkeypatch):
    field = wave_field(rng, 19, 11)
    field.values[[0, 5]] = (-0.0, 0.0)
    new, old = tmp_path / "new.bsf", tmp_path / "old.bsf"
    save_bsf(field, new)
    save_bsf_oracle(field, old)
    assert new.read_bytes() == old.read_bytes()
    monkeypatch.setattr(fileio, "_read_lines", _no_fallback)
    assert_same_field(load_bsf(new), load_bsf_oracle(new))


@no_leaked_warnings
def test_sgf_matches_line_oracle(tmp_path, rng, monkeypatch):
    f = rng.normal(size=(6, 9))
    f[0, :3] = -0.0
    grid = GridField(9, 6, 0.3, 1e-17, f, rng.normal(size=(6, 9)))
    new, old = tmp_path / "new.sgf", tmp_path / "old.sgf"
    save_sgf(grid, new)
    save_sgf_oracle(grid, old)
    assert new.read_bytes() == old.read_bytes()
    monkeypatch.setattr(fileio, "_read_lines", _no_fallback)
    assert_same_sgf(load_sgf(new), load_sgf_oracle(new))


@no_leaked_warnings
def test_hex_float_files_match_line_oracle(tmp_path, rng, fallbacks):
    field = wave_field(rng, 5, 4)
    rows = [" ".join(float(x).hex() for x in row) for row in np.hstack([field.positions, field.values])]
    rows[6] = rows[6].replace("0x", "0X")
    tris = [" ".join(map(str, t)) for t in field.triangles.tolist()]
    path = tmp_path / "hex.bsf"
    path.write_text(
        f"bsf 1\nvertices {field.n_vertices} triangles {field.n_triangles}\n"
        + "\n".join(rows + tris) + "\n"
    )
    assert_same_field(load_bsf(path), load_bsf_oracle(path))
    assert_same_field(load_bsf(path), field)
    sgf = tmp_path / "hex.sgf"
    sgf.write_text(
        "sgf 1\ngrid 2 2 0x1.0p-1 1.0\n0x1.8p+1 -0x0.0p+0\n1.5 2\n0x1p-1074 -0.0\n3 4\n"
    )
    a, b = load_sgf(sgf), load_sgf_oracle(sgf)
    assert a.dx == 0.5
    assert_same_sgf(a, b)
    assert fallbacks == [path, path, sgf]


@no_leaked_warnings
def test_blank_and_truncated_blocks_take_fallback(tmp_path, rng, fallbacks):
    field = wave_field(rng, 4, 3)
    path = tmp_path / "ok.bsf"
    save_bsf(field, path)
    lines = path.read_text().split("\n")
    sgf = tmp_path / "ok.sgf"
    save_sgf(GridField(3, 3, 1.0, 0.5, rng.normal(size=9), rng.normal(size=9)), sgf)
    sgf_lines = sgf.read_text().split("\n")
    cases = [
        (path, load_bsf, load_bsf_oracle, lines[:7] + [""] + lines[7:], 8),
        (path, load_bsf, load_bsf_oracle, lines[:20] + [" \t"] + lines[20:], 21),
        (path, load_bsf, load_bsf_oracle, lines[:9] + [lines[9][:5]], 2),
        (path, load_bsf, load_bsf_oracle, lines[:14], 2),  # no triangle lines
        (sgf, load_sgf, load_sgf_oracle, sgf_lines[:4] + [""] + sgf_lines[4:], 5),
        (sgf, load_sgf, load_sgf_oracle, sgf_lines[:6], 2),
    ]
    for target, load, oracle, broken, lineno in cases:
        target.write_text("\n".join(broken))
        with pytest.raises(ParseError) as new:
            load(target)
        with pytest.raises(ParseError) as old:
            oracle(target)
        assert new.value.line == old.value.line == lineno
        assert str(new.value) == str(old.value)
    assert fallbacks == [case[0] for case in cases]
    # A blank line after the last block is not part of the file's data.
    path.write_text("\n".join(lines) + "\n\n")
    assert_same_field(load_bsf(path), field)
    assert len(fallbacks) == len(cases)


@no_leaked_warnings
def test_error_line_numbers_match_line_oracle(tmp_path, rng, fallbacks):
    field = wave_field(rng, 4, 3)
    path = tmp_path / "ok.bsf"
    save_bsf(field, path)
    lines = path.read_text().split("\n")
    cases = [
        ({9: "1 2 3"}, 9),
        ({13: "0 1 x 2"}, 13),
        ({16: "0 1 2 3"}, 16),
        ({20: "0 y 1"}, 20),
        ({21: "0 5.0 1"}, 21),  # numpy 1.24-1.26 reads it as 5, with a warning
        ({26: "1 2"}, 26),
        ({7: "1 2 3", 8: "1 2 3 4 5"}, 7),  # right token total, wrong split
        ({10: lines[9] + " # note"}, 10),  # no comments: six fields
        ({5: "0x1p0 0 0 0", 20: "0 1"}, 20),  # a hex float, then an error
    ]
    for case, lineno in cases:
        broken = lines.copy()
        for at, bad in case.items():
            broken[at - 1] = bad
        path.write_text("\n".join(broken))
        with pytest.raises(ParseError) as new:
            load_bsf(path)
        with pytest.raises(ParseError) as old:
            load_bsf_oracle(path)
        assert new.value.line == old.value.line == lineno
        assert str(new.value) == str(old.value)
    assert len(fallbacks) == len(cases)


@no_leaked_warnings
def test_non_finite_number_is_parse_error_of_its_line(tmp_path, rng, fallbacks):
    # numpy's reader takes nan, inf and 1e999 without a word; the reader
    # hands such a file to the line parser, which names the first bad line.
    field = wave_field(rng, 4, 3)
    path = tmp_path / "ok.bsf"
    save_bsf(field, path)
    lines = path.read_text().split("\n")
    sgf = tmp_path / "ok.sgf"
    save_sgf(GridField(3, 3, 1.0, 0.5, rng.normal(size=9), rng.normal(size=9)), sgf)
    sgf_lines = sgf.read_text().split("\n")
    hex_row = " ".join(float(x).hex() for x in lines[2].split())
    cases = [
        (path, load_bsf, load_bsf_oracle, {4: "0 0 inf 0"}, 4, "non-finite value"),
        (path, load_bsf, load_bsf_oracle, {9: "1e999 0 0 0"}, 9, "non-finite value"),
        (path, load_bsf, load_bsf_oracle, {4: "0 0 inf 0", 6: "0 x 0 0"}, 4, "non-finite value"),
        (path, load_bsf, load_bsf_oracle, {4: "0 x 0 0", 6: "0 0 inf 0"}, 4, "not a number: 'x'"),
        (path, load_bsf, load_bsf_oracle, {4: "0 0 inf 0", 20: "0 y 1"}, 4, "non-finite value"),
        (path, load_bsf, load_bsf_oracle, {3: hex_row, 5: "-inf 0 0 0"}, 5, "non-finite value"),
        (sgf, load_sgf, load_sgf_oracle, {7: "nan 0"}, 7, "non-finite value"),
        (sgf, load_sgf, load_sgf_oracle, {3: "0 -1e999", 5: "nan 0"}, 3, "non-finite value"),
    ]
    for target, load, oracle, case, lineno, message in cases:
        broken = (lines if target == path else sgf_lines).copy()
        for at, bad in case.items():
            broken[at - 1] = bad
        target.write_text("\n".join(broken))
        with pytest.raises(ParseError) as new:
            load(target)
        with pytest.raises(ParseError) as old:
            oracle(target)
        assert str(new.value) == str(old.value) == f"{target}:{lineno}: {message}"
    assert fallbacks == [case[0] for case in cases]
    # A header that declares more lines than the file holds fails first.
    path.write_text("\n".join(["bsf 1", "vertices 3 triangles 9", "0 0 inf 0"]))
    with pytest.raises(ParseError, match=":2: header declares"):
        load_bsf(path)


def test_hex_float_overflow_is_parse_error(tmp_path):
    path = tmp_path / "huge_hex.sgf"
    path.write_text("sgf 1\ngrid 2 2 1 1\n0 0\n0 0x1p99999\n0 0\n0 0\n")
    with pytest.raises(ParseError, match="out of range") as err:
        load_sgf(path)
    assert err.value.line == 4


@no_leaked_warnings
def test_byte_that_is_not_utf8_is_parse_error_of_its_line(tmp_path, rng):
    # The bad byte lies past the text reader's first chunk (8 KiB), so an
    # offset into that chunk would not find its line.
    field = wave_field(rng, 30, 20)
    path = tmp_path / "big.bsf"
    save_bsf(field, path)
    lines = path.read_bytes().split(b"\n")
    assert len(b"\n".join(lines[:399])) > 2 * 8192
    for sep, lineno in ((b"\n", 400), (b"\r\n", 401), (b"\r", 650)):
        broken = lines.copy()
        broken[lineno - 1] = broken[lineno - 1].replace(b" ", b" \xe9", 1)
        path.write_bytes(sep.join(broken))
        for load in (load_bsf, load_field):
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == lineno
            assert str(err.value).endswith("byte 0xe9 is not UTF-8 (invalid continuation byte)")
    # A byte after the data, far past the reader's chunk that the data ends
    # in, is the error of its line too.
    grid = GridField(2, 2, 1.0, 1.0, rng.normal(size=4), rng.normal(size=4))
    bsf, sgf = tmp_path / "tail.bsf", tmp_path / "tail.sgf"
    save_bsf(grid.to_tri_field(), bsf)
    save_sgf(grid, sgf)
    tail = b"%025d\n" * 2000 % tuple(range(2000)) + b"trailing \xff\n"
    assert len(tail) > 6 * 8192
    for target, load, lineno in ((bsf, load_bsf, 2009), (sgf, load_sgf, 2007)):
        target.write_bytes(target.read_bytes() + tail)
        for read in (load, load_field):
            with pytest.raises(ParseError) as err:
                read(target)
            assert err.value.line == lineno
            assert str(err.value).endswith("byte 0xff is not UTF-8 (invalid start byte)")


@no_leaked_warnings
def test_crlf_and_cr_files_load_as_lf_files_on_both_parsers(tmp_path, rng, fallbacks):
    field = wave_field(rng, 6, 5)
    path = tmp_path / "lf.bsf"
    save_bsf(field, path)
    text = path.read_bytes()
    for sep in (b"\r\n", b"\r"):
        path.write_bytes(text.replace(b"\n", sep))
        assert sniff_format(path) == "bsf"
        assert_same_field(load_bsf(path), field)
        # A hex float sends the file to the line parser.
        path.write_bytes(text.replace(b"\n", sep).replace(b"0.0 ", b"0x0p+0 ", 1))
        assert_same_field(load_bsf(path), field)
    assert fallbacks == [path, path]
