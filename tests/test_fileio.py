import numpy as np
import pytest

from jacobiset import (
    DegenerateTriangleError,
    ParseError,
    load_bsf,
    load_field,
    load_sgf,
    save_bsf,
    save_sgf,
    triangulate_structured,
)
from jacobiset.fileio import GridField, sniff_format

from conftest import unit_triangle

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
