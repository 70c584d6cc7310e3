import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from jacobiset import __version__, cli, save_bsf, save_sgf, triangulate_structured
from jacobiset.baselines import LOOP_MAX_TRIANGLES
from jacobiset.cli import main
from jacobiset.fileio import GridField, load_bsf

from conftest import noisy_island_field, wave_field


@pytest.fixture
def island_bsf(tmp_path, rng):
    field, has_island = noisy_island_field(rng, 14, 14, 2)
    assert has_island
    path = tmp_path / "island.bsf"
    save_bsf(field, path)
    return path


@pytest.fixture
def island_threshold(island_bsf):
    from jacobiset import neighborhood_graph

    _, _, _, graph = neighborhood_graph(load_bsf(island_bsf), "A")
    hvs = sorted(graph.hypervolume.tolist())
    return str(0.5 * (hvs[-2] + hvs[-1]))


@pytest.fixture
def identity_sgf(tmp_path):
    w, h = 6, 5
    xs = np.tile(np.arange(float(w)), h)
    ys = np.repeat(np.arange(float(h)), w)
    path = tmp_path / "identity.sgf"
    save_sgf(GridField(w, h, 1.0, 1.0, xs, ys), path)
    return path


def test_stats_identity(identity_sgf, capsys, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", str(identity_sgf), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["length"] == 0.0
    assert printed["components"] == 0
    assert printed["triangles"] == 40
    assert printed["regions_per_variant"] == {"A": 1, "B": 1, "C": 1, "D": 1}
    assert json.loads(out.read_text()) == printed
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["command"] == "stats"
    assert manifest["tool_version"]


def test_stats_product_field(tmp_path, capsys):
    xs = np.arange(21) * 0.1 - 1.0
    f = np.tile(xs, 21)
    g = f * np.repeat(xs, 21)
    field = triangulate_structured(21, 21, (0.1, 0.1), f, g)
    path = tmp_path / "prod.bsf"
    save_bsf(field, path)
    assert main(["stats", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["components"] == 1
    assert 1.9 <= printed["length"] <= 2.1


def test_stats_sgf_matches_triangulated_bsf(tmp_path, capsys, rng):
    w, h = 9, 7
    grid = GridField(w, h, 1.0, 1.0, rng.normal(size=w * h), rng.normal(size=w * h))
    sgf = tmp_path / "field.sgf"
    save_sgf(grid, sgf)
    bsf = tmp_path / "field.bsf"
    save_bsf(grid.to_tri_field(), bsf)
    assert main(["stats", str(sgf)]) == 0
    from_sgf = json.loads(capsys.readouterr().out)
    assert main(["stats", str(bsf)]) == 0
    from_bsf = json.loads(capsys.readouterr().out)
    assert from_sgf == from_bsf


def test_stats_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.bsf"
    bad.write_text("nonsense\n")
    assert main(["stats", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_64(capsys):
    assert main(["simplify"]) == 64  # missing required arguments
    assert main(["frobnicate"]) == 64
    assert main([]) == 64


def test_simplify_threshold_zero_identity(island_bsf, tmp_path, capsys):
    out = tmp_path / "out.bsf"
    report = tmp_path / "report.json"
    code = main(
        [
            "simplify", str(island_bsf),
            "--variant", "A", "--threshold", "0",
            "--out", str(out), "--report", str(report),
        ]
    )
    assert code == 0
    assert out.read_bytes() == island_bsf.read_bytes()
    rep = json.loads(report.read_text())
    assert rep["status"] == "completed"
    assert rep["collapsed_cells"] == 0


def test_simplify_reduces_components_and_stats_agree(island_bsf, island_threshold, tmp_path, capsys):
    out = tmp_path / "out.bsf"
    report = tmp_path / "report.json"
    code = main(
        [
            "simplify", str(island_bsf),
            "--variant", "A", "--threshold", island_threshold,
            "--out", str(out), "--report", str(report),
        ]
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["status"] == "completed"
    assert rep["after"]["components"] < rep["before"]["components"]
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["length"] == rep["after"]["length"]
    assert stats["components"] == rep["after"]["components"]


def test_simplify_byte_identical_reruns(island_bsf, island_threshold, tmp_path):
    outs = []
    for tag in ("1", "2"):
        out = tmp_path / f"out{tag}.bsf"
        report = tmp_path / f"report{tag}.json"
        assert (
            main(
                [
                    "simplify", str(island_bsf),
                    "--variant", "A", "--threshold", island_threshold,
                    "--out", str(out), "--report", str(report),
                ]
            )
            == 0
        )
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_simplify_oscillated_is_not_a_process_failure(island_bsf, tmp_path):
    out = tmp_path / "out.bsf"
    report = tmp_path / "report.json"
    code = main(
        [
            "simplify", str(island_bsf),
            "--variant", "A", "--threshold", "inf",
            "--out", str(out), "--report", str(report),
        ]
    )
    assert code == 0
    assert json.loads(report.read_text())["status"] == "oscillated"


def test_baseline_loop_identity(island_bsf, tmp_path):
    out = tmp_path / "loop0.bsf"
    assert (
        main(["baseline", str(island_bsf), "--method", "loop", "--steps", "0", "--out", str(out)])
        == 0
    )
    assert load_bsf(out).n_triangles == load_bsf(island_bsf).n_triangles


def test_baseline_loop_grows_triangles(island_bsf, tmp_path, capsys):
    out = tmp_path / "loop2.bsf"
    assert (
        main(["baseline", str(island_bsf), "--method", "loop", "--steps", "2", "--out", str(out)])
        == 0
    )
    before = load_bsf(island_bsf)
    after = load_bsf(out)
    assert after.n_triangles == 16 * before.n_triangles
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    inflated = json.loads(capsys.readouterr().out)
    capsys.readouterr()
    assert main(["stats", str(island_bsf)]) == 0
    original = json.loads(capsys.readouterr().out)
    assert inflated["components"] >= original["components"]


def test_baseline_loop_refuses_more_triangles_than_the_limit(island_bsf, tmp_path, capsys):
    out = tmp_path / "loop.bsf"
    argv = ["baseline", str(island_bsf), "--method", "loop", "--steps", "12", "--out", str(out)]
    assert main(argv) == 2
    m = load_bsf(island_bsf).n_triangles
    err = capsys.readouterr().err
    assert err.startswith("jacobiset baseline: error: 12 Loop steps")
    assert f"make {m * 4**12:,} triangles, more than the limit of {LOOP_MAX_TRIANGLES:,}" in err
    assert not out.exists()


def test_compare_reports_a_refused_loop_in_its_cell(island_bsf, capsys):
    argv = ["compare", str(island_bsf), "--methods", "original", "loop", "ca-a", "--steps", "12",
            "--format", "csv"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [row[1] for row in rows] == ["original", "loop", "ca-a"]
    assert rows[1][2].startswith("error: 12 Loop steps") and rows[1][3] == ""
    assert f"{LOOP_MAX_TRIANGLES:,}" in rows[1][2]
    for row in (rows[0], rows[2]):
        assert float(row[2]) > 0 and int(row[3]) > 0


def test_baseline_grid_filter_rejects_bsf(island_bsf, tmp_path, capsys):
    out = tmp_path / "x.sgf"
    code = main(["baseline", str(island_bsf), "--method", "binomial", "--out", str(out)])
    assert code == 2
    assert "structured grid" in capsys.readouterr().err


def test_baseline_rejects_nan_grid_spacing_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.sgf"
    path.write_text("sgf 1\ngrid 3 2 nan 1\n0 0\n1 0\n2 1\n0 1\n1 1\n2 0\n")
    out = tmp_path / "x.sgf"
    code = main(["baseline", str(path), "--method", "binomial", "--out", str(out)])
    assert code == 2
    assert f"{path}:2: grid spacing must be finite and nonzero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", [["binomial"], ["gaussian", "--sigma", "1"]])
def test_baseline_rejects_a_non_finite_sample_exit_2(tmp_path, capsys, method):
    path = tmp_path / "inf.sgf"
    path.write_text("sgf 1\ngrid 3 2 1 1\ninf 0\n1 0\n2 1\n0 1\n1 1\n2 0\n")
    out = tmp_path / "x.sgf"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["baseline", str(path), "--method", *method, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "jacobiset baseline: error: non-finite vertex value\n"
    assert not out.exists()


def test_baseline_gaussian_warns_on_degenerate_kernel(identity_sgf, tmp_path, capsys):
    out = tmp_path / "g.sgf"
    code = main(
        ["baseline", str(identity_sgf), "--method", "gaussian", "--sigma", "1000", "--out", str(out)]
    )
    assert code == 0
    assert "exceeds the grid extent" in capsys.readouterr().err


def test_gaussian_cut_warns_in_baseline_and_compare(tmp_path, capsys, rng):
    # A 12 x 6 grid has extents 11 (x) and 5 (y). Each axis's kernel is cut
    # where truncation*sigma passes that axis's extent, and both commands
    # say so on stderr.
    path = tmp_path / "field.sgf"
    save_sgf(GridField(12, 6, 1.0, 1.0, rng.normal(size=72), rng.normal(size=72)), path)
    cut = (
        "warning: truncation*sigma = {} exceeds the grid extent {}; "
        "the gaussian kernel is cut at radius {}\n"
    )
    baseline = ["baseline", str(path), "--method", "gaussian", "--out", str(tmp_path / "g.sgf")]
    for sigma, err in (
        ("1.5", ""),
        ("3", cut.format(9, 5, 5)),
        ("3.9", cut.format(11.7, 11, 11) + cut.format(11.7, 5, 5)),
    ):
        assert main([*baseline, "--sigma", sigma]) == 0
        assert capsys.readouterr().err == err
    # compare names the input each cut belongs to; a 9 x 4 grid has extents
    # 8 and 3.
    other = tmp_path / "other.sgf"
    save_sgf(GridField(9, 4, 1.0, 1.0, rng.normal(size=36), rng.normal(size=36)), other)
    assert main(["compare", str(path), str(other), "--methods", "original", "gaussian"]) == 0
    captured = capsys.readouterr()
    cut_in = "warning: {}: " + cut.removeprefix("warning: ")
    assert captured.err == (
        cut_in.format(path, 3000, 11, 11) + cut_in.format(path, 3000, 5, 5)
        + cut_in.format(other, 3000, 8, 8) + cut_in.format(other, 3000, 3, 3)
    )
    assert len(captured.out.strip().split("\n")) == 6


def test_filter_warning_that_is_not_a_cut_passes_through(identity_sgf, tmp_path, capsys, monkeypatch):
    # Only a cut kernel becomes a "warning:" line on stderr; any other
    # warning of a filter is shown as it came.
    def noisy(grid, *options):
        warnings.warn("not a cut", UserWarning)
        return grid

    monkeypatch.setattr(cli, "binomial_filter", noisy)
    out = tmp_path / "out.sgf"
    with pytest.warns(UserWarning, match="^not a cut$") as caught:
        assert main(["baseline", str(identity_sgf), "--method", "binomial", "--out", str(out)]) == 0
    assert [w.filename for w in caught] == [__file__]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "options, code, err",
    [
        (["--method", "gaussian", "--sigma", "inf"], 0, "exceeds the grid extent"),
        (["--method", "gaussian", "--sigma", "1e308"], 0, "exceeds the grid extent"),
        (["--method", "gaussian", "--truncation", "inf", "--sigma", "1"], 0, "cut at radius 5"),
        (["--method", "binomial", "--radius", "512"], 0, ""),
        (["--method", "binomial", "--radius", "600"], 0, ""),
        (["--method", "binomial", "--radius", "4097"], 2, "radius must be <= 4096"),
        (["--method", "binomial", "--radius", "9" * 40], 2, "radius must be <= 4096"),
    ],
    ids=["sigma-inf", "sigma-1e308", "truncation-inf", "radius-512", "radius-600",
         "radius-4097", "radius-huge"],
)
def test_filter_options_that_overflowed_run_or_exit_2(identity_sgf, tmp_path, capsys, options, code, err):
    out = tmp_path / "out.sgf"
    assert main(["baseline", str(identity_sgf), *options, "--out", str(out)]) == code
    captured = capsys.readouterr().err
    assert err in captured and "Traceback" not in captured
    assert out.exists() == (code == 0)
    method = options[1]
    argv = ["compare", str(identity_sgf), "--methods", "original", method, *options[2:]]
    assert main([*argv, "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 2 and "error" not in rows[0]
    assert ("error: radius must be <= 4096" in rows[1]) == (code == 2)


@pytest.mark.parametrize(
    "name, data, line, reason",
    [
        ("data.bsf", b"bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 \xff 0\n0 1 0 1\n0 1 2\n", 4,
         "invalid start byte"),
        ("crlf.bsf", b"bsf 1\r\nvertices 3 triangles 1\r\n0 0 0 0\r\n1 0 0 0\r\n"
         b"0 1 0 1\r\n0 1 \xff\r\n", 6, "invalid start byte"),
        ("data.sgf", b"sgf 1\ngrid 2 2 1 1\n0 0\n1 0\n0 \xff\n1 1\n", 5, "invalid start byte"),
        ("cr.sgf", b"sgf 1\rgrid 2 2 1 1\r0 0\r1 0\r0 1\r\xc3\r", 6, "invalid continuation byte"),
        ("first.bsf", b"\xff\xfebsf 1\nvertices 0 triangles 0\n", 1, "invalid start byte"),
    ],
)
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, capsys, name, data, line, reason):
    path = tmp_path / name
    path.write_bytes(data)
    byte = next(b for b in data if b >= 0x80)
    message = f"{path}:{line}: byte 0x{byte:02x} is not UTF-8 ({reason})"
    assert main(["stats", str(path)]) == 2
    assert capsys.readouterr().err == f"jacobiset stats: error: {message}\n"
    assert main(["compare", str(path), "--methods", "original", "loop", "--format", "csv"]) == 2
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows == [f"{path},{m},error: {message}," for m in ("original", "loop")]


def test_render_svg_output(island_bsf, tmp_path):
    out = tmp_path / "field.svg"
    assert main(["render", str(island_bsf), "--out", str(out)]) == 0
    svg = out.read_text()
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)
    assert (tmp_path / "field.svg.manifest.json").exists()


def test_graph_exports(island_bsf, tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["graph", str(island_bsf), "--variant", "A", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("graph neighborhood_A {")
    js = tmp_path / "g.json"
    assert main(["graph", str(island_bsf), "--variant", "B", "--out", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert payload["variant"] == "B"
    assert payload["nodes"]
    bad = tmp_path / "g.xml"
    assert main(["graph", str(island_bsf), "--out", str(bad)]) == 64
    # The extension is checked before the input is read.
    assert main(["graph", str(tmp_path / "missing.bsf"), "--out", str(bad)]) == 64
    assert not bad.exists()
    assert not list(tmp_path.glob("g.xml*"))


def test_compare_markdown_and_partial_failure(island_bsf, island_threshold, identity_sgf, tmp_path, capsys):
    code = main(
        [
            "compare", str(island_bsf), str(identity_sgf),
            "--methods", "original", "ca-a", "binomial",
            "--threshold", island_threshold,
            "--format", "markdown",
        ]
    )
    assert code == 0  # at least one cell succeeded
    table = capsys.readouterr().out
    assert table.startswith("| Input | Method |")
    assert "error" in table  # binomial on BSF input annotates the cell
    assert "**" in table  # best values bolded


def test_compare_csv_single_cell(identity_sgf, capsys):
    assert main(["compare", str(identity_sgf), "--methods", "original", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0] == "input,method,length,components"
    assert rows[1].endswith(",original,0,0")


def test_compare_csv_quotes_cells_with_commas(tmp_path, capsys):
    short_row = tmp_path / "short_row.bsf"
    short_row.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 0\n0 1 0 1\n0 1 2\n")
    short_file = tmp_path / "short_file.bsf"
    short_file.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n")
    argv = ["compare", str(short_row), str(short_file), "--methods", "original", "loop",
            "--format", "csv"]
    assert main(argv) == 2
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["input", "method", "length", "components"]
    assert len(rows) == 5
    assert all(len(row) == 4 for row in rows)
    fields = f"error: {short_row}:4: expected 4 fields, got 3"
    lines = f"error: {short_file}:2: header declares 3 vertex and 1 triangle lines, file has 1"
    assert rows[1:] == [
        [str(short_row), "original", fields, ""],
        [str(short_row), "loop", fields, ""],
        [str(short_file), "original", lines, ""],
        [str(short_file), "loop", lines, ""],
    ]


def test_compare_markdown_escapes_pipes(tmp_path, capsys):
    path = tmp_path / "a|b.bsf"
    path.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n")
    assert main(["compare", str(path), "--methods", "original"]) == 2
    row = capsys.readouterr().out.strip().split("\n")[2]
    cells = [c.strip() for c in re.split(r"(?<!\\)\|", row)[1:-1]]
    escaped = str(path).replace("|", "\\|")
    assert cells == [
        escaped,
        "original",
        f"error: {escaped}:2: header declares 3 vertex and 1 triangle lines, file has 1",
        "",
    ]


def test_compare_requires_methods(identity_sgf):
    assert main(["compare", str(identity_sgf)]) == 64


# Four vertices, one triangle: vertex 3 lies in no triangle.
UNREFERENCED_VERTEX_BSF = """bsf 1
vertices 4 triangles 1
0.0 0.0 0.0 0.0
1.0 0.0 1.0 0.0
0.0 1.0 0.0 1.0
5.0 5.0 2.0 3.0
0 1 2
"""


def test_baseline_loop_unreferenced_vertex(tmp_path):
    path = tmp_path / "loose.bsf"
    path.write_text(UNREFERENCED_VERTEX_BSF)
    out = tmp_path / "loop.bsf"
    assert (
        main(["baseline", str(path), "--method", "loop", "--steps", "2", "--out", str(out)])
        == 0
    )
    result = load_bsf(out)
    assert result.n_triangles == 16
    assert list(result.values[3]) == [2.0, 3.0]  # unreferenced vertex keeps its value


def test_compare_loop_unreferenced_vertex(tmp_path, capsys):
    path = tmp_path / "loose.bsf"
    path.write_text(UNREFERENCED_VERTEX_BSF)
    code = main(["compare", str(path), "--methods", "original", "loop", "--format", "csv"])
    assert code == 0
    table = capsys.readouterr().out
    assert "error" not in table
    assert table.strip().split("\n")[2].endswith(",loop,0,0")


def test_stats_index_beyond_int64_exit_2(tmp_path, capsys):
    path = tmp_path / "huge_index.bsf"
    path.write_text(
        "bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n0 1 0 1\n0 1 99999999999999999999\n"
    )
    assert main(["stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:6:" in err
    assert "99999999999999999999" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simplify", "--threshold", "nan"], "threshold must be >= 0"),
        (["stats", "--epsilon", "nan"], "epsilon must be >= 0"),
        (["render", "--saturation-scale", "nan"], "saturation scale must be > 0"),
        (["baseline", "--method", "gaussian", "--sigma", "nan"], "sigma must be > 0"),
        (["baseline", "--method", "gaussian", "--truncation", "nan"], "truncation must be >= 1"),
    ],
    ids=["threshold", "epsilon", "saturation-scale", "sigma", "truncation"],
)
def test_nan_option_is_rejected_exit_2(identity_sgf, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [argv[0], str(identity_sgf), *argv[1:]]
    if argv[0] != "stats":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def _manifest(path):
    manifest = json.loads((path.parent / f"{path.name}.manifest.json").read_text())
    assert set(manifest) == {
        "command", "tool_version", "inputs", "parameters", "outputs", "elapsed_ms"
    }
    assert manifest["tool_version"] == __version__
    assert manifest["elapsed_ms"] >= 0.0
    return manifest


def test_manifests_pinned(island_bsf, identity_sgf, tmp_path):
    bsf, sgf = str(island_bsf), str(identity_sgf)
    o = {name: str(tmp_path / name) for name in (
        "stats.json", "out.bsf", "report.json", "loop.bsf", "gauss.sgf", "field.svg", "g.json"
    )}
    cases = [
        (["stats", sgf, "--out", o["stats.json"]], [sgf], {"epsilon": 0.0}, [o["stats.json"]]),
        (
            ["simplify", bsf, "--threshold", "0", "--out", o["out.bsf"],
             "--report", o["report.json"]],
            [bsf],
            {"variant": "A", "threshold": 0.0, "epsilon": 0.0},
            [o["out.bsf"], o["report.json"]],
        ),
        (
            ["baseline", bsf, "--method", "loop", "--steps", "1", "--out", o["loop.bsf"]],
            [bsf],
            {"method": "loop", "steps": 1},
            [o["loop.bsf"]],
        ),
        (
            ["baseline", sgf, "--method", "gaussian", "--sigma", "2", "--radius", "3",
             "--boundary", "mirror", "--out", o["gauss.sgf"]],
            [sgf],
            {"method": "gaussian", "radius": 3, "sigma": 2.0, "truncation": 3.0,
             "boundary": "mirror"},
            [o["gauss.sgf"]],
        ),
        (
            ["render", bsf, "--no-show-jacobi", "--out", o["field.svg"]],
            [bsf],
            {"show_jacobi": False, "saturation_scale": 1.0, "epsilon": 0.0},
            [o["field.svg"]],
        ),
        (
            ["graph", bsf, "--variant", "C", "--epsilon", "0.5", "--out", o["g.json"]],
            [bsf],
            {"variant": "C", "epsilon": 0.5},
            [o["g.json"]],
        ),
    ]
    for argv, inputs, parameters, outputs in cases:
        assert main(argv) == 0, argv
        manifest = _manifest(tmp_path / outputs[0])
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == inputs
        assert manifest["parameters"] == parameters
        assert list(manifest["parameters"]) == list(parameters)
        assert manifest["outputs"] == outputs


def test_no_manifest_without_output(identity_sgf, tmp_path, capsys):
    assert main(["stats", str(identity_sgf)]) == 0
    assert main(["compare", str(identity_sgf), "--methods", "original"]) == 0
    assert not list(tmp_path.glob("*.manifest.json"))


def test_compare_out_writes_manifest(identity_sgf, island_bsf, tmp_path):
    out = tmp_path / "t.md"
    inputs = [str(identity_sgf), str(island_bsf)]
    argv = ["compare", *inputs, "--methods", "original", "loop", "--steps", "1", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().startswith("| Input | Method |")
    manifest = _manifest(out)
    assert manifest["command"] == "compare"
    assert manifest["inputs"] == inputs
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["methods"] == ["original", "loop"]
    assert manifest["parameters"]["steps"] == 1


def test_compare_parses_each_input_once(identity_sgf, island_bsf, monkeypatch, capsys):
    from jacobiset import cli, fileio

    parsed = []
    for name in ("load_sgf", "load_bsf"):
        def counted(path, _load=getattr(fileio, name)):
            parsed.append(str(path))
            return _load(path)

        # Both binding sites, so a parse through fileio.load_field counts too.
        monkeypatch.setattr(fileio, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    inputs = [str(identity_sgf), str(island_bsf)]
    methods = ["original", "ca-a", "binomial", "loop"]
    argv = ["compare", *inputs, "--methods", *methods, "--steps", "1", "--format", "csv"]
    assert main(argv) == 0
    assert sorted(parsed) == sorted(inputs)
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [r.split(",")[:2] for r in rows] == [[p, m] for p in inputs for m in methods]
    assert sum("error" in r for r in rows) == 1  # binomial on the BSF


def test_compare_error_rows_pinned(identity_sgf, tmp_path, capsys):
    bad_body = tmp_path / "bad_body.bsf"
    bad_body.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 x 0\n0 1 0 1\n0 1 2\n")
    bad_head = tmp_path / "bad_head.txt"
    bad_head.write_text("hello\n")
    flat = tmp_path / "flat.sgf"
    flat.write_text("sgf 1\ngrid 2 2 0 1\n0 0\n1 0\n0 1\n1 1\n")
    collinear = tmp_path / "collinear.bsf"
    collinear.write_text("bsf 1\nvertices 3 triangles 1\n0 0 0 0\n1 0 1 0\n2 0 0 1\n0 1 2\n")
    missing = tmp_path / "missing.sgf"
    methods = ["original", "ca-b", "binomial", "gaussian", "loop"]
    argv = ["compare", str(bad_body), str(bad_head), str(flat), str(collinear), str(missing),
            str(identity_sgf), "--methods", *methods, "--format", "csv", "--radius", "0"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    parse = f"error: {bad_body}:4: not a number: 'x'"
    head = f"error: {bad_head}:1: unrecognized header 'hello'"
    spacing = f"error: {flat}:2: grid spacing must be finite and nonzero"
    zero = "error: degenerate triangle (zero domain area) at id 0"
    gone = f"error: [Errno 2] No such file or directory: '{missing}'"
    needs_grid = ["error: binomial requires structured grid (SGF) input",
                  "error: gaussian requires structured grid (SGF) input"]
    expected = {
        bad_body: [parse, parse, *needs_grid, parse],
        bad_head: [head] * 5,
        flat: [spacing] * 5,
        collinear: [zero, zero, *needs_grid, zero],
        missing: [gone] * 5,
    }
    for path, cells in expected.items():
        for method, cell in zip(methods, cells):
            assert f"{path},{method},{cell}," in rows
    assert f"{identity_sgf},binomial,error: radius must be >= 1," in rows
    assert f"{identity_sgf},loop,0,0" in rows


def test_filters_check_only_the_options_they_read(identity_sgf, tmp_path, capsys):
    # binomial reads --radius and --boundary, gaussian --sigma, --truncation
    # and --boundary: an option a filter does not read is not checked for it.
    src = str(identity_sgf)
    table = ["compare", src, "--methods", "binomial", "gaussian", "--format", "csv"]
    assert main(table) == 0
    plain = capsys.readouterr().out.strip().split("\n")
    assert not any("error" in row for row in plain)
    assert main([*table, "--sigma", "0"]) == 0
    assert capsys.readouterr().out.strip().split("\n") == [
        *plain[:2], f"{src},gaussian,error: sigma must be > 0,"
    ]
    assert main([*table, "--radius", "0"]) == 0
    assert capsys.readouterr().out.strip().split("\n") == [
        plain[0], f"{src},binomial,error: radius must be >= 1,", plain[2]
    ]

    binomial = ["baseline", src, "--method", "binomial"]
    assert main([*binomial, "--out", str(tmp_path / "plain.sgf")]) == 0
    unread = ["--sigma", "0", "--truncation", "0", "--out", str(tmp_path / "unread.sgf")]
    assert main([*binomial, *unread]) == 0
    assert (tmp_path / "unread.sgf").read_bytes() == (tmp_path / "plain.sgf").read_bytes()
    gaussian = ["baseline", src, "--method", "gaussian"]
    for argv, message in (
        ([*binomial, "--radius", "0"], "radius must be >= 1"),
        ([*gaussian, "--sigma", "0"], "sigma must be > 0"),
        ([*gaussian, "--truncation", "0.5"], "truncation must be >= 1"),
    ):
        assert main([*argv, "--out", str(tmp_path / "bad.sgf")]) == 2
        assert capsys.readouterr().err == f"jacobiset baseline: error: {message}\n"
    assert main([*binomial, "--boundary", "wrap", "--out", str(tmp_path / "bad.sgf")]) == 64
    assert "argument --boundary: invalid choice: 'wrap'" in capsys.readouterr().err
    assert not (tmp_path / "bad.sgf").exists()


def test_compare_reports_an_sgf_that_does_not_triangulate_in_every_cell(tmp_path, capsys):
    # The inf grid does not load. The tiny grid loads, but its spacing
    # underflows to zero area and fails the triangulation; the filter cells
    # report that error too, without smoothing the grid.
    path = tmp_path / "inf.sgf"
    path.write_text("sgf 1\ngrid 3 2 1 1\ninf 0\n1 0\n2 1\n0 1\n1 1\n2 0\n")
    tiny = tmp_path / "tiny.sgf"
    tiny.write_text("sgf 1\ngrid 3 2 1e-200 1e-200\n0 0\n1 0\n2 1\n0 1\n1 1\n2 0\n")
    methods = ["original", "ca-a", "binomial", "gaussian", "loop"]
    argv = ["compare", str(path), str(tiny), "--methods", *methods, "--format", "csv"]
    assert main(argv) == 2
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows == [f"{path},{m},error: non-finite vertex value," for m in methods] + [
        f"{tiny},{m},error: degenerate triangle (zero domain area) at id 0," for m in methods
    ]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jacobiset", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "jacobiset" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy is an optional test and benchmark dependency; importing it
    # would cost every CLI process a few tenths of a second.
    import jacobiset

    src = os.path.dirname(os.path.dirname(jacobiset.__file__))
    code = (
        "import sys, jacobiset.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_empty_mesh_stats_and_simplify_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty.bsf"
    empty.write_text("bsf 1\nvertices 3 triangles 0\n0 0 0 0\n1 0 1 1\n0 1 2 2\n")
    assert main(["stats", str(empty)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "length": 0.0,
        "components": 0,
        "triangles": 0,
        "regions_per_variant": {"A": 0, "B": 0, "C": 0, "D": 0},
    }
    out = tmp_path / "out.bsf"
    assert main(["simplify", str(empty), "--threshold", "1", "--out", str(out)]) == 0
    assert "collapsed 0 cells" in capsys.readouterr().out
    assert out.read_text() == (
        "bsf 1\nvertices 3 triangles 0\n0.0 0.0 0.0 0.0\n1.0 0.0 1.0 1.0\n0.0 1.0 2.0 2.0\n"
    )


def test_render_field_without_vertices(tmp_path, capsys):
    # Drawn as the empty square canvas of a field whose vertices make no
    # triangle.
    empty = tmp_path / "empty.bsf"
    empty.write_text("bsf 1\nvertices 0 triangles 0\n")
    bare = tmp_path / "bare.bsf"
    bare.write_text("bsf 1\nvertices 3 triangles 0\n0 0 0 0\n1 0 1 1\n0 1 2 2\n")
    for path in (empty, bare):
        assert main(["render", str(path), "--out", str(path.with_suffix(".svg"))]) == 0
    svg = empty.with_suffix(".svg").read_text()
    assert svg == bare.with_suffix(".svg").read_text()
    assert 'width="800" height="800.00"' in svg and "<polygon" not in svg


def test_cli_builds_no_per_region_objects(island_bsf, island_threshold, tmp_path, monkeypatch):
    # The commands read regions and graph nodes as arrays; the Region and
    # GraphNode lists exist for library users only.
    from jacobiset.regions import NeighborhoodGraph, RegionDecomposition

    def forbidden(self):
        raise AssertionError("per-region objects built")

    monkeypatch.setattr(RegionDecomposition, "regions", property(forbidden))
    monkeypatch.setattr(NeighborhoodGraph, "nodes", property(forbidden))
    src = str(island_bsf)
    for argv in (
        ["stats", src],
        ["graph", src, "--variant", "D", "--out", str(tmp_path / "g.dot")],
        ["graph", src, "--variant", "B", "--out", str(tmp_path / "g.json")],
        ["render", src, "--out", str(tmp_path / "f.svg")],
        ["simplify", src, "--threshold", island_threshold, "--out", str(tmp_path / "s.bsf")],
        ["compare", src, "--methods", "original", "ca-a", "ca-d", "--format", "csv"],
    ):
        assert main(argv) == 0, argv


def test_one_degenerate_assignment_per_field(tmp_path, rng, monkeypatch):
    # Every variant reads its row of the one assignment of a field: stats,
    # graph and render assign their input once, simplify its input and its
    # output.
    from jacobiset import jacobi

    field = wave_field(rng, 20, 14, step=0.5)
    assert (field.dets == 0).any()
    src = str(tmp_path / "plateau.bsf")
    save_bsf(field, src)
    calls = []
    assign = jacobi.assign_degenerate

    def counted(*args, **kwargs):
        calls.append(1)
        return assign(*args, **kwargs)

    # Every binding site, so a call from any module counts.
    for name, module in list(sys.modules.items()):
        if name.startswith("jacobiset") and getattr(module, "assign_degenerate", None) is assign:
            monkeypatch.setattr(module, "assign_degenerate", counted)
    simplify = ["simplify", src, "--variant", "B", "--threshold", "0.1"]
    for argv, expected in (
        (["stats", src], 1),
        (["graph", src, "--variant", "C", "--out", str(tmp_path / "g.json")], 1),
        (["render", src, "--out", str(tmp_path / "f.svg")], 1),
        ([*simplify, "--out", str(tmp_path / "s.bsf")], 2),
    ):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == expected, argv


def test_compare_filters_share_the_input_topology(identity_sgf, monkeypatch, capsys):
    # binomial and gaussian reuse the original field's mesh, and give the
    # measures of a freshly triangulated filtered grid.
    from jacobiset import measures, mesh
    from jacobiset.baselines import binomial_filter, gaussian_filter
    from jacobiset.fileio import load_sgf

    grid = load_sgf(identity_sgf)
    grid.g = grid.g * np.cos(grid.f)  # det = cos x: Jacobi edges to measure
    save_sgf(grid, identity_sgf)
    smoothed = {
        "binomial": binomial_filter(grid, boundary="mirror"),
        "gaussian": gaussian_filter(grid, 1.5, boundary="mirror"),
    }
    fresh = {name: measures(out.to_tri_field()) for name, out in smoothed.items()}
    built = []
    init = mesh.TriField.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mesh.TriField, "__init__", counted)
    argv = ["compare", str(identity_sgf), "--methods", "original", "binomial", "gaussian",
            "--sigma", "1.5", "--boundary", "mirror", "--format", "csv"]
    assert main(argv) == 0
    assert len(built) == 1
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    for name in ("binomial", "gaussian"):
        m = fresh[name]
        assert m["components"] > 0
        assert f"{identity_sgf},{name},{m['length']:.6g},{m['components']}" in rows
