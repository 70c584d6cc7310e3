import json
import subprocess
import sys

import numpy as np
import pytest

from jacobiset import __version__, save_bsf, save_sgf, triangulate_structured
from jacobiset.cli import main
from jacobiset.fileio import GridField, load_bsf

from conftest import noisy_island_field


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
    hvs = sorted(n.hypervolume for n in graph.nodes)
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


def test_baseline_grid_filter_rejects_bsf(island_bsf, tmp_path, capsys):
    out = tmp_path / "x.sgf"
    code = main(["baseline", str(island_bsf), "--method", "binomial", "--out", str(out)])
    assert code == 2
    assert "structured grid" in capsys.readouterr().err


def test_baseline_gaussian_warns_on_degenerate_kernel(identity_sgf, tmp_path, capsys):
    out = tmp_path / "g.sgf"
    code = main(
        ["baseline", str(identity_sgf), "--method", "gaussian", "--sigma", "1000", "--out", str(out)]
    )
    assert code == 0
    assert "exceeds the grid extent" in capsys.readouterr().err


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
    missing = tmp_path / "missing.sgf"
    methods = ["original", "ca-b", "binomial", "gaussian", "loop"]
    argv = ["compare", str(bad_body), str(bad_head), str(flat), str(missing), str(identity_sgf),
            "--methods", *methods, "--format", "csv", "--radius", "0"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    parse = f"error: {bad_body}:4: not a number: 'x'"
    head = f"error: {bad_head}:1: unrecognized header 'hello'"
    zero = "error: degenerate triangle (zero domain area) at id 0"
    gone = f"error: [Errno 2] No such file or directory: '{missing}'"
    expected = {
        bad_body: [parse, parse, "error: binomial requires structured grid (SGF) input",
                   "error: gaussian requires structured grid (SGF) input", parse],
        bad_head: [head] * 5,
        flat: [zero, zero, "error: radius must be >= 1", "error: radius must be >= 1", zero],
        missing: [gone] * 5,
    }
    for path, cells in expected.items():
        for method, cell in zip(methods, cells):
            assert f"{path},{method},{cell}," in rows
    assert f"{identity_sgf},binomial,error: radius must be >= 1," in rows
    assert f"{identity_sgf},loop,0,0" in rows


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jacobiset", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "jacobiset" in proc.stdout
