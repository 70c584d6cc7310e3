"""Smoke test of the benchmark harness: every workload and oracle on a tiny
grid, untraced and traced, with no timing bounds.

Run from the root of the repository: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_all_workloads(trace, group):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC[group]:
            key = f"{workload['name']}.{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key
    if trace:
        m = result["metrics"]
        assert m["survey.collapse.simplify.s"]["value"] == 0
        assert m["simplify-median.collapse.simplify.s"]["value"] > 0
        for name in ("render.render_svg.s", "baselines.loop_subdivide.s", "fileio.load_sgf.s"):
            assert m[f"survey.{name}"]["value"] > 0
            assert m[f"plateau.{name}"]["value"] == 0


def test_refuses_without_program(tmp_path):
    """Outside a checkout (no src/) the harness exits nonzero, printing no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
