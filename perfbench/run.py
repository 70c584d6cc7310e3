"""Benchmark of the jacobiset command-line pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

NAME is one of simplify-median, survey, plateau, or ``all`` (every
workload in turn). Set-up, untimed, writes the seeded input files and
works out the facts each workload rests on. A fresh worker process then
runs the workload's CLI ops pass after pass for S seconds (worker.py),
and the outputs are checked by oracles that share no code with the
program (oracles.py).

With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from a
traced second half of the run (tracing.py). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every op succeeded and passed its
oracle, 1 when one did not, and 2 or 3 when the benchmark could not run
(no program to test, or a workload that lost its defining property).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import oracles
import workloads
from worker import sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0


class Refused(Exception):
    """The workload lost the property it was chosen for."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    return p.parse_args(argv)


def machine_info() -> dict:
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def setup(workload: str, seed: int, size: str, run_dir: Path) -> dict:
    """Write the input and work out what the workload rests on. Uses the
    library only for the region decomposition that picks the threshold
    and the seeded cells; everything checked later is recomputed
    independently."""
    from jacobiset import load_field
    from jacobiset.regions import VARIANTS, find_collapsible_cells, neighborhood_graph

    width, height = workloads.SIZES[size][workload]
    step = workloads.PLATEAU_STEP if workload == "plateau" else None
    f, g = workloads.make_field(width, height, seed, step)
    if workload == "survey":
        input_path = run_dir / "input.sgf"
        workloads.write_sgf(input_path, f, g)
    else:
        input_path = run_dir / "input.bsf"
        workloads.write_bsf(input_path, f, g)

    mesh = oracles.read_mesh(input_path)
    degenerate = int(np.count_nonzero(mesh.dets() == 0.0))
    measures = oracles.jacobi_measures(mesh)

    field = load_field(input_path)
    regions, graphs = {}, {}
    for v in VARIANTS:
        _, _, regs, graph = neighborhood_graph(field, v)
        regions[v], graphs[v] = regs, graph
    info = {
        "grid": [width, height],
        "triangles": mesh.n_triangles,
        "degenerate_triangles": degenerate,
        "degenerate_share": degenerate / mesh.n_triangles,
        "regions_per_variant": {v: len(r) for v, r in regions.items()},
        "input_measures": measures,
        "input_sha256": sha256(input_path),
    }
    threshold, seeds = None, []
    if workload != "survey":
        variant = "A" if workload == "simplify-median" else "B"
        hv = np.array([n.hypervolume for n in graphs[variant].nodes])
        threshold = float(np.median(hv))
        seeds = find_collapsible_cells(graphs[variant], regions[variant], threshold).tolist()
        info.update(variant=variant, threshold=threshold, seeded_cells=len(seeds))
        if workload == "simplify-median":
            info["hv_quantiles"] = {
                q: float(np.quantile(hv, float(q))) for q in ("0.10", "0.50", "0.75")
            }
    if workload == "survey" and degenerate:
        raise Refused(f"survey input has {degenerate} degenerate triangles, expected 0")
    if workload == "plateau" and info["degenerate_share"] < workloads.MIN_DEGENERATE_SHARE:
        raise Refused(f"plateau degenerate share {info['degenerate_share']:.3f} < 0.15")
    ops = workloads.build_ops(workload, str(input_path), str(run_dir / "out"), threshold)
    return {"info": info, "input": input_path, "ops": ops, "seeds": seeds, "measures": measures}


def measure_setup_s(env) -> float:
    """Median wall time of a fresh interpreter importing jacobiset.cli,
    the start-up every CLI invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import jacobiset.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return median(times)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "JSS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(plan: dict, run_dir: Path, env, deadline: float) -> dict:
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker exceeded the run time limit") from None
    if rc != 0:
        tail = (run_dir / "worker.log").read_text(encoding="utf-8")[-3000:]
        raise RuntimeError(f"worker exited with {rc}:\n{tail}")
    return json.loads(Path(plan["results_path"]).read_text(encoding="utf-8"))


def check_outputs(ctx: dict, checked_dir: Path) -> dict:
    """Oracle verdicts for one pass's outputs: op name -> failure list."""
    info, want = ctx["info"], ctx["measures"]
    verdicts = {}
    stats = None
    for op in ctx["ops"]:
        stdout = (checked_dir / f"{op.name}.stdout").read_text(encoding="utf-8")
        out = {k: checked_dir / Path(p).name for k, p in op.outputs.items()}
        missing = [str(p) for p in out.values() if not p.is_file()]
        if missing:
            verdicts[op.name] = [f"{op.name}: missing output {missing}"]
            continue
        if op.name == "stats":
            verdicts[op.name] = oracles.check_stats(stdout, want, info["triangles"])
            stats = json.loads(stdout) if not verdicts[op.name] else None
        elif op.name == "simplify":
            verdicts[op.name] = oracles.check_simplify(out["report"], out["bsf"], want,
                                                       ctx["seeds"])
        elif op.name == "graph":
            regions_d = stats["regions_per_variant"]["D"] if stats else None
            verdicts[op.name] = oracles.check_graph_dot(out["dot"], regions_d)
        elif op.name == "render":
            verdicts[op.name] = oracles.check_svg(out["svg"], info["triangles"], want["edges"])
        elif op.name == "compare":
            methods = op.argv[op.argv.index("--methods") + 1 : op.argv.index("--steps")]
            verdicts[op.name] = oracles.check_compare(out["table"], methods, want)
    return verdicts


def check_properties(workload: str, size: str, ctx: dict, checked_dir: Path) -> None:
    report_path = checked_dir / "report.json"
    if workload not in ("simplify-median", "plateau") or not report_path.is_file():
        return  # a simplify op that wrote no report already counts as failed
    report = json.loads(report_path.read_text(encoding="utf-8"))
    ctx["info"]["collapsed_cells"] = report["collapsed_cells"]
    ctx["info"]["status"] = report["status"]
    if workload == "simplify-median":
        floor = workloads.MIN_COLLAPSES[size]
        if report["collapsed_cells"] < floor or report["status"] != "completed":
            raise Refused(f"simplify-median made {report['collapsed_cells']} collapses "
                          f"(status {report['status']}); needs >= {floor} and completed")


def threshold_curve(ctx: dict) -> dict:
    """Information only: variant-A components after simplify at several
    thresholds on the simplify-median input, run through the library."""
    from jacobiset import load_field, simplify

    curve = {}
    points = {f"q{q}": v for q, v in ctx["info"]["hv_quantiles"].items()}
    points["1e-4"] = 1e-4
    for label, threshold in points.items():
        field = load_field(ctx["input"])
        report = simplify(field, variant="A", threshold=threshold)
        curve[label] = {"threshold": threshold, "status": report.status.value,
                        "collapsed": report.collapsed_cells,
                        "components_before": report.before["components"],
                        "components_after": report.after["components"]}
    return curve


def run_workload(workload: str, args, metric_specs: dict, deadline: float) -> dict:
    run_dir = WORK / f"{workload}-seed{args.seed}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    last_dir = WORK / "last"
    last_dir.mkdir(exist_ok=True)
    try:
        ctx = setup(workload, args.seed, args.size, run_dir)
        env = worker_env()
        setup_s = measure_setup_s(env)
        plan = {
            "src": str(SRC),
            "run_dir": str(run_dir),
            "ops": [{"name": op.name, "argv": op.argv, "outputs": op.outputs} for op in ctx["ops"]],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_path": str(last_dir / f"{workload}.spans.jsonl"),
            "results_path": str(run_dir / "results.json"),
        }
        res = run_worker(plan, run_dir, env, deadline)
        passes = res["passes"]

        verdicts = {d: check_outputs(ctx, Path(d))
                    for d in sorted({p["checked_dir"] for p in passes})}
        check_properties(workload, args.size, ctx, Path(passes[0]["checked_dir"]))
        attempted = failed = 0
        failures = []
        for p in passes:
            for rec in p["ops"]:
                attempted += 1
                problems = list(verdicts[p["checked_dir"]].get(rec["name"], []))
                if rec["rc"] != 0:
                    problems.insert(0, f"{rec['name']}: exit {rec['rc']}: {rec['stderr']}")
                if problems:
                    failed += 1
                    failures.extend(problems)

        plain = [p for p in passes if p["phase"] == "plain"]
        final = _final_measures(workload, Path(passes[0]["checked_dir"]))
        values = {
            "wall_s": median(p["wall_s"] for p in plain),
            "cpu_s": median(p["cpu_s"] for p in plain),
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_rate": (attempted - failed) / attempted,
            "components_after": final["components"],
            "length_after": final["length"],
        }
        distinct_outputs = sorted({json.dumps(p["hashes"], sort_keys=True) for p in passes})
        info = dict(ctx["info"])
        info.update(
            passes=len(plain),
            wall_s_samples=[p["wall_s"] for p in plain],
            op_median_s={rec["name"]: median(p["ops"][i]["s"] for p in plain)
                         for i, rec in enumerate(plain[0]["ops"])},
            fail_rate=failed / attempted,
            failures=failures[:20],
            output_sha256=distinct_outputs,
            outputs_identical_across_passes=len(distinct_outputs) == 1,
            worker_import_s=res["import_s"],
            worker_threads=res["threads"],
        )
        if args.trace:
            traced = [p for p in passes if p["phase"] == "traced"]
            layer = dict(res["per_layer"])
            layer["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                         - median(p["wall_s"] for p in plain))
            layer["trace.span_coverage"] = res["traced_root_s"] / sum(p["wall_s"] for p in traced)
            values = layer
            info["traced_passes"] = len(traced)
            info["spans"] = str(Path(plan["spans_path"]).relative_to(ROOT))
            if workload == "simplify-median":
                info["threshold_curve"] = threshold_curve(ctx)
        info["machine"] = machine_info()
        (last_dir / f"{workload}.info.json").write_text(json.dumps(info, indent=2),
                                                        encoding="utf-8")
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in metric_specs.items()}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics, "info": info}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _final_measures(workload: str, checked_dir: Path) -> dict:
    """Jacobi set measures of the field the workload ends with, as the
    program reported them (the oracles have checked them); zeros if the
    op that reports them failed."""
    try:
        if workload == "survey":
            return json.loads((checked_dir / "stats.stdout").read_text(encoding="utf-8"))
        return json.loads((checked_dir / "report.json").read_text(encoding="utf-8"))["after"]
    except (OSError, ValueError, KeyError):
        return {"components": 0, "length": 0.0}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    if not (SRC / "jacobiset" / "cli.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'jacobiset'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    metric_specs = {m["name"]: m["unit"] for m in spec[group]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, metric_specs, deadline)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 3

    for name, res in results.items():
        print(f"info {name} {json.dumps(res.pop('info'), sort_keys=True)}")
        for metric, m in res["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        if not res["correct"]:
            print(f"{name}: {res['failed']} of {res['attempted']} ops failed", file=sys.stderr)
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
