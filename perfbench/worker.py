"""The benchmark's single client: a fresh process that runs one workload's
CLI ops in order, each through ``jacobiset.cli.main(argv)`` in-process,
starting the next op only after the previous one returned (a closed loop
with one client). It repeats whole passes until its time budget is spent.

Usage: python3 worker.py PLAN.json  (written by run.py)

After each pass the op outputs are hashed. The first pass's outputs are
kept for the oracles; a later pass's are kept only if they differ.
With tracing, the first half of the budget runs untraced (the overhead
baseline) and the second half traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_pass(cli, ops, out_dir: Path) -> dict:
    out_dir.mkdir()
    records = []
    for op in ops:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(op["argv"])
        except Exception:  # an op that crashes is a failed op, not a failed run
            rc = -1
            stderr.write(traceback.format_exc())
        op_s, op_cpu = perf_counter() - t0, process_time() - c0
        records.append({"name": op["name"], "rc": rc, "s": op_s, "cpu_s": op_cpu,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue()[-2000:]})
    wall = sum(r["s"] for r in records)
    cpu = sum(r["cpu_s"] for r in records)
    hashes = {}
    for op, rec in zip(ops, records):
        stdout_path = out_dir / f"{op['name']}.stdout"
        stdout_path.write_text(rec.pop("stdout"), encoding="utf-8")
        for key, path in {"stdout": stdout_path, **op["outputs"]}.items():
            if Path(path).is_file():
                hashes[f"{op['name']}.{key}"] = sha256(path)
    return {"wall_s": wall, "cpu_s": cpu, "ops": records, "hashes": hashes}


def run_phase(cli, plan, seconds, phase, passes) -> None:
    run_dir = Path(plan["run_dir"])
    out_dir = run_dir / "out"
    start = perf_counter()
    while True:
        if out_dir.exists():
            shutil.rmtree(out_dir)
        t0 = perf_counter()
        rec = run_pass(cli, plan["ops"], out_dir)
        duration = perf_counter() - t0
        rec["phase"] = phase
        if not passes or rec["hashes"] != passes[0]["hashes"]:
            rec["checked_dir"] = str(run_dir / f"pass{len(passes)}")
            out_dir.rename(rec["checked_dir"])
        else:
            rec["checked_dir"] = passes[0]["checked_dir"]
        passes.append(rec)
        # Start another pass only if it is expected to end within budget.
        if perf_counter() - start + duration > seconds:
            return


def main(plan_path) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    t0 = perf_counter()
    import jacobiset
    from jacobiset import cli

    import_s = perf_counter() - t0
    passes = []
    result = {"import_s": import_s, "passes": passes}
    if not plan["trace"]:
        run_phase(cli, plan, plan["seconds"], "plain", passes)
    else:
        from tracing import Tracer

        run_phase(cli, plan, plan["seconds"] / 2, "plain", passes)
        tracer = Tracer()
        tracer.install(jacobiset)
        run_phase(cli, plan, plan["seconds"] / 2, "traced", passes)
        traced = [p for p in passes if p["phase"] == "traced"]
        result["per_layer"] = tracer.per_layer(len(traced))
        result["traced_root_s"] = tracer.root_seconds()
        tracer.write_spans(plan["spans_path"], [op["name"] for op in plan["ops"]])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = len(os.listdir("/proc/self/task"))
    with open(plan["results_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
