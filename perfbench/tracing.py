"""Spans and counters around every public ``jacobiset`` function.

Used only in the traced worker. Each public function is wrapped once and
the wrapper is bound at every site that holds the function (the defining
module and every module that imported it by name), so a call through
``jacobiset.collapse.measures`` is recorded as ``jacobi.measures``.
``TriField`` and ``UnionFind`` methods are wrapped on the class.

A span records name, start, end, parent span and the op id shared by
every span of one CLI op (the op is the ``cli.main`` root span). Hot
functions listed in ``COUNT_ONLY`` only add to the call count and time.
Self time is a call's duration minus the time of the calls nested in it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "cli", "fileio", "mesh", "jacobi", "regions", "unionfind", "collapse", "baselines", "render",
)
COUNT_ONLY = {
    "unionfind.find", "unionfind.union", "mesh.point_neighbors", "collapse.cell_neighborhood",
}
CLASS_METHODS = {
    ("mesh", "TriField"): {"__init__": "mesh.trifield_init", "set_vertex_values": None,
                           "point_neighbors": None},
    ("unionfind", "UnionFind"): {"find": None, "union": None},
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.region_counts = {}
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._op = -1
        self._seen_assignments = set()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        count_only = name in COUNT_ONLY
        observe = _OBSERVERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
                self._seen_assignments.clear()
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                key = (observe and observe(self, args, kwargs, result)) or name
                self.calls[key] += 1
                self.seconds[key] += duration
                self.self_seconds[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not count_only:
                    self.spans.append((sid, parent, self._op, key, start, end))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every public function of the package's modules at each
        binding site, and the listed class methods on their classes."""
        modules = {m: getattr(package, m) for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    metric = f"{short}.{attr[4:] if attr.startswith('cmd_') else attr}"
                    wrapped[obj] = self.wrap(metric, obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for (short, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[short], cls_name)
            for attr, metric in methods.items():
                metric = metric or f"{short}.{attr}"
                setattr(cls, attr, self.wrap(metric, getattr(cls, attr)))

    # -- results ------------------------------------------------------------

    def write_spans(self, path, op_names) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": op_names}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent is None)

    def per_layer(self, passes: int) -> dict:
        """Per-pass averages of every traced quantity, by metric name."""
        out = {}
        for key in self.calls:
            out[f"{key}.s"] = self.seconds[key] / passes
            out[f"{key}.calls"] = self.calls[key] / passes
            out[f"{key}.self_s"] = self.self_seconds[key] / passes
        for module in MODULES:
            out[f"{module}.self_s"] = (
                sum(v for k, v in self.self_seconds.items() if k.split(".")[0] == module)
                / passes
            )
        for key, value in self.counters.items():
            out[key] = value / passes
        for variant, count in self.region_counts.items():
            out[f"regions.count.{variant}"] = count
        evaluated = self.calls["collapse.evaluate_variant"]
        out["collapse.useful_ratio"] = (
            self.counters["collapse.collapsed_cells"] / evaluated if evaluated else 0.0
        )
        return out


# -- observers: extra counters at the boundaries that produce them ----------
# An observer may return the metric key to record the call under instead
# of the function's own name.


def _load(tracer, args, kwargs, result):
    tracer.counters["fileio.bytes_read"] += os.path.getsize(args[0])


def _save(tracer, args, kwargs, result):
    tracer.counters["fileio.bytes_written"] += os.path.getsize(args[1])


def _assign_degenerate(tracer, args, kwargs, result):
    field, signs = args[0], args[1]
    prefer = args[2] if len(args) > 2 else kwargs.get("prefer")
    tracer.counters["jacobi.degenerate_in"] += int(np.count_nonzero(signs == 0))
    digest = hashlib.blake2b(np.ascontiguousarray(field.values).tobytes(), digest_size=16)
    key = (field.n_triangles, digest.digest(), prefer)
    if key in tracer._seen_assignments:
        tracer.counters["jacobi.assign_degenerate.redundant"] += 1
    tracer._seen_assignments.add(key)


def _build_regions(tracer, args, kwargs, result):
    variant = args[3] if len(args) > 3 else kwargs.get("variant", "A")
    if result is not None:
        tracer.region_counts[variant] = len(result.regions)
    return f"regions.build_regions.{variant}"


def _render_svg(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["render.svg_bytes"] += len(result.encode("utf-8"))


def _simplify(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["collapse.collapsed_cells"] += result.collapsed_cells
        tracer.counters["collapse.flip_repairs"] += result.flip_repairs
        tracer.counters["collapse.sweeps"] += result.iterations


_OBSERVERS = {
    "fileio.load_bsf": _load,
    "fileio.load_sgf": _load,
    "fileio.save_bsf": _save,
    "fileio.save_sgf": _save,
    "jacobi.assign_degenerate": _assign_degenerate,
    "regions.build_regions": _build_regions,
    "render.render_svg": _render_svg,
    "collapse.simplify": _simplify,
}
