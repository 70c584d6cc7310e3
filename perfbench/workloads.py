"""Workload inputs and the CLI ops that each workload runs.

Every input is a seeded synthetic field on a regular grid. Vertex (i, j)
sits at (i, j) with spacing 1, and the two components are

    f = sin(i) * cos(j)         + 0.02 * N_f
    g = cos(0.7 i) + sin(1.3 j) + 0.02 * N_g

where N_f and N_g are standard normal draws of shape (height, width) from
``numpy.random.default_rng(seed)``, N_f drawn first. The ``plateau``
workload rounds f and g to multiples of 0.5 afterwards, which makes about
a fifth of the triangles exactly degenerate.

The files are written here, not with the program's own writers, so the
program under test only ever receives finished SGF/BSF text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Grid sizes. ``full`` keeps each workload's defining property (checked by
# run.py) with about 4-5 s of work per pass; ``smoke`` is a tiny grid for
# checking the harness itself and carries no timing meaning.
SIZES = {
    "full": {"simplify-median": (330, 165), "survey": (220, 110), "plateau": (200, 100)},
    "smoke": {"simplify-median": (40, 24), "survey": (30, 20), "plateau": (30, 20)},
}
PLATEAU_STEP = 0.5
# Property floors per size: (min collapses of simplify-median, min
# degenerate share of the plateau input).
MIN_COLLAPSES = {"full": 5000, "smoke": 1}
MIN_DEGENERATE_SHARE = 0.15

WORKLOADS = ("simplify-median", "survey", "plateau")


def make_field(width: int, height: int, seed: int, step: float | None = None):
    """The seeded (f, g) samples as (height, width) arrays, x fastest."""
    rng = np.random.default_rng(seed)
    noise_f = rng.standard_normal((height, width))
    noise_g = rng.standard_normal((height, width))
    j, i = np.mgrid[0:height, 0:width].astype(np.float64)
    f = np.sin(i) * np.cos(j) + 0.02 * noise_f
    g = np.cos(0.7 * i) + np.sin(1.3 * j) + 0.02 * noise_g
    if step is not None:
        f = np.round(f / step) * step
        g = np.round(g / step) * step
    return f, g


def grid_mesh(width: int, height: int):
    """Positions and CCW triangles of the grid, each cell split along its
    lower-left to upper-right diagonal (the SGF triangulation rule)."""
    j, i = np.mgrid[0:height, 0:width].astype(np.float64)
    positions = np.column_stack([i.ravel(), j.ravel()])
    ii, jj = np.meshgrid(np.arange(width - 1), np.arange(height - 1), indexing="xy")
    v00 = (jj * width + ii).ravel()
    triangles = np.empty((2 * len(v00), 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v00 + 1, v00 + width + 1])
    triangles[1::2] = np.column_stack([v00, v00 + width + 1, v00 + width])
    return positions, triangles


def write_sgf(path, f, g) -> None:
    height, width = f.shape
    lines = ["sgf 1", f"grid {width} {height} 1.0 1.0"]
    lines += [f"{a!r} {b!r}" for a, b in zip(f.ravel().tolist(), g.ravel().tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bsf(path, f, g) -> None:
    height, width = f.shape
    positions, triangles = grid_mesh(width, height)
    lines = ["bsf 1", f"vertices {width * height} triangles {len(triangles)}"]
    lines += [
        f"{x!r} {y!r} {a!r} {b!r}"
        for (x, y), a, b in zip(positions.tolist(), f.ravel().tolist(), g.ravel().tolist())
    ]
    lines += [f"{a} {b} {c}" for a, b, c in triangles.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class Op:
    """One CLI invocation. ``outputs`` are the data files it writes (not
    the manifests), hashed after every pass."""

    name: str
    argv: list
    outputs: dict = field(default_factory=dict)


def build_ops(workload: str, input_path: str, out_dir: str, threshold: float | None):
    """The ops of one pass, in order. ``threshold`` is the simplify
    threshold chosen in setup (unused by ``survey``)."""
    o = out_dir
    if workload == "simplify-median":
        return [_simplify_op(input_path, o, "A", threshold)]
    if workload == "survey":
        return [
            Op("stats", ["stats", input_path]),
            Op("graph", ["graph", input_path, "--variant", "D", "--out", f"{o}/graph.dot"],
               {"dot": f"{o}/graph.dot"}),
            Op("render", ["render", input_path, "--out", f"{o}/field.svg"],
               {"svg": f"{o}/field.svg"}),
            Op("compare", ["compare", input_path, "--methods", "original", "binomial",
                           "gaussian", "loop", "--steps", "1", "--sigma", "2",
                           "--out", f"{o}/compare.md"],
               {"table": f"{o}/compare.md"}),
        ]
    if workload == "plateau":
        return [Op("stats", ["stats", input_path]), _simplify_op(input_path, o, "B", threshold)]
    raise ValueError(f"unknown workload {workload!r}")


def _simplify_op(input_path, o, variant, threshold):
    return Op(
        "simplify",
        ["simplify", input_path, "--variant", variant, "--threshold", repr(threshold),
         "--out", f"{o}/simplified.bsf", "--report", f"{o}/report.json"],
        {"bsf": f"{o}/simplified.bsf", "report": f"{o}/report.json"},
    )
