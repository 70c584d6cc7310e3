"""Denoise a field by collapsing its small Jacobi set components.

A smooth base field is perturbed with value impulses at a handful of
vertices. Each impulse mirrors the orientation of the surrounding
triangles and shows up as a small Jacobi set component. Regions whose
hypervolume falls below a threshold are collapsed cell by cell, which
rewrites the data so those components vanish while the rest of the field
keeps its values bit for bit.
"""

import pathlib

import numpy as np

from jacobiset import (
    find_collapsible_cells,
    measures,
    neighborhood_graph,
    render_svg,
    save_bsf,
    simplify,
    triangulate_structured,
)

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

w = h = 40
rng = np.random.default_rng(2024)
xs = np.tile(np.arange(w, dtype=float), h)
ys = np.repeat(np.arange(h, dtype=float), w)
f = xs + 0.3 * ys
g = ys - 0.2 * xs
impulses = rng.choice(np.flatnonzero((xs > 3) & (xs < w - 4) & (ys > 3) & (ys < h - 4)), 12)
g[impulses] += rng.choice([-6.0, 6.0], size=len(impulses))

field = triangulate_structured(w, h, (1.0, 1.0), f, g)
before = measures(field)
print(f"before: {before['components']} components, length {before['length']:.2f}")
(out_dir / "denoise_before.svg").write_text(render_svg(field))

# Pick the threshold from the hypervolume distribution: everything but
# the dominant region counts as noise here.
_, _, regs, graph = neighborhood_graph(field, "A")
second, largest = np.sort(graph.hypervolume)[-2:].tolist()
threshold = 0.5 * (second + largest)
selected = find_collapsible_cells(graph, regs, threshold)
print(f"threshold {threshold:.3g} selects {len(selected)} of {field.n_triangles} cells "
      f"in {(graph.hypervolume < threshold).sum()} regions")

original_values = field.values.copy()
report = simplify(field, "A", threshold)
print(f"simplify: {report.status.value} after {report.iterations} sweep(s), "
      f"{report.collapsed_cells} collapses, {report.flip_repairs} flip repair(s)")
print(f"after: {report.after['components']} components, length {report.after['length']:.2f}")

untouched = np.all(field.values == original_values, axis=1).mean()
print(f"{untouched:.1%} of vertices kept bit-identical values")

save_bsf(field, out_dir / "denoise_after.bsf")
(out_dir / "denoise_after.svg").write_text(render_svg(field))
print(f"wrote {out_dir}/denoise_before.svg and denoise_after.svg")
