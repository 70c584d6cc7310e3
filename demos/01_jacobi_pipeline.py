"""Walk through the basic pipeline on an analytic field.

The field f = x, g = x*y over [-1, 1]^2 has linearly dependent gradients
exactly on the line x = 0, so its Jacobi set should be a single vertical
chain of total length close to 2. We build the field, extract the Jacobi
set, print the two evaluation measures, and render the orientation
picture to an SVG.
"""

import json
import pathlib

import numpy as np

from jacobiset import (
    component_count,
    compute_jacobi_set,
    jacobi_length,
    neighborhood_graph,
    render_svg,
    triangulate_structured,
)
from jacobiset.jacobi import jacobi_set_to_json
from jacobiset.regions import graph_to_dot

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# Sample the field on a 41 x 41 grid. Positions carry an origin shift,
# which leaves every determinant unchanged (only differences matter).
n = 41
coords = np.arange(n) * 0.05 - 1.0
x = np.tile(coords, n)
y = np.repeat(coords, n)
field = triangulate_structured(n, n, (0.05, 0.05), x, x * y)
print(f"field: {field.n_vertices} vertices, {field.n_triangles} triangles")

js = compute_jacobi_set(field)
length = jacobi_length(field, js)
components = component_count(field, js)
print(f"jacobi set: {len(js)} edges, {components} component(s), length {length:.4f}")
print("expected: one chain along x = 0 of length about 2")

(out_dir / "pipeline_jacobi_set.json").write_text(
    json.dumps(jacobi_set_to_json(js), indent=2) + "\n"
)

# The positive and negative half-planes become the two graph nodes.
for variant in "ABCD":
    _, _, regs, graph = neighborhood_graph(field, variant)
    print(f"neighborhood graph {variant}: {len(regs)} nodes, {len(graph.edges)} edges")

_, _, _, graph = neighborhood_graph(field, "A")
(out_dir / "pipeline_graph_a.dot").write_text(graph_to_dot(graph))

svg = render_svg(field)
(out_dir / "pipeline_orientation.svg").write_text(svg)
print(f"wrote {out_dir}/pipeline_orientation.svg (red = preserved, blue = mirrored)")
