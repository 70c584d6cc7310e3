"""Compare the collapse algorithm against smoothing and subdivision.

The same noisy field runs through the binomial filter (r = 1), the
Gaussian filter, Loop subdivision, and the collapse algorithm, and the
table reports the two evaluation measures for each. Smoothing shortens
the Jacobi set globally but touches every sample; subdivision redraws the
set at finer scale without removing components; collapsing targets only
the noise regions.
"""

import numpy as np

from jacobiset import (
    GridField,
    binomial_filter,
    gaussian_filter,
    loop_subdivide,
    measures,
    neighborhood_graph,
    simplify,
)

w = h = 30
rng = np.random.default_rng(7)
xs = np.tile(np.arange(w, dtype=float), h)
ys = np.repeat(np.arange(h, dtype=float), w)
f = (xs + 0.3 * ys).reshape(h, w)
g = (ys - 0.2 * xs).reshape(h, w)
for v in rng.choice(np.arange(w * h).reshape(h, w)[3:-3, 3:-3].ravel(), 10):
    g[v // w, v % w] += rng.choice([-5.0, 5.0])

grid = GridField(w, h, 1.0, 1.0, f, g)
base = grid.to_tri_field()

rows = [("original", measures(base))]

smoothed = binomial_filter(grid, radius=1)
rows.append(("binomial r=1", measures(smoothed.to_tri_field())))

blurred = gaussian_filter(grid, sigma=2.0)
rows.append(("gaussian sigma=2", measures(blurred.to_tri_field())))

subdivided = loop_subdivide(base, 2)
rows.append(("loop x2", measures(subdivided)))

_, _, _, graph = neighborhood_graph(base, "A")
second, largest = np.sort(graph.hypervolume)[-2:].tolist()
threshold = 0.5 * (second + largest)
collapsed = base.copy()
report = simplify(collapsed, "A", threshold)
rows.append((f"collapse A ({report.status.value})", report.after))

print(f"{'method':<24} {'length':>10} {'components':>12}")
for name, m in rows:
    print(f"{name:<24} {m['length']:>10.3f} {m['components']:>12}")
