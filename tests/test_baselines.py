import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jacobiset import (
    NonManifoldError,
    TriField,
    binomial_filter,
    gaussian_filter,
    load_bsf,
    loop_subdivide,
    measures,
    save_bsf,
    triangulate_structured,
)
from jacobiset import baselines, mesh
from jacobiset.baselines import (
    BINOMIAL_MAX_RADIUS,
    LOOP_MAX_TRIANGLES,
    KernelCutWarning,
    _binomial_kernel,
    _correlate1d,
    _gaussian_kernel,
    _loop_once,
    _sorted_neighbors,
)
from jacobiset.fileio import GridField

from conftest import (
    assert_same_field,
    assert_same_topology,
    grid_triangles,
    loop_once_oracle,
    noisy_island_field,
    twin_pair_field,
    vertex_neighbors,
    wave_field,
)


def constant_grid(w=7, h=5, cf=1.7, cg=-2.3):
    return GridField(w, h, 1.0, 1.0, np.full(w * h, cf), np.full(w * h, cg))


def dense_convolve(img, kernel2d, mode):
    """Brute-force dense 2D convolution oracle with clamp/mirror padding."""
    h, w = img.shape
    kh, kw = kernel2d.shape
    ry, rx = kh // 2, kw // 2
    out = np.zeros_like(img)

    def fetch(y, x):
        if mode == "clamp":
            return img[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]
        # whole-sample mirror
        while not (0 <= y < h):
            y = -y if y < 0 else 2 * (h - 1) - y
        while not (0 <= x < w):
            x = -x if x < 0 else 2 * (w - 1) - x
        return img[y, x]

    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-ry, ry + 1):
                for dx in range(-rx, rx + 1):
                    acc += kernel2d[dy + ry, dx + rx] * fetch(y + dy, x + dx)
            out[y, x] = acc
    return out


# -- filter parameters -------------------------------------------------------


def test_filter_parameter_validation():
    grid = constant_grid()
    with pytest.raises(ValueError, match="radius must be >= 1"):
        binomial_filter(grid, radius=0)
    with pytest.raises(ValueError, match="sigma must be > 0"):
        gaussian_filter(grid, 0.0)
    with pytest.raises(ValueError, match="sigma must be > 0"):
        gaussian_filter(grid, float("nan"))
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        gaussian_filter(grid, 1.0, truncation=0.5)
    with pytest.raises(ValueError, match="boundary must be one of"):
        binomial_filter(grid, boundary="wrap")
    with pytest.raises(ValueError, match="boundary must be one of"):
        gaussian_filter(grid, 1.0, boundary="wrap")


def test_filters_require_grid_input():
    field = triangulate_structured(3, 3, (1, 1), np.zeros(9), np.zeros(9))
    with pytest.raises(TypeError, match="binomial filter requires a structured grid"):
        binomial_filter(field)
    with pytest.raises(TypeError, match="gaussian filter requires a structured grid"):
        gaussian_filter(field, 1.0)


# -- binomial ----------------------------------------------------------------


def test_binomial_constant_bit_identical():
    grid = constant_grid(cf=0.12345678901234567, cg=-9.87654321e-5)
    out = binomial_filter(grid)
    assert np.array_equal(out.f, grid.f)
    assert np.array_equal(out.g, grid.g)


def test_binomial_kernel_keeps_its_bits_and_never_overflows():
    # Up to radius 511, float(comb) / 4.0**r keeps its bits: dividing by a
    # power of two commutes with rounding. Past it, 4.0**r overflows, and
    # the exact quotient still gives every tap. (Every radius up to 511
    # keeps its bits; a sample of them keeps this test fast.)
    for radius in [*range(1, 40), 100, 255, 256, 257, 500, 510, 511]:
        coeffs = [math.comb(2 * radius, i) for i in range(2 * radius + 1)]
        old = np.array(coeffs, dtype=np.float64) / 4.0**radius
        assert np.array_equal(_binomial_kernel(radius), old)
    for radius in (512, 600, BINOMIAL_MAX_RADIUS):
        k = _binomial_kernel(radius)
        assert len(k) == 2 * radius + 1 and np.isfinite(k).all()
        assert k[radius] == math.comb(2 * radius, radius) / 4**radius
        assert k.sum() == pytest.approx(1.0, rel=1e-12)


def test_binomial_radius_beyond_the_limit_is_rejected():
    grid = constant_grid()
    out = binomial_filter(grid, radius=600)
    assert np.array_equal(out.f, grid.f) and np.array_equal(out.g, grid.g)
    for radius in (BINOMIAL_MAX_RADIUS + 1, 10**30):
        with pytest.raises(ValueError, match=f"radius must be <= {BINOMIAL_MAX_RADIUS}"):
            binomial_filter(grid, radius=radius)


def test_binomial_impulse_footprint():
    f = np.zeros((5, 5))
    f[2, 2] = 1.0
    grid = GridField(5, 5, 1.0, 1.0, f, np.zeros((5, 5)))
    out = binomial_filter(grid, radius=1)
    k = np.array([1.0, 2.0, 1.0]) / 4.0
    expected = np.outer(k, k)
    assert np.allclose(out.f[1:4, 1:4], expected, atol=1e-15)
    assert out.f[0].sum() == 0.0 and out.f[4].sum() == 0.0


def test_binomial_radius_two_matches_dense_oracle(rng):
    data = rng.normal(size=(6, 8))
    grid = GridField(8, 6, 1.0, 1.0, data, np.zeros((6, 8)))
    out = binomial_filter(grid, radius=2, boundary="clamp")
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    expected = dense_convolve(data, np.outer(k, k), "clamp")
    assert np.allclose(out.f, expected, atol=1e-12)


def test_binomial_ramp_interior_unchanged_mirror():
    xs = np.tile(np.arange(9.0), 6)
    grid = GridField(9, 6, 1.0, 1.0, xs, np.zeros(54))
    out = binomial_filter(grid, boundary="mirror")
    # A symmetric kernel preserves affine data wherever the stencil sees
    # the true ramp, i.e. away from the boundary columns.
    assert np.allclose(out.f[:, 1:-1], grid.f[:, 1:-1], atol=1e-14)


def test_binomial_commutes_with_constant_shift(rng):
    data = rng.normal(size=(5, 7))
    grid = GridField(7, 5, 1.0, 1.0, data, data * 2)
    base = binomial_filter(grid)
    shifted = GridField(7, 5, 1.0, 1.0, data + 10.0, data * 2 - 3.0)
    out = binomial_filter(shifted)
    assert np.allclose(out.f, base.f + 10.0, atol=1e-12)
    assert np.allclose(out.g, base.g - 3.0, atol=1e-12)


# -- gaussian ----------------------------------------------------------------


def test_gaussian_constant_bit_identical():
    grid = constant_grid()
    out = gaussian_filter(grid, 1.5)
    assert np.array_equal(out.f, grid.f)
    assert np.array_equal(out.g, grid.g)


def test_gaussian_impulse_matches_dense_oracle():
    f = np.zeros((9, 9))
    f[4, 4] = 2.5
    grid = GridField(9, 9, 1.0, 1.0, f, np.zeros((9, 9)))
    out = gaussian_filter(grid, 1.0, truncation=3.0)
    x = np.arange(-3, 4, dtype=float)
    k = np.exp(-0.5 * x**2)
    k /= k.sum()
    expected = dense_convolve(f, np.outer(k, k), "clamp")
    assert np.allclose(out.f, expected, atol=1e-12)


def test_gaussian_kernel_capped_at_grid_size():
    grid = constant_grid(6, 4)
    with pytest.warns(KernelCutWarning, match="exceeds the grid extent 5"):
        out = gaussian_filter(grid, 1000.0, truncation=3.0)
    assert out.f.shape == grid.f.shape  # huge sigma still runs after capping


def test_gaussian_kernel_is_cut_where_truncation_sigma_passes_an_axis_extent():
    # A 6 x 4 grid has extents 5 (x) and 3 (y). truncation*sigma = 4 cuts
    # only the y kernel, and the warning names that axis's extent.
    grid = constant_grid(6, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gaussian_filter(grid, 2.0, truncation=2.0)
        gaussian_filter(grid, 1.0, truncation=3.0)
    assert [str(w.message) for w in caught] == [
        "truncation*sigma = 4 exceeds the grid extent 3; "
        "the gaussian kernel is cut at radius 3"
    ]
    assert all(w.category is KernelCutWarning for w in caught)
    with pytest.warns(KernelCutWarning):
        assert len(_gaussian_kernel(2.0, 2.0, 3)) == 7
    assert len(_gaussian_kernel(2.0, 2.0, 4)) == 9


def test_gaussian_infinite_sigma_or_truncation_gives_the_cut_kernel():
    with pytest.warns(KernelCutWarning):
        assert np.array_equal(_gaussian_kernel(math.inf, 3.0, 5), np.full(11, 1.0 / 11))
    with pytest.warns(KernelCutWarning):
        assert np.array_equal(_gaussian_kernel(1e308, 3.0, 5), np.full(11, 1.0 / 11))
    with pytest.warns(KernelCutWarning):
        assert np.array_equal(_gaussian_kernel(1.5, math.inf, 5), _gaussian_kernel(1.5, 5 / 1.5, 5))


def test_gaussian_tiny_sigma_keeps_the_grid():
    # x / sigma overflows off the centre tap: the kernel is [0, 1, 0], and
    # no RuntimeWarning (an error under this suite's settings) is raised.
    rng = np.random.default_rng(3)
    grid = GridField(5, 4, 1.0, 1.0, rng.normal(size=20), rng.normal(size=20))
    for sigma in (1e-300, 5e-324):
        assert np.array_equal(_gaussian_kernel(sigma, 3.0, 4), [0.0, 1.0, 0.0])
        out = gaussian_filter(grid, sigma)
        assert np.allclose(out.f, grid.f, rtol=0, atol=1e-15)


def test_gaussian_variance_reduction(rng):
    noise = rng.normal(size=(20, 20))
    grid = GridField(20, 20, 1.0, 1.0, noise, noise[::-1])
    out = gaussian_filter(grid, 2.0)
    assert out.f.var() < noise.var()


def test_filters_match_scipy_correlate1d_bit_for_bit(rng):
    ndimage = pytest.importorskip("scipy.ndimage")
    scipy_mode = {"clamp": "nearest", "mirror": "mirror"}
    numpy_mode = {"clamp": "edge", "mirror": "reflect"}

    def reference(data, kx, ky, mode):
        # The scipy form of `_separable`, shift by the first sample included.
        ref = data[0, 0]
        out = ndimage.correlate1d(data - ref, ky, axis=0, mode=mode)
        return ndimage.correlate1d(out, kx, axis=1, mode=mode) + ref

    shapes = [(6, 9), (9, 6), (1, 7), (7, 1), (2, 2), (1, 1)]
    for h, w in shapes:
        grid = GridField(w, h, 1.0, 1.0, rng.normal(size=(h, w)), 1e3 * rng.normal(size=(h, w)))
        for boundary in ("clamp", "mirror"):
            mode = scipy_mode[boundary]
            # Binomial radii 1-3, and 12, which is larger than every grid side.
            for radius in (1, 2, 3, 12):
                k = _binomial_kernel(radius)
                for axis in (0, 1):
                    ours = _correlate1d(grid.f, k, axis, numpy_mode[boundary])
                    theirs = ndimage.correlate1d(grid.f, k, axis=axis, mode=mode)
                    assert np.array_equal(ours, theirs), (h, w, boundary, radius, axis)
                out = binomial_filter(grid, radius, boundary)
                assert np.array_equal(out.f, reference(grid.f, k, k, mode))
                assert np.array_equal(out.g, reference(grid.g, k, k, mode))
            # sigma 0.7 reaches radius 3 where the grid allows; sigma 50 is capped
            # at width-1 / height-1.
            for sigma in (0.7, 50.0):
                kx = _gaussian_kernel(sigma, 3.0, w - 1)
                ky = _gaussian_kernel(sigma, 3.0, h - 1)
                out = gaussian_filter(grid, sigma, boundary=boundary)
                assert np.array_equal(out.f, reference(grid.f, kx, ky, mode))
                assert np.array_equal(out.g, reference(grid.g, kx, ky, mode))


# -- loop subdivision --------------------------------------------------------


def subdivision_base():
    rng = np.random.default_rng(11)
    return triangulate_structured(4, 4, (1.0, 1.0), rng.normal(size=16), rng.normal(size=16))


def test_loop_zero_steps_identity():
    field = subdivision_base()
    out = loop_subdivide(field, 0)
    assert out is not field
    assert np.array_equal(out.positions, field.positions)
    assert np.array_equal(out.values, field.values)
    assert np.array_equal(out.triangles, field.triangles)
    with pytest.raises(ValueError):
        loop_subdivide(field, -1)


def test_loop_counts_grow_fourfold():
    field = subdivision_base()
    assert loop_subdivide(field, 1).n_triangles == 4 * field.n_triangles
    assert loop_subdivide(field, 2).n_triangles == 16 * field.n_triangles
    assert loop_subdivide(field, 4).n_triangles == 256 * field.n_triangles


def test_loop_refuses_more_triangles_than_the_limit(monkeypatch):
    field = TriField([(0, 0), (1, 0), (1, 1), (0, 1)], np.zeros((4, 2)), [(0, 1, 2), (0, 2, 3)])
    steps = 1
    while 2 * 4**steps <= LOOP_MAX_TRIANGLES:
        steps += 1
    with pytest.raises(ValueError, match=f"make {2 * 4**steps:,} triangles.*{LOOP_MAX_TRIANGLES:,}"):
        loop_subdivide(field, steps)
    with pytest.raises(ValueError, match=r"make 2 x 4\*\*1000000 triangles"):
        loop_subdivide(field, 10**6)
    # Without triangles a step changes nothing, so any count is done at once.
    loose = TriField(field.positions, field.values, np.empty((0, 3), dtype=np.int64))
    assert np.array_equal(loop_subdivide(loose, 10**9).values, loose.values)
    monkeypatch.setattr(baselines, "LOOP_MAX_TRIANGLES", 32)
    assert loop_subdivide(field, 2).n_triangles == 32
    with pytest.raises(ValueError, match="make 128 triangles, more than the limit of 32"):
        loop_subdivide(field, 3)


# The traced peak of one Loop step and the child's first numerator pass,
# over the bytes of the child's arrays, reads 1.34: each stage's
# temporaries go before the next stage allocates, and the constructor keeps
# the arrays it is handed. Holding every temporary to the end of the step
# and copying the arrays again read 2.7.
LOOP_PEAK_OVER_CHILD = 1.5


def test_loop_step_peak_memory_stays_near_the_child_size(rng):
    w, h = 80, 50
    field = triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=w * h), rng.normal(size=w * h))
    field.numerators
    tracemalloc.start()
    try:
        child = loop_subdivide(field, 1)
        child.numerators
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (
        child.positions,
        child.values,
        child.triangles,
        child.neighbors,
        child.edges,
        child.edge_triangles,
        child.domain_areas,
        child.doubled_areas,
    )
    assert peak < LOOP_PEAK_OVER_CHILD * sum(a.nbytes for a in arrays)


def test_loop_constant_field_exact():
    field = triangulate_structured(4, 3, (1.0, 1.0), np.full(12, 3.7), np.full(12, 0.2))
    out = loop_subdivide(field, 2)
    assert (out.values[:, 0] == 3.7).all()
    assert (out.values[:, 1] == 0.2).all()


def test_loop_positions_are_midpoints_and_area_preserved():
    field = subdivision_base()
    out = loop_subdivide(field, 1)
    n = field.n_vertices
    assert np.array_equal(out.positions[:n], field.positions)
    # Every new position is the midpoint of some mesh edge.
    midpoints = {
        tuple(0.5 * (field.positions[a] + field.positions[b])) for a, b in field.edges
    }
    for p in out.positions[n:]:
        assert tuple(p) in midpoints
    assert out.domain_areas.sum() == pytest.approx(
        field.domain_areas.sum(), rel=1e-10
    )


def test_loop_interior_edge_rule():
    field = subdivision_base()
    out = loop_subdivide(field, 1)
    n = field.n_vertices
    tri = field.triangles
    for i, ((a, b), (t1, t2)) in enumerate(zip(field.edges, field.edge_triangles)):
        if t2 < 0:
            continue
        opp = []
        for t in (t1, t2):
            verts = tri[t]
            opp.append(int(verts[(verts != a) & (verts != b)][0]))
        expected = 0.375 * (field.values[a] + field.values[b]) + 0.125 * (
            field.values[opp[0]] + field.values[opp[1]]
        )
        assert np.allclose(out.values[n + i], expected, atol=1e-12)
        break  # one interior edge suffices; rule is uniform


def test_loop_boundary_rules():
    field = subdivision_base()
    out = loop_subdivide(field, 1)
    n = field.n_vertices
    boundary_edges = field.edges[field.edge_triangles[:, 1] < 0]
    # Boundary edge vertices take plain midpoint values.
    for i, ((a, b), (t1, t2)) in enumerate(zip(field.edges, field.edge_triangles)):
        if t2 >= 0:
            continue
        expected = 0.5 * (field.values[a] + field.values[b])
        assert np.allclose(out.values[n + i], expected, atol=1e-14)
    # Boundary old vertices: 3/4 v + 1/8 (left + right) along the boundary.
    nbrs = {}
    for a, b in boundary_edges:
        nbrs.setdefault(int(a), []).append(int(b))
        nbrs.setdefault(int(b), []).append(int(a))
    for v, ring in nbrs.items():
        assert len(ring) == 2
        expected = 0.75 * field.values[v] + 0.125 * (
            field.values[ring[0]] + field.values[ring[1]]
        )
        assert np.allclose(out.values[v], expected, atol=1e-12)


def test_loop_interior_vertex_rule():
    field = subdivision_base()
    out = loop_subdivide(field, 1)
    boundary = set(field.edges[field.edge_triangles[:, 1] < 0].ravel().tolist())
    interior = [v for v in range(field.n_vertices) if v not in boundary]
    assert interior
    for v in interior:
        ring = vertex_neighbors(field, v)
        k = len(ring)
        beta = (0.625 - (0.375 + 0.25 * math.cos(2 * math.pi / k)) ** 2) / k
        expected = (1 - k * beta) * field.values[v] + beta * field.values[ring].sum(axis=0)
        assert np.allclose(out.values[v], expected, atol=1e-12)


def test_loop_output_is_valid_manifold():
    field = subdivision_base()
    out = loop_subdivide(field, 2)
    # Reconstruction re-runs all TriField validation (manifold, CCW, areas).
    rebuilt = TriField(out.positions, out.values, out.triangles)
    assert rebuilt.n_triangles == out.n_triangles
    assert (out.domain_areas > 0).all()


def test_loop_component_count_does_not_drop(rng):
    noisy, has_island = noisy_island_field(rng, 10, 10, 3)
    assert has_island
    before = measures(noisy)["components"]
    after = measures(loop_subdivide(noisy, 2))["components"]
    assert after >= before


def test_loop_matches_loop_oracle_on_wave_field(rng):
    field = wave_field(rng, 23, 17)
    assert_same_field(_loop_once(field), loop_once_oracle(field))


def test_loop_two_steps_match_loop_oracle(rng):
    field = wave_field(rng, 12, 9, step=0.5)
    once = loop_once_oracle(field)
    assert_same_field(loop_subdivide(field, 2), loop_once_oracle(once))


def irregular_fan_field(rng, k=11):
    """A degree-k interior hub ringed by a band of triangles, plus a
    triangle hanging off one outer corner, which pinches the boundary
    there. Values mix signed zeros with large normals."""
    ang = 2 * np.pi * np.arange(k) / k
    inner = np.column_stack([np.cos(ang), np.sin(ang)])
    outer = 2.5 * np.column_stack([np.cos(ang + 0.3), np.sin(ang + 0.3)])
    tip = outer[0] + [[1.0, 0.2], [0.2, 1.0]]
    positions = np.vstack([[0.0, 0.0], inner, outer, tip])
    tris = [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    tris += [(1 + i, 1 + k + i, 1 + (i + 1) % k) for i in range(k)]
    tris += [(1 + (i + 1) % k, 1 + k + i, 1 + k + (i + 1) % k) for i in range(k)]
    tris += [(1 + k, 2 * k + 1, 2 * k + 2)]
    values = 1e3 * rng.normal(size=(len(positions), 2))
    values[::3] = -0.0
    values[1::4] = 0.0
    return TriField(positions, values, tris)


def test_loop_matches_loop_oracle_on_irregular_mesh(rng):
    field = irregular_fan_field(rng)
    degree = np.bincount(field.edges.ravel())
    assert degree.max() > 8
    pinched = 1 + 11  # first outer vertex: four boundary edges
    assert (field.edges[field.edge_triangles[:, 1] < 0] == pinched).sum() == 4
    assert_same_field(_loop_once(field), loop_once_oracle(field))


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("w, h", [(2, 2), (2, 7), (7, 2), (5, 4)])
@pytest.mark.parametrize("sx, sy", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_loop_adjacency_matches_the_sorting_constructor_on_grids(rng, steps, w, h, sx, sy):
    grid = triangulate_structured(
        w, h, (0.37 * sx, 1.3 * sy), rng.normal(size=w * h), rng.normal(size=w * h)
    )
    assert_same_topology(loop_subdivide(grid, steps))


@pytest.mark.parametrize("steps", [1, 2])
def test_loop_adjacency_matches_the_sorting_constructor_on_irregular_mesh(rng, steps):
    assert_same_topology(loop_subdivide(irregular_fan_field(rng), steps))


def bsf_with_hole(rng, tmp_path, w=9, h=8):
    """A w x h grid field with the triangles near (4, 3.5) removed, read
    back from a BSF file, so that its adjacency comes from the sort."""
    grid = triangulate_structured(w, h, (1.0, 1.0), rng.normal(size=w * h), rng.normal(size=w * h))
    tris = grid_triangles(w, h)
    centre = grid.positions[tris].mean(axis=1)
    keep = np.hypot(centre[:, 0] - 4.0, centre[:, 1] - 3.5) > 1.6
    save_bsf(TriField(grid.positions, grid.values, tris[keep]), tmp_path / "hole.bsf")
    return load_bsf(tmp_path / "hole.bsf")


@pytest.mark.parametrize("steps", [1, 2])
def test_loop_adjacency_matches_the_sorting_constructor_on_bsf_with_hole(rng, tmp_path, steps):
    w, h = 9, 8
    field = bsf_with_hole(rng, tmp_path, w, h)
    boundary = field.edges[field.edge_triangles[:, 1] < 0]
    assert len(boundary) > 2 * (w - 1 + h - 1)  # the hole adds an inner rim
    assert_same_topology(loop_subdivide(field, steps))


def _sorted_neighbors_oracle(n, edges):
    """Neighbor lists by an argsort of the packed (vertex, neighbor) keys."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src * n + dst)
    deg = np.bincount(src, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=start[1:])
    return start, deg, dst[order], order


def test_sorted_neighbors_match_the_packed_key_argsort(rng, tmp_path):
    bsf = bsf_with_hole(rng, tmp_path)
    for field in (bsf, loop_subdivide(bsf, 1), irregular_fan_field(rng)):
        boundary = field.edge_triangles[:, 1] < 0
        for edges in (field.edges, field.edges[boundary], field.edges[:0]):
            got = _sorted_neighbors(field.n_vertices, edges)
            want = _sorted_neighbors_oracle(field.n_vertices, edges)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_loop_of_a_doubled_triangle_is_rejected_as_non_manifold():
    # Two triangles on the same three vertices share all three edges; their
    # children share the midpoint edges four ways.
    field = TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), [(0, 1, 2), (0, 2, 1)])
    with pytest.raises(NonManifoldError):
        loop_subdivide(field, 1)


def test_loop_step_rejects_a_shared_midpoint_edge_as_the_sort_does(monkeypatch):
    # Each field's Loop child has a midpoint edge in four triangles. The
    # step reports it without handing the child to the sorting
    # constructor, with the message that the sort gives (the oracle builds
    # the child through it).
    doubled = TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), [(0, 1, 2), (0, 2, 1)])
    for field, edge in ((twin_pair_field(), "(9, 10)"), (doubled, "(3, 4)")):
        with pytest.raises(NonManifoldError) as by_sort:
            loop_once_oracle(field)
        assert str(by_sort.value) == f"edge {edge} shared by more than two triangles"
        with monkeypatch.context() as patch:
            patch.setattr(mesh, "_sorted_adjacency", None)
            with pytest.raises(NonManifoldError) as by_step:
                loop_subdivide(field, 1)
        assert str(by_step.value) == str(by_sort.value)
