import math

import numpy as np
import pytest

from jacobiset import (
    FilterSpec,
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
from jacobiset.baselines import (
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


# -- filter specs ------------------------------------------------------------


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(kind="boxcar")
    with pytest.raises(ValueError):
        FilterSpec(radius=0)
    with pytest.raises(ValueError):
        FilterSpec(sigma=0.0)
    with pytest.raises(ValueError):
        FilterSpec(truncation=0.5)
    with pytest.raises(ValueError):
        FilterSpec(boundary="wrap")


def test_filters_require_grid_input():
    field = triangulate_structured(3, 3, (1, 1), np.zeros(9), np.zeros(9))
    with pytest.raises(TypeError):
        binomial_filter(field, FilterSpec("binomial"))
    with pytest.raises(TypeError):
        gaussian_filter(field, FilterSpec("gaussian"))


# -- binomial ----------------------------------------------------------------


def test_binomial_constant_bit_identical():
    grid = constant_grid(cf=0.12345678901234567, cg=-9.87654321e-5)
    out = binomial_filter(grid, FilterSpec("binomial"))
    assert np.array_equal(out.f, grid.f)
    assert np.array_equal(out.g, grid.g)


def test_binomial_impulse_footprint():
    f = np.zeros((5, 5))
    f[2, 2] = 1.0
    grid = GridField(5, 5, 1.0, 1.0, f, np.zeros((5, 5)))
    out = binomial_filter(grid, FilterSpec("binomial", radius=1))
    k = np.array([1.0, 2.0, 1.0]) / 4.0
    expected = np.outer(k, k)
    assert np.allclose(out.f[1:4, 1:4], expected, atol=1e-15)
    assert out.f[0].sum() == 0.0 and out.f[4].sum() == 0.0


def test_binomial_radius_two_matches_dense_oracle(rng):
    data = rng.normal(size=(6, 8))
    grid = GridField(8, 6, 1.0, 1.0, data, np.zeros((6, 8)))
    out = binomial_filter(grid, FilterSpec("binomial", radius=2, boundary="clamp"))
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    expected = dense_convolve(data, np.outer(k, k), "clamp")
    assert np.allclose(out.f, expected, atol=1e-12)


def test_binomial_ramp_interior_unchanged_mirror():
    xs = np.tile(np.arange(9.0), 6)
    grid = GridField(9, 6, 1.0, 1.0, xs, np.zeros(54))
    out = binomial_filter(grid, FilterSpec("binomial", boundary="mirror"))
    # A symmetric kernel preserves affine data wherever the stencil sees
    # the true ramp, i.e. away from the boundary columns.
    assert np.allclose(out.f[:, 1:-1], grid.f[:, 1:-1], atol=1e-14)


def test_binomial_commutes_with_constant_shift(rng):
    data = rng.normal(size=(5, 7))
    grid = GridField(7, 5, 1.0, 1.0, data, data * 2)
    spec = FilterSpec("binomial")
    base = binomial_filter(grid, spec)
    shifted = GridField(7, 5, 1.0, 1.0, data + 10.0, data * 2 - 3.0)
    out = binomial_filter(shifted, spec)
    assert np.allclose(out.f, base.f + 10.0, atol=1e-12)
    assert np.allclose(out.g, base.g - 3.0, atol=1e-12)


# -- gaussian ----------------------------------------------------------------


def test_gaussian_constant_bit_identical():
    grid = constant_grid()
    out = gaussian_filter(grid, FilterSpec("gaussian", sigma=1.5))
    assert np.array_equal(out.f, grid.f)
    assert np.array_equal(out.g, grid.g)


def test_gaussian_impulse_matches_dense_oracle():
    f = np.zeros((9, 9))
    f[4, 4] = 2.5
    grid = GridField(9, 9, 1.0, 1.0, f, np.zeros((9, 9)))
    out = gaussian_filter(grid, FilterSpec("gaussian", sigma=1.0, truncation=3.0))
    x = np.arange(-3, 4, dtype=float)
    k = np.exp(-0.5 * x**2)
    k /= k.sum()
    expected = dense_convolve(f, np.outer(k, k), "clamp")
    assert np.allclose(out.f, expected, atol=1e-12)


def test_gaussian_kernel_capped_at_grid_size():
    grid = constant_grid(6, 4)
    out = gaussian_filter(grid, FilterSpec("gaussian", sigma=1000.0, truncation=3.0))
    assert out.f.shape == grid.f.shape  # huge sigma still runs after capping


def test_gaussian_variance_reduction(rng):
    noise = rng.normal(size=(20, 20))
    grid = GridField(20, 20, 1.0, 1.0, noise, noise[::-1])
    out = gaussian_filter(grid, FilterSpec("gaussian", sigma=2.0))
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
                out = binomial_filter(grid, FilterSpec("binomial", radius=radius, boundary=boundary))
                assert np.array_equal(out.f, reference(grid.f, k, k, mode))
                assert np.array_equal(out.g, reference(grid.g, k, k, mode))
            # sigma 0.7 reaches radius 3 where the grid allows; sigma 50 is capped
            # at width-1 / height-1.
            for sigma in (0.7, 50.0):
                kx = _gaussian_kernel(sigma, 3.0, w - 1)
                ky = _gaussian_kernel(sigma, 3.0, h - 1)
                out = gaussian_filter(grid, FilterSpec("gaussian", sigma=sigma, boundary=boundary))
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
