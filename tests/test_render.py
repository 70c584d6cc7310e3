import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from jacobiset import TriField, compute_jacobi_set, render_svg, triangulate_structured

from conftest import grid_field, move_vertices, quad_field, render_svg_oracle, wave_field


def parse_svg(svg: str):
    root = ET.fromstring(svg)  # raises on invalid XML
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f".//{ns}polygon")
    lines = root.findall(f".//{ns}line")
    return root, polygons, lines


def test_identity_field_all_red_no_edges():
    field = grid_field(4, 4, lambda x, y: x, lambda x, y: y)
    svg = render_svg(field)
    root, polygons, lines = parse_svg(svg)
    assert len(polygons) == field.n_triangles
    assert len(lines) == 0
    fills = {p.get("fill") for p in polygons}
    assert len(fills) == 1
    fill = fills.pop()
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    assert r > g and r > b  # red-dominant


def test_mirrored_field_all_blue():
    field = grid_field(4, 4, lambda x, y: x, lambda x, y: -y)
    assert (field.dets < 0).all()
    _, polygons, _ = parse_svg(render_svg(field))
    for p in polygons:
        fill = p.get("fill")
        r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
        assert b > r


def test_two_sign_quad_has_black_edge():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    svg = render_svg(field)
    root, polygons, lines = parse_svg(svg)
    assert len(polygons) == 2
    assert len(lines) == 1
    fills = [p.get("fill") for p in polygons]
    rgb = [tuple(int(f[i : i + 2], 16) for i in (1, 3, 5)) for f in fills]
    assert any(r > b for r, g, b in rgb)  # one red
    assert any(b > r for r, g, b in rgb)  # one blue
    # Jacobi group is stroked black.
    assert 'stroke="#000000"' in svg


def test_show_jacobi_toggle():
    field = quad_field([0, 1, 1, 0], [0, 1, 0, 1])
    svg = render_svg(field, show_jacobi=False)
    _, _, lines = parse_svg(svg)
    assert len(lines) == 0


def test_degenerate_tinted_at_min_saturation():
    field = triangulate_structured(3, 2, (1.0, 1.0), [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1])
    move_vertices(field, [4], field.values[1])  # degenerate one triangle
    assert (field.dets == 0).any()
    svg = render_svg(field)
    _, polygons, _ = parse_svg(svg)
    fills = {p.get("fill") for p in polygons}
    assert len(fills) >= 2  # faint degenerate tint differs from full tint


def test_no_external_references_and_saturation_scale():
    field = grid_field(3, 3, lambda x, y: x, lambda x, y: y)
    svg = render_svg(field, saturation_scale=2.0)
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
    assert "href" not in svg
    with pytest.raises(ValueError):
        render_svg(field, saturation_scale=0.0)


def test_render_matches_loop_oracle_on_wave_field(rng):
    field = wave_field(rng, 21, 13)
    assert render_svg(field) == render_svg_oracle(field)


def test_render_matches_loop_oracle_with_degenerate_triangles(rng):
    field = wave_field(rng, 24, 14, step=0.5)
    assert (field.dets == 0).mean() > 0.1  # MIN_SATURATION path runs
    for kwargs in ({}, {"show_jacobi": False}, {"saturation_scale": 3.0, "epsilon": 0.05}):
        assert render_svg(field, **kwargs) == render_svg_oracle(field, **kwargs)


def test_empty_mesh_renders_an_empty_group():
    field = TriField([(0, 0), (1, 0), (0, 1)], np.zeros((3, 2)), np.empty((0, 3), dtype=int))
    svg = render_svg(field)
    _, polygons, lines = parse_svg(svg)
    assert polygons == [] and lines == []
    assert svg == render_svg_oracle(field)


def test_overflowing_range_areas_take_full_saturation(rng):
    # Most nonzero range areas overflow to inf, so their median is inf too
    # and inf / inf is NaN; those triangles still get a valid full-tint fill.
    f, g = rng.normal(size=(2, 16)) * 1e160
    field = triangulate_structured(4, 4, (1.0, 1.0), f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        range_areas = np.abs(field.dets) * field.domain_areas
        assert np.isinf(np.median(range_areas[range_areas > 0]))
        svg = render_svg(field)
    fills = [p.get("fill") for p in parse_svg(svg)[1]]
    assert all(re.fullmatch("#[0-9a-f]{6}", fill) for fill in fills)
    assert {"#ff0000", "#0000ff"} & set(fills)


def test_underflowing_saturation_reference_takes_full_saturation():
    # The median nonzero range area is 3e-320, so saturation_scale * median
    # underflows to 0 and every triangle takes full saturation.
    v = np.arange(9.0)
    field = triangulate_structured(3, 3, (1, 1), 1e-160 * v, 1e-160 * (v % 3) ** 2)
    range_areas = np.abs(field.dets) * field.domain_areas
    assert 1e-300 * np.median(range_areas[range_areas > 0]) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_svg(field, saturation_scale=1e-300)
    effective = compute_jacobi_set(field).effective
    fills = [p.get("fill") for p in parse_svg(svg)[1]]
    assert fills == ["#ff0000" if e > 0 else "#0000ff" for e in effective]
