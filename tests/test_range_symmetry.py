"""Metamorphic oracle: maps of the range and of the domain that are exact
in floats.

The Jacobi set of (f, g) is a property of the pair: it is symmetric in f
and g and does not change under an invertible linear map of the range
(Edelsbrunner & Harer 2002), which multiplies every determinant by the
map's determinant. Three such maps are exact in floats: swapping f and g
and negating g negate every determinant, and scaling f by 2**k scales it.
Two maps of the domain are exact too: swapping x and y negates every
determinant, and scaling x and y by 2**k scales domain areas by 4**k and
determinants by 4**-k, so range areas stay as they are.

A negation flips every orientation sign, so it swaps the roles of the
preferred-sign rules (variant B on the mapped field is variant C on the
original) and keeps the majority rule, except where the program breaks
the tie itself. Those triangles are named here by the rule, walked
independently of the program:

* a degenerate triangle whose majority walk ends without a decision takes
  +1 under the majority rule on both fields;
* a lone plateau (no walk reaches a signed triangle) takes +1 under every
  rule.

Float zeros are compared by value: ``-(a - b)`` and ``b - a`` are the same
number, but not the same zero.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from jacobiset import TriField, collapse
from jacobiset.collapse import simplify
from jacobiset.jacobi import (
    MAJORITY,
    PREFER_NEGATIVE,
    PREFER_POSITIVE,
    compute_jacobi_set,
    extract_jacobi_set,
    measures,
    orientation_signs,
)
from jacobiset.regions import build_graph, build_regions

from conftest import bits, vertex_stars, wave_field

# A negation swaps the preferred-sign rows, and so the roles of B and C.
NEGATED_VARIANT = {"A": "A", "B": "C", "C": "B", "D": "D"}


@st.composite
def fields(draw):
    """A small grid of smooth waves, of plain noise, or of zeros but at a
    few vertices, optionally rounded to plateaus, optionally with a zero
    disk whose rim triangles are signed. On the sparse grid the two
    triangles across an edge between two nonzero vertices have opposite
    signs, and every other triangle is degenerate: many majority walks
    end there without a decision."""
    w, h = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = wave_field(rng, w, h)
    values = field.values.copy()
    base = draw(st.sampled_from(["wave", "noise", "sparse"]))
    if base == "noise":
        values = rng.standard_normal(values.shape)
    elif base == "sparse":
        values[:] = 0.0
        picked = rng.choice(w * h, size=draw(st.integers(2, 4)), replace=False)
        values[picked] = rng.choice([-1.0, 1.0, 2.0], size=(len(picked), 2))
    step = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    if step is not None:
        values = np.round(values / step) * step
    if draw(st.booleans()):
        centre = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
        radius = draw(st.sampled_from([1.0, 1.5, 2.5]))
        disk = np.hypot(*(field.positions - centre).T) <= radius
        values[disk] = 0.0
    return field.with_values(values)


def walk_exemptions(field, signs):
    """``(undecided, lone)`` masks over the triangles: the degenerate ones
    whose majority walk ends without a decision, and those whose walk
    reaches no signed triangle. A walk grows the point neighbourhood one
    ring at a time and sums the signs it meets."""
    stars = vertex_stars(field)
    undecided = np.zeros(field.n_triangles, dtype=bool)
    lone = np.zeros(field.n_triangles, dtype=bool)
    for seed in np.flatnonzero(signs == 0).tolist():
        seen, frontier, total, signed = {seed}, [seed], 0, False
        while frontier and not total:
            ring = []
            for t in frontier:
                for v in field.triangles[t].tolist():
                    for u in stars[v].tolist():
                        if u not in seen:
                            seen.add(u)
                            ring.append(u)
            total += int(signs[ring].sum())
            signed |= bool(signs[ring].any())
            frontier = ring
        undecided[seed] = total == 0
        lone[seed] = not signed
    return undecided, lone


def jacobi_edges(field, effective):
    """Interior edges whose two triangles differ in ``effective``."""
    et = field.edge_triangles
    return field.edges[(et[:, 1] >= 0) & (effective[et[:, 0]] != effective[et[:, 1]])]


def negated_rows(assigned):
    """The assignment rows of the negated signs: each row negated, and the
    preferred-sign rows swapped."""
    return -assigned[[MAJORITY, PREFER_POSITIVE, PREFER_NEGATIVE]]


def check_jacobi(field, mapped, scale):
    """Check the determinants, the assignment rows and the Jacobi edges of
    ``mapped``, whose determinants are ``scale`` times ``field``'s, against
    ``field``'s. Returns the majority-undecided mask of ``field``."""
    assert np.array_equal(mapped.dets, scale * field.dets)
    if scale > 0:
        assert np.array_equal(bits(mapped.dets), bits(scale * field.dets))
    js, js_mapped = compute_jacobi_set(field), compute_jacobi_set(mapped)
    assert np.array_equal(js_mapped.signs, np.sign(scale) * js.signs)
    undecided, lone = walk_exemptions(field, js.signs)
    want = js.assigned if scale > 0 else negated_rows(js.assigned)
    if scale < 0:
        want[MAJORITY, undecided] = 1
        want[:, lone] = 1
        # The exempt triangles take +1 on both fields.
        assert (js.assigned[MAJORITY, undecided] == 1).all()
        assert (js.assigned[:, lone] == 1).all()
    assert np.array_equal(js_mapped.assigned, want)
    assert np.array_equal(js.edges, jacobi_edges(field, js.assigned[MAJORITY]))
    assert np.array_equal(js_mapped.edges, jacobi_edges(field, want[MAJORITY]))
    if scale > 0 or not undecided.any():
        assert np.array_equal(js_mapped.edges, js.edges)
    return undecided if scale < 0 else np.zeros_like(undecided)


def with_assignment(assigned):
    """A stand-in for ``compute_jacobi_set`` that gives ``assigned``."""

    def compute(field, epsilon=0.0):
        return extract_jacobi_set(field, orientation_signs(field, epsilon), assigned)

    return compute


def range_maps(k):
    """``(name, map of the (n, 2) values, determinant factor)``."""
    return [
        ("swap f and g", lambda v: v[:, ::-1], -1.0),
        ("negate g", lambda v: v * [1.0, -1.0], -1.0),
        (f"scale f by 2**{k}", lambda v: v * [2.0**k, 1.0], 2.0**k),
    ]


def domain_maps(k):
    """``(name, map of the (n, 2) positions, determinant factor, domain-area
    factor)``. Swapping x and y flips every winding, which the constructor
    turns back, so the determinant's denominator changes sign."""
    return [
        ("swap x and y", lambda p: p[:, ::-1], -1.0, 1.0),
        (f"scale x and y by 2**{k}", lambda p: p * 2.0**k, 4.0**-k, 4.0**k),
    ]


def scaled(measured, length_factor):
    return {"length": length_factor * measured["length"], "components": measured["components"]}


def check_pipeline(field, mapped, name, value_map, scale, area=1.0):
    """Check the Jacobi set, the regions and graph of every variant, and
    ``simplify`` end to end on ``mapped``: ``field`` with its values mapped
    by ``value_map`` and its domain areas scaled by ``area``, so that its
    determinants are ``scale`` times ``field``'s. Lengths scale by
    ``sqrt(area)``, range areas by ``area * |scale|`` and hypervolumes by
    ``area**2 * |scale|``, all exactly."""
    check_jacobi(field, mapped, scale)

    assigned = compute_jacobi_set(mapped).assigned
    # The mapped assignment, read back on the field: equal to the
    # field's own but at the exempt triangles checked above.
    back = assigned if scale > 0 else negated_rows(assigned)
    for variant in "ABCD":
        own = variant if scale > 0 else NEGATED_VARIANT[variant]
        regions = build_regions(mapped, assigned, variant=variant)
        regions_back = build_regions(field, back, variant=own)
        assert np.array_equal(regions.label, regions_back.label), (name, variant)
        assert np.array_equal(regions.signs, np.sign(scale) * regions_back.signs)
        graph, graph_back = build_graph(mapped, regions), build_graph(field, regions_back)
        assert np.array_equal(graph.sign, np.sign(scale) * graph_back.sign)
        assert np.array_equal(graph.triangle_count, graph_back.triangle_count)
        assert graph.edges == graph_back.edges
        for a, b, factor in (
            (graph.domain_area, graph_back.domain_area, area),
            (graph.range_area, graph_back.range_area, area * abs(scale)),
            (graph.hypervolume, graph_back.hypervolume, area * area * abs(scale)),
        ):
            assert np.array_equal(bits(a), bits(factor * b)), (name, variant)

        # simplify end to end, the threshold scaled as hypervolumes are:
        # between the two middle hypervolumes, so that some regions go.
        hv = np.sort(graph_back.hypervolume)
        threshold = 0.5 * (hv[(len(hv) - 1) // 2] + hv[len(hv) // 2]) if len(hv) else 0.0
        done, done_back = mapped.copy(), field.copy()
        report = simplify(done, variant, area * area * abs(scale) * threshold)
        # The field's run starts from the mapped assignment read back,
        # so both runs select the same cells.
        with mock.patch.object(collapse, "compute_jacobi_set", with_assignment(back)):
            report_back = simplify(done_back, own, threshold)
        assert np.array_equal(done.values, value_map(done_back.values)), (name, variant)
        for key in ("status", "collapsed_cells", "flip_repairs", "iterations", "residual_cl"):
            assert getattr(report, key) == getattr(report_back, key), (name, variant, key)
        assert report.before == scaled(report_back.before, math.sqrt(area)), (name, variant)
        undecided = check_jacobi(done_back, done, scale)
        if not undecided.any():
            assert report_back.after == measures(done_back)
            assert report.after == scaled(report_back.after, math.sqrt(area)), (name, variant)


@settings(max_examples=30, deadline=None)
@given(fields(), st.sampled_from([-3, -1, 1, 2, 5]))
def test_range_maps_act_on_the_pipeline_by_their_determinant(field, k):
    for name, value_map, scale in range_maps(k):
        check_pipeline(field, field.with_values(value_map(field.values)), name, value_map, scale)


@settings(max_examples=15, deadline=None)
@given(fields(), st.sampled_from([-3, -1, 1, 2, 5]))
def test_domain_maps_act_on_the_pipeline_by_their_determinant(field, k):
    for name, position_map, scale, area in domain_maps(k):
        mapped = TriField(position_map(field.positions), field.values, field.triangles)
        check_pipeline(field, mapped, name, lambda v: v, scale, area)
