"""SVG rendering of a field in the orientation/saturation style.

Triangles are filled red when the linear map preserves the winding and
blue when it mirrors it; saturation grows with the triangle's range area
(half its absolute determinant numerator) relative to the median nonzero
range area. Degenerate triangles take their neighborhood-assigned sign at
a faint minimum saturation, and Jacobi edges are stroked black on top.
The longer side of the domain spans ``CANVAS_WIDTH`` pixels.
"""

from __future__ import annotations

import numpy as np

from .fileio import format_rows
from .jacobi import compute_jacobi_set
from .mesh import TriField

MIN_SATURATION = 0.08
# Longer side of the SVG canvas in pixels; the other follows the domain.
CANVAS_WIDTH = 800.0
_POLYGON = '<polygon points="%s,%s %s,%s %s,%s" fill="#%s"/>'
_LINE = '<line x1="%s" y1="%s" x2="%s" y2="%s"/>'
# Fill colour by ``2 * faded + (sign > 0)``: the sign's own channel stays
# at ff, the other two carry the faded value.
_FILLS = np.array(
    [c for f in range(256) for c in ("%02x%02xff" % (f, f), "ff%02x%02x" % (f, f))],
    dtype=object,
)


def render_svg(
    field: TriField,
    show_jacobi: bool = True,
    saturation_scale: float = 1.0,
    epsilon: float = 0.0,
) -> str:
    """Render the field to an SVG string (no external references)."""
    if not saturation_scale > 0:
        raise ValueError("saturation scale must be > 0")
    js = compute_jacobi_set(field, epsilon)

    range_areas = 0.5 * np.abs(field.numerators)
    nonzero = np.compress(range_areas > 0, range_areas)
    median = float(np.median(nonzero)) if len(nonzero) else 1.0
    scale_ref = saturation_scale * median

    # Halved, finite positions span a finite box; halving is exact for every
    # |x| >= 2**-1021, and the pixel scale undoes it. No vertices: one point.
    pos = 0.5 * field.positions
    box = (pos.min(axis=0), pos.max(axis=0)) if len(pos) else np.zeros((2, 2))
    (xmin, ymin), (xmax, ymax) = box
    span = box[1] - box[0]
    # The longer side of the domain spans the canvas. A box too small for a
    # finite scale (one point, or subnormal and so with no triangle) draws
    # on the square canvas.
    with np.errstate(divide="ignore", over="ignore"):
        px = CANVAS_WIDTH / span.max()
    if px == np.inf:
        span, px = np.ones(2), CANVAS_WIDTH
    width, height = span * px
    # Pixel coordinates, y growing downward in SVG, as text: formatted once
    # per vertex and shared by every triangle and Jacobi edge at it.
    x = _format_each((pos[:, 0] - xmin) * px)
    y = _format_each((ymax - pos[:, 1]) * px)

    # Red where the effective sign is +1, blue where it is -1; degenerate
    # triangles take their assigned sign at the minimum saturation. A
    # reference that underflows to 0 or overflows to inf gives inf or NaN
    # quotients, and fmin takes both to full saturation.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sat = np.fmin(1.0, range_areas / scale_ref)
    sat[js.signs == 0] = MIN_SATURATION
    # The sign's own channel stays at 255; the other two fade from 255 to
    # 0 as saturation grows, rounded half to even.
    faded = np.rint(255 + -255 * sat).astype(np.int64)
    tri = field.triangles
    polygons = np.empty((field.n_triangles, 7), dtype=object)
    polygons[:, 0:6:2] = x.take(tri)
    polygons[:, 1:6:2] = y.take(tri)
    polygons[:, 6] = _FILLS.take(2 * faded + (js.effective > 0))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n'
        '<g stroke="none">\n',
        *format_rows(_POLYGON, polygons),
        "</g>\n",
    ]
    if show_jacobi and len(js.edges):
        stroke = 0.004 * CANVAS_WIDTH
        parts.append(f'<g stroke="#000000" stroke-width="{stroke:.3f}" stroke-linecap="round">\n')
        a, b = js.edges[:, 0], js.edges[:, 1]
        parts += format_rows(_LINE, np.column_stack([x.take(a), y.take(a), x.take(b), y.take(b)]))
        parts.append("</g>\n")
    parts.append("</svg>\n")
    return "".join(parts)


def _format_each(values: np.ndarray) -> np.ndarray:
    """Each value as ``%.3f`` text, in an object array."""
    text = ("%.3f\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    return np.array(text, dtype=object)
