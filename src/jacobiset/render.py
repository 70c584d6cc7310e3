"""SVG rendering of a field in the orientation/saturation style.

Triangles are filled red when the linear map preserves the winding and
blue when it mirrors it; saturation grows with the triangle's range area
relative to the median nonzero range area. Degenerate triangles take
their neighborhood-assigned sign at a faint minimum saturation, and
Jacobi edges are stroked black on top.
"""

from __future__ import annotations

import numpy as np

from .fileio import format_rows
from .jacobi import (
    assign_degenerate,
    effective_signs,
    extract_jacobi_set,
    orientation_signs,
)
from .mesh import TriField

MIN_SATURATION = 0.08
_POLYGON = '<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f" fill="#%02x%02x%02x"/>'
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f"/>'


def render_svg(
    field: TriField,
    show_jacobi: bool = True,
    saturation_scale: float = 1.0,
    epsilon: float = 0.0,
    canvas_width: float = 800.0,
) -> str:
    """Render the field to an SVG string (no external references)."""
    if saturation_scale <= 0:
        raise ValueError("saturation scale must be > 0")
    signs = orientation_signs(field, epsilon)
    assignment = assign_degenerate(field, signs)
    js = extract_jacobi_set(field, signs, assignment)

    range_areas = np.abs(field.dets) * field.domain_areas
    nonzero = range_areas[range_areas > 0]
    median = float(np.median(nonzero)) if len(nonzero) else 1.0
    scale_ref = saturation_scale * median

    pos = field.positions
    xmin, ymin = pos.min(axis=0)
    xmax, ymax = pos.max(axis=0)
    w = max(xmax - xmin, 1e-30)
    h = max(ymax - ymin, 1e-30)
    px = canvas_width / w
    canvas_height = h * px
    # Pixel coordinates; y grows downward in SVG.
    xy = np.column_stack([(pos[:, 0] - xmin) * px, (ymax - pos[:, 1]) * px])

    # Red where the effective sign is +1, blue where it is -1; degenerate
    # triangles take their assigned sign at the minimum saturation.
    eff = effective_signs(field, signs, assignment)
    if scale_ref > 0:
        sat = np.minimum(1.0, range_areas / scale_ref)
    else:
        sat = np.ones(field.n_triangles)
    sat[signs == 0] = MIN_SATURATION
    # The sign's own channel stays at 255; the other two fade from 255 to
    # 0 as saturation grows, rounded half to even.
    faded = np.rint(255 + -255 * sat).astype(np.int64)
    polygons = np.empty((field.n_triangles, 9), dtype=object)
    polygons[:, :6] = xy[field.triangles].reshape(-1, 6)
    polygons[:, 6] = np.where(eff > 0, 255, faded)
    polygons[:, 7] = faded
    polygons[:, 8] = np.where(eff > 0, faded, 255)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas_width:.0f}" '
        f'height="{canvas_height:.2f}" viewBox="0 0 {canvas_width:.2f} {canvas_height:.2f}">\n'
        '<g stroke="none">\n',
        *format_rows(_POLYGON, polygons),
        "</g>\n",
    ]
    if show_jacobi and len(js.edges):
        stroke = 0.004 * max(canvas_width, canvas_height)
        parts.append(f'<g stroke="#000000" stroke-width="{stroke:.3f}" stroke-linecap="round">\n')
        parts += format_rows(_LINE, xy[js.edges].reshape(-1, 4))
        parts.append("</g>\n")
    parts.append("</svg>\n")
    return "".join(parts)
