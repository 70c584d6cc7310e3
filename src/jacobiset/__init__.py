"""Jacobi sets of bivariate piecewise-linear 2D fields.

Extraction of Jacobi sets on triangle meshes, neighborhood graphs over
the orientation regions, and simplification by iteratively collapsing
cells of irrelevant regions, plus smoothing and subdivision baselines.
"""

__version__ = "0.1.0"

from .mesh import (
    DegenerateTriangleError,
    MeshError,
    NonManifoldError,
    TriField,
    triangulate_structured,
)
from .fileio import GridField, ParseError, load_bsf, load_field, load_sgf, save_bsf, save_sgf
from .jacobi import (
    assign_degenerate,
    component_count,
    compute_jacobi_set,
    extract_jacobi_set,
    jacobi_length,
    measures,
    orientation_signs,
)
from .regions import (
    build_graph,
    build_regions,
    find_collapsible_cells,
    neighborhood_graph,
)
from .collapse import CollapseStatus, simplify
from .baselines import binomial_filter, gaussian_filter, loop_subdivide
from .render import render_svg

__all__ = [
    "CollapseStatus",
    "DegenerateTriangleError",
    "GridField",
    "MeshError",
    "NonManifoldError",
    "ParseError",
    "TriField",
    "assign_degenerate",
    "binomial_filter",
    "build_graph",
    "build_regions",
    "component_count",
    "compute_jacobi_set",
    "extract_jacobi_set",
    "find_collapsible_cells",
    "gaussian_filter",
    "jacobi_length",
    "load_bsf",
    "load_field",
    "load_sgf",
    "loop_subdivide",
    "measures",
    "neighborhood_graph",
    "orientation_signs",
    "render_svg",
    "save_bsf",
    "save_sgf",
    "simplify",
    "triangulate_structured",
]
