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
    domain_area,
    triangulate_structured,
)
from .fileio import GridField, ParseError, load_bsf, load_field, load_sgf, save_bsf, save_sgf
from .jacobi import (
    JacobiSet,
    Orientation,
    TriangleJacobian,
    assign_degenerate,
    component_count,
    compute_jacobi_set,
    extract_jacobi_set,
    jacobian,
    jacobi_length,
    measures,
    orientation,
    orientation_signs,
)
from .regions import (
    NeighborhoodGraph,
    RegionDecomposition,
    build_graph,
    build_regions,
    find_collapsible_cells,
    neighborhood_graph,
    region_domain_area,
    region_hypervolume,
    region_range_area,
)
from .collapse import (
    CollapseReport,
    CollapseStatus,
    CollapseVariant,
    apply_collapse_variant,
    cell_neighborhood,
    cells_oscillated,
    simplify,
)
from .baselines import FilterSpec, binomial_filter, gaussian_filter, loop_subdivide
from .render import render_svg

__all__ = [
    "CollapseReport",
    "CollapseStatus",
    "CollapseVariant",
    "DegenerateTriangleError",
    "FilterSpec",
    "GridField",
    "JacobiSet",
    "MeshError",
    "NeighborhoodGraph",
    "NonManifoldError",
    "Orientation",
    "ParseError",
    "RegionDecomposition",
    "TriField",
    "TriangleJacobian",
    "apply_collapse_variant",
    "assign_degenerate",
    "binomial_filter",
    "build_graph",
    "build_regions",
    "cell_neighborhood",
    "cells_oscillated",
    "component_count",
    "compute_jacobi_set",
    "domain_area",
    "extract_jacobi_set",
    "find_collapsible_cells",
    "gaussian_filter",
    "jacobian",
    "jacobi_length",
    "load_bsf",
    "load_field",
    "load_sgf",
    "loop_subdivide",
    "measures",
    "neighborhood_graph",
    "orientation",
    "orientation_signs",
    "region_domain_area",
    "region_hypervolume",
    "region_range_area",
    "render_svg",
    "save_bsf",
    "save_sgf",
    "simplify",
    "triangulate_structured",
]
