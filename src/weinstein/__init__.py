"""Weighted elliptic toolkit for the Weinstein operator
L_a u = u_rr + (a/r) u_r + Delta_y u on axially symmetric domains.

Solves the torsion problem L_a u = -1 with the natural |r|^a weight and
verifies the identities (energy, flux, Pohozaev, P-function) and the
rigidity dichotomy that single out balls among overdetermined domains.
"""

from .errors import (
    BreakdownDetected,
    ConfigError,
    DegenerateDimension,
    EmptyDomain,
    GridTooCoarse,
    MissingBoundaryData,
    NoConvergence,
    ParityViolation,
    PoleEvaluation,
    SphereOutsideDomain,
    StencilLeavesDomain,
    UnsupportedShape,
    WeinsteinError,
)
from .field import ScalarField
from .gamma import (
    BesselWeights,
    bessel_sum_apply,
    cd_defect,
    cd_defect_values,
    gamma,
    gamma2,
    p_function,
)
from .geometry import (
    Ball,
    Box,
    BoundarySamples,
    Ellipsoid,
    StaggeredGrid,
    boundary_samples,
    grid_geometry,
    sphere_lattice,
)
from .measure import (
    aniso_ball_volume,
    aniso_sphere_measure,
    fundamental_solution,
    spherical_mean,
    spherical_mean_derivative,
    weighted_volume_integral,
)
from .operator import (
    SparseSystem,
    apply_operator,
    assemble_torsion_system,
    boundary_normal_gradient,
    field_from_csv,
    field_to_csv,
    normal_derivative_at_axis,
)
from .params import WeinsteinParams
from .poly import PolyField
from .rigidity import (
    CHECK_NAMES,
    CheckResult,
    ExperimentReport,
    GradientStats,
    IdentityPair,
    MeanLadder,
    boundary_gradient_stats,
    dirichlet_energy_residual,
    flux_identity_residual,
    maximum_principle_check,
    p_integral_residual,
    pohozaev_residual,
    run_experiment,
    serrin_defect,
)
from .solver import SolveReport, solve

__all__ = [
    "Ball",
    "BesselWeights",
    "BoundarySamples",
    "Box",
    "BreakdownDetected",
    "CHECK_NAMES",
    "CheckResult",
    "ConfigError",
    "DegenerateDimension",
    "Ellipsoid",
    "EmptyDomain",
    "ExperimentReport",
    "GradientStats",
    "GridTooCoarse",
    "IdentityPair",
    "MeanLadder",
    "MissingBoundaryData",
    "NoConvergence",
    "ParityViolation",
    "PolyField",
    "PoleEvaluation",
    "ScalarField",
    "SolveReport",
    "SparseSystem",
    "SphereOutsideDomain",
    "StaggeredGrid",
    "StencilLeavesDomain",
    "UnsupportedShape",
    "WeinsteinError",
    "WeinsteinParams",
    "aniso_ball_volume",
    "aniso_sphere_measure",
    "apply_operator",
    "assemble_torsion_system",
    "bessel_sum_apply",
    "boundary_gradient_stats",
    "boundary_normal_gradient",
    "boundary_samples",
    "cd_defect",
    "cd_defect_values",
    "dirichlet_energy_residual",
    "field_from_csv",
    "field_to_csv",
    "flux_identity_residual",
    "fundamental_solution",
    "gamma",
    "gamma2",
    "grid_geometry",
    "maximum_principle_check",
    "normal_derivative_at_axis",
    "p_function",
    "p_integral_residual",
    "pohozaev_residual",
    "run_experiment",
    "serrin_defect",
    "solve",
    "spherical_mean",
    "spherical_mean_derivative",
    "sphere_lattice",
    "weighted_volume_integral",
]

__version__ = "0.1.0"
