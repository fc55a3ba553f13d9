"""Solver and verification suite for Dirichlet problems of the form
F(D^2 u) = g(measure of the superlevel set of u), on boxes, balls and annuli.

The pipeline: freeze the unknown in the right-hand side, solve the resulting
elliptic problem, damp and iterate until the fixed-point gap is below the
outer tolerance.  The measure smoothed over a value window of width epsilon
stays available as ``rhs_smoothed``.
"""

from .errors import (
    ConfigError,
    InvalidGridError,
    InvalidParameterError,
    LevelPDEError,
    NonConvergenceError,
    PreconditionError,
)
from .geometry import (
    AnnulusDescriptor,
    BallDescriptor,
    BoundaryData,
    BoundaryTrace,
    BoxDescriptor,
    Grid,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)
from .measure import (
    ProfileFunction,
    ScalarField,
    StepFunction,
    increasing_rearrangement,
    rhs_plain,
    rhs_smoothed,
    smoothed_superlevel_average,
    superlevel_measures,
)
from .elliptic import (
    EllipticOperator,
    MaxPrincipleReport,
    apply_operator,
    discrete_hessian,
    maximum_principle_check,
    solve_dirichlet,
)
from .outerloop import (
    IterationRecord,
    OuterConfig,
    SolveReport,
    fixed_point_step,
    plain_residual_parts,
    solve_nonlocal,
)
from .verify import (
    BallSolution,
    BarrierReport,
    FlatRegionReport,
    StudyProblem,
    StudyRow,
    barrier_comparison_check,
    barrier_gradient_constant,
    boundary_gradient_min,
    convergence_order_study,
    exact_ball_solution,
    flat_region_detector,
    unit_ball_volume,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
