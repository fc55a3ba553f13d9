"""The fixed-point construction: freeze, solve, damp, repeat.

One step of the map freezes the iterate v inside the right-hand side
g(superlevel measure of v), solves the resulting Dirichlet problem, and
blends the solution with v; the blend weight halves when the fixed-point gap
stagnates.  The paper smooths the measure over a value window only to prove
existence; the plain map depends on v only through its value ordering and
converges geometrically once that ordering settles.

Two implementation details matter for reproducibility.  First, stopping is
measured on the full fixed-point gap ||T(v) - v||_inf; the damped update is
exactly damping times that gap, and the accepted final iterate is the inner
solve output itself, so the returned field carries the inner solver's own
residual certificate.  Second, iterate values closer together than a tiny
snap width are consolidated to their cluster minimum, the starting iterate
included: solver roundoff otherwise splits the exact value ties that
symmetric domains and constant data produce, and the counting measure would
order that noise.  The snap width is a tiny fraction of the a-priori
oscillation bound, capped so the perturbation it makes to F(D^2 u) stays far
below the inner tolerance.

One solve is a single logical thread of control (its inner solves vectorize
per node); independent solves share no mutable state and may run
concurrently, e.g. across the grids of a refinement study.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.typing import NDArray

from .elliptic import (
    DirichletProblem,
    EllipticOperator,
    apply_operator,
    solve_dirichlet,
)
from .errors import InvalidParameterError, NonConvergenceError
from .geometry import BoundaryData, BoxDescriptor, Grid
from .measure import ProfileFunction, ScalarField, rhs_plain, rhs_smoothed

__all__ = [
    "OuterConfig",
    "IterationRecord",
    "SolveReport",
    "fixed_point_step",
    "solve_nonlocal",
    "plain_residual_parts",
]


# Iterate values closer than this fraction of the a-priori oscillation bound
# are one tie (subject to the cap in _snap_width).
_TIE_SNAP_REL = 1e-12
# Stagnation halves the damping down to this floor; a stall there ends the solve.
_DAMPING_FLOOR = 1e-3


@dataclass
class OuterConfig:
    """Controls the damped fixed-point iteration: each step blends the solve
    output into the iterate with weight damping, which halves (down to 1e-3)
    after four steps without the fixed-point gap falling by 0.1 %.
    Converged needs the gap under outer_tol within max_outer_iterations.
    inner_tol is the residual target of every inner solve (None: 1e-8 for
    the Laplacian, 1e-6 for the Pucci operators)."""

    damping: float = 0.5
    # None: max(1e-8, 0.00625 * 2^n n! * cell * max|g'| / lam).  The
    # superlevel measure is quantized in whole cells, so the solve map jumps
    # by the response (up to 1/lam times the flip) to one lattice orbit of
    # cells flipping in the forcing; no iterate certifies a smaller gap.
    outer_tol: float | None = None
    max_outer_iterations: int = 4000
    inner_tol: float | None = None

    def __post_init__(self):
        if not (0 < self.damping <= 1):
            raise InvalidParameterError("damping must lie in (0, 1]")
        for name in ("outer_tol", "inner_tol"):
            tol = getattr(self, name)
            if tol is not None and not 0 < tol < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        if not (isinstance(self.max_outer_iterations, numbers.Integral)
                and self.max_outer_iterations >= 1):
            raise InvalidParameterError(
                "max_outer_iterations must be an integer of at least 1")


@dataclass
class IterationRecord:
    k: int
    epsilon: float
    increment: float          # ||v_{k+1} - v_k||_inf, the realized update
    step_gap: float           # ||T(v_k) - v_k||_inf, the fixed-point gap
    inner_residual: float
    plain_residual: float


@dataclass
class SolveReport:
    """Append-only history plus final diagnostics of one nonlocal solve."""

    status: str = "MaxIterations"
    records: list[IterationRecord] = dc_field(default_factory=list)
    damping: float = 0.5
    outer_tol: float = 0.0
    tie_snap: float = 0.0
    bound_limit: float = math.inf
    bound_max_observed: float = 0.0
    total_iterations: int = 0
    final_increment: float = math.inf
    final_inner_residual: float = math.inf
    final_plain_residual: float = math.inf
    final_plain_residual_core: float = math.inf
    final_plain_residual_band: float = 0.0
    notes: list[str] = dc_field(default_factory=list)
    # (tie snap, wall-clock seconds) of the one stage; volatile, excluded
    # from serialized reports.
    stage_seconds: list[tuple[float, float]] = dc_field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "Converged"


def _snap_ties(values: NDArray[np.float64], snap: float,
               order: NDArray[np.intp] | None = None) -> NDArray[np.float64]:
    """Consolidate clusters of values within ``snap`` to their minimum.

    Deterministic and order-independent (up to the sign a cluster of zeros of
    both signs takes): clusters are maximal runs of the sorted values with
    consecutive gaps <= snap.  ``order``, a permutation that sorts values,
    saves the sort; it sorts the output too.
    """
    if snap <= 0 or values.size < 2:
        return values
    order = np.argsort(values) if order is None else order
    sv = values[order]
    starts = np.concatenate(([True], np.diff(sv) > snap))
    reps = sv[starts]
    snapped = reps[np.cumsum(starts) - 1]
    out = np.empty_like(values)
    out[order] = snapped
    return out


def plain_residual_parts(u: ScalarField, op: EllipticOperator,
                         g: ProfileFunction) -> tuple[float, float, float]:
    """(total, core, band) max-norm defect of the unsmoothed equation.

    The band is the strip within 2h of a curved boundary, where the mixed
    stencil falls back to first order; boxes have no such strip.
    """
    return _split_defect(np.abs(apply_operator(op, u) - rhs_plain(u, g)), u.grid)


def _split_defect(r: NDArray[np.float64], grid: Grid) -> tuple[float, float, float]:
    total = float(np.max(r))
    if isinstance(grid.descriptor, BoxDescriptor):
        return total, total, 0.0
    band = grid.distance_to_boundary(grid.interior_coords) <= 2 * grid.h
    band_res = float(np.max(r[band])) if np.any(band) else 0.0
    core_res = float(np.max(r[~band])) if np.any(~band) else 0.0
    return total, core_res, band_res


def _plain_defect(problem: DirichletProblem, v: ScalarField, g: ProfileFunction,
                  order: NDArray[np.intp]) -> tuple:
    """|F(D^2 v) - g(superlevel measure of v)| per node, with the Hessian
    D(v) and the plain forcing g(superlevel measure of v) (sorted by
    ``order``) that the step from v reuses."""
    D = problem.hessian(v.interior)
    f = rhs_plain(v, g, order)
    return np.abs(problem.op.evaluate(D) - f), D, f


def fixed_point_step(v: ScalarField, eps: float, theta: float,
                     op: EllipticOperator, g: ProfileFunction,
                     psi: BoundaryData, *,
                     tol: float | None = None) -> ScalarField:
    """One damped application of the frozen-and-smoothed solve map.

    With theta = 1 this is exactly T(v): solve F(D^2 u) = g(smoothed
    superlevel average of v) with data psi to the inner tolerance ``tol``.
    Propagates inner non-convergence.
    """
    if not (0 < theta <= 1):
        raise InvalidParameterError("damping must lie in (0, 1]")
    f = rhs_smoothed(v, g, eps)
    u = DirichletProblem(op, v.grid, psi, tol=tol).solve(f, v)[0]
    return u.with_interior((1.0 - theta) * v.interior + theta * u.interior)


def _snap_width(grid: Grid, op: EllipticOperator, tol: float,
                scale: float) -> float:
    """Largest tie-consolidation width whose effect on F(D^2 u) stays under
    a quarter of the inner tolerance, given the stiffest stencil row."""
    d_max = float(np.max(grid.stencil.stiffness))
    floor = 4.0 * np.finfo(np.float64).eps * scale
    return max(floor, min(_TIE_SNAP_REL * scale, tol / (4.0 * op.Lam * d_max)))


def solve_nonlocal(op: EllipticOperator, grid: Grid, g: ProfileFunction,
                   psi: BoundaryData,
                   cfg: OuterConfig | None = None) -> tuple[ScalarField, SolveReport]:
    """Full pipeline for F(D^2 u) = g(|superlevel set of u|), u = psi.

    Starts from the homogeneous solve F(D^2 v) = 0 with data psi, then runs
    damped fixed-point steps of the plain map (undamped when g is constant).  The returned report
    certifies what was actually measured on the returned field; status is
    Converged only when the final fixed-point gap and inner residual are
    below their tolerances, and an inner solve that fails inside the loop
    ends it with status InnerFailure.  Uniqueness is not claimed; every
    solve starts from the homogeneous solve, so reruns reach the same fixed
    point.

    Raises NonConvergenceError when the homogeneous start itself misses the
    inner tolerance: there is no iterate to report on.
    """
    cfg = cfg or OuterConfig()
    # A constant g freezes to the same forcing for every iterate, so the
    # first undamped step is the answer.
    theta = 1.0 if g.max_slope() == 0 else cfg.damping
    report = SolveReport(damping=theta)

    # Default gap tolerance: the smallest forcing jump is one cell of measure
    # through g, and lattice symmetry flips whole value orbits at once (orbit
    # size 2^n n!), so the certifiable gap scales with both, and with the
    # solve map's gain 1/lam.
    if cfg.outer_tol is not None:
        outer_tol = cfg.outer_tol
    else:
        orbit = 2 ** grid.n * math.factorial(grid.n)
        outer_tol = max(1e-8, 0.00625 * orbit * grid.cell * g.max_slope() / op.lam)
    report.outer_tol = outer_tol

    problem = DirichletProblem(op, grid, psi, tol=cfg.inner_tol)
    v = problem.solve(0.0)[0]

    # Empirical boundedness guard in the spirit of the a-priori sup bound:
    # iterates must stay below max|psi| + C_domain * max|g| / lam, with
    # C_domain the sup of the domain's torsion function.  osc(v0) plus the
    # same forcing term bounds the oscillation of every iterate, and scales
    # the tie snap.
    torsion = solve_dirichlet(EllipticOperator.laplacian(), grid, -1.0,
                              BoundaryData.zero())
    psi_bound = float(np.max(np.abs(problem.trace.all_values()), initial=0.0))
    forcing_bound = float(np.max(torsion.interior)) * g.abs_bound() / op.lam
    report.bound_limit = psi_bound + forcing_bound + 1e-9
    snap = _snap_width(grid, op, problem.tol, v.osc() + forcing_bound)
    report.tie_snap = snap

    # Each iterate is sorted once, for the tie snap; that order serves its
    # measure, and its Hessian D and plain forcing f serve both its residual
    # and the step from it.  On snapped iterates every positive value gap
    # exceeds the snap, so f is bitwise the smoothed right-hand side at
    # width snap.
    x = v.interior
    order = np.argsort(x)
    x = _snap_ties(x, snap, order)
    v = v.with_interior(x)
    r, D, f = _plain_defect(problem, v, g, order)
    best_gap = math.inf
    no_progress = 0
    t_start = time.perf_counter()
    for k in range(cfg.max_outer_iterations):
        try:
            u, inner_res = problem.solve(f, v, D)
        except NonConvergenceError as err:
            report.status = "InnerFailure"
            report.notes.append(f"inner solve failed: {err}")
            break
        y = u.interior
        step_gap = float(np.max(np.abs(y - x)))
        done = step_gap <= outer_tol
        # Accept the undamped solve output at the end, so the final field is
        # an inner-solve output with its certificate.
        if not done:
            y = (1.0 - theta) * x + theta * y
        order = np.argsort(y)
        y = _snap_ties(y, snap, order)
        v = u.with_interior(y)
        r, D, f = _plain_defect(problem, v, g, order)
        report.records.append(IterationRecord(
            k=k,
            epsilon=snap,
            increment=float(np.max(np.abs(y - x))),
            step_gap=step_gap,
            inner_residual=inner_res,
            plain_residual=float(np.max(r)),
        ))
        x = y
        if step_gap < 0.999 * best_gap:
            best_gap, no_progress = step_gap, 0
        elif not done:
            no_progress += 1
            if no_progress >= 4:
                if theta / 2 < _DAMPING_FLOOR:
                    report.notes.append("gap stalled at the damping floor")
                    break
                no_progress, theta = 0, theta / 2
                report.notes.append(
                    f"gap stagnated at {best_gap:.3e}; damping -> {theta:g}")
        sup = float(np.max(np.abs(x)))
        report.bound_max_observed = max(report.bound_max_observed, sup)
        if sup > report.bound_limit:
            report.status = "InnerFailure"
            report.notes.append(
                f"boundedness violated: sup |v| = {sup:.6e} exceeds "
                f"{report.bound_limit:.6e}"
            )
            break
        if done:
            report.status = "Converged"
            break
    else:
        report.notes.append("outer iteration budget exhausted")
    report.stage_seconds.append((snap, time.perf_counter() - t_start))

    report.total_iterations = len(report.records)
    if report.records:
        report.final_increment = report.records[-1].step_gap
        report.final_inner_residual = report.records[-1].inner_residual
    (report.final_plain_residual, report.final_plain_residual_core,
     report.final_plain_residual_band) = _split_defect(r, grid)

    # Status must certify the tolerances it claims.
    if report.status == "Converged" and not (
            report.final_increment <= outer_tol
            and report.final_inner_residual <= problem.tol):
        report.status = "MaxIterations"
        report.notes.append("final tolerances not certified")
    return v, report
