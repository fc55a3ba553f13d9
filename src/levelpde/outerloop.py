"""The fixed-point construction: the solve map T and the iteration on it.

The map T freezes an iterate v inside the right-hand side g(superlevel
measure of v) and solves the resulting Dirichlet problem; the paper's
solution is a fixed point of T.  The paper smooths the measure over a value
window only to prove existence; T uses the plain measure.  Each step blends
T(v) into v with weight damping and, Anderson-mixed, also subtracts the
combination of the last few steps' secants that best cancels the current
gap (a multisecant quasi-Newton step on v - T(v); kept over all steps on a
linear map, it is GMRES).  A secant leaves only by ageing out of the last
few steps or in a stall: when the gap stagnates the damping halves, the
secants are dropped and the mixing goes on.  Each step costs one evaluation
of T.  The secants fit T on every grid: the 1-D measure is continuous in the
field, and for n >= 2 the counting measure jumps by a lattice orbit of cells
at a time, the size of the default gap tolerance, so above that gap T is
nearly smooth.

Two implementation details matter for reproducibility.  First, stopping is
measured on the full fixed-point gap ||T(v) - v||_inf, and the accepted
final iterate is the last inner output, ties snapped, whose residual against
the last forcing meets the inner tolerance.  Second, iterate values closer
together than a tiny snap width are consolidated to their cluster minimum
before T reads them, the starting iterate included: solver roundoff
otherwise splits the exact value ties that symmetric domains and constant
data produce, and the counting measure would order that noise.  The snap
width is a tiny fraction of the a-priori oscillation bound, capped so the
perturbation it makes to F(D^2 u) stays far below the inner tolerance.

One solve is a single logical thread of control (its inner solves vectorize
per node); independent solves share no mutable state and may run
concurrently, e.g. across the grids of a refinement study.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
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
from .geometry import BoundaryData, Grid
# Unused here; bench/spans.py traces the smoothed measure as outerloop.rhs_smoothed.
from .measure import ProfileFunction, ScalarField, rhs_plain, rhs_smoothed

__all__ = [
    "OuterConfig",
    "IterationRecord",
    "SolveReport",
    "solve_nonlocal",
    "plain_residual_parts",
]


# Iterate values closer than this fraction of the a-priori oscillation bound
# are one tie (subject to the cap in _snap_width).
_TIE_SNAP_REL = 1e-12
# Stagnation halves the damping down to this floor; a stall there ends the solve.
_DAMPING_FLOOR = 1e-3
# Each step fits the current gap by the secants of this many previous steps
# at most; 0 makes the steps damped Picard ones.
_ANDERSON_DEPTH = 2


@dataclass
class OuterConfig:
    """Controls the damped fixed-point iteration: each step blends the solve
    output into the iterate with weight damping and mixes in the secants of
    the previous steps; after four steps without the fixed-point gap falling
    by 0.1 % the damping halves (down to 1e-3) and the secants are dropped.
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
    """One step from the iterate v_k: the fixed-point gap and inner residual
    of T(v_k), the move to the next iterate v_{k+1} and the plain residual
    of v_{k+1}; after the last record v_{k+1} is the returned field."""

    k: int
    epsilon: float
    increment: float          # ||v_{k+1} - v_k||_inf, the realized update
    step_gap: float           # ||T(v_k) - v_k||_inf, the fixed-point gap
    inner_residual: float
    plain_residual: float


@dataclass
class SolveReport:
    """Append-only history plus final diagnostics of one nonlocal solve.

    ``final_increment`` (the report key ``final.increment``) is the last
    record's ``step_gap``, ||T(v) - v||_inf, the number that ``Converged``
    compares with ``outer_tol``; it is not that record's ``increment``.
    """

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
    if not grid.descriptor.spheres:
        return total, total, 0.0
    band = grid.distance_to_boundary(grid.interior_coords) <= 2 * grid.h
    band_res = float(np.max(r[band])) if np.any(band) else 0.0
    core_res = float(np.max(r[~band])) if np.any(~band) else 0.0
    return total, core_res, band_res


def _snapped(problem: DirichletProblem, g: ProfileFunction, snap: float,
             x: NDArray[np.float64]) -> tuple:
    """The iterate x with its ties snapped, as a field v, with its plain
    defect |F(D^2 v) - g(superlevel measure of v)| per node, its Hessian
    D(v) and its plain forcing, which the solve from v reuses.  The snap's
    sort is the iterate's only sort and serves its measure too; on a snapped
    iterate every positive value gap exceeds the snap, so the plain forcing
    is bitwise the smoothed right-hand side at width snap."""
    order = np.argsort(x)
    v = ScalarField(_snap_ties(x, snap, order), problem.trace)
    D = problem.hessian(v.interior)
    f = rhs_plain(v, g, order)
    return v, np.abs(problem.op.evaluate(D) - f), D, f


def _snap_width(grid: Grid, op: EllipticOperator, tol: float,
                scale: float) -> float:
    """Largest tie-consolidation width whose effect on F(D^2 u) stays under
    a quarter of the inner tolerance, given the stiffest stencil row."""
    d_max = float(np.max(grid.plan.stiffness))
    floor = 4.0 * np.finfo(np.float64).eps * scale
    return max(floor, min(_TIE_SNAP_REL * scale, tol / (4.0 * op.Lam * d_max)))


def solve_nonlocal(op: EllipticOperator, grid: Grid, g: ProfileFunction,
                   psi: BoundaryData,
                   cfg: OuterConfig | None = None) -> tuple[ScalarField, SolveReport]:
    """Full pipeline for F(D^2 u) = g(|superlevel set of u|), u = psi.

    Starts from the homogeneous solve F(D^2 v) = 0 with data psi, then runs
    damped, Anderson-mixed fixed-point steps of the plain map (undamped when
    g is constant), whose secants are kept until the gap stalls.  The
    returned report certifies what was actually measured on the returned
    field; status is Converged only when the final fixed-point gap and inner
    residual are below their tolerances, and an inner solve that fails
    inside the loop ends it with status InnerFailure.  Uniqueness is not
    claimed; every solve starts from the homogeneous solve, so reruns reach
    the same fixed point.

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
    psi_bound = float(np.max(np.abs(problem.trace.values), initial=0.0))
    forcing_bound = float(np.max(torsion.interior)) * g.abs_bound() / op.lam
    report.bound_limit = psi_bound + forcing_bound + 1e-9
    snap = _snap_width(grid, op, problem.tol, v.osc() + forcing_bound)
    report.tie_snap = snap

    # Each iterate is sorted once, for the tie snap, and its Hessian D and
    # plain forcing f serve both its residual and the step from it.
    v, r, D, f = _snapped(problem, g, snap, v.interior)
    x = v.interior
    best_gap = math.inf
    no_progress = 0
    # The secants: iterate changes dX and the matching gap changes dF.
    dX: deque[NDArray[np.float64]] = deque(maxlen=_ANDERSON_DEPTH)
    dF: deque[NDArray[np.float64]] = deque(maxlen=_ANDERSON_DEPTH)
    t_start = time.perf_counter()
    for k in range(cfg.max_outer_iterations):
        try:
            u, inner_res = problem.solve(f, v, D)
        except NonConvergenceError as err:
            report.status = "InnerFailure"
            report.notes.append(f"inner solve failed: {err}")
            break
        y = u.interior
        gap_vec = y - x
        step_gap = float(np.max(np.abs(gap_vec)))
        done = step_gap <= outer_tol
        # Accept the undamped solve output at the end; the final field is
        # that output with its ties snapped.
        if not done:
            if k:
                dX.append(x - x_prev)
                dF.append(gap_vec - gap_prev)
            x_prev, gap_prev = x, gap_vec
            y = (1.0 - theta) * x + theta * y
            if dF:
                A = np.column_stack(dF)
                gamma = np.linalg.lstsq(A, gap_vec, rcond=None)[0]
                y -= (np.column_stack(dX) + theta * A) @ gamma
        v, r, D, f = _snapped(problem, g, snap, y)
        y = v.interior
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
                report.notes.append(
                    f"gap stagnated at {best_gap:.3e}; damping -> {theta / 2:g}")
                # The stall is measured afresh, with fresh secants.
                no_progress, theta, best_gap = 0, theta / 2, math.inf
                dX.clear()
                dF.clear()
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
    return v, report
