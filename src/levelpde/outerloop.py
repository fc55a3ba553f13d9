"""The fixed-point construction: freeze, solve, damp, drive epsilon to zero.

One step of the map: freeze the iterate v inside the smoothed right-hand side
g(window average of superlevel measures), solve the resulting Dirichlet
problem, and blend the solution with v.  Stages of decreasing smoothing width
epsilon are run until the width is negligible and the fixed-point gap stalls
below the outer tolerance; the first middle stage that stalls ends the ladder
and hands over to the final stage.  On 1-D grids the right-hand side does not
depend on epsilon, and only the final stage is run.

Two implementation details matter for reproducibility.  First, stopping is
measured on the full fixed-point gap ||T(v) - v||_inf; the damped update is
exactly damping times that gap, and the accepted final iterate is the inner
solve output itself, so the returned field carries the inner solver's own
residual certificate.  Second, iterate values closer together than a tiny
snap width are consolidated to their cluster minimum after each step: solver
roundoff otherwise splits the exact value ties that symmetric domains
produce, which would leave spurious one-cell gaps between the smoothed and
plain right-hand sides at those nodes.  The snap width is capped so the
perturbation it makes to F(D^2 u) stays far below the inner tolerance.

One solve is a single logical thread of control (its inner solves vectorize
per node); independent solves share no mutable state and may run
concurrently, e.g. across the grids of a refinement study.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.typing import NDArray

from .elliptic import (
    DirichletProblem,
    EllipticOperator,
    InnerSolveConfig,
    apply_operator,
    solve_dirichlet,
)
from .errors import InvalidParameterError, NonConvergenceError
from .geometry import BoundaryData, BoxDescriptor, Grid
from .measure import LevelStats, ProfileFunction, ScalarField, rhs_plain, rhs_smoothed

__all__ = [
    "OuterConfig",
    "IterationRecord",
    "SolveReport",
    "fixed_point_step",
    "solve_nonlocal",
    "plain_residual",
    "plain_residual_parts",
]


@dataclass
class OuterConfig:
    """Controls the damped fixed-point iteration and the epsilon schedule.

    Defaults: eps0 = osc(initial guess)/4, eps_min = 1e-6 * osc, geometric
    ratio rho = 0.5, damping 0.5.  Non-final stages stop once the fixed-point
    gap falls under max(stagnation_tol, stage_frac * eps), and the first one
    that stalls ends the ladder.  The final stage must reach outer_tol; only
    it halves the damping on stagnation, down to damping_floor.
    """

    eps0: float | None = None
    rho: float = 0.5
    eps_min: float | None = None
    damping: float = 0.5
    # None: max(1e-8, 0.05 * cell * max|g'|).  The superlevel measure is
    # quantized in whole cells, so the solve map jumps by about the response
    # to a one-cell flip of the forcing; no iterate can certify a gap below
    # that scale and the default does not ask for one.
    outer_tol: float | None = None
    stagnation_tol: float = 1e-9
    stage_frac: float = 0.05
    max_outer_iterations: int = 4000
    stage_max_iterations: int = 400
    damping_floor: float = 1e-3
    tie_snap_rel: float = 1e-12
    inner: InnerSolveConfig = dc_field(default_factory=InnerSolveConfig)

    def __post_init__(self):
        if not (0 < self.rho < 1):
            raise InvalidParameterError("rho must lie in (0, 1)")
        if not (0 < self.damping <= 1):
            raise InvalidParameterError("damping must lie in (0, 1]")
        if self.outer_tol is not None and not self.outer_tol > 0:
            raise InvalidParameterError("outer_tol must be positive")
        for name in ("stagnation_tol", "stage_frac"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.eps0 is not None and not self.eps0 > 0:
            raise InvalidParameterError("eps0 must be positive")
        if self.eps_min is not None and not self.eps_min > 0:
            raise InvalidParameterError("eps_min must be positive")
        if (self.eps0 is not None and self.eps_min is not None
                and self.eps_min > self.eps0):
            raise InvalidParameterError("need eps_min <= eps0")
        if self.max_outer_iterations < 1:
            raise InvalidParameterError("max_outer_iterations must be at least 1")
        if self.stage_max_iterations < 1:
            raise InvalidParameterError("stage_max_iterations must be at least 1")
        if not (0 < self.damping_floor <= self.damping):
            raise InvalidParameterError("need 0 < damping_floor <= damping")
        if self.tie_snap_rel < 0:
            raise InvalidParameterError("tie_snap_rel must be nonnegative")


@dataclass
class IterationRecord:
    k: int
    epsilon: float
    increment: float          # ||v_{k+1} - v_k||_inf, the realized update
    step_gap: float           # ||T(v_k) - v_k||_inf, the fixed-point gap
    inner_residual: float
    plain_residual: float
    lip_increment: float      # Lipschitz seminorm of the realized update


@dataclass
class SolveReport:
    """Append-only history plus final diagnostics of one nonlocal solve."""

    status: str = "MaxIterations"
    records: list[IterationRecord] = dc_field(default_factory=list)
    eps0: float = 0.0
    eps_min: float = 0.0
    rho: float = 0.5
    damping: float = 0.5
    outer_tol: float = 0.0
    initial_policy: str = "HomogeneousSolve"
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
    # Wall-clock per epsilon stage; volatile, excluded from serialized reports.
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


def _lip_seminorm(grid: Grid, delta: NDArray[np.float64]) -> float:
    """max |delta_i - delta_j| / h over interior lattice edges."""
    plan = grid.plan
    best = 0.0
    for a in range(grid.n):
        nbr = plan.nbr[(a, +1)]
        m = nbr >= 0
        if np.any(m):
            d = np.abs(delta[m] - delta[nbr[m]]) / grid.h
            best = max(best, float(np.max(d)))
    return best


def plain_residual_parts(u: ScalarField, op: EllipticOperator, grid: Grid,
                         g: ProfileFunction) -> tuple[float, float, float]:
    """(total, core, band) max-norm defect of the unsmoothed equation.

    The band is the strip within 2h of a curved boundary, where the mixed
    stencil falls back to first order; boxes have no such strip.
    """
    r = np.abs(apply_operator(op, u, grid).interior - rhs_plain(u, grid, g).interior)
    return _split_defect(r, grid)


def _split_defect(r: NDArray[np.float64], grid: Grid) -> tuple[float, float, float]:
    total = float(np.max(r))
    if isinstance(grid.descriptor, BoxDescriptor):
        return total, total, 0.0
    band = grid.distance_to_boundary(grid.interior_coords) <= 2 * grid.h
    band_res = float(np.max(r[band])) if np.any(band) else 0.0
    core_res = float(np.max(r[~band])) if np.any(~band) else 0.0
    return total, core_res, band_res


def plain_residual(u: ScalarField, op: EllipticOperator, grid: Grid,
                   g: ProfileFunction) -> float:
    """Max-norm defect ||F(D^2 u) - g(superlevel measure of u)||_inf."""
    return plain_residual_parts(u, op, grid, g)[0]


def _plain_defect(problem: DirichletProblem, v: ScalarField, g: ProfileFunction,
                  order: NDArray[np.intp] | None = None) -> tuple:
    """|F(D^2 v) - g(superlevel measure of v)| per node, with the Hessian
    D(v) and the level statistics of v (sorted by ``order``) that the step
    from v reuses."""
    grid, D = problem.grid, problem.hessian(v.interior)
    stats = LevelStats.from_field(v, grid, order)
    f = rhs_plain(v, grid, g, stats).interior
    return np.abs(problem.op.evaluate(D) - f), D, stats


def _one_step(problem: DirichletProblem, v: ScalarField, eps: float,
              theta: float, g: ProfileFunction,
              D: NDArray[np.float64] | None = None,
              stats: LevelStats | None = None) -> tuple:
    """(T(v), its inner residual, damped blend); D and stats of v, when
    known, save a Hessian and a measure.  Propagates inner non-convergence."""
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    if not (0 < theta <= 1):
        raise InvalidParameterError("damping must lie in (0, 1]")
    f = rhs_smoothed(v, problem.grid, g, eps, stats)
    u, res = problem.solve(f, v, D)
    w = u.with_interior((1.0 - theta) * v.interior + theta * u.interior)
    return u, res, w


def fixed_point_step(v: ScalarField, eps: float, theta: float,
                     op: EllipticOperator, grid: Grid, g: ProfileFunction,
                     psi: BoundaryData,
                     inner: InnerSolveConfig | None = None) -> ScalarField:
    """One damped application of the frozen-and-smoothed solve map.

    With theta = 1 this is exactly T(v): solve F(D^2 u) = g(smoothed
    superlevel average of v) with data psi.
    """
    return _one_step(DirichletProblem(op, grid, psi, inner), v, eps, theta, g)[2]


def _epsilon_schedule(eps0: float, rho: float, eps_min: float) -> list[float]:
    out = [eps0]
    while out[-1] > eps_min:
        out.append(out[-1] * rho)
    return out


def _snap_width(cfg: OuterConfig, grid: Grid, op: EllipticOperator,
                scale: float) -> float:
    """Largest tie-consolidation width whose effect on F(D^2 u) stays under
    a quarter of the inner tolerance, given the stiffest stencil row."""
    tol = cfg.inner.resolved_tol(op)
    d_max = float(np.max(grid.stencil.stiffness))
    floor = 4.0 * np.finfo(np.float64).eps * max(scale, 1e-300)
    return max(floor, min(cfg.tie_snap_rel * scale, tol / (4.0 * op.Lam * d_max)))


def solve_nonlocal(op: EllipticOperator, grid: Grid, g: ProfileFunction,
                   psi: BoundaryData,
                   cfg: OuterConfig | None = None) -> tuple[ScalarField, SolveReport]:
    """Full pipeline for F(D^2 u) = g(|superlevel set of u|), u = psi.

    Starts from the homogeneous solve F(D^2 v) = 0 with data psi, then runs
    damped fixed-point steps under a shrinking smoothing width.  The returned
    report certifies what was actually measured on the returned field; status
    is Converged only when the final fixed-point gap and inner residual are
    below their tolerances.  Uniqueness is not claimed; the initial-guess
    policy is recorded so distinct fixed points are attributable.
    """
    cfg = cfg or OuterConfig()
    inner = cfg.inner
    report = SolveReport(rho=cfg.rho, damping=cfg.damping)

    # Each iterate is sorted once, for the tie snap; that order, its Hessian D
    # and its measure serve its plain residual and the step from it.
    problem = DirichletProblem(op, grid, psi, inner)
    v = problem.solve(0.0)[0]
    r, D, stats = _plain_defect(problem, v, g)
    osc_ref = v.osc()
    if cfg.eps0 is None and osc_ref <= 64 * np.finfo(np.float64).eps * float(
            np.max(np.abs(v.interior))):
        # psi-induced oscillation is rounding (a constant psi makes v0
        # constant); probe one full step to scale the smoothing from g.
        try:
            u1 = _one_step(problem, v, 1.0, 1.0, g, D, stats)[0]
        except NonConvergenceError as err:
            report.status = "InnerFailure"
            report.notes.append(f"inner solve failed: {err}")
            return v, report
        osc_ref = max(u1.osc(),
                      float(np.max(np.abs(u1.interior - v.interior))))
        report.notes.append("eps0 scaled from a probing step (osc(v0) = 0)")

    eps0 = cfg.eps0 if cfg.eps0 is not None else osc_ref / 4.0
    eps_min = cfg.eps_min if cfg.eps_min is not None else 1e-6 * osc_ref
    if eps0 <= 0:
        eps0 = 1.0
        report.notes.append("degenerate data (zero oscillation); nominal schedule")
    if eps_min <= 0:
        eps_min = eps0 * cfg.rho
    eps_min = min(eps_min, eps0)
    report.eps0, report.eps_min = eps0, eps_min

    # Default gap tolerance: the smallest forcing jump is one cell of measure
    # through g, and lattice symmetry flips whole value orbits at once (orbit
    # size 2^n n!), so the certifiable gap scales with both.
    if cfg.outer_tol is not None:
        outer_tol = cfg.outer_tol
    else:
        orbit = 2 ** grid.n * math.factorial(grid.n)
        outer_tol = max(1e-8, 0.00625 * orbit * grid.cell * g.max_slope())
    report.outer_tol = outer_tol

    snap = _snap_width(cfg, grid, op, max(osc_ref, 1e-12))
    report.tie_snap = snap

    # Empirical boundedness guard in the spirit of the a-priori sup bound:
    # iterates must stay below max|psi| + C_domain * max|g| / lam, with
    # C_domain the sup of the domain's torsion function.
    torsion = solve_dirichlet(EllipticOperator.laplacian(), grid, -1.0,
                              BoundaryData.zero(), InnerSolveConfig())
    psi_bound = 0.0
    if v.trace is not None:
        b = v.trace.all_values()
        if b.size:
            psi_bound = float(np.max(np.abs(b)))
    c_abp = float(np.max(torsion.interior))
    report.bound_limit = psi_bound + c_abp * g.abs_bound() / op.lam + 1e-9

    schedule = _epsilon_schedule(eps0, cfg.rho, eps_min)
    # Final collapse stage: at a width equal to the tie-snap the smoothed
    # right-hand side agrees bitwise with the plain one on snapped iterates
    # (every positive value gap exceeds the snap), so the last stage iterates
    # the plain map, whose dependence on the iterate is order-only and which
    # therefore converges geometrically once the value ordering stabilizes.
    if snap > 0 and snap < schedule[-1]:
        schedule.append(snap)
    if grid.n == 1:
        # In 1-D rhs_smoothed is rhs_plain for every eps, so every stage
        # iterates the same map.  Each extra stage would only end on one more
        # undamped step, and that map multiplies any asymmetry about the
        # maximum by about -11; from rounding level this scrambles the top
        # of the solution within a dozen stages.  Run the final stage alone.
        schedule = schedule[-1:]
        report.eps0 = report.eps_min = schedule[0]
    k = 0
    failed = False
    ladder_ended = False

    for stage_idx, eps in enumerate(schedule):
        last = stage_idx == len(schedule) - 1
        if ladder_ended and not last:
            continue
        stage_tol = outer_tol if last else max(cfg.stagnation_tol,
                                                   cfg.stage_frac * eps)
        t_stage = time.perf_counter()
        stage_done = False
        stage_iters = 0
        best_gap = math.inf
        no_progress = 0
        # The smoothed map's Lipschitz constant blows up like 1/eps at
        # near-tied value clusters, so mid-schedule stages need not be
        # contractive at all.  A stalled middle stage ends the ladder (smaller
        # eps stalled too in every run measured); the collapse stage finishes.
        theta = cfg.damping
        skipped = False
        while not stage_done and not failed and not skipped:
            if k >= cfg.max_outer_iterations:
                report.notes.append("outer iteration budget exhausted")
                report.status = "MaxIterations"
                failed = True
                break
            if stage_iters >= cfg.stage_max_iterations:
                if last:
                    report.notes.append("final stage exhausted its iteration budget")
                    report.status = "MaxIterations"
                    failed = True
                else:
                    skipped = True
                break
            try:
                u, inner_res, w = _one_step(problem, v, eps, theta, g, D, stats)
            except NonConvergenceError as err:
                report.status = "InnerFailure"
                report.notes.append(f"inner solve failed: {err}")
                failed = True
                break
            step_gap = float(np.max(np.abs(u.interior - v.interior)))
            stage_done = step_gap <= stage_tol
            # Accept the undamped solve output when the stage finishes, so
            # the final field is an inner-solve output with its certificate.
            nxt = u if stage_done else w
            order = np.argsort(nxt.interior)
            nxt = nxt.with_interior(_snap_ties(nxt.interior, snap, order))
            r, D, stats = _plain_defect(problem, nxt, g, order)
            report.records.append(IterationRecord(
                k=k,
                epsilon=eps,
                increment=float(np.max(np.abs(nxt.interior - v.interior))),
                step_gap=step_gap,
                inner_residual=inner_res,
                plain_residual=float(np.max(r)),
                lip_increment=_lip_seminorm(grid, nxt.interior - v.interior),
            ))
            v = nxt
            k += 1
            stage_iters += 1
            if step_gap < 0.999 * best_gap:
                best_gap = step_gap
                no_progress = 0
            elif not stage_done:
                no_progress += 1
                if no_progress >= 4:
                    no_progress = 0
                    if not last:
                        skipped = True
                    elif theta / 2 >= cfg.damping_floor:
                        theta /= 2
                        report.notes.append(
                            f"gap stagnated at eps={eps:.3e}; damping -> {theta:g}"
                        )
                    else:
                        report.notes.append(
                            "final stage stalled at the damping floor"
                        )
                        report.status = "MaxIterations"
                        failed = True
                        break
            sup = float(np.max(np.abs(v.interior)))
            report.bound_max_observed = max(report.bound_max_observed, sup)
            if sup > report.bound_limit:
                report.status = "InnerFailure"
                report.notes.append(
                    f"boundedness violated: sup |v| = {sup:.6e} exceeds "
                    f"{report.bound_limit:.6e}"
                )
                failed = True
        if skipped:
            report.notes.append(
                f"stage eps={eps:.3e} skipped after stagnation (gap {best_gap:.3e})"
            )
            ladder_ended = True
        report.stage_seconds.append((eps, time.perf_counter() - t_stage))
        if failed:
            break
        if last and stage_done:
            report.status = "Converged"

    report.total_iterations = k
    if report.records:
        report.final_increment = report.records[-1].step_gap
        report.final_inner_residual = report.records[-1].inner_residual
    tot, core, band = _split_defect(r, grid)
    report.final_plain_residual = tot
    report.final_plain_residual_core = core
    report.final_plain_residual_band = band

    # Status must certify the tolerances it claims.
    if report.status == "Converged":
        tol_inner = inner.resolved_tol(op)
        if not (report.final_increment <= outer_tol
                and report.final_inner_residual <= tol_inner):
            report.status = "MaxIterations"
            report.notes.append("final tolerances not certified")
    return v, report
