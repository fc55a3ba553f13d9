"""Closed-form ball solutions and the diagnostics they support.

The radial profile amplitude/(r^(n+2) - |x - x0|^(n+2)) solves the g(t) = -t,
zero-data problem on a ball for the Laplacian, and its 1/Lam (1/lam) rescaling
solves it for the minimal (maximal) extremal operator.  These closed forms
feed the benchmark comparisons, the boundary-barrier construction with its
gradient constant omega_n eps0^(n+1) / (2 n Lam), the flat-region exclusion
scan, and the refinement study, whose problem is the closed form itself.
The barrier is placed in tangent balls along each of the domain's spheres
(``descriptor.spheres``), so it runs on balls and annuli alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .elliptic import EllipticOperator
from .errors import InvalidParameterError, PreconditionError
from .geometry import BoundaryData, Grid, build_ball, domain_measure
from .measure import ProfileFunction, ScalarField, superlevel_measures
from .outerloop import OuterConfig, solve_nonlocal

__all__ = [
    "BallSolution",
    "BarrierPoint",
    "BarrierReport",
    "FlatRegionReport",
    "StudyProblem",
    "StudyRow",
    "unit_ball_volume",
    "exact_ball_solution",
    "barrier_gradient_constant",
    "barrier_comparison_check",
    "flat_region_detector",
    "boundary_gradient_min",
    "convergence_order_study",
]

_UNIT_BALL_VOLUMES = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_ball_volume(n: int) -> float:
    """Measure of the n-dimensional unit ball, exact for n in {1, 2, 3}."""
    try:
        return _UNIT_BALL_VOLUMES[int(n)]
    except KeyError:
        raise InvalidParameterError(f"unsupported dimension {n}") from None


@dataclass(frozen=True)
class BallSolution:
    """Radial solution of the zero-data, g(t) = -t problem on a ball: the
    closed form that the ball benchmarks and the refinement study check.

    For the minimal extremal operator the Laplacian solution scaled by 1/Lam
    solves the same problem (1/lam for the maximal one): the Hessian is
    negative semidefinite, so the extremal operator degenerates to a multiple
    of the trace.  The radius must be positive and finite and the center
    must have 1 to 3 coordinates; the dimension n is its length.
    """

    center: tuple[float, ...]
    radius: float
    op: EllipticOperator

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise InvalidParameterError("radius must be positive and finite")
        unit_ball_volume(self.n)

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def scale(self) -> float:
        return 1.0 / (self.op.lam if self.op.kind == "pucci_plus" else self.op.Lam)

    @property
    def amplitude(self) -> float:
        n = self.n
        return self.scale * unit_ball_volume(n) / (2.0 * n * (n + 2))

    def value(self, points) -> NDArray[np.float64]:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self.radial_value(np.linalg.norm(pts - np.asarray(self.center), axis=1))

    def radial_value(self, s) -> NDArray[np.float64]:
        """The value at distance s from the center."""
        s = np.asarray(s, dtype=np.float64)
        m = self.n + 2
        return self.amplitude * (self.radius ** m - s ** m)

    def radial_slope(self, s) -> NDArray[np.float64]:
        """d(value)/d|x - center|; negative away from the center."""
        s = np.asarray(s, dtype=np.float64)
        return -self.amplitude * (self.n + 2) * s ** (self.n + 1)

    def boundary_gradient(self) -> float:
        """|gradient| on the sphere: scale * omega_n r^(n+1) / (2n)."""
        return float(-self.radial_slope(np.array(self.radius)))

    def sample(self, grid: Grid) -> ScalarField:
        """The closed form on a grid, with its own trace (zero on the sphere)."""
        return ScalarField.sample(grid, self.value)


def exact_ball_solution(center: Sequence[float], r: float, n: int,
                        op: EllipticOperator) -> BallSolution:
    center = tuple(float(c) for c in center)
    if len(center) != n:
        raise InvalidParameterError("center dimension does not match n")
    return BallSolution(center, float(r), op)


def barrier_gradient_constant(eps0: float, n: int, Lam: float) -> float:
    """omega_n * eps0^(n+1) / (2 n Lam): the boundary gradient lower bound
    delivered by the tangent-ball barrier of radius eps0."""
    if not eps0 > 0:
        raise InvalidParameterError("eps0 must be positive")
    if not Lam > 0:
        raise InvalidParameterError("Lam must be positive")
    return unit_ball_volume(n) * eps0 ** (n + 1) / (2.0 * n * Lam)


# ---------------------------------------------------------------------------
# Gradient diagnostics


def _gradient_magnitude(u: ScalarField) -> NDArray[np.float64]:
    """Central-difference gradient magnitude, offset-aware near boundaries."""
    grid = u.grid
    plan = grid.plan
    x = np.concatenate((u.interior, u.trace.values))
    total = np.zeros(grid.n_interior, dtype=np.float64)
    for a in range(grid.n):
        tp, tm = plan.theta[(a, +1)], plan.theta[(a, -1)]
        da = (x[plan.src[(a, +1)]] - x[plan.src[(a, -1)]]) / ((tp + tm) * grid.h)
        total += da * da
    return np.sqrt(total)


def boundary_gradient_min(u: ScalarField, band: float) -> float:
    """Minimum gradient magnitude over interior nodes within ``band`` of the
    boundary; the quantity the barrier bound c0 controls.  Every grid has an
    interior node within h of the boundary, so a band of 2h holds one."""
    grid = u.grid
    if not band >= 2 * grid.h:
        raise InvalidParameterError("band must be at least 2h")
    if band == math.inf:
        raise InvalidParameterError("band must be finite")
    mag = _gradient_magnitude(u)
    dist = grid.distance_to_boundary(grid.interior_coords)
    return float(np.min(mag[dist <= band]))


# ---------------------------------------------------------------------------
# Flat-region exclusion


@dataclass
class FlatRegionReport:
    """Mass of near-flat level sets: measure of {|u - a| <= delta} per level."""

    delta: float
    levels: NDArray[np.float64] = dc_field(repr=False)
    masses: NDArray[np.float64] = dc_field(repr=False)
    max_mass: float = 0.0
    max_level: float = 0.0

    def top(self, k: int = 5) -> list[tuple[float, float]]:
        order = np.argsort(self.masses)[::-1][:k]
        return [(float(self.levels[i]), float(self.masses[i])) for i in order]


def flat_region_detector(u: ScalarField, delta: float) -> FlatRegionReport:
    """Scan node values as candidate levels and report near-flat mass.

    A genuine plateau of M nodes at level a reports at least M h^n at a.  For
    solutions with a strictly negative profile the mass must vanish as delta
    and h do; the acceptance threshold is calibrated on the sampled closed
    form.
    """
    if not 0 < delta < math.inf:
        raise InvalidParameterError("delta must be positive and finite")
    asc = np.sort(u.interior)
    levels = np.unique(asc)
    lo = np.searchsorted(asc, levels - delta, side="left")
    hi = np.searchsorted(asc, levels + delta, side="right")
    masses = u.grid.cell * (hi - lo)
    imax = int(np.argmax(masses))
    return FlatRegionReport(
        delta=float(delta),
        levels=levels,
        masses=masses,
        max_mass=float(masses[imax]),
        max_level=float(levels[imax]),
    )


# ---------------------------------------------------------------------------
# Barrier comparison


def _sample_directions(n: int) -> NDArray[np.float64]:
    """Equispaced probe directions: 2 in 1-D, 8 in 2-D, 26 in 3-D."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = 2.0 * math.pi * np.arange(8) / 8.0
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = np.array([v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)],
                    dtype=np.float64)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


# Probes per vectorized pass: the pass holds a few (probes, N) arrays.
_PROBES_PER_PASS = 4


@dataclass
class BarrierPoint:
    boundary_point: tuple[float, ...]
    ball_center: tuple[float, ...]
    n_nodes: int
    min_slack: float        # min (u - barrier) over nodes in the tangent ball
    ok: bool
    measure_ok: bool        # superlevel measure >= |Omega|/2 on those nodes


@dataclass
class BarrierReport:
    eps0: float
    c0: float
    tol: float
    height: float           # the barrier's value at its tangent ball's center
    band: float
    min_grad_band: float
    points: list[BarrierPoint] = dc_field(default_factory=list)

    @property
    def empty_probes(self) -> int:
        """The probes whose tangent ball holds no node: they test nothing."""
        return sum(p.n_nodes == 0 for p in self.points)

    @property
    def passed(self) -> bool:
        """Every probe is within tol, and some probe holds a node."""
        return self.empty_probes < len(self.points) and all(p.ok for p in self.points)

    @property
    def hypothesis_ok(self) -> bool:
        return all(p.measure_ok for p in self.points)

    @property
    def vacuous(self) -> bool:
        """tol reaches the barrier's height, so an all-zero field passes."""
        return self.tol >= self.height


def barrier_comparison_check(u: ScalarField, eps0: float | None = None,
                             op: EllipticOperator | None = None) -> BarrierReport:
    """Compare the solution against the tangent-ball barrier at boundary
    probes and report the boundary-band gradient floor.

    A probe is a direction from ``_sample_directions`` on each of the
    domain's spheres (``descriptor.spheres``), radius r and side +-1, and
    its tangent ball of radius eps0 is centred at radius r + side eps0.  It
    reports the nodes in that ball, their least slack u - barrier (+inf in
    a ball that holds no node) and whether each has superlevel measure at
    least |Omega|/2.  The largest tangent ball has radius sum(-side r) over
    the spheres divided by their number: R on a ball, (r_out - r_in)/2 on
    an annulus.  eps0 defaults to half that, and a probe passes when its
    slack is at least -tol, with tol = 1e-9 + 10 h^2.  The report counts
    the empty balls, and does not pass when every ball is empty.
    ``_PROBES_PER_PASS`` probes share one pass over their (probe, node)
    distances, which are summed axis by axis as ``np.linalg.norm`` sums
    them.

    Preconditions (PreconditionError, not a failed comparison): the domain
    has spheres (a uniform inner ball condition), the tangent ball fits,
    and its volume is at most half the discrete domain measure.  The caller
    asserts that u solves the zero-data problem with g(t) = -t.
    """
    grid = u.grid
    spheres = grid.descriptor.spheres
    if not spheres:
        raise PreconditionError(
            "barrier comparison needs a uniform inner ball condition "
            "(ball or annulus grid)"
        )
    max_fit = sum(-side * r for r, side in spheres) / len(spheres)
    if eps0 is None:
        eps0 = max_fit / 2
    if not eps0 > 0:
        raise InvalidParameterError("eps0 must be positive")
    op = op or EllipticOperator.laplacian()
    n = grid.n
    omega = unit_ball_volume(n)
    half = 0.5 * domain_measure(grid)
    if omega * eps0 ** n > half:
        raise PreconditionError(
            f"|B_eps0| = {omega * eps0 ** n:.6g} exceeds half the domain "
            f"measure {half:.6g}"
        )
    center = np.asarray(grid.descriptor.center, dtype=np.float64)
    if eps0 > max_fit:
        raise PreconditionError(
            f"tangent ball of radius {eps0} does not fit inside the domain"
        )
    tol = 1e-9 + 10.0 * grid.h ** 2

    # The comparison barrier is the minimal-operator solution scaled by
    # 1/Lam; for the Laplacian Lam = 1 it is the solution itself.
    barrier_op = EllipticOperator.pucci_minus(op.lam, op.Lam)
    c0 = barrier_gradient_constant(eps0, n, op.Lam)
    mu = superlevel_measures(u)
    uin, coords = u.interior, grid.interior_coords

    # Every tangent ball carries the same radial barrier about its center.
    barrier = exact_ball_solution(tuple(center), eps0, n, barrier_op)
    dirs = _sample_directions(n)
    ys = np.concatenate([center + radius * dirs for radius, _ in spheres])
    cbs = np.concatenate([center + (radius + inward * eps0) * dirs
                          for radius, inward in spheres])
    P = len(cbs)
    n_nodes = np.zeros(P, dtype=np.int64)
    min_slack = np.full(P, math.inf)
    n_short = np.zeros(P, dtype=np.int64)  # nodes whose superlevel measure is short
    for lo in range(0, P, _PROBES_PER_PASS):
        cb = cbs[lo:lo + _PROBES_PER_PASS]
        # |x - cb|, its squares summed axis by axis as np.linalg.norm sums them.
        dist = (coords[:, 0] - cb[:, :1]) ** 2
        for k in range(1, n):
            dist += (coords[:, k] - cb[:, k:k + 1]) ** 2
        np.sqrt(dist, out=dist)
        probe, node = np.nonzero(dist < eps0)
        slack = uin[node] - barrier.radial_value(dist[probe, node])
        probe += lo
        n_nodes += np.bincount(probe, minlength=P)
        np.minimum.at(min_slack, probe, slack)
        n_short += np.bincount(probe[~(mu[node] >= half - grid.cell)], minlength=P)
    points = [BarrierPoint(boundary_point=tuple(y), ball_center=tuple(cb),
                           n_nodes=k, min_slack=m, ok=m >= -tol, measure_ok=short == 0)
              for y, cb, k, m, short in zip(ys.tolist(), cbs.tolist(), n_nodes.tolist(),
                                            min_slack.tolist(), n_short.tolist())]

    band = max(2 * grid.h, 0.5 * eps0)
    return BarrierReport(
        eps0=float(eps0),
        c0=c0,
        tol=tol,
        height=float(barrier.radial_value(0.0)),
        band=float(band),
        min_grad_band=boundary_gradient_min(u, band),
        points=points,
    )


# ---------------------------------------------------------------------------
# Refinement study


# The refinement study's problem is the closed form it checks against.
StudyProblem = BallSolution


@dataclass
class StudyRow:
    h: float
    n_interior: int
    error: float
    order: float | None
    status: str


def convergence_order_study(problem: StudyProblem, h_list: Sequence[float],
                            cfg: OuterConfig | None = None) -> list[StudyRow]:
    """Solve at each spacing, compare with the closed form, report orders.

    The observed order between consecutive rows is log(e_prev/e) / log(h_prev/h).
    Solver failures are recorded in the row status (and surface as exit 2 at
    the command line).  A spacing listed twice is rejected before any
    solve: two equal consecutive spacings have no order.
    """
    repeated = [h for k, h in enumerate(h_list) if h in h_list[:k]]
    if repeated:
        raise InvalidParameterError(f"spacing {repeated[0]} is listed twice")
    rows: list[StudyRow] = []
    prev: tuple[float, float] | None = None
    for h in h_list:
        grid = build_ball(problem.center, problem.radius, h)
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
        u, rep = solve_nonlocal(problem.op, grid, g, BoundaryData.zero(), cfg)
        err = float(np.max(np.abs(u.interior - problem.value(grid.interior_coords))))
        order = None
        if prev is not None and err > 0 and prev[1] > 0:
            order = math.log(prev[1] / err) / math.log(prev[0] / h)
        rows.append(StudyRow(h=float(h), n_interior=grid.n_interior,
                             error=err, order=order, status=rep.status))
        prev = (float(h), err)
    return rows
