"""Superlevel-set measures, their epsilon-averaged smoothing, and profiles.

The solver iterates the plain right-hand side ``rhs_plain``; the smoothing
is the regularization of the existence proof, kept as ``rhs_smoothed``.
A ``ScalarField`` carries an iterate or a sampled field with its grid and
trace; the measures and right-hand sides of a field are node data and come
back as (n_interior,) vectors.

Everything here is exact: no quadrature, no tolerance knobs.  On grids with
n >= 2 the superlevel measure of a node is the cell measure times the number
of interior values at least as large, and the smoothed variant integrates the
resulting step function in closed form; ``superlevel_measures`` and
``smoothed_superlevel_average`` are these counting measures in every
dimension.  On 1-D grids the right-hand side instead measures the superlevel
sets of the piecewise-linear interpolant through the values and the boundary
trace, averaged over each node's cell: the closed count would give the tie
pair at +-|x| of a symmetric field two full cells and bias the solution by
O(h), while the interpolant's measure is continuous in the field and leaves
an O(h^2) error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError
from .geometry import EXTERIOR, BoundaryData, BoundaryTrace, Grid, build_trace

__all__ = [
    "ScalarField",
    "ProfileFunction",
    "StepFunction",
    "superlevel_measures",
    "smoothed_superlevel_average",
    "rhs_plain",
    "rhs_smoothed",
    "increasing_rearrangement",
]


class ScalarField:
    """One value per grid node; the carrier for iterates and sampled fields.

    ``values`` spans the full lattice with NaN at Exterior nodes; Interior
    values are always finite, Boundary lattice values are stored when a solve
    or sampler provides them.  ``trace`` optionally carries Dirichlet values
    at the off-lattice boundary crossings so difference operators can be
    applied near curved boundaries; it must belong to the field's grid.
    """

    def __init__(self, grid: Grid, values: NDArray[np.float64],
                 trace: BoundaryTrace | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise InvalidParameterError(
                f"field shape {values.shape} does not match grid {grid.shape}"
            )
        if trace is not None and not trace.grid.matches(grid):
            raise InvalidParameterError("trace belongs to a different grid")
        self.grid = grid
        self.values = values
        self.trace = trace

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_interior(cls, grid: Grid, interior: NDArray[np.float64],
                      trace: BoundaryTrace | None = None) -> "ScalarField":
        interior = np.asarray(interior, dtype=np.float64)
        if interior.shape != (grid.n_interior,):
            raise InvalidParameterError("interior vector has wrong length")
        vals = np.full(grid.shape, np.nan, dtype=np.float64)
        vals.ravel()[grid.interior_flat] = interior
        return cls(grid, vals, trace)

    @classmethod
    def sample(cls, grid: Grid, fn: Callable[[NDArray[np.float64]], object],
               boundary: BoundaryData | None = None) -> "ScalarField":
        """Sample a function of position on the lattice, with its trace.

        When ``boundary`` is omitted the same function provides the Dirichlet
        values at boundary intersection points, which is what sampled exact
        solutions want.
        """
        sampled = BoundaryData.from_callable(fn)
        vals = np.full(grid.shape, np.nan, dtype=np.float64)
        mask = grid.node_class != EXTERIOR
        idx = np.nonzero(mask)
        pts = np.stack([grid.axis_coords[k][idx[k]] for k in range(grid.n)], axis=1)
        vals[mask] = sampled.evaluate(pts)
        return cls(grid, vals, build_trace(grid, boundary or sampled))

    # -- views ----------------------------------------------------------------

    @property
    def interior(self) -> NDArray[np.float64]:
        return self.values.ravel()[self.grid.interior_flat]

    def with_interior(self, interior: NDArray[np.float64]) -> "ScalarField":
        vals = self.values.copy()
        vals.ravel()[self.grid.interior_flat] = np.asarray(interior, dtype=np.float64)
        return ScalarField(self.grid, vals, self.trace)

    def osc(self) -> float:
        """Oscillation max - min over interior nodes and boundary samples."""
        vals = self.interior
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if self.trace is not None:
            b = self.trace.all_values()
            if b.size:
                lo = min(lo, float(np.min(b)))
                hi = max(hi, float(np.max(b)))
        return hi - lo

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.interior)):
            raise InvalidParameterError("field has non-finite interior values")


def _interior_vector(v: ScalarField) -> NDArray[np.float64]:
    vec = v.interior
    if not np.all(np.isfinite(vec)):
        raise InvalidParameterError("field has non-finite interior values")
    return vec


# ---------------------------------------------------------------------------
# Profile function g


class ProfileFunction:
    """The continuous profile g on [0, |Omega|_h].

    Arguments are clamped into the domain before evaluation, so discretization
    overshoot can never query g outside its range.
    """

    def __init__(self, kind: str, domain_max: float,
                 fn: Callable[[NDArray[np.float64]], NDArray[np.float64]],
                 abs_bound: float, params: dict):
        if domain_max <= 0:
            raise InvalidParameterError("profile domain_max must be positive")
        self.kind = kind
        self.domain_max = float(domain_max)
        self._fn = fn
        self._abs_bound = float(abs_bound)
        self.params = params

    @classmethod
    def linear(cls, a: float, b: float, domain_max: float) -> "ProfileFunction":
        """g(t) = a*t + b."""
        a, b = float(a), float(b)
        end = a * domain_max + b
        if not np.all(np.isfinite((a, b, end))):
            raise InvalidParameterError(
                f"linear profile {a!r} t + {b!r} must be finite on [0, {domain_max!r}]")
        bound = max(abs(b), abs(end))
        return cls("linear", domain_max, lambda t: a * t + b, bound,
                   {"a": a, "b": b})

    @classmethod
    def from_table(cls, knots: Sequence[float], values: Sequence[float],
                   domain_max: float) -> "ProfileFunction":
        kn = np.asarray(list(knots), dtype=np.float64)
        va = np.asarray(list(values), dtype=np.float64)
        if kn.size < 2 or kn.size != va.size:
            raise InvalidParameterError("table needs matching knots/values, >= 2 each")
        if not (np.all(np.isfinite(kn)) and np.all(np.isfinite(va))):
            raise InvalidParameterError("table knots and values must be finite")
        if not np.all(np.diff(kn) > 0):
            raise InvalidParameterError("table knots must be strictly increasing")
        if kn[0] > 0 or kn[-1] < domain_max * (1 - 1e-12):
            raise InvalidParameterError(
                f"table knots must span [0, {domain_max}]"
            )
        bound = float(np.max(np.abs(va)))
        return cls("table", domain_max,
                   lambda t: np.interp(t, kn, va), bound,
                   {"knots": kn, "values": va})

    def __call__(self, t) -> NDArray[np.float64]:
        arr = np.asarray(t, dtype=np.float64)
        clamped = np.clip(arr, 0.0, self.domain_max)
        return self._fn(clamped)

    def abs_bound(self) -> float:
        """max |g| over [0, domain_max]; exact for the built-in kinds."""
        return self._abs_bound

    def max_slope(self) -> float:
        """Lipschitz constant of g on its domain; exact for the built-in kinds."""
        if self.kind == "linear":
            return abs(self.params["a"])
        kn, va = self.params["knots"], self.params["values"]
        return float(np.max(np.abs(np.diff(va) / np.diff(kn))))

    def negative_on_range(self) -> bool:
        """True when g < 0 on (0, |Omega|]; gates the flat-region exclusion."""
        if self.kind == "linear":
            a, b = self.params["a"], self.params["b"]
            return b <= 0 and a * self.domain_max + b < 0
        va = self.params["values"]
        return bool(np.all(va[1:] < 0) and va[0] <= 0)


# ---------------------------------------------------------------------------
# Operations


def _tie_starts(asc: NDArray[np.float64]) -> NDArray[np.intp]:
    """searchsorted(asc, asc, "left") in linear time: where each tie run of
    the ascending values starts."""
    run = np.concatenate(([True], asc[1:] != asc[:-1]))
    return np.maximum.accumulate(np.where(run, np.arange(asc.size), 0))


def superlevel_measures(v: ScalarField,
                        order: NDArray[np.intp] | None = None) -> NDArray[np.float64]:
    """Per interior node, the cell measure times the count of values >= its own.

    Ties are included (the superlevel set is closed), so equal values receive
    equal measures and every measure lies in [h^n, |Omega|_h].  Runs in
    O(N log N) by sorting once; ``order``, a permutation that sorts the
    interior values, saves the sort.
    """
    vec = _interior_vector(v)
    order = np.argsort(vec) if order is None else order
    out = np.empty_like(vec)
    out[order] = v.grid.cell * (vec.size - _tie_starts(vec[order]))
    return out


def smoothed_superlevel_average(v: ScalarField, eps: float) -> NDArray[np.float64]:
    """Per node, the exact average of G over the value window [v(x)-eps, v(x)].

    G(t) = h^n * #{values >= t} is piecewise constant between sorted values,
    so the integral is a closed-form summation: the plain superlevel measure
    plus the part of the window strictly inside it.  The result is therefore
    bitwise at least the plain superlevel measure, equals it once eps is
    smaller than the gap to the nearest strictly smaller value, and never
    exceeds the discrete |Omega|.  The inside part goes through prefix sums,
    so it carries summation rounding of order machine epsilon times the
    magnitude of the values; for well-separated values it is exact.
    """
    if not eps > 0:
        raise InvalidParameterError("smoothing width eps must be positive")
    vec = _interior_vector(v)
    order = np.argsort(vec)
    asc = vec[order]
    a = asc - eps
    hi = _tie_starts(asc)
    # When eps is below the ulp of a value b its window degenerates to
    # [b, b]; clamp so the strictly-inside range [lo, hi) stays well formed.
    lo = np.minimum(np.searchsorted(asc, a, side="right"), hi)
    cell = v.grid.cell
    base = cell * (asc.size - hi)
    prefix = np.concatenate(([0.0], np.cumsum(asc)))  # sums of the k smallest
    inner = np.maximum((prefix[hi] - prefix[lo]) - (hi - lo) * a, 0.0)
    out = np.empty_like(vec)
    out[order] = np.minimum(base + (cell / eps) * inner, cell * asc.size)
    return out


def _prefix_sums(x: NDArray[np.float64]) -> tuple[NDArray[np.float64],
                                                   NDArray[np.float64]]:
    """Prefix sums of x, starting at 0, as an unevaluated pair (s, c).

    s is the rounded running sum and c the running sum of its exact rounding
    errors (TwoSum), so s + c is off only by eps^2 times the running sums'
    magnitudes.  Differences of such pairs stay accurate over ranges whose
    sum is far below the magnitude of the total.
    """
    x = np.concatenate(([0.0], x))
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    t = prev + x
    z = t - prev
    # t - s is zero when cumsum adds in sequence, and exact otherwise.
    err = (prev - (t - z)) + (x - z) + (t - s)
    return s, np.cumsum(err)


def _interval_cell_measures(v: ScalarField) -> NDArray[np.float64]:
    """1-D: per node, the average over its cell of |{u~ >= u~(y)}|.

    u~ is the piecewise-linear interpolant through the interior values and
    the trace's Dirichlet values at the boundary crossings; the cell of node
    x_i is [x_i - h/2, x_i + h/2], clipped at a crossing.  On each half-cell
    u~ is linear, so the average equals the mean of M(t) = |{u~ >= t}| over
    the values u~ takes there (M itself at a flat half-cell).  M is linear
    between consecutive distinct values of u~ and drops by the length of the
    flat pieces at a value, so one sort, the knot values of M and prefix sums
    of its integral give every mean exactly, in O(N log N).  Pieces of M cut
    by a window's ends are integrated locally; only the whole pieces inside
    a window go through prefix sums.
    """
    if v.trace is None:
        raise InvalidParameterError(
            "a 1-D superlevel measure needs the field's boundary trace"
        )
    vec = _interior_vector(v)
    n = vec.size
    plan, h = v.grid.plan, v.grid.h
    right, left = plan.nbr[(0, +1)], plan.nbr[(0, -1)]
    end_r, end_l = np.flatnonzero(right < 0), np.flatnonzero(left < 0)
    psi = np.concatenate((v.trace.arm[(0, +1)][end_r], v.trace.arm[(0, -1)][end_l]))
    knots, k_all = np.unique(np.concatenate((vec, psi)), return_inverse=True)
    k_node = k_all[:n]
    # Knot index and length of the piece of u~ on each side of every node.
    k_r, k_l = k_node[right], k_node[left]
    k_r[end_r] = k_all[n:n + end_r.size]
    k_l[end_l] = k_all[n + end_r.size:]
    len_r = np.full(n, h)
    len_l = np.full(n, h)
    len_r[end_r] = plan.theta[(0, +1)][end_r] * h
    len_l[end_l] = plan.theta[(0, -1)][end_l] * h

    # Every piece of u~ once: the right piece of each node, plus the left
    # piece of each node whose left arm ends at a crossing.
    ka = np.concatenate((k_node, k_l[end_l]))
    kb = np.concatenate((k_r, k_node[end_l]))
    seg_len = np.concatenate((len_r, len_l[end_l]))
    k_lo, k_hi = np.minimum(ka, kb), np.maximum(ka, kb)
    with np.errstate(divide="ignore", over="ignore"):
        slope = seg_len / (knots[k_hi] - knots[k_lo])
    # A piece too steep in t to resolve counts as flat at its lower value.
    flat = ~np.isfinite(slope)
    n_knots = knots.size
    flat_len = np.bincount(k_lo[flat], weights=seg_len[flat], minlength=n_knots)

    # M on (knots[k], knots[k+1]) falls with slope sigma[k], the summed
    # |dy/dt| of the pieces spanning it: each piece adds its slope at its
    # lower knot and removes it at its upper one.  The events are summed one
    # by one, unmerged and in any order within a knot, so that a steep
    # piece's rounding cannot outlive it.
    ramp = ~flat
    ev_k = np.concatenate((k_lo[ramp], k_hi[ramp]))
    order = np.argsort(ev_k)
    s, c = _prefix_sums(np.concatenate((slope[ramp], -slope[ramp]))[order])
    upto = np.cumsum(np.bincount(ev_k, minlength=n_knots)[:-1])
    sigma = np.maximum(s[upto] + c[upto], 0.0)
    gap = np.diff(knots)
    # m_up[k] = M just above knots[k]; m_dn[k] = M just below knots[k+1],
    # summed from the top so that the small measures near the maximum keep
    # their relative accuracy.
    drop = sigma * gap + flat_len[1:]
    m_up = np.concatenate((np.cumsum(drop[::-1])[::-1], [0.0]))
    m_closed = flat_len + m_up          # M(knots[k]), ties included
    m_dn = m_closed[1:]
    m_up = m_up[:-1]
    area_s, area_c = _prefix_sums(0.5 * gap * (m_up + m_dn))

    # Each half-cell runs from the node to its midpoint with the neighbour,
    # or to the crossing when that is nearer; on it u~ runs over the values
    # between knots[k] and knots[k] + d.
    half_l, half_r = np.minimum(0.5 * h, len_l), np.minimum(0.5 * h, len_r)
    k = np.concatenate((k_node, k_node))
    d = np.concatenate(((half_l / len_l) * (knots[k_l] - vec),
                        (half_r / len_r) * (knots[k_r] - vec)))
    mean = m_closed[k]
    wide = np.flatnonzero(d != 0)
    if wide.size:
        mean[wide] = _window_means(knots, gap, m_up, m_dn, area_s, area_c,
                                   k[wide], d[wide])
    return (half_l * mean[:n] + half_r * mean[n:]) / (half_l + half_r)


def _window_means(knots, gap, m_up, m_dn, area_s, area_c, k, d):
    """Mean of M over the values between knots[k] and knots[k] + d, d != 0.

    M is linear on each piece (knots[j], knots[j+1]) from m_up[j] to
    m_dn[j]; area_s + area_c are the prefix sums of its integral.  Offsets
    from knots are formed as (knots[k] - knots[j]) + d rather than from the
    rounded far end, which keeps windows a few ulps wide exact.
    """
    def at(j, kk, dt):
        """M at knots[kk] + dt, on piece j."""
        frac = np.clip(((knots[kk] - knots[j]) + dt) / gap[j], 0.0, 1.0)
        return m_up[j] + (m_dn[j] - m_up[j]) * frac

    up = d > 0
    # Windows that pass the next knot in their direction hold knots inside;
    # M is linear over every other window, so its mean is M at the middle.
    j = np.where(up, k, k - 1)
    out = at(j, k, 0.5 * d)
    cut = np.flatnonzero(np.abs(d) > gap[j])
    if cut.size:
        k, d, up = k[cut], d[cut], up[cut]
        far = np.clip(knots[k] + d, knots[0], knots[-1])
        # Knots strictly inside the window are a .. b-1.
        a, b = k + 1, k.copy()
        a[~up] = np.minimum(np.searchsorted(knots, far[~up], side="right"), k[~up])
        b[up] = np.maximum(np.searchsorted(knots, far[up]), k[up] + 1)
        d_lo, d_hi = np.minimum(d, 0.0), np.maximum(d, 0.0)
        # The two cut pieces, plus whole pieces a .. b-2.
        left = ((knots[a] - knots[k]) - d_lo) * 0.5 * (
            at(a - 1, k, d_lo) + m_dn[a - 1])
        right = ((knots[k] - knots[b - 1]) + d_hi) * 0.5 * (
            m_up[b - 1] + at(b - 1, k, d_hi))
        whole = (area_s[b - 1] - area_s[a]) + (area_c[b - 1] - area_c[a])
        out[cut] = np.where(b > a, (left + whole + right) / np.abs(d), out[cut])
    return out


def rhs_plain(v: ScalarField, g: ProfileFunction,
              order: NDArray[np.intp] | None = None) -> NDArray[np.float64]:
    """Frozen right-hand side g(superlevel measure), clamped into g's domain.

    On grids with n >= 2 the measure is the closed cell count of
    ``superlevel_measures``.  On 1-D grids it is the cell average of the
    measure of the superlevel sets of the piecewise-linear interpolant
    through the interior values and the field's boundary trace, which
    ``rhs_plain`` then requires (InvalidParameterError otherwise).  That
    measure has no tie bias and is continuous in the field.  ``order`` as in
    ``superlevel_measures``; the 1-D measure does not use it.
    """
    if v.grid.n > 1:
        return g(superlevel_measures(v, order))
    return g(_interval_cell_measures(v))


def rhs_smoothed(v: ScalarField, g: ProfileFunction,
                 eps: float) -> NDArray[np.float64]:
    """Smoothed right-hand side g(window average of the superlevel measure).

    On 1-D grids the measure of ``rhs_plain`` is already continuous in the
    field, so this returns ``rhs_plain`` for every eps > 0.
    """
    if not eps > 0:
        raise InvalidParameterError("smoothing width eps must be positive")
    if v.grid.n == 1:
        return rhs_plain(v, g)
    return g(smoothed_superlevel_average(v, eps))


@dataclass
class StepFunction:
    """Right-open step function on [0, total]: value[k] on [k*cell, (k+1)*cell).

    The last cell is closed so the function is defined on all of [0, total].
    """

    cell: float
    values: NDArray[np.float64] = field(repr=False)

    @property
    def total(self) -> float:
        return self.cell * self.values.size

    def __call__(self, t) -> NDArray[np.float64]:
        t = np.asarray(t, dtype=np.float64)
        k = np.clip(np.floor(t / self.cell).astype(np.int64), 0,
                    self.values.size - 1)
        return self.values[k]


def increasing_rearrangement(v: ScalarField) -> StepFunction:
    """The nondecreasing step rearrangement of the field on [0, |Omega|_h].

    Takes the sorted-ascending interior values on consecutive cells of width
    h^n.  Diagnostic output only.
    """
    return StepFunction(v.grid.cell, np.sort(_interior_vector(v)))
