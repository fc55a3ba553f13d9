"""Superlevel-set measures, their epsilon-averaged smoothing, and profiles.

The solver iterates the plain right-hand side ``rhs_plain``; the smoothing
is the regularization of the existence proof, kept as ``rhs_smoothed``.
A ``ScalarField`` carries an iterate or a sampled field as its interior
values and the boundary trace of its grid; the measures and right-hand
sides of a field are node data and come back as (n_interior,) vectors.
A profile g carries its piecewise-linear table on [0, |Omega|_h], whose
knots give its bound, slope and sign with no branch on its form.

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

from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParameterError
from .geometry import (BOUNDARY, BoundaryData, BoundaryTrace, Grid, _checked_table,
                       build_trace)

__all__ = [
    "ScalarField",
    "ProfileFunction",
    "superlevel_measures",
    "smoothed_superlevel_average",
    "rhs_plain",
    "rhs_smoothed",
    "increasing_rearrangement",
]


class ScalarField:
    """A grid function: its interior values and the Dirichlet trace of its
    grid, the carrier for iterates and sampled fields.

    ``interior`` is a read-only (n_interior,) vector of finite values; the
    constructor copies it and raises InvalidParameterError on a wrong length
    or a non-finite value.  ``trace`` supplies the grid and the boundary
    values that difference operators and measures read near the boundary.
    """

    def __init__(self, interior: NDArray[np.float64], trace: BoundaryTrace):
        vec = np.array(interior, dtype=np.float64)
        if vec.shape != (trace.grid.n_interior,):
            raise InvalidParameterError(
                f"field has shape {vec.shape}; its grid has "
                f"{trace.grid.n_interior} interior nodes")
        if not np.all(np.isfinite(vec)):
            raise InvalidParameterError("field has non-finite interior values")
        vec.setflags(write=False)
        self.interior, self.trace = vec, trace

    @classmethod
    def sample(cls, grid: Grid,
               fn: Callable[[NDArray[np.float64]], object]) -> "ScalarField":
        """Sample a function of position at the interior nodes; the same
        function is the Dirichlet data, which is what sampled exact solutions
        want."""
        psi = BoundaryData.from_callable(fn)
        return cls(psi.evaluate(grid.interior_coords), build_trace(grid, psi))

    @property
    def grid(self) -> Grid:
        return self.trace.grid

    @property
    def values(self) -> NDArray[np.float64]:
        """The field on the full lattice: the interior values, psi at the
        Boundary lattice nodes and NaN at Exterior nodes."""
        grid = self.grid
        vals = np.full(grid.shape, np.nan, dtype=np.float64)
        vals.ravel()[grid.interior_flat] = self.interior
        boundary = np.nonzero(grid.node_class == BOUNDARY)
        if boundary[0].size:
            vals[boundary] = self.trace.psi.evaluate(np.stack(
                [grid.axis_coords[k][boundary[k]] for k in range(grid.n)], axis=1))
        return vals

    def with_interior(self, interior: NDArray[np.float64]) -> "ScalarField":
        return ScalarField(interior, self.trace)

    def osc(self) -> float:
        """Oscillation max - min over interior nodes and boundary samples."""
        vals = np.concatenate((self.interior, self.trace.values))
        return float(np.max(vals)) - float(np.min(vals))


# ---------------------------------------------------------------------------
# Profile function g


class ProfileFunction:
    """The continuous profile g on [0, |Omega|_h] as its piecewise-linear
    table there: ``knots`` from 0 to ``domain_max`` and g's ``values`` at
    them, a linear g being the two knots [0, D] -> [b, a D + b].  The table
    gives the bound, the slope and the sign exactly.

    g itself is a t + b for a linear profile and the interpolant of the table
    as given otherwise.  Arguments are clamped into the domain before
    evaluation, so discretization overshoot never queries g outside it.
    """

    def __init__(self, knots: NDArray[np.float64], values: NDArray[np.float64],
                 fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]):
        self.domain_max = float(knots[-1])
        if not 0 < self.domain_max < np.inf:
            raise InvalidParameterError("profile domain_max must be positive and finite")
        self.knots, self.values, self._fn = knots, values, fn

    @classmethod
    def linear(cls, a: float, b: float, domain_max: float) -> "ProfileFunction":
        """g(t) = a*t + b."""
        a, b = float(a), float(b)
        end = a * domain_max + b
        if not np.all(np.isfinite((a, b, end))):
            raise InvalidParameterError(
                f"linear profile {a!r} t + {b!r} must be finite on [0, {domain_max!r}]")
        return cls(np.array([0.0, domain_max]), np.array([b, end]),
                   lambda t: a * t + b)

    @classmethod
    def from_table(cls, knots: Sequence[float], values: Sequence[float],
                   domain_max: float) -> "ProfileFunction":
        kn, va = _checked_table(knots, values)
        if kn[0] > 0 or kn[-1] < domain_max * (1 - 1e-12):
            raise InvalidParameterError(f"table knots must span [0, {domain_max}]")
        # The table on [0, domain_max] alone: the knots inside it and the two
        # ends as np.interp evaluates them.
        inside = (kn > 0) & (kn < domain_max)
        ends = np.interp([0.0, domain_max], kn, va)
        return cls(np.concatenate(([0.0], kn[inside], [domain_max])),
                   np.concatenate((ends[:1], va[inside], ends[1:])),
                   lambda t: np.interp(t, kn, va))

    def __call__(self, t) -> NDArray[np.float64]:
        return self._fn(np.clip(np.asarray(t, dtype=np.float64), 0.0, self.domain_max))

    def abs_bound(self) -> float:
        """max |g| over [0, domain_max]: the largest |value| of the table."""
        return float(np.max(np.abs(self.values)))

    def max_slope(self) -> float:
        """Lipschitz constant of g on its domain: its steepest table piece."""
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.knots))))

    def negative_on_range(self) -> bool:
        """True when g < 0 on (0, |Omega|]; gates the flat-region exclusion."""
        va = self.values
        return bool(va[0] <= 0 and np.all(va[1:] < 0))


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
    vec = v.interior
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
    if not 0 < eps < np.inf:
        raise InvalidParameterError("smoothing width eps must be positive and finite")
    vec = v.interior
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


def _interval_pieces(grid: Grid) -> tuple:
    """The grid-fixed data of ``_interval_cell_measures``, built on first use
    and kept on the grid's stencil plan as ``plan.interval``: the piece ends
    a, b and the piece lengths, then the (2, N) neighbour sources (left row,
    right row), half-cell lengths and half-cell to piece length ratios, and
    the cell lengths."""
    plan, h = grid.plan, grid.h
    if plan.interval is None:
        n = grid.n_interior
        src_r, src_l = plan.src[(0, +1)], plan.src[(0, -1)]
        end_r, end_l = np.flatnonzero(src_r >= n), np.flatnonzero(src_l >= n)
        len_r, len_l = np.full(n, h), np.full(n, h)
        len_r[end_r] = plan.theta[(0, +1)][end_r] * h
        len_l[end_l] = plan.theta[(0, -1)][end_l] * h
        # Every piece of u~ once, from its left end a to its right end b: the
        # right piece of each node, plus the left piece of each node whose
        # left arm ends at a crossing.
        a = np.concatenate((np.arange(n), src_l[end_l]))
        b = np.concatenate((src_r, end_l))
        seg_len = np.concatenate((len_r, len_l[end_l]))
        # Each half-cell runs from the node to its midpoint with the
        # neighbour, or to the crossing when that is nearer.
        half_l, half_r = np.minimum(0.5 * h, len_l), np.minimum(0.5 * h, len_r)
        plan.interval = (a, b, seg_len, np.stack((src_l, src_r)),
                         np.stack((half_l, half_r)),
                         np.stack((half_l / len_l, half_r / len_r)), half_l + half_r)
    return plan.interval


def _interval_cell_measures(v: ScalarField,
                            order: NDArray[np.intp]) -> NDArray[np.float64]:
    """1-D: per node, the average over its cell of |{u~ >= u~(y)}|.

    u~ is the piecewise-linear interpolant through the interior values and
    the trace's Dirichlet values at the boundary crossings; the cell of node
    x_i is [x_i - h/2, x_i + h/2], clipped at a crossing.  On each half-cell
    u~ is linear, so the average equals the mean of M(t) = |{u~ >= t}| over
    the values u~ takes there (M itself at a flat half-cell).  M is linear
    between consecutive distinct values of u~ and drops by the length of the
    flat pieces at a value, so one sort, the knot values of M and prefix sums
    of its integral give every mean exactly, in O(N log N).  ``order``, a
    permutation that sorts the interior values, is that sort; the few trace
    samples are merged into it.  Pieces of M cut by a window's ends are
    integrated locally; only the whole pieces inside a window go through
    prefix sums.

    The pieces of u~, the half-cells and their lengths depend on the grid
    alone: ``_interval_pieces`` computes them on a grid's first call and
    keeps them on its stencil plan.  Each call reads the values at their
    ends straight from x, the interior values followed by the trace
    samples.
    """
    vec = v.interior
    n = vec.size
    a, b, seg_len, nbr, half, ratio, cell = _interval_pieces(v.grid)
    samples = v.trace.values
    x = np.concatenate((vec, samples))
    # The ids of x in ascending order of their values, each id's rank in
    # that order, and the knots: the distinct values.
    s_order = np.argsort(samples)
    ends = np.insert(order, np.searchsorted(vec, samples[s_order], sorter=order),
                     n + s_order)
    rank = np.empty(ends.size, dtype=np.intp)
    rank[ends] = np.arange(ends.size)
    asc = x[ends]
    first = np.concatenate(([True], asc[1:] != asc[:-1]))
    knots = asc[first]
    k_of = np.cumsum(first) - 1         # knot index by rank
    rank_a, rank_b = rank[a], rank[b]
    rise = x[b] - x[a]
    with np.errstate(divide="ignore", over="ignore"):
        slope = seg_len / np.abs(rise)
    # A piece too steep in t to resolve counts as flat at its lower value.
    flat = ~np.isfinite(slope)
    flat_len = np.bincount(k_of[np.minimum(rank_a[flat], rank_b[flat])],
                           weights=seg_len[flat], minlength=knots.size)

    # M on (knots[k], knots[k+1]) falls with slope sigma[k], the summed
    # |dy/dt| of the pieces spanning it: each piece adds its slope at its
    # lower end and removes it at its upper one.  Each end is the left end
    # of at most one piece and the right end of at most one, so its two
    # event slots, 2 rank and 2 rank + 1, order the events by knot.  The
    # events are summed one by one, unmerged, so that a steep piece's
    # rounding cannot outlive it.
    rise = np.where(flat, 0.0, np.copysign(slope, rise))
    events = np.zeros(2 * ends.size)
    events[0::2][rank_a] = rise
    events[1::2][rank_b] = -rise
    s, c = _prefix_sums(events)
    upto = 2 * np.flatnonzero(first)[1:]
    sigma = np.maximum(s[upto] + c[upto], 0.0)
    gap = np.diff(knots)
    # m_up[k] = M just above knots[k]; m_closed[k + 1] = M just below
    # knots[k + 1], summed from the top so that the small measures near the
    # maximum keep their relative accuracy.
    drop = sigma * gap + flat_len[1:]
    m_up = np.concatenate((np.cumsum(drop[::-1])[::-1], [0.0]))
    m_closed = flat_len + m_up          # M(knots[k]), ties included
    m_up = m_up[:-1]
    area_s, area_c = _prefix_sums(0.5 * gap * (m_up + m_closed[1:]))

    # On the half-cells left and right of a node (the rows of d) u~ runs
    # over the values between knots[k] and knots[k] + d.
    k = np.tile(k_of[rank[:n]], 2)
    d = (ratio * (x[nbr] - vec)).ravel()
    if gap.size:
        mean = _window_means(knots, gap, m_up, m_closed, area_s, area_c, k, d)
    else:  # a constant field
        mean = m_closed[k]
    mean = half * mean.reshape(2, n)
    return (mean[0] + mean[1]) / cell


def _window_means(knots, gap, m_up, m_closed, area_s, area_c, k, d):
    """Mean of M over the values between knots[k] and knots[k] + d, and
    M(knots[k]) where d == 0.

    M is linear on each piece (knots[j], knots[j+1]) from m_up[j] to
    m_closed[j+1]; area_s + area_c are the prefix sums of its integral.
    Offsets from knots are formed as (knots[k] - knots[j]) + d rather than
    from the rounded far end, which keeps windows a few ulps wide exact.
    """
    m_dn = m_closed[1:]
    rise = m_dn - m_up

    def at(j, kk, dt):
        """M at knots[kk] + dt, on piece j."""
        frac = np.clip(((knots[kk] - knots[j]) + dt) / gap[j], 0.0, 1.0)
        return m_up[j] + rise[j] * frac

    # Windows that pass the next knot in their direction hold knots inside;
    # M is linear over every other window, so its mean is M at the middle.
    # That lies on piece j = k (d > 0) or k - 1 (d < 0), whose offset
    # knots[k] - knots[j] is 0.0 or gap[j], bit for bit.  A window with
    # d == 0 takes piece k - 1 as well (piece -1 at knot 0) until it is
    # overwritten.
    down = d <= 0
    j = k - down
    g = gap[j]
    frac = 0.5 * d
    np.add(g, frac, out=frac, where=down)
    frac /= g
    np.clip(frac, 0.0, 1.0, out=frac)
    out = rise[j]
    out *= frac
    out += m_up[j]
    level = np.flatnonzero(d == 0)
    out[level] = m_closed[k[level]]
    cut = np.flatnonzero(np.abs(d) > g)
    if cut.size:
        k, d, up = k[cut], d[cut], ~down[cut]
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
    through the interior values and the field's boundary trace.  That
    measure has no tie bias and is continuous in the field.  ``order`` as in
    ``superlevel_measures``.
    """
    if order is None:
        order = np.argsort(v.interior)
    if v.grid.n > 1:
        return g(superlevel_measures(v, order))
    return g(_interval_cell_measures(v, order))


def rhs_smoothed(v: ScalarField, g: ProfileFunction,
                 eps: float) -> NDArray[np.float64]:
    """Smoothed right-hand side g(window average of the superlevel measure).

    On 1-D grids the measure of ``rhs_plain`` is already continuous in the
    field, so this returns ``rhs_plain`` for every eps > 0.
    """
    if not 0 < eps < np.inf:
        raise InvalidParameterError("smoothing width eps must be positive and finite")
    if v.grid.n == 1:
        return rhs_plain(v, g)
    return g(smoothed_superlevel_average(v, eps))


def increasing_rearrangement(v: ScalarField) -> NDArray[np.float64]:
    """The nondecreasing rearrangement of the field: its interior values
    sorted ascending, one per cell of width h^n on [0, |Omega|_h].
    Diagnostic output only.
    """
    return np.sort(v.interior)
