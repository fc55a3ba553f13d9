"""Superlevel measures, smoothing, profiles and the rearrangement.

The fast paths are checked against brute-force oracles: an O(N^2) double loop
for the counting measure, and exact fsum integration of the step function for
the smoothing window.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelpde.errors import InvalidParameterError
from levelpde.geometry import (
    BoundaryData,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)
from levelpde.measure import (
    ProfileFunction,
    ScalarField,
    increasing_rearrangement,
    rhs_plain,
    rhs_smoothed,
    smoothed_superlevel_average,
    superlevel_measures,
    _tie_starts,
)


def line_grid(n_nodes, h=0.5):
    """1-D box grid with exactly n_nodes interior nodes."""
    return build_box([(0.0, h * (n_nodes + 1))], h)


def row_grid(n_nodes, h=0.5):
    """2-D box grid with one row of exactly n_nodes interior nodes."""
    return build_box([(0.0, h * (n_nodes + 1)), (0.0, 2 * h)], h)


def field_on(grid, values):
    return ScalarField(values, build_trace(grid, BoundaryData.zero()))


def brute_superlevel(values, cell):
    values = np.asarray(values, dtype=np.float64)
    return np.array([cell * np.sum(values >= v) for v in values])


def brute_window_average(values, cell, b, eps):
    """(1/eps) * integral of G over [b-eps, b], exact via fsum."""
    contribs = [min(max(v - (b - eps), 0.0), eps) for v in values]
    return cell * math.fsum(contribs) / eps


def brute_interval_measures(grid, v):
    """1-D cell averages of |{u~ >= u~(y)}|, exact in rational arithmetic.

    u~ interpolates the interior values and the trace at the crossings; the
    mean of M(t) = |{u~ >= t}| over a half-cell's value range [lo, hi] is
    (P(lo) - P(hi)) / (hi - lo) with P(t) = integral of (u~ - t)_+.
    """
    h, plan = Fraction(grid.h), grid.plan
    x = [Fraction(c) for c in grid.interior_coords[:, 0]]
    vals = [Fraction(c) for c in v.interior]

    def end(i, s):
        j = plan.src[(0, s)][i]
        if j < len(x):
            return x[j], vals[j]
        return (x[i] + s * Fraction(plan.theta[(0, s)][i]) * h,
                Fraction(v.trace.values[j - len(x)]))

    pieces = [(end(i, -1), (x[i], vals[i])) for i in range(len(x))
              if plan.src[(0, -1)][i] >= len(x)]
    pieces += [((x[i], vals[i]), end(i, +1)) for i in range(len(x))]

    def measure(t):
        total = Fraction(0)
        for (ya, pa), (yb, pb) in pieces:
            lo, hi = min(pa, pb), max(pa, pb)
            if lo >= t:
                total += yb - ya
            elif hi > t:
                total += (yb - ya) * (hi - t) / (hi - lo)
        return total

    def excess(t):
        total = Fraction(0)
        for (ya, pa), (yb, pb) in pieces:
            lo, hi = min(pa, pb), max(pa, pb)
            if lo >= t:
                total += (yb - ya) * ((pa + pb) / 2 - t)
            elif hi > t:
                total += (yb - ya) * (hi - t) ** 2 / (2 * (hi - lo))
        return total

    out = []
    for i in range(len(x)):
        num = den = Fraction(0)
        for s in (-1, +1):
            y, val = end(i, s)
            half = min(h / 2, abs(y - x[i]))
            far = vals[i] + half / abs(y - x[i]) * (val - vals[i])
            if far == vals[i]:
                mean = measure(far)
            else:
                lo, hi = min(far, vals[i]), max(far, vals[i])
                mean = (excess(lo) - excess(hi)) / (hi - lo)
            num += half * mean
            den += half
        out.append(float(num / den))
    return np.array(out)


finite_values = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)
value_arrays = hnp.arrays(np.float64, st.integers(min_value=1, max_value=60),
                          elements=finite_values)

# Few distinct values: long tie runs.
tied_values = hnp.arrays(np.float64, st.integers(min_value=1, max_value=60),
                         elements=st.integers(-3, 3).map(lambda k: 1e8 + k))


@st.composite
def profile_tables(draw):
    """A table profile on [0, D]: its first knot is at most 0 and its last at
    least D, the knots at least 1e-3 apart and the values in quarters."""
    domain_max = draw(st.floats(0.5, 4.0))
    knots = [-draw(st.floats(0.0, 1.0))]
    for gap in draw(st.lists(st.floats(1e-3, 2.0), max_size=8)):
        knots.append(knots[-1] + gap)
    knots.append(max(knots[-1] + 1e-3, domain_max) + draw(st.floats(0.0, 1.0)))
    values = draw(st.lists(st.integers(-40, 40), min_size=len(knots),
                           max_size=len(knots)))
    return ProfileFunction.from_table(knots, [v / 4 for v in values], domain_max)


@st.composite
def linear_profiles(draw):
    finite = st.floats(-10.0, 10.0)
    return ProfileFunction.linear(draw(finite), draw(finite), draw(st.floats(0.5, 4.0)))


def bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Values on a 0.25 lattice: distinct entries differ by at least 0.25, so the
# exactness claims about the smoothing window have real margins to meet.
lattice_values = hnp.arrays(
    np.float64, st.integers(min_value=1, max_value=60),
    elements=st.integers(min_value=-200, max_value=200).map(lambda k: k * 0.25),
)


class TestScalarField:
    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                        [[1.0, 2.0, 3.0]]],
                             ids=["short", "long", "2-d"])
    def test_wrong_length_rejected(self, values):
        with pytest.raises(InvalidParameterError, match="3 interior nodes"):
            field_on(line_grid(3), values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            field_on(line_grid(3), [1.0, bad, 2.0])

    def test_interior_is_a_read_only_copy(self):
        values = np.array([1.0, 2.0, 3.0])
        f = field_on(line_grid(3), values)
        values[0] = 5.0
        assert f.interior.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            f.interior[0] = 5.0
        assert f.with_interior(values).interior.tolist() == [5.0, 2.0, 3.0]


class TestSuperlevelMeasures:
    def test_hand_counted_example(self):
        grid = line_grid(4)
        # cell is h = 0.5
        mu = superlevel_measures(field_on(grid, [3, 1, 2, 2]))
        assert mu.tolist() == [0.5, 2.0, 1.5, 1.5]

    def test_all_equal(self):
        grid = line_grid(5)
        mu = superlevel_measures(field_on(grid, [2.0] * 5))
        assert np.all(mu == 5 * 0.5)

    def test_strictly_decreasing_ranks(self):
        grid = line_grid(6)
        mu = superlevel_measures(field_on(grid, [6, 5, 4, 3, 2, 1]))
        assert mu.tolist() == [0.5 * k for k in range(1, 7)]

    @given(value_arrays)
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_exactly(self, values):
        grid = line_grid(values.size)
        mu = superlevel_measures(field_on(grid, values))
        assert np.array_equal(mu, brute_superlevel(values, grid.cell))

    @given(value_arrays)
    @settings(max_examples=60, deadline=None)
    def test_antitone_and_bounded(self, values):
        grid = line_grid(values.size)
        mu = superlevel_measures(field_on(grid, values))
        assert np.all(mu >= grid.cell)
        assert np.all(mu <= grid.cell * values.size)
        order = np.argsort(values)
        assert np.all(np.diff(mu[order]) <= 0)

    def test_equal_values_equal_measures(self):
        grid = line_grid(5)
        mu = superlevel_measures(field_on(grid, [1, 2, 1, 3, 2]))
        assert mu[0] == mu[2] and mu[1] == mu[4]


class TestSmoothedAverage:
    def test_hand_integrated_example_eps_2(self):
        grid = line_grid(3, h=1.0)
        f = field_on(grid, [0.0, 1.0, 2.0])
        s = smoothed_superlevel_average(f, 2.0)
        assert s[2] == 1.5  # (1/2) * (2*1 + 1*1)

    def test_hand_integrated_example_eps_half(self):
        grid = line_grid(3, h=1.0)
        f = field_on(grid, [0.0, 1.0, 2.0])
        s = smoothed_superlevel_average(f, 0.5)
        mu = superlevel_measures(f)
        assert s[2] == mu[2] == 1.0

    def test_eps_nonpositive_rejected(self):
        grid = line_grid(3)
        f = field_on(grid, [0.0, 1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            smoothed_superlevel_average(f, 0.0)

    @given(value_arrays, st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_fsum_oracle(self, values, eps):
        grid = line_grid(values.size)
        f = field_on(grid, values)
        s = smoothed_superlevel_average(f, eps)
        oracle = np.array([brute_window_average(values, grid.cell, b, eps)
                           for b in values])
        # Prefix-sum rounding is amplified by cell/eps; bound it honestly.
        slack = 1e-12 * (1.0 + grid.cell * np.sum(np.abs(values)) / eps)
        assert np.allclose(s, oracle, rtol=1e-12, atol=slack)

    @given(value_arrays, st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_hold(self, values, eps0):
        grid = line_grid(values.size)
        f = field_on(grid, values)
        mu = superlevel_measures(f)
        total = grid.cell * values.size
        for k in range(4, -1, -1):
            s = smoothed_superlevel_average(f, eps0 * 0.5 ** k)
            assert np.all(s >= mu)
            assert np.all(s <= total)

    @given(lattice_values, st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_chain_exact(self, values, eps0):
        grid = line_grid(values.size)
        f = field_on(grid, values)
        mu = superlevel_measures(f)
        total = grid.cell * values.size
        prev = None
        for k in range(4, -1, -1):  # increasing eps: eps0/16 ... eps0
            s = smoothed_superlevel_average(f, eps0 * 0.5 ** k)
            assert np.all(s >= mu)
            assert np.all(s <= total)
            if prev is not None:
                assert np.all(s >= prev)  # larger eps dominates
            prev = s

    @given(lattice_values)
    @settings(max_examples=80, deadline=None)
    def test_collapse_below_min_gap(self, values):
        grid = line_grid(values.size)
        f = field_on(grid, values)
        uniq = np.unique(values)
        gaps = np.diff(uniq)
        eps = float(gaps.min()) * 0.5 if gaps.size else 1.0
        if eps <= 0:
            eps = 1.0
        s = smoothed_superlevel_average(f, eps)
        mu = superlevel_measures(f)
        assert np.array_equal(s, mu)


class TestLevelStats:
    """The level statistics under the measures: tie-run starts, the window
    width check, and the 1-D right-hand side's indifference to an order."""

    @given(st.one_of(value_arrays, tied_values,
                     hnp.arrays(np.float64, st.integers(1, 20),
                                elements=st.just(3.0))),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_own_values_match_the_searches_bitwise(self, values, stable):
        # Tie runs and all-equal arrays; the order may sort ties any way.
        asc = np.sort(values)
        assert np.array_equal(_tie_starts(asc),
                              np.searchsorted(asc, asc, side="left"))
        grid = line_grid(values.size)
        order = np.argsort(values, kind="stable") if stable else None
        searched = grid.cell * (values.size - np.searchsorted(asc, values, side="left"))
        assert bitwise_equal(superlevel_measures(field_on(grid, values), order),
                             searched)

    def test_own_window_average_rejects_nonpositive_eps(self):
        f = field_on(line_grid(3), [1.0, 2.0, 2.0])
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(f.grid))
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                smoothed_superlevel_average(f, eps)
            with pytest.raises(InvalidParameterError):
                rhs_smoothed(f, g, eps)

    def test_1d_stats_carry_the_interval_measure(self):
        grid = build_box([(-1.0, 1.0)], 1 / 16)
        f = ScalarField.sample(grid, lambda p: 1.0 - np.abs(p[:, 0]) ** 3)
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
        fresh = rhs_plain(f, g)
        assert bitwise_equal(rhs_plain(f, g, np.argsort(f.interior)), fresh)
        assert bitwise_equal(rhs_smoothed(f, g, 0.1), fresh)


class TestRhs:
    # On grids with n >= 2 the right-hand side composes g with the counting
    # measure; a one-row 2-D box keeps the 1-D value layout of these cases.

    def test_plain_composition(self):
        grid = row_grid(4)
        # cell is h^2 = 0.25
        g = ProfileFunction.linear(-1.0, 0.0, domain_max=1.0)
        f = rhs_plain(field_on(grid, [3, 1, 2, 2]), g)
        assert f.tolist() == [-0.25, -1.0, -0.75, -0.75]

    def test_constant_profile(self):
        grid = row_grid(4)
        g = ProfileFunction.linear(0.0, 7.0, domain_max=1.0)
        for vals in ([1, 2, 3, 4], [0, 0, 0, 0]):
            f = rhs_plain(field_on(grid, vals), g)
            assert np.all(f == 7.0)
            fe = rhs_smoothed(field_on(grid, vals), g, 0.3)
            assert np.all(fe == 7.0)

    def test_all_ties_give_minus_total(self):
        grid = row_grid(4)
        g = ProfileFunction.linear(-1.0, 0.0, domain_max=1.0)
        f = rhs_plain(field_on(grid, [5, 5, 5, 5]), g)
        assert np.all(f == -1.0)

    def test_smoothed_composition(self):
        grid = row_grid(3, h=1.0)
        g = ProfileFunction.linear(-1.0, 0.0, domain_max=3.0)
        f = rhs_smoothed(field_on(grid, [0.0, 1.0, 2.0]), g, 2.0)
        assert f[2] == -1.5

    def test_smoothed_equals_plain_below_gap(self):
        grid = row_grid(5)
        g = ProfileFunction.linear(-2.0, 1.0, domain_max=1.25)
        v = field_on(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        a = rhs_smoothed(v, g, 0.1)
        b = rhs_plain(v, g)
        assert np.array_equal(a, b)

    # On 1-D grids the measure is the cell average of |{u~ >= u~(y)}| for the
    # piecewise-linear interpolant u~ through the values and the trace.

    @pytest.mark.parametrize("profile", [
        lambda x: 1.0 - np.abs(x),
        lambda x: (1.0 - np.abs(x) ** 3) / 3.0,
    ], ids=["tent", "cubic"])
    def test_1d_symmetric_unimodal_gives_twice_the_distance(self, profile):
        # {u~ >= u~(y)} = [-|y|, |y|] whatever the profile, and the average of
        # 2|y| over [x - h/2, x + h/2] is 2|x|, or h/2 on the centre cell.
        grid = build_box([(-1.0, 1.0)], 0.125)
        x = grid.interior_coords[:, 0]
        v = ScalarField.sample(grid, lambda p: profile(p[:, 0]))
        g = ProfileFunction.linear(1.0, 0.0, domain_max=2.0)
        mu = rhs_plain(v, g)
        expected = np.where(x == 0.0, grid.h / 2, 2.0 * np.abs(x))
        assert mu == pytest.approx(expected, abs=1e-14)
        assert np.array_equal(rhs_smoothed(v, g, 0.01), mu)

    def test_1d_linear_field_gives_distance_to_the_top(self):
        # u = x on (0, L) with psi = x: {u~ >= u~(y)} = [y, L], so the cell
        # average of L - y is L - x.
        L = 2.0
        grid = build_box([(0.0, L)], 0.25)
        x = grid.interior_coords[:, 0]
        v = ScalarField.sample(grid, lambda p: p[:, 0])
        g = ProfileFunction.linear(1.0, 0.0, domain_max=L)
        mu = rhs_plain(v, g)
        assert mu == pytest.approx(L - x, abs=1e-14)

    def test_1d_profile_domain_reaches_the_interval_length(self):
        # u = (x - 1/2)^2 on (0, 1), h = 1/8: for y in the cell of x = 1/2 the
        # interpolant's superlevel set is (0, 1) less the window of half-width
        # |y - 1/2| about 1/2, so the cell average is 1 - 1/16 = 0.9375,
        # beyond h N = 0.875.
        grid = build_box([(0.0, 1.0)], 1 / 8)
        v = ScalarField.sample(grid, lambda p: (p[:, 0] - 0.5) ** 2)
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
        mid = grid.ordinal((4,))
        assert rhs_plain(v, g)[mid] == pytest.approx(-0.9375, abs=1e-15)

    def test_1d_matches_exact_oracle(self):
        # Boxes, balls whose crossings are nearer than h/2, and annuli with a
        # gap in the middle; ties and near-ties stress the window arithmetic.
        rng = np.random.default_rng(20261018)
        g = ProfileFunction.linear(1.0, 0.0, domain_max=10.0)
        for trial in range(24):
            kind = trial % 3
            if kind == 0:
                grid = build_box([(0.0, 1.0)], 1.0 / int(rng.integers(2, 16)))
            elif kind == 1:
                grid = build_ball((0.0,), 1.0, float(rng.uniform(0.1, 0.45)))
            else:
                grid = build_annulus((0.0,), 0.3, 1.0, float(rng.uniform(0.05, 0.3)))
            a, b = rng.uniform(-1.0, 1.0, size=2)
            psi = BoundaryData.from_callable(lambda p, a=a, b=b: a + b * p[:, 0])
            vals = rng.uniform(-1.0, 1.0, size=grid.n_interior)
            if trial % 4 == 1:
                vals = np.round(vals * 2) / 2
            elif trial % 4 == 2:
                vals = np.round(vals * 2) / 2 + 1e-15 * rng.normal(size=vals.size)
            v = ScalarField(vals, build_trace(grid, psi))
            mu = rhs_plain(v, g)
            assert mu == pytest.approx(brute_interval_measures(grid, v), abs=1e-12)

    def test_trace_of_another_grid_rejected(self):
        # A field's grid is its trace's, so values meant for another grid
        # are refused by their length.
        other = build_box([(0.0, 2.5)], 0.25)
        with pytest.raises(InvalidParameterError, match="9 interior nodes"):
            ScalarField(np.zeros(4), build_trace(other, BoundaryData.zero()))

    def test_clamping_absorbs_overshoot(self):
        g = ProfileFunction.linear(-1.0, 0.0, domain_max=1.0)
        assert g(np.array([2.0]))[0] == -1.0
        assert g(np.array([-1.0]))[0] == 0.0


class TestProfileFunction:
    def test_table_interpolation(self):
        g = ProfileFunction.from_table([0.0, 1.0, 2.0], [0.0, -1.0, -4.0],
                                       domain_max=2.0)
        assert g(np.array([0.5]))[0] == pytest.approx(-0.5)
        assert g(np.array([1.5]))[0] == pytest.approx(-2.5)

    def test_table_knots_must_increase(self):
        with pytest.raises(InvalidParameterError):
            ProfileFunction.from_table([0.0, 1.0, 1.0], [0, 0, 0], domain_max=1.0)

    def test_table_must_span_domain(self):
        with pytest.raises(InvalidParameterError):
            ProfileFunction.from_table([0.0, 0.5], [0, 0], domain_max=1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (-1.0, math.inf),
                                      (math.inf, 0.0), (1e308, 1e308)])
    def test_linear_must_be_finite_on_its_domain(self, a, b):
        with pytest.raises(InvalidParameterError, match="finite"):
            ProfileFunction.linear(a, b, 2.0)

    @pytest.mark.parametrize("knots, values", [
        ([0.0, math.inf], [0.0, -1.0]), ([math.nan, 1.0], [0.0, -1.0]),
        ([0.0, 1.0], [math.nan, -1.0]), ([0.0, 1.0], [0.0, -math.inf])])
    def test_table_must_be_finite(self, knots, values):
        with pytest.raises(InvalidParameterError, match="finite"):
            ProfileFunction.from_table(knots, values, domain_max=1.0)

    @pytest.mark.parametrize("domain_max", [0.0, -1.0, math.nan, math.inf])
    def test_domain_must_be_positive_and_finite(self, domain_max):
        with pytest.raises(InvalidParameterError):
            ProfileFunction.from_table([0.0, 1.0], [0.0, -1.0], domain_max)
        with pytest.raises(InvalidParameterError):
            ProfileFunction.linear(-1.0, 0.0, domain_max)

    def test_negative_on_range(self):
        assert ProfileFunction.linear(-1.0, 0.0, 2.0).negative_on_range()
        assert not ProfileFunction.linear(1.0, 0.0, 2.0).negative_on_range()
        assert ProfileFunction.linear(0.0, -3.0, 2.0).negative_on_range()

    @pytest.mark.parametrize("values, negative", [
        ([0.0, -1.0, -4.0], True), ([-1.0, -1.0, -1.0], True),
        ([0.0, 0.0, -1.0], False), ([0.5, -1.0, -4.0], False),
        ([-1.0, -1.0, 0.2], False)])
    def test_table_negative_on_range(self, values, negative):
        # g(0) may vanish; every later knot value must be negative.
        g = ProfileFunction.from_table([0.0, 1.0, 2.0], values, domain_max=2.0)
        assert g.negative_on_range() is negative

    @pytest.mark.parametrize("values, slope", [
        ([0.0, -1.0, -4.0], 3.0), ([0.0, -1.0, -2.0], 1.0),
        ([-2.0, -2.0, -2.0], 0.0), ([1.0, -0.5, 0.0], 1.5)])
    def test_table_max_slope(self, values, slope):
        # The steepest piece of the interpolant, whatever its sign.
        g = ProfileFunction.from_table([0.0, 1.0, 2.0], values, domain_max=2.0)
        assert g.max_slope() == slope

    def test_abs_bound(self):
        assert ProfileFunction.linear(-1.0, 0.0, 2.0).abs_bound() == 2.0
        g = ProfileFunction.from_table([0.0, 1.0], [0.5, -3.0], domain_max=1.0)
        assert g.abs_bound() == 3.0

    @pytest.mark.parametrize("knots, values, negative, bound, slope", [
        ([0.0, 1.0, 10.0], [-1.0, -1.0, 5.0], True, 1.0, 2 / 3),
        ([0.0, 2.0, 3.0], [-1.0, -1.0, 100.0], True, 1.0, 0.0),
        ([-1.0, 0.5, 2.0], [5.0, -1.0, -1.0], False, 1.0, 4.0),
    ], ids=["past-the-end", "knot-at-the-end", "before-zero"])
    def test_table_is_read_on_its_domain_only(self, knots, values, negative, bound,
                                               slope):
        # Knots outside [0, 2] shape g only through its values at 0 and 2,
        # and g itself is the interpolant of the table as given.
        g = ProfileFunction.from_table(knots, values, domain_max=2.0)
        assert g.negative_on_range() is negative
        assert g.abs_bound() == bound
        assert g.max_slope() == pytest.approx(slope, rel=1e-15)
        t = np.linspace(0.0, 2.0, 101)
        assert np.array_equal(g(t), np.interp(t, knots, values))

    @given(st.one_of(profile_tables(), linear_profiles()))
    @settings(max_examples=200, deadline=None)
    def test_facts_agree_with_dense_samples(self, g):
        # The table is g at its knots, from 0 to D, so the three facts it
        # gives are those of g sampled on [0, D].
        kn, va, top = g.knots, g.values, g.domain_max
        assert kn[0] == 0.0 and kn[-1] == top and np.all(np.diff(kn) > 0)
        assert g(kn).tobytes() == va.tobytes()
        t = np.linspace(0.0, top, 2001)
        gt = g(t)
        samples = np.concatenate((gt, va))
        assert g.abs_bound() == np.max(np.abs(va))
        assert g.abs_bound() == pytest.approx(np.max(np.abs(samples)), rel=1e-12)
        slope = g.max_slope()
        assert np.max(np.abs(np.diff(gt) / np.diff(t))) <= slope * (1 + 1e-9) + 1e-9
        # The slope is attained on one piece of the table, between two
        # samples of g.
        assert slope in np.abs(np.diff(g(kn)) / np.diff(kn))
        assert g.negative_on_range() is bool(
            gt[0] <= 0 and np.all(gt[1:] < 0) and np.all(va[1:] < 0))

    @pytest.mark.parametrize("make_grid", [
        lambda: build_ball((0.0, 0.0, 0.0), 1.007, 0.1),
        lambda: build_ball((0.0, 0.0), 1.007, 1 / 32),
        lambda: build_ball((0.0,), 1.007, 1 / 4096),
    ], ids=["ball3d", "disk", "interval"])
    def test_minus_t_on_the_benchmark_grids_is_bit_exact(self, make_grid):
        # g = -t, the benchmark's profile: its bound is the domain measure
        # and its slope 1, bit for bit, and g is -t clamped to [0, D].
        grid = make_grid()
        top = domain_measure(grid)
        g = ProfileFunction.linear(-1.0, 0.0, top)
        assert g.abs_bound() == top
        assert g.max_slope() == 1.0
        assert g.negative_on_range()
        t = np.concatenate(([-1.0, -0.0, 0.0], grid.cell * np.arange(grid.n_interior + 1),
                            [top, 2 * top]))
        assert g(t).tobytes() == (-1.0 * np.clip(t, 0.0, top) + 0.0).tobytes()

    @pytest.mark.parametrize("a, b, top", [
        (-1.0, 0.0, 2.0), (0.3, -2.0, 1.7), (-2.5, 1.0, math.pi), (0.0, -3.0, 0.75)])
    def test_linear_is_its_two_knot_table(self, a, b, top):
        line = ProfileFunction.linear(a, b, top)
        table = ProfileFunction.from_table([0.0, top], [b, a * top + b], top)
        assert line.knots.tobytes() == table.knots.tobytes()
        assert line.values.tobytes() == table.values.tobytes()
        for fact in ("abs_bound", "max_slope", "negative_on_range"):
            assert getattr(line, fact)() == getattr(table, fact)()


class TestRearrangement:
    def test_hand_counted_example(self):
        grid = line_grid(3, h=1.0)
        u = increasing_rearrangement(field_on(grid, [3.0, 1.0, 2.0]))
        assert u.tolist() == [1.0, 2.0, 3.0]

    def test_constant(self):
        grid = line_grid(4)
        u = increasing_rearrangement(field_on(grid, [2.0] * 4))
        assert u.tolist() == [2.0] * 4

    @given(value_arrays)
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_same_multiset(self, values):
        grid = line_grid(values.size)
        u = increasing_rearrangement(field_on(grid, values))
        assert np.all(np.diff(u) >= 0)
        assert sorted(u.tolist()) == sorted(values.tolist())
