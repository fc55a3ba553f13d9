"""Grid construction, classification, offsets and the discrete domain measure."""

import math
import warnings

import numpy as np
import pytest

from levelpde.errors import InvalidGridError, InvalidParameterError
from levelpde.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    BoundaryData,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)


def interior_points(grid):
    return grid.interior_coords


class TestBox:
    def test_unit_square_h_half(self):
        grid = build_box([(0, 1), (0, 1)], 0.5)
        assert grid.n_interior == 1
        assert np.allclose(interior_points(grid), [[0.5, 0.5]])
        assert int(np.sum(grid.node_class == BOUNDARY)) == 8

    def test_1d_interval(self):
        grid = build_box([(-1, 1)], 0.5)
        assert sorted(interior_points(grid)[:, 0].tolist()) == [-0.5, 0.0, 0.5]

    def test_unit_square_quarter(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        assert grid.n_interior == 9

    def test_all_offsets_are_one(self):
        grid = build_box([(0, 1), (0, 2)], 0.25)
        for key, theta in grid.plan.theta.items():
            assert np.all(theta == 1.0)

    def test_h_too_large(self):
        with pytest.raises(InvalidGridError):
            build_box([(0, 1), (0, 0.25)], 0.5)

    def test_h_not_dividing(self):
        with pytest.raises(InvalidGridError):
            build_box([(0, 1)], 0.3)

    @pytest.mark.parametrize("bounds, h", [
        ([(0, 1)], math.nan), ([(0, 1)], math.inf), ([(-math.inf, 1)], 0.25),
        ([(0, math.nan)], 0.25), ([(-1, 1), (-1, 1)], 1e-300),
        # 1e17 + k rounds to a multiple of 16: the lattice is not h apart.
        ([(1e17, 1e17 + 64)], 1.0),
    ], ids=["nan-h", "inf-h", "unbounded", "nan-bound", "unallocatable",
            "collapsed-lattice"])
    def test_non_finite_or_absurd_extent_rejected(self, bounds, h):
        with pytest.raises(InvalidGridError):
            build_box(bounds, h)

    def test_spacing_below_the_side_over_float_max_rejected(self):
        # side / h overflows to inf; the lattice count must not.
        with pytest.raises(InvalidGridError):
            build_box([(0.0, 4.0)], 5e-324)

    def test_measure_quarter(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        assert domain_measure(grid) == 9 * 0.0625

    def test_measure_interval(self):
        # In 1-D the interpolant's superlevel sets can cover the whole length.
        grid = build_box([(-1, 1)], 0.5)
        assert domain_measure(grid) == 2.0


class TestBall:
    def test_radius_at_most_2h_rejected(self):
        with pytest.raises(InvalidGridError):
            build_ball((0.0, 0.0), 1.0, 0.5)

    @pytest.mark.parametrize("radius, h", [
        (1.0, math.nan), (math.inf, 0.25), (math.nan, 0.25), (1e300, 1.0),
    ], ids=["nan-h", "inf-radius", "nan-radius", "unallocatable"])
    def test_non_finite_or_absurd_extent_rejected(self, radius, h):
        with pytest.raises(InvalidGridError):
            build_ball((0.0, 0.0), radius, h)

    @pytest.mark.parametrize("n", [1, 2])
    def test_lattice_count_overflow_rejected(self, n):
        # radius / h overflows to inf, or to an integer no array can hold.
        for radius, h in ((1e300, 1e-300), (4.0, 1e-300)):
            with pytest.raises(InvalidGridError):
                build_ball((0.0,) * n, radius, h)
            with pytest.raises(InvalidGridError):
                build_annulus((0.0,) * n, radius / 4, radius, h)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_center_rejected_without_warnings(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="finite"):
                build_ball((c, 0.0), 1.0, 0.25)

    @pytest.mark.parametrize("center", [(), (0.0,) * 4], ids=["empty", "4-d"])
    def test_center_of_no_or_four_coordinates_rejected(self, center):
        for build in (lambda: build_ball(center, 1.0, 0.25),
                      lambda: build_annulus(center, 0.5, 1.0, 0.125)):
            with pytest.raises(InvalidGridError, match="needs 1 to 3 coordinates"):
                build()

    def test_center_that_collapses_the_lattice_rejected(self):
        # 1e17 + h*k rounds back to 1e17: every node would share one x.
        with pytest.raises(InvalidGridError, match="cannot resolve"):
            build_ball((1e17, 0.0), 1.0, 0.25)

    def test_classification_matches_rule(self):
        # Oracle: enumerate the lattice and apply |x - c| < r directly.
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        xs, ys = np.meshgrid(grid.axis_coords[0], grid.axis_coords[1], indexing="ij")
        inside = np.hypot(xs, ys) < 1.0
        assert np.array_equal(grid.interior_mask, inside)
        assert np.all(grid.node_class[~inside] == EXTERIOR)

    def test_theta_unit_when_crossing_at_lattice_distance(self):
        # Node (0.75, 0): the +x arm crosses |x| = 1 exactly at distance h.
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        i = grid.ordinal((np.where(grid.axis_coords[0] == 0.75)[0][0],
                          np.where(grid.axis_coords[1] == 0.0)[0][0]))
        assert grid.plan.theta[(0, +1)][i] == pytest.approx(1.0)

    def test_theta_fractional(self):
        # Node (0.75, 0.5): crossing at sqrt(1 - 0.25) - 0.75, theta ~ 0.4641.
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        i = grid.ordinal((np.where(grid.axis_coords[0] == 0.75)[0][0],
                          np.where(grid.axis_coords[1] == 0.5)[0][0]))
        expected = (math.sqrt(0.75) - 0.75) / 0.25
        assert grid.plan.theta[(0, +1)][i] == pytest.approx(expected, rel=1e-12)
        # The crossing point itself lies on the sphere.
        pt = grid.plan.arm_point[(0, +1)][i]
        assert np.hypot(*pt) == pytest.approx(1.0, rel=1e-12)

    def test_every_arm_has_neighbor_or_offset(self):
        for grid in (build_ball((0.0, 0.0), 1.0, 1 / 8),
                     build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)):
            plan = grid.plan
            for key in plan.arm_keys(grid.n):
                ok = (plan.nbr[key] >= 0) | (
                    (plan.theta[key] > 0) & (plan.theta[key] <= 1)
                )
                assert bool(np.all(ok))

    def test_measure_converges_to_pi(self):
        errors = {}
        for h in (1 / 16, 1 / 32, 1 / 64):
            grid = build_ball((0.0, 0.0), 1.0, h)
            errors[h] = abs(domain_measure(grid) - math.pi)
        assert errors[1 / 64] / math.pi < 0.05
        # Perimeter-style bound |h^n count - vol| <= C h with a modest C.
        for h, err in errors.items():
            assert err <= 4.0 * h

    def test_rebuild_is_identical(self):
        a = build_ball((0.0, 0.0), 1.0, 1 / 16)
        b = build_ball((0.0, 0.0), 1.0, 1 / 16)
        assert np.array_equal(a.node_class, b.node_class)
        for key in a.plan.theta:
            assert np.array_equal(a.plan.theta[key], b.plan.theta[key])


class TestAnnulus:
    def test_classification(self):
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)
        s = np.linalg.norm(interior_points(grid), axis=1)
        assert np.all((s > 0.4) & (s < 1.0))

    def test_measure(self):
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 64)
        exact = math.pi * (1.0 - 0.16)
        assert abs(domain_measure(grid) - exact) / exact < 0.05

    def test_gap_too_small(self):
        with pytest.raises(InvalidGridError):
            build_annulus((0.0, 0.0), 0.9, 1.0, 1 / 16)

    @pytest.mark.parametrize("r_inner, r_outer, h", [
        (0.4, math.inf, 0.25), (0.4, math.nan, 0.25), (0.4, 1.0, math.nan),
    ])
    def test_non_finite_extent_rejected(self, r_inner, r_outer, h):
        with pytest.raises(InvalidGridError):
            build_annulus((0.0, 0.0), r_inner, r_outer, h)


class TestBoundaryData:
    def test_zero(self):
        psi = BoundaryData.zero()
        assert np.all(psi.evaluate(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0)

    def test_radial_poly(self):
        # psi(s) = 1 + 2 s^2 about the origin
        psi = BoundaryData.radial_poly([1.0, 0.0, 2.0], center=(0.0, 0.0))
        out = psi.evaluate(np.array([[1.0, 0.0], [0.0, 0.5]]))
        assert out == pytest.approx([3.0, 1.5])

    def test_table(self):
        psi = BoundaryData.table([0.0, 1.0], [0.0, 2.0], center=(0.0,))
        assert psi.evaluate(np.array([[0.5]]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("make", [
        lambda: BoundaryData.radial_poly([1.0, 0.0, 1.0], center=(0.0, 0.0, 0.0)),
        lambda: BoundaryData.table([0.0, 2.0], [1.0, 3.0], center=(0.0, 0.0, 0.0)),
    ], ids=["radial_poly", "table"])
    def test_center_of_another_dimension_rejected(self, make):
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        with pytest.raises(InvalidParameterError, match="dimensions"):
            build_trace(grid, make())

    @pytest.mark.parametrize("fn", [
        lambda p: np.zeros((len(p), 2)), lambda p: np.zeros(len(p) + 1),
        lambda p: np.full(len(p), np.nan),
    ], ids=["columns", "one-long", "nan"])
    def test_wrong_shape_or_non_finite_values_rejected(self, fn):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        with pytest.raises(InvalidParameterError, match="one finite value per point"):
            BoundaryData.from_callable(fn).evaluate(pts)

    def test_trace_evaluates_on_crossings(self):
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        trace = build_trace(grid, BoundaryData.from_callable(
            lambda pts: pts[:, 0] + pts[:, 1]))
        for key in grid.plan.arm_keys(grid.n):
            sel = grid.plan.nbr[key] < 0
            pts = grid.plan.arm_point[key][sel]
            assert np.allclose(trace.arm[key][sel], pts[:, 0] + pts[:, 1])
            assert np.all(np.isnan(trace.arm[key][~sel]))

    def test_box_trace_uses_boundary_nodes(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        trace = build_trace(grid, BoundaryData.from_callable(lambda pts: pts[:, 0]))
        vals = trace.all_values()
        assert vals.size > 0
        assert vals.min() >= 0.0 and vals.max() <= 1.0
