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
    AnnulusDescriptor,
    BallDescriptor,
    BoundaryData,
    BoxDescriptor,
    Grid,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)
from levelpde.measure import ProfileFunction


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

    @pytest.mark.parametrize("bounds, h, message", [
        ([], 0.25, "at least one axis"), ([(0, 1)] * 4, 0.25, "capped at 3"),
        ([(0, 1)], 1.0, "grid has no interior nodes")],
        ids=["no-axis", "four-axes", "one-cell"])
    def test_box_without_interior_or_of_unsupported_dimension_rejected(
            self, bounds, h, message):
        with pytest.raises(InvalidGridError, match=message):
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


class TestDirectGrid:
    @pytest.mark.parametrize("grid", [
        lambda: build_ball((0.1, 0.2, 0.3), 1.0, 0.25),
        lambda: build_annulus((0.0, -3.0), 0.4, 1.0, 1 / 8),
        lambda: build_box([(0.0, 1.0), (0.1, 0.6), (-1.0, 1.0)], 0.25),
    ], ids=["ball", "annulus", "box"])
    def test_domain_and_spacing_give_the_builders_grid(self, grid):
        # A grid derives its lattice from its domain and spacing alone.
        grid = grid()
        direct = Grid(grid.descriptor, grid.h)
        assert direct.matches(grid) and direct.shape == grid.shape
        for ax, built in zip(direct.axis_coords, grid.axis_coords):
            assert ax.tobytes() == built.tobytes()
        assert direct.node_class.tobytes() == grid.node_class.tobytes()
        assert not direct.node_class.flags.writeable
        for key, theta in grid.plan.theta.items():
            assert direct.plan.theta[key].tobytes() == theta.tobytes()

    @pytest.mark.parametrize("descriptor, h", [
        (BoxDescriptor(((0.0, 1.0), (0.0, 2.0))), 0.3),
        (BoxDescriptor(((0.0, 1.0),)), 0.6),
        *[(d, h) for d in (BoxDescriptor(((0.0, 1.0), (0.0, 2.0))),
                           BallDescriptor((0.1, 0.2), 1.0),
                           AnnulusDescriptor((0.0, 0.0, 0.0), 0.4, 1.0))
          for h in (math.nan, math.inf, 0.0, -0.25)],
    ])
    def test_non_dividing_or_non_finite_spacing_rejected(self, descriptor, h):
        with pytest.raises(InvalidGridError):
            Grid(descriptor, h)


class TestBall:
    @pytest.mark.parametrize("build", [
        lambda: build_ball((0.0, 0.0, 0.0), 1.0, 0.1),
        lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 16),
        lambda: build_annulus((0.0, 0.0, 0.0), 0.4, 1.0, 0.1),
    ], ids=["ball-0.1", "ball-1/16", "annulus"])
    def test_axes_centred_at_zero_are_mirror_symmetric(self, build):
        # Built as origin + h k, the h = 0.1 axis would put node 19 at
        # 0.9000000000000001 and node 1 at -0.9.
        grid = build()
        for ax in grid.axis_coords:
            assert np.array_equal(ax, -ax[::-1])
        coords = grid.interior_coords
        mirrored = {tuple(p) for p in coords * (-1.0, 1.0, 1.0)}
        assert mirrored == {tuple(p) for p in coords}

    @pytest.mark.parametrize("build", [build_ball, lambda c, r, h: build_annulus(c, 0.4, r, h)],
                             ids=["ball", "annulus"])
    def test_offsets_do_not_depend_on_the_center(self, build):
        # Classes and crossing fractions come from the offsets h (i - m) to
        # the center node m, exact wherever the center lies.
        centred = build((0.0, 0.0, 0.0), 1.0, 0.1)
        moved = build((0.1, 0.2, 0.3), 1.0, 0.1)
        assert np.array_equal(moved.node_class, centred.node_class)
        for key, theta in centred.plan.theta.items():
            assert np.array_equal(moved.plan.theta[key], theta)

    @pytest.mark.parametrize("n", [1, 2])
    def test_lattice_reaches_beyond_the_sphere(self, n):
        # 1 / (1/161) rounds down to 161.0 while 161 * (1/161) < 1, so
        # ceil(radius / h) alone would leave Interior nodes on the faces.
        for grid in (build_ball((0.0,) * n, 1.0, 1 / 161),
                     build_annulus((0.0,) * n, 0.5, 1.0, 1 / 161)):
            m = grid.shape[0] // 2
            assert m == 162 and grid.h * (m - 1) < 1.0 <= grid.h * m
            faces = [np.take(grid.node_class, (0, -1), axis=a) for a in range(n)]
            assert all(np.all(f == EXTERIOR) for f in faces)
            assert grid.plan.points.shape[1] == n

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
        pt = grid.plan.points[grid.plan.src[(0, +1)][i] - grid.n_interior]
        assert np.hypot(*pt) == pytest.approx(1.0, rel=1e-12)

    def test_every_arm_has_neighbor_or_offset(self):
        for grid in (build_ball((0.0, 0.0), 1.0, 1 / 8),
                     build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)):
            plan = grid.plan
            for key, theta in plan.theta.items():
                src = plan.src[key]
                offset = (theta > 0) & (theta <= 1)
                ok = (src >= 0) & ((src < grid.n_interior) | offset)
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

    @pytest.mark.parametrize("knots, values, message", [
        ([0.0, math.inf], [1.0, 2.0], "finite"), ([0.0, 1.0], [1.0, math.nan], "finite"),
        ([math.nan, 1.0], [1.0, 2.0], "finite"), ([0.0, 1.0, 1.0], [1, 2, 3], "increasing"),
        ([0.0], [1.0], ">= 2 each"), ([0.0, 1.0], [1.0], ">= 2 each"),
    ], ids=["inf-knot", "nan-value", "nan-knot", "repeated-knot", "one-knot", "lengths"])
    def test_table_checked_as_a_profile_table_is(self, knots, values, message):
        # A boundary table is checked by the profile table's own check.
        for make in (lambda: BoundaryData.table(knots, values, center=(0.0, 0.0)),
                     lambda: ProfileFunction.from_table(knots, values, 1.0)):
            with pytest.raises(InvalidParameterError, match=message):
                make()

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

    @pytest.mark.parametrize("grid", [build_ball((0.0, 0.0), 1.0, 0.25),
                                      build_box([(0, 1), (0, 1), (0, 1)], 0.25)],
                             ids=["disk", "cube"])
    def test_trace_samples_psi_at_the_stencil_ends(self, grid):
        # Every arm end off the interior, then every Boundary lattice
        # diagonal node, is one sample, numbered in key order; the trace
        # holds psi there, and src reads it after the interior values.
        psi = BoundaryData.from_callable(lambda pts: pts[:, 0] + 2 * pts[:, -1])
        trace = build_trace(grid, psi)
        plan, N, h = grid.plan, grid.n_interior, grid.h
        x = np.concatenate((np.full(N, np.nan), trace.values))
        numbered = []
        for key, src in plan.src.items():
            # Arms (a, s) first, then diagonals (a, b, sa, sb).
            shift = dict(zip(key[:len(key) // 2], key[len(key) // 2:]))
            idx = tuple(grid.interior_index[k] + shift.get(k, 0)
                        for k in range(grid.n))
            cls, end = grid.node_class[idx], grid.interior_coords.copy()
            if len(key) == 2:
                end[:, key[0]] += key[1] * plan.theta[key] * h
                sampled = cls != INTERIOR
            else:
                for k, s in shift.items():
                    end[:, k] += s * h
                sampled = cls == BOUNDARY
                assert np.array_equal(src < 0, cls == EXTERIOR)
            assert np.array_equal(src >= N, sampled)
            inner = (src >= 0) & (src < N)
            assert np.array_equal(inner, cls == INTERIOR)
            assert np.allclose(grid.interior_coords[src[inner]], end[inner])
            assert np.allclose(plan.points[src[sampled] - N], end[sampled])
            assert np.allclose(x[src[sampled]],
                               end[sampled, 0] + 2 * end[sampled, -1])
            numbered.append(src[sampled])
        assert np.array_equal(np.concatenate(numbered), N + np.arange(len(plan.points)))
        assert np.allclose(grid.distance_to_boundary(plan.points), 0.0, atol=1e-12)

    def test_box_trace_uses_boundary_nodes(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        trace = build_trace(grid, BoundaryData.from_callable(lambda pts: pts[:, 0]))
        vals = trace.values
        assert vals.size > 0
        assert vals.min() >= 0.0 and vals.max() <= 1.0
