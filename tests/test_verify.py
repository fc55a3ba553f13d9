"""Closed forms, barrier constants, gradient floors, flat-region scans."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levelpde.elliptic import EllipticOperator, apply_operator
from levelpde.errors import InvalidParameterError, PreconditionError
from levelpde.geometry import (BoundaryData, build_annulus, build_ball, build_box,
                               build_trace, domain_measure)
from levelpde.measure import ProfileFunction, ScalarField, superlevel_measures
from levelpde.outerloop import solve_nonlocal
from levelpde.verify import (
    BallSolution,
    BarrierPoint,
    StudyProblem,
    barrier_comparison_check,
    barrier_gradient_constant,
    boundary_gradient_min,
    convergence_order_study,
    exact_ball_solution,
    flat_region_detector,
    unit_ball_volume,
    _sample_directions,
)

LAP = EllipticOperator.laplacian()

# The 1-D study at three spacings, printed as one digest of its rows.
STUDY_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from levelpde import EllipticOperator
from levelpde.verify import StudyProblem, convergence_order_study

rows = convergence_order_study(StudyProblem((0.0,), 1.007, EllipticOperator.laplacian()),
                               [1 / 128, 1 / 256, 1 / 512])
print(hashlib.sha256(repr(rows).encode()).hexdigest())
"""


def zero_data_field(grid, interior):
    return ScalarField(interior, build_trace(grid, BoundaryData.zero()))


class TestUnitBallVolume:
    def test_values(self):
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == math.pi
        assert unit_ball_volume(3) == 4.0 * math.pi / 3.0

    def test_unsupported(self):
        with pytest.raises(InvalidParameterError):
            unit_ball_volume(4)


class TestBallSolution:
    def test_center_value_2d(self):
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        assert sol.value([[0.0, 0.0]])[0] == pytest.approx(math.pi / 16, rel=1e-12)

    def test_pucci_minus_rescaling(self):
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2,
                                  EllipticOperator.pucci_minus(1.0, 2.0))
        assert sol.value([[0.0, 0.0]])[0] == pytest.approx(math.pi / 32, rel=1e-12)

    def test_pucci_plus_rescaling(self):
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2,
                                  EllipticOperator.pucci_plus(0.5, 2.0))
        assert sol.value([[0.0, 0.0]])[0] == pytest.approx(math.pi / 8, rel=1e-12)

    def test_zero_on_sphere(self):
        sol = exact_ball_solution((0.3, -0.2), 0.7, 2, LAP)
        ang = np.linspace(0, 2 * math.pi, 13)
        pts = np.stack([0.3 + 0.7 * np.cos(ang), -0.2 + 0.7 * np.sin(ang)], axis=1)
        assert np.allclose(sol.value(pts), 0.0, atol=1e-14)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, r):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            exact_ball_solution((0.0, 0.0), r, 2, LAP)

    @pytest.mark.parametrize("center, n, message", [
        ((0.0, 0.0), 3, "center dimension does not match n"),
        ((0.0,) * 4, 4, "dimension")], ids=["center-of-another-n", "n-4"])
    def test_center_and_dimension_must_agree_and_be_supported(self, center, n,
                                                             message):
        with pytest.raises(InvalidParameterError, match=message):
            exact_ball_solution(center, 1.0, n, LAP)

    def test_study_problem_is_the_ball_solution(self):
        assert StudyProblem is BallSolution

    @pytest.mark.parametrize("center, radius, message", [
        ((0.0,) * 4, 1.0, "dimension"), ((), 1.0, "dimension"),
        ((0.0, 0.0), 0.0, "positive and finite"),
        ((0.0,), math.nan, "positive and finite")],
        ids=["n-4", "n-0", "zero-radius", "nan-radius"])
    def test_study_problem_is_checked_when_built(self, center, radius, message):
        with pytest.raises(InvalidParameterError, match=message):
            StudyProblem(center, radius, LAP)

    @pytest.mark.parametrize("center, radius, op", [
        ((0.0,), 1.007, LAP), ((0.3, -0.2), 0.7, EllipticOperator.pucci_minus(1.0, 2.0)),
        ((0.0, 0.0, 0.0), 0.992, EllipticOperator.pucci_plus(0.5, 2.0))])
    def test_study_problem_equals_the_exact_solution(self, center, radius, op):
        problem = StudyProblem(center=center, radius=radius, op=op)
        assert problem == exact_ball_solution(center, radius, len(center), op)
        assert problem.n == len(problem.center)

    def test_1d_profile(self):
        sol = exact_ball_solution((0.0,), 1.0, 1, LAP)
        x = np.array([[0.0], [0.5], [1.0]])
        assert np.allclose(sol.value(x), (1 - np.abs(x[:, 0]) ** 3) / 3, atol=1e-14)

    def test_laplacian_identity_on_samples(self):
        # apply_operator on the sampled closed form reproduces -omega_n |x|^n
        # up to O(h^2) at full-stencil nodes.
        errs = {}
        for h in (1 / 16, 1 / 32):
            grid = build_ball((0.0, 0.0), 1.0, h)
            sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
            lap = apply_operator(LAP, sol.sample(grid))
            s2 = np.sum(grid.interior_coords ** 2, axis=1)
            dist = grid.distance_to_boundary(grid.interior_coords)
            core = dist > 2 * h
            errs[h] = float(np.max(np.abs(lap + math.pi * s2)[core]))
        assert errs[1 / 32] <= errs[1 / 16] / 3.0

    def test_pucci_degenerates_to_trace_on_samples(self):
        # The Hessian of the closed form is negative semidefinite, so the
        # minimal operator acts as Lam * trace on the rescaled solution.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, op)
        out = apply_operator(op, sol.sample(grid))
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        dist = grid.distance_to_boundary(grid.interior_coords)
        core = dist > 2 * grid.h
        assert float(np.max(np.abs(out + math.pi * s2)[core])) < 5e-2

    def test_superlevel_identity_on_ball(self):
        # The superlevel measure of the radial solution is the ball volume at
        # the node's radius, up to the counting error O(h).
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        mu = superlevel_measures(sol.sample(grid))
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        assert float(np.max(np.abs(mu - math.pi * s2))) <= 6.0 * grid.h


class TestBarrierConstant:
    def test_known_constants(self):
        assert barrier_gradient_constant(0.5, 2, 2.0) == pytest.approx(
            math.pi / 64, rel=1e-12)
        assert barrier_gradient_constant(1.0, 1, 1.0) == pytest.approx(1.0)

    def test_homogeneity_in_eps0(self):
        for n in (1, 2, 3):
            c1 = barrier_gradient_constant(0.3, n, 1.5)
            c2 = barrier_gradient_constant(0.6, n, 1.5)
            assert c2 / c1 == pytest.approx(2.0 ** (n + 1), rel=1e-12)

    @pytest.mark.parametrize("eps0, Lam, message", [
        (0.0, 1.0, "eps0 must be positive"), (math.nan, 1.0, "eps0 must be positive"),
        (0.5, -1.0, "Lam must be positive"), (0.5, math.nan, "Lam must be positive")])
    def test_arguments_must_be_positive(self, eps0, Lam, message):
        with pytest.raises(InvalidParameterError, match=message):
            barrier_gradient_constant(eps0, 2, Lam)

    def test_monotonicity(self):
        assert barrier_gradient_constant(0.4, 2, 1.0) > \
            barrier_gradient_constant(0.3, 2, 1.0)
        assert barrier_gradient_constant(0.3, 2, 2.0) < \
            barrier_gradient_constant(0.3, 2, 1.0)

    def test_tight_on_exact_solution(self):
        # With eps0 = r and Lam = 1 the constant equals the closed form's
        # boundary gradient exactly.
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        assert sol.boundary_gradient() == pytest.approx(
            barrier_gradient_constant(1.0, 2, 1.0), rel=1e-12)


class TestBoundaryGradientMin:
    def test_linear_field(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        assert boundary_gradient_min(u, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        u = ScalarField.sample(grid, lambda p: np.full(p.shape[0], 3.0))
        assert boundary_gradient_min(u, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_exact_ball_band(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 64)
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        got = boundary_gradient_min(sol.sample(grid), 0.1)
        # lower-bounded by the analytic slope at the band's inner edge
        assert got >= abs(float(sol.radial_slope(np.array(0.9)))) * 0.98
        assert got == pytest.approx(math.pi * 0.9 ** 3 / 4, rel=0.05)

    @pytest.mark.parametrize("make_grid", [
        *(lambda n=n: build_annulus((0.0,) * n, 0.4, 0.4 + 2.05 * 0.1, 0.1)
          for n in (1, 2, 3)),
        *(lambda n=n: build_ball((0.0,) * n, 2.01 * 0.1, 0.1) for n in (1, 2, 3)),
        lambda: build_box([(0.0, 1.0)] * 3, 0.5),
    ], ids=["annulus-1d", "annulus-2d", "annulus-3d", "ball-1d", "ball-2d",
            "ball-3d", "box-one-node"])
    def test_thinnest_grids_have_nodes_in_the_smallest_band(self, make_grid):
        grid = make_grid()
        u = ScalarField.sample(grid, lambda p: np.sum(p, axis=1))
        assert math.isfinite(boundary_gradient_min(u, 2 * grid.h))

    def test_band_must_cover_stencils(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        with pytest.raises(InvalidParameterError):
            boundary_gradient_min(u, grid.h)

    @pytest.mark.parametrize("band", [math.inf, math.nan])
    def test_band_must_be_finite(self, band):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        with pytest.raises(InvalidParameterError):
            boundary_gradient_min(u, band)


class TestFlatRegionDetector:
    def test_constant_field_carries_whole_measure(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = zero_data_field(grid, np.full(grid.n_interior, 2.0))
        rep = flat_region_detector(u, 1e-6)
        assert rep.max_mass == pytest.approx(domain_measure(grid))
        assert rep.max_level == 2.0

    def test_genuine_plateau_detected(self):
        grid = build_box([(0, 1), (0, 1)], 1 / 16)
        vals = np.linspace(0.0, 1.0, grid.n_interior)
        vals[:40] = 0.5
        u = zero_data_field(grid, vals)
        rep = flat_region_detector(u, 1e-9)
        assert rep.max_mass >= 40 * grid.cell

    def test_exact_solution_mass_vanishes(self):
        masses = {}
        for h in (1 / 16, 1 / 32, 1 / 64):
            grid = build_ball((0.0, 0.0), 1.0, h)
            sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
            rep = flat_region_detector(sol.sample(grid), h * h)
            masses[h] = rep.max_mass
        assert masses[1 / 64] < masses[1 / 32] < masses[1 / 16]

    def test_delta_positive_required(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = zero_data_field(grid, np.zeros(grid.n_interior))
        with pytest.raises(InvalidParameterError):
            flat_region_detector(u, 0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_delta_finite_required(self, delta):
        # An infinite window holds every node at every level: the flat mass
        # is the whole domain on any field, and no threshold can fail it.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = zero_data_field(grid, np.zeros(grid.n_interior))
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            flat_region_detector(u, delta)


def _bits(p):
    """A BarrierPoint as exact values: floats as their hex text."""
    return (tuple(map(float.hex, p.boundary_point)), tuple(map(float.hex, p.ball_center)),
            p.n_nodes, float.hex(p.min_slack), p.ok, p.measure_ok)


def _per_probe_barrier_points(u, eps0, op, tol):
    """The barrier comparison one probe at a time: a full-grid distance, a
    closed-form barrier and five reductions per probe."""
    grid, d = u.grid, u.grid.descriptor
    n = grid.n
    half = 0.5 * domain_measure(grid)
    center = np.asarray(d.center, dtype=np.float64)
    if hasattr(d, "radius"):
        spheres = [(d.radius, -1.0)]
    else:
        spheres = [(d.r_outer, -1.0), (d.r_inner, +1.0)]
    barrier_op = EllipticOperator.pucci_minus(op.lam, op.Lam)
    mu = superlevel_measures(u)
    uin, coords = u.interior, grid.interior_coords
    points = []
    for radius, inward in spheres:
        for dvec in _sample_directions(n):
            y = center + radius * dvec
            cb = center + (radius + inward * eps0) * dvec
            barrier = exact_ball_solution(tuple(cb), eps0, n, barrier_op)
            in_ball = np.linalg.norm(coords - cb, axis=1) < eps0
            n_nodes = int(np.sum(in_ball))
            if n_nodes == 0:
                points.append(BarrierPoint(tuple(y), tuple(cb), 0, math.inf, True, True))
                continue
            min_slack = float(np.min(uin[in_ball] - barrier.value(coords[in_ball])))
            points.append(BarrierPoint(
                tuple(float(x) for x in y), tuple(float(x) for x in cb), n_nodes,
                min_slack, min_slack >= -tol,
                bool(np.all(mu[in_ball] >= half - grid.cell))))
    return points


@pytest.fixture(scope="module")
def solved_ball():
    grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
    g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
    u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
    assert rep.converged
    return grid, u


class TestBarrierComparison:
    def test_exact_solution_passes(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        sol = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        rep = barrier_comparison_check(sol.sample(grid), 0.5, LAP)
        assert rep.passed
        assert len(rep.points) == 8
        assert all(p.n_nodes > 0 for p in rep.points)
        assert rep.c0 == pytest.approx(barrier_gradient_constant(0.5, 2, 1.0))

    def test_solved_field_passes(self, solved_ball):
        grid, u = solved_ball
        rep = barrier_comparison_check(u, 0.5, LAP)
        assert rep.passed
        assert rep.min_grad_band >= 0.9 * rep.c0

    @pytest.mark.parametrize("make_grid, eps0", [
        (lambda: build_ball((0.0, 0.0), 1.0, 1 / 32), 0.5),
        (lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 10), 0.5),
        (lambda: build_ball((0.1, 0.2, 0.3), 1.0, 1 / 10), 0.3),
        (lambda: build_ball((0.0,), 1.0, 1 / 16), 0.5),
        (lambda: build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16), 0.15),
        (lambda: build_ball((0.0, 0.0), 1.0, 0.1), 0.04),
        (lambda: build_ball((0.0, 0.0, 0.0), 1.0, 0.1), 0.05),
    ], ids=["disk", "ball-3d", "ball-3d-off-centre", "interval", "annulus",
            "disk-empty-probes", "ball-3d-empty-probes"])
    @pytest.mark.parametrize("field", ["closed-form", "random", "below-barrier"])
    def test_matches_the_per_probe_loop(self, make_grid, eps0, field):
        grid = make_grid()
        if field == "closed-form":
            u = exact_ball_solution(grid.descriptor.center, 1.0, grid.n, LAP).sample(grid)
        elif field == "random":  # the minimum at a random node: every last bit counts
            u = zero_data_field(grid, np.random.default_rng(0).random(grid.n_interior))
        else:  # |x - c|^2 - 1: below every barrier, superlevel sets at the sphere
            c = np.asarray(grid.descriptor.center)
            u = ScalarField.sample(grid, lambda p: np.sum((p - c) ** 2, axis=1) - 1.0)
        rep = barrier_comparison_check(u, eps0, LAP)
        want = _per_probe_barrier_points(u, eps0, LAP, rep.tol)
        assert [_bits(p) for p in rep.points] == [_bits(p) for p in want]
        assert rep.passed == all(p.ok for p in want)
        assert rep.hypothesis_ok == all(p.measure_ok for p in want)
        if field == "below-barrier" and hasattr(grid.descriptor, "radius"):
            assert not any(p.measure_ok for p in rep.points if p.n_nodes)
        if eps0 < grid.h:  # some tangent balls fall between the nodes
            assert any(p.n_nodes == 0 for p in rep.points)

    @pytest.mark.parametrize("n, radius, eps0, empty", [
        (3, 1.0, 0.05, 8),    # 8 of the 26 tangent balls fall between the nodes
        (2, 0.97, 0.01, 8),   # every one of the 8 does
        (3, 0.97, 0.01, 26),  # every one of the 26 does
    ], ids=["ball-3d-some", "disk-all", "ball-3d-all"])
    def test_counts_the_empty_probes(self, n, radius, eps0, empty):
        center = (0.0,) * n
        grid = build_ball(center, radius, 0.1)
        rep = barrier_comparison_check(
            exact_ball_solution(center, radius, n, LAP).sample(grid), eps0, LAP)
        assert rep.empty_probes == empty
        assert all(p.ok for p in rep.points)
        # A check in which no probe holds a node tested nothing.
        assert rep.passed == (empty < len(rep.points))

    @pytest.mark.parametrize("n, h, vacuous", [
        (2, 1 / 8, True), (2, 1 / 16, True), (2, 1 / 32, False), (3, 0.1, True)])
    def test_names_a_tolerance_that_reaches_the_barrier(self, n, h, vacuous):
        # The barrier of radius eps0 = 1/2 rises to omega_n 0.5^(n+2) /
        # (2n(n+2)): pi/256 = 1.23e-2 on the disk, 4.36e-3 on the 3-D ball.
        # The default tol 1e-9 + 10 h^2 reaches it for h >= 1/16 on the
        # disk, and an all-zero field then passes.
        grid = build_ball((0.0,) * n, 1.0, h)
        rep = barrier_comparison_check(zero_data_field(grid, np.zeros(grid.n_interior)))
        height = unit_ball_volume(n) * 0.5 ** (n + 2) / (2 * n * (n + 2))
        assert rep.eps0 == 0.5 and rep.height == pytest.approx(height, rel=1e-15)
        assert rep.vacuous is vacuous
        assert rep.passed is vacuous

    @pytest.mark.parametrize("make_grid, eps0", [
        (lambda: build_ball((0.1, -0.2), 1.007, 1 / 16), 1.007 / 2),
        (lambda: build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16), (1.0 - 0.4) / 4),
        (lambda: build_annulus((0.0, 0.0, 0.0), 0.35, 0.992, 1 / 8), (0.992 - 0.35) / 4),
    ], ids=["ball", "annulus", "annulus-3d"])
    def test_default_eps0_is_half_the_largest_tangent_ball(self, make_grid, eps0):
        grid = make_grid()
        u = zero_data_field(grid, np.random.default_rng(0).random(grid.n_interior))
        rep = barrier_comparison_check(u)
        assert rep.eps0 == eps0
        assert rep.points == barrier_comparison_check(u, eps0).points

    def test_gate_on_large_eps0(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = ScalarField.sample(grid, lambda p: np.zeros(p.shape[0]))
        with pytest.raises(PreconditionError):
            barrier_comparison_check(u, 0.9, LAP)

    @pytest.mark.parametrize("eps0", [0.0, -1.0, math.nan])
    def test_non_positive_eps0_rejected(self, eps0):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        u = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP).sample(grid)
        with pytest.raises(InvalidParameterError, match="eps0 must be positive"):
            barrier_comparison_check(u, eps0, LAP)

    def test_gate_on_box(self):
        grid = build_box([(0, 1), (0, 1)], 1 / 8)
        u = ScalarField.sample(grid, lambda p: np.zeros(p.shape[0]))
        with pytest.raises(PreconditionError):
            barrier_comparison_check(u, 0.2, LAP)


class TestConvergenceStudy:
    @pytest.mark.parametrize("h_list", [[0.25, 0.25], [0.25, 0.125, 0.25]])
    def test_repeated_spacing_rejected_before_any_solve(self, h_list, monkeypatch):
        # Two equal consecutive spacings divided by log(1) = 0.
        from levelpde import verify

        def refuse(*args, **kwargs):
            raise AssertionError("the study solved before checking its spacings")

        monkeypatch.setattr(verify, "solve_nonlocal", refuse)
        problem = StudyProblem(center=(0.0, 0.0), radius=1.0, op=LAP)
        with pytest.raises(InvalidParameterError, match="spacing 0.25 is listed twice"):
            convergence_order_study(problem, h_list)

    def test_2d_laplacian_orders(self):
        problem = StudyProblem(center=(0.0, 0.0), radius=1.0, op=LAP)
        rows = convergence_order_study(problem, [1 / 8, 1 / 16])
        assert all(r.status == "Converged" for r in rows)
        assert rows[0].order is None
        assert rows[1].error < rows[0].error
        assert rows[1].order > 1.0

    def test_1d_study_reports_second_order(self):
        # With the 1-D measure of the piecewise-linear interpolant the
        # discrete solution is the cubic minus (h^2/12)(1 - |x|), so the
        # error is h^2/12.
        problem = StudyProblem(center=(0.0,), radius=1.0, op=LAP)
        rows = convergence_order_study(problem, [1 / 32, 1 / 64, 1 / 128])
        assert all(r.status == "Converged" for r in rows)
        for row in rows:
            assert row.error == pytest.approx(row.h ** 2 / 12, rel=1e-3)
        assert rows[-1].order == pytest.approx(2.0, abs=0.2)

    def test_1d_study_rows_are_the_same_on_three_blas_kernels(self):
        # OpenBLAS picks its kernel for the host (SkylakeX on an AVX-512
        # Xeon); OPENBLAS_CORETYPE forces Haswell or Prescott (which loads
        # Katmai).  OPENBLAS_VERBOSE=2 names the
        # kernel on a "Core:" line.  The rows keep every digit.
        runs = []
        for core in (None, "Haswell", "Prescott"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_VERBOSE="2",
                       PYTHONDONTWRITEBYTECODE="1")
            env.pop("OPENBLAS_CORETYPE", None)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            done = subprocess.run(
                [sys.executable, "-c", STUDY_DIGEST, str(Path(__file__).parents[1] / "src")],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            lines = (done.stdout + done.stderr).splitlines()
            runs.append((frozenset(x for x in lines if x.startswith("Core:")),
                         done.stdout.split()[-1]))
        if not any(cores for cores, _ in runs):
            pytest.skip("no Core: line: NumPy and SciPy do not use OpenBLAS")
        assert len({cores for cores, _ in runs}) == 3
        assert len({digest for _, digest in runs}) == 1
