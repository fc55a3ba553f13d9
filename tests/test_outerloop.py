"""Fixed-point stepping, the nonlocal solve, residual certificates and run reporting."""

import collections
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelpde import outerloop
from levelpde.cli import format_report
from levelpde.elliptic import (_DEFAULT_TOL, DirichletProblem, EllipticOperator,
                               apply_operator, solve_dirichlet)
from levelpde.errors import InvalidParameterError, NonConvergenceError
from levelpde.geometry import (BoundaryData, build_annulus, build_ball, build_box,
                               build_trace, domain_measure)
from levelpde.measure import ProfileFunction, ScalarField, rhs_plain
from levelpde.outerloop import (
    OuterConfig,
    _snap_ties,
    plain_residual_parts,
    solve_nonlocal,
)
from levelpde.verify import exact_ball_solution

LAP = EllipticOperator.laplacian()
PUCCI_MINUS = EllipticOperator.pucci_minus(1.0, 2.0)


def zero_data_field(grid, interior):
    return ScalarField(interior, build_trace(grid, BoundaryData.zero()))


def linear_profile(grid, a=-1.0, b=0.0):
    return ProfileFunction.linear(a, b, domain_measure(grid))


class TestSnapTies:
    def test_merges_clusters_to_minimum(self):
        v = np.array([1.0, 1.0 + 1e-15, 2.0, 2.0 - 1e-15, 5.0])
        out = _snap_ties(v, 1e-12)
        assert out[0] == out[1] == 1.0
        assert out[2] == out[3] == 2.0 - 1e-15
        assert out[4] == 5.0

    def test_leaves_separated_values(self):
        v = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(_snap_ties(v, 1e-12), v)

    def test_zero_snap_is_identity(self):
        v = np.random.default_rng(0).normal(size=10)
        assert _snap_ties(v, 0.0) is v

    @given(hnp.arrays(np.float64, st.integers(2, 40),
                      elements=st.integers(-6, 6).map(lambda k: 1.0 + k * 4e-13)),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_permutation(self, values, rnd):
        # Near-tie chains 4e-13 apart against a snap of 1e-12.
        perm = np.array(rnd.sample(range(values.size), values.size))
        out = _snap_ties(values, 1e-12)
        assert np.array_equal(_snap_ties(values[perm], 1e-12), out[perm])
        order = np.argsort(values)
        assert np.array_equal(_snap_ties(values, 1e-12, order), out)
        assert np.all(np.diff(out[order]) >= 0)


def solve_map(v, op, g, psi):
    """T(v), the map solve_nonlocal iterates: the Dirichlet solve with the
    plain forcing of v, started from v."""
    return solve_dirichlet(op, v.grid, rhs_plain(v, g), psi, initial=v)


class TestFixedPointStep:
    def test_constant_profile_forgets_input(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        g = ProfileFunction.linear(0.0, -2.0, domain_measure(grid))
        psi = BoundaryData.zero()
        v1 = zero_data_field(grid, np.zeros(grid.n_interior))
        v2 = zero_data_field(grid, np.sin(7.0 * grid.interior_coords[:, 0]))
        u1 = solve_map(v1, LAP, g, psi)
        u2 = solve_map(v2, LAP, g, psi)
        assert np.array_equal(u1.interior, u2.interior)

    def test_fixed_point_is_fixed(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        psi = BoundaryData.zero()
        u, rep = solve_nonlocal(LAP, grid, g, psi)
        assert rep.converged
        again = solve_map(u, LAP, g, psi)
        gap = float(np.max(np.abs(again.interior - u.interior)))
        # The cell-quantized map can amplify the accepted gap a little when
        # value orderings flip; the returned field is fixed to that scale.
        assert gap <= 3.0 * rep.outer_tol

    def test_damping_soundness(self):
        # A fixed point of T is fixed for every damped map and conversely.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        psi = BoundaryData.zero()
        u, rep = solve_nonlocal(LAP, grid, g, psi)
        Tu = solve_map(u, LAP, g, psi).interior
        for theta in (0.25, 0.5, 1.0):
            w = (1.0 - theta) * u.interior + theta * Tu
            gap = float(np.max(np.abs(w - u.interior)))
            assert gap <= theta * 3.0 * rep.outer_tol + 1e-12

    def test_1d_converges_toward_cubic_profile(self):
        # The 1-D measure of the interpolant gives 2|x| at every node but the
        # centre, where it gives h/2.  The second difference of the cubic is
        # exact except at the centre, where it is off by -2h/3, so the
        # discrete solution is the cubic minus (h^2/12)(1 - |x|).
        grid = build_box([(-1, 1)], 1 / 64)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        tol = _DEFAULT_TOL[LAP.kind]
        assert rep.final_plain_residual <= tol
        x = grid.interior_coords[:, 0]
        exact = (1.0 - np.abs(x) ** 3) / 3.0
        discrete = exact - grid.h ** 2 / 12.0 * (1.0 - np.abs(x))
        assert np.max(np.abs(u.interior - discrete)) <= tol
        # the discrete solution lies below the continuum one
        assert np.all(u.interior < exact)

    def test_1d_fine_grid_keeps_second_order(self):
        # At h = 1/4096 the first step's field exceeds 1, where rounding in
        # the second difference used to reach the inner tolerance, and the
        # top of the solution is resolved only if the solve does not keep
        # iterating at the fixed point.  This radius failed on both counts.
        r, h = 1.00783, 1 / 4096
        grid = build_ball((0.0,), r, h)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        x = grid.interior_coords[:, 0]
        exact = (r ** 3 - np.abs(x) ** 3) / 3.0
        err = float(np.max(np.abs(u.interior - exact)))
        assert err == pytest.approx(h ** 2 / 12, rel=0.05)


class TestSolveNonlocal:
    def test_zero_profile_solves_homogeneous(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        g = ProfileFunction.linear(0.0, 0.0, domain_measure(grid))
        psi = BoundaryData.from_callable(lambda p: p[:, 0])
        u, rep = solve_nonlocal(LAP, grid, g, psi)
        assert rep.converged
        assert np.allclose(u.interior, grid.interior_coords[:, 0], atol=1e-9)

    def test_ball_benchmark_small(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        exact = (math.pi / 16.0) * (1.0 - s2 ** 2)
        assert float(np.max(np.abs(u.interior - exact))) < 5e-3

    def test_pucci_rescaling_small(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        g = linear_profile(grid)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        u, rep = solve_nonlocal(op, grid, g, BoundaryData.zero())
        assert rep.converged
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        exact = (math.pi / 32.0) * (1.0 - s2 ** 2)
        assert float(np.max(np.abs(u.interior - exact))) < 5e-3

    def test_small_lam_pucci_plus_converges(self):
        # The P+(lam, 1) solution is the Laplacian one scaled by 1/lam, and so
        # is the default gap tolerance; unscaled, this solve ended
        # MaxIterations at the damping floor after 64 steps.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        op = EllipticOperator.pucci_plus(0.1, 1.0)
        u, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged and rep.total_iterations <= 20
        assert rep.outer_tol == pytest.approx(0.05 * grid.cell / 0.1, rel=1e-12)
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        exact = (math.pi / 16.0 / 0.1) * (1.0 - s2 ** 2)
        assert float(np.max(np.abs(u.interior - exact))) < 0.02 * np.max(exact)

    @pytest.mark.parametrize("center, h, op", [
        ((0.0, 0.0), 1 / 32, LAP),
        ((0.0, 0.0), 1 / 32, PUCCI_MINUS),
        ((0.0, 0.0, 0.0), 0.1, LAP),
    ], ids=["disk", "disk-pucci-minus", "ball3d"])
    def test_returned_field_meets_the_inner_tolerance(self, center, h, op, monkeypatch):
        # The returned field is the last inner output with its ties snapped,
        # which moves F(D^2 u) by far less than the inner tolerance: its own
        # residual against the last forcing meets that tolerance too.
        forcings = []
        real = DirichletProblem.solve
        monkeypatch.setattr(DirichletProblem, "solve",
                            lambda self, f, *a: forcings.append(f) or real(self, f, *a))
        grid = build_ball(center, 1.0, h)
        u, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged
        assert np.max(np.abs(apply_operator(op, u) - forcings[-1])) <= _DEFAULT_TOL[op.kind]

    def test_annulus_solve_and_positivity(self):
        from levelpde.geometry import build_annulus
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        assert np.all(u.interior > 0)

    def test_constant_profile_reaches_the_dirichlet_solution(self):
        # g = -1 freezes to the same forcing for every iterate.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        g = ProfileFunction.linear(0.0, -1.0, domain_measure(grid))
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        assert rep.total_iterations <= 2 and rep.damping == 1.0
        ref = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        assert np.max(np.abs(u.interior - ref.interior)) <= rep.outer_tol

    def test_zero_profile_with_zero_data_stops_at_once(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        g = ProfileFunction.linear(0.0, 0.0, domain_measure(grid))
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged and rep.total_iterations == 1
        assert np.all(u.interior == 0.0)

    @pytest.mark.parametrize("n, nodes", [(1, 4), (2, 128), (3, 2228)])
    def test_annulus_barely_wider_than_two_cells_converges(self, n, nodes):
        from levelpde.geometry import build_annulus
        h = 1 / 16
        grid = build_annulus((0.0,) * n, 0.5, 0.5 + 2.05 * h, h)
        assert grid.n_interior == nodes
        u, rep = solve_nonlocal(LAP, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged

    def test_3d_ball_benchmark(self):
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.converged
        s = np.linalg.norm(grid.interior_coords, axis=1)
        # omega_3 / (2 * 3 * 5) * (1 - s^5)
        exact = (4 * math.pi / 3 / 30.0) * (1.0 - s ** 5)
        assert float(np.max(np.abs(u.interior - exact))) < 5e-3

    def test_one_stage_of_the_plain_map(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        u, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged and rep.total_iterations <= 15
        assert len(rep.stage_seconds) == 1
        assert all(r.epsilon == rep.tie_snap for r in rep.records)
        assert not any("skipped" in note for note in rep.notes)

    @pytest.mark.parametrize("c", [1.0, -5.0])
    def test_constant_boundary_data_probes_like_zero_data(self, c):
        # A constant psi makes v0 constant up to rounding; the snapped start
        # erases that rounding, so the solve takes the steps of psi = 0, and
        # the solution is that of psi = 0 shifted by c.
        for h in (1 / 8, 1 / 32):
            grid = build_ball((0.0, 0.0), 1.0, h)
            g = linear_profile(grid)
            u0, rep0 = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
            psi = BoundaryData.from_callable(lambda p: np.full(len(p), c))
            u, rep = solve_nonlocal(LAP, grid, g, psi)
            assert rep.converged and rep.total_iterations == rep0.total_iterations
            assert rep.tie_snap == pytest.approx(rep0.tie_snap, rel=1e-12)
            assert (np.max(np.abs(u.interior - c - u0.interior))
                    <= 1e-13 * max(1.0, abs(c)))

    def test_table_profile_slope_sets_the_default_gap_tolerance(self):
        # 0.00625 * 2^n n! * cell * max|g'| / lam, with max|g'| = 3.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        m = domain_measure(grid)
        g = ProfileFunction.from_table([0.0, m / 2, m], [0.0, -0.5 * m, -2.0 * m], m)
        cfg = OuterConfig(max_outer_iterations=1)
        rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero(), cfg)[1]
        assert rep.outer_tol == pytest.approx(0.00625 * 8 * grid.cell * 3.0, rel=1e-12)

    def test_max_iterations_status(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        cfg = OuterConfig(max_outer_iterations=2)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero(), cfg)
        assert rep.status == "MaxIterations"
        assert not rep.converged
        assert rep.total_iterations == 2

    def test_inner_failure_status(self):
        # The zero start meets any tolerance; the first step cannot meet 1e-300.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        cfg = OuterConfig(inner_tol=1e-300)
        u, rep = solve_nonlocal(EllipticOperator.pucci_minus(1.0, 2.0), grid, g,
                                BoundaryData.zero(), cfg)
        assert rep.status == "InnerFailure" and rep.total_iterations == 0
        assert any("inner solve failed" in n for n in rep.notes)

    def test_boundedness_violation_ends_in_inner_failure(self, monkeypatch):
        # A torsion function a thousand times too small shrinks the bound
        # below the first iterate.
        real = outerloop.solve_dirichlet

        def small_torsion(*args):
            u = real(*args)
            return u.with_interior(1e-3 * u.interior)

        monkeypatch.setattr(outerloop, "solve_dirichlet", small_torsion)
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        rep = solve_nonlocal(LAP, grid, linear_profile(grid), BoundaryData.zero())[1]
        assert rep.status == "InnerFailure" and rep.total_iterations == 1
        assert rep.bound_max_observed > rep.bound_limit
        assert rep.notes == [
            f"boundedness violated: sup |v| = {rep.bound_max_observed:.6e} "
            f"exceeds {rep.bound_limit:.6e}"]

    def test_diverging_howard_ends_in_inner_failure_in_seconds(self):
        # P+(0.05, 1) with mixed-sign data: the first step's Howard
        # iteration stalls, and the solve reports it instead of relaxing
        # for minutes.
        grid = build_box([(-1, 1), (-1, 1)], 1 / 32)
        psi = BoundaryData.from_callable(
            lambda p: 0.1 * np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        t0 = time.perf_counter()
        u, rep = solve_nonlocal(EllipticOperator.pucci_plus(0.05, 1.0), grid,
                                linear_profile(grid), psi)
        assert time.perf_counter() - t0 < 10.0
        assert rep.status == "InnerFailure"
        assert any("inner solve failed" in n for n in rep.notes)

    def test_homogeneous_start_failure_raises(self):
        # Nonzero data: the start itself misses an unreachable tolerance, and
        # there is no iterate to report on.
        grid = build_box([(-1, 1), (-1, 1)], 1 / 8)
        psi = BoundaryData.radial_poly((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(NonConvergenceError):
            solve_nonlocal(LAP, grid, linear_profile(grid), psi,
                           OuterConfig(inner_tol=1e-300))

    @pytest.mark.parametrize("field", ["inner_tol", "outer_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-3])
    def test_tolerances_must_be_positive_and_finite(self, field, value):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            OuterConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, 1.5, math.nan])
    def test_damping_must_lie_in_the_unit_interval(self, value):
        with pytest.raises(InvalidParameterError, match=r"damping must lie in \(0, 1\]"):
            OuterConfig(damping=value)

    def test_report_completeness(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        tol_inner = _DEFAULT_TOL[LAP.kind]
        assert rep.converged == (
            rep.final_increment <= rep.outer_tol
            and rep.final_inner_residual <= tol_inner
        )
        ks = [r.k for r in rep.records]
        assert ks == list(range(len(ks)))
        eps_seq = [r.epsilon for r in rep.records]
        assert all(a >= b for a, b in zip(eps_seq, eps_seq[1:]))

    def test_bound_recorded_and_respected(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert rep.bound_max_observed <= rep.bound_limit
        # sup of the torsion function on the unit disk is 1/4; |g| <= pi-ish
        assert rep.bound_limit == pytest.approx(
            0.25 * g.abs_bound(), rel=0.2)

    def test_determinism(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        u1, r1 = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        u2, r2 = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        assert np.array_equal(u1.interior, u2.interior)
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert (a.k, a.epsilon, a.increment, a.step_gap,
                    a.inner_residual, a.plain_residual) == \
                   (b.k, b.epsilon, b.increment, b.step_gap,
                    b.inner_residual, b.plain_residual)


class TestPlainResidual:
    def test_nonsolution_is_positive(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        rng = np.random.default_rng(1)
        u = ScalarField.sample(grid, lambda p: np.cos(3 * p[:, 0]) * p[:, 1])
        assert plain_residual_parts(u, LAP, g)[0] > 0.1

    def test_converged_run_is_consistent(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        g = linear_profile(grid)
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        tot = plain_residual_parts(u, LAP, g)[0]
        assert tot == rep.final_plain_residual
        # consistency level of the cell-quantized right side
        assert tot <= 1.0 * grid.h
        total, core, band = plain_residual_parts(u, LAP, g)
        assert total == max(core, band) or total == pytest.approx(max(core, band))

    def test_exact_sampled_solution_residual_small(self):
        # The sampled closed form is not the discrete fixed point, but its
        # defect must vanish at the discretization rate.
        vals = {}
        for h in (1 / 16, 1 / 32):
            grid = build_ball((0.0, 0.0), 1.0, h)
            g = linear_profile(grid)
            u = ScalarField.sample(
                grid,
                lambda p: (math.pi / 16) * (1 - np.sum(p ** 2, axis=1) ** 2))
            vals[h] = plain_residual_parts(u, LAP, g)[0]
        assert vals[1 / 32] < vals[1 / 16]
        assert vals[1 / 32] < 0.5


@pytest.fixture(scope="module")
def counted_disk_pucci():
    """A disk Pucci-minus(1, 2) solve at h = 1/16 on a fresh grid, with its
    calls of the Hessian, the matrix assembly, GMRES, the trace and the sorts
    of an iterate counted."""
    from levelpde import elliptic, geometry

    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in ((elliptic, "_hessian"), (elliptic, "_matrix"),
                          (elliptic, "gmres"), (geometry, "BoundaryTrace")):
            real = getattr(mod, name)
            mp.setattr(mod, name, lambda *a, _real=real, _name=name, **k:
                       calls.update([_name]) or _real(*a, **k))
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        # Sorts (argsort or sort) of a whole iterate.
        for name in ("argsort", "sort"):
            real = getattr(np, name)
            mp.setattr(np, name, lambda a, *r, _real=real, **k: calls.update(
                ["sort"] * (np.size(a) == grid.n_interior)) or _real(a, *r, **k))
        g = linear_profile(grid)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        u, rep = solve_nonlocal(op, grid, g, BoundaryData.zero())
    return calls, rep, (u, op, grid, g)


class TestWorkPerOuterStep:
    def test_two_hessians_per_outer_step(self, counted_disk_pucci):
        # One for the inner certificate, one for the plain residual of the
        # next iterate, which Howard's algorithm then starts from.  The
        # homogeneous start and the torsion solve count as steps too.
        calls, rep, _ = counted_disk_pucci
        assert rep.converged
        assert calls["_hessian"] <= 2 * (rep.total_iterations + 2)

    def test_one_trace_per_boundary_data(self, counted_disk_pucci):
        # psi for the nonlocal problem, zero data for the torsion bound.
        calls, _, _ = counted_disk_pucci
        assert calls["BoundaryTrace"] == 2

    def test_definite_policy_steps_are_laplacian_solves(self, counted_disk_pucci):
        # Every Hessian of this concave solution is negative definite, so
        # the only matrix assembled is the Laplacian, and GMRES never runs.
        calls, _, _ = counted_disk_pucci
        assert calls["_matrix"] == 1 and calls["gmres"] == 0

    def test_one_sort_per_iterate(self, counted_disk_pucci):
        # The tie snap's argsort serves the level statistics too; the
        # homogeneous start is sorted once as well.
        calls, rep, _ = counted_disk_pucci
        assert calls["sort"] <= rep.total_iterations + 1

    def test_1d_iterates_are_measured_once(self, monkeypatch):
        from levelpde import measure

        calls = []
        real = measure._interval_cell_measures
        monkeypatch.setattr(measure, "_interval_cell_measures",
                            lambda *a: calls.append(1) or real(*a))
        grid = build_box([(-1.0, 1.0)], 1 / 1024)
        _, rep = solve_nonlocal(LAP, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged and rep.total_iterations == 4
        assert len(calls) == 5

    def test_carried_defect_matches_the_public_residual(self, counted_disk_pucci):
        _, rep, (u, op, grid, g) = counted_disk_pucci
        assert plain_residual_parts(u, op, g) == (
            rep.final_plain_residual, rep.final_plain_residual_core,
            rep.final_plain_residual_band)


@pytest.fixture
def map_evaluations(monkeypatch):
    """Counts the evaluations of the solve map T in the next solve.  Each one
    reads the plain right-hand side of its iterate, and the returned field's
    plain residual reads one more, which the count leaves out."""
    calls = []
    real = outerloop.rhs_plain
    monkeypatch.setattr(outerloop, "rhs_plain",
                        lambda *a: calls.append(1) or real(*a))

    def solve(*args):
        calls.clear()
        u, rep = solve_nonlocal(*args)
        assert len(calls) - 1 == rep.total_iterations
        return u, rep, len(calls) - 1
    return solve


def off_centre_interval(h):
    grid = build_box([(-1.0, 1.0)], h)
    return grid, BoundaryData.from_callable(lambda p: 0.1 * p[:, 0])


def interval_annulus(h):
    return build_annulus((0.0,), 0.3, 1.0, h), BoundaryData.zero()


class TestAndersonMixing1D:
    def test_centred_interval_takes_four_map_evaluations(self, map_evaluations):
        grid = build_box([(-1.0, 1.0)], 1 / 1024)
        _, rep, evals = map_evaluations(LAP, grid, linear_profile(grid),
                                        BoundaryData.zero())
        assert rep.converged
        assert evals == 4

    @pytest.mark.parametrize("problem, h", [
        (off_centre_interval, 1 / 128), (off_centre_interval, 1 / 256),
        (off_centre_interval, 1 / 1024), (interval_annulus, 1 / 16),
        (interval_annulus, 1 / 256)])
    def test_no_more_steps_than_damped_picard(self, monkeypatch, problem, h):
        # An off-centre maximum and two components: the inputs whose fixed
        # point a centred, tied start does not hand over.
        grid, psi = problem(h)
        _, rep = solve_nonlocal(LAP, grid, linear_profile(grid), psi)
        monkeypatch.setattr(outerloop, "_ANDERSON_DEPTH", 0)
        _, picard = solve_nonlocal(LAP, grid, linear_profile(grid), psi)
        assert rep.status == picard.status == "Converged"
        assert rep.final_increment <= rep.outer_tol
        assert rep.total_iterations <= picard.total_iterations

    def test_constant_profile_takes_two_map_evaluations(self, map_evaluations):
        # T does not depend on the iterate, so the undamped step is T(v).
        grid = build_box([(-1.0, 1.0)], 1 / 256)
        g = ProfileFunction.linear(0.0, -1.0, domain_measure(grid))
        u, rep, evals = map_evaluations(LAP, grid, g, BoundaryData.zero())
        assert rep.converged and rep.damping == 1.0
        assert evals <= 2
        ref = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        assert np.max(np.abs(u.interior - ref.interior)) <= rep.outer_tol

    def test_budget_bounds_map_evaluations(self, map_evaluations):
        grid, psi = off_centre_interval(1 / 256)
        for budget in (1, 2, 5):
            _, rep, evals = map_evaluations(
                LAP, grid, linear_profile(grid), psi,
                OuterConfig(max_outer_iterations=budget))
            assert evals == budget
            assert rep.status == "MaxIterations"
            assert rep.notes == ["outer iteration budget exhausted"]

    def test_damping_is_read_and_reported(self):
        grid, psi = off_centre_interval(1 / 256)
        runs = [solve_nonlocal(LAP, grid, linear_profile(grid), psi,
                               OuterConfig(damping=theta))[1]
                for theta in (0.3, 0.5)]
        assert [rep.damping for rep in runs] == [0.3, 0.5]
        assert all(rep.converged for rep in runs)
        assert runs[0].records[0].increment != runs[1].records[0].increment

    def test_a_stall_drops_the_secants_and_the_mixing_goes_on(self, monkeypatch):
        # The gap cannot reach 1e-12: the measure moves in whole cells.  Each
        # evaluation of T reads one plain right-hand side, so the secants a
        # step fits (the columns of its least-squares fit, 0 for none) are
        # the ones between that step's forcing and the next.
        events = []
        real_fit, real_rhs = np.linalg.lstsq, outerloop.rhs_plain
        monkeypatch.setattr(np.linalg, "lstsq", lambda A, *a, **k:
                            events.append(A.shape[1]) or real_fit(A, *a, **k))
        monkeypatch.setattr(outerloop, "rhs_plain",
                            lambda *a: events.append(0) or real_rhs(*a))
        grid, psi = off_centre_interval(1 / 64)
        _, rep = solve_nonlocal(LAP, grid, linear_profile(grid), psi,
                                OuterConfig(outer_tol=1e-12))
        marks = [i for i, e in enumerate(events) if e == 0]
        secants = [max(events[i + 1:j], default=0) for i, j in zip(marks, marks[1:])]
        assert len(secants) == rep.total_iterations
        # Stalls: four steps without a 0.1 % fall of the best gap since the
        # last stall.
        stalls, best, idle = [], math.inf, 0
        for rec in rep.records:
            if rec.step_gap < 0.999 * best:
                best, idle = rec.step_gap, 0
            elif (idle := idle + 1) == 4:
                stalls.append(rec.k)
                best, idle = math.inf, 0
        assert rep.status == "MaxIterations"
        assert stalls[-1] == rep.total_iterations - 1
        assert len(rep.notes) == len(stalls) == 9
        assert [note.split("; ")[1] for note in rep.notes[:-1]] == [
            f"damping -> {0.5 / 2 ** i:g}" for i in range(1, 9)]
        assert rep.notes[-1] == "gap stalled at the damping floor"
        for k, end in zip(stalls, stalls[1:]):
            assert secants[k + 1] <= 1
            assert 2 in secants[k + 2:end + 1]
        # The returned field is an iterate with its certificate.
        assert rep.final_inner_residual <= _DEFAULT_TOL[LAP.kind]

    @pytest.mark.parametrize("op, g_slope", [
        (LAP, -1.0), (LAP, -3.0),
        (EllipticOperator.pucci_plus(0.5, 1.0), -1.0),
        (EllipticOperator.pucci_plus(0.5, 1.0), -3.0)],
        ids=["laplacian-t", "laplacian-3t", "plus-t", "plus-3t"])
    def test_near_tied_components(self, op, g_slope):
        # Two components whose maxima nearly tie: the gap rises on some steps,
        # and the secants must outlive them.
        grid = build_annulus((0.2,), 0.1, 1.0, 1 / 256)
        psi = BoundaryData.from_callable(lambda p: 0.02 * p[:, 0])
        _, rep = solve_nonlocal(op, grid, linear_profile(grid, g_slope), psi)
        assert rep.converged
        assert rep.total_iterations <= 20

    def test_records_follow_the_iterates(self):
        grid, psi = off_centre_interval(1 / 256)
        u, rep = solve_nonlocal(LAP, grid, linear_profile(grid), psi)
        assert [r.k for r in rep.records] == list(range(rep.total_iterations))
        assert rep.final_increment == rep.records[-1].step_gap
        assert rep.final_plain_residual == rep.records[-1].plain_residual
        assert rep.damping == 0.5

    def test_reports_are_byte_identical_across_runs(self):
        grid, psi = off_centre_interval(1 / 256)
        texts = set()
        for _ in range(2):
            _, rep = solve_nonlocal(LAP, grid, linear_profile(grid), psi)
            texts.add(format_report(rep))
        assert len(texts) == 1


class TestAndersonMixingMultiD:
    """The mixing on grids with n >= 2, against damped Picard (depth 0)."""

    @pytest.mark.parametrize("op, n, h, steps", [
        (PUCCI_MINUS, 2, 1 / 32, 6), (LAP, 3, 1 / 10, 7), (LAP, 2, 1 / 64, 7)],
        ids=["disk-pucci-h32", "ball3d-h10", "disk-h64"])
    def test_no_more_steps_than_damped_picard(self, monkeypatch, op, n, h, steps):
        grid = build_ball((0.0,) * n, 1.0, h)
        exact = exact_ball_solution((0.0,) * n, 1.0, n, op).value(grid.interior_coords)
        u, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        monkeypatch.setattr(outerloop, "_ANDERSON_DEPTH", 0)
        v, picard = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.status == picard.status == "Converged"
        assert rep.total_iterations <= min(steps, picard.total_iterations)
        err = np.max(np.abs(u.interior - exact))
        assert err <= 1.1 * np.max(np.abs(v.interior - exact))

    def test_depth_zero_is_damped_picard(self, monkeypatch):
        monkeypatch.setattr(outerloop, "_ANDERSON_DEPTH", 0)
        grid = build_ball((0.0, 0.0), 1.0, 1 / 32)
        _, rep = solve_nonlocal(PUCCI_MINUS, grid, linear_profile(grid),
                                BoundaryData.zero())
        assert rep.converged and rep.total_iterations == 13

    def test_annulus_spacings_that_converge(self):
        # Near the circle where u peaks the measure grows like the square
        # root of the depth below the maximum, so T is not Lipschitz there;
        # all nine spacings converge all the same.
        converged = set()
        for m in (12, 14, 16, 18, 20, 22, 24, 28, 32):
            grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / m)
            _, rep = solve_nonlocal(LAP, grid, linear_profile(grid),
                                    BoundaryData.zero())
            if rep.converged:
                converged.add(m)
        assert converged == {12, 14, 16, 18, 20, 22, 24, 28, 32}

    @pytest.mark.parametrize("op, steps", [
        (EllipticOperator.pucci_minus(0.5, 1.0), 25),
        (EllipticOperator.pucci_minus(0.25, 1.0), 12),
        (EllipticOperator.pucci_plus(0.25, 1.0), 10)],
        ids=["minus-0.5", "minus-0.25", "plus-0.25"])
    def test_pucci_annulus_steps(self, op, steps):
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)
        _, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged
        assert rep.total_iterations <= steps

    def test_stall_notes_name_the_new_damping(self):
        # bench/spans.py counts the damping halvings by this marker.
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16)
        _, rep = solve_nonlocal(LAP, grid, linear_profile(grid), BoundaryData.zero())
        assert rep.converged
        halvings = [note.split("damping -> ")[1] for note in rep.notes
                    if "damping ->" in note]
        assert len(halvings) == len(rep.notes) >= 1
        assert halvings == [f"{0.5 / 2 ** i:g}" for i in range(1, len(halvings) + 1)]


def radial_reference(n, a, b, op=LAP, cells=2000, steps=3000, weight=0.2):
    """The radial solution (r, u) on the centred annulus a < |x| < b of
    F(D^2 u) = -mu(u) with zero data, where mu(t) = omega_n (r+(t)^n - r-(t)^n)
    comes from the two monotone branches of a unimodal u, each inverted by
    linear interpolation.  A radial u has Hessian eigenvalues u'' and u'/r
    (n - 1 times), so F(D^2 u) = w(u'') (u'' + (n - 1) u'/r) + (n - 1)
    (w(u'/r) - w(u'')) u'/r, where w(e) is the operator's weight of an
    eigenvalue of the sign of e.  On ``cells`` equal cells the first term
    is in flux form, w(u'') (r^(n-1) u')' / r^(n-1), and u'/r a central
    difference; every solve takes w from its iterate's own differences.
    Damped Picard steps of ``weight`` reach the fixed point, since the map
    is not Lipschitz at the ridge."""
    omega = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[n]
    pos, neg = op._slopes
    r = np.linspace(a, b, cells + 1)
    dr = (b - a) / cells
    flux = (0.5 * (r[1:] + r[:-1])) ** (n - 1)  # r^(n-1) at the cell midpoints
    scale = r[1:-1] ** (n - 1) * dr ** 2

    def solve(u, rhs):
        w = np.where(u[2:] - 2 * u[1:-1] + u[:-2] > 0, pos, neg)  # w(u'')
        c = (n - 1) * (np.where(u[2:] > u[:-2], pos, neg) - w) / (2 * dr * r[1:-1])
        bands = np.zeros((3, cells - 1))
        bands[0, 1:] = (w * flux[1:] / scale + c)[:-1]
        bands[1] = -w * (flux[:-1] + flux[1:]) / scale
        bands[2, :-1] = (w * flux[:-1] / scale - c)[1:]
        return solve_banded((1, 1), bands, rhs)

    u = np.zeros(cells + 1)
    u[1:-1] = solve(u, -np.ones(cells - 1))  # the torsion function: unimodal
    for _ in range(steps):
        p = int(np.argmax(u))
        inner = np.interp(u, u[:p + 1], r[:p + 1])
        outer = np.interp(u, u[p:][::-1], r[p:][::-1])
        u[1:-1] += weight * (solve(u, -omega * (outer ** n - inner ** n)[1:-1]) - u[1:-1])
    return r, u


@pytest.fixture(scope="module")
def annulus_reference():
    return radial_reference(2, 0.4, 1.0)


@pytest.fixture(scope="module")
def shell_reference():
    return radial_reference(3, 0.4, 1.0)


@pytest.fixture(scope="module")
def pucci_annulus_reference():
    return radial_reference(2, 0.4, 1.0, PUCCI_MINUS)


def radial_error(op, grid, reference):
    """The solve's status and its max-norm error against the reference."""
    r, ref = reference
    u, rep = solve_nonlocal(op, grid, linear_profile(grid), BoundaryData.zero())
    s = np.linalg.norm(grid.interior_coords, axis=1)
    return rep.status, np.max(np.abs(u.interior - np.interp(s, r, ref)))


class TestAnnulusRadialReference:
    # An arm that crosses the inner sphere must end on it.  Sending every
    # arm whose neighbor lies inside the outer radius to the inner sphere
    # gives errors of 2-9 h^2 at every spacing below but 1/32.

    @pytest.mark.parametrize("m", [14, 24, 28, 32])
    def test_laplacian_error(self, annulus_reference, m):
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / m)
        status, err = radial_error(LAP, grid, annulus_reference)
        assert status == "Converged"
        assert err <= 0.2 * grid.h ** 2

    @pytest.mark.parametrize("m", [14, 15])
    def test_3d_laplacian_error(self, shell_reference, m):
        # Errors 0.116 h^2 and 0.104 h^2.  At h = 1/15 the solve ends
        # MaxIterations after 84 steps, its last iterate as close.
        grid = build_annulus((0.0, 0.0, 0.0), 0.4, 1.0, 1 / m)
        status, err = radial_error(LAP, grid, shell_reference)
        assert status in ("Converged", "MaxIterations")
        assert err <= 0.2 * grid.h ** 2

    @pytest.mark.parametrize("m", [14, 24])
    def test_pucci_minus_error(self, pucci_annulus_reference, m):
        # Errors 0.057 h^2 at both spacings.
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 1 / m)
        status, err = radial_error(PUCCI_MINUS, grid, pucci_annulus_reference)
        assert status == "Converged"
        assert err <= 0.1 * grid.h ** 2


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize adds about 0.2 s to every import of the package.
    src = str(Path(outerloop.__file__).resolve().parents[1])
    probe = ("import sys, levelpde; "
             "print(any(m.startswith('scipy.optimize') for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
