"""Fixed-point stepping, the nonlocal solve, residual certificates and run reporting."""

import collections
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levelpde.elliptic import _DEFAULT_TOL, EllipticOperator, solve_dirichlet
from levelpde.errors import InvalidParameterError, NonConvergenceError
from levelpde.geometry import BoundaryData, build_ball, build_box, domain_measure
from levelpde.measure import ProfileFunction, ScalarField
from levelpde.outerloop import (
    OuterConfig,
    _snap_ties,
    fixed_point_step,
    plain_residual_parts,
    solve_nonlocal,
)

LAP = EllipticOperator.laplacian()


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


class TestFixedPointStep:
    def test_constant_profile_forgets_input(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        g = ProfileFunction.linear(0.0, -2.0, domain_measure(grid))
        psi = BoundaryData.zero()
        v1 = ScalarField.from_interior(grid, np.zeros(grid.n_interior))
        v2 = ScalarField.from_interior(
            grid, np.sin(7.0 * grid.interior_coords[:, 0]))
        u1 = fixed_point_step(v1, 0.3, 1.0, LAP, g, psi)
        u2 = fixed_point_step(v2, 0.3, 1.0, LAP, g, psi)
        assert np.array_equal(u1.interior, u2.interior)

    def test_fixed_point_is_fixed(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        g = linear_profile(grid)
        psi = BoundaryData.zero()
        u, rep = solve_nonlocal(LAP, grid, g, psi)
        assert rep.converged
        eps = rep.tie_snap
        again = fixed_point_step(u, eps, 1.0, LAP, g, psi)
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
        eps = rep.tie_snap
        for theta in (0.25, 0.5, 1.0):
            w = fixed_point_step(u, eps, theta, LAP, g, psi)
            gap = float(np.max(np.abs(w.interior - u.interior)))
            assert gap <= theta * 3.0 * rep.outer_tol + 1e-12

    def test_collapse_matches_plain_composition(self):
        # eps below the minimal value gap: the smoothed right side equals the
        # plain one bitwise, so the step output is bit-identical.
        from levelpde.elliptic import solve_dirichlet
        from levelpde.measure import rhs_plain, rhs_smoothed
        grid = build_box([(0, 1), (0, 1)], 0.25)
        g = linear_profile(grid)
        psi = BoundaryData.zero()
        v = ScalarField.from_interior(
            grid, np.linspace(0.0, 1.0, grid.n_interior))
        assert np.array_equal(rhs_smoothed(v, g, 1e-6),
                              rhs_plain(v, g))
        stepped = fixed_point_step(v, 1e-6, 1.0, LAP, g, psi)
        plain = solve_dirichlet(LAP, grid, rhs_plain(v, g), psi,
                                initial=v)
        assert np.array_equal(stepped.interior, plain.interior)

    def test_invalid_args(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        g = linear_profile(grid)
        v = ScalarField.from_interior(grid, np.zeros(grid.n_interior))
        with pytest.raises(InvalidParameterError):
            fixed_point_step(v, 0.0, 1.0, LAP, g, BoundaryData.zero())
        with pytest.raises(InvalidParameterError):
            fixed_point_step(v, 0.1, 0.0, LAP, g, BoundaryData.zero())
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            fixed_point_step(v, 0.1, 1.0, LAP, g, BoundaryData.zero(),
                             tol=math.inf)

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
        assert rep.converged and rep.total_iterations == 16
        assert len(calls) == 17

    def test_carried_defect_matches_the_public_residual(self, counted_disk_pucci):
        _, rep, (u, op, grid, g) = counted_disk_pucci
        assert plain_residual_parts(u, op, g) == (
            rep.final_plain_residual, rep.final_plain_residual_core,
            rep.final_plain_residual_band)
