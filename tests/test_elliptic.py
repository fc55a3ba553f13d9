"""Discrete Hessians, operator evaluation and the frozen-RHS Dirichlet solve."""

import math

import numpy as np
import pytest

from levelpde.elliptic import (
    EllipticOperator,
    InnerSolveConfig,
    _assemble,
    _laplacian,
    apply_operator,
    discrete_hessian,
    hessian_field,
    maximum_principle_check,
    solve_dirichlet,
)
from levelpde.errors import InvalidParameterError, NonConvergenceError
from levelpde.geometry import BoundaryData, build_ball, build_box, build_trace
from levelpde.measure import ScalarField

LAP = EllipticOperator.laplacian()


def quad_field(grid, M):
    """u(x) = 0.5 x^T M x sampled with its own boundary trace."""
    M = np.asarray(M, dtype=np.float64)
    return ScalarField.sample(grid, lambda p: 0.5 * np.einsum("ki,ij,kj->k", p, M, p))


def full_stencil_ordinals(grid):
    """Interior nodes whose entire 3^n neighborhood is interior."""
    plan = grid.plan
    ok = np.ones(grid.n_interior, dtype=bool)
    for key in plan.arm_keys(grid.n):
        ok &= plan.nbr[key] >= 0
    for key in plan.pair_keys(grid.n):
        ok &= plan.diag[key] >= 0
    return np.flatnonzero(ok)


class TestDiscreteHessian:
    def test_pure_second_exact(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: 0.5 * p[:, 0] ** 2)
        H = discrete_hessian(u, grid, (2, 2))
        assert np.allclose(H, [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)

    def test_mixed_exact_full_stencil(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: p[:, 0] * p[:, 1])
        H = discrete_hessian(u, grid, (2, 2))
        assert H[0, 1] == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_exact_random_matrices(self):
        rng = np.random.default_rng(3)
        for n, h in ((2, 0.25), (3, 0.25)):
            grid = build_box([(0, 1)] * n, h)
            A = rng.normal(size=(n, n))
            M = 0.5 * (A + A.T)
            u = quad_field(grid, M)
            H = hessian_field(u, grid)
            for i in full_stencil_ordinals(grid):
                assert np.allclose(H[i], M, atol=1e-11)

    def test_one_sided_mixed_exact_on_quadratics(self):
        # Near the sphere the cross stencil loses corners; the one-sided
        # fallback is still exact on bilinear functions.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        u = ScalarField.sample(grid, lambda p: p[:, 0] * p[:, 1])
        H = hessian_field(u, grid)
        # Nodes with at least one usable mixed stencil carry (0, 1) terms:
        usable = np.zeros(grid.n_interior, dtype=bool)
        usable[grid.stencil.terms[(0, 1)].node] = True
        assert np.allclose(H[usable, 0, 1], 1.0, atol=1e-10)

    def test_quartic_hessian_second_order(self):
        # u = |x|^4; compare the full discrete Hessian at (0.5, 0) with the
        # analytic one over two refinements.
        errs = {}
        for h in (1 / 16, 1 / 32):
            grid = build_box([(0, 1), (-0.5, 0.5)], h)
            u = ScalarField.sample(grid, lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2)
            node = (int(round(0.5 / h)), int(round(0.5 / h)))
            x = grid.node_coords(node)
            assert np.allclose(x, [0.5, 0.0])
            H = discrete_hessian(u, grid, node)
            s2 = float(x @ x)
            exact = 4.0 * s2 * np.eye(2) + 8.0 * np.outer(x, x)
            errs[h] = np.max(np.abs(H - exact))
        # O(h^2): quartering h's error by ~4
        assert errs[1 / 32] <= errs[1 / 16] / 3.0
        assert errs[1 / 32] < 5e-2

    def test_non_interior_node_rejected(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        with pytest.raises(InvalidParameterError):
            discrete_hessian(u, grid, (0, 0))

    def test_trace_required(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.from_interior(grid, np.zeros(grid.n_interior))
        with pytest.raises(InvalidParameterError):
            hessian_field(u, grid)


class TestApplyOperator:
    def test_pucci_on_indefinite_hessian(self):
        # u = (x^2 - y^2)/2 has Hessian diag(1, -1)
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, np.diag([1.0, -1.0]))
        mm = apply_operator(EllipticOperator.pucci_minus(1, 2), u, grid).interior
        mp = apply_operator(EllipticOperator.pucci_plus(1, 2), u, grid).interior
        assert np.allclose(mm, -1.0, atol=1e-11)
        assert np.allclose(mp, +1.0, atol=1e-11)

    def test_identity_hessian(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, np.eye(2))
        lam, Lam = 0.5, 3.0
        assert np.allclose(apply_operator(LAP, u, grid).interior, 2.0, atol=1e-11)
        assert np.allclose(
            apply_operator(EllipticOperator.pucci_minus(lam, Lam), u, grid).interior,
            2 * lam, atol=1e-11)
        assert np.allclose(
            apply_operator(EllipticOperator.pucci_plus(lam, Lam), u, grid).interior,
            2 * Lam, atol=1e-11)

    def test_negative_definite_gives_Lam_trace(self):
        # All eigenvalues negative: pucci_minus degenerates to Lam * trace.
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, -np.eye(2))
        out = apply_operator(EllipticOperator.pucci_minus(1, 2), u, grid).interior
        assert np.allclose(out, 2 * (-2.0), atol=1e-11)

    def test_operator_ordering(self):
        rng = np.random.default_rng(11)
        grid = build_box([(0, 1), (0, 1)], 0.125)
        vals = rng.normal(size=grid.shape)
        field = ScalarField(grid, vals, build_trace(grid, BoundaryData.zero()))
        # Overwrite boundary trace with the lattice values so arms read the
        # sampled data; easiest is to sample a random smooth-ish function.
        f = ScalarField.sample(
            grid, lambda p: np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]) + p[:, 0] ** 2
        )
        lam, Lam = 0.7, 2.5
        lo = apply_operator(EllipticOperator.pucci_minus(lam, Lam), f, grid).interior
        mid = apply_operator(LAP, f, grid).interior
        hi = apply_operator(EllipticOperator.pucci_plus(lam, Lam), f, grid).interior
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)

    def test_invalid_operator_params(self):
        with pytest.raises(InvalidParameterError):
            EllipticOperator.pucci_minus(2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            EllipticOperator("laplacian", 1.0, 2.0)

    def test_concave_bump_does_not_increase_pucci_minus(self):
        # Adding a nonnegative spike at a node shifts its Hessian down by a
        # multiple of the identity, so the evaluated operator cannot grow:
        # the scheme is degenerate elliptic at the node itself.
        rng = np.random.default_rng(23)
        grid = build_box([(0, 1), (0, 1)], 0.125)
        op = EllipticOperator.pucci_minus(0.8, 2.5)
        u = ScalarField.sample(
            grid, lambda p: np.sin(2 * p[:, 0]) * np.cos(3 * p[:, 1]))
        base = apply_operator(op, u, grid).interior
        for i in rng.choice(full_stencil_ordinals(grid), size=8, replace=False):
            for c in rng.uniform(0.0, 0.5, size=3):
                bumped = u.interior.copy()
                bumped[i] += c
                out = apply_operator(op, u.with_interior(bumped), grid).interior
                assert out[i] <= base[i] + 1e-12


class TestAssembler:
    @pytest.mark.parametrize("make_grid", [
        lambda: build_box([(0, 1), (0, 1)], 0.2),
        lambda: build_ball((0.0, 0.0), 1.0, 1 / 8),
        lambda: build_box([(-1, 1)], 1 / 16),
        lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5),
    ])
    def test_matches_evaluator_for_random_weights(self, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(5)
        u = ScalarField.sample(
            grid, lambda p: np.sin(2 * p[:, 0]) + p[:, -1] ** 3 - p[:, 0] * p[:, -1]
        )
        B = rng.normal(size=(grid.n_interior, grid.n, grid.n))
        W = 0.5 * (B + np.transpose(B, (0, 2, 1)))
        A, c = _assemble(grid, W, u.trace)
        lhs = A @ u.interior + c
        H = hessian_field(u, grid)
        rhs = np.einsum("nij,nij->n", W, H)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_laplacian_has_only_axis_couplings(self):
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5)
        A = _laplacian(grid)[0].tocoo()  # stored entries, zeros included
        rows, cols = A.row, A.col
        off = rows != cols
        steps = grid.interior_coords[rows[off]] - grid.interior_coords[cols[off]]
        assert np.all(np.count_nonzero(np.abs(steps) > 1e-12, axis=1) == 1)
        assert np.all(A.diagonal() < 0)


class TestSolveDirichlet:
    def test_laplacian_factorized_once_per_grid(self, monkeypatch):
        from levelpde import elliptic

        calls = []
        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu",
                            lambda A: calls.append(A.shape) or real(A))
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        for f, psi in ((-1.0, BoundaryData.zero()),
                       (2.0, BoundaryData.from_callable(lambda p: p[:, 0]))):
            solve_dirichlet(LAP, grid, f, psi)
        assert calls == [(grid.n_interior, grid.n_interior)]

    def test_harmonic_linear_boundary(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        psi = BoundaryData.from_callable(lambda p: p[:, 0])
        u = solve_dirichlet(LAP, grid, 0.0, psi)
        assert np.allclose(u.interior, grid.interior_coords[:, 0], atol=1e-10)

    def test_quadratic_forcing(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        psi = BoundaryData.from_callable(lambda p: np.sum(p ** 2, axis=1))
        u = solve_dirichlet(LAP, grid, 4.0, psi)
        exact = np.sum(grid.interior_coords ** 2, axis=1)
        assert np.allclose(u.interior, exact, atol=1e-10)

    def test_ball_closed_form_second_order(self):
        # Laplacian, f = -omega_2 |x|^2, psi = 0 has the radial quartic
        # solution with center value pi/16.
        errs = {}
        for h in (1 / 16, 1 / 32):
            grid = build_ball((0.0, 0.0), 1.0, h)
            s2 = np.sum(grid.interior_coords ** 2, axis=1)
            f = ScalarField.from_interior(grid, -math.pi * s2)
            u = solve_dirichlet(LAP, grid, f, BoundaryData.zero())
            exact = (math.pi / 16.0) * (1.0 - s2 ** 2)
            errs[h] = float(np.max(np.abs(u.interior - exact)))
        assert errs[1 / 32] <= errs[1 / 16] / 2.5
        assert errs[1 / 32] < 2e-3
        # center value
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        ordc = grid.ordinal(tuple(s // 2 for s in grid.shape))
        assert ordc >= 0

    def test_pucci_quadratic_negative_definite(self):
        # u = -|x|^2/2: pucci_minus = Lam * (-n); quadratic exactness means
        # the discrete solution is the sampled quadratic up to the tolerance.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        psi = BoundaryData.from_callable(lambda p: -0.5 * np.sum(p ** 2, axis=1))
        u = solve_dirichlet(op, grid, -2.0 * 2.0, psi)
        exact = -0.5 * np.sum(grid.interior_coords ** 2, axis=1)
        assert np.allclose(u.interior, exact, atol=1e-6)

    def test_pucci_indefinite_constant_rhs(self):
        # u = (x^2 - y^2)/2 solves pucci_minus = lam - Lam.
        grid = build_box([(0, 1), (0, 1)], 0.125)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        psi = BoundaryData.from_callable(lambda p: 0.5 * (p[:, 0] ** 2 - p[:, 1] ** 2))
        u = solve_dirichlet(op, grid, 1.0 - 2.0, psi)
        exact = 0.5 * (grid.interior_coords[:, 0] ** 2 - grid.interior_coords[:, 1] ** 2)
        assert np.allclose(u.interior, exact, atol=1e-6)

    def test_pseudo_time_agrees_with_policy(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        f = ScalarField.from_interior(grid, -math.pi * s2 / 2)
        a = solve_dirichlet(op, grid, f, BoundaryData.zero(),
                            InnerSolveConfig(method="policy", tol=1e-9))
        b = solve_dirichlet(op, grid, f, BoundaryData.zero(),
                            InnerSolveConfig(method="pseudo_time", tol=1e-9))
        assert np.allclose(a.interior, b.interior, atol=5e-8)

    def test_max_iter_error_carries_history(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        cfg = InnerSolveConfig(method="pseudo_time", max_iter=3)
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(op, grid, -1.0, BoundaryData.zero(), cfg)
        assert len(err.value.history) == 3

    def test_1d_solve(self):
        grid = build_box([(-1, 1)], 1 / 64)
        # u'' = -2 with psi = 0 gives u = 1 - x^2... scaled: u'' = -2
        u = solve_dirichlet(LAP, grid, -2.0, BoundaryData.zero())
        exact = 1.0 - grid.interior_coords[:, 0] ** 2
        assert np.allclose(u.interior, exact, atol=1e-10)


class TestMaximumPrinciple:
    def test_harmonic_bounds(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        psi = BoundaryData.from_callable(lambda p: p[:, 0])
        u = solve_dirichlet(LAP, grid, 0.0, psi)
        rep = maximum_principle_check(LAP, u, 0.0, psi, grid)
        assert rep.upper_applicable and rep.lower_applicable
        assert rep.passed
        assert rep.sup_u <= 1.0 + 1e-9 and rep.inf_u >= -1e-9

    def test_ball_torsion_positive(self):
        # f = -1, psi = 0: u = (1 - |x|^2)/(2n), max 1/(2n).
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        rep = maximum_principle_check(LAP, u, -1.0, BoundaryData.zero(), grid)
        assert rep.lower_applicable and rep.lower_ok
        assert not rep.upper_applicable
        exact = (1.0 - np.sum(grid.interior_coords ** 2, axis=1)) / 4.0
        assert np.allclose(u.interior, exact, atol=1e-9)
        assert rep.sup_u == pytest.approx(np.max(exact), abs=1e-9)

    def test_sign_of_ball_solution(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        f = ScalarField.from_interior(grid, -math.pi * s2)
        u = solve_dirichlet(LAP, grid, f, BoundaryData.zero())
        rep = maximum_principle_check(LAP, u, f, BoundaryData.zero(), grid)
        assert rep.lower_applicable and rep.lower_ok
        assert np.all(u.interior >= -1e-9)
