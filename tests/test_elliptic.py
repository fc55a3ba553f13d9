"""Discrete Hessians, operator evaluation and the frozen-RHS Dirichlet solve."""

import math
import time

import numpy as np
import pytest

from levelpde.elliptic import (
    EllipticOperator,
    DirichletProblem,
    _DEFAULT_TOL,
    _eigenvalues,
    _laplacian,
    _matrix,
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


def defect(op, u, f):
    """||F(D^2 u) - f||_inf over interior nodes, by the package's evaluator."""
    return np.max(np.abs(apply_operator(op, u) - f))


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
        H = discrete_hessian(u, (2, 2))
        assert np.allclose(H, [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)

    def test_mixed_exact_full_stencil(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: p[:, 0] * p[:, 1])
        H = discrete_hessian(u, (2, 2))
        assert H[0, 1] == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_exact_random_matrices(self):
        rng = np.random.default_rng(3)
        for n, h in ((2, 0.25), (3, 0.25)):
            grid = build_box([(0, 1)] * n, h)
            A = rng.normal(size=(n, n))
            M = 0.5 * (A + A.T)
            u = quad_field(grid, M)
            H = hessian_field(u)
            for i in full_stencil_ordinals(grid):
                assert np.allclose(H[i], M, atol=1e-11)

    def test_one_sided_mixed_exact_on_quadratics(self):
        # Near the sphere the cross stencil loses corners; the one-sided
        # fallback is still exact on bilinear functions.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        u = ScalarField.sample(grid, lambda p: p[:, 0] * p[:, 1])
        H = hessian_field(u)
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
            H = discrete_hessian(u, node)
            s2 = float(x @ x)
            exact = 4.0 * s2 * np.eye(2) + 8.0 * np.outer(x, x)
            errs[h] = np.max(np.abs(H - exact))
        # O(h^2): quartering h's error by ~4
        assert errs[1 / 32] <= errs[1 / 16] / 3.0
        assert errs[1 / 32] < 5e-2

    @pytest.mark.parametrize("make_grid", [
        lambda: build_ball((0.0, 0.0), 1.0, 1 / 16),
        lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5),
    ])
    def test_trace_only_is_bitwise_the_trace(self, make_grid):
        # The Laplacian sums the (a, a) terms alone; that must not change a
        # bit of the trace of the full Hessian.
        grid = make_grid()
        u = ScalarField.sample(
            grid, lambda p: np.sin(2 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 0] * p[:, -1] ** 2)
        full = np.einsum("nii->n", hessian_field(u))
        assert hessian_field(u, trace_only=True).tobytes() == full.tobytes()

    def test_non_interior_node_rejected(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        with pytest.raises(InvalidParameterError):
            discrete_hessian(u, (0, 0))

    def test_trace_required(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.from_interior(grid, np.zeros(grid.n_interior))
        with pytest.raises(InvalidParameterError):
            hessian_field(u)


class TestApplyOperator:
    def test_pucci_on_indefinite_hessian(self):
        # u = (x^2 - y^2)/2 has Hessian diag(1, -1)
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, np.diag([1.0, -1.0]))
        mm = apply_operator(EllipticOperator.pucci_minus(1, 2), u)
        mp = apply_operator(EllipticOperator.pucci_plus(1, 2), u)
        assert np.allclose(mm, -1.0, atol=1e-11)
        assert np.allclose(mp, +1.0, atol=1e-11)

    def test_identity_hessian(self):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, np.eye(2))
        lam, Lam = 0.5, 3.0
        assert np.allclose(apply_operator(LAP, u), 2.0, atol=1e-11)
        assert np.allclose(
            apply_operator(EllipticOperator.pucci_minus(lam, Lam), u),
            2 * lam, atol=1e-11)
        assert np.allclose(
            apply_operator(EllipticOperator.pucci_plus(lam, Lam), u),
            2 * Lam, atol=1e-11)

    def test_negative_definite_gives_Lam_trace(self):
        # All eigenvalues negative: pucci_minus degenerates to Lam * trace.
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = quad_field(grid, -np.eye(2))
        out = apply_operator(EllipticOperator.pucci_minus(1, 2), u)
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
        lo = apply_operator(EllipticOperator.pucci_minus(lam, Lam), f)
        mid = apply_operator(LAP, f)
        hi = apply_operator(EllipticOperator.pucci_plus(lam, Lam), f)
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)

    def test_laplacian_is_the_trace_of_the_hessian(self):
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5)
        u = ScalarField.sample(
            grid, lambda p: np.sin(2 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 0] * p[:, 2] ** 2)
        H = hessian_field(u)
        lap = apply_operator(LAP, u)
        eig_sum = np.sum(_eigenvalues(H), axis=1)
        assert np.max(np.abs(lap - eig_sum)) <= 1e-12 * np.max(np.abs(H))

    def test_invalid_operator_params(self):
        with pytest.raises(InvalidParameterError):
            EllipticOperator.pucci_minus(2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            EllipticOperator("laplacian", 1.0, 2.0)

    @pytest.mark.parametrize("lam, Lam", [(1.0, math.inf), (math.inf, math.inf),
                                          (1.0, math.nan), (math.nan, 2.0)])
    def test_non_finite_ellipticity_constants_rejected(self, lam, Lam):
        # Lambda = inf used to pass and then poison the solve with NaNs.
        for make in (EllipticOperator.pucci_minus, EllipticOperator.pucci_plus):
            with pytest.raises(InvalidParameterError):
                make(lam, Lam)

    def test_concave_bump_does_not_increase_pucci_minus(self):
        # Adding a nonnegative spike at a node shifts its Hessian down by a
        # multiple of the identity, so the evaluated operator cannot grow:
        # the scheme is degenerate elliptic at the node itself.
        rng = np.random.default_rng(23)
        grid = build_box([(0, 1), (0, 1)], 0.125)
        op = EllipticOperator.pucci_minus(0.8, 2.5)
        u = ScalarField.sample(
            grid, lambda p: np.sin(2 * p[:, 0]) * np.cos(3 * p[:, 1]))
        base = apply_operator(op, u)
        for i in rng.choice(full_stencil_ordinals(grid), size=8, replace=False):
            for c in rng.uniform(0.0, 0.5, size=3):
                bumped = u.interior.copy()
                bumped[i] += c
                out = apply_operator(op, u.with_interior(bumped))
                assert out[i] <= base[i] + 1e-12


class TestFrozenWeights:
    @staticmethod
    def eigh_weights(op, H):
        """Weights from a full eigendecomposition at every node."""
        vals, vecs = np.linalg.eigh(H)
        pos, neg = (op.lam, op.Lam) if op.kind == "pucci_minus" else (op.Lam, op.lam)
        w = np.where(vals > 0.0, pos, neg)
        return np.einsum("nik,nk,njk->nij", vecs, w, vecs)

    @staticmethod
    def hessians(rng, n):
        """Definite, zero-eigenvalue and mixed symmetric matrices."""
        out = []
        for kind in ("pos", "neg", "zero", "mixed") * 6:
            if kind == "zero":
                d = rng.permutation([0.0] + list(rng.choice([-1, 1], n - 1)
                                                 * rng.uniform(0.5, 2, n - 1)))
                out.append(np.diag(d))
                continue
            d = rng.uniform(0.5, 2.0, n)
            if kind == "neg":
                d = -d
            elif kind == "mixed":
                d[rng.permutation(n)[: rng.integers(1, n)]] *= -1
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            out.append(Q @ np.diag(d) @ Q.T)
        out.append(np.zeros((n, n)))
        return np.array(out)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("op", [EllipticOperator.pucci_minus(0.3, 2.0),
                                    EllipticOperator.pucci_plus(0.3, 2.0)])
    def test_match_full_eigh_weights(self, n, op, monkeypatch):
        H = self.hessians(np.random.default_rng(n), n)
        eigs = _eigenvalues(H)
        mixed = np.count_nonzero((eigs.min(axis=1) <= 0) & (eigs.max(axis=1) > 0))
        decomposed = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda M: decomposed.append(len(M)) or real(M))
        W = op.frozen_weights(H, eigs)
        monkeypatch.undo()
        assert decomposed == [mixed] and 0 < mixed < len(H)
        ref = self.eigh_weights(op, H)
        assert np.max(np.abs(W - ref)) <= 1e-12 * np.max(np.abs(ref))
        F = op.evaluate_eigenvalues(eigs)
        trWH = np.einsum("nij,nij->n", W, H)
        assert np.max(np.abs(trWH - F)) <= 1e-12 * np.max(np.abs(F))


class TestEvaluateEigenvalues:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("op", [EllipticOperator.pucci_minus(0.3, 2.0),
                                    EllipticOperator.pucci_plus(0.1, 1.0)])
    def test_bitwise_the_sum_over_axis_1(self, n, op):
        # Magnitudes 1e-20 .. 1e20 make the order of the adds show, and
        # exact zeros of both signs their sign handling.
        rng = np.random.default_rng(n)
        eigs = rng.normal(size=(4000, n)) * 10.0 ** rng.integers(-20, 21, (4000, n))
        eigs[rng.random((4000, n)) < 0.2] = 0.0
        eigs[rng.random((4000, n)) < 0.2] = -0.0
        eigs = np.sort(eigs, axis=1)
        hi, lo = (op.lam, op.Lam) if op.kind == "pucci_minus" else (op.Lam, op.lam)
        old = (hi * np.sum(np.maximum(eigs, 0.0), axis=1)
               + lo * np.sum(np.minimum(eigs, 0.0), axis=1))
        new = op.evaluate_eigenvalues(eigs)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


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
        psi = BoundaryData.from_callable(
            lambda p: np.sin(2 * p[:, 0]) + p[:, -1] ** 3 - p[:, 0] * p[:, -1])
        u = ScalarField.sample(grid, psi.evaluate)
        B = rng.normal(size=(grid.n_interior, grid.n, grid.n))
        W = 0.5 * (B + np.transpose(B, (0, 2, 1)))
        # The offset is tr(W H(0)), the boundary terms of every row.
        H0 = DirichletProblem(EllipticOperator.pucci_minus(1, 2), grid, psi).H0
        lhs = _matrix(grid, W) @ u.interior + np.einsum("nij,nij->n", W, H0)
        H = hessian_field(u)
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

    def test_laplacian_solve_needs_one_lu_solve(self, monkeypatch):
        from levelpde import elliptic

        solves = []

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                solves.append(len(b))
                return self.lu.solve(b)

        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu", lambda A: CountingLU(real(A)))
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5)
        u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        assert solves == [grid.n_interior]
        assert defect(LAP, u, -1.0) <= _DEFAULT_TOL[LAP.kind]

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

    @pytest.mark.parametrize("forcing", [
        lambda grid: np.zeros(grid.n_interior + 1),
        lambda grid: np.full(grid.n_interior, np.nan),
        lambda grid: ScalarField.from_interior(grid, np.zeros(grid.n_interior)),
    ], ids=["long", "nan", "field"])
    def test_forcing_is_a_scalar_or_an_interior_vector(self, forcing):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 4)
        with pytest.raises(InvalidParameterError):
            solve_dirichlet(LAP, grid, forcing(grid), BoundaryData.zero())

    def test_ball_closed_form_second_order(self):
        # Laplacian, f = -omega_2 |x|^2, psi = 0 has the radial quartic
        # solution with center value pi/16.
        errs = {}
        for h in (1 / 16, 1 / 32):
            grid = build_ball((0.0, 0.0), 1.0, h)
            s2 = np.sum(grid.interior_coords ** 2, axis=1)
            f = -math.pi * s2
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

    def test_policy_matches_the_closed_form(self):
        # f = -pi |x|^2 / 2 < 0 with psi = 0 keeps the Hessian negative
        # definite, so P-(1, 2) is 2 Laplacian: u = (pi / 64)(1 - |x|^4),
        # and Howard's output is the discrete Laplacian solve of f / 2.
        op = EllipticOperator.pucci_minus(1.0, 2.0)
        errs = []
        for h in (1 / 8, 1 / 16):
            grid = build_ball((0.0, 0.0), 1.0, h)
            s2 = np.sum(grid.interior_coords ** 2, axis=1)
            f = -math.pi * s2 / 2
            u = solve_dirichlet(op, grid, f, BoundaryData.zero(), tol=1e-9)
            lap = solve_dirichlet(LAP, grid, f / 2,
                                  BoundaryData.zero())
            assert np.allclose(u.interior, lap.interior, atol=5e-10)
            errs.append(np.max(np.abs(u.interior - math.pi / 64 * (1 - s2 ** 2))))
        assert errs[1] <= errs[0] / 2.5 and errs[1] < 1e-3

    def test_1d_solve(self):
        grid = build_box([(-1, 1)], 1 / 64)
        # u'' = -2 with psi = 0 gives u = 1 - x^2... scaled: u'' = -2
        u = solve_dirichlet(LAP, grid, -2.0, BoundaryData.zero())
        exact = 1.0 - grid.interior_coords[:, 0] ** 2
        assert np.allclose(u.interior, exact, atol=1e-10)


class TestPolicySolve:
    OP = EllipticOperator.pucci_minus(1.0, 2.0)

    @staticmethod
    def count_factorizations(monkeypatch):
        from levelpde import elliptic

        calls = []
        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu",
                            lambda A: calls.append(A.shape) or real(A))
        return calls

    def test_definite_hessians_reuse_the_laplacian_lu(self, monkeypatch):
        # psi = 0 and f < 0 keep every Hessian negative definite, so every
        # frozen W is Lam I and the preconditioned GMRES needs no new LU.
        calls = self.count_factorizations(monkeypatch)
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        tol = _DEFAULT_TOL[self.OP.kind]
        for f in (-1.0, -2.0):
            u = solve_dirichlet(self.OP, grid, f, BoundaryData.zero())
            assert defect(self.OP, u, f) <= tol
        assert calls == [(grid.n_interior, grid.n_interior)]

    def test_krylov_miss_factorizes_the_policy_matrix(self, monkeypatch):
        from levelpde import elliptic

        grid = build_box([(-1, 1), (-1, 1)], 1 / 8)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        ref = solve_dirichlet(self.OP, grid, 1.0, psi)
        calls = self.count_factorizations(monkeypatch)
        misses = []
        monkeypatch.setattr(elliptic, "gmres",
                            lambda A, b, **kw: misses.append(1) or (0.0 * b, 1))
        u = solve_dirichlet(self.OP, grid, 1.0, psi)
        assert len(misses) >= 2 and len(calls) == len(misses)
        assert defect(self.OP, u, 1.0) <= _DEFAULT_TOL[self.OP.kind]
        assert np.allclose(u.interior, ref.interior, atol=1e-7)

    def test_mixed_signs_keep_the_preconditioned_gmres(self, monkeypatch):
        # e^x sin 2y gives Hessians with eigenvalues of both signs, so no
        # policy step is a plain Laplacian solve: each assembles its matrix
        # and runs GMRES, 8 of them, as many as the policy iteration took
        # before definite steps were routed to the Laplacian LU.
        from levelpde import elliptic

        grid = build_box([(-1, 1), (-1, 1)], 1 / 32)
        _laplacian(grid)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        op = EllipticOperator.pucci_minus(0.1, 1.0)
        steps = []
        real = elliptic.gmres
        monkeypatch.setattr(elliptic, "gmres",
                            lambda *a, **k: steps.append(1) or real(*a, **k))
        u = solve_dirichlet(op, grid, 1.0, psi)
        assert len(steps) == 8
        assert defect(op, u, 1.0) <= _DEFAULT_TOL[op.kind]

    def test_equal_ellipticity_constants_need_no_gmres(self, monkeypatch):
        # With lam = Lam every frozen W is lam I, whatever the signs of the
        # eigenvalues, so every policy step is a Laplacian solve.
        from levelpde import elliptic

        grid = build_box([(-1, 1), (-1, 1)], 1 / 16)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        op = EllipticOperator.pucci_minus(0.5, 0.5)
        monkeypatch.setattr(elliptic, "gmres", None)
        u = solve_dirichlet(op, grid, 1.0, psi)
        assert defect(op, u, 1.0) <= _DEFAULT_TOL[op.kind]

    def test_small_ellipticity_ratio_certifies(self):
        grid = build_box([(-1, 1), (-1, 1)], 1 / 32)
        op = EllipticOperator.pucci_minus(0.05, 1.0)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        u = solve_dirichlet(op, grid, 1.0, psi)
        assert defect(op, u, 1.0) <= _DEFAULT_TOL[op.kind]

    def test_stall_raises_with_the_howard_history(self):
        # An unreachable tolerance: Howard reaches rounding in one step,
        # then four steps without a smaller residual end the solve.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(self.OP, grid, -1.0, BoundaryData.zero(), tol=1e-300)
        history = err.value.history
        assert history[0] == 1.0  # F(D^2 0) - f = 0 - (-1)
        assert len(history) == 6 and max(history[1:]) < 1e-12

    def test_diverging_howard_raises_in_seconds(self):
        # The centred cross is not monotone for lam/Lam = 0.01 on this box:
        # Howard's residuals grow after its second step, and the solve ends
        # after the stall instead of relaxing for minutes.
        grid = build_box([(-1, 1), (-1, 1)], 1 / 32)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        op = EllipticOperator.pucci_minus(0.01, 1.0)
        t0 = time.perf_counter()
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(op, grid, 1.0, psi)
        assert time.perf_counter() - t0 < 10.0
        history = err.value.history
        assert history[0] == pytest.approx(5.05e3, rel=1e-3)
        assert history[1] == pytest.approx(43.9, rel=1e-3)
        assert len(history) <= 6

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 4)
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            solve_dirichlet(self.OP, grid, -1.0, BoundaryData.zero(), tol=tol)


class TestMaximumPrinciple:
    def test_harmonic_bounds(self):
        grid = build_box([(0, 1), (0, 1)], 0.125)
        psi = BoundaryData.from_callable(lambda p: p[:, 0])
        u = solve_dirichlet(LAP, grid, 0.0, psi)
        rep = maximum_principle_check(LAP, u, 0.0, psi)
        assert rep.upper_applicable and rep.lower_applicable
        assert rep.passed
        assert rep.sup_u <= 1.0 + 1e-9 and rep.inf_u >= -1e-9

    def test_ball_torsion_positive(self):
        # f = -1, psi = 0: u = (1 - |x|^2)/(2n), max 1/(2n).
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        rep = maximum_principle_check(LAP, u, -1.0, BoundaryData.zero())
        assert rep.lower_applicable and rep.lower_ok
        assert not rep.upper_applicable
        exact = (1.0 - np.sum(grid.interior_coords ** 2, axis=1)) / 4.0
        assert np.allclose(u.interior, exact, atol=1e-9)
        assert rep.sup_u == pytest.approx(np.max(exact), abs=1e-9)

    def test_sign_of_ball_solution(self):
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        s2 = np.sum(grid.interior_coords ** 2, axis=1)
        f = -math.pi * s2
        u = solve_dirichlet(LAP, grid, f, BoundaryData.zero())
        rep = maximum_principle_check(LAP, u, f, BoundaryData.zero())
        assert rep.lower_applicable and rep.lower_ok
        assert np.all(u.interior >= -1e-9)
