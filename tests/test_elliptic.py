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
    _hessian,
    _laplacian,
    _matrix,
    apply_operator,
    discrete_hessian,
    hessian_field,
    maximum_principle_check,
    solve_dirichlet,
)
from levelpde.errors import InvalidParameterError, NonConvergenceError
from levelpde.geometry import (BoundaryData, build_annulus, build_ball, build_box,
                               build_trace, domain_measure)
from levelpde.measure import ProfileFunction, ScalarField
from levelpde.outerloop import solve_nonlocal

LAP = EllipticOperator.laplacian()


def quad_field(grid, M):
    """u(x) = 0.5 x^T M x sampled with its own boundary trace."""
    M = np.asarray(M, dtype=np.float64)
    return ScalarField.sample(grid, lambda p: 0.5 * np.einsum("ki,ij,kj->k", p, M, p))


def defect(op, u, f):
    """||F(D^2 u) - f||_inf over interior nodes, by the package's evaluator."""
    return np.max(np.abs(apply_operator(op, u) - f))


def laplacian_matrix(grid):
    """The sparse Laplacian matrix of the grid, as ``_matrix`` assembles it."""
    return _matrix(grid, np.broadcast_to(np.eye(grid.n), (grid.n_interior, grid.n, grid.n)))


def full_stencil_ordinals(grid):
    """Interior nodes whose entire 3^n neighborhood is interior."""
    N = grid.n_interior
    return np.flatnonzero(np.all([(src >= 0) & (src < N)
                                  for src in grid.plan.src.values()], axis=0))


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
        usable[grid.plan.terms[(0, 1)].node] = True
        assert np.allclose(H[usable, 0, 1], 1.0, atol=1e-10)

    def test_quartic_hessian_second_order(self):
        # u = |x|^4; compare the full discrete Hessian at (0.5, 0) with the
        # analytic one over two refinements.
        errs = {}
        for h in (1 / 16, 1 / 32):
            grid = build_box([(0, 1), (-0.5, 0.5)], h)
            u = ScalarField.sample(grid, lambda p: (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2)
            node = (int(round(0.5 / h)), int(round(0.5 / h)))
            x = grid.interior_coords[grid.ordinal(node)]
            assert np.allclose(x, [0.5, 0.0])
            H = discrete_hessian(u, node)
            s2 = float(x @ x)
            exact = 4.0 * s2 * np.eye(2) + 8.0 * np.outer(x, x)
            errs[h] = np.max(np.abs(H - exact))
        # O(h^2): quartering h's error by ~4
        assert errs[1 / 32] <= errs[1 / 16] / 3.0
        assert errs[1 / 32] < 5e-2

    @pytest.mark.parametrize("node", [(100, 100), (1,), (-1, 2), (2, 2, 2),
                                      (1.7, 2), (1.2, 2.9), (1.0, 2)])
    def test_node_off_the_lattice_rejected(self, node):
        grid = build_box([(0, 1), (0, 1)], 0.25)
        u = ScalarField.sample(grid, lambda p: p[:, 0])
        with pytest.raises(InvalidParameterError, match="not a node"):
            grid.ordinal(node)
        with pytest.raises(InvalidParameterError, match="not a node"):
            discrete_hessian(u, node)

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


KERNEL_GRIDS = {
    "ball-1d": lambda: build_ball((0.0,), 1.0, 1 / 64),
    "disk": lambda: build_ball((0.0, 0.0), 1.0, 1 / 16),
    "box-2d": lambda: build_box([(0.0, 1.0), (0.0, 0.5)], 1 / 8),
    "ball-3d": lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 6),
    "off-centre-ball": lambda: build_ball((0.1, 0.2, 0.3), 1.0, 1 / 6),
    "annulus-3d": lambda: build_annulus((0.0, 0.0, 0.0), 0.4, 1.0, 1 / 8),
    "box-3d": lambda: build_box([(0.0, 1.0), (0.0, 0.5), (-0.5, 0.5)], 1 / 8),
}


class TestHessianKernel:
    @pytest.mark.parametrize("name", KERNEL_GRIDS)
    def test_gather_sums_are_a_bincount_bit_for_bit(self, name):
        # The reference sums each key's terms with a plain bincount, which
        # adds a node's terms in order from +0.0.  The signed zeros in u and
        # psi give -0.0 terms, whose sums a bincount turns into +0.0.
        grid = KERNEL_GRIDS[name]()
        N, n = grid.n_interior, grid.n
        psi = BoundaryData.from_callable(
            lambda p: np.where(p[:, 0] < 0.2, np.cos(3 * p[:, 0]) - p[:, -1] ** 2, -0.0))
        trace = build_trace(grid, psi)
        rng = np.random.default_rng(7)
        for u in (rng.normal(size=N), np.where(rng.random(N) < 0.5, -0.0, 0.0)):
            x = np.concatenate((u, trace.values))
            ref = np.empty((N, n, n))
            for a in range(n):
                for b in range(a, n):
                    t = grid.plan.terms[(a, b)]
                    ref[:, a, b] = ref[:, b, a] = np.bincount(
                        t.node, t.kappa * (x[t.src] - u[t.node]), minlength=N)
            assert _hessian(grid, u, trace).tobytes() == ref.tobytes()
            trace_ref = sum(ref[:, a, a] for a in range(n))
            assert _hessian(grid, u, trace, trace_only=True).tobytes() == trace_ref.tobytes()

    def test_laplacian_reads_no_mixed_terms(self):
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 6)
        diagonal = {(0, 0), (1, 1), (2, 2)}
        prob = DirichletProblem(LAP, grid, BoundaryData.from_callable(lambda p: p[:, 0]))
        prob.solve(-1.0)
        assert set(grid.plan.terms) == diagonal
        # A Pucci operator needs the full Hessian, so it builds the rest.
        DirichletProblem(EllipticOperator.pucci_minus(1, 2), grid, BoundaryData.zero())
        assert set(grid.plan.terms) == diagonal | {(0, 1), (0, 2), (1, 2)}


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
        grid = build_box([(0, 1), (0, 1)], 0.125)
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
        with pytest.raises(InvalidParameterError, match="unknown operator kind"):
            EllipticOperator("biharmonic")

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
        A = laplacian_matrix(grid).tocoo()  # stored entries, zeros included
        rows, cols = A.row, A.col
        off = rows != cols
        steps = grid.interior_coords[rows[off]] - grid.interior_coords[cols[off]]
        assert np.all(np.count_nonzero(np.abs(steps) > 1e-12, axis=1) == 1)
        assert np.all(A.diagonal() < 0)


def count_lu_solves(monkeypatch) -> list:
    """Patch splu so that every solve with an LU it builds is recorded, by
    the length of its right-hand side."""
    from levelpde import elliptic

    solves = []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(len(b))
            return self.lu.solve(b)

    real = elliptic.splu
    monkeypatch.setattr(elliptic, "splu", lambda A, **kw: CountingLU(real(A, **kw)))
    return solves


class TestSolveDirichlet:
    def test_initial_guess_on_a_rebuilt_grid(self):
        # Grid.matches compares lattices, not objects: a start on an equal,
        # rebuilt grid gives the same solve as on the grid itself, and one on
        # another grid raises.
        op, zero = EllipticOperator.pucci_minus(1.0, 2.0), BoundaryData.zero()
        grid, twin = (build_ball((0.0, 0.0), 1.0, 1 / 8) for _ in range(2))
        start = solve_dirichlet(LAP, twin, -1.0, zero)
        u = solve_dirichlet(op, grid, -1.0, zero, initial=start)
        same = ScalarField(start.interior, build_trace(grid, zero))
        assert np.array_equal(u.interior,
                              solve_dirichlet(op, grid, -1.0, zero, initial=same).interior)
        other = solve_dirichlet(LAP, build_ball((0.0, 0.0), 1.0, 1 / 4), -1.0, zero)
        with pytest.raises(InvalidParameterError, match="different grid"):
            solve_dirichlet(op, grid, -1.0, zero, initial=other)

    def test_laplacian_factorized_once_per_grid(self, monkeypatch):
        from levelpde import elliptic

        calls = []
        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu",
                            lambda A, **kw: calls.append(A.shape) or real(A, **kw))
        # Both problems are mirror-symmetric: one LU, of the even sector's
        # block, serves them.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        for f, psi in ((-1.0, BoundaryData.zero()),
                       (2.0, BoundaryData.from_callable(lambda p: p[:, 0] ** 2))):
            solve_dirichlet(LAP, grid, f, psi)
        rows = _laplacian(grid).blocks[0][1]
        assert calls == [(rows, rows)]

    def test_laplacian_solve_needs_one_lu_solve(self, monkeypatch):
        # The torsion problem is mirror-symmetric: one solve, in the even
        # sector's block, on the 3-D ball and on the disk.
        solves = count_lu_solves(monkeypatch)
        for grid in (build_ball((0.0, 0.0, 0.0), 1.0, 1 / 5),
                     build_ball((0.0, 0.0), 1.0, 1 / 16)):
            solves.clear()
            u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
            assert solves == [_laplacian(grid).blocks[0][1]]
            assert defect(LAP, u, -1.0) <= _DEFAULT_TOL[LAP.kind]

    @pytest.mark.parametrize("center, h, bound", [
        ((0.0, 0.0, 0.0), 1 / 10, 200_000),  # one block: 0.64 M; COLAMD: 1.32 M
        ((0.1, 0.2, 0.3), 1 / 10, 200_000),  # split as well: 0.16 M
        ((0.0, 0.0), 1 / 32, 80_000),         # 65 k; one block: 103 k; COLAMD: 163 k
    ], ids=["ball3d", "ball3d-off-centre", "disk"])
    def test_laplacian_lu_fill(self, center, h, bound):
        # Minimum degree on A + A^T with diagonal pivots, on the 2^n mirror
        # sectors, all factored by a random right side; a fall-back to
        # COLAMD, to partial pivoting or to one block for the whole ball or
        # disk overshoots the bound.
        grid = build_ball(center, 1.0, h)
        lu = _laplacian(grid)
        lu.solve(random_rhs(grid))
        assert None not in lu.lus
        assert sum(x.L.nnz + x.U.nnz for x in lu.lus) <= bound

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0)], ids=["2d", "3d"])
    def test_diagonal_pivots_on_a_clipped_theta(self, center, monkeypatch):
        # At radius 1 + 1e-13 a lattice node sits on the sphere, its theta
        # hits the clip and the diagonal spans 2.6e2 ... 1.4e14: the
        # unpivoted LU still certifies in one triangular solve, of the even
        # sector's block (psi = 0 is mirror-symmetric), and matches a
        # partially pivoted LU.
        from scipy.sparse.linalg import splu

        solves = count_lu_solves(monkeypatch)
        grid = build_ball(center, 1.0 + 1e-13, 1 / 8)
        A = laplacian_matrix(grid)
        diag = -A.diagonal()
        assert diag.min() < 1e3 and diag.max() > 1e14
        prob = DirichletProblem(LAP, grid, BoundaryData.zero())
        u, res = prob.solve(-1.0)
        assert res <= prob.tol
        assert solves == [_laplacian(grid).blocks[0][1]]
        ref = splu(A).solve(np.full(grid.n_interior, -1.0) - prob.lap0)
        assert np.max(np.abs(u.interior - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_laplacian_inner_solve_is_one_triangular_solve(self, monkeypatch):
        # At h = 1/4096 one solve with the tridiagonal LU meets the
        # stencil-residual certificate; the inner solve does not refine.
        # The problem is mirror-symmetric: one solve, in the even half.
        from levelpde import elliptic

        solves = []
        real = elliptic.dgttrs
        monkeypatch.setattr(elliptic, "dgttrs",
                            lambda *a: solves.append(len(a[-1])) or real(*a))
        grid = build_box([(-1, 1)], 1 / 4096)
        u = solve_dirichlet(LAP, grid, -2.0, BoundaryData.zero())
        assert solves == [(grid.n_interior + 1) // 2]
        assert np.allclose(u.interior, 1.0 - grid.interior_coords[:, 0] ** 2, atol=1e-8)

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
        lambda grid: ScalarField.sample(grid, lambda p: 0.0 * p[:, 0]),
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

    @pytest.mark.parametrize("n, m", [(2, 14), (2, 24), (2, 28), (2, 32), (3, 14)])
    def test_annulus_torsion_closed_form(self, n, m):
        # -Lap u = 1, psi = 0 on the annulus (a, b).  At h = 1/14, 1/24 and
        # 1/28 (2-D) and 1/14 (3-D) some arm's neighbour rounds onto the
        # outer sphere; an arm sent to the inner sphere instead gave errors
        # of 3-7 h^2.  Correct arms stay within 0.06 h^2.
        a, b = 0.4, 1.0
        grid = build_annulus((0.0,) * n, a, b, 1 / m)
        r = np.linalg.norm(grid.interior_coords, axis=1)
        if n == 2:
            C = (b * b - a * a) / (4 * math.log(b / a))
            exact = (b * b - r * r) / 4 + C * np.log(r / b)
        else:
            B = (a * a - b * b) / (6 * (1 / a - 1 / b))
            exact = -r * r / 6 + (b * b / 6 - B / b) + B / r
        u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        assert np.max(np.abs(u.interior - exact)) <= 0.1 / m ** 2

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


def mirrors(grid):
    """The interior ordinals of each node's mirror image, one array per axis."""
    out = []
    for a in range(grid.n):
        index = list(grid.interior_index)
        index[a] = grid.shape[a] - 1 - index[a]
        out.append(grid._ordinal_flat[np.ravel_multi_index(index, grid.shape)])
    return out


def factorized(grid, monkeypatch):
    """The block diagonal of the matrices that the grid's Laplacian LU
    factorizes by the time it has solved the random right side
    random_rhs(grid), and the LU."""
    from scipy.sparse import block_diag

    from levelpde import elliptic

    seen = []
    real = elliptic.splu
    monkeypatch.setattr(elliptic, "splu",
                        lambda M, **kw: seen.append(M) or real(M, **kw))
    lu = _laplacian(grid)
    lu.solve(random_rhs(grid))
    return block_diag(seen, format="csc"), lu


def random_rhs(grid):
    return np.random.default_rng(3).normal(size=grid.n_interior)


def factored(lu):
    """The sectors whose blocks the sector LU has factored."""
    return [s for s, block in enumerate(lu.lus) if block is not None]


SYMMETRIC = {
    "ball-0.1": lambda: build_ball((0.0, 0.0, 0.0), 1.0, 0.1),
    "ball-1/16": lambda: build_ball((0.0, 0.0, 0.0), 1.0, 1 / 16),
    "annulus": lambda: build_annulus((0.0, 0.0, 0.0), 0.4, 1.0, 0.1),
    "box": lambda: build_box([(-1.0, 1.0)] * 3, 1 / 4),
    "box-even": lambda: build_box([(0.0, 1.0), (0.0, 0.6), (0.1, 0.6)], 0.1),
    "clipped-theta": lambda: build_ball((0.0, 0.0, 0.0), 1.0 + 1e-13, 1 / 8),
    "off-centre-ball": lambda: build_ball((0.1, 0.2, 0.3), 1.0, 0.1),
    "off-centre-annulus": lambda: build_annulus((0.1, 0.2, 0.3), 0.4, 1.0, 0.1),
    "disk": lambda: build_ball((0.0, 0.0), 1.0, 1 / 16),
    "off-centre-disk": lambda: build_ball((0.1, 0.2), 1.0, 1 / 16),
    "annulus-2d": lambda: build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16),
    "box-even-2d": lambda: build_box([(0.0, 0.7), (0.1, 0.6)], 0.1),
}


class TestMirrorSectors:
    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_laplacian_is_mirror_invariant(self, name):
        grid = SYMMETRIC[name]()
        A = laplacian_matrix(grid).tocsr()
        for p in mirrors(grid):
            assert np.all(p >= 0)
            assert (A[p][:, p] != A).nnz == 0

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_sector_solves_match_a_plain_lu(self, name, monkeypatch):
        from scipy.sparse.csgraph import connected_components
        from scipy.sparse.linalg import splu

        grid = SYMMETRIC[name]()
        B, lu = factorized(grid, monkeypatch)
        A = laplacian_matrix(grid)
        # 2^n sector blocks, all factored, no coupling between them.
        assert factored(lu) == list(range(2 ** grid.n))
        assert B.shape == A.shape and connected_components(B)[0] >= 2 ** grid.n
        b = random_rhs(grid)
        ref = splu(A).solve(b)
        assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", SYMMETRIC)
    def test_symmetric_right_sides_factor_the_even_sector_only(self, name):
        # A right side that is a function of each axis's distance from the
        # middle folds to exactly 0.0 in every odd sector, and u is its own
        # mirror image bit for bit.
        grid = SYMMETRIC[name]()
        offsets = [np.abs(2 * i - (s - 1)) for i, s in zip(grid.interior_index, grid.shape)]
        b = np.cos(sum((a + 1.0) * off for a, off in enumerate(offsets)))
        lu = _laplacian(grid)
        u = lu.solve(b)
        assert factored(lu) == [0]
        assert all(np.array_equal(u[m], u) for m in mirrors(grid))

    @pytest.mark.parametrize("name, s", [(name, s) for name, make in SYMMETRIC.items()
                                         for s in range(2 ** make().n)])
    def test_each_sector_factors_its_own_block_only(self, name, s):
        # The symmetric right side above, times sign(off_a) for each axis a
        # of sector s, is odd in those axes and even in the others: it folds
        # to exactly 0.0 outside sector s, and u has its parity bit for bit.
        grid = SYMMETRIC[name]()
        offsets = [2 * i - (m - 1) for i, m in zip(grid.interior_index, grid.shape)]
        b = np.cos(sum((a + 1.0) * np.abs(off) for a, off in enumerate(offsets)))
        for a, off in enumerate(offsets):
            if s >> a & 1:
                b = b * np.sign(off)
        lu = _laplacian(grid)
        u = lu.solve(b)
        assert factored(lu) == [s]
        assert all(np.array_equal(u[m], -u if s >> a & 1 else u)
                   for a, m in enumerate(mirrors(grid)))

    def test_data_odd_in_x_factors_the_x_odd_sector(self):
        # psi = x is odd in x and even in y and z, so the right side folds
        # to exactly 0.0 in every sector but 0 and 1.
        from scipy.sparse.linalg import splu

        grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 8)
        prob = DirichletProblem(LAP, grid, BoundaryData.from_callable(lambda p: p[:, 0]))
        u, _ = prob.solve(-1.0)
        A, lu = laplacian_matrix(grid), _laplacian(grid)
        assert factored(lu) == [0, 1]
        ref = splu(A).solve(np.full(grid.n_interior, -1.0) - prob.lap0)
        assert np.max(np.abs(u.interior - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_nonlocal_data_odd_in_x_factor_two_sectors_on_the_disk(self):
        # psi = x is even in y, so every outer step's right side sums to
        # exactly 0.0 in sectors 2 and 3 (y odd) and their blocks stay
        # unfactored.  A correction solve of the rounding residue rhs - A u
        # would put parts of 1e-12 there and factor both.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 64)
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
        _, rep = solve_nonlocal(LAP, grid, g, BoundaryData.from_callable(lambda p: p[:, 0]))
        assert rep.status == "Converged"
        assert factored(_laplacian(grid)) == [0, 1]

    def test_interval_factors_its_two_halves(self, monkeypatch):
        # A 1-D grid's LU calls neither SuperLU nor the sparse assembly: a
        # right side with parts of both parities factors the even half
        # (64 of 127 rows) and the odd one (63) with LAPACK's dgttrf.
        from levelpde import elliptic

        def refuse(*args, **kwargs):
            raise AssertionError("a 1-D LU reached SuperLU or the sparse assembly")

        grid = build_box([(-1.0, 1.0)], 1 / 64)
        rows = []
        real = elliptic.dgttrf
        monkeypatch.setattr(elliptic, "dgttrf", lambda *a: rows.append(len(a[1])) or real(*a))
        monkeypatch.setattr(elliptic, "splu", refuse)
        monkeypatch.setattr(elliptic, "_matrix", refuse)
        lu = _laplacian(grid)
        lu.solve(random_rhs(grid))
        assert factored(lu) == [0, 1] and rows == [64, 63]


# 1-D to 3-D boxes, balls and annuli, off-centre balls, a clipped theta, a
# spacing just below 1/12, and boxes with an even node count on two and on
# three axes: a node just below two mirror planes has both + neighbors in
# its own orbit, so its block's diagonal adds three entries of A (four in
# 3-D), and their order sets the bits.
STENCIL_ZOO = {
    "box-1d": lambda: build_box([(0.0, 1.0)], 1 / 8),
    "box-2d": lambda: build_box([(0.0, 1.0), (0.0, 0.5)], 1 / 8),
    "box-3d": lambda: build_box([(0.0, 1.0), (0.0, 0.5), (-1.0, 0.0)], 1 / 8),
    "ball-1d": lambda: build_ball((0.0,), 1.0, 1 / 32),
    "disk": lambda: build_ball((0.0, 0.0), 1.0, 1 / 32),
    "ball-3d": lambda: build_ball((0.0, 0.0, 0.0), 1.0, 0.1),
    "annulus-1d": lambda: build_annulus((0.1,), 0.3, 1.0, 1 / 32),
    "annulus-2d": lambda: build_annulus((0.0, 0.0), 0.4, 1.0, 1 / 16),
    "annulus-3d": lambda: build_annulus((0.0, 0.0, 0.0), 0.4, 1.0, 0.125),
    "off-centre-disk": lambda: build_ball((0.3, -0.2), 0.9, 1 / 20),
    "off-centre-ball": lambda: build_ball((0.1, 0.2, -0.3), 0.8, 1 / 8),
    "clipped-theta": lambda: build_ball((0.0, 0.0), 1.0 + 1e-13, 1 / 16),
    "h-0.0833333333333333": lambda: build_ball((0.0, 0.0), 1.0, 0.0833333333333333),
    "box-even-even": lambda: build_box([(0.0, 11 * 0.13)] * 2, 0.13),
    "box-even-3d": lambda: build_box([(0.0, 1.1), (0.0, 0.7), (0.0, 0.5)], 0.1),
}


def matrix_sector_block(grid, s):
    """Sector s of the sparse Laplacian that ``_matrix`` assembles, folded
    as ``_SectorLU`` documents it: at (row of r, row of q), the sum over the
    distinct nodes g q of chi_s(g) A[r, g q], adding the entries of A's
    representative rows in A's CSC order."""
    from scipy.sparse import coo_matrix

    A = laplacian_matrix(grid)
    index, shape, N = grid.interior_index, grid.shape, grid.n_interior
    offs = [2 * i - (m - 1) for i, m in zip(index, shape)]
    flip = sum((off > 0) << a for a, off in enumerate(offs))
    plane = sum((off == 0) << a for a, off in enumerate(offs))
    low = [np.minimum(i, m - 1 - i) for i, m in zip(index, shape)]
    rep = grid._ordinal_flat[np.ravel_multi_index(low, shape)]
    # The block's rows: the representatives not on a plane that s reflects.
    rows = np.flatnonzero((flip == 0) & (plane & s == 0))
    row = np.full(N, -1)
    row[rows] = np.arange(rows.size)
    r, c, v = A.indices, np.repeat(np.arange(N), np.diff(A.indptr)), A.data
    on = flip[r] == 0
    r, c, v = r[on], c[on], v[on]
    br, bc = row[r], row[rep[c]]
    keep = (br >= 0) & (bc >= 0)
    chi = np.array([(-1.0) ** bin(g).count("1") for g in range(8)])[flip[c] & s]
    return coo_matrix(((chi * v)[keep], (br[keep], bc[keep])),
                      shape=(rows.size, rows.size)).tocsc()


class TestSectorBlocksFromTheStencil:
    @pytest.mark.parametrize("name", STENCIL_ZOO)
    def test_blocks_are_the_folded_matrix_bit_for_bit(self, name):
        from levelpde.elliptic import _SectorLU

        grid = STENCIL_ZOO[name]()
        lu = _SectorLU(grid)
        for s in range(2 ** grid.n):
            got, ref = lu.block(s), matrix_sector_block(grid, s)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))

    @pytest.mark.parametrize("name", STENCIL_ZOO)
    def test_stencil_index_arrays_are_intp(self, name):
        # A gather or bincount with int32 indices copies them to intp first.
        plan = STENCIL_ZOO[name]().plan
        assert all(src.dtype == np.intp for src in plan.src.values())
        for key in plan.pairs:
            assert plan.terms[key].node.dtype == np.intp
            assert plan.terms[key].src.dtype == np.intp

    @pytest.mark.parametrize("name", [name for name, make in STENCIL_ZOO.items()
                                      if make().n >= 2])
    def test_laplacian_lu_assembles_no_matrix(self, name, monkeypatch):
        from levelpde import elliptic

        def refuse(*args, **kwargs):
            raise AssertionError("the Laplacian LU assembled a sparse matrix")

        grid = STENCIL_ZOO[name]()
        monkeypatch.setattr(elliptic, "_matrix", refuse)
        lu = _laplacian(grid)
        lu.solve(random_rhs(grid))
        assert factored(lu) == list(range(2 ** grid.n))


class TestPolicySolve:
    OP = EllipticOperator.pucci_minus(1.0, 2.0)

    @staticmethod
    def count_factorizations(monkeypatch):
        from levelpde import elliptic

        calls = []
        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu",
                            lambda A, **kw: calls.append(A.shape) or real(A, **kw))
        return calls

    def test_definite_hessians_reuse_the_laplacian_lu(self, monkeypatch):
        # psi = 0 and f < 0 keep every Hessian negative definite, so every
        # frozen W is Lam I and the preconditioned GMRES needs no new LU.
        # The data are mirror-symmetric, so the LU is the even sector's.
        calls = self.count_factorizations(monkeypatch)
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        tol = _DEFAULT_TOL[self.OP.kind]
        for f in (-1.0, -2.0):
            u = solve_dirichlet(self.OP, grid, f, BoundaryData.zero())
            assert defect(self.OP, u, f) <= tol
        rows = _laplacian(grid).blocks[0][1]
        assert calls == [(rows, rows)]

    @staticmethod
    def laplacian_blocks(grid):
        """The shapes of the Laplacian's sector blocks factored so far."""
        lu = _laplacian(grid)
        return sorted((hi - lo, hi - lo) for (lo, hi), block in zip(lu.blocks, lu.lus)
                      if block is not None)

    def test_krylov_miss_keeps_the_gmres_iterate(self, monkeypatch):
        # Three GMRES steps per policy step miss the algebraic target every
        # time.  Howard's loop re-freezes the weights at each missed iterate
        # and still certifies, and the only LUs are the Laplacian's blocks.
        from levelpde import elliptic

        grid = build_box([(-1, 1), (-1, 1)], 1 / 8)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        # The reference runs on a twin grid, so grid's LU is built under the count.
        ref = solve_dirichlet(self.OP, build_box([(-1, 1), (-1, 1)], 1 / 8), 1.0, psi)
        calls = self.count_factorizations(monkeypatch)
        infos = []
        real = elliptic.gmres

        def short_gmres(A, b, **kw):
            y, info = real(A, b, **{**kw, "restart": 3})
            infos.append(info)
            return y, info

        monkeypatch.setattr(elliptic, "gmres", short_gmres)
        u = solve_dirichlet(self.OP, grid, 1.0, psi)
        assert len(infos) >= 2 and all(info > 0 for info in infos)
        assert sorted(calls) == self.laplacian_blocks(grid)
        assert len(calls) == 2 ** grid.n
        assert defect(self.OP, u, 1.0) <= _DEFAULT_TOL[self.OP.kind]
        assert np.allclose(u.interior, ref.interior, atol=1e-7)

    def test_stuck_gmres_stalls_without_a_factorization(self, monkeypatch):
        # A GMRES that never moves leaves every policy step where it began:
        # the residual never falls, and Howard's stall ends the solve after
        # four steps.  No LU is built: a zero correction needs no block.
        from levelpde import elliptic

        grid = build_box([(-1, 1), (-1, 1)], 1 / 8)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        calls = self.count_factorizations(monkeypatch)
        steps = []
        monkeypatch.setattr(elliptic, "gmres",
                            lambda A, b, **kw: steps.append(1) or (0.0 * b, 1))
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(self.OP, grid, 1.0, psi)
        history = err.value.history
        assert len(history) == 5 and len(set(history)) == 1
        assert len(steps) == 4 and calls == []

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

    def test_small_ellipticity_ratio_certifies(self, monkeypatch):
        # GMRES misses its budget on some policy steps here; Howard's loop
        # certifies from its iterates with no LU beyond the Laplacian's.
        calls = self.count_factorizations(monkeypatch)
        grid = build_box([(-1, 1), (-1, 1)], 1 / 32)
        op = EllipticOperator.pucci_minus(0.05, 1.0)
        psi = BoundaryData.from_callable(lambda p: np.exp(p[:, 0]) * np.sin(2 * p[:, 1]))
        u = solve_dirichlet(op, grid, 1.0, psi)
        assert defect(op, u, 1.0) <= _DEFAULT_TOL[op.kind]
        assert sorted(calls) == self.laplacian_blocks(grid)

    def test_stall_raises_with_the_howard_history(self):
        # An unreachable tolerance: Howard reaches rounding in one step,
        # then four steps without a smaller residual end the solve.
        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(self.OP, grid, -1.0, BoundaryData.zero(), tol=1e-300)
        history = err.value.history
        assert history[0] == 1.0  # F(D^2 0) - f = 0 - (-1)
        assert len(history) == 6 and max(history[1:]) < 1e-12

    @pytest.mark.parametrize("stop", ["non-finite-residual", "failed-step",
                                      "non-finite-step"])
    def test_early_stops_raise_with_the_howard_history(self, stop, monkeypatch):
        # Each stop ends Howard's loop at once: the history holds the
        # start's residual alone, F(D^2 0) - f = 0 - (-1), or NaN.
        from levelpde import elliptic

        def step(*args):
            if stop == "failed-step":
                raise RuntimeError("factor is exactly singular")
            return np.full(grid.n_interior, np.nan)

        grid = build_ball((0.0, 0.0), 1.0, 1 / 8)
        if stop == "non-finite-residual":
            monkeypatch.setattr(elliptic, "_eigenvalues",
                                lambda H: np.full(H.shape[:2], np.nan))
        else:
            monkeypatch.setattr(elliptic, "_solve_linear", step)
            monkeypatch.setattr(elliptic, "_solve_frozen", step)
        with pytest.raises(NonConvergenceError) as err:
            solve_dirichlet(self.OP, grid, -1.0, BoundaryData.zero())
        history = err.value.history
        if stop == "non-finite-residual":
            assert len(history) == 1 and math.isnan(history[0])
        else:
            assert history == [1.0]

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
        rep = maximum_principle_check(u, 0.0)
        assert rep.upper_applicable and rep.lower_applicable
        assert rep.passed
        assert rep.sup_u <= 1.0 + 1e-9 and rep.inf_u >= -1e-9

    def test_ball_torsion_positive(self):
        # f = -1, psi = 0: u = (1 - |x|^2)/(2n), max 1/(2n).
        grid = build_ball((0.0, 0.0), 1.0, 1 / 16)
        u = solve_dirichlet(LAP, grid, -1.0, BoundaryData.zero())
        rep = maximum_principle_check(u, -1.0)
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
        rep = maximum_principle_check(u, f)
        assert rep.lower_applicable and rep.lower_ok
        assert np.all(u.interior >= -1e-9)
