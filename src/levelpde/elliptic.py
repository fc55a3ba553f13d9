"""Discrete F(D^2 u) and the inner Dirichlet solve for a frozen right side.

The discrete Hessian is the term table ``grid.stencil``, built once per grid:
Shortley-Weller second differences, the centred cross for mixed derivatives,
and averaged one-sided quadrants in the band where diagonal neighbors are
missing.  Every entry is evaluated in difference form, sum kappa (x_src -
u_i), in every dimension, so its rounding does not grow like eps |u| / h^2.
The same table gives the sparse matrix of tr(W D^2 u) for any weight field,
and the Laplacian matrix, factorized once per grid; that LU is the only
factorization a solve normally builds.  The Laplacian is evaluated as the
trace of the discrete Hessian (its diagonal terms only), the Pucci operators
through its eigenvalues (closed form in 1-D and 2-D).

Operator values come back as interior vectors; a forcing is a scalar or an
interior vector.  A ``DirichletProblem`` holds what one (grid, psi,
operator) fixes: the boundary trace and the boundary offset H(0).  A
nonlocal solve builds it once and hands each inner solve the Hessian of its
start, which it already evaluated for the plain residual.  Each operator has
one inner solver, and neither falls back to another:

* the Laplacian    the grid's LU, refined only while the algebraic residual
                   is not well below the tolerance,
* Pucci operators  Howard's algorithm: freeze the weights at the current
                   Hessian (w I where its eigenvalues share a sign,
                   eigenvectors only at the mixed-sign nodes) and solve the
                   linear problem, repeat.  Where W = w I on every row the
                   step is the Laplacian LU solve of L u = f / w - tr H(0);
                   otherwise it is GMRES preconditioned with that LU (a
                   direct LU if it misses its budget).  A stall (four steps
                   without a smaller residual) or _POLICY_MAX_ITER steps end
                   the solve with NonConvergenceError.

All per-node work is vectorized and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import InvalidParameterError, NonConvergenceError
from .geometry import BOUNDARY, BoundaryData, BoundaryTrace, Grid, build_trace
from .measure import ScalarField

__all__ = [
    "DirichletProblem",
    "EllipticOperator",
    "MaxPrincipleReport",
    "discrete_hessian",
    "apply_operator",
    "solve_dirichlet",
    "maximum_principle_check",
]

_DEFAULT_TOL = {"laplacian": 1e-8, "pucci_minus": 1e-6, "pucci_plus": 1e-6}
# Linear solves stop once their algebraic residual is this fraction of the
# inner tolerance, so the certificate is not spent on linear algebra.
_ALGEBRAIC_FRACTION = 0.01
# GMRES steps per policy solve before it factorizes its matrix instead.
_KRYLOV_BUDGET = 50
# Howard steps per inner solve.
_POLICY_MAX_ITER = 60


@dataclass(frozen=True)
class EllipticOperator:
    """Laplacian or extremal Pucci operator with ellipticity constants.

    ``pucci_minus`` weights positive Hessian eigenvalues by lam and negative
    ones by Lam; ``pucci_plus`` conversely.  F(0) = 0 for every variant.
    """

    kind: str
    lam: float = 1.0
    Lam: float = 1.0

    def __post_init__(self):
        if self.kind not in ("laplacian", "pucci_minus", "pucci_plus"):
            raise InvalidParameterError(f"unknown operator kind {self.kind!r}")
        if not (0 < self.lam <= self.Lam < math.inf):
            raise InvalidParameterError("need 0 < lam <= Lam < inf")
        if self.kind == "laplacian" and (self.lam != 1.0 or self.Lam != 1.0):
            raise InvalidParameterError("laplacian has lam = Lam = 1")

    @classmethod
    def laplacian(cls) -> "EllipticOperator":
        return cls("laplacian")

    @classmethod
    def pucci_minus(cls, lam: float, Lam: float) -> "EllipticOperator":
        return cls("pucci_minus", float(lam), float(Lam))

    @classmethod
    def pucci_plus(cls, lam: float, Lam: float) -> "EllipticOperator":
        return cls("pucci_plus", float(lam), float(Lam))

    @property
    def _slopes(self) -> tuple[float, float]:
        """(weight of positive eigenvalues, weight of the others)."""
        if self.kind == "pucci_plus":
            return self.Lam, self.lam
        return self.lam, self.Lam

    def evaluate(self, H: NDArray[np.float64]) -> NDArray[np.float64]:
        """F per node from the (N, n, n) Hessians: the trace for the
        Laplacian (which may be given as the (N,) traces), the eigenvalues
        for the Pucci operators."""
        if self.kind == "laplacian":
            return H if H.ndim == 1 else np.einsum("nii->n", H)
        return self.evaluate_eigenvalues(_eigenvalues(H))

    def evaluate_eigenvalues(self, eigs: NDArray[np.float64]) -> NDArray[np.float64]:
        """F per node from the (N, n) array of Hessian eigenvalues."""
        hi, lo = self._slopes
        # Column adds, left to right: the bits of a sum over axis 1, faster.
        pos, neg = np.maximum(eigs, 0.0).T, np.minimum(eigs, 0.0).T
        return hi * sum(pos[1:], pos[0]) + lo * sum(neg[1:], neg[0])

    def frozen_weights(self, H: NDArray[np.float64],
                       eigs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-node weight matrices W with tr(W H) = F(H) at the current H.

        ``eigs`` are the eigenvalues of H.  Where they all lie on one side
        (> 0, or <= 0) W is w I; eigenvectors are computed only at the nodes
        with eigenvalues on both sides.
        """
        hi, lo = self._slopes
        w = np.where(eigs > 0.0, hi, lo)
        W = w[:, 0, None, None] * np.eye(eigs.shape[1])
        mixed = np.flatnonzero(np.any(w != w[:, :1], axis=1))
        if mixed.size:
            vals, vecs = np.linalg.eigh(H[mixed])
            wm = np.where(vals > 0.0, hi, lo)
            W[mixed] = np.einsum("nik,nk,njk->nij", vecs, wm, vecs)
        return W


def _hessian(grid: Grid, uin: NDArray[np.float64], trace: BoundaryTrace,
             trace_only: bool = False) -> NDArray[np.float64]:
    """Sum every stencil term kappa * (x_src - u_i) into its Hessian entry.

    With ``trace_only`` only the (a, a) entries are summed, into tr H of
    shape (N,): the same bits as the trace of the full H, without the mixed
    terms (2/3 of them in 3-D).
    """
    N, n, terms = grid.n_interior, grid.n, grid.stencil.terms
    x = np.concatenate((uin, trace.values.ravel()))

    def entry(key):
        t = terms[key]
        return np.bincount(t.node, weights=t.kappa * (x[t.src] - uin[t.node]),
                           minlength=N)

    if trace_only:
        return sum(entry((a, a)) for a in range(n))
    H = np.empty((N, n, n), dtype=np.float64)
    for a, b in terms:
        H[:, a, b] = H[:, b, a] = entry((a, b))
    return H


def hessian_field(u: ScalarField, trace_only: bool = False) -> NDArray[np.float64]:
    """Discrete Hessians at every interior node, shape (N, n, n), or with
    ``trace_only`` their traces, shape (N,)."""
    if u.trace is None:
        raise InvalidParameterError(
            "field needs boundary data (a trace) to apply difference operators")
    return _hessian(u.grid, u.interior, u.trace, trace_only)


def _eigenvalues(H: NDArray[np.float64]) -> NDArray[np.float64]:
    """(N, n) eigenvalues of the Hessians, ascending in each row."""
    n = H.shape[1]
    if n == 1:
        return H[:, 0, 0:1].copy()
    if n == 2:
        m = 0.5 * (H[:, 0, 0] + H[:, 1, 1])
        d = np.sqrt((0.5 * (H[:, 0, 0] - H[:, 1, 1])) ** 2 + H[:, 0, 1] ** 2)
        return np.stack([m - d, m + d], axis=1)
    return np.linalg.eigvalsh(H)


def discrete_hessian(u: ScalarField, node: Iterable[int]) -> NDArray[np.float64]:
    """Hessian matrix at one interior node (multi-index)."""
    node = tuple(int(i) for i in node)
    ordinal = u.grid.ordinal(node)
    if ordinal < 0:
        raise InvalidParameterError(f"node {node} is not Interior")
    return hessian_field(u)[ordinal]


def apply_operator(op: EllipticOperator, u: ScalarField) -> NDArray[np.float64]:
    """F(D^2 u) per interior node, shape (N,): the trace of the discrete
    Hessian for the Laplacian, its eigenvalues for the Pucci operators."""
    return op.evaluate(hessian_field(u, trace_only=op.kind == "laplacian"))


# ---------------------------------------------------------------------------
# Assembly: rows of tr(W . H(u)) as a sparse matrix


def _matrix(grid: Grid, W: NDArray[np.float64]):
    """Sparse A with A @ u_int == tr(W H(u)) - tr(W H(0)) nodewise.

    Each term contributes w * kappa to its source's column when the source is
    interior, and -w * kappa to the diagonal; exactly zero couplings are
    dropped, so the Laplacian carries no mixed ones.
    """
    N = grid.n_interior
    rows, cols, vals, nodes, coefs = [], [], [], [], []
    for (a, b), t in grid.stencil.terms.items():
        # H is symmetric: W_ab H_ab is counted twice off the diagonal.
        coef = (1.0 if a == b else 2.0) * W[t.node, a, b] * t.kappa
        keep = (t.src < N) & (coef != 0.0)
        rows.append(t.node[keep])
        cols.append(t.src[keep])
        vals.append(coef[keep])
        nodes.append(t.node)
        coefs.append(coef)
    diag = -np.bincount(np.concatenate(nodes), np.concatenate(coefs), minlength=N)
    ids = np.arange(N)
    return coo_matrix(
        (np.concatenate(vals + [diag]),
         (np.concatenate(rows + [ids]), np.concatenate(cols + [ids]))),
        shape=(N, N),
    ).tocsc()


# ---------------------------------------------------------------------------
# Inner solvers


def _as_interior(f, grid: Grid) -> NDArray[np.float64]:
    """A copy of the forcing, one value per interior node; a scalar is
    broadcast to all of them."""
    try:
        vec = np.array(np.broadcast_to(f, (grid.n_interior,)), dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"forcing must be a scalar or {grid.n_interior} interior values") from None
    if not np.all(np.isfinite(vec)):
        raise InvalidParameterError("forcing must be finite on interior nodes")
    return vec


class DirichletProblem:
    """F(D^2 u) = f in Omega, u = psi: what one (grid, psi, operator) fixes.

    Built once per nonlocal solve and shared by all of its inner solves: the
    boundary trace, the boundary offset H(0) (the Hessian of zero interior
    values, so H(u) = H(0) + the linear part), and the field template that
    holds psi on the Boundary lattice nodes.  ``hessian`` evaluates D(u):
    only its trace for the Laplacian, the full Hessian for the Pucci
    operators; ``op.evaluate`` takes either.  The Hessian that certifies one
    solve's output is the one Howard's algorithm ended on.  ``tol`` is the
    max-norm residual target (None: 1e-8 Laplacian, 1e-6 Pucci).
    """

    def __init__(self, op: EllipticOperator, grid: Grid, psi: BoundaryData,
                 *, tol: float | None = None):
        if tol is not None and not 0 < tol < math.inf:
            raise InvalidParameterError("inner tolerance must be positive and finite")
        self.op, self.grid = op, grid
        self.tol = _DEFAULT_TOL[op.kind] if tol is None else tol
        self._trace_only = op.kind == "laplacian"
        self.trace = build_trace(grid, psi)
        self.H0 = self.hessian(np.zeros(grid.n_interior))
        self.lap0 = self.H0 if self.H0.ndim == 1 else np.einsum("nii->n", self.H0)
        vals = np.full(grid.shape, np.nan, dtype=np.float64)
        bmask = grid.node_class == BOUNDARY
        if np.any(bmask):
            idx = np.nonzero(bmask)
            pts = np.stack([grid.axis_coords[k][idx[k]] for k in range(grid.n)], axis=1)
            vals[bmask] = psi.evaluate(pts)
        self._template = ScalarField(grid, vals, self.trace)

    def hessian(self, u_int: NDArray[np.float64]) -> NDArray[np.float64]:
        return _hessian(self.grid, u_int, self.trace, self._trace_only)

    def solve(self, f, initial: ScalarField | None = None,
              hessian: NDArray[np.float64] | None = None) -> tuple[ScalarField, float]:
        """(u, residual) for F(D^2 u) = f, started from ``initial``, whose
        Hessian D(initial) the caller may pass as ``hessian``.  ``f`` is a
        scalar or one value per interior node.

        The residual ||F(D^2 u) - f||_inf is measured on the returned field
        and is at most the tolerance; otherwise NonConvergenceError carries
        the residual history.
        """
        fvec = _as_interior(f, self.grid)
        if initial is None:
            u0, hessian = np.zeros(self.grid.n_interior), self.H0
        elif not initial.grid.matches(self.grid):
            raise InvalidParameterError("initial guess belongs to a different grid")
        else:
            u0 = initial.interior
        if self.op.kind == "laplacian":
            u = _solve_linear(self, fvec, self.tol)
            history = [float(np.max(np.abs(self.op.evaluate(self.hessian(u)) - fvec)))]
        else:
            u, history = _solve_policy(self, fvec, u0, hessian)
        res = history[-1]
        if not res <= self.tol:
            raise NonConvergenceError(
                f"inner solve finished with residual {res:.3e} above tol "
                f"{self.tol:.3e}", history)
        return self._template.with_interior(u), res


def _laplacian(grid: Grid) -> tuple:
    """The Laplacian matrix and its LU, built once and kept with the stencil,
    so repeated frozen-RHS solves cost triangular solves only."""
    table = grid.stencil
    if table.laplacian is None:
        A = _matrix(grid, np.broadcast_to(np.eye(grid.n),
                                          (grid.n_interior, grid.n, grid.n)))
        table.laplacian = (A, splu(A))
    return table.laplacian


def _solve_linear(prob: DirichletProblem, f, tol):
    """Solve L u + tr H(0) = f with the grid's Laplacian LU."""
    A, lu = _laplacian(prob.grid)
    rhs = f - prob.lap0
    u = lu.solve(rhs)
    # Up to two passes of iterative refinement, each only while the
    # algebraic residual is not yet well below the certificate tolerance.
    for _ in range(2):
        r = rhs - A @ u
        if np.max(np.abs(r)) <= _ALGEBRAIC_FRACTION * tol:
            break
        u = u + lu.solve(r)
    return u


def _solve_frozen(prob: DirichletProblem, W, f, u0):
    """Solve tr(W H(u)) = f for frozen weights W by GMRES from u0.

    The policy step comes here only when some row of W is not w I (its
    Hessian had eigenvalues of both signs); where W = w I on every row the
    step is a Laplacian solve instead.  The preconditioner is
    M^-1 r = L^-1 (r / s), with L the grid's Laplacian LU and s = tr(W) / n
    per row, so A M^-1 is the identity on the rows where W = w I.  A solve
    whose algebraic residual is still above the target after _KRYLOV_BUDGET
    steps factorizes A instead.
    """
    grid = prob.grid
    A = _matrix(grid, W)
    b = f - np.einsum("nij,nij->n", W, prob.H0)
    _, lu = _laplacian(grid)
    s = np.einsum("nii->n", W) / grid.n
    target = _ALGEBRAIC_FRACTION * prob.tol
    # Preconditioned on the right, GMRES minimizes the true residual of the
    # correction; its 2-norm bounds the max norm the target is set in.
    AM = LinearOperator(A.shape, matvec=lambda y: A @ lu.solve(y / s),
                        dtype=np.float64)
    y, _ = gmres(AM, b - A @ u0, rtol=0.0, atol=target,
                 restart=_KRYLOV_BUDGET, maxiter=1)
    u = u0 + lu.solve(y / s)
    if np.max(np.abs(b - A @ u)) <= target:
        return u
    return splu(A).solve(b)


def _solve_policy(prob: DirichletProblem, f, u, H):
    """Howard's algorithm from u, whose Hessian is H (None: not yet known):
    freeze the weights of F at the current Hessian, solve the linear
    problem, repeat.  Returns the last iterate and the residual history; it
    stops at the tolerance, after four steps in a row without a smaller
    residual, on a failed or non-finite step, or after _POLICY_MAX_ITER
    steps, and the caller raises unless the last residual met the tolerance.
    """
    op, tol = prob.op, prob.tol
    history: list[float] = []
    best_res = math.inf
    stall = 0
    for _ in range(_POLICY_MAX_ITER):
        if H is None:
            H = prob.hessian(u)
        eigs = _eigenvalues(H)
        res = float(np.max(np.abs(op.evaluate_eigenvalues(eigs) - f)))
        history.append(res)
        if not math.isfinite(res):
            break
        if res <= tol:
            return u, history
        if res < best_res:
            best_res, stall = res, 0
        else:
            stall += 1
            if stall >= 4:
                break
        hi, lo = op._slopes
        try:
            # W = w I, so tr(W H(u)) = w (L u + tr H(0)), unless lam < Lam and
            # some row's (ascending) eigenvalues lie on both sides of 0.
            if hi == lo or not np.any((eigs[:, 0] <= 0.0) & (eigs[:, -1] > 0.0)):
                w = np.where(eigs[:, 0] > 0.0, hi, lo)
                u_new = _solve_linear(prob, f / w, tol / np.max(w))
            else:
                u_new = _solve_frozen(prob, op.frozen_weights(H, eigs), f, u)
        except RuntimeError:
            break
        if not np.all(np.isfinite(u_new)):
            break
        u, H = u_new, None
    return u, history


def solve_dirichlet(op: EllipticOperator, grid: Grid, f, psi: BoundaryData,
                    initial: ScalarField | None = None, *,
                    tol: float | None = None) -> ScalarField:
    """Solve F(D^2 u) = f in Omega, u = psi on the boundary intersections.

    Returns a field whose measured residual ||F(D^2 u) - f||_inf over interior
    nodes is at most ``tol`` (see DirichletProblem), or raises NonConvergenceError
    carrying the residual history.  Never returns a silent bad answer: the
    residual is measured on the returned field with the same evaluator the
    rest of the package uses.
    """
    return DirichletProblem(op, grid, psi, tol=tol).solve(f, initial)[0]


# ---------------------------------------------------------------------------
# Maximum-principle diagnostic


@dataclass
class MaxPrincipleReport:
    """Sign-aware comparison of a solution against its boundary data.

    When f >= 0 the solution must stay below max psi; when f <= 0 it must stay
    above min psi.  Violations flip the flags (and fail tests); the sup/inf
    data is always reported.
    """

    sup_u: float
    inf_u: float
    sup_psi: float
    inf_psi: float
    f_min: float
    f_max: float
    f_inf_norm: float
    tol: float
    upper_applicable: bool
    lower_applicable: bool
    upper_ok: bool
    lower_ok: bool
    gap_upper: float
    gap_lower: float

    @property
    def passed(self) -> bool:
        return (not self.upper_applicable or self.upper_ok) and (
            not self.lower_applicable or self.lower_ok
        )


def maximum_principle_check(op: EllipticOperator, u: ScalarField, f,
                            psi: BoundaryData,
                            tol: float = 1e-6) -> MaxPrincipleReport:
    fvec = _as_interior(f, u.grid)
    trace = u.trace if u.trace is not None else build_trace(u.grid, psi)
    bvals = trace.all_values()
    sup_psi = float(np.max(bvals))
    inf_psi = float(np.min(bvals))
    uin = u.interior
    sup_u, inf_u = float(np.max(uin)), float(np.min(uin))
    f_min, f_max = float(np.min(fvec)), float(np.max(fvec))
    upper_app = f_min >= 0.0
    lower_app = f_max <= 0.0
    return MaxPrincipleReport(
        sup_u=sup_u,
        inf_u=inf_u,
        sup_psi=sup_psi,
        inf_psi=inf_psi,
        f_min=f_min,
        f_max=f_max,
        f_inf_norm=float(np.max(np.abs(fvec))),
        tol=tol,
        upper_applicable=upper_app,
        lower_applicable=lower_app,
        upper_ok=(sup_u <= sup_psi + tol) if upper_app else True,
        lower_ok=(inf_u >= inf_psi - tol) if lower_app else True,
        gap_upper=sup_psi - sup_u,
        gap_lower=inf_u - inf_psi,
    )
