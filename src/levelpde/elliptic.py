"""Discrete F(D^2 u) and the inner Dirichlet solve for a frozen right side.

The discrete Hessian is the term table ``grid.stencil``, built once per grid:
Shortley-Weller second differences, the centred cross for mixed derivatives,
and averaged one-sided quadrants in the band where diagonal neighbors are
missing.  Every entry is evaluated in difference form, sum kappa (x_src -
u_i), in every dimension, so its rounding does not grow like eps |u| / h^2.
The same table gives the sparse matrix of tr(W D^2 u) for any weight field,
and the Laplacian matrix, factorized once per grid.  F is evaluated through
the eigenvalues of the discrete Hessian.

Three inner solvers share that assembly of "weighted Hessian" rows:

* ``linear``       direct sparse LU for the Laplacian,
* ``policy``       frozen-coefficient iteration for the extremal operators
                   (relinearize at the current eigenframe, solve, repeat),
* ``pseudo_time``  explicit relaxation u <- u + tau (F(D^2 u) - f) with a
                   stability-bounded, per-node tau.

All per-node work is vectorized and deterministic; sweeps are Jacobi-style,
so parallel and serial evaluations agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import InvalidParameterError, NonConvergenceError
from .geometry import BOUNDARY, BoundaryData, BoundaryTrace, Grid, build_trace
from .measure import ScalarField

__all__ = [
    "EllipticOperator",
    "InnerSolveConfig",
    "MaxPrincipleReport",
    "discrete_hessian",
    "apply_operator",
    "solve_dirichlet",
    "maximum_principle_check",
]

_DEFAULT_TOL = {"laplacian": 1e-8, "pucci_minus": 1e-6, "pucci_plus": 1e-6}


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
        if not (0 < self.lam <= self.Lam):
            raise InvalidParameterError("need 0 < lam <= Lam")
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

    def evaluate_eigenvalues(self, eigs: NDArray[np.float64]) -> NDArray[np.float64]:
        """F per node from the (N, n) array of Hessian eigenvalues."""
        if self.kind == "laplacian":
            return np.sum(eigs, axis=1)
        pos = np.sum(np.maximum(eigs, 0.0), axis=1)
        neg = np.sum(np.minimum(eigs, 0.0), axis=1)
        if self.kind == "pucci_minus":
            return self.lam * pos + self.Lam * neg
        return self.Lam * pos + self.lam * neg

    def frozen_weights(self, eigvals: NDArray[np.float64],
                       eigvecs: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-node weight matrices W with tr(W H) = F(H) at the current H."""
        if self.kind == "laplacian":
            n = eigvals.shape[1]
            return np.broadcast_to(np.eye(n), (eigvals.shape[0], n, n)).copy()
        if self.kind == "pucci_minus":
            w = np.where(eigvals > 0.0, self.lam, self.Lam)
        else:
            w = np.where(eigvals > 0.0, self.Lam, self.lam)
        return np.einsum("nik,nk,njk->nij", eigvecs, w, eigvecs)


@dataclass
class InnerSolveConfig:
    """How to solve F(D^2 u) = f with fixed f.

    ``method`` 'auto' picks 'linear' for the Laplacian and 'policy' for the
    Pucci operators; 'pseudo_time' is always available.  ``tol`` is the
    max-norm residual target (defaults 1e-8 Laplacian, 1e-6 Pucci).  ``sigma``
    scales the stability-bounded pseudo-time step sigma*h^2/(2 n Lam) (its
    per-node Shortley-Weller generalization near curved boundaries).
    """

    method: str = "auto"
    tol: float | None = None
    max_iter: int = 400_000
    sigma: float = 0.5
    policy_max_iter: int = 60

    def __post_init__(self):
        if self.method not in ("auto", "linear", "policy", "pseudo_time"):
            raise InvalidParameterError(f"unknown inner method {self.method!r}")
        if self.tol is not None and not self.tol > 0:
            raise InvalidParameterError("inner tolerance must be positive")
        if not (0 < self.sigma <= 1):
            raise InvalidParameterError("sigma must lie in (0, 1]")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be at least 1")

    def resolved_tol(self, op: EllipticOperator) -> float:
        return self.tol if self.tol is not None else _DEFAULT_TOL[op.kind]

    def resolved_method(self, op: EllipticOperator) -> str:
        if self.method != "auto":
            return self.method
        return "linear" if op.kind == "laplacian" else "policy"


def _hessian(grid: Grid, uin: NDArray[np.float64],
             trace: BoundaryTrace) -> NDArray[np.float64]:
    """Sum every stencil term kappa * (x_src - u_i) into its Hessian entry."""
    N, n = grid.n_interior, grid.n
    x = np.concatenate((uin, trace.values.ravel()))
    H = np.empty((N, n, n), dtype=np.float64)
    for (a, b), t in grid.stencil.terms.items():
        d = t.kappa * (x[t.src] - uin[t.node])
        H[:, a, b] = H[:, b, a] = np.bincount(t.node, weights=d, minlength=N)
    return H


def hessian_field(u: ScalarField, grid: Grid) -> NDArray[np.float64]:
    """Discrete Hessians at every interior node, shape (N, n, n)."""
    if not u.grid.matches(grid):
        raise InvalidParameterError("field belongs to a different grid")
    if u.trace is None:
        raise InvalidParameterError(
            "field needs boundary data (a trace) to apply difference operators")
    return _hessian(grid, u.interior, u.trace)


def _eigenvalues(H: NDArray[np.float64]) -> NDArray[np.float64]:
    n = H.shape[1]
    if n == 1:
        return H[:, 0, 0:1].copy()
    if n == 2:
        m = 0.5 * (H[:, 0, 0] + H[:, 1, 1])
        d = np.sqrt((0.5 * (H[:, 0, 0] - H[:, 1, 1])) ** 2 + H[:, 0, 1] ** 2)
        return np.stack([m - d, m + d], axis=1)
    return np.linalg.eigvalsh(H)


def discrete_hessian(u: ScalarField, grid: Grid, node: Iterable[int]) -> NDArray[np.float64]:
    """Hessian matrix at one interior node (multi-index)."""
    node = tuple(int(i) for i in node)
    ordinal = grid.ordinal(node)
    if ordinal < 0:
        raise InvalidParameterError(f"node {node} is not Interior")
    return hessian_field(u, grid)[ordinal]


def apply_operator(op: EllipticOperator, u: ScalarField, grid: Grid) -> ScalarField:
    """F(D^2 u) per interior node, via eigenvalues of the discrete Hessian."""
    H = hessian_field(u, grid)
    vals = op.evaluate_eigenvalues(_eigenvalues(H))
    return ScalarField.from_interior(grid, vals)


# ---------------------------------------------------------------------------
# Assembly: rows of tr(W . H(u)) as a sparse matrix plus boundary offset


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


def _assemble(grid: Grid, W: NDArray[np.float64],
              trace: BoundaryTrace) -> tuple:
    """Sparse A and offset c with A @ u_int + c == tr(W H(u)) nodewise; c is
    tr(W H(0)), the boundary terms w * kappa * psi of every row."""
    H0 = _hessian(grid, np.zeros(grid.n_interior), trace)
    return _matrix(grid, W), np.einsum("nij,nij->n", W, H0)


# ---------------------------------------------------------------------------
# Inner solvers


def _as_interior(f, grid: Grid) -> NDArray[np.float64]:
    if isinstance(f, ScalarField):
        if not f.grid.matches(grid):
            raise InvalidParameterError("forcing belongs to a different grid")
        vec = f.interior
    else:
        vec = np.full(grid.n_interior, float(f), dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise InvalidParameterError("forcing must be finite on interior nodes")
    return vec.astype(np.float64, copy=True)


def _result_field(grid: Grid, u_int: NDArray[np.float64], psi: BoundaryData,
                  trace: BoundaryTrace) -> ScalarField:
    vals = np.full(grid.shape, np.nan, dtype=np.float64)
    vals.ravel()[grid.interior_flat] = u_int
    bmask = grid.node_class == BOUNDARY
    if np.any(bmask):
        idx = np.nonzero(bmask)
        pts = np.stack([grid.axis_coords[k][idx[k]] for k in range(grid.n)], axis=1)
        vals[bmask] = psi.evaluate(pts)
    return ScalarField(grid, vals, trace)


def _residual(op: EllipticOperator, u: ScalarField, grid: Grid,
              f: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    r = apply_operator(op, u, grid).interior - f
    return float(np.max(np.abs(r))), r


def _laplacian(grid: Grid) -> tuple:
    """The Laplacian matrix and its LU, built once and kept with the stencil,
    so repeated frozen-RHS solves cost triangular solves only."""
    table = grid.stencil
    if table.laplacian is None:
        A = _matrix(grid, np.broadcast_to(np.eye(grid.n),
                                          (grid.n_interior, grid.n, grid.n)))
        table.laplacian = (A, splu(A))
    return table.laplacian


def _solve_linear(grid, f, trace):
    A, lu = _laplacian(grid)
    # The boundary terms are the Laplacian of zero interior values.
    H0 = _hessian(grid, np.zeros(grid.n_interior), trace)
    rhs = f - np.einsum("nii->n", H0)
    u = lu.solve(rhs)
    # Two passes of iterative refinement push the algebraic residual well
    # below the certificate tolerance.
    for _ in range(2):
        r = rhs - A @ u
        u = u + lu.solve(r)
    return u


def _solve_pseudo_time(op, grid, f, trace, psi, tol, cfg, u0):
    tau = cfg.sigma / (op.Lam * grid.stencil.stiffness)
    u = u0.copy()
    history: list[float] = []
    field = _result_field(grid, u, psi, trace)
    for _ in range(cfg.max_iter):
        res, r = _residual(op, field, grid, f)
        history.append(res)
        if not math.isfinite(res):
            raise NonConvergenceError(
                "pseudo-time relaxation diverged to non-finite values", history
            )
        if res <= tol:
            return u, history
        u = u + tau * r
        field = field.with_interior(u)
    raise NonConvergenceError(
        f"pseudo-time relaxation: residual {history[-1]:.3e} above tol {tol:.3e} "
        f"after {cfg.max_iter} sweeps", history
    )


def _solve_policy(op, grid, f, trace, psi, tol, cfg, u0):
    """Frozen-coefficient iteration: relinearize F in the current eigenframe,
    solve the linear problem, repeat; falls back to pseudo-time on stall."""
    u = u0.copy()
    history: list[float] = []
    best_u, best_res = u, math.inf
    stall = 0
    for _ in range(cfg.policy_max_iter):
        field = _result_field(grid, u, psi, trace)
        H = hessian_field(field, grid)
        eigvals, eigvecs = np.linalg.eigh(H)
        res = float(np.max(np.abs(op.evaluate_eigenvalues(eigvals) - f)))
        history.append(res)
        if not math.isfinite(res):
            break
        if res <= tol:
            return u, history
        if res < best_res:
            best_u, best_res = u, res
            stall = 0
        else:
            stall += 1
            if stall >= 4:
                break
        W = op.frozen_weights(eigvals, eigvecs)
        A, c = _assemble(grid, W, trace)
        try:
            u_new = splu(A).solve(f - c)
        except RuntimeError:
            break
        if not np.all(np.isfinite(u_new)):
            break
        u = u_new
    # Finish from the best iterate with the always-convergent relaxation.
    u, tail = _solve_pseudo_time(op, grid, f, trace, psi, tol, cfg, best_u)
    return u, history + tail


def solve_dirichlet(op: EllipticOperator, grid: Grid, f, psi: BoundaryData,
                    cfg: InnerSolveConfig | None = None,
                    initial: ScalarField | None = None) -> ScalarField:
    """Solve F(D^2 u) = f in Omega, u = psi on the boundary intersections.

    Returns a field whose measured residual ||F(D^2 u) - f||_inf over interior
    nodes is at most the configured tolerance, or raises NonConvergenceError
    carrying the residual history.  Never returns a silent bad answer: the
    residual is re-measured on the returned field with the same evaluator the
    rest of the package uses.
    """
    cfg = cfg or InnerSolveConfig()
    fvec = _as_interior(f, grid)
    trace = build_trace(grid, psi)
    tol = cfg.resolved_tol(op)
    method = cfg.resolved_method(op)

    if initial is not None:
        if not initial.grid.matches(grid):
            raise InvalidParameterError("initial guess belongs to a different grid")
        u0 = initial.interior.copy()
    else:
        u0 = np.zeros(grid.n_interior, dtype=np.float64)

    if method == "linear":
        if op.kind != "laplacian":
            raise InvalidParameterError("linear method requires the Laplacian")
        u = _solve_linear(grid, fvec, trace)
        history = []
    elif method == "policy":
        u, history = _solve_policy(op, grid, fvec, trace, psi, tol, cfg, u0)
    else:
        u, history = _solve_pseudo_time(op, grid, fvec, trace, psi, tol, cfg, u0)

    out = _result_field(grid, u, psi, trace)
    res, _ = _residual(op, out, grid, fvec)
    if not res <= tol:
        raise NonConvergenceError(
            f"inner solve finished with residual {res:.3e} above tol {tol:.3e}",
            history + [res],
        )
    out.inner_residual = res
    return out


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
                            psi: BoundaryData, grid: Grid,
                            tol: float = 1e-6) -> MaxPrincipleReport:
    fvec = _as_interior(f, grid)
    trace = u.trace if u.trace is not None else build_trace(grid, psi)
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
