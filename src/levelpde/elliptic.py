"""Discrete F(D^2 u) and the inner Dirichlet solve for a frozen right side.

The discrete Hessian is the term table of the grid's stencil
(``grid.plan``), built once per grid: Shortley-Weller second differences,
the centred cross for mixed derivatives, and averaged one-sided quadrants
in the band where diagonal neighbors are missing.  The diagonal terms are
built with the plan and the mixed ones on first use, which the Laplacian
never makes.  Every entry is evaluated in difference form, sum kappa
(x_src - u_i), in every dimension, so its rounding does not grow like
eps |u| / h^2; a key's fixed-arity blocks (two arm terms at every node,
four centred-cross terms at each node that has them) are summed by
gathers and only the quadrant band by a bincount, with the bits of one
bincount over all of them.
The same table gives the sparse matrix of tr(W D^2 u) for the frozen
weights of a GMRES policy step, and from its (a, a) terms alone the
Laplacian LU, built once per grid: the only factorization a solve builds.
No grid assembles its whole Laplacian.  The LU factors the 2^n
mirror-symmetry sectors of A (every grid classifies its nodes
mirror-symmetrically in each axis), folding a right side into them one axis
at a time by each mirror pair's sum and difference; a sector's block is
factored on the first right side with a part in it, so a mirror-symmetric
problem factors the even block alone.  For n >= 2 the blocks are SuperLU's
with their diagonal pivots, each row-diagonally dominant and the even one an
M-matrix (see ``_laplacian``), their entries read from the terms of the
representative rows; a 1-D grid's two halves are tridiagonal, built from the
same terms and factored by LAPACK.  The Laplacian is evaluated as the trace
of the discrete Hessian (its diagonal terms only), the Pucci operators
through its eigenvalues (closed form in 1-D and 2-D).

Operator values come back as interior vectors; a forcing is a scalar or an
interior vector.  A ``DirichletProblem`` holds what one (grid, psi,
operator) fixes: the boundary trace and the boundary offset H(0).  A
nonlocal solve builds it once and hands each inner solve the Hessian of its
start, which it already evaluated for the plain residual.  Each operator has
one inner solver, and neither falls back to another:

* the Laplacian    one triangular solve with the grid's LU, no refinement,
* Pucci operators  Howard's algorithm: freeze the weights at the current
                   Hessian (w I where its eigenvalues share a sign,
                   eigenvectors only at the mixed-sign nodes) and solve the
                   linear problem, repeat.  Where W = w I on every row the
                   step is the Laplacian LU solve of L u = f / w - tr H(0);
                   otherwise it is at most _KRYLOV_BUDGET steps of GMRES
                   preconditioned with that LU.  A stall (four steps without
                   a smaller residual) or _POLICY_MAX_ITER steps end the
                   solve with NonConvergenceError.

All per-node work is vectorized and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import InvalidGridError, InvalidParameterError, NonConvergenceError
from .geometry import BoundaryData, BoundaryTrace, Grid, build_trace
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
# GMRES stops once its algebraic residual is this fraction of the inner
# tolerance, so the certificate is not spent on linear algebra.
_ALGEBRAIC_FRACTION = 0.01
# GMRES steps per policy step.
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

    Each entry has the bits of a bincount of its key's terms over their
    nodes (``StencilTerms.node_sums``).  With ``trace_only`` only the
    (a, a) entries are summed, into tr H of shape (N,): the same bits as the
    trace of the full H, without building or summing the mixed terms.
    """
    N, plan = grid.n_interior, grid.plan
    x = np.concatenate((uin, trace.values))

    def entry(key):
        t = plan.terms[key]
        return t.node_sums(t.values(x, uin), N)

    if trace_only:
        return sum(entry((a, a)) for a in range(grid.n))
    H = np.empty((N, grid.n, grid.n), dtype=np.float64)
    for a, b in plan.pairs:
        H[:, a, b] = H[:, b, a] = entry((a, b))
    return H


def hessian_field(u: ScalarField, trace_only: bool = False) -> NDArray[np.float64]:
    """Discrete Hessians at every interior node, shape (N, n, n), or with
    ``trace_only`` their traces, shape (N,)."""
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
    node = tuple(node)
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
    """Sparse A with A @ u_int == tr(W H(u)) - tr(W H(0)) nodewise, for the
    frozen weights W of a GMRES policy step (``_solve_frozen``).

    Each term contributes w * kappa to its source's column when the source is
    interior, and -w * kappa to the diagonal; exactly zero couplings are
    dropped.  A key whose weights are all zero is skipped before its terms
    are looked up.  The diagonal sums each key's terms first
    (``StencilTerms.node_sums``), the keys in ``plan.pairs`` order.
    """
    N, plan = grid.n_interior, grid.plan
    rows, cols, vals = [], [], []
    diag = np.zeros(N)
    for a, b in plan.pairs:
        if not W[:, a, b].any():
            continue
        t = plan.terms[(a, b)]
        # H is symmetric: W_ab H_ab is counted twice off the diagonal.
        coef = (1.0 if a == b else 2.0) * W[t.node, a, b] * t.kappa
        keep = (t.src < N) & (coef != 0.0)
        rows.append(t.node[keep])
        cols.append(t.src[keep])
        vals.append(coef[keep])
        diag -= t.node_sums(coef, N)
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
    boundary trace and the boundary offset H(0) (the Hessian of zero
    interior values, so H(u) = H(0) + the linear part).  ``hessian``
    evaluates D(u): only its trace for the Laplacian, the full Hessian for
    the Pucci operators; ``op.evaluate`` takes either.  The Hessian that certifies one
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
            u = _solve_linear(self, fvec)
            history = [float(np.max(np.abs(self.op.evaluate(self.hessian(u)) - fvec)))]
        else:
            u, history = _solve_policy(self, fvec, u0, hessian)
        res = history[-1]
        if not res <= self.tol:
            raise NonConvergenceError(
                f"inner solve finished with residual {res:.3e} above tol "
                f"{self.tol:.3e}", history)
        return ScalarField(u, self.trace), res


def _lu(M):
    """SuperLU of the M-matrix -M (or of a sector block of one), ordered by
    minimum degree on M + M^T with its diagonal pivots (see _laplacian)."""
    try:
        return splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except MemoryError:
        raise InvalidGridError(
            f"the LU of {M.shape[0]} Laplacian rows does not fit in memory") from None


class _IntervalLU:
    """A^-1 b for the tridiagonal Laplacian A of a 1-D grid by its mirror
    halves, with no sparse matrix.  Node i mirrors N - 1 - i, and A with it
    bit for bit.  ``solve`` folds b into each mirror pair's halved sum and
    difference (exact); with the centre of an odd N they are the right
    sides of the even block, rows 0 ... N - m - 1 (m = N // 2), and the odd
    one, rows 0 ... m - 1.  Both are tridiagonal, from the (0, 0) stencil
    terms: the diagonal has ``_matrix``'s bits, an arm couples only to an
    interior end, the centre row's two arms land on node m - 1, and with
    even N the middle pair's coupling is added to the even diagonal and
    subtracted from the odd one.  A block is factored by LAPACK's dgttrf on
    the first right side with a nonzero part in it; a zero part solves to
    zeros, so a mirror-symmetric b gives a mirror-symmetric u bit for bit.
    """

    def __init__(self, grid: Grid):
        N, t = grid.n_interior, grid.plan.terms[(0, 0)]
        self.m = m = N // 2
        # A[i, i + 1] and A[i, i - 1], from the + and - arm terms.
        up, lo = (np.where(t.src[k:k + N] < N, t.kappa[k:k + N], 0.0) for k in (0, N))
        diag = -t.node_sums(t.kappa, N)
        self.bands = [[lo[1:size].copy(), diag[:size].copy(), up[:size][:-1]]
                      for size in (N - m, m)]
        if N % 2 == 0:
            self.bands[0][1][-1] += up[m - 1]
            self.bands[1][1][-1] -= up[m - 1]
        elif m:
            self.bands[0][0][-1] = lo[m] + up[m]
        self.lus = [None, None]

    def _solve(self, s, b):
        if not b.any():
            return np.zeros_like(b)
        if self.lus[s] is None:
            # SciPy's dgttrf takes three rows or more: pad with identity rows.
            (dl, d, du), pad = self.bands[s], np.zeros(max(0, 3 - b.size))
            *lu, info = dgttrf(np.append(dl, pad), np.append(d, pad + 1.0),
                               np.append(du, pad))
            if info:
                raise InvalidGridError(
                    f"the Laplacian's mirror block of {b.size} rows is singular")
            self.lus[s] = lu
        lu = self.lus[s]
        return dgttrs(*lu, np.append(b, np.zeros(lu[1].size - b.size)))[0][:b.size]

    def solve(self, b):
        N, m, r = b.size, self.m, b[::-1]
        even = self._solve(0, np.append(0.5 * (b[:m] + r[:m]), b[m:N - m]))
        odd = self._solve(1, 0.5 * (b[:m] - r[:m]))
        u = np.empty_like(b)
        u[:m], u[m:N - m], u[N - m:] = even[:m] + odd, even[m:], (even[:m] - odd)[::-1]
        return u


class _SectorLU:
    """A^-1 b for the Laplacian A of an n-D grid, n >= 2, by mirror sectors.

    Every grid is mirror-symmetric in each axis (``geometry._lattice``), and
    A with it bit for bit.  A node's sector is the bitmask of the axes whose
    plane it lies above, its representative r the node of its orbit below
    every plane; sector s holds the fields with u(g r) = chi_s(g) u(r) for
    each reflection g, chi_s(g) = (-1)^|s & g|.  ``solve`` folds b one axis
    at a time, each mirror pair's sum onto its lower node and its difference
    onto the upper one: exact in either order, so a part that exact
    arithmetic zeroes is 0.0.  Scaled by 2^-k on an orbit of 2^k nodes, the
    folded b is the blocks' right side, in block order; the same matrices
    unfold the solutions in reverse order.  ``block(s)``, with rows in
    representative order, holds sum_g chi_s(g) A[r, g q] over the distinct
    nodes g q at (r, q).  It is assembled and factored when a right side
    first has a nonzero part in sector s; a zero part solves to zeros.

    The rows A[r] come from the plan's (a, a) terms, as ``_matrix`` would
    assemble them with W = I: kappa at each interior source and the
    diagonal 0 - the node sums of each axis in turn.  A mirror swaps the two
    arms of an axis but keeps the axes, so that diagonal is mirror-symmetric
    bit for bit.  A node just below k mirror planes has its k + arms in its
    own orbit, so a block's diagonal can add k + 1 entries; they are added
    in A's CSC order, which sets those bits as a fold of the assembled
    matrix would.
    """

    def __init__(self, grid: Grid):
        N, index, shape = grid.n_interior, grid.interior_index, grid.shape
        ordinal, ids = grid._ordinal_flat, np.arange(N)
        offs = [2 * i - (m - 1) for i, m in zip(index, shape)]
        # Per node: its sector, the axes whose plane holds it, and the rank
        # of its representative among the nodes below every plane.
        flip = sum((off > 0) << a for a, off in enumerate(offs))
        plane = sum((off == 0) << a for a, off in enumerate(offs))
        low = [np.minimum(i, m - 1 - i) for i, m in zip(index, shape)]
        rep = (np.cumsum(flip == 0) - 1)[ordinal[np.ravel_multi_index(low, shape)]]
        # col[s, j]: the row of representative j in block s, or -1 where s
        # reflects an axis whose plane holds it.
        fits = (np.arange(2 ** grid.n)[:, None] & plane[flip == 0]) == 0
        col = np.where(fits, np.cumsum(fits, axis=1) - 1, -1)
        self.sizes = np.count_nonzero(fits, axis=1)
        ends = np.cumsum(self.sizes)
        self.blocks, self.lus = list(zip(ends - self.sizes, ends)), [None] * len(ends)
        # order[p]: the node whose sector value is row p of the stacked blocks.
        order = np.empty_like(ids)
        order[(ends - self.sizes)[flip] + col[flip, rep]] = ids
        self.scale = 0.5 ** sum(off != 0 for off in offs)[order]
        self.folds = []
        for a, off in enumerate(offs):
            # Row i: +1 at the lower node of its mirror pair and +1 (i below
            # the plane) or -1 (i above) at the upper one; one +1 on the
            # plane.  The last fold's rows are in block order.
            rows = order if a == grid.n - 1 else ids
            image = [shape[b] - 1 - i if b == a else i for b, i in enumerate(index)]
            m, off = ordinal[np.ravel_multi_index(image, shape)][rows], off[rows]
            pair = off != 0
            keep = np.column_stack((np.ones(N, bool), pair)).ravel()
            self.folds.append(csr_matrix(
                (np.column_stack((np.ones(N), -np.sign(off))).ravel()[keep],
                 np.column_stack((np.minimum(rows, m), np.maximum(rows, m))).ravel()[keep],
                 np.append(0, np.cumsum(1 + pair))), shape=(N, N)))
        # Every fold but the last is symmetric: it undoes itself up to 2^-1.
        self.unfolds = [self.folds[-1].T] + self.folds[-2::-1]
        # The entries A[r, c] of the representative rows, in A's CSC order:
        # column, then row.
        on = flip == 0
        rows, cols, vals, diag = [ids[on]], [ids[on]], [], np.zeros(N)
        for a in range(grid.n):
            t = grid.plan.terms[(a, a)]
            keep = on[t.node] & (t.src < N) & (t.kappa != 0.0)
            rows.append(t.node[keep])
            cols.append(t.src[keep])
            vals.append(t.kappa[keep])
            diag -= t.node_sums(t.kappa, N)
        r, c = np.concatenate(rows), np.concatenate(cols)
        csc = np.argsort(c * N + r)
        r, c, v = r[csc], c[csc], np.concatenate([diag[on]] + vals)[csc]
        self.entries, self.col = (rep[r], rep[c], flip[c], v), col

    def block(self, s):
        r, c, g, v = self.entries
        brow, bcol = self.col[s, r], self.col[s, c]
        keep, g = (brow >= 0) & (bcol >= 0), g & s
        chi = 1.0 - 2.0 * ((g ^ g >> 1 ^ g >> 2) & 1)  # the parity of |s & g|
        return coo_matrix(((chi * v)[keep], (brow[keep], bcol[keep])),
                          shape=(self.sizes[s], self.sizes[s])).tocsc()

    def solve(self, b):
        for F in self.folds:
            b = F @ b
        y = np.zeros_like(b)
        for s, (lo, hi) in enumerate(self.blocks):
            if b[lo:hi].any():
                if self.lus[s] is None:
                    self.lus[s] = _lu(self.block(s))
                y[lo:hi] = self.lus[s].solve(self.scale[lo:hi] * b[lo:hi])
        for F in self.unfolds:
            y = F @ y
        return y


def _laplacian(grid: Grid):
    """The Laplacian LU, built once and kept with the stencil, so repeated
    frozen-RHS solves cost triangular solves only.  Both kinds read A from
    the plan's (a, a) terms; neither assembles the whole matrix.

    A 1-D grid factors its two tridiagonal mirror halves with LAPACK
    (``_IntervalLU``).  Every 2-D and 3-D grid factors A folded into its
    mirror-symmetry sectors, one fold per axis (``_SectorLU``), each block
    assembled from the representative rows and factored on first use.  -A
    is a nonsingular M-matrix: positive diagonal, nonpositive couplings,
    every row diagonally dominant and strictly so where a stencil end is a
    boundary point.  Each entry of a block is a sum of entries of one row of
    A with signs, so every block stays row-diagonally dominant (|sum +-a| <=
    sum |a|) and the even one is again an M-matrix.  Gaussian elimination needs no pivoting to stay
    stable, so SuperLU keeps the diagonal pivots of its minimum-degree
    ordering of A + A^T (partial pivoting would undo that symmetric
    ordering).  Unsplit, that fill is about half of COLAMD's: 6.4 M against
    13.7 M nonzeros in L + U on the 3-D ball at h = 1/16; the eight sector
    blocks hold 1.47 M.  On the disk at h = 1/32 the four hold 65 k (103 k
    unsplit).
    """
    plan = grid.plan
    if plan.laplacian is None:
        plan.laplacian = (_IntervalLU if grid.n == 1 else _SectorLU)(grid)
    return plan.laplacian


def _solve_linear(prob: DirichletProblem, f):
    """Solve L u + tr H(0) = f by one triangular solve with the grid's
    Laplacian LU; the caller's stencil residual certifies the result."""
    return _laplacian(prob.grid).solve(f - prob.lap0)


def _solve_frozen(prob: DirichletProblem, W, f, u0):
    """Solve tr(W H(u)) = f for frozen weights W by GMRES from u0.

    The policy step comes here only when some row of W is not w I (its
    Hessian had eigenvalues of both signs); where W = w I on every row the
    step is a Laplacian solve instead.  The preconditioner is
    M^-1 r = L^-1 (r / s), with L the grid's Laplacian LU and s = tr(W) / n
    per row, so A M^-1 is the identity on the rows where W = w I.  GMRES
    stops once the algebraic residual is _ALGEBRAIC_FRACTION of the
    tolerance or after _KRYLOV_BUDGET steps; either way its iterate goes
    back to Howard's loop, which re-freezes the weights and certifies.
    """
    grid = prob.grid
    A = _matrix(grid, W)
    b = f - np.einsum("nij,nij->n", W, prob.H0)
    lu = _laplacian(grid)
    s = np.einsum("nii->n", W) / grid.n
    # Preconditioned on the right, GMRES minimizes the true residual of the
    # correction; its 2-norm bounds the max norm the tolerance is set in.
    AM = LinearOperator(A.shape, matvec=lambda y: A @ lu.solve(y / s),
                        dtype=np.float64)
    y, _ = gmres(AM, b - A @ u0, rtol=0.0, atol=_ALGEBRAIC_FRACTION * prob.tol,
                 restart=_KRYLOV_BUDGET, maxiter=1)
    return u0 + lu.solve(y / s)


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
                u_new = _solve_linear(prob, f / w)
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


def maximum_principle_check(u: ScalarField, f,
                            tol: float = 1e-6) -> MaxPrincipleReport:
    fvec = _as_interior(f, u.grid)
    bvals = u.trace.values
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
        tol=tol,
        upper_applicable=upper_app,
        lower_applicable=lower_app,
        upper_ok=(sup_u <= sup_psi + tol) if upper_app else True,
        lower_ok=(inf_u >= inf_psi - tol) if lower_app else True,
        gap_upper=sup_psi - sup_u,
        gap_lower=inf_u - inf_psi,
    )
