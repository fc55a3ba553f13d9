"""Masked uniform grids over boxes, balls and annuli with Dirichlet data.

The domain is represented node-centered: every lattice node is classified
Interior, Boundary or Exterior.  Boxes carry genuine Boundary lattice nodes on
their faces; balls and annuli have no on-lattice boundary, so each stencil arm
that leaves the domain records the fractional distance theta in (0, 1] to the
true boundary (Shortley-Weller offsets).  Each grid also holds, built on
first use, its stencil plan and the term table of its discrete Hessian
(``grid.stencil``).  Grids are immutable after construction and all queries
are pure, so they are safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidGridError, InvalidParameterError

INTERIOR = 0
BOUNDARY = 1
EXTERIOR = 2

_CLASS_NAMES = {INTERIOR: "Interior", BOUNDARY: "Boundary", EXTERIOR: "Exterior"}
_CLASS_CODES = {v: k for k, v in _CLASS_NAMES.items()}

# Relative slack when checking that h divides a box side and that the lattice
# coordinates step by h.
_DIVIDE_RTOL = 1e-9


@dataclass(frozen=True)
class BoxDescriptor:
    """Axis-aligned box given as one (lo, hi) interval per axis."""

    bounds: tuple[tuple[float, float], ...]

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.bounds)


@dataclass(frozen=True)
class BallDescriptor:
    center: tuple[float, ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class AnnulusDescriptor:
    """Concentric spherical shell r_inner < |x - center| < r_outer."""

    center: tuple[float, ...]
    r_inner: float
    r_outer: float

    @property
    def n(self) -> int:
        return len(self.center)


Descriptor = BoxDescriptor | BallDescriptor | AnnulusDescriptor


class Grid:
    """Uniform lattice with node classification and boundary offsets.

    Attributes
    ----------
    n : spatial dimension (1, 2 or 3)
    h : lattice spacing, identical along every axis
    origin : coordinate of node index (0, ..., 0)
    shape : node counts per axis
    node_class : int8 array over the full lattice (INTERIOR/BOUNDARY/EXTERIOR)
    descriptor : the continuum domain this lattice discretizes
    """

    def __init__(self, descriptor: Descriptor, h: float, origin: tuple[float, ...],
                 shape: tuple[int, ...], node_class: NDArray[np.int8]):
        self.descriptor = descriptor
        self.n = descriptor.n
        self.h = float(h)
        self.origin = tuple(float(o) for o in origin)
        self.shape = tuple(int(s) for s in shape)
        self.node_class = node_class
        node_class.setflags(write=False)

        self.axis_coords: list[NDArray[np.float64]] = [
            self.origin[k] + self.h * np.arange(self.shape[k], dtype=np.float64)
            for k in range(self.n)
        ]
        # Far from the origin of the coordinates, origin + h*k rounds onto a
        # coarser lattice, or onto the origin itself.
        for ax in self.axis_coords:
            if not np.all(np.abs(np.diff(ax) - self.h) <= _DIVIDE_RTOL * self.h):
                raise InvalidGridError(
                    f"coordinates near {ax[0]} cannot resolve the spacing h = {self.h}")

        self.interior_mask = node_class == INTERIOR
        self.interior_flat = np.flatnonzero(self.interior_mask.ravel())
        self.n_interior = int(self.interior_flat.size)
        if self.n_interior == 0:
            raise InvalidGridError("grid has no interior nodes")

        # Ordinal of each lattice node in the interior numbering; -1 elsewhere.
        pos = np.full(int(np.prod(self.shape)), -1, dtype=np.int64)
        pos[self.interior_flat] = np.arange(self.n_interior, dtype=np.int64)
        self._ordinal_flat = pos

        idx = np.unravel_index(self.interior_flat, self.shape)
        self.interior_index = tuple(a.astype(np.int64) for a in idx)
        self.interior_coords = np.stack(
            [self.axis_coords[k][idx[k]] for k in range(self.n)], axis=1
        )
        self._plan: _StencilPlan | None = None
        self._stencil: StencilTable | None = None

    # -- basic queries -----------------------------------------------------

    @property
    def cell(self) -> float:
        """Cell measure h**n."""
        return self.h ** self.n

    def matches(self, other: "Grid") -> bool:
        return (
            self is other
            or (
                self.descriptor == other.descriptor
                and self.n == other.n
                and self.h == other.h
                and self.shape == other.shape
                and self.origin == other.origin
            )
        )

    def node_coords(self, index: Sequence[int]) -> NDArray[np.float64]:
        return np.array(
            [self.axis_coords[k][index[k]] for k in range(self.n)], dtype=np.float64
        )

    def ordinal(self, index: Sequence[int]) -> int:
        """Interior ordinal of a multi-index, or -1."""
        flat = int(np.ravel_multi_index(tuple(int(i) for i in index), self.shape))
        return int(self._ordinal_flat[flat])

    def distance_to_boundary(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        """Euclidean distance from each point to the continuum boundary."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = self.descriptor
        if isinstance(d, BoxDescriptor):
            per_axis = [
                np.minimum(pts[:, k] - lo, hi - pts[:, k])
                for k, (lo, hi) in enumerate(d.bounds)
            ]
            return np.min(per_axis, axis=0)
        center = np.asarray(d.center, dtype=np.float64)
        s = np.linalg.norm(pts - center, axis=1)
        if isinstance(d, BallDescriptor):
            return d.radius - s
        return np.minimum(d.r_outer - s, s - d.r_inner)

    @property
    def plan(self) -> "_StencilPlan":
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan

    @property
    def stencil(self) -> "StencilTable":
        if self._stencil is None:
            self._stencil = StencilTable(self)
        return self._stencil

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grid(n={self.n}, h={self.h}, shape={self.shape}, "
            f"interior={self.n_interior}, descriptor={self.descriptor})"
        )


class _StencilPlan:
    """Precomputed arm and diagonal connectivity for the interior nodes.

    For every interior node and arm (axis a, direction s in {+1, -1}):

    * ``nbr[(a, s)]``        interior ordinal of the arm end, -1 otherwise
    * ``theta[(a, s)]``      fractional arm length in (0, 1]; 1.0 when the arm
                             ends on a lattice node
    * ``arm_lattice[(a, s)]`` True when a non-interior arm end is a Boundary
                             lattice node (boxes), so its value may also be
                             used by diagonal-deficient mixed stencils
    * ``arm_point[(a, s)]``  coordinates of the arm end where non-interior
                             (boundary crossing or boundary node), NaN rows
                             where the arm stays interior

    and for every axis pair (a, b), a < b, and sign pair (sa, sb):

    * ``diag[...]``          interior ordinal of the diagonal node, -1 otherwise
    * ``diag_known[...]``    diagonal node is a Boundary lattice node
    * ``diag_point[...]``    its coordinates where known and not interior
    """

    def __init__(self) -> None:
        self.nbr: dict[tuple[int, int], NDArray[np.int64]] = {}
        self.theta: dict[tuple[int, int], NDArray[np.float64]] = {}
        self.arm_lattice: dict[tuple[int, int], NDArray[np.bool_]] = {}
        self.arm_point: dict[tuple[int, int], NDArray[np.float64]] = {}
        self.diag: dict[tuple[int, int, int, int], NDArray[np.int64]] = {}
        self.diag_known: dict[tuple[int, int, int, int], NDArray[np.bool_]] = {}
        self.diag_point: dict[tuple[int, int, int, int], NDArray[np.float64]] = {}

    def arm_keys(self, n: int) -> list[tuple[int, int]]:
        return [(a, s) for a in range(n) for s in (+1, -1)]

    def pair_keys(self, n: int) -> list[tuple[int, int, int, int]]:
        return [
            (a, b, sa, sb)
            for a in range(n)
            for b in range(a + 1, n)
            for sa in (+1, -1)
            for sb in (+1, -1)
        ]

    def sample_keys(self, n: int) -> list[tuple[int, ...]]:
        """Arm then diagonal keys: the row order of ``BoundaryTrace.values``."""
        return self.arm_keys(n) + self.pair_keys(n)


def _crossing_fraction(descriptor: Descriptor, coords: NDArray[np.float64],
                       axis: int, sign: int, h: float,
                       nbr_coords: NDArray[np.float64]) -> NDArray[np.float64]:
    """Fractional distance theta in (0,1] to the boundary along one arm.

    ``coords`` are interior nodes whose arm end is not a domain node; for
    boxes this never happens (faces are lattice nodes), so only spheres are
    handled.
    """
    if isinstance(descriptor, BoxDescriptor):
        raise AssertionError("box arms always end on lattice nodes")
    center = np.asarray(descriptor.center, dtype=np.float64)
    d = coords - center
    rho2 = np.sum(d * d, axis=1) - d[:, axis] ** 2
    if isinstance(descriptor, BallDescriptor):
        r = descriptor.radius
        t = np.sqrt(np.maximum(r * r - rho2, 0.0)) - sign * d[:, axis]
    else:
        # Annulus: the arm leaves through whichever sphere the neighbor is
        # beyond.
        s_nbr = np.linalg.norm(nbr_coords - center, axis=1)
        outer = s_nbr >= descriptor.r_outer
        r_out = descriptor.r_outer
        t_out = np.sqrt(np.maximum(r_out * r_out - rho2, 0.0)) - sign * d[:, axis]
        r_in = descriptor.r_inner
        t_in = -sign * d[:, axis] - np.sqrt(np.maximum(r_in * r_in - rho2, 0.0))
        t = np.where(outer, t_out, t_in)
    return np.clip(t / h, 1e-12, 1.0)


def _build_plan(grid: Grid) -> _StencilPlan:
    plan = _StencilPlan()
    n, N, h = grid.n, grid.n_interior, grid.h
    cls_flat = grid.node_class.ravel()

    def shifted(shifts: Sequence[int]):
        """Interior ordinal of each node's shifted lattice node (-1 if none),
        whether that node is a Boundary lattice node, and its coordinates
        where it is (NaN rows elsewhere)."""
        idx = [grid.interior_index[k] + shifts[k] for k in range(n)]
        valid = np.logical_and.reduce([(i >= 0) & (i < grid.shape[k])
                                       for k, i in enumerate(idx)])
        flat = np.ravel_multi_index(tuple(np.where(valid, i, 0) for i in idx),
                                    grid.shape)
        ordinal = np.where(valid, grid._ordinal_flat[flat], -1).astype(np.int64)
        known = valid & (cls_flat[flat] == BOUNDARY)
        point = np.full((N, n), np.nan, dtype=np.float64)
        point[known] = np.stack([grid.axis_coords[k][idx[k][known]]
                                 for k in range(n)], axis=1)
        return ordinal, known, point

    for a, s in plan.arm_keys(n):
        nbr, known, point = shifted([s if k == a else 0 for k in range(n)])
        theta = np.ones(N, dtype=np.float64)
        # Arms that leave the lattice's domain nodes cross a curved boundary
        # (box arms always end on lattice nodes).
        cut = (nbr < 0) & ~known
        if np.any(cut):
            coords = grid.interior_coords[cut]
            nbr_pt = coords.copy()
            nbr_pt[:, a] += s * h
            theta[cut] = _crossing_fraction(grid.descriptor, coords, a, s, h, nbr_pt)
            point[cut] = coords
            point[cut, a] += s * theta[cut] * h
        plan.nbr[(a, s)], plan.theta[(a, s)] = nbr, theta
        plan.arm_lattice[(a, s)], plan.arm_point[(a, s)] = known, point
    for key in plan.pair_keys(n):
        a, b, sa, sb = key
        shifts = [sa if k == a else sb if k == b else 0 for k in range(n)]
        plan.diag[key], plan.diag_known[key], plan.diag_point[key] = shifted(shifts)
    return plan


class StencilTerms(NamedTuple):
    """Difference terms ``kappa * (x[src] - u[node])`` of one Hessian entry.

    ``x`` is the interior values followed by the flattened trace samples
    (``BoundaryTrace.values``), so ``src < n_interior`` marks an interior
    source and every other source is a Dirichlet sample.
    """

    node: NDArray[np.int32]
    src: NDArray[np.int32]
    kappa: NDArray[np.float64]


class StencilTable:
    """The finite-difference Hessian of a grid, defined once.

    ``terms[(a, b)]`` (a <= b) holds the terms whose sum at node i is H_ab(u):
    for a == b the Shortley-Weller second difference (kappa
    2 / (h^2 theta_s (theta_+ + theta_-)) on the arm of sign s); for a < b the
    centred cross (kappa +-1/(4 h^2)) where all four diagonal points are
    interior or Boundary lattice nodes, else the average of the one-sided
    quadrants whose three points are, else nothing.  ``stiffness`` is
    D = sum_a 2 / (h^2 theta_+ theta_-), the weight of a Laplacian row on its
    own node; ``laplacian`` caches the Laplacian matrix and its LU for the
    linear solver.
    """

    def __init__(self, grid: Grid):
        plan = grid.plan
        n, h, N = grid.n, grid.h, grid.n_interior
        nodes = np.arange(N, dtype=np.int32)
        slots = {key: k for k, key in enumerate(plan.sample_keys(n))}

        def source(key, ends):
            return np.where(ends >= 0, ends, N * (1 + slots[key]) + nodes)

        arm = {key: source(key, plan.nbr[key]) for key in plan.arm_keys(n)}
        diag = {key: source(key, plan.diag[key]) for key in plan.pair_keys(n)}

        def collect(parts) -> StencilTerms:
            """Concatenate (node mask, source, kappa) blocks."""
            return StencilTerms(
                np.concatenate([nodes[m] for m, _, _ in parts]),
                np.concatenate([s[m] for m, s, _ in parts]).astype(np.int32),
                np.concatenate([np.broadcast_to(k, m.shape)[m] for m, _, k in parts]))

        every = np.ones(N, dtype=bool)
        self.terms: dict[tuple[int, int], StencilTerms] = {}
        self.stiffness = np.zeros(N, dtype=np.float64)
        for a in range(n):
            tp, tm = plan.theta[(a, +1)], plan.theta[(a, -1)]
            self.stiffness += 2.0 / (h ** 2 * tp * tm)
            self.terms[(a, a)] = collect([
                (every, arm[(a, +1)], 2.0 / (h ** 2 * tp * (tp + tm))),
                (every, arm[(a, -1)], 2.0 / (h ** 2 * tm * (tp + tm))),
            ])
        for a in range(n):
            for b in range(a + 1, n):
                signs = [(sa, sb) for sa in (+1, -1) for sb in (+1, -1)]
                known = {(sa, sb): (plan.diag[(a, b, sa, sb)] >= 0)
                         | plan.diag_known[(a, b, sa, sb)] for sa, sb in signs}
                centred = np.logical_and.reduce(list(known.values()))
                quads = {(sa, sb): ~centred & known[(sa, sb)]
                         & ((plan.nbr[(a, sa)] >= 0) | plan.arm_lattice[(a, sa)])
                         & ((plan.nbr[(b, sb)] >= 0) | plan.arm_lattice[(b, sb)])
                         for sa, sb in signs}
                count = np.maximum(sum(q.astype(np.int64) for q in quads.values()), 1)
                parts = [(centred, diag[(a, b, sa, sb)], sa * sb / (4.0 * h ** 2))
                         for sa, sb in signs]
                for (sa, sb), q in quads.items():
                    k = sa * sb / (h ** 2 * count)
                    parts += [(q, diag[(a, b, sa, sb)], k), (q, arm[(a, sa)], -k),
                              (q, arm[(b, sb)], -k)]
                self.terms[(a, b)] = collect(parts)
        self.laplacian: tuple | None = None


# ---------------------------------------------------------------------------
# Builders


def build_box(bounds: Iterable[tuple[float, float]], h: float) -> Grid:
    """Box grid: faces are Boundary lattice nodes, all offsets are theta = 1.

    ``h`` must divide every side length to within rounding; a spacing larger
    than the shortest side is rejected.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if not bounds:
        raise InvalidGridError("box needs at least one axis")
    if len(bounds) > 3:
        raise InvalidGridError("dimension capped at 3")
    if not 0 < h < math.inf:
        raise InvalidGridError("spacing h must be positive and finite")
    for lo, hi in bounds:
        if not -math.inf < lo < hi < math.inf:
            raise InvalidGridError(f"degenerate or unbounded interval [{lo}, {hi}]")
        if h > (hi - lo) * (1 + _DIVIDE_RTOL):
            raise InvalidGridError("h larger than the shortest side")
    counts = []
    for lo, hi in bounds:
        side = hi - lo
        m = round(min(side / h, 2.0 ** 62))  # finite even when side / h is not
        if m < 1 or abs(side - m * h) > _DIVIDE_RTOL * max(1.0, side):
            raise InvalidGridError(f"h={h} does not divide side [{lo}, {hi}]")
        counts.append(m + 1)

    descriptor = BoxDescriptor(bounds)
    shape = tuple(counts)
    try:
        node_class = np.full(shape, BOUNDARY, dtype=np.int8)
    except (ValueError, MemoryError):
        raise InvalidGridError(f"h = {h} gives a lattice too large to allocate") from None
    interior = tuple(slice(1, s - 1) for s in shape)
    if any(s.stop <= s.start for s in interior):
        raise InvalidGridError("box too thin for interior nodes at this h")
    node_class[interior] = INTERIOR
    origin = tuple(lo for lo, _ in bounds)
    return Grid(descriptor, h, origin, shape, node_class)


def _radial_grid(descriptor: BallDescriptor | AnnulusDescriptor, h: float,
                 r_max: float) -> Grid:
    center = np.asarray(descriptor.center, dtype=np.float64)
    n = descriptor.n
    if n < 1 or n > 3:
        raise InvalidGridError(f"center {descriptor.center} needs 1 to 3 coordinates")
    if not np.all(np.isfinite(center)):
        raise InvalidGridError(f"center {descriptor.center} must be finite")
    # Index the lattice symmetrically about the center so mirrored nodes get
    # bit-identical coordinates.
    try:
        m = int(math.ceil(r_max / h))
        axes = [center[k] + h * (np.arange(2 * m + 1, dtype=np.float64) - m)
                for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
    except (ValueError, MemoryError, OverflowError):
        raise InvalidGridError(f"h = {h} gives a lattice too large to allocate") from None
    shape = tuple([2 * m + 1] * n)
    d2 = sum((g - c) ** 2 for g, c in zip(mesh, center))
    s = np.sqrt(d2)
    if isinstance(descriptor, BallDescriptor):
        inside = s < descriptor.radius
    else:
        inside = (s > descriptor.r_inner) & (s < descriptor.r_outer)
    node_class = np.where(inside, INTERIOR, EXTERIOR).astype(np.int8)
    origin = tuple(float(axes[k][0]) for k in range(n))
    return Grid(descriptor, h, origin, shape, node_class)


def build_ball(center: Sequence[float], radius: float, h: float) -> Grid:
    """Ball grid: nodes with |x - center| < radius are Interior.

    Stencil arms that cross the sphere record the fractional crossing
    distance; requires radius > 2h so that the stencil can resolve the domain.
    """
    center = tuple(float(c) for c in center)
    if not 0 < h < math.inf:
        raise InvalidGridError("spacing h must be positive and finite")
    if not 2 * h < radius < math.inf:
        raise InvalidGridError(f"radius {radius} must be finite and exceed 2h = {2 * h}")
    return _radial_grid(BallDescriptor(center, float(radius)), h, float(radius))


def build_annulus(center: Sequence[float], r_inner: float, r_outer: float,
                  h: float) -> Grid:
    """Concentric annulus grid; the gap must exceed 2h."""
    center = tuple(float(c) for c in center)
    if not 0 < h < math.inf:
        raise InvalidGridError("spacing h must be positive and finite")
    if not 0 < r_inner < r_outer < math.inf:
        raise InvalidGridError("need 0 < r_inner < r_outer < inf")
    if not (r_outer - r_inner) > 2 * h:
        raise InvalidGridError("annular gap must exceed 2h")
    return _radial_grid(
        AnnulusDescriptor(center, float(r_inner), float(r_outer)), h, float(r_outer)
    )


def domain_measure(grid: Grid) -> float:
    """Discrete |Omega|: the largest superlevel measure the grid can produce.

    For n >= 2 that is h**n times the Interior node count.  In 1-D the
    superlevel sets are measured on the interpolant, which covers the whole
    length: hi - lo on a box, 2r on a ball, 2(r_out - r_in) on an annulus.
    This value, not the continuum volume, is the upper end of the profile
    function's domain, so superlevel measures never leave the profile's
    range.
    """
    d = grid.descriptor
    if grid.n > 1:
        return grid.cell * grid.n_interior
    if isinstance(d, BoxDescriptor):
        (lo, hi), = d.bounds
        return hi - lo
    if isinstance(d, BallDescriptor):
        return 2.0 * d.radius
    return 2.0 * (d.r_outer - d.r_inner)


# ---------------------------------------------------------------------------
# Dirichlet boundary data


def _distance(pts: NDArray[np.float64],
              center: NDArray[np.float64]) -> NDArray[np.float64]:
    """|x - center| per point; the point and center dimensions must agree."""
    if pts.shape[1] != center.size:
        raise InvalidParameterError(
            f"boundary data centred in {center.size} dimensions evaluated at "
            f"points in {pts.shape[1]}")
    return np.linalg.norm(pts - center, axis=1)


class BoundaryData:
    """Dirichlet data evaluated on demand at boundary intersection points.

    Built-in kinds: ``zero``, ``radial_poly`` (polynomial in |x - center|),
    ``table`` (piecewise-linear in |x - center|).  ``from_callable`` wraps an
    arbitrary function of position for programmatic use.
    """

    def __init__(self, kind: str, fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]):
        self.kind = kind
        self._fn = fn

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls("zero", lambda pts: np.zeros(pts.shape[0], dtype=np.float64))

    @classmethod
    def radial_poly(cls, coeffs: Sequence[float],
                    center: Sequence[float]) -> "BoundaryData":
        c = np.asarray(list(coeffs), dtype=np.float64)
        ctr = np.asarray(list(center), dtype=np.float64)
        if c.size == 0:
            raise InvalidParameterError("radial_poly needs at least one coefficient")

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            s = _distance(pts, ctr)
            out = np.zeros_like(s)
            for k in range(c.size - 1, -1, -1):
                out = out * s + c[k]
            return out

        return cls("radial_poly", fn)

    @classmethod
    def table(cls, knots: Sequence[float], values: Sequence[float],
              center: Sequence[float]) -> "BoundaryData":
        kn = np.asarray(list(knots), dtype=np.float64)
        va = np.asarray(list(values), dtype=np.float64)
        if kn.size < 2 or kn.size != va.size:
            raise InvalidParameterError("table needs matching knots/values, >= 2 each")
        if not np.all(np.diff(kn) > 0):
            raise InvalidParameterError("table knots must be strictly increasing")
        ctr = np.asarray(list(center), dtype=np.float64)

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            return np.interp(_distance(pts, ctr), kn, va)

        return cls("table", fn)

    @classmethod
    def from_callable(cls, fn: Callable[..., object]) -> "BoundaryData":
        def wrapped(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            out = np.asarray(fn(pts), dtype=np.float64)
            if out.shape != (pts.shape[0],):
                out = np.array([fn(p) for p in pts], dtype=np.float64)
            return out

        return cls("callable", wrapped)

    def evaluate(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.asarray(self._fn(pts), dtype=np.float64)
        if out.shape != (pts.shape[0],) or not np.all(np.isfinite(out)):
            raise InvalidParameterError("boundary data must evaluate to one finite "
                                        f"value per point (shape {out.shape})")
        return out


class BoundaryTrace:
    """Dirichlet values sampled at every point a grid's stencils need.

    ``values`` has one row per key of ``plan.sample_keys``: psi at the
    non-interior arm ends, then at the Boundary lattice nodes used by mixed
    stencils, NaN elsewhere.  ``arm[(axis, sign)]`` is a view of an arm row.
    """

    def __init__(self, grid: Grid, psi: BoundaryData):
        self.grid = grid
        plan = grid.plan
        keys = plan.sample_keys(grid.n)
        self.values = np.full((len(keys), grid.n_interior), np.nan, dtype=np.float64)
        self.arm: dict[tuple[int, int], NDArray[np.float64]] = {}
        for row, key in zip(self.values, keys):
            if len(key) == 2:
                self.arm[key] = row
                sel, points = plan.nbr[key] < 0, plan.arm_point[key]
            else:
                sel, points = plan.diag_known[key], plan.diag_point[key]
            if np.any(sel):
                row[sel] = psi.evaluate(points[sel])

    def all_values(self) -> NDArray[np.float64]:
        """Every boundary sample the trace holds, for sup/inf queries."""
        return self.values[np.isfinite(self.values)]


def build_trace(grid: Grid, psi: BoundaryData) -> BoundaryTrace:
    return BoundaryTrace(grid, psi)
