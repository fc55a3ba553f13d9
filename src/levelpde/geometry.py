"""Masked uniform grids over boxes, balls and annuli with Dirichlet data.

A descriptor lists its curved boundary as ``spheres``: (radius, side) pairs
about its center, outermost first, the domain being the points x with
side (|x - center| - radius) > 0 for every pair.  A ball is ((R, -1),), an
annulus ((r_outer, -1), (r_inner, +1)), and a box has none.  Distances,
node classes, crossings and the 1-D length of a ball or annulus are read
from that list alone.

The domain is represented node-centered: every lattice node is classified
Interior, Boundary or Exterior.  Boxes carry genuine Boundary lattice nodes on
their faces; the spheres have no on-lattice boundary, so each stencil arm
that leaves the domain records the fractional distance theta in (0, 1] to the
true boundary (Shortley-Weller offsets).  Each grid also holds, built on
first use, its one stencil object (``grid.plan``): the arm and diagonal
ends, the Dirichlet sample points and the terms of its discrete Hessian.
Grids are immutable after construction and all queries are pure, so they
are safe to share.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval
from numpy.typing import NDArray

from .errors import InvalidGridError, InvalidParameterError

INTERIOR = 0
BOUNDARY = 1
EXTERIOR = 2

_CLASS_NAMES = {INTERIOR: "Interior", BOUNDARY: "Boundary", EXTERIOR: "Exterior"}

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

    @property
    def spheres(self) -> tuple[tuple[float, float], ...]:
        return ()


@dataclass(frozen=True)
class BallDescriptor:
    center: tuple[float, ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def spheres(self) -> tuple[tuple[float, float], ...]:
        return ((self.radius, -1.0),)


@dataclass(frozen=True)
class AnnulusDescriptor:
    """Concentric spherical shell r_inner < |x - center| < r_outer."""

    center: tuple[float, ...]
    r_inner: float
    r_outer: float

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def spheres(self) -> tuple[tuple[float, float], ...]:
        return ((self.r_outer, -1.0), (self.r_inner, +1.0))


Descriptor = BoxDescriptor | BallDescriptor | AnnulusDescriptor


class Grid:
    """Uniform lattice with node classification and boundary offsets.

    Attributes
    ----------
    n : spatial dimension (1, 2 or 3)
    h : lattice spacing, identical along every axis
    axis_coords : node coordinates along each axis, derived from the
                  descriptor and h (``_lattice``); a ball or annulus has
                  2m + 1 nodes per axis, node m at its center
    origin : coordinate of node index (0, ..., 0)
    shape : node counts per axis
    node_class : int8 array over the full lattice (INTERIOR/BOUNDARY/EXTERIOR),
                 classified by the grid itself, mirror-symmetric in every axis
    descriptor : the continuum domain this lattice discretizes
    """

    def __init__(self, descriptor: Descriptor, h: float):
        self.descriptor = descriptor
        self.n = descriptor.n
        self.h = float(h)
        if not 0 < self.h < math.inf:
            raise InvalidGridError("spacing h must be positive and finite")
        self.axis_coords, self.node_class = _lattice(descriptor, self.h)
        self.node_class.setflags(write=False)
        self.origin = tuple(float(ax[0]) for ax in self.axis_coords)
        self.shape = self.node_class.shape

        # Far from the origin of the coordinates, the axes round onto a
        # coarser lattice, or onto a single point.
        for ax in self.axis_coords:
            if not np.all(np.abs(np.diff(ax) - self.h) <= _DIVIDE_RTOL * self.h):
                raise InvalidGridError(
                    f"coordinates near {ax[0]} cannot resolve the spacing h = {self.h}")

        self.interior_mask = self.node_class == INTERIOR
        self.interior_flat = np.flatnonzero(self.interior_mask.ravel())
        self.n_interior = int(self.interior_flat.size)
        if self.n_interior == 0:
            raise InvalidGridError("grid has no interior nodes")

        # Ordinal of each lattice node in the interior numbering; -1 elsewhere.
        pos = np.full(int(np.prod(self.shape)), -1, dtype=np.intp)
        pos[self.interior_flat] = np.arange(self.n_interior, dtype=np.intp)
        self._ordinal_flat = pos

        idx = np.unravel_index(self.interior_flat, self.shape)
        self.interior_index = tuple(a.astype(np.int64) for a in idx)
        self.interior_coords = np.stack(
            [self.axis_coords[k][idx[k]] for k in range(self.n)], axis=1
        )
        self._plan: StencilPlan | None = None

    # -- basic queries -----------------------------------------------------

    @property
    def cell(self) -> float:
        """Cell measure h**n."""
        return self.h ** self.n

    def matches(self, other: "Grid") -> bool:
        """The same lattice: a domain and its spacing fix every node."""
        return self is other or (self.descriptor == other.descriptor
                                 and self.h == other.h)

    def ordinal(self, index: Sequence[int]) -> int:
        """Interior ordinal of a multi-index of integers, or -1."""
        index = tuple(index)
        try:
            ints = tuple(operator.index(i) for i in index)
        except TypeError:  # a non-integer entry
            ints = ()
        if len(ints) != self.n or not all(0 <= i < m
                                          for i, m in zip(ints, self.shape)):
            raise InvalidParameterError(
                f"{index} is not a node of the {self.shape} lattice")
        return int(self._ordinal_flat[np.ravel_multi_index(ints, self.shape)])

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
        s = np.linalg.norm(pts - np.asarray(d.center, dtype=np.float64), axis=1)
        return np.min([side * (s - r) for r, side in d.spheres], axis=0)

    @property
    def plan(self) -> "StencilPlan":
        """The grid's stencil, built on first use."""
        if self._plan is None:
            self._plan = StencilPlan(self)
        return self._plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grid(n={self.n}, h={self.h}, shape={self.shape}, "
            f"interior={self.n_interior}, descriptor={self.descriptor})"
        )


def _lattice(descriptor: Descriptor,
             h: float) -> tuple[list[NDArray[np.float64]], NDArray[np.int8]]:
    """The axes of the lattice of spacing h on a domain, and its node classes.

    A box's axes are lo + h k up to hi, and its faces are Boundary nodes.  A
    ball's or annulus's are 2m + 1 nodes c + h (k - m), node m past the
    outer sphere: m h >= r_max keeps every Interior node off the lattice
    faces, so every arm of one ends on the lattice.  Its nodes are classified
    from their offsets h (k - m) to the center node m, which mirrored nodes
    get with opposite sign, bit for bit, wherever the center lies.
    """
    d = descriptor
    try:
        if isinstance(d, BoxDescriptor):
            if not d.bounds:
                raise InvalidGridError("box needs at least one axis")
            if len(d.bounds) > 3:
                raise InvalidGridError("dimension capped at 3")
            counts = []
            for lo, hi in d.bounds:
                if not -math.inf < lo < hi < math.inf:
                    raise InvalidGridError(f"degenerate or unbounded interval [{lo}, {hi}]")
                if h > (hi - lo) * (1 + _DIVIDE_RTOL):
                    raise InvalidGridError("h larger than the shortest side")
                side = hi - lo
                m = round(min(side / h, 2.0 ** 62))  # finite even when side / h is not
                if m < 1 or abs(side - m * h) > _DIVIDE_RTOL * max(1.0, side):
                    raise InvalidGridError(f"h={h} does not divide side [{lo}, {hi}]")
                counts.append(m + 1)
            axes = [lo + h * np.arange(k, dtype=np.float64)
                    for (lo, _), k in zip(d.bounds, counts)]
            node_class = np.full(counts, BOUNDARY, dtype=np.int8)
            node_class[tuple(slice(1, -1) for _ in axes)] = INTERIOR
            return axes, node_class
        if isinstance(d, BallDescriptor):
            if not 2 * h < d.radius < math.inf:
                raise InvalidGridError(
                    f"radius {d.radius} must be finite and exceed 2h = {2 * h}")
        elif not 0 < d.r_inner < d.r_outer < math.inf:
            raise InvalidGridError("need 0 < r_inner < r_outer < inf")
        elif not (d.r_outer - d.r_inner) > 2 * h:
            raise InvalidGridError("annular gap must exceed 2h")
        if not 1 <= d.n <= 3:
            raise InvalidGridError(f"center {d.center} needs 1 to 3 coordinates")
        if not all(map(math.isfinite, d.center)):
            raise InvalidGridError(f"center {d.center} must be finite")
        r_max = d.spheres[0][0]
        m = int(math.ceil(r_max / h))
        m += h * m < r_max  # r_max / h rounded down: put node m past r_max
        offsets = h * (np.arange(2 * m + 1, dtype=np.float64) - m)
        s = np.sqrt(sum(g ** 2 for g in np.meshgrid(*[offsets] * d.n, indexing="ij")))
    except (ValueError, MemoryError, OverflowError):
        raise InvalidGridError(f"h = {h} gives a lattice too large to allocate") from None
    inside = np.logical_and.reduce([side * (s - r) > 0 for r, side in d.spheres])
    return ([c + offsets for c in d.center],
            np.where(inside, INTERIOR, EXTERIOR).astype(np.int8))


def _crossing_fraction(grid: Grid, cut: NDArray[np.intp], axis: int,
                       sign: int) -> NDArray[np.float64]:
    """Fractional distance theta in (0,1] to the sphere the arm of the
    interior nodes with ordinals ``cut`` along (axis, sign) crosses before
    its neighbor, from their offsets h (i - m) to the center node m: exact
    on both sides."""
    h = grid.h
    d = h * np.stack([i[cut] - k // 2 for i, k in zip(grid.interior_index, grid.shape)], 1)
    rho2 = np.sum(d * d, axis=1) - d[:, axis] ** 2
    radius, side = np.array(grid.descriptor.spheres).T
    # The arm leaves through the sphere nearest its neighbor, the k-th when
    # the neighbor lies inside k of the middle radii of consecutive spheres.
    # Its offset d + s h can round to the other side of a sphere than
    # _lattice's h (k + s - m), so it is compared with those middle radii,
    # far from every sphere.
    nbr = d.copy()
    nbr[:, axis] += sign * h
    inside = 2 * np.linalg.norm(nbr, axis=1)[:, None] < radius[:-1] + radius[1:]
    k = np.count_nonzero(inside, axis=1)
    r, side = radius[k], side[k]
    t = -side * np.sqrt(np.maximum(r * r - rho2, 0.0)) - sign * d[:, axis]
    return np.clip(t / h, 1e-12, 1.0)


class StencilTerms(NamedTuple):
    """Difference terms ``kappa * (x[src] - u[node])`` of one Hessian entry.

    ``x`` is the interior values followed by the trace samples
    (``BoundaryTrace.values``), indexed as ``plan.src``, so
    ``src < n_interior`` marks an interior source and every other source is
    a Dirichlet sample.  The first ``arity * width`` terms, the head, are
    ``arity`` blocks of one term at each of the ``width`` ascending nodes
    ``node[:width]``; the rest, the band, belong to other nodes, any number
    each.  ``node`` and ``src`` are intp, NumPy's own index type: a gather
    or a bincount copies any other integer type to it on every call.
    """

    node: NDArray[np.intp]
    src: NDArray[np.intp]
    kappa: NDArray[np.float64]
    arity: int
    width: int

    def values(self, x: NDArray[np.float64],
               uin: NDArray[np.float64]) -> NDArray[np.float64]:
        """Each term kappa * (x[src] - u[node]) for the interior values uin."""
        head = self.arity * self.width
        d = x[self.src]
        blocks = d[:head].reshape(self.arity, self.width)  # a view of d
        blocks -= uin if self.width == uin.size else uin[self.node[:self.width]]
        d[head:] -= uin[self.node[head:]]
        d *= self.kappa
        return d

    def node_sums(self, w: NDArray[np.float64], N: int) -> NDArray[np.float64]:
        """The sum of the term values w at each of the N nodes, with the
        bits of ``np.bincount(node, w, minlength=N)``: that adds a node's
        terms in order, from +0.0, which the head's blocks do by gathers."""
        head = self.arity * self.width
        rows = w[:head].reshape(self.arity, self.width)
        s = 0.0 + rows[0]
        for row in rows[1:]:
            s += row
        if self.width == N:  # every node in the head, so no band
            return s
        out = np.bincount(self.node[head:], w[head:], minlength=N)
        out = out.astype(np.float64, copy=False)  # an empty band counts in int64
        out[self.node[:self.width]] = s
        return out


class _Terms(dict):
    """A plan's ``terms``: each key missing on lookup is built then."""

    def __init__(self, build: Callable[[int, int], StencilTerms]):
        super().__init__()
        self._build = build

    def __missing__(self, key: tuple[int, int]) -> StencilTerms:
        self[key] = terms = self._build(*key)
        return terms


class StencilPlan:
    """The finite-difference stencil of a grid, defined once.

    Keys are the arms (a, s), axis a and direction s in {+1, -1}, then the
    diagonals (a, b, sa, sb), a < b.  Per interior node:

    * ``src[key]``        the arm end or diagonal node as an index into the
                          interior values followed by the Dirichlet samples:
                          the interior ordinal, N + the sample index, or -1
                          for an Exterior diagonal node
    * ``theta[(a, s)]``   fractional arm length in (0, 1]; 1.0 when the arm
                          ends on a lattice node

    An end is the node's flat lattice index plus the key's offset in the
    C-order strides; ``_lattice`` keeps every Interior node off the lattice
    faces, so no end wraps onto another row.  Only the ends that are
    sampled are unravelled to their coordinates.

    ``points`` (M, n) are the places the Dirichlet data is sampled: every
    non-interior arm end (a crossing or a Boundary lattice node), then every
    Boundary lattice diagonal node, in key order, nodes in order within a
    key.

    ``terms[(a, b)]`` (a <= b) holds the terms whose sum at node i is
    H_ab(u) (see ``StencilTerms`` for the layout).  For a == b it is the
    Shortley-Weller second difference, kappa 2 / (h^2 theta_s (theta_+ +
    theta_-)) on the arm of sign s: a head of arity 2 over every node, the
    + arm terms then the - arm terms.  For a < b it is the centred cross,
    kappa +-1/(4 h^2), a head of arity 4 (signs (+, +), (+, -), (-, +),
    (-, -)) over the nodes whose four diagonal points are all interior or
    Boundary lattice nodes; the band then holds, at each other node, the
    average of the one-sided quadrants whose three points are, or nothing.
    The (a, a) terms are built with the plan, and each (a, b) key on its
    first lookup, since the Laplacian reads none of them.  ``pairs`` lists
    the keys, (a, a) first, in the order every sum over keys follows.
    ``stiffness`` is D = sum_a 2 / (h^2 theta_+ theta_-), the weight of a
    Laplacian row on its own node; ``laplacian`` caches the linear solver's
    Laplacian LU (``elliptic._laplacian``), in the 2^n mirror-symmetry
    sectors of the matrix, each factored on first use.  ``interval``
    keeps what the 1-D cell measure reads of the grid alone
    (``measure._interval_pieces``), built on its first call.
    """

    def __init__(self, grid: Grid):
        n, N, h = grid.n, grid.n_interior, grid.h
        cls_flat = grid.node_class.ravel()
        self.src: dict[tuple[int, ...], NDArray[np.intp]] = {}
        self.theta: dict[tuple[int, int], NDArray[np.float64]] = {}
        whole: dict[tuple[int, int], NDArray[np.bool_]] = {}  # arm ends on a node
        points: list[NDArray[np.float64]] = []
        keys = [(a, s) for a in range(n) for s in (+1, -1)] + [
            (a, b, sa, sb) for a in range(n) for b in range(a + 1, n)
            for sa in (+1, -1) for sb in (+1, -1)]
        strides = [math.prod(grid.shape[a + 1:]) for a in range(n)]
        for key in keys:
            shift = zip(key[:len(key) // 2], key[len(key) // 2:])
            end = grid.interior_flat + sum(s * strides[a] for a, s in shift)
            src = grid._ordinal_flat[end]
            off = np.flatnonzero(src < 0)  # the nodes whose end is not Interior
            end = end[off]
            on_node = cls_flat[end] == BOUNDARY
            point = np.empty((off.size, n), dtype=np.float64)
            point[on_node] = np.stack([ax[i] for ax, i in zip(
                grid.axis_coords, np.unravel_index(end[on_node], grid.shape))], axis=1)
            if len(key) == 2:
                (a, s), theta = key, np.ones(N, dtype=np.float64)
                whole[key] = np.ones(N, dtype=np.bool_)
                # An arm ending on neither an Interior nor a Boundary node
                # crosses a curved boundary (box arms never do).
                cut = off[~on_node]
                if cut.size:
                    theta[cut] = _crossing_fraction(grid, cut, a, s)
                    point[~on_node] = grid.interior_coords[cut]
                    point[~on_node, a] += s * theta[cut] * h
                    whole[key][cut] = False
                self.theta[key] = theta
            else:  # an Exterior diagonal node keeps src -1
                off, point = off[on_node], point[on_node]
            src[off] = N + sum(map(len, points)) + np.arange(off.size)
            self.src[key] = src
            points.append(point)
        self.points = np.concatenate(points)
        src = self.src

        def cross(a: int, b: int) -> StencilTerms:
            """The (a, b) terms: the centred head, then the quadrant band."""
            signs = [(sa, sb) for sa in (+1, -1) for sb in (+1, -1)]
            known = {(sa, sb): src[(a, b, sa, sb)] >= 0 for sa, sb in signs}
            centred = np.logical_and.reduce(list(known.values()))
            quads = {(sa, sb): ~centred & known[(sa, sb)]
                     & whole[(a, sa)] & whole[(b, sb)] for sa, sb in signs}
            count = np.maximum(sum(q.astype(np.int64) for q in quads.values()), 1)
            parts = [(centred, src[(a, b, sa, sb)], sa * sb / (4.0 * h ** 2))
                     for sa, sb in signs]
            for (sa, sb), q in quads.items():
                k = sa * sb / (h ** 2 * count)
                parts += [(q, src[(a, b, sa, sb)], k), (q, src[(a, sa)], -k),
                          (q, src[(b, sb)], -k)]
            return StencilTerms(
                np.concatenate([np.flatnonzero(m) for m, _, _ in parts]),
                np.concatenate([s[m] for m, s, _ in parts]),
                np.concatenate([np.broadcast_to(k, m.shape)[m] for m, _, k in parts]),
                4, int(np.count_nonzero(centred)))

        self.pairs = [(a, a) for a in range(n)] + [
            (a, b) for a in range(n) for b in range(a + 1, n)]
        self.terms = _Terms(cross)
        self.stiffness = np.zeros(N, dtype=np.float64)
        nodes = np.arange(N, dtype=np.intp)
        for a in range(n):
            tp, tm = self.theta[(a, +1)], self.theta[(a, -1)]
            self.stiffness += 2.0 / (h ** 2 * tp * tm)
            self.terms[(a, a)] = StencilTerms(
                np.concatenate((nodes, nodes)),
                np.concatenate((src[(a, +1)], src[(a, -1)])),
                np.concatenate((2.0 / (h ** 2 * tp * (tp + tm)),
                                2.0 / (h ** 2 * tm * (tp + tm)))),
                2, N)
        self.laplacian: object | None = None
        self.interval: tuple | None = None


# ---------------------------------------------------------------------------
# Builders


def build_box(bounds: Iterable[tuple[float, float]], h: float) -> Grid:
    """Box grid: faces are Boundary lattice nodes, all offsets are theta = 1.

    ``h`` must divide every side length to within rounding; a spacing larger
    than the shortest side is rejected.
    """
    return Grid(BoxDescriptor(tuple((float(lo), float(hi)) for lo, hi in bounds)), h)


def build_ball(center: Sequence[float], radius: float, h: float) -> Grid:
    """Ball grid: nodes with |x - center| < radius are Interior.

    Stencil arms that cross the sphere record the fractional crossing
    distance; requires radius > 2h so that the stencil can resolve the domain.
    """
    return Grid(BallDescriptor(tuple(float(c) for c in center), float(radius)), h)


def build_annulus(center: Sequence[float], r_inner: float, r_outer: float,
                  h: float) -> Grid:
    """Concentric annulus grid; the gap must exceed 2h."""
    return Grid(AnnulusDescriptor(tuple(float(c) for c in center), float(r_inner),
                                  float(r_outer)), h)


def domain_measure(grid: Grid) -> float:
    """Discrete |Omega|: the largest superlevel measure the grid can produce.

    For n >= 2 that is h**n times the Interior node count.  In 1-D the
    superlevel sets are measured on the interpolant, which covers the whole
    length: hi - lo on a box, and the sum of -2 side r over the spheres
    otherwise (2r on a ball, 2(r_out - r_in) on an annulus).
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
    return sum(-2.0 * side * r for r, side in d.spheres)


# ---------------------------------------------------------------------------
# Dirichlet boundary data


def _checked_table(knots: Sequence[float], values: Sequence[float]
                   ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The knots and values of a piecewise-linear table: matching lengths of
    at least 2, all finite, the knots strictly increasing."""
    kn = np.asarray(list(knots), dtype=np.float64)
    va = np.asarray(list(values), dtype=np.float64)
    if kn.size < 2 or kn.size != va.size:
        raise InvalidParameterError("table needs matching knots/values, >= 2 each")
    if not (np.all(np.isfinite(kn)) and np.all(np.isfinite(va))):
        raise InvalidParameterError("table knots and values must be finite")
    if not np.all(np.diff(kn) > 0):
        raise InvalidParameterError("table knots must be strictly increasing")
    return kn, va


class BoundaryData:
    """Dirichlet data evaluated on demand at boundary intersection points.

    Built-in kinds: ``zero``, ``radial_poly`` (polynomial in |x - center|),
    ``table`` (piecewise-linear in |x - center|).  ``from_callable`` wraps an
    arbitrary function of position for programmatic use.
    """

    def __init__(self, fn: Callable[[NDArray[np.float64]], NDArray[np.float64]]):
        self._fn = fn

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls(lambda pts: np.zeros(pts.shape[0], dtype=np.float64))

    @classmethod
    def _radial(cls, profile: Callable[[NDArray[np.float64]], NDArray[np.float64]],
                center: Sequence[float]) -> "BoundaryData":
        """psi(x) = profile(|x - center|); the point and center dimensions
        must agree."""
        ctr = np.asarray(list(center), dtype=np.float64)

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            if pts.shape[1] != ctr.size:
                raise InvalidParameterError(
                    f"boundary data centred in {ctr.size} dimensions evaluated at "
                    f"points in {pts.shape[1]}")
            return profile(np.linalg.norm(pts - ctr, axis=1))

        return cls(fn)

    @classmethod
    def radial_poly(cls, coeffs: Sequence[float],
                    center: Sequence[float]) -> "BoundaryData":
        c = np.asarray(list(coeffs), dtype=np.float64)
        if c.size == 0:
            raise InvalidParameterError("radial_poly needs at least one coefficient")
        return cls._radial(lambda s: polyval(s, c), center)

    @classmethod
    def table(cls, knots: Sequence[float], values: Sequence[float],
              center: Sequence[float]) -> "BoundaryData":
        kn, va = _checked_table(knots, values)
        return cls._radial(lambda s: np.interp(s, kn, va), center)

    @classmethod
    def from_callable(cls, fn: Callable[..., object]) -> "BoundaryData":
        def wrapped(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            out = np.asarray(fn(pts), dtype=np.float64)
            if out.shape != (pts.shape[0],):
                out = np.array([fn(p) for p in pts], dtype=np.float64)
            return out

        return cls(wrapped)

    def evaluate(self, points: NDArray[np.float64]) -> NDArray[np.float64]:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.asarray(self._fn(pts), dtype=np.float64)
        if out.shape != (pts.shape[0],) or not np.all(np.isfinite(out)):
            raise InvalidParameterError("boundary data must evaluate to one finite "
                                        f"value per point (shape {out.shape})")
        return out


class BoundaryTrace:
    """Dirichlet data ``psi`` and its values at every point a grid's stencils
    need: ``values[j]`` is psi at ``grid.plan.points[j]``."""

    def __init__(self, grid: Grid, psi: BoundaryData):
        self.grid, self.psi = grid, psi
        self.values = psi.evaluate(grid.plan.points)


def build_trace(grid: Grid, psi: BoundaryData) -> BoundaryTrace:
    return BoundaryTrace(grid, psi)
