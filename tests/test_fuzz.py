"""Property tests of the input paths: a config text either parses or
raises ConfigError, a field dump either loads or raises
InvalidParameterError, the Python API's grid builders and boundary data
either give a value or raise a LevelPDEError, and solver settings either
raise InvalidParameterError or give a solve report; no other exception may
escape.  Every 3-D grid the builders make is mirror-symmetric in each axis,
down to the last bit of its Laplacian, which the sector LU relies on.

Numbers are drawn small (|x| <= 2, h >= 1/16 for configs; extents <= 4,
h >= 1/64, h >= 1/4 in 3-D, for builders) or absurd (non-finite, negative,
1e300, 1e-300, tiny gaps), so every lattice built is either small or one
that numpy refuses outright, never one it would allocate.  Spacings across
the whole double range come with domains a few spacings across.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from levelpde.cli import _KEYS, RunConfig, format_field, load_field, parse_config
from levelpde.elliptic import EllipticOperator, _matrix
from levelpde.errors import (ConfigError, InvalidGridError, InvalidParameterError,
                             LevelPDEError)
from levelpde.geometry import (BOUNDARY, EXTERIOR, INTERIOR, AnnulusDescriptor,
                               BallDescriptor, BoundaryData, Grid, _crossing_fraction,
                               build_annulus, build_ball, build_box, build_trace,
                               domain_measure)
from levelpde.measure import ProfileFunction, ScalarField
from levelpde.outerloop import OuterConfig, solve_nonlocal

ABSURD = ["nan", "inf", "-inf", "-1", "0", "1e300", "-1e300", "1e-300", "auto", "", "x"]
WORDS = ["box", "ball", "annulus", "laplacian", "pucci_minus", "pucci_plus",
         "linear", "table", "zero", "radial_poly", "policy", "pseudo_time"]
SMALL = st.one_of(st.sampled_from(ABSURD), st.floats(-2, 2).map(repr),
                  st.integers(-2, 2).map(str))
SPACING = st.one_of(st.sampled_from(ABSURD), st.floats(1 / 16, 2).map(repr),
                    st.sampled_from(["0.0625", "0.125", "0.25", "0.5", "1"]))
VALUE = st.one_of(
    SMALL,
    st.sampled_from(WORDS),
    st.lists(SMALL, min_size=1, max_size=4).map(",".join),
    st.lists(st.tuples(SMALL, SMALL).map(":".join), min_size=1, max_size=4).map(",".join),
)


@st.composite
def config_lines(draw):
    key = draw(st.one_of(st.sampled_from(sorted(_KEYS)),
                         st.sampled_from(["grid.step", "solver", "= 1"])))
    value = draw(SPACING if key == "grid.h" else VALUE)
    return draw(st.sampled_from([f"{key} = {value}", f"{key} {value}", f"# {key}"]))


BASE = {"domain.type": "ball", "domain.center": "0,0", "domain.radius": "1",
        "domain.r_inner": "0.4", "domain.r_outer": "1", "domain.bounds": "-1:1,-1:1",
        "grid.h": "0.25", "operator.kind": "laplacian", "profile.kind": "linear",
        "profile.a": "-1", "profile.b": "0", "boundary.kind": "zero"}


@st.composite
def configs(draw, max_lines=4):
    """A valid config with up to three values replaced or dropped and up to
    max_lines random lines appended, so that both parsing configs and
    rejected ones are drawn."""
    base = dict(BASE)
    for key in draw(st.lists(st.sampled_from(sorted(BASE)), max_size=3, unique=True)):
        base[key] = draw(st.one_of(st.none(), SPACING if key == "grid.h" else VALUE))
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    return "\n".join(lines + draw(st.lists(config_lines(), max_size=max_lines)))


@settings(max_examples=200, deadline=None)
@given(configs())
def test_parse_config_raises_only_config_errors(text):
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None)
@given(configs(max_lines=1))
def test_every_problem_carries_the_line_of_its_key(text):
    # A problem about a key written in the text carries a line where it is
    # written; any other names a known key that is missing, with no line.
    # One appended line at most leaves enough configs whose only problems
    # are the constructors' to find those.
    written: dict[str, set[int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        written.setdefault(key, set()).add(lineno)
    try:
        parse_config(text)
    except ConfigError as err:
        for line, key, _ in err.problems:
            if key in written:
                assert line in written[key]
            else:
                assert line is None and key in _KEYS


TRACE = build_trace(build_ball((0.0, 0.0), 1.0, 0.4), BoundaryData.zero())
DUMP = format_field(ScalarField(np.linspace(0, 1, TRACE.grid.n_interior),
                                TRACE)).splitlines()
HEAD_TOKEN = st.sampled_from(["n=3", "n=x", "shape=5,5", "shape=0,7", "shape=7",
                              "shape=99999999999,99999999999", "h=nan", "origin=x"])
TOKEN = st.one_of(SMALL, HEAD_TOKEN,
                  st.sampled_from(["Interior", "Boundary", "Exterior", "1,2", "7,7"]))
LINE = st.lists(TOKEN, max_size=5).map(" ".join)


@st.composite
def dumps(draw):
    """A valid dump with one header token and up to four node lines replaced
    by random tokens, and perhaps cut short."""
    head = DUMP[0][2:].split()
    head[draw(st.integers(0, len(head) - 1))] = draw(st.one_of(HEAD_TOKEN, TOKEN))
    lines = [draw(st.sampled_from([DUMP[0], "# " + " ".join(head)]))] + DUMP[1:]
    for k, text in draw(st.lists(st.tuples(st.integers(1, len(DUMP) - 1), LINE),
                                 max_size=4)):
        lines[k] = text
    if draw(st.booleans()):
        lines = lines[:draw(st.integers(0, len(lines)))]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dumps())
def test_load_field_raises_only_parameter_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.txt"
        path.write_text(text)
        try:
            loaded = load_field(path, TRACE)
        except InvalidParameterError:
            return
    assert loaded.trace is TRACE


ODD = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 5e-324, 1e300]
EXTENT = st.one_of(st.floats(-4, 4), st.sampled_from(ODD))
TINY = st.sampled_from([0.0, 5e-324, 1e-300, 1e-15, 1e-9, -1e-15])


def spacing(n):
    return st.one_of(st.floats(1 / 64 if n < 3 else 1 / 4, 4), st.sampled_from(ODD))


@st.composite
def builder_calls(draw):
    """(builder, args): a box, ball or annulus with drawn extents, perhaps
    absurd, perhaps with a gap a few ulps or less wide."""
    n = draw(st.integers(1, 3))
    h = draw(spacing(n))
    kind = draw(st.sampled_from(["box", "ball", "annulus"]))
    center = tuple(draw(st.lists(EXTENT, min_size=n, max_size=n)))
    if kind == "box":
        lows = draw(st.lists(EXTENT, min_size=n, max_size=n))
        ends = [lo + draw(st.one_of(EXTENT, TINY)) for lo in lows]
        return build_box, (list(zip(lows, ends)), h)
    if kind == "ball":
        return build_ball, (center, draw(EXTENT), h)
    r_inner = draw(EXTENT)
    return build_annulus, (center, r_inner, r_inner + draw(st.one_of(EXTENT, TINY)), h)


@settings(max_examples=150, deadline=None)
@given(builder_calls())
def test_builders_give_a_grid_or_a_package_error(call):
    build, args = call
    try:
        grid = build(*args)
    except LevelPDEError:
        return
    assert isinstance(grid, Grid) and grid.n_interior > 0
    for ax in grid.axis_coords:
        assert np.allclose(np.diff(ax), grid.h, rtol=1e-9, atol=0)


@st.composite
def scaled_domains(draw):
    """(builder, args): a ball, annulus or box a few spacings across, with
    h = 10^x for x in [-330, 308], subnormal and out-of-range spacings
    included; every lattice has at most 13 nodes per axis."""
    n = draw(st.integers(1, 3))
    h = 10.0 ** draw(st.floats(-330, 308))
    kind = draw(st.sampled_from(["box", "ball", "annulus"]))
    radius = draw(st.floats(2.2, 4.5)) * h
    if kind == "box":
        return build_box, ([(0.0, draw(st.integers(2, 4)) * h)] * n, h)
    if kind == "ball":
        return build_ball, ((0.0,) * n, radius, h)
    r_inner = draw(st.floats(0.1, 1)) * h
    return build_annulus, ((0.0,) * n, r_inner, r_inner + radius, h)


@settings(max_examples=300, deadline=None)
@given(scaled_domains())
@example((build_ball, ((0.0,), 1e-300, 1e-301)))
@example((build_box, ([(0.0, 1e156)] * 2, 1e155)))
@example((build_box, ([(0.0, 3 * 1.2e154)], 1.2e154)))  # 2 h^2 overflows
@example((build_ball, ((0.0, 0.0), 2.25e154, 5e153)))  # 2 (m h)^2 overflows
def test_spacings_across_the_double_range_give_a_grid_or_a_grid_error(call):
    # Each square, weight and measure the grid, its trace and |Omega|_h form
    # is a finite double, or the builder refuses the spacing: no IndexError,
    # OverflowError or NumPy warning (each one an error in this test).
    build, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = build(*args)
        except InvalidGridError:
            return
        build_trace(grid, BoundaryData.zero())
        assert all(np.all(np.isfinite(grid.plan.terms[key].kappa))
                   for key in grid.plan.pairs)
        assert np.all(np.isfinite(grid.plan.stiffness))
        assert 0 < domain_measure(grid) < math.inf


COORD = st.one_of(st.just(0.0), st.floats(-2, 2), st.floats(-1e3, 1e3))


@st.composite
def mirror_grids(draw, dims=(2, 3)):
    """A ball, annulus or box in one of ``dims`` dimensions: centres or
    corners at 0, near it or up to 1e3 away, and boxes with odd and even
    node counts per axis."""
    n = draw(st.sampled_from(dims))
    h = draw(st.floats(1 / 4, 1 / 2))
    kind = draw(st.sampled_from(["ball", "annulus", "box"]))
    corner = tuple(draw(st.lists(COORD, min_size=n, max_size=n)))
    if kind == "box":
        counts = draw(st.lists(st.integers(3, 8), min_size=n, max_size=n))
        return build_box([(lo, lo + (k - 1) * h) for lo, k in zip(corner, counts)], h)
    gap = draw(st.floats(2 * h + 1e-12, 2 * h + 1))  # a radius or a gap
    if kind == "ball":
        return build_ball(corner, gap, h)
    r_inner = draw(st.floats(0.05, 1))
    return build_annulus(corner, r_inner, r_inner + gap, h)


@settings(max_examples=100, deadline=None)
@given(mirror_grids())
def test_grids_are_mirror_symmetric_in_every_axis(grid):
    A = _matrix(grid, np.broadcast_to(np.eye(grid.n), (grid.n_interior, grid.n, grid.n)))
    A = A.tocsr()
    A.sort_indices()
    for a in range(grid.n):
        index = list(grid.interior_index)
        index[a] = grid.shape[a] - 1 - index[a]
        image = grid._ordinal_flat[np.ravel_multi_index(index, grid.shape)]
        # The reflection maps the interior onto itself ...
        assert np.all(image >= 0)
        # ... and leaves the Laplacian unchanged, bit for bit.
        M = A[image][:, image]
        M.sort_indices()
        assert np.array_equal(M.indptr, A.indptr) and np.array_equal(M.indices, A.indices)
        assert np.array_equal(M.data.view(np.uint64), A.data.view(np.uint64))


def _reference_plan(grid):
    """src, theta and points of every key, each end found by
    np.ravel_multi_index of the shifted multi-indices, and the terms built
    node by node in the layout ``StencilTerms`` documents."""
    n, N, h = grid.n, grid.n_interior, grid.h
    cls = grid.node_class.ravel()
    src, theta, whole, points = {}, {}, {}, []
    keys = [(a, s) for a in range(n) for s in (+1, -1)] + [
        (a, b, sa, sb) for a in range(n) for b in range(a + 1, n)
        for sa in (+1, -1) for sb in (+1, -1)]
    for key in keys:
        shift = dict(zip(key[:len(key) // 2], key[len(key) // 2:]))
        idx = [grid.interior_index[k] + shift.get(k, 0) for k in range(n)]
        flat = np.ravel_multi_index(idx, grid.shape)
        ends = grid._ordinal_flat[flat]
        sampled = cls[flat] == BOUNDARY
        point = np.empty((N, n))
        point[sampled] = np.stack([grid.axis_coords[k][idx[k][sampled]]
                                   for k in range(n)], axis=1)
        if len(key) == 2:
            a, s = key
            theta[key] = np.ones(N)
            cut = (ends < 0) & ~sampled
            if np.any(cut):
                theta[key][cut] = _crossing_fraction(grid, np.flatnonzero(cut), a, s)
                point[cut] = grid.interior_coords[cut]
                point[cut, a] += s * theta[key][cut] * h
            whole[key] = ~cut
            sampled = ends < 0
        ends[sampled] = N + sum(map(len, points)) + np.arange(np.count_nonzero(sampled))
        src[key] = ends
        points.append(point[sampled])

    stiffness, terms = np.zeros(N), {}
    for a in range(n):
        tp, tm = theta[(a, +1)], theta[(a, -1)]
        stiffness += 2.0 / (h ** 2 * tp * tm)
        terms[(a, a)] = ([*range(N)] * 2, [*src[(a, +1)], *src[(a, -1)]],
                         [*(2.0 / (h ** 2 * tp * (tp + tm))),
                          *(2.0 / (h ** 2 * tm * (tp + tm)))], 2, N)
    signs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    for a in range(n):
        for b in range(a + 1, n):
            head, band = [[] for _ in signs], [[] for _ in range(3 * len(signs))]
            for i in range(N):
                diag = [src[(a, b, sa, sb)][i] for sa, sb in signs]
                if min(diag) >= 0:
                    for q, (sa, sb) in enumerate(signs):
                        head[q].append((i, diag[q], sa * sb / (4.0 * h ** 2)))
                    continue
                quads = [q for q, (sa, sb) in enumerate(signs) if diag[q] >= 0
                         and whole[(a, sa)][i] and whole[(b, sb)][i]]
                for q in quads:
                    sa, sb = signs[q]
                    k = sa * sb / (h ** 2 * len(quads))
                    band[3 * q].append((i, diag[q], k))
                    band[3 * q + 1].append((i, src[(a, sa)][i], -k))
                    band[3 * q + 2].append((i, src[(b, sb)][i], -k))
            rows = [t for part in head + band for t in part]
            terms[(a, b)] = ([t[0] for t in rows], [t[1] for t in rows],
                             [t[2] for t in rows], 4, len(head[0]))
    return src, theta, np.concatenate(points), stiffness, terms


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(
        x.view(np.uint64) if x.dtype == np.float64 else x,
        y.view(np.uint64) if y.dtype == np.float64 else y)


@settings(max_examples=60, deadline=None)
@given(mirror_grids(dims=(1, 2, 3)))
def test_stencil_plan_matches_a_per_key_reference(grid):
    src, theta, points, stiffness, terms = _reference_plan(grid)
    plan = grid.plan
    assert plan.src.keys() == src.keys() and plan.theta.keys() == theta.keys()
    assert all(_same_bits(plan.src[k], src[k]) for k in src)
    assert all(_same_bits(plan.theta[k], theta[k]) for k in theta)
    assert _same_bits(plan.points, points) and _same_bits(plan.stiffness, stiffness)
    assert plan.pairs == list(terms)
    for key, (node, ends, kappa, arity, width) in terms.items():
        got = plan.terms[key]
        assert _same_bits(got.node, np.array(node, dtype=np.int32))
        assert _same_bits(got.src, np.array(ends, dtype=np.int32))
        assert _same_bits(got.kappa, np.array(kappa, dtype=np.float64))
        assert (got.arity, got.width) == (arity, width)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
       st.floats(0.2, 0.6), st.integers(11, 24), st.booleans(), st.data())
@example(2, 1.0, 0.4, 24, False, None)  # 23h + h rounds below 1.0; 24h is 1.0
@example(3, 1.0, 0.4, 14, False, None)
def test_crossing_arms_end_on_the_sphere_beyond_their_neighbour(
        n, r_outer, inner, m, scaled, data):
    # Spacings r_outer / m and 1 / m put lattice nodes on a sphere or a
    # rounding away from it.  The neighbour of a crossing arm is Exterior
    # by _lattice's offsets h (k + s - m); the middle radius tells which
    # sphere it is beyond, and the arm's end must lie on that sphere.
    center = (0.0,) * n if data is None else tuple(
        data.draw(st.lists(COORD, min_size=n, max_size=n)))
    r_inner, h = inner * r_outer, (r_outer if scaled else 1.0) / m
    grid = build_annulus(center, r_inner, r_outer, h)
    plan, N = grid.plan, grid.n_interior
    center_node = np.array(grid.shape) // 2
    for a in range(n):
        for s in (+1, -1):
            cut = np.flatnonzero(plan.src[(a, s)] >= N)
            nbr = np.stack(grid.interior_index, axis=1)[cut]
            nbr[:, a] += s
            assert np.all(grid.node_class[tuple(nbr.T)] == EXTERIOR)
            offset = h * (nbr - center_node)
            outer = 2 * np.linalg.norm(offset, axis=1) >= r_inner + r_outer
            end = plan.points[plan.src[(a, s)][cut] - N]
            radius = np.linalg.norm(end - np.array(center), axis=1)
            assert np.all(np.abs(radius - np.where(outer, r_outer, r_inner)) <= 1e-9)


def _per_type_geometry(grid):
    """The node classes, each arm's theta (1.0 unless it crosses), each
    crossing's sample point, the distances at the interior nodes and the
    sample points, and the 1-D length of a ball or annulus grid, written
    out per domain type with no use of ``descriptor.spheres``."""
    d, h, n = grid.descriptor, grid.h, grid.n
    ball = isinstance(d, BallDescriptor)
    m = grid.shape[0] // 2
    offsets = h * (np.arange(2 * m + 1, dtype=np.float64) - m)
    s = np.sqrt(sum(g ** 2 for g in np.meshgrid(*[offsets] * n, indexing="ij")))
    inside = s < d.radius if ball else (s > d.r_inner) & (s < d.r_outer)
    node_class = np.where(inside, INTERIOR, EXTERIOR).astype(np.int8)

    theta, points = {}, []
    for a in range(n):
        for sign in (+1, -1):
            nbr = list(grid.interior_index)
            nbr[a] = nbr[a] + sign
            cut = np.flatnonzero(node_class[tuple(nbr)] != INTERIOR)
            off = h * np.stack([i[cut] - k // 2
                                for i, k in zip(grid.interior_index, grid.shape)], 1)
            rho2 = np.sum(off * off, axis=1) - off[:, a] ** 2
            if ball:
                r = d.radius
                t = np.sqrt(np.maximum(r * r - rho2, 0.0)) - sign * off[:, a]
            else:
                r_in, r_out = d.r_inner, d.r_outer
                beyond = off.copy()
                beyond[:, a] += sign * h
                outer = 2 * np.linalg.norm(beyond, axis=1) >= r_in + r_out
                t_out = np.sqrt(np.maximum(r_out * r_out - rho2, 0.0)) - sign * off[:, a]
                t_in = -sign * off[:, a] - np.sqrt(np.maximum(r_in * r_in - rho2, 0.0))
                t = np.where(outer, t_out, t_in)
            theta[(a, sign)] = np.ones(grid.n_interior)
            theta[(a, sign)][cut] = np.clip(t / h, 1e-12, 1.0)
            point = grid.interior_coords[cut]
            point[:, a] += sign * theta[(a, sign)][cut] * h
            points.append(point)

    def distance(pts):
        s = np.linalg.norm(pts - np.asarray(d.center), axis=1)
        return d.radius - s if ball else np.minimum(d.r_outer - s, s - d.r_inner)

    points = np.concatenate(points)
    length = 2.0 * d.radius if ball else 2.0 * (d.r_outer - d.r_inner)
    return (node_class, theta, points, distance(grid.interior_coords),
            distance(points), length)


@st.composite
def round_domains(draw):
    """A ball or annulus in 1 to 3 dimensions, centred at 0, near it or up
    to 1e3 away, with a spacing it admits."""
    n = draw(st.sampled_from([1, 2, 3]))
    h = draw(st.floats(1 / 16 if n < 3 else 1 / 8, 1 / 2))
    center = tuple(draw(st.lists(COORD, min_size=n, max_size=n)))
    gap = draw(st.floats(2 * h + 1e-12, 2 * h + 1))  # a radius or a gap
    if draw(st.booleans()):
        return BallDescriptor(center, gap), h
    r_inner = draw(st.floats(0.05, 1))
    return AnnulusDescriptor(center, r_inner, r_inner + gap), h


@settings(max_examples=80, deadline=None)
@given(round_domains())
@example((BallDescriptor((0.0, 0.0), 1.0), 0.0833333333333333))
@example((AnnulusDescriptor((0.0, 0.0), 0.4, 1.0), 0.0833333333333333))
@example((BallDescriptor((0.0, 0.0), 1.0 + 1e-13), 1 / 8))
@example((BallDescriptor((0.0, 0.0, 0.0), 1.0 + 1e-13), 1 / 8))
@example((AnnulusDescriptor((0.0, 0.0, 0.0), 0.4, 1.0), 1 / 14))
@example((AnnulusDescriptor((0.3, -0.2), 0.4, 1.0), 1 / 24))
@example((AnnulusDescriptor((0.25,), 0.4, 1.0), 1 / 40))
@example((AnnulusDescriptor((0.0, 0.0), 0.0625, 0.187500000001), 0.0625))  # theta 1.6e-11
def test_spheres_give_the_per_type_geometry_bit_for_bit(domain):
    grid = Grid(*domain)
    node_class, theta, points, dist_in, dist_pts, length = _per_type_geometry(grid)
    plan, N = grid.plan, grid.n_interior
    assert _same_bits(grid.node_class, node_class)
    assert all(_same_bits(plan.theta[key], theta[key]) for key in theta)
    ends = np.concatenate([plan.points[plan.src[key][plan.src[key] >= N] - N]
                           for key in theta])
    assert _same_bits(ends, points)
    # A point on the sphere may give -0.0 where the per-type formula gives 0.0.
    assert _same_bits(grid.distance_to_boundary(grid.interior_coords) + 0.0, dist_in + 0.0)
    assert _same_bits(grid.distance_to_boundary(points) + 0.0, dist_pts + 0.0)
    if grid.n == 1:
        assert _same_bits(domain_measure(grid), length)


OUTPUTS = {
    "columns": lambda p: np.zeros((len(p), 2)),
    "one short": lambda p: np.zeros(len(p) - 1),
    "one long": lambda p: np.zeros(len(p) + 1),
    "empty": lambda p: [],
    "scalar": lambda p: 1.5,
    "nan": lambda p: np.full(len(p), np.nan),
    "inf": lambda p: np.full(len(p), -np.inf),
    "some nan": lambda p: np.where(np.arange(len(p)) % 3 == 0, np.nan, 0.0),
    "integers": lambda p: np.arange(len(p)),
    "fine": lambda p: np.sin(np.sum(np.atleast_2d(p), axis=1)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(OUTPUTS)), st.integers(1, 3), st.integers(1, 5))
def test_boundary_data_gives_one_finite_value_per_point_or_raises(name, n, m):
    psi = BoundaryData.from_callable(OUTPUTS[name])
    pts = np.linspace(-1.0, 1.0, m * n).reshape(m, n)
    try:
        out = psi.evaluate(pts)
    except InvalidParameterError:
        return
    assert out.shape == (m,) and np.all(np.isfinite(out))


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_boundary_data_on_a_grid_gives_a_trace_or_raises(name):
    grid = build_ball((0.0, 0.0), 1.0, 0.25)
    try:
        trace = build_trace(grid, BoundaryData.from_callable(OUTPUTS[name]))
    except InvalidParameterError:
        return
    assert np.all(np.isfinite(trace.values))


SETTING = st.one_of(st.sampled_from(ODD), st.floats(1e-12, 2),
                    st.sampled_from([0, 1, 3, -3, 10 ** 30, 2 ** 63]))
DISK = build_ball((0.0, 0.0), 1.0, 1 / 4)


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({}, optional={
           "damping": SETTING, "max_outer_iterations": SETTING,
           "outer_tol": st.one_of(st.none(), SETTING),
           "inner_tol": st.one_of(st.none(), SETTING)}),
       st.sampled_from([EllipticOperator.laplacian(),
                        EllipticOperator.pucci_minus(1.0, 2.0)]))
def test_solver_settings_give_a_report_or_raise(fields, op):
    try:
        cfg = OuterConfig(**fields)
    except InvalidParameterError:
        return
    g = ProfileFunction.linear(-1.0, 0.0, domain_measure(DISK))
    u, rep = solve_nonlocal(op, DISK, g, BoundaryData.zero(), cfg)
    assert rep.status in ("Converged", "MaxIterations", "InnerFailure")
