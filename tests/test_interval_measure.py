"""The 1-D cell measure against a reference copy, and the 1-D Laplacian LU.

``reference_cell_measures`` and ``reference_window_means`` are the 1-D
superlevel measure as first written, before its grid-fixed data moved onto
the stencil plan; the measure must keep its bits, signed zeros included.
The 1-D Laplacian is factored in its two mirror halves by LAPACK's
tridiagonal LU, without SuperLU or a sparse matrix, and must solve like the
sparse matrix that ``_matrix`` assembles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from levelpde.elliptic import (EllipticOperator, _IntervalLU, _laplacian, _matrix,
                               _SectorLU, solve_dirichlet)
from levelpde.errors import InvalidGridError
from levelpde.geometry import (BoundaryData, build_annulus, build_ball, build_box,
                               build_trace)
from levelpde.measure import ScalarField, _interval_cell_measures, _prefix_sums
from levelpde.verify import StudyProblem, convergence_order_study


def reference_cell_measures(v, order):
    """The measure as first written, kept as an oracle: per node, the
    average over its cell of |{u~ >= u~(y)}|.

    u~ is the piecewise-linear interpolant through the interior values and
    the trace's Dirichlet values at the boundary crossings; the cell of node
    x_i is [x_i - h/2, x_i + h/2], clipped at a crossing.  On each half-cell
    u~ is linear, so the average equals the mean of M(t) = |{u~ >= t}| over
    the values u~ takes there (M itself at a flat half-cell).  M is linear
    between consecutive distinct values of u~ and drops by the length of the
    flat pieces at a value, so one sort, the knot values of M and prefix sums
    of its integral give every mean exactly, in O(N log N).  ``order``, a
    permutation that sorts the interior values, is that sort; the few trace
    samples are merged into it.  Pieces of M cut by a window's ends are
    integrated locally; only the whole pieces inside a window go through
    prefix sums.
    """
    vec = v.interior
    n = vec.size
    plan, h = v.grid.plan, v.grid.h
    end_r = np.flatnonzero(plan.src[(0, +1)] >= n)
    end_l = np.flatnonzero(plan.src[(0, -1)] >= n)
    # Interior values and trace samples in ascending order (sample ids
    # n + j), and the knots: their distinct values.
    samples = v.trace.values
    s_order = np.argsort(samples)
    asc = vec[order]
    at = np.searchsorted(asc, samples[s_order])
    ends = np.insert(order, at, n + s_order)
    asc = np.insert(asc, at, samples[s_order])
    first = np.concatenate(([True], asc[1:] != asc[:-1]))
    knots = asc[first]
    k_all = np.empty(ends.size, dtype=np.intp)
    k_all[ends] = np.cumsum(first) - 1
    k_node = k_all[:n]
    # Knot index and length of the piece of u~ on each side of every node.
    k_r, k_l = k_all[plan.src[(0, +1)]], k_all[plan.src[(0, -1)]]
    len_r = np.full(n, h)
    len_l = np.full(n, h)
    len_r[end_r] = plan.theta[(0, +1)][end_r] * h
    len_l[end_l] = plan.theta[(0, -1)][end_l] * h

    # Every piece of u~ once, from its left end a to its right end b: the
    # right piece of each node, plus the left piece of each node whose left
    # arm ends at a crossing.
    a = np.concatenate((np.arange(n), plan.src[(0, -1)][end_l]))
    b = np.concatenate((plan.src[(0, +1)], end_l))
    ka, kb = k_all[a], k_all[b]
    seg_len = np.concatenate((len_r, len_l[end_l]))
    k_lo, k_hi = np.minimum(ka, kb), np.maximum(ka, kb)
    with np.errstate(divide="ignore", over="ignore"):
        slope = seg_len / (knots[k_hi] - knots[k_lo])
    # A piece too steep in t to resolve counts as flat at its lower value.
    flat = ~np.isfinite(slope)
    n_knots = knots.size
    flat_len = np.bincount(k_lo[flat], weights=seg_len[flat], minlength=n_knots)

    # M on (knots[k], knots[k+1]) falls with slope sigma[k], the summed
    # |dy/dt| of the pieces spanning it: each piece adds its slope at its
    # lower end and removes it at its upper one.  Each end is the left end
    # of at most one piece and the right end of at most one, so its two
    # event slots, taken in ascending order of the ends, order the events by
    # knot.  The events are summed one by one, unmerged, so that a steep
    # piece's rounding cannot outlive it.
    rise = np.where(flat, 0.0, np.where(ka < kb, slope, -slope))
    events = np.zeros((ends.size, 2))
    events[a, 0] = rise
    events[b, 1] = -rise
    s, c = _prefix_sums(events[ends].ravel())
    upto = 2 * np.flatnonzero(first)[1:]
    sigma = np.maximum(s[upto] + c[upto], 0.0)
    gap = np.diff(knots)
    # m_up[k] = M just above knots[k]; m_dn[k] = M just below knots[k+1],
    # summed from the top so that the small measures near the maximum keep
    # their relative accuracy.
    drop = sigma * gap + flat_len[1:]
    m_up = np.concatenate((np.cumsum(drop[::-1])[::-1], [0.0]))
    m_closed = flat_len + m_up          # M(knots[k]), ties included
    m_dn = m_closed[1:]
    m_up = m_up[:-1]
    area_s, area_c = _prefix_sums(0.5 * gap * (m_up + m_dn))

    # Each half-cell runs from the node to its midpoint with the neighbour,
    # or to the crossing when that is nearer; on it u~ runs over the values
    # between knots[k] and knots[k] + d.
    half_l, half_r = np.minimum(0.5 * h, len_l), np.minimum(0.5 * h, len_r)
    k = np.concatenate((k_node, k_node))
    d = np.concatenate(((half_l / len_l) * (knots[k_l] - vec),
                        (half_r / len_r) * (knots[k_r] - vec)))
    mean = m_closed[k]
    wide = np.flatnonzero(d != 0)
    if wide.size:
        mean[wide] = reference_window_means(knots, gap, m_up, m_dn, area_s, area_c,
                                   k[wide], d[wide])
    return (half_l * mean[:n] + half_r * mean[n:]) / (half_l + half_r)


def reference_window_means(knots, gap, m_up, m_dn, area_s, area_c, k, d):
    """Mean of M over the values between knots[k] and knots[k] + d, d != 0.

    M is linear on each piece (knots[j], knots[j+1]) from m_up[j] to
    m_dn[j]; area_s + area_c are the prefix sums of its integral.  Offsets
    from knots are formed as (knots[k] - knots[j]) + d rather than from the
    rounded far end, which keeps windows a few ulps wide exact.
    """
    def at(j, kk, dt):
        """M at knots[kk] + dt, on piece j."""
        frac = np.clip(((knots[kk] - knots[j]) + dt) / gap[j], 0.0, 1.0)
        return m_up[j] + (m_dn[j] - m_up[j]) * frac

    up = d > 0
    # Windows that pass the next knot in their direction hold knots inside;
    # M is linear over every other window, so its mean is M at the middle.
    j = np.where(up, k, k - 1)
    out = at(j, k, 0.5 * d)
    cut = np.flatnonzero(np.abs(d) > gap[j])
    if cut.size:
        k, d, up = k[cut], d[cut], up[cut]
        far = np.clip(knots[k] + d, knots[0], knots[-1])
        # Knots strictly inside the window are a .. b-1.
        a, b = k + 1, k.copy()
        a[~up] = np.minimum(np.searchsorted(knots, far[~up], side="right"), k[~up])
        b[up] = np.maximum(np.searchsorted(knots, far[up]), k[up] + 1)
        d_lo, d_hi = np.minimum(d, 0.0), np.maximum(d, 0.0)
        # The two cut pieces, plus whole pieces a .. b-2.
        left = ((knots[a] - knots[k]) - d_lo) * 0.5 * (
            at(a - 1, k, d_lo) + m_dn[a - 1])
        right = ((knots[k] - knots[b - 1]) + d_hi) * 0.5 * (
            m_up[b - 1] + at(b - 1, k, d_hi))
        whole = (area_s[b - 1] - area_s[a]) + (area_c[b - 1] - area_c[a])
        out[cut] = np.where(b > a, (left + whole + right) / np.abs(d), out[cut])
    return out


def hex_bits(x):
    return [float(t).hex() for t in x]


SHAPES = ["quadratic", "kink", "plateau", "rounded", "steps", "edge", "zero", "noise"]
PSI = {"zero": BoundaryData.zero(),
       "slope": BoundaryData.from_callable(lambda p: 0.3 * p[:, 0]),
       "level": BoundaryData.from_callable(lambda p: 0.0 * p[:, 0] + 0.01)}


@st.composite
def interval_fields(draw):
    """A field on a 1-D ball or box: smooth, kinked, flat-topped, rounded
    onto a few levels (exact ties and flat runs), steps, zero near a
    crossing (a flat run next to it) or noise, with its maximum off the
    centre and zero, linear or constant Dirichlet data."""
    h = draw(st.sampled_from([1 / 8, 0.1, 1 / 16, 0.07, 1 / 64]))
    if draw(st.booleans()):
        grid = build_ball((draw(st.floats(-1, 1)),), draw(st.floats(0.3, 1.5)), h)
    else:
        lo = draw(st.floats(-2, 0))
        grid = build_box([(lo, lo + h * draw(st.integers(3, 60)))], h)
    x = grid.interior_coords[:, 0]
    peak = draw(st.floats(float(x.min()), float(x.max())))
    shape = draw(st.sampled_from(SHAPES))
    r = x - peak
    u = {"quadratic": lambda: 1 - r * r,
         "kink": lambda: -np.abs(r),
         "plateau": lambda: np.minimum(1 - r * r, 0.9),
         "rounded": lambda: np.round(1 - r * r, draw(st.integers(0, 3))),
         "steps": lambda: np.floor(4 * np.cos(r)),
         "edge": lambda: np.maximum(0.25 - r * r, 0.0),
         "zero": lambda: np.zeros_like(r) * draw(st.sampled_from([1.0, -1.0])),
         "noise": lambda: np.array(draw(st.lists(
             st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2.0 ** -52]),
             min_size=x.size, max_size=x.size)))}[shape]()
    psi = PSI[draw(st.sampled_from(sorted(PSI)))]
    return ScalarField(u, build_trace(grid, psi))


@settings(max_examples=300, deadline=None)
@given(interval_fields(), st.sampled_from(["stable", "quicksort"]))
def test_cell_measures_match_the_reference(v, kind):
    order = np.argsort(v.interior, kind=kind)
    assert hex_bits(_interval_cell_measures(v, order)) == hex_bits(
        reference_cell_measures(v, order))


def test_cell_measures_keep_their_bits_on_a_second_call():
    # The second call reads the pieces kept on the plan.
    grid = build_ball((0.1,), 0.93, 1 / 32)
    v = ScalarField.sample(grid, lambda p: np.cos(p[:, 0]) - 0.5)
    order = np.argsort(v.interior)
    first = hex_bits(_interval_cell_measures(v, order))
    assert grid.plan.interval is not None
    assert hex_bits(_interval_cell_measures(v, order)) == first == hex_bits(
        reference_cell_measures(v, order))


def laplacian_matrix(grid):
    return _matrix(grid, np.ones((grid.n_interior, 1, 1)))


GRIDS = {
    "box-1": lambda: build_box([(0.0, 0.5)], 1 / 4),
    "box-2": lambda: build_box([(0.0, 0.75)], 1 / 4),
    "box-3": lambda: build_box([(0.0, 1.0)], 1 / 4),
    "annulus-4": lambda: build_annulus((0.0,), 0.5, 0.5 + 2.05 / 16, 1 / 16),
    "box-127": lambda: build_box([(-1.0, 1.0)], 1 / 64),
    "box-even-10": lambda: build_box([(0.0, 1.1)], 1 / 10),
    "ball-off-centre-395": lambda: build_ball((0.3,), 0.77, 1 / 256),
    "annulus-off-centre": lambda: build_annulus((0.1,), 0.3, 1.0, 1 / 32),
    "ball-4095": lambda: build_ball((0.0,), 1.0, 1 / 2048),
    "ball-8191": lambda: build_ball((0.0,), 1.0, 1 / 4096),
}


def mirror_parts(grid):
    """A right side even under the mirror i -> N - 1 - i, and one odd."""
    off = np.abs(2.0 * np.arange(grid.n_interior) - (grid.n_interior - 1))
    even = np.cos(off + 1.0)
    return even, even * np.sign(np.arange(grid.n_interior) - (grid.n_interior - 1) / 2)


def factored(lu):
    return [s for s, block in enumerate(lu.lus) if block is not None]


@pytest.mark.parametrize("name", GRIDS)
def test_1d_laplacian_solves_like_the_sparse_matrix(name):
    # At N = 8,191 the sparse solve itself is off by about 1e-12 (A's
    # condition number is 2.7e7): on the ones vector SuperLU's unpivoted
    # minimum-degree factor of the same matrix is 9.69e-13 from it, and the
    # mirror halves' LU 9.68e-13.
    grid = GRIDS[name]()
    A, lu = laplacian_matrix(grid).tocsc(), _laplacian(grid)
    rng = np.random.default_rng(grid.n_interior)
    for b in (np.ones(grid.n_interior), rng.normal(size=grid.n_interior)):
        ref = np.atleast_1d(spsolve(A, b))
        assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-12 * np.max(np.abs(ref))


def mirror_folded(A, s, size):
    """Rows and columns 0 ... size - 1 of sector s of the 1-D matrix A, as a
    sorted CSC matrix: A[r, q] +- A[r, N - 1 - q] (+ for the even sector,
    s = 0), the mirror term only where N - 1 - q is another node."""
    from scipy.sparse import csc_matrix

    q = np.arange(size)
    image = A.shape[0] - 1 - q
    other = image != q
    fold = csc_matrix((np.append(np.ones(size), np.full(np.count_nonzero(other),
                                                         -1.0 if s else 1.0)),
                       (np.append(q, image[other]), np.append(q, q[other]))),
                      shape=(A.shape[0], size))
    block = (A.tocsr()[:size] @ fold).tocsc()
    block.sort_indices()
    return block


@pytest.mark.parametrize("name", GRIDS)
def test_1d_halves_are_the_mirror_sectors_of_the_matrix(name):
    # The tridiagonal blocks and the sector LU's blocks, both built from the
    # stencil terms alone, hold the entries of the sparse matrix folded into
    # its even and odd sectors.
    grid = GRIDS[name]()
    A, sectors, lu = laplacian_matrix(grid), _SectorLU(grid), _laplacian(grid)
    for s, (dl, d, du) in enumerate(lu.bands):
        got, ref = sectors.block(s), mirror_folded(A, s, d.size)
        got.eliminate_zeros()
        assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
        assert hex_bits(got.data) == hex_bits(ref.data)
        block = got.toarray()
        assert np.array_equal(np.diag(block), d)
        assert np.array_equal(np.diag(block, -1), dl) and np.array_equal(np.diag(block, 1), du)
        assert np.count_nonzero(block) == np.count_nonzero(np.concatenate((dl, d, du)))


@pytest.mark.parametrize("name", GRIDS)
def test_1d_mirror_parts_factor_their_own_half_only(name):
    # A mirror-symmetric right side folds to exactly 0.0 in the odd half and
    # an antisymmetric one to 0.0 in the even half: the other half stays
    # unfactored, and u has the right side's parity bit for bit.
    grid = GRIDS[name]()
    even, odd = mirror_parts(grid)
    lu = _laplacian(grid)
    u = lu.solve(even)
    assert factored(lu) == [0] and hex_bits(u) == hex_bits(u[::-1])
    lu = _IntervalLU(grid)
    u = lu.solve(odd)
    assert factored(lu) == ([1] if grid.n_interior > 1 else [])
    assert np.array_equal(u, -u[::-1])  # +0.0 at the centre of an odd N


def test_1d_study_needs_no_superlu_and_no_sparse_matrix(monkeypatch):
    from levelpde import elliptic

    def refuse(*args, **kwargs):
        raise AssertionError("a 1-D solve reached SuperLU or the sparse assembly")

    monkeypatch.setattr(elliptic, "splu", refuse)
    monkeypatch.setattr(elliptic, "_matrix", refuse)
    rows = convergence_order_study(StudyProblem((0.0,), 1.0, EllipticOperator.laplacian()),
                                   [1 / 128, 1 / 256, 1 / 512])
    assert [row.status for row in rows] == ["Converged"] * 3
    assert all(abs(row.order - 2.0) <= 0.01 for row in rows[1:])


def test_singular_half_is_a_grid_error(monkeypatch):
    # dgttrf reports an exactly zero pivot by info > 0.
    from levelpde import elliptic

    real = elliptic.dgttrf
    monkeypatch.setattr(elliptic, "dgttrf", lambda *a: (*real(*a)[:-1], 2))
    grid = build_box([(-1.0, 1.0)], 1 / 8)
    with pytest.raises(InvalidGridError, match="mirror block of 8 rows is singular"):
        solve_dirichlet(EllipticOperator.laplacian(), grid, -1.0, BoundaryData.zero())
