"""Config parsing, field dump round trips, subcommands and exit codes."""

import re

import numpy as np
import pytest

from levelpde.cli import (
    RunConfig,
    format_field,
    format_report,
    load_field,
    main,
    parse_config,
)
from levelpde.elliptic import EllipticOperator
from levelpde.errors import ConfigError
from levelpde.geometry import build_ball, build_box
from levelpde.measure import ScalarField
from levelpde.outerloop import OuterConfig
from levelpde.verify import exact_ball_solution

MINIMAL_BALL = """\
# minimal 2-ball benchmark
domain.type = ball
domain.radius = 1
grid.h = 0.125
operator.kind = laplacian
profile.kind = linear
profile.a = -1
profile.b = 0
boundary.kind = zero
"""


class TestParseConfig:
    def test_minimal_ball_valid(self):
        cfg = parse_config(MINIMAL_BALL)
        assert cfg.domain_type == "ball"
        assert cfg.radius == 1.0
        assert cfg.center == (0.0, 0.0)
        grid = cfg.build_grid()
        assert grid.n == 2

    def test_missing_Lambda_names_the_key(self):
        text = MINIMAL_BALL.replace("operator.kind = laplacian",
                                    "operator.kind = pucci_minus\n"
                                    "operator.lambda = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(k == "operator.Lambda" for _, k, _ in err.value.problems)

    def test_lambda_ordering_enforced(self):
        text = MINIMAL_BALL.replace(
            "operator.kind = laplacian",
            "operator.kind = pucci_minus\noperator.lambda = 3\noperator.Lambda = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("Lambda" in k for _, k, _ in err.value.problems)

    def test_table_profile_knots_must_increase(self):
        text = MINIMAL_BALL.replace(
            "profile.kind = linear\nprofile.a = -1\nprofile.b = 0",
            "profile.kind = table\nprofile.knots = 0,2,1\nprofile.values = 0,-1,-2")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(k == "profile.knots" for _, k, _ in err.value.problems)

    def test_unknown_key_reports_line_number(self):
        text = MINIMAL_BALL + "grid.spacing = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        line, key, _ = err.value.problems[0]
        assert key == "grid.spacing"
        assert line == MINIMAL_BALL.count("\n") + 1

    def test_box_bounds(self):
        text = """
domain.type = box
domain.bounds = 0:1,0:2
grid.h = 0.25
operator.kind = laplacian
profile.kind = linear
profile.a = -1
profile.b = 0
boundary.kind = zero
"""
        cfg = parse_config(text)
        assert cfg.bounds == ((0.0, 1.0), (0.0, 2.0))
        assert cfg.build_grid().n == 2

    def test_solver_overrides(self):
        text = MINIMAL_BALL + """
solver.damping = 0.25
solver.outer_tol = 1e-5
solver.inner_tol = 1e-9
solver.max_outer_iterations = 77
"""
        outer = parse_config(text).build_outer()
        assert outer == OuterConfig(damping=0.25, outer_tol=1e-5,
                                    max_outer_iterations=77, inner_tol=1e-9)

    def test_constructor_errors_carry_their_keys_and_lines(self):
        # The ball builder rejects radius 0.1 < 2h, and the operator check
        # in another section still runs.
        text = MINIMAL_BALL.replace("domain.radius = 1", "domain.radius = 0.1").replace(
            "operator.kind = laplacian",
            "operator.kind = pucci_minus\noperator.lambda = 3\noperator.Lambda = 1")
        lines = text.splitlines()
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        found = {(line, key) for line, key, _ in err.value.problems}
        assert (lines.index("domain.radius = 0.1") + 1, "domain.radius") in found
        assert (lines.index("operator.Lambda = 1") + 1, "operator.Lambda") in found

    def test_unparsable_value_of_a_key_the_kind_ignores(self):
        text = MINIMAL_BALL.replace("domain.type = ball",
                                    "domain.type = box\ndomain.bounds = -1:1,-1:1")
        text = text.replace("domain.radius = 1", "domain.radius = x")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [key for _, key, _ in err.value.problems] == ["domain.radius"]

    def test_multiple_problems_collected(self):
        text = "domain.type = cone\ngrid.h = -1\nbad line\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.problems) >= 3


class TestFieldDump:
    @pytest.mark.parametrize("make_grid", [
        lambda: build_box([(0, 1), (0, 1)], 0.25),
        lambda: build_ball((0.0, 0.0), 1.0, 0.25),
    ])
    def test_round_trip_byte_identical(self, make_grid, tmp_path):
        grid = make_grid()
        rng = np.random.default_rng(9)
        u = ScalarField.from_interior(grid, rng.normal(size=grid.n_interior))
        text = format_field(u)
        p = tmp_path / "field.txt"
        p.write_text(text)
        loaded = load_field(p)
        assert loaded.shape == grid.shape
        assert np.array_equal(loaded.node_class, grid.node_class)
        rebuilt = ScalarField(grid, loaded.values)
        assert format_field(rebuilt) == text

    def test_values_bitexact(self, tmp_path):
        grid = build_box([(0, 1)], 0.25)
        u = ScalarField.from_interior(grid, np.array([1 / 3, math_pi_ish(), 1e-300]))
        p = tmp_path / "f.txt"
        p.write_text(format_field(u))
        loaded = load_field(p)
        assert np.array_equal(
            loaded.values[grid.interior_mask], u.interior)


def math_pi_ish():
    return 3.14159265358979


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSubcommands:
    def test_verify_ball_exit_zero_and_artifacts(self, tmp_path):
        cfg = MINIMAL_BALL + f"""
output.field = {tmp_path}/u.txt
output.report = {tmp_path}/report.txt
output.table = {tmp_path}/table.txt
"""
        rc = main(["verify-ball", write_config(tmp_path, cfg)])
        assert rc == 0
        table = (tmp_path / "table.txt").read_text()
        assert "linf_error" in table and "status = Converged" in table
        assert (tmp_path / "u.txt").exists()
        assert (tmp_path / "report.txt").exists()

    def test_reports_are_deterministic(self, tmp_path):
        cfg = MINIMAL_BALL + f"output.report = {tmp_path}/r.txt\n"
        path = write_config(tmp_path, cfg)
        assert main(["verify-ball", path]) == 0
        first = (tmp_path / "r.txt").read_bytes()
        assert main(["verify-ball", path]) == 0
        assert (tmp_path / "r.txt").read_bytes() == first

    def test_solve_max_iterations_exit_2(self, tmp_path):
        cfg = MINIMAL_BALL + "solver.max_outer_iterations = 1\n" \
            + f"output.report = {tmp_path}/r.txt\n"
        rc = main(["solve", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "status = MaxIterations" in (tmp_path / "r.txt").read_text()

    def test_diagnose_constant_field_fails_flat_check(self, tmp_path):
        grid = build_ball((0.0, 0.0), 1.0, 0.125)
        const = ScalarField.from_interior(grid, np.full(grid.n_interior, 1.0))
        (tmp_path / "const.txt").write_text(format_field(const))
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/const.txt\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 3

    def test_diagnose_solved_field_passes(self, tmp_path):
        cfg_text = MINIMAL_BALL + f"output.field = {tmp_path}/u.txt\n"
        path = write_config(tmp_path, cfg_text)
        assert main(["solve", path]) == 0
        cfg2 = MINIMAL_BALL + f"""
diagnose.field = {tmp_path}/u.txt
output.report = {tmp_path}/diag.txt
"""
        rc = main(["diagnose", write_config(tmp_path, cfg2, "d.cfg")])
        assert rc == 0
        text = (tmp_path / "diag.txt").read_text()
        assert "flat.ok = True" in text
        assert "barrier.passed = True" in text

    def test_rearrangement_dump(self, tmp_path):
        cfg = MINIMAL_BALL + f"output.rearrangement = {tmp_path}/star.txt\n"
        assert main(["solve", write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "star.txt").read_text().strip().splitlines()
        assert lines[0].startswith("cell = ")
        vals = [float(ln.split(" = ")[1]) for ln in lines[1:]]
        assert vals == sorted(vals)

    def test_study_table(self, tmp_path):
        cfg = MINIMAL_BALL + f"""
study.h_list = 0.25,0.125
output.table = {tmp_path}/study.txt
"""
        rc = main(["study", write_config(tmp_path, cfg)])
        assert rc == 0
        text = (tmp_path / "study.txt").read_text()
        assert "row.0.error" in text and "row.1.order" in text

    @pytest.mark.parametrize("change", [
        {"profile.a = -1": "profile.a = -3"},
        {"boundary.kind = zero": "boundary.kind = radial_poly\nboundary.coeffs = 5"},
        {"profile.a = -1": "profile.a = -3",
         "boundary.kind = zero": "boundary.kind = radial_poly\nboundary.coeffs = 5"},
    ], ids=["profile", "boundary", "both"])
    def test_study_outside_the_closed_form_setting_exit_1(self, change, tmp_path,
                                                         capsys):
        # The study measures its error against the g(t) = -t, zero-data
        # closed form, so it refuses other settings as verify-ball does.
        text = MINIMAL_BALL.replace("domain.radius = 1",
                                    "domain.center = 0\ndomain.radius = 1")
        for old, new in change.items():
            text = text.replace(old, new)
        text += "study.h_list = 0.0625,0.03125\n"
        path = write_config(tmp_path, text)
        for command in ("study", "verify-ball"):
            assert main([command, path]) == 1
            assert "closed form's setting" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("operator.kind = laplacian",
         "operator.kind = pucci_minus\noperator.lambda = 1\noperator.Lambda = inf",
         "lam <= Lam < inf"),
        ("profile.a = -1", "profile.a = nan", "must be finite"),
        ("domain.radius = 1", "domain.radius = 1\ndomain.center = ",
         "needs 1 to 3 coordinates"),
    ], ids=["inf-Lambda", "nan-profile", "empty-center"])
    def test_unusable_data_exit_1_at_parse_time(self, old, new, message, tmp_path,
                                               capsys):
        # Each used to reach the solver: Lambda = inf ended with a NaN
        # residual and exit 2, profile.a = nan failed after two solves.
        text = MINIMAL_BALL.replace(old, new)
        given = new.splitlines()[-1]
        rc = main(["solve", write_config(tmp_path, text)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        line = text.splitlines().index(given) + 1
        assert f"line {line}: {given.split(' = ')[0]}: " in err and message in err

    @pytest.mark.parametrize("h_list", ["nan", "0.25,-1"])
    def test_study_spacing_the_grid_builder_rejects_exit_1(self, h_list, tmp_path,
                                                          capsys):
        # The study builds its grids itself; InvalidGridError escaped main.
        text = MINIMAL_BALL + f"study.h_list = {h_list}\n"
        rc = main(["study", write_config(tmp_path, text)])
        assert rc == 1
        assert capsys.readouterr().err == "error: spacing h must be positive and finite\n"

    def test_invalid_config_exit_1(self, tmp_path):
        rc = main(["solve", write_config(tmp_path, "domain.type = cone\n")])
        assert rc == 1

    @pytest.mark.parametrize("domain, h", [
        ("box\ndomain.bounds = -1:1,-1:1", "nan"),
        ("box\ndomain.bounds = -1:1,-1:1", "1e-300"),
        ("box\ndomain.bounds = -inf:1", "0.125"),
        ("ball\ndomain.radius = inf", "0.125"),
        ("ball\ndomain.radius = 1e300", "1"),
        ("annulus\ndomain.r_inner = 0.5\ndomain.r_outer = nan", "0.125"),
    ], ids=["nan-h", "tiny-h", "unbounded-box", "inf-radius", "huge-radius",
            "nan-annulus"])
    def test_non_finite_or_absurd_extent_exit_1(self, domain, h, tmp_path, capsys):
        text = MINIMAL_BALL.replace("domain.type = ball\ndomain.radius = 1",
                                    f"domain.type = {domain}")
        text = text.replace("grid.h = 0.125", f"grid.h = {h}")
        rc = main(["solve", write_config(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "config: config:" not in err

    @pytest.mark.parametrize("key", [
        "eps0", "rho", "eps_min", "stagnation_tol", "stage_frac",
        "stage_max_iterations", "method", "sigma", "inner_max_iter"])
    def test_removed_solver_key_exit_1(self, key, tmp_path, capsys):
        text = MINIMAL_BALL + f"solver.{key} = 0.5\n"
        rc = main(["solve", write_config(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "unknown key" in err

    @pytest.mark.parametrize("kind", [
        "radial_poly\nboundary.coeffs = 1,0,1",
        "table\nboundary.knots = 0,2\nboundary.values = 1,3"],
        ids=["radial_poly", "table"])
    def test_boundary_center_of_another_dimension_exit_1(self, kind, tmp_path,
                                                          capsys):
        text = MINIMAL_BALL.replace("boundary.kind = zero",
                                    f"boundary.kind = {kind}\n"
                                    "boundary.center = 0,0,0")
        rc = main(["solve", write_config(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "boundary.center" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["inner_tol", "outer_tol"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_tolerance_exit_1(self, key, value, tmp_path, capsys):
        # An infinite tolerance would certify any field: P-(1, 2) with
        # inner_tol = inf took Howard's zero start as its solution.
        text = MINIMAL_BALL.replace(
            "operator.kind = laplacian",
            "operator.kind = pucci_minus\noperator.lambda = 1\noperator.Lambda = 2")
        text += f"solver.{key} = {value}\n"
        rc = main(["verify-ball", write_config(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "positive and finite" in err

    def test_failed_homogeneous_start_exit_2(self, tmp_path, capsys):
        # Nonzero data and an unreachable inner tolerance: the homogeneous
        # start fails before the first step, with an error line, not a
        # traceback.
        text = MINIMAL_BALL.replace(
            "domain.type = ball\ndomain.radius = 1",
            "domain.type = box\ndomain.bounds = -1:1,-1:1").replace(
            "boundary.kind = zero",
            "boundary.kind = radial_poly\nboundary.coeffs = 0,1")
        text += f"solver.inner_tol = 1e-300\noutput.report = {tmp_path}/r.txt\n"
        rc = main(["solve", write_config(tmp_path, text)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "residual" in err
        assert not (tmp_path / "r.txt").exists()

    def test_study_inner_failure_exit_2(self, tmp_path, capsys):
        text = MINIMAL_BALL + f"""
study.h_list = 0.25,0.125
solver.inner_tol = 1e-300
output.table = {tmp_path}/study.txt
"""
        rc = main(["study", write_config(tmp_path, text)])
        assert rc == 2 and capsys.readouterr().err == ""
        table = (tmp_path / "study.txt").read_text()
        assert table.count("status = InnerFailure") == 2

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 4

    def test_diagnose_mismatched_grid_exit_1(self, tmp_path):
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        u = ScalarField.from_interior(grid, np.zeros(grid.n_interior))
        (tmp_path / "u.txt").write_text(format_field(u))
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n"  # h mismatch
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 1

    @pytest.mark.parametrize("header, damage", [
        (True, lambda ln: ln.replace(" h=", " step=")),
        (False, lambda ln: ln + " 0.0"),
        (False, lambda ln: ln.replace("Interior", "Inside")),
        (False, lambda ln: ln.rsplit(" ", 1)[0] + " nan"),
    ], ids=["header-without-h", "four-fields", "unknown-class", "nan-interior"])
    def test_diagnose_malformed_dump_exit_1(self, header, damage, tmp_path, capsys):
        # One line of a dump that diagnose passes is damaged: the header, or
        # the centre node's line.
        grid = build_ball((0.0, 0.0), 1.0, 0.125)
        exact = exact_ball_solution((0.0, 0.0), 1.0, 2,
                                    EllipticOperator.laplacian())
        lines = format_field(exact.sample(grid)).splitlines()
        k = 0 if header else 1 + int(np.ravel_multi_index((8, 8), grid.shape))
        lines[k] = damage(lines[k])
        (tmp_path / "u.txt").write_text("\n".join(lines) + "\n")
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err


class TestReportFormat:
    def test_report_text_has_no_timings_by_default(self, tmp_path):
        cfg = parse_config(MINIMAL_BALL)
        from levelpde.outerloop import solve_nonlocal
        grid = cfg.build_grid()
        u, rep = solve_nonlocal(cfg.build_operator(), grid,
                                cfg.build_profile(grid), cfg.build_boundary(),
                                cfg.build_outer())
        text = format_report(rep)
        assert "timing" not in text
        assert "status = Converged" in text
        assert "record.0000.epsilon" in text
        timed = format_report(rep, timings=True)
        assert "timing.stage.0.seconds" in timed
        # A two-step budget adds a note; between them the reports hold every
        # kind of key, and no other.
        _, short = solve_nonlocal(cfg.build_operator(), grid,
                                  cfg.build_profile(grid), cfg.build_boundary(),
                                  OuterConfig(max_outer_iterations=2))
        assert short.notes
        keys = [line.split(" = ", 1)[0]
                for r in (rep, short) for line in format_report(r).splitlines()]
        stems = {re.sub(r"^(final|note)\..*", r"\1.*",
                        re.sub(r"^record\.\d{4}\.", "record.NNNN.", key))
                 for key in keys}
        assert stems == {
            "status", "damping", "outer_tol", "tie_snap", "bound_limit",
            "bound_max_observed", "total_iterations", "final.*", "note.*",
            "record.NNNN.epsilon", "record.NNNN.increment",
            "record.NNNN.step_gap", "record.NNNN.inner_residual",
            "record.NNNN.plain_residual",
        }
