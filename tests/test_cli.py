"""Config parsing, field dump round trips, subcommands and exit codes."""

import gc
import itertools
import platform
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
from levelpde.elliptic import EllipticOperator, solve_dirichlet
from levelpde.errors import ConfigError, InvalidParameterError
from levelpde.geometry import (BOUNDARY, BallDescriptor, BoundaryData, BoxDescriptor,
                               build_annulus, build_ball, build_box, build_trace)
from levelpde.measure import ScalarField
from levelpde.outerloop import OuterConfig
from levelpde.verify import exact_ball_solution

def zero_data_field(grid, interior):
    return ScalarField(interior, build_trace(grid, BoundaryData.zero()))


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
        assert cfg["domain.type"] == "ball"
        grid = cfg.build_grid()
        assert grid.descriptor == BallDescriptor((0.0, 0.0), 1.0)
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
        assert cfg.build_grid().descriptor == BoxDescriptor(((0.0, 1.0), (0.0, 2.0)))
        assert cfg.build_grid().n == 2

    @pytest.mark.parametrize("kind", [
        "radial_poly\nboundary.coeffs = 0,1",
        "table\nboundary.knots = 0,8\nboundary.values = 0,8"],
        ids=["radial_poly", "table"])
    @pytest.mark.parametrize("domain, center", [
        ("box\ndomain.bounds = 0:1,0:2", (0.5, 1.0)),
        ("ball\ndomain.center = 0.25,-0.5\ndomain.radius = 1", (0.25, -0.5)),
        ("annulus\ndomain.center = 0.25,-0.5\ndomain.r_inner = 0.4\n"
         "domain.r_outer = 1", (0.25, -0.5)),
    ], ids=["box", "ball", "annulus"])
    def test_boundary_data_default_to_the_domain_centre(self, domain, center, kind):
        # Both radial kinds give psi = |x - centre| (the table's one piece
        # has slope 1, and the points lie within 8 of the centre).
        text = MINIMAL_BALL.replace("ball\ndomain.radius = 1", domain).replace(
            "boundary.kind = zero", f"boundary.kind = {kind}")
        psi = parse_config(text).build_boundary()
        pts = np.random.default_rng(3).normal(size=(20, 2))
        assert np.array_equal(psi.evaluate(pts), np.linalg.norm(pts - center, axis=1))

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
        # The benchmark's 3-D balls.
        lambda: build_ball((0.0, 0.0, 0.0), 1.0, 0.1),
        lambda: build_ball((0.0, 0.0, 0.0), 1.007, 0.1),
        lambda: build_ball((0.0, 0.0, 0.0), 0.992, 0.1),
    ])
    def test_round_trip_byte_identical(self, make_grid, tmp_path):
        grid = make_grid()
        rng = np.random.default_rng(9)
        u = zero_data_field(grid, rng.normal(size=grid.n_interior))
        text = format_field(u)
        p = tmp_path / "field.txt"
        p.write_text(text)
        loaded = load_field(p, u.trace)
        assert loaded.trace is u.trace
        assert format_field(loaded) == text

    def test_values_bitexact(self, tmp_path):
        grid = build_box([(0, 1)], 0.25)
        u = zero_data_field(grid, np.array([1 / 3, math_pi_ish(), 1e-300]))
        p = tmp_path / "f.txt"
        p.write_text(format_field(u))
        assert np.array_equal(load_field(p, u.trace).interior, u.interior)

    def test_box_dump_carries_psi_at_every_boundary_node(self, tmp_path):
        # No stencil reads the 8 corners of a cube, so no trace sample lies
        # there; the dump still holds psi at them, as at every other
        # Boundary lattice node.
        grid = build_box([(0, 1)] * 3, 0.25)
        psi = BoundaryData.from_callable(
            lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1] * p[:, 2])
        u = solve_dirichlet(EllipticOperator.laplacian(), grid, -1.0, psi)
        p = tmp_path / "u.txt"
        p.write_text(format_field(u))
        dumped = np.array([float(ln.split()[2]) for ln in p.read_text().splitlines()[1:]]
                          ).reshape(grid.shape)
        boundary = grid.node_class == BOUNDARY
        lattice = np.stack(np.meshgrid(*grid.axis_coords, indexing="ij"), axis=-1)
        assert np.array_equal(dumped[boundary], psi.evaluate(lattice[boundary]))
        assert np.array_equal(dumped[grid.interior_mask], u.interior)
        assert np.array_equal(load_field(p, u.trace).interior, u.interior)
        corners = lattice[::4, ::4, ::4].reshape(8, 3)
        assert boundary[::4, ::4, ::4].all()
        assert np.array_equal(dumped[::4, ::4, ::4].ravel(), psi.evaluate(corners))
        assert not any(np.all(grid.plan.points == c, axis=1).any() for c in corners)

    @pytest.mark.parametrize("damage", [
        lambda lines: lines.__setitem__(7, "0" + lines[7]),
        lambda lines: lines.__setitem__(7, "+" + lines[7].replace(",", ",0", 1)),
        lambda lines: lines.insert(8, lines.pop(7)),
        lambda lines: lines.__setitem__(7, "9" + lines[7]),
        lambda lines: lines.__setitem__(7, "x" + lines[7]),
    ], ids=["leading-zero", "plus-sign", "swapped", "off-lattice", "not-an-int"])
    def test_index_text_off_the_label(self, damage, tmp_path):
        # Line 8 must carry format_field's label of the 7th node, 0,6; any
        # other index text, even one naming the same node, is rejected.
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        u = zero_data_field(grid, np.arange(grid.n_interior, dtype=np.float64))
        lines = format_field(u).splitlines()
        damage(lines)
        p = tmp_path / "u.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(str(p))}:8: expected node 0,6 Exterior$"):
            load_field(p, u.trace)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="counts the collections of CPython's cyclic GC")
    def test_dump_and_load_start_no_collection(self, tmp_path):
        # A gen-0 collection starts once the GC-tracked objects made and not
        # yet freed outnumber the threshold, here one per 100 nodes.  One
        # object kept per node line (a tuple, say) starts dozens on this
        # 9,261-node lattice; floats, ints and strs are not tracked.  (The
        # count's net change over a call does not show them: freeing such
        # objects on return takes back all but what the tuple free list
        # keeps.)
        grid = build_ball((0.0, 0.0, 0.0), 1.0, 0.1)
        u = zero_data_field(grid, np.random.default_rng(5).normal(size=grid.n_interior))
        p = tmp_path / "u.txt"
        p.write_text(format_field(u))

        def collections(call, *args):
            starts = []

            def on_gc(phase, info):
                if phase == "start":
                    starts.append(info["generation"])

            gc.collect()
            gc.callbacks.append(on_gc)
            try:
                call(*args)
            finally:
                gc.callbacks.remove(on_gc)
            return starts

        enabled, threshold = gc.isenabled(), gc.get_threshold()
        gc.enable()
        gc.set_threshold(grid.node_class.size // 100)
        try:
            assert collections(format_field, u) == []
            assert collections(load_field, p, u.trace) == []
        finally:
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()


def ball_dump():
    """A field on the disk at h = 0.25, its dump's lines, the index in them
    of the centre node's line, and that node's label."""
    grid = build_ball((0.0, 0.0), 1.0, 0.25)
    u = zero_data_field(grid, np.arange(grid.n_interior, dtype=np.float64))
    centre = tuple(s // 2 for s in grid.shape)
    k = 1 + int(np.ravel_multi_index(centre, grid.shape))
    return u, format_field(u).splitlines(), k, ",".join(map(str, centre))


class TestFieldDumpTolerance:
    """What load_field accepts besides format_field's exact text, and the
    file lines its errors name."""

    def test_blank_lines_keep_later_lines_at_their_file_line(self, tmp_path):
        u, lines, k, label = ball_dump()
        lines[3:3] = ["", "   ", "\t"]
        lines.append("")
        p = tmp_path / "u.txt"
        p.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load_field(p, u.trace).interior, u.interior)
        lines[k + 3] = lines[k + 3].replace("Interior", "Boundary")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=(
                f"^{re.escape(str(p))}:{k + 4}: expected node {label} Interior$")):
            load_field(p, u.trace)

    def test_crlf_line_ends(self, tmp_path):
        u, lines, _, _ = ball_dump()
        p = tmp_path / "u.txt"
        p.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        loaded = load_field(p, u.trace)
        assert np.array_equal(loaded.interior, u.interior)
        assert format_field(loaded) == "\n".join(lines) + "\n"

    def test_tabs_and_repeated_spaces_between_tokens(self, tmp_path):
        u, lines, _, _ = ball_dump()
        seps = itertools.cycle(["\t", "   ", " \t ", "\t\t"])
        lines[1:] = [next(seps).join(ln.split()) + " " for ln in lines[1:]]
        p = tmp_path / "u.txt"
        p.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load_field(p, u.trace).interior, u.interior)

    def test_four_tokens_on_an_exterior_line(self, tmp_path):
        u, lines, _, _ = ball_dump()
        assert lines[1].split()[1] == "Exterior"
        lines[1] += " 0.0"
        p = tmp_path / "u.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=(
                f"^{re.escape(str(p))}:2: malformed node line "
                r"\(too many values to unpack")):
            load_field(p, u.trace)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_interior_value_after_a_blank_line(self, value, tmp_path):
        u, lines, k, _ = ball_dump()
        lines[k] = lines[k].rsplit(" ", 1)[0] + " " + value
        lines[2:2] = ["", ""]
        p = tmp_path / "u.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=(
                f"^{re.escape(str(p))}:{k + 3}: non-finite value at an Interior node$")):
            load_field(p, u.trace)


BALL3D = MINIMAL_BALL.replace("grid.h = 0.125", "domain.center = 0,0,0\ngrid.h = 0.1")
BOX2D = MINIMAL_BALL.replace("domain.type = ball\ndomain.radius = 1",
                             "domain.type = box\ndomain.bounds = -1:1,-1:1")
ANNULUS = MINIMAL_BALL.replace(
    "domain.type = ball\ndomain.radius = 1",
    "domain.type = annulus\ndomain.r_inner = 0.4\ndomain.r_outer = 1")


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

    def test_ball3d_verify_factors_the_even_sector_only(self, tmp_path, monkeypatch):
        # The 3-D ball's data are mirror-symmetric, so its Laplacian LU
        # factors one block of eight: the even sector, 639 of 4,139 nodes.
        from levelpde import elliptic

        shapes = []
        real = elliptic.splu
        monkeypatch.setattr(elliptic, "splu",
                            lambda A, **kw: shapes.append(A.shape) or real(A, **kw))
        cfg = BALL3D + f"output.report = {tmp_path}/r.txt\n"
        assert main(["verify-ball", write_config(tmp_path, cfg)]) == 0
        assert shapes == [(639, 639)]

    def test_ball3d_verify_and_diagnose_build_no_mixed_terms(self, tmp_path, monkeypatch):
        # Each command builds its grid once: parse_config's grid is the
        # command's.  The Laplacian reads the (a, a) stencil terms alone, and
        # the symmetric problem assembles and factors the even sector's block.
        from levelpde import cli

        grids = []
        real = cli.build_ball
        monkeypatch.setattr(cli, "build_ball",
                            lambda *args: grids.append(real(*args)) or grids[-1])
        cfg = BALL3D + f"output.field = {tmp_path}/u.txt\n"
        assert main(["verify-ball", write_config(tmp_path, cfg)]) == 0
        cfg = BALL3D + f"diagnose.field = {tmp_path}/u.txt\n" \
            + f"output.report = {tmp_path}/diag.txt\n"
        assert main(["diagnose", write_config(tmp_path, cfg, "d.cfg")]) == 0
        assert len(grids) == 2
        assert all(set(grid.plan.terms) == {(0, 0), (1, 1), (2, 2)} for grid in grids)
        lus = [grid.plan.laplacian.lus for grid in grids if grid.plan.laplacian]
        assert [[s for s, lu in enumerate(one) if lu is not None] for one in lus] == [[0]]

    def test_lu_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        from levelpde import elliptic

        def splu(A, **kw):
            raise MemoryError

        monkeypatch.setattr(elliptic, "splu", splu)
        rc = main(["verify-ball", write_config(tmp_path, BALL3D)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: the LU of 639 Laplacian rows does not fit in memory\n"

    def test_solve_max_iterations_exit_2(self, tmp_path):
        cfg = MINIMAL_BALL + "solver.max_outer_iterations = 1\n" \
            + f"output.report = {tmp_path}/r.txt\n"
        rc = main(["solve", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "status = MaxIterations" in (tmp_path / "r.txt").read_text()

    @pytest.mark.parametrize("value, h, failures", [
        (1.0, 0.125, ["flat-region mass"]),
        (0.0, 0.03125, ["flat-region mass", "barrier comparison failed"]),
    ], ids=["one", "zero"])
    def test_diagnose_constant_field_fails_flat_check(self, value, h, failures,
                                                      tmp_path, capsys):
        # A constant field is one flat region.  At h = 1/32 the barrier
        # tolerance 10 h^2 is below the tangent-ball barrier's height, so the
        # check is not vacuous and the zero field fails it too.
        grid = build_ball((0.0, 0.0), 1.0, h)
        const = zero_data_field(grid, np.full(grid.n_interior, value))
        (tmp_path / "const.txt").write_text(format_field(const))
        cfg = MINIMAL_BALL.replace("grid.h = 0.125", f"grid.h = {h}") \
            + f"diagnose.field = {tmp_path}/const.txt\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert f"diagnose: barrier.vacuous = {h > 1 / 32}\n" in out
        err = err.splitlines()
        assert len(err) == len(failures)
        assert all(line.startswith(f"diagnose: FAIL: {failure}")
                   for line, failure in zip(err, failures))

    @pytest.mark.parametrize("a, flat", [
        ("-1", "flat.ok = True\n"),
        ("1", "flat.ok = not-applicable (profile not negative)\n")],
        ids=["negative", "positive"])
    def test_diagnose_solved_field_passes(self, a, flat, tmp_path):
        # The flat-region exclusion holds only for a negative profile; with
        # g(t) = t diagnose reports it as not applicable, and no threshold.
        cfg_text = MINIMAL_BALL + f"output.field = {tmp_path}/u.txt\n"
        path = write_config(tmp_path, cfg_text)
        assert main(["solve", path]) == 0
        cfg2 = MINIMAL_BALL.replace("profile.a = -1", f"profile.a = {a}") + f"""
diagnose.field = {tmp_path}/u.txt
output.report = {tmp_path}/diag.txt
"""
        rc = main(["diagnose", write_config(tmp_path, cfg2, "d.cfg")])
        assert rc == 0
        text = (tmp_path / "diag.txt").read_text()
        assert flat in text
        assert ("flat.threshold" in text) == (a == "-1")
        assert "barrier.empty_probes = 0" in text
        assert "barrier.passed = True" in text
        # At h = 1/8 the tolerance 10 h^2 reaches the barrier's height.
        assert "barrier.height = 0.01227184630308513\nbarrier.vacuous = True\n" in text

    def test_diagnose_fails_when_no_probe_holds_a_node(self, tmp_path, capsys):
        # With eps0 = 0.02 all 8 tangent balls fall between the nodes.
        cfg_text = MINIMAL_BALL + f"output.field = {tmp_path}/u.txt\n"
        assert main(["solve", write_config(tmp_path, cfg_text)]) == 0
        cfg2 = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\ndiagnose.eps0 = 0.02\n"
        capsys.readouterr()
        assert main(["diagnose", write_config(tmp_path, cfg2, "d.cfg")]) == 3
        out = capsys.readouterr()
        assert "diagnose: barrier.empty_probes = 8" in out.out
        assert "diagnose: barrier.passed = False" in out.out
        assert "no barrier probe's tangent ball holds a node" in out.err

    def test_diagnose_box_skips_the_barrier(self, tmp_path, capsys):
        # Off the ball there is no closed form to calibrate a flat threshold
        # on, so the flat check is not applicable either.
        text = BOX2D + f"output.field = {tmp_path}/u.txt\ndiagnose.field = {tmp_path}/u.txt\n"
        path = write_config(tmp_path, text)
        assert main(["solve", path]) == 0
        assert main(["diagnose", path]) == 0
        out = capsys.readouterr().out
        assert "flat.threshold" not in out
        assert ("diagnose: flat.ok = not-applicable (no closed form off the "
                "ball)\n") in out
        assert ("diagnose: barrier.skipped = box domains have no inner ball "
                "condition\n") in out

    def test_diagnose_annulus_default_eps0(self, tmp_path, capsys):
        # eps0 defaults to a quarter of the shell's width, (1 - 0.4) / 4.
        text = ANNULUS.replace("grid.h = 0.125", "grid.h = 0.0625")
        text += f"output.field = {tmp_path}/u.txt\ndiagnose.field = {tmp_path}/u.txt\n"
        path = write_config(tmp_path, text)
        assert main(["solve", path]) == 0
        assert main(["diagnose", path]) == 0
        out = capsys.readouterr().out
        assert ("diagnose: flat.ok = not-applicable (no closed form off the "
                "ball)\n") in out
        assert "diagnose: barrier.eps0 = 0.15\n" in out
        assert "diagnose: barrier.passed = True\n" in out

    @pytest.mark.parametrize("domain, mass", [(ANNULUS, 1.453125), (BOX2D, 0.58203125)],
                             ids=["annulus", "box"])
    def test_diagnose_off_the_ball_passes_converged_fields(self, domain, mass, tmp_path):
        # At h = 1/16 and the default delta = h^2 these converged g = -t
        # solves hold flat masses of 1.45 (annulus) and 0.58 (box); with no
        # closed form off the ball there is no threshold to hold them to.
        text = domain.replace("grid.h = 0.125", "grid.h = 0.0625") + (
            f"output.field = {tmp_path}/u.txt\ndiagnose.field = {tmp_path}/u.txt\n"
            f"output.report = {tmp_path}/diag.txt\n")
        path = write_config(tmp_path, text)
        assert main(["solve", path]) == 0
        assert main(["diagnose", path]) == 0
        report = (tmp_path / "diag.txt").read_text()
        assert f"flat.max_mass = {mass!r}\n" in report
        assert "flat.ok = not-applicable (no closed form off the ball)\n" in report

    def test_diagnose_eps0_past_the_tangent_ball_exit_1(self, tmp_path, capsys):
        # The shell (0.4, 1) fits tangent balls of radius up to 0.3.
        text = ANNULUS
        grid = build_annulus((0.0, 0.0), 0.4, 1.0, 0.125)
        (tmp_path / "u.txt").write_text(
            format_field(zero_data_field(grid, np.zeros(grid.n_interior))))
        text += f"diagnose.field = {tmp_path}/u.txt\ndiagnose.eps0 = 0.35\n"
        assert main(["diagnose", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err == (
            "error: tangent ball of radius 0.35 does not fit inside the domain\n")

    def test_diagnose_zero_eps0_exit_1(self, tmp_path, capsys):
        grid = build_ball((0.0, 0.0), 1.0, 0.125)
        (tmp_path / "u.txt").write_text(
            format_field(zero_data_field(grid, np.zeros(grid.n_interior))))
        text = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\ndiagnose.eps0 = 0\n"
        assert main(["diagnose", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "error: eps0 must be positive\n"

    def test_empty_radial_poly_coefficients_exit_1(self, tmp_path, capsys):
        text = MINIMAL_BALL.replace("boundary.kind = zero",
                                    "boundary.kind = radial_poly\nboundary.coeffs =")
        assert main(["solve", write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:\n")
        assert "boundary.coeffs" in err and "at least one coefficient" in err

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
        ("domain.radius = 1", "domain.radius = 1\ndomain.center = 0,,0",
         "cannot parse '0,,0': "),
        ("domain.radius = 1", "domain.radius = 1\ndomain.center = 0, ,0,0",
         "cannot parse '0, ,0,0': "),
        ("boundary.kind = zero", "boundary.kind = table\nboundary.values = 0,8\n"
         "boundary.knots = 0,,8", "cannot parse '0,,8': "),
        ("boundary.kind = zero", "boundary.kind = zero\nstudy.h_list = 0.25,0.125,",
         "cannot parse '0.25,0.125,': "),
    ], ids=["inf-Lambda", "nan-profile", "empty-center", "empty-item-2d-center",
            "empty-item-3d-center", "empty-item-table-knot", "trailing-comma-h-list"])
    def test_unusable_data_exit_1_at_parse_time(self, old, new, message, tmp_path,
                                               capsys):
        # Each used to reach the solver: Lambda = inf ended with a NaN
        # residual and exit 2, profile.a = nan failed after two solves, and
        # an empty list item was dropped (0,,0 made a 2-D centre, 0, ,0,0 a
        # 3-D one).
        text = MINIMAL_BALL.replace(old, new)
        given = new.splitlines()[-1]
        rc = main(["solve", write_config(tmp_path, text)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        line = text.splitlines().index(given) + 1
        assert f"line {line}: {given.split(' = ')[0]}: " in err and message in err

    @pytest.mark.parametrize("knots, values", [("0,inf", "1,2"), ("0,2", "1,nan")],
                             ids=["inf-knot", "nan-value"])
    def test_non_finite_boundary_table_exit_1_at_parse_time(self, knots, values,
                                                             tmp_path, capsys):
        # An infinite knot used to solve with psi = 1; a NaN value failed
        # only at the solve, with an error that named no config line.
        text = MINIMAL_BALL.replace(
            "boundary.kind = zero", "boundary.kind = table\n"
            f"boundary.knots = {knots}\nboundary.values = {values}")
        rc = main(["solve", write_config(tmp_path, text)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        lines = text.splitlines()
        for key in ("boundary.knots", "boundary.values"):
            line = next(i for i, ln in enumerate(lines, 1) if ln.startswith(key))
            assert (f"line {line}: {key}: table knots and values must be finite"
                    in err)

    @pytest.mark.parametrize("h_list", ["nan", "0.25,-1"])
    def test_study_spacing_the_grid_builder_rejects_exit_1(self, h_list, tmp_path,
                                                          capsys):
        # The study builds its grids itself; InvalidGridError escaped main.
        text = MINIMAL_BALL + f"study.h_list = {h_list}\n"
        rc = main(["study", write_config(tmp_path, text)])
        assert rc == 1
        assert capsys.readouterr().err == "error: spacing h must be positive and finite\n"

    def test_study_repeated_spacing_exit_1(self, tmp_path, capsys):
        text = MINIMAL_BALL + "study.h_list = 0.25,0.25\n"
        assert main(["study", write_config(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "error: spacing 0.25 is listed twice\n"

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

    def test_field_output_onto_a_directory_exit_4(self, tmp_path, capsys):
        (tmp_path / "u.txt").mkdir()
        text = MINIMAL_BALL + f"output.field = {tmp_path}/u.txt\n"
        rc = main(["solve", write_config(tmp_path, text)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: I/O failure:")
        # The temporary file is gone and the directory is left as it was.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "u.txt"]
        assert not any((tmp_path / "u.txt").iterdir())

    def test_diagnose_non_utf8_dump_exit_1(self, tmp_path, capsys):
        (tmp_path / "u.txt").write_bytes(b"# n=2 \xff\xfe\n")
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path}/u.txt: not a text field dump")

    def test_diagnose_other_node_classes_exit_1(self, tmp_path, capsys):
        # Same lattice, but one Interior node relabelled Boundary.
        grid = build_ball((0.0, 0.0), 1.0, 0.125)
        lines = format_field(zero_data_field(grid, np.zeros(grid.n_interior))
                             ).splitlines()
        k = 1 + int(np.ravel_multi_index((8, 8), grid.shape))
        lines[k] = lines[k].replace("Interior", "Boundary")
        (tmp_path / "u.txt").write_text("\n".join(lines) + "\n")
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}/u.txt:{k + 1}: expected node 8,8 Interior\n")

    @pytest.mark.parametrize("command, key", [
        ("study", "study.h_list"), ("diagnose", "diagnose.field")])
    def test_missing_command_key_exit_1(self, command, key, tmp_path, capsys):
        rc = main([command, write_config(tmp_path, MINIMAL_BALL)])
        assert rc == 1
        assert f"{key}: missing required key" in capsys.readouterr().err

    def test_verify_ball_on_a_box_exit_1(self, tmp_path, capsys):
        rc = main(["verify-ball", write_config(tmp_path, BOX2D)])
        assert rc == 1
        assert "verify-ball needs a ball domain" in capsys.readouterr().err

    def test_diagnose_mismatched_grid_exit_1(self, tmp_path, capsys):
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        u = zero_data_field(grid, np.zeros(grid.n_interior))
        (tmp_path / "u.txt").write_text(format_field(u))
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n"  # h mismatch
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}/u.txt:1: expected the configured grid's header "
            "'# n=2 shape=17,17 h=0.125 origin=-1.0,-1.0'\n")

    @pytest.mark.parametrize("header, damage, where", [
        (True, lambda ln: ln.replace(" h=", " step="), ":1:"),
        (True, lambda ln: ln.replace(" h=0.125", " h=0.1250"), ":1:"),
        (False, lambda ln: "", ": expected 289 node lines, found 288"),
        (False, lambda ln: ln + " 0.0", ":146:"),
        (False, lambda ln: ln.replace("8,8", "8,08"), ":146:"),
        (False, lambda ln: ln.replace("Interior", "Inside"), ":146:"),
        (False, lambda ln: ln.rsplit(" ", 1)[0] + " x", ":146:"),
        (False, lambda ln: ln.rsplit(" ", 1)[0] + " nan", ":146:"),
    ], ids=["header-without-h", "header-text", "blank-node-line", "four-fields",
            "index-text", "unknown-class", "not-a-number", "nan-interior"])
    def test_diagnose_malformed_dump_exit_1(self, header, damage, where, tmp_path,
                                            capsys):
        # One line of a dump that diagnose passes is damaged: the header, or
        # the centre node's line (line 146).  The error names the file, and
        # the line where there is one.
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
        assert err.startswith(f"error: {tmp_path}/u.txt{where}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("band", ["nan", "-1", "0.01"])
    def test_diagnose_band_below_2h_exit_1(self, band, tmp_path, capsys):
        base = MINIMAL_BALL.replace("grid.h = 0.125", "grid.h = 0.25")
        grid = build_ball((0.0, 0.0), 1.0, 0.25)
        exact = exact_ball_solution((0.0, 0.0), 1.0, 2,
                                    EllipticOperator.laplacian())
        (tmp_path / "u.txt").write_text(format_field(exact.sample(grid)))
        cfg = base + f"diagnose.field = {tmp_path}/u.txt\ndiagnose.band = {band}\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: band must be at least 2h\n"


    @pytest.mark.parametrize("key, value, message", [
        ("diagnose.delta", "inf", "delta must be positive and finite"),
        ("diagnose.delta", "nan", "delta must be positive and finite"),
        ("diagnose.delta", "1e400", "delta must be positive and finite"),
        ("diagnose.band", "inf", "band must be finite"),
    ])
    def test_diagnose_non_finite_window_exit_1(self, key, value, message, tmp_path,
                                               capsys):
        # An infinite delta put every node in every level's window, so the
        # flat check compared the domain measure with 1.5 times itself and
        # passed on any field.
        grid = build_ball((0.0, 0.0), 1.0, 0.125)
        (tmp_path / "u.txt").write_text(
            format_field(zero_data_field(grid, np.full(grid.n_interior, 2.0))))
        cfg = MINIMAL_BALL + f"diagnose.field = {tmp_path}/u.txt\n{key} = {value}\n"
        rc = main(["diagnose", write_config(tmp_path, cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestReportFormat:
    def test_a_tie_snap_at_its_floor_prints_as_a_float(self, tmp_path):
        # h = 0.0833333333333333 puts node (12, 0) on the circle to rounding,
        # so the tie snap is its floor, a NumPy scalar.
        text = MINIMAL_BALL.replace("grid.h = 0.125", "grid.h = 0.0833333333333333")
        text += f"output.report = {tmp_path}/r.txt\n"
        assert main(["solve", write_config(tmp_path, text)]) == 0
        report = (tmp_path / "r.txt").read_text()
        assert "np.float64(" not in report
        snap = re.search(r"^tie_snap = (.*)$", report, re.M).group(1)
        assert snap == repr(float(snap)) and float(snap) < 1e-15

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
        assert "record.0000.step_gap" in text and "epsilon" not in text
        # No option embeds wall-clock data in the report.
        with pytest.raises(SystemExit) as exc:
            main(["solve", write_config(tmp_path, MINIMAL_BALL), "--timings"])
        assert exc.value.code == 2
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
            "record.NNNN.increment",
            "record.NNNN.step_gap", "record.NNNN.inner_residual",
            "record.NNNN.plain_residual",
        }
