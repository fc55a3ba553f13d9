"""Batch front end: parse run configurations, dispatch subcommands, serialize.

Config files are flat ``section.key = value`` text with ``#`` comments.
``_KEYS`` maps each key to the parser of its value, and ``_KINDS`` maps each
kind key to its choices and the keys each choice needs.  The values are
checked by the library constructors that take them (the grid builders,
``EllipticOperator``, ``ProfileFunction``, ``OuterConfig`` and
``BoundaryData``, evaluated on the configured grid's trace):
``parse_config`` runs each one and reports its error against the lines of
the keys it read.

The subcommands are ``solve`` (full nonlocal solve plus dumps),
``verify-ball`` (solve and compare against the closed ball form), ``study``
(refinement table) and ``diagnose`` (flat regions, boundary gradient and
barrier check on an existing field dump).

Exit codes: 0 success, 1 invalid configuration or parameters, 2 solver
non-convergence, 3 diagnostic check failure, 4 I/O errors.

Artifacts are written atomically (temp file then rename) and contain no
volatile data: rerunning the same config with the same build produces
byte-identical files.  Wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .elliptic import EllipticOperator
from .errors import (
    ConfigError,
    InvalidGridError,
    InvalidParameterError,
    LevelPDEError,
    NonConvergenceError,
    PreconditionError,
)
from .geometry import (
    _CLASS_NAMES,
    BallDescriptor,
    BoundaryData,
    BoundaryTrace,
    Grid,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)
from .measure import (
    ProfileFunction,
    ScalarField,
    increasing_rearrangement,
)
from .outerloop import OuterConfig, SolveReport, solve_nonlocal
from .verify import (
    StudyProblem,
    barrier_comparison_check,
    convergence_order_study,
    exact_ball_solution,
    flat_region_detector,
    boundary_gradient_min,
)


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers; an empty value is the empty list, and an
    empty item of a non-empty one (``0,,0`` or ``1,2,``) does not parse."""
    return tuple(float(tok) for tok in text.split(",")) if text else ()


def _parse_bounds(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(","):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_auto(text: str) -> float | None:
    """A number, or None for ``auto``: the default then applies."""
    return None if text == "auto" else float(text)


# Every config key, with the parser of its value.
_KEYS = {
    "domain.type": str, "domain.center": _parse_float_list,
    "domain.radius": float, "domain.r_inner": float, "domain.r_outer": float,
    "domain.bounds": _parse_bounds,
    "grid.h": float,
    "operator.kind": str, "operator.lambda": float, "operator.Lambda": float,
    "profile.kind": str, "profile.a": float, "profile.b": float,
    "profile.knots": _parse_float_list, "profile.values": _parse_float_list,
    "boundary.kind": str, "boundary.coeffs": _parse_float_list,
    "boundary.center": _parse_float_list, "boundary.knots": _parse_float_list,
    "boundary.values": _parse_float_list,
    "solver.inner_tol": _parse_auto, "solver.damping": _parse_auto,
    "solver.outer_tol": _parse_auto, "solver.max_outer_iterations": int,
    "study.h_list": _parse_float_list,
    "diagnose.field": str, "diagnose.delta": _parse_auto,
    "diagnose.band": _parse_auto, "diagnose.eps0": _parse_auto,
    "output.field": str, "output.report": str, "output.table": str,
    "output.rearrangement": str,
}

# Each kind key (all are required), its choices, and the keys each choice
# needs.
_KINDS = {
    "domain.type": {"box": ("domain.bounds",), "ball": ("domain.radius",),
                    "annulus": ("domain.r_inner", "domain.r_outer")},
    "operator.kind": {"laplacian": (),
                      "pucci_minus": ("operator.lambda", "operator.Lambda"),
                      "pucci_plus": ("operator.lambda", "operator.Lambda")},
    "profile.kind": {"linear": ("profile.a", "profile.b"),
                     "table": ("profile.knots", "profile.values")},
    "boundary.kind": {"zero": (), "radial_poly": ("boundary.coeffs",),
                      "table": ("boundary.knots", "boundary.values")},
}


class RunConfig(dict):
    """A parsed run configuration: the value of each given key, by key."""

    _grid: Grid | None = None

    def build_grid(self) -> Grid:
        """The configured grid, built on the first call (parse_config's
        check) and returned again by every later one."""
        if self._grid is None:
            kind, h = self["domain.type"], self["grid.h"]
            center = self.get("domain.center", (0.0, 0.0))
            if kind == "box":
                self._grid = build_box(self["domain.bounds"], h)
            elif kind == "ball":
                self._grid = build_ball(center, self["domain.radius"], h)
            else:
                self._grid = build_annulus(center, self["domain.r_inner"],
                                           self["domain.r_outer"], h)
        return self._grid

    def build_operator(self) -> EllipticOperator:
        """The configured operator; the Laplacian's lam = Lam = 1 are not keys."""
        return EllipticOperator(self["operator.kind"], self.get("operator.lambda", 1.0),
                                self.get("operator.Lambda", 1.0))

    def build_profile(self, grid: Grid) -> ProfileFunction:
        if self["profile.kind"] == "linear":
            return ProfileFunction.linear(self["profile.a"], self["profile.b"],
                                          domain_measure(grid))
        return ProfileFunction.from_table(self["profile.knots"],
                                          self["profile.values"], domain_measure(grid))

    def build_boundary(self) -> BoundaryData:
        kind = self["boundary.kind"]
        if kind == "zero":
            return BoundaryData.zero()
        center = self.get("boundary.center", self.build_grid().descriptor.center)
        if kind == "radial_poly":
            return BoundaryData.radial_poly(self["boundary.coeffs"], center)
        return BoundaryData.table(self["boundary.knots"], self["boundary.values"],
                                  center)

    def build_outer(self) -> OuterConfig:
        """The solver.* keys given (each an OuterConfig field), on top of
        the dataclass defaults; ``auto`` keeps the default."""
        return OuterConfig(**{key.split(".")[1]: value for key, value in self.items()
                              if key.startswith("solver.") and value is not None})


def parse_config(text: str) -> RunConfig:
    """Parse and check a config; raises ConfigError carrying every problem
    found, each with the line of its key (None for a missing key)."""
    problems: list[tuple[int | None, str, str]] = []
    lines: dict[str, int] = {}
    cfg = RunConfig()

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append((lineno, stripped, "expected 'section.key = value'"))
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            problems.append((lineno, key, "unknown key"))
        elif key in lines:
            problems.append((lineno, key, "duplicate key"))
        else:
            lines[key] = lineno
            try:
                cfg[key] = _KEYS[key](value)
            except (ValueError, TypeError) as err:
                problems.append((lineno, key, f"cannot parse {value!r}: {err}"))

    for key in ("grid.h", *_KINDS):
        if key not in lines:
            problems.append((None, key, "missing required key"))
    for kind, choices in _KINDS.items():
        choice = cfg.get(kind)
        if kind in cfg and choice not in choices:
            *names, last = choices
            problems.append((lines[kind], kind, f"must be {', '.join(names)} or {last}"))
        for key in choices.get(choice, ()):
            if key not in lines:
                problems.append((None, key, f"required when {kind} = {choice}"))
    if cfg.get("operator.kind") == "laplacian":
        for key in ("operator.lambda", "operator.Lambda"):
            if key in lines:
                problems.append((lines[key], key, "only meaningful for Pucci operators"))

    # The constructors check the values.  Each runs only when every key of
    # the sections it reads parsed and the keys it needs are given, so a
    # problem in one section does not hide another's; its error is reported
    # against each of those keys given, the kind keys aside.
    bad = {key.split(".")[0] for _, key, _ in problems if key in _KEYS}

    def check(sections: tuple[str, ...], build, *args):
        if not bad.isdisjoint(sections):
            return None
        try:
            return build(*args)
        except LevelPDEError as err:
            problems.extend((line, key, str(err)) for key, line in lines.items()
                            if key.split(".")[0] in sections and key not in _KINDS)
            return None

    grid = check(("domain", "grid"), cfg.build_grid)
    check(("operator",), cfg.build_operator)
    check(("solver",), cfg.build_outer)
    if grid is not None:
        check(("profile",), cfg.build_profile, grid)
        check(("boundary",), lambda: build_trace(grid, cfg.build_boundary()))

    if problems:
        raise ConfigError(problems)
    return cfg


# ---------------------------------------------------------------------------
# Serialization


def _fmt(x: float) -> str:
    """The shortest text that reads back as the same double."""
    return repr(float(x))


def atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(grid: Grid) -> str:
    """The first line of a dump of a field on ``grid``."""
    return "# n={} shape={} h={} origin={}".format(
        grid.n, ",".join(str(s) for s in grid.shape), repr(grid.h),
        ",".join(repr(o) for o in grid.origin))


def _node_labels(shape: tuple[int, ...]):
    """The ``i,j,k`` text of every multi-index, in C order (that of ravel())."""
    return map(",".join, itertools.product(*([str(i) for i in range(s)]
                                             for s in shape)))


def format_field(field: ScalarField) -> str:
    """Bit-exact dump: a header, then one ``index class value`` line per
    node in C order, the index one comma-joined token (``i,j,k`` in 3-D)."""
    grid = field.grid
    lines = [_header(grid)]
    lines += [f"{label} {_CLASS_NAMES[cls]} {value!r}"
              for label, cls, value in zip(_node_labels(grid.shape),
                                           grid.node_class.ravel().tolist(),
                                           field.values.ravel().tolist())]
    return "\n".join(lines) + "\n"


def load_field(path: str | Path, trace: BoundaryTrace) -> ScalarField:
    """The field that format_field dumped to ``path``, on ``trace``'s grid.

    The header, and the index and class of each node line, must be the text
    format_field writes for that grid; anything else raises
    InvalidParameterError naming the file and the line.

    Nothing made for one node line outlives it but its value, a float, and
    its file line number, an int.  The cyclic garbage collector tracks
    neither, so a load of any size adds only a few objects to its count.
    """
    grid = trace.grid
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as err:
        raise InvalidParameterError(f"{path}: not a text field dump ({err})") from None
    header = _header(grid)
    if not lines or lines[0] != header:
        raise InvalidParameterError(
            f"{path}:1: expected the configured grid's header {header!r}")
    linenos = [lineno for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(linenos) != grid.node_class.size:
        raise InvalidParameterError(
            f"{path}: expected {grid.node_class.size} node lines, found {len(linenos)}")
    values = []
    for lineno, label, cls in zip(linenos, _node_labels(grid.shape),
                                  grid.node_class.ravel().tolist()):
        try:
            index, name, value = lines[lineno - 1].split()
            values.append(float(value))
        except ValueError as err:
            raise InvalidParameterError(
                f"{path}:{lineno}: malformed node line ({err})") from None
        if index != label or name != _CLASS_NAMES[cls]:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected node {label} {_CLASS_NAMES[cls]}")
    interior = np.array(values)[grid.interior_flat]
    bad = np.flatnonzero(~np.isfinite(interior))
    if bad.size:
        raise InvalidParameterError(f"{path}:{linenos[grid.interior_flat[bad[0]]]}: "
                                    "non-finite value at an Interior node")
    return ScalarField(interior, trace)


def format_report(report: SolveReport) -> str:
    """Deterministic nested key-value text mirroring the report fields.

    Wall-clock data is excluded, so identical runs serialize to identical
    bytes.
    """
    lines = [
        f"status = {report.status}",
        f"damping = {_fmt(report.damping)}",
        f"outer_tol = {_fmt(report.outer_tol)}",
        f"tie_snap = {_fmt(report.tie_snap)}",
        f"bound_limit = {_fmt(report.bound_limit)}",
        f"bound_max_observed = {_fmt(report.bound_max_observed)}",
        f"total_iterations = {report.total_iterations}",
        f"final.increment = {_fmt(report.final_increment)}",
        f"final.inner_residual = {_fmt(report.final_inner_residual)}",
        f"final.plain_residual = {_fmt(report.final_plain_residual)}",
        f"final.plain_residual_core = {_fmt(report.final_plain_residual_core)}",
        f"final.plain_residual_band = {_fmt(report.final_plain_residual_band)}",
    ]
    for i, note in enumerate(report.notes):
        lines.append(f"note.{i} = {note}")
    for rec in report.records:
        p = f"record.{rec.k:04d}"
        lines.append(f"{p}.increment = {_fmt(rec.increment)}")
        lines.append(f"{p}.step_gap = {_fmt(rec.step_gap)}")
        lines.append(f"{p}.inner_residual = {_fmt(rec.inner_residual)}")
        lines.append(f"{p}.plain_residual = {_fmt(rec.plain_residual)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _write_outputs(cfg: RunConfig, field: ScalarField | None,
                   report_text: str | None, table_text: str | None) -> None:
    if cfg.get("output.field") and field is not None:
        atomic_write(cfg["output.field"], format_field(field))
    if cfg.get("output.report") and report_text is not None:
        atomic_write(cfg["output.report"], report_text)
    if cfg.get("output.table") and table_text is not None:
        atomic_write(cfg["output.table"], table_text)
    if cfg.get("output.rearrangement") and field is not None:
        lines = [f"cell = {_fmt(field.grid.cell)}"]
        for i, v in enumerate(increasing_rearrangement(field).tolist()):
            lines.append(f"value.{i} = {_fmt(v)}")
        atomic_write(cfg["output.rearrangement"], "\n".join(lines) + "\n")


def _solve(cfg: RunConfig) -> tuple[ScalarField, SolveReport, float]:
    """The configured nonlocal solve, and its wall time alone: every input
    is built before the clock starts."""
    grid = cfg.build_grid()
    args = (cfg.build_operator(), grid, cfg.build_profile(grid), cfg.build_boundary(),
            cfg.build_outer())
    t0 = time.perf_counter()
    u, report = solve_nonlocal(*args)
    return u, report, time.perf_counter() - t0


def cmd_solve(cfg: RunConfig) -> int:
    u, report, elapsed = _solve(cfg)
    print(f"solve: status={report.status} iterations={report.total_iterations} "
          f"plain_residual={report.final_plain_residual:.6e} "
          f"wall={elapsed:.2f}s")
    _write_outputs(cfg, u, format_report(report), None)
    return 0 if report.converged else 2


def _require_closed_form(cfg: RunConfig, command: str) -> None:
    """The closed ball form solves only g(t) = -t with zero data on a ball."""
    if cfg["domain.type"] != "ball":
        raise ConfigError([(None, "domain.type", f"{command} needs a ball domain")])
    if (cfg["profile.kind"], cfg.get("profile.a"), cfg.get("profile.b"),
            cfg["boundary.kind"]) != ("linear", -1.0, 0.0, "zero"):
        raise ConfigError([(None, "profile",
                            f"{command} requires profile g(t) = -t and zero "
                            "boundary data (the closed form's setting)")])


def cmd_verify_ball(cfg: RunConfig) -> int:
    _require_closed_form(cfg, "verify-ball")
    u, report, elapsed = _solve(cfg)
    grid, ball = u.grid, u.grid.descriptor
    exact = exact_ball_solution(ball.center, ball.radius, grid.n, cfg.build_operator())
    ref = exact.value(grid.interior_coords)
    err = float(np.max(np.abs(u.interior - ref)))
    sup = float(np.max(np.abs(ref)))
    table = "\n".join([
        f"h = {_fmt(grid.h)}",
        f"n_interior = {grid.n_interior}",
        f"status = {report.status}",
        f"linf_error = {_fmt(err)}",
        f"rel_error = {_fmt(err / sup if sup > 0 else math.inf)}",
        f"plain_residual = {_fmt(report.final_plain_residual)}",
    ]) + "\n"
    print(f"verify-ball: h={grid.h:g} status={report.status} "
          f"linf_error={err:.6e} wall={elapsed:.2f}s")
    _write_outputs(cfg, u, format_report(report), table)
    return 0 if report.converged else 2


def cmd_study(cfg: RunConfig) -> int:
    _require_closed_form(cfg, "study")
    if not cfg.get("study.h_list"):
        raise ConfigError([(None, "study.h_list", "missing required key")])
    ball = cfg.build_grid().descriptor
    problem = StudyProblem(center=ball.center, radius=ball.radius,
                           op=cfg.build_operator())
    t0 = time.perf_counter()
    rows = convergence_order_study(problem, cfg["study.h_list"], cfg.build_outer())
    elapsed = time.perf_counter() - t0
    lines = []
    for i, row in enumerate(rows):
        lines.append(f"row.{i}.h = {_fmt(row.h)}")
        lines.append(f"row.{i}.n_interior = {row.n_interior}")
        lines.append(f"row.{i}.error = {_fmt(row.error)}")
        lines.append(f"row.{i}.order = "
                     + ("none" if row.order is None else _fmt(row.order)))
        lines.append(f"row.{i}.status = {row.status}")
    table = "\n".join(lines) + "\n"
    for row in rows:
        order = "-" if row.order is None else f"{row.order:.3f}"
        print(f"study: h={row.h:g} error={row.error:.6e} order={order} "
              f"status={row.status}")
    print(f"study: wall={elapsed:.2f}s")
    _write_outputs(cfg, None, None, table)
    return 0 if all(r.status == "Converged" for r in rows) else 2


def cmd_diagnose(cfg: RunConfig) -> int:
    if not cfg.get("diagnose.field"):
        raise ConfigError([(None, "diagnose.field", "missing required key")])
    grid = cfg.build_grid()
    u = load_field(cfg["diagnose.field"], build_trace(grid, cfg.build_boundary()))
    g = cfg.build_profile(grid)
    op = cfg.build_operator()

    lines: list[str] = []
    failures: list[str] = []

    delta = cfg.get("diagnose.delta")
    if delta is None:
        delta = grid.h ** 2
    flat = flat_region_detector(u, delta)
    lines.append(f"flat.delta = {_fmt(flat.delta)}")
    lines.append(f"flat.max_mass = {_fmt(flat.max_mass)}")
    lines.append(f"flat.max_level = {_fmt(flat.max_level)}")
    for i, (level, mass) in enumerate(flat.top(5)):
        lines.append(f"flat.top.{i}.level = {_fmt(level)}")
        lines.append(f"flat.top.{i}.mass = {_fmt(mass)}")
    if not g.negative_on_range():
        lines.append("flat.ok = not-applicable (profile not negative)")
    elif not isinstance(grid.descriptor, BallDescriptor):
        lines.append("flat.ok = not-applicable (no closed form off the ball)")
    else:
        threshold = _flat_threshold(grid, op, delta)
        lines.append(f"flat.threshold = {_fmt(threshold)}")
        # No field's mass exceeds cell * N, so such a threshold cannot fail.
        lines.append(f"flat.vacuous = {threshold >= grid.cell * grid.n_interior}")
        ok = flat.max_mass <= threshold
        lines.append(f"flat.ok = {ok}")
        if not ok:
            failures.append(
                f"flat-region mass {flat.max_mass:.6g} exceeds {threshold:.6g}")

    band = cfg.get("diagnose.band")
    if band is None:
        band = max(2 * grid.h, 0.1)
    lines.append(f"gradient.band = {_fmt(band)}")
    lines.append(f"gradient.min = {_fmt(boundary_gradient_min(u, band))}")

    if grid.descriptor.spheres:
        barrier = barrier_comparison_check(u, cfg.get("diagnose.eps0"), op)
        lines.append(f"barrier.eps0 = {_fmt(barrier.eps0)}")
        lines.append(f"barrier.c0 = {_fmt(barrier.c0)}")
        lines.append(f"barrier.tol = {_fmt(barrier.tol)}")
        lines.append(f"barrier.height = {_fmt(barrier.height)}")
        lines.append(f"barrier.vacuous = {barrier.vacuous}")
        lines.append(f"barrier.min_grad_band = {_fmt(barrier.min_grad_band)}")
        lines.append(f"barrier.points = {len(barrier.points)}")
        lines.append(f"barrier.empty_probes = {barrier.empty_probes}")
        lines.append(f"barrier.passed = {barrier.passed}")
        lines.append(f"barrier.hypothesis_ok = {barrier.hypothesis_ok}")
        for i, p in enumerate(barrier.points):
            lines.append(f"barrier.point.{i}.min_slack = {_fmt(p.min_slack)}")
            lines.append(f"barrier.point.{i}.ok = {p.ok}")
        if barrier.empty_probes == len(barrier.points):
            failures.append("no barrier probe's tangent ball holds a node")
        elif not barrier.passed:
            failures.append("barrier comparison failed at a sampled point")
    else:
        lines.append("barrier.skipped = box domains have no inner ball condition")

    _write_outputs(cfg, None, "\n".join(lines) + "\n", None)
    for ln in lines:
        print("diagnose:", ln)
    if failures:
        for f in failures:
            print("diagnose: FAIL:", f, file=sys.stderr)
        return 3
    return 0


def _flat_threshold(grid: Grid, op: EllipticOperator, delta: float) -> float:
    """Vanishing threshold for near-flat mass on a ball, calibrated on the
    closed-form solution's own flat mass at the same delta."""
    exact = exact_ball_solution(grid.descriptor.center, grid.descriptor.radius,
                                grid.n, op)
    ref = flat_region_detector(exact.sample(grid), delta)
    return 1.5 * ref.max_mass + grid.cell


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Sequence[str] | None = None) -> int:
    dispatch = {
        "solve": cmd_solve,
        "verify-ball": cmd_verify_ball,
        "study": cmd_study,
        "diagnose": cmd_diagnose,
    }
    parser = argparse.ArgumentParser(
        prog="levelpde",
        description="Nonlocal superlevel-measure Dirichlet solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dispatch:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a section.key = value config file")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 4

    try:
        cfg = parse_config(text)
        return dispatch[args.command](cfg)
    except ConfigError as err:
        print(f"error: invalid configuration:\n{err}", file=sys.stderr)
        return 1
    except (InvalidGridError, InvalidParameterError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
