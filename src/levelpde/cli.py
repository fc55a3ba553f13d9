"""Batch front end: parse run configurations, dispatch subcommands, serialize.

Config files are flat ``section.key = value`` text with ``#`` comments.  The
subcommands are ``solve`` (full nonlocal solve plus dumps), ``verify-ball``
(solve and compare against the closed ball form), ``study`` (refinement
table) and ``diagnose`` (flat regions, boundary gradient and barrier check on
an existing field dump).

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
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Sequence

import numpy as np

from .elliptic import EllipticOperator
from .errors import (
    ConfigError,
    InvalidParameterError,
    LevelPDEError,
    NonConvergenceError,
    PreconditionError,
)
from .geometry import (
    _CLASS_CODES,
    _CLASS_NAMES,
    BallDescriptor,
    AnnulusDescriptor,
    BoundaryData,
    Grid,
    build_annulus,
    build_ball,
    build_box,
    build_trace,
    domain_measure,
)
from .measure import (
    ProfileFunction,
    ProfileSpec,
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

_KNOWN_KEYS = {
    "domain.type", "domain.center", "domain.radius", "domain.r_inner",
    "domain.r_outer", "domain.bounds",
    "grid.h",
    "operator.kind", "operator.lambda", "operator.Lambda",
    "profile.kind", "profile.a", "profile.b", "profile.knots", "profile.values",
    "boundary.kind", "boundary.coeffs", "boundary.center", "boundary.knots",
    "boundary.values",
    "solver.inner_tol", "solver.damping", "solver.outer_tol",
    "solver.max_outer_iterations",
    "study.h_list",
    "diagnose.field", "diagnose.delta", "diagnose.band", "diagnose.eps0",
    "output.field", "output.report", "output.table", "output.rearrangement",
}


@dataclass
class RunConfig:
    """Fully validated run configuration (the typed view of the text file)."""

    domain_type: str = "ball"
    center: tuple[float, ...] = (0.0, 0.0)
    radius: float = 1.0
    r_inner: float = 0.0
    r_outer: float = 0.0
    bounds: tuple[tuple[float, float], ...] = ()
    h: float = 0.0
    operator_kind: str = "laplacian"
    lam: float = 1.0
    Lam: float = 1.0
    profile: ProfileSpec = dc_field(default_factory=ProfileSpec)
    boundary_kind: str = "zero"
    boundary_coeffs: tuple[float, ...] = ()
    boundary_center: tuple[float, ...] | None = None
    boundary_knots: tuple[float, ...] = ()
    boundary_values: tuple[float, ...] = ()
    solver: dict = dc_field(default_factory=dict)
    study_h_list: tuple[float, ...] = ()
    diagnose_field: str = ""
    diagnose_delta: float | None = None
    diagnose_band: float | None = None
    diagnose_eps0: float | None = None
    out_field: str = ""
    out_report: str = ""
    out_table: str = ""
    out_rearrangement: str = ""

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> Grid:
        if self.domain_type == "box":
            return build_box(self.bounds, self.h)
        if self.domain_type == "ball":
            return build_ball(self.center, self.radius, self.h)
        return build_annulus(self.center, self.r_inner, self.r_outer, self.h)

    def build_operator(self) -> EllipticOperator:
        if self.operator_kind == "laplacian":
            return EllipticOperator.laplacian()
        if self.operator_kind == "pucci_minus":
            return EllipticOperator.pucci_minus(self.lam, self.Lam)
        return EllipticOperator.pucci_plus(self.lam, self.Lam)

    def build_profile(self, grid: Grid) -> ProfileFunction:
        return self.profile.bind(domain_measure(grid))

    def build_boundary(self) -> BoundaryData:
        center = self.boundary_center
        if center is None:
            if self.domain_type == "box":
                center = tuple(0.5 * (lo + hi) for lo, hi in self.bounds)
            else:
                center = self.center
        if self.boundary_kind == "zero":
            return BoundaryData.zero()
        if self.boundary_kind == "radial_poly":
            return BoundaryData.radial_poly(self.boundary_coeffs, center)
        return BoundaryData.table(self.boundary_knots, self.boundary_values,
                                  center)

    def build_outer(self) -> OuterConfig:
        """The solver.* keys given (each an OuterConfig field), on top of
        the dataclass defaults."""
        return OuterConfig(**self.solver)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _parse_bounds(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(","):
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    problems: list[tuple[int | None, str, str]] = []
    raw: dict[str, tuple[int, str]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append((lineno, stripped, "expected 'section.key = value'"))
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            problems.append((lineno, key, "unknown key"))
            continue
        if key in raw:
            problems.append((lineno, key, "duplicate key"))
            continue
        raw[key] = (lineno, value)

    cfg = RunConfig()

    def take(key: str, conv, default=None, required=False):
        if key not in raw:
            if required:
                problems.append((None, key, "missing required key"))
            return default
        lineno, value = raw[key]
        try:
            return conv(value)
        except (ValueError, TypeError) as err:
            problems.append((lineno, key, f"cannot parse {value!r}: {err}"))
            return default

    def line_of(key: str) -> int | None:
        return raw[key][0] if key in raw else None

    cfg.domain_type = take("domain.type", str, required=True, default="ball")
    if cfg.domain_type not in ("box", "ball", "annulus"):
        problems.append((line_of("domain.type"), "domain.type",
                         "must be box, ball or annulus"))
        cfg.domain_type = "ball"

    cfg.h = take("grid.h", float, required=True)
    if cfg.h is not None and not 0 < cfg.h < math.inf:
        problems.append((line_of("grid.h"), "grid.h", "must be positive and finite"))

    if cfg.domain_type == "box":
        cfg.bounds = take("domain.bounds", _parse_bounds, required=True,
                          default=())
        if cfg.bounds and not (1 <= len(cfg.bounds) <= 3):
            problems.append((line_of("domain.bounds"), "domain.bounds",
                             "need 1 to 3 axes"))
        for lo, hi in cfg.bounds:
            if not -math.inf < lo < hi < math.inf:
                problems.append((line_of("domain.bounds"), "domain.bounds",
                                 f"empty or unbounded interval {lo}:{hi}"))
    else:
        cfg.center = take("domain.center", _parse_float_list,
                          default=(0.0, 0.0))
        if not (1 <= len(cfg.center) <= 3):
            problems.append((line_of("domain.center"), "domain.center",
                             "need 1 to 3 coordinates"))
        if cfg.domain_type == "ball":
            cfg.radius = take("domain.radius", float, required=True)
            if cfg.radius is not None and not 0 < cfg.radius < math.inf:
                problems.append((line_of("domain.radius"), "domain.radius",
                                 "must be positive and finite"))
        else:
            cfg.r_inner = take("domain.r_inner", float, required=True)
            cfg.r_outer = take("domain.r_outer", float, required=True)
            if cfg.r_inner is not None and cfg.r_outer is not None \
                    and not 0 < cfg.r_inner < cfg.r_outer < math.inf:
                problems.append((line_of("domain.r_outer"), "domain.r_outer",
                                 "need 0 < r_inner < r_outer < inf"))

    cfg.operator_kind = take("operator.kind", str, required=True,
                             default="laplacian")
    if cfg.operator_kind not in ("laplacian", "pucci_minus", "pucci_plus"):
        problems.append((line_of("operator.kind"), "operator.kind",
                         "must be laplacian, pucci_minus or pucci_plus"))
        cfg.operator_kind = "laplacian"
    if cfg.operator_kind in ("pucci_minus", "pucci_plus"):
        lam = take("operator.lambda", float)
        Lam = take("operator.Lambda", float)
        if lam is None and "operator.lambda" not in raw:
            problems.append((None, "operator.lambda",
                             "required for Pucci operators"))
        if Lam is None and "operator.Lambda" not in raw:
            problems.append((None, "operator.Lambda",
                             "required for Pucci operators"))
        if lam is not None and Lam is not None:
            if not (0 < lam <= Lam):
                problems.append((line_of("operator.Lambda"), "operator.Lambda",
                                 "need 0 < lambda <= Lambda"))
            cfg.lam, cfg.Lam = lam, Lam
    else:
        for key in ("operator.lambda", "operator.Lambda"):
            if key in raw:
                problems.append((line_of(key), key,
                                 "only meaningful for Pucci operators"))

    kind = take("profile.kind", str, required=True, default="linear")
    if kind == "linear":
        a = take("profile.a", float, required=True, default=-1.0)
        b = take("profile.b", float, required=True, default=0.0)
        cfg.profile = ProfileSpec(kind="linear", a=a, b=b)
    elif kind == "table":
        knots = take("profile.knots", _parse_float_list, required=True,
                     default=())
        values = take("profile.values", _parse_float_list, required=True,
                      default=())
        if knots and list(knots) != sorted(set(knots)):
            problems.append((line_of("profile.knots"), "profile.knots",
                             "must be strictly increasing"))
        if knots and values and len(knots) != len(values):
            problems.append((line_of("profile.values"), "profile.values",
                             "length must match profile.knots"))
        cfg.profile = ProfileSpec(kind="table", knots=tuple(knots),
                                  values=tuple(values))
    else:
        problems.append((line_of("profile.kind"), "profile.kind",
                         "must be linear or table"))

    cfg.boundary_kind = take("boundary.kind", str, required=True, default="zero")
    if cfg.boundary_kind == "radial_poly":
        cfg.boundary_coeffs = take("boundary.coeffs", _parse_float_list,
                                   required=True, default=())
    elif cfg.boundary_kind == "table":
        cfg.boundary_knots = take("boundary.knots", _parse_float_list,
                                  required=True, default=())
        cfg.boundary_values = take("boundary.values", _parse_float_list,
                                   required=True, default=())
        if cfg.boundary_knots and list(cfg.boundary_knots) != \
                sorted(set(cfg.boundary_knots)):
            problems.append((line_of("boundary.knots"), "boundary.knots",
                             "must be strictly increasing"))
    elif cfg.boundary_kind != "zero":
        problems.append((line_of("boundary.kind"), "boundary.kind",
                         "must be zero, radial_poly or table"))
    if "boundary.center" in raw:
        cfg.boundary_center = take("boundary.center", _parse_float_list)

    def number(text: str) -> float | None:
        return None if text == "auto" else float(text)

    for name, conv in (("inner_tol", number), ("damping", number),
                       ("outer_tol", number), ("max_outer_iterations", int)):
        val = take(f"solver.{name}", conv)
        if val is not None:
            cfg.solver[name] = val

    cfg.study_h_list = take("study.h_list", _parse_float_list, default=())
    cfg.diagnose_field = take("diagnose.field", str, default="")
    for name in ("delta", "band", "eps0"):
        key = f"diagnose.{name}"
        if key in raw:
            val = take(key, lambda s: None if s == "auto" else float(s))
            setattr(cfg, f"diagnose_{name}", val)

    cfg.out_field = take("output.field", str, default="")
    cfg.out_report = take("output.report", str, default="")
    cfg.out_table = take("output.table", str, default="")
    cfg.out_rearrangement = take("output.rearrangement", str, default="")

    # Cross checks that depend on several keys at once: re-run the module
    # constructors so every invariant is enforced at parse time.
    if not problems:
        try:
            grid = cfg.build_grid()
            if (cfg.boundary_center is not None
                    and len(cfg.boundary_center) != grid.n):
                problems.append((line_of("boundary.center"), "boundary.center",
                                 f"needs {grid.n} coordinates, one per axis"))
            cfg.build_operator()
            cfg.build_profile(grid)
            cfg.build_boundary()
            cfg.build_outer()
        except LevelPDEError as err:
            problems.append((None, "cross-check", str(err)))

    if problems:
        raise ConfigError(problems)
    return cfg


# ---------------------------------------------------------------------------
# Serialization


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


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


def format_field(field: ScalarField) -> str:
    """Bit-exact dump: header plus one ``i,j k class value`` line per node."""
    grid = field.grid
    lines = [
        "# n={} shape={} h={} origin={}".format(
            grid.n,
            ",".join(str(s) for s in grid.shape),
            repr(grid.h),
            ",".join(repr(o) for o in grid.origin),
        )
    ]
    # Multi-indices in C order, the order of ravel().
    labels = itertools.product(*([str(i) for i in range(s)] for s in grid.shape))
    lines += [f"{','.join(index)} {_CLASS_NAMES[cls]} {value!r}"
              for index, cls, value in zip(labels, grid.node_class.ravel().tolist(),
                                           field.values.ravel().tolist())]
    return "\n".join(lines) + "\n"


@dataclass
class LoadedField:
    n: int
    shape: tuple[int, ...]
    h: float
    origin: tuple[float, ...]
    node_class: np.ndarray
    values: np.ndarray


def load_field(path: str | Path) -> LoadedField:
    """Parse a field dump; a malformed one raises InvalidParameterError
    naming the file and the line."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as err:
        raise InvalidParameterError(f"{path}: not a text field dump ({err})") from None
    if not lines or not lines[0].startswith("# "):
        raise InvalidParameterError(f"{path}: missing field header")
    try:
        header = dict(tok.split("=", 1) for tok in lines[0][2:].split())
        n = int(header["n"])
        shape = tuple(int(s) for s in header["shape"].split(","))
        h = float(header["h"])
        origin = tuple(float(o) for o in header["origin"].split(","))
        if min(shape) < 1:
            raise ValueError(f"shape {shape} has an empty axis")
    except (KeyError, ValueError) as err:
        raise InvalidParameterError(
            f"{path}:1: malformed field header ({err!r})") from None
    count = math.prod(shape)
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        raise InvalidParameterError(
            f"{path}: expected {count} node lines, found {len(body)}")
    # Line k must carry the k-th node in C order; an index off the lattice
    # is malformed, one on it but elsewhere is out of order.
    classes, values = [], []
    for (lineno, ln), node in zip(body, itertools.product(*map(range, shape))):
        try:
            idx_s, cls_s, val_s = ln.split()
            index = tuple(int(i) for i in idx_s.split(","))
            if index != node:
                np.ravel_multi_index(index, shape)
            classes.append(_CLASS_CODES[cls_s])
            values.append(float(val_s))
        except (KeyError, ValueError) as err:
            raise InvalidParameterError(
                f"{path}:{lineno}: malformed node line ({err!r})") from None
        if index != node:
            raise InvalidParameterError(f"{path}:{lineno}: node lines out of order")
    return LoadedField(n, shape, h, origin,
                       np.array(classes, dtype=np.int8).reshape(shape),
                       np.array(values, dtype=np.float64).reshape(shape))


def format_report(report: SolveReport, timings: bool = False) -> str:
    """Deterministic nested key-value text mirroring the report fields.

    Wall-clock data is excluded unless explicitly requested, so identical
    runs serialize to identical bytes.
    """
    lines = [
        f"status = {report.status}",
        f"initial_policy = {report.initial_policy}",
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
        lines.append(f"{p}.epsilon = {_fmt(rec.epsilon)}")
        lines.append(f"{p}.increment = {_fmt(rec.increment)}")
        lines.append(f"{p}.step_gap = {_fmt(rec.step_gap)}")
        lines.append(f"{p}.inner_residual = {_fmt(rec.inner_residual)}")
        lines.append(f"{p}.plain_residual = {_fmt(rec.plain_residual)}")
        lines.append(f"{p}.lip_increment = {_fmt(rec.lip_increment)}")
    if timings:
        for i, (eps, sec) in enumerate(report.stage_seconds):
            lines.append(f"timing.stage.{i}.epsilon = {_fmt(eps)}")
            lines.append(f"timing.stage.{i}.seconds = {_fmt(sec)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _write_outputs(cfg: RunConfig, field: ScalarField | None,
                   report_text: str | None, table_text: str | None) -> None:
    if cfg.out_field and field is not None:
        atomic_write(cfg.out_field, format_field(field))
    if cfg.out_report and report_text is not None:
        atomic_write(cfg.out_report, report_text)
    if cfg.out_table and table_text is not None:
        atomic_write(cfg.out_table, table_text)
    if cfg.out_rearrangement and field is not None:
        star = increasing_rearrangement(field)
        lines = [f"cell = {_fmt(star.cell)}"]
        for i, v in enumerate(star.values.tolist()):
            lines.append(f"value.{i} = {_fmt(v)}")
        atomic_write(cfg.out_rearrangement, "\n".join(lines) + "\n")


def cmd_solve(cfg: RunConfig, timings: bool = False) -> int:
    grid = cfg.build_grid()
    op = cfg.build_operator()
    g = cfg.build_profile(grid)
    psi = cfg.build_boundary()
    t0 = time.perf_counter()
    u, report = solve_nonlocal(op, grid, g, psi, cfg.build_outer())
    elapsed = time.perf_counter() - t0
    print(f"solve: status={report.status} iterations={report.total_iterations} "
          f"plain_residual={report.final_plain_residual:.6e} "
          f"wall={elapsed:.2f}s")
    _write_outputs(cfg, u, format_report(report, timings), None)
    return 0 if report.converged else 2


def _require_closed_form(cfg: RunConfig, command: str) -> None:
    """The closed ball form solves only g(t) = -t with zero data on a ball."""
    if cfg.domain_type != "ball":
        raise ConfigError([(None, "domain.type", f"{command} needs a ball domain")])
    if not (cfg.profile.kind == "linear" and cfg.profile.a == -1.0
            and cfg.profile.b == 0.0 and cfg.boundary_kind == "zero"):
        raise ConfigError([(None, "profile",
                            f"{command} requires profile g(t) = -t and zero "
                            "boundary data (the closed form's setting)")])


def cmd_verify_ball(cfg: RunConfig, timings: bool = False) -> int:
    _require_closed_form(cfg, "verify-ball")
    grid = cfg.build_grid()
    op = cfg.build_operator()
    g = cfg.build_profile(grid)
    n = len(cfg.center)
    exact = exact_ball_solution(cfg.center, cfg.radius, n, op)
    t0 = time.perf_counter()
    u, report = solve_nonlocal(op, grid, g, BoundaryData.zero(),
                               cfg.build_outer())
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(u.interior - exact.value(grid.interior_coords))))
    sup = float(np.max(np.abs(exact.value(grid.interior_coords))))
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
    _write_outputs(cfg, u, format_report(report, timings), table)
    return 0 if report.converged else 2


def cmd_study(cfg: RunConfig, timings: bool = False) -> int:
    _require_closed_form(cfg, "study")
    if not cfg.study_h_list:
        raise ConfigError([(None, "study.h_list", "missing required key")])
    problem = StudyProblem(center=cfg.center, radius=cfg.radius,
                           op=cfg.build_operator())
    t0 = time.perf_counter()
    rows = convergence_order_study(problem, cfg.study_h_list, cfg.build_outer())
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


def cmd_diagnose(cfg: RunConfig, timings: bool = False) -> int:
    if not cfg.diagnose_field:
        raise ConfigError([(None, "diagnose.field", "missing required key")])
    grid = cfg.build_grid()
    loaded = load_field(cfg.diagnose_field)
    if (loaded.n, loaded.shape, loaded.h) != (grid.n, grid.shape, grid.h) \
            or loaded.origin != grid.origin:
        raise ConfigError([(None, "diagnose.field",
                            "dump geometry does not match the configured grid")])
    if not np.array_equal(loaded.node_class, grid.node_class):
        raise ConfigError([(None, "diagnose.field",
                            "dump node classes do not match the configured grid")])
    psi = cfg.build_boundary()
    u = ScalarField(grid, loaded.values, build_trace(grid, psi))
    u.check_finite()
    g = cfg.build_profile(grid)
    op = cfg.build_operator()

    lines: list[str] = []
    failures: list[str] = []

    delta = cfg.diagnose_delta if cfg.diagnose_delta is not None else grid.h ** 2
    flat = flat_region_detector(u, delta)
    lines.append(f"flat.delta = {_fmt(flat.delta)}")
    lines.append(f"flat.max_mass = {_fmt(flat.max_mass)}")
    lines.append(f"flat.max_level = {_fmt(flat.max_level)}")
    for i, (level, mass) in enumerate(flat.top(5)):
        lines.append(f"flat.top.{i}.level = {_fmt(level)}")
        lines.append(f"flat.top.{i}.mass = {_fmt(mass)}")
    if g.negative_on_range():
        threshold = _flat_threshold(cfg, grid, op, delta)
        lines.append(f"flat.threshold = {_fmt(threshold)}")
        ok = flat.max_mass <= threshold
        lines.append(f"flat.ok = {ok}")
        if not ok:
            failures.append(
                f"flat-region mass {flat.max_mass:.6g} exceeds {threshold:.6g}")
    else:
        lines.append("flat.ok = not-applicable (profile not negative)")

    band = cfg.diagnose_band if cfg.diagnose_band is not None \
        else max(2 * grid.h, 0.1)
    try:
        grad_min = boundary_gradient_min(u, band)
        lines.append(f"gradient.band = {_fmt(band)}")
        lines.append(f"gradient.min = {_fmt(grad_min)}")
    except InvalidParameterError as err:
        lines.append(f"gradient.skipped = {err}")

    if isinstance(grid.descriptor, (BallDescriptor, AnnulusDescriptor)):
        eps0 = cfg.diagnose_eps0
        if eps0 is None:
            if isinstance(grid.descriptor, BallDescriptor):
                eps0 = grid.descriptor.radius / 2
            else:
                eps0 = (grid.descriptor.r_outer - grid.descriptor.r_inner) / 4
        barrier = barrier_comparison_check(u, eps0, op)
        lines.append(f"barrier.eps0 = {_fmt(barrier.eps0)}")
        lines.append(f"barrier.c0 = {_fmt(barrier.c0)}")
        lines.append(f"barrier.tol = {_fmt(barrier.tol)}")
        lines.append(f"barrier.min_grad_band = {_fmt(barrier.min_grad_band)}")
        lines.append(f"barrier.points = {len(barrier.points)}")
        lines.append(f"barrier.passed = {barrier.passed}")
        lines.append(f"barrier.hypothesis_ok = {barrier.hypothesis_ok}")
        for i, p in enumerate(barrier.points):
            lines.append(f"barrier.point.{i}.min_slack = {_fmt(p.min_slack)}")
            lines.append(f"barrier.point.{i}.ok = {p.ok}")
        if not barrier.passed:
            failures.append("barrier comparison failed at a sampled point")
    else:
        lines.append("barrier.skipped = box domains have no inner ball condition")

    table = "\n".join(lines) + "\n"
    if cfg.out_report:
        atomic_write(cfg.out_report, table)
    for ln in lines:
        print("diagnose:", ln)
    if failures:
        for f in failures:
            print("diagnose: FAIL:", f, file=sys.stderr)
        return 3
    return 0


def _flat_threshold(cfg: RunConfig, grid: Grid, op: EllipticOperator,
                    delta: float) -> float:
    """Vanishing threshold for near-flat mass, calibrated on the closed form
    where one exists (ball), with a coarse fallback elsewhere."""
    if isinstance(grid.descriptor, BallDescriptor):
        exact = exact_ball_solution(grid.descriptor.center,
                                    grid.descriptor.radius, grid.n, op)
        ref = flat_region_detector(exact.sample(grid), delta)
        return 1.5 * ref.max_mass + grid.cell
    return 0.05 * domain_measure(grid)


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levelpde",
        description="Nonlocal superlevel-measure Dirichlet solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify-ball", "study", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a section.key = value config file")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock data in the report artifact")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 4

    dispatch = {
        "solve": cmd_solve,
        "verify-ball": cmd_verify_ball,
        "study": cmd_study,
        "diagnose": cmd_diagnose,
    }
    try:
        cfg = parse_config(text)
        return dispatch[args.command](cfg, timings=args.timings)
    except ConfigError as err:
        print(f"error: invalid configuration:\n{err}", file=sys.stderr)
        return 1
    except (InvalidParameterError, PreconditionError) as err:
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
