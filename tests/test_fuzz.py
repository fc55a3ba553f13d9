"""Property tests of the input paths: a config text either parses or
raises ConfigError, a field dump either loads or raises
InvalidParameterError, the Python API's grid builders and boundary data
either give a value or raise a LevelPDEError, and solver settings either
raise InvalidParameterError or give a solve report; no other exception may
escape.

Numbers are drawn small (|x| <= 2, h >= 1/16 for configs; extents <= 4,
h >= 1/64, h >= 1/4 in 3-D, for builders) or absurd (non-finite, negative,
1e300, 1e-300, tiny gaps), so every lattice built is either small or one
that numpy refuses outright, never one it would allocate.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levelpde.cli import _KNOWN_KEYS, RunConfig, format_field, load_field, parse_config
from levelpde.elliptic import EllipticOperator
from levelpde.errors import ConfigError, InvalidParameterError, LevelPDEError
from levelpde.geometry import (BoundaryData, Grid, build_annulus, build_ball,
                               build_box, build_trace, domain_measure)
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
    key = draw(st.one_of(st.sampled_from(sorted(_KNOWN_KEYS)),
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
                assert line is None and key in _KNOWN_KEYS


def _dump_lines() -> list[str]:
    grid = build_ball((0.0, 0.0), 1.0, 0.4)
    field = ScalarField.from_interior(grid, np.linspace(0, 1, grid.n_interior))
    return format_field(field).splitlines()


DUMP = _dump_lines()
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
            loaded = load_field(path)
        except InvalidParameterError:
            return
    assert loaded.values.size == int(np.prod(loaded.shape))


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
    assert np.all(np.isfinite(trace.all_values()))


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
