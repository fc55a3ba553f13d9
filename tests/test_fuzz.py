"""Property tests of the two text inputs: a config text either parses or
raises ConfigError, and a field dump either loads or raises
InvalidParameterError; no other exception may escape.

Numbers are drawn small (|x| <= 2, h >= 1/16) or absurd (non-finite,
negative, 1e300, 1e-300), so every lattice the parser builds is either small or one
that numpy refuses outright, never one it would allocate.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levelpde.cli import _KNOWN_KEYS, RunConfig, format_field, load_field, parse_config
from levelpde.errors import ConfigError, InvalidParameterError
from levelpde.geometry import build_ball
from levelpde.measure import ScalarField

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
def configs(draw):
    """A valid config with up to three values replaced or dropped and random
    lines appended, so that both parsing configs and rejected ones are
    drawn."""
    base = dict(BASE)
    for key in draw(st.lists(st.sampled_from(sorted(BASE)), max_size=3, unique=True)):
        base[key] = draw(st.one_of(st.none(), SPACING if key == "grid.h" else VALUE))
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    return "\n".join(lines + draw(st.lists(config_lines(), max_size=4)))


@settings(max_examples=200, deadline=None)
@given(configs())
def test_parse_config_raises_only_config_errors(text):
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError:
        pass


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
