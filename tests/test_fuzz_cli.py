"""Mutated fixtures through the CLI entry point: every run ends in a
documented exit code, and every failure in exactly one JSON line on stderr."""

import copy
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from conftest import FIXTURES
from plate_homog.app import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECS = {p.name: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
EXIT_CODES = {0, 2, 3, 4, 5}
OTHER_TYPES = ("x", [1, 2], {}, {"a": 1}, 1.5, 3, None, True)
SETTINGS_VALUES = ([1, 2], "x", 3, None, {}, {"tol": math.nan}, {"tol": "abc"},
                   {"periods": [2, -1]}, {"periods": [math.inf]}, {"x3_samples": math.inf},
                   {"oracle_loads": -2}, {"check_tol": [1e-8]})


def _nodes(obj, path=()):
    """Every ``(path, value)`` of a JSON tree, the root included."""
    yield path, obj
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _with(spec, path, value):
    """A copy of ``spec`` with ``value`` at ``path``."""
    spec = copy.deepcopy(spec)
    _at(spec, path[:-1])[path[-1]] = value
    return spec


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@st.composite
def mutated_specs(draw):
    """A fixture with one mutation: drop a key, swap a value's type, insert a
    NaN or inf, break a list's shape, make an integer negative, or give it
    a malformed ``settings`` value.  Returns ``(fixture name, spec, mutated
    key path)``, the dropped key's path for a drop."""
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = copy.deepcopy(SPECS[name])
    nodes = list(_nodes(spec))
    targets = {
        "drop": [p for p, v in nodes if isinstance(v, dict) and v],
        "swap": [p for p, _ in nodes if p],
        "nonfinite": [p for p, v in nodes if _is_number(v)],
        "shape": [p for p, v in nodes if isinstance(v, list) and v],
        "negative": [p for p, v in nodes if _is_number(v) and float(v).is_integer()],
        "settings": [()],
    }
    kind = draw(st.sampled_from([k for k, paths in targets.items() if paths]))
    if kind == "settings":
        spec["settings"] = draw(st.sampled_from(SETTINGS_VALUES))
        return name, spec, ("settings",)
    path = draw(st.sampled_from(targets[kind]))
    value = _at(spec, path)
    if kind == "drop":
        key = draw(st.sampled_from(sorted(value)))
        del value[key]
        return name, spec, path + (key,)
    if kind == "swap":
        new = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif kind == "nonfinite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "shape":
        new = draw(st.sampled_from([value[:-1], value + value[-1:], [value], []]))
    else:
        new = -max(1, abs(int(value)))
    _at(spec, path[:-1])[path[-1]] = new
    return name, spec, path


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_specs())
@example(("reduce_isotropic.json", {**SPECS["reduce_isotropic.json"], "settings": [1, 2]},
          ("settings",)))
@example(("energy_cylinder.json", {**SPECS["energy_cylinder.json"], "settings": "x"},
          ("settings",)))
@example(("energy_cylinder.json", {**SPECS["energy_cylinder.json"],
                                   "surface": {"kind": "cylinder", "radius": 1.0,
                                               "extent": [math.nan, 1.0]}}, ("surface",)))
@example(("energy_cylinder.json", {**SPECS["energy_cylinder.json"],
                                   "surface": {"kind": "cylinder", "radius": 1.0,
                                               "extent": [1e308, 1e308]}}, ("surface",)))
@example(("bending_bilayer.json", _with(SPECS["bending_bilayer.json"],
                                        ("material", "layers", 0, "form", 0, 0), None),
          ("material", "layers", 0, "form", 0, 0)))
@example(("homog_regime1_laminate.json", _with(SPECS["homog_regime1_laminate.json"],
                                               ("material", "mu_grid", 0), None),
          ("material", "mu_grid", 0)))
def test_mutated_fixture_ends_in_a_documented_exit_code(capsys, mutated):
    name, spec, mutated_path = mutated
    command = SPECS[name]["command"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / name
        path.write_text(json.dumps(spec))
        rc = main([command, "--spec", str(path), "--out", str(Path(tmp) / "out")])
    out, err = capsys.readouterr()
    assert rc in EXIT_CODES
    if rc == 0:
        # strict JSON: a NaN or an Infinity in the status line breaks its readers
        status = json.loads(out.strip().splitlines()[-1], parse_constant=_refuse_constant)
        assert status["status"] == "ok" and not caught, [str(w.message) for w in caught]
        return
    lines = err.strip().splitlines()
    assert len(lines) == 1 and not caught, (err, [str(w.message) for w in caught])
    payload = json.loads(lines[0])
    assert payload["exit_code"] == rc
    if rc == 2:
        assert str(path) in payload["message"]
        # a key path under the file, led by the mutated path's first key
        assert re.match(re.escape(f"{path}.{mutated_path[0]}") + r"[.\[:]", payload["message"]), (
            mutated_path, payload["message"])
