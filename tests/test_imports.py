"""The import graph follows the command: each CLI run, in a fresh
interpreter, loads only the layers it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plate_homog
from conftest import FIXTURES

SRC = str(Path(plate_homog.__file__).parent.parent)
SOLVERS = ("plate_homog.fem", "plate_homog.homog3d", "plate_homog.homogslab",
           "plate_homog.oracle")
HEAVY = SOLVERS + ("scipy", "concurrent.futures")

# Runs ``app.main`` on the arguments and prints its exit code and every
# loaded module as the last line of stdout.
RUN_MAIN = """
import json, sys
from plate_homog.app import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _run(code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _main(tmp_path, command, spec) -> dict:
    return _run(RUN_MAIN, command, "--spec", str(spec), "--out", str(tmp_path / "out"))


def _spec(tmp_path, command, material, settings=None) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"convention": "mandel-sqrt2", "command": command,
                                "material": material, "settings": settings or {}}))
    return path


@pytest.mark.parametrize("command, fixture", [
    ("reduce", "reduce_isotropic.json"),
    ("bending", "bending_bilayer.json"),
    ("oscillate", "oscillate_twophase.json"),
    ("energy", "energy_cylinder.json"),
])
def test_thickness_commands_load_no_solver(tmp_path, command, fixture):
    out = _main(tmp_path, command, FIXTURES / fixture)
    assert out["rc"] == 0
    assert not set(HEAVY) & set(out["modules"])


FIELD = {"kind": "isotropic-field", "grid": [1, 1, 2], "mu_grid": [0.5, 1.5],
         "lambda_grid": [0.0, 0.0]}
SLAB = {"kind": "slab", "x3_grid": 2, "inplane_grid": [1, 1], "fiber_grid": 2, "lambda1": 1.0,
        "lambda2": [1.0, 2.0], "mu": 1.0}


@pytest.mark.parametrize("command, material, settings", [
    pytest.param("reduce", {"kind": "form3", "matrix": [[float("nan")] * 6] * 6}, None,
                 id="form3-nan"),
    pytest.param("reduce", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}, {"tol": "abc"},
                 id="tol-string"),
    pytest.param("homog-regime1", dict(FIELD, mu_grid=["x", 1.5]), None, id="mu-grid-string"),
    pytest.param("homog-regime1", dict(FIELD, grid="ab"), None, id="grid-string"),
    pytest.param("homog-regime1", dict(FIELD, kind="cell"), None, id="cell-no-forms"),
    pytest.param("homog-regime2", dict(SLAB, mu="soft"), None, id="slab-mu-string"),
    pytest.param("oracle-check", dict(SLAB, x3_grid=2.5), None, id="x3-grid-fraction"),
    pytest.param("homog-regime1", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}, None,
                 id="wrong-material-type"),
    # a slab outside its bounds, sent to the cell command: refused by its kind
    # before the slab reader or check runs
    pytest.param("homog-regime1", dict(SLAB, bounds={"eta1": 5.0, "eta2": 6.0}), None,
                 id="out-of-bounds-slab-to-regime1"),
])
def test_spec_refused_while_read_loads_no_solver(tmp_path, command, material, settings):
    out = _main(tmp_path, command, _spec(tmp_path, command, material, settings))
    assert out["rc"] == 2
    assert not set(HEAVY) & set(out["modules"])


@pytest.mark.parametrize("args", [["reduce", "--tol", "abc"], ["nope"],
                                  ["homog-regime1", "--grid", "0,0,0"]])
def test_argument_error_loads_no_solver(tmp_path, args):
    spec = ["--spec", str(FIXTURES / "homog_regime1_laminate.json"), "--out", str(tmp_path)]
    out = _run(RUN_MAIN, *(args + spec))
    assert out["rc"] == 2
    assert not set(HEAVY) & set(out["modules"])


def test_sweep_loads_no_thread_pool(tmp_path):
    out = _main(tmp_path, "sweep", FIXTURES / "sweep_regimes.json")
    assert out["rc"] == 0
    assert "concurrent.futures" not in out["modules"]


def test_regime2_loads_no_cell_pipeline_or_oracle(tmp_path):
    out = _main(tmp_path, "homog-regime2", FIXTURES / "homog_regime2_laminate.json")
    assert out["rc"] == 0
    assert {"plate_homog.fem", "plate_homog.homogslab"} <= set(out["modules"])
    assert not {"plate_homog.homog3d", "plate_homog.oracle", "scipy"} & set(out["modules"])


@pytest.mark.parametrize("command, fixture, name", [
    ("homog-regime1", "homog_regime1_laminate.json", "laminate-r1"),
    ("homog-regime2", "homog_regime2_laminate.json", "laminate-r2"),
])
def test_axis_symmetries_load_no_numpy_random(tmp_path, command, fixture, name):
    # its first import raised the peak memory of a process by 6.4 MiB; both
    # laminates mirror two of their loads, so the symmetries were looked for
    out = _main(tmp_path, command, FIXTURES / fixture)
    assert out["rc"] == 0
    assert "numpy.random" not in out["modules"]
    report = json.loads((tmp_path / "out" / f"{name}-report.json").read_text())
    assert sum("from" in s for s in report["diagnostics"]["solves"]) == 2


@pytest.mark.parametrize("spec", [
    pytest.param(FIXTURES / "oracle_check_cell.json", id="cell-fixture"),
    pytest.param(None, id="slab"),
])
def test_oracle_check_loads_no_scipy(tmp_path, spec):
    # the dense oracle factors with numpy alone, and the probe loads are a table
    if spec is None:
        spec = _spec(tmp_path, "oracle-check", SLAB)
    out = _main(tmp_path, "oracle-check", spec)
    assert out["rc"] == 0
    assert "plate_homog.oracle" in out["modules"]
    assert not [m for m in out["modules"] if m.split(".")[0] == "scipy"]
    assert "numpy.random" not in out["modules"]


def test_package_import_is_light_and_star_import_resolves_all():
    code = """
import json, sys
import plate_homog
light = sorted(sys.modules)
ns = {}
exec("from plate_homog import *", ns)
print(json.dumps({"light": light, "missing": sorted(set(plate_homog.__all__) - set(ns)),
                  "extra": sorted(set(ns) - set(plate_homog.__all__) - {"__builtins__"})}))
"""
    out = _run(code)
    assert not set(HEAVY) & set(out["light"])
    assert out["missing"] == [] and out["extra"] == []


def test_lazy_names_are_the_defining_objects():
    from plate_homog import app, fem, homog3d, homogslab, oracle, reduction

    assert plate_homog.bending_form_regime1 is homog3d.bending_form_regime1
    # one corrector class under both regimes' names
    assert plate_homog.CorrectorField3 is plate_homog.SlabCorrector is fem.CorrectorField
    assert plate_homog.SlabMaterial is homogslab.SlabMaterial
    assert plate_homog.laminate_closed_form is oracle.laminate_closed_form
    assert plate_homog.ThicknessProfile is reduction.ThicknessProfile
    assert plate_homog.parse_material_spec is app.parse_material_spec
    assert set(plate_homog.__all__) <= set(dir(plate_homog))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        plate_homog.no_such_name
    with pytest.raises(ImportError):
        from plate_homog import no_such_name  # noqa: F401
