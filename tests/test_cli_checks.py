"""The command-line checks, one table row each: a spec (a fixture, or one built
here), the command line, the exit code and what the outputs must show.

A row runs ``app.main`` in this process, except where it needs a fresh one:
the rows that list the modules a run loads, and the rows whose stdout cannot
be written.  Every failing row ends in exactly one JSON line on stderr that
carries its exit code.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import plate_homog
from conftest import FIXTURES
from plate_homog.app import main

SRC = str(Path(plate_homog.__file__).parent.parent)

# Runs ``app.main`` on the arguments and prints every loaded module as the
# last line of stdout.
LIST_MODULES = """
import json, sys
from plate_homog.app import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
raise SystemExit(rc)
"""


@dataclass
class Run:
    """What a row's run left: its spec file, output directory, exit code, the
    status line or the error line, and (fresh rows only) the loaded modules."""

    spec: Path
    out: Path
    rc: int
    status: dict | None = None
    error: dict | None = None
    modules: list | None = None

    def report(self, name: str) -> dict:
        return json.loads((self.out / name).read_text())


@dataclass(frozen=True)
class Row:
    id: str
    command: str
    spec: str | Callable[[], dict]      # a fixture name, or a builder of the spec
    code: int = 0
    args: tuple = ()
    check: Callable[[Run], None] | None = None
    fresh: str | None = None            # "modules", "dev-full" or "closed-pipe"


# --- specs -----------------------------------------------------------------

def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def _scenario(command: str, material: dict, **extra) -> dict:
    return {"convention": "mandel-sqrt2", "command": command, **extra, "material": material}


def malformed_mu() -> dict:
    return _scenario("reduce", {"kind": "isotropic", "mu": "soft", "lambda": 1.0})


def asymmetric_fiber() -> dict:
    bad = np.eye(6)
    bad[0, 1] = 5.0
    return _scenario("homog-regime2", {
        "kind": "slab-cells", "x3_grid": 2, "inplane_grid": [1, 1], "fiber_grid": 4,
        "fibers": [[bad.tolist()] + [np.eye(6).tolist()] * 3], "fiber_index": [0, 0]})


def nan_extent() -> dict:
    spec = _fixture("energy_cylinder.json")
    spec["surface"]["extent"] = [math.nan, 1.0]
    return spec


def null_form() -> dict:
    spec = _fixture("bending_bilayer.json")
    spec["material"]["layers"][0]["form"][0][0] = None
    return spec


def separable_slab(lambda2_entry) -> Callable[[], dict]:
    """The regime-2 laminate fixture with no bounds and ``lambda2[1]`` replaced."""
    def build():
        spec = _fixture("homog_regime2_laminate.json")
        del spec["material"]["bounds"]
        spec["material"]["lambda2"][1] = lambda2_entry
        return spec
    return build


def material_value(fixture: str, key: str, value) -> Callable[[], dict]:
    """The fixture ``fixture`` with its material's ``key`` set to ``value``."""
    def build():
        spec = _fixture(fixture)
        spec["material"][key] = value
        return spec
    return build


def overflowing_schur() -> dict:
    # out-of-plane diagonal 1e-200, coupling 1e150: symmetric, Schur complement overflows
    m = [[float(i == j) for j in range(6)] for i in range(6)]
    m[2][2] = m[3][3] = m[4][4] = 1e-200
    m[0][2] = m[2][0] = 1e150
    return _scenario("reduce", {"kind": "form3", "matrix": m})


def out_of_bounds_cell() -> dict:
    # a 2x2x2 cell whose eighth mu is 3, outside bounds (0.5, 4)
    return _scenario("oracle-check", {
        "kind": "isotropic-field", "grid": [2, 2, 2], "mu_grid": [1.0] * 7 + [3.0],
        "lambda_grid": [0.0] * 8, "bounds": {"eta1": 0.5, "eta2": 4.0}})


def slab_outside_its_bounds() -> dict:
    return _scenario("homog-regime1", {
        "kind": "slab", "x3_grid": 2, "inplane_grid": [1, 1], "fiber_grid": 2, "lambda1": 1.0,
        "lambda2": [1.0, 2.0], "mu": 1.0, "bounds": {"eta1": 5.0, "eta2": 6.0}})


def column() -> dict:
    # a two-phase 6^3 column, constant along x3, 27 of its 36 cells on the soft law
    mu = [30.0 if 1 <= i < 4 and 2 <= j < 5 else 1.0
          for i in range(6) for j in range(6) for _ in range(6)]
    return _scenario("homog-regime1", {
        "kind": "isotropic-field", "grid": [6, 6, 6], "mu_grid": mu,
        "lambda_grid": [1.5 * m for m in mu]}, name="column")


def box(ulp: bool) -> Callable[[], dict]:
    """A two-phase 6^3 cube box, inclusion 3x3x3 at offsets (1, 2, 0), with its
    last mu one ulp up when ``ulp``."""
    def build():
        mu = [30.0 if 1 <= i < 4 and 2 <= j < 5 and k < 3 else 1.0
              for i in range(6) for j in range(6) for k in range(6)]
        lam = [1.5 * m for m in mu]
        if ulp:
            mu[-1] = math.nextafter(mu[-1], math.inf)
        return _scenario("homog-regime1", {
            "kind": "isotropic-field", "grid": [6, 6, 6], "mu_grid": mu, "lambda_grid": lam},
            name="box-ulp" if ulp else "box")
    return build


def two_phase_slab(command: str, name: str, n: int, n3: int, lambda2: list) -> Callable[[], dict]:
    """A separable slab, ``lambda1`` 3 on the (n/2)^2 corner columns and 1 elsewhere."""
    def build():
        lam1 = [[[3.0 if i < n // 2 and j < n // 2 else 1.0] * n3 for j in range(n)]
                for i in range(n)]
        return _scenario(command, {
            "kind": "slab", "x3_grid": n3, "inplane_grid": [n, n], "fiber_grid": len(lambda2),
            "lambda1": lam1, "lambda2": lambda2, "mu": 0.5}, name=name)
    return build


def stacked_slab(command: str) -> Callable[[], dict]:
    """3 random anisotropic fibers over 3x3x2 cells as c % 3 of the flat index
    c = 6i + 2j + k, which does not vary along y1."""
    def build():
        a = np.random.default_rng(7).standard_normal((3, 2, 6, 6))
        fibers = np.eye(6) + 0.1 * (a + a.swapaxes(2, 3))
        return _scenario(command, {
            "kind": "slab-cells", "x3_grid": 2, "inplane_grid": [3, 3], "fiber_grid": 2,
            "fibers": fibers.tolist(), "fiber_index": [c % 3 for c in range(18)]},
            name="stacked-slab")
    return build


def cell_16() -> dict:
    return _scenario("oracle-check", {
        "kind": "isotropic-field", "grid": [16, 16, 16], "mu_grid": [1.0] * 4096,
        "lambda_grid": [0.0] * 4096}, settings={"x3_samples": 8})


# --- checks ----------------------------------------------------------------

def message_names(key: str) -> Callable[[Run], None]:
    """The error message starts with the spec file's key path ``key``."""
    def check(run):
        assert run.error["message"].startswith(f"{run.spec}{key}: "), run.error
    return check


def message_starts(prefix: str) -> Callable[[Run], None]:
    def check(run):
        assert run.error["message"].startswith(prefix), run.error
    return check


def loads_none_of(*names: str) -> Callable[[Run], None]:
    """No loaded module is one of ``names`` or inside one of them."""
    def check(run):
        loaded = [m for m in run.modules
                  if any(m == n or m.startswith(n + ".") for n in names)]
        assert not loaded, loaded
    return check


def sweep_summary_names_both_artifacts(run):
    with open(run.out / "regimes-summary.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 and all(r["artifact"] for r in rows), rows


def sweep_scenarios_take_the_tol(run):
    settings = [run.report(f"{name}-report.json")["settings"]
                for name in ("laminate-r1", "laminate-r2")]
    assert all(s["tol"] == 1e-12 for s in settings), settings


def column_solves_one_layer(run):
    d = run.report("column-report.json")["diagnostics"]
    assert (d["grid"], d["solve_grid"], d["preconditioner"]) == (
        [6, 6, 6], [6, 6, 1], "fft-reference-majority"), d
    assert [s["load"] for s in d["solves"] if "from" in s] == [1, 4], d["solves"]


def box_mirrors_four_loads(run):
    d = run.report("box-report.json")["diagnostics"]
    mirrored = [s for s in d["solves"] if "from" in s]
    assert d["solve_grid"] == [6, 6, 6] and len(mirrored) == 4, d["solves"]
    assert all(s["iterations"] == 0 for s in mirrored), d["solves"]


def box_ulp_mirrors_none(run):
    d = run.report("box-ulp-report.json")["diagnostics"]
    assert not any("from" in s for s in d["solves"]), d["solves"]
    assert all(s["iterations"] > 0 for s in d["solves"]), d["solves"]


def preconditioner(name: str, form: str) -> Callable[[Run], None]:
    def check(run):
        d = run.report(f"{name}-report.json")["diagnostics"]
        assert (d["preconditioner_form"], d["preconditioner"]) == (
            form, "fft-reference-majority"), d
    return check


def stacked_on_a_cut_grid(run):
    d = run.report("stacked-slab-report.json")["diagnostics"]
    assert (d["stiffness"], d["solve_grid"]) == ("stacked", [1, 3, 2]), d


def oracle_passed(run):
    r = run.report("slab-8x8x4-oracle-check.json")
    assert r["passed"] is True, r


def status_line_refused(run):
    assert run.error["error"] == "SpecFormatError", run.error
    assert run.error["message"].startswith("stdout: cannot write the status line: "), run.error


# --- the table -------------------------------------------------------------

ROWS = [
    Row("regime2-fixture", "homog-regime2", "homog_regime2_laminate.json"),
    Row("regime1-fixture", "homog-regime1", "homog_regime1_laminate.json"),
    Row("oracle-fixture", "oracle-check", "oracle_check_cell.json"),
    # the dense oracle factors with numpy alone and its probe loads are a table
    Row("oracle-check-loads-no-scipy-or-random", "oracle-check", "oracle_check_cell.json",
        check=loads_none_of("scipy", "numpy.random"), fresh="modules"),
    Row("malformed-mu", "reduce", malformed_mu, code=2),
    # a bad argument: one JSON line, no usage text
    Row("bad-argument", "reduce", "reduce_isotropic.json", code=2, args=("--tol", "abc")),
    Row("asymmetric-fiber", "homog-regime2", asymmetric_fiber, code=3),
    # no "energy": NaN in a report
    Row("nan-extent", "energy", nan_extent, code=2),
    # named by the form's own key path, not by the file alone
    Row("null-form-entry", "bending", null_form, code=2,
        check=message_names(".material.layers[0].form")),
    # named by its key, not exit 3 from bounds inferred from NaN laws
    Row("nan-lambda2", "homog-regime2", separable_slab(math.nan), code=2,
        check=message_names(".material.lambda2")),
    # a sign refused under its own key, not under the material's
    Row("negative-lambda2", "homog-regime2", separable_slab(-2.0), code=2,
        check=message_names(".material.lambda2")),
    # a cell modulus, slab scale, layer weight or fiber id is refused under its own key
    Row("negative-mu-grid", "homog-regime1",
        material_value("homog_regime1_laminate.json", "mu_grid", [-1.0, 2.0]), code=2,
        check=message_names(".material.mu_grid")),
    Row("negative-lambda-grid", "homog-regime1",
        material_value("homog_regime1_laminate.json", "lambda_grid", [-1.0, 0.0]), code=2,
        check=message_names(".material.lambda_grid")),
    Row("nan-mu-grid", "homog-regime1",
        material_value("homog_regime1_laminate.json", "mu_grid", [math.nan, 1.5]), code=2,
        check=message_names(".material.mu_grid")),
    Row("infinite-lambda-grid", "homog-regime1",
        material_value("homog_regime1_laminate.json", "lambda_grid", [math.inf, 0.0]), code=2,
        check=message_names(".material.lambda_grid")),
    Row("nan-scale", "homog-regime2",
        material_value("homog_regime2_cells.json", "scale", [math.nan] + [1.0] * 7), code=2,
        check=message_names(".material.scale")),
    # read like a non-positive lambda1, not as an inadmissible material (exit 3)
    Row("negative-scale", "homog-regime2",
        material_value("homog_regime2_cells.json", "scale", [-1.0] + [1.0] * 7), code=2,
        check=message_names(".material.scale")),
    Row("weights-not-summing-to-one", "homog-regime2",
        material_value("homog_regime2_cells.json", "weights", [0.3, 0.3]), code=2,
        check=message_names(".material.weights")),
    Row("fiber-index-out-of-range", "homog-regime2",
        material_value("homog_regime2_cells.json", "fiber_index", [0] * 7 + [2]), code=2,
        check=message_names(".material.fiber_index")),
    # no warning or traceback
    Row("overflowing-schur", "reduce", overflowing_schur, code=3),
    # a sweep runs its scenarios in order
    Row("sweep-summary", "sweep", "sweep_regimes.json", check=sweep_summary_names_both_artifacts),
    Row("sweep-tol", "sweep", "sweep_regimes.json", args=("--tol", "1e-12"),
        check=sweep_scenarios_take_the_tol),
    # named by the cell, from the check that runs when the material is built
    Row("out-of-bounds-cell", "oracle-check", out_of_bounds_cell, code=3,
        check=message_starts("cell sample 7 violates upper bound")),
    # refused by its kind, before its bounds are checked
    Row("slab-sent-to-regime1", "homog-regime1", slab_outside_its_bounds, code=2),
    Row("thickness-command-loads-no-solver", "reduce", "reduce_isotropic.json",
        check=loads_none_of("scipy", *(f"plate_homog.{s}"
                                       for s in ("fem", "homog3d", "homogslab", "oracle"))),
        fresh="modules"),
    Row("column", "homog-regime1", column, check=column_solves_one_layer),
    Row("cube-box", "homog-regime1", box(ulp=False), check=box_mirrors_four_loads),
    Row("cube-box-one-ulp-off", "homog-regime1", box(ulp=True), check=box_ulp_mirrors_none),
    # its stored inverse would take 7.2 MB, so it sweeps
    Row("deep-slab", "homog-regime2", two_phase_slab("homog-regime2", "deep-slab", 24, 12,
                                                     [1.0, 2.0]),
        check=preconditioner("deep-slab", "slab-sweep")),
    # its stored inverse takes 0.67 MiB, so it is applied dense
    Row("dense-slab", "homog-regime2", two_phase_slab("homog-regime2", "dense-slab", 10, 8,
                                                      [1.0, 2.0]),
        check=preconditioner("dense-slab", "slab-dense")),
    # 3 laws on 6 cells of a 1x3x2 cut grid: too few cells per law to group
    Row("stacked-slab-regime2", "homog-regime2", stacked_slab("homog-regime2"),
        check=stacked_on_a_cut_grid),
    Row("stacked-slab-oracle", "oracle-check", stacked_slab("oracle-check")),
    # 19,395 unknowns, condensed onto a border of 960
    Row("slab-8x8x4-oracle", "oracle-check",
        two_phase_slab("oracle-check", "slab-8x8x4", 8, 4, [1.0, 2.0, 1.5, 3.0]),
        check=oracle_passed),
    # one node's block of 12,288 unknowns is over the oracle's cap, refused first
    Row("cell-16-over-the-cap", "oracle-check", cell_16, code=5),
    # the status line cannot be written: refused like an unwritable --out
    Row("status-line-to-a-full-device", "reduce", "reduce_isotropic.json", code=2,
        check=status_line_refused, fresh="dev-full"),
    Row("status-line-to-a-closed-pipe", "reduce", "reduce_isotropic.json", code=2,
        check=status_line_refused, fresh="closed-pipe"),
]


def _run_fresh(row: Row, argv: list) -> tuple:
    """Exit code, stdout and stderr of ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if row.fresh == "modules":
        proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    cmd = [sys.executable, "-m", "plate_homog", *argv]
    if row.fresh == "dev-full":
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        return proc.returncode, "", proc.stderr
    # a pipe whose read end is closed before the run starts
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(cmd, env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write)
    return proc.returncode, "", proc.stderr


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_cli_row(row, tmp_path, capsys):
    if isinstance(row.spec, str):
        spec = FIXTURES / row.spec
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(row.spec()))
    out = tmp_path / "out"
    argv = [row.command, "--spec", str(spec), "--out", str(out), *row.args]
    if row.fresh:
        rc, stdout, stderr = _run_fresh(row, argv)
    else:
        rc = main(argv)
        stdout, stderr = capsys.readouterr()
    run = Run(spec=spec, out=out, rc=rc)
    assert rc == row.code, stderr
    if rc == 0:
        lines = stdout.strip().splitlines()
        if row.fresh == "modules":
            run.modules = json.loads(lines.pop())
        run.status = json.loads(lines[-1])
        assert run.status["status"] == "ok", run.status
    else:
        lines = stderr.strip().splitlines()
        assert len(lines) == 1, lines
        run.error = json.loads(lines[0])
        assert run.error["exit_code"] == rc, run.error
    if row.check is not None:
        row.check(run)
