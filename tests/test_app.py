import csv
import json
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES
from plate_homog import (
    MaterialBounds,
    QuadForm2,
    SolverError,
    SpecFormatError,
    mandel2,
    parse_material_spec,
    plane_stress_reduce,
    plate_energy,
    qf_isotropic,
)
from plate_homog.app import ORACLE_PROBES, SETTING_RANGES, SurfaceSpec, main, run_scenario
from plate_homog.errors import (
    EXIT_ADMISSIBILITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIZE_CAP,
    EXIT_SOLVER,
)
from plate_homog.iojson import CONVENTION, load_json, read_report
from plate_homog.reduction import ThicknessProfile


SLAB_CELLS = json.loads(
    (Path(__file__).parent.parent / "fixtures" / "homog_regime2_cells.json").read_text()
)["material"]
SLAB = {"kind": "slab", "x3_grid": 2, "inplane_grid": [1, 1], "fiber_grid": 2, "lambda1": 1.0,
        "lambda2": [1.0, 2.0], "mu": 1.0}
FIELD = {"kind": "isotropic-field", "grid": [1, 1, 2], "mu_grid": [0.5, 1.5],
         "lambda_grid": [0.0, 0.0]}
PROFILE = {"kind": "profile", "rule": "midpoint",
           "samples": [np.eye(3).tolist(), (2 * np.eye(3)).tolist()]}


ARTIFACT_KEYS = {
    "report": ["convention", "kind", "regime", "matrix", "eigenvalues", "optimal_b",
               "diagnostics", "settings"],
    "reduced": ["convention", "kind", "matrix", "minimizer_map", "settings"],
    "oracle-check": ["convention", "kind", "regime", "max_relative_difference", "tolerance",
                     "passed", "settings"],
    "energy": ["convention", "kind", "surface", "energy", "settings"],
}


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParsing:
    def test_all_fixtures_parse(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            scenario = parse_material_spec(path)
            assert scenario.command

    def test_bilayer_fixture_is_layered_profile(self, fixtures_dir):
        sc = parse_material_spec(fixtures_dir / "bending_bilayer.json")
        assert isinstance(sc.material, ThicknessProfile)
        assert sc.material.rule == "layers"
        assert len(sc.material.forms) == 2

    def test_missing_convention_rejected(self, tmp_path):
        path = write_spec(tmp_path, {"command": "bending", "material": {}})
        with pytest.raises(SpecFormatError, match=re.escape(f"{path}.convention: missing")):
            parse_material_spec(path)

    def test_wrong_convention_rejected(self, tmp_path):
        path = write_spec(tmp_path, {"convention": "voigt", "command": "bending"})
        with pytest.raises(SpecFormatError, match=re.escape(f"{path}.convention: convention")):
            parse_material_spec(path)

    def test_command_mismatch_rejected(self, fixtures_dir):
        path = fixtures_dir / "bending_bilayer.json"
        with pytest.raises(SpecFormatError, match=re.escape(f"{path}.command: file declares")):
            parse_material_spec(path, "reduce")

    def test_oscillate_rejects_gauss_profile(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "convention": CONVENTION,
                "command": "oscillate",
                "material": {"kind": "profile", "rule": "gauss",
                             "samples": [np.eye(3).tolist(), (2 * np.eye(3)).tolist()]},
            },
        )
        with pytest.raises(SpecFormatError):
            parse_material_spec(path)

    def test_unknown_setting_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "convention": CONVENTION,
                "command": "bending",
                "material": {"kind": "profile", "layers": [
                    {"from": -0.5, "to": 0.5, "form": np.eye(3).tolist()}]},
                "settings": {"tolerance": 1e-8},
            },
        )
        with pytest.raises(SpecFormatError):
            parse_material_spec(path)

    def test_zero_eta1_rejected_as_admissibility(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "convention": CONVENTION,
                "command": "homog-regime1",
                "material": {
                    "kind": "isotropic-field",
                    "grid": [1, 1, 1],
                    "mu_grid": [1.0],
                    "lambda_grid": [0.0],
                    "bounds": {"eta1": 0.0, "eta2": 2.0},
                },
            },
        )
        assert main(["homog-regime1", "--spec", str(path), "--out", str(tmp_path)]) == EXIT_ADMISSIBILITY

    def test_out_of_bounds_material_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "convention": CONVENTION,
                "command": "homog-regime1",
                "material": {
                    "kind": "isotropic-field",
                    "grid": [1, 1, 1],
                    "mu_grid": [5.0],
                    "lambda_grid": [0.0],
                    "bounds": {"eta1": 1.0, "eta2": 2.0},
                },
            },
        )
        assert main(["homog-regime1", "--spec", str(path), "--out", str(tmp_path)]) == EXIT_ADMISSIBILITY


class TestPlateEnergy:
    def test_flat_surface_zero(self):
        q0 = QuadForm2(np.eye(3) / 6.0)
        assert plate_energy(q0, SurfaceSpec(kind="flat", extent=(2.0, 3.0))) == 0.0

    def test_homogeneous_cylinder_value(self):
        q0 = QuadForm2(np.eye(3) / 6.0)
        surf = SurfaceSpec(kind="cylinder", extent=(1.0, 1.0), radius=1.0)
        assert plate_energy(q0, surf) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_doubling_radius_quarters_exactly(self):
        rng = np.random.default_rng(60)
        m = rng.uniform(0.5, 2.0, (3, 3))
        q0 = QuadForm2(0.5 * (m + m.T) + 3 * np.eye(3))
        for radius in (0.5, 1.0, 3.7):
            e1 = plate_energy(q0, SurfaceSpec("cylinder", (1.3, 0.7), radius))
            e2 = plate_energy(q0, SurfaceSpec("cylinder", (1.3, 0.7), 2 * radius))
            assert e2 == e1 / 4.0

    def test_sign_of_curvature_irrelevant(self):
        q0 = QuadForm2(np.eye(3) / 6.0)
        surf = SurfaceSpec("cylinder", (1.0, 1.0), 2.0)
        val = plate_energy(q0, surf)
        assert val == pytest.approx(surf.area * q0.eval(np.diag([-1 / 2.0, 0.0])), rel=1e-15)

    def test_surface_validation(self):
        with pytest.raises(SpecFormatError):
            SurfaceSpec(kind="sphere", extent=(1.0, 1.0), radius=1.0)
        with pytest.raises(SpecFormatError):
            SurfaceSpec(kind="cylinder", extent=(1.0, 1.0))
        with pytest.raises(SpecFormatError):
            SurfaceSpec(kind="flat", extent=(0.0, 1.0))
        for extent, radius in (((np.nan, 1.0), 1.0), ((1.0, np.inf), 1.0),
                               ((1.0, 1.0), np.nan), ((1.0, 1.0), np.inf)):
            with pytest.raises(SpecFormatError, match="finite"):
                SurfaceSpec(kind="cylinder", extent=extent, radius=radius)


class TestCommands:
    def test_bending_homogeneous_report(self, fixtures_dir, tmp_path):
        rc = main(["bending", "--spec", str(fixtures_dir / "bending_homogeneous.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = read_report(load_json(tmp_path / "homogeneous-report.json"))
        assert np.allclose(report.form.matrix, 2 * np.eye(3) / 12.0, rtol=1e-14)
        assert np.allclose(report.optimal_b, 0.0, atol=0)

    def test_bending_bilayer_report(self, fixtures_dir, tmp_path):
        rc = main(["bending", "--spec", str(fixtures_dir / "bending_bilayer.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = read_report(load_json(tmp_path / "bilayer-report.json"))
        assert np.allclose(report.form.matrix, (13 / 96) * np.eye(3), rtol=1e-13)

    def test_report_round_trip_bit_exact(self, fixtures_dir, tmp_path):
        main(["bending", "--spec", str(fixtures_dir / "bending_bilayer.json"),
              "--out", str(tmp_path)])
        obj = load_json(tmp_path / "bilayer-report.json")
        report = read_report(obj)
        rewritten = tmp_path / "rewritten.json"
        from plate_homog.iojson import dump_json, report_to_dict

        dump_json({**report_to_dict(report), "settings": obj["settings"]}, rewritten)
        assert rewritten.read_bytes() == (tmp_path / "bilayer-report.json").read_bytes()
        again = read_report(load_json(rewritten))
        assert np.array_equal(report.form.matrix, again.form.matrix)
        assert np.array_equal(report.optimal_b, again.optimal_b)

    def test_oscillate_csv_decreasing(self, fixtures_dir, tmp_path):
        rc = main(["oscillate", "--spec", str(fixtures_dir / "oscillate_twophase.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        with open(tmp_path / "twophase-oscillation.csv") as fh:
            rows = list(csv.DictReader(fh))
        devs = [float(r["frobenius_distance_to_average_limit"]) for r in rows]
        assert [int(r["periods"]) for r in rows] == [1, 2, 4, 8, 16, 32]
        assert all(b <= a + 1e-14 for a, b in zip(devs, devs[1:]))

    def test_regime_pipelines_agree_via_cli(self, fixtures_dir, tmp_path):
        assert main(["homog-regime1", "--spec", str(fixtures_dir / "homog_regime1_laminate.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["homog-regime2", "--spec", str(fixtures_dir / "homog_regime2_laminate.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        r1 = read_report(load_json(tmp_path / "laminate-r1-report.json"))
        r2 = read_report(load_json(tmp_path / "laminate-r2-report.json"))
        assert np.allclose(r1.form.matrix, r2.form.matrix, atol=1e-8)

    def test_reduce_isotropic(self, fixtures_dir, tmp_path):
        rc = main(["reduce", "--spec", str(fixtures_dir / "reduce_isotropic.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = load_json(tmp_path / "isotropic-reduced.json")
        assert out["convention"] == CONVENTION
        m = np.array(out["matrix"])
        # mu=1, lambda=1: in-plane block 2I + (2/3) ones on the trace pair
        expected = 2 * np.eye(3)
        expected[:2, :2] += 2 * 1 / (1 + 2) * np.ones((2, 2))
        assert np.allclose(m, expected, rtol=1e-12)

    def test_energy_command(self, fixtures_dir, tmp_path):
        rc = main(["energy", "--spec", str(fixtures_dir / "energy_cylinder.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = load_json(tmp_path / "cylinder-energy.json")
        assert out["energy"] == pytest.approx(1 / 6.0, rel=1e-15)

    def test_oracle_check_fixture(self, fixtures_dir, tmp_path):
        rc = main(["oracle-check", "--spec", str(fixtures_dir / "oracle_check_cell.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = load_json(tmp_path / "twophase-cell-oracle-check.json")
        assert out["passed"] is True
        assert out["max_relative_difference"] <= 1e-10

    def test_oracle_check_on_a_column_cell(self, tmp_path, monkeypatch):
        # the pipeline solves a contrast-30 column on one layer, the dense oracle
        # solves the full 4^3 grid: it checks the cut independently
        from plate_homog import homog3d, oracle

        reports, solved = [], []
        regime1, solve = homog3d.bending_form_regime1, oracle.DenseProblem.solve

        def recorded(*args, **kwargs):
            reports.append(regime1(*args, **kwargs))
            return reports[-1]

        def counted(self, loads):
            solved.append((self.nborder, self.blocks))
            return solve(self, loads)

        monkeypatch.setattr(homog3d, "bending_form_regime1", recorded)
        monkeypatch.setattr(oracle.DenseProblem, "solve", counted)
        i, j, _ = np.meshgrid(*(np.arange(4),) * 3, indexing="ij")
        mu = np.where((i < 2) & (j >= 1) & (j < 3), 30.0, 1.0)
        spec = {"convention": CONVENTION, "command": "oracle-check", "name": "column",
                "material": {"kind": "isotropic-field", "grid": [4, 4, 4],
                             "mu_grid": mu.ravel().tolist(),
                             "lambda_grid": (1.5 * mu).ravel().tolist()},
                "settings": {"x3_samples": 4}}
        rc = main(["oracle-check", "--spec", str(write_spec(tmp_path, spec)),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        [report] = reports
        assert report.diagnostics["grid"] == [4, 4, 4]
        assert report.diagnostics["solve_grid"] == [4, 4, 1]
        # the mid-plane strain is the border; one block per thickness node holds
        # its fluctuation and its corrector on 64 nodes, one of them grounded
        assert solved == [(3, (4, 3 + 3 * 63))]
        out = load_json(tmp_path / "column-oracle-check.json")
        assert out["passed"] is True and out["tolerance"] == 1e-8

    def test_oracle_probes_are_the_generator_draws(self):
        # a table, so that oracle-check loads no numpy.random: bit for bit the probes
        # it drew, one per oracle_loads up to the largest
        draws = np.random.default_rng(0).standard_normal((15, 2, 2))
        expected = [mandel2(np.eye(2))] + [mandel2(0.5 * (m + m.T)) for m in draws]
        assert len(ORACLE_PROBES) == SETTING_RANGES["oracle_loads"][1]
        assert np.array(ORACLE_PROBES).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("fixture", ["oracle_check_cell.json", "homog_regime2_laminate.json"])
    def test_oracle_check_factors_once(self, fixtures_dir, tmp_path, monkeypatch, fixture):
        from plate_homog import oracle

        calls = []
        solve = oracle.DenseProblem.solve

        def counted(self, loads):
            calls.append(len(loads))
            return solve(self, loads)

        monkeypatch.setattr(oracle.DenseProblem, "solve", counted)
        spec = dict(load_json(fixtures_dir / fixture), command="oracle-check", name="probe",
                    settings={"oracle_loads": 16})
        rc = main(["oracle-check", "--spec", str(write_spec(tmp_path, spec)),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert calls == [16]
        assert load_json(tmp_path / "probe-oracle-check.json")["max_relative_difference"] <= 1e-10

    def test_oracle_block_not_positive_definite_exits_4(self, fixtures_dir, tmp_path,
                                                        monkeypatch, capsys):
        # a problem with an indefinite block: exit 4 and one JSON line naming it
        from plate_homog import oracle

        def indefinite(material, x3_samples):
            E = np.stack([np.diag([2.0, 1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0])])
            return oracle.DenseProblem(nborder=3, blocks=(2, 1),
                                       groups=lambda: [(E, np.zeros(2), np.array([[0, 1, 2]] * 2))])

        monkeypatch.setattr(oracle, "assemble_regime1", indefinite)
        rc = main(["oracle-check", "--spec", str(fixtures_dir / "oracle_check_cell.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER
        [line] = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert (error["error"], error["exit_code"]) == ("SolverError", EXIT_SOLVER)
        assert "block 1 of 2 (1 unknowns) is not positive definite" in error["message"]

    @pytest.mark.parametrize("command, fixture", [
        ("homog-regime1", "homog_regime1_laminate.json"),
        ("homog-regime2", "homog_regime2_cells.json"),
        ("oracle-check", "oracle_check_cell.json"),
        ("oracle-check", "homog_regime2_laminate.json"),
    ])
    def test_material_checked_once(self, fixtures_dir, tmp_path, monkeypatch, command, fixture):
        # the reader builds the material, which checks it; nothing checks it again
        calls = []

        def counted(self, samples, eig, what, *args, _require=MaterialBounds.require, **kwargs):
            calls.append(what)
            return _require(self, samples, eig, what, *args, **kwargs)

        monkeypatch.setattr(MaterialBounds, "require", counted)
        spec = dict(load_json(fixtures_dir / fixture), command=command)
        rc = main([command, "--spec", str(write_spec(tmp_path, spec)), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert calls == ["slab cell {}" if "regime2" in fixture else "cell sample {}"]

    def test_sweep_writes_summary(self, fixtures_dir, tmp_path, monkeypatch):
        from plate_homog import app

        threads = []

        def recorded(*args, _run=app.run_scenario, **kwargs):
            threads.append(threading.get_ident())
            return _run(*args, **kwargs)

        monkeypatch.setattr(app, "run_scenario", recorded)
        rc = main(["sweep", "--spec", str(fixtures_dir / "sweep_regimes.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        # the sweep and each of its two scenarios, all on the calling thread
        assert threads == [threading.get_ident()] * 3
        with open(tmp_path / "regimes-summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["scenario"] for r in rows} == {"laminate-r1", "laminate-r2"}
        for r in rows:
            assert (tmp_path / r["artifact"].split("/")[-1]).exists()

    def test_sweep_survives_a_failed_scenario(self, fixtures_dir, tmp_path, monkeypatch, capsys):
        from plate_homog import homogslab

        def fail(*args, **kwargs):
            raise SolverError("forced failure")

        monkeypatch.setattr(homogslab, "bending_form_regime2", fail)
        rc = main(["sweep", "--spec", str(fixtures_dir / "sweep_regimes.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER
        with open(tmp_path / "regimes-summary.csv") as fh:
            rows = {r["scenario"]: r for r in csv.DictReader(fh)}
        assert rows["laminate-r1"]["artifact"].endswith("laminate-r1-report.json")
        assert (tmp_path / "laminate-r1-report.json").exists()
        assert rows["laminate-r2"]["artifact"] == ""
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["exit_code"] == EXIT_SOLVER
        assert payload["error"] == "SweepError"
        assert "laminate-r2: SolverError (exit 4)" in payload["message"]
        assert "laminate-r1" not in payload["message"]

    def test_sweep_reports_a_scenario_out_of_memory(self, fixtures_dir, tmp_path, monkeypatch,
                                                    capsys):
        from plate_homog import homogslab

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 80.0 GiB")

        monkeypatch.setattr(homogslab, "bending_form_regime2", fail)
        rc = main(["sweep", "--spec", str(fixtures_dir / "sweep_regimes.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SIZE_CAP
        assert (tmp_path / "laminate-r1-report.json").exists()
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "SweepError" and payload["exit_code"] == EXIT_SIZE_CAP
        assert "laminate-r2: SizeCapError (exit 5): out of memory" in payload["message"]

    @pytest.mark.parametrize("fixture", [p.name for p in sorted(FIXTURES.glob("*.json"))])
    def test_artifact_keys_end_with_the_settings(self, fixtures_dir, tmp_path, fixture):
        # every JSON artifact keeps its key order, and its last key is the settings
        # of the scenario that wrote it
        scenario = parse_material_spec(fixtures_dir / fixture)
        result = run_scenario(scenario, tmp_path)
        runs = [(sub, result["scenarios"][sub.name]) for sub in scenario.subs] or [
            (scenario, result)]
        for sc, res in runs:
            artifact = Path(res["artifact"])
            pairs = json.loads(artifact.read_text(), object_pairs_hook=list)
            assert [k for k, _ in pairs] == ARTIFACT_KEYS[artifact.stem[len(sc.name) + 1:]]
            assert pairs[-1] == ("settings", list(sc.settings.items()))

    def test_grid_refinement_override(self, fixtures_dir, tmp_path):
        rc = main(["homog-regime1", "--spec", str(fixtures_dir / "homog_regime1_laminate.json"),
                   "--out", str(tmp_path), "--grid", "2,2,4"])
        assert rc == EXIT_OK
        report = read_report(load_json(tmp_path / "laminate-r1-report.json"))
        assert report.diagnostics["grid"] == [2, 2, 4]
        # stiffness phases 2*mu in {1, 3}: arithmetic in-plane mean is 2
        assert np.allclose(report.form.matrix, (2.0 / 12.0) * np.eye(3), rtol=1e-10)

    def test_quadrature_flag_sets_x3_samples(self, fixtures_dir, tmp_path, capsys):
        rc = main(["bending", "--spec", str(fixtures_dir / "bending_bilayer.json"),
                   "--out", str(tmp_path), "--quadrature", "12"])
        assert rc == EXIT_OK
        settings = load_json(tmp_path / "bilayer-report.json")["settings"]
        assert settings["x3_samples"] == 12
        assert "quadrature" not in settings
        spec = dict(load_json(fixtures_dir / "bending_bilayer.json"), settings={"quadrature": 16})
        rc = main(["bending", "--spec", str(write_spec(tmp_path, spec)), "--out", str(tmp_path)])
        assert rc == EXIT_PARSE
        assert "unknown setting 'quadrature'" in capsys.readouterr().err

    def test_grid_override_needs_nested_multiple(self, fixtures_dir, tmp_path):
        rc = main(["homog-regime1", "--spec", str(fixtures_dir / "homog_regime1_laminate.json"),
                   "--out", str(tmp_path), "--grid", "3,2,2"])
        assert rc == EXIT_PARSE

    def test_tol_flag_sets_the_solver_tol(self, fixtures_dir, tmp_path):
        rc = main(["homog-regime1", "--spec", str(fixtures_dir / "homog_regime1_laminate.json"),
                   "--out", str(tmp_path), "--tol", "1e-12"])
        assert rc == EXIT_OK
        report = load_json(tmp_path / "laminate-r1-report.json")
        assert report["settings"]["tol"] == report["diagnostics"]["tol"] == 1e-12

    def test_sweep_passes_tol_and_quadrature_to_each_scenario(self, fixtures_dir, tmp_path,
                                                              capsys):
        spec = str(fixtures_dir / "sweep_regimes.json")
        rc = main(["sweep", "--spec", spec, "--out", str(tmp_path),
                   "--tol", "1e-12", "--quadrature", "5"])
        assert rc == EXIT_OK
        for name in ("laminate-r1", "laminate-r2"):
            report = load_json(tmp_path / f"{name}-report.json")
            assert report["settings"]["tol"] == report["diagnostics"]["tol"] == 1e-12
            assert report["settings"]["x3_samples"] == 5
        capsys.readouterr()
        # validated as for one scenario, before anything runs
        out = tmp_path / "refused"
        assert main(["sweep", "--spec", spec, "--out", str(out), "--tol", "1"]) == EXIT_PARSE
        assert error_line(capsys)["message"].startswith("overrides.settings: setting tol=1.0 ")
        assert not out.exists()

    def test_reduce_profile(self, tmp_path, capsys):
        forms = [qf_isotropic(1.0, 0.5), qf_isotropic(2.0, 0.0)]
        path = write_spec(tmp_path, {
            "convention": CONVENTION, "command": "reduce", "name": "layers",
            "material": {"kind": "profile", "rule": "midpoint",
                         "samples": [q.matrix.tolist() for q in forms]}})
        assert main(["reduce", "--spec", str(path), "--out", str(tmp_path)]) == EXIT_OK
        artifact = tmp_path / "layers-reduced-profile.json"
        assert json.loads(capsys.readouterr().out)["artifact"] == str(artifact)
        reduced = load_json(artifact)
        assert (reduced["kind"], reduced["rule"]) == ("profile", "midpoint")
        assert reduced["samples"] == [plane_stress_reduce(q)[0].matrix.tolist() for q in forms]

    def test_unnamed_sweep_entries_are_named_by_command_and_place(self, fixtures_dir, tmp_path):
        spec = load_json(fixtures_dir / "sweep_regimes.json")
        for sub in spec["scenarios"]:
            del sub["name"]
        rc = main(["sweep", "--spec", str(write_spec(tmp_path, spec)), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        with open(tmp_path / "regimes-summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scenario"] for r in rows] == ["homog-regime1-0", "homog-regime2-1"]
        for r in rows:
            assert Path(r["artifact"]) == tmp_path / f"{r['scenario']}-report.json"
            assert Path(r["artifact"]).exists()


class TestExitCodes:
    def test_invalid_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bending", "--spec", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE

    def test_missing_file_is_parse_error(self, tmp_path):
        assert main(["bending", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_PARSE

    def test_size_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        # 16^3 at 8 thickness nodes: one node's block of 12,288 unknowns
        _assert_refused_before_the_pipeline(
            tmp_path, monkeypatch, capsys,
            {"kind": "isotropic-field", "grid": [16, 16, 16], "mu_grid": [1.0] * 4096,
             "lambda_grid": [0.0] * 4096})

    def test_slab_size_cap_is_checked_before_the_pipeline(self, tmp_path, monkeypatch, capsys):
        # a border of 6,912 unknowns and 16,384 elements
        _assert_refused_before_the_pipeline(
            tmp_path, monkeypatch, capsys,
            dict(SLAB, x3_grid=8, inplane_grid=[16, 16], fiber_grid=4, lambda2=[1.0, 2.0, 3.0, 4.0]))

    def test_oracle_mismatch_is_solver_error(self, fixtures_dir, tmp_path, monkeypatch):
        from plate_homog import oracle

        monkeypatch.setattr(oracle.DenseProblem, "solve",
                            lambda self, loads: np.full(len(loads), 123.0))
        rc = main(["oracle-check", "--spec", str(fixtures_dir / "oracle_check_cell.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER

    @pytest.mark.parametrize("command, material, settings, key", [
        pytest.param("reduce", {"kind": "form3", "matrix": [[float("nan")] + [0.0] * 5]
                                + np.eye(6)[1:].tolist()}, {}, "material.matrix", id="form3-nan"),
        pytest.param("reduce", {"kind": "form3", "matrix": (np.eye(6) + 0.5 * np.eye(6, k=1)).tolist()},
                     {}, "material.matrix", id="form3-asymmetric"),
        pytest.param("reduce", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}, {"tol": "abc"},
                     "settings.tol", id="tol-string"),
        pytest.param("homog-regime1", {"kind": "isotropic-field", "grid": [1, 1, 2],
                                       "mu_grid": ["x", 1.5], "lambda_grid": [0.0, 0.0]}, {},
                     "material.mu_grid", id="mu-grid-string"),
        pytest.param("homog-regime1", {"kind": "isotropic-field", "grid": "ab",
                                       "mu_grid": [0.5, 1.5], "lambda_grid": [0.0, 0.0]}, {},
                     "material.grid", id="grid-string"),
        pytest.param("homog-regime2", {"kind": "slab", "x3_grid": 2, "inplane_grid": [1, 1, 1],
                                       "fiber_grid": 2, "lambda1": 1.0, "lambda2": [1.0, 2.0],
                                       "mu": 1.0}, {}, "material.inplane_grid", id="inplane-grid-3"),
        pytest.param("homog-regime2", {"kind": "slab", "x3_grid": 2, "inplane_grid": [1, 1],
                                       "fiber_grid": 2, "lambda1": 1.0, "lambda2": [1.0, 2.0],
                                       "mu": "soft"}, {}, "material.mu", id="slab-mu-string"),
        pytest.param("homog-regime2", dict(SLAB_CELLS, fiber_index=[0.5] * 8), {},
                     "material.fiber_index", id="fiber-index-half"),
        pytest.param("homog-regime2", dict(SLAB_CELLS, fiber_index=[True] + [0] * 7), {},
                     "material.fiber_index", id="fiber-index-bool"),
        # grid sizes are integers: truncating 2.5 to 2 or reading true as 1 would
        # solve a grid the file does not describe
        pytest.param("homog-regime2", dict(SLAB, x3_grid=2.5), {}, "material.x3_grid",
                     id="x3-grid-fraction"),
        pytest.param("homog-regime2", dict(SLAB, x3_grid=True), {}, "material.x3_grid",
                     id="x3-grid-bool"),
        pytest.param("homog-regime2", dict(SLAB, fiber_grid=2.9), {}, "material.fiber_grid",
                     id="fiber-grid-fraction"),
        pytest.param("homog-regime2", dict(SLAB, inplane_grid=[1.5, 1]), {},
                     "material.inplane_grid", id="inplane-grid-fraction"),
        pytest.param("homog-regime1", dict(FIELD, grid=[1, 1, 2.5]), {}, "material.grid",
                     id="cell-grid-fraction"),
        pytest.param("reduce", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}, [1, 2],
                     "settings", id="settings-list"),
        # period counts are integers in [1, 4096]: 1e30 periods would run for ages,
        # and true is not the period 1
        pytest.param("oscillate", PROFILE, {"periods": [1e30]}, "settings.periods",
                     id="periods-huge"),
        pytest.param("oscillate", PROFILE, {"periods": [4097]}, "settings.periods",
                     id="periods-above-cap"),
        pytest.param("oscillate", PROFILE, {"periods": [True]}, "settings.periods",
                     id="periods-bool"),
        pytest.param("oscillate", PROFILE, {"periods": []}, "settings.periods",
                     id="periods-empty"),
        pytest.param("oscillate", PROFILE, {"periods": [2, 0]}, "settings.periods",
                     id="periods-zero"),
        # every entry runs, and the report keeps one deviation per distinct entry:
        # a repeated entry or a long list is refused before it runs for minutes
        pytest.param("oscillate", PROFILE, {"periods": [4, 2, 4]}, "settings.periods",
                     id="periods-duplicate"),
        pytest.param("oscillate", PROFILE, {"periods": list(range(1, 66))}, "settings.periods",
                     id="periods-65-entries"),
        pytest.param("oracle-check", FIELD, {"x3_samples": 2.5}, "settings.x3_samples",
                     id="x3-samples-fraction"),
        pytest.param("oracle-check", FIELD, {"oracle_loads": 1.5}, "settings.oracle_loads",
                     id="oracle-loads-fraction"),
        pytest.param("oracle-check", FIELD, {"oracle_loads": True}, "settings.oracle_loads",
                     id="oracle-loads-bool"),
        pytest.param("reduce", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}, "x",
                     "settings", id="settings-string"),
        # the material kinds of oracle-check: a wrong type is named by its key
        pytest.param("oracle-check", dict(SLAB_CELLS, fibers=5), {}, "material.fibers",
                     id="fibers-number"),
        pytest.param("oracle-check", dict(SLAB_CELLS, fibers=[5]), {}, "material.fibers",
                     id="fiber-number"),
        pytest.param("oracle-check", {"kind": "cell", "grid": [1, 1, 1], "forms": 7}, {},
                     "material.forms", id="forms-number"),
        # a container of the wrong type is named where its key path is known
        pytest.param("reduce", 5, {}, "material", id="material-number"),
        pytest.param("bending", {"kind": "profile", "layers": [3]}, {}, "material.layers[0]",
                     id="layer-number"),
        pytest.param("bending", {"kind": "profile", "rule": "midpoint", "samples": 5}, {},
                     "material.samples", id="samples-number"),
        pytest.param("homog-regime2", dict(SLAB, lambda1=None), {}, "material.lambda1",
                     id="lambda1-null"),
        # null at any depth, and a layer form its constructor refuses, under their own keys
        pytest.param("homog-regime2", dict(SLAB, lambda2=[None, 2.0]), {}, "material.lambda2",
                     id="lambda2-entry-null"),
        pytest.param("homog-regime1", dict(FIELD, mu_grid=[None, 1.5]), {}, "material.mu_grid",
                     id="mu-grid-entry-null"),
        pytest.param("homog-regime1", dict(FIELD, mu_grid=[float("nan"), 1.5]), {}, "material",
                     id="mu-grid-entry-nan"),
        # a separable slab's NaN or infinite value, with no bounds to check it against
        pytest.param("homog-regime2", dict(SLAB, lambda2=[1.0, float("nan")]), {},
                     "material.lambda2", id="lambda2-entry-nan"),
        pytest.param("homog-regime2", dict(SLAB, lambda1=float("nan")), {}, "material.lambda1",
                     id="lambda1-nan"),
        pytest.param("homog-regime2", dict(SLAB, mu=float("inf")), {}, "material.mu",
                     id="mu-infinite"),
        pytest.param("homog-regime2", dict(SLAB, lambda2=[1.0, -float("inf")]), {},
                     "material.lambda2", id="lambda2-entry-minus-infinity"),
        pytest.param("bending", {"kind": "profile", "layers": [
            {"from": -0.5, "to": 0.5, "form": [[None, 0, 0], [0, 1, 0], [0, 0, 1]]}]}, {},
                     "material.layers[0].form", id="layer-form-entry-null"),
        pytest.param("bending", {"kind": "profile", "layers": [
            {"from": -0.5, "to": 0.5, "form": [[1, 3, 0], [0, 1, 0], [0, 0, 1]]}]}, {},
                     "material.layers[0].form", id="layer-form-asymmetric"),
        pytest.param("bending", dict(PROFILE, samples=[[[1, 0, 0], [0, None, 0], [0, 0, 1]]]),
                     {}, "material.samples[0]", id="profile-sample-entry-null"),
        pytest.param("reduce", {"kind": "form3", "matrix": [[None] * 6] * 6}, {},
                     "material.matrix", id="form3-entry-null"),
    ])
    def test_malformed_value_is_parse_error(self, tmp_path, capsys, command, material, settings,
                                            key):
        # the message names the file and the key path of the value inside it
        spec = {"convention": CONVENTION, "command": command, "material": material,
                "settings": settings}
        path = write_spec(tmp_path, spec)
        assert main([command, "--spec", str(path), "--out", str(tmp_path)]) == EXIT_PARSE
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "SpecFormatError"
        assert payload["exit_code"] == EXIT_PARSE
        assert payload["message"].startswith(f"{path}.{key}: ")

    @pytest.mark.parametrize("command, material, kinds", [
        pytest.param("homog-regime1", dict(SLAB, bounds={"eta1": 5.0, "eta2": 6.0}),
                     "'cell' or 'isotropic-field', got 'slab'", id="out-of-bounds-slab"),
        pytest.param("homog-regime2", FIELD, "'slab' or 'slab-cells', got 'isotropic-field'",
                     id="cell-to-regime2"),
        pytest.param("bending", {"kind": "isotropic", "mu": 1.0, "lambda": 1.0},
                     "'profile', got 'isotropic'", id="form-to-bending"),
        pytest.param("reduce", {"kind": "form2", "matrix": np.eye(3).tolist()},
                     "'form3' or 'isotropic' or 'profile', got 'form2'", id="form2-to-reduce"),
        pytest.param("oracle-check", PROFILE,
                     "'cell' or 'isotropic-field' or 'slab' or 'slab-cells', got 'profile'",
                     id="profile-to-oracle"),
        pytest.param("homog-regime1", {"kind": "fiber"},
                     "'cell' or 'isotropic-field', got 'fiber'", id="unknown-kind"),
    ])
    def test_wrong_material_kind_is_parse_error(self, tmp_path, capsys, command, material,
                                                kinds):
        # the kind is refused before its reader runs: an out-of-bounds slab sent
        # to homog-regime1 exits 2, not 3 from the slab's own check
        path = write_spec(tmp_path, {"convention": CONVENTION, "command": command,
                                     "material": material})
        assert main([command, "--spec", str(path), "--out", str(tmp_path)]) == EXIT_PARSE
        assert error_line(capsys) == {
            "error": "SpecFormatError", "exit_code": EXIT_PARSE,
            "message": f"{path}.material: command {command!r} takes material kind {kinds}"}

    @pytest.mark.parametrize("name", ["../escape", "sub/x", "a\\b", "", ".", "..", "nul\0",
                                      [1], 3, None])
    def test_bad_scenario_name_is_parse_error(self, fixtures_dir, tmp_path, capsys, name):
        # a name is a file-name stem, so that every output lands in --out
        spec = dict(load_json(fixtures_dir / "reduce_isotropic.json"), name=name)
        path = write_spec(tmp_path, spec)
        out = tmp_path / "out"
        assert main(["reduce", "--spec", str(path), "--out", str(out)]) == EXIT_PARSE
        assert error_line(capsys)["message"].startswith(f"{path}.name: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]

    def test_bad_sweep_entry_name_is_parse_error(self, fixtures_dir, tmp_path, capsys):
        spec = load_json(fixtures_dir / "sweep_regimes.json")
        spec["scenarios"][1]["name"] = "../escape"
        path = write_spec(tmp_path, spec)
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert error_line(capsys)["message"].startswith(f"{path}.scenarios[1].name: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, key", [(None, "scenarios"), (1, "scenarios[1]")])
    def test_sweep_scenarios_of_the_wrong_type_are_parse_errors(self, fixtures_dir, tmp_path,
                                                                capsys, entry, key):
        # the scenarios list, or one of its entries, is a number: named by its key path
        spec = load_json(fixtures_dir / "sweep_regimes.json")
        if entry is None:
            spec["scenarios"] = 5
        else:
            spec["scenarios"][entry] = 5
        path = write_spec(tmp_path, spec)
        assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert error_line(capsys)["message"].startswith(f"{path}.{key}: ")

    @pytest.mark.parametrize("surface", [
        {"kind": "cylinder", "radius": 1.0, "extent": [float("nan"), 1.0]},
        {"kind": "cylinder", "radius": float("inf"), "extent": [1.0, 1.0]},
        {"kind": "flat", "extent": [1.0, float("-inf")]},
    ])
    def test_non_finite_surface_is_parse_error(self, fixtures_dir, tmp_path, capsys, surface):
        spec = dict(load_json(fixtures_dir / "energy_cylinder.json"), surface=surface)
        path = write_spec(tmp_path, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["energy", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        assert error_line(capsys)["message"].startswith(f"{path}.surface: ")

    @pytest.mark.parametrize("surface, value", [
        ({"kind": "cylinder", "radius": 1.0, "extent": [1e308, 1e308]}, "inf"),
        ({"kind": "cylinder", "radius": 1e-320, "extent": [1.0, 1.0]}, "nan"),
    ])
    def test_energy_that_is_not_finite_is_parse_error(self, fixtures_dir, tmp_path, capsys,
                                                      surface, value):
        # finite inputs whose energy overflows: JSON has no Infinity or NaN, so
        # nothing is written
        spec = dict(load_json(fixtures_dir / "energy_cylinder.json"), surface=surface)
        path = write_spec(tmp_path, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["energy", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        assert error_line(capsys)["message"] == (
            f"{path}.surface: the plate energy is not finite ({value}): "
            "form, extent and radius overflow double precision")
        assert list((tmp_path / "out").iterdir()) == []

    def test_energy_that_is_not_finite_fails_its_sweep_scenario(self, fixtures_dir, tmp_path,
                                                               capsys):
        # refused when the scenario runs, not when the file is read: the other
        # scenario still writes its artifact
        energy = load_json(fixtures_dir / "energy_cylinder.json")
        bad = dict(energy, name="overflow",
                   surface={"kind": "cylinder", "radius": 1.0, "extent": [1e308, 1e308]})
        spec = {"convention": CONVENTION, "command": "sweep", "name": "energies",
                "scenarios": [bad, dict(energy, name="good")]}
        path = write_spec(tmp_path, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_PARSE
        message = error_line(capsys)["message"]
        assert message.startswith("1 of 2 sweep scenarios failed")
        assert f"overflow: SpecFormatError (exit 2): {path}.scenarios[0].surface: " in message
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "energies-summary.csv", "good-energy.json"]

    def test_indefinite_form3_is_admissibility_error(self, tmp_path, capsys):
        # symmetric, with a positive definite out-of-plane block that is tiny against
        # its coupling: the Schur complement overflows
        m = np.eye(6)
        m[2, 2] = m[3, 3] = m[4, 4] = 1e-200
        m[0, 2] = m[2, 0] = 1e150
        path = write_spec(tmp_path, {"convention": CONVENTION, "command": "reduce",
                                     "material": {"kind": "form3", "matrix": m.tolist()}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["reduce", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_ADMISSIBILITY
        assert error_line(capsys) == {
            "error": "DegenerateMaterialError", "exit_code": EXIT_ADMISSIBILITY,
            "message": "the Schur complement or minimizer of a positive definite 3x3 block "
                       "overflows double precision: the block is nearly singular against its "
                       "coupling"}

    @pytest.mark.parametrize("command, material, key", [
        pytest.param("reduce", {"kind": "form3",
                                "matrix": [["x"] + [0.0] * 5] + np.eye(6)[1:].tolist()},
                     "material.matrix", id="form3-entry-string"),
        pytest.param("reduce", {"kind": "isotropic", "mu": -1.0, "lambda": 1.0}, "material",
                     id="isotropic-negative-mu"),
        pytest.param("bending", {"kind": "profile", "layers": [
            {"from": -0.5, "to": 0.5, "form": np.eye(3).tolist()},
            {"from": 0.5, "to": 0.5, "form": np.eye(3).tolist()}]}, "material",
                     id="layers-not-increasing"),
        pytest.param("bending", dict(PROFILE, rule="gauss", samples=PROFILE["samples"][:1]),
                     "material", id="gauss-one-sample"),
        pytest.param("bending", dict(PROFILE, samples=[[["x", 0, 0], [0, 1, 0], [0, 0, 1]]]),
                     "material.samples[0]", id="profile-sample-string"),
        pytest.param("homog-regime2", dict(SLAB_CELLS, fiber_index=[99] * 8), "material",
                     id="fiber-index-out-of-range"),
    ])
    def test_refused_value_is_a_malformed_value_at_its_key(self, tmp_path, capsys, command,
                                                            material, key):
        # a value a constructor refuses is worded like every other converted value
        path = write_spec(tmp_path, {"convention": CONVENTION, "command": command,
                                     "material": material})
        assert main([command, "--spec", str(path), "--out", str(tmp_path)]) == EXIT_PARSE
        payload = error_line(capsys)
        assert (payload["error"], payload["exit_code"]) == ("SpecFormatError", EXIT_PARSE)
        assert payload["message"].startswith(f"{path}.{key}: malformed value: ")

    def test_non_positive_slab_scale_is_admissibility_error(self, tmp_path, capsys):
        # refused by the slab constructor under the same key path, but as inadmissible
        material = dict(SLAB_CELLS, scale=[0.0] + [1.0] * 7)
        path = write_spec(tmp_path, {"convention": CONVENTION, "command": "homog-regime2",
                                     "material": material})
        rc = main(["homog-regime2", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_ADMISSIBILITY
        assert error_line(capsys) == {"error": "AdmissibilityError",
                                      "exit_code": EXIT_ADMISSIBILITY,
                                      "message": "cell scale factors must be positive"}

    @pytest.mark.parametrize("command", ["homog-regime2", "oracle-check"])
    def test_asymmetric_fiber_is_admissibility_error(self, tmp_path, capsys, command):
        # the symmetric part of the first sample has eigenvalue -1.5, which
        # eigvalsh, reading the lower triangle (the identity), cannot see
        bad = np.eye(6)
        bad[0, 1] = 5.0
        material = {"kind": "slab-cells", "x3_grid": 2, "inplane_grid": [1, 1], "fiber_grid": 4,
                    "fibers": [[bad.tolist()] + [np.eye(6).tolist()] * 3], "fiber_index": [0, 0]}
        path = write_spec(tmp_path, {"convention": CONVENTION, "command": command,
                                     "material": material})
        assert main([command, "--spec", str(path), "--out", str(tmp_path)]) == EXIT_ADMISSIBILITY
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "AdmissibilityError", "exit_code": EXIT_ADMISSIBILITY,
            "message": "slab cell 0 is not symmetric (max asymmetry 5.000e+00)"}

    def test_out_of_memory_is_size_cap_error(self, fixtures_dir, tmp_path, monkeypatch, capsys):
        # a stand-in for an input too large to allocate: a real one may be
        # granted by an overcommitting host and then killed
        from plate_homog import iojson

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(iojson, "read_slab_material", fail)
        rc = main(["homog-regime2", "--spec", str(fixtures_dir / "homog_regime2_cells.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_SIZE_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload == {"error": "SizeCapError", "exit_code": EXIT_SIZE_CAP,
                           "message": "out of memory: Unable to allocate 74.5 GiB for an array"}

    def test_overflowing_load_is_solver_error(self, tmp_path, capsys):
        # load norm and noise floor overflow to inf: refused, not reported as solved
        spec = {"convention": CONVENTION, "command": "homog-regime1",
                "material": {"kind": "isotropic-field", "grid": [2, 2, 2],
                             "mu_grid": [1e300] + [1.0] * 7, "lambda_grid": [0.0] * 8}}
        path = write_spec(tmp_path, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["homog-regime1", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "SolverError" and "not finite" in payload["message"]

    def test_error_payload_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        main(["bending", "--spec", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "SpecFormatError"
        assert payload["exit_code"] == EXIT_PARSE


    def test_unwritable_out_is_parse_error(self, fixtures_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        rc = main(["reduce", "--spec", str(fixtures_dir / "reduce_isotropic.json"),
                   "--out", str(out)])
        assert rc == EXIT_PARSE
        payload = error_line(capsys)
        assert payload["error"] == "SpecFormatError" and payload["exit_code"] == EXIT_PARSE
        assert payload["message"].startswith(f"{out}: cannot write output: ")

    def test_unwritable_report_fails_its_sweep_scenario(self, fixtures_dir, tmp_path, capsys):
        blocked = tmp_path / "laminate-r2-report.json"
        blocked.mkdir()
        rc = main(["sweep", "--spec", str(fixtures_dir / "sweep_regimes.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_PARSE
        assert (tmp_path / "laminate-r1-report.json").exists()
        with open(tmp_path / "regimes-summary.csv") as fh:
            rows = {r["scenario"]: r["artifact"] for r in csv.DictReader(fh)}
        assert rows["laminate-r1"] and rows["laminate-r2"] == ""
        payload = error_line(capsys)
        assert payload["error"] == "SweepError" and payload["exit_code"] == EXIT_PARSE
        assert f"laminate-r2: SpecFormatError (exit 2): {blocked}: cannot write output: " \
            in payload["message"]

    @pytest.mark.parametrize("grid", [["--grid", "0,0,0"], ["--grid=-1,-1,-2"],
                                      ["--grid", "2,2,0"]])
    def test_grid_override_below_one_is_parse_error(self, fixtures_dir, tmp_path, capsys, grid):
        # a factor of 0 or -1 passed the nested-multiple test and the unrefined grid was solved
        rc = main(["homog-regime1", "--spec", str(fixtures_dir / "homog_regime1_laminate.json"),
                   "--out", str(tmp_path)] + grid)
        assert rc == EXIT_PARSE
        assert "grid sizes must be >= 1" in error_line(capsys)["message"]
        assert not (tmp_path / "laminate-r1-report.json").exists()

    @pytest.mark.parametrize("argv, fragment", [
        (["reduce", "--spec", "SPEC", "--out", "OUT", "--tol", "abc"],
         "argument --tol: invalid float value: 'abc'"),
        (["homog-regime1", "--spec", "SPEC", "--out", "OUT", "--grid", "a,b,c"],
         "argument --grid: grid sizes must be integers, got a,b,c"),
        (["nope", "--spec", "SPEC", "--out", "OUT"], "argument command: invalid choice: 'nope'"),
        (["reduce", "--spec", "SPEC"], "the following arguments are required: --out"),
        (["reduce", "--spec", "SPEC", "--out", "OUT", "--bogus"], "unrecognized arguments: --bogus"),
        (["homog-regime1", "--spec", "SPEC", "--out", "OUT", "--grid", "2,2"],
         "argument --grid: grid must be three comma-separated sizes"),
    ])
    def test_argument_error_is_one_json_line(self, fixtures_dir, tmp_path, capsys, argv,
                                             fragment):
        spec = str(fixtures_dir / "reduce_isotropic.json")
        argv = [{"SPEC": spec, "OUT": str(tmp_path)}.get(a, a) for a in argv]
        assert main(argv) == EXIT_PARSE
        payload = error_line(capsys)
        assert payload["error"] == "SpecFormatError" and payload["exit_code"] == EXIT_PARSE
        assert payload["message"].startswith("plate-homog: ")
        assert fragment in payload["message"]

    @pytest.mark.parametrize("fixture, mutate, key, message", [
        pytest.param("energy_cylinder.json",
                     lambda spec: spec.update(form={"kind": "form3",
                                                    "matrix": np.eye(6).tolist()}),
                     "form", "energy needs a 2D bending form", id="energy-form3"),
        pytest.param("energy_cylinder.json",
                     lambda spec: spec.update(form={"kind": "form2",
                                                    "matrix": np.diag([1.0, -1.0, 1.0]).tolist()}),
                     "form", "bending form must be positive semidefinite", id="energy-indefinite"),
        pytest.param("sweep_regimes.json",
                     lambda spec: spec["scenarios"][0].update(command="sweep"),
                     "scenarios[0]", "sweeps cannot nest", id="nested-sweep"),
        pytest.param("sweep_regimes.json", lambda spec: spec["scenarios"][0].pop("command"),
                     "scenarios[0]", "sweep entries must declare their command",
                     id="sweep-entry-without-command"),
        pytest.param("sweep_regimes.json",
                     lambda spec: spec["scenarios"][1].update(name="laminate-r1"),
                     "scenarios", "sweep scenario names must be unique",
                     id="repeated-sweep-names"),
    ])
    def test_refused_scenario_is_one_json_line(self, fixtures_dir, tmp_path, capsys, fixture,
                                               mutate, key, message):
        spec = load_json(fixtures_dir / fixture)
        mutate(spec)
        path = write_spec(tmp_path, spec)
        out = tmp_path / "out"
        assert main([spec["command"], "--spec", str(path), "--out", str(out)]) == EXIT_PARSE
        payload = error_line(capsys)
        assert (payload["error"], payload["exit_code"]) == ("SpecFormatError", EXIT_PARSE)
        assert payload["message"].startswith(f"{path}.{key}: {message}")
        assert not out.exists()

    def test_grid_override_on_a_slab_is_parse_error(self, fixtures_dir, tmp_path, capsys):
        rc = main(["homog-regime2", "--spec", str(fixtures_dir / "homog_regime2_laminate.json"),
                   "--out", str(tmp_path / "out"), "--grid", "2,2,2"])
        assert rc == EXIT_PARSE
        assert error_line(capsys) == {"error": "SpecFormatError", "exit_code": EXIT_PARSE,
                                      "message": "--grid refinement only applies to cell materials"}
        assert not (tmp_path / "out").exists()

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: plate-homog") and captured.err == ""


def _assert_refused_before_the_pipeline(tmp_path, monkeypatch, capsys, material):
    """``oracle-check`` on ``material`` exits 5 at the oracle's size cap, with one
    JSON line and no call to either pipeline."""
    from plate_homog import homog3d, homogslab

    calls = []
    monkeypatch.setattr(homog3d, "bending_form_regime1", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(homogslab, "bending_form_regime2", lambda *a, **k: calls.append(2))
    path = write_spec(tmp_path, {"convention": CONVENTION, "command": "oracle-check",
                                 "material": material})
    assert main(["oracle-check", "--spec", str(path), "--out", str(tmp_path)]) == EXIT_SIZE_CAP
    assert calls == []
    error = error_line(capsys)
    assert (error["error"], error["exit_code"]) == ("SizeCapError", EXIT_SIZE_CAP)
    assert error["message"].startswith("dense oracle would hold ")


def error_line(capsys) -> dict:
    """The one JSON error line on stderr, with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_module_entry_point(fixtures_dir, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "plate_homog", "energy",
         "--spec", str(fixtures_dir / "energy_cylinder.json"), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"
