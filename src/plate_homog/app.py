"""Command-line front door.

``plate-homog <command> --spec <file> --out <dir>`` reads a JSON
scenario, validates the material eagerly, runs the requested pipeline
and writes reports (JSON, ``<name>-<suffix>.json`` with the scenario's
settings as the last key) and tables (CSV).  A cell or slab material is
checked against its bounds when the reader builds it.  Commands:

- ``reduce``         plane-stress reduction of a form or 3D profile
- ``bending``        bending form of a thickness profile
- ``homog-regime1``  unit-cell homogenization pipeline
- ``homog-regime2``  slab homogenization pipeline
- ``oscillate``      bending forms of n-fold squeezed profiles vs. their average
- ``oracle-check``   solver pipelines against the dense oracles
- ``energy``         plate energy of a bending form on a cylinder
- ``sweep``          run a list of scenarios, in order

Exit codes: 0 ok, 2 parse/schema, a bad command line or an output that
cannot be written (the status line on stdout included), 3 admissibility,
4 solver or oracle mismatch, 5 dense-size cap or out of memory.  Errors
are also emitted as one JSON object on stderr.

This module imports the thickness layer (``reduction``) and ``iojson``
only.  ``homog3d``, ``homogslab`` and ``oracle`` (and with them ``fem``)
are imported by the reader or runner that needs them, and the
pipelines are looked up on their modules when they are called.  The
material kinds a command takes are checked before any reader runs.
``reduce``, ``bending``, ``oscillate``, ``energy``, a bad command line
and a spec refused before its material is built (a material of the wrong
kind included) therefore load no corrector solver.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import iojson
from .core import DEFAULT_TOL, EffectiveReport, QuadForm2
from .errors import (
    EXIT_OK,
    PlateHomogError,
    SizeCapError,
    SolverError,
    SpecFormatError,
    SweepError,
)
from .reduction import (
    ThicknessProfile,
    bending_form,
    oscillation_experiment,
    plane_stress_reduce,
    profile_average,
    reduce_profile,
)

DEFAULT_SETTINGS = {
    "tol": DEFAULT_TOL,
    "x3_samples": 8,
    "periods": [1, 2, 4, 8, 16, 32],
    "check_tol": 1e-8,
    "oracle_loads": 3,
}

SETTING_RANGES = {
    "tol": (1e-16, 1e-2),
    "x3_samples": (2, 64),
    "check_tol": (1e-16, 1e-2),
    "oracle_loads": (1, 16),
}
INTEGER_SETTINGS = ("x3_samples", "oracle_loads")
PERIODS_MAX = 4096
# ``oscillate`` runs every entry (about 70 ms at 4096 periods), so a list is short
PERIODS_ENTRIES = 64


@dataclass(frozen=True)
class SurfaceSpec:
    """Deformed mid-surface for the limit plate energy.

    Only developable surfaces with constant curvature are supported: a
    cylinder of radius ``radius`` over a rectangular domain (exact
    isometry of the flat plate, single curvature 1/radius), or the flat
    plate itself.
    """

    kind: str
    extent: tuple
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("cylinder", "flat"):
            raise SpecFormatError(f"surface kind must be 'cylinder' or 'flat', got {self.kind!r}")
        # chained comparisons also refuse NaN
        if len(self.extent) != 2 or not all(0.0 < x < np.inf for x in self.extent):
            raise SpecFormatError("surface extent must be two finite positive lengths")
        if self.kind == "cylinder" and not (self.radius and 0.0 < self.radius < np.inf):
            raise SpecFormatError("cylinder radius must be finite and positive")

    @property
    def area(self) -> float:
        return float(self.extent[0] * self.extent[1])


def plate_energy(q0: QuadForm2, surface: SurfaceSpec) -> float:
    """Limit plate energy: area times the bending form at the curvature.

    A cylinder has constant curvature matrix diag(1/R, 0), so the
    integral is exact; the sign of the curvature does not matter since
    the form is even.  Flat plates carry zero energy.
    """
    if surface.kind == "flat":
        return 0.0
    curvature = np.array([[1.0 / surface.radius, 0.0], [0.0, 0.0]])
    return surface.area * q0.eval(curvature)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated unit of work for one CLI invocation.  ``path`` is the key
    path of the scenario in its spec file (``spec.json`` or
    ``spec.json.scenarios[1]``), for the errors found when it runs."""

    command: str
    name: str
    settings: dict
    material: object = None
    form: QuadForm2 | None = None
    surface: SurfaceSpec | None = None
    subs: tuple = field(default_factory=tuple)
    path: str = ""


def _read_settings(obj: dict | None, path: str) -> dict:
    path += ".settings"
    if obj is not None and not isinstance(obj, dict):
        raise SpecFormatError(f"{path}: settings must be a JSON object, got {type(obj).__name__}")
    settings = dict(DEFAULT_SETTINGS)
    for key, value in (obj or {}).items():
        if key not in DEFAULT_SETTINGS:
            raise SpecFormatError(f"{path}: unknown setting {key!r}")
        settings[key] = value
    for key, (lo, hi) in SETTING_RANGES.items():
        with iojson.at_key(f"{path}.{key}"):
            if key in INTEGER_SETTINGS:
                settings[key] = iojson._int(settings[key])
            v = settings[key]
            in_range = lo <= v <= hi
        if not in_range:
            raise SpecFormatError(f"{path}: setting {key}={v} outside [{lo}, {hi}]")
    with iojson.at_key(path + ".periods"):
        periods = list(iojson._ints(settings["periods"]))
    if not periods or min(periods) < 1 or max(periods) > PERIODS_MAX:
        raise SpecFormatError(
            f"{path}.periods: periods must be a non-empty list of integers in [1, {PERIODS_MAX}]"
        )
    if len(periods) > PERIODS_ENTRIES or len(set(periods)) < len(periods):
        raise SpecFormatError(
            f"{path}.periods: periods must be at most {PERIODS_ENTRIES} distinct entries"
        )
    settings["periods"] = periods
    return settings


def _read_surface(obj: dict, path: str) -> SurfaceSpec:
    kind = str(iojson._get(obj, "kind", path))
    extent = iojson._get(obj, "extent", path, required=False, default=(1.0, 1.0),
                         convert=lambda v: tuple(float(x) for x in v))
    radius = None if obj.get("radius") is None else iojson._get(obj, "radius", path, convert=float)
    try:
        return SurfaceSpec(kind=kind, extent=extent, radius=radius)
    except SpecFormatError as exc:
        raise SpecFormatError(f"{path}: {exc}") from None


def _read_name(obj: dict, path: str, default: str) -> str:
    """The output file prefix: a plain file-name stem, so that every output
    lands in ``--out``."""
    name = obj.get("name", default)
    if not isinstance(name, str) or name in ("", ".", "..") or set(name) & set("/\\\0"):
        raise SpecFormatError(
            f"{path}.name: name must be a non-empty file-name stem without '/', '\\' "
            f"or NUL, and not '.' or '..'; got {name!r}"
        )
    return name


# The material kinds each command takes, checked before any reader runs.
_KINDS = {
    "reduce": ("form3", "isotropic", "profile"),
    "bending": ("profile",),
    "oscillate": ("profile",),
    "homog-regime1": ("cell", "isotropic-field"),
    "homog-regime2": ("slab", "slab-cells"),
    "oracle-check": ("cell", "isotropic-field", "slab", "slab-cells"),
}


def _read_material(obj: dict, path: str, command: str):
    """The material of ``obj``, whose kind ``command`` must take."""
    kind = iojson._get(obj, "kind", path)
    kinds = _KINDS[command]
    if kind not in kinds:
        raise SpecFormatError(
            f"{path}: command {command!r} takes material kind "
            f"{' or '.join(map(repr, kinds))}, got {kind!r}"
        )
    if kind in ("form3", "isotropic"):
        return iojson.read_form(obj, path)
    if kind == "profile":
        return iojson.read_profile(obj, path)
    if kind in ("cell", "isotropic-field"):
        return iojson.read_cell_material(obj, path)
    return iojson.read_slab_material(obj, path)


def _is_a(obj, module: str, cls: str) -> bool:
    """``isinstance(obj, module.cls)`` for a module of this package, without
    importing it: no object is an instance of a class never imported."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return mod is not None and isinstance(obj, getattr(mod, cls))


def _scenario_from_dict(obj: dict, path: str, command: str | None = None) -> Scenario:
    declared = obj.get("command")
    if command is None:
        command = declared
    if command is None:
        raise SpecFormatError(f"{path}: no command given on the CLI or in the file")
    if declared is not None and declared != command:
        raise SpecFormatError(
            f"{path}.command: file declares command {declared!r} but {command!r} was requested"
        )
    if command not in COMMANDS:
        raise SpecFormatError(f"{path}: unknown command {command!r}")
    settings = _read_settings(obj.get("settings"), path)
    name = _read_name(obj, path, command)

    if command == "sweep":
        subs_raw = iojson._get(obj, "scenarios", path)
        if not isinstance(subs_raw, list) or not subs_raw:
            raise SpecFormatError(f"{path}.scenarios: sweep needs a non-empty list of scenarios")
        subs = []
        for i, sub in enumerate(subs_raw):
            sp = f"{path}.scenarios[{i}]"
            if iojson._get(sub, "command", sp, required=False) is None:
                raise SpecFormatError(f"{sp}: sweep entries must declare their command")
            if sub["command"] == "sweep":
                raise SpecFormatError(f"{sp}: sweeps cannot nest")
            sub_sc = _scenario_from_dict(sub, sp)
            if sub_sc.name == sub_sc.command:
                sub_sc = replace(sub_sc, name=f"{sub_sc.command}-{i}")
            subs.append(sub_sc)
        names = [s.name for s in subs]
        if len(set(names)) != len(names):
            raise SpecFormatError(f"{path}.scenarios: sweep scenario names must be unique")
        return Scenario(command=command, name=name, settings=settings, subs=tuple(subs),
                        path=path)

    if command == "energy":
        form = iojson.read_form(iojson._get(obj, "form", path), path + ".form")
        if not isinstance(form, QuadForm2):
            raise SpecFormatError(f"{path}.form: energy needs a 2D bending form")
        eig = np.linalg.eigvalsh(form.matrix)
        if eig[0] < -1e-12 * max(1.0, abs(eig[-1])):
            raise SpecFormatError(f"{path}.form: bending form must be positive semidefinite")
        surface = _read_surface(iojson._get(obj, "surface", path), path + ".surface")
        return Scenario(command=command, name=name, settings=settings, form=form,
                        surface=surface, path=path)

    material = _read_material(iojson._get(obj, "material", path), path + ".material", command)
    if command == "oscillate" and material.rule == "gauss":
        raise SpecFormatError(
            f"{path}.material: oscillate needs a piecewise-constant profile (layers or midpoint)"
        )
    return Scenario(command=command, name=name, settings=settings, material=material, path=path)


def parse_material_spec(path, command: str | None = None) -> Scenario:
    """Load and fully validate a scenario file (admissibility included).

    A value of the wrong type or shape anywhere in the file (a string for
    a number, an infinite size, a NaN or asymmetric matrix, ...) surfaces
    from the readers as ``ValueError``, ``TypeError`` or ``OverflowError``;
    it is reported as a ``SpecFormatError`` that names the key path of the
    value in the file, as in ``spec.json.material.mu_grid``, where a reader
    converts the value under ``iojson.at_key``, and the file otherwise.  Arithmetic
    on non-finite input values runs silently: the validation that follows
    rejects what it produces.
    """
    obj = iojson.load_json(path)
    iojson.check_convention(obj, str(path))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _scenario_from_dict(obj, str(path), command)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SpecFormatError(f"{path}: malformed value: {exc}") from exc


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """``scenario`` under the command line's ``--tol``, ``--quadrature`` and
    ``--grid``; a sweep passes the first two on to each of its scenarios."""
    settings = dict(scenario.settings)
    if args.tol is not None:
        settings["tol"] = args.tol
    if args.quadrature is not None:
        settings["x3_samples"] = args.quadrature
    material = scenario.material
    if args.grid is not None:
        if not _is_a(material, "homog3d", "CellMaterial3"):
            raise SpecFormatError("--grid refinement only applies to cell materials")
        target = tuple(args.grid)
        current = material.grid_shape
        factors = {t // c for t, c in zip(target, current) if c * (t // c) == t}
        if len(factors) != 1 or any(t % c for t, c in zip(target, current)):
            raise SpecFormatError(
                f"--grid {target} must be a uniform integer multiple of the material grid {current}"
            )
        factor = factors.pop()
        if factor > 1:
            material = material.refine(factor)
    _read_settings(settings, "overrides")
    subs = tuple(_apply_overrides(sub, args) for sub in scenario.subs)
    return replace(scenario, settings=settings, material=material, subs=subs)


def _write_json(scenario: Scenario, out_dir: Path, suffix: str, out: dict, **result) -> dict:
    """Write ``out`` to ``<name>-<suffix>.json`` with the scenario's settings as
    its last key; the runner's result names that artifact, then ``result``."""
    out["settings"] = scenario.settings
    path = out_dir / f"{scenario.name}-{suffix}.json"
    iojson.dump_json(out, path)
    return {"artifact": str(path), **result}


def _write_csv(scenario: Scenario, out_dir: Path, suffix: str, rows: list) -> str:
    """Write ``rows``, the header first, to ``<name>-<suffix>.csv``; its path."""
    path = out_dir / f"{scenario.name}-{suffix}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def _run_reduce(scenario: Scenario, out_dir: Path) -> dict:
    material = scenario.material
    if isinstance(material, ThicknessProfile):
        return _write_json(scenario, out_dir, "reduced-profile",
                           iojson.profile_to_dict(reduce_profile(material)))
    q2, dstar = plane_stress_reduce(material)
    return _write_json(scenario, out_dir, "reduced",
                       {**iojson.form_to_dict(q2), "minimizer_map": dstar.tolist()})


def _run_bending(scenario: Scenario, out_dir: Path) -> dict:
    q0, bstar = bending_form(scenario.material)
    report = EffectiveReport(
        form=q0, optimal_b=bstar, regime="thickness",
        diagnostics={"rule": scenario.material.rule, "samples": len(scenario.material.forms)},
    )
    return _write_json(scenario, out_dir, "report", iojson.report_to_dict(report))


def _run_oscillate(scenario: Scenario, out_dir: Path) -> dict:
    profile = reduce_profile(scenario.material)
    limit_form = bending_form(
        ThicknessProfile((profile_average(profile),), rule="midpoint")
    )[0]
    rows = []
    for n in scenario.settings["periods"]:
        final = oscillation_experiment(profile, n)
        rows.append((n, float(np.linalg.norm(final.matrix - limit_form.matrix))))
    csv_path = _write_csv(scenario, out_dir, "oscillation",
                          [("periods", "frobenius_distance_to_average_limit"), *rows])
    report = EffectiveReport(
        form=final, optimal_b=np.zeros((3, 3)), regime="oscillate",
        diagnostics={
            "limit_form": limit_form.matrix.tolist(),
            "deviations": {str(n): d for n, d in rows},
        },
    )
    return _write_json(scenario, out_dir, "report", iojson.report_to_dict(report), csv=csv_path)


def _run_regime(scenario: Scenario, out_dir: Path) -> dict:
    tol = float(scenario.settings["tol"])
    if scenario.command == "homog-regime1":
        from . import homog3d

        report = homog3d.bending_form_regime1(scenario.material, tol=tol)
    else:
        from . import homogslab

        report = homogslab.bending_form_regime2(scenario.material, tol=tol)
    return _write_json(scenario, out_dir, "report", iojson.report_to_dict(report))


# The Mandel 3-vectors of the ``oracle-check`` probe loads, the first
# ``oracle_loads`` of them: the identity, then ``mandel2`` of the symmetric
# parts of ``np.random.default_rng(0).standard_normal((15, 2, 2))``, kept as
# a table because loading ``numpy.random`` raises a process's peak memory by
# about 5 MiB.
ORACLE_PROBES = (
    (1.0, 1.0, 0.0),
    (0.1257302210933933, 0.10490011715303971, 0.3594349542929053),
    (-0.535669373161111, 0.9470809631292422, 1.177753589949103),
    (-0.7037352358069926, 0.0413259793472436, -1.3355097022362827),
    (-2.3250307746388343, -0.7322673547034516, -1.0357011487909886),
    (-0.5442589828573099, 1.0425133694426776, 0.06740875815461062),
    (-0.12853466294403426, 0.3515100700930197, 0.4958719218378313),
    (0.9034701816518086, -0.9217253762584194, -0.4592566277635424),
    (-0.45772582566733916, -0.20917557487171307, -0.5582063989996034),
    (-0.15922500991447772, 0.3553727090399214, 0.5342225016739253),
    (-0.6538286094183394, 1.4934311452207607, 0.46270369184589083),
    (-1.2590655321041202, 0.7813114007004275, 2.0221834061063126),
    (0.2644556303293035, 1.9602583164499647, 0.8089993615113539),
    (1.801634869866125, -1.2083186322821715, 1.1826249018478119),
    (-0.004454133120083229, 0.39512206018200824, -0.4468112493652607),
    (0.42986369482223, -0.6617025720390349, -0.3451213139091347),
)


def _run_oracle_check(scenario: Scenario, out_dir: Path) -> dict:
    from . import homog3d, homogslab, oracle

    material = scenario.material
    tol = float(scenario.settings["tol"])
    check_tol = float(scenario.settings["check_tol"])
    loads = [np.array(p) for p in ORACLE_PROBES[:scenario.settings["oracle_loads"]]]
    # the oracle first: its size cap refuses before the pipeline spends a solve,
    # and its memory is gone before the pipeline's is taken
    if isinstance(material, homog3d.CellMaterial3):
        oracle_values = oracle.assemble_regime1(material, scenario.settings["x3_samples"]).solve(loads)
        report = homog3d.bending_form_regime1(material, tol=tol)
    else:
        oracle_values = oracle.assemble_regime2(material).solve(loads)
        report = homogslab.bending_form_regime2(material, tol=tol)
    diffs = [
        abs(report.form.eval_mandel(a2) - value) / max(abs(value), 1e-30)
        for a2, value in zip(loads, oracle_values)
    ]
    worst = float(max(diffs))
    result = _write_json(scenario, out_dir, "oracle-check", {
        "convention": iojson.CONVENTION,
        "kind": "oracle-check",
        "regime": report.regime,
        "max_relative_difference": worst,
        "tolerance": check_tol,
        "passed": worst <= check_tol,
    }, max_relative_difference=worst)
    if worst > check_tol:
        raise SolverError(
            f"oracle check failed: max relative difference {worst:.3e} > {check_tol:g}"
        )
    return result


def _run_energy(scenario: Scenario, out_dir: Path) -> dict:
    # an energy that overflows is refused before anything is written: JSON has no NaN
    with np.errstate(over="ignore", invalid="ignore"):
        value = plate_energy(scenario.form, scenario.surface)
    if not np.isfinite(value):
        raise SpecFormatError(f"{scenario.path}.surface: the plate energy is not finite "
                              f"({value}): form, extent and radius overflow double precision")
    return _write_json(scenario, out_dir, "energy", {
        "convention": iojson.CONVENTION,
        "kind": "plate-energy",
        "surface": {
            "kind": scenario.surface.kind,
            "extent": list(scenario.surface.extent),
            "radius": scenario.surface.radius,
        },
        "energy": value,
    }, energy=value)


def _run_sweep(scenario: Scenario, out_dir: Path) -> dict:
    """Run every sub-scenario, in order; a failed one does not stop the others.

    The summary CSV is always written; a failed scenario has an empty
    artifact.  If any failed, the sweep then raises ``SweepError`` with
    the worst exit code, naming each failed scenario and its exit code.
    """
    results, failures = {}, {}
    for sub in scenario.subs:
        try:
            results[sub.name] = run_scenario(sub, out_dir)
        except PlateHomogError as exc:
            failures[sub.name] = exc
        except MemoryError as exc:
            failures[sub.name] = _out_of_memory(exc)
    rows = [(sub.name, results.get(sub.name, {}).get("artifact", "")) for sub in scenario.subs]
    csv_path = _write_csv(scenario, out_dir, "summary", [("scenario", "artifact"), *rows])
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(scenario.subs)} sweep scenarios failed (summary {csv_path}): "
            + "; ".join(f"{name}: {type(exc).__name__} (exit {exc.exit_code}): {exc}"
                        for name, exc in failures.items()),
            exit_code=max(exc.exit_code for exc in failures.values()),
        )
    return {"artifact": csv_path, "scenarios": results}


_RUNNERS = {
    "reduce": _run_reduce,
    "bending": _run_bending,
    "homog-regime1": _run_regime,
    "homog-regime2": _run_regime,
    "oscillate": _run_oscillate,
    "oracle-check": _run_oracle_check,
    "energy": _run_energy,
    "sweep": _run_sweep,
}
COMMANDS = tuple(_RUNNERS)


def run_scenario(scenario: Scenario, out_dir) -> dict:
    """Run ``scenario`` and write its outputs under ``out_dir``.

    An output that cannot be written (any ``OSError``) is a
    ``SpecFormatError`` that names its path; in a sweep it fails the
    sub-scenario that wrote it.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        result = _RUNNERS[scenario.command](scenario, out_dir)
    except OSError as exc:
        raise SpecFormatError(
            f"{exc.filename or out_dir}: cannot write output: {exc.strerror or exc}"
        ) from exc
    result["runtime_s"] = time.perf_counter() - t0
    return result


def _out_of_memory(exc: MemoryError) -> SizeCapError:
    """An allocation the host refused, reported like the dense-size cap."""
    return SizeCapError(f"out of memory: {str(exc) or 'allocation failed'}")


def _emit_error(exc: PlateHomogError):
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exc.exit_code,
    }
    if isinstance(exc, SolverError) and exc.residuals:
        payload["residuals_tail"] = list(exc.residuals[-5:])
    print(json.dumps(payload), file=sys.stderr)


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be three comma-separated sizes")
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid sizes must be integers, got {text}") from None
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"grid sizes must be >= 1, got {text}")
    return sizes


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ``SpecFormatError`` (exit 2, one JSON
    line) in place of argparse's usage text; ``--help`` is unchanged."""

    def error(self, message):
        raise SpecFormatError(f"{self.prog}: {message}")


def build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="plate-homog",
        description="Effective bending stiffness of periodically structured thin plates.",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--spec", required=True, help="scenario JSON file")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    ap.add_argument("--grid", type=_parse_grid, default=None,
                    help="refine a cell material to n1,n2,n3 (nested multiples only)")
    ap.add_argument("--quadrature", type=int, default=None,
                    help="override x3_samples, the thickness nodes of the regime-1 oracle")
    return ap


def main(argv=None) -> int:
    try:
        args = build_argparser().parse_args(argv)
        scenario = parse_material_spec(args.spec, args.command)
        scenario = _apply_overrides(scenario, args)
        result = run_scenario(scenario, args.out)
        try:
            print(json.dumps({"status": "ok", **result}), flush=True)
        except OSError as exc:      # a closed pipe or a full device
            # the line stays in stdout's buffer: point its descriptor at the null
            # device, so that Python's flush at exit cannot fail a second time
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise SpecFormatError(
                f"stdout: cannot write the status line: {exc.strerror or exc}") from None
    except MemoryError as exc:
        err = _out_of_memory(exc)
        _emit_error(err)
        return err.exit_code
    except PlateHomogError as exc:
        _emit_error(exc)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
