"""One workload in one process: build inputs, then run timed rounds.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread count
fixed.  It prints ``READY`` once the inputs are built (``run.py`` times
set-up up to that line), warms up, then runs whole rounds of the same
tasks in a closed loop: one caller, each task starts when the previous
one returned.  Every output is checked after its task, outside the timed
region, and the speed probe of ``speed.py`` is timed; a round's task
times are scaled by its median probe.  The last line of stdout is a JSON
summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import CheckFailed, load_json
from speed import REFERENCE_S, Probe
from tracer import MAX_METRICS, Tracer, combine

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


class TaskFailed(Exception):
    """The program did not produce an output for a task."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]               # timed: calls the program
    check: Callable[[object], None]         # untimed: raises CheckFailed
    iterations: Callable[[object], list] = lambda out: []


# ----------------------------------------------------------------------
# generated materials (numpy only)


def _interval(rng, n: int) -> np.ndarray:
    """Half of ``n`` cells along one axis, a periodic run at a random start.

    The size is fixed so that the seed moves the inclusion but keeps the
    solver's work: a periodic shift leaves CG iterations unchanged, and
    the cost of a round stays the same from seed to seed.
    """
    mask = np.zeros(n, dtype=bool)
    mask[(int(rng.integers(n)) + np.arange(n // 2)) % n] = True
    return mask


def _inclusion(rng, shape, axes) -> np.ndarray:
    """Box inclusion, periodic, bounded along ``axes`` and full along the rest."""
    mask = np.ones(shape, dtype=bool)
    for ax in axes:
        view = [1, 1, 1]
        view[ax] = shape[ax]
        mask &= _interval(rng, shape[ax]).reshape(view)
    return mask


def _bounds(cells) -> tuple:
    eig = np.linalg.eigvalsh(np.asarray(cells).reshape(-1, 6, 6))
    return float(eig[:, 0].min()) * (1 - 1e-9), float(eig[:, -1].max()) * (1 + 1e-9)


def two_phase_cell(rng, n: int, contrast: float, shape: str):
    """Cell law (n, n, n, 6, 6) and, for laminates, the layer moduli.

    ``column``: an in-plane box inclusion that runs through x3.
    ``box``: a box inclusion bounded along x3 too, so the cell also
    oscillates along x3 (the coupled case).  ``laminate``: zero-Poisson
    layers along x3 only, which has a closed form.  The stiff phase is
    ``contrast`` times the soft one.
    """
    mu = rng.uniform(0.8, 1.2)
    if shape == "laminate":
        layers = np.where(_interval(rng, n), contrast, 1.0) * 2.0 * mu
        c = np.broadcast_to(layers[None, None, :, None, None] * np.eye(6), (n, n, n, 6, 6))
        return np.ascontiguousarray(c), layers
    nu = rng.uniform(0.2, 0.3)
    soft = checks.iso_law(mu, 2.0 * mu * nu / (1.0 - 2.0 * nu))
    mask = _inclusion(rng, (n, n, n), (0, 1) if shape == "column" else (0, 1, 2))
    return np.where(mask[..., None, None], contrast * soft, soft), None


def two_phase_slab(rng, n: int, n3: int, nf: int, contrast: float, layered: bool):
    """Zero-Poisson slab with one fiber of ``nf`` samples per cell.

    The law of cell c at fiber sample j is ``lambda1_c * lambda2_cj *
    2 mu I``.  ``lambda1`` is two-phase in plane (an in-plane box), or,
    when ``layered``, two-phase across the layers and constant in plane,
    with fibers that depend on the layer only.  Returns the material
    arrays and the per-cell in-plane stiffness after the closed-form
    fiber reduction, ``2 mu lambda1 <lambda2>``.
    """
    mu = rng.uniform(0.4, 0.6)
    if layered:
        lam1 = np.broadcast_to(np.where(_interval(rng, n3), contrast, 1.0), (n, n, n3))
        lam2 = np.broadcast_to(rng.uniform(1.0, 2.0, (n3, nf)), (n, n, n3, nf))
    else:
        lam1 = np.broadcast_to(np.where(_inclusion(rng, (n, n, 1), (0, 1)), contrast, 1.0),
                               (n, n, n3))
        lam2 = rng.uniform(1.0, 2.0, (n, n, n3, nf))
    lam1 = np.ascontiguousarray(lam1)
    lam2 = np.ascontiguousarray(lam2).reshape(-1, nf)
    fibers = lam2[:, :, None, None] * (2.0 * mu * np.eye(6))
    lo = float((lam1.reshape(-1) * lam2.min(axis=1)).min()) * 2.0 * mu * (1 - 1e-9)
    hi = float((lam1.reshape(-1) * lam2.max(axis=1)).max()) * 2.0 * mu * (1 + 1e-9)
    inplane = 2.0 * mu * lam1 * lam2.mean(axis=1).reshape(n, n, n3)
    return fibers, lam1, (lo, hi), inplane


def random_spd(rng, lo=1.0, hi=4.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = q @ np.diag(rng.uniform(lo, hi, 6)) @ q.T
    return 0.5 * (m + m.T)


# ----------------------------------------------------------------------
# workloads

# (n, contrast, shape): CG iterations grow with n and contrast, so both a
# cheaper operator and a preconditioner show.  16^3 enters as a laminate
# only, and 12^3 at contrast 3 only: a two-phase 16^3 cell takes 5-15 s
# and a 12^3 cell at contrast 30 about 2.7 s, more than a round can hold.
REGIME1_CELLS = [(8, 30.0, "box"), (10, 3.0, "column"), (10, 30.0, "column"),
                 (12, 3.0, "column"), (16, 30.0, "laminate")]

# (n, n3, fiber samples, contrast, layered)
REGIME2_SLABS = [(8, 4, 4, 3.0, False), (8, 6, 6, 30.0, False), (10, 8, 6, 3.0, False),
                 (12, 6, 8, 3.0, False), (8, 5, 8, 30.0, True)]


def regime1_tasks(rng, workdir) -> list:
    from plate_homog import homog3d, MaterialBounds

    tasks = []
    for n, contrast, shape in REGIME1_CELLS:
        c, layers = two_phase_cell(rng, n, contrast, shape)
        material = homog3d.CellMaterial3(c=c, bounds=MaterialBounds(*_bounds(c)))

        def check(report, c=c, layers=layers):
            checks.check_regime1(c, report.diagnostics["homogenized_form"],
                                 report.form.matrix, layers)

        tasks.append(Task(f"cell{n}-c{contrast:g}-{shape}",
                          run=lambda m=material: homog3d.bending_form_regime1(m),
                          check=check, iterations=_report_iterations))
    return tasks


def regime2_tasks(rng, workdir) -> list:
    from plate_homog import homogslab, MaterialBounds

    tasks = []
    for n, n3, nf, contrast, layered in REGIME2_SLABS:
        fibers, lam1, bounds, inplane = two_phase_slab(rng, n, n3, nf, contrast, layered)
        slab = homogslab.SlabMaterial(
            fibers=fibers, fiber_index=np.arange(n * n * n3).reshape(n, n, n3),
            bounds=MaterialBounds(*bounds), scale=lam1)

        def check(report, inplane=inplane, layered=layered):
            checks.check_regime2(report.form.matrix, inplane, layered)

        tasks.append(Task(f"slab{n}x{n}x{n3}-f{nf}-c{contrast:g}{'-layered' if layered else ''}",
                          run=lambda s=slab: homogslab.bending_form_regime2(s),
                          check=check, iterations=_report_iterations))
    return tasks


def _report_iterations(report) -> list:
    return [s["iterations"] for s in report.diagnostics["solves"]]


def _spec(command, name, material, settings) -> dict:
    return {"convention": "mandel-sqrt2", "command": command, "name": name,
            "material": material, "settings": settings}


def _isotropic_field(mu, lam) -> dict:
    return {"kind": "isotropic-field", "grid": list(mu.shape),
            "mu_grid": mu.ravel().tolist(), "lambda_grid": lam.ravel().tolist()}


def _slab_cells(rng, shape, nf, nfib) -> dict:
    fibers = [[random_spd(rng).tolist() for _ in range(nf)] for _ in range(nfib)]
    return {"kind": "slab-cells", "x3_grid": shape[2], "inplane_grid": list(shape[:2]),
            "fiber_grid": nf, "fibers": fibers,
            "fiber_index": rng.integers(0, nfib, size=shape).ravel().tolist()}


def dense_oracle_specs(rng) -> list:
    """(name, spec, closed-form bending matrix or None).  At most ~1600 unknowns."""
    specs = []
    # 4^3 two-phase cell with Poisson coupling and an x3-bounded inclusion:
    # 3 + 3*8 + 8*192 = 1563 unknowns per load.
    mask = _inclusion(rng, (4, 4, 4), (0, 1, 2))
    mu = np.where(mask, 3.0, 1.0) * rng.uniform(0.8, 1.2)
    specs.append(("cell4", _spec("oracle-check", "cell4", _isotropic_field(mu, 0.5 * mu),
                                 {"x3_samples": 8, "oracle_loads": 3}), None))
    # 3^3 cell of two random anisotropic phases: 507 unknowns, 4 loads.
    phases = [random_spd(rng), random_spd(rng)]
    mask = _inclusion(rng, (3, 3, 3), (0, 1, 2)).ravel()
    forms = [phases[int(m)].tolist() for m in mask]
    specs.append(("cell3-aniso", _spec("oracle-check", "cell3-aniso",
                                       {"kind": "cell", "grid": [3, 3, 3], "forms": forms},
                                       {"x3_samples": 6, "oracle_loads": 4}), None))
    # zero-Poisson laminate along x3: closed form <2 mu>/12 I.  Two cells in
    # plane: on a one-cell axis an element holds the same periodic node
    # twice, and the oracle's assembly keeps only one of its two blocks.
    mu = np.where(_interval(rng, 6), 3.0, 1.0) * rng.uniform(0.8, 1.2)
    lam = np.broadcast_to(mu, (2, 2, 6))
    specs.append(("cell-laminate", _spec("oracle-check", "cell-laminate",
                                         _isotropic_field(lam, 0.0 * lam),
                                         {"x3_samples": 8, "oracle_loads": 3}),
                  checks.plane_stress(checks.laminate_law(2.0 * mu)) / 12.0))
    # slab of random anisotropic fibers: 1407 unknowns.
    specs.append(("slab3", _spec("oracle-check", "slab3", _slab_cells(rng, (3, 3, 3), 3, 4),
                                 {"oracle_loads": 3}), None))
    # separable zero-Poisson slab, constant lambda1: closed form 2 mu lambda1 <lambda2> / 12.
    mu, lam1, lam2 = rng.uniform(0.4, 0.6), rng.uniform(0.8, 1.2), rng.uniform(1.0, 3.0, 4)
    material = {"kind": "slab", "x3_grid": 4, "inplane_grid": [2, 2], "fiber_grid": 4,
                "lambda1": lam1, "lambda2": lam2.tolist(), "mu": mu}
    specs.append(("slab-laminate", _spec("oracle-check", "slab-laminate", material,
                                         {"oracle_loads": 3}),
                  2.0 * mu * lam1 * lam2.mean() / 12.0 * np.eye(3)))
    return specs


def dense_oracle_tasks(rng, workdir) -> list:
    import plate_homog
    from plate_homog import app

    a = np.array([1.0, 1.0, 0.0])     # Mandel coordinates of the identity
    tasks = []
    for name, spec, closed in dense_oracle_specs(rng):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out_dir = workdir / "out"

        def run(path=path, closed=closed, spec=spec):
            scenario = app.parse_material_spec(path)
            result = app.run_scenario(scenario, out_dir)
            report = json.loads(Path(result["artifact"]).read_text(encoding="utf-8"))
            energy = None
            if closed is not None:
                material = scenario.material
                if isinstance(material, plate_homog.CellMaterial3):
                    energy = plate_homog.brute_force_regime1(
                        material, a, x3_samples=spec["settings"]["x3_samples"])
                else:
                    energy = plate_homog.brute_force_regime2(material, a)
            return report, energy

        def check(out, closed=closed):
            report, energy = out
            checks.check_oracle_report(report)
            if closed is not None:
                checks.expect_close("dense oracle vs laminate closed form", energy, a @ closed @ a)

        tasks.append(Task(name, run=run, check=check))
    return tasks


# The five malformed specs: each should end in exit 2 with one JSON error
# line.  They do not depend on the seed, so the share of failed tasks is
# the same in every run.
def malformed_specs() -> dict:
    iso = checks.iso_law(1.0, 0.0)
    nan, asym = iso.tolist(), iso.tolist()
    nan[0][0] = float("nan")
    asym[0][1] = 0.5
    field = {"kind": "isotropic-field", "grid": [1, 1, 2], "mu_grid": [0.5, 1.5],
             "lambda_grid": [0.0, 0.0]}
    env = {"convention": "mandel-sqrt2"}
    return {
        "bad-form3-nan": dict(env, command="reduce", material={"kind": "form3", "matrix": nan}),
        "bad-form3-asym": dict(env, command="reduce", material={"kind": "form3", "matrix": asym}),
        "bad-tol": dict(env, command="reduce", settings={"tol": "abc"},
                        material={"kind": "isotropic", "mu": 1.0, "lambda": 1.0}),
        "bad-mu-grid": dict(env, command="homog-regime1", material=dict(field, mu_grid=["x", 1.5])),
        "bad-grid": dict(env, command="homog-regime1", material=dict(field, grid="ab")),
    }


def cli_tasks(rng, workdir, traced_flag) -> list:
    inputs = workdir / "inputs"
    inputs.mkdir()
    entries = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        shutil.copyfile(path, inputs / path.name)
        entries.append((path.stem, spec, False))
    for name, spec in malformed_specs().items():
        (inputs / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
        entries.append((name, spec, True))

    tasks = []
    for i in rng.permutation(len(entries)):
        name, spec, malformed = entries[int(i)]
        out_dir = workdir / "out" / name
        cmd = [spec["command"], "--spec", str(inputs / f"{name}.json"), "--out", str(out_dir)]

        def run(cmd=cmd, out_dir=out_dir, malformed=malformed, name=name):
            shutil.rmtree(out_dir, ignore_errors=True)
            env = dict(os.environ)
            if traced_flag[0]:
                env["PERFBENCH_TRACE_FILE"] = str(workdir / f"trace-{name}.json")
                argv = [sys.executable, "-X", "importtime", str(HERE / "cli_traced.py")] + cmd
            else:
                argv = [sys.executable, "-m", "plate_homog"] + cmd
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150)
            stderr = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
            if malformed:
                if proc.returncode != 2 or len(stderr) != 1 or _error_code(stderr[0]) != 2:
                    raise TaskFailed(f"{name}: exit {proc.returncode}, stderr {stderr[-1:]!r}")
            elif proc.returncode != 0:
                raise TaskFailed(f"{name}: exit {proc.returncode}, stderr {stderr[-1:]!r}")
            return proc.stdout

        def check(stdout, spec=spec, malformed=malformed):
            if malformed:
                return
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            if len(lines) != 1:
                raise CheckFailed(f"expected one JSON status line, got {len(lines)}")
            status = json.loads(lines[0])
            if status.get("status") != "ok":
                raise CheckFailed(f"status line {lines[0][:80]!r}")
            checks.check_cli_output(spec, status)

        tasks.append(Task(name, run=run, check=check))
    return tasks


def _error_code(line: str):
    """``exit_code`` of a JSON error line, or None for any other line."""
    try:
        return json.loads(line).get("exit_code")
    except (ValueError, AttributeError):
        return None


WORKLOADS = {
    "regime1-cells": regime1_tasks,
    "regime2-slabs": regime2_tasks,
    "dense-oracle": dense_oracle_tasks,
}


# ----------------------------------------------------------------------
# the timed loop


def run_task(task, state, tracer, failures):
    """Run and check one task; return its time in seconds."""
    t0 = time.perf_counter()
    try:
        out = task.run()
    except failures as exc:
        state["failed"] += 1
        state["failures"].add(f"{task.name}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    try:
        task.check(out)
    except CheckFailed as exc:
        state["correct"] = False
        print(f"check failed: {task.name}: {exc}", file=sys.stderr)
    if tracer is not None:
        tracer.note_iterations(task.iterations(out))
    return dt


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    cli = args.workload == "cli-fixtures"
    traced_flag = [False]     # read by the CLI tasks: launch traced children
    if cli:
        tasks = cli_tasks(rng, workdir, traced_flag)
        failures = (TaskFailed,)
    else:
        import plate_homog    # set-up covers the package import

        tasks = WORKLOADS[args.workload](rng, workdir)
        failures = (TaskFailed, plate_homog.PlateHomogError)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Warm-up: one untimed task fills caches and finishes lazy set-up
    # (first-touch pages, submodules imported on first use).
    try:
        tasks[0].run()
    except failures:
        pass

    # Whole rounds until the next one would overrun --seconds; a traced
    # run alternates untraced and traced rounds and needs one of each.
    probe = Probe()
    tracer = Tracer() if args.trace and not cli else None
    state = {"correct": True, "attempted": 0, "failed": 0, "failures": set()}
    layer_totals, rounds, child_traces = {}, [], []
    start = time.perf_counter()
    longest = 0.0
    while len(rounds) < (2 if args.trace else 1) or (
            time.perf_counter() - start + longest <= args.seconds):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        traced_flag[0] = traced
        if traced and tracer is not None:
            tracer.install()
        t_round = time.perf_counter()
        raw, probes = [], [probe.seconds()]
        for task in tasks:
            raw.append(run_task(task, state, tracer if traced else None, failures))
            probes.append(probe.seconds())
            state["attempted"] += 1
            trace_file = workdir / f"trace-{task.name}.json"
            if traced and cli and trace_file.exists():
                child_traces.append(load_json(trace_file))
                combine(layer_totals, child_traces[-1]["metrics"])
                trace_file.unlink()
        if traced and tracer is not None:
            tracer.uninstall()
        longest = max(longest, time.perf_counter() - t_round)
        probe_s = statistics.median(probes)
        rounds.append({"traced": traced, "times": [t * REFERENCE_S / probe_s for t in raw],
                       "raw": raw, "probe_s": probe_s})

    for failure in sorted(state.pop("failures")):
        print(f"task failed: {failure}", file=sys.stderr)
    trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    if tracer is not None:
        combine(layer_totals, tracer.metrics())
        tracer.dump(trace_path)
    elif child_traces:
        trace_path.write_text(json.dumps({"children": child_traces}), encoding="utf-8")
    # Per traced round; layer times scaled like the task times of those rounds.
    traced_rounds = [r for r in rounds if r["traced"]]
    layers = {}
    if traced_rounds:
        scale = statistics.median(REFERENCE_S / r["probe_s"] for r in traced_rounds)
        for key, value in layer_totals.items():
            if key not in MAX_METRICS:
                value /= len(traced_rounds)
                if key.endswith(("_s", ".s")):
                    value *= scale
            layers[key] = value
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    summary = dict(state, rounds=rounds, peak_rss_mb=usage.ru_maxrss / 1024.0, layers=layers)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
