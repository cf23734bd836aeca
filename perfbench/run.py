#!/usr/bin/env python3
"""Benchmark of plate-homog: four closed-loop workloads, checked outputs.

Run from the root of a checkout, without installing the package:

    python3 perfbench/run.py --workload regime1-cells --seed 1 --seconds 26 --trace 0

Each workload runs in its own worker process (``worker.py``) with
``PYTHONPATH=src`` and one BLAS thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a run that
alternates untraced and traced rounds.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("regime1-cells", "regime2-slabs", "dense-oracle", "cli-fixtures")
BLAS_THREADS = "1"
SETUP_SAMPLES = 5          # set-up-only workers per run; setup_s is their median
IMPORT_SAMPLES = 3         # `python -X importtime` runs per traced run
WORKER_TIMEOUT_S = 170

PER_LAYER = (
    "import.plate_homog_s", "import.scipy_linalg_s", "app.parse_s", "app.run_s",
    "iojson.dump_s", "reduction.calls", "reduction.s", "homog3d.check_s",
    "homog3d.regime1_self_s", "homogslab.check_s", "homogslab.fiber_reduce_calls",
    "homogslab.fiber_reduce_s", "homogslab.regime2_self_s", "fem.operator_setup_s",
    "fem.matvec_calls", "fem.matvec_s", "fem.cg_iters", "fem.cg_iters_max", "fem.cg_self_s",
    "fem.rhs_s", "fem.energy_calls", "fem.energy_s", "oracle.assemble_calls",
    "oracle.assemble_s", "oracle.factorizations", "oracle.factor_solve_s",
    "oracle.unknowns_max", "trace.overhead_s",
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args, workdir: Path, setup_only: bool):
    """Start a worker; return it with its set-up time (start to ``READY``)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup


def wait(proc, timeout: float) -> str:
    """Stdout of a worker once it has ended; kill it if it overruns ``timeout``."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def import_times() -> dict:
    """Median cumulative import times from ``python -X importtime``, scaled."""
    samples = {"plate_homog": [], "scipy.linalg": []}
    probe = Probe()
    probes = [probe.seconds()]
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plate_homog"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        probes.append(probe.seconds())
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in samples and parts[1].strip().isdigit():
                    seen[name] = int(parts[1]) / 1e6
        for name, values in samples.items():
            values.append(seen.get(name, 0.0))
    scale = REFERENCE_S / statistics.median(probes)
    return {f"import.{name.replace('.', '_')}_s": statistics.median(values) * scale
            for name, values in samples.items()}


def task_medians(rounds) -> list:
    """Each task's median time over the rounds.

    A slow spell of the machine that hits one round does not move it.
    """
    return [statistics.median(times) for times in zip(*rounds)]


def round_time(rounds) -> float:
    return sum(task_medians(rounds))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "plate_homog" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("run.py: no src/plate_homog or fixtures/ here; run it from the repository root",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        raw_setups, probes = [], []
        if not args.trace:
            probe = Probe()
            probes.append(probe.seconds())
            for i in range(SETUP_SAMPLES):
                proc, setup = start_worker(args, run_dir / f"setup{i}", setup_only=True)
                wait(proc, 60)
                raw_setups.append(setup)
                probes.append(probe.seconds())
        proc, _ = start_worker(args, run_dir / "main", setup_only=False)
        out = wait(proc, WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        summary = json.loads(out.strip().splitlines()[-1])
        layers = import_times() if args.trace else {}
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r["times"] for r in summary["rounds"] if not r["traced"]]
    traced = [r["times"] for r in summary["rounds"] if r["traced"]]
    raw = [r["raw"] for r in summary["rounds"] if not r["traced"]]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"blas_threads={BLAS_THREADS} rounds={len(plain)} traced_rounds={len(traced)} "
          f"tasks_per_round={len(plain[0])} python={sys.version.split()[0]} "
          f"unscaled: wall_s={round_time(raw):.4f} "
          f"task_s_p50={statistics.median(task_medians(raw)):.4f}"
          + (f" setup_s={statistics.median(raw_setups):.4f}" if raw_setups else "")
          + f" probe_s={statistics.median(r['probe_s'] for r in summary['rounds']):.4f}")
    if args.trace:
        layers.update(summary["layers"])
        layers["trace.overhead_s"] = round_time(traced) - round_time(plain)
        metrics = {name: {"value": layers.get(name, 0),
                          "unit": "s" if name.endswith(("_s", ".s")) else "count"}
                   for name in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": round_time(plain), "unit": "s"},
            "task_s_p50": {"value": statistics.median(task_medians(plain)), "unit": "s"},
            "setup_s": {"value": statistics.median(raw_setups) * REFERENCE_S
                        / statistics.median(probes), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
