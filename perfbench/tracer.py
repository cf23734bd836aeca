"""Spans around the public functions of plate_homog, kept in memory.

``Tracer.install()`` replaces each traced function by a wrapper at every
place it is looked up: module globals for functions that other modules
import by name (``conjugate_gradient`` in ``homog3d`` and ``homogslab``,
the regime entry points in ``app``), class attributes for methods.
``uninstall()`` puts the originals back.  Nothing in ``src/`` changes.

A span is ``(id, parent, name, start, end)``; the parent is the span open
on the same thread when it started.  ``metrics()`` turns the spans into
the per-layer figures named in ``README.md``:

- a layer's time is the union of its spans' intervals, so nested and
  concurrent spans (the thread pool of ``sweep``) count once;
- a function's self time is its span minus the union of its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

# span name -> places that hold the function, as (module, attribute) or
# (module, class, method).  Grids built by the oracle are part of its
# assembly, so only the pipelines' grid builders count as operator set-up.
TARGETS = {
    "fem.grid": [("homog3d", "build_cell_grid"), ("homogslab", "build_slab_grid")],
    "fem.operator_init": [("fem", "ElementOperator", "__init__")],
    "fem.matvec": [("fem", "ElementOperator", "matvec")],
    "fem.rhs": [("fem", "ElementOperator", "rhs"), ("fem", "ElementOperator", "rhs_noise_floor")],
    "fem.energy": [("fem", "ElementOperator", "energy"),
                   ("fem", "ElementOperator", "energy_bilinear")],
    "fem.cg": [("homog3d", "conjugate_gradient"), ("homogslab", "conjugate_gradient")],
    "homog3d.check": [("homog3d", "CellMaterial3", "check")],
    "homog3d.regime1": [("homog3d", "bending_form_regime1"), ("app", "bending_form_regime1")],
    "homogslab.check": [("homogslab", "SlabMaterial", "check")],
    "homogslab.fiber_reduce": [("homogslab", "fiber_reduce")],
    "homogslab.regime2": [("homogslab", "bending_form_regime2"), ("app", "bending_form_regime2")],
    "reduction": [("reduction", "plane_stress_reduce"), ("reduction", "bending_form"),
                  ("reduction", "oscillation_experiment"), ("homog3d", "plane_stress_reduce"),
                  ("app", "plane_stress_reduce"), ("app", "bending_form"),
                  ("app", "oscillation_experiment")],
    "oracle.assemble": [("oracle", "assemble_regime1"), ("oracle", "assemble_regime2")],
    "oracle.factor": [("oracle", "cho_factor")],
    "oracle.solve": [("oracle", "DenseProblem", "solve")],
    "app.parse": [("app", "parse_material_spec")],
    "app.run": [("app", "run_scenario")],
    "iojson.dump": [("iojson", "dump_json")],
}

# Metrics that combine by maximum instead of by sum across rounds and processes.
MAX_METRICS = ("fem.cg_iters_max", "oracle.unknowns_max")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {"fem.cg_iters": 0, "fem.cg_iters_max": 0, "oracle.unknowns_max": 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if name == "oracle.assemble" and hasattr(result, "H"):
                tracer.note_max("oracle.unknowns_max", result.H.shape[0])
            return result

        return traced

    def note_max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), int(value))

    def note_iterations(self, iterations) -> None:
        """CG iteration counts of one report's ``diagnostics.solves``."""
        for it in iterations:
            self.counters["fem.cg_iters"] += int(it)
            self.note_max("fem.cg_iters_max", it)

    def install(self) -> None:
        """Wrap every target that exists; a renamed one is skipped and reads 0."""
        for name, places in TARGETS.items():
            for place in places:
                owner = importlib.import_module("plate_homog." + place[0])
                for attr in place[1:-1]:
                    owner = getattr(owner, attr, None)
                attr = place[-1]
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        by_name = {}
        children = {}
        for sid, parent, name, t0, t1 in self.spans:
            by_name.setdefault(name, []).append((sid, t0, t1))
            children.setdefault(parent, []).append((t0, t1))

        def busy(*names):
            return _union([(t0, t1) for n in names for _, t0, t1 in by_name.get(n, ())])

        def calls(*names):
            return sum(len(by_name.get(n, ())) for n in names)

        def self_time(name):
            return sum(t1 - t0 - _union(children.get(sid, ())) for sid, t0, t1 in by_name.get(name, ()))

        out = {
            "app.parse_s": busy("app.parse"),
            "app.run_s": busy("app.run"),
            "iojson.dump_s": busy("iojson.dump"),
            "reduction.calls": calls("reduction"),
            "reduction.s": busy("reduction"),
            "homog3d.check_s": busy("homog3d.check"),
            "homog3d.regime1_self_s": self_time("homog3d.regime1"),
            "homogslab.check_s": busy("homogslab.check"),
            "homogslab.fiber_reduce_calls": calls("homogslab.fiber_reduce"),
            "homogslab.fiber_reduce_s": busy("homogslab.fiber_reduce"),
            "homogslab.regime2_self_s": self_time("homogslab.regime2"),
            "fem.operator_setup_s": busy("fem.grid", "fem.operator_init"),
            "fem.matvec_calls": calls("fem.matvec"),
            "fem.matvec_s": busy("fem.matvec"),
            "fem.cg_self_s": self_time("fem.cg"),
            "fem.rhs_s": busy("fem.rhs"),
            "fem.energy_calls": calls("fem.energy"),
            "fem.energy_s": busy("fem.energy"),
            "oracle.assemble_calls": calls("oracle.assemble"),
            "oracle.assemble_s": busy("oracle.assemble"),
            "oracle.factorizations": calls("oracle.factor"),
            "oracle.factor_solve_s": busy("oracle.solve"),
        }
        out.update(self.counters)
        return out

    def dump(self, path, extra=None) -> None:
        """Write the spans and their metrics as one JSON document."""
        doc = {"metrics": self.metrics(), "spans": self.spans, **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def combine(totals: dict, part: dict) -> None:
    """Add one set of metrics into ``totals`` (maximum for the *_max ones)."""
    for key, value in part.items():
        if key in MAX_METRICS:
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value
