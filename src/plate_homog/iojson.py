"""JSON schemas for materials, profiles and reports.

Everything on disk is JSON with an explicit ``"convention":
"mandel-sqrt2"`` tag: matrices are row-major Mandel matrices with
sqrt(2)-weighted shear slots.  Python's shortest round-trip float
formatting is used, so serializing and re-parsing reproduces matrices
bit-exactly.  The schemas are documented in ``docs/formats.md`` with one
fixture each under ``fixtures/``.
"""

from __future__ import annotations

import json

import numpy as np

from .core import MaterialBounds, QuadForm2, QuadForm3, qf_isotropic
from .errors import SpecFormatError
from .homog3d import CellMaterial3
from .homogslab import SlabMaterial
from .reduction import RULE_GAUSS, RULE_LAYERS, RULE_MIDPOINT, ThicknessProfile

CONVENTION = "mandel-sqrt2"


def _fail(path: str, message: str):
    raise SpecFormatError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, required=True, default=None):
    if key not in obj:
        if required:
            _fail(path, f"missing required field {key!r}")
        return default
    return obj[key]


def _matrix(value, n: int, path: str) -> np.ndarray:
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "matrix entries must be numbers")
    if m.shape != (n, n):
        _fail(path, f"expected a {n}x{n} matrix, got shape {m.shape}")
    return m


def check_convention(obj: dict, path: str):
    tag = _get(obj, "convention", path)
    if tag != CONVENTION:
        _fail(path, f"convention mismatch: expected {CONVENTION!r}, got {tag!r}")


def read_bounds(obj, path: str) -> MaterialBounds | None:
    if obj is None:
        return None
    eta1 = _get(obj, "eta1", path + ".bounds")
    eta2 = _get(obj, "eta2", path + ".bounds")
    return MaterialBounds(float(eta1), float(eta2))


def read_form(obj: dict, path: str):
    """A single quadratic form: kinds form3, form2, isotropic."""
    kind = _get(obj, "kind", path)
    label = str(obj.get("label", ""))
    if kind == "form3":
        return QuadForm3(_matrix(_get(obj, "matrix", path), 6, path), label=label)
    if kind == "form2":
        return QuadForm2(_matrix(_get(obj, "matrix", path), 3, path), label=label)
    if kind == "isotropic":
        mu = float(_get(obj, "mu", path))
        lam = float(_get(obj, "lambda", path))
        try:
            return qf_isotropic(mu, lam, label=label)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, f"unknown form kind {kind!r}")


def form_to_dict(q) -> dict:
    kind = "form3" if isinstance(q, QuadForm3) else "form2"
    out = {"convention": CONVENTION, "kind": kind, "matrix": q.matrix.tolist()}
    if q.label:
        out["label"] = q.label
    return out


def _profile_form(value, path: str):
    m = np.asarray(value, dtype=float)
    if m.shape == (3, 3):
        return QuadForm2(m)
    if m.shape == (6, 6):
        return QuadForm3(m)
    _fail(path, f"profile forms must be 3x3 or 6x6 matrices, got shape {m.shape}")


def read_profile(obj: dict, path: str) -> ThicknessProfile:
    if "layers" in obj:
        layers = obj["layers"]
        if not isinstance(layers, list) or not layers:
            _fail(path, "layers must be a non-empty list")
        breaks = [float(_get(layers[0], "from", path + ".layers[0]"))]
        forms = []
        for i, layer in enumerate(layers):
            lp = f"{path}.layers[{i}]"
            lo = float(_get(layer, "from", lp))
            hi = float(_get(layer, "to", lp))
            if abs(lo - breaks[-1]) > 1e-12:
                _fail(lp, f"layer does not start where the previous one ends ({lo} vs {breaks[-1]})")
            breaks.append(hi)
            forms.append(_profile_form(_get(layer, "form", lp), lp))
        try:
            return ThicknessProfile(tuple(forms), rule=RULE_LAYERS, breaks=np.array(breaks))
        except ValueError as exc:
            _fail(path, str(exc))
    if "samples" in obj:
        rule = _get(obj, "rule", path)
        if rule not in (RULE_MIDPOINT, RULE_GAUSS):
            _fail(path, f"rule must be {RULE_MIDPOINT!r} or {RULE_GAUSS!r}, got {rule!r}")
        forms = [
            _profile_form(v, f"{path}.samples[{i}]") for i, v in enumerate(obj["samples"])
        ]
        try:
            return ThicknessProfile(tuple(forms), rule=rule)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, "profile needs either 'layers' or 'samples'")


def profile_to_dict(profile: ThicknessProfile) -> dict:
    out = {"convention": CONVENTION, "kind": "profile"}
    if profile.rule == RULE_LAYERS:
        out["layers"] = [
            {"from": float(lo), "to": float(hi), "form": f.matrix.tolist()}
            for lo, hi, f in zip(profile.breaks[:-1], profile.breaks[1:], profile.forms)
        ]
    else:
        out["rule"] = profile.rule
        out["samples"] = [f.matrix.tolist() for f in profile.forms]
    return out


def read_cell_material(obj: dict, path: str) -> CellMaterial3:
    kind = _get(obj, "kind", path)
    grid = tuple(int(v) for v in _get(obj, "grid", path))
    if len(grid) != 3 or min(grid) < 1:
        _fail(path, f"grid must be three sizes >= 1, got {grid}")
    n = grid[0] * grid[1] * grid[2]
    if kind == "cell":
        forms = _get(obj, "forms", path)
        if len(forms) != n:
            _fail(path, f"expected {n} forms for grid {grid}, got {len(forms)}")
        c = np.stack([_matrix(f, 6, f"{path}.forms[{i}]") for i, f in enumerate(forms)])
        c = c.reshape(*grid, 6, 6)
    elif kind == "isotropic-field":
        mu = np.asarray(_get(obj, "mu_grid", path), dtype=float).reshape(-1)
        lam = np.asarray(_get(obj, "lambda_grid", path), dtype=float).reshape(-1)
        if mu.size != n or lam.size != n:
            _fail(path, f"mu_grid and lambda_grid must each hold {n} values")
        if np.any(mu <= 0.0) or np.any(lam < 0.0):
            _fail(path, "mu_grid must be positive and lambda_grid non-negative")
        t = np.zeros(6)
        t[:3] = 1.0
        c = (
            2.0 * mu[:, None, None] * np.eye(6)
            + lam[:, None, None] * np.outer(t, t)
        ).reshape(*grid, 6, 6)
    else:
        _fail(path, f"unknown cell material kind {kind!r}")
    return CellMaterial3(c=c, bounds=read_bounds(obj.get("bounds"), path))


def read_slab_material(obj: dict, path: str) -> SlabMaterial:
    kind = _get(obj, "kind", path)
    nx3 = int(_get(obj, "x3_grid", path))
    n1, n2 = (int(v) for v in _get(obj, "inplane_grid", path))
    nf = int(_get(obj, "fiber_grid", path))
    if min(nx3, n1, n2, nf) < 1:
        _fail(path, "grid sizes must be >= 1")
    shape = (n1, n2, nx3)
    ncells = n1 * n2 * nx3
    bounds = read_bounds(obj.get("bounds"), path)
    if kind == "slab":
        lam2 = np.asarray(_get(obj, "lambda2", path), dtype=float)
        if lam2.size != nf:
            _fail(path, f"lambda2 must hold {nf} samples")
        lam1 = _get(obj, "lambda1", path)
        lam1 = np.asarray(lam1, dtype=float)
        if lam1.ndim == 0:
            lam1 = np.full(shape, float(lam1))
        elif lam1.size == ncells:
            lam1 = lam1.reshape(shape)
        else:
            _fail(path, f"lambda1 must be a scalar or {ncells} values")
        mu = float(_get(obj, "mu", path))
        if mu <= 0.0 or np.any(lam1 <= 0.0) or np.any(lam2 <= 0.0):
            _fail(path, "mu, lambda1, lambda2 must be positive")
        return SlabMaterial.separable(lam1, lam2, mu, bounds=bounds)
    if kind == "slab-cells":
        fibers_raw = _get(obj, "fibers", path)
        fibers = np.stack(
            [
                np.stack([_matrix(m, 6, f"{path}.fibers[{i}][{j}]") for j, m in enumerate(fib)])
                for i, fib in enumerate(fibers_raw)
            ]
        )
        if fibers.shape[1] != nf:
            _fail(path, f"each fiber must hold {nf} samples")
        index = np.asarray(_get(obj, "fiber_index", path), dtype=np.int64)
        if index.size != ncells:
            _fail(path, f"fiber_index must hold {ncells} entries")
        index = index.reshape(shape)
        scale = obj.get("scale")
        if scale is not None:
            scale = np.asarray(scale, dtype=float).reshape(shape)
        weights = obj.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
        try:
            return SlabMaterial(
                fibers=fibers, fiber_index=index, bounds=bounds,
                weights=weights, scale=scale,
            )
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, f"unknown slab material kind {kind!r}")


def report_to_dict(report, settings: dict | None = None) -> dict:
    return {
        "convention": CONVENTION,
        "kind": "effective-report",
        "regime": report.regime,
        "matrix": report.form.matrix.tolist(),
        "eigenvalues": report.eigenvalues().tolist(),
        "optimal_b": report.optimal_b.tolist(),
        "diagnostics": report.diagnostics,
        "settings": dict(settings or {}),
    }


def read_report(obj: dict, path: str = "report"):
    from .core import EffectiveReport

    check_convention(obj, path)
    if _get(obj, "kind", path) != "effective-report":
        _fail(path, "not an effective-report document")
    return EffectiveReport(
        form=QuadForm2(_matrix(_get(obj, "matrix", path), 3, path)),
        optimal_b=_matrix(_get(obj, "optimal_b", path), 3, path),
        regime=str(_get(obj, "regime", path)),
        diagnostics=dict(obj.get("diagnostics", {})),
    )


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecFormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON ({exc})") from None


def dump_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
