"""JSON schemas for materials, profiles and reports.

Everything on disk is JSON with an explicit ``"convention":
"mandel-sqrt2"`` tag: matrices are row-major Mandel matrices with
sqrt(2)-weighted shear slots.  Python's shortest round-trip float
formatting is used, so serializing and re-parsing reproduces matrices
bit-exactly.  The schemas are documented in ``docs/formats.md`` with one
fixture each under ``fixtures/``.

The cell and slab readers import ``homog3d`` and ``homogslab`` (and with
them ``fem``) only once the values they read have passed their checks, so
a spec refused before its material is built loads no solver module.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .core import (MaterialBounds, QuadForm2, QuadForm3, isotropic_matrix, layer_weights,
                   qf_isotropic)
from .errors import SpecFormatError
from .reduction import RULE_GAUSS, RULE_LAYERS, RULE_MIDPOINT, ThicknessProfile

CONVENTION = "mandel-sqrt2"


def _fail(path: str, message: str):
    raise SpecFormatError(f"{path}: {message}")


@contextmanager
def at_key(path: str):
    """Report a value that the code inside refuses (``ValueError``, ``TypeError``,
    ``OverflowError``) as a malformed value at the key path ``path``."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise SpecFormatError(f"{path}: malformed value: {exc}") from exc


def _get(obj: dict, key: str, path: str, required=True, default=None, convert=None):
    """``obj[key]``, passed through ``convert`` when given, which names the key
    path ``path.key`` when it refuses the value.  An ``obj`` that is no JSON
    object is refused under its own key path ``path``."""
    if not isinstance(obj, dict):
        _fail(path, f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", f"missing required field {key!r}")
        return default
    if convert is None:
        return obj[key]
    with at_key(f"{path}.{key}"):
        return convert(obj[key])


def _floats(value) -> np.ndarray:
    """Numbers as a float array; ``null``, at any depth, is refused, not read as NaN."""
    a = np.asarray(value, dtype=float)
    if np.isnan(a).any() and _has_null(value):
        raise TypeError("expected a number or a list of numbers, got null")
    return a


def _finite(value) -> np.ndarray:
    """``_floats`` whose entries must all be finite: NaN and infinity are refused."""
    a = _floats(value)
    if not np.isfinite(a).all():
        raise ValueError(f"expected finite numbers, got {a[~np.isfinite(a)].flat[0]}")
    return a


def _positive(value) -> np.ndarray:
    """``_finite`` whose entries must all be positive."""
    a = _finite(value)
    if not (a > 0.0).all():
        raise ValueError(f"expected positive numbers, got {a[a <= 0.0].flat[0]}")
    return a


def _non_negative(value) -> np.ndarray:
    """``_finite`` whose entries must all be zero or positive."""
    a = _finite(value)
    if not (a >= 0.0).all():
        raise ValueError(f"expected non-negative numbers, got {a[a < 0.0].flat[0]}")
    return a


def _has_null(value) -> bool:
    """Whether ``value`` is ``null`` or a list that holds one at any depth."""
    return value is None or isinstance(value, list) and any(map(_has_null, value))


def _index_array(value) -> np.ndarray:
    """Integer array of JSON numbers; booleans and non-integral numbers are refused."""
    a = np.asarray(value, dtype=float)
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise ValueError("entries must be integers, got a boolean")
    if not ((np.abs(a) < 2.0 ** 63).all() and np.array_equal(a, np.round(a))):
        raise ValueError("entries must be integers in the int64 range")
    return a.astype(np.int64)


def _int(value) -> int:
    """One integer, refused like an entry of ``_index_array``."""
    a = _index_array(value)
    if a.ndim != 0:
        raise ValueError(f"expected one integer, got an array of shape {a.shape}")
    return int(a)


def _list(value) -> list:
    """A JSON list, refused with ``TypeError`` otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _ints(value) -> tuple:
    """A list of integers, refused like the entries of ``_index_array``."""
    a = _index_array(value)
    if a.ndim != 1:
        raise ValueError(f"expected a list of integers, got an array of shape {a.shape}")
    return tuple(int(v) for v in a)


def _matrix(value, n: int, path: str) -> np.ndarray:
    with at_key(path):
        m = _floats(value)
    if m.shape != (n, n):
        _fail(path, f"expected a {n}x{n} matrix, got shape {m.shape}")
    return m


def check_convention(obj: dict, path: str):
    tag = _get(obj, "convention", path)
    if tag != CONVENTION:
        _fail(path + ".convention", f"convention mismatch: expected {CONVENTION!r}, got {tag!r}")


def read_bounds(obj, path: str) -> MaterialBounds | None:
    if obj is None:
        return None
    eta1 = _get(obj, "eta1", path + ".bounds", convert=float)
    eta2 = _get(obj, "eta2", path + ".bounds", convert=float)
    return MaterialBounds(eta1, eta2)


def read_form(obj: dict, path: str):
    """A single quadratic form: kinds form3, form2, isotropic."""
    kind = _get(obj, "kind", path)
    label = str(obj.get("label", ""))
    if kind in ("form3", "form2"):
        form, n = (QuadForm3, 6) if kind == "form3" else (QuadForm2, 3)
        with at_key(path + ".matrix"):
            return form(_matrix(_get(obj, "matrix", path), n, path + ".matrix"), label=label)
    if kind == "isotropic":
        mu = _get(obj, "mu", path, convert=float)
        lam = _get(obj, "lambda", path, convert=float)
        with at_key(path):
            return qf_isotropic(mu, lam, label=label)
    _fail(path, f"unknown form kind {kind!r}")


def form_to_dict(q) -> dict:
    kind = "form3" if isinstance(q, QuadForm3) else "form2"
    out = {"convention": CONVENTION, "kind": kind, "matrix": q.matrix.tolist()}
    if q.label:
        out["label"] = q.label
    return out


def _profile_form(value, path: str):
    with at_key(path):
        m = _floats(value)
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
        breaks = [_get(layers[0], "from", path + ".layers[0]", convert=float)]
        forms = []
        for i, layer in enumerate(layers):
            lp = f"{path}.layers[{i}]"
            lo = _get(layer, "from", lp, convert=float)
            hi = _get(layer, "to", lp, convert=float)
            if abs(lo - breaks[-1]) > 1e-12:
                _fail(lp, f"layer does not start where the previous one ends ({lo} vs {breaks[-1]})")
            breaks.append(hi)
            forms.append(_profile_form(_get(layer, "form", lp), lp + ".form"))
        with at_key(path):
            return ThicknessProfile(tuple(forms), rule=RULE_LAYERS, breaks=np.array(breaks))
    if "samples" in obj:
        rule = _get(obj, "rule", path)
        if rule not in (RULE_MIDPOINT, RULE_GAUSS):
            _fail(path, f"rule must be {RULE_MIDPOINT!r} or {RULE_GAUSS!r}, got {rule!r}")
        forms = [_profile_form(v, f"{path}.samples[{i}]")
                 for i, v in enumerate(_get(obj, "samples", path, convert=_list))]
        with at_key(path):
            return ThicknessProfile(tuple(forms), rule=rule)
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


def read_cell_material(obj: dict, path: str):
    """A ``homog3d.CellMaterial3``, checked against its bounds when built."""
    kind = _get(obj, "kind", path)
    grid = _get(obj, "grid", path, convert=_ints)
    if len(grid) != 3 or min(grid) < 1:
        _fail(path, f"grid must be three sizes >= 1, got {grid}")
    n = grid[0] * grid[1] * grid[2]
    if kind == "cell":
        def stack(forms):
            if len(forms) != n:
                _fail(path, f"expected {n} forms for grid {grid}, got {len(forms)}")
            return np.stack([_matrix(f, 6, f"{path}.forms[{i}]") for i, f in enumerate(forms)])

        c = _get(obj, "forms", path, convert=stack).reshape(*grid, 6, 6)
    elif kind == "isotropic-field":
        def moduli(key, convert):
            values = _get(obj, key, path, convert=convert).reshape(-1)
            if values.size != n:
                _fail(f"{path}.{key}", f"expected {n} values for grid {grid}, got {values.size}")
            return values

        mu, lam = moduli("mu_grid", _positive), moduli("lambda_grid", _non_negative)
        c = isotropic_matrix(mu, lam).reshape(*grid, 6, 6)
    else:
        _fail(path, f"unknown cell material kind {kind!r}")
    bounds = read_bounds(obj.get("bounds"), path)
    from .homog3d import CellMaterial3

    with at_key(path):
        return CellMaterial3(c=c, bounds=bounds)


def read_slab_material(obj: dict, path: str):
    """A ``homogslab.SlabMaterial``, checked against its bounds when built."""
    kind = _get(obj, "kind", path)
    nx3 = _get(obj, "x3_grid", path, convert=_int)
    with at_key(path + ".inplane_grid"):
        n1, n2 = _get(obj, "inplane_grid", path, convert=_ints)
    nf = _get(obj, "fiber_grid", path, convert=_int)
    if min(nx3, n1, n2, nf) < 1:
        _fail(path, "grid sizes must be >= 1")
    shape = (n1, n2, nx3)
    ncells = n1 * n2 * nx3
    bounds = read_bounds(obj.get("bounds"), path)
    if kind == "slab":
        lam2 = _get(obj, "lambda2", path, convert=_positive)
        if lam2.shape != (nf,):
            _fail(f"{path}.lambda2", f"expected a list of {nf} samples, got shape {lam2.shape}")
        lam1 = _get(obj, "lambda1", path, convert=_positive)
        if lam1.ndim == 0:
            lam1 = np.full(shape, float(lam1))
        elif lam1.size == ncells:
            lam1 = lam1.reshape(shape)
        else:
            _fail(f"{path}.lambda1",
                  f"expected a number or {ncells} values, got shape {lam1.shape}")
        mu = _get(obj, "mu", path, convert=lambda v: float(_positive(float(v))))
        from .homogslab import SlabMaterial

        with at_key(path):
            return SlabMaterial.separable(lam1, lam2, mu, bounds=bounds)
    if kind == "slab-cells":
        fibers = _get(obj, "fibers", path, convert=lambda raw: np.stack([
            np.stack([_matrix(m, 6, f"{path}.fibers[{i}][{j}]") for j, m in enumerate(fib)])
            for i, fib in enumerate(raw)
        ]))
        if fibers.shape[1] != nf:
            _fail(path, f"each fiber must hold {nf} samples")

        def fiber_ids(value):
            index = _index_array(value)
            if index.size and not (0 <= index.min() and index.max() < len(fibers)):
                raise ValueError(f"entries must name one of the {len(fibers)} fibers, "
                                 f"from 0 to {len(fibers) - 1}")
            return index

        index = _get(obj, "fiber_index", path, convert=fiber_ids)
        if index.size != ncells:
            _fail(f"{path}.fiber_index", f"expected {ncells} entries, got {index.size}")
        index = index.reshape(shape)
        scale = obj.get("scale")
        if scale is not None:
            scale = _get(obj, "scale", path, convert=lambda v: _positive(v).reshape(shape))
        weights = obj.get("weights")
        if weights is not None:
            weights = _get(obj, "weights", path, convert=lambda v: layer_weights(_floats(v), nf))
        from .homogslab import SlabMaterial

        with at_key(path):
            return SlabMaterial(fibers=fibers, fiber_index=index, bounds=bounds,
                                weights=weights, scale=scale)
    _fail(path, f"unknown slab material kind {kind!r}")


def report_to_dict(report) -> dict:
    return {
        "convention": CONVENTION,
        "kind": "effective-report",
        "regime": report.regime,
        "matrix": report.form.matrix.tolist(),
        "eigenvalues": report.eigenvalues().tolist(),
        "optimal_b": report.optimal_b.tolist(),
        "diagnostics": report.diagnostics,
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
