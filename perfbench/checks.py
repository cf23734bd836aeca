"""Reference values and output checks computed apart from plate_homog.

Everything here uses numpy alone, so a fault in the program cannot hide
by being repeated in its own check.  Matrices are Mandel matrices as in
``docs/formats.md``: 6x6 on symmetric 3x3 strains, 3x3 on symmetric 2x2
strains, in-plane slots (0, 1, 5) and out-of-plane slots (2, 3, 4).

Each check raises ``CheckFailed`` and returns nothing otherwise.  The
tolerance ``RTOL`` sits far above the rounding and solver error of the
program's outputs (about 1e-12) and far below the 1e-6 perturbation that
``test_checks.py`` requires every check to reject.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RTOL = 1e-9
IN_PLANE = [0, 1, 5]
OUT_OF_PLANE = [2, 3, 4]


class CheckFailed(Exception):
    """A program output disagrees with its independent reference."""


# ----------------------------------------------------------------------
# checks


def expect_close(what: str, got, want, rtol: float = RTOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    diff = float(np.abs(got - want).max(initial=0.0)) / scale
    if not diff <= rtol:
        raise CheckFailed(f"{what}: relative difference {diff:.3e} > {rtol:g}")


def expect_loewner_le(what: str, lower, upper, rtol: float = RTOL) -> None:
    """``upper - lower`` must be positive semidefinite, up to ``rtol``."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = upper - lower
    emin = float(np.linalg.eigvalsh(0.5 * (d + d.T))[0])
    scale = max(float(np.abs(np.linalg.eigvalsh(upper)).max()),
                float(np.abs(np.linalg.eigvalsh(lower)).max()))
    if not emin >= -rtol * scale:
        raise CheckFailed(f"{what}: order violated by {-emin / scale:.3e} relative")


def expect_spd(what: str, m, rtol: float = RTOL) -> None:
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m).max())
    asym = float(np.abs(m - m.T).max()) / scale
    if not asym <= rtol:
        raise CheckFailed(f"{what}: asymmetry {asym:.3e} > {rtol:g}")
    emin = float(np.linalg.eigvalsh(m)[0])
    if not emin > rtol * scale:
        raise CheckFailed(f"{what}: smallest eigenvalue {emin:.3e} is not positive")


# ----------------------------------------------------------------------
# reference computations


def iso_law(mu, lam) -> np.ndarray:
    """Mandel matrix ``2 mu I + lam t t^T`` of an isotropic law."""
    t = np.zeros(6)
    t[:3] = 1.0
    return 2.0 * mu * np.eye(6) + lam * np.outer(t, t)


def plane_stress(c6) -> np.ndarray:
    """Schur complement of the out-of-plane block of a 6x6 law."""
    c6 = np.asarray(c6, dtype=float)
    pp = c6[np.ix_(IN_PLANE, IN_PLANE)]
    po = c6[np.ix_(IN_PLANE, OUT_OF_PLANE)]
    oo = c6[np.ix_(OUT_OF_PLANE, OUT_OF_PLANE)]
    s = pp - po @ np.linalg.solve(oo, po.T)
    return 0.5 * (s + s.T)


def voigt_reuss(cells) -> tuple:
    """Arithmetic mean <C> and harmonic mean <C^-1>^-1 of equal-volume cells."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 6, 6)
    voigt = cells.mean(axis=0)
    reuss = np.linalg.inv(np.linalg.inv(cells).mean(axis=0))
    return voigt, 0.5 * (reuss + reuss.T)


def laminate_law(moduli) -> np.ndarray:
    """Homogenized law of equal layers ``m_k I`` stacked along x3.

    In-plane strains are continuous across the layers (arithmetic mean),
    out-of-plane stresses too (harmonic mean).
    """
    m = np.asarray(moduli, dtype=float)
    a = float(m.mean())
    h = 1.0 / float((1.0 / m).mean())
    return np.diag([a, a, h, h, h, a])


def slab_zero_corrector_bound(p) -> np.ndarray:
    """Bending form of the slab with no corrector, for laws ``p_c I`` in plane.

    ``p`` holds one in-plane stiffness per cell of an (n1, n2, n3) slab
    over the thickness [-1/2, 1/2].  With the corrector set to zero the
    energy of the loads (x3 A, B) is a moment integral, and eliminating
    B leaves ``(M2 - M1^2 / M0) I``.  The true minimum lies below it.
    """
    p = np.asarray(p, dtype=float)
    n3 = p.shape[2]
    lo = -0.5 + np.arange(n3) / n3
    hi = lo + 1.0 / n3
    layer = p.mean(axis=(0, 1))
    m0 = float(layer @ (hi - lo))
    m1 = float(layer @ (hi**2 - lo**2)) / 2.0
    m2 = float(layer @ (hi**3 - lo**3)) / 3.0
    return (m2 - m1 * m1 / m0) * np.eye(3)


def profile_bending(breaks, forms) -> np.ndarray:
    """``M2 - M1 M0^-1 M1`` of a piecewise-constant thickness profile.

    ``forms`` are 3x3 plane-stress laws or 6x6 laws, reduced here.
    """
    breaks = np.asarray(breaks, dtype=float)
    mats = np.stack([plane_stress(f) if np.shape(f) == (6, 6) else np.asarray(f, dtype=float)
                     for f in forms])
    lo, hi = breaks[:-1], breaks[1:]
    m0 = np.einsum("i,ijk->jk", hi - lo, mats)
    m1 = np.einsum("i,ijk->jk", (hi**2 - lo**2) / 2.0, mats)
    m2 = np.einsum("i,ijk->jk", (hi**3 - lo**3) / 3.0, mats)
    q = m2 - m1 @ np.linalg.solve(m0, m1)
    return 0.5 * (q + q.T)


def squeezed_profile(breaks, forms, n: int) -> tuple:
    """Layers of ``x3 -> profile(n x3)``, the profile extended with period 1."""
    breaks = np.asarray(breaks, dtype=float)
    cuts = {(k + b) / n for k in range(-n, n + 1) for b in breaks}
    new = np.array(sorted(x for x in cuts if -0.5 <= x <= 0.5))
    mids = 0.5 * (new[:-1] + new[1:])
    t = (n * mids + 0.5) % 1.0 - 0.5
    layer = np.clip(np.searchsorted(breaks, t, side="right") - 1, 0, len(forms) - 1)
    return new, [forms[i] for i in layer]


def oscillation_rows(breaks, forms, periods) -> list:
    """``(n, |Q_n - Q_avg|_F)`` for the n-fold squeezed profiles."""
    plane = [plane_stress(f) if np.shape(f) == (6, 6) else np.asarray(f, dtype=float)
             for f in forms]
    widths = np.diff(np.asarray(breaks, dtype=float))
    average = np.einsum("i,ijk->jk", widths, np.stack(plane))
    limit = profile_bending([-0.5, 0.5], [average])
    return [(n, float(np.linalg.norm(profile_bending(*squeezed_profile(breaks, plane, n)) - limit)))
            for n in periods]


def cylinder_energy(form2, radius: float, extent) -> float:
    """``area * Q(diag(1/R, 0))`` in Mandel coordinates."""
    a = np.array([1.0 / radius, 0.0, 0.0])
    return float(extent[0] * extent[1] * (a @ np.asarray(form2, dtype=float) @ a))


# ----------------------------------------------------------------------
# checks of whole pipeline outputs


def check_regime1(cells, homogenized, bending, laminate_moduli=None) -> None:
    """Regime-1 report against its cell ``cells`` ((..., 6, 6), equal volumes).

    ``laminate_moduli`` are the layer moduli ``2 mu`` of a zero-Poisson
    cell that varies only along x3, for which the closed form applies.
    """
    voigt, reuss = voigt_reuss(cells)
    expect_loewner_le("homogenized form above the Reuss bound", reuss, homogenized)
    expect_loewner_le("homogenized form below the Voigt bound", homogenized, voigt)
    expect_close("bending form vs plane-stress(homogenized)/12",
                 bending, plane_stress(homogenized) / 12.0)
    if laminate_moduli is not None:
        law = laminate_law(laminate_moduli)
        expect_close("homogenized form vs laminate closed form", homogenized, law)
        expect_close("bending form vs laminate closed form", bending, plane_stress(law) / 12.0)


def check_regime2(bending, inplane=None, layered=False) -> None:
    """Regime-2 bending form: SPD, and below the zero-corrector bound.

    ``inplane`` is the per-cell in-plane stiffness of a zero-Poisson slab
    (after the closed-form fiber reduction); when the slab does not vary
    in plane (``layered``) the bound is attained.
    """
    expect_spd("regime-2 bending form", bending)
    if inplane is None:
        return
    bound = slab_zero_corrector_bound(inplane)
    expect_loewner_le("regime-2 bending form below the zero-corrector bound", bending, bound)
    if layered:
        expect_close("layered slab bending form vs zero-corrector bound", bending, bound)


def check_oracle_report(report: dict) -> None:
    if report.get("passed") is not True:
        raise CheckFailed(f"oracle-check report not passed: {report.get('passed')!r}")
    diff, tol = report["max_relative_difference"], report["tolerance"]
    if not 0.0 <= diff <= tol:
        raise CheckFailed(f"oracle-check difference {diff!r} outside [0, {tol!r}]")


# ----------------------------------------------------------------------
# checks of CLI artifacts, against references built from the spec


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _csv_rows(path) -> list:
    """Rows of a CSV file without its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _cell_law(material: dict):
    """Cell laws from a cell spec, and the layer moduli if it is an x3 laminate."""
    grid = tuple(int(v) for v in material["grid"])
    if material["kind"] == "cell":
        return np.array(material["forms"], dtype=float).reshape(*grid, 6, 6), None
    mu = np.array(material["mu_grid"], dtype=float).reshape(grid)
    lam = np.array(material["lambda_grid"], dtype=float).reshape(grid)
    cells = np.stack([iso_law(m, lm) for m, lm in zip(mu.ravel(), lam.ravel())])
    laminate = not lam.any() and np.all(mu == mu[:1, :1, :])
    return cells, 2.0 * mu[0, 0, :] if laminate else None


def _slab_inplane(material: dict):
    """Per-cell in-plane stiffness of a separable zero-Poisson slab spec."""
    if material["kind"] != "slab":
        return None, False
    shape = (*material["inplane_grid"], material["x3_grid"])
    lam1 = np.array(material["lambda1"], dtype=float)
    lam1 = np.full(shape, float(lam1)) if lam1.ndim == 0 else lam1.reshape(shape)
    p = 2.0 * material["mu"] * lam1 * np.mean(material["lambda2"])
    return p, bool(np.all(p == p[:1, :1, :]))


def check_cli_output(spec: dict, status: dict) -> None:
    """Check one command's artifacts against references built from its spec."""
    command = spec["command"]
    material = spec.get("material", {})
    if command == "sweep":
        rows = _csv_rows(status["artifact"])
        subs = spec["scenarios"]
        if len(rows) != len(subs):
            raise CheckFailed(f"sweep summary has {len(rows)} rows for {len(subs)} scenarios")
        for (name, artifact), sub in zip(rows, subs):
            check_cli_output(sub, {"artifact": artifact})
        return
    artifact = load_json(status["artifact"])
    if command == "bending":
        layers = material["layers"]
        breaks = [layers[0]["from"]] + [layer["to"] for layer in layers]
        want = profile_bending(breaks, [layer["form"] for layer in layers])
        expect_close("bending form vs thickness moments", artifact["matrix"], want)
    elif command == "energy":
        surface = spec["surface"]
        want = cylinder_energy(spec["form"]["matrix"], surface["radius"],
                                      surface.get("extent", (1.0, 1.0)))
        expect_close("cylinder energy", artifact["energy"], want)
        expect_close("cylinder energy on the status line", status["energy"], want)
    elif command == "reduce" and material["kind"] in ("isotropic", "form3"):
        law = (iso_law(material["mu"], material["lambda"])
               if material["kind"] == "isotropic" else material["matrix"])
        expect_close("plane-stress reduction", artifact["matrix"], plane_stress(law))
    elif command == "oscillate":
        layers = material["layers"]
        breaks = [layers[0]["from"]] + [layer["to"] for layer in layers]
        periods = spec.get("settings", {}).get("periods", [1, 2, 4, 8, 16, 32])
        want = oscillation_rows(breaks, [layer["form"] for layer in layers], periods)
        rows = _csv_rows(status["csv"])
        got = [(int(n), float(d)) for n, d in rows]
        if [n for n, _ in got] != [n for n, _ in want]:
            raise CheckFailed(f"oscillate CSV periods {[n for n, _ in got]}")
        expect_close("oscillate CSV distances", [d for _, d in got], [d for _, d in want])
    elif command == "oracle-check":
        check_oracle_report(artifact)
    elif command == "homog-regime1":
        cells, layers = _cell_law(material)
        check_regime1(cells, artifact["diagnostics"]["homogenized_form"],
                             artifact["matrix"], layers)
    elif command == "homog-regime2":
        inplane, layered = _slab_inplane(material)
        check_regime2(artifact["matrix"], inplane, layered)
