"""The benchmark's output checks accept exact values and reject 1e-6 errors.

    python3 -m pytest perfbench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
from checks import CheckFailed, check_cli_output

EPS = 1e-6


def spd(seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = q @ np.diag(rng.uniform(1.0, 4.0, 6)) @ q.T
    return 0.5 * (m + m.T)


def test_expect_close():
    want = spd()
    checks.expect_close("x", want.copy(), want)
    with pytest.raises(CheckFailed):
        checks.expect_close("x", want * (1 + EPS), want)


def test_expect_loewner_le():
    m = spd()
    checks.expect_loewner_le("x", m, m.copy())
    with pytest.raises(CheckFailed):
        checks.expect_loewner_le("x", m * (1 + EPS), m)


def test_expect_spd():
    m = spd()
    checks.expect_spd("x", m)
    bad = m.copy()
    bad[0, 1] *= 1 + EPS
    with pytest.raises(CheckFailed):
        checks.expect_spd("x", bad)


def test_regime1_bounds_and_schur():
    # A homogeneous cell sits on both the Voigt and the Reuss bound.
    c = spd(1)
    cells = np.broadcast_to(c, (2, 2, 2, 6, 6))
    bending = checks.plane_stress(c) / 12.0
    checks.check_regime1(cells, c, bending)
    for hom in (c * (1 + EPS), c * (1 - EPS)):
        with pytest.raises(CheckFailed):
            checks.check_regime1(cells, hom, checks.plane_stress(hom) / 12.0)
    with pytest.raises(CheckFailed):
        checks.check_regime1(cells, c, bending * (1 + EPS))


def test_regime1_laminate():
    moduli = np.array([2.0, 2.0, 6.0, 6.0])
    cells = np.broadcast_to(moduli[None, None, :, None, None] * np.eye(6), (2, 2, 4, 6, 6))
    law = checks.laminate_law(moduli)
    assert np.allclose(np.diag(law), [4.0, 4.0, 3.0, 3.0, 3.0, 4.0])
    checks.check_regime1(cells, law, checks.plane_stress(law) / 12.0, moduli)
    off = law.copy()
    off[2, 2] *= 1 + EPS          # inside both bounds, off the closed form
    with pytest.raises(CheckFailed):
        checks.check_regime1(cells, off, checks.plane_stress(off) / 12.0, moduli)


def test_regime2_bound():
    p = np.broadcast_to(np.array([1.0, 3.0, 3.0, 1.0]), (2, 2, 4))
    bound = checks.slab_zero_corrector_bound(p)
    # Layers symmetric about the mid-plane: M1 = 0 and M2 = sum p_k int x3^2.
    assert np.allclose(bound, (1.0 * 7 / 192 + 3.0 * 1 / 192) * 2 * np.eye(3))
    checks.check_regime2(bound, p, layered=True)
    checks.check_regime2(bound * (1 - EPS), p, layered=False)
    for value in (bound * (1 + EPS), bound * (1 - EPS)):
        with pytest.raises(CheckFailed):
            checks.check_regime2(value, p, layered=True)


def test_oracle_report():
    report = {"passed": True, "max_relative_difference": 1e-8, "tolerance": 1e-8}
    checks.check_oracle_report(report)
    with pytest.raises(CheckFailed):
        checks.check_oracle_report(dict(report, max_relative_difference=1e-8 * (1 + EPS)))
    with pytest.raises(CheckFailed):
        checks.check_oracle_report(dict(report, passed=False))


def test_closed_forms_of_the_fixtures():
    eye = np.eye(3)
    bilayer = checks.profile_bending([-0.5, 0.0, 0.5], [eye, 3 * eye])
    assert np.allclose(bilayer, 13 / 96 * eye, rtol=1e-14, atol=0)
    assert np.allclose(checks.profile_bending([-0.5, 0.5], [2 * eye]), 2 / 12 * eye,
                       rtol=1e-14, atol=0)
    assert checks.cylinder_energy(eye / 6, 1.0, (1.0, 1.0)) == pytest.approx(1 / 6, rel=1e-15)
    rows = checks.oscillation_rows([-0.5, 0.0, 0.5], [eye, 3 * eye], [1, 2, 4])
    assert rows[0] == (1, pytest.approx(3 / 96 * np.sqrt(3), rel=1e-14))
    assert rows[2][1] < rows[1][1] < rows[0][1]


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


BILAYER = {"command": "bending", "material": {"kind": "profile", "layers": [
    {"from": -0.5, "to": 0.0, "form": np.eye(3).tolist()},
    {"from": 0.0, "to": 0.5, "form": (3 * np.eye(3)).tolist()}]}}


def test_cli_bending(tmp_path):
    exact = 13 / 96 * np.eye(3)
    check_cli_output(BILAYER, {"artifact": write(tmp_path / "r.json", {"matrix": exact.tolist()})})
    bad = write(tmp_path / "b.json", {"matrix": (exact * (1 + EPS)).tolist()})
    with pytest.raises(CheckFailed):
        check_cli_output(BILAYER, {"artifact": bad})


def test_cli_oscillate(tmp_path):
    spec = dict(BILAYER, command="oscillate", settings={"periods": [1, 2, 4]})
    rows = checks.oscillation_rows([-0.5, 0.0, 0.5], [np.eye(3), 3 * np.eye(3)], [1, 2, 4])
    status = {"artifact": write(tmp_path / "r.json", {}), "csv": str(tmp_path / "o.csv")}
    for scale, ok in ((1.0, True), (1 + EPS, False)):
        lines = ["periods,frobenius_distance_to_average_limit"]
        lines += [f"{n},{d * (scale if n == 2 else 1.0)!r}" for n, d in rows]
        (tmp_path / "o.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if ok:
            check_cli_output(spec, status)
        else:
            with pytest.raises(CheckFailed):
                check_cli_output(spec, status)


def test_cli_energy_and_reduce(tmp_path):
    spec = {"command": "energy", "form": {"kind": "form2", "matrix": (np.eye(3) / 6).tolist()},
            "surface": {"kind": "cylinder", "radius": 1.0, "extent": [1.0, 1.0]}}
    good = write(tmp_path / "e.json", {"energy": 1 / 6})
    check_cli_output(spec, {"artifact": good, "energy": 1 / 6})
    with pytest.raises(CheckFailed):
        check_cli_output(spec, {"artifact": good, "energy": 1 / 6 * (1 + EPS)})

    spec = {"command": "reduce", "material": {"kind": "isotropic", "mu": 1.0, "lambda": 1.0}}
    # 2 I + t t^T reduced over the 33 slot: in-plane block [[3 - 1/3, 1 - 1/3], ...].
    want = np.array([[8 / 3, 2 / 3, 0.0], [2 / 3, 8 / 3, 0.0], [0.0, 0.0, 2.0]])
    check_cli_output(spec, {"artifact": write(tmp_path / "r.json", {"matrix": want.tolist()})})
    bad = write(tmp_path / "b.json", {"matrix": (want * (1 + EPS)).tolist()})
    with pytest.raises(CheckFailed):
        check_cli_output(spec, {"artifact": bad})
