import numpy as np
import pytest

from plate_homog import (
    AdmissibilityError,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    mandel2,
    mandel3,
    qf_check_class,
    qf_eval,
    qf_isotropic,
    unmandel2,
    unmandel3,
)
from plate_homog.core import SQRT2

from helpers import random_form3


def test_mandel3_identity():
    assert np.array_equal(mandel3(np.eye(3)), [1, 1, 1, 0, 0, 0])


def test_mandel3_symmetry_forced_entry():
    G = np.zeros((3, 3))
    G[0, 2] = G[2, 0] = 1.0
    assert np.array_equal(mandel3(G), [0, 0, 0, 0, SQRT2, 0])


def test_mandel3_antisymmetric_is_zero():
    G = np.zeros((3, 3))
    G[0, 1], G[1, 0] = 1.0, -1.0
    assert np.array_equal(mandel3(G), np.zeros(6))


def test_mandel_round_trip_within_one_ulp():
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = rng.standard_normal((3, 3))
        S = 0.5 * (G + G.T)
        back = unmandel3(mandel3(G))
        assert np.array_equal(np.diag(back), np.diag(S))  # diagonals exact
        err = np.abs(back - S)
        assert np.all(err <= np.spacing(np.abs(S)) + 0.0)
        m = rng.standard_normal(3)
        back2 = mandel2(unmandel2(m))
        assert np.all(np.abs(back2 - m) <= np.spacing(np.abs(m)))


def test_mandel_norm_preservation_four_ulps():
    rng = np.random.default_rng(1)
    for _ in range(500):
        G = rng.standard_normal((3, 3))
        S = 0.5 * (G + G.T)
        nv = np.linalg.norm(mandel3(G))
        nf = np.linalg.norm(S)
        assert abs(nv - nf) <= 4 * np.spacing(nf)


def test_qf_eval_isotropic_identity():
    assert qf_eval(qf_isotropic(1.0, 0.0), np.eye(3)) == pytest.approx(6.0, abs=0)
    assert qf_eval(qf_isotropic(1.0, 1.0), np.eye(3)) == pytest.approx(15.0, abs=0)


def test_qf_eval_zero_and_scaling():
    rng = np.random.default_rng(2)
    q = random_form3(rng)
    assert q.eval(np.zeros((3, 3))) == 0.0
    G = rng.standard_normal((3, 3))
    scaled = QuadForm3(3.0 * q.matrix)
    assert scaled.eval(G) == pytest.approx(3.0 * q.eval(G), rel=1e-14)


def test_qf_eval_sym_invariance_exact():
    rng = np.random.default_rng(3)
    q = random_form3(rng)
    for _ in range(20):
        G = rng.standard_normal((3, 3))
        assert q.eval(G) == q.eval(0.5 * (G + G.T))


def test_qf_isotropic_single_entry():
    q = qf_isotropic(1.0, 0.0)
    G = np.zeros((3, 3))
    G[0, 0] = 1.0
    assert q.eval(G) == pytest.approx(2.0, abs=0)


def test_qf_isotropic_matches_scalar_law():
    # mu=1, lambda=0 is the |sym G|^2 law with total factor 2
    rng = np.random.default_rng(4)
    q = qf_isotropic(1.0, 0.0)
    for _ in range(10):
        G = rng.standard_normal((3, 3))
        s = 0.5 * (G + G.T)
        assert q.eval(G) == pytest.approx(2.0 * np.sum(s * s), rel=1e-14)


def test_qf_isotropic_rejects_bad_moduli():
    with pytest.raises(ValueError):
        qf_isotropic(0.0, 1.0)
    with pytest.raises(ValueError):
        qf_isotropic(-1.0, 0.0)
    with pytest.raises(ValueError):
        qf_isotropic(1.0, -0.5)


def test_check_class_isotropic_tight_bounds():
    report = qf_check_class(qf_isotropic(1.0, 0.0), MaterialBounds(2.0, 2.0))
    assert report.passed
    assert report.eig_min == pytest.approx(2.0, rel=1e-12)


def test_check_class_zero_form_fails_lower():
    report = qf_check_class(QuadForm3(np.zeros((6, 6))), MaterialBounds(1.0, 2.0))
    assert not report.passed
    assert any("lower" in v for v in report.violations)
    with pytest.raises(AdmissibilityError):
        report.raise_if_failed()


def test_check_class_lambda_eigenvalue_exceeds():
    # isotropic Mandel spectrum is {2mu x5, 2mu+3lambda}
    report = qf_check_class(qf_isotropic(1.0, 1.0), MaterialBounds(2.0, 2.0))
    assert not report.passed
    assert report.eig_max == pytest.approx(5.0, rel=1e-12)


def test_check_class_fails_for_strictly_tighter_bounds():
    q = qf_isotropic(1.5, 0.7)
    lo, hi = 3.0, 3.0 + 3 * 0.7
    assert qf_check_class(q, MaterialBounds(lo, hi)).passed
    assert not qf_check_class(q, MaterialBounds(lo + 1e-6, hi)).passed
    assert not qf_check_class(q, MaterialBounds(lo, hi - 1e-6)).passed


def test_material_bounds_validation():
    with pytest.raises(AdmissibilityError):
        MaterialBounds(0.0, 1.0)
    with pytest.raises(AdmissibilityError):
        MaterialBounds(2.0, 1.0)


def test_quadform_requires_symmetry():
    m = np.eye(6)
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        QuadForm3(m)
    with pytest.raises(ValueError):
        QuadForm2(np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_form_json_round_trip_bit_exact():
    import json

    from plate_homog.iojson import form_to_dict, read_form

    rng = np.random.default_rng(5)
    q = random_form3(rng)
    text = json.dumps(form_to_dict(q))
    q2 = read_form(json.loads(text), "test")
    assert np.array_equal(q.matrix, q2.matrix)
