import warnings

import numpy as np
import pytest

from plate_homog import (
    DegenerateMaterialError,
    DegenerateProfileError,
    QuadForm2,
    QuadForm3,
    ThicknessProfile,
    bending_form,
    mandel2,
    moment_matrices,
    oscillation_experiment,
    plane_stress_reduce,
    profile_average,
    qf_isotropic,
    reduce_profile,
)
from plate_homog.core import IN_PLANE, embed2to3
from plate_homog.reduction import spd_schur

from helpers import random_form2, random_form3, random_profile2, random_spd


def two_phase_profile(c1=1.0, c2=3.0):
    return ThicknessProfile(
        (QuadForm2(c1 * np.eye(3)), QuadForm2(c2 * np.eye(3))),
        rule="layers",
        breaks=np.array([-0.5, 0.0, 0.5]),
    )


class TestPlaneStress:
    def test_overflowing_schur_complement_is_refused(self):
        # D passes the Cholesky test, but D^-1 Bt overflows: the caller's error,
        # and no floating-point warning
        D = 1e-200 * np.eye(3)
        Bt = np.zeros((3, 3))
        Bt[0, 0] = 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateProfileError, match="overflow"):
                spd_schur(np.eye(3), Bt, D, DegenerateProfileError("overflow"))

    def test_isotropic_no_poisson_coupling(self):
        q2, dstar = plane_stress_reduce(qf_isotropic(1.7, 0.0))
        A = np.array([[0.4, 0.1], [0.1, -0.9]])
        s = 0.5 * (A + A.T)
        assert q2.eval(A) == pytest.approx(2 * 1.7 * np.sum(s * s), rel=1e-14)
        assert np.allclose(dstar, 0.0, atol=1e-15)

    def test_isotropic_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mu, lam = rng.uniform(0.2, 5.0), rng.uniform(0.0, 5.0)
            q2, _ = plane_stress_reduce(qf_isotropic(mu, lam))
            A = rng.standard_normal((2, 2))
            s = 0.5 * (A + A.T)
            expected = 2 * mu * np.sum(s * s) + (2 * mu * lam / (lam + 2 * mu)) * np.trace(A) ** 2
            assert q2.eval(A) == pytest.approx(expected, rel=1e-12)

    def test_minimizer_map_attains_minimum(self):
        rng = np.random.default_rng(11)
        q3 = random_form3(rng)
        q2, dstar = plane_stress_reduce(q3)
        for _ in range(10):
            A = rng.standard_normal((2, 2))
            a = mandel2(A)
            d = dstar @ a
            lifted = np.zeros((3, 3))
            lifted[:2, :2] = 0.5 * (A + A.T)
            lifted += np.outer(d, [0, 0, 1]) + np.outer([0, 0, 1], d)
            assert q3.eval(lifted) == pytest.approx(q2.eval(A), rel=1e-12)
            # any other d is worse
            d2 = d + rng.standard_normal(3)
            other = np.zeros((3, 3))
            other[:2, :2] = 0.5 * (A + A.T)
            other += np.outer(d2, [0, 0, 1]) + np.outer([0, 0, 1], d2)
            assert q3.eval(other) >= q2.eval(A) - 1e-12

    def test_reduction_dominated_by_restriction(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            q3 = random_form3(rng)
            q2, _ = plane_stress_reduce(q3)
            A = rng.standard_normal((2, 2))
            assert q2.eval(A) <= q3.eval_mandel(embed2to3(mandel2(A))) + 1e-12

    def test_equality_iff_no_coupling(self):
        q2, _ = plane_stress_reduce(qf_isotropic(2.0, 0.0))
        A = np.array([[1.0, 0.2], [0.2, 0.5]])
        q3 = qf_isotropic(2.0, 0.0)
        assert q2.eval(A) == pytest.approx(q3.eval_mandel(embed2to3(mandel2(A))), rel=1e-14)

    def test_monotone_in_form_order(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            q3 = random_form3(rng)
            bump = random_spd(rng, 6, 0.1, 1.0)
            q3b = QuadForm3(q3.matrix + bump)
            r1, _ = plane_stress_reduce(q3)
            r2, _ = plane_stress_reduce(q3b)
            assert np.linalg.eigvalsh(r2.matrix - r1.matrix).min() >= -1e-10

    def test_degenerate_out_of_plane_block(self):
        m = np.zeros((6, 6))
        m[np.ix_(IN_PLANE, IN_PLANE)] = np.eye(3)
        with pytest.raises(DegenerateMaterialError):
            plane_stress_reduce(QuadForm3(m))


class TestMoments:
    def test_constant_profile(self):
        C = random_spd(np.random.default_rng(14), 3, 1.0, 3.0)
        prof = ThicknessProfile((QuadForm2(C),), rule="midpoint")
        mom = moment_matrices(prof)
        assert np.allclose(mom.m0, C, atol=0)
        assert np.allclose(mom.m1, 0.0, atol=0)
        assert np.allclose(mom.m2, C / 12.0, rtol=1e-15)

    def test_bilayer_moments(self):
        c1, c2 = 1.0, 3.0
        mom = moment_matrices(two_phase_profile(c1, c2))
        assert np.allclose(mom.m0, (c1 + c2) / 2 * np.eye(3), rtol=1e-15)
        assert np.allclose(mom.m1, (c2 - c1) / 8 * np.eye(3), rtol=1e-15)
        assert np.allclose(mom.m2, (c1 + c2) / 24 * np.eye(3), rtol=1e-15)

    def test_layers_integrate_exactly(self):
        # three-layer profile with rational breakpoints, moments by hand
        br = np.array([-0.5, -0.25, 0.25, 0.5])
        vals = [2.0, 5.0, 3.0]
        prof = ThicknessProfile(
            tuple(QuadForm2(v * np.eye(3)) for v in vals), rule="layers", breaks=br
        )
        mom = moment_matrices(prof)
        m0 = sum(v * (b - a) for v, a, b in zip(vals, br[:-1], br[1:]))
        m1 = sum(v * (b**2 - a**2) / 2 for v, a, b in zip(vals, br[:-1], br[1:]))
        m2 = sum(v * (b**3 - a**3) / 3 for v, a, b in zip(vals, br[:-1], br[1:]))
        assert np.allclose(mom.m0, m0 * np.eye(3), rtol=1e-15)
        assert np.allclose(mom.m1, m1 * np.eye(3), rtol=1e-15)
        assert np.allclose(mom.m2, m2 * np.eye(3), rtol=1e-15)

    def test_gauss_rule_integrates_quadratic_profile_exactly(self):
        # C(x) = C0 + x*C1 + x^2*C2 sampled at GL nodes: order 4 is exact
        rng = np.random.default_rng(15)
        C0 = random_spd(rng, 3, 5.0, 8.0)
        C1 = random_spd(rng, 3, 0.1, 0.5)
        C2 = random_spd(rng, 3, 0.1, 0.5)
        x, _ = np.polynomial.legendre.leggauss(4)
        x = 0.5 * x
        forms = tuple(QuadForm2(C0 + xi * C1 + xi * xi * C2) for xi in x)
        mom = moment_matrices(ThicknessProfile(forms, rule="gauss"))
        assert np.allclose(mom.m0, C0 + C2 / 12.0, rtol=1e-13)
        assert np.allclose(mom.m1, C1 / 12.0, rtol=1e-13)
        assert np.allclose(mom.m2, C0 / 12.0 + C2 / 80.0, rtol=1e-13)

    def test_sign_profile_rejected(self):
        prof = ThicknessProfile(
            (QuadForm2(-np.eye(3)), QuadForm2(np.eye(3))),
            rule="layers",
            breaks=np.array([-0.5, 0.0, 0.5]),
        )
        with pytest.raises(DegenerateProfileError):
            bending_form(prof)


class TestBendingForm:
    def test_constant_profile_twelfth(self):
        C = random_spd(np.random.default_rng(16), 3, 1.0, 3.0)
        q0, bstar = bending_form(ThicknessProfile((QuadForm2(C),), rule="midpoint"))
        assert np.allclose(q0.matrix, C / 12.0, rtol=1e-14)
        assert np.allclose(bstar, 0.0, atol=0)

    def test_bilayer_closed_value(self):
        q0, _ = bending_form(two_phase_profile(1.0, 3.0))
        assert np.allclose(q0.matrix, (13.0 / 96.0) * np.eye(3), rtol=1e-14)

    def test_bilayer_against_dense_b_grid(self):
        prof = two_phase_profile(1.0, 3.0)
        q0, bstar = bending_form(prof)
        mom = moment_matrices(prof)
        a = mandel2(np.eye(2))

        def objective(b):
            return b @ mom.m0 @ b + 2 * b @ mom.m1 @ a + a @ mom.m2 @ a

        grid = np.linspace(-1.0, 1.0, 41)
        best = min(
            objective(np.array([b1, b2, b3])) for b1 in grid for b2 in grid for b3 in grid
        )
        val = q0.eval_mandel(a)
        assert best >= val - 1e-12
        assert best == pytest.approx(val, abs=5e-3)
        assert objective(bstar @ a) == pytest.approx(val, rel=1e-13)

    def test_bstar_first_order_stationary(self):
        rng = np.random.default_rng(17)
        prof = random_profile2(rng)
        q0, bstar = bending_form(prof)
        mom = moment_matrices(prof)
        for _ in range(20):
            a = rng.standard_normal(3)
            b = bstar @ a
            val = b @ mom.m0 @ b + 2 * b @ mom.m1 @ a + a @ mom.m2 @ a
            assert val == pytest.approx(q0.eval_mandel(a), rel=1e-12)
            for _ in range(5):
                d = 1e-4 * rng.standard_normal(3)
                perturbed = (b + d) @ mom.m0 @ (b + d) + 2 * (b + d) @ mom.m1 @ a + a @ mom.m2 @ a
                assert perturbed >= val - 1e-8 * max(abs(val), 1.0)

    def test_sandwich_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            prof = random_profile2(rng, eta1=2.0, eta2=5.0)
            q0, _ = bending_form(prof)
            ev = np.linalg.eigvalsh(q0.matrix)
            assert ev[0] >= 2.0 / 12 - 1e-10
            assert ev[-1] <= 5.0 / 12 + 1e-10

    def test_monotone_in_profile_order(self):
        rng = np.random.default_rng(19)
        forms = tuple(random_form2(rng) for _ in range(3))
        bumped = tuple(QuadForm2(f.matrix + random_spd(rng, 3, 0.05, 0.4)) for f in forms)
        q0a, _ = bending_form(ThicknessProfile(forms, rule="midpoint"))
        q0b, _ = bending_form(ThicknessProfile(bumped, rule="midpoint"))
        assert np.linalg.eigvalsh(q0b.matrix - q0a.matrix).min() >= -1e-10

    def test_profile3_reduces_then_bends(self):
        prof3 = ThicknessProfile((qf_isotropic(1.0, 0.0),), rule="midpoint")
        prof2 = reduce_profile(prof3)
        assert prof2.is2d
        q0, _ = bending_form(prof3)
        assert np.allclose(q0.matrix, 2.0 * np.eye(3) / 12.0, rtol=1e-14)


class TestOscillation:
    def test_single_period_constant(self):
        C = 2.5 * np.eye(3)
        base = ThicknessProfile((QuadForm2(C),), rule="midpoint")
        q = oscillation_experiment(base, 1)
        assert np.allclose(q.matrix, C / 12.0, rtol=1e-14)

    def test_two_phase_converges_to_average(self):
        base = two_phase_profile(1.0, 3.0)
        limit = profile_average(base).matrix / 12.0
        assert np.allclose(limit, np.eye(3) / 6.0, rtol=1e-14)
        prev = None
        for n in (1, 2, 4, 8, 16, 32):
            dev = np.linalg.norm(oscillation_experiment(base, n).matrix - limit)
            if prev is not None:
                assert dev <= prev + 1e-14
            prev = dev
        assert prev <= 1e-3 * np.linalg.norm(limit)

    def test_doubling_halves_at_least(self):
        base = two_phase_profile(1.0, 3.0)
        limit = profile_average(base).matrix / 12.0
        for n in (1, 2, 4, 8, 16):
            d1 = np.linalg.norm(oscillation_experiment(base, n).matrix - limit)
            d2 = np.linalg.norm(oscillation_experiment(base, 2 * n).matrix - limit)
            assert d2 <= d1 + 1e-14

    def test_rejects_bad_period_and_rule(self):
        base = two_phase_profile()
        with pytest.raises(ValueError):
            oscillation_experiment(base, 0)
        gauss = ThicknessProfile(
            (QuadForm2(np.eye(3)), QuadForm2(2 * np.eye(3))), rule="gauss"
        )
        with pytest.raises(ValueError):
            oscillation_experiment(gauss, 2)


class TestProfileValidation:
    def test_breaks_must_span_interval(self):
        with pytest.raises(ValueError):
            ThicknessProfile(
                (QuadForm2(np.eye(3)),), rule="layers", breaks=np.array([-0.4, 0.5])
            )

    def test_breaks_must_increase(self):
        with pytest.raises(ValueError):
            ThicknessProfile(
                (QuadForm2(np.eye(3)), QuadForm2(np.eye(3))),
                rule="layers",
                breaks=np.array([-0.5, 0.5, 0.5]),
            )

    def test_no_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ThicknessProfile((QuadForm2(np.eye(3)), qf_isotropic(1.0, 0.0)), rule="midpoint")

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            ThicknessProfile((), rule="midpoint")
