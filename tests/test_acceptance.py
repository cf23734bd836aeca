"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion pins its tolerance and (where stated) a runtime
budget.  Timed criteria measure solve time only.
"""

import time

import numpy as np

from plate_homog import (
    CellMaterial3,
    MaterialBounds,
    QuadForm2,
    SlabMaterial,
    ThicknessProfile,
    bending_form,
    bending_form_regime1,
    bending_form_regime2,
    bilayer_closed_form,
    brute_force_regime1,
    brute_force_regime2,
    corrector_solve_3d,
    fiber_reduce,
    laminate_closed_form,
    laminate_reduced_form,
    oscillation_experiment,
    plane_stress_reduce,
    plate_energy,
    profile_average,
    qf_isotropic,
)
from plate_homog.app import SurfaceSpec
from plate_homog.homogslab import FiberMaterial

from helpers import random_cell, random_profile2, random_slab, random_spd


def verdict(num, ok, message):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {message}")
    assert ok, f"criterion {num} failed: {message}"


def test_criterion_01_plane_stress_closed_form():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.1, 10.0)
        lam = rng.uniform(0.0, 10.0)
        q2, _ = plane_stress_reduce(qf_isotropic(mu, lam))
        A = rng.standard_normal((2, 2))
        s = 0.5 * (A + A.T)
        expected = 2 * mu * np.sum(s * s) + (2 * mu * lam / (lam + 2 * mu)) * np.trace(A) ** 2
        worst = max(worst, abs(q2.eval(A) - expected) / abs(expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(1, ok, f"plane-stress closed form: worst rel err {worst:.2e} "
                   f"(<=1e-12), runtime {elapsed:.2f}s (<1s)")


def test_criterion_02_homogeneous_bending_twelfth():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        C = random_spd(rng, 3, 0.5, 5.0)
        q0, _ = bending_form(ThicknessProfile((QuadForm2(C),), rule="midpoint"))
        worst = max(worst, np.abs(q0.matrix - C / 12.0).max() / np.abs(C / 12.0).max())
    ok = worst <= 1e-14
    verdict(2, ok, f"constant profile bends to C/12: worst rel dev {worst:.2e} (<=1e-14)")


def test_criterion_03_bilayer_thirteen_ninetysixths():
    prof = ThicknessProfile(
        (QuadForm2(np.eye(3)), QuadForm2(3 * np.eye(3))),
        rule="layers", breaks=np.array([-0.5, 0.0, 0.5]),
    )
    q0, _ = bending_form(prof)
    target = (13.0 / 96.0) * np.eye(3)
    dev = np.abs(q0.matrix - target).max() / (13.0 / 96.0)
    oracle_dev = np.abs(
        q0.matrix - bilayer_closed_form(1.0, 3.0, QuadForm2(np.eye(3))).matrix
    ).max()
    ok = dev <= 1e-12 and oracle_dev <= 1e-15
    verdict(3, ok, f"bilayer (1,3) = 13/96: rel dev {dev:.2e} (<=1e-12), "
                   f"closed-form oracle dev {oracle_dev:.2e}")


def test_criterion_04_sandwich_bound():
    rng = np.random.default_rng(102)
    eta1, eta2 = 2.0, 5.0
    lo_ok, hi_ok = True, True
    for _ in range(100):
        prof = random_profile2(rng, eta1=eta1, eta2=eta2)
        ev = np.linalg.eigvalsh(bending_form(prof)[0].matrix)
        lo_ok &= ev[0] >= eta1 / 12 - 1e-10
        hi_ok &= ev[-1] <= eta2 / 12 + 1e-10
    ok = lo_ok and hi_ok
    verdict(4, ok, "100 random admissible profiles: bending eigenvalues inside "
                   "[eta1/12 - 1e-10, eta2/12 + 1e-10]")


def test_criterion_05_oscillation_convergence():
    t0 = time.perf_counter()
    base = ThicknessProfile(
        (QuadForm2(np.eye(3)), QuadForm2(3 * np.eye(3))),
        rule="layers", breaks=np.array([-0.5, 0.0, 0.5]),
    )
    limit = profile_average(base).matrix / 12.0
    devs = []
    for n in (1, 2, 4, 8, 16, 32):
        devs.append(np.linalg.norm(oscillation_experiment(base, n).matrix - limit))
    elapsed = time.perf_counter() - t0
    monotone = all(b <= a + 1e-14 for a, b in zip(devs, devs[1:]))
    small = devs[-1] <= 1e-3 * np.linalg.norm(limit)
    ok = monotone and small and elapsed < 5.0
    verdict(5, ok, f"squeezed two-phase profile: deviations non-increasing={monotone}, "
                   f"final {devs[-1]:.2e} <= 1e-3*|limit|, runtime {elapsed:.2f}s (<5s)")


def test_criterion_06_fiber_reduction_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        nf = int(rng.integers(2, 9))
        lam2 = rng.uniform(0.2, 5.0, nf)
        mu = rng.uniform(0.3, 3.0)
        lam1 = rng.uniform(0.3, 3.0)
        base = qf_isotropic(mu, 0.0).matrix
        fiber = FiberMaterial(
            c=lam1 * lam2[:, None, None] * base,
            bounds=MaterialBounds(
                0.999 * 2 * mu * lam1 * lam2.min(), 1.001 * 2 * mu * lam1 * lam2.max()
            ),
        )
        got = fiber_reduce(fiber).matrix
        want = laminate_reduced_form(lam1, lam2, mu).matrix
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    ok = worst <= 1e-10
    verdict(6, ok, f"zero-Poisson fiber reduction vs closed means (50 draws): "
                   f"worst rel dev {worst:.2e} (<=1e-10)")


def test_criterion_07_oracle_equivalence_regime1():
    rng = np.random.default_rng(104)
    worst, slowest = 0.0, 0.0
    for _ in range(3):
        cell = random_cell(rng, grid=(4, 4, 4), eta1=1.0, eta2=4.0)
        t0 = time.perf_counter()
        rep = bending_form_regime1(cell, tol=1e-12)
        for _ in range(5):
            A = rng.standard_normal((2, 2))
            sv = rep.form.eval(A)
            ov = brute_force_regime1(cell, A, x3_samples=8)
            worst = max(worst, abs(sv - ov) / abs(ov))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst <= 1e-8 and slowest < 10.0
    verdict(7, ok, f"regime-1 pipeline vs dense oracle (3 cells x 5 loads): worst rel "
                   f"diff {worst:.2e} (<=1e-8), slowest cell {slowest:.2f}s (<10s)")


def test_criterion_08_oracle_equivalence_regime2():
    rng = np.random.default_rng(105)
    worst, slowest = 0.0, 0.0
    for _ in range(3):
        slab = random_slab(rng, grid=(4, 4, 4), nf=4, nfib=5, eta1=1.0, eta2=4.0)
        t0 = time.perf_counter()
        rep = bending_form_regime2(slab, tol=1e-12)
        A = rng.standard_normal((2, 2))
        sv = rep.form.eval(A)
        ov = brute_force_regime2(slab, A)
        worst = max(worst, abs(sv - ov) / abs(ov))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst <= 1e-8 and slowest < 10.0
    verdict(8, ok, f"regime-2 pipeline vs dense oracle (3 slabs): worst rel diff "
                   f"{worst:.2e} (<=1e-8), slowest slab {slowest:.2f}s (<10s)")


def test_criterion_09_positive_definite_and_bounded():
    rng = np.random.default_rng(106)
    eta2 = 4.0
    ok = True
    min_eig = np.inf
    for _ in range(20):
        cell = random_cell(rng, grid=(2, 2, 2), eta1=1.0, eta2=eta2)
        rep = bending_form_regime1(cell, tol=1e-11)
        ev = np.linalg.eigvalsh(rep.form.matrix)
        min_eig = min(min_eig, ev[0])
        ok &= ev[0] > 0.0 and ev[-1] <= eta2 / 12 + 1e-10
        ok &= np.abs(rep.form.matrix - rep.form.matrix.T).max() <= 1e-12
    for _ in range(20):
        slab = random_slab(rng, grid=(2, 2, 2), nf=2, eta1=1.0, eta2=eta2)
        rep = bending_form_regime2(slab, tol=1e-11)
        ev = np.linalg.eigvalsh(rep.form.matrix)
        min_eig = min(min_eig, ev[0])
        ok &= ev[0] > 0.0 and ev[-1] <= eta2 / 12 + 1e-10
        ok &= np.abs(rep.form.matrix - rep.form.matrix.T).max() <= 1e-12
    verdict(9, ok, f"20 random materials per regime: effective forms symmetric, "
                   f"positive definite (min eig {min_eig:.3e}), eigenvalues <= eta2/12")


def test_criterion_10_regime_consistency():
    worst_pair, worst_closed = 0.0, 0.0
    for lam2 in ([1.0, 3.0], [0.5, 1.0, 2.0], [2.0, 0.8, 1.3, 0.6]):
        lam2 = np.array(lam2)
        mu = 1.0
        c = np.stack([(2 * mu * l) * np.eye(6) for l in lam2]).reshape(1, 1, -1, 6, 6)
        cell = CellMaterial3(
            c=c, bounds=MaterialBounds(2 * mu * lam2.min(), 2 * mu * lam2.max())
        )
        r1 = bending_form_regime1(cell, tol=1e-12)
        slab = SlabMaterial.separable(1.0, lam2, mu=mu, grid=(1, 1, 2))
        r2 = bending_form_regime2(slab, tol=1e-12)
        worst_pair = max(
            worst_pair,
            np.abs(r1.form.matrix - r2.form.matrix).max() / np.abs(r1.form.matrix).max(),
        )
        # closed-form prediction: at zero Poisson coupling only the
        # arithmetic in-plane mean survives reduction and the 1/12 factor
        arith, _ = laminate_closed_form(lam2)
        q2_closed, _ = plane_stress_reduce(laminate_reduced_form(1.0, lam2, mu))
        predicted = q2_closed.matrix / 12.0
        ok_mean = abs(predicted[0, 0] - 2 * mu * arith / 12.0) <= 1e-14
        for rep in (r1, r2):
            worst_closed = max(
                worst_closed,
                np.abs(rep.form.matrix - predicted).max() / np.abs(predicted).max(),
            )
        worst_closed = max(worst_closed, 0.0 if ok_mean else 1.0)
    ok = worst_pair <= 1e-8 and worst_closed <= 1e-8
    verdict(10, ok, f"3 through-fiber laminates: regime1 vs regime2 rel dev "
                    f"{worst_pair:.2e} (<=1e-8), vs closed-form means {worst_closed:.2e}")


def test_criterion_11_refinement_monotonicity():
    rng = np.random.default_rng(107)
    cell_a = random_cell(rng, grid=(2, 2, 2), eta1=1.0, eta2=4.0)
    scale = np.ones((2, 2, 2))
    scale[0, :, :] = 3.0
    c = 2.0 * scale[..., None, None] * np.eye(6)
    cell_b = CellMaterial3(c=c, bounds=MaterialBounds(2.0, 6.0))
    ok = True
    drops = []
    for cell in (cell_a, cell_b):
        E = np.array([1.0, 0.1, -0.4, 0.6, 0.2, -0.3])
        _, coarse = corrector_solve_3d(cell, E, tol=1e-12)
        _, fine = corrector_solve_3d(cell.refine(2), E, tol=1e-12)
        ok &= fine <= coarse + 1e-10
        drops.append(coarse - fine)
    verdict(11, ok, f"nested 2x refinement never raises corrector energy "
                    f"(drops {drops[0]:.2e}, {drops[1]:.2e}, tolerance 1e-10)")


def test_criterion_12_plate_energy_quarter_law():
    mu = 1.0
    mat = CellMaterial3.homogeneous(qf_isotropic(mu, 0.0), grid=(1, 1, 1))
    q0 = bending_form_regime1(mat, tol=1e-12).form
    ok = True
    for radius in (0.5, 1.0, 2.0, 3.25):
        e1 = plate_energy(q0, SurfaceSpec("cylinder", (2.0, 1.5), radius))
        e2 = plate_energy(q0, SurfaceSpec("cylinder", (2.0, 1.5), 2 * radius))
        ok &= e2 == e1 / 4.0
    base = plate_energy(q0, SurfaceSpec("cylinder", (1.0, 1.0), 1.0))
    ok &= abs(base - mu / 6.0) <= 1e-14
    verdict(12, ok, f"cylinder energy |S|*Q0(diag(1/R,0)) = {base:.6f} at R=1 "
                    f"and quarters exactly when R doubles")
