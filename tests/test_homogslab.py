import warnings

import numpy as np
import pytest

from plate_homog import (
    AdmissibilityError,
    DegenerateMaterialError,
    FiberMaterial,
    MaterialBounds,
    SlabMaterial,
    bending_form_regime1,
    bending_form_regime2,
    fiber_reduce,
    laminate_reduced_form,
    qf_isotropic,
    slab_corrector_solve,
)
from plate_homog import fem
from plate_homog.core import IN_PLANE, OUT_OF_PLANE, embed2to3
from plate_homog.homogslab import _load_strain, reduce_fibers
from plate_homog.reduction import spd_schur

from helpers import (
    operator_grids,
    random_fiber,
    random_slab,
    random_spd,
    reference_reduce_fibers,
)

from test_homog3d import assert_close, assert_tiled_solve, laminate_cell


class TestFiberReduce:
    def test_constant_fiber_unchanged(self):
        rng = np.random.default_rng(30)
        m = random_spd(rng, 6, 1.0, 4.0)
        fiber = FiberMaterial(
            c=np.stack([m, m, m]), bounds=MaterialBounds(0.99, 4.01)
        )
        red = fiber_reduce(fiber)
        assert np.allclose(red.matrix, m, rtol=1e-12)

    def test_two_phase_means(self):
        lam2 = np.array([1.0, 3.0])
        base = qf_isotropic(1.0, 0.0).matrix
        fiber = FiberMaterial(
            c=lam2[:, None, None] * base, bounds=MaterialBounds(2.0, 6.0)
        )
        red = fiber_reduce(fiber)
        p, o = list(IN_PLANE), list(OUT_OF_PLANE)
        assert np.allclose(red.matrix[np.ix_(p, p)], 2.0 * base[np.ix_(p, p)], rtol=1e-13)
        assert np.allclose(red.matrix[np.ix_(o, o)], 1.5 * base[np.ix_(o, o)], rtol=1e-13)

    def test_matches_closed_form_for_random_laminates(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            nf = int(rng.integers(2, 7))
            lam2 = rng.uniform(0.3, 4.0, nf)
            mu = rng.uniform(0.5, 2.0)
            lam1 = rng.uniform(0.5, 2.0)
            base = qf_isotropic(mu, 0.0).matrix
            fiber = FiberMaterial(
                c=lam1 * lam2[:, None, None] * base,
                bounds=MaterialBounds(
                    2 * mu * lam1 * lam2.min() * 0.999, 2 * mu * lam1 * lam2.max() * 1.001
                ),
            )
            red = fiber_reduce(fiber)
            expected = laminate_reduced_form(lam1, lam2, mu)
            assert np.allclose(red.matrix, expected.matrix, rtol=1e-10)

    def test_weighted_layers(self):
        lam2 = np.array([1.0, 3.0])
        w = np.array([0.25, 0.75])
        base = qf_isotropic(1.0, 0.0).matrix
        fiber = FiberMaterial(
            c=lam2[:, None, None] * base, bounds=MaterialBounds(2.0, 6.0), weights=w
        )
        red = fiber_reduce(fiber)
        arith = w @ lam2
        harm = 1.0 / (w @ (1.0 / lam2))
        expected = laminate_reduced_form(1.0, lam2, 1.0, weights=w)
        assert np.allclose(red.matrix, expected.matrix, rtol=1e-12)
        assert red.matrix[0, 0] == pytest.approx(2 * arith, rel=1e-12)
        assert red.matrix[2, 2] == pytest.approx(2 * harm, rel=1e-12)

    def test_dominated_by_plain_average(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            fiber = random_fiber(rng, nf=3)
            red = fiber_reduce(fiber)
            avg = fiber.c.mean(axis=0)
            assert np.linalg.eigvalsh(avg - red.matrix).min() >= -1e-10

    def test_preserves_admissibility(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            fiber = random_fiber(rng, nf=4, eta1=1.0, eta2=4.0)
            ev = np.linalg.eigvalsh(fiber_reduce(fiber).matrix)
            assert ev[0] > 0.0
            assert ev[-1] <= 4.0 + 1e-8

    def test_singular_transverse_block_rejected(self):
        # the reduction itself names the singular block, whatever else the
        # sample breaks (a zero out-of-plane block is outside any bounds too)
        m = np.zeros((6, 6))
        m[np.ix_(list(IN_PLANE), list(IN_PLANE))] = np.eye(3)
        with pytest.raises(DegenerateMaterialError, match="fiber 0 sample 0"):
            reduce_fibers(np.stack([m, np.eye(6)])[None], np.full(2, 0.5))
        # a fiber material of it fails its bounds first, when built: eigenvalue 0 < eta1
        with pytest.raises(AdmissibilityError, match="^fiber sample 0 violates lower bound"):
            FiberMaterial(c=np.stack([m, np.eye(6)]), bounds=MaterialBounds(0.5, 2.0))

    def test_batched_reduction_matches_one_fiber_at_a_time(self):
        rng = np.random.default_rng(39)
        slab = random_slab(rng, nf=3, nfib=4)
        batched = reduce_fibers(slab.fibers, slab.weights)
        for fid in range(4):
            one = fiber_reduce(FiberMaterial(c=slab.fibers[fid], bounds=slab.bounds,
                                             weights=slab.weights))
            np.testing.assert_allclose(batched[fid], one.matrix, rtol=0, atol=1e-14)
        fibers = slab.fibers.copy()
        fibers[2, 1][np.ix_(list(OUT_OF_PLANE), list(OUT_OF_PLANE))] = 0.0
        with pytest.raises(DegenerateMaterialError, match="fiber 2 sample 1"):
            reduce_fibers(fibers, slab.weights)

    def test_matches_lapack_inverses_on_random_anisotropic_fibers(self):
        rng = np.random.default_rng(40)
        for nf in (1, 2, 5, 8):
            fibers = np.stack([np.stack([random_spd(rng, 6, 0.2, 5.0) for _ in range(nf)])
                               for _ in range(6)])
            w = rng.uniform(0.5, 1.5, nf)
            w /= w.sum()
            ref = reference_reduce_fibers(fibers, w)
            np.testing.assert_allclose(reduce_fibers(fibers, w), ref,
                                       rtol=0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
    def test_ill_conditioned_out_of_plane_blocks(self, cond):
        # out-of-plane blocks with eigenvalues 1, cond^-1/2 and 1/cond in random
        # directions: the error may grow with the condition number, no faster
        rng = np.random.default_rng(41)
        o = list(OUT_OF_PLANE)
        fibers = np.stack([np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(4)])
                           for _ in range(5)])
        for m in fibers.reshape(-1, 6, 6):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            s = q @ np.diag([1.0, cond ** -0.5, 1.0 / cond]) @ q.T
            m[np.ix_(o, o)] = 0.5 * (s + s.T)
        w = rng.uniform(0.5, 1.5, 4)
        w /= w.sum()
        ref = reference_reduce_fibers(fibers, w)
        err = np.abs(reduce_fibers(fibers, w) - ref).max() / np.abs(ref).max()
        assert err <= cond * np.finfo(float).eps

    @pytest.mark.parametrize("eigenvalues", [(1.0, 2.0, -0.5), (-1e-3, 1.0, 3.0), (2.0, -4.0, 1.0)])
    def test_indefinite_out_of_plane_block_is_named(self, eigenvalues):
        rng = np.random.default_rng(42)
        fibers = np.stack([np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(3)])
                           for _ in range(4)])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = q @ np.diag(eigenvalues) @ q.T
        fibers[2, 1][np.ix_(list(OUT_OF_PLANE), list(OUT_OF_PLANE))] = 0.5 * (s + s.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMaterialError, match="fiber 2 sample 1 "):
                reduce_fibers(fibers, np.full(3, 1.0 / 3.0))

    def test_laws_of_any_magnitude(self):
        # a power of two scales every step exactly: no product leaves the range
        rng = np.random.default_rng(43)
        slab = random_slab(rng, nf=4, nfib=3)
        red = reduce_fibers(slab.fibers, slab.weights)
        for scale in (2.0 ** -600, 2.0 ** 600):
            np.testing.assert_array_equal(reduce_fibers(scale * slab.fibers, slab.weights),
                                          scale * red)

    def test_closed_form_validates_input(self):
        with pytest.raises(ValueError):
            laminate_reduced_form(1.0, [1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            laminate_reduced_form(0.0, [1.0], 1.0)

    def test_closed_form_identity_at_unit_factors(self):
        red = laminate_reduced_form(1.0, np.ones(4), 1.3)
        assert np.allclose(red.matrix, qf_isotropic(1.3, 0.0).matrix, rtol=1e-14)


class TestSlabSolve:
    def test_homogeneous_midplane_load_trivial(self):
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(2, 2, 2), nf=2)
        corr, energy = slab_corrector_solve(slab, ("B", 0), tol=1e-12)
        assert np.allclose(corr.values, 0.0, atol=1e-14)
        assert energy == pytest.approx(2.0, rel=1e-14)  # Q(iota(e1)) = 2mu

    def test_homogeneous_curvature_load_twelfth(self):
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(2, 2, 4), nf=2)
        corr, energy = slab_corrector_solve(slab, ("A", 0), tol=1e-12)
        assert np.allclose(corr.values, 0.0, atol=1e-13)
        assert energy == pytest.approx(2.0 / 12.0, rel=1e-13)

    def test_checkerboard_slab_between_bounds(self):
        scale = np.ones((4, 4, 2))
        i, j, _ = np.meshgrid(np.arange(4), np.arange(4), np.arange(2), indexing="ij")
        scale[((i // 2 + j // 2) % 2) == 1] = 3.0
        slab = SlabMaterial.separable(scale, np.ones(2), mu=1.0)
        reduced = slab.reduced_cells()
        voigt = reduced.mean(axis=0)
        reuss = np.linalg.inv(np.linalg.inv(reduced).mean(axis=0))
        a = np.array([1.0, 0.0, 0.0])
        g = embed2to3(a)
        _, energy = slab_corrector_solve(slab, ("B", 0), tol=1e-12)
        assert float(g @ reuss @ g) - 1e-9 <= energy <= float(g @ voigt @ g) + 1e-9

    def test_load_vector_validation(self):
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(1, 1, 1), nf=2)
        with pytest.raises(ValueError):
            slab_corrector_solve(slab, ("C", 0), tol=1e-10)

    @pytest.mark.parametrize("index", [-1, 1.7, 3, True, "0", np.float64(1.0)])
    def test_load_basis_index_must_be_an_integer_0_to_2(self, index):
        # no wrap-around (-1), truncation (1.7) or IndexError (3): a ValueError
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(1, 1, 1), nf=2)
        for kind in ("A", "B"):
            with pytest.raises(ValueError, match="basis index"):
                slab_corrector_solve(slab, (kind, index), tol=1e-10)

    def test_load_basis_index_accepts_numpy_integers(self):
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(1, 1, 1), nf=2)
        for kind in ("A", "B"):
            _, energy = slab_corrector_solve(slab, (kind, np.int64(2)), tol=1e-10)
            _, ref = slab_corrector_solve(slab, (kind, [0.0, 0.0, 1.0]), tol=1e-10)
            assert energy == ref


class TestBendingRegime2:
    def test_homogeneous_isotropic_sixth(self):
        mu = 0.8
        slab = SlabMaterial.homogeneous(qf_isotropic(mu, 0.0), grid=(2, 2, 2), nf=2)
        rep = bending_form_regime2(slab, tol=1e-12)
        assert np.allclose(rep.form.matrix, (mu / 6.0) * np.eye(3), rtol=1e-12)
        assert np.allclose(rep.optimal_b, 0.0, atol=1e-12)
        assert rep.regime == "regime2"

    def test_separable_laminate_value(self):
        lam2 = np.array([1.0, 3.0])
        slab = SlabMaterial.separable(1.0, lam2, mu=1.0, grid=(2, 2, 2))
        rep = bending_form_regime2(slab, tol=1e-12)
        assert np.allclose(rep.form.matrix, (2.0 * 2.0 / 12.0) * np.eye(3), rtol=1e-12)

    def test_pair_energy_diagonal_equals_single_load_energy(self):
        rng = np.random.default_rng(35)
        slab = random_slab(rng, grid=(2, 2, 2), nf=2)
        N = np.array(bending_form_regime2(slab, tol=1e-11).diagnostics["pair_energy_matrix"])
        for k, load in enumerate([("A", i) for i in range(3)] + [("B", i) for i in range(3)]):
            _, energy = slab_corrector_solve(slab, load, tol=1e-11)
            assert N[k, k] == pytest.approx(energy, rel=1e-12)

    def test_regime_consistency_for_fiber_materials(self):
        for lam2 in ([1.0, 3.0], [0.5, 1.0, 2.0], [1.0, 1.4, 0.7, 2.2]):
            lam2 = np.array(lam2)
            mu = 0.9
            cell = laminate_cell(tuple(mu * 2 * lam2 / (2 * mu)), mu=mu)
            r1 = bending_form_regime1(cell, tol=1e-12)
            slab = SlabMaterial.separable(1.0, lam2, mu=mu, grid=(1, 1, 2))
            r2 = bending_form_regime2(slab, tol=1e-12)
            assert np.allclose(r1.form.matrix, r2.form.matrix, rtol=1e-9)

    def test_positive_definite_symmetric_bounded(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            slab = random_slab(rng, grid=(2, 2, 2), nf=2, eta1=1.0, eta2=4.0)
            rep = bending_form_regime2(slab, tol=1e-11)
            ev = np.linalg.eigvalsh(rep.form.matrix)
            assert ev[0] > 0.0
            assert ev[-1] <= 4.0 / 12 + 1e-9
            assert np.abs(rep.form.matrix - rep.form.matrix.T).max() <= 1e-12

    def test_scaling(self):
        rng = np.random.default_rng(35)
        slab = random_slab(rng, grid=(2, 2, 2), nf=2)
        scaled = SlabMaterial(
            fibers=2.5 * slab.fibers,
            fiber_index=slab.fiber_index,
            bounds=MaterialBounds(2.5 * slab.bounds.eta1, 2.5 * slab.bounds.eta2),
            weights=slab.weights,
            scale=slab.scale,
        )
        r1 = bending_form_regime2(slab, tol=1e-12)
        r2 = bending_form_regime2(scaled, tol=1e-12)
        assert np.allclose(r2.form.matrix, 2.5 * r1.form.matrix, rtol=1e-10)

    def test_inplane_refinement_monotone(self):
        rng = np.random.default_rng(36)
        slab = random_slab(rng, grid=(2, 2, 2), nf=2)
        r1 = bending_form_regime2(slab, tol=1e-12)
        r2 = bending_form_regime2(slab.refine(2), tol=1e-12)
        a = np.array([1.0, -0.4, 0.6])
        # joint minimization over a nested space never increases values
        assert r2.form.eval_mandel(a) <= r1.form.eval_mandel(a) + 1e-9

    def test_diagnostics(self):
        slab = SlabMaterial.separable(1.0, np.array([1.0, 2.0]), mu=1.0, grid=(2, 2, 2))
        rep = bending_form_regime2(slab, tol=1e-11)
        d = rep.diagnostics
        assert d["grid"] == [2, 2, 2]
        assert d["fiber_samples"] == 2
        assert len(d["solves"]) == 6
        assert all(s["residual"] <= 1e-11 for s in d["solves"])


class TestSlabMaterialValidation:
    def test_bounds_checked(self):
        fibers = np.broadcast_to(np.eye(6), (1, 2, 6, 6)).copy()
        with pytest.raises(AdmissibilityError, match="^slab cell 0 violates lower bound"):
            SlabMaterial(
                fibers=fibers,
                fiber_index=np.zeros((1, 1, 1), dtype=np.int64),
                bounds=MaterialBounds(2.0, 3.0),
            )

    def test_scale_must_be_positive(self):
        fibers = np.broadcast_to(np.eye(6), (1, 2, 6, 6)).copy()
        with pytest.raises(AdmissibilityError):
            SlabMaterial(
                fibers=fibers,
                fiber_index=np.zeros((1, 1, 1), dtype=np.int64),
                bounds=MaterialBounds(0.5, 2.0),
                scale=np.zeros((1, 1, 1)),
            )

    def test_fiber_index_range_checked(self):
        fibers = np.broadcast_to(np.eye(6), (1, 2, 6, 6)).copy()
        with pytest.raises(ValueError):
            SlabMaterial(
                fibers=fibers,
                fiber_index=np.full((1, 1, 1), 3, dtype=np.int64),
                bounds=MaterialBounds(0.5, 2.0),
            )

    @pytest.mark.parametrize("index, scale, match", [
        pytest.param([0, 0, 0, 1], [1.0] * 4,
                     r"^slab cell 3 violates lower bound: eigenvalue 0\.25 < eta1=0\.5$",
                     id="lower-by-fiber"),
        pytest.param([0, 0, 0, 0], [1.0, 1.0, 3.0, 1.0],
                     r"^slab cell 2 violates upper bound: eigenvalue 3 > eta2=2$",
                     id="upper-by-scale"),
    ])
    def test_out_of_bounds_slab_names_its_cell(self, index, scale, match):
        # fiber 0 is the identity, fiber 1 a quarter of it: a cell leaves the
        # bounds by its fiber or by its scale, and the text names its flat index
        fibers = np.stack([np.eye(6), 0.25 * np.eye(6)])[:, None]
        with pytest.raises(AdmissibilityError, match=match):
            SlabMaterial(fibers=fibers, fiber_index=np.reshape(index, (1, 2, 2)),
                         bounds=MaterialBounds(0.5, 2.0), scale=np.reshape(scale, (1, 2, 2)))

    @pytest.mark.parametrize("weights, match", [
        ([1.0], "weights must be 2 layer fractions"),
        ([1.5, -0.5], "positive and sum to 1"),
        ([0.5, 0.6], "positive and sum to 1"),
        ([np.nan, np.nan], "positive and sum to 1"),
    ])
    def test_fiber_and_slab_weights_checked_alike(self, weights, match):
        fibers = np.broadcast_to(np.eye(6), (1, 2, 6, 6)).copy()
        bounds = MaterialBounds(0.5, 2.0)
        with pytest.raises(ValueError, match=match):
            FiberMaterial(c=fibers[0], bounds=bounds, weights=weights)
        with pytest.raises(ValueError, match=match):
            SlabMaterial(fibers=fibers, fiber_index=np.zeros((1, 1, 1), dtype=np.int64),
                         bounds=bounds, weights=weights)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fiber_sample_refused(self, value):
        # refused when built, as a slab is, not read as a bounds failure or a
        # LAPACK warning by the check
        c = np.stack([np.eye(6), np.eye(6)])
        c[0, 2, 2] = value
        with pytest.raises(ValueError, match="^fiber samples contain non-finite entries$"):
            FiberMaterial(c=c, bounds=MaterialBounds(0.5, 2.0))

    def test_separable_bounds_derived(self):
        slab = SlabMaterial.separable(
            np.full((1, 1, 2), 2.0), np.array([1.0, 3.0]), mu=0.5
        )
        assert slab.bounds.eta1 == pytest.approx(2.0)
        assert slab.bounds.eta2 == pytest.approx(6.0)

    def test_inferred_bounds_are_the_scaled_eigenvalue_extremes(self):
        # the formula the slab reader and SlabMaterial.homogeneous used, bit for bit
        rng = np.random.default_rng(37)
        fibers = np.stack([np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(3)])
                           for _ in range(2)])
        index = rng.integers(0, 2, size=(2, 2, 3))
        scale = rng.uniform(0.5, 2.0, size=(2, 2, 3))
        eig = np.linalg.eigvalsh(fibers)
        lo = float((scale.ravel() * eig[:, :, 0].min(axis=1)[index.ravel()]).min())
        hi = float((scale.ravel() * eig[:, :, -1].max(axis=1)[index.ravel()]).max())
        slab = SlabMaterial(fibers=fibers, fiber_index=index, scale=scale)
        assert slab.bounds == MaterialBounds(lo, hi)
        q3 = qf_isotropic(1.3, 0.4)
        eig = q3.eigenvalues()
        assert SlabMaterial.homogeneous(q3, grid=(2, 1, 2), nf=3).bounds == MaterialBounds(
            float(eig[0]), float(eig[-1]))

    def test_check_work_runs_once(self, monkeypatch):
        # inferred bounds and the check share one set of extremes, and no run checks again
        built = random_slab(np.random.default_rng(38))
        args = []

        def counted(a, *rest, _eigvalsh=np.linalg.eigvalsh, **kwargs):
            args.append(a)
            return _eigvalsh(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        slab = SlabMaterial(fibers=built.fibers, fiber_index=built.fiber_index, scale=built.scale)
        first = bending_form_regime2(slab, tol=1e-12)
        again = bending_form_regime2(slab, tol=1e-12)
        assert sum(a is slab.fibers for a in args) == 1
        assert np.array_equal(first.form.matrix, again.form.matrix)

    def test_fiber_check_runs_once(self, monkeypatch):
        # the fiber is checked when built, and fiber_reduce does not check it again
        built = random_fiber(np.random.default_rng(41), nf=3)
        args = []

        def counted(a, *rest, _eigvalsh=np.linalg.eigvalsh, **kwargs):
            args.append(a)
            return _eigvalsh(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        fiber = FiberMaterial(c=built.c, bounds=built.bounds)
        first, again = fiber_reduce(fiber), fiber_reduce(fiber)
        assert sum(a is fiber.c for a in args) == 1
        assert np.array_equal(first.matrix, again.matrix)


SLAB_BASIS = [("A", i) for i in range(3)] + [("B", i) for i in range(3)]


def full_grid_regime2(slab, tol=1e-13):
    """Pair energy matrix, bending form and optimal mid-plane map on the slab's
    full grid, from an operator built here on every cell: the reference for the
    solve-grid cut."""
    op = fem.ElementOperator(fem.build_slab_grid(*slab.grid_shape), slab.reduced_cells())
    N = fem.solve_loads(op, [_load_strain(load) for load in SLAB_BASIS], tol)[1]
    q, X = spd_schur(N[:3, :3], N[:3, 3:].T, N[3:, 3:], AssertionError())
    return N, q, -X


class TestSlabSolveGrid:
    """Regime 2 solves on the slab cut to one cell along y1 and y2 where the
    reduced laws are bitwise equal; x3 has free faces and never collapses."""

    @staticmethod
    def check_against_full_grid(slab, solve_grid):
        rep = bending_form_regime2(slab, tol=1e-13)
        d = rep.diagnostics
        assert d["grid"] == list(slab.grid_shape)
        assert d["solve_grid"] == solve_grid
        N, q, b = full_grid_regime2(slab)
        assert_close(d["pair_energy_matrix"], N)
        assert_close(rep.form.matrix, q)
        assert_close(rep.optimal_b, b)
        return rep, b

    def test_constant_along_y2_collapses_y2_only(self):
        # anisotropic fibers that depend on (y1, x3): an off-centre stiff layer
        # gives a mid-plane map well above rounding
        rng = np.random.default_rng(45)
        fibers = np.stack([np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(2)])
                           for _ in range(6)])
        index = np.broadcast_to(np.arange(6).reshape(3, 1, 2), (3, 4, 2))
        scale = np.broadcast_to(np.array([1.0, 20.0]), (3, 4, 2))
        rep, b = self.check_against_full_grid(
            SlabMaterial(fibers=fibers, fiber_index=index, scale=scale), [3, 1, 2])
        assert np.abs(b).max() > 1e-3

    def test_layered_slab_collapses_to_one_fiber(self):
        slab = SlabMaterial.separable(np.broadcast_to([1.0, 30.0, 2.0], (4, 3, 3)),
                                      np.array([1.0, 2.0, 1.5]), mu=0.7)
        rep, _ = self.check_against_full_grid(slab, [1, 1, 3])
        assert rep.diagnostics["cell_laws"] == 3

    def test_one_cell_that_differs_keeps_its_axes(self):
        scale = np.ones((3, 4, 3))
        scale[1, 2, 1] = np.nextafter(1.0, 2.0)
        slab = SlabMaterial.separable(scale, np.array([1.0, 2.0]), mu=0.7)
        self.check_against_full_grid(slab, [3, 4, 3])

    def test_homogeneous_slab_keeps_its_thickness(self):
        mu = 0.8
        slab = SlabMaterial.homogeneous(qf_isotropic(mu, 0.0), grid=(3, 2, 4), nf=2)
        rep, _ = self.check_against_full_grid(slab, [1, 1, 4])
        assert_close(rep.form.matrix, (mu / 6.0) * np.eye(3))

    @pytest.mark.parametrize("load", [("A", 0), ("B", 2)])
    def test_one_load_solve_runs_on_the_cut_grid(self, monkeypatch, load):
        # anisotropic fibers that vary along x3 only: one operator on one fiber of
        # cells, the field tiled back onto the 3x4x4 nodes
        rng = np.random.default_rng(46)
        fibers = np.stack([np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(2)])
                           for _ in range(3)])
        slab = SlabMaterial(fibers=fibers, fiber_index=np.broadcast_to(np.arange(3), (3, 4, 3)))
        op = fem.ElementOperator(fem.build_slab_grid(*slab.grid_shape), slab.reduced_cells())
        [x], N, _ = fem.solve_loads(op, [_load_strain(load)], 1e-13)
        assert np.abs(x).max() > 1e-2
        grids = operator_grids(monkeypatch)
        corr, energy = slab_corrector_solve(slab, load, tol=1e-13)
        assert grids == [(1, 1, 3)]
        assert corr.values.shape == (3, 4, 4, 3)
        assert_tiled_solve(corr, energy, x, N)

    def test_one_load_solve_stays_on_the_full_grid(self):
        slab = SlabMaterial.separable(np.broadcast_to([1.0, 3.0], (2, 3, 2)),
                                      np.array([1.0, 2.0]), mu=1.0)
        corr, _ = slab_corrector_solve(slab, ("A", 0), tol=1e-12)
        assert corr.values.shape == (2, 3, 3, 3)
