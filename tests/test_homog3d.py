import numpy as np
import pytest

from plate_homog import (
    AdmissibilityError,
    CellMaterial3,
    FiberMaterial,
    MaterialBounds,
    QuadForm3,
    SlabMaterial,
    bending_form_regime1,
    bending_form_regime2,
    brute_force_regime1,
    brute_force_regime2,
    corrector_solve_3d,
    fiber_reduce,
    homogenized_form_3d,
    qf_isotropic,
    slab_corrector_solve,
)
from plate_homog import fem, homog3d
from plate_homog.oracle import laminate_reduced_form
from plate_homog.reduction import plane_stress_reduce

from helpers import operator_grids, random_cell, random_spd, two_phase_cell

E_BASIS = np.eye(6)


def laminate_cell(lam2=(1.0, 3.0), mu=1.0):
    """Through-fiber laminate with zero Poisson coupling."""
    c = np.stack([(2 * mu * l) * np.eye(6) for l in lam2]).reshape(1, 1, len(lam2), 6, 6)
    lo, hi = 2 * mu * min(lam2), 2 * mu * max(lam2)
    return CellMaterial3(c=c, bounds=MaterialBounds(lo, hi))


def checkerboard_cell(n=4, soft=1.0, hard=3.0, mu=1.0, axes=(0, 1), block=2):
    """Two-phase checkerboard with ``block`` cells per phase tile.

    Single-cell tiles are invisible to trilinear elements (the nodal
    load contributions cancel by diagonal parity), so tests use
    2-cell blocks to produce genuinely nonzero correctors.
    """
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    coords = (i, j, k)
    pattern = (coords[axes[0]] // block + coords[axes[1]] // block) % 2
    scale = np.where(pattern == 0, soft, hard)
    c = 2 * mu * scale[..., None, None] * np.eye(6)
    return CellMaterial3(c=c, bounds=MaterialBounds(2 * mu * soft, 2 * mu * hard))


class TestCorrectorSolve:
    def test_homogeneous_corrector_vanishes(self):
        mat = CellMaterial3.homogeneous(qf_isotropic(1.3, 0.8), grid=(2, 2, 2))
        for i in (0, 2, 4):
            corr, energy = corrector_solve_3d(mat, E_BASIS[i], tol=1e-12)
            assert np.allclose(corr.values, 0.0, atol=1e-14)
            assert energy == pytest.approx(qf_isotropic(1.3, 0.8).matrix[i, i], rel=1e-14)

    def test_laminate_harmonic_mean_transverse(self):
        mat = laminate_cell((1.0, 3.0), mu=1.0)
        _, energy = corrector_solve_3d(mat, E_BASIS[2], tol=1e-12)
        harm = 1.0 / np.mean([1.0, 1.0 / 3.0])
        assert energy == pytest.approx(2.0 * harm, rel=1e-12)

    def test_laminate_arithmetic_mean_inplane(self):
        mat = laminate_cell((1.0, 3.0), mu=1.0)
        corr, energy = corrector_solve_3d(mat, E_BASIS[0], tol=1e-12)
        assert energy == pytest.approx(2.0 * 2.0, rel=1e-12)
        assert np.allclose(corr.values, 0.0, atol=1e-13)

    def test_corrector_zero_mean_and_energy_upper_bound(self):
        rng = np.random.default_rng(20)
        mat = random_cell(rng, grid=(3, 3, 3))
        E = np.array([0.5, -0.2, 0.1, 0.7, 0.0, 0.3])
        corr, energy = corrector_solve_3d(mat, E, tol=1e-11)
        assert np.allclose(corr.values.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-13)
        no_corrector = float(E @ mat.flat().mean(axis=0) @ E)
        assert energy <= no_corrector + 1e-12

    def test_matrix_strain_argument(self):
        mat = laminate_cell()
        G = np.zeros((3, 3))
        G[2, 2] = 1.0
        _, e1 = corrector_solve_3d(mat, G, tol=1e-12)
        _, e2 = corrector_solve_3d(mat, E_BASIS[2], tol=1e-12)
        assert e1 == pytest.approx(e2, rel=1e-14)

    # Every entry point takes a material that was checked when it was built.
    ENTRY_POINTS = {
        "corrector_solve_3d": lambda cell, slab, fiber: corrector_solve_3d(cell, E_BASIS[0]),
        "homogenized_form_3d": lambda cell, slab, fiber: homogenized_form_3d(cell),
        "bending_form_regime1": lambda cell, slab, fiber: bending_form_regime1(cell),
        "brute_force_regime1": lambda cell, slab, fiber: brute_force_regime1(cell, np.eye(2)),
        "slab_corrector_solve": lambda cell, slab, fiber: slab_corrector_solve(slab, ("A", 0)),
        "bending_form_regime2": lambda cell, slab, fiber: bending_form_regime2(slab),
        "brute_force_regime2": lambda cell, slab, fiber: brute_force_regime2(slab, np.eye(2)),
        "fiber_reduce": lambda cell, slab, fiber: fiber_reduce(fiber),
    }

    MATERIALS = (
        lambda samples, bounds: CellMaterial3(c=samples.reshape(1, 1, 2, 6, 6), bounds=bounds),
        lambda samples, bounds: SlabMaterial(fibers=samples[None], bounds=bounds,
                                             fiber_index=np.zeros((1, 1, 2), dtype=np.int64)),
        lambda samples, bounds: FiberMaterial(c=samples, bounds=bounds),
    )

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_inadmissible_material_rejected(self, entry, monkeypatch):
        # The identity law is positive definite, so only the bounds check can
        # refuse it, and the asymmetric law has a symmetric part with
        # eigenvalue -1.5 that ``eigvalsh`` cannot see: it reads the lower
        # triangle, the identity.  One text for cell, slab and fiber, which
        # name their sample 0 "cell sample 0", "slab cell 0" and "fiber sample 0".
        asymmetric = np.eye(6)
        asymmetric[0, 1] = 5.0
        for law, bounds, match in (
            (np.eye(6), MaterialBounds(2.0, 3.0),
             r" 0 violates lower bound: eigenvalue 1 < eta1=2$"),
            (asymmetric, MaterialBounds(0.5, 2.0),
             r" 0 is not symmetric \(max asymmetry 5\.000e\+00\)$"),
        ):
            samples = np.stack([law, np.eye(6)])
            for build in self.MATERIALS:
                with pytest.raises(AdmissibilityError, match=match):
                    build(samples, bounds)
        # so no entry point checks again: it runs with the check refusing everything
        samples, bounds = np.stack([np.eye(6), 2.0 * np.eye(6)]), MaterialBounds(0.5, 2.0)
        materials = [build(samples, bounds) for build in self.MATERIALS]

        def refuse(*args, **kwargs):
            raise AssertionError("checked again")

        monkeypatch.setattr(MaterialBounds, "require", refuse)
        self.ENTRY_POINTS[entry](*materials)


class TestHomogenizedForm:
    def test_homogeneous_recovers_input(self):
        q = qf_isotropic(1.1, 0.4)
        mat = CellMaterial3.homogeneous(q, grid=(2, 2, 2))
        qh = homogenized_form_3d(mat, tol=1e-12)
        assert np.allclose(qh.matrix, q.matrix, atol=1e-13)

    def test_laminate_equals_fiber_reduce(self):
        lam2 = np.array([1.0, 2.0, 4.0, 1.5])
        c = np.stack([(2 * l) * np.eye(6) for l in lam2])
        mat = CellMaterial3(c=c.reshape(1, 1, 4, 6, 6), bounds=MaterialBounds(2.0, 8.0))
        qh = homogenized_form_3d(mat, tol=1e-13)
        red = fiber_reduce(FiberMaterial(c=c, bounds=MaterialBounds(2.0, 8.0)))
        assert np.allclose(qh.matrix, red.matrix, rtol=1e-11)

    def test_checkerboard_between_reuss_and_voigt(self):
        mat = checkerboard_cell(n=4)
        qh = homogenized_form_3d(mat, tol=1e-11)
        flat = mat.flat()
        voigt = flat.mean(axis=0)
        reuss = np.linalg.inv(np.linalg.inv(flat).mean(axis=0))
        assert np.linalg.eigvalsh(voigt - qh.matrix).min() >= -1e-9
        assert np.linalg.eigvalsh(qh.matrix - reuss).min() >= -1e-9

    def test_diagonal_equals_single_load_energy(self):
        rng = np.random.default_rng(22)
        mat = random_cell(rng, grid=(2, 2, 2))
        qh = homogenized_form_3d(mat, tol=1e-11)
        for i in range(6):
            _, energy = corrector_solve_3d(mat, E_BASIS[i], tol=1e-11)
            assert qh.matrix[i, i] == pytest.approx(energy, rel=1e-12)

    def test_bounds_inherited(self):
        rng = np.random.default_rng(21)
        mat = random_cell(rng, grid=(2, 2, 2), eta1=1.0, eta2=4.0)
        qh = homogenized_form_3d(mat, tol=1e-11)
        ev = np.linalg.eigvalsh(qh.matrix)
        assert ev[0] >= 1.0 - 1e-8
        assert ev[-1] <= 4.0 + 1e-8


class TestBendingRegime1:
    def test_homogeneous_isotropic_sixth(self):
        mu = 1.4
        mat = CellMaterial3.homogeneous(qf_isotropic(mu, 0.0), grid=(2, 2, 2))
        rep = bending_form_regime1(mat, tol=1e-12)
        assert np.allclose(rep.form.matrix, (mu / 6.0) * np.eye(3), rtol=1e-13)
        assert np.array_equal(rep.optimal_b, np.zeros((3, 3)))
        assert rep.regime == "regime1"

    def test_laminate_arithmetic_mean_bending(self):
        mat = laminate_cell((1.0, 3.0), mu=1.0)
        rep = bending_form_regime1(mat, tol=1e-12)
        assert np.allclose(rep.form.matrix, (2.0 * 2.0 / 12.0) * np.eye(3), rtol=1e-12)

    def test_material_scaling_scales_result(self):
        rng = np.random.default_rng(22)
        mat = random_cell(rng, grid=(2, 2, 2))
        scaled = CellMaterial3(
            c=3.0 * mat.c, bounds=MaterialBounds(3 * mat.bounds.eta1, 3 * mat.bounds.eta2)
        )
        r1 = bending_form_regime1(mat, tol=1e-12)
        r2 = bending_form_regime1(scaled, tol=1e-12)
        assert np.allclose(r2.form.matrix, 3.0 * r1.form.matrix, rtol=1e-10)

    def test_positive_definite_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mat = random_cell(rng, grid=(2, 2, 2), eta1=1.0, eta2=4.0)
            rep = bending_form_regime1(mat, tol=1e-11)
            ev = np.linalg.eigvalsh(rep.form.matrix)
            assert ev[0] > 0.0
            assert ev[-1] <= 4.0 / 12 + 1e-9
            assert np.abs(rep.form.matrix - rep.form.matrix.T).max() <= 1e-12

    def test_quadratic_and_sym_invariant(self):
        mat = laminate_cell()
        rep = bending_form_regime1(mat, tol=1e-12)
        A = np.array([[0.3, 1.1], [-0.7, 0.2]])
        s = 0.5 * (A + A.T)
        assert rep.form.eval(A) == rep.form.eval(s)
        assert rep.form.eval(2.0 * A) == pytest.approx(4.0 * rep.form.eval(A), rel=1e-14)

    def test_report_diagnostics_complete(self):
        mat = laminate_cell()
        rep = bending_form_regime1(mat, tol=1e-12)
        d = rep.diagnostics
        assert d["grid"] == [1, 1, 2]
        assert len(d["solves"]) == 6
        assert all(s["residual"] <= 1e-12 for s in d["solves"])
        assert d["thickness_factor"] == pytest.approx(1.0 / 12.0)


class TestRefinementAndUniqueness:
    def test_nested_refinement_never_increases_energy(self):
        rng = np.random.default_rng(24)
        for mat in (random_cell(rng, grid=(2, 2, 2)), checkerboard_cell(n=2)):
            E = np.array([1.0, 0.2, -0.3, 0.4, 0.6, -0.1])
            _, coarse = corrector_solve_3d(mat, E, tol=1e-12)
            _, fine = corrector_solve_3d(mat.refine(2), E, tol=1e-12)
            assert fine <= coarse + 1e-10


class TestMaterialBounds:
    def test_inferred_bounds_are_the_eigenvalue_extremes(self):
        # the formula the cell reader and CellMaterial3.homogeneous used, bit for bit
        rng = np.random.default_rng(26)
        c = random_cell(rng, grid=(2, 3, 2)).c
        eig = np.linalg.eigvalsh(c.reshape(-1, 6, 6))
        mat = CellMaterial3(c=c)
        assert mat.bounds == MaterialBounds(float(eig[:, 0].min()), float(eig[:, -1].max()))
        q3 = qf_isotropic(1.3, 0.4)
        eig = q3.eigenvalues()
        assert CellMaterial3.homogeneous(q3, grid=(2, 2, 3)).bounds == MaterialBounds(
            float(eig[0]), float(eig[-1]))

    def test_check_work_runs_once(self, monkeypatch):
        # inferred bounds, the check and both runs share one law index
        c = checkerboard_cell(n=2, block=1).c
        calls = []

        def counted(cellC, _distinct=fem._distinct_laws):
            calls.append(len(cellC))
            return _distinct(cellC)

        monkeypatch.setattr(homog3d, "_distinct_laws", counted)
        monkeypatch.setattr(fem, "_distinct_laws", counted)
        mat = CellMaterial3(c=c)
        first = bending_form_regime1(mat, tol=1e-12)
        again = bending_form_regime1(mat, tol=1e-12)
        assert calls == [8]
        assert np.array_equal(first.form.matrix, again.form.matrix)


class TestCheckOverDistinctLaws:
    @staticmethod
    def _two_laws_and(rng, bad, cells=(5, 17)):
        """27 cells alternating two admissible laws, ``bad`` at ``cells``."""
        good = [random_spd(rng, 6, 1.0, 4.0) for _ in range(2)]
        c = np.stack([good[k % 2] for k in range(27)])
        c[list(cells)] = bad
        return c.reshape(3, 3, 3, 6, 6)

    def test_violating_law_names_its_first_cell(self):
        rng = np.random.default_rng(27)
        bounds = MaterialBounds(1.0 - 1e-9, 4.0 + 1e-9)
        for bad, side in ((random_spd(rng, 6, 0.3, 0.6), "lower"),
                          (random_spd(rng, 6, 5.0, 8.0), "upper")):
            c = self._two_laws_and(rng, bad)
            with pytest.raises(AdmissibilityError, match=f"^cell sample 5 violates {side} bound"):
                CellMaterial3(c=c, bounds=bounds)

    def test_asymmetric_law_in_one_cell_is_refused(self):
        rng = np.random.default_rng(28)
        bad = random_spd(rng, 6, 1.0, 4.0)
        bad[0, 1] += 1e-6
        c = self._two_laws_and(rng, bad, cells=(13,))
        with pytest.raises(AdmissibilityError, match="^cell sample 13 is not symmetric"):
            CellMaterial3(c=c, bounds=MaterialBounds(0.5, 5.0))

    def test_inferred_bounds_equal_per_cell_eigenvalues(self):
        # five random laws over 64 cells: the per-law extremes, bit for bit
        rng = np.random.default_rng(29)
        laws = np.stack([random_spd(rng, 6, 0.5, 6.0) for _ in range(5)])
        c = laws[rng.integers(0, 5, size=64)].reshape(4, 4, 4, 6, 6)
        eig = np.linalg.eigvalsh(c.reshape(-1, 6, 6))
        mat = CellMaterial3(c=c)
        assert mat.bounds == MaterialBounds(float(eig[:, 0].min()), float(eig[:, -1].max()))
        first, law = mat.law_index
        assert np.array_equal(mat.flat()[first][law], mat.flat())


class TestCoupledOscillations:
    def test_thickness_oscillation_still_matters_inplane_coupled(self):
        # Checkerboard in (y1, y3): homogenizing the true material differs
        # from homogenizing its through-fiber average, unlike the decoupled
        # thickness-only situation where only the average survives.
        mat = checkerboard_cell(n=4, axes=(0, 2))
        averaged = CellMaterial3(
            c=np.broadcast_to(
                mat.c.mean(axis=2, keepdims=True), mat.c.shape
            ).copy(),
            bounds=mat.bounds,
        )
        rep_true = bending_form_regime1(mat, tol=1e-11)
        rep_avg = bending_form_regime1(averaged, tol=1e-11)
        rel = np.linalg.norm(rep_true.form.matrix - rep_avg.form.matrix) / np.linalg.norm(
            rep_avg.form.matrix
        )
        assert rel > 0.01

    def test_thickness_only_laminate_sees_no_inplane_effect(self):
        # sanity counterpart: for a pure through-fiber laminate the cell
        # problem is one-dimensional and refining in-plane changes nothing
        mat = laminate_cell((1.0, 3.0))
        rep1 = bending_form_regime1(mat, tol=1e-12)
        rep2 = bending_form_regime1(mat.refine(2), tol=1e-12)
        assert np.allclose(rep1.form.matrix, rep2.form.matrix, rtol=1e-10)


def column_cell(n=6, contrast=30.0, mu=1.0, nu=0.25):
    """Isotropic n x n x n cell with a ``contrast`` times stiffer column that runs
    through x3: constant along x3, two-phase in plane."""
    soft = qf_isotropic(mu, 2.0 * mu * nu / (1.0 - 2.0 * nu)).matrix
    i, j, _ = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
    stiff = (i >= 1) & (i < 1 + n // 2) & (j >= 2) & (j < 2 + n // 2)
    return CellMaterial3(c=np.where(stiff[..., None, None], contrast * soft, soft))


def full_grid_energy(material, tol=1e-13):
    """Energy matrix of the six basis strains on the material's full grid, from an
    operator built here on every cell: the reference for the solve-grid cut."""
    op = fem.ElementOperator(fem.build_cell_grid(*material.grid_shape), material.flat())
    return fem.solve_loads(op, list(E_BASIS), tol)[1]


def assert_close(actual, expected, rel=1e-12):
    """``actual`` within ``rel`` of the largest entry of ``expected``."""
    expected = np.asarray(expected)
    assert np.abs(np.asarray(actual) - expected).max() <= rel * np.abs(expected).max()


def assert_tiled_solve(corr, energy, x, N):
    """A one-load solve's tiled field and energy against the full-grid field ``x``
    and 1x1 energy matrix ``N`` of the same load."""
    assert type(corr) is fem.CorrectorField
    assert_close(corr.flat(), x, rel=1e-10)
    means = corr.values.reshape(-1, 3).mean(axis=0)
    assert np.abs(means).max() <= 1e-13 * np.abs(x).max()
    assert energy == pytest.approx(N[0, 0], rel=1e-12)


class TestSolveGrid:
    """Regime 1 solves on the cell cut to one cell along every axis on which the
    laws are bitwise equal, with the forms of the full grid."""

    def check_against_full_grid(self, material, solve_grid):
        rep = bending_form_regime1(material, tol=1e-13)
        d = rep.diagnostics
        assert d["grid"] == list(material.grid_shape)
        assert d["solve_grid"] == solve_grid
        N = full_grid_energy(material)
        assert_close(d["homogenized_form"], N)
        assert_close(homogenized_form_3d(material, tol=1e-13).matrix, N)
        q2, dstar = plane_stress_reduce(QuadForm3(N))
        assert_close(d["plane_stress_form"], q2.matrix)
        assert_close(rep.form.matrix, q2.matrix / 12.0)
        # on laminates the minimizer is rounding dust: compare it on the form's scale
        diff = np.abs(np.asarray(d["plane_stress_minimizer"]) - dstar).max()
        assert diff <= 1e-12 * np.abs(q2.matrix).max()
        return rep

    def test_column_collapses_to_one_layer(self):
        mat = column_cell(n=6, contrast=30.0)
        rep = self.check_against_full_grid(mat, [6, 6, 1])
        assert rep.diagnostics["cell_laws"] == 2

    def test_laminate_collapses_to_one_fiber(self):
        lam2 = (1.0, 30.0, 30.0, 2.0, 1.0)
        mat = CellMaterial3(c=np.broadcast_to(laminate_cell(lam2).c, (3, 4, 5, 6, 6)).copy())
        self.check_against_full_grid(mat, [1, 1, 5])
        closed = laminate_reduced_form(1.0, lam2, mu=1.0).matrix
        assert_close(homogenized_form_3d(mat, tol=1e-13).matrix, closed)

    def test_homogeneous_cell_solves_on_one_cell(self):
        q3 = qf_isotropic(1.3, 0.7)
        mat = CellMaterial3.homogeneous(q3, grid=(3, 2, 4))
        rep = self.check_against_full_grid(mat, [1, 1, 1])
        assert_close(rep.form.matrix, plane_stress_reduce(q3)[0].matrix / 12.0)
        assert all(s["iterations"] == 0 for s in rep.diagnostics["solves"])

    @pytest.mark.parametrize("cell", [(2, 1, 3), (0, 2, 0)])
    def test_one_cell_that_differs_keeps_its_axes(self, cell):
        # one entry of one cell one ulp away: bitwise unequal, no tolerance
        mat = column_cell(n=4, contrast=30.0)
        c = mat.c.copy()
        c[cell][0, 0] = np.nextafter(c[cell][0, 0], np.inf)
        rep = self.check_against_full_grid(CellMaterial3(c=c), [4, 4, 4])
        assert rep.diagnostics["cell_laws"] == 3

    def test_differing_along_one_axis_keeps_that_axis_only(self):
        # laws that vary along y1 alone keep y1 only; a stiffer x3 layer keeps x3
        # too, and one more changed cell keeps y2
        lam = np.array([1.0, 30.0, 30.0, 2.0])
        c = np.broadcast_to((2.0 * lam)[:, None, None, None, None] * np.eye(6),
                            (4, 3, 2, 6, 6)).copy()
        self.check_against_full_grid(CellMaterial3(c=c.copy()), [4, 1, 1])
        c[:, :, 1] *= 1.5
        self.check_against_full_grid(CellMaterial3(c=c.copy()), [4, 1, 2])
        c[2, 1, 0] *= 1.5
        self.check_against_full_grid(CellMaterial3(c=c), [4, 3, 2])

    def test_one_load_solve_runs_on_the_cut_grid(self, monkeypatch):
        # one operator, on one layer of cells; the field tiled back onto 6^3 nodes
        mat = column_cell(n=6, contrast=30.0)
        op = fem.ElementOperator(fem.build_cell_grid(*mat.grid_shape), mat.flat())
        [x], N, _ = fem.solve_loads(op, [E_BASIS[0]], 1e-13)
        grids = operator_grids(monkeypatch)
        corr, energy = corrector_solve_3d(mat, E_BASIS[0], tol=1e-13)
        assert grids == [(6, 6, 1)]
        assert corr.values.shape == (6, 6, 6, 3)
        assert_tiled_solve(corr, energy, x, N)

    def test_one_load_solve_stays_on_the_full_grid(self):
        mat = column_cell(n=4)
        corr, energy = corrector_solve_3d(mat, E_BASIS[0], tol=1e-13)
        assert corr.values.shape == (4, 4, 4, 3)
        # constant along x3, as the minimizer of an x3-invariant problem is
        assert np.abs(corr.values - corr.values[:, :, :1]).max() <= 1e-10 * np.abs(
            corr.values).max()
        assert energy == pytest.approx(full_grid_energy(mat)[0, 0], rel=1e-12)


@pytest.mark.parametrize("n, contrast, shape, iterations", [
    (8, 30.0, "box", [18, 0, 0, 18, 0, 0]),
    (10, 3.0, "column", [9, 0, 5, 5, 0, 5]),
    (10, 30.0, "column", [10, 0, 5, 5, 0, 5]),
    (12, 3.0, "column", [10, 0, 6, 6, 0, 6]),
    (16, 30.0, "laminate", [0, 0, 1, 1, 0, 0]),
])
def test_benchmark_cell_iterations_per_load(n, contrast, shape, iterations):
    # cells built like the five of the regime1-cells benchmark, at the default
    # tol: the CG iterations of each load, 0 for a load mirrored from another
    # (or, on the laminate, below its noise floor), on the cut solve grid
    report = bending_form_regime1(two_phase_cell(n, contrast, shape))
    assert [s["iterations"] for s in report.diagnostics["solves"]] == iterations
    assert report.diagnostics["preconditioner"] == fem.MAJORITY_REFERENCE
