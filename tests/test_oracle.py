import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from plate_homog import (
    CellMaterial3,
    MaterialBounds,
    QuadForm2,
    SizeCapError,
    SolverError,
    SlabMaterial,
    bending_form_regime1,
    bending_form_regime2,
    bilayer_closed_form,
    brute_force_regime1,
    brute_force_regime2,
    laminate_closed_form,
    plane_stress_reduce,
    qf_isotropic,
)
from plate_homog.core import EMBED_2_TO_3
from plate_homog.fem import build_cell_grid, build_slab_grid
from plate_homog.oracle import (
    SIZE_CAP_BYTES,
    DenseProblem,
    _forward_solve,
    assemble_regime1,
    assemble_regime2,
)

from helpers import (
    fiber_per_cell_slab,
    quadrature_x3,
    random_cell,
    random_slab,
    reference_forward_solve,
)


class TestClosedForms:
    def test_bilayer_equal_phases(self):
        base = QuadForm2(np.diag([1.0, 2.0, 3.0]))
        q = bilayer_closed_form(2.0, 2.0, base)
        assert np.allclose(q.matrix, base.matrix * (2.0 / 12.0), rtol=1e-15)

    def test_bilayer_one_three(self):
        q = bilayer_closed_form(1.0, 3.0, QuadForm2(np.eye(3)))
        assert np.allclose(q.matrix, (13.0 / 96.0) * np.eye(3), rtol=1e-15)

    def test_bilayer_swap_symmetric(self):
        base = QuadForm2(np.diag([1.0, 0.5, 2.0]))
        a = bilayer_closed_form(0.7, 2.9, base).matrix
        b = bilayer_closed_form(2.9, 0.7, base).matrix
        assert np.array_equal(a, b)

    def test_bilayer_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bilayer_closed_form(0.0, 1.0, QuadForm2(np.eye(3)))
        with pytest.raises(ValueError):
            bilayer_closed_form(1.0, -2.0, QuadForm2(np.eye(3)))

    def test_laminate_means_constant(self):
        arith, harm = laminate_closed_form(np.full(5, 2.7))
        assert arith == pytest.approx(2.7, rel=1e-15)
        assert harm == pytest.approx(2.7, rel=1e-15)

    def test_laminate_means_two_phase(self):
        arith, harm = laminate_closed_form(np.array([1.0, 3.0]))
        assert arith == pytest.approx(2.0, rel=1e-15)
        assert harm == pytest.approx(1.5, rel=1e-15)

    def test_laminate_jensen_inequality(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            lam = rng.uniform(0.1, 5.0, rng.integers(2, 8))
            arith, harm = laminate_closed_form(lam)
            assert arith >= harm
            if np.ptp(lam) > 1e-3:
                assert arith > harm

    def test_laminate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            laminate_closed_form(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.6], "^weights must be positive and sum to 1$"),
        ([1.5, -0.5], "^weights must be positive and sum to 1$"),
        ([1.0], "^weights must be 2 layer fractions, one per fiber sample$"),
    ])
    def test_laminate_refuses_weights_like_a_fiber(self, weights, message):
        # the layer fractions of FiberMaterial and SlabMaterial, with their rule
        with pytest.raises(ValueError, match=message):
            laminate_closed_form(np.array([1.0, 3.0]), weights)


class TestBruteForceRegime1:
    def test_homogeneous_matches_reduction(self):
        q = qf_isotropic(1.2, 0.9)
        mat = CellMaterial3.homogeneous(q, grid=(2, 2, 2))
        q2, _ = plane_stress_reduce(q)
        rng = np.random.default_rng(41)
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            val = brute_force_regime1(mat, A, x3_samples=4)
            assert val == pytest.approx(q2.eval(A) / 12.0, rel=1e-12)

    def test_zero_curvature_zero_energy(self):
        mat = CellMaterial3.homogeneous(qf_isotropic(1.0, 0.0), grid=(2, 2, 2))
        assert brute_force_regime1(mat, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_matches_pipeline_on_random_cell(self):
        rng = np.random.default_rng(42)
        mat = random_cell(rng, grid=(2, 2, 2))
        rep = bending_form_regime1(mat, tol=1e-13)
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            ov = brute_force_regime1(mat, A, x3_samples=4)
            assert rep.form.eval(A) == pytest.approx(ov, rel=1e-11)

    def test_axis_relabeling_invariance(self):
        rng = np.random.default_rng(43)
        # scalar-law material symmetric under swapping the two in-plane axes
        scale = rng.uniform(1.0, 3.0, size=(2, 2, 2))
        scale = 0.5 * (scale + scale.transpose(1, 0, 2))
        c = 2.0 * scale[..., None, None] * np.eye(6)
        mat = CellMaterial3(c=c, bounds=MaterialBounds(1.9, 6.1))
        A = np.array([[0.8, 0.3], [0.3, -0.2]])
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        v1 = brute_force_regime1(mat, A, x3_samples=4)
        v2 = brute_force_regime1(mat, P @ A @ P.T, x3_samples=4)
        assert v1 == pytest.approx(v2, rel=1e-11)

    def test_size_cap(self):
        mat = CellMaterial3.homogeneous(qf_isotropic(1.0, 0.0), grid=(16, 16, 16))
        with pytest.raises(SizeCapError):
            brute_force_regime1(mat, np.eye(2), x3_samples=8)

    def test_size_cap_counts_bytes_before_allocating(self):
        # 16^3 with 8 thickness samples: one node's group of 12,291 unknowns would
        # take 1.2 GB three times over, the element stack, its index and a copy 88 MB
        mat = CellMaterial3.homogeneous(qf_isotropic(1.0, 0.0), grid=(16, 16, 16))
        nbytes = 8 * (3 * 12291**2 + 3 * 4096 * 30**2)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=rf"{nbytes} bytes.*group of 12291 unknowns"):
                assemble_regime1(mat, x3_samples=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_size_cap_counts_three_copies_of_a_group(self):
        # 12^3 at 2 thickness nodes: a group of 5,187 unknowns takes 215 MB, under
        # the cap once but not with its Cholesky factor and LAPACK's copy
        mat = CellMaterial3.homogeneous(qf_isotropic(1.0, 0.0), grid=(12, 12, 12))
        assert 8 * 5187**2 < SIZE_CAP_BYTES < 8 * 3 * 5187**2
        with pytest.raises(SizeCapError, match="group of 5187 unknowns"):
            assemble_regime1(mat, x3_samples=2)

    def test_one_cell_axes_laminate_closed_form(self):
        # one cell along y1 and y2: every element lists each periodic node twice
        lam2 = np.array([1.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        c = np.stack([(2.0 * l) * np.eye(6) for l in lam2]).reshape(1, 1, 6, 6, 6)
        mat = CellMaterial3(c=c, bounds=MaterialBounds(2.0, 6.0))
        arith, _ = laminate_closed_form(lam2)
        A = np.array([[1.0, 0.4], [0.4, -0.6]])
        expected = 2.0 * arith * np.sum(A * A) / 12.0
        assert brute_force_regime1(mat, A, x3_samples=3) == pytest.approx(expected, rel=1e-12)

    def test_reduced_matrix_positive_definite(self):
        rng = np.random.default_rng(44)
        mat = random_cell(rng, grid=(2, 2, 2))
        np.linalg.cholesky(_whole_hessian(assemble_regime1(mat, x3_samples=3)))

    def test_reaches_an_8_cube_box_cell(self):
        # 12,291 unknowns: their whole Hessian alone would take 1.2 GB
        soft = qf_isotropic(1.0, 1.5).matrix        # Poisson ratio 0.3
        box = np.zeros((8, 8, 8), dtype=bool)
        box[:4, :3, :2] = True
        mat = CellMaterial3(c=np.where(box[..., None, None], 30.0 * soft, soft),
                            bounds=MaterialBounds(1.9, 30.0 * 6.6))
        rep = bending_form_regime1(mat, tol=1e-13)
        loads = np.vstack([np.eye(3), np.random.default_rng(51).standard_normal((3, 3))])
        energies = assemble_regime1(mat, x3_samples=2).solve(loads)
        assert [rep.form.eval_mandel(a) for a in loads] == pytest.approx(energies, rel=1e-11)


class TestBruteForceRegime2:
    def test_homogeneous_matches_reduction(self):
        q = qf_isotropic(1.0, 0.7)
        slab = SlabMaterial.homogeneous(q, grid=(2, 2, 2), nf=2)
        q2, _ = plane_stress_reduce(q)
        A = np.array([[1.0, 0.4], [0.4, -0.6]])
        val = brute_force_regime2(slab, A)
        # linear-in-x3 elements cannot represent the quadratic thickness
        # corrector exactly, so the dense value sits slightly above
        assert val >= q2.eval(A) / 12.0 - 1e-12
        assert val == pytest.approx(q2.eval(A) / 12.0, rel=0.05)

    def test_homogeneous_no_poisson_exact(self):
        q = qf_isotropic(1.0, 0.0)
        slab = SlabMaterial.homogeneous(q, grid=(2, 2, 2), nf=2)
        A = np.array([[1.0, 0.4], [0.4, -0.6]])
        s = 0.5 * (A + A.T)
        assert brute_force_regime2(slab, A) == pytest.approx(
            2.0 * np.sum(s * s) / 12.0, rel=1e-12
        )

    def test_zero_curvature(self):
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(1, 1, 2), nf=2)
        assert brute_force_regime2(slab, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-14)

    def test_matches_pipeline_on_random_slab(self):
        rng = np.random.default_rng(45)
        slab = random_slab(rng, grid=(2, 2, 2), nf=2)
        rep = bending_form_regime2(slab, tol=1e-13)
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            ov = brute_force_regime2(slab, A)
            assert rep.form.eval(A) == pytest.approx(ov, rel=1e-11)

    def test_matches_pipeline_on_law_basis_slab(self):
        # zero-Poisson slab with random lambda2 per cell: the pipeline's stiffness
        # takes the law-basis form, the oracle assembles every cell's own law
        rng = np.random.default_rng(47)
        slab = fiber_per_cell_slab(rng, (3, 3, 3))
        rep = bending_form_regime2(slab, tol=1e-13)
        assert (rep.diagnostics["stiffness"], rep.diagnostics["law_rank"]) == ("law-basis", 2)
        loads = np.vstack([np.eye(3), rng.standard_normal((3, 3))])
        energies = assemble_regime2(slab).solve(loads)
        assert [rep.form.eval_mandel(a) for a in loads] == pytest.approx(energies, rel=1e-11)

    def test_size_cap(self):
        # a border of 6,912 unknowns (382 MB) and 16,384 elements of 36 (170 MB)
        slab = SlabMaterial.homogeneous(qf_isotropic(1.0, 0.0), grid=(16, 16, 8), nf=4)
        with pytest.raises(SizeCapError):
            brute_force_regime2(slab, np.eye(2))

    def test_one_cell_inplane_laminate_closed_form(self):
        lam2 = np.array([1.0, 3.0])
        slab = SlabMaterial.separable(1.5, lam2, mu=1.0, grid=(1, 1, 2))
        arith, _ = laminate_closed_form(lam2)
        A = np.array([[1.0, 0.4], [0.4, -0.6]])
        expected = 2.0 * 1.5 * arith * np.sum(A * A) / 12.0
        assert brute_force_regime2(slab, A) == pytest.approx(expected, rel=1e-12)

    def test_reduced_matrix_positive_definite(self):
        rng = np.random.default_rng(46)
        slab = random_slab(rng, grid=(1, 2, 2), nf=2)
        np.linalg.cholesky(_whole_hessian(assemble_regime2(slab)))

    def test_reaches_an_8x8x4_fiber_per_cell_slab(self):
        # 19,395 unknowns: their whole Hessian alone would take 3.0 GB
        rng = np.random.default_rng(52)
        slab = fiber_per_cell_slab(rng, (8, 8, 4), nf=4)
        rep = bending_form_regime2(slab, tol=1e-13)
        loads = np.vstack([np.eye(3), rng.standard_normal((3, 3))])
        dense = assemble_regime2(slab)
        assert (dense.nborder, dense.blocks) == (960, (2048, 9))
        energies = dense.solve(loads)
        assert [rep.form.eval_mandel(a) for a in loads] == pytest.approx(energies, rel=1e-11)


# Mandel coordinates of the symmetric part of (0|0|d), d = (d1, d2, d3).
D_MAP = np.zeros((6, 3))
D_MAP[2, 2] = 1.0
D_MAP[[3, 4], [1, 0]] = 1.0 / np.sqrt(2.0)


def _node_dofs(grid, c):
    return (3 * grid.idx[c][:, None] + np.arange(3)).ravel()


def _reduce(H, B, C, drop):
    keep = np.setdiff1d(np.arange(H.shape[0]), drop)
    return H[np.ix_(keep, keep)], B[keep], C


def loop_regime1(material, m):
    """H, B, C of the regime-1 joint quadratic, one element and one quadrature point at a time."""
    grid = build_cell_grid(*material.grid_shape)
    n = grid.ndofs
    ntotal = 3 + 3 * m + m * n
    xg, wg = np.polynomial.legendre.leggauss(m)
    xg, wg = 0.5 * xg, 0.5 * wg
    H, B, C = np.zeros((ntotal, ntotal)), np.zeros((ntotal, 3)), np.zeros((3, 3))
    # cell by cell, the thickness nodes in turn: the x3-odd load terms of the
    # symmetric nodes cancel before other cells' terms are added to them
    for c, Cc in enumerate(material.flat()):
        for i in range(m):
            cols = np.concatenate([np.arange(3), 3 + 3 * i + np.arange(3),
                                   3 + 3 * m + i * n + _node_dofs(grid, c)])
            M = np.zeros((30, 30))
            for q in range(8):
                G = np.concatenate([EMBED_2_TO_3, D_MAP, grid.B[q]], axis=1)
                M += grid.wq[q] * G.T @ Cc @ G
            np.add.at(H, np.ix_(cols, cols), wg[i] * M)
            np.add.at(B, cols, wg[i] * xg[i] * M[:, :3])
            C += wg[i] * xg[i] ** 2 * M[:3, :3]
    drop = [3 + 3 * m + i * n + n - 3 + k for i in range(m) for k in range(3)]
    return _reduce(H, B, C, drop)


def loop_regime2(slab):
    """H, B, C of the regime-2 joint quadratic, one element and one quadrature point at a time."""
    grid = build_slab_grid(*slab.grid_shape)
    n = grid.ndofs
    nf, wf = slab.fiber_samples, slab.weights
    nz = 3 * (nf - 1)
    ntotal = 3 + n + grid.ncells * 8 * nz
    H, B, C = np.zeros((ntotal, ntotal)), np.zeros((ntotal, 3)), np.zeros((3, 3))
    x3q = quadrature_x3(grid)
    for c, stack in enumerate(slab.cell_fiber_stacks()):
        for q in range(8):
            cols = np.concatenate([np.arange(3), 3 + _node_dofs(grid, c),
                                   3 + n + (8 * c + q) * nz + np.arange(nz)])
            M = np.zeros((27 + nz, 27 + nz))
            for j in range(nf):
                # fluctuation basis: samples 0..nf-2 free, the last one keeps the weighted mean zero
                zj = np.eye(nf - 1)[j] if j < nf - 1 else -wf[:-1] / wf[-1]
                G = np.concatenate([EMBED_2_TO_3, grid.B[q], np.kron(zj, D_MAP)], axis=1)
                M += grid.wq[q] * wf[j] * G.T @ stack[j] @ G
            x3 = x3q[c, q]
            np.add.at(H, np.ix_(cols, cols), M)
            np.add.at(B, cols, x3 * M[:, :3])
            C += x3 ** 2 * M[:3, :3]
    return _reduce(H, B, C, 3 + n - 3 + np.arange(3))


def _group_parts(dense):
    """The border block, the border's rows of the load map and the constant, and per
    block its matrix, its coupling to the border and its rows of the load map, summed
    from the groups of ``dense`` one at a time."""
    n0 = dense.nborder
    border, border_load, C, blocks = np.zeros((n0, n0)), np.zeros((n0, 3)), np.zeros((3, 3)), []
    for E, x3, rows in dense.groups():
        r = rows.shape[1]
        m = E.shape[1] - r
        for Eg, xg, rg in zip(E, x3, rows):
            P = np.zeros((r, n0))
            P[np.arange(r), rg] = 1.0
            border += P.T @ Eg[m:, m:] @ P
            border_load += xg * P.T @ Eg[m:, m:m + 3]
            C += xg**2 * Eg[m:m + 3, m:m + 3]
            blocks.append((Eg[:m, :m], Eg[:m, m:] @ P, xg * Eg[:m, m:m + 3]))
    return border, border_load, C, blocks


def _whole_hessian(dense):
    """The whole Hessian of ``dense``, the border first, then its blocks in order."""
    border, _, _, blocks = _group_parts(dense)
    n0, m = dense.nborder, dense.blocks[1]
    H = np.zeros((n0 + m * len(blocks),) * 2)
    H[:n0, :n0] = border
    for i, (K, coupling, _) in enumerate(blocks):
        b = slice(n0 + m * i, n0 + m * (i + 1))
        H[b, b], H[b, :n0], H[:n0, b] = K, coupling, coupling.T
    return H


def _assert_same_quadratic(dense, expected, blocks):
    """The parts of ``dense`` are those of the element loop's ``(H, B, C)``, whose
    border is its first ``dense.nborder`` unknowns and whose blocks are ``blocks``."""
    H, B, C = expected
    n0 = dense.nborder
    border, border_load, Cd, parts = _group_parts(dense)
    # the blocks and the border partition the unknowns, and H couples no two blocks
    owner = np.full(len(H), -1)
    for i, idx in enumerate(blocks):
        owner[idx] = i
    assert sorted(np.concatenate([np.arange(n0)] + blocks)) == list(range(len(H)))
    assert np.all(owner[:n0] == -1)
    assert not np.any(H[(owner[:, None] != owner[None, :]) & (owner[:, None] >= 0)
                        & (owner[None, :] >= 0)])
    assert (len(parts), parts[0][0].shape[0]) == dense.blocks == (len(blocks), len(blocks[0]))
    tol_H, tol_B = 1e-14 * np.abs(H).max(), 1e-14 * np.abs(B).max()
    assert np.abs(border - H[:n0, :n0]).max() <= tol_H
    assert np.abs(border_load - B[:n0]).max() <= tol_B
    assert np.abs(Cd - C).max() <= 1e-14 * np.abs(C).max()
    for (K, coupling, load), idx in zip(parts, blocks):
        assert np.abs(K - H[np.ix_(idx, idx)]).max() <= tol_H
        assert np.abs(coupling - H[idx, :n0]).max() <= tol_H
        assert np.abs(load - B[idx]).max() <= tol_B


def _minimal_energies(expected, loads):
    """a^T C a + b . H^-1 (-b), b = B a: one dense minimization per load."""
    H, B, C = expected
    return [a @ C @ a + (B @ a) @ np.linalg.solve(H, -(B @ a)) for a in loads]


def _loop_blocks1(m, n):
    """Loop numbering of the regime-1 blocks: node i's d_i, then its corrector."""
    return [np.concatenate([3 + 3 * i + np.arange(3), 3 + 3 * m + i * (n - 3) + np.arange(n - 3)])
            for i in range(m)]


def _loop_blocks2(slab):
    """Loop numbering of the regime-2 blocks: each Gauss point's fluctuations, after the border."""
    grid = build_slab_grid(*slab.grid_shape)
    nz = 3 * (slab.fiber_samples - 1)
    return [grid.ndofs + nz * e + np.arange(nz) for e in range(8 * grid.ncells)]


def _diagonal_problem(diagonal):
    """A problem whose whole Hessian is ``np.diag(diagonal)``, its border the first
    three unknowns (the mid-plane strain) and one block on each other; no load."""
    d = np.asarray(diagonal, dtype=float)
    nblocks = len(d) - 3
    E = np.stack([np.diag(np.concatenate([[x], d[:3] / nblocks])) for x in d[3:]])
    rows = np.broadcast_to(np.arange(3), (nblocks, 3))
    return DenseProblem(nborder=3, blocks=(nblocks, 1),
                        groups=lambda: [(E, np.zeros(nblocks), rows)])


class TestDenseAssembly:
    @pytest.mark.parametrize("grid, m", [((4, 4, 4), 3), ((1, 1, 6), 4), ((2, 2, 6), 3)])
    def test_regime1_equals_element_loop(self, grid, m):
        # one-cell axes list the same periodic node twice in one element
        mat = random_cell(np.random.default_rng(47), grid=grid)
        dense, expected = assemble_regime1(mat, m), loop_regime1(mat, m)
        _assert_same_quadratic(dense, expected, _loop_blocks1(m, 3 * int(np.prod(grid))))
        loads = np.random.default_rng(53).standard_normal((4, 3))
        assert dense.solve(loads) == pytest.approx(_minimal_energies(expected, loads), rel=1e-12)

    @pytest.mark.parametrize("grid, nf", [((3, 3, 3), 3), ((1, 1, 2), 2)])
    def test_regime2_equals_element_loop(self, grid, nf):
        slab = random_slab(np.random.default_rng(48), grid=grid, nf=nf)
        dense, expected = assemble_regime2(slab), loop_regime2(slab)
        _assert_same_quadratic(dense, expected, _loop_blocks2(slab))
        loads = np.random.default_rng(54).standard_normal((4, 3))
        assert dense.solve(loads) == pytest.approx(_minimal_energies(expected, loads), rel=1e-12)

    @pytest.mark.parametrize("regime", [1, 2])
    def test_solve_equals_one_minimization_per_load(self, regime):
        rng = np.random.default_rng(49)
        if regime == 1:
            mat = random_cell(rng, grid=(2, 2, 2))
            dense, expected = assemble_regime1(mat, x3_samples=3), loop_regime1(mat, 3)
        else:
            slab = random_slab(rng, grid=(2, 2, 2), nf=3)
            dense, expected = assemble_regime2(slab), loop_regime2(slab)
        loads = rng.standard_normal((5, 3))
        energies = dense.solve(loads)
        assert energies == pytest.approx(_minimal_energies(expected, loads), rel=1e-12)
        # nothing is consumed: a second solve, one load at a time, gives the same
        assert [dense.solve([a])[0] for a in loads] == pytest.approx(energies, rel=1e-14)

    def test_peak_memory_below_half_the_whole_hessian(self):
        # 4^3 cell at 8 thickness nodes: 1,563 unknowns, a whole Hessian of 19.5 MB,
        # held one node's block of 192 at a time
        mat = random_cell(np.random.default_rng(50), grid=(4, 4, 4))
        tracemalloc.start()
        try:
            dense = assemble_regime1(mat, x3_samples=8)
            dense.solve(np.eye(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.blocks == (8, 192)
        assert peak < 0.5 * 8 * (3 + 3 * 8 + 8 * 192) ** 2

    @pytest.mark.parametrize("regime, shape, nodes, blocks, bound", [
        (1, (4, 4, 4), 8, (8, 192), 0.25),
        # each of 2 nodes' groups holds a quarter of the whole Hessian's entries;
        # its block's factor and the bincount buffers bring the peak to 0.64x
        # the whole Hessian's 1.2 MB
        (1, (4, 4, 4), 2, (2, 192), 0.65),
        (2, (3, 3, 3), 3, (216, 6), 0.25),
    ])
    def test_solve_memory_above_the_assembled_problem(self, regime, shape, nodes, blocks, bound):
        # the solve holds a batch of groups at a time, never the whole Hessian
        rng = np.random.default_rng(50)
        tracemalloc.start()
        try:
            if regime == 1:
                dense = assemble_regime1(random_cell(rng, grid=shape), x3_samples=nodes)
            else:
                dense = assemble_regime2(random_slab(rng, grid=shape, nf=nodes))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dense.solve(np.eye(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.blocks == blocks
        nbytes = 8 * (dense.nborder + blocks[0] * blocks[1]) ** 2
        assert peak - base <= bound * nbytes

    @pytest.mark.parametrize("diagonal, name", [
        ([1.0, 1.0, 1.0, 2.0, -1.0], "block 1 of 2 (1 unknowns)"),
        ([-2.0, 1.0, 1.0, 1.0, 1.0], "border (3 unknowns)"),
    ])
    def test_not_positive_definite_names_its_block(self, diagonal, name):
        with pytest.raises(SolverError, match=rf"{re.escape(name)} is not positive definite"):
            _diagonal_problem(diagonal).solve(np.eye(3))


def test_package_import_leaves_scipy_linalg_unloaded():
    # no module of the package imports scipy
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, plate_homog; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("p, m, r", [(1, 192, 3), (216, 6, 27), (1, 960, 3), (5, 37, 4)])
def test_forward_solve_equals_the_solve_one_tile_at_a_time(p, m, r):
    # the stacks of a regime-1 group, regime-2 blocks, a border and ragged tiles:
    # every full diagonal tile inverted in one call, bit for bit the tile loop
    rng = np.random.default_rng(72)
    A = rng.standard_normal((p, m, m))
    L = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + m * np.eye(m))
    R = rng.standard_normal((p, m, r))
    np.testing.assert_array_equal(_forward_solve(L, R), reference_forward_solve(L, R))
