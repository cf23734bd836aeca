import ast
import importlib
import importlib.util
import warnings
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from plate_homog import (
    CellMaterial3,
    MaterialBounds,
    SlabMaterial,
    SolverError,
    bending_form_regime1,
    bending_form_regime2,
    qf_isotropic,
)
from plate_homog import fem
from plate_homog.app import parse_material_spec, run_scenario
from plate_homog.fem import (
    MAJORITY_REFERENCE,
    MEAN_REFERENCE,
    STALL_ITERATIONS,
    ElementOperator,
    build_cell_grid,
    build_slab_grid,
    conjugate_gradient,
    iteration_cap,
    solve_loads,
)

from helpers import (
    energy,
    fiber_per_cell_slab,
    grid_order_rhs,
    pointwise_load_vector,
    random_cell,
    random_slab,
    random_spd,
    reference_energy_matrix,
    reference_matvec,
    reference_precondition,
    reference_scatter,
    two_phase_cell,
)


def _random_cellC(rng, ncells):
    return np.stack([random_spd(rng, 6, 0.5, 3.0) for _ in range(ncells)])


def _loop_b_matrices(h):
    """The strain-displacement matrices one Gauss point and one node at a time."""
    B = np.zeros((8, 6, 24))
    for qi, (x0, x1, x2) in enumerate(product(fem.GAUSS_POINTS, repeat=3)):
        for a, (da, db, dc) in enumerate(product((0, 1), repeat=3)):
            f0, d0 = (x0, 1.0) if da else (1.0 - x0, -1.0)
            f1, d1 = (x1, 1.0) if db else (1.0 - x1, -1.0)
            f2, d2 = (x2, 1.0) if dc else (1.0 - x2, -1.0)
            g0 = d0 * f1 * f2 / h[0]
            g1 = f0 * d1 * f2 / h[1]
            g2 = f0 * f1 * d2 / h[2]
            col = 3 * a
            B[qi, 0, col + 0] = g0
            B[qi, 1, col + 1] = g1
            B[qi, 2, col + 2] = g2
            B[qi, 3, col + 1] = g2 / fem.SQRT2
            B[qi, 3, col + 2] = g1 / fem.SQRT2
            B[qi, 4, col + 0] = g2 / fem.SQRT2
            B[qi, 4, col + 2] = g0 / fem.SQRT2
            B[qi, 5, col + 0] = g1 / fem.SQRT2
            B[qi, 5, col + 1] = g0 / fem.SQRT2
    return B


@pytest.mark.parametrize("n", [(1, 1, 1), (8, 8, 8), (3, 7, 16), (48, 5, 2)])
def test_b_matrices_equal_the_point_by_point_loop(n):
    h = tuple(1.0 / k for k in n)
    assert np.array_equal(fem.build_b_matrices(h), _loop_b_matrices(h))


def test_operator_symmetric_positive_semidefinite():
    rng = np.random.default_rng(51)
    grid = build_slab_grid(2, 2, 2)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    N = grid.ndofs
    K = np.column_stack([op.matvec(np.eye(N)[:, i]) for i in range(N)])
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()
    assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-10


def _slab_pairs(rng):
    """A pure-curvature, a pure mid-plane and a mixed slab load (G, A)."""
    curvature, midplane = np.zeros((2, 6)), np.zeros((2, 6))
    curvature[1] = rng.standard_normal(6)
    midplane[0] = rng.standard_normal(6)
    return [curvature, midplane, rng.standard_normal((2, 6))]


@pytest.mark.parametrize("grid", [build_cell_grid(3, 4, 5), build_slab_grid(4, 3, 2)])
def test_noise_floor_equals_assembly_of_absolute_values(grid):
    # the same assembly run on |C|, |B| and |G + x3q A| at every quadrature
    # point; the floor sums cell integrals in another order, so to rounding
    rng = np.random.default_rng(58)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    loads = [rng.standard_normal(6)] + (_slab_pairs(rng) if grid.kind == "slab" else [])
    for g in loads:
        ref = 1e-12 * float(np.linalg.norm(pointwise_load_vector(op, g, absolute=True)))
        assert abs(op.rhs_noise_floor(g) - ref) <= 1e-15 * ref


def test_load_shapes_other_than_vector_or_slab_pair_are_refused():
    rng = np.random.default_rng(64)
    cell, slab = build_cell_grid(2, 2, 2), build_slab_grid(2, 2, 2)
    for grid, g in ((cell, np.ones((2, 6))), (cell, np.ones((cell.ncells, 8, 6))),
                    (slab, np.ones((slab.ncells, 8, 6))), (slab, np.ones(3))):
        op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
        with pytest.raises(ValueError, match="load strain"):
            op.rhs(g)
        with pytest.raises(ValueError, match="load strain"):
            op.rhs_noise_floor(g)
        with pytest.raises(ValueError, match="load strain"):
            op.energy_matrix([np.zeros(grid.ndofs)], [g])


def _two_phase(rng, ncells, layer):
    """Two random laws, cell c taking the first where ``layer(c)`` holds."""
    a, b = random_spd(rng, 6, 0.5, 3.0), random_spd(rng, 6, 0.5, 3.0)
    return np.where(layer(np.arange(ncells))[:, None, None], a, b)


def _signed_zero_laws(rng, ncells):
    # the same law with an off-diagonal 0.0 or -0.0: equal as numbers, not as bits
    c = random_spd(rng, 6, 0.5, 3.0)
    c[0, 5] = c[5, 0] = 0.0
    d = c.copy()
    d[0, 5] = d[5, 0] = -0.0
    return np.where((np.arange(ncells) % 2 == 0)[:, None, None], c, d)


def _rank_laws(rng, ncells, r):
    """Positive random combinations of r random SPD laws: law-space rank r."""
    basis = np.stack([random_spd(rng, 6, 0.5, 3.0) for _ in range(r)])
    return np.einsum("ck,kij->cij", rng.uniform(0.1, 1.0, (ncells, r)), basis)


def _unrebuilt_soft_cell(rng, ncells):
    # rank-2 laws and one soft cell outside their span, at 1e-15 of them: its
    # remainder falls under the rank cut, and the basis cannot rebuild it
    cellC = _rank_laws(rng, ncells, 2)
    cellC[0] = 1e-15 * random_spd(rng, 6, 0.5, 3.0)
    return cellC


def _anisotropic_fiber_slab(rng, grid):
    """A random anisotropic fiber of 2 samples in every cell."""
    ncells = int(np.prod(grid))
    fibers = np.stack([[random_spd(rng, 6, 0.5, 3.0) for _ in range(2)] for _ in range(ncells)])
    return SlabMaterial(fibers=fibers, fiber_index=np.arange(ncells).reshape(grid))


def _repeated_laws(r):
    """4 laws of law-space rank ``r``, each repeated over the cells in a shuffled
    pattern: too few cells per law for the grouped form, and law order is not
    grid order."""
    def laws(rng, ncells):
        return _rank_laws(rng, 4, r)[rng.permutation(np.arange(ncells) % 4)]
    return laws


MATVEC_CASES = {
    # name: (grid, cell laws from rng, stiffness form expected, distinct laws)
    "one-law cell": (build_cell_grid(2, 2, 4),
                     lambda rng, n: np.broadcast_to(random_spd(rng, 6, 0.5, 3.0), (n, 6, 6)),
                     "grouped", 1),
    "two-phase 6^3 cell": (build_cell_grid(6, 6, 6),
                           lambda rng, n: _two_phase(rng, n, lambda c: c % 7 < 3), "grouped", 2),
    "random 3^3 cell": (build_cell_grid(3, 3, 3),
                        lambda rng, n: random_cell(rng, grid=(3, 3, 3)).flat(), "stacked", 27),
    "random-fiber slab [3,3,3]": (build_slab_grid(3, 3, 3),
                                  lambda rng, n: random_slab(rng, grid=(3, 3, 3), nfib=27)
                                  .reduced_cells(), "stacked", None),
    "separable slab": (build_slab_grid(4, 4, 2),
                       lambda rng, n: SlabMaterial.separable(
                           np.where(rng.random((4, 4, 2)) < 0.5, 1.0, 30.0), [1.0, 3.0, 2.0],
                           mu=1.0).reduced_cells(), "grouped", 2),
    "cell [1,1,6]": (build_cell_grid(1, 1, 6),
                     lambda rng, n: _two_phase(rng, n, lambda c: c < 3), "law-basis", 2),
    "cell [1,1,16]": (build_cell_grid(1, 1, 16),
                      lambda rng, n: _two_phase(rng, n, lambda c: c % 4 < 2), "grouped", 2),
    "slab [1,1,2]": (build_slab_grid(1, 1, 2),
                     lambda rng, n: _two_phase(rng, n, lambda c: c == 0), "law-basis", 2),
    "signed-zero laws": (build_cell_grid(4, 4, 4), _signed_zero_laws, "grouped", 2),
    "zero-Poisson fiber slab": (build_slab_grid(4, 4, 3),
                                lambda rng, n: fiber_per_cell_slab(rng, (4, 4, 3))
                                .reduced_cells(), "law-basis", 48),
    "nu=0.3 fiber slab": (build_slab_grid(4, 4, 3),
                          lambda rng, n: fiber_per_cell_slab(rng, (4, 4, 3), nu=0.3)
                          .reduced_cells(), "law-basis", 48),
    "contrast-1e6 fiber slab": (build_slab_grid(4, 4, 3),
                                lambda rng, n: fiber_per_cell_slab(rng, (4, 4, 3), contrast=1e6)
                                .reduced_cells(), "law-basis", 48),
    "anisotropic fiber slab": (build_slab_grid(4, 4, 2),
                               lambda rng, n: _anisotropic_fiber_slab(rng, (4, 4, 2))
                               .reduced_cells(), "stacked", 32),
    "rank above the cap": (build_slab_grid(4, 4, 2),
                           lambda rng, n: _rank_laws(rng, n, fem.LAW_RANK + 1), "stacked", 32),
    "unrebuilt soft cell": (build_cell_grid(3, 3, 3), _unrebuilt_soft_cell, "stacked", 27),
    "repeated laws, stacked slab": (build_slab_grid(4, 3, 2), _repeated_laws(4), "stacked", 4),
    "repeated laws, law-basis slab": (build_slab_grid(4, 3, 2), _repeated_laws(2),
                                      "law-basis", 4),
}


@pytest.mark.parametrize("case", list(MATVEC_CASES))
def test_matvec_equals_reference(case):
    # the grouped, law-basis and stacked forms against the 8-point loop,
    # scattered with np.add.at: grids that list a node twice per element included
    grid, laws, form, nlaws = MATVEC_CASES[case]
    rng = np.random.default_rng(59)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    assert op.stiffness == form
    assert op.law_rank == (2 if form == "law-basis" else None)
    if nlaws is not None:
        assert op.cell_laws == nlaws
    for x in (rng.standard_normal(grid.ndofs), np.eye(grid.ndofs)[:, 1]):
        ref = reference_matvec(op, x)
        assert np.abs(op.matvec(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", list(MATVEC_CASES))
def test_scatter_equals_per_component_bincounts(case):
    # one bincount over the local-major (24, cells) index of 3 * node + m adds each
    # dof's entries in the same order as a bincount per component over the (8, cells)
    # node index: bit for bit, in grid and in law order
    grid, laws, _, _ = MATVEC_CASES[case]
    rng = np.random.default_rng(61)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    assert op._dofs.shape == (24, grid.ncells)
    idx = op._dofs[::3].T // 3                  # the node index of the cells in law order
    assert np.array_equal(idx, grid.idx[np.argsort(op.law_labels, kind="stable")])
    ylocal = rng.standard_normal((24, grid.ncells))
    assert np.array_equal(op._to_nodes(ylocal), reference_scatter(op, ylocal, idx))


def test_law_grouping_survives_hash_collisions(monkeypatch):
    # with every law hashed to 0 the rows themselves are sorted, bit for bit
    rng = np.random.default_rng(60)
    grid = build_cell_grid(4, 4, 4)
    cellC = np.concatenate([_two_phase(rng, 32, lambda c: c % 2 == 0),
                            _signed_zero_laws(rng, 32)])
    monkeypatch.setattr(fem, "_LAW_HASH", np.zeros(36, dtype=np.uint64))
    op = ElementOperator(grid, cellC)
    assert op.cell_laws == 4 and op.stiffness == "grouped"
    x = rng.standard_normal(grid.ndofs)
    ref = reference_matvec(op, x)
    assert np.abs(op.matvec(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("collide", [False, True])
def test_laws_numbered_by_first_appearance(monkeypatch, collide):
    # law k is the k-th distinct law met in grid order, so a law per cell is grid order
    rng = np.random.default_rng(67)
    cellC = np.concatenate([_two_phase(rng, 6, lambda c: c % 3 == 0),
                            _signed_zero_laws(rng, 6), _random_cellC(rng, 3)])
    if collide:
        monkeypatch.setattr(fem, "_LAW_HASH", np.zeros(36, dtype=np.uint64))
    first, law = fem._distinct_laws(cellC)
    assert np.array_equal(first, [0, 1, 6, 7, 12, 13, 14])
    assert np.array_equal(law, [0, 1, 1, 0, 1, 1, 2, 3, 2, 3, 2, 3, 4, 5, 6])
    first, law = fem._distinct_laws(cellC[first])
    assert np.array_equal(first, np.arange(7)) and np.array_equal(law, np.arange(7))


def test_invariant_cut_keeps_every_axis_a_label_varies_along():
    labels = np.zeros((3, 4, 2), dtype=np.int64)
    full, one = slice(None), slice(0, 1)
    assert fem.invariant_cut(labels, (0, 1, 2)) == (one, one, one)
    assert fem.invariant_cut(labels, (0, 1)) == (one, one, full)   # a slab's x3 stays
    labels[:, :, 1] = 1
    assert fem.invariant_cut(labels, (0, 1, 2)) == (one, one, full)
    labels[2, 3, 0] = 2                # one cell: its two in-plane axes stay
    assert fem.invariant_cut(labels, (0, 1, 2)) == (full, full, full)


def test_solve_grid_operator_keeps_first_appearance_numbering():
    # laws 0, 1, 2 along y1, constant along y2 and x3: the cut's law index is the
    # full one sliced, numbered by first appearance, with its own law table
    rng = np.random.default_rng(68)
    laws = np.stack([random_spd(rng, 6, 1.0, 4.0) for _ in range(3)])
    cellC = np.broadcast_to(laws[[2, 0, 2, 1]][:, None, None], (4, 3, 2, 6, 6)).reshape(-1, 6, 6)
    op = fem.solve_grid_operator("cell", (4, 3, 2), cellC, fem._distinct_laws(cellC))
    assert op.grid.shape == (4, 1, 1)
    assert op.cell_laws == 3
    assert np.array_equal(op._laws, laws[[2, 0, 1]])
    slab = fem.solve_grid_operator("slab", (4, 3, 2), cellC, fem._distinct_laws(cellC))
    assert slab.grid.shape == (4, 1, 2) and slab.grid.kind == "slab"


def test_energy_expansion_identity():
    # E(x) = E(0) + 2 rhs(g) . x + x . K x for the quadratic energy
    rng = np.random.default_rng(52)
    grid = build_cell_grid(2, 2, 2)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    g = rng.standard_normal(6)
    x = rng.standard_normal(grid.ndofs)
    lhs = energy(op, x, g)
    rhs = energy(op, np.zeros_like(x), g) + 2 * op.rhs(g) @ x + x @ op.matvec(x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_solve_loads_energy_matrix_is_polarization():
    # N_ij = (E(x_i + x_j, G_i + G_j) - E(x_i, G_i) - E(x_j, G_j)) / 2,
    # on random fields (where rhs(g_i) . x_j does not vanish) and on correctors,
    # for 6-vectors on cells (grouped and stacked) and for a 6-vector and
    # x3-linear pairs on slabs (stacked and grouped)
    rng = np.random.default_rng(53)
    for grid, grouped in ((build_cell_grid(2, 2, 2), False), (build_slab_grid(2, 1, 2), False),
                          (build_cell_grid(2, 3, 2), False), (build_cell_grid(4, 4, 2), True),
                          (build_slab_grid(4, 4, 2), True)):
        if grouped:
            op = ElementOperator(grid, _two_phase(rng, grid.ncells, lambda c: c % 3 == 0))
            assert op.stiffness == "grouped"
        else:
            op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
        loads = [rng.standard_normal(6) for _ in range(3)]
        if grid.kind == "slab":
            # a 6-vector G, a pair (G, A) and a pure-curvature pair (0, A)
            loads[1:] = [rng.standard_normal((2, 6)), np.stack([np.zeros(6), loads[2]])]
        random_fields = [rng.standard_normal(grid.ndofs) for _ in loads]
        fields, N, solves = solve_loads(op, loads, 1e-12)
        assert len(fields) == len(solves) == 3
        for xs, M in ((random_fields, op.energy_matrix(random_fields, loads)), (fields, N)):
            for i in range(3):
                for j in range(3):
                    polar = 0.5 * (energy(op, xs[i] + xs[j], _load_sum(loads[i], loads[j]))
                                   - energy(op, xs[i], loads[i]) - energy(op, xs[j], loads[j]))
                    assert M[i, j] == pytest.approx(polar, rel=1e-10)


def _load_sum(g, h):
    """The load of the summed strains, as a pair when either load is one."""
    if g.shape == h.shape:
        return g + h
    return sum(a if a.shape == (2, 6) else np.stack([a, np.zeros(6)]) for a in (g, h))


def _box_cell_operator(n, contrast):
    """Isotropic cell with a stiff box, an eighth of the cell, in one corner."""
    soft = qf_isotropic(1.0, 1.0).matrix
    mask = np.zeros((n, n, n), dtype=bool)
    mask[: n // 2, : n // 2, : n // 2] = True
    cellC = np.where(mask[..., None, None], contrast * soft, soft).reshape(-1, 6, 6)
    return ElementOperator(build_cell_grid(n, n, n), cellC)


def test_energy_matrix_matches_extended_precision_reference():
    # solved correctors: constant loads on a contrast-30 box cell (grouped) and a
    # random cell (stacked); on a random slab (stacked), a contrast-30 column
    # slab (grouped) and slabs with a fiber per cell at nu = 0.3 and at contrast
    # 1e6 (law-basis: the residual runs the basis products), pure-curvature
    # pairs (0, A), pure mid-plane loads as 6-vectors and as a pair (G, 0), and
    # a mixed pair (G, A)
    rng = np.random.default_rng(61)
    cell = _box_cell_operator(8, 30.0)
    stacked = ElementOperator(build_cell_grid(3, 3, 3), _random_cellC(rng, 27))
    slab = ElementOperator(build_slab_grid(4, 3, 3), _random_cellC(rng, 36))
    column = _column_operator(6, 3, slab=True)
    fibers = ElementOperator(build_slab_grid(8, 8, 4),
                             fiber_per_cell_slab(rng, (8, 8, 4), nu=0.3).reduced_cells())
    stiff = ElementOperator(build_slab_grid(6, 6, 3), fiber_per_cell_slab(
        np.random.default_rng(65), (6, 6, 3), contrast=1e6).reduced_cells())
    assert [op.stiffness for op in (cell, stacked, slab, column, fibers, stiff)] == [
        "grouped", "stacked", "stacked", "grouped", "law-basis", "law-basis"]
    e3 = [np.eye(6)[i] for i in (0, 1, 5)]
    slab_loads = ([np.stack([np.zeros(6), g]) for g in e3] + e3[:2]
                  + [np.stack([e3[2], np.zeros(6)]), rng.standard_normal((2, 6))])
    for op, loads in ((cell, list(np.eye(6))), (stacked, list(np.eye(6))), (slab, slab_loads),
                      (column, slab_loads), (fibers, slab_loads), (stiff, slab_loads)):
        fields, N, _ = solve_loads(op, loads, 1e-10)
        ref = reference_energy_matrix(op, fields, loads)
        assert np.abs(N - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [build_cell_grid(3, 4, 5), build_cell_grid(1, 1, 6),
                                  build_slab_grid(4, 3, 2)])
def test_constant_load_rhs_equals_pointwise_assembly(grid):
    # 6-vectors everywhere; on the slab also x3-linear pairs, both parts non-zero
    # in the mixed one: Bbar and Btilde carry the quadrature
    rng = np.random.default_rng(62)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    loads = [rng.standard_normal(6), np.eye(6)[3]]
    if grid.kind == "slab":
        loads += _slab_pairs(rng)
    for g in loads:
        ref = pointwise_load_vector(op, g)
        assert np.abs(op.rhs(g) - ref).max() <= 1e-14 * np.abs(ref).max()


LOAD_SIDE_OPERATORS = {
    # name: (grid, cell laws from rng); the first word names the stiffness form.
    # Every operator takes the per-law load side in its law order
    "grouped cell": (build_cell_grid(4, 4, 4),
                     lambda rng, n: _two_phase(rng, n, lambda c: c % 3 == 0)),
    "stacked cell": (build_cell_grid(3, 4, 5), _random_cellC),
    "grouped slab": (build_slab_grid(4, 4, 3),
                     lambda rng, n: _two_phase(rng, n, lambda c: c % 5 < 2)),
    "stacked slab": (build_slab_grid(4, 3, 2), _random_cellC),
    "law-basis slab": (build_slab_grid(4, 4, 3),
                       lambda rng, n: fiber_per_cell_slab(rng, (4, 4, 3), nu=0.3).reduced_cells()),
    "stacked slab, repeated laws": (build_slab_grid(4, 3, 2), _repeated_laws(4)),
    "law-basis slab, repeated laws": (build_slab_grid(4, 3, 2), _repeated_laws(2)),
}


@pytest.mark.parametrize("case", list(LOAD_SIDE_OPERATORS))
def test_law_order_load_side_matches_grid_order_and_pointwise(case):
    # rhs, noise floor and residual K x + rhs, built per law in the operator's
    # order and scattered once, against the per-cell grid-order rhs
    # and the quadrature-point references, for a 6-vector and, on slabs, the
    # pure-curvature, pure mid-plane and mixed pairs (G, A)
    grid, laws = LOAD_SIDE_OPERATORS[case]
    rng = np.random.default_rng(65)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    assert op.stiffness == case.split()[0]
    x = rng.standard_normal(grid.ndofs)
    Kx = reference_matvec(op, x)
    for g in [rng.standard_normal(6)] + (_slab_pairs(rng) if grid.kind == "slab" else []):
        ref = pointwise_load_vector(op, g)
        scale = np.abs(ref).max()
        assert np.abs(op.rhs(g) - ref).max() <= 1e-14 * scale
        assert np.abs(op.rhs(g) - grid_order_rhs(op, g)).max() <= 1e-14 * scale
        floor = 1e-12 * float(np.linalg.norm(pointwise_load_vector(op, g, absolute=True)))
        assert abs(op.rhs_noise_floor(g) - floor) <= 1e-14 * floor
        residual = op._residual(op._gather(x), *op._load_parts(g))
        assert np.abs(residual - (Kx + ref)).max() <= 1e-14 * np.abs(Kx + ref).max()


@pytest.mark.parametrize("case", ["one-law cell", "random 3^3 cell", "separable slab",
                                  "nu=0.3 fiber slab", "repeated laws, stacked slab",
                                  "repeated laws, law-basis slab"])
def test_no_operator_builds_grid_dofs(case):
    # every form scatters stiffness, loads, floors and residuals with its own
    # law-order index; only the dense oracle takes the grid's
    template, laws, _, _ = MATVEC_CASES[case]
    grid = (build_slab_grid if template.kind == "slab" else build_cell_grid)(*template.shape)
    rng = np.random.default_rng(66)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    loads = list(np.eye(6))
    if grid.kind == "slab":
        loads = [np.stack([np.zeros(6), g]) for g in loads[:3]] + loads[:3]
    solve_loads(op, loads, 1e-10)
    assert "dofs" not in grid.__dict__
    if op.cell_laws == grid.ncells:      # a law per cell: grid order, no copy of the laws
        assert op._x3c is grid.x3c and op._laws is op.cellC


def test_overflowing_load_is_a_solver_error():
    # a law near the top of the double range: load norm and noise floor are inf
    rng = np.random.default_rng(63)
    grid = build_cell_grid(2, 2, 2)
    cellC = _random_cellC(rng, grid.ncells)
    cellC[0] *= 1e300
    op = ElementOperator(grid, cellC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="not finite"):
            solve_loads(op, list(np.eye(6)), 1e-10)
    b = -op.rhs(np.eye(6)[0])
    with pytest.raises(SolverError, match="not finite"):
        conjugate_gradient(op, b, 1e-10, noise_floor=np.inf)


def test_iteration_cap_bounds_stalled_solve():
    rng = np.random.default_rng(54)
    grid = build_cell_grid(2, 2, 2)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    b = -op.rhs(rng.standard_normal(6))
    assert iteration_cap(3 * 16**3) == 2307
    assert iteration_cap(3 * 32**3) == 4615
    with pytest.raises(SolverError) as info:
        conjugate_gradient(op, b, tol=1e-30)
    assert 0 < len(info.value.residuals) <= iteration_cap(grid.ndofs)


def test_stalled_solve_stops_long_before_the_cap():
    # same solve as above: the residual bottoms out near iteration 10
    rng = np.random.default_rng(54)
    grid = build_cell_grid(2, 2, 2)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    b = -op.rhs(rng.standard_normal(6))
    with pytest.raises(SolverError, match="stalled") as info:
        conjugate_gradient(op, b, tol=1e-30)
    history = info.value.residuals
    assert STALL_ITERATIONS < len(history) <= 70
    assert min(history[-STALL_ITERATIONS:]) >= min(history)


class _MatrixOperator:
    """What ``conjugate_gradient`` reads of an operator, for a dense matrix:
    ``matvec``, an identity ``precondition`` and a reference that is not the
    majority's."""

    reference = fem.Reference(np.eye(6), MEAN_REFERENCE)

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def matvec(self, p):
        return self.matrix @ p

    def precondition(self, r):
        return r.copy()


def test_breakdown_above_the_noise_floor_is_a_solver_error():
    # the first direction has zero energy while the residual is the load
    with pytest.raises(SolverError, match=r"^conjugate gradients broke down at iteration 1 "
                                          r"\(direction energy 0\.000e\+00, residual 1\.414e\+00\)$"
                       ) as info:
        conjugate_gradient(_MatrixOperator(np.diag([1.0, -1.0])), np.ones(2), 1e-10)
    assert (info.value.exit_code, info.value.residuals) == (4, ())


def test_residual_at_the_noise_floor_ends_the_solve_before_a_breakdown():
    # one step leaves a residual of 2e-20, and the next direction has negative energy
    op = _MatrixOperator(np.diag([1.0, -1.0]))
    b = np.array([1.0, 1e-20])
    with pytest.raises(SolverError, match="^conjugate gradients broke down at iteration 2 ") as info:
        conjugate_gradient(op, b, 1e-30)
    assert len(info.value.residuals) == 1
    x, iters, history = conjugate_gradient(op, b, 1e-30, noise_floor=1e-15)
    assert iters == 1 and history == info.value.residuals
    assert np.array_equal(x, (b @ b) / (b @ (op.matrix @ b)) * b)


def test_divergence_is_a_solver_error():
    # not symmetric: one step takes the residual from 1 to 1e9
    op = _MatrixOperator([[1.0, 1e9], [0.0, 1.0]])
    with pytest.raises(SolverError, match=r"^conjugate gradients diverged \(residual 1\.000e\+09 "
                                          r"at iteration 1\)$") as info:
        conjugate_gradient(op, np.array([0.0, 1.0]), 1e-10)
    assert (info.value.exit_code, info.value.residuals) == (4, (1e9,))


def test_iteration_cap_is_a_solver_error(monkeypatch):
    # five distinct eigenvalues take five steps; the cap allows two
    monkeypatch.setattr(fem, "iteration_cap", lambda ndofs: 2)
    with pytest.raises(SolverError, match=r"^conjugate gradients did not reach tol=1e-14 in 2 "
                                          r"iterations \(last residual ") as info:
        conjugate_gradient(_MatrixOperator(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])), np.ones(5), 1e-14)
    assert info.value.exit_code == 4
    assert len(info.value.residuals) == 2 and 1e-14 < min(info.value.residuals)


def _perfbench_tracer():
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_matvec_count_sees_a_slab_run():
    # the benchmark's traced smoke run requires fem.matvec_calls > 0 on
    # regime2-slabs; a rename of the method would zero it without failing
    tracer = _perfbench_tracer()
    assert tracer.TARGETS["fem.matvec"] == [("fem", "ElementOperator", "matvec")]
    assert "matvec" in vars(ElementOperator)
    run = tracer.Tracer()
    run.install()
    try:
        bending_form_regime2(fiber_per_cell_slab(np.random.default_rng(1), (2, 2, 2)))
    finally:
        run.uninstall()
    assert run.metrics()["fem.matvec_calls"] > 0


def test_traced_set_up_spans_see_a_cell_run_and_an_oracle_check(tmp_path):
    # the tracer wraps these places by name, and a rename or an inline of one
    # would zero its per-layer metric without failing
    tracer = _perfbench_tracer()
    places = [("fem", "ElementOperator", "__init__"), ("fem", "ElementOperator", "rhs"),
              ("fem", "ElementOperator", "rhs_noise_floor"), ("homog3d", "plane_stress_reduce"),
              ("oracle", "DenseProblem", "solve")]
    targets = {place for places_ in tracer.TARGETS.values() for place in places_}
    for module, *owner, attr in places:
        assert (module, *owner, attr) in targets
        found = importlib.import_module("plate_homog." + module)
        for name in owner:
            found = getattr(found, name)
        assert attr in vars(found), (module, *owner, attr)
    spec = parse_material_spec(Path(__file__).parent.parent / "fixtures" / "oracle_check_cell.json")
    run = tracer.Tracer()
    run.install()
    try:
        bending_form_regime1(two_phase_cell(4, 30.0, "box"))
        run_scenario(spec, tmp_path)
    finally:
        run.uninstall()
    spans = Counter(name for _, _, name, _, _ in run.spans)
    for name in ("fem.operator_init", "fem.rhs", "reduction", "oracle.solve"):
        assert spans[name] > 0, name


@pytest.mark.parametrize("shape", [(1, 1, 6), (2, 2, 2), (3, 4, 5), (5, 4, 4)])
def test_cell_symbol_is_real(shape):
    # the element is point symmetric, so the blocks summed per node offset are
    # even in the offset: the precondition stores the cell inverse real
    rng = np.random.default_rng(62)
    grid = build_cell_grid(*shape)
    for _ in range(3):
        Ke = fem._element_matrix(grid, random_spd(rng, 6, 0.5, 3.0))
        S = fem._symbol(Ke, shape, shape[:2] + (shape[2] // 2 + 1,))
        assert np.abs(S.imag).max() <= 1e-15 * np.abs(S.real).max()


def _monoclinic_law():
    C = qf_isotropic(1.0, 0.3).matrix.copy()
    C[0, 4] = C[4, 0] = 0.3                  # monoclinic: e11 couples to the shear e13
    return C


def test_slab_symbol_is_complex():
    # across the two node planes of a layer no offset pairs with its negative:
    # the slab factors must stay complex
    grid = build_slab_grid(4, 4, 2)
    S = fem._symbol(fem._element_matrix(grid, _monoclinic_law()), (4, 4), (4, 3))
    assert np.abs(S.imag).max() >= 0.05 * np.abs(S.real).max()


def _loop_symbol(Ke, ns, ms):
    """``fem._symbol`` with the element blocks summed one node pair at a time."""
    d = np.array(list(product((0, 1), repeat=len(ns))))
    p = len(d)
    K = Ke.reshape(p, 24 // p, p, 24 // p)
    S = np.zeros((3,) * len(ns) + (24 // p, 24 // p))
    for a in range(p):
        for c in range(p):
            S[tuple(d[c] - d[a] + 1)] += K[a, :, c]
    for axis in reversed(range(len(ns))):
        table = fem._dft_table(ns[axis], np.arange(ms[axis]), (1, 0, -1))
        S = np.moveaxis(np.tensordot(table, S, axes=(1, axis)), 0, axis)
    return S


@pytest.mark.parametrize("kind, shape", [
    ("cell", (1, 1, 1)), ("cell", (2, 1, 3)), ("cell", (1, 2, 2)), ("cell", (5, 4, 6)),
    ("slab", (1, 1, 1)), ("slab", (2, 1, 3)), ("slab", (1, 2, 2)), ("slab", (7, 5, 3)),
])
def test_symbol_equals_the_per_pair_loop(kind, shape):
    # one np.add.at over the node pairs adds in the loop's order: bit for bit
    grid = (build_cell_grid if kind == "cell" else build_slab_grid)(*shape)
    Ke = fem._element_matrix(grid, _monoclinic_law())
    ns = shape if kind == "cell" else shape[:2]
    ms = ns[:-1] + (ns[-1] // 2 + 1,)
    np.testing.assert_array_equal(fem._symbol(Ke, ns, ms), _loop_symbol(Ke, ns, ms))


@pytest.mark.parametrize("kind, shape", [
    ("cell", (1, 1, 1)), ("cell", (1, 3, 2)), ("cell", (4, 1, 1)), ("cell", (3, 4, 5)),
    ("slab", (1, 1, 1)), ("slab", (2, 1, 3)), ("slab", (1, 4, 2)), ("slab", (3, 4, 5)),
])
def test_build_grid_equals_the_meshgrid_formulation(kind, shape):
    n1, n2, n3 = shape
    m3 = n3 if kind == "cell" else n3 + 1
    i, j, k = np.meshgrid(np.arange(n1), np.arange(n2), np.arange(n3), indexing="ij")
    idx = np.empty((n1 * n2 * n3, 8), dtype=np.int64)
    for a, (da, db, dc) in enumerate(product((0, 1), repeat=3)):
        idx[:, a] = (((i + da) % n1) * n2 * m3 + ((j + db) % n2) * m3 + (k + dc) % m3).ravel()
    x3c = -0.5 + (k.ravel() + 0.5) * (1.0 / n3)
    grid = fem._build_grid(kind, *shape)
    assert grid.idx.dtype == idx.dtype and grid.x3c.dtype == x3c.dtype
    np.testing.assert_array_equal(grid.idx, idx)
    np.testing.assert_array_equal(grid.x3c, x3c)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 1), (7, 5, 3), (8, 8, 4), (12, 12, 6)])
def test_slab_dense_inverse_equals_the_sweep(monkeypatch, shape):
    # the stored inverse, built from the factors plane by plane, against the sweep
    # of the same factors on every unit vector, on a complex (monoclinic) symbol
    n1, n2, n3 = shape
    grid = build_slab_grid(*shape)
    Ke = fem._element_matrix(grid, _monoclinic_law())
    Sinv, W = fem._slab_factors(fem._symbol(Ke, (n1, n2), (n1, n2 // 2 + 1)), n3)
    F, n = Sinv.shape[1], 3 * (n3 + 1)
    units = np.zeros((n, n, F), dtype=complex)
    units[np.arange(n), np.arange(n)] = 1.0
    swept = fem._slab_sweep(Sinv, W)(units.reshape(n, n3 + 1, 3, F)).reshape(n, n, F).T
    dense = fem._slab_dense(Sinv, W)
    assert np.abs(dense - swept).max() <= 1e-13 * np.abs(swept).max()
    # and the two applies on a random zero-mean vector
    rng = np.random.default_rng(70)
    r = rng.standard_normal((grid.nnodes, 3))
    r = (r - r.mean(axis=0)).ravel()
    applied = {}
    for form, cap in SLAB_FORMS.items():
        monkeypatch.setattr(fem, "SLAB_DENSE_BYTES", cap)
        assert fem.preconditioner_form("slab", shape) == form
        applied[form] = fem.reference_inverse(grid, Ke)(r)
    ref = applied["slab-sweep"]
    assert np.abs(applied["slab-dense"] - ref).max() <= 1e-13 * np.abs(ref).max()


PRECONDITIONER_GRIDS = [
    (build_cell_grid, (1, 1, 6)), (build_cell_grid, (3, 4, 5)), (build_cell_grid, (2, 2, 2)),
    (build_slab_grid, (1, 1, 3)), (build_slab_grid, (2, 3, 2)), (build_slab_grid, (5, 4, 3)),
    (build_slab_grid, (4, 6, 2)), (build_slab_grid, (3, 4, 1)), (build_slab_grid, (3, 5, 2)),
    # long axes, where DFT tables built from unreduced angles k j miss 1e-14
    (build_cell_grid, (47, 2, 3)), (build_slab_grid, (48, 5, 2)),
    # axes of one cell, as ``invariant_cut`` leaves them: no table runs along them,
    # and the real one moves to the last longer axis
    (build_cell_grid, (6, 5, 1)), (build_cell_grid, (5, 1, 6)), (build_cell_grid, (1, 6, 5)),
    (build_cell_grid, (6, 1, 1)), (build_slab_grid, (1, 6, 2)), (build_slab_grid, (7, 1, 3)),
]
SLAB_FORMS = {"slab-dense": 2 ** 62, "slab-sweep": 0}    # form: SLAB_DENSE_BYTES that picks it


def _check_matches_node_major_apply(op, rng):
    for r in (op.matvec(rng.standard_normal(op.grid.ndofs)), rng.standard_normal(op.grid.ndofs)):
        ref = reference_precondition(op, r)
        assert np.abs(op.precondition(r) - ref).max() <= 1e-14 * np.abs(ref).max()


def _check_inverts_homogeneous_operator(op, rng):
    grid = op.grid
    x = rng.standard_normal(grid.ndofs)
    xm = (x.reshape(-1, 3) - x.reshape(-1, 3).mean(axis=0)).ravel()
    assert np.abs(op.precondition(op.matvec(x)) - xm).max() <= 1e-12 * np.abs(x).max()
    # a constant load on a constant law is already in equilibrium on a cell:
    # there a random stiffness image is the right-hand side
    _, iters, _ = conjugate_gradient(op, op.matvec(rng.standard_normal(grid.ndofs)), 1e-10)
    assert iters == 1
    if grid.kind == "slab":
        # on a single layer a pure curvature load on a constant law assembles
        # to dust: its corrector is zero, reached in no iteration
        for gload in [rng.standard_normal(6)] + _slab_pairs(rng):
            b, floor = -op.rhs(gload), op.rhs_noise_floor(gload)
            _, iters, _ = conjugate_gradient(op, b, 1e-10, noise_floor=floor)
            assert iters == (1 if np.linalg.norm(b) > floor else 0)
            assert np.linalg.norm(b) > floor or (grid.shape[2] == 1 and not gload[0].any())


@pytest.mark.parametrize("build, shape", PRECONDITIONER_GRIDS)
def test_precondition_equals_node_major_complex_apply(build, shape):
    # the component-major apply with a real cell inverse against the node-major
    # complex one, on a law per cell (the mean reference) and on two laws with
    # one cell in four on the second, the majority reference wherever the grid
    # has the cells to group them
    rng = np.random.default_rng(63)
    grid = build(*shape)
    _check_matches_node_major_apply(ElementOperator(grid, _random_cellC(rng, grid.ncells)), rng)
    op = ElementOperator(grid, _random_cellC(rng, 2)[(np.arange(grid.ncells) % 4 == 0) * 1])
    grouped = 2 * fem.LAW_CELLS <= grid.ncells
    assert op.reference.name == (MAJORITY_REFERENCE if grouped else MEAN_REFERENCE)
    _check_matches_node_major_apply(op, rng)


def test_one_cell_grid_applies_zero():
    # a 1x1x1 cell has the zero wavevector alone: its reference inverse is zero
    rng = np.random.default_rng(64)
    op = ElementOperator(build_cell_grid(1, 1, 1), _random_cellC(rng, 1))
    _check_matches_node_major_apply(op, rng)
    assert not op.precondition(rng.standard_normal(3)).any()


@pytest.mark.parametrize("build, shape", PRECONDITIONER_GRIDS)
def test_preconditioner_inverts_homogeneous_operator(build, shape):
    # on a constant law the reference law is the law itself: M K = I minus the
    # nodal mean, and one preconditioned iteration solves any load.  On a grid
    # with the cells to group it is the majority law, with no cell left to
    # multiply: K p is K0 p alone
    rng = np.random.default_rng(55)
    grid = build(*shape)
    law = random_spd(rng, 6, 0.5, 3.0)
    op = ElementOperator(grid, np.broadcast_to(law, (grid.ncells, 6, 6)))
    grouped = fem.LAW_CELLS <= grid.ncells
    assert op.reference.name == (MAJORITY_REFERENCE if grouped else MEAN_REFERENCE)
    if grouped:
        np.testing.assert_array_equal(op.reference.law, law)
    _check_inverts_homogeneous_operator(op, rng)


@pytest.mark.parametrize("form", SLAB_FORMS)
@pytest.mark.parametrize("shape", [shape for build, shape in PRECONDITIONER_GRIDS
                                   if build is build_slab_grid])
def test_slab_preconditioner_forms(monkeypatch, shape, form):
    # the stored inverse and the sweep, each forced by the cap, on a monoclinic
    # reference law: a complex slab symbol in both
    monkeypatch.setattr(fem, "SLAB_DENSE_BYTES", SLAB_FORMS[form])
    rng = np.random.default_rng(69)
    grid = build_slab_grid(*shape)
    law = _monoclinic_law()
    op = ElementOperator(grid, rng.uniform(1.0, 3.0, grid.ncells)[:, None, None] * law)
    assert op.preconditioner_form == form
    _check_matches_node_major_apply(op, rng)
    _check_inverts_homogeneous_operator(
        ElementOperator(grid, np.broadcast_to(law, (grid.ncells, 6, 6))), rng)


def test_slab_forms_agree_on_a_fiber_per_cell_slab(monkeypatch):
    # both applies, each forced by the cap, on a 12x12x6 slab with a law per cell:
    # the same iterations per load and the same bending form
    slab = fiber_per_cell_slab(np.random.default_rng(71), (12, 12, 6))
    reports = {}
    for form, cap in SLAB_FORMS.items():
        monkeypatch.setattr(fem, "SLAB_DENSE_BYTES", cap)
        reports[form] = bending_form_regime2(slab)
        assert reports[form].diagnostics["preconditioner_form"] == form
    dense, sweep = (reports[form] for form in SLAB_FORMS)
    assert ([s["iterations"] for s in dense.diagnostics["solves"]]
            == [s["iterations"] for s in sweep.diagnostics["solves"]])
    scale = np.abs(sweep.form.matrix).max()
    assert np.abs(dense.form.matrix - sweep.form.matrix).max() <= 1e-12 * scale


def _benchmark_slab_shapes():
    """The (n, n, n3) slab shapes of the ``regime2-slabs`` benchmark workload,
    read from ``REGIME2_SLABS`` in perfbench/worker.py without importing it."""
    source = (Path(__file__).parent.parent / "perfbench" / "worker.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "REGIME2_SLABS" for t in node.targets):
            return [(n, n, n3) for n, n3, *_ in ast.literal_eval(node.value)]
    raise AssertionError("REGIME2_SLABS not found in perfbench/worker.py")


def test_preconditioner_form_from_the_shape_alone():
    # picked before anything is built: every regime2-slabs shape stores its
    # inverse (10x10x8, the largest today, takes 0.67 MiB), deep slabs sweep
    shapes = _benchmark_slab_shapes()
    assert shapes
    for shape in shapes:
        assert fem.preconditioner_form("slab", shape) == "slab-dense", shape
    for shape in [(24, 24, 12), (32, 32, 16)]:
        assert fem.preconditioner_form("slab", shape) == "slab-sweep"
    assert fem.preconditioner_form("cell", (32, 32, 32)) == "cell"
    # an in-plane axis of one cell holds the zero wavevector alone, and the half
    # spectrum moves to the other: 21 stored blocks on 40x1x15, 80 on 40x2x15
    assert fem.preconditioner_form("slab", (40, 1, 15)) == "slab-dense"
    assert fem.preconditioner_form("slab", (40, 2, 15)) == "slab-sweep"


def _column_operator(n, n3, slab):
    """Contrast-30 isotropic column: an in-plane box, a quarter of the cell, through x3."""
    soft = qf_isotropic(1.0, 1.0).matrix
    mask = np.zeros((n, n, n3), dtype=bool)
    mask[: n // 2, : n // 2] = True
    cellC = np.where(mask[..., None, None], 30.0 * soft, soft).reshape(-1, 6, 6)
    grid = (build_slab_grid if slab else build_cell_grid)(n, n, n3)
    return ElementOperator(grid, cellC)


@pytest.mark.parametrize("n, n3, slab", [(8, 8, False), (6, 3, True)])
def test_iterations_do_not_grow_with_the_grid(n, n3, slab):
    # doubling every axis (8x the unknowns) at most doubles the iterations
    maxima = []
    for k in (1, 2):
        op = _column_operator(k * n, k * n3, slab)
        loads = list(np.eye(6))
        if slab:
            loads = [np.stack([np.zeros(6), g]) for g in loads[:3]] + loads[:3]
        _, _, solves = solve_loads(op, loads, 1e-10)
        maxima.append(max(s.iterations for s in solves))
    assert 0 < maxima[1] <= 2 * maxima[0]


def test_regime_reports_name_the_preconditioner():
    rng = np.random.default_rng(56)
    cell, slab = random_cell(rng), random_slab(rng)
    for report, form in ((bending_form_regime1(cell), "cell"),
                         (bending_form_regime2(slab), "slab-dense")):
        assert report.diagnostics["preconditioner"] == MEAN_REFERENCE == "fft-reference-mean"
        assert report.diagnostics["preconditioner_form"] == form
    # the apply form is known before the inverse is built
    op = ElementOperator(build_slab_grid(*slab.grid_shape), slab.reduced_cells())
    assert op.preconditioner_form == "slab-dense" and op._inverse is None


def _two_phase_box_cell(n=6, contrast=30.0):
    """Isotropic cell with a proportional stiff box of half the size on every axis:
    7 cells in 8 on the soft law, and no axis along which the laws are constant."""
    soft = qf_isotropic(1.0, 0.5)
    box = np.zeros((n, n, n), dtype=bool)
    box[1:1 + n // 2, 2:2 + n // 2, :n // 2] = True
    c = np.where(box[..., None, None], contrast * soft.matrix, soft.matrix)
    return CellMaterial3(c=c, bounds=MaterialBounds(1.0, 4.0 * contrast))


def _two_phase_box_slab(n=6, n3=3, contrast=30.0):
    """Zero-Poisson slab with an in-plane stiff box through the thickness, 3 cells in
    4 on the soft law, and a two-sample fiber: two proportional grouped laws."""
    lam1 = np.ones((n, n, n3))
    lam1[1:1 + n // 2, 2:2 + n // 2] = contrast
    return SlabMaterial.separable(lam1, [1.0, 3.0], 0.5)


def _solves(report):
    return [s["iterations"] for s in report.diagnostics["solves"]]


def test_majority_reference_matches_the_mean_on_proportional_phases(monkeypatch):
    # with proportional phases the majority law is a multiple of the mean, and
    # preconditioned CG does not see the scale: the same iterations and forms
    # to rounding, from a product over the stiff cells only
    runs = []
    for share in (fem.MAJORITY_SHARE, 2.0):      # a share over 1 switches it off
        monkeypatch.setattr(fem, "MAJORITY_SHARE", share)
        runs.append((bending_form_regime1(_two_phase_box_cell()),
                     bending_form_regime2(_two_phase_box_slab())))
    for major, mean in zip(*runs):
        assert major.diagnostics["preconditioner"] == MAJORITY_REFERENCE
        assert mean.diagnostics["preconditioner"] == MEAN_REFERENCE
        assert major.diagnostics["stiffness"] == "grouped"
        assert _solves(major) == _solves(mean) and max(_solves(major)) > 5
        scale = np.abs(mean.form.matrix).max()
        assert np.abs(major.form.matrix - mean.form.matrix).max() <= 1e-12 * scale
        np.testing.assert_allclose(major.optimal_b, mean.optimal_b, rtol=0, atol=1e-12)


def test_majority_reference_recurrence_keeps_the_true_residual():
    # CG keeps K0 p by a recurrence, never by a product: over a long solve the
    # true residual must still be the reported one.  12^3 cells, 55 % on an
    # isotropic law and the rest on 5 anisotropic laws spanning 1e-3..1e3
    rng = np.random.default_rng(71)
    laws = [qf_isotropic(1.0, 0.5).matrix]
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        laws.append(q @ np.diag(10.0 ** rng.uniform(-3.0, 3.0, 6)) @ q.T)
    laws = np.array([0.5 * (c + c.T) for c in laws])
    label = np.where(rng.random(12 ** 3) < 0.55, 0, rng.integers(1, 6, 12 ** 3))
    op = ElementOperator(build_cell_grid(12, 12, 12), laws[label])
    assert op.reference.name == MAJORITY_REFERENCE
    np.testing.assert_array_equal(op.reference.law, laws[0])
    b = -op.rhs(np.eye(6)[0])
    x, iters, hist = conjugate_gradient(op, b, 1e-12)
    assert iters >= 150
    true = np.linalg.norm(b - op.matvec(x)) / np.linalg.norm(b)
    assert true <= 10 * hist[-1]


def test_no_majority_law_keeps_the_mean_reference():
    # a law per cell, and grouped laws of which none covers half the cells
    rng = np.random.default_rng(73)
    grid = build_cell_grid(4, 4, 4)
    per_cell = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    quarters = ElementOperator(grid, _random_cellC(rng, 4)[np.arange(grid.ncells) % 4])
    for op in (per_cell, quarters):
        assert op.reference.name == MEAN_REFERENCE
        np.testing.assert_array_equal(op.reference.law, op.cellC.mean(axis=0))
    assert quarters.stiffness == "grouped"
    report = bending_form_regime2(fiber_per_cell_slab(rng, (3, 3, 2)))
    assert report.diagnostics["preconditioner"] == MEAN_REFERENCE


def test_regime_reports_name_the_stiffness_form():
    rng = np.random.default_rng(67)
    grouped = SlabMaterial.separable(np.where(rng.random((4, 4, 1)) < 0.5, 1.0, 2.0), [1.0, 3.0], 1.0)
    for report, form, rank in ((bending_form_regime1(random_cell(rng, grid=(3, 3, 3))), "stacked", None),
                               (bending_form_regime2(fiber_per_cell_slab(rng, (3, 3, 2))), "law-basis", 2),
                               (bending_form_regime2(grouped), "grouped", None)):
        assert report.diagnostics["stiffness"] == form
        assert report.diagnostics["law_rank"] == rank


@pytest.mark.parametrize("r", [1, fem.LAW_RANK])
def test_law_rank_is_independent_of_scale(r):
    # the rank cut and the rebuild check are relative: the same laws at any scale
    # take the same form and rank, and the law-basis product matches the 8-point loop
    rng = np.random.default_rng(68)
    grid = build_slab_grid(4, 4, 2)
    cellC = _rank_laws(rng, grid.ncells, r)
    x = rng.standard_normal(grid.ndofs)
    for scale in (1e-200, 1.0, 1e200):
        op = ElementOperator(grid, scale * cellC)
        assert (op.stiffness, op.law_rank) == ("law-basis", r)
        ref = reference_matvec(op, x)
        assert np.abs(op.matvec(x) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_regime_reports_count_cell_laws():
    rng = np.random.default_rng(57)
    two_phase = CellMaterial3.from_forms(
        (2, 2, 2), [qf_isotropic(1.0 + k % 2, 0.5) for k in range(8)], MaterialBounds(1.0, 10.0))
    assert bending_form_regime1(two_phase).diagnostics["cell_laws"] == 2
    assert bending_form_regime1(random_cell(rng)).diagnostics["cell_laws"] == 8
    slab = SlabMaterial.separable(np.array([1.0, 2.0, 2.0, 1.0]).reshape(2, 2, 1), [1.0, 3.0], 1.0)
    assert bending_form_regime2(slab).diagnostics["cell_laws"] == 2


def test_noise_floor_separates_real_loads_from_dust():
    lam2 = np.array([1.0, 3.0])
    cellC = np.stack([(2 * l) * np.eye(6) for l in lam2])
    grid = build_cell_grid(1, 1, 2)
    op = ElementOperator(grid, cellC)
    # in-plane load on a zero-Poisson laminate: assembled load is dust
    e_inplane = np.array([1.0, 0, 0, 0, 0, 0])
    b = op.rhs(e_inplane)
    assert np.linalg.norm(b) <= op.rhs_noise_floor(e_inplane)
    # transverse load is real and far above the floor
    e_oop = np.array([0, 0, 1.0, 0, 0, 0])
    b = op.rhs(e_oop)
    assert np.linalg.norm(b) > 1e6 * op.rhs_noise_floor(e_oop)


def test_grid_shapes():
    grid = build_cell_grid(2, 3, 4)
    assert grid.ncells == 24 and grid.nnodes == 24
    slab = build_slab_grid(2, 3, 4)
    assert slab.ncells == 24 and slab.nnodes == 2 * 3 * 5
