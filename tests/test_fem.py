import warnings

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
from plate_homog.fem import (
    PRECONDITIONER,
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
    random_cell,
    random_slab,
    random_spd,
    reference_energy_matrix,
    reference_matvec,
    reference_precondition,
    reference_scatter,
)


def _random_cellC(rng, ncells):
    return np.stack([random_spd(rng, 6, 0.5, 3.0) for _ in range(ncells)])


def test_operator_symmetric_positive_semidefinite():
    rng = np.random.default_rng(51)
    grid = build_slab_grid(2, 2, 2)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    N = grid.ndofs
    K = np.column_stack([op.matvec(np.eye(N)[:, i]) for i in range(N)])
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()
    assert np.linalg.eigvalsh(0.5 * (K + K.T)).min() >= -1e-10


@pytest.mark.parametrize("grid", [build_cell_grid(3, 4, 5), build_slab_grid(4, 3, 2)])
def test_noise_floor_equals_assembly_of_absolute_values(grid):
    # bit for bit the formula it replaces: the same assembly run on |C|, |B| and |load|
    rng = np.random.default_rng(58)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    for g in (rng.standard_normal(6), rng.standard_normal((grid.ncells, 8, 6))):
        full = np.abs(op._load_field(g))
        y = op._assemble(np.abs(op.cellC), np.abs(op.grid.B), np.ascontiguousarray(full))
        assert op.rhs_noise_floor(g) == 1e-12 * float(np.linalg.norm(y))


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


MATVEC_CASES = {
    # name: (grid, cell laws from rng, grouped form expected, distinct laws)
    "one-law cell": (build_cell_grid(2, 2, 4),
                     lambda rng, n: np.broadcast_to(random_spd(rng, 6, 0.5, 3.0), (n, 6, 6)),
                     True, 1),
    "two-phase 6^3 cell": (build_cell_grid(6, 6, 6),
                           lambda rng, n: _two_phase(rng, n, lambda c: c % 7 < 3), True, 2),
    "random 3^3 cell": (build_cell_grid(3, 3, 3),
                        lambda rng, n: random_cell(rng, grid=(3, 3, 3)).flat(), False, 27),
    "random-fiber slab [3,3,3]": (build_slab_grid(3, 3, 3),
                                  lambda rng, n: random_slab(rng, grid=(3, 3, 3), nfib=27)
                                  .reduced_cells(), False, None),
    "separable slab": (build_slab_grid(4, 4, 2),
                       lambda rng, n: SlabMaterial.separable(
                           np.where(rng.random((4, 4, 2)) < 0.5, 1.0, 30.0), [1.0, 3.0, 2.0],
                           mu=1.0).reduced_cells(), True, 2),
    "cell [1,1,6]": (build_cell_grid(1, 1, 6),
                     lambda rng, n: _two_phase(rng, n, lambda c: c < 3), False, 2),
    "cell [1,1,16]": (build_cell_grid(1, 1, 16),
                      lambda rng, n: _two_phase(rng, n, lambda c: c % 4 < 2), True, 2),
    "slab [1,1,2]": (build_slab_grid(1, 1, 2),
                     lambda rng, n: _two_phase(rng, n, lambda c: c == 0), False, 2),
    "signed-zero laws": (build_cell_grid(4, 4, 4), _signed_zero_laws, True, 2),
}


@pytest.mark.parametrize("case", list(MATVEC_CASES))
def test_matvec_equals_reference(case):
    # the grouped and the stacked form against the 8-point loop, scattered
    # with np.add.at: grids that list a node twice per element included
    grid, laws, grouped, nlaws = MATVEC_CASES[case]
    rng = np.random.default_rng(59)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    assert (op._Ke is not None) == grouped
    if nlaws is not None:
        assert op.cell_laws == nlaws
    for x in (rng.standard_normal(grid.ndofs), np.eye(grid.ndofs)[:, 1]):
        ref = reference_matvec(op, x)
        assert np.abs(op.matvec(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", list(MATVEC_CASES))
def test_scatter_equals_per_component_bincounts(case):
    # one bincount over 3 * node + m adds each dof's entries in the same order
    # as a bincount per component: bit for bit, in grid and in law order
    grid, laws, _, _ = MATVEC_CASES[case]
    rng = np.random.default_rng(61)
    op = ElementOperator(grid, laws(rng, grid.ncells))
    ylocal = rng.standard_normal((grid.ncells, 24))
    for idx, dofs in ((grid.idx, grid.dofs), (op._idx, op._dofs)):
        assert np.array_equal(op._to_nodes(ylocal, dofs), reference_scatter(op, ylocal, idx))


def test_law_grouping_survives_hash_collisions(monkeypatch):
    # with every law hashed to 0 the rows themselves are sorted, bit for bit
    rng = np.random.default_rng(60)
    grid = build_cell_grid(4, 4, 4)
    cellC = np.concatenate([_two_phase(rng, 32, lambda c: c % 2 == 0),
                            _signed_zero_laws(rng, 32)])
    monkeypatch.setattr(fem, "_LAW_HASH", np.zeros(36, dtype=np.uint64))
    op = ElementOperator(grid, cellC)
    assert op.cell_laws == 4 and op._Ke is not None
    x = rng.standard_normal(grid.ndofs)
    ref = reference_matvec(op, x)
    assert np.abs(op.matvec(x) - ref).max() <= 1e-13 * np.abs(ref).max()


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
    # for load sets with a field load and for all-constant ones
    rng = np.random.default_rng(53)
    for grid, constant in ((build_cell_grid(2, 2, 2), False), (build_slab_grid(2, 1, 2), False),
                           (build_cell_grid(2, 3, 2), True)):
        op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
        loads = [rng.standard_normal(6), rng.standard_normal((grid.ncells, 8, 6)),
                 rng.standard_normal(6)]
        if constant:
            loads[1] = rng.standard_normal(6)
        random_fields = [rng.standard_normal(grid.ndofs) for _ in loads]
        fields, N, solves = solve_loads(op, loads, 1e-12)
        assert len(fields) == len(solves) == 3
        for xs, M in ((random_fields, op.energy_matrix(random_fields, loads)), (fields, N)):
            for i in range(3):
                for j in range(3):
                    polar = 0.5 * (energy(op, xs[i] + xs[j], loads[i] + loads[j])
                                   - energy(op, xs[i], loads[i]) - energy(op, xs[j], loads[j]))
                    assert M[i, j] == pytest.approx(polar, rel=1e-10)


def _box_cell_operator(n, contrast):
    """Isotropic cell with a stiff box, an eighth of the cell, in one corner."""
    soft = qf_isotropic(1.0, 1.0).matrix
    mask = np.zeros((n, n, n), dtype=bool)
    mask[: n // 2, : n // 2, : n // 2] = True
    cellC = np.where(mask[..., None, None], contrast * soft, soft).reshape(-1, 6, 6)
    return ElementOperator(build_cell_grid(n, n, n), cellC)


def test_energy_matrix_matches_extended_precision_reference():
    # solved correctors: constant loads on a contrast-30 box cell (grouped) and a
    # random cell (stacked), x3-linear and mid-plane load fields on a slab
    rng = np.random.default_rng(61)
    cell = _box_cell_operator(8, 30.0)
    slab = ElementOperator(build_slab_grid(4, 3, 3), _random_cellC(rng, 36))
    e3 = [np.eye(6)[i] for i in (0, 1, 5)]
    slab_loads = ([slab.grid.x3q[:, :, None] * g for g in e3]
                  + [np.broadcast_to(g, (slab.grid.ncells, 8, 6)) for g in e3])
    stacked = ElementOperator(build_cell_grid(3, 3, 3), _random_cellC(rng, 27))
    for op, loads in ((cell, list(np.eye(6))), (stacked, list(np.eye(6))), (slab, slab_loads)):
        fields, N, _ = solve_loads(op, loads, 1e-10)
        ref = reference_energy_matrix(op, fields, loads)
        assert np.abs(N - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [build_cell_grid(3, 4, 5), build_cell_grid(1, 1, 6),
                                  build_slab_grid(4, 3, 2)])
def test_constant_load_rhs_equals_pointwise_assembly(grid):
    rng = np.random.default_rng(62)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    for g in (rng.standard_normal(6), np.eye(6)[3]):
        ref = op._assemble(op.cellC, grid.B, np.ascontiguousarray(op._load_field(g)))
        assert np.abs(op.rhs(g) - ref).max() <= 1e-14 * np.abs(ref).max()


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


def test_slab_symbol_is_complex():
    # across the two node planes of a layer no offset pairs with its negative:
    # the slab factors must stay complex
    grid = build_slab_grid(4, 4, 2)
    C = qf_isotropic(1.0, 0.3).matrix.copy()
    C[0, 4] = C[4, 0] = 0.3                  # monoclinic: e11 couples to the shear e13
    S = fem._symbol(fem._element_matrix(grid, C), (4, 4), (4, 3))
    assert np.abs(S.imag).max() >= 0.05 * np.abs(S.real).max()


PRECONDITIONER_GRIDS = [
    (build_cell_grid, (1, 1, 6)), (build_cell_grid, (3, 4, 5)), (build_cell_grid, (2, 2, 2)),
    (build_slab_grid, (1, 1, 3)), (build_slab_grid, (2, 3, 2)), (build_slab_grid, (5, 4, 3)),
]


@pytest.mark.parametrize("build, shape", PRECONDITIONER_GRIDS)
def test_precondition_equals_node_major_complex_apply(build, shape):
    # the component-major apply with a real cell inverse against the node-major
    # complex one, on a law per cell
    rng = np.random.default_rng(63)
    grid = build(*shape)
    op = ElementOperator(grid, _random_cellC(rng, grid.ncells))
    for r in (op.matvec(rng.standard_normal(grid.ndofs)), rng.standard_normal(grid.ndofs)):
        ref = reference_precondition(op, r)
        assert np.abs(op.precondition(r) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("build, shape", PRECONDITIONER_GRIDS)
def test_preconditioner_inverts_homogeneous_operator(build, shape):
    # on a constant law the reference law is the law itself: M K = I minus the
    # nodal mean, and one preconditioned iteration solves any load
    rng = np.random.default_rng(55)
    grid = build(*shape)
    op = ElementOperator(grid, np.broadcast_to(random_spd(rng, 6, 0.5, 3.0), (grid.ncells, 6, 6)))
    x = rng.standard_normal(grid.ndofs)
    xm = (x.reshape(-1, 3) - x.reshape(-1, 3).mean(axis=0)).ravel()
    assert np.abs(op.precondition(op.matvec(x)) - xm).max() <= 1e-12 * np.abs(x).max()
    gload = rng.standard_normal((grid.ncells, 8, 6))
    _, iters, _ = conjugate_gradient(op, -op.rhs(gload), 1e-10,
                                     noise_floor=op.rhs_noise_floor(gload))
    assert iters == 1


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
            loads = [op.grid.x3q[:, :, None] * g for g in loads[:3]] + loads[:3]
        _, _, solves = solve_loads(op, loads, 1e-10)
        maxima.append(max(it for it, _ in solves))
    assert 0 < maxima[1] <= 2 * maxima[0]


def test_regime_reports_name_the_preconditioner():
    rng = np.random.default_rng(56)
    for report in (bending_form_regime1(random_cell(rng)), bending_form_regime2(random_slab(rng))):
        assert report.diagnostics["preconditioner"] == PRECONDITIONER == "fft-reference-mean"


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
    assert slab.x3q.shape == (24, 8)
    assert slab.x3q.min() > -0.5 and slab.x3q.max() < 0.5
