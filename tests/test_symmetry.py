"""One corrector solve per orbit of axis swaps (``fem.axis_symmetries``): mirrored
loads against direct solves, which ``axis_symmetries`` returning ``()`` switches
on for every load."""

import numpy as np
import pytest

from plate_homog import (
    CellMaterial3,
    MaterialBounds,
    SlabMaterial,
    bending_form_regime1,
    bending_form_regime2,
    corrector_solve_3d,
    qf_isotropic,
    slab_corrector_solve,
)
from plate_homog import fem
from plate_homog.fem import ElementOperator, build_cell_grid, solve_grid_operator, solve_loads

SOFT = qf_isotropic(1.0, 0.5).matrix
SLAB_LOADS = [np.stack([np.zeros(6), g]) for g in np.eye(6)[[0, 1, 5]]] + list(np.eye(6)[[0, 1, 5]])


def _two_phase(mask, stiff):
    """Cell laws (n1, n2, n3, 6, 6): ``stiff`` on ``mask``, the soft law elsewhere."""
    return np.where(mask[..., None, None], stiff, SOFT)


def _box(shape, offsets, size):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(o, o + s) for o, s in zip(offsets, size))] = True
    return mask


def _cell(c) -> CellMaterial3:
    eig = np.linalg.eigvalsh(c.reshape(-1, 6, 6))
    return CellMaterial3(c=c, bounds=MaterialBounds(eig.min() * 0.999, eig.max() * 1.001))


def _solved(report):
    return [s["iterations"] for s in report.diagnostics["solves"] if "from" not in s]


def _direct(monkeypatch, run):
    """``run()`` with every load solved by CG."""
    with monkeypatch.context() as m:
        m.setattr(fem, "axis_symmetries", lambda op: ())
        return run()


def _check_fields(monkeypatch, op, loads, solves_expected):
    """Mirrored fields equal the direct ones to 1e-10 of their largest entry, keep
    the zero mean, and the energy matrices agree to 1e-12; CG at tol 1e-13."""
    fields, N, solves = solve_loads(op, loads, 1e-13)
    direct, N_direct, direct_solves = _direct(monkeypatch, lambda: solve_loads(op, loads, 1e-13))
    assert sum(s.source is None for s in solves) == solves_expected
    assert all(s.source is None for s in direct_solves)
    for x, y, s, d in zip(fields, direct, solves, direct_solves):
        scale = np.abs(y).max()
        assert np.abs(x - y).max() <= 1e-10 * scale
        assert np.abs(x.reshape(-1, 3).mean(axis=0)).max() <= 1e-13 * scale
        if s.source is None:
            assert s == d
        else:
            assert s.iterations == 0 and s.residuals == solves[s.source[0]].residuals
    assert np.abs(N - N_direct).max() <= 1e-12 * np.abs(N_direct).max()


def _check_regime1(monkeypatch, c, solves_expected):
    material = _cell(c)
    report = bending_form_regime1(material, tol=1e-12)
    direct = _direct(monkeypatch, lambda: bending_form_regime1(material, tol=1e-12))
    assert len(_solved(report)) == solves_expected
    assert _solved(report) == [d["iterations"] for d, s in zip(direct.diagnostics["solves"],
                                                               report.diagnostics["solves"])
                               if "from" not in s]
    for name in ("homogenized_form", "plane_stress_form"):
        a, b = (np.array(r.diagnostics[name]) for r in (report, direct))
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    scale = np.abs(direct.form.matrix).max()
    assert np.abs(report.form.matrix - direct.form.matrix).max() <= 1e-12 * scale
    op = solve_grid_operator("cell", material.grid_shape, material.flat(), material.law_index)
    _check_fields(monkeypatch, op, list(np.eye(6)), solves_expected)
    return report


def test_cube_box_solves_two_loads(monkeypatch):
    # an inclusion at a different offset on each axis: cubic up to a shift, so
    # every axis permutation maps it onto itself, and the normal and the shear
    # loads are one orbit each
    report = _check_regime1(monkeypatch, _two_phase(_box((6, 6, 6), (1, 2, 0), (3, 3, 3)),
                                                    30.0 * SOFT), 2)
    solves = report.diagnostics["solves"]
    assert [s["iterations"] for s in solves][1:3] == [0, 0] == [s["iterations"] for s in solves][4:]
    assert [s["from"]["load"] for s in solves if "from" in s] == [0, 0, 3, 3]
    shear = solves[4]["from"]
    assert shear["axes"] in ([0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0])
    assert all(isinstance(k, int) for k in shear["axes"] + shear["shift"])
    assert solves[4]["residual"] == solves[3]["residual"]


def test_square_column_solves_four_loads(monkeypatch):
    # constant along x3, so cut to 6x6x1, where only y1 <-> y2 keeps the shape;
    # the block on rows 1-3, columns 3-5 swaps to rows 3-5, columns 1-3
    report = _check_regime1(monkeypatch, _two_phase(_box((6, 6, 6), (1, 3, 0), (3, 3, 6)),
                                                    30.0 * SOFT), 4)
    assert report.diagnostics["solve_grid"] == [6, 6, 1]
    froms = {s["load"]: s["from"] for s in report.diagnostics["solves"] if "from" in s}
    assert froms == {1: {"load": 0, "axes": [1, 0, 2], "shift": [4, 2, 0]},
                     4: {"load": 3, "axes": [1, 0, 2], "shift": [4, 2, 0]}}


def test_one_ulp_off_solves_every_load(monkeypatch):
    c = _two_phase(_box((6, 6, 6), (1, 2, 0), (3, 3, 3)), 30.0 * SOFT)
    c[5, 5, 5, 0, 0] = np.nextafter(c[5, 5, 5, 0, 0], np.inf)
    material = _cell(c)
    op = solve_grid_operator("cell", material.grid_shape, material.flat(), material.law_index)
    assert fem.axis_symmetries(op) == ()
    _check_regime1(monkeypatch, c, 6)


def test_swap_that_maps_two_orthotropic_phases_onto_each_other(monkeypatch):
    # phase A is stiffer along y1, phase B is A with y1 and y2 swapped; B sits on
    # the mirror image of A's block, so the law map of y1 <-> y2 is not the identity
    q = fem.mandel_slots((1, 0, 2))
    a = SOFT + np.diag([8.0, 0.0, 0.0, 0.0, 2.0, 0.0])
    b = a[q][:, q]
    assert not np.array_equal(a, b)
    mask_a = _box((6, 6, 3), (0, 3, 0), (2, 2, 2))
    c = np.where(mask_a[..., None, None], a, np.where(mask_a.transpose(1, 0, 2)[..., None, None],
                                                       b, SOFT))
    material = _cell(c)
    op = solve_grid_operator("cell", material.grid_shape, material.flat(), material.law_index)
    assert fem.axis_symmetries(op) == (((1, 0, 2), (0, 0, 0)),)
    _check_regime1(monkeypatch, c, 4)


def test_operators_built_alone_find_the_same_symmetries():
    c = _two_phase(_box((4, 4, 4), (0, 1, 2), (2, 2, 2)), 30.0 * SOFT).reshape(-1, 6, 6)
    alone = ElementOperator(build_cell_grid(4, 4, 4), c)
    symmetries = fem.axis_symmetries(alone)
    assert len(symmetries) == 5
    assert fem.axis_symmetries(solve_grid_operator("cell", (4, 4, 4), c)) == symmetries
    for p, s in symmetries:
        labels = alone.law_labels.reshape(4, 4, 4)
        assert np.array_equal(np.roll(labels.transpose(p), s, axis=(0, 1, 2)), labels)


@pytest.mark.parametrize("offsets", [(0, 0), (2, 2), (0, 2)])
def test_separable_slab_solves_four_loads(monkeypatch, offsets):
    # a quarter-block slab: its fiber-reduced laws carry -0.0 in slots that the
    # swap moves, so they equal their images by value and not bit for bit
    lam1 = np.ones((6, 6, 3))
    lam1[offsets[0]:offsets[0] + 3, offsets[1]:offsets[1] + 3] = 30.0
    slab = SlabMaterial.separable(lam1, [1.0, 3.0], 0.5)
    op = solve_grid_operator("slab", slab.grid_shape, slab.reduced_cells())
    q = fem.mandel_slots((1, 0, 2))
    laws, images = op._laws, op._laws[:, q][:, :, q]
    assert ((laws == 0.0) & np.signbit(laws)).any()
    assert np.array_equal(laws, images) and laws.tobytes() != images.tobytes()
    report = bending_form_regime2(slab, tol=1e-12)
    direct = _direct(monkeypatch, lambda: bending_form_regime2(slab, tol=1e-12))
    solves = report.diagnostics["solves"]
    assert [s["iterations"] == 0 for s in solves] == [False, True, False, False, True, False]
    assert [s["from"]["load"] for s in solves if "from" in s] == ["A0", "B0"]
    assert _solved(report) == [s["iterations"] for s in direct.diagnostics["solves"]
                               if s["load"] not in ("A1", "B1")]
    scale = np.abs(direct.form.matrix).max()
    assert np.abs(report.form.matrix - direct.form.matrix).max() <= 1e-12 * scale
    np.testing.assert_allclose(report.optimal_b, direct.optimal_b, rtol=0, atol=1e-12)
    _check_fields(monkeypatch, op, SLAB_LOADS, 4)


def test_single_loads_look_for_no_symmetry(monkeypatch):
    def refuse(op):
        raise AssertionError("axis_symmetries ran for a single load")

    monkeypatch.setattr(fem, "axis_symmetries", refuse)
    cell = _cell(_two_phase(_box((4, 4, 4), (0, 1, 2), (2, 2, 2)), 30.0 * SOFT))
    assert corrector_solve_3d(cell, np.eye(6)[1])[0].iterations > 0
    slab = SlabMaterial.separable(np.where(_box((4, 4, 2), (0, 0, 0), (2, 2, 2)), 3.0, 1.0),
                                  [1.0, 2.0], 0.5)
    assert slab_corrector_solve(slab, ("A", 1))[0].iterations > 0


@pytest.mark.parametrize("j_step, found", [(1, True), (2, False)])
def test_shift_search_when_every_profile_matches(j_step, found):
    # laws numbered (i + j_step j) mod 3: every slice along either axis holds each
    # law twice, so the profiles match under every rotation and only the whole
    # grid tells; the swap maps (i + j) onto itself and (i + 2j) onto no shift of it
    i, j = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    phases = np.stack([(1.0 + k) * SOFT for k in range(3)])
    c = phases[(i + j_step * j) % 3].reshape(-1, 6, 6)
    op = ElementOperator(build_cell_grid(6, 6, 1), c)
    assert fem.axis_symmetries(op) == ((((1, 0, 2), (0, 0, 0)),) if found else ())


@pytest.mark.parametrize("case, mirrored", [("cube box", [1, 2, 4, 5]), ("square column", [1, 4]),
                                            ("square slab", [1, 4])])
def test_mirrored_energy_rows_equal_direct_rows(case, mirrored):
    # a mirrored load's energy row from its source's residual and stress sums,
    # mirrored, against the row computed from the same field directly; on the
    # slab, A1 and B1 are mirrored from A0 and B0
    if case == "square slab":
        lam1 = np.ones((6, 6, 3))
        lam1[0:3, 2:5] = 30.0
        slab = SlabMaterial.separable(lam1, [1.0, 3.0], 0.5)
        op, loads = solve_grid_operator("slab", slab.grid_shape, slab.reduced_cells()), SLAB_LOADS
    else:
        box = ((1, 2, 0), (3, 3, 3)) if case == "cube box" else ((1, 3, 0), (3, 3, 6))
        material = _cell(_two_phase(_box((6, 6, 6), *box), 30.0 * SOFT))
        op = solve_grid_operator("cell", material.grid_shape, material.flat(), material.law_index)
        loads = list(np.eye(6))
    fields, N, solves = solve_loads(op, loads, 1e-12)
    assert [i for i, s in enumerate(solves) if s.source is not None] == mirrored
    direct = op.energy_matrix(fields, loads)
    assert np.abs(N - direct).max() <= 1e-13 * np.abs(direct).max()
