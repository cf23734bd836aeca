"""Unit-cell homogenization and the fine-oscillation bending pipeline.

This is the regime where the in-plane microstructure period is much
finer than the thickness-oscillation period: the effective behavior
comes from a single periodic cell problem on the unit cube.  The
effective 3D form is assembled from six corrector solves at the Mandel
basis strains; the bending stiffness then factorizes as

    Q0p = (1/12) * plane_stress_reduce(Q_hom)

because the homogenized medium no longer varies through the thickness:
the optimal mid-plane strain vanishes (odd first moment) and the
curvature load integrates to the 1/12 factor.  The dense oracle in
``oracle.py`` re-derives the same number without using this
factorization, guarding it.

The six solves run on the material cut to its first cell along every
axis on which all its cell laws are bitwise equal
(``fem.solve_grid_operator``): a column cell, constant along x3, on an
n1 x n2 x 1 grid, a laminate on 1 x 1 x n3.  Such a cell's discrete
problem is invariant under a one-cell shift along that axis and its
gauged minimizer is unique, hence constant along it, so the cut grid
gives the same form to rounding; ``corrector_solve_3d`` tiles its one
field back onto the full grid.  The material check and the dense oracle
stay on the full grid; reports give both ``grid`` and ``solve_grid``.

Of the six basis strains, one per orbit of the axis swaps that map the
cut cell's laws onto themselves up to a periodic shift is solved
(``fem.axis_symmetries``): E22 and E33 of a cell that is cubic up to a
shift are E11's corrector with its axes swapped and rolled, E22 and E13
of a square column those of E11 and E23.  Such a load reports 0
iterations and the load it came ``from`` in ``diagnostics.solves``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np

from .core import (
    DEFAULT_TOL,
    EffectiveReport,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    group_asymmetry,
    mandel3,
)
from .fem import (
    CorrectorField as CorrectorField3,     # one class with ``homogslab.SlabCorrector``
    _distinct_laws,
    solve_grid_operator,
    solve_loads,
    solver_diagnostics,
)
from .reduction import plane_stress_reduce


@dataclass(frozen=True, eq=False)
class CellMaterial3:
    """Cell-centered 6x6 Mandel matrices on a periodic n1 x n2 x n3 grid.

    Built, ``c`` is read-only and its distinct laws have passed
    ``MaterialBounds.require``, an error naming the first offending cell.
    """

    c: np.ndarray             # (n1, n2, n3, 6, 6)
    bounds: MaterialBounds | None = None   # None: the laws' extreme eigenvalues
    # ``(first, law)`` of ``fem._distinct_laws``, taken once for the check and the solves
    law_index: tuple = field(init=False, repr=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float)
        if c.ndim != 5 or c.shape[3:] != (6, 6):
            raise ValueError(f"cell material must be (n1, n2, n3, 6, 6), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("cell material contains non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        first, law = _distinct_laws(self.flat())
        laws = self.flat()[first]
        eig = np.linalg.eigvalsh(laws)
        if self.bounds is None:
            object.__setattr__(self, "bounds", MaterialBounds.inferred(eig))
        self.bounds.require(group_asymmetry(laws), eig, "cell sample {}", cells=law)
        object.__setattr__(self, "law_index", (first, law))

    @property
    def grid_shape(self) -> tuple:
        return self.c.shape[:3]

    def flat(self) -> np.ndarray:
        return self.c.reshape(-1, 6, 6)

    def refine(self, factor: int = 2) -> "CellMaterial3":
        """Nested subdivision: each cell becomes factor^3 identical cells."""
        c = self.c
        for axis in range(3):
            c = np.repeat(c, factor, axis=axis)
        return CellMaterial3(c=c, bounds=self.bounds)

    @classmethod
    def homogeneous(cls, q3: QuadForm3, grid=(1, 1, 1), bounds: MaterialBounds | None = None):
        return cls(c=np.broadcast_to(q3.matrix, (*grid, 6, 6)).copy(), bounds=bounds)

    @classmethod
    def from_forms(cls, grid, forms, bounds: MaterialBounds):
        n1, n2, n3 = grid
        if len(forms) != n1 * n2 * n3:
            raise ValueError(f"expected {n1 * n2 * n3} forms, got {len(forms)}")
        c = np.stack([f.matrix for f in forms]).reshape(n1, n2, n3, 6, 6)
        return cls(c=c, bounds=bounds)


def _solve(material: CellMaterial3, loads, tol: float):
    """``solve_loads`` of Mandel 6-vectors ``loads`` on ``material``, cut by
    ``solve_grid_operator``, and its operator: ``(fields, N, solves, op)``."""
    op = solve_grid_operator("cell", material.grid_shape, material.flat(), material.law_index)
    return (*solve_loads(op, loads, tol), op)


def corrector_solve_3d(material: CellMaterial3, E, tol: float = DEFAULT_TOL):
    """Minimize the cell energy at macroscopic strain ``E``.

    ``E`` is a Mandel 6-vector or a symmetric 3x3 matrix.  Returns
    ``(CorrectorField3, energy)`` where the energy is the attained
    minimum of ``int Q(y, E + sym grad phi)`` over the periodic grid.
    """
    E = np.asarray(E, dtype=float)
    if E.shape == (3, 3):
        E = mandel3(E)
    if E.shape != (6,):
        raise ValueError("macroscopic strain must be a Mandel 6-vector or 3x3 matrix")
    [x], N, [(iters, hist, _)], op = _solve(material, [E], tol)
    values = np.broadcast_to(x.reshape(*op.grid.node_shape, 3), (*material.grid_shape, 3))
    return CorrectorField3(values, iters, hist), float(N[0, 0])


def homogenized_form_3d(material: CellMaterial3, tol: float = DEFAULT_TOL) -> QuadForm3:
    """Effective 3D form from six corrector solves at the basis strains.

    Off-diagonal entries come from the bilinear energy of stored
    corrector pairs, so no extra solves are needed.
    """
    return QuadForm3(_solve(material, list(np.eye(6)), tol)[1], label="homogenized")


def bending_form_regime1(material: CellMaterial3, tol: float = DEFAULT_TOL) -> EffectiveReport:
    """Effective bending form for fine in-plane oscillation.

    Pipeline: homogenize on the unit cell, plane-stress reduce, scale by
    the second thickness moment 1/12.  The report records the
    decomposition and per-solve convergence data.
    """
    t0 = time.perf_counter()
    _, C, solves, op = _solve(material, list(np.eye(6)), tol)
    q_hom = QuadForm3(C, label="homogenized")
    q2, dstar = plane_stress_reduce(q_hom)
    q0p = QuadForm2(q2.matrix / 12.0, label="bending-regime1")
    diagnostics = {
        "grid": list(material.grid_shape),
        "solve_grid": list(op.grid.shape),
        **solver_diagnostics(op, tol, range(6), solves),
        "homogenized_form": q_hom.matrix.tolist(),
        "plane_stress_form": q2.matrix.tolist(),
        "plane_stress_minimizer": dstar.tolist(),
        "thickness_factor": 1.0 / 12.0,
        "midplane_strain_vanishes": True,
        "runtime_s": time.perf_counter() - t0,
    }
    return EffectiveReport(
        form=q0p, optimal_b=np.zeros((3, 3)), regime="regime1", diagnostics=diagnostics
    )
