"""Independent ground truth at desk scale.

Two kinds of oracle guard the solver pipelines:

- dense joint minimizations that assemble one quadratic form over ALL
  discrete unknowns (mid-plane strain, through-thickness fluctuations,
  corrector nodes) and solve it by a dense factorization.  They share
  the discretization definition with the iterative solvers (same
  elements, same quadrature) but none of the code path: no Schur
  factorizations, no 1/12 shortcut, no fiber averaging formulas, so a
  pipeline bug has to be duplicated here to slip through;
- closed forms for two-phase thickness profiles and zero-Poisson
  laminates.

The dense route is deliberately unscalable; a hard cap on the unknown
count keeps it honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMBED_2_TO_3, QuadForm2, mandel2
from .errors import SizeCapError
from .fem import build_cell_grid, build_slab_grid
from .homog3d import CellMaterial3
from .homogslab import SlabMaterial

SIZE_CAP = 20_000

# (0|0|d) has sym part with Mandel out-of-plane coords (d3, d2/sqrt2, d1/sqrt2).
_D_MAP = np.zeros((6, 3))
_D_MAP[2, 2] = 1.0
_D_MAP[3, 1] = 1.0 / np.sqrt(2.0)
_D_MAP[4, 0] = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class DenseProblem:
    """Assembled joint quadratic: energy(u) = c0 + 2 b^T u + u^T H u.

    Periodicity is already built into the node indices; ``keep`` lists
    the unknowns that survive gauge elimination (one grounded node per
    corrector field).  On that reduced set H is positive definite.
    """

    H: np.ndarray
    b: np.ndarray
    c0: float
    keep: np.ndarray

    def solve(self) -> float:
        # scipy is imported here, not at module level, so that importing
        # the package (every CLI command) does not pay for scipy.linalg.
        from scipy.linalg import cho_factor, cho_solve

        Hr = self.H[np.ix_(self.keep, self.keep)]
        br = self.b[self.keep]
        u = cho_solve(cho_factor(Hr, lower=True), -br)
        return float(self.c0 + br @ u)


def _as_mandel2(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        return mandel2(A)
    if A.shape == (3,):
        return A
    raise ValueError("curvature argument must be a 2x2 matrix or Mandel 3-vector")


def assemble_regime1(material: CellMaterial3, A, x3_samples: int) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, d(x3_i), corrector(x3_i)).

    The thickness integral runs over Gauss-Legendre nodes, which
    integrate the thickness-quadratic integrand exactly, so the only
    discretization left is the shared unit-cell grid.  Given the
    mid-plane strain the slices decouple; the assembled matrix still
    contains every coupling explicitly.
    """
    if x3_samples < 2:
        raise ValueError("need at least 2 thickness nodes")
    material.check()
    a2 = _as_mandel2(A)
    grid = build_cell_grid(*material.grid_shape)
    ndofs = grid.ndofs
    m = int(x3_samples)
    ntotal = 3 + 3 * m + m * ndofs
    if ntotal > SIZE_CAP:
        raise SizeCapError(f"dense problem has {ntotal} unknowns (cap {SIZE_CAP})")

    xg, wg = np.polynomial.legendre.leggauss(m)
    xg, wg = 0.5 * xg, 0.5 * wg

    cellC = material.flat()
    # Local unknown layout per (slice, cell): [b(3) | d_i(3) | phi cell dofs(24)].
    PD = np.concatenate([EMBED_2_TO_3, _D_MAP], axis=1)      # (6, 6)
    Gq = np.concatenate([np.broadcast_to(PD, (8, 6, 6)), grid.B], axis=2)  # (8,6,30)
    Mcell = np.einsum("qia,cij,qjb,q->cab", Gq, cellC, Gq, grid.wq)        # (ncells,30,30)

    H = np.zeros((ntotal, ntotal))
    b = np.zeros(ntotal)
    c0 = 0.0
    cell_dofs = (3 * grid.idx[:, :, None] + np.arange(3)).reshape(grid.ncells, 24)
    for i in range(m):
        off_d = 3 + 3 * i
        off_phi = 3 + 3 * m + i * ndofs
        for c in range(grid.ncells):
            cols = np.concatenate(
                [np.arange(3), off_d + np.arange(3), off_phi + cell_dofs[c]]
            )
            M = Mcell[c]
            np.add.at(H, np.ix_(cols, cols), wg[i] * M)
            np.add.at(b, cols, wg[i] * xg[i] * (M[:, :3] @ a2))
            c0 += wg[i] * xg[i] ** 2 * float(a2 @ M[:3, :3] @ a2)

    # Ground the last node of each slice's corrector field.
    drop = np.concatenate(
        [3 + 3 * m + i * ndofs + (ndofs - 3) + np.arange(3) for i in range(m)]
    )
    keep = np.setdiff1d(np.arange(ntotal), drop)
    return DenseProblem(H=H, b=b, c0=c0, keep=keep)


def brute_force_regime1(material: CellMaterial3, A, x3_samples: int = 8) -> float:
    """Minimal joint energy; deterministic dense factorization."""
    return assemble_regime1(material, A, x3_samples).solve()


def assemble_regime2(slab: SlabMaterial, A) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, corrector, fiber fluctuations).

    The zero-mean fluctuation d(y3) at each quadrature point is expanded
    in an explicit zero-weighted-mean basis, so no averaging identity
    from the solver pipeline is reused.
    """
    slab.check()
    a2 = _as_mandel2(A)
    grid = build_slab_grid(*slab.grid_shape)
    ndofs = grid.ndofs
    nf = slab.fiber_samples
    if nf < 2:
        raise ValueError("fiber fluctuation needs at least 2 samples")
    nz = 3 * (nf - 1)
    ntotal = 3 + ndofs + grid.ncells * 8 * nz
    if ntotal > SIZE_CAP:
        raise SizeCapError(f"dense problem has {ntotal} unknowns (cap {SIZE_CAP})")

    wf = slab.weights
    Z = np.zeros((nf, nf - 1))
    Z[: nf - 1, :] = np.eye(nf - 1)
    Z[nf - 1, :] = -wf[: nf - 1] / wf[nf - 1]

    stacks = slab.cell_fiber_stacks()       # (ncells, nf, 6, 6)
    nloc = 3 + 24 + nz
    Gj = np.zeros((nf, 6, nloc))
    Gj[:, :, :3] = EMBED_2_TO_3
    for j in range(nf):
        Gj[j, :, 27:] = np.kron(Z[j], _D_MAP)

    H = np.zeros((ntotal, ntotal))
    b = np.zeros(ntotal)
    c0 = 0.0
    cell_dofs = (3 * grid.idx[:, :, None] + np.arange(3)).reshape(grid.ncells, 24)
    Pa = EMBED_2_TO_3 @ a2
    zoff = 3 + ndofs
    for c in range(grid.ncells):
        Cf = stacks[c]
        for q in range(8):
            Gj[:, :, 3:27] = grid.B[q]
            CG = np.einsum("jik,jkl->jil", Cf, Gj)
            Hloc = grid.wq[q] * np.einsum("j,jia,jib->ab", wf, Gj, CG)
            gfix = grid.x3q[c, q] * Pa
            bloc = grid.wq[q] * np.einsum("j,jia,ji->a", wf, Gj, Cf @ gfix)
            cols = np.concatenate(
                [np.arange(3), 3 + cell_dofs[c], zoff + (c * 8 + q) * nz + np.arange(nz)]
            )
            np.add.at(H, np.ix_(cols, cols), Hloc)
            np.add.at(b, cols, bloc)
            c0 += grid.wq[q] * float(wf @ np.einsum("i,jik,k->j", gfix, Cf, gfix))

    drop = 3 + (ndofs - 3) + np.arange(3)   # ground the last corrector node
    keep = np.setdiff1d(np.arange(ntotal), drop)
    return DenseProblem(H=H, b=b, c0=c0, keep=keep)


def brute_force_regime2(slab: SlabMaterial, A) -> float:
    """Minimal joint energy for the slab scaling; dense factorization."""
    return assemble_regime2(slab, A).solve()


def bilayer_closed_form(c1: float, c2: float, base: QuadForm2) -> QuadForm2:
    """Bending form of a two-layer profile ``c1*base`` / ``c2*base``.

    Hand algebra on the moment Schur complement gives the scalar factor
    ``(c1+c2)/24 - (c2-c1)^2 / (32*(c1+c2))``; it is symmetric in the
    two phases (mirror symmetry of the thickness interval).
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("phase scalars must be positive")
    factor = (c1 + c2) / 24.0 - (c2 - c1) ** 2 / (32.0 * (c1 + c2))
    return QuadForm2(factor * base.matrix, label="bilayer-closed-form")


def laminate_closed_form(lambda2, weights=None):
    """Arithmetic and harmonic means of a positive fiber sample vector.

    Returns ``(<lambda2>, 1/<1/lambda2>)``: the in-plane and transverse
    scaling factors of a zero-Poisson laminate.  The arithmetic mean
    dominates the harmonic one, strictly unless the samples are equal.
    """
    lam = np.asarray(lambda2, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or np.any(lam <= 0.0):
        raise ValueError("fiber samples must be a positive 1D vector")
    if weights is None:
        weights = np.full(lam.size, 1.0 / lam.size)
    arith = float(weights @ lam)
    harm = 1.0 / float(weights @ (1.0 / lam))
    return arith, harm
