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

The dense route is deliberately unscalable; a hard cap on the bytes of
its dense Hessian keeps it honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMBED_2_TO_3, QuadForm2, mandel2
from .errors import SizeCapError
from .fem import build_cell_grid, build_slab_grid
from .homog3d import CellMaterial3
from .homogslab import SlabMaterial

# Budget for the dense Hessian, 8 bytes per entry: 512 MiB admits 8192 unknowns.
SIZE_CAP_BYTES = 512 * 2**20

# (0|0|d) has sym part with Mandel out-of-plane coords (d3, d2/sqrt2, d1/sqrt2).
_D_MAP = np.zeros((6, 3))
_D_MAP[2, 2] = 1.0
_D_MAP[3, 1] = 1.0 / np.sqrt(2.0)
_D_MAP[4, 0] = 1.0 / np.sqrt(2.0)


@dataclass(eq=False)
class DenseProblem:
    """Joint quadratic of a curvature ``a``: energy(u) = a^T C a + 2 (B a)^T u + u^T H u.

    H does not depend on the load, the load vector ``B a`` is linear and
    the constant ``a^T C a`` quadratic in it.  Periodicity is built into
    the node indices and the gauge is already eliminated: one grounded
    node per corrector field is left out of the numbering, so H is
    positive definite.  ``solve`` factors H in place, so a problem is
    solved once; afterwards ``H`` is None.
    """

    H: np.ndarray | None     # (n, n)
    B: np.ndarray            # (n, 3) load map
    C: np.ndarray            # (3, 3)

    def solve(self, loads) -> np.ndarray:
        """Minimal energies of the curvatures ``loads`` (k Mandel 3-vectors).

        One Cholesky factorization of H serves every load: the right-hand
        sides ``-B a_k`` are the columns of one solve.  The factor
        overwrites H, so no second dense matrix is held: H is symmetric,
        its transpose is the Fortran-ordered array LAPACK factors without
        a copy, and its upper triangle is H's lower one.
        """
        if self.H is None:
            raise ValueError("this DenseProblem was solved already: its H holds the factor")
        # scipy is imported here, not at module level, so that importing
        # the package (every CLI command) does not pay for scipy.linalg.
        from scipy.linalg import cho_factor, cho_solve

        H, self.H = self.H, None
        factor = cho_factor(H.T, lower=False, overwrite_a=True)
        a = np.atleast_2d(np.asarray(loads, dtype=float))
        b = self.B @ a.T
        u = cho_solve(factor, -b)
        return np.einsum("ki,ij,kj->k", a, self.C, a) + np.einsum("ik,ik->k", b, u)


def _check_size(ntotal: int) -> None:
    """Refuse, before allocating anything, a problem whose dense Hessian exceeds the cap."""
    if 8 * ntotal**2 > SIZE_CAP_BYTES:
        raise SizeCapError(f"dense problem has {ntotal} unknowns: its Hessian needs "
                           f"{8 * ntotal**2} bytes, over the cap of {SIZE_CAP_BYTES} bytes")


def _as_mandel2(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        return mandel2(A)
    if A.shape == (3,):
        return A
    raise ValueError("curvature argument must be a 2x2 matrix or Mandel 3-vector")


def _sum_blocks(blocks, x3, cols, ntotal, drop) -> DenseProblem:
    """Sum local blocks into the joint quadratic, gauge unknowns dropped.

    Block ``n`` (nloc x nloc, quadrature weight included, its first three
    local unknowns the mid-plane strain) sits at the global unknowns
    ``cols[n]``.  Its curvature load is the strain ``x3[n] * iota(a)``,
    so it adds ``x3[n] * blocks[n][:, :3]`` to the load map and
    ``x3[n]**2 * blocks[n][:3, :3]`` to C.  The unknowns in ``drop`` are
    grounded; the others keep their order and are summed straight into
    that reduced numbering, one ``np.bincount`` each for H and the load
    map, in block order.  ``blocks`` is consumed: the entries of grounded
    unknowns are zeroed in place and summed into index 0, which changes
    no sum and needs no masked copy of the index arrays.
    """
    number = np.ones(ntotal, dtype=np.int64)
    number[drop] = 0
    n = int(number.sum())
    number = np.where(number > 0, np.cumsum(number) - 1, -1)
    rows = number[cols]                                      # (nblocks, nloc)
    grounded = rows < 0
    blocks[grounded] = 0.0
    blocks.transpose(0, 2, 1)[grounded] = 0.0
    rows[grounded] = 0

    C = np.einsum("n,nij->ij", x3 * x3, blocks[:, :3, :3])
    B = np.bincount((rows[:, :, None] * 3 + np.arange(3)).ravel(),
                    weights=(x3[:, None, None] * blocks[:, :, :3]).ravel(),
                    minlength=3 * n).reshape(n, 3)
    H = np.bincount((rows[:, :, None] * n + rows[:, None, :]).ravel(),
                    weights=blocks.ravel(), minlength=n * n).reshape(n, n)
    return DenseProblem(H=H, B=B, C=C)


def assemble_regime1(material: CellMaterial3, x3_samples: int) -> DenseProblem:
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
    grid = build_cell_grid(*material.grid_shape)
    ndofs = grid.ndofs
    m = int(x3_samples)
    ntotal = 3 + 3 * m + m * ndofs
    _check_size(ntotal)

    xg, wg = np.polynomial.legendre.leggauss(m)
    xg, wg = 0.5 * xg, 0.5 * wg

    # Local unknown layout per (slice, cell): [b(3) | d_i(3) | phi cell dofs(24)].
    PD = np.concatenate([EMBED_2_TO_3, _D_MAP], axis=1)      # (6, 6)
    Gq = np.concatenate([np.broadcast_to(PD, (8, 6, 6)), grid.B], axis=2)  # (8,6,30)
    Mcell = np.einsum("qia,cij,qjb,q->cab", Gq, material.flat(), Gq, grid.wq,
                      optimize=True)                          # (ncells,30,30)

    cols = np.concatenate([
        np.broadcast_to(np.arange(3), (m, grid.ncells, 3)),
        np.broadcast_to(3 + 3 * np.arange(m)[:, None, None] + np.arange(3), (m, grid.ncells, 3)),
        3 + 3 * m + ndofs * np.arange(m)[:, None, None] + grid.dofs,
    ], axis=2).reshape(m * grid.ncells, 30)
    # Ground the last node of each slice's corrector field.
    drop = (3 + 3 * m + ndofs * np.arange(m)[:, None] + (ndofs - 3) + np.arange(3)).ravel()
    blocks = (wg[:, None, None, None] * Mcell).reshape(m * grid.ncells, 30, 30)
    return _sum_blocks(blocks, np.repeat(xg, grid.ncells), cols, ntotal, drop)


def brute_force_regime1(material: CellMaterial3, A, x3_samples: int = 8) -> float:
    """Minimal joint energy; deterministic dense factorization."""
    a2 = _as_mandel2(A)
    return float(assemble_regime1(material, x3_samples).solve([a2])[0])


def assemble_regime2(slab: SlabMaterial) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, corrector, fiber fluctuations).

    The zero-mean fluctuation d(y3) at each quadrature point is expanded
    in an explicit zero-weighted-mean basis, so no averaging identity
    from the solver pipeline is reused.
    """
    slab.check()
    grid = build_slab_grid(*slab.grid_shape)
    ndofs = grid.ndofs
    nf = slab.fiber_samples
    if nf < 2:
        raise ValueError("fiber fluctuation needs at least 2 samples")
    nz = 3 * (nf - 1)
    ntotal = 3 + ndofs + grid.ncells * 8 * nz
    _check_size(ntotal)

    wf = slab.weights
    Z = np.zeros((nf, nf - 1))
    Z[: nf - 1, :] = np.eye(nf - 1)
    Z[nf - 1, :] = -wf[: nf - 1] / wf[nf - 1]

    # Local unknown layout per (cell, quadrature point): [b(3) | cell dofs(24) | z(nz)];
    # G[q, j] maps it to the strain at fiber sample j.
    nloc = 3 + 24 + nz
    G = np.zeros((8, nf, 6, nloc))
    G[..., :3] = EMBED_2_TO_3
    G[..., 3:27] = grid.B[:, None]
    for j in range(nf):
        G[:, j, :, 27:] = np.kron(Z[j], _D_MAP)
    stacks = slab.cell_fiber_stacks()       # (ncells, nf, 6, 6)
    CG = stacks[:, None] @ G                # (ncells, 8, nf, 6, nloc)
    blocks = np.einsum("q,j,qjia,cqjib->cqab", grid.wq, wf, G, CG, optimize=True)

    cols = np.concatenate([
        np.broadcast_to(np.arange(3), (grid.ncells, 8, 3)),
        np.broadcast_to(3 + grid.dofs[:, None], (grid.ncells, 8, 24)),
        3 + ndofs + nz * np.arange(grid.ncells * 8).reshape(grid.ncells, 8, 1) + np.arange(nz),
    ], axis=2).reshape(-1, nloc)
    drop = 3 + (ndofs - 3) + np.arange(3)   # ground the last corrector node
    return _sum_blocks(blocks.reshape(-1, nloc, nloc), grid.x3q.ravel(), cols, ntotal, drop)


def brute_force_regime2(slab: SlabMaterial, A) -> float:
    """Minimal joint energy for the slab scaling; dense factorization."""
    a2 = _as_mandel2(A)
    return float(assemble_regime2(slab).solve([a2])[0])


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
