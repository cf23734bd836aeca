"""Independent ground truth at desk scale.

Two kinds of oracle guard the solver pipelines:

- dense joint minimizations that assemble one quadratic form over ALL
  discrete unknowns (mid-plane strain, through-thickness fluctuations,
  corrector nodes) and solve it by Cholesky factorizations, with numpy
  only.  They share the discretization definition with the iterative
  solvers (same elements, same quadrature) but none of the code path:
  no stiffness operator or CG, no 1/12 shortcut, no fiber averaging
  formulas, so a pipeline bug has to be duplicated here to slip through;
- closed forms for two-phase thickness profiles and zero-Poisson
  laminates.

The joint Hessian is assembled whole, then factored block by block,
border last: in regime 1 the thickness nodes decouple once the
mid-plane strain is fixed, in regime 2 the fiber fluctuations of each
Gauss point do (``DenseProblem``).  Every block is factored, none is
taken as a copy of another, and one set of factors serves every load.
The dense route is deliberately unscalable; a hard cap on the bytes of
its dense Hessian (512 MiB, 8,192 unknowns) keeps it honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMBED_2_TO_3, QuadForm2, mandel2
from .errors import SizeCapError, SolverError
from .fem import GAUSS_POINTS, build_cell_grid, build_slab_grid
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
    positive definite.

    ``blocks`` (number of blocks, unknowns per block) lists disjoint sets
    of unknowns that H couples only through the others, the border: given
    the border, each block's minimization is its own.  In regime 1 a block
    is one thickness node's (d_i, corrector); in regime 2 one Gauss
    point's fiber fluctuations.  H stays assembled as a whole until
    ``solve``, which consumes it: afterwards ``H`` is None.
    """

    H: np.ndarray | None     # (n, n)
    B: np.ndarray            # (n, 3) load map
    C: np.ndarray            # (3, 3)
    blocks: np.ndarray       # (nblocks, m) int64 unknowns of each block

    def solve(self, loads) -> np.ndarray:
        """Minimal energies of the curvatures ``loads`` (k Mandel 3-vectors).

        Blocks first, border last, which fills nothing outside the blocks
        (static condensation).  The diagonal blocks H_ii, their couplings
        H_i0 to the border and the border block H_00 are gathered and H is
        dropped.  One batched Cholesky factors every H_ii = L_i L_i^T, and
        Y_i = L_i^-1 [H_i0 | b_i] gives the border's Schur complement
        S = H_00 - sum Y_h^T Y_h, factored once more.  With
        r = b_0 - sum Y_h^T Y_b the energy is
        a^T C a - sum |Y_b|^2 - |L_S^-1 r|^2.  The load-independent
        factors serve every load: the ``b = B a_k`` are the columns of one
        right-hand side.

        Beyond the assembled problem this holds, while H lives, the gathered
        blocks, couplings and a 128 KiB index buffer of the gather; by
        tracemalloc 0.13x H's bytes on a 4^3 cell at 8 thickness nodes,
        0.61x at 2 nodes (whose blocks hold 48 % of H's entries) and 0.15x
        on a 3^3 slab with 3 fiber samples.  A block or border that is not
        positive definite raises ``SolverError`` naming it.
        """
        if self.H is None:
            raise ValueError("this DenseProblem was solved already: its H is consumed")
        H, self.H = self.H, None
        blk = self.blocks
        border = np.ones(H.shape[0], dtype=bool)
        border[blk] = False
        border = np.flatnonzero(border)
        a = np.atleast_2d(np.asarray(loads, dtype=float))
        b = self.B @ a.T                                         # (n, k)
        Hii = H[blk[:, :, None], blk[:, None, :]]
        R = np.concatenate([H[blk[:, :, None], border], b[blk]], axis=2)
        S = H[np.ix_(border, border)]
        del H
        L = _cholesky(Hii, f"block {{}} of {len(blk)} ({blk.shape[1]} unknowns)")
        del Hii
        Y = _forward_solve(L, R).reshape(-1, R.shape[2])
        G = Y.T @ Y                                              # sum over blocks of Y_i^T Y_i
        n0 = len(border)
        S -= G[:n0, :n0]
        r = b[border] - G[:n0, n0:]
        LS = _cholesky(S[None], f"border ({n0} unknowns)")
        z = _forward_solve(LS, r[None])[0]
        return (np.einsum("ki,ij,kj->k", a, self.C, a) - np.diagonal(G[n0:, n0:])
                - np.einsum("ik,ik->k", z, z))


# Row tile of ``_forward_solve``.  On a 2-core Xeon KVM guest, one BLAS thread,
# 8 blocks of 192 unknowns and 6-19 right-hand sides took 0.7-0.8 ms at 8 rows,
# 0.8-0.9 ms at 16, 1.8 ms at 48 and 5.4 ms by a batched ``np.linalg.solve``;
# 216 blocks of 6 took 0.7 ms at any tile.
_TILE = 16


def _cholesky(A: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factors of the stack ``A``; ``SolverError`` names the first
    matrix ``i`` that is not positive definite as ``name.format(i)``."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for i, Ai in enumerate(A):
            try:
                np.linalg.cholesky(Ai)
            except np.linalg.LinAlgError:
                raise SolverError(f"dense oracle: {name.format(i)} is not positive definite") from None
        raise


def _forward_solve(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``L^-1 R`` for a stack of lower-triangular ``L`` (p, m, m) and ``R`` (p, m, r).

    numpy has no triangular solve, and a batched ``np.linalg.solve`` pays
    an LU of each L.  So substitute by row tiles: each tile's rows take
    the product with the rows solved before it, then the inverse of its
    diagonal tile.
    """
    Y = np.empty(R.shape)
    for s in range(0, L.shape[1], _TILE):
        e = s + _TILE
        Y[:, s:e] = np.linalg.inv(L[:, s:e, s:e]) @ (R[:, s:e] - L[:, s:e, :s] @ Y[:, :s])
    return Y


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


def _sum_blocks(elements, x3, cols, ntotal, drop, blocks) -> DenseProblem:
    """Sum local element blocks into the joint quadratic, gauge unknowns dropped.

    Element ``n`` (nloc x nloc, quadrature weight included, its first
    three local unknowns the mid-plane strain) sits at the global unknowns
    ``cols[n]``.  Its curvature load is the strain ``x3[n] * iota(a)``,
    so it adds ``x3[n] * elements[n][:, :3]`` to the load map and
    ``x3[n]**2 * elements[n][:3, :3]`` to C.  The unknowns in ``drop`` are
    grounded; the others keep their order and are summed straight into
    that reduced numbering, one ``np.bincount`` each for H and the load
    map, in element order.  ``elements`` is consumed: the entries of
    grounded unknowns are zeroed in place and summed into index 0, which
    changes no sum and needs no masked copy of the index arrays.

    ``blocks`` (global numbering, the same number of grounded unknowns in
    each) become ``DenseProblem.blocks``.  They must be disjoint, and no
    element may touch two of them: that is checked here, on ``cols``.
    """
    number = np.ones(ntotal, dtype=np.int64)
    number[drop] = 0
    n = int(number.sum())
    number = np.where(number > 0, np.cumsum(number) - 1, -1)
    rows = number[cols]                                      # (nelements, nloc)
    grounded = rows < 0
    blocks = number[blocks]
    blocks = blocks[blocks >= 0].reshape(len(blocks), -1)
    owner = np.full(n, -1)
    owner[blocks] = np.arange(len(blocks))[:, None]
    owner = np.where(grounded, -1, owner[rows])
    if (np.bincount(blocks.ravel(), minlength=n).max(initial=0) > 1
            or np.any((owner >= 0) & (owner != owner.max(axis=1, keepdims=True)))):
        raise ValueError("the blocks of a dense problem must be disjoint, "
                         "and no element may touch two of them")
    elements[grounded] = 0.0
    elements.transpose(0, 2, 1)[grounded] = 0.0
    rows[grounded] = 0

    C = np.einsum("n,nij->ij", x3 * x3, elements[:, :3, :3])
    B = np.bincount((rows[:, :, None] * 3 + np.arange(3)).ravel(),
                    weights=(x3[:, None, None] * elements[:, :, :3]).ravel(),
                    minlength=3 * n).reshape(n, 3)
    H = np.bincount((rows[:, :, None] * n + rows[:, None, :]).ravel(),
                    weights=elements.ravel(), minlength=n * n).reshape(n, n)
    return DenseProblem(H=H, B=B, C=C, blocks=blocks)


def assemble_regime1(material: CellMaterial3, x3_samples: int) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, d(x3_i), corrector(x3_i)).

    The thickness integral runs over Gauss-Legendre nodes, which
    integrate the thickness-quadratic integrand exactly, so the only
    discretization left is the shared unit-cell grid.  Given the
    mid-plane strain the slices decouple; the assembled matrix still
    contains every coupling explicitly.  The material must pass its
    bounds check (``CellMaterial3.law_index``).
    """
    if x3_samples < 2:
        raise ValueError("need at least 2 thickness nodes")
    material.law_index      # the bounds check, made once per material
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
    wG = (grid.wq[:, None, None] * Gq).reshape(48, 30)
    Mcell = wG.T @ (material.flat()[:, None] @ Gq).reshape(-1, 48, 30)    # (ncells,30,30)

    cols = np.concatenate([
        np.broadcast_to(np.arange(3), (m, grid.ncells, 3)),
        np.broadcast_to(3 + 3 * np.arange(m)[:, None, None] + np.arange(3), (m, grid.ncells, 3)),
        3 + 3 * m + ndofs * np.arange(m)[:, None, None] + grid.dofs,
    ], axis=2).reshape(m * grid.ncells, 30)
    # Ground the last node of each slice's corrector field.
    corrector = 3 + 3 * m + ndofs * np.arange(m)[:, None]
    drop = (corrector + (ndofs - 3) + np.arange(3)).ravel()
    # One block per thickness node: its d_i and corrector.
    blocks = np.concatenate([3 + 3 * np.arange(m)[:, None] + np.arange(3),
                             corrector + np.arange(ndofs)], axis=1)
    elements = (wg[:, None, None, None] * Mcell).reshape(m * grid.ncells, 30, 30)
    return _sum_blocks(elements, np.repeat(xg, grid.ncells), cols, ntotal, drop, blocks)


def brute_force_regime1(material: CellMaterial3, A, x3_samples: int = 8) -> float:
    """Minimal joint energy; deterministic dense factorization."""
    a2 = _as_mandel2(A)
    return float(assemble_regime1(material, x3_samples).solve([a2])[0])


def assemble_regime2(slab: SlabMaterial) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, corrector, fiber fluctuations).

    The zero-mean fluctuation d(y3) at each quadrature point is expanded
    in an explicit zero-weighted-mean basis, so no averaging identity
    from the solver pipeline is reused.  The slab must pass its bounds
    check (``SlabMaterial.extremes``).
    """
    slab.extremes           # the bounds check, made once per slab
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
    elements = np.einsum("q,j,qjia,cqjib->cqab", grid.wq, wf, G, CG, optimize=True)

    # One block per (cell, quadrature point): its fiber fluctuations.
    blocks = 3 + ndofs + nz * np.arange(grid.ncells * 8)[:, None] + np.arange(nz)
    cols = np.concatenate([
        np.broadcast_to(np.arange(3), (grid.ncells, 8, 3)),
        np.broadcast_to(3 + grid.dofs[:, None], (grid.ncells, 8, 24)),
        blocks.reshape(grid.ncells, 8, nz),
    ], axis=2).reshape(-1, nloc)
    drop = 3 + (ndofs - 3) + np.arange(3)   # ground the last corrector node
    k = np.arange(grid.ncells)[:, None] % grid.shape[2]
    x3q = -0.5 + (k + np.array(GAUSS_POINTS * 4)) * grid.h[2]    # (ncells, 8) at the points
    return _sum_blocks(elements.reshape(-1, nloc, nloc), x3q.ravel(), cols, ntotal, drop, blocks)


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
