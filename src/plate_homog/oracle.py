"""Independent ground truth at desk scale.

Two kinds of oracle guard the solver pipelines:

- dense joint minimizations of one quadratic form over ALL discrete
  unknowns (mid-plane strain, through-thickness fluctuations, corrector
  nodes) by Cholesky factorizations, with numpy only.  They share the
  discretization definition with the iterative solvers (same elements,
  same quadrature) but none of the code path: no stiffness operator or
  CG, no 1/12 shortcut, no fiber averaging formulas, so a pipeline bug
  has to be duplicated here to slip through;
- closed forms for two-phase thickness profiles and zero-Poisson
  laminates.

The joint Hessian is never assembled whole (``DenseProblem``).  Its
unknowns split into blocks that couple only through a border: in regime
1 a block is one thickness node's fluctuation and corrector and the
border the mid-plane strain; in regime 2 a block is one Gauss point's
fiber fluctuations and the border the mid-plane strain and the
corrector.  Each block is assembled with its coupling to the border
straight from the element matrices, factored and condensed out (static
condensation); only the border's Schur complement is summed and
factored as a whole.  Every block is factored, none is taken as a copy
of another, and one set of factors serves every load.

The dense route is deliberately unscalable.  A cap on the bytes it holds
at once keeps it honest: three copies of its largest dense matrix (a
regime-1 group or the regime-2 border: the matrix, its Cholesky factor
and LAPACK's working copy) plus its element stack and what is held
beside it (``_check_size``).  512 MiB admits an 8^3 cell at 8 thickness
nodes (blocks of 1,536 unknowns, up to 11^3) and an 8x8x4 slab with 4
fiber samples (19,395 unknowns, a border of 960), and refuses a 12^3
cell (blocks of 5,184) and a 16^3 one before allocating.  With one BLAS
thread on a shared 2-core Xeon the oracle took 0.9 s on that cell and
0.08 s on that slab.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .core import EMBED_2_TO_3, QuadForm2, mandel2
from .errors import SizeCapError, SolverError
from .fem import GAUSS_POINTS, build_cell_grid, build_slab_grid
from .homog3d import CellMaterial3
from .homogslab import SlabMaterial

# Budget, 8 bytes per entry, for what the oracle holds at once (``_check_size``).
SIZE_CAP_BYTES = 512 * 2**20

# (0|0|d) has sym part with Mandel out-of-plane coords (d3, d2/sqrt2, d1/sqrt2).
_D_MAP = np.zeros((6, 3))
_D_MAP[2, 2] = 1.0
_D_MAP[3, 1] = 1.0 / np.sqrt(2.0)
_D_MAP[4, 0] = 1.0 / np.sqrt(2.0)


@dataclass(eq=False)
class DenseProblem:
    """Joint quadratic of a curvature ``a``, held as groups of unknowns, never as one Hessian.

    A group is a symmetric matrix E over its own unknowns, ordered
    [block (m) | border part (r)], the first three of its border part the
    mid-plane strain, and the thickness coordinate x3 of its curvature
    load.  Its energy is (v + x3 i(a))^T E (v + x3 i(a)), where v lists its
    unknowns and i(a) adds the curvature to the mid-plane strain.  The
    joint energy is the sum over groups.  Each block belongs to one group,
    so given the border the minimization over each block is its own.
    Periodicity is built into the numbering and the gauge is already
    eliminated: one grounded node per corrector field is left out, its
    rows and columns of E zeroed and its index 0.

    ``groups()`` yields the groups in batches ``(E (p, n, n), x3 (p,),
    rows (p, r))``, ``rows`` the border unknowns of each group's border
    part, and assembles them as they are asked for: regime 1 holds one
    thickness node's block at a time, regime 2 every Gauss point's element
    in one stack.  ``blocks`` is (number of blocks, unknowns per block)
    and ``nborder`` the number of border unknowns.
    """

    nborder: int
    blocks: tuple
    groups: Callable[[], Iterable[tuple]]

    def solve(self, loads) -> np.ndarray:
        """Minimal energies of the curvatures ``loads`` (k Mandel 3-vectors).

        Blocks first, border last (static condensation).  Per batch, one
        batched Cholesky factors every block E_zz = L L^T, and Y = L^-1 E_zw
        leaves on the group's border part w the Schur complement
        S_g = E_ww - Y^T Y.  The curvature shifts only the mid-plane strain,
        which is on the border, so the group's minimal energy over its block is
        (w + x3 i(a))^T S_g (w + x3 i(a)): its load map is x3 S_g[:, :3] and
        its constant x3^2 S_g[:3, :3].  One ``np.bincount`` per batch sums
        them into the border, whose complement S is factored once more:
        with W = L_S^-1 R the energy matrix is C - W^T W, and a load's
        energy is a^T (C - W^T W) a.  The factors do not depend on the load,
        so one set serves every load.  A block or border that is not
        positive definite raises ``SolverError`` naming it.
        """
        n0 = self.nborder
        S = np.zeros(n0 * n0)
        R = np.zeros(3 * n0)
        C = np.zeros((3, 3))
        name = f"block {{}} of {self.blocks[0]} ({self.blocks[1]} unknowns)"
        first = 0
        for E, x3, rows in self.groups():
            Sg = _condense(E, rows.shape[1], name, first)
            first += len(E)
            del E       # the next batch is assembled once this one is gone
            S += np.bincount((rows[:, :, None] * n0 + rows[:, None, :]).ravel(), weights=Sg.ravel(),
                             minlength=n0 * n0)
            R += np.bincount((rows[:, :, None] * 3 + np.arange(3)).ravel(),
                             weights=(x3[:, None, None] * Sg[:, :, :3]).ravel(), minlength=3 * n0)
            C += np.einsum("p,pij->ij", x3 * x3, Sg[:, :3, :3])
            del Sg
        LS = _cholesky(S.reshape(1, n0, n0), f"border ({n0} unknowns)")
        W = _forward_solve(LS, R.reshape(1, n0, 3))[0]
        M = C - W.T @ W
        a = np.atleast_2d(np.asarray(loads, dtype=float))
        return np.einsum("ki,ij,kj->k", a, M, a)


def _condense(E: np.ndarray, r: int, name: str, first: int) -> np.ndarray:
    """Schur complements (p, r, r) on the last ``r`` unknowns of the groups ``E``,
    their blocks minimized out; the blocks are named ``name.format(first + i)``."""
    m = E.shape[1] - r
    L = _cholesky(E[:, :m, :m], name, first)
    Y = _forward_solve(L, E[:, :m, m:])
    del L
    Sg = Y.transpose(0, 2, 1) @ Y
    return np.subtract(E[:, m:, m:], Sg, out=Sg)


# Row tile of ``_forward_solve``.  On a 2-core Xeon KVM guest, one BLAS thread,
# a border of 960 unknowns with 3 right-hand sides took 2.7 ms at 8 rows,
# 2.0 ms at 16, 2.1 ms at 32 and 3.2 ms at 64; 216 blocks of 6 unknowns with 27
# took 0.6-0.7 ms at any tile.
_TILE = 16


def _cholesky(A: np.ndarray, name: str, first: int = 0) -> np.ndarray:
    """Lower Cholesky factors of the stack ``A``; ``SolverError`` names the first
    matrix ``i`` that is not positive definite as ``name.format(first + i)``."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for i, Ai in enumerate(A):
            try:
                np.linalg.cholesky(Ai)
            except np.linalg.LinAlgError:
                raise SolverError(f"dense oracle: {name.format(first + i)} "
                                  "is not positive definite") from None
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


def _check_size(largest: str, n: int, rest: str, entries: int) -> None:
    """Refuse, before allocating anything, a problem that would hold more than
    the cap at once: its largest dense matrix (``n`` unknowns, described by
    ``largest``) three times, as ``np.linalg.cholesky`` holds the matrix, its
    factor and LAPACK's working copy, and ``entries`` more (``rest``)."""
    nbytes = 8 * (3 * n * n + entries)
    if nbytes > SIZE_CAP_BYTES:
        raise SizeCapError(f"dense oracle would hold {nbytes} bytes at once, over the cap of "
                           f"{SIZE_CAP_BYTES} bytes: {largest}, its Cholesky factor and "
                           f"LAPACK's copy, and {rest}")


def _ground(E: np.ndarray, start: int, grounded: np.ndarray, index: np.ndarray) -> None:
    """Leave out the grounded unknowns of the element matrices ``E``: zero their rows
    and columns (local unknowns ``start`` on, masked by ``grounded``) and send their
    ``index`` entries to 0, where the zeros sum harmlessly."""
    E[:, start:][grounded] = 0.0
    E.transpose(0, 2, 1)[:, start:][grounded] = 0.0
    index[grounded] = 0


def _as_mandel2(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        return mandel2(A)
    if A.shape == (3,):
        return A
    raise ValueError("curvature argument must be a 2x2 matrix or Mandel 3-vector")


def assemble_regime1(material: CellMaterial3, x3_samples: int) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, d(x3_i), corrector(x3_i)).

    The thickness integral runs over Gauss-Legendre nodes, which
    integrate the thickness-quadratic integrand exactly, so the only
    discretization left is the shared unit-cell grid.  Given the
    mid-plane strain the thickness nodes decouple: each node's d_i and
    corrector form one block, the mid-plane strain is the border.  A
    node's group, [d_i (3) | corrector (ndofs - 3) | b (3)], is summed
    from the element matrices when ``solve`` asks for it, so one block is
    held at a time.
    """
    if x3_samples < 2:
        raise ValueError("need at least 2 thickness nodes")
    grid = build_cell_grid(*material.grid_shape)
    ndofs = grid.ndofs
    m = int(x3_samples)
    n = ndofs + 3
    # beside the group: the element stack, its bincount index and one node's weighted copy
    _check_size(f"a group of {n} unknowns (a block of {ndofs} and 3 border unknowns)", n,
                f"{grid.ncells} element matrices of 30 unknowns with their index and a copy",
                3 * grid.ncells * 900)

    xg, wg = np.polynomial.legendre.leggauss(m)
    xg, wg = 0.5 * xg, 0.5 * wg

    # Local unknown layout per cell: [b(3) | d_i(3) | phi cell dofs(24)].
    PD = np.concatenate([EMBED_2_TO_3, _D_MAP], axis=1)      # (6, 6)
    Gq = np.concatenate([np.broadcast_to(PD, (8, 6, 6)), grid.B], axis=2)  # (8,6,30)
    wG = (grid.wq[:, None, None] * Gq).reshape(48, 30)
    Mcell = wG.T @ (material.flat()[:, None] @ Gq).reshape(-1, 48, 30)    # (ncells,30,30)

    # Each local unknown's place in its node's group; the last corrector node is grounded.
    local = np.concatenate([np.broadcast_to(ndofs + np.arange(3), (grid.ncells, 3)),
                            np.broadcast_to(np.arange(3), (grid.ncells, 3)), 3 + grid.dofs], axis=1)
    _ground(Mcell, 6, grid.dofs >= ndofs - 3, local[:, 6:])
    pairs = (local[:, :, None] * n + local[:, None, :]).ravel()
    weights = Mcell.ravel()
    border = np.arange(3)[None]

    def groups():
        for i in range(m):
            # every node's block summed afresh, none a copy of another
            yield np.bincount(pairs, wg[i] * weights, n * n).reshape(1, n, n), xg[i:i + 1], border

    return DenseProblem(nborder=3, blocks=(m, ndofs), groups=groups)


def brute_force_regime1(material: CellMaterial3, A, x3_samples: int = 8) -> float:
    """Minimal joint energy; deterministic dense factorization."""
    a2 = _as_mandel2(A)
    return float(assemble_regime1(material, x3_samples).solve([a2])[0])


def assemble_regime2(slab: SlabMaterial) -> DenseProblem:
    """Joint quadratic over (mid-plane strain, corrector, fiber fluctuations).

    The zero-mean fluctuation d(y3) at each quadrature point is expanded
    in an explicit zero-weighted-mean basis, so no averaging identity
    from the solver pipeline is reused.  Each (cell, quadrature point)
    element is one group: its fluctuations are one block, its mid-plane
    strain and cell dofs its border part.
    """
    grid = build_slab_grid(*slab.grid_shape)
    ndofs = grid.ndofs
    nf = slab.fiber_samples
    if nf < 2:
        raise ValueError("fiber fluctuation needs at least 2 samples")
    nz = 3 * (nf - 1)
    nloc = 3 + 24 + nz
    nelements = grid.ncells * 8
    # beside the border: the element stack, then its block factors, couplings Y,
    # Schur complements and their int64 bincount index
    _check_size(f"a border of {ndofs} unknowns", ndofs,
                f"{nelements} element matrices of {nloc} unknowns with their condensation",
                nelements * (nloc * nloc + nz * nz + nz * 27 + 2 * 27 * 27))

    wf = slab.weights
    Z = np.zeros((nf, nf - 1))
    Z[: nf - 1, :] = np.eye(nf - 1)
    Z[nf - 1, :] = -wf[: nf - 1] / wf[nf - 1]

    # Local unknown layout per (cell, quadrature point): [z(nz) | b(3) | cell dofs(24)];
    # G[q, j] maps it to the strain at fiber sample j.
    G = np.zeros((8, nf, 6, nloc))
    for j in range(nf):
        G[:, j, :, :nz] = np.kron(Z[j], _D_MAP)
    G[..., nz:nz + 3] = EMBED_2_TO_3
    G[..., nz + 3:] = grid.B[:, None]
    stacks = slab.cell_fiber_stacks()       # (ncells, nf, 6, 6)
    CG = (stacks[:, None] @ G).reshape(grid.ncells, 8, nf * 6, nloc)
    wG = (grid.wq[:, None, None, None] * wf[:, None, None] * G).reshape(8, nf * 6, nloc)
    elements = (wG.transpose(0, 2, 1) @ CG).reshape(nelements, nloc, nloc)
    del CG

    # Border unknowns: the mid-plane strain, then the corrector with its last node grounded.
    rows = np.concatenate([np.broadcast_to(np.arange(3), (grid.ncells, 8, 3)),
                           np.broadcast_to(3 + grid.dofs[:, None], (grid.ncells, 8, 24))],
                          axis=2).reshape(nelements, 27)
    _ground(elements, nz, rows >= ndofs, rows)
    k = np.arange(grid.ncells)[:, None] % grid.shape[2]
    x3q = -0.5 + (k + np.array(GAUSS_POINTS * 4)) * grid.h[2]    # (ncells, 8) at the points
    return DenseProblem(nborder=ndofs, blocks=(nelements, nz),
                        groups=lambda: [(elements, x3q.ravel(), rows)])


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
