"""Trilinear finite elements on uniform periodic grids and slabs.

Shared discretization for the unit-cell and slab corrector problems and
for the dense oracles:

- trilinear (Q1) displacement elements on a uniform grid,
- 2x2x2 Gauss quadrature per cell, which integrates the energy of a
  trilinear field with cellwise-constant material exactly.  Exactness
  makes nested mesh refinement produce non-increasing corrector
  energies, which the monotonicity checks rely on,
- cell-centered material sampling (one 6x6 Mandel matrix per cell),
- periodic node identification on all axes (cell grids) or on the two
  in-plane axes only (slab grids, natural boundary across thickness).

Strains live in Mandel coordinates throughout, so each quadrature point
contributes ``w_q * (g + B_q u)^T C (g + B_q u)`` to the energy.  ``K x``
takes one of three forms, picked from the cell laws alone:

- grouped, one 24x24 element matrix per distinct cell law, when a law
  covers at least ``LAW_CELLS`` cells on average;
- law-basis, when the laws span few directions of law space: with r basis
  laws ``C_k`` and per-cell coefficients, ``C_c = sum_k a_ck C_k``, so
  ``K u = sum_k a_ck (u_c @ Ke_k)``, r products with a 24x24 matrix and a
  per-cell scale (the affine decomposition of reduced-basis methods,
  applied in law space).  It is taken when the numerical rank r is at most
  ``LAW_RANK`` and the basis rebuilds every cell's own law to 1e-14 of its
  largest entry;
- stacked otherwise: all 8 quadrature points in 48-row products around
  one 6x6 law per cell.

A load strain is constant or x3-linear per cell: a Mandel 6-vector G, or
on a slab a pair (G, A) for ``G + x3 A``.  With ``x3_q = x3_c + d_q`` (x3_c
the cell centre, ``d_q = +-h3 / (2 sqrt 3)`` in every cell), two constant
6x24 matrices carry all the quadrature a load needs, ``Bbar = sum_q w_q
B_q`` and ``Btilde = sum_q w_q d_q B_q``, since ``sum_q w_q d_q = 0`` and
``sum_q w_q d_q^2 = v h3^2 / 12`` (v the cell volume).  The energy matrix
of solved correctors is ``N_ij = f_i . x_j + T_ij``: the true residual
``f_i = K x_i + rhs(G_i)``, one matvec per load, plus a load term from the
cell integrals of the total strain, ``e = Bbar u_c + v (G + x3_c A)``, and
of its first x3 moment, ``m = x3_c e + Btilde u_c + v (h3^2 / 12) A``,
formed per cell before the law is applied: no quadrature-point field is
built and no large terms cancel.  The noise floor of a load is its
assembly on absolute values, from cell integrals too: ``|G + x3 A|`` is
constant on each of a cell's two Gauss planes in x3, so ``sum_q w_q |B_q|``
splits into a lower and an upper plane sum.

The stiffness form picks only the kernel of ``K x``.  Every operator keeps
its cells sorted by law, numbered by first appearance (with no law
repeated, grid order), and builds loads, noise floors and stiffness local
vectors in that order from the exact laws: a load's ``(C_l G) @ Bbar`` once
per law and repeated over the law's cells, a residual ``K x + rhs(G)`` as
the sum of the two, scattered once.

Both regime pipelines and their one-load solves build their operator
with ``solve_grid_operator``: on the grid cut to one cell along every
periodic axis on which the cell laws are bitwise equal
(``invariant_cut``), which gives the same forms to rounding.  On that
grid ``solve_loads`` solves one load per orbit of the axis swaps that map
the cell laws onto themselves up to a periodic shift
(``axis_symmetries``): any permutation of equal-length axes on a cell, y1
<-> y2 on a square slab.  The other loads of an orbit take the solved
field with its axes and components permuted and rolled, the same
minimizer to rounding, since the gauged minimizer is unique, and their
energy rows from the solved load's residual and stress sums mirrored alike.

Corrector solves run conjugate gradients preconditioned by the exact inverse
of the stiffness K0 of one constant reference law C0 on the same grid
(``Reference``).  A grouped operator takes as C0 the law of at least
``MAJORITY_SHARE`` of its cells when there is one, else C0 is the cell mean.
With the majority law ``K = K0 + dK``, and ``dK`` lives only on the other
cells: CG keeps ``K0 p`` by the recurrence ``K0 p = r + beta K0 p_prev``
(``p = z + beta p_prev`` with ``K0 z = r``), so an iteration multiplies only
those cells, by ``Ke_l - Ke_0`` per law (the polarization of FFT
homogenization, Moulinec & Suquet 1998; Eyre & Milton 1999, in a Galerkin
PCG).  Every grid is periodic in plane, so that operator is block-circulant
and a discrete Fourier transform diagonalizes it: one 3x3 block per
wavevector on a cell grid, one block-tridiagonal system over the node planes
per in-plane wavevector on a slab grid (Moulinec & Suquet 1998; Zeman,
Vondrejc, Novak & Marek 2010).  The iteration count then depends on the
contrast of C against C0, not on the grid size.  The symbol is built by sum
factorization and every transform is a product with per-axis DFT tables,
along the periodic axes longer than one cell alone; a slab applies its
inverse stored dense or by a block sweep, picked from the grid shape
(``preconditioner_form``).  See ``reference_inverse``.

Nodal vectors are node-major, dof ``3 * node + m``; element kernels run on
local vectors (24, cells), a row per local dof ``3 a + m``, gathered by one
float ``take`` and scattered by one ``bincount`` over the operator's dof index.
``Grid.dofs``, the grid-order index, serves only the dense oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from .core import SQRT2
from .errors import SolverError

GAUSS_OFFSET = 0.5 / np.sqrt(3.0)
GAUSS_POINTS = (0.5 - GAUSS_OFFSET, 0.5 + GAUSS_OFFSET)
# The 2x2x2 Gauss points and the eight node offsets of a cell, in the local orders.
_POINTS = np.array(list(product(GAUSS_POINTS, repeat=3)))
_NODE_OFFSETS = np.array(list(product((0, 1), repeat=3)), dtype=bool)

# ``matvec`` takes the grouped form when a law covers at least this many cells
# on average: both forms cost the same at 6-8 cells per law on 256-4096 cells.
LAW_CELLS = 8

# Otherwise it takes the law-basis form when the cell laws span at most this
# many directions of law space.  Isotropic laws span 2, and so do the fiber
# reductions of one isotropic law scaled by a scalar per sample.
# Against the stacked form, one BLAS thread, a matvec at r = 2 costs 0.45-0.8x
# on 27 to 16,384 cells; at r = 3 it costs 1.0-1.05x on 27-32 cells, and at
# r = 6 1.7x on 27 cells and 1.1x on 864.
LAW_RANK = 2

# Odd multipliers of the law hash in ``_distinct_rows`` (products wrap mod 2**64).
_LAW_HASH = np.arange(1, 73, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

# The names of the two reference laws (``Reference``), reported as
# ``diagnostics.preconditioner`` by both regime pipelines.
MEAN_REFERENCE = "fft-reference-mean"
MAJORITY_REFERENCE = "fft-reference-majority"

# A grouped operator takes as reference law the law of the most cells when that
# law covers at least this share of them.  CG on 6 loads, one BLAS thread, 12^3
# and 16^3 cells of three isotropic phases: at shares 0.5-0.875 it took 0.52-0.78x
# the time of the mean reference, with equal iterations on proportional phases and
# 1-4 % fewer on others.  Below a half it gained less (0.69-0.87x at 0.34-0.45),
# and a law of fewer cells than the rest is a weaker stand-in for the material.
MAJORITY_SHARE = 0.5

# A slab's reference inverse is stored dense, one (3 planes)^2 complex block per
# in-plane wavevector, when that takes at most this many bytes; above it the
# apply runs the block sweep.  Set from the build plus 120 applies against the
# sweep: the crossover is in ``reference_inverse``.  The cap dates from the
# build by the sweep on unit vectors and was not derived again for the build from
# the factors, and a byte count is not the right rule: thin wide slabs lose below it.
SLAB_DENSE_BYTES = 2 ** 20

# CG gives up once its relative residual has set no new minimum for this
# many iterations.  A new minimum has to undercut the old one by 0.1 %: at
# rounding level the residual only jitters in its last digits.
STALL_ITERATIONS = 50


def build_b_matrices(h) -> np.ndarray:
    """Strain-displacement matrices (8, 6, 24) at the 2x2x2 Gauss points.

    Local node ``a = 4*da + 2*db + dc`` sits at offset ``(da, db, dc)``
    of the cell; dof ``3*a + m`` is its displacement component ``m``.
    Rows are Mandel strain slots (11, 22, 33, s2*23, s2*13, s2*12).
    """
    h = np.asarray(h, dtype=float)
    f = np.where(_NODE_OFFSETS, _POINTS[:, None], 1.0 - _POINTS[:, None])   # (8q, 8a, 3)
    d = np.where(_NODE_OFFSETS, 1.0, -1.0)                                   # (8a, 3)
    g0 = d[:, 0] * f[..., 1] * f[..., 2] / h[0]
    g1 = f[..., 0] * d[:, 1] * f[..., 2] / h[1]
    g2 = f[..., 0] * f[..., 1] * d[:, 2] / h[2]
    B = np.zeros((8, 6, 8, 3))
    B[:, 0, :, 0] = g0
    B[:, 1, :, 1] = g1
    B[:, 2, :, 2] = g2
    B[:, 3, :, 1] = g2 / SQRT2
    B[:, 3, :, 2] = g1 / SQRT2
    B[:, 4, :, 0] = g2 / SQRT2
    B[:, 4, :, 2] = g0 / SQRT2
    B[:, 5, :, 0] = g1 / SQRT2
    B[:, 5, :, 1] = g0 / SQRT2
    return B.reshape(8, 6, 24)


@dataclass(frozen=True, eq=False)
class Grid:
    """Element topology: gather indices, quadrature, node layout."""

    kind: str                 # "cell" (fully periodic) or "slab"
    shape: tuple              # cells per axis
    node_shape: tuple
    idx: np.ndarray           # (ncells, 8) int64 node indices
    B: np.ndarray             # (8, 6, 24)
    wq: np.ndarray            # (8,) quadrature weights including cell volume
    h: tuple
    x3c: np.ndarray           # (ncells,) x3 of the cell centres, over [-1/2, 1/2]

    @property
    def ncells(self) -> int:
        return self.idx.shape[0]

    @cached_property
    def nnodes(self) -> int:
        return int(np.prod(self.node_shape))

    @cached_property
    def ndofs(self) -> int:
        return 3 * self.nnodes

    @cached_property
    def dofs(self) -> np.ndarray:
        """(ncells, 24) global dof ``3 * node + m`` of each local dof, cells major."""
        return np.ascontiguousarray(_dof_index(self.idx).T)


def _dof_index(idx: np.ndarray) -> np.ndarray:
    """(24, cells) global dof ``3 * node + m`` of local dof ``3 a + m`` of the cells
    of node index ``idx`` (cells, 8)."""
    return (3 * idx.T[:, None] + np.arange(3)[:, None]).reshape(24, len(idx))


def _build_grid(kind: str, n1: int, n2: int, n3: int) -> Grid:
    if min(n1, n2, n3) < 1:
        raise ValueError("grid sizes must be at least 1 per axis")
    h = (1.0 / n1, 1.0 / n2, 1.0 / n3)
    m3 = n3 if kind == "cell" else n3 + 1      # node planes across the thickness
    # per axis, the (n, 8) offsets of each cell's eight nodes, broadcast into (n1, n2, n3, 8)
    da, db, dc = _NODE_OFFSETS.T
    idx = ((np.arange(n1)[:, None, None, None] + da) % n1 * (n2 * m3)
           + (np.arange(n2)[:, None, None] + db) % n2 * m3
           + (np.arange(n3)[:, None] + dc) % m3).reshape(-1, 8)
    return Grid(kind=kind, shape=(n1, n2, n3), node_shape=(n1, n2, m3), idx=idx,
                B=build_b_matrices(h), wq=np.full(8, h[0] * h[1] * h[2] / 8.0), h=h,
                x3c=np.tile(-0.5 + (np.arange(n3) + 0.5) * h[2], n1 * n2))


def build_cell_grid(n1: int, n2: int, n3: int) -> Grid:
    """Fully periodic unit-cell grid with n1*n2*n3 cells (= nodes)."""
    return _build_grid("cell", n1, n2, n3)


def build_slab_grid(n1: int, n2: int, n3: int) -> Grid:
    """Slab grid: periodic in the two in-plane axes, free across thickness.

    Axis order is (y1, y2, x3); the thickness axis has ``n3`` cells and
    ``n3 + 1`` node planes over ``[-1/2, 1/2]``.
    """
    return _build_grid("slab", n1, n2, n3)


@dataclass(frozen=True, eq=False)
class Reference:
    """The constant law C0 of the preconditioner and its name.

    ``MAJORITY_REFERENCE`` when C0 is the law of at least ``MAJORITY_SHARE``
    of the cells of a grouped operator, ``MEAN_REFERENCE`` for the cell mean
    otherwise (SPD whenever every cell law is).  On phases that are
    multiples of one law the two give the same iterations; on others the
    majority law can take more.  On three 12^3 cells with 55 % of the cells
    on one isotropic law and the rest on 5 random anisotropic laws over
    1e-3..1e3, 6 loads at tol 1e-12, it took 0.99-1.07x the iterations of
    the mean and 0.60-0.97x its time.
    """

    law: np.ndarray
    name: str


class ElementOperator:
    """Stiffness operator ``K = sum_c sum_q w_q B_q^T C_c B_q`` plus
    the load/energy helpers built from the same quadrature.

    ``stiffness`` names the form of ``K x`` (see ``matvec``): "grouped",
    "law-basis" or "stacked"; ``law_rank`` is the number r of basis laws in
    the law-basis form and None otherwise.  In every form the cells are
    sorted by law as ``_distinct_laws`` numbers them: distinct laws
    ``_laws``, their cell counts ``_counts`` and runs ``_cuts``.  Every
    local vector is (24, cells) in that order, gathered and scattered with
    the one dof index ``_dofs``.  ``reference`` is the
    preconditioner's law: with the majority law, whose cells are one run of
    ``_cuts``, the other cells keep their own columns ``_minor_dofs`` of the
    dof index and the differences ``_minor_Ke`` of their element matrices
    from the reference one (see ``split_product``).  ``laws``, when given,
    is ``_distinct_laws(cellC)`` as the caller already computed it;
    ``law_labels`` keeps its law numbers in grid order, for
    ``axis_symmetries``.
    """

    def __init__(self, grid: Grid, cellC: np.ndarray, laws=None):
        cellC = np.ascontiguousarray(cellC, dtype=float)
        if cellC.shape != (grid.ncells, 6, 6):
            raise ValueError(
                f"material array must be ({grid.ncells}, 6, 6), got {cellC.shape}"
            )
        self.grid = grid
        self.cellC = cellC
        self._inverse = self._reference_Ke = None
        self._wB = (grid.wq[:, None, None] * grid.B).reshape(48, 24)
        # cell integrals of B and of (x3 - x3_c) B; x3 - x3_c is the same in every cell
        self._Bbar = np.einsum("q,qij->ij", grid.wq, grid.B)
        d3 = (np.array(GAUSS_POINTS * 4) - 0.5) * grid.h[2]
        self._Btilde = np.einsum("q,qij->ij", grid.wq * d3, grid.B)
        first, law = _distinct_laws(cellC) if laws is None else laws
        self.cell_laws = len(first)
        self.law_labels = law
        self._counts = np.bincount(law)
        self._cuts = np.concatenate(([0], np.cumsum(self._counts)))
        if self.cell_laws < grid.ncells:
            order = np.argsort(law, kind="stable")
            idx, self._x3c, self._laws = grid.idx[order], grid.x3c[order], cellC[first]
        else:       # a law per cell: laws numbered by first appearance are in grid order
            idx, self._x3c, self._laws = grid.idx, grid.x3c, cellC
        self._dofs = _dof_index(idx)
        self.stiffness, self.law_rank = "grouped", None
        self.reference = Reference(cellC.mean(axis=0), MEAN_REFERENCE)
        if LAW_CELLS * self.cell_laws <= grid.ncells:
            self._Ke = _element_matrix(grid, self._laws)
            major = int(self._counts.argmax())
            if self._counts[major] >= MAJORITY_SHARE * grid.ncells:
                self.reference = Reference(self._laws[major], MAJORITY_REFERENCE)
                self._reference_Ke = self._Ke[major]
                a, b = self._cuts[major:major + 2]
                others = np.arange(self.cell_laws) != major
                self._minor_dofs = np.concatenate([self._dofs[:, :a], self._dofs[:, b:]], axis=1)
                self._minor_Ke = self._Ke[others] - self._Ke[major]
                self._minor_cuts = np.concatenate(([0], np.cumsum(self._counts[others])))
        else:
            basis = _law_basis(self._laws)
            if basis is None:
                self.stiffness = "stacked"
            else:
                coeffs, basis_laws = basis
                self.stiffness, self.law_rank = "law-basis", len(basis_laws)
                self._coeffs = np.ascontiguousarray(self._spread(coeffs.T))
                self._basis_Ke = _element_matrix(grid, basis_laws)

    def _gather(self, x: np.ndarray, dofs=None) -> np.ndarray:
        """Local dof vectors (24, cells) of a nodal field on the cells of the dof
        index ``dofs``, by default ``_dofs``: one float ``take``."""
        dofs = self._dofs if dofs is None else dofs
        return np.asarray(x, dtype=float).reshape(-1).take(dofs)

    def _to_nodes(self, ylocal: np.ndarray, dofs=None) -> np.ndarray:
        """Scatter-add local vectors (24, cells) into a nodal vector: one
        ``bincount`` over the dof index ``dofs``, by default ``_dofs``."""
        dofs = self._dofs if dofs is None else dofs
        return np.bincount(dofs.ravel(), weights=ylocal.ravel(), minlength=self.grid.ndofs)

    def _spread(self, rows: np.ndarray, axis: int = -1) -> np.ndarray:
        """Per-law entries along ``axis`` repeated over their cells; ``rows`` if no law repeats."""
        repeats = self.cell_laws < self.grid.ncells
        return np.repeat(rows, self._counts, axis=axis) if repeats else rows

    def _law_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-cell columns summed over each law's cells, the adjoint of ``_spread``."""
        repeats = self.cell_laws < self.grid.ncells
        return np.add.reduceat(rows, self._cuts[:-1], axis=-1) if repeats else rows

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``K x``: gather, a few large products, scatter-add.

        The form (``stiffness``) is picked once, from the laws alone:

        - grouped, when ``LAW_CELLS * cell_laws <= ncells``: cells sorted
          by law, one ``Ke_l @ u[:, a:b]`` product per law on its run a:b;
        - law-basis, else when the laws have numerical rank ``r <=
          LAW_RANK`` (see ``_law_basis``): ``sum_k a_k * (Ke_k @ u)``, r
          products of 24x24 @ (24, ncells), each scaled by the row ``a_k``
          of the coefficients of basis law k, with no temporary larger
          than (24, ncells);
        - stacked otherwise: strains ``u^T @ B^T`` (24 x 48) at all 8
          points at once, one batched ``(8, 6) @ C_c^T`` per cell, then
          ``(w B)^T @`` (24 x 48).

        The three agree to rounding on the same laws.
        """
        return self._to_nodes(self._stiffness_local(self._gather(x))).reshape(x.shape)

    def _stiffness_local(self, u: np.ndarray) -> np.ndarray:
        """Local vectors (24, ncells) of ``K x`` from its gathered ``u``, by ``stiffness``."""
        if self.stiffness == "grouped":
            return _grouped_local(u, self._Ke, self._cuts)
        if self.stiffness == "law-basis":
            y = self._basis_Ke[0] @ u
            y *= self._coeffs[0]
            term = np.empty_like(u)
            for Ke, a in zip(self._basis_Ke[1:], self._coeffs[1:]):
                np.matmul(Ke, u, out=term)
                term *= a
                y += term
            return y
        g = (u.T @ self.grid.B.reshape(48, 24).T).reshape(-1, 8, 6)
        s = g @ self._spread(self._laws, axis=0).transpose(0, 2, 1)
        return self._wB.T @ s.reshape(-1, 48).T

    def split_product(self, p: np.ndarray, K0p: np.ndarray) -> np.ndarray:
        """``K p = K0 p + dK p`` for the majority reference, given ``K0 p``: ``dK``
        has no entry on the cells of the reference law, so ``dK p`` is one
        ``(Ke_l - Ke_0) @ u[:, a:b]`` product per other law, gathered and
        scattered over those cells only (none on a constant law)."""
        if not self._minor_dofs.size:
            return K0p.copy()
        u = self._gather(p, self._minor_dofs)
        Ap = self._to_nodes(_grouped_local(u, self._minor_Ke, self._minor_cuts), self._minor_dofs)
        Ap += K0p
        return Ap

    @property
    def preconditioner_form(self) -> str:
        """How ``precondition`` applies its inverse (see ``preconditioner_form``),
        known without building it."""
        return preconditioner_form(self.grid.kind, self.grid.shape)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Zero-mean solution of ``K0 z = r`` for the law C0 of ``reference``.

        The FFT inverse is built on first use, so an operator whose loads
        are all below their noise floor never builds it.
        """
        if self._inverse is None:
            Ke = self._reference_Ke
            self._inverse = reference_inverse(
                self.grid, _element_matrix(self.grid, self.reference.law) if Ke is None else Ke)
        return self._inverse(r)

    def _load_parts(self, gload):
        """``(G, A)`` of a load ``G + x3 A``: a 6-vector (A None) or a slab's (2, 6) pair."""
        g = np.asarray(gload, dtype=float)
        if g.shape == (6,):
            return g, None
        if g.shape == (2, 6) and self.grid.kind == "slab":
            return g[0], g[1]
        raise ValueError("load strain must be a Mandel 6-vector or, on a slab grid, "
                         f"a (2, 6) pair (G, A) for G + x3 A; got shape {g.shape}")

    def _load_local(self, G: np.ndarray, A=None) -> np.ndarray:
        """Local load vectors (24, ncells) of ``G + x3 A``: ``Bbar^T (C_l G)`` once
        per law and spread over its cells, with ``A`` plus ``Btilde^T (C_l A)``
        and ``x3_c Bbar^T (C_l A)``."""
        C = self._laws.reshape(-1, 6)
        stress = (C @ G).reshape(-1, 6).T
        if A is None:
            return self._spread(self._Bbar.T @ stress)
        stress_a = (C @ A).reshape(-1, 6).T
        local = self._spread(self._Bbar.T @ stress + self._Btilde.T @ stress_a)
        local += self._spread(self._Bbar.T @ stress_a) * self._x3c
        return local

    def rhs(self, gload) -> np.ndarray:
        """Nodal load vector ``f[v] = sum_c sum_q w_q (B_q v)^T C_c (G + x3_q A)``.

        Per cell it is ``Bbar^T (C_c G)``, plus ``x3_c Bbar^T (C_c A) + Btilde^T
        (C_c A)`` for a pair, so it needs no quadrature: these columns are
        formed once per law, repeated over the law's cells in the operator's
        order and scattered with its one dof index.
        """
        return self._to_nodes(self._load_local(*self._load_parts(gload)))

    def rhs_noise_floor(self, gload) -> float:
        """Norm threshold below which an assembled load is cancellation dust.

        Materials with no coupling between the load strain and some
        displacement components produce load entries that are exact
        zeros up to rounding; iterating CG on such noise diverges.  The
        same assembly run on absolute values, ``|C|``, ``|B|`` and ``|G +
        x3_q A|`` at every quadrature point, bounds the magnitude that
        went into each entry, so anything at 1e-12 of it is noise (the
        true cancellation error sits near 1e-16 of it).

        It is taken from cell integrals: ``|G + x3_q A|`` is constant on
        each of a cell's two Gauss planes in x3, ``x3_c -+ d`` with ``d = h3
        / (2 sqrt 3)``, so ``sum_q w_q |B_q|`` splits into a lower and an
        upper plane sum, each applied to ``|C_c| |G + (x3_c -+ d) A|`` (one
        sum and ``|C_l| |G|`` once per law for a 6-vector).  The local
        vectors are scattered like ``rhs``.
        """
        G, A = self._load_parts(gload)
        absC, absB, absB_planes = self._floor_parts
        if A is None:
            local = self._spread(absB @ (absC.reshape(-1, 6) @ np.abs(G)).reshape(-1, 6).T)
        else:
            d = GAUSS_OFFSET * self.grid.h[2]
            g = np.abs(G + (self._x3c[:, None, None] + np.array([[-d], [d]])) * A)
            s = g @ self._spread(absC, axis=0).transpose(0, 2, 1)
            local = absB_planes @ s.reshape(-1, 12).T
        f = self._to_nodes(local)
        return 1e-12 * sqrt(f @ f)

    @cached_property
    def _floor_parts(self):
        """``|C|`` per law, ``(sum_q w_q |B_q|)^T`` and its lower and upper
        Gauss-plane parts side by side (24, 12), for ``rhs_noise_floor``."""
        wabsB = self.grid.wq[:, None, None] * np.abs(self.grid.B)
        return np.abs(self._laws), wabsB.sum(axis=0).T, np.vstack([wabsB[0::2].sum(axis=0),
                                                                   wabsB[1::2].sum(axis=0)]).T

    def energy_matrix(self, fields, loads, sources=()) -> np.ndarray:
        """Energies ``N_ij = sum w_q g_i^T C g_j`` of total strains ``g_i = B x_i + G_i
        + x3 A_i``.

        ``N_ij = f_i . x_j + T_ij`` with the residual ``f_i = K x_i +
        rhs(G_i)`` (tiny at convergence): the stiffness and the load local
        vectors of load i added per cell in the operator's order and
        scattered in one ``bincount``.  The load term is ``T_ij = sum_c sum_q
        w_q g_i^T C_c (G_j + x3_q A_j) = sum_c (e_ic . C_c G_j + m_ic . C_c
        A_j)``, with the cell integrals ``e = Bbar u + v (G + x3_c A)`` and ``m
        = x3_c e + Btilde u + v (h3^2 / 12) A`` (the moment only when some
        load has an A) formed per cell before ``C`` is applied and summed
        per law: forms that cancel only globally (``x_i . rhs(G_j)`` plus a
        load term, or ``X^T K X`` plus cross terms) drift well past rounding,
        most on the small entries.  A load mirrored from load k, ``sources[i] =
        (k, p, s)`` (``solve_loads``), takes load k's residual mirrored alike and
        its stress sums with each 6-block read through ``mandel_slots(p)``: no
        matvec, load or gather; only a source keeps its ``f``.  The result is
        symmetrized.
        """
        parts = padded = [self._load_parts(g) for g in loads]
        if any(A is not None for _, A in parts):      # every load takes the moment
            padded = [(G, np.zeros(6) if A is None else A) for G, A in parts]
        L = np.array([np.hstack([G] if A is None else [G, A]) for G, A in padded])
        sources = sources or [None] * len(fields)
        needed = {source[0] for source in sources if source is not None}
        sums, rows, kept = [], [], {}
        for i, (x, (G, A), (_, A_moment), source) in enumerate(zip(fields, parts, padded, sources)):
            if source is None:
                u = self._gather(x)
                sums.append(self._stress_sum(u, G, A_moment))
                f = self._residual(u, G, A)
            else:
                k, p, s = source
                sums.append(sums[k].reshape(-1, 6)[:, mandel_slots(p)].ravel())
                f = _mirrored(kept[k], self.grid.node_shape, p, s)
            if i in needed:
                kept[i] = f
            rows.append([f @ xj for xj in fields])
        N = np.array(sums) @ L.T + np.array(rows)
        return 0.5 * (N + N.T)

    def _residual(self, u: np.ndarray, G: np.ndarray, A=None) -> np.ndarray:
        """``K x + rhs(G + x3 A)`` from the gathered ``u`` of ``x``: the stiffness and
        the load local vectors added per cell, then one scatter.  The stiffness
        runs the operator's own kernel, as ``matvec`` does."""
        f = self._stiffness_local(u)
        f += self._load_local(G, A)
        return self._to_nodes(f)

    def _stress_sum(self, u: np.ndarray, G: np.ndarray, A=None) -> np.ndarray:
        """``sum_c e_c^T C_c``, then with ``A`` also ``sum_c m_c^T C_c``: the cell
        integrals of the stress of the gathered field ``u`` under ``G + x3 A`` and
        of its first x3 moment (see ``energy_matrix``)."""
        v = self.grid.wq.sum()
        e = self._Bbar @ u + v * G[:, None]
        moments = [e]
        if A is not None:
            e += (v * self._x3c) * A[:, None]
            m = self._x3c * e + self._Btilde @ u
            moments.append(m + (v * self.grid.h[2] ** 2 / 12) * A[:, None])
        return np.concatenate([self._law_sums(m).T.ravel() @ self._laws.reshape(-1, 6)
                               for m in moments])


def _grouped_local(u: np.ndarray, Ke: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Local vectors ``Ke[l] @ u[:, a:b]`` (24, cells) of cells sorted by law, law l
    on the run ``a:b = cuts[l]:cuts[l + 1]``."""
    y = np.empty_like(u)
    for K, a, b in zip(Ke, cuts[:-1], cuts[1:]):
        np.matmul(K, u[:, a:b], out=y[:, a:b])
    return y


def _distinct_laws(cellC: np.ndarray):
    """Distinct cell laws, bit for bit: ``cellC[first[law]]`` equals ``cellC``.

    Laws are numbered by first appearance (``first`` ascends): with no law
    repeated, ``law`` is grid order.  See ``_distinct_rows``.
    """
    return _distinct_rows(cellC.reshape(len(cellC), 36).view(np.uint64))


def _distinct_rows(bits: np.ndarray):
    """``(first, law)`` of ``_distinct_laws`` for laws given as the bit patterns
    (laws, 36) of their entries.  An integer hash of the 36 bit patterns sorts
    several times faster than the 288-byte rows; on a collision the rows
    themselves are sorted.
    """
    _, first, law = np.unique(bits @ _LAW_HASH, return_index=True, return_inverse=True)
    if not np.array_equal(bits[first[law.ravel()]], bits):
        rows = bits.view(np.dtype((np.void, 288))).ravel()
        _, first, law = np.unique(rows, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    return first[by_first], np.argsort(by_first)[law.ravel()]


def invariant_cut(labels: np.ndarray, axes) -> tuple:
    """Slices that cut a grid of law labels to its first cell along each of
    ``axes`` on which no label varies.

    ``labels`` are ``_distinct_laws`` numbers, so equal labels are bitwise
    equal laws and there is no tolerance.  Along such an axis the discrete
    problem is invariant under a one-cell shift, and its minimizer is unique
    under the zero-mean gauge, so it is shift invariant too: constant along
    the axis.  A field constant along an axis has the same energy density on
    any number of cells along it, and on one cell the periodic wrap joins
    the cell's two node planes into one, which leaves exactly the fields
    constant along the axis.  The cut grid therefore has the same minimizer
    and the same energy matrix, to rounding.  Only a periodic axis may be
    passed: a slab's x3 has free faces, where no wrap exists, so its
    fields vary along x3 even when the laws do not.
    """
    return tuple(slice(0, 1) if a in axes and (labels == labels.take([0], axis=a)).all()
                 else slice(None) for a in range(labels.ndim))


def solve_grid_operator(kind: str, shape, cellC: np.ndarray, laws=None) -> ElementOperator:
    """The operator of cell laws ``cellC`` on a grid of this kind and shape, built
    on the grid cut by ``invariant_cut`` along its periodic axes: all three on
    a cell, y1 and y2 on a slab.  Its energy matrix and solves are those of
    the full grid, with fields on the cut grid.

    ``laws`` is ``_distinct_laws(cellC)``, computed here when not given.  The
    cut's law index is the slice of ``law``, with no second pass over the
    laws.  Numbered by first appearance on the full grid, it is numbered so
    on the cut too: a law first appears at a cell whose coordinate is 0 on
    every cut axis (moving there along such an axis keeps the law and lowers
    the flat index), and the cut keeps those cells in their order.
    """
    first, law = _distinct_laws(cellC) if laws is None else laws
    labels = law.reshape(shape)
    cut = invariant_cut(labels, (0, 1, 2) if kind == "cell" else (0, 1))
    sub = labels[cut]
    if sub.size < labels.size:
        cellC = cellC.reshape(*shape, 6, 6)[cut].reshape(-1, 6, 6)
        first, law = np.unique(sub, return_index=True)[1], sub.ravel()
    return ElementOperator(_build_grid(kind, *sub.shape), cellC, laws=(first, law))


# The Mandel slots of the strain components (a, b): 11, 22, 33, 23, 13, 12.
_SLOT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
# ``mandel_slots`` of each of the six axis permutations.
_MANDEL_SLOTS = {p: tuple(_SLOT_PAIRS.index(tuple(sorted((p[a], p[b])))) for a, b in _SLOT_PAIRS)
                 for p in permutations(range(3))}


def mandel_slots(axes) -> list:
    """The Mandel slot permutation ``q`` of the axis permutation ``axes`` (p):
    ``q[slot(a, b)] = slot(p[a], p[b])``.  With axis k of a new frame along
    axis ``p[k]`` of the old one, a strain G reads ``G[..., q]`` and a law C
    reads ``C[q][:, q]``; y1 <-> y2 swaps slots 0 and 1 and slots 3 and 4.  A
    shear slot goes to a shear slot, so its sqrt 2 stays."""
    return list(_MANDEL_SLOTS[tuple(axes)])


def _axis_permutations(grid: Grid) -> list:
    """The permutations of the grid's periodic axes, the identity aside, that
    move each axis onto one of equal length: of all three axes on a cell, of
    y1 and y2 on a slab, whose x3 has free faces."""
    periodic = range(3 if grid.kind == "cell" else 2)
    fixed = tuple(range(len(periodic), 3))
    return [p + fixed for p in permutations(periodic)
            if p != tuple(periodic) and all(grid.shape[a] == grid.shape[b]
                                            for a, b in zip(p, periodic))]


def axis_symmetries(op: ElementOperator) -> tuple:
    """The axis permutations that map the cell laws of ``op`` onto themselves
    up to a periodic shift: pairs ``(p, s)`` with ``np.roll(m[labels.transpose(p)],
    s, axis=(0, 1, 2)) == labels``.  ``labels`` number the cell laws on the
    grid and ``m`` maps each law to the number of its image ``C[q][:, q]``,
    with ``q = mandel_slots(p)``.

    The candidates are ``_axis_permutations``.  Laws are compared by value
    with no tolerance: when some law holds a -0.0, ``+ 0.0`` turns it into
    0.0 and ``_distinct_rows`` numbers the laws again by their bits, since
    fiber-reduced slab laws carry -0.0 in slots that a swap moves.  Each
    image is looked up by its hash among the distinct laws and then compared
    whole: a permutation with an image that is no cell law is out (so is one
    whose image hash collides, which costs only the mirroring), and for the
    others ``_periodic_shift`` looks for the shift.  Only the distinct laws
    are permuted, one permutation at a time.  The label profiles are summed
    once; where ``m`` is the identity, the target's are theirs permuted by p.

    The trilinear element and its quadrature map onto themselves under a
    permutation of axes of equal spacing, so such a pair maps the discrete
    problem of a load G onto that of ``G[..., q]``, a shift along a periodic
    axis changes nothing, and the minimizer is unique under the zero-mean
    gauge: the corrector of ``G[..., q]`` is that of G with its axes and
    components permuted by p and rolled by s (``solve_loads``).
    """
    perms = _axis_permutations(op.grid)
    if not perms:
        return ()
    laws, labels = op._laws, op.law_labels
    if (np.signbit(laws) & (laws == 0.0)).any():
        first, number = _distinct_rows((laws + 0.0).reshape(-1, 36).view(np.uint64))
        laws, labels = laws[first] + 0.0, number[labels]
    hashes = laws.reshape(-1, 36).view(np.uint64) @ _LAW_HASH
    order = np.argsort(hashes)
    labels = labels.reshape(op.grid.shape)
    periodic = 3 if op.grid.kind == "cell" else 2
    weights = _label_weights(len(laws))
    profiles = _profiles(weights[labels])
    found = []
    for p in perms:
        q = mandel_slots(p)
        images = laws[:, q][:, :, q]
        at = np.searchsorted(hashes, images.reshape(-1, 36).view(np.uint64) @ _LAW_HASH,
                             sorter=order)
        m = order[np.minimum(at, len(laws) - 1)]
        if np.array_equal(laws[m], images):
            identity = np.array_equal(m, np.arange(len(m)))
            target = (labels if identity else m[labels]).transpose(p)
            mapped = profiles if identity else _profiles(weights[m][labels])
            s = _periodic_shift(target, labels, periodic, [mapped[a] for a in p], profiles)
            if s is not None:
                found.append((p, s))
    return tuple(found)


def _profiles(w: np.ndarray) -> list:
    """Per axis, the label weights ``w`` of a grid summed over each slice across it."""
    return [w.sum(axis=tuple(b for b in range(3) if b != a)) for a in range(3)]


def _label_weights(n: int) -> np.ndarray:
    """Pseudo-random uint64 weights of the labels 0..n-1, by the splitmix64
    finalizer (products wrap mod 2**64).  ``numpy.random`` is not loaded for
    them: its first import raised the peak memory of a process by 6.4 MiB."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _periodic_shift(target: np.ndarray, labels: np.ndarray, periodic: int, target_profiles,
                    label_profiles):
    """A shift ``s`` with ``np.roll(target, s, axis=(0, 1, 2)) == labels`` of two label
    grids, zero on the axes from ``periodic`` on, or None.

    The candidates along each axis come from the ``_profiles`` of the grids'
    random uint64 label weights (``_label_weights``): the target's profile
    compared with that of ``labels`` under all rotations at once.  Their
    products are filtered on 8 anchor cells spread over the grid and then
    checked on the whole grid in turn, so that profiles that match under
    every rotation (a diagonal pattern, whose slices all hold the same
    labels) cost no whole-grid check per candidate.
    """
    candidates = []
    for a, (n, pt, pl) in enumerate(zip(labels.shape, target_profiles, label_profiles)):
        rolls = np.arange(n if a < periodic else 1)
        rotated = pt[(np.arange(n) - rolls[:, None]) % n]     # row s: np.roll(pt, s)
        candidates.append(rolls[(rotated == pl).all(axis=1)])
    shifts = np.array(list(product(*candidates)), dtype=int).reshape(-1, 3)
    anchors = np.array(np.unravel_index(np.arange(0, labels.size, -(-labels.size // 8)),
                                        labels.shape))
    at = (anchors[:, :, None] + shifts.T[:, None, :]) % np.array(labels.shape)[:, None, None]
    hits = (labels[tuple(at)] == target[tuple(anchors)][:, None]).all(axis=0)
    for s in shifts[hits]:
        if np.array_equal(_roll(target, s), labels):
            return tuple(int(k) for k in s)
    return None


def _roll(a: np.ndarray, s) -> np.ndarray:
    """``np.roll(a, s, axis=(0, 1, 2))`` for ``0 <= s < n`` by a concatenation per shifted
    axis (``a`` itself if none): 0.4-0.7x its time up to 10^3 nodes, 0.8x at 32^3."""
    for axis, k in enumerate(s):
        if k:
            lead = (slice(None),) * axis
            a = np.concatenate((a[lead + (slice(-k, None),)], a[lead + (slice(None, -k),)]), axis)
    return a


def _law_basis(laws: np.ndarray):
    """Coefficients (nlaws, r) and basis laws (r, 6, 6) with ``laws = a @ basis``,
    or None when the laws need more than ``LAW_RANK`` of them.

    On the distinct laws: a repeated row stays equal to its copies through
    every step.  The basis is an orthonormal one of the row space of the
    (nlaws, 36) law matrix, built by Gram-Schmidt with pivoting: each step
    takes the law with the largest remainder, orthogonalizes it once more
    against the basis and projects it out of every law (a QR factorization
    of the transpose with column pivoting).  The rank r counts the steps
    whose pivot exceeds 1e-13 of the first, an estimate of the singular
    values above that cut that does not depend on the data's scale.  The
    basis is taken only if it rebuilds every law to 1e-14 of that law's own
    largest entry, which guards the soft cells of a high-contrast material.
    It needs only BLAS: a LAPACK QR and SVD of the law matrix gave the same
    ranks but raised the peak memory of a process by about 0.5 MiB, the
    first use of their code.
    """
    flat = laws.reshape(len(laws), 36)
    top = np.abs(flat).max()
    if not (np.isfinite(top) and top > 0.0):
        return None
    rest = flat / top                     # unit scale: no squared norm overflows
    V = np.empty((0, 36))
    norms = np.einsum("ij,ij->i", rest, rest)
    cut = 1e-26 * norms.max()             # pivots under 1e-13 of the first
    while norms.max() > cut:
        if len(V) == LAW_RANK:
            return None
        q = rest[np.argmax(norms)]
        q = q - (V @ q) @ V
        q /= np.sqrt(q @ q)
        rest -= np.outer(rest @ q, q)
        V = np.vstack([V, q])
        norms = np.einsum("ij,ij->i", rest, rest)
    a = flat @ V.T
    if np.any(np.abs(a @ V - flat).max(axis=1) > 1e-14 * np.abs(flat).max(axis=1)):
        return None
    return a, V.reshape(-1, 6, 6)


def _element_matrix(grid: Grid, C: np.ndarray) -> np.ndarray:
    """Element stiffness ``sum_q w_q B_q^T C B_q`` (..., 24, 24) of laws C (..., 6, 6),
    from the stacked quadrature's products, symmetrized to the last bit."""
    wB = (grid.wq[:, None, None] * grid.B).reshape(48, 24)
    Ke = wB.T @ (C[..., None, :, :] @ grid.B).reshape(*C.shape[:-2], 48, 24)
    return 0.5 * (Ke + Ke.swapaxes(-1, -2))


def _pair_offsets(k: int) -> np.ndarray:
    """Flat index in {-1, 0, 1}^k, shifted to {0, 1, 2}^k, of the offset ``d_c - d_a``
    of each node pair (a, c) on k periodic axes, a-major: ``np.add.at`` adds in
    this order, the order of a loop over a and then c."""
    d = np.array(list(product((0, 1), repeat=k)))
    return np.ravel_multi_index((d - d[:, None] + 1).reshape(-1, k).T, (3,) * k)


# ``_pair_offsets`` of the cell (3 periodic axes) and the slab (2).
_PAIR_OFFSETS = {k: _pair_offsets(k) for k in (2, 3)}


def _symbol(Ke: np.ndarray, ns, ms) -> np.ndarray:
    """Element matrix summed over node offset pairs with their phases.

    On the k periodic axes (the leading bits of the local node order) two
    nodes of an element differ by an offset ``delta`` in {-1, 0, 1}^k, and
    the pair carries the phase ``exp(2 pi i sum_k xi_k delta_k / n_k)``.  The
    ``Ke`` blocks are summed once per offset, by one ``np.add.at`` over the
    offsets ``_PAIR_OFFSETS`` of the node pairs, then contracted one axis at
    a time with a 1-D phase table.  ``ns`` are the periods and ``ms`` the
    wavevector counts of the axes (``n // 2 + 1`` on a half-spectrum axis).
    Each of the p = 2**k node positions carries a block of b = 24 / p local
    dofs, so the symbol is (*ms, b, b).
    """
    k = len(ns)
    p = 2 ** k
    b = 24 // p
    S = np.zeros((3 ** k, b, b))
    np.add.at(S, _PAIR_OFFSETS[k], Ke.reshape(p, b, p, b).swapaxes(1, 2).reshape(p * p, b, b))
    S = S.reshape((3,) * k + (b, b))
    for axis in reversed(range(k)):
        table = _dft_table(ns[axis], np.arange(ms[axis]), (1, 0, -1))
        S = np.moveaxis(np.tensordot(table, S, axes=(1, axis)), 0, axis)
    return S


def _dft_table(n: int, k, j) -> np.ndarray:
    """``exp(-2 pi i k j / n)`` for integer arrays ``k`` (rows) and ``j`` (columns),
    with every angle taken from ``(k j) mod n``: an unreduced ``k j`` loses about
    a decade of accuracy on tables of 48 points."""
    return np.exp(-2j * np.pi / n * (np.outer(k, j) % n))


def _real_dft(n: int):
    """Real tables of the half-spectrum DFT along an axis of n points.

    ``(x.reshape(-1, n) @ R).view(complex)`` is ``rfft(x)``: R (n, 2m), m = n //
    2 + 1, interleaves the cosines and minus the sines.  ``(X.view(float) @
    Rinv)`` is ``irfft(X, n)``: Rinv (2m, n) carries the Hermitian weights 1,
    2, ..., 2, 1 (a last 2 for odd n) and the 1/n.
    """
    m = n // 2 + 1
    E = _dft_table(n, np.arange(n), np.arange(m))
    weights = np.full(m, 2.0 / n)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    D = weights[:, None] * E.T.conj()
    return E.view(float), np.stack([D.real, -D.imag], axis=1).reshape(2 * m, n)


def _spectrum(ns) -> tuple:
    """Wavevectors per periodic axis of periods ``ns``: ``n // 2 + 1`` on the last
    axis longer than one cell, n on the others."""
    last = max((a for a, n in enumerate(ns) if n > 1), default=None)
    return tuple(n // 2 + 1 if a == last else n for a, n in enumerate(ns))


def _dft_tables(ns):
    """``(dims, real, fwd, bwd)``: the lengths ``dims`` of the axes of ``ns`` longer
    than one cell ([1] if none), the ``_real_dft`` tables of the last, and the
    complex tables F of the others as the ``_dft_pass`` passes of the forward
    and (``conj(F) / n``) the inverse transform."""
    dims = [n for n in ns if n > 1] or [1]
    tables = [(prod(dims[:i]), _dft_table(n, np.arange(n), np.arange(n)))
              for i, n in enumerate(dims[:-1])]
    return (dims, _real_dft(dims[-1]), [(b, F) for b, F in reversed(tables)],
            [(b, F.conj() / len(F)) for b, F in tables])


def _dft_pass(y: np.ndarray, passes, lead: int) -> np.ndarray:
    """``F @ y`` over (lead * b, n, rest) for each pass ``(b, F)`` in turn, b the
    points before F's axis."""
    for b, F in passes:
        y = F @ y.reshape(lead * b, len(F), -1)
    return y


def _bmv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component-major batched matrix-vector product: ``A`` (..., 3, 3, F) times
    ``v`` (..., 3, F), one 3x3 block per trailing index f."""
    return (A * v[..., None, :, :]).sum(axis=-2)


def preconditioner_form(kind: str, shape) -> str:
    """Apply form of ``reference_inverse`` on a grid of this kind and shape, from
    the shape alone: "cell", or on a slab "slab-dense" when the stored inverse,
    F (3 nplanes)^2 complex numbers for F wavevectors (``_spectrum``), fits in
    ``SLAB_DENSE_BYTES``, else "slab-sweep"."""
    if kind == "cell":
        return "cell"
    n1, n2, n3 = shape
    dense_bytes = prod(_spectrum((n1, n2))) * (3 * (n3 + 1)) ** 2 * 16
    return "slab-dense" if dense_bytes <= SLAB_DENSE_BYTES else "slab-sweep"


def reference_inverse(grid: Grid, Ke: np.ndarray):
    """Pseudo-inverse of the stiffness of a constant law C0 on ``grid``, from its
    element matrix ``Ke = _element_matrix(grid, C0)``.

    Returns ``apply(r)``, the zero-mean ``z`` with ``K0 z = r`` for any
    ``r`` orthogonal to the rigid translations.  It stores O(ndofs)
    numbers and the DFT tables, about n^2 per axis.  The symbol of ``K0``
    per wavevector comes from ``_symbol`` by sum factorization, O(wavevectors)
    work with no per-wavevector phase table.

    Every transform is a product with DFT tables built here once
    (``_dft_tables``), along the periodic axes longer than one cell: an axis
    of one cell has the zero wavevector alone and takes no table.  The real
    (n, 2 m) table of the last such axis gives the half spectrum, its real
    and imaginary parts interleaved, and each other one takes a complex (n,
    n) table applied as ``F @ y`` over the leading axes (``_dft_pass``).  The
    inverse runs the same tables back in reverse order, the 1/n in each
    table and the Hermitian weights in the real one.  It is the discrete
    Fourier transform of ``numpy.fft`` up to rounding, with no fixed cost
    per grid line.  The symbol is built on those wavevectors alone
    (``_spectrum``): a column cut to n1 x n2 x 1 runs a 2-D transform on n1
    (n2 // 2 + 1) blocks, a laminate cut to 1 x 1 x n3 a 1-D one, and a 1 x
    1 x 1 cell applies zero.  Per cell apply, one BLAS thread, against tables
    on every axis: 20 against 26 us on 10x10x1, 21 against 31 on 12x12x1, 60
    against 151 on 32x32x1, 8 against 13 on 1x1x16.

    Cell grid: one 3x3 block per wavevector, in grid axis order, the zero
    mode (the translations) mapped to 0.  ``apply`` transposes the nodal
    vector to one scalar field per component: the real table, then the
    complex ones, last axis first.  The symbol is real symmetric: the
    trilinear element is point symmetric, ``Ke[7 - a, 7 - b] = Ke[a, b]``,
    so the blocks summed per node offset are even, equal at ``delta`` and
    ``-delta``, and the phases pair into cosines.  Its imaginary part is
    rounding (under 1e-16 of the real part on 8^3 to 32^3 grids), so the
    inverse is stored real, (3, 3, wavevectors), component axes first: a
    block product is one broadcast multiply and a sum over three columns for
    all wavevectors (``_bmv``).

    Slab grid: per in-plane wavevector, a Hermitian block-tridiagonal system
    over the node planes, factored once by block elimination
    (``_slab_factors``: the inverse Schur complements ``Sinv`` and the
    multipliers ``W = Sinv U``); at the zero wavevector node plane 0 is
    grounded and the mean is projected out of the input and the result.  The
    forward transform reads the node-major vector as (n1, n2, 3 planes),
    with no transposed copy: the real table as one batched product ``R^T
    @``, one reorder of its real and imaginary rows into complex values,
    then, when n1 and n2 both exceed 1, F1 as one complex product over (n1,
    m2 3 planes).  That leaves the data wavevector-major, (F, 3 planes) with
    F the in-plane wavevectors in the order of the symbol, the zero
    wavevector first.  The backward transform mirrors it.  Point symmetry
    swaps the two node planes of a layer, so within one block it pairs no
    in-plane offset ``delta`` with ``-delta``: the slab symbol is complex,
    an isotropic law's included, and the factors stay complex (see
    ``_slab_sweep`` for their layout and solve).

    The factors are the only factorization; the slab apply takes one of
    two forms (``preconditioner_form``, from the shape alone):

    - "slab-dense", when the inverse, F (3 planes)^2 complex numbers,
      fits in ``SLAB_DENSE_BYTES``: the inverse is built once from the
      factors, the sweep's own steps on the identity with one node
      plane's block row of every column per batched product
      (``_slab_dense``), and kept (F, 3 planes, 3 planes), the layout of
      the transformed data.  An apply is the forward transform, one
      batched ``np.matmul`` and the backward transform.  It agrees with
      the sweep to rounding (under 5e-16 of the result on 1x1x1 to
      12x12x6 grids).
    - "slab-sweep" otherwise: every apply transposes the transformed
      data once to component-major, runs the solve, 2 planes + 1 block
      products in sequence, and transposes back; it stores only the
      factors.

    Dense against sweep, for the build from the factors plus 120 applies (6
    loads at about 20 iterations), medians of 9 alternated pairs, one BLAS
    thread: 0.39-0.86 on 8 grids of 0.14-1.95 MiB (8x8x4 to 12x12x12), 1.00
    on 16x16x12 (3.34 MiB), 1.12 on 24x24x12 (7.24) and 1.34 on 32x32x16
    (21.6).  Hence ``SLAB_DENSE_BYTES`` = 1 MiB.  At these sizes the sweep
    is bound by the overhead of its calls; the dense form lost mostly on
    thin wide slabs, where many wavevectors cost the batched product more
    than a few planes cost the sweep.
    """
    n1, n2, n3 = grid.shape
    periodic = grid.shape if grid.kind == "cell" else (n1, n2)
    symbol = _symbol(Ke, periodic, _spectrum(periodic))
    dims, (R, Rinv), fwd, bwd = _dft_tables(periodic)
    before, m = prod(dims[:-1]), dims[-1] // 2 + 1
    if grid.kind == "cell":
        K = symbol.real.reshape(-1, 3, 3)
        K[0] = np.eye(3)
        Kinv = np.linalg.inv(K)
        Kinv[0] = 0.0
        Kinv = np.ascontiguousarray(Kinv.transpose(1, 2, 0))

        def apply(r):
            fields = np.ascontiguousarray(r.reshape(-1, 3).T).reshape(-1, dims[-1])
            y = _dft_pass((fields @ R).view(complex), fwd, 3)
            z = _dft_pass(_bmv(Kinv, y.reshape(3, -1)), bwd, 3)
            return (z.view(float).reshape(-1, 2 * m) @ Rinv).reshape(3, -1).T.reshape(r.shape)

        return apply

    nplanes = n3 + 1
    n = 3 * nplanes
    Sinv, W = _slab_factors(symbol, n3)

    def forward(r):
        y = R.T @ r.reshape(before, dims[-1], n)   # (before, 2 m, n): real and imaginary rows
        Y = np.empty((before, m, n), dtype=complex)
        Y.real, Y.imag = y[:, 0::2], y[:, 1::2]
        return _dft_pass(Y, fwd, 1).reshape(-1, n)

    def backward(z, shape):
        z = _dft_pass(z, bwd, 1).view(float).reshape(before, m, n, 2)
        return (Rinv.T @ z.transpose(0, 1, 3, 2).reshape(before, 2 * m, n)).reshape(shape)

    if preconditioner_form(grid.kind, grid.shape) == "slab-sweep":
        solve = _slab_sweep(Sinv, W)

        def apply(r):
            z = solve(np.ascontiguousarray(forward(r).T).reshape(nplanes, 3, -1))
            return backward(np.ascontiguousarray(z.reshape(n, -1).T), r.shape)

        return apply

    Minv = _slab_dense(Sinv, W)
    return lambda r: backward(np.matmul(Minv, forward(r)[:, :, None]), r.shape)


def _slab_factors(E: np.ndarray, n3: int):
    """Block elimination of the slab systems of the in-plane symbol ``E`` (n1, m2,
    6, 6) on n3 layers: the inverse Schur complements ``Sinv`` (planes, F, 3, 3)
    and the multipliers ``W = Sinv U`` (n3, F, 3, 3), F the in-plane wavevectors.
    At the zero wavevector node plane 0 is grounded: its ``Sinv`` is 0."""
    E = E.reshape(-1, 2, 3, 2, 3)
    bottom, top = E[:, 0, :, 0], E[:, 1, :, 1]   # a layer's blocks on its two node planes
    U = E[:, 0, :, 1]                            # plane k to plane k + 1, the same in every layer
    Sinv = np.empty((n3 + 1, len(E), 3, 3), dtype=complex)
    W = np.empty((n3, len(E), 3, 3), dtype=complex)
    for k in range(n3 + 1):
        S = (bottom if k < n3 else 0.0) + (top if k > 0 else 0.0)
        if k == 0:
            S[0] = np.eye(3)
        else:
            S -= U.conj().swapaxes(1, 2) @ W[k - 1]
        Sinv[k] = np.linalg.inv(S)
        if k == 0:
            Sinv[0, 0] = 0.0
        if k < n3:
            W[k] = Sinv[k] @ U
    return Sinv, W


def _slab_sweep(Sinv: np.ndarray, W: np.ndarray):
    """``solve(y)``: the block sweep of the factors of ``_slab_factors`` on
    transformed data ``y`` (..., planes, 3, F), in place, with the
    zero-wavevector mean projections.  The factors are stored component-major,
    (..., 3, 3, F), with ``W^H`` for the forward sweep."""
    n3 = len(W)
    Sinv, W, Wh = (np.ascontiguousarray(a.transpose(0, 2, 3, 1))
                   for a in (Sinv, W, W.conj().swapaxes(2, 3)))

    def solve(y):
        y[..., 0] -= y[..., 0].mean(axis=-2, keepdims=True)   # zero wavevector: no translations
        for k in range(1, n3 + 1):
            y[..., k, :, :] -= _bmv(Wh[k - 1], y[..., k - 1, :, :])
        z = _bmv(Sinv, y)
        for k in range(n3 - 1, -1, -1):
            z[..., k, :, :] -= _bmv(W[k], z[..., k + 1, :, :])
        z[..., 0] -= z[..., 0].mean(axis=-2, keepdims=True)
        return z

    return solve


def _slab_dense(Sinv: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The inverse that the sweep of the same factors applies, stored (F, 3
    planes, 3 planes): the sweep run on the identity one block row of a node
    plane at a time, each step one batched product for every column at once.
    Forward, the rows of ``L^-1``: ``Y_0 = I_0`` and ``Y_k = I_k - W_k-1^H
    Y_k-1``, nonzero only left of the diagonal block; then ``M_n3 = Sinv_n3
    Y_n3`` and back, ``M_k = Sinv_k Y_k - W_k M_k+1``.  At the zero wavevector
    the mean projection P is applied on both sides, ``P M P``."""
    nplanes, F = Sinv.shape[:2]
    n = 3 * nplanes
    Y = np.zeros((nplanes, F, 3, n), dtype=complex)
    Y[np.arange(n) // 3, :, np.arange(n) % 3, np.arange(n)] = 1.0
    for k in range(1, nplanes):
        Y[k, :, :, :3 * k] -= W[k - 1].conj().swapaxes(1, 2) @ Y[k - 1, :, :, :3 * k]
    M = Sinv @ Y
    for k in range(nplanes - 2, -1, -1):
        M[k] -= W[k] @ M[k + 1]
    M = M.transpose(1, 0, 2, 3).reshape(F, nplanes, 3, nplanes, 3)
    M0 = M[0]
    M0 -= M0.mean(axis=0, keepdims=True)
    M0 -= M0.mean(axis=2, keepdims=True)
    return M.reshape(F, n, n)


def iteration_cap(ndofs: int) -> int:
    """Default conjugate-gradient iteration budget for a problem size."""
    return max(200, int(100 * ndofs ** (1.0 / 3.0)))


def conjugate_gradient(op: ElementOperator, b: np.ndarray, tol: float,
                       noise_floor: float = 0.0):
    """CG on the singular-consistent stiffness system, preconditioned by
    ``op.precondition``.

    The operator kernel is the hot path; everything here is cheap vector
    arithmetic.  Starting from zero keeps the iterates orthogonal to the
    rigid translations (the load and the preconditioned residuals are
    too), so no explicit gauge is needed during the iteration.  ``A p`` is
    ``op.matvec(p)``, or with the majority reference ``op.split_product(p,
    K0 p)``: ``K0 p`` is kept by the recurrence ``K0 p = r + beta K0
    p_prev``, exact since ``p = z + beta p_prev`` and ``K0 z = r``; the
    true residual matched the reported one to three digits over solves of
    up to 210 iterations.  The
    stopping test is on the unpreconditioned relative residual, so
    ``tol`` means the same as for plain CG.  ``noise_floor`` is an
    absolute norm below which load or residual count as
    assembled-to-zero (see ``ElementOperator.rhs_noise_floor``): loads
    under it get the zero corrector, and a residual under it ends the
    solve as converged, before a breakdown there.  Returns ``(x,
    iterations, residual_history)`` with relative residuals; raises
    SolverError with the history on breakdown, divergence, stagnation
    (no new residual minimum in ``STALL_ITERATIONS`` iterations), the
    iteration cap (``iteration_cap``), or a load or noise floor that is
    not finite.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    maxiter = iteration_cap(b.size)
    with np.errstate(over="ignore"):
        bnorm = sqrt(b @ b)
    if not (np.isfinite(bnorm) and np.isfinite(noise_floor)):
        raise SolverError(f"load is not finite (norm {bnorm:.3e}, noise floor {noise_floor:.3e}): "
                          "the material or load overflows double precision")
    if bnorm <= noise_floor:
        return np.zeros_like(b), 0, (0.0,)
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = bnorm
    z = op.precondition(r)
    p = z.copy()
    K0p = r.copy() if op.reference.name == MAJORITY_REFERENCE else None
    rz = float(r @ z)
    step = np.empty_like(r)          # alpha p and alpha Ap, in place
    history = []
    best, best_it = np.inf, 0
    for it in range(1, maxiter + 1):
        Ap = op.matvec(p) if K0p is None else op.split_product(p, K0p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # Krylov direction fell into the numerical nullspace above the
            # noise floor: a residual at the floor has returned already
            raise SolverError(
                f"conjugate gradients broke down at iteration {it} "
                f"(direction energy {pAp:.3e}, residual {rnorm:.3e})",
                residuals=history,
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Ap, out=step)
        rnorm = sqrt(r @ r)
        rel = rnorm / bnorm
        history.append(rel)
        if rel <= tol or rnorm <= noise_floor:
            return x, it, tuple(history)
        if not np.isfinite(rel) or rel > 1e8:
            raise SolverError(
                f"conjugate gradients diverged (residual {rel:.3e} at iteration {it})",
                residuals=history,
            )
        if rel < 0.999 * best:
            best, best_it = rel, it
        elif it - best_it >= STALL_ITERATIONS:
            raise SolverError(
                f"conjugate gradients stalled at residual {min(history):.3e}, short of "
                f"tol={tol:g}: no new minimum in the last {STALL_ITERATIONS} iterations",
                residuals=history,
            )
        z = op.precondition(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        p *= beta
        p += z
        if K0p is not None:          # K0 p = r + beta K0 p_prev, since K0 z = r
            K0p *= beta
            K0p += r
        rz = rz_next
    raise SolverError(
        f"conjugate gradients did not reach tol={tol:g} in {maxiter} iterations "
        f"(last residual {history[-1]:.3e})",
        residuals=history,
    )


def subtract_nodal_mean(x: np.ndarray, nnodes: int) -> np.ndarray:
    """Zero-mean gauge: remove the average of each displacement component."""
    x2 = x.reshape(nnodes, 3)
    return (x2 - x2.mean(axis=0)).ravel()


@dataclass(frozen=True, eq=False)
class CorrectorField:
    """One load's nodal corrector on the full node grid, zero mean per component:
    (n1, n2, n3, 3) on a cell, (n1, n2, n3 + 1, 3) on a slab.  ``values`` is the
    solve grid's field tiled along the axes that ``solve_grid_operator`` cut, a
    read-only view, constant along them, with the cut field's mean."""

    values: np.ndarray
    iterations: int
    residuals: tuple = field(repr=False, default=())

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


class LoadSolve(NamedTuple):
    """How ``solve_loads`` got one load's corrector: CG's iterations and relative
    residual history, or for a load mirrored from a solved one, 0 iterations,
    that load's history and ``source = (i, p, s)``: load i, axis permutation
    p and shift s (``axis_symmetries``)."""

    iterations: int
    residuals: tuple
    source: tuple | None = None


def _load_key(g: np.ndarray) -> tuple:
    """A dict key of a load's value: its shape and bytes, -0.0 read as 0.0."""
    return g.shape, (g + 0.0).tobytes()


def _mirrored(x: np.ndarray, node_shape, p, s) -> np.ndarray:
    """The flat nodal field ``x`` with its axes and components permuted by ``p``
    and rolled by ``s`` on the node grid, a copy."""
    return _roll(x.reshape(*node_shape, 3).transpose(*p, 3)[..., list(p)], s).reshape(-1)


def solve_loads(op: ElementOperator, loads, tol: float):
    """Correctors and energy matrix of a set of load strains.

    Each load (a Mandel 6-vector G, or on a slab a (2, 6) pair (G, A) for
    the strain ``G + x3 A``) gets the minimizer ``x_i`` of the energy of
    ``B x + G_i + x3 A_i``: CG on ``K x = -rhs(load_i)`` with the load's
    noise floor, then the zero-mean gauge.  A load equal to ``loads[i][...,
    q]`` of a solved load i, with ``q = mandel_slots(p)`` for an axis
    symmetry ``(p, s)`` of ``op`` (``axis_symmetries``), is not solved: its
    field is ``x_i`` permuted and rolled on the node grid (``_mirrored``),
    the same minimizer to rounding, with the zero mean kept.  The
    symmetries are looked for only when some load is such an image of
    another, so a single load pays nothing.  Returns ``(fields, N, solves)``
    with ``N`` from ``op.energy_matrix`` on all the fields and the loads'
    sources, so a mirrored load's energy row is mirrored too, and
    ``solves[i]`` a ``LoadSolve``.
    """
    loads = [np.asarray(g, dtype=float) for g in loads]
    for gload in loads:
        op._load_parts(gload)       # a load of the wrong shape is refused before any solve
    keys = [_load_key(g) for g in loads]
    slots = [mandel_slots(p) for p in _axis_permutations(op.grid)]
    counts = Counter(keys)
    mirrored = any(counts[image := _load_key(g[..., q])] > (image == key)  # another load's
                   for g, key in zip(loads, keys) for q in slots)
    symmetries = axis_symmetries(op) if mirrored else ()
    fields, solves, images = [], [], {}
    for gload, key in zip(loads, keys):
        if key in images:
            i, p, s = images[key]
            fields.append(_mirrored(fields[i], op.grid.node_shape, p, s))
            solves.append(LoadSolve(0, solves[i].residuals, images[key]))
            continue
        b = -op.rhs(gload)
        with np.errstate(over="ignore"):      # an overflowing load is refused by CG
            floor = op.rhs_noise_floor(gload)
        x, iters, hist = conjugate_gradient(op, b, tol, noise_floor=floor)
        fields.append(subtract_nodal_mean(x, op.grid.nnodes))
        solves.append(LoadSolve(iters, hist))
        for p, s in symmetries:
            images.setdefault(_load_key(gload[..., mandel_slots(p)]), (len(fields) - 1, p, s))
    return fields, op.energy_matrix(fields, loads, [s.source for s in solves]), solves


def solver_diagnostics(op: ElementOperator, tol: float, labels, solves) -> dict:
    """The solver block of both regimes' reports: the forms of ``op`` and one
    entry per ``LoadSolve`` of ``solve_loads``, its load named by ``labels``; a
    mirrored load names its source load, permutation and shift under "from"."""
    labels = list(labels)
    entries = []
    for label, (iterations, hist, source) in zip(labels, solves):
        entry = {"load": label, "iterations": iterations, "residual": hist[-1] if hist else 0.0}
        if source is not None:
            i, p, s = source
            entry["from"] = {"load": labels[i], "axes": list(p), "shift": list(s)}
        entries.append(entry)
    return {
        "tol": tol,
        "quadrature": "gauss-2x2x2",
        "preconditioner": op.reference.name,
        "preconditioner_form": op.preconditioner_form,
        "cell_laws": op.cell_laws,
        "stiffness": op.stiffness,
        "law_rank": op.law_rank,
        "solves": entries,
    }
