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
is grouped, one 24x24 element matrix per distinct cell law, when a law
covers at least ``LAW_CELLS`` cells on average, and stacked otherwise:
all 8 quadrature points in 48-row products around one 6x6 law per cell.

The energy matrix of solved correctors is ``N_ij = f_i . x_j + T_ij``: the
true residual ``f_i = K x_i + rhs(G_i)``, one matvec per load, plus a load
term.  For loads constant per cell the load term needs only the cell-mean
total strain ``Bbar u_c + v G_i`` (``Bbar = sum_q w_q B_q``, v the cell
volume), formed per cell before the law is applied, so no quadrature-point
field is built and no large terms cancel; the right-hand side of such a
load is ``(C_c G) @ Bbar`` per cell.

Corrector solves run conjugate gradients preconditioned by the exact
inverse of the stiffness of one constant reference law C0 (the cell mean
of the material) on the same grid.  Every grid is periodic in plane, so
that operator is block-circulant and an FFT diagonalizes it: one 3x3
block per wavevector on a cell grid, one block-tridiagonal system over
the node planes per in-plane wavevector on a slab grid (Moulinec &
Suquet 1998; Zeman, Vondrejc, Novak & Marek 2010).  The symbol of that
operator is built by sum factorization: element blocks summed per node
offset, then one 1-D phase table per axis.  The iteration count
then depends on the contrast of C against C0, not on the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .core import SQRT2
from .errors import SolverError

GAUSS_OFFSET = 0.5 / np.sqrt(3.0)
GAUSS_POINTS = (0.5 - GAUSS_OFFSET, 0.5 + GAUSS_OFFSET)

# ``matvec`` takes the grouped form when a law covers at least this many cells
# on average: both forms cost the same at 6-8 cells per law on 256-4096 cells.
LAW_CELLS = 8

_NODE = np.dtype((np.void, 24))      # a node's three components, gathered as one item
# Odd multipliers of the law hash in ``_distinct_laws`` (products wrap mod 2**64).
_LAW_HASH = np.arange(1, 73, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

# Reported as ``diagnostics.preconditioner`` by both regime pipelines.
PRECONDITIONER = "fft-reference-mean"

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
    B = np.zeros((8, 6, 24))
    for qi, (x0, x1, x2) in enumerate(product(GAUSS_POINTS, repeat=3)):
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
            B[qi, 3, col + 1] = g2 / SQRT2
            B[qi, 3, col + 2] = g1 / SQRT2
            B[qi, 4, col + 0] = g2 / SQRT2
            B[qi, 4, col + 2] = g0 / SQRT2
            B[qi, 5, col + 0] = g1 / SQRT2
            B[qi, 5, col + 1] = g0 / SQRT2
    return B


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
    x3q: np.ndarray | None = None   # (ncells, 8) thickness coordinate, slab only

    @property
    def ncells(self) -> int:
        return self.idx.shape[0]

    @property
    def nnodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def ndofs(self) -> int:
        return 3 * self.nnodes


def _build_grid(kind: str, n1: int, n2: int, n3: int) -> Grid:
    if min(n1, n2, n3) < 1:
        raise ValueError("grid sizes must be at least 1 per axis")
    h = (1.0 / n1, 1.0 / n2, 1.0 / n3)
    m3 = n3 if kind == "cell" else n3 + 1      # node planes across the thickness
    i, j, k = np.meshgrid(np.arange(n1), np.arange(n2), np.arange(n3), indexing="ij")
    idx = np.empty((n1 * n2 * n3, 8), dtype=np.int64)
    for a, (da, db, dc) in enumerate(product((0, 1), repeat=3)):
        idx[:, a] = (((i + da) % n1) * n2 * m3 + ((j + db) % n2) * m3 + (k + dc) % m3).ravel()
    x3q = None
    if kind == "slab":
        x3q = np.empty((n1 * n2 * n3, 8))
        for qi, (_, _, x2) in enumerate(product(GAUSS_POINTS, repeat=3)):
            x3q[:, qi] = -0.5 + (k.ravel() + x2) * h[2]
    return Grid(kind=kind, shape=(n1, n2, n3), node_shape=(n1, n2, m3), idx=idx,
                B=build_b_matrices(h), wq=np.full(8, h[0] * h[1] * h[2] / 8.0), h=h, x3q=x3q)


def build_cell_grid(n1: int, n2: int, n3: int) -> Grid:
    """Fully periodic unit-cell grid with n1*n2*n3 cells (= nodes)."""
    return _build_grid("cell", n1, n2, n3)


def build_slab_grid(n1: int, n2: int, n3: int) -> Grid:
    """Slab grid: periodic in the two in-plane axes, free across thickness.

    Axis order is (y1, y2, x3); the thickness axis has ``n3`` cells and
    ``n3 + 1`` node planes over ``[-1/2, 1/2]``.
    """
    return _build_grid("slab", n1, n2, n3)


class ElementOperator:
    """Stiffness operator ``K = sum_c sum_q w_q B_q^T C_c B_q`` plus
    the load/energy helpers built from the same quadrature."""

    def __init__(self, grid: Grid, cellC: np.ndarray):
        cellC = np.ascontiguousarray(cellC, dtype=float)
        if cellC.shape != (grid.ncells, 6, 6):
            raise ValueError(
                f"material array must be ({grid.ncells}, 6, 6), got {cellC.shape}"
            )
        self.grid = grid
        self.cellC = cellC
        self._reference = None
        self._Bbar = np.einsum("q,qij->ij", grid.wq, grid.B)   # cell integral of B
        first, law = _distinct_laws(cellC)
        self.cell_laws = len(first)
        self._idx, self._Ke = grid.idx, None
        if LAW_CELLS * self.cell_laws <= grid.ncells:
            self._idx = grid.idx[np.argsort(law, kind="stable")]
            self._cuts = np.concatenate(([0], np.cumsum(np.bincount(law))))
            self._laws = cellC[first]
            self._Ke = _element_matrix(grid, self._laws)

    def _gather(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Per-cell local dof vectors (ncells, 24) of a nodal field, cells as in ``idx``."""
        nodes = np.ascontiguousarray(x, dtype=float).reshape(-1).view(_NODE)
        return nodes.take(idx).view(float).reshape(len(idx), 24)

    def _to_nodes(self, ylocal: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Scatter-add per-cell local vectors (ncells, 24), cells as in ``idx``, into nodes."""
        nodes = idx.ravel()
        y = ylocal.reshape(-1, 3)
        return np.stack([np.bincount(nodes, weights=y[:, m], minlength=self.grid.nnodes)
                         for m in range(3)], axis=1).ravel()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``K x``: gather, a few large products, scatter-add.

        Grouped form, taken when ``LAW_CELLS * cell_laws <= ncells``:
        cells sorted by law, one ``(cells of law l, 24) @ Ke_l`` product
        per law.  Stacked form otherwise: strains ``u @ B^T`` (24 x 48)
        at all 8 points at once, one batched ``(8, 6) @ C_c^T`` per
        cell, then ``@ w B`` (48 x 24).
        """
        u = self._gather(x, self._idx)
        if self._Ke is None:
            g = (u @ self.grid.B.reshape(48, 24).T).reshape(self.grid.ncells, 8, 6)
            return self._assemble(self.cellC, self.grid.B, g).reshape(x.shape)
        y = np.empty_like(u)
        for Ke, a, b in zip(self._Ke, self._cuts[:-1], self._cuts[1:]):
            np.matmul(u[a:b], Ke, out=y[a:b])
        return self._to_nodes(y, self._idx).reshape(x.shape)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Zero-mean solution of ``K0 z = r`` for the reference law C0.

        C0 is the cell mean of the material, SPD whenever every cell law
        is.  The FFT inverse is built on first use, so an operator whose
        loads are all below their noise floor never builds it.
        """
        if self._reference is None:
            self._reference = reference_inverse(self.grid, self.cellC.mean(axis=0))
        return self._reference(r)

    def _load_field(self, gload) -> np.ndarray:
        """Broadcast a load strain to (ncells, 8, 6)."""
        g = np.asarray(gload, dtype=float)
        if g.shape == (6,):
            return np.broadcast_to(g, (self.grid.ncells, 8, 6))
        if g.shape == (self.grid.ncells, 8, 6):
            return g
        raise ValueError(f"load strain must have shape (6,) or (ncells, 8, 6), got {g.shape}")

    def _assemble(self, cellC, B, g) -> np.ndarray:
        """Nodal vector ``y[v] = sum w_q (B_q v)^T cellC_c g(c, q)``."""
        s = g @ cellC.transpose(0, 2, 1)
        wB = (self.grid.wq[:, None, None] * B).reshape(48, 24)
        return self._to_nodes(s.reshape(self.grid.ncells, 48) @ wB, self.grid.idx)

    def rhs(self, gload) -> np.ndarray:
        """Nodal load vector ``f[v] = sum w_q (B_q v)^T C_c g(c, q)``.

        A constant load needs no quadrature: ``f[v] = (Bbar v)^T C_c g``
        with ``Bbar = sum_q w_q B_q``, one (ncells, 6) @ (6, 24) product.
        """
        g = np.asarray(gload, dtype=float)
        if g.shape == (6,):
            stress = (self.cellC.reshape(-1, 6) @ g).reshape(-1, 6)
            return self._to_nodes(stress @ self._Bbar, self.grid.idx)
        return self._assemble(self.cellC, self.grid.B, self._load_field(g))

    def rhs_noise_floor(self, gload) -> float:
        """Norm threshold below which an assembled load is cancellation dust.

        Materials with no coupling between the load strain and some
        displacement components produce load entries that are exact
        zeros up to rounding; iterating CG on such noise diverges.  The
        same assembly run on absolute values bounds the magnitude that
        went into each entry, so anything at 1e-12 of it is noise (the
        true cancellation error sits near 1e-16 of it).
        """
        abs_cellC, abs_B = self._abs_parts
        y = self._assemble(abs_cellC, abs_B, self._load_field(np.abs(gload)))
        return 1e-12 * float(np.linalg.norm(y))

    @cached_property
    def _abs_parts(self):
        """``|cellC|`` and ``|B|`` for ``rhs_noise_floor``, taken once per operator."""
        return np.abs(self.cellC), np.abs(self.grid.B)

    def energy_matrix(self, fields, loads) -> np.ndarray:
        """Energies ``N_ij = sum w_q g_i^T C g_j`` of total strains ``g_i = B x_i + G_i``.

        ``N_ij = f_i . x_j + T_ij`` with the residual ``f_i = K x_i +
        rhs(G_i)`` (one matvec per load, tiny at convergence) and the load
        term ``T_ij = sum_c sum_q w_q (B_q u_i + G_i)^T C_c G_j``.  When
        every load is a constant Mandel 6-vector, ``T`` collapses to cell
        means: ``T_ij = sum_c (Bbar u_i + v G_i)^T C_c G_j`` with ``Bbar =
        sum_q w_q B_q`` and v the cell volume, summed per law in the
        grouped form.  The total strain is formed per cell before ``C`` is
        applied: forms that cancel only globally (``x_i . rhs(G_j)`` plus a
        load term, or ``X^T K X`` plus cross terms) drift well past
        rounding, most on the small entries.  A set with an (ncells, 8, 6)
        load field takes ``_pointwise_energy_matrix``.  The result is
        symmetrized.
        """
        G = [np.asarray(g, dtype=float) for g in loads]
        if any(g.shape != (6,) for g in G):
            return self._pointwise_energy_matrix(fields, loads)
        N = np.array([self._stress_sum(x, g) for x, g in zip(fields, G)]) @ np.array(G).T
        for i, (x, g) in enumerate(zip(fields, G)):
            f = self.matvec(x) + self.rhs(g)
            N[i] += [f @ xj for xj in fields]
        return 0.5 * (N + N.T)

    def _stress_sum(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``sum_c (Bbar u_c + v g)^T C_c``: the cell-integrated stress of the
        total strain of nodal field ``x`` under the constant load ``g``."""
        e = self._gather(x, self._idx) @ self._Bbar.T + self.grid.wq.sum() * g
        C = self.cellC
        if self._Ke is not None:
            e, C = np.add.reduceat(e, self._cuts[:-1]), self._laws
        return e.ravel() @ C.reshape(-1, 6)

    def _pointwise_energy_matrix(self, fields, loads) -> np.ndarray:
        """``energy_matrix`` for load fields, one quadrature point at a time.

        Row ``i`` needs only the stress ``s_i = C g_i``:
        ``N_ij = f_i . x_j + sum w_q s_i . G_j``, where ``f_i`` is the
        nodal vector of ``s_i``.  No (ncells, 48) strain field is held
        whole, as the stacked form of ``matvec`` would.
        """
        grid = self.grid
        G = [self._load_field(g) for g in loads]
        N = np.zeros((len(loads), len(loads)))
        for i, x in enumerate(fields):
            u = self._gather(x, grid.idx)
            ylocal = np.zeros((grid.ncells, 24))
            for q in range(8):
                s = grid.wq[q] * np.einsum("cij,cj->ci", self.cellC, u @ grid.B[q].T + G[i][:, q])
                ylocal += s @ grid.B[q]
                N[i] += [np.einsum("ci,ci->", s, Gj[:, q]) for Gj in G]
            f = self._to_nodes(ylocal, grid.idx)
            N[i] += [f @ xj for xj in fields]
        return 0.5 * (N + N.T)


def _distinct_laws(cellC: np.ndarray):
    """Distinct cell laws, bit for bit: ``cellC[first[law]]`` equals ``cellC``.

    An integer hash of the 36 bit patterns sorts several times faster than the
    288-byte rows; on a collision the rows themselves are sorted.
    """
    bits = cellC.reshape(len(cellC), 36).view(np.uint64)
    _, first, law = np.unique(bits @ _LAW_HASH, return_index=True, return_inverse=True)
    if not np.array_equal(bits[first[law.ravel()]], bits):
        rows = bits.view(np.dtype((np.void, 288))).ravel()
        _, first, law = np.unique(rows, return_index=True, return_inverse=True)
    return first, law.ravel()


def _element_matrix(grid: Grid, C: np.ndarray) -> np.ndarray:
    """Element stiffness ``sum_q w_q B_q^T C B_q`` (..., 24, 24) of laws C (..., 6, 6),
    from the stacked quadrature's products, symmetrized to the last bit."""
    wB = (grid.wq[:, None, None] * grid.B).reshape(48, 24)
    Ke = wB.T @ (C[..., None, :, :] @ grid.B).reshape(*C.shape[:-2], 48, 24)
    return 0.5 * (Ke + Ke.swapaxes(-1, -2))


def _symbol(Ke: np.ndarray, ns, ms) -> np.ndarray:
    """Element matrix summed over node offset pairs with their phases.

    On the k periodic axes (the leading bits of the local node order) two
    nodes of an element differ by an offset ``delta`` in {-1, 0, 1}^k, and
    the pair carries the phase ``exp(2 pi i sum_k xi_k delta_k / n_k)``.  The
    ``Ke`` blocks are summed once per offset, then contracted one axis at a
    time with a 1-D phase table.  ``ns`` are the periods and ``ms`` the
    wavevector counts of the axes (``n // 2 + 1`` on a half-spectrum axis).
    Each of the 2**k node positions carries a block of b = 24 / 2**k local
    dofs, so the symbol is (*ms, b, b).
    """
    d = np.array(list(product((0, 1), repeat=len(ns))))
    p = len(d)
    K = Ke.reshape(p, 24 // p, p, 24 // p)
    S = np.zeros((3,) * len(ns) + (24 // p, 24 // p))
    for a in range(p):
        for c in range(p):
            S[tuple(d[c] - d[a] + 1)] += K[a, :, c]
    for axis in reversed(range(len(ns))):
        table = np.exp(2j * np.pi * np.outer(np.arange(ms[axis]), (-1, 0, 1)) / ns[axis])
        S = np.moveaxis(np.tensordot(table, S, axes=(1, axis)), 0, axis)
    return S


def _bmv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product ``A[f] @ v[f]``."""
    return (A @ v[..., None])[..., 0]


def reference_inverse(grid: Grid, C0: np.ndarray):
    """Pseudo-inverse of the stiffness of the constant law ``C0`` on ``grid``.

    Returns ``apply(r)``, the zero-mean ``z`` with ``K0 z = r`` for any
    ``r`` orthogonal to the rigid translations.  It stores O(ndofs)
    numbers.  The symbol of ``K0`` per wavevector comes from ``_symbol``
    by sum factorization: the ``Ke`` blocks are summed once per node
    offset in {-1, 0, 1}^k, then contracted with a 1-D phase table per
    periodic axis, O(wavevectors) work with no per-wavevector phase table.
    Cell grid: one 3x3 block per ``rfftn`` wavevector, the
    zero mode (the translations) mapped to 0.  Slab grid: per ``rfft2``
    wavevector, a Hermitian block-tridiagonal system over the node
    planes, factored once by block elimination (the inverse Schur
    complements ``Sinv`` and the multipliers ``W = Sinv U``); at the
    zero wavevector node plane 0 is grounded and the mean is projected
    out of the input and the result.
    """
    Ke = _element_matrix(grid, np.asarray(C0, dtype=float))
    n1, n2, n3 = grid.shape
    if grid.kind == "cell":
        K = _symbol(Ke, (n1, n2, n3), (n1, n2, n3 // 2 + 1))
        K[0, 0, 0] = np.eye(3)
        Kinv = np.linalg.inv(K)
        Kinv[0, 0, 0] = 0.0

        def apply(r):
            rh = np.fft.rfftn(r.reshape(n1, n2, n3, 3), axes=(0, 1, 2))
            return np.fft.irfftn(_bmv(Kinv, rh), s=(n1, n2, n3), axes=(0, 1, 2)).reshape(r.shape)

        return apply

    nplanes, m2 = n3 + 1, n2 // 2 + 1
    E = _symbol(Ke, (n1, n2), (n1, m2)).reshape(n1 * m2, 2, 3, 2, 3)
    bottom, top = E[:, 0, :, 0], E[:, 1, :, 1]   # a layer's blocks on its two node planes
    U = E[:, 0, :, 1]                            # plane k to plane k + 1, the same in every layer
    Sinv = np.empty((nplanes, n1 * m2, 3, 3), dtype=complex)
    W = np.empty((n3, n1 * m2, 3, 3), dtype=complex)
    for k in range(nplanes):
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

    def apply(r):
        rh = np.fft.rfft2(r.reshape(n1, n2, nplanes, 3), axes=(0, 1))
        y = rh.reshape(n1 * m2, nplanes, 3).transpose(1, 0, 2)
        y[:, 0] -= y[:, 0].mean(axis=0)          # zero wavevector: drop the translations
        for k in range(1, nplanes):
            y[k] -= np.einsum("fji,fj->fi", W[k - 1].conj(), y[k - 1])
        z = np.empty_like(y)
        z[-1] = _bmv(Sinv[-1], y[-1])
        for k in range(n3 - 1, -1, -1):
            z[k] = _bmv(Sinv[k], y[k]) - _bmv(W[k], z[k + 1])
        z[:, 0] -= z[:, 0].mean(axis=0)
        zh = z.transpose(1, 0, 2).reshape(n1, m2, nplanes, 3)
        return np.fft.irfft2(zh, s=(n1, n2), axes=(0, 1)).reshape(r.shape)

    return apply


def iteration_cap(ndofs: int) -> int:
    """Default conjugate-gradient iteration budget for a problem size."""
    return max(200, int(100 * ndofs ** (1.0 / 3.0)))


def conjugate_gradient(op: ElementOperator, b: np.ndarray, tol: float, maxiter=None,
                       noise_floor: float = 0.0, x0: np.ndarray | None = None):
    """CG on the singular-consistent stiffness system, preconditioned by
    ``op.precondition``.

    The operator kernel is the hot path; everything here is cheap vector
    arithmetic.  Starting from zero keeps the iterates orthogonal to the
    rigid translations (the load and the preconditioned residuals are
    too), so no explicit gauge is needed during the iteration.  The
    stopping test is on the unpreconditioned relative residual, so
    ``tol`` means the same as for plain CG.  ``noise_floor`` is an
    absolute norm below which load or residual count as
    assembled-to-zero (see ``ElementOperator.rhs_noise_floor``): loads
    under it get the zero corrector, and a CG breakdown under it counts
    as converged.  Returns ``(x, iterations, residual_history)`` with
    relative residuals; raises SolverError with the history on
    breakdown, divergence, stagnation (no new residual minimum in
    ``STALL_ITERATIONS`` iterations), the iteration cap, or a load or
    noise floor that is not finite.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if maxiter is None:
        maxiter = iteration_cap(b.size)
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(b))
    if not (np.isfinite(bnorm) and np.isfinite(noise_floor)):
        raise SolverError(f"load is not finite (norm {bnorm:.3e}, noise floor {noise_floor:.3e}): "
                          "the material or load overflows double precision")
    if bnorm <= noise_floor:
        return np.zeros_like(b), 0, (0.0,)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()
        r = b - op.matvec(x)
    rnorm = float(np.linalg.norm(r))
    z = op.precondition(r)
    p = z.copy()
    rz = float(r @ z)
    history = []
    best, best_it = np.inf, 0
    for it in range(1, maxiter + 1):
        Ap = op.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # Krylov direction fell into the numerical nullspace: fine if
            # the residual is already at assembly noise, fatal otherwise.
            if rnorm <= noise_floor:
                history.append(rnorm / bnorm)
                return x, it, tuple(history)
            raise SolverError(
                f"conjugate gradients broke down at iteration {it} "
                f"(direction energy {pAp:.3e}, residual {rnorm:.3e})",
                residuals=history,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
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
        p = z + (rz_next / rz) * p
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


def solve_loads(op: ElementOperator, loads, tol: float):
    """Correctors and energy matrix of a set of load strains.

    Each load (a Mandel 6-vector or an (ncells, 8, 6) strain field) gets
    the minimizer ``x_i`` of the energy of ``B x + G_i``: CG on
    ``K x = -rhs(G_i)`` with the load's noise floor, then the zero-mean
    gauge.  Returns ``(fields, N, solves)`` with ``N`` from
    ``op.energy_matrix`` and ``solves[i] = (iterations, residual_history)``.
    """
    fields, solves = [], []
    for gload in loads:
        b = -op.rhs(gload)
        with np.errstate(over="ignore"):      # an overflowing load is refused by CG
            floor = op.rhs_noise_floor(gload)
        x, iters, hist = conjugate_gradient(op, b, tol, noise_floor=floor)
        fields.append(subtract_nodal_mean(x, op.grid.nnodes))
        solves.append((iters, hist))
    return fields, op.energy_matrix(fields, loads), solves
