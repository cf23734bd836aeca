"""Shared generators for admissible random materials, and reference
implementations of the stiffness operator written independently of it,
node-major versions of its scatter-add and FFT preconditioner, and the
fiber reduction on LAPACK inverses."""

from itertools import product

import numpy as np

from plate_homog import (
    CellMaterial3,
    FiberMaterial,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    SlabMaterial,
    ThicknessProfile,
    qf_isotropic,
)
from plate_homog import fem
from plate_homog.core import IN_PLANE, OUT_OF_PLANE


def operator_grids(monkeypatch) -> list:
    """The shape of the grid of every ``fem.ElementOperator`` built from now on,
    in order: its ``__init__`` is wrapped for the rest of the test."""
    shapes, init = [], fem.ElementOperator.__init__

    def recording(self, grid, *args, **kwargs):
        shapes.append(grid.shape)
        init(self, grid, *args, **kwargs)

    monkeypatch.setattr(fem.ElementOperator, "__init__", recording)
    return shapes


def random_spd(rng, n, lo, hi):
    """Symmetric matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (m + m.T)


def random_form3(rng, eta1=1.0, eta2=4.0) -> QuadForm3:
    return QuadForm3(random_spd(rng, 6, eta1, eta2))


def random_form2(rng, eta1=1.0, eta2=4.0) -> QuadForm2:
    return QuadForm2(random_spd(rng, 3, eta1, eta2))


def random_cell(rng, grid=(2, 2, 2), eta1=1.0, eta2=4.0) -> CellMaterial3:
    n = int(np.prod(grid))
    c = np.stack([random_spd(rng, 6, eta1, eta2) for _ in range(n)]).reshape(*grid, 6, 6)
    margin = 1e-9 * max(1.0, eta2)
    return CellMaterial3(c=c, bounds=MaterialBounds(eta1 - margin, eta2 + margin))


def random_fiber(rng, nf=2, eta1=1.0, eta2=4.0) -> FiberMaterial:
    c = np.stack([random_spd(rng, 6, eta1, eta2) for _ in range(nf)])
    margin = 1e-9 * max(1.0, eta2)
    return FiberMaterial(c=c, bounds=MaterialBounds(eta1 - margin, eta2 + margin))


def random_slab(rng, grid=(2, 2, 2), nf=2, nfib=3, eta1=1.0, eta2=4.0) -> SlabMaterial:
    fibers = np.stack(
        [np.stack([random_spd(rng, 6, eta1, eta2) for _ in range(nf)]) for _ in range(nfib)]
    )
    idx = rng.integers(0, nfib, size=grid)
    margin = 1e-9 * max(1.0, eta2)
    return SlabMaterial(
        fibers=fibers, fiber_index=idx, bounds=MaterialBounds(eta1 - margin, eta2 + margin)
    )


def fiber_per_cell_slab(rng, grid, nf=3, nu=0.0, contrast=30.0) -> SlabMaterial:
    """Isotropic slab (mu = 1, Poisson ratio ``nu``) with one fiber of random
    ``lambda2`` in [1, 2] per cell, scaled per cell by 1 or ``contrast`` at
    random: a law per cell, and laws that span two directions of law space."""
    ncells = int(np.prod(grid))
    lam2 = rng.uniform(1.0, 2.0, (ncells, nf))
    fibers = lam2[:, :, None, None] * qf_isotropic(1.0, 2.0 * nu / (1.0 - 2.0 * nu)).matrix
    scale = np.where(rng.random(grid) < 0.5, contrast, 1.0)
    return SlabMaterial(fibers=fibers, fiber_index=np.arange(ncells).reshape(grid), scale=scale)


def two_phase_cell(n: int, contrast: float, shape: str, mu=1.0, nu=0.25) -> CellMaterial3:
    """An n^3 two-phase cell of the kinds that the ``regime1-cells`` benchmark
    draws, with its stiff phase, ``contrast`` times the soft one, at the origin:
    ``box``, an (n/2)^3 inclusion of an isotropic law (shear modulus ``mu``,
    Poisson ratio ``nu``); ``column``, an (n/2)^2 in-plane box of it through x3;
    ``laminate``, zero-Poisson layers ``2 mu I`` with the stiff phase on the
    lower half of them."""
    half = np.arange(n) < n // 2
    if shape == "laminate":
        layers = np.where(half, contrast, 1.0) * 2.0 * mu
        return CellMaterial3(c=np.broadcast_to(layers[:, None, None] * np.eye(6), (n, n, n, 6, 6)))
    soft = qf_isotropic(mu, 2.0 * mu * nu / (1.0 - 2.0 * nu)).matrix
    mask = half[:, None, None] & half[:, None] & (half if shape == "box" else np.ones(n, bool))
    return CellMaterial3(c=np.where(mask[..., None, None], contrast * soft, soft))


def random_profile2(rng, eta1=2.0, eta2=5.0) -> ThicknessProfile:
    """Random 2D profile with samples inside [eta1, eta2], random rule."""
    rule = rng.choice(["layers", "midpoint", "gauss"])
    n = int(rng.integers(2, 6)) if rule == "gauss" else int(rng.integers(1, 6))
    forms = tuple(QuadForm2(random_spd(rng, 3, eta1, eta2)) for _ in range(n))
    if rule == "layers":
        cuts = np.sort(rng.uniform(-0.5, 0.5, n - 1)) if n > 1 else np.empty(0)
        breaks = np.concatenate(([-0.5], cuts, [0.5]))
        if np.any(np.diff(breaks) <= 1e-6):
            return random_profile2(rng, eta1, eta2)
        return ThicknessProfile(forms, rule="layers", breaks=breaks)
    return ThicknessProfile(forms, rule=str(rule))


def _gather(grid, x):
    """Per-cell local dof vectors (ncells, 24) of a nodal field."""
    return x.reshape(grid.nnodes, 3)[grid.idx].reshape(grid.ncells, 24)


def quadrature_x3(grid) -> np.ndarray:
    """(ncells, 8) thickness coordinate of the quadrature points of a slab grid:
    the lower node plane of each cell (cells ordered with x3 fastest) plus the
    local x3 of each point, in the point order of ``fem.build_b_matrices``."""
    local = np.array([x3 for _, _, x3 in product(fem.GAUSS_POINTS, repeat=3)])
    lower = -0.5 + (np.arange(grid.ncells) % grid.shape[2]) * grid.h[2]
    return lower[:, None] + local * grid.h[2]


def load_field(grid, gload) -> np.ndarray:
    """A load at every quadrature point, (ncells, 8, 6): a Mandel 6-vector G
    broadcast, or the slab pair (G, A) as ``G + x3 A``."""
    g = np.asarray(gload, dtype=float)
    if g.shape == (6,):
        return np.broadcast_to(g, (grid.ncells, 8, 6))
    assert g.shape == (2, 6) and grid.kind == "slab", g.shape
    return g[0] + quadrature_x3(grid)[:, :, None] * g[1]


def strains(op, x, gload=None) -> np.ndarray:
    """Total Mandel strain (ncells, 8, 6) of nodal field plus load."""
    g = np.einsum("qij,cj->cqi", op.grid.B, _gather(op.grid, x))
    if gload is not None:
        g = g + load_field(op.grid, gload)
    return g


def energy(op, x, gload=None) -> float:
    """``sum_c sum_q w_q g^T C_c g`` of the total strain ``g``."""
    g = strains(op, x, gload)
    return float(np.einsum("cqi,cij,cqj,q->", g, op.cellC, g, op.grid.wq))


def reference_matvec(op, x) -> np.ndarray:
    """``K x`` one quadrature point at a time, scatter-added with ``np.add.at``."""
    grid = op.grid
    u = _gather(grid, x)
    ylocal = np.zeros((grid.ncells, 24))
    for q in range(8):
        g = u @ grid.B[q].T                 # (ncells, 6)
        s = np.einsum("cij,cj->ci", op.cellC, g)
        ylocal += (grid.wq[q] * s) @ grid.B[q]
    y = np.zeros((grid.nnodes, 3))
    np.add.at(y, grid.idx.ravel(), ylocal.reshape(-1, 3))
    return y.reshape(x.shape)


def reference_energy_matrix(op, fields, loads) -> np.ndarray:
    """``N_ij = sum_c sum_q w_q g_i^T C_c g_j`` in ``np.longdouble``, one total
    strain ``g_i = B_q u_i + G_i`` per quadrature point, no cancellation."""
    grid = op.grid
    B, C, w = (np.asarray(a, dtype=np.longdouble) for a in (grid.B, op.cellC, grid.wq))
    g = [np.einsum("qij,cj->cqi", B, _gather(grid, x).astype(np.longdouble))
         + load_field(grid, G).astype(np.longdouble) for x, G in zip(fields, loads)]
    s = [np.einsum("cij,cqj,q->cqi", C, gi, w) for gi in g]
    return np.array([[np.sum(si * gj) for gj in g] for si in s])


def pointwise_load_vector(op, gload, absolute=False) -> np.ndarray:
    """``sum_c sum_q w_q B_q^T C_c g(c, q)`` with the load at every quadrature
    point (``load_field``), in grid order; with ``absolute`` the same assembly
    on ``|C|``, ``|B|`` and ``|g|``, which the noise floor bounds loads by."""
    grid = op.grid
    C, B, g = op.cellC, grid.B, load_field(grid, gload)
    if absolute:
        C, B, g = np.abs(C), np.abs(B), np.abs(g)
    ylocal = np.einsum("q,qij,cik,cqk->cj", grid.wq, B, C, g)
    return reference_scatter(op, ylocal.T, grid.idx)


def grid_order_rhs(op, gload) -> np.ndarray:
    """The load vector from the cell integrals one cell at a time in grid order:
    ``(C_c (G + x3_c A)) @ Bbar + (C_c A) @ Btilde``."""
    grid = op.grid
    g = np.asarray(gload, dtype=float)
    G, A = (g, np.zeros(6)) if g.shape == (6,) else g
    d3 = (np.array(fem.GAUSS_POINTS * 4) - 0.5) * grid.h[2]
    Bbar = np.einsum("q,qij->ij", grid.wq, grid.B)
    Btilde = np.einsum("q,qij->ij", grid.wq * d3, grid.B)
    stress_a = op.cellC @ A
    ylocal = (op.cellC @ G + grid.x3c[:, None] * stress_a) @ Bbar + stress_a @ Btilde
    return reference_scatter(op, ylocal.T, grid.idx)


def reference_scatter(op, ylocal, idx) -> np.ndarray:
    """Scatter-add local-major (24, ncells) local vectors into nodes, cells as in
    ``idx`` (ncells, 8): one ``np.bincount`` per displacement component over the
    (8, ncells) node index, stacked node-major."""
    nodes = idx.T.ravel()
    y = ylocal.reshape(8, 3, -1)
    return np.stack([np.bincount(nodes, weights=y[:, m].ravel(), minlength=op.grid.nnodes)
                     for m in range(3)], axis=1).ravel()


def reference_precondition(op, r) -> np.ndarray:
    """``op.precondition(r)`` node-major with complex blocks: ``rfftn``/``rfft2``
    over the leading node axes of (n1, n2, n3, 3), one complex 3x3 inverse per
    wavevector (cell), or the block-tridiagonal sweep over the node planes with
    ``W^H`` conjugated on every plane (slab)."""
    grid = op.grid
    Ke = fem._element_matrix(grid, op.reference.law)
    n1, n2, n3 = grid.shape
    if grid.kind == "cell":
        K = fem._symbol(Ke, (n1, n2, n3), (n1, n2, n3 // 2 + 1))
        K[0, 0, 0] = np.eye(3)
        Kinv = np.linalg.inv(K)
        Kinv[0, 0, 0] = 0.0
        rh = np.fft.rfftn(r.reshape(n1, n2, n3, 3), axes=(0, 1, 2))
        zh = (Kinv @ rh[..., None])[..., 0]
        return np.fft.irfftn(zh, s=(n1, n2, n3), axes=(0, 1, 2)).reshape(r.shape)

    nplanes, m2 = n3 + 1, n2 // 2 + 1
    E = fem._symbol(Ke, (n1, n2), (n1, m2)).reshape(n1 * m2, 2, 3, 2, 3)
    bottom, top, U = E[:, 0, :, 0], E[:, 1, :, 1], E[:, 0, :, 1]
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
    rh = np.fft.rfft2(r.reshape(n1, n2, nplanes, 3), axes=(0, 1))
    y = rh.reshape(n1 * m2, nplanes, 3).transpose(1, 0, 2)
    y[:, 0] -= y[:, 0].mean(axis=0)
    for k in range(1, nplanes):
        y[k] -= np.einsum("fji,fj->fi", W[k - 1].conj(), y[k - 1])
    z = np.empty_like(y)
    z[-1] = (Sinv[-1] @ y[-1][..., None])[..., 0]
    for k in range(n3 - 1, -1, -1):
        z[k] = (Sinv[k] @ y[k][..., None])[..., 0] - (W[k] @ z[k + 1][..., None])[..., 0]
    z[:, 0] -= z[:, 0].mean(axis=0)
    zh = z.transpose(1, 0, 2).reshape(n1, m2, nplanes, 3)
    return np.fft.irfft2(zh, s=(n1, n2), axes=(0, 1)).reshape(r.shape)


def reference_reduce_fibers(c, weights) -> np.ndarray:
    """``homogslab.reduce_fibers`` with ``np.linalg.inv`` for the out-of-plane
    blocks ``S`` and their mean compliance ``H = <S^-1>``, on fibers ``c``
    (nfib, nf, 6, 6)."""
    p, o = list(IN_PLANE), list(OUT_OF_PLANE)
    S, T, P = (c[:, :, rows][:, :, :, cols] for rows, cols in ((o, o), (o, p), (p, p)))
    Sinv = np.linalg.inv(S)
    H = np.einsum("k,fkij->fij", weights, Sinv)
    G = np.einsum("k,fkij->fij", weights, Sinv @ T)
    Hinv = np.linalg.inv(H)
    Gt = G.swapaxes(1, 2)
    red = np.empty((c.shape[0], 6, 6))
    for rows, cols, block in (
        (p, p, np.einsum("k,fkij->fij", weights, P - T.swapaxes(2, 3) @ Sinv @ T) + Gt @ Hinv @ G),
        (p, o, Gt @ Hinv), (o, p, Hinv @ G), (o, o, Hinv),
    ):
        red[(slice(None),) + np.ix_(rows, cols)] = block
    return 0.5 * (red + red.swapaxes(1, 2))
