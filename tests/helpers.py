"""Shared generators for admissible random materials, and reference
implementations of the stiffness operator written independently of it."""

import numpy as np

from plate_homog import (
    CellMaterial3,
    FiberMaterial,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    SlabMaterial,
    ThicknessProfile,
)


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


def strains(op, x, gload=None) -> np.ndarray:
    """Total Mandel strain (ncells, 8, 6) of nodal field plus load."""
    g = np.einsum("qij,cj->cqi", op.grid.B, _gather(op.grid, x))
    if gload is not None:
        g = g + op._load_field(gload)
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
         + np.asarray(op._load_field(G), dtype=np.longdouble) for x, G in zip(fields, loads)]
    s = [np.einsum("cij,cqj,q->cqi", C, gi, w) for gi in g]
    return np.array([[np.sum(si * gj) for gj in g] for si in s])
