"""Slab homogenization: thickness period comparable to the in-plane one.

Pipeline for this scaling:

1. ``reduce_fibers`` (through ``SlabMaterial.reduced_cells``, once per
   distinct fiber): at each material point, relax the out-of-plane
   response over zero-mean through-fiber fluctuations ``d(y3)``.  The
   stationarity condition makes the out-of-plane stress constant along
   the fiber, which gives a closed form built from the fiber averages
   ``<P>``, ``<S^-1>``, ``<S^-1 T>`` and ``<T^T S^-1 T>`` of the
   in-plane / out-of-plane / coupling blocks.
2. Solve six corrector problems on the slab ``I x Y^2`` (periodic
   in-plane, traction-free thickness faces) with the reduced material:
   three constant mid-plane loads ``iota(B)`` and three thickness-linear
   curvature loads ``x3 iota(A)``, passed to ``fem.solve_loads`` as
   Mandel 6-vectors and (2, 6) pairs ``(0, iota(A))``.  The reduced
   slab is first cut to one cell along y1 and along y2 wherever its
   reduced laws are bitwise equal along that axis
   (``fem.solve_grid_operator``), a layered slab to 1 x 1 x n3: the
   gauged minimizer is unique and shift invariant, so it is constant
   along such an axis and the cut gives the same energies to rounding.
   x3 never collapses, because its faces are free, not periodic.
   ``slab_corrector_solve`` tiles its one field back onto the full grid.
   When swapping y1 and y2 maps the reduced laws onto themselves up to an
   in-plane shift (``fem.axis_symmetries``, by value: reduced laws carry
   -0.0 where their images carry 0.0), A1 and B1 are not solved but
   mirrored from A0 and B0, 4 solves in place of 6.
3. Assemble the 6x6 energy matrix of the (curvature, mid-plane) pair
   from the stored correctors and eliminate the mid-plane block by a
   Schur complement.

For a zero-Poisson isotropic laminate the fiber reduction has the
classical closed form (arithmetic mean in plane, harmonic mean across),
kept in ``laminate_reduced_form`` as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from .core import (
    DEFAULT_TOL,
    EMBED_2_TO_3,
    IN_PLANE,
    OUT_OF_PLANE,
    EffectiveReport,
    MaterialBounds,
    QuadForm2,
    QuadForm3,
    qf_isotropic,
)
from .errors import AdmissibilityError, DegenerateMaterialError
from .fem import (
    CorrectorField as SlabCorrector,     # one class with ``homog3d.CorrectorField3``
    solve_grid_operator,
    solve_loads,
    solver_diagnostics,
)
from .reduction import spd_schur


@dataclass(frozen=True, eq=False)
class FiberMaterial:
    """6x6 Mandel samples along the through-fiber coordinate ``y3``.

    ``weights`` are the layer fractions (uniform cells by default); they
    must be positive and sum to one.  Built, the arrays are read-only and
    the samples have passed ``MaterialBounds.require``.
    """

    c: np.ndarray             # (nf, 6, 6)
    bounds: MaterialBounds
    weights: np.ndarray | None = None

    def __post_init__(self):
        c = np.ascontiguousarray(self.c, dtype=float)
        if c.ndim != 3 or c.shape[1:] != (6, 6):
            raise ValueError(f"fiber samples must be (nf, 6, 6), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("fiber samples contain non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "weights", _layer_weights(self.weights, c.shape[0]))
        self.bounds.require(c, np.linalg.eigvalsh(c), "fiber sample {}")


def _layer_weights(weights, nf: int) -> np.ndarray:
    """Read-only layer fractions of ``nf`` fiber samples, uniform for None."""
    w = np.full(nf, 1.0 / nf) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (nf,):
        raise ValueError(f"weights must be {nf} layer fractions, one per fiber sample")
    if not (np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-12):      # NaN fails too
        raise ValueError("weights must be positive and sum to 1")
    w.setflags(write=False)
    return w


def _inverse_spd3(M: np.ndarray):
    """Inverses of symmetric 3x3 blocks ``M`` (..., 3, 3) in closed form, and
    the mask of the blocks that are not positive definite.

    Each block is factored ``L D L^T`` (unit lower triangular ``L``, read
    from the lower triangle) and inverted as ``L^-T D^-1 L^-1``.  The
    pivots ``d_k`` are ratios of successive leading principal minors, so a
    pivot <= 0 marks a minor <= 0 (Sylvester's criterion); a block with one,
    or with a non-finite entry or inverse, is masked, and no floating-point
    warning escapes.  The factors keep the accuracy of a LAPACK inverse on
    ill-conditioned blocks, where the adjugate over the determinant loses
    it to cancellation (1e-5 against 2e-9 relative at condition number
    1e8), and they need no rescaling for laws of any magnitude.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        a, b, c = M[..., 0, 0], M[..., 1, 0], M[..., 2, 0]
        d, e, f = M[..., 1, 1], M[..., 2, 1], M[..., 2, 2]
        l21, l31 = b / a, c / a
        d2 = d - b * l21
        e2 = e - c * l21
        l32 = e2 / d2
        d3 = f - c * l31 - e2 * l32
        bad = ~((a > 0.0) & (d2 > 0.0) & (d3 > 0.0) & np.isfinite(M).all(axis=(-2, -1)))
        m31 = l21 * l32 - l31          # L^-1 = [[1, 0, 0], [-l21, 1, 0], [m31, -l32, 1]]
        r1, r2, r3 = 1.0 / a, 1.0 / d2, 1.0 / d3
        inv = np.empty(M.shape)
        inv[..., 0, 0] = r1 + l21 * l21 * r2 + m31 * m31 * r3
        inv[..., 0, 1] = inv[..., 1, 0] = m31 * -l32 * r3 - l21 * r2
        inv[..., 0, 2] = inv[..., 2, 0] = m31 * r3
        inv[..., 1, 1] = r2 + l32 * l32 * r3
        inv[..., 1, 2] = inv[..., 2, 1] = -l32 * r3
        inv[..., 2, 2] = r3
        bad |= ~np.isfinite(inv).all(axis=(-2, -1))
    return inv, bad


def reduce_fibers(c: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Relax fibers of 3D forms over zero-mean out-of-plane fluctuations.

    ``c`` holds ``nfib`` fibers of ``nf`` Mandel samples, (nfib, nf, 6, 6),
    and ``weights`` the ``nf`` layer fractions.  Each result is again a
    quadratic form on symmetric 3x3 arguments.  In block form (p =
    in-plane, o = out-of-plane Mandel slots) the reduced matrix is::

        pp: <P> - <T^T S^-1 T> + G^T H^-1 G
        po: G^T H^-1
        oo: H^-1

    with ``H = <S^-1>`` and ``G = <S^-1 T>``, where ``T`` maps in-plane
    strain to out-of-plane stress.  ``S`` and ``H`` are symmetric 3x3
    blocks, inverted in closed form from their ``L D L^T`` factors
    (``_inverse_spd3``); a block with a leading principal minor <= 0 is not
    positive definite and raises ``DegenerateMaterialError`` naming its
    fiber (and sample).  A constant fiber is returned unchanged (the
    zero-mean constraint forces the fluctuation to zero).  Returns
    (nfib, 6, 6).
    """
    p, o = list(IN_PLANE), list(OUT_OF_PLANE)
    S = c[:, :, o][:, :, :, o]
    Top = c[:, :, o][:, :, :, p]
    Sinv, bad = _inverse_spd3(S)
    if bad.any():
        f, k = np.argwhere(bad)[0]
        raise DegenerateMaterialError(f"fiber {f} sample {k} has a singular out-of-plane block")
    SinvT = Sinv @ Top
    Pbar = np.einsum("k,fkij->fij", weights, c[:, :, p][:, :, :, p])
    H = np.einsum("k,fkij->fij", weights, Sinv)
    G = np.einsum("k,fkij->fij", weights, SinvT)
    # <T^T S^-1 T> as one product per fiber, inner dimension 3 nf over (sample, slot)
    nfib, nf = c.shape[:2]
    W = ((weights[:, None, None] * Top).reshape(nfib, 3 * nf, 3).swapaxes(1, 2)
         @ SinvT.reshape(nfib, 3 * nf, 3))
    Hinv, bad = _inverse_spd3(H)
    if bad.any():
        raise DegenerateMaterialError(
            f"fiber {np.argmax(bad)} has a singular mean out-of-plane compliance"
        )
    Gt = G.swapaxes(1, 2)
    red = np.zeros((c.shape[0], 6, 6))
    red[(slice(None),) + np.ix_(p, p)] = Pbar - W + Gt @ Hinv @ G
    red[(slice(None),) + np.ix_(p, o)] = Gt @ Hinv
    red[(slice(None),) + np.ix_(o, p)] = Hinv @ G
    red[(slice(None),) + np.ix_(o, o)] = Hinv
    return 0.5 * (red + red.swapaxes(1, 2))


def fiber_reduce(fiber: FiberMaterial) -> QuadForm3:
    """``reduce_fibers`` on one fiber."""
    return QuadForm3(reduce_fibers(fiber.c[None], fiber.weights)[0], label="fiber-reduced")


def laminate_reduced_form(lambda1: float, lambda2, mu: float, weights=None) -> QuadForm3:
    """Closed-form fiber reduction of ``lambda1*lambda2(y3)*iso(mu, 0)``.

    For a zero-Poisson isotropic law the blocks decouple: the in-plane
    slots scale with the arithmetic mean of ``lambda2`` and the
    out-of-plane slots with its harmonic mean.  Used only as an oracle
    for ``fiber_reduce``.
    """
    lam2 = np.asarray(lambda2, dtype=float)
    if np.any(lam2 <= 0.0) or lambda1 <= 0.0 or mu <= 0.0:
        raise ValueError("laminate factors must be positive")
    if weights is None:
        weights = np.full(lam2.size, 1.0 / lam2.size)
    arith = float(weights @ lam2)
    harm = 1.0 / float(weights @ (1.0 / lam2))
    d = np.array([arith, arith, harm, harm, harm, arith])
    return QuadForm3(2.0 * mu * lambda1 * np.diag(d), label="laminate-closed-form")


@dataclass(frozen=True, eq=False)
class SlabMaterial:
    """Material over ``(y1, y2, x3)`` cells, each holding a fiber in ``y3``.

    Cells reference shared fibers through ``fiber_index`` (broadcasting:
    one fiber can serve many cells) and may carry a positive scalar
    ``scale`` per cell, which multiplies the whole fiber.  That covers
    separable laws ``lambda1(y', x3) * lambda2(y3) * Q_base`` without
    duplicating fiber data.  Built, the arrays are read-only and every
    scaled cell sample has passed ``MaterialBounds.require``, an error
    naming the first offending cell by its flat index.
    """

    fibers: np.ndarray        # (nfib, nf, 6, 6)
    fiber_index: np.ndarray   # (n1, n2, n3) int
    bounds: MaterialBounds | None = None   # None: the scaled samples' extreme eigenvalues
    weights: np.ndarray | None = None   # (nf,) fiber layer fractions
    scale: np.ndarray | None = None     # (n1, n2, n3) positive per-cell factor

    def __post_init__(self):
        fibers = np.ascontiguousarray(self.fibers, dtype=float)
        if fibers.ndim != 4 or fibers.shape[2:] != (6, 6):
            raise ValueError(f"fibers must be (nfib, nf, 6, 6), got {fibers.shape}")
        if not np.isfinite(fibers).all():
            raise ValueError("fibers contain non-finite entries")
        idx = np.asarray(self.fiber_index, dtype=np.int64)
        if idx.ndim != 3:
            raise ValueError("fiber_index must be a 3D cell grid")
        if idx.min() < 0 or idx.max() >= fibers.shape[0]:
            raise ValueError("fiber_index out of range")
        w = _layer_weights(self.weights, fibers.shape[1])
        if self.scale is None:
            s = np.ones(idx.shape)
        else:
            s = np.asarray(self.scale, dtype=float)
            if s.shape != idx.shape:
                raise ValueError("scale grid must match the cell grid")
            if not np.isfinite(s).all():
                raise ValueError("cell scale factors must be finite")
            if np.any(s <= 0.0):
                raise AdmissibilityError("cell scale factors must be positive")
        for name, arr in (("fibers", fibers), ("fiber_index", idx), ("weights", w), ("scale", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # each fiber's smallest and largest eigenvalue (nfib, 2)
        eig = np.linalg.eigvalsh(fibers)
        spectrum = np.stack([eig[:, :, 0].min(axis=1), eig[:, :, -1].max(axis=1)], axis=1)
        cells, scale = idx.reshape(-1), s.reshape(-1)
        if self.bounds is None:
            object.__setattr__(self, "bounds", MaterialBounds.inferred(spectrum, cells, scale))
        self.bounds.require(fibers, spectrum, "slab cell {}", cells, scale)

    @property
    def grid_shape(self) -> tuple:
        return self.fiber_index.shape

    @property
    def fiber_samples(self) -> int:
        return self.fibers.shape[1]

    def cell_fiber_stacks(self) -> np.ndarray:
        """Per-cell fiber sample matrices, (ncells, nf, 6, 6), scale applied."""
        stacks = self.fibers[self.fiber_index.reshape(-1)]
        return stacks * self.scale.reshape(-1, 1, 1, 1)

    def reduced_cells(self) -> np.ndarray:
        """Fiber-reduce each distinct fiber, broadcast and scale per cell."""
        out = reduce_fibers(self.fibers, self.weights)[self.fiber_index.reshape(-1)]
        return out * self.scale.reshape(-1, 1, 1)

    def refine(self, factor: int = 2) -> "SlabMaterial":
        """Nested subdivision: each cell becomes factor^3 identical cells (fibers untouched)."""
        idx = self.fiber_index
        s = self.scale
        for axis in range(3):
            idx = np.repeat(idx, factor, axis=axis)
            s = np.repeat(s, factor, axis=axis)
        return SlabMaterial(
            fibers=self.fibers, fiber_index=idx, bounds=self.bounds,
            weights=self.weights, scale=s,
        )

    @classmethod
    def separable(cls, lambda1, lambda2, mu: float, grid=None,
                  bounds: MaterialBounds | None = None) -> "SlabMaterial":
        """Law ``lambda1(y', x3) * lambda2(y3) * iso(mu, 0)``.

        ``lambda1`` is a scalar or an (n1, n2, n3) array; ``lambda2``
        holds the fiber samples.
        """
        lam2 = np.asarray(lambda2, dtype=float)
        if lam2.ndim != 1 or np.any(lam2 <= 0.0):
            raise ValueError("lambda2 must be a positive 1D sample vector")
        lam1 = np.asarray(lambda1, dtype=float)
        if lam1.ndim == 0:
            if grid is None:
                grid = (1, 1, 1)
            lam1 = np.full(grid, float(lam1))
        if lam1.ndim != 3 or np.any(lam1 <= 0.0):
            raise ValueError("lambda1 must be positive, scalar or a 3D cell grid")
        base = qf_isotropic(mu, 0.0).matrix
        fibers = (lam2[:, None, None] * base)[None, :, :, :]
        if bounds is None:
            lo = 2.0 * mu * float(lam2.min()) * float(lam1.min())
            hi = 2.0 * mu * float(lam2.max()) * float(lam1.max())
            bounds = MaterialBounds(lo, hi)
        return cls(
            fibers=fibers,
            fiber_index=np.zeros(lam1.shape, dtype=np.int64),
            bounds=bounds,
            scale=lam1,
        )

    @classmethod
    def homogeneous(cls, q3: QuadForm3, grid=(1, 1, 1), nf: int = 1,
                    bounds: MaterialBounds | None = None) -> "SlabMaterial":
        fibers = np.broadcast_to(q3.matrix, (1, nf, 6, 6)).copy()
        return cls(fibers=fibers, fiber_index=np.zeros(grid, dtype=np.int64), bounds=bounds)


def _load_strain(load):
    """The ``fem`` load of a load spec ('A'|'B', basis index 0-2 or Mandel
    3-vector E): ``iota(E)`` for 'B' as a 6-vector, ``x3 iota(E)`` for 'A'
    as the pair ``(0, iota(E))``."""
    kind, payload = load
    if kind not in ("A", "B"):
        raise ValueError(f"load kind must be 'A' or 'B', got {kind!r}")
    if np.ndim(payload) == 0:
        is_int = isinstance(payload, (int, np.integer)) and not isinstance(payload, bool)
        if not (is_int and 0 <= payload <= 2):
            raise ValueError(f"load basis index must be an integer 0, 1 or 2, got {payload!r}")
        payload = np.eye(3)[payload]
    a = np.asarray(payload, dtype=float)
    if a.shape != (3,):
        raise ValueError("load payload must be a basis index or Mandel 3-vector")
    g = EMBED_2_TO_3 @ a
    return g if kind == "B" else np.stack([np.zeros(6), g])


def _solve(slab: SlabMaterial, loads, tol: float):
    """``solve_loads`` of load specs ``loads`` (``_load_strain``) on ``slab``, reduced
    and cut by ``solve_grid_operator``: ``(fields, N, solves, op)``."""
    op = solve_grid_operator("slab", slab.grid_shape, slab.reduced_cells())
    return (*solve_loads(op, [_load_strain(load) for load in loads], tol), op)


def slab_corrector_solve(slab: SlabMaterial, load, tol: float = DEFAULT_TOL):
    """Minimize the slab energy under a mid-plane ('B') or curvature ('A') load.

    The load strain is ``iota(E)`` for kind 'B' and ``x3 * iota(E)`` for
    kind 'A', with ``E`` a symmetric 2x2 pattern given in Mandel
    coordinates.  Returns ``(SlabCorrector, energy)``.
    """
    [x], N, [(iters, hist, _)], op = _solve(slab, [load], tol)
    n1, n2, n3 = slab.grid_shape
    values = np.broadcast_to(x.reshape(*op.grid.node_shape, 3), (n1, n2, n3 + 1, 3))
    return SlabCorrector(values, iters, hist), float(N[0, 0])


def bending_form_regime2(slab: SlabMaterial, tol: float = DEFAULT_TOL) -> EffectiveReport:
    """Effective bending form for comparable-scale oscillation.

    Six slab solves (three curvature loads, three mid-plane loads) give
    the 6x6 energy matrix of the load pair; eliminating the mid-plane
    block leaves the 3x3 bending form and the optimal mid-plane map.
    """
    t0 = time.perf_counter()
    basis = [("A", i) for i in range(3)] + [("B", i) for i in range(3)]
    _, N, solves, op = _solve(slab, basis, tol)
    q0p, X = spd_schur(
        N[:3, :3], N[:3, 3:].T, N[3:, 3:],
        AdmissibilityError("mid-plane energy block is not positive definite; "
                           "this cannot happen for admissible materials"),
    )
    diagnostics = {
        "grid": list(slab.grid_shape),
        "solve_grid": list(op.grid.shape),
        "fiber_samples": int(slab.fiber_samples),
        **solver_diagnostics(op, tol, [f"{kind}{i}" for kind, i in basis], solves),
        "pair_energy_matrix": N.tolist(),
        "runtime_s": time.perf_counter() - t0,
    }
    return EffectiveReport(
        form=QuadForm2(q0p, label="bending-regime2"),
        optimal_b=-X,
        regime="regime2",
        diagnostics=diagnostics,
    )
