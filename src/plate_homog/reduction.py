"""Through-thickness formula chain.

Three steps turn a 3D material law sampled across the thickness
``I = [-1/2, 1/2]`` into a plate bending stiffness:

1. plane-stress reduction: condense the out-of-plane strain slots of a
   6x6 Mandel matrix (a Schur complement),
2. moment integrals ``Mk = int x3^k C2(x3) dx3`` for k = 0, 1, 2,
3. minimization over the mid-plane strain, giving
   ``Q0 = M2 - M1 M0^-1 M1`` and the minimizer map ``B* = -M0^-1 M1``.

Piecewise-constant profiles (layer lists and cell-centered sample grids)
are integrated in closed form; Gauss-sampled profiles use the
Gauss-Legendre weights of their sampling nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IN_PLANE, OUT_OF_PLANE, SQRT2, QuadForm2, QuadForm3
from .errors import DegenerateMaterialError, DegenerateProfileError

RULE_LAYERS = "layers"
RULE_MIDPOINT = "midpoint"
RULE_GAUSS = "gauss"

# d contributes (d1, d2, d3) -> out-of-plane Mandel slots (m33, s2*m23, s2*m13)
# of d (x) e3 + e3 (x) d, i.e. (2*d3, s2*d2, s2*d1).
_D_TO_OOP = np.array([[0.0, 0.0, 2.0], [0.0, SQRT2, 0.0], [SQRT2, 0.0, 0.0]])
_OOP_TO_D = np.linalg.inv(_D_TO_OOP)


@dataclass(frozen=True, eq=False)
class ThicknessProfile:
    """Material samples across the thickness interval ``[-1/2, 1/2]``.

    ``rule`` declares how the samples are meant to be integrated:

    - ``layers``: ``breaks`` has ``len(forms)+1`` strictly increasing
      entries spanning the interval; each form is constant on its layer.
    - ``midpoint``: uniform cell-centered samples, treated as
      piecewise-constant layers on the uniform cells (exact moments).
    - ``gauss``: samples live at the Gauss-Legendre nodes of order
      ``len(forms)`` on the interval and integrate with the GL weights.
    """

    forms: tuple
    rule: str = RULE_MIDPOINT
    breaks: np.ndarray | None = None

    def __post_init__(self):
        forms = tuple(self.forms)
        if not forms:
            raise ValueError("profile needs at least one sample")
        kinds = {type(f) for f in forms}
        if kinds - {QuadForm2, QuadForm3} or len(kinds) != 1:
            raise ValueError("profile samples must be all QuadForm2 or all QuadForm3")
        object.__setattr__(self, "forms", forms)
        if self.rule == RULE_LAYERS:
            br = np.array(self.breaks, dtype=float)
            if br.ndim != 1 or br.size != len(forms) + 1:
                raise ValueError("layer profile needs len(forms)+1 breakpoints")
            if not np.all(np.diff(br) > 0.0):
                raise ValueError("layer breakpoints must be strictly increasing")
            if abs(br[0] + 0.5) > 1e-12 or abs(br[-1] - 0.5) > 1e-12:
                raise ValueError("layer breakpoints must span [-1/2, 1/2]")
            br.setflags(write=False)
            object.__setattr__(self, "breaks", br)
        elif self.rule in (RULE_MIDPOINT, RULE_GAUSS):
            if self.breaks is not None:
                raise ValueError(f"rule {self.rule!r} does not take breakpoints")
            if self.rule == RULE_GAUSS and len(forms) < 2:
                # a 1-point rule cannot see the second thickness moment
                raise ValueError("gauss profiles need at least 2 samples")
        else:
            raise ValueError(f"unknown sampling rule {self.rule!r}")

    @property
    def is2d(self) -> bool:
        return isinstance(self.forms[0], QuadForm2)

    def cell_bounds(self):
        """(lo, hi) arrays of the piecewise-constant cells, or None for gauss."""
        n = len(self.forms)
        if self.rule == RULE_LAYERS:
            return self.breaks[:-1], self.breaks[1:]
        if self.rule == RULE_MIDPOINT:
            edges = np.linspace(-0.5, 0.5, n + 1)
            return edges[:-1], edges[1:]
        return None

    def gauss_nodes(self):
        x, w = np.polynomial.legendre.leggauss(len(self.forms))
        return 0.5 * x, 0.5 * w


@dataclass(frozen=True, eq=False)
class MomentTriple:
    """Zeroth/first/second thickness moments of a 2D form profile."""

    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray


def spd_schur(A, Bt, D, error: Exception):
    """``(S, X)``: the Schur complement ``S`` of the positive definite block
    ``D`` in ``[[A, Bt^T], [Bt, D]]``, symmetrized, and ``X = D^-1 Bt``.

    ``S = 0.5 (Q + Q^T)`` with ``Q = A - Bt^T X``; minimizing the quadratic
    form over the ``D`` slots leaves ``S`` with minimizer ``-X``.  Raises
    ``error`` when ``D`` fails the Cholesky test.  When ``S`` or ``X`` is not
    finite (a ``D`` nearly singular against ``Bt``), it raises an error of
    the same class, hence the same exit code, that says so: ``D`` passed.
    """
    try:
        np.linalg.cholesky(D)
    except np.linalg.LinAlgError:
        raise error from None
    with np.errstate(all="ignore"):
        X = np.linalg.solve(D, Bt)
        Q = A - Bt.T @ X
        S = 0.5 * (Q + Q.T)
    if not (np.isfinite(S).all() and np.isfinite(X).all()):
        raise type(error)(
            f"the Schur complement or minimizer of a positive definite {len(D)}x{len(D)} "
            "block overflows double precision: the block is nearly singular against its "
            "coupling")
    return S, X


def plane_stress_reduce(q3: QuadForm3):
    """Minimize a 3D form over its out-of-plane strain slots.

    Returns ``(q2, dstar)`` where ``q2`` acts on in-plane Mandel
    coordinates and ``dstar`` (3x3) maps those coordinates to the
    minimizing vector ``d`` of the augmentation
    ``d (x) e3 + e3 (x) d``.  ``q2`` is the Schur complement of the
    out-of-plane block of the 6x6 matrix.
    """
    C = q3.matrix
    p, o = list(IN_PLANE), list(OUT_OF_PLANE)
    reduced, X = spd_schur(
        C[np.ix_(p, p)], C[np.ix_(o, p)], C[np.ix_(o, o)],
        DegenerateMaterialError("out-of-plane block of the material form is not positive definite"),
    )
    dstar = _OOP_TO_D @ (-X)
    label = f"plane-stress({q3.label})" if q3.label else ""
    return QuadForm2(reduced, label=label), dstar


def reduce_profile(profile: ThicknessProfile) -> ThicknessProfile:
    """Apply the plane-stress reduction to every sample of a 3D profile."""
    if profile.is2d:
        return profile
    forms2 = tuple(plane_stress_reduce(f)[0] for f in profile.forms)
    return ThicknessProfile(forms2, rule=profile.rule, breaks=profile.breaks)


def _segment_moments(lo, hi):
    """Integrals of 1, x, x^2 over [lo, hi]."""
    return hi - lo, 0.5 * (hi**2 - lo**2), (hi**3 - lo**3) / 3.0


def moment_matrices(profile: ThicknessProfile) -> MomentTriple:
    """Thickness moments ``Mk = int x3^k C2(x3) dx3`` of a 2D profile."""
    if not profile.is2d:
        raise ValueError("moment integrals act on 2D (plane-stress reduced) profiles")
    mats = np.stack([f.matrix for f in profile.forms])
    if profile.rule == RULE_GAUSS:
        x, w = profile.gauss_nodes()
        m0 = np.einsum("i,ijk->jk", w, mats)
        m1 = np.einsum("i,i,ijk->jk", w, x, mats)
        m2 = np.einsum("i,i,ijk->jk", w, x * x, mats)
    else:
        lo, hi = profile.cell_bounds()
        w0, w1, w2 = _segment_moments(lo, hi)
        m0 = np.einsum("i,ijk->jk", w0, mats)
        m1 = np.einsum("i,ijk->jk", w1, mats)
        m2 = np.einsum("i,ijk->jk", w2, mats)
    return MomentTriple(m0=m0, m1=m1, m2=m2)


def bending_form(profile: ThicknessProfile):
    """Bending stiffness of a thickness profile.

    Returns ``(q0, bstar)``:  ``q0`` has matrix ``M2 - M1 M0^-1 M1`` and
    ``bstar = -M0^-1 M1`` maps a curvature (Mandel) to the minimizing
    mid-plane strain.  3D profiles are plane-stress reduced first.
    """
    profile = reduce_profile(profile)
    mom = moment_matrices(profile)
    q0, X = spd_schur(mom.m2, mom.m1, mom.m0,
                      DegenerateProfileError("zeroth thickness moment is not positive definite"))
    return QuadForm2(q0), -X


def profile_average(profile: ThicknessProfile) -> QuadForm2:
    """Thickness average of a 2D profile (its zeroth moment)."""
    return QuadForm2(moment_matrices(profile).m0)


def oscillation_experiment(base: ThicknessProfile, n: int) -> QuadForm2:
    """Bending form of the profile ``x3 -> C2(n*x3)``.

    ``base`` is a piecewise-constant 2D profile on the thickness interval,
    extended 1-periodically; squeezing ``n`` periods into the interval
    models a material oscillating on scale ``1/n`` through the thickness.
    The scaled profile is re-layered exactly, so the moments carry no
    quadrature error.  As ``n`` grows the result converges to the bending
    form of the constant average profile: thickness-only oscillation
    leaves no memory beyond its mean.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"period count must be a positive integer, got {n}")
    n = int(n)
    if not base.is2d:
        base = reduce_profile(base)
    if base.rule == RULE_GAUSS:
        raise ValueError("oscillation experiment needs a piecewise-constant base profile")
    lo, hi = base.cell_bounds()

    # Breakpoints of x3 -> base(wrap(n*x3)): preimages of the base layer
    # edges, i.e. (k + edge) / n for every integer shift k that lands in I.
    k = np.arange(-(n // 2) - 1, n // 2 + 2)
    edges = np.concatenate(([-0.5], lo[1:], [0.5]))
    x = ((k[:, None] + edges) / n).ravel()
    br = np.unique(np.clip(x[(-0.5 - 1e-14 <= x) & (x <= 0.5 + 1e-14)], -0.5, 0.5))
    br[0], br[-1] = -0.5, 0.5

    # each new layer takes the base form at its midpoint, wrapped into [-1/2, 1/2)
    mid = (n * 0.5 * (br[:-1] + br[1:]) + 0.5) % 1.0 - 0.5
    layer = np.minimum(np.searchsorted(hi, mid, side="right"), len(base.forms) - 1)
    forms = tuple(base.forms[i] for i in layer)
    scaled = ThicknessProfile(forms, rule=RULE_LAYERS, breaks=br)
    return bending_form(scaled)[0]
