"""Symmetric-matrix encodings and quadratic-form containers.

Symmetric 3x3 matrices are stored as orthonormal (Mandel) 6-vectors
``(m11, m22, m33, sqrt2*m23, sqrt2*m13, sqrt2*m12)`` and symmetric 2x2
matrices as ``(a11, a22, sqrt2*a12)``.  The sqrt(2) weights make the
coordinate 2-norm equal the Frobenius norm of the matrix, so ellipticity
bounds of a quadratic form become an eigenvalue interval test on its
coefficient matrix, and static condensation is a plain Schur complement.

Quadratic forms act on Mandel coordinates: ``Q(G) = g^T C g`` with
``g = mandel3(G)``.  Because the encoding symmetrizes its argument,
``Q(G) == Q(sym G)`` holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError

SQRT2 = np.sqrt(2.0)

# Mandel slot groups used by the plane-stress / fiber reductions:
# in-plane slots carry the 2x2 sub-block, out-of-plane the third row/column.
IN_PLANE = (0, 1, 5)
OUT_OF_PLANE = (2, 3, 4)

# Relative residual tolerance of the corrector solves when none is given.
DEFAULT_TOL = 1e-10

# Rounding allowance of the bounds tests, relative (``MaterialBounds.slack``).
BOUNDS_RTOL = 1e-9


def mandel3(G) -> np.ndarray:
    """Mandel 6-vector of ``sym(G)`` for a full 3x3 matrix ``G``."""
    G = np.asarray(G, dtype=float)
    if G.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {G.shape}")
    s = 0.5 * (G + G.T)
    return np.array(
        [s[0, 0], s[1, 1], s[2, 2], SQRT2 * s[1, 2], SQRT2 * s[0, 2], SQRT2 * s[0, 1]]
    )


def unmandel3(m) -> np.ndarray:
    """Symmetric 3x3 matrix from its Mandel 6-vector."""
    m = np.asarray(m, dtype=float)
    if m.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {m.shape}")
    a, b, c = m[3] / SQRT2, m[4] / SQRT2, m[5] / SQRT2
    return np.array([[m[0], c, b], [c, m[1], a], [b, a, m[2]]])


def mandel2(A) -> np.ndarray:
    """Mandel 3-vector of ``sym(A)`` for a full 2x2 matrix ``A``."""
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    return np.array([A[0, 0], A[1, 1], SQRT2 * 0.5 * (A[0, 1] + A[1, 0])])


def unmandel2(m) -> np.ndarray:
    """Symmetric 2x2 matrix from its Mandel 3-vector."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {m.shape}")
    c = m[2] / SQRT2
    return np.array([[m[0], c], [c, m[1]]])


def embed2to3(a) -> np.ndarray:
    """Mandel 6-vector of the in-plane embedding of a Mandel 3-vector."""
    a = np.asarray(a, dtype=float)
    g = np.zeros(6)
    g[[0, 1, 5]] = a
    return g


# 6x3 matrix of embed2to3, handy when assembling loads.
EMBED_2_TO_3 = np.zeros((6, 3))
EMBED_2_TO_3[0, 0] = EMBED_2_TO_3[1, 1] = EMBED_2_TO_3[5, 2] = 1.0


def _asymmetry(m):
    """``(asym, bad)`` per matrix of a stack ``m`` (..., n, n): the largest entry
    of ``|m - m^T|``, and whether it exceeds ``1e-12 * max(1, max |m|)``."""
    d = m - m.swapaxes(-1, -2)
    asym = np.abs(d, out=d).max(axis=(-2, -1))
    size = np.maximum(m.max(axis=(-2, -1)), -m.min(axis=(-2, -1)))
    return asym, asym > 1e-12 * np.maximum(size, 1.0)


def _frozen_sym(matrix, n, what):
    m = np.array(matrix, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    asym, bad = _asymmetry(m)
    if bad:
        raise ValueError(f"{what} is not symmetric (max asymmetry {asym:.3e})")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class QuadForm3:
    """Quadratic form on symmetric 3x3 matrices (6x6 Mandel matrix)."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_sym(self.matrix, 6, "QuadForm3 matrix"))

    def eval_mandel(self, g) -> float:
        g = np.asarray(g, dtype=float)
        return float(g @ self.matrix @ g)

    def eval(self, G) -> float:
        """Energy at a (not necessarily symmetric) 3x3 matrix."""
        return self.eval_mandel(mandel3(G))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True, eq=False)
class QuadForm2:
    """Quadratic form on symmetric 2x2 matrices (3x3 Mandel matrix)."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_sym(self.matrix, 3, "QuadForm2 matrix"))

    def eval_mandel(self, a) -> float:
        a = np.asarray(a, dtype=float)
        return float(a @ self.matrix @ a)

    def eval(self, A) -> float:
        return self.eval_mandel(mandel2(A))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class MaterialBounds:
    """Ellipticity interval ``0 < eta1 <= eta2`` for admissible materials."""

    eta1: float
    eta2: float

    def __post_init__(self):
        if not (self.eta1 > 0.0):
            raise AdmissibilityError(f"eta1 must be positive, got {self.eta1}")
        if not (self.eta2 >= self.eta1):
            raise AdmissibilityError(
                f"bounds must satisfy eta1 <= eta2, got ({self.eta1}, {self.eta2})"
            )

    @property
    def slack(self) -> float:
        """How far an eigenvalue may pass the bounds: ``BOUNDS_RTOL * max(eta2, 1)``."""
        return BOUNDS_RTOL * max(self.eta2, 1.0)

    @classmethod
    def inferred(cls, eig, cells=None, scale=None) -> "MaterialBounds":
        """The tightest bounds of the samples of ``assess``: their extreme eigenvalues."""
        lo, hi = _sample_extremes(eig, cells, scale)
        return cls(float(lo.min()), float(hi.max()))

    def assess(self, samples, eig, what: str, cells=None, scale=None) -> tuple:
        """The violations of a stack of material samples.

        ``samples`` (m, ..., k, k) holds ``m`` groups of laws and ``eig``
        their ascending eigenvalues (m, ..., k), as ``np.linalg.eigvalsh``
        gives them; only the first and last along the last axis are read, so
        each group's two extremes will do.  Sample ``j`` is group ``cells[j]``
        scaled by ``scale[j] > 0``; by default each group once, unscaled.
        The result holds one text per failed test, in this order, each
        naming the first offending sample as ``what.format(j)``: a law not
        symmetric within ``1e-12 * max(1, max |entry|)``, an eigenvalue below
        ``eta1`` or above ``eta2`` by more than ``slack``.
        ``eigvalsh`` reads one triangle only, so its bounds hold for
        symmetric laws alone.
        """
        m = len(samples)
        asym, bad = _asymmetry(samples)
        asym, bad = asym.reshape(m, -1).max(axis=1), bad.reshape(m, -1).any(axis=1)
        if cells is not None:
            asym, bad = asym[cells], bad[cells]
        lo, hi = _sample_extremes(eig, cells, scale)
        tests = (
            (bad, "{what} is not symmetric (max asymmetry {asym:.3e})"),
            (lo < self.eta1 - self.slack,
             "{what} violates lower bound: eigenvalue {lo:.6g} < eta1={eta1:.6g}"),
            (hi > self.eta2 + self.slack,
             "{what} violates upper bound: eigenvalue {hi:.6g} > eta2={eta2:.6g}"),
        )
        violations = []
        for failed, text in tests:
            if failed.any():
                j = int(np.argmax(failed))
                violations.append(text.format(what=what.format(j), asym=asym[j], lo=lo[j],
                                              hi=hi[j], eta1=self.eta1, eta2=self.eta2))
        return tuple(violations)

    def require(self, samples, eig, what: str, cells=None, scale=None) -> None:
        """``AdmissibilityError`` with the first failure of ``assess``, if any."""
        violations = self.assess(samples, eig, what, cells, scale)
        if violations:
            raise AdmissibilityError(violations[0])


def _sample_extremes(eig, cells, scale):
    """Smallest and largest eigenvalue of each sample of ``MaterialBounds.assess``."""
    m = len(eig)
    lo, hi = eig[..., 0].reshape(m, -1).min(axis=1), eig[..., -1].reshape(m, -1).max(axis=1)
    if cells is not None:
        lo, hi = lo[cells], hi[cells]
    if scale is not None:
        lo, hi = scale * lo, scale * hi
    return lo, hi


def qf_eval(q: QuadForm3 | QuadForm2, G) -> float:
    """Evaluate a quadratic form at a full matrix argument."""
    return q.eval(G)


def qf_isotropic(mu: float, lam: float, label: str = "") -> QuadForm3:
    """Isotropic form ``G -> 2*mu*|sym G|^2 + lam*(tr G)^2``.

    Mandel matrix is ``2*mu*I + lam*t t^T`` with ``t = (1,1,1,0,0,0)``,
    whose eigenvalues are ``2*mu`` (multiplicity 5) and ``2*mu + 3*lam``.
    """
    if not (mu > 0.0):
        raise ValueError(f"shear modulus must be positive, got {mu}")
    if lam < 0.0:
        raise ValueError(f"second parameter must be non-negative, got {lam}")
    t = np.zeros(6)
    t[:3] = 1.0
    return QuadForm3(2.0 * mu * np.eye(6) + lam * np.outer(t, t), label=label)


@dataclass(frozen=True)
class ClassCheckReport:
    """Result of an ellipticity-class check of a quadratic form."""

    passed: bool
    eig_min: float
    eig_max: float
    eta1: float
    eta2: float
    violations: tuple = ()

    def raise_if_failed(self):
        if not self.passed:
            raise AdmissibilityError("; ".join(self.violations))


def qf_check_class(q: QuadForm3, bounds: MaterialBounds) -> ClassCheckReport:
    """Check ``eta1*|sym G|^2 <= Q(G) <= eta2*|sym G|^2`` for all G.

    In the orthonormal encoding this is exactly an eigenvalue interval
    test on the coefficient matrix, which also implies the Lipschitz-type
    bound ``|Q(G1)-Q(G2)| <= eta2*|sym G1 - sym G2|*|sym G1 + sym G2|``.
    """
    eig = np.linalg.eigvalsh(q.matrix)
    violations = bounds.assess(q.matrix[None], eig[None], "form")
    return ClassCheckReport(
        passed=not violations,
        eig_min=float(eig[0]),
        eig_max=float(eig[-1]),
        eta1=bounds.eta1,
        eta2=bounds.eta2,
        violations=violations,
    )


@dataclass(frozen=True, eq=False)
class EffectiveReport:
    """Effective bending form plus solver provenance.

    ``optimal_b`` is the linear map (Mandel coordinates) from the
    curvature argument to the minimizing mid-plane strain.
    """

    form: QuadForm2
    optimal_b: np.ndarray
    regime: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        b = np.array(self.optimal_b, dtype=float)
        if b.shape != (3, 3):
            raise ValueError(f"optimal_b must be 3x3, got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "optimal_b", b)

    def eigenvalues(self) -> np.ndarray:
        return self.form.eigenvalues()
