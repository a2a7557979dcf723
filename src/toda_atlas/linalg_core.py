"""Dense small-matrix primitives shared by every other module.

Matrices are plain float numpy arrays (2 <= n <= 12 is the supported
range; nothing here is tuned for large n). The two structured values,
:class:`Spectrum` and :class:`IsospectralWitness`, are immutable and
validated on construction. All operations are pure functions, so the
whole module is safe to call concurrently. The eigendecomposition is
LAPACK's symmetric solver (``numpy.linalg.eigh``) with the package's
normalization and checks added on top.

Public functions validate their arguments with :func:`as_matrix`. The
private ``_`` kernels do not: they take a float matrix a caller has
already checked, so inner loops (the flow fields, the integrator)
validate once per call instead of once per primitive. The public
functions wrap the kernels and give the same bits.

The inner product throughout is the trace form ``trace(X Y)``. It is a
positive multiple of the Killing form, and only signs and monotonicity
of norms ever matter here, so the constant is dropped.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "IsospectralWitness",
    "as_matrix",
    "require_unit_lower",
    "commutator",
    "pi_k",
    "pi_u",
    "theta",
    "btheta_norm_sq",
    "symmetric_eigen",
    "isospectral_witness",
]

TRACE_TOL = 1e-12
GAP_TOL = 1e-8


def as_matrix(x) -> np.ndarray:
    """Validate and return a finite square float matrix with n >= 2."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError(f"matrices must be at least 2x2, got {a.shape[0]}x{a.shape[0]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def require_unit_lower(g, tol: float = 1e-12) -> np.ndarray:
    """Validate that g is unit lower triangular within tol."""
    g = as_matrix(g)
    if np.max(np.abs(np.diag(g) - 1.0)) > tol:
        raise ValueError("matrix is not unit lower triangular: diagonal differs from 1")
    if np.max(np.abs(np.triu(g, 1))) > tol:
        raise ValueError("matrix is not unit lower triangular: nonzero entries above the diagonal")
    return g


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing real eigenvalues summing to zero.

    The decreasing order pins the base point ``diag(values)`` inside the
    positive Weyl chamber; every chart and flow statement in the package
    relies on that normalization.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("a spectrum needs at least two eigenvalues")
        if not all(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"eigenvalues must be strictly decreasing: {vals}")
        total = sum(vals)
        if abs(total) > TRACE_TOL:
            raise ValueError(f"eigenvalues must sum to zero, got {total!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def diag(self) -> np.ndarray:
        return np.diag(self.values)

    def min_gap(self) -> float:
        return min(a - b for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class IsospectralWitness:
    """Power traces trace(x), trace(x^2), ..., trace(x^n).

    A smooth, well-conditioned stand-in for the spectrum itself: two
    matrices related by a similarity transform have identical witnesses,
    so drift of the witness along a trajectory measures loss of
    isospectrality without re-running an eigensolver. The Frobenius norm
    of the source matrix is kept so drift can be measured relative to
    the natural scale of each power (a trace of k-th powers is a sum of
    terms of size norm^k; power traces that happen to vanish, as all odd
    ones do for a symmetric spectrum, would otherwise be held to an
    absolute ruler).
    """

    power_traces: tuple
    frobenius: float = 1.0

    def _drift_scale(self) -> np.ndarray:
        """Per-power rulers max(1, |trace(x^k)|, ||x||_F^k), k = 1..n, of
        drift measured against this witness."""
        return np.array(
            [
                max(1.0, abs(b), self.frobenius ** k)
                for k, b in enumerate(self.power_traces, start=1)
            ]
        )

    def drift_from(self, reference: "IsospectralWitness") -> float:
        """Largest relative deviation from a reference witness."""
        if len(self.power_traces) != len(reference.power_traces):
            raise ValueError("witnesses have different lengths")
        return _relative_drift(
            np.array(self.power_traces),
            np.array(reference.power_traces),
            reference._drift_scale(),
        )


def _relative_drift(traces, reference, scale) -> float:
    """max_k |traces_k - reference_k| / scale_k, with scale from
    :meth:`IsospectralWitness._drift_scale` of the reference."""
    return float(np.max(np.abs(traces - reference) / scale))


@functools.lru_cache(maxsize=64)
def _strict_lower_mask(n: int) -> np.ndarray:
    """Read-only boolean mask of the strictly lower triangle of an n x n
    matrix (what ``np.tril(x, -1)`` keeps)."""
    mask = np.tri(n, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _pi_k(x: np.ndarray) -> np.ndarray:
    """Unchecked :func:`pi_k` of a validated float matrix."""
    low = np.where(_strict_lower_mask(x.shape[0]), x, 0.0)
    return low - low.T


def _power_traces(x: np.ndarray) -> np.ndarray:
    """Unchecked trace(x), trace(x^2), ..., trace(x^n) of a validated
    float matrix. One trace call over the stacked powers sums each
    diagonal as ``np.trace`` of that power does (the tests hold the two
    bitwise equal)."""
    n = x.shape[0]
    powers = np.empty((n, n, n))
    power = np.eye(n)
    for k in range(n):
        power = np.matmul(power, x, out=powers[k])
    return powers.trace(axis1=1, axis2=2)


def commutator(a, b) -> np.ndarray:
    """Matrix commutator a b - b a."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def pi_k(x) -> np.ndarray:
    """Skew-symmetric component of the skew + upper-triangular splitting.

    Returns ``low - low.T`` where ``low`` is the strictly lower part of x.
    """
    return _pi_k(as_matrix(x))


def pi_u(x) -> np.ndarray:
    """Upper-triangular component of the skew + upper-triangular splitting."""
    x = as_matrix(x)
    return x - _pi_k(x)


def theta(x) -> np.ndarray:
    """Cartan involution -x.T; fixes skew matrices, negates symmetric ones."""
    return -as_matrix(x).T


def btheta_norm_sq(x) -> float:
    """Frobenius norm square trace(x x.T)."""
    x = as_matrix(x)
    return float(np.sum(x * x))


def isospectral_witness(x) -> IsospectralWitness:
    """Power traces of x up to order n."""
    x = as_matrix(x)
    return IsospectralWitness(tuple(_power_traces(x).tolist()), float(np.linalg.norm(x)))


def symmetric_eigen(y):
    """Diagonalize a symmetric traceless matrix with LAPACK's ``eigh``.

    Returns ``(spectrum, q)`` with q special orthogonal (det +1, one
    column sign flipped if needed), columns ordered by strictly
    decreasing eigenvalue, and ``q @ spectrum.diag() @ q.T`` equal to y
    within 1e-10.

    Raises ValueError for non-symmetric input or when two eigenvalues
    collide below the regularity gap (the constructions downstream need
    a simple spectrum).
    """
    y = as_matrix(y)
    scale = max(1.0, float(np.linalg.norm(y)))
    if np.linalg.norm(y - y.T) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")

    eigs, q = np.linalg.eigh(0.5 * (y + y.T))
    lam = eigs[::-1]
    q = q[:, ::-1]

    gaps = -np.diff(lam)
    if np.any(gaps <= GAP_TOL):
        i = int(np.argmin(gaps))
        raise ValueError(
            f"eigenvalue collision: gap {gaps[i]:.3e} between eigenvalues "
            f"{i + 1} and {i + 2} is below {GAP_TOL:.0e}"
        )

    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]

    spectrum = Spectrum(tuple(lam))
    residual = np.linalg.norm(q @ spectrum.diag() @ q.T - y)
    if residual > 1e-10 * scale:
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} too large")
    return spectrum, q
