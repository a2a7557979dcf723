"""Dense small-matrix primitives shared by every other module.

Matrices are plain float numpy arrays (2 <= n <= 12 is the supported
range; nothing here is tuned for large n). The two structured values,
:class:`Spectrum` and :class:`IsospectralWitness`, are immutable and
validated on construction. All operations are pure functions, so the
whole module is safe to call concurrently. The eigendecomposition is
LAPACK's symmetric solver (``numpy.linalg.eigh``) with the package's
normalization and checks added on top.

Public functions validate their arguments with :func:`as_matrix` (or
:func:`as_matrices` where a stack of matrices is accepted). The private
``_`` kernels do not: they take float matrices a caller has already
checked, so inner loops (the flow fields, the integrator) validate once
per call instead of once per primitive. The public functions wrap the
kernels and give the same bits. ``_pi_k``, ``_power_traces`` and
``_eigen_stack`` act on the last two axes, so they take a stack as well as
one plain (n, n) matrix, and each matrix of a stack gets the bits it
would get alone: ``symmetric_eigen`` and ``FlagPoint`` diagonalize their
matrix plain (``symmetric_eigen`` at n = 4 / 12 makes 39 / 38 numpy calls,
counted as in ``atlas``). ``_dot`` is the matrix product of the plain and
stack kernels.

The inner product throughout is the trace form ``trace(X Y)``. It is a
positive multiple of the Killing form, and only signs and monotonicity
of norms ever matter here, so the constant is dropped.
"""

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "IsospectralWitness",
    "as_matrix",
    "as_matrices",
    "require_unit_lower",
    "commutator",
    "pi_k",
    "pi_u",
    "symmetric_eigen",
    "isospectral_witness",
]

TRACE_TOL = 1e-12
GAP_TOL = 1e-8

_KEEP_ERRSTATE = contextlib.nullcontext()  # leaves numpy's error state as it is


def as_matrix(x) -> np.ndarray:
    """Validate and return a finite square float matrix with n >= 2."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return as_matrices(a)


def as_matrices(x) -> np.ndarray:
    """Validate and return a finite float array of square n x n matrices,
    n >= 2, stacked over any leading axes (``(..., n, n)``)."""
    a = np.asarray(x, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if n < 2:
        raise ValueError(f"matrices must be at least 2x2, got {n}x{n}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _finite(message: str, kernel, *args) -> np.ndarray:
    """kernel(*args), run with no overflow or invalid-value warning; raises
    ValueError(message) when the result is not finite. The guard of a
    public map whose kernel can overflow on finite input."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = kernel(*args)
    if not np.isfinite(result).all():
        raise ValueError(message)
    return result


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
        # also rejects +-inf, whose sum could be NaN and pass the trace check
        if not math.isfinite(vals[0] - vals[-1]):
            raise ValueError(f"eigenvalues must be finite with a finite spread: {vals}")
        total = sum(vals)
        if abs(total) > TRACE_TOL:
            raise ValueError(f"eigenvalues must sum to zero, got {total!r}")

    @classmethod
    def _of(cls, values: tuple) -> "Spectrum":
        """A spectrum from a tuple of floats a kernel has checked."""
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "values", values)
        return spectrum

    @property
    def n(self) -> int:
        return len(self.values)

    def diag(self) -> np.ndarray:
        return np.diag(self.values)


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


def _dot(plain: bool):
    """The matrix product of the kernels: ``ndarray.dot`` for one (n, n)
    matrix (plain) and ``np.matmul`` for a stack. Both make the same BLAS
    call (gemm, or syrk for x x^T and x^T x), so a matrix gets the same
    bits either way; ``dot`` costs about half of ``@``'s dispatch."""
    return np.ndarray.dot if plain else np.matmul


def _pi_k(x: np.ndarray) -> np.ndarray:
    """Unchecked :func:`pi_k` of a validated float matrix or stack; the
    kernel of the public ``pi_k`` and ``pi_u`` (the flow fields take
    their projections as masked multiplies with the same bits)."""
    low = np.where(_strict_lower_mask(x.shape[-1]), x, 0.0)
    return low - low.swapaxes(-1, -2)


def _power_traces(x: np.ndarray) -> np.ndarray:
    """Unchecked trace(x), trace(x^2), ..., trace(x^n) of a validated
    float matrix, or of each matrix of an ``(..., n, n)`` stack along a
    new last axis. Each trace sums a diagonal as ``np.trace`` of that
    power does (the tests hold the two bitwise equal), and only one power
    of each matrix is held at a time."""
    n = x.shape[-1]
    traces = np.empty(x.shape[:-2] + (n,))
    power = np.eye(n)
    for k in range(n):
        power = power @ x
        traces[..., k] = power.trace(axis1=-2, axis2=-1)
    return traces


def commutator(a, b) -> np.ndarray:
    """Matrix commutator a b - b a.

    Raises ValueError, without a warning, when an entry overflows."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _finite(
        "commutator overflows: an entry of a b - b a is not finite", lambda: a @ b - b @ a
    )


def pi_k(x) -> np.ndarray:
    """Skew-symmetric component of the skew + upper-triangular splitting.

    Returns ``low - low.T`` where ``low`` is the strictly lower part of x.
    """
    return _pi_k(as_matrix(x))


def pi_u(x) -> np.ndarray:
    """Upper-triangular component of the skew + upper-triangular splitting.

    Raises ValueError, without a warning, when an entry above the
    diagonal, x_ij + x_ji, overflows."""
    x = as_matrix(x)
    return _finite("pi_u overflows: an entry of x - pi_k(x) is not finite", lambda: x - _pi_k(x))


def isospectral_witness(x) -> IsospectralWitness:
    """Power traces of x up to order n.

    Raises ValueError, without a warning, when a power trace or its drift
    ruler ||x||_F^k overflows: drift measured against such a witness
    would mean nothing.
    """
    x = as_matrix(x)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = _power_traces(x)
        frobenius = float(np.linalg.norm(x))
    witness = IsospectralWitness(tuple(traces.tolist()), frobenius)
    try:
        finite = np.isfinite(traces).all() and np.isfinite(witness._drift_scale()).all()
    except OverflowError:  # a Python float power out of range
        finite = False
    if not finite:
        raise ValueError(
            f"matrix is too large for its power-trace witness: a trace of a power up to "
            f"{x.shape[0]} or its ruler overflows (Frobenius norm {frobenius:.3e})"
        )
    return witness


def _eigen_stack(y: np.ndarray):
    """Unchecked :func:`symmetric_eigen` of one finite (n, n) matrix, or of
    each matrix of a finite (B, n, n) stack.

    Returns ``(lam, q, failures)``: lam, (n,) or (B, n), holds each spectrum
    in strictly decreasing order, q, of y's shape, the frames, and failures
    maps the index of each matrix (0 for one matrix) that
    ``symmetric_eigen`` refuses to the exception it raises, checked in its
    order: symmetry, overflow of the symmetric part ``0.5 * (y + y^T)``
    (solved as zero instead, with no warning), gap, trace, residual, and
    last the rest of :class:`Spectrum`'s checks (an eigenvalue spread past
    the double range, whose residual is taken with no warning), so the
    spectrum of an accepted matrix needs no check of its own. The lam and
    q of a refused matrix mean nothing. A matrix gets the same bits alone,
    plain, and in any stack.
    """
    n = y.shape[-1]
    yt = y.mT
    # (..., 1, 1), so one matrix's reductions stay arrays and broadcast
    _, exponents = np.frexp(np.abs(y).max(axis=(-2, -1), keepdims=True))
    # an entry of y + y^T can overflow only where one of y reaches 2**1023
    overflow = exponents > 1023
    if overflow.any():
        with np.errstate(over="ignore"):
            sym = 0.5 * (y + yt)
        overflow = ~np.isfinite(sym).all(axis=(-2, -1))
        sym[overflow] = 0.0
    else:
        sym = 0.5 * (y + yt)
    eigs, q = np.linalg.eigh(sym)
    lam = eigs[..., ::-1]
    q = q[..., ::-1]
    _make_special(q)
    # Spectrum's trace and spread checks, summed and subtracted as it does
    rows = lam.reshape(-1, n).tolist()
    totals = [sum(row) for row in rows]
    finite_spreads = all(math.isfinite(row[0] - row[-1]) for row in rows)
    # Frobenius norms of y, of y - y^T and of the residual, one row each,
    # taken on each matrix scaled by a power of two to a largest entry in
    # [1/2, 1): exact, so the checks decide as unscaled wherever nothing
    # overflows, and no square overflows; a subnormal largest entry takes
    # the largest finite power, 2**1023, and lands below 2. An infinite
    # eigenvalue (a spread past the double range) makes the residual and
    # the gaps inf or NaN; they are taken with no warning
    scale = np.ldexp(1.0, -np.maximum(exponents, -1023))
    ys = scale * y
    with np.errstate(over="ignore", invalid="ignore") if not finite_spreads else _KEEP_ERRSTATE:
        residual = (q * (scale * lam[..., None, :])) @ q.mT - ys
        gaps = (lam[..., :-1] - lam[..., 1:]).reshape(-1, n - 1)
    flat = np.concatenate([ys, ys - ys.mT, residual]).reshape(3, -1, n * n)
    norms = np.sqrt(np.vecdot(flat, flat))
    scales = scale.reshape(-1)
    bound = 1e-10 * np.maximum(scales, norms[0])

    failures = {}
    # a NaN gap fails the gap check, so past it Spectrum's checks are the
    # trace and the spread; each row is sorted, so no gap is wider than its
    # spread
    accepted = (
        gaps.min(initial=np.inf) > GAP_TOL and (norms[1:] <= bound).all() and finite_spreads
    )
    if not (accepted and max(map(abs, totals), default=0.0) <= TRACE_TOL):
        overflow = overflow.reshape(-1)
        for i, total in enumerate(totals):
            if norms[1, i] > bound[i]:
                failures[i] = ValueError("matrix is not symmetric")
            elif overflow[i]:
                failures[i] = ValueError(
                    "matrix is too large to diagonalize: its symmetric part "
                    "0.5 * (y + y^T) overflows"
                )
            elif np.any(gaps[i] <= GAP_TOL):
                failures[i] = _collision(gaps[i])
            elif abs(total) > TRACE_TOL:
                failures[i] = ValueError(f"eigenvalues must sum to zero, got {total!r}")
            elif norms[2, i] > bound[i]:
                failures[i] = RuntimeError(
                    f"eigendecomposition residual {norms[2, i] / scales[i]:.3e} too large"
                )
            else:
                try:  # a spectrum past the double range, refused as Spectrum refuses it
                    Spectrum(tuple(rows[i]))
                except ValueError as err:
                    failures[i] = err
    return lam, q, failures


def _make_special(q) -> None:
    """Negate, in place, the last column of an orthogonal (n, n) q, or of
    each matrix of a (B, n, n) stack, whose determinant is negative."""
    flip = np.linalg.det(q) < 0.0
    if flip.any():
        q[..., -1][flip] *= -1.0


def _collision(gaps) -> ValueError:
    """The ValueError for a spectrum whose consecutive gaps (1-D, in
    order) include one at or below GAP_TOL, naming the smallest."""
    k = int(np.argmin(gaps))
    return ValueError(
        f"eigenvalue collision: gap {gaps[k]:.3e} between eigenvalues "
        f"{k + 1} and {k + 2} is below {GAP_TOL:.0e}"
    )


def symmetric_eigen(y):
    """Diagonalize a symmetric traceless matrix with LAPACK's ``eigh``.

    Returns ``(spectrum, q)`` with q special orthogonal (det +1, one
    column sign flipped if needed), columns ordered by strictly
    decreasing eigenvalue, and ``q @ spectrum.diag() @ q.T`` equal to y
    within 1e-10.

    Raises ValueError for non-symmetric input, for input too large to
    average with its transpose (an entry of 2**1023 or more, in a
    symmetric matrix), when two eigenvalues collide below the regularity
    gap (the constructions downstream need a simple spectrum), when they
    do not sum to zero, or when their spread passes the double range. The
    one-matrix case of :func:`_eigen_stack`, whose checks cover
    :class:`Spectrum`'s, so the spectrum is built without running them
    again.
    """
    lam, q, failures = _eigen_stack(as_matrix(y))
    if failures:
        raise failures[0]
    return Spectrum._of(tuple(lam.tolist())), q
