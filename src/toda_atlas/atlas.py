"""Weyl-indexed charts on the manifold of symmetric matrices with fixed
simple spectrum, and their relation to the Bruhat-cell decomposition.

A flag point is a symmetric traceless matrix with the given strictly
decreasing spectrum h. The chart indexed by a permutation w identifies a
dense open subset of those points with the affine space of strictly
lower perturbations of the permuted diagonal matrix ``h_conjugate(h, w)``.
The forward map strips the permutation from the eigenframe a flag point
carries, factors it through the unit-lower projection, and conjugates the
permuted diagonal; the inverse is one graded QR (``_chart_point``).

The module owns the chart dynamics: in each chart the sorting flow is
linear, coordinate (i, j) growing at the gap d_i - d_j of the permuted
diagonal d (``chart_linear_field``, ``chart_flow_exact``, ``_chart_point``).
Public functions validate their arguments, and a ``FlagPoint`` or
``ChartCoords`` is valid by construction; the private ``_`` kernels do
not validate.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ChartDomainError, FactorizationError
from .factorizations import _signed_qr, _unit_lower_inverse, unbar_factorize
from .linalg_core import Spectrum, as_matrix, symmetric_eigen
from .weyl_profiles import Permutation, _inverted_mask, perm_matrix

__all__ = [
    "FlagPoint",
    "ChartCoords",
    "BruhatClass",
    "h_conjugate",
    "nbar_from_affine",
    "chart_linear_field",
    "chart_flow_exact",
    "chart_inverse",
    "chart_domain_test",
    "chart_forward",
    "coords_from_frame",
    "bruhat_classify",
]

# Points whose frame has a trailing minor at or below this are treated as
# outside the chart; callers fall back to another chart (one always
# accepts). Strictly wider than the factorization pivot threshold, so an
# accepted point never hits a vanishing pivot downstream.
DOMAIN_MINOR_TOL = 1e-11

_EIGENVALUE_TOL = 1e-8
_EXP_LIMIT = 700.0  # double-precision exponent range guard


@dataclass(frozen=True)
class FlagPoint:
    """A symmetric matrix with the fixed simple spectrum h; ``frame`` is the
    read-only special orthogonal eigenframe of its validating symmetric_eigen.
    Without h, the spectrum is the one that same eigensolve finds."""

    y: np.ndarray
    h: Spectrum | None = None
    frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = as_matrix(self.y).copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        if self.h is not None and y.shape[0] != self.h.n:
            raise ValueError(f"dimension mismatch: matrix is {y.shape[0]}, spectrum is {self.h.n}")
        spectrum, frame = symmetric_eigen(y)
        if self.h is None:
            object.__setattr__(self, "h", spectrum)
        elif np.max(np.abs(np.array(spectrum.values) - np.array(self.h.values))) > _EIGENVALUE_TOL:
            raise ValueError(
                f"matrix eigenvalues {spectrum.values} do not match the declared spectrum {self.h.values}"
            )
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)


@dataclass(frozen=True)
class ChartCoords:
    """Chart value: strictly lower coordinates around the origin at w."""

    w: Permutation
    lower: np.ndarray
    h: Spectrum

    def __post_init__(self):
        lower = as_matrix(self.lower).copy()
        if lower.shape[0] != self.h.n or self.w.n != self.h.n:
            raise ValueError("permutation, spectrum, and coordinate sizes disagree")
        if np.any(np.triu(lower) != 0.0):
            raise ValueError("coordinates must be strictly lower triangular (exact zeros above)")
        lower.setflags(write=False)
        object.__setattr__(self, "lower", lower)


class BruhatClass(Enum):
    IN_BRUHAT = "in_bruhat"
    IN_OPPOSITE = "in_opposite"
    NEITHER = "neither"
    BOTH = "both"


def _permuted_diagonal(h: Spectrum, w: Permutation) -> np.ndarray:
    """Unchecked permuted diagonal d, d_i = h[w^-1(i)], as a 1-D array."""
    d = np.empty(h.n)
    d[np.array(w.images) - 1] = h.values
    return d


def h_conjugate(h: Spectrum, w: Permutation) -> np.ndarray:
    """Diagonal matrix with entry i equal to h[w^-1(i)] (conjugation by w)."""
    if h.n != w.n:
        raise ValueError(f"dimension mismatch: spectrum is {h.n}, permutation is {w.n}")
    return np.diag(_permuted_diagonal(h, w))


def nbar_from_affine(c: ChartCoords) -> np.ndarray:
    """Unit lower g with g D g^-1 = D + c.lower, D the permuted diagonal.

    Solved row by row by forward substitution; solvable because the
    diagonal gaps of a regular permuted diagonal never vanish. A -0.0
    coordinate enters as +0.0.
    """
    return _nbar_from_affine(c.lower, _permuted_diagonal(c.h, c.w))


def _nbar_from_affine(lower, d) -> np.ndarray:
    """``nbar_from_affine`` of strictly lower coordinates around diag(d)."""
    x = lower + 0.0
    g = np.eye(len(d))
    for i in range(1, len(d)):
        g[i, :i] = (x[i, :i] @ g[:i, :i]) / (d[:i] - d[i])
    return g


def _gaps(c: ChartCoords) -> np.ndarray:
    """Gaps d_i - d_j of the permuted diagonal d below the diagonal, else 0."""
    d = _permuted_diagonal(c.h, c.w)
    return np.tril(d[:, None] - d[None, :], -1)


def chart_linear_field(c: ChartCoords) -> np.ndarray:
    """Linear chart dynamics: entry (i, j) scaled by the diagonal gap d_i - d_j."""
    return np.tril(_gaps(c) * c.lower, -1)


def chart_flow_exact(c: ChartCoords, t: float) -> ChartCoords:
    """Closed-form flow of the linear chart dynamics for time t.

    Each strictly-lower entry is scaled by exp(gap * t). Raises
    OverflowError when an exponent would leave the double range.
    """
    t = float(t)
    gaps = _gaps(c)
    max_exponent = float(np.max(np.abs(gaps))) * abs(t)
    if max_exponent > _EXP_LIMIT:
        raise OverflowError(
            f"exponent {max_exponent:.1f} exceeds {_EXP_LIMIT:.0f}; shrink |t| or the gaps"
        )
    return ChartCoords(c.w, np.tril(np.exp(gaps * t) * c.lower, -1), c.h)


def _chart_point(c: ChartCoords, t: float) -> FlagPoint:
    """Flag point of c flowed for time t >= 0 by the linear chart flow.

    The flow conjugates g = nbar_from_affine of c by diag(exp(t d)), d the
    permuted diagonal, so the frame is Q^T P_w for the Q factor of g^-1
    with rows weighted by exp(t (d - max d)). Householder QR is accurate on
    such a row-graded matrix taken heaviest first (Cox & Higham, BIT 38,
    1998), where inverting the flowed g(t) loses every digit. At t = 0 the
    weights are 1 and the rows keep their order. Raises
    FactorizationError when some |R_ii| / weight_i < 1e-12.
    """
    d = _permuted_diagonal(c.h, c.w)
    weights = np.exp(t * (d - np.max(d)))
    order = np.argsort(-weights, kind="stable")
    g_inv = _unit_lower_inverse(_nbar_from_affine(c.lower, d))
    q, _ = _signed_qr(weights[order, None] * g_inv[order], weights[order])
    frame = q.T @ perm_matrix(c.w)[order]
    y = frame @ c.h.diag() @ frame.T
    return FlagPoint(0.5 * (y + y.T), c.h)


def chart_inverse(c: ChartCoords) -> FlagPoint:
    """Flag point with the given chart coordinates.

    Pipeline: affine point -> unit lower conjugator -> big-cell frame ->
    conjugate the spectrum by frame times permutation. Globally defined on
    the whole coordinate space.
    """
    return _chart_point(c, 0.0)


def _frame(y: FlagPoint, w: Permutation) -> np.ndarray:
    """Special orthogonal frame Q P_w^-1 for the chart at w; det Q = +1, so
    an odd w flips the last column of the point's frame Q."""
    q = y.frame
    if w.inversion_count() % 2:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q @ perm_matrix(w).T


def _chart_nbar(y: FlagPoint, w: Permutation) -> np.ndarray:
    """Unit-lower factor of the frame of y, if y lies in the chart at w.

    One elimination gives both the factor and the trailing minors, as
    running products of its pivots. Raises ValueError when y and w differ
    in size, and ChartDomainError when a trailing minor is at or below
    DOMAIN_MINOR_TOL in magnitude, or when a pivot vanishes. Minor
    magnitudes do not depend on the eigenvector sign choices.
    """
    if y.h.n != w.n:
        raise ValueError(f"dimension mismatch: point is {y.h.n}, permutation is {w.n}")
    try:
        factors = unbar_factorize(_frame(y, w))
    except FactorizationError as err:
        if err.minor_index is None:
            raise
        raise ChartDomainError(f"point is outside the chart at {w.images}: {err}") from err
    minors = np.cumprod(np.diag(factors.u)[::-1])[:-1]
    if np.min(minors) <= DOMAIN_MINOR_TOL:
        j = int(np.argmin(minors)) + 1
        raise ChartDomainError(
            f"point is outside the chart at {w.images}: trailing minor of size {j} "
            f"is {minors[j - 1]:.2e}"
        )
    return factors.nbar


def chart_domain_test(y: FlagPoint, w: Permutation) -> bool:
    """Whether y lies in the chart at w.

    True when every trailing principal minor of the de-permuted
    eigenframe exceeds DOMAIN_MINOR_TOL in magnitude.
    """
    try:
        _chart_nbar(y, w)
    except ChartDomainError:
        return False
    return True


def _coords_from_nbar(nbar, w: Permutation, h: Spectrum) -> ChartCoords:
    dmat = h_conjugate(h, w)
    b = nbar @ dmat @ _unit_lower_inverse(nbar)
    return ChartCoords(w=w, lower=np.tril(b - dmat, -1), h=h)


def coords_from_frame(kp, w: Permutation, h: Spectrum) -> ChartCoords:
    """Chart coordinates from a special orthogonal frame Q P_w^-1.

    The sign factor of the factorization absorbs the eigenvector sign
    ambiguity, so the value does not depend on which admissible frame is
    supplied.
    """
    nbar = unbar_factorize(kp).nbar
    if len(nbar) != w.n:
        raise ValueError(f"dimension mismatch: frame is {len(nbar)}, permutation is {w.n}")
    return _coords_from_nbar(nbar, w, h)


def chart_forward(y: FlagPoint, w: Permutation) -> ChartCoords:
    """Chart coordinates of y in the chart at w.

    Raises ChartDomainError when a trailing minor of the frame is at or
    below the domain threshold.
    """
    return _coords_from_nbar(_chart_nbar(y, w), w, y.h)


def bruhat_classify(y: FlagPoint, w: Permutation, tol: float) -> BruhatClass:
    """Classify y against the two cells at w by its coordinate support."""
    support = np.tril(np.abs(chart_forward(y, w).lower) > tol, -1)
    unstable = _inverted_mask(w.inverse())  # the unstable pairs of inversion_sets(w)
    in_cell = not np.any(support & ~unstable)
    in_opposite = not np.any(support & unstable)
    if in_cell and in_opposite:
        return BruhatClass.BOTH
    if in_cell:
        return BruhatClass.IN_BRUHAT
    if in_opposite:
        return BruhatClass.IN_OPPOSITE
    return BruhatClass.NEITHER
