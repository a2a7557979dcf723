"""Triangular factorizations of unimodular matrices and the maps built on them.

Two factorizations are implemented.

* ``kan_factorize``: orthogonal x positive-diagonal x unit-upper, by
  LAPACK's Householder QR with the signs fixed so that the triangular
  factor has a positive diagonal; that is the Gram-Schmidt split of the
  columns, with an orthogonality residual at machine level.

* ``unbar_factorize``: upper-triangular-positive-diagonal x unit-lower x
  sign-diagonal, for special orthogonal input. It exists exactly when all
  trailing principal minors (bottom-right j x j blocks) are nonzero, and
  is computed by Crout elimination on the antidiagonally flipped matrix,
  whose leading minors are those trailing minors.

On top of these sit the projection ``f_map`` onto the unit-lower factor,
its inverse, the Gram-Schmidt embedding of unit lower triangular
matrices into the special orthogonal group, and the comparison maps
``phi`` / ``phi_sigma`` obtained by composing the two projections (with a
permutation conjugation in between for ``phi_sigma``).

Public functions validate their arguments; the private kernels do not.
``_signed_qr`` and ``_crout`` work on stacks of matrices and return, in
place of raising, the exception the public function raises for each
refused matrix; ``kan_factorize`` and ``unbar_factorize`` are their
one-matrix cases, and ``gs_embed`` (so every phi map) takes its q from
``_signed_qr`` too. ``_unit_lower_inverse``, the kernel of
``unit_lower_inverse``, takes matrices unit lower by construction, one
or a stack.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FactorizationError
from .linalg_core import as_matrix, require_unit_lower
from .weyl_profiles import Permutation, l_sigma_membership, perm_matrix

__all__ = [
    "KANFactors",
    "UNbarFactors",
    "CellStatus",
    "ChevalleyResult",
    "kan_factorize",
    "unbar_factorize",
    "chevalley_test",
    "f_map",
    "f_inverse",
    "gs_embed",
    "phi",
    "phi_sigma",
    "unit_lower_inverse",
    "trailing_minors",
    "gs_embed_inverse",
    "phi_sigma_inverse",
]

# Below this magnitude a Crout pivot is declared a vanishing trailing
# minor; inputs are orthogonal matrices with O(1) entries.
PIVOT_TOL = 1e-13

_DET_TOL = 1e-8
_ORTHO_TOL = 1e-10
# Entries phi_sigma and its inverse require to vanish (or, on the
# diagonal, to equal one) must do so within this.
_TRIANGLE_TOL = 1e-12


def _require_special_orthogonal(k):
    k = as_matrix(k)
    # huge entries overflow k^T k or the determinant; a norm or
    # determinant that is then inf or NaN fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.linalg.norm(k.T @ k - np.eye(k.shape[0])) <= _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal")
        if not abs(np.linalg.det(k) - 1.0) <= _ORTHO_TOL:
            raise ValueError("matrix is orthogonal but has determinant -1")
    return k


@dataclass(frozen=True)
class KANFactors:
    """k orthogonal, a positive diagonal with unit product, n unit upper."""

    k: np.ndarray
    a: np.ndarray
    n: np.ndarray


@dataclass(frozen=True)
class UNbarFactors:
    """u upper with positive diagonal, nbar unit lower, m = diag(+-1), det m = +1."""

    u: np.ndarray
    nbar: np.ndarray
    m: np.ndarray


class CellStatus(Enum):
    IN_C = "in_c"
    IN_CM_ONLY = "in_cm_only"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ChevalleyResult:
    status: CellStatus
    m: np.ndarray | None = None
    minor_index: int | None = None


def _identities(shape) -> np.ndarray:
    """Identity matrices filling an array of the given (..., n, n) shape."""
    n = shape[-1]
    eye = np.zeros(shape)
    eye.reshape(-1, n * n)[:, ::n + 1] = 1.0
    return eye


def _signed_qr(m, weights):
    """Householder QR m = q r of one matrix or each matrix of an
    (..., n, n) stack, with the signs fixed so that diag(r) > 0.

    Negating a row of r and the matching column of q is exact, so the
    factors carry LAPACK's bits up to sign, and each matrix gets the bits
    it gets alone. weights is a scalar or one weight per row, (..., n).
    Returns ``(q, r, failures)``; failures maps the flat index of each
    matrix (0 for one matrix) with a column i whose |r_ii| / weight_i is
    below 1e-12, NaN, or over a zero weight (numerically dependent on
    earlier columns) to the FactorizationError naming the first such
    column.
    """
    q, r = np.linalg.qr(m)
    pivots = np.diagonal(r, axis1=-2, axis2=-1)
    ratios = np.divide(np.abs(pivots), weights, out=np.zeros(pivots.shape), where=weights > 0.0)
    dependent = ~(ratios >= 1e-12)
    failures = {}
    if dependent.any():
        for i, columns in enumerate(dependent.reshape(-1, m.shape[-1])):
            if columns.any():
                failures[i] = FactorizationError(
                    f"column {np.argmax(columns) + 1} is numerically dependent on earlier columns"
                )
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r * signs[..., :, None], failures


def _require_det_one(g: np.ndarray) -> np.ndarray:
    """Return g, raising ValueError unless det g = 1 within _DET_TOL. A
    determinant that leaves the double range in the elimination (inf, a
    NaN from inf - inf, or the reciprocal of a subnormal pivot) is refused
    the same way, with no warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = float(np.linalg.det(g))
    if not abs(det - 1.0) <= _DET_TOL:
        raise ValueError(f"input must have determinant one, got {det!r}")
    return g


def kan_factorize(g) -> KANFactors:
    """Gram-Schmidt split g = k a n of a determinant-one matrix.

    Column j of k is the normalized j-th Gram-Schmidt vector of g's
    columns; a holds the (positive) normalization factors and n the
    unit-upper change of basis. Computed as a Householder QR whose signs
    are flipped to make diag(R) positive, which makes it unique. The
    triangular zero patterns and the unit diagonal of n are written
    exactly, not rounded.

    Raises ValueError unless det g = 1, and FactorizationError when a
    diagonal entry of R falls below 1e-12, i.e. a column is numerically
    dependent on earlier ones although the determinant is one.
    """
    g = _require_det_one(as_matrix(g))
    q, r, failures = _signed_qr(g, 1.0)
    if failures:
        raise failures[0]
    a = np.diag(np.diag(r))
    unit_upper = np.triu(r / np.diag(r)[:, None])
    np.fill_diagonal(unit_upper, 1.0)
    return KANFactors(k=q, a=a, n=unit_upper)


def _crout(k):
    """Unchecked Crout elimination of ``unbar_factorize`` on one matrix or
    each matrix of an (..., n, n) stack.

    Returns ``(u, nbar, signs, failures)``, signs (..., n) being the
    diagonal of m. failures maps the flat index of each matrix (0 for one
    matrix) that ``unbar_factorize`` refuses to its FactorizationError:
    the first pivot below PIVOT_TOL, else a sign factor of determinant
    -1. A matrix with a vanishing pivot gets identity factors; every other
    matrix gets the bits it gets alone.
    """
    n = k.shape[-1]
    flipped = k[..., ::-1, ::-1].copy()
    low = np.zeros(k.shape)
    upp = _identities(k.shape)
    # a refused matrix divides by its vanishing pivot; it is reset below
    with np.errstate(all="ignore"):
        for c in range(n):
            low[..., c:, c] = flipped[..., c:, c] - np.matvec(low[..., c:, :c], upp[..., :c, c])
            upp[..., c, c + 1:] = (
                flipped[..., c, c + 1:] - np.vecmat(low[..., c, :c], upp[..., :c, c + 1:])
            ) / low[..., c, c, None]

    pivots = np.diagonal(low, axis1=-2, axis2=-1)
    vanishing = np.abs(pivots) < PIVOT_TOL
    failures = {}
    if vanishing.any():
        for i, row in enumerate(vanishing.reshape(-1, n)):
            if row.any():
                c = int(np.argmax(row))  # the pivots before it are sound
                failures[i] = FactorizationError(
                    f"not factorizable: trailing principal minor of size {c + 1} "
                    f"vanishes (pivot {pivots.reshape(-1, n)[i, c]:.2e})",
                    minor_index=c + 1,
                )
        refused = list(failures)
        low.reshape(-1, n, n)[refused] = upp.reshape(-1, n, n)[refused] = np.eye(n)

    signs = np.sign(pivots)
    u = (low * signs[..., None, :])[..., ::-1, ::-1].copy()
    nbar = (signs[..., :, None] * upp * signs[..., None, :])[..., ::-1, ::-1].copy()
    odd = np.prod(signs, axis=-1) != 1.0
    if odd.any():
        for i in np.flatnonzero(odd):
            failures.setdefault(int(i), FactorizationError(
                "sign factor has determinant -1; input was not special orthogonal"
            ))
    return u, nbar, signs[..., ::-1], failures


def unbar_factorize(k) -> UNbarFactors:
    """Split special orthogonal k into u nbar m by Crout elimination.

    Flipping k about the antidiagonal turns trailing principal minors
    into leading ones; Crout LU of the flip (lower x unit-upper), with
    the pivot signs pulled into a sign diagonal and everything flipped
    back, gives k = u nbar m. det(m) = +1 is forced by det(k) = 1 and
    the positive diagonal of u. Read from the bottom, diag(u) holds the
    pivot magnitudes, so its running products are the magnitudes of the
    trailing minors of size 1, 2, ..., n.

    Raises FactorizationError with the failing minor index when a pivot
    falls below PIVOT_TOL. The one-matrix case of :func:`_crout`.
    """
    k = _require_special_orthogonal(k)
    u, nbar, signs, failures = _crout(k)
    if failures:
        raise failures[0]
    return UNbarFactors(u=u, nbar=nbar, m=np.diag(signs))


def trailing_minors(k) -> np.ndarray:
    """Determinants of the bottom-right j x j blocks, j = 1..n-1."""
    k = as_matrix(k)
    n = k.shape[0]
    return np.array([np.linalg.det(k[n - j:, n - j:]) for j in range(1, n)])


def chevalley_test(k) -> ChevalleyResult:
    """Locate k relative to the big cell.

    IN_C: factorizable with trivial sign factor. IN_CM_ONLY: factorizable
    but only up to a nontrivial sign diagonal. OUTSIDE: some trailing
    principal minor vanishes (its index is reported).
    """
    try:
        factors = unbar_factorize(k)
    except FactorizationError as err:
        if err.minor_index is None:
            raise
        return ChevalleyResult(CellStatus.OUTSIDE, minor_index=err.minor_index)
    if np.array_equal(factors.m, np.eye(factors.m.shape[0])):
        return ChevalleyResult(CellStatus.IN_C, m=factors.m)
    return ChevalleyResult(CellStatus.IN_CM_ONLY, m=factors.m)


def f_map(k) -> np.ndarray:
    """Unit-lower factor of k = u nbar; defined only on the big cell."""
    factors = unbar_factorize(k)
    if not np.array_equal(factors.m, np.eye(factors.m.shape[0])):
        raise FactorizationError(
            "matrix factors only up to a nontrivial sign diagonal; it is outside the big cell"
        )
    return factors.nbar


def _unit_lower_inverse(nbar: np.ndarray) -> np.ndarray:
    """Forward substitution on one matrix or each matrix of an
    (..., n, n) stack; reads only the strict lower triangle."""
    inv = _identities(nbar.shape)
    for i in range(1, nbar.shape[-1]):
        inv[..., i, :i] = -np.vecmat(nbar[..., i, :i], inv[..., :i, :i])
    return inv


def unit_lower_inverse(nbar) -> np.ndarray:
    """Inverse of a unit lower triangular matrix by forward substitution."""
    return _unit_lower_inverse(require_unit_lower(nbar))


def f_inverse(nbar) -> np.ndarray:
    """The unique big-cell matrix whose unit-lower factor is nbar.

    Computed as the transpose of gs_embed of nbar's inverse; gs_embed
    refuses an inverse that overflows.
    """
    return gs_embed(_unit_lower_inverse(require_unit_lower(nbar))).T


def gs_embed(g) -> np.ndarray:
    """Orthogonal factor of the Gram-Schmidt split of a unit lower g.

    Distinct from f_inverse in general; the composition f_map(gs_embed)
    is the nontrivial comparison map phi. The factor is kan_factorize's,
    whose determinant check runs only when g is not unit lower exactly.
    """
    g = require_unit_lower(g)
    if (np.diag(g) != 1.0).any() or np.triu(g, 1).any():
        _require_det_one(g)  # 1e-12 above the diagonal can move det g anywhere
    q, _, failures = _signed_qr(g, 1.0)
    if failures:
        raise failures[0]
    return q


def phi(g) -> np.ndarray:
    """Compare the two triangular splittings: f_map after gs_embed."""
    return f_map(gs_embed(g))


def phi_sigma(sigma: Permutation, g) -> np.ndarray:
    """Pivoted comparison map: Gram-Schmidt embed, conjugate, project.

    Requires g to be unit lower triangular and to stay lower triangular
    under conjugation by sigma^-1, both within 1e-12 (_TRIANGLE_TOL);
    the result then stays lower triangular under conjugation by sigma.
    The conjugation sandwiches the embedded frame between the inverse
    representative and the representative; that orientation is the one
    that maps between the stated subgroups. The conjugated frame landing
    outside the big cell would contradict the precondition, so such a
    failure propagates as an internal FactorizationError rather than a
    user error.

    The inverse map is phi_sigma_inverse, not phi_sigma with the inverse
    permutation: undoing the construction requires undoing the two
    projections in the opposite order, which is a different composition.
    """
    g = require_unit_lower(g, _TRIANGLE_TOL)
    if not l_sigma_membership(g, sigma.inverse(), _TRIANGLE_TOL):
        raise ValueError(
            "matrix does not stay lower triangular under conjugation by the inverse permutation"
        )
    p = perm_matrix(sigma)
    return f_map(p.T @ gs_embed(g) @ p)


def gs_embed_inverse(k) -> np.ndarray:
    """Unit lower triangular g whose Gram-Schmidt orthogonal factor is k.

    Such a g exists exactly when k is in the big cell; it is the
    unit-lower factor of k written as unit-lower times
    upper-positive-diagonal, recovered here from the factorization of the
    transpose.
    """
    return _unit_lower_inverse(f_map(as_matrix(k).T))


def phi_sigma_inverse(sigma: Permutation, y) -> np.ndarray:
    """Exact inverse of phi_sigma(sigma, .): maps its image back to its domain.

    y must be unit lower triangular and stay lower triangular under
    conjugation by sigma, both within 1e-12 (_TRIANGLE_TOL).
    """
    y = require_unit_lower(y, _TRIANGLE_TOL)
    if not l_sigma_membership(y, sigma, _TRIANGLE_TOL):
        raise ValueError(
            "matrix does not stay lower triangular under conjugation by the permutation"
        )
    p = perm_matrix(sigma)
    return gs_embed_inverse(p @ f_inverse(y) @ p.T)
