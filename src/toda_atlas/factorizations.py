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
The kernels take one plain (n, n) matrix or a (B, n, n) stack, with one
code path for both, and a matrix gets the same bits either way.
``_signed_qr`` and ``_crout`` return, in place of raising, the exception
the public function raises for each refused matrix (keyed 0 for one
matrix), and hand each refused matrix on in a finite form that means
nothing and that no caller patches up: ``_signed_qr`` with an identity
q, ``_crout`` with identity factors where a pivot vanishes (a matrix
refused for its sign factor keeps its finite factors).
``kan_factorize`` and ``unbar_factorize`` are their plain calls.
``_unit_lower_inverse``, the kernel of ``unit_lower_inverse``, takes
matrices unit lower by construction.

Each comparison map checks its input once and composes these kernels:
``gs_embed`` and ``f_inverse`` take their orthogonal factor from
``_signed_qr``, and ``phi``, ``phi_sigma`` and ``phi_sigma_inverse``
project the frame they build with ``_f_map``, the unit-lower factor of
``_crout`` (``phi_sigma_inverse`` then inverts it with
``_unit_lower_inverse``), so a frame a map builds is validated again
only where ``_f_map`` refuses it.

The triangular recurrences (``_crout``, ``_unit_lower_inverse``, and
``atlas._nbar_from_affine``) write each row or column into its view with
``out=``, and take the views through index plans made once per size and
shared by both ranks: ``_crout_plan(n)`` holds Crout's seven index tuples
for each column, ``_row_plan(n)`` the row and the block above it for each
row of a forward substitution, so no step builds its slices afresh. On
one matrix, Crout's column update is ``ndarray.dot``, which gives
np.matvec's bits at half its cost, each row is divided by its pivot as a
0-d view, and a vanishing pivot is caught at its column, so no error
state is entered: ``unbar_factorize`` at n = 4 / 12 makes 41 / 81 numpy
calls (counted as in ``atlas``). Each kernel builds only what its callers
read: ``_crout`` hands on its lower factor, whose diagonal gives the chart
path its trailing minors, and only ``unbar_factorize`` builds u from it;
``_signed_qr`` hands on LAPACK's r with the signs, and only ``_gs_qr``
signs it.
"""

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FactorizationError
from .linalg_core import _finite, as_matrix, require_unit_lower
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
    it gets alone. weights is 1.0 or one weight per row, (..., n).
    Returns ``(q, r, signs, failures)``: q is signed, r is LAPACK's, and
    ``r * signs[..., :, None]`` is the signed r, which only ``_gs_qr``
    builds. failures maps the flat index of each matrix (0 for one
    matrix) with a column i whose |r_ii| / weight_i is below 1e-12, NaN,
    over a zero weight (numerically dependent on earlier columns), or
    infinite (a column norm past the double range) to the
    FactorizationError naming the first such column and its kind; past
    those, a matrix whose q holds a non-finite column (a Householder
    reflector overflowed on finite input) is refused naming the first
    one. The kernel hands a refused matrix on with the identity as its q,
    as ``_crout`` gives a matrix with a vanishing pivot identity factors:
    finite, and meaning nothing.
    """
    n = m.shape[-1]
    q, r = np.linalg.qr(m)
    pivots = r.diagonal(axis1=-2, axis2=-1)
    ratios = np.abs(pivots)  # over a weight of 1.0, exactly
    if isinstance(weights, np.ndarray):
        ratios = np.divide(ratios, weights, out=np.zeros(pivots.shape), where=weights > 0.0)
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    q = q * signs[..., None, :]
    failures = {}
    sound = (ratios >= 1e-12) & (ratios < np.inf)
    if not (sound.all() and np.isfinite(q).all()):
        finite = np.isfinite(q).all(axis=-2).reshape(-1, n)
        for i, (columns, row, whole) in enumerate(
            zip(~sound.reshape(-1, n), ratios.reshape(-1, n), finite)
        ):
            if columns.any():
                j = np.argmax(columns)
                kind = (
                    "has a norm past the double range" if row[j] == np.inf
                    else "is numerically dependent on earlier columns"
                )
                failures[i] = FactorizationError(f"column {j + 1} {kind}")
            elif not whole.all():
                failures[i] = FactorizationError(
                    f"column {np.argmin(whole) + 1} of the orthogonal factor is not finite: "
                    "a Householder reflector overflowed"
                )
        q.reshape(-1, n, n)[list(failures)] = np.eye(n)
    return q, r, signs, failures


def _gs_qr(g):
    """``_signed_qr`` of one checked matrix with unit weights, raising its
    refusal, and its signed r: the Gram-Schmidt split of
    ``kan_factorize``, ``gs_embed`` and ``f_inverse``."""
    q, r, signs, failures = _signed_qr(g, 1.0)
    if failures:
        raise failures[0]
    return q, r * signs[:, None]


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
    q, r = _gs_qr(_require_det_one(as_matrix(g)))
    a = np.diag(np.diag(r))
    unit_upper = np.triu(r / np.diag(r)[:, None])
    np.fill_diagonal(unit_upper, 1.0)
    return KANFactors(k=q, a=a, n=unit_upper)


@functools.lru_cache(maxsize=64)
def _crout_plan(n: int) -> tuple:
    """Crout's index tuples for each column c of an n x n elimination,
    made once per size and shared by both ranks: the column from the
    diagonal down ``(..., c:, c)``, the block left of it ``(..., c:, :c)``,
    the column above the diagonal ``(..., :c, c)``, the pivot
    ``(..., c, c)``, the row right of the diagonal ``(..., c, c+1:)``, the
    row left of it ``(..., c, :c)`` and the block above the row's right
    part ``(..., :c, c+1:)``."""
    return tuple(
        (
            (..., slice(c, None), c),
            (..., slice(c, None), slice(None, c)),
            (..., slice(None, c), c),
            (..., c, c),
            (..., c, slice(c + 1, None)),
            (..., c, slice(None, c)),
            (..., slice(None, c), slice(c + 1, None)),
        )
        for c in range(n)
    )


@functools.lru_cache(maxsize=64)
def _row_plan(n: int) -> tuple:
    """The index tuples of a forward substitution on n x n unit lower
    matrices, made once per size and shared by both ranks: for each row
    i = 1 .. n-1, the row left of the diagonal ``(..., i, :i)`` and the
    block above it ``(..., :i, :i)``."""
    return tuple(
        ((..., i, slice(None, i)), (..., slice(None, i), slice(None, i))) for i in range(1, n)
    )


def _crout(k):
    """Unchecked Crout elimination of ``unbar_factorize`` on one (n, n)
    matrix or each matrix of a (B, n, n) stack.

    Returns ``(low, nbar, signs, failures)``: low is the lower factor of
    the elimination of the antidiagonally flipped matrix, whose diagonal
    holds the pivots (so |diag(low)| are the pivot magnitudes, and their
    running products the magnitudes of the trailing minors of size 1, 2,
    ..., n), signs the diagonal of m, (n,) or (B, n); u is built from low
    only by ``unbar_factorize``, the one caller that reads more of it than
    its diagonal. failures maps the index of each matrix (0 for one
    matrix) that ``unbar_factorize`` refuses to its FactorizationError:
    the first pivot below PIVOT_TOL, else a sign factor of determinant -1.
    A matrix with a vanishing pivot goes on as the identity, so nothing
    divides by it and no warning is raised, and gets identity factors;
    every other matrix gets the same bits alone, plain, and in any stack.
    """
    n = k.shape[-1]
    plain = k.ndim == 2
    # the column update's product: on one matrix ndarray.dot (M.dot(v)),
    # which gives np.matvec's bits (the tests hold them bitwise equal on
    # the update's slices) at about half its dispatch cost. The row
    # updates keep np.vecmat at either rank: v.dot(M) does not give its
    # bits, and v @ M, which does, is no cheaper
    matvec = np.ndarray.dot if plain else np.matvec
    flipped = k[..., ::-1, ::-1].copy()
    low = np.zeros(k.shape)
    upp = _identities(k.shape)
    failures = {}
    for c, (column, left, above, at, right, row_left, above_right) in enumerate(_crout_plan(n)):
        np.subtract(flipped[column], matvec(low[left], upp[above]), out=low[column])
        pivot = low[at]  # a 0-d view, or one pivot per matrix
        if abs(float(pivot)) < PIVOT_TOL if plain else (np.abs(pivot) < PIVOT_TOL).any():
            pivots = pivot.reshape(-1)
            refused = np.flatnonzero(np.abs(pivots) < PIVOT_TOL)
            for i in refused.tolist():  # the pivots before c are sound
                failures[i] = FactorizationError(
                    f"not factorizable: trailing principal minor of size {c + 1} "
                    f"vanishes (pivot {pivots[i]:.2e})",
                    minor_index=c + 1,
                )
            for a in (flipped, low, upp):
                a.reshape(-1, n, n)[refused] = np.eye(n)
        if c + 1 < n:
            row = upp[right]
            np.vecmat(low[row_left], upp[above_right], out=row)
            np.subtract(flipped[right], row, out=row)
            np.divide(row.T, pivot, out=row.T)  # (B, m).T over (B,) pivots

    signs = np.sign(low.diagonal(axis1=-2, axis2=-1))
    nbar = (signs[..., :, None] * upp * signs[..., None, :])[..., ::-1, ::-1].copy()
    odd = signs.prod(axis=-1, keepdims=True) != 1.0
    if odd.any():
        for i in np.flatnonzero(odd).tolist():
            failures.setdefault(i, FactorizationError(
                "sign factor has determinant -1; input was not special orthogonal"
            ))
    return low, nbar, signs[..., ::-1], failures


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
    low, nbar, signs, failures = _crout(k)
    if failures:
        raise failures[0]
    u = (low * signs[::-1])[::-1, ::-1].copy()
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
    _, _, signs, failures = _crout(_require_special_orthogonal(k))
    if failures:
        if failures[0].minor_index is None:
            raise failures[0]
        return ChevalleyResult(CellStatus.OUTSIDE, minor_index=failures[0].minor_index)
    status = CellStatus.IN_C if (signs == 1.0).all() else CellStatus.IN_CM_ONLY
    return ChevalleyResult(status, m=np.diag(signs))


def _f_map(k) -> np.ndarray:
    """Unchecked :func:`f_map` of a special orthogonal k, raising what
    f_map raises. A frame a comparison map builds from numerically
    singular input can leave SO(n) (determinant -1) or hold NaN; such a
    frame never factors with a trivial sign diagonal, and on that path
    it is refused as f_map refuses a matrix from outside."""
    _, nbar, signs, failures = _crout(k)
    if failures or (signs != 1.0).any():
        _require_special_orthogonal(k)
        raise failures[0] if failures else FactorizationError(
            "matrix factors only up to a nontrivial sign diagonal; it is outside the big cell"
        )
    return nbar


def f_map(k) -> np.ndarray:
    """Unit-lower factor of k = u nbar; defined only on the big cell."""
    return _f_map(_require_special_orthogonal(k))


def _unit_lower_inverse(nbar: np.ndarray) -> np.ndarray:
    """Forward substitution on one (n, n) matrix or each matrix of a
    (B, n, n) stack; reads only the strict lower triangle."""
    inv = _identities(nbar.shape)
    for row_at, block_at in _row_plan(nbar.shape[-1]):
        row = inv[row_at]
        np.vecmat(nbar[row_at], inv[block_at], out=row)
        np.negative(row, out=row)
    return inv


def unit_lower_inverse(nbar) -> np.ndarray:
    """Inverse of a unit lower triangular matrix by forward substitution.

    Raises ValueError, without a warning, when an entry of the inverse
    overflows."""
    return _finite(
        "unit lower inverse overflows: an entry of the forward substitution is not finite",
        _unit_lower_inverse, require_unit_lower(nbar),
    )


def f_inverse(nbar) -> np.ndarray:
    """The unique big-cell matrix whose unit-lower factor is nbar.

    Computed as the transpose of gs_embed of nbar's inverse, whose checks
    that inverse passes by construction; raises ValueError, as
    :func:`unit_lower_inverse` does, when the inverse overflows.
    """
    return _gs_qr(unit_lower_inverse(nbar))[0].T


def gs_embed(g) -> np.ndarray:
    """Orthogonal factor of the Gram-Schmidt split of a unit lower g.

    Distinct from f_inverse in general; the composition f_map(gs_embed)
    is the nontrivial comparison map phi. The factor is kan_factorize's,
    whose determinant check runs only when g is not unit lower exactly.
    """
    g = require_unit_lower(g)
    if (np.diag(g) != 1.0).any() or np.triu(g, 1).any():
        _require_det_one(g)  # 1e-12 above the diagonal can move det g anywhere
    return _gs_qr(g)[0]


def phi(g) -> np.ndarray:
    """Compare the two triangular splittings: f_map after gs_embed."""
    return _f_map(gs_embed(g))


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
    if not l_sigma_membership(g, sigma.inverse(), _TRIANGLE_TOL):
        raise ValueError(
            "matrix does not stay lower triangular under conjugation by the inverse permutation"
        )
    p = perm_matrix(sigma)
    return _f_map(p.T @ gs_embed(g) @ p)


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
    if not l_sigma_membership(y, sigma, _TRIANGLE_TOL):
        raise ValueError(
            "matrix does not stay lower triangular under conjugation by the permutation"
        )
    p = perm_matrix(sigma)
    return _unit_lower_inverse(_f_map((p @ f_inverse(y) @ p.T).T))
