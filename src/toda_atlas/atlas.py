"""Weyl-indexed charts on the manifold of symmetric matrices with fixed
simple spectrum, and their relation to the Bruhat-cell decomposition.

A flag point is a symmetric traceless matrix with the given strictly
decreasing spectrum h. The chart indexed by a permutation w identifies a
dense open subset of those points with the affine space of strictly
lower perturbations of the permuted diagonal matrix ``h_conjugate(h, w)``.
The forward map strips the permutation from the eigenframe a flag point
carries, factors it through the unit-lower projection, and conjugates the
permuted diagonal; the inverse is one graded QR (``_chart_matrices``),
whose frame the point it builds keeps, so each chart point is
diagonalized once, by construction.

The module owns the chart dynamics: in each chart the sorting flow is
linear, coordinate (i, j) growing at the gap d_i - d_j of the permuted
diagonal d (``chart_linear_field``, ``chart_flow_exact``, and
``_chart_points`` at a time t).
Public functions validate their arguments, and a ``FlagPoint`` or
``ChartCoords`` is valid by construction; the private ``_`` kernels do
not validate. What a kernel builds is valid by construction too, so a
chart map wraps it unchecked (``FlagPoint._of``, ``ChartCoords._of``)
rather than validating it a second time. Every strictly lower triangle
is kept with the boolean mask cached once per size
(``_strict_lower_mask``), with the bits of ``np.tril(x, -1)``.

Every stage of the pipeline is a stack kernel that takes B points at
once: ``_chart_matrices`` (the graded QR of the inverse, giving y and
its frame), ``_chart_points`` (its flag points, with no eigensolve),
``_flag_points`` (the eigensolve and checks of ``FlagPoint``, for
matrices from elsewhere), ``_chart_nbars`` (the Crout elimination and
domain test of the forward map), ``_coords_from_nbars``, ``_linear_fields``
and ``_bruhat_classes``. Each point of a stack gets the bits it gets alone.
A kernel does not raise for a point it refuses: it returns ``failures``,
a dict from the index of each refused point to the exception the
one-point function raises for it, with its type and message, and hands
the point on in a form the next stage takes without a warning. The
public maps are one-point calls of these kernels: ``FlagPoint`` of
``_flag_points``, ``chart_inverse`` of ``_chart_points``, ``chart_forward``
of ``_chart_forwards``, ``chart_domain_test`` of ``_chart_nbars`` and
``chart_linear_field`` of ``_linear_fields``; each raises its point's failure.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ChartDomainError
from .factorizations import _crout, _identities, _signed_qr, _unit_lower_inverse, unbar_factorize
from .linalg_core import (
    GAP_TOL,
    Spectrum,
    _collision,
    _eigen_stack,
    _strict_lower_mask,
    as_matrix,
)
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
    """A symmetric matrix with the fixed simple spectrum h and a read-only
    special orthogonal eigenframe ``frame`` (columns in the order of h).
    The constructor checks y once and is the one-point call of
    :func:`_flag_points`; without h, the spectrum is the one its eigensolve
    finds. A chart point (``chart_inverse``) keeps the frame its graded QR
    builds y from, with no eigensolve."""

    y: np.ndarray
    h: Spectrum | None = None
    frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = as_matrix(self.y).copy()
        if self.h is not None and y.shape[0] != self.h.n:
            raise ValueError(f"dimension mismatch: matrix is {y.shape[0]}, spectrum is {self.h.n}")
        points, failures = _flag_points(y[None], [self.h])
        if failures:
            raise failures[0]
        for name in ("y", "h", "frame"):
            object.__setattr__(self, name, getattr(points[0], name))

    @classmethod
    def _of(cls, y, h, frame) -> "FlagPoint":
        """A point from read-only arrays a stack kernel has checked."""
        point = object.__new__(cls)
        for name, value in (("y", y), ("h", h), ("frame", frame)):
            object.__setattr__(point, name, value)
        return point


def _flag_points(y, hs):
    """Unchecked FlagPoint of each matrix of a (B, n, n) stack, with the
    declared spectra hs (None for the spectrum the eigensolve finds):
    ``(points, failures)``, failures mapping the index of each matrix
    FlagPoint refuses to the exception it raises, the eigensolve's before
    a spectrum farther than _EIGENVALUE_TOL from the declared one (a
    refused matrix's point means nothing). The points share y, which
    becomes read-only, with any matrix that is not finite zeroed."""
    infinite = []
    if not np.isfinite(y).all():
        infinite = (~np.isfinite(y).all(axis=(1, 2))).nonzero()[0]
        y[infinite] = 0.0
    lam, q, failures = _eigen_stack(y)
    for i in infinite:
        failures[int(i)] = ValueError("matrix entries must be finite")
    rows = lam.tolist()
    for i, h in enumerate(hs):
        if h is not None and any(abs(a - b) > _EIGENVALUE_TOL for a, b in zip(rows[i], h.values)):
            failures.setdefault(i, ValueError(
                f"matrix eigenvalues {tuple(rows[i])} do not match "
                f"the declared spectrum {h.values}"
            ))
    hs = [Spectrum._of(tuple(row)) if h is None else h for h, row in zip(hs, rows)]
    y.setflags(write=False)
    q.setflags(write=False)
    return [FlagPoint._of(y[i], hs[i], q[i]) for i in range(len(y))], failures


@dataclass(frozen=True)
class ChartCoords:
    """Chart value: strictly lower coordinates around the origin at w. The
    constructor validates a copy of ``lower``; coordinates a kernel builds
    (``chart_forward``) are valid by construction and skip it (``_of``)."""

    w: Permutation
    lower: np.ndarray
    h: Spectrum

    def __post_init__(self):
        lower = as_matrix(self.lower).copy()
        n = lower.shape[0]
        if n != self.h.n or self.w.n != self.h.n:
            raise ValueError("permutation, spectrum, and coordinate sizes disagree")
        # ndarray.any tests != 0.0 entrywise, so a -0.0 above passes
        if lower[~_strict_lower_mask(n)].any():
            raise ValueError("coordinates must be strictly lower triangular (exact zeros above)")
        lower.setflags(write=False)
        object.__setattr__(self, "lower", lower)

    @classmethod
    def _of(cls, w, lower, h) -> "ChartCoords":
        """Coordinates from a read-only, finite, strictly lower array of
        h's size that a stack kernel has built."""
        coords = object.__new__(cls)
        for name, value in (("w", w), ("lower", lower), ("h", h)):
            object.__setattr__(coords, name, value)
        return coords


class BruhatClass(Enum):
    IN_BRUHAT = "in_bruhat"
    IN_OPPOSITE = "in_opposite"
    NEITHER = "neither"
    BOTH = "both"


class _ChartConstants(NamedTuple):
    images: np.ndarray  # the images of w less one
    perm: np.ndarray  # perm_matrix(w)
    odd: bool  # whether w has an odd inversion count
    unstable: np.ndarray  # the mask of the unstable pairs of inversion_sets(w)


@functools.lru_cache(maxsize=1024)
def _chart_constants(w: Permutation) -> _ChartConstants:
    """Read-only constants of the chart at w, made once per w."""
    constants = _ChartConstants(
        np.array(w.images) - 1,
        np.ascontiguousarray(perm_matrix(w)),
        w.inversion_count() % 2 == 1,
        _inverted_mask(w.inverse()),
    )
    for a in (constants.images, constants.perm, constants.unstable):
        a.setflags(write=False)
    return constants


def _permuted_diagonals(hs, ws) -> np.ndarray:
    """Unchecked permuted diagonal d, d_i = h[w^-1(i)], of each pair of
    spectra hs and permutations ws, as a (B, n) array."""
    return np.array([_permuted_diagonal(h, w) for h, w in zip(hs, ws)])


def _permuted_diagonal(h: Spectrum, w: Permutation) -> np.ndarray:
    """Unchecked permuted diagonal d, d_i = h[w^-1(i)], as a 1-D array."""
    d = np.empty(h.n)
    d[_chart_constants(w).images] = h.values
    return d


def _diagonals(d) -> np.ndarray:
    """``np.diag`` of a 1-D array, or of each row of an (..., n) array."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,))
    out.reshape(-1, n * n)[:, ::n + 1] = d.reshape(-1, n)
    return out


def _require_size(what: str, n: int, w: Permutation) -> None:
    if n != w.n:
        raise ValueError(f"dimension mismatch: {what} is {n}, permutation is {w.n}")


def h_conjugate(h: Spectrum, w: Permutation) -> np.ndarray:
    """Diagonal matrix with entry i equal to h[w^-1(i)] (conjugation by w)."""
    _require_size("spectrum", h.n, w)
    return np.diag(_permuted_diagonal(h, w))


def nbar_from_affine(c: ChartCoords) -> np.ndarray:
    """Unit lower g with g D g^-1 = D + c.lower, D the permuted diagonal.

    Solved row by row by forward substitution; solvable because the
    diagonal gaps of a regular permuted diagonal never vanish. A -0.0
    coordinate enters as +0.0.
    """
    return _nbar_from_affine(c.lower, _permuted_diagonal(c.h, c.w))


def _nbar_from_affine(lower, d) -> np.ndarray:
    """``nbar_from_affine`` of strictly lower coordinates around diag(d),
    for one matrix or each matrix of a stack (d then (B, n))."""
    x = lower + 0.0
    g = _identities(x.shape)
    gaps = d[..., None, :] - d[..., :, None]  # row i holds d_j - d_i
    for i in range(1, d.shape[-1]):
        g[..., i, :i] = np.vecmat(x[..., i, :i], g[..., :i, :i]) / gaps[..., i, :i]
    return g


def _gaps(d) -> np.ndarray:
    """Gaps d_i - d_j of a permuted diagonal d below the diagonal, else 0,
    for one d or each row of a (B, n) array."""
    return np.where(_strict_lower_mask(d.shape[-1]), d[..., :, None] - d[..., None, :], 0.0)


def _linear_fields(lower, d) -> np.ndarray:
    """``chart_linear_field`` of strictly lower coordinates around diag(d),
    for one matrix or each matrix of a stack (d then (B, n))."""
    return np.where(_strict_lower_mask(d.shape[-1]), _gaps(d) * lower, 0.0)


def chart_linear_field(c: ChartCoords) -> np.ndarray:
    """Linear chart dynamics: entry (i, j) scaled by the diagonal gap d_i - d_j.

    Raises ValueError, without a warning, when a scaled coordinate
    overflows."""
    with np.errstate(over="ignore"):
        field = _linear_fields(c.lower, _permuted_diagonal(c.h, c.w))
    if not np.isfinite(field).all():
        raise ValueError("chart linear field overflows: a coordinate times its gap is not finite")
    return field


def chart_flow_exact(c: ChartCoords, t: float) -> ChartCoords:
    """Closed-form flow of the linear chart dynamics for time t.

    Each strictly-lower entry is scaled by exp(gap * t). Raises
    ValueError when t is not finite, OverflowError when an exponent would
    leave the double range, and ValueError naming t, without a warning,
    when a scaled coordinate overflows.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t!r}")
    gaps = _gaps(_permuted_diagonal(c.h, c.w))
    max_exponent = float(np.max(np.abs(gaps))) * abs(t)
    if max_exponent > _EXP_LIMIT:
        raise OverflowError(
            f"exponent {max_exponent:.3g} exceeds {_EXP_LIMIT:.0f}; shrink |t| or the gaps"
        )
    with np.errstate(over="ignore"):
        flowed = np.where(_strict_lower_mask(c.h.n), np.exp(gaps * t) * c.lower, 0.0)
    if not np.isfinite(flowed).all():
        raise ValueError(f"chart coordinates overflow under the flow for time t = {t:.3g}")
    flowed.setflags(write=False)
    return ChartCoords._of(c.w, flowed, c.h)


def _chart_matrices(coords, t):
    """The symmetric matrix of the flag point of each of a list of chart
    coordinates of one size, flowed for time t >= 0 (a float, or one per
    point) by the linear chart flow.

    The flow conjugates g = nbar_from_affine of c by diag(exp(t d)), d the
    permuted diagonal, so the frame is Q^T P_w for the Q factor of g^-1
    with rows weighted by exp(t (d - max d)). Householder QR is accurate on
    such a row-graded matrix taken heaviest first (Cox & Higham, BIT 38,
    1998), where inverting the flowed g(t) loses every digit. At t = 0 the
    weights are 1 and the rows keep their order. Coordinates so large that
    g^-1 overflows reach the QR as non-finite rows, without a warning.

    Returns ``(y, frame, failures)``, y and frame (B, n, n): frame is the
    special orthogonal Q^T P_w (rows heaviest first), its last column
    negated where det Q^T P_w is -1, and y = frame diag(h) frame^T
    symmetrized, so frame is an eigenframe of y by construction. failures
    maps the index of each point whose graded QR refuses it (some
    |R_ii| / weight_i below 1e-12 or NaN, or a weight underflowed to 0) to
    its FactorizationError; such a point's frame is the identity and its
    y the zero matrix. Every other point gets the bits it gets alone.
    """
    hs = [c.h for c in coords]
    ws = [c.w for c in coords]
    d = _permuted_diagonals(hs, ws)
    perms = np.array([_chart_constants(w).perm for w in ws])
    with np.errstate(over="ignore", invalid="ignore"):
        g_inv = _unit_lower_inverse(_nbar_from_affine(np.array([c.lower for c in coords]), d))
        if np.ndim(t) or t != 0.0:
            weights = np.exp(np.reshape(t, (-1, 1)) * (d - np.max(d, axis=1, keepdims=True)))
            # each point's rows, heaviest first
            rows = np.arange(len(coords))[:, None], np.argsort(-weights, axis=1, kind="stable")
            weights = weights[rows]
            g_inv, perms = weights[:, :, None] * g_inv[rows], perms[rows]
        else:  # every weight is exp(0) = 1, and the rows keep their order
            weights = 1.0
    q, _, failures = _signed_qr(g_inv, weights)
    frame = q.swapaxes(1, 2) @ perms
    refused = list(failures)
    if refused:  # a refused frame may not be finite
        frame[refused] = np.eye(frame.shape[-1])
    flip = np.linalg.det(frame) < 0.0
    if flip.any():
        frame[flip, :, -1] *= -1.0
    spectra = _diagonals(np.array([h.values for h in hs]))
    y = frame @ spectra @ frame.swapaxes(1, 2)
    y = 0.5 * (y + y.swapaxes(1, 2))
    if refused:
        y[refused] = 0.0
    return y, frame, failures


def _chart_points(coords, t):
    """Unchecked flag point of each of a list of chart coordinates, as
    :func:`_chart_matrices` takes them, with the y and frame it builds:
    ``(points, failures)``, the QR's failures before FlagPoint's.

    No eigensolve runs. Of FlagPoint's checks, only the gap of the spectrum
    can refuse such a y: symmetry, trace, residual and the spectrum match
    hold by construction. The gap is read from h, and refused with
    FlagPoint's ValueError.
    """
    y, frame, failures = _chart_matrices(coords, t)
    for i, c in enumerate(coords):
        gaps = [a - b for a, b in zip(c.h.values, c.h.values[1:])]
        if min(gaps) <= GAP_TOL:
            failures.setdefault(i, _collision(gaps))
    y.setflags(write=False)
    frame.setflags(write=False)
    return [FlagPoint._of(y[i], c.h, frame[i]) for i, c in enumerate(coords)], failures


def chart_inverse(c: ChartCoords) -> FlagPoint:
    """Flag point with the given chart coordinates.

    Pipeline: affine point -> unit lower conjugator -> big-cell frame ->
    conjugate the spectrum by frame times permutation. Globally defined on
    the whole coordinate space. Raises FactorizationError when the graded
    QR refuses the point, as it does for coordinates so large that the
    conjugator overflows, and FlagPoint's ValueError when two eigenvalues
    of h are within the regularity gap. The point's frame is the QR's.
    """
    points, failures = _chart_points([c], 0.0)
    if failures:
        raise failures[0]
    return points[0]


def _frames(points, ws) -> np.ndarray:
    """Special orthogonal frame Q P_w^-1 of each point for its chart, as a
    (B, n, n) stack; det Q = +1, so an odd w flips the last column of the
    point's frame Q."""
    constants = [_chart_constants(w) for w in ws]
    q = np.array([y.frame for y in points])
    odd = [c.odd for c in constants]
    if any(odd):
        q[odd, :, -1] *= -1.0
    return q @ np.array([c.perm for c in constants]).swapaxes(1, 2)


def _chart_nbars(points, ws):
    """Unit-lower factor of the frame of each point, for its chart.

    One elimination gives both the factor and the trailing minors, as
    running products of its pivots; minor magnitudes do not depend on the
    eigenvector sign choices. Returns ``(nbar, failures)``, nbar
    (B, n, n); failures maps the index of each point outside its chart
    (a trailing minor at or below DOMAIN_MINOR_TOL in magnitude, or a
    vanishing pivot) to its ChartDomainError, or to a sign-factor
    FactorizationError.
    """
    u, nbar, _, failures = _crout(_frames(points, ws))
    for i, err in failures.items():
        if err.minor_index is not None:
            failures[i] = ChartDomainError(f"point is outside the chart at {ws[i].images}: {err}")
            failures[i].__cause__ = err
    minors = np.cumprod(np.diagonal(u, axis1=1, axis2=2)[:, ::-1], axis=1)[:, :-1]
    for i in (np.min(minors, axis=1) <= DOMAIN_MINOR_TOL).nonzero()[0]:
        j = int(np.argmin(minors[i])) + 1
        failures.setdefault(int(i), ChartDomainError(
            f"point is outside the chart at {ws[i].images}: trailing minor of size {j} "
            f"is {minors[i, j - 1]:.2e}"
        ))
    return nbar, failures


def chart_domain_test(y: FlagPoint, w: Permutation) -> bool:
    """Whether y lies in the chart at w.

    True when every trailing principal minor of the de-permuted
    eigenframe exceeds DOMAIN_MINOR_TOL in magnitude.
    """
    _require_size("point", y.h.n, w)
    _, failures = _chart_nbars([y], [w])
    if failures and not isinstance(failures[0], ChartDomainError):
        raise failures[0]
    return not failures


def _coords_from_nbars(nbar, d) -> np.ndarray:
    """Strictly lower coordinates of a unit-lower factor around the
    permuted diagonal d, or of each of a stack around a row of d."""
    dmat = _diagonals(d)
    affine = nbar @ dmat @ _unit_lower_inverse(nbar) - dmat
    return np.where(_strict_lower_mask(d.shape[-1]), affine, 0.0)


def coords_from_frame(kp, w: Permutation, h: Spectrum) -> ChartCoords:
    """Chart coordinates from a special orthogonal frame Q P_w^-1.

    The sign factor of the factorization absorbs the eigenvector sign
    ambiguity, so the value does not depend on which admissible frame is
    supplied.
    """
    nbar = unbar_factorize(kp).nbar
    _require_size("frame", len(nbar), w)
    _require_size("spectrum", h.n, w)
    return ChartCoords(w=w, lower=_coords_from_nbars(nbar, _permuted_diagonal(h, w)), h=h)


def _chart_forwards(points, ws):
    """Unchecked ``chart_forward`` of each point in its chart: ``(lower,
    failures)``, lower (B, n, n) and failures as :func:`_chart_nbars`
    gives them, then a ValueError for each point whose coordinates
    overflow (computed without a warning); a refused point's coordinates
    are zero, so every row of lower is finite."""
    nbar, failures = _chart_nbars(points, ws)
    if failures:  # a refused factor may be huge; it is never read
        nbar[list(failures)] = np.eye(nbar.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        lower = _coords_from_nbars(nbar, _permuted_diagonals([y.h for y in points], ws))
    if not np.isfinite(lower).all():
        overflowed = (~np.isfinite(lower).all(axis=(1, 2))).nonzero()[0]
        lower[overflowed] = 0.0
        for i in overflowed:
            failures[int(i)] = ValueError(
                f"chart coordinates of the point overflow in the chart at {ws[i].images}"
            )
    return lower, failures


def chart_forward(y: FlagPoint, w: Permutation) -> ChartCoords:
    """Chart coordinates of y in the chart at w.

    Raises ChartDomainError when a trailing minor of the frame is at or
    below the domain threshold, and ValueError when the coordinates
    overflow.
    """
    _require_size("point", y.h.n, w)
    lower, failures = _chart_forwards([y], [w])
    if failures:
        raise failures[0]
    lower.setflags(write=False)
    return ChartCoords._of(w, lower[0], y.h)


_CLASSES = {
    (True, True): BruhatClass.BOTH,
    (True, False): BruhatClass.IN_BRUHAT,
    (False, True): BruhatClass.IN_OPPOSITE,
    (False, False): BruhatClass.NEITHER,
}


def _bruhat_classes(lower, ws, tol: float) -> list:
    """``bruhat_classify`` verdict of each chart coordinate matrix of a
    (B, n, n) stack, in the chart of its permutation."""
    support = (np.abs(lower) > tol) & _strict_lower_mask(lower.shape[-1])
    unstable = np.array([_chart_constants(w).unstable for w in ws])
    in_cell = ~np.any(support & ~unstable, axis=(1, 2))
    in_opposite = ~np.any(support & unstable, axis=(1, 2))
    return [_CLASSES[pair] for pair in zip(in_cell.tolist(), in_opposite.tolist())]


def bruhat_classify(y: FlagPoint, w: Permutation, tol: float) -> BruhatClass:
    """Classify y against the two cells at w by its coordinate support."""
    return _bruhat_classes(chart_forward(y, w).lower[None], [w], tol)[0]
