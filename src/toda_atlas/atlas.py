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

Every stage of the pipeline is a kernel of either rank, with one code
path for both (axes -1/-2, ``.mT`` and ``...``): it takes one point's
objects (a ``ChartCoords``; a ``FlagPoint`` and a ``Permutation``) and
works on their plain (n, n) arrays, or lists of them and works on
(B, n, n) stacks, and a point gets the same bits either way:
``_chart_matrices`` (the graded QR of the inverse, giving y and its
frame), ``_chart_points`` (its flag points, with no eigensolve),
``_flag_points`` (the eigensolve and checks of ``FlagPoint``, for
matrices from elsewhere), ``_frames``, ``_chart_nbars`` (the Crout
elimination and domain test of the forward map), ``_chart_forwards``,
``_coords_from_nbars``, ``_permuted_diagonals``, ``_linear_fields`` and
``_bruhat_classes``. A kernel does not raise for a point it refuses: it
returns ``failures``, a dict from the index of each refused point (0 for
one point) to the exception the one-point function raises for it, with
its type and message, and hands the point on in a form the next stage
takes without a warning. The kernel that refuses a point writes that
form, and no caller patches it: the graded QR (``_signed_qr``) gives a
refused point an identity q, so its frame and y are finite and mean
nothing, and ``_chart_nbars`` gives one an identity nbar. The public
maps are one-point calls of these kernels, on the point's plain arrays
and with no list built: ``FlagPoint`` of ``_flag_points``,
``chart_inverse`` of ``_chart_points``, ``chart_forward`` of
``_chart_forwards``, ``chart_domain_test`` of ``_chart_nbars``,
``bruhat_classify`` of ``_chart_forwards`` and ``_bruhat_classes``, and
``chart_linear_field`` of ``_linear_fields``; each raises its point's
failure.

What depends on the chart alone is made once and kept read-only:
``_chart_constants(w)`` per permutation, and ``_chart_record(h, w)`` per
chart, which holds the permuted diagonal d, diag(d), the gap matrix
(d_j - d_i in row i) and diag(h). The chart maps read those arrays
(``_chart_matrices`` d, the gaps and diag(h); ``_nbar_from_affine`` the
gaps; ``_coords_from_nbars`` diag(d)) rather than rebuilding them each
call. The record is keyed on the bits of h's values, so spectra equal
but for the sign of a zero do not share one, and both caches are
bounded.

numpy calls per one-point map, at n = 4 / 12 on one draw, with
the caches warm: ``chart_inverse`` 39 / 70, ``chart_forward`` 51 / 107,
``chart_domain_test`` 36 / 76, ``bruhat_classify`` 61 / 117,
``FlagPoint`` 41 / 40. Counted are the calls made in the package's own
frames of numpy functions, ufuncs and methods of arrays and numpy
scalars, and operators with an array operand; indexing, attribute reads,
numpy scalar arithmetic and ``np.errstate`` are not. ``_make_special``'s
column negation adds one where a frame's determinant is -1 (the n = 4
``chart_inverse`` draw).
"""

import functools
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ChartDomainError
from .factorizations import (
    _crout,
    _identities,
    _row_plan,
    _signed_qr,
    _unit_lower_inverse,
    unbar_factorize,
)
from .linalg_core import (
    GAP_TOL,
    Spectrum,
    _collision,
    _dot,
    _eigen_stack,
    _finite,
    _make_special,
    _require_tol,
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
        point, failures = _flag_points(y, self.h)
        if failures:
            raise failures[0]
        for name in ("y", "h", "frame"):
            object.__setattr__(self, name, getattr(point, name))

    @classmethod
    def _of(cls, y, h, frame) -> "FlagPoint":
        """A point from read-only arrays a stack kernel has checked."""
        point = object.__new__(cls)
        for name, value in (("y", y), ("h", h), ("frame", frame)):
            object.__setattr__(point, name, value)
        return point


def _flag_points(y, hs):
    """Unchecked FlagPoint of one finite (n, n) matrix with the declared
    spectrum hs, or of each matrix of a finite (B, n, n) stack with a list
    hs (None for the spectrum the eigensolve finds): ``(points,
    failures)``, one point or a list, failures mapping the index of each
    matrix FlagPoint refuses to the exception it raises, the eigensolve's
    before a spectrum farther than _EIGENVALUE_TOL from the declared one (a
    refused matrix's point means nothing). The points share y, which
    becomes read-only. Every caller hands it finite matrices: FlagPoint
    through ``as_matrix``, and the suites their samples and the final
    states of integrator runs, which the integrator checks."""
    rows, q, failures = _eigen_stack(y)
    declared = _items(hs)
    for i, h in enumerate(declared):
        if h is not None and any(abs(a - b) > _EIGENVALUE_TOL for a, b in zip(rows[i], h.values)):
            failures.setdefault(i, ValueError(
                f"matrix eigenvalues {tuple(rows[i])} do not match "
                f"the declared spectrum {h.values}"
            ))
    spectra = [Spectrum._of(tuple(row)) if h is None else h for h, row in zip(declared, rows)]
    y.setflags(write=False)
    q.setflags(write=False)
    if y.ndim == 2:
        return FlagPoint._of(y, spectra[0], q), failures
    return [FlagPoint._of(y[i], spectra[i], q[i]) for i in range(len(y))], failures


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
    unpermute: np.ndarray  # P_w^-1, its last row negated for an odd w (see _frames)
    unstable: np.ndarray  # the mask of the unstable pairs of inversion_sets(w)


@functools.lru_cache(maxsize=1024)
def _chart_constants(w: Permutation) -> _ChartConstants:
    """Read-only constants of the chart at w, made once per w."""
    perm = np.ascontiguousarray(perm_matrix(w))
    unpermute = perm.T.copy()
    if w.inversion_count() % 2 == 1:
        unpermute[-1] *= -1.0
    constants = _ChartConstants(
        np.array(w.images) - 1, perm, unpermute, _inverted_mask(w.inverse())
    )
    for a in constants:
        a.setflags(write=False)
    return constants


@dataclass(frozen=True)
class _ChartRecord:
    """Read-only arrays of the chart at w for the spectrum h."""

    d: np.ndarray  # the permuted diagonal, d_i = h[w^-1(i)]
    diagonal: np.ndarray  # diag(d)
    gaps: np.ndarray  # d_j - d_i in row i, the divisors of nbar_from_affine
    spectrum: np.ndarray  # diag(h)


def _chart_record(h: Spectrum, w: Permutation) -> _ChartRecord:
    """The record of the chart at w for h, made once per (h, w). Spectra
    that differ only in the sign of a zero are equal and hash alike, so
    the record is keyed on the bits of h's values, not on h. The cache
    pays where charts recur, as in the analysis suites; a lookup that
    misses costs a few microseconds more than building, in the map, only
    the arrays it reads."""
    return _record(w, array("d", h.values).tobytes())


@functools.lru_cache(maxsize=256)
def _record(w: Permutation, bits: bytes) -> _ChartRecord:
    """The record of the chart at w for the spectrum whose values, as
    doubles, are the bytes ``bits``. The bound keeps at most 256 records,
    about 1.1 MB at n = 12."""
    values = np.frombuffer(bits)
    d = np.empty(len(values))
    d[_chart_constants(w).images] = values
    record = _ChartRecord(d, np.diag(d), d[None, :] - d[:, None], np.diag(values))
    for a in (record.d, record.diagonal, record.gaps, record.spectrum):
        a.setflags(write=False)
    return record


def _one(items) -> bool:
    """Whether a kernel's argument is one point's item (a FlagPoint,
    ChartCoords, Permutation, Spectrum, chart record or None) rather than
    a list of them: the kernel then works on plain (n, n) arrays."""
    return not isinstance(items, (list, tuple))


def _items(items):
    """A kernel's list argument as it is, or one point's item as a 1-tuple."""
    return (items,) if _one(items) else items


def _each(get, *items):
    """get of one point's items, or, like ``map``, the list of get of each
    point's items from lists of the same length."""
    return get(*items) if _one(items[0]) else list(map(get, *items))


def _stacked(get, *items):
    """get of one point's items, a plain array, or the arrays of each
    point of lists of items stacked along a new first axis."""
    return get(*items) if _one(items[0]) else np.array(_each(get, *items))


def _permuted_diagonals(hs, ws) -> np.ndarray:
    """Unchecked permuted diagonal d, d_i = h[w^-1(i)], of a spectrum hs and
    a permutation ws, 1-D and read-only, or of each pair of the lists hs
    and ws, as a (B, n) array."""
    return _stacked(lambda h, w: _chart_record(h, w).d, hs, ws)


def _require_size(what: str, n: int, w: Permutation) -> None:
    if n != w.n:
        raise ValueError(f"dimension mismatch: {what} is {n}, permutation is {w.n}")


def h_conjugate(h: Spectrum, w: Permutation) -> np.ndarray:
    """Diagonal matrix with entry i equal to h[w^-1(i)] (conjugation by w)."""
    _require_size("spectrum", h.n, w)
    return np.diag(_permuted_diagonals(h, w))


def nbar_from_affine(c: ChartCoords) -> np.ndarray:
    """Unit lower g with g D g^-1 = D + c.lower, D the permuted diagonal.

    Solved row by row by forward substitution; solvable because the
    diagonal gaps of a regular permuted diagonal never vanish. A -0.0
    coordinate enters as +0.0. Raises ValueError, without a warning, when
    an entry of g overflows.
    """
    return _finite(
        "nbar_from_affine overflows: an entry of the forward substitution is not finite",
        _nbar_from_affine, c.lower, _chart_record(c.h, c.w).gaps,
    )


def _nbar_from_affine(lower, gaps) -> np.ndarray:
    """``nbar_from_affine`` of strictly lower coordinates around diag(d),
    for one (n, n) matrix or each matrix of a (B, n, n) stack, gaps being
    the chart record's gap matrix (row i holds d_j - d_i) of each."""
    x = lower + 0.0
    g = _identities(x.shape)
    for row_at, block_at in _row_plan(x.shape[-1]):
        row = g[row_at]
        np.vecmat(x[row_at], g[block_at], out=row)
        np.divide(row, gaps[row_at], out=row)
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
    return _finite(
        "chart linear field overflows: a coordinate times its gap is not finite",
        _linear_fields, c.lower, _permuted_diagonals(c.h, c.w),
    )


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
    gaps = _gaps(_permuted_diagonals(c.h, c.w))
    max_exponent = float(np.max(np.abs(gaps))) * abs(t)
    if max_exponent > _EXP_LIMIT:
        raise OverflowError(
            f"exponent {max_exponent:.3g} exceeds {_EXP_LIMIT:.0f}; shrink |t| or the gaps"
        )
    flowed = _finite(
        f"chart coordinates overflow under the flow for time t = {t:.3g}",
        lambda: np.where(_strict_lower_mask(c.h.n), np.exp(gaps * t) * c.lower, 0.0),
    )
    flowed.setflags(write=False)
    return ChartCoords._of(c.w, flowed, c.h)


def _chart_matrices(coords, t):
    """The symmetric matrix of the flag point of chart coordinates, as
    plain (n, n) arrays, or of each of a list of chart coordinates of one
    size, as (B, n, n) stacks, flowed for time t >= 0 (a float, or one per
    point of a list) by the linear chart flow.

    The flow conjugates g = nbar_from_affine of c by diag(exp(t d)), d the
    permuted diagonal, so the frame is Q^T P_w for the Q factor of g^-1
    with rows weighted by exp(t (d - max d)). Householder QR is accurate on
    such a row-graded matrix taken heaviest first (Cox & Higham, BIT 38,
    1998), where inverting the flowed g(t) loses every digit. At t = 0 the
    weights are 1 and the rows keep their order. Coordinates so large that
    g^-1 overflows reach the QR as non-finite rows, without a warning.

    Returns ``(y, frame, failures)``: frame is the special orthogonal
    Q^T P_w (rows heaviest first), its last column negated where
    det Q^T P_w is -1, and y = frame diag(h) frame^T symmetrized, so frame
    is an eigenframe of y by construction. failures maps the index of each
    point (0 for one point) whose graded QR refuses it (some
    |R_ii| / weight_i below 1e-12, NaN or infinite, or a weight
    underflowed to 0) to its FactorizationError. Such a point is built
    from the identity q ``_signed_qr`` hands it on with, so its frame and
    y are finite and mean nothing; nothing here writes to it. Every other
    point gets the same bits alone, plain, and in any stack.
    """
    dot = _dot(_one(coords))
    records = _each(lambda c: _chart_record(c.h, c.w), coords)
    lower = _stacked(lambda c: c.lower, coords)
    perm = _stacked(lambda c: _chart_constants(c.w).perm, coords)
    with np.errstate(over="ignore", invalid="ignore"):
        g_inv = _unit_lower_inverse(_nbar_from_affine(lower, _stacked(lambda r: r.gaps, records)))
        if not isinstance(t, float) or t != 0.0:
            d = _stacked(lambda r: r.d, records)
            weights = np.exp(np.asarray(t)[..., None] * (d - d.max(axis=-1, keepdims=True)))
            # each point's rows, heaviest first
            order = np.argsort(-weights, axis=-1, kind="stable")
            weights = np.take_along_axis(weights, order, axis=-1)
            g_inv = weights[..., None] * np.take_along_axis(g_inv, order[..., None], axis=-2)
            perm = np.take_along_axis(perm, order[..., None], axis=-2)
        else:  # every weight is exp(0) = 1, and the rows keep their order
            weights = 1.0
    q, _, _, failures = _signed_qr(g_inv, weights)
    frame = dot(q.mT, perm)
    _make_special(frame)
    y = dot(dot(frame, _stacked(lambda r: r.spectrum, records)), frame.mT)
    y = 0.5 * (y + y.mT)
    return y, frame, failures


def _chart_points(coords, t):
    """Unchecked flag point of chart coordinates, or of each of a list of
    them, as :func:`_chart_matrices` takes them, with the y and frame it
    builds: ``(points, failures)``, one point or a list, the QR's failures
    before FlagPoint's. A refused point's y and frame are finite and mean
    nothing.

    No eigensolve runs. Of FlagPoint's checks, only the gap of the spectrum
    can refuse such a y: symmetry, trace, residual and the spectrum match
    hold by construction. The gap is read from h, and refused with
    FlagPoint's ValueError.
    """
    y, frame, failures = _chart_matrices(coords, t)
    for i, c in enumerate(_items(coords)):
        gaps = [a - b for a, b in zip(c.h.values, c.h.values[1:])]
        if min(gaps) <= GAP_TOL:
            failures.setdefault(i, _collision(gaps))
    y.setflags(write=False)
    frame.setflags(write=False)
    if _one(coords):
        return FlagPoint._of(y, coords.h, frame), failures
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
    point, failures = _chart_points(c, 0.0)
    if failures:
        raise failures[0]
    return point


def _frames(points, ws) -> np.ndarray:
    """Special orthogonal frame Q P_w^-1 of a point for its chart, (n, n),
    or of each of a list of points, (B, n, n). det Q = +1, so for an odd w
    the last column of the point's frame Q is negated, by the negated last
    row of the chart's ``unpermute``: each entry of the product is then the
    one nonzero term of the negated column's, with the zero terms signed
    alike, so the bits are those of negating the column first."""
    q = _stacked(lambda y: y.frame, points)
    unpermute = _stacked(lambda w: _chart_constants(w).unpermute, ws)
    return _dot(_one(ws))(q, unpermute)


def _chart_nbars(points, ws):
    """Unit-lower factor of the frame of a point for its chart, or of each
    of a list of points.

    One elimination gives both the factor and the trailing minors, as
    running products of its pivots; minor magnitudes do not depend on the
    eigenvector sign choices. Returns ``(nbar, failures)``, nbar (n, n) or
    (B, n, n); failures maps the index of each point (0 for one point)
    outside its chart (a trailing minor at or below DOMAIN_MINOR_TOL in
    magnitude, or a vanishing pivot) to its ChartDomainError, or to a
    sign-factor FactorizationError. The kernel hands each refused point
    on with the identity as its nbar, since a factor past the domain
    threshold may be huge: finite, and meaning nothing.
    """
    low, nbar, _, failures = _crout(_frames(points, ws))
    charts = _items(ws)
    for i, err in failures.items():
        if err.minor_index is not None:
            failures[i] = ChartDomainError(f"point is outside the chart at {charts[i].images}: {err}")
            failures[i].__cause__ = err
    minors = np.abs(low.diagonal(axis1=-2, axis2=-1)).cumprod(axis=-1)[..., :-1]
    outside = minors.min(axis=-1, keepdims=True) <= DOMAIN_MINOR_TOL
    if outside.any():
        minors = minors.reshape(-1, minors.shape[-1])
        for i in np.flatnonzero(outside).tolist():
            j = int(np.argmin(minors[i])) + 1
            failures.setdefault(i, ChartDomainError(
                f"point is outside the chart at {charts[i].images}: trailing minor of size {j} "
                f"is {minors[i, j - 1]:.2e}"
            ))
    if failures:  # a refused factor may be huge
        nbar.reshape(-1, *nbar.shape[-2:])[list(failures)] = np.eye(nbar.shape[-1])
    return nbar, failures


def chart_domain_test(y: FlagPoint, w: Permutation) -> bool:
    """Whether y lies in the chart at w.

    True when every trailing principal minor of the de-permuted
    eigenframe exceeds DOMAIN_MINOR_TOL in magnitude.
    """
    _require_size("point", y.h.n, w)
    _, failures = _chart_nbars(y, w)
    if failures and not isinstance(failures[0], ChartDomainError):
        raise failures[0]
    return not failures


def _coords_from_nbars(nbar, diagonal) -> np.ndarray:
    """Strictly lower coordinates of a unit-lower factor around the
    diagonal matrix diag(d) of a permuted diagonal d (a chart record's
    ``diagonal``), or of each of a (B, n, n) stack around its own."""
    dot = _dot(nbar.ndim == 2)
    affine = dot(dot(nbar, diagonal), _unit_lower_inverse(nbar)) - diagonal
    return np.where(_strict_lower_mask(nbar.shape[-1]), affine, 0.0)


def coords_from_frame(kp, w: Permutation, h: Spectrum) -> ChartCoords:
    """Chart coordinates from a special orthogonal frame Q P_w^-1.

    The sign factor of the factorization absorbs the eigenvector sign
    ambiguity, so the value does not depend on which admissible frame is
    supplied.
    """
    nbar = unbar_factorize(kp).nbar
    _require_size("frame", len(nbar), w)
    _require_size("spectrum", h.n, w)
    return ChartCoords(w=w, lower=_coords_from_nbars(nbar, _chart_record(h, w).diagonal), h=h)


def _chart_forwards(points, ws):
    """Unchecked ``chart_forward`` of a point in its chart, or of each of a
    list of points: ``(lower, failures)``, lower (n, n) or (B, n, n) and
    failures as :func:`_chart_nbars` gives them, then a ValueError for each
    point whose coordinates overflow (computed without a warning). A point
    ``_chart_nbars`` refuses comes out of the identity nbar it hands on
    with zero coordinates, and those of a point that overflows are written
    zero, so lower is finite."""
    nbar, failures = _chart_nbars(points, ws)
    diagonal = _stacked(lambda y, w: _chart_record(y.h, w).diagonal, points, ws)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = _coords_from_nbars(nbar, diagonal)
    if not np.isfinite(lower).all():
        overflowed = ~np.isfinite(lower).all(axis=(-2, -1))
        lower[overflowed] = 0.0
        charts = _items(ws)
        for i in np.flatnonzero(overflowed).tolist():
            failures[i] = ValueError(
                f"chart coordinates of the point overflow in the chart at {charts[i].images}"
            )
    return lower, failures


def chart_forward(y: FlagPoint, w: Permutation) -> ChartCoords:
    """Chart coordinates of y in the chart at w.

    Raises ChartDomainError when a trailing minor of the frame is at or
    below the domain threshold, and ValueError when the coordinates
    overflow.
    """
    _require_size("point", y.h.n, w)
    lower, failures = _chart_forwards(y, w)
    if failures:
        raise failures[0]
    lower.setflags(write=False)
    return ChartCoords._of(w, lower, y.h)


_CLASSES = {
    (True, True): BruhatClass.BOTH,
    (True, False): BruhatClass.IN_BRUHAT,
    (False, True): BruhatClass.IN_OPPOSITE,
    (False, False): BruhatClass.NEITHER,
}


def _bruhat_classes(lower, ws, tol: float):
    """``bruhat_classify`` verdict of a chart coordinate matrix in the chart
    at the permutation ws, or the list of verdicts of each matrix of a
    (B, n, n) stack, in the chart of its permutation."""
    support = (np.abs(lower) > tol) & _strict_lower_mask(lower.shape[-1])
    unstable = _stacked(lambda w: _chart_constants(w).unstable, ws)
    in_cell = (~(support & ~unstable).any(axis=(-2, -1))).tolist()
    in_opposite = (~(support & unstable).any(axis=(-2, -1))).tolist()
    if _one(ws):
        return _CLASSES[in_cell, in_opposite]
    return [_CLASSES[pair] for pair in zip(in_cell, in_opposite)]


def bruhat_classify(y: FlagPoint, w: Permutation, tol: float) -> BruhatClass:
    """Classify y against the two cells at w by its coordinate support,
    the entries above tol (finite, >= 0)."""
    _require_tol(tol)
    return _bruhat_classes(chart_forward(y, w).lower, w, tol)
