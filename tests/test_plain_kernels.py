"""Each rank-generic kernel on one point's plain (n, n) arrays against the
same point inside a B = 1 and a B = 3 stack, bit for bit.

A kernel takes one point's arrays and objects as they are, or lists (and
stacked arrays) of them. The plain call must give the point the bits it
gets in any stack, and a point the kernel refuses must be refused with the
same exception, type and message, as the stack's failure map holds for it
(keyed 0 for the plain call), which is also what the public one-point map
raises.
"""

import warnings

import numpy as np
import pytest

from toda_atlas.atlas import (
    DOMAIN_MINOR_TOL,
    ChartCoords,
    FlagPoint,
    _bruhat_classes,
    _chart_forwards,
    _chart_matrices,
    _chart_nbars,
    _chart_points,
    _chart_record,
    _coords_from_nbars,
    _flag_points,
    _frames,
    _linear_fields,
    _nbar_from_affine,
    _permuted_diagonals,
    chart_domain_test,
    chart_forward,
    chart_inverse,
    h_conjugate,
)
from toda_atlas.errors import ChartDomainError, FactorizationError
from toda_atlas.factorizations import (
    PIVOT_TOL,
    _crout,
    _signed_qr,
    _unit_lower_inverse,
    unbar_factorize,
)
from toda_atlas.linalg_core import Spectrum, _eigen_stack, symmetric_eigen
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_special_orthogonal,
    random_symmetric_with_spectrum,
)
from toda_atlas.weyl_profiles import Permutation

SIZES = range(2, 13)


def view(out, i):
    """What a kernel's output holds for point i of a stack, or for its one
    point when i is None: array bits with their shape, points, verdicts,
    and the (type, message) of the point's failure, if any. A list holds
    one point as its item 0, as failures do, and a row of floats in a list
    is compared as array bits, every entry and the sign of a zero."""
    if isinstance(out, tuple):
        return tuple(view(part, i) for part in out)
    if isinstance(out, dict):
        err = out.get(0 if i is None else i)
        return None if err is None else (type(err), str(err))
    if isinstance(out, list):
        part = out[0 if i is None else i]
        return view(np.array(part) if isinstance(part, list) else part, None)
    if isinstance(out, FlagPoint):
        return view(out.y, None), view(out.frame, None), out.h
    if isinstance(out, np.ndarray):
        part = out if i is None else out[i]
        return part.shape, part.tobytes()
    return out


def stacked(items):
    return np.array(items) if isinstance(items[0], np.ndarray) else list(items)


def assert_rank_free(kernel, point, others, *shared):
    """kernel on the per-point arguments of point, plain, equals it on the
    point alone in a stack and between the two others in a stack of 3.
    Returns the plain call's output."""
    plain = kernel(*point, *shared)
    one = kernel(*(stacked([a]) for a in point), *shared)
    three = kernel(*(stacked([o, a, p]) for o, a, p in zip(others[0], point, others[1])), *shared)
    assert view(plain, None) == view(one, 0) == view(three, 1)
    return plain


def with_signed_zeros(c, rng):
    """c with some strictly lower coordinates set to +0.0 or -0.0 and some
    entries above the diagonal set to -0.0."""
    lower = np.array(c.lower)
    n = len(lower)
    for _ in range(n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        lower[j, i] = rng.choice([0.0, -0.0])
        lower[i, j] = -0.0
    return ChartCoords(w=c.w, lower=lower, h=c.h)


def draws(n, seed):
    """Three charts, coordinates with signed zeros, their flag points and
    three matrices from outside, of size n."""
    rng = np.random.default_rng(seed)
    h = default_spectrum(n)
    coords = [
        with_signed_zeros(random_chart_coords(random_permutation(n, rng), h, rng), rng)
        for _ in range(3)
    ]
    points = [chart_inverse(c) for c in coords]
    outside = [random_symmetric_with_spectrum(h, rng) for _ in range(3)]
    return coords, points, outside


@pytest.mark.parametrize("n", SIZES)
def test_chart_kernels_give_a_plain_point_its_stack_bits(n):
    coords, points, _ = draws(n, seed=300 + n)
    ws = [c.w for c in coords]
    hs = [c.h for c in coords]
    lowers = [c.lower for c in coords]
    ds = [assert_rank_free(_permuted_diagonals, (h, w), [(hs[0], ws[0]), (hs[2], ws[2])])
          for h, w in zip(hs, ws)]

    def rank_free(kernel, args, *shared):
        """Each of the three draws plain, between the other two."""
        return [assert_rank_free(kernel, args[k], [args[k - 1], args[(k + 1) % 3]], *shared)
                for k in range(3)]

    records = [_chart_record(h, w) for h, w in zip(hs, ws)]
    gs = rank_free(_nbar_from_affine, [(lower, r.gaps) for lower, r in zip(lowers, records)])
    rank_free(_unit_lower_inverse, [(g,) for g in gs])
    rank_free(_linear_fields, list(zip(lowers, ds)))
    rank_free(_coords_from_nbars, [(g, r.diagonal) for g, r in zip(gs, records)])
    for t in (0.0, 0.7):
        rank_free(_chart_matrices, [(c,) for c in coords], t)
        rank_free(_chart_points, [(c,) for c in coords], t)
    frames = rank_free(_frames, list(zip(points, ws)))
    rank_free(_crout, [(f,) for f in frames])
    rank_free(_chart_nbars, list(zip(points, ws)))
    forwards = rank_free(_chart_forwards, list(zip(points, ws)))
    rank_free(_bruhat_classes, [(lower, w) for (lower, _), w in zip(forwards, ws)], 0.1)
    rank_free(_signed_qr, [(g,) for g in gs], 1.0)
    rank_free(_signed_qr, [(g, np.exp(0.3 * d)) for g, d in zip(gs, ds)])
    # the plain map is the kernel's plain call
    for c, point, w, (lower, _) in zip(coords, points, ws, forwards):
        assert view(chart_inverse(c), None) == view(_chart_points(c, 0.0)[0], None)
        assert view(chart_forward(point, w).lower, None) == view(lower, None)


@pytest.mark.parametrize("n", SIZES)
def test_eigen_kernels_give_a_plain_matrix_its_stack_bits(n):
    _, _, outside = draws(n, seed=500 + n)
    h = default_spectrum(n)

    def rank_free(kernel, args, copy):
        for k in range(3):
            others = [args[k - 1], args[(k + 1) % 3]]
            if copy:  # the kernels take the matrices they are given
                fresh = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in item)
                         for item in [args[k]] + others]
                assert_rank_free(kernel, fresh[0], fresh[1:])
            else:
                assert_rank_free(kernel, args[k], others)

    rank_free(_eigen_stack, [(y,) for y in outside], copy=False)
    rank_free(_flag_points, [(y, h) for y in outside], copy=True)
    rank_free(_flag_points, [(y, None) for y in outside], copy=True)
    for y in outside:
        spectrum, frame = symmetric_eigen(y)
        rows, q, _ = _eigen_stack(y)
        assert spectrum.values == tuple(rows[0]) and frame.tobytes() == q.tobytes()
        point = FlagPoint(y, h)
        assert view(point, None) == view(_flag_points(y.copy(), h)[0], None)


def refused_in_a_stack(kernel, refused, ordinary, *shared):
    """The failure a kernel reports for a refused point, plain, alone in a
    stack and between two ordinary points, checked equal; with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failure = view(assert_rank_free(kernel, refused, ordinary, *shared), None)[-1]
    assert failure is not None
    return failure


def raised(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except Exception as err:  # noqa: BLE001 - the type is compared
            return type(err), str(err)
    raise AssertionError("no exception")


@pytest.mark.parametrize("n", SIZES)
class TestRefusals:
    def test_a_dependent_qr_column(self, n):
        coords, _, _ = draws(n, seed=700 + n)
        # a conjugator that overflows reaches the QR as non-finite rows
        huge = ChartCoords(w=coords[1].w, lower=np.tril(np.full((n, n), 1e300), -1), h=coords[1].h)
        failure = refused_in_a_stack(_chart_points, (huge,), [(coords[0],), (coords[2],)], 0.0)
        # at n = 3 the first column holds an inf and no NaN
        kind = "has a norm past the double range" if n == 3 else "is numerically dependent"
        assert failure[0] is FactorizationError and kind in failure[1]
        assert raised(chart_inverse, huge) == failure
        # past t * spread of about 745 the lightest row weight underflows
        failure = refused_in_a_stack(_chart_points, (coords[1],), [(coords[0],), (coords[2],)], 800.0)
        assert failure[0] is FactorizationError and "numerically dependent" in failure[1]

    def test_a_vanishing_pivot(self, n):
        coords, points, _ = draws(n, seed=900 + n)
        h = coords[0].h
        w = Permutation(tuple(range(n, 0, -1)))
        weyl = FlagPoint(h_conjugate(h, Permutation.identity(n)), h)
        ordinary = [(points[0], coords[0].w), (points[2], coords[2].w)]
        failure = refused_in_a_stack(_chart_forwards, (weyl, w), ordinary)
        assert failure[0] is ChartDomainError and "vanishes" in failure[1]
        assert raised(chart_forward, weyl, w) == failure
        assert refused_in_a_stack(_chart_nbars, (weyl, w), ordinary) == failure
        assert not chart_domain_test(weyl, w)
        frames = [_frames(p, v) for p, v in ordinary]
        crout = refused_in_a_stack(_crout, (_frames(weyl, w),), [(f,) for f in frames])
        assert crout[0] is FactorizationError and f"pivot {0.0:.2e}" in crout[1]
        assert raised(unbar_factorize, _frames(weyl, w)) == crout

    def test_a_trailing_minor_at_the_domain_threshold(self, n):
        coords, points, _ = draws(n, seed=1100 + n)
        h = coords[0].h
        # a rotation in the last plane whose last entry is the trailing minor of size 1
        minor = 1e-12
        assert PIVOT_TOL < minor <= DOMAIN_MINOR_TOL
        k = np.eye(n)
        k[-2:, -2:] = [[minor, -np.sqrt(1.0 - minor**2)], [np.sqrt(1.0 - minor**2), minor]]
        point = FlagPoint(k @ h.diag() @ k.T, h)
        w = Permutation.identity(n)
        ordinary = [(points[0], coords[0].w), (points[2], coords[2].w)]
        failure = refused_in_a_stack(_chart_forwards, (point, w), ordinary)
        assert failure[0] is ChartDomainError and "trailing minor of size 1" in failure[1]
        assert raised(chart_forward, point, w) == failure
        assert not chart_domain_test(point, w)

    def test_a_sign_factor_of_determinant_minus_one(self, n):
        coords, points, _ = draws(n, seed=1300 + n)
        h = coords[0].h
        flip = np.diag([1.0] * (n - 1) + [-1.0])
        y = h.diag()
        y.setflags(write=False)
        flip.setflags(write=False)
        # a frame of determinant -1, which only an unchecked point can hold
        point = FlagPoint._of(y, h, flip)
        w = Permutation.identity(n)
        ordinary = [(points[0], coords[0].w), (points[2], coords[2].w)]
        failure = refused_in_a_stack(_chart_forwards, (point, w), ordinary)
        assert failure == (
            FactorizationError, "sign factor has determinant -1; input was not special orthogonal"
        )
        assert raised(chart_forward, point, w) == failure
        assert raised(chart_domain_test, point, w) == failure
        rng = np.random.default_rng(n)
        others = [(random_special_orthogonal(n, rng),) for _ in range(2)]
        assert refused_in_a_stack(_crout, (np.array(flip),), others) == failure

    def test_overflowing_coordinates(self, n):
        coords, points, _ = draws(n, seed=1500 + n)
        # a point of a spectrum near the double range (its small values
        # absorbed and cancelled in the sum, which is exactly 0), with
        # coordinates of 1e-6 times their gap in the identity chart,
        # overflows in the chart of the transposition of 1 and n
        h = Spectrum((1e306,) + tuple((n - 3) / 2 - k for k in range(n - 2)) + (-1e306,))
        gaps = np.subtract.outer(h.values, h.values)
        lower = np.tril(np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)), -1) * 1e-6 * gaps
        point = chart_inverse(ChartCoords(w=Permutation.identity(n), lower=lower, h=h))
        w = Permutation((n,) + tuple(range(2, n)) + (1,))
        ordinary = [(points[0], coords[0].w), (points[2], coords[2].w)]
        failure = refused_in_a_stack(_chart_forwards, (point, w), ordinary)
        assert failure[0] is ValueError and "overflow" in failure[1]
        assert raised(chart_forward, point, w) == failure
        assert not _chart_forwards(point, w)[0].any()


def overflowing_coordinates():
    """Finite coordinates in the identity chart of S3 whose conjugator has
    an inverse with a first column past the double range: the graded QR
    meets an infinite pivot."""
    lower = np.array([[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return ChartCoords(Permutation.identity(3), lower, Spectrum((1.0, 0.0, -1.0)))


class TestKernelsHandOnTheirRefusals:
    """A kernel hands each point it refuses on in a finite form that means
    nothing, so no later stage patches it up, and its neighbours in a
    stack keep their plain bits."""

    def test_chart_inverse_refuses_an_infinite_pivot(self):
        assert raised(chart_inverse, overflowing_coordinates()) == (
            FactorizationError, "column 1 has a norm past the double range"
        )

    def test_chart_points_refuse_exactly_that_point(self):
        huge = overflowing_coordinates()
        rng = np.random.default_rng(30)
        ok = [random_chart_coords(random_permutation(3, rng), huge.h, rng) for _ in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, failures = _chart_points([ok[0], huge, ok[1]], 0.0)
        assert list(failures) == [1]
        assert (type(failures[1]), str(failures[1])) == raised(chart_inverse, huge)
        for i, c in ((0, ok[0]), (2, ok[1])):
            assert view(points[i], None) == view(_chart_points(c, 0.0)[0], None)
        assert np.isfinite(points[1].y).all() and np.isfinite(points[1].frame).all()

    @pytest.mark.parametrize("n", [3, 7])
    def test_chart_nbars_give_a_refused_point_an_identity_factor(self, n):
        coords, points, _ = draws(n, seed=1700 + n)
        h = coords[0].h
        weyl = FlagPoint(h_conjugate(h, Permutation.identity(n)), h)
        minor = 1e-12  # the trailing minor of size 1, at the domain threshold
        k = np.eye(n)
        k[-2:, -2:] = [[minor, -np.sqrt(1.0 - minor**2)], [np.sqrt(1.0 - minor**2), minor]]
        y, flip = h.diag(), np.diag([1.0] * (n - 1) + [-1.0])
        y.setflags(write=False)
        flip.setflags(write=False)
        identity, reversal = Permutation.identity(n), Permutation(tuple(range(n, 0, -1)))
        stack = [
            (points[0], coords[0].w),
            (weyl, reversal),  # a vanishing pivot
            (FlagPoint(k @ h.diag() @ k.T, h), identity),  # a minor at the threshold
            (FlagPoint._of(y, h, flip), identity),  # a sign factor of determinant -1
            (points[2], coords[2].w),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nbar, failures = _chart_nbars([p for p, _ in stack], [w for _, w in stack])
        assert sorted(failures) == [1, 2, 3]
        for i, (point, w) in enumerate(stack):
            plain = _chart_nbars(point, w)[0]
            assert nbar[i].tobytes() == plain.tobytes()
            if i in failures:
                assert plain.tobytes() == np.eye(n).tobytes()
