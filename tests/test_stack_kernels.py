"""Each stack kernel of the chart pipeline against its one-point function.

On stacks that mix points the one-point function accepts with points it
refuses, a kernel must give every accepted point the bits it gets alone,
report exactly the refused points in its failures, and hold for each the
exception (type and message) the one-point function raises.
"""

import warnings

import numpy as np
import pytest

from toda_atlas.atlas import (
    ChartCoords,
    FlagPoint,
    _bruhat_classes,
    _chart_forwards,
    _chart_matrices,
    _chart_nbars,
    _chart_points,
    _chart_record,
    _flag_points,
    _frames,
    _nbar_from_affine,
    bruhat_classify,
    chart_domain_test,
    chart_flow_exact,
    chart_forward,
    chart_inverse,
    h_conjugate,
)
from toda_atlas.errors import ChartDomainError, FactorizationError
from toda_atlas.factorizations import (
    _crout,
    _signed_qr,
    _unit_lower_inverse,
    kan_factorize,
    unbar_factorize,
)
from toda_atlas.linalg_core import Spectrum, _eigen_stack, symmetric_eigen
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_special_orthogonal,
    random_symmetric_with_spectrum,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import Permutation


def one_point_outcomes(call, items):
    """Per item, ("ok", result) or ("raises", type, message) of call(item)."""
    outcomes = []
    for item in items:
        try:
            outcomes.append(("ok", call(item)))
        except Exception as err:  # noqa: BLE001 - the type is compared
            outcomes.append(("raises", type(err), str(err)))
    return outcomes


def assert_failures_match(failures, outcomes):
    """The failure mask is "the one-point call raises", with its errors."""
    assert sorted(failures) == [i for i, o in enumerate(outcomes) if o[0] == "raises"]
    for i, err in failures.items():
        assert (type(err), str(err)) == outcomes[i][1:]
    assert any(o[0] == "raises" for o in outcomes) and any(o[0] == "ok" for o in outcomes)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def reference_eigen(y):
    """symmetric_eigen written for one matrix, without the stack kernel."""
    scale = max(1.0, float(np.linalg.norm(y)))
    if np.linalg.norm(y - y.T) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    eigs, q = np.linalg.eigh(0.5 * (y + y.T))
    lam = eigs[::-1]
    q = q[:, ::-1]
    gaps = -np.diff(lam)
    if np.any(gaps <= 1e-8):
        i = int(np.argmin(gaps))
        raise ValueError(
            f"eigenvalue collision: gap {gaps[i]:.3e} between eigenvalues "
            f"{i + 1} and {i + 2} is below 1e-08"
        )
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return Spectrum(tuple(lam)), q


def reference_unbar(k):
    """unbar_factorize's Crout elimination written for one matrix."""
    n = k.shape[0]
    flipped = k[::-1, ::-1].copy()
    low = np.zeros((n, n))
    upp = np.eye(n)
    for c in range(n):
        low[c:, c] = flipped[c:, c] - low[c:, :c] @ upp[:c, c]
        pivot = low[c, c]
        if abs(pivot) < 1e-13:
            raise FactorizationError(
                f"not factorizable: trailing principal minor of size {c + 1} "
                f"vanishes (pivot {pivot:.2e})"
            )
        upp[c, c + 1:] = (flipped[c, c + 1:] - low[c, :c] @ upp[:c, c + 1:]) / pivot
    signs = np.sign(np.diag(low))
    return (
        (low * signs)[::-1, ::-1],
        (signs[:, None] * upp * signs[None, :])[::-1, ::-1],
        np.diag(signs[::-1]),
    )


def mixed_symmetric_stack():
    """Matrices symmetric_eigen accepts, and one of each it refuses."""
    rng = rng_from_seed(3)
    h = default_spectrum(4)
    good = [random_symmetric_with_spectrum(h, rng) for _ in range(4)]
    asymmetric = good[0] + np.triu(np.full((4, 4), 1e-3), 1)
    colliding = np.diag([1.0, 1.0 - 1e-9, -1.0, -1.0 + 1e-9])
    with_trace = good[1] + 1e-6 * np.eye(4)
    return np.array([good[0], asymmetric, good[1], colliding, with_trace, good[2], good[3]])


class TestEigenStack:
    def test_equals_symmetric_eigen_per_matrix(self):
        y = mixed_symmetric_stack()
        rows, q, failures = _eigen_stack(y.copy())
        outcomes = one_point_outcomes(symmetric_eigen, y)
        assert_failures_match(failures, outcomes)
        # the residual check, last in line, refuses none of these
        references = one_point_outcomes(reference_eigen, y)
        for i, (outcome, reference) in enumerate(zip(outcomes, references)):
            if outcome[0] == "raises":
                assert outcome == reference
            else:
                spectrum, frame = outcome[1]
                assert same_bits(rows[i], spectrum.values) and spectrum == reference[1][0]
                assert same_bits(q[i], frame) and same_bits(frame, reference[1][1])

    def test_flag_points_equal_flag_point_per_matrix(self):
        y = mixed_symmetric_stack()
        h = default_spectrum(4)
        y[6] = h_conjugate(Spectrum((4.0, 1.0, -1.0, -4.0)), Permutation.identity(4))
        points, failures = _flag_points(y.copy(), [h] * len(y))
        outcomes = one_point_outcomes(lambda m: FlagPoint(m, h), y)
        assert_failures_match(failures, outcomes)
        for i, outcome in enumerate(outcomes):
            if outcome[0] == "ok":
                assert same_bits(points[i].y, outcome[1].y)
                assert same_bits(points[i].frame, outcome[1].frame)
                assert points[i].h == outcome[1].h
                assert not points[i].y.flags.writeable and not points[i].frame.flags.writeable

    def test_an_overflowing_matrix_is_a_failure_of_its_own(self):
        # 0.5 * (y + y^T) overflows for this y: it is refused, with no
        # warning, and every other matrix of the stack keeps its outcome
        y = mixed_symmetric_stack()
        y[2] = np.diag([1.7e308, 0.0, 0.0, -1.7e308])
        h = default_spectrum(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, q, failures = _eigen_stack(y.copy())
            points, flag_failures = _flag_points(y.copy(), [h] * len(y))
            outcomes = one_point_outcomes(symmetric_eigen, y)
            flag_outcomes = one_point_outcomes(lambda m: FlagPoint(m, h), y)
        assert_failures_match(failures, outcomes)
        assert_failures_match(flag_failures, flag_outcomes)
        for found in (outcomes[2], flag_outcomes[2]):
            assert found[:2] == ("raises", ValueError) and "too large" in found[2]
        for i, (outcome, flag_outcome) in enumerate(zip(outcomes, flag_outcomes)):
            if flag_outcome[0] == "ok":
                spectrum, frame = outcome[1]
                assert same_bits(rows[i], spectrum.values) and same_bits(q[i], frame)
                assert same_bits(points[i].frame, flag_outcome[1].frame)


    def test_a_spread_past_the_double_range_is_a_failure_of_its_own(self):
        # every entry of this y is below 2**1023 but its eigenvalue spread
        # overflows: FlagPoint refuses it with Spectrum's error, and so
        # does the stack, with no warning, whatever spectrum is declared
        a = 8e307
        y = mixed_symmetric_stack()
        y[4] = np.diag([0.0, 0.0, 1.0, -1.0])
        y[4, :2, :2] = [[a, a], [a, -a]]
        h = default_spectrum(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, failures = _eigen_stack(y.copy())
            _, flag_failures = _flag_points(y.copy(), [h] * len(y))
            outcomes = one_point_outcomes(symmetric_eigen, y)
            flag_outcomes = one_point_outcomes(lambda m: FlagPoint(m, h), y)
        assert_failures_match(failures, outcomes)
        assert_failures_match(flag_failures, flag_outcomes)
        for found in (outcomes[4], flag_outcomes[4]):
            assert found[:2] == ("raises", ValueError) and "finite spread" in found[2]


def flowed_coords(n, t, count, seed):
    """Chart coordinates flowed for time t: at t >= 2 the graded QR
    refuses some of them at n >= 10."""
    rng = np.random.default_rng(seed)
    h = default_spectrum(n)
    return [
        chart_flow_exact(random_chart_coords(random_permutation(n, rng), h, rng), t)
        for _ in range(count)
    ]


def chart_point_alone(c, t):
    """The flag point of c flowed for time t in a stack of its own, or the
    failure that stack reports for it, raised."""
    points, failures = _chart_points([c], t)
    if failures:
        raise failures[0]
    return points[0]


class TestChartPoints:
    @pytest.mark.parametrize("n, t", [(10, 2.0), (12, 2.0)])
    def test_equal_chart_point_per_point(self, n, t):
        coords = flowed_coords(n, t, 16, seed=11)
        # the flowed coordinates are taken at t = 0 (chart_inverse), and
        # the drawn ones at t, some of them past the weights' underflow
        drawn = [ChartCoords(c.w, np.tril(np.ones((n, n)), -1) * 0.5, c.h) for c in coords[:4]]
        times = [0.0] * len(coords) + [t, 2 * t, 40.0, 80.0]
        coords = coords + drawn
        points, failures = _chart_points(coords, times)
        outcomes = one_point_outcomes(lambda ct: chart_point_alone(*ct), zip(coords, times))
        assert_failures_match(failures, outcomes)
        for i, outcome in enumerate(outcomes):
            if outcome[0] == "ok":
                assert same_bits(points[i].y, outcome[1].y)
                assert same_bits(points[i].frame, outcome[1].frame)
        _, _, qr_failures = _chart_matrices(coords, times)
        assert set(qr_failures) <= set(failures)
        assert all(type(failures[i]) is FactorizationError for i in qr_failures)

    def test_a_scalar_time_is_every_point_at_that_time(self):
        coords = flowed_coords(6, 1.0, 5, seed=2)
        y, frame, _ = _chart_matrices(coords, 0.7)
        listed = _chart_matrices(coords, [0.7] * 5)
        assert same_bits(y, listed[0]) and same_bits(frame, listed[1])
        for i, c in enumerate(coords):
            alone = chart_point_alone(c, 0.7)
            assert same_bits(y[i], alone.y) and same_bits(frame[i], alone.frame)

    def test_an_underflowed_weight_is_a_dependent_column(self):
        # past t * spread of about 745 the lightest row weight is 0; its
        # pivot ratio 0 / 0 must count as dependent, with no warning
        rng = np.random.default_rng(11)
        n = 12
        c = random_chart_coords(random_permutation(n, rng), default_spectrum(n), rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError, match="numerically dependent"):
                chart_point_alone(c, 40.0)

    def test_signed_qr_counts_zero_weights_and_nan_ratios_as_dependent(self):
        m = np.array([np.eye(3), np.eye(3), np.eye(3)])
        m[2, 2, 2] = np.nan
        weights = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, failures = _signed_qr(m, weights)
        assert sorted(failures) == [1, 2]
        assert all(str(err) == "column 3 is numerically dependent on earlier columns"
                   for err in failures.values())

    def test_signed_qr_stack_equals_kan_factorize(self):
        rng = rng_from_seed(8)
        g = rng.standard_normal((5, 4, 4))
        g[:, :, 0] *= np.sign(np.linalg.det(g))[:, None]
        g /= np.linalg.det(g)[:, None, None] ** 0.25
        g[3, :, 2] = g[3, :, 1]  # a dependent column, of determinant 0
        q, r, signs, failures = _signed_qr(g, 1.0)
        assert list(failures) == [3]
        for i in (0, 1, 2, 4):
            assert same_bits(q[i], kan_factorize(g[i]).k)
            assert same_bits(np.diag(r[i]) * signs[i], np.diag(kan_factorize(g[i]).a))

    def test_affine_and_unit_lower_kernels_equal_one_matrix(self):
        coords = flowed_coords(7, 0.5, 6, seed=4)
        lower = np.array([c.lower for c in coords])
        gaps = np.array([_chart_record(c.h, c.w).gaps for c in coords])
        g = _nbar_from_affine(lower, gaps)
        inverse = _unit_lower_inverse(g)
        for i in range(len(coords)):
            assert same_bits(g[i], _nbar_from_affine(lower[i], gaps[i]))
            assert same_bits(inverse[i], _unit_lower_inverse(g[i]))


def mixed_chart_stack(n, seed):
    """Points with charts that hold them, and Weyl points with charts
    that do not, interleaved."""
    rng = rng_from_seed(seed)
    h = default_spectrum(n)
    points, charts = [], []
    for k in range(8):
        w = random_permutation(n, rng)
        if k % 3 == 1:
            other = random_permutation(n, rng)
            while other == w:
                other = random_permutation(n, rng)
            points.append(FlagPoint(h_conjugate(h, other), h))
        else:
            points.append(chart_inverse(random_chart_coords(w, h, rng)))
        charts.append(w)
    return points, charts


class TestChartNbars:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_forwards_equal_chart_forward_per_point(self, n):
        points, charts = mixed_chart_stack(n, seed=n)
        lower, failures = _chart_forwards(points, charts)
        outcomes = one_point_outcomes(lambda pw: chart_forward(*pw), zip(points, charts))
        assert_failures_match(failures, outcomes)
        assert all(type(failures[i]) is ChartDomainError for i in failures)
        for i, outcome in enumerate(outcomes):
            if outcome[0] == "ok":
                assert same_bits(lower[i], outcome[1].lower)
        _, domain_failures = _chart_nbars(points, charts)
        assert [i not in domain_failures for i in range(len(points))] == [
            chart_domain_test(y, w) for y, w in zip(points, charts)
        ]

    def test_overflowing_coordinates_are_refused_as_chart_forward_refuses_them(self):
        # a point of a spectrum near the double range, drawn with huge
        # coordinates in the identity chart: its coordinates overflow in
        # every other chart of S3, which refuses it with a ValueError and
        # no warning, and its row of lower is zero
        h = Spectrum((1e306, 0.0, -1e306))
        lower = np.tril(np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3)), -1) * 1e300
        point = chart_inverse(ChartCoords(w=Permutation.identity(3), lower=lower, h=h))
        ordinary = chart_inverse(random_chart_coords(Permutation((2, 3, 1)), default_spectrum(3),
                                                     rng_from_seed(4)))
        charts = Permutation.all(3) + [Permutation((2, 3, 1))]
        points = [point] * 6 + [ordinary]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords, failures = _chart_forwards(points, charts)
            outcomes = one_point_outcomes(lambda pw: chart_forward(*pw), zip(points, charts))
        assert_failures_match(failures, outcomes)
        assert sorted(failures) == [1, 2, 3, 4, 5]
        assert all(type(err) is ValueError and "overflow" in str(err) for err in failures.values())
        assert not coords[list(failures)].any()
        for i in (0, 6):
            assert same_bits(coords[i], outcomes[i][1].lower)

    def test_frames_equal_frame_per_point(self):
        points, charts = mixed_chart_stack(6, seed=1)
        frames = _frames(points, charts)
        assert all(
            same_bits(frames[i], _frames([y], [w])[0]) for i, (y, w) in enumerate(zip(points, charts))
        )

    def test_crout_equals_unbar_factorize_per_matrix(self):
        rng = rng_from_seed(12)
        k = np.array([random_special_orthogonal(5, rng) for _ in range(6)])
        k[2] = np.eye(5)[:, [1, 0, 2, 3, 4]] @ np.diag([-1.0, 1, 1, 1, 1])  # a minor of 0
        k[4] = np.eye(5)[:, [0, 1, 2, 4, 3]] @ np.diag([1.0, 1, 1, 1, -1])
        low, nbar, signs, failures = _crout(k.copy())
        u = (low * signs[:, None, ::-1])[:, ::-1, ::-1]
        outcomes = one_point_outcomes(unbar_factorize, k)
        assert_failures_match(failures, outcomes)
        references = one_point_outcomes(reference_unbar, k)
        for i, (outcome, reference) in enumerate(zip(outcomes, references)):
            assert outcome[0] == reference[0]
            if outcome[0] == "ok":
                assert same_bits(u[i], outcome[1].u) and same_bits(u[i], reference[1][0])
                assert same_bits(nbar[i], outcome[1].nbar) and same_bits(nbar[i], reference[1][1])
                assert same_bits(np.diag(signs[i]), outcome[1].m)
                assert same_bits(outcome[1].m, reference[1][2])
            else:
                assert failures[i].minor_index is not None
                assert outcome[1:] == reference[1:]
        assert np.isfinite(u).all() and np.isfinite(nbar).all()

    def test_bruhat_classes_equal_bruhat_classify_per_point(self):
        n = 4
        h = default_spectrum(n)
        rng = rng_from_seed(21)
        points, charts = [], []
        for w in Permutation.all(n)[::3]:
            for i in range(2, n + 1):
                lower = np.zeros((n, n))
                lower[i - 1, int(rng.integers(1, i)) - 1] = 1e-4
                lower[n - 1, 0] += 1e-4 * (i % 2)
                points.append(chart_inverse(ChartCoords(w, lower, h)))
                charts.append(w)
        lower, failures = _chart_forwards(points, charts)
        assert failures == {}
        classes = _bruhat_classes(lower, charts, 1e-7)
        assert classes == [bruhat_classify(y, w, 1e-7) for y, w in zip(points, charts)]
        assert len(set(classes)) >= 3
