import warnings

import numpy as np
import pytest

import toda_atlas.atlas as atlas_module
import toda_atlas.factorizations as factorizations_module
from toda_atlas.atlas import (
    BruhatClass,
    ChartCoords,
    FlagPoint,
    _chart_points,
    _coords_from_nbars,
    _frames,
    _gaps,
    _linear_fields,
    _permuted_diagonals,
    bruhat_classify,
    chart_domain_test,
    chart_flow_exact,
    chart_forward,
    chart_inverse,
    chart_linear_field,
    coords_from_frame,
    h_conjugate,
    nbar_from_affine,
)
from toda_atlas.errors import ChartDomainError, FactorizationError
from toda_atlas.factorizations import _unit_lower_inverse, f_inverse, trailing_minors
from toda_atlas.linalg_core import Spectrum, symmetric_eigen
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_flag_point,
    random_permutation,
    random_profile,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import (
    Permutation,
    lower_pairs,
    perm_matrix,
    profile_project,
    v_p_membership,
)

RNG = rng_from_seed(9)


def single_coord(w, h, i, j, value):
    lower = np.zeros((h.n, h.n))
    lower[i - 1, j - 1] = value
    return ChartCoords(w=w, lower=lower, h=h)


class TestFlagPoint:
    def test_rejects_asymmetric(self):
        h = default_spectrum(3)
        with pytest.raises(ValueError, match="symmetric"):
            FlagPoint(np.triu(np.ones((3, 3))), h)

    def test_rejects_wrong_spectrum(self):
        h = default_spectrum(3)
        with pytest.raises(ValueError, match="spectrum"):
            FlagPoint(np.diag([3.0, 0.0, -3.0]), h)

    def test_rejects_an_overflowing_matrix_without_a_warning(self):
        y = np.diag([1.7e308, 0.0, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (None, Spectrum((1.0, 0.0, -1.0))):
                with pytest.raises(ValueError, match="too large to diagonalize"):
                    FlagPoint(y, h)

    def test_rejects_close_eigenvalues(self):
        h = Spectrum((1.0, 1.0 - 5e-9, -2.0 + 5e-9))
        with pytest.raises(ValueError, match="collision"):
            FlagPoint(h.diag(), h)
        # a subnormal matrix collides too, without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="collision: gap 9.881e-324"):
                FlagPoint(5e-324 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_frame_is_the_read_only_eigenframe(self):
        rng = rng_from_seed(13)
        for n in (2, 3, 4, 8, 12):
            point = random_flag_point(default_spectrum(n), rng)
            assert not point.frame.flags.writeable
            with pytest.raises(ValueError):
                point.frame[0, 0] = 1.0
            assert point.frame.tobytes() == symmetric_eigen(point.y)[1].tobytes()

    def test_one_eigendecomposition_serves_every_chart(self, monkeypatch):
        calls = []
        original = atlas_module._eigen_stack

        def counting(y):
            calls.append(y)
            return original(y)

        h = default_spectrum(4)
        y = random_flag_point(h, rng_from_seed(17)).y
        monkeypatch.setattr(atlas_module, "_eigen_stack", counting)
        point = FlagPoint(y, h)
        accepted = [w for w in Permutation.all(4) if chart_domain_test(point, w)]
        assert accepted
        chart_forward(point, accepted[0])
        bruhat_classify(point, accepted[-1], 1e-9)
        assert len(calls) == 1
        for w in Permutation.all(4):
            assert np.linalg.det(_frames([point], [w])[0]) > 0.0
        assert len(calls) == 1

    def test_coords_require_exact_upper_zeros(self):
        h = default_spectrum(3)
        bad = np.full((3, 3), 1e-18)
        with pytest.raises(ValueError, match="strictly lower"):
            ChartCoords(w=Permutation.identity(3), lower=bad, h=h)

    def test_coords_decide_as_the_upper_triangle_test(self):
        # one entry on or above the diagonal at a time: refused exactly
        # where np.any(np.triu(lower) != 0.0) is true, so +-0.0 passes and
        # keeps its sign
        rng = rng_from_seed(23)
        for n in range(2, 13):
            h = default_spectrum(n)
            w = random_permutation(n, rng)
            base = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1)
            for i, j in zip(*np.triu_indices(n)):
                for value in (5e-324, -2.5, 0.0, -0.0):
                    lower = base.copy()
                    lower[i, j] = value
                    if np.any(np.triu(lower) != 0.0):
                        with pytest.raises(ValueError, match="strictly lower"):
                            ChartCoords(w=w, lower=lower, h=h)
                    else:
                        kept = ChartCoords(w=w, lower=lower, h=h).lower
                        assert kept.tobytes() == lower.tobytes()
            signed = np.where(np.tri(n, k=-1, dtype=bool), base, -0.0)
            assert ChartCoords(w=w, lower=signed, h=h).lower.tobytes() == signed.tobytes()

    def test_forward_coordinates_are_read_only_and_as_validated(self):
        rng = rng_from_seed(37)
        for n in (2, 5, 12):
            h = default_spectrum(n)
            for _ in range(4):
                w = random_permutation(n, rng)
                point = chart_inverse(random_chart_coords(w, h, rng))
                coords = chart_forward(point, w)
                validated = ChartCoords(w=w, lower=coords.lower, h=point.h)
                assert not coords.lower.flags.writeable and coords.lower.flags.c_contiguous
                assert coords.lower.dtype == validated.lower.dtype
                assert coords.lower.shape == validated.lower.shape
                assert coords.lower.tobytes() == validated.lower.tobytes()
                assert coords.w is w and coords.h is point.h


def signed_zeros(a, rng):
    """a (..., n, n) with about a third of its off-diagonal entries,
    above and below, replaced by -0.0."""
    off = ~np.eye(a.shape[-1], dtype=bool)
    return np.where((rng.random(a.shape) < 0.3) & off, -0.0, a)


class TestMaskedTriangles:
    """Each chart map that keeps a strictly lower triangle does it with
    the cached mask; the bytes must be np.tril(., -1)'s, signed zeros and
    all."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_each_site_equals_tril(self, n):
        rng = rng_from_seed(41)
        h = default_spectrum(n)
        ws = [random_permutation(n, rng) for _ in range(6)]
        d = _permuted_diagonals([h] * len(ws), ws)
        for rows in (d, d[0]):
            expected = np.tril(rows[..., :, None] - rows[..., None, :], -1)
            assert _gaps(rows).tobytes() == expected.tobytes()

        # the kernel reads nbar's strict lower triangle and multiplies by
        # all of it: entries above its diagonal put signed values and
        # signed zeros where the mask cuts
        nbar = signed_zeros(np.eye(n) + rng.uniform(-1.0, 1.0, (len(ws), n, n)), rng)
        dmat = np.array([np.diag(row) for row in d])
        affine = nbar @ dmat @ _unit_lower_inverse(nbar) - dmat
        assert _coords_from_nbars(nbar, d).tobytes() == np.tril(affine, -1).tobytes()

        for k, w in enumerate(ws):
            lower = signed_zeros(np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1), rng)
            c = ChartCoords(w=w, lower=lower, h=h)
            gaps = np.tril(d[k][:, None] - d[k][None, :], -1)
            assert chart_linear_field(c).tobytes() == np.tril(gaps * c.lower, -1).tobytes()
            for t in (0.0, -0.7, 1.3):
                expected = np.tril(np.exp(gaps * t) * c.lower, -1)
                assert chart_flow_exact(c, t).lower.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_the_linear_field_kernel_gives_each_point_its_own_bits(self, n):
        # the pushforward check takes its prediction from this stack kernel
        rng = rng_from_seed(43)
        h = default_spectrum(n)
        ws = [random_permutation(n, rng) for _ in range(6)]
        lowers = [signed_zeros(np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1), rng) for _ in ws]
        fields = [chart_linear_field(ChartCoords(w, x, h)) for w, x in zip(ws, lowers)]
        stacked = _linear_fields(np.array(lowers), _permuted_diagonals([h] * len(ws), ws))
        assert stacked.tobytes() == np.array(fields).tobytes()


class TestHConjugate:
    def test_identity(self):
        h = default_spectrum(3)
        np.testing.assert_array_equal(h_conjugate(h, Permutation.identity(3)), h.diag())

    def test_transposition(self):
        h = Spectrum((1.5, -1.5))
        np.testing.assert_array_equal(
            h_conjugate(h, Permutation((2, 1))), np.diag([-1.5, 1.5])
        )

    def test_matches_matrix_conjugation(self):
        h = default_spectrum(4)
        for _ in range(10):
            w = Permutation(tuple(int(v) + 1 for v in RNG.permutation(4)))
            p = perm_matrix(w)
            np.testing.assert_allclose(h_conjugate(h, w), p @ h.diag() @ p.T, atol=0)

    def test_traceless(self):
        h = default_spectrum(5)
        w = Permutation.longest(5)
        assert abs(np.trace(h_conjugate(h, w))) < 1e-12

    def test_equals_the_inverse_permutation_formula(self):
        def by_inverse(h, w):
            inv = w.inverse()
            return np.diag([h.values[inv(i) - 1] for i in range(1, h.n + 1)])

        rng = rng_from_seed(29)
        h12 = default_spectrum(12)
        cases = [(default_spectrum(n), w) for n in range(2, 6) for w in Permutation.all(n)]
        cases += [(h12, random_permutation(12, rng)) for _ in range(50)]
        for h, w in cases:
            assert h_conjugate(h, w).tobytes() == by_inverse(h, w).tobytes()

    def test_size_mismatch_names_both_sizes(self):
        with pytest.raises(ValueError, match="spectrum is 3, permutation is 2"):
            h_conjugate(default_spectrum(3), Permutation((2, 1)))

    def test_coords_from_frame_checks_the_spectrum_size(self):
        message = "^dimension mismatch: spectrum is 4, permutation is 3$"
        with pytest.raises(ValueError, match=message):
            coords_from_frame(np.eye(3), Permutation.identity(3), default_spectrum(4))


class TestNbarFromAffine:
    def test_origin(self):
        h = default_spectrum(3)
        w = Permutation((2, 3, 1))
        origin = ChartCoords(w=w, lower=np.zeros((3, 3)), h=h)
        np.testing.assert_array_equal(nbar_from_affine(origin), np.eye(3))

    def test_two_by_two_closed_form(self):
        lam, x = 0.75, 1.3
        h = Spectrum((lam, -lam))
        g = nbar_from_affine(single_coord(Permutation.identity(2), h, 2, 1, x))
        np.testing.assert_allclose(g, [[1.0, 0.0], [x / (2 * lam), 1.0]], atol=1e-15)

    def test_recomposition(self):
        h = default_spectrum(4)
        for _ in range(10):
            w = Permutation(tuple(int(v) + 1 for v in RNG.permutation(4)))
            d = h_conjugate(h, w)
            c = ChartCoords(w=w, lower=np.tril(RNG.standard_normal((4, 4)), -1), h=h)
            b = d + c.lower
            g = nbar_from_affine(c)
            assert np.linalg.norm(g @ d - b @ g) < 1e-10

    def test_equals_the_affine_fiber_recurrence(self):
        def by_fiber(c):
            # the recurrence on x = tril((D + L) - D, -1): 0.0 + -0.0 is +0.0
            dmat = h_conjugate(c.h, c.w)
            d = np.diag(dmat)
            x = np.tril((dmat + c.lower) - np.diag(d), -1)
            g = np.eye(c.h.n)
            for i in range(1, c.h.n):
                g[i, :i] = (x[i, :i] @ g[:i, :i]) / (d[:i] - d[i])
            return g

        rng = rng_from_seed(37)
        for n in range(2, 13):
            h = default_spectrum(n)
            for k in range(6):
                coords = random_chart_coords(random_permutation(n, rng), h, rng)
                lower = coords.lower
                if k % 2:
                    keep = np.tri(n, n, -1, dtype=bool) & (rng.random((n, n)) < 0.5)
                    lower = np.where(keep, lower, -0.0)
                    assert np.signbit(lower[np.tri(n, n, -1, dtype=bool)]).any()
                c = ChartCoords(w=coords.w, lower=lower, h=h)
                assert nbar_from_affine(c).tobytes() == by_fiber(c).tobytes()


class TestChartInverse:
    def test_two_by_two_closed_form(self):
        w = Permutation.identity(2)
        for lam in (0.5, 1.0, 3.0):
            h = Spectrum((lam, -lam))
            for x in np.linspace(-10, 10, 21):
                point = chart_inverse(single_coord(w, h, 2, 1, x))
                denom = 1.0 + x * x / (4 * lam * lam)
                expected = (
                    np.array([[lam - x * x / (4 * lam), x], [x, x * x / (4 * lam) - lam]])
                    / denom
                )
                np.testing.assert_allclose(point.y, expected, atol=1e-11)

    def test_origin_is_permuted_diagonal(self):
        h = default_spectrum(4)
        for w in (Permutation.identity(4), Permutation.longest(4), Permutation((2, 4, 1, 3))):
            origin = chart_inverse(ChartCoords(w=w, lower=np.zeros((4, 4)), h=h))
            assert np.linalg.norm(origin.y - h_conjugate(h, w)) < 1e-12

    def test_spectrum_preserved_across_charts(self):
        h = default_spectrum(3)
        for w in Permutation.all(3):
            coords = random_chart_coords(w, h, RNG)
            point = chart_inverse(coords)
            eigs = np.linalg.eigvalsh(point.y)[::-1]
            np.testing.assert_allclose(eigs, h.values, atol=1e-9)

    def test_frame_is_the_read_only_frame_of_the_qr(self):
        rng = rng_from_seed(31)
        for n in range(2, 13):
            h = default_spectrum(n)
            coords = [random_chart_coords(random_permutation(n, rng), h, rng) for _ in range(4)]
            flowed, failures = _chart_points(coords, 0.8)
            assert not failures
            for point in [chart_inverse(c) for c in coords] + flowed:
                assert not point.frame.flags.writeable
                with pytest.raises(ValueError):
                    point.frame[0, 0] = 1.0
                assert np.linalg.det(point.frame) == pytest.approx(1.0, abs=1e-12)
                rebuilt = point.frame @ h.diag() @ point.frame.T
                assert np.max(np.abs(rebuilt - point.y)) <= 1e-13 * max(map(abs, h.values))

    def test_close_eigenvalues_are_refused_as_flag_point_refuses_them(self):
        h = Spectrum((1.0, 1.0 - 5e-9, -2.0 + 5e-9))
        with pytest.raises(ValueError) as flag_point:
            FlagPoint(h.diag(), h)
        for w in Permutation.all(3):
            with pytest.raises(ValueError) as inverse:
                chart_inverse(ChartCoords(w, np.tril(np.full((3, 3), 0.3), -1), h))
            assert str(inverse.value) == str(flag_point.value)

    @pytest.mark.parametrize("scale", [1e4, 1e10])
    def test_wide_spectra_are_not_refused(self, scale):
        # an eigensolve of y re-derives h with an absolute error that fails
        # the 1e-12 trace check at such scales; h itself sums to zero
        rng = rng_from_seed(3)
        for n in (3, 6, 12):
            values = np.array(default_spectrum(n).values) * scale
            h = Spectrum(tuple(values - values.mean()))
            for _ in range(10):
                coords = random_chart_coords(random_permutation(n, rng), h, rng)
                point = chart_inverse(coords)
                assert point.h == h
                back = chart_forward(point, coords.w)
                assert np.max(np.abs(back.lower - coords.lower)) < 1e-13

    def test_round_trips_at_roundoff_at_n12(self):
        # the forward map reads the frame the inverse built, not one
        # re-derived from y by an eigensolve (2-3e-14 then)
        rng = rng_from_seed(0)
        h = default_spectrum(12)
        worst = 0.0
        for _ in range(200):
            coords = random_chart_coords(random_permutation(12, rng), h, rng)
            back = chart_forward(chart_inverse(coords), coords.w)
            worst = max(worst, float(np.linalg.norm(back.lower - coords.lower)))
        assert worst < 1e-14

    @pytest.mark.parametrize("n", [3, 6, 12])
    @pytest.mark.parametrize("entry", [1e150, 1e200, -1e250, 1e300, 1.7e308])
    def test_huge_coordinates_are_refused_by_the_qr_without_a_warning(self, n, entry):
        # the unit-lower conjugator overflows; its non-finite rows reach
        # the graded QR, which refuses them
        rng = rng_from_seed(n)
        h = default_spectrum(n)
        for _ in range(3):
            coords = ChartCoords(random_permutation(n, rng), np.tril(np.full((n, n), entry), -1), h)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FactorizationError, match="numerically dependent"):
                    chart_inverse(coords)


def composed_chart_inverse(c):
    """chart_inverse as the composition f_inverse -> permutation -> FlagPoint,
    with the frame it builds y from, made special orthogonal."""
    frame = f_inverse(nbar_from_affine(c)) @ perm_matrix(c.w)
    if np.linalg.det(frame) < 0.0:
        frame[:, -1] *= -1.0
    y = frame @ c.h.diag() @ frame.T
    return FlagPoint(0.5 * (y + y.T), c.h), frame


@pytest.fixture
def kan_calls(monkeypatch):
    """Arguments of every kan_factorize call made while the test runs."""
    calls = []
    original = factorizations_module.kan_factorize

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(factorizations_module, "kan_factorize", counting)
    return calls


def inverse_without_kan(coords, kan_calls):
    """chart_inverse(coords), asserting that it reaches no kan_factorize."""
    before = len(kan_calls)
    try:
        return chart_inverse(coords)
    finally:
        assert len(kan_calls) == before


class TestChartInverseIsTheComposition:
    def test_bitwise_equal_including_negative_zeros(self, kan_calls):
        rng = rng_from_seed(23)
        for n in range(2, 13):
            h = default_spectrum(n)
            for k in range(6):
                coords = random_chart_coords(random_permutation(n, rng), h, rng)
                lower = coords.lower.copy()
                if k % 2:
                    # -0.0 everywhere off the strict lower triangle and on
                    # some of it: ChartCoords accepts it as a zero.
                    keep = np.tri(n, n, -1, dtype=bool) & (rng.random((n, n)) < 0.5)
                    lower = np.where(keep, lower, -0.0)
                    assert np.signbit(lower).any()
                coords = ChartCoords(w=coords.w, lower=lower, h=h)
                point = inverse_without_kan(coords, kan_calls)
                composed, frame = composed_chart_inverse(coords)
                assert point.y.tobytes() == composed.y.tobytes()
                assert point.frame.tobytes() == frame.tobytes()

    def test_raises_exactly_where_the_composition_raises(self, kan_calls):
        for n, t, expected in ((10, 2.0, 16), (12, 2.0, 34), (10, 5.0, 50), (12, 5.0, 50)):
            rng = np.random.default_rng(11)
            h = default_spectrum(n)
            raised = 0
            for _ in range(50):
                coords = chart_flow_exact(random_chart_coords(random_permutation(n, rng), h, rng), t)
                try:
                    composed, _ = composed_chart_inverse(coords)
                except FactorizationError as err:
                    with pytest.raises(FactorizationError, match=str(err)):
                        inverse_without_kan(coords, kan_calls)
                    raised += 1
                else:
                    assert inverse_without_kan(coords, kan_calls).y.tobytes() == composed.y.tobytes()
            assert raised == expected, (n, t)


class TestChartDomain:
    def test_origin_in_own_chart(self):
        h = default_spectrum(3)
        for w in Permutation.all(3):
            origin = chart_inverse(ChartCoords(w=w, lower=np.zeros((3, 3)), h=h))
            assert chart_domain_test(origin, w)

    def test_other_weyl_points_rejected(self):
        h = default_spectrum(3)
        for w in Permutation.all(3):
            for w2 in Permutation.all(3):
                point = FlagPoint(h_conjugate(h, w2), h)
                assert chart_domain_test(point, w) == (w2.images == w.images)

    def test_permutation_of_the_wrong_size_is_a_value_error(self):
        h = default_spectrum(3)
        point = random_flag_point(h, rng_from_seed(19))
        w = Permutation((2, 1))
        for call in (
            lambda: chart_forward(point, w),
            lambda: chart_domain_test(point, w),
            lambda: bruhat_classify(point, w, 1e-9),
            lambda: coords_from_frame(point.frame, w, h),
        ):
            with pytest.raises(ValueError, match=r"(point|frame) is 3, permutation is 2"):
                call()

    def test_forward_raises_outside(self):
        h = default_spectrum(3)
        point = FlagPoint(h_conjugate(h, Permutation((2, 1, 3))), h)
        with pytest.raises(ChartDomainError):
            chart_forward(point, Permutation.identity(3))

    def test_vanishing_trailing_minor_is_outside(self):
        # The last axis is the top eigenvector, so the bottom eigenvector
        # has a zero last entry: the 1 x 1 trailing minor of the frame at
        # the identity chart vanishes.
        rng = np.random.default_rng(41)
        for n in (3, 5, 8):
            h = default_spectrum(n)
            q, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
            y = np.zeros((n, n))
            y[:-1, :-1] = q @ np.diag(h.values[1:]) @ q.T
            y[-1, -1] = h.values[0]
            point = FlagPoint(0.5 * (y + y.T), h)
            w = Permutation.identity(n)
            assert abs(trailing_minors(_frames([point], [w])[0])[0]) < 1e-14
            assert not chart_domain_test(point, w)
            with pytest.raises(ChartDomainError):
                chart_forward(point, w)

    def test_monte_carlo_cover(self):
        h = default_spectrum(3)
        charts = Permutation.all(3)
        accept_counts = []
        for _ in range(200):
            y = random_flag_point(h, RNG)
            hits = sum(1 for w in charts if chart_domain_test(y, w))
            accept_counts.append(hits)
            assert hits >= 1
        # density: generically every chart accepts
        assert np.mean(accept_counts) > 0.9 * len(charts)


class TestChartRoundTrip:
    def test_round_trips_all_charts(self):
        # 100 samples per chart up to n=4; 20 per chart at n=5
        for n, samples in ((2, 100), (3, 100), (4, 100), (5, 20)):
            h = default_spectrum(n)
            worst = 0.0
            for w in Permutation.all(n):
                for _ in range(samples):
                    coords = random_chart_coords(w, h, RNG)
                    back = chart_forward(chart_inverse(coords), w)
                    worst = max(worst, float(np.max(np.abs(back.lower - coords.lower))))
            assert worst < 1e-9, f"round trip at n={n}: {worst:.3e}"

    def test_forward_then_inverse(self):
        h = default_spectrum(4)
        for _ in range(25):
            y = random_flag_point(h, RNG)
            for w in Permutation.all(4):
                if not chart_domain_test(y, w):
                    continue
                coords = chart_forward(y, w)
                again = chart_inverse(coords)
                assert np.linalg.norm(again.y - y.y) < 1e-9

    def test_eq11_coordinate_recovery(self):
        w = Permutation.identity(2)
        h = Spectrum((1.0, -1.0))
        for x in (-3.0, -0.5, 0.0, 1.7):
            coords = single_coord(w, h, 2, 1, x)
            back = chart_forward(chart_inverse(coords), w)
            np.testing.assert_allclose(back.lower[1, 0], x, atol=1e-11)

    def test_forward_zero_at_origin(self):
        h = default_spectrum(3)
        w = Permutation((3, 1, 2))
        origin = FlagPoint(h_conjugate(h, w), h)
        coords = chart_forward(origin, w)
        assert np.max(np.abs(coords.lower)) < 1e-12


class TestSignIndependence:
    def test_even_sign_flips_do_not_move_coordinates(self):
        h = default_spectrum(4)
        for _ in range(10):
            w = Permutation(tuple(int(v) + 1 for v in RNG.permutation(4)))
            point = chart_inverse(random_chart_coords(w, h, RNG))
            frame = _frames([point], [w])[0]
            reference = coords_from_frame(frame, w, h)
            signs = np.ones(4)
            flips = RNG.choice(4, size=2, replace=False)
            signs[flips] = -1.0
            twisted = coords_from_frame(frame * signs[None, :], w, h)
            assert np.linalg.norm(twisted.lower - reference.lower) < 1e-10


class TestBruhat:
    def test_origin_classifies_both(self):
        h = default_spectrum(3)
        w = Permutation((2, 1, 3))
        origin = chart_inverse(ChartCoords(w=w, lower=np.zeros((3, 3)), h=h))
        assert bruhat_classify(origin, w, 1e-9) is BruhatClass.BOTH

    def test_single_pair_classification(self):
        h = default_spectrum(3)
        w = Permutation((2, 1, 3))
        cell_point = chart_inverse(single_coord(w, h, 2, 1, 1e-3))
        assert bruhat_classify(cell_point, w, 1e-6) is BruhatClass.IN_BRUHAT
        opposite_point = chart_inverse(single_coord(w, h, 3, 1, 1e-3))
        assert bruhat_classify(opposite_point, w, 1e-6) is BruhatClass.IN_OPPOSITE

    def test_mixed_support_is_neither(self):
        h = default_spectrum(3)
        w = Permutation((2, 1, 3))
        lower = np.zeros((3, 3))
        lower[1, 0] = 0.5
        lower[2, 0] = 0.5
        point = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
        assert bruhat_classify(point, w, 1e-9) is BruhatClass.NEITHER

    def test_open_cell_dominates_at_longest(self):
        h = default_spectrum(3)
        w0 = Permutation.longest(3)
        hits = 0
        for _ in range(100):
            y = random_flag_point(h, RNG)
            if not chart_domain_test(y, w0):
                continue
            if bruhat_classify(y, w0, 1e-9) is BruhatClass.IN_BRUHAT:
                hits += 1
        assert hits >= 99


class TestProfileCompatibility:
    def test_profile_supported_coords_give_profile_points(self):
        for n in (3, 4):
            h = default_spectrum(n)
            for _ in range(10):
                p = random_profile(n, RNG)
                w = Permutation(tuple(int(v) + 1 for v in RNG.permutation(n)))
                lower = profile_project(np.tril(RNG.uniform(-1, 1, (n, n)), -1), p)
                point = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
                assert v_p_membership(point.y, p, 1e-9)
                back = chart_forward(point, w)
                for i, j in lower_pairs(n):
                    if (i, j) not in p.pairs:
                        assert abs(back.lower[i - 1, j - 1]) < 1e-9
