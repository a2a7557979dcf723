import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toda_atlas.atlas import ChartCoords, FlagPoint, nbar_from_affine
from toda_atlas.factorizations import f_inverse, unit_lower_inverse
from toda_atlas.flows import sym_field, toda_field
from toda_atlas.linalg_core import (
    IsospectralWitness,
    _eigen_stack,
    _pi_k,
    _power_traces,
    Spectrum,
    commutator,
    isospectral_witness,
    pi_k,
    pi_u,
    symmetric_eigen,
)
from toda_atlas.weyl_profiles import Permutation

RNG = np.random.default_rng(12345)

finite_matrices = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


def char_poly_coeffs(a):
    """Trace-based characteristic polynomial coefficients, highest degree first.

    Independent of any eigensolver: iterated products and traces only.
    """
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(float(c))
    return coeffs


def poly_eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def roots_by_bisection(coeffs, radius, grid=20001, tol=1e-13):
    xs = np.linspace(-radius, radius, grid)
    vals = [poly_eval(coeffs, x) for x in xs]
    roots = []
    for lo, hi, flo, fhi in zip(xs, xs[1:], vals, vals[1:]):
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            a, b, fa = lo, hi, flo
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = poly_eval(coeffs, mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        a = RNG.standard_normal((4, 4))
        assert np.array_equal(commutator(a, a), np.zeros((4, 4)))

    def test_diagonal_adjoint_scales_entries(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(commutator(a, b), [[0.0, 2.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        a = RNG.standard_normal((4, 4))
        b = RNG.standard_normal((4, 4))
        n = 4
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected[i, j] += a[i, k] * b[k, j] - b[i, k] * a[k, j]
        np.testing.assert_allclose(commutator(a, b), expected, atol=1e-12)

    def test_trace_free(self):
        a = RNG.standard_normal((5, 5))
        b = RNG.standard_normal((5, 5))
        assert abs(np.trace(commutator(a, b))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(np.eye(2), np.eye(3))


class TestProjections:
    def test_two_by_two_symmetric(self):
        a, b = 0.7, -1.3
        y = np.array([[a, b], [b, -a]])
        np.testing.assert_allclose(pi_k(y), [[0.0, -b], [b, 0.0]])

    def test_upper_triangular_killed(self):
        x = np.triu(RNG.standard_normal((4, 4)))
        assert np.array_equal(pi_k(x), np.zeros((4, 4)))

    def test_skew_and_complement(self):
        x = RNG.standard_normal((5, 5))
        p = pi_k(x)
        assert np.max(np.abs(p + p.T)) < 1e-14
        assert np.max(np.abs(np.tril(pi_u(x), -1))) == 0.0

    def test_pi_u_kills_skew(self):
        s = RNG.standard_normal((4, 4))
        s = s - s.T
        assert np.max(np.abs(pi_u(s))) == 0.0

    def test_pi_u_of_symmetric(self):
        y = RNG.standard_normal((4, 4))
        y = y + y.T
        expected = np.diag(np.diag(y)) + 2.0 * np.triu(y, 1)
        np.testing.assert_allclose(pi_u(y), expected, atol=1e-15)

    def test_pi_u_fixes_diagonal(self):
        d = np.diag([2.0, -0.5, -1.5])
        assert np.array_equal(pi_u(d), d)

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    def test_splitting_sums_back(self, x):
        residual = np.max(np.abs(pi_k(x) + pi_u(x) - x))
        assert residual <= 1e-14 * (1.0 + np.max(np.abs(x)))

    def test_projections_idempotent(self):
        x = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(pi_k(pi_k(x)), pi_k(x))
        np.testing.assert_array_equal(pi_u(pi_u(x)), pi_u(x))

    def test_kernel_equals_tril_definition_bitwise(self):
        rng = np.random.default_rng(7)
        for n in range(2, 13):
            x = rng.standard_normal((n, n))
            x[rng.random((n, n)) < 0.2] = -0.0  # negative zeros keep their sign below the diagonal
            low = np.tril(x, -1)
            expected = low - low.T
            for got in (_pi_k(x), pi_k(x)):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert np.array_equal(pi_u(x), x - expected)

    @pytest.mark.parametrize("fn", [pi_k, pi_u, lambda x: commutator(x, x)])
    def test_public_wrappers_validate(self, fn):
        with pytest.raises(ValueError, match="square"):
            fn(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="at least 2x2"):
            fn(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="finite"):
            fn(np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestSymmetricEigen:
    def test_already_diagonal(self):
        spec, q = symmetric_eigen(np.diag([3.0, 1.0, -4.0]))
        assert spec.values == (3.0, 1.0, -4.0)
        np.testing.assert_array_equal(q, np.eye(3))

    def test_two_by_two_closed_form(self):
        a, b = 1.2, -0.7
        spec, q = symmetric_eigen(np.array([[a, b], [b, -a]]))
        r = np.hypot(a, b)
        np.testing.assert_allclose(spec.values, [r, -r], atol=1e-14)
        assert abs(np.linalg.det(q) - 1.0) < 1e-12

    def test_matches_characteristic_polynomial_roots(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((4, 4))
            y = 0.5 * (a + a.T)
            y -= np.trace(y) / 4 * np.eye(4)
            spec, q = symmetric_eigen(y)
            oracle = roots_by_bisection(char_poly_coeffs(y), 1.0 + np.linalg.norm(y))
            np.testing.assert_allclose(spec.values, oracle, atol=1e-10)
            np.testing.assert_allclose(q @ spec.diag() @ q.T, y, atol=1e-10)
            assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-12

    def test_contract_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for n in range(2, 13):
            for _ in range(5):
                a = rng.standard_normal((n, n))
                y = 0.5 * (a + a.T)
                y -= np.trace(y) / n * np.eye(n)
                spec, q = symmetric_eigen(y)
                assert np.all(np.diff(spec.values) < 0.0)
                assert abs(np.linalg.det(q) - 1.0) < 1e-12
                assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12
                scale = max(1.0, float(np.linalg.norm(y)))
                assert np.linalg.norm(q @ spec.diag() @ q.T - y) <= 1e-10 * scale

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_eigenvalue_collision(self):
        y = np.diag([1.0, 1.0 + 1e-10, -2.0 - 1e-10])
        with pytest.raises(ValueError, match="collision"):
            symmetric_eigen(y)

    def test_subnormal_entries_are_checked_without_a_warning(self):
        # the rescaling of a subnormal largest entry stops at 2**1023, where
        # 2**1073 would overflow; the eigenvalues +-5e-324 still collide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="collision: gap 9.881e-324"):
                symmetric_eigen(5e-324 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_huge_entries_are_checked_without_a_warning(self):
        # the checks' Frobenius norms are taken on a power-of-two rescaling,
        # so they do not overflow to an infinite bound that passes anything
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                symmetric_eigen(np.array([[1e200, 3e200], [0.0, -1e200]]))
            spectrum, q = symmetric_eigen(np.diag([1e200, 0.0, -1e200]))
        assert spectrum.values == (1e200, 0.0, -1e200)
        assert np.array_equal(np.abs(q), np.eye(3))

    def test_an_overflowing_symmetric_part_is_refused_without_a_warning(self):
        # y + y^T overflows from an entry of 2**1023 up; one ulp below, the
        # largest such matrix is still diagonalized
        top = np.nextafter(2.0**1023, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for peak in (2.0**1023, 1.7e308):
                with pytest.raises(ValueError, match="too large to diagonalize"):
                    symmetric_eigen(np.diag([peak, 0.0, -peak]))
            spectrum, q = symmetric_eigen(np.diag([top, 0.0, -top]))
        np.testing.assert_allclose(spectrum.values, (top, 0.0, -top), rtol=1e-15)
        assert np.array_equal(np.abs(q), np.eye(3))

    @pytest.mark.parametrize("draw, n", [(0, 11), (1, 9)])
    def test_a_huge_unit_lower_matrix_is_not_symmetric_without_a_warning(self, draw, n):
        # unit lower with entries below the diagonal up to 1.7e308: eigh of
        # its symmetric part returns infinite eigenvalues, whose residual
        # product was inf - inf; the symmetry check refuses it, quietly.
        # Draws 0 and 1 of default_rng(0), each n then its entries.
        rng = np.random.default_rng(0)
        for _ in range(draw + 1):
            size = int(rng.integers(2, 13))
            g = np.eye(size) + np.tril(rng.uniform(-1.0, 1.0, (size, size)), -1) * 1.7e308
        assert size == n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                symmetric_eigen(g)
            with pytest.raises(ValueError, match="not symmetric"):
                FlagPoint(g)
            _, _, failures = _eigen_stack(np.array([g, g.T, np.eye(n) - np.eye(n)[::-1]]))
        assert [str(failures[i]) for i in (0, 1)] == ["matrix is not symmetric"] * 2

    def test_spectrum_equals_the_validated_spectrum_of_its_eigenvalues(self):
        # the spectrum of an accepted matrix is built without Spectrum's
        # checks; it must be the Spectrum they accept, value for value
        rng = np.random.default_rng(31)
        for n in range(2, 13):
            for scale in (1e-3, 1.0, 3.0):
                a = scale * rng.standard_normal((n, n))
                y = 0.5 * (a + a.T)
                y -= np.trace(y) / n * np.eye(n)
                spectrum, _ = symmetric_eigen(y)
                lam = _eigen_stack(y[None])[0][0]
                checked = Spectrum(tuple(lam))
                assert spectrum == checked
                assert all(type(v) is float for v in spectrum.values)

    def test_a_spread_past_the_double_range_is_refused_without_a_warning(self):
        # every entry is below 2**1023, but the eigenvalues are +-a * sqrt(2)
        # and their difference overflows: refused with Spectrum's message
        for a in (6.4e307, 8.98e307):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as refused:
                    symmetric_eigen(np.array([[a, a], [a, -a]]))
            values = tuple(_eigen_stack(np.array([[[a, a], [a, -a]]]))[0][0].tolist())
            with pytest.raises(ValueError) as expected:
                Spectrum(values)
            assert "finite spread" in str(refused.value)
            assert str(refused.value) == str(expected.value)


class TestWitness:
    def test_power_sums(self):
        w = isospectral_witness(np.diag([3.0, 1.0, -4.0]))
        np.testing.assert_allclose(w.power_traces, (0.0, 26.0, -36.0), atol=1e-12)

    def test_nilpotent(self):
        x = np.triu(RNG.standard_normal((4, 4)), 1)
        np.testing.assert_allclose(isospectral_witness(x).power_traces, 0.0, atol=1e-12)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 4))
        x -= np.trace(x) / 4 * np.eye(4)
        g = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        conj = g @ x @ np.linalg.inv(g)
        drift = isospectral_witness(conj).drift_from(isospectral_witness(x))
        assert drift < 1e-9

    def test_traces_equal_power_loop_bitwise(self):
        rng = np.random.default_rng(8)
        for n in range(2, 13):
            x = rng.standard_normal((n, n)) * np.exp(rng.uniform(-4.0, 4.0, (n, n)))
            expected = []
            power = np.eye(n)
            for _ in range(n):
                power = power @ x
                expected.append(float(np.trace(power)))
            assert _power_traces(x).tolist() == expected
            assert isospectral_witness(x).power_traces == tuple(expected)

    def test_traces_of_a_stack_equal_each_matrix_bitwise(self):
        rng = np.random.default_rng(9)
        for n in range(2, 13):
            stack = rng.standard_normal((3, 4, n, n))
            traces = _power_traces(stack)
            assert traces.shape == (3, 4, n)
            for x, got in zip(stack.reshape(12, n, n), traces.reshape(12, n)):
                assert got.tolist() == _power_traces(x).tolist()

    def test_witness_validates(self):
        with pytest.raises(ValueError, match="finite"):
            isospectral_witness(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_an_overflowing_trace_or_ruler_is_refused_without_a_warning(self, overflowing_start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="power-trace witness"):
                isospectral_witness(overflowing_start)

    def test_traceless_first_entry(self):
        x = RNG.standard_normal((5, 5))
        x -= np.trace(x) / 5 * np.eye(5)
        assert abs(isospectral_witness(x).power_traces[0]) < 1e-12


class TestSpectrum:
    def test_accepts_decreasing_traceless(self):
        assert Spectrum((3.0, 1.0, -1.0, -3.0)).n == 4

    def test_rejects_non_decreasing(self):
        with pytest.raises(ValueError, match="decreasing"):
            Spectrum((1.0, 1.0, -2.0))

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError, match="sum to zero"):
            Spectrum((2.0, 1.0, -1.0))

    @pytest.mark.parametrize("values", [(math.inf, -math.inf), (1e308, -1e308)])
    def test_rejects_an_infinite_spread(self, values):
        with pytest.raises(ValueError, match="finite spread"):
            Spectrum(values)

    def test_witness_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            IsospectralWitness((0.0, 1.0)).drift_from(IsospectralWitness((0.0,)))

    def test_drift_scales_with_power(self):
        base = isospectral_witness(np.diag([3.0, 1.0, -1.0, -3.0]))
        bumped = IsospectralWitness(
            tuple(t + 1e-6 * base.frobenius ** k for k, t in enumerate(base.power_traces, 1)),
            base.frobenius,
        )
        assert bumped.drift_from(base) == pytest.approx(1e-6, rel=1e-6)


def overflowing_unit_lower():
    """A finite unit lower matrix whose inverse overflows."""
    rng = np.random.default_rng(1)
    rng.standard_normal((4, 4))
    return np.eye(4) + np.tril(1e160 * rng.standard_normal((4, 4)), -1)


def tiny_spectrum_coords():
    """Coordinates of 1 in the identity chart of a spectrum with gaps near
    1e-300, whose unit lower g overflows."""
    h = Spectrum((3e-300, 1e-300, -1e-300, -3e-300))
    return ChartCoords(w=Permutation.identity(4), lower=np.tril(np.ones((4, 4)), -1), h=h)


def overflowing_pair():
    """x and x^T with entries near 1e160: every product entry overflows."""
    x = 1e160 * np.random.default_rng(1).standard_normal((4, 4))
    return x, x.T


def nan_matrix():
    y = np.diag([3.0, 1.0, -1.0, -3.0])
    y[0, 0] = np.nan
    return y


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: toda_field(1e160 * np.random.default_rng(1).standard_normal((4, 4))),
            "sorting field overflows: an entry of [x, pi_k(x)] is not finite",
        ),
        (
            lambda: sym_field(1e160 * np.random.default_rng(1).standard_normal((4, 4))),
            "symmetrization field overflows: an entry of [x, pi_u([x, x.T])] is not finite",
        ),
        (
            lambda: unit_lower_inverse(overflowing_unit_lower()),
            "unit lower inverse overflows: an entry of the forward substitution is not finite",
        ),
        (
            lambda: f_inverse(overflowing_unit_lower()),
            "unit lower inverse overflows: an entry of the forward substitution is not finite",
        ),
        (
            lambda: nbar_from_affine(tiny_spectrum_coords()),
            "nbar_from_affine overflows: an entry of the forward substitution is not finite",
        ),
        (
            lambda: commutator(*overflowing_pair()),
            "commutator overflows: an entry of a b - b a is not finite",
        ),
        (
            lambda: pi_u([[0.0, 1e308], [1e308, 0.0]]),
            "pi_u overflows: an entry of x - pi_k(x) is not finite",
        ),
        (lambda: FlagPoint(nan_matrix()), "matrix entries must be finite"),
    ],
    ids=["toda_field", "sym_field", "unit_lower_inverse", "f_inverse", "nbar_from_affine",
         "commutator", "pi_u", "FlagPoint_nan"],
)
def test_a_public_map_refuses_what_overflows_with_its_typed_error_and_no_warning(call, message):
    # the guard of each public map runs its kernel with no warning and
    # refuses a result that is not finite; FlagPoint refuses a matrix that
    # is not finite at its own boundary, so no kernel after it sees one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            call()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message
