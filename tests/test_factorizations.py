import math
import warnings

import numpy as np
import pytest

from toda_atlas.errors import FactorizationError
from toda_atlas.factorizations import (
    CellStatus,
    chevalley_test,
    f_inverse,
    f_map,
    gs_embed,
    gs_embed_inverse,
    kan_factorize,
    phi,
    phi_sigma,
    phi_sigma_inverse,
    trailing_minors,
    _unit_lower_inverse,
    unbar_factorize,
    unit_lower_inverse,
)
from toda_atlas.weyl_profiles import Permutation, l_sigma_membership, lower_pairs, perm_matrix

RNG = np.random.default_rng(77)


def random_unimodular(n, rng):
    g = rng.standard_normal((n, n))
    det = np.linalg.det(g)
    if det < 0:
        g[:, 0] = -g[:, 0]
        det = -det
    return g / det ** (1.0 / n)


def random_special_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def random_unit_lower(n, rng, scale=1.0):
    return np.eye(n) + scale * np.tril(rng.standard_normal((n, n)), -1)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def embed_lower(x, y, z):
    return np.array([[1.0, 0.0, 0.0], [x, 1.0, 0.0], [y, z, 1.0]])


def gram_schmidt_oracle(g):
    """Plain textbook Gram-Schmidt on columns, kept independent of the
    implementation under test."""
    n = g.shape[0]
    q = np.zeros((n, n))
    for j in range(n):
        v = g[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ g[:, j]) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


class TestKAN:
    def test_first_column_normalized(self):
        g = embed_lower(1.0, 0.0, 0.0)
        fac = kan_factorize(g)
        np.testing.assert_allclose(fac.k[:, 0], np.array([1.0, 1.0, 0.0]) / math.sqrt(2))

    def test_orthogonal_input_passes_through(self):
        k = random_special_orthogonal(4, RNG)
        fac = kan_factorize(k)
        np.testing.assert_allclose(fac.k, k, atol=1e-12)
        np.testing.assert_allclose(fac.a, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(fac.n, np.eye(4), atol=1e-12)

    def test_recomposition_and_invariants(self):
        for _ in range(20):
            g = random_unimodular(4, RNG)
            fac = kan_factorize(g)
            assert np.linalg.norm(fac.k @ fac.a @ fac.n - g) < 1e-10
            assert np.linalg.norm(fac.k.T @ fac.k - np.eye(4)) < 1e-12
            assert abs(np.linalg.det(fac.k) - 1.0) < 1e-10
            diag = np.diag(fac.a)
            assert np.all(diag > 0)
            assert abs(np.prod(diag) - 1.0) < 1e-10
            # structure written exactly
            assert np.array_equal(fac.a, np.diag(diag))
            assert np.array_equal(np.diag(fac.n), np.ones(4))
            assert np.max(np.abs(np.tril(fac.n, -1))) == 0.0

    def test_matches_gram_schmidt_oracle(self):
        g = random_unimodular(4, RNG)
        np.testing.assert_allclose(kan_factorize(g).k, gram_schmidt_oracle(g), atol=1e-10)

    def test_matches_gram_schmidt_oracle_at_largest_n(self):
        g = random_unimodular(12, np.random.default_rng(12))
        np.testing.assert_allclose(kan_factorize(g).k, gram_schmidt_oracle(g), atol=1e-10)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="determinant"):
            kan_factorize(2.0 * np.eye(3))

    def test_an_overflowing_determinant_is_refused_without_a_warning(self):
        # det of 1e160 I is 1e480, past the double range; the elimination of
        # the second matrix takes inf - inf, a NaN determinant, and that of
        # the third the reciprocal of a subnormal pivot
        nan_det = 1e308 * np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
        subnormal = 5e-324 * np.array([[0.0, -1.0], [-1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, got in ((1e160 * np.eye(3), "inf"), (nan_det, "nan"), (subnormal, "0.0")):
                with pytest.raises(ValueError, match=f"^input must have determinant one, got {got}$"):
                    kan_factorize(g)

    def test_dependent_column_is_factorization_error(self):
        g = np.diag([1e7, 1e7, 1e-14])
        assert np.linalg.det(g) == 1.0
        with pytest.raises(FactorizationError, match="column 3 is numerically dependent"):
            kan_factorize(g)


class TestUNbar:
    def test_identity(self):
        fac = unbar_factorize(np.eye(3))
        np.testing.assert_array_equal(fac.u, np.eye(3))
        np.testing.assert_array_equal(fac.nbar, np.eye(3))
        np.testing.assert_array_equal(fac.m, np.eye(3))

    def test_rotation_closed_form(self):
        angle = 0.4
        fac = unbar_factorize(rotation(angle))
        c = math.cos(angle)
        np.testing.assert_allclose(fac.u, [[1 / c, -math.sin(angle)], [0.0, c]], atol=1e-14)
        np.testing.assert_allclose(fac.nbar, [[1.0, 0.0], [math.tan(angle), 1.0]], atol=1e-14)
        np.testing.assert_array_equal(fac.m, np.eye(2))

    def test_quarter_turn_outside(self):
        with pytest.raises(FactorizationError) as err:
            unbar_factorize(rotation(math.pi / 2))
        assert err.value.minor_index == 1

    def test_half_turn_needs_sign_factor(self):
        fac = unbar_factorize(rotation(math.pi))
        np.testing.assert_allclose(fac.m, -np.eye(2), atol=0)
        np.testing.assert_allclose(fac.u @ fac.nbar @ fac.m, rotation(math.pi), atol=1e-14)

    def test_all_quadrants_against_closed_form(self):
        # sign pattern of the factors across the four quadrants of the circle
        for angle in (0.3, 2.0, math.pi + 0.4, -0.8):
            k = rotation(angle)
            fac = unbar_factorize(k)
            c = math.cos(angle)
            assert np.min(np.diag(fac.u)) > 0
            np.testing.assert_allclose(fac.nbar[1, 0], math.tan(angle), atol=1e-13)
            expected_m = np.eye(2) if c > 0 else -np.eye(2)
            np.testing.assert_array_equal(fac.m, expected_m)
            np.testing.assert_allclose(fac.u @ fac.nbar @ fac.m, k, atol=1e-13)

    def test_random_recomposition(self):
        for _ in range(20):
            k = random_special_orthogonal(5, RNG)
            fac = unbar_factorize(k)
            assert np.linalg.norm(fac.u @ fac.nbar @ fac.m - k) < 1e-10
            assert np.max(np.abs(np.tril(fac.u, -1))) == 0.0
            assert np.array_equal(np.diag(fac.nbar), np.ones(5))
            assert np.array_equal(fac.m @ fac.m, np.eye(5))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            unbar_factorize(np.eye(3) + 0.1)

    def test_rejects_huge_entries_without_a_warning(self):
        # k^T k overflows: its infinite or NaN norm fails the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (np.diag([1e200, 1e-200, 1.0]), np.full((3, 3), 1e300)):
                with pytest.raises(ValueError, match="not orthogonal"):
                    unbar_factorize(k)


class TestChevalley:
    def test_identity_in_cell(self):
        assert chevalley_test(np.eye(4)).status is CellStatus.IN_C

    def test_half_turn_in_cm_only(self):
        res = chevalley_test(rotation(math.pi))
        assert res.status is CellStatus.IN_CM_ONLY
        np.testing.assert_array_equal(res.m, -np.eye(2))

    def test_singular_locus_after_conjugation(self):
        # 1 + y^2 - xyz = 0 kills the trailing 2x2 minor of the conjugated frame
        x, y = 1.0, 1.0
        z = (1.0 + y * y) / (x * y)
        k = gs_embed(embed_lower(x, y, z))
        p = perm_matrix(Permutation((2, 1, 3)))
        res = chevalley_test(p @ k @ p.T)
        assert res.status is CellStatus.OUTSIDE
        assert res.minor_index == 2

    def test_minor_oracle_agreement(self):
        for _ in range(20):
            k = random_special_orthogonal(4, RNG)
            res = chevalley_test(k)
            minors = trailing_minors(k)
            assert res.status in (CellStatus.IN_C, CellStatus.IN_CM_ONLY)
            assert np.min(np.abs(minors)) > 1e-13
            # in the cell proper exactly when all trailing minors are positive
            assert (res.status is CellStatus.IN_C) == bool(np.all(minors > 0))

    def test_pivot_products_are_trailing_minors(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 8, 12):
            for _ in range(10):
                k = random_special_orthogonal(n, rng)
                pivots = np.diag(unbar_factorize(k).u)[::-1]
                np.testing.assert_allclose(
                    np.cumprod(pivots)[:-1], np.abs(trailing_minors(k)), rtol=1e-10
                )

    def test_closed_under_inverse(self):
        for _ in range(10):
            k = f_inverse(random_unit_lower(4, RNG))
            assert chevalley_test(k).status is CellStatus.IN_C
            assert chevalley_test(k.T).status is CellStatus.IN_C


class TestFMaps:
    def test_identity(self):
        np.testing.assert_array_equal(f_map(np.eye(3)), np.eye(3))
        np.testing.assert_array_equal(f_inverse(np.eye(3)), np.eye(3))

    def test_rotation_forms(self):
        angle = 0.25
        np.testing.assert_allclose(
            f_map(rotation(angle)), [[1.0, 0.0], [math.tan(angle), 1.0]], atol=1e-14
        )

    def test_f_inverse_closed_form(self):
        a = 0.9
        nbar = np.array([[1.0, 0.0], [a, 1.0]])
        norm = math.sqrt(1 + a * a)
        expected = np.array([[1.0, -a], [a, 1.0]]) / norm
        np.testing.assert_allclose(f_inverse(nbar), expected, atol=1e-14)

    def test_round_trips(self):
        for _ in range(20):
            nbar = random_unit_lower(4, RNG)
            k = f_inverse(nbar)
            np.testing.assert_allclose(f_map(k), nbar, atol=1e-10)
        for _ in range(10):
            k0 = f_inverse(random_unit_lower(4, RNG))
            np.testing.assert_allclose(f_inverse(f_map(k0)), k0, atol=1e-10)

    def test_f_map_requires_big_cell(self):
        with pytest.raises(FactorizationError):
            f_map(rotation(math.pi))

    def test_unit_lower_inverse(self):
        g = random_unit_lower(5, RNG)
        np.testing.assert_allclose(unit_lower_inverse(g) @ g, np.eye(5), atol=1e-12)
        assert np.array_equal(np.triu(unit_lower_inverse(g), 1), np.zeros((5, 5)))

    def test_kernel_equals_the_checked_inverse(self):
        rng = np.random.default_rng(43)
        for n in range(2, 13):
            g = random_unit_lower(n, rng)
            assert _unit_lower_inverse(g).tobytes() == unit_lower_inverse(g).tobytes()

    def test_checked_inverse_rejects_what_is_not_unit_lower(self):
        g = random_unit_lower(4, np.random.default_rng(47))
        off_diagonal = g.copy()
        off_diagonal[2, 2] = 2.0
        upper = g.copy()
        upper[0, 3] = 1e-6
        for bad, reason in ((off_diagonal, "diagonal"), (upper, "above the diagonal")):
            with pytest.raises(ValueError, match=reason):
                unit_lower_inverse(bad)


class TestGSEmbed:
    def test_identity(self):
        np.testing.assert_array_equal(gs_embed(np.eye(3)), np.eye(3))

    def test_closed_form_on_lower_triangulars(self):
        # first column (1, x, y)/n1; remaining columns from the cross-product
        # normalizations n1, n2
        x, y, z = 1.0, 1.0, 1.0
        k = gs_embed(embed_lower(x, y, z))
        n1, n2 = math.sqrt(3.0), math.sqrt(2.0)
        expected = np.array(
            [
                [1 / n1, -(x + y * z) / (n1 * n2), (x * z - y) / n2],
                [x / n1, (1 + y * y - x * y * z) / (n1 * n2), -z / n2],
                [y / n1, (z + z * x * x - x * y) / (n1 * n2), 1 / n2],
            ]
        )
        np.testing.assert_allclose(k, expected, atol=1e-14)

    def test_random_orthonormal_det_one(self):
        for _ in range(10):
            g = random_unit_lower(4, RNG)
            k = gs_embed(g)
            assert np.linalg.norm(k.T @ k - np.eye(4)) < 1e-12
            assert abs(np.linalg.det(k) - 1.0) < 1e-10
            np.testing.assert_allclose(k, gram_schmidt_oracle(g), atol=1e-10)
            # change of basis k^T g is upper triangular with positive diagonal
            r = k.T @ g
            assert np.max(np.abs(np.tril(r, -1))) < 1e-12
            assert np.min(np.diag(r)) > 0

    def test_gs_embed_inverse(self):
        g = random_unit_lower(4, RNG)
        np.testing.assert_allclose(gs_embed_inverse(gs_embed(g)), g, atol=1e-10)

    @pytest.mark.parametrize("n, scale", [(12, 10.0), (9, 30.0)])
    def test_no_determinant_check_on_unit_lower_input(self, n, scale):
        # a unit lower matrix has determinant one exactly, but with large
        # entries the computed determinant drifts past kan_factorize's
        # check for outside input; gs_embed and f_inverse take the same q
        # without that check, bit for bit wherever kan_factorize accepts
        rng = np.random.default_rng(1)
        drifted = 0
        for _ in range(300):
            g = np.eye(n) + np.tril(rng.normal(0.0, scale, (n, n)), -1)
            try:
                k = gs_embed(g)
            except FactorizationError:  # a numerically dependent column
                continue
            try:
                expected = kan_factorize(g).k
            except ValueError as err:
                assert "determinant one" in str(err)
                drifted += 1
            else:
                assert k.tobytes() == expected.tobytes()
            assert np.linalg.norm(k.T @ k - np.eye(n)) < 1e-13
            inverse = _unit_lower_inverse(g)
            try:
                expected = kan_factorize(inverse).k.T
            except ValueError:
                continue
            assert f_inverse(g).tobytes() == expected.tobytes()
        assert drifted > 0

    def test_refuses_a_determinant_moved_by_the_tolerance(self):
        # unit lower within 1e-12 but not exactly: 1e-12 above the
        # diagonal times 5e12 below it makes det g = -4, and the
        # Gram-Schmidt factor would leave SO(n)
        g = np.array([[1.0, 1e-12, 0.0], [5e12, 1.0, 0.0], [0.0, 0.1, 1.0]])
        for embed in (gs_embed, phi):
            with pytest.raises(ValueError, match="input must have determinant one, got -3.99"):
                embed(g)

    def test_f_inverse_refuses_an_inverse_that_overflows(self):
        nbar = np.eye(3)
        nbar[1, 0] = nbar[2, 1] = 1e200  # finite, but the inverse holds 1e400
        identity = Permutation((1, 2, 3))
        with np.errstate(over="ignore"):
            for inverse in (f_inverse, lambda y: phi_sigma_inverse(identity, y)):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    inverse(nbar)


class TestPhi:
    def test_closed_form(self):
        for _ in range(30):
            x, y, z = RNG.uniform(-1.5, 1.5, 3)
            n1 = math.sqrt(1 + x * x + y * y)
            n2 = math.sqrt(1 + z * z + (x * z - y) ** 2)
            expected = embed_lower(
                (x + y * z) / n2, n2 * y / n1, (z + z * x * x - y * x) / n1
            )
            np.testing.assert_allclose(phi(embed_lower(x, y, z)), expected, atol=1e-12)

    def test_identity_fixed_point(self):
        np.testing.assert_allclose(phi(np.eye(3)), np.eye(3), atol=1e-14)

    def test_injective_on_samples(self):
        images = [phi(random_unit_lower(3, RNG)) for _ in range(15)]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert np.linalg.norm(images[i] - images[j]) > 1e-8


class TestPhiSigma:
    def test_restricted_transposition_formula(self):
        # on the subgroup with (2,1) = 0, the map scales (3,1) by 1/n1 after
        # swapping in the (3,2) slot value structure: (y, z) -> (z/n1, n2 y/n1)
        sigma = Permutation((2, 1, 3))
        for _ in range(20):
            y, z = RNG.uniform(-1.5, 1.5, 2)
            g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [y, z, 1.0]])
            n1 = math.sqrt(1 + y * y)
            n2 = math.sqrt(1 + y * y + z * z)
            out = phi_sigma(sigma, g)
            np.testing.assert_allclose(out[1, 0], 0.0, atol=1e-12)
            np.testing.assert_allclose(out[2, 0], z / n1, atol=1e-12)
            np.testing.assert_allclose(out[2, 1], n2 * y / n1, atol=1e-12)

    def test_unrestricted_transposition_formula(self):
        # all three entries of the conjugated projection, including the
        # (2,1) entry with its singular denominator
        sigma = Permutation((2, 1, 3))
        p = perm_matrix(sigma)
        for _ in range(20):
            x, y, z = RNG.uniform(-0.8, 0.8, 3)
            if abs(-1 - y * y + x * y * z) < 0.2:
                continue
            n1 = math.sqrt(1 + x * x + y * y)
            n2 = math.sqrt(1 + z * z + (x * z - y) ** 2)
            nbar = unbar_factorize(p.T @ gs_embed(embed_lower(x, y, z)) @ p).nbar
            np.testing.assert_allclose(
                nbar[1, 0], n2 * x / (-1 - y * y + x * y * z), atol=1e-12
            )
            np.testing.assert_allclose(nbar[2, 0], (z + z * x * x - x * y) / n1, atol=1e-12)
            np.testing.assert_allclose(nbar[2, 1], n2 * y / n1, atol=1e-12)

    def test_identity_permutation_is_phi(self):
        g = random_unit_lower(3, RNG)
        np.testing.assert_allclose(
            phi_sigma(Permutation.identity(3), g), phi(g), atol=1e-12
        )

    def test_rejects_outside_domain(self):
        sigma = Permutation((2, 1, 3))
        g = embed_lower(0.5, 0.1, -0.2)  # entry (2,1) nonzero
        with pytest.raises(ValueError, match="lower triangular under conjugation"):
            phi_sigma(sigma, g)

    def test_membership_and_inverse_round_trip(self):
        for n in (3, 4):
            for _ in range(15):
                sigma = Permutation(tuple(int(v) + 1 for v in RNG.permutation(n)))
                inv = sigma.inverse()
                g = np.eye(n)
                for i, j in lower_pairs(n):
                    if inv(i) > inv(j):
                        g[i - 1, j - 1] = RNG.standard_normal()
                out = phi_sigma(sigma, g)
                assert l_sigma_membership(out, sigma, 1e-10)
                np.testing.assert_allclose(phi_sigma_inverse(sigma, out), g, atol=1e-9)

    def test_defining_identity(self):
        # conjugated frame factors as upper-positive-diagonal times the output
        for _ in range(15):
            sigma = Permutation(tuple(int(v) + 1 for v in RNG.permutation(4)))
            inv = sigma.inverse()
            g = np.eye(4)
            for i, j in lower_pairs(4):
                if inv(i) > inv(j):
                    g[i - 1, j - 1] = RNG.standard_normal()
            p = perm_matrix(sigma)
            conj = p.T @ gs_embed(g) @ p
            fac = unbar_factorize(conj)
            assert np.array_equal(fac.m, np.eye(4))
            assert np.min(np.diag(fac.u)) > 0
            assert np.linalg.norm(fac.u @ phi_sigma(sigma, g) - conj) < 1e-10
