import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_atlas.errors import ProfileError
from toda_atlas.sampling import random_permutation, random_profile
from toda_atlas.weyl_profiles import (
    Permutation,
    hessenberg_profile,
    inversion_sets,
    l_sigma_membership,
    lower_pairs,
    perm_matrix,
    profile_closure,
    profile_project,
    profile_validate,
    v_p_membership,
)

RNG = np.random.default_rng(2024)

permutations_of_4 = st.permutations(list(range(1, 5))).map(lambda p: Permutation(tuple(p)))


def random_perm(n, rng):
    return Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))


def basis_matrix(n, i, j):
    e = np.zeros((n, n))
    e[i - 1, j - 1] = 1.0
    return e


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation((1, 1, 3))

    def test_inverse(self):
        sigma = Permutation((2, 3, 1))
        assert sigma.inverse().images == (3, 1, 2)

    def test_inversion_count_brute_force(self):
        rng = np.random.default_rng(31)
        sigmas = [random_perm(5, RNG) for _ in range(20)]
        for n in range(2, 13):
            assert Permutation.identity(n).inversion_count() == 0
            assert Permutation.longest(n).inversion_count() == n * (n - 1) // 2
            sigmas += [random_perm(n, rng) for _ in range(10)]
        for sigma in sigmas:
            brute = sum(
                1
                for a in range(sigma.n)
                for b in range(a + 1, sigma.n)
                if sigma.images[a] > sigma.images[b]
            )
            count = sigma.inversion_count()
            assert type(count) is int and count == brute

    @pytest.mark.parametrize("images, bad", [
        ((1.5, 2.7), 1.5),
        ((1, 2.0), 2.0),
        ((np.float64(1.0), 2), np.float64(1.0)),
    ])
    def test_refuses_a_non_integer_image(self, images, bad):
        # a float is refused, not truncated
        message = f"an index must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Permutation(images)

    def test_takes_numpy_integers_as_ints(self):
        sigma = Permutation((np.int64(2), np.int32(3), np.uint8(1)))
        assert sigma.images == (2, 3, 1)
        assert all(type(v) is int for v in sigma.images)

    def test_identity_and_longest(self):
        assert Permutation.identity(4).images == (1, 2, 3, 4)
        assert Permutation.longest(4).images == (4, 3, 2, 1)
        assert len(Permutation.all(4)) == 24


class TestPermMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(perm_matrix(Permutation.identity(3)), np.eye(3))

    def test_simple_transposition(self):
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(perm_matrix(Permutation((2, 1, 3))), expected)

    def test_equals_the_entrywise_loop(self):
        for n in range(2, 6):
            for sigma in Permutation.all(n):
                loop = np.zeros((n, n))
                for j in range(1, n + 1):
                    loop[sigma(j) - 1, j - 1] = 1.0
                assert perm_matrix(sigma).tobytes() == loop.tobytes()

    def test_group_law(self):
        sigma = random_perm(5, RNG)
        product = perm_matrix(sigma) @ perm_matrix(sigma.inverse())
        np.testing.assert_array_equal(product, np.eye(5))


class TestInversionSets:
    def test_identity_all_stable(self):
        sets = inversion_sets(Permutation.identity(4))
        assert sets.unstable == frozenset()
        assert sets.stable == frozenset(lower_pairs(4))

    def test_longest_all_unstable(self):
        sets = inversion_sets(Permutation.longest(4))
        assert sets.stable == frozenset()
        assert sets.unstable == frozenset(lower_pairs(4))

    def test_simple_transposition(self):
        sets = inversion_sets(Permutation((2, 1, 3)))
        assert sets.unstable == frozenset({(2, 1)})
        assert sets.stable == frozenset({(3, 1), (3, 2)})

    @settings(max_examples=50, deadline=None)
    @given(permutations_of_4)
    def test_conjugation_oracle(self, sigma):
        # (i, j) is stable exactly when conjugating the basis matrix by the
        # inverse representative keeps it strictly lower triangular.
        p_inv = perm_matrix(sigma.inverse())
        sets = inversion_sets(sigma)
        for i, j in lower_pairs(4):
            conj = p_inv @ basis_matrix(4, i, j) @ p_inv.T
            stays_lower = np.max(np.abs(np.triu(conj))) == 0.0
            assert ((i, j) in sets.stable) == stays_lower

    @settings(max_examples=50, deadline=None)
    @given(permutations_of_4)
    def test_partition_and_length(self, sigma):
        sets = inversion_sets(sigma)
        assert sets.stable | sets.unstable == frozenset(lower_pairs(4))
        assert sets.stable & sets.unstable == frozenset()
        assert len(sets.unstable) == sigma.inversion_count()

    def test_gap_sign_consistency(self):
        # unstable exactly when the permuted-diagonal gap is positive
        h = np.array([3.0, 1.0, -1.0, -3.0])
        for _ in range(10):
            sigma = random_perm(4, RNG)
            inv = sigma.inverse()
            sets = inversion_sets(sigma)
            for i, j in lower_pairs(4):
                gap = h[inv(i) - 1] - h[inv(j) - 1]
                assert ((i, j) in sets.unstable) == (gap > 0)


class TestLSigmaMembership:
    def test_simple_transposition_example(self):
        sigma = Permutation((2, 1, 3))
        g = np.eye(3)
        g[2, 0], g[2, 1] = 0.4, -1.1
        assert l_sigma_membership(g, sigma, 1e-12)
        g[1, 0] = 0.3
        assert not l_sigma_membership(g, sigma, 1e-12)

    def test_identity_accepts_everything(self):
        g = np.eye(4) + np.tril(RNG.standard_normal((4, 4)), -1)
        assert l_sigma_membership(g, Permutation.identity(4), 1e-12)

    def test_conjugate_and_inspect_oracle(self):
        for _ in range(30):
            sigma = random_perm(4, RNG)
            g = np.eye(4)
            for i, j in lower_pairs(4):
                if RNG.random() < 0.5:
                    g[i - 1, j - 1] = RNG.standard_normal()
            p = perm_matrix(sigma)
            conj = p @ g @ p.T
            stays_lower = np.max(np.abs(np.triu(conj, 1))) <= 1e-12
            assert l_sigma_membership(g, sigma, 1e-12) == stays_lower

    def test_rejects_non_unit_lower(self):
        with pytest.raises(ValueError, match="unit lower"):
            l_sigma_membership(np.ones((3, 3)), Permutation.identity(3), 1e-12)

    def test_subgroup_closed_under_product_and_inverse(self):
        sigma = Permutation((3, 1, 4, 2))
        members = []
        for _ in range(6):
            g = np.eye(4)
            for i, j in lower_pairs(4):
                if sigma(i) > sigma(j):
                    g[i - 1, j - 1] = RNG.standard_normal()
            members.append(g)
        for a, b in itertools.combinations(members, 2):
            assert l_sigma_membership(a @ b, sigma, 1e-9)
            assert l_sigma_membership(np.linalg.inv(a), sigma, 1e-9)


def downward_closed(n, pairs):
    return all(
        (ii, jj) in pairs
        for i, j in pairs
        for ii in range(j + 1, i + 1)
        for jj in range(j, ii)
    )


class TestProfiles:
    def test_empty_profile_valid(self):
        assert profile_validate(4, set()).pairs == frozenset()

    def test_hessenberg_valid(self):
        p = hessenberg_profile(5)
        assert p.pairs == frozenset({(2, 1), (3, 2), (4, 3), (5, 4)})

    def test_isolated_corner_invalid(self):
        with pytest.raises(ProfileError) as err:
            profile_validate(3, {(3, 1)})
        assert err.value.axiom == "b"
        assert err.value.witness in {(2, 1), (3, 2)}

    def test_axiom_a_violation(self):
        with pytest.raises(ProfileError) as err:
            profile_validate(3, {(1, 2)})
        assert err.value.axiom == "a"

    def test_brute_force_enumeration(self):
        # validation accepts exactly the downward-closed pair sets
        for n in (3, 4):
            pairs = lower_pairs(n)
            for mask in range(2 ** len(pairs)):
                subset = {p for k, p in enumerate(pairs) if mask >> k & 1}
                expected = downward_closed(n, subset)
                try:
                    profile_validate(n, subset)
                    accepted = True
                except ProfileError:
                    accepted = False
                assert accepted == expected, subset

    def test_closure_is_valid_and_minimal(self):
        p = profile_closure(4, {(4, 2)})
        assert p.pairs == frozenset({(4, 2), (4, 3), (3, 2)})

    @pytest.mark.parametrize("build", [profile_closure, profile_validate])
    @pytest.mark.parametrize("pair, bad", [((2.9, 1.2), 2.9), ((2, 1.0), 1.0)])
    def test_a_non_integer_index_is_refused(self, build, pair, bad):
        # the pair (2.9, 1.2) is refused, not held as (2, 1)
        message = f"an index must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(3, [pair])

    def test_numpy_integer_indices_are_ints(self):
        for build in (profile_closure, profile_validate):
            p = build(3, [(np.int64(2), np.int32(1))])
            assert p.pairs == frozenset({(2, 1)})
            assert all(type(v) is int for pair in p.pairs for v in pair)


class TestVpMembership:
    def test_upper_triangular_in_empty_profile(self):
        x = np.triu(RNG.standard_normal((4, 4)))
        assert v_p_membership(x, profile_validate(4, set()), 0.0)

    def test_hessenberg_violation(self):
        x = np.triu(RNG.standard_normal((4, 4)), -1)
        x[2, 0] = 0.5
        assert not v_p_membership(x, hessenberg_profile(4), 1e-12)

    def test_entrywise_scan_oracle(self):
        for _ in range(20):
            n = 4
            p = profile_closure(n, [pair for pair in lower_pairs(n) if RNG.random() < 0.4])
            x = RNG.standard_normal((n, n))
            expected = all(
                abs(x[i - 1, j - 1]) <= 1e-9
                for i, j in lower_pairs(n)
                if (i, j) not in p.pairs
            )
            assert v_p_membership(x, p, 1e-9) == expected


class TestProfileProject:
    def test_fixed_point(self):
        p = hessenberg_profile(4)
        x = np.triu(RNG.standard_normal((4, 4)), -1)
        np.testing.assert_array_equal(profile_project(x, p), x)

    def test_empty_profile_keeps_upper(self):
        x = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(
            profile_project(x, profile_validate(4, set())), np.triu(x)
        )

    def test_linear_and_idempotent(self):
        p = profile_closure(4, {(3, 1)})
        x = RNG.standard_normal((4, 4))
        y = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(
            profile_project(x + y, p), profile_project(x, p) + profile_project(y, p)
        )
        np.testing.assert_array_equal(
            profile_project(profile_project(x, p), p), profile_project(x, p)
        )
        assert v_p_membership(profile_project(x, p), p, 0.0)


TOL = 1e-9
# entries at the tolerance, signed zeros, and just past the tolerance
INSIDE = np.array([TOL, -TOL, 0.0, -0.0, 0.5 * TOL])
OUTSIDE = np.array([np.nextafter(TOL, 1.0), -np.nextafter(TOL, 1.0), 1.0])


def border_stack(n, rng, size=6):
    """Matrices of entries at and inside the tolerance; about half of them
    get one entry past it, at a random place."""
    stack = rng.choice(INSIDE, size=(size, n, n))
    for x in stack:
        if rng.random() < 0.5:
            x[rng.integers(n), rng.integers(n)] = rng.choice(OUTSIDE)
    return stack


def hexes(x):
    return [v.hex() for v in np.ravel(x).tolist()]


class TestMasksAgainstPairLoops:
    """Each mask-based check gives what a loop over the lower pairs gives,
    matrix by matrix."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_v_p_membership_and_profile_project(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(4):
            p = random_profile(n, rng)
            outside = [pair for pair in lower_pairs(n) if pair not in p.pairs]
            stack = border_stack(n, rng)
            members = v_p_membership(stack, p, TOL)
            assert members.shape == (len(stack),)
            projected = profile_project(stack, p)
            for x, member, got in zip(stack, members, projected):
                expected = all(abs(x[i - 1, j - 1]) <= TOL for i, j in outside)
                assert member == expected
                assert v_p_membership(x, p, TOL) is expected
                reference = x.copy()
                for i, j in outside:
                    reference[i - 1, j - 1] = 0.0
                assert hexes(got) == hexes(reference)
                assert hexes(profile_project(x, p)) == hexes(reference)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_l_sigma_membership(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(4):
            sigma = random_permutation(n, rng)
            for x in border_stack(n, rng):
                g = np.eye(n) + np.tril(x, -1)
                expected = all(
                    abs(g[i - 1, j - 1]) <= TOL
                    for i, j in lower_pairs(n)
                    if sigma(i) < sigma(j)
                )
                assert l_sigma_membership(g, sigma, TOL) is expected

