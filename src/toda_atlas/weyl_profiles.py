"""Permutation combinatorics and Hessenberg-type profiles.

Permutations use 1-based one-line notation, matching the 1-based (row,
column) pairs used for matrix entries everywhere in this package.

A profile is a downward-closed set of strictly-lower index pairs; the
subspace V_p of matrices supported (below the diagonal) on a profile
generalizes Hessenberg form.

Each pair rule is one boolean (n, n) mask (``_inverted_mask``,
``_outside_mask``). ``v_p_membership`` and ``profile_project`` take an
``(..., n, n)`` stack as well as one matrix, as the flow fields do.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError
from .linalg_core import _require_tol, _strict_lower_mask, as_matrices, require_unit_lower

__all__ = [
    "Permutation",
    "InversionSets",
    "Profile",
    "perm_matrix",
    "inversion_sets",
    "l_sigma_membership",
    "profile_validate",
    "profile_closure",
    "hessenberg_profile",
    "v_p_membership",
    "profile_project",
    "lower_pairs",
]


def lower_pairs(n: int):
    """All strictly-lower index pairs (i, j), i > j, 1-based."""
    return [(i, j) for i in range(2, n + 1) for j in range(1, i)]


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: images[k-1] = sigma(k)."""

    images: tuple

    def __post_init__(self):
        imgs = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, img in enumerate(self.images, start=1):
            inv[img - 1] = j
        return Permutation(tuple(inv))

    def inversion_count(self) -> int:
        return int(np.count_nonzero(_inverted_mask(self)))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def all(cls, n: int):
        return [cls(p) for p in itertools.permutations(range(1, n + 1))]


@dataclass(frozen=True)
class InversionSets:
    """Partition of the strictly-lower pairs into stable and unstable sets.

    In the chart indexed by w, coordinates on stable pairs decay forward
    in time under the linear flow and coordinates on unstable pairs grow;
    |unstable| equals the inversion count (length) of w.
    """

    stable: frozenset
    unstable: frozenset


def perm_matrix(sigma: Permutation) -> np.ndarray:
    """0/1 permutation matrix with entry (sigma(j), j) = 1.

    Used only for conjugation, where the det = -1 ambiguity and the sign
    ambiguity of representatives are irrelevant.
    """
    return np.eye(sigma.n)[:, np.array(sigma.images) - 1]


def inversion_sets(sigma: Permutation) -> InversionSets:
    """Stable/unstable split of the lower pairs for the chart at sigma.

    Pair (i, j) is unstable exactly when sigma^-1(i) < sigma^-1(j), which
    for a strictly decreasing spectrum h is the sign condition
    h[sigma^-1(i)] - h[sigma^-1(j)] > 0 on the permuted diagonal gaps.
    """
    inverted = _inverted_mask(sigma.inverse())
    stable, unstable = set(), set()
    for i, j in lower_pairs(sigma.n):
        (unstable if inverted[i - 1, j - 1] else stable).add((i, j))
    return InversionSets(frozenset(stable), frozenset(unstable))


def _inverted_mask(sigma: Permutation) -> np.ndarray:
    """Boolean (n, n) mask of the strictly-lower pairs (i, j) that sigma
    inverts: i > j and sigma(i) < sigma(j)."""
    images = np.array(sigma.images)
    return _strict_lower_mask(sigma.n) & (images[:, None] < images[None, :])


def l_sigma_membership(g, sigma: Permutation, tol: float) -> bool:
    """Whether a unit lower triangular g stays lower triangular under
    conjugation by sigma.

    Membership holds iff every strictly-lower entry (i, j) of g with
    sigma(i) < sigma(j) vanishes within tol, which must be finite and >= 0.
    """
    g = require_unit_lower(g, tol)
    if g.shape[0] != sigma.n:
        raise ValueError(f"dimension mismatch: matrix is {g.shape[0]}, permutation is {sigma.n}")
    return not np.any(np.abs(g[_inverted_mask(sigma)]) > tol)


@dataclass(frozen=True)
class Profile:
    """A validated downward-closed set of strictly-lower index pairs."""

    n: int
    pairs: frozenset


def _closure(pairs) -> frozenset:
    """The given strictly-lower pairs and every pair they dominate: with
    (i, j), each (ii, jj) with i >= ii > jj >= j, as axiom (b) asks."""
    return frozenset(
        (ii, jj) for i, j in pairs for ii in range(j + 1, i + 1) for jj in range(j, ii)
    )


def profile_validate(n: int, pairs) -> Profile:
    """Validate a pair set against the two profile axioms.

    Axiom (a): every pair (i, j) satisfies i > j.
    Axiom (b): with (i, j) in the set, every (i', j') with
    i >= i' > j' >= j belongs to the set too.

    Raises ProfileError naming the violated axiom and a witness pair:
    for axiom (b), the smallest dominated pair missing from the set.
    """
    if n < 2:
        raise ValueError("profiles need n >= 2")
    cleaned = frozenset((int(i), int(j)) for i, j in pairs)
    for i, j in sorted(cleaned):
        if not (1 <= j and i <= n):
            raise ValueError(f"pair {(i, j)} out of range for n={n}")
        if i <= j:
            raise ProfileError(
                f"axiom (a) violated: pair {(i, j)} is not strictly lower",
                axiom="a",
                witness=(i, j),
            )
    missing = _closure(cleaned) - cleaned
    if missing:
        witness = min(missing)
        raise ProfileError(
            f"axiom (b) violated: dominated pair {witness} missing",
            axiom="b",
            witness=witness,
        )
    return Profile(n, cleaned)


def profile_closure(n: int, pairs) -> Profile:
    """Smallest valid profile containing the given lower pairs."""
    if n < 2:
        raise ValueError("profiles need n >= 2")
    seeds = [(int(i), int(j)) for i, j in pairs]
    for i, j in seeds:
        if i <= j or j < 1 or i > n:
            raise ValueError(f"pair {(i, j)} is not a strictly-lower pair for n={n}")
    return Profile(n, _closure(seeds))


def hessenberg_profile(n: int) -> Profile:
    """The subdiagonal profile {(2,1), (3,2), ..., (n,n-1)}."""
    return profile_closure(n, [(i, i - 1) for i in range(2, n + 1)])


def _outside_mask(p: Profile) -> np.ndarray:
    """Boolean (n, n) mask of the strictly-lower pairs outside the profile."""
    mask = _strict_lower_mask(p.n).copy()
    for i, j in p.pairs:
        mask[i - 1, j - 1] = False
    return mask


def v_p_membership(x, p: Profile, tol: float):
    """Whether every strictly-lower entry outside the profile is <= tol in
    absolute value: a bool for one matrix, a bool array over the leading
    axes for an (..., n, n) stack. tol must be finite and >= 0."""
    _require_tol(tol)
    x = as_matrices(x)
    if x.shape[-1] != p.n:
        raise ValueError(f"dimension mismatch: matrix is {x.shape[-1]}, profile is for n={p.n}")
    inside = ~np.any(np.abs(x[..., _outside_mask(p)]) > tol, axis=-1)
    return inside if inside.ndim else bool(inside)


def profile_project(x, p: Profile) -> np.ndarray:
    """Zero every strictly-lower entry outside the profile (linear,
    idempotent), in one matrix or in each matrix of an (..., n, n) stack."""
    x = as_matrices(x)
    if x.shape[-1] != p.n:
        raise ValueError(f"dimension mismatch: matrix is {x.shape[-1]}, profile is for n={p.n}")
    out = x.copy()
    out[..., _outside_mask(p)] = 0.0
    return out
