"""Seeded random constructions used by the verification harness and tests.

Everything takes an explicit numpy Generator so runs are reproducible;
the package-wide generator is PCG64 via numpy.random.default_rng.
"""

import math

import numpy as np

from .atlas import ChartCoords, FlagPoint
from .factorizations import _gs_qr
from .linalg_core import Spectrum, _make_special
from .weyl_profiles import Permutation, Profile, lower_pairs, profile_closure

__all__ = [
    "rng_from_seed",
    "default_spectrum",
    "random_special_orthogonal",
    "random_symmetric_with_spectrum",
    "random_flag_point",
    "random_unit_lower",
    "random_permutation",
    "random_profile",
    "random_chart_coords",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def default_spectrum(n: int) -> Spectrum:
    """Evenly spaced integers n-1, n-3, ..., -(n-1): unit-free desk scale."""
    return Spectrum(tuple(float(n - 1 - 2 * i) for i in range(n)))


def random_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """The Q factor of a standard normal matrix, signed so that diag(R) > 0,
    with its last column negated when its determinant is negative."""
    q, _ = _gs_qr(rng.standard_normal((n, n)))
    _make_special(q)
    return q


def random_symmetric_with_spectrum(h: Spectrum, rng: np.random.Generator) -> np.ndarray:
    q = random_special_orthogonal(h.n, rng)
    y = q @ h.diag() @ q.T
    return 0.5 * (y + y.T)


def random_flag_point(h: Spectrum, rng: np.random.Generator) -> FlagPoint:
    return FlagPoint(random_symmetric_with_spectrum(h, rng), h)


def random_unit_lower(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit diagonal with standard normal entries below it."""
    return np.eye(n) + np.tril(rng.standard_normal((n, n)), -1)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))


def random_profile(n: int, rng: np.random.Generator) -> Profile:
    """Downward closure of a random subset of the strictly-lower pairs,
    each pair drawn with probability 0.35."""
    seeds = [pair for pair in lower_pairs(n) if rng.random() < 0.35]
    return profile_closure(n, seeds)


def random_chart_coords(
    w: Permutation, h: Spectrum, rng: np.random.Generator, scale: float = 1.0
) -> ChartCoords:
    # the width 2 * scale of the draw's range must be finite as well
    if not math.isfinite(2.0 * scale):
        raise ValueError(f"scale must be finite, and so must 2 * scale, got {scale!r}")
    lower = np.tril(rng.uniform(-scale, scale, (h.n, h.n)), -1)
    return ChartCoords(w=w, lower=lower, h=h)
