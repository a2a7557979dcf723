"""The per-size index plans of the triangular recurrences and the
per-chart records of the chart maps, bit for bit.

The recurrences (``_crout``, ``_unit_lower_inverse`` and
``_nbar_from_affine``) index each step with tuples made once per size;
the slicing loops they replaced are kept here as references, and a plain
matrix, a B = 1 and a B = 3 stack must get their bits, refusals (type
and message) included. The chart maps read d, diag(d), the gap matrix and
diag(h) from one cached, read-only record per (h, w).
"""

import warnings

import numpy as np
import pytest

from toda_atlas import atlas
from toda_atlas.atlas import (
    ChartCoords,
    _chart_forwards,
    _chart_points,
    _chart_record,
    _nbar_from_affine,
    _permuted_diagonals,
    chart_forward,
    chart_inverse,
    coords_from_frame,
    h_conjugate,
    nbar_from_affine,
)
from toda_atlas.errors import FactorizationError
from toda_atlas.factorizations import (
    PIVOT_TOL,
    _crout,
    _unit_lower_inverse,
    unbar_factorize,
)
from toda_atlas.linalg_core import Spectrum
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_special_orthogonal,
)
from toda_atlas.weyl_profiles import Permutation

SIZES = range(2, 13)


def sliced_crout(k):
    """``_crout`` as its slicing loop wrote it, with its old outputs
    ``(u, nbar, signs, failures)``."""
    n = k.shape[-1]
    plain = k.ndim == 2
    matvec = np.ndarray.dot if plain else np.matvec
    flipped = k[..., ::-1, ::-1].copy()
    low = np.zeros(k.shape)
    upp = np.zeros(k.shape)
    upp.reshape(-1, n * n)[:, ::n + 1] = 1.0
    failures = {}
    for c in range(n):
        np.subtract(
            flipped[..., c:, c], matvec(low[..., c:, :c], upp[..., :c, c]), out=low[..., c:, c]
        )
        pivot = low[..., c, c]
        if abs(float(pivot)) < PIVOT_TOL if plain else (np.abs(pivot) < PIVOT_TOL).any():
            pivots = pivot.reshape(-1)
            refused = np.flatnonzero(np.abs(pivots) < PIVOT_TOL)
            for i in refused.tolist():
                failures[i] = FactorizationError(
                    f"not factorizable: trailing principal minor of size {c + 1} "
                    f"vanishes (pivot {pivots[i]:.2e})",
                    minor_index=c + 1,
                )
            for a in (flipped, low, upp):
                a.reshape(-1, n, n)[refused] = np.eye(n)
        if c + 1 < n:
            row = upp[..., c, c + 1:]
            np.vecmat(low[..., c, :c], upp[..., :c, c + 1:], out=row)
            np.subtract(flipped[..., c, c + 1:], row, out=row)
            np.divide(row.T, pivot, out=row.T)
    signs = np.sign(low.diagonal(axis1=-2, axis2=-1))
    u = (low * signs[..., None, :])[..., ::-1, ::-1].copy()
    nbar = (signs[..., :, None] * upp * signs[..., None, :])[..., ::-1, ::-1].copy()
    odd = signs.prod(axis=-1, keepdims=True) != 1.0
    for i in np.flatnonzero(odd).tolist():
        failures.setdefault(i, FactorizationError(
            "sign factor has determinant -1; input was not special orthogonal"
        ))
    return u, nbar, signs[..., ::-1], failures


def sliced_unit_lower_inverse(nbar):
    """``_unit_lower_inverse`` as its slicing loop wrote it."""
    n = nbar.shape[-1]
    inv = np.zeros(nbar.shape)
    inv.reshape(-1, n * n)[:, ::n + 1] = 1.0
    for i in range(1, n):
        row = inv[..., i, :i]
        np.vecmat(nbar[..., i, :i], inv[..., :i, :i], out=row)
        np.negative(row, out=row)
    return inv


def sliced_nbar_from_affine(lower, d):
    """``_nbar_from_affine`` as its slicing loop wrote it, taking the
    permuted diagonal d and forming the gaps itself."""
    x = lower + 0.0
    n = d.shape[-1]
    g = np.zeros(x.shape)
    g.reshape(-1, n * n)[:, ::n + 1] = 1.0
    gaps = d[..., None, :] - d[..., :, None]
    for i in range(1, n):
        row = g[..., i, :i]
        np.vecmat(x[..., i, :i], g[..., :i, :i], out=row)
        np.divide(row, gaps[..., i, :i], out=row)
    return g


def bits(a):
    return np.asarray(a).shape, np.asarray(a).tobytes()


def described(failures):
    return {i: (type(e), str(e), e.minor_index) for i, e in failures.items()}


def ranks(items):
    """One item plain, alone in a stack, and between its two neighbours:
    (input, index of the item in the output or None)."""
    a, b, c = items
    return [(b, None), (np.array([b]), 0), (np.array([a, b, c]), 1)]


def part(out, i):
    return out if i is None else out[i]


def vanishing_pivot(n):
    """A special orthogonal matrix whose trailing minor of size 1 is 0."""
    k = np.eye(n)[:, [*range(n - 2), n - 1, n - 2]]
    k[:, -1] *= -1.0
    return k


def odd_sign_factor(n):
    """An orthogonal matrix of determinant -1 whose pivots are sound."""
    return np.diag([1.0] * (n - 1) + [-1.0])


@pytest.mark.parametrize("n", SIZES)
class TestIndexPlans:
    def test_crout_keeps_the_bits_of_its_slicing_loop(self, n):
        rng = np.random.default_rng(60 + n)
        draws = [random_special_orthogonal(n, rng) for _ in range(3)]
        cases = [
            (draws, None),
            ([draws[0], vanishing_pivot(n), draws[2]], "minor of size 1 vanishes"),
            ([draws[1], odd_sign_factor(n), draws[0]], "sign factor has determinant -1"),
        ]
        for items, refusal in cases:
            for k, i in ranks(items):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    low, nbar, signs, failures = _crout(k.copy())
                    u, nbar_ref, signs_ref, failures_ref = sliced_crout(k.copy())
                assert described(failures) == described(failures_ref)
                messages = [str(e) for e in failures.values()]
                assert messages == [] if refusal is None else refusal in messages[0]
                assert bits(nbar) == bits(nbar_ref) and bits(signs) == bits(signs_ref)
                # unbar_factorize's u, and the chart path's minors, from low
                assert bits((low * signs[..., None, ::-1])[..., ::-1, ::-1]) == bits(u)
                minors = np.abs(low.diagonal(axis1=-2, axis2=-1)).cumprod(axis=-1)
                assert bits(minors) == bits(u.diagonal(axis1=-2, axis2=-1)[..., ::-1].cumprod(-1))
                if i is not None:
                    plain = _crout(items[1].copy())
                    assert bits(part(low, i)) == bits(plain[0])
                    assert bits(part(nbar, i)) == bits(plain[1])
                    assert described(plain[3]).get(0) == described(failures).get(i)
        for k in draws:
            assert bits(unbar_factorize(k).u) == bits(sliced_crout(k.copy())[0])
        with pytest.raises(FactorizationError) as raised:
            unbar_factorize(vanishing_pivot(n))
        assert str(raised.value) == str(sliced_crout(vanishing_pivot(n))[3][0])

    def test_forward_substitutions_keep_the_bits_of_their_slicing_loops(self, n):
        rng = np.random.default_rng(80 + n)
        h = default_spectrum(n)
        coords = [random_chart_coords(random_permutation(n, rng), h, rng) for _ in range(3)]
        lowers = [c.lower for c in coords]
        gaps = [_chart_record(c.h, c.w).gaps for c in coords]
        ds = [_permuted_diagonals(c.h, c.w) for c in coords]
        for (lower, i), (gap, _), (d, _) in zip(ranks(lowers), ranks(gaps), ranks(ds)):
            g = _nbar_from_affine(lower, gap)
            assert bits(g) == bits(sliced_nbar_from_affine(lower, d))
            assert bits(_unit_lower_inverse(g)) == bits(sliced_unit_lower_inverse(g))
            if i is not None:
                assert bits(g[i]) == bits(_nbar_from_affine(lowers[1], gaps[1]))
        assert bits(nbar_from_affine(coords[1])) == bits(sliced_nbar_from_affine(lowers[1], ds[1]))


def chart_work(coords):
    """Every chart map and kernel that reads the records of the charts of
    coords, all of one size, one point at a time and as one stack; returns
    their outputs."""
    points = [chart_inverse(c) for c in coords]
    ws = [c.w for c in coords]
    out = [p.y for p in points]
    out += [chart_forward(p, w).lower for p, w in zip(points, ws)]
    out += [nbar_from_affine(c) for c in coords] + [h_conjugate(c.h, c.w) for c in coords]
    out += [coords_from_frame(p.frame @ atlas._chart_constants(w).unpermute, w, p.h).lower
            for p, w in zip(points, ws)]
    stacked, _ = _chart_points(coords, 0.7)
    out += [p.y for p in stacked] + [_chart_forwards(points, ws)[0]]
    return out


class TestChartRecords:
    def test_the_arrays_are_read_only_and_no_map_writes_into_them(self):
        rng = np.random.default_rng(90)
        sizes = [[random_chart_coords(random_permutation(n, rng), default_spectrum(n), rng)
                  for _ in range(3)] for n in (2, 5, 12)]
        coords = [c for same_size in sizes for c in same_size]
        records = [_chart_record(c.h, c.w) for c in coords]
        arrays = [a for r in records for a in (r.d, r.diagonal, r.gaps, r.spectrum)]
        before = [a.tobytes() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        for same_size in sizes:
            chart_work(same_size)
        assert [a.tobytes() for a in arrays] == before
        assert not any(a.flags.writeable for a in arrays)
        for c, r in zip(coords, records):
            assert _chart_record(c.h, c.w) is r
            d = np.array([c.h.values[c.w.inverse()(i + 1) - 1] for i in range(c.h.n)])
            assert bits(r.d) == bits(d) and bits(r.diagonal) == bits(np.diag(d))
            assert bits(r.gaps) == bits(d[None, :] - d[:, None])
            assert bits(r.spectrum) == bits(np.diag(c.h.values))

    def test_the_cache_stays_within_its_bound(self):
        w = Permutation((2, 3, 1))
        bound = atlas._record.cache_info().maxsize
        assert bound is not None
        for k in range(2000):
            a = 1.0 + k / 1024.0
            _chart_record(Spectrum((a, 0.0, -a)), w)
        assert atlas._record.cache_info().currsize <= bound

    def test_spectra_equal_but_for_the_sign_of_a_zero_get_records_of_their_own(self):
        plus, minus = Spectrum((1.0, 0.0, -1.0)), Spectrum((1.0, -0.0, -1.0))
        assert plus == minus and hash(plus) == hash(minus)
        rng = np.random.default_rng(91)
        ws = [random_permutation(3, rng) for _ in range(4)]
        lowers = [np.tril(rng.uniform(-1.0, 1.0, (3, 3)), -1) for _ in ws]

        def outputs(h):
            return [bits(a) for a in chart_work([ChartCoords(w, x, h) for w, x in zip(ws, lowers)])]

        for w in ws:
            assert _chart_record(plus, w) is not _chart_record(minus, w)
            assert bits(_chart_record(minus, w).spectrum) == bits(np.diag([1.0, -0.0, -1.0]))
            assert bits(_chart_record(plus, w).spectrum) == bits(np.diag([1.0, 0.0, -1.0]))
        # each spectrum's outputs do not depend on whose record was made first
        atlas._record.cache_clear()
        minus_first, plus_second = outputs(minus), outputs(plus)
        atlas._record.cache_clear()
        plus_first, minus_second = outputs(plus), outputs(minus)
        assert plus_first == plus_second and minus_first == minus_second
