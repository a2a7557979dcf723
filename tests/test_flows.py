import math
import sys
import threading
import warnings

import numpy as np
import pytest

import toda_atlas.flows as flows_module
from toda_atlas.atlas import (
    ChartCoords,
    chart_flow_exact,
    chart_inverse,
    chart_linear_field,
    h_conjugate,
)
from toda_atlas.errors import StiffnessError
from toda_atlas.flows import (
    _DP_A,
    _DP_B5,
    _DP_ERR,
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_many,
    propagate,
    stable_step_for_sorting,
    stable_step_for_symmetrization,
    sym_field,
    toda_field,
    _Work,
    _dopri_stages,
    _error_ratios,
    _frobenius_norms,
    _stacks,
    _stepped,
    _toda_kernel,
)
from toda_atlas.linalg_core import (
    Spectrum,
    _power_traces,
    _relative_drift,
    commutator,
    isospectral_witness,
    pi_k,
    pi_u,
)
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_profile,
    random_special_orthogonal,
    random_symmetric_with_spectrum,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import Permutation, hessenberg_profile, profile_project, v_p_membership
from toda_atlas.analysis import sl2_coords, sl2_cubic_model, sl2_matrix

RNG = rng_from_seed(31)


def generator_sum_step(field, x, h, k1, stages=None, every_term=False):
    """A Dormand-Prince step written with ``sum`` over generators and a
    separate fifth-order sum: the form ``_dopri_stages`` must match bit
    for bit. Appends every stage input to ``stages`` when given. A zero
    weight's term is left out, as it changes no finite sum; with
    ``every_term`` it is added too, as the stage routine adds it, so that a
    non-finite stage gives its 0 * inf = NaN in the same places."""
    def weighted(weights, k):
        return sum(w * ki for w, ki in zip(weights, k) if every_term or w != 0.0)

    k = [k1]
    for row in _DP_A[1:]:
        stage = x + h * weighted(row, k)
        if stages is not None:
            stages.append(stage)
        k.append(field(stage))
    return x + h * weighted(_DP_B5, k), h * weighted(_DP_ERR, k), k[6]


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_or_nan(a, b):
    """The same bits, NaN standing for any NaN."""
    assert np.array_equal(a, b, equal_nan=True)
    numbers = ~np.isnan(a)
    assert np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers]))


def random_matrix(n, rng):
    x = rng.standard_normal((n, n))
    return x - np.trace(x) / n * np.eye(n)


def kernel_layouts(n, rng):
    """Inputs on which a field kernel's triangular projection could lose a
    bit: general, symmetric and triangular matrices, the symmetrization
    fiber starts (a permuted diagonal plus a strictly upper part), exact
    +0.0 and -0.0 entries, transposed, Fortran-ordered and strided views,
    and (B, n, n) stacks, some of them views too. Exactly symmetric ones
    among them: a dense one, a diagonal with negative entries, all -0.0,
    one with zeros of either sign at mirrored places, and the dense one as
    a Fortran-ordered and as a strided view."""
    g = random_matrix(n, rng)
    fiber = h_conjugate(default_spectrum(n), random_permutation(n, rng)) + np.triu(
        rng.standard_normal((n, n)), 1
    )
    zeros = np.where(rng.random((n, n)) < 0.3, 0.0, g)
    zeros[rng.random((n, n)) < 0.3] = -0.0
    small = rng.integers(-1, 2, (n, n)) * -1.0  # exact cancellations, -0.0 entries
    lower = np.tri(n, n, -1, dtype=bool)
    symmetric = random_symmetric_with_spectrum(default_spectrum(n), rng)
    mirrored_zeros = np.where(lower, -0.0, np.where(lower.T, 0.0, symmetric))
    wide = rng.standard_normal((2 * n, 2 * n))
    singles = [
        g,
        symmetric,
        default_spectrum(n).diag(),
        mirrored_zeros,
        np.asfortranarray(symmetric),
        (wide + wide.T)[1::2, 1::2],
        np.triu(g),
        np.tril(g),
        fiber,
        np.where(lower, -0.0, fiber),
        zeros,
        small,
        np.where(lower, -0.0, small),
        np.full((n, n), -0.0),
        g.T,
        np.asfortranarray(fiber),
        rng.standard_normal((2 * n, 3 * n))[1::2, ::3],
    ]
    yield from singles
    yield np.stack(singles)
    yield np.stack(singles).swapaxes(1, 2)
    stack = rng.standard_normal((4, 2, 2 * n, 2 * n))
    stack[stack > 1.0] = -0.0
    yield stack[:, :, ::2, 1::2]
    yield np.triu(stack[:, 1, :n, :n])


def each_matrix(x):
    """The matrices of an (n, n) array or an (..., n, n) stack."""
    return x.reshape((-1,) + x.shape[-2:])


def is_symmetric(x):
    return np.array_equal(x, x.swapaxes(-1, -2))


class TestTodaField:
    def test_symmetric_two_by_two_formula(self):
        for _ in range(50):
            a, b = RNG.uniform(-2, 2, 2)
            y = np.array([[a, b], [b, -a]])
            expected = np.array([[2 * b * b, -2 * a * b], [-2 * a * b, -2 * b * b]])
            np.testing.assert_allclose(toda_field(y), expected, atol=1e-13)

    def test_diagonal_is_critical(self):
        d = np.diag([2.0, 0.0, -2.0])
        assert np.max(np.abs(toda_field(d))) == 0.0

    def test_preserves_symmetry_infinitesimally(self):
        y = random_symmetric_with_spectrum(default_spectrum(4), RNG)
        t = toda_field(y)
        assert np.linalg.norm(t - t.T) < 1e-12

    def test_equals_public_composition_bitwise(self):
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            for x in kernel_layouts(n, rng):
                for got, xi in zip(each_matrix(toda_field(x)), each_matrix(x)):
                    assert_same_bits(got, commutator(xi, pi_k(xi)))

    def test_symmetric_kernel_equals_the_general_one_bitwise(self):
        # on an exactly symmetric x, [x, k] = x k + (x k)^T with k = x * S;
        # with and without an out array, on each symmetric layout alone, on
        # a stack of them and on a stack of their transposed views
        rng = np.random.default_rng(15)
        for n in range(2, 13):
            singles = [x for x in kernel_layouts(n, rng) if x.ndim == 2 and is_symmetric(x)]
            assert len(singles) >= 6
            stack = np.stack(singles)
            for x in singles + [stack, stack.swapaxes(1, 2)]:
                plain = x.ndim == 2
                want = _toda_kernel(n, plain, False)(x)
                symmetric = _toda_kernel(n, plain, True)
                assert_same_bits(symmetric(x), want)
                out = np.empty(x.shape)
                assert symmetric(x, out) is out
                assert_same_bits(out, want)
                assert is_symmetric(out)


@pytest.mark.parametrize("field", [toda_field, sym_field])
def test_fields_validate_input(field):
    with pytest.raises(ValueError, match="square"):
        field(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2x2"):
        field(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        field(np.array([[1.0, np.inf], [0.0, -1.0]]))


@pytest.mark.parametrize("field", [toda_field, sym_field])
def test_fields_take_stacks_with_the_bits_of_each_matrix(field):
    rng = np.random.default_rng(14)
    for n in range(2, 13):
        stack = np.stack([random_matrix(n, rng) for _ in range(5)]).reshape(5, 1, n, n)
        got = field(stack)
        assert got.shape == stack.shape
        for x, f in zip(stack[:, 0], got[:, 0]):
            assert_same_bits(f, field(x))
    with pytest.raises(ValueError, match="square"):
        field(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="finite"):
        field(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


class TestChartLinearField:
    def test_two_by_two_coefficient(self):
        lam, x = 0.8, 1.7
        h = Spectrum((lam, -lam))
        coords = ChartCoords(
            w=Permutation.identity(2), lower=np.array([[0.0, 0.0], [x, 0.0]]), h=h
        )
        np.testing.assert_allclose(
            chart_linear_field(coords), [[0.0, 0.0], [-2 * lam * x, 0.0]], atol=1e-15
        )

    def test_zero_at_origin(self):
        h = default_spectrum(3)
        coords = ChartCoords(w=Permutation.longest(3), lower=np.zeros((3, 3)), h=h)
        assert np.max(np.abs(chart_linear_field(coords))) == 0.0

    def test_matches_commutator_oracle(self):
        h = default_spectrum(3)
        for w in Permutation.all(3):
            coords = random_chart_coords(w, h, RNG)
            d = h_conjugate(h, w)
            expected = np.tril(commutator(d, d + coords.lower), -1)
            np.testing.assert_allclose(chart_linear_field(coords), expected, atol=1e-13)

    def test_an_overflowing_field_is_refused_without_a_warning(self):
        # the gaps 1e300 and 2e300 times coordinates 1e300 leave the double
        # range; a coordinate that keeps every product finite is still taken
        h = Spectrum((1e300, 0.0, -1e300))
        lower = np.tril(np.full((3, 3), 1e300), -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^chart linear field overflows: "):
                chart_linear_field(ChartCoords(Permutation.identity(3), lower, h))
            field = chart_linear_field(ChartCoords(Permutation.identity(3), lower * 1e-300, h))
        np.testing.assert_array_equal(field, -np.tril([[0, 0, 0], [1e300, 0, 0], [2e300, 1e300, 0]]))


class TestChartFlowExact:
    def test_time_zero_is_identity(self):
        h = default_spectrum(3)
        coords = random_chart_coords(Permutation((2, 3, 1)), h, RNG)
        np.testing.assert_array_equal(chart_flow_exact(coords, 0.0).lower, coords.lower)

    def test_two_by_two_decay(self):
        lam, x0, t = 0.6, 1.2, 0.9
        h = Spectrum((lam, -lam))
        coords = ChartCoords(
            w=Permutation.identity(2), lower=np.array([[0.0, 0.0], [x0, 0.0]]), h=h
        )
        moved = chart_flow_exact(coords, t)
        np.testing.assert_allclose(moved.lower[1, 0], x0 * math.exp(-2 * lam * t), atol=1e-14)

    def test_group_law(self):
        h = default_spectrum(4)
        coords = random_chart_coords(Permutation((3, 1, 4, 2)), h, RNG)
        s, t = 0.37, 0.21
        once = chart_flow_exact(coords, s + t)
        twice = chart_flow_exact(chart_flow_exact(coords, s), t)
        np.testing.assert_allclose(once.lower, twice.lower, atol=1e-12)

    def test_stable_pairs_decay_monotonically(self):
        h = default_spectrum(3)
        w = Permutation((2, 1, 3))
        lower = np.zeros((3, 3))
        lower[2, 0] = 1.0
        lower[2, 1] = -0.5
        coords = ChartCoords(w=w, lower=lower, h=h)
        norms = [
            np.linalg.norm(chart_flow_exact(coords, t).lower) for t in (0.0, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0] * math.exp(-2 * 4.0) * 1.01

    def test_overflow_guard(self):
        h = default_spectrum(3)
        coords = random_chart_coords(Permutation.identity(3), h, RNG)
        with pytest.raises(OverflowError):
            chart_flow_exact(coords, 1e6)

    def test_a_huge_time_gets_a_short_exponent(self):
        coords = random_chart_coords(Permutation.identity(3), default_spectrum(3), RNG)
        with pytest.raises(OverflowError, match=r"^exponent 4e\+300 exceeds 700;"):
            chart_flow_exact(coords, 1e300)

    def test_a_time_that_is_not_finite_is_named(self):
        coords = random_chart_coords(Permutation.identity(3), default_spectrum(3), RNG)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^flow time t must be finite, got -?(nan|inf)$"):
                chart_flow_exact(coords, t)

    def test_an_overflowing_coordinate_names_t_without_a_warning(self):
        # the exponent 600 passes the guard, but 1e300 * exp(300) overflows
        h = Spectrum((1.0, 0.0, -1.0))
        coords = ChartCoords(Permutation.identity(3), np.tril(np.full((3, 3), 1e300), -1), h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"^chart coordinates overflow under the flow for time t = -300$"
            ):
                chart_flow_exact(coords, -300.0)
            # a time that keeps every coordinate finite still flows them
            flowed = chart_flow_exact(coords, 300.0)
        assert np.isfinite(flowed.lower).all() and not flowed.lower.flags.writeable


class TestSymField:
    def test_vanishes_on_symmetric(self):
        y = random_symmetric_with_spectrum(default_spectrum(4), RNG)
        assert np.max(np.abs(sym_field(y))) == 0.0

    def test_vanishes_on_skew(self):
        s = RNG.standard_normal((3, 3))
        s = s - s.T
        assert np.linalg.norm(sym_field(s)) < 1e-12

    def test_nonzero_on_non_normal(self):
        x = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]) + np.diag(
            [1.0, 0.0, -1.0]
        )
        assert np.linalg.norm(sym_field(x)) > 1e-3

    def test_cubic_coordinates(self):
        # coordinate expression is exactly four times the quarter-scale model
        for _ in range(100):
            v = RNG.uniform(-1.5, 1.5, 3)
            got = sl2_coords(sym_field(sl2_matrix(v)))
            np.testing.assert_allclose(got, 4.0 * sl2_cubic_model(v), atol=1e-12)

    def test_upper_triangular_stays_upper(self):
        x = np.triu(RNG.standard_normal((4, 4)))
        x -= np.trace(x) / 4 * np.eye(4)
        out = sym_field(x)
        assert np.max(np.abs(np.tril(out, -1))) == 0.0

    def test_equals_public_composition_bitwise(self):
        rng = np.random.default_rng(12)
        for n in range(2, 13):
            for x in kernel_layouts(n, rng):
                for got, xi in zip(each_matrix(sym_field(x)), each_matrix(x)):
                    assert_same_bits(got, commutator(xi, pi_u(commutator(xi, xi.T))))

    def test_commutator_with_the_transpose_is_exactly_symmetric(self):
        # c = x x^T - x^T x as the kernel computes it has c_ij == c_ji, so
        # pi_u(c), which holds c_ij + c_ji above the diagonal, is c * W (W
        # being 2 there) exactly; where c_ij and c_ji are zeros of opposite
        # signs, both forms keep c_ij's
        rng = np.random.default_rng(13)
        for n in range(2, 13):
            for x in kernel_layouts(n, rng):
                xt = x.swapaxes(-1, -2)
                c = x @ xt - xt @ x
                assert np.array_equal(c, c.swapaxes(-1, -2))


class TestIntegrate:
    def test_critical_start_returns_single_state(self):
        traj = integrate(toda_field, np.diag([2.0, 0.0, -2.0]))
        assert traj.accepted_steps == 0
        assert len(traj.states) == 1
        assert traj.final_field_norm < 1e-10

    def test_two_by_two_closed_form_solution(self):
        # off-diagonal start: entries follow tanh/sech in 2t
        x0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        for t in (0.3, 1.0, 2.5):
            cfg = IntegratorConfig(t_max=t, stop_field_norm=1e-300 + 1e-301)
            traj = integrate(toda_field, x0, cfg)
            assert abs(traj.final_time - t) < 1e-12
            expected = np.array(
                [
                    [math.tanh(2 * t), 1.0 / math.cosh(2 * t)],
                    [1.0 / math.cosh(2 * t), -math.tanh(2 * t)],
                ]
            )
            np.testing.assert_allclose(traj.final_state, expected, atol=1e-9)

    def test_sorting_limit_two_by_two(self):
        x0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = IntegratorConfig(t_max=25.0)
        traj = integrate(toda_field, x0, cfg)
        assert traj.final_field_norm < cfg.stop_field_norm
        np.testing.assert_allclose(traj.final_state, np.diag([1.0, -1.0]), atol=1e-8)

    def test_drift_and_symmetry_along_sorting_runs(self):
        h = default_spectrum(4)
        for _ in range(3):
            x0 = random_symmetric_with_spectrum(h, RNG)
            cfg = IntegratorConfig(t_max=60.0, max_step=stable_step_for_sorting(h))
            traj = integrate(toda_field, x0, cfg)
            assert traj.final_field_norm < 1e-10
            assert traj.power_trace_drift < 1e-8
            assert all(np.linalg.norm(s - s.T) < 1e-9 for s in traj.states)
            np.testing.assert_allclose(traj.final_state, h.diag(), atol=1e-7)

    def test_trajectory_invariants(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=5.0, stop_field_norm=1e-300 + 1e-301))
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states) == traj.accepted_steps + 1

    def test_witness_drift_reported(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=10.0))
        w0 = isospectral_witness(x0)
        observed = max(
            isospectral_witness(s).drift_from(w0) for s in traj.states
        )
        assert traj.power_trace_drift == observed

    def test_propagate_matches_integrate(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        cfg = IntegratorConfig(t_max=0.4, stop_field_norm=1e-300 + 1e-301)
        fine = integrate(toda_field, x0, cfg).final_state
        fixed = propagate(toda_field, x0, 0.4)
        np.testing.assert_allclose(fixed, fine, atol=1e-11)

    def test_states_do_not_share_memory(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=1.0))
        assert traj.accepted_steps > 10
        for i, a in enumerate(traj.states):
            assert not np.shares_memory(a, x0)
            for b in traj.states[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_field_evals_counted(self):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return sym_field(x)

        x0 = np.diag([3.0, 1.0, -4.0]) + np.triu(rng_from_seed(3).standard_normal((3, 3)), 1)
        traj = integrate(counted, x0, IntegratorConfig(t_max=3.0, max_step=1.0))
        assert traj.rejected_steps > 0
        assert traj.field_evals == 1 + 6 * (traj.accepted_steps + traj.rejected_steps)
        assert traj.field_evals == calls

    def test_step_extremes(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        cfg = IntegratorConfig(t_max=5.0, max_step=0.05)
        traj = integrate(toda_field, x0, cfg)
        dt = np.diff(traj.times)
        assert 0.0 < traj.min_step <= traj.max_step <= cfg.max_step
        assert traj.min_step == pytest.approx(dt.min(), rel=1e-9)
        assert traj.max_step == pytest.approx(dt.max(), rel=1e-9)
        critical = integrate(toda_field, np.diag([2.0, 0.0, -2.0]))
        assert critical.field_evals == 1
        assert critical.min_step == critical.max_step == 0.0

    @staticmethod
    def stages_against_sum(field, x, steps, every_term=False):
        """Run ``_dopri_stages`` on x, one matrix or a (B, n, n) stack with
        step steps[b] in lane b, in a kernel's work arrays and in a caller's
        field's new ones, and hold each lane's stages and outputs to
        ``generator_sum_step`` on that lane alone."""
        lanes = [x] if x.ndim == 2 else list(x)
        for own in (False, True):
            got_stages = []

            def recording(x, out=None, tmp=None):
                got_stages.append(x.copy())
                if out is None:
                    return field(x)
                out[...] = field(x)
                return out

            work = _Work(x, own, (IntegratorConfig.rel_tol, IntegratorConfig.abs_tol))
            work.h[...] = steps[0] if x.ndim == 2 else np.array(steps)[:, None, None]
            got = _dopri_stages(recording, x, field(x), work)
            assert len(got_stages) == 6
            assert got[0].shape == x.shape
            for i, (x0, step) in enumerate(zip(lanes, steps)):
                expected_stages = []
                want = generator_sum_step(
                    field, x0, step, field(x0), expected_stages, every_term
                )
                lane = (lambda a: a) if x.ndim == 2 else (lambda a: a[i])
                for a, b in zip(got_stages + list(got), expected_stages + list(want)):
                    assert_same_or_nan(lane(a), b)

    @pytest.mark.parametrize("rank", ["matrix", "stack"])
    def test_stage_sums_keep_the_bits_of_sum(self, rank):
        # an all -0.0 entry must come out of a stage sum as +0.0, as sum()
        # gives: one matrix with its step, and a stack whose lanes have
        # their own steps, each lane against its own sum()
        one = np.array([[-0.0, 1.0], [-0.5, -0.0]])
        if rank == "matrix":
            x, steps = one, [1e-3]
        else:
            x, steps = np.stack([one, -one, np.full((2, 2), -0.0)]), [1e-3, 2.5e-2, 0.5]
        self.stages_against_sum(lambda x: -np.abs(x), x, steps)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("rank", ["matrix", "stack"])
    def test_stage_terms_keep_the_bits_of_sum(self, rank, n):
        # x and the field's values hold +0.0, -0.0, subnormals and normal
        # numbers of both signs, stepped forward and backward; the
        # smallest subnormals among the values make weighted terms that
        # round to -0.0, which the sums' +0.0 start must make
        # +0.0 where x is -0.0; then a start whose first stage overflows,
        # so later stages hold inf and NaN (a step the integrator
        # rejects), against the sums with every term, zero weights' NaN
        # included
        rng = np.random.default_rng(300 + n)
        shape = (n, n) if rank == "matrix" else (3, n, n)
        kinds = rng.integers(0, 5, shape)
        x = np.select(
            [kinds == 0, kinds == 1, kinds == 2],
            [0.0, -0.0, rng.integers(-3, 4, shape) * 5e-324],
            rng.standard_normal(shape),
        )
        picks = rng.integers(0, 3, (n, n))
        weights = np.select(
            [picks == 0, picks == 1],
            [-0.0, rng.integers(1, 9, (n, n)) * 2.0 ** -1070],
            rng.standard_normal((n, n)),
        )
        offsets = rng.integers(-2, 3, (n, n)) * 5e-324
        offsets[offsets == 0.0] = -0.0  # x * weights + -0.0 keeps every bit

        def field(x):
            return x * weights + offsets

        lanes = 1 if rank == "matrix" else 3
        for sign in (1.0, -1.0):
            steps = [sign * 10.0 ** -k for k in range(3, 3 + lanes)]
            self.stages_against_sum(field, x, steps)
            huge = np.where(kinds == 2, 1e308, x)
            with np.errstate(over="ignore", invalid="ignore"):
                self.stages_against_sum(lambda x: field(x) * 1e300, huge, steps, every_term=True)

    def test_propagate_is_the_integrator_run_to_an_exact_time(self):
        # the final state of integrate run to exactly |t|, stopping early
        # only where the field's norm is 0: of the field ahead, of the
        # negated field behind
        rng = np.random.default_rng(13)
        for n in (3, 5):
            x0 = random_symmetric_with_spectrum(default_spectrum(n), rng)
            upper = -np.triu(rng.standard_normal((n, n)), 1) + default_spectrum(n).diag()
            for field, start in ((toda_field, x0), (sym_field, upper), (toda_field, upper)):
                for t in (1e-3, -2.5e-3, 0.0137):
                    ahead = field if t > 0.0 else (lambda x: -field(x))
                    cfg = IntegratorConfig(t_max=abs(t), stop_field_norm=math.ulp(0.0))
                    assert_same_bits(propagate(field, start, t), integrate(ahead, start, cfg).final_state)

    def test_propagate_refuses_a_state_that_blows_up(self):
        # the symmetrization field stepped backward from this start blows
        # up within t = -0.05: the step size underflows first, a typed
        # error with no warning, whether the field is given or wrapped
        n = 8
        x0 = np.diag(np.linspace(1.0, -1.0, n)) + np.triu(np.random.default_rng(5).standard_normal((n, n)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for field in (sym_field, lambda x: sym_field(x)):
                with pytest.raises(StiffnessError, match=r"step size underflowed \(.*\) at t=0\.02") as caught:
                    propagate(field, x0, -0.05)
                assert 0.02 < caught.value.trajectory.final_time < 0.025
            assert np.isfinite(propagate(sym_field, x0, 0.05)).all()

    @pytest.mark.parametrize("t", [1e-15, -1e-15, 1e-300])
    def test_propagate_takes_one_step_to_a_time_below_the_smallest_step(self, t):
        # the horizon cuts the controller's first step short; that is not
        # an underflow of the step size
        x0 = np.diag([2.0, 0.0, -2.0])
        x0[2, 1] = 0.1
        ahead = toda_field if t > 0.0 else (lambda x: -toda_field(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = propagate(toda_field, x0, t)
            run = integrate(ahead, x0, IntegratorConfig(t_max=abs(t), stop_field_norm=math.ulp(0.0)))
        assert run.times.tolist() == [0.0, abs(t)]
        assert_same_bits(got, generator_sum_step(ahead, x0, abs(t), ahead(x0))[0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_propagate_refuses_a_time_that_is_not_finite(self, t):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), np.random.default_rng(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"propagate time t must be finite, got {t!r}"):
                propagate(toda_field, x0, t)

    def test_backward_propagation_inverts_forward(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        there = propagate(toda_field, x0, 0.2)
        back = propagate(toda_field, there, -0.2)
        np.testing.assert_allclose(back, x0, atol=1e-12)

    def test_backward_run_is_minus_the_forward_run_from_minus_the_start(self):
        # toda_field is even, F(-X) = F(X), so x' = -F(x) from x0 is minus
        # the run of x' = F(x) from -x0, step for step
        rng = np.random.default_rng(17)
        for n in range(2, 13):
            h = default_spectrum(n)
            x0 = random_symmetric_with_spectrum(h, rng)
            cfg = IntegratorConfig(t_max=1.0, max_step=stable_step_for_sorting(h))
            (forward,) = integrate_many(toda_field, [-x0], cfg)
            (backward,) = integrate_many(lambda x: -toda_field(x), [x0], cfg)
            assert forward.times.tobytes() == backward.times.tobytes()
            for name in ("accepted_steps", "rejected_steps", "field_evals", "final_field_norm"):
                assert getattr(forward, name) == getattr(backward, name), (n, name)
            assert len(forward.states) == len(backward.states)
            for a, b in zip(forward.states, backward.states):
                np.testing.assert_array_equal(a, -b)


class TestLimitPoint:
    def test_sym_limit_of_upper_triangular(self):
        x0 = np.diag([3.0, 1.0, -4.0]) + np.triu(RNG.standard_normal((3, 3)), 1)
        cfg = IntegratorConfig(t_max=40.0, max_step=0.025)
        traj = integrate(sym_field, x0, cfg)
        assert traj.final_field_norm < cfg.stop_field_norm
        final = traj.final_state
        assert np.linalg.norm(final - final.T) < 1e-7
        np.testing.assert_allclose(final, np.diag([3.0, 1.0, -4.0]), atol=1e-6)

    def test_toda_fixed_at_diagonal(self):
        h = np.diag([2.0, 0.0, -2.0])
        traj = integrate(toda_field, h)
        assert traj.final_field_norm < IntegratorConfig().stop_field_norm
        np.testing.assert_array_equal(traj.final_state, h)

    def test_sl2_plane_invariance_and_hyperbola_fiber(self):
        # starts with zero diagonal coordinate stay on that plane and land on
        # the circle of symmetric points with the conserved radius
        y0, z0 = 2.0, 1.0
        x0 = sl2_matrix((0.0, y0, z0))
        # transverse contraction rate is -2 (2 sqrt(3))^2 = -24; keep steps
        # inside the stability interval so the mode decays instead of
        # rattling at a noise floor
        cfg = IntegratorConfig(t_max=20.0, max_step=0.1)
        traj = integrate(sym_field, x0, cfg)
        assert traj.final_field_norm < cfg.stop_field_norm
        for state in traj.states:
            assert abs(sl2_coords(state)[0]) < 1e-9
        limit = sl2_coords(traj.final_state)
        assert abs(limit[2]) < 1e-7
        assert limit[1] == pytest.approx(math.sqrt(y0 * y0 - z0 * z0), abs=1e-7)


class TestSymFlowInvariants:
    def test_norm_monotone_and_isospectral(self):
        h = default_spectrum(3)
        for _ in range(3):
            x0 = h_conjugate(h, Permutation((2, 3, 1))) + np.triu(RNG.standard_normal((3, 3)), 1)
            cfg = IntegratorConfig(t_max=40.0, max_step=stable_step_for_symmetrization(h))
            traj = integrate(sym_field, x0, cfg)
            norms = [float(np.sum(s * s)) for s in traj.states]
            assert all(later <= earlier + 1e-10 for earlier, later in zip(norms, norms[1:]))
            assert traj.power_trace_drift < 1e-8

    def test_profile_preservation_both_fields(self):
        for n in (4, 5):
            h = default_spectrum(n)
            profiles = [hessenberg_profile(n), random_profile(n, RNG)]
            for p in profiles:
                w = Permutation.identity(n)
                lower = profile_project(np.tril(RNG.uniform(-0.7, 0.7, (n, n)), -1), p)
                symmetric_point = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
                u = np.eye(n) + 0.3 * np.triu(RNG.standard_normal((n, n)), 1)
                x0 = u @ symmetric_point.y @ np.linalg.inv(u)
                assert v_p_membership(x0, p, 1e-9)
                for field in (toda_field, sym_field):
                    traj = integrate(
                        field, x0, IntegratorConfig(t_max=3.0, stop_field_norm=1e-300 + 1e-301)
                    )
                    for state in traj.states:
                        assert v_p_membership(state, p, 1e-9)


def assert_same_run(a, b):
    """Two trajectories with the same bits in every state and figure."""
    assert_same_bits(a.times, b.times)
    assert len(a.states) == len(b.states)
    for p, q in zip(a.states, b.states):
        assert_same_bits(p, q)
    for name in (
        "accepted_steps", "rejected_steps", "field_evals", "min_step", "max_step",
        "final_field_norm", "power_trace_drift",
    ):
        assert getattr(a, name) == getattr(b, name), name


def lane_starts(field, n, rng):
    """Four starts of one batch: a generic one, the same scaled (by 100
    for the sorting field, whose rates grow linearly with the scale, and
    by 2 for the cubic symmetrization field) so that the controller
    rejects steps at every n = 2...12, one next to the zero set of the
    field (it stops early) and one on it (no step)."""
    h = default_spectrum(n)
    if field is toda_field:
        generic = random_symmetric_with_spectrum(h, rng)
        offset = np.triu(rng.standard_normal((n, n)), 1)
        return [generic, 100.0 * generic, h.diag() + 1e-6 * (offset + offset.T), h.diag()]
    generic = h.diag() + np.triu(rng.standard_normal((n, n)), 1)
    near = h.diag() + 1e-6 * np.triu(rng.standard_normal((n, n)), 1)
    return [generic, 2.0 * generic, near, random_symmetric_with_spectrum(h, rng)]


class TestIntegrateMany:
    # a one-start run multiplies with ndarray.dot and a lane of a batch with
    # np.matmul, so their equality is shown at every size
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("field", [toda_field, sym_field])
    def test_lanes_equal_serial_runs(self, field, n):
        starts = lane_starts(field, n, np.random.default_rng(40 + n))
        t_max = 3.0 if field is toda_field else 1.0
        cfg = IntegratorConfig(t_max=t_max, stop_field_norm=1e-7)
        lanes = integrate_many(field, starts, cfg)
        assert len(lanes) == len(starts)
        for lane, x0 in zip(lanes, starts):
            assert_same_run(lane, integrate(field, x0, cfg))
        assert lanes[1].rejected_steps > 0
        assert 0.0 < lanes[2].final_time < lanes[0].final_time
        assert lanes[3].accepted_steps == lanes[3].rejected_steps == 0
        assert lanes[3].field_evals == 1

    def test_one_field_call_per_stage_per_batch(self):
        shapes = []

        def counted(x):
            shapes.append(x.shape)
            return sym_field(x)

        starts = lane_starts(sym_field, 3, np.random.default_rng(5))
        cfg = IntegratorConfig(t_max=1.0, stop_field_norm=1e-7)
        lanes = integrate_many(counted, starts, cfg)
        batch_steps = max(lane.accepted_steps + lane.rejected_steps for lane in lanes)
        assert len(shapes) == 1 + 6 * batch_steps
        assert shapes[0] == (4, 3, 3)
        # lanes that stop leave the stack
        assert [s[0] for s in shapes] == sorted((s[0] for s in shapes), reverse=True)
        assert shapes[-1][0] < 4
        for lane in lanes:
            assert lane.field_evals == 1 + 6 * (lane.accepted_steps + lane.rejected_steps)

    @pytest.mark.parametrize(
        "starts, message",
        [
            ([], "at least one start"),
            ([np.eye(2), np.eye(3)], "different shapes"),
            ([np.eye(2), np.array([[1.0, np.nan], [0.0, -1.0]])], "finite"),
            ([np.zeros((2, 2, 2))], "square matrix"),
        ],
    )
    def test_bad_starts_rejected_before_any_step(self, starts, message):
        calls = []

        def counted(x):
            calls.append(x)
            return toda_field(x)

        with pytest.raises(ValueError, match=message):
            integrate_many(counted, starts)
        assert calls == []

    def test_a_start_whose_witness_overflows_is_refused_before_the_field_is_called(
        self, overflowing_start
    ):
        calls = []

        def counted(x):
            calls.append(x)
            return toda_field(x)

        calm = np.diag(np.linspace(1.0, -1.0, len(overflowing_start)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="power-trace witness"):
                integrate_many(counted, [calm, overflowing_start])
        assert calls == []

    def test_underflowing_lane_raises_with_its_partial_run(self):
        # entries above 0.5 see a wildly oscillating field that defeats the
        # error estimate; the small lane decays smoothly and is still
        # running when the large one underflows
        def split(x):
            return np.where(np.abs(x) > 0.5, 1e18 * np.sin(1e18 * x), -x)

        calm, wild = 0.1 * np.eye(2), np.eye(2)
        cfg = IntegratorConfig(t_max=50.0)
        with pytest.raises(StiffnessError) as alone:
            integrate(split, wild, cfg)
        with pytest.raises(StiffnessError) as batched:
            integrate_many(split, [calm, wild], cfg)
        assert str(batched.value) == str(alone.value)
        assert str(batched.value).startswith("step size underflowed (")
        assert_same_run(batched.value.trajectory, alone.value.trajectory)
        assert batched.value.trajectory.rejected_steps > 0

    def test_a_step_that_no_longer_advances_t_raises_with_its_partial_run(self):
        # x00 is a clock; at t = 130 a stiff decay switches on, and the
        # controller's steps shrink to about 1e-14, less than half an ulp
        # of 130, before they fall below the smallest step: the lane
        # raises there, in bounded work, and its times strictly increase
        calls = []

        def clocked(x):
            calls.append(None)
            assert len(calls) < 20_000, "the run stalled"
            out = np.zeros_like(x)
            out[0, 0] = 1.0
            if x[0, 0] > 130.0:
                out[1, 1] = -3e14 * x[1, 1]
            return out

        cfg = IntegratorConfig(t_max=180.0, stop_field_norm=1e-300)
        message = r"^step size underflowed \(1\.\d+e-14\) at t=130: the step no longer advances t$"
        with pytest.raises(StiffnessError, match=message) as caught:
            integrate(clocked, np.diag([0.0, 1.0]), cfg)
        times = caught.value.trajectory.times
        assert np.all(np.diff(times) > 0.0)
        assert 130.0 <= times[-1] < 130.0 + 1e-12


class TestOneStart:
    @pytest.mark.parametrize("lean", [False, True], ids=["full", "lean"])
    @pytest.mark.parametrize("field", [toda_field, sym_field])
    def test_a_callers_field_gets_the_rank_of_the_run_and_its_bits(
        self, field, lean, monkeypatch
    ):
        # one rank rule for every field: one start is stepped as its (n, n)
        # matrix and a batch as its (B, n, n) stack, for a known field and
        # for the same field behind a wrapper, and both runs have the same
        # bits
        n = 6
        starts = lane_starts(field, n, np.random.default_rng(90))[:2]
        cfg = IntegratorConfig(t_max=3.0 if field is toda_field else 1.0, stop_field_norm=1e-7)
        per_state = norm_and_corner if lean else None
        stepped, kernel_ranks, wrapped_shapes = flows_module._stepped, set(), set()

        def recording_stepped(field, starts):
            kernel, x, own = stepped(field, starts)

            def recording_kernel(x, *out_and_scratch):
                if not own:
                    kernel_ranks.add(x.ndim)
                return kernel(x, *out_and_scratch)
            return recording_kernel, x, own

        def wrapped(x):
            wrapped_shapes.add(x.shape)
            return field(x)

        def same_runs(known, own):
            for a, b in zip(known, own, strict=True):
                assert_same_run(a, b)
                if lean:
                    assert_same_bits(a.per_state, b.per_state)

        monkeypatch.setattr(flows_module, "_stepped", recording_stepped)
        for x0 in starts:
            if lean:
                same_runs(
                    integrate_many(field, [x0], cfg, per_state=per_state),
                    integrate_many(wrapped, [x0], cfg, per_state=per_state),
                )
            else:
                same_runs([integrate(field, x0, cfg)], [integrate(wrapped, x0, cfg)])
        assert kernel_ranks == {2}
        assert wrapped_shapes == {(n, n)}

        kernel_ranks.clear()
        wrapped_shapes.clear()
        batch = integrate_many(wrapped, starts, cfg, per_state=per_state)
        same_runs(integrate_many(field, starts, cfg, per_state=per_state), batch)
        assert kernel_ranks == {3}
        assert (2, n, n) in wrapped_shapes
        assert {shape[1:] for shape in wrapped_shapes} == {(n, n)}
        assert all(run.accepted_steps > 10 for run in batch)
        assert any(run.rejected_steps > 0 for run in batch)

    def test_a_callers_field_gets_new_arrays_and_none_changes(self):
        # it may keep what it is given: no array comes twice or is written
        # after the call, in a one-start run, a batch and propagate
        seen = []

        def keeping(x):
            seen.append((x, x.copy()))
            return toda_field(x)

        starts = lane_starts(toda_field, 4, np.random.default_rng(91))
        cfg = IntegratorConfig(t_max=3.0, stop_field_norm=1e-7)
        integrate(keeping, starts[1], cfg)
        integrate_many(keeping, starts, cfg)
        propagate(keeping, starts[0], 0.01)
        assert len(seen) > 100
        assert len({id(x) for x, _ in seen}) == len(seen)
        for x, copy in seen:
            assert_same_bits(x, copy)


def nudged(x, i, j):
    """x with its (i, j) entry one ulp up."""
    x = x.copy()
    x[i, j] = np.nextafter(x[i, j], np.inf)
    return x


class TestSymmetricRuns:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_a_start_one_ulp_off_symmetric_takes_the_general_kernel(self, n):
        generic, scaled = lane_starts(toda_field, n, np.random.default_rng(60 + n))[:2]
        cfg = IntegratorConfig(t_max=3.0, stop_field_norm=1e-7)
        assert _stepped(toda_field, [generic])[0] is _toda_kernel(n, True, True)
        for x0 in (nudged(generic, n - 1, 0), nudged(scaled, 0, n - 1)):
            assert _stepped(toda_field, [x0])[0] is _toda_kernel(n, True, False)
            assert _stepped(toda_field, [generic, x0])[0] is _toda_kernel(n, False, False)
            run = integrate(toda_field, x0, cfg)
            assert_same_run(run, reference_integrate(toda_field, x0, cfg))
            assert run.accepted_steps > 10

    @pytest.mark.parametrize("n", [3, 8])
    def test_a_batch_of_symmetric_and_other_starts_equals_serial_runs(self, n):
        # the symmetric starts run alone on the symmetric kernel, and in the
        # batch on the general one
        generic, scaled, near, _ = lane_starts(toda_field, n, np.random.default_rng(70 + n))
        starts = [generic, nudged(generic, 1, 0), scaled, nudged(near, 0, 1)]
        cfg = IntegratorConfig(t_max=3.0, stop_field_norm=1e-7)
        lanes = integrate_many(toda_field, starts, cfg)
        for lane, x0 in zip(lanes, starts):
            assert_same_run(lane, integrate(toda_field, x0, cfg))
        for lane in lanes[::2]:
            assert all(is_symmetric(x) for x in lane.states)
        assert lanes[2].rejected_steps > 0


class TestThreads:
    def test_kernel_scratch_belongs_to_the_run(self):
        # two threads step the same cached kernels at once, switching every
        # microsecond so that each enters the other's kernel calls: sym_field
        # fiber starts and exactly symmetric toda_field starts, one at a time
        # (plain matrices) and as a batch (stacks); every run has the bits
        # of the same run done serially
        n = 8
        rng = np.random.default_rng(85)
        cfg = IntegratorConfig(t_max=0.5, stop_field_norm=1e-7)
        sym_starts = lane_starts(sym_field, n, rng)[:2]
        toda_starts = [random_symmetric_with_spectrum(default_spectrum(n), rng) for _ in range(2)]
        jobs = [(sym_field, [x0]) for x0 in sym_starts] + [(toda_field, [x0]) for x0 in toda_starts]
        jobs += [(sym_field, sym_starts), (toda_field, toda_starts)]
        serial = [integrate_many(field, starts, cfg) for field, starts in jobs]
        results = [[], []]

        def worker(out, order):
            for _ in range(3):
                for i in order:
                    out.append((i, integrate_many(*jobs[i], cfg)))

        orders = [range(len(jobs)), range(len(jobs) - 1, -1, -1)]
        threads = [threading.Thread(target=worker, args=args) for args in zip(results, orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(out) for out in results] == [3 * len(jobs)] * 2
        for i, runs in (pair for out in results for pair in out):
            for run, alone in zip(runs, serial[i]):
                assert_same_run(run, alone)


class TestHorizons:
    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("field", [toda_field, sym_field])
    def test_mixed_horizons_equal_serial_runs(self, field, n):
        starts = lane_starts(field, n, np.random.default_rng(60 + n))
        horizons = [0.25, 1.0, 0.5, 2.0] if field is toda_field else [0.1, 0.4, 0.2, 0.3]
        cfg = IntegratorConfig(stop_field_norm=1e-7)
        # the same start to two more horizons, one below the first step
        # size 1e-3, among the other lanes
        starts = starts + starts[:1] * 2
        horizons = horizons + [horizons[0] * 3.0, 4e-4]
        lanes = integrate_many(field, starts, cfg, horizons=horizons)
        for lane, x0, t_max in zip(lanes, starts, horizons):
            alone = integrate(field, x0, IntegratorConfig(t_max=t_max, stop_field_norm=1e-7))
            assert_same_run(lane, alone)
        assert math.isclose(lanes[0].final_time, horizons[0], rel_tol=1e-12)
        assert lanes[4].final_time > lanes[0].final_time
        assert math.isclose(lanes[5].final_time, 4e-4, rel_tol=1e-12)

    def test_a_horizon_below_the_smallest_step_leaves_the_other_lanes_alone(self):
        x0 = np.diag([2.0, 0.0, -2.0])
        x0[2, 1] = 0.1
        short, long = integrate_many(toda_field, [x0, x0], horizons=[1e-15, 1.0])
        assert short.times.tolist() == [0.0, 1e-15]
        assert_same_run(long, integrate(toda_field, x0, IntegratorConfig(t_max=1.0)))

    @pytest.mark.parametrize(
        "horizons, message",
        [
            ([1.0], "1 horizons for 2 starts"),
            ([1.0, 1.0, 1.0], "3 horizons for 2 starts"),
            ([1.0, 0.0], "positive and finite"),
            ([-1.0, 1.0], "positive and finite"),
            ([1.0, math.inf], "positive and finite"),
            ([math.nan, 1.0], "positive and finite"),
        ],
    )
    def test_bad_horizons_rejected_before_the_field_is_called(self, horizons, message):
        calls = []

        def counted(x):
            calls.append(x)
            return toda_field(x)

        with pytest.raises(ValueError, match=message):
            integrate_many(counted, [np.eye(2), -np.eye(2)], horizons=horizons)
        assert calls == []


def norm_and_corner(x):
    """Two per-state figures of a stack: the squared norm and entry (n, 1)."""
    return np.stack([np.sum(x * x, axis=(1, 2)), x[:, -1, 0]], axis=1)


def assert_same_lean_run(lean, full, f):
    """A lean run with the figures of the full run, and f on every state."""
    assert full.per_state is None
    assert_same_bits(lean.times, full.times[[0, -1]] if len(full.times) > 1 else full.times)
    assert len(lean.states) == min(2, len(full.states))
    assert_same_bits(lean.states[0], full.states[0])
    assert_same_bits(lean.final_state, full.final_state)
    assert lean.final_time == full.final_time
    for name in (
        "accepted_steps", "rejected_steps", "field_evals", "min_step", "max_step",
        "final_field_norm", "power_trace_drift",
    ):
        assert getattr(lean, name) == getattr(full, name), name
    assert_same_bits(lean.per_state, np.concatenate([f(state[None]) for state in full.states]))


class TestLeanRuns:
    @pytest.mark.parametrize("n", [3, 8, 12])
    @pytest.mark.parametrize("field", [toda_field, sym_field])
    def test_lean_lanes_keep_the_figures_of_full_runs(self, field, n):
        starts = lane_starts(field, n, np.random.default_rng(80 + n))
        h = default_spectrum(n)
        if field is toda_field:
            cfg = IntegratorConfig(t_max=30.0, max_step=stable_step_for_sorting(h), stop_field_norm=1e-9)
        else:
            cfg = IntegratorConfig(t_max=3.0, max_step=stable_step_for_symmetrization(h), stop_field_norm=1e-9)
        full = integrate_many(field, starts, cfg)
        lean = integrate_many(field, starts, cfg, per_state=norm_and_corner)
        for a, b in zip(lean, full):
            assert_same_lean_run(a, b, norm_and_corner)
        # runs that span several stacks of 64 states, and one with no step
        assert full[0].accepted_steps > 130
        assert lean[3].accepted_steps == 0 and len(lean[3].per_state) == 1

    def test_stack_boundaries(self):
        # a constant field takes unit steps after a short ramp, so the
        # horizons 55..66 give runs of about 60 to 72 states, 64 among them
        def constant(x):
            return np.ones_like(x)

        starts = [np.eye(3)] * 12
        horizons = [55.0 + k for k in range(12)]
        full = integrate_many(constant, starts, horizons=horizons)
        lean = integrate_many(constant, starts, horizons=horizons, per_state=norm_and_corner)
        for a, b in zip(lean, full):
            assert_same_lean_run(a, b, norm_and_corner)
        assert 64 in [len(run.states) for run in full]
        assert 65 in [len(run.states) for run in full]

    def test_underflowing_lean_lane_raises_with_its_partial_run(self):
        # entries grow at unit rate until they pass 0.5, where a wildly
        # oscillating field defeats the error estimate; the steps before
        # fill more than one stack of 64 states
        def ramp(x):
            return np.where(np.abs(x) > 0.5, 1e18 * np.sin(1e18 * x), 1.0)

        cfg = IntegratorConfig(max_step=0.005)
        with pytest.raises(StiffnessError) as full:
            integrate(ramp, np.zeros((2, 2)), cfg)
        with pytest.raises(StiffnessError) as lean:
            integrate_many(ramp, [np.zeros((2, 2))], cfg, per_state=norm_and_corner)
        assert str(lean.value) == str(full.value)
        assert_same_lean_run(lean.value.trajectory, full.value.trajectory, norm_and_corner)
        assert lean.value.trajectory.accepted_steps > 64


def frobenius_norm(f):
    flat = f.ravel()
    return math.sqrt(float(np.vecdot(flat, flat)))


def reference_integrate(field, x0, cfg):
    """One run written out with a plain one-matrix loop: ``generator_sum_step``,
    the RMS error ratio by ``np.mean`` and the PI controller with its
    constants spelled out (safety 0.9, exponents 0.17 and 0.04, growth in
    [0.2, 5], shrink 0.9 ratio^-0.2 in [0.2, 1], first step 1e-3)."""
    x = np.array(x0, dtype=float)
    fx = field(x)
    fnorm = frobenius_norm(fx)
    t, h, err_prev = 0.0, min(1e-3, cfg.max_step, cfg.t_max), 1e-4
    times, states, steps, rejected = [0.0], [x], [], 0
    while fnorm >= cfg.stop_field_norm and t < cfg.t_max * (1.0 - 1e-12):
        h = min(h, cfg.max_step, cfg.t_max - t)
        assert h >= 1e-14
        x5, err, k7 = generator_sum_step(field, x, h, fx)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x5))
        ratio = float(np.sqrt(np.mean((err / scale) ** 2)))
        if ratio <= 1.0:
            t += h
            x, fx, fnorm = x5, k7, frobenius_norm(k7)
            times.append(t)
            states.append(x)
            steps.append(h)
            factor = 0.9 * max(ratio, 1e-16) ** (-0.17) * err_prev ** 0.04
            h *= min(5.0, max(0.2, factor))
            err_prev = max(ratio, 1e-4)
        else:
            rejected += 1
            h *= min(1.0, max(0.2, 0.9 * ratio ** (-0.2)))
    w0 = isospectral_witness(states[0])
    return Trajectory(
        times, states, len(steps), rejected, fnorm,
        max(isospectral_witness(s).drift_from(w0) for s in states),
        min_step=min(steps, default=0.0),
        max_step=max(steps, default=0.0),
    )


class TestWholeRunBits:
    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("field", [toda_field, sym_field])
    def test_integrate_equals_reference_loop(self, field, n):
        # the generic start and the same scaled by 2, whose run rejects steps
        generic, scaled = lane_starts(field, n, np.random.default_rng(40 + n))[:2]
        t_max = 3.0 if field is toda_field else 1.0
        cfg = IntegratorConfig(t_max=t_max, stop_field_norm=1e-7)
        runs = [integrate(field, x0, cfg) for x0 in (generic, scaled)]
        for run, x0 in zip(runs, (generic, scaled)):
            assert_same_run(run, reference_integrate(field, x0, cfg))
        assert runs[0].accepted_steps > 10
        assert runs[1].rejected_steps > 0


class TestErrorRatios:
    @staticmethod
    def hex_list(values):
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    @pytest.mark.parametrize("lanes", [1, 5])
    def test_error_ratios_equal_mean_expression(self, lanes, n):
        # n^2 = 4 and 9 sit on either side of numpy's 8-entry pairwise
        # summation block, 49 and 144 well past it
        rng = np.random.default_rng(100 * lanes + n)
        shape = (lanes, n, n)
        x_old = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)
        x_new = x_old + 1e-6 * rng.standard_normal(shape)
        err = 1e-9 * rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 2, shape)
        special = rng.integers(0, 5, shape)
        for arr in (x_old, x_new, err):
            arr[special == 0] = 0.0
            arr[special == 1] = -0.0
            arr[special == 2] = 5e-324
        err[0, 0, 0] = -0.0
        x_old[0, 0, 0] = x_new[0, 0, 0] = -0.0
        for cfg in (IntegratorConfig(), IntegratorConfig(rel_tol=3e-7, abs_tol=1e-300)):
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x_old), np.abs(x_new))
            want = np.sqrt(np.mean((err / scale) ** 2, axis=(1, 2))).tolist()
            tols = np.full(shape, cfg.rel_tol), np.full(shape, cfg.abs_tol)
            old_abs, new_abs = np.abs(x_old), np.abs(x_new)
            got = _error_ratios(err, old_abs, new_abs, *tols, np.empty(shape))
            assert self.hex_list(got) == self.hex_list(want)
            # one (n, n) matrix, as a one-start run steps it
            for i in range(lanes):
                lane_tols = [tol[i] for tol in tols]
                got = _error_ratios(err[i], old_abs[i], new_abs[i], *lane_tols, np.empty((n, n)))
                assert self.hex_list(got) == self.hex_list(want[i:i + 1])
        zeros = np.zeros(shape)
        got = _error_ratios(-zeros, zeros, zeros, *tols, np.empty(shape))
        assert self.hex_list(got) == ["0x0.0p+0"] * lanes


@pytest.mark.parametrize("n", range(2, 13))
def test_outer_products_are_the_rounded_products(n):
    # the stage routine's one BLAS assumption: ndarray.dot of an (m, 1)
    # column with a (1, N) row, K = 1, into a view of a larger array, gives
    # each entry as np.multiply does, but for the sign of a zero; on the
    # stage weights and on random columns, for one matrix and a stack, with
    # rows holding zeros of both signs, subnormals, overflowing products,
    # inf and NaN. A (1, 1) column is a scalar to numpy, which may skip a
    # zero one (giving 0 for 0 * inf), so the one of the routine is nonzero.
    rng = np.random.default_rng(400 + n)
    assert flows_module._DP_COLUMNS[6].shape == (1, 1) and flows_module._DP_COLUMNS[6][0, 0] != 0.0
    for size in (n * n, 5 * n * n):
        row = rng.standard_normal((1, size)) * 10.0 ** rng.integers(-320, 300, (1, size))
        specials = rng.integers(0, 8, (1, size))
        row[specials == 0] = 0.0
        row[specials == 1] = -0.0
        row[specials == 2] = rng.integers(-9, 10, (specials == 2).sum()) * 5e-324
        row[specials == 3] = np.inf
        row[specials == 4] = -np.inf
        row[specials == 5] = np.nan
        columns = list(flows_module._DP_COLUMNS)
        for m in range(1, 8):
            column = rng.standard_normal((m, 1)) * 10.0 ** rng.integers(-300, 300, (m, 1))
            if m > 1:
                column[rng.integers(0, m)] = rng.choice([0.0, -0.0, 5e-324])
            columns.append(column)
        for column in columns:
            m = len(column)
            terms = np.full((7, size), 7.0)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got = column.dot(row, out=terms[7 - m:])
                want = np.multiply(column, row)
            assert got.base is terms and np.all(terms[:7 - m] == 7.0)
            assert np.array_equal(got, want, equal_nan=True)
            signed = (want != 0.0) & ~np.isnan(want)
            assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


@pytest.mark.parametrize("n", range(2, 13))
def test_crout_products_take_either_rank(n):
    # the plain Crout elimination's one BLAS assumption: ndarray.dot of a
    # column update's (n - c, c) slice with its (c,) column gives the bits
    # of np.matvec, which the stack elimination calls on the same slice of
    # each matrix of a (B, n, n) stack; the row updates call np.vecmat at
    # either rank. Checked on the slices of the elimination itself, for
    # special orthogonal matrices and for general ones of mixed scales.
    rng = np.random.default_rng(600 + n)
    matrices = [random_special_orthogonal(n, rng) for _ in range(20)] + [
        rng.standard_normal((n, n)) * 10.0 ** rng.integers(-4, 5, (n, n)) for _ in range(20)
    ]
    for k in matrices:
        flipped = k[::-1, ::-1].copy()
        low, upp = np.zeros((n, n)), np.eye(n)
        for c in range(n):
            lows, upps = np.array([2.0 * low, low, -low]), np.array([upp, upp, 0.5 * upp])
            column = low[c:, :c].dot(upp[:c, c])
            assert column.tobytes() == np.matvec(low[c:, :c], upp[:c, c]).tobytes()
            assert column.tobytes() == np.matvec(lows[:, c:, :c], upps[:, :c, c])[1].tobytes()
            low[c:, c] = flipped[c:, c] - column
            if c + 1 < n:
                row = np.vecmat(low[c, :c], upp[:c, c + 1:])
                lows[1] = low
                assert row.tobytes() == np.vecmat(lows[:, c, :c], upps[:, :c, c + 1:])[1].tobytes()
                upp[c, c + 1:] = (flipped[c, c + 1:] - row) / low[c, c]


@pytest.mark.parametrize("n", range(2, 13))
def test_field_norms_take_either_rank(n):
    # ndarray.dot of one flat matrix and np.vecdot of a stack's rows,
    # against the norm computed with a Python loop
    rng = np.random.default_rng(200 + n)
    f = rng.standard_normal((5, n, n)) * 10.0 ** rng.integers(-150, 150, (5, n, n))
    f[rng.random((5, n, n)) < 0.2] = -0.0
    want = [math.sqrt(math.fsum(float(v) ** 2 for v in m.ravel())) for m in f]
    stacked = _frobenius_norms(f)
    assert stacked == [_frobenius_norms(m)[0] for m in f]
    np.testing.assert_allclose(stacked, want, rtol=1e-13)


class TestStiffnessGuard:
    def test_step_underflow_returns_partial_trajectory(self):
        # a wildly oscillating right-hand side defeats the error estimate,
        # so the controller shrinks the step until the underflow guard fires
        def pathological(x):
            return 1e18 * np.sin(1e18 * x) + x
        with pytest.raises(StiffnessError) as err:
            integrate(pathological, np.eye(2), IntegratorConfig(t_max=1.0))
        assert err.value.trajectory is not None
        assert len(err.value.trajectory.states) >= 1


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=-1.0)

    def test_rejects_a_max_step_below_the_smallest_step(self):
        with pytest.raises(ValueError, match=r"max_step must be at least the smallest step 1e-14, got 1e-15"):
            IntegratorConfig(max_step=1e-15)
        assert IntegratorConfig(max_step=1e-14).max_step == 1e-14

    def test_trajectory_rejects_non_finite_states(self):
        with pytest.raises(ValueError, match="trajectory states must be finite"):
            Trajectory(
                times=[0.0, 1.0],
                states=(np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])),
                accepted_steps=1,
                rejected_steps=0,
                final_field_norm=1.0,
                power_trace_drift=0.0,
            )

    @pytest.mark.parametrize("bad", [0, 63, 64, 65, 129])
    def test_trajectory_rejects_a_non_finite_state_in_any_chunk(self, bad):
        # the check runs over stacks of 64 states; 64 and later sit past
        # the first of them
        states = [np.eye(3) * (1.0 + i) for i in range(130)]
        states[bad][2, 1] = np.inf if bad % 2 else np.nan
        with pytest.raises(ValueError, match="^trajectory states must be finite$"):
            Trajectory(
                times=np.arange(130.0),
                states=states,
                accepted_steps=129,
                rejected_steps=0,
                final_field_norm=1.0,
                power_trace_drift=0.0,
            )
        states[bad] = np.eye(3)
        assert len(Trajectory(np.arange(130.0), states, 129, 0, 1.0, 0.0).states) == 130

    @pytest.mark.parametrize("lean", [False, True])
    def test_a_run_whose_state_overflows_raises(self, lean):
        # the states grow by steps of about 1e305 until one overflows
        def huge(x):
            return np.full_like(x, 1e308)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^trajectory states must be finite$"):
                if lean:
                    integrate_many(huge, [np.eye(2)], per_state=norm_and_corner)
                else:
                    integrate(huge, np.eye(2))

    def test_field_evals_is_not_an_input(self):
        with pytest.raises(TypeError, match="field_evals"):
            Trajectory([0.0], [np.eye(2)], 0, 0, 0.0, 0.0, field_evals=7)

    def test_trajectory_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=[0.0, 0.0],
                states=(np.eye(2), np.eye(2)),
                accepted_steps=1,
                rejected_steps=0,
                final_field_norm=1.0,
                power_trace_drift=0.0,
            )

    def test_a_lane_built_run_walks_its_states_once(self, monkeypatch):
        # _Lane.fold checks them; the Trajectory it builds does not again
        walks = []

        def counting(states):
            walks.append(len(states))
            return _stacks(states)

        monkeypatch.setattr(flows_module, "_stacks", counting)
        start = random_symmetric_with_spectrum(default_spectrum(4), rng_from_seed(6))
        traj = integrate(toda_field, start, IntegratorConfig(t_max=5.0))
        assert len(traj.states) > 64
        assert walks == [len(traj.states)]
        assert type(traj.states) is tuple

    def test_rejected_overflowing_trial_steps_warn_nothing(self):
        # the first trial steps of this stiff start overflow in the error
        # ratio and the field norm; the rejection handles them
        start = np.array([[100.0, 1.0, 1.0], [0.0, 0.01, 1.0], [0.0, 0.0, -100.01]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(sym_field, start, IntegratorConfig(t_max=0.05))
        assert traj.rejected_steps > 0
        assert traj.final_time == pytest.approx(0.05)


def chunk_loop_drift(states):
    """The drift pass written as a loop over stacks of 64 states from
    state 1 on, against the witness of state 0."""
    reference = isospectral_witness(states[0])
    traces = np.array(reference.power_traces)
    scale = reference._drift_scale()
    drift = 0.0
    for i in range(1, len(states), 64):
        chunk = _power_traces(np.stack(states[i:i + 64]))
        drift = max(drift, _relative_drift(chunk, traces, scale))
    return drift


class TestStateWalk:
    @pytest.mark.parametrize("length", [1, 64, 65, 130])
    def test_yields_every_state_once_in_order(self, length):
        states = [np.full((3, 3), float(i)) for i in range(length)]
        stacks = list(_stacks(states))
        assert [len(stack) for stack in stacks] == [
            min(64, length - start) for start in range(0, length, 64)
        ]
        assert_same_bits(np.concatenate(stacks), np.stack(states))

    @pytest.mark.parametrize("length", [1, 64, 65, 130])
    def test_drift_equals_the_chunk_loop_bit_for_bit(self, length):
        # a constant field takes unit steps after a short ramp, so the
        # horizon length - 6 gives a run of length states; a stop norm
        # above the field's norm of 3 gives a run of the start alone
        def constant(x):
            return np.ones_like(x)

        stop = 10.0 if length == 1 else 1e-10
        cfg = IntegratorConfig(t_max=max(1.0, length - 6.0), stop_field_norm=stop)
        (full,) = integrate_many(constant, [np.eye(3)], cfg)
        (lean,) = integrate_many(constant, [np.eye(3)], cfg, per_state=norm_and_corner)
        assert len(full.states) == length
        drift = chunk_loop_drift(full.states)
        assert full.power_trace_drift.hex() == drift.hex()
        assert lean.power_trace_drift.hex() == drift.hex()
        assert (drift > 0.0) == (length > 1)
