import math

import numpy as np
import pytest

from toda_atlas.atlas import ChartCoords, chart_inverse, h_conjugate
from toda_atlas.errors import ConvergenceError, StiffnessError
from toda_atlas.flows import (
    _DP_A,
    _DP_B5,
    _DP_ERR,
    IntegratorConfig,
    Trajectory,
    chart_flow_exact,
    chart_linear_field,
    integrate,
    limit_point,
    propagate,
    stable_step_for_sorting,
    stable_step_for_symmetrization,
    sym_field,
    toda_field,
    _dopri_stages,
)
from toda_atlas.linalg_core import (
    Spectrum,
    btheta_norm_sq,
    commutator,
    isospectral_witness,
    pi_k,
    pi_u,
)
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_profile,
    random_symmetric_with_spectrum,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import Permutation, hessenberg_profile, profile_project, v_p_membership
from toda_atlas.analysis import sl2_coords, sl2_cubic_model, sl2_matrix

RNG = rng_from_seed(31)


def generator_sum_step(field, x, h, k1, stages=None):
    """A Dormand-Prince step written with ``sum`` over generators and a
    separate fifth-order sum: the form ``_dopri_stages`` must match bit
    for bit. Appends every stage input to ``stages`` when given."""
    k = [k1]
    for row in _DP_A[1:]:
        increment = sum(coeff * ki for coeff, ki in zip(row, k) if coeff != 0.0)
        stage = x + h * increment
        if stages is not None:
            stages.append(stage)
        k.append(field(stage))
    x5 = x + h * sum(b * ki for b, ki in zip(_DP_B5, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_DP_ERR, k) if e != 0.0)
    return x5, err, k[6]


def pre_fsal_propagate(field, x0, t, max_step=1e-3):
    """Fixed-step propagation that evaluates the field afresh at every step."""
    x = np.array(x0, dtype=float)
    steps = max(1, int(math.ceil(abs(t) / max_step)))
    h = t / steps
    for _ in range(steps):
        x, _, _ = generator_sum_step(field, x, h, field(x))
    return x


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def random_matrix(n, rng):
    x = rng.standard_normal((n, n))
    return x - np.trace(x) / n * np.eye(n)


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
            for x in (random_matrix(n, rng), random_symmetric_with_spectrum(default_spectrum(n), rng)):
                assert_same_bits(toda_field(x), commutator(x, pi_k(x)))


@pytest.mark.parametrize("field", [toda_field, sym_field])
def test_fields_validate_input(field):
    with pytest.raises(ValueError, match="square"):
        field(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2x2"):
        field(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        field(np.array([[1.0, np.inf], [0.0, -1.0]]))


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
            x = random_matrix(n, rng)
            assert_same_bits(sym_field(x), commutator(x, pi_u(commutator(x, x.T))))


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
        final = limit_point(toda_field, x0, IntegratorConfig(t_max=25.0))
        np.testing.assert_allclose(final, np.diag([1.0, -1.0]), atol=1e-8)

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

    def test_timeout_raises_with_trajectory(self):
        x0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            limit_point(toda_field, x0, IntegratorConfig(t_max=0.5))
        assert err.value.trajectory is not None
        assert err.value.trajectory.final_time == pytest.approx(0.5)

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

    def test_stage_sums_keep_the_bits_of_sum(self):
        # an all -0.0 entry must come out of a stage sum as +0.0, as sum() gives
        def field(x):
            return -np.abs(x)

        x = np.array([[-0.0, 1.0], [-0.5, -0.0]])
        expected_stages, got_stages = [], []

        def recording(x):
            got_stages.append(x.copy())
            return field(x)

        want = generator_sum_step(field, x, 1e-3, field(x), expected_stages)
        got = _dopri_stages(recording, x, 1e-3, field(x))
        assert len(got_stages) == len(expected_stages) == 6
        for a, b in zip(got_stages, expected_stages):
            assert_same_bits(a, b)
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    def test_propagate_equals_pre_fsal_loop(self):
        rng = np.random.default_rng(13)
        for n in (3, 5):
            x0 = random_symmetric_with_spectrum(default_spectrum(n), rng)
            upper = -np.triu(rng.standard_normal((n, n)), 1) + default_spectrum(n).diag()
            for field, start in ((toda_field, x0), (sym_field, upper), (toda_field, upper)):
                for t in (1e-3, -2.5e-3, 0.0137):
                    assert_same_bits(propagate(field, start, t), pre_fsal_propagate(field, start, t))

    def test_backward_propagation_inverts_forward(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        there = propagate(toda_field, x0, 0.2)
        back = propagate(toda_field, there, -0.2)
        np.testing.assert_allclose(back, x0, atol=1e-12)


class TestLimitPoint:
    def test_sym_limit_of_upper_triangular(self):
        x0 = np.diag([3.0, 1.0, -4.0]) + np.triu(RNG.standard_normal((3, 3)), 1)
        cfg = IntegratorConfig(t_max=40.0, max_step=0.025)
        final = limit_point(sym_field, x0, cfg)
        np.testing.assert_allclose(final, np.diag([3.0, 1.0, -4.0]), atol=1e-6)

    def test_toda_fixed_at_diagonal(self):
        h = np.diag([2.0, 0.0, -2.0])
        np.testing.assert_array_equal(limit_point(toda_field, h), h)

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
            norms = [btheta_norm_sq(s) for s in traj.states]
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
