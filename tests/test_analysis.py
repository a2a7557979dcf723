import math
import re
from dataclasses import replace

import numpy as np
import pytest

import toda_atlas.analysis
import toda_atlas.atlas
import toda_atlas.flows
import toda_atlas.sampling
from toda_atlas.analysis import (
    CheckReport,
    _by_point,
    _pushforward_residual,
    _pushforward_residuals,
    _raise_first,
    example4_frame_check,
    fiber_experiment,
    pushforward_check,
    pushforward_richardson,
    sl2_coords,
    sl2_cubic_model,
    sl2_matrix,
    sym_linearization_spectrum,
    unstable_manifold_experiments,
)
from toda_atlas.atlas import (
    BruhatClass,
    ChartCoords,
    FlagPoint,
    _chart_points,
    _frames,
    bruhat_classify,
    chart_domain_test,
    chart_flow_exact,
    chart_forward,
    chart_inverse,
    chart_linear_field,
    coords_from_frame,
    h_conjugate,
)
from toda_atlas.errors import ChartDomainError
from toda_atlas.factorizations import trailing_minors
from toda_atlas.flows import (
    IntegratorConfig,
    integrate,
    integrate_many,
    propagate,
    stable_step_for_sorting,
    sym_field,
    toda_field,
)
from toda_atlas.linalg_core import Spectrum
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
    _inverted_mask,
    _outside_mask,
    inversion_sets,
    profile_project,
    v_p_membership,
)

RNG = rng_from_seed(55)


def chart_point(w, h, rng, scale=1.0):
    return chart_inverse(random_chart_coords(w, h, rng, scale=scale))


class TestCheckReport:
    def test_pass_verdict_is_derived(self):
        report = CheckReport("x", 0.5, 1, 1.0)
        assert report.passed
        report = CheckReport("x", 2.0, 1, 1.0)
        assert not report.passed

    def test_verdict_is_not_an_input(self):
        with pytest.raises(TypeError, match="passed"):
            CheckReport("x", 2.0, 1, 1.0, passed=True)

    def test_nan_residual_fails(self):
        assert not CheckReport("x", math.nan, 1, 1.0).passed

    def test_numpy_inputs_are_stored_as_python_numbers(self):
        report = CheckReport("x", np.float64(0.5), np.int64(3), np.float32(1.0))
        assert type(report.max_residual) is float
        assert type(report.tolerance) is float
        assert type(report.samples) is int
        assert report.passed is True

    def test_omitted_details_are_empty(self):
        assert CheckReport("x", 0.5, 1, 1.0).details == {}


class TestPushforward:
    def test_two_by_two_tight(self):
        h = Spectrum((0.5, -0.5))
        w = Permutation.identity(2)
        lower = np.zeros((2, 2))
        lower[1, 0] = 0.8
        point = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
        report = pushforward_check(point, w, tol=1e-10)
        assert report.passed, report.max_residual

    def test_critical_point_is_exact(self):
        h = default_spectrum(3)
        w = Permutation((3, 1, 2))
        origin = FlagPoint(h_conjugate(h, w), h)
        report = pushforward_check(origin, w, tol=1e-10)
        assert report.passed

    def test_random_charts_n3_n4(self):
        for n in (3, 4):
            h = default_spectrum(n)
            for _ in range(10):
                w = Permutation(tuple(int(v) + 1 for v in RNG.permutation(n)))
                report = pushforward_check(chart_point(w, h, RNG), w)
                assert report.passed, (n, w.images, report.max_residual)

    def test_richardson_ratio_near_four(self):
        h = default_spectrum(3)
        w = Permutation((2, 3, 1))
        report = pushforward_richardson(chart_point(w, h, RNG, scale=0.8), w)
        assert report.passed, report.details

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_residuals_are_those_of_per_point_propagate(self, n):
        # the displacements run as one batch, each one behind as minus the
        # run ahead from -y (the sorting field is even); every residual,
        # the Richardson steps' too, keeps the bits of differencing the
        # chart through propagate, point by point
        rng = rng_from_seed(40 + n)
        h = default_spectrum(n)
        picks = [random_chart_coords(random_permutation(n, rng), h, rng) for _ in range(4)]
        picks += [random_chart_coords(picks[0].w, h, rng, scale=0.8)] * 2
        points, failures = _chart_points(picks, 0.0)
        assert failures == {}
        ws = [c.w for c in picks]
        steps = [1e-5] * 4 + [2e-3, 1e-3]
        residuals, failures = _pushforward_residuals(points, ws, steps)
        assert failures == {}
        for y, w, step, residual in zip(points, ws, steps, residuals):
            ahead, behind = (
                chart_forward(FlagPoint(propagate(toda_field, y.y, t), h), w).lower
                for t in (step, -step)
            )
            predicted = chart_linear_field(chart_forward(y, w))
            assert residual == float(np.linalg.norm((ahead - behind) / (2.0 * step) - predicted))


class TestPushforwardStepHalving:
    """DOMAIN_MINOR_TOL moved between a chart point's smallest trailing
    minor and its flowed points' makes the differencing step leave the
    chart; at n = 4 a flow of 1e-5 moves that minor by 1e-7 to 3e-6
    relative, far more than its roundoff."""

    STEP = 1e-5

    @pytest.fixture
    def case(self):
        rng = rng_from_seed(31)
        h = default_spectrum(4)
        w = random_permutation(4, rng)
        y = chart_point(w, h, rng)

        def smallest_minor(point):
            return float(np.min(np.abs(trailing_minors(_frames([point], [w])[0]))))

        def flowed_minor(step):
            return min(
                smallest_minor(FlagPoint(propagate(toda_field, y.y, t), h)) for t in (step, -step)
            )

        return y, w, smallest_minor(y), flowed_minor

    def test_a_halved_step_is_the_step_halved(self, case, monkeypatch):
        y, w, minor, flowed_minor = case
        full = _pushforward_residual(y, w, self.STEP)
        ahead, behind = flowed_minor(self.STEP), flowed_minor(self.STEP / 2)
        assert ahead < behind < minor
        monkeypatch.setattr(toda_atlas.atlas, "DOMAIN_MINOR_TOL", 0.5 * (ahead + behind))
        residuals, failures = _pushforward_residuals([y, y], [w, w], [self.STEP, self.STEP / 2])
        assert failures == {}
        assert residuals[0] == residuals[1] == _pushforward_residual(y, w, self.STEP / 2)
        assert residuals[0] != full

    def test_a_step_outside_after_three_halvings_is_refused(self, case, monkeypatch):
        y, w, minor, flowed_minor = case
        eighth = flowed_minor(self.STEP / 8)
        assert eighth < minor
        monkeypatch.setattr(toda_atlas.atlas, "DOMAIN_MINOR_TOL", 0.5 * (eighth + minor))
        residuals, failures = _pushforward_residuals([y], [w], [self.STEP])
        assert residuals == [None] and list(failures) == [0]
        with pytest.raises(ChartDomainError, match="even after 3 halvings$") as one_point:
            _pushforward_residual(y, w, self.STEP)
        assert str(failures[0]) == str(one_point.value)


def flowed_point(coords, t):
    """The flag point of coords flowed for time t by the graded QR."""
    points, failures = _chart_points([coords], t)
    assert not failures
    return points[0]


class TestGradedChartFlow:
    def test_matches_chart_inverse_of_exact_flow(self):
        rng = rng_from_seed(5)
        for n in (3, 4):
            h = default_spectrum(n)
            for _ in range(10):
                coords = random_chart_coords(random_permutation(n, rng), h, rng)
                np.testing.assert_allclose(
                    flowed_point(coords, 0.0).y, chart_inverse(coords).y, rtol=0, atol=1e-12
                )
                for t in (0.5, 1.0, 2.0):
                    np.testing.assert_allclose(
                        flowed_point(coords, t).y,
                        chart_inverse(chart_flow_exact(coords, t)).y,
                        rtol=0,
                        atol=1e-12,
                    )


class TestUnstableManifold:
    def test_identity_chart_all_stable(self):
        h = default_spectrum(3)
        report = unstable_manifold_experiments([Permutation.identity(3)], h)[0]
        assert report.passed
        assert report.details["escape"] is None
        assert all(
            info["direction"] == "forward" for info in report.details["pairs"].values()
        )

    def test_longest_chart_all_unstable(self):
        h = default_spectrum(3)
        report = unstable_manifold_experiments([Permutation.longest(3)], h)[0]
        assert report.passed
        assert all(
            info["direction"] == "backward" for info in report.details["pairs"].values()
        )
        assert report.details["escape"]["max_radius"] > report.details["escape"]["threshold"]

    def test_saddle_chart_classification(self):
        h = Spectrum((2.0, 0.0, -2.0))
        report = unstable_manifold_experiments([Permutation((2, 1, 3))], h)[0]
        assert report.passed
        pairs = report.details["pairs"]
        assert pairs["2,1"]["direction"] == "backward"
        assert pairs["3,1"]["direction"] == "forward"
        assert pairs["3,2"]["direction"] == "forward"

    def test_conclusions_stable_under_halving_eps(self):
        h = default_spectrum(3)
        w = Permutation((2, 1, 3))
        full = unstable_manifold_experiments([w], h, eps=1e-4)[0]
        halved = unstable_manifold_experiments([w], h, eps=5e-5)[0]
        assert full.passed == halved.passed

    def test_no_charts_give_no_reports(self):
        assert unstable_manifold_experiments([], default_spectrum(3)) == []


def serial_unstable_manifold_experiment(w, h, eps=1e-4):
    """The experiment with one integrate call per leg and per escape run."""
    dist_tol = 1e-7
    cfg = IntegratorConfig(
        rel_tol=1e-12,
        abs_tol=1e-13,
        max_step=min(0.5, stable_step_for_sorting(h)),
        t_max=60.0,
        stop_field_norm=1e-13,
    )
    sets = inversion_sets(w)
    target = h_conjugate(h, w)
    diag = np.diag(target)
    worst = 0.0
    per_pair = {}
    for sign, pairs in ((-1, sorted(sets.unstable)), (+1, sorted(sets.stable))):
        for i, j in pairs:
            gap = abs(diag[i - 1] - diag[j - 1])
            horizon = min(cfg.t_max, math.log(eps / (dist_tol / 5.0)) / gap)
            lower = np.zeros((h.n, h.n))
            lower[i - 1, j - 1] = eps
            start = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
            wanted = BruhatClass.IN_BRUHAT if sign < 0 else BruhatClass.IN_OPPOSITE
            classified = bruhat_classify(start, w, tol=eps * 1e-3)
            field = (lambda x: -toda_field(x)) if sign < 0 else toda_field
            traj = integrate(field, start.y, replace(cfg, t_max=horizon))
            dist = float(np.linalg.norm(traj.final_state - target))
            ok = classified is wanted and traj.final_field_norm < 1e-6
            worst = max(worst, dist if ok else math.inf)
            per_pair[f"{i},{j}"] = {
                "direction": "backward" if sign < 0 else "forward",
                "distance": dist,
                "field_norm": traj.final_field_norm,
                "classified": classified.value,
                "horizon": horizon,
            }
    escape = None
    if sets.unstable:
        m = len(sets.unstable)
        lower = np.zeros((h.n, h.n))
        for i, j in sets.unstable:
            lower[i - 1, j - 1] = eps / math.sqrt(m)
        start = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
        # the fastest unstable coordinate grows from eps / sqrt(m) past 100 eps
        g_max = max(abs(diag[i - 1] - diag[j - 1]) for i, j in sets.unstable)
        t_max = min(15.0, math.log(100.0 * math.sqrt(m)) / g_max)
        esc_cfg = IntegratorConfig(t_max=t_max, stop_field_norm=1e-13)
        traj = integrate(toda_field, start.y, esc_cfg)
        radius = max(float(np.linalg.norm(s - target)) for s in traj.states)
        escape = {"max_radius": radius, "threshold": 10.0 * eps}
        if radius <= 10.0 * eps:
            worst = math.inf
    samples = len(sets.stable) + len(sets.unstable) + (1 if escape else 0)
    return CheckReport(
        f"unstable_manifold.{'-'.join(map(str, w.images))}",
        worst,
        samples,
        dist_tol,
        {"eps": eps, "pairs": per_pair, "escape": escape},
    )


def drawn_charts(n, count, seed):
    rng = rng_from_seed(seed)
    return [random_permutation(n, rng) for _ in range(count)]


class TestUnstableManifoldBatch:
    @pytest.mark.parametrize(
        "charts",
        [list(Permutation.all(3)), drawn_charts(4, 4, seed=9)],
        ids=["n3_all", "n4_drawn"],
    )
    def test_equals_serial_runs(self, charts):
        h = default_spectrum(charts[0].n)
        batched = unstable_manifold_experiments(charts, h)
        serial = [serial_unstable_manifold_experiment(w, h) for w in charts]
        assert batched == serial
        assert [list(r.details["pairs"]) for r in batched] == [
            list(r.details["pairs"]) for r in serial
        ]

    def test_one_leg_batch_and_one_escape_batch(self, monkeypatch):
        calls = []

        def counting(field, starts, cfg, **kwargs):
            calls.append((len(starts), list(kwargs["horizons"])))
            return integrate_many(field, starts, cfg, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a run went through integrate")

        monkeypatch.setattr(toda_atlas.analysis, "integrate_many", counting)
        monkeypatch.setattr(toda_atlas.flows, "integrate", forbidden)
        charts = list(Permutation.all(3))
        h = default_spectrum(3)
        reports = unstable_manifold_experiments(charts, h)
        assert len(reports) == 6
        # the 18 legs in one batch (backward legs run forward from the
        # negated start), then 5 escape runs, each to its gap horizon
        assert [size for size, _ in calls] == [18, 5]
        (_, leg_horizons), (_, escape_horizons) = calls
        # each leg to ln(eps / coord_target) / gap of its own pair, in the
        # order of the per-chart loop: a chart's pairs as its report lists
        # them; at h = (2, 0, -2) the gaps are 2 and 4
        expected = []
        for w, report in zip(charts, reports):
            d = np.diag(h_conjugate(h, w))
            for pair in report.details["pairs"]:
                i, j = map(int, pair.split(","))
                expected.append(math.log(1e-4 / (1e-7 / 5.0)) / abs(d[i - 1] - d[j - 1]))
        assert leg_horizons == expected
        assert len(set(leg_horizons)) == 2
        # two charts with one unstable pair of gap 2, two with two pairs,
        # the largest of gap 4, and one with all three
        assert sorted(escape_horizons) == sorted(
            [math.log(100.0) / 2.0] * 2 + [math.log(100.0 * math.sqrt(2.0)) / 4.0] * 2
            + [math.log(100.0 * math.sqrt(3.0)) / 4.0]
        )

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_escape_runs_end_well_past_the_threshold(self, n):
        charts = list(Permutation.all(n)) if n <= 3 else drawn_charts(n, 4, seed=8)
        reports = unstable_manifold_experiments(charts, default_spectrum(n))
        escapes = [r.details["escape"] for r in reports if r.details["escape"]]
        assert len(escapes) == sum(w.inversion_count() > 0 for w in charts)
        for escape in escapes:
            assert escape["max_radius"] >= 5.0 * escape["threshold"]


class TestSuiteBatches:
    @staticmethod
    def record_calls(monkeypatch):
        calls = []

        def counting(field, starts, cfg, **kwargs):
            calls.append((len(starts), kwargs))
            return integrate_many(field, starts, cfg, **kwargs)

        monkeypatch.setattr(toda_atlas.analysis, "integrate_many", counting)
        return calls

    def test_sym_suite_makes_two_batches(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        reports = toda_atlas.analysis.sym_suite(3, 7)
        assert all(report.passed for report in reports)
        # a lean toda profile run of the 4 monotone starts, then one lean
        # sym batch of the same 4 starts and both fiber experiments' 5 + 5
        assert [size for size, _ in calls] == [4, 14]
        assert [kwargs.get("per_state") is not None for _, kwargs in calls] == [True, True]

    def test_sym_profile_verdict_reads_the_sym_field_lanes(self, monkeypatch):
        # feeding the skew part of entry (2, 1) into (3, 1) takes the
        # sym_field runs off the Hessenberg profile; the field still
        # vanishes on symmetric matrices, so each run reaches its stop
        def leaking(x):
            leak = np.zeros_like(x)
            leak[..., 2, 0] = 1e-3 * (x[..., 1, 0] - x[..., 0, 1])
            return sym_field(x) + leak

        verdicts, widths = [], []

        def swapping(field, starts, cfg, **kwargs):
            trajs = integrate_many(leaking if field is sym_field else field, starts, cfg, **kwargs)
            verdicts.append([bool(traj.per_state[:, -1].all()) for traj in trajs])
            widths.append({traj.per_state.shape[1] for traj in trajs})
            return trajs

        monkeypatch.setattr(toda_atlas.analysis, "integrate_many", swapping)
        reports = {r.name: r for r in toda_atlas.analysis.sym_suite(3, 7)}
        # the toda lanes keep the verdict alone, the sym lanes norm, leak
        # and verdict
        assert widths == [{1}, {3}]
        toda_verdicts, sym_verdicts = verdicts
        assert toda_verdicts == [True] * 4
        assert not any(sym_verdicts[:4])
        assert not reports["sym.profile_preservation"].passed
        assert reports["sym.profile_preservation"].samples == 8

    def test_toda_suite_runs_its_exact_flow_as_one_batch(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        reports = toda_atlas.analysis.toda_suite(3, 7)
        assert all(report.passed for report in reports)
        # the leg batch also has horizons and per-state rows; the exact flow
        # is the batch that keeps skew norms
        exact = [
            kwargs for _, kwargs in calls
            if getattr(kwargs.get("per_state"), "__name__", None) == "_skew_norms"
        ]
        assert len(exact) == 1
        assert list(exact[0]["horizons"]) == [0.5] * 3 + [1.0] * 3 + [2.0] * 3

    def test_toda_suite_keeps_states_only_for_the_escape_runs(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        reports = toda_atlas.analysis.toda_suite(3, 7)
        assert all(report.passed for report in reports)
        # the lean displacements, ahead and behind, of the 2 x 2 point and
        # of the ten pushforward points and the Richardson point's two
        # steps; the lean exact flow; the 18 legs, lean, in one batch; the
        # escape runs of the five charts with unstable pairs, which read
        # every state; the 10 attractor lanes, lean
        kinds = {"_skew_norms": "exact", "_no_rows": "lean", None: "full"}
        runs = [
            (size, kinds[getattr(kwargs.get("per_state"), "__name__", None)]) for size, kwargs in calls
        ]
        assert runs == [
            (2, "lean"), (24, "lean"), (9, "exact"), (18, "lean"), (5, "full"), (10, "lean")
        ]


class TestSymLinearization:
    def test_two_by_two_single_eigenvalue(self):
        report = sym_linearization_spectrum(Spectrum((1.0, -1.0)))
        assert report.passed
        nonzero = [v for v in report.details["eigenvalues"] if abs(v) > 1.0]
        assert len(nonzero) == 1
        assert nonzero[0] == pytest.approx(-8.0, rel=1e-5)

    def test_three_by_three_multiset(self):
        report = sym_linearization_spectrum(Spectrum((2.0, 0.0, -2.0)))
        assert report.passed
        assert report.details["expected_nonzero"] == [-32.0, -8.0, -8.0]
        assert report.details["kernel_dim"] == 3

    def test_four_by_four(self):
        report = sym_linearization_spectrum(Spectrum((3.0, 1.0, -1.0, -3.0)))
        assert report.passed
        assert report.details["kernel_dim"] == 6
        assert report.details["expected_nonzero"] == sorted(
            -2.0 * g * g for g in (2, 4, 6, 2, 4, 2)
        )


def per_column_eigenvalues(h):
    """Sorted real parts of the eigenvalues of the differenced Jacobian
    built one column, and two field calls, per off-diagonal entry."""
    n = h.n
    base = h.diag()
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    jac = np.zeros((len(pairs), len(pairs)))
    for col, (i, j) in enumerate(pairs):
        e = np.zeros((n, n))
        e[i - 1, j - 1] = 1.0
        der = (sym_field(base + 1e-5 * e) - sym_field(base - 1e-5 * e)) / 2e-5
        jac[:, col] = [der[a - 1, b - 1] for a, b in pairs]
    return np.sort(np.linalg.eigvals(jac).real)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_jacobian_equals_the_per_column_loop(n, monkeypatch):
    h = default_spectrum(n)
    expected = [float(v).hex() for v in per_column_eigenvalues(h)]
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return sym_field(x)

    monkeypatch.setattr(toda_atlas.analysis, "sym_field", counting)
    report = sym_linearization_spectrum(h)
    assert [v.hex() for v in report.details["eigenvalues"]] == expected
    assert calls == [(n * (n - 1), n, n)] * 2


class TestFiber:
    def test_zero_perturbation_is_stationary(self):
        h = default_spectrum(3)
        base = h_conjugate(h, Permutation((2, 3, 1)))
        traj = integrate(sym_field, base)
        assert len(traj.states) == 1

    def test_identity_chart_fiber(self):
        h = default_spectrum(3)
        report = fiber_experiment(
            Permutation.identity(3), h, samples=5, rng=rng_from_seed(5)
        )
        assert report.passed, report.max_residual
        assert report.details["lower_leak"] == 0.0

    def test_permuted_diagonal_fiber(self):
        h = default_spectrum(4)
        report = fiber_experiment(
            Permutation((3, 1, 4, 2)), h, samples=5, rng=rng_from_seed(6)
        )
        assert report.passed, report.max_residual


class TestFrameCheck:
    def test_sixteen_circle_points(self):
        report = example4_frame_check()
        assert report.passed, report.max_residual

    def test_frame_directions_at_axes(self):
        lam = 2.0
        # differenced Jacobian applied to the frame at the two axis points
        for point, expected in (
            (np.array([lam, 0.0, 0.0]), np.array([0.0, -lam * lam, lam * lam])),
            (np.array([0.0, lam, 0.0]), np.array([0.0, 0.0, lam * lam])),
        ):
            jac = np.zeros((3, 3))
            for col in range(3):
                e = np.zeros(3)
                e[col] = 1e-6
                jac[:, col] = (
                    sl2_cubic_model(point + e) - sl2_cubic_model(point - e)
                ) / 2e-6
            pushed = jac @ np.array([point[1], -point[0], lam])
            unit = expected / np.linalg.norm(expected)
            residual = np.linalg.norm(pushed - (pushed @ unit) * unit)
            assert residual < 1e-6 * np.linalg.norm(pushed)

    def test_cubic_model_matches_field_direction(self):
        for _ in range(20):
            v = RNG.uniform(-1.5, 1.5, 3)
            np.testing.assert_allclose(
                sl2_coords(sym_field(sl2_matrix(v))), 4.0 * sl2_cubic_model(v), atol=1e-12
            )


# ---------------------------------------------------------------------------
# The suites' stacked chart work against per-point loops

def per_point_atlas_suite(n, seed):
    """atlas_suite as one chart call per point: chart_inverse,
    chart_forward, chart_domain_test and coords_from_frame in a loop."""
    rng = rng_from_seed(seed)
    h = default_spectrum(n)
    charts = toda_atlas.analysis._charts_for(n, rng)
    reports = []

    round_worst = spectrum_worst = origin_worst = 0.0
    for w in charts:
        origin = chart_inverse(ChartCoords(w=w, lower=np.zeros((n, n)), h=h))
        origin_worst = max(origin_worst, float(np.linalg.norm(origin.y - h_conjugate(h, w))))
        for _ in range(10):
            coords = random_chart_coords(w, h, rng)
            point = chart_inverse(coords)
            eigs = np.linalg.eigvalsh(point.y)[::-1]
            spectrum_worst = max(spectrum_worst, float(np.max(np.abs(eigs - np.array(h.values)))))
            back = chart_forward(point, w)
            round_worst = max(round_worst, float(np.linalg.norm(back.lower - coords.lower)))
    reports.append(CheckReport("atlas.round_trip", round_worst, 10 * len(charts), 1e-9))
    reports.append(CheckReport("atlas.spectrum", spectrum_worst, 10 * len(charts), 1e-9))
    reports.append(CheckReport("atlas.origin", origin_worst, len(charts), 1e-12))

    cover_worst = 0.0
    accepted_fraction = []
    all_perms = Permutation.all(n) if n <= 4 else charts
    for _ in range(30):
        y = random_flag_point(h, rng)
        hits = sum(1 for w in all_perms if chart_domain_test(y, w))
        accepted_fraction.append(hits / len(all_perms))
        if hits == 0:
            cover_worst = math.inf
    reports.append(CheckReport(
        "atlas.cover", cover_worst, 30, 0.5,
        {"mean_accepting_fraction": float(np.mean(accepted_fraction))},
    ))

    sign_worst = 0.0
    for _ in range(10):
        w = charts[int(rng.integers(len(charts)))]
        coords = random_chart_coords(w, h, rng)
        frame = _frames([chart_inverse(coords)], [w])[0]
        reference = coords_from_frame(frame, w, h)
        signs = np.ones(n)
        signs[rng.choice(n, size=2, replace=False)] = -1.0
        twisted = coords_from_frame(frame * signs[None, :], w, h)
        sign_worst = max(sign_worst, float(np.linalg.norm(twisted.lower - reference.lower)))
    reports.append(CheckReport("atlas.sign_independence", sign_worst, 10, 1e-10))

    profile_worst = 0.0
    for _ in range(10):
        p = random_profile(n, rng)
        w = charts[int(rng.integers(len(charts)))]
        coords = random_chart_coords(w, h, rng)
        coords = ChartCoords(w=w, lower=profile_project(coords.lower, p), h=h)
        point = chart_inverse(coords)
        if not v_p_membership(point.y, p, 1e-9):
            profile_worst = math.inf
        outside = np.abs(chart_forward(point, w).lower[_outside_mask(p)])
        profile_worst = max(profile_worst, float(np.max(outside, initial=0.0)))
    reports.append(CheckReport("atlas.profile_compat", profile_worst, 10, 1e-9))
    return reports


def per_point_unstable_manifold_experiments(charts, h, eps=1e-4):
    """unstable_manifold_experiments with one chart_inverse and one
    bruhat_classify call per start, the runs batched as the suite does."""
    dist_tol = 1e-7
    cfg = IntegratorConfig(
        rel_tol=1e-12,
        abs_tol=1e-13,
        max_step=min(0.5, stable_step_for_sorting(h)),
        t_max=60.0,
        stop_field_norm=1e-13,
    )
    esc_cfg = IntegratorConfig(t_max=15.0, stop_field_norm=1e-13)
    targets = [h_conjugate(h, w) for w in charts]
    legs = [[] for _ in charts]
    batches = {}
    escapes = {}
    for k, w in enumerate(charts):
        sets = inversion_sets(w)
        diag = np.diag(targets[k])
        for sign, pairs in ((-1, sorted(sets.unstable)), (+1, sorted(sets.stable))):
            for i, j in pairs:
                gap = abs(diag[i - 1] - diag[j - 1])
                horizon = min(cfg.t_max, math.log(eps / (dist_tol / 5.0)) / gap)
                lower = np.zeros((h.n, h.n))
                lower[i - 1, j - 1] = eps
                start = chart_inverse(ChartCoords(w=w, lower=lower, h=h))
                classified = bruhat_classify(start, w, tol=eps * 1e-3)
                legs[k].append((f"{i},{j}", sign, horizon, classified))
                batches.setdefault(horizon, []).append(((k, f"{i},{j}"), sign * start.y))
        if sets.unstable:
            m = len(sets.unstable)
            lower = _inverted_mask(w.inverse()) * (eps / math.sqrt(m))
            g_max = max(abs(diag[i - 1] - diag[j - 1]) for i, j in sets.unstable)
            escapes[k] = (
                chart_inverse(ChartCoords(w=w, lower=lower, h=h)).y,
                min(esc_cfg.t_max, math.log(100.0 * math.sqrt(m)) / g_max),
            )
    ends = {}
    for horizon, members in batches.items():
        keys, starts = zip(*members)
        for key, traj in zip(keys, integrate_many(toda_field, starts, replace(cfg, t_max=horizon))):
            ends[key] = traj
    radii = {}
    if escapes:
        starts, horizons = zip(*escapes.values())
        for k, traj in zip(escapes, integrate_many(toda_field, starts, esc_cfg, horizons=horizons)):
            radii[k] = max(float(np.linalg.norm(x - targets[k])) for x in traj.states)
    reports = []
    for k, w in enumerate(charts):
        worst = 0.0
        per_pair = {}
        for pair, sign, horizon, classified in legs[k]:
            traj = ends[k, pair]
            distance = float(np.linalg.norm(traj.final_state - sign * targets[k]))
            wanted = BruhatClass.IN_BRUHAT if sign < 0 else BruhatClass.IN_OPPOSITE
            ok = classified is wanted and traj.final_field_norm < 1e-6
            worst = max(worst, distance if ok else math.inf)
            per_pair[pair] = {
                "direction": "backward" if sign < 0 else "forward",
                "distance": distance,
                "field_norm": traj.final_field_norm,
                "classified": classified.value,
                "horizon": horizon,
            }
        escape = None
        if k in radii:
            escape = {"max_radius": radii[k], "threshold": 10.0 * eps}
            if radii[k] <= 10.0 * eps:
                worst = math.inf
        reports.append(CheckReport(
            f"unstable_manifold.{'-'.join(map(str, w.images))}",
            worst,
            len(legs[k]) + (1 if escape else 0),
            dist_tol,
            {"eps": eps, "pairs": per_pair, "escape": escape},
        ))
    return reports


class TestStackedSuitesMatchPerPointLoops:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_atlas_suite(self, n, seed):
        assert toda_atlas.analysis.atlas_suite(n, seed) == per_point_atlas_suite(n, seed)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_atlas_suite_with_cover_points_outside_charts(self, n, monkeypatch):
        # every other cover sample becomes a permuted diagonal, which lies
        # in its own chart only; the draws from the rng stay the same
        draw = toda_atlas.sampling.random_symmetric_with_spectrum
        calls = []

        def some_on_a_weyl_point(h, rng):
            y = draw(h, rng)
            calls.append(1)
            if len(calls) % 2:
                return y
            return h_conjugate(h, Permutation(tuple(int(v) + 1 for v in np.argsort(np.diag(y)))))

        for module in (toda_atlas.analysis, toda_atlas.sampling):
            monkeypatch.setattr(module, "random_symmetric_with_spectrum", some_on_a_weyl_point)
        stacked = toda_atlas.analysis.atlas_suite(n, 7)
        calls.clear()
        per_point = per_point_atlas_suite(n, 7)
        assert stacked == per_point
        cover = next(r for r in stacked if r.name == "atlas.cover")
        assert cover.details["mean_accepting_fraction"] < 0.6

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_unstable_manifold_experiments(self, n, seed):
        charts = toda_atlas.analysis._charts_for(n, rng_from_seed(seed))[:4]
        h = default_spectrum(n)
        assert unstable_manifold_experiments(charts, h) == (
            per_point_unstable_manifold_experiments(charts, h)
        )

    def test_the_first_failure_in_loop_order_is_raised(self):
        late, early, tied = ValueError("late"), ChartDomainError("early"), ValueError("tied")
        _raise_first({}, {})
        with pytest.raises(ChartDomainError, match="^early$"):
            _raise_first({5: late}, {3: early})
        # at one point, the stage it passes through first
        with pytest.raises(ValueError, match="^tied$"):
            _raise_first({3: tied}, {3: early})
        # stack entries 2i and 2i + 1 belong to point i; a point keeps its first
        assert _by_point({4: late, 1: early, 5: tied}, [0, 0, 1, 1, 2, 2]) == {0: early, 2: late}

    def test_pushforward_residuals_of_a_stack_are_the_one_point_residuals(self):
        rng = rng_from_seed(31)
        h = default_spectrum(4)
        charts = [random_permutation(4, rng) for _ in range(5)]
        points = [chart_point(w, h, rng) for w in charts]
        steps = [1e-5, 2e-3, 1e-3, 1e-5, 4e-3]
        residuals, failures = _pushforward_residuals(points, charts, steps)
        assert failures == {}
        assert residuals == [
            _pushforward_residual(y, w, step) for y, w, step in zip(points, charts, steps)
        ]

    def test_pushforward_residuals_report_a_point_outside_its_chart(self):
        h = default_spectrum(3)
        w = Permutation.identity(3)
        inside = chart_point(w, h, rng_from_seed(5))
        outside = FlagPoint(h_conjugate(h, Permutation((2, 1, 3))), h)
        residuals, failures = _pushforward_residuals([inside, outside, inside], [w] * 3, [1e-5] * 3)
        assert list(failures) == [1]
        with pytest.raises(ChartDomainError) as one_point:
            _pushforward_residual(outside, w, 1e-5)
        assert type(failures[1]) is ChartDomainError
        assert str(failures[1]) == str(one_point.value)
        assert residuals[0] == residuals[2] == _pushforward_residual(inside, w, 1e-5)


class TestParameterChecks:
    # each public parameter is refused at its own boundary, with a
    # message that names it, before another function's check can fire

    @pytest.mark.parametrize("eps", [0.0, -1e-4, math.nan, math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        message = f"eps must be positive and finite, got {eps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unstable_manifold_experiments([Permutation((2, 1, 3))], default_spectrum(3), eps=eps)

    @pytest.mark.parametrize("eps", [1e-300, 1e-8, 2e-8])
    def test_eps_must_be_above_the_legs_target_distance(self, eps):
        # at or below 2e-8 no leg has a positive horizon
        message = f"eps must be above the legs' target distance 2e-08, got {eps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unstable_manifold_experiments([Permutation((2, 1, 3))], default_spectrum(3), eps=eps)

    def test_eps_just_above_the_legs_target_distance_runs(self):
        reports = unstable_manifold_experiments(
            [Permutation((2, 1, 3))], default_spectrum(3), eps=2.0000001e-8
        )
        assert len(reports) == 1

    @pytest.mark.parametrize("charts, n, message", [
        ([(2, 1, 3)], 4, "dimension mismatch: spectrum is 4, permutation is 3"),
        ([(2, 1, 3), (1, 2, 3, 4)], 3, "dimension mismatch: spectrum is 3, permutation is 4"),
    ])
    def test_unstable_manifold_charts_must_have_the_spectrum_size(self, charts, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unstable_manifold_experiments([Permutation(w) for w in charts], default_spectrum(n))

    @pytest.mark.parametrize("check", [pushforward_check, pushforward_richardson])
    def test_pushforward_point_and_chart_must_have_one_size(self, check):
        y = random_flag_point(default_spectrum(3), rng_from_seed(1))
        message = "dimension mismatch: point is 3, permutation is 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(y, Permutation((2, 1, 3, 4)))

    def test_a_spread_whose_step_cap_is_below_the_smallest_step_is_refused(self):
        # the cap 2.5 / (2 spread^2) falls below 1e-14 past a spread of
        # about 1.118e7; the refusal names the spread, not max_step
        h = Spectrum((1.1e7, 0.0, -1.1e7))
        message = (
            "spectrum spread 22000000.0 gives a symmetrization step cap "
            "2.5826446280991734e-15 below the smallest step 1e-14; "
            "the spread must be at most about 1.118e7"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fiber_experiment(Permutation((1, 2, 3)), h, 2, rng=rng_from_seed(1))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_must_be_at_least_one(self, samples):
        w, h = Permutation((2, 1, 3)), default_spectrum(3)
        with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
            fiber_experiment(w, h, samples=samples, rng=rng_from_seed(1))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 1e308])
    def test_scale_must_be_finite(self, scale):
        w, h = Permutation((2, 1, 3)), default_spectrum(3)
        message = f"scale must be finite, and so must 2 * scale, got {scale!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_chart_coords(w, h, rng_from_seed(1), scale=scale)
