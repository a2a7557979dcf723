import math
from dataclasses import replace

import numpy as np
import pytest

import toda_atlas.analysis
import toda_atlas.flows
from toda_atlas.analysis import (
    CheckReport,
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
    _chart_point,
    bruhat_classify,
    chart_flow_exact,
    chart_inverse,
    h_conjugate,
)
from toda_atlas.flows import (
    IntegratorConfig,
    integrate,
    integrate_many,
    stable_step_for_sorting,
    sym_field,
    toda_field,
)
from toda_atlas.linalg_core import Spectrum
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import Permutation, inversion_sets

RNG = rng_from_seed(55)


def chart_point(w, h, rng, scale=1.0):
    return chart_inverse(random_chart_coords(w, h, rng, scale=scale))


class TestCheckReport:
    def test_pass_verdict_is_derived(self):
        report = CheckReport.create("x", 0.5, 1, 1.0)
        assert report.passed
        report = CheckReport.create("x", 2.0, 1, 1.0)
        assert not report.passed

    def test_inconsistent_verdict_rejected(self):
        with pytest.raises(ValueError, match="verdict"):
            CheckReport("x", 2.0, 1, 1.0, True, {})


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


class TestGradedChartFlow:
    def test_matches_chart_inverse_of_exact_flow(self):
        rng = rng_from_seed(5)
        for n in (3, 4):
            h = default_spectrum(n)
            for _ in range(10):
                coords = random_chart_coords(random_permutation(n, rng), h, rng)
                np.testing.assert_allclose(
                    _chart_point(coords, 0.0).y, chart_inverse(coords).y, rtol=0, atol=1e-12
                )
                for t in (0.5, 1.0, 2.0):
                    np.testing.assert_allclose(
                        _chart_point(coords, t).y,
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
    return CheckReport.create(
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

    def test_four_leg_batches_and_one_escape_batch(self, monkeypatch):
        calls = []
        escape_horizons = []

        def counting(field, starts, cfg, **kwargs):
            calls.append(len(starts))
            if "horizons" in kwargs:
                escape_horizons.extend(kwargs["horizons"])
            return integrate_many(field, starts, cfg, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a run went through integrate")

        monkeypatch.setattr(toda_atlas.analysis, "integrate_many", counting)
        monkeypatch.setattr(toda_atlas.analysis, "integrate", forbidden)
        monkeypatch.setattr(toda_atlas.flows, "integrate", forbidden)
        reports = unstable_manifold_experiments(list(Permutation.all(3)), default_spectrum(3))
        assert len(reports) == 6
        # 18 legs in 2 horizon batches (backward legs run forward from
        # the negated start), then 5 escape runs, each to its gap horizon
        assert calls == [12, 6, 5]
        # at h = (2, 0, -2): two charts with one unstable pair of gap 2,
        # two with two pairs, the largest of gap 4, and one with all three
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

    def test_sym_suite_makes_three_batches(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        reports = toda_atlas.analysis.sym_suite(3, 7)
        assert all(report.passed for report in reports)
        # lean toda and sym profile runs, then one lean batch of the 4
        # monotone starts and both fiber experiments' 5 + 5 starts
        assert [size for size, _ in calls] == [4, 4, 14]
        assert [kwargs.get("per_state") is not None for _, kwargs in calls] == [True, True, True]

    def test_toda_suite_runs_its_exact_flow_as_one_batch(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        reports = toda_atlas.analysis.toda_suite(3, 7)
        assert all(report.passed for report in reports)
        exact = [kwargs for _, kwargs in calls if "per_state" in kwargs]
        assert len(exact) == 1
        assert list(exact[0]["horizons"]) == [0.5] * 3 + [1.0] * 3 + [2.0] * 3


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
