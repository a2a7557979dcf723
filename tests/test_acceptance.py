"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import math

import numpy as np

from toda_atlas.analysis import (
    example4_frame_check,
    fiber_experiment,
    pushforward_check,
    sl2_coords,
    sl2_cubic_model,
    sl2_matrix,
    sym_linearization_spectrum,
    unstable_manifold_experiments,
    _pushforward_residual,
)
from toda_atlas.atlas import (
    BruhatClass,
    ChartCoords,
    bruhat_classify,
    chart_flow_exact,
    chart_forward,
    chart_inverse,
)
from toda_atlas.factorizations import phi, phi_sigma
from toda_atlas.flows import (
    IntegratorConfig,
    integrate,
    integrate_many,
    stable_step_for_sorting,
    stable_step_for_symmetrization,
    sym_field,
    toda_field,
)
from toda_atlas.linalg_core import Spectrum
from toda_atlas.sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_profile,
    random_symmetric_with_spectrum,
    rng_from_seed,
)
from toda_atlas.weyl_profiles import (
    Permutation,
    hessenberg_profile,
    inversion_sets,
    lower_pairs,
    profile_project,
)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def embed_lower(x, y, z):
    return np.array([[1.0, 0.0, 0.0], [x, 1.0, 0.0], [y, z, 1.0]])


def single_coord(w, h, i, j, value):
    lower = np.zeros((h.n, h.n))
    lower[i - 1, j - 1] = value
    return ChartCoords(w=w, lower=lower, h=h)


def test_criterion_1_comparison_map_closed_forms():
    # unrestricted map on a 5 x 5 x 4 grid covering [-2, 2]^3
    worst = 0.0
    for x in np.linspace(-2, 2, 5):
        for y in np.linspace(-2, 2, 5):
            for z in np.linspace(-2, 2, 4):
                n1 = math.sqrt(1 + x * x + y * y)
                n2 = math.sqrt(1 + z * z + (x * z - y) ** 2)
                expected = embed_lower(
                    (x + y * z) / n2, n2 * y / n1, (z + z * x * x - y * x) / n1
                )
                got = phi(embed_lower(x, y, z))
                worst = max(worst, float(np.max(np.abs(got - expected))))
    ok = worst < 1e-10

    # pivoted map restricted to the subgroup with vanishing (2,1) entry;
    # closed form verified against the factorization identity
    # (conjugated frame) = (upper positive-diagonal) * (result)
    sigma = Permutation((2, 1, 3))
    worst_sigma = 0.0
    for y in np.linspace(-2, 2, 10):
        for z in np.linspace(-2, 2, 10):
            g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [y, z, 1.0]])
            n1 = math.sqrt(1 + y * y)
            n2 = math.sqrt(1 + y * y + z * z)
            got = phi_sigma(sigma, g)
            worst_sigma = max(
                worst_sigma,
                abs(got[1, 0]),
                abs(got[2, 0] - z / n1),
                abs(got[2, 1] - n2 * y / n1),
            )
    ok = ok and worst_sigma < 1e-10

    rejected = False
    try:
        phi_sigma(sigma, embed_lower(0.3, 0.1, 0.2))
    except ValueError:
        rejected = True
    ok = ok and rejected
    report(1, ok, f"grid residual {worst:.2e}, restricted {worst_sigma:.2e}, rejection {rejected}")


def test_criterion_2_two_by_two_chart_closed_form():
    w = Permutation.identity(2)
    worst = 0.0
    worst_round = 0.0
    for lam in (0.5, 1.0, 3.0):
        h = Spectrum((lam, -lam))
        for x in np.linspace(-10, 10, 21):
            coords = single_coord(w, h, 2, 1, float(x))
            point = chart_inverse(coords)
            denom = 1.0 + x * x / (4 * lam * lam)
            expected = (
                np.array([[lam - x * x / (4 * lam), x], [x, x * x / (4 * lam) - lam]])
                / denom
            )
            worst = max(worst, float(np.max(np.abs(point.y - expected))))
            back = chart_forward(point, w)
            worst_round = max(worst_round, abs(back.lower[1, 0] - x))
    ok = worst < 1e-11 and worst_round < 1e-9
    report(2, ok, f"matrix residual {worst:.2e}, round trip {worst_round:.2e}")


def test_criterion_3_two_by_two_linearization():
    h = Spectrum((0.5, -0.5))
    worst_push = 0.0
    for w in (Permutation.identity(2), Permutation((2, 1))):
        point = chart_inverse(single_coord(w, h, 2, 1, 0.8))
        check = pushforward_check(point, w, tol=1e-10)
        worst_push = max(worst_push, check.max_residual)
    ok = worst_push < 1e-10

    rng = rng_from_seed(3)
    worst_field = 0.0
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, 2)
        y = np.array([[a, b], [b, -a]])
        expected = np.array([[2 * b * b, -2 * a * b], [-2 * a * b, -2 * b * b]])
        worst_field = max(worst_field, float(np.max(np.abs(toda_field(y) - expected))))
    ok = ok and worst_field < 1e-12
    report(3, ok, f"pushforward {worst_push:.2e}, field formula {worst_field:.2e}")


def test_criterion_4_two_by_two_symmetrization():
    rng = rng_from_seed(4)
    # coordinate expression of the field is exactly four times the
    # quarter-scale cubic model, component by component
    worst = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        v = rng.uniform(-1.5, 1.5, 3)
        got = sl2_coords(sym_field(sl2_matrix(v)))
        model = sl2_cubic_model(v)
        worst = max(worst, float(np.max(np.abs(got - 4.0 * model))))
        for g, m in zip(got, model):
            if abs(m) > 1e-6:
                worst_ratio = max(worst_ratio, abs(g / m - 4.0))
    ok = worst < 1e-12 and worst_ratio < 1e-12

    frame = example4_frame_check()
    ok = ok and frame.passed

    # the plane of upper-triangular starts is flow-invariant
    worst_plane = 0.0
    for y0, z0 in ((2.0, 1.0), (1.5, -0.5)):
        x0 = sl2_matrix((0.0, y0, z0))
        lam = math.sqrt(y0 * y0 - z0 * z0)
        cfg = IntegratorConfig(
            t_max=20.0,
            max_step=stable_step_for_symmetrization(Spectrum((lam, -lam))),
            stop_field_norm=1e-300 + 1e-301,
        )
        traj = integrate(sym_field, x0, cfg)
        worst_plane = max(worst_plane, max(abs(sl2_coords(s)[0]) for s in traj.states))
    ok = ok and worst_plane < 1e-9
    report(
        4,
        ok,
        f"cubic {worst:.2e}, ratio {worst_ratio:.2e}, frame {frame.max_residual:.2e}, "
        f"plane leak {worst_plane:.2e}",
    )


def test_criterion_5_linearization_property_suite():
    rng = rng_from_seed(5)
    worst_push = 0.0
    for n in (3, 4, 5):
        h = default_spectrum(n)
        for _ in range(50):
            w = random_permutation(n, rng)
            point = chart_inverse(random_chart_coords(w, h, rng))
            worst_push = max(worst_push, _pushforward_residual(point, w, 1e-5))
    ok = worst_push < 1e-6

    worst_flow = 0.0
    for n in (3, 4):
        h = default_spectrum(n)
        for _ in range(3):
            w = random_permutation(n, rng)
            coords = random_chart_coords(w, h, rng)
            start = chart_inverse(coords)
            for t in (0.5, 1.0, 2.0):
                cfg = IntegratorConfig(t_max=t, stop_field_norm=1e-300 + 1e-301)
                traj = integrate(toda_field, start.y, cfg)
                predicted = chart_inverse(chart_flow_exact(coords, t))
                worst_flow = max(
                    worst_flow, float(np.linalg.norm(traj.final_state - predicted.y))
                )
    ok = ok and worst_flow < 1e-7
    report(5, ok, f"pushforward {worst_push:.2e} (150 samples), flow match {worst_flow:.2e}")


def test_criterion_6_cell_property_suite():
    rng = rng_from_seed(6)
    failures = []
    worst = 0.0

    h3 = default_spectrum(3)
    charts = list(Permutation.all(3))
    h4 = default_spectrum(4)
    charts4 = [random_permutation(4, rng) for _ in range(10)]
    for h, ws in ((h3, charts), (h4, charts4)):
        for w, rep in zip(ws, unstable_manifold_experiments(ws, h)):
            worst = max(worst, rep.max_residual)
            if not rep.passed:
                failures.append(tuple(w.images))
            # classification agrees with the combinatorial cell picture
            sets = inversion_sets(w)
            for i, j in sorted(sets.unstable | sets.stable):
                point = chart_inverse(single_coord(w, h, i, j, 1e-4))
                wanted = (
                    BruhatClass.IN_BRUHAT
                    if (i, j) in sets.unstable
                    else BruhatClass.IN_OPPOSITE
                )
                if bruhat_classify(point, w, 1e-7) is not wanted:
                    failures.append((tuple(w.images), (i, j)))

    bookkeeping_exact = all(
        len(inversion_sets(w).stable) + len(inversion_sets(w).unstable) == n * (n - 1) // 2
        and len(inversion_sets(w).unstable) == w.inversion_count()
        for n in (3, 4)
        for w in Permutation.all(n)
    )
    ok = not failures and bookkeeping_exact
    report(
        6,
        ok,
        f"16 experiments, worst distance {worst:.2e}, "
        f"bookkeeping exact {bookkeeping_exact}, failures {failures}",
    )


def test_criterion_7_isospectral_contraction_suite():
    rng = rng_from_seed(7)
    drift_worst = 0.0
    monotone_worst = 0.0
    profile_leak = 0.0

    for n in (4, 5):
        h = default_spectrum(n)
        profiles = [hessenberg_profile(n), random_profile(n, rng), random_profile(n, rng)]
        for p in profiles:
            lower = profile_project(np.tril(rng.uniform(-0.7, 0.7, (n, n)), -1), p)
            base = chart_inverse(
                ChartCoords(w=Permutation.identity(n), lower=lower, h=h)
            )
            u = np.eye(n) + 0.3 * np.triu(rng.standard_normal((n, n)), 1)
            x0 = u @ base.y @ np.linalg.inv(u)
            for field in (toda_field, sym_field):
                traj = integrate(
                    field, x0, IntegratorConfig(t_max=3.0, stop_field_norm=1e-300 + 1e-301)
                )
                drift_worst = max(drift_worst, traj.power_trace_drift)
                for state in traj.states:
                    for i, j in lower_pairs(n):
                        if (i, j) not in p.pairs:
                            profile_leak = max(profile_leak, abs(state[i - 1, j - 1]))

    h4 = default_spectrum(4)
    fiber = fiber_experiment(Permutation.identity(4), h4, samples=20, rng=rng_from_seed(70))
    # norm-square must not increase along symmetrization runs
    sym_cfg = IntegratorConfig(t_max=40.0, max_step=stable_step_for_symmetrization(h4))
    for _ in range(5):
        x0 = h4.diag() + np.triu(rng.standard_normal((4, 4)), 1)
        traj = integrate(sym_field, x0, sym_cfg)
        drift_worst = max(drift_worst, traj.power_trace_drift)
        norms = [float(np.sum(s * s)) for s in traj.states]
        for earlier, later in zip(norms, norms[1:]):
            monotone_worst = max(monotone_worst, later - earlier)

    spectrum_checks = [
        sym_linearization_spectrum(Spectrum((2.0, 0.0, -2.0))),
        sym_linearization_spectrum(Spectrum((3.0, 1.0, -1.0, -3.0))),
    ]
    ok = (
        drift_worst < 1e-8
        and monotone_worst < 1e-10
        and profile_leak < 1e-9
        and fiber.passed
        and all(c.passed for c in spectrum_checks)
    )
    report(
        7,
        ok,
        f"drift {drift_worst:.2e}, monotone slack {monotone_worst:.2e}, "
        f"profile leak {profile_leak:.2e}, fiber {fiber.max_residual:.2e}, "
        f"spectra {[f'{c.max_residual:.2e}' for c in spectrum_checks]}",
    )


def test_criterion_8_sorting_attractor():
    rng = rng_from_seed(8)
    h = Spectrum((3.0, 1.0, -1.0, -3.0))
    target = h.diag()
    cfg = IntegratorConfig(t_max=60.0, max_step=stable_step_for_sorting(h))
    worst = 0.0
    drift_worst = 0.0
    starts = [random_symmetric_with_spectrum(h, rng) for _ in range(100)]
    for traj in integrate_many(toda_field, starts, cfg):
        converged = traj.final_field_norm < cfg.stop_field_norm
        dist = float(np.linalg.norm(traj.final_state - target))
        worst = max(worst, dist if converged else math.inf)
        drift_worst = max(drift_worst, traj.power_trace_drift)
    ok = worst < 1e-7 and drift_worst < 1e-8
    report(8, ok, f"100 runs, worst distance {worst:.2e}, drift {drift_worst:.2e}")
