"""Verification harness tying the other modules together.

Each experiment returns a :class:`CheckReport` whose pass verdict is a
pure function of its measured residual and its fixed tolerance. The
suites at the bottom bundle experiments into the groups the command line
exposes; every suite is deterministic given a seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .atlas import (
    BruhatClass,
    ChartCoords,
    FlagPoint,
    _bruhat_classes,
    _chart_forwards,
    _chart_nbars,
    _chart_points,
    _flag_points,
    _linear_fields,
    _permuted_diagonals,
    chart_inverse,
    h_conjugate,
)
from .errors import ChartDomainError
from .factorizations import (
    CellStatus,
    chevalley_test,
    f_inverse,
    f_map,
    gs_embed,
    kan_factorize,
    phi,
    phi_sigma,
    phi_sigma_inverse,
    unbar_factorize,
)
from .flows import (
    _EXACT_TIME,
    IntegratorConfig,
    _frobenius_norms,
    _stacks,
    integrate_many,
    stable_step_for_sorting,
    stable_step_for_symmetrization,
    sym_field,
    toda_field,
)
from .linalg_core import Spectrum
from .sampling import (
    default_spectrum,
    random_chart_coords,
    random_permutation,
    random_profile,
    random_special_orthogonal,
    random_symmetric_with_spectrum,
    random_unit_lower,
    rng_from_seed,
)
from .weyl_profiles import (
    Permutation,
    _inverted_mask,
    _outside_mask,
    hessenberg_profile,
    inversion_sets,
    l_sigma_membership,
    perm_matrix,
    profile_project,
    v_p_membership,
)

__all__ = [
    "CheckReport",
    "pushforward_check",
    "pushforward_richardson",
    "unstable_manifold_experiments",
    "sym_linearization_spectrum",
    "fiber_experiment",
    "example4_frame_check",
    "sl2_matrix",
    "sl2_coords",
    "sl2_cubic_model",
    "factor_suite",
    "atlas_suite",
    "toda_suite",
    "sym_suite",
    "full_suite",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification experiment.

    The residual and tolerance are stored as floats and the sample count
    as an int; ``passed`` is ``max_residual < tolerance``, so a NaN
    residual fails.
    """

    name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool = field(init=False)
    details: "dict | None" = None

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", self.max_residual < self.tolerance)
        object.__setattr__(self, "details", self.details or {})


# ---------------------------------------------------------------------------
# 2x2 traceless coordinates (diagonal, symmetric, skew basis)

_SL2_E1 = np.array([[1.0, 0.0], [0.0, -1.0]])
_SL2_E2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_SL2_E3 = np.array([[0.0, -1.0], [1.0, 0.0]])


def sl2_matrix(v) -> np.ndarray:
    """2x2 traceless matrix with coordinates (x, y, z) in the basis above."""
    x, y, z = (float(c) for c in v)
    return x * _SL2_E1 + y * _SL2_E2 + z * _SL2_E3


def sl2_coords(m) -> np.ndarray:
    """Coordinates of a 2x2 traceless matrix in the basis above."""
    m = np.asarray(m, dtype=float)
    return np.array(
        [m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), 0.5 * (m[1, 0] - m[0, 1])]
    )


def sl2_cubic_model(v) -> np.ndarray:
    """Quarter-scale cubic model of the symmetrization field in sl2 coordinates.

    The coordinate expression of sym_field equals exactly four times this
    cubic; the model is kept at the quarter scale because every claim
    checked against it (stationary set, tangencies, frame directions) is
    insensitive to a positive constant.
    """
    x, y, z = (float(c) for c in v)
    return np.array(
        [
            -2.0 * z * x * (y + z),
            2.0 * z * x * x - 2.0 * z * z * y,
            -2.0 * z * x * x - 2.0 * z * y * y,
        ]
    )


# ---------------------------------------------------------------------------
# Chart linearization of the sorting flow

def _raise_first(*stages):
    """Raise the exception a per-point loop meets first.

    Each stage maps the loop index of a failing point to its exception,
    and stages come in the order a point passes through them: the
    smallest index fails first and, at a tie, the earlier stage. A stage
    may run on every point, as the kernels hand a refused point on in a
    form the next stage takes without a warning.
    """
    first = min(((i, k) for k, stage in enumerate(stages) for i in stage), default=None)
    if first is not None:
        raise stages[first[1]][first[0]]


def _by_point(failures, owners) -> dict:
    """The failures of a stack keyed by owners[i], the loop index of the
    point stack entry i belongs to, keeping each point's first."""
    out = {}
    for i in sorted(failures):
        out.setdefault(owners[i], failures[i])
    return out


def _pushforward_residuals(points, ws, fd_steps):
    """Frobenius gap between the differenced chart image of the flow and
    the linear chart field, at each point in its chart with its own
    differencing step; returns ``(residuals, failures)``, failures mapping
    a point's index to the exception ``_pushforward_residual`` raises.

    A step whose flowed points leave the chart is halved, at most three
    times. Every attempt of every point is one stack of chart work, and
    its displacements one lean batch of runs to an exact time. The
    sorting field is even, F(-X) = F(X), so the flow from y back by t is
    minus the flow from -y ahead by t, step for step: each point's run
    ahead starts from y, its run behind from -y.
    """
    lower, failures = _chart_forwards(points, ws)
    predicted = _linear_fields(lower, _permuted_diagonals([y.h for y in points], ws))
    steps = [float(step) for step in fd_steps]
    residuals = [None] * len(points)
    pending = [i for i in range(len(points)) if i not in failures]
    for _ in range(4):
        if not pending:
            break
        starts = [points[i].y for i in pending]
        runs = integrate_many(
            toda_field, starts + [-y for y in starts], _EXACT_TIME,
            horizons=[steps[i] for i in pending] * 2, per_state=_no_rows,
        )
        moved = np.array([
            x for ahead, back in zip(runs, runs[len(starts):])
            for x in (ahead.final_state, -back.final_state)
        ])
        pairs = [i for i in pending for _ in range(2)]
        flowed, flow_failures = _flag_points(moved, [points[i].h for i in pairs])
        flowed_lower, forward_failures = _chart_forwards(flowed, [ws[i] for i in pairs])
        halved = []
        for k, i in enumerate(pending):
            # ahead, then behind: each is a flag point, then its coordinates
            err = next((f[j] for j in (2 * k, 2 * k + 1)
                        for f in (flow_failures, forward_failures) if j in f), None)
            if err is None:
                differenced = (flowed_lower[2 * k] - flowed_lower[2 * k + 1]) / (2.0 * steps[i])
                residuals[i] = float(np.linalg.norm(differenced - predicted[i]))
            elif isinstance(err, ChartDomainError):
                steps[i] *= 0.5
                halved.append(i)
            else:
                failures[i] = err
        pending = halved
    for i in pending:
        failures[i] = ChartDomainError(
            f"flow exits the chart at {ws[i].images} within the differencing step "
            "even after 3 halvings"
        )
    return residuals, failures


def _pushforward_residual(y: FlagPoint, w: Permutation, fd_step: float) -> float:
    """The one-point case of :func:`_pushforward_residuals`."""
    residuals, failures = _pushforward_residuals([y], [w], [fd_step])
    _raise_first(failures)
    return residuals[0]


def pushforward_check(y: FlagPoint, w: Permutation, tol: float = 1e-6) -> CheckReport:
    """Check that the chart takes the sorting field to its linear model.

    Central differences along the integrated flow with step 1e-5, so the
    residual decays quadratically in the step until roundoff.
    """
    fd_step = 1e-5
    residual = _pushforward_residual(y, w, fd_step)
    return CheckReport(
        "pushforward",
        residual,
        1,
        tol,
        {"w": list(w.images), "fd_step": fd_step},
    )


def pushforward_richardson(y: FlagPoint, w: Permutation) -> CheckReport:
    """Second-order convergence of the differenced pushforward.

    The residual at step 2e-3 over the residual at step 1e-3 must sit in
    [3.5, 4.5]; reported as distance of the ratio from 4. The steps are
    large enough that the quadratic truncation error, not roundoff,
    dominates both residuals.
    """
    residuals, failures = _pushforward_residuals([y, y], [w, w], [2e-3, 1e-3])
    _raise_first(failures)
    return _richardson_report(*residuals, w)


def _richardson_report(coarse: float, fine: float, w: Permutation) -> CheckReport:
    ratio = coarse / fine if fine > 0.0 else math.inf
    return CheckReport(
        "pushforward_richardson",
        abs(ratio - 4.0),
        2,
        0.5,
        {"ratio": ratio, "coarse": coarse, "fine": fine, "w": list(w.images)},
    )


# ---------------------------------------------------------------------------
# Stable/unstable manifolds versus cells

def _no_rows(x) -> np.ndarray:
    """A zero-width row per state of a (k, n, n) stack: the ``per_state``
    of a lean run read only through its final state, final field norm
    and drift."""
    return np.empty((len(x), 0))


def _single_pair_coords(w, h, i, j, eps) -> ChartCoords:
    lower = np.zeros((h.n, h.n))
    lower[i - 1, j - 1] = eps
    return ChartCoords(w=w, lower=lower, h=h)


def unstable_manifold_experiments(charts, h: Spectrum, eps: float = 1e-4) -> list:
    """Check the cell picture of the saddle at each chart's permuted
    diagonal; returns one report per chart, in the order of charts.

    For every unstable pair, the backward flow from an eps-perturbation
    returns to the permuted diagonal; for every stable pair the forward
    flow does; a generic unstable perturbation escapes forward past ten
    times eps. Perturbed points must also classify into the matching
    cell by their coordinate support.

    Each convergence leg runs for a fixed horizon chosen from the pair's
    own diagonal gap. Transverse integration noise is amplified by the
    largest opposing gap while a leg lingers near the saddle, so a fixed
    horizon with a final field-norm sanity bound (1e-6) is the reliable
    stopping rule here; a tiny field-norm stop would never trigger. A
    leg passes when it ends within 1e-7 of the permuted diagonal.

    The escape run starts with each of the m unstable coordinates at
    eps / sqrt(m) and stops at the horizon min(15, ln(100 sqrt(m)) /
    g_max), g_max the largest unstable gap: by then the fastest unstable
    coordinate alone has grown past 100 eps. The report's
    ``escape.max_radius`` is the largest distance from the permuted
    diagonal up to that horizon.

    The sorting field is even, F(-X) = F(X), so a backward leg from y is
    minus the forward run from -y, step for step. The legs of all charts
    run forward, in loop order and each to its own horizon, as one lean
    :func:`integrate_many` batch (a leg reads only its final state and
    field norm), and the escape runs, each with its own horizon, as one
    more. Every lane has the bits of its run alone,
    so each report equals the one its chart's legs and escape give when
    integrated one at a time. Likewise the starts of every chart are one
    stack of chart points, and their Bruhat classes one stack of chart
    coordinates.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not charts:
        return []
    dist_tol = 1e-7
    field_tol = 1e-6
    coord_target = dist_tol / 5.0
    cfg = IntegratorConfig(
        rel_tol=1e-12,
        abs_tol=1e-13,
        max_step=min(0.5, stable_step_for_sorting(h)),
        t_max=60.0,
        stop_field_norm=1e-13,
    )
    esc_cfg = IntegratorConfig(t_max=15.0, stop_field_norm=1e-13)

    # legs[k] lists chart k's (pair, sign, horizon, start slot), unstable
    # pairs sorted, then stable pairs sorted. Every start is one chart
    # point of one stack, in the order of the per-point loop: each chart's
    # leg starts, then its escape start.
    diags = [_permuted_diagonals(h, w) for w in charts]
    targets = [np.diag(d) for d in diags]
    legs = [[] for _ in charts]
    coords = []
    escapes = {}
    for k, w in enumerate(charts):
        sets = inversion_sets(w)
        diag = diags[k]
        for sign, pairs in ((-1, sorted(sets.unstable)), (+1, sorted(sets.stable))):
            for i, j in pairs:
                gap = abs(diag[i - 1] - diag[j - 1])
                horizon = min(cfg.t_max, math.log(eps / coord_target) / gap)
                legs[k].append((f"{i},{j}", sign, horizon, len(coords)))
                coords.append(_single_pair_coords(w, h, i, j, eps))
        if sets.unstable:
            root_m = math.sqrt(len(sets.unstable))
            g_max = max(abs(diag[i - 1] - diag[j - 1]) for i, j in sets.unstable)
            lower = _inverted_mask(w.inverse()) * (eps / root_m)
            escapes[k] = (len(coords), min(esc_cfg.t_max, math.log(100.0 * root_m) / g_max))
            coords.append(ChartCoords(w=w, lower=lower, h=h))
    points, inverse_failures = _chart_points(coords, 0.0)
    slots = [leg[3] for chart_legs in legs for leg in chart_legs]
    ws = [coords[s].w for s in slots]
    lower, forward_failures = _chart_forwards([points[s] for s in slots], ws)
    _raise_first(inverse_failures, _by_point(forward_failures, slots))
    classified = dict(zip(slots, _bruhat_classes(lower, ws, eps * 1e-3)))

    runs = [(k, leg) for k, chart_legs in enumerate(legs) for leg in chart_legs]
    trajs = integrate_many(
        toda_field,
        [sign * points[slot].y for _, (_, sign, _, slot) in runs],
        cfg,
        horizons=[horizon for _, (_, _, horizon, _) in runs],
        per_state=_no_rows,
    )
    ends = {}
    for (k, (pair, sign, _, _)), traj in zip(runs, trajs):
        distance = float(np.linalg.norm(traj.final_state - sign * targets[k]))
        ends[k, pair] = (distance, traj.final_field_norm)
    radii = {}
    if escapes:
        slots, horizons = zip(*escapes.values())
        trajs = integrate_many(
            toda_field, [points[s].y for s in slots], esc_cfg, horizons=horizons
        )
        for k, traj in zip(escapes, trajs):
            radii[k] = max(max(_frobenius_norms(x - targets[k])) for x in _stacks(traj.states))

    reports = []
    for k, w in enumerate(charts):
        worst = 0.0
        per_pair = {}
        for pair, sign, horizon, slot in legs[k]:
            distance, field_norm = ends[k, pair]
            wanted = BruhatClass.IN_BRUHAT if sign < 0 else BruhatClass.IN_OPPOSITE
            ok = classified[slot] is wanted and field_norm < field_tol
            worst = max(worst, distance if ok else math.inf)
            per_pair[pair] = {
                "direction": "backward" if sign < 0 else "forward",
                "distance": distance,
                "field_norm": field_norm,
                "classified": classified[slot].value,
                "horizon": horizon,
            }
        escape = None
        if k in radii:
            escape = {"max_radius": radii[k], "threshold": 10.0 * eps}
            if radii[k] <= 10.0 * eps:
                worst = math.inf
        reports.append(
            CheckReport(
                f"unstable_manifold.{'-'.join(map(str, w.images))}",
                worst,
                len(legs[k]) + (1 if escape else 0),
                dist_tol,
                {"eps": eps, "pairs": per_pair, "escape": escape},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Linearization of the symmetrization field along its zero set

def sym_linearization_spectrum(h: Spectrum) -> CheckReport:
    """Eigenvalues of the differenced Jacobian of the symmetrization field.

    At diag(h), restricted to the off-diagonal directions, the nonzero
    eigenvalues must be -2 (h_i - h_j)^2 over pairs i < j, each once, and
    the kernel must have dimension n(n-1)/2. Central differences with
    step 1e-5; each eigenvalue must match within a relative 1e-5.
    """
    fd_step = 1e-5
    rel_tol = 1e-5
    n = h.n
    base = h.diag()
    # column c differences along the c-th off-diagonal entry, row-major
    off = ~np.eye(n, dtype=bool)
    dim = n * (n - 1)
    e = np.zeros((dim, n, n))
    e[(np.arange(dim),) + np.nonzero(off)] = 1.0
    der = (sym_field(base + fd_step * e) - sym_field(base - fd_step * e)) / (2.0 * fd_step)
    jac = der[:, off].T

    eigs = np.linalg.eigvals(jac)
    if np.max(np.abs(eigs.imag)) > 1e-6:
        return CheckReport(
            "sym_linearization_spectrum", math.inf, dim, rel_tol,
            {"error": "complex eigenvalues in the differenced Jacobian"},
        )
    eigs = np.sort(eigs.real)

    expected = sorted(
        -2.0 * (h.values[i] - h.values[j]) ** 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    cut = 0.5 * min(abs(v) for v in expected)
    nonzero = [v for v in eigs if abs(v) > cut]
    kernel_dim = dim - len(nonzero)

    details = {
        "eigenvalues": [float(v) for v in eigs],
        "expected_nonzero": expected,
        "kernel_dim": kernel_dim,
    }
    if kernel_dim != n * (n - 1) // 2 or len(nonzero) != len(expected):
        return CheckReport(
            "sym_linearization_spectrum", math.inf, dim, rel_tol, details
        )
    residual = max(
        abs(got - want) / abs(want) for got, want in zip(sorted(nonzero), expected)
    )
    return CheckReport(
        "sym_linearization_spectrum", residual, dim, rel_tol, details
    )


def _fiber_config(h: Spectrum) -> IntegratorConfig:
    """Symmetrization runs held at the field's stability cap for t <= 40."""
    return IntegratorConfig(t_max=40.0, max_step=stable_step_for_symmetrization(h))


def _norm_and_leak(x) -> np.ndarray:
    """Per state of a (k, n, n) stack: its squared Frobenius norm and its
    largest |strictly lower entry|, as a (k, 2) array."""
    return np.stack(
        [np.sum(x * x, axis=(1, 2)), np.max(np.abs(np.tril(x, -1)), axis=(1, 2))], axis=1
    )


def _fiber_starts(w: Permutation, h: Spectrum, samples: int, rng) -> tuple:
    """The permuted diagonal at w and that many standard normal strictly
    upper perturbations of it, drawn from rng."""
    base = h_conjugate(h, w)
    n = h.n
    return base, [base + np.triu(rng.standard_normal((n, n)), 1) for _ in range(samples)]


def _fiber_report(w: Permutation, base, trajs, cfg) -> CheckReport:
    """The fiber check of lean runs (per-state rows by ``_norm_and_leak``)
    from the perturbations of base."""
    worst = 0.0
    lower_leak = 0.0
    for traj in trajs:
        if traj.final_field_norm >= cfg.stop_field_norm:
            worst = math.inf
            continue
        worst = max(worst, float(np.linalg.norm(traj.final_state - base)))
        lower_leak = max(lower_leak, float(np.max(traj.per_state[:, 1])))
    if lower_leak > 1e-9:
        worst = math.inf
    return CheckReport(
        f"fiber.{'-'.join(map(str, w.images))}",
        worst,
        len(trajs),
        1e-6,
        {"lower_leak": lower_leak, "scale": 1.0},
    )


def fiber_experiment(
    w: Permutation,
    h: Spectrum,
    samples: int = 20,
    *,
    rng: np.random.Generator,
) -> CheckReport:
    """Strictly upper perturbations of a permuted diagonal flow back to it.

    The affine space of upper-triangular matrices over the permuted
    diagonal is a single fiber of the symmetrization flow, so every
    perturbed start must come back to the unperturbed diagonal within
    1e-6, staying upper triangular the whole way (machine-exact zeros
    below the diagonal are expected and checked at 1e-9). The
    perturbations are standard normal; the report keeps their scale, 1.0,
    in its details. The runs are lean: each keeps one row of figures per
    state, not the state.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    cfg = _fiber_config(h)
    base, starts = _fiber_starts(w, h, samples, rng)
    trajs = integrate_many(sym_field, starts, cfg, per_state=_norm_and_leak)
    return _fiber_report(w, base, trajs, cfg)


def example4_frame_check() -> CheckReport:
    """Vertical frame of the symmetrization fibration over the circle.

    Applying the differenced Jacobian of the cubic model at 16 evenly
    spaced circle points (x, y, 0) of radius 2 to the frame
    (y, -x, sqrt(x^2+y^2)) must give a vector collinear with
    (x y, -x^2, x^2 + y^2), within 1e-6 relative. Central differences
    with step 1e-6.
    """
    radius = 2.0
    samples = 16
    fd_step = 1e-6
    worst = 0.0
    per_point = []
    for theta in np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False):
        x, y = radius * math.cos(theta), radius * math.sin(theta)
        point = np.array([x, y, 0.0])
        jac = np.zeros((3, 3))
        for col in range(3):
            e = np.zeros(3)
            e[col] = fd_step
            jac[:, col] = (sl2_cubic_model(point + e) - sl2_cubic_model(point - e)) / (
                2.0 * fd_step
            )
        pushed = jac @ np.array([y, -x, math.hypot(x, y)])
        vertical = np.array([x * y, -x * x, x * x + y * y])
        unit = vertical / np.linalg.norm(vertical)
        residual = float(
            np.linalg.norm(pushed - (pushed @ unit) * unit) / np.linalg.norm(pushed)
        )
        worst = max(worst, residual)
        per_point.append(residual)
    return CheckReport(
        "example4_frame", worst, samples, 1e-6, {"radius": radius, "residuals": per_point}
    )


# ---------------------------------------------------------------------------
# Suites

def _charts_for(n: int, rng):
    """Every chart when there are at most 12, else 12 distinct random ones.

    Twelve keeps every chart at n <= 3 and bounds a suite's work at any
    n. Drawn one permutation at a time, so the cost does not grow as n!.
    """
    cap = 12
    if math.factorial(n) <= cap:
        return Permutation.all(n)
    picks = set()
    while len(picks) < cap:
        picks.add(tuple(int(v) + 1 for v in rng.permutation(n)))
    return [Permutation(p) for p in sorted(picks)]


def factor_suite(n: int = 3, seed: int = 0) -> list:
    rng = rng_from_seed(seed)
    reports = []

    worst = 0.0
    for _ in range(25):
        g = rng.standard_normal((n, n))
        det = np.linalg.det(g)
        if det < 0:
            g[:, 0] = -g[:, 0]
            det = -det
        g /= det ** (1.0 / n)
        fac = kan_factorize(g)
        worst = max(
            worst,
            float(np.linalg.norm(fac.k @ fac.a @ fac.n - g)),
            float(np.linalg.norm(fac.k.T @ fac.k - np.eye(n))),
            abs(float(np.prod(np.diag(fac.a))) - 1.0),
        )
    reports.append(CheckReport("factor.kan_recomposition", worst, 25, 1e-10))

    worst = 0.0
    for _ in range(25):
        k = random_special_orthogonal(n, rng)
        fac = unbar_factorize(k)
        worst = max(worst, float(np.linalg.norm(fac.u @ fac.nbar @ fac.m - k)))
    reports.append(CheckReport("factor.unbar_recomposition", worst, 25, 1e-10))

    worst = 0.0
    for _ in range(25):
        nbar = random_unit_lower(n, rng)
        k = f_inverse(nbar)
        worst = max(worst, float(np.linalg.norm(f_map(k) - nbar)))
        if chevalley_test(k.T).status is not CellStatus.IN_C:
            worst = math.inf
    reports.append(CheckReport("factor.f_round_trip_and_inverse_closure", worst, 25, 1e-10))

    worst = 0.0
    for _ in range(50):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        g = np.array([[1.0, 0.0, 0.0], [x, 1.0, 0.0], [y, z, 1.0]])
        n1 = math.sqrt(1.0 + x * x + y * y)
        n2 = math.sqrt(1.0 + z * z + (x * z - y) ** 2)
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [(x + y * z) / n2, 1.0, 0.0],
                [n2 * y / n1, (z + z * x * x - y * x) / n1, 1.0],
            ]
        )
        worst = max(worst, float(np.max(np.abs(phi(g) - expected))))
    reports.append(CheckReport("factor.phi_closed_form_3x3", worst, 50, 1e-10))

    worst = 0.0
    identity_worst = 0.0
    for _ in range(20):
        sigma = random_permutation(n, rng)
        # phi_sigma's domain: the lower pairs sigma^-1 does not invert
        allowed = np.tril(~_inverted_mask(sigma.inverse()), -1)
        g = np.eye(n) + allowed * rng.standard_normal((n, n))
        out = phi_sigma(sigma, g)
        if not l_sigma_membership(out, sigma, 1e-10):
            worst = math.inf
        back = phi_sigma_inverse(sigma, out)
        worst = max(worst, float(np.linalg.norm(back - g)))
        p = perm_matrix(sigma)
        conj = p.T @ gs_embed(g) @ p
        fac = unbar_factorize(conj)
        identity_worst = max(
            identity_worst, float(np.linalg.norm(fac.u @ out - conj))
        )
        if np.min(np.diag(fac.u)) <= 0.0:
            identity_worst = math.inf
    reports.append(CheckReport("factor.phi_sigma_round_trip", worst, 20, 1e-9))
    reports.append(CheckReport("factor.phi_sigma_defining_identity", identity_worst, 20, 1e-10))
    return reports


def atlas_suite(n: int = 3, seed: int = 0) -> list:
    """The chart checks. Each check draws all its random numbers first, in
    the order of a per-point loop, and then does its chart work as stacks;
    a failure raises what the per-point loop would raise first."""
    rng = rng_from_seed(seed)
    h = default_spectrum(n)
    charts = _charts_for(n, rng)
    reports = []

    # per chart, its origin and then 10 random coordinates
    coords = []
    for w in charts:
        coords.append(ChartCoords(w=w, lower=np.zeros((n, n)), h=h))
        coords.extend(random_chart_coords(w, h, rng) for _ in range(10))
    points, inverse_failures = _chart_points(coords, 0.0)
    drawn = [i for i in range(len(coords)) if i % 11]
    back, forward_failures = _chart_forwards(
        [points[i] for i in drawn], [coords[i].w for i in drawn]
    )
    _raise_first(inverse_failures, _by_point(forward_failures, drawn))
    eigs = np.linalg.eigvalsh(np.array([points[i].y for i in drawn]))[:, ::-1]
    spectrum_errors = np.max(np.abs(eigs - np.array(h.values)), axis=1).tolist()
    round_worst = 0.0
    spectrum_worst = 0.0
    origin_worst = 0.0
    for k, w in enumerate(charts):
        origin_worst = max(
            origin_worst, float(np.linalg.norm(points[11 * k].y - h_conjugate(h, w)))
        )
    for j, i in enumerate(drawn):
        spectrum_worst = max(spectrum_worst, spectrum_errors[j])
        round_worst = max(round_worst, float(np.linalg.norm(back[j] - coords[i].lower)))
    reports.append(
        CheckReport("atlas.round_trip", round_worst, 10 * len(charts), 1e-9)
    )
    reports.append(
        CheckReport("atlas.spectrum", spectrum_worst, 10 * len(charts), 1e-9)
    )
    reports.append(
        CheckReport("atlas.origin", origin_worst, len(charts), 1e-12)
    )

    # every point against every chart, as one stack
    cover_worst = 0.0
    all_perms = Permutation.all(n) if n <= 4 else charts
    samples = np.array([random_symmetric_with_spectrum(h, rng) for _ in range(30)])
    points, flag_failures = _flag_points(samples, [h] * 30)
    owners = [k for k in range(30) for _ in all_perms]
    _, outside = _chart_nbars([points[k] for k in owners], all_perms * 30)
    errors = {i: err for i, err in outside.items() if not isinstance(err, ChartDomainError)}
    _raise_first(flag_failures, _by_point(errors, owners))
    misses = np.bincount(np.array([owners[i] for i in outside], dtype=int), minlength=30)
    accepted_fraction = []
    for missed in misses.tolist():
        hits = len(all_perms) - missed
        accepted_fraction.append(hits / len(all_perms))
        if hits == 0:
            cover_worst = math.inf
    reports.append(
        CheckReport(
            "atlas.cover",
            cover_worst,
            30,
            0.5,
            {"mean_accepting_fraction": float(np.mean(accepted_fraction))},
        )
    )

    # each point's frame and the frame with two columns negated, as one stack
    picks = []
    for _ in range(10):
        w = charts[int(rng.integers(len(charts)))]
        coords = random_chart_coords(w, h, rng)
        signs = np.ones(n)
        signs[rng.choice(n, size=2, replace=False)] = -1.0
        picks.append((coords, signs))
    points, inverse_failures = _chart_points([c for c, _ in picks], 0.0)
    ws = [c.w for c, _ in picks]
    # negating two columns of the chart frame Q P_w^-1 negates the
    # matching columns of the point's frame Q
    twins = [
        FlagPoint._of(y.y, h, y.frame * signs[np.array(c.w.images) - 1])
        for y, (c, signs) in zip(points, picks)
    ]
    lower, forward_failures = _chart_forwards(points + twins, ws * 2)
    _raise_first(inverse_failures, _by_point(forward_failures, list(range(10)) * 2))
    sign_worst = max(float(np.linalg.norm(d)) for d in lower[10:] - lower[:10])
    reports.append(CheckReport("atlas.sign_independence", sign_worst, 10, 1e-10))

    picks = []
    for _ in range(10):
        p = random_profile(n, rng)
        w = charts[int(rng.integers(len(charts)))]
        coords = random_chart_coords(w, h, rng)
        picks.append((p, ChartCoords(w=w, lower=profile_project(coords.lower, p), h=h)))
    points, inverse_failures = _chart_points([c for _, c in picks], 0.0)
    back, forward_failures = _chart_forwards(points, [c.w for _, c in picks])
    _raise_first(inverse_failures, forward_failures)
    profile_worst = 0.0
    for (p, _), point, lower in zip(picks, points, back):
        if not v_p_membership(point.y, p, 1e-9):
            profile_worst = math.inf
        outside = np.abs(lower[_outside_mask(p)])
        profile_worst = max(profile_worst, float(np.max(outside, initial=0.0)))
    reports.append(CheckReport("atlas.profile_compat", profile_worst, 10, 1e-9))
    return reports


def _skew_norms(x) -> np.ndarray:
    """Frobenius norm of x - x^T for each state of a (k, n, n) stack."""
    return np.array(_frobenius_norms(x - x.swapaxes(1, 2)))


def toda_suite(n: int = 3, seed: int = 0) -> list:
    rng = rng_from_seed(seed)
    h = default_spectrum(n)
    charts = _charts_for(n, rng)
    reports = []

    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(-2.0, 2.0, 2)
        y = np.array([[a, b], [b, -a]])
        expected = np.array([[2 * b * b, -2 * a * b], [-2 * a * b, -2 * b * b]])
        worst = max(worst, float(np.max(np.abs(toda_field(y) - expected))))
    reports.append(CheckReport("toda.field_formula_2x2", worst, 50, 1e-12))

    h2 = Spectrum((0.5, -0.5))
    coords2 = ChartCoords(
        w=Permutation.identity(2), lower=np.array([[0.0, 0.0], [0.8, 0.0]]), h=h2
    )
    point2 = chart_inverse(coords2)
    residual2 = _pushforward_residual(point2, Permutation.identity(2), 1e-5)
    reports.append(CheckReport("toda.pushforward_2x2", residual2, 1, 1e-10))

    # ten pushforward points, then the Richardson point at two steps: their
    # chart work is one stack per stage
    picks = [random_chart_coords(charts[int(rng.integers(len(charts)))], h, rng) for _ in range(10)]
    picks.append(random_chart_coords(charts[0], h, rng, scale=0.8))
    points, inverse_failures = _chart_points(picks, 0.0)
    ws = [c.w for c in picks]
    residuals, failures = _pushforward_residuals(
        points + points[-1:], ws + ws[-1:], [1e-5] * 10 + [2e-3, 1e-3]
    )
    _raise_first(inverse_failures, _by_point(failures, list(range(11)) + [10]))
    reports.append(CheckReport("toda.pushforward", max([0.0] + residuals[:10]), 10, 1e-6))
    reports.append(_richardson_report(*residuals[10:], charts[0]))

    worst = 0.0
    drift_worst = 0.0
    symmetry_worst = 0.0
    picks = []
    for _ in range(3):
        w = charts[int(rng.integers(len(charts)))]
        picks.append(random_chart_coords(w, h, rng))
    points, failures = _chart_points(picks, 0.0)
    _raise_first(failures)
    # one lean lane per (t, pick), each run to its own t
    lanes = [(t, coords) for t in (0.5, 1.0, 2.0) for coords in picks]
    trajs = integrate_many(
        toda_field,
        [point.y for point in points] * 3,
        IntegratorConfig(stop_field_norm=1e-13),
        horizons=[t for t, _ in lanes],
        per_state=_skew_norms,
    )
    predicted, failures = _chart_points([coords for _, coords in lanes], [t for t, _ in lanes])
    _raise_first(failures)
    for point, traj in zip(predicted, trajs):
        worst = max(worst, float(np.linalg.norm(traj.final_state - point.y)))
        drift_worst = max(drift_worst, traj.power_trace_drift)
        symmetry_worst = max(symmetry_worst, float(np.max(traj.per_state)))
    reports.append(CheckReport("toda.exact_vs_integrated", worst, 9, 1e-7))
    reports.append(CheckReport("toda.isospectral_drift", drift_worst, 9, 1e-8))
    reports.append(CheckReport("toda.symmetry_preservation", symmetry_worst, 9, 1e-9))

    bookkeeping = 0.0
    for w in Permutation.all(n) if n <= 4 else charts:
        sets = inversion_sets(w)
        if len(sets.stable) + len(sets.unstable) != n * (n - 1) // 2:
            bookkeeping = math.inf
        if len(sets.unstable) != w.inversion_count():
            bookkeeping = math.inf
    reports.append(CheckReport("toda.dimension_bookkeeping", bookkeeping, 1, 0.5))

    experiment_charts = Permutation.all(n) if n <= 3 else charts[: min(4, len(charts))]
    reports.extend(unstable_manifold_experiments(experiment_charts, h))

    sort_cfg = IntegratorConfig(t_max=60.0, max_step=stable_step_for_sorting(h))
    target = h.diag()
    worst = 0.0
    drift_worst = 0.0
    starts = [random_symmetric_with_spectrum(h, rng) for _ in range(10)]
    for traj in integrate_many(toda_field, starts, sort_cfg, per_state=_no_rows):
        if traj.final_field_norm >= sort_cfg.stop_field_norm:
            worst = math.inf
            continue
        worst = max(worst, float(np.linalg.norm(traj.final_state - target)))
        drift_worst = max(drift_worst, traj.power_trace_drift)
    reports.append(CheckReport("toda.sorting_attractor", worst, 10, 1e-7))
    reports.append(CheckReport("toda.sorting_drift", drift_worst, 10, 1e-8))
    return reports


def sym_suite(n: int = 3, seed: int = 0) -> list:
    rng = rng_from_seed(seed)
    h = default_spectrum(n)
    reports = []

    worst = 0.0
    for _ in range(50):
        v = rng.uniform(-1.5, 1.5, 3)
        got = sl2_coords(sym_field(sl2_matrix(v)))
        worst = max(worst, float(np.max(np.abs(got - 4.0 * sl2_cubic_model(v)))))
    reports.append(CheckReport("sym.cubic_closed_form_2x2", worst, 50, 1e-12))

    worst = 0.0
    for _ in range(10):
        symmetric = random_symmetric_with_spectrum(h, rng)
        worst = max(worst, float(np.linalg.norm(sym_field(symmetric))))
        skew = rng.standard_normal((n, n))
        skew = skew - skew.T
        worst = max(worst, float(np.linalg.norm(sym_field(skew))))
        lopsided = symmetric + np.triu(rng.standard_normal((n, n)), 1)
        if np.linalg.norm(sym_field(lopsided)) < 1e-8:
            worst = math.inf
    reports.append(CheckReport("sym.normal_zero_set", worst, 30, 1e-12))

    p = hessenberg_profile(n)
    starts = []
    for _ in range(4):
        w = random_permutation(n, rng)
        u = np.eye(n) + 0.4 * np.triu(rng.standard_normal((n, n)), 1)
        symmetric_start = chart_inverse(
            ChartCoords(
                w=w,
                lower=profile_project(
                    np.tril(rng.uniform(-0.8, 0.8, (n, n)), -1), p
                ),
                h=h,
            )
        )
        starts.append(u @ symmetric_start.y @ np.linalg.inv(u))
    # each start runs once per field: to t = 3 under toda_field, with the
    # profile verdict as its one row, and under sym_field in one lean batch
    # with both fiber experiments' starts (drawn in the order of
    # fiber_experiment calls), whose rows add the verdict as their last
    def verdicts(x):
        return v_p_membership(x, p, 1e-9)[:, None]

    def rows(x):
        return np.column_stack([_norm_and_leak(x), verdicts(x)])

    profile_cfg = IntegratorConfig(t_max=3.0, stop_field_norm=1e-13)
    toda_trajs = integrate_many(toda_field, starts, profile_cfg, per_state=verdicts)
    identity = Permutation.identity(n)
    base, fiber_starts = _fiber_starts(identity, h, 5, rng)
    # a second identity would give a second report of the same name
    sigma = random_permutation(n, rng)
    while sigma == identity:
        sigma = random_permutation(n, rng)
    sigma_base, sigma_starts = _fiber_starts(sigma, h, 5, rng)
    fiber_cfg = _fiber_config(h)
    trajs = integrate_many(
        sym_field, starts + fiber_starts + sigma_starts, fiber_cfg, per_state=rows
    )
    split = len(starts) + len(fiber_starts)
    sym_trajs = trajs[:len(starts)]
    profile_runs = toda_trajs + sym_trajs
    profile_worst = 0.0 if all(traj.per_state[:, -1].all() for traj in profile_runs) else math.inf
    drift_worst = max([0.0] + [traj.power_trace_drift for traj in profile_runs])
    norm_increases = [np.max(np.diff(traj.per_state[:, 0]), initial=0.0) for traj in sym_trajs]
    monotone_worst = float(max([0.0] + norm_increases))
    reports.append(CheckReport("sym.profile_preservation", profile_worst, 8, 1e-9))
    reports.append(CheckReport("sym.norm_monotone", monotone_worst, 4, 1e-10))
    reports.append(CheckReport("sym.isospectral_drift", drift_worst, 8, 1e-8))
    reports.append(_fiber_report(identity, base, trajs[len(starts):split], fiber_cfg))
    reports.append(_fiber_report(sigma, sigma_base, trajs[split:], fiber_cfg))
    reports.append(sym_linearization_spectrum(h))
    reports.append(example4_frame_check())
    return reports


def full_suite(n: int = 3, seed: int = 0) -> list:
    reports = []
    reports.extend(factor_suite(n, seed))
    reports.extend(atlas_suite(n, seed))
    reports.extend(toda_suite(n, seed))
    reports.extend(sym_suite(n, seed))
    return reports
