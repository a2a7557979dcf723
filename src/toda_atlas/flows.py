"""Isospectral vector fields and a reference adaptive integrator.

Two fields are provided. The sorting field ``toda_field`` is the
commutator of a matrix with the skew projection of itself; restricted to
symmetric matrices it is the gradient-like flow whose charts (see
:mod:`toda_atlas.atlas`) make it exactly linear, with the permuted
diagonal gaps as coefficients. The symmetrization field ``sym_field``
contracts onto normal (for real spectra: symmetric) matrices while
preserving the spectrum and every Hessenberg-type subspace.

Integration uses an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth clamped to [0.2, 5.0], initial step
1e-3). No isospectral re-projection is ever applied: drift of the power
traces is measured and reported instead, so integrator defects stay
visible to the test suite.

Public functions validate their arguments; the private ``_`` kernels
they call per step do not. Each field runs ``as_matrix`` once and then
computes in the same order as the public ``commutator``/``pi_k``/``pi_u``
composition, so it returns the same bits. The integrator keeps the
arrays it hands to the field as states, so a field must not modify its
argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atlas import ChartCoords, h_conjugate
from .errors import ConvergenceError, StiffnessError
from .linalg_core import (
    Spectrum,
    _pi_k,
    _power_traces,
    _relative_drift,
    as_matrix,
    isospectral_witness,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "toda_field",
    "chart_linear_field",
    "chart_flow_exact",
    "sym_field",
    "integrate",
    "limit_point",
    "propagate",
    "stable_step_for_sorting",
    "stable_step_for_symmetrization",
]

_EXP_LIMIT = 700.0  # double-precision exponent range guard
_MIN_STEP = 1e-14
_INITIAL_STEP = 1e-3
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
# PI controller exponents for an order-5 propagating solution.
_PI_ALPHA = 0.17
_PI_BETA = 0.04

# Dormand-Prince 5(4) tableau. The seventh stage equals the field at the
# accepted state (FSAL), so each accepted step costs six fresh evaluations.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4
# (stage, coefficient) pairs of the nonzero weights, in stage order. The
# last row of _DP_A equals the nonzero weights of _DP_B5, so the seventh
# stage's input is the fifth-order solution itself.
_DP_ROWS = tuple(tuple((i, c) for i, c in enumerate(row) if c != 0.0) for row in _DP_A[1:])
_DP_ERR_TERMS = tuple((i, e) for i, e in enumerate(_DP_ERR) if e != 0.0)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1.0
    t_max: float = 50.0
    stop_field_norm: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "t_max", "stop_field_norm"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, with controller diagnostics."""

    times: np.ndarray
    states: tuple
    accepted_steps: int
    rejected_steps: int
    final_field_norm: float
    power_trace_drift: float
    # field evaluations, and the smallest and largest accepted step
    # (0.0 when no step was accepted)
    field_evals: int = 0
    min_step: float = 0.0
    max_step: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if len(times) != len(self.states):
            raise ValueError("times and states have different lengths")
        if len(times) == 0:
            raise ValueError("a trajectory holds at least its initial state")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not all(np.isfinite(state).all() for state in self.states):
            raise ValueError("trajectory states must be finite")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


# The embedded pair's real stability interval ends near -3.3; runs that
# must ride a contracting mode all the way to a tiny field norm need the
# step capped below (stability limit)/(fastest contraction rate), or the
# mode rattles at a noise floor instead of decaying.

def stable_step_for_sorting(h: Spectrum) -> float:
    """Step cap for sorting-flow runs: linear rates are the diagonal gaps."""
    spread = h.values[0] - h.values[-1]
    return min(1.0, 2.5 / spread)


def stable_step_for_symmetrization(h: Spectrum) -> float:
    """Step cap for symmetrization runs: rates are -2 gap^2."""
    spread = h.values[0] - h.values[-1]
    return min(1.0, 2.5 / (2.0 * spread * spread))


def toda_field(x) -> np.ndarray:
    """Sorting field [x, pi_k(x)]; vanishes on diagonal matrices."""
    x = as_matrix(x)
    k = _pi_k(x)
    return x @ k - k @ x


def sym_field(x) -> np.ndarray:
    """Symmetrization field [x, pi_u([x, x.T])]; vanishes exactly on
    normal matrices."""
    x = as_matrix(x)
    c = x @ x.T - x.T @ x
    u = c - _pi_k(c)
    return x @ u - u @ x


def chart_linear_field(c: ChartCoords) -> np.ndarray:
    """Linear chart dynamics: entry (i, j) scaled by the diagonal gap d_i - d_j."""
    d = np.diag(h_conjugate(c.h, c.w))
    gaps = d[:, None] - d[None, :]
    return np.tril(gaps * c.lower, -1)


def chart_flow_exact(c: ChartCoords, t: float) -> ChartCoords:
    """Closed-form flow of the linear chart dynamics for time t.

    Each strictly-lower entry is scaled by exp(gap * t). Raises
    OverflowError when an exponent would leave the double range.
    """
    t = float(t)
    d = np.diag(h_conjugate(c.h, c.w))
    gaps = np.tril(d[:, None] - d[None, :], -1)
    max_exponent = float(np.max(np.abs(gaps))) * abs(t)
    if max_exponent > _EXP_LIMIT:
        raise OverflowError(
            f"exponent {max_exponent:.1f} exceeds {_EXP_LIMIT:.0f}; shrink |t| or the gaps"
        )
    return ChartCoords(c.w, np.tril(np.exp(gaps * t) * c.lower, -1), c.h)


def _weighted_sum(terms, k):
    """sum(c * k[i] for i, c in terms), accumulated in place in the same order.

    ``sum`` starts from the integer 0, which turns an entry whose every
    term is -0.0 into +0.0; the closing ``+= 0.0`` does the same, so the
    result is bitwise that of ``sum``.
    """
    (i, c), *rest = terms
    acc = c * k[i]
    for i, c in rest:
        acc += c * k[i]
    acc += 0.0
    return acc


def _dopri_stages(field, x, h, k1):
    """One embedded step: returns (x5, error_estimate, k7) with
    k7 = field(x5), the next step's first stage (FSAL)."""
    k = [k1]
    for terms in _DP_ROWS:
        stage = x + h * _weighted_sum(terms, k)
        k.append(field(stage))
    err = h * _weighted_sum(_DP_ERR_TERMS, k)
    return stage, err, k[6]


def _error_ratio(err, x_old, x_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x_old), np.abs(x_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def integrate(field, x0, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run of x' = field(x) from x0.

    Stops when the field norm drops below ``cfg.stop_field_norm`` (an
    intrinsic residual for flows that approach critical manifolds
    exponentially) or when ``cfg.t_max`` is reached, whichever comes
    first. Raises StiffnessError with the partial trajectory attached if
    the step size underflows.
    """
    x = as_matrix(x0).copy()
    t = 0.0
    times = [0.0]
    states = [x]
    step_sizes = []
    reference = isospectral_witness(x)
    reference_traces = np.array(reference.power_traces)
    drift_scale = reference._drift_scale()
    drift = 0.0
    accepted = rejected = 0

    fx = field(x)
    field_evals = 1
    fnorm = float(np.linalg.norm(fx))

    def trajectory():
        return Trajectory(
            times, states, accepted, rejected, fnorm, drift,
            field_evals=field_evals,
            min_step=min(step_sizes, default=0.0),
            max_step=max(step_sizes, default=0.0),
        )

    h = min(_INITIAL_STEP, cfg.max_step, cfg.t_max)
    err_prev = 1e-4

    # rounding of the final clamped step can leave t one ulp short of
    # t_max; a leftover below this is the endpoint, not a stalled step
    t_end = cfg.t_max * (1.0 - 1e-12)
    while fnorm >= cfg.stop_field_norm and t < t_end:
        h = min(h, cfg.max_step, cfg.t_max - t)
        if h < _MIN_STEP:
            raise StiffnessError(
                f"step size underflowed ({h:.2e}) at t={t:.6g}",
                trajectory=trajectory(),
            )
        x_new, err, k_last = _dopri_stages(field, x, h, fx)
        field_evals += 6
        ratio = _error_ratio(err, x, x_new, cfg)
        if ratio <= 1.0:
            t += h
            x = x_new
            fx = k_last
            fnorm = float(np.linalg.norm(fx))
            times.append(t)
            states.append(x)
            step_sizes.append(h)
            drift = max(drift, _relative_drift(_power_traces(x), reference_traces, drift_scale))
            accepted += 1
            factor = _SAFETY * max(ratio, 1e-16) ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            h *= min(_GROW_MAX, max(_SHRINK_MIN, factor))
            err_prev = max(ratio, 1e-4)
        else:
            rejected += 1
            factor = _SAFETY * ratio ** (-0.2)
            h *= min(1.0, max(_SHRINK_MIN, factor))

    return trajectory()


def limit_point(field, x0, cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Integrate to the zero set of the field and return the final state.

    Raises ConvergenceError (with the trajectory attached) if t_max is hit
    before the field norm drops below the stop threshold. Structural
    sanity checks: a symmetrization limit must be symmetric; a sorting
    limit from a symmetric start must be diagonal.
    """
    x0 = as_matrix(x0)
    traj = integrate(field, x0, cfg)
    if traj.final_field_norm >= cfg.stop_field_norm:
        raise ConvergenceError(
            f"no convergence by t_max={cfg.t_max}: field norm is "
            f"{traj.final_field_norm:.3e} (stop at {cfg.stop_field_norm:.0e}); "
            f"{traj.accepted_steps} accepted / {traj.rejected_steps} rejected steps",
            trajectory=traj,
        )
    final = traj.final_state
    if field is sym_field and np.linalg.norm(final - final.T) > 1e-7:
        raise ConvergenceError("symmetrization limit is not symmetric", trajectory=traj)
    started_symmetric = np.linalg.norm(x0 - x0.T) < 1e-9
    if field is toda_field and started_symmetric:
        if np.linalg.norm(final - np.diag(np.diag(final))) > 1e-7:
            raise ConvergenceError("sorting limit is not diagonal", trajectory=traj)
    return final


def propagate(field, x0, t: float, max_step: float = 1e-3) -> np.ndarray:
    """Advance x0 by a (possibly negative) time t with fixed-size steps.

    Uses the fifth-order solution only; with |step| <= 1e-3 the local
    error sits far below roundoff for the smooth fields here. Meant for
    the tiny, exactly-timed displacements finite differencing needs.
    """
    x = as_matrix(x0).copy()
    if t == 0.0:
        return x
    steps = max(1, int(math.ceil(abs(t) / max_step)))
    h = t / steps
    k = field(x)
    for _ in range(steps):
        x, _, k = _dopri_stages(field, x, h, k)
    return x
