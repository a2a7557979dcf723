"""Isospectral vector fields and a reference adaptive integrator.

Two fields are provided. The sorting field ``toda_field`` is the
commutator of a matrix with the skew projection of itself; restricted to
symmetric matrices it is the gradient-like flow whose charts make it
exactly linear, with the permuted diagonal gaps as coefficients; that
linear chart flow lives with the charts, in :mod:`toda_atlas.atlas`.
The symmetrization field ``sym_field``
contracts onto normal (for real spectra: symmetric) matrices while
preserving the spectrum and every Hessenberg-type subspace. Both take an
``(..., n, n)`` stack of matrices as well as one matrix, and give each
matrix of a stack the bits it would get alone.

Integration uses an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9, growth clamped to [0.2, 5.0], initial step
1e-3). No isospectral re-projection is ever applied: drift of the power
traces is measured and reported instead, so integrator defects stay
visible to the test suite.

A step costs mostly numpy call overhead, so it makes few calls. The
weighted stage sums are running accumulators: once a stage is known, one
broadcast multiply and one in-place add put its weighted copies into the
sums of every later stage and of the error estimate. Starting from +0.0
and adding the terms in stage order is what ``sum`` over the terms does
from its start 0, so every stage keeps the bits of that sum, signed
zeros included. The error ratios are direct ufunc calls on one scratch
array with the bits of the RMS written with ``np.mean``.

``integrate_many`` steps B starts in lockstep over a ``(B, n, n)``
stack, one field call per stage for the whole batch. Each lane keeps its
own step size, PI state, stop test and counts, and leaves the stack when
it stops; control in Python floats and per-lane reductions give every
lane the bits of a run alone. One start of a field with a kernel is
stepped as its plain ``(n, n)`` matrix with a float step through the
same loop and the same stage routine: on a matrix the kernels multiply
with ``ndarray.dot``, on a stack with ``np.matmul``, which make the same
BLAS call at about half of ``@``'s cost, and the error ratio and field
norm take either rank. ``integrate`` is that one-start case, and
``propagate`` steps its matrix the same way. Every run's accepted
states pass once through one walk, ``_Lane.fold``, in the stacks of at
most 64 (start first) that ``_stacks`` yields: the
finiteness check and the power-trace drift are taken there. A lean run
(``per_state``) folds each stack as soon as it fills and keeps only a
caller's per-state figures of it; a full run keeps its states and folds
them when it ends.

Public functions validate their arguments; the private ``_`` kernels
they call per step do not. Each field validates once and returns the
bits of the public ``commutator``/``pi_k``/``pi_u`` composition, though
it takes its projection as one multiply by a constant of its size
(``_projection_weights``). ``toda_field`` takes pi_k(x) as L - L^T with
L = x * M, M being 1 strictly below the diagonal: for finite x, L holds
x_ij * 0 where ``pi_k``'s masked copy holds +0.0, so the two can differ
only in the sign of a zero. ``sym_field`` takes pi_u(c) as c * W, W
being 2 above the diagonal, 1 on it and 0 below, for c = x x^T - x^T x.
numpy computes that c exactly symmetric (``syrk`` and a mirrored
triangle, or one loop whose products and sums come in the same order
for c_ij and c_ji), so c_ij + c_ji = 2 c_ij exactly, and again only the
sign of a zero below the diagonal can differ. A matrix product adds its
products onto +0.0, where a signed zero changes nothing, so those zeros
never reach the field's bits. A stage that is not finite gives a field
that is not finite either way, and the integrator rejects that step. The
tests hold both kernels to the composition, and c to its symmetry, on
stacks, views, triangular matrices and signed zeros. The integrator
validates its starts and then steps the unchecked kernel of a field it
knows (looked up by identity); any other callable is called as given,
with stacks, (1, n, n) ones for a single start. The integrator keeps
the arrays it hands to the field as states, so a field must not modify
its argument.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessError
from .linalg_core import (
    Spectrum,
    _power_traces,
    _relative_drift,
    as_matrices,
    as_matrix,
    isospectral_witness,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "toda_field",
    "sym_field",
    "integrate",
    "integrate_many",
    "propagate",
    "stable_step_for_sorting",
    "stable_step_for_symmetrization",
]

_MIN_STEP = 1e-14
_INITIAL_STEP = 1e-3
_PROPAGATE_STEP = 1e-3  # largest fixed step of propagate
_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
# PI controller exponents for an order-5 propagating solution.
_PI_ALPHA = 0.17
_PI_BETA = 0.04
_DRIFT_CHUNK = 64  # states per stacked power-trace pass

# Dormand-Prince 5(4) tableau. Row s of _DP_A weights the stages before
# stage s in its input (stages counted from 0). The last row is the
# fifth-order weights, so the seventh stage is the field at the accepted
# state (FSAL) and each accepted step costs six fresh evaluations.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = _DP_A[6]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4
# Column j holds stage j's weight in every later stage's input (row s - 1
# for stage s) and in the error estimate (row 6). _DP_ROWS[ndim][j] is
# its part from row j down, shaped to broadcast over the (7, n, n)
# accumulators of one matrix (ndim 2) or the (7, B, n, n) ones of a stack.
_DP_WEIGHTS = np.vstack([_DP_A[1:], _DP_ERR])
_DP_ROWS = {
    ndim: [_DP_WEIGHTS[j:, j].reshape((7 - j,) + (1,) * ndim) for j in range(7)]
    for ndim in (2, 3)
}


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
    """Accepted states of one integration, with controller diagnostics.
    ``states`` is a tuple of (n, n) arrays, walked in stacks by ``_stacks``;
    ``power_trace_drift`` is the largest drift over every accepted state,
    even when only some of them are kept.

    A lean run of :func:`integrate_many` keeps only its start and final
    state (``times`` is then ``(0, t_final)``, or ``(0,)`` with no step)
    and holds in ``per_state`` the caller's values on every accepted
    state, start included; ``per_state`` is None for a full run."""

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
    per_state: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = self.states
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(states))
        if len(times) != len(self.states):
            raise ValueError("times and states have different lengths")
        if len(times) == 0:
            raise ValueError("a trajectory holds at least its initial state")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not isinstance(states, _Folded):
            for stack in _stacks(self.states):
                if not np.isfinite(stack).all():
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


@functools.lru_cache(maxsize=64)
def _projection_weights(n: int) -> tuple:
    """Read-only float weights ``(M, W)`` of the fields' projections of an
    n x n matrix: M is 1 strictly below the diagonal and 0 elsewhere, so
    ``L = x * M`` gives pi_k(x) = L - L^T; W = 1 - M + M^T is 2 above the
    diagonal, 1 on it and 0 below, so ``c * W`` is pi_u(c) of a symmetric c."""
    lower = np.tri(n, n, -1)
    weights = 1.0 - lower + lower.T
    lower.flags.writeable = weights.flags.writeable = False
    return lower, weights


def _product(x: np.ndarray):
    """The matrix product the field kernels use on x: ``ndarray.dot`` for
    one (n, n) matrix and ``np.matmul`` for a stack. Both make the same
    BLAS call (gemm, or syrk for x x^T and x^T x), so a matrix gets the
    same bits either way; ``dot`` costs about half of ``@``'s dispatch."""
    return np.ndarray.dot if x.ndim == 2 else np.matmul


def _toda_kernel(x: np.ndarray) -> np.ndarray:
    low = x * _projection_weights(x.shape[-1])[0]
    k = low - low.swapaxes(-1, -2)
    dot = _product(x)
    return dot(x, k) - dot(k, x)


def _sym_kernel(x: np.ndarray) -> np.ndarray:
    xt = x.swapaxes(-1, -2)
    dot = _product(x)
    c = dot(x, xt) - dot(xt, x)
    u = c * _projection_weights(x.shape[-1])[1]
    return dot(x, u) - dot(u, x)


def toda_field(x) -> np.ndarray:
    """Sorting field [x, pi_k(x)] of a matrix or an (..., n, n) stack;
    vanishes on diagonal matrices."""
    return _toda_kernel(as_matrices(x))


def sym_field(x) -> np.ndarray:
    """Symmetrization field [x, pi_u([x, x.T])] of a matrix or an
    (..., n, n) stack; vanishes exactly on normal matrices."""
    return _sym_kernel(as_matrices(x))


# The integrator steps these in place of the public fields. Looked up by
# identity: a wrapper of a field (a tracer's, say) is called as given.
_KERNELS = {toda_field: _toda_kernel, sym_field: _sym_kernel}


def _stepped(field, starts) -> tuple:
    """The callable a run steps and a fresh array of its starts: the plain
    (n, n) matrix for one start of a field with a kernel, else the
    (B, n, n) stack, so a caller's own field is always called with stacks."""
    kernel = _KERNELS.get(field)
    if kernel is not None and len(starts) == 1:
        return kernel, starts[0].copy()
    return kernel or field, np.stack(starts)


def _dopri_stages(field, x, h, k1):
    """One embedded step: returns (x5, error_estimate, k7) with
    k7 = field(x5), the next step's first stage (FSAL).

    x is one (n, n) matrix with a float step h, or a (B, n, n) stack with
    h a float or a (B, 1, 1) array of per-lane steps. Each weighted stage
    sum, and the error's, is a running accumulator: once stage j is known,
    its weighted copies are added into the accumulators of every later
    stage and of the error, so each adds its terms in stage order. The
    accumulators start at +0.0 (``t + 0.0`` is ``0.0 + t``), which is how
    ``sum`` adds the terms onto its start 0, so an entry whose every term
    is -0.0 comes out +0.0. A running sum that starts at +0.0 is never
    -0.0, so a zero weight's signed-zero term leaves it unchanged, and
    each weighted sum has the bits of ``sum`` over the nonzero terms, in
    every lane of a stack.
    """
    rows = _DP_ROWS[x.ndim]
    acc = rows[0] * k1
    acc += 0.0
    for s in range(1, 7):
        stage = x + h * acc[s - 1]
        k = field(stage)
        acc[s:] += rows[s] * k
    return stage, h * acc[6], k


def _error_ratios(err, x_old, x_new, cfg) -> list:
    """RMS of the error over its tolerance scale, as Python floats: one
    for an (n, n) matrix, one per lane for a stack.

    Works in one scratch array with direct ufunc calls and gives the bits
    of ``np.sqrt(np.mean((err / scale) ** 2, axis=(1, 2)))`` over the
    (B, n, n) stack with ``scale = abs_tol + rel_tol *
    np.maximum(np.abs(x_old), np.abs(x_new))``: the same elementwise
    operations, and ``np.mean``'s own sum over the last two axes divided
    by their size.
    """
    q = np.abs(x_old)
    np.maximum(q, np.abs(x_new), out=q)
    q *= cfg.rel_tol
    q += cfg.abs_tol
    np.divide(err, q, out=q)
    np.square(q, out=q)
    n = q.shape[-1]
    ms = np.add.reduce(q, axis=(-2, -1)) / (n * n)
    return np.sqrt(ms).tolist() if q.ndim == 3 else [math.sqrt(ms)]


def _frobenius_norms(f) -> list:
    """Frobenius norm of an (n, n) matrix or of each matrix of a stack, as
    a list of Python floats; ``ndarray.dot`` of one flat matrix and
    ``np.vecdot`` of each in a stack are the same BLAS ``ddot``."""
    if f.ndim == 2:
        flat = f.ravel()
        return [math.sqrt(flat.dot(flat))]
    flat = f.reshape(len(f), -1)
    return np.sqrt(np.vecdot(flat, flat)).tolist()


def _stacks(states):
    """The states of a run in order, as (k, n, n) stacks of at most
    _DRIFT_CHUNK states, so a pass over a long run needs little memory."""
    for i in range(0, len(states), _DRIFT_CHUNK):
        yield np.stack(states[i:i + _DRIFT_CHUNK])


class _Folded(tuple):
    """States a lane has checked in ``_Lane.fold``; a Trajectory built on
    them keeps them as a plain tuple and does not check them again."""


class _Lane:
    """One run of a lockstep batch: controller state and accepted states.

    ``fold`` is the one walk over a run's accepted states: over the states
    not yet folded, in ``_stacks`` stacks of at most 64 (start first), it
    checks they are finite and takes their power-trace drift against the
    start's. A lean lane (``per_state``) folds as soon as it holds 64
    states, keeps the caller's rows of them and drops them, so it keeps no
    times and at most one stack of states. A full lane keeps its states
    and folds them once, when the run ends: folding them during the run
    measured about 7 % slower per step in B = 1 sorting runs at n = 12."""

    def __init__(self, x0, fnorm, t_max, cfg, per_state, reference):
        self.t = 0.0
        self.t_max = t_max
        # rounding of the final clamped step can leave t one ulp short of
        # t_max; a leftover below this is the endpoint, not a stalled step
        self.t_end = t_max * (1.0 - 1e-12)
        self.h = min(_INITIAL_STEP, cfg.max_step, t_max)
        self.err_prev = 1e-4
        self.fnorm = fnorm
        self.times = [0.0]
        self.states = [x0]
        self.steps = []
        self.rejected = 0
        self.per_state = per_state
        self.start = self.last = x0
        self.ruler = np.array(reference.power_traces), reference._drift_scale()
        # the first stack holds the start, whose drift is exactly 0
        self.drift = 0.0
        self.values = []

    def fold(self):
        for stack in _stacks(self.states):
            if not np.isfinite(stack).all():
                raise ValueError("trajectory states must be finite")
            self.drift = max(self.drift, _relative_drift(_power_traces(stack), *self.ruler))
            if self.per_state is not None:
                self.values.append(self.per_state(stack))
        if self.per_state is not None and self.states:
            self.last, self.states = self.states[-1], []

    def trajectory(self) -> Trajectory:
        self.fold()
        if self.per_state is None:
            times, states, values = self.times, self.states, None
        else:
            times, states, values = [0.0], [self.start], np.concatenate(self.values)
            if self.steps:
                times.append(self.t)
                states.append(self.last)
        return Trajectory(
            times, _Folded(states), len(self.steps), self.rejected, self.fnorm, self.drift,
            field_evals=1 + 6 * (len(self.steps) + self.rejected),
            min_step=min(self.steps, default=0.0),
            max_step=max(self.steps, default=0.0),
            per_state=values,
        )


def integrate_many(
    field,
    starts,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    horizons=None,
    per_state=None,
) -> list:
    """Adaptive Dormand-Prince 5(4) runs of x' = field(x), one per start,
    stepped in lockstep; returns their trajectories in the order of starts.

    Each run stops when its field norm drops below
    ``cfg.stop_field_norm`` (an intrinsic residual for flows that
    approach critical manifolds exponentially) or when its horizon is
    reached, whichever comes first, and its trajectory has the bits of
    the run alone with ``t_max`` equal to that horizon. ``horizons``
    gives one horizon per start; without it every run has ``cfg.t_max``.
    The field is called once per stage with the (A, n, n) stack of the A
    runs still going. One start of ``toda_field`` or ``sym_field`` is
    stepped as its plain (n, n) matrix instead, through the same loop and
    stage routine and with the same bits; a field of the caller's own
    always gets stacks, (1, n, n) ones for one start.

    With ``per_state=f`` the runs are lean: f maps a (k, n, n) stack of
    states to an array of k rows, one per state, and each trajectory
    keeps only its start and final state, with f's rows over all its
    accepted states (start included) concatenated in ``per_state``.
    Every run, full or lean, takes its finiteness check and drift on
    stacks of at most 64 accepted states; a lean run takes them, and f's
    rows, as soon as each stack fills and then drops it, so every figure
    equals the full run's.

    Raises ValueError before any step, and before the field is called,
    for an empty list, starts of different shapes, a start that is not a
    finite square matrix or whose power-trace witness overflows (see
    :func:`isospectral_witness`), or horizons of the wrong count or not
    positive and finite; and
    StiffnessError, with that run's partial trajectory attached (lean if
    the run is), when a run's step size underflows.
    """
    starts = [as_matrix(x0) for x0 in starts]
    if not starts:
        raise ValueError("integrate_many needs at least one start")
    shapes = sorted({x0.shape for x0 in starts})
    if len(shapes) > 1:
        raise ValueError(f"starts have different shapes: {shapes}")
    if horizons is None:
        horizons = [cfg.t_max] * len(starts)
    else:
        horizons = [float(t_max) for t_max in horizons]
        if len(horizons) != len(starts):
            raise ValueError(f"{len(horizons)} horizons for {len(starts)} starts")
        for t_max in horizons:
            if not (t_max > 0.0 and math.isfinite(t_max)):
                raise ValueError(f"horizons must be positive and finite, got {t_max!r}")
    references = [isospectral_witness(x0) for x0 in starts]
    kernel, x = _stepped(field, starts)
    stack = x.ndim == 3
    fx = kernel(x)
    lanes = [
        _Lane(x0, fnorm, t_max, cfg, per_state, reference)
        for x0, fnorm, t_max, reference in zip(
            x if stack else [x], _frobenius_norms(fx), horizons, references
        )
    ]

    active = lanes
    # a trial step can overflow in its error ratio or field norm; the
    # step is then rejected, and an accepted non-finite state fails the
    # fold, so the whole loop runs without those warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            going = [
                i for i, lane in enumerate(active)
                if lane.fnorm >= cfg.stop_field_norm and lane.t < lane.t_end
            ]
            if not going:
                break
            if len(going) < len(active):
                active = [active[i] for i in going]
                x, fx = x[going], fx[going]
            for lane in active:
                lane.h = min(lane.h, cfg.max_step, lane.t_max - lane.t)
                if lane.h < _MIN_STEP:
                    raise StiffnessError(
                        f"step size underflowed ({lane.h:.2e}) at t={lane.t:.6g}",
                        trajectory=lane.trajectory(),
                    )
            h = np.array([lane.h for lane in active])[:, None, None] if stack else active[0].h
            x_new, err, k_last = _dopri_stages(kernel, x, h, fx)
            ratios = _error_ratios(err, x, x_new, cfg)
            took = [ratio <= 1.0 for ratio in ratios]
            if all(took):
                x, fx = x_new, k_last
            elif any(took):
                took = np.array(took)[:, None, None]
                x = np.where(took, x_new, x)
                fx = np.where(took, k_last, fx)
            for lane, ratio, fnorm, state in zip(
                active, ratios, _frobenius_norms(k_last), x_new if stack else [x_new]
            ):
                if ratio <= 1.0:
                    lane.t += lane.h
                    lane.fnorm = fnorm
                    # a row of a stack is copied out; one start's new state
                    # is an array of its own, which nothing writes to
                    lane.states.append(state.copy() if stack else state)
                    if lane.per_state is None:
                        lane.times.append(lane.t)
                    elif len(lane.states) == _DRIFT_CHUNK:
                        lane.fold()
                    lane.steps.append(lane.h)
                    factor = _SAFETY * max(ratio, 1e-16) ** (-_PI_ALPHA) * lane.err_prev ** _PI_BETA
                    lane.h *= min(_GROW_MAX, max(_SHRINK_MIN, factor))
                    lane.err_prev = max(ratio, 1e-4)
                else:
                    lane.rejected += 1
                    factor = _SAFETY * ratio ** (-0.2)
                    lane.h *= min(1.0, max(_SHRINK_MIN, factor))

    return [lane.trajectory() for lane in lanes]


def integrate(field, x0, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run of x' = field(x) from x0.

    Stops when the field norm drops below ``cfg.stop_field_norm`` or when
    ``cfg.t_max`` is reached, whichever comes first. Raises
    StiffnessError with the partial trajectory attached if the step size
    underflows. This is the one-start case of :func:`integrate_many`: it
    steps x0 as a plain (n, n) matrix for ``toda_field`` and
    ``sym_field``, and calls a field of the caller's own with (1, n, n)
    stacks.
    """
    return integrate_many(field, [x0], cfg)[0]


def propagate(field, x0, t: float) -> np.ndarray:
    """Advance x0 by a (possibly negative) time t with fixed-size steps.

    Uses the fifth-order solution only, in the fewest equal steps of size
    at most 1e-3 (_PROPAGATE_STEP); at that size the local error sits far
    below roundoff for the smooth fields here. Meant for the tiny,
    exactly-timed displacements finite differencing needs. Steps x0
    through :func:`integrate`'s stage routine, and as it does: as a plain
    (n, n) matrix for ``toda_field`` and ``sym_field``, as a (1, n, n)
    stack for a field of the caller's own.
    """
    x = as_matrix(x0)
    if t == 0.0:
        return x.copy()
    steps = max(1, int(math.ceil(abs(t) / _PROPAGATE_STEP)))
    h = t / steps
    kernel, x = _stepped(field, [x])
    k = kernel(x)
    for _ in range(steps):
        x, _, k = _dopri_stages(kernel, x, h, k)
    return x.reshape(x.shape[-2:])
