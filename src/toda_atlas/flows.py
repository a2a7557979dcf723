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

A step costs mostly numpy call overhead, so every call of the stage
routine is on operands of one shape, with no Python float to convert and
no size-1 operand to broadcast. An accepted step of one (n, n) matrix
makes 40 + 6K numpy calls, K being its kernel's: 58 for a symmetric
sorting run (K = 3), 70 for another sorting run (K = 5) and 82 for a
symmetrization run (K = 7). A stack of B lanes makes 6 more, and one copy
per lane of its new state; a caller's own field 5 more reshapes, besides
its own calls. The weighted stage sums are running accumulators: once a
stage is known, one BLAS outer product of its weight column with its
flat field and one in-place add put its weighted copies into the sums of
every later stage and of the error estimate. With K = 1 each entry of the
outer product is one rounded product, as ``np.multiply`` gives it, but
for the sign of a zero. Starting from +0.0 and adding the terms in stage
order is what ``sum`` over the terms does from its start 0, and a sum
started at +0.0 is never -0.0, so the sign of a zero term never shows:
every stage keeps the bits of that sum, signed zeros included. The step
is an array of x's shape, written once per step, and the tolerances are
arrays bound once per run. The error ratios are direct ufunc calls on
one scratch array with the bits of the RMS written with ``np.mean``; |x|
of the state comes from the step that accepted it. A run makes its work
arrays once (``_Work``: the step, the accumulators and their terms, the
stage array, the field scratch, the kernel's scratch for each of its
temporaries, the error scratch, the tolerances and the two |x|), and
again only when lanes leave its stack. They belong to the run, never to
the module or to the cached kernels, which hold only read-only weights:
a field may itself integrate, and two runs may step at once on different
threads. The last stage and its field stay new arrays, as they are kept
as the state and as the next first stage (FSAL).

``integrate_many`` steps B starts in lockstep over a ``(B, n, n)``
stack, one field call per stage for the whole batch. Each lane keeps its
own step size, PI state, stop test and counts, and leaves the stack when
it stops; control in Python floats and per-lane reductions give every
lane the bits of a run alone. One rank rule holds for every field: one
start is stepped as its plain ``(n, n)`` matrix, several as a
``(B, n, n)`` stack, through the same loop and the same stage routine.
On a matrix the kernels multiply with ``ndarray.dot``, on a stack with
``np.matmul``, which make the same BLAS call at about half of ``@``'s
cost, and the error ratio and field norm take either rank. ``integrate``
is that one-start case. ``_stepped`` binds a run's kernel once, with its
size's weights and its product, and the kernel writes the field of a
stage into the run's field scratch and its temporaries into the run's
kernel scratch. Every run's accepted states pass once through one walk,
``_Lane.fold``, in the stacks of at most 64 (start first) that
``_stacks`` yields: the finiteness check and the power-trace drift are
taken there. A lean run (``per_state``) folds each stack as soon as it
fills and keeps only a caller's per-state figures of it; a full run
keeps its states and folds them when it ends.

A run to an exact time has the config ``_EXACT_TIME`` and its time as
its horizon: its stop field norm is ``math.ulp(0.0)``, so it stops
before its horizon only where the norm of its field is 0. ``propagate``
is one such run, of the field or, backward, of the negated field; the
pushforward checks of :mod:`toda_atlas.analysis` take their
displacements as one batch of them.

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
stacks, views, triangular matrices and signed zeros.

A run of ``toda_field`` whose starts are all exactly symmetric
(``np.array_equal(x0, x0.T)``) steps a kernel of 3 calls in place of 5:
k = x * S, S being 1 below the diagonal and -1 above, p = x k, and
f = p + p^T. The bits are those of the general kernel as long as a
product forms each entry as one sequential sum started at +0.0, as
assumed above. On an exactly symmetric x, k is exactly skew, so each
term of (k x)_ij is minus the term of (x k)_ji in the same place and
k x is exactly -(x k)^T: x k - k x is x k + (x k)^T. Where x * S and
L - L^T differ, they differ in the sign of a zero, which never reaches
a sum. f is exactly symmetric, so every stage, state and field of the
run is too, and the one test of its starts holds for all of them. The
public ``toda_field``, and a run with a start that is not symmetric,
keep the general kernel.

The integrator validates its starts and then steps the unchecked kernel
of a field it knows (by identity); any other callable, a wrapper of one
of the two fields included, is called as given, under the same rank
rule: with the plain (n, n) matrix of one start and the (B, n, n) stack
of several. Such a field gets a new array at every call,
never a work array, and the integrator writes to none of the arrays it
hands to it or gets from it, so a field may keep its argument; it must
not modify it, since the integrator keeps those arrays as states.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import StiffnessError
from .linalg_core import (
    Spectrum,
    _dot,
    _finite,
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
# for stage s) and in the error estimate (row 6). _DP_COLUMNS[j] is its
# part from row j down as a (7 - j, 1) column: its outer product with the
# flat field of stage j gives that stage's terms in every sum.
_DP_WEIGHTS = np.vstack([_DP_A[1:], _DP_ERR])
_DP_COLUMNS = [_DP_WEIGHTS[j:, j:j + 1].copy() for j in range(7)]
_KERNEL_TEMPS = 6  # scratch arrays a field kernel may take (sym_field's six)
_FRESH = (None,) * _KERNEL_TEMPS  # no scratch: each temporary a new array


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
        if self.max_step < _MIN_STEP:
            raise ValueError(
                f"max_step must be at least the smallest step {_MIN_STEP:.0e}, "
                f"got {self.max_step!r}"
            )


# The config of a run to an exact time, which is given as its horizon: the
# run stops before it only where the norm of its field is 0.
_EXACT_TIME = IntegratorConfig(stop_field_norm=math.ulp(0.0))


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
    # the smallest and largest accepted step (0.0 when no step was accepted)
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
    def field_evals(self) -> int:
        """Field evaluations: one at the start, six per attempted step."""
        return 1 + 6 * (self.accepted_steps + self.rejected_steps)

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
    """Read-only float weights ``(M, W, S)`` of the fields' projections of
    an n x n matrix: M is 1 strictly below the diagonal and 0 elsewhere, so
    ``L = x * M`` gives pi_k(x) = L - L^T; W = 1 - M + M^T is 2 above the
    diagonal, 1 on it and 0 below, so ``c * W`` is pi_u(c) of a symmetric c;
    S = M - M^T is 1 below the diagonal and -1 above, so ``x * S`` is
    pi_k(x) of a symmetric x."""
    lower = np.tri(n, n, -1)
    weights = 1.0 - lower + lower.T
    signs = lower - lower.T
    for w in (lower, weights, signs):
        w.flags.writeable = False
    return lower, weights, signs


@functools.lru_cache(maxsize=64)
def _toda_kernel(n: int, plain: bool, symmetric: bool):
    """The unchecked kernel ``f(x, out=None, tmp=_FRESH)`` of ``toda_field``
    on n x n matrices, its weights and product bound; ``out`` takes the
    field and ``tmp`` holds scratch arrays of x's shape for its temporaries
    (L, k and the two products; p alone for the symmetric kernel), or None
    for new ones. With ``symmetric`` it is the kernel of an exactly
    symmetric x: 3 calls in place of 5, with the same bits (see the module
    docstring). The kernel holds no array of its own, so runs on other
    threads can share it."""
    lower, _, signs = _projection_weights(n)
    dot = _dot(plain)
    if symmetric:
        def kernel(x, out=None, tmp=_FRESH):
            p = dot(x, np.multiply(x, signs, out), tmp[0])
            return np.add(p, p.mT, out)
    else:
        def kernel(x, out=None, tmp=_FRESH):
            low, k, xk, kx = tmp[:4]
            low = np.multiply(x, lower, low)
            k = np.subtract(low, low.mT, k)
            return np.subtract(dot(x, k, xk), dot(k, x, kx), out)
    return kernel


@functools.lru_cache(maxsize=64)
def _sym_kernel(n: int, plain: bool):
    """The unchecked kernel ``f(x, out=None, tmp=_FRESH)`` of ``sym_field``
    on n x n matrices, its weights and product bound; ``out`` takes the
    field and ``tmp`` six scratch arrays of x's shape for x x^T, x^T x,
    their difference, u, x u and u x, or None for new ones."""
    weights = _projection_weights(n)[1]
    dot = _dot(plain)

    def kernel(x, out=None, tmp=_FRESH):
        xxt, xtx, c, u, xu, ux = tmp
        xt = x.mT
        c = np.subtract(dot(x, xt, xxt), dot(xt, x, xtx), c)
        u = np.multiply(c, weights, u)
        return np.subtract(dot(x, u, xu), dot(u, x, ux), out)
    return kernel


def toda_field(x) -> np.ndarray:
    """Sorting field [x, pi_k(x)] of a matrix or an (..., n, n) stack;
    vanishes on diagonal matrices. Raises ValueError, without a warning,
    when an entry of the field overflows."""
    x = as_matrices(x)
    return _finite(
        "sorting field overflows: an entry of [x, pi_k(x)] is not finite",
        _toda_kernel(x.shape[-1], x.ndim == 2, False), x,
    )


def sym_field(x) -> np.ndarray:
    """Symmetrization field [x, pi_u([x, x.T])] of a matrix or an
    (..., n, n) stack; vanishes exactly on normal matrices. Raises
    ValueError, without a warning, when an entry of the field overflows."""
    x = as_matrices(x)
    return _finite(
        "symmetrization field overflows: an entry of [x, pi_u([x, x.T])] is not finite",
        _sym_kernel(x.shape[-1], x.ndim == 2), x,
    )


def _stepped(field, starts) -> tuple:
    """What a run of :func:`integrate_many` steps: ``(kernel, x, own)``.
    x is a fresh array of the starts, the plain (n, n) matrix for one
    start and the (B, n, n) stack for several, whatever the field. kernel
    is the unchecked kernel of ``toda_field`` or ``sym_field``, bound here
    once for the run: ``toda_field``'s symmetric one when every start is
    exactly symmetric, which keeps the run so. Any other field is the
    caller's own (own is True): it is called as given, and the ``out`` and
    scratch the stage routine passes are dropped."""
    plain = len(starts) == 1
    x = starts[0].copy() if plain else np.stack(starts)
    if field is sym_field:
        return _sym_kernel(x.shape[-1], plain), x, False
    if field is toda_field:
        symmetric = all(np.array_equal(x0, x0.T) for x0 in starts)
        return _toda_kernel(x.shape[-1], plain, symmetric), x, False

    def own(x, out=None, tmp=None):
        return field(x)
    return own, x, True


class _Work:
    """The scratch arrays of a run at one shape of x, made once per run and
    again when lanes leave its stack: the step h as an array of x's shape,
    the stage accumulators and their terms (flat, as the outer products
    write them), the step scratch (a kernel's stage array too), the field
    scratch and its flat view, the kernel's scratch, the error and its
    scale, the tolerances as arrays (tols, a run's ``(rel_tol, abs_tol)``),
    and |x| of the current state and of the trial one. A caller's own field
    gets a new array for every stage in place of the stage array and writes
    no field or kernel scratch. They belong to one run, never to the
    module or to a cached kernel, since a field may itself integrate and
    two runs may step at once on different threads."""

    def __init__(self, x, own, tols):
        shape, size = x.shape, x.size
        acc, terms = np.empty((7,) + shape), np.empty((7, size))
        sums = acc.reshape(7, size)
        self.h = np.empty(shape)
        self.step = np.empty(shape)
        if own:
            stage = field = flat = self.tmp = None
        else:
            stage, field = self.step, np.empty(shape)
            flat = field.reshape(1, size)
            self.tmp = tuple(np.empty((_KERNEL_TEMPS,) + shape))
        self.first = _DP_COLUMNS[0], sums
        # per stage: the sum it starts from, its stage and field outputs (the
        # field's flat view too), and its weight column with the terms and
        # sums it goes into; the last stage and its field stay new arrays,
        # kept as state and FSAL
        self.stages = [
            (acc[s - 1], stage, field, flat, _DP_COLUMNS[s], terms[s:], sums[s:])
            for s in range(1, 6)
        ] + [(acc[5], None, None, None, _DP_COLUMNS[6], terms[6:], sums[6:])]
        self.err = acc[6], np.empty(shape)
        self.rel_tol, self.abs_tol = (np.full(shape, tol) for tol in tols)
        self.scale = np.empty(shape)
        self.x_abs, self.trial_abs = np.abs(x), np.empty(shape)


def _dopri_stages(field, x, k1, work):
    """One embedded step of size ``work.h``: returns (x5, error_estimate,
    k7) with k7 = field(x5), the next step's first stage (FSAL).

    x is one (n, n) matrix or a (B, n, n) stack, and work is the run's
    ``_Work`` at x's shape, whose h holds the step of each entry (each
    lane's own in a stack); the error estimate is its scratch. Every call
    is on operands of one shape. Each weighted stage sum, and the error's,
    is a running accumulator started at +0.0: once stage j is known, one
    BLAS outer product of its (7 - j, 1) weight column with its flat field
    puts its weighted copies into the terms of every later sum, and one
    add puts them into the sums. So each sum adds its terms in stage order
    and, for finite stages, has the bits of ``sum`` over its nonzero
    terms, in every lane of a stack (the module docstring says why); a
    stage that is not finite gives a zero weight's 0 * inf = NaN, as
    ``np.multiply`` does.
    """
    column, sums = work.first
    column.dot(k1.reshape(1, -1), sums)
    sums += 0.0
    h, step, tmp = work.h, work.step, work.tmp
    for prev, stage_out, field_out, flat, column, terms, sums in work.stages:
        stage = np.add(x, np.multiply(h, prev, step), stage_out)
        k = field(stage, field_out, tmp)
        column.dot(k.reshape(1, -1) if flat is None else flat, terms)
        sums += terms
    total, err = work.err
    return stage, np.multiply(h, total, err), k


def _error_ratios(err, old_abs, new_abs, rel_tol, abs_tol, q):
    """RMS of the error over its tolerance scale, as Python floats: a
    one-tuple for an (n, n) matrix, a list with one per lane for a stack.
    old_abs and new_abs are |x_old| and |x_new|, rel_tol and abs_tol
    arrays of their shape holding the run's tolerances, and q a scratch
    array of that shape.

    Direct ufunc calls in one array give the bits of
    ``np.sqrt(np.mean((err / scale) ** 2, axis=(1, 2)))`` over the
    (B, n, n) stack with ``scale = abs_tol + rel_tol *
    np.maximum(np.abs(x_old), np.abs(x_new))``: the same elementwise
    operations, and ``np.mean``'s own sum over the last two axes divided
    by their size.
    """
    np.maximum(old_abs, new_abs, out=q)
    np.multiply(q, rel_tol, q)
    np.add(q, abs_tol, q)
    np.divide(err, q, q)
    np.square(q, q)
    n = q.shape[-1]
    ms = np.add.reduce(q, (-2, -1)) / (n * n)
    return np.sqrt(ms).tolist() if q.ndim == 3 else (math.sqrt(ms),)


def _frobenius_norms(f):
    """Frobenius norm of an (n, n) matrix, as a one-tuple, or of each matrix
    of a stack, as a list, of Python floats; ``ndarray.dot`` of one flat
    matrix and ``np.vecdot`` of each in a stack are the same BLAS ``ddot``."""
    if f.ndim == 2:
        flat = f.ravel()
        return (math.sqrt(flat.dot(flat)),)
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

    def __init__(self, x0, fnorm, t_max, max_step, per_state, reference):
        self.t = 0.0
        self.t_max = t_max
        # rounding of the final clamped step can leave t one ulp short of
        # t_max; a leftover below this is the endpoint, not a stalled step
        self.t_end = t_max * (1.0 - 1e-12)
        self.h = min(_INITIAL_STEP, max_step)
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
    runs still going. One start is stepped as its plain (n, n) matrix
    instead, through the same loop and stage routine and with the same
    bits; this rank rule is the same for every field, a caller's own
    included, which gets a new array at each call that the integrator
    never writes to. ``toda_field`` from starts that are all exactly
    symmetric is stepped with its symmetric kernel, again with the same
    bits.

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
    kernel, x, own = _stepped(field, starts)
    stack = x.ndim == 3
    fx = kernel(x)
    stop, max_step, tols = cfg.stop_field_norm, cfg.max_step, (cfg.rel_tol, cfg.abs_tol)
    work = _Work(x, own, tols)
    lanes = [
        _Lane(x0, fnorm, t_max, max_step, per_state, reference)
        for x0, fnorm, t_max, reference in zip(
            x if stack else [x], _frobenius_norms(fx), horizons, references
        )
    ]

    active, stopped = lanes, True
    # a trial step can overflow in its error ratio or field norm; the
    # step is then rejected, and an accepted non-finite state fails the
    # fold, so the whole loop runs without those warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # a lane's stop test changes only when it accepts a step
            if stopped:
                going = [
                    i for i, lane in enumerate(active)
                    if lane.fnorm >= stop and lane.t < lane.t_end
                ]
                if not going:
                    break
                if len(going) < len(active):
                    active = [active[i] for i in going]
                    x, fx = x[going], fx[going]
                    work = _Work(x, own, tols)
                stopped = False
            for lane in active:
                # the controller's step underflows, not one the horizon
                # cuts short (max_step is at least _MIN_STEP)
                if lane.h < _MIN_STEP:
                    raise StiffnessError(
                        f"step size underflowed ({lane.h:.2e}) at t={lane.t:.6g}",
                        trajectory=lane.trajectory(),
                    )
                lane.h = min(lane.h, max_step, lane.t_max - lane.t)
            if stack:
                np.copyto(work.h, np.array([lane.h for lane in active])[:, None, None])
            else:
                work.h.fill(active[0].h)
            x_new, err, k_last = _dopri_stages(kernel, x, fx, work)
            new_abs = np.abs(x_new, work.trial_abs)
            ratios = _error_ratios(
                err, work.x_abs, new_abs, work.rel_tol, work.abs_tol, work.scale
            )
            taken = 0
            for lane, ratio, fnorm, state in zip(
                active, ratios, _frobenius_norms(k_last), x_new if stack else (x_new,)
            ):
                if ratio <= 1.0:
                    taken += 1
                    lane.t += lane.h
                    lane.fnorm = fnorm
                    stopped = stopped or not (fnorm >= stop and lane.t < lane.t_end)
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
            if taken == len(active):
                x, fx = x_new, k_last
                work.x_abs, work.trial_abs = new_abs, work.x_abs
            elif taken:
                took = np.array([ratio <= 1.0 for ratio in ratios])[:, None, None]
                x = np.where(took, x_new, x)
                fx = np.where(took, k_last, fx)
                np.abs(x, work.x_abs)

    return [lane.trajectory() for lane in lanes]


def integrate(field, x0, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run of x' = field(x) from x0.

    Stops when the field norm drops below ``cfg.stop_field_norm`` or when
    ``cfg.t_max`` is reached, whichever comes first. Raises
    StiffnessError with the partial trajectory attached if the step size
    underflows. This is the one-start case of :func:`integrate_many`: it
    steps x0 as a plain (n, n) matrix, and a field of the caller's own is
    called with (n, n) matrices too. With ``_EXACT_TIME`` and a t_max of
    its own it is a run to that exact time, as :func:`propagate` makes.
    """
    return integrate_many(field, [x0], cfg)[0]


def propagate(field, x0, t: float) -> np.ndarray:
    """Advance x0 by a (possibly negative) time t.

    The final state of :func:`integrate` run to exactly |t| (with
    ``_EXACT_TIME``): of x' = field(x) for t > 0, and of x' = -field(x)
    for t < 0; a copy of x0 for t = 0. So it is adaptive, and its work is
    bounded only as integrate's is. Raises ValueError naming t before any
    step when t is not finite, and otherwise what integrate raises:
    StiffnessError, without a warning, when a state blows up and the step
    size underflows (a caller's own field may raise first, on its
    non-finite input).
    """
    x = as_matrix(x0)
    if not math.isfinite(t):
        raise ValueError(f"propagate time t must be finite, got {t!r}")
    if t == 0.0:
        return x.copy()
    ahead = field if t > 0.0 else (lambda x: -field(x))
    return integrate(ahead, x, replace(_EXACT_TIME, t_max=abs(t))).final_state
