"""Spans and counts recorded around calls into toda_atlas's public functions.

Nothing inside the package is changed. While a traced round runs, every
module attribute of the package that is bound to a traced function is
replaced by a wrapper that records a span, so a call is caught at the
name its caller looks up (``toda_atlas.atlas.symmetric_eigen``,
``toda_atlas.analysis.integrate``, ``toda_atlas.cli._SUITES[...]`` and so
on). ``uninstall`` puts every original back.

Spans are aggregated in memory, keyed by span name and by the size n of
the op in progress. A span's self time is its duration minus the time
its direct child spans cover. Field evaluations are counted by wrapping
the callable handed to ``integrate``; the self time of ``integrate`` is
reported without its field evaluations only, as the stage sums, the
state validation and the isospectral witness are the integrator's own
per-step overhead.
"""

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). The attribute is looked up in the
# defining module; every package module holding the same object is
# patched with the same wrapper.
_TRACED_FUNCTIONS = (
    ("toda_atlas.flows", "propagate", "flows.propagate"),
    ("toda_atlas.linalg_core", "symmetric_eigen", "linalg_core.symmetric_eigen"),
    ("toda_atlas.linalg_core", "isospectral_witness", "linalg_core.isospectral_witness"),
    ("toda_atlas.factorizations", "unbar_factorize", "factorizations.unbar_factorize"),
    ("toda_atlas.factorizations", "kan_factorize", "factorizations.kan_factorize"),
    ("toda_atlas.factorizations", "trailing_minors", "factorizations.trailing_minors"),
    ("toda_atlas.atlas", "chart_forward", "atlas.chart_forward"),
    ("toda_atlas.atlas", "chart_inverse", "atlas.chart_inverse"),
    ("toda_atlas.analysis", "factor_suite", "analysis.factor_suite"),
    ("toda_atlas.analysis", "atlas_suite", "analysis.atlas_suite"),
    ("toda_atlas.analysis", "toda_suite", "analysis.toda_suite"),
    ("toda_atlas.analysis", "sym_suite", "analysis.sym_suite"),
)

FIELD = "flows.field"
INTEGRATE = "flows.integrate"


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self):
        self.n = 0
        # (span name, n) -> [calls, total s, self s, s covered by field spans]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        # (counter name, n) -> summed value
        self.counts = defaultdict(float)
        self.ops = defaultdict(int)
        self._stack = []
        self._restore = []
        self._wrappers = {}  # original function -> its wrapper, while installed

    def begin_op(self, n):
        self.n = n
        self.ops[n] += 1

    def count(self, name, value):
        self.counts[(name, self.n)] += value

    def span(self, name, fn, args, kwargs):
        frame = [0.0, 0.0]  # time covered by child spans: all, field evaluations
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            agg = self.spans[(name, self.n)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]
            agg[3] += frame[1]
            if self._stack:
                parent = self._stack[-1]
                parent[0] += duration
                if name == FIELD:
                    parent[1] += duration

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        import toda_atlas.analysis
        import toda_atlas.atlas
        import toda_atlas.cli
        import toda_atlas.flows
        import toda_atlas.serialization
        import toda_atlas.weyl_profiles

        def count_steps(traj, _args):
            self.count("flows.accepted_steps", traj.accepted_steps)
            self.count("flows.rejected_steps", traj.rejected_steps)

        def count_checks(reports, _args):
            self.count("analysis.checks", len(reports))

        def count_bytes(_result, args):
            self.count("serialization.bytes_written", Path(args[0]).stat().st_size)

        def count_permutations(perms, _args):
            self.count("weyl_profiles.permutations_built", len(perms))

        integrate = toda_atlas.flows.integrate
        traced_integrate_run = self.wrap(INTEGRATE, integrate, count_steps)

        @functools.wraps(integrate)
        def traced_integrate(field, *args, **kwargs):
            return traced_integrate_run(self.wrap(FIELD, field), *args, **kwargs)

        self._patch_everywhere(integrate, traced_integrate)
        for module_name, attr, name in _TRACED_FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            after = count_checks if name.endswith("_suite") else None
            self._patch_everywhere(fn, self.wrap(name, fn, after))
        write_json = toda_atlas.serialization.write_json
        self._patch_everywhere(
            write_json, self.wrap("serialization.write_json", write_json, count_bytes)
        )

        # the CLI looks suites up in a table built at import time
        suites = toda_atlas.cli._SUITES
        for key, fn in list(suites.items()):
            if fn in self._wrappers:
                self._set(suites, key, self._wrappers[fn], item=True)

        flag_point = toda_atlas.atlas.FlagPoint
        self._set(
            flag_point,
            "__post_init__",
            self.wrap("atlas.flag_point", flag_point.__post_init__),
        )
        perm = toda_atlas.weyl_profiles.Permutation
        all_fn = perm.__dict__["all"].__func__
        self._set(
            perm,
            "all",
            classmethod(self.wrap("weyl_profiles.permutation_all", all_fn, count_permutations)),
        )

    def uninstall(self):
        self._wrappers.clear()
        while self._restore:
            target, key, original, item = self._restore.pop()
            if item:
                target[key] = original
            else:
                setattr(target, key, original)

    def _set(self, target, key, new, item=False):
        original = target[key] if item else target.__dict__[key]
        self._restore.append((target, key, original, item))
        if item:
            target[key] = new
        else:
            setattr(target, key, new)

    def _patch_everywhere(self, original, new):
        self._wrappers[original] = new
        for module_name, module in list(sys.modules.items()):
            if module_name != "toda_atlas" and not module_name.startswith("toda_atlas."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, new)

    # -- merging and reporting ---------------------------------------------

    def to_dict(self):
        return {
            "spans": [[name, n, *agg] for (name, n), agg in self.spans.items()],
            "counts": [[name, n, value] for (name, n), value in self.counts.items()],
        }

    def merge(self, payload):
        """Add aggregates recorded by a traced child process."""
        for name, n, calls, total, own, field in payload["spans"]:
            agg = self.spans[(name, n)]
            agg[0] += calls
            agg[1] += total
            agg[2] += own
            agg[3] += field
        for name, n, value in payload["counts"]:
            self.counts[(name, n)] += value


def _sizes(*sizes):
    return tuple(f"n{n}" for n in sizes)


_FLOW_SIZES = _sizes(3, 4, 8, 12)
_CHART_SIZES = _sizes(3, 4, 8, 9, 12)
_FACTOR_SIZES = _sizes(4, 8, 9, 12)
_CLI_SIZES = _sizes(3, 9)

# Per-layer metrics: (module.quantity, unit, sizes, how, source). Every
# traced run prints all of them, one per size; a layer that a workload
# does not reach reads 0. ``how`` is one of
#   per_op        span time per op           per_call      span time per call
#   self_per_call self time per call         calls         span calls per op
#   count         counter value per op       no_field      span time minus field spans, per op
#   per_step      span time per accepted step
LAYER_METRICS = (
    ("flows.integrate_ms", "ms", _FLOW_SIZES, "per_op", INTEGRATE),
    ("flows.integrate_self_ms", "ms", _FLOW_SIZES, "no_field", INTEGRATE),
    ("flows.us_per_step", "us", _FLOW_SIZES, "per_step", INTEGRATE),
    ("flows.field_us", "us", _FLOW_SIZES, "per_call", FIELD),
    ("flows.accepted_steps", "count", _FLOW_SIZES, "count", "flows.accepted_steps"),
    ("flows.rejected_steps", "count", _FLOW_SIZES, "count", "flows.rejected_steps"),
    ("flows.field_evals", "count", _FLOW_SIZES, "calls", FIELD),
    ("flows.propagate_ms", "ms", _sizes(3), "per_op", "flows.propagate"),
    ("linalg_core.symmetric_eigen_us", "us", _CHART_SIZES, "per_call", "linalg_core.symmetric_eigen"),
    ("linalg_core.symmetric_eigen_calls", "count", _CHART_SIZES, "calls", "linalg_core.symmetric_eigen"),
    ("linalg_core.isospectral_witness_us", "us", _FLOW_SIZES, "per_call", "linalg_core.isospectral_witness"),
    ("linalg_core.isospectral_witness_calls", "count", _FLOW_SIZES, "calls", "linalg_core.isospectral_witness"),
    ("factorizations.unbar_factorize_us", "us", _FACTOR_SIZES, "per_call", "factorizations.unbar_factorize"),
    ("factorizations.unbar_factorize_calls", "count", _FACTOR_SIZES, "calls", "factorizations.unbar_factorize"),
    ("factorizations.kan_factorize_us", "us", _FACTOR_SIZES, "per_call", "factorizations.kan_factorize"),
    ("factorizations.kan_factorize_calls", "count", _FACTOR_SIZES, "calls", "factorizations.kan_factorize"),
    ("factorizations.trailing_minors_us", "us", _FACTOR_SIZES, "per_call", "factorizations.trailing_minors"),
    ("factorizations.trailing_minors_calls", "count", _FACTOR_SIZES, "calls", "factorizations.trailing_minors"),
    ("atlas.chart_forward_us", "us", _CHART_SIZES, "per_call", "atlas.chart_forward"),
    ("atlas.chart_forward_calls", "count", _CHART_SIZES, "calls", "atlas.chart_forward"),
    ("atlas.chart_forward_self_us", "us", _CHART_SIZES, "self_per_call", "atlas.chart_forward"),
    ("atlas.chart_inverse_us", "us", _CHART_SIZES, "per_call", "atlas.chart_inverse"),
    ("atlas.chart_inverse_calls", "count", _CHART_SIZES, "calls", "atlas.chart_inverse"),
    ("atlas.flag_point_us", "us", _CHART_SIZES, "per_call", "atlas.flag_point"),
    ("atlas.flag_point_calls", "count", _CHART_SIZES, "calls", "atlas.flag_point"),
    ("weyl_profiles.permutation_all_s", "s", _CLI_SIZES, "per_op", "weyl_profiles.permutation_all"),
    ("weyl_profiles.permutations_built", "count", _CLI_SIZES, "count", "weyl_profiles.permutations_built"),
    ("analysis.factor_suite_s", "s", _sizes(3), "per_op", "analysis.factor_suite"),
    ("analysis.atlas_suite_s", "s", _CLI_SIZES, "per_op", "analysis.atlas_suite"),
    ("analysis.toda_suite_s", "s", _sizes(3), "per_op", "analysis.toda_suite"),
    ("analysis.sym_suite_s", "s", _sizes(3), "per_op", "analysis.sym_suite"),
    ("analysis.checks", "count", _CLI_SIZES, "count", "analysis.checks"),
    ("serialization.write_ms", "ms", _CLI_SIZES, "per_op", "serialization.write_json"),
    ("serialization.bytes_written", "count", _CLI_SIZES, "count", "serialization.bytes_written"),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "count": 1.0}


def layer_metrics(tracer, speed_factor, import_s, overhead_pct):
    """Per-layer values from a tracer's aggregates; span times are scaled
    to the reference speed by the traced ops' median speed factor.
    ``cli.import_s`` comes from the set-up probes and
    ``trace.overhead_pct`` from comparing traced and untraced rounds."""

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name, unit, sizes, how, source in LAYER_METRICS:
        for suffix in sizes:
            n = int(suffix[1:])
            ops = tracer.ops.get(n, 0)
            calls, total, own, field = tracer.spans.get((source, n), (0, 0.0, 0.0, 0.0))
            if how == "per_op":
                value = ratio(total, ops)
            elif how == "no_field":
                value = ratio(total - field, ops)
            elif how == "per_call":
                value = ratio(total, calls)
            elif how == "self_per_call":
                value = ratio(own, calls)
            elif how == "per_step":
                value = ratio(total, tracer.counts.get(("flows.accepted_steps", n), 0.0))
            elif how == "calls":
                value = ratio(calls, ops)
            else:
                value = ratio(tracer.counts.get((source, n), 0.0), ops)
            if unit != "count":
                value *= speed_factor
            metrics[f"{name}.{suffix}"] = {"value": value * _SCALE[unit], "unit": unit}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics
