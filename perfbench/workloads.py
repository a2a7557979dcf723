"""The four workloads: inputs made from a seed, warm-up, ops and their checks.

Inputs are made here with numpy alone, never with ``toda_atlas.sampling``,
so a change to the package's samplers cannot change what is measured.
Every op calls the package through module attributes
(``flows.integrate``, ``atlas.chart_forward``, ...), which is where a
traced round catches the calls.

An op is ``run(tracer)`` followed by ``check(output)``; only ``run`` is
timed. ``check`` compares the output with quantities computed here by
numpy and with properties of the method, and returns a description of
the first violation, or None.
"""

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import toda_atlas.atlas as atlas
import toda_atlas.flows as flows
from toda_atlas.linalg_core import Spectrum
from toda_atlas.weyl_profiles import Permutation

SIZES = (4, 8, 12)
# A verify child runs 0.3-7 s; one still running after this is killed.
CHILD_TIMEOUT_S = 30


@dataclass(frozen=True)
class Op:
    n: int
    run: Callable
    check: Callable


def spectrum(n):
    """The evenly spaced spectrum n-1, n-3, ..., -(n-1)."""
    return Spectrum(tuple(float(n - 1 - 2 * i) for i in range(n)))


def random_rotation(n, rng):
    """Haar-distributed special orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q


def random_permutation(n, rng):
    return Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))


def symmetric_with_spectrum(values, rng):
    q = random_rotation(len(values), rng)
    y = q @ np.diag(values) @ q.T
    return 0.5 * (y + y.T)


def interleave(groups):
    """Round-robin over equally long lists, so sizes alternate in a round."""
    return [op for ops in zip(*groups) for op in ops]


def spectrum_error(y, values):
    return float(np.max(np.abs(np.linalg.eigvalsh(y)[::-1] - values)))


def power_trace_drift(x, x0):
    """Largest relative change of trace(x^k), k = 1..n, as FORMATS.md defines it."""
    n = x.shape[0]
    scale = float(np.linalg.norm(x0))
    drift = 0.0
    p, p0 = np.eye(n), np.eye(n)
    for k in range(1, n + 1):
        p, p0 = p @ x, p0 @ x0
        t, t0 = np.trace(p), np.trace(p0)
        drift = max(drift, abs(t - t0) / max(1.0, abs(t0), scale**k))
    return drift


def warm_up_flow(field):
    """A few integrator steps at every size."""
    for n in SIZES:
        x0 = np.diag(np.array(spectrum(n).values)) + 0.1 * np.eye(n, k=1)
        flows.integrate(field, x0, flows.IntegratorConfig(t_max=0.05))


class Workload:
    """One round of ops, repeated for the length of a run."""

    min_rounds = 1
    # seconds of ops between two speed calibrations
    calibrate_every_s = 0.25

    def __init__(self, seed, root):
        self.rng = np.random.default_rng([self.tag, seed % 2**32])
        self.root = root
        self.ops = self.make_ops()

    def warm_up(self):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Sorting(Workload):
    """Sorting-flow trajectories from random points of the isospectral manifold."""

    tag = 1
    per_size = 12

    def make_ops(self):
        groups = []
        for n in SIZES:
            h = spectrum(n)
            cfg = flows.IntegratorConfig(t_max=60.0, max_step=flows.stable_step_for_sorting(h))
            values = np.array(h.values)
            groups.append(
                [self._op(n, symmetric_with_spectrum(values, self.rng), values, cfg)
                 for _ in range(self.per_size)]
            )
        return interleave(groups)

    @staticmethod
    def _op(n, x0, values, cfg):
        def run(_tracer):
            return flows.integrate(flows.toda_field, x0, cfg)

        def check(traj):
            x = traj.final_state
            if not traj.final_field_norm < cfg.stop_field_norm:
                return f"field norm {traj.final_field_norm:.3e} not below the stop"
            distance = float(np.linalg.norm(x - np.diag(values)))
            if not distance < 1e-7:
                return f"limit is {distance:.3e} from diag(h)"
            if not spectrum_error(x, values) < 1e-9:
                return "limit spectrum differs from h"
            drift = max(power_trace_drift(x, x0), traj.power_trace_drift)
            if not drift < 1e-8:
                return f"power-trace drift {drift:.3e}"
            return None

        return Op(n, run, check)

    def warm_up(self):
        warm_up_flow(flows.toda_field)


class Symmetrize(Workload):
    """Symmetrization-flow trajectories along fibers over permuted diagonals."""

    tag = 2
    per_size = 2

    def make_ops(self):
        groups = []
        for n in SIZES:
            h = spectrum(n)
            cfg = flows.IntegratorConfig(
                t_max=40.0, max_step=flows.stable_step_for_symmetrization(h)
            )
            ops = []
            for _ in range(self.per_size):
                base = np.diag(np.array(h.values)[self.rng.permutation(n)])
                x0 = base + np.triu(self.rng.standard_normal((n, n)), 1)
                ops.append(self._op(n, x0, base, cfg))
            groups.append(ops)
        return interleave(groups)

    @staticmethod
    def _op(n, x0, base, cfg):
        def run(_tracer):
            return flows.integrate(flows.sym_field, x0, cfg)

        def check(traj):
            if not traj.final_field_norm < cfg.stop_field_norm:
                return f"field norm {traj.final_field_norm:.3e} not below the stop"
            distance = float(np.linalg.norm(traj.final_state - base))
            if not distance < 1e-6:
                return f"limit is {distance:.3e} from the permuted diagonal"
            leak = max(float(np.max(np.abs(np.tril(s, -1)))) for s in traj.states)
            if not leak <= 1e-9:
                return f"state left the upper triangle by {leak:.3e}"
            return None

        return Op(n, run, check)

    def warm_up(self):
        warm_up_flow(flows.sym_field)


def perm_matrix(w):
    p = np.zeros((w.n, w.n))
    p[np.array(w.images) - 1, np.arange(w.n)] = 1.0
    return p


def chart_margin(y, w):
    """min |trailing minor| of the de-permuted eigenframe Q P_w^T."""
    _, q = np.linalg.eigh(y)
    kp = q[:, ::-1] @ perm_matrix(w).T
    n = kp.shape[0]
    return min(abs(float(np.linalg.det(kp[n - j:, n - j:]))) for j in range(1, n))


class Charts(Workload):
    """Chart round trips in random charts, from coordinates and from points."""

    tag = 3
    per_size = 16
    # Round-trip error of a flag point grows like 1/margin; observed
    # residual * margin stays below 1.5e-13 at n <= 12.
    margin_residual = 1e-11

    def make_ops(self):
        groups = []
        for n in SIZES:
            h = spectrum(n)
            values = np.array(h.values)
            ops = []
            for _ in range(self.per_size):
                w = random_permutation(n, self.rng)
                lower = np.tril(self.rng.uniform(-1.0, 1.0, (n, n)), -1)
                ops.append(self._from_coords(n, h, w, lower))
                w = random_permutation(n, self.rng)
                y = symmetric_with_spectrum(values, self.rng)
                ops.append(self._from_point(n, h, w, y, chart_margin(y, w)))
            groups.append(ops)
        return interleave(groups)

    @staticmethod
    def _from_coords(n, h, w, lower):
        values = np.array(h.values)

        def run(_tracer):
            point = atlas.chart_inverse(atlas.ChartCoords(w=w, lower=lower, h=h))
            return point.y, atlas.chart_forward(point, w).lower

        def check(out):
            y, back = out
            if not spectrum_error(y, values) < 1e-9:
                return "chart_inverse output has the wrong spectrum"
            residual = float(np.linalg.norm(back - lower))
            if not residual < 1e-9:
                return f"coordinates come back off by {residual:.3e}"
            return None

        return Op(n, run, check)

    @classmethod
    def _from_point(cls, n, h, w, y, margin):
        values = np.array(h.values)
        bound = cls.margin_residual / margin

        def run(_tracer):
            coords = atlas.chart_forward(atlas.FlagPoint(y, h), w)
            return atlas.chart_inverse(coords).y

        def check(back):
            if not spectrum_error(back, values) < 1e-9:
                return "chart_inverse output has the wrong spectrum"
            residual = float(np.linalg.norm(back - y))
            if not residual < bound:
                return f"point comes back off by {residual:.3e} (bound {bound:.3e})"
            return None

        return Op(n, run, check)

    def warm_up(self):
        for op in self.ops[: 2 * len(SIZES)]:
            op.run(None)


class Verify(Workload):
    """``toda-atlas verify`` invocations, one child process at a time."""

    tag = 4
    # (suite, n), three durations apart, so that the median op is the
    # atlas suite at n = 9
    invocations = (("factor", 3), ("atlas", 9), ("all", 3))
    # every run repeats the round, and each invocation's artifacts are
    # compared byte for byte with the first round's
    min_rounds = 3
    calibrate_every_s = 0.0

    def make_ops(self):
        self.cli_seed = int(self.rng.integers(2**31))
        self.out = self.root / "perfbench" / "out" / "verify"
        self.references = {}
        self.child_peak_kb = 0
        return [self._op(i, suite, n) for i, (suite, n) in enumerate(self.invocations)]

    def _op(self, slot, suite, n):
        out = self.out / f"op{slot}"
        trace_file = self.out / f"op{slot}.trace.json"
        args = ["verify", "--suite", suite, "--n", str(n), "--seed", str(self.cli_seed),
                "--out", str(out)]

        def run(tracer):
            shutil.rmtree(out, ignore_errors=True)
            if tracer is None:
                cmd = [sys.executable, "-m", "toda_atlas.cli", *args]
            else:
                script = self.root / "perfbench" / "traced_cli.py"
                cmd = [sys.executable, str(script), str(trace_file), str(n), *args]
                # a child that dies before writing its trace must not leave
                # the previous round's aggregates to be merged again
                trace_file.unlink(missing_ok=True)
            log = out.with_suffix(".log")
            log.parent.mkdir(parents=True, exist_ok=True)
            with open(log, "wb") as sink:
                proc = subprocess.Popen(cmd, env=child_env(self.root), cwd=self.root,
                                        stdout=sink, stderr=subprocess.STDOUT)
                code, usage = wait_child(proc, CHILD_TIMEOUT_S)
            if tracer is None:
                self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            else:
                tracer.merge(json.loads(trace_file.read_text()))
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}
            return code, files

        def check(result):
            code, files = result
            if code != 0:
                return f"verify --suite {suite} --n {n} exited with {code}"
            summary = json.loads(files.get("summary.json", b"{}"))
            reports = {k: json.loads(v) for k, v in files.items() if k.startswith("check_")}
            wanted = {"suite": suite, "n": n, "seed": self.cli_seed, "failures": 0}
            if any(summary.get(k) != v for k, v in wanted.items()):
                return f"summary.json {summary} does not match {wanted}"
            # two checks can share a name (and a file), so files <= checks
            if not 0 < len(reports) <= summary.get("checks", 0):
                return f"{len(reports)} check files for {summary.get('checks')} checks"
            for name, report in reports.items():
                if report["passed"] != (report["max_residual"] < report["tolerance"]):
                    return f"{name}: verdict disagrees with its residual"
                if not report["passed"]:
                    return f"{name} failed"
            reference = self.references.setdefault((suite, n), files)
            if reference != files:
                return f"verify --suite {suite} --n {n} artifacts differ from an earlier run"
            return None

        return Op(n, run, check)

    def peak_rss_mb(self):
        return self.child_peak_kb / 1024.0


class ChildTimeout(Exception):
    pass


def wait_child(proc, timeout_s):
    """Exit code and resource usage of a child, reaped with ``os.wait4``.

    A child still running after ``timeout_s`` seconds is killed and
    ``ChildTimeout`` raised, so a hung command counts as a failed op
    instead of stalling the run.
    """

    def expire(_signum, _frame):
        raise ChildTimeout(f"child still running after {timeout_s} s; killed")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout_s)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildTimeout:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def child_env(root):
    """Environment for child interpreters: the checkout's package first."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


WORKLOADS = {"sorting": Sorting, "symmetrize": Symmetrize, "charts": Charts, "verify": Verify}
