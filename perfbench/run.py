"""Benchmark of toda_atlas, end to end or per layer.

    python3 perfbench/run.py --workload sorting --seed 1 --seconds 20 --trace 0

Workloads: sorting, symmetrize, charts, verify (see README.md). Run from
the root of a checkout; the package is imported from its ``src``. A run
does the set-up (import the package, make the inputs, warm up), then
repeats whole rounds of the workload's ops until ``--seconds`` have
passed (``verify`` does at least three rounds). Every op's output is
checked; an op that raises or returns a wrong output counts as failed.
Between ops, paced over ``--seconds``, ``SETUP_PROBES`` fresh
interpreters each do the same set-up and exit; ``setup_s`` is their
median.

Op times are scaled to a reference machine speed by calibrations taken
between ops, and each probe by calibrations just before and after it
(see calibration.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the metrics are the per-layer ones from the traced
rounds plus the tracing overhead. Human-readable lines come first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads; child processes inherit it.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sorting", "symmetrize", "charts", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit (used to time set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def make_workload(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm_up()
    return workload


def setup_probe(args):
    start = perf_counter()
    import toda_atlas.cli  # noqa: F401  (the import being timed)

    import_s = perf_counter() - start
    make_workload(args)
    print(json.dumps({"import_s": import_s}))


def setup_prober(args):
    """A function that runs one fresh interpreter doing the set-up and
    returns the time of its package import, unscaled."""
    from workloads import child_env

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def probe():
        proc = subprocess.run(cmd, env=child_env(ROOT), cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]

    return probe


def measure(workload, args):
    """Repeat whole rounds for ``args.seconds``, with the set-up probes
    spread between the ops; with tracing, every other round is traced.

    Returns the rounds as (traced, op times scaled to the reference
    speed), each round's raw summed op time, the ops' scale factors, the
    probes as (set-up s, import s) scaled by calibrations around each,
    the op counts, whether every output was correct, and the tracer.
    """
    from calibration import SpeedTracker
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    speed = SpeedTracker(workload.calibrate_every_s)
    probe = setup_prober(args)
    probes = []

    def probe_until(share):
        """Run probes until ``share`` of them are done."""
        while len(probes) < min(SETUP_PROBES, int(SETUP_PROBES * share)):
            import_s, wall, factor = speed.timed(probe)
            probes.append((wall * factor, import_s * factor))

    min_rounds = max(workload.min_rounds, 2 if args.trace else 1)
    rounds = []  # (traced, {op index: raw op time in s})
    attempted = failed = 0
    correct = True
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
        traced = args.trace and len(rounds) % 2 == 1
        times = {}
        if traced:
            tracer.install()
        try:
            for index, op in enumerate(workload.ops):
                # spread over the run, the probes meet many of the
                # machine's speed phases, as the ops do
                probe_until((perf_counter() - start) / args.seconds)
                attempted += 1
                if traced:
                    tracer.begin_op(op.n)
                begin = perf_counter()
                try:
                    output = op.run(tracer if traced else None)
                except Exception as err:  # the program failed this op; count it
                    failed += 1
                    print(f"op failed at n={op.n}: {type(err).__name__}: {err}", file=sys.stderr)
                    continue
                elapsed = perf_counter() - begin
                problem = op.check(output)
                if problem is not None:
                    failed += 1
                    correct = False
                    print(f"wrong output at n={op.n}: {problem}", file=sys.stderr)
                    continue
                times[index] = elapsed
                speed.done((len(rounds), index))
        finally:
            if traced:
                tracer.uninstall()
        speed.flush()
        rounds.append((traced, times))
    probe_until(1.0)
    scaled = [
        (traced, [t * speed.factors[(r, i)] for i, t in times.items()])
        for r, (traced, times) in enumerate(rounds)
    ]
    raw = [sum(times.values()) for _traced, times in rounds]
    return scaled, raw, speed.factors, probes, attempted, failed, correct, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "toda_atlas" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'toda_atlas'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup_probe(args)
        return 0

    workload = make_workload(args)
    rounds, raw, factors, probes, attempted, failed, correct, tracer = measure(workload, args)

    plain = [times for traced, times in rounds if not traced]
    op_times = [t for times in plain for t in times]
    if not all(plain):
        print("error: a round had no op that succeeded", file=sys.stderr)
        return 1
    wall_s = statistics.median(sum(times) for times in plain)
    setup_s = statistics.median(wall for wall, _import_s in probes)
    import_s = statistics.median(imp for _wall, imp in probes)
    speed = statistics.median(factors.values())
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(workload.ops)} ops, "
          f"{attempted} attempted, {failed} failed, outputs correct: {correct}")
    print("round op time, raw s: " + " ".join(
        f"{r:.3f}{'t' if traced else ''}" for r, (traced, _) in zip(raw, rounds)))
    print("round op time, reference s: " + " ".join(
        f"{sum(times):.3f}{'t' if traced else ''}" for traced, times in rounds))
    print(f"speed factors: median {speed:.3f}, "
          f"range {min(factors.values()):.3f}..{max(factors.values()):.3f}")
    print("set-up probes, reference s: " + " ".join(f"{wall:.3f}" for wall, _ in probes))
    if args.trace:
        from tracing import layer_metrics

        traced_wall = statistics.median(sum(times) for traced, times in rounds if traced)
        overhead = 100.0 * (traced_wall / wall_s - 1.0)
        traced_factors = [f for (r, _i), f in factors.items() if rounds[r][0]]
        metrics = layer_metrics(tracer, statistics.median(traced_factors), import_s, overhead)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace_{args.workload}.json").write_text(
            json.dumps({"aggregates": tracer.to_dict(), "ops": dict(tracer.ops),
                        "metrics": metrics}, indent=1))
        print(f"tracing overhead {overhead:.1f} % (traced round {traced_wall:.3f} s, "
              f"untraced {wall_s:.3f} s)")
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(len(t) / sum(t) for t in plain),
                          "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_times), "unit": "ms"},
            "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        # tails for reference: each percentile with at least ten ops beyond it
        percentiles = statistics.quantiles(op_times, n=100) if len(op_times) > 1 else []
        for p in (90, 99):
            if len(op_times) * (100 - p) / 100 >= 10:
                print(f"op_p{p}_ms {1e3 * percentiles[p - 1]:.3f} ms "
                      f"over {len(op_times)} ops (reference only)")
    for name, metric in metrics.items():
        if metric["value"] != 0.0:  # a layer the workload does not reach reads 0
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
