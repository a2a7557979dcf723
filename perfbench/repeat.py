"""Run one workload several times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload charts --runs 10 --seed0 1 --seconds 20

Runs ``perfbench/run.py --trace 0`` once per seed (seed0, seed0 + 1, ...), one run
at a time, and prints for every metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. It also prints
the share of failed ops of every run. The per-run results are written to
``perfbench/out/repeat_<workload>_<seed0>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    results = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result, "lines": proc.stdout.splitlines()[:-1]})
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed {result['failed']}"
              f"/{result['attempted']} {shown}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {args.seconds:g} s, "
          f"seeds {args.seed0}..{args.seed0 + args.runs - 1}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}; all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {100 * spread:7.2f}%"
              f"  {metric['unit']}")
    out = BENCH / "out" / f"repeat_{args.workload}_{args.seed0}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
