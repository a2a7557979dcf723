"""Command-line front end.

Subcommands: factorize, chart, flow, cells, verify. All artifacts land in
the output directory (flag --out, default from TODA_ATLAS_OUT, else the
working directory), made with the first artifact, so a command refused
before it writes leaves no directory. Exit codes: 0 success, 1 check or
factorization failure, 2 input error. The random generator behind every
seeded command is numpy's PCG64 (numpy.random.default_rng).
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis
from .atlas import ChartCoords, FlagPoint, _permuted_diagonals, chart_forward, chart_inverse
from .errors import StiffnessError, TodaAtlasError
from .factorizations import kan_factorize, unbar_factorize
from .flows import IntegratorConfig, integrate, sym_field, toda_field
from .linalg_core import Spectrum
from .serialization import (
    read_matrix,
    report_to_dict,
    trajectory_diagnostics,
    write_json,
    write_matrix,
    write_trajectory_csv,
)
from .weyl_profiles import Permutation, inversion_sets, lower_pairs

__all__ = ["main"]

_SUITES = {
    "factor": analysis.factor_suite,
    "atlas": analysis.atlas_suite,
    "toda": analysis.toda_suite,
    "sym": analysis.sym_suite,
    "all": analysis.full_suite,
}


def _parse_permutation(text: str) -> Permutation:
    return Permutation(tuple(int(v) for v in text.replace(",", " ").split()))


def _parse_spectrum(text: str) -> Spectrum:
    return Spectrum(tuple(float(v) for v in text.split(",")))


def _run_factorize(args) -> int:
    g = read_matrix(args.input)
    factors = (kan_factorize if args.kind == "kan" else unbar_factorize)(g)
    # k, a, n or u, nbar, m: one file each, in field order
    named = {field.name: getattr(factors, field.name) for field in fields(factors)}
    for name, matrix in named.items():
        write_matrix(args.out / f"{name}.json", matrix)
    first, second, third = named.values()
    residual = float(np.linalg.norm(first @ second @ third - g))
    write_json(args.out / "factorize_report.json", {"kind": args.kind, "residual": residual})
    print(f"factorize {args.kind}: residual {residual:.3e}")
    return 0


def _run_chart(args) -> int:
    out = args.out
    if args.forward is not None:
        y = read_matrix(args.forward)
        point = FlagPoint(y, args.h)
        coords = chart_forward(point, args.w)
        back = chart_inverse(coords)
        residual = float(np.linalg.norm(back.y - y))
        payload = {
            "w": list(args.w.images),
            "h": list(point.h.values),
            "lower": [[float(v) for v in row] for row in coords.lower],
            "round_trip_residual": residual,
        }
        write_json(out / "chart_coords.json", payload)
        print(f"chart forward at w={args.w.images}: round trip {residual:.3e}")
    else:
        lower = np.tril(read_matrix(args.inverse), -1)
        coords = ChartCoords(w=args.w, lower=lower, h=args.h)
        point = chart_inverse(coords)
        back = chart_forward(point, args.w)
        residual = float(np.linalg.norm(back.lower - lower))
        write_matrix(out / "chart_point.json", point.y)
        write_json(
            out / "chart_report.json",
            {"w": list(args.w.images), "round_trip_residual": residual},
        )
        print(f"chart inverse at w={args.w.images}: round trip {residual:.3e}")
    return 0


def _write_flow(out: Path, traj) -> None:
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_json(out / "diagnostics.json", trajectory_diagnostics(traj))


def _run_flow(args) -> int:
    x0 = read_matrix(args.x0)
    vector_field = toda_field if args.field == "toda" else sym_field
    try:
        traj = integrate(vector_field, x0, args.integrator)
    except StiffnessError as err:
        # the run up to the underflow is written before main reports it
        _write_flow(args.out, err.trajectory)
        raise
    _write_flow(args.out, traj)
    print(
        f"flow {args.field}: t_final {traj.final_time:.6g}, "
        f"{traj.accepted_steps} accepted / {traj.rejected_steps} rejected, "
        f"field norm {traj.final_field_norm:.3e}, drift {traj.power_trace_drift:.3e}"
    )
    return 0


def _run_cells(args) -> int:
    w, h = args.w, args.h
    sets = inversion_sets(w)
    d = _permuted_diagonals(h, w)
    rows = []
    for i, j in lower_pairs(w.n):
        rows.append(
            {
                "pair": [i, j],
                "gap": float(d[i - 1] - d[j - 1]),
                "classification": "unstable" if (i, j) in sets.unstable else "stable",
            }
        )
    payload = {
        "w": list(w.images),
        "h": list(h.values),
        "stable": sorted([list(p) for p in sets.stable]),
        "unstable": sorted([list(p) for p in sets.unstable]),
        "pairs": rows,
    }
    write_json(args.out / "cells.json", payload)
    print(f"cells at w={w.images}: {len(sets.unstable)} unstable, {len(sets.stable)} stable")
    return 0


def _run_verify(args) -> int:
    reports = _SUITES[args.suite](args.n, args.seed)
    failures = 0
    for report in reports:
        write_json(
            args.out / f"check_{report.name.replace('.', '_')}.json", report_to_dict(report)
        )
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.name}: residual {report.max_residual:.3e} "
            f"(tol {report.tolerance:.0e}, samples {report.samples})"
        )
        failures += 0 if report.passed else 1
    summary = {
        "suite": args.suite,
        "n": args.n,
        "seed": args.seed,
        "checks": len(reports),
        "failures": failures,
    }
    write_json(args.out / "summary.json", summary)
    print(f"verify {args.suite}: {len(reports) - failures}/{len(reports)} checks passed")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda-atlas",
        description="Matrix factorizations, linearizing charts, and isospectral flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out_and_handler(p, handler):
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.set_defaults(handler=handler)

    p = sub.add_parser("factorize", help="factor a matrix from JSON")
    p.add_argument("--input", required=True, type=Path, help="matrix JSON file")
    p.add_argument("--kind", choices=("kan", "unbar"), default="kan")
    add_out_and_handler(p, _run_factorize)

    p = sub.add_parser("chart", help="apply a chart or its inverse")
    p.add_argument("--w", required=True, help='permutation, e.g. "2 1 3"')
    p.add_argument("--h", default=None, help='spectrum, e.g. "2,0,-2"')
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forward", type=Path, help="matrix JSON of a flag point")
    group.add_argument("--inverse", type=Path, help="matrix JSON of lower coordinates")
    add_out_and_handler(p, _run_chart)

    p = sub.add_parser("flow", help="integrate a vector field from a matrix JSON")
    p.add_argument("--field", choices=("toda", "sym"), default="toda")
    p.add_argument("--x0", required=True, type=Path)
    p.add_argument("--tmax", type=float, default=30.0)  # not IntegratorConfig's 50
    p.add_argument("--rel-tol", type=float, default=IntegratorConfig.rel_tol)
    p.add_argument("--abs-tol", type=float, default=IntegratorConfig.abs_tol)
    p.add_argument("--max-step", type=float, default=IntegratorConfig.max_step)
    p.add_argument("--stop-field-norm", type=float, default=IntegratorConfig.stop_field_norm)
    add_out_and_handler(p, _run_flow)

    p = sub.add_parser("cells", help="stable/unstable pair classification for a chart")
    p.add_argument("--w", required=True)
    p.add_argument("--h", required=True)
    add_out_and_handler(p, _run_cells)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_out_and_handler(p, _run_verify)

    return parser


def _convert_flags(args) -> None:
    """Parse and check --w, --h, the integrator flags, --n and --seed, in place.

    Runs before any handler, so a bad flag creates nothing.
    """
    if args.command in ("chart", "cells"):
        args.w = _parse_permutation(args.w)
        if args.h is not None:
            args.h = _parse_spectrum(args.h)
            if args.w.n != args.h.n:
                raise ValueError("--w and --h sizes disagree")
        elif args.command == "chart" and args.inverse is not None:
            raise ValueError("chart --inverse requires --h")
    elif args.command == "flow":
        args.integrator = IntegratorConfig(
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
            max_step=args.max_step,
            t_max=args.tmax,
            stop_field_norm=args.stop_field_norm,
        )
    elif args.command == "verify":
        if args.seed < 0:
            raise ValueError("--seed must be nonnegative")
        if not 2 <= args.n <= 12:
            raise ValueError("--n must be between 2 and 12")


def main(argv=None) -> None:
    """Run one subcommand and exit with its code."""
    args = _build_parser().parse_args(argv)
    try:
        _convert_flags(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
    if args.out is None:
        args.out = Path(os.environ.get("TODA_ATLAS_OUT", "."))
    try:
        code = args.handler(args)
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        code = 2
    except TodaAtlasError as err:
        print(f"failure: {err}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
