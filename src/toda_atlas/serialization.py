"""File formats: matrix and profile JSON, trajectory CSV, report JSON.

All writers are deterministic: keys are sorted, floats use the shortest
round-trip decimal representation, and row order is fixed. Re-running a
command with identical inputs and seed therefore produces byte-identical
files. The schemas are documented in FORMATS.md at the repository root.
"""

import json
from pathlib import Path

import numpy as np

from .analysis import CheckReport
from .flows import Trajectory
from .linalg_core import as_matrix
from .weyl_profiles import Profile, profile_validate

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "write_matrix",
    "read_matrix",
    "profile_to_dict",
    "profile_from_dict",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "trajectory_diagnostics",
    "report_to_dict",
    "write_json",
    "read_json",
]


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def matrix_to_dict(mat) -> dict:
    mat = as_matrix(mat)
    return {"n": int(mat.shape[0]), "entries": [[float(v) for v in row] for row in mat]}


def matrix_from_dict(payload) -> np.ndarray:
    try:
        n = int(payload["n"])
        entries = payload["entries"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"matrix JSON needs 'n' and 'entries': {err}") from err
    mat = np.asarray(entries, dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"matrix JSON declares n={n} but entries have shape {mat.shape}")
    return as_matrix(mat)


def write_matrix(path, mat) -> None:
    write_json(path, matrix_to_dict(mat))


def read_matrix(path) -> np.ndarray:
    return matrix_from_dict(read_json(path))


def profile_to_dict(p: Profile) -> dict:
    return {"n": p.n, "pairs": [[i, j] for i, j in sorted(p.pairs)]}


def profile_from_dict(payload) -> Profile:
    try:
        n = int(payload["n"])
        pairs = payload["pairs"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"profile JSON needs 'n' and 'pairs': {err}") from err
    return profile_validate(n, {(int(i), int(j)) for i, j in pairs})


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """One row per accepted step: t, then the state in row-major order."""
    n = traj.states[0].shape[0]
    header = "t," + ",".join(f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    lines = [header]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in state.ravel()]))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Times and states back from a trajectory CSV."""
    lines = Path(path).read_text().strip().splitlines()
    entries = len(lines[0].split(",")) - 1
    n = int(round(entries ** 0.5))
    if n * n != entries:
        raise ValueError(f"trajectory CSV has {entries} state columns, not a square count")
    times, states = [], []
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        times.append(values[0])
        states.append(np.array(values[1:]).reshape(n, n))
    return np.array(times), states


def trajectory_diagnostics(traj: Trajectory) -> dict:
    return {
        "t_final": float(traj.final_time),
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "final_field_norm": float(traj.final_field_norm),
        "power_trace_drift": float(traj.power_trace_drift),
        "field_evals": traj.field_evals,
        "min_step": float(traj.min_step),
        "max_step": float(traj.max_step),
    }


def report_to_dict(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "max_residual": report.max_residual,
        "samples": report.samples,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "details": report.details,
    }
