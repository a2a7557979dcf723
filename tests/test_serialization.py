import json

import numpy as np
import pytest

from toda_atlas.flows import IntegratorConfig, integrate, toda_field
from toda_atlas.sampling import default_spectrum, random_symmetric_with_spectrum, rng_from_seed
from toda_atlas.serialization import (
    matrix_from_dict,
    matrix_to_dict,
    profile_from_dict,
    profile_to_dict,
    read_matrix,
    read_trajectory_csv,
    trajectory_diagnostics,
    write_matrix,
    write_trajectory_csv,
)
from toda_atlas.weyl_profiles import hessenberg_profile

RNG = rng_from_seed(8)


class TestMatrixJSON:
    def test_round_trip(self, tmp_path):
        m = RNG.standard_normal((4, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_declared_size_checked(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_from_dict({"n": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]})

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_dict({"n": 2})

    def test_schema_shape(self):
        d = matrix_to_dict(np.eye(2))
        assert d == {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}


class TestProfileJSON:
    def test_round_trip(self):
        p = hessenberg_profile(4)
        again = profile_from_dict(profile_to_dict(p))
        assert again == p

    def test_dict_uses_one_based_sorted_pairs(self):
        d = profile_to_dict(hessenberg_profile(3))
        assert d == {"n": 3, "pairs": [[2, 1], [3, 2]]}

    def test_invalid_profile_rejected(self):
        with pytest.raises(Exception, match="axiom"):
            profile_from_dict({"n": 3, "pairs": [[3, 1]]})


class TestTrajectoryCSV:
    def test_round_trip_and_header(self, tmp_path):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=1.0))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        first = path.read_text().splitlines()[0]
        assert first == "t," + ",".join(
            f"e{i}{j}" for i in range(1, 4) for j in range(1, 4)
        )
        times, states = read_trajectory_csv(path)
        np.testing.assert_array_equal(times, traj.times)
        for got, want in zip(states, traj.states):
            np.testing.assert_array_equal(got, want)

    def test_write_is_deterministic(self, tmp_path):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), rng_from_seed(3))
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=1.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(a, traj)
        write_trajectory_csv(b, traj)
        assert a.read_bytes() == b.read_bytes()

    def test_diagnostics_fields(self):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=1.0))
        diag = trajectory_diagnostics(traj)
        assert set(diag) == {
            "t_final",
            "accepted_steps",
            "rejected_steps",
            "final_field_norm",
            "power_trace_drift",
            "field_evals",
            "min_step",
            "max_step",
        }
        json.dumps(diag)
