import json

import numpy as np
import pytest

from toda_atlas.analysis import CheckReport
from toda_atlas.flows import IntegratorConfig, Trajectory, integrate, toda_field
from toda_atlas.sampling import default_spectrum, random_symmetric_with_spectrum, rng_from_seed
from toda_atlas.serialization import (
    matrix_from_dict,
    matrix_to_dict,
    read_matrix,
    read_trajectory_csv,
    report_to_dict,
    trajectory_diagnostics,
    write_matrix,
    write_trajectory_csv,
)

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

    @pytest.mark.parametrize("n", ["1e400", "2.7", "2.0", '"2"'])
    def test_an_n_that_is_not_an_integer_is_refused(self, n):
        # 1e400 reads as inf, which int() raises OverflowError on, and
        # int() would read 2.7 as 2
        payload = json.loads(f'{{"n": {n}, "entries": [[1.0, 0.0], [0.0, 1.0]]}}')
        with pytest.raises(ValueError, match="needs an integer 'n'"):
            matrix_from_dict(payload)

    def test_schema_shape(self):
        d = matrix_to_dict(np.eye(2))
        assert d == {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}


class TestTrajectoryCSV:
    def test_round_trip_and_header(self, tmp_path):
        x0 = random_symmetric_with_spectrum(default_spectrum(3), RNG)
        traj = integrate(toda_field, x0, IntegratorConfig(t_max=1.0))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        first = path.read_text().splitlines()[0]
        assert first == "t," + ",".join(
            f"e{i}_{j}" for i in range(1, 4) for j in range(1, 4)
        )
        times, states = read_trajectory_csv(path)
        np.testing.assert_array_equal(times, traj.times)
        for got, want in zip(states, traj.states):
            np.testing.assert_array_equal(got, want)

    def test_header_names_distinct_and_row_major_at_n12(self, tmp_path):
        # "e{i}{j}" would name both (1, 11) and (11, 1) "e111"
        x = np.arange(144.0).reshape(12, 12)
        traj = Trajectory([0.0], [x], 0, 0, 0.0, 0.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        header, row = path.read_text().splitlines()
        names = header.split(",")[1:]
        assert len(set(names)) == 144
        assert names == [f"e{i}_{j}" for i in range(1, 13) for j in range(1, 13)]
        for name, value in zip(names, row.split(",")[1:]):
            i, j = (int(v) for v in name[1:].split("_"))
            assert float(value) == x[i - 1, j - 1]

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


class TestReportJSON:
    def test_report_dict_has_the_six_keys(self):
        details = {"eps": 1e-4, "pairs": {"2,1": {"distance": 3e-8, "ws": [2, 1]}}, "escape": None}
        report = CheckReport("unstable_manifold.2-1", np.float64(3e-8), 2, 1e-7, details)
        assert report_to_dict(report) == {
            "name": "unstable_manifold.2-1",
            "max_residual": 3e-8,
            "samples": 2,
            "tolerance": 1e-7,
            "passed": True,
            "details": details,
        }
