import json
import sys
import time
import warnings

import numpy as np
import pytest

from toda_atlas import linalg_core
from toda_atlas.analysis import CheckReport
from toda_atlas.cli import _SUITES, _build_parser, main
from toda_atlas.errors import StiffnessError
from toda_atlas.flows import IntegratorConfig, integrate, sym_field, toda_field
from toda_atlas.sampling import default_spectrum, random_symmetric_with_spectrum, rng_from_seed
from toda_atlas.serialization import (
    read_matrix,
    read_trajectory_csv,
    report_to_dict,
    trajectory_diagnostics,
    write_matrix,
)


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.fixture
def flag_matrix(tmp_path):
    y = random_symmetric_with_spectrum(default_spectrum(3), rng_from_seed(4))
    path = tmp_path / "y.json"
    write_matrix(path, y)
    return path


class TestFactorize:
    def test_kan_outputs(self, tmp_path, flag_matrix):
        g = np.eye(3) + np.tril(rng0().standard_normal((3, 3)), -1)
        src = tmp_path / "g.json"
        write_matrix(src, g)
        out = tmp_path / "out"
        code = run_cli(["factorize", "--input", str(src), "--kind", "kan", "--out", str(out)])
        assert code == 0
        k = read_matrix(out / "k.json")
        a = read_matrix(out / "a.json")
        n = read_matrix(out / "n.json")
        assert np.linalg.norm(k @ a @ n - g) < 1e-10
        report = json.loads((out / "factorize_report.json").read_text())
        assert report["residual"] < 1e-10

    def test_unbar_failure_exit_code(self, tmp_path):
        quarter_turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        src = tmp_path / "k.json"
        write_matrix(src, quarter_turn)
        code = run_cli(["factorize", "--input", str(src), "--kind", "unbar", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_dependent_column_is_failure(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        write_matrix(src, np.diag([1e7, 1e7, 1e-14]))
        code = run_cli(["factorize", "--input", str(src), "--kind", "kan", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("failure: column 3")

    def test_unbar_of_huge_entries_is_input_error_without_a_warning(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        write_matrix(src, np.diag([1e200, 1e-200, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["factorize", "--input", str(src), "--kind", "unbar", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: matrix is not orthogonal\n"

    @pytest.mark.parametrize("n", ["1e400", "2.7"])
    def test_an_n_that_is_not_an_integer_is_input_error(self, tmp_path, capsys, n):
        src = tmp_path / "g.json"
        src.write_text(f'{{"n": {n}, "entries": [[1.0, 0.0], [0.0, 1.0]]}}\n')
        code = run_cli(["factorize", "--input", str(src), "--kind", "kan", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: matrix JSON needs an integer 'n'") and err.count("\n") == 1

    def test_missing_file_is_input_error(self, tmp_path):
        code = run_cli(["factorize", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2


class TestChart:
    def test_forward_and_inverse(self, tmp_path, flag_matrix):
        out = tmp_path / "fwd"
        code = run_cli(
            ["chart", "--w", "2 1 3", "--h", "2,0,-2", "--forward", str(flag_matrix), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "chart_coords.json").read_text())
        assert payload["w"] == [2, 1, 3]
        assert payload["round_trip_residual"] < 1e-9

        lower = np.zeros((3, 3))
        lower[1, 0] = 0.4
        coords_path = tmp_path / "coords.json"
        write_matrix(coords_path, lower)
        out2 = tmp_path / "inv"
        code = run_cli(
            ["chart", "--w", "2 1 3", "--h", "2,0,-2", "--inverse", str(coords_path), "--out", str(out2)]
        )
        assert code == 0
        point = read_matrix(out2 / "chart_point.json")
        assert np.linalg.norm(point - point.T) < 1e-12

    def test_forward_without_spectrum_flag(self, tmp_path, flag_matrix):
        out = tmp_path / "noh"
        code = run_cli(["chart", "--w", "1 2 3", "--forward", str(flag_matrix), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "chart_coords.json").read_text())
        assert payload["h"] == pytest.approx([2.0, 0.0, -2.0])

    def test_forward_without_spectrum_flag_solves_each_point_once(
        self, tmp_path, flag_matrix, monkeypatch
    ):
        original = linalg_core._eigen_stack
        calls = []

        def counting(y):
            calls.append(y.shape[:-2])  # () for one plain matrix
            return original(y)

        for name, module in list(sys.modules.items()):
            if name.startswith("toda_atlas") and getattr(module, "_eigen_stack", None) is original:
                monkeypatch.setattr(module, "_eigen_stack", counting)
        code = run_cli(["chart", "--w", "2 3 1", "--forward", str(flag_matrix), "--out", str(tmp_path)])
        assert code == 0
        # the input's flag point only: nothing for the spectrum, and the
        # round trip's point keeps the frame of its graded QR
        assert calls == [()]

    def test_forward_of_a_huge_diagonal_without_spectrum_flag(self, tmp_path, capsys):
        src = tmp_path / "y.json"
        write_matrix(src, np.diag([1e200, 0.0, -1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["chart", "--w", "1 2 3", "--forward", str(src), "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "chart_coords.json").read_text())["h"] == [1e200, 0.0, -1e200]

    def test_inverse_of_huge_coordinates_is_failure(self, tmp_path, capsys):
        coords_path = tmp_path / "coords.json"
        write_matrix(coords_path, np.tril(np.full((3, 3), 1e200), -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                ["chart", "--w", "2 1 3", "--h", "2,0,-2", "--inverse", str(coords_path), "--out", str(tmp_path)]
            )
        assert code == 1
        assert capsys.readouterr().err.startswith("failure: column ")

    def test_bad_spectrum_is_input_error(self, tmp_path, flag_matrix):
        code = run_cli(
            ["chart", "--w", "2 1 3", "--h", "0,2,-2", "--forward", str(flag_matrix), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_permutation_of_the_wrong_size_is_input_error(self, tmp_path, flag_matrix, capsys):
        code = run_cli(["chart", "--w", "2 1", "--forward", str(flag_matrix), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "dimension mismatch" in err and "is 3" in err and "is 2" in err


class TestFlow:
    def test_trajectory_and_diagnostics(self, tmp_path, flag_matrix):
        out = tmp_path / "flow"
        code = run_cli(
            ["flow", "--field", "toda", "--x0", str(flag_matrix), "--tmax", "2.0", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,e1_1,e1_2")
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["power_trace_drift"] < 1e-8
        assert diag["t_final"] == pytest.approx(2.0)

    def test_start_whose_witness_overflows_is_input_error(self, tmp_path, overflowing_start, capsys):
        path = tmp_path / "big.json"
        write_matrix(path, overflowing_start)
        out = tmp_path / "flow"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["flow", "--x0", str(path), "--out", str(out)])
        assert code == 2
        assert "power-trace witness" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_matrix_above_twelve_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "x13.json"
        write_matrix(path, np.diag(np.linspace(1.0, -1.0, 13)))
        code = run_cli(["flow", "--x0", str(path), "--out", str(tmp_path / "flow")])
        assert code == 2
        assert "n=13" in capsys.readouterr().err
        assert not (tmp_path / "flow" / "trajectory.csv").exists()

    def test_step_underflow_writes_the_partial_run(self, tmp_path, capsys):
        # a stiff sym start: the first step is rejected until it underflows
        x0 = np.array([[1e7, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, -1e7]])
        path = tmp_path / "stiff.json"
        write_matrix(path, x0)
        out = tmp_path / "flow"
        argv = ["flow", "--field", "sym", "--x0", str(path), "--tmax", "1", "--out", str(out)]
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1
        with pytest.raises(StiffnessError) as raised:
            integrate(sym_field, x0, IntegratorConfig(t_max=1.0))
        assert err == f"failure: {raised.value}\n"
        assert err.startswith("failure: step size underflowed")
        partial = raised.value.trajectory
        times, states = read_trajectory_csv(out / "trajectory.csv")
        assert times.tolist() == partial.times.tolist()
        assert np.array_equal(states, np.stack(partial.states))
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag == trajectory_diagnostics(partial)
        assert diag["rejected_steps"] > 0

    def test_a_horizon_below_the_smallest_step_takes_one_step(self, tmp_path, flag_matrix):
        out = tmp_path / "flow"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["flow", "--x0", str(flag_matrix), "--tmax", "1e-15", "--out", str(out)])
        assert code == 0
        times, _ = read_trajectory_csv(out / "trajectory.csv")
        assert times.tolist() == [0.0, 1e-15]

    def test_a_max_step_below_the_smallest_step_is_input_error(self, tmp_path, flag_matrix, capsys):
        out = tmp_path / "flow"
        code = run_cli(["flow", "--x0", str(flag_matrix), "--max-step", "1e-15", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: max_step must be at least")
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path, flag_matrix):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli(["flow", "--x0", str(flag_matrix), "--tmax", "1.0", "--out", str(out)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "diagnostics.json").read_bytes() == (out2 / "diagnostics.json").read_bytes()


class TestCells:
    def test_classification_payload(self, tmp_path):
        out = tmp_path / "cells"
        code = run_cli(["cells", "--w", "2 1 3", "--h", "2,0,-2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "cells.json").read_text())
        assert payload["unstable"] == [[2, 1]]
        assert payload["stable"] == [[3, 1], [3, 2]]
        gaps = {tuple(row["pair"]): row["gap"] for row in payload["pairs"]}
        assert gaps[(2, 1)] == 2.0
        assert gaps[(3, 2)] == -4.0

    def test_size_mismatch_is_input_error(self, tmp_path):
        code = run_cli(["cells", "--w", "2 1 3", "--h", "1,-1", "--out", str(tmp_path)])
        assert code == 2


class TestVerify:
    def test_factor_suite_passes(self, tmp_path):
        out = tmp_path / "verify"
        code = run_cli(["verify", "--suite", "factor", "--n", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["checks"] > 0
        assert (out / "check_factor_kan_recomposition.json").exists()

    def test_verify_reruns_byte_identical(self, tmp_path):
        outs = [tmp_path / "v1", tmp_path / "v2"]
        for out in outs:
            assert run_cli(["verify", "--suite", "factor", "--seed", "3", "--out", str(out)]) == 0
        for name in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_full_suite_smoke(self, tmp_path):
        out = tmp_path / "all"
        code = run_cli(["verify", "--suite", "all", "--n", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == 0

    def test_atlas_suite_at_largest_n(self, tmp_path):
        out = tmp_path / "atlas12"
        start = time.perf_counter()
        code = run_cli(["verify", "--suite", "atlas", "--n", "12", "--seed", "7", "--out", str(out)])
        assert time.perf_counter() - start < 60.0
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["failures"] == 0

    def test_toda_suite_above_eight(self, tmp_path):
        out = tmp_path / "toda10"
        code = run_cli(["verify", "--suite", "toda", "--n", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["failures"] == 0

    def test_one_file_per_check(self, tmp_path):
        # seed 100 draws the identity for the second fiber experiment at n = 3
        out = tmp_path / "sym"
        code = run_cli(["verify", "--suite", "sym", "--n", "3", "--seed", "100", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(list(out.glob("check_*.json"))) == summary["checks"]

    @pytest.mark.parametrize("n", [2, 12])
    def test_sym_suite_at_the_ends_of_the_range(self, tmp_path, n):
        out = tmp_path / f"sym{n}"
        code = run_cli(["verify", "--suite", "sym", "--n", str(n), "--seed", "7", "--out", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["failures"] == 0

    def test_failing_checks_are_written(self, tmp_path, monkeypatch):
        failing = CheckReport("factor.x", 2.0, 1, 1.0)
        monkeypatch.setitem(_SUITES, "factor", lambda n, seed: [failing])
        out = tmp_path / "verify"
        assert run_cli(["verify", "--suite", "factor", "--out", str(out)]) == 1
        assert json.loads((out / "check_factor_x.json").read_text()) == report_to_dict(failing)
        assert json.loads((out / "summary.json").read_text())["failures"] == 1

    def test_bad_n_rejected(self, tmp_path):
        code = run_cli(["verify", "--n", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch, flag_matrix):
        monkeypatch.setenv("TODA_ATLAS_OUT", str(tmp_path / "envout"))
        code = run_cli(["cells", "--w", "2 1", "--h", "1,-1"])
        assert code == 0
        assert (tmp_path / "envout" / "cells.json").exists()


class TestFlagErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chart", "--w", "2 x 3", "--forward", "y.json"],
            ["cells", "--w", "2 1 3", "--h", "0,2,-2"],
            ["verify", "--seed", "-1"],
            ["verify", "--n", "13"],
            ["flow", "--x0", "x.json", "--tmax", "0"],
            ["chart", "--w", "2 1 3", "--inverse", "lower.json"],
            ["cells", "--w", "2 1 3", "--h", "2,-2"],
            ["chart", "--w", "2 1 3", "--h", "2,-2", "--forward", "y.json"],
            ["cells", "--w", "2 1", "--h", "inf,-inf"],
            ["cells", "--w", "2 1", "--h", "1e308,-1e308"],
        ],
        ids=[
            "malformed-w", "non-decreasing-h", "negative-seed", "n-too-large", "zero-tmax",
            "inverse-without-h", "cells-size-mismatch", "chart-size-mismatch",
            "infinite-h", "overflowing-h-spread",
        ],
    )
    def test_rejected_before_out_dir_is_made(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["factorize", "--input", "one.json"],
            ["flow", "--x0", "one.json"],
            ["chart", "--w", "2 1", "--forward", "one.json"],
            ["chart", "--w", "2 1", "--h", "1,-1", "--inverse", "one.json"],
            ["factorize", "--input", "nope.json"],
        ],
        ids=["factorize", "flow", "chart-forward", "chart-inverse", "missing-file"],
    )
    def test_refused_input_leaves_no_out_dir(self, tmp_path, capsys, argv):
        (tmp_path / "one.json").write_text('{"n": 1, "entries": [[1.0]]}')
        out = tmp_path / "out"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestIntegratorFlags:
    def test_flags_reach_the_integrator(self, tmp_path, flag_matrix):
        out = tmp_path / "flags"
        code = run_cli(
            [
                "flow", "--x0", str(flag_matrix), "--tmax", "2.5", "--rel-tol", "1e-9",
                "--abs-tol", "1e-11", "--max-step", "0.3", "--stop-field-norm", "1e-9",
                "--out", str(out),
            ]
        )
        assert code == 0
        cfg = IntegratorConfig(
            rel_tol=1e-9, abs_tol=1e-11, max_step=0.3, t_max=2.5, stop_field_norm=1e-9
        )
        expected = integrate(toda_field, read_matrix(flag_matrix), cfg)
        times, states = read_trajectory_csv(out / "trajectory.csv")
        assert times.tobytes() == expected.times.tobytes()
        assert len(states) == len(expected.states)
        for got, want in zip(states, expected.states):
            assert got.tobytes() == want.tobytes()

    def test_defaults_are_the_integrator_config_defaults(self):
        # one owner for the tolerances; --tmax keeps its own 30
        args = _build_parser().parse_args(["flow", "--x0", "x.json"])
        defaults = IntegratorConfig()
        for name in ("rel_tol", "abs_tol", "max_step", "stop_field_norm"):
            assert getattr(args, name) == getattr(defaults, name), name
        assert args.tmax == 30.0


def rng0():
    return rng_from_seed(0)
