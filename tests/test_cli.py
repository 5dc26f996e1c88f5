import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specrad.cli
import specrad.tensorfile
from conftest import CLI_CASES, CLI_FILES, golden_file_text
from specrad import DenseTensor, SolverConfig, random_tensor, read_tensor, solve, write_tensor
from specrad.cli import build_parser, main


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(golden_file_text())
    return str(path)


class TestSolveCommand:
    def test_trace_csv_over_a_longer_file_leaves_only_the_new_text(self, golden_path, tmp_path):
        csv_path, fresh = tmp_path / "tr.csv", tmp_path / "fresh.csv"
        assert main(["solve", golden_path, "--alpha", "0", "--trace-csv", str(csv_path)]) == 2
        assert main(["solve", golden_path, "--alpha", "2.5", "--trace-csv", str(csv_path)]) == 0
        assert main(["solve", golden_path, "--alpha", "2.5", "--trace-csv", str(fresh)]) == 0
        assert csv_path.read_bytes() == fresh.read_bytes()
        assert len(csv_path.read_text().splitlines()) == 22

    @pytest.mark.parametrize(
        ("alpha", "code", "lines", "csv_sha256"),
        [
            (
                "0",
                2,
                [
                    "rho = 6.37",
                    "rho_shifted = 6.37",
                    "bounds = [3.72, 9.02]",
                    "gap = 5.3",
                    "iterations = 100",
                    "converged = no",
                    "oracle bracket = [3.72, 9.02] (mid 6.37, 10000 iterations, not converged)",
                ],
                "d790f5b6a8309f6a7373fd38c9ac82d06e4aa06ee7548b75b1859694a96ae42a",
            ),
            (
                "1",
                0,
                [
                    "rho = 5.79262",
                    "rho_shifted = 6.79262",
                    "bounds = [6.79262, 6.79262]",
                    "gap = 9.51629e-08",
                    "iterations = 51",
                    "converged = yes",
                    "oracle bracket = [6.79262, 6.79262] (mid 6.79262, 65 iterations, converged)",
                ],
                "124ea5857d0772a5609fdca2ed1500f817c5cce612931f0c2ad13a2bcab0ba84",
            ),
            (
                "2.5",
                0,
                [
                    "rho = 5.79262",
                    "rho_shifted = 8.29262",
                    "bounds = [8.29262, 8.29262]",
                    "gap = 4.78886e-08",
                    "iterations = 20",
                    "converged = yes",
                    "oracle bracket = [8.29262, 8.29262] (mid 8.29262, 25 iterations, converged)",
                ],
                "a2ba654bbecbad11f53bb525083a5ba0764d8ad8097e8528170a515aa9df741c",
            ),
        ],
    )
    def test_golden_report_text_is_pinned(
        self, golden_path, tmp_path, capsys, alpha, code, lines, csv_sha256
    ):
        # every line but the residual and the eigenvector is pinned byte for
        # byte, and so is the whole trace file
        csv_path = tmp_path / "trace.csv"
        args = ["solve", golden_path, "--oracle", "--alpha", alpha, "--trace-csv", str(csv_path)]
        assert main(args) == code
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if not line.startswith(("residual", "eigenvector"))] == lines
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha256

    def test_trace_is_kept_only_for_the_csv(self, golden_path, tmp_path, monkeypatch, capsys):
        seen = []

        def recording_solve(tensor, config):
            seen.append(config.trace)
            return solve(tensor, config)

        monkeypatch.setattr(specrad.cli, "solve", recording_solve)
        assert main(["solve", golden_path]) == 0
        assert main(["solve", golden_path, "--trace-csv", str(tmp_path / "trace.csv")]) == 0
        assert seen == [False, True]
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 53

    def test_normalize_flag_rescales_eigenvector(self, golden_path, capsys):
        main(["solve", golden_path, "--normalize"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("eigenvector"))
        values = [float(v) for v in line.split("[")[1].rstrip("]").split(",")]
        assert max(values) == pytest.approx(1.0)

    def test_defaults_are_the_solver_defaults(self):
        args = build_parser().parse_args(["solve", "t.txt"])
        config = SolverConfig()
        assert (args.alpha, args.tol, args.max_iter) == (config.alpha, config.tol, config.max_iter)

    def test_overflowing_row_sum_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.txt"
        path.write_text("2 2\n1 1 1e308\n1 2 1e308\n2 2 1\n")
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: row 1 of the shifted tensor has a row sum that overflows" in captured.err

    def test_oracle_midpoint_is_finite_near_the_largest_float(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        write_tensor(DenseTensor(np.full((3, 3, 3), 1e307)), str(path))
        assert main(["solve", str(path), "--alpha", "0", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        assert "rho = 9e+307" in out
        assert "oracle bracket = [9e+307, 9e+307] (mid 9e+307, 0 iterations, converged)" in out


class TestRandomCommand:
    def test_out_roundtrips_bit_identical(self, tmp_path):
        path = tmp_path / "random.txt"
        assert main(["random", "--m", "3", "--n", "4", "--seed", "11", "--out", str(path)]) == 0
        assert read_tensor(path) == random_tensor(3, 4, seed=11)

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        path = tmp_path / "random.txt"
        main(["random", "--m", "2", "--n", "3", "--seed", "5", "--out", str(path)])
        main(["random", "--m", "2", "--n", "3", "--seed", "5"])
        assert capsys.readouterr().out == path.read_text()

    def test_missing_out_directory_fails_before_rendering(self, tmp_path, monkeypatch, capsys):
        rendered = []
        monkeypatch.setattr(
            specrad.tensorfile, "repr", lambda v: rendered.append(v) or repr(v), raising=False
        )
        path = tmp_path / "missing" / "x.txt"
        assert main(["random", "--m", "3", "--n", "80", "--seed", "1", "--out", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not path.parent.exists()
        assert rendered == []

    def test_out_over_a_longer_file_leaves_only_the_new_text(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        assert main(["random", "--m", "3", "--n", "6", "--seed", "1", "--out", str(path)]) == 0
        assert main(["random", "--m", "3", "--n", "5", "--seed", "1", "--out", str(path)]) == 0
        assert main(["random", "--m", "3", "--n", "5", "--seed", "1"]) == 0
        assert path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize(("argv", "code", "expected", "written"), CLI_CASES)
def test_command_table(tmp_path, monkeypatch, capsys, argv, code, expected, written):
    monkeypatch.chdir(tmp_path)
    for name in argv:
        if name in CLI_FILES:
            CLI_FILES[name](name)
    inputs = set(os.listdir())
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert expected in (err if code == 1 else out)
    if "--out" in argv:
        assert out == ""
    assert set(os.listdir()) == inputs | set(written)
    for name, start in written.items():
        assert Path(name).read_text().startswith(start)


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(golden_file_text())
    proc = subprocess.run(
        [sys.executable, "-m", "specrad", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rho = 5.79262" in proc.stdout


def test_cli_import_leaves_the_executor_out():
    # random_tensor imports concurrent.futures, and with it logging, only to
    # split a large fill, so that every CLI process is spared the ~2 ms
    code = "import specrad.cli, sys; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
