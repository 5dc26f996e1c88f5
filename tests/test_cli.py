import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specrad.cli
import specrad.tensorfile
from conftest import chain, golden_file_text
from specrad import DenseTensor, SolverConfig, random_tensor, read_tensor, solve, write_tensor
from specrad.cli import build_parser, main
from specrad.tensor import MAX_ORDER


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(golden_file_text())
    return str(path)


class TestSolveCommand:
    def test_prints_rho_and_exits_zero(self, golden_path, capsys):
        assert main(["solve", golden_path]) == 0
        out = capsys.readouterr().out
        assert "rho = 5.79262" in out
        assert "converged = yes" in out

    def test_unshifted_run_exits_two_with_report(self, golden_path, capsys):
        assert main(["solve", golden_path, "--alpha", "0"]) == 2
        out = capsys.readouterr().out
        assert "converged = no" in out
        assert "rho =" in out

    def test_trace_csv_row_two(self, golden_path, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        assert main(["solve", golden_path, "--trace-csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,r,R,gap,mid"
        assert lines[2] == "2,5.24894,8.89712,3.64818,7.07303"
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

    def test_trace_csv_over_a_longer_file_leaves_only_the_new_text(self, golden_path, tmp_path):
        csv_path, fresh = tmp_path / "tr.csv", tmp_path / "fresh.csv"
        assert main(["solve", golden_path, "--alpha", "0", "--trace-csv", str(csv_path)]) == 2
        assert main(["solve", golden_path, "--alpha", "2.5", "--trace-csv", str(csv_path)]) == 0
        assert main(["solve", golden_path, "--alpha", "2.5", "--trace-csv", str(fresh)]) == 0
        assert csv_path.read_bytes() == fresh.read_bytes()
        assert len(csv_path.read_text().splitlines()) == 22

    def test_oracle_flag_prints_bracket(self, golden_path, capsys):
        assert main(["solve", golden_path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle bracket = [6.79262, 6.79262]" in out

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

    def test_solver_flags_are_respected(self, golden_path, capsys):
        assert main(["solve", golden_path, "--max-iter", "3"]) == 2
        out = capsys.readouterr().out
        assert "iterations = 3" in out

    def test_defaults_are_the_solver_defaults(self):
        args = build_parser().parse_args(["solve", "t.txt"])
        config = SolverConfig()
        assert (args.alpha, args.tol, args.max_iter) == (config.alpha, config.tol, config.max_iter)

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 1 1.0\n1 1 2.0\n")
        assert main(["solve", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_condition_violation_names_row(self, tmp_path, capsys):
        path = tmp_path / "zero_row.txt"
        path.write_text("2 2\n2 1 1.0\n")
        assert main(["solve", str(path), "--alpha", "0"]) == 1
        assert "row 1" in capsys.readouterr().err

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


class TestCheckCommand:
    def test_golden_is_reducible_exit_three(self, golden_path, capsys):
        assert main(["check", golden_path]) == 3
        assert "reducible, witness I = {1,2}" in capsys.readouterr().out

    def test_positive_tensor_is_irreducible(self, tmp_path, capsys):
        path = tmp_path / "pos.txt"
        write_tensor(random_tensor(3, 3, seed=6), path)
        assert main(["check", str(path)]) == 0
        assert "irreducible" in capsys.readouterr().out

    def test_superdiagonal_tensor_is_reducible(self, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        path.write_text("3 3\n1 1 1 1.0\n2 2 2 1.0\n3 3 3 1.0\n")
        assert main(["check", str(path)]) == 3
        assert "reducible" in capsys.readouterr().out

    def test_bad_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        assert main(["check", str(path)]) == 1

    def test_huge_header_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("20000000 1000\n")
        assert main(["check", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_order_above_the_array_rank_limit_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text(f"{MAX_ORDER + 1} 1\n")
        assert main(["check", str(path)]) == 1
        assert "line 1: order" in capsys.readouterr().err


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

    def test_cap_exceeded_exits_one(self, capsys):
        assert main(["random", "--m", "3", "--n", "10000", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "10000" in err and "3" in err

    def test_huge_order_exits_one(self, capsys):
        assert main(["random", "--m", "20000000", "--n", "1000"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_order_above_the_array_rank_limit_exits_one(self, capsys):
        assert main(["random", "--m", str(MAX_ORDER), "--n", "1"]) == 0
        capsys.readouterr()
        assert main(["random", "--m", str(MAX_ORDER + 1), "--n", "1"]) == 1
        assert f"cap of {MAX_ORDER}, got {MAX_ORDER + 1}" in capsys.readouterr().err


def _by_random(*argv):
    def write(name):
        assert main(["random", *argv, "--out", name]) == 0

    return write


def _by_text(text):
    return lambda name: Path(name).write_text(text)


def _by_tensor(tensor):
    return lambda name: write_tensor(tensor, name)


# The input files of the command table, each written into the working
# directory by the row that names it.
CLI_FILES = {
    "t.txt": _by_random("--m", "3", "--n", "30", "--seed", "1"),
    # dense order 16: the irreducibility walk over 2**15 index tuples
    "hi.txt": _by_random("--m", "16", "--n", "2", "--seed", "1"),
    # the order cap is 25 on every numpy, the 1.23 floor included
    "deep.txt": _by_random("--m", "25", "--n", "1"),
    "chain_cyclic.txt": _by_tensor(chain(40, 3, cyclic=True)),
    "chain_open.txt": _by_tensor(chain(40, 3, cyclic=False)),
    # a bad value and a repeated tuple: the bulk pass rejects both, the
    # per-line pass names the line
    "nan.txt": _by_text("2 2\n1 1 1.5\n2 1 nan\n"),
    "dup.txt": _by_text("2 2\n1 1 1.5\n1 1 2.5\n"),
    # cyclic chain a[i, i+1, i+1] = i: the oracle cycles, so it skips to its cap
    "cycle.txt": _by_text("3 3\n1 2 2 1\n2 3 3 2\n3 1 1 3\n"),
    "golden.txt": _by_text(golden_file_text()),
}


def _row(argv, code, expected, written=None):
    label = " ".join(arg or '""' for arg in argv)
    return pytest.param(argv, code, expected, written or {}, id=label)


# argv, exit code, expected text (in stderr for exit 1, else in stdout), and
# the files the command writes with their first line
COMMAND_TABLE = [
    _row(["solve", "t.txt"], 0, "converged = yes"),
    _row(["solve", "--oracle", "t.txt"], 0, "oracle bracket = [4490.98, 4490.98]"),
    _row(["solve", "--alpha", "0", "t.txt"], 0, "rho_shifted = 4489.98"),
    _row(
        ["solve", "--trace-csv", "tr.csv", "--normalize", "t.txt"],
        0,
        ", 1, ",
        {"tr.csv": "k,r,R,gap,mid"},
    ),
    _row(["check", "t.txt"], 0, "irreducible"),
    _row(["check", "hi.txt"], 0, "irreducible"),
    _row(["solve", "deep.txt"], 0, "converged = yes"),
    _row(["check", "deep.txt"], 0, "irreducible"),
    _row(["check", "chain_cyclic.txt"], 0, "irreducible"),
    _row(["check", "chain_open.txt"], 3, "reducible, witness I = {2,3,"),
    *(
        _row([verb, name], 1, expected)
        for verb in ("solve", "check")
        for name, expected in (
            ("nan.txt", "line 3: value must be finite"),
            ("dup.txt", "line 3: duplicate index tuple (1, 1)"),
        )
    ),
    _row(["solve", "--alpha", "0", "--oracle", "cycle.txt"], 2, "10000 iterations, not converged"),
    # an empty path is as unusable as any other
    _row(["solve", "golden.txt", "--trace-csv", ""], 1, "error: [Errno 2]"),
    _row(["random", "--m", "2", "--n", "2", "--out", ""], 1, "error: [Errno 2]"),
]


@pytest.mark.parametrize(("argv", "code", "expected", "written"), COMMAND_TABLE)
def test_command_table(tmp_path, monkeypatch, capsys, argv, code, expected, written):
    monkeypatch.chdir(tmp_path)
    for name in argv:
        if name in CLI_FILES:
            CLI_FILES[name](name)
    inputs = set(os.listdir())
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert expected in (err if code == 1 else out)
    if "--out" in argv:
        assert out == ""
    assert set(os.listdir()) == inputs | set(written)
    for name, first_line in written.items():
        assert Path(name).read_text().splitlines()[0] == first_line


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
