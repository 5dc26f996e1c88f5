import subprocess
import sys

import pytest

from conftest import golden_file_text
from specrad import SolverConfig, random_tensor, read_tensor, write_tensor
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

    def test_oracle_flag_prints_bracket(self, golden_path, capsys):
        assert main(["solve", golden_path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle bracket = [6.79262, 6.79262]" in out

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

    def test_cap_exceeded_exits_one(self, capsys):
        assert main(["random", "--m", "3", "--n", "10000", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "10000" in err and "3" in err

    def test_huge_order_exits_one(self, capsys):
        assert main(["random", "--m", "20000000", "--n", "1000"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_order_above_the_array_rank_limit_exits_one(self, capsys):
        order = str(MAX_ORDER + 1)
        assert main(["random", "--m", order, "--n", "1"]) == 1
        assert f"order {order} exceeds numpy's maximum array rank" in capsys.readouterr().err


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
