"""The three workloads: seeded inputs, one op, and the answer checks.

An op is one pass over the workload's fixed instance list (for ``cli``, one
cycle of CLI commands).  ``batch`` runs it and is the only timed call;
``check`` runs after it and returns one list of problems per attempted
operation, so a raised exception, an unexpected exit code and a wrong
answer all count as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import checks
import specrad  # ops call through the package, where the traced run puts its spans
from specrad import DEFAULT_TOL, DenseTensor, SolverConfig, random_tensor

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60  # a command takes seconds; a hung child must not outlast the run


def _attempt(fn, *args):
    """Call ``fn``; a raised exception is returned as the result, so the
    batch goes on and ``check`` counts the operation as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
        return exc


def _load_child(path: Path):
    """What ``child.py`` wrote, or None if the child died before writing."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class InProcess:
    """Workloads whose op runs in this process; tracing sees it directly."""

    def warmup(self):
        self.check(self.batch())

    def traced_batch(self, tracer):
        return self.batch(), [tracer.take()]

    def summary(self) -> dict:
        return {}


class DenseSolve(InProcess):
    """Large dense tensors: the sweep streams ``n**m`` entries, so memory
    bandwidth and per-sweep copies set the time."""

    SHAPES = ((100, 3), (300, 3), (50, 4), (16, 6))
    TINY_SHAPES = ((6, 3), (4, 4))
    CONFIG = SolverConfig(trace=False)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.shapes = self.TINY_SHAPES if tiny else self.SHAPES
        self.tensors: list[DenseTensor] = []
        self.op_entries = [n**m for n, m in self.shapes]

    def build(self):
        self.tensors = []  # let the previous build go before making the next
        self.tensors = [
            random_tensor(m, n, self.seed * 1000 + i) for i, (n, m) in enumerate(self.shapes)
        ]

    def batch(self):
        return [_attempt(specrad.solve, t, self.CONFIG) for t in self.tensors]

    def check(self, results):
        return [
            [repr(r)] if isinstance(r, Exception)
            else checks.check_solve(t.data, self.CONFIG.alpha, self.CONFIG.tol, r)
            for t, r in zip(self.tensors, results)
        ]

    def probe_tensors(self):
        return self.tensors


def sparse_tensor(dim: int, rng, density: float = 0.3) -> DenseTensor:
    """Order-3 tensor with about ``density`` of its entries positive."""
    values = rng.uniform(0.0, 10.0, size=(dim,) * 3)
    return DenseTensor(values * (rng.random(size=(dim,) * 3) < density))


class SmallSolve(InProcess):
    """About a hundred tiny instances: per-call and per-sweep Python
    overhead, the oracle and the two deciders set the time.

    The sparse instances come from a fixed seed; the workload seed draws
    the dense ones.  Sparse draws with n=4 are sometimes degenerate (an
    empty row, or spectral radius 0), and there the oracle stops after
    anywhere from a few hundred to 10000 iterations depending on the values,
    so seeding them would make the batch cost jump by up to 2x between
    seeds.  The fixed set ends with one instance whose first row is empty,
    so that case is in every batch at a fixed cost; the oracle returns a
    non-finite bracket there, which the report counts.
    """

    ONES = ((2, 3), (3, 3), (4, 3), (3, 4))
    DENSE = ((5, 3), (10, 3), (5, 4), (5, 2))
    PER_SHAPE = 10
    SPARSE = 50
    SPARSE_SEED = 0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.per_shape = 1 if tiny else self.PER_SHAPE
        self.sparse = 3 if tiny else self.SPARSE
        self.instances: list[tuple[str, DenseTensor, float]] = []
        self.op_entries: list[int] = []
        self.nonfinite_oracle: list[int] = []

    def build(self):
        rng = np.random.default_rng(self.seed)
        golden = DenseTensor(checks.golden_data())
        items = [("golden", golden, 1.0), ("golden", golden, 0.0)]
        items += [("ones", DenseTensor(np.ones((n,) * m)), 1.0) for n, m in self.ONES]
        for n, m in self.DENSE:
            items += [
                ("dense", DenseTensor(rng.uniform(0.0, 10.0, size=(n,) * m)), 1.0)
                for _ in range(self.per_shape)
            ]
        fixed = np.random.default_rng(self.SPARSE_SEED)
        items += [("sparse", sparse_tensor(4 + i % 7, fixed), 1.0) for i in range(self.sparse)]
        empty_row = sparse_tensor(4, fixed).data.copy()
        empty_row[0] = 0.0
        items.append(("sparse", DenseTensor(empty_row), 1.0))
        self.instances = items
        self.op_entries = [t.entries.size for _, t, _ in items]

    @staticmethod
    def _op(kind, t, alpha):
        report = specrad.solve(t, SolverConfig(alpha=alpha, trace=False))
        estimate = specrad.power_iteration(specrad.add_identity_shift(t, alpha))
        if kind != "sparse":
            return report, estimate, None
        verdicts = specrad.irreducible_iterative(t), specrad.reducible_bruteforce(t)
        return report, estimate, verdicts

    def batch(self):
        return [_attempt(self._op, kind, t, alpha) for kind, t, alpha in self.instances]

    def check(self, results):
        out, nonfinite = [], 0
        for (kind, t, alpha), result in zip(self.instances, results):
            if isinstance(result, Exception):
                out.append([repr(result)])
                continue
            report, estimate, verdicts = result
            problems = checks.check_solve(t.data, alpha, DEFAULT_TOL, report)
            if np.isfinite([estimate.lower, estimate.upper]).all():
                problems += checks.check_oracle(report, estimate)
            else:
                nonfinite += 1
            if kind == "golden":
                problems += checks.check_golden(alpha, report)
            elif kind == "ones":
                problems += checks.check_all_ones(t.data, report)
            elif kind == "sparse":
                problems += checks.check_deciders(t.data, *verdicts)
            out.append(problems)
        self.nonfinite_oracle.append(nonfinite)
        return out

    def probe_tensors(self):
        return [t for _, t, _ in self.instances]

    def summary(self) -> dict:
        return {"oracle_nonfinite_brackets_per_batch": (max(self.nonfinite_oracle), "count")}


def write_tensor_file(path: Path, data: np.ndarray):
    """The benchmark's own writer, so inputs do not depend on the code under test."""
    nonzero = np.argwhere(data)
    lines = [f"{data.ndim} {data.shape[0]}"]
    lines += [" ".join(str(i + 1) for i in index) + f" {float(data[tuple(index)])!r}" for index in nonzero]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _chain(n: int, rng, cyclic: bool) -> np.ndarray:
    """Row ``i`` has one positive entry at ``(i, i+1, i+1)``; the cyclic chain
    closes the loop (irreducible), the open one leaves the last row empty
    (reducible)."""
    data = np.zeros((n, n, n))
    rows = np.arange(n if cyclic else n - 1)
    nxt = (rows + 1) % n
    data[rows, nxt, nxt] = rng.uniform(0.5, 10.0, size=rows.size)
    return data


class Cli:
    """One closed-loop client running ``python -m specrad`` commands, one
    child process at a time: process start, parse, validate, solve, check."""

    FILE_N = 70
    CHAIN_N = 80
    TINY_FILE_N, TINY_CHAIN_N = 8, 6

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.file_n = self.TINY_FILE_N if tiny else self.FILE_N
        self.chain_n = self.TINY_CHAIN_N if tiny else self.CHAIN_N
        self.workdir = workdir
        self.dense_path = workdir / "dense.txt"
        self.cyclic_path = workdir / "chain_cyclic.txt"
        self.open_path = workdir / "chain_open.txt"
        self.golden_path = workdir / "golden.txt"
        self.commands = [
            (
                "random",
                ["random", "--m", "3", "--n", str(self.file_n), "--seed", str(seed),
                 "--out", str(self.dense_path)],
                0,
            ),
            ("solve", ["solve", str(self.dense_path)], 0),
            ("check", ["check", str(self.cyclic_path)], 0),
            ("check_reducible", ["check", str(self.open_path)], 3),
            ("cold", ["solve", str(self.golden_path)], 0),
        ]
        self.op_entries = [self.file_n**3, self.file_n**3, self.chain_n**3, self.chain_n**3, 27]
        self.reference = None
        self.reference_rho = None
        self.open_chain = None
        self.times: dict[str, list[float]] = {key: [] for key, _, _ in self.commands}

    def build(self):
        rng = np.random.default_rng(self.seed)
        write_tensor_file(self.cyclic_path, _chain(self.chain_n, rng, cyclic=True))
        self.open_chain = _chain(self.chain_n, rng, cyclic=False)
        write_tensor_file(self.open_path, self.open_chain)
        write_tensor_file(self.golden_path, checks.golden_data())
        self.reference = random_tensor(3, self.file_n, self.seed)
        report = specrad.solve(self.reference, SolverConfig(trace=False))
        problems = checks.check_solve(self.reference.data, 1.0, DEFAULT_TOL, report)
        if problems:
            raise RuntimeError(f"in-process reference solve failed its check: {problems}")
        self.reference_rho = report.rho

    def warmup(self):
        self._run(self.commands[-1][1], None)

    def _run(self, argv, trace_out):
        if trace_out is None:
            cmd = [sys.executable, "-m", "specrad", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(trace_out), *argv]
        try:
            return subprocess.run(
                cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=BENCH_DIR.parent
            )
        except subprocess.TimeoutExpired as exc:
            return exc

    def _cycle(self, traced: bool):
        results = []
        for i, (key, argv, _expected) in enumerate(self.commands):
            trace_out = self.workdir / f"child{i}.json" if traced else None
            begin = time.perf_counter()
            proc = self._run(argv, trace_out)
            results.append((key, proc, time.perf_counter() - begin, trace_out))
        return results

    def batch(self):
        results = self._cycle(traced=False)
        for key, _proc, seconds, _out in results:
            self.times[key].append(seconds)
        return results

    def traced_batch(self, tracer):
        results = self._cycle(traced=True)
        children = [_load_child(trace_out) for *_, trace_out in results]
        span_lists = [child["spans"] for child in children if child]
        for spans in span_lists:
            for span in spans:
                span[4] = tracer.op  # the whole cycle is one op
        return results, span_lists

    def check(self, results):
        out = []
        for (key, proc, _seconds, _out), (_, argv, expected) in zip(results, self.commands):
            if isinstance(proc, subprocess.TimeoutExpired):
                out.append([f"{argv[0]} timed out"])
                continue
            if proc.returncode != expected:
                out.append([
                    f"{' '.join(argv)} exited {proc.returncode}, expected {expected}: "
                    f"{proc.stderr.strip()}"
                ])
                continue
            if key == "random":
                out.append(checks.check_written_file(self.dense_path, self.reference.data))
            elif key == "solve":
                out.append(checks.check_solve_output(proc.stdout, self.reference_rho))
            elif key == "cold":
                out.append(checks.check_solve_output(proc.stdout, checks.GOLDEN_RHO))
            elif key == "check":
                irreducible = proc.stdout.strip() == "irreducible"
                out.append([] if irreducible else ["check did not print 'irreducible'"])
            else:
                out.append(checks.check_reducible_output(proc.stdout, self.open_chain))
        return out

    def probe_tensors(self):
        return [self.reference, DenseTensor(checks.golden_data())]

    def summary(self) -> dict:
        """Median wall time of each kind of command over the untraced cycles."""
        return {f"cli_{key}_p50_s": (median(times), "s") for key, times in self.times.items() if times}


WORKLOADS = {"dense_solve": DenseSolve, "small_solve": SmallSolve, "cli": Cli}
