#!/usr/bin/env python3
"""Parity corpus: the outcome of every public function on one fixed set of inputs.

    python scripts/parity.py write OUT.json
    python scripts/parity.py compare A.json B.json

``write`` runs the corpus through the ``specrad`` on the import path.  For
each case it records the outcome, or the exception type and message, as a
SHA-256 plus the floats and the iteration counts.  ``compare`` lists the
cases that are missing on one side or whose hash differs.  For those it
reports the largest relative difference of the floats and every change in
an iteration count.  It exits 1 when any case differs.

To compare a change with its parent commit::

    mkdir parent && git archive PARENT | tar -x -C parent
    PYTHONPATH=parent/src python scripts/parity.py write parent.json
    PYTHONPATH=src python scripts/parity.py write change.json
    PYTHONPATH=src python scripts/parity.py compare parent.json change.json

The corpus:

- the acceptance ensembles: the golden tensor, the random ``(5,3)``,
  ``(10,3)`` and ``(5,4)`` tables, the oracle pairs, the positive
  matrices, the contraction tensors, the 100 sparse decider inputs and the
  all-ones tensors;
- the ``small_solve`` benchmark instances for seeds 1 to 3;
- cyclic and open chains for ``n <= 80`` at orders 2 and 3, ``n <= 30`` at
  order 4, and ``(200,2)``;
- the zero and empty-row tensors, ``(20,2)``, ``(2,20)``, the order cap and
  the shapes just past it;
- golden at ``alpha`` 0, 1 and 2.5 with ``max_iter`` 100 and 5000;
- ``random_tensor(3, 10, 1)`` scaled from ``2**-1000`` to ``1e300``;
- tensor files: the bulk/per-line parse cases, header and line errors, and
  files read from a path with and without a byte-order mark;
- caller arrays of every dtype, as tensors and as vector arguments, and
  vector arguments whose ratio or defect leaves the float range;
- superdiagonal shifts and solver configurations, finite or not;
- the CLI on golden: ``solve`` with its flags, ``check`` and ``random``,
  both with an empty output path, and ``random`` into a missing directory.

Shapes are written ``(n, m)``: dimension, then order.  Floats of an array
with more than ``FLOAT_CAP`` entries are summarised by its minimum, maximum
and sum; the hash covers every byte.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

import specrad
from specrad import (
    DenseTensor,
    SolverConfig,
    add_identity_shift,
    contract,
    contraction_factor,
    init_state,
    irreducible_iterative,
    power_iteration,
    random_tensor,
    read_tensor,
    reducible_bruteforce,
    row_sums,
    solve,
    step,
    write_tensor,
    write_trace_csv,
)
from specrad.cli import main as cli_main
from specrad.oracles import collatz_wielandt_bounds
from specrad.solver import residual
from specrad.tensor import MAX_ORDER, diagonal_similarity

FLOAT_CAP = 256
WRITE_CAP = 20_000  # entries; larger tensors skip the file round trip

GOLDEN_TEXT = "3 3\n1 2 2 3.72\n2 1 1 9.02\n3 1 1 9.55\n"


def golden_data() -> np.ndarray:
    data = np.zeros((3, 3, 3))
    data[0, 1, 1], data[1, 0, 0], data[2, 0, 0] = 3.72, 9.02, 9.55
    return data


# ---------------------------------------------------------------- recording


def _walk(value, digest, floats: list, counts: list) -> None:
    """Feed ``value`` into ``digest`` and collect its floats and iteration counts."""
    if isinstance(value, DenseTensor):
        value = value.data
    if dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if field.name == "iterations":
                counts.append(int(item))
            digest.update(field.name.encode())
            _walk(item, digest, floats, counts)
    elif isinstance(value, (list, tuple)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            _walk(item, digest, floats, counts)
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
        flat = value.reshape(-1).astype(float)
        if flat.size > FLOAT_CAP:
            with np.errstate(all="ignore"):
                flat = np.array([flat.min(), flat.max(), flat.sum()])
        floats.extend(flat.tolist())
    elif isinstance(value, (float, np.floating)):
        digest.update(float(value).hex().encode())
        floats.append(float(value))
    elif value is None or isinstance(value, (bool, int, str, np.bool_, np.integer)):
        digest.update(f"{type(value).__name__}:{value!r}".encode())
    else:
        raise TypeError(f"cannot record a {type(value).__name__}")


def record(thunk) -> dict:
    """Outcome of ``thunk()``: SHA-256, floats, iteration counts, error, warnings."""
    digest, floats, counts, error = hashlib.sha256(), [], [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = thunk()
        except Exception as exc:  # the outcome of a case may be any exception
            error = f"{type(exc).__name__}: {exc}"
            digest.update(error.encode())
        else:
            _walk(value, digest, floats, counts)
    notes = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    for note in notes:
        digest.update(note.encode())
    return {
        "sha256": digest.hexdigest(),
        "error": error,
        "warnings": notes,
        "counts": counts,
        "floats": floats,
    }


# ------------------------------------------------------------------ corpus


def tensor_cases(name, build, alphas, max_iters=(100,)):
    """Every public function on the tensor ``build()`` returns."""
    try:
        t = build()
    except Exception:  # the build case records it
        yield f"{name} | build", build
        return
    yield f"{name} | build", lambda: (t, row_sums(t))
    rng = np.random.default_rng(t.dim)
    x = rng.uniform(0.5, 2.0, size=t.dim)
    for alpha in alphas:
        for max_iter in max_iters:
            config = SolverConfig(alpha=alpha, max_iter=max_iter)
            yield f"{name} | solve alpha={alpha} max_iter={max_iter}", lambda c=config: solve(t, c)
        yield f"{name} | power_iteration alpha={alpha}", lambda a=alpha: power_iteration(
            add_identity_shift(t, a)
        )
    yield f"{name} | step", lambda: step(init_state(t, SolverConfig()))
    yield f"{name} | contraction_factor", lambda: contraction_factor(init_state(t, SolverConfig()))
    yield f"{name} | at the solve eigenpair", lambda: _at_eigenpair(t)
    yield f"{name} | contract", lambda: contract(t, x)
    yield f"{name} | diagonal_similarity", lambda: diagonal_similarity(t, x)
    yield f"{name} | irreducible_iterative", lambda: irreducible_iterative(t)
    yield f"{name} | reducible_bruteforce", lambda: reducible_bruteforce(t)
    if t.entries.size <= WRITE_CAP:
        yield f"{name} | write_tensor", lambda: _round_trip(t)


def _at_eigenpair(t: DenseTensor):
    report = solve(t, SolverConfig(trace=False))
    shifted = add_identity_shift(t, 1.0)
    return (
        residual(shifted, report.rho_shifted, report.eigenvector),
        collatz_wielandt_bounds(shifted, report.eigenvector),
    )


def _round_trip(t: DenseTensor):
    buffer = io.StringIO()
    write_tensor(t, buffer)
    text = buffer.getvalue()
    return text, read_tensor(io.StringIO(text)) == t


def _chain(n: int, m: int, cyclic: bool) -> DenseTensor:
    """Row ``i`` has one positive entry, at ``(i, i+1, ..., i+1)``; the open
    chain leaves its last row empty."""
    data = np.zeros((n,) * m)
    rows = np.arange(n if cyclic else n - 1)
    values = np.random.default_rng(100 * n + m).uniform(0.5, 10.0, size=rows.size)
    data[(rows,) + ((rows + 1) % n,) * (m - 1)] = values
    return DenseTensor(data)


def _sparse(order: int, dim: int, seed: int) -> DenseTensor:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 10.0, size=(dim,) * order)
    return DenseTensor(values * (rng.random(size=(dim,) * order) < 0.3))


def _empty_row() -> DenseTensor:
    data = np.random.default_rng(0).uniform(0.0, 10.0, size=(4, 4, 4))
    data[0] = 0.0
    return DenseTensor(data)


def _small_solve_instances(seed: int):
    """The ``small_solve`` benchmark batch as ``(name, tensor)``."""
    rng = np.random.default_rng(seed)
    out = [(f"ones ({n},{m})", DenseTensor(np.ones((n,) * m))) for n, m in ONES_SHAPES]
    for n, m in ((5, 3), (10, 3), (5, 4), (5, 2)):
        for i in range(10):
            data = rng.uniform(0.0, 10.0, size=(n,) * m)
            out.append((f"dense ({n},{m}) #{i}", DenseTensor(data)))
    fixed = np.random.default_rng(0)
    for i in range(51):
        dim = 4 + i % 7 if i < 50 else 4
        values = fixed.uniform(0.0, 10.0, size=(dim,) * 3)
        values *= fixed.random(size=(dim,) * 3) < 0.3
        if i == 50:
            values[0] = 0.0
        out.append((f"sparse #{i}", DenseTensor(values)))
    return out


ONES_SHAPES = ((2, 3), (3, 3), (4, 3), (3, 4))
CHAIN_DIMS = {  # order: dimensions
    2: (2, 3, 5, 10, 20, 40, 80, 200),
    3: (2, 3, 5, 10, 20, 40, 80),
    4: (2, 3, 5, 10, 20, 30),
}
SCALES = (2.0**-1000, 1e-300, 1e-20, 1e-10, 1e-6, 1.0, 1e9, 1e200, 1e300)
BOTH = (1.0, 0.0)


def _solver_inputs():
    """``(name, build, alphas)`` for every tensor input but golden."""
    for n, m in ((5, 3), (10, 3), (5, 4)):
        for i in range(10):
            build = lambda m=m, n=n, s=100 * n + 10 * m + i: random_tensor(m, n, s)  # noqa: E731
            yield f"acceptance ({n},{m}) #{i}", build, (1.0,)
    for i in range(20):
        yield f"oracle pair #{i}", lambda i=i: random_tensor(3, 5, 500 + i), (1.0,)
    for seed in range(10):
        yield f"positive matrix #{seed}", lambda s=seed: _positive_matrix(s), BOTH
        yield f"contraction (4,3) #{seed}", lambda s=seed: random_tensor(3, 4, s), (1.0,)
    dims = np.random.default_rng(9000)
    for i in range(100):
        dim = int(dims.integers(2, 9))
        yield f"decider sparse #{i} (dim {dim})", lambda d=dim, i=i: _sparse(3, d, 9000 + i), (1.0,)
    for m in (2, 3, 4):
        for n in (2, 3):
            yield f"all ones ({n},{m})", lambda n=n, m=m: DenseTensor(np.ones((n,) * m)), (1.0,)
    for seed in (1, 2, 3):
        for name, t in _small_solve_instances(seed):
            # only the dense draws depend on the seed
            if seed == 1 or name.startswith("dense"):
                yield f"small_solve seed {seed} {name}", lambda t=t: t, BOTH
    for m, dims in CHAIN_DIMS.items():
        for n in dims:
            for cyclic, kind in ((True, "cyclic"), (False, "open")):
                yield f"{kind} chain ({n},{m})", lambda n=n, m=m, c=cyclic: _chain(n, m, c), BOTH
    yield "zero (3,3)", lambda: DenseTensor(np.zeros((3, 3, 3))), BOTH
    yield "zero (1,2)", lambda: DenseTensor(np.zeros((1, 1))), BOTH
    yield "empty row (4,3)", _empty_row, BOTH
    yield "random (20,2)", lambda: random_tensor(2, 20, 1), BOTH
    yield "random (2,20)", lambda: random_tensor(20, 2, 1), (1.0,)
    yield "ones (1,MAX_ORDER)", lambda: DenseTensor(np.ones((1,) * MAX_ORDER)), BOTH
    yield "ones (1,MAX_ORDER+1)", lambda: DenseTensor(np.ones((1,) * (MAX_ORDER + 1))), (1.0,)
    yield "random (1,MAX_ORDER+1)", lambda: random_tensor(MAX_ORDER + 1, 1, 0), (1.0,)
    yield "random (25,1)", lambda: random_tensor(1, 25, 0), (1.0,)
    yield "near the largest float (3,3)", lambda: DenseTensor(np.full((3, 3, 3), 1e307)), BOTH
    yield "row sum overflow (2,2)", lambda: DenseTensor([[1e308, 1e308], [0.0, 1.0]]), (1.0,)
    base = random_tensor(3, 10, 1).data
    for scale in SCALES:
        yield f"scaled (10,3) by {scale!r}", lambda s=scale: DenseTensor(base * s), BOTH


def _positive_matrix(seed: int) -> DenseTensor:
    return DenseTensor(np.random.default_rng(seed).uniform(0.1, 10.0, size=(5, 5)))


PARSE_TEXTS = {
    # the bulk/per-line parity cases
    "plus sign": "2 2\n+1 1 1.5\n2 +2 2.5\n",
    "underscore index": "2 12\n1_0 1 1.5\n",
    "full-width digit": "2 2\n\uff12 1 1.5\n",
    "float index": "2 2\n1 1 1.0\n1.0 2 1.5\n",
    "exponent index": "2 2\n1e0 2 1.5\n",
    "nan value": "2 2\n1 1 1.0\n2 2 nan\n",
    "infinity value": "2 2\n1 1 Infinity\n",
    "negative zero": "2 2\n1 1 -0.0\n2 2 3.0\n",
    "crlf": "2 2\r\n1 1 1.5\r\n2 2 0.25\r\n",
    "tabs": "3 2\n1\t2\t1\t1.5\n2 1\t1 7e-3\n",
    "blank lines": "2 2\n\n1 1 1.5\n   \n2 2 2.5\n\n\n",
    "header only": "3 2\n",
    "short then long": "2 2\n1 1\n2 2 1.5 7\n",
    "duplicate on last line": "2 2\n1 1 1.5\n2 1 2.5\n1 1 3.5",
    "comment line": "2 2\n# entries\n1 1 1.5\n",
    "zero index": "2 2\n0 1 1.5\n",
    "negative index": "2 2\n-1 1 1.5\n",
    "index past the dimension": "2 2\n1 3 1.5\n",
    # header and line errors
    "empty": "",
    "one header field": "3\n",
    "text header": "a b\n",
    "order 1": "1 3\n",
    "dimension 0": "2 0\n",
    "entry cap": "3 100000\n",
    "huge order": "20000000 1000\n",
    "order cap": f"{MAX_ORDER} 1\n",
    "past the order cap": f"{MAX_ORDER + 1} 1\n",
    "bad value": "2 2\n1 1 abc\n",
    "negative value": "2 2\n1 1 -3.0\n",
    "overflowing value": "2 2\n1 1 1e400\n",
    "overflowing row sum": "2 2\n1 1 1e308\n1 2 1e308\n2 2 1\n",
    "golden": GOLDEN_TEXT,
    "byte-order mark in a stream": "\ufeff" + GOLDEN_TEXT,
}

# files read from a path, as bytes
PATH_BYTES = {
    "golden": GOLDEN_TEXT.encode(),
    "golden with a byte-order mark": b"\xef\xbb\xbf" + GOLDEN_TEXT.encode(),
    "crlf with a byte-order mark": b"\xef\xbb\xbf" + GOLDEN_TEXT.replace("\n", "\r\n").encode(),
    "two byte-order marks": b"\xef\xbb\xbf" * 2 + GOLDEN_TEXT.encode(),
    "only a byte-order mark": b"\xef\xbb\xbf",
    "latin-1 byte": b"2 2\n1 1 1.5\xe9\n",
}


def _read_path(path: Path, data: bytes):
    path.write_bytes(data)
    return read_tensor(path)


# caller arrays as 2x2 tensors; row 0 of each is the vector form
ARRAYS = {
    "complex ndarray": lambda: np.array([[1 + 2j, 0], [0, 1]]),
    "complex list": lambda: [[1 + 0j, 0], [0, 1]],
    "str list": lambda: [[1, "2"], [0, 1]],
    "bytes list": lambda: [[b"1", b"2"], [b"0", b"1"]],
    "datetime64": lambda: np.array([[1, 2], [0, 1]], dtype="datetime64[s]"),
    "timedelta64": lambda: np.array([[1, 2], [0, 1]], dtype="timedelta64[s]"),
    "object complex": lambda: np.array([[1 + 2j, 0], [0, 1]], dtype=object),
    "object str": lambda: np.array([[1, "2"], [0, 1]], dtype=object),
    "object bytes": lambda: np.array([[1, b"2"], [0, 1]], dtype=object),
    "object Fraction": lambda: np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object),
    "object floats": lambda: np.array([[0.5, 2.0], [1.0, 1.0]], dtype=object),
    "list with 10**400": lambda: [[10**400, 1], [0, 1]],
    "list with 2**64": lambda: [[2**64, 1], [0, 1]],
    "list with 2**63": lambda: [[2**63, 1], [0, 1]],
    "bool": lambda: np.array([[True, True], [False, True]]),
    "int64": lambda: np.array([[1, 3], [0, 2]]),
    "uint8": lambda: np.array([[2, 1], [0, 255]], dtype=np.uint8),
    "float16": lambda: np.array([[0.5, 2.0], [1.0, 3.0]], dtype=np.float16),
    "float32": lambda: np.array([[0.1, 2.0], [1.0, 3.0]], dtype=np.float32),
    "longdouble": lambda: np.array([[0.1, 2.0], [1.0, 3.0]], dtype=np.longdouble),
    "float list": lambda: [[0.5, 2.0], [1.0, 1.0]],
    "numpy scalars": lambda: [[np.float64(0.5), np.int32(2)], [np.uint8(1), np.bool_(True)]],
    "Fortran order": lambda: np.asfortranarray([[0.5, 2.0], [1.0, 1.0]]),
    "nan": lambda: [[np.nan, 1.0], [0.0, 1.0]],
    "negative": lambda: [[-1.0, 1.0], [0.0, 1.0]],
}

VECTOR_FUNCTIONS = {
    "contract": contract,
    "diagonal_similarity": diagonal_similarity,
    "collatz_wielandt_bounds": collatz_wielandt_bounds,
    "residual": lambda a, x: residual(a, 2.0, x),
}

NUMBERS = (0.0, 1.0, 2.5, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324)

# vector functions whose ratio or defect leaves the float range
OUT_OF_RANGE = {
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1e-200]": (
        lambda: collatz_wielandt_bounds(DenseTensor(np.ones((2, 2, 2))), [1e-200, 1e-200])
    ),
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1.0]": (
        lambda: collatz_wielandt_bounds(DenseTensor(np.ones((2, 2, 2))), [1e-200, 1.0])
    ),
    "residual [[1.0]] at 1e308, [2.0]": lambda: residual(DenseTensor([[1.0]]), 1e308, [2.0]),
}


def _cli(argv, directory: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    trace = directory / "trace.csv"
    csv = trace.read_text() if trace.exists() else None
    trace.unlink(missing_ok=True)
    # an error may name a file in the temporary directory
    return code, out.getvalue(), err.getvalue().replace(str(directory), "<dir>"), csv


def cases(directory: Path):
    """``(name, thunk)`` for the whole corpus; ``directory`` holds files."""
    golden = DenseTensor(golden_data())
    yield from tensor_cases("golden", lambda: golden, (0.0, 1.0, 2.5), (100, 5000))
    for name, build, alphas in _solver_inputs():
        yield from tensor_cases(name, build, alphas)
    for name, text in PARSE_TEXTS.items():
        yield f"read_tensor stream {name}", lambda t=text: read_tensor(io.StringIO(t))
    for name, data in PATH_BYTES.items():
        yield f"read_tensor path {name}", lambda d=data: _read_path(directory / "read.txt", d)
    square = DenseTensor([[1.0, 2.0], [3.0, 0.5]])
    for name, make in ARRAYS.items():
        yield f"DenseTensor {name}", lambda f=make: DenseTensor(f())
        for fn_name, fn in VECTOR_FUNCTIONS.items():
            yield f"{fn_name} {name}", lambda f=make, fn=fn: fn(square, f()[0])
    for name, thunk in OUT_OF_RANGE.items():
        yield name, thunk
    for alpha in NUMBERS:
        yield f"add_identity_shift {alpha!r}", lambda a=alpha: add_identity_shift(golden, a)
        yield f"SolverConfig alpha={alpha!r}", lambda a=alpha: SolverConfig(alpha=a)
        yield f"SolverConfig tol={alpha!r}", lambda a=alpha: SolverConfig(tol=a)
    for max_iter in (0, 1, 2.0, -1, True):
        yield f"SolverConfig max_iter={max_iter!r}", lambda k=max_iter: SolverConfig(max_iter=k)
    yield "write_trace_csv golden", lambda: _trace_text(solve(golden).trace)
    path = directory / "golden.txt"
    path.write_text(GOLDEN_TEXT)
    trace = str(directory / "trace.csv")
    missing = str(directory / "missing" / "x.txt")
    for argv in (
        ["solve", str(path)],
        ["solve", str(path), "--alpha", "0", "--oracle"],
        ["solve", str(path), "--alpha", "2.5", "--normalize", "--trace-csv", trace],
        ["solve", str(path), "--alpha", "0", "--max-iter", "5000", "--trace-csv", trace],
        ["solve", str(path), "--max-iter", "3", "--tol", "1e-3"],
        ["solve", str(path), "--alpha", "inf"],
        ["check", str(path)],
        ["random", "--m", "3", "--n", "4", "--seed", "7"],
        ["random", "--m", str(MAX_ORDER + 1), "--n", "1"],
        ["solve", str(path), "--trace-csv", ""],
        ["random", "--m", "2", "--n", "2", "--out", ""],
        ["random", "--m", "3", "--n", "5", "--out", missing],
    ):
        names = {str(path): "golden.txt", "": '""', missing: "missing/x.txt"}
        label = " ".join(names.get(a, a) for a in argv if a != trace)
        yield f"cli {label}", lambda a=argv: _cli(a, directory)


def _trace_text(trace) -> str:
    buffer = io.StringIO()
    write_trace_csv(trace, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------- commands


def write(out: str) -> int:
    begin = time.perf_counter()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, thunk in cases(Path(tmp)):
            if name in results:
                raise AssertionError(f"duplicate case name {name!r}")
            results[name] = record(thunk)
    doc = {"specrad": specrad.__file__, "numpy": np.__version__, "cases": results}
    Path(out).write_text(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    errors = sum(r["error"] is not None for r in results.values())
    elapsed = time.perf_counter() - begin
    print(f"{len(results)} cases ({errors} raise) written to {out} in {elapsed:.1f} s")
    return 0


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _outcome(r: dict) -> str:
    if r["error"] is not None:
        return r["error"]
    return f"ok, {len(r['floats'])} floats, counts {r['counts']}"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["cases"]
    b = json.loads(Path(path_b).read_text())["cases"]
    only_a = [n for n in a if n not in b]
    only_b = [n for n in b if n not in a]
    differ = [n for n in a if n in b and a[n]["sha256"] != b[n]["sha256"]]
    print(f"{path_a}: {len(a)} cases; {path_b}: {len(b)} cases")
    print(f"identical: {len(a) - len(only_a) - len(differ)}")
    for label, names in ((f"only in {path_a}", only_a), (f"only in {path_b}", only_b)):
        print(f"{label}: {len(names)}")
        for name in names:
            print(f"  {name}")
    print(f"differ: {len(differ)}")
    worst, worst_case, count_changes = 0.0, None, []
    for name in differ:
        ra, rb = a[name], b[name]
        print(f"  {name}")
        if ra["error"] is not None or rb["error"] is not None:
            print(f"    A: {_outcome(ra)}")
            print(f"    B: {_outcome(rb)}")
            continue
        if ra["counts"] != rb["counts"]:
            count_changes.append(f"{name}: {ra['counts']} -> {rb['counts']}")
        if len(ra["floats"]) != len(rb["floats"]):
            print(f"    float count {len(ra['floats'])} -> {len(rb['floats'])}")
            continue
        rel = max(map(_relative, ra["floats"], rb["floats"]), default=0.0)
        print(f"    largest relative difference {rel:.3g}")
        if ra["warnings"] != rb["warnings"]:
            print(f"    warnings {ra['warnings']} -> {rb['warnings']}")
        if rel > worst or worst_case is None:
            worst, worst_case = rel, name
    where = f" ({worst_case})" if worst_case else ""
    print(f"largest relative difference over cases that return on both sides: {worst:.3g}{where}")
    print(f"iteration count changes: {len(count_changes)}")
    for line in count_changes:
        print(f"  {line}")
    return 1 if only_a or only_b or differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="run the corpus and write its outcomes")
    p_write.add_argument("out", metavar="OUT.json")
    p_compare = sub.add_parser("compare", help="report the cases whose outcomes differ")
    p_compare.add_argument("a", metavar="A.json")
    p_compare.add_argument("b", metavar="B.json")
    args = parser.parse_args()
    if args.command == "write":
        return write(args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
