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
- the zero and empty-row tensors, ``(20,2)``, ``(2,20)`` and the order cap;
- golden at ``alpha`` 0, 1 and 2.5 with ``max_iter`` 100 and 5000;
- ``random_tensor(3, 10, 1)`` scaled from ``2**-1000`` to ``1e300``;
- tensor files: the bulk/per-line parse cases, header and line errors, and
  files read from a path with and without a byte-order mark;
- every rejected call of the suite: each documented ``ValueError`` of the
  Python API;
- caller arrays of every dtype, as tensors and as vector arguments, and
  superdiagonal shifts and solver configurations, finite or not, but for
  the calls a rejected-call row already records;
- every CLI case of the suite, each run in a fresh subdirectory of the
  temporary directory: its exit code, stdout, stderr and the text of each
  file it writes.

Shapes are written ``(n, m)``: dimension, then order.  Floats of an array
with more than ``FLOAT_CAP`` entries are summarised by its minimum, maximum
and sum; the hash covers every byte.

Each input the suite or the benchmark also reads comes from its one home:
golden, the sparse, empty-row, positive-matrix and chain builders, the parse
texts, bad files, CLI cases and their input files, caller arrays, vector
functions and rejected calls from ``tests/conftest.py``; the acceptance
shapes and seeds from ``tests/test_acceptance.py``; the ``small_solve``
instances but golden from ``perfbench/workloads.py``.  These import only
``specrad`` names this script calls itself, so it runs against another
checkout's ``src/``.  ``write`` needs pytest (``pip install -e .[test]``).
"""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import warnings
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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
from conftest import (  # noqa: E402
    BAD_FILES,
    CALLER_ARRAYS,
    CLI_CASES,
    CLI_FILES,
    PARITY_CASES,
    REJECTED_CALLS,
    SPLITLINES_ONLY,
    VECTOR_FUNCTIONS,
    chain,
    empty_row_tensor,
    golden_b,
    golden_file_text,
    positive_matrix,
    sparse_tensor,
)
from test_acceptance import (  # noqa: E402
    CONTRACTION_SEEDS,
    MATRIX_SEEDS,
    ORACLE_SEED,
    SPARSE_SEED,
    TABLE_SHAPES,
    ensemble_seed,
)
from workloads import SmallSolve  # noqa: E402

FLOAT_CAP = 256
WRITE_CAP = 20_000  # entries; larger tensors skip the file round trip


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


CHAIN_DIMS = {  # order: dimensions
    2: (2, 3, 5, 10, 20, 40, 80, 200),
    3: (2, 3, 5, 10, 20, 40, 80),
    4: (2, 3, 5, 10, 20, 30),
}
SCALES = (2.0**-1000, 1e-300, 1e-20, 1e-10, 1e-6, 1.0, 1e9, 1e200, 1e300)
BOTH = (1.0, 0.0)


def _solver_inputs():
    """``(name, build, alphas)`` for every tensor input but golden."""
    for n, m in TABLE_SHAPES:
        for i in range(10):
            build = lambda m=m, n=n, s=ensemble_seed(n, m, i): random_tensor(m, n, s)  # noqa: E731
            yield f"acceptance ({n},{m}) #{i}", build, (1.0,)
    for i in range(20):
        yield f"oracle pair #{i}", lambda s=ORACLE_SEED + i: random_tensor(3, 5, s), (1.0,)
    for seed in MATRIX_SEEDS:
        yield f"positive matrix #{seed}", lambda s=seed: positive_matrix(5, s), BOTH
    for seed in CONTRACTION_SEEDS:
        yield f"contraction (4,3) #{seed}", lambda s=seed: random_tensor(3, 4, s), (1.0,)
    dims = np.random.default_rng(SPARSE_SEED)
    for i in range(100):
        dim = int(dims.integers(2, 9))
        build = lambda d=dim, s=SPARSE_SEED + i: sparse_tensor(3, d, s)  # noqa: E731
        yield f"decider sparse #{i} (dim {dim})", build, (1.0,)
    for m in (2, 3, 4):
        for n in (2, 3):
            yield f"all ones ({n},{m})", lambda n=n, m=m: DenseTensor(np.ones((n,) * m)), (1.0,)
    for seed in (1, 2, 3):
        workload = SmallSolve(seed, False, None)
        workload.build()
        seen = collections.Counter()
        for kind, t, _ in workload.instances:
            # golden has its own cases; only the dense draws depend on the seed
            if kind == "golden" or (seed > 1 and kind != "dense"):
                continue
            name = kind if kind == "sparse" else f"{kind} ({t.dim},{t.order})"
            if kind != "ones":
                seen[name] += 1
                name += f" #{seen[name] - 1}"
            yield f"small_solve seed {seed} {name}", lambda t=t: t, BOTH
    for m, dims in CHAIN_DIMS.items():
        for n in dims:
            for cyclic, kind in ((True, "cyclic"), (False, "open")):
                yield f"{kind} chain ({n},{m})", lambda n=n, m=m, c=cyclic: chain(n, m, c), BOTH
    yield "zero (3,3)", lambda: DenseTensor(np.zeros((3, 3, 3))), BOTH
    yield "zero (1,2)", lambda: DenseTensor(np.zeros((1, 1))), BOTH
    yield "empty row (4,3)", empty_row_tensor, BOTH
    yield "random (20,2)", lambda: random_tensor(2, 20, 1), BOTH
    yield "random (2,20)", lambda: random_tensor(20, 2, 1), (1.0,)
    yield "ones (1,MAX_ORDER)", lambda: DenseTensor(np.ones((1,) * MAX_ORDER)), BOTH
    yield "random (25,1)", lambda: random_tensor(1, 25, 0), (1.0,)
    yield "near the largest float (3,3)", lambda: DenseTensor(np.full((3, 3, 3), 1e307)), BOTH
    yield "row sum overflow (2,2)", lambda: DenseTensor([[1e308, 1e308], [0.0, 1.0]]), (1.0,)
    base = random_tensor(3, 10, 1).data
    for scale in SCALES:
        yield f"scaled (10,3) by {scale!r}", lambda s=scale: DenseTensor(base * s), BOTH


GOLDEN_TEXT = golden_file_text()
SEPARATORS = [f"separator {c!r}" for c in SPLITLINES_ONLY]
PARSE_TEXTS = {
    **PARITY_CASES,
    **{name: text for name, (text, _) in BAD_FILES.items()},
    "order cap": f"{MAX_ORDER} 1\n",
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
    **{name: PARITY_CASES[name].encode() for name in SEPARATORS},
}


def _read_path(path: Path, data: bytes):
    path.write_bytes(data)
    return read_tensor(path)


NUMBERS = (0.0, 1.0, 2.5, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324)


def _cli(argv, directory: Path):
    """Exit code, stdout, stderr and the written files of ``argv`` run in ``directory``."""
    directory.mkdir()
    home = os.getcwd()
    os.chdir(directory)
    try:
        for name in argv:
            if name in CLI_FILES:
                CLI_FILES[name](name)
        inputs = set(os.listdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        written = [(name, Path(name).read_text()) for name in sorted(set(os.listdir()) - inputs)]
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue(), written


def cases(directory: Path):
    """``(name, thunk)`` for the whole corpus; ``directory`` holds files."""
    golden = golden_b()
    yield from tensor_cases("golden", lambda: golden, (0.0, 1.0, 2.5), (100, 5000))
    for name, build, alphas in _solver_inputs():
        yield from tensor_cases(name, build, alphas)
    for name, text in PARSE_TEXTS.items():
        yield f"read_tensor stream {name}", lambda t=text: read_tensor(io.StringIO(t))
    for name, data in PATH_BYTES.items():
        yield f"read_tensor path {name}", lambda d=data: _read_path(directory / "read.txt", d)
    for name, (thunk, _) in REJECTED_CALLS.items():
        yield name, thunk
    square = DenseTensor([[1.0, 2.0], [3.0, 0.5]])
    calls = {}
    for name, make in CALLER_ARRAYS.items():
        calls[f"DenseTensor {name}"] = lambda f=make: DenseTensor(f())
        for fn_name, fn in VECTOR_FUNCTIONS.items():
            calls[f"{fn_name} {name}"] = lambda f=make, fn=fn: fn(square, f()[0])
    for alpha in NUMBERS:
        calls[f"add_identity_shift {alpha!r}"] = lambda a=alpha: add_identity_shift(golden, a)
        calls[f"SolverConfig alpha={alpha!r}"] = lambda a=alpha: SolverConfig(alpha=a)
        calls[f"SolverConfig tol={alpha!r}"] = lambda a=alpha: SolverConfig(tol=a)
    for max_iter in (0, 1, 2.0, -1, True):
        calls[f"SolverConfig max_iter={max_iter!r}"] = lambda k=max_iter: SolverConfig(max_iter=k)
    # a call that a rejected-call row records is recorded once, as that row
    yield from ((name, thunk) for name, thunk in calls.items() if name not in REJECTED_CALLS)
    yield "write_trace_csv golden", lambda: _trace_text(solve(golden).trace)
    for index, case in enumerate(CLI_CASES):
        argv = case.values[0]
        yield f"cli {case.id}", lambda a=argv, d=directory / f"cli {index}": _cli(a, d)


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
