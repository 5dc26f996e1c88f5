"""specrad benchmark: run one workload for one seed and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {dense_solve,small_solve,cli} \
        --seed N --seconds S --trace {0,1}

Report lines start with ``# ``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (BENCHMARK.json lists both).  The package is imported from
the checkout's ``src``; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dense_solve", "small_solve", "cli")
# One BLAS thread in this process and every child: the load is one process
# on a 2-core machine, and a fixed count keeps runs comparable.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Fix BLAS threads, put the checkout's ``src`` first for this process and
    its children, and check that specrad imports from there."""
    package = ROOT / "src" / "specrad" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark from a specrad checkout")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    import specrad

    if Path(specrad.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported specrad from {specrad.__file__}, not {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import harness

    result, lines = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
