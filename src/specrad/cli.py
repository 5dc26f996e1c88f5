"""Command line front end.

Exit codes: 0 success (and convergence for ``solve``), 1 input error,
2 solver did not converge, 3 tensor is reducible (``check`` only).
"""

from __future__ import annotations

import argparse
import sys

from .oracles import power_iteration
from .solver import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL, SolverConfig, solve, write_trace_csv
from .structure import irreducible_iterative
from .tensor import add_identity_shift, random_tensor
from .tensorfile import read_tensor, write_tensor

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_REDUCIBLE = 3


def _fmt_vector(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def run_solve(args) -> int:
    config = SolverConfig(alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    tensor = read_tensor(args.path)
    report = solve(tensor, config)

    vector = report.eigenvector
    if args.normalize:
        vector = vector / vector.max()

    print(f"rho = {report.rho:.6g}")
    print(f"rho_shifted = {report.rho_shifted:.6g}")
    print(f"bounds = [{report.lower:.6g}, {report.upper:.6g}]")
    print(f"gap = {report.final_gap:.6g}")
    print(f"iterations = {report.iterations}")
    print(f"converged = {'yes' if report.converged else 'no'}")
    print(f"residual = {report.residual:.6g}")
    print(f"eigenvector = {_fmt_vector(vector)}")

    if args.oracle:
        estimate = power_iteration(add_identity_shift(tensor, args.alpha))
        mid = 0.5 * (estimate.lower + estimate.upper)
        status = "converged" if estimate.converged else "not converged"
        print(
            f"oracle bracket = [{estimate.lower:.6g}, {estimate.upper:.6g}] "
            f"(mid {mid:.6g}, {estimate.iterations} iterations, {status})"
        )

    if args.trace_csv:
        write_trace_csv(report.trace, args.trace_csv)

    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def run_check(args) -> int:
    tensor = read_tensor(args.path)
    verdict = irreducible_iterative(tensor)
    if verdict.irreducible:
        print("irreducible")
        return EXIT_OK
    witness = "{" + ",".join(str(i) for i in verdict.witness) + "}"
    print(f"reducible, witness I = {witness}")
    return EXIT_REDUCIBLE


def run_random(args) -> int:
    tensor = random_tensor(args.m, args.n, args.seed)
    write_tensor(tensor, args.out if args.out else sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrad",
        description="Spectral radius of nonnegative tensors by row-sum balancing.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="solve a tensor file and print the eigenpair")
    p_solve.add_argument("path", help="tensor file ('m n' header, then 'i1 .. im value' lines)")
    p_solve.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="superdiagonal shift")
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL, help="absolute gap tolerance")
    p_solve.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="sweep cap")
    p_solve.add_argument("--trace-csv", metavar="PATH", help="write the per-sweep trace as CSV")
    p_solve.add_argument("--oracle", action="store_true", help="also print the power-iteration bracket")
    p_solve.add_argument("--normalize", action="store_true", help="print the eigenvector with unit maximum entry")
    p_solve.set_defaults(func=run_solve)

    p_check = sub.add_parser("check", help="decide irreducibility of a tensor file")
    p_check.add_argument("path")
    p_check.set_defaults(func=run_check)

    p_random = sub.add_parser("random", help="generate a seeded random tensor")
    p_random.add_argument("--m", type=int, required=True, help="tensor order")
    p_random.add_argument("--n", type=int, required=True, help="tensor dimension")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p_random.set_defaults(func=run_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
