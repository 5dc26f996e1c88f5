#!/usr/bin/env python3
"""Sweep random tensors over a grid of shapes and report convergence stats.

For each (n, m) shape, solves seeded uniform-[0,10) tensors and prints the
sweep count, spectral-radius estimate of the shifted tensor, final gap,
eigen-equation residual and wall time.  Cross-checks each result against
the power-iteration bracket.

The wall time covers ``solve`` alone, which reads the entries once per sweep
(``k`` passes): the initial row sums were taken when the tensor was built and
validated, and the residual comes from the last sweep's row sums.
"""

import argparse
import time

from specrad import SolverConfig, add_identity_shift, power_iteration, random_tensor, solve
from specrad.solver import _midpoint

DEFAULT_SHAPES = "10,3 5,3 20,3 30,3 5,4 10,4 5,5 5,6"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shapes",
        default=DEFAULT_SHAPES,
        help="space-separated n,m pairs (default: %(default)s)",
    )
    parser.add_argument("--count", type=int, default=1, help="instances per shape")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-oracle", action="store_true", help="skip the power-iteration cross-check")
    args = parser.parse_args()

    shapes = []
    for token in args.shapes.split():
        n, m = token.split(",")
        shapes.append((int(n), int(m)))

    header = f"{'(n,m)':>9} {'k':>4} {'rho(shifted)':>14} {'gap':>12} {'residual':>12} {'time[s]':>9}"
    if not args.skip_oracle:
        header += f" {'|d_oracle|':>12}"
    print(header)

    for n, m in shapes:
        for i in range(args.count):
            tensor = random_tensor(m, n, args.seed + i)
            begin = time.perf_counter()
            report = solve(tensor, SolverConfig(trace=False))
            elapsed = time.perf_counter() - begin
            line = (
                f"{f'({n},{m})':>9} {report.iterations:>4} {report.rho_shifted:>14.6g} "
                f"{report.final_gap:>12.3g} {report.residual:>12.3g} {elapsed:>9.3f}"
            )
            if not args.skip_oracle:
                estimate = power_iteration(add_identity_shift(tensor, 1.0))
                mid = _midpoint(estimate.lower, estimate.upper)
                line += f" {abs(report.rho_shifted - mid):>12.3g}"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
