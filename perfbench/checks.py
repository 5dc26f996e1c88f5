"""Answer checks, independent of the code paths they check.

Contractions use ``np.tensordot`` and zero patterns use boolean masks, so a
defect in ``specrad.contract`` or ``specrad.structure`` cannot hide itself.
Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import re

import numpy as np

GOLDEN_RHO = 5.79262
GOLDEN_TOL = 1e-4
GOLDEN_UNSHIFTED_SWEEPS = 100
BRACKET_RTOL = 1e-9


def golden_data() -> np.ndarray:
    data = np.zeros((3, 3, 3))
    data[0, 1, 1] = 3.72
    data[1, 0, 0] = 9.02
    data[2, 0, 0] = 9.55
    return data


def contract(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = data
    while out.ndim > 1:
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return out


def collatz_wielandt(data: np.ndarray, alpha: float, x: np.ndarray) -> tuple[float, float]:
    """Bracket of ``(A + alpha I) x**(m-1) / x**(m-1)`` over the components."""
    power = x ** (data.ndim - 1)
    ratios = (contract(data, x) + alpha * power) / power
    return float(ratios.min()), float(ratios.max())


def _inside(lo, hi, lower, upper) -> bool:
    slack = BRACKET_RTOL * max(abs(lower), abs(upper), 1.0)
    return lower - slack <= lo and hi <= upper + slack


def check_solve(data: np.ndarray, alpha: float, tol: float, report) -> list[str]:
    """Positive finite eigenvector, bracket holding the Collatz-Wielandt
    bracket at that vector, and ``gap <= tol`` when converged."""
    x = np.asarray(report.eigenvector, dtype=float)
    if x.shape != (data.shape[0],) or not np.isfinite(x).all() or not (x > 0).all():
        return ["eigenvector is not finite and positive"]
    problems = []
    lo, hi = collatz_wielandt(data, alpha, x)
    if not _inside(lo, hi, report.lower, report.upper):
        problems.append(
            f"bracket [{report.lower!r}, {report.upper!r}] misses Collatz-Wielandt [{lo!r}, {hi!r}]"
        )
    if report.converged and not report.upper - report.lower <= tol:
        problems.append(f"converged with gap {report.upper - report.lower!r} > tol {tol!r}")
    return problems


def check_oracle(report, estimate) -> list[str]:
    """The power-iteration bracket must overlap the solver's: both hold rho."""
    slack = BRACKET_RTOL * max(abs(report.upper), 1.0)
    if estimate.lower > report.upper + slack or estimate.upper < report.lower - slack:
        return [
            f"oracle [{estimate.lower!r}, {estimate.upper!r}] "
            f"misses [{report.lower!r}, {report.upper!r}]"
        ]
    return []


def check_golden(alpha: float, report) -> list[str]:
    if alpha == 0:
        if report.iterations != GOLDEN_UNSHIFTED_SWEEPS or report.converged:
            return [f"unshifted golden: {report.iterations} sweeps, converged={report.converged}"]
        return []
    if not abs(report.rho - GOLDEN_RHO) <= GOLDEN_TOL or not report.converged:
        return [f"golden rho {report.rho!r}"]
    return []


def check_all_ones(data: np.ndarray, report) -> list[str]:
    exact = float(data.shape[0] ** (data.ndim - 1))
    if report.iterations != 0 or report.rho != exact:
        return [f"all-ones: {report.iterations} sweeps, rho {report.rho!r} != {exact!r}"]
    return []


def is_reducing(data: np.ndarray, witness) -> bool:
    """``witness`` (1-based) is a nonempty proper subset whose rows vanish on
    every index tuple entirely outside it."""
    n = data.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(witness, dtype=int) - 1] = True
    if not inside.any() or inside.all():
        return False
    block = data[inside]
    for axis in range(1, data.ndim):
        block = np.compress(~inside, block, axis=axis)
    return not block.any()


def check_deciders(data: np.ndarray, iterative, bruteforce) -> list[str]:
    if iterative.irreducible != bruteforce.irreducible:
        return ["deciders disagree"]
    return [
        f"witness {v.witness} fails the zero-pattern check"
        for v in (iterative, bruteforce)
        if not v.irreducible and not is_reducing(data, v.witness)
    ]


def check_written_file(path, expected: np.ndarray) -> list[str]:
    """The file must list every entry of ``expected`` and parse back to it
    bit for bit."""
    m = expected.ndim
    data = np.zeros_like(expected)
    try:
        rows = np.loadtxt(path, skiprows=1, ndmin=2)
        data[tuple((rows[:, :m].astype(np.intp) - 1).T)] = rows[:, m]
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path} does not parse: {exc}"]
    if len(rows) != np.count_nonzero(expected) or not np.array_equal(
        data.view(np.int64), expected.view(np.int64)
    ):
        return [f"{path} does not parse back to the generated tensor"]
    return []


def check_solve_output(stdout: str, rho: float) -> list[str]:
    lines = stdout.splitlines()
    return [
        f"expected {want!r} in solve output"
        for want in (f"rho = {rho:.6g}", "converged = yes")
        if want not in lines
    ]


def check_reducible_output(stdout: str, data: np.ndarray) -> list[str]:
    found = re.fullmatch(r"reducible, witness I = \{([\d,]+)\}", stdout.strip())
    if not found or not is_reducing(data, [int(i) for i in found.group(1).split(",")]):
        return ["check did not print a valid reducing witness"]
    return []
