"""Independent estimators used to cross-validate the balancing solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor, contract

ORACLE_TOL = 1e-9
ORACLE_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class OracleEstimate:
    """Bracket ``[lower, upper]`` around the spectral radius plus the iterate
    it was evaluated at (strictly positive, unit maximum entry)."""

    lower: float
    upper: float
    vector: np.ndarray
    iterations: int
    converged: bool


def collatz_wielandt_bounds(a: DenseTensor, x) -> tuple[float, float]:
    """Pointwise bracket ``(min, max)`` of ``contract(a, x) / x**(m-1)``.

    Requires ``x`` strictly positive; with ``x`` all ones this is exactly
    the row-sum bracket.
    """
    vec = np.asarray(x, dtype=float)
    if vec.shape != (a.dim,):
        raise ValueError(f"x must have length {a.dim}, got shape {vec.shape}")
    if not np.isfinite(vec).all() or (vec <= 0).any():
        raise ValueError("x must be strictly positive and finite")
    ratios = contract(a, vec) / vec ** (a.order - 1)
    return float(ratios.min()), float(ratios.max())


def power_iteration(
    a: DenseTensor, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER
) -> OracleEstimate:
    """Multilinear power iteration with a certified bracket at every step.

    From the all-ones start, repeats ``x -> normalize(contract(a, x)**(1/(m-1)))``
    (unit maximum entry) and evaluates the pointwise bracket at each new
    iterate; stops once the bracket closes to ``tol``.  One contraction per
    iteration serves both: ``y = contract(a, x)`` gives the bracket
    ``y / x**(m-1)`` at ``x`` and the next iterate ``y**(1/(m-1))``.  For
    irreducible input the bracket contains the spectral radius throughout.
    If an iterate's ``(m-1)``-th power develops a zero component (possible
    for reducible input) the last valid bracket is returned with
    ``converged=False``.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    m = a.order
    x = np.ones(a.dim)
    y = contract(a, x)
    if (y == 0).any():
        row = int(np.argmin(y)) + 1
        raise ValueError(f"row {row} has zero row sum; power iteration needs positive rows")
    root = 1.0 / (m - 1)
    lower, upper = float(y.min()), float(y.max())
    iterations = 0
    while upper - lower > tol and iterations < max_iter:
        nxt = y**root
        nxt /= nxt.max()
        iterations += 1
        powered = nxt ** (m - 1)
        if (powered == 0).any():
            return OracleEstimate(lower, upper, x, iterations, converged=False)
        if not np.isfinite(nxt).all():
            raise ValueError("power iteration produced a non-finite iterate")
        y = contract(a, nxt)
        ratios = y / powered
        x, lower, upper = nxt, float(ratios.min()), float(ratios.max())
    return OracleEstimate(lower, upper, x, iterations, converged=upper - lower <= tol)
