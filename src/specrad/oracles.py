"""Independent estimators used to cross-validate the balancing solver.

:func:`power_iteration` runs on arrays and floats and contracts through the
unchecked kernel behind :func:`~specrad.tensor.contract`, since its
iterates are built and checked inside the loop; the :class:`OracleEstimate`
dataclass is built once, for the result.  It makes one contraction per
iteration until its iterates repeat bit for bit, as they do on a cyclic,
non-primitive tensor; from there on it skips whole periods, so a run that
can never close costs a few contractions, not ``max_iter``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DenseTensor, _check_finite, _check_start_sums, _check_vector, _contract,
    _extremes, _underflows, contract, row_sums,
)

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
    the row-sum bracket.  Raises ``ValueError`` naming the first row whose
    ratio is not finite.
    """
    vec = _check_vector(a, x)
    if (vec <= 0).any():
        raise ValueError("x must be strictly positive")
    with np.errstate(all="ignore"):
        ratios = contract(a, vec) / vec ** (a.order - 1)
    ratios = _check_finite(ratios, "the ratio is not finite; x**(m-1) leaves the float range")
    return float(ratios.min()), float(ratios.max())


def power_iteration(
    a: DenseTensor, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER
) -> OracleEstimate:
    """Multilinear power iteration with a certified bracket at every step.

    From the all-ones start, repeats ``x -> normalize(contract(a, x)**(1/(m-1)))``
    (unit maximum entry) and evaluates the pointwise bracket at each new
    iterate; stops once the bracket closes to ``tol`` or after ``max_iter``
    iterations.  One contraction per iteration serves both: ``y = contract(a, x)``
    gives the bracket ``y / x**(m-1)`` at ``x`` and the next iterate
    ``y**(1/(m-1))``; at the all-ones start ``y`` is the stored
    :func:`row_sums`, so the start costs no pass.  For irreducible input the
    bracket contains the spectral radius throughout.

    Each iteration is a function of ``y`` alone, so once ``y`` repeats bit
    for bit the run is periodic and never closes (a cyclic, non-primitive
    tensor does this; Chang-Pearson-Zhang, SIAM J. Matrix Anal. Appl. 32,
    2011).  ``y`` is compared with an anchor kept at every power-of-two
    iteration (Brent), and on a repeat whole periods are skipped: the result
    is exactly that of running all ``max_iter`` iterations, at the cost of
    one contraction per iteration only until the iterates repeat.

    Raises ``ValueError`` if ``tol`` is not finite and positive, if
    ``max_iter`` is not an integer ``>= 0``, if a row sums to zero or
    overflows to ``inf``, or if a contraction turns every entry ``inf`` or
    any entry NaN.  If an iterate's ``(m-1)``-th power has a component below
    the smallest normal float (possible for reducible input), where
    :func:`~specrad.solver.solve` stops too, the last valid bracket is
    returned with ``converged=False``.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    max_iter = int(max_iter)
    rows, m = a._rows, a.order
    x = np.ones(a.dim)
    y = row_sums(a)
    lower, upper = _check_start_sums(y, "the tensor", "power iteration needs positive rows")
    root = 1.0 / (m - 1)
    iterations, anchor, anchor_at = 0, None, 0
    while upper - lower > tol and iterations < max_iter:
        key = y.tobytes()
        if key == anchor:
            # every state of the cycle has passed the checks below: skip
            # whole periods, then run the last partial one as usual
            iterations = max_iter - (max_iter - iterations) % (iterations - anchor_at)
            anchor = None
            continue
        if iterations & (iterations - 1) == 0:
            anchor, anchor_at = key, iterations
        nxt = y**root
        nxt /= _extremes(nxt)[1]
        iterations += 1
        powered = nxt ** (m - 1)
        # y holds no NaN and some finite entry here (else the gap was NaN),
        # so a NaN in nxt (inf / inf) comes with a zero (finite / inf); the
        # sweep's rule stops at both, and at a power below the normal range
        if _underflows(powered):
            return OracleEstimate(lower, upper, x, iterations, converged=False)
        y = _contract(rows, nxt, m)
        ratios = y / powered
        x, (lower, upper) = nxt, _extremes(ratios)
    # the ratio at the iterate's unit entry is that entry of y, so the gap
    # is NaN only after a non-finite contraction
    if np.isnan(upper - lower):
        raise ValueError("power iteration produced a non-finite iterate")
    return OracleEstimate(lower, upper, x, iterations, converged=upper - lower <= tol)
