"""Row-sum balancing solver for the spectral radius of nonnegative tensors.

The method: shift the input by ``alpha`` on the superdiagonal so every row
sum is positive, then repeatedly rescale by the diagonal similarity with
``d[i] = R[i]**(1/(m-1))``, where ``R[i]`` are the current row sums.  Each
sweep preserves the spectrum, pushes the minimum row sum up and the maximum
down, and those two numbers bracket the spectral radius at every step.  When
they meet, the common value is the spectral radius of the shifted tensor and
the accumulated scaling is a positive eigenvector.  Neither the balanced
tensor nor the shifted one is ever formed: the shifted operator is
``contract(B, x) + alpha * x**(m-1)`` (Liu-Zhou-Ibrahim, J. Comput. Appl.
Math. 235, 2010), so the balanced row sums are the Collatz-Wielandt ratios
``contract(B, x) / x**(m-1) + alpha`` of the input ``B`` at the accumulated
scaling ``x``, the product of the per-sweep ratios ``(R[i] / max R)**(1/(m-1))``.
The state is the input, ``alpha`` and the length-n vector ``x``, and a sweep
is one read-only contraction of the input (the Ng-Qi-Zhou power iteration,
SIAM J. Matrix Anal. Appl. 31, 2009).  That is the only pass a solve makes
over the entries: the initial row sums come from validation, the reported
eigenvector is the scaling the last sweep contracted at, and its residual is
computed from that sweep's row sums.

One kernel, :func:`_balance`, performs every sweep and takes its bracket.
It works on arrays and floats, and :func:`solve` runs it on plain locals:
a solve builds exactly one :class:`IterationState`, its start from
:func:`init_state`, and none per sweep.  :func:`step` returns a state per
sweep, and a traced run keeps one :class:`TraceRow` per sweep.

Iteration counters: state ``k`` counts balancing sweeps performed, while
trace rows are numbered from 1 (row 1 holds the initial, unbalanced row-sum
extremes), so row ``k + 1`` describes the state after ``k`` sweeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    DenseTensor, _check_finite, _check_start_sums, _check_vector, _contract,
    _extremes, _rescaled_rows, _underflows, contract, row_sums,
)

DEFAULT_ALPHA = 1.0
DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 100

def _midpoint(lower: float, upper: float) -> float:
    """Midpoint of ``[lower, upper]``, finite up to the largest float (where
    ``0.5 * (lower + upper)`` overflows) and bit-equal to that form when both
    halves are normal floats."""
    return 0.5 * lower + 0.5 * upper


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve`.

    alpha:    superdiagonal shift applied before iterating (subtracted back
              out of the reported spectral radius).
    tol:      absolute gap threshold between the upper and lower bound.
    max_iter: cap on balancing sweeps; hitting it is reported, not raised.
    trace:    keep per-sweep bound rows in the report.
    """

    alpha: float = DEFAULT_ALPHA
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    trace: bool = True

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True, eq=False)
class IterationState:
    """Snapshot after ``k`` balancing sweeps.

    ``tensor`` is the caller's input, unshifted and shared by every state;
    the shift ``alpha`` is applied implicitly, so the iterated (shifted)
    tensor is ``add_identity_shift(tensor, alpha)`` but is never built.
    ``x`` is the accumulated scaling: the entrywise product of the ratios
    ``(sums[i] / upper)**(1/(m-1))`` of every earlier sweep, from all ones
    (rescaled by a power of two, which changes no ratio, if it drifts far
    below 1).  The balanced tensor is ``diagonal_similarity`` of the shifted
    tensor by ``x``, ``sums`` are its row sums and ``upper``/``lower`` their
    extremes (the certified bracket).  ``sums`` are taken at ``x`` itself, so
    once the bracket closes ``x`` is the shifted tensor's eigenvector and
    ``sums`` certify it with no further pass.
    """

    tensor: DenseTensor
    alpha: float
    x: np.ndarray
    sums: np.ndarray
    upper: float
    lower: float
    k: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class TraceRow:
    """One line of the convergence trace; ``k`` is 1-based (see module doc)."""

    k: int
    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return _midpoint(self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of :func:`solve`.

    ``rho_shifted`` is the bracket midpoint for the shifted tensor and
    ``rho = rho_shifted - alpha`` the estimate for the input itself.
    ``residual`` is the infinity-norm eigen-equation defect of
    ``(rho_shifted, eigenvector)`` on the shifted tensor, taken from the
    last row sums.
    ``iterations`` counts balancing sweeps (zero when the initial row sums
    are already constant).
    """

    rho: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    lower: float
    upper: float
    residual: float
    trace: list[TraceRow] = field(default_factory=list)

    @property
    def rho_shifted(self) -> float:
        return _midpoint(self.lower, self.upper)

    @property
    def final_gap(self) -> float:
        return self.upper - self.lower


def init_state(b: DenseTensor, config: SolverConfig) -> IterationState:
    """Take the initial row-sum bracket of ``b`` shifted by ``config.alpha``.

    The shifted row sums are ``row_sums(b) + alpha``; ``b`` is neither
    copied nor re-validated.  Raises if some row of the shifted tensor sums
    to zero (possible only with ``alpha = 0`` and a zero row in ``b``) or
    overflows to ``inf``; the iteration needs every row sum strictly
    positive and finite.
    """
    sums = row_sums(b) + config.alpha
    lower, upper = _check_start_sums(sums, "the shifted tensor", "use a positive alpha or remove zero rows")
    return IterationState(b, config.alpha, np.ones(b.dim), sums, upper, lower, 0)


def _balance(rows, m, alpha, x, sums, upper) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One more sweep from ``(x, sums, upper)``: the new ``(x, sums, lower, upper)``.

    The one iteration kernel, on the input's row view ``rows`` (``_rows``)
    and order ``m``.  The bracket is Python floats from ``_extremes``, so a
    NaN row sum makes both NaN.  Arrays and floats only: :func:`solve`
    builds no state per sweep, only its start.
    """
    # in place on arrays made here, so the sweep allocates no temporaries
    ratio = sums / upper
    ratio **= 1.0 / (m - 1)
    ratio *= x
    x = ratio
    top = _extremes(x)[1]
    # top < 1 first, so the power of a Python float cannot overflow
    if top < 1.0 and top ** (m - 1) < 2.0**-511:
        # a slow run shrinks every entry halfway to underflow; an exact
        # power-of-two rescale changes no ratio
        x = np.ldexp(x, -math.frexp(top)[1])
    powered = x ** (m - 1)
    if _underflows(powered):
        raise FloatingPointError("the (m-1)-th power of the scaling underflowed")
    new_sums = _contract(rows, x, m)
    new_sums /= powered
    new_sums += alpha
    return x, new_sums, *_extremes(new_sums)


def step(state: IterationState) -> IterationState:
    """One balancing sweep: rescale so the current row sums equalize.

    Folds the ratios ``(sums[i] / upper)**(1/(m-1))`` into ``x`` and takes
    the new row sums ``contract(tensor, x) / x**(m-1) + alpha`` in one
    read-only pass over the unshifted input.  The new bracket is nested
    inside the old one.  A constant-row-sum state is a fixed point (up to
    rounding).  Raises ``FloatingPointError`` once ``x**(m-1)`` leaves the
    normal range, where the row sums would lose their digits.
    """
    b = state.tensor
    x, sums, lower, upper = _balance(b._rows, b.order, state.alpha, state.x, state.sums, state.upper)
    return IterationState(b, state.alpha, x, sums, upper, lower, state.k + 1)


def residual(a: DenseTensor, value: float, vector) -> float:
    """Infinity norm of ``contract(a, v) - value * v**(m-1)``.

    Raises ``ValueError`` naming the first row whose defect is not finite.
    """
    vec = _check_vector(a, vector)
    with np.errstate(all="ignore"):
        defect = contract(a, vec) - value * vec ** (a.order - 1)
    defect = _check_finite(defect, "the defect is not finite; scale the value or the vector down")
    return float(np.max(np.abs(defect)))


def contraction_factor(state: IterationState) -> float:
    """Certified bound on the gap shrink factor of the next sweep.

    Returns ``f`` in [0, 1] with ``next_gap <= f * gap``.  The bound pits
    the rows that will carry the extreme row sums after the sweep against
    each other: with ``s``/``t`` those rows (lowest index on ties), ``J``
    the index tuples where row ``s`` carries at least the normalized weight
    of row ``t``, the factor is one minus the complementary mass
    ``(sum of a[s, tau] off J + sum of a[t, tau] on J) / upper``, with ``a``
    the balanced shifted tensor.  Raises ``ValueError`` when the row sums are
    already constant, and ``FloatingPointError`` where :func:`step` does
    (once ``x**(m-1)`` underflows).  Rows ``s`` and ``t`` come from the
    helper behind ``diagonal_similarity(tensor, x)``, applied to those two
    rows only; the shift then adds ``alpha`` at each row's own superdiagonal
    position, whose rescaled weight is exactly 1.
    """
    if not state.upper > state.lower:
        raise ValueError("row sums are constant; contraction factor is undefined")
    m, n, sums = state.tensor.order, state.tensor.dim, state.sums
    next_sums = _balance(state.tensor._rows, m, state.alpha, state.x, sums, state.upper)[1]
    s = int(np.argmax(next_sums))
    t = int(np.argmin(next_sums))
    row_s, row_t = _rescaled_rows(state.tensor, state.x, [s, t])
    # flat position of (i, ..., i) within the n**(m-1) entries of row i
    diagonal_stride = sum(n**k for k in range(m - 1))
    row_s[s * diagonal_stride] += state.alpha
    row_t[t * diagonal_stride] += state.alpha
    on_j = row_s / sums[s] >= row_t / sums[t]
    mass = row_s[~on_j].sum() + row_t[on_j].sum()
    return float(1.0 - mass / state.upper)


def solve(b: DenseTensor, config: SolverConfig | None = None) -> SolveReport:
    """Run the balancing iteration on ``b`` until the bracket closes.

    Stops when the gap drops to ``config.tol`` or after ``config.max_iter``
    sweeps; running out of sweeps is reported with ``converged=False``
    rather than raised, since reducible inputs may legitimately stall.  A
    reducible input can also drive a scaling entry towards zero; once its
    ``(m-1)``-th power underflows the run stops early, unconverged, with
    the last bracket it could certify.
    ``b`` is read in place: no shifted copy is built, the only
    :class:`IterationState` is the start from :func:`init_state`, and a run
    reads the entries once per sweep (the initial row sums were taken when
    ``b`` was validated).  The eigenvector is the last ``x``, the scaling
    the last sweep contracted at (after an underflow stop, the last one the
    guard accepted).  The residual comes from that sweep's row sums:
    ``max_i |sums[i] - rho_shifted| * x[i]**(m-1)``, the defect of
    ``(rho_shifted, eigenvector)`` on the shifted tensor, which equals that
    of ``(rho, eigenvector)`` on ``b`` itself up to rounding.
    """
    cfg = config if config is not None else SolverConfig()
    rows, m, alpha, tol, max_iter = b._rows, b.order, cfg.alpha, cfg.tol, cfg.max_iter
    start = init_state(b, cfg)
    x, sums, lower, upper, k = start.x, start.sums, start.lower, start.upper, 0
    trace = [TraceRow(1, lower, upper)] if cfg.trace else []
    while upper - lower > tol and k < max_iter:
        try:
            x, sums, lower, upper = _balance(rows, m, alpha, x, sums, upper)
        except FloatingPointError:
            break
        k += 1
        if cfg.trace:
            trace.append(TraceRow(k + 1, lower, upper))
    rho_shifted = _midpoint(lower, upper)
    defect = sums - rho_shifted
    defect *= x ** (m - 1)
    np.abs(defect, out=defect)
    return SolveReport(
        rho=rho_shifted - alpha,
        eigenvector=x,
        converged=upper - lower <= tol,
        iterations=k,
        lower=lower,
        upper=upper,
        residual=_extremes(defect)[1],
        trace=trace,
    )

