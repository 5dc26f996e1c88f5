"""Spectral radius and positive eigenvectors of nonnegative tensors.

The solver balances row sums through spectrum-preserving diagonal
rescalings, keeping a certified lower/upper bound pair at every sweep.
Independent cross-checks (multilinear power iteration, pointwise
Collatz-Wielandt brackets) and irreducibility analyzers live alongside it.
"""

from .oracles import ORACLE_MAX_ITER, ORACLE_TOL, OracleEstimate, collatz_wielandt_bounds, power_iteration
from .solver import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    IterationState,
    SolveReport,
    SolverConfig,
    TraceRow,
    contraction_factor,
    init_state,
    residual,
    solve,
    step,
    write_trace_csv,
)
from .structure import (
    BRUTE_FORCE_DIM_CAP,
    IrreducibilityVerdict,
    irreducible_iterative,
    reducible_bruteforce,
)
from .tensor import (
    MAX_DENSE_ENTRIES,
    DenseTensor,
    add_identity_shift,
    contract,
    diagonal_similarity,
    random_tensor,
    row_sums,
)
from .tensorfile import ParseError, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_DIM_CAP",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "DenseTensor",
    "IrreducibilityVerdict",
    "IterationState",
    "MAX_DENSE_ENTRIES",
    "ORACLE_MAX_ITER",
    "ORACLE_TOL",
    "OracleEstimate",
    "ParseError",
    "SolveReport",
    "SolverConfig",
    "TraceRow",
    "add_identity_shift",
    "collatz_wielandt_bounds",
    "contract",
    "contraction_factor",
    "diagonal_similarity",
    "init_state",
    "irreducible_iterative",
    "power_iteration",
    "random_tensor",
    "read_tensor",
    "reducible_bruteforce",
    "residual",
    "row_sums",
    "solve",
    "step",
    "write_tensor",
    "write_trace_csv",
]
