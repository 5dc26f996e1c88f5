"""Spectral radius and positive eigenvectors of nonnegative tensors.

The solver balances row sums through spectrum-preserving diagonal
rescalings, keeping a certified lower/upper bound pair at every sweep.
An independent multilinear power iteration and irreducibility analyzers
live alongside it; the pointwise Collatz-Wielandt brackets are in
:mod:`specrad.oracles`.
"""

from .oracles import OracleEstimate, power_iteration
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
    solve,
    step,
    write_trace_csv,
)
from .structure import IrreducibilityVerdict, irreducible_iterative, reducible_bruteforce
from .tensor import DenseTensor, add_identity_shift, contract, random_tensor, row_sums
from .tensorfile import ParseError, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "DenseTensor",
    "IrreducibilityVerdict",
    "IterationState",
    "OracleEstimate",
    "ParseError",
    "SolveReport",
    "SolverConfig",
    "TraceRow",
    "add_identity_shift",
    "contract",
    "contraction_factor",
    "init_state",
    "irreducible_iterative",
    "power_iteration",
    "random_tensor",
    "read_tensor",
    "reducible_bruteforce",
    "row_sums",
    "solve",
    "step",
    "write_tensor",
    "write_trace_csv",
]
