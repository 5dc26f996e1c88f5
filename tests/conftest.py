"""Shared fixtures, independent test-side oracles and the shared inputs.

The helpers here recompute results with plain scalar loops so the tests
never validate the library against its own code paths.

``scripts/parity.py`` imports from here every input it shares with the
suite, so each has one copy: golden, the sparse, empty-row, positive-matrix
and chain builders, the parse texts and bad files, the CLI cases and their
input files, the caller arrays, the vector functions and the rejected
calls.  It takes the ``small_solve`` instances from
``perfbench/workloads.py`` instead.  That script may run against another
checkout's ``specrad``, so this module imports only names the script calls
itself.
"""

import decimal
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from specrad import (
    DenseTensor,
    SolverConfig,
    add_identity_shift,
    contract,
    contraction_factor,
    init_state,
    power_iteration,
    random_tensor,
    reducible_bruteforce,
    solve,
    write_tensor,
)
from specrad.oracles import collatz_wielandt_bounds
from specrad.solver import residual
from specrad.tensor import diagonal_similarity

# Golden 3x3x3 regression tensor: known spectral radius, eigenvector and
# per-sweep bound trace (frozen below).
GOLDEN_RHO = 5.79262
GOLDEN_EIGENVECTOR = (0.46224, 0.57681, 0.593515)

# Golden is reducible: rows 1 and 2 reach only each other and row 3 has a
# zero diagonal, so rho**2 = 3.72 * 9.02 exactly, with both factors taken as
# their float values.
with decimal.localcontext() as _context:
    _context.prec = 60
    GOLDEN_RHO_EXACT = (decimal.Decimal(3.72) * decimal.Decimal(9.02)).sqrt()

# Frozen reference trace rows (k, lower, upper, gap, midpoint), 6 significant
# digits, k counted from 1 for the initial row sums.
GOLDEN_TRACE = {
    1: (4.72, 10.55, 5.83, 7.635),
    2: (5.24894, 8.89712, 3.64818, 7.07303),
    3: (5.65898, 8.2097, 2.55071, 6.93434),
    4: (5.96904, 7.7527, 1.78366, 6.86087),
    5: (6.19911, 7.45402, 1.25491, 6.82656),
    6: (6.36745, 7.25147, 0.88402, 6.80946),
}


def golden_b() -> DenseTensor:
    data = np.zeros((3, 3, 3))
    data[0, 1, 1] = 3.72
    data[1, 0, 0] = 9.02
    data[2, 0, 0] = 9.55
    return DenseTensor(data)


def golden_file_text() -> str:
    return "3 3\n1 2 2 3.72\n2 1 1 9.02\n3 1 1 9.55\n"


@pytest.fixture
def golden():
    return golden_b()


def identity_tensor(order: int, dim: int, weight: float = 1.0) -> DenseTensor:
    """Tensor with ``weight`` on the superdiagonal and zeros elsewhere."""
    return add_identity_shift(DenseTensor(np.zeros((dim,) * order)), weight)


def sparse_tensor(order: int, dim: int, seed: int, density: float = 0.3) -> DenseTensor:
    """Seeded nonnegative tensor with roughly ``density`` nonzero entries."""
    rng = np.random.default_rng(seed)
    shape = (dim,) * order
    values = rng.uniform(0.0, 10.0, size=shape)
    mask = rng.random(size=shape) < density
    return DenseTensor(values * mask)


def chain(n: int, m: int, cyclic: bool) -> DenseTensor:
    """Row ``i`` is positive only at ``(i, i+1, ..., i+1)``, with a seeded
    value in ``[0.5, 10)``; the open chain leaves the last row empty."""
    data = np.zeros((n,) * m)
    rows = np.arange(n if cyclic else n - 1)
    values = np.random.default_rng(100 * n + m).uniform(0.5, 10.0, size=rows.size)
    data[(rows,) + ((rows + 1) % n,) * (m - 1)] = values
    return DenseTensor(data)


def empty_row_tensor() -> DenseTensor:
    """Seeded dense (4, 3) tensor whose first row is all zero (reducible)."""
    data = np.random.default_rng(0).uniform(0.0, 10.0, size=(4, 4, 4))
    data[0] = 0.0
    return DenseTensor(data)


def positive_matrix(dim: int, seed: int) -> DenseTensor:
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.uniform(0.1, 10.0, size=(dim, dim)))


# characters ``str.splitlines`` breaks at that are whitespace inside a line
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# tensor files the bulk and the per-line parse must read alike
PARITY_CASES = {
    "plus sign": "2 2\n+1 1 1.5\n2 +2 2.5\n",
    "underscore index": "2 12\n1_0 1 1.5\n",
    "full-width digit": "2 2\n\uff12 1 1.5\n",
    "float index": "2 2\n1 1 1.0\n1.0 2 1.5\n",
    "exponent index": "2 2\n1e0 2 1.5\n",
    "nan value": "2 2\n1 1 1.0\n2 2 nan\n",
    "infinity value": "2 2\n1 1 Infinity\n",
    "negative zero": "2 2\n1 1 -0.0\n2 2 3.0\n",
    "crlf": "2 2\r\n1 1 1.5\r\n2 2 0.25\r\n",
    "tabs": "3 2\n1\t2\t1\t1.5\n2 1\t1 7e-3\n",
    "blank lines": "2 2\n\n1 1 1.5\n   \n2 2 2.5\n\n\n",
    "header only": "3 2\n",
    "short then long": "2 2\n1 1\n2 2 1.5 7\n",
    "duplicate on last line": "2 2\n1 1 1.5\n2 1 2.5\n1 1 3.5",
    "comment line": "2 2\n# entries\n1 1 1.5\n",
    "zero index": "2 2\n0 1 1.5\n",
    "negative index": "2 2\n-1 1 1.5\n",
    "index past the dimension": "2 2\n1 3 1.5\n",
}
PARITY_CASES.update(
    {f"separator {c!r}": f"2 2\n1 1{c}1.0\n2 2 3.0\n" for c in SPLITLINES_ONLY}
)


# tensor files ``read_tensor`` rejects: text and the exact ParseError message;
# a header message quotes the line without its terminator
BAD_FILES = {
    "empty": ("", "line 1: empty file, expected header 'm n'"),
    "blank header": ("\n", "line 1: expected header 'm n' with two integers, got ''"),
    "one header field": ("3\n", "line 1: expected header 'm n' with two integers, got '3'"),
    "one header field, crlf": ("3\r\n1 1 1.0\r\n", "line 1: expected header 'm n' with two integers, got '3'"),
    "three header fields, cr": ("2 2 2\r", "line 1: expected header 'm n' with two integers, got '2 2 2'"),
    "text header": ("a b\n", "line 1: header fields must be integers, got 'a b'"),
    "text header, then an entry": ("a b\n1 1 1.0\n", "line 1: header fields must be integers, got 'a b'"),
    # a path drops one leading byte-order mark, a stream none
    "marked header": ("\ufeff2 2\n", "line 1: header fields must be integers, got '\\ufeff2 2'"),
    "order 1": ("1 3\n", "line 1: order must be between 2 and the cap of 25, got 1"),
    "dimension 0": ("2 0\n", "line 1: dimension must be >= 1, got 0"),
    "entry cap": ("3 100000\n", "line 1: 100000**3 entries exceed the cap of 50000000"),
    # 1000**20000000 has 60 million digits; the order cap comes first
    "huge order": ("20000000 1000\n", "line 1: order must be between 2 and the cap of 25, got 20000000"),
    "past the order cap": ("26 1\n", "line 1: order must be between 2 and the cap of 25, got 26"),
    "short line": ("2 2\n1 1\n", "line 2: expected 2 indices and a value, got 2 fields"),
    "text index": ("2 2\nx 1 1.0\n", "line 2: indices must be integers: 'x 1 1.0'"),
    "index out of range": ("2 2\n1 1 1.0\n1 3 2.0\n", "line 3: index 3 out of range 1..2"),
    "bad value": ("2 2\n1 1 abc\n", "line 2: bad value field 'abc'"),
    "negative value": ("2 2\n1 1 -3.0\n", "line 2: value must be nonnegative, got -3.0"),
    "infinite value": ("2 2\n1 1 inf\n", "line 2: value must be finite, got inf"),
    "overflowing value": ("2 2\n1 1 1e400\n", "line 2: value must be finite, got 1e400"),
    "duplicate tuple": ("2 2\n1 1 3.0\n2 1 4.0\n1 1 5.0\n", "line 4: duplicate index tuple (1, 1)"),
}

# Caller arrays as 2x2 tensors; row 0 of each is the vector form.  The one
# dtype rule rejects the NOT_REAL ones: a float cast would keep only the real
# part, with a warning at most, parse a string, count the seconds of a date,
# round a Fraction or overflow on a Python int beyond the float range; an
# object array is rejected whatever it holds.
NOT_REAL = {
    "complex ndarray": lambda: np.array([[1 + 2j, 0], [0, 1]]),
    "complex list": lambda: [[1 + 0j, 0], [0, 1]],
    "str list": lambda: [[1, "2"], [0, 1]],
    "bytes list": lambda: [[b"1", b"2"], [b"0", b"1"]],
    "datetime64": lambda: np.array([[1, 2], [0, 1]], dtype="datetime64[s]"),
    "timedelta64": lambda: np.array([[1, 2], [0, 1]], dtype="timedelta64[s]"),
    "object complex": lambda: np.array([[1 + 2j, 0], [0, 1]], dtype=object),
    "object str": lambda: np.array([[1, "2"], [0, 1]], dtype=object),
    "object bytes": lambda: np.array([[1, b"2"], [0, 1]], dtype=object),
    "object Fraction": lambda: np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object),
    "object floats": lambda: np.array([[0.5, 2.0], [1.0, 1.0]], dtype=object),
    "list with 10**400": lambda: [[10**400, 1], [0, 1]],
    "list with 2**64": lambda: [[2**64, 1], [0, 1]],
}
CALLER_ARRAYS = {
    **NOT_REAL,
    "list with 2**63": lambda: [[2**63, 1], [0, 1]],
    "bool": lambda: np.array([[True, True], [False, True]]),
    "int64": lambda: np.array([[1, 3], [0, 2]]),
    "uint8": lambda: np.array([[2, 1], [0, 255]], dtype=np.uint8),
    "float16": lambda: np.array([[0.5, 2.0], [1.0, 3.0]], dtype=np.float16),
    "float32": lambda: np.array([[0.1, 2.0], [1.0, 3.0]], dtype=np.float32),
    "longdouble": lambda: np.array([[0.1, 2.0], [1.0, 3.0]], dtype=np.longdouble),
    "float list": lambda: [[0.5, 2.0], [1.0, 1.0]],
    "numpy scalars": lambda: [[np.float64(0.5), np.int32(2)], [np.uint8(1), np.bool_(True)]],
    "Fortran order": lambda: np.asfortranarray([[0.5, 2.0], [1.0, 1.0]]),
    "nan": lambda: [[np.nan, 1.0], [0.0, 1.0]],
    "negative": lambda: [[-1.0, 1.0], [0.0, 1.0]],
}

# every public function that takes a length-n vector from its caller
VECTOR_FUNCTIONS = {
    "contract": contract,
    "diagonal_similarity": diagonal_similarity,
    "collatz_wielandt_bounds": collatz_wielandt_bounds,
    "residual": lambda a, x: residual(a, 2.0, x),
}

# Every documented ValueError of the Python API: case name -> (call, exact
# message).  ``tests/test_package.py`` asserts each row; each name is also
# the row's case name in ``scripts/parity.py``, where a bare
# ``add_identity_shift`` value shifts golden.  Shapes are (n, m).
_GOLDEN = golden_b()
_RANDOM = random_tensor(3, 3, 0)
_ONES = DenseTensor(np.ones((2, 2, 2)))
# finite entries whose row 1 sums past the float range
_OVERFLOWING = DenseTensor([[1e308, 1e308], [0.0, 1.0]])
# (2,3) with an all-zero row 1
_ZERO_ROW = DenseTensor([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
_FINITE = "tensor entries must be finite"
_CUBICAL = "tensor must be cubical, got shape"
_DIMENSION = "dimension must be >= 1, got 0"
_ORDER_CAP = "order must be between 2 and the cap of 25, got"
_ENTRY_CAP = "entries exceed the cap of 50000000"
_LENGTH = "x must have length 3, got shape"
_OVERFLOW = "row 1 of the contraction overflows; scale the entries or x down"
_RATIO = "row 1 of the ratio is not finite; x**(m-1) leaves the float range"
_POSITIVE = "scaling vector entries must be strictly positive"
_SHIFT = "shift must be finite and nonnegative, got"
_ALPHA = "alpha must be finite and nonnegative, got"
_TOL = "tol must be finite and positive, got"
_SWEEPS = "max_iter must be an integer >= 1, got"
_ITERATIONS = "max_iter must be an integer >= 0, got"
_ZERO_SUM = "of the shifted tensor has zero row sum; use a positive alpha or remove zero rows"
_SUM_OVERFLOWS = "of the shifted tensor has a row sum that overflows; scale the entries down"
_ORACLE_ZERO_SUM = "of the tensor has zero row sum; power iteration needs positive rows"
# the dtype that the dtype rule's message names for each NOT_REAL array, and
# the name that each vector function's message gives its argument
_NOT_REAL_DTYPES = {
    "complex ndarray": "complex128",
    "complex list": "complex128",
    "str list": "<U21",
    "bytes list": "|S1",
    "datetime64": "datetime64[s]",
    "timedelta64": "timedelta64[s]",
    "object complex": "object",
    "object str": "object",
    "object bytes": "object",
    "object Fraction": "object",
    "object floats": "object",
    "list with 10**400": "object",
    "list with 2**64": "object",
}
_ARGUMENTS = {"contract": "x", "diagonal_similarity": "scaling vector", "collatz_wielandt_bounds": "x", "residual": "x"}
_SQUARE = DenseTensor([[1.0, 2.0], [3.0, 0.5]])
REJECTED_CALLS = {
    "DenseTensor [[0.0, -1.0], [0.0, 0.0]]": (
        lambda: DenseTensor([[0.0, -1.0], [0.0, 0.0]]),
        "tensor entries must be nonnegative",
    ),
    "DenseTensor [[nan, 0.0], [0.0, 0.0]]": (lambda: DenseTensor([[np.nan, 0.0], [0.0, 0.0]]), _FINITE),
    "DenseTensor [[inf, 0.0], [0.0, 0.0]]": (lambda: DenseTensor([[np.inf, 0.0], [0.0, 0.0]]), _FINITE),
    "DenseTensor [[nan, -1.0], [0.0, 0.0]]": (lambda: DenseTensor([[np.nan, -1.0], [0.0, 0.0]]), _FINITE),
    "DenseTensor [[-inf, 0.0], [0.0, 0.0]]": (lambda: DenseTensor([[-np.inf, 0.0], [0.0, 0.0]]), _FINITE),
    # the infinity is named before the negative entry, and so is NaN beside
    # +inf, although the row sums alone would be inf and NaN
    "DenseTensor [[inf, -1.0], [0.0, 0.0]]": (lambda: DenseTensor([[np.inf, -1.0], [0.0, 0.0]]), _FINITE),
    "DenseTensor [[0.0, 0.0], [nan, inf]]": (lambda: DenseTensor([[0.0, 0.0], [np.nan, np.inf]]), _FINITE),
    "DenseTensor zeros (2, 3)": (lambda: DenseTensor(np.zeros((2, 3))), f"{_CUBICAL} (2, 3)"),
    "DenseTensor zeros (0, 0)": (lambda: DenseTensor(np.zeros((0, 0))), _DIMENSION),
    "DenseTensor zeros (0, 0, 0)": (lambda: DenseTensor(np.zeros((0, 0, 0))), _DIMENSION),
    "DenseTensor zeros (0, 3)": (lambda: DenseTensor(np.zeros((0, 3))), f"{_CUBICAL} (0, 3)"),
    "DenseTensor zeros (4,)": (lambda: DenseTensor(np.zeros(4)), f"{_ORDER_CAP} 1"),
    "DenseTensor ones (1,) * 26": (lambda: DenseTensor(np.ones((1,) * 26)), f"{_ORDER_CAP} 26"),
    # a tensor takes the whole array, each vector function its row 0
    **{
        f"DenseTensor {name}": (
            lambda f=make: DenseTensor(f()),
            f"tensor entries must be real numbers, got dtype {_NOT_REAL_DTYPES[name]}",
        )
        for name, make in NOT_REAL.items()
    },
    **{
        f"{fn_name} {name}": (
            lambda f=make, fn=fn: fn(_SQUARE, f()[0]),
            f"{_ARGUMENTS[fn_name]} must be real numbers, got dtype {_NOT_REAL_DTYPES[name]}",
        )
        for name, make in NOT_REAL.items()
        for fn_name, fn in VECTOR_FUNCTIONS.items()
    },
    "contract random (3,3) at ones(4)": (lambda: contract(_RANDOM, np.ones(4)), f"{_LENGTH} (4,)"),
    "contract random (3,3) at [1.0, nan, 1.0]": (
        lambda: contract(_RANDOM, [1.0, np.nan, 1.0]),
        "x must have finite entries",
    ),
    "residual golden at 1.0, ones(4)": (lambda: residual(_GOLDEN, 1.0, np.ones(4)), f"{_LENGTH} (4,)"),
    "collatz_wielandt_bounds golden at [1.0, 1.0]": (
        lambda: collatz_wielandt_bounds(_GOLDEN, [1.0, 1.0]),
        f"{_LENGTH} (2,)",
    ),
    "collatz_wielandt_bounds golden at [1.0, 0.0, 1.0]": (
        lambda: collatz_wielandt_bounds(_GOLDEN, [1.0, 0.0, 1.0]),
        "x must be strictly positive",
    ),
    # construction accepts a row sum past the float range; each function
    # that contracts a caller's vector names the row
    "contract overflowing (2,2) at [1.0, 1.0]": (lambda: contract(_OVERFLOWING, [1.0, 1.0]), _OVERFLOW),
    "residual overflowing (2,2) at 2.0, [1.0, 1.0]": (lambda: residual(_OVERFLOWING, 2.0, [1.0, 1.0]), _OVERFLOW),
    "collatz_wielandt_bounds overflowing (2,2) at [1.0, 1.0]": (
        lambda: collatz_wielandt_bounds(_OVERFLOWING, [1.0, 1.0]),
        _OVERFLOW,
    ),
    # the contraction is finite, but x**(m-1) underflows (a 0/0 and a
    # finite/0 ratio) or value * x**(m-1) overflows
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1e-200]": (
        lambda: collatz_wielandt_bounds(_ONES, [1e-200, 1e-200]),
        _RATIO,
    ),
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1.0]": (
        lambda: collatz_wielandt_bounds(_ONES, [1e-200, 1.0]),
        _RATIO,
    ),
    "residual [[1.0]] at 1e308, [2.0]": (
        lambda: residual(DenseTensor([[1.0]]), 1e308, [2.0]),
        "row 1 of the defect is not finite; scale the value or the vector down",
    ),
    # a rescale or a shift past the float range, or a 1/0 rescale
    "diagonal_similarity random (3,3) by [1e200, 1.0, 1.0]": (
        lambda: diagonal_similarity(_RANDOM, [1e200, 1.0, 1.0]),
        _FINITE,
    ),
    "diagonal_similarity random (3,3) by [1e-200, 1.0, 1.0]": (
        lambda: diagonal_similarity(_RANDOM, [1e-200, 1.0, 1.0]),
        _FINITE,
    ),
    "add_identity_shift full (2,2) 1e308 by 1e308": (
        lambda: add_identity_shift(DenseTensor(np.full((2, 2), 1e308)), 1e308),
        _FINITE,
    ),
    "diagonal_similarity random (3,3) by [1.0, 0.0, 1.0]": (
        lambda: diagonal_similarity(_RANDOM, [1.0, 0.0, 1.0]),
        _POSITIVE,
    ),
    "diagonal_similarity random (3,3) by [1.0, -2.0, 1.0]": (
        lambda: diagonal_similarity(_RANDOM, [1.0, -2.0, 1.0]),
        _POSITIVE,
    ),
    "add_identity_shift -1.0": (lambda: add_identity_shift(_GOLDEN, -1.0), f"{_SHIFT} -1.0"),
    "add_identity_shift inf": (lambda: add_identity_shift(_GOLDEN, np.inf), f"{_SHIFT} inf"),
    "add_identity_shift nan": (lambda: add_identity_shift(_GOLDEN, np.nan), f"{_SHIFT} nan"),
    "random_tensor (1000,3)": (lambda: random_tensor(3, 1000, 0), f"1000**3 {_ENTRY_CAP}"),
    # 64M entries, just over the cap: rejected before anything is allocated
    "random_tensor (400,3)": (lambda: random_tensor(3, 400, 0), f"400**3 {_ENTRY_CAP}"),
    # 1000**20000000 has 60 million digits; the order cap comes first
    "random_tensor (1000,20000000)": (lambda: random_tensor(20_000_000, 1000, 0), f"{_ORDER_CAP} 20000000"),
    "random_tensor (1,26)": (lambda: random_tensor(26, 1, 0), f"{_ORDER_CAP} 26"),
    "random_tensor (2,26)": (lambda: random_tensor(26, 2, 0), f"{_ORDER_CAP} 26"),
    "random_tensor (3,1)": (lambda: random_tensor(1, 3, 0), f"{_ORDER_CAP} 1"),
    "random_tensor (0,2)": (lambda: random_tensor(2, 0, 0), _DIMENSION),
    "SolverConfig alpha=-0.5": (lambda: SolverConfig(alpha=-0.5), f"{_ALPHA} -0.5"),
    "SolverConfig alpha=inf": (lambda: SolverConfig(alpha=np.inf), f"{_ALPHA} inf"),
    "SolverConfig tol=0.0": (lambda: SolverConfig(tol=0.0), f"{_TOL} 0.0"),
    "SolverConfig tol=inf": (lambda: SolverConfig(tol=np.inf), f"{_TOL} inf"),
    "SolverConfig max_iter=0": (lambda: SolverConfig(max_iter=0), f"{_SWEEPS} 0"),
    "SolverConfig max_iter=2.5": (lambda: SolverConfig(max_iter=2.5), f"{_SWEEPS} 2.5"),
    # a bool is not a sweep count; numpy 1.23 prints np.True_ as True
    "SolverConfig max_iter=True": (lambda: SolverConfig(max_iter=True), f"{_SWEEPS} True"),
    "SolverConfig max_iter=False": (lambda: SolverConfig(max_iter=False), f"{_SWEEPS} False"),
    "SolverConfig max_iter=np.True_": (lambda: SolverConfig(max_iter=np.True_), f"{_SWEEPS} {np.True_!r}"),
    "init_state zero row (2,3) alpha=0.0": (
        lambda: init_state(_ZERO_ROW, SolverConfig(alpha=0.0)),
        f"row 1 {_ZERO_SUM}",
    ),
    "init_state overflowing (2,2)": (lambda: init_state(_OVERFLOWING, SolverConfig()), f"row 1 {_SUM_OVERFLOWS}"),
    "solve [[0.0, 1.0], [1e308, 1e308]] alpha=0.0": (
        lambda: solve(DenseTensor([[0.0, 1.0], [1e308, 1e308]]), SolverConfig(alpha=0.0)),
        f"row 2 {_SUM_OVERFLOWS}",
    ),
    # a zero row is named before an earlier row whose sum overflows
    "init_state [[1e308, 1e308], [0.0, 0.0]] alpha=0.0": (
        lambda: init_state(DenseTensor([[1e308, 1e308], [0.0, 0.0]]), SolverConfig(alpha=0.0)),
        f"row 2 {_ZERO_SUM}",
    ),
    "contraction_factor ones (2,3)": (
        lambda: contraction_factor(init_state(_ONES, SolverConfig())),
        "row sums are constant; contraction factor is undefined",
    ),
    "power_iteration zero row (2,3)": (lambda: power_iteration(_ZERO_ROW), f"row 1 {_ORACLE_ZERO_SUM}"),
    "power_iteration overflowing (2,2)": (
        lambda: power_iteration(_OVERFLOWING),
        "row 1 of the tensor has a row sum that overflows; scale the entries down",
    ),
    "power_iteration [[1e308, 1e308], [0.0, 0.0]]": (
        lambda: power_iteration(DenseTensor([[1e308, 1e308], [0.0, 0.0]])),
        f"row 2 {_ORACLE_ZERO_SUM}",
    ),
    "power_iteration golden tol=0.0": (lambda: power_iteration(_GOLDEN, tol=0.0), f"{_TOL} 0.0"),
    "power_iteration golden tol=inf": (lambda: power_iteration(_GOLDEN, tol=np.inf), f"{_TOL} inf"),
    "power_iteration golden max_iter=-1": (lambda: power_iteration(_GOLDEN, max_iter=-1), f"{_ITERATIONS} -1"),
    "power_iteration golden max_iter=1.5": (lambda: power_iteration(_GOLDEN, max_iter=1.5), f"{_ITERATIONS} 1.5"),
    "power_iteration golden max_iter=1e4": (lambda: power_iteration(_GOLDEN, max_iter=1e4), f"{_ITERATIONS} 10000.0"),
    "power_iteration golden max_iter='10'": (lambda: power_iteration(_GOLDEN, max_iter="10"), f"{_ITERATIONS} '10'"),
    "power_iteration golden max_iter=None": (lambda: power_iteration(_GOLDEN, max_iter=None), f"{_ITERATIONS} None"),
    "power_iteration golden max_iter=True": (lambda: power_iteration(_GOLDEN, max_iter=True), f"{_ITERATIONS} True"),
    "power_iteration golden max_iter=False": (
        lambda: power_iteration(_GOLDEN, max_iter=False),
        f"{_ITERATIONS} False",
    ),
    "power_iteration golden max_iter=np.True_": (
        lambda: power_iteration(_GOLDEN, max_iter=np.True_),
        f"{_ITERATIONS} {np.True_!r}",
    ),
    "reducible_bruteforce ones (21,2)": (
        lambda: reducible_bruteforce(DenseTensor(np.ones((21, 21)))),
        "subset scan is capped at dim 20 (got 21); use irreducible_iterative instead",
    ),
}


def _by_text(text):
    return lambda name: Path(name).write_text(text)


# The input files of the CLI cases, each written into the working directory
# by the case whose argv names it.
CLI_FILES = {
    "t.txt": lambda name: write_tensor(random_tensor(3, 30, 1), name),
    # dense order 16: the irreducibility walk over 2**15 index tuples
    "hi.txt": lambda name: write_tensor(random_tensor(16, 2, 1), name),
    # the order cap is 25 on every numpy, the 1.23 floor included
    "deep.txt": lambda name: write_tensor(random_tensor(25, 1, 0), name),
    "chain_cyclic.txt": lambda name: write_tensor(chain(40, 3, cyclic=True), name),
    "chain_open.txt": lambda name: write_tensor(chain(40, 3, cyclic=False), name),
    # a bad value and a repeated tuple: the bulk pass rejects both, the
    # per-line pass names the line
    "nan.txt": _by_text("2 2\n1 1 1.5\n2 1 nan\n"),
    "dup.txt": _by_text("2 2\n1 1 1.5\n1 1 2.5\n"),
    # cyclic chain a[i, i+1, i+1] = i: the oracle cycles, so it skips to its cap
    "cycle.txt": _by_text("3 3\n1 2 2 1\n2 3 3 2\n3 1 1 3\n"),
    "golden.txt": _by_text(golden_file_text()),
    "diag.txt": _by_text("3 3\n1 1 1 1.0\n2 2 2 1.0\n3 3 3 1.0\n"),
    "zero_row.txt": _by_text("2 2\n2 1 1.0\n"),
    "bad.txt": _by_text("nope\n"),
    "huge.txt": _by_text("20000000 1000\n"),
    "too_deep.txt": _by_text("26 1\n"),
}


def _case(argv, code, expected, written=None):
    label = " ".join(arg or '""' for arg in argv)
    return pytest.param(argv, code, expected, written or {}, id=label)


_GOLDEN_REPORT = (
    "rho = 5.79262\nrho_shifted = 6.79262\nbounds = [6.79262, 6.79262]\n"
    "gap = 9.51629e-08\niterations = 51\nconverged = yes\n"
)
# The CLI cases: argv, exit code, expected text (in stderr for exit 1, else
# in stdout), and the files the command writes with the text each starts
# with.  ``tests/test_cli.py`` asserts them; ``scripts/parity.py`` records
# each outcome.
CLI_CASES = [
    _case(["solve", "t.txt"], 0, "converged = yes"),
    _case(["solve", "--oracle", "t.txt"], 0, "oracle bracket = [4490.98, 4490.98]"),
    _case(["solve", "--alpha", "0", "t.txt"], 0, "rho_shifted = 4489.98"),
    _case(
        ["solve", "--trace-csv", "tr.csv", "--normalize", "t.txt"],
        0,
        ", 1, ",
        {"tr.csv": "k,r,R,gap,mid\n"},
    ),
    _case(["check", "t.txt"], 0, "irreducible"),
    _case(["check", "hi.txt"], 0, "irreducible"),
    _case(["solve", "deep.txt"], 0, "converged = yes"),
    _case(["check", "deep.txt"], 0, "irreducible"),
    _case(["check", "chain_cyclic.txt"], 0, "irreducible"),
    _case(["check", "chain_open.txt"], 3, "reducible, witness I = {2,3,"),
    *(
        _case([verb, name], 1, expected)
        for verb in ("solve", "check")
        for name, expected in (
            ("nan.txt", "error: line 3: value must be finite, got nan\n"),
            ("dup.txt", "error: line 3: duplicate index tuple (1, 1)\n"),
        )
    ),
    _case(["solve", "--alpha", "0", "--oracle", "cycle.txt"], 2, "10000 iterations, not converged"),
    _case(["solve", "golden.txt"], 0, _GOLDEN_REPORT),
    _case(
        ["solve", "golden.txt", "--alpha", "0"],
        2,
        "rho = 6.37\nrho_shifted = 6.37\nbounds = [3.72, 9.02]\ngap = 5.3\n"
        "iterations = 100\nconverged = no\n",
    ),
    _case(
        ["solve", "golden.txt", "--alpha", "0", "--oracle"],
        2,
        "oracle bracket = [3.72, 9.02] (mid 6.37, 10000 iterations, not converged)\n",
    ),
    _case(
        ["solve", "golden.txt", "--oracle"],
        0,
        "oracle bracket = [6.79262, 6.79262] (mid 6.79262, 65 iterations, converged)\n",
    ),
    _case(
        ["solve", "golden.txt", "--trace-csv", "tr.csv"],
        0,
        _GOLDEN_REPORT,
        {"tr.csv": "k,r,R,gap,mid\n1,4.72,10.55,5.83,7.635\n2,5.24894,8.89712,3.64818,7.07303\n"},
    ),
    _case(
        ["solve", "golden.txt", "--alpha", "2.5", "--normalize", "--trace-csv", "tr.csv"],
        0,
        "eigenvector = [0.778817, 0.971855, 1]\n",
        {"tr.csv": "k,r,R,gap,mid\n1,6.22,12.05,5.83,9.135\n"},
    ),
    _case(
        ["solve", "golden.txt", "--alpha", "0", "--max-iter", "5000", "--trace-csv", "tr.csv"],
        2,
        "iterations = 5000\nconverged = no\n",
        {"tr.csv": "k,r,R,gap,mid\n1,3.72,9.55,5.83,6.635\n"},
    ),
    _case(["solve", "golden.txt", "--max-iter", "3"], 2, "iterations = 3\nconverged = no\n"),
    _case(
        ["solve", "golden.txt", "--max-iter", "3", "--tol", "1e-3"],
        2,
        "gap = 1.78366\niterations = 3\nconverged = no\n",
    ),
    _case(["solve", "golden.txt", "--alpha", "inf"], 1, "error: alpha must be finite and nonnegative, got inf\n"),
    _case(["solve", "nope.txt"], 1, "error: [Errno 2] No such file or directory: 'nope.txt'\n"),
    _case(
        ["solve", "--alpha", "0", "zero_row.txt"],
        1,
        "error: row 1 of the shifted tensor has zero row sum; use a positive alpha or remove zero rows\n",
    ),
    _case(["check", "golden.txt"], 3, "reducible, witness I = {1,2}\n"),
    _case(["check", "diag.txt"], 3, "reducible, witness I = {1,2}\n"),
    _case(["check", "bad.txt"], 1, "error: line 1: expected header 'm n' with two integers, got 'nope'\n"),
    _case(["check", "huge.txt"], 1, f"error: line 1: {_ORDER_CAP} 20000000\n"),
    _case(["check", "too_deep.txt"], 1, f"error: line 1: {_ORDER_CAP} 26\n"),
    _case(["random", "--m", "3", "--n", "4", "--seed", "7"], 0, "3 4\n1 1 1 6.2509546660466695\n"),
    _case(["random", "--m", "25", "--n", "1"], 0, "25 1\n" + "1 " * 25 + "6.369616873214543\n"),
    _case(["random", "--m", "26", "--n", "1"], 1, f"error: {_ORDER_CAP} 26\n"),
    _case(["random", "--m", "20000000", "--n", "1000"], 1, f"error: {_ORDER_CAP} 20000000\n"),
    _case(
        ["random", "--m", "3", "--n", "10000", "--seed", "0"],
        1,
        "error: 10000**3 entries exceed the cap of 50000000\n",
    ),
    # an empty path is as unusable as any other
    _case(["solve", "golden.txt", "--trace-csv", ""], 1, "error: [Errno 2] No such file or directory: ''\n"),
    _case(["random", "--m", "2", "--n", "2", "--out", ""], 1, "error: [Errno 2] No such file or directory: ''\n"),
    # an unusable trace path fails before the first report line
    _case(
        ["solve", "golden.txt", "--trace-csv", "missing/tr.csv"],
        1,
        "error: [Errno 2] No such file or directory: 'missing/tr.csv'\n",
    ),
    _case(
        ["random", "--m", "3", "--n", "5", "--out", "missing/x.txt"],
        1,
        "error: [Errno 2] No such file or directory: 'missing/x.txt'\n",
    ),
]


def contract_loops(t: DenseTensor, x) -> np.ndarray:
    """Scalar-loop contraction, independent of the library's vectorized path."""
    n, m = t.dim, t.order
    x = np.asarray(x, dtype=float)
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for tup in itertools.product(range(n), repeat=m - 1):
            term = t.data[(i,) + tup]
            for j in tup:
                term = term * x[j]
            total += term
        out[i] = total
    return out


def diagonal_similarity_loops(t: DenseTensor, d) -> np.ndarray:
    """Scalar-loop ``a[i1..im] * d[i2] * ... * d[im] / d[i1]**(m-1)``, entry by entry."""
    n, m = t.dim, t.order
    out = np.zeros(t.data.shape)
    for index in itertools.product(range(n), repeat=m):
        term = float(t.data[index])
        for j in index[1:]:
            term *= float(d[j])
        out[index] = term / float(d[index[0]]) ** (m - 1)
    return out


def planted_tensor(order: int, dim: int, seed: int, c: float = 10.0):
    """Seeded tensor with spectral radius ``c`` and eigenvector ``∝ 1/d``,
    returned with ``d``; both follow from the construction, not from a solver.

    ``C`` has a positive superdiagonal, zeros on about half its other
    entries for odd seeds, and every row summing to ``c``: the all-ones
    vector is an eigenvector for ``c``, and ``c`` is the spectral radius
    since the row sums bracket it.  The diagonal similarity by ``d`` (spread
    up to 30 times) keeps the spectrum and maps that eigenvector to ``1/d``.
    """
    rng = np.random.default_rng(seed)
    shape = (dim,) * order
    data = rng.uniform(0.0, 1.0, size=shape)
    if seed % 2:
        data *= rng.random(size=shape) < 0.5
    data[(np.arange(dim),) * order] += 1.0
    data *= (c / data.reshape(dim, -1).sum(axis=1)).reshape((dim,) + (1,) * (order - 1))
    d = 30.0 ** rng.uniform(0.0, 1.0, size=dim)
    return DenseTensor(diagonal_similarity_loops(DenseTensor(data), d)), d


def reducing_subset_ok(t: DenseTensor, witness_1based) -> bool:
    """Entry-by-entry zero-pattern check of a claimed reducing subset."""
    n, m = t.dim, t.order
    inside = {i - 1 for i in witness_1based}
    if not inside or len(inside) >= n:
        return False
    outside = [i for i in range(n) if i not in inside]
    for i in inside:
        for tup in itertools.product(outside, repeat=m - 1):
            if t.data[(i,) + tup] != 0:
                return False
    return True


def contraction_factor_loops(t: DenseTensor, sums) -> float:
    """Enumeration oracle for the certified gap-shrink factor.

    Recomputes the post-sweep row sums by scalar loops, picks the rows that
    will carry the new extremes (lowest index on ties), and enumerates the
    index-tuple split explicitly.
    """
    n, m = t.dim, t.order
    sums = np.asarray(sums, dtype=float)
    next_sums = []
    for i in range(n):
        total = 0.0
        for tup in itertools.product(range(n), repeat=m - 1):
            term = float(t.data[(i,) + tup])
            for j in tup:
                term *= sums[j] ** (1.0 / (m - 1))
            total += term
        next_sums.append(total / sums[i])
    s = min(range(n), key=lambda i: (-next_sums[i], i))
    tt = min(range(n), key=lambda i: (next_sums[i], i))
    mass = 0.0
    for tup in itertools.product(range(n), repeat=m - 1):
        a_s = float(t.data[(s,) + tup])
        a_t = float(t.data[(tt,) + tup])
        if a_s / sums[s] >= a_t / sums[tt]:
            mass += a_t
        else:
            mass += a_s
    return 1.0 - mass / float(sums.max())
