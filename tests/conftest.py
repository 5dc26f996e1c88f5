"""Shared fixtures, independent test-side oracles and the shared inputs.

The helpers here recompute results with plain scalar loops so the tests
never validate the library against its own code paths.

``scripts/parity.py`` imports from here every input it shares with the
suite, so each has one copy: golden, the sparse, empty-row, positive-matrix
and chain builders, the parse texts and bad files, the caller arrays, the
vector functions and the out-of-range vector calls.  It takes the
``small_solve`` instances from ``perfbench/workloads.py`` instead.  That
script may run against another checkout's ``specrad``, so this module
imports only names the script calls itself.
"""

import decimal
import itertools
from fractions import Fraction

import numpy as np
import pytest

from specrad import DenseTensor, add_identity_shift, contract
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


# tensor files ``read_tensor`` rejects: text and the exact ParseError message
BAD_FILES = {
    "empty": ("", "line 1: empty file, expected header 'm n'"),
    "one header field": ("3\n", "line 1: expected header 'm n' with two integers, got '3'"),
    "text header": ("a b\n", "line 1: header fields must be integers, got 'a b'"),
    "order 1": ("1 3\n", "line 1: order must be between 2 and the cap of 25, got 1"),
    "dimension 0": ("2 0\n", "line 1: dimension must be >= 1, got 0"),
    "entry cap": ("3 100000\n", "line 1: 100000**3 entries exceed the cap of 50000000"),
    # 1000**20000000 has 60 million digits; the order cap comes first
    "huge order": ("20000000 1000\n", "line 1: order must be between 2 and the cap of 25, got 20000000"),
    "past the order cap": ("26 1\n", "line 1: order must be between 2 and the cap of 25, got 26"),
    "bad value": ("2 2\n1 1 abc\n", "line 2: bad value field 'abc'"),
    "negative value": ("2 2\n1 1 -3.0\n", "line 2: value must be nonnegative, got -3.0"),
    "overflowing value": ("2 2\n1 1 1e400\n", "line 2: value must be finite, got 1e400"),
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

# Vector arguments whose contraction is finite but whose ratio or defect
# leaves the float range: x**(m-1) underflows (a 0/0 and a finite/0 ratio) or
# value * v**(m-1) overflows.  Each call with its exact ValueError message.
_RATIO = "row 1 of the ratio is not finite; x**(m-1) leaves the float range"
OUT_OF_RANGE = {
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1e-200]": (
        lambda: collatz_wielandt_bounds(DenseTensor(np.ones((2, 2, 2))), [1e-200, 1e-200]),
        _RATIO,
    ),
    "collatz_wielandt_bounds ones (2,3) at [1e-200, 1.0]": (
        lambda: collatz_wielandt_bounds(DenseTensor(np.ones((2, 2, 2))), [1e-200, 1.0]),
        _RATIO,
    ),
    "residual [[1.0]] at 1e308, [2.0]": (
        lambda: residual(DenseTensor([[1.0]]), 1e308, [2.0]),
        "row 1 of the defect is not finite; scale the value or the vector down",
    ),
}


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
