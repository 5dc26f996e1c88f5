"""Shared fixtures and independent test-side oracles.

The helpers here recompute results with plain scalar loops so the tests
never validate the library against its own code paths.
"""

import itertools

import numpy as np
import pytest

from specrad import DenseTensor, add_identity_shift

# Golden 3x3x3 regression tensor: known spectral radius, eigenvector and
# per-sweep bound trace (frozen below).
GOLDEN_RHO = 5.79262
GOLDEN_RHO_SHIFTED = 6.79262
GOLDEN_EIGENVECTOR = (0.46224, 0.57681, 0.593515)

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
    """Row ``i`` is positive only at ``(i, i+1, ..., i+1)``; the open chain
    leaves the last row empty."""
    data = np.zeros((n,) * m)
    rows = np.arange(n if cyclic else n - 1)
    data[(rows,) + ((rows + 1) % n,) * (m - 1)] = 1.0
    return DenseTensor(data)


def empty_row_tensor() -> DenseTensor:
    """Seeded dense (4, 3) tensor whose first row is all zero (reducible)."""
    data = np.random.default_rng(0).uniform(0.0, 10.0, size=(4, 4, 4))
    data[0] = 0.0
    return DenseTensor(data)


def positive_matrix(dim: int, seed: int) -> DenseTensor:
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.uniform(0.1, 10.0, size=(dim, dim)))


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
