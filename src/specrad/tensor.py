"""Dense nonnegative tensors and the multilinear operations the solvers build on.

A tensor of order ``m`` and dimension ``n`` is a cubical multiarray with
``n**m`` entries ``a[i1, ..., im]``.  Everything here treats tensors as
immutable values: operations return fresh tensors and never mutate inputs,
so instances are safe to share across threads.  The public
``DenseTensor(data)`` constructor copies ``data``; the tensors this package
builds itself (random, read from a file, shifted, rescaled) take ownership
of the fresh array they were computed into, so no ``n**m`` copy is made.
"""

from __future__ import annotations

import numpy as np

# Guard for constructors that allocate from user-supplied sizes (roughly
# 400 MB of float64 entries).
MAX_DENSE_ENTRIES = 50_000_000


def _max_array_rank() -> int:
    """Highest ndarray rank this numpy supports (32 before numpy 2, 64 since)."""
    rank = 1
    try:
        while True:
            np.empty((1,) * (rank + 1))
            rank += 1
    except ValueError:
        return rank


# Highest tensor order a dense backing array can have.
MAX_ORDER = _max_array_rank()


def _validated(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only, once it passes the tensor checks."""
    if arr.ndim < 2:
        raise ValueError(f"tensor order must be >= 2, got array of rank {arr.ndim}")
    n = arr.shape[0]
    if n < 1 or any(s != n for s in arr.shape):
        raise ValueError(f"tensor must be cubical, got shape {arr.shape}")
    # one min/max pass pair decides both checks: a NaN propagates through each
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("tensor entries must be finite")
    if lo < 0:
        raise ValueError("tensor entries must be nonnegative")
    arr.flags.writeable = False
    return arr


class DenseTensor:
    """Order-m, dimension-n nonnegative tensor stored as a dense ndarray.

    The backing array has shape ``(n,) * m`` in C order, so the flat view
    ``entries`` enumerates entries lexicographically by multi-index.
    Construction rejects negative, NaN and infinite entries outright; the
    spectral theory used downstream assumes nonnegativity.  The constructor
    copies ``data``, so later changes to the caller's array never reach the
    tensor; the package's own constructors hand over a fresh array instead
    (:meth:`_own`).
    """

    def __init__(self, data):
        self._data = _validated(np.array(data, dtype=float, order="C"))

    @classmethod
    def _own(cls, arr: np.ndarray) -> DenseTensor:
        """Tensor backed by ``arr`` itself, with the constructor's checks.

        ``arr`` must be a fresh C-order float64 array that no caller can
        reach; it becomes read-only and is not copied.
        """
        tensor = cls.__new__(cls)
        tensor._data = _validated(arr)
        return tensor

    @property
    def order(self) -> int:
        return self._data.ndim

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        """Read-only ndarray of shape ``(dim,) * order``."""
        return self._data

    @property
    def entries(self) -> np.ndarray:
        """Flat read-only view, lexicographic in the multi-index."""
        return self._data.reshape(-1)

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self._data.shape == other.data.shape and bool(
            np.array_equal(self._data, other.data)
        )

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


def _check_vector(a: DenseTensor, x, name: str = "x") -> np.ndarray:
    vec = np.asarray(x, dtype=float)
    if vec.shape != (a.dim,):
        raise ValueError(f"{name} must have length {a.dim}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must have finite entries")
    return vec


def _kron_weights(x: np.ndarray, order: int) -> np.ndarray:
    """Length ``n**(order-1)`` vector ``w[(i2..im)] = x[i2] * ... * x[im]``.

    Indexed in C order, so it lines up with the entries of one row
    ``a[i]``.  Each round prepends one factor as the outer axis, which
    keeps the long axis innermost.  For order 2 it is ``x`` itself.
    """
    w = x
    for _ in range(order - 2):
        w = (x[:, None] * w).reshape(-1)
    return w


def contract(a: DenseTensor, x) -> np.ndarray:
    """Contract the tensor with ``x`` along every axis but the first.

    Returns the length-n vector with components
    ``sum over (i2..im) of a[i, i2, ..., im] * x[i2] * ... * x[im]``,
    the multilinear analogue of a matrix-vector product.  It is computed as
    one: the ``(n, n**(m-1))`` view of the entries times the weight vector
    ``x[i2] * ... * x[im]`` (exactly ``a.data @ x`` when the order is 2).
    """
    vec = _check_vector(a, x)
    return a.data.reshape(a.dim, -1) @ _kron_weights(vec, a.order)


def row_sums(a: DenseTensor) -> np.ndarray:
    """Per-row entry sums; equals ``contract(a, ones)`` by construction.

    The minimum and maximum row sum bracket the spectral radius of any
    nonnegative tensor, which is what makes these the natural certificate
    tracked by the balancing solver.
    """
    return contract(a, np.ones(a.dim))


def diagonal_similarity(a: DenseTensor, d) -> DenseTensor:
    """Rescale by a positive diagonal, preserving the spectrum.

    Entry ``(i1, ..., im)`` becomes
    ``a[i1, ..., im] * d[i2] * ... * d[im] / d[i1]**(m-1)``.
    Eigenvalues are invariant; an eigenvector ``x`` of ``a`` corresponds to
    the eigenvector ``x / d`` of the result.
    """
    vec = np.asarray(d, dtype=float)
    if vec.shape != (a.dim,):
        raise ValueError(f"scaling vector must have length {a.dim}, got shape {vec.shape}")
    if not np.isfinite(vec).all() or (vec <= 0).any():
        raise ValueError("scaling vector entries must be finite and strictly positive")
    m, n = a.order, a.dim
    out = np.array(a.data, copy=True)
    for axis in range(1, m):
        shape = [1] * m
        shape[axis] = n
        out *= vec.reshape(shape)
    shape = [1] * m
    shape[0] = n
    out /= (vec ** (m - 1)).reshape(shape)
    return DenseTensor._own(out)


def add_identity_shift(b: DenseTensor, alpha: float) -> DenseTensor:
    """Add ``alpha`` at every superdiagonal position ``(i, i, ..., i)``.

    The superdiagonal unit tensor acts as ``x -> x**(m-1)`` componentwise,
    so this shifts every eigenvalue of ``b`` by exactly ``alpha``.
    """
    if not alpha >= 0:
        raise ValueError(f"shift must be nonnegative, got {alpha}")
    out = np.array(b.data, copy=True)
    idx = np.arange(b.dim)
    out[(idx,) * b.order] += alpha
    return DenseTensor._own(out)


def exceeds_entry_cap(order: int, dim: int, max_entries: int) -> bool:
    """Whether ``dim**order > max_entries``, without building a huge power.

    For ``dim >= 2`` the power is at least ``2**order``, which exceeds the
    cap as soon as ``order`` passes the cap's bit length.
    """
    if dim >= 2 and order > max_entries.bit_length():
        return True
    return dim**order > max_entries


def check_shape(order: int, dim: int) -> None:
    """Raise ``ValueError`` unless a dense ``(dim,) * order`` tensor can be built.

    Checks, in this order: ``order >= 2``, ``dim >= 1``, at most
    :data:`MAX_DENSE_ENTRIES` entries and at most :data:`MAX_ORDER` axes.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if exceeds_entry_cap(order, dim, MAX_DENSE_ENTRIES):
        raise ValueError(f"{dim}**{order} entries exceed the cap of {MAX_DENSE_ENTRIES}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds numpy's maximum array rank of {MAX_ORDER}")


def random_tensor(order: int, dim: int, seed: int) -> DenseTensor:
    """Seeded tensor with entries drawn i.i.d. uniform on ``[0, 10]``.

    The same ``(order, dim, seed)`` always yields a bit-identical tensor.
    Raises ``ValueError`` on a shape :func:`check_shape` rejects.
    """
    check_shape(order, dim)
    rng = np.random.default_rng(seed)
    return DenseTensor._own(rng.uniform(0.0, 10.0, size=(dim,) * order))
