"""Dense nonnegative tensors and the multilinear operations the solvers build on.

A tensor of order ``m`` and dimension ``n`` is a cubical multiarray with
``n**m`` entries ``a[i1, ..., im]``.  Everything here treats tensors as
immutable values: operations return fresh tensors and never mutate inputs,
so instances are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

# Guard for constructors that allocate from user-supplied sizes (roughly
# 400 MB of float64 entries).
MAX_DENSE_ENTRIES = 50_000_000

# Highest tensor order, the same for every dimension and every numpy:
# 2**25 <= MAX_DENSE_ENTRIES < 2**26, so above it only dimension 1 would fit.
MAX_ORDER = MAX_DENSE_ENTRIES.bit_length() - 1

_TINY = float(np.finfo(float).tiny)

# random_tensor fills a tensor of more entries than this in two halves at
# once.  Starting the second thread costs about 40 us, which the split repays
# from about here on; the fill time one thread -> two, best of 9 on 2 cores
# with numpy 2.4.6, is 18 -> 51 us at 8000 entries, 103 -> 119 us at 64000
# and 339 -> 207 us at 216000.
_ONE_THREAD_ENTRIES = 2**16


def _real_array(data, name: str) -> np.ndarray:
    """Fresh C-order float64 copy of a caller's tensor or vector, whose dtype
    must be bool, integer or float: a cast of any other (complex, string,
    bytes, date, object) would drop an imaginary part or parse a value."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return np.array(arr, dtype=float, order="C")


def _validated(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``arr`` and its row sums, both made read-only, once ``arr`` passes the
    tensor checks.

    Two passes decide every check: a ``min`` (NaN and ``-inf`` propagate into
    it) and the row-sum product, which is the certificate the solvers start
    from.  A row holding ``+inf`` cannot sum to a finite value, so ``max`` runs
    only when the largest row sum (:func:`_extremes`) is ``inf`` or NaN; a sum
    of ``-inf`` needs a negative entry, which is rejected anyway.  Finite
    entries whose sum overflows still pass.
    """
    if not 2 <= arr.ndim <= MAX_ORDER:
        raise ValueError(f"order must be between 2 and the cap of {MAX_ORDER}, got {arr.ndim}")
    n = arr.shape[0]
    if arr.shape != (n,) * arr.ndim:
        raise ValueError(f"tensor must be cubical, got shape {arr.shape}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    lo = arr.min()
    with np.errstate(over="ignore", invalid="ignore"):
        sums = arr.reshape(n, -1).dot(np.ones(n ** (arr.ndim - 1)))
    if not math.isfinite(lo) or (not _extremes(sums)[1] < np.inf and not math.isfinite(arr.max())):
        raise ValueError("tensor entries must be finite")
    if lo < 0:
        raise ValueError("tensor entries must be nonnegative")
    arr.flags.writeable = False
    sums.flags.writeable = False
    return arr, sums


class DenseTensor:
    """Order-m, dimension-n nonnegative tensor stored as a dense ndarray.

    The backing array has shape ``(n,) * m`` in C order, so the flat view
    ``entries`` enumerates entries lexicographically by multi-index.
    Construction accepts bool, integer and float dtypes only, as every
    vector argument does (:func:`_real_array`), so object arrays are
    rejected; so are negative, NaN and infinite entries, which the spectral
    theory used downstream excludes.  It also rejects an order above
    :data:`MAX_ORDER`, the largest order :func:`check_shape` and a file
    header accept.  The constructor copies ``data``, so later changes to the
    caller's array never reach the tensor; the package's own constructors
    hand over a fresh array instead (:meth:`_own`).  The row sums are
    computed once, during validation, and kept read-only beside the entries
    (:func:`row_sums`).
    """

    def __init__(self, data):
        self._data, self._row_sums = _validated(_real_array(data, "tensor entries"))

    @classmethod
    def _own(cls, arr: np.ndarray) -> DenseTensor:
        """Tensor backed by ``arr`` itself, with the constructor's checks.

        ``arr`` must be a fresh C-order float64 array that no caller can
        reach; it becomes read-only and is not copied.
        """
        tensor = cls.__new__(cls)
        tensor._data, tensor._row_sums = _validated(arr)
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

    @property
    def _rows(self) -> np.ndarray:
        """Read-only ``(n, n**(m-1))`` view whose row ``i`` is ``a[i]`` flattened."""
        return self._data.reshape(self._data.shape[0], -1)

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return np.array_equal(self._data, other.data)

    def __repr__(self):
        return f"DenseTensor(order={self.order}, dim={self.dim})"


def _check_vector(a: DenseTensor, x, name: str = "x") -> np.ndarray:
    vec = _real_array(x, name)
    if vec.shape != (a.dim,):
        raise ValueError(f"{name} must have length {a.dim}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must have finite entries")
    return vec


def _kron_weights(x: np.ndarray, order: int, op=np.multiply) -> np.ndarray:
    """Length ``n**(order-1)`` vector ``w[(i2..im)] = x[i2] * ... * x[im]``.

    Indexed in C order, so it lines up with the entries of one row
    ``a[i]``.  :func:`_rescaled_rows` takes its weights from here, and the
    irreducibility deciders their tuple masks, with ``op``
    (``np.logical_and``, ``np.bitwise_or``) in place of ``*``; the loops'
    :func:`_contract` builds the same products itself.  Trailing axes of
    ``x`` are batch axes.  Each round prepends one factor as the outer axis
    (for a vector, the long axis stays innermost).  For order 2 it is ``x``
    itself.
    """
    w = x
    for _ in range(order - 2):
        w = op(x[:, None], w).reshape((-1,) + x.shape[1:])
    return w


def _contract(rows: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """:func:`contract` without its checks: ``rows`` is the ``(n, n**(m-1))``
    row view of an order-``order`` tensor and ``x`` a finite length-n float
    array.  The solver and oracle loops call this on vectors they built.
    The weights are those of :func:`_kron_weights`, bit for bit, built here
    for a vector alone: without the helper's call and per-round shape tuple
    a ``(5,3)`` product takes 1.21 us against 1.37 us (best of 7, numpy
    2.4.6).
    ``ndarray.dot`` makes the same BLAS matrix-vector call as ``@`` with
    less dispatch, which on tiny tensors is about half of the product."""
    w, column = x, x[:, None]
    for _ in range(order - 2):
        w = (column * w).ravel()
    return rows.dot(w)


def _reject_first(bad: np.ndarray, problem: str) -> None:
    """``ValueError("row N of <problem>")`` for the first true entry of the
    boolean row mask ``bad``, if it has one."""
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad)) + 1} of {problem}")


def _check_finite(values: np.ndarray, problem: str) -> np.ndarray:
    """``values``, or ``ValueError`` naming the first row that is not finite."""
    _reject_first(~np.isfinite(values), problem)
    return values


def _extremes(v: np.ndarray) -> tuple[float, float]:
    """``(min, max)`` of a nonnegative (or NaN) length-n array as Python floats.

    One ``tolist`` and the builtins, which on short vectors cost a third of
    two numpy reductions.  A NaN anywhere makes both NaN, as
    ``np.minimum.reduce`` and ``np.maximum.reduce`` do (builtin ``min`` and
    ``max`` skip a NaN after the first entry); with no negative entry the
    list's sum is NaN exactly then.
    """
    values = v.tolist()
    total = sum(values)
    if total != total:
        return np.nan, np.nan
    return min(values), max(values)


def _underflows(low: float, order: int) -> bool:
    """Whether ``low**(order-1)`` is below the smallest normal float (or
    NaN), where ratios over ``x**(order-1)`` have lost their digits: the one
    stopping rule of the balancing sweep and the power iteration.  ``low`` is
    the smallest entry of ``x`` as the caller's loop holds it, a Python float
    from :func:`_extremes` (NaN if ``x`` holds one); the Python power of it
    may differ from numpy's elementwise one by an ulp.  ``low >= 1`` comes
    first, so that power cannot raise ``OverflowError``."""
    return not (low >= 1.0 or low ** (order - 1) >= _TINY)


def contract(a: DenseTensor, x) -> np.ndarray:
    """Contract the tensor with ``x`` along every axis but the first.

    Returns the length-n vector with components
    ``sum over (i2..im) of a[i, i2, ..., im] * x[i2] * ... * x[im]``,
    the multilinear analogue of a matrix-vector product.  It is computed as
    one: the ``(n, n**(m-1))`` view of the entries times the weight vector
    ``x[i2] * ... * x[im]`` (exactly ``a.data @ x`` when the order is 2).
    Finite entries and a finite ``x`` can still contract past the float
    range (``[[1e308, 1e308], [0, 1]]`` at all ones); that raises
    ``ValueError`` naming the first such row instead of returning ``inf``
    or NaN.
    """
    vec = _check_vector(a, x)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _contract(a._rows, vec, a.order)
    return _check_finite(y, "the contraction overflows; scale the entries or x down")


def row_sums(a: DenseTensor) -> np.ndarray:
    """Per-row entry sums, bit-equal to ``contract(a, ones)``.

    Computed once, when the tensor was validated; the read-only array is
    returned without another pass over the entries.  The minimum and maximum
    row sum bracket the spectral radius of any nonnegative tensor, which is
    what makes these the natural certificate tracked by the balancing solver.
    """
    return a._row_sums


def _check_start_sums(sums: np.ndarray, label: str, zero_hint: str) -> tuple[float, float]:
    """``(min, max)`` of the nonnegative ``sums`` (:func:`_extremes`), the
    bracket both iterations start from.

    Raises ``ValueError`` naming the first row of ``label`` whose sum is zero,
    else the first that overflows (finite entries can sum to ``inf``); both
    iterations divide by the row sums they start from.
    """
    lower, upper = _extremes(sums)
    if lower > 0 and upper < np.inf:
        return lower, upper
    _reject_first(sums == 0, f"{label} has zero row sum; {zero_hint}")
    _reject_first(~np.isfinite(sums), f"{label} has a row sum that overflows; scale the entries down")


def _rescaled_rows(a: DenseTensor, d: np.ndarray, rows) -> np.ndarray:
    """Fresh ``(len(rows), n**(m-1))`` array of rows ``rows`` (a slice or a
    list of indices) of ``diagonal_similarity(a, d)``, each flattened:
    ``a[i, i2, ..., im] * d[i2] * ... * d[im] / d[i]**(m-1)``."""
    m = a.order
    out = a._rows[rows] * _kron_weights(d, m)
    out /= (d[rows] ** (m - 1))[:, None]
    return out


def diagonal_similarity(a: DenseTensor, d) -> DenseTensor:
    """Rescale by a positive diagonal, preserving the spectrum.

    Entry ``(i1, ..., im)`` becomes
    ``a[i1, ..., im] * d[i2] * ... * d[im] / d[i1]**(m-1)``.
    Eigenvalues are invariant; an eigenvector ``x`` of ``a`` corresponds to
    the eigenvector ``x / d`` of the result.  The rows come from
    :func:`_rescaled_rows`, as do the two the contraction factor reads.
    """
    vec = _check_vector(a, d, "scaling vector")
    if (vec <= 0).any():
        raise ValueError("scaling vector entries must be strictly positive")
    # an entry past the float range is rejected by the tensor checks
    with np.errstate(all="ignore"):
        out = _rescaled_rows(a, vec, slice(None))
    return DenseTensor._own(out.reshape(a.data.shape))


def add_identity_shift(b: DenseTensor, alpha: float) -> DenseTensor:
    """Add ``alpha`` at every superdiagonal position ``(i, i, ..., i)``.

    The superdiagonal unit tensor acts as ``x -> x**(m-1)`` componentwise,
    so this shifts every eigenvalue of ``b`` by exactly ``alpha``, which
    must be finite and nonnegative.
    """
    if not 0 <= alpha < np.inf:
        raise ValueError(f"shift must be finite and nonnegative, got {alpha}")
    out = np.array(b.data, copy=True)
    # (i, ..., i) is flat position i * (1 + n + ... + n**(m-1)); an entry
    # that overflows is rejected by the tensor checks
    with np.errstate(over="ignore"):
        out.reshape(-1)[:: sum(b.dim**k for k in range(b.order))] += alpha
    return DenseTensor._own(out)


def check_shape(order: int, dim: int) -> None:
    """Raise ``ValueError`` unless a dense ``(dim,) * order`` tensor can be built.

    Checks, in this order: ``2 <= order <= MAX_ORDER``, ``dim >= 1`` and at
    most :data:`MAX_DENSE_ENTRIES` entries.  The order cap comes first, so
    ``dim**order`` is only ever built for an order of at most 25.
    """
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 2 and the cap of {MAX_ORDER}, got {order}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if dim**order > MAX_DENSE_ENTRIES:
        raise ValueError(f"{dim}**{order} entries exceed the cap of {MAX_DENSE_ENTRIES}")


def _fill_uniform(out: np.ndarray, seed: int, start: int) -> None:
    """Fill the flat ``out`` with draws ``start, start + 1, ...`` of the
    seed's ``uniform(0.0, 10.0)`` stream.

    ``uniform`` computes ``0.0 + 10.0 * u``, which is ``10.0 * u`` bit for
    bit, so ``rng.random(out=...)`` and one in-place scaling give its draws
    without a second array.  Each draw is one PCG64 step, so ``advance``
    lands exactly on draw ``start``.  Both calls release the GIL.
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start)
    rng.random(out=out)
    out *= 10.0


def random_tensor(order: int, dim: int, seed: int) -> DenseTensor:
    """Seeded tensor with entries drawn i.i.d. uniform on ``[0, 10)``.

    The largest draw, ``10 * (1 - 2**-53)``, rounds below 10.  The entries
    are those of ``np.random.default_rng(seed).uniform(0.0, 10.0, size=(dim,)
    * order)``, bit for bit.  Above ``_ONE_THREAD_ENTRIES`` entries, they
    are two halves of that one PCG64 stream, filled at once: the caller's
    thread fills the first and a one-thread executor's worker the second,
    from a generator moved forward by ``advance``.  The halves are fixed, so
    the result does not depend on the number of cores.  An error in the
    worker reaches the caller through ``Future.result()``, once both halves
    have stopped.  Raises ``ValueError`` on a shape :func:`check_shape`
    rejects.
    """
    check_shape(order, dim)
    arr = np.empty((dim,) * order)
    entries = arr.reshape(-1)
    if entries.size <= _ONE_THREAD_ENTRIES:
        _fill_uniform(entries, seed, 0)
        return DenseTensor._own(arr)
    # imported here: concurrent.futures pulls in logging, which costs ~2 ms
    from concurrent.futures import ThreadPoolExecutor

    half = entries.size // 2
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_fill_uniform, entries[half:], seed, half)
        _fill_uniform(entries[:half], seed, 0)
    second.result()
    return DenseTensor._own(arr)
