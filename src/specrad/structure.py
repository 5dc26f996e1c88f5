"""Irreducibility analysis for nonnegative tensors.

A tensor is reducible when some nonempty proper index subset ``I`` has
``a[i1, i2, ..., im] = 0`` for every ``i1`` in ``I`` and every ``i2..im``
entirely outside ``I``; irreducible otherwise.  Two independent deciders
live here: support propagation (fast, any dimension) and exhaustive subset
search (exact by construction, small dimensions).

Both take their per-tuple masks from ``tensor._kron_weights``, the one
owner of the C-order tuple layout.  Support propagation grows all ``n``
singleton starts at once; :func:`irreducible_iterative` gives its cost in
time and memory.

The subset search decides all ``2**n`` subset bitmasks at once: one
``2**n``-long integer array records, per subset, the rows positive on an
index tuple that avoids it, filled in one scatter over the index tuples and
``n`` in-place passes, so a subset reduces iff none of its own rows is
recorded.  The lexicographically smallest reducing subset is then picked in
at most ``n`` rounds; at the cap of ``n = 20`` the arrays take about 17 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import DenseTensor, _kron_weights

# 2**n - 2 subsets get scanned; past this, use irreducible_iterative.
BRUTE_FORCE_DIM_CAP = 20


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Verdict plus, when reducible, a 1-based witness subset.

    The witness is a nonempty proper index subset whose rows vanish on all
    index tuples outside the subset; it can be checked directly against the
    tensor entries.
    """

    irreducible: bool
    witness: Optional[tuple[int, ...]] = None


def _is_reducing(b: DenseTensor, inside: tuple[int, ...]) -> bool:
    """Check the zero pattern for a candidate subset (0-based indices)."""
    outside = sorted(set(range(b.dim)).difference(inside))
    if not inside or not outside:
        return False
    return not b.data[np.ix_(inside, *([outside] * (b.order - 1)))].any()


def _reached(b: DenseTensor) -> np.ndarray:
    """Row ``s`` marks the indices reached from the singleton start ``{s}``.

    All starts grow together from the identity, as columns.  Each round
    walks every index tuple ``(i2..im)`` (``n**m`` bytes), finds per start
    those carrying a positive entry whose every index is already reached,
    and reaches every row positive on one of them.  Only the sign of the
    float32 product is read; its terms are 0 or 1, so no rounding can turn
    a positive count into zero.
    """
    m = b.order
    positive = b._rows > 0
    live = np.flatnonzero(positive.any(axis=0))
    feeds = positive[:, live].astype(np.float32)
    reached = np.eye(b.dim, dtype=bool)
    # reached only grows, so a round that leaves its count of marks is the last
    marks = b.dim
    while marks < reached.size:
        inside = _kron_weights(reached, m, np.logical_and).take(live, axis=0)
        reached |= feeds @ inside.astype(np.float32) > 0
        if np.count_nonzero(reached) == marks:
            break
        marks = np.count_nonzero(reached)
    return reached.T


def irreducible_iterative(b: DenseTensor) -> IrreducibilityVerdict:
    """Decide irreducibility by support propagation.

    The nonnegative iteration ``x -> (b + identity) x**(m-1)`` grows the
    support of ``x`` by every row with a positive tuple inside the current
    support, and the support of any nonzero start contains a singleton, so
    the tensor is irreducible iff every singleton start reaches full
    support.  All starts are propagated together (``_reached``) in at most
    ``n`` rounds; with ``L <= n**(m-1)`` index tuples carrying a positive
    entry, a round is an ``n**m``-byte boolean walk over every index tuple
    plus one ``(n, L) x (L, n)`` float32 product, so ``O(n**3 * L)`` in the
    worst case, and the two float32 ``(n, L)`` arrays it keeps take about as
    much memory as the tensor itself.  A stalled start certifies
    reducibility: the complement of its reachable set is a witness (the
    lexicographically smallest such complement is returned, and re-verified
    before return).
    """
    reached = _reached(b)
    if reached.all():
        return IrreducibilityVerdict(irreducible=True)
    witness = min(
        tuple([i for i, hit in enumerate(row) if not hit]) for row in reached.tolist() if not all(row)
    )
    if not _is_reducing(b, witness):
        raise AssertionError(f"internal error: unsound witness {witness}")
    return IrreducibilityVerdict(
        irreducible=False, witness=tuple(i + 1 for i in witness)
    )


def reducible_bruteforce(b: DenseTensor) -> IrreducibilityVerdict:
    """Decide irreducibility by testing every nonempty proper index subset.

    Exact by definition; capped at dimension ``BRUTE_FORCE_DIM_CAP``.  Every
    subset is a bitmask ``S`` in ``0 .. 2**n - 1`` and all are tested
    together in ``O(n * 2**n + n**m)`` array work.  When reducible, returns
    the lexicographically smallest reducing subset (as a sorted tuple).
    """
    n, m = b.dim, b.order
    if n > BRUTE_FORCE_DIM_CAP:
        raise ValueError(
            f"subset scan is capped at dim {BRUTE_FORCE_DIM_CAP} (got {n}); "
            "use irreducible_iterative instead"
        )

    # Bit i of missed[S]: row i is positive on an index tuple that avoids S.
    # Seed each tuple's complement with the rows positive on it, then close
    # downward, since an index tuple that avoids S avoids every subset of S.
    full, bits = (1 << n) - 1, 1 << np.arange(n)
    positive_rows = bits @ (b._rows > 0)
    missed = np.zeros(1 << n, dtype=bits.dtype)
    np.bitwise_or.at(missed, full ^ _kron_weights(bits, m, np.bitwise_or), positive_rows)
    for j in range(n):
        pairs = missed.reshape(-1, 2, 1 << j)
        pairs[:, 0] |= pairs[:, 1]
    # S reduces iff no row inside S misses it; drop 0 and full, which always do.
    reducing = np.flatnonzero((missed & np.arange(1 << n)) == 0)[1:-1]
    if not reducing.size:
        return IrreducibilityVerdict(irreducible=True)

    # Smallest as a sorted tuple: take the least index any candidate holds,
    # keep the candidates holding it and clear it; a candidate emptied first
    # is a prefix of the others.
    witness = []
    while reducing.all():
        low = reducing & -reducing
        least = low.min()
        witness.append(int(least).bit_length())
        reducing = reducing[low == least] ^ least
    return IrreducibilityVerdict(irreducible=False, witness=tuple(witness))
