"""Irreducibility analysis for nonnegative tensors.

A tensor is reducible when some nonempty proper index subset ``I`` has
``a[i1, i2, ..., im] = 0`` for every ``i1`` in ``I`` and every ``i2..im``
entirely outside ``I``; irreducible otherwise.  Two independent deciders
live here: support propagation (fast, any dimension) and exhaustive subset
search (exact by construction, small dimensions).

Support propagation grows all ``n`` singleton starts at once in at most
``n`` rounds, each a gather per tuple axis plus one ``(n, L) x (L, n)``
float32 product, where ``L <= n**(m-1)`` counts the index tuples carrying
a positive entry.  Its two float32 ``(n, L)`` arrays add about the tensor's
own size in memory.

The subset search works on Python ints: each row keeps the distinct
bitmasks of its positive index tuples, each subset is built with its own
bitmask, and a subset reduces iff every mask of every row inside it meets
the subset's mask.  Subsets come in lexicographic order and the scan stops
at the first reducing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import DenseTensor

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
    pick = np.ix_(*([outside] * (b.order - 1)))
    return all(not np.any(b.data[i][pick]) for i in inside)


def _reached(b: DenseTensor) -> np.ndarray:
    """Row ``s`` marks the indices reached from the singleton start ``{s}``.

    All starts grow together from the identity.  Each round finds, per start,
    the index tuples ``(i2..im)`` carrying a positive entry whose every index
    is already reached, and reaches every row positive on one of them.  Only
    the sign of the float32 product is read; its terms are 0 or 1, so no
    rounding can turn a positive count into zero.
    """
    n = b.dim
    positive = b._rows > 0
    live = np.flatnonzero(positive.any(axis=0))
    digits = np.unravel_index(live, (n,) * (b.order - 1))
    feeds = positive[:, live].astype(np.float32)
    reached = np.eye(n, dtype=bool)
    while not reached.all():
        inside = reached[:, digits[0]]
        for column in digits[1:]:
            inside &= reached[:, column]
        grown = reached | (inside.astype(np.float32) @ feeds.T > 0)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached


def irreducible_iterative(b: DenseTensor) -> IrreducibilityVerdict:
    """Decide irreducibility by support propagation.

    The nonnegative iteration ``x -> (b + identity) x**(m-1)`` grows the
    support of ``x`` by every row with a positive tuple inside the current
    support, and the support of any nonzero start contains a singleton, so
    the tensor is irreducible iff every singleton start reaches full
    support.  All starts are propagated together (``_reached``) in at most
    ``n`` rounds; with ``L <= n**(m-1)`` index tuples carrying a positive
    entry, a round is one gather of the reached matrix per tuple axis plus
    one ``(n, L) x (L, n)`` float32 product, so ``O(n**3 * L)`` in the worst
    case, and the two float32 ``(n, L)`` arrays it keeps take about as much
    memory as the tensor itself.  A stalled start certifies reducibility: the
    complement of its reachable set is a witness (the lexicographically
    smallest such complement is returned, and re-verified before return).
    """
    witnesses = [tuple(np.flatnonzero(~row).tolist()) for row in _reached(b) if not row.all()]
    if not witnesses:
        return IrreducibilityVerdict(irreducible=True)
    witness = min(witnesses)
    if not _is_reducing(b, witness):
        raise AssertionError(f"internal error: unsound witness {witness}")
    return IrreducibilityVerdict(
        irreducible=False, witness=tuple(i + 1 for i in witness)
    )


def reducible_bruteforce(b: DenseTensor) -> IrreducibilityVerdict:
    """Decide irreducibility by scanning all nonempty proper index subsets.

    Exact by definition; capped at dimension ``BRUTE_FORCE_DIM_CAP``.  When
    reducible, returns the lexicographically smallest reducing subset.
    """
    n, m = b.dim, b.order
    if n > BRUTE_FORCE_DIM_CAP:
        raise ValueError(
            f"subset scan is capped at dim {BRUTE_FORCE_DIM_CAP} (got {n}); "
            "use irreducible_iterative instead"
        )
    if n == 1:
        return IrreducibilityVerdict(irreducible=True)

    # Bitmask per index tuple (which indices appear in it), in C order, one
    # outer axis per round as in tensor._kron_weights; then per row the
    # distinct masks of its positive tuples, as ints: a subset reduces iff
    # every positive tuple of each inside row touches the subset.
    bits = 1 << np.arange(n)
    tuple_masks = bits
    for _ in range(m - 2):
        tuple_masks = (bits[:, None] | tuple_masks).reshape(-1)
    positive = b._rows > 0
    row_masks = [np.unique(tuple_masks[positive[i]]).tolist() for i in range(n)]

    # Nonempty proper subsets in lexicographic order, each with its bitmask.
    def extend(prefix: tuple[int, ...], prefix_mask: int, start: int):
        for j in range(start, n):
            subset, subset_mask = prefix + (j,), prefix_mask | 1 << j
            if len(subset) < n:
                yield subset, subset_mask
                yield from extend(subset, subset_mask, j + 1)

    for subset, subset_mask in extend((), 0, 0):
        if all(all(t & subset_mask for t in row_masks[i]) for i in subset):
            return IrreducibilityVerdict(
                irreducible=False, witness=tuple(i + 1 for i in subset)
            )
    return IrreducibilityVerdict(irreducible=True)
