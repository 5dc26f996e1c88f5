import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, golden_b, identity_tensor, reducing_subset_ok, sparse_tensor
from specrad import (
    DenseTensor,
    IrreducibilityVerdict,
    add_identity_shift,
    contract,
    irreducible_iterative,
    random_tensor,
    reducible_bruteforce,
)
from specrad.structure import BRUTE_FORCE_DIM_CAP, _is_reducing, _reached
from specrad.tensor import MAX_ORDER

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestIterative:
    def test_strictly_positive_is_irreducible(self):
        t = random_tensor(3, 4, seed=1)
        assert t.data.min() > 0
        verdict = irreducible_iterative(t)
        assert verdict.irreducible and verdict.witness is None

    def test_superdiagonal_tensor_is_reducible(self):
        verdict = irreducible_iterative(identity_tensor(3, 3))
        assert not verdict.irreducible
        assert reducing_subset_ok(identity_tensor(3, 3), verdict.witness)

    def test_superdiagonal_dim2_witness_is_a_singleton(self):
        verdict = irreducible_iterative(identity_tensor(3, 2))
        assert verdict.witness in ((1,), (2,))

    def test_golden_reducible_with_witness_12(self, golden):
        verdict = irreducible_iterative(golden)
        assert not verdict.irreducible
        assert verdict.witness == (1, 2)
        assert reducing_subset_ok(golden, verdict.witness)

    def test_witness_check_rejects_the_empty_and_the_full_subset(self):
        # both pass the zero-pattern test vacuously; neither is a witness
        t = identity_tensor(3, 3)
        assert _is_reducing(t, ()) is False
        assert _is_reducing(t, tuple(range(t.dim))) is False

    def test_dim_one_matrix_is_irreducible(self):
        assert irreducible_iterative(DenseTensor([[5.0]])).irreducible

    def test_support_growth_and_permanent_stall(self):
        golden = golden_b()
        reached = [set(np.flatnonzero(row).tolist()) for row in _reached(golden)]
        # rows 1 and 2 feed each other and row 3 feeds off row 1, so those
        # starts reach full support; index 3 receives nothing from itself
        assert reached == [{0, 1, 2}, {0, 1, 2}, {2}]
        # a stalled set stays stalled: one more propagation round adds nothing
        positive = golden.data > 0
        pick = np.ix_([2], [2])
        assert not any(positive[i][pick].any() for i in (0, 1))


class TestChains:
    @pytest.mark.parametrize("m", [3, 4])
    def test_cyclic_chain_is_irreducible(self, m):
        assert irreducible_iterative(chain(40, m, cyclic=True)).irreducible

    @pytest.mark.parametrize("m", [3, 4])
    def test_open_chain_witness_is_everything_but_the_first_index(self, m):
        # no row is positive on (1, ..., 1), so start 1 reaches only itself,
        # and its complement is the lexicographically smallest one
        t = chain(40, m, cyclic=False)
        verdict = irreducible_iterative(t)
        assert not verdict.irreducible
        assert verdict.witness == tuple(range(2, 41))
        assert reducing_subset_ok(t, verdict.witness)

    @pytest.mark.parametrize("shape", [(70, 3), (20, 4), (8, 6)])
    def test_dense_random_tensors_are_irreducible(self, shape):
        n, m = shape
        verdict = irreducible_iterative(random_tensor(m, n, seed=5))
        assert verdict.irreducible and verdict.witness is None


def reached_by_start(t: DenseTensor) -> np.ndarray:
    """Reference for ``_reached``, one start at a time: grow ``{s}`` by every
    row positive on an index tuple inside the current set until nothing
    changes."""
    n, m = t.dim, t.order
    positive = t.data > 0
    out = np.zeros((n, n), dtype=bool)
    for s in range(n):
        support, grown = set(), {s}
        while grown != support:
            support = grown
            pick = np.ix_(*[sorted(support)] * (m - 1))
            feeds = positive[(slice(None),) + pick].reshape(n, -1).any(axis=1)
            grown = support | set(np.flatnonzero(feeds).tolist())
        out[s, list(support)] = True
    return out


def stalled_dim_two(m: int) -> DenseTensor:
    """Sparse dim-2 tensor (1-based): row 2 is positive on (1, ..., 1) and
    (2, ..., 2), row 1 only on (1, ..., 1, 2), so start 1 reaches both
    indices and start 2 stalls."""
    data = np.zeros((2,) * m)
    data[1][(0,) * (m - 1)] = 1.0
    data[0][(0,) * (m - 2) + (1,)] = 1.0
    data[1][(1,) * (m - 1)] = 1.0
    return DenseTensor(data)


def ladder(n: int) -> DenseTensor:
    """Order 3 (0-based): ``a[0, 0, 0] = 1`` and ``a[k+1, k, 0] = 1``.  Every
    positive tuple holds index 0, which only start 0 reaches, so start 0
    gains one index per round for ``n`` rounds and every other start stalls
    at once: composing reached sets cannot shorten the walk, and fewer
    than ``n`` of the ``n**2`` tuples carry an entry."""
    data = np.zeros((n, n, n))
    data[0, 0, 0] = 1.0
    k = np.arange(n - 1)
    data[k + 1, k, 0] = 1.0
    return DenseTensor(data)


class TestReachedMatrix:
    """The whole reached matrix, not just the verdict it implies."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_per_start_growth_on_sparse_tensors(self, order):
        for dim in range(1, 9):
            for seed, density in enumerate((0.05, 0.15, 0.3, 0.5)):
                t = sparse_tensor(order, dim, 100 * order + 10 * dim + seed, density)
                assert np.array_equal(_reached(t), reached_by_start(t)), (dim, density)

    @pytest.mark.parametrize(
        "t",
        [
            chain(80, 3, cyclic=True),
            chain(80, 3, cyclic=False),
            DenseTensor(np.zeros((3, 3, 3))),
            random_tensor(MAX_ORDER, 1, 0),
            random_tensor(16, 2, 0),
            stalled_dim_two(12),
            ladder(40),
        ],
        ids=[
            "cyclic-chain-80",
            "open-chain-80",
            "zero-3-3",
            "max-order-dim-1",
            "dense-16-2",
            "stalled-12-2",
            "ladder-40",
        ],
    )
    def test_matches_per_start_growth_on_edge_cases(self, t):
        assert np.array_equal(_reached(t), reached_by_start(t))

    def test_memory_stays_near_the_tensor_size(self):
        # a round's tuple walk takes n**m bytes, an eighth of the entries
        t = random_tensor(16, 2, seed=1)
        tracemalloc.start()
        try:
            assert irreducible_iterative(t).irreducible
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * t.entries.nbytes


def smallest_reducing_subset(t: DenseTensor):
    """Reference for ``reducible_bruteforce``: sort every nonempty proper
    subset as a tuple and check each zero pattern through ``np.ix_``."""
    n, m = t.dim, t.order
    subsets = sorted(
        subset for size in range(1, n) for subset in itertools.combinations(range(n), size)
    )
    for subset in subsets:
        outside = [j for j in range(n) if j not in subset]
        pick = np.ix_(*[outside] * (m - 1))
        if not any(t.data[i][pick].any() for i in subset):
            return tuple(i + 1 for i in subset)
    return None


class TestBruteForce:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_matches_sorted_subset_reference(self, order):
        for dim in range(1, 9):
            for seed, density in enumerate((0.05, 0.1, 0.2, 0.35, 0.5, 0.7)):
                t = sparse_tensor(order, dim, 1000 * order + 10 * dim + seed, density)
                verdict, witness = reducible_bruteforce(t), smallest_reducing_subset(t)
                expected = (witness is None, witness)
                assert (verdict.irreducible, verdict.witness) == expected, (dim, density)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        order=st.integers(min_value=2, max_value=4),
        dim=st.integers(min_value=1, max_value=7),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    )
    def test_matches_sorted_subset_reference_on_generated_tensors(
        self, seed, order, dim, density
    ):
        t = sparse_tensor(order, dim, seed, density)
        verdict, witness = reducible_bruteforce(t), smallest_reducing_subset(t)
        assert (verdict.irreducible, verdict.witness) == (witness is None, witness)
        if density == 0.0 and dim > 1:
            assert witness == (1,)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_dim_one_matches_reference(self, order):
        for t in (random_tensor(order, 1, seed=0), DenseTensor(np.zeros((1,) * order))):
            assert smallest_reducing_subset(t) is None
            assert reducible_bruteforce(t) == IrreducibilityVerdict(irreducible=True)

    def test_strictly_positive_is_irreducible(self):
        assert reducible_bruteforce(random_tensor(3, 4, seed=8)).irreducible

    def test_positive_matrix_at_the_cap_is_irreducible(self):
        t = random_tensor(2, BRUTE_FORCE_DIM_CAP, seed=1)
        assert t.data.min() > 0
        assert reducible_bruteforce(t) == IrreducibilityVerdict(irreducible=True)

    def test_planted_block_at_the_cap_is_the_witness(self):
        # rows 11..20 vanish on every tuple inside 1..10 and all else is
        # positive, so {11, ..., 20} is the only reducing subset
        data = random_tensor(3, BRUTE_FORCE_DIM_CAP, seed=1).data.copy()
        assert data.min() > 0
        data[10:, :10, :10] = 0.0
        t = DenseTensor(data)
        verdict = reducible_bruteforce(t)
        assert verdict.witness == tuple(range(11, 21))
        assert reducing_subset_ok(t, verdict.witness)

    def test_golden_witness_is_lexicographically_smallest(self, golden):
        verdict = reducible_bruteforce(golden)
        assert verdict.witness == (1, 2)
        assert reducing_subset_ok(golden, verdict.witness)

    def test_superdiagonal_witness_is_first_singleton(self):
        verdict = reducible_bruteforce(identity_tensor(3, 3))
        assert verdict.witness == (1,)
        assert reducing_subset_ok(identity_tensor(3, 3), verdict.witness)

    def test_matrix_case_matches_graph_intuition(self):
        # a directed 2-cycle is irreducible; a one-way edge is not
        cycle = DenseTensor([[0.0, 1.0], [1.0, 0.0]])
        chain = DenseTensor([[0.0, 1.0], [0.0, 0.0]])
        assert reducible_bruteforce(cycle).irreducible
        verdict = reducible_bruteforce(chain)
        assert not verdict.irreducible
        assert reducing_subset_ok(chain, verdict.witness)


class TestCrossOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=2, max_value=6))
    def test_methods_agree_on_sparse_ensemble(self, seed, dim):
        t = sparse_tensor(3, dim, seed)
        assert irreducible_iterative(t).irreducible == reducible_bruteforce(t).irreducible

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_witnesses_are_always_sound(self, seed):
        t = sparse_tensor(3, 5, seed, density=0.15)
        for verdict in (irreducible_iterative(t), reducible_bruteforce(t)):
            if not verdict.irreducible:
                assert reducing_subset_ok(t, verdict.witness)

    def test_positivity_shortcut_via_both_paths(self):
        for seed in range(5):
            t = random_tensor(3, 3, seed)
            if t.data.min() <= 0:
                continue
            assert irreducible_iterative(t).irreducible
            assert reducible_bruteforce(t).irreducible


def strictly_dominates(t: DenseTensor, x, y) -> bool:
    """Whether ``n - 1`` steps of ``v -> (t + identity) v**(m-1)`` from
    ``x >= y`` end with the x-iterate above the y-iterate in every component.

    Both iterates are divided by a common factor each step, which leaves
    every comparison unchanged but avoids overflow.
    """
    shifted = add_identity_shift(t, 1.0)
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    for _ in range(t.dim - 1):
        xv = contract(shifted, xv)
        yv = contract(shifted, yv)
        scale = xv.max()
        xv /= scale
        yv /= scale
    return bool((xv > yv).all())


class TestDomination:
    """Irreducible inputs turn ``x >= y, x != y`` into strict domination
    after ``n - 1`` steps of the shifted iteration."""

    def test_strictly_positive_dominates(self):
        t = random_tensor(3, 3, seed=12)
        assert t.data.min() > 0
        assert strictly_dominates(t, [1.0, 1.0, 1.0], [1.0, 1.0, 0.0])

    def test_golden_stalled_start_still_dominated(self, golden):
        # (0, 0, 1) is a fixed point of the shifted iteration on this tensor,
        # while the all-ones start grows everywhere, so strict domination
        # holds in every component (verified by direct iteration below).
        shifted = add_identity_shift(golden, 1.0)
        y = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(contract(shifted, y), y)
        assert strictly_dominates(golden, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0])

    def test_golden_equality_can_persist(self, golden):
        # rows 1 and 2 draw only on indices {1, 2}, where the two starts
        # agree, so those components stay equal and domination fails
        assert not strictly_dominates(golden, [1.0, 1.0, 1.0], [1.0, 1.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=2, max_value=6))
    def test_true_whenever_input_is_irreducible(self, seed, dim):
        t = sparse_tensor(3, dim, seed)
        if not irreducible_iterative(t).irreducible:
            return
        rng = np.random.default_rng(seed + 1)
        x = rng.uniform(0.5, 2.0, size=dim)
        y = x.copy()
        y[rng.integers(dim)] = 0.0
        assert strictly_dominates(t, x, y)

    def test_larger_instance_does_not_overflow(self):
        t = random_tensor(3, 8, seed=3)
        assert t.data.min() > 0
        assert strictly_dominates(t, np.full(8, 10.0), np.zeros(8))
