import io
import itertools
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrad.tensor
from conftest import (
    NOT_REAL,
    OUT_OF_RANGE,
    VECTOR_FUNCTIONS,
    contract_loops,
    diagonal_similarity_loops,
    golden_b,
    golden_file_text,
    identity_tensor,
)
from specrad import (
    DenseTensor,
    add_identity_shift,
    contract,
    power_iteration,
    random_tensor,
    read_tensor,
    row_sums,
    write_tensor,
)
from specrad.oracles import collatz_wielandt_bounds
from specrad.solver import residual
from specrad.tensor import (
    MAX_DENSE_ENTRIES,
    MAX_ORDER,
    _extremes,
    _kron_weights,
    check_shape,
    diagonal_similarity,
)

shapes = st.sampled_from([(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def outcome_bytes(value) -> bytes:
    """The bits of what a vector function returns: an array, a tensor, a
    float or a pair of floats."""
    return np.asarray(getattr(value, "data", value)).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", VECTOR_FUNCTIONS.values(), ids=VECTOR_FUNCTIONS.keys())
def test_vector_arguments_follow_the_tensor_dtype_rule(fn):
    a = DenseTensor([[1.0, 2.0], [3.0, 0.5]])
    for make in NOT_REAL.values():
        with pytest.raises(ValueError, match="must be real numbers, got dtype"):
            fn(a, make()[0])
    for x in ([True, True], [1, 3], np.array([2, 1], dtype=np.uint8)):
        assert outcome_bytes(fn(a, x)) == outcome_bytes(fn(a, np.asarray(x, dtype=float)))


@pytest.mark.parametrize("fn", ["residual", "collatz_wielandt_bounds"])
def test_a_vector_is_converted_once_per_call(fn, monkeypatch):
    # contract owns the vector rule; its callers do not check x again
    calls = []
    real_array = specrad.tensor._real_array

    def counted(*args):
        calls.append(args)
        return real_array(*args)

    monkeypatch.setattr(specrad.tensor, "_real_array", counted)
    VECTOR_FUNCTIONS[fn](random_tensor(3, 3, seed=0), [1.0, 1.0, 1.0])
    assert len(calls) == 1


class TestDenseTensor:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DenseTensor([[0.0, -1.0], [0.0, 0.0]])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[np.nan, -1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[-np.inf, 0.0], [0.0, 0.0]])
        # +inf with a negative entry still reports the infinity first, and so
        # does NaN with +inf (the row sums alone would be inf and NaN)
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[np.inf, -1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[0.0, 0.0], [np.nan, np.inf]])

    @pytest.mark.filterwarnings("error")
    def test_accepts_finite_entries_whose_row_sum_overflows(self):
        t = DenseTensor([[1e308, 1e308], [0.0, 1.0]])
        assert np.isinf(row_sums(t)[0]) and row_sums(t)[1] == 1.0

    def test_rejects_non_cubical(self):
        with pytest.raises(ValueError, match="cubical"):
            DenseTensor(np.zeros((2, 3)))

    def test_zero_size_shapes_get_the_dimension_or_cubical_message(self):
        for shape in [(0, 0), (0, 0, 0)]:
            with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
                DenseTensor(np.zeros(shape))
        with pytest.raises(ValueError, match=r"cubical, got shape \(0, 3\)"):
            DenseTensor(np.zeros((0, 3)))

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError, match="order"):
            DenseTensor(np.zeros(4))

    def test_rejects_an_order_above_the_cap(self):
        assert DenseTensor(np.ones((1,) * MAX_ORDER)).order == MAX_ORDER
        with pytest.raises(ValueError, match=f"cap of {MAX_ORDER}, got {MAX_ORDER + 1}"):
            DenseTensor(np.ones((1,) * (MAX_ORDER + 1)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex_entries(self):
        for make in NOT_REAL.values():
            with pytest.raises(ValueError, match="tensor entries must be real numbers, got dtype"):
                DenseTensor(make())

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8])
    def test_bool_int_and_uint_entries_are_the_float_cast(self, dtype):
        data = np.array([[[1, 0], [2, 1]], [[0, 3], [1, 1]]]).astype(dtype)
        cast = DenseTensor(data.astype(float))
        assert DenseTensor(data).data.tobytes() == cast.data.tobytes()
        assert row_sums(DenseTensor(data)).tobytes() == row_sums(cast).tobytes()

    def test_entries_are_lexicographic_flat_view(self):
        t = random_tensor(3, 2, seed=5)
        assert t.entries.shape == (8,)
        assert np.array_equal(t.entries.reshape(2, 2, 2), t.data)

    def test_data_is_read_only(self):
        t = random_tensor(2, 3, seed=1)
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0

    def test_constructor_copies_its_input(self):
        arr = np.ones((3, 3, 3))
        t = DenseTensor(arr)
        arr[0, 0, 0] = 7.0
        assert t.data[0, 0, 0] == 1.0
        assert arr.flags.writeable

    def test_any_input_layout_is_stored_in_c_order(self):
        arr = np.arange(27.0).reshape(3, 3, 3).transpose(2, 0, 1)
        t = DenseTensor(arr)
        assert t.data.flags.c_contiguous
        assert np.shares_memory(t.entries, t.data)
        assert np.array_equal(t.data, arr)

    def test_package_built_tensors_are_read_only(self):
        golden = golden_b()
        built = [
            random_tensor(3, 4, seed=1),
            read_tensor(io.StringIO(golden_file_text())),
            add_identity_shift(golden, 1.0),
            diagonal_similarity(golden, [1.0, 2.0, 3.0]),
            identity_tensor(3, 4),
        ]
        for t in built:
            with pytest.raises(ValueError):
                t.data[(0,) * t.order] = 1.0

    def test_random_tensor_allocates_the_entries_once(self):
        # the first draw imports numpy.random (about 1 MB), outside the count
        random_tensor(2, 2, seed=0)
        # (40, 3) fills on the caller's thread, (60, 3) and (1025, 2) in two
        # halves: no copy per half
        for order, dim in [(3, 40), (3, 60), (2, 1025)]:
            tracemalloc.start()
            try:
                t = random_tensor(order, dim, seed=12)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * t.data.nbytes

    def test_equality(self):
        a = random_tensor(3, 2, seed=1)
        b = random_tensor(3, 2, seed=2)
        assert a == random_tensor(3, 2, seed=1)
        assert a != b
        assert (a == 1) is False and (a != "a") is True

    def test_repr_gives_order_and_dimension(self):
        assert repr(random_tensor(3, 2, seed=0)) == "DenseTensor(order=3, dim=2)"


class TestContract:
    def test_golden_with_ones(self):
        a = add_identity_shift(golden_b(), 1.0)
        out = contract(a, np.ones(3))
        # hand sums of the slice entries plus the unit shift
        assert out == pytest.approx([4.72, 10.02, 10.55], rel=1e-12)

    def test_identity_tensor_acts_componentwise(self):
        ident = identity_tensor(3, 4, 1.0)
        x = np.array([1.0, 2.0, 3.0, 0.5])
        assert contract(ident, x) == pytest.approx(x**2, rel=1e-15)

    def test_matrix_case_is_matvec(self):
        a = DenseTensor([[1.0, 1.0], [1.0, 1.0]])
        assert contract(a, [1.0, 2.0]) == pytest.approx([3.0, 3.0])

    @pytest.mark.parametrize("dim", [1, 2, 5, 40])
    def test_matrix_case_is_bit_identical_to_matmul(self, dim):
        a = random_tensor(2, dim, seed=dim)
        x = np.random.default_rng(dim).uniform(0.0, 3.0, size=dim)
        assert np.array_equal(contract(a, x), a.data @ x)

    @pytest.mark.parametrize(
        "order, dim",
        [(2, 7), (3, 7), (4, 5), (5, 4), (6, 3), (7, 3), (8, 3), (12, 2), (MAX_ORDER, 1)],
    )
    def test_matches_index_loop_at_every_order(self, order, dim):
        t = random_tensor(order, dim, seed=100 * order + dim)
        x = np.random.default_rng(dim).uniform(0.2, 1.5, size=dim)
        assert contract(t, x) == pytest.approx(contract_loops(t, x), rel=1e-13)

    def test_vector_forms(self):
        t = random_tensor(4, 3, seed=8)
        x = np.array([0.5, 1.5, 2.0])
        out = contract(t, x)
        assert out.shape == (3,)
        assert np.array_equal(x, [0.5, 1.5, 2.0])
        assert np.array_equal(contract(t, x.tolist()), out)
        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(contract(t, strided), out)

    def test_dimension_mismatch(self):
        a = random_tensor(3, 3, seed=0)
        with pytest.raises(ValueError, match="length 3"):
            contract(a, np.ones(4))

    def test_rejects_non_finite_vector(self):
        a = random_tensor(3, 3, seed=0)
        with pytest.raises(ValueError, match="finite"):
            contract(a, [1.0, np.nan, 1.0])

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_row_in_every_vector_function(self):
        # construction accepts a row sum past the float range; each function
        # that contracts a caller's vector rejects it, without a warning
        t = DenseTensor([[1e308, 1e308], [0.0, 1.0]])
        for call in (
            lambda: contract(t, [1.0, 1.0]),
            lambda: residual(t, 2.0, [1.0, 1.0]),
            lambda: collatz_wielandt_bounds(t, [1.0, 1.0]),
        ):
            with pytest.raises(ValueError, match="row 1 of the contraction overflows"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_derived_tensor_outside_the_float_range_is_rejected(self):
        # a rescale or a shift past the float range (or a 1/0 rescale) is an
        # input error from the tensor checks, without a warning
        for call in (
            lambda: diagonal_similarity(random_tensor(3, 3, 0), [1e200, 1.0, 1.0]),
            lambda: diagonal_similarity(random_tensor(3, 3, 0), [1e-200, 1.0, 1.0]),
            lambda: add_identity_shift(DenseTensor(np.full((2, 2), 1e308)), 1e308),
        ):
            with pytest.raises(ValueError, match="tensor entries must be finite"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_ratio_or_defect_outside_the_float_range_names_the_row(self):
        for call, message in OUT_OF_RANGE.values():
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_matches_scalar_loop_oracle(self, shape, seed):
        order, dim = shape
        t = random_tensor(order, dim, seed)
        x = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=dim)
        assert contract(t, x) == pytest.approx(contract_loops(t, x), rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, seed=seeds, scale=st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneity(self, shape, seed, scale):
        order, dim = shape
        t = random_tensor(order, dim, seed)
        x = np.random.default_rng(seed).uniform(0.1, 2.0, size=dim)
        lhs = contract(t, scale * x)
        rhs = scale ** (order - 1) * contract(t, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_linear_in_the_tensor(self, shape, seed):
        order, dim = shape
        a = random_tensor(order, dim, seed)
        b = random_tensor(order, dim, seed + 7)
        x = np.random.default_rng(seed).uniform(0.0, 2.0, size=dim)
        total = DenseTensor(a.data + b.data)
        assert contract(total, x) == pytest.approx(contract(a, x) + contract(b, x), rel=1e-12)


def kron_weights_by_product(x: np.ndarray, order: int, op) -> np.ndarray:
    """Reference for ``_kron_weights``: one entry per index tuple ``(i2..im)``
    of ``itertools.product``, folded from the right as ``op(x[i2], op(...))``."""
    out = []
    for index in itertools.product(range(len(x)), repeat=order - 1):
        value = x[index[-1]]
        for j in reversed(index[:-1]):
            value = op(x[j], value)
        out.append(value)
    return np.array(out)


class TestKronWeights:
    @pytest.mark.parametrize("op", [np.multiply, np.logical_and, np.bitwise_or])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["vector", "batched"])
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_index_tuple_loop(self, op, batch, order):
        rng = np.random.default_rng(order)
        for dim in range(1, 5):
            shape = (dim,) + batch
            x = {
                np.multiply: rng.uniform(0.1, 3.0, size=shape),
                np.logical_and: rng.random(size=shape) < 0.7,
                np.bitwise_or: rng.integers(0, 2**20, size=shape),
            }[op]
            w = _kron_weights(x, order, op)
            assert w.shape == (dim ** (order - 1),) + batch
            assert w.dtype == x.dtype
            assert np.array_equal(w, kron_weights_by_product(x, order, op)), dim

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_float_vector_is_bit_equal_to_the_broadcast_loop(self, order):
        for dim in range(1, 5):
            x = np.random.default_rng(dim).uniform(0.1, 3.0, size=dim)
            w = x
            for _ in range(order - 2):
                w = (x[:, None] * w).reshape(-1)
            assert _kron_weights(x, order).tobytes() == w.tobytes()


class TestExtremes:
    @pytest.mark.parametrize("values", [[2.0, 0.5, 7.0], [0.0, np.inf, 3.0], [4.0], [1e-320, 1.0]])
    def test_python_floats_equal_to_the_numpy_reductions(self, values):
        v = np.array(values)
        lower, upper = _extremes(v)
        assert type(lower) is float and type(upper) is float
        assert (lower, upper) == (np.minimum.reduce(v), np.maximum.reduce(v))

    @pytest.mark.parametrize("at", [0, 1, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("others", [[1.0, 2.0, 3.0], [0.0, np.inf, 5.0]], ids=["finite", "inf"])
    def test_nan_anywhere_makes_both_nan(self, at, others):
        v = np.array(others[:at] + [np.nan] + others[at:])
        assert np.isnan(np.minimum.reduce(v)) and np.isnan(np.maximum.reduce(v))
        lower, upper = _extremes(v)
        assert type(lower) is float and type(upper) is float
        assert np.isnan(lower) and np.isnan(upper)

    def test_one_nan_entry(self):
        lower, upper = _extremes(np.array([np.nan]))
        assert np.isnan(lower) and np.isnan(upper)


class TestRowSums:
    def test_equals_contract_with_ones_exactly(self):
        for seed in range(5):
            t = random_tensor(3, 4, seed)
            assert np.array_equal(row_sums(t), contract(t, np.ones(4)))

    @pytest.mark.parametrize(
        "order, dim",
        [(2, 7), (3, 7), (4, 5), (5, 4), (6, 3), (7, 3), (8, 3), (MAX_ORDER, 1)],
    )
    def test_stored_sums_equal_contract_with_ones_exactly(self, order, dim):
        t = random_tensor(order, dim, seed=10 * order + dim)
        buffer = io.StringIO()
        write_tensor(t, buffer)
        buffer.seek(0)
        built = [
            t,
            DenseTensor(t.data),
            read_tensor(buffer),
            add_identity_shift(t, 2.5),
            diagonal_similarity(t, np.linspace(0.5, 2.0, dim)),
        ]
        for u in built:
            assert np.array_equal(row_sums(u), contract(u, np.ones(dim)))

    def test_is_read_only(self):
        sums = row_sums(random_tensor(3, 4, seed=1))
        with pytest.raises(ValueError):
            sums[0] = 1.0

    def test_all_ones_tensor(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        assert row_sums(t) == pytest.approx([4.0, 4.0])

    def test_golden_extremes(self):
        a = add_identity_shift(golden_b(), 1.0)
        sums = row_sums(a)
        assert sums.min() == pytest.approx(4.72, rel=1e-12)
        assert sums.max() == pytest.approx(10.55, rel=1e-12)


class TestDiagonalSimilarity:
    def test_all_ones_scaling_is_identity(self):
        t = random_tensor(3, 3, seed=9)
        out = diagonal_similarity(t, np.ones(3))
        assert np.array_equal(out.data, t.data)

    def test_golden_one_sweep_row_sums(self):
        a = add_identity_shift(golden_b(), 1.0)
        sums = row_sums(a)
        out = diagonal_similarity(a, sums ** 0.5)
        expected = [
            1.0 + 3.72 * 10.02 / 4.72,
            1.0 + 9.02 * 4.72 / 10.02,
            (9.55 * 4.72 + 10.55) / 10.55,
        ]
        assert row_sums(out) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_scaling(self):
        t = random_tensor(3, 3, seed=0)
        with pytest.raises(ValueError, match="strictly positive"):
            diagonal_similarity(t, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            diagonal_similarity(t, [1.0, -2.0, 1.0])

    @pytest.mark.parametrize(("order", "dim"), [(2, 6), (3, 5), (4, 4), (5, 3), (6, 3)])
    def test_matches_scalar_loop_entrywise(self, order, dim):
        t = random_tensor(order, dim, seed=order)
        d = 10.0 ** np.random.default_rng(dim).uniform(-3.0, 3.0, size=dim)
        expected = diagonal_similarity_loops(t, d)
        np.testing.assert_allclose(diagonal_similarity(t, d).data, expected, rtol=1e-14, atol=0)

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_composition(self, shape, seed):
        order, dim = shape
        t = random_tensor(order, dim, seed)
        rng = np.random.default_rng(seed + 3)
        d1 = rng.uniform(0.5, 2.0, size=dim)
        d2 = rng.uniform(0.5, 2.0, size=dim)
        twice = diagonal_similarity(diagonal_similarity(t, d1), d2)
        once = diagonal_similarity(t, d1 * d2)
        assert twice.data == pytest.approx(once.data, rel=1e-12)

    def test_eigenpair_transfers_with_inverse_scaling(self):
        # near-exact eigenpair of a random positive 3x3x3 tensor transfers to
        # the rescaled tensor with the componentwise-divided eigenvector
        rng = np.random.default_rng(11)
        t = DenseTensor(rng.uniform(0.5, 10.0, size=(3, 3, 3)))
        est = power_iteration(t, tol=1e-13, max_iter=100_000)
        lam = 0.5 * (est.lower + est.upper)
        assert residual(t, lam, est.vector) <= 1e-12
        d = rng.uniform(0.5, 2.0, size=3)
        scaled = diagonal_similarity(t, d)
        assert residual(scaled, lam, est.vector / d) <= 1e-10

    def test_matrix_case_matches_inv_d_a_d(self):
        m = positive = np.random.default_rng(4).uniform(0.1, 5.0, size=(4, 4))
        d = np.random.default_rng(5).uniform(0.5, 2.0, size=4)
        out = diagonal_similarity(DenseTensor(m), d)
        expected = np.diag(1.0 / d) @ m @ np.diag(d)
        assert out.data == pytest.approx(expected, rel=1e-12)


class TestAddIdentityShift:
    def test_zero_shift_is_identity(self):
        t = random_tensor(3, 3, seed=2)
        assert add_identity_shift(t, 0.0) == t

    def test_golden_row_sums_after_unit_shift(self):
        shifted = add_identity_shift(golden_b(), 1.0)
        assert row_sums(shifted) == pytest.approx([4.72, 10.02, 10.55], rel=1e-12)

    def test_pure_identity_action_on_zero_tensor(self):
        zero = DenseTensor(np.zeros((3, 3, 3)))
        shifted = add_identity_shift(zero, 1.0)
        x = np.array([2.0, 0.5, 3.0])
        assert contract(shifted, x) == pytest.approx(x**2, rel=1e-15)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError, match="nonnegative"):
            add_identity_shift(golden_b(), -1.0)

    def test_rejects_non_finite_shift(self):
        for alpha in (np.inf, np.nan):
            with pytest.raises(ValueError, match="shift must be finite and nonnegative"):
                add_identity_shift(golden_b(), alpha)

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=seeds, alpha=st.floats(min_value=0.0, max_value=5.0))
    def test_contract_shifts_componentwise(self, shape, seed, alpha):
        order, dim = shape
        t = random_tensor(order, dim, seed)
        x = np.random.default_rng(seed).uniform(0.1, 2.0, size=dim)
        shifted = add_identity_shift(t, alpha)
        assert contract(shifted, x) == pytest.approx(
            contract(t, x) + alpha * x ** (order - 1), rel=1e-12
        )


class TestRandomTensor:
    def test_deterministic_for_same_seed(self):
        assert random_tensor(3, 5, seed=99) == random_tensor(3, 5, seed=99)
        assert random_tensor(3, 5, seed=99) != random_tensor(3, 5, seed=100)

    def test_entries_within_range(self):
        t = random_tensor(3, 6, seed=3)
        assert t.data.min() >= 0.0
        # the largest draw of random() is 1 - 2**-53; times 10 it rounds below 10
        assert t.data.max() < 10.0

    # (256, 2) is the most the caller's thread fills alone; (257, 2) is the
    # least split; (1024, 2) splits into equal halves, (1025, 2) and (101, 3)
    # into unequal ones
    @pytest.mark.parametrize(
        "order,dim",
        [(2, 256), (2, 257), (2, 1024), (2, 1025), (3, 101), (2, 1), (2, 5), (3, 2), (4, 3)],
    )
    def test_entries_are_the_uniform_stream(self, order, dim):
        for seed in (0, 7):
            t = random_tensor(order, dim, seed)
            ref = np.random.default_rng(seed).uniform(0.0, 10.0, size=(dim,) * order)
            assert t.data.tobytes() == ref.tobytes()
            sums = ref.reshape(dim, -1).dot(np.ones(dim ** (order - 1)))
            assert row_sums(t).tobytes() == sums.tobytes()

    def test_an_error_in_the_second_half_reaches_the_caller(self, monkeypatch):
        fill = specrad.tensor._fill_uniform
        failed_on = []

        def failing(out, seed, start):
            if start:
                failed_on.append(threading.get_ident())
                raise RuntimeError("second half failed")
            fill(out, seed, start)

        monkeypatch.setattr(specrad.tensor, "_fill_uniform", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second half failed"):
            random_tensor(2, 1025, seed=1)
        assert threading.active_count() == before
        assert failed_on and failed_on[0] != threading.get_ident()

    def test_an_error_in_the_first_half_waits_for_the_second(self, monkeypatch):
        fill = specrad.tensor._fill_uniform
        finished = []

        def failing(out, seed, start):
            if start == 0:
                raise RuntimeError("first half failed")
            time.sleep(0.02)  # the caller's error comes first
            fill(out, seed, start)
            finished.append(start)

        monkeypatch.setattr(specrad.tensor, "_fill_uniform", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="first half failed"):
            random_tensor(2, 1025, seed=1)
        assert finished == [1025**2 // 2]
        assert threading.active_count() == before

    def test_mean_near_center(self):
        t = random_tensor(3, 20, seed=0)
        assert abs(t.data.mean() - 5.0) <= 0.2

    def test_entry_cap(self):
        with pytest.raises(ValueError, match="1000\\*\\*3 entries exceed the cap"):
            random_tensor(3, 1000, seed=0)
        # 64M entries, just over the cap: rejected before anything is allocated
        with pytest.raises(ValueError, match="cap"):
            random_tensor(3, 400, 0)

    def test_long_order_is_rejected_without_the_power(self):
        # 1000**20000000 has 60 million digits; the order cap comes first
        with pytest.raises(ValueError, match="cap of 25, got 20000000"):
            random_tensor(20_000_000, 1000, seed=0)

    def test_check_shape_rejects_exactly_the_out_of_range_shapes(self):
        for dim in (-1, 0, 1, 2, 3, 10):
            for order in range(1, 41):
                try:
                    check_shape(order, dim)
                    rejected = False
                except ValueError:
                    rejected = True
                out_of_range = order < 2 or dim < 1 or order > 25
                assert rejected == (out_of_range or dim**order > MAX_DENSE_ENTRIES), (order, dim)

    def test_order_above_the_array_rank_limit(self):
        # MAX_ORDER is the highest rank of any array the package holds, on every numpy
        assert MAX_ORDER == 25 == MAX_DENSE_ENTRIES.bit_length() - 1
        assert random_tensor(MAX_ORDER, 1, seed=0).order == MAX_ORDER
        for dim in (1, 2):
            with pytest.raises(ValueError, match="order must be between 2 and the cap of 25, got 26"):
                random_tensor(MAX_ORDER + 1, dim, seed=0)

    def test_bad_shape_arguments(self):
        with pytest.raises(ValueError, match="order"):
            random_tensor(1, 3, seed=0)
        with pytest.raises(ValueError, match="dim"):
            random_tensor(2, 0, seed=0)
