import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specrad.oracles
from conftest import chain, empty_row_tensor, golden_b, identity_tensor
from specrad import (
    DenseTensor,
    SolverConfig,
    add_identity_shift,
    contract,
    init_state,
    power_iteration,
    random_tensor,
    row_sums,
    solve,
    step,
)
from specrad.oracles import ORACLE_MAX_ITER, collatz_wielandt_bounds

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def power_iteration_two_contractions(a, tol=1e-9, max_iter=10_000):
    """Reference loop: contracts once for the next iterate and once more,
    inside the bracket, at that iterate; stops, as the solver does, once a
    power of the iterate leaves the normal float range."""
    sums = row_sums(a)
    root = 1.0 / (a.order - 1)
    x = np.ones(a.dim)
    lower, upper = float(sums.min()), float(sums.max())
    iterations = 0
    while upper - lower > tol and iterations < max_iter:
        nxt = contract(a, x) ** root
        nxt /= nxt.max()
        iterations += 1
        if (nxt ** (a.order - 1) < np.finfo(float).tiny).any():
            return lower, upper, x, iterations, False
        lower, upper = collatz_wielandt_bounds(a, nxt)
        x = nxt
    return lower, upper, x, iterations, upper - lower <= tol


CYCLE_MAX_ITERS = [1, 2, 3, 4, 5, 8, 9, 9999, 10000, 10001]

REFERENCE_INPUTS = [
    add_identity_shift(golden_b(), 1.0),
    golden_b(),
    add_identity_shift(empty_row_tensor(), 1.0),
] + [random_tensor(2 + seed % 3, 4, seed) for seed in range(10)]


class TestPowerIteration:
    def test_constant_row_sums_close_immediately(self):
        estimate = power_iteration(DenseTensor(np.ones((2, 2, 2))))
        assert estimate.lower == estimate.upper == 4.0
        assert estimate.converged
        assert estimate.iterations == 0

    def test_zero_component_reports_non_convergence(self):
        # the second row's mass underflows to an exact zero after a few
        # normalized sweeps; the oracle must hand back its last valid bracket
        weak = DenseTensor([[1.0, 1.0], [0.0, 1e-30]])
        estimate = power_iteration(weak)
        assert not estimate.converged
        assert estimate.lower <= estimate.upper
        assert (estimate.vector > 0).all()

    def test_underflowing_power_keeps_a_finite_bracket(self):
        # the empty row's ratio stays at the shift while its component
        # decays; its square underflows to zero before the component does
        b = empty_row_tensor()
        estimate = power_iteration(add_identity_shift(b, 1.0))
        assert np.isfinite([estimate.lower, estimate.upper]).all()
        assert not estimate.converged
        report = solve(b)
        assert max(estimate.lower, report.lower) <= min(estimate.upper, report.upper)

    def test_vector_is_normalized_to_unit_max(self, golden):
        estimate = power_iteration(add_identity_shift(golden, 1.0))
        assert estimate.vector.max() == 1.0
        assert (estimate.vector > 0).all()

    def test_max_iter_caps_the_loop(self, golden):
        estimate = power_iteration(add_identity_shift(golden, 1.0), tol=1e-15, max_iter=3)
        assert estimate.iterations == 3
        assert not estimate.converged
        assert power_iteration(golden, max_iter=np.int64(2)).iterations == 2

    def test_stops_where_the_solver_stops(self):
        # row 1 holds only a[1,1,1], so its shifted ratio is 2.939 at every
        # x, while row 0 drives x[1] towards zero; once x[1]**2 is subnormal
        # that ratio loses its digits, so both iterations stop before
        data = np.zeros((2, 2, 2))
        data[0, 0, 0], data[1, 1, 1] = 5.0, 1.939
        estimate = power_iteration(add_identity_shift(DenseTensor(data), 1.0))
        report = solve(DenseTensor(data))
        assert estimate.lower == report.lower == 2.939
        assert estimate.upper == report.upper == 6.0
        assert not estimate.converged and estimate.iterations < ORACLE_MAX_ITER
        assert (estimate.vector**2).min() >= np.finfo(float).tiny

    def test_stops_one_float_below_the_smallest_normal_power(self):
        # at order 2 the rule reads the iterate itself: 2**-1022 is kept (its
        # square then contracts to an exact zero, which stops the next
        # iteration) and one float lower stops the first
        at = power_iteration(DenseTensor(np.diag([1.0, 2.0**-1022])))
        assert (at.iterations, at.converged) == (2, False)
        assert np.array_equal(at.vector, [1.0, 2.0**-1022])
        below = power_iteration(DenseTensor(np.diag([1.0, 2.0**-1023])))
        assert (below.iterations, below.converged) == (1, False)
        assert np.array_equal(below.vector, [1.0, 1.0])

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_converges_at_a_tol_equal_to_the_gap(self, golden, k):
        # converged means gap <= tol: a tol of exactly the gap after k
        # iterations stops the run there, converged
        a = add_identity_shift(golden, 1.0)
        first = power_iteration(a, max_iter=k)
        assert first.iterations == k and not first.converged
        estimate = power_iteration(a, tol=first.upper - first.lower)
        assert estimate.iterations == k and estimate.converged
        assert (estimate.lower, estimate.upper) == (first.lower, first.upper)

    @pytest.mark.parametrize("index", range(len(REFERENCE_INPUTS)))
    def test_matches_two_contraction_loop_bit_for_bit(self, index):
        a = REFERENCE_INPUTS[index]
        estimate = power_iteration(a)
        lower, upper, vector, iterations, converged = power_iteration_two_contractions(a)
        assert (estimate.lower, estimate.upper) == (lower, upper)
        assert (estimate.iterations, estimate.converged) == (iterations, converged)
        assert np.array_equal(estimate.vector, vector)

    def test_one_contraction_per_iteration(self, golden, monkeypatch):
        calls = []
        original = specrad.oracles._contract

        def counting(rows, x, order):
            calls.append(1)
            return original(rows, x, order)

        monkeypatch.setattr(specrad.oracles, "_contract", counting)
        estimate = power_iteration(add_identity_shift(golden, 1.0))
        assert estimate.iterations > 1
        assert len(calls) == estimate.iterations

    @pytest.mark.parametrize("max_iter", CYCLE_MAX_ITERS)
    @pytest.mark.parametrize(
        "a",
        [golden_b(), chain(3, 3, cyclic=True), chain(4, 3, cyclic=True)],
        ids=["golden", "cycle-3", "cycle-4"],
    )
    def test_skipped_cycles_match_the_full_run(self, a, max_iter):
        # none of these close at alpha=0: each run ends at max_iter, after
        # whole periods are skipped
        estimate = power_iteration(a, max_iter=max_iter)
        lower, upper, vector, iterations, converged = power_iteration_two_contractions(
            a, max_iter=max_iter
        )
        assert (estimate.lower, estimate.upper) == (lower, upper)
        assert (estimate.iterations, estimate.converged) == (iterations, converged)
        assert iterations == max_iter and not converged
        assert estimate.vector.tobytes() == vector.tobytes()

    def test_golden_cycle_costs_a_few_contractions(self, golden, monkeypatch):
        calls = []
        original = specrad.oracles._contract

        def counting(rows, x, order):
            calls.append(1)
            return original(rows, x, order)

        monkeypatch.setattr(specrad.oracles, "_contract", counting)
        # y repeats with period 2: the anchor kept at iteration 2 meets it
        # again at 4, an odd remainder costs one contraction more, and a
        # lost anchor or skip would cost thousands
        for max_iter, contractions in [(10_000, 4), (10_001, 5)]:
            calls.clear()
            estimate = power_iteration(golden, max_iter=max_iter)
            assert estimate.iterations == max_iter and not estimate.converged
            assert len(calls) == contractions

    def test_zero_max_iter_returns_the_row_sum_bracket(self, golden):
        estimate = power_iteration(golden, max_iter=0)
        sums = row_sums(golden)
        assert (estimate.lower, estimate.upper) == (sums.min(), sums.max())
        assert estimate.iterations == 0 and not estimate.converged
        assert np.array_equal(estimate.vector, np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("max_iter", [1, 10_000])
    def test_non_finite_contraction_raises(self, golden, monkeypatch, value, max_iter):
        monkeypatch.setattr(
            specrad.oracles, "_contract", lambda rows, x, order: np.full_like(x, value)
        )
        with pytest.raises(ValueError, match="non-finite iterate"):
            power_iteration(add_identity_shift(golden, 1.0), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, 10_000])
    def test_nan_in_one_row_of_the_contraction_raises(self, golden, monkeypatch, max_iter):
        # builtin min and max skip a NaN that is not the first entry; the
        # bracket must still turn NaN, as numpy's reductions make it
        contract_rows = specrad.oracles._contract

        def nan_in_row_2(rows, x, order):
            y = contract_rows(rows, x, order)
            y[1] = np.nan
            return y

        monkeypatch.setattr(specrad.oracles, "_contract", nan_in_row_2)
        with pytest.raises(ValueError, match="non-finite iterate"):
            power_iteration(add_identity_shift(golden, 1.0), max_iter=max_iter)

    def test_estimate_bounds_are_python_floats(self, golden):
        for max_iter in (0, 1, ORACLE_MAX_ITER):
            estimate = power_iteration(add_identity_shift(golden, 1.0), max_iter=max_iter)
            assert type(estimate.lower) is float and type(estimate.upper) is float

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_bracket_contains_solver_result(self, seed):
        b = random_tensor(3, 4, seed)
        assume(b.data.min() > 0)
        report = solve(b)
        estimate = power_iteration(add_identity_shift(b, 1.0))
        assert estimate.lower - 1e-6 <= report.rho_shifted <= estimate.upper + 1e-6


class TestCollatzWielandtBounds:
    def test_all_ones_reproduces_row_sum_bracket(self, golden):
        shifted = add_identity_shift(golden, 1.0)
        lower, upper = collatz_wielandt_bounds(shifted, np.ones(3))
        sums = row_sums(shifted)
        assert lower == sums.min() and upper == sums.max()
        assert (lower, upper) == pytest.approx((4.72, 10.55), rel=1e-12)

    def test_exact_eigenvector_collapses_bracket(self):
        ident = identity_tensor(3, 3, 2.5)
        lower, upper = collatz_wielandt_bounds(ident, np.array([0.3, 1.0, 2.0]))
        assert lower == pytest.approx(2.5, rel=1e-15)
        assert upper == pytest.approx(2.5, rel=1e-15)

    def test_bounds_narrow_along_the_balancing_run(self, golden):
        # the scaling after k sweeps reproduces the state's own row-sum
        # bracket, so the pointwise bounds tighten monotonically
        shifted = add_identity_shift(golden, 1.0)
        state = init_state(golden, SolverConfig())
        widths = []
        for _ in range(10):
            lower, upper = collatz_wielandt_bounds(shifted, state.x)
            widths.append(upper - lower)
            assert lower == pytest.approx(state.lower, abs=1e-9)
            assert upper == pytest.approx(state.upper, abs=1e-9)
            state = step(state)
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_consistency_with_row_sums(self, seed):
        t = random_tensor(3, 4, seed)
        lower, upper = collatz_wielandt_bounds(t, np.ones(4))
        sums = row_sums(t)
        assert lower == pytest.approx(sums.min(), rel=1e-12)
        assert upper == pytest.approx(sums.max(), rel=1e-12)
