import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specrad.oracles
from conftest import empty_row_tensor, golden_b, identity_tensor
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
from specrad.oracles import collatz_wielandt_bounds

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def power_iteration_two_contractions(a, tol=1e-9, max_iter=10_000):
    """Reference loop: contracts once for the next iterate and once more,
    inside the bracket, at that iterate."""
    sums = row_sums(a)
    root = 1.0 / (a.order - 1)
    x = np.ones(a.dim)
    lower, upper = float(sums.min()), float(sums.max())
    iterations = 0
    while upper - lower > tol and iterations < max_iter:
        nxt = contract(a, x) ** root
        nxt /= nxt.max()
        iterations += 1
        if (nxt ** (a.order - 1) == 0).any():
            return lower, upper, x, iterations, False
        lower, upper = collatz_wielandt_bounds(a, nxt)
        x = nxt
    return lower, upper, x, iterations, upper - lower <= tol


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

    def test_rejects_a_tol_that_is_zero_or_infinite(self, golden):
        for tol in (0.0, float("inf")):
            with pytest.raises(ValueError, match="tol"):
                power_iteration(golden, tol=tol)

    def test_golden_bracket(self, golden):
        estimate = power_iteration(add_identity_shift(golden, 1.0))
        assert estimate.converged
        mid = 0.5 * (estimate.lower + estimate.upper)
        assert mid == pytest.approx(6.79262, abs=1e-5)

    def test_agrees_with_balancing_solver(self):
        for seed in range(5):
            b = random_tensor(3, 5, seed)
            report = solve(b)
            estimate = power_iteration(add_identity_shift(b, 1.0))
            mid = 0.5 * (estimate.lower + estimate.upper)
            assert abs(report.rho_shifted - mid) <= 1e-5

    def test_zero_row_sum_rejected(self):
        data = np.zeros((2, 2, 2))
        data[1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="row 1.*zero row sum"):
            power_iteration(DenseTensor(data))

    def test_overflowing_row_sum_rejected(self):
        with pytest.raises(ValueError, match="row 1 .*row sum that overflows"):
            power_iteration(DenseTensor([[1e308, 1e308], [0.0, 1.0]]))

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
        original = specrad.oracles.contract

        def counting(a, x):
            calls.append(1)
            return original(a, x)

        monkeypatch.setattr(specrad.oracles, "contract", counting)
        estimate = power_iteration(add_identity_shift(golden, 1.0))
        assert estimate.iterations > 1
        assert len(calls) == estimate.iterations

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

    def test_rejects_nonpositive_vector(self, golden):
        with pytest.raises(ValueError, match="positive"):
            collatz_wielandt_bounds(golden, [1.0, 0.0, 1.0])

    def test_rejects_wrong_length(self, golden):
        with pytest.raises(ValueError, match="length 3"):
            collatz_wielandt_bounds(golden, [1.0, 1.0])

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
