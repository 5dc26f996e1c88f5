import dataclasses
import io
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specrad.solver
import specrad.tensor
from conftest import (
    GOLDEN_RHO_EXACT,
    contraction_factor_loops,
    empty_row_tensor,
    golden_b,
    identity_tensor,
    planted_tensor,
    sparse_tensor,
)
from specrad import (
    DenseTensor,
    SolverConfig,
    add_identity_shift,
    contraction_factor,
    init_state,
    irreducible_iterative,
    power_iteration,
    random_tensor,
    row_sums,
    solve,
    step,
    write_trace_csv,
)
from specrad.solver import residual
from specrad.tensor import diagonal_similarity

shapes = st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 4), (4, 3)])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.alpha == 1.0 and cfg.tol == 1e-7 and cfg.max_iter == 100

    def test_a_numpy_integer_is_a_sweep_count(self, golden):
        assert solve(golden, SolverConfig(max_iter=np.int64(2))).iterations == 2


class TestInitState:
    def test_golden_initial_bounds(self):
        state = init_state(golden_b(), SolverConfig())
        assert state.lower == pytest.approx(4.72, rel=1e-12)
        assert state.upper == pytest.approx(10.55, rel=1e-12)
        assert state.k == 0

    def test_constant_row_sums_detected_immediately(self):
        state = init_state(DenseTensor(np.ones((2, 2, 2))), SolverConfig())
        assert state.lower == state.upper == 5.0

    def test_accumulator_is_rescaled_ratio(self):
        state = init_state(golden_b(), SolverConfig())
        x = step(state).x
        assert x == pytest.approx((state.sums / state.upper) ** 0.5, rel=1e-15)
        assert ((x > 0) & (x <= 1)).all()


class TestStep:
    def test_golden_one_sweep_bounds(self):
        state = step(init_state(golden_b(), SolverConfig()))
        assert state.lower == pytest.approx(5.24894, rel=1e-5)
        assert state.upper == pytest.approx(8.89712, rel=1e-5)
        assert state.k == 1

    def test_golden_one_sweep_middle_row_sum(self):
        state = step(init_state(golden_b(), SolverConfig()))
        assert state.sums[2] == pytest.approx((9.55 * 4.72 + 10.55) / 10.55, rel=1e-12)

    def test_constant_row_sums_are_a_fixed_point(self):
        state = init_state(DenseTensor(np.ones((2, 2, 2))), SolverConfig())
        after = step(state)
        assert after.x == pytest.approx(state.x, rel=1e-12)
        assert after.lower == pytest.approx(after.upper, rel=1e-12)

    def test_scaling_far_above_one_is_not_a_python_overflow(self):
        # the rescale test takes a Python-float power of the largest scaling
        # entry, which would raise OverflowError where numpy gives inf
        state = dataclasses.replace(init_state(golden_b(), SolverConfig()), x=np.full(3, 1e200))
        with np.errstate(all="ignore"):
            after = step(state)
        assert np.isnan(after.upper) and np.isnan(after.lower)

    @pytest.mark.parametrize("order, smallest", [(2, 2.0**-1022), (3, 2.0**-511)])
    def test_underflow_stop_at_the_smallest_normal_power(self, order, smallest):
        # equal sums keep x, so the guard sees its smallest entry as given:
        # a power of exactly 2**-1022 passes and one float lower stops
        start = init_state(DenseTensor(np.ones((2,) * order)), SolverConfig())
        after = step(dataclasses.replace(start, x=np.array([1.0, smallest])))
        assert np.array_equal(after.x, [1.0, smallest])
        below = dataclasses.replace(start, x=np.array([1.0, np.nextafter(smallest, 0.0)]))
        with pytest.raises(FloatingPointError, match="underflowed"):
            step(below)

    @pytest.mark.parametrize("entry, kept", [(2.0**-256, 0.5), (2.0**-255, 2.0**-255)])
    def test_power_of_two_rescale_threshold_at_order_3(self, entry, kept):
        # the rescale fires once top**(m-1) < 2**-511 and lifts top to [0.5, 1)
        start = init_state(DenseTensor(np.ones((2, 2, 2))), SolverConfig())
        after = step(dataclasses.replace(start, x=np.full(2, entry)))
        assert np.array_equal(after.x, np.full(2, kept))

    def test_sums_always_recomputable(self):
        state = init_state(golden_b(), SolverConfig())
        for _ in range(5):
            shifted = add_identity_shift(state.tensor, state.alpha)
            balanced = diagonal_similarity(shifted, state.x)
            assert row_sums(balanced) == pytest.approx(state.sums, rel=1e-12)
            state = step(state)

    def test_state_holds_the_unshifted_input(self, golden):
        state = step(init_state(golden, SolverConfig(alpha=2.5)))
        assert state.tensor is golden
        assert state.alpha == 2.5

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("dim,order", [(5, 3), (4, 4), (5, 2)])
    def test_implicit_shift_matches_explicit_shift(self, dim, order, alpha):
        state = init_state(random_tensor(order, dim, seed=dim + order), SolverConfig(alpha=alpha))
        shifted = add_identity_shift(state.tensor, alpha)
        for _ in range(3):
            balanced = diagonal_similarity(shifted, state.x)
            assert row_sums(balanced) == pytest.approx(state.sums, rel=1e-12)
            assert contraction_factor(state) == pytest.approx(
                contraction_factor_loops(balanced, state.sums), rel=1e-9
            )
            state = step(state)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_bounds_nest(self, shape, seed):
        order, dim = shape
        state = init_state(random_tensor(order, dim, seed), SolverConfig())
        for _ in range(8):
            if state.gap <= 1e-12:
                break
            after = step(state)
            assert after.lower >= state.lower - 1e-12
            assert after.upper <= state.upper + 1e-12
            state = after


class TestSolveGolden:
    @pytest.mark.parametrize(
        "bracket, shift",
        [
            (lambda g: solve(g), 1),
            (lambda g: solve(g, SolverConfig(alpha=0.0)), 0),
            (lambda g: power_iteration(g), 0),
            (lambda g: power_iteration(add_identity_shift(g, 1.0)), 1),
        ],
        ids=["solve", "solve-unshifted", "power_iteration", "power_iteration-shifted"],
    )
    def test_bracket_holds_the_exact_rho(self, golden, bracket, shift):
        # the unshifted solve stops at max_iter with [3.7200000000000033, 9.01999999999999]
        estimate = bracket(golden)
        assert Decimal(estimate.lower) <= GOLDEN_RHO_EXACT + shift <= Decimal(estimate.upper)

    def test_tight_solve_meets_the_exact_rho(self, golden):
        rho = Decimal(solve(golden, SolverConfig(tol=1e-12)).rho)
        assert abs(rho - GOLDEN_RHO_EXACT) <= Decimal("1e-15") * GOLDEN_RHO_EXACT

    def test_report_invariants(self, golden):
        for cfg in (SolverConfig(), SolverConfig(alpha=0.0), SolverConfig(alpha=2.0)):
            report = solve(golden, cfg)
            assert report.converged == (report.final_gap <= cfg.tol)
            assert report.rho == pytest.approx(report.rho_shifted - cfg.alpha, abs=1e-12)
            assert report.final_gap == pytest.approx(report.upper - report.lower, abs=1e-15)


class TestSolveGeneral:
    def test_constant_row_sums_need_zero_sweeps(self):
        report = solve(DenseTensor(np.ones((2, 2, 2))))
        assert report.iterations == 0
        assert report.converged
        assert report.rho_shifted == 5.0
        assert report.rho == 4.0

    def test_bracket_near_the_largest_float_has_a_finite_midpoint(self):
        # both bounds are 9e307, so their plain sum would overflow
        report = solve(DenseTensor(np.full((3, 3, 3), 1e307)), SolverConfig(alpha=0.0))
        assert report.converged
        assert report.rho == report.rho_shifted == report.trace[0].midpoint == 9e307
        assert report.residual == 0.0

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_in_one_row_sum_gives_a_nan_bracket(self, golden, monkeypatch, row):
        # builtin min and max skip a NaN that is not the first entry; the
        # bracket must still turn NaN, and the run stop unconverged
        contract_rows = specrad.solver._contract

        def nan_in_row(rows, x, order):
            y = contract_rows(rows, x, order)
            y[row] = np.nan
            return y

        monkeypatch.setattr(specrad.solver, "_contract", nan_in_row)
        report = solve(golden)
        assert np.isnan(report.lower) and np.isnan(report.upper) and np.isnan(report.rho)
        assert np.isnan(report.residual)
        assert not report.converged and report.iterations == 1

    def test_report_and_state_bounds_are_python_floats(self, golden):
        for cfg in (SolverConfig(), SolverConfig(alpha=0.0, max_iter=5000)):
            report = solve(golden, cfg)
            assert all(type(v) is float for v in (report.lower, report.upper, report.residual))
            assert all(type(row.lower) is float for row in report.trace)
        state = init_state(golden, SolverConfig())
        for _ in range(3):
            assert type(state.upper) is float and type(state.lower) is float
            state = step(state)

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_converges_at_a_tol_equal_to_the_gap(self, golden, k):
        # converged means gap <= tol: a tol of exactly the gap after k
        # sweeps stops the run there, converged
        first = solve(golden, SolverConfig(max_iter=k))
        assert first.iterations == k and not first.converged
        report = solve(golden, SolverConfig(tol=first.final_gap))
        assert report.iterations == k and report.converged
        assert (report.lower, report.upper) == (first.lower, first.upper)

    def test_trace_can_be_disabled(self, golden):
        report = solve(golden, SolverConfig(trace=False))
        assert report.trace == []
        assert report.converged

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_monotone_bounds_everywhere(self, shape, seed):
        order, dim = shape
        report = solve(random_tensor(order, dim, seed))
        lows = [row.lower for row in report.trace]
        ups = [row.upper for row in report.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_monotone_bounds_on_sparse_inputs(self, seed):
        report = solve(sparse_tensor(3, 5, seed))
        lows = [row.lower for row in report.trace]
        ups = [row.upper for row in report.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))

    @settings(max_examples=10, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_bracket_sandwiches_oracle_estimate(self, shape, seed):
        order, dim = shape
        b = random_tensor(order, dim, seed)
        assume(b.data.min() > 0)
        shifted = add_identity_shift(b, 1.0)
        estimate = power_iteration(shifted)
        rho_hat = 0.5 * (estimate.lower + estimate.upper)
        report = solve(b)
        for row in report.trace:
            assert row.lower - 1e-6 <= rho_hat <= row.upper + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_eigenvector_positive_for_positive_input(self, shape, seed):
        order, dim = shape
        b = random_tensor(order, dim, seed)
        assume(b.data.min() > 0)
        report = solve(b)
        assert (report.eigenvector > 0).all()

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_residual_scales_with_tolerance(self, shape, seed):
        order, dim = shape
        b = random_tensor(order, dim, seed)
        report = solve(b)
        assume(report.converged)
        shifted = add_identity_shift(b, 1.0)
        assert report.residual <= 10 * 1e-7 * row_sums(shifted).max()

    @settings(max_examples=10, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_shift_equivariance(self, shape, seed):
        order, dim = shape
        b = random_tensor(order, dim, seed)
        assume(b.data.min() > 0)
        one = solve(b, SolverConfig(alpha=1.0))
        two = solve(b, SolverConfig(alpha=2.0))
        assert abs(one.rho - two.rho) <= 1e-5

    def test_sweep_loop_builds_no_tensor(self, monkeypatch):
        b = random_tensor(3, 10, seed=4)
        built = []
        original = DenseTensor.__init__
        original_own = DenseTensor._own

        def counting(self, data):
            built.append(np.shape(data))
            original(self, data)

        def counting_own(arr):
            built.append(arr.shape)
            return original_own(arr)

        monkeypatch.setattr(DenseTensor, "__init__", counting)
        monkeypatch.setattr(DenseTensor, "_own", counting_own)
        report = solve(b)
        assert report.iterations > 1
        assert built == []

    @pytest.mark.parametrize(
        ("make", "alpha", "passes"),
        [(golden_b, 1.0, 51), (golden_b, 0.0, 100), (lambda: DenseTensor(np.ones((3, 3, 3))), 1.0, 0)],
    )
    def test_one_contraction_per_sweep(self, make, alpha, passes, monkeypatch):
        # the start takes the row sums stored at validation and the residual
        # reuses the last sweep's row sums, so sweeps are the only passes
        b = make()
        calls = []
        original = specrad.tensor._contract

        def counting(rows, x, order):
            calls.append(1)
            return original(rows, x, order)

        for module in (specrad.tensor, specrad.solver):
            monkeypatch.setattr(module, "_contract", counting)
        report = solve(b, SolverConfig(alpha=alpha))
        assert report.iterations == passes
        assert len(calls) == passes

    @pytest.mark.parametrize(
        ("make", "config"),
        [
            (golden_b, SolverConfig(alpha=1.0)),
            (golden_b, SolverConfig(alpha=0.0)),
            (empty_row_tensor, SolverConfig(max_iter=5000)),
            (lambda: DenseTensor(np.ones((3, 3, 3))), SolverConfig()),
            (golden_b, SolverConfig(alpha=0.0, max_iter=5000)),
        ],
        ids=["golden", "golden-unshifted", "underflow-stop", "all-ones", "golden-rescaled"],
    )
    def test_matches_a_loop_over_the_public_step_bit_for_bit(self, make, config):
        # solve runs the sweep kernel on plain arrays; the public state
        # machine around the same kernel must give the very same run
        b = make()
        state = init_state(b, config)
        rows = [(1, state.lower, state.upper)]
        while state.gap > config.tol and state.k < config.max_iter:
            try:
                state = step(state)
            except FloatingPointError:
                break
            rows.append((state.k + 1, state.lower, state.upper))
        mid = 0.5 * state.lower + 0.5 * state.upper
        defect = (state.sums - mid) * state.x ** (b.order - 1)

        report = solve(b, config)
        assert [(row.k, row.lower, row.upper) for row in report.trace] == rows
        assert (report.iterations, report.lower, report.upper) == (state.k, state.lower, state.upper)
        assert np.array_equal(report.eigenvector, state.x)
        assert report.residual == float(np.max(np.abs(defect)))

    def test_allocates_nothing_of_the_tensor_size(self):
        b = random_tensor(4, 40, seed=5)
        tracemalloc.start()
        try:
            report = solve(b, SolverConfig(trace=False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations > 1
        assert peak < 1e6 < b.data.nbytes

    def test_underflowing_scaling_stops_unconverged(self):
        # the empty row keeps ratio alpha while its scaling entry decays
        report = solve(empty_row_tensor(), SolverConfig(max_iter=5000))
        assert not report.converged
        assert 100 < report.iterations < 5000
        assert report.lower == 1.0
        assert np.isfinite(report.upper) and report.upper > report.lower

    def test_golden_long_run_never_reports_a_subnormal_eigenvector(self, golden):
        # at alpha=0 the golden bracket stalls while every scaling entry
        # decays; the eigenvector is the scaling, so it must stay normal
        report = solve(golden, SolverConfig(alpha=0.0, max_iter=5000))
        assert not report.converged
        assert report.eigenvector.min() >= np.finfo(float).tiny
        assert report.residual > 0

    def test_underflow_stop_reports_the_last_guarded_scaling(self):
        # at order 2 the guard watches x itself; the vector it rejects on the
        # underflow stop must not become the eigenvector
        report = solve(DenseTensor([[1.0, 0.0], [1.0, 2.0]]), SolverConfig(alpha=0.0, max_iter=5000))
        assert not report.converged and report.iterations < 5000
        assert report.eigenvector.min() >= np.finfo(float).tiny
        assert report.residual > 0

    def test_slow_run_converges_although_the_scaling_drifts_down(self, golden):
        # a weak coupling makes golden irreducible but slow at alpha=0: every
        # ratio stays below 1 for thousands of sweeps, so the accumulated
        # scaling as a whole would underflow long before the bracket closes
        coupled = DenseTensor(golden.data + 3e-4)
        report = solve(coupled, SolverConfig(alpha=0.0, max_iter=100_000))
        assert report.converged and report.iterations > 30_000
        assert report.eigenvector.min() >= np.finfo(float).tiny
        reference = solve(coupled, SolverConfig(tol=1e-10))
        assert report.rho == pytest.approx(reference.rho, abs=1e-7)

    def test_matrix_case_agrees_with_dense_eigensolver(self):
        for seed in range(10):
            m = np.random.default_rng(seed).uniform(0.1, 10.0, size=(5, 5))
            report = solve(DenseTensor(m))
            truth = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert report.rho == pytest.approx(truth, abs=1e-6)


class TestPlantedSpectrum:
    """Inputs whose spectral radius and eigenvector are known by
    construction (``planted_tensor``), so no solver output is compared with
    another solver's."""

    SHAPES = [(8, 3), (5, 4), (4, 5), (20, 2), (12, 3), (3, 6)]  # (n, m)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_solver_and_oracle_find_the_planted_pair(self, n, m, seed):
        c = 10.0
        t, d = planted_tensor(m, n, seed, c)
        report = solve(t)
        assert report.converged
        assert abs(report.rho - c) <= report.final_gap / 2 + 1e-12 * c
        if irreducible_iterative(t).irreducible:
            want = (1 / d) / np.linalg.norm(1 / d)
            got = report.eigenvector / np.linalg.norm(report.eigenvector)
            assert np.max(np.abs(got - want)) <= 1e-6
        estimate = power_iteration(t)
        assert estimate.lower <= c <= estimate.upper


class TestResidual:
    def test_exact_eigenpair_of_identity_tensor(self):
        ident = identity_tensor(3, 3, 2.0)
        assert residual(ident, 2.0, np.ones(3)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds, alpha=st.sampled_from([0.0, 1.0, 2.5]))
    def test_solve_reports_the_defect_at_its_own_pair(self, shape, seed, alpha):
        # solve takes the residual from the last row sums; a fresh
        # contraction at the reported pair must agree up to rounding
        order, dim = shape
        b = random_tensor(order, dim, seed)
        report = solve(b, SolverConfig(alpha=alpha))
        scale = report.upper * (report.eigenvector ** (order - 1)).max()
        fresh = residual(b, report.rho, report.eigenvector)
        assert abs(report.residual - fresh) <= 1e-13 * scale

    def test_agrees_with_oracle_eigenpair(self):
        b = random_tensor(3, 5, seed=21)
        report = solve(b)
        shifted = add_identity_shift(b, 1.0)
        estimate = power_iteration(shifted)
        oracle_res = residual(
            shifted, 0.5 * (estimate.lower + estimate.upper), estimate.vector
        )
        assert abs(report.residual - oracle_res) <= 1e-6


class TestContractionFactor:
    def test_golden_value_matches_enumeration_oracle(self, golden):
        state = init_state(golden, SolverConfig())
        value = contraction_factor(state)
        shifted = add_identity_shift(state.tensor, state.alpha)
        assert value == pytest.approx(contraction_factor_loops(shifted, state.sums), rel=1e-12)
        assert value == pytest.approx(0.8104265402843602, rel=1e-12)

    def test_golden_dominates_observed_ratio(self, golden):
        state = init_state(golden, SolverConfig())
        value = contraction_factor(state)
        after = step(state)
        assert value >= after.gap / state.gap
        # frozen trace ratio: 3.64818 / 5.83
        assert value >= 3.64818 / 5.83

    def test_strictly_positive_tensor_contracts(self):
        state = init_state(random_tensor(3, 4, seed=2), SolverConfig())
        assert 0.0 <= contraction_factor(state) < 1.0

    def test_a_tie_in_j_counts_as_on_j(self):
        # sums (9, 12): tuple (0, 0) weighs 3/9 in row s and 4/12 in row t,
        # an exact tie, while the next sums 9.93 and 10.20 stay apart
        state = init_state(DenseTensor([[[2, 2], [4, 0]], [[4, 4], [2, 1]]]), SolverConfig(alpha=1))
        value = contraction_factor(state)
        shifted = add_identity_shift(state.tensor, state.alpha)
        assert value == pytest.approx(contraction_factor_loops(shifted, state.sums), rel=1e-12)
        assert value == pytest.approx(5 / 12, rel=1e-12)

    def test_underflow_of_the_next_scaling_raises_as_step_does(self):
        # the zero row's ratio 5e-324 / 2 rounds to 0, so x**(m-1) underflows
        state = init_state(DenseTensor([[0.0, 0.0], [1.0, 1.0]]), SolverConfig(alpha=5e-324))
        message = r"the \(m-1\)-th power of the scaling underflowed"
        with pytest.raises(FloatingPointError, match=message):
            step(state)
        with pytest.raises(FloatingPointError, match=message):
            contraction_factor(state)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_matches_enumeration_oracle(self, shape, seed):
        order, dim = shape
        state = init_state(random_tensor(order, dim, seed), SolverConfig())
        assume(state.gap > 1e-9)
        shifted = add_identity_shift(state.tensor, state.alpha)
        for _ in range(4):
            if state.gap <= 1e-9:
                break
            balanced = diagonal_similarity(shifted, state.x)
            assert contraction_factor(state) == pytest.approx(
                contraction_factor_loops(balanced, state.sums), rel=1e-9
            )
            state = step(state)

    @pytest.mark.parametrize(
        "order, dim, seed", [(3, 4, 1), (3, 6, 2), (4, 3, 3), (4, 4, 4), (5, 2, 5), (5, 3, 6)]
    )
    def test_matches_enumeration_oracle_at_orders_3_to_5(self, order, dim, seed):
        state = init_state(random_tensor(order, dim, seed), SolverConfig())
        shifted = add_identity_shift(state.tensor, state.alpha)
        for _ in range(3):
            if state.gap <= 1e-9:
                break
            balanced = diagonal_similarity(shifted, state.x)
            assert contraction_factor(state) == pytest.approx(
                contraction_factor_loops(balanced, state.sums), rel=1e-9
            )
            state = step(state)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_bounds_every_gap_shrink(self, shape, seed):
        order, dim = shape
        b = random_tensor(order, dim, seed)
        assume(b.data.min() > 0)
        state = init_state(b, SolverConfig())
        for _ in range(30):
            if state.gap <= 1e-7:
                break
            factor = contraction_factor(state)
            assert 0.0 <= factor <= 1.0
            after = step(state)
            assert after.gap <= factor * state.gap + 1e-12
            state = after


class TestTraceCsv:
    def test_golden_csv_rows(self, golden):
        report = solve(golden)
        buffer = io.StringIO()
        write_trace_csv(report.trace, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "k,r,R,gap,mid"
        assert lines[1] == "1,4.72,10.55,5.83,7.635"
        assert lines[2] == "2,5.24894,8.89712,3.64818,7.07303"
        assert len(lines) == len(report.trace) + 1

    def test_writes_to_path(self, golden, tmp_path):
        report = solve(golden)
        path = tmp_path / "trace.csv"
        write_trace_csv(report.trace, path)
        assert path.read_text().startswith("k,r,R,gap,mid\n")
