import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspec.evolution import EXACT, PulseSchedule
from nlspec.models import build_xxz, ground_state
from nlspec.pauli import OperatorSum, PauliTerm, expectation
from nlspec.response import MultiIndex, reconstruct_response, rules_for_schedule
from nlspec.sampling import (
    SamplingPlan,
    allocate_shots,
    noisy_response,
    sample_expectation,
    variance_bound,
    variance_bound_for_rules,
)


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


class TestSampleExpectation:
    def test_eigenstate_is_noiseless(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        est, se = sample_expectation(op(1, (1.0, {0: "Z"})), psi, 100, seed=1)
        assert est == 1.0 and se == 0.0

    def test_symmetric_observable_converges(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        est, se = sample_expectation(op(1, (1.0, {0: "X"})), psi, 8192, seed=2)
        assert abs(est) < 3.0 / np.sqrt(8192) + 1e-12
        assert 0 < se < 2.0 / np.sqrt(8192)

    def test_plus_state_z_measurement(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        est, _ = sample_expectation(op(1, (1.0, {0: "Z"})), plus, 8192, seed=3)
        assert abs(est) <= 3.0 / np.sqrt(8192)

    def test_deterministic_given_seed(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        a = sample_expectation(op(1, (1.0, {0: "Z"})), plus, 500, seed=11)
        b = sample_expectation(op(1, (1.0, {0: "Z"})), plus, 500, seed=11)
        assert a == b

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unbiased(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = amps / np.linalg.norm(amps)
        observable = op(2, (0.7, {0: "Z"}), (0.4, {1: "X"}))
        exact = expectation(observable, psi)
        reps = 400
        estimates = np.array(
            [sample_expectation(observable, psi, 64, seed=1000 * seed + r)[0] for r in range(reps)]
        )
        se = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - exact) < 5 * max(se, 1e-6)


class TestAllocation:
    def test_uniform_even_split(self):
        plan = allocate_shots([1.0, 1.0, 1.0], 9, "uniform")
        assert plan.per_configuration == (3, 3, 3)

    def test_uniform_remainder_to_low_indices(self):
        plan = allocate_shots([1, 1, 1], 11, "uniform")
        assert plan.per_configuration == (4, 4, 3)

    def test_uniform_zero_weight_gets_nothing(self):
        # noisy_response skips zero-weight configurations, so shots given to
        # them would never be measured
        plan = allocate_shots([-1.0, 0.0, 1.0], 300, "uniform")
        assert plan.per_configuration == (150, 0, 150)

    def test_uniform_rejects_like_optimal(self):
        with pytest.raises(ValueError, match="vanish"):
            allocate_shots([0.0, 0.0], 10, "uniform")
        with pytest.raises(ValueError, match="below the 2 active"):
            allocate_shots([1.0, 0.0, 1.0], 1, "uniform")

    def test_optimal_zero_weight_gets_nothing(self):
        plan = allocate_shots([1.0, 0.0, 1.0], 100, "optimal")
        assert plan.per_configuration == (50, 0, 50)

    def test_optimal_largest_remainder(self):
        plan = allocate_shots([1.0, 2.0], 9, "optimal")
        assert plan.per_configuration == (3, 6)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            allocate_shots([0.0, 0.0], 10, "optimal")

    def test_budget_below_active_count_rejected(self):
        with pytest.raises(ValueError):
            allocate_shots([1.0, 1.0, 1.0], 2, "optimal")

    def test_plan_sums_enforced(self):
        with pytest.raises(ValueError):
            SamplingPlan(10, (3, 3, 3), "uniform", 0)


class TestVarianceBound:
    def test_single_channel_uniform(self):
        assert variance_bound([2.0], [2.0], [3], 300, "uniform") == pytest.approx(0.02)

    def test_two_channel_factorization(self):
        # two channels, 3 shifts each, 100 shots per configuration
        bound = variance_bound([2.0, 2.0], [2.0, 2.0], [3, 3], 900, "uniform")
        assert bound == pytest.approx(0.04)

    def test_optimal_uses_l1(self):
        assert variance_bound([2.0], [2.0], [3], 100, "optimal") == pytest.approx(0.04)

    def test_vanishes_with_budget(self):
        assert variance_bound([2.0], [2.0], [3], 10**9, "uniform") < 1e-8


@pytest.fixture(scope="module")
def xxz_setup():
    h = build_xxz(4, 0.8, 0.4)
    psi = ground_state(h)
    b = op(4, (1.0, {1: "X"}))
    a = op(4, (1.0, {2: "Z"}))
    sched = PulseSchedule([(b, [0.0])])
    beta = MultiIndex([1])
    rules = rules_for_schedule(sched, beta)
    return h, psi, a, sched, beta, rules


class TestNoisyResponse:
    def test_matches_exact_in_zero_variance_limit(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        # eigen-observable trick: see sample_expectation on eigenstates;
        # here just check the estimator mean over seeds approaches exact
        grid = np.linspace(0.5, 3.5, 4)
        exact = reconstruct_response(h, sched, a, grid, beta, EXACT, psi, rules=rules)
        reps = 150
        total = np.zeros(grid.size)
        for r in range(reps):
            plan = allocate_shots([1, 1, 1], 3 * 4096, "uniform", seed=r)
            series, _ = noisy_response(h, sched, a, grid, beta, plan, EXACT, psi, rules)
            total += series.values
        assert np.max(np.abs(total / reps - exact.values)) < 5e-3

    def test_propagated_error_reported(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 1024, "uniform", seed=5)
        _, errors = noisy_response(h, sched, a, [1.0, 2.0], beta, plan, EXACT, psi, rules)
        assert errors.shape == (2,)
        assert np.all(errors >= 0)

    def test_deterministic_and_order_independent_seeding(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 512, "uniform", seed=9)
        s1, e1 = noisy_response(h, sched, a, [0.5, 1.5], beta, plan, EXACT, psi, rules)
        s2, e2 = noisy_response(h, sched, a, [0.5, 1.5], beta, plan, EXACT, psi, rules)
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(e1, e2)
        # a single-point run reproduces the same value as the grid run:
        # substreams are keyed by (configuration, time index), so the first
        # time cell is identical across both calls
        s3, _ = noisy_response(h, sched, a, [0.5], beta, plan, EXACT, psi, rules)
        assert s3.values[0] == s1.values[0]

    def test_variance_within_bound(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        n_tot = 3 * 2048
        bound = variance_bound_for_rules(rules, beta, n_tot, "uniform")
        reps = 120
        grid = np.array([1.0, 3.0])
        draws = np.empty((reps, grid.size))
        for r in range(reps):
            plan = allocate_shots([1, 1, 1], n_tot, "uniform", seed=300 + r)
            series, _ = noisy_response(h, sched, a, grid, beta, plan, EXACT, psi, rules)
            draws[r] = series.values
        empirical = draws.var(axis=0, ddof=1)
        assert np.all(empirical <= bound * (1 + 5 / np.sqrt(reps)))
