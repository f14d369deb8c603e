import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspec.evolution import EXACT, PulseSchedule
from nlspec.models import build_xxz, ground_state
from nlspec.pauli import OperatorSum, PauliTerm, expectation
from nlspec.response import (
    MultiIndex,
    reconstruct_response,
    rules_for_schedule,
    shift_configurations,
)
from nlspec.sampling import (
    SamplingPlan,
    ShotBudgetError,
    allocate_shots,
    noisy_response,
    sample_expectation,
    variance_bound,
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

    def test_string_without_shots_refused(self):
        # one shot on Z0 + Z1 would measure only Z0: (1.0, 0.0) against an
        # exact 2.0, with the missing string absent from the error too
        zz = op(2, (1.0, {0: "Z"}), (1.0, {1: "Z"}))
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ShotBudgetError, match="sampling.total_shots"):
            sample_expectation(zz, psi, 1, seed=0)
        assert sample_expectation(zz, psi, 2, seed=0) == (2.0, 0.0)

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
        # the sampled reconstruction skips zero-weight configurations, so
        # shots given to them would never be measured
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

    def test_nonzero_weight_without_shots_refused(self):
        # largest remainder would give (8, 0, 4), dropping the 1e-3 term
        message = "sampling.total_shots: budget 12 gives configuration 1"
        with pytest.raises(ShotBudgetError, match=message):
            allocate_shots([1.0, 1e-3, 0.5], 12, "optimal")
        assert allocate_shots([1.0, 1e-3, 0.5], 1500, "optimal").per_configuration == (999, 1, 500)

    def test_plan_sums_enforced(self):
        with pytest.raises(ValueError):
            SamplingPlan(10, (3, 3, 3), "uniform", 0)


class TestVarianceBound:
    # one channel of weights (1, 0, -1): 3 shifts, ||c||_2^2 = ||c||_1 = 2
    ONE = [1.0, 0.0, -1.0]

    def test_single_channel_uniform(self):
        assert variance_bound(self.ONE, 300, "uniform") == pytest.approx(0.02)

    def test_two_channel_factorization(self):
        # two channels, 3 shifts each, 100 shots per configuration
        bound = variance_bound(np.multiply.outer(self.ONE, self.ONE).ravel(), 900, "uniform")
        assert bound == pytest.approx(0.04)

    def test_optimal_uses_l1(self):
        assert variance_bound(self.ONE, 100, "optimal") == pytest.approx(0.04)

    def test_vanishes_with_budget(self):
        assert variance_bound(self.ONE, 10**9, "uniform") < 1e-8

    @staticmethod
    def per_channel(rules, beta, total_shots, mode):
        """The bound as the product of per-channel norms."""
        l2sq = [rules[a].l2_norm_squared(beta.beta[a]) for a in beta.support]
        l1 = [rules[a].l1_norm(beta.beta[a]) for a in beta.support]
        if mode == "uniform":
            m_prod = math.prod(rules[a].n_shifts for a in beta.support)
            return m_prod * math.prod(l2sq) / total_shots
        return math.prod(l1) ** 2 / total_shots

    @pytest.mark.parametrize("mode", ["uniform", "optimal"])
    def test_matches_per_channel_norms(self, mode):
        # bitwise on one channel, to rounding on two, whose weights are products
        sched = PulseSchedule([(op(3, (1.0, {0: "X"}), (0.5, {1: "Y"})), [0.0])] * 2)
        for beta in (MultiIndex([3, 0]), MultiIndex([2, 3])):
            rules = rules_for_schedule(sched, beta)
            _, weights = shift_configurations(rules, beta)
            bound = variance_bound(weights, 4096, mode)
            expected = self.per_channel(rules, beta, 4096, mode)
            if len(beta.support) == 1:
                assert bound == expected
            else:
                assert bound == pytest.approx(expected, rel=1e-15, abs=0)


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


def sampled(h, psi, sched, a, grid, beta, plan, rules):
    """The finite-shot estimate and standard error of one reconstruction."""
    series = reconstruct_response(h, sched, a, grid, beta, EXACT, psi, rules, plan)
    return series.metadata["sampled"], series.metadata["std_error"]


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
            total += sampled(h, psi, sched, a, grid, beta, plan, rules)[0]
        assert np.max(np.abs(total / reps - exact.values)) < 5e-3

    def test_propagated_error_reported(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 1024, "uniform", seed=5)
        _, errors = sampled(h, psi, sched, a, [1.0, 2.0], beta, plan, rules)
        assert errors.shape == (2,)
        assert np.all(errors >= 0)

    def test_deterministic_and_order_independent_seeding(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 512, "uniform", seed=9)
        s1, e1 = sampled(h, psi, sched, a, [0.5, 1.5], beta, plan, rules)
        s2, e2 = sampled(h, psi, sched, a, [0.5, 1.5], beta, plan, rules)
        assert np.array_equal(s1, s2)
        assert np.array_equal(e1, e2)
        # a single-point run reproduces the same value as the grid run:
        # substreams are keyed by (configuration, time index), so the first
        # time cell is identical across both calls
        s3, _ = sampled(h, psi, sched, a, [0.5], beta, plan, rules)
        assert s3[0] == s1[0]

    def test_variance_within_bound(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        n_tot = 3 * 2048
        bound = variance_bound(shift_configurations(rules, beta)[1], n_tot, "uniform")
        reps = 120
        grid = np.array([1.0, 3.0])
        draws = np.empty((reps, grid.size))
        for r in range(reps):
            plan = allocate_shots([1, 1, 1], n_tot, "uniform", seed=300 + r)
            draws[r] = sampled(h, psi, sched, a, grid, beta, plan, rules)[0]
        empirical = draws.var(axis=0, ddof=1)
        assert np.all(empirical <= bound * (1 + 5 / np.sqrt(reps)))

    def test_view_of_the_sampled_reconstruction(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 512, "uniform", seed=9)
        series, errors = noisy_response(h, sched, a, [0.5, 1.5], beta, plan, EXACT, psi, rules)
        exact = reconstruct_response(h, sched, a, [0.5, 1.5], beta, EXACT, psi, rules, plan)
        assert np.array_equal(series.values, exact.metadata["sampled"])
        assert np.array_equal(errors, exact.metadata["std_error"])
        assert series.metadata == {"sampling_mode": "uniform", "total_shots": 1536, "seed": 9}
        # the values noisy_response gave when it propagated its own
        # configurations, before it became a view
        assert [v.hex() for v in series.values] == ["-0x1.4000000000000p-4", "0x1.2000000000000p-5"]
        assert [v.hex() for v in errors] == ["0x1.ffa2c8ec70563p-5", "0x1.ffb5553b8bcc2p-5"]

    def test_exact_series_unchanged_by_a_plan(self, xxz_setup):
        h, psi, a, sched, beta, rules = xxz_setup
        plan = allocate_shots([1, 1, 1], 3 * 512, "uniform", seed=9)
        grid = [0.5, 1.5, 2.5]
        with_plan = reconstruct_response(h, sched, a, grid, beta, EXACT, psi, rules, plan)
        without = reconstruct_response(h, sched, a, grid, beta, EXACT, psi, rules)
        assert np.array_equal(with_plan.values, without.values)
        assert "sampled" not in without.metadata

    def test_configuration_without_shots_refused(self, xxz_setup):
        # a hand-made plan that skips the -pi/4 shift of weight -1
        h, psi, a, sched, beta, rules = xxz_setup
        plan = SamplingPlan(100, (0, 0, 100), "uniform", 0)
        with pytest.raises(ShotBudgetError):
            reconstruct_response(h, sched, a, [0.5], beta, EXACT, psi, rules, plan)
