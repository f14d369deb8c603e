import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlspec import response
from nlspec.evolution import EXACT, Evolver, PulseSchedule, driven_signal
from nlspec.models import (
    build_pump,
    build_spin_boson,
    build_tls_dimer,
    build_xxz,
    ground_state,
    PumpSpec,
)
from nlspec.pauli import OperatorSum, PauliTerm
from nlspec.reference import nested_commutator_series
from nlspec.response import (
    MultiIndex,
    ResponseSeries,
    decomposition_rule,
    reconstruct_response,
    response_decomposition,
    rules_for_schedule,
    shift_configurations,
)
from nlspec.sampling import allocate_shots, noisy_response
from nlspec.shift_rules import taylor_rule


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return amps


@pytest.fixture(scope="module")
def single_qubit():
    h = op(1, (0.5, {0: "Z"}))
    x = op(1, (1.0, {0: "X"}))
    psi = basis_state(1, 1)
    return h, x, psi


class TestReconstructResponse:
    def test_single_qubit_linear_response(self, single_qubit):
        h, x, psi = single_qubit
        grid = np.linspace(0, 6, 13)
        series = reconstruct_response(
            h, PulseSchedule([(x, [0.0])]), x, grid, MultiIndex([1]), EXACT, psi
        )
        assert np.max(np.abs(series.values + 2 * np.sin(grid))) < 1e-12

    def test_commuting_pump_gives_zero(self):
        h = OperatorSum((), 2)
        b = op(2, (1.0, {0: "Z"}))
        a = op(2, (1.0, {0: "Z"}), (1.0, {1: "Z"}))
        psi = basis_state(2, 2)
        grid = np.linspace(0, 3, 5)
        for m in (1, 2, 3):
            series = reconstruct_response(
                h, PulseSchedule([(b, [0.0])]), a, grid, MultiIndex([m]), EXACT, psi
            )
            assert np.max(np.abs(series.values)) < 1e-12

    def test_linearity_in_observable(self):
        h = build_xxz(4, 0.9, 0.3)
        psi = ground_state(h)
        b = op(4, (1.0, {1: "X"}))
        sched = PulseSchedule([(b, [0.0])])
        grid = np.linspace(0, 4, 9)
        a1 = op(4, (1.0, {2: "X"}))
        a2 = op(4, (0.5, {1: "Z", 2: "Z"}))
        beta = MultiIndex([2])
        s1 = reconstruct_response(h, sched, a1, grid, beta, EXACT, psi)
        s2 = reconstruct_response(h, sched, a2, grid, beta, EXACT, psi)
        s12 = reconstruct_response(h, sched, a1 + a2, grid, beta, EXACT, psi)
        assert np.max(np.abs(s12.values - s1.values - s2.values)) < 1e-12

    def test_configuration_count_matches_product(self):
        b = op(4, (1.0, {1: "X"}))
        sched = PulseSchedule([(b, [0.0]), (b, [1.0])])
        beta = MultiIndex([2, 1])
        rules = rules_for_schedule(sched, beta)
        configs, weights = shift_configurations(rules, beta)
        # order 2 takes the full 3-shift grid, order 1 one +- pair
        assert [rules[a].n_shifts for a in (0, 1)] == [3, 2]
        assert configs.shape == (6, 2)  # 3 x 2 Cartesian grid
        assert weights.shape == (6,)

    def test_requires_initial_state(self, single_qubit):
        # the shared kernel rejects a missing, wrong-length or unnormalized
        # psi0 on every route into it, exact and Trotter alike
        h, x, _ = single_qubit
        sched, beta = PulseSchedule([(x, [0.0])]), MultiIndex([1])
        plan = allocate_shots(shift_configurations(rules_for_schedule(sched, beta), beta)[1], 64)
        for psi0 in (None, basis_state(2, 1), np.array([1.0, 1.0])):
            for evolver in (EXACT, Evolver("trotter1", 4)):
                with pytest.raises(ValueError, match="psi0"):
                    reconstruct_response(h, sched, x, [0.0], beta, evolver, psi0)
                with pytest.raises(ValueError, match="psi0"):
                    response_decomposition(h, sched, x, [0.0, 1.0], [0.1], 2, evolver, psi0)
                with pytest.raises(ValueError, match="psi0"):
                    noisy_response(h, sched, x, [0.0], beta, plan, evolver, psi0)

    @pytest.mark.parametrize("orders", [[0], [0, 0]], ids=["one_channel", "two_channels"])
    @pytest.mark.parametrize(
        "evolver", [EXACT, Evolver("trotter1", 3)], ids=["exact", "trotter1"]
    )
    def test_order_zero_is_the_unperturbed_signal_bitwise(self, evolver, orders):
        # one configuration, every channel at amplitude 0, of weight 1
        h = build_xxz(6, 0.7, 0.3)
        pumps = [(op(6, (1.0, {1: "X"})), [0.0]), (op(6, (1.0, {3: "Y"})), [0.5])]
        sched = PulseSchedule(pumps[: len(orders)])
        a = op(6, (1.0, {2: "Z"}), (0.5, {1: "X", 2: "X"}))
        grid, psi = np.linspace(0, 2, 9), ground_state(h)
        series = reconstruct_response(h, sched, a, grid, MultiIndex(orders), evolver, psi)
        unperturbed = driven_signal(h, sched, [0.0] * len(orders), a, grid, evolver, psi)
        assert series.metadata["n_configurations"] == 1 and np.all(np.abs(unperturbed) > 1e-3)
        assert series.values.tobytes() == unperturbed.tobytes()


#: candidate pulse times; every one of them is also a grid time
PULSE_TIMES = (0.0, 0.45, 1.1)


@st.composite
def driven_instances(draw):
    """A random TLS dimer (conserves sum_i Z_i) or spin-boson model (does
    not), a random initial state, an observable with a random Pauli on every
    site, and a schedule of one or two channels, each a single-site Pauli
    kicked once.  Two channels kick on different sites, so their generators
    commute and may pulse at the same time."""
    omega = st.floats(0.3, 2.0)
    coupling = st.one_of(st.floats(-0.8, -0.2), st.floats(0.2, 0.8))  # never uncoupled
    if draw(st.booleans()):
        h = build_tls_dimer(draw(omega), draw(omega), draw(coupling))
    else:
        h = build_spin_boson(draw(omega), draw(omega), draw(omega), draw(coupling))
    n = h.n_sites
    axis = st.sampled_from("XYZ")
    sites = [0] if draw(st.booleans()) else [0, n - 1]
    channels = [
        (op(n, (draw(st.floats(0.5, 1.5)), {site: draw(axis)})), draw(st.sampled_from(PULSE_TIMES)))
        for site in sites
    ]
    beta = [draw(st.integers(1, 3 if len(sites) == 1 else 2)) for _ in sites]
    observable = op(n, *((draw(st.floats(0.5, 1.5)), {i: draw(axis)}) for i in range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return h, channels, beta, observable, psi / np.linalg.norm(psi)


class TestReconstructionAgainstOracle:
    """The shift-rule reconstruction (kicks, batched shift configurations,
    segment propagators) against the nested-commutator oracle, which
    applies the generators as operators instead of kicks."""

    @pytest.mark.parametrize(
        "evolver", [EXACT, Evolver("trotter1", 3)], ids=["exact", "trotter1"]
    )
    @settings(max_examples=12, deadline=None)
    @given(driven_instances())
    def test_matches_nested_commutators(self, evolver, instance):
        h, channels, beta, observable, psi = instance
        schedule = PulseSchedule([(generator, [t]) for generator, t in channels])
        # every pulse time is a grid time, and some grid times precede a pulse
        grid = np.array(sorted(set(PULSE_TIMES) | {0.2, 0.8, 1.6, 2.3}))
        series = reconstruct_response(h, schedule, observable, grid, MultiIndex(beta), evolver, psi)
        # beta_a coincident copies of channel a's pulse, latest first
        pulses = sorted(
            ((generator, t) for (generator, t), b in zip(channels, beta) for _ in range(b)),
            key=lambda pulse: -pulse[1],
        )
        oracle = nested_commutator_series(h, observable, pulses, grid, psi, evolver)
        assert np.max(np.abs(series.values - oracle)) < 1e-8


def pulse_summed_oracle(h, observable, channels, beta, grid, psi):
    """The order-beta response when a channel may pulse several times: the
    commutator oracle summed over every way to spread channel a's beta_a
    derivatives over its pulse times, each pulse sequence latest first."""
    spreads = [
        itertools.combinations_with_replacement(times, b) for (_, times), b in zip(channels, beta)
    ]
    total = np.zeros(len(grid))
    for choice in itertools.product(*spreads):
        pulses = sorted(
            ((generator, t) for (generator, _), ts in zip(channels, choice) for t in ts),
            key=lambda pulse: -pulse[1],
        )
        total += nested_commutator_series(h, observable, pulses, grid, psi, EXACT)
    return total


@st.composite
def multi_pulse_instances(draw):
    """A random spin-boson model (three sites), one to three channels, each a
    single-site Pauli on its own site kicked at one to three of the
    ``PULSE_TIMES``, and a multi-index of total order 1 to 3."""
    omega = st.floats(0.3, 2.0)
    coupling = st.one_of(st.floats(-0.8, -0.2), st.floats(0.2, 0.8))
    h = build_spin_boson(draw(omega), draw(omega), draw(omega), draw(coupling))
    axis = st.sampled_from("XYZ")
    sites = draw(st.lists(st.sampled_from(range(3)), min_size=1, max_size=3, unique=True))
    channels = [
        (
            op(3, (draw(st.floats(0.5, 1.5)), {site: draw(axis)})),
            sorted(draw(st.sets(st.sampled_from(PULSE_TIMES), min_size=1))),
        )
        for site in sites
    ]
    beta = draw(st.lists(st.integers(0, 2), min_size=len(sites), max_size=len(sites)))
    assume(1 <= sum(beta) <= 3)
    observable = op(3, *((draw(st.floats(0.5, 1.5)), {i: draw(axis)}) for i in range(3)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    return h, channels, beta, observable, psi / np.linalg.norm(psi)


class TestPulseSummedResponse:
    """Channels pulsed several times at one shared amplitude, against the
    commutator oracle.  Exact evolution only: under Trotter the oracle breaks
    its segments at its own pulse times, not at every pulse of the schedule."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_two_pulse_channel(self, order):
        h = build_xxz(3, 0.7, 0.2)
        psi = ground_state(h)
        channels = [(op(3, (1.0, {0: "X"})), [0.0, 0.7])]
        observable = op(3, (1.0, {1: "Z"}), (0.5, {2: "X"}))
        grid = np.linspace(0.0, 2.1, 7)
        schedule, beta = PulseSchedule(channels), MultiIndex([order])
        # the sumset {-4, -2, 0, 2, 4} of two pulses needs five shifts, or
        # at odd orders one +- pair per positive gap
        shifts = rules_for_schedule(schedule, beta)[0].shifts
        if order % 2:
            assert shifts == pytest.approx(np.pi / 8 * np.array([-3, -1, 1, 3]))
        else:
            assert shifts == pytest.approx(np.pi / 6 * np.arange(-2, 3))
        series = reconstruct_response(h, schedule, observable, grid, beta, EXACT, psi)
        oracle = pulse_summed_oracle(h, observable, channels, [order], grid, psi)
        assert np.max(np.abs(series.values - oracle)) < 1e-8

    @settings(max_examples=10, deadline=None)
    @given(multi_pulse_instances())
    def test_matches_summed_nested_commutators(self, instance):
        h, channels, beta, observable, psi = instance
        grid = np.array(sorted(set(PULSE_TIMES) | {0.2, 0.8, 1.6, 2.3}))
        series = reconstruct_response(
            h, PulseSchedule(channels), observable, grid, MultiIndex(beta), EXACT, psi
        )
        oracle = pulse_summed_oracle(h, observable, channels, beta, grid, psi)
        assert np.max(np.abs(series.values - oracle)) < 1e-8


class TestResponseSeries:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ResponseSeries(np.array([np.inf]))

    def test_caller_grid_stays_writeable(self, single_qubit):
        # a series freezes a copy of its values, not the caller's arrays
        h, x, psi = single_qubit
        schedule = PulseSchedule([(x, [0.0])])
        grid = np.linspace(0.5, 2, 4)
        series = reconstruct_response(h, schedule, x, grid, MultiIndex([1]), EXACT, psi)
        assert grid.flags.writeable and not series.values.flags.writeable
        values = np.zeros(4)
        ResponseSeries(values)
        assert values.flags.writeable
        response_decomposition(h, schedule, x, grid, [0.1], 2, EXACT, psi)
        assert grid.flags.writeable


class TestDecomposition:
    def test_zero_amplitude_only_baseline(self, single_qubit):
        h, x, psi = single_qubit
        grid = np.linspace(0, 3, 7)
        sched = PulseSchedule([(x, [0.0])])
        (terms,), (diff,), _ = response_decomposition(h, sched, x, grid, [0.0], 3, EXACT, psi)
        assert np.max(np.abs(diff)) < 1e-12
        for n in (1, 2, 3):
            assert np.max(np.abs(terms[n])) < 1e-12  # eta^n factor kills them

    def test_cosine_taylor_remainder(self):
        # analytic band-limited signal F(eta) = cos(2 eta), t-independent:
        # A0 = 1, A1 = 0, A2 = -2 eta^2; diff = cos(2 eta) - (1 - 2 eta^2)
        h = OperatorSum((), 1)
        b = op(1, (1.0, {0: "X"}))
        a = op(1, (1.0, {0: "Z"}))
        psi = basis_state(1, 0)
        grid = np.array([0.0, 1.0])
        eta = 0.1
        (terms,), (diff,), _ = response_decomposition(
            h, PulseSchedule([(b, [0.0])]), a, grid, [eta], 2, EXACT, psi
        )
        assert np.allclose(terms[0], 1.0)
        assert np.max(np.abs(terms[1])) < 1e-12
        assert np.allclose(terms[2], -2 * eta**2, atol=1e-12)
        expected_diff = np.cos(2 * eta) - (1 - 2 * eta**2)
        assert np.allclose(diff, expected_diff, atol=1e-12)

    def test_polynomial_signal_truncates_exactly(self):
        # with the taylor rule, a polynomial signal of degree m yields
        # A^n = 0 for all n > m
        rule = taylor_rule(range(6), 6, 0.25)
        h = OperatorSum((), 1)
        b = op(1, (0.5, {0: "Z"}))
        a = op(1, (1.0, {0: "Z"}))
        psi = basis_state(1, 0)
        # build a synthetic sampler by overriding the driven signal through
        # the rule interface directly
        poly = np.polynomial.Polynomial([0.3, -0.4, 0.2, 0.05])
        samples = poly(rule.shifts)
        for n in (4, 5):
            assert abs(float(np.dot(rule.coefficients[n], samples))) < 1e-10

    def test_partial_sums_converge_with_order(self):
        h = build_xxz(3, 0.8, 0.2)
        psi = ground_state(h)
        b = build_pump(PumpSpec("local_pauli", site=1), 3)
        a = op(3, (1.0, {1: "X"}))
        sched = PulseSchedule([(b, [0.0])])
        grid = np.linspace(0, 4, 9)
        residuals = []
        for max_order in (1, 3, 5):
            _, diff, _ = response_decomposition(h, sched, a, grid, [0.4], max_order, EXACT, psi)
            residuals.append(np.max(np.abs(diff)))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_all_amplitudes_in_one_call_equal_separate_calls(self):
        # Trotter propagates column by column, so the block is bitwise the same
        n = 6
        h = build_xxz(n, 0.5, 0.1, "periodic")
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=1), n)
        sched = PulseSchedule([(pump, [0.0])])
        a = op(n, (1.0, {2: "Z"}), (1.0, {3: "Z"}))
        grid = np.linspace(0, 2, 5)
        trotter = Evolver("trotter1", 4)
        etas = [0.05, 0.2, 0.5]
        terms, diffs, _ = response_decomposition(h, sched, a, grid, etas, 5, trotter, psi, n_shifts=6)
        assert terms.shape == (len(etas), 6, grid.size) and diffs.shape == (len(etas), grid.size)
        for e, eta in enumerate(etas):
            alone_terms, alone_diffs, _ = response_decomposition(
                h, sched, a, grid, [eta], 5, trotter, psi, n_shifts=6
            )
            assert np.array_equal(diffs[e], alone_diffs[0])
            assert np.array_equal(terms[e], alone_terms[0])

    def test_terms_and_residuals_bitwise(self):
        # A_n = (eta^n / n!) c_n . samples, and diff = reference - sum_n A_n
        # summed from order 0, each to the bit
        n = 4
        h = build_xxz(n, 0.6, 0.2)
        psi = ground_state(h)
        sched = PulseSchedule([(build_pump(PumpSpec("local_pauli", site=1), n), [0.0])])
        a = op(n, (1.0, {2: "Z"}))
        grid = np.linspace(0, 2, 6)
        trotter, etas = Evolver("trotter1", 5), [0.05, 0.3]
        terms, residuals, rule = response_decomposition(h, sched, a, grid, etas, 4, trotter, psi)
        signals = driven_signal(
            h, sched, np.append(rule.shifts, etas)[:, None], a, grid, trotter, psi
        )
        samples, references = signals[: rule.n_shifts], signals[rule.n_shifts :]
        for e, eta in enumerate(etas):
            partial = np.zeros(grid.size)
            for k in range(5):
                expected = (eta**k / math.factorial(k)) * (rule.coefficients[k] @ samples)
                assert terms[e, k].tobytes() == expected.tobytes()
                partial += terms[e, k]
            assert residuals[e].tobytes() == (references[e] - partial).tobytes()

    def test_nonfinite_signal_rejected(self, single_qubit, monkeypatch):
        h, x, psi = single_qubit
        sched = PulseSchedule([(x, [0.0])])
        monkeypatch.setattr(response, "driven_signal", lambda *args: np.full((4, 2), np.nan))
        with pytest.raises(ValueError, match="finite"):
            response_decomposition(h, sched, x, [0.0, 1.0], [0.1], 2, EXACT, psi)

    def test_scalar_amplitude_rejected(self, single_qubit):
        h, x, psi = single_qubit
        sched = PulseSchedule([(x, [0.0])])
        for bad in (0.2, []):
            with pytest.raises(ValueError):
                response_decomposition(h, sched, x, [0.0, 1.0], bad, 2, EXACT, psi)

    def test_multi_channel_rejected(self):
        h = build_xxz(3, 0.8, 0.2)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        sched = PulseSchedule([(b, [0.0]), (b, [1.0])])
        with pytest.raises(ValueError):
            response_decomposition(h, sched, b, [0.0, 1.0], [0.1], 2, EXACT, psi)


class TestDecompositionRule:
    def test_commensurate_uses_exact_rule(self):
        gen = op(4, (1.0, {1: "X"}))
        rule = decomposition_rule((gen, [0.0]), 7)
        assert rule.basis == "fourier"
        assert rule.n_shifts == 3

    def test_incommensurate_uses_taylor(self):
        gen = op(2, (1.0, {0: "X"}), (np.sqrt(2), {1: "X"}))
        rule = decomposition_rule((gen, [0.0]), 7)
        assert rule.basis == "taylor"
        assert rule.n_shifts == 8

    def test_forced_shift_count(self):
        gen = build_pump(PumpSpec("cosine_profile", momentum=1), 12)
        rule = decomposition_rule((gen, [0.0]), 7, n_shifts=8)
        assert rule.basis == "taylor"
        assert rule.n_shifts == 8
