import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspec.evolution import EXACT, Evolver, PulseSchedule, _SpectralPlan, evolve
from nlspec.models import build_xxz, ground_state
from nlspec.pauli import (
    OperatorSum,
    PauliTerm,
    apply_operator,
    expectation,
    to_dense,
)
from nlspec.reference import (
    _propagate,
    finite_difference_derivative,
    nested_commutator_prefixes,
    nested_commutator_series,
    stepwise_subtraction,
)
from nlspec.response import MultiIndex, reconstruct_response


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


def dense_oracle(h, observable, pulses, t, psi):
    """Textbook dense-matrix evaluation of the nested-commutator kernel."""
    from scipy.linalg import expm

    hd = to_dense(h)
    ad = to_dense(observable)

    def heisenberg(mat, tau):
        u = expm(-1j * hd * tau)
        return u.conj().T @ mat @ u

    acc = heisenberg(ad, t)
    for generator, tau in pulses:  # the latest pulse is the innermost commutator
        bd = heisenberg(to_dense(generator), tau)
        acc = bd @ acc - acc @ bd
    m = len(pulses)
    norm = 1.0
    counts = {}
    for generator, tau in pulses:
        key = (generator, tau)
        counts[key] = counts.get(key, 0) + 1
        norm *= counts[key]
    val = (1j**m / norm) * np.vdot(psi, acc @ psi)
    return val.real


class TestNestedCommutator:
    def test_order_zero_is_plain_expectation(self):
        h = build_xxz(3, 1.0, 0.4)
        psi = ground_state(h)
        a = op(3, (1.0, {1: "Z"}))
        val = nested_commutator_series(h, a, [], [2.0], psi)[0]
        assert val == pytest.approx(expectation(a, psi), abs=1e-12)
        # with no pulse, a time before the anchor at 0 evolves backwards
        rng = np.random.default_rng(5)
        phi = rng.normal(size=8) + 1j * rng.normal(size=8)
        phi /= np.linalg.norm(phi)
        val = nested_commutator_series(h, a, [], [-1.0], phi)[0]
        assert val == pytest.approx(expectation(a, evolve(h, phi, -1.0)), abs=1e-12)

    def test_single_qubit_linear(self):
        h = op(1, (0.5, {0: "Z"}))
        x = op(1, (1.0, {0: "X"}))
        psi = np.array([0.0, 1.0], dtype=complex)
        grid = np.linspace(0, 6, 13)
        vals = nested_commutator_series(h, x, [(x, 0.0)], grid, psi)
        assert np.max(np.abs(vals + 2 * np.sin(grid))) < 1e-12

    def test_theta_causality(self):
        h = build_xxz(3, 1.0, 0.4)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {1: "X"}))
        # measurement before the pulse
        assert nested_commutator_series(h, a, [(b, 1.0)], [0.5], psi)[0] == 0.0
        # ascending pulse times violate the ordering
        assert nested_commutator_series(h, a, [(b, 0.0), (b, 1.0)], [2.0], psi)[0] == 0.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 3))
    def test_matches_dense_reference(self, seed, m):
        rng = np.random.default_rng(seed)
        h = build_xxz(3, float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
        psi = ground_state(h)
        b = op(3, (1.0, {1: "X"}))
        a = op(3, (1.0, {1: "X"}), (0.5, {0: "Z"}))
        t = float(rng.uniform(0.5, 3.0))
        pulses = [(b, 0.0)] * m
        fast = nested_commutator_series(h, a, pulses, [t], psi)[0]
        slow = dense_oracle(h, a, pulses, t, psi)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_matches_dense_reference_distinct_times(self):
        h = build_xxz(3, 0.8, 0.5)
        psi = ground_state(h)
        b = op(3, (1.0, {1: "X"}))
        a = op(3, (1.0, {2: "X"}))
        pulses = [(b, 1.2), (b, 0.4)]
        fast = nested_commutator_series(h, a, pulses, [2.5], psi)[0]
        slow = dense_oracle(h, a, pulses, 2.5, psi)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_engine_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(0, 5, 11)
        for _ in range(3):
            h = build_xxz(4, float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
            psi = ground_state(h)
            b = op(4, (1.0, {1: "X"}))
            a = op(4, (1.0, {2: "X"}), (1.0, {2: "Z"}))
            sched = PulseSchedule([(b, [0.0])])
            for m in range(1, 6):
                series = reconstruct_response(
                    h, sched, a, grid, MultiIndex([m]), EXACT, psi
                )
                oracle = nested_commutator_series(h, a, [(b, 0.0)] * m, grid, psi)
                assert np.max(np.abs(series.values - oracle)) < 1e-8

    def test_trotter_segmentation_consistency(self):
        # with a Trotterized propagator the oracle must segment at pulse
        # times exactly like the driven signal; two pulses exercise this
        h = build_xxz(4, 0.6, 0.4)
        psi = ground_state(h)
        b = op(4, (1.0, {1: "X"}))
        a = op(4, (1.0, {2: "X"}))
        trotter = Evolver("trotter1", 7)
        sched = PulseSchedule([(b, [0.0]), (b, [1.0])])
        grid = np.linspace(0, 4, 9)
        series = reconstruct_response(
            h, sched, a, grid, MultiIndex([1, 1]), trotter, psi
        )
        oracle = nested_commutator_series(h, a, [(b, 1.0), (b, 0.0)], grid, psi, trotter)
        assert np.max(np.abs(series.values - oracle)) < 1e-12


def per_subset_oracle(h, observable, pulses, t_grid, psi, evolver):
    """The nested-commutator sum evaluated subset by subset: one ket per
    index subset, each propagated on its own from its last pulse to every
    grid time (no sharing between subsets, no blocks)."""
    m = len(pulses)
    times = [float(t) for _, t in pulses]
    checkpoints = sorted(set(times))
    kets = {frozenset(): (psi, min([0.0] + times))}

    def ket(subset):
        if subset not in kets:
            k = min(subset)  # the latest pulse of the subset is applied last
            state, tau = ket(subset - {k})
            generator, t_k = pulses[k]
            state = _propagate(h, state, tau, t_k, checkpoints, evolver)
            kets[subset] = (apply_operator(generator, state), t_k)
        return kets[subset]

    norm, counts = 1.0, {}
    for generator, t_k in pulses:
        key = (generator, float(t_k))
        counts[key] = counts.get(key, 0) + 1
        norm *= counts[key]
    everything = frozenset(range(m))
    subsets = [frozenset(s) for r in range(m + 1) for s in itertools.combinations(range(m), r)]
    values = np.zeros(len(t_grid))
    for idx, t in enumerate(t_grid):
        if t < times[0]:
            continue
        w = {s: _propagate(h, *ket(s), float(t), checkpoints, evolver) for s in subsets}
        total = 0.0 + 0.0j
        for right in subsets:
            sign = -1.0 if len(right) % 2 else 1.0
            total += sign * np.vdot(w[everything - right], apply_operator(observable, w[right]))
        values[idx] = (total * (1j**m / norm)).real
    return values


#: (generator index, time) per pulse, latest first
PULSE_PATTERNS = {
    "coincident": [(0, 0.7)] * 3,
    "distinct_times": [(0, 1.3), (0, 0.6), (0, 0.0)],
    "two_generators_coincident": [(1, 0.6), (0, 0.6), (0, 0.6)],
    "two_generators_mixed": [(1, 1.3), (0, 1.3), (1, 0.6), (0, 0.0)],
}


@st.composite
def oracle_instances(draw):
    """A random chain on at most 4 sites, two different pump generators, a
    random observable and a random (not stationary) initial state."""
    n = draw(st.integers(2, 4))
    h = build_xxz(
        n,
        draw(st.floats(0.0, 2.0)),
        draw(st.floats(0.0, 1.0)),
        draw(st.sampled_from(["open", "periodic"])),
    )
    site = st.integers(0, n - 1)
    axis = st.sampled_from("XYZ")
    first = op(n, (draw(st.floats(0.5, 1.5)), {draw(site): draw(axis)}))
    a, b = draw(st.lists(site, min_size=2, max_size=2, unique=True))
    second = op(n, (draw(st.floats(0.5, 1.5)), {a: draw(axis), b: draw(axis)}))
    observable = op(
        n, (draw(st.floats(-1.5, 1.5)), {draw(site): draw(axis)}), (0.5, {draw(site): "Z"})
    )
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return h, (first, second), observable, psi / np.linalg.norm(psi)


class TestOracleDifferential:
    """The shared-ket, blocked oracle against a dense Kubo evaluation and,
    under first-order Trotter evolution, against the subset-by-subset sum."""

    @pytest.mark.parametrize("pattern", list(PULSE_PATTERNS))
    @settings(max_examples=8, deadline=None)
    @given(oracle_instances())
    def test_matches_dense_kubo(self, pattern, instance):
        h, generators, observable, psi = instance
        pulses = [(generators[g], t) for g, t in PULSE_PATTERNS[pattern]]
        latest = pulses[0][1]
        # one time before the latest pulse, one exactly at it, two after
        grid = [latest - 0.3, latest, latest + 0.45, latest + 1.2]
        fast = nested_commutator_series(h, observable, pulses, grid, psi)
        assert fast[0] == 0.0
        for t, value in zip(grid[1:], fast[1:]):
            assert abs(value - dense_oracle(h, observable, pulses, t, psi)) < 1e-10

    @pytest.mark.parametrize("pattern", list(PULSE_PATTERNS))
    @settings(max_examples=6, deadline=None)
    @given(oracle_instances(), st.integers(1, 4))
    def test_trotter_bitwise_equal_to_per_subset_sum(self, pattern, instance, n_steps):
        h, generators, observable, psi = instance
        pulses = [(generators[g], t) for g, t in PULSE_PATTERNS[pattern]]
        latest = pulses[0][1]
        grid = [latest - 0.3, latest, latest + 0.45, latest + 1.2]
        trotter = Evolver("trotter1", n_steps)
        fast = nested_commutator_series(h, observable, pulses, grid, psi, trotter)
        slow = per_subset_oracle(h, observable, pulses, grid, psi, trotter)
        assert np.array_equal(fast, slow)

    def test_one_eigenbasis_projection_per_call(self, monkeypatch):
        h = build_xxz(4, 0.7, 0.3)
        psi = ground_state(h)
        b = op(4, (1.0, {1: "X"}))
        a = op(4, (1.0, {2: "X"}))
        shapes = []

        def counting_to_eigenbasis(plan, amps):
            shapes.append(amps.shape)
            return to_eigenbasis(plan, amps)

        to_eigenbasis = _SpectralPlan.to_eigenbasis
        monkeypatch.setattr(_SpectralPlan, "to_eigenbasis", counting_to_eigenbasis)
        grid = np.linspace(0.0, 2.0, 6)
        nested_commutator_series(h, a, [(b, 0.0)] * 4, grid, psi)
        nested_commutator_prefixes(h, a, [(b, 0.0)] * 4, grid, psi)
        # five distinct kets (B^0 .. B^4 psi) in one block, projected once
        # per call for all five grid times after t = 0
        assert shapes == [(16, 5)] * 2


class TestOraclePrefixes:
    @pytest.mark.parametrize("evolver", [EXACT, Evolver("trotter1", 4)], ids=["exact", "trotter1"])
    def test_rows_equal_separate_calls(self, evolver):
        # the 10-site sector-route chain with the X5 probe next to the X4
        # kick, whose orders 1 and 3 are of order one, so no row is vacuous
        h = build_xxz(10, 0.5, 0.12, "open")
        psi = ground_state(h)
        b = op(10, (1.0, {4: "X"}))
        a = op(10, (1.0, {5: "X"}))
        grid = np.linspace(0.0, 1.5, 11)
        pulses = [(b, 0.0)] * 5
        rows = nested_commutator_prefixes(h, a, pulses, grid, psi, evolver)
        assert rows.shape == (6, grid.size)
        assert np.max(np.abs(rows[1])) > 0.5 and np.max(np.abs(rows[3])) > 0.3
        for k in range(1, 5):
            single = nested_commutator_series(h, a, pulses[:k], grid, psi, evolver)
            assert np.max(np.abs(rows[k] - single)) <= 1e-14
        assert np.array_equal(rows[5], nested_commutator_series(h, a, pulses, grid, psi, evolver))

    def test_initial_state_checked(self):
        h = build_xxz(3, 1.0, 0.4)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {1: "X"}))
        block = np.eye(8)[:, :2]  # two normalized states: no initial state
        for psi0 in (np.ones(8), np.array([1.0, 0.0, 0.0, 0.0]), block):
            with pytest.raises(ValueError, match="psi0"):
                nested_commutator_series(h, a, [(b, 0.0)], [1.0], psi0)


class TestFiniteDifference:
    def test_exact_on_quadratic(self):
        fd = finite_difference_derivative(lambda e: e**2, 2, 0.3)
        assert fd == pytest.approx(2.0, abs=1e-10)

    def test_symmetric_first_derivative_of_even(self):
        fd = finite_difference_derivative(lambda e: np.cos(2 * e), 1, 1e-4)
        assert abs(fd) < 1e-8

    def test_sin_first_derivative(self):
        fd = finite_difference_derivative(lambda e: np.sin(2 * e), 1, 1e-4)
        assert fd == pytest.approx(2.0, abs=1e-9)

    def test_richardson_improves(self):
        # the refined estimate's error is O(h^4): halving the step cuts it
        # about 16x (5.0e-6 at 0.05, 3.1e-7 at 0.025), where a plain central
        # stencil's O(h^2) error would fall only 4x
        errors = [
            abs(finite_difference_derivative(lambda e: np.sin(2 * e), 3, step) + 8.0)
            for step in (0.05, 0.025)
        ]
        assert errors[1] * 10 <= errors[0]

    def test_array_sampler_matches_scalar_calls(self):
        ts = np.array([0.0, 0.7, 1.9])
        for order in (1, 2, 3):
            fd = finite_difference_derivative(lambda e: np.sin(ts + 2 * e), order, 1e-2)
            for k, t in enumerate(ts):
                single = finite_difference_derivative(lambda e: np.sin(t + 2 * e), order, 1e-2)
                assert fd[k] == single

    def test_order_cap(self):
        with pytest.raises(ValueError):
            finite_difference_derivative(lambda e: e, 8, 0.1)


class TestStepwiseSubtraction:
    def test_recovers_odd_quintic_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c1, c3, c5 = rng.normal(size=3)
            g = lambda s: c1 * s + c3 * s**3 + c5 * s**5
            a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.1, 0.2, 0.3)})
            assert a1 == pytest.approx(c1, abs=1e-10)
            assert a3 == pytest.approx(c3, abs=1e-10)
            assert a5 == pytest.approx(c5, abs=1e-10)

    def test_pure_linear_gives_zero_higher_orders(self):
        g = lambda s: 2.5 * s
        a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.05, 0.1, 0.2)})
        assert a1 == pytest.approx(2.5, abs=1e-12)
        assert abs(a3) < 1e-10 and abs(a5) < 1e-10

    def test_pure_quintic(self):
        g = lambda s: s**5
        a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.1, 0.2, 0.3)})
        assert a5 == pytest.approx(1.0, abs=1e-10)
        assert abs(a1) < 1e-10 and abs(a3) < 1e-10

    def test_background_subtracted(self):
        g = lambda s: 4.0 + 0.5 * s + 0.25 * s**3
        a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.1, 0.2, 0.3)})
        assert a1 == pytest.approx(0.5, abs=1e-10)
        assert a3 == pytest.approx(0.25, abs=1e-10)

    def test_degree_seven_contamination_shrinks_with_amplitude(self):
        g = lambda s: 0.3 * s + 0.7 * s**3 - 1.2 * s**5 + 0.9 * s**7
        errors = []
        for scale in (1.0, 0.5, 0.25):
            s = (0.1 * scale, 0.2 * scale, 0.3 * scale)
            _, a3, _ = stepwise_subtraction({0.0: g(0.0), **{x: g(x) for x in s}})
            errors.append(abs(a3 - 0.7))
        assert errors[0] > errors[1] > errors[2]

    def test_vectorized_over_time(self):
        t = np.linspace(0, 1, 5)
        g = lambda s: np.sin(t) * s + np.cos(t) * s**3
        a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.1, 0.2, 0.3)})
        assert np.allclose(a1, np.sin(t), atol=1e-10)
        assert np.allclose(a3, np.cos(t), atol=1e-10)

    def test_bad_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            stepwise_subtraction({0.0: 0.0, 0.2: 1.0, 0.1: 2.0})  # only 3 keys
