"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single [PASS] line on success (run with -s to see them inline).
The cases cover engine-vs-commutator equivalence, the two-point shift rule,
order-by-order decomposition residuals, the 12-site hardware-demo
configurations against golden files, shot-noise bounds, toric-code channel
contrast, 2D spectra cross-peaks, the subtraction baseline, parity selection
rules, and entanglement diagnostics.
"""

from pathlib import Path

import numpy as np
import pytest

from nlspec.analysis import (
    contrast_ratio,
    entanglement_entropy,
    entropy_expansion,
    pump_probe_correlator,
    third_order_2dos,
)
from nlspec.config import ObservableSpec, build_observable
from nlspec.evolution import EXACT, Evolver, PulseSchedule, apply_kick, driven_signal
from nlspec.models import (
    PumpSpec,
    ToricLattice,
    build_pump,
    build_tls_dimer,
    build_toric_code,
    build_xxz,
    ground_state,
)
from nlspec.pauli import OperatorSum, PauliTerm
from nlspec.reference import nested_commutator_series, stepwise_subtraction
from nlspec.response import (
    MultiIndex,
    reconstruct_response,
    response_decomposition,
    rules_for_schedule,
)
from nlspec.sampling import allocate_shots, noisy_response, variance_bound
from nlspec.shift_rules import rule_for_generator
from nlspec.spectra import diagonal_offdiagonal_weight, spectrum_2d

GOLDEN_DIR = Path(__file__).parent / "golden"
TROTTER10 = Evolver("trotter1", 10)


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


def report(number: int, message: str) -> None:
    print(f"\n[PASS] criterion {number}: {message}")


def test_criterion_01_oracle_equivalence():
    """10 random 4-site instances, orders 1..5: engine == commutator route."""
    rng = np.random.default_rng(20240817)
    grid = np.linspace(0.0, 5.0, 11)
    worst = 0.0
    largest_signal = 0.0
    for _ in range(10):
        delta = float(rng.uniform(0.0, 2.0))
        h_field = float(rng.uniform(0.0, 1.0))
        h = build_xxz(4, delta, h_field)
        psi = ground_state(h)
        pump = op(4, (1.0, {1: "X"}))
        observable = op(4, (1.0, {2: "X"}), (1.0, {2: "Z"}))  # mixed parity
        schedule = PulseSchedule([(pump, [0.0])])
        for m in range(1, 6):
            series = reconstruct_response(
                h, schedule, observable, grid, MultiIndex([m]), EXACT, psi
            )
            oracle = nested_commutator_series(
                h, observable, [(pump, 0.0)] * m, grid, psi, EXACT
            )
            worst = max(worst, float(np.max(np.abs(series.values - oracle))))
            largest_signal = max(largest_signal, float(np.max(np.abs(oracle))))
    assert largest_signal > 1e-3  # the comparison is not vacuous
    assert worst < 1e-8
    report(1, f"max |engine - commutator| = {worst:.2e} over 10 instances, m=1..5")


def test_criterion_02_two_point_rule():
    """Spectrum {+-1/2}: odd rule is {-pi/2, pi/2} with weights (-1/2, 1/2)."""
    generator = op(1, (0.5, {0: "X"}))
    rule = rule_for_generator(generator, [1])
    assert rule.basis == "fourier-odd"
    assert np.allclose(rule.shifts, [-np.pi / 2, np.pi / 2], atol=1e-15)
    assert np.allclose(rule.coefficients[1], [-0.5, 0.5], atol=1e-15)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        a0 = rng.normal()
        b = rng.normal() + 1j * rng.normal()
        f = lambda eta: a0 + 2 * np.real(b * np.exp(1j * eta))
        exact = 2 * np.real(1j * b)
        estimate = (f(np.pi / 2) - f(-np.pi / 2)) / 2
        via_rule = float(np.dot(rule.coefficients[1], [f(s) for s in rule.shifts]))
        worst = max(worst, abs(via_rule - exact), abs(via_rule - estimate))
    assert worst < 1e-12
    report(2, f"two-point rule exact on band-limited signals (worst {worst:.2e})")


def test_criterion_03_decomposition_residual_monotone():
    """12-site chain, cosine pump, 8 shifts: truncation residual grows with
    the pump amplitude."""
    n = 12
    h = build_xxz(n, 0.5, 0.0, boundary="periodic")
    psi = ground_state(h)
    pump = build_pump(PumpSpec("cosine_profile", momentum=1), n)
    schedule = PulseSchedule([(pump, [0.0])])
    observable = op(n, (1.0, {5: "Z"}), (1.0, {6: "Z"}))
    grid = np.linspace(0.0, 5.0, 51)
    max_diff = {}
    for eta in (0.05, 0.2, 0.5):
        _, (diff,), _ = response_decomposition(
            h, schedule, observable, grid, [eta], 7, TROTTER10, psi, n_shifts=8
        )
        max_diff[eta] = float(np.max(np.abs(diff)))
    assert max_diff[0.05] < max_diff[0.2] < max_diff[0.5]
    report(
        3,
        "max|diff| monotone in eta: "
        + " < ".join(f"{max_diff[e]:.2e}" for e in (0.05, 0.2, 0.5)),
    )


@pytest.fixture(scope="module")
def hardware_demo():
    h = build_xxz(12, 0.0, 0.75)
    psi = ground_state(h)
    pump = op(12, (1.0, {3: "X"}))
    grid = np.linspace(0.0, 5.0, 51)
    return h, psi, pump, grid


def _golden(name):
    data = np.loadtxt(GOLDEN_DIR / f"{name}.csv", delimiter=",", skiprows=1)
    return data[:, 1]


def test_criterion_04_hardware_demo_reference(hardware_demo):
    """Trotterized reconstruction == trotterized commutator route at 1e-6 for
    the three 12-site configurations; exact-propagator curves match the
    committed golden files."""
    h, psi, pump, grid = hardware_demo
    two_site = build_observable(ObservableSpec("two_site_magnetization", sites=(3, 4)), 12)
    current = build_observable(ObservableSpec("spin_current", sites=(3, 4), axis="Z"), 12)
    x3 = build_observable(ObservableSpec("single_site_pauli", sites=(3,), axis="X"), 12)
    single = PulseSchedule([(pump, [0.0])])
    double = PulseSchedule([(pump, [0.0]), (pump, [1.0])])
    cases = [
        ("a", single, two_site, MultiIndex([4]), [(pump, 0.0)] * 4,
         "fig3a_chi4_two_site_magnetization_exact"),
        ("b", single, current, MultiIndex([4]), [(pump, 0.0)] * 4,
         "fig3b_chi4_spin_current_exact"),
        ("c", double, x3, MultiIndex([3, 2]),
         [(pump, 1.0)] * 2 + [(pump, 0.0)] * 3, "fig3c_chi5_transverse_exact"),
    ]
    devs = {}
    for label, schedule, observable, beta, pulses, golden_name in cases:
        trotter_series = reconstruct_response(
            h, schedule, observable, grid, beta, TROTTER10, psi
        )
        oracle = nested_commutator_series(h, observable, pulses, grid, psi, TROTTER10)
        dev = float(np.max(np.abs(trotter_series.values - oracle)))
        assert dev < 1e-6, f"case ({label}): trotter engine vs oracle {dev:.2e}"
        assert float(np.max(np.abs(oracle))) > 0.05  # non-vacuous signals
        exact_series = reconstruct_response(
            h, schedule, observable, grid, beta, EXACT, psi
        )
        golden_dev = float(np.max(np.abs(exact_series.values - _golden(golden_name))))
        assert golden_dev < 1e-7, f"case ({label}): golden file drift {golden_dev:.2e}"
        devs[label] = (dev, golden_dev)
    report(
        4,
        "; ".join(
            f"({k}) trotter dev {v[0]:.1e}, golden dev {v[1]:.1e}" for k, v in devs.items()
        ),
    )


def test_criterion_05_shot_noise_bound():
    """Uniform-plan estimator variance within 1.5x the worst-case bound;
    optimal allocation no worse than uniform (one-sided, 3 sigma)."""
    h = build_xxz(4, 0.8, 0.4)
    psi = ground_state(h)
    pump = op(4, (1.0, {1: "X"}))
    observable = op(4, (1.0, {2: "Z"}))
    schedule = PulseSchedule([(pump, [0.0])])
    beta = MultiIndex([1])
    rules = rules_for_schedule(schedule, beta)
    grid = np.linspace(0.5, 4.5, 5)
    n_tot = 3 * 8192
    reps = 200
    weights = rules[0].coefficients[1]
    bound = variance_bound(weights, n_tot, "uniform")
    draws_uniform = np.empty((reps, grid.size))
    draws_optimal = np.empty((reps, grid.size))
    for r in range(reps):
        plan_u = allocate_shots(weights, n_tot, "uniform", seed=1000 + r)
        plan_o = allocate_shots(weights, n_tot, "optimal", seed=1000 + r)
        s_u, _ = noisy_response(h, schedule, observable, grid, beta, plan_u, EXACT, psi, rules)
        s_o, _ = noisy_response(h, schedule, observable, grid, beta, plan_o, EXACT, psi, rules)
        draws_uniform[r] = s_u.values
        draws_optimal[r] = s_o.values
    var_u = draws_uniform.var(axis=0, ddof=1)
    var_o = draws_optimal.var(axis=0, ddof=1)
    assert np.all(var_u <= 1.5 * bound), f"uniform variance ratio {np.max(var_u) / bound:.3f}"
    # one-sided 3-sigma comparison on the log variance ratio
    threshold = np.exp(3.0 * 2.0 / np.sqrt(reps - 1))
    assert np.all(var_o <= var_u * threshold)
    report(
        5,
        f"var/bound max {np.max(var_u) / bound:.2f} (<= 1.5); "
        f"optimal/uniform max {np.max(var_o / var_u):.2f} (3-sigma cap {threshold:.2f})",
    )


def test_criterion_06_toric_contrast():
    """Anticommuting pump string gives R = -2 exactly at kappa = pi/2;
    commuting pump gives R = 0."""
    h = build_toric_code(2, 2, 1.0, 1.0)
    psi = ground_state(h)
    lat = ToricLattice(2, 2)
    star = lat.star_edges(0, 0)
    probe_1 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[:2]}),), 8)
    probe_2 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[2:]}),), 8)
    pump_anti = OperatorSum((PauliTerm(1.0, {star[0]: "Z"}),), 8)
    pump_comm = OperatorSum((PauliTerm(1.0, {lat.h_edge(0, 1): "Z"}),), 8)
    results = {}
    for label, pump in (("anticommuting", pump_anti), ("commuting", pump_comm)):
        c0 = pump_probe_correlator(h, pump, probe_1, probe_2, 0.7, 1.3, 0.0, psi)
        ck = pump_probe_correlator(h, pump, probe_1, probe_2, 0.7, 1.3, np.pi / 2, psi)
        results[label] = contrast_ratio(ck, c0)
    assert abs(results["anticommuting"] + 2.0) < 1e-10
    assert abs(results["commuting"]) < 1e-10
    report(
        6,
        f"R(anticommuting) = {results['anticommuting'].real:+.12f}, "
        f"R(commuting) = {abs(results['commuting']):.2e}",
    )


def test_criterion_07_2dos_cross_peaks():
    """Coupled two-level pair shows off-diagonal weight; the decoupled pair
    with in-phase pumping has empty mixed-frequency bins."""
    n_pts = 41
    dt = 8 * np.pi / n_pts
    grid = dt * np.arange(1, n_pts + 1)
    pump = build_pump(PumpSpec("cosine_profile", momentum=0), 2)
    observable = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))

    h = build_tls_dimer(0.5, 1.0, 0.8)
    psi = ground_state(h)
    s3 = third_order_2dos(h, observable, pump, 0.5, grid, grid, psi, EXACT, "shift_rule")
    spec = spectrum_2d(s3, dt, dt)
    p_diag, p_off = diagonal_offdiagonal_weight(spec)
    off_fraction = p_off / (p_diag + p_off)
    assert off_fraction > 0.05

    h0 = build_tls_dimer(0.5, 1.0, 0.0)
    psi0 = ground_state(h0)
    s3_dec = third_order_2dos(h0, observable, pump, 0.5, grid, grid, psi0, EXACT, "shift_rule")
    spec_dec = spectrum_2d(s3_dec, dt, dt)
    freqs = spec_dec.frequencies_1
    k0 = int(np.argmin(np.abs(freqs - 0.5)))
    k1 = int(np.argmin(np.abs(freqs - 1.0)))
    assert abs(freqs[k0] - 0.5) < 1e-9 and abs(freqs[k1] - 1.0) < 1e-9  # on-grid
    mixed = max(spec_dec.magnitudes[k0, k1], spec_dec.magnitudes[k1, k0])
    assert mixed < 1e-9
    assert spec_dec.magnitudes.max() > 1.0  # the signal itself is not empty
    report(
        7,
        f"off-diagonal fraction {off_fraction:.3f} (> 0.05); "
        f"decoupled mixed bins {mixed:.2e} (< 1e-9)",
    )


def test_criterion_08_stepwise_baseline():
    """Subtraction chain exact on odd quintics; within 10% of the shift-rule
    orders 1/3/5 on the 4-site chain at s = (0.1, 0.2, 0.3)."""
    rng = np.random.default_rng(11)
    worst_quintic = 0.0
    for _ in range(10):
        c1, c3, c5 = rng.normal(size=3)
        g = lambda s: c1 * s + c3 * s**3 + c5 * s**5
        a1, a3, a5 = stepwise_subtraction({s: g(s) for s in (0.0, 0.1, 0.2, 0.3)})
        worst_quintic = max(
            worst_quintic, abs(a1 - c1), abs(a3 - c3), abs(a5 - c5)
        )
    assert worst_quintic < 1e-10

    h = build_xxz(4, 1.0, 0.5)
    psi = ground_state(h)
    pump = op(4, (1.0, {1: "X"}))
    observable = op(4, (1.0, {2: "X"}))
    schedule = PulseSchedule([(pump, [0.0])])
    grid = np.linspace(0.0, 5.0, 11)
    signals = {
        s: driven_signal(h, schedule, [s], observable, grid, EXACT, psi)
        for s in (0.0, 0.1, 0.2, 0.3)
    }
    estimates = dict(zip((1, 3, 5), stepwise_subtraction(signals)))
    rel = {}
    for m, estimate in estimates.items():
        series = reconstruct_response(
            h, schedule, observable, grid, MultiIndex([m]), EXACT, psi
        )
        scale = float(np.max(np.abs(series.values)))
        rel[m] = float(np.max(np.abs(estimate - series.values))) / scale
        assert rel[m] < 0.10, f"order {m} disagreement {rel[m]:.3f}"
    report(
        8,
        f"quintic recovery {worst_quintic:.1e}; relative bias vs shift rule "
        + ", ".join(f"m={m}: {rel[m]:.4f}" for m in (1, 3, 5)),
    )


def test_criterion_09_selection_rules():
    """Parity-forbidden orders vanish on the 6-site chain with the cosine
    pump: even orders for M^x, odd orders for C^xx and J^z."""
    n = 6
    h = build_xxz(n, 1.0, 0.5)
    psi = ground_state(h)
    pump = build_pump(PumpSpec("cosine_profile", momentum=1), n)
    schedule = PulseSchedule([(pump, [0.0])])
    grid = np.linspace(0.0, 5.0, 11)
    mx = build_observable(ObservableSpec("magnetization", axis="X"), n)
    cxx = build_observable(ObservableSpec("correlation", sites=(0, 1), axes="xx"), n)
    jz = build_observable(ObservableSpec("spin_current", sites=(0, 1), axis="Z"), n)
    cases = (
        ("M^x", mx, (2, 4), (1, 3, 5)),
        ("C^xx", cxx, (1, 3, 5), (2, 4)),
        ("J^z", jz, (1, 3, 5), (2, 4)),
    )
    summary = []
    for label, observable, forbidden, allowed in cases:
        (terms,), _, _ = response_decomposition(
            h, schedule, observable, grid, [1.0], 5, EXACT, psi
        )
        peak = {m: float(np.max(np.abs(terms[m]))) for m in range(1, 6)}
        for m in forbidden:
            assert peak[m] < 1e-9, f"{label}: order {m} = {peak[m]:.2e}"
        assert max(peak[m] for m in allowed) > 1e-6  # selection, not extinction
        summary.append(f"{label} forbidden max {max(peak[m] for m in forbidden):.1e}")
    report(9, "; ".join(summary))


def test_criterion_10_entropy_diagnostics():
    """Half-chain entropy: gapped (Delta = 10) below gapless (Delta = 0.4);
    the expansion coefficient S^(2)(Delta) localizes its feature (extremum,
    with the gradient sign change) inside [0.8, 1.2]."""
    n = 12
    pump = build_pump(PumpSpec("cosine_profile", momentum=1), n)
    eta = 0.02

    def half_entropy(delta):
        h = build_xxz(n, delta, 0.0, boundary="periodic")
        state = apply_kick(pump, eta, ground_state(h))
        return entanglement_entropy(state, n // 2)

    s_gapless = half_entropy(0.4)
    s_gapped = half_entropy(10.0)
    assert s_gapped < s_gapless

    eta_grid = np.linspace(-0.03, 0.03, 7)
    deltas = np.round(np.arange(0.4, 2.05, 0.1), 10)
    s2 = []
    for delta in deltas:
        h = build_xxz(n, float(delta), 0.0, boundary="periodic")
        expansion = entropy_expansion(
            h, pump, ground_state(h), eta_grid, 1.0, n // 2, 4, TROTTER10
        )
        s2.append(expansion.coefficients[2])
    s2 = np.asarray(s2)
    gradient = np.gradient(s2, deltas)
    # the sharp feature at the phase boundary is the extremum of S^(2):
    # its location and the gradient sign change must sit inside [0.8, 1.2]
    extremum = float(deltas[np.argmin(s2)])
    assert 0.8 <= extremum <= 1.2
    sign_change = np.where(np.diff(np.sign(gradient)) != 0)[0]
    assert sign_change.size >= 1
    crossing = float(deltas[sign_change[0] + 1])
    assert 0.8 <= crossing <= 1.2
    # transparency: where the literal gradient-magnitude maximum sits
    grad_argmax = float(deltas[np.argmax(np.abs(gradient))])
    report(
        10,
        f"S_6(Delta=10) = {s_gapped:.3f} < S_6(Delta=0.4) = {s_gapless:.3f}; "
        f"S^(2) extremum at Delta = {extremum:.2f}, gradient sign change at "
        f"{crossing:.2f} (|gradient| max sits at {grad_argmax:.2f})",
    )
