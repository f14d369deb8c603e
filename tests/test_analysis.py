import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspec.analysis import (
    _CONTRAST_FLOOR,
    AnalysisError,
    PointCloud2D,
    contrast_ratio,
    correlator_order_expansion,
    entanglement_entropy,
    entropy_expansion,
    pca_slope,
    pump_probe_correlator,
    third_order_2dos,
)
from nlspec.evolution import EXACT, Evolver, apply_kick, evolve
from nlspec.models import (
    PumpSpec,
    ToricLattice,
    build_pump,
    build_spin_boson,
    build_tls_dimer,
    build_toric_code,
    build_xxz,
    ground_state,
)
from nlspec.pauli import OperatorSum, PauliTerm, apply_operator
from nlspec.shift_rules import rule_for_generator


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return amps


class TestEntropy:
    def test_product_state_zero(self):
        psi = basis_state(4, 5)
        for d in (1, 2, 3):
            assert entanglement_entropy(psi, d) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert entanglement_entropy(bell, 1) == pytest.approx(np.log(2), abs=1e-12)

    def test_ghz_half(self):
        amps = np.zeros(16)
        amps[0] = amps[15] = 1 / np.sqrt(2)
        assert entanglement_entropy(amps, 2) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_complement_symmetry(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi = amps / np.linalg.norm(amps)
        # the bit-reversed state: its first sites are psi's last ones
        mirrored = psi.reshape((2,) * 5).transpose().reshape(-1)
        for d in (1, 2):
            left = entanglement_entropy(psi, d)
            right = entanglement_entropy(mirrored, 5 - d)
            assert left == pytest.approx(right, abs=1e-10)
            top = entanglement_entropy(mirrored, d)
            assert entanglement_entropy(psi, 5 - d) == pytest.approx(top, abs=1e-10)

    def test_invalid_block(self):
        with pytest.raises(AnalysisError):
            entanglement_entropy(basis_state(3, 0), 3)
        with pytest.raises(AnalysisError):
            entanglement_entropy(basis_state(3, 0), 0)
        # 12 amplitudes are no register of qubits
        with pytest.raises(AnalysisError):
            entanglement_entropy(np.full(12, 12**-0.5), 2)

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
    def test_block_outside_register(self, block):
        # blocks on both sides of n / 2 = 3 fit, through both the reduced
        # density matrix and the Gram-matrix branch; moved by the register
        # size either way, they do not
        psi = basis_state(6, 0)
        for size in (block - 6, block + 6):
            with pytest.raises(AnalysisError, match=r"block size must be in \[1, 5\]"):
                entanglement_entropy(psi, size)
        assert entanglement_entropy(psi, block) == pytest.approx(0.0, abs=1e-12)


class TestEntropyExpansion:
    def test_zero_pump(self):
        h = build_xxz(4, 1.0, 0.3)
        psi = ground_state(h)
        pump = OperatorSum((), 4)
        exp = entropy_expansion(h, pump, psi, np.linspace(-0.1, 0.1, 5), 1.0, 2, 3)
        assert np.max(np.abs(exp.coefficients[1:])) < 1e-10

    def test_recovers_synthetic_quadratic(self):
        # fit quality check on synthetic data through the same solver
        etas = np.linspace(-0.5, 0.5, 9)
        s = 0.7 + 1.3 * etas**2
        design = np.vander(etas, 4, increasing=True)
        coeffs, *_ = np.linalg.lstsq(design, s, rcond=None)
        assert coeffs[2] == pytest.approx(1.3, abs=1e-10)
        assert abs(coeffs[1]) < 1e-10

    def test_parity_kills_odd_orders(self):
        h = build_xxz(4, 0.9, 0.0)
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=1), 4)
        exp = entropy_expansion(
            h, pump, psi, np.linspace(-0.2, 0.2, 9), 1.0, 2, 4, EXACT
        )
        assert abs(exp.coefficients[1]) < 1e-6
        assert abs(exp.coefficients[3]) < 1e-4

    def test_asymmetric_grid_rejected(self):
        h = build_xxz(3, 1.0, 0.0)
        psi = ground_state(h)
        pump = op(3, (1.0, {0: "X"}))
        with pytest.raises(AnalysisError):
            entropy_expansion(h, pump, psi, [0.0, 0.1, 0.2], 1.0, 1, 2)

    def test_entropies_match_kick_and_evolve(self):
        h = build_xxz(4, 0.8, 0.1)
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=1), 4)
        etas = np.linspace(-0.2, 0.2, 5)
        exp = entropy_expansion(h, pump, psi, etas, 0.9, 2, 4)
        for eta, entropy in zip(etas, exp.entropies):
            state = evolve(h, apply_kick(pump, float(eta), psi), 0.9)
            assert entropy == entanglement_entropy(state, 2)
        assert not exp.entropies.flags.writeable

    def test_initial_state_checked(self):
        h = build_xxz(3, 1.0, 0.4)
        pump = op(3, (1.0, {0: "X"}))
        # a block of normalized states is refused too, even with one column
        # per grid amplitude: it is no initial state
        block = np.stack([basis_state(3, k) for k in (0, 5, 6)], axis=1)
        for psi0 in (np.ones(8), basis_state(2, 0), block):
            with pytest.raises(ValueError, match="psi0"):
                entropy_expansion(h, pump, psi0, [-0.1, 0.0, 0.1], 1.0, 1, 2)

    def test_local_kick_leaves_entropy_unchanged(self):
        # a sum of single-site rotations is a product unitary: at t = 0 the
        # expansion beyond order zero must vanish identically
        h = build_xxz(4, 0.7, 0.2)
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=1), 4)
        exp = entropy_expansion(h, pump, psi, np.linspace(-0.3, 0.3, 7), 0.0, 2, 4)
        assert np.max(np.abs(exp.coefficients[1:])) < 1e-9


@pytest.fixture(scope="module")
def toric():
    h = build_toric_code(2, 2, 1.0, 1.0)
    return h, ground_state(h), ToricLattice(2, 2)


class TestPumpProbe:
    def test_eta_zero_plain_correlator(self, toric):
        h, psi, lat = toric
        star = lat.star_edges(0, 0)
        p1 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[:2]}),), 8)
        p2 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[2:]}),), 8)
        pump = OperatorSum((PauliTerm(1.0, {star[0]: "Z"}),), 8)
        c = pump_probe_correlator(h, pump, p1, p2, 0.0, 0.0, 0.0, psi)
        assert c == pytest.approx(1.0, abs=1e-12)  # probes compose to a stabilizer

    def test_commuting_pump_leaves_correlator(self, toric):
        h, psi, lat = toric
        star = lat.star_edges(0, 0)
        p1 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[:2]}),), 8)
        p2 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[2:]}),), 8)
        pump = OperatorSum((PauliTerm(1.0, {lat.h_edge(0, 1): "Z"}),), 8)
        c0 = pump_probe_correlator(h, pump, p1, p2, 0.8, 1.1, 0.0, psi)
        for eta in (0.3, 1.2):
            c = pump_probe_correlator(h, pump, p1, p2, 0.8, 1.1, eta, psi)
            assert abs(c - c0) < 1e-12

    def test_anticommuting_pump_flips_sign_at_pi_over_2(self, toric):
        h, psi, lat = toric
        star = lat.star_edges(0, 0)
        p1 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[:2]}),), 8)
        p2 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[2:]}),), 8)
        pump = OperatorSum((PauliTerm(1.0, {star[0]: "Z"}),), 8)
        c0 = pump_probe_correlator(h, pump, p1, p2, 0.7, 1.3, 0.0, psi)
        ck = pump_probe_correlator(h, pump, p1, p2, 0.7, 1.3, np.pi / 2, psi)
        assert ck == pytest.approx(-c0, abs=1e-12)


    def test_initial_state_checked(self):
        # an unnormalized or wrong-length psi0 is rejected, not turned into
        # a plausible complex number
        h = build_xxz(3, 1.0, 0.4)
        pump = op(3, (1.0, {0: "X"}))
        probe = op(3, (1.0, {1: "X"}))
        block = np.stack([basis_state(3, 0), basis_state(3, 5)], axis=1)
        for psi0 in (np.ones(8), basis_state(2, 0), block):
            with pytest.raises(ValueError, match="psi0"):
                pump_probe_correlator(h, pump, probe, probe, 0.5, 0.5, 0.1, psi0)


class TestPumpProbeBlock:
    """A (K,) amplitude array gives the K scalar correlators."""

    @staticmethod
    def assert_block_matches(h, pump, p1, p2, psi, etas, evolver=EXACT):
        block = pump_probe_correlator(h, pump, p1, p2, 0.6, 0.9, etas, psi, evolver)
        scalars = [pump_probe_correlator(h, pump, p1, p2, 0.6, 0.9, e, psi, evolver) for e in etas]
        assert block.shape == (len(etas),)
        assert all(isinstance(c, complex) for c in scalars)
        assert np.max(np.abs(block - np.array(scalars))) < 1e-12

    def test_toric_exact(self, toric):
        h, psi, lat = toric
        star = lat.star_edges(0, 0)
        p1 = OperatorSum((PauliTerm(1.0, {e: "X" for e in star[:2]}),), 8)
        p2 = OperatorSum((PauliTerm(1.0, {star[2]: "Z", star[3]: "Z"}),), 8)
        pump = build_pump(PumpSpec("cosine_profile", axis="Y", momentum=0, sites=(0, 2, 3, 4)), 8)
        rule = rule_for_generator(pump, [1, 3, 5])
        self.assert_block_matches(h, pump, p1, p2, psi, [*rule.shifts, 0.0, np.pi / 2])

    @pytest.mark.parametrize(
        "pump",
        [
            op(4, (1.0, {0: "X"}), (0.5, {2: "X"})),
            op(4, (1.0, {0: "X"}), (1.0, {0: "Z"})),  # support-eigenbasis kick
        ],
        ids=["product", "support"],
    )
    def test_xxz_trotter(self, pump):
        h = build_xxz(4, 0.7, 0.2)
        psi = ground_state(h)
        p1 = op(4, (1.0, {1: "X"}))
        p2 = op(4, (1.0, {3: "Y"}))
        etas = [0.0, 0.3, -1.1, 0.0, 2.4]
        self.assert_block_matches(h, pump, p1, p2, psi, etas, Evolver("trotter1", 5))


def toric_degenerate():
    # g < 0: a 4-fold degenerate ground space, solved by the dense eigh
    h = build_toric_code(2, 2, 1.0, -0.5)
    pump = build_pump(PumpSpec("cosine_profile", axis="Y", momentum=0, sites=(0, 2, 3, 4)), 8)
    return h, pump, op(8, (1.0, {0: "X"})), op(8, (1.0, {0: "Z"})), EXACT


def xxz_sector():
    # 10 sites: exact evolution takes the magnetization-sector route
    h = build_xxz(10, 0.6, 0.2)
    return h, op(10, (1.0, {4: "X"})), op(10, (1.0, {5: "X"})), op(10, (1.0, {3: "Y"})), EXACT


def xxz_trotter():
    h = build_xxz(4, 0.7, 0.2)
    pump = op(4, (1.0, {0: "X"}), (0.5, {2: "X"}))
    return h, pump, op(4, (1.0, {1: "X"})), op(4, (1.0, {3: "Y"})), Evolver("trotter1", 5)


class TestPumpProbeGrid:
    """(T1,) and (T2,) time grids give (T1, T2[, K]) values, bitwise equal to
    one call per cell and to the kick / evolve / probe formula."""

    T1 = np.array([0.0, 0.25, 0.67, 1.3])
    T2 = np.array([0.0, 0.4, 2.35])

    @staticmethod
    def formula(h, pump, p1, p2, t1, t2, eta, psi, evolver):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 1:
            psi = np.repeat(psi[:, None], eta.size, axis=1)
        phi = apply_kick(pump, eta, psi)
        bra = evolve(h, phi, t1 + t2, evolver)
        ket = evolve(h, apply_operator(p1, evolve(h, phi, t1, evolver)), t2, evolver)
        return (bra.conj() * apply_operator(p2, ket)).sum(axis=0)

    @pytest.mark.parametrize("case", [toric_degenerate, xxz_sector, xxz_trotter])
    def test_grid_equals_cells_and_formula(self, case):
        h, pump, p1, p2, evolver = case()
        psi = ground_state(h)
        etas = np.append(rule_for_generator(pump, [1, 3]).shifts, [0.0, np.pi / 2])
        grid = pump_probe_correlator(h, pump, p1, p2, self.T1, self.T2, etas, psi, evolver)
        assert grid.shape == (self.T1.size, self.T2.size, etas.size)
        for i, t1 in enumerate(self.T1):
            for j, t2 in enumerate(self.T2):
                t1, t2 = float(t1), float(t2)
                cell = pump_probe_correlator(h, pump, p1, p2, t1, t2, etas, psi, evolver)
                assert np.array_equal(grid[i, j], cell)
                expected = self.formula(h, pump, p1, p2, t1, t2, etas, psi, evolver)
                assert np.array_equal(grid[i, j], expected)

    def test_scalar_amplitude_and_mixed_shapes(self):
        h, pump, p1, p2, evolver = toric_degenerate()
        psi = ground_state(h)
        grid = pump_probe_correlator(h, pump, p1, p2, self.T1, self.T2, 0.3, psi, evolver)
        assert grid.shape == (self.T1.size, self.T2.size)
        for i, t1 in enumerate(self.T1):
            for j, t2 in enumerate(self.T2):
                expected = self.formula(h, pump, p1, p2, t1, t2, 0.3, psi, evolver)
                assert np.array_equal(grid[i, j], expected)
        row = pump_probe_correlator(h, pump, p1, p2, self.T1, 0.4, 0.3, psi, evolver)
        assert np.array_equal(row, grid[:, 1])
        column = pump_probe_correlator(h, pump, p1, p2, 0.25, self.T2, [0.3, 0.0], psi, evolver)
        assert column.shape == (self.T2.size, 2)

    def test_one_kick_per_grid(self, monkeypatch):
        from nlspec import analysis

        kicks = []

        def counting_kick(*args, **kwargs):
            kicks.append(np.shape(args[1]))
            return apply_kick(*args, **kwargs)

        monkeypatch.setattr(analysis, "apply_kick", counting_kick)
        h, pump, p1, p2, evolver = toric_degenerate()
        etas = [0.0, 0.3, np.pi / 2]
        pump_probe_correlator(h, pump, p1, p2, self.T1, self.T2, etas, ground_state(h), evolver)
        assert kicks == [(3,)]


class TestContrastRatio:
    def test_equal_gives_zero(self):
        assert contrast_ratio(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_sign_flip_gives_minus_two(self):
        assert contrast_ratio(-0.5, 0.5) == pytest.approx(-2.0)

    def test_quarter_rotation(self):
        assert contrast_ratio(0.5j, 0.5) == pytest.approx(-1.0 + 1.0j)

    def test_nan_at_and_below_the_floor(self):
        # |C(0)| <= 1e-10 gives NaN + NaNj; just above it, the ratio
        at, above = _CONTRAST_FLOOR, np.nextafter(_CONTRAST_FLOOR, 1.0)
        values = contrast_ratio([1.0, 1.0, 1.0, 0.5j], [1e-12, at * 1j, above, 0.5])
        assert np.isnan(values.real[:2]).all() and np.isnan(values.imag[:2]).all()
        assert np.isfinite(values[2:]).all()
        assert values[2] == 1.0 / above - 1.0 and values[3] == -1.0 + 1.0j
        assert np.isnan(contrast_ratio(1.0, at))

    def test_grid_matches_each_cell(self):
        # the per-cell quotient, to the bit, in every cell of a grid
        rng = np.random.default_rng(3)
        c_kappa, c_zero = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        grid = contrast_ratio(c_kappa, c_zero)
        assert grid.shape == (3, 4)
        for cell in np.ndindex(3, 4):
            assert grid[cell] == complex(c_kappa[cell] / c_zero[cell] - 1.0)


class TestOrderExpansion:
    def test_constant_correlator(self):
        rule = rule_for_generator(op(1, (1.0, {0: "X"})), [0, 1, 2, 3])
        out = correlator_order_expansion(
            np.full(rule.n_shifts, 0.7 - 0.2j), rule, [1, 2, 3], 0.4
        )
        for n in (1, 2, 3):
            assert abs(out[n]) < 1e-12

    def test_pure_phase_correlator(self):
        # C(eta) = exp(2 i eta) C0: C^(n) = (2 i eta)^n / n! C0
        rule = rule_for_generator(op(1, (1.0, {0: "X"})), [0, 1, 2])
        c0 = 0.8 - 0.3j
        out = correlator_order_expansion(np.exp(2j * rule.shifts) * c0, rule, [1, 2], 0.25)
        assert out[1] == pytest.approx((2j * 0.25) * c0, abs=1e-12)
        assert out[2] == pytest.approx((2j * 0.25) ** 2 / 2 * c0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), ()])
    def test_grid_matches_each_cell_byte_for_byte(self, shape):
        # a grid of cells, one of them all zero, rounds as each cell does
        # alone, and as the scalar complex arithmetic does
        rule = rule_for_generator(op(3, (1.0, {0: "X"}), (0.5, {1: "X"}), (0.25, {2: "X"})), range(6))
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(*shape, rule.n_shifts, 2)) @ [1.0, 1j]
        samples[(0,) * len(shape)] = 0.0
        orders, eta = [1, 2, 3, 5], 0.3
        out = correlator_order_expansion(samples, rule, orders, eta)
        for cell in np.ndindex(shape):
            alone = correlator_order_expansion(samples[cell], rule, orders, eta)
            s = samples[cell]
            for n in orders:
                c = rule.coefficients[n]
                scalar = complex(np.dot(c, s.real), np.dot(c, s.imag)) * eta**n / math.factorial(n)
                assert out[n].shape == shape and alone[n].shape == ()
                assert out[n][cell].tobytes() == alone[n].tobytes()
                assert out[n][cell].tobytes() == np.complex128(scalar).tobytes()


class TestPCASlope:
    def test_exact_line(self):
        x = np.linspace(-1, 1, 20)
        assert pca_slope(PointCloud2D(np.column_stack([x, 2 * x]))) == pytest.approx(2.0)

    def test_negative_slope_with_offset(self):
        x = np.linspace(0, 4, 15)
        cloud = PointCloud2D(np.column_stack([x, -x + 3]))
        assert pca_slope(cloud) == pytest.approx(-1.0)

    def test_covariance_eigvector(self):
        rng = np.random.default_rng(12)
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        pts = rng.multivariate_normal([0, 0], cov, size=40_000)
        slope = pca_slope(PointCloud2D(pts))
        assert slope == pytest.approx(1.0, abs=0.05)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.1, 50.0),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    def test_invariances(self, scale, dx, dy):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 2)) @ np.array([[1.0, 0.4], [0.0, 0.3]])
        base = pca_slope(PointCloud2D(pts))
        moved = pca_slope(PointCloud2D(pts * scale + np.array([dx, dy])))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_vertical_returns_inf(self):
        pts = np.column_stack([np.zeros(10), np.linspace(-1, 1, 10)])
        assert pca_slope(PointCloud2D(pts)) == np.inf

    def test_isotropic_rejected(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(AnalysisError):
            pca_slope(PointCloud2D(pts))


@st.composite
def two_dos_instances(draw):
    """A random TLS dimer or spin-boson model with a random initial state, a
    uniform pump on sites 0 and 1 along a random axis, a random observable,
    and (t1, t3) grids drawn with repeats, in any order, zeros included."""
    omega = st.floats(0.3, 2.0)
    coupling = st.one_of(st.floats(-0.8, -0.2), st.floats(0.2, 0.8))
    if draw(st.booleans()):
        h = build_tls_dimer(draw(omega), draw(omega), draw(coupling))
    else:
        h = build_spin_boson(draw(omega), draw(omega), draw(omega), draw(coupling))
    n = h.n_sites
    axis = st.sampled_from("XYZ")
    pump_axis, strength = draw(axis), draw(st.floats(0.5, 1.5))
    pump = op(n, (strength, {0: pump_axis}), (strength, {1: pump_axis}))
    observable = op(n, *((draw(st.floats(0.5, 1.5)), {i: draw(axis)}) for i in range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    time = st.one_of(st.sampled_from([0.0, 0.45, 1.1]), st.floats(0.0, 2.5))
    t_2 = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.5)))
    t1s = draw(st.lists(time, min_size=1, max_size=5))
    t3s = draw(st.lists(time, min_size=1, max_size=4))
    return h, pump, observable, psi / np.linalg.norm(psi), t_2, t1s, t3s


class TestThirdOrder2DOS:
    def test_commuting_pump_zero(self):
        h = op(2, (0.5, {0: "Z"}), (0.7, {1: "Z"}))
        psi = ground_state(h)
        pump = op(2, (1.0, {0: "Z"}))
        a = op(2, (1.0, {0: "Z"}), (1.0, {1: "Z"}))
        grid = np.linspace(0.3, 1.5, 3)
        s3 = third_order_2dos(h, a, pump, 0.5, grid, grid, psi, EXACT, "shift_rule")
        assert np.max(np.abs(s3)) < 1e-12

    @pytest.mark.parametrize("model", ["dimer", "shared_mode"])
    def test_shift_rule_matches_oracle(self, model):
        if model == "dimer":
            h = build_tls_dimer(0.5, 1.0, 0.8)
            pump = build_pump(PumpSpec("cosine_profile", momentum=0), 2)
            a = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        else:
            h = build_spin_boson(2.64, 3.20, 0.04, 0.05)
            pump = build_pump(PumpSpec("cosine_profile", momentum=0, sites=(0, 1)), 3)
            a = op(3, (1.0, {0: "X"}), (1.0, {1: "X"}))
        psi = ground_state(h)
        grid = np.linspace(0.4, 2.8, 4)
        g = third_order_2dos(h, a, pump, 0.5, grid, grid, psi, EXACT, "shift_rule")
        o = third_order_2dos(h, a, pump, 0.5, grid, grid, psi, EXACT, "oracle")
        assert np.max(np.abs(g - o)) < 1e-8

    @pytest.mark.parametrize(
        "t1_start, t_2", [(0.0, 0.5), (0.4, 0.0)], ids=["t1_from_zero", "t2_zero"]
    )
    def test_coincident_pulses_match_oracle(self, t1_start, t_2):
        # rows with coincident pulses take the commutator fallback
        h = build_tls_dimer(0.5, 1.0, 0.8)
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=0), 2)
        a = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        t1s = np.linspace(t1_start, t1_start + 2.4, 4)
        t3s = np.linspace(0.0, 2.4, 5)  # t3 = 0 reads out at the last kick
        g = third_order_2dos(h, a, pump, t_2, t1s, t3s, psi, EXACT, "shift_rule")
        o = third_order_2dos(h, a, pump, t_2, t1s, t3s, psi, EXACT, "oracle")
        assert np.max(np.abs(o)) > 1e-3
        assert np.max(np.abs(g - o)) < 1e-8

    def test_noncommuting_pump_matches_oracle(self):
        h = build_tls_dimer(0.5, 1.0, 0.8)
        psi = ground_state(h)
        pump = op(2, (1.0, {0: "X"}), (1.0, {0: "Z"}))
        a = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        grid = np.linspace(0.4, 2.8, 4)
        g = third_order_2dos(h, a, pump, 0.5, grid, grid, psi, EXACT, "shift_rule")
        o = third_order_2dos(h, a, pump, 0.5, grid, grid, psi, EXACT, "oracle")
        assert np.max(np.abs(o)) > 1e-3
        assert np.max(np.abs(g - o)) < 1e-8

    @pytest.mark.parametrize("evolver", [EXACT, Evolver("trotter1", 3)], ids=["exact", "trotter1"])
    @settings(max_examples=15, deadline=None)
    @given(instance=two_dos_instances())
    def test_two_passes_match_oracle(self, evolver, instance):
        # unsorted and duplicated t1 grids, t1 = 0 rows, t3 = 0 readouts at
        # the last kick, and t2 = 0, where every row takes the oracle's route
        h, pump, observable, psi, t_2, t1s, t3s = instance
        g = third_order_2dos(h, observable, pump, t_2, t1s, t3s, psi, evolver, "shift_rule")
        o = third_order_2dos(h, observable, pump, t_2, t1s, t3s, psi, evolver, "oracle")
        assert g.shape == (len(t1s), len(t3s))
        assert np.max(np.abs(g - o)) < 1e-8

    def test_two_driven_states_passes(self, monkeypatch):
        from nlspec import analysis, evolution

        calls = []
        for module in (analysis, evolution):
            original = module.driven_states

            def counting(*args, _original=original, **kwargs):
                calls.append(np.shape(args[2]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "driven_states", counting)
        monkeypatch.setattr(analysis, "nested_commutator_series", None)
        h = build_tls_dimer(0.5, 1.0, 0.8)
        pump = build_pump(PumpSpec("cosine_profile", momentum=0), 2)
        a = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        grid = np.linspace(0.4, 2.8, 14)
        third_order_2dos(h, a, pump, 0.5, grid, grid, ground_state(h), EXACT, "shift_rule")
        # the distinct first shifts that carry weight (the one at 0 weighs
        # exactly 0.0), then every (t1, configuration) pair
        weights = rule_for_generator(pump, [1]).coefficients[1]
        assert calls[0] == (np.count_nonzero(weights), 1) == (weights.size - 1, 1)
        assert len(calls) == 2 and calls[1][0] % 14 == 0

    def test_trotter_consistency_between_paths(self):
        h = build_tls_dimer(0.5, 1.0, 0.8)
        psi = ground_state(h)
        pump = build_pump(PumpSpec("cosine_profile", momentum=0), 2)
        a = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        grid = np.linspace(0.5, 2.0, 3)
        trotter = Evolver("trotter1", 6)
        g = third_order_2dos(h, a, pump, 0.4, grid, grid, psi, trotter, "shift_rule")
        o = third_order_2dos(h, a, pump, 0.4, grid, grid, psi, trotter, "oracle")
        assert np.max(np.abs(g - o)) < 1e-10
