from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlspec import shift_rules
from nlspec.models import build_pump, PumpSpec
from nlspec.pauli import OperatorSum, PauliTerm
from nlspec.shift_rules import (
    GAP_TOL,
    RESIDUAL_TOL,
    MultiIndex,
    ShiftRuleError,
    channel_gap_set,
    gap_set,
    rule_for_gap_set,
    rule_for_generator,
    shift_grid,
    taylor_rule,
)


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


class TestGapSet:
    def test_single_pauli(self):
        gaps = gap_set(op(4, (1.0, {3: "X"})))
        assert np.allclose(gaps.gaps, [-2, 0, 2])
        assert gaps.unit == pytest.approx(2.0)

    def test_half_z(self):
        gaps = gap_set(op(1, (0.5, {0: "Z"})))
        assert np.allclose(gaps.gaps, [-1, 0, 1])
        assert gaps.unit == pytest.approx(1.0)

    def test_two_commuting_x(self):
        gaps = gap_set(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        assert np.allclose(gaps.gaps, [-4, -2, 0, 2, 4])

    def test_symmetry_and_zero(self):
        gaps = gap_set(op(2, (0.3, {0: "X"}), (0.9, {1: "Z"})))
        assert 0.0 in gaps.gaps
        assert np.allclose(gaps.gaps, -gaps.gaps[::-1])

    def test_incommensurate_has_no_unit(self):
        gaps = gap_set(op(2, (1.0, {0: "X"}), (np.sqrt(2), {1: "X"})))
        assert gaps.unit is None

    @pytest.mark.parametrize(
        "coefficients, unit",
        [
            ((1 / 3, 1 / 3), 2 / 3),
            ((np.sqrt(2), np.sqrt(2)), 2 * np.sqrt(2)),
            ((1 / 6, 1 / 3), 1 / 3),
            ((0.5, 0.99999), 2e-5),
        ],
        ids=["third", "sqrt2", "sixth_third", "near_one"],
    )
    def test_unit_that_is_not_a_short_decimal(self, coefficients, unit):
        a, b = coefficients
        gaps = gap_set(op(2, (a, {0: "X"}), (b, {1: "X"})))
        assert gaps.unit == pytest.approx(unit, rel=1e-9)

    def test_support_scaling(self):
        # identical gaps regardless of register size
        small = gap_set(op(2, (1.0, {1: "X"})))
        large = gap_set(op(10, (1.0, {7: "X"})))
        assert np.allclose(small.gaps, large.gaps)


def eigh_route_gap_set(generator):
    """gap_set with the closed form switched off."""
    with mock.patch.object(shift_rules, "_site_disjoint", return_value=False):
        return gap_set(generator)


def assert_same_gap_set(closed, dense):
    assert len(closed) == len(dense)
    assert (closed.unit is None) == (dense.unit is None)
    if closed.unit is not None:
        assert abs(closed.unit - dense.unit) <= GAP_TOL
    assert np.max(np.abs(closed.gaps - dense.gaps)) <= GAP_TOL


def spy_on_eigh():
    """Spy on the spectral plan, the one diagonalizer behind gap sets that are
    not in closed form."""
    return mock.patch.object(shift_rules, "_spectral_plan", wraps=shift_rules._spectral_plan)


@st.composite
def site_disjoint_generators(draw):
    """Strings on disjoint sites, weights drawn to repeat and cancel."""
    n = draw(st.integers(1, 6))
    sites = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=n)) | {n})
    weights = st.sampled_from([0.5, -0.5, 1.0, -1.0, 1.5, 0.25]) | st.floats(-2, 2).filter(
        lambda c: abs(c) > 1e-3
    )
    terms, start = [], 0
    for stop in cuts:
        axes = draw(st.lists(st.sampled_from("XYZ"), min_size=stop - start, max_size=stop - start))
        terms.append((draw(weights), dict(zip(sites[start:stop], axes))))
        start = stop
    return op(n, *terms)


class TestClosedFormGapSet:
    """Site-disjoint generators skip the eigh and give the same gap set."""

    @settings(max_examples=60, deadline=None)
    @given(site_disjoint_generators())
    def test_matches_eigh_route(self, generator):
        assert_same_gap_set(gap_set(generator), eigh_route_gap_set(generator))

    @pytest.mark.parametrize(
        "generator",
        [
            op(4, (1.0, {0: "X", 2: "Y", 3: "Z"}), (-1.0, {1: "X"})),
            op(3, (0.5, {0: "X"}), (0.5, {1: "Y"}), (-0.5, {2: "Z"})),
            build_pump(PumpSpec("cosine_profile", momentum=1), 12),
        ],
        ids=["multi_site_string", "cancelling", "cosine_12"],
    )
    def test_skips_eigh(self, generator):
        with spy_on_eigh() as spy:
            closed = gap_set(generator)
        assert not spy.called
        assert_same_gap_set(closed, eigh_route_gap_set(generator))

    def test_spectra_differing_in_last_bit_share_unit(self):
        # gaps 0.99998, 1, 1.99998, 2.99998 carry different last bits on the
        # two routes; both must find the common unit 2e-5
        generator = op(4, (0.5, {0: "X", 1: "X"}), (0.99999, {2: "Z", 3: "X"}))
        closed, dense = gap_set(generator), eigh_route_gap_set(generator)
        assert_same_gap_set(closed, dense)
        assert closed.unit == pytest.approx(2e-5, rel=1e-9)

    def test_overlapping_terms_take_eigh_route(self):
        with spy_on_eigh() as spy:
            gaps = gap_set(op(1, (1.0, {0: "X"}), (1.0, {0: "Z"})))
        assert spy.called
        assert np.allclose(gaps.gaps, [-2 * np.sqrt(2), 0, 2 * np.sqrt(2)])

    def test_beyond_dense_cap(self):
        gaps = gap_set(op(14, *((0.5, {j: "X"}) for j in range(14))))
        assert np.allclose(gaps.gaps, np.arange(-14, 15))
        assert gaps.unit == pytest.approx(1.0)


class TestChannelGapSet:
    """P pulses sharing one amplitude: the P-fold sumset of the gap set."""

    def test_one_pulse_is_the_gap_set(self):
        generator = op(3, (0.5, {0: "X"}), (1.5, {1: "Z"}))
        single, channel = gap_set(generator), channel_gap_set(generator, 1)
        assert np.array_equal(channel.gaps, single.gaps) and channel.unit == single.unit

    @pytest.mark.parametrize("n_pulses", [2, 3])
    def test_pauli_pulses(self, n_pulses):
        gaps = channel_gap_set(op(2, (1.0, {0: "X"})), n_pulses)
        assert np.array_equal(gaps.gaps, 2.0 * np.arange(-n_pulses, n_pulses + 1))
        assert gaps.unit == pytest.approx(2.0)

    def test_sumset_of_two_frequencies(self):
        # eigenvalues {-2, -1, 1, 2}, gaps -4..4: the 2-fold sumset is -8..8
        gaps = channel_gap_set(op(2, (0.5, {0: "X"}), (1.5, {1: "Z"})), 2)
        assert np.allclose(gaps.gaps, np.arange(-8, 9))
        assert gaps.unit == pytest.approx(1.0)

    def test_incommensurate_stays_incommensurate(self):
        gaps = channel_gap_set(op(2, (1.0, {0: "X"}), (np.sqrt(2), {1: "X"})), 2)
        assert gaps.unit is None
        assert np.array_equal(gaps.gaps, -gaps.gaps[::-1]) and 0.0 in gaps.gaps


class TestShiftGrid:
    def test_pauli_default_is_quarter_pi(self):
        gaps = gap_set(op(1, (1.0, {0: "X"})))
        assert np.allclose(shift_grid(gaps), [-np.pi / 4, 0.0, np.pi / 4])

    def test_odd_two_point_rule(self):
        gaps = gap_set(op(1, (0.5, {0: "Z"})))
        assert np.allclose(shift_grid(gaps, mode="odd"), [-np.pi / 2, np.pi / 2])

    def test_aliased_harmonics_widen_the_grid(self):
        # 0.3 X0 + X1: 9 gaps at harmonics 0, +-3, +-7, +-10, +-13 of 0.2;
        # 3 and 13 agree mod 10, and N = 11 is the first count without a clash
        gaps = gap_set(op(2, (0.3, {0: "X"}), (1.0, {1: "X"})))
        assert gaps.unit == pytest.approx(0.2)
        grid = shift_grid(gaps)
        assert np.allclose(np.diff(grid), 2 * np.pi / gaps.unit / 11)
        assert rule_for_gap_set(gaps, [1, 2, 3]).condition_number < 20

    def test_aliased_harmonics_widen_the_odd_grid(self):
        # positive harmonics 3, 7, 10 and 13 of 0.2: 3 and 13 fold to 3 mod 8,
        # 3 and 7 to 3 mod 10, and N = 6 is the first count without a clash
        gaps = gap_set(op(2, (0.3, {0: "X"}), (1.0, {1: "X"})))
        half = np.pi * (2 * np.arange(1, 5) - 1) / (2 * 6 * gaps.unit)
        assert np.allclose(shift_grid(gaps, mode="odd"), np.concatenate([-half[::-1], half]))
        rule = rule_for_gap_set(gaps, [1, 3])
        assert rule.basis == "fourier-odd" and rule.condition_number < 10

    def test_five_gap_grid(self):
        gaps = gap_set(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        grid = shift_grid(gaps, 5)
        assert grid.size == 5
        assert np.allclose(grid, -grid[::-1])
        assert np.all(np.abs(grid) < np.pi / 2)
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0])

    def test_too_few_shifts_rejected(self):
        gaps = gap_set(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        with pytest.raises(ShiftRuleError):
            shift_grid(gaps, 3)


class TestCoefficients:
    def test_first_derivative_pauli(self):
        gaps = gap_set(op(1, (1.0, {0: "X"})))
        shifts = np.array([-np.pi / 4, 0.0, np.pi / 4])
        c, res, cond = shift_rules._solve(*shift_rules._fourier_system(gaps, shifts, 1))
        assert np.allclose(c, [-1, 0, 1], atol=1e-12)
        assert res < 1e-12

    def test_second_derivative_pauli(self):
        gaps = gap_set(op(1, (1.0, {0: "X"})))
        shifts = np.array([-np.pi / 4, 0.0, np.pi / 4])
        c, _, _ = shift_rules._solve(*shift_rules._fourier_system(gaps, shifts, 2))
        assert np.allclose(c, [2, -4, 2], atol=1e-12)

    def test_zeroth_derivative(self):
        gaps = gap_set(op(1, (1.0, {0: "X"})))
        shifts = np.array([-np.pi / 4, 0.0, np.pi / 4])
        c, _, _ = shift_rules._solve(*shift_rules._fourier_system(gaps, shifts, 0))
        assert np.allclose(c, [0, 1, 0], atol=1e-12)

    def test_odd_rule_coefficients(self):
        rule = rule_for_generator(op(1, (0.5, {0: "Z"})), [1])
        assert rule.basis == "fourier-odd"
        assert np.allclose(rule.shifts, [-np.pi / 2, np.pi / 2])
        assert np.allclose(rule.coefficients[1], [-0.5, 0.5], atol=1e-14)

    def test_an_even_order_takes_the_full_grid(self):
        for orders in ([2], [1, 2], [0, 3]):
            rule = rule_for_generator(op(1, (0.5, {0: "Z"})), orders)
            assert rule.basis == "fourier"
            assert np.allclose(rule.shifts, [-np.pi / 2, 0.0, np.pi / 2])

    def test_odd_shift_count_takes_the_full_grid(self):
        # +- pairs make even counts only
        rule = rule_for_gap_set(gap_set(op(1, (0.5, {0: "Z"}))), [1], n_shifts=5)
        assert (rule.basis, rule.n_shifts) == ("fourier", 5)

    def test_degenerate_shifts_rejected(self):
        gaps = gap_set(op(1, (1.0, {0: "X"})))
        with pytest.raises(ShiftRuleError):
            shift_rules._solve(*shift_rules._fourier_system(gaps, np.array([0.0, 0.0, np.pi / 4]), 1))


def band_limited_signal(gaps, seed):
    """Random real signal with Fourier support exactly on the gap set."""
    rng = np.random.default_rng(seed)
    pos = gaps[gaps > 0]
    a0 = rng.normal()
    coeffs = rng.normal(size=pos.size) + 1j * rng.normal(size=pos.size)

    def f(eta):
        return a0 + 2 * np.real(np.sum(coeffs * np.exp(1j * pos * eta)))

    def derivative(r):
        if r == 0:
            return f(0.0)
        return 2 * np.real(np.sum(coeffs * (1j * pos) ** r))

    return f, derivative


class TestReconstruction:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 5))
    def test_exact_on_band_limited(self, seed, order):
        gen = op(2, (1.0, {0: "X"}), (1.0, {1: "X"}))
        gaps = gap_set(gen)
        rule = rule_for_generator(gen, [order])
        f, derivative = band_limited_signal(gaps.gaps, seed)
        samples = [f(s) for s in rule.shifts]
        value = float(np.dot(rule.coefficients[order], samples))
        scale = max(1.0, abs(derivative(order)))
        assert abs(value - derivative(order)) < 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 10), min_size=1, max_size=3),
        st.integers(0, 10_000),
        st.integers(0, 3),
    )
    def test_commensurate_site_disjoint_pumps_solve(self, tenths, seed, order):
        # coefficients in tenths skip harmonics of the gap unit: 0.3 X0 + X1
        # has harmonics 0, 3, 7, 10 and 13 of 0.2, two of them equal mod M + 1
        # and two with equal folded residues mod 2K; odd orders take the +-
        # grid, even ones the full grid
        gen = op(len(tenths), *((k / 10, {i: "X"}) for i, k in enumerate(tenths)))
        gaps = gap_set(gen)
        assert gaps.unit is not None
        rule = rule_for_generator(gen, [order])
        f, derivative = band_limited_signal(gaps.gaps, seed)
        value = float(np.dot(rule.coefficients[order], [f(s) for s in rule.shifts]))
        assert abs(value - derivative(order)) < 1e-9 * max(1.0, abs(derivative(order)))

    def test_cos_examples(self):
        rule = rule_for_generator(op(1, (1.0, {0: "X"})), [1, 2])
        samples_cos = np.cos(2 * rule.shifts)
        samples_sin = np.sin(2 * rule.shifts)
        assert abs(float(np.dot(rule.coefficients[1], samples_cos))) < 1e-12
        assert float(np.dot(rule.coefficients[1], samples_sin)) == pytest.approx(2.0)
        assert float(np.dot(rule.coefficients[2], samples_cos)) == pytest.approx(-4.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_odd_rule_exact_on_band_limited(self, seed, half_order):
        order = 2 * half_order - 1
        gen = op(1, (0.5, {0: "Z"}))
        gaps = gap_set(gen)
        rule = rule_for_generator(gen, [order])
        assert rule.basis == "fourier-odd"
        f, derivative = band_limited_signal(gaps.gaps, seed)
        samples = [f(s) for s in rule.shifts]
        value = float(np.dot(rule.coefficients[order], samples))
        assert abs(value - derivative(order)) < 1e-12 * max(1.0, abs(derivative(order)))


class TestOddRuleAtTheFloor:
    """All-odd orders take the +- grid, whose l1 norm is the shot-noise factor
    of the rule; on gaps that are the harmonics 1..K of one unit it reaches
    w_max^n, the floor of every exact rule."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.sampled_from([1, -1]), st.sampled_from("XYZ")),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0.3, 0.5, 1.0, 1.7]),
        st.sampled_from([1, 3, 5]),
    )
    def test_l1_norm_is_the_floor(self, terms, scale, order):
        gen = op(len(terms), *((s * k * scale, {i: a}) for i, (k, s, a) in enumerate(terms)))
        gaps = gap_set(gen)
        assert gaps.unit is not None
        harmonics = gaps.positive / gaps.unit
        assume(np.allclose(harmonics, np.arange(1, harmonics.size + 1)))
        rule = rule_for_gap_set(gaps, [order])
        assert rule.basis == "fourier-odd" and rule.residuals[order] <= RESIDUAL_TOL
        floor = gaps.max_gap**order
        assert abs(rule.l1_norm(order) - floor) <= 1e-12 * floor

    @pytest.mark.parametrize(
        "coefficients", [(-1.6, 1.1, -1.8, -1.5), (0.5, -1.9, 0.2, -1.9)], ids=["cond", "real"]
    )
    def test_unsolvable_pairs_fall_back_to_the_full_grid(self, coefficients):
        # the +- system fails the condition limit (1.5e8) and the realness
        # check (at condition 2.4e7); the full grid solves both exactly
        gen = op(4, *((c, {i: "X"}) for i, c in enumerate(coefficients)))
        gaps = gap_set(gen)
        odd = shift_rules._fourier_system(gaps, shift_grid(gaps, mode="odd"), 1)
        with pytest.raises(ShiftRuleError):
            shift_rules._solve(*odd)
        rule = rule_for_generator(gen, [1])
        assert (rule.basis, rule.n_shifts) == ("fourier", len(gaps))
        f, derivative = band_limited_signal(gaps.gaps, 3)
        value = float(np.dot(rule.coefficients[1], [f(s) for s in rule.shifts]))
        assert abs(value - derivative(1)) < 1e-9 * max(1.0, abs(derivative(1)))


class TestTaylorRule:
    def test_exact_on_polynomials(self):
        rule = taylor_rule(range(8), 8, 0.2)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=8)
        poly = np.polynomial.Polynomial(coeffs)
        for r in range(8):
            samples = poly(rule.shifts)
            target = poly.deriv(r)(0.0) if r else poly(0.0)
            value = float(np.dot(rule.coefficients[r], samples))
            assert abs(value - target) < 1e-8 * max(1.0, abs(target))

    def test_higher_orders_vanish_on_low_degree(self):
        rule = taylor_rule(range(6), 6, 0.3)
        poly = np.polynomial.Polynomial([0.4, -1.2, 0.8])  # degree 2
        for r in (3, 4, 5):
            value = float(np.dot(rule.coefficients[r], poly(rule.shifts)))
            assert abs(value) < 1e-10

    def test_order_needs_enough_points(self):
        with pytest.raises(ShiftRuleError):
            taylor_rule([5], 4, 0.2)

    def test_past_condition_limit_rejected(self):
        # 20 equispaced points make a Vandermonde system of condition ~3e8
        with pytest.raises(ShiftRuleError, match="condition number"):
            taylor_rule([1], 20, 0.2)


@st.composite
def kick_generators(draw):
    """Up to three strings on up to three sites, disjoint or overlapping."""
    n = draw(st.integers(1, 3))
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), min_size=1)
    weights = st.sampled_from([0.5, -0.5, 1.0, 1.5, -2.0, 0.3])
    return op(n, *draw(st.lists(st.tuples(weights, strings), min_size=1, max_size=3)))


class TestExactParity:
    """Antisymmetric shifts and a symmetric gap set give weights of exact
    parity, c[::-1] = (-1)^r c, on every grid."""

    @settings(max_examples=80, deadline=None)
    @given(
        kick_generators(),
        st.sampled_from(["fourier", "odd", "taylor"]),
        st.sets(st.integers(0, 4), min_size=1),
        st.integers(5, 8),
        st.floats(0.05, 1.0),
    )
    def test_parity_is_exact(self, generator, mode, orders, n_taylor, scale):
        gaps = gap_set(generator)
        try:
            if mode == "taylor":
                rule = taylor_rule(orders, n_taylor, scale)
            elif mode == "odd":
                rule = rule_for_gap_set(gaps, {2 * r + 1 for r in orders})
            else:
                rule = rule_for_gap_set(gaps, orders)
        except ShiftRuleError:
            # only an incommensurate spectrum may fail: it has no odd grid,
            # and its Chebyshev grid rarely solves
            if gaps.unit is not None:
                raise
            assume(False)
        shifts = rule.shifts
        assert np.all(shifts[::-1] == -shifts)
        for r, c in rule.coefficients.items():
            assert np.all(c[::-1] == (-1) ** r * c)
            if r % 2:
                assert np.all(c[shifts == 0.0] == 0.0)

    def test_grids_made_antisymmetric(self):
        # linspace and Chebyshev grids round asymmetrically until _rule fixes them
        incommensurate = gap_set(op(2, (1.0, {0: "X"}), (np.sqrt(2), {1: "X"})))
        for rule in (taylor_rule([1], 7, 0.3), rule_for_gap_set(incommensurate, [1])):
            assert np.all(rule.shifts[::-1] == -rule.shifts)
        commensurate = gap_set(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        for orders, mode in (([2], "full"), ([1], "odd")):
            rule = rule_for_gap_set(commensurate, orders)
            assert np.array_equal(rule.shifts, shift_grid(commensurate, mode=mode))


class TestIncommensurate:
    def test_chebyshev_fallback_solves(self):
        gen = op(2, (1.0, {0: "X"}), (np.sqrt(2), {1: "X"}))
        gaps = gap_set(gen)
        assert gaps.unit is None
        rule = rule_for_generator(gen, [1, 2])
        f, derivative = band_limited_signal(gaps.gaps, 11)
        for r in (1, 2):
            samples = [f(s) for s in rule.shifts]
            value = float(np.dot(rule.coefficients[r], samples))
            assert abs(value - derivative(r)) < 1e-7 * max(1.0, abs(derivative(r)))


class TestMultiIndex:
    def test_order_and_support(self):
        beta = MultiIndex([2, 0, 3])
        assert beta.support == (0, 2)
        assert beta.factorial_product == 12

    def test_total_order_zero(self):
        # the unperturbed signal: no active channel and no factorial to divide
        beta = MultiIndex([0, 0])
        assert (beta.support, beta.factorial_product) == ((), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            MultiIndex([1, -1])

    def test_norms_recorded(self):
        rule = rule_for_generator(op(1, (1.0, {0: "X"})), [1, 2])
        assert rule.l1_norm(1) == pytest.approx(2.0)
        assert rule.l2_norm_squared(1) == pytest.approx(2.0)
        assert rule.l2_norm_squared(2) == pytest.approx(24.0)
