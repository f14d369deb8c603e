import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlspec.pauli import (
    DimensionCapError,
    HermiticityError,
    OperatorSum,
    PauliTerm,
    apply_operator,
    commutator_norm,
    dense_block,
    eigendecompose,
    expectation,
    flip_diagonals,
    partial_trace,
    strings_commute,
    terms_commute_pairwise,
    to_dense,
)


def op(n, *terms):
    return OperatorSum(tuple(PauliTerm(c, f) for c, f in terms), n)


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return amps


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_operator(n, n_terms, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(n, size=rng.integers(1, min(3, n) + 1), replace=False)
        factors = {int(s): "XYZ"[rng.integers(3)] for s in sites}
        terms.append(PauliTerm(float(rng.normal()), factors))
    return OperatorSum(tuple(terms), n)


class TestPauliTerm:
    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, [(0, "X"), (0, "Y")])

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, {0: "Q"})

    def test_factor_ordering_canonical(self):
        a = PauliTerm(1.0, {3: "X", 1: "Z"})
        assert a.factors == ((1, "Z"), (3, "X"))


class TestOperatorSum:
    def test_duplicates_merged(self):
        o = op(2, (1.0, {0: "X"}), (2.0, {0: "X"}))
        assert len(o.terms) == 1
        assert o.terms[0].coefficient == 3.0

    def test_tiny_coefficients_pruned(self):
        o = op(2, (1e-16, {0: "X"}), (1.0, {1: "Z"}))
        assert len(o.terms) == 1

    def test_cancellation_prunes(self):
        o = op(2, (1.0, {0: "X"}), (-1.0, {0: "X"}))
        assert len(o.terms) == 0

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            op(2, (1.0, {5: "X"}))

    def test_support(self):
        o = op(5, (1.0, {0: "X", 3: "Z"}), (0.5, {1: "Y"}))
        assert o.support == (0, 1, 3)


class TestApply:
    def test_z_on_zero_is_eigenstate(self):
        psi = basis_state(1, 0)
        out = apply_operator(op(1, (1.0, {0: "Z"})), psi)
        assert np.allclose(out, psi)

    def test_x_flips(self):
        psi = basis_state(1, 0)
        out = apply_operator(op(1, (1.0, {0: "X"})), psi)
        assert np.allclose(out, [0, 1])

    def test_hopping_on_01(self):
        # (X0 X1 + Y0 Y1)|01> = 2|10>; with site 0 the LSB, |01> means
        # site 0 up=1? encode: index 1 = site0 excited
        o = op(2, (1.0, {0: "X", 1: "X"}), (1.0, {0: "Y", 1: "Y"}))
        psi = basis_state(2, 1)
        out = apply_operator(o, psi)
        expected = np.zeros(4, dtype=complex)
        expected[2] = 2.0
        assert np.allclose(out, expected)

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(op(2, (1.0, {0: "X"})), basis_state(3, 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        o = random_operator(3, 4, seed)
        psi, phi = random_state(3, seed + 1), random_state(3, seed + 2)
        a, b = 0.3 - 0.2j, 1.1 + 0.7j
        lhs = apply_operator(o, a * psi + b * phi)
        rhs = a * apply_operator(o, psi) + b * apply_operator(o, phi)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_dense(self, seed):
        o = random_operator(4, 5, seed)
        psi = random_state(4, seed)
        assert np.max(np.abs(apply_operator(o, psi) - to_dense(o) @ psi)) < 1e-12

    @pytest.mark.parametrize("seed", [3, 19])
    def test_block_stack_is_principal_submatrices(self, seed):
        # disjoint rows that are not invariant blocks: entries between rows
        # must not leak into the stack
        o = random_operator(4, 6, seed)
        rows = np.random.default_rng(seed).permutation(16)[:12].reshape(3, 4)
        dense = to_dense(o)
        stack = dense_block(flip_diagonals(o), rows)
        assert stack.shape == (3, 4, 4)
        for block, index in zip(stack, rows):
            assert np.array_equal(block, dense[np.ix_(index, index)])
            assert np.array_equal(block, dense_block(flip_diagonals(o), index))


class TestExpectation:
    def test_z_basis(self):
        assert expectation(op(1, (1.0, {0: "Z"})), basis_state(1, 0)) == 1.0

    def test_plus_state_symmetry(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(expectation(op(1, (1.0, {0: "Z"})), plus)) < 1e-12

    def test_singlet_heisenberg(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        heis = op(
            2,
            (0.25, {0: "X", 1: "X"}),
            (0.25, {0: "Y", 1: "Y"}),
            (0.25, {0: "Z", 1: "Z"}),
        )
        assert abs(expectation(heis, singlet) + 0.75) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_real_for_hermitian(self, seed):
        o = random_operator(3, 5, seed)
        expectation(o, random_state(3, seed))  # raises HermiticityError if not real


class TestEigendecompose:
    def test_pauli_spectrum(self):
        values, _ = eigendecompose(op(1, (1.0, {0: "X"})))
        assert np.allclose(values, [-1, 1])

    def test_half_z_spectrum(self):
        values, _ = eigendecompose(op(1, (0.5, {0: "Z"})))
        assert np.allclose(values, [-0.5, 0.5])

    def test_two_x_spectrum(self):
        values, _ = eigendecompose(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        assert np.allclose(values, [-2, 0, 0, 2])

    def test_reconstruction(self):
        o = random_operator(4, 6, 5)
        values, vectors = eigendecompose(o)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - to_dense(o))) < 1e-10

    def test_unitary_vectors(self):
        _, vectors = eigendecompose(random_operator(3, 5, 11))
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(basis_state(2, 0), [0])
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = partial_trace(bell, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_ghz_two_site_block(self):
        amps = np.zeros(16)
        amps[0] = amps[15] = 1 / np.sqrt(2)
        rho = partial_trace(amps, [0, 1])
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(evals, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_noncontiguous_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(basis_state(3, 0), [0, 2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_trace_one_and_positive(self, seed, size):
        rho = partial_trace(random_state(4, seed), range(size))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12 and evals.max() < 1 + 1e-12


class TestCommutatorAlgebra:
    def test_commuting_strings(self):
        a = op(2, (1.0, {0: "X"}))
        b = op(2, (1.0, {1: "Z"}))
        assert commutator_norm(a, b) == 0.0

    def test_anticommuting_strings(self):
        a = op(1, (1.0, {0: "X"}))
        b = op(1, (1.0, {0: "Z"}))
        assert commutator_norm(a, b) == pytest.approx(2.0)

    def test_matches_dense_commutator(self):
        a = random_operator(3, 4, 21)
        b = random_operator(3, 4, 22)
        da, db = to_dense(a), to_dense(b)
        dense_norm = np.max(np.abs(da @ db - db @ da))
        sym = commutator_norm(a, b)
        # symbolic max-coefficient bounds the dense entrywise norm
        assert dense_norm <= 2 ** 3 * sym + 1e-12
        if sym == 0.0:
            assert dense_norm < 1e-12

    def test_terms_commute_pairwise(self):
        assert terms_commute_pairwise(op(2, (1.0, {0: "X"}), (1.0, {1: "X"})))
        assert not terms_commute_pairwise(op(1, (1.0, {0: "X"}), (1.0, {0: "Z"})))

    def test_strings_commute_matches_dense_commutator(self):
        # every pair of strings on two sites, identity factors included
        strings = [
            PauliTerm(1.0, {s: a for s, a in enumerate(axes) if a != "I"})
            for axes in ((a, b) for a in "IXYZ" for b in "IXYZ")
        ]
        for a in strings:
            for b in strings:
                da, db = to_dense(OperatorSum((a,), 2)), to_dense(OperatorSum((b,), 2))
                assert strings_commute(a, b) == np.allclose(da @ db, db @ da)


def test_dense_cap_enforced():
    o = op(13, (1.0, {0: "X"}))
    with pytest.raises(DimensionCapError):
        to_dense(o)
