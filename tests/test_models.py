import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlspec import models
from nlspec.evolution import EXACT, Evolver, _spectral_plan
from nlspec.models import (
    GroundStateError,
    ModelSpec,
    PumpSpec,
    ToricLattice,
    build_model,
    build_pump,
    build_spin_boson,
    build_tls_dimer,
    build_toric_code,
    build_xxz,
    cosine_weights,
    ground_state,
)
from nlspec.pauli import (
    OperatorSum,
    PauliTerm,
    apply_operator,
    commutator_norm,
    expectation,
    to_dense,
)


class TestXXZ:
    def test_heisenberg_dimer_ground_energy(self):
        h = build_xxz(2, 1.0, 0.0)
        assert np.linalg.eigvalsh(to_dense(h))[0] == pytest.approx(-0.75)

    def test_xy_dimer_spectrum(self):
        h = build_xxz(2, 0.0, 0.0)
        assert np.allclose(np.linalg.eigvalsh(to_dense(h)), [-0.5, 0, 0, 0.5])

    def test_term_count_n12(self):
        h = build_xxz(12, 0.0, 0.75)
        assert len(h.terms) == 11 * 2 + 12

    def test_periodic_has_extra_bond(self):
        assert len(build_xxz(4, 1.0, 0.0, "periodic").terms) == 4 * 3

    def test_total_z_conserved(self):
        h = build_xxz(5, 0.0, 0.0)
        sz = OperatorSum(tuple(PauliTerm(1.0, {i: "Z"}) for i in range(5)), 5)
        assert commutator_norm(h, sz) < 1e-14

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            build_xxz(1, 1.0, 0.0)


class TestToricCode:
    def test_counts_and_ground_energy(self):
        h = build_toric_code(2, 2, 1.0, 1.0)
        assert h.n_sites == 8
        assert len(h.terms) == 8
        psi = ground_state(h)
        assert expectation(h, psi) == pytest.approx(-8.0, abs=1e-10)

    def test_all_stabilizers_plus_one(self):
        h = build_toric_code(2, 2, 1.0, 1.0)
        psi = ground_state(h)
        lat = ToricLattice(2, 2)
        for y in range(2):
            for x in range(2):
                star = OperatorSum(
                    (PauliTerm(1.0, {e: "X" for e in lat.star_edges(x, y)}),), 8
                )
                plaq = OperatorSum(
                    (PauliTerm(1.0, {e: "Z" for e in lat.plaquette_edges(x, y)}),), 8
                )
                assert expectation(star, psi) == pytest.approx(1.0, abs=1e-10)
                assert expectation(plaq, psi) == pytest.approx(1.0, abs=1e-10)

    def test_stabilizers_commute(self):
        h = build_toric_code(2, 3, 1.0, 0.7)
        for i, a in enumerate(h.terms):
            for b in h.terms[i + 1 :]:
                sa = OperatorSum((PauliTerm(1.0, a.factors),), h.n_sites)
                sb = OperatorSum((PauliTerm(1.0, b.factors),), h.n_sites)
                assert commutator_norm(sa, sb) == 0.0

    def test_zero_plaquette_coupling_ground_state(self):
        h = build_toric_code(2, 2, 1.0, 0.0)
        psi = ground_state(h)
        assert expectation(h, psi) == pytest.approx(-4.0, abs=1e-10)

    def test_negative_plaquette_coupling_falls_back(self):
        h = build_toric_code(2, 2, 1.0, -0.5)
        psi = ground_state(h)
        ref = np.linalg.eigvalsh(to_dense(h))[0]
        assert expectation(h, psi) == pytest.approx(ref, abs=1e-9)


class TestSmallModels:
    def test_tls_dimer_terms(self):
        h = build_tls_dimer(0.5, 1.0, 0.8)
        assert h.n_sites == 2 and len(h.terms) == 5

    def test_tls_dimer_decoupled_spectrum(self):
        h = build_tls_dimer(0.6, 1.4, 0.0)
        expected = sorted(
            s0 * 0.3 + s1 * 0.7 for s0 in (-1, 1) for s1 in (-1, 1)
        )
        assert np.allclose(np.linalg.eigvalsh(to_dense(h)), expected)

    def test_tls_degenerate_pair(self):
        h = build_tls_dimer(1.0, 1.0, 0.0)
        vals = np.linalg.eigvalsh(to_dense(h))
        assert np.allclose(vals[1:3], [0.0, 0.0], atol=1e-12)

    def test_spin_boson_terms(self):
        h = build_spin_boson(2.64, 3.20, 0.04, 0.05)
        assert h.n_sites == 3 and len(h.terms) == 5

    def test_spin_boson_decoupled_product_ground_state(self):
        h = build_spin_boson(1.0, 2.0, 0.5, 0.0)
        psi = ground_state(h)
        # all three qubits polarized: a computational-basis state
        assert np.sort(np.abs(psi))[-1] == pytest.approx(1.0, abs=1e-12)


class TestPump:
    def test_cosine_zero_momentum(self):
        assert np.allclose(cosine_weights(4, 0), [1, 1, 1, 1])

    def test_cosine_momentum_one_quarter_wave(self):
        w = cosine_weights(4, 1)
        assert np.allclose(w, [1, 0, -1, 0], atol=1e-15)

    def test_cosine_weights_bit_exact(self):
        n, m = 12, 1
        pump = build_pump(PumpSpec("cosine_profile", momentum=m), n)
        weights = {t.sites[0]: t.coefficient for t in pump.terms}
        for i in range(n):
            expected = np.cos(2.0 * np.pi * m * np.arange(n, dtype=float)[i] / n)
            if abs(expected) > 1e-14:  # sub-tolerance weights are pruned
                assert weights[i] == expected

    def test_local_pauli(self):
        pump = build_pump(PumpSpec("local_pauli", site=3), 12)
        assert pump.terms == (PauliTerm(1.0, {3: "X"}),)

    def test_restricted_sites(self):
        pump = build_pump(PumpSpec("cosine_profile", momentum=0, sites=(0, 1)), 3)
        assert pump.support == (0, 1)

    def test_pauli_string_pump(self):
        pump = build_pump(PumpSpec("pauli_string", factors=((0, "X"), (2, "Z"))), 8)
        assert len(pump.terms) == 1 and pump.terms[0].factors == ((0, "X"), (2, "Z"))


class TestGroundState:
    def test_z_field(self):
        h = OperatorSum((PauliTerm(1.0, {0: "Z"}),), 1)
        psi = ground_state(h)
        assert abs(psi[1]) == pytest.approx(1.0)

    def test_xxz_dimer_singlet(self):
        psi = ground_state(build_xxz(2, 1.0, 0.0))
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        overlap = abs(np.vdot(singlet, psi))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "h",
        [build_toric_code(2, 2, 1.0, 0.5), build_xxz(6, 0.7, 0.3), build_xxz(10, 0.7, 0.3)],
        ids=["stabilizer", "dense", "lanczos"],
    )
    def test_read_only_complex_array(self, h):
        # every run shares one ground state, so no caller may write to it
        psi = ground_state(h)
        assert psi.dtype == np.complex128 and psi.shape == (2**h.n_sites,)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            psi[0] = 0.0

    def test_deterministic(self):
        h = build_xxz(6, 0.7, 0.3)
        a = ground_state(h)
        b = ground_state(h)
        assert np.array_equal(a, b)

    def test_lanczos_path_matches_dense(self):
        h = build_xxz(11, 0.9, 0.2)  # above the dense-ground-state cutoff
        psi = ground_state(h)
        e = expectation(h, psi)
        from scipy.sparse.linalg import LinearOperator, eigsh

        # terms applied one by one, independent of the flip_diagonals matvec
        h_op = LinearOperator((2**11, 2**11), matvec=lambda v: apply_operator(h, v), dtype=complex)
        ref = eigsh(h_op, k=1, which="SA", return_eigenvectors=False)[0]
        assert e == pytest.approx(float(ref), abs=1e-8)

    def test_lanczos_reproducible_on_su2_chain(self):
        # the Heisenberg chain's singlet ground state is orthogonal to the
        # uniform |+x...+x>, so the Lanczos start vector must be generic
        h = build_xxz(10, 1.0, 0.0)
        runs = [ground_state(h) for _ in range(3)]
        assert all(np.array_equal(runs[0], other) for other in runs[1:])
        exact = np.linalg.eigvalsh(to_dense(h))[0]
        assert abs(expectation(h, runs[0]) - exact) < 1e-12


@st.composite
def lanczos_sums(draw):
    """Random 10-site Pauli sums of three kinds: XXZ-type bonds and Z fields
    (real, U(1)), the same with X fields (real, not U(1)), and the same with
    complex X_i Y_j - Y_i X_j bonds.  Every site carries a bond and a field,
    so no free spin makes the ground state degenerate."""
    n = 10
    coefficient = st.builds(lambda m, sign: sign * m, st.floats(1e-2, 1.5), st.sampled_from([-1, 1]))
    kind = draw(st.sampled_from(["u1", "x_field", "complex"]))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    extra = draw(st.lists(pair, max_size=3))
    terms = []
    for i, j in [(i, i + 1) for i in range(n - 1)] + extra:
        c = draw(coefficient)
        terms += [PauliTerm(c, {i: "X", j: "X"}), PauliTerm(c, {i: "Y", j: "Y"})]
        terms.append(PauliTerm(draw(coefficient), {i: "Z", j: "Z"}))
        if kind == "complex":
            c = draw(coefficient)
            terms += [PauliTerm(c, {i: "X", j: "Y"}), PauliTerm(-c, {i: "Y", j: "X"})]
    for i in range(n):
        terms.append(PauliTerm(draw(coefficient), {i: "Z"}))
        if kind == "x_field":
            terms.append(PauliTerm(draw(coefficient), {i: "X"}))
    return OperatorSum(terms, n)


class TestLanczosGroundState:
    """Above 2**9 amplitudes ``ground_state`` runs Lanczos instead of eigh."""

    @settings(max_examples=10, deadline=None)
    @given(lanczos_sums())
    def test_matches_dense_eigh(self, h):
        dense = to_dense(h)
        values, vectors = np.linalg.eigh(dense if dense.imag.any() else dense.real)
        assume(values[1] - values[0] >= 1e-2)
        psi = ground_state(h)
        assert expectation(h, psi) == pytest.approx(values[0], abs=1e-12)
        # states agree up to a global phase: _canonical_phase pins the
        # largest amplitude, which may tie between sites on symmetric chains
        assert abs(np.vdot(vectors[:, 0], psi)) >= 1 - 1e-10

    def test_real_hamiltonian_runs_in_real_arithmetic(self):
        assert models._lanczos_ground_state(build_xxz(10, 0.5, 0.12)).dtype == np.float64
        dm = OperatorSum(
            [PauliTerm(0.3, {0: "X", 1: "Y"}), PauliTerm(-0.3, {0: "Y", 1: "X"})], 10
        )
        assert models._lanczos_ground_state(build_xxz(10, 0.5, 0.12) + dm).dtype == np.complex128

    @pytest.mark.parametrize("n", [10, 12])
    def test_start_vector_is_generic(self, n):
        # a uniform vector has no flip-odd part: the ground state of a
        # flip-symmetric chain may lie there
        dim = 2**n
        start = models._lanczos_start(dim)
        assert np.array_equal(start, models._lanczos_start(dim))
        flipped = start[np.arange(dim) ^ (dim - 1)]
        popcount = np.bitwise_count(np.arange(dim))
        for parity in (start + flipped, start - flipped):
            for p in range(n + 1):
                sector = parity[popcount == p]
                # a vector uniform on [-1/2, 1/2) gives sector.size / 6 on average
                assert np.sum(sector**2) >= 1e-2 * sector.size / 6

    def test_not_converged_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(models, "_LANCZOS_CAP", 4)
        with pytest.raises(GroundStateError, match="4 steps"):
            ground_state(build_xxz(10, 0.5, 0.12))


@st.composite
def small_sums(draw):
    """Random Pauli sums on 2 to 7 sites: a field of random axis on every
    site, which leaves few degeneracies, plus up to six random strings."""
    n = draw(st.integers(2, 7))
    coefficient = st.builds(lambda m, sign: sign * m, st.floats(0.1, 1.5), st.sampled_from([-1, 1]))
    axis = st.sampled_from("XYZ")
    terms = [PauliTerm(draw(coefficient), {i: draw(axis)}) for i in range(n)]
    sites = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
    for support in draw(st.lists(sites, max_size=6)):
        terms.append(PauliTerm(draw(coefficient), {i: draw(axis) for i in support}))
    return OperatorSum(terms, n)


xxz_chains = st.builds(
    lambda delta, h_field, boundary: build_xxz(10, delta, h_field, boundary),
    st.floats(-1.5, 1.5),
    st.floats(0.05, 1.0),
    st.sampled_from(["open", "periodic"]),
)


class TestPlanGroundState:
    """An exact run reads a nondegenerate ground state off the spectral plan;
    every other run keeps the stabilizer, dense or Lanczos route."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_sums(), xxz_chains))
    def test_matches_the_direct_route(self, h):
        record = {}
        psi = ground_state(h, EXACT, record)
        assume(record["route"] == "plan" and record["gap"] >= 1e-2)
        direct = ground_state(h)
        assert abs(np.vdot(direct, psi)) >= 1 - 1e-12
        assert expectation(h, psi) == pytest.approx(expectation(h, direct), abs=1e-10)
        assert expectation(h, psi) == pytest.approx(record["energy"], abs=1e-10)
        assert not psi.flags.writeable

    def test_state_lies_in_one_block(self):
        h = build_xxz(10, 0.5, 0.12)
        psi = ground_state(h, EXACT)
        reached = [rows for rows, _, _ in _spectral_plan(h).groups if psi[rows].any()]
        assert len(reached) == 1 and np.count_nonzero(psi) == reached[0].size == 252

    @pytest.mark.parametrize("g", [-0.5, 0.0, 0.5])
    def test_degenerate_toric_code_keeps_the_direct_route_bitwise(self, g):
        h = build_toric_code(2, 2, 1.0, g)
        record = {}
        psi = ground_state(h, EXACT, record)
        assert record == {"route": "dense" if g < 0 else "stabilizer"}
        assert psi.tobytes() == ground_state(h).tobytes()

    @pytest.mark.parametrize("h", [build_xxz(6, 0.7, 0.3), build_xxz(10, 0.7, 0.3)])
    def test_trotter_keeps_the_direct_route_bitwise(self, h):
        record = {}
        psi = ground_state(h, Evolver("trotter1", 10), record)
        assert record == {"route": "dense" if h.n_sites < 10 else "lanczos"}
        assert psi.tobytes() == ground_state(h).tobytes()

    def test_nondegenerate_exact_solves_no_dense_eigh_or_lanczos(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a second ground-state solve")

        monkeypatch.setattr(models, "_lanczos_ground_state", refused)
        monkeypatch.setattr(models, "to_dense", refused)
        for h in (build_xxz(6, 0.7, 0.3), build_xxz(10, 0.7, 0.3), build_tls_dimer(1.0, 1.3, 0.2)):
            record = {}
            ground_state(h, EXACT, record)
            assert record["route"] == "plan" and record["gap"] > 0


class TestModelSpec:
    def test_requires_parameters(self):
        with pytest.raises(ValueError, match="delta"):
            ModelSpec("xxz", {"n_sites": 4, "h_field": 0.0})

    def test_dispatch(self):
        spec = ModelSpec("tls_dimer", {"omega_0": 0.5, "omega_1": 1.0, "j_exchange": 0.8})
        h = build_model(spec)
        assert h.n_sites == 2

    def test_hermitian_hamiltonians_have_real_expectations(self):
        rng = np.random.default_rng(0)
        for spec in (
            ModelSpec("xxz", {"n_sites": 3, "delta": 1.3, "h_field": 0.2}),
            ModelSpec("tls_dimer", {"omega_0": 0.5, "omega_1": 1.0, "j_exchange": 0.8}),
            ModelSpec(
                "spin_boson",
                {"omega_0": 2.64, "omega_1": 3.2, "omega_mode": 0.04, "g_coupling": 0.05},
            ),
        ):
            h = build_model(spec)
            amps = rng.normal(size=2**h.n_sites) + 1j * rng.normal(size=2**h.n_sites)
            amps /= np.linalg.norm(amps)
            expectation(h, amps)  # raises if the imaginary part survives
