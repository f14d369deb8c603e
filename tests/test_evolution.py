import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlspec import evolution, models
from nlspec.config import config_from_dict
from nlspec.evolution import (
    EXACT,
    Evolver,
    PulseSchedule,
    ScheduleError,
    apply_kick,
    driven_signal,
    driven_states,
    evolve,
    propagator,
    _SpectralPlan,
    _fused_op,
    _fused_runs,
    _spectral_plan,
)
from nlspec.models import (
    build_pump,
    build_spin_boson,
    build_tls_dimer,
    build_toric_code,
    build_xxz,
    ground_state,
    PumpSpec,
)
from nlspec.pauli import (
    DimensionCapError,
    OperatorSum,
    PauliTerm,
    apply_operator,
    commutator_norm,
    dense_block,
    expectation,
    flip_diagonals,
    terms_commute_pairwise,
    to_dense,
)
from nlspec.reference import nested_commutator_prefixes
from nlspec.runner import run_experiment

TROTTER10 = Evolver("trotter1", 10)


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


class TestEvolver:
    def test_trotter_needs_steps(self):
        with pytest.raises(ValueError):
            Evolver("trotter1", 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Evolver("magic")


class TestEvolve:
    def test_zero_time_identity(self):
        psi = random_state(3, 1)
        h = build_xxz(3, 1.0, 0.2)
        assert np.array_equal(evolve(h, psi, 0.0, EXACT), psi)

    def test_half_z_rotates_plus_to_minus(self):
        h = op(1, (0.5, {0: "Z"}))
        plus = np.array([1, 1]) / np.sqrt(2)
        out = evolve(h, plus, np.pi, EXACT)
        minus = np.array([1, -1]) / np.sqrt(2)
        overlap = abs(np.vdot(minus, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_commuting_terms_trotter_exact(self):
        h = op(2, (0.7, {0: "Z"}), (-0.3, {1: "Z"}))
        psi = random_state(2, 5)
        a = evolve(h, psi, 1.3, EXACT)
        b = evolve(h, psi, 1.3, Evolver("trotter1", 1))
        assert np.max(np.abs(a - b)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.floats(-3, 3, allow_nan=False))
    def test_norm_preserved(self, seed, t):
        h = build_xxz(3, 0.8, 0.1)
        psi = random_state(3, seed)
        for evolver in (EXACT, TROTTER10):
            out = evolve(h, psi, t, evolver)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_trotter_first_order_convergence(self):
        h = build_xxz(4, 1.0, 0.5)
        psi = random_state(4, 9)
        exact = evolve(h, psi, 2.0, EXACT)
        errors = []
        for n in (10, 20, 40, 80):
            approx = evolve(h, psi, 2.0, Evolver("trotter1", n))
            errors.append(np.linalg.norm(approx - exact))
        assert errors[0] > errors[1] > errors[2] > errors[3]
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        for r in ratios:
            assert 1.5 < r < 3.0  # ~2 for a first-order formula

    def test_sector_path_matches_expm(self):
        # a 10-site XXZ chain takes the magnetization-sector route; compare
        # against dense evolution
        h = build_xxz(10, 0.6, 0.3)
        psi = random_state(10, 3)
        out = evolve(h, psi, 1.7, EXACT)
        from scipy.linalg import expm

        ref = expm(-1.7j * to_dense(h)) @ psi
        assert np.max(np.abs(out - ref)) < 1e-9


@st.composite
def u1_sums(draw):
    """Random 10-site Pauli sums that conserve sum_i Z_i: equal-weight XX + YY
    pairs, ZZ bonds and Z fields.  Half of them hold an XX + YY bond on every
    neighbouring pair, whose flip masks span 512 states: more than the
    largest popcount sector."""
    n = 10
    coefficient = st.floats(-1.5, 1.5, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    chain = [(i, i + 1) for i in range(n - 1)] if draw(st.booleans()) else []
    terms = []
    for i, j in chain + draw(st.lists(pair, min_size=1, max_size=6)):
        c = draw(coefficient)
        terms += [(c, {i: "X", j: "X"}), (c, {i: "Y", j: "Y"})]
    for i, j in draw(st.lists(pair, max_size=4)):
        terms.append((draw(coefficient), {i: "Z", j: "Z"}))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        terms.append((draw(coefficient), {i: "Z"}))
    return op(n, *terms)


def dense_propagator(h, t):
    from scipy.linalg import expm

    return expm(-1j * t * to_dense(h))


def commuting_propagator_reference(h, t, state):
    """exp(-i H t) |psi> for a sum of pairwise commuting Pauli strings, as the
    product of cos(c t) - i sin(c t) P over its terms c P (P^2 = 1), each
    string applied by ``apply_operator``: no matrix and no eigenbasis.  A
    dense 4096 x 4096 ``expm`` takes about a minute and 2 GB on 2 vCPUs."""
    assert terms_commute_pairwise(h)
    for term in h.terms:
        string = op(h.n_sites, (1.0, term.factors))
        angle = term.coefficient * t
        state = np.cos(angle) * state - 1j * np.sin(angle) * apply_operator(string, state)
    return state


def flip_span_size(h):
    """The number of flip masks in the GF(2) span of H's flip masks: the
    size of each of its coset blocks."""
    span = {0}
    for term in h.terms:
        span |= {s ^ term.masks()[0] for s in span}
    return len(span)


@st.composite
def popcount_sums(draw):
    """Random Pauli sums on 2 to 6 sites with coefficients in halves, so every
    sum of entries is exact: XX + YY and XY - YX bond pairs (of one weight,
    which conserves sum_i Z_i, or of two), ZZ bonds and Z fields, and
    sometimes one random string."""
    n = draw(st.integers(2, 6))
    weight = st.integers(-3, 3).filter(bool).map(lambda k: k / 2)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    terms = []
    for (i, j), axes in draw(st.lists(st.tuples(pair, st.sampled_from(["XXYY", "XYYX"])))):
        c = draw(weight)
        d = draw(st.sampled_from([c, draw(weight)]))
        sign = 1 if axes == "XXYY" else -1
        terms += [(c, {i: axes[0], j: axes[1]}), (sign * d, {i: axes[2], j: axes[3]})]
    for i, j in draw(st.lists(pair, max_size=3)):
        terms.append((draw(weight), {i: "Z", j: "Z"}))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        terms.append((draw(weight), {i: "Z"}))
    if draw(st.booleans()):
        sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        terms.append((draw(weight), {i: draw(st.sampled_from("XYZ")) for i in draw(sites)}))
    return op(n, *terms)


class TestSpectralRoutes:
    """Above 9 sites exact evolution diagonalizes each popcount sector when H
    conserves sum_i Z_i and its flip-mask cosets are larger than its largest
    sector, C(n, n // 2); it diagonalizes the cosets otherwise."""

    @settings(max_examples=4, deadline=None)
    @given(u1_sums(), st.floats(-2, 2, allow_nan=False), st.integers(0, 99))
    def test_sector_route_matches_expm(self, h, t, seed):
        groups = _spectral_plan(h).groups
        if flip_span_size(h) > math.comb(10, 5):
            assert len(groups) == h.n_sites + 1
        else:
            ((rows, _, _),) = groups
            assert rows.shape == (1024 // flip_span_size(h), flip_span_size(h))
        u = dense_propagator(h, t)
        psi = random_state(10, seed)
        assert np.max(np.abs(evolve(h, psi, t, EXACT) - u @ psi)) < 1e-10
        block = np.stack([random_state(10, seed + k) for k in range(3)], axis=1)
        assert np.max(np.abs(evolve(h, block, t, EXACT) - u @ block)) < 1e-10

    @pytest.mark.parametrize(
        "h",
        [
            build_xxz(10, 0.5, 0.12),
            build_xxz(11, -0.72, 0.6, "periodic"),
            build_xxz(10, 0.6, 0.3)
            + op(10, *(term for i in range(9) for term in (
                (0.3, {i: "X", i + 1: "Y"}), (-0.3, {i: "Y", i + 1: "X"})))),
        ],
        ids=["chain10", "ring11", "complex"],
    )
    def test_sector_blocks_equal_sparse_slices(self, h):
        plan = _spectral_plan(h)
        assert len(plan.groups) == h.n_sites + 1
        dense = to_dense(h)
        diagonals = flip_diagonals(h)
        for rows, _, _ in plan.groups:
            assert rows.shape[0] == 1
            (rows,) = rows
            assert np.array_equal(dense_block(diagonals, rows), dense[np.ix_(rows, rows)])

    def test_non_u1_sum_takes_coset_route(self):
        # an X field on every site spans every flip mask: one dense block
        h = build_xxz(10, 0.6, 0.3) + op(10, *((0.2, {i: "X"}) for i in range(10)))
        (rows, _, _), = _spectral_plan(h).groups
        assert rows.shape == (1, 1024)
        psi = random_state(10, 5)
        block = np.stack([psi, random_state(10, 6)], axis=1)
        u = dense_propagator(h, 1.3)
        assert np.max(np.abs(evolve(h, psi, 1.3, EXACT) - u @ psi)) < 1e-10
        assert np.max(np.abs(evolve(h, block, 1.3, EXACT) - u @ block)) < 1e-10

    def test_twelve_site_u1_kick_takes_coset_route(self):
        # X0 X1 + Y0 Y1 + 0.6 Z1 conserves sum_i Z_i, but its cosets (2048 of
        # 2) are far smaller than its largest popcount sector (924)
        from scipy.linalg import expm

        b = op(12, (1.0, {0: "X", 1: "X"}), (1.0, {0: "Y", 1: "Y"}), (0.6, {1: "Z"}))
        ((rows, _, _),) = _spectral_plan(b).groups
        assert rows.shape == (2048, 2)
        factor = to_dense(op(2, *((t.coefficient, t.factors) for t in b.terms)))
        block = np.stack([random_state(12, s) for s in range(2)], axis=1)
        for eta in (0.7, -1.9):
            # sites 0 and 1 are the two lowest bits of a basis index
            support = expm(-1j * eta * factor)
            ref = np.einsum("ij,rjk->rik", support, block.reshape(-1, 4, 2)).reshape(-1, 2)
            assert np.max(np.abs(apply_kick(b, eta, block) - ref)) < 1e-12
            assert np.max(np.abs(apply_kick(b, eta, block[:, 0]) - ref[:, 0])) < 1e-12

    @pytest.mark.parametrize("l_x, l_y", [(2, 3), (3, 2)])
    def test_twelve_qubit_toric_code_takes_coset_route(self, l_x, l_y):
        h = build_toric_code(l_x, l_y, 1.0, -0.5)
        (rows, _, _), = _spectral_plan(h).groups
        assert rows.shape == (128, 32)
        psi = random_state(12, 8)
        block = np.stack([psi, random_state(12, 9), random_state(12, 10)], axis=1)
        for t in (1.3, -0.4):
            ref = commuting_propagator_reference(h, t, block)
            assert np.max(np.abs(evolve(h, psi, t, EXACT) - ref[:, 0])) < 1e-10
            assert np.max(np.abs(evolve(h, block, t, EXACT) - ref)) < 1e-10

    def test_complex_u1_hamiltonian_keeps_complex_vectors(self):
        # a Dzyaloshinskii-Moriya bond X_i Y_j - Y_i X_j conserves sum_i Z_i
        # but has imaginary matrix elements
        dm = op(10, *(term for i in range(9) for term in (
            (0.3, {i: "X", i + 1: "Y"}), (-0.3, {i: "Y", i + 1: "X"}))))
        h = build_xxz(10, 0.6, 0.3) + dm
        plan = _spectral_plan(h)
        assert all(v.dtype == np.complex128 for _, _, v in plan.groups if v.shape[-1] > 1)
        assert _spectral_plan(build_xxz(10, 0.6, 0.3)).groups[5][2].dtype == np.float64
        psi = random_state(10, 7)
        ref = dense_propagator(h, 0.9) @ psi
        assert np.max(np.abs(evolve(h, psi, 0.9, EXACT) - ref)) < 1e-10

    @pytest.mark.parametrize("etas", [[0.4, -0.7], [[0.4, -0.7], [0.0, 1.1], [-1.2, 0.3]]])
    def test_segment_projection_bitwise_equals_evolve_calls(self, etas):
        assert_segment_projection_equals_evolve_calls(build_xxz(5, 0.7, 0.3), etas)

    @pytest.mark.parametrize(
        "sectors",
        [[(5,)] * 3, [(5,), (4, 6), ()], [(0, 10), (4,), (0, 4, 10)], [()] * 3],
        ids=["one", "per_column", "edges", "zero_state"],
    )
    def test_unreached_sectors_skip_bitwise(self, sectors, monkeypatch):
        # column k exactly inside the popcount sectors sectors[k]: the sectors
        # no column reaches are neither transformed nor propagated, and the
        # result is the same bits as transforming every sector
        h = build_xxz(10, 0.5, 0.12)
        popcount = np.bitwise_count(np.arange(1024))
        block = np.stack(
            [random_state(10, k) * np.isin(popcount, inside) for k, inside in enumerate(sectors)],
            axis=1,
        )
        transforms = []
        to_block_basis = evolution._to_block_basis
        monkeypatch.setattr(
            evolution, "_to_block_basis", lambda v, a: transforms.append(1) or to_block_basis(v, a)
        )

        def run():
            step = propagator(h, block)
            return [step(t) for t in (0.3, -1.1)] + [evolve(h, block[:, 0], 0.7)]

        skipped = run()
        reached = len(set().union(*sectors)) + len(sectors[0])
        assert len(transforms) == reached
        monkeypatch.setattr(evolution, "_reaches", lambda gathered: True)
        full = run()
        assert len(transforms) == reached + 2 * 11
        assert all(np.array_equal(a, b) for a, b in zip(skipped, full))
        assert np.max(np.abs(skipped[0] - dense_propagator(h, 0.3) @ block)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(popcount_sums())
    def test_popcount_rule_agrees_with_commutator_norm(self, h):
        n = h.n_sites
        magnetization = op(n, *((1.0, {i: "Z"}) for i in range(n)))
        conserves = evolution._conserves_popcount(n, flip_diagonals(h))
        assert conserves == (commutator_norm(h, magnetization) == 0.0)

    def test_popcount_rule_on_chains(self):
        chain = build_xxz(10, 0.5, 0.12)
        assert evolution._conserves_popcount(10, flip_diagonals(chain))
        tilted = chain + op(10, (0.2, {3: "X"}))
        assert not evolution._conserves_popcount(10, flip_diagonals(tilted))


def assert_segment_projection_equals_evolve_calls(h, etas):
    """driven_signal with one eigenbasis projection per segment is bitwise
    equal to one evolve call per time from the checkpoint."""
    n = h.n_sites
    psi = ground_state(h)
    b = op(n, (1.0, {1: "X"}))
    c = op(n, (0.5, {2: "Y"}), (0.5, {3: "X"}))
    a = op(n, (1.0, {1: "Z"}), (0.5, {2: "X"}))
    sched = PulseSchedule([(b, [0.0]), (c, [1.0])])
    grid = np.array([0.5, 1.0, 1.5, 2.5])
    etas = np.asarray(etas)
    signal = driven_signal(h, sched, etas, a, grid, EXACT, psi)
    start = psi if etas.ndim == 1 else np.repeat(psi[:, None], 3, axis=1)
    first = apply_kick(b, etas[..., 0], start)
    second = apply_kick(c, etas[..., 1], evolve(h, first, 1.0))
    states = [evolve(h, first, 0.5), second, evolve(h, second, 0.5), evolve(h, second, 1.5)]
    expected = np.stack([expectation(a, state) for state in states], axis=-1)
    assert np.array_equal(signal, expected)


@st.composite
def coset_sums(draw):
    """Random Pauli sums on at most 9 sites: real (X and Z factors), complex
    (a lone Y in some term), commuting toric-like (X strings plus the Z
    strings that commute with all of them) or full-span (plus an X field)."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["real", "complex", "commuting", "full_span"]))
    coefficient = st.floats(-1.5, 1.5, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    terms = []
    if kind == "commuting":
        x_strings = draw(st.lists(sites, min_size=1, max_size=4))
        for support in x_strings:
            terms.append((draw(coefficient), {i: "X" for i in support}))
        for support in draw(st.lists(sites, max_size=4)):
            if all(len(set(support) & set(x)) % 2 == 0 for x in x_strings):
                terms.append((draw(coefficient), {i: "Z" for i in support}))
        return op(n, *terms)
    axes = "XYZ" if kind == "complex" else "XZ"
    for support in draw(st.lists(sites, min_size=1, max_size=6)):
        terms.append((draw(coefficient), {i: draw(st.sampled_from(axes)) for i in support}))
    if kind == "complex":
        site = draw(st.integers(0, n - 1))
        terms.append((draw(coefficient), {site: "Y"}))
    if kind == "full_span":
        terms += [(draw(coefficient), {i: "X"}) for i in range(n)]
    return op(n, *terms)


class TestOneBlasThread:
    """The spectral plan's ``eigh`` and GEMMs and the Lanczos ground state's
    tridiagonal ``eigh`` run on one OpenBLAS thread, and the previous count
    comes back afterwards."""

    @pytest.fixture
    def threads(self):
        """The OpenBLAS thread-count getter, with the count set to 2."""
        calls = evolution._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS thread-count symbols in this numpy")
        get, put = calls
        before = get()
        put(2)
        yield get
        put(before)

    def test_plan_calls_run_on_one_thread(self, threads, monkeypatch):
        seen = []

        def spy(name, call):
            def wrapped(*args):
                seen.append((name, threads()))
                return call(*args)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        for name in ("_to_block_basis", "_from_block_basis"):
            monkeypatch.setattr(evolution, name, spy(name, getattr(evolution, name)))
        # a fresh build, past the plan cache: 11 sector blocks of a 10-site chain
        plan = _spectral_plan.__wrapped__(build_xxz(10, 0.5, 0.12))
        plan.propagate(plan.to_eigenbasis(random_state(10, 3)), 0.7)
        assert {name for name, _ in seen} == {"eigh", "_to_block_basis", "_from_block_basis"}
        assert all(count == 1 for _, count in seen)
        assert threads() == 2

    def test_lanczos_ritz_solve_runs_on_one_thread(self, threads, monkeypatch):
        seen = []

        def spy(matrix):
            seen.append(threads())
            return eigh(matrix)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", spy)
        models._lanczos_ground_state(build_xxz(10, 0.5, 0.12))
        # one Ritz solve every _RITZ_CHECK_EVERY steps until convergence
        assert len(seen) > 1
        assert set(seen) == {1}
        assert threads() == 2

    def test_count_restored_after_an_exception(self, threads):
        with pytest.raises(RuntimeError, match="inside"):
            with evolution._one_blas_thread():
                assert threads() == 1
                raise RuntimeError("inside")
        assert threads() == 2


class TestCosetRoute:
    """Up to 9 sites (and at any size when H does not conserve sum_i Z_i)
    exact evolution diagonalizes the blocks of H on the cosets of its flip
    masks' GF(2) span, all in one batched eigh."""

    @settings(max_examples=24, deadline=None)
    @given(coset_sums(), st.floats(-2, 2, allow_nan=False), st.integers(0, 99))
    def test_matches_expm(self, h, t, seed):
        assert len(_spectral_plan(h).groups) == 1
        u = dense_propagator(h, t)
        psi = random_state(h.n_sites, seed)
        assert np.max(np.abs(evolve(h, psi, t, EXACT) - u @ psi)) < 1e-10
        block = np.stack([random_state(h.n_sites, seed + k) for k in range(3)], axis=1)
        assert np.max(np.abs(evolve(h, block, t, EXACT) - u @ block)) < 1e-10

    @pytest.mark.parametrize(
        "h, shape",
        [
            (build_toric_code(2, 2, 1.0, -0.5), (32, 8)),
            (build_tls_dimer(1.0, 1.3, 0.2), (2, 2)),
            (build_spin_boson(1.0, 1.3, 0.8, 0.4), (4, 2)),
            (build_xxz(5, 0.7, 0.3), (2, 16)),
            (build_xxz(4, 0.7, 0.3) + op(4, *((0.3, {i: "X"}) for i in range(4))), (1, 16)),
            (op(3, (0.5, {0: "Z"}), (-0.2, {1: "Z", 2: "Z"})), (8, 1)),
        ],
        ids=["toric_2x2", "dimer", "spin_boson", "xxz5", "full_span", "diagonal"],
    )
    def test_rows_partition_basis_and_block_h(self, h, shape):
        (rows, values, vectors), = _spectral_plan(h).groups
        dim = 2**h.n_sites
        assert rows.shape == values.shape == shape
        assert vectors.shape == shape + shape[-1:]
        assert np.array_equal(np.sort(rows.ravel()), np.arange(dim))
        assert np.all(np.diff(rows, axis=1) > 0)
        owner = np.empty(dim, dtype=int)  # the row (coset) of each basis index
        owner[rows] = np.arange(rows.shape[0])[:, None]
        off_block = owner[:, None] != owner[None, :]
        assert np.all(to_dense(h)[off_block] == 0)
        if shape[0] == 1:
            assert np.array_equal(rows[0], np.arange(dim))

    def test_real_stack_keeps_real_vectors(self):
        for h in (build_toric_code(2, 2, 1.0, 0.6), build_tls_dimer(1.0, 1.3, 0.2)):
            assert _spectral_plan(h).groups[0][2].dtype == np.float64
        dm = op(3, (0.3, {0: "X", 1: "Y"}), (-0.3, {0: "Y", 1: "X"}), (0.5, {2: "Z"}))
        assert _spectral_plan(dm).groups[0][2].dtype == np.complex128

    @pytest.mark.parametrize("etas", [[0.4, -0.7], [[0.4, -0.7], [0.0, 1.1], [-1.2, 0.3]]])
    def test_toric_segment_projection_bitwise_equals_evolve_calls(self, etas):
        assert_segment_projection_equals_evolve_calls(build_toric_code(2, 2, 1.0, -0.5), etas)


class TestPropagator:
    @pytest.mark.parametrize(
        "h, evolver",
        [
            (build_xxz(5, 0.7, 0.3), EXACT),
            (build_xxz(10, 0.6, 0.3), EXACT),
            (build_xxz(4, 0.7, 0.3), TROTTER10),
        ],
        ids=["dense", "sector", "trotter"],
    )
    def test_matches_evolve_and_returns_state_at_zero(self, h, evolver):
        state = np.stack([random_state(h.n_sites, 1), random_state(h.n_sites, 2)], axis=1)
        step = propagator(h, state, evolver)
        assert step(0.0) is state
        for dt in (0.3, 1.7, 0.3):
            assert np.array_equal(step(dt), evolve(h, state, dt, evolver))
        with pytest.raises(ValueError, match="finite"):
            step(np.inf)


def dense_trotter(h, t, n_steps):
    """prod_steps prod_terms expm(-i c dt P), term by term on dense matrices."""
    from scipy.linalg import expm

    dt = t / n_steps
    step = np.eye(2**h.n_sites, dtype=complex)
    for term in h.terms:
        string = to_dense(OperatorSum((PauliTerm(1.0, term.factors),), h.n_sites))
        step = expm(-1j * term.coefficient * dt * string) @ step
    return np.linalg.matrix_power(step, n_steps)


def strings_commute(a, b):
    fa = dict(a.factors)
    return sum(1 for site, axis in b.factors if site in fa and fa[site] != axis) % 2 == 0


def span_size(run):
    """The number of diagonals of a run's fused op: the size of the GF(2)
    span of its flip masks."""
    span = {0}
    for term in run:
        span |= {f ^ term.masks()[0] for f in span}
    return len(span)


def total_diagonals(runs):
    return sum(span_size(run) for run in runs)


def commuting_runs(h):
    """Maximal runs of consecutive, mutually commuting terms, each of at most
    ``_FUSED_MASK_CAP`` diagonals: a valid split that ``_fused_runs`` must
    never do worse than."""
    runs = []
    for term in h.terms:
        if (
            runs
            and span_size(runs[-1] + [term]) <= evolution._FUSED_MASK_CAP
            and all(strings_commute(term, other) for other in runs[-1])
        ):
            runs[-1].append(term)
        else:
            runs.append([term])
    return runs


@st.composite
def pauli_sums(draw):
    """Random Pauli sums on at most 5 sites with a non-commuting adjacent pair."""
    n = draw(st.integers(1, 5))
    term = st.tuples(
        st.floats(-2, 2, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
        st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), min_size=1, max_size=n),
    )
    h = op(n, *draw(st.lists(term, min_size=2, max_size=8)))
    assume(any(not strings_commute(a, b) for a, b in zip(h.terms, h.terms[1:])))
    return h


class TestFusedTrotter:
    """Commuting runs applied as one op reproduce the term-by-term product."""

    @settings(max_examples=40, deadline=None)
    @given(pauli_sums(), st.floats(-2, 2, allow_nan=False), st.integers(1, 4), st.integers(0, 99))
    def test_random_sums_match_dense_product(self, h, t, n_steps, seed):
        u = dense_trotter(h, t, n_steps)
        evolver = Evolver("trotter1", n_steps)
        psi = random_state(h.n_sites, seed)
        assert np.max(np.abs(evolve(h, psi, t, evolver) - u @ psi)) < 1e-12
        block = np.stack([random_state(h.n_sites, seed + k) for k in range(3)], axis=1)
        assert np.max(np.abs(evolve(h, block, t, evolver) - u @ block)) < 1e-12

    @pytest.mark.parametrize(
        "h",
        [
            build_xxz(5, 0.7, 0.3, "open"),
            build_xxz(5, 0.7, 0.3, "periodic"),
            build_toric_code(2, 2, 1.0, 0.6),
            build_spin_boson(1.0, 1.3, 0.8, 0.4),
            op(5, *((0.4 + 0.1 * j, {j: "X"}) for j in range(5))),  # runs capped by masks
        ],
        ids=["xxz_open", "xxz_periodic", "toric_2x2", "spin_boson", "x_field"],
    )
    def test_models_match_dense_product(self, h):
        u = dense_trotter(h, 1.7, 6)
        psi = random_state(h.n_sites, 11)
        block = np.stack([random_state(h.n_sites, s) for s in range(3)], axis=1)
        assert np.max(np.abs(evolve(h, psi, 1.7, Evolver("trotter1", 6)) - u @ psi)) < 1e-12
        assert np.max(np.abs(evolve(h, block, 1.7, Evolver("trotter1", 6)) - u @ block)) < 1e-12

    @pytest.mark.parametrize(
        "h, terms, gathers",
        [
            (build_xxz(12, 0.5, 0.0, "periodic"), 36, 13),
            (build_xxz(12, 0.0, 0.75, "open"), 34, 11),
        ],
        ids=["fig2", "fig3a"],
    )
    def test_chain_fuses_to_eleven_ops(self, h, terms, gathers):
        # grouping by commutation takes 13 ops with 16 gathers (fig2) and 12 with 11 (fig3a)
        runs = _fused_runs(h)
        assert sum(len(run) for run in runs) == terms
        assert len(runs) == 11
        assert total_diagonals(runs) - len(runs) == gathers

    @pytest.mark.parametrize("name", ["fig2", "fig3a"])
    def test_runs_apply_the_terms_in_sorted_order(self, name):
        # trotter1 applies OperatorSum.terms, sorted by factors, not bond by
        # bond: fig2's step runs X0X1, X0X11, Y0Y1, Y0Y11, Z0Z1, Z0Z11, X1X2
        path = Path(__file__).resolve().parents[1] / "figures" / f"{name}.json"
        h = models.build_model(config_from_dict(json.loads(path.read_text())).model)
        assert tuple(term for run in _fused_runs(h) for term in run) == h.terms
        assert sorted(term.factors for term in h.terms) == [term.factors for term in h.terms]
        if name == "fig2":
            n = h.n_sites - 1
            first = [((0, a), (s, a)) for a in "XYZ" for s in (1, n)] + [((1, "X"), (2, "X"))]
            assert [term.factors for term in h.terms[:7]] == first

    def test_terms_grouped_once_per_propagator(self, monkeypatch):
        h = build_xxz(5, 0.7, 0.3, "periodic")
        psi = ground_state(h)
        schedule = PulseSchedule([(op(5, (1.0, {2: "X"})), [0.0])])
        calls = {"_fused_runs": 0, "_trotter_evolve": 0}
        for name in calls:
            original = getattr(evolution, name)

            def spy(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(evolution, name, spy)
        # the kick at t = 0 starts one propagator, which serves all three times
        driven_signal(h, schedule, [0.3], op(5, (1.0, {2: "Z"})), [0.5, 1.0, 1.5], TROTTER10, psi)
        assert calls == {"_fused_runs": 1, "_trotter_evolve": 3}
        # a propagator stepped only by dt = 0 never splits the terms
        evolution.propagator(h, psi, TROTTER10)(0.0)
        assert calls["_fused_runs"] == 1

    @settings(max_examples=60, deadline=None)
    @given(pauli_sums())
    def test_span_runs_never_need_more_diagonals_than_commuting_runs(self, h):
        runs = _fused_runs(h)
        assert [term for run in runs for term in run] == list(h.terms)
        assert all(total_diagonals([run]) <= evolution._FUSED_MASK_CAP for run in runs)
        assert total_diagonals(runs) <= total_diagonals(commuting_runs(h))


def parity_sum(draw, n, even_flips, even_phases):
    """A random sum of 1-8 Pauli strings on n >= 2 sites, each flipping an
    even number of sites if ``even_flips`` and with an even number of Y and Z
    factors if ``even_phases``.  Both hold by construction, with nothing
    filtered: the last site's bit of such a mask is the parity of the
    others', and a string that comes out as the identity becomes Z0 Z1."""

    def mask(even):
        rest = draw(st.integers(0, 2 ** (n - 1) - 1))
        return rest | (rest.bit_count() % 2 if even else draw(st.integers(0, 1))) << (n - 1)

    terms = []
    for _ in range(draw(st.integers(1, 8))):
        flips, phases = mask(even_flips), mask(even_phases)
        phases = phases if flips | phases else 0b11
        axes = {i: (flips >> i & 1) + 2 * (phases >> i & 1) for i in range(n)}
        factors = {i: "_XZY"[axis] for i, axis in axes.items() if axis}
        coefficient = draw(st.one_of(st.floats(-2, -1e-3), st.floats(1e-3, 2)))
        terms.append((coefficient, factors))
    return op(n, *terms)


@st.composite
def flip_even_sums(draw):
    """Random Pauli sums on 2-6 sites whose every term has an even number of
    Y and Z factors, so commutes with the global flip F = prod_i X_i."""
    return parity_sum(draw, draw(st.integers(2, 6)), even_flips=False, even_phases=True)


def flip_symmetric(n, sign, seed):
    """w + sign * F w, normalized: F psi = sign * psi holds exactly."""
    w = random_state(n, seed)
    psi = w + sign * w[::-1]
    return psi / np.linalg.norm(psi)


def full_route_only(h):
    """A stand-in for ``_parities`` under which no column is folded or
    mirrored: every column takes the full route."""
    return False, False


def cut_figure_run(name, tmp_path, monkeypatch):
    """The Trotter column layouts of a bundled figure's run on 3 time points,
    and the (sign, rows) of every fused op it builds."""
    path = Path(__file__).resolve().parents[1] / "figures" / f"{name}.json"
    raw = json.loads(path.read_text())
    raw["time_grid"] = dict(raw["time_grid"], points=3)
    layouts, builds = [], []
    trotter_evolve, fused_op = evolution._trotter_evolve, evolution._fused_op

    def layout_spy(h, amps, t, evolver, layout, runs):
        layouts.append(layout)
        return trotter_evolve(h, amps, t, evolver, layout, runs)

    def build_spy(run, dt, n_sites, sign):
        built = fused_op(run, dt, n_sites, sign)
        builds.append((sign, built[0].size))
        return built

    monkeypatch.setattr(evolution, "_trotter_evolve", layout_spy)
    monkeypatch.setattr(evolution, "_fused_op", build_spy)
    run_experiment(config_from_dict(raw), output_dir=tmp_path)
    assert layouts and builds
    return layouts, builds


class TestFlipSector:
    """Trotter columns in a sector of F = prod_i X_i propagate half the
    amplitudes and unfold to the full route's bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        flip_even_sums(),
        st.floats(-2, 2, allow_nan=False),
        st.integers(1, 4),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3),
        st.integers(0, 99),
    )
    def test_folded_equals_full_route_bitwise(self, h, t, n_steps, signs, seed):
        evolver = Evolver("trotter1", n_steps)
        states = [flip_symmetric(h.n_sites, s, seed + k) for k, s in enumerate(signs)]
        u = dense_trotter(h, t, n_steps)
        for amps in (states[0], np.stack(states, axis=1)):
            expected_signs = tuple(signs[: 1 if amps.ndim == 1 else len(signs)])
            layout = evolution._column_layout(h, amps)
            assert layout == tuple((k, s) for k, s in enumerate(expected_signs))
            folded = evolve(h, amps, t, evolver)
            with mock.patch.object(evolution, "_parities", full_route_only):
                full = evolve(h, amps, t, evolver)
            assert np.array_equal(folded, full)
            assert np.max(np.abs(folded - u @ amps)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(flip_even_sums(), st.floats(-2, 2, allow_nan=False), st.sampled_from([1, -1]))
    def test_half_build_is_lower_half_of_full_build(self, h, dt, sign):
        # a gather with the top bit reads the mirrored row, with the sign in its diagonal
        half = 2 ** (h.n_sites - 1)
        d0, gathers = _fused_op(h.terms, dt, h.n_sites, 0)
        h0, half_gathers = _fused_op(h.terms, dt, h.n_sites, sign)
        assert np.array_equal(h0, d0[:half])
        assert len(half_gathers) == len(gathers)
        for (index, d), (half_index, half_d) in zip(gathers, half_gathers):
            top = index[0] & half  # index[0] = 0 ^ f
            assert np.array_equal(half_index, index[:half] ^ (2 * half - 1 if top else 0))
            assert np.array_equal(half_d, sign * d[:half] if top else d[:half])

    def test_route_selection(self):
        chain = build_xxz(6, 0.7, 0.0, "periodic")
        even, odd = flip_symmetric(6, 1, 3), flip_symmetric(6, -1, 4)
        asymmetric = random_state(6, 5)
        assert evolution._column_layout(chain, even) == ((0, 1),)
        assert evolution._column_layout(chain, odd) == ((0, -1),)
        assert evolution._column_layout(chain, asymmetric) == ((0, 0),)
        # a Z field anticommutes with F: every column takes the full route
        fielded = build_xxz(6, 0.7, 0.3, "periodic")
        assert evolution._column_layout(fielded, np.stack([even, odd], axis=1)) == ((0, 0), (1, 0))
        # a block decides column by column, and each column sees the
        # single-state propagator
        block = np.stack([even, asymmetric, odd], axis=1)
        assert evolution._column_layout(chain, block) == ((0, 1), (1, 0), (2, -1))
        out = evolve(chain, block, 1.3, TROTTER10)
        for k in range(3):
            assert np.array_equal(out[:, k], evolve(chain, block[:, k], 1.3, TROTTER10))
        # the sign-0 class builds on all rows, the others on the half: the full route's bits
        with mock.patch.object(evolution, "_parities", full_route_only):
            assert np.array_equal(out, evolve(chain, block, 1.3, TROTTER10))
        u = dense_trotter(chain, 1.3, 10)
        assert np.max(np.abs(out - u @ block)) < 1e-12

    def test_symmetry_within_tolerance_folds(self):
        chain = build_xxz(6, 0.7, 0.0, "periodic")
        psi = flip_symmetric(6, 1, 3)
        nudge = np.zeros_like(psi)
        nudge[0] = 1e-14
        assert evolution._column_layout(chain, psi + nudge) == ((0, 1),)
        nudge[0] = 1e-11
        assert evolution._column_layout(chain, psi + nudge) == ((0, 0),)

    def test_commutator_oracle_folds_odd_kets(self, monkeypatch):
        chain = build_xxz(6, 0.7, 0.0, "periodic")
        pump, readout = op(6, (0.8, {2: "Z"})), op(6, (1.0, {3: "Z"}))
        pulses, grid = [(pump, 0.0)] * 2, [0.0, 0.4, 1.1]
        psi0 = flip_symmetric(6, 1, 8)
        seen = []
        original = evolution._trotter_evolve

        def spy(h, amps, t, evolver, layout, runs):
            seen.extend(sign for k, (j, sign) in enumerate(layout) if j == k)
            return original(h, amps, t, evolver, layout, runs)

        monkeypatch.setattr(evolution, "_trotter_evolve", spy)
        folded = nested_commutator_prefixes(chain, readout, pulses, grid, psi0, TROTTER10)
        # the F-odd pump makes the once-kicked ket odd, the twice-kicked even
        assert set(seen) == {1, -1}
        monkeypatch.setattr(evolution, "_parities", full_route_only)
        full = nested_commutator_prefixes(chain, readout, pulses, grid, psi0, TROTTER10)
        assert np.array_equal(folded, full)
        assert np.max(np.abs(folded[1])) > 1e-2

    def test_cut_fig2_takes_folded_route(self, tmp_path, monkeypatch):
        layouts, builds = cut_figure_run("fig2", tmp_path, monkeypatch)
        # the kicked ground state is flip-even in every shift configuration;
        # each -eta shift mirrors its +eta partner, so 7 of 11 columns propagate
        for layout in layouts:
            propagated = [sign for k, (j, sign) in enumerate(layout) if j == k]
            assert len(layout) == 11 and propagated == [1] * 7
        # so every fused op is built on the half of sign +1, none on all 2**12 rows
        assert set(builds) == {(1, 2**11)}


@st.composite
def z_even_sums(draw):
    """Random Pauli sums on 2-7 sites whose every term flips an even number
    of sites, so commutes with the parity P = prod_i Z_i; about half of them
    also commute with F = prod_i X_i, so that folded columns are mirrored."""
    n, also_flip_even = draw(st.integers(2, 7)), draw(st.booleans())
    return parity_sum(draw, n, even_flips=True, even_phases=also_flip_even)


def parity(n):
    """P = prod_i Z_i as its diagonal of signs (-1)^popcount(x)."""
    return np.where(np.bitwise_count(np.arange(2**n)) % 2, -1.0, 1.0)


class TestMirrorColumns:
    """A Trotter column that equals s P times an earlier propagated column is
    read off that column's result, with the full route's bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        z_even_sums(),
        st.floats(-2, 2, allow_nan=False),
        st.integers(1, 3),
        st.lists(
            st.tuples(
                st.sampled_from(["random", "flip+", "flip-", "mirror+", "mirror-"]),
                st.integers(0, 9),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 99),
    )
    def test_mirrored_equals_full_route_bitwise(self, h, t, n_steps, kinds, seed):
        n = h.n_sites
        columns, expected = [], []
        for k, (kind, pick) in enumerate(kinds):
            sources = [j for j, (j_source, _) in enumerate(expected) if j_source == j]
            if kind.startswith("mirror") and sources:
                j, s = sources[pick % len(sources)], (1 if kind == "mirror+" else -1)
                columns.append(s * parity(n) * columns[j])
                expected.append((j, s))
                continue
            if kind.startswith("flip"):
                sign = 1 if kind == "flip+" else -1
                columns.append(flip_symmetric(n, sign, seed + k))
            else:
                sign = 0
                columns.append(random_state(n, seed + k))
            expected.append((k, sign if evolution._parities(h)[0] else 0))
        block = np.stack(columns, axis=1)
        assert evolution._column_layout(h, block) == tuple(expected)
        evolver = Evolver("trotter1", n_steps)
        mirrored = evolve(h, block, t, evolver)
        with mock.patch.object(evolution, "_parities", full_route_only):
            assert all(j == k for k, (j, _) in enumerate(evolution._column_layout(h, block)))
            full = evolve(h, block, t, evolver)
        assert np.array_equal(mirrored, full)
        assert np.max(np.abs(mirrored - dense_trotter(h, t, n_steps) @ block)) < 1e-12

    def test_mirror_tolerance_and_field(self):
        chain = build_xxz(6, 0.7, 0.3, "periodic")
        psi = random_state(6, 3)
        nudge = np.zeros_like(psi)
        for size, expected in ((1e-14, ((0, 0), (0, -1))), (1e-9, ((0, 0), (1, 0)))):
            nudge[5] = size
            block = np.stack([psi, -parity(6) * psi + nudge], axis=1)
            assert evolution._column_layout(chain, block) == expected
        # an X field flips one site: it does not commute with P
        fielded = chain + op(6, (0.4, {2: "X"}))
        block = np.stack([psi, parity(6) * psi, -parity(6) * psi], axis=1)
        assert evolution._column_layout(fielded, block) == ((0, 0), (1, 0), (2, 0))
        out = evolve(chain, block, 0.9, TROTTER10)
        assert np.array_equal(out[:, 2], -parity(6) * out[:, 0])
        assert np.max(np.abs(out - dense_trotter(chain, 0.9, 10) @ block)) < 1e-12

    def test_cut_fig3a_mirrors_one_column(self, tmp_path, monkeypatch):
        layouts, _ = cut_figure_run("fig3a", tmp_path, monkeypatch)
        # the +eta and -eta kicks of X3 on the sector-2 ground state are mirrors
        for layout in layouts:
            assert len(layout) == 3
            assert sum(j == k for k, (j, _) in enumerate(layout)) == 2


class TestKick:
    def test_zero_amplitude(self):
        psi = random_state(2, 0)
        b = op(2, (1.0, {0: "X"}))
        assert np.array_equal(apply_kick(b, 0.0, psi), psi)

    def test_quarter_pi_x(self):
        b = op(1, (1.0, {0: "X"}))
        psi = basis_state(1, 0)
        out = apply_kick(b, np.pi / 2, psi)
        assert np.allclose(out, [0, -1j], atol=1e-12)

    def test_eighth_pi_x(self):
        b = op(1, (1.0, {0: "X"}))
        psi = basis_state(1, 0)
        out = apply_kick(b, np.pi / 4, psi)
        assert np.allclose(out, np.array([1, -1j]) / np.sqrt(2), atol=1e-12)

    def test_composition(self):
        b = build_pump(PumpSpec("cosine_profile", momentum=1), 4)
        psi = random_state(4, 2)
        once = apply_kick(b, 0.7, psi)
        twice = apply_kick(b, 0.4, apply_kick(b, 0.3, psi))
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_noncommuting_generator_support_path(self):
        # X1 + Z1 does not factorize; it takes the generator's spectral plan
        b = op(3, (1.0, {1: "X"}), (1.0, {1: "Z"}))
        psi = random_state(3, 4)
        out = apply_kick(b, 0.9, psi)
        from scipy.linalg import expm

        ref = expm(-0.9j * to_dense(b)) @ psi
        assert np.max(np.abs(out - ref)) < 1e-12
        assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_string_pump_on_many_sites(self):
        b = op(6, (1.0, {0: "X", 3: "Z", 5: "Y"}))
        psi = random_state(6, 8)
        out = apply_kick(b, 1.1, psi)
        from scipy.linalg import expm

        ref = expm(-1.1j * to_dense(b)) @ psi
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize(
        "b",
        [
            op(4, (1.0, {1: "X"}), (0.7, {1: "Z"}), (0.4, {0: "Y", 2: "Y"})),
            # an XY chain conserves sum_i Z_i on 10 sites, and its cosets
            # (2 cosets of 512) exceed its largest sector: the plan's popcount sectors
            op(10, *(term for i in range(9) for term in (
                (1.0, {i: "X", i + 1: "X"}), (1.0, {i: "Y", i + 1: "Y"}))), (0.6, {1: "Z"})),
        ],
        ids=["cosets", "sectors"],
    )
    def test_noncommuting_block_kick_matches_expm(self, b):
        from scipy.linalg import expm

        dense = to_dense(b)
        block = np.stack([random_state(b.n_sites, s) for s in range(3)], axis=1)
        etas = np.array([0.3, 0.0, -1.2])
        spy = mock.patch.object(
            _SpectralPlan, "to_eigenbasis", autospec=True, side_effect=_SpectralPlan.to_eigenbasis
        )
        with spy as projections:
            out = apply_kick(b, etas, block)
        assert projections.call_count == 1  # one projection, one phase per column
        assert len(_spectral_plan(b).groups) == (11 if b.n_sites == 10 else 1)
        kicks = {eta: expm(-1j * eta * dense) for eta in etas.tolist()}
        for k, eta in enumerate(etas.tolist()):
            assert np.max(np.abs(out[:, k] - kicks[eta] @ block[:, k])) < 1e-12
        shared = apply_kick(b, -1.2, block)
        assert np.max(np.abs(shared - kicks[-1.2] @ block)) < 1e-12

    def test_noncommuting_kick_beyond_dense_cap(self):
        # exact evolution under B: refused on more than DENSE_SITE_CAP
        # register sites, however small the support, as exact evolution is
        psi = basis_state(13, 0)
        with pytest.raises(DimensionCapError):
            apply_kick(op(13, (1.0, {0: "X"}), (1.0, {0: "Z"})), 0.1, psi)
        # a commuting sum still factorizes at any register size
        out = apply_kick(op(13, (1.0, {0: "X"}), (1.0, {12: "Z"})), np.pi / 2, psi)
        assert abs(out[1]) == pytest.approx(1.0)


class TestSchedule:
    def test_times_must_ascend(self):
        b = op(2, (1.0, {0: "X"}))
        with pytest.raises(ScheduleError):
            PulseSchedule([(b, [1.0, 0.5])])

    def test_simultaneous_noncommuting_rejected(self):
        bx = op(1, (1.0, {0: "X"}))
        bz = op(1, (1.0, {0: "Z"}))
        with pytest.raises(ScheduleError):
            PulseSchedule([(bx, [0.0]), (bz, [0.0])])

    def test_simultaneous_commuting_allowed(self):
        bx0 = op(2, (1.0, {0: "X"}))
        bx1 = op(2, (1.0, {1: "X"}))
        sched = PulseSchedule([(bx0, [0.0]), (bx1, [0.0])])
        assert sched.n_channels == 2

    def test_events_ordering(self):
        b = op(2, (1.0, {0: "X"}))
        c = op(2, (1.0, {1: "X"}))
        sched = PulseSchedule([(b, [0.0, 2.0]), (c, [1.0])])
        assert sched.events() == [(0.0, 0), (1.0, 1), (2.0, 0)]


class TestDrivenSignal:
    def test_zero_amplitude_is_unperturbed(self):
        h = build_xxz(3, 1.0, 0.4)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        grid = np.linspace(0, 4, 9)
        sig = driven_signal(h, PulseSchedule([(b, [0.0])]), [0.0], a, grid, EXACT, psi)
        flat = expectation(a, psi)
        assert np.max(np.abs(sig - flat)) < 1e-12

    def test_free_hamiltonian_conjugation(self):
        # H = 0, B = X, A = Z on |0>: <Z>_eta = cos(2 eta) at every time
        h = OperatorSum((), 1)
        b = op(1, (1.0, {0: "X"}))
        a = op(1, (1.0, {0: "Z"}))
        psi = basis_state(1, 0)
        grid = np.linspace(0, 3, 7)
        for eta in (0.0, 0.4, 1.1):
            sig = driven_signal(h, PulseSchedule([(b, [0.0])]), [eta], a, grid, EXACT, psi)
            assert np.max(np.abs(sig - np.cos(2 * eta))) < 1e-12

    def test_causality(self):
        h = build_xxz(3, 0.9, 0.3)
        psi = ground_state(h)
        b = op(3, (1.0, {1: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        sched = PulseSchedule([(b, [2.5])])
        grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        weak = driven_signal(h, sched, [0.1], a, grid, EXACT, psi)
        strong = driven_signal(h, sched, [0.9], a, grid, EXACT, psi)
        early = grid < 2.5
        assert np.max(np.abs(weak[early] - strong[early])) < 1e-14
        assert np.max(np.abs(weak[~early] - strong[~early])) > 1e-4

    def test_nonfinite_grid_rejected(self):
        h = build_xxz(3, 0.9, 0.3)
        psi = ground_state(h)
        b = op(3, (1.0, {1: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        with pytest.raises(ScheduleError, match="finite"):
            driven_signal(h, PulseSchedule([(b, [0.0])]), [0.1], a, [0, 1, np.inf], EXACT, psi)

    def test_pulse_after_grid_rejected(self):
        h = build_xxz(3, 0.9, 0.3)
        psi = ground_state(h)
        b = op(3, (1.0, {1: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        with pytest.raises(ScheduleError):
            driven_signal(h, PulseSchedule([(b, [9.0])]), [0.1], a, [0, 1, 2], EXACT, psi)

    def test_periodicity_in_amplitude(self):
        # generator with integer spectrum scaled by g=2: period pi
        h = build_xxz(3, 0.5, 0.2)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {0: "X"}))
        sched = PulseSchedule([(b, [0.0])])
        grid = np.linspace(0, 2, 5)
        base = driven_signal(h, sched, [0.3], a, grid, EXACT, psi)
        shifted = driven_signal(h, sched, [0.3 + np.pi], a, grid, EXACT, psi)
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_two_zero_amplitude_channels(self):
        h = build_xxz(3, 1.0, 0.4)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        sched = PulseSchedule([(b, [0.0]), (b, [1.0])])
        grid = np.linspace(0, 4, 9)
        sig = driven_signal(h, sched, [0.0, 0.0], a, grid, EXACT, psi)
        assert np.max(np.abs(sig - sig[0])) < 1e-12

    def test_trotter_measurement_restarts_from_checkpoint(self):
        # the trotterized signal at time t must not depend on earlier grid
        # points: compare a full grid against a single-point evaluation
        h = build_xxz(4, 0.3, 0.6)
        psi = ground_state(h)
        b = op(4, (1.0, {1: "X"}))
        a = op(4, (1.0, {2: "Z"}))
        sched = PulseSchedule([(b, [0.0])])
        grid = np.linspace(0, 3, 13)
        full = driven_signal(h, sched, [0.4], a, grid, TROTTER10, psi)
        single = driven_signal(h, sched, [0.4], a, [grid[7]], TROTTER10, psi)
        assert abs(full[7] - single[0]) < 1e-14


def stacked(h, sched, etas, a, grid, evolver, psi):
    """K single-configuration calls, one row each."""
    return np.stack([driven_signal(h, sched, row, a, grid, evolver, psi) for row in etas])


class TestBlockSignal:
    """(K, L) amplitudes propagate as one block and equal K separate calls."""

    @pytest.mark.parametrize(
        "n, evolver, grid",
        [
            (4, EXACT, np.linspace(0, 3, 7)),
            (10, EXACT, np.linspace(0, 0.6, 3)),  # magnetization-sector route
            (4, TROTTER10, np.linspace(0, 3, 7)),
        ],
        ids=["eigh", "sector", "trotter1"],
    )
    def test_block_equals_stacked_calls(self, n, evolver, grid):
        h = build_xxz(n, 0.7, 0.3)
        psi = ground_state(h)
        b = op(n, (1.0, {1: "X"}))
        a = op(n, (1.0, {1: "Z"}), (0.5, {2: "Z"}))
        sched = PulseSchedule([(b, [0.0])])
        etas = np.array([[-0.9], [0.0], [0.25], [1.3]])
        block = driven_signal(h, sched, etas, a, grid, evolver, psi)
        assert block.shape == (4, grid.size)
        assert np.max(np.abs(block - stacked(h, sched, etas, a, grid, evolver, psi))) < 1e-12

    @pytest.mark.parametrize("evolver", [EXACT, TROTTER10], ids=["exact", "trotter1"])
    def test_two_channels_and_kick_at_measurement_time(self, evolver):
        h = build_xxz(3, 0.9, 0.3)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        c = op(3, (0.5, {1: "Y"}), (0.5, {2: "Y"}))
        a = op(3, (1.0, {1: "Z"}))
        # the second channel fires exactly at the grid time 1.0
        sched = PulseSchedule([(b, [0.0, 1.5]), (c, [1.0])])
        grid = np.array([0.5, 1.0, 1.5, 2.5])
        etas = np.array([[0.3, -0.2], [0.0, 0.7], [-1.1, 0.0], [0.4, 0.4]])
        block = driven_signal(h, sched, etas, a, grid, evolver, psi)
        assert np.max(np.abs(block - stacked(h, sched, etas, a, grid, evolver, psi))) < 1e-12

    def test_noncommuting_pump_support_plan(self):
        h = build_xxz(3, 0.6, 0.2)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}), (1.0, {0: "Z"}))
        a = op(3, (1.0, {0: "Y"}), (1.0, {2: "X"}))
        sched = PulseSchedule([(b, [0.0])])
        grid = np.linspace(0, 2, 5)
        etas = np.array([[-0.5], [0.0], [0.8]])
        block = driven_signal(h, sched, etas, a, grid, EXACT, psi)
        assert np.max(np.abs(block - stacked(h, sched, etas, a, grid, EXACT, psi))) < 1e-12

    @pytest.mark.parametrize("commuting", [True, False], ids=["product", "support"])
    def test_block_kick_per_column_amplitude(self, commuting):
        b = op(3, (1.0, {0: "X"}), (0.4, {2: "Z"}) if commuting else (0.4, {0: "Z"}))
        block = np.stack([random_state(3, s) for s in range(3)], axis=1)
        etas = np.array([0.2, 0.0, -1.4])
        out = apply_kick(b, etas, block)
        shared = apply_kick(b, 0.2, block)
        for k in range(3):
            assert np.max(np.abs(out[:, k] - apply_kick(b, etas[k], block[:, k]))) < 1e-12
            assert np.max(np.abs(shared[:, k] - apply_kick(b, 0.2, block[:, k]))) < 1e-12

    def test_expectation_per_column(self):
        a = op(3, (1.0, {0: "X", 1: "Y"}), (0.3, {2: "Z"}))
        block = np.stack([random_state(3, s) for s in range(4)], axis=1)
        values = expectation(a, block)
        assert values.shape == (4,)
        for k in range(4):
            assert values[k] == expectation(a, block[:, k].copy())

    @pytest.mark.parametrize("n, k", [(2, 1), (5, 27), (9, 3), (12, 11)])
    def test_expectation_per_column_at_block_sizes(self, n, k):
        a = op(n, (1.0, {0: "Z"}), (0.7, {n - 1: "X"}))
        block = np.stack([random_state(n, s) for s in range(k)], axis=1)
        values = expectation(a, block)
        assert all(values[j] == expectation(a, block[:, j].copy()) for j in range(k))

    def test_amplitude_shape_checked(self):
        h = build_xxz(3, 0.9, 0.3)
        psi = ground_state(h)
        b = op(3, (1.0, {0: "X"}))
        a = op(3, (1.0, {1: "Z"}))
        sched = PulseSchedule([(b, [0.0])])
        with pytest.raises(ScheduleError):
            driven_signal(h, sched, np.zeros((3, 2)), a, [0.0, 1.0], EXACT, psi)
        with pytest.raises(ScheduleError):
            driven_signal(h, sched, np.zeros((0, 1)), a, [0.0, 1.0], EXACT, psi)
        with pytest.raises(ValueError):
            apply_kick(b, [0.1, 0.2], np.stack([psi] * 3, axis=1))


class TestBlockInitialStates:
    """A (dim, K) psi0 block starts configuration row k from column k."""

    ETAS = np.array([[0.3, -0.2], [0.0, 0.7], [-1.1, 0.0], [0.4, 0.4]])

    @pytest.mark.parametrize(
        "n, evolver",
        [(3, EXACT), (10, EXACT), (3, TROTTER10)],
        ids=["cosets", "sectors", "trotter1"],
    )
    def test_columns_equal_single_state_calls(self, n, evolver):
        h = build_xxz(n, 0.9, 0.3)
        b = op(n, (1.0, {0: "X"}))
        c = op(n, (0.5, {1: "Y"}), (0.5, {2: "Y"}))
        a = op(n, (1.0, {1: "Z"}))
        sched = PulseSchedule([(b, [0.0, 1.5]), (c, [1.0])])
        grid = np.array([0.5, 1.0, 1.5, 2.5])  # the kick at 1.0 is a grid time
        block = np.stack([random_state(n, s) for s in range(4)], axis=1)
        states = list(driven_states(h, sched, self.ETAS, grid, evolver, block))
        signal = driven_signal(h, sched, self.ETAS, a, grid, evolver, block)
        for k, row in enumerate(self.ETAS):
            single = driven_states(h, sched, row, grid, evolver, block[:, k])
            for got, want in zip(states, single, strict=True):
                assert np.max(np.abs(got[:, k] - want)) < 1e-14
            want = driven_signal(h, sched, row, a, grid, evolver, block[:, k])
            assert np.max(np.abs(signal[k] - want)) < 1e-14

    def test_bad_blocks_rejected(self):
        h = build_xxz(3, 0.9, 0.3)
        sched = PulseSchedule([(op(3, (1.0, {0: "X"})), [0.0])])
        a = op(3, (1.0, {1: "Z"}))
        etas = np.array([[0.3], [-0.5], [0.0]])
        block = np.stack([random_state(3, s) for s in range(3)], axis=1)
        drifted = block.copy()
        drifted[:, 1] *= 1.0 + 1e-10
        cases = [
            (drifted, etas),  # one column off by 1e-10 in norm
            (block[:, :2], etas),  # fewer columns than configuration rows
            (np.hstack([block, block[:, :1]]), etas),  # more columns
            (block, etas[0]),  # no configuration rows at all
            (block[:4], etas),  # columns of the wrong length
        ]
        for psi0, amplitudes in cases:
            with pytest.raises(ValueError, match="psi0 block"):
                driven_signal(h, sched, amplitudes, a, [0.0, 1.0], EXACT, psi0)
        # a block within the bound passes
        block[:, 1] *= 1.0 + 1e-13
        driven_signal(h, sched, etas, a, [0.0, 1.0], EXACT, block)
