"""Time propagation, impulsive kicks, and driven-signal evaluation.

The driven protocol is: prepare |psi_0>, then alternate free evolution under
H_0 with instantaneous kicks exp(-i eta_a B_a) at the scheduled pulse times,
and measure <A> at each grid time.  Free evolution between two consecutive
events is performed by a single evolver call; with the first-order Trotter
evolver this segmentation is part of the propagator's definition, and the
commutator reference in `reference` uses the identical segmentation so the
two routes agree to rounding error.

Kicks scheduled exactly at a measurement time are applied before measuring;
pulses after the measurement time are ignored.

A state is a complex amplitude array, as in ``pauli``.  Every function that
takes a state also takes a (dim, K) block of K independent states, such as
the K shift configurations that share one pulse schedule; the configuration
axis is always the trailing one.  Exact evolution propagates the whole block
at once; first-order Trotter evolution loops over the columns, each column
seeing exactly the single-state propagator, except that a column mirroring
an earlier one is read off that one's result (see below).  Kicks take one
amplitude per block or one per column; a kick whose generator B has
non-commuting terms is exact evolution under B for the time eta, on B's own
spectral plan.
``driven_states`` and ``driven_signal`` start either from one initial state
shared by every configuration or from a (dim, K) block of initial states,
column k for configuration k: the 2D spectrum carries the states of its
first pass, one per (t1, configuration), into the second pass that way.

Exact evolution follows one spectral plan per Hamiltonian, built on first use
and cached (the one per-Hamiltonian cache: ``verify_experiment`` reads the
plan its run built): groups of invariant blocks of H, each group a (C, m) array of
basis indices (one block per row), its blocks read from H's per-flip-mask
diagonals and diagonalized by one batched ``eigh``.  The plan is one group of
cosets: a Pauli string maps |x> to |x ^ f> for its flip mask f, so H has no
entries between the cosets x ^ S of the GF(2) span S of its flip masks
(rank r), and the basis splits into 2**(n - r) blocks of 2**r (the 2x2 toric
code: 32 blocks of 8; the 2x3 toric code: 128 blocks of 32; a full span: one
dense block).  Only above 9 sites, when H commutes with sum_i Z_i and its
cosets are larger than its largest popcount sector (XXZ chains in a Z field),
is each popcount sector a group of one block instead.  A group
whose blocks have exactly zero imaginary part keeps real eigenvectors,
applied to the gathered complex (C, m, K) states as one batched real GEMM on
their float64 (C, m, 2K) view.
A group on which a state's amplitudes are all exactly zero stays zero, and is
neither transformed nor propagated: an exact run's ground state read off the
plan (``models.ground_state``) lies in one block, so on a 10-site chain a
state kicked on one site reaches 3 of the 11 sectors.
The plan's batched ``eigh`` and its block GEMMs (``to_eigenbasis``,
``propagate``) run on one OpenBLAS thread (``_one_blas_thread``), so exact
evolution gives the same bits under any thread count, and no woken thread
pool spins idle after them.
``propagator(h, state)`` is the one place that picks the route: for exact
evolution it projects a state into the eigenbasis once, and every later
time then costs phases and one back-transform.  ``evolve`` is a propagator
used for a single time, so both give bitwise the same values.
``driven_states`` builds one propagator per segment (after each checkpoint or
kick), serving every grid time of the segment and the next pulse time; the
pump-probe correlator builds one from the kicked state and one per probed
state.

First-order Trotter evolution splits the terms into runs of consecutive
terms, each applied as one fused op: the run's product of rotations in term
order, expanded once per propagation into one diagonal per mask in the span
of its flip masks.  The split is the one with the fewest diagonals in total
(``_fused_runs``), made once per propagator; the terms of a run need not
commute.  The product formula, and so the Trotter error, is unchanged; only
rounding differs from applying the rotations one by one.
``propagator`` decides one column layout per segment (``_column_layout``)
from the two symmetries that ``_parities`` reads off the terms of H:
- When every term of H has an even number of Y and Z factors, H commutes
  with the global flip F = prod_i X_i, which maps psi to ``psi[::-1]``.  A
  column with ||psi[half:][::-1] - s psi[:half]|| <= 1e-12 ||psi|| for
  s = +1 or -1 stays in that sector, and propagates only its 2**(n-1)
  amplitudes with the top bit 0; it is unfolded as [low, s * low[::-1]].
- When every term of H flips an even number of sites, H commutes with the
  parity P = prod_i Z_i, which multiplies psi[x] by (-1)**popcount(x).  A
  column with ||psi_k - s P psi_j|| <= 1e-12 ||psi_k|| for an earlier
  propagated column j and s = +1 or -1 is not propagated: its result is
  s P times column j's.  The +eta and -eta shifts of an X or Y pump on a
  ground state of fixed parity are such pairs.
The propagated columns of one flip sign s (0 for the full route) form one
column class, and each class gets its own fused ops (``_fused_op``): built
on all rows for s = 0, and on the lower half only for s = +1 or -1, with s
folded into the diagonals that read across the top bit.
On exactly flip-symmetric and exactly mirrored columns this gives the same
bits as propagating every column in full.  Readouts are still computed by
``expectation`` on the unfolded state.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .pauli import (
    DENSE_SITE_CAP,
    DimensionCapError,
    OperatorSum,
    PauliTerm,
    _phase_signs,
    _xor_index,
    along_rows,
    commutator_norm,
    dense_block,
    expectation,
    flip_diagonals,
    terms_commute_pairwise,
)

EVOLVER_KINDS = ("exact", "trotter1")

#: exact evolution of an H that conserves sum_i Z_i diagonalizes its popcount
#: sectors above this many sites and its flip-mask cosets up to it (an XXZ
#: chain's cosets are its two parity classes; on small registers the many
#: sector blocks propagate slower than the cosets)
_EIGH_SITE_CAP = 9


class ScheduleError(ValueError):
    """Invalid pulse schedule (ordering, commutation, or grid consistency)."""


@dataclass(frozen=True)
class Evolver:
    """Propagation method: exact eigenbasis phases or first-order Trotter.

    ``trotter1`` applies (prod_k exp(-i H_k t/n))^n in ``OperatorSum.terms``
    order (sorted by factors); each evolver call uses ``n_steps`` steps for
    its full duration.
    """

    kind: str = "exact"
    n_steps: int = 0

    def __post_init__(self):
        if self.kind not in EVOLVER_KINDS:
            raise ValueError(f"unknown evolver kind {self.kind!r}")
        if self.kind == "trotter1" and self.n_steps < 1:
            raise ValueError("trotter1 requires n_steps >= 1")


EXACT = Evolver("exact")


def _real_matmul(real: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """real @ amps for complex (m, K) blocks (stacked or not), as one real
    GEMM per block on the float64 (m, 2K) view that interleaves real and
    imaginary parts."""
    return (real @ np.ascontiguousarray(amps).view(np.float64)).view(np.complex128)


def _from_block_basis(vectors: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """V c, with a real GEMM when V is real."""
    return _real_matmul(vectors, coeffs) if vectors.dtype == np.float64 else vectors @ coeffs


def _to_block_basis(vectors: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """V^dagger |psi>, with a real GEMM when V is real, else as
    conj(V^T conj(psi)): no dense copy of V per call."""
    if vectors.dtype == np.float64:
        return _real_matmul(vectors.mT, amps)
    return (vectors.mT @ amps.conj()).conj()


#: the OpenBLAS thread-count calls, one (get, set) pair per symbol family
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS behind numpy's linear
    algebra, or None where no known symbol is found; looked up once, on the
    first pin."""
    import ctypes

    from numpy.linalg import _umath_linalg

    # a handle on the extension module resolves the symbols of the libraries
    # it links, numpy's bundled OpenBLAS among them
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for family in _OPENBLAS_SYMBOLS:
        get, put = (getattr(lib, family.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def blas_pin_unavailable() -> bool:
    """Whether a one-thread pin was wanted in this process and no OpenBLAS
    thread-count symbols were found (the calls then ran at the default count)."""
    return _openblas_thread_calls.cache_info().currsize > 0 and _openblas_thread_calls() is None


@contextmanager
def _one_blas_thread():
    """Run the block's BLAS and LAPACK calls on one OpenBLAS thread and restore
    the previous count afterwards.

    A threaded ``eigh`` rounds differently from a serial one, so the spectral
    plan's blocks would depend on the machine's thread count; and on blocks
    this small a woken pool gains no wall time while its idle worker spins
    for the rest of the run.  Where no symbol is found this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _block_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a Hermitian block or stack of blocks, on one BLAS thread; an
    exactly real stack keeps real vectors."""
    with _one_blas_thread():
        return np.linalg.eigh(matrix if matrix.imag.any() else matrix.real)


@dataclass(frozen=True, eq=False)
class _SpectralPlan:
    """exp(-i H t) for exact evolution and non-commuting kicks, built once per operator.

    ``groups`` holds (rows, values, vectors) triples, one per stack of
    invariant blocks of H: ``rows`` is a (C, m) array of basis indices, one
    block per row, ``values`` (C, m) the blocks' eigenvalues and ``vectors``
    (C, m, m) their eigenbases.  The rows of all groups partition the basis.
    """

    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def to_eigenbasis(self, amps: np.ndarray) -> list[np.ndarray]:
        """Per group, the (C, m, K) eigenbasis coefficients of a state
        (K = 1) or a (dim, K) block: one gather and one batched GEMM.  A
        group whose gathered amplitudes are all exactly zero (``_reaches``)
        is not transformed: its entry is an empty (0, 0, K) array."""
        flat = amps.reshape(amps.shape[0], -1)
        coeffs = []
        with _one_blas_thread():
            for rows, _, vectors in self.groups:
                gathered = flat[rows]
                if _reaches(gathered):
                    coeffs.append(_to_block_basis(vectors, gathered))
                else:
                    coeffs.append(gathered[:0, :0])
        return coeffs

    def propagate(self, coeffs: list[np.ndarray], t) -> np.ndarray:
        """exp(-i H t), t shared or (K,) with one per column, applied to the
        state whose eigenbasis coefficients ``to_eigenbasis`` returned, as a
        (dim, K) array: batched phases, one batched back-transform per group,
        and zeros on the rows of a group the state does not reach."""
        dim = sum(rows.size for rows, _, _ in self.groups)
        out = np.zeros((dim, coeffs[0].shape[-1]), dtype=complex)
        with _one_blas_thread():
            for (rows, values, vectors), c in zip(self.groups, coeffs):
                if c.size:
                    out[rows] = _from_block_basis(vectors, np.exp(-1j * values[..., None] * t) * c)
        return out


def _reaches(gathered: np.ndarray) -> bool:
    """Whether a state reaches a group of the plan: any of its amplitudes
    there is nonzero.  Zero amplitudes stay exactly zero under the group's
    block, so an unreached group is written as zeros without a GEMM."""
    return bool(gathered.any())


def _span_basis(flips: Iterable[int]) -> list[int]:
    """A GF(2) basis of the span of the flip masks, one mask per leading bit,
    in descending order."""
    basis: list[int] = []
    for f in flips:
        for b in basis:
            f = min(f, f ^ b)
        if f:
            basis = sorted(basis + [f], reverse=True)
    return basis


def _coset_rows(n_sites: int, basis: Sequence[int]) -> np.ndarray:
    """The basis split into the cosets x ^ S of the span S of a flip-mask
    ``_span_basis``, one coset per row: a (2**(n - r), 2**r) array for rank
    r, each coset ascending, cosets ordered by their smallest index.  A
    Hamiltonian with these flip masks has no entries between cosets."""
    # clearing every leading bit maps x to the smallest index of its coset
    smallest = np.arange(2**n_sites)
    for b in basis:
        smallest = np.minimum(smallest, smallest ^ b)
    return np.argsort(smallest, kind="stable").reshape(-1, 2 ** len(basis))


def _conserves_popcount(n_sites: int, diagonals: dict[int, np.ndarray]) -> bool:
    """Whether the operator with these ``flip_diagonals`` commutes with
    sum_i Z_i: every nonzero entry D_f[x] = H[x, x ^ f] joins two basis
    states of equal popcount."""
    x = np.arange(2**n_sites, dtype=np.uint64)
    popcount = np.bitwise_count(x)
    return all(
        np.all((diagonal == 0) | (np.bitwise_count(x ^ np.uint64(f)) == popcount))
        for f, diagonal in diagonals.items()
    )


@lru_cache(maxsize=6)
def _spectral_plan(h: OperatorSum) -> _SpectralPlan:
    """One group per popcount sector when H conserves sum_i Z_i, has more
    than ``_EIGH_SITE_CAP`` sites and coset blocks larger than its largest
    sector, C(n, n // 2); otherwise one group of flip-mask cosets (an H
    whose flip masks span the whole space is one dense block).  Whether H
    conserves sum_i Z_i is read off the same ``flip_diagonals``
    (``_conserves_popcount``), from which every block is read and
    diagonalized by one batched ``eigh`` per group."""
    n = h.n_sites
    if n > DENSE_SITE_CAP:
        raise DimensionCapError(f"spectral plan of {n} sites exceeds cap {DENSE_SITE_CAP}")
    diagonals = flip_diagonals(h)
    basis = _span_basis(diagonals)
    if (
        n > _EIGH_SITE_CAP
        and 2 ** len(basis) > math.comb(n, n // 2)
        and _conserves_popcount(n, diagonals)
    ):
        popcount = np.bitwise_count(np.arange(2**n, dtype=np.uint64))
        order = np.argsort(popcount, kind="stable")
        edges = np.append(0, np.cumsum(np.bincount(popcount)))
        groups = [order[None, a:b] for a, b in zip(edges, edges[1:])]
    else:
        groups = [_coset_rows(n, basis)]
    return _SpectralPlan(
        tuple((rows, *_block_eigh(dense_block(diagonals, rows))) for rows in groups)
    )


def _apply_string_rotation(
    masks: tuple[int, int, int], angle, amps: np.ndarray, n_sites: int
) -> np.ndarray:
    """exp(-i angle P) |psi> for a single Pauli string P (P^2 = 1) given by
    its ``PauliTerm.masks()``; ``angle`` may hold one value per block column."""
    flip, phase, y_count = masks
    scale = -1j * np.sin(angle) * (1j) ** y_count
    signed = amps if phase == 0 else amps * along_rows(_phase_signs(n_sites, phase), amps)
    applied = signed if flip == 0 else signed[_xor_index(n_sites, flip)]
    return np.cos(angle) * amps + scale * applied


#: a run stops growing before its fused op would need more diagonals than
#: this (n X fields alone would need 2**n)
_FUSED_MASK_CAP = 4


def _fused_runs(h: OperatorSum) -> tuple[tuple[PauliTerm, ...], ...]:
    """The terms split into runs of consecutive terms, in term order, each
    applied as one fused op; grouped once per Trotter propagator, not once
    per propagation.

    A run's fused op has one diagonal per mask in the GF(2) span of its flip
    masks, at most ``_FUSED_MASK_CAP``.  Of all such splits this takes the
    one with the fewest diagonals in total, then the fewest gathers (the
    diagonals of nonzero masks, each an indexed read on top of a
    multiply-add), by an O(terms**2) dynamic program.
    ``_fused_op`` expands any run exactly in term order, so the terms
    of a run need not commute (a bond's XX, YY and ZZ share one flip mask, a
    run of Z fields has none)."""
    terms = h.terms
    # cost[j]: (diagonals, gathers) of the best split of the first j terms,
    # whose last run starts at start[j]
    cost = [(0, 0)] + [(math.inf, math.inf)] * len(terms)
    start = [0] * (len(terms) + 1)
    for j in range(1, len(terms) + 1):
        span = {0}
        for i in range(j - 1, -1, -1):
            flip = terms[i].masks()[0]
            span |= {f ^ flip for f in span}
            if len(span) > _FUSED_MASK_CAP:
                break
            total = (cost[i][0] + len(span), cost[i][1] + len(span) - 1)
            if total < cost[j]:
                cost[j], start[j] = total, i
    runs = []
    j = len(terms)
    while j:
        runs.append(terms[start[j] : j])
        j = start[j]
    return tuple(reversed(runs))


def _fused_op(run: Sequence[PauliTerm], dt: float, n_sites: int, sign: int):
    """prod_k exp(-i c_k dt P_k) in term order, which maps psi to
    sum_f D_f * psi[x ^ f], for the columns of flip sign ``sign``: returns
    D_0 and a (gather index, D_f) pair for every other flip mask f.

    Sign 0 builds on all 2**n rows.  Sign s = +1 or -1 builds on the rows
    x < 2**(n-1) of a state with F psi = s psi, which needs every term
    flip-even (``_parities``): then D_f[~x] = D_f[x] bitwise at every stage
    of the expansion, so the half is the lower half of the full build
    bitwise, and a mask f with the top bit reads
    psi[x ^ f] = s psi[x ^ f ^ (2**n - 1)], a gather within the half with s
    folded into D_f."""
    folded = sign != 0
    half = 2 ** (n_sites - 1)
    rows, mirror = (half, 2 * half - 1) if folded else (2 * half, 0)

    def index(flip: int) -> np.ndarray:
        # folded, a flip with the top bit reads the mirrored row
        return _xor_index(n_sites - folded, flip ^ mirror if flip & half else flip)

    diagonals = {0: np.ones(rows, dtype=complex)}
    for term in run:
        flip, phase, y_count = term.masks()
        angle = term.coefficient * dt
        scale = -1j * np.sin(angle) * (1j) ** y_count
        fused: dict[int, np.ndarray] = {}
        for f, diagonal in diagonals.items():
            # P (D_f * psi[x ^ f]) = (P D_f) * psi[x ^ f ^ flip], P acting on D_f as on a state
            signed = diagonal if phase == 0 else diagonal * _phase_signs(n_sites, phase)[:rows]
            applied = signed if flip == 0 else signed[index(flip)]
            for g, part in ((f, np.cos(angle) * diagonal), (f ^ flip, scale * applied)):
                fused[g] = fused[g] + part if g in fused else part
        diagonals = fused
    d0 = diagonals.pop(0)
    return d0, [(index(f), sign * d if folded and f & half else d) for f, d in diagonals.items()]


def _parities(h: OperatorSum) -> tuple[bool, bool]:
    """(flip_even, z_even) of H, decided once per column layout.
    flip_even: every term has an even number of Y and Z factors, so H
    commutes with the global flip F = prod_i X_i.  z_even: every term flips
    an even number of sites, so H and every fused op commute with the parity
    P = prod_i Z_i (x and x ^ f have equal popcount parity for every flip
    mask f they read)."""
    masks = [term.masks() for term in h.terms]
    return (
        all(phase.bit_count() % 2 == 0 for _, phase, _ in masks),
        all(flip.bit_count() % 2 == 0 for flip, _, _ in masks),
    )


def _column_layout(h: OperatorSum, amps: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Per column k of a state or block, the pair (j, s) that says how Trotter
    evolution obtains it; every match holds within 1e-12 ||psi_k||.
    j < k: the column mirrors the propagated column j, psi_k = s P psi_j
    with the parity P = prod_i Z_i, and its result is s P times column j's.
    Mirrors are taken only when H is z-even (``_parities``), and only of the
    first such propagated column.  j == k: the column is propagated, in the
    flip sector F psi = s psi (F psi = ``psi[::-1]``) when H is flip-even
    and ||psi[half:][::-1] - s psi[:half]|| is within that bound for s = +1
    or -1, else with s = 0, the full route."""
    flip_even, z_even = _parities(h)
    columns = amps.reshape(amps.shape[0], -1).T
    half = amps.shape[0] // 2
    parity = _phase_signs(h.n_sites, 2**h.n_sites - 1)
    layout: list[tuple[int, int]] = []
    mirrors: dict[int, np.ndarray] = {}  # P psi_j of each propagated column j

    def sign_of(target: np.ndarray, source: np.ndarray, bound: float) -> int:
        # the first s of +1, -1 with ||target - s source|| <= bound, else 0
        return next((s for s in (1, -1) if np.linalg.norm(target - s * source) <= bound), 0)

    for k, psi in enumerate(columns):
        bound = 1e-12 * np.linalg.norm(psi)
        match = next(
            ((j, s) for j, mirror in mirrors.items() if (s := sign_of(psi, mirror, bound))), None
        )
        if match is None:
            match = (k, sign_of(psi[half:][::-1], psi[:half], bound) if flip_even else 0)
            if z_even:
                mirrors[k] = parity * psi
        layout.append(match)
    return tuple(layout)


def _trotter_evolve(
    h: OperatorSum,
    amps: np.ndarray,
    t: float,
    evolver: Evolver,
    layout: Sequence[tuple[int, int]],
    runs: Sequence[Sequence[PauliTerm]],
) -> np.ndarray:
    """First-order Trotter evolution of a state or of each column of a block,
    laid out by ``_column_layout``, with the terms split into ``runs``
    (``_fused_runs``).  Each flip sign among the propagated columns is one
    column class, with its own fused ops (``_fused_op``), built once per
    call: a column of sign s = +1 or -1 propagates its lower half and is
    unfolded as [low, s * low[::-1]]; one of sign 0 propagates all its
    amplitudes.  A mirrored column is s P times the result of its source
    column.

    On exactly flip-symmetric and exactly mirrored columns every route gives
    the same bits as propagating each column in full: a half build is the
    lower half of the full one bitwise, and the mirror multiplies every term
    of x's sum by the same sign s (-1)^popcount(x), since x and x ^ f have
    equal parity for every flip mask f of a fused op (and, at even n, for
    the top-bit fold)."""
    n = h.n_sites
    dt = t / evolver.n_steps
    signs = {sign for k, (j, sign) in enumerate(layout) if j == k}
    ops = {sign: [_fused_op(run, dt, n, sign) for run in runs] for sign in signs}

    def propagate(state: np.ndarray, sign: int) -> np.ndarray:
        if sign:
            state = state[: state.size // 2]
        for _ in range(evolver.n_steps):
            for diagonal, gathers in ops[sign]:
                out = diagonal * state
                for index, flipped in gathers:
                    out += flipped * state[index]
                state = out
        return np.concatenate([state, sign * state[::-1]]) if sign else state

    if amps.ndim == 1:
        return propagate(amps, layout[0][1])
    parity = _phase_signs(n, 2**n - 1)
    results: list[np.ndarray] = []
    for k, (column, (j, sign)) in enumerate(zip(amps.T, layout)):
        results.append(propagate(column, sign) if j == k else sign * parity * results[j])
    return np.stack(results, axis=1)


def evolve(h: OperatorSum, state: np.ndarray, t: float, evolver: Evolver = EXACT) -> np.ndarray:
    """Propagate |psi> (or every column of a block) by exp(-i H t) (exact) or
    its Trotter approximation."""
    out = propagator(h, state, evolver)(t)
    return out.copy() if t == 0.0 else out


def propagator(h: OperatorSum, state: np.ndarray, evolver: Evolver = EXACT):
    """dt -> the state (or block) propagated by exp(-i H dt) (exact) or its
    Trotter approximation; dt == 0 returns the state's amplitude array itself.

    For exact evolution the state is projected into the eigenbasis once, on
    the first nonzero dt, and every dt then costs phases and one
    back-transform.  Trotter restarts from ``state`` at every dt, with the
    column layout (``_column_layout``) and the runs of terms
    (``_fused_runs``) decided on the first nonzero dt: a
    column that mirrors an earlier one under P = prod_i Z_i within 1e-12 is
    not propagated but read off that column's result, and a flip-symmetric
    column propagates half its amplitudes.
    Returned arrays may be shared with the propagator and must not be
    modified.
    """
    amps = np.asarray(state, dtype=np.complex128)
    plan = _spectral_plan(h) if evolver.kind == "exact" else None
    coeffs = None  # the eigenbasis projection, made on first use
    layout = runs = None  # the Trotter column layout and runs, decided on first use

    def step(dt: float) -> np.ndarray:
        nonlocal coeffs, layout, runs
        if not np.isfinite(dt):
            raise ValueError("evolution time must be finite")
        if dt == 0.0:
            return amps
        if plan is None:
            if layout is None:
                layout, runs = _column_layout(h, amps), _fused_runs(h)
            return _trotter_evolve(h, amps, dt, evolver, layout, runs)
        if coeffs is None:
            coeffs = plan.to_eigenbasis(amps)
        return plan.propagate(coeffs, dt).reshape(amps.shape)

    return step


def apply_kick(b: OperatorSum, eta, state: np.ndarray) -> np.ndarray:
    """exp(-i eta B)|psi>, exactly; a (dim, K) block takes one amplitude for
    all columns or one per column.

    Mutually commuting term sums (single strings, site-local drives, cosine
    profiles) factorize into per-string rotations; any other generator is
    exact evolution under B for the time eta (``DimensionCapError`` above
    ``DENSE_SITE_CAP`` register sites).
    """
    amps = np.asarray(state, dtype=np.complex128)
    eta = np.asarray(eta, dtype=float)
    if eta.shape not in ((), amps.shape[1:]):
        raise ValueError("a block kick takes one amplitude, or one per column")
    eta = float(eta) if amps.ndim == 1 else np.broadcast_to(eta, amps.shape[1:])
    if not np.any(eta):
        return amps.copy()
    if not terms_commute_pairwise(b):
        plan = _spectral_plan(b)
        return plan.propagate(plan.to_eigenbasis(amps), eta).reshape(amps.shape)
    out = amps
    for term in b.terms:
        out = _apply_string_rotation(term.masks(), eta * term.coefficient, out, b.n_sites)
    return out


@dataclass(frozen=True)
class PulseSchedule:
    """L drive channels, each a generator with one shared amplitude and an
    ascending tuple of pulse times."""

    channels: tuple[tuple[OperatorSum, tuple[float, ...]], ...]

    def __init__(self, channels: Sequence[tuple[OperatorSum, Sequence[float]]]):
        normalized = []
        n_sites = None
        for generator, times in channels:
            times = tuple(float(t) for t in times)
            if not times:
                raise ScheduleError("each channel needs at least one pulse time")
            if any(not np.isfinite(t) for t in times):
                raise ScheduleError("pulse times must be finite")
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise ScheduleError("pulse times must be strictly ascending within a channel")
            if n_sites is None:
                n_sites = generator.n_sites
            elif generator.n_sites != n_sites:
                raise ScheduleError("all channel generators must share one register")
            normalized.append((generator, times))
        if not normalized:
            raise ScheduleError("schedule needs at least one channel")
        self._check_simultaneous(normalized)
        object.__setattr__(self, "channels", tuple(normalized))

    @staticmethod
    def _check_simultaneous(channels) -> None:
        by_time: dict[float, list[OperatorSum]] = {}
        for generator, times in channels:
            for t in times:
                by_time.setdefault(t, []).append(generator)
        for t, gens in by_time.items():
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    if commutator_norm(gens[i], gens[j]) > 1e-10:
                        raise ScheduleError(
                            f"simultaneous kicks at t={t} from non-commuting generators"
                        )

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_sites(self) -> int:
        return self.channels[0][0].n_sites

    def events(self) -> list[tuple[float, int]]:
        """All (time, channel) pulse events, ordered by time then channel."""
        out = []
        for a, (_, times) in enumerate(self.channels):
            out.extend((t, a) for t in times)
        out.sort()
        return out


def check_initial_state(h: OperatorSum, psi0: np.ndarray) -> np.ndarray:
    """``psi0`` as a complex array, checked to be one normalized state of
    2**N amplitudes for N = ``h.n_sites`` (``ValueError`` otherwise)."""
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.shape != (2**h.n_sites,) or abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValueError(f"psi0 must be one normalized state of {2**h.n_sites} amplitudes")
    return psi


def _initial_states(h: OperatorSum, psi0: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """The state ``driven_states`` starts from: ``psi0`` (checked by
    ``check_initial_state``), repeated once per row of a (K, L) ``etas``, or
    a (2**N, K) block of normalized columns, column k for row k."""
    psi = np.asarray(psi0, dtype=np.complex128)
    if psi.ndim != 2:
        psi = check_initial_state(h, psi)
        return psi.copy() if etas.ndim == 1 else np.repeat(psi[:, None], etas.shape[0], axis=1)
    dim = 2**h.n_sites
    if (
        etas.ndim != 2
        or psi.shape != (dim, etas.shape[0])
        or np.any(np.abs(np.linalg.norm(psi, axis=0) - 1.0) > 1e-12)
    ):
        raise ValueError(
            f"a psi0 block must hold one normalized state of {dim} amplitudes "
            "per configuration row of etas"
        )
    return psi.copy()


def driven_states(
    h: OperatorSum,
    schedule: PulseSchedule,
    etas,
    t_grid: Sequence[float],
    evolver: Evolver,
    psi0: np.ndarray,
) -> Iterator[np.ndarray]:
    """The kicked state at each grid time, in grid order.

    ``etas`` holds one amplitude per channel, shape (L,), or one row of
    amplitudes per shift configuration, shape (K, L); the states are then
    (dim, K) blocks whose column k is driven by row k.  The initial state is
    anchored at min(0, first pulse, first grid time); for H_0 eigenstates
    under exact evolution the anchor is immaterial.  Each measurement
    propagates afresh from the latest checkpoint, so the Trotterized signal
    is a well-defined function of the amplitudes.  Yielded arrays may be
    shared with the propagation and must not be modified.

    ``psi0`` is one normalized state of 2**N amplitudes (see
    ``check_initial_state``), shared by every configuration, or, with a
    (K, L) ``etas``, a (2**N, K) block whose column k is the initial state of
    row k, each column normalized to 1e-12 (``ValueError`` otherwise).  The
    response, decomposition, sampling and 2D paths all get their initial
    states checked here.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ScheduleError("empty time grid")
    if np.any(np.diff(grid) <= 0):
        raise ScheduleError("time grid must be strictly ascending")
    if not np.all(np.isfinite(grid)):
        raise ScheduleError("time grid must be finite")
    etas = np.asarray(etas, dtype=float)
    if etas.ndim not in (1, 2) or etas.shape[-1] != schedule.n_channels:
        raise ScheduleError("one amplitude per channel is required")
    if etas.ndim == 2 and etas.shape[0] == 0:
        raise ScheduleError("at least one shift configuration is required")
    state = _initial_states(h, psi0, etas)
    events = schedule.events()
    if events and events[-1][0] > grid[-1]:
        raise ScheduleError("pulses scheduled after the last measurement time")

    anchor = min(0.0, grid[0], events[0][0] if events else 0.0)
    tau = anchor
    segment = propagator(h, state, evolver)
    pending = list(events)
    for t in grid:
        while pending and pending[0][0] <= t:
            t_pulse, channel = pending.pop(0)
            state = segment(t_pulse - tau)
            tau = t_pulse
            generator, _ = schedule.channels[channel]
            state = apply_kick(generator, etas[..., channel], state)
            segment = propagator(h, state, evolver)
        yield segment(t - tau)


def driven_signal(
    h: OperatorSum,
    schedule: PulseSchedule,
    etas,
    observable: OperatorSum,
    t_grid: Sequence[float],
    evolver: Evolver,
    psi0: np.ndarray,
) -> np.ndarray:
    """<A(t)> under the kicked protocol, for each t in the grid.

    ``etas`` of shape (L,) gives a (G,) signal; (K, L) gives (K, G), one row
    per shift configuration, all propagated as one block from ``psi0`` or
    from column k of a (2**N, K) ``psi0`` block (see ``driven_states``).
    """
    states = driven_states(h, schedule, etas, t_grid, evolver, psi0)
    return np.stack([expectation(observable, state) for state in states], axis=-1)
