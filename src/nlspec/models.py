"""Hamiltonians, pump generators, observables and ground states.

Covers the XXZ chain, the toric code on a torus, a coherently coupled
two-level-system dimer, and a shared-mode (spin-boson style) three-qubit
model, plus the pump profiles used to drive them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .evolution import Evolver, _one_blas_thread, _spectral_plan
from .pauli import (
    DENSE_SITE_CAP,
    DimensionCapError,
    OperatorSum,
    PauliTerm,
    _xor_index,
    apply_operator,
    flip_diagonals,
    terms_commute_pairwise,
    to_dense,
)

MODEL_KINDS = ("xxz", "toric_code", "tls_dimer", "spin_boson")
PUMP_KINDS = ("local_pauli", "cosine_profile", "pauli_string")

_REQUIRED_PARAMS = {
    "xxz": ("n_sites", "delta", "h_field"),
    "toric_code": ("l_x", "l_y", "j_star", "j_plaquette"),
    "tls_dimer": ("omega_0", "omega_1", "j_exchange"),
    "spin_boson": ("omega_0", "omega_1", "omega_mode", "g_coupling"),
}

#: the parameters that count sites, which must be integral
_SIZE_PARAMS = ("n_sites", "l_x", "l_y")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description; the schema of CLI config files.

    ``parameters`` holds exactly its kind's parameters (``_REQUIRED_PARAMS``);
    only the ``xxz`` chain reads ``boundary``, the toric code being always
    periodic.
    """

    kind: str
    parameters: Mapping[str, float]
    boundary: str = "open"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "xxz" and self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        params = dict(self.parameters)
        unknown = sorted(set(params) - set(_REQUIRED_PARAMS[self.kind]))
        if unknown:
            raise ValueError(f"unknown parameter(s) {unknown} for kind {self.kind!r}")
        for name in _REQUIRED_PARAMS[self.kind]:
            if name not in params:
                raise ValueError(f"model kind {self.kind!r} requires parameter {name!r}")
            if not np.isfinite(params[name]):
                raise ValueError(f"parameter {name!r} must be finite")
            if name in _SIZE_PARAMS and not float(params[name]).is_integer():
                raise ValueError(f"parameter {name!r} must be an integer, not {params[name]!r}")
        object.__setattr__(self, "parameters", dict(params))

    def n_qubits(self) -> int:
        if self.kind == "xxz":
            return int(self.parameters["n_sites"])
        if self.kind == "toric_code":
            return 2 * int(self.parameters["l_x"]) * int(self.parameters["l_y"])
        if self.kind == "tls_dimer":
            return 2
        return 3


@dataclass(frozen=True)
class PumpSpec:
    """Drive-generator description: a local Pauli, a cosine-weighted sum of
    single-site Paulis, or an arbitrary Pauli string.

    For the cosine profile, ``sites`` restricts the drive to a subset of the
    register (e.g. the two-level systems but not a shared mode); the k-th
    listed site gets weight cos(2 pi momentum k / len(sites)).
    """

    kind: str
    site: int | None = None
    axis: str = "X"
    momentum: int | None = None
    sites: tuple[int, ...] = ()
    factors: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in PUMP_KINDS:
            raise ValueError(f"unknown pump kind {self.kind!r}")
        if self.kind == "local_pauli" and self.site is None:
            raise ValueError("local_pauli pump requires a site")
        if self.kind == "cosine_profile" and self.momentum is None:
            raise ValueError("cosine_profile pump requires a momentum index")
        if self.kind == "pauli_string" and not self.factors:
            raise ValueError("pauli_string pump requires factors")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "factors", tuple(sorted(dict(self.factors).items())))


def build_xxz(n_sites: int, delta: float, h_field: float, boundary: str = "open") -> OperatorSum:
    """H = (1/4) sum_<ij> (X_i X_j + Y_i Y_j + delta Z_i Z_j) - (h/2) sum_i Z_i."""
    if n_sites < 2:
        raise ValueError("XXZ chain needs at least 2 sites")
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == "periodic":
        bonds.append((n_sites - 1, 0))
    terms = []
    for i, j in bonds:
        terms.append(PauliTerm(0.25, {i: "X", j: "X"}))
        terms.append(PauliTerm(0.25, {i: "Y", j: "Y"}))
        terms.append(PauliTerm(0.25 * delta, {i: "Z", j: "Z"}))
    for i in range(n_sites):
        terms.append(PauliTerm(-0.5 * h_field, {i: "Z"}))
    return OperatorSum(terms, n_sites)


@dataclass(frozen=True)
class ToricLattice:
    """Edge indexing for an l_x x l_y torus with qubits on edges.

    Per plaquette row y the l_x horizontal edges come first, then the l_x
    vertical ones: h(x, y) = 2*l_x*y + x and v(x, y) = 2*l_x*y + l_x + x,
    periodic in both directions.
    """

    l_x: int
    l_y: int

    def __post_init__(self):
        if self.l_x < 2 or self.l_y < 2:
            raise ValueError("torus requires l_x, l_y >= 2")

    @property
    def n_qubits(self) -> int:
        return 2 * self.l_x * self.l_y

    def h_edge(self, x: int, y: int) -> int:
        return 2 * self.l_x * (y % self.l_y) + (x % self.l_x)

    def v_edge(self, x: int, y: int) -> int:
        return 2 * self.l_x * (y % self.l_y) + self.l_x + (x % self.l_x)

    def star_edges(self, x: int, y: int) -> tuple[int, ...]:
        return (
            self.h_edge(x, y),
            self.h_edge(x - 1, y),
            self.v_edge(x, y),
            self.v_edge(x, y - 1),
        )

    def plaquette_edges(self, x: int, y: int) -> tuple[int, ...]:
        return (
            self.h_edge(x, y),
            self.h_edge(x, y + 1),
            self.v_edge(x, y),
            self.v_edge(x + 1, y),
        )


def build_toric_code(l_x: int, l_y: int, j_star: float, j_plaquette: float) -> OperatorSum:
    """H = -J_A sum_v prod_{e in v} X_e - J_B sum_p prod_{e in p} Z_e."""
    lattice = ToricLattice(l_x, l_y)
    terms = []
    for y in range(l_y):
        for x in range(l_x):
            terms.append(PauliTerm(-j_star, {e: "X" for e in lattice.star_edges(x, y)}))
            terms.append(PauliTerm(-j_plaquette, {e: "Z" for e in lattice.plaquette_edges(x, y)}))
    return OperatorSum(terms, lattice.n_qubits)


def build_tls_dimer(omega_0: float, omega_1: float, j_exchange: float) -> OperatorSum:
    """Two coupled two-level systems: sum_i (omega_i/2) Z_i + J (XX + YY + ZZ)."""
    terms = [
        PauliTerm(0.5 * omega_0, {0: "Z"}),
        PauliTerm(0.5 * omega_1, {1: "Z"}),
        PauliTerm(j_exchange, {0: "X", 1: "X"}),
        PauliTerm(j_exchange, {0: "Y", 1: "Y"}),
        PauliTerm(j_exchange, {0: "Z", 1: "Z"}),
    ]
    return OperatorSum(terms, 2)


def build_spin_boson(omega_0: float, omega_1: float, omega_mode: float, g_coupling: float) -> OperatorSum:
    """Two uncoupled two-level systems sharing a two-level mode on qubit 2:
    sum_i (omega_i/2) Z_i + (omega_b/2) Z_b + g (Z_0 X_b + Z_1 X_b)."""
    terms = [
        PauliTerm(0.5 * omega_0, {0: "Z"}),
        PauliTerm(0.5 * omega_1, {1: "Z"}),
        PauliTerm(0.5 * omega_mode, {2: "Z"}),
        PauliTerm(g_coupling, {0: "Z", 2: "X"}),
        PauliTerm(g_coupling, {1: "Z", 2: "X"}),
    ]
    return OperatorSum(terms, 3)


def build_model(spec: ModelSpec) -> OperatorSum:
    p = spec.parameters
    if spec.kind == "xxz":
        return build_xxz(int(p["n_sites"]), p["delta"], p["h_field"], spec.boundary)
    if spec.kind == "toric_code":
        return build_toric_code(int(p["l_x"]), int(p["l_y"]), p["j_star"], p["j_plaquette"])
    if spec.kind == "tls_dimer":
        return build_tls_dimer(p["omega_0"], p["omega_1"], p["j_exchange"])
    return build_spin_boson(p["omega_0"], p["omega_1"], p["omega_mode"], p["g_coupling"])


def cosine_weights(n_sites: int, momentum: int) -> np.ndarray:
    """Drive weights f_i = cos(2*pi*momentum*i / n_sites), bit-reproducible."""
    i = np.arange(n_sites, dtype=float)
    return np.cos(2.0 * np.pi * momentum * i / n_sites)


def build_pump(spec: PumpSpec, n_sites: int) -> OperatorSum:
    if spec.kind == "local_pauli":
        return OperatorSum((PauliTerm(1.0, {int(spec.site): spec.axis}),), n_sites)
    if spec.kind == "cosine_profile":
        sites = spec.sites or tuple(range(n_sites))
        weights = cosine_weights(len(sites), int(spec.momentum))
        terms = tuple(
            PauliTerm(w, {site: spec.axis})
            for site, w in zip(sites, weights)
            if w != 0.0
        )
        return OperatorSum(terms, n_sites)
    return OperatorSum((PauliTerm(1.0, spec.factors),), n_sites)


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Fix the global phase so the largest-magnitude amplitude is real positive."""
    k = int(np.argmax(np.abs(amps)))
    phase = amps[k] / abs(amps[k])
    return amps / phase


def _stabilizer_projection(h: OperatorSum) -> np.ndarray | None:
    """Ground state of a commuting sum of negative-weighted Pauli strings.

    Projects |0...0> onto the +1 eigenspace of every string carrying a
    negative coefficient (so each term is minimized).  Returns None when the
    model is not of this form or the projection annihilates the seed state.
    """
    if not h.terms:
        return None
    for term in h.terms:
        if term.coefficient >= 0:
            return None
    if not terms_commute_pairwise(h):
        return None
    dim = 2**h.n_sites
    state = np.zeros(dim, dtype=np.complex128)
    state[0] = 1.0
    for term in h.terms:
        string = OperatorSum((PauliTerm(1.0, term.factors),), h.n_sites)
        state = 0.5 * (state + apply_operator(string, state))
        norm = np.linalg.norm(state)
        if norm < 1e-12:
            return None
        state = state / norm
    return _canonical_phase(state)


class GroundStateError(RuntimeError):
    """The Lanczos ground-state iteration did not converge within its cap."""


_DENSE_GROUND_CAP = 2**9

#: Lanczos steps before ``GroundStateError``; the 12-site fig3 chain, with a
#: gap of 1.5e-3, needs 128
_LANCZOS_CAP = 500
#: the Ritz residual is checked every this many Lanczos steps
_RITZ_CHECK_EVERY = 8
#: converged once the Ritz residual is below this times the largest |Ritz value|
_RITZ_TOL = 1e-13


def _lanczos_start(dim: int) -> np.ndarray:
    """The Lanczos start vector: the golden-ratio Weyl sequence
    frac((k + 1) * phi), read as the top 53 bits of (k + 1) * 0x9E3779B97F4A7C15
    mod 2**64, shifted to [-1/2, 1/2).

    Like a random draw it is generic: it overlaps every popcount sector and
    both parities of the global spin flip, where a uniform vector has no
    flip-odd part.  Unlike one it needs no generator, so ``numpy.random``
    stays unloaded unless a run samples.
    """
    bits = np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(11)
    return bits * 2.0**-53 - 0.5


def _lanczos_ground_state(h: OperatorSum) -> np.ndarray:
    """Lowest Ritz vector of H by Lanczos with full reorthogonalization.

    H is applied as sum_f D_f * psi[x ^ f] (``flip_diagonals``), in real
    arithmetic when every D_f is real.  The start vector is generic
    (``_lanczos_start``): a uniform one is the fully polarized S = N/2 state,
    orthogonal to the singlet ground state of SU(2)-symmetric chains.  Every
    reduction is an ``einsum``, which never reaches BLAS, and the Ritz values
    and lowest Ritz vector come from one ``eigh`` of the tridiagonal on one
    OpenBLAS thread (``_one_blas_thread``): the result does not depend on the
    BLAS thread count, and no BLAS worker is left spinning after the solve.
    """
    dim = 2**h.n_sites
    diagonals = flip_diagonals(h)
    weights = np.stack(list(diagonals.values()))  # row k is D_f for the k-th flip mask f
    real = not weights.imag.any()
    if real:
        weights = weights.real
    gather = np.stack([_xor_index(h.n_sites, f) for f in diagonals])

    cap = min(_LANCZOS_CAP, dim)
    basis = np.empty((cap + 1, dim), dtype=np.float64 if real else np.complex128)
    start = _lanczos_start(dim)
    basis[0] = start / math.sqrt(np.einsum("i,i->", start, start))
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(cap):
        w = (weights * basis[j][gather]).sum(axis=0)
        if j:
            w -= betas[-1] * basis[j - 1]
        alphas.append(float(np.einsum("i,i->", basis[j].conj(), w).real))
        w -= alphas[-1] * basis[j]
        # full reorthogonalization: the three-term recurrence leaves only
        # rounding-level overlaps with the earlier vectors, which one pass removes
        krylov = basis[: j + 1]
        w -= np.einsum("ki,k->i", krylov, np.einsum("ki,i->k", krylov, w.conj()).conj())
        beta = math.sqrt(np.einsum("i,i->", w.conj(), w).real)
        if beta == 0.0 or (j + 1) % _RITZ_CHECK_EVERY == 0 or j + 1 == cap:
            tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            with _one_blas_thread():
                values, vectors = np.linalg.eigh(tridiagonal)
            if beta * abs(vectors[-1, 0]) <= _RITZ_TOL * max(abs(values[0]), abs(values[-1])):
                return np.einsum("ki,k->i", krylov, vectors[:, 0])
        betas.append(beta)
        basis[j + 1] = w / beta
    raise GroundStateError(f"Lanczos ground state not converged after {cap} steps")


#: an exact run reads its ground state off the spectral plan only when the next
#: plan eigenvalue lies more than this times max(1, |E0|) above E0
_PLAN_GAP_TOL = 1e-9


def _plan_ground_state(h: OperatorSum) -> tuple[np.ndarray, float, float] | None:
    """(lowest eigenvector, E0, gap) of H's spectral plan, the vector in its
    block's rows and zero on every other row; None when the next plan
    eigenvalue lies within ``_PLAN_GAP_TOL`` of E0 (a degenerate ground space)."""
    plan = _spectral_plan(h)
    energies = np.concatenate([values.ravel() for _, values, _ in plan.groups])
    e0, e1 = np.partition(energies, 1)[:2]
    if e1 - e0 <= _PLAN_GAP_TOL * max(1.0, abs(e0)):
        return None
    rows, values, vectors = next(group for group in plan.groups if group[1].min() == e0)
    block, k = np.unravel_index(np.argmin(values), values.shape)
    amps = np.zeros(energies.size, dtype=np.complex128)
    amps[rows[block]] = vectors[block, :, k]
    return amps, float(e0), float(e1 - e0)


def ground_state(
    h: OperatorSum, evolver: Evolver | None = None, record: dict | None = None
) -> np.ndarray:
    """Deterministic lowest-energy eigenvector of the Hamiltonian, as a
    read-only complex amplitude array (one state every run shares).

    For a run whose ``evolver`` is exact, and when E0 is nondegenerate across
    the plan (``_PLAN_GAP_TOL``), it is the lowest eigenvector of the
    spectral plan that exact evolution builds for H anyway
    (``evolution._spectral_plan``): nonzero only in its block's rows, so
    propagation skips every block the run's states never reach.  Otherwise
    (no evolver, Trotter evolution, or a degenerate ground space) commuting
    all-negative Pauli sums (the toric code at its solvable point) use the
    stabilizer projection of |0...0>, and everything else is solved densely
    up to 2**9 amplitudes and by Lanczos above (``_lanczos_ground_state``,
    fixed start vector, ``GroundStateError`` if it does not converge).  The
    global phase is pinned by the largest amplitude.  The plan and Lanczos
    states do not depend on the BLAS thread count, since their ``eigh`` runs
    on one OpenBLAS thread; the dense ``eigh``'s pick in a degenerate ground
    space does.

    A ``record`` dict is filled with the ``route`` taken (``plan``,
    ``stabilizer``, ``dense`` or ``lanczos``) and, on the plan route, E0 as
    ``energy`` and the ``gap`` to the next plan eigenvalue.
    """
    if h.n_sites > DENSE_SITE_CAP:
        raise DimensionCapError(f"ground state for {h.n_sites} sites exceeds cap {DENSE_SITE_CAP}")
    solved = _plan_ground_state(h) if evolver is not None and evolver.kind == "exact" else None
    if solved is not None:
        route, (amps, energy, gap) = "plan", solved
    elif (amps := _stabilizer_projection(h)) is not None:
        route = "stabilizer"
    elif 2**h.n_sites <= _DENSE_GROUND_CAP:
        route, amps = "dense", np.linalg.eigh(to_dense(h))[1][:, 0]
    else:
        route, amps = "lanczos", _lanczos_ground_state(h).astype(np.complex128)
    if route != "stabilizer":  # the projection comes phase-pinned and normalized
        amps = _canonical_phase(amps)
        amps = amps / np.linalg.norm(amps)
    if record is not None:
        record["route"] = route
        if route == "plan":
            record.update(energy=energy, gap=gap)
    # every branch made a fresh complex array
    amps.flags.writeable = False
    return amps
