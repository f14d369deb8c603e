"""Higher-level diagnostics built on the propagation and shift-rule engines.

Entanglement entropy and its pump-amplitude expansion, toric-code style
pump-probe correlators with channel contrast and principal-axis slopes, and
the three-pulse protocol whose double Fourier transform gives a 2D optical
spectrum.

The pump-probe correlator follows the block convention of ``evolution``: a
(K,) array of pump amplitudes is kicked and propagated as one (dim, K) block,
one column per amplitude, and it takes whole (t1, t2) grids, so every
shifted sample of every cell and the contrast references come from a single
call with a single kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evolution import (
    EXACT,
    Evolver,
    PulseSchedule,
    _one_blas_thread,
    apply_kick,
    check_initial_state,
    driven_signal,
    driven_states,
    propagator,
)
from .pauli import OperatorSum, apply_operator, partial_trace
from .reference import nested_commutator_series
from .response import MultiIndex, shift_configurations
from .shift_rules import ShiftRule, rule_for_generator


class AnalysisError(ValueError):
    """Invalid input to one of the diagnostic routines."""


@dataclass(frozen=True, eq=False)
class PointCloud2D:
    """A set of (x, y) samples, e.g. paired response orders over a sweep."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise AnalysisError("point cloud must be an (n >= 2, 2) array")
        if not np.all(np.isfinite(pts)):
            raise AnalysisError("point cloud must be finite")
        if np.allclose(pts, pts[0]):
            raise AnalysisError("point cloud is a single repeated point")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def entanglement_entropy(state: np.ndarray, block_size: int) -> float:
    """Von Neumann entropy (natural log) of the first ``block_size`` sites.

    A pure state's block and complement share their nonzero spectrum, so it
    is taken from the smaller side: the block's reduced density matrix, or,
    for a block larger than half the register, the Gram matrix of the
    complement's rows of the (rest, block) reshaped amplitudes.  The Gram
    product and the eigensolve run on one BLAS thread, so the entropy does
    not depend on the machine's thread count.
    """
    amps = np.asarray(state, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    if amps.shape != (2**n,):
        raise AnalysisError("a state holds 2**N amplitudes")
    if not 1 <= block_size < n:
        raise AnalysisError(f"block size must be in [1, {n - 1}]")
    with _one_blas_thread():
        if 2 * block_size <= n:
            rho = partial_trace(amps, range(block_size))
        else:
            # rows: the complement's high bits; columns: the block, site 0 being the LSB
            rest = amps.reshape(-1, 2**block_size)
            rho = rest @ rest.conj().T
        evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log(evals)))


@dataclass(frozen=True, eq=False)
class EntropyExpansion:
    """Polynomial coefficients of S(eta) about eta = 0 from a symmetric grid,
    with the entropy sampled at each grid amplitude."""

    coefficients: np.ndarray
    condition_number: float
    residual: float
    entropies: np.ndarray

    def __post_init__(self):
        for name in ("coefficients", "entropies"):
            values = np.asarray(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


_FIT_CONDITION_LIMIT = 1e10


def entropy_expansion(
    h: OperatorSum,
    pump: OperatorSum,
    psi0: np.ndarray,
    eta_grid: Sequence[float],
    t: float,
    block_size: int,
    max_order: int,
    evolver: Evolver = EXACT,
) -> EntropyExpansion:
    """Least-squares fit S(eta) = sum_n S^(n) eta^n after kick-and-evolve.

    Entropy is a nonlinear functional of the state, so this is a polynomial
    fit on a symmetric amplitude grid rather than a shift-rule evaluation;
    the Vandermonde conditioning is reported and guarded.  ``driven_states``
    kicks at 0 and gives the states at t >= 0, the grid as one block.
    ``psi0`` must be one normalized state (``evolution.check_initial_state``).
    """
    etas = np.asarray(eta_grid, dtype=float)
    if etas.size < max_order + 1:
        raise AnalysisError("eta grid must have at least max_order + 1 points")
    if np.max(np.abs(etas + etas[::-1])) > 1e-12 * max(1.0, np.max(np.abs(etas))):
        raise AnalysisError("eta grid must be symmetric about 0")
    psi = check_initial_state(h, psi0)
    (states,) = driven_states(h, PulseSchedule([(pump, [0.0])]), etas[:, None], [t], evolver, psi)
    # contiguous rows, so each entropy rounds as a single state's
    entropies = [entanglement_entropy(row, block_size) for row in np.ascontiguousarray(states.T)]
    scale = float(np.max(np.abs(etas)))
    design = np.vander(etas / scale, max_order + 1, increasing=True)
    cond = float(np.linalg.cond(design))
    if cond > _FIT_CONDITION_LIMIT:
        raise AnalysisError(f"entropy fit is ill-conditioned (cond {cond:.2e})")
    scaled, res, *_ = np.linalg.lstsq(design, entropies, rcond=None)
    coeffs = scaled / scale ** np.arange(max_order + 1)
    residual = float(np.sqrt(np.mean((design @ scaled - entropies) ** 2)))
    return EntropyExpansion(coeffs, cond, residual, entropies)


def pump_probe_correlator(
    h: OperatorSum,
    pump: OperatorSum,
    probe_1: OperatorSum,
    probe_2: OperatorSum,
    t_1,
    t_2,
    eta,
    psi0: np.ndarray,
    evolver: Evolver = EXACT,
) -> complex | np.ndarray:
    """C(t1, t2; eta) = <psi0| e^{i eta B} A2(t1+t2) A1(t1) e^{-i eta B} |psi0>.

    The probes are Heisenberg operators with respect to the unperturbed
    Hamiltonian; the result is generally complex.  Scalar times and a scalar
    ``eta`` give a complex number.  A (T1,) ``t_1`` grid, a (T2,) ``t_2``
    grid and a (K,) ``eta`` array each add an axis, in that order: arrays of
    all three give (T1, T2, K) values.  The pump is kicked once, for all K
    amplitudes as one (dim, K) block; one propagator from the kicked state
    serves ket(t1) and bra(t1 + t2), and one per t1 the probed ket.
    ``psi0`` must be one normalized state (``evolution.check_initial_state``).
    """
    t1s = np.asarray(t_1, dtype=float)
    t2s = np.asarray(t_2, dtype=float)
    eta = np.asarray(eta, dtype=float)
    psi = check_initial_state(h, psi0)
    if eta.ndim == 1:
        psi = np.repeat(psi[:, None], eta.size, axis=1)
    from_phi = propagator(h, apply_kick(pump, eta, psi), evolver)
    values = np.empty((t1s.size, t2s.size, *eta.shape), dtype=complex)
    for i, t1 in enumerate(t1s.flat):
        from_probe = propagator(h, apply_operator(probe_1, from_phi(t1)), evolver)
        for j, t2 in enumerate(t2s.flat):
            ket = apply_operator(probe_2, from_probe(t2))
            values[i, j] = (from_phi(t1 + t2).conj() * ket).sum(axis=0)
    values = values.reshape(t1s.shape + t2s.shape + eta.shape)
    return complex(values) if values.ndim == 0 else values


def correlator_order_expansion(
    samples: np.ndarray,
    rule: ShiftRule,
    orders: Sequence[int],
    eta: float,
) -> dict[int, np.ndarray]:
    """C^(n) = (eta^n / n!) d^n C / d eta^n at 0, from the correlator sampled
    at ``rule.shifts`` along the last axis of ``samples``.

    Leading axes (a (T1, T2) grid of cells, say) are kept: each order's array
    has the shape of ``samples`` without its last axis, 0-d for one cell.
    The shift rule is applied separately to the real and imaginary parts of
    the samples, and each part is scaled by eta^n / n! as a real number, so
    every cell rounds as it would alone.
    """
    samples = np.asarray(samples, dtype=complex)
    # np.dot contracts an array of three or more axes one cell at a time with
    # the BLAS dot, as it does a single cell; on two axes it would call a
    # matrix-vector product, which sums in another order
    parts = samples.real[None, None], samples.imag[None, None]
    out: dict[int, np.ndarray] = {}
    for n in orders:
        n = int(n)
        c, scale = rule.coefficients[n], eta**n
        value = np.empty(samples.shape[:-1], dtype=complex)
        value.real, value.imag = (np.dot(p, c)[0, 0] * scale / math.factorial(n) for p in parts)
        out[n] = value
    return out


#: reference correlator magnitude at or below which ``contrast_ratio`` gives NaN
_CONTRAST_FLOOR = 1e-10


def contrast_ratio(c_kappa, c_zero) -> complex | np.ndarray:
    """R = C(kappa)/C(0) - 1, elementwise over matching arrays (or scalars);
    NaN + NaNj where |C(0)| is at or below ``_CONTRAST_FLOOR``."""
    c_kappa, c_zero = np.asarray(c_kappa, dtype=complex), np.asarray(c_zero, dtype=complex)
    kept = np.abs(c_zero) > _CONTRAST_FLOOR
    ratio = c_kappa / np.where(kept, c_zero, 1.0) - 1.0
    return np.where(kept, ratio, complex(np.nan, np.nan))[()]


def pca_slope(cloud: PointCloud2D) -> float:
    """Total-least-squares slope: the leading principal axis of the cloud.

    The eigenvector is oriented to positive x; a vertical principal axis
    returns +inf, and an isotropic cloud (degenerate eigenvalues) is
    rejected as directionless.
    """
    pts = cloud.points - cloud.points.mean(axis=0)
    cov = pts.T @ pts / pts.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    scale = max(evals[-1], 1e-300)
    if (evals[-1] - evals[0]) <= 1e-12 * scale:
        raise AnalysisError("isotropic point cloud: principal axis undefined")
    v = evecs[:, -1]
    if abs(v[0]) <= 1e-300 * abs(v[1]):
        return float("inf")
    if v[0] < 0:
        v = -v
    return float(v[1] / v[0])


#: the reconstruction routes of ``third_order_2dos``
S3_METHODS = ("shift_rule", "oracle")


def third_order_2dos(
    h: OperatorSum,
    observable: OperatorSum,
    pump: OperatorSum,
    t_2: float,
    t1_grid: Sequence[float],
    t3_grid: Sequence[float],
    psi0: np.ndarray,
    evolver: Evolver = EXACT,
    method: str = "shift_rule",
) -> np.ndarray:
    """Absorptive third-order signal S^(3)(t1, t3) for the three-pulse protocol.

    Three identical kicks act at 0, t1, and t1 + t2 and <A> is read out at
    t1 + t2 + t3.  The returned array is the causal third-order response
    i^3 <[[[A(t1+t2+t3), B(t1+t2)], B(t1)], B(0)]>, which for Hermitian A and
    B is real and equals the imaginary part of the bare triple-commutator
    matrix element.

    ``method`` selects the reconstruction route: "shift_rule" differentiates the
    three-amplitude driven signal with one shift rule per pulse, "oracle"
    evaluates the nested commutator directly, row by row; both agree to
    rounding.  The shift rule takes every row with t1 > 0 and t2 > 0 in two
    ``driven_states`` passes: the first kicks at 0 and gives the state at
    each distinct t1 for each distinct first shift; the second starts from
    the (dim, T1 K) block of those states, one column per (t1, shift
    configuration), kicks at 0 and t2 and reads out at t2 + t3.  Under
    Trotter evolution the segments are t1, t2 and t3 as in one pass.  Rows
    with coincident pulses (t1 = 0, or every row when t2 = 0) take the
    commutator route, which handles the equal-time step functions
    unambiguously.
    """
    if t_2 < 0:
        raise AnalysisError("waiting time t_2 must be nonnegative")
    t1s = np.asarray(t1_grid, dtype=float)
    t3s = np.asarray(t3_grid, dtype=float)
    if np.any(t1s < 0) or np.any(t3s < 0):
        raise AnalysisError("t1 and t3 grids must be nonnegative")
    if method not in S3_METHODS:
        raise AnalysisError(f"unknown method {method!r}")
    out = np.empty((t1s.size, t3s.size))
    by_commutator = s3_commutator_rows(t_2, t1s, method)
    for i in np.flatnonzero(by_commutator):
        pulses = [(pump, t1s[i] + t_2), (pump, t1s[i]), (pump, 0.0)]
        out[i] = nested_commutator_series(h, observable, pulses, t1s[i] + t_2 + t3s, psi0, evolver)
    if not by_commutator.all():
        out[~by_commutator] = _shift_rule_rows(
            h, observable, pump, t_2, t1s[~by_commutator], t3s, psi0, evolver
        )
    return out


def s3_commutator_rows(t_2: float, t1_grid: Sequence[float], method: str) -> np.ndarray:
    """Per t1 of ``third_order_2dos``, whether its row takes the commutator
    route: every row under "oracle" or when t_2 = 0, else the rows with
    t1 = 0.  The other rows take the shift rule (``s3_shift_rule``)."""
    t1s = np.asarray(t1_grid, dtype=float)
    return t1s == 0 if method == "shift_rule" and t_2 > 0 else np.full(t1s.size, True)


def s3_shift_rule(pump: OperatorSum) -> ShiftRule:
    """The rule of each pulse on the "shift_rule" route of ``third_order_2dos``:
    order 1 on the pump's gap set."""
    return rule_for_generator(pump, [1])


def _shift_rule_rows(h, observable, pump, t_2, t1s, t3s, psi0, evolver) -> np.ndarray:
    """The (T1, T3) shift-rule rows of ``third_order_2dos`` for t1 > 0 and
    t2 > 0, in two ``driven_states`` passes."""
    rule = s3_shift_rule(pump)
    configs, weights = shift_configurations({0: rule, 1: rule, 2: rule}, MultiIndex([1, 1, 1]))
    active = weights != 0.0
    configs, weights = configs[active], weights[active]
    # np.unique without return_inverse would import numpy.ma on first use
    firsts, first_of = np.unique(configs[:, 0], return_inverse=True)
    t1u, row_of = np.unique(t1s, return_inverse=True)
    t23, cell_of = np.unique(t_2 + t3s, return_inverse=True)
    kicked = driven_states(h, PulseSchedule([(pump, [0.0])]), firsts[:, None], t1u, evolver, psi0)
    # column (i, k): configuration k's first kick, propagated to the i-th t1
    block = np.concatenate([states[:, first_of] for states in kicked], axis=1)
    etas = np.tile(configs[:, 1:], (t1u.size, 1))
    schedule = PulseSchedule([(pump, [0.0]), (pump, [t_2])])
    signal = driven_signal(h, schedule, etas, observable, t23, evolver, block)
    # each derivative is of first order, so no factorial divides the sum
    rows = weights @ signal.reshape(t1u.size, weights.size, t23.size)
    return rows[np.ix_(row_of, cell_of)]
