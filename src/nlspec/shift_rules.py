"""Spectral-gap sets, shift grids, and derivative reconstruction weights.

A kick generator B with eigenvalues {lambda_s} drives an expectation value
F(eta) = <exp(i eta B) A exp(-i eta B)> that is a finite Fourier series over
the signed gap set Omega = {lambda_s - lambda_s'}.  Derivatives of F at 0 are
then exact linear combinations of samples F(s_p): the weights c_p^(r) solve

    sum_p c_p^(r) exp(i omega s_p) = (i omega)^r   for every omega in Omega.

Three rule flavors are provided:

* ``full``   - one shift per signed gap (the default, exact for any order);
* ``odd``    - antisymmetric weights on +-s_p pairs, valid for odd orders,
               needing only one shift per positive gap;
* ``taylor`` - a truncated polynomial (finite-difference style) rule with a
               caller-chosen shift count, exact on polynomial signals only.
               This is the fallback when the gap set is incommensurate or
               too large to sample exhaustively.

Every flavor is one linear system per order, solved by ``_solve`` (condition
limit, exact or least-squares solve, residual and realness checks) in the one
order loop ``_rule``.  The grids are exactly antisymmetric and the gap sets
exactly symmetric, so the weights have exact parity, c[::-1] = (-1)^r c
(Wierichs et al., Quantum 6, 677 (2022)); ``_rule`` imposes it bitwise, and
an odd order puts exactly 0.0 on the shift at 0, which callers skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .evolution import _spectral_plan
from .pauli import OperatorSum, _project_to_support

#: eigenvalues and gaps closer than this are one
GAP_TOL = 1e-9
#: largest condition number of a shift system that is solved
CONDITION_LIMIT = 1e8
#: relative residual allowed on the defining linear system
RESIDUAL_TOL = 1e-9
#: gap-unit candidates smaller than max_gap / this are treated as spurious
_MAX_HARMONIC = 1e6


class ShiftRuleError(RuntimeError):
    """Shift-rule construction failed (singular, ill-conditioned, or infeasible)."""


@dataclass(frozen=True, eq=False)
class GapSet:
    """Signed spectral-difference set of a generator, 0 included.

    ``unit`` is the greatest common scale g when all gaps are integer
    multiples of g (commensurate spectrum), else None.
    """

    gaps: np.ndarray
    unit: float | None

    def __post_init__(self):
        gaps = np.asarray(self.gaps, dtype=float)
        gaps.flags.writeable = False
        object.__setattr__(self, "gaps", gaps)

    @property
    def positive(self) -> np.ndarray:
        return self.gaps[self.gaps > GAP_TOL]

    @property
    def max_gap(self) -> float:
        return float(np.max(np.abs(self.gaps))) if self.gaps.size else 0.0

    def __len__(self) -> int:
        return int(self.gaps.size)


def _dedup_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    values = np.sort(values)
    kept = [values[0]]
    for v in values[1:]:
        if v - kept[-1] > tol:
            kept.append(v)
    return np.asarray(kept)


def _harmonic(gap: float, base: float, tol: float) -> int | None:
    """Smallest q <= _MAX_HARMONIC with q * gap within tol of a multiple of base.

    Walks the continued-fraction convergents p/q of gap / base in exact
    integer arithmetic on the two floats' ratios; convergents are the best
    rational approximations, so the first with |q gap - p base| <= tol has
    the smallest such q, whatever the scale of the gaps.
    """
    gap_num, gap_den = gap.as_integer_ratio()
    base_num, base_den = base.as_integer_ratio()
    # gap / base = num / den and q gap - p base = (q num - p den) / scale
    num, den, scale = gap_num * base_den, gap_den * base_num, gap_den * base_den
    p_prev, q_prev, p, q = 1, 0, num // den, 1
    rest_num, rest_den = den, num % den
    while abs(q * num - p * den) / scale > tol:
        a, rest_num, rest_den = rest_num // rest_den, rest_den, rest_num % rest_den
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        if q > _MAX_HARMONIC:
            return None
    return q


def _common_unit(positive: np.ndarray, tol: float) -> float | None:
    """Approximate positive GCD of the gaps, or None if incommensurate.

    Each gap is rationalized against the smallest one (``_harmonic``); the
    unit is the smallest gap over the least common multiple of the
    denominators, so it depends neither on the gaps' scale nor on their last
    bits.
    """
    if positive.size == 0:
        return None
    base = float(positive[0])
    lcm = 1
    for v in positive[1:]:
        q = _harmonic(float(v), base, tol)
        if q is None:
            return None
        lcm = math.lcm(lcm, q)
        if lcm > _MAX_HARMONIC:
            return None
    g = base / lcm
    max_gap = float(positive[-1])
    if g < max_gap / _MAX_HARMONIC:
        return None
    # verify every gap is an integer multiple of g
    ratios = positive / g
    if np.max(np.abs(ratios - np.round(ratios))) > 1e-6:
        return None
    return g


def _site_disjoint(generator: OperatorSum) -> bool:
    sites = [s for term in generator.terms for s in term.sites]
    return len(sites) == len(set(sites))


def _spectrum(generator: OperatorSum, tol: float) -> np.ndarray:
    """Distinct eigenvalues, ascending.

    Terms on disjoint sites act on separate tensor factors, so the spectrum
    is every signed sum of their coefficients (an identity term shifts it);
    any other generator is read from the spectral plan of its support factor.
    """
    if not _site_disjoint(generator):
        plan = _spectral_plan(_project_to_support(generator))
        return _dedup_sorted(np.concatenate([values.ravel() for _, values, _ in plan.groups]), tol)
    values = np.zeros(1)
    for term in generator.terms:
        c = term.coefficient
        if term.factors:
            values = _dedup_sorted(np.concatenate([values - c, values + c]), tol)
        else:
            values = values + c
    return values


def _symmetric(gaps: np.ndarray, tol: float) -> np.ndarray:
    """A deduplicated gap set made exactly symmetric, with an exact zero."""
    positive = gaps[gaps > tol]
    return np.concatenate([-positive[::-1], [0.0], positive])


def gap_set(generator: OperatorSum) -> GapSet:
    """All pairwise eigenvalue differences of the generator, deduplicated.

    Site-disjoint generators (local drives, cosine profiles, single strings)
    take their spectrum in closed form at any register size; any other is
    read from the spectral plan of its projection onto its r support sites,
    at cost 2**r (``DimensionCapError`` for r > ``DENSE_SITE_CAP``).
    """
    values = _spectrum(generator, GAP_TOL)
    diffs = (values[:, None] - values[None, :]).ravel()
    gaps = _symmetric(_dedup_sorted(diffs, GAP_TOL), GAP_TOL)
    return GapSet(gaps, _common_unit(gaps[gaps > GAP_TOL], GAP_TOL))


def channel_gap_set(generator: OperatorSum, n_pulses: int) -> GapSet:
    """Gap set of a drive channel whose ``n_pulses`` pulses share one
    amplitude.

    Each pulse contributes one gap of the generator, so the signal is a
    Fourier series over the n_pulses-fold sumset of ``gap_set(generator)``:
    two Pauli pulses give {-4, -2, 0, 2, 4}, not {-2, 0, 2}.  The sumset
    keeps the generator's unit (or its lack of one).
    """
    single = gap_set(generator)
    gaps = single.gaps
    for _ in range(n_pulses - 1):
        gaps = _dedup_sorted(np.add.outer(gaps, single.gaps).ravel(), GAP_TOL)
    return GapSet(_symmetric(gaps, GAP_TOL), single.unit)


def _alias_free_count(harmonics: Sequence[int], n: int, residue) -> int:
    """Smallest count >= n at which ``residue(h, count)`` is distinct over
    the harmonics."""
    while len({residue(h, n) for h in harmonics}) < len(harmonics):
        n += 1
    return n


def shift_grid(gap_set: GapSet, n_shifts: int | None = None, mode: str = "full") -> np.ndarray:
    """Default shift points for a gap set.

    ``full``: M equispaced points centered at 0 with spacing T/N, where
    T = 2*pi/g is the signal period and N the smallest integer >= M+1 at
    which the gaps' harmonic indices omega/g are distinct mod N (for the Pauli
    gap set {-2, 0, 2}, N = M+1 and the grid is {-pi/4, 0, pi/4}).  The
    system's rows are then powers of N-th roots of unity, two of which would
    coincide for harmonics equal mod N.  Incommensurate spectra get Chebyshev
    nodes on [-pi/w_max, pi/w_max] and must pass the least-squares residual
    check.

    ``odd``: K +- pairs s_p = pi (2p - 1) / (2 N g), K the positive-gap
    count (or half of ``n_shifts``, which must be even) and N the smallest
    integer >= K at which the positive harmonics h have distinct, nonzero
    folded residues min(h mod 2N, -h mod 2N); this recovers the two-point rule
    {-pi/2, pi/2} for gaps {-1, 0, 1}.  Up to sign, sin(h g s_p) depends
    only on that residue, and vanishes for residue 0.
    """
    if mode == "odd":
        k = int(gap_set.positive.size)
        if k == 0:
            raise ShiftRuleError("gap set has no positive entries")
        if gap_set.unit is None:
            raise ShiftRuleError("odd-order reduction needs a commensurate spectrum")
        if n_shifts is not None and n_shifts % 2:
            raise ShiftRuleError(f"odd-order rule takes an even shift count, not {n_shifts}")
        n_pos = n_shifts // 2 if n_shifts is not None else k
        if n_pos < k:
            raise ShiftRuleError(f"odd-order rule needs at least {2 * k} shifts")
        # harmonic 0 folds to 0, so distinct residues keep the others nonzero
        harmonics = [0] + [round(w / gap_set.unit) for w in gap_set.positive.tolist()]
        n = _alias_free_count(harmonics, n_pos, lambda h, n: min(h % (2 * n), -h % (2 * n)))
        s = np.array([np.pi * (2 * p - 1) / (2 * n * gap_set.unit) for p in range(1, n_pos + 1)])
        return np.concatenate([-s[::-1], s])
    if mode != "full":
        raise ShiftRuleError(f"unknown shift mode {mode!r}")
    m = int(n_shifts) if n_shifts is not None else len(gap_set)
    if m < len(gap_set):
        raise ShiftRuleError(
            f"{m} shifts cannot satisfy {len(gap_set)} gap constraints; "
            f"need at least {len(gap_set)}"
        )
    if gap_set.unit is not None:
        harmonics = [round(w / gap_set.unit) for w in gap_set.gaps.tolist()]
        n = _alias_free_count(harmonics, m + 1, lambda h, n: h % n)
        period = 2.0 * np.pi / gap_set.unit
        offsets = np.arange(1, m + 1) - (m + 1) / 2.0
        return offsets * (period / n)
    w_max = gap_set.max_gap
    if w_max == 0.0:
        raise ShiftRuleError("gap set is trivial; nothing to reconstruct")
    half = np.pi / w_max
    nodes = np.cos(np.pi * (2 * np.arange(1, m + 1) - 1) / (2 * m))
    return np.sort(half * nodes)


def _solve(v: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The one checked solve behind every rule: v c = rhs, exactly when v is
    square and in least squares otherwise.

    Returns (real coefficients, relative residual, condition number); an
    excessive condition number, a residual above the tolerance or non-real
    weights raise.
    """
    cond = float(np.linalg.cond(v))
    if cond > CONDITION_LIMIT:
        raise ShiftRuleError(f"shift system condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
    if v.shape[0] == v.shape[1]:
        coeffs = np.linalg.solve(v, rhs)
    else:
        coeffs, *_ = np.linalg.lstsq(v, rhs, rcond=None)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    residual = float(np.max(np.abs(v @ coeffs - rhs))) / scale
    if residual > RESIDUAL_TOL:
        raise ShiftRuleError(
            f"shift-rule residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "the grid cannot represent this derivative exactly"
        )
    if np.max(np.abs(coeffs.imag)) > 1e-10 * max(1.0, np.max(np.abs(coeffs.real))):
        raise ShiftRuleError("shift coefficients came out non-real")
    return coeffs.real.copy(), residual, cond


def _fourier_system(gaps: GapSet, shifts: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_p c_p e^{i w s_p} = (i w)^order for every w in the signed gap set."""
    omegas = gaps.gaps
    return np.exp(1j * np.outer(omegas, shifts)), (1j * omegas) ** order


def _taylor_system(shifts: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference style: sum_p c_p s_p^k = k! delta_{k,order}, scaled
    to the unit interval and kept real."""
    m = shifts.size
    if order >= m:
        raise ShiftRuleError(f"order {order} needs more than {m} shift points")
    scale = float(np.max(np.abs(shifts)))
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order) / scale**order
    return np.vander(shifts / scale, m, increasing=True).T, rhs


@dataclass(frozen=True, eq=False)
class ShiftRule:
    """Shift points with derivative weights for one kick generator.

    ``coefficients[r]`` reconstructs the r-th derivative at zero amplitude as
    dot(coefficients[r], F(shifts)).  ``basis`` records whether the rule is
    exact on the generator's Fourier support ("fourier", "fourier-odd") or a
    truncated polynomial rule ("taylor").
    """

    shifts: np.ndarray
    coefficients: Mapping[int, np.ndarray]
    residuals: Mapping[int, float]
    condition_number: float
    basis: str

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=float)
        shifts.flags.writeable = False
        object.__setattr__(self, "shifts", shifts)
        frozen = {}
        for r, c in dict(self.coefficients).items():
            c = np.asarray(c, dtype=float)
            c.flags.writeable = False
            frozen[int(r)] = c
        object.__setattr__(self, "coefficients", frozen)
        object.__setattr__(self, "residuals", dict(self.residuals))

    @property
    def n_shifts(self) -> int:
        return int(self.shifts.size)

    def l1_norm(self, order: int) -> float:
        return float(np.sum(np.abs(self.coefficients[order])))

    def l2_norm_squared(self, order: int) -> float:
        return float(np.sum(self.coefficients[order] ** 2))


def _rule(grid: np.ndarray, orders: Sequence[int], system, basis: str) -> ShiftRule:
    """The one order loop: weights for every order from ``_solve`` on
    ``system(grid, order)``.

    The grid is made exactly antisymmetric (bitwise unchanged when it already
    is), so each order's weights have exact parity: c[::-1] = (-1)^r c, and
    an odd order puts exactly 0.0 on a shift at 0.
    """
    grid = 0.5 * (grid - grid[::-1])
    coefficients: dict[int, np.ndarray] = {}
    residuals: dict[int, float] = {}
    cond = 0.0
    for r in sorted(set(int(r) for r in orders)):
        c, residuals[r], k = _solve(*system(grid, r))
        coefficients[r] = 0.5 * (c + (-1) ** r * c[::-1])
        cond = max(cond, k)
    return ShiftRule(grid, coefficients, residuals, cond, basis)


def rule_for_gap_set(
    gaps: GapSet, orders: Sequence[int], n_shifts: int | None = None, mode: str = "full"
) -> ShiftRule:
    """Build a ShiftRule carrying weights for every requested order; the odd
    mode solves the same Fourier system on its +-s grid."""
    if mode == "odd" and any(int(r) % 2 == 0 for r in orders):
        raise ShiftRuleError("the odd-order reduction applies to odd orders only")
    grid = shift_grid(gaps, n_shifts=n_shifts, mode=mode)
    basis = "fourier-odd" if mode == "odd" else "fourier"
    return _rule(grid, orders, partial(_fourier_system, gaps), basis)


def rule_for_generator(
    generator: OperatorSum, orders: Sequence[int], n_shifts: int | None = None, mode: str = "full"
) -> ShiftRule:
    return rule_for_gap_set(gap_set(generator), orders, n_shifts, mode)


def taylor_rule(orders: Sequence[int], n_shifts: int, scale: float) -> ShiftRule:
    """Truncated rule: n_shifts equispaced points on [-scale, scale].

    Exact only on signals polynomial of degree < n_shifts in the amplitude;
    used when the gap set is incommensurate or impractically large.
    """
    if n_shifts < 2:
        raise ShiftRuleError("taylor rule needs at least 2 shifts")
    if scale <= 0:
        raise ShiftRuleError("taylor rule scale must be positive")
    return _rule(np.linspace(-scale, scale, n_shifts), orders, _taylor_system, "taylor")


@dataclass(frozen=True)
class MultiIndex:
    """Per-channel derivative orders beta_a; the response order is their sum
    (at 0, the unperturbed signal)."""

    beta: tuple[int, ...]

    def __init__(self, beta: Sequence[int]):
        beta = tuple(int(b) for b in beta)
        if any(b < 0 for b in beta):
            raise ValueError("multi-index entries must be nonnegative")
        object.__setattr__(self, "beta", beta)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(a for a, b in enumerate(self.beta) if b > 0)

    @property
    def factorial_product(self) -> int:
        out = 1
        for b in self.beta:
            out *= math.factorial(b)
        return out
