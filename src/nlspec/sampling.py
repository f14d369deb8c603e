"""Shot-noise simulation and measurement-budget allocation.

Expectation values are estimated by drawing +-1 outcomes per Pauli string
from the exact outcome distribution (no readout bitstrings are simulated;
the per-term Bernoulli law carries the full variance content).  Budgets can
be split uniformly over shift configurations or proportionally to
|C_p| sqrt(Var_p), which minimizes the reconstruction variance.

Seeding is hierarchical: every (configuration, time) cell draws from a
substream spawned from the master seed, so parallel evaluation order cannot
change any estimate.  A budget that leaves a configuration of nonzero
weight, or a Pauli string of the observable, without shots is refused with
``ShotBudgetError`` rather than redistributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import ConfigError
from .evolution import Evolver, PulseSchedule
from .pauli import OperatorSum, PauliTerm, expectation
from .response import MultiIndex, ResponseSeries, reconstruct_response
from .shift_rules import ShiftRule


class ShotBudgetError(ConfigError):
    """``sampling.total_shots`` cannot measure every term of the estimate."""


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Total budget and its split over shift configurations."""

    total_shots: int
    per_configuration: tuple[int, ...]
    mode: str
    seed: int

    def __post_init__(self):
        if self.mode not in ("uniform", "optimal"):
            raise ValueError(f"unknown allocation mode {self.mode!r}")
        per = tuple(int(n) for n in self.per_configuration)
        if any(n < 0 for n in per):
            raise ValueError("per-configuration shots must be nonnegative")
        if sum(per) != self.total_shots:
            raise ValueError("per-configuration shots must sum to the total")
        object.__setattr__(self, "per_configuration", per)

    def draw(self, observable: OperatorSum, state: np.ndarray, p: int, k: int):
        """``sample_expectation`` of cell (p, k): configuration p's shots on its
        state at grid time k, from the substream keyed (p, k) of ``seed``."""
        seed = np.random.SeedSequence(entropy=self.seed, spawn_key=(p, k))
        return sample_expectation(observable, state, self.per_configuration[p], seed)


def _largest_remainder(ideal: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative ideals to integers summing to ``total``.

    Largest fractional remainder first; ties go to the lowest index.
    """
    floors = np.floor(ideal).astype(int)
    leftover = total - int(floors.sum())
    remainders = ideal - floors
    order = sorted(range(ideal.size), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def allocate_shots(
    weights: Sequence[float],
    total_shots: int,
    mode: str = "uniform",
    seed: int = 0,
) -> SamplingPlan:
    """Split a shot budget over shift configurations.

    ``uniform`` gives every configuration of nonzero weight the same count
    (remainder to the lowest indices).  ``optimal`` allocates proportionally
    to |C_p| sqrt(Var_p) with unit variances, that is to |C_p|.  In both modes
    zero-weight configurations, which ``reconstruct_response`` never
    measures, get nothing, and a budget that leaves any other configuration
    without shots is a ``ShotBudgetError``.
    """
    w = np.abs(np.asarray(weights, dtype=float))
    if w.size == 0:
        raise ValueError("no configurations to allocate over")
    if mode == "uniform":
        score = (w > 0).astype(float)
    elif mode == "optimal":
        score = w
    else:
        raise ValueError(f"unknown allocation mode {mode!r}")
    if not np.any(score > 0):
        raise ValueError("all configuration weights vanish")
    n_active = int(np.count_nonzero(score))
    if total_shots < n_active:
        raise ShotBudgetError(
            f"sampling.total_shots: budget {total_shots} below the {n_active} active configurations"
        )
    counts = _largest_remainder(total_shots * score / score.sum(), total_shots)
    unmeasured = [p for p in np.flatnonzero(score).tolist() if counts[p] == 0]
    if unmeasured:
        raise ShotBudgetError(
            f"sampling.total_shots: budget {total_shots} gives configuration {unmeasured[0]} "
            f"of weight {w[unmeasured[0]]:.3g} no shots"
        )
    return SamplingPlan(total_shots, tuple(counts), mode, seed)


def sample_expectation(
    observable: OperatorSum,
    state: np.ndarray,
    shots: int,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[float, float]:
    """Unbiased finite-shot estimate of <A> with its standard error.

    The budget is split evenly over the Pauli strings (remainder to the
    lowest-index terms) and each string is sampled as +-1 outcomes with the
    exact mean; a budget below the string count is a ``ShotBudgetError``.
    Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ShotBudgetError("sampling.total_shots: at least one shot is required")
    terms = observable.terms
    if shots < len(terms):
        raise ShotBudgetError(
            f"sampling.total_shots: {shots} shots cannot measure {len(terms)} Pauli strings"
        )
    rng = np.random.default_rng(seed)
    if not terms:
        return 0.0, 0.0
    base = shots // len(terms)
    counts = [base + (1 if i < shots - base * len(terms) else 0) for i in range(len(terms))]
    estimate = 0.0
    variance = 0.0
    for term, n in zip(terms, counts):
        string = OperatorSum((PauliTerm(1.0, term.factors),), observable.n_sites)
        mean = expectation(string, state)
        mean = min(1.0, max(-1.0, mean))
        p_up = 0.5 * (1.0 + mean)
        k = rng.binomial(n, p_up)
        sample_mean = 2.0 * k / n - 1.0
        estimate += term.coefficient * sample_mean
        sample_var = max(0.0, 1.0 - sample_mean**2) * n / max(n - 1, 1)
        variance += term.coefficient**2 * sample_var / n
    return float(estimate), float(math.sqrt(variance))


def variance_bound(weights: Sequence[float], total_shots: int, mode: str = "uniform") -> float:
    """Worst-case estimator variance for unit-bounded per-shot outcomes.

    ``weights`` are the configuration weights C_p of ``shift_configurations``;
    with N_tot shots in all, split as ``allocate_shots`` splits them,

        uniform:  P' (sum_p C_p^2) / N_tot,  P' the count of nonzero C_p
        optimal:  (sum_p |C_p|)^2 / N_tot

    For weights that factorize over channels, these are the per-channel
    products (prod_a M_a)(prod_a ||c_a||_2^2) and (prod_a ||c_a||_1)^2, M_a
    the count of nonzero weights of channel a.
    """
    w = np.asarray(weights, dtype=float)
    if total_shots < 1:
        raise ValueError("total_shots must be positive")
    if mode == "uniform":
        return np.count_nonzero(w) * float(np.sum(w**2)) / total_shots
    if mode == "optimal":
        return float(np.sum(np.abs(w))) ** 2 / total_shots
    raise ValueError(f"unknown mode {mode!r}")


def noisy_response(
    h: OperatorSum,
    schedule: PulseSchedule,
    observable: OperatorSum,
    t_grid: Sequence[float],
    beta: MultiIndex,
    plan: SamplingPlan,
    evolver: Evolver,
    psi0: np.ndarray,
    rules: Mapping[int, ShiftRule] | None = None,
) -> tuple[ResponseSeries, np.ndarray]:
    """The finite-shot half of ``reconstruct_response(..., plan=plan)``: the
    noisy response series and its per-time standard error."""
    exact = reconstruct_response(h, schedule, observable, t_grid, beta, evolver, psi0, rules, plan)
    meta = {"sampling_mode": plan.mode, "total_shots": plan.total_shots, "seed": plan.seed}
    return ResponseSeries(exact.metadata["sampled"], meta), exact.metadata["std_error"]
