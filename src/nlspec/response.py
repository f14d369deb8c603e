"""Reconstruction of response functions from shifted driven signals.

The order-m response of <A(t)> to a multi-channel impulsive drive is the
mixed amplitude derivative (1 / prod_a beta_a!) * d^beta <A(t)>_eta at
eta = 0, and that derivative factorizes over channels: it is a weighted sum
of driven signals on the Cartesian product of the per-channel shift grids,
with weights prod_a c_{a, p_a}^{(beta_a)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .evolution import Evolver, PulseSchedule, driven_signal, driven_states
from .pauli import OperatorSum, expectation
from .shift_rules import (
    MultiIndex,
    ShiftRule,
    ShiftRuleError,
    channel_gap_set,
    rule_for_gap_set,
    taylor_rule,
)

#: largest gap set whose exact rule ``decomposition_rule`` uses unasked
_SHIFT_BUDGET = 33


@dataclass(frozen=True, eq=False)
class ResponseSeries:
    """A response contribution sampled on a time grid."""

    values: np.ndarray
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writeable
        values = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("response values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "metadata", dict(self.metadata))


def rules_for_schedule(
    schedule: PulseSchedule, beta: MultiIndex, n_shifts: int | None = None
) -> dict[int, ShiftRule]:
    """One shift rule per active channel, keyed by channel index, on the
    channel's gap set (``channel_gap_set``: a channel pulsed P times needs
    the P-fold sumset of its generator's gaps); a channel of odd order gets
    the +-s grid (``rule_for_gap_set``)."""
    if len(beta.beta) != schedule.n_channels:
        raise ValueError("multi-index length must equal the channel count")
    rules: dict[int, ShiftRule] = {}
    for a in beta.support:
        generator, times = schedule.channels[a]
        gaps = channel_gap_set(generator, len(times))
        rules[a] = rule_for_gap_set(gaps, [beta.beta[a]], n_shifts=n_shifts)
    return rules


def shift_configurations(
    rules: Mapping[int, ShiftRule], beta: MultiIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian shift grid over the active channels and the product weights.

    Inactive channels are pinned at amplitude 0.  Returns the (P, L) array of
    amplitude vectors (L = channel count), one row per configuration in
    ``itertools.product`` order over the active channels' shifts, and the
    weight C_p of each row, its factors multiplied in channel order.
    """
    active = beta.support
    shifts = [rules[a].shifts for a in active]
    configs = np.zeros((math.prod(s.size for s in shifts), len(beta.beta)))
    for a, grid in zip(active, np.meshgrid(*shifts, indexing="ij")):
        configs[:, a] = grid.ravel()
    weights = np.ones(1)
    for a in active:
        weights = np.multiply.outer(weights, rules[a].coefficients[beta.beta[a]]).ravel()
    return configs, weights


def reconstruct_response(
    h: OperatorSum,
    schedule: PulseSchedule,
    observable: OperatorSum,
    t_grid: Sequence[float],
    beta: MultiIndex,
    evolver: Evolver,
    psi0: np.ndarray,
    rules: Mapping[int, ShiftRule] | None = None,
    plan=None,
) -> ResponseSeries:
    """Pulse-summed order-m response chi^(m)(t) over the time grid; ``rules``
    defaults to the exact ``rules_for_schedule``.

    The configurations of nonzero weight are propagated once.  Each grid
    time's block of their states gives the exact series through
    ``expectation`` and, given a ``sampling.SamplingPlan``, its finite-shot
    estimate, each cell drawn by ``SamplingPlan.draw``.  The metadata holds
    the configuration count P as ``"n_configurations"`` and, given a plan,
    that estimate as ``"sampled"`` and its per-time standard error
    sqrt(sum_p C_p^2 se_p^2) as ``"std_error"``.
    """
    if rules is None:
        rules = rules_for_schedule(schedule, beta)
    configs, weights = shift_configurations(rules, beta)
    if plan is not None and len(plan.per_configuration) != len(configs):
        raise ValueError(
            f"plan covers {len(plan.per_configuration)} configurations, grid has {len(configs)}"
        )
    grid = np.asarray(t_grid, dtype=float)
    active = np.flatnonzero(weights)
    exact = np.zeros((active.size, grid.size))
    sampled, variances = np.zeros(grid.size), np.zeros(grid.size)
    if active.size:
        states = driven_states(h, schedule, configs[active], grid, evolver, psi0)
        for k, block in enumerate(states):
            exact[:, k] = expectation(observable, block)
            if plan is None:
                continue
            # contiguous columns, so each exact mean rounds as a single state's
            for p, state in zip(active.tolist(), np.ascontiguousarray(block.T)):
                estimate, error = plan.draw(observable, state, p, k)
                scale = weights[p] / beta.factorial_product
                sampled[k] += scale * estimate
                variances[k] += scale**2 * error**2
    total = weights[active] @ exact / beta.factorial_product
    meta = {"n_configurations": len(configs)}
    if plan is not None:
        meta.update(sampled=sampled, std_error=np.sqrt(variances))
    return ResponseSeries(total, meta)


def decomposition_rule(
    channel: tuple[OperatorSum, Sequence[float]],
    max_order: int,
    n_shifts: int | None = None,
) -> ShiftRule:
    """Rule used to expand a single-channel signal order by order.

    ``channel`` is a (generator, pulse times) pair, as in
    ``PulseSchedule.channels``; its gap set is ``channel_gap_set``.  Uses the
    exact gap-set rule when the spectrum is commensurate with at most
    ``_SHIFT_BUDGET`` gaps; otherwise (or when ``n_shifts`` forces fewer
    points than gaps) a truncated polynomial rule on max_order + 1 points
    scaled to a quarter period of the fastest spectral component.
    """
    orders = list(range(max_order + 1))
    generator, times = channel
    gaps = channel_gap_set(generator, len(times))
    exact_feasible = gaps.unit is not None and len(gaps) <= _SHIFT_BUDGET
    if exact_feasible and (n_shifts is None or n_shifts >= len(gaps)):
        return rule_for_gap_set(gaps, orders, n_shifts=n_shifts)
    m = n_shifts if n_shifts is not None else max_order + 1
    if m < max_order + 1:
        raise ShiftRuleError(f"{m} shifts cannot resolve orders up to {max_order}")
    scale = np.pi / (2.0 * gaps.max_gap) if gaps.max_gap > 0 else 0.5
    return taylor_rule(orders, m, scale)


def response_decomposition(
    h: OperatorSum,
    schedule: PulseSchedule,
    observable: OperatorSum,
    t_grid: Sequence[float],
    eta_evals: Sequence[float],
    max_order: int,
    evolver: Evolver,
    psi0: np.ndarray,
    n_shifts: int | None = None,
) -> tuple[np.ndarray, np.ndarray, ShiftRule]:
    """Order-by-order expansion A^n(t) = (eta^n / n!) F^(n)(0; t) plus the
    truncation residual diff(t) = <A(t)>_eta - sum_n A^n(t).

    Returns the (E, max_order + 1, G) terms, one row per amplitude in
    ``eta_evals``, the (E, G) residuals and the rule the derivatives used.
    Single-channel protocol; all pulses in the channel share the amplitude.
    The shifted samples and the reference signals are propagated together,
    and each derivative F^(n)(0; t) is computed once for every amplitude.
    """
    if schedule.n_channels != 1:
        raise ValueError("response_decomposition expects a single drive channel")
    eta_evals = np.asarray(eta_evals, dtype=float)
    if eta_evals.ndim != 1 or eta_evals.size == 0:
        raise ValueError("eta_evals must be a nonempty sequence of amplitudes")
    rule = decomposition_rule(schedule.channels[0], max_order, n_shifts=n_shifts)
    grid = np.asarray(t_grid, dtype=float)
    # the shifted samples and the reference signal at every eta as one block
    etas = np.concatenate([rule.shifts, eta_evals])[:, None]
    signals = driven_signal(h, schedule, etas, observable, grid, evolver, psi0)
    samples, references = signals[: rule.n_shifts], signals[rule.n_shifts :]
    derivs = np.array([rule.coefficients[n] @ samples for n in range(max_order + 1)])
    # each scale eta^n / n! is a Python float over a running float n!, and the
    # terms are summed from order 0 up, so every value keeps its bits
    factorials = np.cumprod([1.0, *range(1, max_order + 1)]).tolist()
    scales = [[eta**n / f for n, f in enumerate(factorials)] for eta in eta_evals.tolist()]
    terms = np.array(scales)[:, :, None] * derivs
    residuals = references - sum(terms.swapaxes(0, 1))
    # a non-finite term or reference leaves its residual non-finite
    if not np.all(np.isfinite(residuals)):
        raise ValueError("response values must be finite")
    return terms, residuals, rule
