"""Independent reference routes for cross-validating the shift-rule engine.

* ``nested_commutator_prefixes`` evaluates the causal Kubo form of the
  order-k response, i^k <psi_0| ad_{B(t_k)} ... ad_{B(t_1)} A(t) |psi_0>,
  for every prefix of a pulse list, with Heisenberg operators X(tau) built
  from the same segmented propagator the driven protocol uses.  The nested
  commutator is expanded into its 2^k left/right operator orderings and
  evaluated matrix-free on state vectors, so it shares no code path with
  the shift-rule reconstruction.  Chain states are shared by pulse
  sequence (m coincident copies of one pulse need m + 1 kets, not 2^m, and
  the kets of every prefix are among them); they are carried to the latest
  pulse once and stacked into one (dim, D) block, and one ``propagator`` of
  that block, projected into the eigenbasis once, serves every grid time
  and every prefix.  ``nested_commutator_series`` is its last row: the
  response to the whole list.

* ``finite_difference_derivative`` is the deliberately imperfect baseline:
  minimal central stencils at two steps, Richardson-combined, whose
  remaining truncation error is the caller's problem.

* ``stepwise_subtraction`` recovers the odd series coefficients A^1, A^3,
  A^5 from signals at three pump amplitudes by successive cancellation of
  the lower orders (exact on odd quintics).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .evolution import EXACT, Evolver, check_initial_state, evolve, propagator
from .pauli import HermiticityError, OperatorSum, apply_operator


def _propagate(
    h: OperatorSum,
    state: np.ndarray,
    t_from: float,
    t_to: float,
    checkpoints: Sequence[float],
    evolver: Evolver,
) -> np.ndarray:
    """Evolve through every checkpoint in (t_from, t_to], one segment per call.

    Segmenting at the pulse times makes the Trotterized propagator identical
    to the one the driven signal composes, so both routes differentiate the
    same function of the pump amplitudes.
    """
    tau = t_from
    for c in checkpoints:
        if tau < c <= t_to:
            state = evolve(h, state, c - tau, evolver)
            tau = c
    if t_to > tau:
        state = evolve(h, state, t_to - tau, evolver)
    return state


def nested_commutator_prefixes(
    h: OperatorSum,
    observable: OperatorSum,
    pulses: Sequence[tuple[OperatorSum, float]],
    t_grid: Sequence[float],
    psi0: np.ndarray,
    evolver: Evolver = EXACT,
) -> np.ndarray:
    """Kubo nested-commutator response to every prefix of ``pulses``.

    Returns an (m + 1, G) array for m pulses: row k holds the order-k response
    to ``pulses[:k]`` at each grid time (row 0: <A(t)>).  ``pulses`` lists
    (generator, time) pairs with times descending: the first entry is the
    innermost commutator (the latest pulse), so every prefix shares it.  Any
    violation of the time ordering gives all rows an exact 0, and every row
    is an exact 0 at a measurement time before the latest pulse (with no
    pulses, row 0 is <A(t)> at every t, before 0 too).

    Coincident repetitions of one pulse carry the simplex weight of the
    equal-time corner: each group of k identical (generator, time) entries
    divides the bare commutator value by k!, which is what makes this kernel
    equal the per-amplitude-monomial coefficient of the driven signal (and
    hence the shift-rule reconstruction) for delta drives.

    Every row follows the time line of the whole list: ``psi0`` (checked by
    ``evolution.check_initial_state``) is anchored at min(0, every pulse
    time) and Trotter segments break at every pulse time.  Row k therefore
    equals ``nested_commutator_series`` on ``pulses[:k]`` whenever the prefix
    spans the same anchor and pulse times, as m coincident pulses do; under
    exact evolution extra segment breaks move it at rounding level only.
    """
    grid = np.asarray(t_grid, dtype=float)
    m = len(pulses)
    psi = check_initial_state(h, psi0)
    values = np.zeros((m + 1, grid.size))
    times = [float(t) for _, t in pulses]
    if any(t2 > t1 for t1, t2 in zip(times, times[1:])):
        return values
    keys = [(generator, t_k) for (generator, _), t_k in zip(pulses, times)]
    # norms[k]: the product of k_g! over the groups g of pulses[:k]
    norms = [1.0]
    group_counts: dict[tuple, int] = {}
    for key in keys:
        group_counts[key] = group_counts.get(key, 0) + 1
        norms.append(norms[-1] * group_counts[key])

    anchor = min([0.0] + times) if times else 0.0
    latest = times[0] if times else anchor
    checkpoints = sorted(set(times))
    # chain states: the ket of a subset applies its pulses in descending-index
    # (chronological) order, interleaved with free evolution.  Kets are keyed
    # by that pulse sequence, so subsets repeating one pulse share a state.
    kets: dict[tuple, tuple[np.ndarray, float]] = {(): (psi, anchor)}

    def ket(sequence: tuple[int, ...]) -> tuple:
        key = tuple(keys[k] for k in sequence)
        if key not in kets:
            prev_state, prev_tau = kets[ket(sequence[:-1])]
            generator, t_k = pulses[sequence[-1]]
            state = _propagate(h, prev_state, prev_tau, t_k, checkpoints, evolver)
            kets[key] = (apply_operator(generator, state), t_k)
        return key

    subsets = [frozenset(s) for s in _powerset(range(m))]
    key_of = {s: ket(tuple(sorted(s, reverse=True))) for s in subsets}
    column = {key: j for j, key in enumerate(kets)}
    # per prefix, one signed term per subset of it: its complement's ket on
    # the left; the subsets of pulses[:k] are among those of the whole list
    terms = []
    for k in range(m + 1):
        prefix = frozenset(range(k))
        terms.append(
            [
                (-1.0 if len(s) % 2 else 1.0, column[key_of[prefix - s]], column[key_of[s]])
                for s in subsets
                if s <= prefix
            ]
        )
    # a measurement at or after the latest pulse passes every checkpoint on
    # the way, so each ket is carried to that pulse once; from there one
    # propagator of the (dim, D) block of distinct kets serves every grid time
    block = np.stack(
        [_propagate(h, state, tau, latest, checkpoints, evolver) for state, tau in kets.values()],
        axis=1,
    )
    from_latest = propagator(h, block, evolver)

    for idx, t in enumerate(grid):
        if times and t < latest:
            continue
        moved = from_latest(float(t) - latest)
        # contiguous rows, so each ket's vdot rounds as a single state's
        w = np.ascontiguousarray(moved.T)
        aw = np.ascontiguousarray(apply_operator(observable, moved).T)
        for k, prefix_terms in enumerate(terms):
            total = 0.0 + 0.0j
            for sign, left, right in prefix_terms:
                total += sign * np.vdot(w[left], aw[right])
            total *= 1j**k / norms[k]
            scale = max(1.0, abs(total.real))
            if abs(total.imag) > 1e-8 * scale:
                raise HermiticityError(
                    f"nested-commutator value has imaginary part {total.imag:.3e}"
                )
            values[k, idx] = total.real
    return values


def nested_commutator_series(
    h: OperatorSum,
    observable: OperatorSum,
    pulses: Sequence[tuple[OperatorSum, float]],
    t_grid: Sequence[float],
    psi0: np.ndarray,
    evolver: Evolver = EXACT,
) -> np.ndarray:
    """Kubo nested-commutator response to all of ``pulses`` at every grid
    time: the last row of ``nested_commutator_prefixes``."""
    return nested_commutator_prefixes(h, observable, pulses, t_grid, psi0, evolver)[-1]


def _powerset(items: Sequence[int]):
    import itertools

    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _central_stencil(order: int) -> np.ndarray:
    """Integer offsets of the minimal symmetric stencil for the given order."""
    half = (order + 1) // 2
    if order % 2 == 0:
        return np.arange(-half, half + 1, dtype=float)
    offsets = np.arange(1, half + 1, dtype=float)
    return np.concatenate([-offsets[::-1], offsets])


def stencil_amplitudes(order: int, step: float) -> np.ndarray:
    """Every amplitude ``finite_difference_derivative(sampler, order, step)``
    samples: the central stencil at ``step`` and at ``step / 2``."""
    offsets = _central_stencil(order)
    return np.concatenate([offsets * step, offsets * (step / 2.0)])


def _stencil_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    v = np.vander(offsets, offsets.size, increasing=True).T
    rhs = np.zeros(offsets.size)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(v, rhs)


def finite_difference_derivative(
    sampler: Callable[[float], float | np.ndarray], order: int, step: float
) -> float | np.ndarray:
    """Richardson-refined central finite-difference m-th derivative at 0.

    (4 D_{h/2} - D_h) / 3 of the minimal central stencils D_h at spacing
    ``step`` and D_{h/2} at half of it, which cancels their leading h^2 error.
    A sampler that returns an array (say, one value per time) gives an
    estimate of that shape, element by element.
    """
    if order < 0 or order > 7:
        raise ValueError("finite differences supported for orders 0..7")
    if step <= 0:
        raise ValueError("step must be positive")

    def estimate(h: float):
        offsets = _central_stencil(order)
        weights = _stencil_weights(offsets, order) / h**order
        return sum(w * sampler(x * h) for w, x in zip(weights, offsets))

    return (4.0 * estimate(step / 2.0) - estimate(step)) / 3.0


def stepwise_subtraction(values: Mapping[float, object]) -> tuple:
    """Recover (A^1, A^3, A^5) from signals at amplitudes {0, s1, s2, s3}.

    Assumes the odd ansatz <A>_s = A^0 + s A^1 + s^3 A^3 + s^5 A^5.  The
    zero-amplitude background is subtracted first, the linear order is
    cancelled by the quotient combination

        A3_tilde = d(s2) - (s2/s1) d(s1),      d(s) = <A>_s - <A>_0,

    and the remaining 2x2 system in (A^3, A^5) is solved exactly, followed
    by back-substitution for A^1.  The triple is therefore exact on any odd
    quintic; contamination from orders seven and above (or from even orders
    the ansatz omits) remains and shrinks as a power of the amplitudes.
    Values may be scalars or arrays over a time grid.
    """
    keys = sorted(float(k) for k in values)
    if len(keys) != 4 or abs(keys[0]) > 0.0:
        raise ValueError("values must be keyed by {0, s1, s2, s3}")
    s1, s2, s3 = keys[1:]
    if not 0.0 < s1 < s2 < s3:
        raise ValueError("amplitudes must satisfy 0 < s1 < s2 < s3")
    lookup = {float(k): np.asarray(v, dtype=float) for k, v in values.items()}
    d1 = lookup[s1] - lookup[0.0]
    d2 = lookup[s2] - lookup[0.0]
    d3 = lookup[s3] - lookup[0.0]

    a3_tilde = d2 - (s2 / s1) * d1
    a5_tilde = d3 - (s3 / s1) * d1
    # coefficients of A^3 and A^5 in the two linear-free combinations
    m33, m35 = s2**3 - s2 * s1**2, s2**5 - s2 * s1**4
    m53, m55 = s3**3 - s3 * s1**2, s3**5 - s3 * s1**4
    det = m33 * m55 - m35 * m53
    if abs(det) < 1e-14:
        raise ZeroDivisionError("degenerate amplitude choice: vanishing normalization")
    a3 = (m55 * a3_tilde - m35 * a5_tilde) / det
    a5 = (m33 * a5_tilde - m53 * a3_tilde) / det
    a1 = (d1 - s1**3 * a3 - s1**5 * a5) / s1
    return a1, a3, a5
