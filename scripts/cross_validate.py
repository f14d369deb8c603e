#!/usr/bin/env python3
"""Desk-scale cross-validation sweep: shift-rule engine vs the commutator
route vs finite differences on random small chains.

Prints a deviation table per instance; exits nonzero if any engine-vs-
commutator deviation exceeds the tolerance.
"""

import argparse
import sys

import numpy as np

from nlspec.evolution import EXACT, PulseSchedule, driven_signal
from nlspec.models import build_xxz, ground_state
from nlspec.pauli import OperatorSum, PauliTerm
from nlspec.reference import finite_difference_derivative, nested_commutator_prefixes
from nlspec.response import MultiIndex, reconstruct_response


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--max-order", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    grid = np.linspace(0.0, 5.0, 11)
    worst = 0.0
    for k in range(args.instances):
        delta = float(rng.uniform(0.0, 2.0))
        h_field = float(rng.uniform(0.0, 1.0))
        h = build_xxz(4, delta, h_field)
        psi = ground_state(h)
        pump = OperatorSum((PauliTerm(1.0, {1: "X"}),), 4)
        observable = OperatorSum(
            (PauliTerm(1.0, {2: "X"}), PauliTerm(1.0, {2: "Z"})), 4
        )
        schedule = PulseSchedule([(pump, [0.0])])
        print(f"instance {k}: delta={delta:.3f} h={h_field:.3f}")
        # row m: the order-m commutator response, every order in one call
        oracles = nested_commutator_prefixes(
            h, observable, [(pump, 0.0)] * args.max_order, grid, psi, EXACT
        )
        for m in range(1, args.max_order + 1):
            series = reconstruct_response(
                h, schedule, observable, grid, MultiIndex([m]), EXACT, psi
            )
            oracle = oracles[m]
            dev = float(np.max(np.abs(series.values - oracle)))
            worst = max(worst, dev)
            line = f"  m={m}: |engine - commutator| = {dev:.3e}"
            if m == 1:
                sampler = lambda eta: driven_signal(
                    h, schedule, [eta], observable, [grid[5]], EXACT, psi
                )[0]
                fd = finite_difference_derivative(sampler, 1, 1e-4)
                line += f"   fd baseline dev = {abs(fd.refined - oracle[5]):.3e}"
            print(line)
    print(f"worst deviation: {worst:.3e} (tolerance {args.tolerance:.1e})")
    return 0 if worst < args.tolerance else 3


if __name__ == "__main__":
    sys.exit(main())
