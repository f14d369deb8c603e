#!/usr/bin/env python3
"""Desk-scale cross-validation sweep: ``verify_experiment`` (shift-rule
engine vs the commutator route vs finite differences) on random 4-site
XXZ chains kicked by X1, read out by X2 and by Z2 in turn.

Prints a deviation table per instance; exits 3 if any engine-vs-commutator
deviation reaches the tolerance.
"""

import argparse
import sys

import numpy as np

from nlspec.config import config_from_dict
from nlspec.runner import verify_experiment

#: every instance but its couplings and readout: X1 kicks at 0, 11 times to 5
INSTANCE = {
    "protocol": "response",
    "pumps": [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]}],
    "time_grid": {"start": 0.0, "stop": 5.0, "points": 11},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--max-order", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for k in range(args.instances):
        delta = float(rng.uniform(0.0, 2.0))
        h_field = float(rng.uniform(0.0, 1.0))
        print(f"instance {k}: delta={delta:.3f} h={h_field:.3f}")
        model = {"kind": "xxz", "parameters": {"n_sites": 4, "delta": delta, "h_field": h_field}}
        for axis in ("X", "Z"):
            readout = {"kind": "single_site_pauli", "sites": [2], "axis": axis}
            config = config_from_dict(dict(INSTANCE, model=model, observables=[readout]))
            report = verify_experiment(config, args.tolerance, args.max_order)
            worst = max(worst, report["max_deviation"])
            for row in report["orders"]:
                fd = row["max_abs_fd_minus_commutator"]
                fd = "" if fd is None else f"   fd baseline dev = {fd:.3e}"
                print(
                    f"  {axis}2 m={row['order']}: |engine - commutator| = "
                    f"{row['max_abs_shift_rule_minus_commutator']:.3e}"
                    f"   oracle scale = {row['oracle_scale']:.3e}{fd}"
                )
    print(f"worst deviation: {worst:.3e} (tolerance {args.tolerance:.1e})")
    return 0 if worst < args.tolerance else 3


if __name__ == "__main__":
    sys.exit(main())
