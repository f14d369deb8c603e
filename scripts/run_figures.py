#!/usr/bin/env python3
"""Run the bundled reproduction configs and collect their artifacts.

Usage:
    python scripts/run_figures.py [--only fig3a fig5 ...] [--out DIR]

Each config writes CSV data plus resolved_config.json / run_metadata.json
into <out>/<config-name>/.  See figures/*.json for the experiment settings.
Each line reports the run's wall time and the CPU time of all its threads;
CPU well above wall means BLAS worker threads were busy (or spinning idle).
Exact evolution, the entropy and the Lanczos ground state above 9 sites
run their BLAS and LAPACK calls on one thread; the calls that can still wake
the pool are the dense ground-state ``eigh`` up to 9 sites (fig4_sweep's
256-dimensional toric code reads more CPU than wall time) and the unpinned
small solves, such as the shift rules'.
"""

import argparse
import sys
import time
from pathlib import Path

from nlspec.config import load_config
from nlspec.runner import run_experiment

FIGURE_DIR = Path(__file__).resolve().parent.parent / "figures"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", nargs="*", default=None, help="config names to run")
    parser.add_argument("--out", default="out", help="output root directory")
    args = parser.parse_args()

    names = sorted(p.stem for p in FIGURE_DIR.glob("*.json"))
    if args.only:
        missing = set(args.only) - set(names)
        if missing:
            print(f"unknown configs: {sorted(missing)}", file=sys.stderr)
            return 2
        names = args.only
    for name in names:
        config = load_config(FIGURE_DIR / f"{name}.json")
        started, cpu_started = time.perf_counter(), time.process_time()
        result = run_experiment(config, output_dir=Path(args.out) / name)
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        print(f"{name}: {len(result.files)} files in {wall:.1f}s wall, {cpu:.1f}s CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main())
