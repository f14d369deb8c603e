#!/usr/bin/env python3
"""Run the bundled reproduction configs and collect their artifacts.

Usage:
    python scripts/run_figures.py [--only fig3a fig5 ...] [--out DIR] [--against DIR]

Each config writes CSV data plus resolved_config.json / run_metadata.json
into <out>/<config-name>/.  See figures/*.json for the experiment settings.
With ``--against DIR`` (the output root of an earlier run, say of the parent
commit), each config also reports how many of its CSVs are byte-identical to
DIR/<config-name>/ and whether its resolved_config.json is, and for each CSV
that moved its largest absolute deviation, the column it is in and that
column's largest absolute value in DIR; a CSV that only one of the two runs
wrote is reported missing from the other, and every key of the two
run_metadata.json but ``wall_time_s`` is compared as sorted-key JSON text
(so order counts in lists, and a NaN slope on both sides is equal).  The
script then exits 1 if any CSV moved or is missing, any
resolved_config.json differs or any run_metadata.json key does.
Each line reports the run's wall time and the CPU time of all its threads;
CPU well above wall means BLAS worker threads were busy (or spinning idle).
Exact evolution, the entropy and the Lanczos ground state above 9 sites
run their BLAS and LAPACK calls on one thread; the calls that can still wake
the pool are the dense ground-state ``eigh`` up to 9 sites (fig4_sweep's
256-dimensional toric code reads more CPU than wall time) and the unpinned
small solves, such as the shift rules'.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from nlspec.config import load_config
from nlspec.runner import run_experiment

FIGURE_DIR = Path(__file__).resolve().parent.parent / "figures"


def compare(out: Path, reference: Path) -> tuple[list[str], bool]:
    """Lines comparing the CSVs, resolved_config.json and run_metadata.json
    (all but its wall time) of one config's output directory with those of a
    reference directory, and whether all of them are identical."""
    names = sorted({p.name for d in (out, reference) for p in d.glob("*.csv")})
    moved = []
    for name in names:
        missing = [d for d in (out, reference) if not (d / name).exists()]
        if missing:
            moved.append(f"  {name}: missing from {missing[0]}")
            continue
        if (out / name).read_bytes() == (reference / name).read_bytes():
            continue
        new, old = (np.loadtxt(d / name, delimiter=",", skiprows=1, ndmin=2) for d in (out, reference))
        if new.shape != old.shape:
            moved.append(f"  {name}: shape {old.shape} -> {new.shape}")
            continue
        # a NaN in both runs (an undefined contrast, say) has not moved
        deviation = np.where(np.isnan(new) & np.isnan(old), 0.0, np.abs(new - old))
        column = np.unravel_index(np.argmax(deviation), deviation.shape)[1]
        header = (reference / name).read_text().split("\n", 1)[0].split(",")[column]
        moved.append(
            f"  {name}: max|dev| {deviation.max():.2e} in {header}, "
            f"whose max|value| is {np.abs(old[:, column]).max():.2e}"
        )
    identical = len(names) - len(moved)
    ours, theirs = (d / "resolved_config.json" for d in (out, reference))
    same = theirs.exists() and ours.read_bytes() == theirs.read_bytes()
    lines = [
        f"  against {reference}: {identical} of {len(names)} CSVs byte-identical, "
        f"resolved_config.json {'byte-identical' if same else 'differs'}",
        *moved,
    ]
    new_meta, old_meta = (
        json.loads(p.read_text()) if p.exists() else {}
        for p in (d / "run_metadata.json" for d in (out, reference))
    )
    differ = [
        key
        for key in sorted((new_meta.keys() | old_meta.keys()) - {"wall_time_s"})
        if json.dumps(new_meta.get(key), sort_keys=True)
        != json.dumps(old_meta.get(key), sort_keys=True)
    ]
    for key in differ:
        lines.append(f"  run_metadata.json {key}: {old_meta.get(key)} -> {new_meta.get(key)}")
    return lines, same and not moved and not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", nargs="*", default=None, help="config names to run")
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--against", default=None, help="output root to compare the CSVs with")
    args = parser.parse_args(argv)

    names = sorted(p.stem for p in FIGURE_DIR.glob("*.json"))
    if args.only:
        missing = set(args.only) - set(names)
        if missing:
            print(f"unknown configs: {sorted(missing)}", file=sys.stderr)
            return 2
        names = args.only
    identical = True
    for name in names:
        config = load_config(FIGURE_DIR / f"{name}.json")
        started, cpu_started = time.perf_counter(), time.process_time()
        result = run_experiment(config, output_dir=Path(args.out) / name)
        wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
        print(f"{name}: {len(result.files)} files in {wall:.1f}s wall, {cpu:.1f}s CPU")
        if args.against is not None:
            lines, same = compare(Path(args.out) / name, Path(args.against) / name)
            print("\n".join(lines))
            identical &= same
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
