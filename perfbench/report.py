"""Summarise benchmark result records, and compare two sets of them.

    python3 perfbench/report.py [RESULTS_DIR] [--against OTHER_DIR]

RESULTS_DIR defaults to ``.perfbench_out/results``, where ``run.py`` writes
one record per (workload, seed, trace).  For every workload the report prints
each end-to-end metric's median over runs with its quartiles, the quartile
spread as a share of the median, the number of runs and of repetitions behind
them, and the share of failed repetitions; then the per-layer medians of the
traced runs.  ``--against`` treats RESULTS_DIR as the baseline, prints each
metric's change against the bound in ``BENCHMARK.json``, and lists every
environment field on which the two sets differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if record["trace"] == trace:
            groups[record["workload"]].append(record)
    return dict(sorted(groups.items()))


def environments(records: list[dict]) -> dict[str, set]:
    seen: dict[str, set] = defaultdict(set)
    for record in records:
        for key, value in record["environment"].items():
            seen[key].add(json.dumps(value))
    return seen


def failed_shares(records: list[dict]) -> None:
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:16} failed repetitions {failed}/{attempted} = {failed / attempted:.2%}")


def summary(records: list[dict], spec: dict) -> None:
    print(f"{'workload':16} {'metric':12} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'runs':>4} {'reps':>5}")
    for workload, runs in by_workload(records, 0).items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            reps = sum(sum(not rep["traced"] and rep["exit"] == 0 for rep in r["repetitions"]) for r in runs)
            print(f"{workload:16} {metric['name']:12} {metric['unit']:5} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {(q3 - q1) / med:7.2%} {metric['bound']:6.0%} {len(runs):4} {reps:5}")
    print()
    failed_shares(records)
    traced = by_workload(records, 1)
    if traced:
        print()
        print(f"{'per-layer metric (median of traced runs)':46}" + "".join(f"{w:>16}" for w in traced))
        for metric in spec["per_layer"]:
            cells = []
            for runs in traced.values():
                cells.append(statistics.median(r["metrics"][metric["name"]]["value"] for r in runs))
            print(f"{metric['name'] + ' [' + metric['unit'] + ']':46}" + "".join(f"{c:16.6g}" for c in cells))
    for key, values in environments(records).items():
        if len(values) > 1 and key not in ("git_commit", "src_sha256"):
            print(f"warning: runs in this set differ in {key}: {sorted(values)}")


def compare(base: list[dict], other: list[dict], spec: dict) -> None:
    print(f"{'workload':16} {'metric':12} {'base':>10} {'other':>10} {'change':>8} {'bound':>6}  verdict")
    base_groups, other_groups = by_workload(base, 0), by_workload(other, 0)
    for workload in sorted(set(base_groups) & set(other_groups)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in base_groups[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in other_groups[workload])
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if worse > metric["bound"] else ("better" if worse < 0 else "ok")
            print(f"{workload:16} {name:12} {a:10.4g} {b:10.4g} {change:+8.2%} {metric['bound']:6.0%}  {verdict}")
    for label, records in (("base", base), ("other", other)):
        print(f"\n{label}:")
        failed_shares(records)
    base_env, other_env = environments(base), environments(other)
    for key in sorted(set(base_env) | set(other_env)):
        if base_env.get(key) != other_env.get(key):
            print(f"environment differs in {key}: {sorted(base_env.get(key, ()))} vs {sorted(other_env.get(key, ()))}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Summarise or compare benchmark results")
    parser.add_argument("results", nargs="?", type=Path, default=ROOT / ".perfbench_out" / "results")
    parser.add_argument("--against", type=Path, help="a second results directory to compare")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = load(args.results)
    if not records:
        raise SystemExit(f"no result records in {args.results}")
    if args.against is None:
        summary(records, spec)
    else:
        compare(records, load(args.against), spec)


if __name__ == "__main__":
    main()
