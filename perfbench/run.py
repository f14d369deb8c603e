"""nlspec benchmark: repeated runs of one workload, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one client:
a single parent process starts one worker (``perfbench/worker.py``) at a
time, the next only after the previous one has exited, each calling
``run_experiment`` with ``threads=1``.  OpenBLAS keeps its default thread
count, which is recorded with the environment.  Repetitions start until the
next one is predicted to end after ``--seconds`` (at least three, or two
with ``--trace 1``).

End-to-end metrics (``--trace 0``), medians over the repetitions:
``wall_s`` (run_experiment, plus verify_experiment where the workload calls
it), ``cpu_s`` (user + system CPU time of the same region, all threads),
``setup_s`` (spawn until nlspec is imported and the config loaded and
validated) and ``peak_rss_mb`` (the worker's peak resident set).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (medians over the traced ones) plus
``trace.overhead_s``, the traced minus the untraced median wall time.

A repetition fails if its worker exits non-zero, if its CSVs and
``resolved_config.json`` are not byte-identical to the first repetition's,
or if the workload's output check (``workloads.py``) rejects the first
repetition's output.  The last line of stdout is the JSON result; the full
record, with every sample and the environment, is written to
``.perfbench_out/results/`` for ``perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_REPS = {0: 3, 1: 2}
#: no repetition starts this long after the run began, and none outlives
#: REP_DEADLINE_S, so that a run ends well inside three minutes
LAST_START_S = 120.0
REP_DEADLINE_S = 170.0


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Machine, library versions and source revision behind a result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _digest(out: Path) -> str:
    """Hash of the files that must be byte-identical across repetitions."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv" or path.name == "resolved_config.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run_worker(cmd: list[str], env: dict, log: Path, timeout: float):
    """Spawn, wait, and return (spawn time, exit code, rusage, seconds)."""
    with open(log, "wb") as sink:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, proc.returncode, usage, time.monotonic() - spawned


def _repetition(index: int, traced: bool, workload, config: Path, work: Path, seed: int, env: dict, timeout: float) -> dict:
    out, result = work / f"rep{index}", work / f"rep{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(config), str(out), str(result), "--seed", str(seed)]
    cmd += ["--verify"] * workload.verify + ["--trace"] * traced
    spawned, code, usage, seconds = _run_worker(cmd, env, work / f"rep{index}.log", timeout)
    rep = {"traced": traced, "exit": code, "seconds": seconds, "out": str(out)}
    if code != 0:
        return rep
    measured = json.loads(result.read_text())
    rep.update(
        setup_s=measured["setup_done"] - spawned,
        wall_s=measured["wall_s"],
        cpu_s=measured["cpu_s"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        verify=measured["verify"],
        layers=measured.get("layers"),
        digest=_digest(out),
    )
    return rep


def _run_check(workload, rep: dict, raw: dict) -> list[str]:
    try:
        return workload.check(Path(rep["out"]), raw, rep["verify"])
    except Exception as exc:  # a missing or malformed output is a failed check
        return [f"check raised {exc!r}"]


def _median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/nlspec/runner.py", "figures", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"not an nlspec checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    work = OUT / f"work-{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        raw = workload.make_config(ROOT, args.seed)
        config = work / "config.json"
        config.write_text(json.dumps(raw, indent=2) + "\n")

        start = time.monotonic()
        reps: list[dict] = []
        while True:
            trace_this = bool(args.trace) and len(reps) % 2 == 1
            timeout = REP_DEADLINE_S - (time.monotonic() - start)
            reps.append(_repetition(len(reps), trace_this, workload, config, work, args.seed, env, timeout))
            elapsed = time.monotonic() - start
            if elapsed > LAST_START_S:
                break
            if len(reps) >= MIN_REPS[args.trace]:
                trace_next = bool(args.trace) and len(reps) % 2 == 1
                like = [r["seconds"] for r in reps if r["traced"] == trace_next] or [r["seconds"] for r in reps]
                if elapsed + _median(like) > args.seconds:
                    break

        done = [r for r in reps if r["exit"] == 0]
        if not done:
            print("every repetition failed; their output follows", file=sys.stderr)
            for r in reps:
                print(Path(r["out"]).with_suffix(".log").read_text()[-2000:], file=sys.stderr)
            return 1
        reference = done[0]
        failures = _run_check(workload, reference, raw)
        for r in reps:
            r["failed"] = bool(
                r["exit"] != 0
                or r["digest"] != reference["digest"]
                or failures
                or (workload.verify and not r["verify"]["passed"])
            )

        plain = [r for r in done if not r["traced"]]
        traced_reps = [r for r in done if r["traced"]]
        measured: dict[str, float] = {}
        if args.trace:
            if not traced_reps or not plain:
                print("the traced run needs one traced and one untraced repetition", file=sys.stderr)
                return 1
            for name in traced_reps[0]["layers"]:
                measured[name] = _median([r["layers"][name] for r in traced_reps])
            measured["trace.overhead_s"] = _median([r["wall_s"] for r in traced_reps]) - _median(
                [r["wall_s"] for r in plain]
            )
            listed = spec["per_layer"]
        else:
            for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
                measured[name] = _median([r[name] for r in plain])
            listed = spec["end_to_end"]
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}

        result = {
            "correct": not any(r["failed"] for r in reps),
            "attempted": len(reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": metrics,
        }
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "config": raw,
            "check_failures": failures,
            "repetitions": [{k: v for k, v in r.items() if k != "out"} for r in reps],
            **result,
        }
        (OUT / "results").mkdir(exist_ok=True)
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")

        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        samples = len(traced_reps) if args.trace else len(plain)
        for metric, entry in metrics.items():
            print(f"{workload.name} {metric} = {entry['value']:.6g} {entry['unit']} (n={samples})", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
