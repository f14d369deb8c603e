"""One repetition of a benchmark workload, in a fresh interpreter.

A fresh process per repetition is required: nlspec keeps module-level caches
(``evolution._EIG_CACHE``, ``_KICK_CACHE``, ``_SPARSE_CACHE`` and the
``lru_cache``s in ``pauli``) that a second call in the same process would hit,
and a user's ``nlspec run`` never does.

    python3 perfbench/worker.py CONFIG OUT_DIR RESULT --seed N [--verify] [--trace]

The caller puts the checkout's ``src`` on PYTHONPATH.  The result JSON holds
the ``time.monotonic()`` reading at which set-up (import, config load and
validation) ended, and the wall and CPU time of the run itself.
"""

from __future__ import annotations

import argparse
import json
import time

import nlspec.config
import nlspec.runner


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    config = nlspec.config.load_config(args.config)
    setup_done = time.monotonic()

    wall_start, cpu_start = time.perf_counter(), time.process_time()
    nlspec.runner.run_experiment(config, output_dir=args.out, threads=1, seed=args.seed)
    report = nlspec.runner.verify_experiment(config, tolerance=1e-8) if args.verify else None
    wall_s, cpu_s = time.perf_counter() - wall_start, time.process_time() - cpu_start

    result = {"setup_done": setup_done, "wall_s": wall_s, "cpu_s": cpu_s, "verify": report}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
