"""The nlspec benchmark workloads, why each is there, and what it should show.

Each workload is an experiment config that a fresh interpreter loads with
``nlspec.config.load_config`` and runs with ``nlspec.runner.run_experiment``
(``chain10_verify`` also calls ``nlspec.runner.verify_experiment``).  The
three figure workloads are the bundled ``figures/*.json`` configs with a
coarser time grid, so that several repetitions fit in one run; the model,
protocol and evolution path are unchanged.  Their seed is passed to
``run_experiment``.  ``chain10_verify`` is generated from the seed.

Every workload has an output check on a route independent of the
reconstruction (``Workload.check``).  It runs after the timed repetitions, on the
first repetition's output; the other repetitions must match that output
byte for byte.

Predicted effect of each layer on the end-to-end metrics
--------------------------------------------------------
Per-layer metrics come from the traced run (``--trace 1``); end-to-end
metrics from the untraced run.  "moves" names the end-to-end metric a change
in that layer should move and on which workloads; "flat" is a prediction of
no change.  Metric names are ``<layer>.<function>.{calls,s,self_s}``.

======================================  ===========================  =====================================
per-layer metric                        moves                        on (flat elsewhere unless stated)
======================================  ===========================  =====================================
evolution.evolve_eigh.*                 wall_s                       dimer_2dos, toric_sweep
evolution.evolve_krylov.*               wall_s                       chain10_verify only
evolution.evolve_trotter.*              wall_s                       chain12_trotter only
  .string_rotations, .bytes_computed    (computed, not measured)     chain12_trotter
evolution.driven_signal.*, .grid_points wall_s                       dimer_2dos; flat on chain12_trotter
evolution.apply_kick.*                  wall_s                       dimer_2dos; flat on chain12_trotter
evolution.PulseSchedule.* (builds)      wall_s                       dimer_2dos; flat on chain12_trotter
pauli.expectation.*                     wall_s                       dimer_2dos, chain10_verify
pauli.apply_operator.*                  wall_s                       dimer_2dos, chain10_verify
pauli.eigendecompose.*, .max_dim        wall_s, peak_rss_mb          chain12_trotter, toric_sweep
pauli.commutator_norm.*                 wall_s                       dimer_2dos (0 calls while no two
                                                                     pulses coincide, as in fig5)
shift_rules.gap_set.*                   wall_s, peak_rss_mb          chain12_trotter
shift_rules.rule_for_gap_set.*          wall_s, peak_rss_mb          chain12_trotter
response.reconstruct_response.*         wall_s                       dimer_2dos
  .configurations (signals spent)
response.response_decomposition.*       wall_s                       chain12_trotter
reference.nested_commutator_series.*    wall_s                       chain10_verify only
reference.finite_difference_derivative  wall_s                       chain10_verify only
sampling.noisy_response.*               wall_s                       chain10_verify only
sampling.sample_expectation.*           wall_s                       chain10_verify only
models.build_model.*                    wall_s                       toric_sweep (21 rebuilds), chain10_verify
models.ground_state.*                   wall_s                       toric_sweep, chain10_verify (prepared twice)
analysis.pump_probe_correlator.*        wall_s                       toric_sweep
analysis.correlator_order_expansion.*   wall_s                       toric_sweep
analysis.third_order_2dos.*             wall_s                       dimer_2dos
spectra.response_spectrum.*             (none)                       flat everywhere
spectra.spectrum_2d.*                   (none)                       flat everywhere
runner.write_csv.*, .bytes              (small)                      small everywhere
runner.run_experiment.s                 wall_s                       all (covers the run)
runner.verify_experiment.s              wall_s                       chain10_verify (covers verification)
config.load_config.s                    setup_s                      all
trace.overhead_s                        traced wall time minus the untraced wall_s
======================================  ===========================  =====================================

The ratio ``pauli.eigendecompose.calls`` to ``evolution.evolve_eigh.calls``
is the eigensystem cache miss ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: the oracle tolerance of the test suite; no check here is looser
ORACLE_TOL = 1e-8
#: sampled estimates must lie within this many standard errors of the oracle
SAMPLED_SIGMAS = 5.0
#: chain10_verify rejects parameter draws with a smaller ground-state gap
#: (the near-degenerate 12-site fig3 chain has 1.5e-3)
MIN_GAP = 5e-2

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Workload:
    name: str
    #: (checkout root, seed) -> raw config dict
    make_config: Callable[[Path, int], dict]
    #: (output dir, raw config, verify report or None) -> failure messages
    check: Callable[[Path, dict, dict | None], list[str]]
    verify: bool = False


def _figure(root: Path, name: str, **grids: int) -> dict:
    """A bundled figure config with the named grids cut to fewer points."""
    raw = json.loads((root / "figures" / f"{name}.json").read_text())
    for grid, points in grids.items():
        raw[grid] = dict(raw[grid], points=points)
    return raw


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows.reshape(len(lines) - 1, -1)


def _materialize(raw: dict):
    from nlspec.config import build_observable, config_from_dict
    from nlspec.models import build_model, build_pump, ground_state

    config = config_from_dict(raw)
    h = build_model(config.model)
    pump = build_pump(config.pumps[0].pump, h.n_sites)
    observables = [build_observable(o, h.n_sites) for o in config.observables]
    return config, h, pump, observables, ground_state(h)


# --- dimer_2dos: fig5 on a 14 x 14 (t1, t3) grid ----------------------------
# Why: its 24500 driven_signal calls on a 4-dimensional state measure only the
# per-call Python overhead in evolution and response, where a batched
# propagation kernel should show first.

#: (t1 index, t3 index) cells of the 14 x 14 grid checked against the oracle
_DIMER_CELLS = ((0, 0), (0, 13), (13, 0), (13, 13), (3, 9), (7, 7), (11, 2), (9, 5))


def _check_dimer(out: Path, raw: dict, report: dict | None) -> list[str]:
    from nlspec.analysis import third_order_2dos
    from nlspec.pauli import OperatorSum, PauliTerm

    config, h, pump, observables, psi0 = _materialize(raw)
    if not observables:  # the 2dos protocol's default readout, X_0 + X_1
        observables = [OperatorSum(tuple(PauliTerm(1.0, {i: "X"}) for i in range(2)), 2)]
    t1s, t3s = config.t1_grid.values(), config.t3_grid.values()
    _, s3 = _read_csv(out / "s3_time.csv")
    failures = []
    for i, j in _DIMER_CELLS:
        oracle = third_order_2dos(
            h, observables[0], pump, config.t2, [t1s[i]], [t3s[j]], psi0,
            config.evolver, method="oracle",
        )[0, 0]
        got = s3[i * t3s.size + j, 2]
        if not abs(got - oracle) <= ORACLE_TOL:
            failures.append(f"S3[{i},{j}] = {got!r}, oracle {oracle!r}")
    _, weights = _read_csv(out / "spectral_weights.csv")
    p_diag, p_off = weights[0]
    if not p_off / (p_diag + p_off) > 0:
        failures.append(f"off-diagonal fraction {p_off / (p_diag + p_off)!r} is not positive")
    return failures


DIMER_2DOS = Workload(
    "dimer_2dos", lambda root, seed: _figure(root, "fig5", t1_grid=14, t3_grid=14), _check_dimer
)


# --- chain12_trotter: fig2 on 11 time points ---------------------------------
# Why: nearly all of its cost is Trotter string rotations on 4096-amplitude
# vectors and the dense gap-set eigh of the pump, with no exact-evolution call,
# so it is the workload for Trotter fusion and closed-form gap sets.  (The eigh
# is 1024 x 1024: two of the twelve momentum-1 cosine weights vanish.)


def _check_chain12(out: Path, raw: dict, report: dict | None) -> list[str]:
    failures = []
    for n in range(raw["max_order"] + 1):
        _, values = _read_csv(out / f"A{n}.csv")
        if not np.all(np.isfinite(values)):
            failures.append(f"A{n}.csv has non-finite values")
    _, diff = _read_csv(out / "diff.csv")
    worst = np.max(np.abs(diff[:, 1:]), axis=0)
    etas = raw["eta_eval"]
    if sorted(etas) != etas or not np.all(np.diff(worst) > 0):
        failures.append(f"max|diff| {worst.tolist()} does not grow with eta {etas}")
    return failures


CHAIN12_TROTTER = Workload(
    "chain12_trotter", lambda root, seed: _figure(root, "fig2", time_grid=11), _check_chain12
)


# --- toric_sweep: fig4_sweep on a 4 x 4 (t1, t2) grid -----------------------
# Why: it rebuilds the 8-qubit toric code and its ground state for 21 couplings
# and then runs the eigenbasis path of dimer_2dos on 256 dimensions, where the
# cost is dense matrix-vector products rather than call overhead.  The
# expected slopes are the seed commit's s35_vs_g.csv for this config.


def _check_toric(out: Path, raw: dict, report: dict | None) -> list[str]:
    header, slopes = _read_csv(out / "s35_vs_g.csv")
    expected_header, expected = _read_csv(EXPECTED / "toric_sweep_s35_vs_g.csv")
    if header != expected_header or slopes.shape != expected.shape:
        return [f"s35_vs_g.csv has header {header} and shape {slopes.shape}"]
    failures = []
    if not np.all(np.isfinite(slopes)):
        failures.append("non-finite slope")
    deviation = float(np.max(np.abs(slopes - expected)))
    if not deviation <= ORACLE_TOL:
        failures.append(f"slopes differ from the seed commit's by {deviation:.3e}")
    return failures


TORIC_SWEEP = Workload(
    "toric_sweep", lambda root, seed: _figure(root, "fig4_sweep", t1_grid=4, t3_grid=4), _check_toric
)


# --- chain10_verify: a seeded 10-site response config plus verify ----------
# Why: it is the only workload on the sparse Krylov path (exact evolution above
# 9 sites) and the only one in sampling and the reference routes, the loops a
# shared propagation kernel will absorb, so a gain elsewhere that slows them
# shows here.

#: parameter ranges the seed draws from
_DELTA = (0.45, 0.55)
_H_FIELD = (0.08, 0.16)


def _chain10_config(root: Path, seed: int) -> dict:
    from nlspec.models import build_xxz
    from nlspec.pauli import to_dense

    rng = np.random.default_rng(seed)
    while True:
        delta, h_field = rng.uniform(*_DELTA), rng.uniform(*_H_FIELD)
        energies = np.linalg.eigvalsh(to_dense(build_xxz(10, delta, h_field, "open")))
        if energies[1] - energies[0] >= MIN_GAP:
            break
    return {
        "protocol": "response",
        "model": {
            "kind": "xxz",
            "parameters": {"n_sites": 10, "delta": float(delta), "h_field": float(h_field)},
            "boundary": "open",
        },
        "pumps": [{"kind": "local_pauli", "site": 4, "axis": "X", "times": [0.0]}],
        "observables": [{"kind": "two_site_magnetization", "sites": [4, 5]}],
        "orders": [3],
        "evolver": {"kind": "exact"},
        "time_grid": {"start": 0.0, "stop": 1.5, "points": 16},
        "sampling": {"total_shots": 20000, "mode": "optimal"},
        "seed": seed,
        "output_dir": "out/chain10_verify",
    }


def _check_chain10(out: Path, raw: dict, report: dict | None) -> list[str]:
    from nlspec.reference import nested_commutator_series

    failures = []
    if report is None or not report["passed"]:
        failures.append(f"verify_experiment did not pass at {ORACLE_TOL:g}")
    config, h, pump, observables, psi0 = _materialize(raw)
    grid = config.time_grid.values()
    oracle = nested_commutator_series(
        h, observables[0], [(pump, 0.0)] * 3, grid, psi0, config.evolver
    )
    stem = f"response_m3_{config.observables[0].label()}"
    _, series = _read_csv(out / f"{stem}.csv")
    deviation = float(np.max(np.abs(series[:, 1] - oracle)))
    if not deviation <= ORACLE_TOL:
        failures.append(f"chi3 differs from the commutator route by {deviation:.3e}")
    _, sampled = _read_csv(out / f"{stem}_sampled.csv")
    excess = np.abs(sampled[:, 1] - oracle) - (SAMPLED_SIGMAS * sampled[:, 2] + ORACLE_TOL)
    if not np.all(excess <= 0):
        failures.append(f"sampled chi3 is more than {SAMPLED_SIGMAS:g} standard errors off")
    return failures


CHAIN10_VERIFY = Workload("chain10_verify", _chain10_config, _check_chain10, verify=True)

WORKLOADS = {w.name: w for w in (DIMER_2DOS, CHAIN12_TROTTER, TORIC_SWEEP, CHAIN10_VERIFY)}
