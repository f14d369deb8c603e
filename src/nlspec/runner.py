"""Experiment orchestration: build, run, persist, verify.

A run's state lives in one run scope (``_Run``): its CSV writer, and its one
model builder (``_Run.model``, once per sweep coupling or entropy anisotropy)
with the record of each ground-state solve.  Protocols hand the writer whole
arrays, one per column: ``_Run.csv`` broadcasts them together and writes one
row per element, row-major with the last axis fastest, so a (t1, t2) grid
file is ``csv(name, header, t1s[:, None], t2s[None, :], values)``.

Every run writes CSV data files plus two JSON sidecars: the fully resolved
configuration (byte-stable, reruns produce identical data files for the
same config and seed) and a metadata record with engine version, wall time,
and seeds, noting when BLAS calls could not be pinned to one thread.  CSV
numbers are full-precision scientific notation with LF line endings;
headers name the columns and units (times in inverse coupling units,
frequencies angular).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    AnalysisError,
    contrast_ratio,
    correlator_order_expansion,
    entanglement_entropy,
    entropy_expansion,
    pca_slope,
    PointCloud2D,
    pump_probe_correlator,
    third_order_2dos,
)
from .config import ConfigError, ExperimentConfig, build_observable, make_output_dir, to_json_dict
from .evolution import PulseSchedule, blas_pin_unavailable, driven_signal, driven_states
from .models import build_model, build_pump, ground_state
from .pauli import OperatorSum, PauliTerm
from .reference import (
    finite_difference_derivative,
    nested_commutator_prefixes,
    stencil_amplitudes,
)
from .response import (
    MultiIndex,
    reconstruct_response,
    response_decomposition,
    rules_for_schedule,
    shift_configurations,
)
from .sampling import allocate_shots, variance_bound
from .shift_rules import rule_for_generator
from .spectra import response_spectrum, spectrum_2d, diagonal_offdiagonal_weight


def format_float(x: float) -> str:
    return f"{float(x):.17e}"


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")


@dataclass
class RunResult:
    output_dir: Path
    files: list[str]
    metadata: dict


@dataclass
class _Run:
    """One run's state: its config, the directory its CSVs go to (None for
    ``verify_experiment``, which writes none), the CSVs written and the
    record of every ground-state solve, each in order."""

    config: ExperimentConfig
    out: Path | None = None
    files: list[str] = field(default_factory=list)
    solves: list[dict] = field(default_factory=list)

    def csv(self, name: str, header: Sequence[str], *columns) -> None:
        """The run's one CSV writer: broadcasts ``columns`` together, writes
        them to out/name row-major (last axis fastest) and lists the file."""
        grids = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
        write_csv(self.out / name, header, np.column_stack([g.ravel() for g in grids]).tolist())
        self.files.append(name)

    def model(self, **parameters) -> tuple[OperatorSum, np.ndarray]:
        """H of the config's model with ``parameters`` replaced, and its ground
        state for the config's evolver; the solve's record (route, and E0 and
        gap on the plan route) is kept for the run's metadata."""
        model = self.config.model
        h = build_model(replace(model, parameters={**model.parameters, **parameters}))
        record: dict = {}
        psi0 = ground_state(h, self.config.evolver, record)
        self.solves.append(record)
        return h, psi0


def _materialize(run: _Run):
    h, psi0 = run.model()
    n = h.n_sites
    pumps = [(build_pump(c.pump, n), c.times) for c in run.config.pumps]
    schedule = PulseSchedule(pumps)
    observables = [(o.label(), build_observable(o, n)) for o in run.config.observables]
    return h, schedule, observables, psi0


def _emit_series_and_spectrum(csv, name: str, times, values, dt: float):
    csv(f"{name}.csv", ["t[1/J]", "value"], times, values)
    if times.size > 1 and dt > 0:
        spec = response_spectrum(values, dt=dt)
        csv(
            f"{name}_spectrum.csv",
            ["omega[J]", "magnitude", "real", "imag"],
            spec.frequencies, spec.magnitudes, spec.amplitudes.real, spec.amplitudes.imag,
        )


def _run_response(run: _Run) -> dict:
    config, csv = run.config, run.csv
    h, schedule, observables, psi0 = _materialize(run)
    grid = config.time_grid.values()
    beta = MultiIndex(config.orders)
    rules = rules_for_schedule(
        schedule, beta, n_shifts=config.shifts.n_shifts, mode=config.shifts.mode
    )
    meta: dict = {"orders": list(beta.beta), "n_configurations": None}
    plan = None
    if config.sampling is not None:
        total, mode = config.sampling.total_shots, config.sampling.mode
        _, weights = shift_configurations(rules, beta)
        plan = allocate_shots(weights, total, mode, config.seed)
        meta["variance_bound"] = variance_bound(weights, total, mode)
    tag = "m" + "-".join(str(b) for b in beta.beta)
    for label, observable in observables:
        series = reconstruct_response(
            h, schedule, observable, grid, beta, config.evolver, psi0, rules, plan
        )
        meta["n_configurations"] = series.metadata["n_configurations"]
        name = f"response_{tag}_{label}"
        _emit_series_and_spectrum(csv, name, grid, series.values, config.time_grid.dt)
        if plan is not None:
            csv(
                f"{name}_sampled.csv",
                ["t[1/J]", "estimate", "std_error"],
                grid, series.metadata["sampled"], series.metadata["std_error"],
            )
    return meta


def _run_decomposition(run: _Run) -> dict:
    config, csv = run.config, run.csv
    h, schedule, observables, psi0 = _materialize(run)
    label, observable = observables[0]
    grid = config.time_grid.values()
    terms, residuals, rule = response_decomposition(
        h,
        schedule,
        observable,
        grid,
        config.eta_eval,
        config.max_order,
        config.evolver,
        psi0,
        n_shifts=config.shifts.n_shifts,
    )
    etas = [f"{e:g}" for e in config.eta_eval]
    for n in range(config.max_order + 1):
        csv(f"A{n}.csv", ["t[1/J]"] + [f"A{n}[eta={e}]" for e in etas], grid, *terms[:, n])
    csv("diff.csv", ["t[1/J]"] + [f"diff[eta={e}]" for e in etas], grid, *residuals)
    return {
        "observable": label,
        "basis": rule.basis,
        "max_abs_diff": dict(zip(etas, np.abs(residuals).max(axis=1).tolist())),
    }


def _pump_probe_drive(config: ExperimentConfig):
    """The pump, the two probes, the orders and their shift rule of a
    pump-probe config: the pieces that do not depend on the model's couplings."""
    n = config.model.n_qubits()
    pump = build_pump(config.pumps[0].pump, n)
    probes = tuple(
        OperatorSum((PauliTerm(1.0, dict(p)),), n) for p in (config.probe_1, config.probe_2)
    )
    orders = sorted(set(int(o) for o in config.orders))
    return pump, probes, orders, rule_for_generator(pump, orders)


def _pump_probe_orders(run: _Run, drive, references=(), **parameters):
    """The (t1, t2) grids and C^(n) per order of a pump-probe config on its
    model with ``parameters`` replaced, and the correlator at each of the
    ``references`` amplitudes; ``drive`` is the config's ``_pump_probe_drive``.

    One correlator call samples every cell of the grid at every shift of the
    order rule followed by the references.
    """
    config = run.config
    h, psi0 = run.model(**parameters)
    pump, (probe_1, probe_2), orders, rule = drive
    t1s, t2s = config.t1_grid.values(), config.t3_grid.values()
    etas = np.append(rule.shifts, references)
    samples = pump_probe_correlator(h, pump, probe_1, probe_2, t1s, t2s, etas, psi0, config.evolver)
    order_values = correlator_order_expansion(
        samples[:, :, : rule.n_shifts], rule, orders, config.eta_ref
    )
    return t1s, t2s, order_values, samples[:, :, rule.n_shifts :]


def _run_pump_probe(run: _Run) -> dict:
    # the contrast ratio C(kappa) / C(0) of each cell
    config, csv = run.config, run.csv
    t1s, t2s, order_values, references = _pump_probe_orders(
        run, _pump_probe_drive(config), [0.0, config.kappa]
    )
    contrast = contrast_ratio(references[..., 1], references[..., 0])
    excluded = int(np.count_nonzero(np.isnan(contrast)))
    orders = list(order_values)
    parts = {}
    for m, v in order_values.items():
        parts[f"reC{m}"], parts[f"imC{m}"] = v.real, v.imag
    t1, t2 = t1s[:, None], t2s[None, :]
    csv("correlator_orders.csv", ["t1[1/J]", "t2[1/J]", *parts], t1, t2, *parts.values())
    csv("contrast.csv", ["t1[1/J]", "t2[1/J]", "reR", "imR"], t1, t2, contrast.real, contrast.imag)
    finite = contrast[np.isfinite(contrast.real)]
    if finite.size:
        lo, hi = float(finite.real.min()), float(finite.real.max())
        if hi - lo < 1e-12:  # constant contrast: center one unit-width bin
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(finite.real, bins=41, range=(lo, hi))
        csv("contrast_hist.csv", ["bin_left", "bin_right", "count"], edges[:-1], edges[1:], counts)
    slopes = {}
    quadratures = {}
    pairs = [(a, b) for a, b in zip(orders, orders[1:])]
    for a, b in pairs:
        slope, quadrature = _order_pair_slope(order_values[a], order_values[b])
        slopes[f"s{a}{b}"] = slope
        quadratures[f"s{a}{b}"] = quadrature
        csv(
            f"cloud_c{a}_c{b}.csv",
            [f"reC{a}", f"reC{b}"],
            order_values[a].real, order_values[b].real,
        )
    return {
        "excluded_contrast_points": excluded,
        "pca_slopes": slopes,
        "pca_quadratures": quadratures,
        "mean_contrast": [float(np.nanmean(finite.real)), float(np.nanmean(finite.imag))]
        if finite.size
        else None,
    }


def _order_pair_slope(values_a, values_b) -> tuple[float, str]:
    """Principal-axis slope of an order pair, real quadrature preferred.

    Probe products carrying an overall factor i put the signal entirely in
    the imaginary parts; fall back to that quadrature when the real parts
    are degenerate.
    """
    for quadrature, xs, ys in (
        ("real", values_a.real, values_b.real),
        ("imag", values_a.imag, values_b.imag),
    ):
        try:
            cloud = PointCloud2D(np.column_stack([xs.ravel(), ys.ravel()]))
            return pca_slope(cloud), quadrature
        except AnalysisError:
            continue
    return float("nan"), "none"


def _run_sweep(run: _Run) -> dict:
    # the order-pair slopes of the pump-probe run at each plaquette coupling g
    g_values = sorted(float(g) for g in run.config.sweep_values)
    drive = _pump_probe_drive(run.config)
    _, _, orders, _ = drive
    pairs = list(zip(orders, orders[1:]))
    slopes = []
    for g in g_values:
        _, _, values, _ = _pump_probe_orders(run, drive, j_plaquette=g)
        slopes.append([_order_pair_slope(values[a], values[b])[0] for a, b in pairs])
    header = ["g"] + [f"s{a}{b}" for a, b in pairs]
    run.csv("s35_vs_g.csv", header, g_values, *np.transpose(slopes))
    return {"orders": orders, "n_g": len(g_values)}


def _run_2dos(run: _Run) -> dict:
    config, csv = run.config, run.csv
    h, schedule, observables, psi0 = _materialize(run)
    n = h.n_sites
    pump, _ = schedule.channels[0]
    if observables:
        readout, observable = observables[0]
    else:  # X_0 + X_1, which no observable kind expresses
        readout = " + ".join(f"X_{i}" for i in range(min(2, n)))
        observable = OperatorSum(tuple(PauliTerm(1.0, {i: "X"}) for i in range(min(2, n))), n)
    t1s, t3s = config.t1_grid.values(), config.t3_grid.values()
    s3 = third_order_2dos(
        h, observable, pump, config.t2, t1s, t3s, psi0, config.evolver, config.method
    )
    csv("s3_time.csv", ["t1[1/J]", "t3[1/J]", "S3"], t1s[:, None], t3s[None, :], s3)
    spec = spectrum_2d(s3, config.t1_grid.dt, config.t3_grid.dt)
    csv(
        "s3_spectrum.csv",
        ["omega1[J]", "omega3[J]", "magnitude"],
        spec.frequencies_1[:, None], spec.frequencies_2[None, :], spec.magnitudes,
    )
    p_diag, p_off = diagonal_offdiagonal_weight(spec)
    csv("spectral_weights.csv", ["p_diag", "p_off"], p_diag, p_off)
    return {
        "p_diag": p_diag,
        "p_off": p_off,
        "off_fraction": p_off / (p_diag + p_off) if p_diag + p_off > 0 else 0.0,
        "method": config.method,
        "readout": readout,
    }


def _entropy_point(run: _Run, pump: OperatorSum, **parameters):
    """The entropy fit over the eta grid on the config's model with
    ``parameters`` replaced, and its ground state kicked by eta_eval, as
    ``entropy_expansion`` makes its states."""
    config = run.config
    h, psi0 = run.model(**parameters)
    expansion = entropy_expansion(
        h, pump, psi0, config.eta_grid, config.entropy_time, config.block_size, config.max_order,
        config.evolver,
    )
    kick, grid = PulseSchedule([(pump, [0.0])]), [config.entropy_time]
    (state,) = driven_states(h, kick, config.eta_eval, grid, config.evolver, psi0)
    return expansion, state


def _run_entropy(run: _Run) -> dict:
    config, csv = run.config, run.csv
    n, block = config.model.n_qubits(), config.block_size
    pump = build_pump(config.pumps[0].pump, n)
    expansion, state = _entropy_point(run, pump)
    csv("entropy_vs_eta.csv", ["eta", f"S_{block}"], config.eta_grid, expansion.entropies)
    fit = expansion.coefficients
    csv("entropy_coefficients.csv", ["order", "coefficient"], np.arange(fit.size), fit)
    blocks = range(1, n)
    profile = [entanglement_entropy(state, d) for d in blocks]
    csv("entropy_profile.csv", ["block_size", "S_d"], blocks, profile)
    if config.delta_values:
        deltas = config.delta_values
        points = [_entropy_point(run, pump, delta=float(d)) for d in deltas]
        csv(
            "entropy_coeffs_vs_delta.csv",
            ["delta"] + [f"S{k}" for k in range(config.max_order + 1)],
            deltas, *np.transpose([fit.coefficients for fit, _ in points]),
        )
        halves = [entanglement_entropy(kicked, block) for _, kicked in points]
        csv("entropy_half_vs_delta.csv", ["delta", f"S_{block}"], deltas, halves)
    return {
        "block_size": block,
        "fit_condition_number": expansion.condition_number,
        "fit_residual": expansion.residual,
    }


def run_experiment(
    config: ExperimentConfig,
    output_dir: str | Path | None = None,
    threads: int = 1,
    seed: int | None = None,
) -> RunResult:
    """Execute a validated config and persist all artifacts.

    Runs are serial; ``threads`` accepts only 1.
    """
    # the benchmark worker (perfbench/worker.py) is the last caller passing
    # threads=1; drop the keyword together with that argument
    if threads != 1:
        raise ValueError(f"runs are serial; threads={threads!r} is not supported")
    if seed is not None:
        config = replace(config, seed=seed)
    out = make_output_dir(output_dir if output_dir is not None else config.output_dir)
    start = time.perf_counter()
    _write_json(out / "resolved_config.json", to_json_dict(config))
    run = _Run(config, out)
    meta = {
        "response": _run_response, "decomposition": _run_decomposition, "sweep": _run_sweep,
        "pump_probe": _run_pump_probe, "2dos": _run_2dos, "entropy": _run_entropy,
    }[config.protocol](run)
    metadata = {
        "engine_version": __version__,
        "protocol": config.protocol,
        "seed": config.seed,
        "wall_time_s": time.perf_counter() - start,
        "files": run.files,
        "ground_state": run.solves,
        **meta,
    }
    if blas_pin_unavailable():
        metadata["blas_pinning"] = "unavailable: no OpenBLAS thread-count symbols found"
    _write_json(out / "run_metadata.json", metadata)
    return RunResult(out, run.files + ["resolved_config.json", "run_metadata.json"], metadata)


#: amplitude step of the finite-difference baseline in ``verify_experiment``
_FD_STEP = 1e-3
#: ``verify_experiment`` checks orders 1 to this one
_VERIFY_MAX_ORDER = 5
#: points of the time grid span that ``verify_experiment`` checks
_VERIFY_TIMES = 11


def verify_experiment(config: ExperimentConfig, tolerance: float) -> dict:
    """Cross-check the shift-rule reconstruction against the commutator route.

    The config is a response or decomposition config (its first observable
    is checked) with one pump channel of one pulse (``ConfigError``
    otherwise).  The rule is the run's: the config's ``shifts``, weighted
    for orders 1 to ``_VERIFY_MAX_ORDER`` (odd ones only in the odd mode).
    Returns a report with per-order maximum deviations (plus the
    finite-difference baseline at low orders), the rule's health
    (``n_shifts``, ``mode``, ``condition_number``, each order's
    ``residual``) and a pass flag; used by the CLI `verify` subcommand.
    ``tolerance`` must be positive and finite (``ConfigError`` otherwise).
    """
    if not 0 < tolerance < math.inf:
        raise ConfigError(f"tolerance: must be positive and finite, not {tolerance!r}")
    if config.protocol not in ("response", "decomposition"):
        raise ConfigError(f"verify checks response and decomposition configs, not {config.protocol}")
    if len(config.pumps) != 1:
        raise ConfigError(
            f"verification needs a single pump channel; the config has {len(config.pumps)}"
        )
    if len(config.pumps[0].times) != 1:
        raise ConfigError(
            "verification needs a single pulse; the pump lists "
            f"{len(config.pumps[0].times)} times"
        )
    h, schedule, observables, psi0 = _materialize(_Run(config))
    label, observable = observables[0]
    generator, (t_pulse,) = schedule.channels[0]
    grid = np.linspace(config.time_grid.start, config.time_grid.stop, _VERIFY_TIMES)
    grid = grid[grid >= t_pulse]
    # one rule and one propagation of its shifts serve every order
    mode = config.shifts.mode
    orders = [m for m in range(1, _VERIFY_MAX_ORDER + 1) if mode == "full" or m % 2]
    rule = rule_for_generator(generator, orders, config.shifts.n_shifts, mode)
    signals = driven_signal(
        h, schedule, rule.shifts[:, None], observable, grid, config.evolver, psi0
    )
    # every finite-difference stencil amplitude over the sampled times at once
    stride = max(1, len(grid) // 4)
    # sorted distinct amplitudes; np.unique would import numpy.ma on first use
    fd_etas = sorted({x for m in (1, 2) for x in stencil_amplitudes(m, _FD_STEP).tolist()})
    fd_signals = driven_signal(
        h, schedule, np.array(fd_etas)[:, None], observable, grid[::stride], config.evolver, psi0
    )
    fd_sample = dict(zip(fd_etas, fd_signals))
    # row m: the order-m commutator response, every order from one ket block
    oracles = nested_commutator_prefixes(
        h, observable, [(generator, t_pulse)] * _VERIFY_MAX_ORDER, grid, psi0, config.evolver
    )
    rows = []
    worst = 0.0
    for m in orders:
        series = rule.coefficients[m] @ signals / math.factorial(m)
        oracle = oracles[m]
        dev = float(np.max(np.abs(series - oracle)))
        worst = max(worst, dev)
        fd_dev = None
        if m <= 2:
            fd = finite_difference_derivative(fd_sample.__getitem__, m, _FD_STEP)
            target = oracle[::stride]
            fd_dev = float(np.max(np.abs(fd / math.factorial(m) - target)))
        rows.append(
            {
                "order": m,
                "max_abs_shift_rule_minus_commutator": dev,
                "max_abs_fd_minus_commutator": fd_dev,
                "oracle_scale": float(np.max(np.abs(oracle))),
                "residual": float(rule.residuals[m]),
            }
        )
    return {
        "observable": label,
        "tolerance": tolerance,
        "n_shifts": rule.n_shifts,
        "mode": mode,
        "condition_number": float(rule.condition_number),
        "orders": rows,
        "max_deviation": worst,
        "passed": bool(worst < tolerance),
    }
