"""Command-line interface.

Subcommands:
  run      execute an experiment config and write its artifacts
  verify   check a response, decomposition or 2dos run against the commutator oracle
  gaps     print each pump channel's gap set (the sumset over its pulses) and
           the shift rule the run builds on it: shifts, weights and norms
  spectra  post-process an existing time-series CSV into a spectrum

Exit codes: 0 success, 2 invalid input (config, pulse schedule, shift rule
or spectrum input), 3 verification failure, 4 resource cap exceeded,
5 numerical failure (an expectation with an imaginary part, a ground state
that does not converge, an undefined or ill-conditioned analysis).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import AnalysisError, s3_commutator_rows, s3_shift_rule
from .config import ConfigError, load_config, make_output_dir
from .evolution import PulseSchedule, ScheduleError
from .models import GroundStateError, build_pump
from .pauli import DimensionCapError, HermiticityError
from .response import MultiIndex, decomposition_rule, rules_for_schedule
from .runner import _pump_probe_drive, run_experiment, verify_experiment, write_csv
from .shift_rules import ShiftRuleError, channel_gap_set
from .spectra import SpectrumError, envelope_fit, response_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4
EXIT_NUMERICAL = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlspec",
        description="Nonlinear response reconstruction for kicked spin systems",
    )
    parser.add_argument("--version", action="version", version=f"nlspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")

    ver_p = sub.add_parser("verify", help="oracle cross-check of the reconstruction")
    ver_p.add_argument("--config", required=True)
    ver_p.add_argument("--tolerance", type=float, default=1e-8)
    ver_p.add_argument("--out", default=None, help="optional directory for the report")

    gaps_p = sub.add_parser("gaps", help="print the shift-rule ledger for the pumps")
    gaps_p.add_argument("--config", required=True)

    spec_p = sub.add_parser("spectra", help="Fourier post-processing of a series CSV")
    spec_p.add_argument("--input", required=True, help="CSV with a time column first")
    spec_p.add_argument("--column", type=int, default=1, help="value column index")
    spec_p.add_argument("--out", default=None, help="output CSV path")
    spec_p.add_argument("--envelope", action="store_true", help="fit and remove a decay envelope")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out = args.out or os.environ.get("NLSPEC_OUT_DIR")
    result = run_experiment(config, output_dir=out, seed=args.seed)
    print(f"wrote {len(result.files)} files to {result.output_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    # made before the verification runs, so that a bad path fails at once
    out = make_output_dir(args.out) if args.out else None
    report = verify_experiment(config, tolerance=args.tolerance)
    print(f"observable: {report['observable']}  tolerance: {report['tolerance']:.2e}")
    print(f"times checked: {report['n_times']}")
    rule = f"{report['n_shifts']} shifts ({report['basis']})"
    print(f"shift rule: {rule}, condition number {report['condition_number']:.3e}")
    print("order  max|shift rule - commutator|  max|fd - commutator|  oracle scale  rule residual")
    for row in report["orders"]:
        fd = "-" if row["max_abs_fd_minus_commutator"] is None else f"{row['max_abs_fd_minus_commutator']:.3e}"
        print(
            f"{row['order']:>5}  {row['max_abs_shift_rule_minus_commutator']:>22.3e}  "
            f"{fd:>20}  {row['oracle_scale']:>12.3e}  {row['residual']:>13.2e}"
        )
    if out is not None:
        (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    if not report["passed"]:
        print(f"FAIL: max deviation {report['max_deviation']:.3e} exceeds tolerance")
        return EXIT_VERIFY
    print(f"PASS: max deviation {report['max_deviation']:.3e}")
    return EXIT_OK


def _cmd_gaps(args) -> int:
    config = load_config(args.config)
    protocol, n_shifts = config.protocol, config.shifts.n_shifts
    channels = [(build_pump(c.pump, config.model.n_qubits()), c.times) for c in config.pumps]
    # the rules the run builds, by channel, from the functions the run calls
    rules = {}
    if protocol == "response":
        schedule, beta = PulseSchedule(channels), MultiIndex(config.orders)
        rules = rules_for_schedule(schedule, beta, n_shifts)
    elif protocol == "decomposition":
        rules = {0: decomposition_rule(channels[0], config.max_order, n_shifts=n_shifts)}
    elif protocol in ("pump_probe", "sweep"):
        rules = {0: _pump_probe_drive(config)[3]}
    elif protocol == "2dos":
        if not s3_commutator_rows(config.t2, config.t1_grid.values()).all():
            rules = {0: s3_shift_rule(channels[0][0])}
    why = {
        "entropy": "the entropy protocol fits its eta grid",
        "2dos": "every row takes nested commutators",
    }.get(protocol, "order 0")
    for i, (channel, (generator, times)) in enumerate(zip(config.pumps, channels)):
        gaps = channel_gap_set(generator, len(times))
        print(f"pump[{i}] kind={channel.pump.kind} support={generator.support}")
        print(f"  gaps ({len(gaps)}): {np.array2string(gaps.gaps, precision=10)}")
        print(f"  unit: {gaps.unit}")
        if (rule := rules.get(i)) is None:
            print(f"  no shift rule: {why}")
            continue
        print(f"  shifts ({rule.n_shifts}): {np.array2string(rule.shifts, precision=10)}")
        print(f"  condition number: {rule.condition_number:.3e}")
        for r in sorted(rule.coefficients):
            # w_max^r bounds |c|_1 of every rule exact on the gaps from below
            print(
                f"  order {r}: residual {rule.residuals[r]:.2e}  |c|_1 {rule.l1_norm(r):.6g}  "
                f"floor {gaps.max_gap**r:.6g}  |c|_2^2 {rule.l2_norm_squared(r):.6g}"
            )
            print(f"    c = {np.array2string(rule.coefficients[r], precision=10)}")
    return EXIT_OK


def _cmd_spectra(args) -> int:
    source = Path(args.input)
    if not source.is_file():
        state = "is not a file" if source.exists() else "does not exist"
        raise ConfigError(f"input CSV {source} {state}")
    out = Path(args.out) if args.out else source.with_suffix(".spectrum.csv")
    envelope = out.with_suffix(".envelope.json")
    # every output is checked before anything is written
    outputs = {"CSV": out, "JSON": envelope} if args.envelope else {"CSV": out}
    for kind, path in outputs.items():
        if path.is_dir() or not path.parent.is_dir():
            raise ConfigError(f"output {kind} {path}: not a file in an existing directory")
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without rows; the size check below says so
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"input CSV {args.input} is not numeric: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"input CSV {args.input} has no data rows")
    if data.shape[1] < 2:
        raise ConfigError("input CSV must have at least two columns")
    if not 1 <= args.column < data.shape[1]:
        raise ConfigError(f"--column must be a value column, 1 to {data.shape[1] - 1}")
    times = data[:, 0]
    values = data[:, args.column]
    meta = {}
    if args.envelope:
        fit, values = envelope_fit(values, times)
        meta = {"alpha": fit.alpha, "gamma": fit.gamma, "residual": fit.residual}
        print(f"envelope: alpha={fit.alpha:.6g} gamma={fit.gamma:.6g}")
    spectrum = response_spectrum(values, times=times)
    write_csv(
        out,
        ["omega[J]", "magnitude", "real", "imag"],
        zip(
            spectrum.frequencies,
            spectrum.magnitudes,
            spectrum.amplitudes.real,
            spectrum.amplitudes.imag,
        ),
    )
    if meta:
        envelope.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "gaps": _cmd_gaps,
        "spectra": _cmd_spectra,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ScheduleError, ShiftRuleError, SpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HermiticityError, GroundStateError, AnalysisError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
