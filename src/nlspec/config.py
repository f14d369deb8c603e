"""Experiment configuration: JSON schema, validation, and observables menu.

A config file is one JSON object per experiment.  Unknown keys are rejected
so typos fail loudly; missing required fields are reported by name.  The
fully resolved configuration (defaults filled in) round-trips exactly
through ``to_json_dict`` / ``config_from_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .evolution import Evolver
from .models import ModelSpec, PumpSpec, build_pump
from .pauli import OperatorSum, PauliTerm

PROTOCOLS = ("response", "decomposition", "pump_probe", "2dos", "entropy", "sweep")

OBSERVABLE_KINDS = (
    "two_site_magnetization",
    "spin_current",
    "single_site_pauli",
    "magnetization",
    "correlation",
    "four_point",
    "pauli_string",
)

_AXES = ("X", "Y", "Z")


class ConfigError(ValueError):
    """Configuration file is malformed; the message names the offending field."""


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _reject_unknown(mapping: Mapping, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {unknown}")


def _finite(value, context: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{context}: value must be finite")
    return value


@dataclass(frozen=True)
class ObservableSpec:
    """Named observable constructor plus its parameters."""

    kind: str
    sites: tuple[int, ...] = ()
    axis: str = "X"
    axes: str = ""
    coefficient: float = 1.0
    factors: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ConfigError(f"unknown observable kind {self.kind!r}")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "factors", tuple(sorted(dict(self.factors).items())))

    def label(self) -> str:
        if self.kind == "pauli_string":
            body = "".join(f"{a}{s}" for s, a in self.factors)
            return f"string_{body}"
        bits = [self.kind]
        if self.sites:
            bits.append("-".join(str(s) for s in self.sites))
        if self.kind in ("single_site_pauli", "magnetization", "spin_current"):
            bits.append(self.axis.lower())
        if self.axes:
            bits.append(self.axes.lower())
        return "_".join(bits)


def build_observable(spec: ObservableSpec, n_sites: int) -> OperatorSum:
    """Materialize an observable spec on an n_sites register."""
    kind = spec.kind
    if kind == "two_site_magnetization":
        i, j = spec.sites
        terms = (PauliTerm(1.0, {i: "Z"}), PauliTerm(1.0, {j: "Z"}))
    elif kind == "spin_current":
        i, j = spec.sites
        cyclic = {"X": ("Y", "Z"), "Y": ("Z", "X"), "Z": ("X", "Y")}
        b, c = cyclic[spec.axis]
        terms = (PauliTerm(1.0, {i: b, j: c}), PauliTerm(-1.0, {i: c, j: b}))
    elif kind == "single_site_pauli":
        (i,) = spec.sites
        terms = (PauliTerm(spec.coefficient, {i: spec.axis}),)
    elif kind == "magnetization":
        # per-site average with the conventional overall minus sign
        terms = tuple(PauliTerm(-1.0 / n_sites, {i: spec.axis}) for i in range(n_sites))
    elif kind == "correlation":
        i, j = spec.sites
        a, b = spec.axes.upper()
        terms = (PauliTerm(1.0, {i: a, j: b}),)
    elif kind == "four_point":
        i, j, k, l = spec.sites
        a, b, c, d = spec.axes.upper()
        terms = (PauliTerm(1.0, {i: a, j: b, k: c, l: d}),)
    else:  # pauli_string
        terms = (PauliTerm(spec.coefficient, spec.factors),)
    return OperatorSum(terms, n_sites)


@dataclass(frozen=True)
class PumpChannel:
    """One drive channel: a pump generator and its pulse times."""

    pump: PumpSpec
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    @property
    def dt(self) -> float:
        if self.points < 2:
            return 0.0
        return (self.stop - self.start) / (self.points - 1)


@dataclass(frozen=True)
class ShiftSettings:
    mode: str = "full"
    n_shifts: int | None = None

    def __post_init__(self):
        if self.mode not in ("full", "odd"):
            raise ConfigError(f"shifts.mode: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SamplingSettings:
    total_shots: int
    mode: str = "uniform"

    def __post_init__(self):
        if self.mode not in ("uniform", "optimal"):
            raise ConfigError(f"sampling.mode: unknown mode {self.mode!r}")
        if self.total_shots < 1:
            raise ConfigError("sampling.total_shots: must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    protocol: str
    model: ModelSpec
    pumps: tuple[PumpChannel, ...]
    observables: tuple[ObservableSpec, ...]
    evolver: Evolver
    time_grid: GridSpec
    orders: tuple[int, ...] = (1,)
    shifts: ShiftSettings = ShiftSettings()
    eta_eval: tuple[float, ...] = (0.2,)
    max_order: int = 7
    sampling: SamplingSettings | None = None
    seed: int = 7
    output_dir: str = "out"
    # pump-probe / sweep / 2dos / entropy extras
    probe_1: tuple[tuple[int, str], ...] = ()
    probe_2: tuple[tuple[int, str], ...] = ()
    kappa: float = float(np.pi / 2)
    eta_ref: float = 0.3
    t2: float = 0.5
    t1_grid: GridSpec | None = None
    t3_grid: GridSpec | None = None
    sweep_values: tuple[float, ...] = ()
    eta_grid: tuple[float, ...] = ()
    block_size: int | None = None
    entropy_time: float = 1.0
    delta_values: tuple[float, ...] = ()
    method: str = "shift_rule"


_TOP_LEVEL_KEYS = (
    "protocol",
    "model",
    "pumps",
    "observables",
    "evolver",
    "time_grid",
    "orders",
    "shifts",
    "eta_eval",
    "max_order",
    "sampling",
    "seed",
    "output_dir",
    "probe_1",
    "probe_2",
    "kappa",
    "eta_ref",
    "t2",
    "t1_grid",
    "t3_grid",
    "sweep_values",
    "eta_grid",
    "block_size",
    "entropy_time",
    "delta_values",
    "method",
)


def _parse_model(raw: Mapping) -> ModelSpec:
    _reject_unknown(raw, ("kind", "parameters", "boundary"), "model")
    kind = _require(raw, "kind", "model")
    params = dict(_require(raw, "parameters", "model"))
    boundary = raw.get("boundary", "open")
    try:
        return ModelSpec(kind, {k: _finite(v, f"model.parameters.{k}") for k, v in params.items()}, boundary)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_pump(raw: Mapping, index: int) -> PumpChannel:
    context = f"pumps[{index}]"
    _reject_unknown(raw, ("kind", "site", "axis", "momentum", "sites", "factors", "times"), context)
    kind = _require(raw, "kind", context)
    times = _require(raw, "times", context)
    factors = tuple((int(k), str(v)) for k, v in dict(raw.get("factors", {})).items())
    try:
        pump = PumpSpec(
            kind,
            site=raw.get("site"),
            axis=raw.get("axis", "X"),
            momentum=raw.get("momentum"),
            sites=tuple(raw.get("sites", ())),
            factors=factors,
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return PumpChannel(pump, tuple(float(t) for t in times))


def _parse_observable(raw: Mapping, index: int) -> ObservableSpec:
    context = f"observables[{index}]"
    _reject_unknown(raw, ("kind", "sites", "axis", "axes", "coefficient", "factors"), context)
    kind = _require(raw, "kind", context)
    factors = tuple((int(k), str(v)) for k, v in dict(raw.get("factors", {})).items())
    try:
        return ObservableSpec(
            kind,
            sites=tuple(raw.get("sites", ())),
            axis=raw.get("axis", "X"),
            axes=raw.get("axes", ""),
            coefficient=float(raw.get("coefficient", 1.0)),
            factors=factors,
        )
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_grid(raw: Mapping, context: str) -> GridSpec:
    _reject_unknown(raw, ("start", "stop", "points"), context)
    grid = GridSpec(
        _finite(_require(raw, "start", context), context),
        _finite(_require(raw, "stop", context), context),
        int(_require(raw, "points", context)),
    )
    if grid.points < 1:
        raise ConfigError(f"{context}: points must be >= 1")
    if grid.points > 1 and grid.stop <= grid.start:
        raise ConfigError(f"{context}: stop must exceed start")
    return grid


def _parse_evolver(raw: Mapping) -> Evolver:
    _reject_unknown(raw, ("kind", "n_steps"), "evolver")
    kind = _require(raw, "kind", "evolver")
    try:
        return Evolver(kind, int(raw.get("n_steps", 0)))
    except ValueError as exc:
        raise ConfigError(f"evolver: {exc}") from exc


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "config")
    protocol = _require(raw, "protocol", "config")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol: unknown protocol {protocol!r}")
    model = _parse_model(_require(raw, "model", "config"))
    pumps = tuple(
        _parse_pump(p, i) for i, p in enumerate(_require(raw, "pumps", "config"))
    )
    if not pumps:
        raise ConfigError("pumps: at least one drive channel is required")
    observables = tuple(
        _parse_observable(o, i) for i, o in enumerate(raw.get("observables", ()))
    )
    if protocol in ("response", "decomposition") and not observables:
        raise ConfigError("observables: required for response and decomposition protocols")
    evolver = _parse_evolver(raw.get("evolver", {"kind": "exact"}))
    time_grid = _parse_grid(raw.get("time_grid", {"start": 0.0, "stop": 5.0, "points": 51}), "time_grid")

    orders = tuple(int(o) for o in raw.get("orders", (1,) * len(pumps)))
    if protocol == "response" and len(orders) != len(pumps):
        raise ConfigError("orders: one derivative order per pump channel is required")

    shifts_raw = raw.get("shifts", {})
    _reject_unknown(shifts_raw, ("mode", "n_shifts"), "shifts")
    shifts = ShiftSettings(
        shifts_raw.get("mode", "full"),
        None if shifts_raw.get("n_shifts") is None else int(shifts_raw["n_shifts"]),
    )

    eta_eval = raw.get("eta_eval", (0.2,))
    if isinstance(eta_eval, (int, float)):
        eta_eval = (float(eta_eval),)
    eta_eval = tuple(_finite(e, "eta_eval") for e in eta_eval)

    sampling = None
    if raw.get("sampling") is not None:
        s = raw["sampling"]
        _reject_unknown(s, ("total_shots", "mode"), "sampling")
        sampling = SamplingSettings(
            int(_require(s, "total_shots", "sampling")), s.get("mode", "uniform")
        )

    # these protocols place their own kicks: one pump channel, kicked at 0
    if protocol in ("pump_probe", "sweep", "2dos", "entropy") and (
        len(pumps) != 1 or pumps[0].times != (0.0,)
    ):
        raise ConfigError(
            f"pumps: the {protocol} protocol needs exactly one pump channel, with times [0.0]"
        )

    n_qubits = model.n_qubits()
    probe_1 = tuple((int(k), str(v)) for k, v in dict(raw.get("probe_1", {})).items())
    probe_2 = tuple((int(k), str(v)) for k, v in dict(raw.get("probe_2", {})).items())
    if protocol in ("pump_probe", "sweep"):
        if not probe_1 or not probe_2:
            raise ConfigError("probe_1/probe_2: pump-probe protocols need both probe strings")

    config = ExperimentConfig(
        protocol=protocol,
        model=model,
        pumps=pumps,
        observables=observables,
        evolver=evolver,
        time_grid=time_grid,
        orders=orders,
        shifts=shifts,
        eta_eval=eta_eval,
        max_order=int(raw.get("max_order", 7)),
        sampling=sampling,
        seed=int(raw.get("seed", 7)),
        output_dir=str(raw.get("output_dir", "out")),
        probe_1=probe_1,
        probe_2=probe_2,
        kappa=_finite(raw.get("kappa", np.pi / 2), "kappa"),
        eta_ref=_finite(raw.get("eta_ref", 0.3), "eta_ref"),
        t2=_finite(raw.get("t2", 0.5), "t2"),
        t1_grid=_parse_grid(raw["t1_grid"], "t1_grid") if raw.get("t1_grid") else None,
        t3_grid=_parse_grid(raw["t3_grid"], "t3_grid") if raw.get("t3_grid") else None,
        sweep_values=tuple(_finite(v, "sweep_values") for v in raw.get("sweep_values", ())),
        eta_grid=tuple(_finite(v, "eta_grid") for v in raw.get("eta_grid", ())),
        block_size=None if raw.get("block_size") is None else int(raw["block_size"]),
        entropy_time=_finite(raw.get("entropy_time", 1.0), "entropy_time"),
        delta_values=tuple(_finite(v, "delta_values") for v in raw.get("delta_values", ())),
        method=str(raw.get("method", "shift_rule")),
    )
    if protocol == "entropy" and config.entropy_time < 0:
        raise ConfigError("entropy_time: must be >= 0")
    if protocol == "entropy" and config.delta_values and model.kind != "xxz":
        raise ConfigError("delta_values: the anisotropy scan needs the xxz model")
    if protocol == "sweep" and model.kind != "toric_code":
        raise ConfigError("model: the sweep protocol sweeps the toric-code coupling")
    _validate_against_model(config, n_qubits)
    return config


def _validate_against_model(config: ExperimentConfig, n_qubits: int) -> None:
    for i, channel in enumerate(config.pumps):
        try:
            build_pump(channel.pump, n_qubits)
        except ValueError as exc:
            raise ConfigError(f"pumps[{i}]: {exc}") from exc
    for i, obs in enumerate(config.observables):
        try:
            build_observable(obs, n_qubits)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"observables[{i}]: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def to_json_dict(config: ExperimentConfig) -> dict:
    """Serialize the resolved config; load(dump(c)) == c."""
    out: dict = {
        "protocol": config.protocol,
        "model": {
            "kind": config.model.kind,
            "parameters": dict(config.model.parameters),
            "boundary": config.model.boundary,
        },
        "pumps": [
            {
                "kind": c.pump.kind,
                **({"site": c.pump.site} if c.pump.site is not None else {}),
                "axis": c.pump.axis,
                **({"momentum": c.pump.momentum} if c.pump.momentum is not None else {}),
                **({"sites": list(c.pump.sites)} if c.pump.sites else {}),
                **({"factors": {str(s): a for s, a in c.pump.factors}} if c.pump.factors else {}),
                "times": list(c.times),
            }
            for c in config.pumps
        ],
        "observables": [
            {
                "kind": o.kind,
                **({"sites": list(o.sites)} if o.sites else {}),
                "axis": o.axis,
                **({"axes": o.axes} if o.axes else {}),
                "coefficient": o.coefficient,
                **({"factors": {str(s): a for s, a in o.factors}} if o.factors else {}),
            }
            for o in config.observables
        ],
        "evolver": {"kind": config.evolver.kind, "n_steps": config.evolver.n_steps},
        "time_grid": {
            "start": config.time_grid.start,
            "stop": config.time_grid.stop,
            "points": config.time_grid.points,
        },
        "orders": list(config.orders),
        "shifts": {"mode": config.shifts.mode, "n_shifts": config.shifts.n_shifts},
        "eta_eval": list(config.eta_eval),
        "max_order": config.max_order,
        "sampling": None
        if config.sampling is None
        else {
            "total_shots": config.sampling.total_shots,
            "mode": config.sampling.mode,
        },
        "seed": config.seed,
        "output_dir": config.output_dir,
        "kappa": config.kappa,
        "eta_ref": config.eta_ref,
        "t2": config.t2,
        "entropy_time": config.entropy_time,
        "method": config.method,
    }
    if config.probe_1:
        out["probe_1"] = {str(s): a for s, a in config.probe_1}
    if config.probe_2:
        out["probe_2"] = {str(s): a for s, a in config.probe_2}
    for name in ("t1_grid", "t3_grid"):
        grid = getattr(config, name)
        if grid is not None:
            out[name] = {"start": grid.start, "stop": grid.stop, "points": grid.points}
    if config.sweep_values:
        out["sweep_values"] = list(config.sweep_values)
    if config.eta_grid:
        out["eta_grid"] = list(config.eta_grid)
    if config.block_size is not None:
        out["block_size"] = config.block_size
    if config.delta_values:
        out["delta_values"] = list(config.delta_values)
    return out
