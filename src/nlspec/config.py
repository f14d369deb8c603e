"""Experiment configuration: JSON schema, validation, and observables menu.

A config file is one JSON object per experiment.  The dataclasses are the
schema: ``ExperimentConfig`` and ``GridSpec``, ``ShiftSettings``,
``SamplingSettings``, ``ObservableSpec`` and ``PumpChannel`` here,
``ModelSpec`` and ``PumpSpec`` from ``models`` and ``Evolver`` from
``evolution``.  An object's accepted keys are its dataclass's field names,
each value is checked against its field's annotation and never coerced (an
``int`` field takes only JSON integers, a ``float`` field only numbers,
neither a bool; a model's site counts must be integral), and a missing key takes
the field's default (set here: ``orders``, one first-order derivative per
pump channel, and ``block_size``, half the register).  A pump channel is one
flat object, its ``PumpSpec`` fields plus ``times``, and (site, axis) lists
(``factors``, ``probe_1``, ``probe_2``) are ``{"site": axis}`` maps.

The config itself accepts only ``COMMON_FIELDS`` plus its protocol's row of
``PROTOCOL_FIELDS``, the fields its run reads, and the model, an evolver,
a pump or an observable only ``kind`` plus its kind's row of ``KIND_FIELDS``
(a model's ``parameters`` must be exactly its kind's).  Any other key is
rejected, so a typo or an ignored setting fails loudly, and missing
required fields are reported by name.  ``to_json_dict`` writes the same
fields, defaults included, and round-trips exactly through
``config_from_dict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .analysis import S3_METHODS
from .evolution import EXACT, Evolver
from .models import ModelSpec, PumpSpec, build_pump
from .pauli import OperatorSum, PauliTerm

#: the fields every run reads, and those each protocol's run reads besides them
COMMON_FIELDS = ("protocol", "model", "pumps", "evolver", "seed", "output_dir")
PROTOCOL_FIELDS = {
    "response": ("observables", "time_grid", "orders", "shifts", "sampling"),
    "decomposition": ("observables", "time_grid", "shifts", "eta_eval", "max_order"),
    "pump_probe": ("probe_1", "probe_2", "t1_grid", "t3_grid", "orders", "eta_ref", "kappa"),
    "sweep": ("probe_1", "probe_2", "t1_grid", "t3_grid", "orders", "eta_ref", "sweep_values"),
    "2dos": ("observables", "t1_grid", "t3_grid", "t2", "method"),
    "entropy": ("eta_grid", "block_size", "entropy_time", "eta_eval", "max_order", "delta_values"),
}

#: the fields each kind of nested spec reads besides ``kind``, by spec class
KIND_FIELDS = {
    "ModelSpec": {
        "xxz": ("parameters", "boundary"),
        "toric_code": ("parameters",),
        "tls_dimer": ("parameters",),
        "spin_boson": ("parameters",),
    },
    "Evolver": {"exact": (), "trotter1": ("n_steps",)},
    "PumpSpec": {
        "local_pauli": ("site", "axis"),
        "cosine_profile": ("axis", "momentum", "sites"),
        "pauli_string": ("factors",),
    },
    "ObservableSpec": {
        "two_site_magnetization": ("sites",),
        "spin_current": ("sites", "axis"),
        "single_site_pauli": ("sites", "axis", "coefficient"),
        "magnetization": ("axis",),
        "correlation": ("sites", "axes"),
        "four_point": ("sites", "axes"),
        "pauli_string": ("factors", "coefficient"),
    },
}

OBSERVABLE_KINDS = tuple(KIND_FIELDS["ObservableSpec"])

class ConfigError(ValueError):
    """Configuration file is malformed; the message names the offending field."""


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
            raise ValueError(f"unknown observable kind {self.kind!r}")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "factors", tuple(sorted(dict(self.factors).items())))

    def label(self) -> str:
        if self.kind == "pauli_string":
            body = "".join(f"{a}{s}" for s, a in self.factors)
            return f"string_{body}"
        read = KIND_FIELDS["ObservableSpec"][self.kind]
        bits = [self.kind]
        if "sites" in read:
            bits.append("-".join(str(s) for s in self.sites))
        if "axis" in read:
            bits.append(self.axis.lower())
        if "axes" in read:
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

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points > 1 and self.stop <= self.start:
            raise ValueError("stop must exceed start")

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
    observables: tuple[ObservableSpec, ...] = ()
    evolver: Evolver = EXACT
    time_grid: GridSpec = GridSpec(0.0, 5.0, 51)
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
    sweep_values: tuple[float, ...] = tuple(np.linspace(-1.0, 1.0, 21).tolist())
    eta_grid: tuple[float, ...] = tuple(np.linspace(-0.03, 0.03, 7).tolist())
    block_size: int | None = None
    entropy_time: float = 1.0
    delta_values: tuple[float, ...] = ()
    method: str = "shift_rule"

    def __post_init__(self):
        # here rather than in _validate, so that a seed replaced later
        # (``run_experiment(seed=...)``) is checked too
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, not {self.seed}")


#: the annotation of (site, axis) lists, written as {"site": axis} maps
_FACTORS = "tuple[tuple[int, str], ...]"


def _parse(cls, raw: Mapping, context: str, **built):
    """``cls`` from a JSON object keyed by its field names; a missing key
    takes the field's default.  ``built`` holds fields given as objects, and
    ``context`` names the object in messages ("" for the config itself)."""
    where = context or "config"
    schema = {f.name: f for f in fields(cls) if f.name not in built}
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}")
    for name, f in schema.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field {name!r}")
    for name, value in raw.items():
        field_context = f"{context}.{name}" if context else name
        try:
            built[name] = _convert(schema[name].type, value, field_context)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{field_context}: {exc}") from exc
    try:
        spec = cls(**built)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    unread = sorted(set(raw) - set(_read_fields(spec)))
    if unread:
        raise ConfigError(f"{where}: unknown field(s) {unread} for kind {spec.kind!r}")
    return spec


def _read_fields(spec) -> list[str]:
    """The field names of a dataclass that it reads: every field, except that
    a spec class in ``KIND_FIELDS`` reads ``kind`` and its kind's row."""
    names = [f.name for f in fields(spec)]
    kinds = KIND_FIELDS.get(type(spec).__name__)
    if kinds is None:
        return names
    return [name for name in names if name == "kind" or name in kinds[spec.kind]]


def _parse_pump(raw: Mapping, context: str) -> PumpChannel:
    """A pump channel is one flat object: its PumpSpec fields plus times."""
    spec = {f.name for f in fields(PumpSpec)}
    pump = _parse(PumpSpec, {k: v for k, v in raw.items() if k in spec}, context)
    return _parse(PumpChannel, {k: v for k, v in raw.items() if k not in spec}, context, pump=pump)


_PARSERS = {
    "PumpChannel": _parse_pump,
    **{
        cls.__name__: partial(_parse, cls)
        for cls in (ModelSpec, ObservableSpec, Evolver, GridSpec, ShiftSettings, SamplingSettings)
    },
}


#: the JSON values a scalar field accepts (never a bool), by annotation
_SCALARS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
}


def _convert(annotation: str, value, context: str):
    """A JSON value as the field annotated ``annotation`` holds it."""
    if annotation.endswith(" | None"):
        return None if value is None else _convert(annotation[: -len(" | None")], value, context)
    if annotation == _FACTORS:
        return tuple((int(k), str(v)) for k, v in dict(value).items())
    if annotation.startswith("tuple["):  # tuple[item, ...]
        item = annotation[len("tuple[") : -len(", ...]")]
        return tuple(_convert(item, v, f"{context}[{i}]") for i, v in enumerate(value))
    if annotation == "Mapping[str, float]":
        return {str(k): _convert("float", v, f"{context}.{k}") for k, v in dict(value).items()}
    if annotation in _PARSERS:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{context}: must be a JSON object")
        return _PARSERS[annotation](value, context)
    # no silent coercion: 2.5 steps, "0.5" or true is an error, not 2, 0.5 or 1.0
    accepted, noun = _SCALARS[annotation]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{context}: must be {noun}, not {type(value).__name__} {value!r}")
    if annotation == "float":
        value = float(value)
        if not np.isfinite(value):
            raise ConfigError(f"{context}: value must be finite")
    return value


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    protocol = raw.get("protocol")
    if protocol not in PROTOCOL_FIELDS:
        raise ConfigError(f"protocol: unknown protocol {protocol!r}")
    unread = sorted(set(raw) - set(COMMON_FIELDS + PROTOCOL_FIELDS[protocol]))
    if unread:
        raise ConfigError(f"config: unknown field(s) {unread} for the {protocol} protocol")
    config = _parse(ExperimentConfig, raw, "")
    if "orders" not in raw:
        config = replace(config, orders=(1,) * len(config.pumps))
    if config.block_size is None:
        config = replace(config, block_size=config.model.n_qubits() // 2)
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    """The checks that join fields, and each field against the protocol."""
    protocol, pumps = config.protocol, config.pumps
    if not pumps:
        raise ConfigError("pumps: at least one drive channel is required")
    if protocol in ("response", "decomposition") and not config.observables:
        raise ConfigError("observables: required for response and decomposition protocols")
    if protocol == "response" and len(config.orders) != len(pumps):
        raise ConfigError("orders: one derivative order per pump channel is required")
    if protocol == "decomposition" and len(pumps) != 1:
        raise ConfigError(
            "pumps: the decomposition protocol expands one drive channel; "
            f"the config has {len(pumps)}"
        )
    # the other protocols place their own kicks: one pump channel, kicked at 0
    if protocol not in ("response", "decomposition") and (len(pumps) != 1 or pumps[0].times != (0.0,)):
        raise ConfigError(
            f"pumps: the {protocol} protocol needs exactly one pump channel, with times [0.0]"
        )
    if "t1_grid" in PROTOCOL_FIELDS[protocol] and None in (config.t1_grid, config.t3_grid):
        raise ConfigError(f"t1_grid/t3_grid: the {protocol} protocol needs both grids")
    first_only = {"decomposition": "observables", "2dos": "observables", "entropy": "eta_eval"}
    if protocol in first_only and len(getattr(config, first_only[protocol])) > 1:
        raise ConfigError(f"{first_only[protocol]}: the {protocol} protocol reads one entry")
    if protocol == "decomposition" and config.shifts.mode != "full":
        raise ConfigError(
            "shifts.mode: the decomposition protocol expands every order; only 'full' applies"
        )
    if protocol in ("pump_probe", "sweep") and not (config.probe_1 and config.probe_2):
        raise ConfigError("probe_1/probe_2: pump-probe protocols need both probe strings")
    if protocol in ("pump_probe", "sweep") and not config.orders:
        raise ConfigError("orders: pump-probe protocols need at least one order")
    if protocol == "entropy" and config.entropy_time < 0:
        raise ConfigError("entropy_time: must be >= 0")
    if protocol == "entropy" and config.delta_values and config.model.kind != "xxz":
        raise ConfigError("delta_values: the anisotropy scan needs the xxz model")
    if protocol == "sweep" and config.model.kind != "toric_code":
        raise ConfigError("model: the sweep protocol sweeps the toric-code coupling")
    if config.method not in S3_METHODS:
        raise ConfigError(f"method: unknown method {config.method!r}, expected one of {S3_METHODS}")
    read = PROTOCOL_FIELDS[protocol]
    if "orders" in read and min(config.orders, default=0) < 0:
        raise ConfigError(f"orders: derivative orders must be >= 0, not {list(config.orders)}")
    if "max_order" in read and config.max_order < 0:
        raise ConfigError(f"max_order: must be >= 0, not {config.max_order}")
    for name in ("eta_eval", "sweep_values"):
        if name in read and not getattr(config, name):
            raise ConfigError(f"{name}: at least one value is required")
    if protocol == "2dos":
        starts = {"t2": config.t2, "t1_grid": config.t1_grid.start, "t3_grid": config.t3_grid.start}
        for name, start in starts.items():
            if start < 0:
                raise ConfigError(f"{name}: the 2dos protocol's times must be >= 0, not {start}")
        for name in ("t1_grid", "t3_grid"):
            points = getattr(config, name).points
            if points < 2:
                raise ConfigError(f"{name}: the 2D spectrum needs at least 2 points, not {points}")
        t1, t3 = config.t1_grid, config.t3_grid
        if t1.points != t3.points or not math.isclose(t1.dt, t3.dt, rel_tol=1e-9):
            raise ConfigError(
                "t1_grid/t3_grid: the diagonal weights need a square frequency mesh (equal "
                f"points and spacing), not {t1.points} points at {t1.dt:g} and "
                f"{t3.points} at {t3.dt:g}"
            )
    if "eta_grid" in read:
        etas = np.asarray(config.eta_grid)
        if etas.size < config.max_order + 1:
            raise ConfigError(
                f"eta_grid: needs at least max_order + 1 = {config.max_order + 1} points, "
                f"not {etas.size}"
            )
        if np.max(np.abs(etas + etas[::-1])) > 1e-12 * max(1.0, np.max(np.abs(etas))):
            raise ConfigError(f"eta_grid: must be symmetric about 0, not {list(config.eta_grid)}")
    n_qubits = config.model.n_qubits()
    if "block_size" in read and not 1 <= config.block_size < n_qubits:
        raise ConfigError(f"block_size: must be in [1, {n_qubits - 1}], not {config.block_size}")
    for name in ("probe_1", "probe_2"):
        if name in read:
            try:
                OperatorSum((PauliTerm(1.0, dict(getattr(config, name))),), n_qubits)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    for name, specs in (("pumps", [c.pump for c in pumps]), ("observables", config.observables)):
        for i, sites in enumerate(spec.sites for spec in specs):
            if len(set(sites)) < len(sites):  # the term {i: a, i: b} would keep b alone
                raise ConfigError(f"{name}[{i}].sites: a site repeats in {list(sites)}")
    for i, channel in enumerate(pumps):
        try:
            build_pump(channel.pump, n_qubits)
        except ValueError as exc:
            raise ConfigError(f"pumps[{i}]: {exc}") from exc
    labels = [obs.label() for obs in config.observables]
    for i, obs in enumerate(config.observables):
        try:
            build_observable(obs, n_qubits)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"observables[{i}]: {exc}") from exc
        if (first := labels.index(labels[i])) < i:  # the label names the observable's files
            raise ConfigError(f"observables[{first}] and observables[{i}]: both are {labels[i]!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def make_output_dir(path: str | Path) -> Path:
    """``path`` made a directory; ``ConfigError`` if it is a file or under one."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path} cannot be made: {exc}") from exc
    return Path(path)


def _json(value, annotation: str = ""):
    """A field value as JSON; a dataclass becomes an object of the fields it
    reads (``_read_fields``)."""
    if annotation == _FACTORS:
        return {str(site): axis for site, axis in value}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, PumpChannel):
        return {**_json(value.pump), "times": _json(value.times)}
    if is_dataclass(value):
        read = _read_fields(value)
        return {
            f.name: _json(getattr(value, f.name), f.type) for f in fields(value) if f.name in read
        }
    return dict(value) if isinstance(value, dict) else value


def to_json_dict(config: ExperimentConfig) -> dict:
    """Serialize the fields its protocol reads, defaults included; load(dump(c)) == c."""
    names = COMMON_FIELDS + PROTOCOL_FIELDS[config.protocol]
    return {f.name: _json(getattr(config, f.name), f.type) for f in fields(config) if f.name in names}
