"""Per-function timing of nlspec's public layers, aggregated in memory.

``install`` replaces each function in ``TARGETS`` by a timing wrapper in every
loaded ``nlspec`` module namespace that binds it, so calls through
``from .x import f`` are seen too; ``src/`` is not touched.  Each wrapper adds
to one record per label (calls, inclusive seconds, self seconds = inclusive
minus the time spent in wrapped callees) instead of keeping a span per call,
because a single repetition makes up to ~10^6 wrapped calls.

The ``COUNTS`` are computed from call arguments and array sizes, not measured:
``string_rotations`` is n_steps x len(h.terms) per Trotter evolve call and
``bytes_computed`` charges each rotation one complex128 state read and one
written (32 bytes per amplitude), ignoring temporaries and cache misses.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

#: (module, function) pairs wrapped; the label is "<module>.<function>"
TARGETS = (
    ("evolution", "evolve"),
    ("evolution", "driven_signal"),
    ("evolution", "apply_kick"),
    ("pauli", "expectation"),
    ("pauli", "apply_operator"),
    ("pauli", "eigendecompose"),
    ("pauli", "commutator_norm"),
    ("shift_rules", "gap_set"),
    ("shift_rules", "rule_for_gap_set"),
    ("response", "reconstruct_response"),
    ("response", "response_decomposition"),
    ("reference", "nested_commutator_series"),
    ("reference", "finite_difference_derivative"),
    ("sampling", "noisy_response"),
    ("sampling", "sample_expectation"),
    ("models", "build_model"),
    ("models", "ground_state"),
    ("analysis", "pump_probe_correlator"),
    ("analysis", "correlator_order_expansion"),
    ("analysis", "third_order_2dos"),
    ("spectra", "response_spectrum"),
    ("spectra", "spectrum_2d"),
    ("runner", "write_csv"),
    ("runner", "run_experiment"),
    ("runner", "verify_experiment"),
    ("config", "load_config"),
)

#: evolve is reported per propagation path, classified from its arguments
EVOLVE_PATHS = ("evolution.evolve_eigh", "evolution.evolve_krylov", "evolution.evolve_trotter")

LABELS = tuple(
    label
    for module, name in TARGETS
    for label in (EVOLVE_PATHS if name == "evolve" else (f"{module}.{name}",))
) + ("evolution.PulseSchedule",)

COUNTS = (
    "evolution.evolve_trotter.string_rotations",
    "evolution.evolve_trotter.bytes_computed",
    "evolution.driven_signal.grid_points",
    "pauli.eigendecompose.max_dim",
    "response.reconstruct_response.configurations",
    "runner.write_csv.bytes",
)

#: exact evolution uses the eigenbasis up to this many sites, Krylov above
EIGH_SITE_CAP = 9
BYTES_PER_AMPLITUDE_MOVED = 32


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _evolve_label(args, kwargs):
    evolver = _arg(args, kwargs, 3, "evolver")
    if evolver is not None and evolver.kind == "trotter1":
        return "evolution.evolve_trotter"
    if _arg(args, kwargs, 0, "h").n_sites <= EIGH_SITE_CAP:
        return "evolution.evolve_eigh"
    return "evolution.evolve_krylov"


def _after_evolve(counts, label, args, kwargs, result):
    if label != "evolution.evolve_trotter" or _arg(args, kwargs, 2, "t") == 0.0:
        return
    h = _arg(args, kwargs, 0, "h")
    rotations = _arg(args, kwargs, 3, "evolver").n_steps * len(h.terms)
    counts["evolution.evolve_trotter.string_rotations"] += rotations
    counts["evolution.evolve_trotter.bytes_computed"] += (
        rotations * 2**h.n_sites * BYTES_PER_AMPLITUDE_MOVED
    )


def _after_driven_signal(counts, label, args, kwargs, result):
    counts["evolution.driven_signal.grid_points"] += len(_arg(args, kwargs, 4, "t_grid"))


def _after_eigendecompose(counts, label, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    sites = max(1, len(op.support)) if _arg(args, kwargs, 1, "on_support", False) else op.n_sites
    key = "pauli.eigendecompose.max_dim"
    counts[key] = max(counts[key], 2**sites)


def _after_reconstruct(counts, label, args, kwargs, result):
    counts["response.reconstruct_response.configurations"] += result.metadata["n_configurations"]


def _after_write_csv(counts, label, args, kwargs, result):
    counts["runner.write_csv.bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


_AFTER = {
    "evolve": _after_evolve,
    "driven_signal": _after_driven_signal,
    "eigendecompose": _after_eigendecompose,
    "reconstruct_response": _after_reconstruct,
    "write_csv": _after_write_csv,
}


class Tracer:
    """Holds the per-label records of one traced process."""

    def __init__(self):
        self.records = {label: [0, 0.0, 0.0] for label in LABELS}
        self.counts = dict.fromkeys(COUNTS, 0)
        # time spent in wrapped callees, one entry per active wrapped call
        self._child_time = [0.0]

    def wrap(self, fn, label_of, after=None):
        records, child_time, clock = self.records, self._child_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                record = records[label]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if after is not None:
                after(self.counts, label, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, (calls, inclusive, own) in self.records.items():
            out[f"{label}.calls"] = calls
            out[f"{label}.s"] = inclusive
            out[f"{label}.self_s"] = own
        out.update(self.counts)
        return out


def install() -> Tracer:
    """Wrap every target in all loaded nlspec modules; call after importing them."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "nlspec" or name.startswith("nlspec.")]
    for module, name in TARGETS:
        original = getattr(sys.modules[f"nlspec.{module}"], name)
        label = f"{module}.{name}"
        label_of = _evolve_label if name == "evolve" else (lambda args, kwargs, label=label: label)
        wrapper = tracer.wrap(original, label_of, _AFTER.get(name))
        for m in modules:
            for attr in [a for a, value in vars(m).items() if value is original]:
                setattr(m, attr, wrapper)
    schedule = sys.modules["nlspec.evolution"].PulseSchedule
    schedule.__init__ = tracer.wrap(
        schedule.__init__, lambda args, kwargs: "evolution.PulseSchedule"
    )
    return tracer
