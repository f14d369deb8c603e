import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlspec.cli import main
from nlspec.config import (
    COMMON_FIELDS,
    KIND_FIELDS,
    PROTOCOL_FIELDS,
    ConfigError,
    ExperimentConfig,
    ObservableSpec,
    build_observable,
    config_from_dict,
    load_config,
    to_json_dict,
)
from nlspec import evolution, models, runner, shift_rules
from nlspec.runner import run_experiment, verify_experiment

MINIMAL = {
    "protocol": "response",
    "model": {"kind": "xxz", "parameters": {"n_sites": 4, "delta": 0.8, "h_field": 0.4}},
    "pumps": [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]}],
    "observables": [{"kind": "single_site_pauli", "sites": [2], "axis": "X"}],
    "orders": [1],
    "evolver": {"kind": "exact"},
    "time_grid": {"start": 0.0, "stop": 3.0, "points": 7},
}


#: 10 sites, so exact evolution takes the magnetization-sector route; the
#: X5 probe next to the X4 kick has first- and third-order responses of
#: order one
CHAIN10 = {
    "protocol": "response",
    "model": {
        "kind": "xxz",
        "parameters": {"n_sites": 10, "delta": 0.5, "h_field": 0.12},
        "boundary": "open",
    },
    "pumps": [{"kind": "local_pauli", "site": 4, "axis": "X", "times": [0.0]}],
    "observables": [{"kind": "single_site_pauli", "sites": [5], "axis": "X"}],
    "orders": [3],
    "evolver": {"kind": "exact"},
    "time_grid": {"start": 0.0, "stop": 1.5, "points": 16},
}

FIGURES = Path(__file__).resolve().parents[1] / "figures"


def xxz_model(**parameters):
    """MINIMAL's model with some parameters replaced."""
    return dict(MINIMAL["model"], parameters=dict(MINIMAL["model"]["parameters"], **parameters))

#: a bundled figure of each protocol
FIGURE_OF = {
    "response": "fig3a",
    "decomposition": "fig2",
    "pump_probe": "fig4_xxx",
    "sweep": "fig4_sweep",
    "2dos": "fig5",
    "entropy": "fig2_entropy",
}

#: a valid value of every field outside COMMON_FIELDS
SAMPLE_VALUES = {
    "observables": [{"kind": "single_site_pauli", "sites": [0], "axis": "X"}],
    "time_grid": {"start": 0.0, "stop": 1.0, "points": 3},
    "orders": [1],
    "shifts": {"n_shifts": 9},
    "sampling": {"total_shots": 100},
    "eta_eval": [0.1],
    "max_order": 3,
    "probe_1": {"0": "X"},
    "probe_2": {"0": "Z"},
    "kappa": 1.0,
    "eta_ref": 0.2,
    "t2": 1.0,
    "t1_grid": {"start": 0.5, "stop": 1.0, "points": 3},
    "t3_grid": {"start": 0.5, "stop": 1.0, "points": 3},
    "sweep_values": [0.5],
    "eta_grid": [-0.01, 0.0, 0.01],
    "block_size": 1,
    "entropy_time": 0.5,
    "delta_values": [1.0],
    "method": "oracle",
}

#: every (protocol, field) pair that the protocol's run never reads
UNREAD = [
    (protocol, name)
    for protocol, names in PROTOCOL_FIELDS.items()
    for name in SAMPLE_VALUES
    if name not in names
]


#: a valid spec of every evolver, pump and observable kind on MINIMAL's
#: 4-site chain, keyed by the config field that holds it
KIND_SAMPLES = {
    "evolver": [{"kind": "exact"}, {"kind": "trotter1", "n_steps": 3}],
    "pumps": [
        {"kind": "local_pauli", "site": 1, "axis": "X"},
        {"kind": "cosine_profile", "momentum": 1},
        {"kind": "pauli_string", "factors": {"0": "X"}},
    ],
    "observables": [
        {"kind": "two_site_magnetization", "sites": [0, 1]},
        {"kind": "spin_current", "sites": [0, 1], "axis": "Z"},
        {"kind": "single_site_pauli", "sites": [0]},
        {"kind": "magnetization"},
        {"kind": "correlation", "sites": [0, 1], "axes": "xx"},
        {"kind": "four_point", "sites": [0, 1, 2, 3], "axes": "xxxx"},
        {"kind": "pauli_string", "factors": {"0": "X"}},
    ],
}
#: the spec class behind each field of KIND_SAMPLES, and a valid value of
#: each of the class's fields other than ``kind``
NESTED_VALUES = {
    "evolver": ("Evolver", {"n_steps": 5}),
    "pumps": (
        "PumpSpec",
        {"site": 0, "axis": "Y", "momentum": 1, "sites": [0, 1], "factors": {"0": "X"}},
    ),
    "observables": (
        "ObservableSpec",
        {"sites": [0, 1], "axis": "Y", "axes": "xy", "coefficient": 2.0, "factors": {"0": "X"}},
    ),
}
#: every (config field, spec, field) triple that the spec's kind never reads
NESTED_UNREAD = [
    (where, spec, name)
    for where, specs in KIND_SAMPLES.items()
    for spec in specs
    for name in NESTED_VALUES[where][1]
    if name not in KIND_FIELDS[NESTED_VALUES[where][0]][spec["kind"]]
]


def echoed_keys(where, kind):
    """The keys that an evolver, pump or observable of this kind echoes."""
    keys = ["kind", *KIND_FIELDS[NESTED_VALUES[where][0]][kind]]
    return sorted(keys + (["times"] if where == "pumps" else []))


def with_spec(where, spec):
    """MINIMAL with its evolver, pump or observable replaced by ``spec``."""
    if where == "evolver":
        return dict(MINIMAL, evolver=spec)
    if where == "pumps":
        return dict(MINIMAL, pumps=[dict(spec, times=[0.0])])
    return dict(MINIMAL, observables=[spec])


def poison_unread_kind_fields(spec):
    """A copy of a model, evolver, pump or observable spec whose fields
    outside its kind's row of KIND_FIELDS hold a bare object."""
    poisoned = dataclasses.replace(spec)
    for f in dataclasses.fields(spec):
        if f.name != "kind" and f.name not in KIND_FIELDS[type(spec).__name__][spec.kind]:
            object.__setattr__(poisoned, f.name, object())
    return poisoned


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigParsing:
    def test_minimal_resolves_with_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        assert config.evolver.kind == "exact"
        assert config.time_grid.points == 7
        assert config.seed == 7

    def test_missing_model_parameter_named(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        del payload["model"]["parameters"]["delta"]
        with pytest.raises(ConfigError, match="delta"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(MINIMAL, typo_field=1)
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_sampling_key_rejected(self, tmp_path):
        payload = dict(MINIMAL, sampling={"total_shots": 100, "repetitions": 2})
        with pytest.raises(ConfigError, match="repetitions"):
            load_config(write_config(tmp_path, payload))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"protocol": "response",\n  bad json\n}')
        with pytest.raises(ConfigError, match=":2:"):
            load_config(path)

    def test_nonfinite_parameter_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["model"]["parameters"]["delta"] = 1e999  # becomes inf
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, payload))

    def test_roundtrip_identity(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        rebuilt = config_from_dict(to_json_dict(config))
        assert rebuilt == config

    def test_roundtrip_through_file(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        path = tmp_path / "resolved.json"
        path.write_text(json.dumps(to_json_dict(config)))
        assert load_config(path) == config

    def test_bundled_fig3a_matches_hardware_setup(self):
        config = load_config(Path(__file__).parent.parent / "figures" / "fig3a.json")
        assert config.model.parameters["n_sites"] == 12
        assert config.model.parameters["delta"] == 0.0
        assert config.model.parameters["h_field"] == 0.75
        assert config.pumps[0].pump.site == 3
        assert config.orders == (4,)
        assert config.evolver.kind == "trotter1" and config.evolver.n_steps == 10
        assert config.time_grid.points == 51
        obs = config.observables[0]
        assert obs.kind == "two_site_magnetization" and obs.sites == (3, 4)

    def test_all_bundled_configs_parse(self):
        figdir = Path(__file__).parent.parent / "figures"
        names = sorted(p.name for p in figdir.glob("*.json"))
        assert len(names) == 12
        for name in names:
            config = load_config(figdir / name)
            assert config_from_dict(to_json_dict(config)) == config, name
            dumped = json.dumps(to_json_dict(config), sort_keys=True)
            again = json.dumps(to_json_dict(config_from_dict(json.loads(dumped))), sort_keys=True)
            assert again == dumped, name

    def test_sample_values_cover_every_protocol_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)} - set(COMMON_FIELDS)
        assert set(SAMPLE_VALUES) == names
        assert all(set(fields) <= names for fields in PROTOCOL_FIELDS.values())
        # 5 settable common fields on each protocol, plus its own row
        assert 5 * len(PROTOCOL_FIELDS) + sum(map(len, PROTOCOL_FIELDS.values())) == 65
        assert len(UNREAD) == 85

    @pytest.mark.parametrize(
        "figure, changes, message",
        [
            pytest.param(
                FIGURE_OF[protocol],
                {name: SAMPLE_VALUES[name]},
                rf"config: unknown field\(s\) \['{name}'\] for the {protocol} protocol",
                id=f"{protocol}_{name}",
            )
            for protocol, name in UNREAD
        ]
        + [
            pytest.param(
                "fig2",
                {"shifts": {"mode": "odd", "n_shifts": 8}},
                "shifts.mode: the decomposition",
                id="decomposition_odd",
            )
        ],
    )
    def test_ignored_setting_rejected(self, figure, changes, message):
        # each field is one that the protocol's run never reads; the odd
        # mode is a shifts setting that the decomposition run ignores
        path = FIGURES / f"{figure}.json"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(dict(json.loads(path.read_text()), **changes))

    @pytest.mark.parametrize(
        "figure, changes, message",
        [
            ("fig2", {"observables": SAMPLE_VALUES["observables"] * 2}, "observables: the decomposition"),
            ("fig5", {"observables": SAMPLE_VALUES["observables"] * 2}, "observables: the 2dos"),
            ("fig2_entropy", {"eta_eval": [0.02, 0.04]}, "eta_eval: the entropy"),
        ],
        ids=["decomposition_observables", "2dos_observables", "entropy_eta_eval"],
    )
    def test_second_entry_of_a_first_entry_list_rejected(self, figure, changes, message):
        # these runs read the list up to its first entry only
        path = FIGURES / f"{figure}.json"
        with pytest.raises(ConfigError, match=f"{message} protocol reads one entry"):
            config_from_dict(dict(json.loads(path.read_text()), **changes))

    @pytest.mark.parametrize(
        "figure, protocol", [("fig4_xxx", "pump_probe"), ("fig4_sweep", "sweep"), ("fig5", "2dos")]
    )
    def test_time_grids_required(self, figure, protocol):
        # these runs read t1_grid and t3_grid, and no time_grid to fall back on
        for name in ("t1_grid", "t3_grid"):
            raw = json.loads((FIGURES / f"{figure}.json").read_text())
            del raw[name]
            with pytest.raises(ConfigError, match=f"the {protocol} protocol needs both grids"):
                config_from_dict(raw)

    @pytest.mark.parametrize("figure", ["fig4_xxx", "fig4_sweep"])
    def test_empty_pump_probe_orders_rejected(self, figure):
        raw = dict(json.loads((FIGURES / f"{figure}.json").read_text()), orders=[])
        with pytest.raises(ConfigError, match="orders: pump-probe protocols need at least one"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"time_grid": {"start": 0.0, "stop": 3.0, "points": "many"}},
                "time_grid.points: must be an integer, not str 'many'",
            ),
            (
                {"time_grid": {"start": None, "stop": 3.0, "points": 7}},
                "time_grid.start: .*NoneType",
            ),
            (
                {"pumps": [dict(MINIMAL["pumps"][0], times=[0.0, float("nan")])]},
                r"pumps\[0\]\.times\[1\]: value must be finite",
            ),
            ({"model": 3}, "model: must be a JSON object"),
            ({"orders": None}, "orders: .*not iterable"),
            (
                {"time_grid": {"start": 0.0, "stop": 3.0, "points": 0}},
                "time_grid: points must be >= 1",
            ),
            ({"observables": [{"kind": "nonsense"}]}, r"observables\[0\]: unknown observable kind"),
            # integers and numbers are not coerced: each of these used to load
            (
                {"evolver": {"kind": "trotter1", "n_steps": 2.5}},
                r"evolver\.n_steps: must be an integer, not float 2\.5",
            ),
            (
                {"time_grid": {"start": 0.0, "stop": 3.0, "points": 10.7}},
                r"time_grid\.points: must be an integer, not float 10\.7",
            ),
            ({"orders": [4.9]}, r"orders\[0\]: must be an integer, not float 4\.9"),
            ({"seed": 3.9}, r"seed: must be an integer, not float 3\.9"),
            ({"seed": True}, r"seed: must be an integer, not bool True"),
            (
                {"model": xxz_model(n_sites=12.5)},
                r"model: parameter 'n_sites' must be an integer, not 12\.5",
            ),
            (
                {
                    "model": {
                        "kind": "toric_code",
                        "parameters": {"l_x": 2, "l_y": 1.5, "j_star": 1.0, "j_plaquette": 1.0},
                    }
                },
                r"model: parameter 'l_y' must be an integer, not 1\.5",
            ),
            (
                {"model": xxz_model(delta="0.5")},
                r"model\.parameters\.delta: must be a number, not str '0\.5'",
            ),
            (
                {"model": xxz_model(delta=True)},
                r"model\.parameters\.delta: must be a number, not bool True",
            ),
        ],
        ids=[
            "non_integer", "null_float", "nan_in_list", "non_object", "null_list", "empty_grid",
            "unknown_kind", "fractional_steps", "fractional_points", "fractional_order",
            "fractional_seed", "bool_seed", "fractional_sites", "fractional_torus",
            "string_number", "bool_number",
        ],
    )
    def test_bad_value_names_its_field(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(dict(MINIMAL, **changes))


class TestObservableMenu:
    def test_two_site_magnetization(self):
        o = build_observable(ObservableSpec("two_site_magnetization", sites=(3, 4)), 12)
        assert len(o.terms) == 2

    def test_spin_current_axes(self):
        # J^z on (i, j) is X_i Y_j - Y_i X_j
        o = build_observable(ObservableSpec("spin_current", sites=(3, 4), axis="Z"), 12)
        factor_sets = {t.factors: t.coefficient for t in o.terms}
        assert factor_sets[((3, "X"), (4, "Y"))] == 1.0
        assert factor_sets[((3, "Y"), (4, "X"))] == -1.0

    def test_magnetization_sign_and_scale(self):
        o = build_observable(ObservableSpec("magnetization", axis="X"), 4)
        assert all(t.coefficient == -0.25 for t in o.terms)

    def test_correlation(self):
        o = build_observable(ObservableSpec("correlation", sites=(0, 1), axes="xy"), 4)
        assert o.terms[0].factors == ((0, "X"), (1, "Y"))

    def test_four_point(self):
        o = build_observable(
            ObservableSpec("four_point", sites=(0, 1, 2, 3), axes="xyxz"), 6
        )
        assert o.terms[0].factors == ((0, "X"), (1, "Y"), (2, "X"), (3, "Z"))


class TestKindFields:
    """A model, evolver, pump or observable accepts and echoes ``kind`` plus
    its kind's row of KIND_FIELDS, the fields that building it reads."""

    def test_kinds_cover_every_spec_kind(self):
        assert set(KIND_FIELDS["ModelSpec"]) == set(models.MODEL_KINDS)
        assert set(KIND_FIELDS["Evolver"]) == set(evolution.EVOLVER_KINDS)
        assert set(KIND_FIELDS["PumpSpec"]) == set(models.PUMP_KINDS)
        for where, (cls, _) in NESTED_VALUES.items():
            assert [spec["kind"] for spec in KIND_SAMPLES[where]] == list(KIND_FIELDS[cls])
        assert len(NESTED_UNREAD) == 32

    @pytest.mark.parametrize(
        "where, spec", [(w, s) for w, specs in KIND_SAMPLES.items() for s in specs],
        ids=lambda v: v["kind"] if isinstance(v, dict) else v,
    )
    def test_sample_spec_loads_and_echoes_what_it_gave(self, where, spec):
        resolved = to_json_dict(config_from_dict(with_spec(where, spec)))
        echoed = resolved[where] if where == "evolver" else resolved[where][0]
        assert sorted(echoed) == echoed_keys(where, spec["kind"])

    @pytest.mark.parametrize(
        "where, spec, name", NESTED_UNREAD, ids=[f"{s['kind']}_{n}" for _, s, n in NESTED_UNREAD]
    )
    def test_unread_kind_field_rejected(self, tmp_path, where, spec, name):
        payload = with_spec(where, dict(spec, **{name: NESTED_VALUES[where][1][name]}))
        message = rf"unknown field\(s\) \['{name}'\] for kind '{spec['kind']}'"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(payload)
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


    @pytest.mark.parametrize(
        "model, message",
        [
            (
                dict(MINIMAL["model"], parameters=dict(MINIMAL["model"]["parameters"], j_star=5.0)),
                r"model: unknown parameter\(s\) \['j_star'\] for kind 'xxz'",
            ),
            (
                {"kind": "toric_code", "boundary": "periodic",
                 "parameters": {"l_x": 2, "l_y": 2, "j_star": 1.0, "j_plaquette": 1.0}},
                r"model: unknown field\(s\) \['boundary'\] for kind 'toric_code'",
            ),
        ],
        ids=["xxz_j_star", "toric_code_boundary"],
    )
    def test_unread_model_key_rejected(self, tmp_path, model, message):
        payload = dict(MINIMAL, model=model)
        with pytest.raises(ConfigError, match=message):
            config_from_dict(payload)
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


class TestRunExperiment:
    def test_response_m0_is_unperturbed(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["orders"] = [0]
        payload["observables"] = [{"kind": "single_site_pauli", "sites": [2], "axis": "Z"}]
        config = load_config(write_config(tmp_path, payload))
        result = run_experiment(config, output_dir=tmp_path / "out")
        data = np.loadtxt(tmp_path / "out" / result.files[0], delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 1] - data[0, 1])) < 1e-10  # stationary baseline

    def test_decomposition_emits_expected_files(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["protocol"] = "decomposition"
        payload["max_order"] = 3
        payload["eta_eval"] = [0.1, 0.3]
        del payload["orders"]
        config = load_config(write_config(tmp_path, payload))
        result = run_experiment(config, output_dir=tmp_path / "out")
        for name in ("A0.csv", "A1.csv", "A2.csv", "A3.csv", "diff.csv"):
            assert (tmp_path / "out" / name).exists()
        meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
        assert meta["max_abs_diff"]["0.1"] <= meta["max_abs_diff"]["0.3"]

    def test_rerun_bit_identical(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["sampling"] = {"total_shots": 300, "mode": "uniform"}
        config = load_config(write_config(tmp_path, payload))
        run_experiment(config, output_dir=tmp_path / "a")
        run_experiment(config, output_dir=tmp_path / "b")
        for csv in sorted((tmp_path / "a").glob("*.csv")):
            assert csv.read_bytes() == (tmp_path / "b" / csv.name).read_bytes()
        assert (
            (tmp_path / "a" / "resolved_config.json").read_bytes()
            == (tmp_path / "b" / "resolved_config.json").read_bytes()
        )

    def test_alternating_models_write_their_own_bytes(self, tmp_path):
        # the spectral plan is cached per Hamiltonian: the second run of each
        # model reads its plan from the cache and writes the first run's bytes
        a = config_from_dict(MINIMAL)
        b = config_from_dict(dict(MINIMAL, model=xxz_model(delta=0.6)))
        evolution._spectral_plan.cache_clear()
        runs = [run_experiment(c, output_dir=tmp_path / str(k)) for k, c in enumerate([a, b, a, b])]
        assert evolution._spectral_plan.cache_info().misses == 2
        csvs = [{name: (r.output_dir / name).read_bytes() for name in r.files[:-2]} for r in runs]
        assert csvs[0] == csvs[2] and csvs[1] == csvs[3]
        assert csvs[0].keys() == csvs[1].keys() and csvs[0] != csvs[1]

    def test_runs_in_one_process_record_only_their_own_solves(self, tmp_path):
        # a cut sweep solves once per coupling, the response run once; verify
        # between and after them solves too, and writes to neither run
        sweep = run_experiment(cut_figure("fig4_sweep"), output_dir=tmp_path / "sweep")
        written = {sweep.output_dir: (sweep.output_dir / "run_metadata.json").read_bytes()}
        response_config = config_from_dict(MINIMAL)
        assert verify_experiment(response_config, tolerance=1e-8)["passed"]
        response = run_experiment(response_config, output_dir=tmp_path / "response")
        written[response.output_dir] = (response.output_dir / "run_metadata.json").read_bytes()
        assert verify_experiment(response_config, tolerance=1e-8)["passed"]
        for out, metadata in written.items():
            assert (out / "run_metadata.json").read_bytes() == metadata
        routes = [
            [record["route"] for record in json.loads(metadata)["ground_state"]]
            for metadata in written.values()
        ]
        assert routes == [["dense", "dense"], ["plan"]]

    def test_sampled_run_propagates_once_per_observable(self, tmp_path, monkeypatch):
        # the exact series and its finite-shot estimate read the same states
        calls = []
        original = evolution.driven_states

        def counting_driven_states(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("nlspec") and getattr(module, "driven_states", None) is original:
                monkeypatch.setattr(module, "driven_states", counting_driven_states)
        observables = MINIMAL["observables"] + [
            {"kind": "two_site_magnetization", "sites": [2, 3]}
        ]
        payload = dict(MINIMAL, observables=observables)
        exact = load_config(write_config(tmp_path, payload, "exact.json"))
        run_experiment(exact, output_dir=tmp_path / "exact")
        assert len(calls) == 2
        payload["sampling"] = {"total_shots": 300, "mode": "optimal"}
        config = load_config(write_config(tmp_path, payload))
        calls.clear()
        run_experiment(config, output_dir=tmp_path / "sampled")
        assert len(calls) == 2
        # and the exact outputs are those of the run without sampling
        written = sorted(p.name for p in (tmp_path / "sampled").glob("*.csv"))
        assert sum(name.endswith("_sampled.csv") for name in written) == 2
        for name in sorted(p.name for p in (tmp_path / "exact").glob("*.csv")):
            assert (tmp_path / "sampled" / name).read_bytes() == (
                tmp_path / "exact" / name
            ).read_bytes()

    def test_csv_headers_and_line_endings(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        run_experiment(config, output_dir=tmp_path / "out")
        for csv in (tmp_path / "out").glob("*.csv"):
            raw = csv.read_bytes()
            assert b"\r" not in raw
            header = raw.split(b"\n", 1)[0].decode()
            assert header[0].isalpha()  # named columns
        spectrum_header = (
            (tmp_path / "out" / "response_m1_single_site_pauli_2_x_spectrum.csv")
            .read_text()
            .splitlines()[0]
        )
        assert "omega[J]" in spectrum_header

    def test_resolved_config_echo_roundtrips(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        run_experiment(config, output_dir=tmp_path / "out")
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        # every field the response run reads, those MINIMAL leaves at their
        # defaults included, and no other
        assert sorted(resolved) == sorted(COMMON_FIELDS + PROTOCOL_FIELDS["response"])
        assert resolved["shifts"] == {"mode": "full", "n_shifts": None}
        assert resolved["sampling"] is None and "t1_grid" not in resolved
        echoed = load_config(tmp_path / "out" / "resolved_config.json")
        assert echoed == config


FIGURE_NAMES = sorted(p.stem for p in FIGURES.glob("*.json"))


def cut_figure(name, **changes):
    """A bundled figure on coarser grids and shorter scans, with ``changes``
    made to its fields."""
    raw = json.loads((FIGURES / f"{name}.json").read_text())
    for grid, points in (("time_grid", 6), ("t1_grid", 3), ("t3_grid", 3)):
        if grid in raw:
            raw[grid] = dict(raw[grid], points=points)
    for scan in ("sweep_values", "delta_values"):
        if scan in raw:
            raw[scan] = raw[scan][:2]
    return config_from_dict({**raw, **changes})


class TestProtocolFields:
    """Each protocol accepts, echoes and reads the same fields: COMMON_FIELDS
    plus its row of PROTOCOL_FIELDS."""

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_figure_echo_names_exactly_its_protocol_fields(self, name):
        config = load_config(FIGURES / f"{name}.json")
        names = COMMON_FIELDS + PROTOCOL_FIELDS[config.protocol]
        resolved = to_json_dict(config)
        assert sorted(resolved) == sorted(names)
        specs = [("evolver", resolved["evolver"])] + [
            (where, spec) for where in ("pumps", "observables") for spec in resolved.get(where, [])
        ]
        for where, spec in specs:
            assert sorted(spec) == echoed_keys(where, spec["kind"]), where
        model = resolved["model"]
        assert sorted(model) == sorted(["kind", *KIND_FIELDS["ModelSpec"][model["kind"]]])

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_run_reads_no_field_outside_its_protocol(self, tmp_path, name):
        # every other field poisoned with a bare object, which no number, list
        # or truth test accepts (None would pass as NaN or as false): a run
        # that read one would fail or write different bytes; so are the
        # fields of the model and of each evolver, pump and observable
        # outside its kind's row
        config = cut_figure(name)
        names = COMMON_FIELDS + PROTOCOL_FIELDS[config.protocol]
        unread = {f.name: object() for f in dataclasses.fields(config) if f.name not in names}
        unread["model"] = poison_unread_kind_fields(config.model)
        unread["evolver"] = poison_unread_kind_fields(config.evolver)
        unread["pumps"] = tuple(
            dataclasses.replace(c, pump=poison_unread_kind_fields(c.pump)) for c in config.pumps
        )
        if "observables" in names:
            unread["observables"] = tuple(map(poison_unread_kind_fields, config.observables))
        run_experiment(config, output_dir=tmp_path / "clean")
        run_experiment(dataclasses.replace(config, **unread), output_dir=tmp_path / "poisoned")
        files = sorted(f.name for f in (tmp_path / "clean").iterdir())
        assert sorted(f.name for f in (tmp_path / "poisoned").iterdir()) == files
        files.remove("run_metadata.json")  # holds the wall time
        assert len(files) > 1
        for file in files:
            clean = (tmp_path / "clean" / file).read_bytes()
            assert (tmp_path / "poisoned" / file).read_bytes() == clean, file

    def test_omitted_sweep_values_echo_the_couplings_swept(self, tmp_path):
        raw = json.loads((FIGURES / "fig4_sweep.json").read_text())
        del raw["sweep_values"]
        for grid in ("t1_grid", "t3_grid"):
            raw[grid] = dict(raw[grid], points=2)
        run_experiment(config_from_dict(raw), output_dir=tmp_path)
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        table = np.loadtxt(tmp_path / "s35_vs_g.csv", delimiter=",", skiprows=1)
        assert len(resolved["sweep_values"]) == 21
        assert table[:, 0].tolist() == resolved["sweep_values"]

    def test_omitted_eta_grid_and_block_size_echo_the_values_used(self, tmp_path):
        payload = {
            "protocol": "entropy",
            "model": {"kind": "xxz", "parameters": {"n_sites": 4, "delta": 1.0, "h_field": 0.0}},
            "pumps": [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]}],
            "max_order": 2,
        }
        run_experiment(load_config(write_config(tmp_path, payload)), output_dir=tmp_path / "out")
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["block_size"] == 2
        path = tmp_path / "out" / "entropy_vs_eta.csv"
        assert path.read_text().splitlines()[0] == "eta,S_2"
        etas = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
        assert len(resolved["eta_grid"]) == 7 and etas.tolist() == resolved["eta_grid"]


def perturb_rule_weights(monkeypatch):
    """Route ``verify_experiment`` through a rule whose first weight of each
    order is off by 1e-3."""
    build = runner.rule_for_generator

    def perturbed(*args):
        rule = build(*args)
        weights = {m: np.append(c[0] + 1e-3, c[1:]) for m, c in rule.coefficients.items()}
        return dataclasses.replace(rule, coefficients=weights)

    monkeypatch.setattr(runner, "rule_for_generator", perturbed)


class TestVerify:
    def test_passes_on_clean_engine(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        report = verify_experiment(config, tolerance=1e-8)
        assert report["passed"]
        assert report["max_deviation"] < 1e-10
        # the shared shift rule's health
        assert report["n_shifts"] >= 2
        assert report["condition_number"] >= 1.0
        for row in report["orders"]:
            assert 0.0 <= row["residual"] < 1e-8

    def test_corrupted_coefficients_fail(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, MINIMAL))
        perturb_rule_weights(monkeypatch)
        report = verify_experiment(config, tolerance=1e-8)
        assert not report["passed"]

    def test_krylov_chain_checks_nonzero_orders(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, CHAIN10))
        report = verify_experiment(config, tolerance=1e-8)
        scales = {row["order"]: row["oracle_scale"] for row in report["orders"]}
        assert scales[1] > 0.5 and scales[3] > 0.3
        assert report["passed"]
        assert report["max_deviation"] < 1e-10
        perturb_rule_weights(monkeypatch)
        assert not verify_experiment(config, tolerance=1e-8)["passed"]

    @pytest.fixture(scope="class")
    def random_chain_reports(self):
        # seeded random 4-site chains kicked by X1, read out by X2 and by Z2
        # in turn: X2 responds at odd orders, Z2 at even ones on some chains
        rng = np.random.default_rng(0)
        reports = []
        for _ in range(5):
            delta, h_field = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0))
            for axis in ("X", "Z"):
                payload = dict(
                    MINIMAL,
                    model=xxz_model(delta=delta, h_field=h_field),
                    observables=[{"kind": "single_site_pauli", "sites": [2], "axis": axis}],
                    time_grid={"start": 0.0, "stop": 5.0, "points": 11},
                )
                report = verify_experiment(config_from_dict(payload), tolerance=1e-8)
                reports.append(((delta, h_field, axis), report))
        return reports

    def test_random_chain_instances_pass(self, random_chain_reports):
        for instance, report in random_chain_reports:
            assert report["passed"], instance

    def test_random_chains_check_nonzero_orders_of_each_parity(self, random_chain_reports):
        largest = {0: 0.0, 1: 0.0}  # the largest oracle scale by order parity
        for _, report in random_chain_reports:
            for row in report["orders"]:
                parity = row["order"] % 2
                largest[parity] = max(largest[parity], row["oracle_scale"])
        assert min(largest.values()) > 1e-3

    def test_one_propagation_per_route(self, tmp_path, monkeypatch):
        calls = []

        def counting_driven_signal(*args, **kwargs):
            calls.append(np.shape(args[2]))
            return driven_signal(*args, **kwargs)

        driven_signal = runner.driven_signal
        monkeypatch.setattr(runner, "driven_signal", counting_driven_signal)
        config = load_config(write_config(tmp_path, MINIMAL))
        assert verify_experiment(config, tolerance=1e-8)["passed"]
        # the shared shifts of orders 1..5, then every stencil amplitude of
        # orders 1 and 2 at step and half-step (+-h, +-h/2 and 0)
        assert len(calls) == 2
        assert calls[1] == (5, 1)

    def test_twelve_site_figure_passes(self):
        # fig3a's 12-site Trotter chain, at the engine's site cap
        report = verify_experiment(load_config(FIGURES / "fig3a.json"), tolerance=1e-8)
        assert report["passed"] and report["max_deviation"] < 1e-12
        assert (report["n_shifts"], report["mode"]) == (3, "full")
        assert max(row["oracle_scale"] for row in report["orders"]) > 0.1

    def test_checks_the_config_shift_rule(self, tmp_path):
        # the odd rule of an X kick is the +-pi/4 pair; the default full
        # rule would take 3 shifts
        payload = dict(MINIMAL, orders=[3], shifts={"mode": "odd"})
        report = verify_experiment(load_config(write_config(tmp_path, payload)), tolerance=1e-8)
        assert (report["n_shifts"], report["mode"]) == (2, "odd")
        assert [row["order"] for row in report["orders"]] == [1, 3, 5]
        assert report["passed"]


#: an observable or pump on a repeated site; unchecked, each built another
#: operator: Z2 for X2 Z2, Y3 - X3 for the current on (3, 3), 2 Z1, X0 Z1 Z2,
#: and one merged term for the cosine profile's repeated site
REPEATED_SITES = [
    ("observables", {"kind": "correlation", "sites": [2, 2], "axes": "XZ"}),
    ("observables", {"kind": "spin_current", "sites": [3, 3], "axis": "Z"}),
    ("observables", {"kind": "two_site_magnetization", "sites": [1, 1]}),
    ("observables", {"kind": "four_point", "sites": [0, 1, 1, 2], "axes": "XXZZ"}),
    (
        "pumps",
        {"kind": "cosine_profile", "axis": "X", "momentum": 1, "sites": [0, 2, 2], "times": [0.0]},
    ),
]


class TestCLI:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "run_metadata.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        del payload["model"]["parameters"]["delta"]
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_run_unusable_paths_exit_two(self, tmp_path, capsys):
        # each exited 1 with a traceback: IsADirectoryError, UnicodeDecodeError,
        # FileExistsError and NotADirectoryError
        config, taken, binary = write_config(tmp_path, MINIMAL), tmp_path / "taken", tmp_path / "b"
        taken.write_text("")
        binary.write_bytes(b"\xff\xfe{")
        for path in (tmp_path, binary):
            assert main(["run", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: config file {path} ")
        for out in (taken, taken / "sub"):
            assert main(["run", "--config", str(config), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: output directory {out} ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "config.json", "taken"]

    def test_gaps_unreadable_config_exit_two(self, tmp_path, capsys):
        binary = tmp_path / "b.json"
        binary.write_bytes(b"\xff\xfe{")
        for path in (tmp_path, binary):
            assert main(["gaps", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: config file {path} ")

    def test_verify_out_file_exit_two_before_verifying(self, tmp_path, capsys, monkeypatch):
        # the whole verification ran before the report's directory failed
        monkeypatch.setattr("nlspec.cli.verify_experiment", lambda *a, **k: pytest.fail("ran"))
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path, MINIMAL)
        for out in (taken, taken / "sub"):
            assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: output directory {out} ")

    def test_verify_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "report")]) == 0
        out = capsys.readouterr().out
        assert "3 shifts (full), condition number" in out and "rule residual" in out
        report = json.loads((tmp_path / "report" / "verify_report.json").read_text())
        assert (report["n_shifts"], report["mode"]) == (3, "full")
        # an absurd tolerance cannot fail a clean engine; break it instead
        payload = json.loads(json.dumps(MINIMAL))
        payload["model"]["parameters"]["n_sites"] = 13
        big = write_config(tmp_path, payload, "big.json")
        assert main(["verify", "--config", str(big)]) == 4

    def test_verify_deviation_exit_three(self, tmp_path, capsys, monkeypatch):
        perturb_rule_weights(monkeypatch)
        assert main(["verify", "--config", str(write_config(tmp_path, MINIMAL))]) == 3
        assert "FAIL: max deviation" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_verify_tolerance_positive_and_finite(self, tmp_path, capsys, tolerance):
        # unchecked, nan and -1 failed a clean engine with exit 3 and inf
        # passed whatever the deviation
        path = write_config(tmp_path, MINIMAL)
        assert main(["verify", "--config", str(path), f"--tolerance={tolerance}"]) == 2
        assert capsys.readouterr().err.startswith("config error: tolerance: ")
        with pytest.raises(ConfigError, match="^tolerance: must be positive and finite"):
            verify_experiment(load_config(path), float(tolerance))

    def test_verify_names_the_rule_that_cannot_solve(self, capsys):
        # fig2's 8 shifts are too few for an exact rule on its 153 gaps
        assert main(["verify", "--config", str(FIGURES / "fig2.json")]) == 2
        assert "8 shifts cannot satisfy 153 gap constraints" in capsys.readouterr().err

    def test_verify_without_observable_exit_two(self, capsys):
        # fig5 is a 2dos config, which has no time_grid to check the response on
        assert main(["verify", "--config", str(FIGURES / "fig5.json")]) == 2
        assert "verify checks response and decomposition configs, not 2dos" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "pumps, message",
        [
            ([{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0, 1.0]}], "single pulse"),
            (
                [
                    {"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]},
                    {"kind": "local_pauli", "site": 2, "axis": "Z", "times": [0.5]},
                ],
                "single pump channel",
            ),
        ],
        ids=["multi_pulse", "multi_channel"],
    )
    def test_verify_precondition_exit_two(self, tmp_path, capsys, pumps, message):
        payload = dict(MINIMAL, pumps=pumps, orders=[1] * len(pumps))
        assert main(["verify", "--config", str(write_config(tmp_path, payload))]) == 2
        assert message in capsys.readouterr().err

    def test_odd_shift_count_in_odd_mode_exit_two(self, tmp_path, capsys):
        # odd mode takes +- pairs: 5 shifts would run 4, while
        # resolved_config.json echoed 5
        payload = dict(MINIMAL, orders=[3], shifts={"mode": "odd", "n_shifts": 5})
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "an even shift count, not 5" in capsys.readouterr().err
        assert main(["gaps", "--config", str(path)]) == 2
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize(
        "observable, total_shots",
        [
            # the order-1 rule weighs 2 of its 3 shifts; 1 shot leaves one out
            ({"kind": "single_site_pauli", "sites": [2], "axis": "X"}, 1),
            # one shot per weighted shift cannot measure both Z strings
            ({"kind": "two_site_magnetization", "sites": [2, 3]}, 2),
        ],
        ids=["configuration", "pauli_string"],
    )
    def test_shot_budget_exit_two(self, tmp_path, capsys, observable, total_shots):
        payload = dict(
            MINIMAL, observables=[observable], sampling={"total_shots": total_shots}
        )
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: sampling.total_shots:" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_sampled_order_zero_run(self, tmp_path):
        # order zero reads sampling as every order does: its one configuration,
        # at amplitude 0 with weight 1, takes every shot
        observable = {"kind": "single_site_pauli", "sites": [2], "axis": "Z"}
        payload = dict(
            MINIMAL, orders=[0], observables=[observable], sampling={"total_shots": 4000}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
        name = "response_m0_single_site_pauli_2_z"
        exact = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
        sampled = np.loadtxt(out / f"{name}_sampled.csv", delimiter=",", skiprows=1)
        assert np.array_equal(sampled[:, 0], exact[:, 0]) and np.all(sampled[:, 2] > 0)
        assert np.all(np.abs(sampled[:, 1] - exact[:, 1]) <= 5 * sampled[:, 2])
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["n_configurations"] == 1 and metadata["variance_bound"] == 1 / 4000

    def test_schedule_error_exit_two(self, tmp_path, capsys):
        pumps = [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [5.0]}]
        path = write_config(tmp_path, dict(MINIMAL, pumps=pumps))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "after the last measurement time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {
                    "protocol": "decomposition",
                    "pumps": [
                        {"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]},
                        {"kind": "local_pauli", "site": 2, "axis": "Z", "times": [0.5]},
                    ],
                },
                "the decomposition protocol expands one drive channel; the config has 2",
            ),
            (
                {
                    "protocol": "2dos",
                    "method": "orcale",
                    "time_grid": None,
                    "t1_grid": MINIMAL["time_grid"],
                    "t3_grid": MINIMAL["time_grid"],
                },
                "method: unknown method 'orcale'",
            ),
            (
                # label() ignores the coefficient: the second observable's CSVs
                # overwrote the first's, and run_metadata.json listed each twice
                {
                    "observables": [
                        {"kind": "single_site_pauli", "sites": [2], "axis": "Z", "coefficient": c}
                        for c in (1.0, 2.0)
                    ]
                },
                "observables[0] and observables[1]: both are 'single_site_pauli_2_z'",
            ),
        ]
        + [
            ({where: [*MINIMAL[where], spec]}, f"{where}[1].sites: a site repeats in ")
            for where, spec in REPEATED_SITES
        ],
        ids=["decomposition_two_channels", "2dos_unknown_method", "shared_label"]
        + [f"repeated_{spec['kind']}_site" for _, spec in REPEATED_SITES],
    )
    def test_fails_at_load_exit_two(self, tmp_path, capsys, changes, message):
        # a change to None drops the field, as does every change to orders
        payload = {k: v for k, v in dict(MINIMAL, **changes).items() if v is not None}
        del payload["orders"]
        out = tmp_path / "out"
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def assert_config_error(self, tmp_path, capsys, figure, changes, field):
        """A bundled figure with ``changes`` fails at load, in run and in gaps,
        with a config error that names ``field``."""
        raw = json.loads((FIGURES / f"{figure}.json").read_text())
        path = write_config(tmp_path, {**raw, **changes})
        out = tmp_path / "out"
        for command in (["run", "--out", str(out)], ["gaps"]):
            assert main([*command, "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "figure, changes, field",
        [
            ("fig3a", {"orders": [-1]}, "orders"),
            ("fig4_xxx", {"orders": [-1]}, "orders"),
            ("fig2", {"max_order": -1}, "max_order"),
            ("fig2_entropy", {"max_order": -1}, "max_order"),
            ("fig2", {"eta_eval": []}, "eta_eval"),
            ("fig4_xxx", {"probe_1": {"9": "X"}}, "probe_1"),
            ("fig4_sweep", {"sweep_values": []}, "sweep_values"),
        ],
        ids=[
            "response_orders", "pump_probe_orders", "decomposition_max_order",
            "entropy_max_order", "eta_eval_empty", "probe_off_register", "sweep_values_empty",
        ],
    )
    def test_value_out_of_range_exit_two(self, tmp_path, capsys, figure, changes, field):
        # unchecked, each crashed with a traceback or wrote a header-only CSV
        self.assert_config_error(tmp_path, capsys, figure, changes, field)

    @pytest.mark.parametrize(
        "figure, changes, field",
        [
            ("fig2_entropy", {"model": xxz_model(n_sites=6), "block_size": 9}, "block_size"),
            ("fig2_entropy", {"block_size": 0}, "block_size"),
            ("fig2_entropy", {"block_size": 12}, "block_size"),
            ("fig5", {"t2": -0.5}, "t2"),
            ("fig5", {"t1_grid": {"start": -0.5, "stop": 1.0, "points": 3}}, "t1_grid"),
            ("fig5", {"t3_grid": {"start": -0.5, "stop": 1.0, "points": 3}}, "t3_grid"),
            ("fig2_entropy", {"eta_grid": [-0.03, 0.0, 0.01], "max_order": 2}, "eta_grid"),
            ("fig2_entropy", {"eta_grid": [-0.01, 0.0, 0.01]}, "eta_grid"),
        ],
        ids=[
            "block_above_chain", "block_zero", "block_whole_chain", "t2", "t1_grid", "t3_grid",
            "eta_grid_asymmetric", "eta_grid_below_max_order",
        ],
    )
    def test_invalid_input_exit_two_not_five(self, tmp_path, capsys, figure, changes, field):
        # analysis rejects these too (AnalysisError, exit 5); as input errors they exit 2
        self.assert_config_error(tmp_path, capsys, figure, changes, field)

    @pytest.mark.parametrize("field", ["t1_grid", "t3_grid"])
    def test_one_point_2dos_grid_exit_two_before_writing(self, tmp_path, capsys, field):
        # unchecked, the run wrote resolved_config.json and s3_time.csv before
        # the 2D spectrum failed with an error that named no field
        grid = json.loads((FIGURES / "fig5.json").read_text())[field]
        self.assert_config_error(tmp_path, capsys, "fig5", {field: {**grid, "points": 1}}, field)

    @pytest.mark.parametrize(
        "t3_grid", [{"points": 42}, {"stop": 30.0}], ids=["points", "spacing"]
    )
    def test_non_square_2dos_mesh_exit_two_before_writing(self, tmp_path, capsys, t3_grid):
        # unchecked, the run wrote resolved_config.json, s3_time.csv and
        # s3_spectrum.csv before the diagonal weights failed naming no field
        grid = json.loads((FIGURES / "fig5.json").read_text())["t3_grid"]
        changes = {"t3_grid": {**grid, **t3_grid}}
        self.assert_config_error(tmp_path, capsys, "fig5", changes, "t1_grid/t3_grid")

    def test_analysis_error_exit_five(self, tmp_path, capsys, monkeypatch):
        from nlspec import cli
        from nlspec.analysis import AnalysisError

        def failing_run(*args, **kwargs):
            raise AnalysisError("entropy fit is ill-conditioned (cond 1.00e+11)")

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        path = write_config(tmp_path, MINIMAL)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
        assert "AnalysisError: entropy fit is ill-conditioned" in capsys.readouterr().err

    def test_hermiticity_error_exit_five(self, tmp_path, capsys, monkeypatch):
        from nlspec import cli
        from nlspec.pauli import HermiticityError

        def leaking_run(*args, **kwargs):
            raise HermiticityError("imaginary part 1.000e-03 exceeds tolerance 1.000e-10")

        monkeypatch.setattr(cli, "run_experiment", leaking_run)
        path = write_config(tmp_path, MINIMAL)
        assert main(["run", "--config", str(path)]) == 5
        assert "HermiticityError: imaginary part" in capsys.readouterr().err

    def test_ground_state_error_exit_five(self, tmp_path, capsys, monkeypatch):
        from nlspec import models

        monkeypatch.setattr(models, "_LANCZOS_CAP", 4)
        # a Trotter run solves its ground state by Lanczos; an exact one reads the plan
        path = write_config(tmp_path, dict(CHAIN10, evolver={"kind": "trotter1", "n_steps": 10}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
        assert "GroundStateError: Lanczos ground state not converged" in capsys.readouterr().err

    def test_exact_chain10_reads_its_ground_state_off_the_plan(self, tmp_path, monkeypatch):
        # no Lanczos step runs, and the X4 kicks move the sector-5 ground
        # state into sectors 4 to 6 only: the other 8 sectors are never multiplied
        monkeypatch.setattr(models, "_LANCZOS_CAP", 4)
        multiplied = []

        def spy(call):
            return lambda vectors, amps: multiplied.append(vectors) or call(vectors, amps)

        for name in ("_to_block_basis", "_from_block_basis"):
            monkeypatch.setattr(evolution, name, spy(getattr(evolution, name)))
        path = write_config(tmp_path, CHAIN10)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        plan = evolution._spectral_plan(models.build_model(load_config(path).model))
        reached = {id(plan.groups[k][2]) for k in (4, 5, 6)}
        assert multiplied and {id(vectors) for vectors in multiplied} == reached
        meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
        (record,) = meta["ground_state"]
        assert record["route"] == "plan"
        energies = np.sort(np.concatenate([values.ravel() for _, values, _ in plan.groups]))
        assert record["energy"] == energies[0]
        assert record["gap"] == energies[1] - energies[0] > 0.1

    @pytest.mark.parametrize(
        "config, routes",
        [
            (config_from_dict(MINIMAL), ["plan"]),
            (config_from_dict(dict(MINIMAL, evolver={"kind": "trotter1", "n_steps": 4})), ["dense"]),
            # the toric code is degenerate at every coupling: one solve per g
            (cut_figure("fig4_sweep", sweep_values=[0.5, -0.5]), ["dense", "stabilizer"]),
        ],
        ids=["exact", "trotter", "toric_sweep"],
    )
    def test_metadata_records_each_ground_state_route(self, tmp_path, config, routes):
        records = run_experiment(config, output_dir=tmp_path).metadata["ground_state"]
        assert [record["route"] for record in records] == routes
        for record in records:
            plan_keys = {"energy", "gap"} if record["route"] == "plan" else set()
            assert set(record) == {"route"} | plan_keys

    def test_gaps_prints_ledger(self, tmp_path, capsys):
        # MINIMAL's run solves the X kick's three-shift rule at order 1 only
        path = write_config(tmp_path, MINIMAL)
        assert main(["gaps", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gaps (3): [-2.  0.  2.]" in out and "shifts (3)" in out
        assert re.findall(r"order (\d+):", out) == ["1"]

    def test_gaps_of_a_two_pulse_channel_are_the_sumset(self, tmp_path, capsys):
        pumps = [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0, 1.0]}]
        path = write_config(tmp_path, dict(MINIMAL, pumps=pumps))
        assert main(["gaps", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gaps (5): [-4. -2.  0.  2.  4.]" in out and "shifts (5)" in out

    def test_gaps_uses_the_decomposition_rule(self, capsys):
        # fig2's 153 gaps take the 8-shift truncated rule that its run uses
        assert main(["gaps", "--config", str(FIGURES / "fig2.json")]) == 0
        out = capsys.readouterr().out
        assert "gaps (153)" in out and "shifts (8)" in out and "order 7" in out

    def test_gaps_uses_the_odd_rule(self, tmp_path, capsys):
        # the run solves the odd rule at the channel's order 3 only
        payload = dict(MINIMAL, orders=[3], shifts={"mode": "odd"})
        assert main(["gaps", "--config", str(write_config(tmp_path, payload))]) == 0
        out = capsys.readouterr().out
        assert "shifts (2)" in out and re.findall(r"order (\d+):", out) == ["3"]

    def test_gaps_lists_each_channels_own_order(self, tmp_path, capsys):
        # fig3c's run solves pump 0 at order 3 and pump 1 at order 2; an
        # order-0 channel gets no rule
        assert main(["gaps", "--config", str(FIGURES / "fig3c.json")]) == 0
        assert re.findall(r"order (\d+):", capsys.readouterr().out) == ["3", "2"]
        fig3c = json.loads((FIGURES / "fig3c.json").read_text())
        path = write_config(tmp_path, dict(fig3c, orders=[3, 0]))
        assert main(["gaps", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"order (\d+):", out) == ["3"] and "no shift rule: order 0" in out

    def test_gaps_of_the_entropy_protocol_builds_no_rule(self, capsys):
        assert main(["gaps", "--config", str(FIGURES / "fig2_entropy.json")]) == 0
        out = capsys.readouterr().out
        assert "gaps (153)" in out and "no shift rule" in out and "shifts" not in out

    @pytest.mark.parametrize(
        "figure, orders", [("fig4_xxx", [1, 3, 5]), ("fig4_sweep", [1, 3, 5]), ("fig5", [1])]
    )
    def test_gaps_lists_the_orders_the_run_solves(self, capsys, figure, orders):
        # pump-probe and sweep: the correlator expansion's orders; 2dos: order 1
        assert main(["gaps", "--config", str(FIGURES / f"{figure}.json")]) == 0
        assert re.findall(r"order (\d+):", capsys.readouterr().out) == [str(r) for r in orders]

    @pytest.mark.parametrize(
        "name, changes",
        [(name, {}) for name in FIGURE_NAMES]
        + [("fig5", {"method": "oracle"}), ("fig5", {"t2": 0.0}), ("fig3c", {"orders": [0, 0]})],
        ids=FIGURE_NAMES + ["fig5_oracle", "fig5_t2_zero", "fig3c_order_zero"],
    )
    def test_gaps_prints_the_rules_the_run_builds(
        self, tmp_path, capsys, monkeypatch, name, changes
    ):
        # every shift rule the run builds, in build order, spied on the one
        # function that solves a rule's weights
        config = cut_figure(name, **changes)
        built, solve = [], shift_rules._rule
        monkeypatch.setattr(shift_rules, "_rule", lambda *a: built.append(solve(*a)) or built[-1])
        run_experiment(config, output_dir=tmp_path / "out")
        monkeypatch.setattr(shift_rules, "_rule", solve)
        path = write_config(tmp_path, to_json_dict(config))
        assert main(["gaps", "--config", str(path)]) == 0
        blocks = capsys.readouterr().out.split("pump[")[1:]
        assert len(blocks) == len(config.pumps)
        printed = []
        for block in blocks:
            shifts = re.search(r"  (shifts \(\d+\): .*?)\n  condition", block, re.S)
            assert (shifts is None) == ("no shift rule" in block)
            if shifts:
                norms = re.findall(r"order (\d+): .*\|c\|_1 (\S+)  \|c\|_2\^2 (\S+)", block)
                printed.append((shifts[1], norms))
        assert printed == [
            (
                f"shifts ({rule.n_shifts}): {np.array2string(rule.shifts, precision=10)}",
                [
                    (str(r), f"{rule.l1_norm(r):.6g}", f"{rule.l2_norm_squared(r):.6g}")
                    for r in sorted(rule.coefficients)
                ],
            )
            for rule in built
        ]
        if changes:
            assert not built  # no rule: oracle route, t2 = 0, order 0

    def test_spectra_missing_input_exit_two(self, tmp_path, capsys):
        assert main(["spectra", "--input", str(tmp_path / "absent.csv")]) == 2
        assert "absent.csv does not exist" in capsys.readouterr().err

    def test_spectra_column_out_of_range_exit_two(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,value\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        assert main(["spectra", "--input", str(series), "--column", "2"]) == 2
        assert "--column must be a value column, 1 to 1" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

    def test_spectra_one_row_reaches_the_sample_count(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,value\n0.0,1.0\n")
        assert main(["spectra", "--input", str(series)]) == 2
        assert "need at least two samples" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

    @pytest.mark.parametrize("rows", ["0.0\n0.5\n1.0\n", "0.0\n"])
    def test_spectra_one_column_exit_two(self, tmp_path, capsys, rows):
        series = tmp_path / "series.csv"
        series.write_text("t\n" + rows)
        assert main(["spectra", "--input", str(series)]) == 2
        assert "input CSV must have at least two columns" in capsys.readouterr().err

    def test_spectra_header_only_exit_two(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,value\n")
        assert main(["spectra", "--input", str(series)]) == 2
        assert capsys.readouterr().err == f"config error: input CSV {series} has no data rows\n"

    @pytest.mark.parametrize(
        "rows",
        ["0.0,1.0\n0.5,nan\n1.0,0.0\n1.5,0.5\n", "0.0,1.0\n0.5,0.5\ninf,0.0\n1.5,0.5\n"],
        ids=["value", "time"],
    )
    def test_spectra_non_finite_exit_two(self, tmp_path, capsys, rows):
        series = tmp_path / "series.csv"
        series.write_text("t,value\n" + rows)
        assert main(["spectra", "--input", str(series)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

    def test_spectra_non_numeric_exit_two(self, tmp_path, capsys):
        series = tmp_path / "letters.csv"
        series.write_text("t,value\na,b\nc,d\n")
        assert main(["spectra", "--input", str(series)]) == 2
        assert f"input CSV {series} is not numeric" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

    def test_spectra_out_directory_exit_two(self, tmp_path, capsys):
        # a directory, or a missing parent, raised a traceback after the spectrum was computed
        series = tmp_path / "series.csv"
        series.write_text("t,value\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        for out in (tmp_path, tmp_path / "absent" / "spec.csv"):
            assert main(["spectra", "--input", str(series), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: output CSV {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]

    def test_spectra_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        series = tmp_path / "out" / "response_m1_single_site_pauli_2_x.csv"
        target = tmp_path / "spec.csv"
        assert main(["spectra", "--input", str(series), "--out", str(target)]) == 0
        data = np.loadtxt(target, delimiter=",", skiprows=1)
        assert data.shape[1] == 4

    def test_seed_override_changes_sampled_output(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["sampling"] = {"total_shots": 300, "mode": "uniform"}
        path = write_config(tmp_path, payload)
        main(["run", "--config", str(path), "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["run", "--config", str(path), "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = (tmp_path / "s1" / "response_m1_single_site_pauli_2_x_sampled.csv").read_bytes()
        b = (tmp_path / "s2" / "response_m1_single_site_pauli_2_x_sampled.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("seed_in", ["config", "flag"])
    def test_negative_seed_exit_two_before_writing(self, tmp_path, capsys, seed_in):
        payload = dict(MINIMAL, sampling={"total_shots": 300, "mode": "uniform"})
        argv = ["--out", str(tmp_path / "out")]
        if seed_in == "config":
            payload["seed"] = -1
        else:
            argv += ["--seed", "-1"]
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), *argv]) == 2
        assert capsys.readouterr().err == "config error: seed: must be >= 0, not -1\n"
        assert not (tmp_path / "out").exists()


_RUN_WITHOUT_SCIPY = """
import sys
from pathlib import Path

import nlspec.cli, nlspec.config, nlspec.runner

root = Path(sys.argv[1])
for name in ("dimer", "sweep", "toric12", "fig2", "chain10"):
    config = nlspec.config.load_config(root / f"{name}.json")
    nlspec.runner.run_experiment(config, output_dir=root / name)
nlspec.runner.verify_experiment(config, tolerance=1e-8)
banned = ("scipy", "concurrent", "multiprocessing")
print(sorted(
    m for m in sys.modules
    if m.split(".")[0] in banned
    or any(m == sub or m.startswith(sub + ".") for sub in ("numpy.ma", "numpy.random"))
))
"""


def _nlspec_env(**extra):
    """The environment of a subprocess that imports this nlspec."""
    import nlspec

    src = str(Path(nlspec.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


class TestBlasThreadCount:
    """Above 9 sites the ground state is a Lanczos solve whose tridiagonal
    ``eigh`` runs on one OpenBLAS thread, as do the spectral plan's ``eigh``
    and GEMMs and the entropy's Gram product and ``eigvalsh``, so Trotter
    runs, exact evolution and the entropy write the same bytes under any
    OpenBLAS thread count.  (The dense ground state, which Trotter runs up to
    9 sites and degenerate ground spaces take, still runs at the default
    count.)"""

    def test_runs_byte_identical_across_thread_counts(self, tmp_path):
        fig3a = json.loads((FIGURES / "fig3a.json").read_text())
        fig3a["time_grid"] = dict(fig3a["time_grid"], points=6)
        chain10 = dict(CHAIN10, evolver={"kind": "trotter1", "n_steps": 10})
        entropy = json.loads((FIGURES / "fig2_entropy.json").read_text())
        entropy.update(delta_values=[0.5, 1.5], eta_grid=[-0.02, -0.01, 0.0, 0.01, 0.02])
        fig2 = json.loads((FIGURES / "fig2.json").read_text())
        fig2["time_grid"] = dict(fig2["time_grid"], points=3)
        cases = (
            ("fig3a_cut", fig3a), ("chain10_trotter", chain10), ("chain10_exact", CHAIN10),
            ("fig2_entropy_cut", entropy), ("fig2_cut", fig2),
        )
        for name, payload in cases:
            config = write_config(tmp_path, payload, f"{name}.json")
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}_{threads}"
                done = subprocess.run(
                    [sys.executable, "-m", "nlspec", "run", "--config", str(config), "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env=_nlspec_env(OPENBLAS_NUM_THREADS=threads),
                )
                assert done.returncode == 0, done.stderr
                files = sorted(out.glob("*.csv")) + [out / "resolved_config.json"]
                outputs.append({f.name: f.read_bytes() for f in files})
            assert len(outputs[0]) > 1
            assert outputs[0] == outputs[1], name

    def test_run_restores_the_thread_count(self, tmp_path):
        calls = evolution._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS thread-count symbols in this numpy")
        get, put = calls
        before = get()
        put(2)
        try:
            run_experiment(config_from_dict(CHAIN10), output_dir=tmp_path)
            assert get() == 2
        finally:
            put(before)

    def test_run_without_openblas_symbols_notes_it(self, tmp_path, monkeypatch):
        config = config_from_dict(MINIMAL)
        run_experiment(config, output_dir=tmp_path / "pinned")
        monkeypatch.setattr(evolution, "_openblas_thread_calls", functools.cache(lambda: None))
        run_experiment(config, output_dir=tmp_path / "unpinned")
        pinned = tmp_path / "pinned"
        files = sorted(pinned.glob("*.csv")) + [pinned / "resolved_config.json"]
        assert len(files) > 1
        for file in files:
            assert (tmp_path / "unpinned" / file.name).read_bytes() == file.read_bytes(), file.name
        metadata = json.loads((tmp_path / "unpinned" / "run_metadata.json").read_text())
        assert metadata["blas_pinning"].startswith("unavailable")

    def test_symbols_looked_up_once_per_run_and_not_at_load(self, tmp_path):
        # the 12-site Trotter run's only pinned call is its Lanczos Ritz solve
        fig2 = json.loads((FIGURES / "fig2.json").read_text())
        fig2["time_grid"] = dict(fig2["time_grid"], points=3)
        script = (
            "import sys\n"
            "from nlspec import evolution\n"
            "from nlspec.config import load_config\n"
            "from nlspec.runner import run_experiment\n"
            "config = load_config(sys.argv[1])\n"
            "print(evolution._openblas_thread_calls.cache_info().misses)\n"
            "run_experiment(config, output_dir=sys.argv[2])\n"
            "print(evolution._openblas_thread_calls.cache_info().misses)\n"
        )
        config = write_config(tmp_path, fig2, "fig2_cut.json")
        done = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=_nlspec_env(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1"]


class TestImportFootprint:
    """scipy costs about half a second of start-up, and nlspec never imports
    it: not on a U(1) chain above 9 sites, nor on the 12-qubit toric code,
    which no sector split reaches.  Runs are serial, so no protocol loads a
    process pool either.  Nor does any run import ``numpy.ma``, which the
    first plain ``np.unique`` call does (``return_inverse=True`` does not):
    on the 2D spectrum that import cost as much as the two-pass route saves.
    Only sampled runs import ``numpy.random`` (about 6 MB resident): the
    Lanczos ground states of the 10- and 12-site chains draw no random start."""

    def test_runs_load_no_scipy(self, tmp_path):
        dimer = json.loads((FIGURES / "fig5.json").read_text())
        for grid in ("t1_grid", "t3_grid"):
            dimer[grid] = dict(dimer[grid], points=3)
        write_config(tmp_path, dimer, "dimer.json")
        sweep = json.loads((FIGURES / "fig4_sweep.json").read_text())
        sweep["sweep_values"] = [-0.5, 0.5]
        for grid in ("t1_grid", "t3_grid"):
            sweep[grid] = dict(sweep[grid], points=3)
        write_config(tmp_path, sweep, "sweep.json")
        toric12 = json.loads((FIGURES / "fig4_xxx.json").read_text())
        toric12["model"]["parameters"]["l_y"] = 3
        for grid in ("t1_grid", "t3_grid"):
            toric12[grid] = dict(toric12[grid], points=3)
        write_config(tmp_path, toric12, "toric12.json")
        fig2 = json.loads((FIGURES / "fig2.json").read_text())
        fig2["time_grid"] = dict(fig2["time_grid"], points=3)
        write_config(tmp_path, fig2, "fig2.json")
        write_config(tmp_path, CHAIN10, "chain10.json")
        done = subprocess.run(
            [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
            capture_output=True,
            text=True,
            env=_nlspec_env(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
