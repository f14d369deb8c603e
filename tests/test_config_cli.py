import dataclasses
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
    ConfigError,
    ExperimentConfig,
    ObservableSpec,
    build_observable,
    config_from_dict,
    load_config,
    to_json_dict,
)
from nlspec import runner
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

    @pytest.mark.parametrize(
        "figure, changes, message",
        [
            ("fig4_xxx", {"shifts": {"mode": "odd", "n_shifts": 40}}, "shifts: the pump_probe"),
            ("fig4_sweep", {"shifts": {"n_shifts": 12}}, "shifts: the sweep"),
            ("fig5", {"shifts": {"mode": "odd"}}, "shifts: the 2dos"),
            ("fig2_entropy", {"shifts": {"n_shifts": 9}}, "shifts: the entropy"),
            ("fig2", {"shifts": {"mode": "odd", "n_shifts": 8}}, "shifts.mode: the decomposition"),
            ("fig5", {"sampling": {"total_shots": 100}}, "sampling: only the response"),
            ("fig2", {"sampling": {"total_shots": 100}}, "sampling: only the response"),
        ],
        ids=["pump_probe_shifts", "sweep_shifts", "2dos_shifts", "entropy_shifts",
             "decomposition_odd", "2dos_sampling", "decomposition_sampling"],
    )
    def test_ignored_setting_rejected(self, figure, changes, message):
        # each of these runs exactly as if the setting were absent
        path = FIGURES / f"{figure}.json"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(dict(json.loads(path.read_text()), **changes))
        # the figure's resolved echo writes these fields too, and loads
        resolved = to_json_dict(load_config(path))
        config_from_dict(resolved)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"time_grid": {"start": 0.0, "stop": 3.0, "points": "many"}},
                "time_grid.points: invalid literal",
            ),
            ({"kappa": None}, "kappa: .*NoneType"),
            ({"eta_eval": [0.1, float("nan")]}, r"eta_eval\[1\]: value must be finite"),
            ({"model": 3}, "model: must be a JSON object"),
            ({"orders": None}, "orders: .*not iterable"),
            (
                {"time_grid": {"start": 0.0, "stop": 3.0, "points": 0}},
                "time_grid: points must be >= 1",
            ),
            ({"observables": [{"kind": "nonsense"}]}, r"observables\[0\]: unknown observable kind"),
        ],
        ids=[
            "non_integer", "null_float", "nan_in_list", "non_object", "null_list", "empty_grid",
            "unknown_kind",
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
        # every field, those MINIMAL leaves at their defaults included
        assert sorted(resolved) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert resolved["t1_grid"] is None and resolved["probe_1"] == {}
        echoed = load_config(tmp_path / "out" / "resolved_config.json")
        assert echoed == config


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

    def test_corrupted_coefficients_fail(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        report = verify_experiment(config, tolerance=1e-8, coefficient_perturbation=1e-3)
        assert not report["passed"]

    def test_krylov_chain_checks_nonzero_orders(self, tmp_path):
        config = load_config(write_config(tmp_path, CHAIN10))
        report = verify_experiment(config, tolerance=1e-8)
        scales = {row["order"]: row["oracle_scale"] for row in report["orders"]}
        assert scales[1] > 0.5 and scales[3] > 0.3
        assert report["passed"]
        assert report["max_deviation"] < 1e-10
        corrupted = verify_experiment(config, tolerance=1e-8, coefficient_perturbation=1e-3)
        assert not corrupted["passed"]

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

    def test_verify_names_the_rule_that_cannot_solve(self, capsys):
        # fig2's 8 shifts are too few for an exact rule on its 153 gaps
        assert main(["verify", "--config", str(FIGURES / "fig2.json")]) == 2
        assert "8 shifts cannot satisfy 153 gap constraints" in capsys.readouterr().err

    def test_verify_without_observable_exit_two(self, capsys):
        assert main(["verify", "--config", str(FIGURES / "fig5.json")]) == 2
        assert "needs an observable" in capsys.readouterr().err

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
            ({"protocol": "2dos", "method": "orcale"}, "method: unknown method 'orcale'"),
        ],
        ids=["decomposition_two_channels", "2dos_unknown_method"],
    )
    def test_fails_at_load_exit_two(self, tmp_path, capsys, changes, message):
        payload = dict(MINIMAL, **changes)
        del payload["orders"]
        out = tmp_path / "out"
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_analysis_error_exit_five(self, tmp_path, capsys):
        payload = dict(MINIMAL, protocol="entropy", eta_grid=[-0.03, 0.0, 0.01], max_order=2)
        del payload["orders"], payload["observables"]
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
        assert "AnalysisError: eta grid must be symmetric" in capsys.readouterr().err

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
        path = write_config(tmp_path, CHAIN10)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
        assert "GroundStateError: Lanczos ground state not converged" in capsys.readouterr().err

    def test_gaps_prints_ledger(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["gaps", "--config", str(path), "--max-order", "2"]) == 0
        out = capsys.readouterr().out
        assert "gaps" in out and "shifts" in out and "order 2" in out

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
        payload = dict(MINIMAL, orders=[3], shifts={"mode": "odd"})
        assert main(["gaps", "--config", str(write_config(tmp_path, payload))]) == 0
        out = capsys.readouterr().out
        assert "order 1" in out and "order 3" in out
        assert "order 0" not in out and "order 2" not in out

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

    def test_gaps_max_order_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, orders=[3]))
        assert main(["gaps", "--config", str(path), "--max-order", "0"]) == 0
        out = capsys.readouterr().out
        assert "order 0" in out and "order 1" not in out

    def test_spectra_missing_input_exit_two(self, tmp_path, capsys):
        assert main(["spectra", "--input", str(tmp_path / "absent.csv")]) == 2
        assert "absent.csv does not exist" in capsys.readouterr().err

    def test_spectra_column_out_of_range_exit_two(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("t,value\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
        assert main(["spectra", "--input", str(series), "--column", "2"]) == 2
        assert "--column must be a value column, 1 to 1" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

    def test_spectra_non_numeric_exit_two(self, tmp_path, capsys):
        series = tmp_path / "letters.csv"
        series.write_text("t,value\na,b\nc,d\n")
        assert main(["spectra", "--input", str(series)]) == 2
        assert f"input CSV {series} is not numeric" in capsys.readouterr().err
        assert not series.with_suffix(".spectrum.csv").exists()

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


class TestBlasThreadCount:
    """Above 9 sites the ground state is a Lanczos solve that makes no BLAS
    call, so a Trotter run writes the same bytes under any OpenBLAS thread
    count.  (Exact evolution is not covered: the batched ``eigh`` of the
    sector plan still depends on it.)"""

    def test_lanczos_runs_byte_identical_across_thread_counts(self, tmp_path):
        import nlspec

        fig3a = json.loads((FIGURES / "fig3a.json").read_text())
        fig3a["time_grid"] = dict(fig3a["time_grid"], points=6)
        src = str(Path(nlspec.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        chain10 = dict(CHAIN10, evolver={"kind": "trotter1", "n_steps": 10})
        for name, payload in (("fig3a_cut", fig3a), ("chain10_trotter", chain10)):
            config = write_config(tmp_path, payload, f"{name}.json")
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}_{threads}"
                done = subprocess.run(
                    [sys.executable, "-m", "nlspec", "run", "--config", str(config), "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                )
                assert done.returncode == 0, done.stderr
                files = sorted(out.glob("*.csv")) + [out / "resolved_config.json"]
                outputs.append({f.name: f.read_bytes() for f in files})
            assert len(outputs[0]) > 1
            assert outputs[0] == outputs[1], name


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
        import nlspec

        dimer = json.loads((FIGURES / "fig5.json").read_text())
        for grid in ("time_grid", "t1_grid", "t3_grid"):
            dimer[grid] = dict(dimer[grid], points=3)
        write_config(tmp_path, dimer, "dimer.json")
        sweep = json.loads((FIGURES / "fig4_sweep.json").read_text())
        sweep["sweep_values"] = [-0.5, 0.5]
        for grid in ("time_grid", "t1_grid", "t3_grid"):
            sweep[grid] = dict(sweep[grid], points=3)
        write_config(tmp_path, sweep, "sweep.json")
        toric12 = json.loads((FIGURES / "fig4_xxx.json").read_text())
        toric12["model"]["parameters"]["l_y"] = 3
        for grid in ("time_grid", "t1_grid", "t3_grid"):
            toric12[grid] = dict(toric12[grid], points=3)
        write_config(tmp_path, toric12, "toric12.json")
        fig2 = json.loads((FIGURES / "fig2.json").read_text())
        fig2["time_grid"] = dict(fig2["time_grid"], points=3)
        write_config(tmp_path, fig2, "fig2.json")
        write_config(tmp_path, CHAIN10, "chain10.json")
        src = str(Path(nlspec.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
