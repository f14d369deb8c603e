import json
from pathlib import Path

import numpy as np
import pytest

from nlspec import runner
from nlspec.analysis import correlator_order_expansion, entanglement_entropy, pump_probe_correlator
from nlspec.cli import main
from nlspec.config import load_config
from nlspec.evolution import apply_kick
from nlspec.models import build_model, build_pump, ground_state
from nlspec.runner import run_experiment
from nlspec.shift_rules import rule_for_generator

TORIC = {
    "kind": "toric_code",
    "parameters": {"l_x": 2, "l_y": 2, "j_star": 1.0, "j_plaquette": 1.0},
}
SMALL_GRID = {"start": 0.3, "stop": 1.5, "points": 3}


FIGURES = Path(__file__).resolve().parents[1] / "figures"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_meta(out_dir):
    return json.loads((out_dir / "run_metadata.json").read_text())


class TestPumpProbeProtocol:
    def _config(self, tmp_path, pump, probe_1, probe_2, t1_grid=SMALL_GRID, t3_grid=SMALL_GRID):
        payload = {
            "protocol": "pump_probe",
            "model": TORIC,
            "pumps": [{"kind": "pauli_string", "factors": pump, "times": [0.0]}],
            "probe_1": probe_1,
            "probe_2": probe_2,
            "orders": [1, 3, 5],
            "eta_ref": 0.3,
            "evolver": {"kind": "exact"},
            "t1_grid": t1_grid,
            "t3_grid": t3_grid,
        }
        return load_config(write_config(tmp_path, payload))

    def test_channel_clouds_and_winding(self, tmp_path):
        # probes compose to the pump string itself: odd orders are supported
        config = self._config(
            tmp_path, {"0": "X", "2": "Z", "4": "Z"}, {"0": "X"}, {"2": "Z", "4": "Z"}
        )
        result = run_experiment(config, output_dir=tmp_path / "out")
        meta = load_meta(tmp_path / "out")
        assert meta["excluded_contrast_points"] == 9  # reference correlator vanishes
        assert np.isfinite(meta["pca_slopes"]["s13"])
        orders = np.loadtxt(tmp_path / "out" / "correlator_orders.csv", delimiter=",", skiprows=1)
        assert orders.shape == (9, 8)  # t1, t2 + (re, im) x 3 orders
        assert np.max(np.abs(orders[:, 2:4])) > 1e-3  # first order is alive

    def test_stabilizer_probes_give_exact_contrast(self, tmp_path):
        # probes are two full stars; the XZZ pump anticommutes with their
        # product, pinning R = -2 at every sample
        config = self._config(
            tmp_path,
            {"0": "X", "2": "Z", "4": "Z"},
            {"0": "X", "1": "X", "2": "X", "6": "X"},
            {"2": "X", "4": "X", "5": "X", "6": "X"},
        )
        run_experiment(config, output_dir=tmp_path / "out")
        meta = load_meta(tmp_path / "out")
        assert meta["excluded_contrast_points"] == 0
        assert meta["mean_contrast"][0] == pytest.approx(-2.0, abs=1e-10)
        contrast = np.loadtxt(tmp_path / "out" / "contrast.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(contrast[:, 2] + 2.0)) < 1e-10

    def test_non_square_grid_keeps_its_axes_apart(self, tmp_path):
        # 2 t1 by 3 t2 points: rows run over t2 fastest, and each row holds
        # the orders of the correlator at its own (t1, t2)
        config = self._config(
            tmp_path,
            {"0": "X", "2": "Z", "4": "Z"},
            {"0": "X"},
            {"2": "Z", "4": "Z"},
            t1_grid={"start": 0.3, "stop": 0.9, "points": 2},
            t3_grid={"start": 0.2, "stop": 1.4, "points": 3},
        )
        run_experiment(config, output_dir=tmp_path / "out")
        table = np.loadtxt(tmp_path / "out" / "correlator_orders.csv", delimiter=",", skiprows=1)
        t1s, t2s = config.t1_grid.values(), config.t3_grid.values()
        assert np.array_equal(table[:, 0], np.repeat(t1s, 3))
        assert np.array_equal(table[:, 1], np.tile(t2s, 2))
        pump, probes, orders, rule = runner._pump_probe_drive(config)
        h = build_model(config.model)
        etas = np.append(rule.shifts, [0.0, config.kappa])
        samples = pump_probe_correlator(
            h, pump, *probes, t1s, t2s, etas, ground_state(h, config.evolver), config.evolver
        )
        expected = correlator_order_expansion(
            samples[..., : rule.n_shifts], rule, orders, config.eta_ref
        )
        for k, m in enumerate(orders):
            assert np.array_equal(table[:, 2 + 2 * k], expected[m].real.ravel())
            assert np.array_equal(table[:, 3 + 2 * k], expected[m].imag.ravel())
        assert np.max(np.abs(table[:, 2:4])) > 1e-3  # first order is alive

    @pytest.mark.parametrize("name", ["fig4_contrast_xxx", "fig4_contrast_xzz"])
    def test_bundled_contrast_orders_vanish_by_symmetry(self, tmp_path, name):
        # the probes are stars, which commute with H and fix the ground state;
        # the pump commutes with their product (xxx: C does not depend on
        # eta) or anticommutes with it (xzz: C = cos(2 eta)), so the odd
        # orders in these configs vanish
        run_experiment(load_config(FIGURES / f"{name}.json"), output_dir=tmp_path / "out")
        orders = np.loadtxt(tmp_path / "out" / "correlator_orders.csv", delimiter=",", skiprows=1)
        assert orders.shape[1] > 2
        assert np.max(np.abs(orders[:, 2:])) < 1e-12


class TestSweepProtocol:
    def _payload(self):
        return {
            "protocol": "sweep",
            "model": TORIC,
            "pumps": [
                {
                    "kind": "cosine_profile",
                    "momentum": 0,
                    "axis": "Y",
                    "sites": [0, 2, 3, 4],
                    "times": [0.0],
                }
            ],
            "probe_1": {"0": "X"},
            "probe_2": {"0": "Z"},
            "orders": [1, 3, 5],
            "eta_ref": 0.3,
            "evolver": {"kind": "exact"},
            "t1_grid": SMALL_GRID,
            "t3_grid": SMALL_GRID,
            "sweep_values": [-0.5, 0.0, 0.5],
        }

    def test_slope_table(self, tmp_path):
        config = load_config(write_config(tmp_path, self._payload()))
        run_experiment(config, output_dir=tmp_path / "out")
        table = np.loadtxt(tmp_path / "out" / "s35_vs_g.csv", delimiter=",", skiprows=1)
        assert table.shape == (3, 3)  # g, s13, s35
        assert np.all(np.isfinite(table))
        assert np.array_equal(table[:, 0], [-0.5, 0.0, 0.5])

    def test_pump_rule_built_once(self, tmp_path, monkeypatch):
        # only the plaquette coupling changes along the sweep
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rule_for_generator(*args, **kwargs)

        monkeypatch.setattr(runner, "rule_for_generator", counted)
        config = load_config(write_config(tmp_path, self._payload()))
        run_experiment(config, output_dir=tmp_path / "out")
        assert len(calls) == 1

    def test_threads_other_than_one_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path, self._payload()))
        with pytest.raises(ValueError, match="serial"):
            run_experiment(config, output_dir=tmp_path / "out", threads=2)


class Test2DOSProtocol:
    def test_dimer_spectrum_artifacts(self, tmp_path):
        n_pts = 13
        dt = 8 * np.pi / n_pts
        grid = {"start": dt, "stop": n_pts * dt, "points": n_pts}
        payload = {
            "protocol": "2dos",
            "model": {
                "kind": "tls_dimer",
                "parameters": {"omega_0": 0.5, "omega_1": 1.0, "j_exchange": 0.8},
            },
            "pumps": [{"kind": "cosine_profile", "momentum": 0, "axis": "X", "times": [0.0]}],
            "evolver": {"kind": "exact"},
            "t1_grid": grid,
            "t3_grid": grid,
            "t2": 0.5,
        }
        config = load_config(write_config(tmp_path, payload))
        run_experiment(config, output_dir=tmp_path / "out")
        meta = load_meta(tmp_path / "out")
        assert meta["p_diag"] > 0 and meta["p_off"] > 0
        s3 = np.loadtxt(tmp_path / "out" / "s3_time.csv", delimiter=",", skiprows=1)
        assert s3.shape == (n_pts * n_pts, 3)
        weights = np.loadtxt(
            tmp_path / "out" / "spectral_weights.csv", delimiter=",", skiprows=1
        )
        assert weights[0] == pytest.approx(meta["p_diag"])

    def test_readout_on_record(self, tmp_path):
        # the default readout X_0 + X_1 has no observable kind, so the
        # resolved config echoes no observables and the metadata names it
        payload = json.loads((FIGURES / "fig5.json").read_text())
        payload.update(t1_grid=SMALL_GRID, t3_grid=SMALL_GRID)
        payload.pop("observables", None)
        run_experiment(load_config(write_config(tmp_path, payload)), output_dir=tmp_path / "a")
        resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        assert resolved["observables"] == []
        assert load_meta(tmp_path / "a")["readout"] == "X_0 + X_1"
        payload["observables"] = [{"kind": "single_site_pauli", "sites": [1], "axis": "Z"}]
        run_experiment(load_config(write_config(tmp_path, payload)), output_dir=tmp_path / "b")
        assert load_meta(tmp_path / "b")["readout"] == "single_site_pauli_1_z"


@pytest.mark.parametrize(
    "name, protocol",
    [("fig4_xzz", "pump_probe"), ("fig4_sweep", "sweep"), ("fig5", "2dos")],
)
@pytest.mark.parametrize(
    "change",
    [
        lambda pumps: [dict(pumps[0], times=[0.7])],
        lambda pumps: [dict(pumps[0], times=[0.0, 0.7])],
        lambda pumps: [pumps[0], dict(pumps[0], times=[0.2])],
    ],
    ids=["late_pulse", "two_pulses", "two_channels"],
)
def test_protocols_that_place_their_kicks_reject_other_pumps(
    tmp_path, capsys, name, protocol, change
):
    # these protocols kick the first channel's generator at times of their
    # own; any other pulse or channel would be silently ignored
    payload = json.loads((FIGURES / f"{name}.json").read_text())
    payload["pumps"] = change(payload["pumps"])
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    message = f"config error: pumps: the {protocol} protocol needs exactly one pump channel"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_on_another_model_exit_two(tmp_path, capsys):
    # the sweep rebuilds the toric code at each coupling; a chain cannot be swept
    payload = json.loads((FIGURES / "fig4_sweep.json").read_text())
    payload["model"] = {"kind": "xxz", "parameters": {"n_sites": 4, "delta": 1.0, "h_field": 0.0}}
    payload["pumps"][0]["sites"] = [0, 1, 2, 3]
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: model: the sweep protocol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestEntropyProtocol:
    def test_artifacts_and_delta_sweep(self, tmp_path):
        payload = {
            "protocol": "entropy",
            "model": {
                "kind": "xxz",
                "parameters": {"n_sites": 6, "delta": 1.0, "h_field": 0.0},
                "boundary": "periodic",
            },
            "pumps": [{"kind": "cosine_profile", "momentum": 1, "axis": "X", "times": [0.0]}],
            "evolver": {"kind": "trotter1", "n_steps": 5},
            "eta_grid": [-0.04, -0.02, 0.0, 0.02, 0.04],
            "eta_eval": [0.02],
            "entropy_time": 1.0,
            "block_size": 3,
            "max_order": 2,
            "delta_values": [0.5, 1.0, 1.5],
        }
        config = load_config(write_config(tmp_path, payload))
        run_experiment(config, output_dir=tmp_path / "out")
        for name in (
            "entropy_vs_eta.csv",
            "entropy_coefficients.csv",
            "entropy_profile.csv",
            "entropy_coeffs_vs_delta.csv",
            "entropy_half_vs_delta.csv",
        ):
            assert (tmp_path / "out" / name).exists(), name
        profile = np.loadtxt(tmp_path / "out" / "entropy_profile.csv", delimiter=",", skiprows=1)
        assert profile.shape == (5, 2)  # blocks 1..5
        assert np.all(profile[:, 1] > 0)  # the driven chain is entangled


    ENTROPY = {
        "protocol": "entropy",
        "model": {"kind": "xxz", "parameters": {"n_sites": 4, "delta": 1.0, "h_field": 0.0}},
        "pumps": [{"kind": "local_pauli", "site": 1, "axis": "X", "times": [0.0]}],
        "eta_grid": [-0.02, 0.0, 0.02],
        "max_order": 2,
    }
    X2 = {"kind": "local_pauli", "site": 2, "axis": "X", "times": [0.0]}
    DIMER = {"kind": "tls_dimer", "parameters": {"omega_0": 0.5, "omega_1": 1.0, "j_exchange": 0.8}}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"pumps": [ENTROPY["pumps"][0], X2]}, "pumps: the entropy protocol"),
            ({"pumps": [dict(X2, times=[0.5])]}, "pumps: the entropy protocol"),
            ({"pumps": [dict(X2, times=[0.0, 1.0])]}, "pumps: the entropy protocol"),
            ({"entropy_time": -0.5}, "entropy_time: must be >= 0"),
            ({"model": DIMER, "delta_values": [0.5, 1.0]}, "delta_values: the anisotropy scan"),
        ],
        ids=["two_channels", "late_pulse", "two_pulses", "negative_time", "delta_on_dimer"],
    )
    def test_invalid_entropy_config_exit_two(self, tmp_path, capsys, change, message):
        path = write_config(tmp_path, {**self.ENTROPY, **change})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_entropy_time_is_the_kicked_ground_state(self, tmp_path):
        config = load_config(write_config(tmp_path, {**self.ENTROPY, "entropy_time": 0.0}))
        run_experiment(config, output_dir=tmp_path / "out")
        entropies = np.loadtxt(tmp_path / "out" / "entropy_vs_eta.csv", delimiter=",", skiprows=1)
        h = build_model(config.model)
        pump = build_pump(config.pumps[0].pump, h.n_sites)
        for eta, entropy in entropies:
            kicked = apply_kick(pump, eta, ground_state(h))
            assert entropy == pytest.approx(entanglement_entropy(kicked, 2), abs=1e-12)


class TestEnvironmentOverrides:
    def test_out_dir_and_threads_env(self, tmp_path, monkeypatch):
        payload = {
            "protocol": "response",
            "model": {"kind": "xxz", "parameters": {"n_sites": 3, "delta": 1.0, "h_field": 0.2}},
            "pumps": [{"kind": "local_pauli", "site": 0, "axis": "X", "times": [0.0]}],
            "observables": [{"kind": "single_site_pauli", "sites": [1], "axis": "X"}],
            "orders": [1],
            "evolver": {"kind": "exact"},
            "time_grid": {"start": 0.0, "stop": 2.0, "points": 5},
        }
        path = write_config(tmp_path, payload)
        target = tmp_path / "env_out"
        monkeypatch.setenv("NLSPEC_OUT_DIR", str(target))
        assert main(["run", "--config", str(path)]) == 0
        assert "threads" not in json.loads((target / "run_metadata.json").read_text())


@pytest.mark.parametrize(
    "name, module, kernel, propagated",
    # fig5 stacks one block column per (t1, configuration), over 6 t1 points
    [("fig5", "analysis", "driven_signal", 6 * 64), ("fig3c", "response", "driven_states", 6)],
    ids=["fig5_2d", "fig3c_two_channels"],
)
def test_zero_weight_configurations_are_not_propagated(
    tmp_path, monkeypatch, name, module, kernel, propagated
):
    # an odd order weighs the shift at 0 by exactly 0.0: fig5's three X0 + X1
    # kicks keep 4**3 of 5**3 configurations, fig3c's (3, 2) orders on two
    # Pauli kicks 2 * 3 of 3 * 3
    from nlspec import analysis, response

    target = {"analysis": analysis, "response": response}[module]
    rows = []
    original = getattr(target, kernel)

    def counting(h, schedule, etas, *args, **kwargs):
        rows.append(np.shape(etas)[0])
        return original(h, schedule, etas, *args, **kwargs)

    monkeypatch.setattr(target, kernel, counting)
    payload = json.loads((FIGURES / f"{name}.json").read_text())
    for grid in ("time_grid", "t1_grid", "t3_grid"):
        if grid in payload:
            payload[grid] = dict(payload[grid], points=6)
    run_experiment(load_config(write_config(tmp_path, payload)), output_dir=tmp_path / "out")
    assert rows == [propagated]
