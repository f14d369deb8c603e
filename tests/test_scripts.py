import importlib
import importlib.util
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_validate_one_instance_passes(capsys):
    assert load_script("cross_validate").main(["--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "instance 0" in out and "worst deviation" in out


def test_cross_validate_fails_below_rounding(capsys):
    assert load_script("cross_validate").main(["--instances", "1", "--tolerance", "1e-30"]) == 3


def test_cross_validate_checks_nonzero_orders_of_each_parity(capsys):
    # X2 responds at odd orders, Z2 at even ones on some instances
    assert load_script("cross_validate").main([]) == 0
    scales = re.findall(r"m=(\d+):.*oracle scale = (\S+)", capsys.readouterr().out)
    for parity in (0, 1):
        assert max(float(v) for m, v in scales if int(m) % 2 == parity) > 1e-3


def test_traced_benchmark_targets_resolve(monkeypatch):
    # the traced benchmark run wraps these nlspec functions by name, so a
    # deleted or renamed one would break it; load the module without
    # writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name in tracing.TARGETS + (("evolution", "PulseSchedule"),):
        assert callable(getattr(importlib.import_module(f"nlspec.{module}"), name, None)), name
