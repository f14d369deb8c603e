import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_validate_one_instance_passes(capsys):
    assert load_script("cross_validate").main(["--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "instance 0" in out and "worst deviation" in out
