import importlib
import importlib.util
import json
import math
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


def test_run_figures_against_a_rerun(tmp_path, capsys):
    run_figures = load_script("run_figures")
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_figures.main(["--only", "fig4_xzz", "--out", str(first)]) == 0
    argv = ["--only", "fig4_xzz", "--out", str(second), "--against", str(first)]
    assert run_figures.main(argv) == 0
    assert re.search(
        r"against \S+fig4_xzz: 4 of 4 CSVs byte-identical, resolved_config.json byte-identical",
        capsys.readouterr().out,
    )
    # a moved value is reported with its deviation and its column's scale,
    # and fails the comparison
    moved = first / "fig4_xzz" / "correlator_orders.csv"
    header, row, *rest = moved.read_text().split("\n")
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    moved.write_text("\n".join([header, ",".join(cells), *rest]))
    lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
    assert "3 of 4 CSVs byte-identical" in lines[0] and not same
    assert re.fullmatch(
        r"  correlator_orders\.csv: max\|dev\| 1\.00e-09 in reC1, whose max\|value\| is \S+",
        lines[1],
    )
    assert run_figures.main(argv) == 1
    # so is a resolved config that moved, with every CSV identical
    moved.write_text((second / "fig4_xzz" / "correlator_orders.csv").read_text())
    resolved = first / "fig4_xzz" / "resolved_config.json"
    resolved.write_text(resolved.read_text() + "\n")
    lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
    assert lines[0].endswith("4 of 4 CSVs byte-identical, resolved_config.json differs")
    assert not same and run_figures.main(argv) == 1
    # a CSV that either run did not write is missing, whichever run lacks it
    resolved.write_text((second / "fig4_xzz" / "resolved_config.json").read_text())
    (second / "fig4_xzz" / "contrast.csv").rename(second / "fig4_xzz" / "extra.csv")
    lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
    assert "3 of 5 CSVs byte-identical, resolved_config.json byte-identical" in lines[0]
    assert lines[1:] == [
        f"  contrast.csv: missing from {second / 'fig4_xzz'}",
        f"  extra.csv: missing from {first / 'fig4_xzz'}",
    ]
    assert not same
    # so is a files list of run_metadata.json that is reordered or names a
    # CSV twice, with every file on disk identical
    (second / "fig4_xzz" / "extra.csv").rename(second / "fig4_xzz" / "contrast.csv")
    metadata = first / "fig4_xzz" / "run_metadata.json"
    record = json.loads(metadata.read_text())
    files = record["files"]
    for changed in (files[::-1], files + files[:1]):
        metadata.write_text(json.dumps(dict(record, files=changed)))
        lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
        assert "4 of 4 CSVs byte-identical, resolved_config.json byte-identical" in lines[0]
        assert lines[1:] == [f"  run_metadata.json files: {changed} -> {files}"]
        assert not same
    assert run_figures.main(argv) == 1
    # and so are ground-state records that name another route or another
    # number of solves
    solves = record["ground_state"]
    assert solves
    for changed in ([dict(solves[0], route="lanczos")] + solves[1:], solves + solves, []):
        metadata.write_text(json.dumps(dict(record, ground_state=changed)))
        lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
        assert lines[1:] == [f"  run_metadata.json ground_state: {changed} -> {solves}"]
        assert not same
    assert run_figures.main(argv) == 1
    # and so is any other metadata value, while the wall time is not compared
    excluded = record["excluded_contrast_points"]
    metadata.write_text(
        json.dumps(dict(record, excluded_contrast_points=excluded + 1, wall_time_s=-1.0))
    )
    lines, same = run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")
    assert lines[1:] == [
        f"  run_metadata.json excluded_contrast_points: {excluded + 1} -> {excluded}"
    ]
    assert not same and run_figures.main(argv) == 1
    metadata.write_text(json.dumps(record))
    assert run_figures.compare(second / "fig4_xzz", first / "fig4_xzz")[1]
    # a NaN slope in both runs has not moved
    contrast = ["--only", "fig4_contrast_xxx"]
    assert run_figures.main([*contrast, "--out", str(first)]) == 0
    slopes = json.loads((first / "fig4_contrast_xxx" / "run_metadata.json").read_text())
    assert math.isnan(slopes["pca_slopes"]["s13"])
    assert run_figures.main([*contrast, "--out", str(second), "--against", str(first)]) == 0
