import dataclasses
import importlib.util
import json
from pathlib import Path

import polarsolve as ps

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equilibrium_shapes_exit_code(monkeypatch, capsys):
    shapes = load_script("equilibrium_shapes")
    assert shapes.main() == 0
    assert "FAIL" not in capsys.readouterr().out

    solve = ps.solve_infinite

    def rising(params, cost, grid):
        # a value rising all the way to p = 1 has no peak at 1/2
        sol = solve(params, cost, grid)
        value = ps.ValueTable(grid=grid, v0=grid.points.copy(), v1=sol.value.v1)
        return dataclasses.replace(sol, value=value)

    monkeypatch.setattr(ps, "solve_infinite", rising)
    assert shapes.main() == 1
    assert "peak at 1/2: False" in capsys.readouterr().out


def test_check_digests_finds_a_changed_byte(tmp_path, capsys):
    check = load_script("check_digests")
    assert check.main([str(tmp_path)]) == 1  # no manifest at all
    axes = (("k", (1.0, 10.0)),)
    config = ps.ExperimentConfig(experiment="sweep", solver="solve-single", grid_n=11, sweep_axes=axes)
    assert ps.run_config(config, tmp_path).exit_code == 0
    assert check.main([str(tmp_path)]) == 0
    # index.csv and the four combination files in the sweep's manifest, two in each combination's
    assert "9 artifacts re-hashed, 0 differ" in capsys.readouterr().out
    value = tmp_path / "combo_001" / "value.csv"
    value.write_bytes(value.read_bytes().replace(b"\n0.0,", b"\n-0.0,", 1))
    assert check.main([str(tmp_path)]) == 1
    assert f"{value}: differs from {tmp_path / 'manifest.json'}" in capsys.readouterr().out


def test_check_digests_holds_the_artifacts_to_a_pinned_file(tmp_path, capsys):
    check = load_script("check_digests")
    out, pins = tmp_path / "out", tmp_path / "pins.json"
    config = ps.ExperimentConfig(experiment="solve-single2p", grid_n=11)
    assert ps.run_config(config, out / "a").exit_code == 0
    assert check.main([str(out), "--record", str(pins)]) == 0
    # the manifest, with its wall times, is not pinned
    assert sorted(json.loads(pins.read_text())) == ["a/candidates.json", "a/policy.csv", "a/value.csv"]
    assert check.main([str(out), "--expect", str(pins)]) == 0
    assert "3 pinned artifacts, 0 differ" in capsys.readouterr().out
    # other bytes, with a manifest that matches them
    assert ps.run_config(dataclasses.replace(config, k=11.0), out / "a").exit_code == 0
    assert check.main([str(out), "--expect", str(pins)]) == 1
    assert f"{out / 'a' / 'value.csv'}: differs from {pins}" in capsys.readouterr().out
    # the same bytes under another path: three missing, three not pinned
    assert ps.run_config(config, out / "a").exit_code == 0
    (out / "a").rename(out / "b")
    assert check.main([str(out), "--expect", str(pins)]) == 1
    assert "3 pinned artifacts, 6 differ" in capsys.readouterr().out


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    count = load_script("code_lines")
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def area(r):
    """Function docstring."""
    # a comment on its own line
    text = """a string that is not a docstring
spans two code lines"""
    return math.pi * r * r, text
'''
    # import, def, the string's two lines, return
    assert count.code_lines(source) == 5
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert count.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["5", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["6", "total"],
    ]


def test_bench_record_keeps_the_median_of_its_untraced_rounds(tmp_path, monkeypatch):
    record = load_script("bench_record")
    declared = {"workloads": [{"name": "fast"}, {"name": "slow"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    # the values of successive runs; the first round of "slow" falls in a slow period of the host
    walls = {("fast", 0): iter([1.0, 3.0, 2.0]), ("slow", 0): iter([90.0, 5.0, 4.0]),
             ("fast", 1): iter([7.0]), ("slow", 1): iter([7.0])}
    calls = []

    def run_workload(root, workload, trace):
        calls.append((workload, trace))
        value = next(walls[workload, trace])
        return {"metrics": {"wall_s": {"value": value}}, "correct": True, "attempted": 2, "failed": 0}

    monkeypatch.setattr(record, "run_workload", run_workload)
    monkeypatch.setattr(record, "preset_seconds", lambda root: {})
    monkeypatch.setattr(record, "suite_seconds", lambda root: 0.0)
    monkeypatch.setattr(record.os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(record, "HERE", tmp_path)
    assert record.main(["--label", "x", "--root", str(tmp_path)]) == 0
    # a round visits every workload before the next round starts; the traced runs come last
    assert calls == [("fast", 0), ("slow", 0)] * 3 + [("fast", 1), ("slow", 1)]
    workloads = json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]
    assert workloads["fast"]["end_to_end"] == {"wall_s": 2.0}
    assert workloads["slow"]["end_to_end"] == {"wall_s": 5.0}
    assert workloads["slow"]["end_to_end_rounds"] == {"wall_s": [90.0, 5.0, 4.0]}
    assert workloads["slow"]["end_to_end_run"] == {"correct": True, "attempted": 6, "failed": 0}
    assert workloads["slow"]["per_layer"] == {"wall_s": 7.0}
