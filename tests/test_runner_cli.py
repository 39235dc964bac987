import dataclasses
import errno
import hashlib
import json
import math
import os
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polarsolve as ps
from polarsolve import oracle, runner
from polarsolve.cli import main
from polarsolve.config import ConfigError, ExperimentConfig, load_config, parse_config
from polarsolve.runner import (
    emit_policy_csv,
    emit_value_csv,
    read_table_csv,
    run_config,
)
from polarsolve.single_elite import PolicyTable, ValueTable, solve_infinite

BASE_SINGLE = """
experiment = solve-single
pi = 0.5
beta = 0.9
H = 1
k = 10
grid_n = 101
tol = 1e-10
"""


def manifest_without_diagnostics(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("diagnostics")
    return data


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_emit_small_table(tmp_path):
    grid = ps.build_grid(3)
    policy = PolicyTable(grid=grid, sigma0=grid.points.copy(), sigma1=grid.points.copy())
    emit_policy_csv(policy, tmp_path / "policy.csv")
    lines = (tmp_path / "policy.csv").read_text().splitlines()
    assert lines[0] == "p,sigma_s0,sigma_s1"
    assert len(lines) == 4


@pytest.mark.parametrize("emit", [emit_policy_csv, emit_value_csv])
def test_emitters_reject_other_types(tmp_path, emit):
    with pytest.raises(TypeError, match="cannot emit"):
        emit(ps.build_grid(3), tmp_path / "table.csv")
    assert not (tmp_path / "table.csv").exists()


def test_csv_roundtrip_exact(tmp_path):
    grid = ps.build_grid(101)
    rng = np.random.default_rng(3)
    table = ValueTable(grid=grid, v0=rng.uniform(0, 40, grid.n), v1=rng.uniform(0, 40, grid.n))
    emit_value_csv(table, tmp_path / "value.csv")
    cols = read_table_csv(tmp_path / "value.csv")
    assert np.array_equal(cols["p"], grid.points)
    assert np.array_equal(cols["v_s0"], table.v0)
    assert np.array_equal(cols["v_s1"], table.v1)


def test_solve_single_run_and_anchor(tmp_path):
    config = parse_config(BASE_SINGLE)
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    cols = read_table_csv(tmp_path / "value.csv")
    mid = (101 - 1) // 2
    assert cols["p"][mid] == 0.5
    assert abs(cols["v_s0"][mid] - 10.0) <= 1e-6
    assert abs(cols["v_s1"][mid] - 10.0) <= 1e-6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert diagnostics["converged"] is True
    assert diagnostics["residual"] == 0.0
    # modified policy iteration: a few dense sweeps, many O(n) evaluation sweeps
    assert 1 <= diagnostics["iterations"] < diagnostics["evaluation_sweeps"]
    assert diagnostics["min_margin"] > 0.0
    assert 0 <= diagnostics["exact_ties"] < 2 * 101
    import hashlib

    for entry in manifest["artifacts"]:
        artifact = tmp_path / entry["path"]
        assert artifact.exists()
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == entry["sha256"]


def test_runs_are_deterministic(tmp_path):
    config = parse_config(BASE_SINGLE)
    run_config(config, tmp_path / "a")
    run_config(config, tmp_path / "b")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert manifest_without_diagnostics(tmp_path / "a" / "manifest.json") == (
        manifest_without_diagnostics(tmp_path / "b" / "manifest.json")
    )


def test_every_manifest_records_the_numpy_version_and_cpu_count(tmp_path):
    config = parse_config("experiment = sweep\nsolver = solve-single2p\nsweep.k = 1, 10\ngrid_n = 11\n")
    assert run_config(config, tmp_path).exit_code == 0
    manifests = sorted(tmp_path.rglob("manifest.json"))
    assert len(manifests) == 3  # the sweep's and its two combinations'
    for path in manifests:
        env = json.loads(path.read_text())["diagnostics"]["env"]
        assert env == {"numpy": np.__version__, "cpu_count": os.cpu_count()}


def test_solve_single_nonconvergence_exit_code(tmp_path):
    config = parse_config("experiment = solve-single\ngrid_n = 101\nmax_iter = 3\n")
    result = run_config(config, tmp_path)
    assert result.exit_code == 3
    # outputs still written, manifest flags the failure
    assert (tmp_path / "policy.csv").exists()
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["converged"] is False
    assert diagnostics["iterations"] == 3
    assert diagnostics["residual"] > 0.0


def test_cli_solve_single_tables_do_not_depend_on_tol(tmp_path):
    tables = set()
    for tol in ("1e-08", "1e-10", "1e-12"):
        out = tmp_path / tol
        argv = ["solve-single", "--out", str(out), "--override", "grid_n=101", "--override", f"tol={tol}"]
        assert main(argv) == 0
        tables.add(((out / "policy.csv").read_bytes(), (out / "value.csv").read_bytes()))
    assert len(tables) == 1


def test_solve_mpe_run_zero_cost(tmp_path):
    config = parse_config(
        "experiment = solve-mpe\nk = 0\ngrid_n = 101\nhorizon = 600\ntol = 1e-10\n"
    )
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    cols = read_table_csv(tmp_path / "value.csv")
    v_star = 1.0 / (1.0 - 0.81)
    for name in ("vA_s0", "vA_s1", "vB_s0", "vB_s1"):
        assert np.abs(cols[name] - v_star).max() <= 1e-8
    for name in ("uA", "uB"):
        assert np.abs(cols[name] - 0.9 * v_star).max() <= 1e-8
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["stationary"] is True
    assert diagnostics["cycle_period"] == 1
    assert diagnostics["cycle_entered_at"] is None
    assert diagnostics["no_deviation_gain"] <= 1e-8
    # every source ties at zero cost, so every step scores all moves
    assert diagnostics["dense_calls"] == 2 * diagnostics["horizon_used"]
    assert diagnostics["rescored_sources"] == 0


def test_mpe_baseline_manifest_reports_two_cycle(tmp_path):
    preset = Path(__file__).resolve().parent.parent / "presets" / "two_elite_mpe_baseline.cfg"
    assert main(["solve-mpe", "--config", str(preset), "--out", str(tmp_path)]) == 0
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["stationary"] is False
    assert diagnostics["cycle_period"] == 2
    assert 0 < diagnostics["cycle_entered_at"] < diagnostics["horizon_used"] < 600
    # one phase of a cycle, not a stationary equilibrium: a mover gains by deviating
    assert diagnostics["no_deviation_gain"] > 1e-3


def test_every_preset_solves_without_the_kernel_fallback(tmp_path):
    # a preset sliding onto the kernel's full-row scan is slow, not wrong: only this count shows it
    presets = sorted((Path(__file__).resolve().parent.parent / "presets").glob("*.cfg"))
    for preset in presets:
        assert run_config(load_config(preset), tmp_path / preset.stem).exit_code == 0
    counted = 0
    for path in sorted(tmp_path.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        if manifest["config"]["experiment"] in ("solve-single", "solve-mpe"):
            assert manifest["diagnostics"]["kernel_fallbacks"] == 0, path
            counted += 1
    assert counted > len(presets)  # the sweeps' combinations too


def test_solve_two_period_writes_candidates(tmp_path):
    config = parse_config("experiment = solve-single2p\ngrid_n = 51\n")
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    records = json.loads((tmp_path / "candidates.json").read_text())
    assert len(records) == 2 * 51
    assert {c["provenance"] for c in records[0]["candidates"]} == {
        "inaction", "interior_b", "interior_c", "median",
    }


def test_solve_stackelberg_writes_phi(tmp_path):
    config = parse_config("experiment = solve-stackelberg\ngrid_n = 51\n")
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    records = json.loads((tmp_path / "candidates.json").read_text())
    by_point = {(r["p0"], r["s1"]): r for r in records}
    assert by_point[(0.0, 0)]["phi"] == 0.5
    assert by_point[(0.5, 0)]["phi"] == 0.0


def test_sweep_writes_index_and_combos(tmp_path):
    config = parse_config(
        "experiment = sweep\nsolver = solve-single\nsweep.k = 0.5, 10, 200\n"
        "grid_n = 101\ntol = 1e-10\n"
    )
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    index = (tmp_path / "index.csv").read_text().splitlines()
    assert index[0] == "combo,k,dir,policy_csv,value_csv"
    assert len(index) == 4
    for i in range(3):
        assert (tmp_path / f"combo_{i:03d}" / "policy.csv").exists()
    # post-hoc: the moved-point measure weakly shrinks as cost rises
    measures = []
    for i in range(3):
        cols = read_table_csv(tmp_path / f"combo_{i:03d}" / "policy.csv")
        moved = (cols["sigma_s0"] != cols["p"]).mean(), (cols["sigma_s1"] != cols["p"]).mean()
        measures.append(moved)
    for earlier, later in zip(measures, measures[1:]):
        assert later[0] <= earlier[0] + 1e-12
        assert later[1] <= earlier[1] + 1e-12


def test_sweep_determinism(tmp_path):
    config = parse_config(
        "experiment = sweep\nsolver = solve-mpe\nsweep.beta = 0.5, 0.9\nsweep.H = 0.5, 1\n"
        "k = 0\ngrid_n = 51\nhorizon = 600\ntol = 1e-10\n"
    )
    run_config(config, tmp_path / "a")
    run_config(config, tmp_path / "b")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    index = (tmp_path / "a" / "index.csv").read_text().splitlines()
    assert len(index) == 5  # header + 4 combinations


def test_sweep_runs_one_combination_at_a_time(tmp_path, monkeypatch):
    lock = threading.Lock()
    active, peak, calls = 0, 0, 0

    def counting_solve(*args, **kwargs):
        nonlocal active, peak, calls
        with lock:
            active += 1
            calls += 1
            peak = max(peak, active)
        try:
            time.sleep(0.02)
            return solve_infinite(*args, **kwargs)
        finally:
            with lock:
                active -= 1

    monkeypatch.setattr(runner, "solve_infinite", counting_solve)
    config = parse_config(
        "experiment = sweep\nsolver = solve-single\nsweep.k = 1, 10, 100\nsweep.pi = 0.5, 0.7\n"
        "grid_n = 51\n"
    )
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    assert calls == 6
    assert peak == 1
    assert (tmp_path / "combo_005" / "value.csv").exists()


def test_sweep_keeps_every_combination_and_the_worst_exit_code(tmp_path, monkeypatch):
    calls = 0

    def second_unconverged(*args, **kwargs):
        nonlocal calls
        calls += 1
        sol = solve_infinite(*args, **kwargs)
        return dataclasses.replace(sol, converged=False) if calls == 2 else sol

    monkeypatch.setattr(runner, "solve_infinite", second_unconverged)
    config = parse_config(
        "experiment = sweep\nsolver = solve-single\nsweep.k = 1, 10, 100\ngrid_n = 51\n"
    )
    result = run_config(config, tmp_path)
    # the failing combination is not the last, so a later success must not hide it
    assert result.exit_code == runner.EXIT_NO_CONVERGENCE
    index = (tmp_path / "index.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in index[1:]] == ["000", "001", "002"]
    assert result.manifest["diagnostics"]["combinations"] == 3
    combo = json.loads((tmp_path / "combo_001" / "manifest.json").read_text())
    assert combo["diagnostics"]["converged"] is False
    for i in range(3):
        assert (tmp_path / f"combo_{i:03d}" / "value.csv").exists()


def test_oracle_check_run(tmp_path):
    config = parse_config(
        "experiment = oracle-check\nscan_n = 21\noracle_n = 401\nchecks = period2, period1\n"
    )
    result = run_config(config, tmp_path)
    assert result.exit_code == 0
    report = json.loads((tmp_path / "oracle_check.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["period2"]["passed"] is True


def test_cli_oracle_check_at_zero_cost_exits_0(tmp_path):
    # every move ties at k = 0; the oracle picks the lowest index, the closed form stays or jumps to 1/2
    argv = ["oracle-check", "--out", str(tmp_path), "--override", "k=0", "--override", "oracle_n=401"]
    argv += ["--override", "scan_n=21"]
    assert main(argv) == 0
    report = json.loads((tmp_path / "oracle_check.json").read_text())
    assert report["checks"]["period2"] == {
        "max_argmax_diff": 0.0,
        "max_value_diff": 0.0,
        "passed": True,
        "tolerance": 1e-12,
    }
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["period2_tied_points"] == 2 * 21


def test_oracle_check_rejects_a_move_outside_the_tied_maximizers(tmp_path, monkeypatch):
    # at k = 0 staying at a losing point scores 0 against the maximum H
    def stay(params, cost, p, s):
        return p, np.zeros_like(p) + params.H

    monkeypatch.setattr(runner, "period2_solve", stay)
    config = parse_config("experiment = oracle-check\nk = 0\nscan_n = 21\noracle_n = 401\nchecks = period2\n")
    result = run_config(config, tmp_path)
    assert result.exit_code == 1
    assert json.loads((tmp_path / "oracle_check.json").read_text())["checks"]["period2"]["passed"] is False


@pytest.mark.parametrize(
    "check, solver",
    [("period2", "period2_solve"), ("period1", "period1_solve"), ("stackelberg", "stackelberg_solve")],
)
def test_oracle_check_fails_on_a_nan_value(tmp_path, monkeypatch, check, solver):
    solve = getattr(runner, solver)

    def nan_at_the_last_point(params, cost, p, s):
        sol = solve(params, cost, p, s)
        if check == "period2":
            move, value = sol
            return move, np.append(value[:-1], math.nan)
        value = sol.value.copy()
        value[-1] = math.nan
        return dataclasses.replace(sol, value=value)

    monkeypatch.setattr(runner, solver, nan_at_the_last_point)
    config = parse_config(f"experiment = oracle-check\nscan_n = 21\noracle_n = 401\nchecks = {check}\n")
    assert run_config(config, tmp_path).exit_code == 1
    report = json.loads((tmp_path / "oracle_check.json").read_text())["checks"][check]
    assert math.isnan(report["max_value_diff"]) and report["passed"] is False


def test_oracle_check_builds_only_the_oracle_grid(tmp_path, monkeypatch):
    built = []

    def spy(n):
        built.append(n)
        return ps.build_grid(n)

    monkeypatch.setattr(runner, "build_grid", spy)
    config = ExperimentConfig(experiment="oracle-check", grid_n=200001, scan_n=21, oracle_n=401)
    assert run_config(config, tmp_path).exit_code == 0
    assert built == [401]
    # the manifest still echoes the config's grid size
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["grid_n"] == 200001


SLEEP_S = 0.1
ORACLE_PERIOD1 = ["oracle-check", "checks=period1", "scan_n=21", "oracle_n=401"]


@pytest.mark.parametrize(
    "argv, module, name, phase",
    [
        (ORACLE_PERIOD1, runner, "period1_solve", "solve_s"),
        (ORACLE_PERIOD1, oracle, "brute_force_two_period_single", "check_s"),
        (["solve-mpe", "grid_n=51"], runner, "check_no_deviation", "check_s"),
    ],
)
def test_manifest_charges_a_slowed_step_to_its_phase(tmp_path, monkeypatch, argv, module, name, phase):
    # oracle-check: the closed-form solves are solve_s, the oracle's work check_s
    step, calls = getattr(module, name), []

    def slowed(*args, **kwargs):
        calls.append(None)
        time.sleep(SLEEP_S)
        return step(*args, **kwargs)

    monkeypatch.setattr(module, name, slowed)
    command = [argv[0], "--out", str(tmp_path)]
    for override in argv[1:]:
        command += ["--override", override]
    assert main(command) == 0
    phases = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["phases"]
    other = {"solve_s": "check_s", "check_s": "solve_s"}[phase]
    assert calls and phases[phase] >= SLEEP_S * len(calls) > phases[other]


def test_sweep_phases_sum_those_of_its_combinations(tmp_path):
    argv = ["sweep", "--out", str(tmp_path), "--override", "solver=solve-mpe", "--override", "sweep.k=1, 10"]
    assert main(argv + ["--override", "grid_n=51"]) == 0
    phases = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["phases"]
    combos = [json.loads(p.read_text())["diagnostics"]["phases"] for p in tmp_path.glob("combo_*/manifest.json")]
    assert len(combos) == 2
    for key in ("solve_s", "check_s"):
        assert phases[key] == math.fsum(combo[key] for combo in combos)


def test_a_write_cut_short_leaves_no_artifact_under_its_name_and_no_manifest(tmp_path, monkeypatch):
    write_bytes = Path.write_bytes

    def half_then_fail(path, data):
        if path.name.startswith("value.csv"):
            write_bytes(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError):
        run_config(parse_config(BASE_SINGLE), tmp_path)
    # policy.csv was written whole before the failing write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.csv"]


def test_cli_roundtrip(tmp_path, capsys):
    preset = Path(__file__).resolve().parent.parent / "presets" / "single_elite_baseline.cfg"
    code = main(
        [
            "solve-single",
            "--config", str(preset),
            "--out", str(tmp_path),
            "--override", "grid_n=101",
        ]
    )
    assert code == 0
    assert (tmp_path / "value.csv").exists()


def test_cli_bad_field_exits_2(tmp_path, capsys):
    code = main(["solve-single", "--out", str(tmp_path), "--override", "beta=1.2"])
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_cli_wrong_subcommand_for_config(tmp_path, capsys):
    preset = Path(__file__).resolve().parent.parent / "presets" / "single_elite_baseline.cfg"
    code = main(["solve-mpe", "--config", str(preset), "--out", str(tmp_path)])
    assert code == 2
    assert "experiment" in capsys.readouterr().err


def test_cli_experiment_override_must_match_subcommand(tmp_path, capsys):
    # an override is held to the subcommand exactly as a config file is
    config = tmp_path / "mpe.cfg"
    config.write_text("experiment = solve-mpe\n")
    assert main(["solve-single", "--config", str(config), "--out", str(tmp_path / "a")]) == 2
    from_file = capsys.readouterr().err
    argv = ["solve-single", "--out", str(tmp_path / "b"), "--override", "experiment=solve-mpe",
            "--override", "grid_n=11"]
    assert main(argv) == 2
    assert capsys.readouterr().err == from_file
    assert "'solve-mpe'" in from_file and "'solve-single'" in from_file
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("checks", ["period2, period2", "period1, stackelberg, period1"])
def test_cli_repeated_check_exits_2_without_artifacts(tmp_path, capsys, checks):
    code = main(["oracle-check", "--out", str(tmp_path), "--override", f"checks={checks}"])
    assert code == 2
    assert "checks" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("kind", ["missing", "directory", "invalid-utf8"])
def test_cli_missing_config_file(tmp_path, capsys, kind):
    path = tmp_path / "config.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid-utf8":
        path.write_bytes(b"experiment = solve-single\ngrid_n = 11\xff\n")
    code = main(["solve-single", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, field", [("sweep.k=1, 2", "sweep_axes"), ("solver=solve-mpe", "solver")]
)
def test_cli_sweep_keys_outside_a_sweep_exit_2_without_artifacts(tmp_path, capsys, override, field):
    out = tmp_path / "out"
    argv = ["solve-single", "--out", str(out), "--override", override, "--override", "grid_n=11"]
    assert main(argv) == 2
    assert f"field {field!r}: only a sweep config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["k=inf", "H=inf", "tol=nan"])
def test_cli_non_finite_override_exits_2_without_artifacts(tmp_path, capsys, override):
    out = tmp_path / "out"
    code = main(
        ["solve-single", "--out", str(out), "--override", "grid_n=51", "--override", override]
    )
    assert code == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-mpe", "--override", "H=1e308", "--override", "grid_n=11"],
        ["solve-single", "--override", "H=1e308", "--override", "grid_n=11"],
        ["solve-single2p", "--override", "H=1e308", "--override", "grid_n=11"],
        # each value is fine against the base beta = 0.9; 1.7e307 / (1 - 0.95) is not
        ["sweep", "--override", "solver=solve-mpe", "--override", "grid_n=11",
         "--override", "sweep.H=1, 1.7e307", "--override", "sweep.beta=0.5, 0.95"],
    ],
)
def test_cli_overflowing_value_bound_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_cli_largest_finite_value_bound_solves(tmp_path):
    # H / (1 - beta) = 1.79e308, just inside the float range
    argv = ["solve-mpe", "--out", str(tmp_path), "--override", "H=1.79e307", "--override", "grid_n=11"]
    assert main(argv) == 0
    for column in read_table_csv(tmp_path / "value.csv").values():
        assert np.isfinite(column).all()


# Each case's last override is the one a config check rejects.
CONFIG_ERRORS = [
    (["solve-single", "--override", "grid_n=abc"], "field 'grid_n': expected an integer"),
    (["sweep", "--override", "solver=solve-single", "--override", "sweep.k="],
     "field 'sweep.k': expected a non-empty comma-separated list"),
    (["solve-single", "--override", "experiment=nope"], "field 'experiment': must be one of"),
    (["sweep", "--override", "sweep.k=1, 2", "--override", "solver=nope"], "field 'solver': must be one of"),
    (["oracle-check", "--override", "checks=period3"], "field 'checks': checks must be among"),
    (["solve-single", "--override", "output_dir="], "field 'output_dir': must be a non-empty path"),
    (["solve-single", "--override", "pi=1"], "field 'pi': must lie in (0, 1)"),
    (["solve-single", "--override", "H=0"], "field 'H': must be positive"),
    (["solve-mpe", "--override", "horizon=1"], "field 'horizon': must be at least 2"),
    (["solve-mpe", "--override", "tol=0"], "field 'tol': must be positive"),
    (["solve-single", "--override", "max_iter=0"], "field 'max_iter': must be at least 1"),
    (["sweep", "--override", "solver=solve-single", "--override", "sweep.k=1", "--override", "sweep_cap=0"],
     "field 'sweep_cap': must be at least 1"),
    (["oracle-check", "--override", "scan_n=1"], "field 'scan_n': must be at least 2"),
    (["oracle-check", "--override", "oracle_n=4"], "field 'oracle_n': must be odd and at least 3"),
    (["oracle-check", "--override", "checks="], "field 'checks': must list at least one check"),
    (["solve-single", "--out", ""], "field 'output_dir': must be a non-empty path"),
]


@pytest.mark.parametrize("argv, expected", CONFIG_ERRORS, ids=[argv[-1] or "empty --out" for argv, _ in CONFIG_ERRORS])
def test_cli_config_check_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, argv, expected):
    # run from an empty directory, so a run that writes into the working directory shows
    monkeypatch.chdir(tmp_path)
    assert main(argv[:1] + ["--out", "out"] + argv[1:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert expected in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config, field",
    [
        (ExperimentConfig(experiment="nope"), "experiment"),
        (ExperimentConfig(experiment="oracle-check", checks=("period2", "bogus")), "checks"),
        (ExperimentConfig(experiment="oracle-check", checks=("period2", "period2")), "checks"),
        (ExperimentConfig(experiment="solve-single", cost="custom"), "cost"),
        (ExperimentConfig(experiment="solve-single", output_dir=""), "output_dir"),
        (ExperimentConfig(experiment="sweep", solver="solve-single", sweep_axes=(("tol", (1e-8,)),)), "sweep_axes"),
        (ExperimentConfig(experiment="sweep", solver="solve-single", sweep_axes=(("k", (1.0,)), ("k", (2.0,)))),
         "sweep_axes"),
        (ExperimentConfig(experiment="solve-single", grid_n=11, pi="0.5"), "pi"),
        (ExperimentConfig(experiment="solve-single", grid_n=51.0), "grid_n"),
        (ExperimentConfig(experiment="solve-single", grid_n=11, k=True), "k"),
    ],
    ids=["experiment", "unknown-check", "repeated-check", "cost", "output_dir", "unknown-axis", "repeated-axis",
         "str-pi", "float-grid_n", "bool-k"],
)
def test_run_config_rejects_an_unknown_experiment(tmp_path, config, field):
    # a config built in code meets the rules a config file does
    with pytest.raises(ConfigError) as err:
        run_config(config, tmp_path / "out")
    assert err.value.field == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("beta, grid_n", [("1e-20", "51"), ("5e-324", "3")])
def test_cli_solve_single_at_the_float_maximum_warns_nothing(tmp_path, beta, grid_n):
    # H / (1 - beta) rounds to H, the largest float, so validation accepts the config
    argv = ["solve-single", "--out", str(tmp_path), "--override", "H=1.7976931348623157e308"]
    argv += ["--override", f"beta={beta}", "--override", f"grid_n={grid_n}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    for column in read_table_csv(tmp_path / "value.csv").values():
        assert np.isfinite(column).all()


@settings(max_examples=40, deadline=None)
@example(experiment="solve-single", pi=0.5, beta=0.9, H=1e308, k=10.0, grid_n=11)
@example(experiment="solve-mpe", pi=0.5, beta=0.9, H=1e308, k=10.0, grid_n=11)
@given(
    experiment=st.sampled_from(["solve-single", "solve-mpe"]),
    pi=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    H=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    k=st.floats(min_value=0.0, allow_infinity=False),
    grid_n=st.integers(min_value=1, max_value=10).map(lambda m: 2 * m + 1),
)
def test_cli_in_range_config_solves_finite_or_exits_2(experiment, pi, beta, H, k, grid_n):
    # finite tables (exit 0, or 3 for a solve that did not converge), or a
    # config the value bound rejects up front; never inf or NaN written out
    with tempfile.TemporaryDirectory() as out:
        argv = [experiment, "--out", out]
        for key, value in {"pi": pi, "beta": beta, "H": H, "k": k, "grid_n": grid_n}.items():
            argv += ["--override", f"{key}={value!r}"]
        code = main(argv)
        if code == 2:
            assert not math.isfinite(H / (1.0 - beta))
            return
        assert code in (0, 3)
        for name in ("value.csv", "policy.csv"):
            for column in read_table_csv(Path(out) / name).values():
                assert np.isfinite(column).all(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-single", "--override", "grid_n=10000001"],
        ["solve-mpe", "--override", "grid_n=10000001"],
        ["sweep", "--override", "solver=solve-mpe", "--override", "sweep.grid_n=51, 10000001"],
        ["oracle-check", "--override", "oracle_n=10000001", "--override", "scan_n=3"],
    ],
)
def test_cli_oversized_grid_exits_2_without_allocating(tmp_path, capsys, monkeypatch, argv):
    def refuse(n):
        raise AssertionError(f"build_grid({n}) called for an oversized config")

    monkeypatch.setattr("polarsolve.runner.build_grid", refuse)
    out = tmp_path / "out"
    assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_digests.json").read_text())


@pytest.mark.parametrize(
    "run", GOLDEN, ids=[" ".join([r["experiment"]] + r["overrides"]) for r in GOLDEN]
)
def test_artifacts_match_golden_digests(tmp_path, run):
    # a change to any emitted byte must be deliberate: bump SCHEMA_VERSION,
    # say why in CHANGES.md and record the new digests
    argv = [run["experiment"], "--out", str(tmp_path)]
    for override in run["overrides"]:
        argv += ["--override", override]
    assert main(argv) == run.get("exit_code", 0)
    for name, digest in run["sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    # manifests carry per-phase seconds in their diagnostics; everything else is pinned
    for name, digest in run["manifest_sha256"].items():
        echo = json.dumps(manifest_without_diagnostics(tmp_path / name), sort_keys=True)
        assert hashlib.sha256(echo.encode()).hexdigest() == digest, name
