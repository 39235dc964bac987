"""Experiment execution: solves, sweeps, CSV/JSON artifacts, run manifests.

Outputs are deterministic: identical configs produce byte-identical CSVs
and JSON artifacts. Floats are written with Python's shortest exact
representation, so parsing an emitted file recovers the in-memory table
bit for bit. The only nondeterministic value (wall time) lives inside the
manifest's diagnostics block.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import oracle as oracle_mod
from .config import ExperimentConfig, config_as_dict, sweep_combinations, validate
from .grids import build_grid
from .model import CostSpec, ModelParams, evaluate_cost, stage_payoff
from .single_elite import (
    PolicyTable,
    ValueTable,
    period1_solve,
    period2_solve,
    solve_infinite,
)
from .two_elite import MpeSolution, check_no_deviation, mpe_solve, stackelberg_solve

SCHEMA_VERSION = "2"
TOOL_VERSION = __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

SINGLE_POLICY_HEADER = ["p", "sigma_s0", "sigma_s1"]
SINGLE_VALUE_HEADER = ["p", "v_s0", "v_s1"]
MPE_POLICY_HEADER = ["p", "sigmaA_s0", "sigmaA_s1", "sigmaB_s0", "sigmaB_s1"]
MPE_VALUE_HEADER = ["p", "vA_s0", "vA_s1", "uA", "vB_s0", "vB_s1", "uB"]


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    out_dir: Path
    manifest: dict


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # tolist() yields Python floats, whose repr is the shortest round-trip form.
    lines = [",".join(header)]
    for row in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_policy_csv(tables, path) -> None:
    """Write a policy CSV (single-elite or two-elite schema) to path."""
    path = Path(path)
    if isinstance(tables, MpeSolution):
        _write_csv(
            path,
            MPE_POLICY_HEADER,
            [tables.grid.points, tables.sigmaA0, tables.sigmaA1, tables.sigmaB0, tables.sigmaB1],
        )
    elif isinstance(tables, PolicyTable):
        _write_csv(path, SINGLE_POLICY_HEADER, [tables.grid.points, tables.sigma0, tables.sigma1])
    else:
        raise TypeError(f"cannot emit policy CSV for {type(tables).__name__}")


def emit_value_csv(tables, path) -> None:
    """Write a value CSV (single-elite or two-elite schema) to path."""
    path = Path(path)
    if isinstance(tables, MpeSolution):
        _write_csv(
            path,
            MPE_VALUE_HEADER,
            [
                tables.grid.points,
                tables.vA0,
                tables.vA1,
                tables.uA,
                tables.vB0,
                tables.vB1,
                tables.uB,
            ],
        )
    elif isinstance(tables, ValueTable):
        _write_csv(path, SINGLE_VALUE_HEADER, [tables.grid.points, tables.v0, tables.v1])
    else:
        raise TypeError(f"cannot emit value CSV for {type(tables).__name__}")


def read_table_csv(path) -> dict[str, np.ndarray]:
    """Parse an emitted CSV back into named columns."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    columns = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return columns


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _finish(
    config: ExperimentConfig, out_dir: Path, diagnostics: dict, artifacts: list[str], exit_code: int = EXIT_OK
) -> RunResult:
    """Write the manifest over the artifacts (paths relative to out_dir) and wrap the result."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "experiment": config.experiment,
        "config": config_as_dict(config),
        "diagnostics": diagnostics,
        "artifacts": [{"path": name, "sha256": _sha256(out_dir / name)} for name in artifacts],
    }
    _write_json(out_dir / "manifest.json", manifest)
    return RunResult(exit_code, out_dir, manifest)


def _model_inputs(config: ExperimentConfig):
    params = ModelParams(pi=config.pi, beta=config.beta, H=config.H)
    cost = CostSpec.quadratic(config.k)
    grid = build_grid(config.resolved_grid_n())
    return params, cost, grid


def _run_solve_single(config: ExperimentConfig, out_dir: Path) -> RunResult:
    params, cost, grid = _model_inputs(config)
    start = time.perf_counter()
    sol = solve_infinite(params, cost, grid, max_iter=config.max_iter)
    elapsed = time.perf_counter() - start
    emit_policy_csv(sol.policy, out_dir / "policy.csv")
    emit_value_csv(sol.value, out_dir / "value.csv")
    diagnostics = {
        "wall_time_s": elapsed,
        "iterations": sol.iterations,
        "evaluation_sweeps": sol.evaluation_sweeps,
        "residual": sol.residual,
        "converged": sol.converged,
        "min_margin": sol.min_margin,
        "exact_ties": sol.exact_ties,
    }
    code = EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE
    return _finish(config, out_dir, diagnostics, ["policy.csv", "value.csv"], code)


# Records are built as columns: lists of tolist() values, one per key and
# point. tolist() yields Python floats, which json spells by their shortest
# round-trip repr (a numpy float's repr would be np.float64(...)).
def _candidate_columns(points: list, sol) -> list[dict]:
    return [
        {
            "candidate": e.candidate.tolist(),
            "objective": e.objective.tolist(),
            "provenance": [e.provenance] * len(points),
        }
        for e in sol.candidates
    ]


def _period1_columns(points: list, s: int, sol) -> dict:
    return {
        "p": points,
        "s": [s] * len(points),
        "chosen": sol.p_next.tolist(),
        "value": sol.value.tolist(),
        "candidates": _candidate_columns(points, sol),
    }


def _stackelberg_columns(points: list, s1: int, sol) -> dict:
    return {
        "p0": points,
        "s1": [s1] * len(points),
        "chosen": sol.chosen.tolist(),
        "value": sol.value.tolist(),
        "phi": sol.phi_at_p0.tolist(),
        "candidates": _candidate_columns(points, sol),
    }


def _spelled(column: list) -> list[str]:
    """Every value of a column as json.dumps spells it."""
    kinds = set(map(type, column))
    if kinds <= {int, float} and all(map(math.isfinite, column)):
        return list(map(repr, column))
    if kinds == {str}:
        spelling = {x: json.dumps(x) for x in set(column)}
        return list(map(spelling.__getitem__, column))
    return list(map(json.dumps, column))


def _records_json(states: list[dict]) -> str:
    """json.dumps(records, indent=2, sort_keys=True) + "\n" for records given as columns.

    states is a list of dicts of columns, whose records follow one another.
    In each, record i maps every key to columns[key][i], except
    "candidates": a list that holds, for each dict of columns in
    columns["candidates"], the dict of their i-th values. json's indenting
    encoder is pure Python and costs more than the solves, so each record's
    values are filled into one template that json.dumps lays out from
    placeholders.
    """
    records = []
    for columns in states:
        layout = {key: "%s" for key in columns}
        layout["candidates"] = [{field: "%s" for field in slot} for slot in columns["candidates"]]
        template = json.dumps(layout, indent=2, sort_keys=True).replace("%", "%%").replace('"%%s"', "%s")
        template = template.replace("\n", "\n  ")  # a record sits one level deep in the list
        leaves = []  # the value columns in the order json.dumps visits them
        for key in sorted(columns):
            if key == "candidates":
                leaves += [slot[field] for slot in columns[key] for field in sorted(slot)]
            else:
                leaves.append(columns[key])
        records += (template % row for row in zip(*map(_spelled, leaves)))
    return "[\n  " + ",\n  ".join(records) + "\n]\n"


def _run_two_period(config: ExperimentConfig, out_dir: Path, solve, columns) -> RunResult:
    """Solve a two-period problem over the grid, once per state.

    solve(params, cost, points, s) solves at every grid point at once;
    columns(points, s, solution) lays it out as the columns of the points'
    candidates.json records, whose "chosen" and "value" fill the policy
    and value tables.
    """
    params, cost, grid = _model_inputs(config)
    points = grid.points.tolist()
    start = time.perf_counter()
    states = [columns(points, s, solve(params, cost, grid.points, s)) for s in (0, 1)]
    elapsed = time.perf_counter() - start
    sigma0, sigma1 = (np.array(state["chosen"]) for state in states)
    v0, v1 = (np.array(state["value"]) for state in states)
    emit_policy_csv(PolicyTable(grid=grid, sigma0=sigma0, sigma1=sigma1), out_dir / "policy.csv")
    emit_value_csv(ValueTable(grid=grid, v0=v0, v1=v1), out_dir / "value.csv")
    (out_dir / "candidates.json").write_text(_records_json(states), encoding="utf-8")
    diagnostics = {"wall_time_s": elapsed, "points": grid.n}
    return _finish(config, out_dir, diagnostics, ["policy.csv", "value.csv", "candidates.json"])


# The solve functions are looked up when a run starts, not bound here, so
# that a tracer patching this module's names (bench/tracer.py) sees every call.
def _run_solve_single2p(config: ExperimentConfig, out_dir: Path) -> RunResult:
    return _run_two_period(config, out_dir, period1_solve, _period1_columns)


def _run_solve_stackelberg(config: ExperimentConfig, out_dir: Path) -> RunResult:
    return _run_two_period(config, out_dir, stackelberg_solve, _stackelberg_columns)


def _run_solve_mpe(config: ExperimentConfig, out_dir: Path) -> RunResult:
    # The equilibrium computation is a finite-horizon procedure: the tables
    # of the requested horizon are success. Stationarity (early-stop residual
    # below tol) and an exact cycle of any period are recorded as diagnostics;
    # the best-response dynamics genuinely cycle for many cost levels, which is
    # a property of the game, not a solver failure.
    params, cost, grid = _model_inputs(config)
    start = time.perf_counter()
    sol = mpe_solve(params, cost, grid, horizon=config.horizon, residual_tol=config.tol)
    elapsed = time.perf_counter() - start
    emit_policy_csv(sol, out_dir / "policy.csv")
    emit_value_csv(sol, out_dir / "value.csv")
    diagnostics = {
        "wall_time_s": elapsed,
        "horizon_used": sol.horizon_used,
        "residual": sol.residual,
        "stationary": sol.converged,
        "cycle_period": sol.cycle_period,
        "cycle_entered_at": sol.cycle_entered_at,
        "dense_calls": sol.dense_calls,
        "rescored_sources": sol.rescored_sources,
        "no_deviation_gain": check_no_deviation(params, cost, sol),
    }
    return _finish(config, out_dir, diagnostics, ["policy.csv", "value.csv"])


def _run_sweep(config: ExperimentConfig, out_dir: Path) -> RunResult:
    names = [name for name, _ in config.sweep_axes]
    start = time.perf_counter()
    lines = [",".join(["combo"] + names + ["dir", "policy_csv", "value_csv"])]
    artifacts = ["index.csv"]
    worst = EXIT_OK
    for index, (values, solver_config) in enumerate(sweep_combinations(config)):
        result = run_config(solver_config, out_dir / f"combo_{index:03d}")
        rel = result.out_dir.relative_to(out_dir)
        lines.append(
            ",".join(
                [f"{index:03d}"]
                + [repr(v) for v in values]
                + [str(rel), str(rel / "policy.csv"), str(rel / "value.csv")]
            )
        )
        artifacts += [str(rel / entry["path"]) for entry in result.manifest["artifacts"]]
        worst = max(worst, result.exit_code)
    (out_dir / "index.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elapsed = time.perf_counter() - start
    # One index line per combination, after the header.
    diagnostics = {"wall_time_s": elapsed, "combinations": len(lines) - 1}
    return _finish(config, out_dir, diagnostics, artifacts, worst)


def _run_oracle_check(config: ExperimentConfig, out_dir: Path) -> RunResult:
    params, cost, _ = _model_inputs(config)
    ogrid = build_grid(config.oracle_n)
    stride = (config.oracle_n - 1) // (config.scan_n - 1)
    scan = ogrid.points[::stride]
    # Grid-snap error in the oracle value scales with its step, so the value
    # tolerances do too; at the default 2001-point oracle they equal the
    # release-gate tolerances (2e-4 and 2e-3).
    tol_period1 = 0.4 * ogrid.step
    tol_stackelberg = 4.0 * ogrid.step
    start = time.perf_counter()
    report = {"scan_n": config.scan_n, "oracle_n": config.oracle_n, "checks": {}}
    diagnostics = {}
    ok = True
    if "period2" in config.checks:
        value_diffs, move_diffs = [], []
        tied, tied_ok = 0, True
        for s in (0, 1):
            moves, values = period2_solve(params, cost, scan, s)
            for p, closed_move, closed_value in zip(scan.tolist(), moves.tolist(), values.tolist()):
                res = oracle_mod.brute_force_one_step(
                    lambda q: stage_payoff(s, q, params.H) - evaluate_cost(cost, q - p),
                    ogrid,
                )
                value_diffs.append(abs(res.value - closed_value))
                if res.maximizers > 1:
                    tied += 1
                    # The oracle's lowest-index pick is one maximizer of several: the
                    # closed-form move must be one too, scored from the primitives.
                    score = stage_payoff(s, closed_move, params.H) - evaluate_cost(cost, closed_move - p)
                    tied_ok = tied_ok and closed_move in ogrid.points and bool(score == res.value)
                else:
                    move_diffs.append(abs(res.argmax - closed_move))
        # np.max, unlike max(), keeps a NaN difference, which then fails the check.
        worst_value = float(np.max(value_diffs, initial=0.0))
        worst_move = float(np.max(move_diffs, initial=0.0))
        passed = worst_value <= 1e-12 and worst_move <= ogrid.step + 1e-12 and tied_ok
        # Scan points checked by membership, not by max_argmax_diff.
        diagnostics["period2_tied_points"] = tied
        report["checks"]["period2"] = {
            "max_value_diff": worst_value,
            "max_argmax_diff": worst_move,
            "tolerance": 1e-12,
            "passed": passed,
        }
        ok = ok and passed
    if "period1" in config.checks:
        tables = oracle_mod.period2_response_tables(params, cost, ogrid)
        diffs = []
        pull_ok = True
        for s in (0, 1):
            sol = period1_solve(params, cost, scan, s)
            res = oracle_mod.brute_force_two_period_single(params, cost, scan, s, ogrid, tables)
            diffs.append(np.abs(res.value - sol.value).max())
            pull_ok = pull_ok and bool(np.all(np.abs(sol.p_next - 0.5) <= np.abs(scan - 0.5) + 1e-15))
        # np.max, unlike max(), keeps a NaN difference, which then fails the check.
        worst_value = float(np.max(diffs))
        passed = worst_value <= tol_period1 and pull_ok
        report["checks"]["period1"] = {
            "max_value_diff": worst_value,
            "pull_holds": pull_ok,
            "tolerance": tol_period1,
            "passed": passed,
        }
        ok = ok and passed
    if "stackelberg" in config.checks:
        tables = oracle_mod.rival_response_tables(params, cost, ogrid)
        diffs = []
        for s1 in (0, 1):
            sol = stackelberg_solve(params, cost, scan, s1)
            res = oracle_mod.brute_force_stackelberg(params, cost, scan, s1, ogrid, tables)
            diffs.append(np.abs(res.value - sol.value).max())
        worst_value = float(np.max(diffs))
        passed = worst_value <= tol_stackelberg
        report["checks"]["stackelberg"] = {
            "max_value_diff": worst_value,
            "tolerance": tol_stackelberg,
            "passed": passed,
        }
        ok = ok and passed
    elapsed = time.perf_counter() - start
    report["passed"] = ok
    _write_json(out_dir / "oracle_check.json", report)
    diagnostics["wall_time_s"] = elapsed
    return _finish(config, out_dir, diagnostics, ["oracle_check.json"], EXIT_OK if ok else EXIT_CHECK_FAILED)


_RUNNERS = {
    "solve-single": _run_solve_single,
    "solve-single2p": _run_solve_single2p,
    "solve-stackelberg": _run_solve_stackelberg,
    "solve-mpe": _run_solve_mpe,
    "sweep": _run_sweep,
    "oracle-check": _run_oracle_check,
}


def run_config(config: ExperimentConfig, out_dir=None) -> RunResult:
    """Validate and execute a config, writing artifacts under out_dir."""
    config = validate(config)
    target = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    target.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.experiment](config, target)
