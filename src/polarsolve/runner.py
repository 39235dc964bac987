"""Experiment execution: solves, sweeps, CSV/JSON artifacts, run manifests.

Outputs are deterministic: identical configs produce byte-identical CSVs
and JSON artifacts. Floats are written with Python's shortest exact
representation, so parsing an emitted file recovers the in-memory table
bit for bit. Each distinct float64 bit pattern of a file is spelled once
(of a two-period run's three files, once for all three), and each file
is joined once from its fixed fragments and the spelled cells. Every
writer returns the SHA-256 of the bytes it wrote, which the manifest
lists; no artifact is read back. The only nondeterministic values (the
seconds of each phase and the environment) live inside the manifest's
diagnostics block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import oracle as oracle_mod
from .config import ExperimentConfig, check_field, config_as_dict, sweep_combinations, validate
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


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64


class _Words:
    """Spellings of the float64 values of some arrays, each distinct bit pattern (-0.0 apart from 0.0) once.

    Called with an array of those values, it gives their repr spellings,
    as a CSV holds them; json gives json.dumps's, which differ only at a
    non-finite value.
    """

    def __init__(self, arrays: list):
        # return_inverse keeps np.unique on its argsort path, as kernel.greedy
        # takes it: the plain sort path's first call raised resident memory
        # by about 1.5 MB, the argsort path's by 0.4 MB (numpy 2.4).
        self._bits = np.unique(np.concatenate([np.empty(0), *arrays]).view(np.int64), return_inverse=True)[0]
        values = self._bits.view(np.float64)
        self._words = self._json = np.array(list(map(repr, values.tolist())), dtype=object)
        odd = ~np.isfinite(values)
        if odd.any():
            self._json = self._words.copy()
            self._json[odd] = list(map(json.dumps, values[odd].tolist()))

    def __call__(self, column: np.ndarray) -> np.ndarray:
        return self._words[np.searchsorted(self._bits, column.view(np.int64))]

    def json(self, column: np.ndarray) -> np.ndarray:
        return self._json[np.searchsorted(self._bits, column.view(np.int64))]


def _spelled_columns(columns: list, spell, floats) -> list:
    """Every column's values as strings, in order: floats(column) of a float64 array, spell(list) of any other."""
    return [floats(c) if _is_float(c) else spell(c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]


def _joined(head: str, cells: list, after: list, last: str) -> str:
    """head, then row after row of cells, each cells[j][i] followed by after[j]; last ends the final row.

    One join lays out a whole table from its fixed fragments.
    """
    parts = np.empty((len(cells[0]), 2 * len(cells)), dtype=object)
    for j, column in enumerate(cells):
        parts[:, 2 * j] = column
        parts[:, 2 * j + 1] = after[j]
    parts[-1, -1] = last
    return head + "".join(parts.ravel().tolist())


def _write(path: Path, text: str) -> str:
    """Write text as UTF-8 and return the SHA-256 of the bytes written.

    The bytes go to a sibling file that is renamed to path once whole, so
    a write cut short leaves no file under path (nor the sibling).
    """
    data = text.encode("utf-8")
    partial = path.with_name(path.name + ".partial")
    try:
        partial.write_bytes(data)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], words=None) -> str:
    """words, a _Words, spells the float64 columns; by default one of this file's floats."""
    words = _Words(list(filter(_is_float, columns))) if words is None else words
    # repr of a Python float is its shortest round-trip spelling.
    cells = _spelled_columns(columns, lambda values: list(map(repr, values)), words)
    after = [","] * (len(columns) - 1) + ["\n"]
    return _write(path, _joined(",".join(header) + "\n", cells, after, "\n"))


def _policy_table(tables) -> tuple:
    """(header, columns) of the policy CSV of single-elite or two-elite tables."""
    if isinstance(tables, MpeSolution):
        return MPE_POLICY_HEADER, [tables.grid.points, tables.sigmaA0, tables.sigmaA1, tables.sigmaB0, tables.sigmaB1]
    if isinstance(tables, PolicyTable):
        return SINGLE_POLICY_HEADER, [tables.grid.points, tables.sigma0, tables.sigma1]
    raise TypeError(f"cannot emit policy CSV for {type(tables).__name__}")


def _value_table(tables) -> tuple:
    """(header, columns) of the value CSV of single-elite or two-elite tables."""
    if isinstance(tables, MpeSolution):
        columns = [tables.vA0, tables.vA1, tables.uA, tables.vB0, tables.vB1, tables.uB]
        return MPE_VALUE_HEADER, [tables.grid.points, *columns]
    if isinstance(tables, ValueTable):
        return SINGLE_VALUE_HEADER, [tables.grid.points, tables.v0, tables.v1]
    raise TypeError(f"cannot emit value CSV for {type(tables).__name__}")


def emit_policy_csv(tables, path, words=None) -> str:
    """Write a policy CSV (single-elite or two-elite schema) to path; return its SHA-256.

    words, if given, is a _Words that holds every float of the tables.
    """
    return _write_csv(Path(path), *_policy_table(tables), words)


def emit_value_csv(tables, path, words=None) -> str:
    """Write a value CSV (single-elite or two-elite schema) to path; return its SHA-256.

    words, if given, is a _Words that holds every float of the tables.
    """
    return _write_csv(Path(path), *_value_table(tables), words)


def read_table_csv(path) -> dict[str, np.ndarray]:
    """Parse an emitted CSV back into named columns."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


def _write_json(path: Path, data) -> str:
    return _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


class _Phases(dict):
    """Seconds spent solving, checking, and writing and hashing the artifacts (the manifest aside).

    lap(phase) charges the time since the previous lap to phase.
    """

    def __init__(self, *spent: dict):
        """Start timing now, from the sums of the phases spent."""
        super().__init__({key: math.fsum(p[key] for p in spent) for key in ("solve_s", "check_s", "write_s")})
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        mark, self._mark = self._mark, time.perf_counter()
        self[phase] += self._mark - mark


def _env() -> dict:
    """The manifest's record of what ran the solve: the numpy version and the CPU count."""
    return {"numpy": np.__version__, "cpu_count": os.cpu_count()}


def _finish(
    config: ExperimentConfig, out_dir: Path, diagnostics: dict, artifacts: dict, phases: _Phases, exit_code=EXIT_OK
) -> RunResult:
    """Write the manifest over the artifacts (path relative to out_dir -> SHA-256) and wrap the result.

    The manifest is written last: a directory that holds one holds every artifact it lists.
    """
    phases.lap("write_s")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "experiment": config.experiment,
        "config": config_as_dict(config),
        "diagnostics": {**diagnostics, "env": _env(), "phases": dict(phases)},
        "artifacts": [{"path": name, "sha256": digest} for name, digest in artifacts.items()],
    }
    _write_json(out_dir / "manifest.json", manifest)
    return RunResult(exit_code, out_dir, manifest)


def _emit_tables(policy, value, out_dir: Path, words=None) -> dict:
    """Write policy.csv and value.csv; return their digests by name.

    words, a _Words, spells both files; by default one over both tables'
    float columns, so a value the two share, such as a grid point that is
    also a move, is spelled once.
    """
    if words is None:
        words = _Words(list(filter(_is_float, [*_policy_table(policy)[1], *_value_table(value)[1]])))
    return {
        "policy.csv": emit_policy_csv(policy, out_dir / "policy.csv", words),
        "value.csv": emit_value_csv(value, out_dir / "value.csv", words),
    }


def _start(config: ExperimentConfig, n: int):
    """The config's model, a grid of n points, and phases timed from then on."""
    params = ModelParams(pi=config.pi, beta=config.beta, H=config.H)
    return params, CostSpec.quadratic(config.k), build_grid(n), _Phases()


def _run_solve_single(config: ExperimentConfig, out_dir: Path) -> RunResult:
    params, cost, grid, phases = _start(config, config.resolved_grid_n())
    sol = solve_infinite(params, cost, grid, max_iter=config.max_iter)
    phases.lap("solve_s")
    artifacts = _emit_tables(sol.policy, sol.value, out_dir)
    diagnostics = {
        "iterations": sol.iterations,
        "evaluation_sweeps": sol.evaluation_sweeps,
        "residual": sol.residual,
        "converged": sol.converged,
        "min_margin": sol.min_margin,
        "exact_ties": sol.exact_ties,
        "kernel_fallbacks": sol.kernel_fallbacks,
    }
    code = EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE
    return _finish(config, out_dir, diagnostics, artifacts, phases, code)


# Records are built as columns, one per key and point: the solvers' float
# arrays as they are, and lists for the states and provenance strings.
def _candidate_columns(points: np.ndarray, sol) -> list[dict]:
    return [
        {"candidate": e.candidate, "objective": e.objective, "provenance": [e.provenance] * points.size}
        for e in sol.candidates
    ]


def _period1_columns(points: np.ndarray, s: int, sol) -> dict:
    return {
        "p": points,
        "s": [s] * points.size,
        "chosen": sol.p_next,
        "value": sol.value,
        "candidates": _candidate_columns(points, sol),
    }


def _stackelberg_columns(points: np.ndarray, s1: int, sol) -> dict:
    return {
        "p0": points,
        "s1": [s1] * points.size,
        "chosen": sol.chosen,
        "value": sol.value,
        "phi": sol.phi_at_p0,
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


def _leaves(columns: dict) -> list:
    """The value columns of a dict of columns, in the order json.dumps visits them."""
    leaves = []
    for key in sorted(columns):
        if key == "candidates":
            leaves += [slot[field] for slot in columns[key] for field in sorted(slot)]
        else:
            leaves.append(columns[key])
    return leaves


def _float_leaves(states: list[dict]) -> list:
    return [leaf for columns in states for leaf in _leaves(columns) if _is_float(leaf)]


def _records_json(states: list[dict], words=None) -> str:
    """json.dumps(records, indent=2, sort_keys=True) + "\n" for records given as columns.

    states is a list of dicts of columns, whose records follow one another.
    In each, record i maps every key to columns[key][i], except
    "candidates": a list that holds, for each dict of columns in
    columns["candidates"], the dict of their i-th values. json's indenting
    encoder is pure Python and costs more than the solves, so json.dumps
    lays out one record of each dict of columns from placeholders, and the
    file is joined once from those fixed fragments and the spelled values.
    The float64 array columns of all states are spelled by words, a
    _Words, by default one of those columns: each distinct value once.
    """
    fragments, leaves = [], []
    for columns in states:
        layout = {key: "%s" for key in columns}
        layout["candidates"] = [{field: "%s" for field in slot} for slot in columns["candidates"]]
        # A record sits one level deep in the list.
        fragments.append(json.dumps(layout, indent=2, sort_keys=True).replace("\n", "\n  ").split('"%s"'))
        leaves.append(_leaves(columns))
    words = _Words(_float_leaves(states)) if words is None else words
    spelled = iter(_spelled_columns(sum(leaves, []), _spelled, words.json))
    records = []
    for parts, state in zip(fragments, leaves):
        after = parts[1:-1] + [parts[-1] + ",\n  " + parts[0]]
        records.append(_joined(parts[0], [next(spelled) for _ in state], after, parts[-1]))
    return "[\n  " + ",\n  ".join(records) + "\n]\n"


def _run_two_period(config: ExperimentConfig, out_dir: Path, solve, columns) -> RunResult:
    """Solve a two-period problem over the grid, once per state.

    solve(params, cost, points, s) solves at every grid point at once;
    columns(points, s, solution) lays it out as the columns of the points'
    candidates.json records, whose "chosen" and "value" fill the policy
    and value tables.
    """
    params, cost, grid, phases = _start(config, config.resolved_grid_n())
    states = [columns(grid.points, s, solve(params, cost, grid.points, s)) for s in (0, 1)]
    phases.lap("solve_s")
    (sigma0, v0), (sigma1, v1) = ((state["chosen"], state["value"]) for state in states)
    # One spelling of each distinct float serves the three files.
    words = _Words([grid.points, *_float_leaves(states)])
    artifacts = _emit_tables(PolicyTable(grid, sigma0, sigma1), ValueTable(grid, v0, v1), out_dir, words)
    artifacts["candidates.json"] = _write(out_dir / "candidates.json", _records_json(states, words))
    return _finish(config, out_dir, {"points": grid.n}, artifacts, phases)


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
    params, cost, grid, phases = _start(config, config.resolved_grid_n())
    sol = mpe_solve(params, cost, grid, horizon=config.horizon, residual_tol=config.tol)
    phases.lap("solve_s")
    gain = check_no_deviation(params, cost, sol)
    phases.lap("check_s")
    artifacts = _emit_tables(sol, sol, out_dir)
    diagnostics = {
        "horizon_used": sol.horizon_used,
        "residual": sol.residual,
        "stationary": sol.converged,
        "cycle_period": sol.cycle_period,
        "cycle_entered_at": sol.cycle_entered_at,
        "dense_calls": sol.dense_calls,
        "rescored_sources": sol.rescored_sources,
        "kernel_fallbacks": sol.kernel_fallbacks,
        "no_deviation_gain": gain,
    }
    return _finish(config, out_dir, diagnostics, artifacts, phases)


def _run_sweep(config: ExperimentConfig, out_dir: Path) -> RunResult:
    names = [name for name, _ in config.sweep_axes]
    lines = [",".join(["combo"] + names + ["dir", "policy_csv", "value_csv"])]
    artifacts = {"index.csv": ""}  # listed first, hashed once written
    spent = []  # each combination's phases
    worst = EXIT_OK
    for index, (values, solver_config) in enumerate(sweep_combinations(config)):
        result = run_config(solver_config, out_dir / f"combo_{index:03d}")
        rel = result.out_dir.relative_to(out_dir)
        row = [f"{index:03d}", *map(repr, values), str(rel), str(rel / "policy.csv"), str(rel / "value.csv")]
        lines.append(",".join(row))
        # The combination's manifest already holds the digests of the bytes it wrote.
        artifacts.update((str(rel / entry["path"]), entry["sha256"]) for entry in result.manifest["artifacts"])
        spent.append(result.manifest["diagnostics"]["phases"])
        worst = max(worst, result.exit_code)
    phases = _Phases(*spent)  # the combinations' sums; the index write is timed from here
    artifacts["index.csv"] = _write(out_dir / "index.csv", "\n".join(lines) + "\n")
    # One index line per combination, after the header.
    return _finish(config, out_dir, {"combinations": len(lines) - 1}, artifacts, phases, worst)


def _run_oracle_check(config: ExperimentConfig, out_dir: Path) -> RunResult:
    # The check reads the oracle grid alone, not the solver grid of grid_n points.
    params, cost, ogrid, phases = _start(config, config.oracle_n)
    stride = (config.oracle_n - 1) // (config.scan_n - 1)
    scan = ogrid.points[::stride]
    # Grid-snap error in the oracle value scales with its step, so the value
    # tolerances do too; at the default 2001-point oracle they equal the
    # release-gate tolerances (2e-4 and 2e-3).
    tolerances = {"period2": 1e-12, "period1": 0.4 * ogrid.step, "stackelberg": 4.0 * ogrid.step}
    diagnostics, checks = {}, {}

    def per_state(solve, brute_force, oracle_tables):
        """Yield (s, closed-form solution over the scan, oracle result) for s = 0, 1.

        The solve is charged to solve_s; the brute force, and the
        comparison the caller makes before the next state, to check_s.
        """
        for s in (0, 1):
            sol = solve(params, cost, scan, s)
            phases.lap("solve_s")
            yield s, sol, brute_force(params, cost, scan, s, oracle_tables)
            phases.lap("check_s")

    def worst(diffs: list) -> float:
        # np.max, unlike max(), keeps a NaN difference, which then fails the check.
        return float(np.max(np.concatenate(diffs), initial=0.0))

    def enter(check: str, value_diffs: list, holds=True, **rest):
        """Report a check that passes if its worst |closed-form - oracle| value is within tolerance and holds."""
        value_diff = worst(value_diffs)
        passed = value_diff <= tolerances[check] and holds
        checks[check] = {"max_value_diff": value_diff, "tolerance": tolerances[check], **rest, "passed": passed}
        phases.lap("check_s")

    if "period2" in config.checks:
        values, moves, ties, tied_ok = [], [], 0, True
        for s, (move, value), res in per_state(period2_solve, oracle_mod.brute_force_period2, ogrid):
            tie = res.maximizers > 1
            ties += int(np.count_nonzero(tie))
            # The oracle's lowest-index pick is one maximizer of several: the
            # closed-form move must be one too, scored from the primitives.
            score = stage_payoff(s, move[tie], params.H) - evaluate_cost(cost, move[tie] - scan[tie])
            tied_ok = tied_ok and bool(np.all(np.isin(move[tie], ogrid.points) & (score == res.value[tie])))
            values.append(np.abs(res.value - value))
            moves.append(np.abs(res.argmax - move)[~tie])
        # Scan points checked by membership, not by max_argmax_diff.
        diagnostics["period2_tied_points"] = ties
        worst_move = worst(moves)
        enter("period2", values, worst_move <= ogrid.step + 1e-12 and tied_ok, max_argmax_diff=worst_move)
    if "period1" in config.checks or "stackelberg" in config.checks:
        # One enumeration of the period-2 problem serves both checks.
        tables = oracle_mod.period2_response_tables(params, cost, ogrid)
        phases.lap("check_s")
    if "period1" in config.checks:
        values, pull = [], True
        for _, sol, res in per_state(period1_solve, oracle_mod.brute_force_two_period_single, tables):
            values.append(np.abs(res.value - sol.value))
            pull = pull and bool(np.all(np.abs(sol.p_next - 0.5) <= np.abs(scan - 0.5) + 1e-15))
        enter("period1", values, pull, pull_holds=pull)
    if "stackelberg" in config.checks:
        rivals = oracle_mod.rival_response_tables(params, tables)
        phases.lap("check_s")
        states = per_state(stackelberg_solve, oracle_mod.brute_force_stackelberg, rivals)
        enter("stackelberg", [np.abs(res.value - sol.value) for _, sol, res in states])
    passed = all(entry["passed"] for entry in checks.values())
    report = {"scan_n": config.scan_n, "oracle_n": config.oracle_n, "checks": checks, "passed": passed}
    artifacts = {"oracle_check.json": _write_json(out_dir / "oracle_check.json", report)}
    return _finish(config, out_dir, diagnostics, artifacts, phases, EXIT_OK if passed else EXIT_CHECK_FAILED)


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
    target = config.output_dir if out_dir is None else out_dir
    check_field("output_dir", target)  # "" would write into the working directory
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.experiment](config, target)
