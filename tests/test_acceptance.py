"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts at the stated tolerance. Budgets are wall-clock seconds.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

import polarsolve as ps
from polarsolve.config import load_config
from polarsolve.model import evaluate_cost, stage_payoff
from polarsolve.oracle import period2_response_tables, rival_response_tables
from polarsolve.runner import read_table_csv, run_config
from polarsolve.single_elite import ValueTable, bellman_apply

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"

SCAN_GRID = ps.build_grid(201)
ORACLE_GRID = ps.build_grid(2001)

_SINGLE_CACHE: dict = {}


def solved_single(k: float, H: float = 1.0, beta: float = 0.9) -> ps.InfiniteHorizonSolution:
    key = (k, H, beta)
    if key not in _SINGLE_CACHE:
        params = ps.ModelParams(pi=0.5, beta=beta, H=H)
        grid = ps.build_grid(1001)
        _SINGLE_CACHE[key] = ps.solve_infinite(params, ps.CostSpec.quadratic(k), grid)
    return _SINGLE_CACHE[key]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_period2_exactness():
    start = time.perf_counter()
    worst_value = worst_move = 0.0
    for k, H in itertools.product((0.5, 10.0, 200.0), (0.5, 1.0, 2.0)):
        params = ps.ModelParams(pi=0.5, beta=0.9, H=H)
        cost = ps.CostSpec.quadratic(k)
        for s in (0, 1):
            for p in SCAN_GRID.points:
                p = float(p)
                move, value = ps.period2_solve(params, cost, p, s)
                res = ps.brute_force_one_step(
                    lambda q: stage_payoff(s, q, H) - evaluate_cost(cost, q - p),
                    ORACLE_GRID,
                )
                worst_value = max(worst_value, abs(res.value - value))
                worst_move = max(worst_move, abs(res.argmax - move))
    elapsed = time.perf_counter() - start
    ok = worst_value <= 1e-12 and worst_move <= 5e-4 and elapsed < 5.0
    report(
        "criterion 1 (last-period policy exactness)",
        ok,
        f"max value diff {worst_value:.2e} (tol 1e-12), max move diff {worst_move:.2e} "
        f"(tol 5e-4), {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_2_period1_candidates_and_pull():
    start = time.perf_counter()
    worst_value = 0.0
    pull_ok = True
    for k, H in itertools.product((0.5, 10.0, 200.0), (0.5, 1.0, 2.0)):
        params = ps.ModelParams(pi=0.5, beta=0.9, H=H)
        cost = ps.CostSpec.quadratic(k)
        tables = period2_response_tables(params, cost, ORACLE_GRID)
        for s in (0, 1):
            for p in SCAN_GRID.points:
                p = float(p)
                sol = ps.period1_solve(params, cost, p, s)
                res = ps.brute_force_two_period_single(params, cost, p, s, tables)
                worst_value = max(worst_value, abs(res.value - sol.value))
                pull_ok = pull_ok and abs(sol.p_next - 0.5) <= abs(p - 0.5) + 1e-15
    elapsed = time.perf_counter() - start
    ok = worst_value <= 2e-4 and pull_ok and elapsed < 30.0
    report(
        "criterion 2 (first-period candidate optimality + pull)",
        ok,
        f"max value diff {worst_value:.2e} (tol 2e-4), pull holds {pull_ok}, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_infinite_horizon_properties():
    start = time.perf_counter()
    failures = []
    for beta, H, k in itertools.product((0.5, 0.9, 0.95), (0.5, 1.0, 2.0), (0.5, 10.0, 200.0)):
        sol = solved_single(k, H, beta)
        label = f"beta={beta} H={H} k={k}"
        if not sol.converged:
            failures.append(f"{label}: no convergence")
            continue
        violations = ps.verify_polarization_pull(sol.value, sol.policy)
        if violations:
            failures.append(f"{label}: {len(violations)} property violations, first {violations[0]}")
        mid = sol.value.grid.mid
        target = H / (1.0 - beta)
        if abs(sol.value.v0[mid] - target) > 1e-6 or abs(sol.value.v1[mid] - target) > 1e-6:
            failures.append(f"{label}: median value off {sol.value.v0[mid] - target:.2e}")
        if sol.policy.sigma0[mid] != 0.5 or sol.policy.sigma1[mid] != 0.5:
            failures.append(f"{label}: median not absorbing")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    report(
        "criterion 3 (infinite-horizon value/policy properties, 27 combos)",
        ok,
        f"failures {failures or 'none'}, {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_4_contraction_and_discounting():
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    cost = ps.CostSpec.quadratic(10.0)
    grid = ps.build_grid(201)
    rng = np.random.default_rng(20240808)
    worst_contraction = -math.inf
    worst_discount = 0.0
    for _ in range(100):
        v = ValueTable(grid=grid, v0=rng.uniform(0, 10, grid.n), v1=rng.uniform(0, 10, grid.n))
        w = ValueTable(grid=grid, v0=rng.uniform(0, 10, grid.n), v1=rng.uniform(0, 10, grid.n))
        tv = bellman_apply(params, cost, grid, v)
        tw = bellman_apply(params, cost, grid, w)
        gap_after = max(np.abs(tv.v0 - tw.v0).max(), np.abs(tv.v1 - tw.v1).max())
        gap_before = max(np.abs(v.v0 - w.v0).max(), np.abs(v.v1 - w.v1).max())
        worst_contraction = max(worst_contraction, gap_after - params.beta * gap_before)
        a = float(rng.uniform(-5, 5))
        ts = bellman_apply(params, cost, grid, ValueTable(grid=grid, v0=v.v0 + a, v1=v.v1 + a))
        worst_discount = max(
            worst_discount,
            float(np.abs(ts.v0 - (tv.v0 + params.beta * a)).max()),
            float(np.abs(ts.v1 - (tv.v1 + params.beta * a)).max()),
        )
    ok = worst_contraction <= 1e-12 and worst_discount <= 1e-12
    report(
        "criterion 4 (contraction and discounting, 100 random tables)",
        ok,
        f"contraction slack {worst_contraction:.2e}, discounting error {worst_discount:.2e} (tol 1e-12)",
    )


def test_criterion_5_costlier_technology_shrinks_moves():
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    grid = ps.build_grid(1001)
    fixed_violations = {}
    for k in (0.5, 10.0):
        rep = ps.compare_cost_technologies(
            params, ps.CostSpec.quadratic(k), ps.CostSpec.quadratic(2 * k), grid, mode="fixed"
        )
        fixed_violations[k] = len(rep.violations)
    measures = {k: ps.intervention_measure(solved_single(k).policy) for k in (0.5, 10.0, 200.0)}
    shrinking = all(
        measures[hi][s] <= measures[lo][s] + 1e-12
        for lo, hi in ((0.5, 10.0), (10.0, 200.0))
        for s in (0, 1)
    )
    ok = all(v == 0 for v in fixed_violations.values()) and shrinking
    report(
        "criterion 5 (costlier technology shrinks moves)",
        ok,
        f"fixed-continuation violations {fixed_violations}, intervention measures "
        f"{ {k: round(m[0], 4) for k, m in measures.items()} } weakly shrinking {shrinking}",
    )


def test_criterion_6_stackelberg_exactness():
    start = time.perf_counter()
    worst_value = 0.0
    for pi in (0.3, 0.5, 0.7):
        params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
        cost = ps.CostSpec.quadratic(10.0)
        tables = rival_response_tables(params, period2_response_tables(params, cost, ORACLE_GRID))
        for s1 in (0, 1):
            for p0 in SCAN_GRID.points:
                p0 = float(p0)
                sol = ps.stackelberg_solve(params, cost, p0, s1)
                res = ps.brute_force_stackelberg(params, cost, p0, s1, tables)
                worst_value = max(worst_value, abs(res.value - sol.value))
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    anchor = ps.stackelberg_solve(params, ps.CostSpec.quadratic(10.0), 0.35, 0)
    left = 0.5 - math.sqrt(0.1)
    anchor_value = 1.0 - 10.0 * (0.35 - left) ** 2 + 0.45
    anchor_ok = (
        abs(anchor.chosen - 0.183772) <= 1e-6
        and abs(anchor.value - anchor_value) <= 1e-12
        and abs(anchor.value - 1.173683) <= 1e-6
    )
    elapsed = time.perf_counter() - start
    ok = worst_value <= 2e-3 and anchor_ok and elapsed < 60.0
    report(
        "criterion 6 (leader-follower solve exactness)",
        ok,
        f"max value diff {worst_value:.2e} (tol 2e-3), worked anchor ok {anchor_ok}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_mpe_anchors_mirror_and_deviation():
    grid = ps.build_grid(501)
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    failures = []

    start = time.perf_counter()
    free = ps.mpe_solve(params, ps.CostSpec.quadratic(0.0), grid, horizon=600, residual_tol=1e-10)
    timed_solve = time.perf_counter() - start
    v_star = 1.0 / (1.0 - 0.81)
    for name, table, target in (
        ("vA0", free.vA0, v_star), ("vA1", free.vA1, v_star),
        ("uA", free.uA, 0.9 * v_star),
        ("vB0", free.vB0, v_star), ("vB1", free.vB1, v_star),
        ("uB", free.uB, 0.9 * v_star),
    ):
        err = np.abs(table - target).max()
        if err > 1e-8:
            failures.append(f"free-move anchor {name} off by {err:.2e}")
    if not free.converged:
        failures.append("free-move solve did not reach stationarity")
    elif (gain := ps.check_no_deviation(params, ps.CostSpec.quadratic(0.0), free)) > 1e-8:
        failures.append(f"free-move deviation gain {gain:.2e}")

    blocked = ps.mpe_solve(params, ps.CostSpec.quadratic(1e7), grid, horizon=600, residual_tol=1e-10)
    for sigma in (blocked.sigmaA0, blocked.sigmaA1, blocked.sigmaB0, blocked.sigmaB1):
        if not np.array_equal(sigma, grid.points):
            failures.append("dominant-cost policies not identity")
            break
    if blocked.converged and (gain := ps.check_no_deviation(params, ps.CostSpec.quadratic(1e7), blocked)) > 1e-8:
        failures.append(f"dominant-cost deviation gain {gain:.2e}")

    for pi in (0.3, 0.5):
        p = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
        sol = ps.mpe_solve(p, ps.CostSpec.quadratic(10.0), grid, horizon=600, residual_tol=1e-10)
        mirror_ok = (
            np.array_equal(sol.vB0, sol.vA0[::-1])
            and np.array_equal(sol.vB1, sol.vA1[::-1])
            and np.array_equal(sol.uB, sol.uA[::-1])
            and np.array_equal(sol.sigmaB0, 1.0 - sol.sigmaA0[::-1])
            and np.array_equal(sol.sigmaB1, 1.0 - sol.sigmaA1[::-1])
        )
        if not mirror_ok:
            failures.append(f"mirror identities broken at pi={pi}")
        if sol.converged and (gain := ps.check_no_deviation(p, ps.CostSpec.quadratic(10.0), sol)) > 1e-8:
            failures.append(f"pi={pi} deviation gain {gain:.2e}")

    ok = not failures and timed_solve < 120.0
    report(
        "criterion 7 (equilibrium anchors, mirror, no-deviation)",
        ok,
        f"failures {failures or 'none'}, n=501 T=600 solve {timed_solve:.1f}s (budget 120s)",
    )


def test_criterion_8_figure_shapes():
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    grid = ps.build_grid(501)
    pts = grid.points
    failures = []

    high = ps.mpe_solve(params, ps.CostSpec.quadratic(200.0), grid)
    inaction = np.ones(grid.n, dtype=bool)
    for sigma in (high.sigmaA0, high.sigmaA1, high.sigmaB0, high.sigmaB1):
        inaction &= sigma == pts
    if not ((inaction & (pts < 0.5)).any() and (inaction & (pts > 0.5)).any()):
        failures.append("high cost: no two-sided absorbing inaction region")

    low = ps.mpe_solve(params, ps.CostSpec.quadratic(0.5), grid)
    moves = {
        ("A", 0): low.sigmaA0, ("A", 1): low.sigmaA1,
        ("B", 0): low.sigmaB0, ("B", 1): low.sigmaB1,
    }
    for s, first in itertools.product((0, 1), ("A", "B")):
        second = "B" if first == "A" else "A"
        p1 = moves[(first, s)]
        i1 = np.rint(p1 * (grid.n - 1)).astype(int)
        p2 = moves[(second, s)][i1]
        if not np.all((p1 == 0.5) | (p2 == 0.5)):
            failures.append(f"low cost: state {s}, mover order {first}{second} misses 1/2")

    single = solved_single(10.0)
    mid = single.value.grid.mid
    for s in (0, 1):
        v = single.value.values(s)
        if not (v[mid] >= v.max() - 1e-12 and v[mid] > v[0] and v[mid] > v[-1]):
            failures.append(f"single elite: value not an inverted U for s={s}")

    ok = not failures
    report("criterion 8 (qualitative figure shapes)", ok, f"failures {failures or 'none'}")


def test_criterion_9_preset_determinism_and_io(tmp_path):
    start = time.perf_counter()
    failures = []
    presets = sorted(PRESET_DIR.glob("*.cfg"))
    assert presets, "no presets shipped"
    for preset in presets:
        config = load_config(preset)
        first = run_config(config, tmp_path / preset.stem / "run1")
        second = run_config(config, tmp_path / preset.stem / "run2")
        if first.exit_code != 0 or second.exit_code != 0:
            failures.append(f"{preset.name}: exit codes {first.exit_code}/{second.exit_code}")
            continue
        for root, other in ((first.out_dir, second.out_dir),):
            files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
            for rel in files:
                a, b = root / rel, other / rel
                if rel.name == "manifest.json":
                    da = json.loads(a.read_text()); da.pop("diagnostics")
                    db = json.loads(b.read_text()); db.pop("diagnostics")
                    if da != db:
                        failures.append(f"{preset.name}: manifest {rel} differs beyond diagnostics")
                elif a.read_bytes() != b.read_bytes():
                    failures.append(f"{preset.name}: {rel} not byte-identical")
        for csv in list(first.out_dir.rglob("value.csv")) + list(first.out_dir.rglob("policy.csv")):
            cols = read_table_csv(csv)
            header = csv.read_text(encoding="utf-8").splitlines()[0].split(",")
            rebuilt = [",".join(header)]
            for row in zip(*(cols[name] for name in header)):
                rebuilt.append(",".join(repr(float(x)) for x in row))
            if "\n".join(rebuilt) + "\n" != csv.read_text(encoding="utf-8"):
                failures.append(f"{preset.name}: {csv.name} does not round-trip exactly")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 900.0
    report(
        "criterion 9 (preset determinism and I/O)",
        ok,
        f"{len(presets)} presets x2 runs, failures {failures or 'none'}, "
        f"{elapsed:.1f}s (budget 900s)",
    )
