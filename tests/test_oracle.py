import tracemalloc

import numpy as np
import pytest

import polarsolve as ps
from polarsolve import oracle
from polarsolve.model import evaluate_cost, implemented_policy, stage_payoff
from polarsolve.oracle import period2_response_tables, rival_response_tables

PARAMS = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
QUAD10 = ps.CostSpec.quadratic(10.0)
COSTS = [QUAD10, ps.CostSpec.quadratic(0.0), ps.CostSpec.from_function(lambda x: 3.0 * x * x + 5.0 * x**4)]
COST_IDS = ["quadratic", "zero", "custom"]


def test_one_step_quadratic_peak():
    grid = ps.build_grid(10001)
    res = ps.brute_force_one_step(lambda q: -((q - 0.3) ** 2), grid)
    assert res.argmax == pytest.approx(0.3, abs=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_one_step_stage_objective():
    grid = ps.build_grid(10001)
    res = ps.brute_force_one_step(
        lambda q: stage_payoff(1, q, 1.0) - 10.0 * (q - 0.4) ** 2, grid
    )
    assert res.argmax == 0.5
    assert res.value == pytest.approx(0.9, abs=1e-12)


def test_one_step_constant_ties_to_lowest_index():
    grid = ps.build_grid(101)
    res = ps.brute_force_one_step(lambda q: np.ones_like(q), grid)
    assert res.argmax == 0.0


def test_two_period_oracle_worked_example():
    tables = period2_response_tables(PARAMS, QUAD10, ps.build_grid(2001))
    res = ps.brute_force_two_period_single(PARAMS, QUAD10, 0.3, 0, tables)
    assert abs(res.value - 1.7758620689655173) <= 2e-4
    assert abs(res.argmax - 0.525 / 1.45) <= 0.001


def test_two_period_oracle_median_start():
    tables = period2_response_tables(PARAMS, QUAD10, ps.build_grid(2001))
    res = ps.brute_force_two_period_single(PARAMS, QUAD10, 0.5, 1, tables)
    assert res.value == pytest.approx(1.9, abs=1e-12)
    assert res.argmax == 0.5


def test_two_period_oracle_prohibitive_cost():
    grid = ps.build_grid(2001)
    cost = ps.CostSpec.quadratic(1e8)
    tables = period2_response_tables(PARAMS, cost, grid)
    for p0, s1 in ((0.25, 1), (0.7, 0)):
        res = ps.brute_force_two_period_single(PARAMS, cost, p0, s1, tables)
        stay = float(
            stage_payoff(s1, p0, 1.0)
            + 0.9 * (0.5 * stage_payoff(1, p0, 1.0) + 0.5 * stage_payoff(0, p0, 1.0))
        )
        assert abs(res.argmax - p0) <= grid.step
        assert res.value == pytest.approx(stay, abs=1e-6)


def test_stackelberg_oracle_worked_example():
    rivals = rival_response_tables(PARAMS, period2_response_tables(PARAMS, QUAD10, ps.build_grid(2001)))
    res = ps.brute_force_stackelberg(PARAMS, QUAD10, 0.35, 0, rivals)
    assert abs(res.value - 1.1736832980505139) <= 2e-3
    assert abs(res.argmax - (0.5 - np.sqrt(0.1))) <= 0.001


def test_stackelberg_oracle_protected_inaction():
    grid = ps.build_grid(2001)
    rivals = rival_response_tables(PARAMS, period2_response_tables(PARAMS, QUAD10, grid))
    res = ps.brute_force_stackelberg(PARAMS, QUAD10, 0.9, 1, rivals)
    assert res.value == pytest.approx(1.45, abs=1e-9)
    assert abs(res.argmax - 0.9) <= grid.step


def test_stackelberg_oracle_prohibitive_cost():
    grid = ps.build_grid(2001)
    cost = ps.CostSpec.quadratic(1e6)
    rivals = rival_response_tables(PARAMS, period2_response_tables(PARAMS, cost, grid))
    res = ps.brute_force_stackelberg(PARAMS, cost, 0.37, 0, rivals)
    assert abs(res.argmax - 0.37) <= grid.step


def test_doubling_resolution_tightens_argmax_bound():
    # the worst-case argmax error is half a grid step, so doubling the
    # resolution halves the guarantee; check the bound at several starts
    for n in (1001, 2001, 4001):
        grid = ps.build_grid(n)
        tables = period2_response_tables(PARAMS, QUAD10, grid)
        for p0 in (0.17, 0.3, 0.41):
            target = ps.interior_minimizer_B(PARAMS, QUAD10, p0)
            closed = ps.period1_solve(PARAMS, QUAD10, p0, 0)
            res = ps.brute_force_two_period_single(PARAMS, QUAD10, p0, 0, tables)
            assert res.argmax == target or abs(res.argmax - target) <= grid.step + 1e-12
            # value gap bounded by the local cost slope times the step
            slope = 2.0 * 10.0 * 1.7  # crude bound on |d objective/dq|
            assert closed.value - res.value <= slope * grid.step


def test_oracle_value_never_exceeds_closed_form():
    # the oracle maximizes over a subset of [0, 1], so it can only fall short
    grid = ps.build_grid(2001)
    tables = period2_response_tables(PARAMS, QUAD10, grid)
    for s in (0, 1):
        for p in np.linspace(0.0, 1.0, 41):
            p = float(p)
            closed = ps.period1_solve(PARAMS, QUAD10, p, s).value
            res = ps.brute_force_two_period_single(PARAMS, QUAD10, p, s, tables)
            assert res.value <= closed + 1e-12


def whole_matrix_tables(params, cost, grid):
    """Both response tables from one n x n cost matrix: the oracle before it worked in blocks."""
    pts = grid.points
    costs = evaluate_cost(cost, pts[:, None] - pts[None, :])  # rows: p2 candidates, cols: p1
    best = [(stage_payoff(s2, pts, params.H)[:, None] - costs).max(axis=0) for s2 in (0, 1)]
    expected = np.zeros(grid.n)
    for s2 in (0, 1):
        pref = 1 - s2
        follower_stage = params.H * (implemented_policy(pts, pref) == pref)
        landed = pts[(follower_stage[:, None] - costs).argmax(axis=0)]
        prob = params.pi if s2 == 1 else 1.0 - params.pi
        expected = expected + prob * (params.H * (implemented_policy(landed, pref) == s2))
    return best, expected


@pytest.mark.parametrize("cost", COSTS, ids=COST_IDS)
def test_blocked_tables_equal_whole_matrix_bit_for_bit(cost):
    grid = ps.build_grid(1001)
    rows = oracle._BLOCK_BYTES // (8 * grid.n)
    assert 1 < rows < grid.n and grid.n % rows != 0  # several blocks, the last one short
    params = ps.ModelParams(pi=0.7, beta=0.9, H=1.0)
    best, expected = whole_matrix_tables(params, cost, grid)
    tables = period2_response_tables(params, cost, grid)
    assert tables.best0.tobytes() == best[0].tobytes()
    assert tables.best1.tobytes() == best[1].tobytes()
    assert rival_response_tables(params, tables).leader_continuation.tobytes() == expected.tobytes()


def per_point_brute_force(params, cost, p0, s1, grid, continuation):
    """The two-period brute force as it was before it took arrays: one starting point per call."""
    pts = grid.points
    values = stage_payoff(s1, pts, params.H) - evaluate_cost(cost, pts - p0) + params.beta * continuation
    idx = int(np.argmax(values))
    return float(pts[idx]), float(values[idx])


@pytest.mark.parametrize("leader", [False, True], ids=["single", "stackelberg"])
@pytest.mark.parametrize("cost", COSTS, ids=COST_IDS)
def test_brute_force_over_a_scan_equals_the_per_point_loop(leader, cost, monkeypatch):
    grid = ps.build_grid(401)
    params = ps.ModelParams(pi=0.7, beta=0.9, H=1.0)
    tables = period2_response_tables(params, cost, grid)
    if leader:
        tables = rival_response_tables(params, tables)
        continuation = tables.leader_continuation
        brute_force = ps.brute_force_stackelberg
    else:
        continuation = params.pi * tables.best1 + (1.0 - params.pi) * tables.best0
        brute_force = ps.brute_force_two_period_single
    scan = np.concatenate([grid.points[::8], [0.123, 0.5, 0.987]]).reshape(2, -1)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3 * 8 * grid.n)  # several blocks of 3, the last one short
    for s1 in (0, 1):
        res = brute_force(params, cost, scan, s1, tables)
        assert res.argmax.shape == res.value.shape == scan.shape
        got = list(zip(res.argmax.ravel().tolist(), res.value.ravel().tolist()))
        assert got == [per_point_brute_force(params, cost, p0, s1, grid, continuation) for p0 in scan.ravel()]
        # A float in is a 0-d array: 0-d arrays out, bit-equal to its entry in the array call.
        one = brute_force(params, cost, float(scan[0, 0]), s1, tables)
        assert isinstance(one.argmax, np.ndarray) and isinstance(one.value, np.ndarray)
        assert one.argmax.shape == one.value.shape == ()
        assert (one.argmax.tobytes(), one.value.tobytes()) == (res.argmax[0, 0].tobytes(), res.value[0, 0].tobytes())


def test_response_tables_hold_no_n_by_n_array():
    grid = ps.build_grid(2001)
    limit = 8 * grid.n * grid.n // 2  # half of one n x n float64 array, 16 MB
    tracemalloc.start()
    try:
        rival_response_tables(PARAMS, period2_response_tables(PARAMS, QUAD10, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("brute_force", [ps.brute_force_two_period_single, ps.brute_force_stackelberg])
def test_brute_force_over_a_scan_holds_no_scan_by_n_array(brute_force):
    grid = ps.build_grid(2001)
    scan = grid.points.copy()
    limit = 8 * scan.size * grid.n // 2  # half of one scan x n float64 array, 16 MB
    tracemalloc.start()
    try:
        tables = period2_response_tables(PARAMS, QUAD10, grid)
        if brute_force is ps.brute_force_stackelberg:
            tables = rival_response_tables(PARAMS, tables)
        brute_force(PARAMS, QUAD10, scan, 0, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def whole_matrix_replies(params, cost, grid):
    """Each preference's lowest maximizing p2 per p1, from one n x n cost matrix."""
    pts = grid.points
    costs = evaluate_cost(cost, pts[:, None] - pts[None, :])  # rows: p2 candidates, cols: p1
    return [pts[(stage_payoff(s2, pts, params.H)[:, None] - costs).argmax(axis=0)] for s2 in (0, 1)]


ORACLE_COSTS = [QUAD10, ps.CostSpec.quadratic(0.0), COSTS[2]]


@pytest.mark.parametrize("cost", ORACLE_COSTS, ids=["k10", "k0", "custom"])
def test_rival_tables_from_shared_period2_tables_equal_their_own_bit_for_bit(cost, monkeypatch):
    grid = ps.build_grid(401)
    params = ps.ModelParams(pi=0.7, beta=0.9, H=1.0)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 7 * 8 * grid.n)  # several blocks of 7, the last one short
    tables = period2_response_tables(params, cost, grid)
    replies = whole_matrix_replies(params, cost, grid)
    assert tables.reply0.tobytes() == replies[0].tobytes()
    assert tables.reply1.tobytes() == replies[1].tobytes()
    _, expected = whole_matrix_tables(params, cost, grid)
    assert rival_response_tables(params, tables).leader_continuation.tobytes() == expected.tobytes()


@pytest.mark.parametrize("leader", [False, True], ids=["single", "stackelberg"])
def test_brute_forces_scan_the_grid_of_the_tables_they_are_given(leader):
    grid, cost = ps.build_grid(201), QUAD10
    params = ps.ModelParams(pi=0.7, beta=0.9, H=1.0)
    tables = period2_response_tables(params, cost, grid)
    best, expected = whole_matrix_tables(params, cost, grid)
    if leader:
        tables, continuation, brute_force = rival_response_tables(params, tables), expected, ps.brute_force_stackelberg
    else:
        continuation = params.pi * best[1] + (1.0 - params.pi) * best[0]
        brute_force = ps.brute_force_two_period_single
    scan = np.concatenate([np.linspace(0.0, 1.0, 37), [0.123, 0.4987, 0.987]])  # mostly off the grid
    pts = grid.points
    for s1 in (0, 1):
        res = brute_force(params, cost, scan, s1, tables)
        values = stage_payoff(s1, pts, params.H) - evaluate_cost(cost, pts[None, :] - scan[:, None])
        values = values + params.beta * continuation
        assert res.argmax.tobytes() == pts[values.argmax(axis=1)].tobytes()
        assert res.value.tobytes() == values.max(axis=1).tobytes()


def test_oracle_check_enumerates_the_period2_problem_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return period2_response_tables(*args)

    monkeypatch.setattr(oracle, "period2_response_tables", counted)
    config = ps.ExperimentConfig(
        experiment="oracle-check", scan_n=21, oracle_n=201, checks=("period2", "period1", "stackelberg")
    )
    result = ps.run_config(config, tmp_path)
    assert result.exit_code == 0 and len(calls) == 1


def per_point_period2(params, cost, scan, s2, grid):
    """The period2 check's oracle as it was: one brute_force_one_step per scan point."""
    return [
        ps.brute_force_one_step(lambda q: stage_payoff(s2, q, params.H) - evaluate_cost(cost, q - p), grid)
        for p in scan.tolist()
    ]


@pytest.mark.parametrize("cost", ORACLE_COSTS[:2], ids=["k10", "k0"])
def test_blocked_period2_brute_force_equals_the_per_point_loop(cost, monkeypatch):
    grid = ps.build_grid(401)
    scan = np.concatenate([grid.points[::8], [0.123, 0.5, 0.987]])
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3 * 8 * grid.n)  # several blocks of 3, the last one short
    for s2 in (0, 1):
        res = ps.brute_force_period2(PARAMS, cost, scan, s2, grid)
        got = list(zip(res.argmax.tolist(), res.value.tolist(), res.maximizers.tolist()))
        want = [(r.argmax, r.value, r.maximizers) for r in per_point_period2(PARAMS, cost, scan, s2, grid)]
        assert got == want
        if cost.k == 0.0:
            assert min(r[2] for r in got) > 1  # at zero cost every scan point ties
        # A float in is a 0-d array: 0-d arrays out, bit-equal to its entry in the array call.
        one = ps.brute_force_period2(PARAMS, cost, float(scan[0]), s2, grid)
        assert all(isinstance(x, np.ndarray) and x.shape == () for x in (one.argmax, one.value, one.maximizers))
        got_one = (one.argmax.tobytes(), one.value.tobytes(), one.maximizers.tobytes())
        assert got_one == (res.argmax[0].tobytes(), res.value[0].tobytes(), res.maximizers[0].tobytes())


def test_blocked_period2_brute_force_holds_no_scan_by_n_array():
    grid = ps.build_grid(2001)
    scan = grid.points.copy()
    limit = 8 * scan.size * grid.n // 2  # half of one scan x n float64 array, 16 MB
    tracemalloc.start()
    try:
        ps.brute_force_period2(PARAMS, QUAD10, scan, 0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
