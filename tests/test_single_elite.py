import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarsolve as ps
from polarsolve import kernel, single_elite
from polarsolve.model import evaluate_cost, stage_payoff
from polarsolve.kernel import greedy, move_cost, stage_payoffs
from polarsolve.single_elite import ValueTable, _policy, bellman_apply
from dense_reference import cost_matrix
from tie_reference import break_tie
from vi_reference import vi_reference

PARAMS = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
QUAD10 = ps.CostSpec.quadratic(10.0)


def test_region_partition():
    regions = ps.region_partition(PARAMS, QUAD10)
    assert regions.p0_star == pytest.approx(0.5 - math.sqrt(0.1), abs=1e-15)
    assert regions.p1_star == pytest.approx(0.5 + math.sqrt(0.1), abs=1e-15)
    assert regions.p0_star + regions.p1_star == pytest.approx(1.0, abs=1e-15)
    # flip threshold beyond the unit interval: outer regions empty
    regions = ps.region_partition(PARAMS, ps.CostSpec.quadratic(0.5))
    assert regions.p0_star == -math.inf and regions.p1_star == math.inf


def test_expected_continuation_examples():
    assert ps.expected_continuation_2(PARAMS, QUAD10, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert ps.expected_continuation_2(PARAMS, QUAD10, 0.1) == pytest.approx(0.5, abs=1e-15)
    assert ps.expected_continuation_2(PARAMS, QUAD10, 0.4) == pytest.approx(0.95, abs=1e-15)


def test_expected_continuation_boundary_continuity():
    regions = ps.region_partition(PARAMS, QUAD10)
    for boundary in (regions.p0_star, regions.p1_star):
        left = ps.expected_continuation_2(PARAMS, QUAD10, boundary - 1e-12)
        at = ps.expected_continuation_2(PARAMS, QUAD10, boundary)
        right = ps.expected_continuation_2(PARAMS, QUAD10, boundary + 1e-12)
        assert abs(left - at) <= 1e-10 and abs(right - at) <= 1e-10


def test_expected_continuation_against_enumeration():
    # EV2 must equal the expectation over the enumerated period-2 best response
    grid = ps.build_grid(10001)
    for p_next in grid.points[::500]:
        p_next = float(p_next)
        expected = 0.0
        for s2, prob in ((0, 0.5), (1, 0.5)):
            res = ps.brute_force_one_step(
                lambda q: stage_payoff(s2, q, 1.0) - evaluate_cost(QUAD10, q - p_next), grid
            )
            expected += prob * res.value
        assert ps.expected_continuation_2(PARAMS, QUAD10, p_next) == pytest.approx(expected, abs=1e-12)


def test_period2_examples():
    assert ps.period2_solve(PARAMS, QUAD10, 0.6, 1) == (0.6, 1.0)
    move, value = ps.period2_solve(PARAMS, QUAD10, 0.4, 1)
    assert move == 0.5 and value == pytest.approx(0.9, abs=1e-15)
    move, value = ps.period2_solve(PARAMS, QUAD10, 0.1, 1)
    assert move == 0.1 and value == 0.0
    # state 0 mirror
    assert ps.period2_solve(PARAMS, QUAD10, 0.4, 0) == (0.4, 1.0)
    move, value = ps.period2_solve(PARAMS, QUAD10, 0.6, 0)
    assert move == 0.5 and value == pytest.approx(0.9, abs=1e-15)


def test_period2_cutoff_indifference_stays():
    # delta = 1/2 exactly, so the s=1 cutoff sits at p = 0
    cost = ps.CostSpec.quadratic(4.0)
    move, value = ps.period2_solve(PARAMS, cost, 0.0, 1)
    assert move == 0.0 and value == 0.0


def test_period2_matches_oracle_everywhere():
    grid = ps.build_grid(201)
    oracle_grid = ps.build_grid(2001)
    for s in (0, 1):
        for p in grid.points:
            p = float(p)
            move, value = ps.period2_solve(PARAMS, QUAD10, p, s)
            res = ps.brute_force_one_step(
                lambda q: stage_payoff(s, q, 1.0) - evaluate_cost(QUAD10, q - p), oracle_grid
            )
            assert abs(res.value - value) <= 1e-12
            assert abs(res.argmax - move) <= oracle_grid.step + 1e-15


def test_interior_minimizer_examples():
    assert ps.interior_minimizer_B(PARAMS, QUAD10, 0.3) == pytest.approx(0.525 / 1.45, abs=1e-12)
    assert ps.interior_minimizer_B(PARAMS, QUAD10, 0.5) == 0.5
    assert ps.interior_minimizer_C(PARAMS, QUAD10, 0.5) == 0.5
    # stationary point below the cutoff clamps to it
    assert ps.interior_minimizer_B(PARAMS, QUAD10, 0.0) == pytest.approx(0.5 - math.sqrt(0.1), abs=1e-12)


def test_interior_minimizer_scan_oracle():
    for p in (0.0, 0.2, 0.3, 0.45):
        q_star = ps.interior_minimizer_B(PARAMS, QUAD10, p)
        regions = ps.region_partition(PARAMS, QUAD10)
        qs = np.arange(max(regions.p0_star, 0.0), 0.5 + 1e-9, 1e-6)
        objective = evaluate_cost(QUAD10, qs - p) + PARAMS.beta * PARAMS.pi * evaluate_cost(QUAD10, 0.5 - qs)
        assert abs(qs[np.argmin(objective)] - q_star) <= 2e-6


def test_interior_minimizer_custom_cost_golden_section():
    # tabulated quadratic should land near the analytic stationary point
    custom = ps.CostSpec.from_function(lambda x: 10.0 * x * x)
    got = ps.interior_minimizer_B(PARAMS, custom, 0.3)
    assert abs(got - 0.525 / 1.45) <= 1e-3


def test_period1_examples():
    sol = ps.period1_solve(PARAMS, QUAD10, 0.3, 0)
    assert sol.p_next == pytest.approx(0.525 / 1.45, abs=1e-12)
    assert sol.value == pytest.approx(1.7758620689655173, abs=1e-12)
    by_label = {c.provenance: c for c in sol.candidates}
    assert by_label["inaction"].objective == pytest.approx(1.72, abs=1e-12)
    assert by_label["median"].objective == pytest.approx(1.5, abs=1e-12)
    assert by_label["interior_c"].candidate == 0.5

    sol = ps.period1_solve(PARAMS, QUAD10, 0.5, 0)
    assert sol.p_next == 0.5 and sol.value == pytest.approx(1.9, abs=1e-15)
    sol = ps.period1_solve(PARAMS, QUAD10, 0.5, 1)
    assert sol.p_next == 0.5 and sol.value == pytest.approx(1.9, abs=1e-15)

    sol = ps.period1_solve(PARAMS, QUAD10, 0.0, 0)
    assert sol.p_next == 0.0 and sol.value == pytest.approx(1.45, abs=1e-15)


def test_period1_matches_two_period_oracle():
    oracle_grid = ps.build_grid(2001)
    tables = ps.oracle.period2_response_tables(PARAMS, QUAD10, oracle_grid)
    for s in (0, 1):
        for p in np.linspace(0.0, 1.0, 21):
            p = float(p)
            sol = ps.period1_solve(PARAMS, QUAD10, p, s)
            res = ps.brute_force_two_period_single(PARAMS, QUAD10, p, s, tables)
            assert abs(res.value - sol.value) <= 2e-4


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    s=st.integers(min_value=0, max_value=1),
    k=st.floats(min_value=0.05, max_value=300.0),
    H=st.floats(min_value=0.1, max_value=3.0),
    beta=st.floats(min_value=0.05, max_value=0.99),
    pi=st.floats(min_value=0.05, max_value=0.95),
)
def test_period1_polarization_pull(p, s, k, H, beta, pi):
    params = ps.ModelParams(pi=pi, beta=beta, H=H)
    sol = ps.period1_solve(params, ps.CostSpec.quadratic(k), p, s)
    assert abs(sol.p_next - 0.5) <= abs(p - 0.5) + 1e-12
    assert any(c.candidate == sol.p_next for c in sol.candidates)


def test_bellman_on_zero_equals_period2_table():
    grid = ps.build_grid(501)
    zero = ValueTable(grid=grid, v0=np.zeros(grid.n), v1=np.zeros(grid.n))
    applied = bellman_apply(PARAMS, QUAD10, grid, zero)
    for s, table in ((0, applied.v0), (1, applied.v1)):
        closed = np.array([ps.period2_solve(PARAMS, QUAD10, float(p), s)[1] for p in grid.points])
        assert np.abs(table - closed).max() <= 1e-12


def test_bellman_constant_shift():
    grid = ps.build_grid(201)
    rng = np.random.default_rng(7)
    v = ValueTable(grid=grid, v0=rng.uniform(0, 5, grid.n), v1=rng.uniform(0, 5, grid.n))
    shifted = ValueTable(grid=grid, v0=v.v0 + 2.5, v1=v.v1 + 2.5)
    tv = bellman_apply(PARAMS, QUAD10, grid, v)
    ts = bellman_apply(PARAMS, QUAD10, grid, shifted)
    assert np.abs(ts.v0 - (tv.v0 + PARAMS.beta * 2.5)).max() <= 1e-12
    assert np.abs(ts.v1 - (tv.v1 + PARAMS.beta * 2.5)).max() <= 1e-12


def test_bellman_zero_cost_peaked_continuation():
    grid = ps.build_grid(201)
    free = ps.CostSpec.quadratic(0.0)
    peak = 0.25 - (grid.points - 0.5) ** 2
    v = ValueTable(grid=grid, v0=2.0 * peak, v1=3.0 * peak)
    applied = bellman_apply(PARAMS, free, grid, v)
    mid = grid.mid
    want = 1.0 + 0.9 * (0.5 * v.v1[mid] + 0.5 * v.v0[mid])
    assert np.abs(applied.v0 - want).max() <= 1e-12
    assert np.abs(applied.v1 - want).max() <= 1e-12


def test_bellman_preserves_peak_property():
    # applying the operator to a table peaked at 1/2 yields another one
    grid = ps.build_grid(201)
    mid = grid.mid
    rng = np.random.default_rng(11)

    def random_peaked():
        up = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, mid))])
        down = up[-1] - np.cumsum(rng.uniform(0.0, 0.5, grid.n - mid - 1))
        return np.concatenate([up, down])

    for _ in range(100):
        v = ValueTable(grid=grid, v0=random_peaked(), v1=random_peaked())
        applied = bellman_apply(PARAMS, QUAD10, grid, v)
        for table in (applied.v0, applied.v1):
            assert np.all(np.diff(table[: mid + 1]) >= -1e-12)
            assert np.all(np.diff(table[mid:]) <= 1e-12)


def test_solve_infinite_zero_cost():
    grid = ps.build_grid(201)
    sol = ps.solve_infinite(PARAMS, ps.CostSpec.quadratic(0.0), grid)
    assert sol.converged
    assert np.abs(sol.value.v0 - 10.0).max() <= 1e-8
    assert np.abs(sol.value.v1 - 10.0).max() <= 1e-8
    # free moves: the mismatched side jumps straight to 1/2, the matched
    # side stays put (minimal-movement tie-breaking among equal values)
    mid = grid.mid
    assert np.all(sol.policy.sigma1[:mid] == 0.5)
    assert np.all(sol.policy.sigma0[mid + 1 :] == 0.5)
    assert np.all(sol.policy.sigma1[mid:] == grid.points[mid:])
    assert np.all(sol.policy.sigma0[: mid + 1] == grid.points[: mid + 1])


def test_solve_infinite_median_anchor_and_bounds():
    grid = ps.build_grid(501)
    sol = ps.solve_infinite(PARAMS, QUAD10, grid)
    mid = grid.mid
    assert sol.converged
    assert abs(sol.value.v0[mid] - 10.0) <= 1e-6
    assert abs(sol.value.v1[mid] - 10.0) <= 1e-6
    assert sol.policy.sigma0[mid] == 0.5 and sol.policy.sigma1[mid] == 0.5
    for table in (sol.value.v0, sol.value.v1):
        assert table.min() >= 0.0 and table.max() <= 10.0 + 1e-9


def test_solve_infinite_iteration_bound():
    # value iteration needs this many dense sweeps just to reach a 1e-10
    # residual; the bitwise fixed point takes fewer
    grid = ps.build_grid(1001)
    tol = 1e-10
    sol = ps.solve_infinite(PARAMS, QUAD10, grid)
    bound = math.ceil(math.log(tol * (1 - PARAMS.beta) / PARAMS.H) / math.log(PARAMS.beta))
    assert sol.converged
    assert sol.residual == 0.0
    assert sol.iterations <= bound // 4


def test_solve_infinite_nonconvergence_flagged():
    grid = ps.build_grid(101)
    sol = ps.solve_infinite(PARAMS, QUAD10, grid, max_iter=3)
    assert not sol.converged
    assert sol.iterations == 3
    assert sol.residual > 1e-12


FIXED_POINT_CASES = [
    (n, ps.ModelParams(pi=pi, beta=0.9, H=1.0), ps.CostSpec.quadratic(k))
    for n in (51, 101)
    for pi in (0.3, 0.5, 0.9)
    for k in (0.0, 0.5, 10.0, 200.0)
] + [
    (101, ps.ModelParams(pi=0.7, beta=0.5, H=1.0), QUAD10),
    (101, ps.ModelParams(pi=0.7, beta=0.9, H=2.0), ps.CostSpec.from_function(lambda x: 3.0 * x * x + x**4)),
]


@pytest.mark.parametrize(
    "n, params, cost",
    FIXED_POINT_CASES,
    ids=[f"n={n}-pi={p.pi}-beta={p.beta}-{c.kind}-k={c.k}" for n, p, c in FIXED_POINT_CASES],
)
def test_solve_infinite_equals_value_iteration_to_repeat(n, params, cost):
    grid = ps.build_grid(n)
    v0, v1, policy, _, sweeps = vi_reference(params, cost, grid)
    sol = ps.solve_infinite(params, cost, grid)
    assert sol.converged and sol.residual == 0.0
    assert np.array_equal(sol.value.v0, v0) and np.array_equal(sol.value.v1, v1)
    assert np.array_equal(sol.policy.sigma0, policy.sigma0)
    assert np.array_equal(sol.policy.sigma1, policy.sigma1)
    assert sol.iterations < sweeps


CUSTOM = ps.CostSpec.from_function(lambda x: 3.0 * x * x + x**4)


@st.composite
def single_elite_models(draw):
    """(grid, params, cost): n <= 101, pi and beta in (0, 1) up to beta = 0.99, k from 0, or the custom cost."""
    grid = ps.build_grid(2 * draw(st.integers(1, 50)) + 1)
    pi = draw(st.floats(min_value=0.01, max_value=0.99))
    beta = draw(st.sampled_from([0.99]) | st.floats(min_value=0.01, max_value=0.99))
    H = draw(st.floats(min_value=0.1, max_value=5.0))
    k = st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=300.0)
    cost = draw(k.map(ps.CostSpec.quadratic) | st.just(CUSTOM))
    return grid, ps.ModelParams(pi=pi, beta=beta, H=H), cost


@settings(max_examples=25, deadline=None)
@given(model=single_elite_models())
def test_solve_infinite_equals_value_iteration_from_zero(model):
    # the stay-put start moves nothing: value iteration from zero repeats at the same tables
    grid, params, cost = model
    v0, v1, policy, gaps, _ = vi_reference(params, cost, grid)
    sol = ps.solve_infinite(params, cost, grid)
    assert sol.converged and sol.residual == 0.0
    assert np.array_equal(sol.value.v0, v0) and np.array_equal(sol.value.v1, v1)
    assert np.array_equal(sol.policy.sigma0, policy.sigma0)
    assert np.array_equal(sol.policy.sigma1, policy.sigma1)
    assert sol.exact_ties == np.count_nonzero(gaps == 0.0)
    assert sol.min_margin == (gaps[gaps > 0.0].min() if np.any(gaps > 0.0) else None)


@settings(max_examples=100, deadline=None)
@given(model=single_elite_models())
def test_stay_put_start_lies_below_its_bellman_sweep_and_the_solution(model):
    grid, params, cost = model
    start = single_elite.stay_put_values(params, cost, grid)
    applied = bellman_apply(params, cost, grid, start)
    sol = ps.solve_infinite(params, cost, grid)
    for s in (0, 1):
        assert np.all(start.values(s) <= applied.values(s))
        assert np.all(start.values(s) <= sol.value.values(s))


def test_solve_infinite_is_a_bitwise_fixed_point():
    grid = ps.build_grid(201)
    for k in (0.5, 10.0):
        sol = ps.solve_infinite(PARAMS, ps.CostSpec.quadratic(k), grid)
        applied = bellman_apply(PARAMS, ps.CostSpec.quadratic(k), grid, sol.value)
        assert np.array_equal(applied.v0, sol.value.v0)
        assert np.array_equal(applied.v1, sol.value.v1)


@pytest.mark.parametrize("max_iter", [10000, 3])
def test_solve_infinite_decision_margins(max_iter):
    # a converged solve reads its policy and margins off its last sweep; a
    # capped one extracts them again against the tables it emits
    grid = ps.build_grid(101)
    # free moves: every source's best destination ties with another
    free = ps.solve_infinite(PARAMS, ps.CostSpec.quadratic(0.0), grid, max_iter=max_iter)
    assert free.exact_ties == 2 * grid.n and free.min_margin is None
    sol = ps.solve_infinite(PARAMS, QUAD10, grid, max_iter=max_iter)
    assert sol.converged == (max_iter != 3)
    assert 0 <= sol.exact_ties < 2 * grid.n
    assert sol.min_margin > 0.0
    continuation = PARAMS.pi * sol.value.v1 + (1.0 - PARAMS.pi) * sol.value.v0
    costmat = cost_matrix(QUAD10, grid)
    policy = _policy(PARAMS.beta, stage_payoffs(PARAMS, grid), QUAD10, continuation, grid)
    assert np.array_equal(sol.policy.sigma0, policy.sigma0)
    assert np.array_equal(sol.policy.sigma1, policy.sigma1)
    # best minus runner-up score of every source, from the full score matrix
    gaps = []
    for s in (0, 1):
        base = stage_payoff(s, grid.points, PARAMS.H) + PARAMS.beta * continuation
        scores = np.sort(base[None, :] - costmat, axis=1)
        gaps.append(scores[:, -1] - scores[:, -2])
    gaps = np.concatenate(gaps)
    assert sol.exact_ties == np.count_nonzero(gaps == 0.0)
    assert sol.min_margin == gaps[gaps > 0.0].min()


def test_solve_infinite_mirror_symmetry():
    grid = ps.build_grid(501)
    sol = ps.solve_infinite(PARAMS, QUAD10, grid)
    assert np.array_equal(sol.value.v1, sol.value.v0[::-1])
    assert np.array_equal(sol.policy.sigma1, 1.0 - sol.policy.sigma0[::-1])


def test_verify_polarization_pull_clean_and_dirty():
    grid = ps.build_grid(501)
    sol = ps.solve_infinite(PARAMS, QUAD10, grid)
    assert ps.verify_polarization_pull(sol.value, sol.policy) == []
    # corrupt one entry: moving away from 1/2 must be flagged
    bad = sol.policy.sigma1.copy()
    i = int(np.argmin(np.abs(grid.points - 0.3)))
    bad[i] = 0.2
    dirty = ps.PolicyTable(grid=grid, sigma0=sol.policy.sigma0, sigma1=bad)
    violations = ps.verify_polarization_pull(sol.value, dirty)
    assert any(v.check == "pull" and v.s == 1 for v in violations)
    # peak check sees a value dip
    vbad = sol.value.v1.copy()
    vbad[i] -= 0.5
    dirty_v = ValueTable(grid=grid, v0=sol.value.v0, v1=vbad)
    violations = ps.verify_polarization_pull(dirty_v, sol.policy)
    assert any(v.check == "value_peak" for v in violations)
    # a NaN satisfies no comparison: both value steps next to a NaN value fail
    vnan = sol.value.v1.copy()
    vnan[i] = math.nan
    violations = ps.verify_polarization_pull(ValueTable(grid=grid, v0=sol.value.v0, v1=vnan), sol.policy)
    pts = grid.points.tolist()
    assert [(v.check, v.s, v.p) for v in violations] == [("value_peak", 1, pts[i - 1]), ("value_peak", 1, pts[i])]
    # a NaN move fails the pull at its point and monotonicity on both steps next to it
    snan = sol.policy.sigma1.copy()
    snan[i] = math.nan
    dirty = ps.PolicyTable(grid=grid, sigma0=sol.policy.sigma0, sigma1=snan)
    violations = ps.verify_polarization_pull(sol.value, dirty)
    assert [(v.check, v.s, v.p) for v in violations] == [
        ("pull", 1, pts[i]),
        ("policy_monotone", 1, pts[i - 1]),
        ("policy_monotone", 1, pts[i]),
    ]


def test_verify_polarization_pull_flags_violations_right_of_one_half():
    grid = ps.build_grid(501)
    sol = ps.solve_infinite(PARAMS, QUAD10, grid)
    i = int(np.argmin(np.abs(grid.points - 0.7)))
    # a value rise right of 1/2
    vbad = sol.value.v0.copy()
    vbad[i] += 0.5
    violations = ps.verify_polarization_pull(ValueTable(grid=grid, v0=vbad, v1=sol.value.v1), sol.policy)
    assert [(v.check, v.s) for v in violations] == [("value_peak", 0)]
    assert violations[0].p > 0.5 and "rise" in violations[0].detail
    # a policy drop right of 1/2 that stays inside [1/2, p]
    bad = sol.policy.sigma1.copy()
    bad[i] = bad[i - 1] - 10 * grid.step
    dirty = ps.PolicyTable(grid=grid, sigma0=sol.policy.sigma0, sigma1=bad)
    violations = ps.verify_polarization_pull(sol.value, dirty)
    assert [(v.check, v.s) for v in violations] == [("policy_monotone", 1)]
    assert violations[0].p > 0.5 and "drop" in violations[0].detail


def test_compare_cost_technologies_flags_a_costlier_move_further_on_both_sides(monkeypatch):
    grid = ps.build_grid(101)
    costlier = ps.CostSpec.quadratic(20.0)
    solve = single_elite.solve_infinite

    def further(params, cost, grid):
        # the costlier technology jumps to 1/2 from everywhere
        sol = solve(params, cost, grid)
        if cost != costlier:
            return sol
        half = np.full(grid.n, 0.5)
        return dataclasses.replace(sol, policy=ps.PolicyTable(grid=grid, sigma0=half, sigma1=half))

    monkeypatch.setattr(single_elite, "solve_infinite", further)
    report = ps.compare_cost_technologies(PARAMS, QUAD10, costlier, grid, mode="resolved")
    assert {v.check for v in report.violations} == {"shrink"}
    for s in (0, 1):
        sides = {(v.p > 0.5, ">" in v.detail) for v in report.violations if v.s == s}
        assert sides == {(False, True), (True, False)}

    def nan_moves(params, cost, grid):
        # the costlier technology's moves are all NaN
        sol = solve(params, cost, grid)
        if cost != costlier:
            return sol
        nan = np.full(grid.n, math.nan)
        return dataclasses.replace(sol, policy=ps.PolicyTable(grid=grid, sigma0=nan, sigma1=nan))

    monkeypatch.setattr(single_elite, "solve_infinite", nan_moves)
    report = ps.compare_cost_technologies(PARAMS, QUAD10, costlier, grid, mode="resolved")
    left, right = grid.points[: grid.mid + 1].tolist(), grid.points[grid.mid :].tolist()
    for s in (0, 1):
        flagged = [(v.check, v.p, ">" in v.detail) for v in report.violations if v.s == s]
        # every point fails on its side of 1/2, and 1/2 itself on both, left side first
        assert flagged == [("shrink", p, True) for p in left] + [("shrink", p, False) for p in right]


def test_compare_cost_technologies_rejects_an_unknown_mode():
    costlier = ps.CostSpec.quadratic(20.0)
    with pytest.raises(ValueError, match="unknown comparison mode"):
        ps.compare_cost_technologies(PARAMS, QUAD10, costlier, ps.build_grid(11), mode="both")


def test_compare_cost_technologies_fixed_mode():
    grid = ps.build_grid(501)
    report = ps.compare_cost_technologies(
        PARAMS, QUAD10, ps.CostSpec.quadratic(20.0), grid, mode="fixed"
    )
    assert report.violations == []


def test_compare_cost_technologies_rejects_non_dominant():
    grid = ps.build_grid(101)
    with pytest.raises(ValueError):
        ps.compare_cost_technologies(PARAMS, QUAD10, QUAD10, grid)
    with pytest.raises(ValueError):
        ps.compare_cost_technologies(PARAMS, QUAD10, ps.CostSpec.quadratic(5.0), grid)


def test_costlier_technology_grows_inaction_region():
    grid = ps.build_grid(501)
    report = ps.compare_cost_technologies(
        PARAMS, QUAD10, ps.CostSpec.quadratic(1000.0), grid, mode="resolved"
    )
    assert report.violations == []
    for s in (0, 1):
        inaction_base = report.policy_base.moves(s) == grid.points
        inaction_costlier = report.policy_costlier.moves(s) == grid.points
        assert np.all(inaction_base <= inaction_costlier)
        assert inaction_costlier.sum() > inaction_base.sum()


@settings(max_examples=200, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=20),
    k=st.sampled_from([0.0, 1.0]),
    rows=st.integers(min_value=1, max_value=41),
    data=st.data(),
)
def test_greedy_matches_per_column_tie_ladder(half, k, rows, data):
    # few integer levels and cheap moves make tied destinations common;
    # blocks of `rows` sources, mostly not dividing n, cross block edges
    grid = ps.build_grid(2 * half + 1)
    levels = data.draw(st.lists(st.integers(0, 3), min_size=grid.n, max_size=grid.n))
    base = np.array(levels, dtype=float)
    costmat = cost_matrix(ps.CostSpec.quadratic(k), grid)
    scores = base[:, None] - costmat  # scores[j, i]: destination j from source i
    ranked = np.sort(scores, axis=0)
    recurs = np.count_nonzero(scores == ranked[-1], axis=0) > 1
    with mock.patch.object(kernel, "_BLOCK_BYTES", rows * 8 * grid.n):
        for prefer_right in (False, True):
            gap = np.empty(grid.n)
            idx, best = greedy(base, ps.CostSpec.quadratic(k), grid, prefer_right, gap)
            want = [
                break_tie(np.flatnonzero(scores[:, i] == scores[:, i].max()), i, grid, prefer_right)
                for i in range(grid.n)
            ]
            assert idx.tolist() == want
            assert np.array_equal(best, scores.max(axis=0))
            # best minus runner-up of the sorted column, 0 where its maximum recurs
            assert np.array_equal(gap, ranked[-1] - ranked[-2])
            assert np.array_equal(gap == 0.0, recurs)


@pytest.mark.parametrize("prefer_right", [False, True])
def test_greedy_straddle_tie_goes_to_preferred_side(prefer_right):
    # source 1/2 scores lower than 1/2 -+ d, which tie on score, movement and distance to 1/2
    grid = ps.build_grid(21)
    mid, d = grid.mid, 3
    base = np.zeros(grid.n)
    base[mid] = 0.5
    base[mid - d] = base[mid + d] = 1.0
    costmat = cost_matrix(ps.CostSpec.quadratic(1.0), grid)
    column = base - costmat[mid]
    tied = np.flatnonzero(column == column.max())
    assert tied.tolist() == [mid - d, mid + d]
    idx, _ = greedy(base, ps.CostSpec.quadratic(1.0), grid, prefer_right)
    assert idx[mid] == (mid + d if prefer_right else mid - d)
    assert idx[mid] == break_tie(tied, mid, grid, prefer_right)


def test_cost_matrix_is_exactly_symmetric():
    # the kernel reads row i as the moves out of source i
    grid = ps.build_grid(101)
    custom = ps.CostSpec.from_function(lambda x: 3.0 * x * x + x**4)
    idx = np.random.default_rng(0).integers(0, grid.n, grid.n)
    for cost in (QUAD10, ps.CostSpec.quadratic(0.3), custom):
        costmat = cost_matrix(cost, grid)
        assert np.array_equal(costmat, costmat.T)
        assert move_cost(cost, grid, idx).tobytes() == costmat[np.arange(grid.n), idx].tobytes()
