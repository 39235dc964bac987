import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarsolve as ps
from polarsolve.two_elite import MpeSolution
from mpe_reference import first_repeat, mpe_reference, reference_history

PARAMS = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
QUAD10 = ps.CostSpec.quadratic(10.0)
DELTA10 = math.sqrt(0.1)


def test_elite_b_response_examples():
    assert ps.elite_b_response(PARAMS, QUAD10, 0.45, 1) == 0.45
    assert ps.elite_b_response(PARAMS, QUAD10, 0.45, 0) == 0.5
    assert ps.elite_b_response(PARAMS, QUAD10, 0.10, 0) == 0.10


def test_elite_b_response_knife_edge():
    # at exactly 1/2 the mover implements its own preference: never move
    assert ps.elite_b_response(PARAMS, QUAD10, 0.5, 0) == 0.5
    assert ps.elite_b_response(PARAMS, QUAD10, 0.5, 1) == 0.5


def test_elite_b_exact_indifference_stays():
    # delta = 1/2 exactly: from p1 = 1 the flip costs exactly H
    cost = ps.CostSpec.quadratic(4.0)
    assert ps.elite_b_response(PARAMS, cost, 1.0, 1) == 1.0
    assert ps.elite_b_response(PARAMS, cost, 0.0, 0) == 0.0


def test_elite_b_semi_lock_deterrence():
    for target in (0.5 + DELTA10, 0.5 - DELTA10):
        p = target
        # snap outward so the distance to 1/2 is at least the threshold
        while abs(0.5 - p) < DELTA10:
            p = np.nextafter(p, 1.0 if target > 0.5 else 0.0)
        for s2 in (0, 1):
            assert ps.elite_b_response(PARAMS, QUAD10, p, s2) == p


@settings(max_examples=200, deadline=None)
@given(
    p1=st.floats(min_value=0.0, max_value=1.0),
    s2=st.integers(min_value=0, max_value=1),
    k=st.floats(min_value=0.05, max_value=300.0),
    H=st.floats(min_value=0.1, max_value=3.0),
)
def test_elite_b_never_overshoots(p1, s2, k, H):
    params = ps.ModelParams(pi=0.5, beta=0.9, H=H)
    reply = ps.elite_b_response(params, ps.CostSpec.quadratic(k), p1, s2)
    assert reply == p1 or reply == 0.5


def test_phi_continuation_examples():
    assert ps.phi_continuation(PARAMS, QUAD10, 0.10) == 0.5
    assert ps.phi_continuation(PARAMS, QUAD10, 0.35) == 0.0
    params = ps.ModelParams(pi=0.3, beta=0.9, H=1.0)
    assert ps.phi_continuation(params, QUAD10, 0.90) == pytest.approx(0.3, abs=1e-15)


def test_phi_infinite_threshold_gives_no_shelter():
    cheap = ps.CostSpec.quadratic(0.5)  # c(1) < H: follower always flips
    for p0 in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert ps.phi_continuation(PARAMS, cheap, p0) == 0.0


def test_stackelberg_worked_example():
    sol = ps.stackelberg_solve(PARAMS, QUAD10, 0.35, 0)
    left = 0.5 - DELTA10
    assert sol.chosen == pytest.approx(left, abs=1e-12)
    want = 1.0 - 10.0 * (0.35 - left) ** 2 + 0.45
    assert sol.value == pytest.approx(want, abs=1e-12)
    assert sol.value == pytest.approx(1.173683, abs=1e-6)
    by_label = {c.provenance: c for c in sol.candidates}
    assert by_label["inaction"].objective == pytest.approx(1.0, abs=1e-12)
    assert by_label["median"].objective == pytest.approx(0.775, abs=1e-12)
    assert by_label["semi_lock_right"].objective == pytest.approx(-1.7236832980505137, abs=1e-9)
    assert sol.phi_at_p0 == 0.0


def test_stackelberg_median_start():
    sol = ps.stackelberg_solve(PARAMS, QUAD10, 0.5, 1)
    assert sol.chosen == 0.5
    assert sol.value == pytest.approx(1.0, abs=1e-15)


def test_stackelberg_protected_inaction():
    sol = ps.stackelberg_solve(PARAMS, QUAD10, 0.10, 0)
    assert sol.chosen == 0.10
    assert sol.value == pytest.approx(1.45, abs=1e-15)
    by_label = {c.provenance: c for c in sol.candidates}
    assert by_label["semi_lock_left"].objective == pytest.approx(1.3798, abs=1e-4)


def test_stackelberg_infeasible_semi_locks_dropped():
    cheap = ps.CostSpec.quadratic(0.5)  # threshold beyond [0, 1]
    sol = ps.stackelberg_solve(PARAMS, cheap, 0.3, 1)
    labels = {c.provenance for c in sol.candidates}
    assert labels == {"inaction", "median"}


def test_stackelberg_matches_oracle_scan():
    oracle_grid = ps.build_grid(2001)
    tables = ps.oracle.period2_response_tables(PARAMS, QUAD10, oracle_grid)
    tables = ps.oracle.rival_response_tables(PARAMS, tables)
    for s1 in (0, 1):
        for p0 in np.linspace(0.0, 1.0, 21):
            p0 = float(p0)
            sol = ps.stackelberg_solve(PARAMS, QUAD10, p0, s1)
            res = ps.brute_force_stackelberg(PARAMS, QUAD10, p0, s1, tables)
            assert abs(res.value - sol.value) <= 2e-3


def test_mpe_zero_cost_analytic():
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(0.0), grid)
    assert sol.converged
    v_star = 1.0 / (1.0 - 0.81)
    u_star = 0.9 * v_star
    for table in (sol.vA0, sol.vA1, sol.vB0, sol.vB1):
        assert np.abs(table - v_star).max() <= 1e-8
    for table in (sol.uA, sol.uB):
        assert np.abs(table - u_star).max() <= 1e-8


def test_mpe_dominant_cost_identity_policy():
    grid = ps.build_grid(201)
    # one grid step costs 1e7 * 0.005^2 = 250 >> H/(1-beta) = 10
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(1e7), grid)
    assert sol.converged
    for sigma in (sol.sigmaA0, sol.sigmaA1, sol.sigmaB0, sol.sigmaB1):
        assert np.array_equal(sigma, grid.points)


@pytest.mark.parametrize("pi", [0.3, 0.5])
def test_mpe_mirror_identities(pi):
    params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
    grid = ps.build_grid(101)
    sol = ps.mpe_solve(params, QUAD10, grid)
    assert np.array_equal(sol.vB0, sol.vA0[::-1])
    assert np.array_equal(sol.vB1, sol.vA1[::-1])
    assert np.array_equal(sol.uB, sol.uA[::-1])
    assert np.array_equal(sol.sigmaB0, 1.0 - sol.sigmaA0[::-1])
    assert np.array_equal(sol.sigmaB1, 1.0 - sol.sigmaA1[::-1])


def assert_same_solution(got, want):
    for field in dataclasses.fields(MpeSolution):
        # work counts: the reference scores every move and counts nothing
        if field.name in ("horizon_used", "dense_calls", "rescored_sources", "kernel_fallbacks"):
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    period, entered = want.cycle_period, want.cycle_entered_at
    if period is not None and period >= 2:
        # The reference runs on past an exact cycle to the horizon; mpe_solve
        # stops one to two periods after the cycle is entered.
        assert entered + period <= got.horizon_used <= min(want.horizon_used, entered + 2 * period)
    else:
        assert got.horizon_used == want.horizon_used


@pytest.mark.parametrize("k", [0.0, 0.5, 10.0, 200.0])
@pytest.mark.parametrize("pi", [0.3, 0.5, 0.7, 0.9])
def test_mpe_mirror_matches_independent_elites(pi, k):
    # mpe_solve reads B off A by reflection; the reference solves both
    params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
    cost = ps.CostSpec.quadratic(k)
    for n, horizon in ((101, 600), (51, 599)):
        grid = ps.build_grid(n)
        got = ps.mpe_solve(params, cost, grid, horizon=horizon)
        assert_same_solution(got, mpe_reference(params, cost, grid, horizon=horizon))


def test_mpe_mirror_matches_independent_elites_custom_cost():
    cost = ps.CostSpec.from_function(lambda x: 6.0 * x * x + 4.0 * x**4)
    for pi, n, horizon in ((0.5, 101, 599), (0.7, 51, 600)):
        params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
        grid = ps.build_grid(n)
        got = ps.mpe_solve(params, cost, grid, horizon=horizon)
        assert_same_solution(got, mpe_reference(params, cost, grid, horizon=horizon))


def test_mpe_value_bounds():
    grid = ps.build_grid(101)
    for k in (0.0, 0.5, 10.0, 200.0):
        sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(k), grid)
        bound = 1.0 / (1.0 - 0.9)
        for table in (sol.vA0, sol.vA1, sol.uA, sol.vB0, sol.vB1, sol.uB):
            assert table.min() >= -1e-12
            assert table.max() <= bound + 1e-9
        for sigma in (sol.sigmaA0, sol.sigmaA1, sol.sigmaB0, sol.sigmaB1):
            assert np.all(np.isin(sigma, grid.points))


MPE_TABLES = ("vA0", "vA1", "uA", "vB0", "vB1", "uB", "sigmaA0", "sigmaA1", "sigmaB0", "sigmaB1")


@pytest.mark.parametrize(
    "pi, k, period", [(0.5, 0.5, 2), (0.5, 10.0, 2), (0.7, 10.0, 19), (0.9, 10.0, 5)]
)
def test_mpe_cycle_stop_matches_full_horizon(pi, k, period):
    params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
    grid = ps.build_grid(51)
    cost = ps.CostSpec.quadratic(k)
    # no residual stop either: every step of a plain loop to the longest horizon
    history = reference_history(params, cost, grid, 260, residual_tol=-1.0)
    # every residue modulo the period, counted back from the longest horizon
    for horizon in range(260, 260 - period - 1, -1):
        sol = ps.mpe_solve(params, cost, grid, horizon=horizon)
        want = history[horizon - 1]
        for name in MPE_TABLES:
            assert np.array_equal(getattr(sol, name), getattr(want, name)), name
        assert sol.residual == want.residual
        assert not sol.converged
        assert (sol.cycle_entered_at, sol.cycle_period) == first_repeat(history[:horizon])
        assert sol.cycle_period == period
        assert sol.horizon_used < horizon


def test_mpe_high_cost_stops_by_residual():
    grid = ps.build_grid(51)
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(200.0), grid)
    assert sol.converged
    assert sol.horizon_used == 111
    assert sol.cycle_period == 1
    assert sol.cycle_entered_at is None


def test_mpe_non_stationary_flagged():
    grid = ps.build_grid(101)
    sol = ps.mpe_solve(PARAMS, QUAD10, grid, horizon=5, residual_tol=1e-12)
    assert not sol.converged
    assert sol.horizon_used == 5


@pytest.mark.parametrize("elite", ["A", "B"])
def test_mpe_mover_value_is_the_payoff_of_its_recorded_move(elite):
    # B's tables are A's mirrored; its stage payoff must still be stage_payoff
    # for B's own preferred policy, which is 1 - s.
    # The mover values were computed against the waiting values of the step
    # before the last, which a converged solution moves by at most its residual.
    params = ps.ModelParams(pi=0.8, beta=0.9, H=1.0)
    cost = ps.CostSpec.quadratic(20.0)
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(params, cost, grid)
    assert sol.converged
    waiting = sol.waiting_values(elite)
    for s in (0, 1):
        pref = s if elite == "A" else 1 - s
        moves = sol.moves(elite, s)
        landing = np.rint(moves * (grid.n - 1)).astype(int)
        played = (
            ps.stage_payoff(pref, moves, params.H)
            - ps.evaluate_cost(cost, moves - grid.points)
            + params.beta * waiting[landing]
        )
        assert np.max(np.abs(played - sol.mover_values(elite, s))) <= params.beta * sol.residual + 1e-12


def test_check_no_deviation_converged():
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(0.0), grid, residual_tol=1e-9)
    assert ps.check_no_deviation(PARAMS, ps.CostSpec.quadratic(0.0), sol) <= 1e-8


def test_check_no_deviation_detects_value_corruption():
    grid = ps.build_grid(201)
    cost = ps.CostSpec.quadratic(0.0)
    sol = ps.mpe_solve(PARAMS, cost, grid)
    broken = sol.vA1.copy()
    broken[37] -= 0.25
    bad = MpeSolution(
        grid=sol.grid,
        vA0=sol.vA0, vA1=broken, uA=sol.uA,
        vB0=sol.vB0, vB1=sol.vB1, uB=sol.uB,
        sigmaA0=sol.sigmaA0, sigmaA1=sol.sigmaA1,
        sigmaB0=sol.sigmaB0, sigmaB1=sol.sigmaB1,
        horizon_used=sol.horizon_used, residual=sol.residual, converged=sol.converged,
    )
    assert ps.check_no_deviation(PARAMS, cost, bad) >= 0.25 - 1e-9


def test_check_no_deviation_detects_policy_corruption():
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(PARAMS, QUAD10, grid)
    broken = sol.sigmaB0.copy()
    i = int(np.argmin(np.abs(grid.points - 0.48)))
    broken[i] = 0.0  # absurd move: pay the full cost for nothing
    bad = MpeSolution(
        grid=sol.grid,
        vA0=sol.vA0, vA1=sol.vA1, uA=sol.uA,
        vB0=sol.vB0, vB1=sol.vB1, uB=sol.uB,
        sigmaA0=sol.sigmaA0, sigmaA1=sol.sigmaA1,
        sigmaB0=broken, sigmaB1=sol.sigmaB1,
        horizon_used=sol.horizon_used, residual=sol.residual, converged=sol.converged,
    )
    assert ps.check_no_deviation(PARAMS, QUAD10, bad) > 0.1


@pytest.mark.parametrize("entry", [0.208, math.nan])
def test_check_no_deviation_rejects_off_grid_moves(entry):
    # an entry between grid points (0.2 and 0.22) must not be checked as its
    # nearest grid point, and a NaN must not become an index
    grid = ps.build_grid(51)
    cost = ps.CostSpec.quadratic(0.0)
    sol = ps.mpe_solve(PARAMS, cost, grid)
    assert sol.sigmaA0[10] == grid.points[10]
    broken = sol.sigmaA0.copy()
    broken[10] = entry
    bad = dataclasses.replace(sol, sigmaA0=broken)
    message = f"elite A, state 0: the move at p={float(grid.points[10])!r} is {entry!r}, not a grid point"
    with pytest.raises(ValueError, match=re.escape(message)):
        ps.check_no_deviation(PARAMS, cost, bad)


@pytest.mark.parametrize(
    "table, owner",
    [
        ("vA0", "elite A, state 0: the mover value"),
        ("vB1", "elite B, state 1: the mover value"),
        ("uA", "elite A: the waiting value"),
        ("uB", "elite B: the waiting value"),
    ],
    ids=["vA0", "vB1", "uA", "uB"],
)
@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_check_no_deviation_rejects_a_non_finite_value(table, owner, entry):
    # max() drops a NaN, and a NaN gain fails no `gain > tol` test: the entry must raise
    grid = ps.build_grid(51)
    sol = ps.mpe_solve(PARAMS, QUAD10, grid)
    broken = getattr(sol, table).copy()
    broken[7] = entry
    bad = dataclasses.replace(sol, **{table: broken})
    message = f"{owner} {table} at p={float(grid.points[7])!r} is {entry!r}, not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        ps.check_no_deviation(PARAMS, QUAD10, bad)


def test_check_no_deviation_exact_on_injected_fixed_point():
    # with free moves the system has a flat fixed point; iterate the scalar
    # recursion to its floating-point limit and inject it
    grid = ps.build_grid(101)
    cost = ps.CostSpec.quadratic(0.0)
    beta = PARAMS.beta
    v = 0.0
    seen = set()
    while v not in seen:
        seen.add(v)
        v = 1.0 + beta * (beta * v)
    u = beta * v
    flat_v = np.full(grid.n, v)
    flat_u = np.full(grid.n, u)
    mid = grid.mid
    sigma_to_half = np.full(grid.n, 0.5)
    injected = MpeSolution(
        grid=grid,
        vA0=flat_v.copy(), vA1=flat_v.copy(), uA=flat_u.copy(),
        vB0=flat_v.copy(), vB1=flat_v.copy(), uB=flat_u.copy(),
        sigmaA0=sigma_to_half.copy(), sigmaA1=sigma_to_half.copy(),
        sigmaB0=sigma_to_half.copy(), sigmaB1=sigma_to_half.copy(),
        horizon_used=0, residual=0.0, converged=True,
    )
    assert ps.check_no_deviation(PARAMS, cost, injected) == 0.0


def test_mpe_high_cost_absorbing_inaction_both_sides():
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(200.0), grid)
    inaction = np.ones(grid.n, dtype=bool)
    for sigma in (sol.sigmaA0, sol.sigmaA1, sol.sigmaB0, sol.sigmaB1):
        inaction &= sigma == grid.points
    assert inaction.any()
    assert (inaction & (grid.points < 0.5)).any()
    assert (inaction & (grid.points > 0.5)).any()


def test_mpe_low_cost_two_turn_polarization():
    grid = ps.build_grid(201)
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(0.5), grid)
    moves = {
        ("A", 0): sol.sigmaA0, ("A", 1): sol.sigmaA1,
        ("B", 0): sol.sigmaB0, ("B", 1): sol.sigmaB1,
    }
    # holding the state fixed, the elite that dislikes the standing policy
    # flips it to exactly 1/2 on its turn; both elites move within two turns
    for s, first in itertools.product((0, 1), ("A", "B")):
        second = "B" if first == "A" else "A"
        p1 = moves[(first, s)]
        i1 = np.rint(p1 * (grid.n - 1)).astype(int)
        p2 = moves[(second, s)][i1]
        assert np.all((p1 == 0.5) | (p2 == 0.5))


def test_mpe_rejects_grid_that_is_not_mirror_closed():
    points = np.linspace(0.0, 1.0, 101)
    assert not np.array_equal(1.0 - points, points[::-1])
    grid = ps.Grid(points=points, n=101, step=0.01)
    with pytest.raises(ValueError, match="mirror-closed"):
        ps.mpe_solve(PARAMS, QUAD10, grid)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50).map(lambda m: 2 * m + 1),
    pi=st.floats(min_value=0.05, max_value=0.95),
    k=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=300.0)),
    beta=st.floats(min_value=0.3, max_value=0.95),
    H=st.floats(min_value=0.2, max_value=5.0),
    custom=st.booleans(),
)
def test_certified_steps_equal_dense_reference_bit_for_bit(n, pi, k, beta, H, custom):
    # mpe_solve reuses certified destinations; the reference scores every move of every step
    params = ps.ModelParams(pi=pi, beta=beta, H=H)
    if custom:
        cost = ps.CostSpec.from_function(lambda x: k * x * x + x**4)
    else:
        cost = ps.CostSpec.quadratic(k)
    grid = ps.build_grid(n)
    got = ps.mpe_solve(params, cost, grid)
    assert_same_solution(got, mpe_reference(params, cost, grid))


def test_most_steps_are_certified_and_ties_are_scored_densely():
    grid = ps.build_grid(501)
    sol = ps.mpe_solve(PARAMS, QUAD10, grid)
    calls = 2 * sol.horizon_used  # one greedy maximisation per state and step
    assert sol.dense_calls < calls / 4
    assert sol.rescored_sources < grid.n * calls / 20
    # k = 0: every source ties, so no destination can be certified
    sol = ps.mpe_solve(PARAMS, ps.CostSpec.quadratic(0.0), grid)
    assert sol.dense_calls == 2 * sol.horizon_used
    assert sol.rescored_sources == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [({"horizon": 1}, "horizon must be at least 2"), ({"residual_tol": 0.0}, "residual_tol must be positive")],
)
def test_mpe_solve_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ps.mpe_solve(PARAMS, QUAD10, ps.build_grid(11), **kwargs)
