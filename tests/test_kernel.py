"""The kernel's greedy call against the dense reference, its tie pass and the certified backward steps."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarsolve as ps
from polarsolve import kernel, two_elite
from polarsolve.kernel import CertifiedSteps, greedy, stage_payoffs
from polarsolve.model import evaluate_cost
from dense_reference import cost_matrix, dense_greedy
from tie_reference import break_tie, greedy_by_column


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=20),
    k=st.sampled_from([0.0, 1.0]),
    block=st.integers(min_value=1, max_value=41),
    data=st.data(),
)
def test_greedy_rows_equal_the_full_call_on_those_rows(half, k, block, data):
    # few integer levels and cheap moves plant ties below and above the sources
    grid = ps.build_grid(2 * half + 1)
    levels = data.draw(st.lists(st.integers(0, 3), min_size=grid.n, max_size=grid.n))
    rows = np.array(data.draw(st.lists(st.integers(0, grid.n - 1), min_size=1, max_size=grid.n)))
    base = np.array(levels, dtype=float)
    cost = ps.CostSpec.quadratic(k)
    with mock.patch.object(kernel, "_BLOCK_BYTES", block * 8 * grid.n):
        for prefer_right in (False, True):
            full_gap, gap = np.empty(grid.n), np.empty(rows.size)
            full_idx, full_best = greedy(base, cost, grid, prefer_right, full_gap)
            idx, best = greedy(base, cost, grid, prefer_right, gap, rows=rows)
            assert idx.tolist() == full_idx[rows].tolist()
            assert bits(best) == bits(full_best[rows])
            assert bits(gap) == bits(full_gap[rows])


@pytest.mark.parametrize("prefer_right", [False, True])
def test_greedy_rows_straddle_tie_goes_to_preferred_side(prefer_right):
    # source 1/2 sees 1/2 -+ d tied on score, movement and distance to 1/2
    grid = ps.build_grid(21)
    mid, d = grid.mid, 3
    base = np.zeros(grid.n)
    base[mid] = 0.5
    base[mid - d] = base[mid + d] = 1.0
    cost = ps.CostSpec.quadratic(1.0)
    idx, _ = greedy(base, cost, grid, prefer_right, rows=np.array([mid, 0]))
    full, _ = greedy(base, cost, grid, prefer_right)
    assert idx[0] == (mid + d if prefer_right else mid - d)
    assert idx.tolist() == [full[mid], full[0]]


@pytest.mark.parametrize("prefer_right", [False, True])
@pytest.mark.parametrize("rows", [None, [22, 11, 0, 7, 16, 9, 11, 12, 3, 19, 14, 10, 6]])
def test_tie_pass_settles_each_step_as_the_reference(prefer_right, rows):
    grid = ps.build_grid(23)
    cost = ps.CostSpec.quadratic(0.0)
    costmat = cost_matrix(cost, grid)
    # k = 0 and two tied plateaus, 6-8 and 14-17, around the middle point 11
    base = np.zeros(grid.n)
    base[[6, 7, 8, 14, 15, 16, 17]] = 1.0
    sources = np.arange(grid.n) if rows is None else np.array(rows)
    # three sources a block: the tied sources of every step span several blocks
    with mock.patch.object(kernel, "_BLOCK_BYTES", 3 * 8 * grid.n):
        gap = np.empty(sources.size)
        idx, _ = greedy(base, cost, grid, prefer_right, gap, rows=None if rows is None else sources)
    assert not gap.any()
    # every source ties: plateau sources stay put (step 1), those below 6 take
    # 6 (step 2) and those above 17 take 17 (step 3); 9-13 see ties on both
    # sides (step 4), and 11 sees 8 and 14 at equal distance from 1/2
    want = {s: s for s in (6, 7, 8, 14, 15, 16, 17)}
    want.update({s: 6 for s in range(6)})
    want.update({s: 17 for s in range(18, 23)})
    want.update({9: 8, 10: 8, 12: 14, 13: 14, 11: 14 if prefer_right else 8})
    assert idx.tolist() == [want[s] for s in sources]
    for src, to in zip(sources, idx):
        scores = base - costmat[src]
        assert to == break_tie(np.flatnonzero(scores == scores.max()), src, grid, prefer_right)


def test_tie_pass_on_the_stationary_k0_mpe_base():
    # at the k = 0 stationary state every source of both states ties
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    cost, grid = ps.CostSpec.quadratic(0.0), ps.build_grid(501)
    sol = two_elite.mpe_solve(params, cost, grid)
    assert sol.cycle_period == 1
    costmat = cost_matrix(cost, grid)
    for s, stage in enumerate(stage_payoffs(params, grid)):
        base = stage + params.beta * sol.uA
        gap = np.empty(grid.n)
        idx, best = greedy(base, cost, grid, s == 1, gap)
        assert not gap.any()
        want_idx, want_best = greedy_by_column(base[:, None] - costmat, grid, s == 1)
        assert idx.tolist() == want_idx.tolist()
        assert bits(best) == bits(want_best)


def test_tie_pass_holds_no_n_by_n_array():
    grid = ps.build_grid(1001)
    cost = ps.CostSpec.quadratic(0.0)
    costmat = cost_matrix(cost, grid)
    # tied on both sides of 1/2: every source ties, and sources reach steps 1 to 4
    base = np.zeros(grid.n)
    base[[100, 101, 700, 701, 900]] = 1.0
    gap = np.empty(grid.n)
    tracemalloc.start()
    try:
        greedy(base, cost, grid, False, gap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not gap.any()
    assert peak < 4 * kernel._BLOCK_BYTES + 64 * grid.n < costmat.nbytes // 4


def peaked_base(grid, top):
    """A base falling by 100 per grid step away from index top: every source's best is top, by far."""
    return -100.0 * np.abs(np.arange(grid.n) - top)


def one_state(grid, cost):
    # beta = 1 and a zero stage make each step's base its continuation, bit for bit
    return CertifiedSteps(1.0, [np.zeros(grid.n)], cost, grid)


def assert_step_is_greedy(got, base, cost, grid):
    (idx,), (best,) = got
    want_idx, want_best = greedy(base, cost, grid, prefer_right=False)
    assert idx.tolist() == want_idx.tolist()
    assert bits(best) == bits(want_best)


def test_certificate_refuses_a_runner_up_within_the_slop():
    grid = ps.build_grid(41)
    cost = ps.CostSpec.quadratic(1.0)
    costmat = cost_matrix(cost, grid)
    top, src = 20, 5
    base = peaked_base(grid, top)
    # Raise the score of destination top + 1 from source src until it sits just
    # below the best: a float gap of about one ulp of the scores.
    base[top + 1] = base[top] - costmat[src, top] + costmat[src, top + 1]
    while base[top + 1] - costmat[src, top + 1] >= base[top] - costmat[src, top]:
        base[top + 1] = np.nextafter(base[top + 1], -np.inf)
    steps = one_state(grid, cost)
    assert_step_is_greedy(steps(base), base, cost, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 0)
    # The same continuation again: every other source keeps its destination
    # with a gap far above the slop; only src is scored again.
    assert_step_is_greedy(steps(base), base, cost, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 1)
    # A shift of the bases that keeps every strict winner certifies them all again.
    shifted = base + 1e-9 * np.arange(grid.n)
    assert_step_is_greedy(steps(shifted), shifted, cost, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 2)


def test_certificate_refuses_a_nan_base():
    grid = ps.build_grid(41)
    cost = ps.CostSpec.quadratic(1.0)
    base = peaked_base(grid, 20)
    steps = one_state(grid, cost)
    steps(base)
    nan_base = base.copy()
    nan_base[7] = np.nan
    # the certificate itself: a NaN in D fails every comparison
    assert steps._certified(0, nan_base, 0) is None
    assert_step_is_greedy(steps(nan_base), nan_base, cost, grid)
    # no source is certified, so the whole state is scored again
    assert (steps.dense_calls, steps.rescored_sources) == (2, 0)


def test_ties_are_never_certified():
    # k = 0: every source ties, so no bound is positive and every step is dense
    grid = ps.build_grid(41)
    cost = ps.CostSpec.quadratic(0.0)
    base = np.zeros(grid.n)
    base[[10, 30]] = 1.0
    steps = one_state(grid, cost)
    for _ in range(3):
        assert_step_is_greedy(steps(base), base, cost, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (3, 0)


def assert_greedy_is_dense(base, cost, grid, rows=None):
    """idx, best and gap bit-equal to the dense reference's, and lower-bound gaps at most the exact ones."""
    costmat = cost_matrix(cost, grid)
    m = grid.n if rows is None else len(rows)
    for prefer_right in (False, True):
        want_gap, gap, bound = np.empty(m), np.empty(m), np.empty(m)
        with np.errstate(invalid="ignore"):  # inf - inf: the gap of tied infinite scores
            want_idx, want_best = dense_greedy(base, costmat, grid, prefer_right, want_gap, rows)
            idx, best = greedy(base, cost, grid, prefer_right, gap, rows)
            bound_idx, bound_best = greedy(base, cost, grid, prefer_right, bound, rows, exact=False)
        assert idx.tolist() == want_idx.tolist() == bound_idx.tolist()
        assert bits(best) == bits(want_best) == bits(bound_best)
        assert bits(gap) == bits(want_gap)
        assert not (bound > want_gap).any()


def fallbacks_of(base, cost, grid):
    fallbacks = [0]
    greedy(base, cost, grid, False, fallbacks=fallbacks)
    return fallbacks[0]


@settings(max_examples=120, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=60),
    k=st.sampled_from([0.0, 1e-3, 0.5, 10.0, 200.0, 1e4]),
    levels=st.integers(min_value=1, max_value=60),
    subset=st.booleans(),
    data=st.data(),
)
def test_greedy_equals_the_dense_reference(half, k, levels, subset, data):
    # few levels plant exact ties on the whole grid, many make rows without ties
    grid = ps.build_grid(2 * half + 1)
    base = np.array(data.draw(st.lists(st.integers(0, levels), min_size=grid.n, max_size=grid.n))) / levels
    rows = None
    if subset:
        rows = np.array(data.draw(st.lists(st.integers(0, grid.n - 1), min_size=1, max_size=2 * grid.n)))
    assert_greedy_is_dense(base, ps.CostSpec.quadratic(k), grid, rows)


def plant_near_tie(base, cost, grid, src, dest, ulps):
    """Set base[dest] so that source src scores dest the fewest ulps at least `ulps` below its best."""
    move = evaluate_cost(cost, grid.points[src] - grid.points[dest])
    target = (base - evaluate_cost(cost, grid.points[src] - grid.points)).max()
    for _ in range(ulps):
        target = np.nextafter(target, -np.inf)
    base[dest] = target + move
    while base[dest] - move > target:
        base[dest] = np.nextafter(base[dest], -np.inf)
    while base[dest] - move < target:
        base[dest] = np.nextafter(base[dest], np.inf)


@pytest.mark.parametrize("k", [0.5, 10.0, 200.0])
@pytest.mark.parametrize("ulps", [0, 1, 2])
def test_greedy_settles_ulp_level_near_ties_as_the_dense_reference(k, ulps):
    # the single-elite presets decide some sources by one ulp of the peak value
    grid, cost = ps.build_grid(201), ps.CostSpec.quadratic(k)
    rng = np.random.default_rng(ulps)
    base = np.cumsum(rng.normal(size=grid.n)) / 10.0
    for src, dest in rng.integers(0, grid.n, size=(40, 2)):
        plant_near_tie(base, cost, grid, src, dest, ulps)
    assert_greedy_is_dense(base, cost, grid)
    assert_greedy_is_dense(base, cost, grid, rng.integers(0, grid.n, size=50))
    assert fallbacks_of(base, cost, grid) == 0


@pytest.mark.parametrize("factor, fallbacks", [(1.001, 0), (0.999, 1)])
def test_greedy_at_the_margin_threshold(factor, fallbacks):
    # k h^2 > 2 err, err = 2^-51 (max|b| + 3k) + 2^-1022: just above it the monotone scan is
    # exact, and just below it the full-row scan takes over
    grid = ps.build_grid(101)
    base = np.repeat([0.0, 1.0, 0.5, 1.0, 0.25], [20, 20, 21, 20, 20])
    h = np.diff(grid.points).min()
    threshold = (2.0**-50 * np.abs(base).max() + 2.0**-1021) / (h * h - 6.0 * 2.0**-51)
    cost = ps.CostSpec.quadratic(factor * threshold)
    assert fallbacks_of(base, cost, grid) == fallbacks
    assert_greedy_is_dense(base, cost, grid)
    assert_greedy_is_dense(base, cost, grid, np.arange(0, grid.n, 7))


def test_greedy_with_a_custom_cost_takes_the_fallback():
    grid = ps.build_grid(101)
    cost = ps.CostSpec.from_function(lambda x: 3.0 * x**1.5 + 2.0 * x**4)
    base = np.round(np.random.default_rng(0).normal(size=grid.n), 1)
    assert fallbacks_of(base, cost, grid) == 1
    assert_greedy_is_dense(base, cost, grid)
    assert_greedy_is_dense(base, cost, grid, np.array([50, 3, 3, 99]))


@pytest.mark.parametrize("k", [0.0, 10.0])
@pytest.mark.parametrize(
    "planted", [{7: np.nan}, {7: np.nan, 60: np.nan}, {7: np.inf}, {7: np.inf, 60: np.inf}, {7: -np.inf}],
    ids=["nan", "two-nans", "inf", "two-infs", "minus-inf"],
)
def test_greedy_with_a_non_finite_base(k, planted):
    grid = ps.build_grid(101)
    base = np.random.default_rng(1).normal(size=grid.n)
    base[list(planted)] = list(planted.values())
    cost = ps.CostSpec.quadratic(k)
    assert_greedy_is_dense(base, cost, grid)
    assert_greedy_is_dense(base, cost, grid, np.array([60, 7, 0, 100, 7]))


def test_certified_gaps_are_lower_bounds_of_the_exact_gaps():
    # value iteration through CertifiedSteps: full calls record lower bounds,
    # certificates chain them, and each recorded gap is at most the exact one
    params, cost, grid = ps.ModelParams(pi=0.7, beta=0.9, H=1.0), ps.CostSpec.quadratic(10.0), ps.build_grid(201)
    stages = stage_payoffs(params, grid)
    steps = CertifiedSteps(params.beta, stages, cost, grid)
    v = [np.zeros(grid.n), np.zeros(grid.n)]
    for step in range(60):
        continuation = params.pi * v[1] + (1.0 - params.pi) * v[0]
        _, v = steps(continuation)
        for s, stage in enumerate(stages):
            exact = np.empty(grid.n)
            greedy(stage + params.beta * continuation, cost, grid, s == 1, exact)
            assert not (steps._gap[step % kernel._RING, s] > exact).any()
    assert steps.rescored_sources > 0 and steps.dense_calls < 2 * 60


def test_solvers_hold_no_n_by_n_array():
    params, cost, grid = ps.ModelParams(pi=0.5, beta=0.9, H=1.0), ps.CostSpec.quadratic(10.0), ps.build_grid(2001)
    limit = grid.n * grid.n * 8 // 4
    tracemalloc.start()
    try:
        ps.solve_infinite(params, cost, grid)
        _, single = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sol = two_elite.mpe_solve(params, cost, grid)
        _, mpe = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        two_elite.check_no_deviation(params, cost, sol)
        _, check = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(single, mpe, check) < limit
