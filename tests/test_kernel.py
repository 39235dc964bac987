"""The kernel's greedy call against the dense reference: its tie pass, its reflection, the certified steps."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarsolve as ps
from polarsolve import kernel, two_elite
from polarsolve.kernel import CertifiedSteps, greedy, greedy_step, stage_payoffs
from polarsolve.grids import mirror_closed
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


def assert_tied_step(steps, stages, u, grid, calls):
    """One CertifiedSteps step at k = 0 against the dense reference, with `calls` full calls made so far.

    idx and best are the reference's bit for bit; the ring's gaps are
    greedy's bit for bit and the reference's in value: at a tie of -0.0
    and +0.0 the reference's gap is fl(-0.0 - 0.0) = -0.0, greedy's +0.0.
    """
    slot = steps._steps % kernel._RING
    idx, best = steps(u)
    costmat = cost_matrix(steps.cost, grid)
    for s, stage in enumerate(stages):
        base, gap, want_gap = stage + steps.beta * u, np.empty(grid.n), np.empty(grid.n)
        want_idx, want_best = dense_greedy(base, costmat, grid, s == 1, want_gap)
        greedy(base, steps.cost, grid, s == 1, gap)
        assert idx[s].tolist() == want_idx.tolist()
        assert bits(best[s]) == bits(want_best)
        assert bits(steps._gap[slot, s]) == bits(gap)
        assert np.array_equal(gap, want_gap, equal_nan=True)
    assert (steps.dense_calls, steps.rescored_sources) == (calls, 0)


def test_a_recurring_tie_set_keeps_its_destinations():
    # k = 0: every source ties, and a step with the last step's tie set makes no greedy call
    grid = ps.build_grid(41)
    cost = ps.CostSpec.quadratic(0.0)
    base = np.zeros(grid.n)
    base[[10, 30]] = 1.0
    steps = one_state(grid, cost)
    for _ in range(3):
        assert_step_is_greedy(steps(base), base, cost, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 0)


@pytest.mark.parametrize("change", ["gains", "loses", "moves", "nan", "lone-inf"])
def test_a_changed_tie_set_is_scored_again(change):
    grid = ps.build_grid(41)
    steps = one_state(grid, ps.CostSpec.quadratic(0.0))
    stages = steps.stages
    base = np.zeros(grid.n)
    base[[10, 30]] = 1.0
    assert_tied_step(steps, stages, base, grid, calls=1)
    changed = base.copy()
    if change == "gains":
        changed[20] = 1.0
    elif change == "loses":
        changed[30] = 0.5
    elif change == "moves":  # the same size, one member moved
        changed[30], changed[31] = 0.5, 1.0
    else:
        changed[20] = np.nan if change == "nan" else np.inf
    assert_tied_step(steps, stages, changed, grid, calls=2)
    # the changed set recurs; a NaN base has no tie set and is scored again
    assert_tied_step(steps, stages, changed, grid, calls=3 if change == "nan" else 2)


def tie_sets(n):
    """Sets of grid indices: any, or the pair 1/2 -+ d, which only the preferred side settles."""
    half = n // 2
    return st.sets(st.integers(0, n - 1), min_size=1, max_size=n) | st.integers(1, half).map(
        lambda d: {half - d, half + d}
    )


@settings(max_examples=100, deadline=None)
@given(half=st.integers(min_value=1, max_value=30), mirror=st.booleans(), data=st.data())
def test_tie_set_certificates_equal_the_dense_reference(half, mirror, data):
    # k = 0 steps whose tie sets recur or change, with +0.0 and -0.0 at the top; at pi = 1/2 with a
    # palindromic u the states mirror and state 1 is reflected, otherwise both states are scored
    grid, cost = ps.build_grid(2 * half + 1), ps.CostSpec.quadratic(0.0)
    n = grid.n
    # -0.0 adds nothing, so each base is u bit for bit, or u one lower where stage 1 is -1
    stages = [np.full(n, -0.0), np.full(n, -0.0)]
    if not mirror:
        stages[1] = -np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    steps = CertifiedSteps(1.0, stages, cost, grid)
    top, last, calls = data.draw(tie_sets(n)), [None, None], 0
    for _ in range(data.draw(st.integers(min_value=2, max_value=6))):
        if data.draw(st.booleans()):  # a new top set, else the last one under new lower values
            top = data.draw(tie_sets(n))
        u = np.array(data.draw(st.lists(st.integers(-3, -1), min_size=n, max_size=n)), dtype=float)
        signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        u[sorted(top)] = np.where(np.array(signs)[sorted(top)], -0.0, 0.0)
        if mirror:
            u[half + 1 :] = u[:half][::-1]
        bases = [stage + u for stage in stages]
        # the counters count the full calls: one per scored state whose tie set is not the last step's
        reflected = kernel._mirrors(*bases, True)
        for s, base in enumerate(bases):
            ties = np.flatnonzero(base == base.max())
            if s == 1 and reflected:
                last[1] = None
                continue
            calls += last[s] is None or not np.array_equal(ties, last[s])
            last[s] = ties
        assert_tied_step(steps, stages, u, grid, calls)


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


CUSTOM = ps.CostSpec.from_function(lambda x: 3.0 * x**1.5 + 2.0 * x**4)
COSTS = st.sampled_from([0.0, 1e-3, 0.5, 10.0, 200.0, 1e4]).map(ps.CostSpec.quadratic) | st.just(CUSTOM)


def reflected(idx, best, gap):
    """A greedy result reflected through p -> 1 - p: source i's entry from source n - 1 - i, the move mirrored."""
    return (idx.size - 1 - idx[::-1]).tolist(), bits(best[::-1]), bits(gap[::-1])


@settings(max_examples=150, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=60),
    cost=COSTS,
    levels=st.integers(min_value=1, max_value=60),
    prefer_right=st.booleans(),
    straddle=st.integers(min_value=0, max_value=60),
    data=st.data(),
)
def test_greedy_reflects_through_one_minus_p(half, cost, levels, prefer_right, straddle, data):
    # few levels plant ties; a straddle d > 0 ties 1/2 -+ d, equally far, from 1/2
    grid = ps.build_grid(2 * half + 1)
    base = np.array(data.draw(st.lists(st.integers(0, levels), min_size=grid.n, max_size=grid.n))) / levels
    d = straddle % (half + 1)
    if d:
        base[grid.mid] = 0.0
        base[grid.mid - d] = base[grid.mid + d] = 2.0
    want_gap, gap, bound = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    want = dense_greedy(base, cost_matrix(cost, grid), grid, prefer_right, want_gap)
    mirror = base[::-1].copy()
    got = greedy(mirror, cost, grid, not prefer_right, gap)
    assert (got[0].tolist(), bits(got[1]), bits(gap)) == reflected(*want, want_gap)
    # the lower bounds of one state, reflected, bound the other's exact gaps
    greedy(base, cost, grid, prefer_right, bound, exact=False)
    assert not (bound[::-1] > gap).any()


@pytest.mark.parametrize("prefer_right", [False, True])
def test_reflected_straddle_tie_goes_to_the_other_side(prefer_right):
    grid = ps.build_grid(21)
    mid, d = grid.mid, 3
    base = np.zeros(grid.n)
    base[mid - d] = base[mid + d] = 1.0
    cost = ps.CostSpec.quadratic(1.0)
    idx, _ = greedy(base, cost, grid, prefer_right)
    mirrored, _ = greedy(base[::-1].copy(), cost, grid, not prefer_right)
    assert idx[mid] == (mid + d if prefer_right else mid - d)
    assert mirrored[mid] == grid.n - 1 - idx[mid]


@pytest.mark.parametrize("bad", ["first", "inner", "nan", "inf", "minus-inf", "signed-zero", "grid"])
def test_reflection_refuses_what_is_not_a_mirror(bad):
    grid = ps.build_grid(21)
    base0 = np.random.default_rng(2).normal(size=grid.n)
    base1 = base0[::-1].copy()
    assert kernel._mirrors(base0, base1, mirror_closed(grid))
    if bad in ("first", "inner"):  # the O(1) test, then the whole comparison
        at = 0 if bad == "first" else 7
        base1[at] = np.nextafter(base1[at], np.inf)
    elif bad == "signed-zero":
        base0[4], base1[grid.n - 5] = 0.0, -0.0
        assert np.array_equal(base1, base0[::-1])
    elif bad == "grid":
        points = np.linspace(0.0, 1.0, grid.n)
        grid = ps.Grid(points=points, n=grid.n, step=points[1])
        assert not mirror_closed(grid)
    else:
        base0[4] = base1[grid.n - 5] = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf}[bad]
    assert not kernel._mirrors(base0, base1, mirror_closed(grid))


def assert_step_is_dense(stages, cost, continuation, grid, beta, calls):
    """greedy_step's idx, best and gaps equal one dense_greedy call per state, with `calls` greedy calls made."""
    costmat, gaps = cost_matrix(cost, grid), np.empty((2, grid.n))
    with np.errstate(invalid="ignore"):  # inf - inf: the gap of tied infinite scores
        with mock.patch.object(kernel, "greedy", wraps=kernel.greedy) as spy:
            idx, best = greedy_step(beta, stages, cost, continuation, grid, gaps)
        for s, stage in enumerate(stages):
            want_gap = np.empty(grid.n)
            want_idx, want_best = dense_greedy(stage + beta * continuation, costmat, grid, s == 1, want_gap)
            assert idx[s].tolist() == want_idx.tolist()
            assert bits(best[s]) == bits(want_best)
            assert bits(gaps[s]) == bits(want_gap)
    assert spy.call_count == calls


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=60),
    cost=COSTS,
    levels=st.integers(min_value=1, max_value=60),
    beta=st.floats(min_value=0.01, max_value=0.99),
    H=st.floats(min_value=0.1, max_value=5.0),
    data=st.data(),
)
def test_greedy_step_on_a_palindrome_scores_one_state(half, cost, levels, beta, H, data):
    # pi = 1/2: the stages mirror each other, and a palindromic continuation makes the bases mirror too
    grid = ps.build_grid(2 * half + 1)
    stages = stage_payoffs(ps.ModelParams(pi=0.5, beta=beta, H=H), grid)
    half_table = np.array(data.draw(st.lists(st.integers(0, levels), min_size=grid.n, max_size=grid.n))) / levels
    continuation = half_table + half_table[::-1]
    assert_step_is_dense(stages, cost, continuation, grid, beta, calls=1)


@pytest.mark.parametrize("planted", [np.nan, np.inf, -0.0], ids=["nan", "inf", "signed-zero"])
def test_greedy_step_scores_both_states_where_the_reflection_refuses(planted):
    grid, cost, beta = ps.build_grid(41), ps.CostSpec.quadratic(10.0), 0.9
    stages = stage_payoffs(ps.ModelParams(pi=0.5, beta=beta, H=1.0), grid)
    continuation = np.abs(grid.points - 0.5)
    continuation[[6, grid.n - 7]] = planted
    if planted == 0.0:  # -0.0 in both, +0.0 and -0.0 stages: the bases differ in one sign bit
        stages = [np.zeros(grid.n), np.zeros(grid.n)]
        stages[1][6] = -0.0
    assert_step_is_dense(stages, cost, continuation, grid, beta, calls=2)


def test_certified_steps_reflect_at_pi_one_half():
    # the MPE recursion at pi = 1/2 keeps A's waiting values palindromic: every step scores state 0 only
    params, cost, grid = ps.ModelParams(pi=0.5, beta=0.9, H=1.0), ps.CostSpec.quadratic(10.0), ps.build_grid(201)
    with mock.patch.object(kernel, "greedy", wraps=kernel.greedy) as spy:
        sol = two_elite.mpe_solve(params, cost, grid)
    assert np.array_equal(sol.uA, sol.uA[::-1])
    assert spy.call_count > 0 and not any(call.args[3] for call in spy.call_args_list)  # prefer_right: state 1
    assert 0 < sol.dense_calls < sol.horizon_used


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
