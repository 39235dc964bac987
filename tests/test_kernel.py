"""The kernel's source-subset greedy call and the certified backward steps."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarsolve as ps
from polarsolve import kernel
from polarsolve.kernel import CertifiedSteps, cost_matrix, greedy


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
    costmat = cost_matrix(ps.CostSpec.quadratic(k), grid)
    with mock.patch.object(kernel, "_BLOCK_BYTES", block * 8 * grid.n):
        for prefer_right in (False, True):
            full_gap, gap = np.empty(grid.n), np.empty(rows.size)
            full_idx, full_best = greedy(base, costmat, grid, prefer_right, full_gap)
            idx, best = greedy(base, costmat, grid, prefer_right, gap, rows=rows)
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
    costmat = cost_matrix(ps.CostSpec.quadratic(1.0), grid)
    idx, _ = greedy(base, costmat, grid, prefer_right, rows=np.array([mid, 0]))
    full, _ = greedy(base, costmat, grid, prefer_right)
    assert idx[0] == (mid + d if prefer_right else mid - d)
    assert idx.tolist() == [full[mid], full[0]]


def peaked_base(grid, top):
    """A base falling by 100 per grid step away from index top: every source's best is top, by far."""
    return -100.0 * np.abs(np.arange(grid.n) - top)


def one_state(grid, costmat):
    # beta = 1 and a zero stage make each step's base its continuation, bit for bit
    return CertifiedSteps(1.0, [np.zeros(grid.n)], costmat, grid)


def assert_step_is_greedy(got, base, costmat, grid):
    (idx,), (best,) = got
    want_idx, want_best = greedy(base, costmat, grid, prefer_right=False)
    assert idx.tolist() == want_idx.tolist()
    assert bits(best) == bits(want_best)


def test_certificate_refuses_a_runner_up_within_the_slop():
    grid = ps.build_grid(41)
    costmat = cost_matrix(ps.CostSpec.quadratic(1.0), grid)
    top, src = 20, 5
    base = peaked_base(grid, top)
    # Raise the score of destination top + 1 from source src until it sits just
    # below the best: a float gap of about one ulp of the scores.
    base[top + 1] = base[top] - costmat[src, top] + costmat[src, top + 1]
    while base[top + 1] - costmat[src, top + 1] >= base[top] - costmat[src, top]:
        base[top + 1] = np.nextafter(base[top + 1], -np.inf)
    steps = one_state(grid, costmat)
    assert_step_is_greedy(steps(base), base, costmat, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 0)
    # The same continuation again: every other source keeps its destination
    # with a gap far above the slop; only src is scored again.
    assert_step_is_greedy(steps(base), base, costmat, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 1)
    # A shift of the bases that keeps every strict winner certifies them all again.
    shifted = base + 1e-9 * np.arange(grid.n)
    assert_step_is_greedy(steps(shifted), shifted, costmat, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (1, 2)


def test_certificate_refuses_a_nan_base():
    grid = ps.build_grid(41)
    costmat = cost_matrix(ps.CostSpec.quadratic(1.0), grid)
    base = peaked_base(grid, 20)
    steps = one_state(grid, costmat)
    steps(base)
    nan_base = base.copy()
    nan_base[7] = np.nan
    # the certificate itself: a NaN in D fails every comparison
    assert steps._certified(0, nan_base, 0) is None
    assert_step_is_greedy(steps(nan_base), nan_base, costmat, grid)
    # no source is certified, so the whole state is scored again
    assert (steps.dense_calls, steps.rescored_sources) == (2, 0)


def test_ties_are_never_certified():
    # k = 0: every source ties, so no bound is positive and every step is dense
    grid = ps.build_grid(41)
    costmat = cost_matrix(ps.CostSpec.quadratic(0.0), grid)
    base = np.zeros(grid.n)
    base[[10, 30]] = 1.0
    steps = one_state(grid, costmat)
    for _ in range(3):
        assert_step_is_greedy(steps(base), base, costmat, grid)
    assert (steps.dense_calls, steps.rescored_sources) == (3, 0)
