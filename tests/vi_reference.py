"""Value iteration run until the tables repeat bit for bit.

This is the loop `single_elite.solve_infinite` ran before it switched to
modified policy iteration, with the tolerance stop replaced by an exact
repeat: Bellman sweeps from zero tables, each one `kernel.greedy` per
state, nothing else. The policy is extracted afterwards against the
repeated tables, not read off the last sweep, with each source's exact
gap between its best and runner-up score. Each state is scored by its own
greedy call, never read off the other by reflection as
`kernel.greedy_step` does where the states mirror each other. The tests
that compare `solve_infinite` with it check that the faster solver, from
its other start and with its reflected states, lands on the same float
tables, policy and margins.
"""

import numpy as np

from polarsolve.kernel import greedy, stage_payoffs
from polarsolve.single_elite import PolicyTable


def _sweep(params, stages, cost, continuation, grid, gaps=None):
    """(idx, best) of one Bellman sweep, one greedy call per state; gaps, if given, gets a row per state."""
    idx, best = [], []
    for s, stage in enumerate(stages):
        gap = None if gaps is None else gaps[s]
        i, b = greedy(stage + params.beta * continuation, cost, grid, s == 1, gap)
        idx.append(i)
        best.append(b)
    return idx, best


def vi_reference(params, cost, grid, max_sweeps=100_000):
    """(v0, v1, policy, gaps, sweeps) at the first table that a sweep returns unchanged.

    gaps has one row per state: best minus runner-up score, 0 where a tie was settled.
    """
    stages = stage_payoffs(params, grid)
    v0, v1 = np.zeros(grid.n), np.zeros(grid.n)
    for sweeps in range(1, max_sweeps + 1):
        continuation = params.pi * v1 + (1.0 - params.pi) * v0
        _, (new0, new1) = _sweep(params, stages, cost, continuation, grid)
        if np.array_equal(new0, v0) and np.array_equal(new1, v1):
            gaps = np.empty((2, grid.n))
            idx, _ = _sweep(params, stages, cost, continuation, grid, gaps)
            policy = PolicyTable(grid=grid, sigma0=grid.points[idx[0]], sigma1=grid.points[idx[1]])
            return v0, v1, policy, gaps, sweeps
        v0, v1 = new0, new1
    raise AssertionError(f"no bitwise repeat within {max_sweeps} sweeps")
