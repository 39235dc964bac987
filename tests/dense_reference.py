"""The dense greedy kernel the solvers used before the monotone one.

It scores every move of every source against a stored n x n cost
matrix, keeps the first maximum and the runner-up per source, and settles a
tied source by the tie ladder of tie_reference over its whole row.
Tests compare `kernel.greedy` with it: idx, best and gap bit for bit.
"""

import numpy as np

from polarsolve.model import evaluate_cost
from tie_reference import break_tie


def cost_matrix(cost, grid):
    """costs[i, j] = c(p_i - p_j): row i holds every move out of source i."""
    return evaluate_cost(cost, grid.points[:, None] - grid.points[None, :])


def dense_greedy(base, costmat, grid, prefer_right, gap=None, rows=None):
    """(idx, best) per source (or per entry of rows), and best minus runner-up into gap."""
    sources = np.arange(base.size) if rows is None else np.asarray(rows)
    scores = base[None, :] - costmat[sources]
    r = np.arange(sources.size)
    idx = scores.argmax(axis=1)
    best = scores[r, idx].copy()
    scores[r, idx] = -np.inf
    runner_up = scores.max(axis=1)
    scores[r, idx] = best
    if gap is not None:
        gap[:] = best - runner_up
    for i in np.flatnonzero(runner_up == best):
        idx[i] = break_tie(np.flatnonzero(scores[i] == best[i]), sources[i], grid, prefer_right)
    return idx, best
