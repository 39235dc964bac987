"""Scoring and tie-breaking of moves, shared by every solver.

best_candidate picks among the two-period solvers' candidates; greedy
maximises over grid destinations, and every Bellman sweep is one
greedy_step. Both break ties by one rule, _wins_tie: at an equal score,
b beats a if it is closer to the source p; if equally close, if it is
closer to 1/2. best_candidate folds it over the candidates, so a full tie
keeps the first listed. In greedy only the nearest tied destination at or
below the source (lo) and the nearest at or above it (hi) can be closest;
the one on the mover's preferred side goes in as a, so it keeps a full
tie. Grid displacements are exact, so distinct points lo <= src <= hi tie
on both rungs only if src is 1/2 and they are 1/2 -+ d: that equidistant
pair goes to the mover's preferred side. The rule is symmetric under
p -> 1 - p with the preferred side swapped, so mirror symmetry of the
solutions is exact, not approximate.

Only this module reads the cost matrix. greedy takes its rows in blocks
within a fixed byte budget, so the matrix is the only n x n array a
solver holds; move_cost scores one given move per source without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import CostSpec, ModelParams, evaluate_cost, stage_payoff


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate move and its objective.

    Floats when the solver was called at one point; arrays over the
    points when it was called with an array of them.
    """

    candidate: float | np.ndarray
    objective: float | np.ndarray
    provenance: str


def _wins_tie(b, a, p):
    """Where b beats a at an equal score: closer to p, or as close and closer to 1/2."""
    move_b, move_a = np.abs(b - p), np.abs(a - p)
    return (move_b < move_a) | ((move_b == move_a) & (np.abs(b - 0.5) < np.abs(a - 0.5)))


def best_candidate(evaluations, p):
    """Per point, the highest objective; ties go by the module's tie rule, then to the first listed.

    evaluations hold arrays over the points p. Returns (candidate,
    objective, evaluations), as floats when p is one point.
    """
    best, top = evaluations[0].candidate, evaluations[0].objective
    for e in evaluations[1:]:
        better = (e.objective > top) | ((e.objective == top) & _wins_tie(e.candidate, best, p))
        best = np.where(better, e.candidate, best)
        top = np.where(better, e.objective, top)
    listed = tuple(
        CandidateEvaluation(like(p, e.candidate), like(p, e.objective), e.provenance) for e in evaluations
    )
    return like(p, best), like(p, top), listed


def like(p, out):
    """out, an array over the points of p, as a float when p is one point."""
    return float(out) if np.ndim(p) == 0 else out


def cost_matrix(cost: CostSpec, grid: Grid) -> np.ndarray:
    """costs[i, j] = c(p_i - p_j): row i holds every move out of source i.

    Grid displacements are exact and c depends on |x| only, so the matrix is exactly symmetric.
    """
    disp = grid.points[:, None] - grid.points[None, :]
    return evaluate_cost(cost, disp)


def move_cost(cost: CostSpec, grid: Grid, idx: np.ndarray) -> np.ndarray:
    """c(p_i - p_idx[i]) for every source i, bit-equal to both cost_matrix entries of the move."""
    return evaluate_cost(cost, grid.points - grid.points[idx])


def stage_payoffs(params: ModelParams, grid: Grid) -> list:
    """The mover's stage payoff at every grid point, for s = 0 and s = 1."""
    return [stage_payoff(s, grid.points, params.H) for s in (0, 1)]


# Bytes of scores the greedy kernel holds at once. A block of rows this
# size stays in a core's cache while it is reduced and tested for ties.
_BLOCK_BYTES = 256 * 1024


def greedy(
    base: np.ndarray,
    costmat: np.ndarray,
    grid: Grid,
    prefer_right: bool,
    gap: np.ndarray | None = None,
):
    """Per source i, the best destination j of base[j] - costmat[i, j].

    Returns (idx, best). A tied source goes to lo or hi by the tie rule
    (see the module docstring). A gap array, if given, receives each
    source's best score minus its runner-up: 0 exactly where a tie was
    settled. No n x n array of scores is ever formed.
    """
    n = base.size
    pts = grid.points
    rows = max(1, _BLOCK_BYTES // (8 * n))
    buf = np.empty((min(rows, n), n))
    best = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        scores = buf[: stop - start]
        np.subtract(base, costmat[start:stop], out=scores)
        r = np.arange(stop - start)
        block_idx = scores.argmax(axis=1)
        block_best = scores[r, block_idx]
        idx[start:stop] = block_idx
        best[start:stop] = block_best
        # A source is tied when its best score recurs with the argmax masked.
        scores[r, block_idx] = -np.inf
        runner_up = scores.max(axis=1)
        if gap is not None:
            np.subtract(block_best, runner_up, out=gap[start:stop])
        tied_rows = np.flatnonzero(runner_up == block_best)
        if not tied_rows.size:
            continue
        scores[r, block_idx] = block_best
        tied = (scores == block_best[:, None])[tied_rows]
        # Tied destinations of every tied source, as sorted positions in one
        # flat array: tied source r owns positions offset[r] to offset[r] + n - 1.
        counts = np.count_nonzero(tied, axis=1)
        pos = np.flatnonzero(tied)
        offset = np.arange(tied_rows.size) * n
        first = np.cumsum(counts) - counts  # where each source's run starts in pos
        src = start + tied_rows
        below = np.searchsorted(pos, offset + src, side="right") - 1
        above = np.searchsorted(pos, offset + src)
        # A source tied on one side of itself only keeps that side's destination.
        has_lo, has_hi = below >= first, above < first + counts
        lo = pos[np.where(has_lo, below, above)] - offset
        hi = pos[np.where(has_hi, above, below)] - offset
        near, far = (hi, lo) if prefer_right else (lo, hi)
        idx[src] = np.where(_wins_tie(pts[far], pts[near], pts[src]), far, near)
    return idx, best


def greedy_step(
    beta: float, stages: list, costmat: np.ndarray, continuation: np.ndarray, grid: Grid, gaps=None
):
    """One Bellman sweep over both states: (idx, best), one array each, as in greedy.

    The mover prefers the right in state 1. gaps, if given, has one row per state.
    """
    idx, best = [], []
    for s, stage in enumerate(stages):
        gap = None if gaps is None else gaps[s]
        i, b = greedy(stage + beta * continuation, costmat, grid, prefer_right=(s == 1), gap=gap)
        idx.append(i)
        best.append(b)
    return idx, best


def expected_next(pi: float, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Expected next-period value of each landing point, before the state draws."""
    return pi * v1 + (1.0 - pi) * v0


def sup_change(new: list, old: list) -> float:
    """Largest absolute change over a list of tables."""
    # np.max, unlike the builtin max(0.0, nan), lets a NaN through.
    return float(np.max([np.abs(a - b).max() for a, b in zip(new, old)]))
