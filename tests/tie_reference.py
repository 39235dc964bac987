"""Per-column tie-breaking reference for the vectorised greedy kernel.

This is the ladder the solvers used point by point before it was
vectorised: highest score, then the smallest movement |p' - p|, then the
point closest to 1/2, then the mover's preferred side, then the lower
index. Tests compare `kernel.greedy`, the solvers' one grid kernel, against it.
"""

import numpy as np


def break_tie(tied: np.ndarray, src: int, grid, prefer_right: bool) -> int:
    pts = grid.points
    move = np.abs(pts[tied] - pts[src])
    tied = tied[move == move.min()]
    dist_mid = np.abs(pts[tied] - 0.5)
    tied = tied[dist_mid == dist_mid.min()]
    if tied.size > 1:
        # Equidistant pair straddling 1/2: take the mover's preferred side.
        side = tied[pts[tied] > 0.5] if prefer_right else tied[pts[tied] < 0.5]
        if side.size:
            tied = side
    return int(tied[0])


def greedy_by_column(scores: np.ndarray, grid, prefer_right: bool):
    """(idx, best) per source column, breaking each tie with break_tie."""
    best = scores.max(axis=0)
    idx = scores.argmax(axis=0)
    ties = (scores == best[None, :]).sum(axis=0)
    for i in np.flatnonzero(ties > 1):
        idx[i] = break_tie(np.flatnonzero(scores[:, i] == best[i]), i, grid, prefer_right)
    return idx, best
