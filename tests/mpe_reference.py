"""Two-elite backward induction that solves both elites independently.

This is the loop `two_elite.mpe_solve` ran before it solved elite A alone
and read B's tables off by reflection through p -> 1 - p: every step
solves all four movers (per column, with the tie ladder of
`tie_reference`) and refreshes both waiting values from the opponent's
policy. `mpe_reference` stops on the residual or at the exact 2-cycle in
the same way as `mpe_solve`, and tests compare every `MpeSolution` field
against it bit for bit.
"""

import numpy as np

from polarsolve.model import implemented_policy
from polarsolve.single_elite import _cost_matrix
from polarsolve.two_elite import MpeSolution
from tie_reference import greedy_by_column

ELITES = ("A", "B")


def _preferred(elite, s):
    return s if elite == "A" else 1 - s


def reference_steps(params, cost, grid):
    """Endless backward induction; yields (v, u, idx, residual) after each step.

    v and idx are keyed by (elite, s), u by elite.
    """
    pi, beta, pts = params.pi, params.beta, grid.points
    costmat = _cost_matrix(cost, grid)
    movers = [(e, s) for e in ELITES for s in (0, 1)]
    stage = {}
    for elite, s in movers:
        pref = _preferred(elite, s)
        stage[(elite, s)] = params.H * (implemented_policy(pts, pref) == pref)
    waiting_stage = {}
    for elite, rival in (("A", "B"), ("B", "A")):
        for s in (0, 1):
            landed = implemented_policy(pts, _preferred(rival, s))
            waiting_stage[(elite, s)] = params.H * (landed == _preferred(elite, s))
    v = {m: np.zeros(grid.n) for m in movers}
    u = {e: np.zeros(grid.n) for e in ELITES}
    while True:
        new_v, idx, new_u, changes = {}, {}, {}, []
        for elite, s in movers:
            scores = (stage[(elite, s)] + beta * u[elite])[:, None] - costmat
            prefer_right = _preferred(elite, s) == 1
            idx[(elite, s)], new_v[(elite, s)] = greedy_by_column(scores, grid, prefer_right)
            changes.append(np.abs(new_v[(elite, s)] - v[(elite, s)]).max())
        for elite, rival in (("A", "B"), ("B", "A")):
            continuation = pi * new_v[(elite, 1)] + (1.0 - pi) * new_v[(elite, 0)]
            fresh = np.zeros(grid.n)
            for s in (0, 1):
                landing = idx[(rival, s)]
                prob = pi if s == 1 else 1.0 - pi
                fresh = fresh + prob * (
                    waiting_stage[(elite, s)][landing] + beta * continuation[landing]
                )
            changes.append(np.abs(fresh - u[elite]).max())
            new_u[elite] = fresh
        v, u = new_v, new_u
        yield v, u, idx, float(np.max(changes))


def mpe_reference(params, cost, grid, horizon=600, residual_tol=1e-10):
    cycle_period = cycle_entered_at = None
    recent = []  # (v, u, idx) of the last three steps
    for steps, (v, u, idx, residual) in enumerate(reference_steps(params, cost, grid), start=1):
        recent = recent[-2:] + [(v, u, idx)]
        if residual <= residual_tol:
            cycle_period = 1
            break
        if len(recent) == 3 and all(np.array_equal(u[e], recent[0][1][e]) for e in ELITES):
            cycle_period, cycle_entered_at = 2, steps - 2
            if (horizon - steps) % 2:
                v, u, idx = recent[1]
            break
        if steps == horizon:
            break
    pts = grid.points
    return MpeSolution(
        grid=grid,
        vA0=v[("A", 0)],
        vA1=v[("A", 1)],
        uA=u["A"],
        vB0=v[("B", 0)],
        vB1=v[("B", 1)],
        uB=u["B"],
        sigmaA0=pts[idx[("A", 0)]],
        sigmaA1=pts[idx[("A", 1)]],
        sigmaB0=pts[idx[("B", 0)]],
        sigmaB1=pts[idx[("B", 1)]],
        horizon_used=steps,
        residual=residual,
        converged=residual <= residual_tol,
        cycle_period=cycle_period,
        cycle_entered_at=cycle_entered_at,
    )
