"""Two-elite backward induction that solves both elites independently.

This is the loop `two_elite.mpe_solve` ran before it solved elite A alone
and read B's tables off by reflection through p -> 1 - p: every step
solves all four movers (per column, with the tie ladder of
`tie_reference`) and refreshes both waiting values from the opponent's
policy. It runs to the horizon with no early exit but the residual stop,
and reads the cycle fields off the whole history afterwards, so the
tests that compare `mpe_solve` with it check the solver's exact-cycle
stop rather than repeat it.
"""

import dataclasses

import numpy as np

from polarsolve.model import implemented_policy
from dense_reference import cost_matrix
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
    costmat = cost_matrix(cost, grid)
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


def reference_history(params, cost, grid, horizon, residual_tol=1e-10):
    """Plain backward induction: the MpeSolution after every step.

    Runs to the horizon, or to the first step whose residual is at most
    residual_tol, with no other early exit. The cycle fields are left unset.
    """
    pts = grid.points
    history = []
    for steps, (v, u, idx, residual) in enumerate(reference_steps(params, cost, grid), start=1):
        history.append(
            MpeSolution(
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
            )
        )
        if residual <= residual_tol or steps == horizon:
            return history


def first_repeat(history):
    """(entered, period) of the first step whose state recurs P >= 2 steps later.

    The state is both elites' waiting values, compared as arrays. Returns
    None when no state in the history recurs that way.
    """
    uA = np.array([sol.uA for sol in history])
    uB = np.array([sol.uB for sol in history])
    for j in range(2, len(history)):
        earlier = np.flatnonzero((uA[: j - 1] == uA[j]).all(axis=1) & (uB[: j - 1] == uB[j]).all(axis=1))
        if earlier.size:
            # history[i] holds step i + 1
            return int(earlier[0]) + 1, j - int(earlier[0])
    return None


def mpe_reference(params, cost, grid, horizon=600, residual_tol=1e-10):
    """The last step of reference_history, with the cycle fields it shows."""
    history = reference_history(params, cost, grid, horizon, residual_tol)
    last = history[-1]
    if last.converged:
        return dataclasses.replace(last, cycle_period=1)
    repeat = first_repeat(history)
    if repeat is None:
        return last
    entered, period = repeat
    return dataclasses.replace(last, cycle_period=period, cycle_entered_at=entered)
