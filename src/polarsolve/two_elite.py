"""Two-elite solvers: the two-period leader/follower game and the
infinite-horizon alternating-mover equilibrium.

Elite A wants the implemented policy to match the state, elite B wants it
to mismatch; both share the cost technology and the discount factor. The
mover at an exact half split implements its own preferred policy.

The long-horizon equilibrium is computed by backward induction with a
long horizon (600 periods by default) rather than by asserting a
stationary fixed point: each backward step first solves both movers'
problems against the current waiting values, then refreshes the waiting
values by plugging the opponent's newly computed policy. The waiting
values are the whole state of that map, so the recursion can stop
early without changing its result. An early-stop residual detects
stationarity (cycle period 1). For many cost levels the recursion
instead enters an exact 2-cycle: once the waiting values equal those of
two steps earlier bit for bit, the solver stops and returns the phase
the full horizon would end on, the current step's tables if the steps
left are even and the previous step's if odd (cycle period 2).

Tie-breaking is the single-elite module's vectorised ladder (smallest
movement, then toward 1/2, then the mover's preferred side), which makes
the role-swap mirror symmetry between the two elites exact on
mirror-closed grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import (
    CostSpec,
    ModelParams,
    delta_threshold,
    evaluate_cost,
    implemented_policy,
    stage_payoff,
)
from .single_elite import CandidateEvaluation, _cost_matrix, _greedy

INACTION = "inaction"
MEDIAN = "median"
SEMI_LOCK_RIGHT = "semi_lock_right"
SEMI_LOCK_LEFT = "semi_lock_left"

ELITE_A = "A"
ELITE_B = "B"


def _preferred(elite: str, s: int) -> int:
    """The policy an elite wants implemented when the state is s."""
    return s if elite == ELITE_A else 1 - s


def elite_b_response(params: ModelParams, cost: CostSpec, p1: float, s2: int) -> float:
    """Follower's last-period reply: stay, or nudge opinion to exactly 1/2.

    B stays when the standing policy already goes its way or when flipping
    costs more than it is worth; exact indifference resolves to staying.
    """
    preferred = 1 - s2
    if implemented_policy(p1, preferred) == preferred:
        return p1
    delta = delta_threshold(cost, params.H)
    if abs(0.5 - p1) < delta:
        return 0.5
    return p1


def phi_continuation(params: ModelParams, cost: CostSpec, p0: float) -> float:
    """Leader's expected second-period payoff if it leaves opinion at p0.

    Positions at least the flip threshold away from 1/2 are safe on one
    side: the follower will not pay to overturn them. Anything closer is
    flipped whenever the follower wants to, leaving the leader nothing.
    """
    delta = delta_threshold(cost, params.H)
    if p0 <= 0.5 - delta:
        return (1.0 - params.pi) * params.H
    if p0 >= 0.5 + delta:
        return params.pi * params.H
    return 0.0


@dataclass(frozen=True)
class StackelbergSolution:
    chosen: float
    value: float
    candidates: tuple[CandidateEvaluation, ...]
    phi_at_p0: float


def stackelberg_solve(params: ModelParams, cost: CostSpec, p0: float, s1: int) -> StackelbergSolution:
    """Leader's two-period optimum over the four candidate positions.

    Inaction keeps the protected continuation (if any), the median grabs
    today's policy at the price of tomorrow's, and the two semi-lock
    points park opinion just outside the follower's profitable-flip band.
    Semi-lock points falling outside [0, 1] are infeasible and dropped.
    """
    H, beta, pi = params.H, params.beta, params.pi
    phi = phi_continuation(params, cost, p0)
    delta = delta_threshold(cost, params.H)
    candidates = [
        CandidateEvaluation(p0, float(stage_payoff(s1, p0, H) + beta * phi), INACTION),
        CandidateEvaluation(0.5, float(H - evaluate_cost(cost, p0 - 0.5)), MEDIAN),
    ]
    if math.isfinite(delta):
        right = 0.5 + delta
        if right <= 1.0:
            value = H * (s1 == 1) - evaluate_cost(cost, right - p0) + beta * pi * H
            candidates.append(CandidateEvaluation(right, float(value), SEMI_LOCK_RIGHT))
        left = 0.5 - delta
        if left >= 0.0:
            value = H * (s1 == 0) - evaluate_cost(cost, p0 - left) + beta * (1.0 - pi) * H
            candidates.append(CandidateEvaluation(left, float(value), SEMI_LOCK_LEFT))
    best = max(
        candidates,
        key=lambda e: (e.objective, -abs(e.candidate - p0), -abs(e.candidate - 0.5)),
    )
    return StackelbergSolution(
        chosen=best.candidate,
        value=best.objective,
        candidates=tuple(candidates),
        phi_at_p0=phi,
    )


@dataclass(frozen=True)
class MpeSolution:
    grid: Grid
    vA0: np.ndarray
    vA1: np.ndarray
    uA: np.ndarray
    vB0: np.ndarray
    vB1: np.ndarray
    uB: np.ndarray
    sigmaA0: np.ndarray
    sigmaA1: np.ndarray
    sigmaB0: np.ndarray
    sigmaB1: np.ndarray
    horizon_used: int
    residual: float
    converged: bool
    # 1 for the residual stop, 2 for an exact 2-cycle, None if the horizon ran out.
    cycle_period: int | None = None
    # First step whose waiting values recur two steps later (2-cycle only).
    cycle_entered_at: int | None = None

    def mover_values(self, elite: str, s: int) -> np.ndarray:
        table = {("A", 0): self.vA0, ("A", 1): self.vA1, ("B", 0): self.vB0, ("B", 1): self.vB1}
        return table[(elite, s)]

    def waiting_values(self, elite: str) -> np.ndarray:
        return self.uA if elite == ELITE_A else self.uB

    def moves(self, elite: str, s: int) -> np.ndarray:
        table = {
            ("A", 0): self.sigmaA0,
            ("A", 1): self.sigmaA1,
            ("B", 0): self.sigmaB0,
            ("B", 1): self.sigmaB1,
        }
        return table[(elite, s)]


def _mover_stage(params: ModelParams, grid: Grid, elite: str, s: int) -> np.ndarray:
    pref = _preferred(elite, s)
    return params.H * (implemented_policy(grid.points, pref) == pref)


def mpe_solve(
    params: ModelParams,
    cost: CostSpec,
    grid: Grid,
    horizon: int = 600,
    residual_tol: float = 1e-10,
) -> MpeSolution:
    """Backward induction on the alternating-mover Bellman system.

    All value tables start at zero. Each backward step computes both
    movers' values and greedy policies against the current waiting
    values, then refreshes both waiting values using the opponent's
    just-computed policy. Stops as soon as every value table moves by at
    most residual_tol in sup norm (cycle period 1), or as soon as the
    waiting values repeat those of two steps earlier bit for bit (period
    2): the waiting values are the whole state of the recursion, so every
    later step would repeat one of the last two, and the one the full
    horizon would end on is returned. Exhausting the horizon with a
    larger residual flags the solution as non-converged.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if not residual_tol > 0.0:
        raise ValueError(f"residual_tol must be positive, got {residual_tol}")
    pi, beta = params.pi, params.beta
    pts = grid.points
    costmat = _cost_matrix(cost, grid)
    stage = {(e, s): _mover_stage(params, grid, e, s) for e in (ELITE_A, ELITE_B) for s in (0, 1)}
    # Payoff to the waiting elite when the opponent lands on each point,
    # by the waiting elite's identity and the realized state.
    waiting_stage = {}
    for elite in (ELITE_A, ELITE_B):
        opponent = ELITE_B if elite == ELITE_A else ELITE_A
        for s in (0, 1):
            landed_policy = implemented_policy(pts, _preferred(opponent, s))
            waiting_stage[(elite, s)] = params.H * (landed_policy == _preferred(elite, s))

    v = {(e, s): np.zeros(grid.n) for e in (ELITE_A, ELITE_B) for s in (0, 1)}
    u = {e: np.zeros(grid.n) for e in (ELITE_A, ELITE_B)}
    policy_idx = {(e, s): np.arange(grid.n) for e in (ELITE_A, ELITE_B) for s in (0, 1)}
    scratch = np.empty((grid.n, grid.n))
    residual = math.inf
    cycle_period = cycle_entered_at = None
    previous = earlier_u = None  # tables of the last step, waiting values of the one before
    steps = 0
    while steps < horizon:
        new_v, new_idx, new_u, changes = {}, {}, {}, []
        for elite in (ELITE_A, ELITE_B):
            for s in (0, 1):
                base = stage[(elite, s)] + beta * u[elite]
                np.subtract(base[:, None], costmat, out=scratch)
                idx, best = _greedy(scratch, grid, prefer_right=(_preferred(elite, s) == 1))
                changes.append(np.abs(best - v[(elite, s)]).max())
                new_v[(elite, s)] = best
                new_idx[(elite, s)] = idx
        for elite in (ELITE_A, ELITE_B):
            opponent = ELITE_B if elite == ELITE_A else ELITE_A
            continuation = pi * new_v[(elite, 1)] + (1.0 - pi) * new_v[(elite, 0)]
            fresh = np.zeros(grid.n)
            for s in (0, 1):
                landing = new_idx[(opponent, s)]
                prob = pi if s == 1 else 1.0 - pi
                fresh = fresh + prob * (
                    waiting_stage[(elite, s)][landing] + beta * continuation[landing]
                )
            changes.append(np.abs(fresh - u[elite]).max())
            new_u[elite] = fresh
        earlier_u = previous[1] if previous else None
        previous = (v, u, policy_idx)
        v, u, policy_idx = new_v, new_u, new_idx
        steps += 1
        # np.max, unlike the builtin max(0.0, nan), lets a NaN through.
        residual = float(np.max(changes))
        if residual <= residual_tol:
            cycle_period = 1
            break
        if earlier_u is not None and all(np.array_equal(u[e], earlier_u[e]) for e in u):
            # Later steps repeat the last two in turn: an odd number of steps
            # left ends on the previous step's tables. The residual between
            # consecutive steps is the same in both phases.
            cycle_period, cycle_entered_at = 2, steps - 2
            if (horizon - steps) % 2:
                v, u, policy_idx = previous
            break
    return MpeSolution(
        grid=grid,
        vA0=v[(ELITE_A, 0)],
        vA1=v[(ELITE_A, 1)],
        uA=u[ELITE_A],
        vB0=v[(ELITE_B, 0)],
        vB1=v[(ELITE_B, 1)],
        uB=u[ELITE_B],
        sigmaA0=pts[policy_idx[(ELITE_A, 0)]],
        sigmaA1=pts[policy_idx[(ELITE_A, 1)]],
        sigmaB0=pts[policy_idx[(ELITE_B, 0)]],
        sigmaB1=pts[policy_idx[(ELITE_B, 1)]],
        horizon_used=steps,
        residual=residual,
        converged=residual <= residual_tol,
        cycle_period=cycle_period,
        cycle_entered_at=cycle_entered_at,
    )


def check_no_deviation(params: ModelParams, cost: CostSpec, sol: MpeSolution) -> float:
    """Largest one-step improvement any mover can find in the solution.

    Re-runs every mover maximization against the solution's waiting-value
    tables and compares the best deviation both to the recorded mover
    value and to the value of playing the recorded policy. For a
    converged solution the gain is bounded by the residual; a corrupted
    value or policy entry shows up as a strictly positive gain.
    """
    grid = sol.grid
    costmat = _cost_matrix(cost, grid)
    sources = np.arange(grid.n)
    worst = -math.inf
    for elite in (ELITE_A, ELITE_B):
        waiting = sol.waiting_values(elite)
        for s in (0, 1):
            stage = _mover_stage(params, grid, elite, s)
            base = stage + params.beta * waiting
            best = (base[:, None] - costmat).max(axis=0)
            recorded = np.rint(sol.moves(elite, s) * (grid.n - 1)).astype(int)
            played = base[recorded] - costmat[recorded, sources]
            gain = float(
                max((best - sol.mover_values(elite, s)).max(), (best - played).max())
            )
            worst = max(worst, gain)
    return worst
