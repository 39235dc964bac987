"""Two-elite solvers: the two-period leader/follower game and the
infinite-horizon alternating-mover equilibrium.

Elite A wants the implemented policy to match the state, elite B wants it
to mismatch; both share the cost technology and the discount factor. The
mover at an exact half split implements its own preferred policy.

The long-horizon equilibrium is computed by backward induction with a
long horizon (600 periods by default) rather than by asserting a
stationary fixed point: each backward step first solves the movers'
problems against the current waiting values, then refreshes the waiting
values by plugging the opponent's newly computed policy. The waiting
values are the whole state of that map, so the recursion can stop
early without changing its result. An early-stop residual detects
stationarity (cycle period 1). For many cost levels the recursion
instead enters an exact cycle: once the waiting values equal, bit for
bit, those of P >= 2 steps earlier, every later step repeats one of the
last P, so the solver steps on to the phase the full horizon would end
on and stops there (cycle period P). A state that recurs one step later
is left to the residual stop: the next step then moves nothing.

B is A with the roles swapped. In state s, B's problem is A's problem in
state s reflected through p -> 1 - p, at any pi: B's stage and waiting
payoffs at 1 - p equal A's at p, grid displacements and hence costs are
exact under the reflection, and the kernel's tie rule is mirror-symmetric,
since A prefers the right in the state where B prefers the left. On
mirror-closed grids, such as those of build_grid, B's tables are
therefore A's reversed bit for bit (vB_s = vA_s[::-1], uB = uA[::-1],
idxB_s = (n - 1) - idxA_s[::-1]), so the backward induction solves A
alone and reads B off by reversal; check_no_deviation re-solves B.

A backward step reuses a source's destination from a recent step when
the kernel's certificate proves that it still wins strictly, with float
rounding bounded. A strict winner is what the full maximisation returns,
so no table moves: the certificate saves scoring, not precision.
"""

from __future__ import annotations

import hashlib
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
from .kernel import (
    CandidateEvaluation,
    CertifiedSteps,
    best_candidate,
    expected_next,
    greedy_step,
    move_cost,
    stage_payoffs,
    sup_change,
)

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


def phi_continuation(params: ModelParams, cost: CostSpec, p0):
    """Leader's expected second-period payoff if it leaves opinion at p0 (a point or an array).

    Positions at least the flip threshold away from 1/2 are safe on one
    side: the follower will not pay to overturn them. Anything closer is
    flipped whenever the follower wants to, leaving the leader nothing.
    """
    delta = delta_threshold(cost, params.H)
    p = np.asarray(p0, dtype=float)
    return np.where(
        p <= 0.5 - delta,
        (1.0 - params.pi) * params.H,
        np.where(p >= 0.5 + delta, params.pi * params.H, 0.0),
    )


@dataclass(frozen=True)
class StackelbergSolution:
    """The leader's choice, arrays of the shape of the points it was asked at."""

    chosen: np.ndarray
    value: np.ndarray
    candidates: tuple[CandidateEvaluation, ...]
    phi_at_p0: np.ndarray


def stackelberg_solve(params: ModelParams, cost: CostSpec, p0, s1: int) -> StackelbergSolution:
    """Leader's two-period optimum over the four candidate positions, at p0 or an array of them.

    Inaction keeps the protected continuation (if any), the median grabs
    today's policy at the price of tomorrow's, and the two semi-lock
    points park opinion just outside the follower's profitable-flip band.
    Semi-lock points falling outside [0, 1] are infeasible and dropped;
    that depends on the flip threshold only, so every point has the same
    candidates. Everything is elementwise over the points.
    """
    H, beta, pi = params.H, params.beta, params.pi
    points = np.asarray(p0, dtype=float)
    delta = delta_threshold(cost, params.H)
    phi = phi_continuation(params, cost, points)
    candidates = [
        CandidateEvaluation(points, stage_payoff(s1, points, H) + beta * phi, INACTION),
        CandidateEvaluation(np.full(points.shape, 0.5), H - evaluate_cost(cost, points - 0.5), MEDIAN),
    ]
    right = 0.5 + delta
    if right <= 1.0:
        value = H * (s1 == 1) - evaluate_cost(cost, right - points) + beta * pi * H
        candidates.append(CandidateEvaluation(np.full(points.shape, right), value, SEMI_LOCK_RIGHT))
    left = 0.5 - delta
    if left >= 0.0:
        value = H * (s1 == 0) - evaluate_cost(cost, points - left) + beta * (1.0 - pi) * H
        candidates.append(CandidateEvaluation(np.full(points.shape, left), value, SEMI_LOCK_LEFT))
    return StackelbergSolution(*best_candidate(candidates, points), phi_at_p0=phi)


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
    # 1 for the residual stop, P >= 2 for an exact P-cycle, None if the horizon ran out.
    cycle_period: int | None = None
    # First step whose waiting values recur P steps later (exact cycle only).
    cycle_entered_at: int | None = None
    # Full greedy calls, sources rescored where a certificate failed, calls that took the full-row scan.
    dense_calls: int = 0
    rescored_sources: int = 0
    kernel_fallbacks: int = 0

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


def mpe_solve(
    params: ModelParams,
    cost: CostSpec,
    grid: Grid,
    horizon: int = 600,
    residual_tol: float = 1e-10,
) -> MpeSolution:
    """Backward induction on the alternating-mover Bellman system.

    All value tables start at zero. Each backward step computes the
    movers' values and greedy policies against the current waiting
    values, then refreshes the waiting values using the opponent's
    just-computed policy. Only elite A's tables are computed: B's are A's
    reflected through p -> 1 - p (see the module docstring), which needs
    a mirror-closed grid such as build_grid makes. Stops as soon as every
    value table moves by at most residual_tol in sup norm (cycle period
    1). The waiting values are the whole state of the recursion: once they
    repeat those of P >= 2 steps earlier bit for bit, every later step
    repeats one of the last P, so the solver runs on past the repeat to the
    horizon's phase and returns its tables and residual (cycle period P).
    Exhausting the horizon with a larger residual flags the solution as
    non-converged. The steps go through kernel.CertifiedSteps, which
    rescores only the sources whose destination at a recent step it cannot
    prove to still win strictly; its steps equal greedy_step's bit for
    bit, so the tables, the residual and the cycle are those of the dense
    recursion.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if not residual_tol > 0.0:
        raise ValueError(f"residual_tol must be positive, got {residual_tol}")
    pi, beta = params.pi, params.beta
    pts = grid.points
    if not np.array_equal(1.0 - pts, pts[::-1]):
        raise ValueError("mpe_solve needs a mirror-closed grid (1 - p on the grid for every p)")
    last = grid.n - 1
    stage = stage_payoffs(params, grid)
    # Payoff to A, waiting, when B lands on each point in state s.
    waiting_stage = [
        params.H * (implemented_policy(pts, _preferred(ELITE_B, s)) == s) for s in (0, 1)
    ]

    v = [np.zeros(grid.n), np.zeros(grid.n)]
    u = np.zeros(grid.n)
    residual = math.inf
    cycle_period = cycle_entered_at = None
    seen = {}  # digest of A's waiting values -> the first step that left them
    sweep = CertifiedSteps(beta, stage, cost, grid)
    steps, end = 0, horizon
    while steps < end:
        new_idx, new_v = sweep(u)
        # A waits while B moves; B's landing from p is the mirror of A's from 1 - p.
        continuation = expected_next(pi, *new_v)
        fresh = np.zeros(grid.n)
        for s in (0, 1):
            landing = last - new_idx[s][::-1]
            prob = pi if s == 1 else 1.0 - pi
            fresh = fresh + prob * (waiting_stage[s][landing] + beta * continuation[landing])
        # B's changes mirror A's and have the same sup norm.
        residual = sup_change([*new_v, fresh], [*v, u])
        v, u, policy_idx = new_v, fresh, new_idx
        steps += 1
        if residual <= residual_tol:
            cycle_period, cycle_entered_at = 1, None
            break
        if cycle_period is None:
            # Equal bytes, equal future; np.array_equal would equate -0.0 and 0.0.
            first = seen.setdefault(hashlib.sha256(u.tobytes()).digest(), steps)
            if steps - first >= 2:
                # The next step's residual is the cycle's one not yet seen.
                cycle_period, cycle_entered_at = steps - first, first
                end = min(horizon, steps + 1 + (horizon - steps - 1) % cycle_period)
    return MpeSolution(
        grid=grid,
        vA0=v[0],
        vA1=v[1],
        uA=u,
        vB0=v[0][::-1].copy(),
        vB1=v[1][::-1].copy(),
        uB=u[::-1].copy(),
        sigmaA0=pts[policy_idx[0]],
        sigmaA1=pts[policy_idx[1]],
        sigmaB0=pts[last - policy_idx[0][::-1]],
        sigmaB1=pts[last - policy_idx[1][::-1]],
        horizon_used=steps,
        residual=residual,
        converged=residual <= residual_tol,
        cycle_period=cycle_period,
        cycle_entered_at=cycle_entered_at,
        dense_calls=sweep.dense_calls,
        rescored_sources=sweep.rescored_sources,
        kernel_fallbacks=sweep.fallbacks[0],
    )


def _reject(bad: np.ndarray, values: np.ndarray, grid: Grid, what: str, why: str) -> None:
    """Raise ValueError naming the first grid point where bad holds and the value there."""
    at = np.flatnonzero(bad)
    if at.size:
        p, value = float(grid.points[at[0]]), float(values[at[0]])
        raise ValueError(f"{what} at p={p!r} is {value!r}, {why}")


def check_no_deviation(params: ModelParams, cost: CostSpec, sol: MpeSolution) -> float:
    """Largest one-step improvement any mover can find in the solution.

    Re-runs every mover maximization against the solution's waiting-value
    tables and compares the best deviation both to the recorded mover
    value and to the value of playing the recorded policy. For a
    converged solution the gain is bounded by the residual; a corrupted
    value or policy entry shows up as a strictly positive gain, and one
    off the grid raises ValueError. So does a non-finite mover or waiting
    value: the gain would be NaN, or the maximum would drop it, and a NaN
    gain fails no `gain > tol` test. All four movers are re-solved
    independently: the A/B mirror that mpe_solve relies on is not
    assumed here, so a wrong B table shows up too.
    """
    grid = sol.grid
    stages = stage_payoffs(params, grid)
    worst = -math.inf
    for elite in (ELITE_A, ELITE_B):
        waiting = sol.waiting_values(elite)
        _reject(~np.isfinite(waiting), waiting, grid, f"elite {elite}: the waiting value u{elite}", "not finite")
        # The Bellman step's state s is the mover who prefers policy s.
        _, best = greedy_step(params.beta, stages, cost, waiting, grid)
        for s in (0, 1):
            pref = _preferred(elite, s)
            owner = f"elite {elite}, state {s}"
            mover = sol.mover_values(elite, s)
            _reject(~np.isfinite(mover), mover, grid, f"{owner}: the mover value v{elite}{s}", "not finite")
            moves = sol.moves(elite, s)
            recorded = np.minimum(np.searchsorted(grid.points, moves), grid.n - 1)
            _reject(grid.points[recorded] != moves, moves, grid, f"{owner}: the move", "not a grid point")
            played = stages[pref][recorded] + params.beta * waiting[recorded] - move_cost(cost, grid, recorded)
            gain = float(max((best[pref] - mover).max(), (best[pref] - played).max()))
            worst = max(worst, gain)
    return worst
