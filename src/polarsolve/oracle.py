"""Brute-force maximizers for validating the closed-form solvers.

These oracles only know the model primitives — the stage payoff, the cost
function, and the majority rule. They never reuse the solvers' region
logic or candidate sets, so agreement between an oracle and a solver is
evidence, not tautology. Ties always break to the lowest grid index,
which is deliberately different from the solvers' tie-breaking: tests
compare values, not argmax identity, when ties are possible, and
brute_force_one_step and brute_force_period2 count the points attaining
the maximum.

The period-2 problem is scored once: period2_response_tables keeps each
preference's max and lowest maximizer per landing point, the single
elite's continuation reads the max, and the rival's reply reads the
maximizer of the preference the rival holds. The two-period brute
forces take those tables and scan the grid they were built on. Every
scan over a set of starting points works in blocks of _BLOCK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import CostSpec, ModelParams, evaluate_cost, implemented_policy, stage_payoff


@dataclass(frozen=True)
class OracleResult:
    # Arrays of the starting points' shape; floats from brute_force_one_step.
    argmax: float | np.ndarray
    value: float | np.ndarray
    # Oracle points attaining the maximum, of which argmax is the lowest
    # (counted by brute_force_one_step and brute_force_period2 only).
    maximizers: int | np.ndarray | None = None


def brute_force_one_step(objective, oracle_grid: Grid) -> OracleResult:
    """Maximize a (vectorized) objective over every oracle grid point."""
    values = np.asarray(objective(oracle_grid.points), dtype=float)
    idx = int(np.argmax(values))
    return OracleResult(
        argmax=float(oracle_grid.points[idx]),
        value=float(values[idx]),
        maximizers=int(np.count_nonzero(values == values[idx])),
    )


@dataclass(frozen=True)
class TwoPeriodTables:
    """Second-period best responses, brute-forced on the oracle grid, per landing point p1."""

    grid: Grid
    best0: np.ndarray  # value of the period-2 problem per landing point, s2 = 0
    best1: np.ndarray  # same for s2 = 1
    reply0: np.ndarray  # its lowest maximizing oracle point, s2 = 0
    reply1: np.ndarray  # same for s2 = 1


# Bytes of one block of move costs. The response tables and the scans
# score their sources a block at a time, so they hold a few such blocks,
# never a sources x n array.
_BLOCK_BYTES = 1 << 19


def _cost_blocks(cost: CostSpec, pts: np.ndarray, sources: np.ndarray):
    """Yield (block, costs), costs[j, i] = c(pts[i] - x) for the j-th source x in sources[block].

    A row holds every move out of one source, so its max and first argmax
    do not depend on how the sources are blocked.
    """
    rows = max(1, _BLOCK_BYTES // (8 * pts.size))
    for start in range(0, sources.size, rows):
        block = slice(start, start + rows)
        yield block, evaluate_cost(cost, pts[None, :] - sources[block, None])


def period2_response_tables(params: ModelParams, cost: CostSpec, oracle_grid: Grid) -> TwoPeriodTables:
    """Enumerate the period-2 problem max_{p2} [R(s2, p2) - c(p2 - p1)] per p1.

    Each block of p1 is costed once and scored for both s2, for its max
    and its first argmax.
    """
    pts = oracle_grid.points
    stages = [stage_payoff(s2, pts, params.H) for s2 in (0, 1)]
    best = [np.empty(oracle_grid.n), np.empty(oracle_grid.n)]
    reply = [np.empty(oracle_grid.n, dtype=np.intp), np.empty(oracle_grid.n, dtype=np.intp)]
    for block, costs in _cost_blocks(cost, pts, pts):
        for s2 in (0, 1):
            scores = stages[s2] - costs
            reply[s2][block] = scores.argmax(axis=1)
            best[s2][block] = scores.max(axis=1)
    return TwoPeriodTables(oracle_grid, best[0], best[1], pts[reply[0]], pts[reply[1]])


def _scan(params: ModelParams, cost: CostSpec, p0, s: int, oracle_grid: Grid, later=None, count=False) -> OracleResult:
    """Maximize R(s, q) - c(q - p0) (+ later[q]) over the oracle points q, per p0.

    p0 is an array of starting points (a float is a 0-d array); the
    lowest-index argmax, the max and, if count, the number of maximizers
    come back in its shape.
    """
    pts = oracle_grid.points
    starts = np.asarray(p0, dtype=float)
    sources = starts.ravel()
    stage = stage_payoff(s, pts, params.H)
    idx = np.empty(sources.size, dtype=np.intp)
    value = np.empty(sources.size)
    ties = np.zeros(sources.size, dtype=np.intp)
    for block, costs in _cost_blocks(cost, pts, sources):
        values = stage - costs if later is None else stage - costs + later  # this order fixes the reported bits
        idx[block] = values.argmax(axis=1)
        value[block] = values.max(axis=1)
        if count:
            ties[block] = np.count_nonzero(values == value[block, None], axis=1)
    shape = starts.shape
    return OracleResult(pts[idx].reshape(shape), value.reshape(shape), ties.reshape(shape) if count else None)


def brute_force_period2(params: ModelParams, cost: CostSpec, p, s2: int, oracle_grid: Grid) -> OracleResult:
    """Exhaustive period-2 move max_q [R(s2, q) - c(q - p)], from one p or an array, maximizers counted."""
    return _scan(params, cost, p, s2, oracle_grid, count=True)


def brute_force_two_period_single(
    params: ModelParams, cost: CostSpec, p0, s1: int, tables: TwoPeriodTables
) -> OracleResult:
    """Exhaustive two-period solve for the single elite, from one p0 or an array of them.

    Every period-1 landing point on the tables' grid is scored as stage
    payoff minus cost plus discounted expectation of the (brute-forced)
    period-2 best-response value.
    """
    continuation = params.pi * tables.best1 + (1.0 - params.pi) * tables.best0
    return _scan(params, cost, p0, s1, tables.grid, params.beta * continuation)


@dataclass(frozen=True)
class RivalResponseTables:
    """Rival elite's brute-forced reply and the leader's resulting payoff."""

    grid: Grid
    leader_continuation: np.ndarray  # E_{s2}[leader stage payoff] per landing p1


def rival_response_tables(params: ModelParams, tables: TwoPeriodTables) -> RivalResponseTables:
    """The follower's brute-forced period-2 reply for every period-1 position on the tables' grid.

    The follower prefers policy 1 - s2 and, at an exact half split, gets
    to implement it, so it faces exactly the period-2 problem of
    preference 1 - s2: its reply is that problem's lowest maximizer, read
    from the period-2 tables. The leader's continuation averages its own
    payoff over s2 under those replies. Shares no code with the
    closed-form follower strategy.
    """
    expected = np.zeros(tables.grid.n)
    for s2, landed in ((0, tables.reply1), (1, tables.reply0)):
        leader_payoff = params.H * (implemented_policy(landed, 1 - s2) == s2)
        prob = params.pi if s2 == 1 else 1.0 - params.pi
        expected = expected + prob * leader_payoff
    return RivalResponseTables(grid=tables.grid, leader_continuation=expected)


def brute_force_stackelberg(
    params: ModelParams, cost: CostSpec, p0, s1: int, rivals: RivalResponseTables
) -> OracleResult:
    """Exhaustive two-period leader problem against the brute-forced follower, from one p0 or an array.

    The leader's landing points are the rivals' grid.
    """
    return _scan(params, cost, p0, s1, rivals.grid, params.beta * rivals.leader_continuation)
