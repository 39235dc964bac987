"""Single-elite solvers.

Covers the exact two-period problem (closed-form second-period policy,
four-candidate first-period choice), the infinite-horizon Bellman system
solved to the bitwise fixed point of its float operator on a grid,
property verification for the converged tables, and the cost-technology
comparison.

Choices in the iterative solvers are restricted to grid points: the
majority-rule payoff jumps at 1/2 and interpolating across the threshold
would smooth away exactly the discontinuity the model is about.

Tie-breaking everywhere: highest value, then smallest movement |p' - p|,
then closest to 1/2, then the mover's preferred side. The last two rungs
only matter in degenerate cases (e.g. zero cost); the rule is chosen so
that mirror symmetry of the solution is exact, not approximate.

Every dense maximisation max_j base[j] - c(p_j - p_i), here and in the
two-elite module, goes through one kernel, `_greedy`, which applies the
tie ladder on every call; every Bellman sweep, here and in the two-elite
backward step, is one `_greedy_step` over both states. The kernel reads
the cost matrix source-major: grid displacements are exact, so the
matrix is exactly symmetric and row i is the cost of every move out of
source i. The kernel works through the sources in blocks of rows that
fit a fixed byte budget, so the only n x n array a solver holds is the
cost matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .model import (
    QUADRATIC,
    CostSpec,
    ModelParams,
    cost_dominates,
    delta_threshold,
    evaluate_cost,
    stage_payoff,
)

INACTION = "inaction"
INTERIOR_B = "interior_b"
INTERIOR_C = "interior_c"
MEDIAN = "median"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RegionPartition:
    """Cutoffs 1/2 -+ delta splitting [0, 1] into stay/move bands.

    p0_star is -inf and p1_star +inf when the flip threshold exceeds the
    unit interval (the outer bands are then empty).
    """

    p0_star: float
    p1_star: float
    delta: float


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate move and its objective.

    Floats when the solver was called at one point; arrays over the
    points when it was called with an array of them.
    """

    candidate: float | np.ndarray
    objective: float | np.ndarray
    provenance: str


def _best_candidate(evaluations, p):
    """Per point, the highest objective; ties go to the candidate closest to p, then to 1/2,
    then to the first listed.

    evaluations hold arrays over the points p. Returns (candidate, objective).
    """
    best, top = evaluations[0].candidate, evaluations[0].objective
    for e in evaluations[1:]:
        move, best_move = np.abs(e.candidate - p), np.abs(best - p)
        better = (e.objective > top) | (
            (e.objective == top)
            & ((move < best_move) | ((move == best_move) & (np.abs(e.candidate - 0.5) < np.abs(best - 0.5))))
        )
        best = np.where(better, e.candidate, best)
        top = np.where(better, e.objective, top)
    return best, top


def _like(p, out):
    """out, an array over the points of p, as a float when p is one point."""
    return float(out) if np.ndim(p) == 0 else out


def _evaluations_like(p, evaluations) -> tuple[CandidateEvaluation, ...]:
    return tuple(
        CandidateEvaluation(_like(p, e.candidate), _like(p, e.objective), e.provenance) for e in evaluations
    )


@dataclass(frozen=True)
class Period1Solution:
    """The first-period choice: floats for one point, arrays over an array of points."""

    p_next: float | np.ndarray
    value: float | np.ndarray
    candidates: tuple[CandidateEvaluation, ...]


@dataclass(frozen=True)
class ValueTable:
    grid: Grid
    v0: np.ndarray
    v1: np.ndarray

    def values(self, s: int) -> np.ndarray:
        return self.v1 if s == 1 else self.v0


@dataclass(frozen=True)
class PolicyTable:
    grid: Grid
    sigma0: np.ndarray
    sigma1: np.ndarray

    def moves(self, s: int) -> np.ndarray:
        return self.sigma1 if s == 1 else self.sigma0


@dataclass(frozen=True)
class InfiniteHorizonSolution:
    """Tables of solve_infinite and how they were reached.

    iterations counts dense Bellman sweeps and evaluation_sweeps the O(n)
    policy-evaluation sweeps between them. The policy holds the greedy
    destinations against the emitted value tables. min_margin is the
    smallest gap between a source's best and runner-up destination
    scores there, over the sources (both states) whose best is not an
    exact tie; None when every source ties. exact_ties counts the sources
    the tie ladder settled.
    """

    value: ValueTable
    policy: PolicyTable
    residual: float
    iterations: int
    converged: bool
    evaluation_sweeps: int
    min_margin: float | None
    exact_ties: int


@dataclass(frozen=True)
class Violation:
    check: str
    s: int
    p: float
    detail: str


def region_partition(params: ModelParams, cost: CostSpec) -> RegionPartition:
    delta = delta_threshold(cost, params.H)
    if math.isinf(delta):
        return RegionPartition(p0_star=-math.inf, p1_star=math.inf, delta=delta)
    return RegionPartition(p0_star=0.5 - delta, p1_star=0.5 + delta, delta=delta)


def expected_continuation_2(params: ModelParams, cost: CostSpec, p_next):
    """Expected second-period value of landing at p_next, before s2 realizes.

    Piecewise: flat on the outer bands where the elite will never move,
    and bent by the anticipated flip cost on the inner bands. Boundaries
    belong to the inner branches; the formulas agree there.
    """
    return _like(p_next, _continuation_2(params, cost, region_partition(params, cost), p_next))


def _continuation_2(params: ModelParams, cost: CostSpec, regions: RegionPartition, p_next) -> np.ndarray:
    H, pi = params.H, params.pi
    p = np.asarray(p_next, dtype=float)
    inner_left = H - pi * evaluate_cost(cost, 0.5 - p)
    inner_right = H - (1.0 - pi) * evaluate_cost(cost, p - 0.5)
    return np.where(
        p < regions.p0_star,
        H * (1.0 - pi),
        np.where(
            p <= 0.5,
            inner_left,
            np.where(p <= regions.p1_star, inner_right, H * pi),
        ),
    )


def period2_solve(params: ModelParams, cost: CostSpec, p: float, s: int) -> tuple[float, float]:
    """Last-period optimum: stay if already winning or too far, else jump to 1/2.

    Exact indifference at the cutoff resolves to inaction.
    """
    regions = region_partition(params, cost)
    H = params.H
    if s == 1:
        if p >= 0.5:
            return p, H
        if p <= regions.p0_star:
            return p, 0.0
        return 0.5, H - evaluate_cost(cost, 0.5 - p)
    if p <= 0.5:
        return p, H
    if p >= regions.p1_star:
        return p, 0.0
    return 0.5, H - evaluate_cost(cost, p - 0.5)


def golden_section_min(fn, lo: float, hi: float, width: float = 1e-12) -> float:
    """Minimize a unimodal function on [lo, hi] to the given interval width."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _interior_minimizer(cost, p, weight, lo, hi) -> np.ndarray:
    # Minimize c(q - p) + weight * c(q - 1/2) over [lo, hi] at every point p;
    # both interior regions anchor their second term at 1/2. Strictly convex in q.
    p = np.asarray(p, dtype=float)
    if hi <= lo:
        return np.full(p.shape, lo)
    if cost.kind == QUADRATIC:
        q = (p + 0.5 * weight) / (1.0 + weight)
        return np.minimum(np.maximum(q, lo), hi)
    out = [
        golden_section_min(
            lambda q: evaluate_cost(cost, q - x) + weight * evaluate_cost(cost, q - 0.5), lo, hi
        )
        for x in p.ravel().tolist()
    ]
    return np.reshape(out, p.shape)


def _interior_B(params: ModelParams, cost: CostSpec, regions: RegionPartition, p) -> np.ndarray:
    return _interior_minimizer(cost, p, params.beta * params.pi, max(regions.p0_star, 0.0), 0.5)


def _interior_C(params: ModelParams, cost: CostSpec, regions: RegionPartition, p) -> np.ndarray:
    return _interior_minimizer(cost, p, params.beta * (1.0 - params.pi), 0.5, min(regions.p1_star, 1.0))


def interior_minimizer_B(params: ModelParams, cost: CostSpec, p):
    """Cheapest compromise point in [p0*, 1/2]: today's move vs tomorrow's flip."""
    return _like(p, _interior_B(params, cost, region_partition(params, cost), p))


def interior_minimizer_C(params: ModelParams, cost: CostSpec, p):
    """Mirror of interior_minimizer_B on [1/2, p1*] with weight beta*(1-pi)."""
    return _like(p, _interior_C(params, cost, region_partition(params, cost), p))


def period1_solve(params: ModelParams, cost: CostSpec, p, s: int) -> Period1Solution:
    """First-period optimum over the four candidate moves, at a point p or an array of them.

    Candidates: stay put, the two interior compromise points, and the
    jump to 1/2. Ties go to the candidate closest to p, then closest to
    1/2. The chosen move never increases the distance to 1/2. Everything
    is elementwise over the points; the region cutoffs are computed once.
    """
    regions = region_partition(params, cost)
    points = np.asarray(p, dtype=float)
    candidates = [
        (points, INACTION),
        (_interior_B(params, cost, regions, points), INTERIOR_B),
        (_interior_C(params, cost, regions, points), INTERIOR_C),
        (np.full(points.shape, 0.5), MEDIAN),
    ]
    evaluations = []
    for candidate, provenance in candidates:
        objective = (
            stage_payoff(s, candidate, params.H)
            - evaluate_cost(cost, candidate - points)
            + params.beta * _continuation_2(params, cost, regions, candidate)
        )
        evaluations.append(CandidateEvaluation(candidate, objective, provenance))
    chosen, value = _best_candidate(evaluations, points)
    return Period1Solution(
        p_next=_like(p, chosen), value=_like(p, value), candidates=_evaluations_like(p, evaluations)
    )


def _cost_matrix(cost: CostSpec, grid: Grid) -> np.ndarray:
    """costs[i, j] = c(points[i] - points[j]), an exactly symmetric matrix.

    Grid displacements are exact and c depends on |x| only, so
    costs[i, j] == costs[j, i] bit for bit: row i holds the cost of every
    move out of source i, and the greedy kernel reads it row by row.
    """
    disp = grid.points[:, None] - grid.points[None, :]
    return evaluate_cost(cost, disp)


def _stages(params: ModelParams, grid: Grid) -> list:
    """The mover's stage payoff at every grid point, for s = 0 and s = 1."""
    return [stage_payoff(s, grid.points, params.H) for s in (0, 1)]


# Bytes of scores the greedy kernel holds at once. A block of rows this
# size stays in a core's cache while it is reduced and tested for ties.
_BLOCK_BYTES = 256 * 1024


def _greedy(
    base: np.ndarray,
    costmat: np.ndarray,
    grid: Grid,
    prefer_right: bool,
    gap: np.ndarray | None = None,
):
    """Per source i, the best destination j of base[j] - costmat[i, j].

    Returns (idx, best). Ties in the score go to the smallest movement
    |p' - p|, then to the point closest to 1/2, then to the mover's
    preferred side, then to the lower index. Only the nearest tied
    destination at or below the source and the nearest at or above it
    can win the first rung, so the ladder compares just those two, for
    tied sources only. A gap array, if given, receives each source's best
    score minus its runner-up: 0 exactly where the ladder settled a tie.

    Sources are taken in blocks of rows of _BLOCK_BYTES, so no n x n
    array of scores is ever formed.
    """
    n = base.size
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
        idx[src] = _ladder(lo, hi, src, grid.points, prefer_right)
    return idx, best


def _ladder(lo, hi, src, pts, prefer_right: bool) -> np.ndarray:
    """Pick lo or hi (lo <= src <= hi, equal scores) by the tie rungs."""
    move_lo, move_hi = np.abs(pts[lo] - pts[src]), np.abs(pts[hi] - pts[src])
    mid_lo, mid_hi = np.abs(pts[lo] - 0.5), np.abs(pts[hi] - 0.5)
    # Equidistant pair straddling 1/2: take the mover's preferred side.
    if prefer_right:
        side_lo, side_hi = pts[lo] > 0.5, pts[hi] > 0.5
    else:
        side_lo, side_hi = pts[lo] < 0.5, pts[hi] < 0.5
    take_hi = (move_hi < move_lo) | (
        (move_hi == move_lo) & ((mid_hi < mid_lo) | ((mid_hi == mid_lo) & side_hi & ~side_lo))
    )
    return np.where(take_hi, hi, lo)


def _greedy_step(
    beta: float, stages: list, costmat: np.ndarray, continuation: np.ndarray, grid: Grid, gaps=None
):
    """One Bellman sweep over both states, keeping the maximising destinations.

    Returns (idx, best), one array per state, with the module's
    tie-breaking; gaps, if given, has one row per state, filled as in _greedy.
    """
    idx, best = [], []
    for s, stage in enumerate(stages):
        gap = None if gaps is None else gaps[s]
        i, b = _greedy(stage + beta * continuation, costmat, grid, prefer_right=(s == 1), gap=gap)
        idx.append(i)
        best.append(b)
    return idx, best


def _policy(
    beta: float, stages: list, costmat: np.ndarray, continuation: np.ndarray, grid: Grid, gaps=None
) -> PolicyTable:
    """The greedy moves against a continuation, with the module's tie-breaking."""
    idx, _ = _greedy_step(beta, stages, costmat, continuation, grid, gaps)
    return PolicyTable(grid=grid, sigma0=grid.points[idx[0]], sigma1=grid.points[idx[1]])


def _continuation(pi: float, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Expected next-period value of each landing point, before the state draws."""
    return pi * v1 + (1.0 - pi) * v0


def _change(new: list, old: list) -> float:
    # np.max, unlike the builtin max(0.0, nan), lets a NaN through.
    return float(np.max([np.abs(a - b).max() for a, b in zip(new, old)]))


def _evaluate(params: ModelParams, stages: list, costmat: np.ndarray, idx: list, v: list) -> int:
    """Sweep the tables under fixed destinations idx, in place, until the change stops shrinking.

    Each sweep scores destination idx_s[i] exactly as a dense sweep
    does, (stage_s + beta * w)[j] - costmat[i, j] with w the
    continuation, but gathers it instead of maximising: O(n), not O(n^2).
    The fixed-policy operator contracts by beta, so its change stops
    shrinking only at the rounding level (or on a NaN). Returns the
    number of sweeps.
    """
    beta, pi = params.beta, params.pi
    rows = np.arange(costmat.shape[0])
    stage_at = [stage[i] for stage, i in zip(stages, idx)]
    move_cost = [costmat[rows, i] for i in idx]
    sweeps = 0
    last = math.inf
    while True:
        continuation = _continuation(pi, *v)
        new = [st + beta * continuation[i] - mc for st, i, mc in zip(stage_at, idx, move_cost)]
        sweeps += 1
        change = _change(new, v)
        v[:] = new
        if not change < last:
            return sweeps
        last = change


def bellman_apply(params: ModelParams, cost: CostSpec, grid: Grid, v: ValueTable) -> ValueTable:
    """One synchronous sweep of the Bellman operator over the grid."""
    continuation = _continuation(params.pi, v.v0, v.v1)
    stages, costmat = _stages(params, grid), _cost_matrix(cost, grid)
    _, (v0, v1) = _greedy_step(params.beta, stages, costmat, continuation, grid)
    return ValueTable(grid=grid, v0=v0, v1=v1)


# A greedy step that moves no value by more than this many ulps of the
# largest value has reached the rounding level of the float operator.
_FEW_ULPS = 2


def solve_infinite(
    params: ModelParams, cost: CostSpec, grid: Grid, max_iter: int = 10000
) -> InfiniteHorizonSolution:
    """The bitwise fixed point of the float Bellman operator, by modified policy iteration.

    From zero tables, a dense greedy step (a Bellman sweep that keeps
    its maximising destinations) alternates with O(n) sweeps that
    evaluate those destinations (_evaluate). Once a greedy step moves no
    value by more than _FEW_ULPS ulps, the evaluation stops and greedy
    steps alone run until the tables repeat bit for bit. Those are the
    tables that value iteration from zero repeats at, so no tolerance
    enters the result. The last step's input tables equal its output, so
    its destinations and decision gaps are the policy and margins of the
    emitted tables.

    iterations counts dense sweeps and max_iter caps them. A solve that
    reaches the cap without a repeat is flagged, not raised: it returns
    the tables of its last dense sweep, whose sup-norm change is the
    residual (0.0 at the fixed point), and the policy is extracted once
    more against those tables.
    """
    costmat = _cost_matrix(cost, grid)
    stages = _stages(params, grid)
    v = [np.zeros(grid.n), np.zeros(grid.n)]
    gaps = np.empty((2, grid.n))
    residual = math.inf
    iterations = evaluation_sweeps = 0
    settled = False
    while iterations < max_iter:
        idx, new = _greedy_step(params.beta, stages, costmat, _continuation(params.pi, *v), grid, gaps)
        iterations += 1
        residual = _change(new, v)
        v = new
        if residual == 0.0 or iterations == max_iter:
            break
        settled = settled or residual <= _FEW_ULPS * np.spacing(max(np.abs(v[0]).max(), np.abs(v[1]).max()))
        if not settled:
            evaluation_sweeps += _evaluate(params, stages, costmat, idx, v)
    if residual != 0.0:
        idx, _ = _greedy_step(params.beta, stages, costmat, _continuation(params.pi, *v), grid, gaps)
    untied = gaps[gaps > 0.0]
    return InfiniteHorizonSolution(
        value=ValueTable(grid=grid, v0=v[0], v1=v[1]),
        policy=PolicyTable(grid=grid, sigma0=grid.points[idx[0]], sigma1=grid.points[idx[1]]),
        residual=residual,
        iterations=iterations,
        converged=residual == 0.0,
        evaluation_sweeps=evaluation_sweeps,
        min_margin=float(untied.min()) if untied.size else None,
        exact_ties=int(np.count_nonzero(gaps == 0.0)),
    )


def verify_polarization_pull(
    value: ValueTable,
    policy: PolicyTable,
    value_tol: float = 1e-9,
) -> list[Violation]:
    """Check the converged tables for the pull/peak/monotonicity properties.

    Returns the violations found (expected empty for converged solves):
    the policy must never move past 1/2 nor away from it, the value must
    peak at 1/2 (monotone up then down, within value_tol), and the policy
    must be monotone on each side of 1/2 up to one grid step of slack.
    """
    grid = value.grid
    pts = grid.points
    mid = grid.mid
    slack = grid.step + 1e-12
    violations: list[Violation] = []
    for s in (0, 1):
        sigma = policy.moves(s)
        vs = value.values(s)
        lower = np.minimum(pts, 0.5)
        upper = np.maximum(pts, 0.5)
        for i in np.flatnonzero((sigma < lower) | (sigma > upper)):
            violations.append(
                Violation("pull", s, float(pts[i]), f"sigma={sigma[i]!r} outside [{lower[i]}, {upper[i]}]")
            )
        up = np.diff(vs[: mid + 1])
        for i in np.flatnonzero(up < -value_tol):
            violations.append(Violation("value_peak", s, float(pts[i]), f"drop {up[i]:.3e} left of 1/2"))
        down = np.diff(vs[mid:])
        for i in np.flatnonzero(down > value_tol):
            violations.append(
                Violation("value_peak", s, float(pts[mid + i]), f"rise {down[i]:.3e} right of 1/2")
            )
        dsig = np.diff(sigma[: mid + 1])
        for i in np.flatnonzero(dsig < -slack):
            violations.append(Violation("policy_monotone", s, float(pts[i]), f"drop {dsig[i]:.3e}"))
        dsig = np.diff(sigma[mid:])
        for i in np.flatnonzero(dsig < -slack):
            violations.append(Violation("policy_monotone", s, float(pts[mid + i]), f"drop {dsig[i]:.3e}"))
    return violations


@dataclass(frozen=True)
class CostComparisonReport:
    mode: str
    policy_base: PolicyTable
    policy_costlier: PolicyTable
    violations: list[Violation]


def compare_cost_technologies(
    params: ModelParams,
    cost_base: CostSpec,
    cost_costlier: CostSpec,
    grid: Grid,
    mode: str = "resolved",
    max_iter: int = 10000,
) -> CostComparisonReport:
    """Compare one-step moves under a cost technology and a costlier one.

    The costlier technology must cost-dominate the base (checked; raises
    otherwise). Moves under the costlier technology should be weakly
    smaller toward 1/2 at every grid point, up to one grid step of slack.

    mode="fixed" holds the continuation fixed at the base technology's
    converged value function for both maximizations (the one-step reading
    of the shrinkage result); mode="resolved" lets each technology use
    its own converged value function.
    """
    if mode not in ("resolved", "fixed"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    samples = np.linspace(0.0, 1.0, 201)
    if not cost_dominates(cost_costlier, cost_base, samples):
        raise ValueError("costlier technology does not cost-dominate the base")
    sol_base = solve_infinite(params, cost_base, grid, max_iter=max_iter)
    if mode == "fixed":
        continuation = _continuation(params.pi, sol_base.value.v0, sol_base.value.v1)
        stages = _stages(params, grid)
        policy_base = _policy(params.beta, stages, _cost_matrix(cost_base, grid), continuation, grid)
        policy_costlier = _policy(params.beta, stages, _cost_matrix(cost_costlier, grid), continuation, grid)
    else:
        policy_base = sol_base.policy
        policy_costlier = solve_infinite(params, cost_costlier, grid, max_iter=max_iter).policy
    pts = grid.points
    mid = grid.mid
    slack = grid.step + 1e-12
    violations: list[Violation] = []
    for s in (0, 1):
        sb = policy_base.moves(s)
        sc = policy_costlier.moves(s)
        for i in range(grid.n):
            if i <= mid and sc[i] > sb[i] + slack:
                violations.append(
                    Violation("shrink", s, float(pts[i]), f"costlier move {sc[i]!r} > base {sb[i]!r}")
                )
            elif i >= mid and sc[i] < sb[i] - slack:
                violations.append(
                    Violation("shrink", s, float(pts[i]), f"costlier move {sc[i]!r} < base {sb[i]!r}")
                )
    return CostComparisonReport(
        mode=mode,
        policy_base=policy_base,
        policy_costlier=policy_costlier,
        violations=violations,
    )


def intervention_measure(policy: PolicyTable) -> dict[int, float]:
    """Fraction of grid points where the elite moves, per state."""
    out = {}
    for s in (0, 1):
        moved = policy.moves(s) != policy.grid.points
        out[s] = float(moved.mean())
    return out
