"""Single-elite solvers.

Covers the exact two-period problem (closed-form second-period policy,
four-candidate first-period choice), the infinite-horizon Bellman system
solved to the bitwise fixed point of its float operator on a grid,
property verification for the converged tables, and the cost-technology
comparison.

Choices in the iterative solvers are restricted to grid points: the
majority-rule payoff jumps at 1/2 and interpolating across the threshold
would smooth away exactly the discontinuity the model is about. Every
choice is scored and tie-broken in the kernel module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .kernel import (
    CandidateEvaluation,
    best_candidate,
    expected_next,
    greedy_step,
    move_cost,
    stage_payoffs,
    sup_change,
)
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
_GOLDEN_WIDTH = 1e-12
# verify_polarization_pull forgives value steps against the peak up to this size.
_VALUE_TOL = 1e-9


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
class Period1Solution:
    """The first-period choice, arrays of the shape of the points it was asked at."""

    p_next: np.ndarray
    value: np.ndarray
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
    the tie rule settled, and kernel_fallbacks the greedy calls that took
    the kernel's full-row scan.
    """

    value: ValueTable
    policy: PolicyTable
    residual: float
    iterations: int
    converged: bool
    evaluation_sweeps: int
    min_margin: float | None
    exact_ties: int
    kernel_fallbacks: int


@dataclass(frozen=True)
class Violation:
    check: str
    s: int
    p: float
    detail: str


def region_partition(params: ModelParams, cost: CostSpec) -> RegionPartition:
    delta = delta_threshold(cost, params.H)
    return RegionPartition(p0_star=0.5 - delta, p1_star=0.5 + delta, delta=delta)


def expected_continuation_2(params: ModelParams, cost: CostSpec, p_next):
    """Expected second-period value of landing at p_next, before s2 realizes.

    Piecewise: flat on the outer bands where the elite will never move,
    and bent by the anticipated flip cost on the inner bands. Boundaries
    belong to the inner branches; the formulas agree there.
    """
    regions = region_partition(params, cost)
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


def period2_solve(params: ModelParams, cost: CostSpec, p, s: int):
    """Last-period optimum (move, value) at a point p or an array of them.

    Stay if already winning or too far, else jump to 1/2. Exact
    indifference at the cutoff resolves to inaction. Arrays of p's
    shape; the cutoff is computed once.
    """
    regions = region_partition(params, cost)
    points = np.asarray(p, dtype=float)
    if s == 1:
        winning, too_far, shift = points >= 0.5, points <= regions.p0_star, 0.5 - points
    else:
        winning, too_far, shift = points <= 0.5, points >= regions.p1_star, points - 0.5
    move = np.where(winning | too_far, points, 0.5)
    value = np.where(winning, params.H, np.where(too_far, 0.0, params.H - evaluate_cost(cost, shift)))
    return move, value


def golden_section_min(fn, lo: float, hi: float) -> float:
    """Minimize a unimodal function on [lo, hi] to a bracket _GOLDEN_WIDTH wide."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _GOLDEN_WIDTH:
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


def interior_minimizer_B(params: ModelParams, cost: CostSpec, p):
    """Cheapest compromise point in [p0*, 1/2]: today's move vs tomorrow's flip."""
    regions = region_partition(params, cost)
    return _interior_minimizer(cost, p, params.beta * params.pi, max(regions.p0_star, 0.0), 0.5)


def interior_minimizer_C(params: ModelParams, cost: CostSpec, p):
    """Mirror of interior_minimizer_B on [1/2, p1*] with weight beta*(1-pi)."""
    regions = region_partition(params, cost)
    weight = params.beta * (1.0 - params.pi)
    return _interior_minimizer(cost, p, weight, 0.5, min(regions.p1_star, 1.0))


def period1_solve(params: ModelParams, cost: CostSpec, p, s: int) -> Period1Solution:
    """First-period optimum over the four candidate moves, at a point p or an array of them.

    Candidates: stay put, the two interior compromise points, and the
    jump to 1/2, compared by kernel.best_candidate. The chosen move
    never increases the distance to 1/2. Everything is elementwise over
    the points.
    """
    points = np.asarray(p, dtype=float)
    candidates = [
        (points, INACTION),
        (interior_minimizer_B(params, cost, points), INTERIOR_B),
        (interior_minimizer_C(params, cost, points), INTERIOR_C),
        (np.full(points.shape, 0.5), MEDIAN),
    ]
    evaluations = []
    for candidate, provenance in candidates:
        objective = (
            stage_payoff(s, candidate, params.H)
            - evaluate_cost(cost, candidate - points)
            + params.beta * expected_continuation_2(params, cost, candidate)
        )
        evaluations.append(CandidateEvaluation(candidate, objective, provenance))
    return Period1Solution(*best_candidate(evaluations, points))


def _policy(beta: float, stages: list, cost: CostSpec, continuation: np.ndarray, grid: Grid) -> PolicyTable:
    """The greedy moves against a continuation."""
    idx, _ = greedy_step(beta, stages, cost, continuation, grid)
    return PolicyTable(grid=grid, sigma0=grid.points[idx[0]], sigma1=grid.points[idx[1]])


def _evaluate(params: ModelParams, stages: list, cost: CostSpec, grid: Grid, idx: list, v: list):
    """Sweep the tables under fixed destinations idx until the change stops shrinking: (tables, sweeps).

    The two states' tables are swept as one flat table of 2n entries. Each
    sweep scores destination idx_s[i] exactly as a dense sweep does,
    (stage_s + beta * w)[j] - c(p_i - p_j) with w the continuation, but
    only that one: O(n), not O(n^2). The fixed-policy operator contracts
    by beta, so its change stops shrinking only at the rounding level (or
    on a NaN).
    """
    n, beta, pi = grid.n, params.beta, params.pi
    to = np.concatenate(idx)
    stage_at = np.concatenate([stage[i] for stage, i in zip(stages, idx)])
    cost_at = np.concatenate([move_cost(cost, grid, i) for i in idx])
    flat = np.concatenate(v)
    sweeps = 0
    last = math.inf
    while True:
        w = beta * expected_next(pi, flat[:n], flat[n:])
        new = stage_at + w[to] - cost_at
        sweeps += 1
        change = np.abs(new - flat).max()
        flat = new
        if not change < last:
            return [flat[:n], flat[n:]], sweeps
        last = change


def stay_put_values(params: ModelParams, cost: CostSpec, grid: Grid, max_iter: int = 10000) -> ValueTable:
    """The values of staying put everywhere, by its float operator iterated from zero tables.

    A point that stays sees only its own two values, so the tables hold
    one sequence per distinct pair of stage payoffs (three on build_grid
    grids): x_s <- stage_s + beta * (pi * x_1 + (1 - pi) * x_0) - c(0),
    in the float operations of an evaluation sweep (and of greedy's score
    of a zero move), from zero until it repeats or max_iter times.
    """
    pi, beta = params.pi, params.beta
    stay = float(evaluate_cost(cost, 0.0))
    pairs = list(zip(*(stage.tolist() for stage in stage_payoffs(params, grid))))
    values = dict.fromkeys(pairs)
    for a0, a1 in values:
        x0 = x1 = 0.0
        for _ in range(max_iter):
            w = beta * (pi * x1 + (1.0 - pi) * x0)
            y0, y1 = a0 + w - stay, a1 + w - stay
            if y0 == x0 and y1 == x1:
                break
            x0, x1 = y0, y1
        values[a0, a1] = x0, x1
    v0, v1 = np.array(list(map(values.__getitem__, pairs))).T.copy()
    return ValueTable(grid=grid, v0=v0, v1=v1)


def bellman_apply(params: ModelParams, cost: CostSpec, grid: Grid, v: ValueTable) -> ValueTable:
    """One synchronous sweep of the Bellman operator over the grid."""
    continuation = expected_next(params.pi, v.v0, v.v1)
    _, (v0, v1) = greedy_step(params.beta, stage_payoffs(params, grid), cost, continuation, grid)
    return ValueTable(grid=grid, v0=v0, v1=v1)


def solve_infinite(
    params: ModelParams, cost: CostSpec, grid: Grid, max_iter: int = 10000
) -> InfiniteHorizonSolution:
    """The bitwise fixed point of the float Bellman operator, by modified policy iteration.

    From the stay-put values (stay_put_values), a dense greedy step (a
    Bellman sweep that keeps its maximising destinations) alternates
    with O(n) sweeps that evaluate those destinations (_evaluate) until
    a greedy step moves no value: the tables repeat bit for bit. One
    more greedy step against the emitted tables, the only one that asks
    for exact gaps, gives the policy and margins. At pi = 1/2 the stay-put
    start and every table after it have v1 = v0[::-1] bit for bit, so
    each greedy step scores state 0 only and reads state 1 off it by
    reflection (see the kernel module docstring).

    The repeat is the table that value iteration from zero repeats at,
    so neither the start nor any tolerance enters the result. Every float
    operation of a sweep (a product by a positive constant, a sum, a
    difference with a fixed cost, a gather, a maximum) is monotone, so the
    float Bellman operator T is, and so is E, the operator that scores
    each source's one destination of a greedy step as greedy does; and
    E(v) <= T(v). From zero, T(0) >= 0 (staying scores stage - c(0) >= 0),
    so T^k(0) rises and, floats being finitely many, repeats at a fixed
    point F, with F = T^k(0) <= T^k(G) = G for every fixed point G >= 0.
    The start s is an iterate of the stay-put operator S from zero, and
    S is the E of staying put, so 0 <= s <= S(s) <= T(s) and, as
    S(v) <= T(v) <= T(F) = F for v <= F, s <= F. From v <= F with
    v <= T(v), a greedy step gives v' = T(v) = E(v) >= v, with E its
    destinations, and an evaluation sweep from v <= E(v) gives
    v' = E(v) >= v. Either way E(v') >= E(v) = v', so
    v' <= E(v') <= T(v'), and v' <= T(F) = F. The tables rise and stay
    below F, so their repeat T(v) = v is a fixed point G >= 0 with
    G <= F: F itself.

    iterations counts dense sweeps and max_iter caps them, as it caps
    the start's iterations. A solve that reaches the cap without a
    repeat is flagged, not raised: it returns the tables of its last
    dense sweep, whose sup-norm change is the residual (0.0 at the fixed
    point); those depend on the path taken, not on the model alone.
    """
    stages = stage_payoffs(params, grid)
    start = stay_put_values(params, cost, grid, max_iter)
    v = [start.v0, start.v1]
    gaps = np.empty((2, grid.n))
    fallbacks = [0]
    residual = math.inf
    iterations = evaluation_sweeps = 0
    while iterations < max_iter:
        idx, new = greedy_step(params.beta, stages, cost, expected_next(params.pi, *v), grid, fallbacks=fallbacks)
        iterations += 1
        residual = sup_change(new, v)
        v = new
        if residual == 0.0 or iterations == max_iter:
            break
        v, sweeps = _evaluate(params, stages, cost, grid, idx, v)
        evaluation_sweeps += sweeps
    idx, _ = greedy_step(params.beta, stages, cost, expected_next(params.pi, *v), grid, gaps, fallbacks)
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
        kernel_fallbacks=fallbacks[0],
    )


def _flag(check: str, s: int, pts: np.ndarray, holds: np.ndarray, detail) -> list[Violation]:
    """A violation of check at each pts[i] where holds[i] is not True, described by detail(i).

    holds is the property that must hold, so a NaN, which satisfies no
    comparison, is flagged.
    """
    return [Violation(check, s, float(pts[i]), detail(i)) for i in np.flatnonzero(~holds)]


def verify_polarization_pull(value: ValueTable, policy: PolicyTable) -> list[Violation]:
    """Check the converged tables for the pull/peak/monotonicity properties.

    Returns the violations found (expected empty for converged solves):
    the policy must never move past 1/2 nor away from it, the value must
    peak at 1/2 (monotone up then down, within _VALUE_TOL), and the policy
    must be monotone on each side of 1/2 up to one grid step of slack.
    A NaN entry fails every property it enters.
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
        inside = (sigma >= lower) & (sigma <= upper)
        violations += _flag(
            "pull", s, pts, inside, lambda i: f"sigma={sigma[i]!r} outside [{lower[i]}, {upper[i]}]"
        )
        up = np.diff(vs[: mid + 1])
        violations += _flag("value_peak", s, pts, up >= -_VALUE_TOL, lambda i: f"drop {up[i]:.3e} left of 1/2")
        down = np.diff(vs[mid:])
        violations += _flag(
            "value_peak", s, pts[mid:], down <= _VALUE_TOL, lambda i: f"rise {down[i]:.3e} right of 1/2"
        )
        left = np.diff(sigma[: mid + 1])
        violations += _flag("policy_monotone", s, pts, left >= -slack, lambda i: f"drop {left[i]:.3e}")
        right = np.diff(sigma[mid:])
        violations += _flag("policy_monotone", s, pts[mid:], right >= -slack, lambda i: f"drop {right[i]:.3e}")
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
) -> CostComparisonReport:
    """Compare one-step moves under a cost technology and a costlier one.

    The costlier technology must cost-dominate the base (checked; raises
    otherwise). Moves under the costlier technology should be weakly
    smaller toward 1/2 at every grid point, up to one grid step of slack.
    A NaN move fails the comparison, at 1/2 itself on both sides.

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
    sol_base = solve_infinite(params, cost_base, grid)
    if mode == "fixed":
        continuation = expected_next(params.pi, sol_base.value.v0, sol_base.value.v1)
        stages = stage_payoffs(params, grid)
        policy_base = _policy(params.beta, stages, cost_base, continuation, grid)
        policy_costlier = _policy(params.beta, stages, cost_costlier, continuation, grid)
    else:
        policy_base = sol_base.policy
        policy_costlier = solve_infinite(params, cost_costlier, grid).policy
    pts = grid.points
    mid = grid.mid
    slack = grid.step + 1e-12
    violations: list[Violation] = []
    for s in (0, 1):
        sb = policy_base.moves(s)
        sc = policy_costlier.moves(s)
        # Left of 1/2, then right: at 1/2 itself a finite move fails at most one side.
        no_further = sc[: mid + 1] <= sb[: mid + 1] + slack
        violations += _flag(
            "shrink", s, pts, no_further, lambda i: f"costlier move {sc[i]!r} > base {sb[i]!r}"
        )
        no_further = sc[mid:] >= sb[mid:] - slack
        violations += _flag(
            "shrink", s, pts[mid:], no_further, lambda i: f"costlier move {sc[mid + i]!r} < base {sb[mid + i]!r}"
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
