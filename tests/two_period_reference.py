"""The two-period solvers as they were before they took arrays: one point per call.

This is the scalar code of `single_elite.period2_solve`,
`single_elite.period1_solve` and `two_elite.stackelberg_solve`, with the
helpers they called; only the
docstrings and the model types in the signatures are left out. The tests that
compare the array solvers with it check that they return the same
candidates, objectives, choices, values and phi, bit for bit.
"""

import math

import numpy as np

from polarsolve.model import QUADRATIC, delta_threshold, evaluate_cost, stage_payoff
from polarsolve.kernel import CandidateEvaluation
from polarsolve.single_elite import (
    INACTION,
    INTERIOR_B,
    INTERIOR_C,
    MEDIAN,
    Period1Solution,
    golden_section_min,
    region_partition,
)
from polarsolve.two_elite import SEMI_LOCK_LEFT, SEMI_LOCK_RIGHT, StackelbergSolution


def _best_candidate(evaluations, p: float) -> CandidateEvaluation:
    """The highest objective; ties go to the candidate closest to p, then to 1/2."""
    return max(evaluations, key=lambda e: (e.objective, -abs(e.candidate - p), -abs(e.candidate - 0.5)))


def expected_continuation_2(params, cost, p_next):
    regions = region_partition(params, cost)
    H, pi = params.H, params.pi
    p = np.asarray(p_next, dtype=float)
    inner_left = H - pi * evaluate_cost(cost, 0.5 - p)
    inner_right = H - (1.0 - pi) * evaluate_cost(cost, p - 0.5)
    out = np.where(
        p < regions.p0_star,
        H * (1.0 - pi),
        np.where(
            p <= 0.5,
            inner_left,
            np.where(p <= regions.p1_star, inner_right, H * pi),
        ),
    )
    if np.ndim(p_next) == 0:
        return float(out)
    return out


def _interior_minimizer(cost, p, weight, lo, hi):
    # Minimize c(q - p) + weight * c(q - 1/2) over [lo, hi]; both interior
    # regions anchor their second term at 1/2. Strictly convex in q.
    if hi <= lo:
        return lo
    if cost.kind == QUADRATIC:
        q = (p + 0.5 * weight) / (1.0 + weight)
        return min(max(q, lo), hi)
    objective = lambda q: evaluate_cost(cost, q - p) + weight * evaluate_cost(cost, q - 0.5)
    return golden_section_min(objective, lo, hi)


def interior_minimizer_B(params, cost, p: float) -> float:
    regions = region_partition(params, cost)
    lo = max(regions.p0_star, 0.0)
    return _interior_minimizer(cost, p, params.beta * params.pi, lo, 0.5)


def interior_minimizer_C(params, cost, p: float) -> float:
    regions = region_partition(params, cost)
    hi = min(regions.p1_star, 1.0)
    return _interior_minimizer(cost, p, params.beta * (1.0 - params.pi), 0.5, hi)


def period2_solve(params, cost, p: float, s: int) -> tuple[float, float]:
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


def period1_solve(params, cost, p: float, s: int) -> Period1Solution:
    candidates = [
        (p, INACTION),
        (interior_minimizer_B(params, cost, p), INTERIOR_B),
        (interior_minimizer_C(params, cost, p), INTERIOR_C),
        (0.5, MEDIAN),
    ]
    evaluations = []
    for candidate, provenance in candidates:
        objective = (
            stage_payoff(s, candidate, params.H)
            - evaluate_cost(cost, candidate - p)
            + params.beta * expected_continuation_2(params, cost, candidate)
        )
        evaluations.append(CandidateEvaluation(candidate, float(objective), provenance))
    best = _best_candidate(evaluations, p)
    return Period1Solution(p_next=best.candidate, value=best.objective, candidates=tuple(evaluations))


def phi_continuation(params, cost, p0: float) -> float:
    delta = delta_threshold(cost, params.H)
    if p0 <= 0.5 - delta:
        return (1.0 - params.pi) * params.H
    if p0 >= 0.5 + delta:
        return params.pi * params.H
    return 0.0


def stackelberg_solve(params, cost, p0: float, s1: int) -> StackelbergSolution:
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
    best = _best_candidate(candidates, p0)
    return StackelbergSolution(
        chosen=best.candidate,
        value=best.objective,
        candidates=tuple(candidates),
        phi_at_p0=phi,
    )
