"""Model primitives: parameters, persuasion costs, majority rule, payoffs.

Everything downstream (two-period solvers, the Bellman fixed point, the two-elite
game) is built from the handful of objects defined here. All types are
immutable after construction and all functions are pure, so they are safe
to share across solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

QUADRATIC = "quadratic"
CUSTOM = "custom"

# Tabulated (custom) costs are sampled on this many equally spaced
# displacements over [0, 1]. Piecewise-linear interpolation in |x| keeps
# the tabulated function convex and symmetric.
CUSTOM_TABLE_SIZE = 2001
_CUSTOM_XS = np.linspace(0.0, 1.0, CUSTOM_TABLE_SIZE)
_CUSTOM_XS.setflags(write=False)

INF_DELTA = math.inf


@dataclass(frozen=True)
class ModelParams:
    """Economic primitives: shock probability, discount factor, stakes."""

    pi: float
    beta: float
    H: float

    def __post_init__(self) -> None:
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must lie in (0, 1), got {self.pi}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 < self.H < math.inf:
            raise ValueError(f"H must be positive and finite, got {self.H}")


@dataclass(frozen=True)
class CostSpec:
    """Persuasion cost c(x): zero at zero, symmetric, strictly convex.

    Two kinds are supported: ``quadratic`` with curvature ``k`` (cost
    k*x^2) and ``custom``, a function tabulated on CUSTOM_TABLE_SIZE
    equally spaced displacements over [0, 1] and evaluated by linear
    interpolation in |x|. Custom tables are validated at construction:
    c(0) = 0, strictly increasing, strictly convex increments.
    """

    kind: str
    k: float = 0.0
    table: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def quadratic(k: float) -> "CostSpec":
        return CostSpec(kind=QUADRATIC, k=float(k))

    @staticmethod
    def custom(values) -> "CostSpec":
        table = np.asarray(values, dtype=float)
        if table.shape != (CUSTOM_TABLE_SIZE,):
            raise ValueError(
                f"custom cost table must have {CUSTOM_TABLE_SIZE} entries, "
                f"got shape {table.shape}"
            )
        if not np.all(np.isfinite(table)):
            raise ValueError("custom cost table contains non-finite entries")
        if table[0] != 0.0:
            raise ValueError("custom cost must satisfy c(0) = 0")
        increments = np.diff(table)
        if not np.all(increments > 0.0):
            raise ValueError("custom cost must be strictly increasing in |x|")
        if not np.all(np.diff(increments) > 0.0):
            raise ValueError("custom cost must be strictly convex")
        table = table.copy()
        table.setflags(write=False)
        return CostSpec(kind=CUSTOM, table=table)

    @staticmethod
    def from_function(fn) -> "CostSpec":
        """Tabulate a callable c(|x|) on the custom displacement grid."""
        return CostSpec.custom(np.asarray([fn(x) for x in _CUSTOM_XS], dtype=float))

    def __post_init__(self) -> None:
        if self.kind not in (QUADRATIC, CUSTOM):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == QUADRATIC and not 0.0 <= self.k < math.inf:
            raise ValueError(f"quadratic curvature must be finite and >= 0, got {self.k}")
        if self.kind == CUSTOM and self.table is None:
            raise ValueError("custom cost requires a table")


def evaluate_cost(cost: CostSpec, x):
    """Cost of a signed opinion displacement x; symmetric in the sign.

    Accepts scalars or numpy arrays (|x| <= 1 assumed).
    """
    if cost.kind == QUADRATIC:
        return cost.k * x * x
    out = np.interp(np.abs(x), _CUSTOM_XS, cost.table)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def delta_threshold(cost: CostSpec, H: float) -> float:
    """Largest displacement worth paying for a one-period policy flip.

    Returns the unique x >= 0 with c(x) = H. When even c(1) < H the
    threshold lies outside the unit interval and the +inf sentinel is
    returned; callers treat positions that depend on it as infeasible.
    """
    if H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    if evaluate_cost(cost, 1.0) < H:
        return INF_DELTA
    if cost.kind == QUADRATIC:
        return math.sqrt(H / cost.k)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if evaluate_cost(cost, mid) < H:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def implemented_policy(p, mover_preferred):
    """Majority rule: 1 above 1/2, 0 below, the mover's pick at exactly 1/2.

    Comparisons with 1/2 are exact; the knife edge is meaningful model
    content, not numerical noise, and grids always contain 1/2 exactly.
    """
    return np.where(p > 0.5, 1, np.where(p < 0.5, 0, mover_preferred))


def stage_payoff(s: int, p_next, H: float):
    """One-period payoff to a mover preferring policy s, after moving to p_next.

    At p_next = 1/2 the mover implements its preference and collects H.
    """
    return H * (implemented_policy(p_next, s) == s)


def cost_dominates(c_tilde: CostSpec, c: CostSpec, samples) -> bool:
    """True iff c_tilde has strictly larger increments than c on the samples.

    Checked on adjacent sample pairs; adjacent-pair dominance extends to
    all pairs by telescoping. Samples must be strictly ascending within
    [0, 1] with at least two points.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("need at least two displacement samples")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("displacement samples must be strictly ascending")
    if xs[0] < 0.0 or xs[-1] > 1.0:
        raise ValueError("displacement samples must lie in [0, 1]")
    inc_tilde = np.diff(evaluate_cost(c_tilde, xs))
    inc = np.diff(evaluate_cost(c, xs))
    return bool(np.all(inc_tilde > inc))
