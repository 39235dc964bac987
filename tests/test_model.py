import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarsolve.model import (
    CostSpec,
    ModelParams,
    cost_dominates,
    delta_threshold,
    evaluate_cost,
    implemented_policy,
    stage_payoff,
)

QUAD10 = CostSpec.quadratic(10.0)


def test_params_validation():
    ModelParams(pi=0.5, beta=0.9, H=1.0)
    with pytest.raises(ValueError):
        ModelParams(pi=0.0, beta=0.9, H=1.0)
    with pytest.raises(ValueError):
        ModelParams(pi=0.5, beta=1.0, H=1.0)
    with pytest.raises(ValueError):
        ModelParams(pi=0.5, beta=0.9, H=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_curvature_and_stakes_are_rejected(bad):
    with pytest.raises(ValueError, match="curvature"):
        CostSpec.quadratic(bad)
    with pytest.raises(ValueError, match="curvature"):
        CostSpec(kind="quadratic", k=bad)
    with pytest.raises(ValueError, match="H must"):
        ModelParams(pi=0.5, beta=0.9, H=bad)


def test_quadratic_cost_examples():
    assert evaluate_cost(QUAD10, 0.0) == 0.0
    assert evaluate_cost(QUAD10, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert evaluate_cost(QUAD10, -0.1) == pytest.approx(0.1, abs=1e-15)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_cost_symmetry(x):
    assert evaluate_cost(QUAD10, x) == evaluate_cost(QUAD10, -x)


def test_cost_symmetry_custom():
    custom = CostSpec.from_function(lambda x: x * x + x**4)
    for x in np.arange(0.0, 1.0, 1e-3):
        assert evaluate_cost(custom, x) == evaluate_cost(custom, -x)


def test_cost_strict_convexity_on_grid():
    xs = np.linspace(0.0, 1.0, 201)
    for cost in (QUAD10, CostSpec.from_function(lambda x: x * x + x**4)):
        c = evaluate_cost(cost, xs)
        mids = 0.5 * (c[:-2] + c[2:])
        assert np.all(c[1:-1] < mids)


def test_custom_cost_validation():
    with pytest.raises(ValueError):
        CostSpec.from_function(lambda x: x)  # linear: not strictly convex
    with pytest.raises(ValueError):
        CostSpec.from_function(lambda x: x * x + 0.1)  # c(0) != 0
    with pytest.raises(ValueError):
        CostSpec.from_function(lambda x: -(x * x))  # decreasing
    with pytest.raises(ValueError):
        CostSpec.custom(np.zeros(5))  # wrong table size
    with pytest.raises(ValueError):
        CostSpec.quadratic(-1.0)


def test_cost_spec_rejects_bad_tables_and_kinds():
    table = np.linspace(0.0, 1.0, 2001) ** 2
    table[7] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        CostSpec.custom(table)
    with pytest.raises(ValueError, match="unknown cost kind"):
        CostSpec(kind="cubic")
    with pytest.raises(ValueError, match="custom cost requires a table"):
        CostSpec(kind="custom")


def test_delta_threshold_quadratic():
    assert delta_threshold(QUAD10, 1.0) == pytest.approx(math.sqrt(0.1), abs=1e-15)
    assert delta_threshold(CostSpec.quadratic(4.0), 1.0) == pytest.approx(0.5, abs=1e-15)
    # c(1) = 0.5 < H: no displacement in [0, 1] ever reaches H
    assert delta_threshold(CostSpec.quadratic(0.5), 1.0) == math.inf
    with pytest.raises(ValueError):
        delta_threshold(QUAD10, 0.0)


def test_delta_threshold_inverts_cost():
    for cost, H in [
        (QUAD10, 1.0),
        (QUAD10, 0.25),
        (CostSpec.from_function(lambda x: x * x + x**4), 1.0),
        (CostSpec.from_function(lambda x: 10 * x * x), 2.5),
    ]:
        delta = delta_threshold(cost, H)
        assert math.isfinite(delta)
        assert abs(evaluate_cost(cost, delta) - H) <= 1e-10


def test_implemented_policy():
    assert implemented_policy(0.6, 0) == 1
    assert implemented_policy(0.6, 1) == 1
    assert implemented_policy(0.3, 1) == 0
    assert implemented_policy(0.5, 0) == 0
    assert implemented_policy(0.5, 1) == 1


def test_stage_payoff():
    assert stage_payoff(1, 0.7, 1.0) == 1.0
    assert stage_payoff(1, 0.5, 1.0) == 1.0
    assert stage_payoff(0, 0.5, 1.0) == 1.0  # mover takes its pick at the knife edge
    assert stage_payoff(1, 0.2, 1.0) == 0.0
    assert stage_payoff(0, 0.2, 2.5) == 2.5


def test_cost_dominates():
    samples = np.arange(0.0, 1.0001, 0.05)
    assert cost_dominates(CostSpec.quadratic(20.0), QUAD10, samples)
    assert not cost_dominates(QUAD10, QUAD10, samples)
    assert not cost_dominates(CostSpec.quadratic(5.0), QUAD10, samples)
    with pytest.raises(ValueError):
        cost_dominates(QUAD10, QUAD10, [0.5, 0.2, 0.8])
    with pytest.raises(ValueError):
        cost_dominates(QUAD10, QUAD10, [0.5])
    for outside in ([-0.1, 0.5], [0.5, 1.1]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            cost_dominates(QUAD10, QUAD10, outside)


def test_cost_dominates_custom_kind():
    # x^2 + x^4 has strictly larger increments than x^2 away from zero
    quartic = CostSpec.from_function(lambda x: x * x + x**4)
    unit = CostSpec.from_function(lambda x: x * x)
    samples = np.linspace(0.01, 1.0, 50)
    assert cost_dominates(quartic, unit, samples)
    assert not cost_dominates(unit, quartic, samples)


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_cost_dominates_scaling(k, bump):
    samples = np.linspace(0.0, 1.0, 41)
    assert cost_dominates(CostSpec.quadratic(k + bump), CostSpec.quadratic(k), samples)
