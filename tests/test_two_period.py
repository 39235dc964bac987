"""The two-period solvers over arrays of points, and the candidates.json writer."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polarsolve as ps
import two_period_reference as reference
from polarsolve.config import parse_config
from polarsolve.runner import _records_json, run_config


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def probe_points(params, cost, n, extra):
    """0, 1, 1/2, the cutoffs p0* and p1* when they lie in [0, 1], 1/2 -+ one step of an n-point grid."""
    regions = ps.region_partition(params, cost)
    grid = ps.build_grid(n)
    cutoffs = [p for p in (regions.p0_star, regions.p1_star) if 0.0 <= p <= 1.0]
    around_half = [float(grid.points[grid.mid - 1]), float(grid.points[grid.mid + 1])]
    return np.array([0.0, 1.0, 0.5, *cutoffs, *around_half, *extra])


def assert_same_candidates(got, want, i):
    assert [c.provenance for c in got] == [c.provenance for c in want]
    for g, w in zip(got, want):
        assert bits(g.candidate[i]) == bits(w.candidate), g.provenance
        assert bits(g.objective[i]) == bits(w.objective), g.provenance


def assert_matches_reference(params, cost, points):
    for s in (0, 1):
        p1 = ps.period1_solve(params, cost, points, s)
        leader = ps.stackelberg_solve(params, cost, points, s)
        moves, values = ps.period2_solve(params, cost, points, s)
        for i, p in enumerate(points.tolist()):
            want = reference.period2_solve(params, cost, p, s)
            assert (bits(moves[i]), bits(values[i])) == (bits(want[0]), bits(want[1]))
            want = reference.period1_solve(params, cost, p, s)
            assert_same_candidates(p1.candidates, want.candidates, i)
            assert bits(p1.p_next[i]) == bits(want.p_next) and bits(p1.value[i]) == bits(want.value)
            want = reference.stackelberg_solve(params, cost, p, s)
            assert_same_candidates(leader.candidates, want.candidates, i)
            assert bits(leader.chosen[i]) == bits(want.chosen)
            assert bits(leader.value[i]) == bits(want.value)
            assert bits(leader.phi_at_p0[i]) == bits(want.phi_at_p0)
        # A float in is a 0-d array: 0-d arrays out, bit-equal to entry 0 of the array call.
        p = float(points[0])
        one = ps.period1_solve(params, cost, p, s)
        assert_zero_d_entry([one.p_next, one.value], [p1.p_next, p1.value])
        assert_same_zero_d_candidates(one.candidates, p1.candidates)
        assert_zero_d_entry(ps.period2_solve(params, cost, p, s), [moves, values])
        one = ps.stackelberg_solve(params, cost, p, s)
        assert_zero_d_entry([one.chosen, one.value, one.phi_at_p0], [leader.chosen, leader.value, leader.phi_at_p0])
        assert_same_zero_d_candidates(one.candidates, leader.candidates)


def assert_zero_d_entry(got, arrays):
    """Each of got is a 0-d array bit-equal to entry 0 of the matching array."""
    for g, a in zip(got, arrays, strict=True):
        assert isinstance(g, np.ndarray) and g.shape == ()
        assert bits(g) == bits(a[0])


def assert_same_zero_d_candidates(got, arrays):
    """got's candidates and objectives are 0-d and bit-equal to entry 0 of arrays'."""
    assert all(np.shape(c.candidate) == np.shape(c.objective) == () for c in got)
    assert_same_candidates(arrays, got, 0)


COST_K = st.one_of(
    st.floats(min_value=0.0, max_value=1e-6),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=1e4, max_value=1e8),
)


@settings(max_examples=120, deadline=None)
@given(
    pi=st.floats(min_value=0.01, max_value=0.99),
    beta=st.floats(min_value=0.01, max_value=0.99),
    H=st.floats(min_value=0.05, max_value=10.0),
    k=COST_K,
    n=st.sampled_from([3, 101, 1001, 4001]),
    extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
)
@example(pi=0.5, beta=0.9, H=1.0, k=0.0, n=101, extra=[])
@example(pi=0.5, beta=0.9, H=1.0, k=4.0, n=101, extra=[0.25])  # delta = 1/2: the cutoffs are 0 and 1
@example(pi=0.7, beta=0.9, H=3.0, k=1e4, n=1001, extra=[0.3])
# H / k underflows: delta = 0, so both interior regions are the single point 1/2
@example(pi=0.7, beta=0.9, H=1e-300, k=1e300, n=101, extra=[0.2, 0.3, 0.7])
def test_array_solvers_equal_scalar_reference_bit_for_bit(pi, beta, H, k, n, extra):
    params = ps.ModelParams(pi=pi, beta=beta, H=H)
    cost = ps.CostSpec.quadratic(k)
    assert_matches_reference(params, cost, probe_points(params, cost, n, extra))


@settings(max_examples=6, deadline=None)
@given(
    pi=st.floats(min_value=0.05, max_value=0.95),
    scale=st.floats(min_value=0.5, max_value=50.0),
    extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=2),
)
def test_array_solvers_equal_scalar_reference_with_custom_cost(pi, scale, extra):
    params = ps.ModelParams(pi=pi, beta=0.9, H=1.0)
    cost = ps.CostSpec.from_function(lambda x: scale * (x * x + x**4))
    assert_matches_reference(params, cost, probe_points(params, cost, 101, extra))


@pytest.mark.parametrize(
    "config",
    [
        "experiment = solve-single2p\ngrid_n = 51\n",
        "experiment = solve-stackelberg\ngrid_n = 51\nk = 2\npi = 0.7\n",
        "experiment = solve-stackelberg\ngrid_n = 51\nk = 0.5\n",  # no semi-lock candidates
    ],
)
def test_candidates_json_is_json_dumps_layout(tmp_path, config):
    assert run_config(parse_config(config), tmp_path).exit_code == 0
    text = (tmp_path / "candidates.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_records_writer_spells_values_as_json_does():
    nan, inf = math.nan, math.inf
    columns = {
        "p": [-0.0, 0.1],
        "s": [0, 1],
        "value": [inf, 1e-300],
        "note": ['a "quoted" 100% string', "é"],
        "flag": [True, None],
        "candidates": [
            {"candidate": [nan, -inf], "objective": [-0.0, 2.5e17], "provenance": ["inaction", "inaction"]},
            {"candidate": [0.5, 0.5], "objective": [3, 0.0], "provenance": ["median", "median"]},
        ],
    }
    records = [
        {
            **{key: column[i] for key, column in columns.items() if key != "candidates"},
            "candidates": [{f: slot[f][i] for f in slot} for slot in columns["candidates"]],
        }
        for i in range(2)
    ]
    assert _records_json([columns]) == json.dumps(records, indent=2, sort_keys=True) + "\n"
