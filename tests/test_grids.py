import numpy as np
import pytest

from polarsolve.grids import Grid, build_grid, mirror_closed


def test_build_small_grids():
    g = build_grid(3)
    assert list(g.points) == [0.0, 0.5, 1.0]
    g = build_grid(5)
    assert list(g.points) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_build_grid_1001():
    g = build_grid(1001)
    assert g.step == pytest.approx(0.001, abs=1e-18)
    assert g.points[500] == 0.5
    assert g.points[0] == 0.0 and g.points[1000] == 1.0


def test_build_grid_rejects_bad_sizes():
    for bad in (2, 4, 1000, 1, 0, -3):
        with pytest.raises(ValueError):
            build_grid(bad)
    with pytest.raises(ValueError, match="must be an integer"):
        build_grid(3.5)


@pytest.mark.parametrize("n", [3, 5, 101, 501, 1001])
def test_grid_invariants(n):
    g = build_grid(n)
    mid = (n - 1) // 2
    assert g.points[mid] == 0.5
    # exact mirror closure
    assert all((1.0 - g.points[i]) == g.points[n - 1 - i] for i in range(n))
    assert mirror_closed(g)
    # uniform spacing well inside tolerance
    d = np.diff(g.points)
    assert np.all(d > 0)
    assert np.abs(d - g.step).max() <= 1e-15


def test_linspace_is_not_mirror_closed():
    points = np.linspace(0.0, 1.0, 101)
    assert not mirror_closed(Grid(points=points, n=101, step=0.01))
