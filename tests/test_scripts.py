import dataclasses
import importlib.util
from pathlib import Path

import polarsolve as ps

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equilibrium_shapes_exit_code(monkeypatch, capsys):
    shapes = load_script("equilibrium_shapes")
    assert shapes.main() == 0
    assert "FAIL" not in capsys.readouterr().out

    solve = ps.solve_infinite

    def rising(params, cost, grid):
        # a value rising all the way to p = 1 has no peak at 1/2
        sol = solve(params, cost, grid)
        value = ps.ValueTable(grid=grid, v0=grid.points.copy(), v1=sol.value.v1)
        return dataclasses.replace(sol, value=value)

    monkeypatch.setattr(ps, "solve_infinite", rising)
    assert shapes.main() == 1
    assert "peak at 1/2: False" in capsys.readouterr().out
