"""Import structure of the package: the solvers share code only through public names.

Every module of src/polarsolve is parsed, not imported. A module may not
import a _-prefixed name from a sibling module, nor reach one through a
sibling module object, and the two-elite solvers do not import the
single-elite ones: what they share lives in the kernel module. No module
builds the dense cost matrix, which lives on as a test reference.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polarsolve"
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def _sibling(module, level):
    """The sibling module an import names, or None for one from outside the package."""
    if level == 1 or (level == 0 and module and module.startswith("polarsolve")):
        name = (module or "").removeprefix("polarsolve").lstrip(".")
        return name.split(".")[0] if name else ""
    return None


def _imports(tree):
    """(sibling module, imported name) of every import of a sibling; name is None for a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level)
            if target is None:
                continue
            for alias in node.names:
                if target:
                    out.append((target, alias.name, None))
                elif alias.name in SIBLINGS:  # from . import module
                    out.append((alias.name, None, alias.asname or alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _sibling(alias.name, 0)
                if target:
                    out.append((target, None, alias.asname))
    return out


def _private_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    bound = {}  # local name of a sibling module object -> the module
    for target, name, local in _imports(tree):
        if name is not None and name.startswith("_"):
            found.append(f"{target}.{name}")
        if name is None and local:
            bound[local] = target
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
        ):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    assert _private_uses(path) == []


def test_two_elite_does_not_import_single_elite():
    tree = ast.parse((PACKAGE / "two_elite.py").read_text(encoding="utf-8"))
    assert "single_elite" not in {target for target, _, _ in _imports(tree)}


def test_oracle_does_not_import_the_solvers():
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    imported = {target for target, _, _ in _imports(tree)}
    assert "model" in imported
    assert imported.isdisjoint({"kernel", "single_elite", "two_elite"})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_builds_a_cost_matrix(path):
    # the kernel computes each cost where it scores the move; the dense matrix is a test reference
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "cost_matrix" not in names
