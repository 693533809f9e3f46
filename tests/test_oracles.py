"""Every row of the oracle table, and the layout of the test modules: no test
module imports another, and every function of ``oracles.py`` has a user."""

import ast
from pathlib import Path

import pytest

from oracles import ROWS

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("route, oracle, pool, compare", ROWS,
                         ids=[oracle.__name__ for _, oracle, _, _ in ROWS])
def test_route_matches_oracle(route, oracle, pool, compare):
    for args in pool():
        compare(route(*args), oracle(*args))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_in(node):
    """Every name and attribute name read anywhere under ``node``."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_no_test_module_imports_another():
    modules = {path.stem for path in TESTS.glob("test_*.py")}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module or ""} | {alias.name for alias in node.names}
            else:
                continue
            assert not {name.rpartition(".")[2] for name in imported} & modules, \
                (path.name, node.lineno)


def test_every_oracle_function_has_a_user():
    """A function of ``oracles.py`` is read by ``ROWS``, by a test module, or
    by another function that has a user."""
    tree = parsed(TESTS / "oracles.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    rows = next(node for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "ROWS" for target in node.targets))
    used = names_in(rows)
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                used |= {alias.name for alias in node.names}
    stack = sorted(used & functions.keys())
    while stack:
        for name in names_in(functions[stack.pop()]) & functions.keys() - used:
            used.add(name)
            stack.append(name)
    assert sorted(functions.keys() - used) == []
