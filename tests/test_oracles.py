"""Guards on what the package exports and on the independence of the oracles."""

import ast
from pathlib import Path

import quenchsim


def test_oracles_import_nothing_from_quenchsim():
    """tests/oracles.py checks the engines, so it must share no code with them."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [m for m in imported if m.startswith(".") or m.split(".")[0] == "quenchsim"]


def test_every_exported_name_resolves():
    assert len(set(quenchsim.__all__)) == len(quenchsim.__all__)
    for name in quenchsim.__all__:
        assert hasattr(quenchsim, name), name


def test_every_exported_name_is_used_by_the_package():
    """An exported name that no module of the package uses outside its own
    definition (and __init__.py) is test-only code: it belongs in
    tests/oracles.py."""
    used = set()
    for path in Path(quenchsim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}
    assert [name for name in quenchsim.__all__ if name not in used] == []
