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
