"""Guards on what the package exports, on dead code in it and on the
independence of the oracles."""

import ast
import re
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


# Names kept only because the benchmark (perfbench/) reaches them by name;
# each entry is "module.name".  The benchmark pins more names than these:
# perfbench/tests/test_perfbench.py::TestTracer::test_missing_function_is_reported_absent
# fails as soon as any entry of perfbench/tracer.py's SPANS but the one it
# replaces stops resolving.  Of those 21, the 16 not listed here are kept by
# the package's own use, among them freefermion._bloch_components,
# _mode_geodesic_angles and collective_geodesic_ramp, and cli._run_cells,
# _defect_task, _atomic_write and _write_manifest: a refactor keeps each one
# a module-level function under its name.
PINNED_BY_BENCHMARK = [
    "freefermion._ordered_product",
    "freefermion._phase_ramp",
    "freefermion._quat_mul",
    "freefermion._quat_steps",
    "freefermion.evolve_mode_kicks_exact",
    "landau_zener._phase_ramp",
]


def _package_modules() -> dict:
    """Module name -> parsed source, for every module but __init__.py."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(quenchsim.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"}


def _used_names(tree: ast.Module) -> set:
    """The names a module loads or reads as attributes, each top-level
    statement apart from its own definition."""
    used = set()
    for stmt in tree.body:
        names = {n.id for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        used |= names - {getattr(stmt, "name", None)}
    return used


def test_every_exported_name_is_used_by_the_package():
    """An exported name that no module of the package uses outside its own
    definition (and __init__.py) is test-only code: it belongs in
    tests/oracles.py."""
    used = set().union(*map(_used_names, _package_modules().values()))
    assert [name for name in quenchsim.__all__ if name not in used] == []


def test_no_dead_code_in_the_package():
    """Every module-level function and class, and every method, is used by
    some module of the package outside its own definition, and every
    imported name by the module that imports it.  Dunder methods are called
    by Python itself."""
    modules = _package_modules()
    used = set().union(*map(_used_names, modules.values()))
    unused = []
    for module, tree in modules.items():
        own = _used_names(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and \
                    getattr(stmt, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
                unused += [f"{module}.{name}" for name in names if name not in own]
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
                if isinstance(stmt, ast.ClassDef):
                    names += [m.name for m in stmt.body if isinstance(m, ast.FunctionDef)
                              and not (m.name.startswith("__") and m.name.endswith("__"))]
                unused += [f"{module}.{name}" for name in names if name not in used]
    assert sorted(unused) == PINNED_BY_BENCHMARK


def test_every_pin_is_still_used_by_the_benchmark():
    """A pinned name stays pinned only while perfbench/ reaches it: as a span
    ("quenchsim.mod", "name", ...) of perfbench/tracer.py, or as a name that
    a perfbench/ source imports from quenchsim.mod.  Once the benchmark
    drops it, this fails until the name leaves the package too."""
    perfbench = Path(__file__).parent.parent / "perfbench"
    tracer = (perfbench / "tracer.py").read_text()
    imported = set()
    for path in perfbench.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quenchsim."):
                imported |= {f"{node.module[len('quenchsim.'):]}.{alias.name}"
                             for alias in node.names}
    stale = [pin for pin in PINNED_BY_BENCHMARK if pin not in imported and not re.search(
        r'\(\s*"quenchsim\.{}",\s*"{}"'.format(*map(re.escape, pin.split("."))), tracer)]
    assert stale == []
