"""Every name a package module imports is used there or re-exported, and
each module imports exactly the package modules the module graph lists.

Each module is parsed with ``ast``: a name bound by an ``import`` must
be read somewhere in the module or be listed in its ``__all__``.  The
exceptions are the names the benchmark harness wraps at the module that
imports them, which that module does not call itself.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gausscollect"

# (module, name): the harness line that needs the import
KEPT_FOR_HARNESS = {
    ("waist_optimizer", "compute_xi"):
        'perfbench/layers.py: tracer.install(waist_optimizer, "compute_xi", _xi_span, ...)',
    ("overlap_engine", "gauss_hermite"):
        'perfbench/layers.py: tracer.install(overlap_engine, "gauss_hermite", ...)',
}


# module -> the package modules it imports ("__init__" is the package
# itself); the models and the quadrature module sit at the bottom, and the
# far field needs nothing from the overlap engine or the dynamics
MODULE_GRAPH = {
    "paraxial_beam": set(),
    "special_math": set(),
    "ensemble_model": {"paraxial_beam"},
    "overlap_engine": {"ensemble_model", "special_math"},
    "far_field": {"ensemble_model", "special_math"},
    "emission_dynamics": {"ensemble_model", "overlap_engine", "paraxial_beam"},
    "waist_optimizer": {"ensemble_model", "overlap_engine"},
    "validation": {"emission_dynamics", "ensemble_model", "far_field", "overlap_engine",
                   "waist_optimizer"},
    "cli": {"__init__", "emission_dynamics", "ensemble_model", "far_field", "overlap_engine",
            "special_math", "validation", "waist_optimizer"},
    "__init__": {"paraxial_beam", "ensemble_model", "overlap_engine", "special_math"},
}


def package_imports(path):
    """The package modules ``path`` imports, relatively or by absolute name."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == PACKAGE.name:
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                # ``from . import name``: a submodule, or a name of the package
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE.name:
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def imported_and_used(path):
    """The names ``path`` binds by import, and the names it reads or exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported, used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    imported, used = imported_and_used(path)
    kept = {name for module, name in KEPT_FOR_HARNESS if module == path.stem}
    assert sorted(imported - used - kept) == []
    # an allow-list entry whose name the module now uses is stale
    assert sorted(kept & used) == []
    assert kept <= imported


def test_allow_list_names_real_modules():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert {module for module, _ in KEPT_FOR_HARNESS} <= modules


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_graph(path):
    assert sorted(package_imports(path)) == sorted(MODULE_GRAPH[path.stem])


def test_module_graph_covers_the_package():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(MODULE_GRAPH) == modules
    assert set().union(*MODULE_GRAPH.values()) <= modules
