"""Every name a package module imports is used there or re-exported.

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
