"""The package carries no code that only its tests use.

Both checks read the source with `ast`, so they need no lint tool.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toygrasp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Names kept although nothing under `src/` or `bench/` refers to them.
UNREFERENCED_ALLOWED = {
    # The policy's exact gradient of one history, which the policy
    # finite-difference sweep verifies; `train_step` runs the same
    # `_backward` on a whole batch.
    "policy.policy_grad",
    # The checked reader of the schedule format that docs/formats.md
    # specifies; no command reads a schedule back yet.
    "evalharness.read_schedule",
    # Exact signed volume of one primitive mesh, checked against the
    # analytic volumes; bench/tracing.py names it as a layer in a string.
    "mesh.mesh_volume",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that the code reads or writes."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def _definitions(path: Path):
    """`(qualified name, name, is_method)` for each module-level function and
    class and each method other than a dunder; the interpreter calls those."""
    module = path.stem
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _referenced(tree)[0]
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_definition_is_referenced_outside_the_tests():
    # The export list of `__init__.py` is a list of imports, which
    # `_referenced` does not count, so an export alone is no reference. A
    # method counts only as an attribute, so a local variable of the same
    # name does not hide it.
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        found = _referenced(_tree(path))
        names |= found[0]
        attributes |= found[1]
    unreferenced = [
        qualified
        for path in MODULES
        for qualified, name, is_method in _definitions(path)
        if name not in attributes
        and (is_method or name not in names)
        and qualified not in UNREFERENCED_ALLOWED
    ]
    assert unreferenced == []
