"""The package carries no code, and no parameter default, that only its
tests use.

The checks read the source with `ast`, so they need no lint tool.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toygrasp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Names kept although nothing under `src/` or `bench/` refers to them.
UNREFERENCED_ALLOWED = {
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


def _unreferenced() -> set[str]:
    """The qualified names of the definitions that nothing under `src/` or
    `bench/` refers to.

    The export list of `__init__.py` is a list of imports, which
    `_referenced` does not count, so an export alone is no reference. A
    method counts only as an attribute, so a local variable of the same
    name does not hide it.
    """
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        found = _referenced(_tree(path))
        names |= found[0]
        attributes |= found[1]
    return {
        qualified
        for path in MODULES
        for qualified, name, is_method in _definitions(path)
        if name not in attributes and (is_method or name not in names)
    }


def test_every_definition_is_referenced_outside_the_tests():
    assert sorted(_unreferenced() - UNREFERENCED_ALLOWED) == []


def test_every_allowed_name_is_defined_and_still_unreferenced():
    # An entry for a definition that is gone, or that has since gained a
    # reference, would let a later unreferenced definition of that name in.
    assert sorted(UNREFERENCED_ALLOWED - _unreferenced()) == []


def _defaulted_parameters(path: Path):
    """`(qualified name, function name, parameter, position)` for each
    parameter with a default; `position` counts from the first argument a
    caller passes (after `self` for a method) and is None for keyword-only
    parameters."""
    module = path.stem
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(node.args.defaults)
        for index in range(first, len(positional)):
            arg = positional[index].arg
            yield f"{module}.{node.name}({arg})", node.name, arg, index - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{module}.{node.name}({arg.arg})", node.name, arg.arg, None


def _passed_arguments(paths) -> tuple[dict[str, set[str]], dict[str, int]]:
    """Per called name (a bare name or an attribute), the keywords some call
    in `paths` passes and the most positional arguments one call passes
    before any starred argument."""
    keywords: dict[str, set[str]] = {}
    positional: dict[str, int] = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
            count = next(
                (i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
                len(node.args),
            )
            positional[name] = max(positional.get(name, 0), count)
    return keywords, positional


def test_every_default_is_overridden_outside_the_tests():
    # A parameter whose default no call under `src/` or `bench/` overrides
    # has one value in use, so it is a constant; a test that needs another
    # value patches the constant.
    keywords, positional = _passed_arguments(
        sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    )
    never_passed = [
        qualified
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, function, arg, position in _defaulted_parameters(path)
        if arg not in keywords.get(function, set())
        and (position is None or positional.get(function, 0) <= position)
    ]
    assert never_passed == []
