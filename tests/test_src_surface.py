"""Every definition in src/painleve serves the program.

A top-level function or class, or a method whose name is not a dunder,
must be named somewhere in src/ outside its own definition (as a name, an
attribute or an import), be exported in `painleve.__all__`, or be named in
perfbench/spans.py.  A helper that only tests reach belongs in
tests/oracles.py, and each definition there must in turn be named by a
test, a fixture or another oracle.  That check reads names only, so a
member whose name is also used for something else passes it; a method must
therefore also be read as an attribute (`x.name`, loaded, not stored) in
src/ outside its own body, unless `__all__` or perfbench/spans.py names it.

An underscore name stays private to the module that binds it: no other
module imports it or reads an attribute by that name.  So the packed key
format of a polynomial stays private to algebra.py.

A module reads every name it imports, except `painleve/__init__.py`, whose
imports are its re-exports.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import painleve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "painleve"
TESTS = ROOT / "tests"
SPANS = ROOT / "perfbench" / "spans.py"

# definitions kept although nothing in src/ reaches them yet
ALLOWED = {
    # certificates of a balance: an opt-in CLI flag is to report them
    # (ROADMAP item 9, "Opt-in certificates and an in-package trace")
    "core.residual_check",
    "core.basic_resonance_check",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each top-level function and
    class and of each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _names(tree: ast.AST) -> Counter:
    """Occurrences of each name, attribute name and imported name in `tree`."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _spans_names() -> set[str]:
    tree = ast.parse(SPANS.read_text())
    strings = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return strings | set(_names(tree))


def unused_definitions(directory: Path, checked=None, reached=frozenset()) -> list[str]:
    """Definitions in the modules `checked` (default: all) of `directory`
    that no module there names outside the definition itself, and that are
    not in `reached`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}
    counts = {module: _names(tree) for module, tree in trees.items()}
    flagged = []
    for module in checked or trees:
        others = set().union(*(c for m, c in counts.items() if m != module))
        for qualified, name, node in _definitions(trees[module]):
            if name in reached or name in others:
                continue
            if counts[module][name] == _names(node)[name]:  # named only inside itself
                flagged.append(f"{module}.{qualified}")
    return flagged


def _attribute_loads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def unread_methods(directory: Path, reached=frozenset()) -> list[str]:
    """Methods of the classes in `directory` whose name no module there loads
    as an attribute outside the method's own body, and not in `reached`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}
    loads = sum((_attribute_loads(tree) for tree in trees.values()), Counter())
    flagged = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if "." in qualified and name not in reached:
                if loads[name] == _attribute_loads(node)[name]:
                    flagged.append(f"{module}.{qualified}")
    return flagged


def test_src_defines_nothing_only_tests_reach():
    # an allowed definition that gains a caller leaves ALLOWED too
    reached = set(painleve.__all__) | _spans_names()
    assert sorted(unused_definitions(SRC, reached=reached)) == sorted(ALLOWED)


def test_src_methods_are_read_as_attributes():
    # a method whose name only collides with a local variable or a stored
    # field (`det`, `column`) is still unread
    reached = set(painleve.__all__) | _spans_names()
    assert unread_methods(SRC, reached=reached) == []


def test_oracles_define_nothing_no_test_reaches():
    assert unused_definitions(TESTS, checked=["oracles"]) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_members(module: str, tree: ast.Module) -> set[str]:
    """The underscore names, dunders aside, that a module binds: its
    functions, classes, arguments, assigned names and stored attributes, and
    the members of its classes (slots among them)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = getattr(importlib.import_module(f"painleve.{module}"), node.name)
            names |= set(dir(cls))
    return {name for name in names if _is_private(name)}


def test_each_module_keeps_its_private_names():
    # the packed key format (fields, symbol bits, numerators over one
    # denominator) is a decision of algebra.py alone, and so on for every
    # module's own helpers
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    private = {module: _private_members(module, tree) for module, tree in trees.items()}
    assert {"_FIELDS", "_den", "_nums", "_bits"} <= private["algebra"]
    leaks = []
    for module, tree in trees.items():
        others = set().union(*(names for m, names in private.items() if m != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("painleve")):
                leaks += [f"{module}:{node.lineno} {a.name}" for a in node.names if _is_private(a.name)]
            elif isinstance(node, ast.Attribute):
                if node.attr in others and node.attr not in private[module]:
                    leaks.append(f"{module}:{node.lineno} {node.attr}")
    assert leaks == []


def unused_imports(directory: Path) -> list[str]:
    """`module:line name` for each name a module of `directory` (its
    `__init__` aside) imports and never reads; `__future__` imports are
    compiler directives, not names."""
    flagged = []
    for path in sorted(directory.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        flagged.append(f"{path.stem}:{node.lineno} {name}")
    return flagged


def test_src_modules_read_every_name_they_import():
    assert unused_imports(SRC) == []


def test_an_unread_import_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .algebra import as_poly\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .algebra import MultiPoly, as_poly as poly\n"
        "x: MultiPoly = os.path.sep\n"
    )
    assert unused_imports(tmp_path) == ["mod:3 poly"]
