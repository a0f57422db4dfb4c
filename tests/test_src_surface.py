"""Every definition in src/painleve serves the program.

A top-level function or class, or a method whose name is not a dunder,
must be named somewhere in src/ outside its own definition (as a name, an
attribute or an import), be exported in `painleve.__all__`, or be named in
perfbench/spans.py.  A helper that only tests reach belongs in
tests/oracles.py, and each definition there must in turn be named by a
test, a fixture or another oracle.  The check reads names only, so a
member whose name is also used for something else passes it.

No module but algebra.py imports or reads an attribute named like an
underscore member of `painleve.algebra` or `MultiPoly`, so the packed key
format of a polynomial stays private to algebra.py.
"""

import ast
from collections import Counter
from pathlib import Path

import painleve
from painleve import algebra

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "painleve"
TESTS = ROOT / "tests"
SPANS = ROOT / "perfbench" / "spans.py"

# definitions kept although nothing in src/ reaches them yet
ALLOWED = {
    # certificates of a balance: an opt-in CLI flag is to report them
    # (ROADMAP item 6, "Opt-in certificates and an in-package trace")
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


def test_src_defines_nothing_only_tests_reach():
    # an allowed definition that gains a caller leaves ALLOWED too
    reached = set(painleve.__all__) | _spans_names()
    assert sorted(unused_definitions(SRC, reached=reached)) == sorted(ALLOWED)


def test_oracles_define_nothing_no_test_reaches():
    assert unused_definitions(TESTS, checked=["oracles"]) == []


def _private_members() -> set[str]:
    """The underscore names of `painleve.algebra` and of `MultiPoly`, dunders aside."""
    names = set(vars(algebra)) | set(dir(algebra.MultiPoly))
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def test_only_algebra_names_its_private_members():
    # the packed key format (fields, symbol bits, numerators over one
    # denominator) is a decision of algebra.py alone
    private = _private_members()
    assert {"_FIELDS", "_den", "_nums", "_bits"} <= private
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in private:
                leaks.append(f"{path.name}:{node.lineno} {name}")
    assert leaks == []
