"""Every public function, class and method of the package has a caller in it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbk3"

# (module, Class.method) kept with no caller in the package
UNCALLED = {
    # wrapped by name in benchmarks/tracing.py; ROADMAP item 1
    ("linalg", "Echelon.contains"),
    # wrapped by name in benchmarks/tracing.py; ROADMAP item 1
    ("frobenius", "FrobeniusAlgebra.reduce"),
    # wrapped by name in benchmarks/tracing.py; ROADMAP item 1
    ("frobenius", "FrobeniusAlgebra.power_of_linear"),
}


def _uses(node) -> Counter:
    """The names a subtree reads: as a Name, an Attribute or an import."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return found


def _public_definitions(tree):
    """(qualified name, node) of the public module-level defs and classes and
    of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_in_src():
    # A definition counts as used when its name is read anywhere in src/
    # outside its own body.  The names in `_EXPORTS` are strings, so an export
    # is not a use.  The match is by name only: a member that shares its name
    # with a used one (say a method `rows` and a local `rows`) passes.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere: Counter = Counter()
    for tree in trees.values():
        everywhere += _uses(tree)
    uncalled, allowed = [], set()
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            if (module, qualified) in UNCALLED:
                allowed.add((module, qualified))
            elif everywhere[node.name] - _uses(node)[node.name] <= 0:
                uncalled.append(f"{module}.{qualified}")
    assert uncalled == []
    # the allowance names only members that still exist
    assert allowed == UNCALLED
