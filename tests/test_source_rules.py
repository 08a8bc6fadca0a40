"""Rules on the package source that a run cannot show: every invariant is a
check that still runs under `python -O`, and no loop is left without a bound."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbk3"


def _offences(kind):
    """(file:line) of each node the predicate `kind` accepts in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if kind(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_assert_statement_in_the_package():
    # `python -O` strips an assert, so an invariant written as one is not checked
    assert _offences(lambda node: isinstance(node, ast.Assert)) == []


def test_no_unbounded_while_loop_in_the_package():
    # a `while True` (or any constant true test) ends only by a break that a
    # defect can skip, turning it into a run with no bound
    assert _offences(lambda node: isinstance(node, ast.While)
                     and isinstance(node.test, ast.Constant) and node.test.value) == []
