"""Rules on the package source that a run cannot show: every invariant is a
check that still runs under `python -O`, no loop is left without a bound,
and nothing floats."""

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


def test_no_float_literal_in_the_package():
    assert _offences(lambda node: isinstance(node, ast.Constant)
                     and isinstance(node.value, (float, complex))) == []


def test_no_float_call_in_the_package():
    assert _offences(lambda node: isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id == "float") == []


# (module, function) of each true division in the package; each has a
# Fraction operand, and a `/` of two ints would give a float
DIVISIONS = {("linalg", "Echelon.add"), ("linalg", "Gram.column")}


def _divisions(tree, module, scope=()):
    """(module, qualified function) of each `/` and `/=` below the node tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _divisions(node, module, scope + (node.name,))
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield module, ".".join(scope)
        yield from _divisions(node, module, scope)


def test_every_true_division_is_on_the_pinned_list():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _divisions(ast.parse(path.read_text()), path.stem)]
    assert sorted(found) == sorted(DIVISIONS)


def test_only_the_main_module_has_a_main_block():
    # one entry point: `python -m hilbk3` runs __main__.py, and the installed
    # script calls cli.main itself
    assert [hit.split(":")[0] for hit in _offences(
        lambda node: isinstance(node, ast.If)
        and ast.unparse(node.test) == "__name__ == '__main__'")] == ["__main__.py"]
