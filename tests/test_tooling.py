"""Source-layout guards over src/eulerlab."""

import ast
from pathlib import Path

import eulerlab

SRC = Path(eulerlab.__file__).parent


def _fsum_uses(tree: ast.AST):
    """(line, enclosing function names) of every reference to fsum."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        is_ref = ((isinstance(node, ast.Attribute) and node.attr == "fsum")
                  or (isinstance(node, ast.Name) and node.id == "fsum")
                  or (isinstance(node, ast.alias) and node.name == "fsum"))
        if is_ref:
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_math_fsum_only_inside_exact_sum():
    """Every exact sum goes through grid.exact_sum, the one exact-sum primitive."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for line, scope in _fsum_uses(ast.parse(path.read_text(), str(path))):
            if not (path.name == "grid.py" and scope == ("exact_sum",)):
                stray.append(f"{path.name}:{line}")
    assert not stray, f"math.fsum outside grid.exact_sum: {stray}"


def test_guard_sees_fsum():
    uses = _fsum_uses(ast.parse("import math\nfrom math import fsum as f\n"
                                "def g(a):\n    return math.fsum(a)\n"))
    assert [line for line, _ in uses] == [2, 4]
    assert uses[1][1] == ("g",)
