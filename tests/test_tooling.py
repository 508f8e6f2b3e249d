"""Source-layout guards over src/eulerlab, and the benchmark's hold on it."""

import ast
import importlib
import importlib.util
from pathlib import Path

import eulerlab

SRC = Path(eulerlab.__file__).parent


def _uses(tree: ast.AST, name: str, imports: bool = True):
    """(line, enclosing function names) of every reference to ``name``,
    import statements included unless ``imports`` is false."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        is_ref = ((isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.Name) and node.id == name)
                  or (imports and isinstance(node, ast.alias) and node.name == name))
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
        for line, scope in _uses(ast.parse(path.read_text(), str(path)), "fsum"):
            if not (path.name == "grid.py" and scope == ("exact_sum",)):
                stray.append(f"{path.name}:{line}")
    assert not stray, f"math.fsum outside grid.exact_sum: {stray}"


def test_ball_offsets_only_inside_ball_sups():
    """One ball-sup scan enumerates lattice balls: no second per-eps loop."""
    uses = {(path.name, line, scope) for path in sorted(SRC.glob("*.py"))
            for line, scope in _uses(ast.parse(path.read_text(), str(path)), "ball_offsets",
                                     imports=False)}
    stray = [f"{name}:{line}" for name, line, scope in sorted(uses)
             if not (name == "besov.py" and scope == ("ball_sups",))]
    assert uses and not stray, f"ball_offsets outside besov.ball_sups: {stray}"


def test_guard_sees_fsum():
    uses = _uses(ast.parse("import math\nfrom math import fsum as f\n"
                           "def g(a):\n    return math.fsum(a)\n"), "fsum")
    assert [line for line, _ in uses] == [2, 4]
    assert uses[1][1] == ("g",)


def _perfbench_tracing():
    """perfbench/tracing.py, imported from the source checkout as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer wraps by name still exists."""
    tracing = _perfbench_tracing()
    missing = [f"{mod}.{attr}" for mod, table in tracing.TARGETS.items()
               for attr in table if attr != "*"
               and not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"benchmark trace targets gone: {missing}"


def test_benchmark_counts_the_bump_basis():
    """The traced run counts bumps through the basis labels: 5,376 at 32^2."""
    tracing = _perfbench_tracing()
    for mod in tracing.TARGETS:
        importlib.import_module(mod)
    from eulerlab import conditions
    from eulerlab.grid import PeriodicGrid

    tracer = tracing.Tracer()
    tracer.install()
    try:
        basis = conditions.make_bump_basis(PeriodicGrid(2, 32))
    finally:
        tracer.uninstall()
    assert len(basis.labels) == 5376
    assert tracer.counts[(-1, "conditions.bumps_built")] == 5376
