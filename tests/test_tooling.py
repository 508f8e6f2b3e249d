"""Source-layout guards over src/eulerlab, and the benchmark's hold on it."""

import ast
import importlib
import importlib.util
import shutil
from pathlib import Path

import eulerlab

SRC = Path(eulerlab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Public names that only tests read, each kept on purpose.
TEST_ONLY = {
    "constant_field": "test fixture; moving it into tests/ would not shorten anything",
    "field_from_function": "test fixture, as constant_field",
    "lp_norm": "test fixture: the Field-level norm the tests state their bounds in",
    "calibrate_c0": "reproduces the frozen C0_PRODUCT that the README cites",
    "j1_term": "the kinetic coupling term J1, to be written into the relentropy report",
}


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


def _reads(node: ast.AST, bench: bool = False) -> set[str]:
    """Names and attribute names under ``node``; for ``bench`` also import
    names and string constants, since the benchmark wraps functions by name."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif bench and isinstance(sub, ast.alias):
            found.add(sub.name)
        elif bench and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _unread_public_defs(src: Path, bench: Path) -> list[str]:
    """``module:name`` of every public top-level def or class in ``src`` with
    no reader: no other top-level statement of ``src`` names it (``__init__``
    re-exports do not count), and nothing in ``bench`` does."""
    bench_reads = set().union(*(_reads(ast.parse(p.read_text()), bench=True)
                                for p in bench.glob("*.py")))
    stmts = [(path.name, stmt, _reads(stmt)) for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py" for stmt in ast.parse(path.read_text()).body]
    return [f"{module}:{stmt.name}" for module, stmt, _ in stmts
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in bench_reads
            and not any(stmt.name in reads for _, other, reads in stmts if other is not stmt)]


def test_every_public_def_has_a_reader():
    """No library surface that only tests read, beyond the listed fixtures."""
    unread = _unread_public_defs(SRC, BENCH)
    stray = [entry for entry in unread if entry.split(":")[1] not in TEST_ONLY]
    assert not stray, f"public defs nothing in src/ or perfbench/ reads: {stray}"
    stale = set(TEST_ONLY) - {entry.split(":")[1] for entry in unread}
    assert not stale, f"listed as test-only but now read: {sorted(stale)}"


def test_guard_sees_a_planted_dead_function(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = _unread_public_defs(src, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(n):\n    return planted(n - 1) if n else 0\n")
    with open(src / "__init__.py", "a") as fh:
        fh.write("from .grid import planted\n__all__.append('planted')\n")
    # its own body and an __init__ re-export are no readers
    assert set(_unread_public_defs(src, BENCH)) - set(before) == {"grid.py:planted"}
    with open(src / "besov.py", "a") as fh:
        fh.write("\n_PLANTED = grid.planted\n")
    assert _unread_public_defs(src, BENCH) == before


def _perfbench_tracing():
    """perfbench/tracing.py, imported from the source checkout as it is."""
    path = BENCH / "tracing.py"
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
