"""Source-layout guards over src/eulerlab, and the benchmark's hold on it."""

import ast
import functools
import hashlib
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eulerlab

SRC = Path(eulerlab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Public names that only tests read, each kept on purpose.
TEST_ONLY = {
    "constant_field": "test fixture; moving it into tests/ would not shorten anything",
    "field_from_function": "test fixture, as constant_field",
    "lp_norm": "test fixture: the Field-level norm the tests state their bounds in",
    "j1_term": "the kinetic coupling term J1, to be written into the relentropy report",
}

#: Result fields that only tests read, each kept on purpose.
TEST_ONLY_FIELDS = {
    "RegularityFit.lengths": "the step-function test checks a modulus against its closed form",
    "RegularityFit.diff_norms": "as RegularityFit.lengths",
    "OslipWeakResult.bump_label": "where the maximum sits; the oracle tests compare it",
    "L1Report.points_fitted": "the fit-window test pins how many points the power law sees",
}

#: Defaulted parameters that no caller in src/ or perfbench/ sets, each kept on purpose.
UNSET_OPTIONS = {
    "make_bump_basis(widths)": "the fast-path-vs-oracle tests build other bases",
    "make_bump_basis(refine_level)": "the fast-path-vs-oracle tests refine the basis",
    "verify_p2(fd_step)": "the finite-difference cross-check of the closed forms",
    "j1_term(mask)": "the window off the wrap jumps; J1 is to enter the relentropy report",
}

#: The keep-lists' sizes at their last count: lower a cap whenever its list shrinks.
_KEEP_LIST_CAPS = {"TEST_ONLY": 4, "TEST_ONLY_FIELDS": 4, "UNSET_OPTIONS": 4}

#: The yardstick at its last count: a change that grows src/ raises this in its own diff.
_YARDSTICK_CAP = 3080


@functools.cache
def _tree(name: str, text: str) -> ast.Module:
    """The parse of module ``name`` with source ``text``, once per content: a
    planted copy of ``src/`` parses again only the files its plant changed.
    The name keeps two modules of equal text from sharing nodes."""
    return ast.parse(text)


def _parse(path: Path) -> ast.Module:
    return _tree(path.name, path.read_text())


def _once_per_content(guard):
    """``guard(src, bench)``, computed once per content of the ``*.py`` files
    it reads: the unplanted tree once per session, and each plant once."""
    found = {}

    @functools.wraps(guard)
    def cached(src: Path, bench: Path) -> list[str]:
        key = hashlib.sha256(repr([(path.name, path.read_text()) for tree in (src, bench)
                                   for path in sorted(tree.glob("*.py"))]).encode()).digest()
        if key not in found:
            found[key] = guard(src, bench)
        return list(found[key])

    return cached


def _uses(tree: ast.AST, name: str, imports: bool = True):
    """(line, enclosing class and function names) of every reference to
    ``name``, import statements included unless ``imports`` is false; an
    import of package ``name`` or of one of its submodules counts too."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        is_ref = ((isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.Name) and node.id == name)
                  or (imports and isinstance(node, ast.alias)
                      and node.name.split(".")[0] == name)
                  or (imports and isinstance(node, ast.ImportFrom) and node.level == 0
                      and node.module.split(".")[0] == name))
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
        for line, scope in _uses(_parse(path), "fsum"):
            if not (path.name == "grid.py" and scope == ("exact_sum",)):
                stray.append(f"{path.name}:{line}")
    assert not stray, f"math.fsum outside grid.exact_sum: {stray}"


def _stray_uses(src: Path, name: str, home: tuple, modules=None) -> list[str]:
    """``module:line`` of every non-import reference to ``name`` in ``modules``
    (default: all of ``src``) outside the (module, scope) ``home``; asserts
    there is one."""
    uses = {(path.name, line, scope) for path in sorted(src.glob("*.py"))
            if modules is None or path.name in modules
            for line, scope in _uses(_parse(path), name, imports=False)}
    assert uses, f"{name} is gone"
    return [f"{module}:{line}" for module, line, scope in sorted(uses)
            if (module, scope) != home]


def test_ball_offsets_only_inside_the_modulus_table():
    """One function builds a ball table: no second per-eps ball loop."""
    stray = _stray_uses(SRC, "ball_offsets", ("besov.py", ("ModulusTable", "__init__")))
    assert not stray, f"ball_offsets outside besov.ModulusTable: {stray}"


#: The name the guard tracks, its one allowed (module, scope), and the modules it checks.
_ONE_MODULUS = ("shift_values", ("besov.py", ("_diff_norm",)), ("besov.py", "commutator.py"))


def test_one_shift_modulus_evaluation():
    """besov._diff_norm is the one place the estimate monitors form
    f(.+h) - f: every shift modulus is read from a table it fills."""
    stray = _stray_uses(SRC, *_ONE_MODULUS)
    assert not stray, f"shift_values outside besov._diff_norm: {stray}"


def test_modulus_guard_sees_a_planted_evaluation(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "commutator.py", "a") as fh:
        fh.write("\n\nclass Planted:\n    def sup(self, v, off):\n"
                 "        return abs(grid.shift_values(v, off) - v).max()\n")
    last = (src / "commutator.py").read_text().count("\n")
    assert _stray_uses(src, *_ONE_MODULUS) == [f"commutator.py:{last}"]


#: The window rule's refusal, and the one (module, scope) that states it.
_WINDOW_REFUSAL = ("at least two", ("grid.py", ("time_window",)))


def _stray_strings(src: Path, text: str, home: tuple) -> list[str]:
    """``module:line`` of every string constant (f-string parts and docstrings
    included) in ``src`` that holds ``text``, outside the (module, scope)
    ``home``; asserts there is one inside it."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append((module, node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(src.glob("*.py")):
        visit(_parse(path), path.name, ())
    assert any((module, scope) == home for module, _, scope in found), f"{text!r} is gone"
    return [f"{module}:{line}" for module, line, scope in found if (module, scope) != home]


def test_one_window_rule():
    """The refusal of a time window with fewer than two snapshots is raised in
    grid.time_window alone: every caller's window goes through it."""
    stray = _stray_strings(SRC, *_WINDOW_REFUSAL)
    assert not stray, f"the window refusal outside grid.time_window: {stray}"


def test_window_guard_sees_planted_refusals(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "conditions.py", "a") as fh:
        fh.write("\n\ndef planted(inside):\n    if inside.sum() < 2:\n"
                 "        raise ValueError('need at least two samples past delta')\n")
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(inside, sigma):\n    if inside.sum() < 2:\n"
                 "        raise ValueError(f'need at least two snapshots past sigma={sigma}')\n")
    last = (src / "conditions.py").read_text().count("\n")
    last_grid = (src / "grid.py").read_text().count("\n")
    assert _stray_strings(src, *_WINDOW_REFUSAL) == [f"conditions.py:{last}",
                                                     f"grid.py:{last_grid}"]


def _stray_rolls(src: Path) -> list[str]:
    """``module:line`` of every np.roll outside grid.py, the one module that
    shifts arrays periodically."""
    return [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
            if path.name != "grid.py"
            for line, _ in _uses(_parse(path), "roll")]


def test_np_roll_only_inside_grid():
    """A periodic shift goes through grid (shift_values, grad_values), not
    through a private np.roll."""
    stray = _stray_rolls(SRC)
    assert not stray, f"np.roll outside grid.py: {stray}"


def test_roll_guard_sees_a_planted_roll(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "relentropy.py", "a") as fh:
        fh.write("\n\ndef planted(v):\n    return np.roll(v, -1, axis=0) - v\n")
    last = (src / "relentropy.py").read_text().count("\n")
    assert _stray_rolls(src) == [f"relentropy.py:{last}"]


#: The one convolution: the mollifier's spectrum and mollify_values, in grid.py.
_FFT_HOME = {("grid.py", ("Mollifier", "__post_init__")), ("grid.py", ("mollify_values",))}


def _stray_ffts(src: Path) -> list[str]:
    """``module:line`` of every FFT reference in ``src`` outside ``_FFT_HOME``:
    ``np.fft``, a name ``fft``, or an import of or from an ``fft`` module."""
    stray = set()
    for path in sorted(src.glob("*.py")):
        tree = _parse(path)
        uses = _uses(tree, "fft") + [
            (node.lineno, ()) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("fft" in name.split(".") for name in
                    [getattr(node, "module", None) or ""] + [a.name for a in node.names])]
        stray |= {(path.name, line) for line, scope in uses
                  if (path.name, scope) not in _FFT_HOME}
    return [f"{module}:{line}" for module, line in sorted(stray)]


def test_np_fft_only_inside_the_mollifier():
    """A convolution goes through grid.mollify_values, the one place that
    multiplies spectra."""
    stray = _stray_ffts(SRC)
    assert not stray, f"FFT outside grid's mollifier: {stray}"


def test_fft_guard_sees_planted_transforms(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "besov.py", "a") as fh:
        fh.write("\n\nfrom numpy.fft import irfft\n\n\n"
                 "def planted(v):\n    return np.fft.rfft(v)\n")
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(v):\n    return np.fft.rfft(v)\n")
    last = (src / "besov.py").read_text().count("\n")
    last_grid = (src / "grid.py").read_text().count("\n")
    assert _stray_ffts(src) == [f"besov.py:{last - 4}", f"besov.py:{last}",
                                f"grid.py:{last_grid}"]


#: Quadratures that would integrate over time past grid.time_trapezoid.
_TRAPEZOIDS = ("trapezoid", "trapz", "cumulative_trapezoid")


def _stray_trapezoids(src: Path) -> list[str]:
    """``module:line`` of every reference to a library trapezoid rule in ``src``."""
    return sorted(f"{path.name}:{line}" for path in src.glob("*.py")
                  for name in _TRAPEZOIDS
                  for line, _ in _uses(_parse(path), name))


def test_one_trapezoid_in_time():
    """Every time integral over snapshots goes through grid.time_trapezoid,
    which sums left to right as the Gronwall envelope's loop did."""
    stray = _stray_trapezoids(SRC)
    assert not stray, f"library trapezoid rule under src/: {stray}"


def test_trapezoid_guard_sees_planted_rules(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "conditions.py", "a") as fh:
        fh.write("\n\nfrom scipy.integrate import cumulative_trapezoid\n\n\n"
                 "def planted(v, t):\n    return np.trapezoid(v, t) + np.trapz(v, t)\n")
    last = (src / "conditions.py").read_text().count("\n")
    assert _stray_trapezoids(src) == sorted(
        [f"conditions.py:{last - 4}", f"conditions.py:{last}", f"conditions.py:{last}"])


#: Run in a fresh interpreter: the everyday CLI subcommands on small inputs, then
#: the 9 acceptance gates unless its third argument is "cli"; prints the scipy
#: modules loaded after each.
_STARTUP_SCRIPT = """
import json, sys
from pathlib import Path
import eulerlab.cli
from eulerlab import acceptance
from eulerlab.grid import PeriodicGrid, save_scalar_field, weierstrass_field

tmp = Path(sys.argv[1])
assert Path(eulerlab.cli.__file__).resolve().parents[1] == Path(sys.argv[2]).resolve()
cfg = tmp / "cfg.json"
cfg.write_text(json.dumps({"grid_n": 16, "t_end": 0.1, "snapshot_stride": 0.05,
                           "init": {"name": "double_rarefaction"}}))
save_scalar_field(tmp / "field.csv", weierstrass_field(0.6, 8, PeriodicGrid(1, 256)))
codes = [eulerlab.cli.main(argv) for argv in (
    ["simulate", "--config", str(cfg), "--out", str(tmp / "a")],
    ["simulate", "--config", str(cfg), "--grid-n", "32", "--out", str(tmp / "b")],
    ["relentropy", "--traj-a", str(tmp / "a"), "--traj-b", str(tmp / "b"), "--sigma", "0",
     "--out", str(tmp / "re")],
    ["oslip-check", "--traj", str(tmp / "a"), "--out", str(tmp / "os")],
    ["besov-fit", "--field", str(tmp / "field.csv"), "--out", str(tmp / "bf")])]


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


after_cli = scipy_modules()
gates = [] if sys.argv[3] == "cli" else acceptance.run_all()
print(json.dumps({"codes": codes, "after_cli": after_cli, "gates": len(gates),
                  "after_gates": scipy_modules()}))
"""


def _startup_imports(tree: Path, tmp: Path, run: str = "all") -> dict:
    """What the start-up script reports when eulerlab is imported from ``tree``;
    ``run="cli"`` skips the gates."""
    env = {**os.environ, "PYTHONPATH": str(tree)}
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp), str(tree), run],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_starts_without_scipy(tmp_path):
    """Nothing at run time loads scipy: not the everyday subcommands, and not
    the acceptance gates."""
    found = _startup_imports(SRC.parent, tmp_path)
    assert all(code in (0, 1) for code in found["codes"]), found["codes"]
    assert found["after_cli"] == [], f"scipy loaded by the CLI: {found['after_cli'][:5]}"
    assert found["gates"] == 9
    assert found["after_gates"] == [], f"scipy loaded by the gates: {found['after_gates'][:5]}"


def test_startup_guard_sees_a_planted_import(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(SRC, tree / "eulerlab", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "eulerlab" / "grid.py", "a") as fh:
        fh.write("\nfrom scipy.stats import qmc\n")
    (tmp_path / "run").mkdir()
    # the plant loads with the CLI, so the gates need not run to show it
    assert "scipy.stats" in _startup_imports(tree, tmp_path / "run", "cli")["after_cli"]


def _scipy_imports(src: Path) -> list[str]:
    """``module:line`` of every import of scipy or a scipy submodule in ``src``,
    at any depth (module level or inside a function)."""
    return sorted(f"{path.name}:{line}" for path in src.glob("*.py")
                  for line, _ in _uses(_parse(path), "scipy"))


def test_no_scipy_import_under_src():
    """numpy is the one run-time dependency; scipy is a test dependency."""
    stray = _scipy_imports(SRC)
    assert not stray, f"scipy imported under src/: {stray}"


def test_scipy_guard_sees_a_planted_local_import(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(n):\n    from scipy.stats import qmc\n"
                 "    return qmc.Sobol(d=1).random(n)\n\n\n"
                 "def planted_too():\n    import scipy.special as sp\n    return sp\n")
    last = (src / "grid.py").read_text().count("\n")
    assert _scipy_imports(src) == [f"grid.py:{last - 6}", f"grid.py:{last - 1}"]


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


@_once_per_content
def _unread_public_defs(src: Path, bench: Path) -> list[str]:
    """``module:name`` of every public top-level def or class in ``src`` with
    no reader: no other top-level statement of ``src`` names it (``__init__``
    re-exports do not count), and nothing in ``bench`` does."""
    bench_reads = set().union(*(_reads(_parse(p), bench=True)
                                for p in bench.glob("*.py")))
    stmts = [(path.name, stmt, _reads(stmt)) for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py" for stmt in _parse(path).body]
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
    before = _unread_public_defs(SRC, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(n):\n    return planted(n - 1) if n else 0\n")
    with open(src / "__init__.py", "a") as fh:
        fh.write("from .grid import planted\n__all__.append('planted')\n")
    # its own body and an __init__ re-export are no readers
    assert set(_unread_public_defs(src, BENCH)) - set(before) == {"grid.py:planted"}
    with open(src / "besov.py", "a") as fh:
        fh.write("\n_PLANTED = grid.planted\n")
    assert _unread_public_defs(src, BENCH) == before


#: Scopes of their own: a receiver name inside one is looked up there first.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: What a name bound to an eulerlab module resolves to; its attributes are no fields.
_SRC_MODULE = "eulerlab module"


def _union(*types):
    """One type from several: unknown (None) if any is unknown or a module."""
    if not all(isinstance(t, frozenset) for t in types):
        return None
    return frozenset().union(*types)


def _own_nodes(node: ast.AST):
    """Every node under ``node``, in source order, without entering a nested scope
    (the nested scope's own node is yielded)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


class _Receivers:
    """Resolves the receiver ``x`` of a read ``x.f`` to a type: a frozenset of
    ``src`` class names (empty for what comes from outside ``src``, such as an
    ``argparse.Namespace``), or None where it cannot be told (a loop variable,
    an unannotated parameter, what a builtin returns).

    ``self`` is its class; a parameter or variable is its annotation; a name
    assigned from ``C(...)``, or from a call of a ``src`` def annotated
    ``-> C``, is ``C``; an attribute is its field's annotation; a call on
    something from outside ``src`` returns something from outside ``src``."""

    def __init__(self, trees: dict[str, ast.Module]):
        """``trees``: the parsed modules of ``src``, by module name."""
        self.modules = set(trees)
        self.classes, self.aliases, self.returns = {}, {}, {}
        for tree in trees.values():
            self.aliases.update((st.targets[0].id, st.value) for st in tree.body
                                if isinstance(st, ast.Assign) and len(st.targets) == 1
                                and isinstance(st.targets[0], ast.Name))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.returns.setdefault(node.name, []).append(node.returns)

    def annotation(self, node):
        """The type an annotation names: ``C``, ``C | D``, a ``src`` alias of
        these, or a string of one; anything else is outside ``src``."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union(self.annotation(node.left), self.annotation(node.right))
        name = getattr(node, "id", getattr(node, "attr", None))
        if name in self.classes:
            return frozenset({name})
        if isinstance(node, ast.Name) and name in self.aliases:
            return self.annotation(self.aliases[name])
        return frozenset()

    def member(self, owner, name: str, called: bool):
        """Type of ``x.name``, or of the call ``x.name(...)``, for ``x`` of type
        ``owner``: a field's annotation, a property's or a called method's
        return annotation."""
        if not owner:   # None, or something from outside src
            return owner
        types = []
        for cls in owner:
            st = next((st for st in self.classes[cls].body
                       if name in (getattr(st, "name", None),
                                   getattr(getattr(st, "target", None), "id", None))), None)
            if isinstance(st, ast.AnnAssign) and not called:
                types.append(self.annotation(st.annotation))
            elif isinstance(st, ast.FunctionDef) and (called or st.decorator_list):
                types.append(self.annotation(st.returns))
            else:
                return None
        return _union(*types)

    def type_of(self, node: ast.AST, env: list[dict]):
        """The type of the expression ``node`` in the scopes ``env``, innermost first."""
        if isinstance(node, ast.Name):
            return next((scope[node.id] for scope in env if node.id in scope), None)
        if isinstance(node, ast.IfExp):
            return _union(self.type_of(node.body, env), self.type_of(node.orelse, env))
        called = isinstance(node, ast.Call)
        func = node.func if called else node
        if isinstance(func, ast.Attribute):
            owner = self.type_of(func.value, env)
            if owner != _SRC_MODULE:
                return self.member(owner, func.attr, called)
            name = func.attr
        elif called and isinstance(func, ast.Name):
            if any(func.id in scope for scope in env):
                return frozenset() if self.type_of(func, env) == frozenset() else None
            name = func.id
        else:
            return None
        if not called:
            return None
        if name in self.classes:
            return frozenset({name})
        return _union(*map(self.annotation, self.returns.get(name, [None])))

    def reads(self, tree: ast.Module) -> list:
        """(attribute, receiver type) of every attribute read in ``tree``."""
        found = []

        def scope(node, outer: list[dict], cls: str | None = None):
            env: dict = {}
            chain = [env] + outer

            def bind(name, kind):
                env[name] = kind if env.get(name, kind) == kind else _union(env[name], kind)

            if not isinstance(node, (ast.Module, ast.ClassDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                for i, arg in enumerate(params):
                    bind(arg.arg, frozenset({cls} & self.classes.keys()) if cls and i == 0 else
                         self.annotation(arg.annotation))
                for arg in (a.vararg, a.kwarg):
                    if arg:
                        bind(arg.arg, None)
            typed, attrs, nested = set(), [], []
            for sub in _own_nodes(node):
                if isinstance(sub, ast.Attribute):
                    attrs.append(sub)
                elif isinstance(sub, _SCOPES):
                    nested.append(sub)
                elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(
                        sub.targets[0], ast.Name):
                    typed.add(sub.targets[0])
                    bind(sub.targets[0].id, self.type_of(sub.value, chain))
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    typed.add(sub.target)
                    bind(sub.target.id, self.annotation(sub.annotation))
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    if sub not in typed:
                        bind(sub.id, None)
                elif isinstance(sub, ast.ExceptHandler) and sub.name:
                    bind(sub.name, None)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        root = alias.name.split(".")[0]
                        bind(alias.asname or root,
                             _SRC_MODULE if root == "eulerlab" else frozenset())
                elif isinstance(sub, ast.ImportFrom):
                    ours = sub.level > 0 or sub.module.split(".")[0] == "eulerlab"
                    for alias in sub.names:
                        if not ours or alias.name in self.modules:
                            bind(alias.asname or alias.name,
                                 _SRC_MODULE if ours else frozenset())
            for a in attrs:
                owner = self.type_of(a.value, chain)
                found.append((a.attr, frozenset() if owner == _SRC_MODULE else owner))
            for sub in nested:
                if isinstance(node, ast.ClassDef) and not isinstance(sub, ast.Lambda):
                    # a method does not see the class body; its first parameter is the class
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in sub.decorator_list)
                    scope(sub, outer, None if static or isinstance(sub, ast.ClassDef)
                          else node.name)
                else:
                    scope(sub, chain)

        scope(tree, [])
        return found


@_once_per_content
def _unread_fields(src: Path, bench: Path) -> list[str]:
    """``Class.field`` of every dataclass or NamedTuple field in ``src`` that no
    attribute read in ``src`` or ``bench`` takes: a read ``x.f`` counts for
    ``C.f`` when ``x`` resolves to ``C`` or cannot be resolved (see
    ``_Receivers``).  String constants in ``bench`` keep no field alive."""
    # each file is parsed once: the receivers, the reads and the classes share the trees
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    known = _Receivers(trees)
    readers: dict[str, set] = {}   # attribute -> the classes its reads count for; None: all
    bench_trees = [_parse(path) for path in sorted(bench.glob("*.py"))]
    for tree in [*trees.values(), *bench_trees]:
        for attr, owner in known.reads(tree):
            readers.setdefault(attr, set()).update(
                {None} if owner is None else owner)
    found = []
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and (
                    "NamedTuple" in {getattr(b, "id", None) for b in cls.bases}
                    or any("dataclass" in _reads(d) for d in cls.decorator_list)):
                found += [f"{cls.name}.{st.target.id}" for st in cls.body
                          if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                          and not readers.get(st.target.id, set()) & {None, cls.name}]
    return found


def test_every_result_field_has_a_reader():
    """No result value that nothing reads, beyond the listed test-only fields."""
    unread = _unread_fields(SRC, BENCH)
    stray = sorted(set(unread) - set(TEST_ONLY_FIELDS))
    assert not stray, f"fields nothing in src/ or perfbench/ reads: {stray}"
    stale = sorted(set(TEST_ONLY_FIELDS) - set(unread))
    assert not stale, f"listed as test-only but now read: {stale}"


def test_field_guard_sees_a_planted_field(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = _unread_fields(SRC, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\n@dataclass(frozen=True)\nclass Planted:\n"
                 "    kept: float\n    planted_extra: int = 0\n\n\n"
                 "def planted(x):\n"
                 "    return Planted(x, 1).kept + Planted(x, planted_extra=2).kept\n")
    # construction is no reader, neither by position nor by keyword
    assert set(_unread_fields(src, BENCH)) - set(before) == {"Planted.planted_extra"}
    with open(src / "besov.py", "a") as fh:
        fh.write("\n_PLANTED = grid.planted(1.0).planted_extra\n")
    assert _unread_fields(src, BENCH) == before


#: A record whose one field shares its name with Trajectory.times, which src reads,
#: and a def that returns it.
_PLANTED_TIMES = ("\n\n@dataclass(frozen=True)\nclass Planted:\n    times: float\n\n\n"
                  "def planted(x: float) -> Planted:\n    return Planted(x)\n")


@pytest.mark.parametrize("reader,reads", [
    ("def planted_reader(rec: grid.Planted):\n    return rec.times\n", True),
    ("def planted_reader():\n    rec = grid.planted(1.0)\n    return rec.times\n", True),
    ("def planted_reader(rows):\n    return [row.times for row in rows]\n", True),
    ("def planted_reader(traj: Trajectory):\n    return traj.times\n", False),
    ("def planted_reader(args: argparse.Namespace):\n    return args.times\n", False),
    ("def planted_reader():\n    from argparse import ArgumentParser\n"
     "    args = ArgumentParser().parse_args()\n    return args.times\n", False),
], ids=["annotated-parameter", "returned-by-src-def", "unresolvable", "other-class",
        "annotated-outside-src", "called-outside-src"])
def test_field_guard_resolves_receivers(tmp_path, reader, reads):
    """A read x.times keeps Planted.times alive when x is a Planted or cannot
    be told; a Trajectory, or an argparse.Namespace, keeps it unread."""
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = _unread_fields(SRC, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write(_PLANTED_TIMES)
    # src reads Trajectory.times and RelEntropyTrace.times, not Planted.times
    assert set(_unread_fields(src, BENCH)) - set(before) == {"Planted.times"}
    with open(src / "besov.py", "a") as fh:
        fh.write("\n\n" + reader)
    assert set(_unread_fields(src, BENCH)) - set(before) == (set() if reads else {"Planted.times"})


def test_bench_strings_keep_defs_but_no_fields_alive(tmp_path):
    """The benchmark wraps functions by name, so its strings keep a def
    alive; a dict key of the same name as a field reads no field."""
    src, bench = tmp_path / "eulerlab", tmp_path / "perfbench"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    fields, defs = _unread_fields(SRC, BENCH), _unread_public_defs(SRC, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write(_PLANTED_TIMES.replace("times", "planted_key")
                 + "\n\ndef planted_entry():\n    return planted(1.0)\n")
    assert set(_unread_fields(src, bench)) - set(fields) == {"Planted.planted_key"}
    assert set(_unread_public_defs(src, bench)) - set(defs) == {"grid.py:planted_entry"}
    with open(bench / "run.py", "a") as fh:
        fh.write('\n_PLANTED = {"planted_key": 0, "planted_entry": 1}\n')
    assert set(_unread_fields(src, bench)) - set(fields) == {"Planted.planted_key"}
    assert _unread_public_defs(src, bench) == defs


def test_relentropy_report_columns_are_named_in_relentropy_alone():
    """relentropy_trace.csv's columns are decided in one place: no second list
    of their names (the five that no other report shares) anywhere in src/."""
    names = ("budget", "fitted_K", "integral_E", "k_thermo", "oslip_C")
    found = sorted((path.name, node.value) for path in SRC.glob("*.py")
                   for node in ast.walk(_parse(path))
                   if isinstance(node, ast.Constant) and node.value in names)
    assert found == [("relentropy.py", name) for name in names]


def test_keep_lists_only_shrink():
    sizes = {name: len(globals()[name]) for name in _KEEP_LIST_CAPS}
    grown = {name: (n, _KEEP_LIST_CAPS[name]) for name, n in sizes.items()
             if n > _KEEP_LIST_CAPS[name]}
    assert not grown, f"keep-lists past their caps, (size, cap): {grown}"


def _yardstick(src: Path) -> int:
    """Non-blank, non-comment lines of the ``*.py`` files under ``src``,
    docstrings included."""
    return sum(1 for path in src.rglob("*.py") for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def test_yardstick_stays_under_its_cap():
    """The library grows only where a change raises the cap on purpose."""
    lines = _yardstick(SRC)
    assert lines <= _YARDSTICK_CAP, f"src/ has {lines} yardstick lines, cap {_YARDSTICK_CAP}"


def test_yardstick_counts_code_and_docstrings(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text('"""Doc\n\n    more doc."""\n\n# note\nx = 1  # n\n    \n')
    (tmp_path / "sub" / "b.py").write_text("def f():\n    # inside\n    return 2\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert _yardstick(tmp_path) == 5


def _options(tree: ast.Module):
    """(def node, parameter, position or None) of every defaulted parameter of
    a public def or method; the position counts from the first argument a
    caller passes, and keyword-only parameters have none."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                pos = (a.posonlyargs + a.args)[1 if bound else 0:]
                found.extend((node, arg.arg, i) for i, arg in enumerate(pos)
                             if i >= len(pos) - len(a.defaults))
                found.extend((node, arg.arg, None)
                             for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)

    visit(tree.body, False)
    return found


def _calls(tree: ast.AST):
    """(called name, call node, enclosing defs) of every call by name or attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.append((name, node, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` sets the parameter; a ``*`` or ``**`` argument may set any."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


@_once_per_content
def _unset_options(src: Path, bench: Path) -> list[str]:
    """``def(parameter)`` of every defaulted parameter of a public def or
    method in ``src`` that no call of that name passes, by keyword or by
    position: in ``src`` outside the def's own body, or in ``bench``."""
    trees = [_parse(path) for path in sorted(src.glob("*.py"))]
    calls = [c for tree in trees for c in _calls(tree)]
    calls += [(name, call, ()) for path in sorted(bench.glob("*.py"))
              for name, call, _ in _calls(_parse(path))]
    return [f"{node.name}({param})" for tree in trees for node, param, position in _options(tree)
            if not any(name == node.name and node not in scope
                       and _passes(call, param, position) for name, call, scope in calls)]


def test_every_option_is_set_by_a_caller():
    """A library option that one value reaches is a constant, beyond the listed ones."""
    unset = _unset_options(SRC, BENCH)
    stray = sorted(set(unset) - set(UNSET_OPTIONS))
    assert not stray, f"defaulted parameters nothing in src/ or perfbench/ sets: {stray}"
    stale = sorted(set(UNSET_OPTIONS) - set(unset))
    assert not stale, f"listed as unset but now set by a caller: {stale}"


def test_option_guard_sees_a_planted_option(tmp_path):
    src = tmp_path / "eulerlab"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = _unset_options(SRC, BENCH)
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef planted(n, depth=0, *, scale=1.0):\n"
                 "    return planted(n - 1, depth + 1, scale=scale) if n else depth\n")
    # its own body is no caller
    assert set(_unset_options(src, BENCH)) - set(before) == {
        "planted(depth)", "planted(scale)"}
    with open(src / "besov.py", "a") as fh:
        fh.write("\n_PLANTED = grid.planted(3, 1)\n")
    assert set(_unset_options(src, BENCH)) - set(before) == {"planted(scale)"}
    with open(src / "besov.py", "a") as fh:
        fh.write("_SCALED = grid.planted(3, scale=2.0)\n")
    assert _unset_options(src, BENCH) == before


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
