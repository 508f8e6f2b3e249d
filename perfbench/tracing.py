"""In-memory span tracer installed around eulerlab's public functions.

The tracer wraps functions from the benchmark's side only: each wrapped
function is rebound in every ``eulerlab`` module namespace that holds it,
because the modules import names directly (``from .grid import
lp_norm_values``) and patching the defining module alone would miss those
callers.  Spans are kept in memory as (name, start, end, parent, pass id)
and written out when the run ends; self times are the span duration minus
the time covered by its direct children.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span names of the wrapped functions, per defining module.  "*" names the
# span prefix for every other public function defined in that module.
TARGETS: dict[str, dict[str, str]] = {
    "eulerlab.grid": {
        "lp_norm_values": "grid.reduce",
        "integral": "grid.reduce",
        "mollify_values": "grid.mollify",
        "build_mollifier": "grid.build_mollifier",
        "shift_values": "grid.shift",
        "grad_values": "grid.grad",
        "write_columns_csv": "grid.csv_write",
        "read_columns_csv": "grid.csv_read",
    },
    "eulerlab.besov": {"_diff_norm": "besov.diffnorm", "*": "besov"},
    "eulerlab.commutator": {
        "chain_commutator": "commutator.chain",
        "bilinear_commutator": "commutator.product",
        "triple_commutator": "commutator.product",
        "*": "commutator",
    },
    "eulerlab.solver": {
        "run": "solver.run",
        "_rhs": "solver.rhs",
        "project_trajectory": "solver.project",
        "project_snapshot": "solver.project",
        "snapshot_primitive": "solver.primitive",
        "make_initial_state": "solver.init",
    },
    "eulerlab.conditions": {
        "make_bump_basis": "conditions.make_bump_basis",
        "oslip_weak_min_c": "conditions.oslip_weak",
        "oslip_discrete": "conditions.oslip_discrete",
        "l1_report": "conditions.l1_report",
    },
    "eulerlab.relentropy": {"calibrate_coercivity": "relentropy.calibrate", "*": "relentropy"},
    "eulerlab.weakform": {"*": "weakform"},
    "eulerlab.riemann": {"*": "riemann"},
    "eulerlab.thermo": {"*": "thermo"},
}


class Tracer:
    """Spans and per-pass counters; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.counts: dict = defaultdict(float)   # (pass id, counter) -> total
        self.keys: dict = defaultdict(set)       # (pass id, counter) -> distinct keys
        self._digests: dict = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counts[(self.pass_id, counter)] += amount

    def distinct(self, counter: str, key) -> None:
        self.keys[(self.pass_id, counter)].add(key)

    def array_digest(self, arr: np.ndarray) -> bytes:
        """Content digest of an array, cached while the array is alive."""
        hit = self._digests.get(id(arr))
        if hit is not None and hit[0]() is arr:
            return hit[1]
        digest = hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()
        self._digests[id(arr)] = (weakref.ref(arr), digest)
        return digest

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.pass_id)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every eulerlab namespace that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "eulerlab" or n.startswith("eulerlab.")]
        wrappers: dict[int, tuple] = {}
        for modname, table in TARGETS.items():
            mod = sys.modules[modname]
            for attr, span in _expand(mod, table):
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, self.wrap(span, fn, HOOKS.get(span)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        traj = sys.modules["eulerlab.solver"].Trajectory
        save, load = traj.__dict__["save"], traj.__dict__["load"]
        self._restore += [(traj, "save", save), (traj, "load", load)]
        traj.save = self.wrap("solver.save", save)
        traj.load = classmethod(self.wrap("solver.load", load.__func__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def pass_stats(self) -> dict[int, "PassStats"]:
        """Calls and self seconds per span name, for each pass id."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[int, PassStats] = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            st = stats.setdefault(pid, PassStats(self, pid))
            st.calls[name] += 1
            st.self_s[name] += (end - start) - child[i]
            st.total_s[name] += end - start
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,pass\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{pid}\n")


class PassStats:
    def __init__(self, tracer: Tracer, pass_id: int) -> None:
        self.tracer, self.pass_id = tracer, pass_id
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)

    def prefix_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix + "."))

    def prefix_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))

    def count(self, counter: str) -> float:
        return self.tracer.counts.get((self.pass_id, counter), 0.0)

    def ratio_distinct(self, counter: str, base_span: str) -> float:
        """Distinct keys over calls of ``base_span``; 0 when it never ran."""
        calls = self.calls.get(base_span, 0)
        if not calls:
            return 0.0
        return len(self.tracer.keys.get((self.pass_id, counter), ())) / calls


def _expand(mod, table: dict[str, str]):
    named = {k: v for k, v in table.items() if k != "*"}
    yield from named.items()
    prefix = table.get("*")
    if prefix is None:
        return
    for attr, value in vars(mod).items():
        if (attr not in named and not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == mod.__name__):
            yield attr, f"{prefix}.{attr}"


# -- counter hooks: (tracer, args, kwargs, result) -> None -------------------


def _reduce_terms(tr, args, kwargs, result):
    first = args[0] if args else next(iter(kwargs.values()))
    tr.add("grid.reduce.terms", np.size(getattr(first, "values", first)))


def _mollify_taps(tr, args, kwargs, result):
    values, mol = args[0], args[1] if len(args) > 1 else kwargs["mol"]
    tr.add("grid.mollify.tap_cells", len(mol.offsets) * np.size(values))


def _mollifier_key(tr, args, kwargs, result):
    grid = args[0]
    tr.distinct("grid.build_mollifier", (grid.dims, grid.cells_per_dim, result.epsilon))


def _csv_bytes(counter):
    """Size of the file behind the stream: each CSV call writes or reads a whole file."""
    def hook(tr, args, kwargs, result):
        stream = args[0] if args else kwargs["stream"]
        stream.flush()
        tr.add(counter, os.fstat(stream.fileno()).st_size)
    return hook


def _diffnorm_key(tr, args, kwargs, result):
    field, offsets, p = args
    tr.distinct("besov.diffnorm", (tr.array_digest(field.values), tuple(offsets), float(p)))


def _basis_built(tr, args, kwargs, result):
    grid = args[0]
    tr.add("conditions.bumps_built", len(result.labels))
    tr.distinct("conditions.basis", (grid.dims, grid.cells_per_dim, repr(args[1:]),
                                     repr(sorted(kwargs.items()))))


def _rhs_cells(tr, args, kwargs, result):
    tr.add("solver.rhs.cells", np.size(args[0][0]))


HOOKS = {
    "grid.reduce": _reduce_terms,
    "grid.mollify": _mollify_taps,
    "grid.build_mollifier": _mollifier_key,
    "grid.csv_write": _csv_bytes("grid.csv_write.bytes"),
    "grid.csv_read": _csv_bytes("grid.csv_read.bytes"),
    "besov.diffnorm": _diffnorm_key,
    "conditions.make_bump_basis": _basis_built,
    "solver.rhs": _rhs_cells,
}
