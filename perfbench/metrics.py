"""Metric definitions: end-to-end (tracing off) and per-layer (traced run).

The names, units and directions here must match BENCHMARK.json; the
self-test checks that they do.  Per-layer values are computed per traced
pass and the run reports their median over the traced passes.  A layer a
workload never calls reports 0; each waste ratio is reported next to its
base (the call count it divides by).
"""

from __future__ import annotations

import statistics

END_TO_END = [
    # (name, unit, better)
    ("wall_s", "s", "lower"),        # median seconds per pass, tracing off
    ("setup_s", "s", "lower"),       # import + inputs (median of probes) + warm-up pass
    ("peak_rss_mb", "MB", "lower"),  # peak resident memory of the workload's process
]


def _calls(span):
    return lambda s: s.calls.get(span, 0)


def _self(span):
    return lambda s: s.self_s.get(span, 0.0)


def _count(counter):
    return lambda s: s.count(counter)


def _ns_per_cell(s):
    cells = s.count("solver.rhs.cells")
    return 1e9 * s.total_s.get("solver.rhs", 0.0) / cells if cells else 0.0


# (name, unit, better, value of one traced pass)
LAYER = [
    ("grid.reduce.calls", "count", "lower", _calls("grid.reduce")),
    ("grid.reduce.self_s", "s", "lower", _self("grid.reduce")),
    ("grid.reduce.terms", "count", "lower", _count("grid.reduce.terms")),
    ("grid.mollify.calls", "count", "lower", _calls("grid.mollify")),
    ("grid.mollify.self_s", "s", "lower", _self("grid.mollify")),
    ("grid.mollify.tap_cells", "count", "lower", _count("grid.mollify.tap_cells")),
    ("grid.build_mollifier.calls", "count", "lower", _calls("grid.build_mollifier")),
    ("grid.build_mollifier.self_s", "s", "lower", _self("grid.build_mollifier")),
    ("grid.build_mollifier.unique_ratio", "ratio", "higher",
     lambda s: s.ratio_distinct("grid.build_mollifier", "grid.build_mollifier")),
    ("grid.shift.calls", "count", "lower", _calls("grid.shift")),
    ("grid.shift.self_s", "s", "lower", _self("grid.shift")),
    ("grid.grad.self_s", "s", "lower", _self("grid.grad")),
    ("grid.csv_write.self_s", "s", "lower", _self("grid.csv_write")),
    ("grid.csv_write.bytes", "bytes", "lower", _count("grid.csv_write.bytes")),
    ("grid.csv_read.self_s", "s", "lower", _self("grid.csv_read")),
    ("grid.csv_read.bytes", "bytes", "lower", _count("grid.csv_read.bytes")),
    ("besov.self_s", "s", "lower", lambda s: s.prefix_self("besov")),
    ("besov.seminorm.calls", "count", "lower", _calls("besov.seminorm")),
    ("besov.diffnorm.calls", "count", "lower", _calls("besov.diffnorm")),
    ("besov.diffnorm.unique_ratio", "ratio", "higher",
     lambda s: s.ratio_distinct("besov.diffnorm", "besov.diffnorm")),
    ("commutator.chain.calls", "count", "lower", _calls("commutator.chain")),
    ("commutator.chain.self_s", "s", "lower", _self("commutator.chain")),
    ("commutator.product.calls", "count", "lower", _calls("commutator.product")),
    ("commutator.product.self_s", "s", "lower", _self("commutator.product")),
    ("solver.run.calls", "count", "lower", _calls("solver.run")),
    ("solver.run.self_s", "s", "lower", _self("solver.run")),
    ("solver.rhs.calls", "count", "lower", _calls("solver.rhs")),
    ("solver.rhs.self_s", "s", "lower", _self("solver.rhs")),
    ("solver.rhs.ns_per_cell", "ns", "lower", _ns_per_cell),
    ("solver.save.self_s", "s", "lower", _self("solver.save")),
    ("solver.load.self_s", "s", "lower", _self("solver.load")),
    ("solver.project.self_s", "s", "lower", _self("solver.project")),
    ("conditions.make_bump_basis.calls", "count", "lower", _calls("conditions.make_bump_basis")),
    ("conditions.make_bump_basis.self_s", "s", "lower", _self("conditions.make_bump_basis")),
    ("conditions.bumps_built", "count", "lower", _count("conditions.bumps_built")),
    ("conditions.basis_reuse", "ratio", "higher",
     lambda s: s.ratio_distinct("conditions.basis", "conditions.make_bump_basis")),
    ("conditions.oslip_weak.calls", "count", "lower", _calls("conditions.oslip_weak")),
    ("conditions.oslip_weak.self_s", "s", "lower", _self("conditions.oslip_weak")),
    ("conditions.oslip_discrete.self_s", "s", "lower", _self("conditions.oslip_discrete")),
    ("relentropy.self_s", "s", "lower", lambda s: s.prefix_self("relentropy")),
    ("relentropy.rel_entropy_total.calls", "count", "lower",
     _calls("relentropy.rel_entropy_total")),
    ("relentropy.calibrate.self_s", "s", "lower", _self("relentropy.calibrate")),
    ("weakform.entropy_production.calls", "count", "lower",
     _calls("weakform.entropy_production")),
    ("weakform.self_s", "s", "lower", lambda s: s.prefix_self("weakform")),
    ("riemann.calls", "count", "lower", lambda s: s.prefix_calls("riemann")),
    ("riemann.self_s", "s", "lower", lambda s: s.prefix_self("riemann")),
    ("thermo.calls", "count", "lower", lambda s: s.prefix_calls("thermo")),
    ("thermo.self_s", "s", "lower", lambda s: s.prefix_self("thermo")),
]

TRACE_OVERHEAD = ("trace.overhead", "ratio", "lower")


def per_layer_names(timers: list[str]) -> list[tuple[str, str, str]]:
    """Every per-layer metric: span metrics, per-operation timers, overhead."""
    return ([(n, u, b) for n, u, b, _ in LAYER] + [(t, "s", "lower") for t in timers]
            + [TRACE_OVERHEAD])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]
