#!/usr/bin/env python3
"""eulerlab benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload {accept,sim2d,cli2d} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  A run generates its inputs from the seed, sets up, runs one
warm-up pass and then measures back-to-back passes for about ``--seconds``
seconds.  With ``--trace 0`` it reports the end-to-end metrics of
``metrics.END_TO_END``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics (tracing overhead included).
Every pass checks the program's outputs; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  Details, the host
record and (traced) the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so that BLAS/OpenMP run single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402  (no numpy: the program's import is timed below)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve()

#: Fresh-interpreter set-up probes per run, besides the run's own set-up.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60


def import_program() -> float:
    """Import eulerlab from the checkout's src/; return the seconds taken."""
    if not (SRC / "eulerlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eulerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import eulerlab.cli  # noqa: F401  (imports every module of the package)
    elapsed = time.perf_counter() - start
    if Path(eulerlab.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: eulerlab imported from {eulerlab.cli.__file__}, "
                         f"not from {SRC}")
    return elapsed


def host_record(seed: int, seeded: bool) -> dict:
    import numpy
    import scipy

    def read(path: str, key: str | None = None) -> str:
        try:
            text = Path(path).read_text()
        except OSError:
            return "unknown"
        if key is None:
            return text.strip()
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return "unknown"

    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    source = hashlib.sha256()
    for path in sorted((SRC / "eulerlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l2_cache": read(cache.format(2)),
        "l3_cache": read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "seed_used": seeded,
    }


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def setup_probe(name: str, seed: int) -> dict:
    """Set-up in this (fresh) interpreter: import plus input generation."""
    import_s = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=OUT))
    try:
        start = time.perf_counter()
        workloads.WORKLOADS[name](seed).prepare(tmp / "inputs")
        return {"import_s": import_s, "inputs_s": time.perf_counter() - start}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_probe(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Pass:
    """Timing, per-operation outcome and output digests of one pass."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index, self.traced = index, traced
        self.wall_s = 0.0
        self.timers: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.digests: dict[str, str | None] = {}


def run_pass(wl, workdir: Path, index: int, tracer=None) -> Pass:
    rec = Pass(index, tracer is not None)
    outdir = workdir / f"pass-{index:03d}"
    outdir.mkdir()
    ops = wl.ops(outdir)
    outcomes = []
    if tracer is not None:
        tracer.pass_id = index
        tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                with tracer.span(f"op.{op.name}") if tracer else nullcontext():
                    outcome, error = op.call(), None
            except Exception as exc:  # an operation that raises counts as failed
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((op, time.perf_counter() - t0, outcome, error))
        rec.wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    # output checks run outside the timed region and outside the traced window
    for op, seconds, outcome, error in outcomes:
        rec.timers[op.timer] = rec.timers.get(op.timer, 0.0) + seconds
        rec.attempted += 1
        if error is not None:
            problems, digest = [error], None
        else:
            try:
                problems, digest = op.check(outcome)
            except Exception as exc:  # a check that cannot run is a failed check
                problems, digest = [f"check raised {type(exc).__name__}: {exc}"], None
        rec.digests[op.name] = digest
        rec.failed += bool(problems)
        rec.failures += [f"pass {index} {op.name}: {p}" for p in problems]
    shutil.rmtree(outdir, ignore_errors=True)
    return rec


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, warm up and measure one workload; return the full result."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = tracing.Tracer() if trace else None
    try:
        start = time.perf_counter()
        wl.prepare(workdir / "inputs")
        setup_samples = [import_s + time.perf_counter() - start]
        for _ in range(SETUP_PROBES):
            probe = _run_probe(name, seed)
            setup_samples.append(probe["import_s"] + probe["inputs_s"])
        passes = [run_pass(wl, workdir, 0)]     # warm-up: also the digest reference
        warmup_s = passes[0].wall_s
        began = time.perf_counter()
        while True:
            kinds = [False, True] if trace else [False]
            for traced in kinds:
                passes.append(run_pass(wl, workdir, len(passes), tracer if traced else None))
            elapsed = time.perf_counter() - began
            per_round = elapsed / ((len(passes) - 1) / len(kinds))
            if elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = passes[1:]
    plain = [p for p in measured if not p.traced]
    walls = [p.wall_s for p in plain]
    q1, q3 = metrics.quartiles(walls)
    reference = passes[0].digests
    compared = mismatched = 0
    for p in passes[1:]:
        for key, ref in reference.items():
            compared += 1
            mismatched += p.digests.get(key) != ref or ref is None
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": name,
        "trace": trace,
        "host": host_record(seed, wl.seeded),
        "inputs": wl.params,
        "seconds": seconds,
        "end_to_end": {
            "wall_s": metrics.median(walls),
            "setup_s": metrics.median(setup_samples) + warmup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_s_stats": {"median": metrics.median(walls), "p25": q1, "p75": q3,
                         "samples": len(walls)},
        "setup": {"import_and_inputs_s": setup_samples, "warmup_s": warmup_s},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p.failures],
        "ops_failed": failed / attempted,
        "outputs_compared": compared,
        "rerun_mismatch": mismatched / compared if compared else 0.0,
        "passes": [{"pass": p.index, "traced": p.traced, "wall_s": p.wall_s, "timers": p.timers, "digests": p.digests} for p in passes],
    }
    if trace:
        result["per_layer"] = per_layer(tracer, passes, workloads.TIMERS)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"{name}-seed{seed}-spans.csv")
    return result


def per_layer(tracer, passes: list[Pass], timers: list[str]) -> dict:
    stats = tracer.pass_stats()
    traced = [stats[p.index] for p in passes if p.traced and p.index in stats]
    out = {name: metrics.median([fn(s) for s in traced]) for name, _, _, fn in metrics.LAYER}
    plain = [p for p in passes[1:] if not p.traced]
    for timer in timers:
        out[timer] = metrics.median([p.timers.get(timer, 0.0) for p in plain])
    untraced_wall = metrics.median([p.wall_s for p in plain])
    traced_wall = metrics.median([p.wall_s for p in passes if p.traced])
    out[metrics.TRACE_OVERHEAD[0]] = traced_wall / untraced_wall - 1.0
    return out


def report(result: dict) -> dict:
    """Print the human-readable summary; return the final JSON line."""
    import workloads

    if result["trace"]:
        units = {n: u for n, u, _ in metrics.per_layer_names(workloads.TIMERS)}
        values = result["per_layer"]
    else:
        units = {n: u for n, u, _ in metrics.END_TO_END}
        values = result["end_to_end"]
    w = result["wall_s_stats"]
    print(f"# workload {result['workload']} seed {result['host']['seed']} "
          f"(seed used: {result['host']['seed_used']}), trace {int(result['trace'])}")
    print(f"# host {json.dumps(result['host'], sort_keys=True)}")
    print(f"# wall_s median {w['median']:.4f} s, quartiles {w['p25']:.4f}..{w['p75']:.4f} s, "
          f"{w['samples']} untraced passes")
    print(f"# ops_failed {result['failed']}/{result['attempted']} = {result['ops_failed']:.4g}; "
          f"rerun_mismatch {result['rerun_mismatch']:.4g} of {result['outputs_compared']} "
          f"outputs")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    return {
        "correct": result["failed"] == 0 and result["rerun_mismatch"] == 0.0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("accept", "sim2d", "cli2d"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    import_s = import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    line = report(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
