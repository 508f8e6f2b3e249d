"""Experiment harness: deterministic batch runs with CSV reports.

Subcommands cover the whole laboratory: `simulate` integrates the complete
Euler system and persists the trajectory; `besov-fit`, `commutator-rate`,
`relentropy` and `oslip-check` run the estimate monitors on fields or
trajectory directories; `verify-thermo` checks the closure identities; and
`accept` executes the acceptance gates.  Configs are JSON, all numeric
output is CSV whose first line records the config hash and package version,
and re-running a subcommand with the same config reproduces byte-identical
data rows.  Exit codes: 0 pass, 1 fail, 2 a refused input, which is any
ValueError: `main` maps each to 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from collections.abc import Iterable, Sequence
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from . import besov as bz
from . import commutator as cm
from . import conditions as cd
from . import relentropy as re_
from .errors import DomainError, StabilityError
from .grid import PeriodicGrid, load_scalar_field, time_window, weierstrass_field
from .solver import COMPLETE, SolverConfig, Trajectory, config_hash, run
from .thermo import GasParams


class UsageError(ValueError):
    """An input the subcommand refuses; like every library refusal, a ValueError."""


def _load(what: str, loader, *args):
    """Call ``loader`` on input from outside the program; a missing or
    malformed file is a usage error."""
    try:
        return loader(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load {what}: {exc!r}")


#: The top-level keys each subcommand's config may hold, with their types.
_SIMULATE_KEYS = {"grid_n": int, "dims": int, "gamma": float, "t_end": float, "system": str,
                  "cfl": float, "init": dict, "snapshot_stride": float}
_PROBE_KEYS = {"fields": list, "G": str, "p": float, "eps": list, "gamma": float}
#: The keys of a probe field and of its ``weierstrass`` object, with their types.
_FIELD_KEYS = {"file": str, "weierstrass": dict, "alpha": float}
_WEIER_KEYS = {"alpha": float, "phase": float, "levels": int, "grid_n": int}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def _typed(value, kind: type, name: str):
    """``value`` if it is of JSON type ``kind``.  An integer passes for a
    number, which it becomes; a bool passes for nothing."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise UsageError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:   # an integer past the float range
        raise UsageError(f"{name} has invalid value {value!r}")


def _checked(obj, keys: dict, where: str) -> dict:
    """``obj``, a JSON object whose every key is one of ``keys`` and of that
    key's JSON type; ``where`` names it in messages."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must hold a JSON object, got {obj!r}")
    unread = sorted(set(obj) - set(keys))
    if unread:
        raise UsageError(f"{where} has keys this subcommand does not read: {unread}")
    return {name: _typed(value, keys[name], f"{where} field {name!r}")
            for name, value in obj.items()}


def _load_config(path: str | None, keys: dict) -> dict:
    """The JSON object at ``path`` (none: ``{}``), checked by ``_checked``."""
    if path is None:
        return {}
    return _checked(_load(f"config {path}", lambda: json.loads(Path(path).read_text())),
                    keys, "config")


def _required(cfg: dict, name: str, where: str = "config"):
    if name not in cfg:
        raise UsageError(f"{where} field {name!r} is required")
    return cfg[name]


def _write_report(path: Path, header: list[str], rows: Iterable[Sequence], config_hash: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash} eulerlab={__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _digest(*arrays) -> str:
    """SHA-256 of the shapes and values of ``arrays``: a report hashes what it
    read, not the path it read it from."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _trajectory_id(traj: Trajectory) -> dict:
    arrays = [a for s in traj.snapshots for a in (s.rho, s.mom, s.energy)]
    return {"config_hash": traj.meta.get("config_hash"),
            "data": _digest(np.array(traj.times), *arrays)}


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` that is a file or lies under one, without making
    anything: every subcommand checks it before it starts its work."""
    path = Path(out or ".")
    first = next((p for p in (path, *path.parents) if p.exists()), path)
    if not first.is_dir():
        raise UsageError(f"--out {path}: {first} is not a directory")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _SIMULATE_KEYS)
    grid_n = cfg.get("grid_n", 256) if args.grid_n is None else args.grid_n
    gamma = cfg.get("gamma", 1.4) if args.gamma is None else args.gamma
    init = cfg.get("init", {"name": "sod"})
    t_end = cfg.get("t_end", 0.2)
    if cfg.get("system", COMPLETE) != COMPLETE:
        raise UsageError(f"config field 'system' must be {COMPLETE!r}, got {cfg['system']!r}")
    config = SolverConfig(
        grid=PeriodicGrid(cfg.get("dims", 1), grid_n),
        params=GasParams(gamma),
        t_end=t_end,
        cfl=cfg.get("cfl", 0.4),
        init=init,
        snapshot_stride=cfg.get("snapshot_stride", t_end / 10.0),
    )
    try:
        traj = run(config)
    except (DomainError, StabilityError) as exc:   # the run itself failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(args)
    traj.save(out)
    print(f"wrote trajectory ({len(traj.snapshots)} snapshots) to {out}")
    return 0


def cmd_besov_fit(args: argparse.Namespace) -> int:
    if not args.field:
        raise UsageError("besov-fit requires --field <csv>")
    field = _load(args.field, load_scalar_field, args.field)
    p = args.p
    chash = config_hash({"field": _digest(field.values), "p": p})
    rep = bz.besov_report(field, p)
    rows: list[list] = [
        ["seminorm", float(b), float(s), float("nan"), float("nan")]
        for b, s in zip(rep.beta_grid, rep.seminorms)
    ]
    rows.append(["fitted_alpha", float("nan"), rep.fitted_alpha, rep.fitted_alpha,
                 rep.fit_residual])
    _write_report(_out_dir(args) / "besov_report.csv",
                  ["quantity", "beta_or_eps", "value", "slope", "residual"],
                  rows, chash)
    print(f"fitted regularity exponent: {rep.fitted_alpha:.4f}")
    return 0


def _resolve_probe_fields(cfg: dict):
    fields, alphas = [], []
    grid = None
    specs = _required(cfg, "fields")
    if not specs:
        raise UsageError("config field 'fields' must name at least one field")
    for spec in specs:
        spec = _checked(spec, _FIELD_KEYS, "probe")
        if ("file" in spec) == ("weierstrass" in spec):
            raise UsageError(f"each probe field needs one of 'file' and 'weierstrass', "
                             f"got keys {sorted(spec)}")
        alpha = 0.5
        if "file" in spec:
            f = _load(spec["file"], load_scalar_field, spec["file"])
        else:
            w = _checked(spec["weierstrass"], _WEIER_KEYS, "weierstrass")
            cells = w.get("grid_n", 8192)
            if not 4 <= cells <= 2**16:
                raise UsageError(f"weierstrass 'grid_n' must be an integer in "
                                 f"[4, {2**16}], got {cells!r}")
            levels = _required(w, "levels", "weierstrass")
            alpha = _required(w, "alpha", "weierstrass")
            f = weierstrass_field(alpha, levels, PeriodicGrid(1, cells), w.get("phase", 0.0))
        if grid is not None and f.grid != grid:
            raise UsageError("probe fields live on different grids")
        grid = f.grid
        fields.append(f)
        alphas.append(spec.get("alpha", alpha))
    return tuple(fields), tuple(alphas)


def cmd_commutator_rate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _PROBE_KEYS)
    gamma = cfg.get("gamma", 1.4) if args.gamma is None else args.gamma
    gname = _required(cfg, "G")
    p = cfg.get("p", 4.0)
    eps = cfg.get("eps", [2.0 ** (-k) for k in range(4, 11)])
    fields, alphas = _resolve_probe_fields(cfg)
    gmap = cm.get_gmap(gname, GasParams(gamma))
    if gname == "pressure_tilde" and not fields[0].values.min() > 0.0:
        raise UsageError(f"G 'pressure_tilde' reads probe field 1 as the density, which must "
                         f"be positive, got min {fields[0].values.min():.6g}: a weierstrass "
                         f"field has mean 0, so give the density as a 'file' field")
    eps_values = [_typed(e, float, "config field 'eps' entry") for e in eps]
    for e in eps_values:
        if not 0.0 < e < math.inf:
            raise UsageError(f"config field 'eps' entry must be finite and positive, got {e}")
    scan = bz.eps_scan(fields[0].grid, eps_values)
    fit = cm.chain_rate_fit(cm.CommutatorProbe(fields, alphas, gmap, p, scan))
    chash = config_hash({"G": gname, "p": p, "eps": eps, "alphas": alphas,
                         "fields": [_digest(f.values) for f in fields]})
    rows = [
        [float(e), float(n), float(b), bool(okay)]
        for e, n, b, okay in zip(scan.eps, fit.norms, fit.bounds, fit.bound_ok)
    ]
    rows.append(["slope", float("nan"), fit.slope, fit.passed])
    _write_report(_out_dir(args) / "commutator_rate.csv",
                  ["eps", "norm", "bound", "pass"], rows, chash)
    print(f"decay slope {fit.slope:.4f} vs predicted {fit.predicted:.4f}: "
          f"{'PASS' if fit.passed else 'FAIL'}")
    return 0 if fit.passed else 1


def cmd_relentropy(args: argparse.Namespace) -> int:
    if not args.traj_a or not args.traj_b:
        raise UsageError("relentropy requires --traj-a and --traj-b directories")
    traj_a, traj_b = (_load(d, Trajectory.load, d) for d in (args.traj_a, args.traj_b))
    chash = config_hash({"a": _trajectory_id(traj_a), "b": _trajectory_id(traj_b),
                         "sigma": args.sigma})
    trace = re_.gronwall_monitor(traj_a, traj_b, sigma=args.sigma)
    check = re_.gronwall_envelope_check(trace)
    columns = trace.columns
    _write_report(_out_dir(args) / "relentropy_trace.csv", list(columns),
                  zip(*(col.tolist() for col in columns.values())), chash)
    vacuous = ("" if check.vacuous_from is None else
               f", vacuous from t = {check.vacuous_from:.3g}, where the envelope is infinite")
    print(f"Gronwall envelope on [{trace.times[0]:.3g}, {trace.times[-1]:.3g}]: "
          f"{'PASS' if check.ok else 'FAIL'} (utilization {check.utilization:.3f}, "
          f"k_thermo heuristic){vacuous}{check.where_broken}")
    return 0 if check.ok else 1


def cmd_oslip_check(args: argparse.Namespace) -> int:
    delta = 0.0 if args.delta is None else args.delta
    rows = []
    flags = "masked" if args.mask_wrap else "unmasked"
    if args.traj:
        traj: Trajectory = _load(args.traj, Trajectory.load, args.traj)
        grid = traj.grid
        inside = time_window(traj.times, delta, "delta")
        cs, ds = [], []
        basis = cd.make_bump_basis(grid)
        for snap in compress(traj.snapshots, inside):
            vel = snap.mom / snap.rho   # finite: load checked every snapshot
            cs.append(cd.oslip_weak_min_c(grid, vel, basis=basis).min_c)
            ds.append(cd.oslip_discrete(grid, vel, mask_wrap=args.mask_wrap))
        chash = config_hash({"traj": _trajectory_id(traj), "delta": delta,
                             "mask": args.mask_wrap})
        times = np.asarray(traj.times)[inside]
        rep = cd.l1_report(times, np.array(cs), delta)
        rows = [[*row, flags] for row in zip(times, cs, ds, rep.l1_partial)]
        if rep.integrability_doubtful:
            print(f"integrability doubtful as delta->0 (power {rep.fit_power:.2f})")
    elif args.field:
        if args.delta is not None:
            raise UsageError("--delta cuts a trajectory's time window; --field has none")
        field = _load(args.field, load_scalar_field, args.field)
        vel = field.values[None] if field.grid.dims == 1 else None
        if vel is None:
            raise UsageError("2D velocity input needs a trajectory directory")
        weak = cd.oslip_weak_min_c(field.grid, vel)
        disc = cd.oslip_discrete(field.grid, vel, mask_wrap=args.mask_wrap)
        chash = config_hash({"field": _digest(field.values), "mask": args.mask_wrap})
        rows.append([0.0, weak.min_c, disc, 0.0, flags])
        print(f"min_C = {weak.min_c:.6g}, discrete_C = {disc:.6g}")
    else:
        raise UsageError("oslip-check requires --traj <dir> or --field <csv>")
    _write_report(_out_dir(args) / "oslip_report.csv",
                  ["tau", "min_C", "discrete_C", "l1_partial", "flags"], rows, chash)
    return 0


def cmd_verify_thermo(args: argparse.Namespace) -> int:
    gamma = 1.4 if args.gamma is None else args.gamma
    params = GasParams(gamma)
    if gamma - 1.0 < 1e-5:   # c_V = 1e10 rounds the identities to 7.6e-6
        raise UsageError(f"verify-thermo needs gamma - 1 >= 1e-5, got gamma = {gamma!r}: the "
                         "residuals are O(c_V * 2**-52), c_V = 1/(gamma - 1), against 1e-10")
    ident = acceptance.gate_thermo_identities(params)
    convex = acceptance.gate_tilde_pressure_convexity(params)
    rows = [[name, ident.metrics[name]] for name in acceptance.THERMO_IDENTITIES]
    rows.append(["tilde_pressure_min_eigenvalue", convex.metrics["min_eigenvalue"]])
    _write_report(_out_dir(args) / "thermo_report.csv",
                  ["quantity", "value"], rows, config_hash({"gamma": gamma}))
    print(ident.line())
    print(convex.line())
    return 0 if ident.passed and convex.passed else 1


def cmd_accept(args: argparse.Namespace) -> int:
    results = acceptance.run_all(echo=print)
    if args.out:
        out = _out_dir(args)
        rows = [[r.name, r.passed, r.details] for r in results]
        chash = config_hash({"gates": [r.name for r in results]})
        _write_report(out / "acceptance.csv", ["gate", "passed", "details"], rows, chash)
        # elapsed stays out of metrics: reruns reproduce the metrics bit for bit
        gates = {r.name: {"metrics": r.metrics, "elapsed": r.elapsed} for r in results}
        (out / "acceptance_metrics.json").write_text(
            json.dumps(gates, indent=1, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="compressible Euler estimate laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    shared = {
        "--config": {"help": "JSON config file"},
        "--grid-n": {"type": int, "help": "cells per dimension override"},
        "--gamma": {"type": float, "help": "adiabatic index override"},
    }

    def command(name, fn, text, *flags):
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output directory (default: cwd)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    command("simulate", cmd_simulate, "run the finite-volume solver",
            "--config", "--grid-n", "--gamma")

    p = command("besov-fit", cmd_besov_fit, "regularity report for a field CSV")
    p.add_argument("--field", help="field CSV (x[,y],value)")
    p.add_argument("--p", type=float, default=3.0, help="Lebesgue exponent")

    command("commutator-rate", cmd_commutator_rate, "chain-commutator decay scan",
            "--config", "--gamma")

    p = command("relentropy", cmd_relentropy, "relative-entropy trace of two runs")
    p.add_argument("--traj-a", help="candidate trajectory directory")
    p.add_argument("--traj-b", help="reference trajectory directory")
    p.add_argument("--sigma", type=float, default=None,
                   help="start of the reported window")

    p = command("oslip-check", cmd_oslip_check, "one-sided Lipschitz constants")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--field", help="1D velocity field CSV")
    source.add_argument("--traj", help="trajectory directory")
    p.add_argument("--delta", type=float, default=None,
                   help="lower end of the reported time window (--traj only; default 0)")
    p.add_argument("--mask-wrap", action="store_true",
                   help="exclude stencils crossing the periodic wrap")

    command("verify-thermo", cmd_verify_thermo, "closure identity residuals", "--gamma")
    command("accept", cmd_accept, "run all acceptance gates")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except ValueError as exc:   # a UsageError or a library refusal of the input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # inputs load through _load, so this is the output
        print(f"error: cannot write to --out {args.out or '.'}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
