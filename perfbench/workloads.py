"""The benchmark's workloads and the output checks of each operation.

Every workload is a closed loop with one client: a pass runs its operations
one after another, and the next pass starts when the previous one ended.
An operation is a gate call, a solver run or a CLI call.  Its check returns
the problems found (empty when it passed) and a SHA-256 digest of its
output, which the runner compares against the first pass of the run.

The program is reached through its public API only, always through module
attributes (``solver.run``, ``cli.main``) so that a traced pass sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from eulerlab import acceptance, cli, grid, solver
from eulerlab.thermo import GasParams

GAMMA = 1.4
DRIFT_TOL = 1e-10


class Op(NamedTuple):
    name: str
    timer: str                      # per-layer timing metric the op feeds
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], str | None]]


def _riemann_band(rng: np.random.Generator) -> dict:
    """Sod-like states drawn from a narrow band, plus a transverse amplitude."""
    return {
        "left": [rng.uniform(0.975, 1.025), rng.uniform(-0.025, 0.025),
                 rng.uniform(0.975, 1.025)],
        "right": [rng.uniform(0.1225, 0.1275), rng.uniform(-0.025, 0.025),
                  rng.uniform(0.0975, 0.1025)],
        "transverse": rng.uniform(0.09, 0.11),
    }


def _speed_scale(init: dict) -> float:
    """Sod's fastest initial signal speed over that of the drawn states."""
    fastest = max(abs(u) + math.sqrt(GAMMA * p / rho) for rho, u, p in (init["left"], init["right"]))
    return math.sqrt(GAMMA) / fastest


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# accept: the nine acceptance gates, in order
# ---------------------------------------------------------------------------


def _gate_name(gate) -> str:
    return gate.__name__.removeprefix("gate_")


class Accept:
    """`eulerlab accept`: the gates' inputs are fixed by the program, so the
    seed is recorded and ignored."""

    name = "accept"
    seeded = False

    def __init__(self, seed: int) -> None:
        self.params = {"gates": [_gate_name(g) for g in acceptance.GATES]}

    def prepare(self, inputs: Path) -> None:
        pass

    def ops(self, out: Path) -> list[Op]:
        return [Op(_gate_name(g), f"acceptance.{_gate_name(g)}_s", g, self._check)
                for g in acceptance.GATES]

    @staticmethod
    def _check(result) -> tuple[list[str], str | None]:
        if not isinstance(result, acceptance.GateResult):
            return [f"gate returned {type(result).__name__}"], None
        digest = _sha(repr((result.name, result.passed, result.details,
                            sorted(result.metrics.items()))).encode())
        return ([] if result.passed else [f"FAIL: {result.line()}"]), digest


# ---------------------------------------------------------------------------
# sim2d: one 2D complete-system Riemann run at 256^2
# ---------------------------------------------------------------------------

SIM2D_CELLS = 256
# End time for Sod's fastest initial signal, scaled by the drawn states'
# fastest signal.  Seeds 0-29 then need 15.4-15.7 steps' worth of time, so
# each pass takes 16 steps (32 RHS evaluations) whatever the seed.
SIM2D_T_REF = 0.01478


class Sim2D:
    name = "sim2d"
    seeded = True

    def __init__(self, seed: int) -> None:
        init = {"name": "riemann", **_riemann_band(np.random.default_rng(seed))}
        t_end = SIM2D_T_REF * _speed_scale(init)
        self.params = {"cells": SIM2D_CELLS, "init": init, "t_end": t_end}
        self.config = solver.SolverConfig(
            grid=grid.PeriodicGrid(2, SIM2D_CELLS), params=GasParams(GAMMA),
            t_end=t_end, init=init)

    def prepare(self, inputs: Path) -> None:
        pass

    def ops(self, out: Path) -> list[Op]:
        return [Op("run", "solver.run_s", lambda: solver.run(self.config), self._check)]

    @staticmethod
    def _check(traj) -> tuple[list[str], str | None]:
        snaps = traj.snapshots
        if len(snaps) != 2:
            return [f"expected initial and final snapshots, got {len(snaps)}"], None
        first, last = snaps
        problems = []
        mass0 = math.fsum(first.rho.ravel())
        drifts = {
            "mass": abs(math.fsum(last.rho.ravel()) - mass0) / mass0,
            "energy": abs(math.fsum(last.energy.ravel()) - math.fsum(first.energy.ravel()))
            / math.fsum(first.energy.ravel()),
            # momentum may start near zero: measure its drift per unit mass
            "momentum": max(abs(math.fsum(b.ravel()) - math.fsum(a.ravel()))
                            for a, b in zip(first.mom, last.mom)) / mass0,
        }
        problems += [f"{k} drift {v:.3e} > {DRIFT_TOL:g}" for k, v in drifts.items()
                     if not v <= DRIFT_TOL]
        for snap in snaps:
            kin = 0.5 * np.sum(snap.mom * snap.mom, axis=0) / snap.rho
            pressure = (GAMMA - 1.0) * (snap.energy - kin)
            if not (np.min(snap.rho) > 0.0 and np.min(pressure) > 0.0):
                problems.append(f"non-positive density or pressure at t = {snap.t}")
        digest = _sha(*(np.asarray([s.t]).tobytes() + s.rho.tobytes() + s.mom.tobytes()
                        + s.energy.tobytes() for s in snaps))
        return problems, digest


# ---------------------------------------------------------------------------
# cli2d: the CLI round trip on 2D data
# ---------------------------------------------------------------------------

# The weak one-sided Lipschitz scan rebuilds a 5,376-bump basis for every
# snapshot, so it reads the coarse trajectory; the fine one carries the CSV
# volume.  Three snapshots is the fewest that oslip-check accepts past delta.
CLI2D_COARSE, CLI2D_FINE = 32, 128
CLI2D_T_REF = 0.1                              # end time for Sod, as in sim2d
CLI2D_FIELD_CELLS, CLI2D_FIELD_LEVELS = 128, 7
CLI2D_EPS = [0.25, 0.125, 0.0625, 0.03125]    # down to two cells of the field grid
# The commutator slope fit stops resolving the predicted 2*alpha - 1 rate on
# a 128^2 grid above alpha ~ 0.7, so the band stays below that.
CLI2D_ALPHA_BAND = (0.45, 0.60)


def _data_rows(path: Path) -> bytes:
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


class Cli2D:
    name = "cli2d"
    seeded = True

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        init = {"name": "riemann", **_riemann_band(rng)}
        t_end = CLI2D_T_REF * _speed_scale(init)
        self.params = {
            "init": init,
            "alpha": rng.uniform(*CLI2D_ALPHA_BAND),
            "phase": rng.uniform(0.0, 2.0 * math.pi),
            "pair": [CLI2D_COARSE, CLI2D_FINE],
            "t_end": t_end,
            "snapshot_stride": t_end / 2.0,
        }
        self.inputs: Path | None = None

    def prepare(self, inputs: Path) -> None:
        """Write the simulate config, a 2D Weierstrass field CSV and the
        commutator config."""
        inputs.mkdir(parents=True)
        p = self.params
        (inputs / "simulate.json").write_text(json.dumps({
            "dims": 2, "init": p["init"], "t_end": p["t_end"],
            "snapshot_stride": p["snapshot_stride"]}))
        g = grid.PeriodicGrid(2, CLI2D_FIELD_CELLS)
        x = g.axis_centers()
        wx = sum(2.0 ** (-p["alpha"] * k) * np.cos(2.0**k * np.pi * x + p["phase"])
                 for k in range(CLI2D_FIELD_LEVELS + 1))
        wy = grid.weierstrass_values(p["alpha"], CLI2D_FIELD_LEVELS, x)
        grid.save_scalar_field(inputs / "field.csv", grid.ScalarField(g, np.outer(wx, wy)))
        (inputs / "commutator.json").write_text(json.dumps({
            "fields": [{"file": str(inputs / "field.csv"), "alpha": p["alpha"]}],
            "G": "square", "p": 4.0, "eps": CLI2D_EPS}))
        self.inputs = inputs

    def ops(self, out: Path) -> list[Op]:
        inp = self.inputs
        coarse, fine = out / "coarse", out / "fine"
        stride = self.params["snapshot_stride"]
        snapshots = [f"t_{i:04d}.csv" for i in range(3)]
        steps = [
            ("simulate-coarse", "simulate", coarse, snapshots,
             ["--config", inp / "simulate.json", "--grid-n", CLI2D_COARSE]),
            ("simulate-fine", "simulate", fine, snapshots,
             ["--config", inp / "simulate.json", "--grid-n", CLI2D_FINE]),
            ("relentropy", "relentropy", out / "relentropy", ["relentropy_trace.csv"],
             ["--traj-a", coarse, "--traj-b", fine, "--sigma", stride]),
            ("oslip-check", "oslip-check", out / "oslip", ["oslip_report.csv"],
             ["--traj", coarse, "--delta", stride]),
            ("besov-fit", "besov-fit", out / "besov", ["besov_report.csv"],
             ["--field", inp / "field.csv"]),
            ("commutator-rate", "commutator-rate", out / "commutator", ["commutator_rate.csv"],
             ["--config", inp / "commutator.json"]),
        ]
        return [Op(name, f"cli.{cmd}_s",
                   self._caller([cmd, *map(str, args), "--out", str(dest)]),
                   self._checker(dest, files))
                for name, cmd, dest, files, args in steps]

    @staticmethod
    def _caller(argv: list[str]):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:   # argparse rejects a usage error this way
                    code = exc.code
            return code, buf.getvalue()
        return call

    @staticmethod
    def _checker(dest: Path, files: list[str]):
        def check(outcome) -> tuple[list[str], str | None]:
            code, text = outcome
            if code != 0:
                return [f"exit code {code} (expected 0): {text.strip()[-300:]}"], None
            missing = [f for f in files if not (dest / f).is_file()]
            if missing:
                return [f"missing outputs {missing}"], None
            rows = [_data_rows(dest / f) for f in files]
            if any(r.count(b"\n") < 2 for r in rows):
                return ["report without data rows"], None
            return [], _sha(*rows)
        return check


WORKLOADS = {w.name: w for w in (Accept, Sim2D, Cli2D)}

#: Per-operation timing metrics, in the order the workloads emit them.
TIMERS = ([f"acceptance.{_gate_name(g)}_s" for g in acceptance.GATES]
          + [f"cli.{c}_s" for c in ("simulate", "relentropy", "oslip-check", "besov-fit",
                                    "commutator-rate")])
