"""First-order finite-volume solver on the periodic domain.

Local Lax-Friedrichs interface fluxes with two-stage strong-stability-
preserving time stepping, for the full energy-carrying system and for the
isentropic reduction with pressure rho**gamma.  The scheme is conservative
by telescoping, keeps density and temperature positive at moderate Courant
numbers, and is deterministic: a config reruns to a bit-identical
trajectory.  Accuracy is deliberately modest; the solver exists to feed the
estimate monitors, not to chase resolution.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import DomainError, StabilityError
from .grid import PeriodicGrid, read_columns_csv, write_columns_csv
from .riemann import Wave1D, rarefaction_connected_state
from .thermo import GasParams

COMPLETE = "complete"
ISENTROPIC = "isentropic"


#: Most snapshots a run may record; a finer stride is a config error.
MAX_SNAPSHOTS = 10_000


def config_hash(payload: dict) -> str:
    """First 12 hex digits of the SHA-256 of the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SolverConfig:
    grid: PeriodicGrid
    params: GasParams
    t_end: float
    system: str = COMPLETE
    cfl: float = 0.4
    init: dict = dc_field(default_factory=lambda: {"name": "constant"})
    snapshot_stride: float | None = None

    def __post_init__(self):
        if self.system not in (COMPLETE, ISENTROPIC):
            raise ValueError(f"unknown system {self.system!r}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"Courant number must lie in (0, 0.5], got {self.cfl}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        stride = self.snapshot_stride
        if stride is not None and not (0.0 < stride < math.inf
                                       and self.t_end / stride <= MAX_SNAPSHOTS):
            raise ValueError(f"snapshot_stride must be positive and give at most "
                             f"{MAX_SNAPSHOTS} snapshots up to t_end, got {stride}")

    def as_dict(self) -> dict:
        return {
            "grid": {"dims": self.grid.dims, "cells_per_dim": self.grid.cells_per_dim},
            "params": {"gamma": self.params.gamma},
            "t_end": self.t_end,
            "system": self.system,
            "cfl": self.cfl,
            "init": self.init,
            "snapshot_stride": self.snapshot_stride,
        }


@dataclass(frozen=True)
class Snapshot:
    t: float
    rho: np.ndarray
    mom: np.ndarray          # (dims, ...) component-first
    energy: np.ndarray | None  # None in isentropic mode


@dataclass
class Trajectory:
    grid: PeriodicGrid
    params: GasParams
    system: str
    snapshots: list[Snapshot]
    meta: dict = dc_field(default_factory=dict)

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]

    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        meta = dict(self.meta)
        meta.update(
            {
                "grid": {"dims": self.grid.dims, "cells_per_dim": self.grid.cells_per_dim},
                "gamma": self.params.gamma,
                "system": self.system,
                "times": self.times,
            }
        )
        (d / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        comments = [f"config_hash={meta.get('config_hash', 'none')}"]
        for i, snap in enumerate(self.snapshots):
            cols = {"rho": snap.rho}
            for ax in range(self.grid.dims):
                cols[f"m{ax + 1}"] = snap.mom[ax]
            if snap.energy is not None:
                cols["E"] = snap.energy
            with open(d / f"t_{i:04d}.csv", "w") as fh:
                write_columns_csv(fh, self.grid, cols, comments)

    @classmethod
    def load(cls, directory) -> "Trajectory":
        d = Path(directory)
        meta = json.loads((d / "meta.json").read_text())
        grid = PeriodicGrid(meta["grid"]["dims"], meta["grid"]["cells_per_dim"])
        params = GasParams(meta["gamma"])
        snaps = []
        for i, t in enumerate(meta["times"]):
            with open(d / f"t_{i:04d}.csv") as fh:
                file_grid, cols = read_columns_csv(fh)
            if file_grid != grid:
                raise ValueError(f"snapshot {i} grid does not match meta.json")
            mom = np.stack([cols[f"m{ax + 1}"] for ax in range(grid.dims)])
            snaps.append(Snapshot(float(t), cols["rho"], mom, cols.get("E")))
        return cls(grid, params, meta["system"], snaps, meta)


# ---------------------------------------------------------------------------
# initial data registry
# ---------------------------------------------------------------------------


def _broadcast_1d(grid: PeriodicGrid, rho, u1, theta):
    """Extend 1D profiles invariantly along the second dimension."""
    if grid.dims == 1:
        vel = u1[None]
        return rho, vel, theta
    shape = grid.shape
    rho2 = np.broadcast_to(rho[:, None], shape).copy()
    th2 = np.broadcast_to(theta[:, None], shape).copy()
    vel = np.zeros((2,) + shape)
    vel[0] = np.broadcast_to(u1[:, None], shape)
    return rho2, vel, th2


def _riemann_profile(grid, left: Wave1D, right: Wave1D):
    x = grid.axis_centers()
    rho = np.where(x < 0.0, left.rho, right.rho)
    u1 = np.where(x < 0.0, left.u, right.u)
    p = np.where(x < 0.0, left.p, right.p)
    return rho, u1, p / rho


def make_initial_state(grid: PeriodicGrid, params: GasParams, init: dict):
    """(rho, vel, theta) arrays for a named scenario.

    Riemann-type scenarios are one-dimensional profiles, extended invariantly
    in the transverse direction on 2D grids; `transverse` adds a smooth
    density perturbation for stability probing.
    """
    name = init.get("name", "constant")
    x = grid.axis_centers()
    if name == "constant":
        rho = np.full(len(x), init.get("rho", 1.0))
        u1 = np.full(len(x), init.get("u", 0.0))
        theta = np.full(len(x), init.get("theta", 1.0))
    elif name == "advection":
        # contact-only exact solution: density profile advects at constant u
        rho = init.get("rho0", 1.0) + init.get("amp", 0.2) * np.sin(np.pi * x)
        u1 = np.full(len(x), init.get("u", 0.5))
        theta = init.get("p", 1.0) / rho
    elif name == "smooth":
        rho = 1.0 + init.get("amp", 0.2) * np.sin(np.pi * x)
        u1 = init.get("u_amp", 0.1) * np.sin(np.pi * x)
        theta = np.full(len(x), init.get("theta", 1.0))
    elif name == "isentropic_smooth":
        # uniform-entropy data: theta = rho**(gamma-1), so p = rho**gamma
        rho = 1.0 + init.get("amp", 0.1) * np.sin(np.pi * x)
        u1 = init.get("u_amp", 0.0) * np.sin(np.pi * x)
        theta = rho ** (params.gamma - 1.0)
    else:
        rho, u1, theta = _riemann_profile(grid, *scenario_riemann_states(init, params))
    rho, vel, theta = _broadcast_1d(grid, rho, u1, theta)
    if grid.dims == 2 and init.get("transverse", 0.0):
        _, yy = grid.coordinates()
        rho = rho * (1.0 + init["transverse"] * np.sin(np.pi * yy))
    if np.min(rho) <= 0.0 or np.min(theta) <= 0.0:
        raise DomainError("initial data must have positive density and temperature")
    return rho, vel, theta


def scenario_riemann_states(init: dict, params: GasParams) -> tuple[Wave1D, Wave1D]:
    """Left/right states of a Riemann-type scenario, for exact references."""
    name = init.get("name")
    if name == "sod":
        return Wave1D(1.0, 0.0, 1.0), Wave1D(0.125, 0.0, 0.1)
    if name == "riemann":
        return Wave1D(*init["left"]), Wave1D(*init["right"])
    if name == "double_rarefaction":
        a = init.get("u_out", 0.1)
        p_bg = init.get("p", 0.04)
        return Wave1D(1.0, -a, p_bg), Wave1D(1.0, a, p_bg)
    if name == "single_rarefaction":
        left = Wave1D(init.get("rho_left", 1.0), init.get("u_left", 0.0),
                      init.get("p_left", 1.0))
        return left, rarefaction_connected_state(left, init.get("rho_right", 0.4), params)
    raise ValueError(f"unknown scenario {name!r}, or one without Riemann states")


# ---------------------------------------------------------------------------
# fluxes and time stepping
# ---------------------------------------------------------------------------


def _pressure_complete(U, gamma):
    rho = U[0]
    kin = np.zeros_like(rho)
    for ax in range(U.shape[0] - 2):
        kin += U[1 + ax] ** 2
    return (gamma - 1.0) * (U[-1] - 0.5 * kin / rho)


def _flux_axis(U, axis, gamma, system):
    rho = U[0]
    nd = U.shape[0] - (2 if system == COMPLETE else 1)
    un = U[1 + axis] / rho
    if system == COMPLETE:
        p = _pressure_complete(U, gamma)
        c = np.sqrt(gamma * p / rho)
    else:
        p = rho**gamma
        c = np.sqrt(gamma * rho ** (gamma - 1.0))
    F = np.empty_like(U)
    F[0] = U[1 + axis]
    for ax in range(nd):
        F[1 + ax] = U[1 + ax] * un
    F[1 + axis] += p
    if system == COMPLETE:
        F[-1] = (U[-1] + p) * un
    return F, np.abs(un) + c, p


def _rhs(U, dx, gamma, system):
    dudt = np.zeros_like(U)
    max_speed = 0.0
    dims = U[0].ndim
    for axis in range(dims):
        F, speed, p = _flux_axis(U, axis, gamma, system)
        sp_axis = float(speed.max())
        max_speed = max(max_speed, sp_axis)
        U_r = np.roll(U, -1, axis=1 + axis)
        F_r = np.roll(F, -1, axis=1 + axis)
        a = np.maximum(speed, np.roll(speed, -1, axis=axis))
        f_hat = 0.5 * (F + F_r) - 0.5 * a * (U_r - U)
        dudt -= (f_hat - np.roll(f_hat, 1, axis=1 + axis)) / dx
    return dudt, max_speed


def _check_physical(U, gamma, system, t):
    """Raise DomainError at the first cell whose state is not finite or has
    non-positive density or pressure, naming the time, cell and state."""
    rho = U[0]
    p = _pressure_complete(U, gamma) if system == COMPLETE else rho**gamma
    bad = (rho <= 0.0) | (p <= 0.0) | ~np.all(np.isfinite(U), axis=0)
    if np.any(bad):
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DomainError(f"vacuum, non-positive pressure or non-finite state at "
                          f"t = {t:.6g}, cell {cell}: rho = {rho[cell]:.6g}, p = {p[cell]:.6g}")


def run(config: SolverConfig) -> Trajectory:
    """Integrate the configured system and collect snapshots.

    Snapshots land exactly on multiples of ``snapshot_stride`` (time steps
    are clipped to them) plus the initial and final times.
    """
    grid, params = config.grid, config.params
    gamma, system = params.gamma, config.system
    rho, vel, theta = make_initial_state(grid, params, config.init)
    ncomp = grid.dims + (2 if system == COMPLETE else 1)
    U = np.empty((ncomp,) + grid.shape)
    U[0] = rho
    for ax in range(grid.dims):
        U[1 + ax] = rho * vel[ax]
    if system == COMPLETE:
        kin = 0.5 * rho * np.sum(vel * vel, axis=0)
        U[-1] = kin + rho * params.cv * theta

    stride = config.snapshot_stride
    snap_times: list[float] = []
    if stride is not None:
        k = 1
        while k * stride < config.t_end - 1e-12:
            snap_times.append(k * stride)
            k += 1
    snap_times.append(config.t_end)

    def record(t, U):
        mom = U[1 : 1 + grid.dims].copy()
        energy = U[-1].copy() if system == COMPLETE else None
        snaps.append(Snapshot(t, U[0].copy(), mom, energy))

    started = time.perf_counter()
    snaps: list[Snapshot] = []
    t = 0.0
    record(t, U)
    next_i = 0
    dx = grid.cell_width
    while t < config.t_end - 1e-14:
        k1, max_speed = _rhs(U, dx, gamma, system)
        if max_speed <= 0.0:
            dt = config.t_end - t
        else:
            dt = config.cfl * dx / (grid.dims * max_speed)
        dt = min(dt, snap_times[next_i] - t)
        U_stage = U + dt * k1
        _check_physical(U_stage, gamma, system, t + dt)
        k2, speed_stage = _rhs(U_stage, dx, gamma, system)
        U = 0.5 * U + 0.5 * (U_stage + dt * k2)
        _check_physical(U, gamma, system, t + dt)
        if speed_stage * dt * grid.dims / dx > 1.0:
            raise StabilityError(
                f"Courant violation mid-step at t = {t:.6g}: "
                f"speed {speed_stage:.4g} * dt {dt:.4g} exceeds dx {dx:.4g}"
            )
        t += dt
        if abs(t - snap_times[next_i]) < 1e-12:
            t = snap_times[next_i]
            record(t, U)
            next_i += 1
    meta = {
        "config_hash": config_hash(config.as_dict()),
        "config": config.as_dict(),
        "wall_time": time.perf_counter() - started,
    }
    return Trajectory(grid, params, system, snaps, meta)


# ---------------------------------------------------------------------------
# conserved-variable helpers shared by the diagnostics modules
# ---------------------------------------------------------------------------


def snapshot_primitive(snap: Snapshot, params: GasParams):
    """(rho, vel, theta) arrays of a complete-system snapshot."""
    if snap.energy is None:
        raise ValueError("snapshot carries no energy field (isentropic run)")
    vel = snap.mom / snap.rho
    kin = 0.5 * snap.rho * np.sum(vel * vel, axis=0)
    theta = (snap.energy - kin) / (snap.rho * params.cv)
    return snap.rho, vel, theta


def project_snapshot(snap: Snapshot, factor: int, grid: PeriodicGrid) -> Snapshot:
    """Conservative block average onto a grid coarsened by ``factor``."""

    def down(a):
        if a.ndim == 1:
            return a.reshape(-1, factor).mean(axis=1)
        if a.ndim == 2:
            return a.reshape(a.shape[0] // factor, factor,
                             a.shape[1] // factor, factor).mean(axis=(1, 3))
        raise ValueError("unsupported rank")

    mom = np.stack([down(m) for m in snap.mom])
    energy = down(snap.energy) if snap.energy is not None else None
    out = Snapshot(snap.t, down(snap.rho), mom, energy)
    if out.rho.shape != grid.shape:
        raise ValueError("projection does not land on the target grid")
    return out


def project_trajectory(traj: Trajectory, target_grid: PeriodicGrid) -> Trajectory:
    factor = traj.grid.cells_per_dim // target_grid.cells_per_dim
    if factor * target_grid.cells_per_dim != traj.grid.cells_per_dim:
        raise ValueError("target grid must divide the source grid")
    if factor == 1:
        return traj
    snaps = [project_snapshot(s, factor, target_grid) for s in traj.snapshots]
    meta = dict(traj.meta)
    meta["projected_from"] = traj.grid.cells_per_dim
    return Trajectory(target_grid, traj.params, traj.system, snaps, meta)
