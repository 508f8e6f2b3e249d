"""First-order finite-volume solver on the periodic domain.

Local Lax-Friedrichs interface fluxes with two-stage strong-stability-
preserving time stepping, for the complete system in the conserved
variables (rho, m, E) with ideal-gas pressure.  The scheme is conservative
by telescoping, keeps density and temperature positive at moderate Courant
numbers, and is deterministic: a config reruns to a bit-identical
trajectory.  Accuracy is deliberately modest; the solver exists to feed the
estimate monitors, not to chase resolution.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import DomainError, RangeError, StabilityError
from .grid import PeriodicGrid, write_columns_csv
from .riemann import Wave1D, rarefaction_connected_state
from .thermo import GasParams

#: The one system the solver integrates, as configs and ``meta.json`` name it.
COMPLETE = "complete"


#: Most snapshots a run may record; a finer stride is a config error.
MAX_SNAPSHOTS = 10_000
#: Most time steps a run may take; a run that the Courant step cannot finish
#: within the steps left is refused as soon as that shows.
MAX_STEPS = 10**6


def config_hash(payload: dict) -> str:
    """First 12 hex digits of the SHA-256 of the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SolverConfig:
    grid: PeriodicGrid
    params: GasParams
    t_end: float
    cfl: float = 0.4
    init: dict = dc_field(default_factory=lambda: {"name": "constant"})
    snapshot_stride: float | None = None

    def __post_init__(self):
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
            "system": COMPLETE,
            "cfl": self.cfl,
            "init": self.init,
            "snapshot_stride": self.snapshot_stride,
        }


@dataclass(frozen=True)
class Snapshot:
    t: float
    rho: np.ndarray
    mom: np.ndarray          # (dims, ...) component-first
    energy: np.ndarray


@dataclass
class Trajectory:
    grid: PeriodicGrid
    params: GasParams
    snapshots: list[Snapshot]
    meta: dict = dc_field(default_factory=dict)

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]

    def save(self, directory) -> None:
        """Write one ``t_NNNN.npy`` per snapshot, the float64 stack rho, m1[, m2],
        E that ``load`` reads, with its text export ``t_NNNN.csv``, and then
        ``meta.json``: a complete ``meta.json`` marks a finished save.  Snapshot
        files of an earlier save into ``directory`` that this one does not
        overwrite are removed.  A ``snapshot_sha256`` key that an older version
        wrote into ``meta`` is dropped: it does not describe these files."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / "meta.json").unlink(missing_ok=True)
        keep = {f"t_{i:04d}{ext}" for i in range(len(self.snapshots)) for ext in (".csv", ".npy")}
        for f in d.glob("t_*"):
            if _SNAPSHOT_FILE.fullmatch(f.name) and f.name not in keep:
                f.unlink()
        meta = {k: v for k, v in self.meta.items() if k != "snapshot_sha256"}
        meta.update(
            {
                "grid": {"dims": self.grid.dims, "cells_per_dim": self.grid.cells_per_dim},
                "gamma": self.params.gamma,
                "system": COMPLETE,
                "times": self.times,
            }
        )
        names = _columns(self.grid.dims)
        for i, snap in enumerate(self.snapshots):
            stack = np.array([np.reshape(c, self.grid.shape)
                              for c in (snap.rho, *snap.mom, snap.energy)], dtype=float)
            with open(d / f"t_{i:04d}.csv", "w") as fh:
                write_columns_csv(fh, self.grid, dict(zip(names, stack)), [
                    f"config_hash={meta.get('config_hash', 'none')}",
                    f"an export: eulerlab reads t_{i:04d}.npy, not this file"])
            np.save(d / f"t_{i:04d}.npy", stack)
        (d / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """Read a ``save`` directory.  ``meta.json`` must name the complete
        system, a gamma above 1 and finite, strictly increasing times, one per
        snapshot file ``t_NNNN.npy``, with no other ``t_*.npy``, and each
        snapshot must be the float64 stack rho, m1[, m2], E on the grid; any
        miss is a ValueError.  A cell the solver would refuse, or whose
        m / rho overflows, is a DomainError.  The CSV exports are not read."""
        d = Path(directory)
        meta = json.loads((d / "meta.json").read_text())
        grid = PeriodicGrid(meta["grid"]["dims"], meta["grid"]["cells_per_dim"])
        gamma, times, system = meta["gamma"], meta["times"], meta["system"]
        if system != COMPLETE:
            raise ValueError(f"meta.json system must be {COMPLETE!r}, got {system!r}")
        if not (_is_finite_number(gamma) and gamma > 1.0):
            raise ValueError(f"meta.json gamma must be a finite number > 1, got {gamma!r}")
        if not (isinstance(times, list) and times and all(map(_is_finite_number, times))
                and all(a < b for a, b in zip(times, times[1:]))):
            raise ValueError(f"meta.json times must be a non-empty list of finite, strictly "
                             f"increasing numbers, got {times!r:.80}")
        expected = {f"t_{i:04d}.npy" for i in range(len(times))}
        found = {f.name for f in d.glob("t_*.npy")}
        if found != expected:
            raise ValueError(f"need one snapshot file t_NNNN.npy (numpy's .npy format) per "
                             f"time in meta.json ({len(times)}), found {sorted(found)!r:.80}")
        params = GasParams(gamma)
        shape = (grid.dims + 2,) + grid.shape
        snaps = []
        for i, t in enumerate(times):
            name = f"t_{i:04d}.npy"
            # read_array, not np.load: np.load raises EOFError on an empty file
            # and returns a zip archive unread; read_array refuses both with a
            # ValueError, as it does every other file that is not a .npy array
            try:
                with open(d / name, "rb") as fh:
                    stack = np.lib.format.read_array(fh, allow_pickle=False)
            except ValueError as exc:
                raise ValueError(f"cannot read {name}: {exc}") from None
            if stack.dtype != np.float64 or stack.shape != shape:
                raise ValueError(f"{name} holds {stack.dtype} {stack.shape}, "
                                 f"not float64 {shape}")
            _check_physical(stack, gamma, t)
            with np.errstate(over="ignore"):   # _check_physical passes rho = 5e-324, m = 1e-10
                bad = np.argwhere(~np.all(np.isfinite(stack[1:-1] / stack[0]), axis=0)).tolist()
            if bad:
                raise DomainError(f"velocity m / rho overflows at t = {t:.6g}, cell {(*bad[0],)}")
            snaps.append(Snapshot(float(t), stack[0], stack[1:-1], stack[-1]))
        return cls(grid, params, snaps, meta)


#: What ``save`` names a snapshot file, and so removes when it is not its own.
_SNAPSHOT_FILE = re.compile(r"t_[0-9]+\.(csv|npy)")


def _columns(dims: int) -> list[str]:
    """The conserved components of a snapshot, as its files name them."""
    return ["rho"] + [f"m{ax + 1}" for ax in range(dims)] + ["E"]


def _is_number(value) -> bool:
    """An int or float, not a bool, within the float range; NaN and inf pass."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _is_finite_number(value) -> bool:
    return _is_number(value) and math.isfinite(value)


# ---------------------------------------------------------------------------
# initial data registry
# ---------------------------------------------------------------------------


#: The ``init`` keys each scenario reads, besides ``name`` and ``transverse``.
_SCENARIO_KEYS = {
    "constant": ("rho", "u", "theta"), "advection": ("rho0", "amp", "u", "p"),
    "smooth": ("amp", "u_amp", "theta"), "isentropic_smooth": ("amp", "u_amp"),
    "sod": (), "riemann": ("left", "right"), "double_rarefaction": ("u_out", "p"),
    "single_rarefaction": ("rho_left", "u_left", "p_left", "rho_right"),
}


def make_initial_state(grid: PeriodicGrid, params: GasParams, init: dict):
    """(rho, vel, theta) arrays for a named scenario.

    Riemann-type scenarios are one-dimensional profiles, extended invariantly
    in the transverse direction on 2D grids; `transverse` adds a smooth
    density perturbation for stability probing.  An unknown scenario, a key
    outside its ``_SCENARIO_KEYS``, a value other than a number (``left`` and
    ``right``: a list of three), or a ``riemann`` init without both states,
    is a ValueError that names the key.
    """
    name = init.get("name", "constant")
    if type(name) is not str or name not in _SCENARIO_KEYS:
        raise ValueError(f"unknown scenario {name!r}; the scenarios are {list(_SCENARIO_KEYS)}")
    keys = _SCENARIO_KEYS[name]
    stray = [key for key in init if key not in ("name", "transverse", *keys)]
    if stray:
        raise ValueError(f"scenario {name!r} reads no init key {stray[0]!r}; its keys are "
                         f"{list(keys)}, besides 'name' and 'transverse'")
    missing = [key for key in ("left", "right") if name == "riemann" and key not in init]
    if missing:
        raise ValueError(f"scenario 'riemann' needs init key {missing[0]!r}, a list [rho, u, p]")
    for key, value in init.items():
        if key in ("left", "right"):
            if not (type(value) is list and len(value) == 3 and all(map(_is_number, value))):
                raise ValueError(f"init key {key!r} must be a list of three numbers "
                                 f"[rho, u, p], got {value!r:.60}")
        elif key != "name" and not _is_number(value):
            raise ValueError(f"init key {key!r} must be a number, got {value!r:.60}")
    x = grid.axis_centers()
    # a profile past the float range shows as inf or nan, which the check below names
    with np.errstate(all="ignore"):
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
            left, right = scenario_riemann_states(init, params)
            rho = np.where(x < 0.0, left.rho, right.rho)
            u1 = np.where(x < 0.0, left.u, right.u)
            theta = np.where(x < 0.0, left.p, right.p) / rho
        if grid.dims == 1:
            vel = u1[None]
        else:   # the 1D profiles, extended invariantly along the second axis
            rho, theta = (np.broadcast_to(a[:, None], grid.shape).copy() for a in (rho, theta))
            vel = np.zeros((2,) + grid.shape)
            vel[0] = u1[:, None]
        if grid.dims == 2 and init.get("transverse", 0.0):
            _, yy = grid.coordinates()
            rho = rho * (1.0 + init["transverse"] * np.sin(np.pi * yy))
    for name, values in (("rho", rho), ("velocity", vel), ("theta", theta)):
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            index = tuple(int(i) for i in bad[0])
            raise DomainError(f"initial {name} is not finite at t = 0, index {index}: "
                              f"{values[index]}")
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


def _pressure(U, gamma, out, kin):
    """Pressure (gamma - 1) (E - 0.5 |m|^2 / rho) into ``out``; ``kin`` is
    scratch of the same shape."""
    rho = U[0]
    np.multiply(U[1], U[1], out=kin)
    for m in U[2:-1]:
        np.multiply(m, m, out=out)
        kin += out
    kin *= 0.5
    kin /= rho
    np.subtract(U[-1], kin, out=out)
    out *= gamma - 1.0
    return out


def _check_physical(U, gamma, t):
    """Raise DomainError at the first cell whose state is not finite or has
    non-positive density or pressure, naming the time, the cell, its density
    and pressure and every other conserved component there.  Otherwise
    return the smallest density and pressure."""
    rho = U[0]
    with np.errstate(all="ignore"):
        p = _pressure(U, gamma, np.empty_like(rho), np.empty_like(rho))
    bad = (rho <= 0.0) | (p <= 0.0) | ~np.all(np.isfinite(U), axis=0)
    if np.any(bad):
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        rest = "".join(f", {n} = {v:.6g}"
                       for n, v in zip(_columns(U.ndim - 1)[1:], U[(slice(1, None),) + cell]))
        raise DomainError(f"vacuum, non-positive pressure or non-finite state at "
                          f"t = {t:.6g}, cell {cell}: rho = {rho[cell]:.6g}, p = {p[cell]:.6g}"
                          + rest)
    return float(rho.min()), float(p.min())


def _roll_into(out, x, shift, axis):
    """``out[...] = np.roll(x, shift, axis)`` as two slice copies.  ``axis``
    counts from the end, so a component stack and a single row share it."""
    n = x.shape[axis]
    k = shift % n
    tail = (slice(None),) * (-1 - axis)
    out[(..., slice(k, None)) + tail] = x[(..., slice(None, n - k)) + tail]
    out[(..., slice(None, k)) + tail] = x[(..., slice(n - k, None)) + tail]


#: Bytes of L2 cache per core on the 2-core Xeon hosts the benchmarks record.
_L2_BYTES = 2 << 20
#: The largest conserved stack one RHS block holds.  A grid whose stack fits
#: is swept whole; a larger one in blocks of first-axis rows, so that each
#: block's state, fluxes and cell values stay in cache while it is swept.
RHS_BLOCK_BYTES = _L2_BYTES // 4


def _block_rows(grid: PeriodicGrid) -> int:
    """First-axis rows per RHS block: ``cells_per_dim`` when the grid is one."""
    n = grid.cells_per_dim
    row_bytes = (grid.dims + 2) * n ** (grid.dims - 1) * 8
    return min(n, max(1, RHS_BLOCK_BYTES // row_bytes))


class _Workspace:
    """The arrays every RHS evaluation of one run overwrites, allocated once,
    and the smallest density and pressure those evaluations saw.  ``stage``
    spans the grid and receives the first stage's derivative k1, which the
    second stage turns into the stage state U + dt k1 in place.  The rest
    span one block, with a halo row on each side when the grid takes several
    (the first-axis sweep runs over them; ``wrap`` then gathers the two
    blocks that wrap around the periodic edge); ``dudt`` holds the second
    stage's derivative of one block until it folds into the state."""

    def __init__(self, grid: PeriodicGrid, gamma: float):
        self.dx, self.dims, self.gamma = grid.cell_width, grid.dims, gamma
        self.rows = _block_rows(grid)
        whole = self.rows == grid.cells_per_dim
        block = (self.rows if whole else self.rows + 2,) + grid.shape[1:]
        stack, axes = (grid.dims + 2,) + block, (grid.dims,) + block
        self.stage = np.empty((grid.dims + 2,) + grid.shape)
        self.dudt = np.empty((grid.dims + 2, self.rows) + grid.shape[1:])
        self.F, self.A = np.empty(stack), np.empty(stack)
        self.wrap = None if whole else np.empty(stack)
        self.p, self.scratch = np.empty(block), np.empty(block)
        self.un, self.speed = np.empty(axes), np.empty(axes)
        self.rho_min = self.p_min = math.inf
        self.rho_min_t = self.p_min_t = None

    def note(self, rho_min: float, p_min: float, t: float) -> None:
        if rho_min < self.rho_min:
            self.rho_min, self.rho_min_t = rho_min, t
        if p_min < self.p_min:
            self.p_min, self.p_min_t = p_min, t


def _cell_values(B, S, ws: _Workspace, t, p, c, un, speed):
    """Pressure ``p``, normal velocities ``un`` and signal speeds
    ``speed = |u_n| + c`` of the cells of ``B``, the state ``S`` or a block
    of its rows; ``c`` is scratch.  Return the smallest density and pressure
    and each axis's largest signal speed.

    Reductions stand in for the cell-wise check, and run before any square
    root.  A block passes them only if rho is positive and finite, p is
    positive (a non-finite momentum makes the pressure -inf or NaN), and
    every axis's largest |u_n| + c is finite (so is the momentum, and the
    energy, since E = inf gives c = inf).  Any miss runs the exact check on
    all of ``S``, which names the first bad cell of the grid.
    """
    gamma, rho = ws.gamma, B[0]
    rho_min = float(rho.min())
    if not (rho_min > 0.0 and rho.max() < math.inf):
        _check_physical(S, gamma, t)
    _pressure(B, gamma, p, c)
    p_min = float(p.min())
    if not p_min > 0.0:
        _check_physical(S, gamma, t)
    np.multiply(p, gamma, out=c)
    c /= rho
    np.sqrt(c, out=c)
    np.divide(B[1 : 1 + ws.dims], rho, out=un)
    np.absolute(un, out=speed)
    speed += c
    axis_max = [float(s.max()) for s in speed]
    if not all(s < math.inf for s in axis_max):
        _check_physical(S, gamma, t)
    return rho_min, p_min, axis_max


def _flux(B, axis, un, p, F):
    """The physical flux of ``B`` along ``axis`` into ``F``."""
    dims = B.shape[0] - 2
    F[0] = B[1 + axis]
    np.multiply(B[1 : 1 + dims], un, out=F[1 : 1 + dims])
    F[1 + axis] += p
    np.add(B[-1], p, out=F[-1])
    F[-1] *= un


def _sweep(B, axis, un, p, speed, F, A, a, dx):
    """(f_hat_i - f_hat_{i-1}) / dx along ``axis`` into ``A``, by periodic
    shifts within ``B``, for f_hat = 0.5 (F + F_r) - 0.5 max(speed,
    speed_r) (U_r - U).  ``F`` is free once it is in ``A``, and holds the
    upwind terms from then on; ``a`` is scratch.  On a block with one halo
    row on each side, only the inner rows are the grid's: the shifts wrap
    the halo rows onto each other."""
    ax = axis - (B.shape[0] - 2)
    _flux(B, axis, un, p, F)
    _roll_into(A, F, -1, ax)
    A += F
    A *= 0.5
    _roll_into(F, B, -1, ax)
    F -= B
    _roll_into(a, speed, -1, ax)
    np.maximum(speed, a, out=a)
    a *= 0.5
    F *= a
    A -= F
    _roll_into(F, A, 1, ax)
    A -= F
    A /= dx
    return A


def _fold(k, U, stage, rows, dt):
    """Rows ``rows`` of the step's end, U <- 0.5 U + 0.5 (U_stage + dt k),
    from the stage's derivative ``k`` of those rows, in place and in that
    order; ``k`` is free afterwards."""
    k *= dt
    k += stage[:, rows]
    k *= 0.5
    u = U[:, rows]
    u *= 0.5
    u += k


def _rhs(U, ws: _Workspace, t, k1=None, dt=None):
    """One stage of the step from ``U``, and the largest signal speed of
    the state it sweeps.

    Without ``k1``: dU/dt of ``U`` into ``ws.stage``, which is returned and
    which the next call overwrites.  With ``k1``, the derivative of ``U``
    that the first call returned, and the step ``dt``: the second stage.
    It first turns ``k1`` into the stage state U + dt k1, in place and
    whole; each block of the sweep then takes the derivative of its rows
    and folds it into the same rows of ``U``; ``U`` is returned.

    The state is checked before any square root is taken: a cell that is
    not finite or has non-positive density or pressure raises DomainError
    at time ``t``.  A grid of several blocks is swept block by block with
    the same shift kernel, `_sweep`: the first axis over the block's rows
    and its halo rows, the last axis over its own rows.  Each cell sees the
    same operations on the same operands as in the whole-grid sweep.
    """
    dims, dx, rows = ws.dims, ws.dx, ws.rows
    F, A, a, p, un, speed = ws.F, ws.A, ws.scratch, ws.p, ws.un, ws.speed
    n = U.shape[1]
    if k1 is None:
        S, out, result = U, ws.stage, ws.stage
    else:
        k1 *= dt
        k1 += U
        S, out, result = k1, ws.dudt, U
    if rows == n:
        rho_min, p_min, axis_max = _cell_values(S, S, ws, t, p, a, un, speed)
        for axis in range(dims):
            _sweep(S, axis, un[axis], p, speed[axis], F, A, a, dx)
            if axis == 0:
                np.subtract(0.0, A, out=out)
            else:
                out -= A
        if k1 is not None:
            _fold(out, U, S, slice(None), dt)
        ws.note(rho_min, p_min, t)
        return result, max(0.0, *axis_max)
    lows, tops = [], []
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        h = r1 - r0
        if 0 < r0 and r1 < n:
            B = S[:, r0 - 1 : r1 + 1]
        else:
            B = ws.wrap[:, : h + 2]
            np.take(S, np.arange(r0 - 1, r1 + 1), axis=1, out=B, mode="wrap")
        bp, ba, bun, bspeed = p[: h + 2], a[: h + 2], un[:, : h + 2], speed[:, : h + 2]
        rho_min, p_min, axis_max = _cell_values(B, S, ws, t, bp, ba, bun, bspeed)
        lows.append((rho_min, p_min))
        tops.append(axis_max)
        k = out[:, r0:r1] if k1 is None else out[:, :h]
        inner = slice(1, h + 1)
        np.subtract(0.0, _sweep(B, 0, bun[0], bp, bspeed[0], F[:, : h + 2], A[:, : h + 2], ba,
                                dx)[:, inner], out=k)
        for axis in range(1, dims):
            k -= _sweep(B[:, inner], axis, bun[axis, inner], bp[inner], bspeed[axis, inner],
                        F[:, :h], A[:, :h], ba[:h], dx)
        if k1 is not None:
            _fold(k, U, S, slice(r0, r1), dt)
    # numpy's reductions, as on the whole grid: a NaN in any block propagates
    rho_min, p_min = np.min(lows, axis=0).tolist()
    ws.note(rho_min, p_min, t)
    return result, max(0.0, *np.max(tops, axis=0).tolist())


def run(config: SolverConfig) -> Trajectory:
    """Integrate the complete system and collect snapshots.

    Each step takes two stages, and each stage is one sweep of the RHS row
    blocks: the second forms the stage state U + dt k1 in two whole-grid
    operations, then its derivative and the step's end block by block.
    Snapshots land exactly on multiples of ``snapshot_stride`` (time steps
    are clipped to them) plus the initial and final times.  ``meta["stats"]``
    records the step count, the smallest and largest step, the largest
    realized Courant number, the smallest density and pressure with their
    times, the seconds spent in the RHS (the stage arithmetic included) and
    in recording snapshots, and the first-axis rows of one RHS block
    (``cells_per_dim`` for a single block).
    """
    grid, params = config.grid, config.params
    gamma = params.gamma
    rho, vel, theta = make_initial_state(grid, params, config.init)
    stride = config.snapshot_stride
    snap_times: list[float] = []
    if stride is not None:
        k = 1
        while k * stride < config.t_end - 1e-12:
            snap_times.append(k * stride)
            k += 1
    snap_times.append(config.t_end)

    def record(t, U):
        snaps.append(Snapshot(t, U[0].copy(), U[1 : 1 + grid.dims].copy(), U[-1].copy()))

    # Finite data can overflow (u = 1e200 gives E = inf, or an infinite flux
    # and then NaN): the checks name the bad state, so numpy stays quiet.
    # One context per run, as one per RHS call would cost more than the call.
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.empty((grid.dims + 2,) + grid.shape)
        U[0] = rho
        for ax in range(grid.dims):
            U[1 + ax] = rho * vel[ax]
        kin = 0.5 * rho * np.sum(vel * vel, axis=0)
        U[-1] = kin + rho * params.cv * theta
        del rho, vel, theta, kin  # U holds the state from here on
        _check_physical(U, gamma, 0.0)

        started = time.perf_counter()
        ws = _Workspace(grid, gamma)
        dts: list[float] = []
        courants: list[float] = []
        rhs_s = 0.0
        snaps: list[Snapshot] = []
        t = 0.0
        tick = time.perf_counter()
        record(t, U)
        record_s = time.perf_counter() - tick
        next_i = 0
        dx = grid.cell_width
        t_state = t  # the time of U, which the next RHS checks
        while t < config.t_end - 1e-14:
            tick = time.perf_counter()
            k1, max_speed = _rhs(U, ws, t_state)
            rhs_s += time.perf_counter() - tick
            if max_speed <= 0.0:
                dt = config.t_end - t
            else:
                dt = config.cfl * dx / (grid.dims * max_speed)
            if config.t_end - t > (MAX_STEPS - len(dts)) * dt:
                raise RangeError(
                    f"t_end = {config.t_end:.6g} lies past the {MAX_STEPS} steps a run may "
                    f"take: at t = {t:.6g} the Courant step is dt = {dt:.4g} with "
                    f"{MAX_STEPS - len(dts)} steps left")
            dt = min(dt, snap_times[next_i] - t)
            t_state = t + dt
            tick = time.perf_counter()
            # U <- 0.5 U + 0.5 (U_stage + dt k2), block by block, in place
            _, speed_stage = _rhs(U, ws, t_state, k1, dt)
            rhs_s += time.perf_counter() - tick
            courant = speed_stage * dt * grid.dims / dx
            if courant > 1.0:
                _check_physical(U, gamma, t_state)
                raise StabilityError(
                    f"Courant violation mid-step at t = {t:.6g}: "
                    f"speed {speed_stage:.4g} * dt {dt:.4g} exceeds dx {dx:.4g}"
                )
            dts.append(dt)
            courants.append(courant)
            t = t_state
            if abs(t - snap_times[next_i]) < 1e-12:
                t = snap_times[next_i]
                tick = time.perf_counter()
                record(t, U)
                record_s += time.perf_counter() - tick
                next_i += 1
        ws.note(*_check_physical(U, gamma, t_state), t_state)
    meta = {
        "config_hash": config_hash(config.as_dict()),
        "config": config.as_dict(),
        "wall_time": time.perf_counter() - started,
        "stats": {
            "steps": len(dts),
            "dt_min": min(dts, default=None),
            "dt_max": max(dts, default=None),
            "courant_max": max(courants, default=None),
            "rho_min": ws.rho_min,
            "rho_min_t": ws.rho_min_t,
            "p_min": ws.p_min,
            "p_min_t": ws.p_min_t,
            "rhs_s": rhs_s,
            "rhs_block_rows": ws.rows,
            "record_s": record_s,
        },
    }
    return Trajectory(grid, params, snaps, meta)


# ---------------------------------------------------------------------------
# conserved-variable helpers shared by the diagnostics modules
# ---------------------------------------------------------------------------


def snapshot_primitive(snap: Snapshot, params: GasParams):
    """(rho, vel, theta) arrays of a snapshot."""
    vel = snap.mom / snap.rho
    kin = 0.5 * snap.rho * np.sum(vel * vel, axis=0)
    theta = (snap.energy - kin) / (snap.rho * params.cv)
    return snap.rho, vel, theta


def project_snapshot(snap: Snapshot, factor: int, grid: PeriodicGrid) -> Snapshot:
    """Conservative block average onto a grid coarsened by ``factor``."""

    def down(a):   # axis k of ``a`` splits into (blocks, factor); the factors average out
        blocks = a.reshape([m for k in a.shape for m in (k // factor, factor)])
        return blocks.mean(axis=tuple(range(1, 2 * a.ndim, 2)))

    mom = np.stack([down(m) for m in snap.mom])
    out = Snapshot(snap.t, down(snap.rho), mom, down(snap.energy))
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
    return Trajectory(target_grid, traj.params, snaps, meta)
