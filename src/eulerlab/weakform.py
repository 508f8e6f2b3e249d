"""Weak-form and entropy-inequality residuals of computed trajectories.

Each balance law is tested against smooth space-time test functions: the
interior integral (state times time-derivative plus flux times gradient) is
compared with the boundary terms at the initial and final times.  Smooth
solutions drive the residual to zero at first order under refinement; the
entropy production (boundary minus interior for the entropy balance) must
stay above -O(dx) for an admissible scheme and is strictly positive across
shocks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .conditions import bump_profile
from .grid import PERIOD, PeriodicGrid, exact_sum, grad_values, time_trapezoid, wrap
from .solver import Snapshot, Trajectory, snapshot_primitive
from .thermo import GasParams, entropy


def _scalar_bump(s: float) -> float:
    if abs(s) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - s * s))


def bump_test(center, width: float, t0: float, t1: float) -> Callable:
    """Tensor bump in space times a bump in time, compact in (t0, t1): the
    non-negative test function ``value(t, X)`` of the snapshot time and the
    tuple of coordinate arrays."""
    centers = np.atleast_1d(np.asarray(center, dtype=float))
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)

    def value(t, X):
        space = bump_profile(wrap(X[0] - centers[0]) / width)
        for ax in range(1, len(X)):
            space = space * bump_profile(wrap(X[ax] - centers[ax]) / width)
        return _scalar_bump((t - mid) / half) * space

    return value


def _fields(snap: Snapshot, params: GasParams, which: str):
    """(density q, flux rows) of the tested balance law at one snapshot."""
    rho, vel, theta = snapshot_primitive(snap, params)
    if which == "mass":
        return rho, snap.mom
    if which.startswith("momentum"):
        suffix = which[len("momentum"):]
        i = int(suffix) - 1 if suffix else 0
        p = rho * theta
        flux = np.stack([snap.mom[i] * vel[ax] for ax in range(vel.shape[0])])
        flux[i] = flux[i] + p
        return snap.mom[i], flux
    if which == "energy":
        p = rho * theta
        return snap.energy, np.stack([(snap.energy + p) * vel[ax]
                                      for ax in range(vel.shape[0])])
    if which == "entropy":
        rs = rho * entropy(rho, theta, params)
        return rs, np.stack([rs * vel[ax] for ax in range(vel.shape[0])])
    raise ValueError(f"unknown balance law {which!r}")


def weak_residual(traj: Trajectory, tests: list[Callable], which: str) -> list[float]:
    """Interior weak integral minus boundary terms for one balance law, per test.

    Midpoint quadrature in space over cells; the time-derivative term pairs
    each snapshot interval with the exact increment of the test function, so
    it telescopes against the boundary terms, and the flux term contracts
    against the lattice gradient of the test samples, so constant fluxes
    cancel by periodic telescoping.  Constant states therefore give residuals
    at rounding level, and smooth flows at quadrature order.  Each snapshot's
    density and flux are formed once and read by every test.
    """
    grid = traj.grid
    X = grid.coordinates()
    vol = grid.cell_volume
    times = traj.times
    qs, fluxes = zip(*(_fields(snap, traj.params, which) for snap in traj.snapshots))
    q_mids = [0.5 * (qs[j] + qs[j - 1]) for j in range(1, len(times))]
    residuals = []
    for test in tests:
        phis = [test(t, X) * np.ones(grid.shape) for t in times]
        flux_series = []
        for flux, phi in zip(fluxes, phis):
            gphi = grad_values(phi, grid.cell_width)
            integrand = np.zeros(grid.shape)
            for ax in range(grid.dims):
                integrand = integrand + flux[ax] * gphi[ax]
            flux_series.append(vol * exact_sum(integrand))
        interior = float(time_trapezoid(times, flux_series)[1][-1])
        for j in range(1, len(times)):
            interior += vol * exact_sum(q_mids[j - 1] * (phis[j] - phis[j - 1]))
        boundary = vol * exact_sum(qs[-1] * phis[-1]) - vol * exact_sum(qs[0] * phis[0])
        residuals.append(interior - boundary)
    return residuals


def entropy_production(traj: Trajectory, tests: list[Callable]) -> list[float]:
    """Entropy balance surplus per test: boundary growth minus interior transport.

    Nonnegative (up to O(dx)) for admissible solutions, strictly positive for
    test bumps riding on a shock.
    """
    return [-r for r in weak_residual(traj, tests, "entropy")]


def entropy_production_tol(grid: PeriodicGrid) -> float:
    """Admissibility tolerance dx: the production sign check allows -dx."""
    return grid.cell_width


#: Space bumps of ``shock_tracking_bumps``; each is one spacing wide.
SHOCK_BUMPS = 8


def shock_tracking_bumps(traj: Trajectory) -> list[Callable]:
    """Space bumps spread over the domain, time bump inside (0, T)."""
    t0, t1 = traj.times[0], traj.times[-1]
    tb0 = t0 + 0.2 * (t1 - t0)
    tb1 = t0 + 0.9 * (t1 - t0)
    width = PERIOD / SHOCK_BUMPS
    return [bump_test((-1.0 + (k + 0.5) * PERIOD / SHOCK_BUMPS,) * traj.grid.dims,
                      width, tb0, tb1)
            for k in range(SHOCK_BUMPS)]
