"""One-sided Lipschitz diagnostics for velocity fields.

The weak form asks for the smallest constant C such that the directional
stretching of the velocity is bounded by C against every nonnegative test
bump; the reported minimum is

    max over (xi, phi) of  -integral (xi . u) (xi . grad phi) / integral phi

with unit directions xi, which converges to the supremum of the symmetric
velocity-gradient quadratic form as the bump basis refines.  A discrete
surrogate takes one-sided lattice difference quotients directly and upper
bounds the weak constant up to O(dx).  Expansive wrap-around jumps of
profiles embedded periodically can dominate; they are maskable and the mask
is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid, exact_sum, offset_length, shift_values, wrap

DEFAULT_BUMP_WIDTHS = (0.25, 0.125, 0.0625)


def unit_directions(dims: int, count: int = 16) -> list[tuple[float, ...]]:
    if dims == 1:
        return [(1.0,), (-1.0,)]
    angles = [2.0 * math.pi * k / count for k in range(count)]
    return [(math.cos(a), math.sin(a)) for a in angles]


@dataclass(frozen=True)
class BumpBasis:
    """Translated smooth bumps at dyadic widths, with closed-form gradients.

    Bumps are stored compactly on their support: flat cell indices plus the
    bump value and gradient there.
    """

    supports: list[np.ndarray]       # flat indices into the grid
    values: list[np.ndarray]
    grads: list[np.ndarray]          # (dims, support) per bump
    labels: list[tuple]              # (width, center...) per bump


def bump_profile(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-1/(1-s^2)) on |s| < 1 and its derivative, both vanish outside."""
    val = np.zeros_like(s)
    der = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    val[inside] = np.exp(-1.0 / q)
    der[inside] = val[inside] * (-2.0 * si / (q * q))
    return val, der


def make_bump_basis(grid: PeriodicGrid, widths=DEFAULT_BUMP_WIDTHS,
                    refine_level: int = 0) -> BumpBasis:
    """Periodic bump family; each refinement level doubles the translates."""
    supports, values, grads, labels = [], [], [], []
    coords = grid.coordinates()
    for w in widths:
        spacing = w / (2.0 ** (1 + refine_level))
        centers = np.arange(-1.0, 1.0 - 1e-12, spacing)
        if grid.dims == 1:
            for x0 in centers:
                s = wrap(coords[0] - x0) / w
                val, der = bump_profile(s)
                idx = np.flatnonzero(val)
                supports.append(idx)
                values.append(val[idx])
                grads.append(np.stack([der[idx] / w]))
                labels.append((w, float(x0)))
        else:
            for x0 in centers:
                sx = wrap(coords[0] - x0) / w
                vx, dx_ = bump_profile(sx)
                for y0 in centers:
                    sy = wrap(coords[1] - y0) / w
                    vy, dy_ = bump_profile(sy)
                    val = vx * vy
                    idx = np.flatnonzero(val.ravel())
                    supports.append(idx)
                    values.append(val.ravel()[idx])
                    gx = (dx_ * vy / w).ravel()[idx]
                    gy = (vx * dy_ / w).ravel()[idx]
                    grads.append(np.stack([gx, gy]))
                    labels.append((w, float(x0), float(y0)))
    return BumpBasis(supports, values, grads, labels)


@dataclass(frozen=True)
class OslipWeakResult:
    min_c: float
    direction: tuple[float, ...]
    bump_label: tuple


def oslip_weak_min_c(grid: PeriodicGrid, vel: np.ndarray,
                     directions: list[tuple[float, ...]] | None = None,
                     basis: BumpBasis | None = None) -> OslipWeakResult:
    """Minimal admissible one-sided constant over the tested family.

    ``vel`` has the component axis first.  Per bump, the moment matrix
    M[a, b] = -integral u_a d_b(phi) collapses every direction scan to the
    quadratic form xi.M.xi / (|xi|^2 integral phi).  Ties keep the earliest
    (direction, bump) pair, so the scan is deterministic.
    """
    vel = np.asarray(vel, dtype=float)
    if vel.shape != (grid.dims,) + grid.shape:
        raise ValueError("velocity must be component-first on the grid")
    if directions is None:
        directions = unit_directions(grid.dims)
    if basis is None:
        basis = make_bump_basis(grid)
    if not directions or not basis.values:
        raise ValueError("directions and test basis must be nonempty")
    best = -math.inf
    best_dir = directions[0]
    best_label = basis.labels[0]
    vol = grid.cell_volume
    flat = vel.reshape(grid.dims, -1)
    dirs = [np.asarray(xi, dtype=float) for xi in directions]
    norms = [float(np.dot(d, d)) for d in dirs]
    for idx, phi_val, phi_grad, label in zip(
        basis.supports, basis.values, basis.grads, basis.labels
    ):
        mass = vol * exact_sum(phi_val)
        if mass <= 0.0:
            continue
        moment = np.empty((grid.dims, grid.dims))
        for a in range(grid.dims):
            u_a = flat[a, idx]
            for b in range(grid.dims):
                moment[a, b] = -vol * exact_sum(u_a * phi_grad[b])
        for xi, norm_sq in zip(dirs, norms):
            ratio = float(xi @ moment @ xi) / (norm_sq * mass)
            if ratio > best:
                best, best_dir, best_label = ratio, tuple(xi), label
    return OslipWeakResult(best, best_dir, best_label)


@dataclass(frozen=True)
class OslipDiscreteResult:
    value: float
    masked_wrap: bool
    step_cells: tuple[int, ...]


def oslip_discrete(grid: PeriodicGrid, vel: np.ndarray,
                   steps: tuple[int, ...] = (1,),
                   mask_wrap: bool = False) -> OslipDiscreteResult:
    """Max one-sided directional difference quotient over lattice steps.

    For each lattice step h the quotient (h/|h|) . (u(x+h) - u(x)) / |h| is
    maximized over cells; with ``mask_wrap`` the stencils crossing the
    periodic identification are dropped (recorded in the result).
    """
    vel = np.asarray(vel, dtype=float)
    if vel.shape != (grid.dims,) + grid.shape:
        raise ValueError("velocity must be component-first on the grid")
    dx = grid.cell_width
    n = grid.cells_per_dim
    best = -math.inf
    offsets: list[tuple[int, ...]] = []
    for c in steps:
        if c < 1:
            raise ValueError("steps are in cells, >= 1")
        if grid.dims == 1:
            offsets.append((c,))
        else:
            offsets.extend([(c, 0), (0, c), (c, c), (c, -c)])
    for off in offsets:
        h_len = offset_length(grid, off)
        xi = np.asarray(off, dtype=float) * dx / h_len
        moved = shift_values(vel, off, first_axis=1)
        quot = np.tensordot(xi, moved - vel, axes=(0, 0)) / h_len
        if mask_wrap:
            keep = np.ones(grid.shape, dtype=bool)
            idx = np.indices(grid.shape)
            for ax, c in enumerate(off):
                if c > 0:
                    keep &= idx[ax] + c <= n - 1
                elif c < 0:
                    keep &= idx[ax] + c >= 0
            if not np.any(keep):
                continue
            quot = quot[keep]
        best = max(best, float(np.max(quot)))
    return OslipDiscreteResult(best, mask_wrap, tuple(steps))


@dataclass(frozen=True)
class L1Report:
    l1_norm: float
    fit_coefficient: float
    fit_power: float           # b in min_C ~ a / tau**b near delta
    integrability_doubtful: bool
    points_fitted: int


def l1_report(times: np.ndarray, min_c: np.ndarray, delta: float) -> L1Report:
    """Trapezoid integral of max(min_C, 0) over (delta, T] plus a blow-up fit.

    The leading points are fitted to a power law a / tau**b; b >= 1 raises
    the doubtful-integrability flag for the delta -> 0 limit.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(min_c, dtype=float)
    if times.shape != vals.shape:
        raise ValueError("times and values must align")
    mask = times >= delta - 1e-15
    t = times[mask]
    v = np.maximum(vals[mask], 0.0)
    if len(t) < 2:
        raise ValueError("need at least two samples past delta")
    l1 = float(np.trapezoid(v, t))
    # the power law has no value at tau = 0, so only tau > 0 points are fitted
    tf, vf = t[t > 0.0], v[t > 0.0]
    n_fit = min(max(3, len(tf) // 4), len(tf))
    tf, vf = tf[:n_fit], vf[:n_fit]
    if n_fit >= 2 and np.min(vf) > 0.0:
        slope = float(np.polyfit(np.log(tf), np.log(vf), 1)[0])
        b = -slope
        a = float(np.exp(np.mean(np.log(vf) + b * np.log(tf))))
    else:
        a, b = 0.0, 0.0
    return L1Report(l1, a, b, bool(b >= 1.0), n_fit)
