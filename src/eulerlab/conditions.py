"""One-sided Lipschitz diagnostics for velocity fields.

The weak form asks for the smallest constant C such that the directional
stretching of the velocity is bounded by C against every non-negative test
bump; the reported minimum is

    max over (xi, phi) of  -integral (xi . u) (xi . grad phi) / integral phi

over unit directions xi.  For each bump the maximum over xi is the largest
eigenvalue of the symmetric part of the moment matrix, in closed form, so
the constant converges to the supremum of the symmetric velocity-gradient
quadratic form as the bump basis refines.  A discrete
surrogate takes one-sided lattice difference quotients directly and upper
bounds the weak constant up to O(dx).  Expansive wrap-around jumps of
profiles embedded periodically can dominate; they are maskable.

The moments are summed by parts on the lattice, as vol * sum phi D_b(u_a)
with D the central gradient `grad_values` that `weak_residual` also uses,
so a constant flow reads exactly 0 on every grid.  The bump basis is
held per width as a stencil: the supports of all translates, padded with
dead cells to one length.  A scan then takes every moment of every bump as
one row of a row-wise `exact_sum`, so its numbers are those of a
bump-by-bump loop with `math.fsum`, bit for bit.  Both diagnostics reject
non-finite velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RangeError
from .grid import (PeriodicGrid, exact_sum, grad_values, offset_length, shift_values,
                   time_trapezoid, time_window, wrap)

DEFAULT_BUMP_WIDTHS = (0.25, 0.125, 0.0625)


class BumpStencil(NamedTuple):
    """The translates of one width, each support padded to a common length."""

    cells: np.ndarray     # (bumps, support) flat indices into the grid
    values: np.ndarray    # (bumps, support) value of the bump there
    live: np.ndarray      # (bumps, support) bump value nonzero; padding is dead


@dataclass(frozen=True)
class BumpBasis:
    """Translated smooth bumps at dyadic widths, sampled at cell centres.

    One `BumpStencil` per width, so that every moment of every translate is
    one row of a row-wise `exact_sum`.  Bumps are numbered in basis order:
    width, then the first center coordinate, then the second.
    """

    grid: PeriodicGrid
    blocks: tuple[BumpStencil, ...]   # one per width
    masses: np.ndarray                # integral of each bump, basis order
    labels: list[tuple]               # (width, center...) per bump


def bump_profile(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    val = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    val[inside] = np.exp(-1.0 / (1.0 - si * si))
    return val


def _axis_profiles(grid: PeriodicGrid, w: float, centers: np.ndarray):
    """Cells and values of the 1D profile of every translate.

    A window of cells around each center is sampled, then a stable sort moves
    its nonzero values to the front of the row; rows are cut to the widest support.
    """
    n = grid.cells_per_dim
    dx = grid.cell_width
    # |x - x0| < w with two spare cells either side; n cells cover the torus
    first = np.floor((centers + 1.0 - w) / dx - 0.5).astype(np.int64) - 2
    cells = (first[:, None] + np.arange(min(n, math.ceil(2.0 * w / dx) + 5))) % n
    val = bump_profile(wrap(grid.axis_centers()[cells] - centers[:, None]) / w)
    order = np.argsort(val == 0.0, axis=1, kind="stable")
    order = order[:, :np.count_nonzero(val, axis=1).max()]
    return [a[np.arange(len(a))[:, None], order] for a in (cells, val)]


def make_bump_basis(grid: PeriodicGrid, widths=DEFAULT_BUMP_WIDTHS,
                    refine_level: int = 0) -> BumpBasis:
    """Periodic bump family; each refinement level doubles the translates.

    In 2D each bump is the tensor product of two translates of the 1D
    profile, phi = vx * vy.
    """
    if len(widths) == 0:
        raise ValueError("bump widths must be nonempty, got widths=()")
    if not all(math.isfinite(w) and w > 0.0 for w in widths):
        raise ValueError("bump widths must be finite and positive")
    blocks, masses, labels = [], [], []
    for w in widths:
        spacing = w / (2.0 ** (1 + refine_level))
        centers = np.arange(-1.0, 1.0 - 1e-12, spacing)
        cells, val = _axis_profiles(grid, w, centers)
        at = centers.tolist()
        if grid.dims == 1:
            labels += [(w, x0) for x0 in at]
        else:
            c = len(centers)
            k = val.shape[1]
            tx = (slice(None), None, slice(None), None)     # (x0, ., i, .)
            ty = (None, slice(None), None, slice(None))     # (., y0, ., j)
            cells = (cells[tx] * grid.cells_per_dim + cells[ty]).reshape(c * c, k * k)
            val = (val[tx] * val[ty]).reshape(c * c, k * k)
            labels += [(w, x0, y0) for x0 in at for y0 in at]
        live = val != 0.0
        blocks.append(BumpStencil(cells, val, live))
        masses.append(grid.cell_volume * exact_sum(np.where(live, val, -0.0), axis=-1))
    return BumpBasis(grid, tuple(blocks), np.concatenate(masses), labels)


@dataclass(frozen=True)
class OslipWeakResult:
    min_c: float
    bump_label: tuple


def _check_velocity(grid: PeriodicGrid, vel) -> np.ndarray:
    vel = np.asarray(vel, dtype=float)
    if vel.shape != (grid.dims,) + grid.shape:
        raise ValueError("velocity must be component-first on the grid")
    if not np.isfinite(vel).all():
        raise ValueError("velocity must be finite")
    return vel


def oslip_weak_min_c(grid: PeriodicGrid, vel: np.ndarray,
                     basis: BumpBasis | None = None) -> OslipWeakResult:
    """Minimal admissible one-sided constant over the tested family.

    ``vel`` has the component axis first.  Per bump, the moment matrix
    M[a, b] = -integral u_a d_b(phi), an exact row sum by parts on the
    lattice, vol * sum phi D_b(u_a) with D = ``grad_values``, gives the
    stretching along xi as xi.M.xi / (|xi|^2 integral phi).  As xi.M.xi =
    xi.S.xi for S = (M + M^T) / 2, its maximum over xi is S's largest
    eigenvalue: M in 1D; in 2D, the larger root of (lambda - m)^2 = d^2 +
    s^2 with m, d = (M11 +- M22) / 2 and s = S12, so m + hypot(d, s).
    Bumps with no mass are skipped; ties go to the earliest bump.
    """
    vel = _check_velocity(grid, vel)
    if basis is None:
        basis = make_bump_basis(grid)
    elif basis.grid != grid:
        raise ValueError("the bump basis was built for another grid")
    if not basis.labels:
        raise ValueError("the test basis must be nonempty")
    vol = grid.cell_volume
    try:
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow shows in its moment
            # du[a, b] = D_b(u_a) at every cell
            du = np.stack([grad_values(u, grid.cell_width) for u in vel]).reshape(
                grid.dims, grid.dims, -1)
            moment = np.concatenate([
                vol * exact_sum(np.where(blk.live, du[:, :, blk.cells] * blk.values, -0.0),
                                axis=-1)
                for blk in basis.blocks], axis=-1)
    except (OverflowError, ValueError):   # finite terms whose sum overflows, or inf - inf
        moment = np.array(math.inf)
    if not np.isfinite(moment).all():
        raise RangeError(f"a moment of the velocity over {vel[0].size} cells is "
                         f"outside the float range")
    # m[a, b, k] = vol * sum phi D_b(u_a) = -integral u_a d_b(phi) for bump k
    m, mass = moment, basis.masses
    with np.errstate(all="ignore"):   # past the float range +-inf; massless bumps drop out
        if grid.dims == 1:
            top = m[0, 0]
        else:   # halved before they are added: the sums of finite moments stay finite
            top = (0.5 * m[0, 0] + 0.5 * m[1, 1]
                   + np.hypot(0.5 * m[0, 0] - 0.5 * m[1, 1], 0.5 * m[0, 1] + 0.5 * m[1, 0]))
        values = np.where(mass > 0.0, top / mass, -math.inf)
    j = int(np.argmax(values))   # the first maximum
    return OslipWeakResult(float(values[j]), basis.labels[j])


def oslip_discrete(grid: PeriodicGrid, vel: np.ndarray, mask_wrap: bool = False) -> float:
    """Max one-sided directional difference quotient over one-cell steps.

    For each lattice step h (one cell along each axis, and both diagonals in
    2D) the quotient (h/|h|) . (u(x+h) - u(x)) / |h| is maximized over cells;
    with ``mask_wrap`` the stencils crossing the periodic identification are
    dropped.
    """
    vel = _check_velocity(grid, vel)
    dx = grid.cell_width
    best = -math.inf
    offsets = [(1,)] if grid.dims == 1 else [(1, 0), (0, 1), (1, 1), (1, -1)]
    for off in offsets:
        h_len = offset_length(grid, off)
        xi = np.asarray(off, dtype=float) * dx / h_len
        moved = shift_values(vel, off, first_axis=1)
        with np.errstate(over="ignore", invalid="ignore"):   # shows in the maximum
            quot = np.tensordot(xi, moved - vel, axes=(0, 0)) / h_len
        if mask_wrap:   # the cells whose step c stays inside the box
            quot = quot[tuple(slice(None, -c) if c > 0 else slice(-c, None) for c in off)]
        top = float(np.max(quot))
        if not math.isfinite(top):
            raise RangeError(f"a difference quotient of the velocity over {vel[0].size} cells "
                             f"is outside the float range")
        best = max(best, top)
    return best


#: Fitted power at which 1/tau-type blow-up is flagged.  A least-squares fit of
#: an exact power recovers b only to about 1e-15, on either side, so the flag
#: sits just under 1 and exact 1/tau raises it whatever the node count.
DOUBTFUL_POWER = 1.0 - 1e-9


@dataclass(frozen=True)
class L1Report:
    l1_norm: float
    l1_partial: np.ndarray     # running integral at each time in the window
    fit_power: float           # b in min_C ~ a / tau**b near delta
    integrability_doubtful: bool
    points_fitted: int


def l1_report(times: np.ndarray, min_c: np.ndarray, delta: float) -> L1Report:
    """Running trapezoid integral of max(min_C, 0) over [delta, T] plus a blow-up fit.

    The leading points are fitted to a power law a / tau**b; b >= 1, up to
    the fit's rounding (``DOUBTFUL_POWER``), raises the doubtful-integrability
    flag for the delta -> 0 limit.  Times must be finite and strictly increase,
    and no value may be NaN: the first index that breaks this is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(min_c, dtype=float)
    if times.shape != vals.shape:
        raise ValueError("times and values must align")
    rising = np.concatenate(([True], times[1:] > times[:-1]))
    bad = np.flatnonzero(~np.isfinite(times) | ~rising | np.isnan(vals))
    if bad.size:
        i = int(bad[0])
        after = f" after {times[i - 1]}" if i else ""
        raise ValueError(f"times must be finite and strictly increase, values not NaN: "
                         f"index {i} has time {times[i]}{after}, value {vals[i]}")
    inside = time_window(times, delta, "delta")
    t, v = times[inside], vals[inside]
    np.maximum(v, 0.0, out=v)
    # the power law has no value at tau = 0, so only tau > 0 points are fitted.
    # The fit runs first, on copies of the fitted points alone, and they are
    # freed before the running integral is formed
    tf, vf = t[t > 0.0], v[t > 0.0]
    n_fit = min(max(3, len(tf) // 4), len(tf))
    tf, vf = tf[:n_fit].copy(), vf[:n_fit].copy()
    b = 0.0
    if n_fit >= 2 and np.min(vf) > 0.0:
        b = -float(np.polyfit(np.log(tf, out=tf), np.log(vf, out=vf), 1)[0])
    del tf, vf
    _, partial = time_trapezoid(t, v)
    return L1Report(float(partial[-1]), partial, b, bool(b >= DOUBTFUL_POWER), n_fit)
