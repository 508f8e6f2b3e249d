"""Besov semi-norms of discrete fields and mollifier decay rates.

The semi-norm of exponent beta in L^p is the supremum over nonzero shifts h
of ||f(.+h) - f||_p / |h|^beta, approximated here over lattice shifts.  The
module also fits regularity exponents from dyadic shift scans and verifies
the three decay estimates a mollifier family satisfies on such a field:

    ||f_eps - f||_p           <= |f| * eps**beta,
    ||f(.+h) - f||_p          <= |f| * |h|**beta,
    ||grad f_eps||_p          <= |f| * eps**(beta - 1).

The shift moduli sup_{|h|<eps} ||f(.+h) - f||_p of a whole eps scan come
from `ball_sups`, the one ball-sup scan, which the product commutators share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .grid import (
    PERIOD,
    PeriodicGrid,
    ScalarField,
    ball_offsets,
    build_mollifier,
    grad_values,
    lp_norm_values,
    magnitude,
    mollify_values,
    offset_length,
    shift_values,
)

#: Fraction of the period a measurement shift may reach.
MAX_SHIFT_FRACTION = 0.25

#: Default slack accepted when asserting the one-sided mollifier estimates.
ESTIMATE_SLACK = 0.05


def dyadic_shift_ladder(
    grid: PeriodicGrid,
    include_triples: bool = True,
    max_cells: int | None = None,
) -> list[tuple[int, ...]]:
    """Dyadic lattice shifts 2**k (and 3*2**k) cells up to a quarter period.

    Axis-aligned shifts in each axis, plus diagonals in 2D.  The 3*2**k
    rungs fill the octave gaps so that a supremum over the ladder is a fair
    stand-in for the supremum over all shifts.
    """
    n = grid.cells_per_dim
    cmax = max(1, n // 4)
    if max_cells is not None:
        cmax = min(cmax, max_cells)
    sizes = {2**k for k in range(int(math.log2(cmax)) + 1)}
    if include_triples:
        sizes |= {3 * 2**k for k in range(int(math.log2(cmax)) + 1) if 3 * 2**k <= cmax}
    shifts: list[tuple[int, ...]] = []
    for c in sorted(sizes):
        for ax in range(grid.dims):
            off = [0] * grid.dims
            off[ax] = c
            shifts.append(tuple(off))
        if grid.dims == 2:
            shifts.append((c, c))
    cap = MAX_SHIFT_FRACTION * PERIOD + 1e-12
    return sorted(off for off in set(shifts) if offset_length(grid, off) <= cap)


def _diff_norm(field: ScalarField, offsets: tuple[int, ...], p: float) -> float:
    moved = shift_values(field.values, offsets)
    return lp_norm_values(moved - field.values, p, field.grid.cell_volume)


def ball_sups(values: np.ndarray, grid: PeriodicGrid, eps_list, p: float) -> list[float]:
    """sup_{0 < |h| < eps} ||v(.+h) - v||_p per eps (any order; 0.0 if no h).

    ``values`` is a scalar array on ``grid`` or a component-first stack.  Each
    offset of the largest ball is evaluated once; the smaller balls are its
    subsets, as |h| < eps bounds each coordinate by the mollifier radius.
    """
    big = max(eps_list, default=0.0)
    first_axis = values.ndim - grid.dims
    measured = [
        (offset_length(grid, off),
         lp_norm_values(magnitude(shift_values(values, off, first_axis) - values, grid),
                        p, grid.cell_volume))
        for off in ball_offsets(grid, int(big / grid.cell_width), big)
    ]
    return [max((norm for h, norm in measured if h < eps), default=0.0) for eps in eps_list]


def _ladder_norms(field: ScalarField, p: float, shift_set: list[tuple[int, ...]]
                  ) -> dict[tuple[int, ...], tuple[float, float]]:
    """(|h|, ||f(.+h) - f||_p) per shift of the set, keyed in sorted shift order."""
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if not shift_set:
        raise ValueError("shift set must be nonempty")
    norms = {}
    for offsets in sorted(shift_set):
        if all(c == 0 for c in offsets):
            raise ValueError("zero shift not allowed in shift set")
        h = offset_length(field.grid, offsets)
        if h > MAX_SHIFT_FRACTION * PERIOD + 1e-12:
            raise ValueError(f"shift {offsets} exceeds a quarter period")
        norms[offsets] = (h, _diff_norm(field, offsets, p))
    return norms


def _ladder_sup(norms: dict[tuple[int, ...], tuple[float, float]], beta: float) -> float:
    """max of norm / |h|^beta over ``_ladder_norms``; ties keep the earlier shift."""
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    best = 0.0
    for h, norm in norms.values():
        val = norm / h**beta
        if val > best:
            best = val
    return best


def seminorm(
    field: ScalarField, beta: float, p: float, shift_set: list[tuple[int, ...]]
) -> float:
    """max over the shift set of ||f(.+h) - f||_p / |h|^beta.

    Deterministic: shifts are scanned in sorted order and ties keep the
    earlier (lexicographically smaller) shift.
    """
    return _ladder_sup(_ladder_norms(field, p, shift_set), beta)


def _loglog_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log ys against log xs, with residual."""
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def _asymptotic_window(m: int) -> slice:
    # drop the two smallest and two largest scales once enough rungs exist
    return slice(2, m - 2) if m >= 7 else slice(0, m)


@dataclass(frozen=True)
class RegularityFit:
    alpha: float
    residual: float
    lengths: np.ndarray
    diff_norms: np.ndarray
    window: slice
    degenerate: bool = False


def _regularity_fit(grid: PeriodicGrid, norm_of) -> RegularityFit:
    """Log-log fit of ``norm_of(offsets)`` over the fit's dyadic ladder.

    The ladder holds 2**k cells up to a sixteenth of the period, by length:
    larger shifts decorrelate and would flatten the slope.  A constant field
    has no scale to fit; the result is flagged degenerate with alpha = +inf.
    """
    max_cells = max(1, grid.cells_per_dim // 16)   # one rung below 16 cells, not log2(0)
    shifts = sorted(
        dyadic_shift_ladder(grid, include_triples=False, max_cells=max_cells),
        key=lambda off: offset_length(grid, off),
    )
    hs = np.array([offset_length(grid, off) for off in shifts])
    if len(hs) < 4 or hs[-1] / hs[0] < 7.9:
        raise ValueError("shift range must span at least 3 octaves")
    norms = np.array([norm_of(off) for off in shifts])
    if np.min(norms) == 0.0:
        return RegularityFit(math.inf, 0.0, hs, norms, slice(0, 0), degenerate=True)
    win = _asymptotic_window(len(hs))
    slope, resid = _loglog_fit(hs[win], norms[win])
    return RegularityFit(slope, resid, hs, norms, win)


def fit_regularity(field: ScalarField, p: float) -> RegularityFit:
    """Slope of log ||f(.+h) - f||_p against log |h| over a dyadic ladder."""
    return _regularity_fit(field.grid, lambda off: _diff_norm(field, off, p))


@dataclass(frozen=True)
class MollifierRateReport:
    """Per-epsilon values of the three mollifier quantities and their fits."""

    p: float
    alpha: float
    seminorm: float
    eps: np.ndarray
    mollify_err: np.ndarray
    shift_sup: np.ndarray
    grad_norm: np.ndarray
    slopes: tuple[float, float, float]
    window: slice
    bound_ok: np.ndarray  # one row per estimate, one column per eps


def verify_mollifier_rates(
    field: ScalarField,
    alpha: float,
    p: float,
    eps_range: list[float],
) -> MollifierRateReport:
    """Measure the three mollifier quantities over eps and fit their rates.

    The one-sided bounds use the semi-norm measured on the dyadic shift
    ladder and admit ``ESTIMATE_SLACK`` relative headroom.  Slopes are fitted
    on the asymptotic window (two smallest and two largest eps dropped when
    7+ are given).
    """
    grid = field.grid
    sem = seminorm(field, alpha, p, dyadic_shift_ladder(grid))
    eps_range = sorted(float(e) for e in eps_range)
    if eps_range[0] < 2.0 * grid.cell_width:
        raise ResolutionError(
            f"eps {eps_range[0]:g} below grid resolution {2.0 * grid.cell_width:g}"
        )
    m_err, g_nrm = [], []
    vol = grid.cell_volume
    for eps in eps_range:
        fe = mollify_values(field.values, build_mollifier(grid, eps))
        m_err.append(lp_norm_values(fe - field.values, p, vol))
        g_nrm.append(lp_norm_values(magnitude(grad_values(fe, grid.cell_width), grid), p, vol))
    eps_arr = np.array(eps_range)
    s_sup = np.array(ball_sups(field.values, grid, eps_range, p))
    m_err, g_nrm = np.array(m_err), np.array(g_nrm)
    win = _asymptotic_window(len(eps_arr))
    slopes = tuple(_loglog_fit(eps_arr[win], v[win])[0] for v in (m_err, s_sup, g_nrm))
    cap = (1.0 + ESTIMATE_SLACK) * sem
    bound_ok = np.stack(
        [
            m_err <= cap * eps_arr**alpha,
            s_sup <= cap * eps_arr**alpha,
            g_nrm <= cap * eps_arr ** (alpha - 1.0),
        ]
    )
    return MollifierRateReport(
        p, alpha, sem, eps_arr, m_err, s_sup, g_nrm, slopes, win, bound_ok
    )


#: Exponents of the ``besov_report`` seminorm scan.
BETA_GRID = tuple(round(0.1 * k, 3) for k in range(1, 11))


@dataclass(frozen=True)
class BesovReport:
    """Semi-norm scan over beta plus the fitted regularity exponent."""

    p: float
    beta_grid: np.ndarray
    seminorms: np.ndarray
    fitted_alpha: float
    fit_residual: float
    degenerate: bool = False


def besov_report(field: ScalarField, p: float) -> BesovReport:
    """Seminorms over ``BETA_GRID`` and the fitted exponent, from one ladder.

    Each rung of the dyadic shift ladder is measured once; the fit's shifts
    are a subset of the ladder, so the fit reads the same norms.
    """
    norms = _ladder_norms(field, p, dyadic_shift_ladder(field.grid))
    fit = _regularity_fit(field.grid, lambda off: norms[off][1])
    sems = np.array([_ladder_sup(norms, b) for b in BETA_GRID])
    # first differences cannot certify more than Lipschitz; cap the report
    alpha = fit.alpha if fit.degenerate else min(fit.alpha, 1.0)
    return BesovReport(p, np.asarray(BETA_GRID), sems, alpha, fit.residual, fit.degenerate)
