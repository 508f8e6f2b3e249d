"""Besov semi-norms of discrete fields and mollifier decay rates.

The semi-norm of exponent beta in L^p is the supremum over nonzero shifts h
of ||f(.+h) - f||_p / |h|^beta, approximated here over lattice shifts.  The
module also fits regularity exponents from dyadic shift scans and verifies
the three decay estimates a mollifier family satisfies on such a field:

    ||f_eps - f||_p           <= |f| * eps**beta,
    ||f(.+h) - f||_p          <= |f| * |h|**beta,
    ||grad f_eps||_p          <= |f| * eps**(beta - 1).

Every reader takes the shift modulus ||f(.+h) - f||_p from a `ModulusTable`,
which measures each offset once, by `_diff_norm`: the semi-norm ladder, the
regularity fit's rungs and the ball sups sup_{|h|<eps} of a whole eps scan,
which the product commutators share.  Every reader of an eps scan takes its
kernels and its slope fit from one `EpsScan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import (
    PERIOD,
    Mollifier,
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


def dyadic_shift_ladder(grid: PeriodicGrid) -> list[tuple[int, ...]]:
    """Dyadic lattice shifts 2**k and 3*2**k cells up to a quarter period.

    Axis-aligned shifts in each axis, plus diagonals in 2D.  The 3*2**k
    rungs fill the octave gaps so that a supremum over the ladder is a fair
    stand-in for the supremum over all shifts.
    """
    cmax = max(1, grid.cells_per_dim // 4)
    sizes = {2**k for k in range(int(math.log2(cmax)) + 1)}
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


def _diff_norm(field, offsets: tuple[int, ...], p: float) -> float:
    """||v(.+h) - v||_p for the lattice shift h of ``offsets`` cells: the one
    evaluation of the shift modulus.  ``field`` has a ``grid`` and ``values``,
    a scalar array on it or a component-first stack measured by magnitude."""
    grid, values = field.grid, field.values
    moved = shift_values(values, offsets, values.ndim - grid.dims)
    return lp_norm_values(magnitude(moved - values, grid), p, grid.cell_volume)


class ModulusTable:
    """(|h|, ||v(.+h) - v||_p) per lattice offset h of one array, each measured once.

    ``values`` is a scalar array on ``grid`` or a component-first stack.  The
    table holds ``offsets`` and the lattice ball 0 < |h| < max(``eps_list``),
    one offset of each +-h pair.  Each reader takes only its own offsets, so
    a table that holds more offsets gives the same numbers.
    """

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, p: float, offsets, eps_list):
        self.radius = big = max(eps_list, default=0.0)
        ball = ball_offsets(grid, big)
        self.grid, self.values = grid, values
        with np.errstate(over="ignore"):   # an overflowed difference shows in its norm
            self.norms = {off: (offset_length(grid, off), _diff_norm(self, off, p))
                          for off in sorted(set(offsets) | set(ball))}

    def sup(self, offsets, beta: float) -> float:
        """max over ``offsets`` of ||v(.+h) - v||_p / |h|^beta.

        Deterministic: offsets are scanned in sorted order and ties keep the
        earlier (lexicographically smaller) one.
        """
        if not 0.0 < beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        best = 0.0
        for off in sorted(offsets):
            h, norm = self.norms[off]
            val = norm / h**beta
            if val > best:
                best = val
        return best

    def ball_sups(self, eps_list) -> list[float]:
        """sup_{0 < |h| < eps} ||v(.+h) - v||_p per eps (any order; 0.0 if no h)."""
        if max(eps_list, default=0.0) > self.radius:
            raise ValueError(f"eps {max(eps_list):g} exceeds the table's ball {self.radius:g}")
        return [max((norm for h, norm in self.norms.values() if h < eps), default=0.0)
                for eps in eps_list]


def seminorm(
    field: ScalarField, beta: float, p: float, shift_set: list[tuple[int, ...]]
) -> float:
    """max over the shift set of ||f(.+h) - f||_p / |h|^beta (see `ModulusTable.sup`)."""
    if not shift_set:
        raise ValueError("shift set must be nonempty")
    for offsets in shift_set:
        if all(c == 0 for c in offsets):
            raise ValueError("zero shift not allowed in shift set")
        if offset_length(field.grid, offsets) > MAX_SHIFT_FRACTION * PERIOD + 1e-12:
            raise ValueError(f"shift {offsets} exceeds a quarter period")
    return ModulusTable(field.grid, field.values, p, shift_set, ()).sup(shift_set, beta)


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
class EpsScan:
    """The ascending ``eps`` of a scan on ``grid``, repeats kept, and each one's kernel."""

    grid: PeriodicGrid
    eps: np.ndarray
    mollifiers: tuple[Mollifier, ...]

    def slope(self, values) -> float:
        """Log-log slope of ``values`` (one per eps) on the asymptotic window;
        +inf where they are all 0 there, as `fit_regularity` gives a constant field."""
        win = _asymptotic_window(len(self.eps))
        values = np.asarray(values)[win]
        return _loglog_fit(self.eps[win], values)[0] if values.any() else math.inf


def eps_scan(grid: PeriodicGrid, eps_range) -> EpsScan:
    """The scan of ``eps_range`` on ``grid``, one `build_mollifier` per distinct
    eps; an eps under two cells raises its `ResolutionError`."""
    eps = sorted(float(e) for e in eps_range)
    kernels = {e: build_mollifier(grid, e) for e in dict.fromkeys(eps)}
    return EpsScan(grid, np.array(eps), tuple(kernels[e] for e in eps))


@dataclass(frozen=True)
class RegularityFit:
    alpha: float
    residual: float
    lengths: np.ndarray
    diff_norms: np.ndarray
    degenerate: bool = False


#: Fewest cells per dimension a regularity fit takes: its rungs of 1 to 8 cells.
MIN_FIT_CELLS = 128


def fit_regularity(table: ModulusTable) -> RegularityFit:
    """Slope of log ||f(.+h) - f||_p against log |h| over the fit's dyadic rungs.

    The rungs are 2**k cells up to a sixteenth of the period, by length:
    larger shifts decorrelate and would flatten the slope.  They must span 3
    octaves, so the grid needs ``MIN_FIT_CELLS`` cells per dimension.  They
    lie on the dyadic shift ladder, so a table over the ladder holds them.  A
    constant field has no scale to fit; the result is flagged degenerate
    with alpha = +inf.
    """
    grid = table.grid
    if grid.cells_per_dim < MIN_FIT_CELLS:
        raise ValueError(f"a regularity fit needs at least {MIN_FIT_CELLS} cells per dimension, "
                         f"got {grid.cells_per_dim}: its shifts, 2**k cells up to a sixteenth "
                         f"of the period, must span 3 octaves")
    rungs = {2**k for k in range((grid.cells_per_dim // 16).bit_length())}
    shifts = sorted((off for off in dyadic_shift_ladder(grid) if max(off) in rungs),
                    key=lambda off: offset_length(grid, off))
    hs = np.array([offset_length(grid, off) for off in shifts])
    norms = np.array([table.norms[off][1] for off in shifts])
    if np.min(norms) == 0.0:
        return RegularityFit(math.inf, 0.0, hs, norms, degenerate=True)
    win = _asymptotic_window(len(hs))
    slope, resid = _loglog_fit(hs[win], norms[win])
    return RegularityFit(slope, resid, hs, norms)


#: The three mollifier estimates, in the row order of a ``MollifierRateReport``.
ESTIMATES = ("mollification error", "shift modulus", "gradient")


@dataclass(frozen=True)
class MollifierRateReport:
    """Per-epsilon estimates and their one-sided bounds; ``scan.slope`` fits a rate."""

    estimates: np.ndarray  # one row per estimate (ESTIMATES), one column per eps
    bounds: np.ndarray     # the bound each estimate is held to, same layout
    table: ModulusTable    # the dyadic shift ladder and the ball of the largest eps

    @property
    def bound_ok(self) -> np.ndarray:
        return self.estimates <= self.bounds


def verify_mollifier_rates(field: ScalarField, alpha: float, p: float,
                           scan: EpsScan) -> MollifierRateReport:
    """Measure the three mollifier quantities over the scan, with their bounds.

    One modulus table over the dyadic shift ladder and the ball of the
    largest eps gives the semi-norm (on the ladder) and the shift moduli (on
    the balls).  The one-sided bounds admit ``ESTIMATE_SLACK`` relative
    headroom.
    """
    grid = field.grid
    if scan.grid != grid:
        raise ValueError("the field and the eps scan must share one grid")
    ladder = dyadic_shift_ladder(grid)
    table = ModulusTable(grid, field.values, p, ladder, scan.eps)
    sem = table.sup(ladder, alpha)
    m_err, g_nrm = [], []
    vol = grid.cell_volume
    for mol in scan.mollifiers:
        fe = mollify_values(field.values, mol)
        m_err.append(lp_norm_values(fe - field.values, p, vol))
        g_nrm.append(lp_norm_values(magnitude(grad_values(fe, grid.cell_width), grid), p, vol))
    s_sup = table.ball_sups(scan.eps)
    cap = (1.0 + ESTIMATE_SLACK) * sem
    bounds = np.stack([cap * scan.eps**alpha, cap * scan.eps**alpha,
                       cap * scan.eps ** (alpha - 1.0)])
    return MollifierRateReport(np.stack([m_err, s_sup, g_nrm]), bounds, table)


#: Exponents of the ``besov_report`` seminorm scan.
BETA_GRID = tuple(round(0.1 * k, 3) for k in range(1, 11))


@dataclass(frozen=True)
class BesovReport:
    """Semi-norm scan over beta plus the fitted regularity exponent."""

    beta_grid: np.ndarray
    seminorms: np.ndarray
    fitted_alpha: float   # +inf for a constant field, which has no scale to fit
    fit_residual: float


def besov_report(field: ScalarField, p: float) -> BesovReport:
    """Seminorms over ``BETA_GRID`` and the fitted exponent, from one table
    over the dyadic shift ladder, which holds the fit's rungs."""
    ladder = dyadic_shift_ladder(field.grid)
    table = ModulusTable(field.grid, field.values, p, ladder, ())
    fit = fit_regularity(table)
    sems = np.array([table.sup(ladder, b) for b in BETA_GRID])
    # first differences cannot certify more than Lipschitz; cap the report
    alpha = fit.alpha if fit.degenerate else min(fit.alpha, 1.0)
    return BesovReport(np.asarray(BETA_GRID), sems, alpha, fit.residual)
