import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import besov
from eulerlab.besov import (
    ModulusTable,
    MollifierRateReport,
    _diff_norm,
    besov_report,
    dyadic_shift_ladder,
    eps_scan,
    fit_regularity,
    seminorm,
    verify_mollifier_rates,
)
from eulerlab.errors import DomainError, ResolutionError
from eulerlab.grid import (
    PeriodicGrid,
    ScalarField,
    ball_offsets,
    constant_field,
    field_from_function,
    lp_norm,
    weierstrass_field,
)

EPS_SCAN = tuple(2.0 ** (-k) for k in range(4, 11))


def _fit_rungs(grid):
    """fit_regularity's rungs: the ladder's offsets whose largest component is
    a power of two up to a sixteenth of the period (one cell at the least)."""
    top = max(1, grid.cells_per_dim // 16)
    return [off for off in dyadic_shift_ladder(grid)
            if max(off) <= top and (max(off) & (max(off) - 1)) == 0]


def _fit(field, p):
    """The regularity fit from a table over the fit's own rungs only."""
    return fit_regularity(ModulusTable(field.grid, field.values, p, _fit_rungs(field.grid), ()))


class TestSeminorm:
    def test_constant_field_vanishes(self, grid256):
        f = constant_field(grid256, 2.5)
        ladder = dyadic_shift_ladder(grid256)
        for beta in (0.2, 0.5, 1.0):
            assert seminorm(f, beta, 3.0, ladder) == 0.0

    def test_sine_slope_one_matches_derivative_norm(self, grid8k):
        # ||sin(. + h) - sin||_p / h -> pi ||cos||_p for small lattice shifts
        f = field_from_function(grid8k, lambda x: np.sin(np.pi * x))
        val = seminorm(f, 1.0, 3.0, [(1,)])
        cos_norm = lp_norm(field_from_function(grid8k, lambda x: np.cos(np.pi * x)), 3.0)
        assert val == pytest.approx(np.pi * cos_norm, rel=1e-5)

    def test_empty_shift_set_rejected(self, grid256):
        with pytest.raises(ValueError):
            seminorm(constant_field(grid256, 1.0), 0.5, 2.0, [])

    def test_shift_beyond_quarter_period_rejected(self, grid256):
        with pytest.raises(ValueError):
            seminorm(constant_field(grid256, 1.0), 0.5, 2.0, [(100,)])

    def test_monotone_in_beta(self, weier8k, ladder8k):
        f = weier8k[0.6]
        vals = [seminorm(f, b, 3.0, ladder8k) for b in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=20, deadline=None)
    @given(extra=st.lists(st.integers(1, 64), min_size=1, max_size=4))
    def test_larger_shift_set_never_decreases(self, extra):
        grid = PeriodicGrid(1, 256)
        f = field_from_function(grid, lambda x: np.sin(np.pi * x) + 0.3 * np.cos(3 * np.pi * x))
        base = [(1,), (2,), (4,)]
        enlarged = sorted(set(base + [(c,) for c in extra]))
        assert seminorm(f, 0.5, 3.0, enlarged) >= seminorm(f, 0.5, 3.0, base)

    def test_scale_equivariance(self, grid256):
        rng = np.random.default_rng(11)
        f = ScalarField(grid256, rng.standard_normal(grid256.shape))
        g = ScalarField(grid256, 2.0 * f.values)
        ladder = dyadic_shift_ladder(grid256)
        for p in (1.0, 2.0, np.inf):
            assert seminorm(g, 0.5, p, ladder) == 2.0 * seminorm(f, 0.5, p, ladder)
        assert seminorm(g, 0.5, 3.0, ladder) == pytest.approx(
            2.0 * seminorm(f, 0.5, 3.0, ladder), rel=1e-14
        )

    def test_refinement_stability_weierstrass(self, weier8k):
        from eulerlab.grid import weierstrass_field

        coarse_grid = PeriodicGrid(1, 4096)
        coarse = weierstrass_field(0.6, 12, coarse_grid)
        s_fine = seminorm(weier8k[0.6], 0.6, 3.0, dyadic_shift_ladder(weier8k[0.6].grid))
        s_coarse = seminorm(coarse, 0.6, 3.0, dyadic_shift_ladder(coarse_grid))
        assert s_fine == pytest.approx(s_coarse, rel=0.10)


class TestFitRegularity:
    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
    def test_recovers_weierstrass_exponent(self, weier8k, alpha):
        fit = _fit(weier8k[alpha], 3.0)
        assert fit.alpha == pytest.approx(alpha, abs=0.05)

    def test_smooth_field_saturates_at_lipschitz(self, grid8k):
        f = field_from_function(grid8k, lambda x: np.sin(np.pi * x))
        fit = _fit(f, 3.0)
        assert fit.alpha == pytest.approx(1.0, abs=0.05)

    def test_step_function_scales_as_inverse_p(self, grid8k):
        f = field_from_function(grid8k, lambda x: np.where(np.abs(x) < 0.5, 1.0, 0.0))
        fit = _fit(f, 3.0)
        assert fit.alpha == pytest.approx(1.0 / 3.0, abs=0.02)
        # closed form: two unit jumps give ||Delta_h f||_3 = (2h)**(1/3)
        h = fit.lengths[3]
        assert fit.diff_norms[3] == pytest.approx((2.0 * h) ** (1.0 / 3.0), rel=1e-12)

    def test_constant_field_reports_degenerate(self, grid256):
        fit = _fit(constant_field(grid256, 1.0), 2.0)
        assert fit.degenerate and math.isinf(fit.alpha)

    def test_requires_three_octaves(self):
        # a 32-cell grid's fit ladder stops at two cells: shifts (1,) and (2,)
        f = field_from_function(PeriodicGrid(1, 32), lambda x: np.sin(np.pi * x))
        with pytest.raises(ValueError, match="3 octaves"):
            _fit(f, 2.0)

    @pytest.mark.parametrize("cells", [8, 15])
    def test_grid_under_sixteen_cells_is_too_coarse_not_a_math_error(self, cells):
        # a sixteenth of the period is under one cell, so the ladder holds one rung
        f = field_from_function(PeriodicGrid(1, cells), lambda x: np.sin(np.pi * x))
        with pytest.raises(ValueError, match=f"at least 128 cells per dimension, got {cells}"):
            _fit(f, 2.0)


@pytest.fixture(scope="module")
def scan8k(grid8k):
    return eps_scan(grid8k, [2.0 ** (-k) for k in range(4, 11)])


@pytest.fixture(scope="module")
def report(weier8k, scan8k) -> MollifierRateReport:
    return verify_mollifier_rates(weier8k[0.6], 0.6, 3.0, scan8k)


class TestMollifierRates:
    def test_mollify_rate_in_band(self, report, scan8k):
        assert 0.55 <= scan8k.slope(report.estimates[0]) <= 0.75

    def test_gradient_rate_in_band(self, report, scan8k):
        assert -0.45 <= scan8k.slope(report.estimates[2]) <= -0.25

    def test_one_sided_bounds_hold_everywhere(self, report):
        assert bool(np.all(report.bound_ok))

    def test_shift_modulus_tracks_mollify_error(self, report, scan8k):
        # both moduli decay at the same nominal rate
        assert scan8k.slope(report.estimates[1]) == pytest.approx(
            scan8k.slope(report.estimates[0]), abs=0.1)

    def test_smooth_field_gradient_stays_bounded(self, grid8k):
        f = field_from_function(grid8k, lambda x: np.sin(np.pi * x))
        eps = [2.0 ** (-k) for k in range(4, 9)]
        scan = eps_scan(grid8k, eps)
        rep = verify_mollifier_rates(f, 1.0, 3.0, scan)
        # one-sided estimate: bounded gradient certainly beats eps**(alpha-1)
        assert abs(scan.slope(rep.estimates[2])) < 0.1
        assert bool(np.all(rep.bound_ok[2]))

    def test_eps_below_resolution_raises(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        with pytest.raises(ResolutionError):
            verify_mollifier_rates(f, 1.0, 2.0, eps_scan(grid256, [grid256.cell_width]))

    def test_a_scan_on_another_grid_is_refused(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        with pytest.raises(ValueError, match="share one grid"):
            verify_mollifier_rates(f, 1.0, 2.0, eps_scan(PeriodicGrid(2, 256), [0.125]))

    def test_2d_bounds_hold(self):
        from eulerlab.grid import PeriodicGrid, weierstrass_field

        grid = PeriodicGrid(2, 64)
        f = weierstrass_field(0.6, 6, grid)
        rep = verify_mollifier_rates(f, 0.6, 3.0, eps_scan(grid, [0.125, 0.25, 0.5]))
        assert bool(np.all(rep.bound_ok))


def _oracle_shift_sup(field, eps, p):
    """The per-eps ball loop verify_mollifier_rates ran before `ball_sups`."""
    sup = 0.0
    for off in ball_offsets(field.grid, eps):
        sup = max(sup, _diff_norm(field, off, p))
    return sup


class TestEpsScan:
    def test_ascending_with_repeats_one_kernel_per_distinct_eps(self, grid256, monkeypatch):
        built = []
        real = besov.build_mollifier
        monkeypatch.setattr(besov, "build_mollifier",
                            lambda grid, e: built.append(e) or real(grid, e))
        scan = eps_scan(grid256, [0.25, 0.0625, 0.125, 0.0625])
        assert scan.eps.tolist() == [0.0625, 0.0625, 0.125, 0.25]
        assert sorted(built) == [0.0625, 0.125, 0.25]
        assert scan.mollifiers[0] is scan.mollifiers[1]
        for e, mol in zip(scan.eps, scan.mollifiers):
            alone = real(grid256, e)
            assert mol.epsilon == e and mol.grid == grid256
            assert np.array_equal(mol.offsets, alone.offsets)
            assert np.array_equal(mol.weights, alone.weights)

    def test_empty_scan(self, grid256):
        scan = eps_scan(grid256, [])
        assert scan.eps.size == 0 and scan.mollifiers == ()

    @pytest.mark.parametrize("count,window", [(7, slice(2, 5)), (4, slice(0, 4))])
    def test_slope_fits_the_asymptotic_window(self, grid8k, count, window):
        eps = [2.0 ** (-k) for k in range(4, 4 + count)]
        scan = eps_scan(grid8k, eps)
        values = [3.0 * e**0.6 * (1.0 + 0.1 * math.sin(7.0 * e)) for e in scan.eps]
        expected = np.polyfit(np.log(scan.eps[window]), np.log(values[window]), 1)[0]
        assert scan.slope(values).hex() == float(expected).hex()

    def test_a_series_of_zeros_on_the_window_has_slope_inf(self, grid8k):
        # as a constant field's regularity: log(0) warned and the fit gave nan
        scan = eps_scan(grid8k, [2.0 ** (-k) for k in range(4, 11)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan.slope(np.zeros(7)) == math.inf
            assert scan.slope([1.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0]) == math.inf


class TestBallSups:
    @pytest.mark.parametrize("dims,cells,eps_list", [
        (1, 8192, EPS_SCAN), (2, 64, (0.5, 0.25, 0.125, 0.0625)),
    ])
    def test_verify_mollifier_rates_matches_per_eps_loop(self, dims, cells, eps_list):
        f = weierstrass_field(0.6, 13, PeriodicGrid(dims, cells))
        # descending, with a repeat: the scan sorts them and keeps the repeat
        eps = list(eps_list) + [eps_list[2]]
        rep = verify_mollifier_rates(f, 0.6, 3.0, eps_scan(f.grid, eps))
        assert [v.hex() for v in rep.estimates[1].tolist()] == [
            _oracle_shift_sup(f, e, 3.0).hex() for e in sorted(eps)]

    def test_any_eps_order_and_empty_balls(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x) + np.abs(x))
        dx = grid256.cell_width
        eps = [0.1, 0.5 * dx, 0.0625, 0.1, 2.0 * dx, -1.0]    # 0.1 = 12.8 cells
        sups = ModulusTable(grid256, f.values, 3.0, (), eps).ball_sups(eps)
        resolved = [i for i, e in enumerate(eps) if e >= 2.0 * dx]
        assert [sups[i].hex() for i in resolved] == [
            _oracle_shift_sup(f, eps[i], 3.0).hex() for i in resolved]
        assert sups[4] == _diff_norm(f, (1,), 3.0)       # the ball {dx}
        assert sups[1].hex() == sups[5].hex() == "0x0.0p+0"   # empty balls
        assert ModulusTable(grid256, f.values, 3.0, (), []).ball_sups([]) == []

    def test_each_offset_is_evaluated_once(self, weier8k, monkeypatch):
        # the per-eps loop shifted 255 + 127 + ... + 3 = 501 times over EPS_SCAN,
        # a ladder and a ball of their own 22 + 255 = 277: 15 rungs lie in the ball
        calls = []
        real = besov.shift_values
        monkeypatch.setattr(besov, "shift_values",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        rep = verify_mollifier_rates(weier8k[0.6], 0.6, 3.0,
                                     eps_scan(weier8k[0.6].grid, EPS_SCAN))
        fit = fit_regularity(rep.table)      # the besov gate's fit: no second pass
        ladder = dyadic_shift_ladder(weier8k[0.6].grid)
        assert len(ladder) == 22 and set(_fit_rungs(weier8k[0.6].grid)) <= set(ladder)
        assert len(calls) == len(set(calls)) == 22 + 255 - 15 == 262
        alone = _fit(weier8k[0.6], 3.0)
        assert (fit.alpha.hex(), fit.residual.hex()) == (alone.alpha.hex(), alone.residual.hex())

    def test_a_ball_beyond_the_table_is_refused(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        table = ModulusTable(grid256, f.values, 3.0, dyadic_shift_ladder(grid256), [0.0625])
        assert table.ball_sups([0.0625, 0.03125]) == [
            _oracle_shift_sup(f, e, 3.0) for e in (0.0625, 0.03125)]
        with pytest.raises(ValueError, match="exceeds the table's ball"):
            table.ball_sups([0.125])

    @pytest.mark.parametrize("eps", [math.inf, 5.0])
    def test_a_radius_past_half_the_period_is_refused(self, eps):
        # the radius rule runs before the ball's cell bound int(eps / dx), which inf overflows
        grid = PeriodicGrid(1, 64)
        with pytest.raises(DomainError, match="exceeds half the period"):
            ModulusTable(grid, np.zeros(64), 3.0, (), [eps])
        f = weierstrass_field(0.6, 6, grid)
        with pytest.raises(DomainError, match="exceeds half the period"):
            verify_mollifier_rates(f, 0.6, 3.0, eps_scan(grid, [0.125, 0.25, eps]))


class TestReports:
    def test_besov_report_fields(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        rep = besov_report(f, 3.0)
        assert len(rep.seminorms) == len(rep.beta_grid)
        assert rep.fitted_alpha <= 1.0      # a constant field, with no scale, reads +inf
        assert np.all(np.diff(rep.seminorms) >= -1e-15)

    @pytest.mark.parametrize("p", [3.0, 2.5, np.inf])
    def test_besov_report_measures_each_offset_once(self, p, monkeypatch):
        # a 128^2 field: a 28-rung seminorm ladder that holds the 12 fit
        # shifts; ten per-beta seminorms made 12 + 10 * 28 = 292 calls, and a
        # fit of its own 12 + 28 = 40
        grid = PeriodicGrid(2, 128)
        f = weierstrass_field(0.55, 7, grid, phase=0.3)
        calls = []
        real = besov._diff_norm
        monkeypatch.setattr(besov, "_diff_norm",
                            lambda *a: calls.append(a[1]) or real(*a))
        rep = besov_report(f, p)
        fit_shifts = _fit_rungs(grid)
        ladder = dyadic_shift_ladder(grid)
        assert len(fit_shifts) == 12 and set(fit_shifts) <= set(ladder)
        assert calls == ladder and len(calls) == 28       # each rung once, in order
        monkeypatch.setattr(besov, "_diff_norm", real)
        assert [s.hex() for s in rep.seminorms.tolist()] == [
            seminorm(f, b, p, ladder).hex() for b in rep.beta_grid]
        fit = _fit(f, p)
        assert rep.fitted_alpha.hex() == min(fit.alpha, 1.0).hex()
        assert rep.fit_residual.hex() == fit.residual.hex()

    def test_besov_report_rejects_bad_beta(self, grid256):
        # the report's betas are fixed; each goes through seminorm's check
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        for beta in (0.0, 1.5, float("nan")):
            with pytest.raises(DomainError, match="beta must lie in"):
                seminorm(f, beta, 3.0, dyadic_shift_ladder(grid256))


class TestLadder:
    def test_ladder_respects_quarter_period(self, grid256):
        for off in dyadic_shift_ladder(grid256):
            assert max(abs(c) for c in off) <= grid256.cells_per_dim // 4

    def test_2d_ladder_has_diagonals(self, grid2d):
        offs = dyadic_shift_ladder(grid2d)
        assert (1, 1) in offs and (1, 0) in offs and (0, 1) in offs

    def test_rejects_bad_exponents(self, grid256, weier8k):
        with pytest.raises(DomainError):
            seminorm(constant_field(grid256, 1.0), 1.5, 2.0, [(1,)])
        with pytest.raises(DomainError):
            seminorm(constant_field(grid256, 1.0), 0.5, 0.5, [(1,)])

    def test_rejects_nan_p(self, grid256):
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        with pytest.raises(DomainError):
            seminorm(f, 0.5, float("nan"), [(1,)])
        with pytest.raises(DomainError):
            besov_report(f, float("nan"))
