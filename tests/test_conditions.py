import math

import numpy as np
import pytest

from eulerlab.conditions import (
    L1Report,
    l1_report,
    make_bump_basis,
    oslip_discrete,
    oslip_weak_min_c,
    unit_directions,
)
from eulerlab.grid import PeriodicGrid


def _vel1d(grid, fn):
    return fn(grid.axis_centers())[None, :]


def _clamped_fan(grid, tau, u_max=1.0):
    x = grid.axis_centers()
    return np.clip(x / tau, -u_max, u_max)[None, :]


@pytest.fixture(scope="module")
def grid4k():
    return PeriodicGrid(1, 4096)


class TestWeakForm:
    def test_constant_velocity_gives_zero(self, grid4k):
        res = oslip_weak_min_c(grid4k, _vel1d(grid4k, lambda x: 0.7 + 0.0 * x))
        assert abs(res.min_c) < 1e-10

    def test_sine_approaches_derivative_sup(self, grid4k):
        vel = _vel1d(grid4k, lambda x: np.sin(np.pi * x))
        vals = []
        for level in (0, 1, 2):
            basis = make_bump_basis(grid4k, refine_level=level)
            vals.append(oslip_weak_min_c(grid4k, vel, basis=basis).min_c)
        assert vals[-1] == pytest.approx(np.pi, rel=0.05)
        # refinement takes the supremum over a growing family
        assert vals[0] <= vals[1] + 1e-14 <= vals[2] + 1e-14
        assert all(v <= np.pi + 1e-10 for v in vals)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_fan_slope_recovered(self, grid4k, tau):
        res = oslip_weak_min_c(grid4k, _clamped_fan(grid4k, tau))
        assert res.min_c == pytest.approx(1.0 / tau, rel=0.10)

    def test_empty_family_rejected(self, grid4k):
        vel = _vel1d(grid4k, lambda x: 0.0 * x)
        with pytest.raises(ValueError):
            oslip_weak_min_c(grid4k, vel, directions=[])

    def test_2d_recovers_gradient_quadratic_form_sup(self):
        grid = PeriodicGrid(2, 128)
        xx, yy = grid.coordinates()
        vel = np.stack([0.5 * np.sin(np.pi * xx), 0.25 * np.sin(np.pi * yy)])
        # diagonal gradient; sup over unit xi of xi.grad(u).xi = 0.5 pi
        res = oslip_weak_min_c(grid, vel, basis=make_bump_basis(grid, widths=(0.25, 0.125)))
        assert res.min_c == pytest.approx(0.5 * np.pi, rel=0.08)


class TestDiscrete:
    def test_constant_gives_zero(self, grid4k):
        res = oslip_discrete(grid4k, _vel1d(grid4k, lambda x: 1.3 + 0.0 * x))
        assert res.value == 0.0

    def test_compressive_sawtooth_dominated_by_wrap(self, grid4k):
        vel = _vel1d(grid4k, lambda x: -x)
        unmasked = oslip_discrete(grid4k, vel)
        masked = oslip_discrete(grid4k, vel, mask_wrap=True)
        assert unmasked.value > 100.0          # expansive wrap jump blows up
        assert masked.value == pytest.approx(-1.0, abs=1e-9)
        assert masked.masked_wrap

    def test_fan_slope(self, grid4k):
        res = oslip_discrete(grid4k, _clamped_fan(grid4k, 0.5))
        assert res.value == pytest.approx(2.0, rel=0.02)

    def test_upper_bounds_weak_constant(self, grid4k):
        vel = _vel1d(grid4k, lambda x: np.sin(np.pi * x) + 0.2 * np.sin(3 * np.pi * x))
        weak = oslip_weak_min_c(grid4k, vel).min_c
        disc = oslip_discrete(grid4k, vel).value
        assert disc >= weak - 4.0 * grid4k.cell_width

    def test_multi_step_and_2d(self):
        grid = PeriodicGrid(2, 64)
        xx, yy = grid.coordinates()
        vel = np.stack([0.3 * np.sin(np.pi * xx), 0.1 * np.sin(np.pi * yy)])
        res = oslip_discrete(grid, vel, steps=(1, 2))
        assert res.value == pytest.approx(0.3 * np.pi, rel=0.05)


class TestL1Report:
    def test_constant_rate(self):
        t = np.linspace(0.1, 1.0, 181)
        rep = l1_report(t, np.full_like(t, 2.5), delta=0.1)
        assert rep.l1_norm == pytest.approx(2.5 * 0.9, rel=1e-12)
        assert not rep.integrability_doubtful

    def test_inverse_time_closed_form(self):
        t = np.linspace(0.1, 1.0, 200001)
        rep = l1_report(t, 1.0 / t, delta=0.1)
        assert rep.l1_norm == pytest.approx(math.log(10.0), abs=1e-6)
        assert rep.fit_power == pytest.approx(1.0, abs=0.01)
        assert rep.integrability_doubtful

    def test_negative_parts_clipped(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = np.where(t < 0.5, -1.0, 1.0)
        rep = l1_report(t, vals, delta=0.0)
        assert rep.l1_norm == pytest.approx(0.55, rel=1e-9)

    def test_fit_skips_tau_zero(self):
        t = np.linspace(0.0, 1.0, 21)
        rep = l1_report(t, np.full_like(t, 2.0), delta=0.0)
        assert rep.l1_norm == pytest.approx(2.0, rel=1e-12)
        assert rep.fit_power == pytest.approx(0.0, abs=1e-12)
        assert rep.points_fitted == 5

    def test_needs_samples_past_delta(self):
        with pytest.raises(ValueError):
            l1_report(np.array([0.1]), np.array([1.0]), delta=0.05)


class TestDirections:
    def test_1d_both_signs(self):
        assert unit_directions(1) == [(1.0,), (-1.0,)]

    def test_2d_sixteen_equispaced(self):
        dirs = unit_directions(2)
        assert len(dirs) == 16
        for d in dirs:
            assert math.hypot(*d) == pytest.approx(1.0, rel=1e-12)
