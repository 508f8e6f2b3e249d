import math

import numpy as np
import pytest

from eulerlab.errors import DomainError
from eulerlab.thermo import (
    GasParams,
    ballistic_drho,
    ballistic_free_energy,
    entropy,
    internal_energy,
    pressure,
    tilde_pressure_derivatives,
    verify_gibbs,
    verify_p2,
)


class TestGasParams:
    def test_cv_is_derived(self):
        for g in (1.1, 1.4, 2.0, 5.0 / 3.0):
            params = GasParams(g)
            assert params.cv * (g - 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, float("nan")])
    def test_rejects_non_physical_gamma(self, bad):
        with pytest.raises(DomainError):
            GasParams(bad)


class TestClosures:
    @pytest.mark.parametrize("rho,theta,expected", [(1, 1, 1), (2, 3, 6), (0.5, 4, 2)])
    def test_pressure(self, gamma2, rho, theta, expected):
        assert pressure(rho, theta, gamma2) == expected

    def test_internal_energy(self, gamma2, gamma14):
        assert internal_energy(1.0, gamma2) == 1.0
        assert internal_energy(3.0, gamma2) == 3.0
        assert internal_energy(2.0, gamma14) == pytest.approx(5.0, rel=1e-15)

    def test_entropy(self, gamma2):
        assert entropy(1.0, 1.0, gamma2) == 0.0
        assert entropy(1.0, math.e, gamma2) == pytest.approx(1.0, rel=1e-15)
        assert entropy(math.e, 1.0, gamma2) == pytest.approx(-1.0, rel=1e-15)

    def test_ballistic_free_energy(self, gamma2):
        assert ballistic_free_energy(1, 1, 1, gamma2) == 1.0
        assert ballistic_free_energy(1, 1, 2, gamma2) == 1.0
        expected = 2.0 + 2.0 * math.log(2.0)
        assert ballistic_free_energy(2, 1, 1, gamma2) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("fn", [pressure, entropy])
    def test_domain_errors(self, gamma2, fn):
        with pytest.raises(DomainError):
            fn(-1.0, 1.0, gamma2)
        with pytest.raises(DomainError):
            fn(1.0, 0.0, gamma2)


def _tilde_pressure(rho, s_tot, params):
    return tilde_pressure_derivatives(rho, s_tot, params)[0]


def _fd_hessian(rho, s_tot, params, h=1e-5):
    # Jacobian of the (independently validated) gradient by central
    # differences; direct second differences of the value would sit on the
    # eps/h**2 roundoff floor at this step.
    def grad(r, s):
        return tilde_pressure_derivatives(r, s, params)[1]

    col_r = (grad(rho + h, s_tot) - grad(rho - h, s_tot)) / (2 * h)
    col_s = (grad(rho, s_tot + h) - grad(rho, s_tot - h)) / (2 * h)
    return np.stack([col_r, col_s], axis=1)


class TestTildePressure:
    @pytest.mark.parametrize("rho,s_tot,expected", [(1, 0, 1), (2, 0, 4)])
    def test_values(self, gamma2, rho, s_tot, expected):
        assert _tilde_pressure(rho, s_tot, gamma2) == pytest.approx(expected, rel=1e-14)

    def test_psd_at_origin_state(self, gamma2):
        _, _, hess = tilde_pressure_derivatives(1.0, 0.0, gamma2)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.min() >= -1e-10

    @pytest.mark.parametrize("gamma", [1.4, 2.0])
    @pytest.mark.parametrize("point", [(1.0, 0.0), (0.7, -0.5), (2.5, 1.2)])
    def test_hessian_against_finite_differences(self, gamma, point):
        params = GasParams(gamma)
        rho, s_tot = point
        _, _, hess = tilde_pressure_derivatives(rho, s_tot, params)
        fd = _fd_hessian(rho, s_tot, params)
        assert np.max(np.abs(hess - fd)) < 1e-6

    def test_gradient_against_finite_differences(self, gamma14):
        rho, s_tot, h = 1.3, 0.4, 1e-6
        _, grad, _ = tilde_pressure_derivatives(rho, s_tot, gamma14)
        fd_r = (
            _tilde_pressure(rho + h, s_tot, gamma14) - _tilde_pressure(rho - h, s_tot, gamma14)
        ) / (2 * h)
        fd_s = (
            _tilde_pressure(rho, s_tot + h, gamma14) - _tilde_pressure(rho, s_tot - h, gamma14)
        ) / (2 * h)
        assert grad[0] == pytest.approx(fd_r, rel=1e-8)
        assert grad[1] == pytest.approx(fd_s, rel=1e-8)

    def test_psd_over_state_box(self, gamma14):
        rhos = np.linspace(0.25, 4.0, 50)
        stots = np.linspace(-2.0, 2.0, 50)
        rr, ss = np.meshgrid(rhos, stots, indexing="ij")
        _, _, hess = tilde_pressure_derivatives(rr, ss, gamma14)
        hmat = np.moveaxis(hess, (0, 1), (-2, -1))
        eigs = np.linalg.eigvalsh(hmat)
        assert eigs.min() >= -1e-10


class TestIdentities:
    def test_gibbs_exact_at_unit_state(self, gamma2):
        r1, r2 = verify_gibbs(1.0, 1.0, gamma2)
        assert r1 == 0.0 and r2 == 0.0

    def test_gibbs_analytic_everywhere(self, gamma14):
        r1, r2 = verify_gibbs(2.0, 3.0, gamma14)
        assert max(r1, r2) < 1e-10

    def test_gibbs_fd_residual_is_second_order(self, gamma14):
        h = 1e-3
        coarse = verify_gibbs(1.3, 0.9, gamma14, fd_step=h)
        fine = verify_gibbs(1.3, 0.9, gamma14, fd_step=h / 2)
        ratio = coarse[0] / fine[0]
        assert 3.0 < ratio < 5.0

    def test_p2_exact_at_unit_state(self, gamma2):
        assert verify_p2(1.0, 1.0, gamma2) == (0.0, 0.0, 0.0)

    def test_p2_analytic_over_box(self, gamma14):
        rng = np.random.default_rng(7)
        r = rng.uniform(0.5, 2.0, size=300)
        t = rng.uniform(0.5, 2.0, size=300)
        residuals = verify_p2(r, t, gamma14)
        assert max(np.max(res) for res in residuals) < 1e-10

    def test_p2_fd_cross_check(self, gamma2):
        res = verify_p2(1.4, 0.8, gamma2, fd_step=1e-6)
        assert max(np.max(r) for r in res) < 1e-6

    def test_ballistic_slope_vanishing_entropy(self, gamma2):
        # dH/dT = -r*s vanishes at the unit state where s = 0
        assert -1.0 * entropy(1.0, 1.0, gamma2) == 0.0
        assert ballistic_drho(1.0, 1.0, gamma2) == pytest.approx(2.0, rel=1e-15)

