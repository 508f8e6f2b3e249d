import numpy as np
import pytest

from eulerlab.grid import PeriodicGrid
from eulerlab.solver import SolverConfig, run
from eulerlab.thermo import GasParams
from eulerlab.weakform import (
    bump_test,
    entropy_production,
    entropy_production_tol,
    shock_tracking_bumps,
    weak_residual,
)


def _traj(n=128, t_end=0.1, init=None, stride=None, dims=1):
    cfg = SolverConfig(
        grid=PeriodicGrid(dims, n),
        params=GasParams(1.4),
        t_end=t_end,
        init=init or {"name": "sod"},
        snapshot_stride=stride if stride is not None else t_end / 20,
    )
    return run(cfg)


class TestWeakResidual:
    def test_constant_state_residual_is_quadrature_exact(self):
        traj = _traj(n=64, t_end=0.1, init={"name": "constant", "rho": 1.2,
                                            "u": 0.3, "theta": 0.8})
        test = bump_test(0.2, 0.3, 0.01, 0.09)
        for which in ("mass", "momentum", "energy"):
            assert abs(weak_residual(traj, test, which)) < 1e-12

    def test_time_independent_test_on_smooth_flow(self):
        # contact-only advection: the balance integrand is exact, residuals
        # reduce to quadrature error of the smooth integrand; the bump spans
        # the whole domain and the whole run
        traj = _traj(n=256, t_end=0.2, init={"name": "advection"}, stride=0.005)
        res = weak_residual(traj, bump_test(0.0, 1.0, 0.0, 0.2), "mass")
        assert abs(res) < 2e-3

    @pytest.mark.parametrize("which", ["mass", "momentum", "energy"])
    def test_shock_tube_residual_refines(self, which):
        test = bump_test(0.1, 0.4, 0.02, 0.13)
        res_n = weak_residual(_traj(n=128, t_end=0.15, stride=0.003), test, which)
        res_2n = weak_residual(_traj(n=256, t_end=0.15, stride=0.0015), test, which)
        assert abs(res_n) / abs(res_2n) >= 1.5

    def test_momentum_component_2d(self):
        traj = _traj(n=16, t_end=0.02, dims=2, stride=0.005)
        test = bump_test((0.1, 0.0), 0.4, 0.002, 0.018)
        r1 = weak_residual(traj, test, "momentum1")
        r2 = weak_residual(traj, test, "momentum2")
        assert np.isfinite(r1) and np.isfinite(r2)
        # no transverse dynamics: the second momentum balance is trivial
        assert abs(r2) <= abs(r1) + 1e-12


class TestEntropyProduction:
    def test_smooth_flow_production_within_tolerance(self):
        traj = _traj(n=256, t_end=0.1, init={"name": "isentropic_smooth",
                                             "u_amp": 0.05}, stride=0.002)
        test = bump_test(0.0, 0.5, 0.01, 0.09)
        prod = entropy_production(traj, test)
        assert abs(prod) <= entropy_production_tol(traj.grid)

    def test_shock_produces_positive_entropy(self):
        traj = _traj(n=512, t_end=0.2, stride=0.004)
        # the 3-shock crosses x ~ 0.13..0.51 during the time bump window
        test = bump_test(0.25, 0.15, 0.05, 0.19)
        prod = entropy_production(traj, test)
        assert prod > 1e-4

    def test_all_bumps_admissible_on_shock_tube(self):
        traj = _traj(n=256, t_end=0.15, stride=0.003)
        tol = entropy_production_tol(traj.grid)
        for test in shock_tracking_bumps(traj):
            assert entropy_production(traj, test) >= -tol

    def test_rarefaction_production_vanishes_under_refinement(self):
        # bump centered on the fan, away from the compressive wrap jump
        vals = {}
        for n in (128, 256):
            traj = _traj(n=n, t_end=0.3, stride=0.01,
                         init={"name": "double_rarefaction"})
            test = bump_test(0.0, 0.2, 0.05, 0.28)
            vals[n] = abs(entropy_production(traj, test))
        assert vals[256] < vals[128]

    def test_rejects_signed_test_functions(self):
        traj = _traj(n=64, t_end=0.05, stride=0.01)
        with pytest.raises(ValueError):
            entropy_production(traj, bump_test(0.0, 0.5, 0.01, 0.04, nonneg=False))
