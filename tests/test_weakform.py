import numpy as np
import pytest

from eulerlab import weakform
from eulerlab.grid import PeriodicGrid, exact_sum, grad_values, time_trapezoid
from eulerlab.solver import SolverConfig, run
from eulerlab.thermo import GasParams
from eulerlab.weakform import (
    _fields,
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


def _oracle_weak_residual(traj, test, which):
    """One test's residual with every snapshot's fields formed for it alone:
    the reference ``weak_residual`` must match bit for bit."""
    grid = traj.grid
    X = grid.coordinates()
    vol = grid.cell_volume
    times = traj.times
    phis = [test(t, X) * np.ones(grid.shape) for t in times]
    qs, flux_series = [], []
    for snap in traj.snapshots:
        q, flux = _fields(snap, traj.params, which)
        qs.append(q)
        gphi = grad_values(phis[len(qs) - 1], grid.cell_width)
        integrand = np.zeros(grid.shape)
        for ax in range(grid.dims):
            integrand = integrand + flux[ax] * gphi[ax]
        flux_series.append(vol * exact_sum(integrand))
    interior = float(time_trapezoid(times, flux_series)[1][-1])
    for j in range(1, len(times)):
        q_mid = 0.5 * (qs[j] + qs[j - 1])
        interior += vol * exact_sum(q_mid * (phis[j] - phis[j - 1]))
    boundary = vol * exact_sum(qs[-1] * phis[-1]) - vol * exact_sum(qs[0] * phis[0])
    return interior - boundary


def _hex(values):
    return [float(v).hex() for v in values]


class TestWeakResidual:
    def test_constant_state_residual_is_quadrature_exact(self):
        traj = _traj(n=64, t_end=0.1, init={"name": "constant", "rho": 1.2,
                                            "u": 0.3, "theta": 0.8})
        test = bump_test(0.2, 0.3, 0.01, 0.09)
        for which in ("mass", "momentum", "energy"):
            assert abs(weak_residual(traj, [test], which)[0]) < 1e-12

    def test_time_independent_test_on_smooth_flow(self):
        # contact-only advection: the balance integrand is exact, residuals
        # reduce to quadrature error of the smooth integrand; the bump spans
        # the whole domain and the whole run
        traj = _traj(n=256, t_end=0.2, init={"name": "advection"}, stride=0.005)
        [res] = weak_residual(traj, [bump_test(0.0, 1.0, 0.0, 0.2)], "mass")
        assert abs(res) < 2e-3

    @pytest.mark.parametrize("which", ["mass", "momentum", "energy"])
    def test_shock_tube_residual_refines(self, which):
        test = bump_test(0.1, 0.4, 0.02, 0.13)
        [res_n] = weak_residual(_traj(n=128, t_end=0.15, stride=0.003), [test], which)
        [res_2n] = weak_residual(_traj(n=256, t_end=0.15, stride=0.0015), [test], which)
        assert abs(res_n) / abs(res_2n) >= 1.5

    def test_momentum_component_2d(self):
        traj = _traj(n=16, t_end=0.02, dims=2, stride=0.005)
        test = bump_test((0.1, 0.0), 0.4, 0.002, 0.018)
        [r1] = weak_residual(traj, [test], "momentum1")
        [r2] = weak_residual(traj, [test], "momentum2")
        assert np.isfinite(r1) and np.isfinite(r2)
        # no transverse dynamics: the second momentum balance is trivial
        assert abs(r2) <= abs(r1) + 1e-12


class TestEntropyProduction:
    def test_smooth_flow_production_within_tolerance(self):
        traj = _traj(n=256, t_end=0.1, init={"name": "isentropic_smooth",
                                             "u_amp": 0.05}, stride=0.002)
        test = bump_test(0.0, 0.5, 0.01, 0.09)
        [prod] = entropy_production(traj, [test])
        assert abs(prod) <= entropy_production_tol(traj.grid)

    def test_shock_produces_positive_entropy(self):
        traj = _traj(n=512, t_end=0.2, stride=0.004)
        # the 3-shock crosses x ~ 0.13..0.51 during the time bump window
        test = bump_test(0.25, 0.15, 0.05, 0.19)
        [prod] = entropy_production(traj, [test])
        assert prod > 1e-4

    def test_all_bumps_admissible_on_shock_tube(self):
        traj = _traj(n=256, t_end=0.15, stride=0.003)
        tol = entropy_production_tol(traj.grid)
        for prod in entropy_production(traj, shock_tracking_bumps(traj)):
            assert prod >= -tol

    def test_rarefaction_production_vanishes_under_refinement(self):
        # bump centered on the fan, away from the compressive wrap jump
        vals = {}
        for n in (128, 256):
            traj = _traj(n=n, t_end=0.3, stride=0.01,
                         init={"name": "double_rarefaction"})
            test = bump_test(0.0, 0.2, 0.05, 0.28)
            vals[n] = abs(entropy_production(traj, [test])[0])
        assert vals[256] < vals[128]



class TestOnePass:
    def test_shock_tube_gate_bumps_match_the_per_test_loop(self):
        traj = _traj(n=256, t_end=0.2, stride=0.004)
        tests = shock_tracking_bumps(traj) + [bump_test(0.25, 0.15, 0.05, 0.19)]
        got = entropy_production(traj, tests)
        assert _hex(got) == _hex(-_oracle_weak_residual(traj, t, "entropy") for t in tests)

    def test_bump_between_snapshots_keeps_the_signed_zero(self):
        # the time support (0.011, 0.019) holds no snapshot of the 0.01 stride
        traj = _traj(n=64, t_end=0.05, stride=0.01)
        test = bump_test(0.0, 0.5, 0.011, 0.019)
        oracle = _oracle_weak_residual(traj, test, "entropy")
        assert oracle == 0.0
        assert _hex(weak_residual(traj, [test], "entropy")) == _hex([oracle])
        assert _hex(entropy_production(traj, [test])) == _hex([-oracle])

    @pytest.mark.parametrize("which", ["mass", "momentum1", "momentum2", "energy", "entropy"])
    def test_2d_balances_match_the_per_test_loop(self, which):
        traj = _traj(n=16, t_end=0.02, dims=2, stride=0.005,
                     init={"name": "sod", "transverse": 0.1})
        tests = [bump_test((0.1, 0.0), 0.4, 0.002, 0.018),
                 bump_test((-0.3, 0.2), 0.6, 0.0, 0.02)]
        assert _hex(weak_residual(traj, tests, which)) == _hex(
            _oracle_weak_residual(traj, t, which) for t in tests)

    def test_fields_are_formed_once_per_snapshot(self, monkeypatch):
        traj = _traj(n=64, t_end=0.05, stride=0.005)
        seen = []

        def counted(snap, params, which):
            seen.append(snap)
            return _fields(snap, params, which)

        monkeypatch.setattr(weakform, "_fields", counted)
        tests = shock_tracking_bumps(traj) + [bump_test(0.25, 0.15, 0.01, 0.04)]
        assert len(entropy_production(traj, tests)) == 9
        assert [id(s) for s in seen] == [id(s) for s in traj.snapshots]
