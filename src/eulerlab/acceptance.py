"""Executable acceptance gates.

Each gate checks one quantitative contract of the laboratory at desk scale
and returns a PASS/FAIL verdict with the measured numbers.  The gates are
the single source of truth for both the ``accept`` CLI subcommand and the
acceptance test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from itertools import chain
from typing import Callable

import numpy as np

from . import besov as bz
from . import commutator as cm
from . import conditions as cd
from . import relentropy as re_
from . import weakform as wf
from .grid import PeriodicGrid, ScalarField, exact_sum, weierstrass_field
from .solver import SolverConfig, exact_trajectory, run
from .thermo import GasParams, tilde_pressure_derivatives, verify_gibbs, verify_p2

MEASUREMENT_GRID = 8192
MEASUREMENT_LEVELS = 13
EPS_SCAN = tuple(2.0 ** (-k) for k in range(4, 11))


@dataclass
class GateResult:
    name: str
    passed: bool
    details: str
    metrics: dict = dc_field(default_factory=dict)
    elapsed: float = math.nan     # seconds the gate took, set by run_all; not a metric

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def _measurement_grid() -> PeriodicGrid:
    return PeriodicGrid(1, MEASUREMENT_GRID)


def _weier(alpha: float, grid: PeriodicGrid, phase: float = 0.0) -> ScalarField:
    return weierstrass_field(alpha, MEASUREMENT_LEVELS, grid, phase)


#: Report names of the closure identities, in the order verify_gibbs and
#: verify_p2 return their residuals.
THERMO_IDENTITIES = ("gibbs_density_slot", "gibbs_temperature_slot", "ballistic_euler_identity",
                     "entropy_pressure_identity", "ballistic_temperature_slope")


def gate_thermo_identities(params: GasParams = GasParams(1.4)) -> GateResult:
    """Differential identities of the closure hold to 1e-10 closed-form."""
    rho = np.linspace(0.5, 2.0, 50)
    theta = np.linspace(0.5, 2.0, 50)
    rr, tt = np.meshgrid(rho, theta, indexing="ij")
    residuals = verify_gibbs(rr, tt, params) + verify_p2(rr, tt, params)
    per_identity = {k: float(np.max(r)) for k, r in zip(THERMO_IDENTITIES, residuals)}
    worst = max(per_identity.values())
    # second-order decay of the central-difference cross-check
    h = 1e-3
    coarse = verify_gibbs(1.3, 0.9, params, fd_step=h)[0]
    fine = verify_gibbs(1.3, 0.9, params, fd_step=h / 2)[0]
    ratio = float(coarse / fine)
    ok = worst <= 1e-10 and 3.0 < ratio < 5.0
    return GateResult(
        "thermo-identities",
        ok,
        f"max residual {worst:.2e} (<=1e-10), fd halving ratio {ratio:.2f} (~4)",
        {"max_residual": worst, "fd_ratio": ratio, **per_identity},
    )


def gate_tilde_pressure_convexity(params: GasParams = GasParams(1.4)) -> GateResult:
    """Hessian of the (rho, S) pressure is non-negative over the state box."""
    rho = np.linspace(0.25, 4.0, 50)
    s_tot = np.linspace(-2.0, 2.0, 50)
    rr, ss = np.meshgrid(rho, s_tot, indexing="ij")
    _, _, hess = tilde_pressure_derivatives(rr, ss, params)
    eigs = np.linalg.eigvalsh(np.moveaxis(hess, (0, 1), (-2, -1)))
    min_eig = float(np.min(eigs))
    ok = min_eig >= -1e-10
    return GateResult(
        "tilde-pressure-convexity",
        ok,
        f"min Hessian eigenvalue {min_eig:.3e} (>= -1e-10) on [0.25,4]x[-2,2]",
        {"min_eigenvalue": min_eig},
    )


def gate_besov_machinery() -> GateResult:
    """Exponent recovery within 0.1 and one-sided mollifier estimates."""
    grid = _measurement_grid()
    scan = bz.eps_scan(grid, EPS_SCAN)
    metrics: dict = {}
    ok = True
    details = []
    for alpha in (0.4, 0.6, 0.8):
        f = _weier(alpha, grid)
        rep = bz.verify_mollifier_rates(f, alpha, 3.0, scan)
        fit = bz.fit_regularity(rep.table)
        fit_ok = abs(fit.alpha - alpha) <= 0.1
        bounds_ok = bool(np.all(rep.bound_ok))
        ok = ok and fit_ok and bounds_ok
        metrics[f"fitted_alpha_{alpha}"] = fit.alpha
        metrics[f"bounds_ok_{alpha}"] = bounds_ok
        bounds = f"bounds {bounds_ok}"
        if not bounds_ok:
            # the first failing estimate, at its smallest failing eps (the scan ascends)
            row, col = np.argwhere(~rep.bound_ok)[0]
            ratio = rep.estimates[row, col] / rep.bounds[row, col]
            bounds = (f"{bz.ESTIMATES[row]} bound first fails at eps "
                      f"2^{math.log2(scan.eps[col]):g}: norm / bound {ratio:.3f}")
        details.append(f"a={alpha}: fit {fit.alpha:.3f}, {bounds}")
    return GateResult("besov-machinery", ok, "; ".join(details), metrics)


def gate_chain_commutator() -> GateResult:
    """Chain-rule commutator rates and one-sided bounds for two probes."""
    grid = _measurement_grid()
    scan = bz.eps_scan(grid, EPS_SCAN)
    f06 = _weier(0.6, grid)
    probe1 = cm.CommutatorProbe((f06,), (0.6,), cm.get_gmap("square"), 4.0, scan)
    fit1 = cm.chain_rate_fit(probe1)
    f04 = _weier(0.4, grid)
    f08 = _weier(0.8, grid, phase=1.0)
    probe2 = cm.CommutatorProbe((f04, f08), (0.4, 0.8), cm.get_gmap("product"), 4.0, scan)
    fit2 = cm.chain_rate_fit(probe2)
    split_gap = float(fit1.split_gaps[scan.eps == 2.0**-6][0])
    ok = fit1.passed and fit2.passed and split_gap <= 1e-12
    details = (
        f"square a=0.6: slope {fit1.slope:.3f} (>= {fit1.predicted - 0.1:.2f}); "
        f"product a=(0.4,0.8): slope {fit2.slope:.3f} (>= {fit2.predicted - 0.1:.2f}); "
        f"split gap {split_gap:.1e}"
    )
    # the first failing eps of the first probe whose one-sided bound fails (eps ascend)
    slack = cm.CHAIN_BOUND_SLACK
    broken = next(((label, eps, n / ((1.0 + slack) * b))
                   for label, fit in (("square", fit1), ("product", fit2))
                   for eps, n, b, good in zip(scan.eps, fit.norms, fit.bounds, fit.bound_ok)
                   if not good), None)
    if broken is not None:
        label, eps, ratio = broken
        details += (f"; {label} one-sided bound with slack {slack:g} first fails "
                    f"at eps 2^{math.log2(eps):g}: norm / bound {ratio:.3f}")
    return GateResult(
        "chain-commutator", ok, details,
        {"slope_square": fit1.slope, "slope_product": fit2.slope,
         "split_gap": split_gap},
    )


def gate_product_commutators() -> GateResult:
    """Bilinear and trilinear mollification commutator decay rates."""
    grid = _measurement_grid()
    alpha = 0.4
    rho = ScalarField(grid, 1.5 + 0.25 * _weier(alpha, grid).values / 3.0)
    u = _weier(alpha, grid, phase=0.7)
    scan = bz.eps_scan(grid, EPS_SCAN)
    s2, res2 = cm.product_rate_fit(rho, u, scan, kind="bilinear")
    s3, res3 = cm.product_rate_fit(rho, u, scan, kind="triple")
    # the results run in ascending eps, as the scan does
    broken = next(((kind, eps, r) for kind, res in (("bilinear", res2), ("triple", res3))
                   for eps, r in zip(scan.eps, res) if not r.norm <= r.bound), None)
    # |Pi_eps|, the energy-flux pairing of the alpha > 1/3 theorem, scales like eps^(3 alpha - 1)
    s_pi = scan.slope(np.abs([r.flux_pairing for r in res3]))
    ok = bool(s2 >= 2 * alpha - 0.1 and min(s3, s_pi) >= 3 * alpha - 1.0 - 0.1
              and broken is None)
    bound = "proven modulus bound"
    if broken is None:
        bound += " at every eps"
    else:
        kind, eps, r = broken
        bound = (f"{kind} {bound} first fails at eps 2^{math.log2(eps):g}: "
                 f"norm / bound {r.norm / r.bound:.3f}")
    details = (
        f"bilinear slope {s2:.3f} (>= {2 * alpha - 0.1:.2f}), "
        f"triple slope {s3:.3f} (>= {3 * alpha - 1.0 - 0.1:.2f}), "
        f"flux pairing slope {s_pi:.3f} (>= {3 * alpha - 1.0 - 0.1:.2f}), {bound}"
    )
    return GateResult("product-commutators", ok, details,
                      {"bilinear_slope": s2, "triple_slope": s3, "flux_pairing_slope": s_pi,
                       "bilinear_bound_ratio": max(r.norm / r.bound for r in res2),
                       "triple_bound_ratio": max(r.norm / r.bound for r in res3)})


#: Points per block of the relative-entropy gate's sample check: 64 kB per
#: array, so the scan's footprint does not grow with the sample count.
CALIBRATION_BLOCK = 2**13


def gate_relative_entropy() -> GateResult:
    """Exact vanishing at equality; positivity and coercivity on samples."""
    params = GasParams(1.4)
    dens = re_.rel_entropy_terms((1.37, 0.41, 0.82), (1.37, 0.41, 0.82), params)
    exact_zero = dens == 0.0
    box = re_.StateBox(0.5, 2.0, 0.5, 2.0)
    c = re_.calibrate_coercivity(box, params)
    n = 100_000
    ranges = ((0.5, 2.0), (0.5, 2.0), (-1, 1), (0.5, 2.0), (-1, 1), (0.5, 2.0))

    def uniform(start):
        size = min(CALIBRATION_BLOCK, n - start)
        # entries [start, start + size) of default_rng(31337)'s six uniform(n)
        # draws in turn: one double per draw, so the j-th skips j * n + start
        return [np.random.Generator(np.random.PCG64(31337).advance(j * n + start))
                .uniform(lo, hi, size) for j, (lo, hi) in enumerate(ranges)]

    # the corner where the bound is sharp: rho = rho_max against r just below
    # it, both at theta_min, at rest
    top, cold, rest = np.full(3, box.rho_max), np.full(3, box.theta_min), np.zeros(3)
    corner = [top, cold, rest, top - [0.1, 0.01, 0.001], rest, cold]
    densities, gaps, ratios = [], [], []
    blocks = chain(map(uniform, range(0, n, CALIBRATION_BLOCK)), [corner])
    for r, theta, vel, r_ref, u_ref, t_ref in blocks:
        gap = re_.coercivity_gap((r, vel, theta), (r_ref, u_ref, t_ref), box, params)
        gaps.append(np.min(gap.gap))
        densities.append(np.min(gap.density))
        ratios.append(np.min(gap.density / gap.lower_form))
    min_density, min_gap, min_ratio = (float(np.min(v)) for v in (densities, gaps, ratios))
    ok = bool(exact_zero and min_density >= 0.0 and min_gap >= 0.0)
    details = (
        f"equality value {dens:.1e} (exact 0), min E {min_density:.2e}, "
        f"min coercivity gap {min_gap:.2e} with C={c:.3f} (min E/quad {min_ratio:.5f}) "
        f"on 1e5 samples and 3 corner states"
    )
    return GateResult(
        "relative-entropy", ok, details,
        {"c_hat": c, "min_density": min_density, "min_gap": min_gap, "min_ratio": min_ratio},
    )


def gate_solver_shock_tube() -> GateResult:
    """Shock-tube accuracy, conservation, and the entropy-production sign."""
    params = GasParams(1.4)
    grid = PeriodicGrid(1, 1024)
    cfg = SolverConfig(grid=grid, params=params, t_end=0.2, init={"name": "sod"},
                       snapshot_stride=0.004)
    traj = run(cfg)
    rho_ex = exact_trajectory(cfg, [0.2]).snapshots[0].rho
    l1 = exact_sum(np.abs(traj.snapshots[-1].rho - rho_ex)) * grid.cell_width
    vol = grid.cell_volume
    mass0 = vol * exact_sum(traj.snapshots[0].rho)
    mass1 = vol * exact_sum(traj.snapshots[-1].rho)
    e0 = vol * exact_sum(traj.snapshots[0].energy)
    e1 = vol * exact_sum(traj.snapshots[-1].energy)
    d_mass = abs(mass1 - mass0) / mass0
    d_energy = abs(e1 - e0) / e0
    tol = wf.entropy_production_tol(grid)
    *productions, shock_prod = wf.entropy_production(
        traj, wf.shock_tracking_bumps(traj) + [wf.bump_test(0.25, 0.15, 0.05, 0.19)])
    admissible = all(p >= -tol for p in productions)
    ok = bool(l1 < 0.05 and d_mass < 1e-10 and d_energy < 1e-10 and admissible
              and shock_prod > 0.0)
    details = (
        f"L1 density error {l1:.4f} (<0.05), mass drift {d_mass:.1e}, "
        f"energy drift {d_energy:.1e}, productions >= -{tol:.1e}: {admissible}, "
        f"shock production {shock_prod:.2e} > 0"
    )
    return GateResult(
        "solver-shock-tube", ok, details,
        {"l1_error": l1, "mass_drift": d_mass, "energy_drift": d_energy,
         "shock_production": shock_prod},
    )


def gate_gronwall_refinement() -> GateResult:
    """Stability under refinement with the measured Gronwall budget."""
    params = GasParams(1.4)
    init = {"name": "double_rarefaction"}
    stride = 0.05
    trajs = {}
    for n in (512, 1024, 2048):
        cfg = SolverConfig(grid=PeriodicGrid(1, n), params=params, t_end=1.0,
                           init=init, snapshot_stride=stride)
        trajs[n] = run(cfg)
    trace = re_.gronwall_monitor(trajs[512], trajs[1024], sigma=0.1)
    check = re_.gronwall_envelope_check(trace)
    e_terminal_coarse = trace.integral[-1]
    trace_fine = re_.gronwall_monitor(trajs[1024], trajs[2048], sigma=0.1)
    e_terminal_fine = trace_fine.integral[-1]
    shrink = float(e_terminal_coarse / e_terminal_fine)
    ok = bool(check.ok and shrink >= 1.5)
    details = (
        f"envelope holds on [0.1,1]: {check.ok} (utilization {check.utilization:.2f}"
        f"{check.where_broken}), terminal integral shrink x{shrink:.2f} (>=1.5)"
    )
    return GateResult(
        "gronwall-refinement", ok, details,
        {"utilization": check.utilization, "shrink": shrink,
         "kappa": re_.KAPPA_STRUCT},
    )


def gate_one_sided_lipschitz() -> GateResult:
    """Fan constant against the exact slope plus closed-form L1 checks."""
    grid = PeriodicGrid(1, 4096)
    x = grid.axis_centers()
    taus = np.linspace(0.1, 1.0, 10)
    worst_rel = 0.0
    basis = cd.make_bump_basis(grid)
    for tau in taus:
        vel = np.clip(x / tau, -1.0, 1.0)[None, :]
        res = cd.oslip_weak_min_c(grid, vel, basis=basis)
        worst_rel = max(worst_rel, abs(res.min_c - 1.0 / tau) * tau)
    t = np.linspace(0.1, 1.0, 181)
    rep_const = cd.l1_report(t, np.full_like(t, 2.5), delta=0.1)
    err_const = abs(rep_const.l1_norm - 2.5 * 0.9)
    t_dense = np.linspace(0.1, 1.0, 20001)
    rep_inv = cd.l1_report(t_dense, 1.0 / t_dense, delta=0.1)
    err_inv = abs(rep_inv.l1_norm - math.log(10.0))
    ok = bool(worst_rel <= 0.10 and err_const <= 1e-6 and err_inv <= 1e-6
              and rep_inv.integrability_doubtful)
    details = (
        f"fan constant within {worst_rel:.2%} of 1/tau on [0.1,1]; "
        f"L1 closed-form errors {err_const:.1e}, {err_inv:.1e} (<=1e-6); "
        f"1/tau flagged doubtful: {rep_inv.integrability_doubtful}"
    )
    return GateResult(
        "one-sided-lipschitz", ok, details,
        {"worst_fan_rel_err": worst_rel, "l1_err_const": err_const,
         "l1_err_inverse": err_inv},
    )


GATES: list[Callable[[], GateResult]] = [
    gate_thermo_identities,
    gate_tilde_pressure_convexity,
    gate_besov_machinery,
    gate_chain_commutator,
    gate_product_commutators,
    gate_relative_entropy,
    gate_solver_shock_tube,
    gate_gronwall_refinement,
    gate_one_sided_lipschitz,
]


def run_all(echo: Callable[[str], None] | None = None) -> list[GateResult]:
    results = []
    for gate in GATES:
        start = time.perf_counter()
        result = gate()
        result.elapsed = time.perf_counter() - start
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
