import functools
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from eulerlab import acceptance, besov
from eulerlab.besov import dyadic_shift_ladder, eps_scan, seminorm
from eulerlab.commutator import (
    C0_PRODUCT,
    CommutatorProbe,
    GMap,
    ProductCommutatorResult,
    bilinear_commutator,
    calibrate_c0,
    chain_commutator,
    chain_rate_fit,
    get_gmap,
    gmap_pressure_tilde,
    product_rate_fit,
    triple_commutator,
)
from eulerlab.errors import DomainError
from eulerlab.grid import (
    PeriodicGrid,
    ScalarField,
    VectorField,
    ball_offsets,
    build_mollifier,
    constant_field,
    exact_sum,
    field_from_function,
    grad_values,
    lp_norm,
    lp_norm_values,
    mollify_values,
    shift_values,
)
from eulerlab.thermo import GasParams, tilde_pressure_derivatives

EPS_SCAN = tuple(2.0 ** (-k) for k in range(4, 11))


def _linear_gmap():
    return GMap(1, lambda y: np.stack([3.0 + 0.0 * y[0]]), lambda hull: {(2,): 0.0})


def _probe(field, alpha, gmap, p=4.0, eps=EPS_SCAN):
    comps = (field,) if isinstance(field, ScalarField) else tuple(field)
    alphas = (alpha,) if isinstance(alpha, float) else tuple(alpha)
    return CommutatorProbe(comps, alphas, gmap, p, eps_scan(comps[0].grid, eps))


def _kernel(probe, eps):
    """The probe's scan kernel of radius ``eps``."""
    return next(mol for mol in probe.scan.mollifiers if mol.epsilon == eps)


class TestChainCommutator:
    def test_linear_map_commutes_to_rounding(self, weier8k):
        # zero second derivative kills the bound; float distributivity across
        # the kernel sum leaves at most ulp-level residue
        probe = _probe(weier8k[0.6], 0.6, _linear_gmap())
        res = chain_commutator(probe, _kernel(probe, 0.0625))
        assert res.bound == 0.0
        assert np.max(np.abs(res.commutator.values)) < 1e-11

    def test_constant_field_commutes_exactly(self, grid256):
        probe = _probe(constant_field(grid256, 1.3), 0.5, get_gmap("square"), p=4.0,
                       eps=(0.0625, 0.125, 0.25, 0.5))
        res = chain_commutator(probe, _kernel(probe, 0.125))
        assert res.norm == 0.0

    def test_square_probe_obeys_bound_with_slack(self, weier8k):
        probe = _probe(weier8k[0.6], 0.6, get_gmap("square"))
        for mol in probe.scan.mollifiers:
            res = chain_commutator(probe, mol)
            assert res.norm <= 1.10 * res.bound

    def test_split_terms_sum_exactly(self, weier8k):
        probe = _probe(weier8k[0.6], 0.6, get_gmap("square"))
        res = chain_commutator(probe, _kernel(probe, 2.0**-6))
        recon = res.term_a.values + res.term_b.values
        assert np.max(np.abs(recon - res.commutator.values)) < 1e-12

    def test_split_terms_entry_point(self, weier8k):
        # chain_commutator is the one entry point to the split terms
        probe = _probe(weier8k[0.6], 0.6, get_gmap("square"))
        first = chain_commutator(probe, _kernel(probe, 2.0**-6))
        res = chain_commutator(probe, _kernel(probe, 2.0**-6))
        assert np.array_equal(first.term_a.values, res.term_a.values)
        assert np.array_equal(first.term_b.values, res.term_b.values)

    def test_linear_split_terms_vanish(self, weier8k):
        probe = _probe(weier8k[0.6], 0.6, _linear_gmap())
        res = chain_commutator(probe, _kernel(probe, 0.0625))
        assert np.all(res.term_a.values == 0.0)  # DG is constant, difference exact
        assert np.max(np.abs(res.term_b.values)) < 1e-11

    def test_rejects_small_p(self, grid256):
        with pytest.raises(DomainError):
            _probe(constant_field(grid256, 1.0), 0.5, get_gmap("square"), p=1.5,
                   eps=(0.0625, 0.125, 0.25, 0.5))

    def test_2d_probe_obeys_bound_and_split(self):
        from eulerlab.grid import weierstrass_field

        grid = PeriodicGrid(2, 64)
        f = weierstrass_field(0.6, 6, grid)
        probe = CommutatorProbe((f,), (0.6,), get_gmap("square"), 4.0,
                                eps_scan(grid, (0.125, 0.25)))
        res = chain_commutator(probe, _kernel(probe, 0.125))
        assert res.norm <= 1.10 * res.bound
        gap = np.max(np.abs(res.term_a.values + res.term_b.values
                            - res.commutator.values))
        assert gap < 1e-12


def _count_cached(monkeypatch, name):
    """Count the evaluations of the CommutatorProbe cached property ``name``."""
    calls = []
    real = CommutatorProbe.__dict__[name].func
    prop = functools.cached_property(lambda probe: calls.append(probe) or real(probe))
    prop.__set_name__(CommutatorProbe, name)
    monkeypatch.setattr(CommutatorProbe, name, prop)
    return calls


class TestProbeMeasuresOnce:
    def test_chain_gate_counts(self, monkeypatch):
        # the split check's extra chain_commutator at 2**-6 measured
        # probe1's ladder and sups again: 88 difference norms, 3 sup evaluations
        norms = []
        real = besov._diff_norm
        monkeypatch.setattr(besov, "_diff_norm", lambda *a: norms.append(a[1]) or real(*a))
        sup_evaluations = _count_cached(monkeypatch, "sups")
        assert acceptance.gate_chain_commutator().passed
        assert len(norms) == 3 * len(dyadic_shift_ladder(PeriodicGrid(1, 8192))) == 66
        assert len(sup_evaluations) == 2

    def test_probe_caches_floats_only(self, weier8k):
        probe = _probe((weier8k[0.4], weier8k[0.8]), (0.4, 0.8), get_gmap("product"))
        chain_rate_fit(probe)
        fields = {"components", "alphas", "gmap", "p", "scan"}
        assert set(vars(probe)) == fields | {"seminorms", "sups"}
        leaves = [*probe.seminorms, *probe.sups.values()]
        assert all(type(v) is float for v in leaves)
        ladder = dyadic_shift_ladder(probe.grid)
        assert [s.hex() for s in probe.seminorms] == [
            seminorm(f, a, 4.0, ladder).hex() for f, a in zip(probe.components, probe.alphas)]


class TestChainRates:
    def test_square_alpha_06(self, weier8k):
        fit = chain_rate_fit(_probe(weier8k[0.6], 0.6, get_gmap("square")))
        assert fit.predicted == pytest.approx(0.2, abs=1e-12)
        assert fit.slope >= 0.1
        assert fit.passed

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.45, 0.55, 0.6, 0.7])
    def test_square_slope_changes_sign_at_one_half(self, alpha):
        # the first theorem's alpha > 1/2: the chain commutator of a B^{alpha,inf}_p
        # field scales like eps^{2 alpha - 1}, so it vanishes as eps -> 0 only
        # above alpha = 1/2 and grows below it
        field = acceptance._weier(alpha, acceptance._measurement_grid())
        probe = CommutatorProbe((field,), (alpha,), get_gmap("square"), 4.0,
                                eps_scan(field.grid, acceptance.EPS_SCAN))
        slope = chain_rate_fit(probe).slope
        assert math.copysign(1.0, slope) == math.copysign(1.0, 2.0 * alpha - 1.0)
        assert slope == pytest.approx(2.0 * alpha - 1.0, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.25, 0.30, 0.34, 0.40, 0.50, 0.60])
    def test_flux_pairing_slope_changes_sign_at_one_third(self, alpha):
        # the flux commutator R_eps = (rho u^2)_eps - rho_eps u_eps^2 paired with
        # d_x u_eps: Pi_eps = int R_eps d_x u_eps scales like eps^{3 alpha - 1}
        # on the product gate's fields, so it vanishes only above alpha = 1/3
        grid = acceptance._measurement_grid()
        rho = ScalarField(grid, 1.5 + 0.25 * acceptance._weier(alpha, grid).values / 3.0)
        u = acceptance._weier(alpha, grid, phase=0.7)
        scan = eps_scan(grid, acceptance.EPS_SCAN)
        _, results = product_rate_fit(rho, u, scan, kind="triple")
        pis = np.array([r.flux_pairing for r in results])
        slope = scan.slope(np.abs(pis))
        assert np.all(pis < 0.0)
        if abs(3.0 * alpha - 1.0) >= 0.1:
            assert math.copysign(1.0, slope) == math.copysign(1.0, 3.0 * alpha - 1.0)

    def test_product_mixed_alphas(self, weier8k, grid8k):
        x = grid8k.axis_centers()
        f2 = np.zeros_like(x)
        for k in range(14):
            f2 += 2.0 ** (-0.8 * k) * np.cos((2.0**k) * np.pi * x + 1.0)
        probe = _probe(
            (weier8k[0.4], ScalarField(grid8k, f2)), (0.4, 0.8), get_gmap("product")
        )
        fit = chain_rate_fit(probe)
        assert fit.predicted == pytest.approx(0.2, abs=1e-12)
        assert fit.slope >= 0.1
        assert fit.passed

    def test_square_alpha_09(self, grid8k):
        x = grid8k.axis_centers()
        f = np.zeros_like(x)
        for k in range(14):
            f += 2.0 ** (-0.9 * k) * np.cos((2.0**k) * np.pi * x)
        fit = chain_rate_fit(_probe(ScalarField(grid8k, f), 0.9, get_gmap("square")))
        assert fit.predicted == pytest.approx(0.8, abs=1e-12)
        assert fit.slope >= 0.7

    def test_split_terms_decay_individually(self, weier8k):
        probe = _probe(weier8k[0.6], 0.6, get_gmap("square"))
        norms_a, norms_b = [], []
        for mol in probe.scan.mollifiers:
            res = chain_commutator(probe, mol)
            norms_a.append(lp_norm(res.term_a, probe.p / 2))
            norms_b.append(lp_norm(res.term_b, probe.p / 2))
        le = np.log(probe.scan.eps)
        slope_a = np.polyfit(le[2:-2], np.log(norms_a)[2:-2], 1)[0]
        slope_b = np.polyfit(le[2:-2], np.log(norms_b)[2:-2], 1)[0]
        assert slope_a >= 0.2 - 0.1
        assert slope_b >= 0.2 - 0.1

    def test_pressure_tilde_gmap_available(self, grid256):
        gmap = gmap_pressure_tilde(GasParams(1.4))
        y = np.stack([np.full(4, 1.0), np.zeros(4)])
        # (dp/drho, dp/dS) = (gamma, gamma - 1) at rho = 1, S = 0
        np.testing.assert_allclose(gmap.grad(y), np.stack([np.full(4, 1.4), np.full(4, 0.4)]),
                                   rtol=1e-14)
        hess = tilde_pressure_derivatives(y[0], y[1], GasParams(1.4))[2]
        assert hess.shape == (2, 2, 4)
        # on the one-point box the sups are the Hessian's entries there
        sups = gmap.sups(((1.0, 1.0), (0.0, 0.0)))
        assert list(sups.values()) == [abs(float(hess[i, j, 0])) for i, j in ((0, 0), (0, 1),
                                                                             (1, 1))]


class TestProductCommutators:
    def test_constant_density_gives_tiny_commutator(self, grid256):
        rho = constant_field(grid256, 2.0)
        u = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        res = bilinear_commutator(rho, u, 0.125)
        assert res.norm < 1e-13

    def test_bilinear_rate_weierstrass_04(self, rough_pair_8k):
        rho, u = rough_pair_8k
        slope, results = product_rate_fit(rho, u, eps_scan(rho.grid, EPS_SCAN), kind="bilinear")
        assert slope >= 2 * 0.4 - 0.1
        assert all(r.passed for r in results)

    def test_triple_rate_weierstrass_04(self, rough_pair_8k):
        rho, u = rough_pair_8k
        slope, results = product_rate_fit(rho, u, eps_scan(rho.grid, EPS_SCAN), kind="triple")
        assert slope >= 3 * 0.4 - 1.0 - 0.1
        assert all(r.passed for r in results)

    def test_smooth_calibration_stays_below_frozen_constant(self, grid8k):
        rho = field_from_function(
            grid8k, lambda x: 1.5 + 0.3 * np.sin(np.pi * x) + 0.1 * np.cos(3 * np.pi * x)
        )
        u = field_from_function(
            grid8k, lambda x: 0.4 * np.sin(2 * np.pi * x) + 0.2 * np.cos(np.pi * x)
        )
        measured = calibrate_c0(rho, u, eps_scan(grid8k, [2.0 ** (-k) for k in range(4, 9)]))
        assert measured < C0_PRODUCT

    def test_2d_bilinear_runs(self, grid2d):
        rho = field_from_function(grid2d, lambda x, y: 1.0 + 0.2 * np.sin(np.pi * x))
        from eulerlab.grid import VectorField

        u = VectorField(
            grid2d,
            np.stack(
                [
                    0.3 * np.sin(np.pi * grid2d.coordinates()[1]),
                    0.1 * np.cos(np.pi * grid2d.coordinates()[0]),
                ]
            ),
        )
        res = bilinear_commutator(rho, u, 0.2)
        assert res.norm >= 0.0
        assert res.passed

    def test_unknown_gmap_name(self):
        with pytest.raises(ValueError):
            get_gmap("cube")


# ---------------------------------------------------------------------------
# oracles: the per-eps product commutators that the eps-list scan replaced,
# and dense sampling of sup |d^2 G| under the closed-form sups
# ---------------------------------------------------------------------------


def _oracle_stacked(rho_field, u_field, repeats):
    comps = [rho_field.values]
    u = u_field.values if isinstance(u_field, VectorField) else u_field.values[None]
    for _ in range(repeats):
        comps.extend(list(u))
    return np.stack(comps)


def _oracle_pair_modulus(stack, mol, grid, p):
    stack_e = mollify_values(stack, mol)
    diff = np.sqrt(np.sum((stack_e - stack) ** 2, axis=0))
    moll_term = lp_norm_values(diff, p, grid.cell_volume) ** 2
    sup = 0.0
    for off in ball_offsets(grid, mol.epsilon):
        moved = shift_values(stack, off, first_axis=1)
        d = np.sqrt(np.sum((moved - stack) ** 2, axis=0))
        sup = max(sup, lp_norm_values(d, p, grid.cell_volume) ** 2)
    return stack_e, moll_term, sup


def _oracle_bilinear(rho_field, u_field, eps, p=3.0, c0=C0_PRODUCT):
    grid = rho_field.grid
    mol = build_mollifier(grid, eps)
    stack = _oracle_stacked(rho_field, u_field, 1)
    stack_e, rhs1, rhs2 = _oracle_pair_modulus(stack, mol, grid, p)
    rho, u = stack[0], stack[1:]
    rho_e, u_e = stack_e[0], stack_e[1:]
    comm = rho_e * u_e - mollify_values(rho * u, mol)
    mag = np.sqrt(np.sum(comm * comm, axis=0))
    norm = lp_norm_values(mag, p / 2.0, grid.cell_volume)
    return ProductCommutatorResult(norm, rhs1, rhs2, bool(norm <= c0 * (rhs1 + rhs2)), None)


def _oracle_triple(rho_field, u_field, eps, p=3.0, c0=C0_PRODUCT):
    grid = rho_field.grid
    mol = build_mollifier(grid, eps)
    stack = _oracle_stacked(rho_field, u_field, 2)
    ncomp = (stack.shape[0] - 1) // 2
    stack_e, rhs1, rhs2 = _oracle_pair_modulus(stack, mol, grid, p)
    rho, u = stack[0], stack[1 : 1 + ncomp]
    rho_e, u_e = stack_e[0], stack_e[1 : 1 + ncomp]
    outer = np.einsum("i...,j...->ij...", u, u)
    outer_e = np.einsum("i...,j...->ij...", u_e, u_e)
    flat = (rho * outer).reshape((ncomp * ncomp,) + rho.shape)
    comm = rho_e * outer_e - mollify_values(flat, mol).reshape(outer.shape)
    mag = np.sqrt(np.sum(comm * comm, axis=(0, 1)))
    norm = lp_norm_values(mag, p / 2.0, grid.cell_volume)
    # Pi_eps = int R_eps : grad u_eps, R_eps = (rho u (x) u)_eps - rho_eps u_eps (x) u_eps
    remainder = mollify_values(flat, mol).reshape(outer.shape) - rho_e * outer_e
    pairing = grid.cell_volume * math.fsum(
        x for i in range(ncomp) for j in range(ncomp)
        for x in (remainder[i, j] * grad_values(u_e[i], grid.cell_width)[j]).ravel().tolist())
    return ProductCommutatorResult(norm, rhs1, rhs2, bool(norm <= c0 * (rhs1 + rhs2)),
                                   pairing)


_ORACLES = {"bilinear": (_oracle_bilinear, bilinear_commutator),
            "triple": (_oracle_triple, triple_commutator)}


def _assert_same(new, old):
    for name in ("norm", "rhs_mollify", "rhs_shift"):
        assert float(getattr(new, name)).hex() == float(getattr(old, name)).hex(), name
    assert new.passed == old.passed
    assert (new.flux_pairing is None) == (old.flux_pairing is None)
    if new.flux_pairing is not None:
        assert new.flux_pairing.hex() == old.flux_pairing.hex()


def _pair_2d():
    grid = PeriodicGrid(2, 64)
    x, y = grid.coordinates()
    rho = ScalarField(grid, 1.0 + 0.2 * np.sin(np.pi * x) * np.cos(2 * np.pi * y))
    u = VectorField(grid, np.stack([0.3 * np.sin(np.pi * y) + 0.1 * np.abs(x),
                                    0.1 * np.cos(np.pi * x) * np.sin(np.pi * y)]))
    return rho, u, (0.3, 0.25, 0.125, 0.0625)    # 0.3 = 9.6 cells


@pytest.mark.parametrize("kind", ["bilinear", "triple"])
class TestProductScanMatchesPerEps:
    """Every number of the eps-list scan is bit-identical to the per-eps oracle."""

    def _check(self, rho, u, eps_list, kind):
        oracle, entry = _ORACLES[kind]
        # descending, with repeats: the scan sorts them and keeps the repeats
        eps = list(eps_list) + [eps_list[1], eps_list[1]]
        expected = {e: oracle(rho, u, e) for e in eps_list}
        _, results = product_rate_fit(rho, u, eps_scan(rho.grid, eps), kind=kind)
        assert len(results) == len(eps)
        for e, r in zip(sorted(eps), results):
            _assert_same(r, expected[e])
        _assert_same(entry(rho, u, eps_list[2]), expected[eps_list[2]])

    def test_1d_measurement_grid(self, rough_pair_8k, kind):
        self._check(*rough_pair_8k, EPS_SCAN, kind)

    def test_2d_vector_velocity(self, kind):
        self._check(*_pair_2d(), kind)

    def test_each_offset_is_evaluated_once(self, rough_pair_8k, monkeypatch, kind):
        # the per-eps ball loop shifted 255 + 127 + ... + 3 = 501 times over EPS_SCAN
        calls = []
        real = besov.shift_values
        monkeypatch.setattr(besov, "shift_values",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        rho, u = rough_pair_8k
        product_rate_fit(rho, u, eps_scan(rho.grid, EPS_SCAN), kind=kind)
        assert len(calls) == len(set(calls)) == 255


def test_calibration_matches_per_eps_oracle():
    rho, u, eps_list = _pair_2d()
    eps = list(eps_list) + [eps_list[0]]
    worst = 0.0
    for e in eps:
        for oracle, _ in _ORACLES.values():
            r = oracle(rho, u, e, c0=math.inf)
            worst = max(worst, r.norm / (r.rhs_mollify + r.rhs_shift))
    assert calibrate_c0(rho, u, eps_scan(rho.grid, eps)).hex() == worst.hex()


def test_a_scan_on_another_grid_is_refused(grid256):
    rho = constant_field(grid256, 1.0)
    other = eps_scan(PeriodicGrid(2, 256), (0.0625, 0.5))
    with pytest.raises(ValueError, match="share one grid"):
        CommutatorProbe((rho,), (0.5,), get_gmap("square"), 4.0, other)
    with pytest.raises(ValueError, match="share one grid"):
        product_rate_fit(rho, rho, other)


def test_unknown_product_kind_is_rejected(rough_pair_8k):
    rho, u = rough_pair_8k
    with pytest.raises(ValueError, match="'bilnear'.*bilinear, triple"):
        product_rate_fit(rho, u, eps_scan(rho.grid, EPS_SCAN), kind="bilnear")


#: The Hessian of each G map, written out on the test side.
_HESSIANS = {
    "square": lambda y: np.stack([np.stack([2.0 + 0.0 * y[0]])]),
    "product": lambda y: np.stack([np.stack([0.0 * y[0], 1.0 + 0.0 * y[0]]),
                                   np.stack([1.0 + 0.0 * y[0], 0.0 * y[0]])]),
    "pressure_tilde": lambda y: tilde_pressure_derivatives(y[0], y[1], GasParams(1.4))[2],
    # G = y0**2 y1 / 2
    "cubic": lambda y: np.stack([np.stack([y[1], y[0]]), np.stack([y[0], 0.0 * y[0]])]),
}


def _oracle_hull_sups(hess, hull, n=1001):
    """sup |d^gamma G| sampled on an n-per-axis grid over the box ``hull``."""
    k = len(hull)
    axes = [np.linspace(lo, hi, n) for lo, hi in hull]
    mesh = np.meshgrid(*axes, indexing="ij") if k > 1 else [axes[0]]
    y = np.stack([m.ravel() for m in mesh])
    values = hess(y)
    sups = {}
    for i, j in combinations_with_replacement(range(k), 2):
        gamma = [0] * k
        gamma[i] += 1
        gamma[j] += 1
        sups[tuple(gamma)] = float(np.max(np.abs(values[i, j])))
    return sups


def _cubic_gmap():
    """G = y0**2 y1 / 2, whose sups are the largest |y0| and |y1| on the box."""
    def sups(hull):
        (lo0, hi0), (lo1, hi1) = hull
        return {(2, 0): max(abs(lo1), abs(hi1)), (1, 1): max(abs(lo0), abs(hi0)), (0, 2): 0.0}

    return GMap(2, lambda y: np.stack([y[0] * y[1], 0.5 * y[0] ** 2]), sups)


def _box(field):
    return float(field.values.min()), float(field.values.max())


class TestHullSups:
    @pytest.mark.parametrize("gname", ["square", "product", "pressure_tilde", "cubic"])
    def test_closed_form_bounds_dense_sampling(self, grid256, gname):
        comps = (field_from_function(grid256, lambda x: 1.0 + 0.5 * np.sin(np.pi * x)),
                 field_from_function(grid256, lambda x: np.cos(np.pi * x) - 0.3))
        gmap = _cubic_gmap() if gname == "cubic" else get_gmap(gname, GasParams(1.4))
        probe = _probe(comps[: gmap.arity], (0.5,) * gmap.arity, gmap, eps=(0.0625, 0.5))
        sups = probe.sups
        expected = _oracle_hull_sups(_HESSIANS[gname], [_box(f) for f in probe.components])
        assert list(sups) == list(expected)
        assert all(type(v) is float for v in sups.values())
        for gamma, sup in sups.items():
            assert sup >= expected[gamma] * (1.0 - 1e-12), gamma
            assert sup <= expected[gamma] * (1.0 + 1e-6), gamma

    def test_square_and_product_keep_the_sampled_values(self):
        # the 10**6-point sampler read exactly these, so the gates' bounds stay
        box = ((-1.5, 2.0), (0.25, 3.0))
        assert get_gmap("square").sups(box[:1]) == {(2,): 2.0}
        assert list(get_gmap("product").sups(box).items()) == [
            ((2, 0), 0.0), ((1, 1), 1.0), ((0, 2), 0.0)]

    def test_pressure_sups_exceed_the_corners_where_the_sampler_fell_short(self):
        # the 1000**2 sample read p_rS 0.21952461 here; the corners alone give
        # p_rS 0.161517 and p_rr 0.888345
        box = ((1.0, 2.0), (-4.0, 0.0))
        sups = get_gmap("pressure_tilde", GasParams(1.4)).sups(box)
        corners = np.abs(tilde_pressure_derivatives(np.array([1.0, 1.0, 2.0, 2.0]),
                                                    np.array([-4.0, 0.0, -4.0, 0.0]),
                                                    GasParams(1.4))[2])
        assert float(corners[0, 1].max()) == pytest.approx(0.161517, abs=1e-6)
        assert float(corners[0, 0].max()) == pytest.approx(0.888345, abs=1e-6)
        assert sups[(1, 1)] == pytest.approx(0.21952465, abs=1e-8)
        assert sups[(2, 0)] == pytest.approx(0.897739, abs=1e-6)
        assert sups[(0, 2)] == pytest.approx(0.16, rel=1e-14)

    @pytest.mark.parametrize("gamma", [1.05, 1.4, 5.0 / 3.0, 2.0, 2.5, 3.0])
    def test_pressure_sups_bound_dense_sampling_on_random_boxes(self, gamma):
        # h = rho**(g - 2) e^{a w} q(w) on a 1001**2 grid, by broadcasting; the
        # entries are pinned to tilde_pressure_derivatives on the first box
        a, n = gamma - 1.0, 1001
        gmap = get_gmap("pressure_tilde", GasParams(gamma))
        rng = np.random.default_rng(38)
        for k in range(20):
            r_lo, r_hi = np.sort(rng.uniform(0.2, 3.0, 2)).tolist()
            s_lo, s_hi = np.sort(rng.uniform(-5.0, 5.0, 2)).tolist()
            rho, s = np.linspace(r_lo, r_hi, n)[:, None], np.linspace(s_lo, s_hi, n)[None]
            w = s / rho
            base = rho ** (gamma - 2.0) * np.exp(a * w)
            entries = (base * a * (gamma - 2.0 * a * w + a * w * w),
                       base * a * a * (1.0 - w), base * a * a)
            if k == 0:
                hess = tilde_pressure_derivatives(*np.broadcast_arrays(rho, s),
                                                  GasParams(gamma))[2]
                for got, (i, j) in zip(entries, ((0, 0), (0, 1), (1, 1))):
                    np.testing.assert_allclose(got, hess[i, j], rtol=1e-12, atol=0.0)
            sups = gmap.sups(((r_lo, r_hi), (s_lo, s_hi)))
            for gamma_key, entry in zip(sups, entries):
                assert sups[gamma_key] >= float(np.max(np.abs(entry))) * (1.0 - 1e-12)
