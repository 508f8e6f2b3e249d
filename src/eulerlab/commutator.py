"""Mollification commutators and their decay rates.

Two families are implemented.  The chain-rule commutator

    grad(G(F_eps)) - (grad G(F))_eps

for a C^2 map G of k scalar fields, with the one-sided bound

    sum_{|gamma|=2} eps**(sum_j gamma_j alpha_j - 1)
        * sup|d^gamma G| * prod_j |f_j|_{B^{alpha_j, inf}_p}**gamma_j

in L^{p/2}, together with its two-term split (value-difference term plus
pull-the-derivative-inside term, whose sum is the commutator).  And
the bilinear/trilinear product commutators

    rho_eps u_eps - (rho u)_eps,   rho_eps u_eps (x) u_eps - (rho u (x) u)_eps

whose L^{p/2} norms are checked against squared L^p mollification and shift
moduli times the constant their proof gives, `_product_constant`.  Both are one
pass over a `besov.EpsScan`, `_product_scan`, whose shift moduli come from one
`besov.ModulusTable`.

G comes with a closed-form gradient and closed-form sups of its second
derivatives over a box: nothing here differentiates or samples G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable

import numpy as np

from .besov import EpsScan, ModulusTable, dyadic_shift_ladder, eps_scan, seminorm
from .errors import DomainError
from .grid import (
    Mollifier,
    PeriodicGrid,
    ScalarField,
    VectorField,
    exact_sum,
    grad_values,
    lp_norm_values,
    magnitude,
    mollify_values,
)
from .thermo import GasParams, tilde_pressure_derivatives

#: Relative slack admitted when asserting the chain-commutator bound.
CHAIN_BOUND_SLACK = 0.10

#: Lebesgue exponent of the product moduli: the commutators are measured in
#: L^{p/2} = L^{3/2}.
PRODUCT_P = 3.0

#: Velocity factors of each product commutator: rho u and rho u (x) u.
_FACTORS = {"bilinear": 1, "triple": 2}


@dataclass(frozen=True)
class GMap:
    """C^2 map of k scalar arguments in closed form: ``grad`` of a stacked
    array Y of shape (k, ...), and ``sups`` of a box, one (lo, hi) per
    argument, as {gamma: sup |d^gamma G| over the box} for |gamma| = 2."""

    arity: int
    grad: Callable[[np.ndarray], np.ndarray]
    sups: Callable[[tuple[tuple[float, float], ...]], dict[tuple[int, ...], float]]


def gmap_square() -> GMap:
    return GMap(1, lambda y: np.stack([2.0 * y[0]]), lambda hull: {(2,): 2.0})


def gmap_product() -> GMap:
    return GMap(2, lambda y: np.stack([y[1], y[0]]),
                lambda hull: {(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0})


def gmap_pressure_tilde(params: GasParams) -> GMap:
    """Pressure as a function of (rho, S); convex with closed-form Hessian."""

    def sups(hull):
        """With a = g - 1 and w = S / rho, each Hessian entry of p = rho**g e^{a w}
        is h = rho**(g - 2) e^{a w} q(w), q = a (g - 2aw + aw**2), a**2 (1 - w) or
        a**2.  Then dh/dS = rho**(g - 3) e^{a w} (a q + q') and dh/drho =
        rho**(g - 3) e^{a w} ((g - 2) q - w (a q + q')) vanish together only
        where (g - 2) q = 0, and h = 0 where q = 0, so the max of |h| is on the
        boundary (at g = 2 h is a function of w, whose range the boundary
        covers).  Inside a rho-edge it sits at a root of a q + q' (S = w rho),
        inside an S-edge at a root of (g - 2) q - w (a q + q') (rho = S / w),
        both at most cubic.  A candidate in the box cannot raise the sup, so
        each root keeps its real part and each entry takes every candidate."""
        g, a = params.gamma, params.gamma - 1.0
        (r_lo, r_hi), (s_lo, s_hi) = hull
        points = [(r, x) for r in (r_lo, r_hi) for x in (s_lo, s_hi)]
        for q in map(np.array, ([a * a, -2.0 * a * a, a * g], [-a * a, a * a], [a * a])):
            d_s = np.polyadd(a * q, np.polyder(q))   # coefficients, highest power first
            d_r = np.polysub((g - 2.0) * q, np.polymul([1.0, 0.0], d_s))
            points += [(r, v * r) for v in np.roots(d_s).real.tolist() for r in (r_lo, r_hi)]
            points += [(x / v, x) for v in np.roots(d_r).real.tolist() if v for x in (s_lo, s_hi)]
        rho, s = np.array([(r, x) for r, x in points if r_lo <= r <= r_hi and s_lo <= x <= s_hi]).T
        hess = np.abs(tilde_pressure_derivatives(rho, s, params)[2])
        return {(2, 0): float(hess[0, 0].max()), (1, 1): float(hess[0, 1].max()),
                (0, 2): float(hess[1, 1].max())}

    return GMap(2, lambda y: tilde_pressure_derivatives(y[0], y[1], params)[1], sups)


def get_gmap(name: str, params: GasParams | None = None) -> GMap:
    if name == "square":
        return gmap_square()
    if name == "product":
        return gmap_product()
    if name == "pressure_tilde":
        return gmap_pressure_tilde(params if params is not None else GasParams())
    raise ValueError(f"unknown G map {name!r}; known: square, product, pressure_tilde")


@dataclass(frozen=True)
class CommutatorProbe:
    """Fields with declared regularities, a G map, and an eps scan on their grid.

    The probe measures what every eps of its scan shares once, and caches
    the floats: the component seminorms over the dyadic shift ladder and
    sup |d^gamma G| over the box of the field ranges.
    """

    components: tuple[ScalarField, ...]
    alphas: tuple[float, ...]
    gmap: GMap
    p: float
    scan: EpsScan

    def __post_init__(self):
        if len(self.components) != self.gmap.arity:
            raise ValueError("component count must match G arity")
        if len(self.alphas) != len(self.components):
            raise ValueError("one alpha per component required")
        if not self.p >= 2.0:
            raise DomainError(f"p must be >= 2, got {self.p}")
        grid = self.components[0].grid
        if any(f.grid != grid for f in self.components) or self.scan.grid != grid:
            raise ValueError("all components and the eps scan must share one grid")

    @property
    def grid(self) -> PeriodicGrid:
        return self.components[0].grid

    @cached_property
    def seminorms(self) -> tuple[float, ...]:
        """Each component's seminorm at its declared alpha, over the dyadic ladder."""
        ladder = dyadic_shift_ladder(self.grid)
        return tuple(seminorm(f, a, self.p, ladder) for f, a in zip(self.components, self.alphas))

    @cached_property
    def sups(self) -> MappingProxyType[tuple[int, ...], float]:
        """sup |d^gamma G|, |gamma| = 2, over the box of the field ranges, which
        holds each F_eps too: the kernel is positive with unit mass."""
        box = tuple((float(f.values.min()), float(f.values.max())) for f in self.components)
        return MappingProxyType(self.gmap.sups(box))


def chain_bound(probe: CommutatorProbe, eps: float) -> float:
    """sum over |gamma|=2 of eps**(gamma.alpha - 1) * sup|d^g G| * prod |f|^g."""
    total = 0.0
    for gamma, sup in probe.sups.items():
        if sup == 0.0:
            continue
        expo = sum(g * a for g, a in zip(gamma, probe.alphas)) - 1.0
        prod = math.prod(s**g for s, g in zip(probe.seminorms, gamma))
        total += eps**expo * sup * prod
    return total


@dataclass(frozen=True)
class ChainCommutatorResult:
    commutator: VectorField
    term_a: VectorField
    term_b: VectorField
    norm: float
    bound: float


def chain_commutator(probe: CommutatorProbe, mol: Mollifier) -> ChainCommutatorResult:
    """Evaluate grad(G(F_eps)) - (grad G(F))_eps and its split terms, eps = mol.epsilon.

    Gradients of compositions are expanded with the closed-form chain rule,
    and comm = term_a + term_b holds to rounding, a check on both terms:

        comm   = DG(F_eps) . grad F_eps - (DG(F) . grad F)_eps
        term_a = (DG(F_eps) - DG(F)) . grad F_eps
        term_b = DG(F) . grad F_eps - (DG(F) . grad F)_eps
    """
    grid = probe.grid
    f = np.stack([c.values for c in probe.components])
    fe = mollify_values(f, mol)
    dg = probe.gmap.grad(f)
    dge = probe.gmap.grad(fe)
    grads = np.stack([grad_values(c.values, grid.cell_width) for c in probe.components])
    grads_e = mollify_values(grads, mol)
    inner_e = mollify_values(np.einsum("i...,id...->d...", dg, grads), mol)
    comm = np.einsum("i...,id...->d...", dge, grads_e) - inner_e
    term_a = np.einsum("i...,id...->d...", dge - dg, grads_e)
    term_b = np.einsum("i...,id...->d...", dg, grads_e) - inner_e
    norm = lp_norm_values(magnitude(comm, grid), probe.p / 2.0, grid.cell_volume)
    return ChainCommutatorResult(VectorField(grid, comm), VectorField(grid, term_a),
                                 VectorField(grid, term_b), norm, chain_bound(probe, mol.epsilon))


@dataclass(frozen=True)
class RateFit:
    norms: np.ndarray
    bounds: np.ndarray
    split_gaps: np.ndarray   # max |term_a + term_b - commutator| per eps
    slope: float
    predicted: float
    passed: bool
    bound_ok: np.ndarray


def chain_rate_fit(probe: CommutatorProbe) -> RateFit:
    """Fit the decay slope of the commutator norm and compare to the bound.

    PASS requires slope >= (min active sum gamma.alpha) - 1 - 0.1 and the
    one-sided bound (with measured semi-norms and closed-form derivative sups)
    to hold at every eps within ``CHAIN_BOUND_SLACK``.
    """
    scan = probe.scan
    if not scan.eps.size or scan.eps[-1] / scan.eps[0] < 7.9:
        raise ValueError("eps range must span at least 3 octaves")
    results = (chain_commutator(probe, mol) for mol in scan.mollifiers)
    norms, bounds, split_gaps = map(np.array, zip(*(
        (r.norm, r.bound, np.max(np.abs(r.term_a.values + r.term_b.values - r.commutator.values)))
        for r in results)))
    active = [sum(g * a for g, a in zip(gamma, probe.alphas)) - 1.0
              for gamma, sup in probe.sups.items() if sup > 0.0]
    predicted = min(active) if active else math.inf
    slope = scan.slope(norms)
    bound_ok = norms <= (1.0 + CHAIN_BOUND_SLACK) * bounds
    passed = bool(slope >= predicted - 0.1 and np.all(bound_ok))
    return RateFit(norms, bounds, split_gaps, slope, predicted, passed, bound_ok)


# ---------------------------------------------------------------------------
# product commutators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductCommutatorResult:
    norm: float          # L^{p/2} norm of the commutator
    rhs_mollify: float   # squared L^p mollification modulus of the tuple
    rhs_shift: float     # squared L^p shift modulus, sup over |y| < eps
    constant: float      # C of the proven bound, `_product_constant`
    flux_pairing: float | None   # triple with one u component per axis: Pi_eps

    @property
    def bound(self) -> float:
        """The proven right side, C (rhs_mollify + rhs_shift)."""
        return self.constant * (self.rhs_mollify + self.rhs_shift)


def _product_constant(rho: np.ndarray, u: np.ndarray, factors: int,
                      grid: PeriodicGrid) -> float:
    """C of ||comm||_{p/2} <= C (rhs_mollify + rhs_shift): 1/2 for the bilinear
    commutator, max(2G, 3F + G) for the triple; F = max |rho|, G = max |u| (Euclidean).

    The kernel is nonnegative with unit mass on |y| < eps (`build_mollifier`): int
    is the mean over its taps y.  S is the stacked tuple, d_y S = S(. - y) - S, and
    (x) is the product for a scalar u.  Bilinear (Constantin, E & Titi, 1994):
        comm = (rho_eps - rho)(u_eps - u) - int d_y rho d_y u,
    so |x||y| <= (x^2 + y^2)/2 gives |comm| <= |S_eps - S|^2/2 + int |d_y S|^2/2.
    Triple: expand about the mollified values, a = rho(x - y) - rho_eps(x) and
    b = u(x - y) - u_eps(x).  int a = int b = 0 removes the linear terms, so
        comm = -[rho_eps int b (x) b + u_eps (x) int ab + int ab (x) u_eps + int ab (x) b].
    With |rho_eps| <= F, |u_eps| <= G, |a| <= 2F, |v (x) w| = |v||w| (Frobenius)
    and 2|a||b| <= a^2 + |b|^2, |comm| <= G int a^2 + (3F + G) int |b|^2, which is
    max(G, (3F + G)/2) int |A|^2: A = S(x - y) - S_eps(x) = d_y S + S - S_eps for
    S = (rho, u, u) has |A|^2 = a^2 + 2|b|^2 <= 2|d_y S|^2 + 2|S - S_eps|^2.
    Both times Minkowski in L^{p/2} = L^{3/2} takes the norm inside int, and
    || |X|^2 ||_{p/2} = ||X||_p^2: the S - S_eps term is rhs_mollify, and the
    mean of ||d_y S||_p^2 is at most rhs_shift, whose `ball_sups` takes every
    lattice shift 0 < |h| < eps (one of each +-h, of equal modulus).
    """
    if factors == 1:
        return 0.5
    big_f, big_g = float(np.max(np.abs(rho))), float(np.max(magnitude(u, grid)))
    return max(2.0 * big_g, 3.0 * big_f + big_g)


def _product_scan(rho_field: ScalarField, u_field: ScalarField | VectorField, scan: EpsScan,
                  factors: int) -> list[ProductCommutatorResult]:
    """rho_eps U_eps - (rho U)_eps per eps of the scan, U = u or u (x) u for 1 or 2
    ``factors``; the moduli measure the stacked tuple (rho, u) or (rho, u, u).

    With two factors and a velocity u (one component per axis) each result
    also holds the energy-flux pairing Pi_eps = int R_eps : grad u_eps of
    R_eps = (rho u (x) u)_eps - rho_eps u_eps (x) u_eps, which scales like
    eps^{3 alpha - 1} (Constantin, E & Titi, Comm. Math. Phys. 165, 1994).
    Each bound is `_product_constant` times the two moduli."""
    grid, vol = rho_field.grid, rho_field.grid.cell_volume
    if scan.grid != grid:
        raise ValueError("the fields and the eps scan must share one grid")
    u = u_field.values if isinstance(u_field, VectorField) else u_field.values[None]
    stack = np.concatenate([rho_field.values[None]] + [u] * factors)
    prod = u if factors == 1 else np.einsum("i...,j...->ij...", u, u)
    flux = (stack[0] * prod).reshape((-1,) + grid.shape)
    forms_pairing = factors == 2 and len(u) == grid.dims
    const = _product_constant(stack[0], u, factors, grid)
    results = []
    sups = ModulusTable(grid, stack, PRODUCT_P, (), scan.eps).ball_sups(scan.eps)
    for mol, sup in zip(scan.mollifiers, sups):
        stack_e = mollify_values(stack, mol)
        u_e = stack_e[1 : 1 + len(u)]
        prod_e = u_e if factors == 1 else np.einsum("i...,j...->ij...", u_e, u_e)
        comm = stack_e[0] * prod_e - mollify_values(flux, mol).reshape(prod.shape)
        norm = lp_norm_values(magnitude(comm, grid), PRODUCT_P / 2.0, vol)
        rhs1 = lp_norm_values(magnitude(stack_e - stack, grid), PRODUCT_P, vol) ** 2
        rhs2 = sup**2
        pairing = None
        if forms_pairing:   # R_eps = -comm; grad_e[i, j] = d_j u_i
            grad_e = np.stack([grad_values(c, grid.cell_width) for c in u_e])
            pairing = -vol * exact_sum(comm * grad_e)
        results.append(ProductCommutatorResult(norm, rhs1, rhs2, const, pairing))
    return results


def bilinear_commutator(rho_field: ScalarField, u_field: ScalarField | VectorField,
                        eps: float) -> ProductCommutatorResult:
    """rho_eps u_eps - (rho u)_eps with its proven modulus bound."""
    return _product_scan(rho_field, u_field, eps_scan(rho_field.grid, [eps]), 1)[0]


def triple_commutator(rho_field: ScalarField, u_field: ScalarField | VectorField,
                      eps: float) -> ProductCommutatorResult:
    """rho_eps u_eps (x) u_eps - (rho u (x) u)_eps, Frobenius magnitude."""
    return _product_scan(rho_field, u_field, eps_scan(rho_field.grid, [eps]), 2)[0]


def product_rate_fit(rho_field: ScalarField, u_field: ScalarField | VectorField,
                     scan: EpsScan, kind: str = "bilinear"):
    """Decay slope of a product commutator over a dyadic eps scan, and its results."""
    if kind not in _FACTORS:
        raise ValueError(f"unknown product commutator kind {kind!r}; known: bilinear, triple")
    results = _product_scan(rho_field, u_field, scan, _FACTORS[kind])
    return scan.slope([r.norm for r in results]), results

