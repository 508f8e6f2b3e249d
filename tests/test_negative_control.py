"""A negative control: two weak solutions of one periodic Riemann datum.

L = (rho, u, p) = (1, 0, 1) and the state R on L's 1-Hugoniot locus at
p = 0.4, on its expansion branch, are joined by a jump at speed S that
satisfies the Rankine-Hugoniot conditions: a weak solution, but one whose
entropy falls across the jump.  The exact entropy solution of the same
periodic data (``exact_trajectory`` of a ``riemann`` init) is a second
weak solution.  The two agree outside |x| <= 0.5, and the monitors must
tell them apart: the relative entropy between them grows like t from 0,
which no Gronwall envelope from E(0) = 0 allows, the expansion shock's
one-sided Lipschitz constant grows like 1/dx, and the entropy solution's
is its fan's slope.
"""

import math

import numpy as np
import pytest

from eulerlab.conditions import oslip_discrete
from eulerlab.grid import PeriodicGrid
from eulerlab.relentropy import rel_entropy_total
from eulerlab.riemann import Wave1D
from eulerlab.solver import SolverConfig, exact_trajectory, snapshot_primitive
from eulerlab.thermo import GasParams

PARAMS = GasParams(1.4)
LEFT = Wave1D(1.0, 0.0, 1.0)
P_RIGHT = 0.4


def _expansion_shock():
    """The state R and the speed S of the 1-wave from LEFT on the Hugoniot
    locus at ``P_RIGHT`` < LEFT.p (closed forms, e.g. Toro ch. 4)."""
    g, left = PARAMS.gamma, LEFT
    a = 2.0 / ((g + 1.0) * left.rho)
    b = (g - 1.0) / (g + 1.0) * left.p
    u = left.u - (P_RIGHT - left.p) * math.sqrt(a / (P_RIGHT + b))
    ratio, gm = P_RIGHT / left.p, (g - 1.0) / (g + 1.0)
    rho = left.rho * (ratio + gm) / (gm * ratio + 1.0)
    speed = left.u - left.sound_speed(g) * math.sqrt(
        (g + 1.0) / (2.0 * g) * ratio + (g - 1.0) / (2.0 * g))
    return Wave1D(rho, u, P_RIGHT), speed


RIGHT, SPEED = _expansion_shock()


def _conserved(w: Wave1D):
    energy = w.p / (PARAMS.gamma - 1.0) + 0.5 * w.rho * w.u * w.u
    return np.array([w.rho, w.rho * w.u, energy])


def _flux(w: Wave1D):
    rho, m, energy = _conserved(w)
    return np.array([m, m * w.u + w.p, (energy + w.p) * w.u])


def _pair(cells: int, t: float):
    """(grid, expansion shock, entropy solution) as (rho, vel, theta) triples at t."""
    init = {"name": "riemann", "left": [LEFT.rho, LEFT.u, LEFT.p],
            "right": [RIGHT.rho, RIGHT.u, RIGHT.p]}
    cfg = SolverConfig(grid=PeriodicGrid(1, cells), params=PARAMS, t_end=t, init=init)
    rho, vel, theta = snapshot_primitive(exact_trajectory(cfg, [t]).snapshots[0], PARAMS)
    x = cfg.grid.axis_centers()
    left_of_jump = x < SPEED * t
    shock = [np.where(np.abs(x) <= 0.5, np.where(left_of_jump, lv, rv), ev)
             for lv, rv, ev in zip((LEFT.rho, LEFT.u, LEFT.p / LEFT.rho),
                                   (RIGHT.rho, RIGHT.u, RIGHT.p / RIGHT.rho),
                                   (rho, vel[0], theta))]
    return cfg.grid, (shock[0], shock[1][None], shock[2]), (rho, vel, theta)


def test_the_jump_is_a_weak_solution():
    """Rankine-Hugoniot: S [U] = [F(U)] in mass, momentum and energy."""
    residual = SPEED * (_conserved(RIGHT) - _conserved(LEFT)) - (_flux(RIGHT) - _flux(LEFT))
    assert np.all(np.abs(residual) <= 1e-15)
    assert RIGHT.rho == pytest.approx(0.5312, abs=1e-4)
    assert RIGHT.u == pytest.approx(0.7276, abs=1e-4)
    assert SPEED == pytest.approx(-0.8246, abs=1e-4)


def test_the_jump_destroys_entropy():
    """Mass crosses from L to R (m > 0) while s = log(p / rho^gamma) falls:
    the entropy production m [s] is negative, so the shock is inadmissible."""
    g = PARAMS.gamma
    mass_flux = LEFT.rho * (LEFT.u - SPEED)
    assert mass_flux == pytest.approx(RIGHT.rho * (RIGHT.u - SPEED), rel=1e-14)
    jump = math.log(RIGHT.p / RIGHT.rho**g) - math.log(LEFT.p / LEFT.rho**g)
    assert mass_flux > 0.0 and jump < 0.0
    assert mass_flux * jump == pytest.approx(-0.0254, abs=1e-3)


def test_relative_entropy_grows_like_t_from_zero():
    """E(shock | entropy solution) is 0 at t = 0 and grows linearly: E / t is
    constant to 1% (where the jump falls inside its cell sets the spread)."""
    per_t = []
    for t in (0.025, 0.05, 0.1, 0.2):
        grid, shock, exact = _pair(8192, t)
        per_t.append(rel_entropy_total(grid, shock, exact, PARAMS) / t)
    assert min(per_t) > 0.0
    assert (max(per_t) - min(per_t)) / min(per_t) <= 0.01


def test_one_sided_lipschitz_constant_separates_the_pair():
    """At t = 0.1 the expansion shock's constant grows like 1/dx, about 4x per
    4x refinement; the entropy solution's is its fan's slope 2 / ((gamma + 1) t)."""
    t = 0.1
    fan = 2.0 / ((PARAMS.gamma + 1.0) * t)
    shock_c = []
    for cells in (512, 2048, 8192):
        grid, shock, exact = _pair(cells, t)
        shock_c.append(oslip_discrete(grid, shock[1]))
        assert oslip_discrete(grid, exact[1]) == pytest.approx(fan, abs=1e-9)
    for coarse, fine in zip(shock_c, shock_c[1:]):
        assert 3.9 <= fine / coarse <= 4.1
