"""Exact solver for the one-dimensional gamma-law Riemann problem.

Star-region pressure is found by Newton iteration on the standard pressure
function (two-rarefaction initial guess, relative tolerance 1e-12); the
self-similar solution is then sampled in xi = x / t.  Used both as a
reference oracle for shock tubes and to manufacture rarefaction-only data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .thermo import GasParams

NEWTON_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class Wave1D:
    """Constant state in (rho, u, p) on one side of the interface."""

    rho: float
    u: float
    p: float

    def __post_init__(self):
        if self.rho <= 0.0 or self.p <= 0.0:
            raise DomainError(f"Riemann state needs rho, p > 0, got {self}")

    def sound_speed(self, gamma: float) -> float:
        return float(np.sqrt(gamma * self.p / self.rho))


def _f_side(p: float, side: Wave1D, gamma: float) -> float:
    c = side.sound_speed(gamma)
    if p > side.p:
        a = 2.0 / ((gamma + 1.0) * side.rho)
        b = (gamma - 1.0) / (gamma + 1.0) * side.p
        return (p - side.p) * np.sqrt(a / (p + b))
    return 2.0 * c / (gamma - 1.0) * ((p / side.p) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)


def _df_side(p: float, side: Wave1D, gamma: float) -> float:
    c = side.sound_speed(gamma)
    if p > side.p:
        a = 2.0 / ((gamma + 1.0) * side.rho)
        b = (gamma - 1.0) / (gamma + 1.0) * side.p
        return np.sqrt(a / (b + p)) * (1.0 - (p - side.p) / (2.0 * (b + p)))
    return (p / side.p) ** (-(gamma + 1.0) / (2.0 * gamma)) / (side.rho * c)


def solve_star(left: Wave1D, right: Wave1D, params: GasParams) -> tuple[float, float]:
    """Star-region pressure and velocity via Newton iteration."""
    g = params.gamma
    cl, cr = left.sound_speed(g), right.sound_speed(g)
    if 2.0 * (cl + cr) / (g - 1.0) <= right.u - left.u:
        raise DomainError("states separate into vacuum; no positive-pressure solution")
    z = (g - 1.0) / (2.0 * g)
    guess = ((cl + cr - 0.5 * (g - 1.0) * (right.u - left.u))
             / (cl / left.p**z + cr / right.p**z)) ** (1.0 / z)
    p = max(guess, 1e-14)
    for _ in range(_MAX_ITER):
        f = _f_side(p, left, g) + _f_side(p, right, g) + (right.u - left.u)
        df = _df_side(p, left, g) + _df_side(p, right, g)
        step = f / df
        p_new = p - step
        if p_new <= 0.0:
            p_new = 0.5 * p
        if abs(p_new - p) < NEWTON_TOL * max(1.0, p):
            p = p_new
            break
        p = p_new
    else:
        raise RuntimeError("pressure iteration did not converge")
    u = 0.5 * (left.u + right.u) + 0.5 * (_f_side(p, right, g) - _f_side(p, left, g))
    return float(p), float(u)


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution; sample(xi) maps x/t to (rho, u, p) arrays."""

    left: Wave1D
    right: Wave1D
    gamma: float
    p_star: float
    u_star: float

    def max_signal_speed(self) -> float:
        """|u| + c over the outer states and the star states on both sides of
        the contact: it bounds every fan edge, a characteristic of one of
        them, and every shock, which runs between its two sides' (Lax)."""
        g = self.gamma
        speeds = [abs(st.u) + st.sound_speed(g) for st in (self.left, self.right)]
        speeds += [abs(self.u_star) + np.sqrt(g * self.p_star / self.star_density(side))
                   for side in ("left", "right")]
        return float(max(speeds))

    def star_density(self, side: str) -> float:
        g = self.gamma
        st = self.left if side == "left" else self.right
        ratio = self.p_star / st.p
        gm = (g - 1.0) / (g + 1.0)
        if ratio > 1.0:
            return st.rho * (ratio + gm) / (gm * ratio + 1.0)
        return st.rho * ratio ** (1.0 / g)

    @cached_property
    def _mirror(self) -> Wave1D:
        """The right state seen through x -> -x."""
        return Wave1D(self.right.rho, -self.right.u, self.right.p)

    def sample(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sample = np.vectorize(lambda s: self._sample_one(float(s)), otypes=[float] * 3)
        return sample(np.asarray(xi, dtype=float))

    def _sample_one(self, s: float) -> tuple[float, float, float]:
        """The right half of the fan is the left half of its mirror image
        (x -> -x, u -> -u); IEEE negation is exact, so both agree bit for bit."""
        if s <= self.u_star:
            return self._left_wave(self.left, "left", s, self.u_star)
        rho, u, p = self._left_wave(self._mirror, "right", -s, -self.u_star)
        return rho, -u, p

    def _left_wave(self, st: Wave1D, side: str, s: float,
                   us: float) -> tuple[float, float, float]:
        """Sample at s <= us the wave joining the left state ``st`` to the
        star state, which lies on ``side`` of the contact."""
        g = self.gamma
        ps = self.p_star
        c = st.sound_speed(g)
        if ps > st.p:
            shock = st.u - c * np.sqrt((g + 1.0) / (2.0 * g) * ps / st.p
                                       + (g - 1.0) / (2.0 * g))
            if s < shock:
                return st.rho, st.u, st.p
            return self.star_density(side), us, ps
        head = st.u - c
        if s < head:
            return st.rho, st.u, st.p
        c_star = c * (ps / st.p) ** ((g - 1.0) / (2.0 * g))
        tail = us - c_star
        if s > tail:
            return self.star_density(side), us, ps
        u_f = 2.0 / (g + 1.0) * (c + (g - 1.0) / 2.0 * st.u + s)
        c_f = 2.0 / (g + 1.0) * (c + (g - 1.0) / 2.0 * (st.u - s))
        rho_f = st.rho * (c_f / c) ** (2.0 / (g - 1.0))
        p_f = st.p * (c_f / c) ** (2.0 * g / (g - 1.0))
        return rho_f, u_f, p_f


def exact_riemann(left: Wave1D, right: Wave1D, params: GasParams) -> RiemannSolution:
    p_star, u_star = solve_star(left, right, params)
    return RiemannSolution(left, right, params.gamma, p_star, u_star)


def rarefaction_connected_state(left: Wave1D, rho_right: float,
                                params: GasParams) -> Wave1D:
    """Right state joined to `left` by a single expansion wave.

    Walks the left-wave isentrope (p proportional to rho**gamma) keeping the
    outgoing Riemann invariant u + 2c/(gamma-1) constant, so the resulting
    Riemann problem contains exactly one rarefaction fan.
    """
    g = params.gamma
    if not 0.0 < rho_right < left.rho:
        raise DomainError("need 0 < rho_right < left.rho for a pure expansion")
    p_right = left.p * (rho_right / left.rho) ** g
    cl = left.sound_speed(g)
    cr = float(np.sqrt(g * p_right / rho_right))
    u_right = left.u + 2.0 * (cl - cr) / (g - 1.0)
    return Wave1D(rho_right, u_right, p_right)


def periodic_double_riemann(left: Wave1D, right: Wave1D, params: GasParams):
    """Reference sampler for Riemann data embedded in the periodic domain.

    Data jumps left->right at x = 0 and back right->left at the identified
    endpoints x = +-1.  The returned sampler evaluates the exact solution at
    (x, t) as long as the two wave systems have not met, and raises once the
    fastest signals could interact.
    """
    inner = exact_riemann(left, right, params)
    outer = exact_riemann(right, left, params)
    horizon = 0.5 / max(inner.max_signal_speed(), outer.max_signal_speed())

    def sampler(x, t: float):
        if t > horizon:
            raise DomainError(
                f"wave systems may interact after t = {horizon:.4g}, got t = {t:.4g}"
            )
        x = np.asarray(x, dtype=float)
        wrapped = np.where(x > 0.0, x - 1.0, x + 1.0)
        use_inner = np.abs(x) <= 0.5
        r_i, u_i, p_i = inner.sample(x / t)
        r_o, u_o, p_o = outer.sample(wrapped / t)
        return (
            np.where(use_inner, r_i, r_o),
            np.where(use_inner, u_i, u_o),
            np.where(use_inner, p_i, p_o),
        )

    return sampler
