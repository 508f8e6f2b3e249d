"""Ideal-gas thermodynamic closure.

Pressure obeys p = rho * theta, the internal energy is e = c_V * theta with
c_V * (gamma - 1) = 1, and the specific entropy is

    s(rho, theta) = c_V * log(theta) - log(rho).

On top of the closures this module provides the ballistic free energy
H_T(rho, theta) = rho*e - T*rho*s, the pressure as a convex function of the
density and the total entropy S = rho*s with closed-form gradient and
Hessian, and residual checks for the differential identities the closure
satisfies.  All derivatives are closed-form; central differences are
offered only as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

#: Densities/temperatures below this are treated as vacuum and rejected.
POSITIVE_FLOOR = 1e-12


@dataclass(frozen=True)
class GasParams:
    """Adiabatic index of the gas; the specific heat c_V is derived.

    Parameters
    ----------
    gamma : float
        Adiabatic index, must exceed 1.

    Attributes
    ----------
    cv : float
        Specific heat at constant volume, fixed by cv * (gamma - 1) = 1.
    """

    gamma: float = 1.4

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma) or self.gamma <= 1.0:
            raise DomainError(f"adiabatic index must be > 1, got {self.gamma}")

    @property
    def cv(self) -> float:
        return 1.0 / (self.gamma - 1.0)


def _require_positive(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.min(arr) < POSITIVE_FLOOR:
        bad = None if arr.size == 0 else np.min(arr)
        raise DomainError(f"{name} must be positive (>= {POSITIVE_FLOOR:g}), got min {bad}")
    return arr


def pressure(rho, theta, params: GasParams):
    """Thermal pressure p = rho * theta."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    return rho * theta


def pressure_dtheta(rho, theta, params: GasParams):
    """d p / d theta at fixed rho."""
    _require_positive("theta", theta)
    return np.asarray(rho, dtype=float) + 0.0 * np.asarray(theta, dtype=float)


def internal_energy(theta, params: GasParams):
    """Specific internal energy e = c_V * theta."""
    theta = _require_positive("theta", theta)
    return params.cv * theta


def entropy(rho, theta, params: GasParams):
    """Specific entropy s = c_V * log(theta) - log(rho)."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    return params.cv * np.log(theta) - np.log(rho)


def entropy_drho(rho, theta, params: GasParams):
    """d s / d rho = -1 / rho."""
    rho = _require_positive("rho", rho)
    return -1.0 / rho


def entropy_dtheta(rho, theta, params: GasParams):
    """d s / d theta = c_V / theta."""
    theta = _require_positive("theta", theta)
    return params.cv / theta


def ballistic_free_energy(rho, theta, t_ref, params: GasParams):
    """Ballistic free energy H_T(rho, theta) = rho*e(theta) - T*rho*s(rho, theta)."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    t_ref = _require_positive("t_ref", t_ref)
    return rho * internal_energy(theta, params) - t_ref * rho * entropy(rho, theta, params)


def ballistic_drho(rho, t_ref, params: GasParams):
    """d H_T / d rho evaluated on the diagonal theta = T.

    Closed form c_V*T - T*s(rho, T) + T; satisfies rho * dH = H + p.
    """
    rho = _require_positive("rho", rho)
    t_ref = _require_positive("t_ref", t_ref)
    return params.cv * t_ref - t_ref * entropy(rho, t_ref, params) + t_ref


def tilde_pressure_derivatives(rho, total_entropy, params: GasParams):
    """Value, gradient and Hessian of the (rho, S) pressure, closed form.

    Returns
    -------
    value : ndarray
    grad : ndarray
        Stacked (d/drho, d/dS) along the first axis.
    hess : ndarray
        Stacked 2x2 symmetric Hessian along the first two axes.  Its
        determinant is (gamma-1)**3 * rho**(2*gamma-4) * exp(...)**2 > 0, so
        the matrix is positive definite for rho > 0.

    Raises
    ------
    RangeError
        If a returned value is not finite; the message reports the exponent.
    """
    rho = _require_positive("rho", rho)
    s_tot = np.asarray(total_entropy, dtype=float)
    g = params.gamma
    a = g - 1.0
    w = s_tot / rho
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow shows in the values
        aw = a * w
        expf = np.exp(aw)
        value = rho**g * expf
        p_r = rho ** (g - 1.0) * expf * (g - aw)
        p_s = a * rho ** (g - 1.0) * expf
        p_rr = a * rho ** (g - 2.0) * expf * (g - 2.0 * aw + aw * w)
        p_rs = a * a * rho ** (g - 2.0) * expf * (1.0 - w)
        p_ss = a * a * rho ** (g - 2.0) * expf
    grad = np.stack([p_r, p_s])
    hess = np.stack([np.stack([p_rr, p_rs]), np.stack([p_rs, p_ss])])
    if not all(np.isfinite(v).all() for v in (value, grad, hess)):
        raise RangeError(f"(rho, S) pressure derivatives overflow: exponent "
                         f"{np.max(aw):.3g} in exp((gamma - 1) * S / rho)")
    return value, grad, hess


def verify_gibbs(rho, theta, params: GasParams, fd_step: float | None = None):
    """Residuals of the thermodynamic compatibility identity.

    Checks |theta * ds/drho - (de/drho - p/rho**2)| and
    |theta * ds/dtheta - de/dtheta|, using the closed-form derivatives, or
    central differences of step ``fd_step`` when given (residual then decays
    as O(fd_step**2)).
    """
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    p = pressure(rho, theta, params)
    de_r = np.zeros_like(rho * theta)  # e carries no rho dependence
    if fd_step is None:
        ds_r = entropy_drho(rho, theta, params)
        ds_t = entropy_dtheta(rho, theta, params)
        de_t = params.cv + 0.0 * theta
    else:
        h = float(fd_step)
        ds_r = (entropy(rho + h, theta, params) - entropy(rho - h, theta, params)) / (2 * h)
        ds_t = (entropy(rho, theta + h, params) - entropy(rho, theta - h, params)) / (2 * h)
        de_t = (internal_energy(theta + h, params) - internal_energy(theta - h, params)) / (2 * h)
    res1 = np.abs(theta * ds_r - (de_r - p / rho**2))
    res2 = np.abs(theta * ds_t - de_t)
    return res1, res2


def verify_p2(r, t_ref, params: GasParams, fd_step: float | None = None):
    """Residuals of the three ballistic free-energy identities.

    1. r * dH/dr - (H + p)
    2. r * ds/dr + (1/r) * dp/dT
    3. dH/dT + r * s

    Closed-form residuals are zero up to rounding; with ``fd_step`` the
    derivatives are replaced by central differences.
    """
    r = _require_positive("r", r)
    t_ref = _require_positive("t_ref", t_ref)
    h_val = ballistic_free_energy(r, t_ref, t_ref, params)
    p = pressure(r, t_ref, params)
    s = entropy(r, t_ref, params)
    if fd_step is None:
        dh_r = ballistic_drho(r, t_ref, params)
        ds_r = entropy_drho(r, t_ref, params)
        dp_t = pressure_dtheta(r, t_ref, params)
        dh_t = -r * s
    else:
        h = float(fd_step)
        dh_r = (
            ballistic_free_energy(r + h, t_ref, t_ref, params)
            - ballistic_free_energy(r - h, t_ref, t_ref, params)
        ) / (2 * h)
        ds_r = (entropy(r + h, t_ref, params) - entropy(r - h, t_ref, params)) / (2 * h)
        dp_t = (pressure(r, t_ref + h, params) - pressure(r, t_ref - h, params)) / (2 * h)
        # both the subscript parameter and the evaluation point move with T
        dh_t = (
            ballistic_free_energy(r, t_ref + h, t_ref + h, params)
            - ballistic_free_energy(r, t_ref - h, t_ref - h, params)
        ) / (2 * h)
    res1 = np.abs(r * dh_r - (h_val + p))
    res2 = np.abs(r * ds_r + dp_t / r)
    res3 = np.abs(dh_t + r * s)
    return res1, res2, res3

