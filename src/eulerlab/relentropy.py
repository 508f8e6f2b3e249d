"""Relative entropy between a candidate flow and a regular reference flow.

The density splits into a kinetic part and a thermodynamic part,

    E = |m - rho*u_ref|^2 / (2 rho)
      + rho * c_V * (Theta - T - T log(Theta / T))
      + T * (rho log(rho / r) - rho + r),

an algebraic rearrangement of the linearized ballistic free energy that
makes non-negativity explicit: both bracketed factors are Bregman gaps of
convex functions, zero exactly at state equality.  The candidate temperature
Theta of an entropic-variable state is recovered from (rho, S); a trajectory
snapshot gives it directly, as it gives the reference temperature T.

On top of the pointwise density sit the coercivity-gap check (quadratic
lower bound with a constant calibrated per state box) and the Gronwall
monitor that tracks the integral of E between two trajectories against the
budget built from the reference's one-sided Lipschitz constant and its
temperature gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import oslip_discrete
from .errors import DomainError
from .grid import PeriodicGrid, exact_sum, grad_values, shift_values, time_trapezoid, time_window
from .solver import Snapshot, Trajectory, snapshot_primitive
from .thermo import (
    EntropicState,
    GasParams,
    PrimitiveState,
    entropy,
    theta_of,
)

#: Structural factor turning measured W^{1,inf} temperature data into the
#: thermodynamic Gronwall constant.  Heuristic: the continuum constants are
#: known to exist but carry no explicit form, so the factor was calibrated
#: once on the double-rarefaction refinement family (worst observed need
#: 0.7) and frozen with headroom.
KAPPA_STRUCT = 5.0

#: Intervals with integral below this floor are skipped, not ratioed.
INTEGRAL_FLOOR = 1e-14


def _bregman_temperature(theta_cand, t_ref):
    # w - 1 - log(w) >= 0; clamp shields the ulp-level cancellation at w = 1
    d = theta_cand / t_ref - 1.0
    return np.maximum(d - np.log1p(d), 0.0)


def _bregman_density(rho, r_ref):
    w = rho / r_ref
    return np.maximum(w * np.log(w) - w + 1.0, 0.0)


def rel_entropy_terms(rho, mom, theta_cand, r_ref, u_ref, t_ref,
                      params: GasParams) -> np.ndarray:
    """Pointwise relative entropy E with the candidate temperature given.

    Vector momenta/velocities carry the component axis first.  Equal inputs
    produce an exact floating-point zero.
    """
    rho = np.asarray(rho, dtype=float)
    mom = np.asarray(mom, dtype=float)
    r_ref = np.asarray(r_ref, dtype=float)
    t_ref = np.asarray(t_ref, dtype=float)
    if np.min(rho) <= 0.0 or np.min(np.asarray(theta_cand)) <= 0.0:
        raise DomainError("candidate density and temperature must be positive")
    if np.min(r_ref) <= 0.0 or np.min(t_ref) <= 0.0:
        raise DomainError("reference density and temperature must be positive")
    slip = mom - rho * np.asarray(u_ref, dtype=float)
    slip_sq = slip * slip if slip.ndim == rho.ndim else np.sum(slip * slip, axis=0)
    thermo = (params.cv * rho * t_ref * _bregman_temperature(theta_cand, t_ref)
              + t_ref * r_ref * _bregman_density(rho, r_ref))
    return 0.5 * slip_sq / rho + thermo


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateBox:
    """Admissible (rho, theta) rectangle for both states."""

    rho_min: float
    rho_max: float
    theta_min: float
    theta_max: float

    def contains(self, rho, theta) -> bool:
        return bool(
            np.min(rho) >= self.rho_min
            and np.max(rho) <= self.rho_max
            and np.min(theta) >= self.theta_min
            and np.max(theta) <= self.theta_max
        )


@dataclass(frozen=True)
class CoercivityCalibration:
    box: StateBox
    c_hat: float        # quadratic branch constant, 0.9 x sampled min ratio
    c_far: float        # unbounded branch constant, same rule outside 2x box


def _quadratic_form(rho, vel_cand, theta_cand, r_ref, u_ref, t_ref):
    return (
        0.5 * rho * (vel_cand - u_ref) ** 2
        + (rho - r_ref) ** 2
        + (theta_cand - t_ref) ** 2
    )


def _far_form(rho, vel_cand, theta_cand, r_ref, u_ref, params):
    s = entropy(rho, theta_cand, params)
    e = params.cv * theta_cand
    return 0.5 * rho * (vel_cand - u_ref) ** 2 + 1.0 + np.abs(rho * s) + e


_SOBOL_BITS = 30
#: place value of each bit of a direction number, most significant first
_SOBOL_PLACE = 2 ** np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


def _sobol_directions() -> np.ndarray:
    """Joe-Kuo direction numbers of the first six dimensions, scaled to 30 bits."""
    rows = [[1] * _SOBOL_BITS]
    for poly, vinit in zip((3, 7, 11, 13, 19),
                           ((1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3))):
        deg = poly.bit_length() - 1
        v = list(vinit)
        for k in range(deg, _SOBOL_BITS):
            x = v[k - deg] ^ (v[k - deg] << deg)
            for lag in range(1, deg):
                if poly >> (deg - lag) & 1:
                    x ^= v[k - lag] << lag
            v.append(x)
        rows.append(v)
    return np.array(rows, dtype=np.uint32) * _SOBOL_PLACE


_SOBOL_V = _sobol_directions()

#: Points per block of the coercivity calibration and of the relative-entropy
#: gate's sample check: 64 kB per array, so the scan's footprint does not
#: grow with the sample count.
CALIBRATION_BLOCK = 2**13


def _sobol_blocks(n: int, seed: int):
    """scipy's ``qmc.Sobol(d=6, scramble=True, seed=seed).random(n)``, byte for
    byte, as consecutive (rows, 6) blocks of ``CALIBRATION_BLOCK`` rows.

    ``n`` is checked before anything is drawn.  The points are held as their
    30-bit words, one row per dimension, and a block is scaled to [0, 1) only
    when it is reached.  The seed's Generator draws the digital shift, then
    the lower-triangular LMS matrices (unit diagonal), each applied over GF(2)
    to the bits of a direction number, most significant first. In Gray-code
    order, points [h, 2h) are points [0, h) reversed, XOR the scrambled
    direction log2(h), so point i is the shift XOR the directions of the bits
    of gray(i) = i ^ (i >> 1).  Only the first block is built so; as
    gray(start + k) = gray(start) ^ gray(k) for k < ``CALIBRATION_BLOCK``
    and ``start`` a multiple of it, the block at ``start`` is the first block
    XOR the directions of gray(start).
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 2**_SOBOL_BITS:
        raise ValueError(f"n must be an int in [1, 2**{_SOBOL_BITS}]: a {_SOBOL_BITS}-bit "
                         f"Sobol sequence has at most 2**{_SOBOL_BITS} points, got n={n!r}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(6, _SOBOL_BITS), dtype=np.uint32) @ _SOBOL_PLACE[::-1]
    ltm = np.tril(rng.integers(0, 2, size=(6, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    bits = _SOBOL_V[:, :, None] // _SOBOL_PLACE & 1
    sv = (np.einsum("dpm,djm->djp", ltm, bits) & 1) @ _SOBOL_PLACE
    size = min(1 << (n - 1).bit_length(), CALIBRATION_BLOCK)
    x = np.empty((6, size), dtype=np.uint32)
    x[:, 0] = shift
    for b in range(size.bit_length() - 1):
        h = 1 << b
        np.bitwise_xor(x[:, h - 1::-1], sv[:, b, None], out=x[:, h:2 * h])

    def block(start):
        gray = start ^ start >> 1
        offset = np.bitwise_xor.reduce(sv[:, [b for b in range(_SOBOL_BITS) if gray >> b & 1]],
                                       axis=1)
        return (x[:, :min(CALIBRATION_BLOCK, n - start)] ^ offset[:, None]).T * 2.0**-_SOBOL_BITS

    return map(block, range(0, n, CALIBRATION_BLOCK))


def _sampled_min(n: int, seed: int, ratio) -> float:
    """np.min of ``ratio(points)`` over the Sobol points, one block at a time;
    a NaN anywhere gives NaN, and a ratio empty in every block a ValueError."""
    minima = [np.min(r) for r in map(ratio, _sobol_blocks(n, seed)) if r.size]
    if not minima:
        raise ValueError(f"no sampled pair of the {n} points is off the diagonal")
    return float(np.min(minima))


def calibrate_coercivity(box: StateBox, params: GasParams, n: int = 2**17,
                         seed: int = 20240) -> CoercivityCalibration:
    """Freeze coercivity constants by Sobol-sampling state pairs.

    The quadratic constant is 0.9 times the sampled minimum of E over the
    quadratic form for in-box pairs; the far constant repeats the rule with
    the candidate pushed outside twice the box (reference still inside).
    The sampler is ``_sobol_blocks``: Joe-Kuo direction numbers, LMS plus
    digital-shift scrambling, the same points as scipy's scrambled Sobol
    (``qmc.Sobol(d=6, scramble=True)``), seeds ``seed`` and ``seed + 1``.
    Both branches scan their points in blocks, and only one branch's points
    are held at a time.
    """
    lo = np.array([box.rho_min, box.theta_min, -1.0, box.rho_min, box.theta_min, -1.0])
    hi = np.array([box.rho_max, box.theta_max, 1.0, box.rho_max, box.theta_max, 1.0])

    def near(u01):
        rho, theta_c, vel_c, r_ref, t_ref, u_ref = (lo + u01 * (hi - lo)).T
        dens = rel_entropy_terms(rho, rho * vel_c, theta_c, r_ref, u_ref, t_ref, params)
        quad = _quadratic_form(rho, vel_c, theta_c, r_ref, u_ref, t_ref)
        mask = quad > 1e-30
        return dens[mask] / quad[mask]

    # far branch: candidate outside twice the box, reference in box
    def far(u01):
        rho_f = np.where(u01[:, 0] < 0.5,
                         box.rho_min * 0.5 * (0.2 + 1.6 * u01[:, 1]),
                         box.rho_max * 2.0 * (1.0 + 4.0 * u01[:, 1]))
        th_f = np.where(u01[:, 2] < 0.5,
                        box.theta_min * 0.5 * (0.2 + 1.6 * u01[:, 3]),
                        box.theta_max * 2.0 * (1.0 + 4.0 * u01[:, 3]))
        vel_f = -1.0 + 2.0 * u01[:, 4]
        r_ref = box.rho_min + (box.rho_max - box.rho_min) * u01[:, 5]
        t_ref = box.theta_min + (box.theta_max - box.theta_min) * u01[:, 0]
        u_ref = 1.0 - 2.0 * u01[:, 1]
        dens = rel_entropy_terms(rho_f, rho_f * vel_f, th_f, r_ref, u_ref, t_ref, params)
        return dens / _far_form(rho_f, vel_f, th_f, r_ref, u_ref, params)

    c_hat = 0.9 * _sampled_min(n, seed, near)
    c_far = 0.9 * _sampled_min(n, seed + 1, far)
    return CoercivityCalibration(box, c_hat, c_far)


@dataclass(frozen=True)
class CoercivityResult:
    branch: str            # "quadratic" inside the box, "far" outside
    gap: np.ndarray        # E - c * lower-bound form, pointwise
    lower_form: np.ndarray
    density: np.ndarray    # E, pointwise


def coercivity_gap(state: EntropicState, ref: PrimitiveState,
                   calibration: CoercivityCalibration,
                   params: GasParams) -> CoercivityResult:
    """Pointwise gap E - C * (coercive lower-bound form), and E itself.

    In-box pairs are held against the quadratic form with the calibrated
    constant; a candidate leaving the box is reported against the unbounded
    branch instead of raising.
    """
    theta_cand = theta_of(state.rho, state.total_entropy, params)
    if not calibration.box.contains(ref.rho, ref.theta):
        raise DomainError("reference state leaves the calibration box")
    dens = rel_entropy_terms(
        state.rho, state.mom, theta_cand, ref.rho, ref.vel, ref.theta, params
    )
    vel_cand = state.mom / state.rho
    if calibration.box.contains(state.rho, theta_cand):
        form = _quadratic_form(state.rho, vel_cand, theta_cand, ref.rho, ref.vel, ref.theta)
        c = calibration.c_hat
        branch = "quadratic"
    else:
        form = _far_form(state.rho, vel_cand, theta_cand, ref.rho, ref.vel, params)
        c = calibration.c_far
        branch = "far"
    return CoercivityResult(branch, dens - c * form, form, dens)


# ---------------------------------------------------------------------------
# trajectory-level monitor
# ---------------------------------------------------------------------------


def rel_entropy_total(grid: PeriodicGrid, cand: tuple, ref: tuple,
                      params: GasParams) -> float:
    """Integral over the domain of the relative entropy density.

    Both states are (rho, vel, theta) triples, as ``snapshot_primitive``
    reads a snapshot, so a state against itself gives exactly 0: no
    temperature round trip through (rho, S) and no momentum slip
    m - rho (m / rho) is left over.
    """
    c_rho, c_vel, c_theta = cand
    r_rho, r_vel, r_theta = ref
    if c_rho.shape != grid.shape or r_rho.shape != grid.shape:
        raise ValueError("snapshots do not live on the given grid")
    dens = rel_entropy_terms(c_rho, c_rho * c_vel, c_theta, r_rho, r_vel, r_theta, params)
    return grid.cell_volume * exact_sum(dens)


@dataclass
class RelEntropyTrace:
    times: np.ndarray
    integral: np.ndarray       # integral of E at each time
    oslip_c: np.ndarray        # one-sided Lipschitz constant of the reference
    k_thermo: np.ndarray       # heuristic thermodynamic constant (KAPPA_STRUCT)
    fitted_k: np.ndarray       # per-interval growth rate, NaN where skipped
    skipped: np.ndarray        # intervals with integral below the floor

    @property
    def budget(self) -> np.ndarray:
        return np.maximum(self.oslip_c, 0.0) + self.k_thermo

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """relentropy_trace.csv: each column under its header name, in file
        order.  ``pass`` checks each interval's growth rate against the budget
        at the interval's end (a skipped interval or a NaN rate passes); it is
        not the envelope verdict of ``gronwall_envelope_check``."""
        budget = self.budget
        return {"t": self.times, "integral_E": self.integral, "oslip_C": self.oslip_c,
                "k_thermo": self.k_thermo, "budget": budget, "fitted_K": self.fitted_k,
                "pass": self.skipped | np.isnan(self.fitted_k) | (self.fitted_k <= budget)}


def gronwall_monitor(traj_a: Trajectory, traj_b: Trajectory, params: GasParams,
                     sigma: float | None = None) -> RelEntropyTrace:
    """Track integral E(a | b) and the Gronwall budget of the reference b.

    Both trajectories must share gas, grid and snapshot times.  The reported
    window starts at ``sigma`` (default: two snapshot strides in, mirroring
    the vanishing-initial-layer convention); a non-finite ``sigma``, or one
    that leaves fewer than two snapshots in the window, is a ValueError.
    """
    if traj_a.params != traj_b.params:
        raise ValueError(f"trajectories of different gases: {traj_a.params}, {traj_b.params}")
    if traj_a.grid != traj_b.grid:
        raise ValueError("trajectories live on different grids")
    ta, tb = traj_a.times, traj_b.times
    if len(ta) != len(tb) or any(abs(x - y) > 1e-12 for x, y in zip(ta, tb)):
        raise ValueError("trajectories carry different snapshot times")
    grid = traj_a.grid
    if sigma is None:
        stride = ta[1] - ta[0] if len(ta) > 1 else 0.0
        sigma = ta[0] + 2.0 * stride
    inside = time_window(ta, sigma, "sigma")
    if np.count_nonzero(inside) < 2:
        raise ValueError(f"need at least two snapshots past sigma={sigma}")
    times = np.asarray(ta)[inside]
    pairs = [(a, b) for a, b, keep in zip(traj_a.snapshots, traj_b.snapshots, inside) if keep]
    integral, oslip, w1inf = [], [], []
    unit = np.eye(grid.dims, dtype=int)
    theta_prev = None
    # one pass: each snapshot is converted once, and the reference's triple
    # feeds E, the one-sided Lipschitz constant and the W^{1,inf} budget
    for j, (cand, ref) in enumerate(pairs):
        prim = snapshot_primitive(ref, params)
        integral.append(rel_entropy_total(grid, snapshot_primitive(cand, params), prim, params))
        _, vel, theta = prim
        oslip.append(oslip_discrete(grid, vel))
        grad_sup = max(
            float(np.max(np.abs(shift_values(theta, off) - theta))) / grid.cell_width
            for off in unit
        )
        if theta_prev is not None:
            dt_loc = times[j] - times[j - 1]
            time_sup = float(np.max(np.abs(theta - theta_prev))) / dt_loc
        else:
            time_sup = 0.0
        w1inf.append(max(grad_sup, time_sup))
        theta_prev = theta
    integral = np.array(integral)
    oslip_c = np.array(oslip)
    k_thermo = KAPPA_STRUCT * np.array(w1inf)
    mean, _ = time_trapezoid(times, integral)
    skipped = np.concatenate(([False], mean < INTEGRAL_FLOOR))
    fitted = np.full(len(times), np.nan)
    np.divide(np.diff(integral), mean, out=fitted[1:], where=~skipped[1:])
    return RelEntropyTrace(times, integral, oslip_c, k_thermo, fitted, skipped)


@dataclass(frozen=True)
class GronwallCheck:
    ok: bool
    utilization: float          # max of E(t) / envelope(t), 1.0 is the limit
    vacuous_from: float | None  # first time the envelope is inf (E(sigma) > 0), else None
    broken_at: float | None     # first time E(t) exceeds the envelope (or is NaN), else None
    broken_ratio: float | None  # E(t) / envelope(t) at broken_at

    @property
    def where_broken(self) -> str:
        """The clause a FAIL line adds: when the envelope first broke, and by how much."""
        return ("" if self.ok else f", first broken at t = {self.broken_at:.3g} "
                f"with E/envelope {self.broken_ratio:.3g}")


def _envelope(e_sigma: float, exponent: float) -> float:
    """E(sigma) * exp(exponent), inf past the float range (0 if E(sigma) = 0).
    A Python float product overflows to inf without numpy's warning."""
    try:
        return float(e_sigma) * math.exp(exponent)
    except OverflowError:
        return e_sigma * math.inf if e_sigma != 0.0 else e_sigma


def gronwall_envelope_check(trace: RelEntropyTrace) -> GronwallCheck:
    """Verify E(t) <= E(sigma) * exp(integral of budget) on the trace's window
    [sigma, T]; a failure records the first time past sigma that broke it."""
    values = trace.integral
    _, exponent = time_trapezoid(trace.times, trace.budget)
    envelope = np.array([_envelope(values[0], a) for a in exponent])
    # the ratio at sigma itself is identically one; report the later max.  A
    # zero envelope allows only E(t) = 0 (E(sigma) = 0 forces it): ratio 0, else inf
    zero = np.where(values[1:] == 0.0, 0.0, np.inf)
    ratio = np.divide(values[1:], envelope[1:], out=zero, where=envelope[1:] != 0.0)
    util = float(np.max(ratio)) if len(values) > 1 else 1.0
    # past that time any finite E(t) passes: the check there says nothing
    infinite = np.flatnonzero(envelope == math.inf)
    vacuous_from = float(trace.times[infinite[0]]) if infinite.size else None
    broken = np.flatnonzero(~(ratio <= 1.0))
    broken_at, broken_ratio = ((float(trace.times[broken[0] + 1]), float(ratio[broken[0]]))
                               if broken.size else (None, None))
    return GronwallCheck(bool(util <= 1.0), util, vacuous_from, broken_at, broken_ratio)


def j1_term(grid: PeriodicGrid, cand: Snapshot, ref: Snapshot,
            params: GasParams, mask: np.ndarray | None = None) -> float:
    """Diagnostic integral J1 of rho (u - v) tensor (v - u) : grad v.

    The velocity-gradient coupling term of the stability budget.  With
    w = u - v, J1 = -int rho w_i w_j d_j v_i, so in 1D it is at most
    sup(-d_x v) int rho w^2: the compression side of grad v bounds it, on
    the lattice ``oslip_discrete(grid, -v)``, as the central gradient is the
    mean of two one-cell quotients.  ``oslip_C``, the stretching side
    sup(d_x v), does not bound J1.  ``mask`` restricts the integral, e.g.
    to exclude the compressive wrap jumps of periodically embedded profiles
    (a discrete reference violates the shock-free assumption there).
    """
    c_rho, c_vel, _ = snapshot_primitive(cand, params)
    _, r_vel, _ = snapshot_primitive(ref, params)
    w = c_vel - r_vel
    grad_v = np.stack([grad_values(v, grid.cell_width) for v in r_vel])   # [i, j]: d_j v_i
    cell = np.einsum("...,i...,j...,ij...->...", -c_rho, w, w, grad_v)
    return grid.cell_volume * exact_sum(cell if mask is None else cell[mask])
