import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import relentropy
from eulerlab.conditions import oslip_discrete
from eulerlab.errors import DomainError
from eulerlab.grid import PeriodicGrid, exact_sum
from eulerlab.relentropy import (
    INTEGRAL_FLOOR,
    RelEntropyTrace,
    StateBox,
    calibrate_coercivity,
    coercivity_gap,
    gronwall_envelope_check,
    gronwall_monitor,
    j1_term,
    rel_entropy_terms,
    rel_entropy_total,
)
from eulerlab.solver import (
    SolverConfig,
    Snapshot,
    Trajectory,
    project_trajectory,
    run,
    snapshot_primitive,
)
from eulerlab.thermo import (
    GasParams,
    ballistic_drho,
    ballistic_free_energy,
    entropy,
    internal_energy,
)

BOX = StateBox(0.5, 2.0, 0.5, 2.0)


def _direct_form(rho, mom, theta_cand, r_ref, u_ref, t_ref, params):
    """Textbook assembly: kinetic + linearized ballistic free energy."""
    kin = 0.5 * rho * (mom / rho - u_ref) ** 2
    h_val = ballistic_free_energy(r_ref, t_ref, t_ref, params)
    dh = ballistic_drho(r_ref, t_ref, params)
    thermo = (
        rho * internal_energy(theta_cand, params)
        - rho * t_ref * entropy(rho, theta_cand, params)
        - dh * (rho - r_ref)
        - h_val
    )
    return kin + thermo


class TestDensity:
    def test_exact_zero_at_equality(self, gamma14):
        rho, theta = 1.37, 0.82
        u = 0.41
        dens = rel_entropy_terms((rho, u, theta), (rho, u, theta), gamma14)
        # E is a kinetic part plus a thermal part, both >= 0: an exact zero is both
        assert dens == 0.0

    def test_velocity_offset_is_pure_kinetic(self, gamma2):
        rho, theta, du = 1.5, 1.1, 0.3
        dens = rel_entropy_terms((rho, 0.2 + du, theta), (rho, 0.2, theta), gamma2)
        # the thermal part adds an exact zero to the kinetic part
        slip = rho * (0.2 + du) - rho * 0.2
        assert dens == 0.5 * (slip * slip) / rho
        assert dens == pytest.approx(0.5 * rho * du**2, rel=1e-12)

    def test_matches_direct_ballistic_assembly(self, gamma14):
        rng = np.random.default_rng(42)
        rho = rng.uniform(0.5, 2.0, 500)
        theta = rng.uniform(0.5, 2.0, 500)
        vel = rng.uniform(-1.0, 1.0, 500)
        r_ref = rng.uniform(0.5, 2.0, 500)
        t_ref = rng.uniform(0.5, 2.0, 500)
        u_ref = rng.uniform(-1.0, 1.0, 500)
        ours = rel_entropy_terms((rho, vel, theta), (r_ref, u_ref, t_ref), gamma14)
        direct = _direct_form(rho, rho * vel, theta, r_ref, u_ref, t_ref, gamma14)
        np.testing.assert_allclose(ours, direct, rtol=1e-10, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(0.5, 2.0), theta=st.floats(0.5, 2.0), v=st.floats(-1.0, 1.0),
        r=st.floats(0.5, 2.0), t=st.floats(0.5, 2.0), u=st.floats(-1.0, 1.0),
    )
    def test_nonnegative_on_box(self, rho, theta, v, r, t, u):
        dens = rel_entropy_terms((rho, v, theta), (r, u, t), GasParams(1.4))
        assert dens >= 0.0

    def test_nonnegative_even_far_from_box(self, gamma14):
        rng = np.random.default_rng(1)
        rho = np.exp(rng.uniform(-8, 8, 10000))
        theta = np.exp(rng.uniform(-8, 8, 10000))
        dens = rel_entropy_terms((rho, 0.1, theta), (1.0, 0.0, 1.0), gamma14)
        assert np.min(dens) >= 0.0

    def test_vanishes_exactly_where_states_agree_cellwise(self, gamma14):
        rho = np.array([1.0, 1.2, 1.0, 0.7])
        theta = np.array([0.9, 0.9, 1.1, 0.9])
        u = np.array([0.2, 0.2, 0.2, 0.2])
        ref_rho = np.array([1.0, 1.0, 1.0, 0.7])
        ref_theta = np.full(4, 0.9)
        dens = rel_entropy_terms((rho, u, theta), (ref_rho, u, ref_theta), gamma14)
        totals = np.asarray(dens)
        assert totals[0] == 0.0 and totals[3] == 0.0   # states agree
        assert totals[1] > 0.0 and totals[2] > 0.0     # density/temperature differ

    def test_asymmetric_but_jointly_definite(self, gamma14):
        a = (1.2, 0.3, 0.9)
        b = (0.8, -0.1, 1.4)
        e_ab = rel_entropy_terms(a, b, gamma14)
        e_ba = rel_entropy_terms(b, a, gamma14)
        assert e_ab > 0.0 and e_ba > 0.0
        assert e_ab != pytest.approx(e_ba, rel=1e-6)

    def test_rejects_nonpositive_inputs(self, gamma14):
        with pytest.raises(DomainError):
            rel_entropy_terms((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0), gamma14)
        with pytest.raises(DomainError):
            rel_entropy_terms((1.0, 0.0, 1.0), (1.0, 0.0, -1.0), gamma14)


#: The constant the Sobol calibration of the relative-entropy gate gave on BOX
#: (0.9 times its sampled minimum of E / quad); the corner states break it.
SAMPLED_C = float.fromhex("0x1.28b3025f4585fp-3")


def _corner(d, params):
    """rho = 2 against r = 2 - d, both at theta 0.5 and at rest: the corner of
    BOX where the bound is sharp."""
    cand = (np.full(len(d), 2.0), np.zeros(len(d)), np.full(len(d), 0.5))
    ref = (2.0 - np.asarray(d), np.zeros(len(d)), np.full(len(d), 0.5))
    return coercivity_gap(cand, ref, BOX, params)


def _grid_infimum(term, lo, hi, n=1001):
    """min of term(a, b) / (a - b)^2 over an n x n grid of [lo, hi]^2, off the diagonal."""
    a, b = np.meshgrid(np.linspace(lo, hi, n), np.linspace(lo, hi, n), indexing="ij")
    off = a != b
    return float(np.min(term(a[off], b[off]) / (a[off] - b[off]) ** 2))


#: (box, gamma, the term whose ratio binds): each term binds on two boxes or
#: more, the kinetic one only for gamma <= 5/4, where c_V >= 4 lets both
#: other ratios exceed 1.
COERCIVITY_CASES = {
    "density": (BOX, 1.4, "density"),
    "density-wide": (StateBox(1.0, 10.0, 0.5, 1.0), 1.4, "density"),
    "density-monatomic": (StateBox(2.0, 4.0, 0.1, 3.0), 5.0 / 3.0, "density"),
    "temperature": (StateBox(1.0, 2.0, 3.0, 4.0), 1.4, "temperature"),
    "temperature-monatomic": (StateBox(0.25, 1.0, 0.2, 3.0), 5.0 / 3.0, "temperature"),
    "kinetic": (StateBox(4.0, 5.0, 12.0, 16.0), 1.1, "kinetic"),
    "kinetic-cv5": (StateBox(4.0, 4.4, 9.0, 9.5), 1.2, "kinetic"),
}


def _term_bounds(box, params):
    """The proof's lower bound on each term's ratio E / quad in ``box``."""
    return {"kinetic": 1.0,
            "temperature": box.rho_min * params.cv / (2.0 * box.theta_max),
            "density": box.theta_min / (2.0 * box.rho_max)}


def _term_corners(box, d):
    """For each term, pairs where only its slot differs, at the box corner
    where its bound is sharp; d is the offset in units of the box's span."""
    d = np.asarray(d, dtype=float)
    one = np.ones_like(d)
    rho_lo, rho_hi, th_lo, th_hi = (v * one for v in (box.rho_min, box.rho_max,
                                                       box.theta_min, box.theta_max))
    rest = np.zeros_like(d)
    return {
        "kinetic": ((rho_lo, d, th_lo), (rho_lo, rest, th_lo)),
        # the candidate sits inside the temperature span, the reference on its edge
        "temperature": ((rho_lo, rest, th_hi - d * (th_hi - th_lo)), (rho_lo, rest, th_hi)),
        "density": ((rho_hi, rest, th_lo), (rho_hi - d * (rho_hi - rho_lo), rest, th_lo)),
    }


class TestCoercivity:
    def test_constants_are_positive(self):
        # the kinetic ratio is 1, so no box has a larger constant
        for box, gamma, _ in COERCIVITY_CASES.values():
            assert 0.0 < calibrate_coercivity(box, GasParams(gamma)) <= 1.0

    def test_gate_calibration_is_pinned(self):
        # the relative-entropy gate's call: its box and gas give exactly 1/8
        c = calibrate_coercivity(StateBox(0.5, 2.0, 0.5, 2.0), GasParams(1.4))
        assert c.hex() == "0x1.0000000000000p-3"

    def test_the_constant_is_the_closed_form(self, gamma14):
        # min(1, rho_min c_V / (2 theta_max), theta_min / (2 rho_max)) = min(1, 0.3125, 0.125)
        assert calibrate_coercivity(BOX, gamma14) == 0.125
        # c_V = 2.5 up to rounding: the temperature ratio binds, 1 * c_V / 8 < 3 / 4
        assert calibrate_coercivity(StateBox(1.0, 2.0, 3.0, 4.0), gamma14) == gamma14.cv / 8.0
        # c_V = 10: 4 * 10 / 32 and 12 / 10 both exceed 1, so the kinetic ratio binds
        assert calibrate_coercivity(StateBox(4.0, 5.0, 12.0, 16.0), GasParams(1.1)) == 1.0

    def test_each_term_bound_holds_and_is_sharp_on_a_dense_grid(self, gamma14):
        # E is linear in the slot a term does not vary, so each term's ratio is
        # smallest at rho = rho_min (temperature) and T = theta_min (density)
        temperature = _grid_infimum(
            lambda th, t: rel_entropy_terms((0.5, 0.0, th), (0.5, 0.0, t), gamma14), 0.5, 2.0)
        density = _grid_infimum(
            lambda rho, r: rel_entropy_terms((rho, 0.0, 0.5), (r, 0.0, 0.5), gamma14), 0.5, 2.0)
        assert 0.3125 <= temperature < 0.3125 + 1e-3
        assert 0.125 <= density < 0.125 + 1e-3

    def test_the_corner_states_hold_the_proven_constant_and_break_the_sampled_one(self,
                                                                                 gamma14):
        res = _corner([0.1, 0.01, 0.001], gamma14)
        np.testing.assert_allclose(res.gap, [4.33e-5, 4.18e-8, 4.17e-11], rtol=0.01)
        assert np.all(res.gap >= 0.0)
        assert np.all(res.density - SAMPLED_C * res.lower_form < 0.0)
        # E / quad tends to 1/8 from above
        ratio = res.density / res.lower_form
        assert np.all(np.diff(ratio) < 0.0) and ratio[-1] < 0.12505

    def test_gap_nonnegative_on_fresh_samples(self, gamma14):
        rng = np.random.default_rng(777)
        n = 10000
        rho = rng.uniform(0.5, 2.0, n)
        theta = rng.uniform(0.5, 2.0, n)
        cand = (rho, rng.uniform(-1, 1, n), theta)
        ref = (rng.uniform(0.5, 2.0, n), rng.uniform(-1, 1, n), rng.uniform(0.5, 2.0, n))
        res = coercivity_gap(cand, ref, BOX, gamma14)
        assert float(np.min(res.gap)) >= 0.0

    def test_equal_states_have_zero_gap(self, gamma14):
        state = (np.array([1.0]), np.array([0.25]), np.array([1.0]))
        res = coercivity_gap(state, state, BOX, gamma14)
        assert res.gap.tolist() == res.lower_form.tolist() == res.density.tolist() == [0.0]

    def test_vector_velocities_enter_by_their_squared_norm(self, gamma14):
        # the quadratic form was left per component, so the gap of two cells in
        # 2D came out (2, 2) and paired E of both components with each one's form
        rng = np.random.default_rng(3)
        rho, theta, r, t = rng.uniform(0.5, 2.0, (4, 5))
        vel, u = rng.uniform(-1, 1, (2, 2, 5))
        res = coercivity_gap((rho, vel, theta), (r, u, t), BOX, gamma14)
        assert res.gap.shape == res.lower_form.shape == res.density.shape == (5,)
        quad = 0.5 * rho * np.sum((vel - u) ** 2, axis=0) + (rho - r) ** 2 + (theta - t) ** 2
        np.testing.assert_allclose(res.lower_form, quad, rtol=1e-15)
        assert np.all(res.gap >= 0.0)
        # one component is the scalar case, bit for bit
        flat = coercivity_gap((rho, vel[0], theta), (r, u[0], t), BOX, gamma14)
        one = coercivity_gap((rho, vel[:1], theta), (r, u[:1], t), BOX, gamma14)
        assert one.gap.tobytes() == flat.gap.tobytes()

    def test_equal_states_give_exact_zeros_on_random_pairs(self, gamma14):
        # the (rho, S) detour, Theta = rho^(gamma - 1) exp((gamma - 1) S / rho)
        # with S = rho s(rho, Theta), left E != 0 on 2,705 of these pairs and
        # a gap as low as -2.6e-32
        rng = np.random.default_rng(7)
        n = 100_000
        state = (rng.uniform(0.5, 2.0, n), rng.uniform(-1, 1, n), rng.uniform(0.5, 2.0, n))
        res = coercivity_gap(state, state, BOX, gamma14)
        assert not res.density.any() and not res.gap.any() and not res.lower_form.any()

    @pytest.mark.parametrize("rho,theta", [(8.0, 1.0), (1.0, 0.25), (0.4, 1.0), (1.0, 2.5),
                                           (0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0)])
    def test_candidate_must_stay_in_box(self, gamma14, rho, theta):
        cand = (np.array([rho]), np.array([0.0]), np.array([theta]))
        ref = (np.array([1.0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(DomainError, match="candidate state leaves the state box"):
            coercivity_gap(cand, ref, BOX, gamma14)

    def test_reference_must_stay_in_box(self, gamma14):
        cand = (np.array([1.0]), np.array([0.0]), np.array([1.0]))
        bad_ref = (np.array([5.0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(DomainError, match="reference state leaves the state box"):
            coercivity_gap(cand, bad_ref, BOX, gamma14)


@pytest.mark.parametrize("case", list(COERCIVITY_CASES))
class TestCoercivityAcrossBoxes:
    def test_gap_is_nonnegative_on_samples_in_the_box(self, case):
        box, gamma, _ = COERCIVITY_CASES[case]
        params = GasParams(gamma)
        rng = np.random.default_rng(2024)
        n = 4096
        rho, theta = (rng.uniform(box.rho_min, box.rho_max, n),
                      rng.uniform(box.theta_min, box.theta_max, n))
        ref = (rng.uniform(box.rho_min, box.rho_max, n), rng.uniform(-1, 1, n),
               rng.uniform(box.theta_min, box.theta_max, n))
        res = coercivity_gap((rho, rng.uniform(-1, 1, n), theta), ref, box, params)
        assert float(np.min(res.gap)) >= 0.0

    def test_each_term_bound_holds_on_a_dense_grid(self, case):
        # E is linear in the slot a term does not vary, so each term's ratio is
        # smallest at rho = rho_min (temperature) and T = theta_min (density)
        box, gamma, _ = COERCIVITY_CASES[case]
        params = GasParams(gamma)
        bounds = _term_bounds(box, params)
        temperature = _grid_infimum(
            lambda th, t: rel_entropy_terms((box.rho_min, 0.0, th), (box.rho_min, 0.0, t),
                                            params), box.theta_min, box.theta_max)
        density = _grid_infimum(
            lambda rho, r: rel_entropy_terms((rho, 0.0, box.theta_min), (r, 0.0, box.theta_min),
                                             params), box.rho_min, box.rho_max)
        assert bounds["temperature"] <= temperature
        assert bounds["density"] <= density

    def test_the_binding_term_tends_to_the_constant_at_its_corner(self, case):
        box, gamma, binding = COERCIVITY_CASES[case]
        params = GasParams(gamma)
        c = calibrate_coercivity(box, params)
        bounds = _term_bounds(box, params)
        assert min(bounds, key=bounds.get) == binding and bounds[binding] == c
        for term, (cand, ref) in _term_corners(box, [0.1, 0.01, 0.001]).items():
            res = coercivity_gap(cand, ref, box, params)
            ratio = res.density / res.lower_form
            assert np.all(res.gap >= 0.0), term
            if term == "kinetic":
                # E and quad are the same kinetic energy
                np.testing.assert_allclose(ratio, 1.0, rtol=1e-15)
            else:
                # E / quad falls to the term's bound from above
                assert np.all(np.diff(ratio) < 0.0), term
                assert bounds[term] <= ratio[-1] < bounds[term] * (1.0 + 1e-3), term


def _pair(n, t_end=1.0, stride=0.05, init=None):
    init = init or {"name": "double_rarefaction"}
    params = GasParams(1.4)
    cfg_a = SolverConfig(grid=PeriodicGrid(1, n), params=params, t_end=t_end,
                         init=init, snapshot_stride=stride)
    cfg_b = SolverConfig(grid=PeriodicGrid(1, 2 * n), params=params, t_end=t_end,
                         init=init, snapshot_stride=stride)
    traj_a = run(cfg_a)
    traj_b = project_trajectory(run(cfg_b), traj_a.grid)
    return traj_a, traj_b, params


class TestTrajectoryMonitor:
    def test_identical_trajectories_are_skipped_zero(self):
        params = GasParams(1.4)
        cfg = SolverConfig(grid=PeriodicGrid(1, 64), params=params, t_end=0.2,
                           init={"name": "smooth"}, snapshot_stride=0.05)
        traj = run(cfg)
        trace = gronwall_monitor(traj, traj)
        # the entropic roundtrip leaves at most ulp-squared residue per cell
        assert float(np.max(trace.integral)) < 1e-28
        assert np.all(trace.skipped[1:])
        assert np.all(np.isnan(trace.fitted_k[1:]))

    @staticmethod
    def _trace(integral, budget=1.0):
        n = len(integral)
        return RelEntropyTrace(np.linspace(0.0, 0.1, n), np.array(integral), np.zeros(n),
                               np.full(n, budget), np.full(n, np.nan), np.ones(n, dtype=bool))

    def _check(self, integral, budget=1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return gronwall_envelope_check(self._trace(integral, budget))

    def test_zero_envelope_allows_only_zero(self):
        # E(sigma) = 0 forces E(t) = 0: that passes at 0, anything else is inf
        held = self._check([0.0, 0.0, 0.0])
        assert held.ok and held.utilization == 0.0
        broken = self._check([0.0, 0.0, 1e-300])
        assert not broken.ok and broken.utilization == math.inf
        # a positive E(sigma) keeps the plain ratio: budget 1 over [0, 0.05]
        assert self._check([1.0, 1.0, 1.0]).utilization == 1.0 / math.exp(0.05)

    def test_an_exponent_past_the_float_range_is_an_infinite_envelope(self):
        # budget 1e4 over [0, 0.1]: the exponent 1000 is past exp's range (709.78)
        held = self._check([2.0, 1e300], budget=1e4)
        assert held.ok and held.utilization == 0.0
        # E(sigma) = 0 keeps the zero-envelope rule
        assert self._check([0.0, 0.0], budget=1e4).utilization == 0.0
        broken = self._check([0.0, 1e-300], budget=1e4)
        assert not broken.ok and broken.utilization == math.inf
        # just inside the range the envelope is still E(sigma) * math.exp
        trace = self._trace([1e-300, 1e5], budget=7097.0)
        ok, util = _envelope_check_loop(trace)
        check = gronwall_envelope_check(trace)
        assert (check.ok, check.utilization.hex()) == (ok, util.hex()) and ok

    def test_a_failure_records_the_first_time_that_broke_the_envelope(self):
        # budget 1 at times 0, 0.025, ..., 0.1: the envelope is exp(t)
        times = np.linspace(0.0, 0.1, 5)
        check = self._check([1.0, 1.0, 2.0, 0.5, 3.0])
        assert not check.ok and check.utilization == 3.0 / math.exp(0.1)
        assert check.broken_at == times[2] and check.broken_ratio == 2.0 / math.exp(0.05)
        held = self._check([1.0, 1.0, 1.0])
        assert held.ok and (held.broken_at, held.broken_ratio) == (None, None)
        # a zero envelope broken by E(t) > 0: the ratio is inf
        zero = self._check([0.0, 0.0, 1e-300, 0.0])
        assert (zero.broken_at, zero.broken_ratio) == (np.linspace(0.0, 0.1, 4)[2], math.inf)
        # a NaN integral fails the check, and is where it broke
        nan = self._check([1.0, math.nan, 2.0])
        assert not nan.ok and nan.broken_at == 0.05 and math.isnan(nan.broken_ratio)

    def test_the_first_time_of_an_infinite_envelope_is_recorded(self):
        # budget 1e4 at times 0, 0.025, ..., 0.1: exponents 0, 250, ..., 1000
        times = np.linspace(0.0, 0.1, 5)
        check = self._check([2.0, 1.0, 1.0, 1.0, 1.0], budget=1e4)
        assert check.ok and check.vacuous_from == times[3]        # exp(750) overflows
        # E(sigma) * exp(250) overflows where exp(250) does not
        assert self._check([1e300] * 5, budget=1e4).vacuous_from == times[1]
        # a finite envelope, or E(sigma) = 0 (the zero envelope), is not vacuous
        assert self._check([1.0, 1.0, 1.0]).vacuous_from is None
        assert self._check([0.0, 0.0, 0.0, 0.0, 0.0], budget=1e4).vacuous_from is None
        assert self._check([2.0], budget=1e4).vacuous_from is None

    def test_each_snapshot_of_the_window_is_converted_once(self, monkeypatch):
        # one pass: the pair's two snapshots feed E, oslip_C and the W^{1,inf} budget
        traj_a, traj_b, params = _pair(32, t_end=0.3, stride=0.05)
        want = gronwall_monitor(traj_a, traj_b, sigma=0.1)
        seen = []
        real = relentropy.snapshot_primitive
        monkeypatch.setattr(relentropy, "snapshot_primitive",
                            lambda snap, gas: seen.append(snap) or real(snap, gas))
        trace = gronwall_monitor(traj_a, traj_b, sigma=0.1)
        pairs = len(trace.times)
        assert pairs == 5 and len(seen) == 2 * pairs
        window = traj_a.snapshots[-pairs:] + traj_b.snapshots[-pairs:]
        assert sorted(map(id, seen)) == sorted(map(id, window))
        for name in ("integral", "oslip_c", "k_thermo", "fitted_k"):
            assert _hex(getattr(trace, name)) == _hex(getattr(want, name))

    @pytest.mark.parametrize("dims,cells,t_end,init", [
        (1, (64, 128), 0.5, {"name": "double_rarefaction"}),
        (2, (32, 128), 0.1, {"name": "sod"}),
    ], ids=["1d-64-128", "2d-32-128"])
    def test_an_unprojected_pair_reads_as_the_hand_projected_one(self, gamma14, dims, cells,
                                                                 t_end, init):
        coarse, fine = (run(SolverConfig(grid=PeriodicGrid(dims, n), params=gamma14,
                                         t_end=t_end, init=init, snapshot_stride=t_end / 4))
                        for n in cells)
        by_hand = project_trajectory(fine, coarse.grid)
        # the finer trajectory as the reference, and as the candidate
        for got, want in ((gronwall_monitor(coarse, fine), gronwall_monitor(coarse, by_hand)),
                          (gronwall_monitor(fine, coarse), gronwall_monitor(by_hand, coarse))):
            assert len(got.times) == 3
            for name in ("times", "integral", "oslip_c", "k_thermo", "fitted_k"):
                assert _hex(getattr(got, name)) == _hex(getattr(want, name)), name
            assert got.skipped.tolist() == want.skipped.tolist()

    def test_uniform_velocity_offset_total(self, gamma14):
        grid = PeriodicGrid(1, 128)
        from eulerlab.solver import Snapshot

        rho = np.ones(grid.shape)
        theta = np.ones(grid.shape)
        energy = 0.5 * rho * 0.1**2 + rho * gamma14.cv * theta
        cand = Snapshot(0.0, rho, np.stack([rho * 0.1]), energy)
        ref = Snapshot(0.0, rho, np.stack([rho * 0.0]),
                       0.0 * rho + rho * gamma14.cv * theta)
        total = rel_entropy_total(grid, snapshot_primitive(cand, gamma14),
                                  snapshot_primitive(ref, gamma14), gamma14)
        assert total == pytest.approx(0.5 * 0.01 * 2.0, rel=1e-10)

    @pytest.mark.slow
    def test_refinement_shrinks_terminal_entropy(self):
        traj_a, traj_b, params = _pair(256, t_end=0.5, stride=0.05)
        traj_a2, traj_b2, _ = _pair(512, t_end=0.5, stride=0.05)
        e_coarse, e_fine = (
            rel_entropy_total(a.grid, snapshot_primitive(a.snapshots[-1], params),
                              snapshot_primitive(b.snapshots[-1], params), params)
            for a, b in ((traj_a, traj_b), (traj_a2, traj_b2)))
        assert e_fine < e_coarse

    @pytest.mark.slow
    def test_gronwall_envelope_on_rarefaction_pair(self):
        traj_a, traj_b, _ = _pair(512)
        trace = gronwall_monitor(traj_a, traj_b, sigma=0.1)
        check = gronwall_envelope_check(trace)
        assert check.ok
        assert check.utilization <= 1.0

    @pytest.mark.slow
    def test_j1_is_negative_on_the_rarefaction_window(self):
        # the wrap jumps of the embedded profile are compressive shocks the
        # shock-free assumption excludes; on the masked window the reference
        # is a genuine rarefaction, whose stretching d_x v > 0 makes
        # J1 = -int rho w^2 d_x v negative (-4.9e-6 ... -2.5e-6 for t in [0.1, 0.5])
        traj_a, traj_b, params = _pair(512, t_end=0.5, stride=0.05)
        grid = traj_a.grid
        mask = np.abs(grid.axis_centers()) < 0.6
        j1 = [j1_term(grid, snapshot_primitive(cand, params), snapshot_primitive(ref, params),
                      mask=mask)
              for t, cand, ref in zip(traj_a.times, traj_a.snapshots, traj_b.snapshots)
              if t >= 0.1]
        assert len(j1) == 9
        assert all(val < 0.0 for val in j1)

    @pytest.mark.parametrize("init", ["double_rarefaction", "sod", "smooth"])
    def test_j1_is_bounded_by_the_compression_side(self, init):
        # J1 = -int rho w^2 d_x v <= sup(-d_x v) int rho w^2, w = u - v, whatever the
        # sign of d_x v: the lattice sup is oslip_discrete of -v.  Every snapshot
        # from t = 0.1 on; the largest ratios were 0.27, 0.43 and 0.29
        traj_a, traj_b, params = _pair(256, init={"name": init})
        grid = traj_a.grid
        for cand, ref in zip(traj_a.snapshots[2:], traj_b.snapshots[2:]):
            state, prim = snapshot_primitive(cand, params), snapshot_primitive(ref, params)
            j1 = j1_term(grid, state, prim)
            (c_rho, c_vel, _), r_vel = state, prim[1]
            kinetic = grid.cell_volume * exact_sum(c_rho * (c_vel[0] - r_vel[0]) ** 2)
            assert j1 <= oslip_discrete(grid, -r_vel) * kinetic * (1.0 + 1e-12)

    def test_j1_outgrows_oslip_c_on_the_fine_rarefaction_pair(self):
        # oslip_C, the stretching side of grad v, does not bound J1: on the
        # 1024/2048 double-rarefaction pair J1 / int E first exceeds it at t = 0.25
        traj_a, traj_b, params = _pair(1024, t_end=0.25)
        grid = traj_a.grid
        over = []
        for t, cand, ref in zip(traj_a.times[2:], traj_a.snapshots[2:], traj_b.snapshots[2:]):
            state, prim = snapshot_primitive(cand, params), snapshot_primitive(ref, params)
            total = rel_entropy_total(grid, state, prim, params)
            if j1_term(grid, state, prim) / total > oslip_discrete(grid, prim[1]):
                over.append(round(t, 12))
        assert over == [0.25]

    def test_mismatched_grids_rejected(self, gamma14):
        # 96 and 64 cells do not divide, and a 1D and a 2D grid never nest
        a, b, c = (run(SolverConfig(grid=grid, params=gamma14, t_end=0.1,
                                    init={"name": "double_rarefaction"}, snapshot_stride=0.05))
                   for grid in (PeriodicGrid(1, 96), PeriodicGrid(1, 64), PeriodicGrid(2, 32)))
        for cand, ref in ((a, b), (b, a), (b, c), (c, b)):
            with pytest.raises(ValueError, match=f"do not nest: {re.escape(repr(cand.grid))} "
                                                 f"and {re.escape(repr(ref.grid))}"):
                gronwall_monitor(cand, ref)

    def test_mismatched_gases_rejected(self, gamma14):
        # b's snapshots were read with a's gamma
        a, b = (run(SolverConfig(grid=PeriodicGrid(1, 64), params=params, t_end=0.1,
                                 init={"name": "smooth"}, snapshot_stride=0.05))
                for params in (gamma14, GasParams(5.0 / 3.0)))
        with pytest.raises(ValueError, match="trajectories of different gases"):
            gronwall_monitor(a, b)


def _fitted_loop(times, integral):
    """gronwall_monitor's per-interval growth rates before grid.time_trapezoid."""
    fitted = np.full(len(times), np.nan)
    skipped = np.zeros(len(times), dtype=bool)
    for j in range(1, len(times)):
        dt_loc = times[j] - times[j - 1]
        mean = 0.5 * (integral[j] + integral[j - 1]) * dt_loc
        if mean < INTEGRAL_FLOOR:
            skipped[j] = True
            continue
        fitted[j] = (integral[j] - integral[j - 1]) / mean
    return fitted, skipped


def _envelope_check_loop(trace):
    """(ok, utilization) of gronwall_envelope_check before grid.time_trapezoid."""
    times, values, budget = trace.times, trace.integral, trace.budget
    envelope = np.empty_like(values)
    envelope[0] = values[0]
    acc = 0.0
    for j in range(1, len(times)):
        acc += 0.5 * (budget[j] + budget[j - 1]) * (times[j] - times[j - 1])
        envelope[j] = values[0] * math.exp(acc)
    if len(values) > 1:
        zero = np.where(values[1:] == 0.0, 0.0, np.inf)
        util = float(np.max(np.divide(values[1:], envelope[1:], out=zero,
                                      where=envelope[1:] != 0.0)))
    else:
        util = 1.0
    return bool(util <= 1.0), util


def _hex(values):
    return [float(v).hex() for v in values]


#: Integral series that hold a signed zero, a NaN, or sit at the floor.
SPECIAL_INTEGRALS = ([-0.0, -0.0], [0.0, -0.0, 1e-20], [1.0, math.nan, 2.0],
                     [math.nan, -0.0], [1e-14, 1e-14, 1e-12], [2.0, -0.0, 1.0])

RANDOM_SIZES = [(2, 0), (2, 1), (3, 2), (17, 3), (200, 4)]


def _random_times(rng, n):
    return np.cumsum(rng.uniform(0.01, 0.3, n))


class TestTimeQuadratureAgainstLoops:
    @staticmethod
    def _monitor(monkeypatch, times, integral):
        """gronwall_monitor over flat snapshots at ``times`` whose E reads ``integral``."""
        params = GasParams(1.4)
        snaps = [Snapshot(float(t), np.ones(4), np.zeros((1, 4)), np.full(4, 2.5))
                 for t in times]
        traj = Trajectory(PeriodicGrid(1, 4), params, snaps)
        values = iter(integral)
        monkeypatch.setattr(relentropy, "rel_entropy_total", lambda *args: next(values))
        return gronwall_monitor(traj, traj, sigma=float(times[0]) if len(times) else 0.0)

    def _assert_monitor_matches_loop(self, monkeypatch, times, integral):
        trace = self._monitor(monkeypatch, times, integral)
        fitted, skipped = _fitted_loop(trace.times, trace.integral)
        assert _hex(trace.fitted_k) == _hex(fitted)
        assert trace.skipped.tolist() == skipped.tolist()
        # the report's pass column, row by row as the CLI once formed it
        assert trace.columns["pass"].tolist() == [
            bool(s or np.isnan(f) or f <= b) for s, f, b in zip(skipped, fitted, trace.budget)]

    @pytest.mark.parametrize("n,seed", RANDOM_SIZES)
    def test_monitor_random_series(self, monkeypatch, n, seed):
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-16 to 1 straddle the floor
        integral = rng.standard_normal(n) * 10.0 ** rng.integers(-16, 1, n)
        self._assert_monitor_matches_loop(monkeypatch, _random_times(rng, n), integral)

    @pytest.mark.parametrize("integral", SPECIAL_INTEGRALS)
    def test_monitor_signed_zero_nan_and_floor(self, monkeypatch, integral):
        times = 0.1 * np.arange(1, len(integral) + 1)
        self._assert_monitor_matches_loop(monkeypatch, times, integral)

    @pytest.mark.parametrize("n", [0, 1])
    def test_monitor_needs_two_snapshots(self, monkeypatch, n):
        with pytest.raises(ValueError, match="at least two snapshots"):
            self._monitor(monkeypatch, 0.1 * np.arange(n), np.ones(n))

    @staticmethod
    def _assert_envelope_matches_loop(times, integral, oslip_c, k_thermo):
        n = len(times)
        trace = RelEntropyTrace(np.asarray(times, dtype=float), np.asarray(integral, dtype=float),
                                np.asarray(oslip_c, dtype=float), np.asarray(k_thermo, dtype=float),
                                np.full(n, np.nan), np.zeros(n, dtype=bool))
        check = gronwall_envelope_check(trace)
        ok, util = _envelope_check_loop(trace)
        assert (check.ok, check.utilization.hex()) == (ok, util.hex())

    @pytest.mark.parametrize("n,seed", [(1, 0)] + RANDOM_SIZES)
    def test_envelope_random_series(self, n, seed):
        rng = np.random.default_rng(seed)
        self._assert_envelope_matches_loop(_random_times(rng, n), rng.uniform(0.0, 2.0, n),
                                           rng.standard_normal(n), rng.uniform(0.0, 1.0, n))

    @pytest.mark.parametrize("integral", SPECIAL_INTEGRALS)
    def test_envelope_signed_zero_and_nan(self, integral):
        n = len(integral)
        times = 0.1 * np.arange(1, n + 1)
        self._assert_envelope_matches_loop(times, integral, np.ones(n), np.zeros(n))
        budget_nan = np.where(np.arange(n) == 1, math.nan, -0.0)
        self._assert_envelope_matches_loop(times, integral, budget_nan, np.full(n, -0.0))

    def test_envelope_of_no_snapshot(self):
        with pytest.raises(IndexError):
            self._assert_envelope_matches_loop([], [], [], [])

    def test_real_pair(self):
        traj_a, traj_b, _ = _pair(64)
        trace = gronwall_monitor(traj_a, traj_b, sigma=0.1)
        fitted, skipped = _fitted_loop(trace.times, trace.integral)
        assert np.isfinite(fitted).sum() >= len(fitted) // 2
        assert _hex(trace.fitted_k) == _hex(fitted)
        assert trace.skipped.tolist() == skipped.tolist()
        check = gronwall_envelope_check(trace)
        ok, util = _envelope_check_loop(trace)
        assert (check.ok, check.utilization.hex()) == (ok, util.hex())
