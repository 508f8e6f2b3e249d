import numpy as np
import pytest

from eulerlab.errors import DomainError
from eulerlab.riemann import (
    Wave1D,
    exact_riemann,
    periodic_double_riemann,
    rarefaction_connected_state,
    solve_star,
)
from eulerlab.thermo import GasParams

SOD_L = Wave1D(1.0, 0.0, 1.0)
SOD_R = Wave1D(0.125, 0.0, 0.1)


def _bisect_star_pressure(left, right, params, tol=1e-12):
    """Plain bisection on the pressure function, independent of Newton."""
    from eulerlab.riemann import _f_side

    def f(p):
        return _f_side(p, left, params.gamma) + _f_side(p, right, params.gamma) + (
            right.u - left.u
        )

    lo, hi = 1e-10, 10.0 * max(left.p, right.p)
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStarState:
    def test_equal_states_give_trivial_star(self, gamma14):
        st = Wave1D(1.0, 0.3, 2.0)
        p, u = solve_star(st, st, gamma14)
        assert p == pytest.approx(2.0, rel=1e-12)
        assert u == pytest.approx(0.3, rel=1e-12)

    def test_symmetric_double_rarefaction_star_velocity(self, gamma14):
        left = Wave1D(1.0, -0.2, 1.0)
        right = Wave1D(1.0, 0.2, 1.0)
        p, u = solve_star(left, right, gamma14)
        assert abs(u) < 1e-14
        assert p < 1.0

    def test_sod_star_pressure_matches_bisection_oracle(self, gamma14):
        p, u = solve_star(SOD_L, SOD_R, gamma14)
        p_bis = _bisect_star_pressure(SOD_L, SOD_R, gamma14)
        assert p == pytest.approx(p_bis, abs=1e-10)
        assert p == pytest.approx(0.30313017805, rel=1e-9)
        assert u == pytest.approx(0.92745262005, rel=1e-9)

    def test_vacuum_forming_data_rejected(self, gamma14):
        with pytest.raises(DomainError, match="vacuum"):
            solve_star(Wave1D(1.0, -5.0, 0.01), Wave1D(1.0, 5.0, 0.01), gamma14)

    def test_non_physical_state_rejected(self):
        with pytest.raises(DomainError):
            Wave1D(-1.0, 0.0, 1.0)


class TestSampling:
    def test_equal_states_sample_constant(self, gamma14):
        st = Wave1D(1.2, 0.1, 0.9)
        sol = exact_riemann(st, st, gamma14)
        xi = np.linspace(-2.0, 2.0, 41)
        rho, u, p = sol.sample(xi)
        np.testing.assert_allclose(rho, 1.2, rtol=1e-12)
        np.testing.assert_allclose(u, 0.1, atol=1e-12)
        np.testing.assert_allclose(p, 0.9, rtol=1e-12)

    def test_sod_far_states(self, gamma14):
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        rho, u, p = sol.sample(np.array([-10.0, 10.0]))
        assert (rho[0], u[0], p[0]) == (1.0, 0.0, 1.0)
        assert (rho[1], u[1], p[1]) == (0.125, 0.0, 0.1)

    def test_sod_shock_density_jump(self, gamma14):
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        g = gamma14.gamma
        gm = (g - 1.0) / (g + 1.0)
        ratio = sol.p_star / SOD_R.p
        expected = SOD_R.rho * (ratio + gm) / (gm * ratio + 1.0)
        assert sol.star_density("right") == pytest.approx(expected, rel=1e-14)

    def test_fan_is_continuous_at_edges(self, gamma14):
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        head = SOD_L.u - SOD_L.sound_speed(gamma14.gamma)
        eps = 1e-10
        left_of = sol.sample(np.array([head - eps]))
        right_of = sol.sample(np.array([head + eps]))
        for a, b in zip(left_of, right_of):
            assert a[0] == pytest.approx(b[0], abs=1e-6)

    def test_mass_flux_consistency_across_shock(self, gamma14):
        # Rankine-Hugoniot: rho (u - s) equal on both sides of the 3-shock
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        g = gamma14.gamma
        c_r = SOD_R.sound_speed(g)
        s = SOD_R.u + c_r * np.sqrt(
            (g + 1.0) / (2.0 * g) * sol.p_star / SOD_R.p + (g - 1.0) / (2.0 * g)
        )
        rho_star = sol.star_density("right")
        flux_star = rho_star * (sol.u_star - s)
        flux_right = SOD_R.rho * (SOD_R.u - s)
        assert flux_star == pytest.approx(flux_right, rel=1e-10)

    @pytest.mark.parametrize("shape", [(), (3, 4), (0,), (2, 0)])
    def test_any_shape_samples_point_by_point(self, gamma14, shape):
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        xi = np.linspace(-2.0, 2.0, int(np.prod(shape))).reshape(shape)
        sampled = sol.sample(xi)
        assert len(sampled) == 3
        for k, a in enumerate(sampled):
            assert a.shape == shape and a.dtype == np.float64
            want = np.array([sol._sample_one(float(s))[k] for s in xi.ravel()], dtype=float)
            assert a.tobytes() == want.tobytes()


class TestRarefactionConnection:
    def test_connected_state_yields_single_fan(self, gamma14):
        left = Wave1D(1.0, 0.0, 1.0)
        right = rarefaction_connected_state(left, 0.4, gamma14)
        sol = exact_riemann(left, right, gamma14)
        # star state coincides with the right state: nothing but the fan
        assert sol.p_star == pytest.approx(right.p, rel=1e-10)
        assert sol.u_star == pytest.approx(right.u, rel=1e-10)

    def test_requires_expansion(self, gamma14):
        with pytest.raises(DomainError):
            rarefaction_connected_state(Wave1D(1.0, 0.0, 1.0), 1.5, gamma14)


class TestPeriodicReference:
    def test_sampler_matches_single_problem_near_center(self, gamma14):
        sampler = periodic_double_riemann(SOD_L, SOD_R, gamma14)
        sol = exact_riemann(SOD_L, SOD_R, gamma14)
        x = np.linspace(-0.4, 0.4, 33)
        t = 0.1
        rho, u, p = sampler(x, t)
        rho1, u1, p1 = sol.sample(x / t)
        np.testing.assert_allclose(rho, rho1, rtol=1e-12)

    def test_sampler_uses_wrap_problem_near_boundary(self, gamma14):
        sampler = periodic_double_riemann(SOD_L, SOD_R, gamma14)
        rho, _, _ = sampler(np.array([0.95]), 0.05)
        # behind the wrap jump the left-of-interface state is the low one
        assert rho[0] != SOD_L.rho

    def test_sampler_refuses_interaction_times(self, gamma14):
        sampler = periodic_double_riemann(SOD_L, SOD_R, gamma14)
        with pytest.raises(DomainError, match="interact"):
            sampler(np.array([0.0]), 10.0)

    def test_horizon_comes_before_every_front_reaches_the_seam(self, gamma14):
        # the fronts of the problems at x = 0 and x = +-1 meet at |x| = 0.5 no
        # sooner than 0.5 / (fastest front); a horizon from the left star state
        # alone came 1.26 times too late on the worst of these draws (81 of 2000 past it)
        rng = np.random.default_rng(20191)
        for _ in range(2000):
            a, b = (Wave1D(*rng.uniform((0.1, -1.0, 0.1), (2.0, 1.0, 2.0))) for _ in "ab")
            fastest = max(_fastest_front(exact_riemann(a, b, gamma14)),
                          _fastest_front(exact_riemann(b, a, gamma14)))
            with pytest.raises(DomainError, match="interact"):
                periodic_double_riemann(a, b, gamma14)(np.array([0.0]),
                                                       0.5 / fastest * (1.0 + 1e-12))


def _fastest_front(sol):
    """max |speed| over the fronts of ``sol``: each shock, each fan's head
    and tail, and the contact."""
    g, ps, us = sol.gamma, sol.p_star, sol.u_star
    fronts = [us]
    for st, sign in ((sol.left, -1.0), (sol.right, 1.0)):
        c = st.sound_speed(g)
        if ps > st.p:
            fronts.append(st.u + sign * c * np.sqrt((g + 1.0) / (2.0 * g) * ps / st.p
                                                    + (g - 1.0) / (2.0 * g)))
        else:
            fronts += [st.u + sign * c, us + sign * c * (ps / st.p) ** ((g - 1.0) / (2.0 * g))]
    return max(abs(f) for f in fronts)


def _right_branch_oracle(sol, s):
    """The right half of the fan, sampled directly (the pre-mirror sampler)."""
    g = sol.gamma
    ps, us = sol.p_star, sol.u_star
    st = sol.right
    c = st.sound_speed(g)
    if ps > st.p:
        shock = st.u + c * np.sqrt((g + 1.0) / (2.0 * g) * ps / st.p
                                   + (g - 1.0) / (2.0 * g))
        if s > shock:
            return st.rho, st.u, st.p
        return sol.star_density("right"), us, ps
    head = st.u + c
    if s > head:
        return st.rho, st.u, st.p
    c_star = c * (ps / st.p) ** ((g - 1.0) / (2.0 * g))
    tail = us + c_star
    if s < tail:
        return sol.star_density("right"), us, ps
    u_f = 2.0 / (g + 1.0) * (-c + (g - 1.0) / 2.0 * st.u + s)
    c_f = 2.0 / (g + 1.0) * (c - (g - 1.0) / 2.0 * (st.u - s))
    rho_f = st.rho * (c_f / c) ** (2.0 / (g - 1.0))
    p_f = st.p * (c_f / c) ** (2.0 * g / (g - 1.0))
    return rho_f, u_f, p_f


class TestMirroredRightBranch:
    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
    @pytest.mark.parametrize("case", ["sod", "double_rarefaction", "single_rarefaction"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_bit_identical_to_direct_sampler(self, gamma, case, reverse):
        params = GasParams(gamma)
        if case == "sod":
            left, right = SOD_L, SOD_R
        elif case == "double_rarefaction":
            left, right = Wave1D(1.0, -0.1, 0.04), Wave1D(1.0, 0.1, 0.04)
        else:
            left = Wave1D(1.0, 0.2, 1.0)
            right = rarefaction_connected_state(left, 0.4, params)
        if reverse:
            left, right = right, left
        sol = exact_riemann(left, right, params)
        xi = np.linspace(-3.0, 3.0, 6001)
        checked = 0
        for s in xi[xi > sol.u_star]:
            got = np.array(sol._sample_one(float(s)), dtype=float)
            want = np.array(_right_branch_oracle(sol, float(s)), dtype=float)
            assert got.tobytes() == want.tobytes(), s
            checked += 1
        assert checked > 1000

