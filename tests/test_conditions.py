import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eulerlab.conditions import (
    DEFAULT_BUMP_WIDTHS,
    L1Report,
    bump_profile,
    l1_report,
    make_bump_basis,
    oslip_discrete,
    oslip_weak_min_c,
    unit_directions,
)
from eulerlab.errors import RangeError
from eulerlab.grid import PeriodicGrid, grad_values, wrap


def _vel1d(grid, fn):
    return fn(grid.axis_centers())[None, :]


def _clamped_fan(grid, tau, u_max=1.0):
    x = grid.axis_centers()
    return np.clip(x / tau, -u_max, u_max)[None, :]


@pytest.fixture(scope="module")
def grid4k():
    return PeriodicGrid(1, 4096)


class TestWeakForm:
    def test_constant_velocity_gives_zero(self):
        # -sum u d(phi) with the closed-form bump derivative vanished only where
        # the bump sat symmetrically on the lattice: 9.45 at 24 cells, 0.52 at
        # 200, and 13.5 at 24^2
        for n in [*range(8, 257), 4096]:
            res = oslip_weak_min_c(PeriodicGrid(1, n), np.full((1, n), 0.7))
            assert res.min_c == 0.0, n
        for n in (20, 24, 37, 48):
            vel = np.broadcast_to(np.array([0.7, -0.3])[:, None, None], (2, n, n))
            assert oslip_weak_min_c(PeriodicGrid(2, n), vel).min_c == 0.0, n

    @pytest.mark.parametrize("dims,n", [(1, 200), (2, 24), (2, 96)])
    def test_a_fan_on_a_mean_flow_reads_its_slope(self, dims, n):
        # 2.833, 24.4 and 2.49 with the closed-form bump derivative
        grid = PeriodicGrid(dims, n)
        fan = 0.5 + np.clip(2.0 * grid.coordinates()[0], -1.0, 1.0)
        vel = np.stack([fan] + [np.zeros_like(fan)] * (dims - 1))
        assert oslip_weak_min_c(grid, vel).min_c == pytest.approx(2.0, rel=2e-15, abs=0.0)

    def test_sine_approaches_derivative_sup(self, grid4k):
        vel = _vel1d(grid4k, lambda x: np.sin(np.pi * x))
        vals = []
        for level in (0, 1, 2):
            basis = make_bump_basis(grid4k, refine_level=level)
            vals.append(oslip_weak_min_c(grid4k, vel, basis=basis).min_c)
        assert vals[-1] == pytest.approx(np.pi, rel=0.05)
        # refinement takes the supremum over a growing family
        assert vals[0] <= vals[1] + 1e-14 <= vals[2] + 1e-14
        assert all(v <= np.pi + 1e-10 for v in vals)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_fan_slope_recovered(self, grid4k, tau):
        res = oslip_weak_min_c(grid4k, _clamped_fan(grid4k, tau))
        assert res.min_c == pytest.approx(1.0 / tau, rel=0.10)

    def test_empty_family_rejected(self, grid4k):
        vel = _vel1d(grid4k, lambda x: 0.0 * x)
        with pytest.raises(ValueError):
            oslip_weak_min_c(grid4k, vel, directions=[])

    def test_2d_recovers_gradient_quadratic_form_sup(self):
        grid = PeriodicGrid(2, 128)
        xx, yy = grid.coordinates()
        vel = np.stack([0.5 * np.sin(np.pi * xx), 0.25 * np.sin(np.pi * yy)])
        # diagonal gradient; sup over unit xi of xi.grad(u).xi = 0.5 pi
        res = oslip_weak_min_c(grid, vel, basis=make_bump_basis(grid, widths=(0.25, 0.125)))
        assert res.min_c == pytest.approx(0.5 * np.pi, rel=0.08)


# The per-bump basis and scan that the batched ones replaced, kept as the oracle:
# every bump is sampled on the full grid, its moments are summed by parts,
# math.fsum sums of phi times the lattice gradient of u over its support, and
# the (bump, direction) pairs are scanned bump-major with a strict ">".


def _oracle_basis(grid, widths=DEFAULT_BUMP_WIDTHS, refine_level=0):
    supports, values, labels = [], [], []
    coords = grid.coordinates()
    for w in widths:
        centers = np.arange(-1.0, 1.0 - 1e-12, w / (2.0 ** (1 + refine_level)))
        if grid.dims == 1:
            for x0 in centers:
                val = bump_profile(wrap(coords[0] - x0) / w)
                idx = np.flatnonzero(val)
                supports.append(idx)
                values.append(val[idx])
                labels.append((w, float(x0)))
        else:
            for x0 in centers:
                vx = bump_profile(wrap(coords[0] - x0) / w)
                for y0 in centers:
                    val = vx * bump_profile(wrap(coords[1] - y0) / w)
                    idx = np.flatnonzero(val.ravel())
                    supports.append(idx)
                    values.append(val.ravel()[idx])
                    labels.append((w, float(x0), float(y0)))
    return supports, values, labels


def _oracle_scan(grid, vel, directions, basis):
    best, best_dir, best_label = -math.inf, tuple(directions[0]), basis[2][0]
    vol = grid.cell_volume
    # du[a][b] = D_b u_a, the periodic central difference of each component
    du = [grad_values(u, grid.cell_width).reshape(grid.dims, -1) for u in vel]
    dirs = [np.asarray(xi, dtype=float) for xi in directions]
    for idx, phi_val, label in zip(*basis):
        mass = vol * math.fsum(phi_val)
        if mass <= 0.0:
            continue
        moment = np.empty((grid.dims, grid.dims))
        for a in range(grid.dims):
            for b in range(grid.dims):
                moment[a, b] = vol * math.fsum(du[a][b, idx] * phi_val)
        for xi in dirs:
            ratio = float(xi @ moment @ xi) / (float(np.dot(xi, xi)) * mass)
            if ratio > best:
                best, best_dir, best_label = ratio, tuple(xi), label
    return best, tuple(map(float, best_dir)), best_label


VELOCITY_KINDS = ("smooth", "random_small", "random_large", "fan", "constant", "zero")


def _velocity(grid, kind, seed=0):
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    shape = (grid.dims,) + grid.shape
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.broadcast_to(rng.uniform(-1.0, 1.0, (grid.dims,) + (1,) * grid.dims),
                               shape).copy()
    if kind == "smooth":
        return np.stack([np.sin(np.pi * coords[0] + a) * np.cos(np.pi * coords[-1] + b)
                         for a, b in rng.uniform(0.0, 2.0 * np.pi, (grid.dims, 2))])
    if kind.startswith("random"):
        return rng.standard_normal(shape) * (1e-3 if kind == "random_small" else 1e3)
    tau = rng.uniform(0.1, 1.0)          # the clamped fan along the first axis
    fan = np.clip(coords[0] / tau, -1.0, 1.0)
    return np.stack([fan] + [np.zeros_like(fan)] * (grid.dims - 1))


def _assert_matches_oracle(grid, kinds, seed=0, directions=None,
                           widths=DEFAULT_BUMP_WIDTHS, refine_level=0):
    basis = make_bump_basis(grid, widths, refine_level)
    oracle = _oracle_basis(grid, widths, refine_level)
    assert basis.labels == oracle[2]
    dirs = unit_directions(grid.dims) if directions is None else directions
    for kind in kinds:
        vel = _velocity(grid, kind, seed)
        res = oslip_weak_min_c(grid, vel, directions=directions, basis=basis)
        min_c, direction, label = _oracle_scan(grid, vel, dirs, oracle)
        assert res.min_c.hex() == min_c.hex(), kind
        assert res.direction == direction, kind
        assert all(type(c) is float for c in res.direction)
        assert res.bump_label == label, kind


@st.composite
def _scan_cases(draw):
    dims, n = draw(st.sampled_from([(2, 24), (1, 20), (2, 37), (1, 96), (2, 20), (1, 37),
                                    (2, 48)]))
    refine = draw(st.integers(0, 2))
    pool = [0.5, 0.25, 0.125, 0.0625, 0.03, 1.5] if dims == 1 else [0.5, 0.3, 0.25, 1.5]
    widths = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)))
    # keep the per-bump oracle affordable
    assume(sum((2.0 ** (2 + refine) / w) ** dims for w in widths) <= 600)
    directions = None
    if draw(st.booleans()):
        coord = st.sampled_from([1.0, -0.5, 0.0, 0.3, -2.0, 3.0])
        directions = draw(st.lists(st.tuples(*[coord] * dims), min_size=1, max_size=4))
        assume(all(any(c != 0.0 for c in xi) for xi in directions))
    return PeriodicGrid(dims, n), widths, refine, directions, draw(st.integers(0, 99))


class TestWeakScanAgainstOracle:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(_scan_cases())
    def test_bit_identical_result(self, case):
        grid, widths, refine, directions, seed = case
        _assert_matches_oracle(grid, VELOCITY_KINDS, seed, directions, widths, refine)

    def test_default_basis_at_32(self):
        _assert_matches_oracle(PeriodicGrid(2, 32), ["fan", "zero"], seed=3)

    def test_default_basis_1d(self, grid4k):
        _assert_matches_oracle(grid4k, ["smooth", "fan"], seed=5)


class TestWeakScanContract:
    def test_zero_velocity_ties_go_to_the_first_pair(self):
        grid = PeriodicGrid(2, 24)
        basis = make_bump_basis(grid)
        res = oslip_weak_min_c(grid, np.zeros((2,) + grid.shape), basis=basis)
        assert res.min_c.hex() == (0.0).hex()
        assert res.direction == unit_directions(2)[0]
        assert res.bump_label == basis.labels[0]

    def test_direction_ties_go_to_the_earliest_direction(self):
        # |xi|^2 normalizes: (2, 0) and (1, 0) give the same ratio bit for bit
        grid = PeriodicGrid(2, 24)
        vel = _velocity(grid, "smooth", seed=1)
        res = oslip_weak_min_c(grid, vel, directions=[(2.0, 0.0), (1.0, 0.0)])
        assert res.direction == (2.0, 0.0)
        assert res.min_c == oslip_weak_min_c(grid, vel, directions=[(1.0, 0.0)]).min_c

    def test_bump_order_beats_direction_order(self):
        # u = (f(x, y), f(y, x)) is symmetric under x <-> y, so every pair (bump
        # at (x0, y0), e_x) ties with (bump at (y0, x0), e_y) exactly.  f's
        # x-slope peaks at x = 0.5 and its y-factor at y = 0, so e_x has one
        # best bump, (0.5, 0); its mirror (0, 0.5) wins with e_y, the earlier
        # bump, even though its direction comes later in the list
        grid = PeriodicGrid(2, 48)
        x, y = grid.coordinates()

        def f(a, b):
            return np.sin(np.pi * (a - 0.5)) * (1.5 + np.cos(np.pi * b))

        vel = np.stack([f(x, y), f(y, x)])
        res = oslip_weak_min_c(grid, vel, directions=[(1.0, 0.0), (0.0, 1.0)])
        assert res.direction == (0.0, 1.0)
        assert res.bump_label == (0.0625, 0.0, 0.5)
        mirrored = oslip_weak_min_c(grid, vel, directions=[(1.0, 0.0)])
        assert mirrored.min_c == res.min_c
        assert mirrored.bump_label == (0.0625, 0.5, 0.0)

    def test_massless_bumps_are_skipped(self):
        grid = PeriodicGrid(1, 20)
        basis = make_bump_basis(grid, widths=(0.03,))
        assert (basis.masses == 0.0).any() and (basis.masses > 0.0).any()
        _assert_matches_oracle(grid, ["smooth"], widths=(0.03,))
        empty = dataclasses.replace(basis, masses=np.zeros_like(basis.masses))
        res = oslip_weak_min_c(grid, _velocity(grid, "smooth"), basis=empty)
        assert res.min_c == -math.inf
        assert res.direction == (1.0,) and res.bump_label == basis.labels[0]

    @pytest.mark.parametrize("fn", [oslip_weak_min_c, oslip_discrete])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_velocity_rejected(self, fn, bad):
        grid = PeriodicGrid(2, 20)
        vel = _velocity(grid, "smooth")
        for where in (np.s_[:], np.s_[1, 3, 4]):
            broken = vel.copy()
            broken[where] = bad
            with pytest.raises(ValueError, match="finite"):
                fn(grid, broken)

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_moments_past_the_float_range_are_a_range_error(self, scale):
        # the ramp's wrap jump over two cells overflows the central difference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="a moment of the velocity over 64 cells is "
                                                 "outside the float range"):
                oslip_weak_min_c(PeriodicGrid(1, 64), scale * (np.arange(64) / 63.0)[None])

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    @pytest.mark.parametrize("shape", ["constant", "alternating"])
    def test_fields_at_the_float_range_with_a_zero_gradient_give_0(self, scale, shape):
        # the central difference of both is exactly 0, so every moment is
        values = {"constant": np.ones(64), "alternating": (-1.0) ** np.arange(64)}[shape]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = oslip_weak_min_c(PeriodicGrid(1, 64), scale * values[None])
        assert res.min_c.hex() == (0.0).hex()

    @pytest.mark.parametrize("directions", [
        [(1.0, 0.0), (0.0, 0.0)],            # zero
        [(1.0,)],                             # wrong length
        [(1.0, 0.0, 0.0)],
        [(math.nan, 1.0)],
        [(math.inf, 0.0)],
        [(1e-200, 0.0)],                      # |xi|^2 underflows to zero
    ])
    def test_bad_directions_rejected(self, directions):
        grid = PeriodicGrid(2, 20)
        with pytest.raises(ValueError, match="directions"):
            oslip_weak_min_c(grid, _velocity(grid, "smooth"), directions=directions)

    def test_basis_of_another_grid_rejected(self):
        grid = PeriodicGrid(2, 20)
        with pytest.raises(ValueError, match="another grid"):
            oslip_weak_min_c(grid, _velocity(grid, "smooth"),
                             basis=make_bump_basis(PeriodicGrid(2, 24)))

    @pytest.mark.parametrize("widths", [(0.25, 0.0), (-0.1,), (math.nan,), (math.inf,)])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="widths"):
            make_bump_basis(PeriodicGrid(1, 20), widths)


class TestDiscrete:
    def test_constant_gives_zero(self, grid4k):
        assert oslip_discrete(grid4k, _vel1d(grid4k, lambda x: 1.3 + 0.0 * x)) == 0.0

    def test_compressive_sawtooth_dominated_by_wrap(self, grid4k):
        vel = _vel1d(grid4k, lambda x: -x)
        unmasked = oslip_discrete(grid4k, vel)
        masked = oslip_discrete(grid4k, vel, mask_wrap=True)
        assert unmasked > 100.0          # expansive wrap jump blows up
        assert masked == pytest.approx(-1.0, abs=1e-9)

    def test_fan_slope(self, grid4k):
        assert oslip_discrete(grid4k, _clamped_fan(grid4k, 0.5)) == pytest.approx(2.0, rel=0.02)

    def test_upper_bounds_weak_constant(self, grid4k):
        vel = _vel1d(grid4k, lambda x: np.sin(np.pi * x) + 0.2 * np.sin(3 * np.pi * x))
        weak = oslip_weak_min_c(grid4k, vel).min_c
        disc = oslip_discrete(grid4k, vel)
        assert disc >= weak - 4.0 * grid4k.cell_width

    def test_quotients_past_the_float_range_are_a_range_error(self):
        # the differences overflowed: numpy warned, and 0 * inf made the 2D maximum NaN
        grid = PeriodicGrid(2, 8)
        alternating = 1e308 * (-1.0) ** np.arange(8)
        vel = np.stack([np.broadcast_to(alternating, grid.shape), np.zeros(grid.shape)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="a difference quotient of the velocity over "
                                                 "64 cells is outside the float range"):
                oslip_discrete(grid, vel)

    def test_an_overflow_below_the_maximum_leaves_it_alone(self):
        # the wrap quotient of a ramp to 1e307 is -inf; the largest one is finite
        grid = PeriodicGrid(1, 64)
        vel = 1e307 * (np.arange(64) / 63.0)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            disc = oslip_discrete(grid, vel)
        assert disc == np.max(np.diff(vel[0])) / grid.cell_width

    def test_multi_step_and_2d(self):
        # one-cell steps along both axes and both diagonals
        grid = PeriodicGrid(2, 64)
        xx, yy = grid.coordinates()
        vel = np.stack([0.3 * np.sin(np.pi * xx), 0.1 * np.sin(np.pi * yy)])
        assert oslip_discrete(grid, vel) == pytest.approx(0.3 * np.pi, rel=0.05)


def _masked_quotients_by_loop(grid, vel):
    """The largest masked quotient of each lattice step, one cell at a time:
    a stencil whose far end leaves the box [0, n - 1]^dims is dropped."""
    n, dx = grid.cells_per_dim, grid.cell_width
    steps = [(1,)] if grid.dims == 1 else [(1, 0), (0, 1), (1, 1), (1, -1)]
    best = {}
    for off in steps:
        h_len = dx * math.sqrt(sum(c * c for c in off))
        quots = []
        for cell in np.ndindex(grid.shape):
            far = tuple(i + c for i, c in zip(cell, off))
            if all(0 <= j <= n - 1 for j in far):
                diff = [float(vel[(a,) + far] - vel[(a,) + cell]) for a in range(grid.dims)]
                quots.append(sum(c * dx / h_len * d for c, d in zip(off, diff)) / h_len)
        best[off] = max(quots)
    return best


class TestDiscreteMaskAgainstLoop:
    """``mask_wrap`` drops exactly the stencils that cross the periodic
    identification.  Each velocity is a compressive ramp, whose wrap jumps
    are the largest expansive quotients, plus noise."""

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("n", [4, 5, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_value_is_the_loop_maximum(self, dims, n, seed):
        grid = PeriodicGrid(dims, n)
        rng = np.random.default_rng(seed)
        ramp = -np.stack(grid.coordinates()) if dims == 2 else -grid.axis_centers()[None]
        vel = ramp + 0.3 * grid.cell_width * rng.standard_normal((dims,) + grid.shape)
        masked = oslip_discrete(grid, vel, mask_wrap=True)
        assert masked == pytest.approx(max(_masked_quotients_by_loop(grid, vel).values()),
                                       rel=1e-12, abs=1e-12)
        assert oslip_discrete(grid, vel) > masked + 1.0

    @pytest.mark.parametrize("n", [4, 5, 16])
    @pytest.mark.parametrize("step", [(1, 0), (0, 1), (1, 1), (1, -1)])
    def test_each_2d_step_is_masked(self, n, step):
        # u = A x with A = -c h h^T - K (I - h h^T), h the unit step: along h
        # the ramp is gently compressive, so its wrap jumps are expansive;
        # across h it is steep, so ``step`` alone carries the masked maximum
        grid = PeriodicGrid(2, n)
        h = np.asarray(step, dtype=float) / math.hypot(*step)
        a = -1.0 * np.outer(h, h) - 20.0 * (np.eye(2) - np.outer(h, h))
        rng = np.random.default_rng(n)
        vel = np.tensordot(a, np.stack(grid.coordinates()), axes=(1, 0))
        vel += 0.3 * grid.cell_width * rng.standard_normal((2,) + grid.shape)
        loop = _masked_quotients_by_loop(grid, vel)
        assert max(loop, key=loop.get) == step
        masked = oslip_discrete(grid, vel, mask_wrap=True)
        assert masked == pytest.approx(loop[step], rel=1e-12, abs=1e-12)
        assert oslip_discrete(grid, vel) > masked + 10.0


class TestL1Report:
    def test_constant_rate(self):
        t = np.linspace(0.1, 1.0, 181)
        rep = l1_report(t, np.full_like(t, 2.5), delta=0.1)
        assert rep.l1_norm == pytest.approx(2.5 * 0.9, rel=1e-12)
        assert not rep.integrability_doubtful

    def test_inverse_time_closed_form(self):
        t = np.linspace(0.1, 1.0, 200001)
        rep = l1_report(t, 1.0 / t, delta=0.1)
        assert rep.l1_norm == pytest.approx(math.log(10.0), abs=1e-6)
        assert rep.fit_power == pytest.approx(1.0, abs=0.01)
        assert rep.integrability_doubtful

    @pytest.mark.parametrize("nodes", [2001, 10001, 20001, 200001])
    def test_exact_inverse_time_is_flagged_at_every_node_count(self, nodes):
        # the fitted power lands within about 1e-15 of 1, on either side
        t = np.linspace(0.1, 1.0, nodes)
        rep = l1_report(t, 1.0 / t, delta=0.1)
        assert abs(rep.fit_power - 1.0) < 1e-12
        assert rep.integrability_doubtful

    def test_a_power_under_one_is_not_flagged(self):
        t = np.linspace(0.1, 1.0, 20001)
        rep = l1_report(t, t**-0.9, delta=0.1)
        assert rep.fit_power == pytest.approx(0.9, abs=1e-12)
        assert not rep.integrability_doubtful

    def test_negative_parts_clipped(self):
        t = np.linspace(0.0, 1.0, 11)
        vals = np.where(t < 0.5, -1.0, 1.0)
        rep = l1_report(t, vals, delta=0.0)
        assert rep.l1_norm == pytest.approx(0.55, rel=1e-9)

    def test_fit_skips_tau_zero(self):
        t = np.linspace(0.0, 1.0, 21)
        rep = l1_report(t, np.full_like(t, 2.0), delta=0.0)
        assert rep.l1_norm == pytest.approx(2.0, rel=1e-12)
        assert rep.fit_power == pytest.approx(0.0, abs=1e-12)
        assert rep.points_fitted == 5

    def test_needs_samples_past_delta(self):
        with pytest.raises(ValueError):
            l1_report(np.array([0.1]), np.array([1.0]), delta=0.05)


def _l1_partial_loop(times, min_c):
    """oslip-check's running integral of max(min_C, 0) before l1_report gave it."""
    partial, prev, out = 0.0, None, []
    for i in range(len(times)):
        if prev is not None:
            partial += 0.5 * (max(min_c[i], 0.0) + max(min_c[prev], 0.0)) * (
                times[i] - times[prev]
            )
        out.append(partial)
        prev = i
    return out


def _hex(values):
    return [float(v).hex() for v in values]


class TestL1PartialAgainstLoop:
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2), (40, 3), (1000, 4)])
    def test_random_series(self, n, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 0.3, n))
        self._assert_matches_loop(times, rng.standard_normal(n))

    @pytest.mark.parametrize("min_c", [[-0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 1.0],
                                       [1.0, math.nan, 2.0], [math.nan, -0.0]])
    def test_signed_zero_and_nan(self, min_c):
        self._assert_matches_loop(0.1 * np.arange(1, len(min_c) + 1), np.array(min_c))

    @staticmethod
    def _assert_matches_loop(times, min_c):
        rep = l1_report(times, min_c, delta=float(times[0]))
        assert _hex(rep.l1_partial) == _hex(_l1_partial_loop(times, min_c))
        assert rep.l1_norm == rep.l1_partial[-1] or math.isnan(rep.l1_norm)

    def test_window_cuts_the_running_integral(self):
        times = np.array([0.0, 0.3, 0.6, 3 * 0.3, 1.2])
        rep = l1_report(times, np.array([5.0, 4.0, 3.0, 2.0, 1.0]), delta=0.9)
        assert _hex(rep.l1_partial) == _hex(_l1_partial_loop(times[3:], [2.0, 1.0]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples(self, n):
        with pytest.raises(ValueError, match="at least two samples"):
            l1_report(np.arange(n, dtype=float), np.ones(n), delta=0.0)


def _l1_report_before(times, min_c, delta):
    """l1_report before it clipped in place and fitted before integrating."""
    from eulerlab.grid import time_window

    times = np.asarray(times, dtype=float)
    vals = np.asarray(min_c, dtype=float)
    inside = time_window(times, delta, "delta")
    t = times[inside]
    v = np.maximum(vals[inside], 0.0)
    if len(t) < 2:
        raise ValueError("need at least two samples past delta")
    terms = 0.5 * (v[1:] + v[:-1]) * (t[1:] - t[:-1])
    partial = np.cumsum(np.concatenate(([0.0], terms)))
    tf, vf = t[t > 0.0], v[t > 0.0]
    n_fit = min(max(3, len(tf) // 4), len(tf))
    tf, vf = tf[:n_fit], vf[:n_fit]
    b = 0.0
    if n_fit >= 2 and np.min(vf) > 0.0:
        b = -float(np.polyfit(np.log(tf), np.log(vf), 1)[0])
    # the flag as it is now: b >= 1 up to the fit's rounding
    return L1Report(float(partial[-1]), partial, b, bool(b >= 1.0 - 1e-9), n_fit)


def _l1_series():
    """(times, min_c, delta) cases: a window from mid-array, tau <= 0 points,
    unsorted times, two points, signed zeros and NaN."""
    rng = np.random.default_rng(11)
    up = np.cumsum(rng.uniform(0.01, 0.3, 60))
    return [
        (up, rng.standard_normal(60), float(up[0])),
        (up, 1.0 / up, float(up[23])),                        # window from mid-array
        (np.linspace(-0.5, 1.0, 31), rng.standard_normal(31) + 2.0, -0.2),   # tau <= 0
        (np.linspace(-1.0, 0.0, 9), np.full(9, 3.0), -1.0),   # no tau > 0 point to fit
        (np.linspace(0.0, 1.0, 41), 2.0 / (0.01 + np.linspace(0.0, 1.0, 41)), 0.0),
        (rng.permutation(up), rng.standard_normal(60) + 1.0, float(up[10])),  # unsorted
        (np.array([0.3, 0.7]), np.array([2.0, 1.0]), 0.3),
        (np.array([0.7, 0.3]), np.array([-0.0, 4.0]), 0.0),
        (np.array([0.1, 0.2, 0.3]), np.array([1.0, math.nan, 2.0]), 0.1),
        (np.array([0.1, 0.2, 0.3, 0.4]), np.array([-0.0, 0.0, -1.0, 5.0]), 0.1),
    ]


class TestL1ReportAgainstItsOldBody:
    @pytest.mark.parametrize("times,min_c,delta", _l1_series())
    def test_every_field_is_bit_identical(self, times, min_c, delta):
        kept = min_c.copy()
        got, want = l1_report(times, min_c, delta), _l1_report_before(times, min_c, delta)
        assert _hex(got.l1_partial) == _hex(want.l1_partial)
        assert _hex([got.l1_norm, got.fit_power]) == _hex([want.l1_norm, want.fit_power])
        assert (got.integrability_doubtful, got.points_fitted) == (
            want.integrability_doubtful, want.points_fitted)
        # the clip works on the report's own copy, never on the caller's series
        assert min_c.tobytes() == kept.tobytes()

    def test_a_window_of_one_point_is_refused(self):
        with pytest.raises(ValueError, match="at least two samples past delta"):
            l1_report(np.array([0.1, 0.2, 0.3]), np.ones(3), 0.25)

    def test_dense_report_peak_memory_is_bounded(self):
        # a 200,001-node report held about 12.4 MB before it clipped in place
        import tracemalloc

        t = np.linspace(0.1, 1.0, 200001)
        v = 1.0 / t
        tracemalloc.start()
        try:
            rep = l1_report(t, v, delta=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert rep.l1_norm.hex() == _l1_report_before(t, v, 0.1).l1_norm.hex()


class TestDirections:
    def test_1d_both_signs(self):
        assert unit_directions(1) == [(1.0,), (-1.0,)]

    def test_2d_sixteen_equispaced(self):
        dirs = unit_directions(2)
        assert len(dirs) == 16
        for d in dirs:
            assert math.hypot(*d) == pytest.approx(1.0, rel=1e-12)
