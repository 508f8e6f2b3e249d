import io
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from eulerlab import grid as grid_module
from eulerlab.acceptance import EPS_SCAN
from eulerlab.errors import DomainError, RangeError, ResolutionError
from eulerlab.grid import (
    EXACT_SUM_MIN_TERMS,
    PeriodicGrid,
    ScalarField,
    VectorField,
    ball_offsets,
    build_mollifier,
    constant_field,
    exact_sum,
    field_from_function,
    grad_values,
    integral,
    lp_norm,
    lp_norm_values,
    mollify_values,
    read_columns_csv,
    offset_length,
    shift_values,
    time_trapezoid,
    time_window,
    weierstrass_field,
    weierstrass_values,
    write_columns_csv,
)


def _hex(values):
    return [float(v).hex() for v in values]


def _time_series(n, seed=0):
    """(times, values) of length n: increasing random times, values of both signs."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.01, 0.3, n)), rng.standard_normal(n)


#: Value series that hold a signed zero or a NaN.
SPECIAL_SERIES = ([-0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0], [1.0, math.nan, 2.0],
                  [math.nan, -0.0], [-1.0, 1.0, -0.0])


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


class TestGrid:
    def test_extent_is_two_per_dimension(self):
        g = PeriodicGrid(1, 128)
        assert g.cell_width * g.cells_per_dim == pytest.approx(2.0)
        assert g.axis_centers()[0] == pytest.approx(-1.0 + 0.5 * g.cell_width)

    @pytest.mark.parametrize("dims,cells", [(3, 16), (0, 16), (1, 3), (1, 32.0), (1, "32"),
                                            (True, 16), (1.0, 16), (1, np.int64(32))])
    def test_validation(self, dims, cells):
        with pytest.raises(ValueError):
            PeriodicGrid(dims, cells)

    def test_fields_are_immutable_and_finite(self, grid256):
        f = constant_field(grid256, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            ScalarField(grid256, np.full(grid256.shape, np.nan))


class TestNorms:
    @pytest.mark.parametrize("dims,n", [(1, 64), (2, 16)])
    def test_l1_of_unit_constant_is_domain_measure(self, dims, n):
        g = PeriodicGrid(dims, n)
        assert lp_norm(constant_field(g, 1.0), 1) == pytest.approx(2.0**dims, rel=1e-14)

    def test_rejects_p_below_one(self, grid256):
        with pytest.raises(DomainError):
            lp_norm(constant_field(grid256, 1.0), 0.5)

    def test_norms_are_bit_reproducible(self, grid256):
        f = _random_field(grid256)
        vals = {lp_norm(f, p) for _ in range(3) for p in (3.0,)}
        assert len(vals) == 1

    def test_vector_field_norm_uses_euclidean_magnitude(self, grid2d):
        v = VectorField(grid2d, np.stack([np.full(grid2d.shape, 3.0),
                                          np.full(grid2d.shape, 4.0)]))
        assert lp_norm(v, np.inf) == pytest.approx(5.0)


def _lp_terms_oracle(mag, p):
    """The terms lp_norm_values summed when it chose the power by p."""
    if p == 1.0:
        return mag
    if p == 2.0:
        return mag * mag
    if float(p).is_integer():
        return mag ** int(p)
    return mag**p


#: Zeros, subnormals, every decade of the normal range, and magnitudes whose
#: powers overflow, of both signs.
_LP_MAGNITUDES = np.concatenate([
    [0.0, -0.0, 5e-324, -1e-320, 1e-310, 2.2250738585072014e-308],
    np.logspace(-307, 307, 20_001), -np.logspace(-6, 6, 2_001),
    [1e100, 1.3407807929942596e154, 1e200, 1e300, np.finfo(float).max],
])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
class TestOnePower:
    """lp_norm_values takes |v|**p for every finite p, bit-identical to the
    per-p branches it replaced (|v|, |v|*|v|, |v|**int(p), |v|**p)."""

    def test_terms(self, monkeypatch, p):
        summed = []
        monkeypatch.setattr(grid_module, "exact_sum", lambda t: summed.append(t) or 1.0)
        with np.errstate(over="ignore"):
            lp_norm_values(_LP_MAGNITUDES, p, 1.0)
            expected = _lp_terms_oracle(np.abs(_LP_MAGNITUDES), p)
        assert [t.hex() for t in summed[0].tolist()] == [t.hex() for t in expected.tolist()]

    def test_norms(self, p):
        # six decades at a time, up to where the sum of the powers overflows,
        # and subnormals; where every power underflows to 0 there is no norm
        cases = [(np.logspace(lo, lo + 6, 2_000), vol)
                 for lo in range(-306, int(300 / p) - 6, 12) for vol in (1.0, 2.0**-13)]
        for mag, vol in cases + [(_LP_MAGNITUDES[:6], 1.0)]:
            total = exact_sum(_lp_terms_oracle(np.abs(mag), p))
            if total == 0.0:
                with pytest.raises(RangeError, match="outside the float range"):
                    lp_norm_values(mag, p, vol)
            else:
                expected = (vol * total) ** (1.0 / p)
                assert lp_norm_values(mag, p, vol).hex() == expected.hex(), mag[0]

    def test_a_sum_past_the_float_range_raises(self, p):
        # four finite powers whose sum overflows, and (p > 1) a power that overflows
        big = (0.5 * np.finfo(float).max) ** (1.0 / p)
        for mag in [[big] * 4] + ([[1e300, 1.0]] if p > 1.0 else []):
            with pytest.raises(RangeError, match="outside the float range"):
                lp_norm_values(np.array(mag), p, 1.0)


@pytest.mark.parametrize("mag", [np.full(600, np.nan), [1.0, np.nan]], ids=["all", "one"])
def test_a_nan_magnitude_is_called_not_a_number(mag):
    # not a range problem: the sum of the powers is nan, not past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError) as exc:
            lp_norm_values(mag, 2.0, 1.0)
    assert str(exc.value) == f"a magnitude among the {len(mag)} cells is not a number"


def _mollify(field, mol):
    return ScalarField(field.grid, mollify_values(field.values, mol))


def _mollify_shift_sum(values, mol):
    """Oracle: one periodic shifted copy of the field per kernel tap, summed
    in tap order, over the last ``dims`` axes."""
    vol = mol.grid.cell_volume
    first_axis = values.ndim - mol.grid.dims
    out = np.zeros_like(values)
    for off, w in zip(mol.offsets, mol.weights):
        out += (w * vol) * shift_values(values, tuple(-off), first_axis)
    return out


def _radius_cells(mol):
    return int(np.max(np.abs(mol.offsets)))


def _laplacian(field):
    """div grad by two central gradients: sum over axes of d_ax d_ax f."""
    dx = field.grid.cell_width
    g = grad_values(field.values, dx)
    return sum(grad_values(g[ax], dx)[ax] for ax in range(field.grid.dims))


class TestShift:
    def test_zero_and_full_period_are_identity(self, grid256):
        f = _random_field(grid256)
        assert np.array_equal(shift_values(f.values, (0,)), f.values)
        assert np.array_equal(shift_values(f.values, (grid256.cells_per_dim,)), f.values)

    def test_lattice_shift_is_exact_isometry(self, grid256):
        f = _random_field(grid256)
        for p in (1.0, 2.0, 3.0, np.inf):
            moved = ScalarField(grid256, shift_values(f.values, (5,)))
            assert lp_norm(moved, p) == lp_norm(f, p)

    def test_shift_direction_and_component_axis(self, grid2d):
        f = _random_field(grid2d)
        moved = shift_values(f.values, (3, -2))
        assert moved[0, 0] == f.values[3, -2]        # out(x) = in(x + h)
        stack = np.stack([f.values, -f.values])
        assert np.array_equal(shift_values(stack, (3, -2), first_axis=1)[1], -moved)

    def test_difference_triangle_inequality(self, grid256):
        f = _random_field(grid256)
        diff = ScalarField(grid256, shift_values(f.values, (7,)) - f.values)
        assert lp_norm(diff, 2) <= 2.0 * lp_norm(f, 2) + 1e-12


class TestMollifier:
    def test_kernel_invariants(self, grid256, grid2d):
        mol = build_mollifier(grid256, 0.1)
        vol = grid256.cell_volume
        for offsets in (mol.offsets, build_mollifier(grid2d, 0.2).offsets):  # lexicographic
            assert np.array_equal(np.lexsort(offsets.T[::-1]), np.arange(len(offsets)))
        assert math.fsum(mol.weights) * vol == pytest.approx(1.0, rel=1e-12)
        assert np.all(mol.weights >= 0.0)
        assert _radius_cells(mol) * grid256.cell_width < 0.1
        # the spectrum's mean mode is the kernel's total mass
        assert mol.spectrum.shape == (129,)
        assert mol.spectrum[0].real == pytest.approx(1.0, rel=1e-12)

    def test_too_small_radius_raises(self, grid256):
        with pytest.raises(ResolutionError):
            build_mollifier(grid256, 1.5 * grid256.cell_width)

    @pytest.mark.parametrize("eps", [0.0, -0.1, -math.inf, math.nan])
    def test_radius_not_positive_is_a_domain_error(self, grid256, eps):
        # a NaN radius passed every guard and ended in int(floor(nan)): "cannot
        # convert float NaN to integer"
        with pytest.raises(DomainError, match=f"mollifier radius must be positive, got {eps}"):
            build_mollifier(grid256, eps)

    def test_constant_is_fixed_point(self, grid256):
        mol = build_mollifier(grid256, 0.05)
        out = _mollify(constant_field(grid256, 3.7), mol)
        np.testing.assert_allclose(out.values, 3.7, rtol=1e-13)

    def test_mass_preserved(self, grid256):
        f = _random_field(grid256)
        out = _mollify(f, build_mollifier(grid256, 0.1))
        assert integral(out) == pytest.approx(integral(f), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_contraction_in_every_lp(self, grid256, p):
        f = _random_field(grid256, seed=5)
        out = _mollify(f, build_mollifier(grid256, 0.1))
        assert lp_norm(out, p) <= lp_norm(f, p) * (1.0 + 1e-12)

    def test_commutes_with_lattice_shift_to_rounding(self, grid256):
        f = _random_field(grid256, seed=2)
        mol = build_mollifier(grid256, 0.0625)
        a = shift_values(mollify_values(f.values, mol), (3,))
        b = mollify_values(shift_values(f.values, (3,)), mol)
        assert np.max(np.abs(a - b)) <= MOLLIFY_TOL * np.max(np.abs(f.values))

    def test_smooth_convergence_rate_two(self, grid8k):
        f = field_from_function(grid8k, lambda x: np.sin(np.pi * x))
        eps = [2.0 ** (-k) for k in range(3, 9)]
        errs = [lp_norm(ScalarField(grid8k,
                                    mollify_values(f.values, build_mollifier(grid8k, e))
                                    - f.values), 2)
                for e in eps]
        slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_matches_dense_quadrature_oracle(self, grid256):
        # continuum convolution of sin(pi x) with the discrete kernel taps
        f = field_from_function(grid256, lambda x: np.sin(np.pi * x))
        eps = 0.125
        mol = build_mollifier(grid256, eps)
        out = _mollify(f, mol)
        x0 = grid256.axis_centers()[17]
        expected = sum(
            w * grid256.cell_volume * math.sin(math.pi * (x0 - off[0] * grid256.cell_width))
            for off, w in zip(mol.offsets, mol.weights)
        )
        assert out.values[17] == pytest.approx(expected, rel=1e-12)

    def test_2d_mollify_contracts(self, grid2d):
        f = _random_field(grid2d, seed=9)
        out = _mollify(f, build_mollifier(grid2d, 0.2))
        assert lp_norm(out, 2) <= lp_norm(f, 2)


#: |mollify_values - shift-sum oracle| <= MOLLIFY_TOL * max|values|: the
#: product of spectra rounds differently from the tap sum (at most 3.2e-15
#: measured, on Weierstrass fields up to 8,192 cells and eps up to 0.5).
MOLLIFY_TOL = 1e-13


class TestSpectralMollifierMatchesShiftSum:
    """mollify_values is a product of real spectra; it is the shift-sum of
    rolled copies to rounding."""

    @staticmethod
    def _check(grid, eps, lead=(), seed=0):
        values = np.random.default_rng(seed).standard_normal(lead + grid.shape)
        mol = build_mollifier(grid, eps)
        gap = np.max(np.abs(mollify_values(values, mol) - _mollify_shift_sum(values, mol)))
        assert gap <= MOLLIFY_TOL * np.max(np.abs(values))
        return mol

    @pytest.mark.parametrize("eps", EPS_SCAN)
    def test_1d_measurement_grid(self, grid8k, eps):
        self._check(grid8k, eps)

    @pytest.mark.parametrize("eps", [0.125, 0.0625])
    def test_2d(self, eps):
        self._check(PeriodicGrid(2, 128), eps)

    def test_component_stack(self):
        self._check(PeriodicGrid(2, 128), 0.0625, lead=(3,))

    def test_gradient_stack(self, grid2d):
        # (component, direction, x, y), as the chain commutator mollifies it
        self._check(grid2d, 0.1, lead=(2, 2))

    @pytest.mark.parametrize("dims,cells,eps", [(1, 8192, 0.0123), (1, 256, 0.0917),
                                                (2, 64, 0.137)])
    def test_off_lattice_radius(self, dims, cells, eps):
        self._check(PeriodicGrid(dims, cells), eps)

    @pytest.mark.parametrize("dims,cells,eps", [(1, 255, 0.1), (1, 255, 1.0), (2, 63, 0.2)])
    def test_odd_cell_count(self, dims, cells, eps):
        # irfftn needs the cell count: an odd axis has no Nyquist mode
        self._check(PeriodicGrid(dims, cells), eps, lead=(2,) * (dims - 1))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_widest_radius(self, dims):
        # half the period: 7 cells each way on a 16-cell axis, the widest
        # kernel whose taps all land on distinct cells
        mol = self._check(PeriodicGrid(dims, 16), 1.0, lead=(2,) * (dims - 1))
        assert _radius_cells(mol) == 7


class TestMollifierIsBitStable:
    """The same field gives the same bits, whatever stacks or holds it."""

    @staticmethod
    def _stack(grid, rows=3):
        return np.random.default_rng(4).standard_normal((rows,) + grid.shape)

    @pytest.mark.parametrize("dims,cells", [(1, 8192), (2, 128)])
    def test_row_of_a_stack_equals_the_row_alone(self, dims, cells):
        grid = PeriodicGrid(dims, cells)
        stack, mol = self._stack(grid), build_mollifier(grid, 0.0625)
        batch = mollify_values(stack, mol)
        for row in range(len(stack)):
            assert np.array_equal(batch[row], mollify_values(stack[row], mol))

    def test_rerun_and_memory_layout(self):
        grid = PeriodicGrid(2, 128)
        values, mol = self._stack(grid, 1)[0], build_mollifier(grid, 0.125)
        first = mollify_values(values, mol)
        assert np.array_equal(mollify_values(values, mol), first)
        assert np.array_equal(mollify_values(np.asfortranarray(values), mol), first)
        # the same field as a window into a larger array: an offset, strided view
        wide = np.zeros((131, 133))
        wide[2:130, 3:131] = values
        assert np.array_equal(mollify_values(wide[2:130, 3:131], mol), first)

    def test_offset_view_1d(self, grid8k):
        wide = np.random.default_rng(5).standard_normal(8192 + 3)
        mol = build_mollifier(grid8k, 0.0625)
        assert np.array_equal(mollify_values(wide[3:], mol), mollify_values(wide[3:].copy(), mol))

    def test_non_finite_input_gives_non_finite_output(self, grid256):
        values = _random_field(grid256).values.copy()
        values[17] = np.nan
        assert not np.all(np.isfinite(mollify_values(values, build_mollifier(grid256, 0.1))))

    def test_spectrum_is_formed_once_per_mollifier(self, grid256, monkeypatch):
        calls = []
        real = np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda *a, **k: calls.append(1) or real(*a, **k))
        mol = build_mollifier(grid256, 0.1)
        assert len(calls) == 1
        for _ in range(3):
            mollify_values(_random_field(grid256).values, mol)
        assert len(calls) == 4      # one transform of the values per call, none of the kernel


class TestCalculus:
    def test_grad_of_constant_vanishes(self, grid256):
        g = grad_values(constant_field(grid256, 4.2).values, grid256.cell_width)
        assert g.shape == (1, 256) and np.all(g == 0.0)

    def test_laplacian_second_order(self):
        errs = {}
        for n in (64, 128, 256):
            g = PeriodicGrid(1, n)
            f = field_from_function(g, lambda x: np.sin(np.pi * x))
            exact = -np.pi**2 * np.sin(np.pi * g.axis_centers())
            errs[n] = float(np.max(np.abs(_laplacian(f) - exact)))
        rate = np.log2(errs[64] / errs[128])
        assert rate == pytest.approx(2.0, abs=0.15)
        assert errs[128] > errs[256]

    def test_div_grad_2d(self, grid2d):
        f = field_from_function(grid2d, lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y))
        exact = -2 * np.pi**2 * f.values
        assert np.max(np.abs(_laplacian(f) - exact)) < 0.2


class TestWeierstrass:
    def test_bounded_by_geometric_series(self, grid8k):
        for alpha in (0.4, 0.6, 0.8, 1.0):
            f = weierstrass_field(alpha, 13, grid8k)
            assert np.max(np.abs(f.values)) <= 1.0 / (1.0 - 2.0 ** (-alpha)) + 1e-12

    def test_requires_levels_reaching_grid(self, grid256):
        with pytest.raises(ResolutionError):
            weierstrass_field(0.5, 4, grid256)

    def test_rejects_alpha_out_of_range(self, grid256):
        with pytest.raises(DomainError):
            weierstrass_field(1.5, 8, grid256)

    def test_2d_is_tensor_product(self):
        g = PeriodicGrid(2, 64)
        f = weierstrass_field(0.6, 6, g)
        one_d = weierstrass_field(0.6, 6, PeriodicGrid(1, 64))
        np.testing.assert_allclose(f.values, np.outer(one_d.values, one_d.values))


class TestCsv:
    def test_roundtrip_is_bit_exact_1d(self, grid256):
        f = _random_field(grid256)
        buf = io.StringIO()
        write_columns_csv(buf, grid256, {"value": f.values}, comments=["config_hash=abc"])
        buf.seek(0)
        grid_back, cols = read_columns_csv(buf)
        assert grid_back == grid256
        assert np.array_equal(cols["value"], f.values)

    def test_roundtrip_multicolumn_2d(self, grid2d):
        rng = np.random.default_rng(1)
        cols = {"rho": rng.standard_normal(grid2d.shape),
                "m1": rng.standard_normal(grid2d.shape)}
        buf = io.StringIO()
        write_columns_csv(buf, grid2d, cols)
        buf.seek(0)
        grid_back, back = read_columns_csv(buf)
        assert grid_back == grid2d
        for name in cols:
            assert np.array_equal(back[name], cols[name])

    def test_header_format(self, grid256):
        buf = io.StringIO()
        write_columns_csv(buf, grid256, {"value": np.zeros(grid256.shape)})
        first = buf.getvalue().splitlines()[0]
        assert first == "x,value"

    def _csv_lines(self, grid):
        buf = io.StringIO()
        write_columns_csv(buf, grid, {"value": _random_field(grid).values})
        return buf.getvalue().splitlines()

    def test_reversed_rows_rejected(self, grid256):
        lines = self._csv_lines(grid256)
        text = "\n".join([lines[0]] + lines[:0:-1])
        with pytest.raises(ValueError, match="cell centres"):
            read_columns_csv(io.StringIO(text))

    def test_arbitrary_coordinates_rejected(self, grid2d):
        lines = self._csv_lines(grid2d)
        lines[5] = "0.5,0.5," + lines[5].split(",")[2]
        with pytest.raises(ValueError, match="cell centres"):
            read_columns_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("header", ["value", "y,value", "x", "x,y"])
    def test_header_must_start_with_coordinates(self, grid256, header):
        lines = self._csv_lines(grid256)
        lines[0] = header
        with pytest.raises(ValueError):
            read_columns_csv(io.StringIO("\n".join(lines)))

    def test_short_row_rejected(self, grid256):
        lines = self._csv_lines(grid256)
        lines[3] = lines[3].split(",")[0]
        with pytest.raises(ValueError):
            read_columns_csv(io.StringIO("\n".join(lines)))


# ---------------------------------------------------------------------------
# oracle: the CSV writer and reader as they were before the cached coordinate
# text and the numpy parse.  One f-string per value, one float() per token
# (the reader's checks, which did not change, are left out).  The fast pair
# must give the same bytes and parse the same bits.
# ---------------------------------------------------------------------------


def _oracle_write_columns_csv(stream, grid, columns, comments=()):
    for line in comments:
        stream.write(f"# {line}\n")
    names = list(columns)
    stream.write(",".join(("x", "y")[: grid.dims] + tuple(names)) + "\n")
    coords = [c.ravel() for c in grid.coordinates()]
    data = [np.asarray(columns[n]).reshape(grid.shape).ravel() for n in names]
    for i in range(coords[0].size):
        row = [f"{c[i]:.17g}" for c in coords] + [f"{d[i]:.17g}" for d in data]
        stream.write(",".join(row) + "\n")


def _oracle_read_columns_csv(stream):
    header, rows = None, []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    ncoord = 2 if header[:2] == ["x", "y"] else 1
    data = np.asarray(rows, dtype=float)
    grid = PeriodicGrid(ncoord, round(data.shape[0] ** (1.0 / ncoord)))
    return grid, {name: data[:, ncoord + j].reshape(grid.shape)
                  for j, name in enumerate(header[ncoord:])}


_CSV_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
                 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5]


def _csv_columns(grid, ncols, seed):
    """Values across 10^+-300, each column led by the specials in its own order."""
    rng = np.random.default_rng(seed)
    cells = math.prod(grid.shape)
    cols = {}
    for j in range(ncols):
        v = rng.standard_normal(cells) * 10.0 ** rng.integers(-300, 301, cells)
        lead = np.roll(_CSV_SPECIALS, j)[:cells]
        v[: len(lead)] = lead
        cols[f"c{j}"] = v.reshape(grid.shape)
    return cols


def _both_ways(grid, cols, comments=()):
    """(fast bytes, oracle bytes) of one dump."""
    fast, slow = io.StringIO(), io.StringIO()
    write_columns_csv(fast, grid, cols, comments)
    _oracle_write_columns_csv(slow, grid, cols, comments)
    return fast.getvalue(), slow.getvalue()


def _assert_parses_alike(text, grid, cols):
    got_grid, got = read_columns_csv(io.StringIO(text))
    old_grid, old = _oracle_read_columns_csv(io.StringIO(text))
    assert got_grid == old_grid == grid
    assert list(got) == list(old) == list(cols)
    for name in cols:
        assert got[name].tobytes() == old[name].tobytes()
        assert got[name].tobytes() == np.ascontiguousarray(cols[name], dtype=float).tobytes()


class TestCsvOracle:
    # 48 and 12 cells: a cell width that is no power of two
    @pytest.mark.parametrize("dims,cells", [(1, 48), (1, 256), (1, 4096),
                                            (2, 12), (2, 32), (2, 48)])
    @pytest.mark.parametrize("ncols", [1, 2, 3, 4])
    def test_bytes_and_bits_match_the_per_value_pair(self, dims, cells, ncols):
        grid = PeriodicGrid(dims, cells)
        cols = _csv_columns(grid, ncols, seed=10 * cells + ncols)
        fast, slow = _both_ways(grid, cols, comments=["config_hash=abc", "second"])
        assert fast == slow
        _assert_parses_alike(fast, grid, cols)

    def test_coordinate_text_is_formatted_once_per_write(self, monkeypatch):
        # one axis's n centres serve every row, in 2D as both coordinates
        calls = []
        real = PeriodicGrid.axis_centers
        monkeypatch.setattr(PeriodicGrid, "axis_centers",
                            lambda grid: calls.append(grid) or real(grid))
        for grid in (PeriodicGrid(1, 48), PeriodicGrid(2, 12)):
            for seed in range(3):
                calls.clear()
                write_columns_csv(io.StringIO(), grid, _csv_columns(grid, 2, seed))
                assert calls == [grid]

    def test_each_first_axis_row_is_one_write(self):
        class Recording(io.StringIO):
            def write(self, s):
                self.rows_per_write.append(s.count("\n"))
                return super().write(s)

        for grid in (PeriodicGrid(1, 48), PeriodicGrid(2, 12)):
            stream = Recording()
            stream.rows_per_write = []
            write_columns_csv(stream, grid, _csv_columns(grid, 3, 0), ["one comment"])
            # comment, header, then one write per first-axis row of cells
            slabs = grid.cells_per_dim ** (grid.dims - 1)
            assert stream.rows_per_write == [1, 1] + [grid.cells_per_dim] * slabs

    def test_footprint_is_one_row_of_text(self, tmp_path):
        # at 256^2 the per-cell coordinate text and the value lists held 17 MiB
        # while writing, and the list of rows 16 MiB while reading
        grid = PeriodicGrid(2, 256)
        cols = _csv_columns(grid, 4, seed=5)
        path = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            with open(path, "w") as fh:
                write_columns_csv(fh, grid, cols)
            _, written = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            with open(path) as fh:
                got_grid, got = read_columns_csv(fh)
            _, read = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got_grid == grid and all(got[k].tobytes() == cols[k].tobytes() for k in cols)
        assert written < 2**20
        # the parsed table is 3 MiB of the 4 MiB read peak
        assert read < 6 * 2**20

    def test_coordinates_are_checked_per_axis(self):
        grid = PeriodicGrid(2, 12)
        lines = _both_ways(grid, _csv_columns(grid, 1, 0))[0].splitlines()
        rows = [line.split(",") for line in lines[1:]]
        swapped = [lines[0]] + [",".join([y, x, v]) for x, y, v in rows]
        with pytest.raises(ValueError, match="cell centres"):
            read_columns_csv(io.StringIO("\n".join(swapped)))
        width = grid.cell_width
        for axis, frac, ok in [(0, 0.09, True), (0, 0.11, False),
                               (1, 0.09, True), (1, 0.11, False)]:
            moved = [r.copy() for r in rows]
            moved[29][axis] = repr(float(moved[29][axis]) + frac * width)
            text = "\n".join([lines[0]] + [",".join(r) for r in moved])
            if ok:
                assert read_columns_csv(io.StringIO(text))[0] == grid
            else:
                with pytest.raises(ValueError, match="cell centres"):
                    read_columns_csv(io.StringIO(text))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dims=st.sampled_from([1, 2]), ncols=st.integers(1, 4))
    def test_any_finite_floats_round_trip_like_the_oracle(self, data, dims, ncols):
        cells = data.draw(st.sampled_from([4, 6, 12] if dims == 2 else [4, 12, 48]))
        grid = PeriodicGrid(dims, cells)
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        cols = {f"c{j}": data.draw(arrays(np.float64, grid.shape, elements=finite))
                for j in range(ncols)}
        fast, slow = _both_ways(grid, cols)
        assert fast == slow
        assert fast.isascii() and "_" not in fast    # nothing the reader narrowed away
        _assert_parses_alike(fast, grid, cols)


_GOLDEN = Path(__file__).parent / "golden_columns.csv"


def _golden_columns():
    """Exactly representable arithmetic only, so every platform builds the same bits."""
    grid = PeriodicGrid(2, 6)
    k = np.arange(36.0).reshape(grid.shape)
    ramp = (k - 17.5) / 3.0
    scale = np.array(_CSV_SPECIALS + [2.0 ** -1074 * 3, -(2.0 ** 1000)] * 11)[:36]
    return grid, {"rho": 1.0 + k / 7.0, "m1": ramp, "E": scale.reshape(grid.shape)}


class TestCsvGolden:
    def test_writer_reproduces_the_committed_file(self):
        grid, cols = _golden_columns()
        buf = io.StringIO()
        write_columns_csv(buf, grid, cols, comments=["config_hash=golden"])
        assert buf.getvalue().encode() == _GOLDEN.read_bytes()

    def test_reader_parses_the_committed_file_bit_for_bit(self):
        grid, cols = _golden_columns()
        with open(_GOLDEN) as fh:
            got_grid, got = read_columns_csv(fh)
        assert got_grid == grid and list(got) == list(cols)
        for name in cols:
            assert got[name].tobytes() == cols[name].tobytes()


class TestCsvTokenContract:
    """What a data token may be.  The writer emits only ``'%.17g'`` text."""

    @staticmethod
    def _with_row(grid, row_text):
        buf = io.StringIO()
        write_columns_csv(buf, grid, {"value": np.ones(grid.shape)})
        lines = buf.getvalue().splitlines()
        lines[2] = row_text(lines[2])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("row_text", [
        lambda r: r + " # note",                 # inline comment after data
        lambda r: r.replace(",", ",,"),          # empty token
        lambda r: r.split(",")[0],               # short row
        lambda r: r + ",1",                      # long row
        lambda r: r.rsplit(",", 1)[0] + ",0x1",  # hex
    ], ids=["inline_hash", "empty_token", "short", "long", "hex"])
    def test_rejected_as_before(self, grid256, row_text):
        text = self._with_row(grid256, row_text)
        with pytest.raises(ValueError):
            read_columns_csv(io.StringIO(text))
        with pytest.raises(ValueError):
            _oracle_read_columns_csv(io.StringIO(text))

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\u0663.5"])
    def test_narrowed_tokens(self, grid256, token):
        # float() accepts digit separators and non-ASCII digits; the parse does not
        text = self._with_row(grid256, lambda r: r.rsplit(",", 1)[0] + "," + token)
        float(token)
        with pytest.raises(ValueError, match="could not convert"):
            read_columns_csv(io.StringIO(text))

    def test_surrounding_whitespace_still_accepted(self, grid256):
        text = self._with_row(grid256, lambda r: " " + r.replace(",", " ,\t"))
        _, cols = read_columns_csv(io.StringIO(text))
        assert cols["value"].tobytes() == np.ones(256).tobytes()


def _besov_ball(grid, rmax, eps):
    """The enumeration besov used before ball_offsets."""
    if grid.dims == 1:
        return [(c,) for c in range(1, rmax + 1)]
    out = []
    for cx in range(-rmax, rmax + 1):
        for cy in range(-rmax, rmax + 1):
            if (cx, cy) == (0, 0) or (cx == 0 and cy < 0) or cx < 0:
                continue
            if offset_length(grid, (cx, cy)) < eps:
                out.append((cx, cy))
    return out


def _commutator_ball(grid, rmax, eps):
    """The enumeration the product-commutator modulus used before ball_offsets."""
    if grid.dims == 1:
        return [(c,) for c in range(1, rmax + 1)]
    return [
        (cx, cy)
        for cx in range(0, rmax + 1)
        for cy in range(-rmax, rmax + 1)
        if (cx, cy) != (0, 0) and not (cx == 0 and cy < 0)
        and (cx * cx + cy * cy) * grid.cell_width**2 < eps**2
    ]


class TestBallOffsets:
    @pytest.mark.parametrize("dims,cells", [(1, 8192), (2, 64), (2, 128)])
    def test_matches_both_old_enumerations(self, dims, cells):
        from eulerlab.acceptance import EPS_SCAN

        grid = PeriodicGrid(dims, cells)
        for eps in EPS_SCAN:
            # the mollifier radius: the largest r with r * dx < eps
            rmax = math.ceil(eps / grid.cell_width) - 1
            offs = ball_offsets(grid, eps)
            assert offs == _besov_ball(grid, rmax, eps)
            assert offs == _commutator_ball(grid, rmax, eps)

    def test_mollifier_radius_convention(self, grid8k):
        for eps in (2.0**-4, 2.0**-10):
            mol = build_mollifier(grid8k, eps)
            assert _radius_cells(mol) == math.ceil(eps / grid8k.cell_width) - 1

    @pytest.mark.parametrize("dims,eps", [(1, 5.0), (2, 2.3), (1, math.nextafter(1.0, 2.0)),
                                          (2, math.inf)])
    def test_radius_past_half_the_period_is_refused(self, dims, eps):
        # past PERIOD / 2 the taps of a kernel, and the offsets of a ball, land
        # on the same cells again; the tap count grew as (2 eps / dx)**dims
        grid = PeriodicGrid(dims, 16)
        with pytest.raises(DomainError, match="exceeds half the period"):
            build_mollifier(grid, eps)
        with pytest.raises(DomainError, match="exceeds half the period"):
            ball_offsets(grid, eps)
        assert max(abs(c) for off in ball_offsets(grid, 1.0) for c in off) == 7


class TestWeierstrassPhase:
    def _loop(self, alpha, levels, x, phase=None):
        out = np.zeros_like(x)
        for k in range(levels + 1):
            arg = (2.0**k) * np.pi * x
            out += 2.0 ** (-alpha * k) * np.cos(arg if phase is None else arg + phase)
        return out

    def test_phase_zero_is_the_unphased_sum(self, grid8k):
        x = grid8k.axis_centers()
        plain = self._loop(0.6, 13, x)
        assert weierstrass_values(0.6, 13, x).tobytes() == plain.tobytes()
        assert weierstrass_values(0.6, 13, x, phase=0.0).tobytes() == plain.tobytes()

    def test_phased_sum_matches_loop(self, grid8k):
        x = grid8k.axis_centers()
        want = self._loop(0.8, 13, x, phase=1.0)
        assert weierstrass_field(0.8, 13, grid8k, phase=1.0).values.tobytes() == want.tobytes()



# exact_sum against its oracle, math.fsum: the same float bit for bit (sign of
# zero included, compared through float.hex) or the same exception type.
def _outcome(fn, values):
    try:
        return fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_fsum_identical(values):
    assert _outcome(exact_sum, values) == _outcome(lambda a: math.fsum(a.ravel()), values)


_SIZES = st.one_of(st.integers(1, EXACT_SUM_MIN_TERMS - 1),
                   st.integers(EXACT_SUM_MIN_TERMS, 4 * EXACT_SUM_MIN_TERMS))


@st.composite
def _summands(draw):
    """Seeded arrays of one of seven kinds, 1D or 2D, on both sides of the cutoff."""
    n = draw(_SIZES)
    kind = draw(st.sampled_from(["normal", "cancel", "scaled", "mixed", "subnormal",
                                 "zeros", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(n)
    if kind == "cancel":                     # x and -x, plus a residue that may be empty
        a = np.concatenate([a, -a[::-1], 1e-17 * a[: draw(st.integers(0, n // 3))]])
    elif kind == "scaled":
        a = a * 10.0 ** draw(st.sampled_from([-300, -200, 200, 300]))
    elif kind == "mixed":                    # exponents spread over 1e+-300
        a = a * 10.0 ** rng.uniform(-300.0, 300.0, n)
    elif kind == "subnormal":
        a = a * 1e-310
    elif kind == "zeros":                    # +0.0 and -0.0 only
        a = rng.choice([0.0, -0.0], n)
    elif kind == "sparse":                   # signed zeros with a few terms between them
        a = a * (rng.random(n) < 0.1)
    if draw(st.booleans()) and a.size % 2 == 0:
        a = a.reshape(2, -1)
    return a


class TestExactSum:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_summands())
    def test_bit_identical_to_fsum(self, values):
        _assert_fsum_identical(values)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(arrays(np.float64, _SIZES,
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_bit_identical_on_any_finite_floats(self, values):
        _assert_fsum_identical(values)

    @pytest.mark.parametrize("n", [3, EXACT_SUM_MIN_TERMS, 4 * EXACT_SUM_MIN_TERMS])
    @pytest.mark.parametrize("special", [
        [math.inf], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan],
        [math.nan, math.inf], [1e308, 1e308], [1e308, 1e308, -1e308],
        [1e308, -1e308], [8e307, 8e307],
        [2.0**901, -(2.0**901)], [-0.0], [5e-324],
        # a tie at the first level that only the lower levels break
        [1.0, 2.0**-53, 2.0**-106], [1.0, 2.0**-53, -(2.0**-106)],
    ])
    def test_specials_and_overflow(self, n, special):
        values = np.zeros(n)
        values[: len(special)] = special
        _assert_fsum_identical(values)
        _assert_fsum_identical(-values)

    def test_all_negative_zeros(self):
        for n in (3, EXACT_SUM_MIN_TERMS):
            _assert_fsum_identical(np.full(n, -0.0))

    def test_input_is_not_modified(self, grid8k):
        f = _random_field(grid8k)
        before = f.values.tobytes()
        exact_sum(f.values)
        assert f.values.tobytes() == before


# exact_sum by row: every row bit for bit equal to math.fsum of that row, or
# the exception of the first row whose fsum raises.
def _rows_outcome(fn, rows):
    try:
        return [v.hex() for v in fn(rows).tolist()]
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _per_row_fsum(rows):
    return np.array([math.fsum(r) for r in rows.tolist()])


def _assert_rows_fsum_identical(rows):
    want = _rows_outcome(_per_row_fsum, rows)
    assert _rows_outcome(lambda a: exact_sum(a, axis=-1), rows) == want
    assert _rows_outcome(lambda a: exact_sum(a.T.copy(), axis=0), rows) == want


@st.composite
def _row_blocks(draw):
    """Rows of the seven summand kinds, each padded at its end with -0.0."""
    n = draw(_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["normal", "cancel", "scaled", "mixed", "subnormal",
                                     "zeros", "sparse"]))
        a = rng.standard_normal(n)
        if kind == "cancel":
            half = a[: n // 2]
            a[: 2 * len(half)] = np.concatenate([half, -half[::-1]])
        elif kind == "scaled":
            a = a * 10.0 ** draw(st.sampled_from([-300, -200, 200, 300]))
        elif kind == "mixed":
            a = a * 10.0 ** rng.uniform(-300.0, 300.0, n)
        elif kind == "subnormal":
            a = a * 1e-310
        elif kind == "zeros":
            a = rng.choice([0.0, -0.0], n)
        elif kind == "sparse":
            a = a * (rng.random(n) < 0.1)
        a[n - draw(st.integers(0, n)):] = -0.0
        rows.append(a)
    return np.array(rows)


class TestExactSumByRow:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_row_blocks())
    def test_rows_bit_identical_to_fsum(self, rows):
        _assert_rows_fsum_identical(rows)

    @pytest.mark.parametrize("n", [3, EXACT_SUM_MIN_TERMS + 5])
    @pytest.mark.parametrize("special", [
        [math.inf], [math.nan], [1e308, 1e308], [2.0**901, -(2.0**901)], [5e-324],
        [1.0, 2.0**-53, 2.0**-106],
    ])
    def test_specials_in_one_row(self, n, special):
        rows = np.random.default_rng(1).standard_normal((3, n))
        rows[1, : len(special)] = special
        _assert_rows_fsum_identical(rows)

    def test_signed_zero_rows(self):
        rows = np.array([[-0.0, -0.0, -0.0], [0.0, -0.0, -0.0], [0.0, 0.0, 0.0],
                         [1.0, -1.0, -0.0], [-0.0, 2.0, -0.0]])
        _assert_rows_fsum_identical(rows)
        empty = [v.hex() for v in exact_sum(np.zeros((4, 0)), axis=-1).tolist()]
        assert empty == [math.fsum([]).hex()] * 4
        assert exact_sum(np.zeros((4, 0)), axis=0).shape == (0,)

    def test_axis_and_shape(self):
        a = np.random.default_rng(2).standard_normal((3, 700, 4))
        got = exact_sum(a, axis=1)
        assert got.shape == (3, 4)
        want = [[math.fsum(a[i, :, j]) for j in range(4)] for i in range(3)]
        assert got.tolist() == want
        assert exact_sum(a.transpose(0, 2, 1), axis=-1).tolist() == want


def _time_trapezoid_loop(times, series) -> float:
    """The weak residual's time quadrature before grid.time_trapezoid."""
    total = 0.0
    for j in range(1, len(times)):
        total += 0.5 * (series[j] + series[j - 1]) * (times[j] - times[j - 1])
    return total


class TestTimeAxis:
    @pytest.mark.parametrize("n,seed", [(0, 0), (1, 0), (2, 0), (2, 1), (7, 2), (50, 3),
                                        (1000, 4)])
    def test_running_totals_match_the_loop(self, n, seed):
        times, values = _time_series(n, seed)
        self._assert_matches_loop(list(times), list(values))

    @pytest.mark.parametrize("values", SPECIAL_SERIES)
    def test_signed_zero_and_nan_match_the_loop(self, values):
        self._assert_matches_loop([0.1 * (j + 1) for j in range(len(values))], values)

    @staticmethod
    def _assert_matches_loop(times, values):
        terms, running = time_trapezoid(times, values)
        assert len(terms) == max(len(times) - 1, 0) and len(running) == len(terms) + 1
        # every running total is the loop over its prefix, signed zero included
        assert _hex(running) == _hex(_time_trapezoid_loop(times[:k + 1], values[:k + 1])
                                     for k in range(len(running)))
        assert _hex(terms) == _hex(0.5 * (values[j] + values[j - 1]) * (times[j] - times[j - 1])
                                   for j in range(1, len(times)))

    @pytest.mark.parametrize("n,seed", [(0, 0), (1, 0), (2, 0), (2, 1), (9, 5), (1000, 6)])
    def test_matches_its_old_expressions(self, n, seed):
        # the terms, and the running totals as a fresh cumsum of [0.0, *terms], as they
        # were formed before the totals were accumulated in place; unsorted times too
        times, values = _time_series(n, seed)
        for t in (times, np.random.default_rng(seed).permutation(times)):
            terms, running = time_trapezoid(t, values)
            old = 0.5 * (values[1:] + values[:-1]) * (t[1:] - t[:-1])
            assert _hex(terms) == _hex(old)
            assert _hex(running) == _hex(np.cumsum(np.concatenate(([0.0], old))))

    def test_window_keeps_a_stride_rounded_below_its_start(self):
        times = [0.0, 0.3, 0.6, 3 * 0.3, 1.2]
        assert times[3] == 0.8999999999999999
        assert time_window(times, 0.9, "t0").tolist() == [False, False, False, True, True]
        assert time_window(times, 0.9 + 2e-12, "t0").tolist() == [False] * 4 + [True]
        assert time_window([], 0.0, "t0").tolist() == []

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_window_start_must_be_finite(self, start):
        with pytest.raises(ValueError, match=f"t0 must be finite, got {start}"):
            time_window([0.0, 0.5, 1.0], start, "t0")
