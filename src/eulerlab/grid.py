"""Periodic grids, discrete fields, mollification and lattice calculus.

The domain is the N-torus obtained from [-1, 1]^N by identifying opposite
faces, N in {1, 2}, discretized by equal cells with midpoint values.  Fields
are immutable; every reduction sums with `exact_sum`, which is bit-identical
to `math.fsum`, so norms are exact (correctly rounded) sums of their cell
terms and therefore independent of cell order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DomainError, RangeError, ResolutionError

#: Physical extent of the domain per dimension.
PERIOD = 2.0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on ([-1, 1] with endpoints identified)^dims."""

    dims: int
    cells_per_dim: int

    def __post_init__(self) -> None:
        # a float or a bool would pass the range checks and break indexing later
        if type(self.dims) is not int or self.dims not in (1, 2):
            raise ValueError(f"dims must be the integer 1 or 2, got {self.dims!r}")
        if type(self.cells_per_dim) is not int or self.cells_per_dim < 4:
            raise ValueError(f"need an integer of at least 4 cells per dimension, "
                             f"got {self.cells_per_dim!r}")

    @property
    def cell_width(self) -> float:
        return PERIOD / self.cells_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_dim,) * self.dims

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.dims

    def axis_centers(self) -> np.ndarray:
        n = self.cells_per_dim
        return -1.0 + (np.arange(n) + 0.5) * self.cell_width

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, broadcast to the grid shape."""
        c = self.axis_centers()
        if self.dims == 1:
            return (c,)
        return tuple(np.meshgrid(c, c, indexing="ij"))


def _frozen(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"values shape {arr.shape} does not match {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScalarField:
    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, self.grid.shape))


@dataclass(frozen=True)
class VectorField:
    """One component per grid dimension, component axis first."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen(self.values, (self.grid.dims,) + self.grid.shape)
        )


Field = ScalarField | VectorField


def constant_field(grid: PeriodicGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def field_from_function(grid: PeriodicGrid, fn) -> ScalarField:
    return ScalarField(grid, fn(*grid.coordinates()))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

#: Below this many terms `math.fsum` beats the vectorized extraction.
EXACT_SUM_MIN_TERMS = 512
_EXTRACT_MAX = 2.0**900     # above: sigma could overflow
_EXTRACT_MIN = 2.0**-900    # below: extraction could underflow


def exact_sum(values, axis: int | None = None):
    """Correctly rounded sum, bit-identical to `math.fsum`.

    With ``axis=None`` all entries are summed into one float.  With an
    integer ``axis`` the sums run along that axis, like ``np.sum``, and each
    of them is exact on its own; the result is an array.  ``-0.0`` is
    neutral, so ragged rows can be padded with it.

    Error-free vector extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31(1), 2008): with a per-sum sigma = 2^M * 2^e, 2^M >= n + 2 and every
    |p| < 2^e among its n terms, q = (sigma + p) - sigma and p - q are
    exact, and so is the sum of q in any order, since every partial sum is
    a multiple of ulp(sigma) below sigma.  Each level strips the top bits of
    every term; `math.fsum` then rounds the few exact level sums of each
    sum, plus any remainder below 2^-900, once.  Sums of signed zeros take
    the sign `math.fsum` gives them; an empty sum is +0.0.  A total of fewer
    than `EXACT_SUM_MIN_TERMS` terms, and sums with non-finite terms or
    terms near overflow, go to `math.fsum` directly (same value or
    exception).
    """
    arr = np.asarray(values, dtype=np.float64)
    if axis is None:
        if arr.size < EXACT_SUM_MIN_TERMS:
            return math.fsum(arr.ravel().tolist())
        p = arr.reshape(-1, 1).copy()
    else:
        arr = np.moveaxis(arr, axis, 0)
        # one column per sum, its terms down the first axis: sums reduce fast
        p = arr.reshape(len(arr), math.prod(arr.shape[1:])).copy()
    out = np.zeros(p.shape[1])
    q = np.abs(p)
    top = q.max(axis=0, initial=0.0)
    if not top.max(initial=0.0) <= _EXTRACT_MAX:  # non-finite terms, or sigma could overflow
        for r in np.flatnonzero(~(top <= _EXTRACT_MAX)):
            out[r] = math.fsum(p[:, r])
            p[:, r] = top[r] = 0.0  # +0.0: the signed-zero rule below passes it by
    live = top != 0.0
    if len(p) and not live.all():  # signed zeros only: fsum decides the sign
        zeros = np.flatnonzero(~live)
        out[zeros[np.signbit(p[:, zeros]).all(axis=0)]] = math.fsum([-0.0])
    single = len(top) == 1
    scale = 2.0 ** math.ceil(math.log2(len(p) + 2))
    levels = []
    while True:
        if single:  # one sum: Python floats keep its bookkeeping cheap
            if not top[0] >= _EXTRACT_MIN:
                break
            sigma = scale * 2.0 ** math.frexp(top[0])[1]
        else:
            busy = top >= _EXTRACT_MIN
            working = np.count_nonzero(busy)
            if not working:
                break
            if working < len(busy):
                top[~busy] = 0.0  # sigma = scale leaves a finished column's rest be
            sigma = np.ldexp(scale, np.frexp(top)[1])
        np.add(p, sigma, out=q)
        q -= sigma
        levels.append(q.sum(axis=0))
        p -= q
        top = np.abs(p, out=q).max(axis=0)
    if np.count_nonzero(top):  # what is left lies below the extraction range
        levels.extend(p[(p != 0.0).any(axis=1)])
    if levels:
        sums = list(map(math.fsum, zip(*(lv.tolist() for lv in levels))))
        np.copyto(out, sums, where=live)
    return float(out[0]) if axis is None else out.reshape(arr.shape[1:])


def magnitude(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Pointwise |v|: the absolute value of a scalar array on ``grid``, or the
    Euclidean norm over the leading component axes of a stack."""
    if values.ndim == grid.dims:
        return np.abs(values)
    return np.sqrt(np.sum(values * values, axis=tuple(range(values.ndim - grid.dims))))


def lp_norm(field: Field, p: float) -> float:
    """Cell-volume-weighted L^p norm, p in [1, inf]."""
    return lp_norm_values(magnitude(field.values, field.grid), p, field.grid.cell_volume)


def lp_norm_values(magnitudes: np.ndarray, p: float, cell_volume: float) -> float:
    if not p >= 1.0:
        raise DomainError(f"Lebesgue exponent must be >= 1, got {p}")
    mag = np.abs(np.asarray(magnitudes, dtype=float))
    if p == np.inf:
        return float(np.max(mag))
    try:
        with np.errstate(over="ignore"):   # an overflowed term shows in the total
            total = exact_sum(mag**p)
    except OverflowError:   # finite terms whose sum overflows
        total = math.inf
    if math.isnan(total):
        raise RangeError(f"a magnitude among the {mag.size} cells is not a number")
    # a zero total of terms not all zero: every one of them underflowed
    if math.isinf(total) or (total == 0.0 and mag.any()):
        raise RangeError(f"the sum of |v|**{p:g} over {mag.size} cells is {total}, "
                         f"outside the float range")
    return float((cell_volume * total) ** (1.0 / p))


def integral(field: ScalarField) -> float:
    """Cell-volume-weighted integral (signed)."""
    return field.grid.cell_volume * exact_sum(field.values)


# ---------------------------------------------------------------------------
# time axis
# ---------------------------------------------------------------------------


def time_window(times, start: float, name: str) -> np.ndarray:
    """Mask of the snapshot times in the window [start, T].  A time up to 1e-12
    below ``start`` counts as inside: a stride's rounding drops no snapshot.
    A non-finite ``start`` is a ValueError that calls it ``name``."""
    if not math.isfinite(start):
        raise ValueError(f"{name} must be finite, got {start}")
    return np.asarray(times, dtype=float) >= start - 1e-12


def time_trapezoid(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid rule over snapshot times: the interval terms
    0.5 * (v[j] + v[j-1]) * (t[j] - t[j-1]) and their running totals, summed
    left to right from 0.0, so the last running total is the integral."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    terms = 0.5 * (v[1:] + v[:-1]) * (t[1:] - t[:-1])
    running = np.concatenate(([0.0], terms))
    return terms, np.cumsum(running, out=running)


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def shift_values(values: np.ndarray, offsets: Sequence[int], first_axis: int = 0) -> np.ndarray:
    """Translate so that out(x) = in(x + offsets*dx), periodic."""
    return np.roll(values, [-c for c in offsets],
                   axis=tuple(range(first_axis, first_axis + len(offsets))))


def offset_length(grid: PeriodicGrid, offsets: Sequence[int]) -> float:
    return grid.cell_width * math.sqrt(sum(c * c for c in offsets))


def _check_radius(eps: float) -> None:
    """Past half the period a ball's or a kernel's offsets land on the same cells again."""
    if eps > PERIOD / 2.0:
        raise DomainError(f"radius {eps:g} exceeds half the period, {PERIOD / 2.0:g}")


def ball_offsets(grid: PeriodicGrid, eps: float) -> list[tuple[int, ...]]:
    """Nonzero lattice offsets with |h| < eps.

    One offset of each +-h pair is kept (the first nonzero coordinate is
    positive), in lexicographic order.  ``eps`` is at most half the period.
    """
    _check_radius(eps)
    rmax = int(eps / grid.cell_width)
    if grid.dims == 1:
        cand = [(c,) for c in range(1, rmax + 1)]
    else:
        cand = [(cx, cy) for cx in range(rmax + 1) for cy in range(-rmax, rmax + 1)
                if cx > 0 or cy > 0]
    return [off for off in cand if offset_length(grid, off) < eps]


def wrap(delta: np.ndarray) -> np.ndarray:
    """Minimum-image displacement on the periodic axis, in [-1, 1)."""
    return (delta + PERIOD / 2.0) % PERIOD - PERIOD / 2.0


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """Discretized smooth bump with support strictly inside {|y| < epsilon}.

    ``offsets`` holds integer lattice offsets (rows, lexicographic), ``weights``
    the kernel values there, normalized so that sum(weights) * cell_volume = 1.
    ``spectrum`` is its real spectrum on the torus of ``grid``: each tap, times
    the cell volume, on its offset mod the cell count, a cell of its own.
    """

    epsilon: float
    grid: PeriodicGrid
    offsets: np.ndarray
    weights: np.ndarray
    spectrum: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        kernel = np.zeros(self.grid.shape)
        kernel[tuple((self.offsets % self.grid.cells_per_dim).T)] = (
            self.weights * self.grid.cell_volume)
        object.__setattr__(self, "spectrum", np.fft.rfftn(kernel))


def build_mollifier(grid: PeriodicGrid, epsilon: float) -> Mollifier:
    """Kernel exp(-1/(1 - |y/eps|^2)) sampled on the lattice and normalized."""
    eps = float(epsilon)
    if not eps > 0:
        raise DomainError(f"mollifier radius must be positive, got {eps}")
    _check_radius(eps)
    dx = grid.cell_width
    if eps < 2.0 * dx:
        raise ResolutionError(
            f"mollifier radius {eps:g} not resolvable on cell width {dx:g} (need >= 2 cells)"
        )
    r = int(math.floor(eps / dx))
    while r * dx >= eps:
        r -= 1
    rng = np.arange(-r, r + 1)
    if grid.dims == 1:
        offsets = rng.reshape(-1, 1)
    else:
        ox, oy = np.meshgrid(rng, rng, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
    dist2 = np.sum((offsets * dx / eps) ** 2, axis=1)
    keep = dist2 < 1.0
    offsets = offsets[keep]
    w = np.exp(-1.0 / (1.0 - dist2[keep]))
    w = w / (exact_sum(w) * grid.cell_volume)
    return Mollifier(eps, grid, offsets, w)


def mollify_values(values: np.ndarray, mol: Mollifier) -> np.ndarray:
    """out(x) = sum over taps of w * vol * values(x - off*dx), periodic in the
    last ``dims`` axes, as a product of real spectra: one ``rfftn`` of the
    values times ``mol.spectrum``, and back.  It is the tap sum to rounding."""
    axes = tuple(range(-mol.grid.dims, 0))
    spectrum = np.fft.rfftn(values, axes=axes) * mol.spectrum
    return np.fft.irfftn(spectrum, s=mol.grid.shape, axes=axes)


# ---------------------------------------------------------------------------
# lattice calculus
# ---------------------------------------------------------------------------


def grad_values(values: np.ndarray, cell_width: float) -> np.ndarray:
    """Second-order central gradient, periodic, one component per axis first."""
    comps = [
        (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * cell_width)
        for ax in range(values.ndim)
    ]
    return np.stack(comps)


# ---------------------------------------------------------------------------
# synthetic fields
# ---------------------------------------------------------------------------


def weierstrass_values(alpha: float, levels: int, x: np.ndarray,
                       phase: float = 0.0) -> np.ndarray:
    out = np.zeros_like(x)
    for k in range(levels + 1):
        out += 2.0 ** (-alpha * k) * np.cos((2.0**k) * np.pi * x + phase)
    return out


def weierstrass_field(alpha: float, levels: int, grid: PeriodicGrid,
                      phase: float = 0.0) -> ScalarField:
    """Lacunary cosine sum of Hoelder exponent alpha, saturating the grid.

    W(x) = sum_{k<=levels} 2**(-alpha k) cos(2**k pi x + phase); in 2D the
    tensor product W(x) * W(y).  Requires 2**levels >= cells_per_dim so that
    the series reaches the grid scale.  Adding a zero phase is exact, so
    phase 0 reproduces the unphased sum bit for bit.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if 2**levels < grid.cells_per_dim:
        raise ResolutionError(
            f"2**levels = {2 ** levels} must reach cells_per_dim = {grid.cells_per_dim}"
        )
    c = grid.axis_centers()
    w = weierstrass_values(alpha, levels, c, phase)
    if grid.dims == 1:
        return ScalarField(grid, w)
    return ScalarField(grid, np.outer(w, w))


# ---------------------------------------------------------------------------
# CSV snapshots
# ---------------------------------------------------------------------------

_COORD_NAMES = ("x", "y")


def write_columns_csv(
    stream: TextIO,
    grid: PeriodicGrid,
    columns: dict[str, np.ndarray],
    comments: Iterable[str] = (),
) -> None:
    """Row-major cell dump with 17 significant digits per value, one ``%`` per
    row (``'%.17g' % x`` is ``f"{x:.17g}"`` for every float)."""
    for line in comments:
        stream.write(f"# {line}\n")
    names = list(columns)
    stream.write(",".join(_COORD_NAMES[: grid.dims] + tuple(names)) + "\n")
    n = grid.cells_per_dim
    data = [np.asarray(columns[name]).reshape(grid.shape).reshape(-1, n) for name in names]
    row = ("%s" + ",%.17g" * len(names) + "\n").__mod__
    axis = ["%.17g" % x for x in grid.axis_centers().tolist()]
    # one write per first-axis row of cells, formatted when it is reached: the
    # file's text, or a list of every value, would grow with the grid
    for i in range(n ** (grid.dims - 1)):
        coords = axis if grid.dims == 1 else [f"{axis[i]},{y}" for y in axis]
        stream.write("".join(map(row, zip(coords, *(d[i].tolist() for d in data)))))


def read_columns_csv(stream: TextIO) -> tuple[PeriodicGrid, dict[str, np.ndarray]]:
    """Parse a ``write_columns_csv`` dump.

    The header must be ``x[,y]`` followed by at least one data column, and
    every coordinate must sit on the centre of its cell (row-major order) of
    the grid the row count implies.  A token is an ASCII decimal float: the
    ``1_0`` and non-ASCII digits that ``float()`` took are rejected.  Data
    values may be inf or nan: each reader checks the values it keeps.
    """
    # the stripped non-comment lines, read as numpy parses them: no list of
    # every row is held
    lines = (s for s in map(str.strip, stream) if s and not s.startswith("#"))
    header = next(lines, None)
    first = next(lines, None)
    if first is None:
        raise ValueError("empty field CSV")
    header = header.split(",")
    ncoord = 2 if header[:2] == list(_COORD_NAMES) else 1
    if header[0] != "x" or len(header) == ncoord:
        raise ValueError(f"expected header x[,y] plus data columns, got {header}")
    # comments=None: a "#" after data is a bad token, as it is to float()
    data = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                      ndmin=2, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError(f"rows must hold {len(header)} values each")
    count = data.shape[0]
    n = round(count ** (1.0 / ncoord))
    if n**ncoord != count:
        raise ValueError(f"row count {count} is not a {ncoord}-dim grid")
    grid = PeriodicGrid(ncoord, n)
    centers = grid.axis_centers()
    # far looser than the 17-digit round trip, far tighter than one cell; the
    # k-th coordinate of the row-major cells is the centre of their k-th index
    if not all(np.all(np.abs(data[:, k].reshape(grid.shape)
                             - centers.reshape((-1,) + (1,) * (ncoord - 1 - k)))
                      <= 0.1 * grid.cell_width) for k in range(ncoord)):
        raise ValueError("coordinates are not the row-major cell centres of the grid")
    columns = {
        name: data[:, ncoord + j].reshape(grid.shape)
        for j, name in enumerate(header[ncoord:])
    }
    return grid, columns


def save_scalar_field(path, field: ScalarField) -> None:
    with open(path, "w") as fh:
        write_columns_csv(fh, field.grid, {"value": field.values})


def load_scalar_field(path) -> ScalarField:
    """The first data column of a ``write_columns_csv`` dump."""
    with open(path) as fh:
        grid, cols = read_columns_csv(fh)
    return ScalarField(grid, next(iter(cols.values())))
