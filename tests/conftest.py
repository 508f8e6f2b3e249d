import pytest

from eulerlab.besov import dyadic_shift_ladder
from eulerlab.grid import PeriodicGrid, ScalarField, weierstrass_field, weierstrass_values
from eulerlab.thermo import GasParams


@pytest.fixture(scope="session")
def gamma2():
    return GasParams(2.0)


@pytest.fixture(scope="session")
def gamma14():
    return GasParams(1.4)


@pytest.fixture(scope="session")
def grid256():
    return PeriodicGrid(1, 256)


@pytest.fixture(scope="session")
def grid8k():
    return PeriodicGrid(1, 8192)


@pytest.fixture(scope="session")
def grid2d():
    return PeriodicGrid(2, 64)


@pytest.fixture(scope="session")
def weier8k(grid8k):
    """Weierstrass fields on the measurement grid, one per nominal exponent."""
    return {a: weierstrass_field(a, 13, grid8k) for a in (0.4, 0.6, 0.8)}


@pytest.fixture(scope="session")
def ladder8k(grid8k):
    return dyadic_shift_ladder(grid8k)


@pytest.fixture(scope="session")
def rough_pair_8k(grid8k):
    """Positive density / velocity pair of nominal exponent 0.4."""
    x = grid8k.axis_centers()
    rho = ScalarField(grid8k, 1.5 + 0.25 * weierstrass_values(0.4, 13, x) / 3.0)
    u = ScalarField(grid8k, weierstrass_values(0.4, 13, x, phase=0.7))
    return rho, u
