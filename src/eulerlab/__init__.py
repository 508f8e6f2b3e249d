"""Numerical laboratory for compressible Euler flow estimates.

Implements the complete ideal-gas Euler system, in the conserved variables
(rho, m, E), on periodic domains together with the quantitative machinery
its stability theory rests on: Besov semi-norm measurement, mollification
commutator decay, relative-entropy coercivity, one-sided Lipschitz
constants, and a Gronwall growth monitor between discrete solutions.
"""

__version__ = "0.1.0"

from .errors import DomainError, RangeError, ResolutionError, StabilityError
from .grid import PeriodicGrid, ScalarField, VectorField
from .thermo import GasParams

__all__ = [
    "DomainError",
    "RangeError",
    "ResolutionError",
    "StabilityError",
    "GasParams",
    "PeriodicGrid",
    "ScalarField",
    "VectorField",
    "__version__",
]
