"""Shared exception types."""


class DomainError(ValueError):
    """Input outside the physical domain (non-positive density, temperature, ...)."""


class RangeError(ValueError):
    """Result not representable, e.g. overflow in an exponential reparametrization."""


class ResolutionError(ValueError):
    """Grid too coarse for the requested operation."""


class StabilityError(RuntimeError):
    """Time stepping left its stability bound, e.g. a Courant violation mid-step."""
