"""Error types shared across the library.

All errors derive from ValueError so that callers who do not care about the
distinction can catch a single builtin type.
"""

__all__ = [
    "PricerError",
    "DomainError",
    "InvalidParamsError",
    "InvalidOptionError",
    "BelowBarrierError",
    "NumericalError",
]


class PricerError(ValueError):
    """Base class for every error raised by this package."""


class DomainError(PricerError):
    """Evaluation requested outside a function's mathematical domain."""


class InvalidParamsError(PricerError):
    """A parameter bundle violates its own invariants."""


class InvalidOptionError(InvalidParamsError):
    """Option terms are inconsistent with the bond or market in force."""


class BelowBarrierError(DomainError):
    """Firm value lies below the default barrier; the model does not price there."""


class NumericalError(PricerError):
    """An iterative or cross-checked computation failed to converge or agree."""
