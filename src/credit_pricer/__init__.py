"""Pricing library for defaultable zero-coupon bonds and European options
on them under a one-factor firm-value model with an exponential default
barrier.

Closed forms are built from power-binary prices and the image (reflection)
solution of the barrier problem; the oracles module provides independent
PDE, Monte Carlo, and quadrature verifiers for every price the library
emits.
"""

from . import bs_closed_form, credit_instruments, errors, oracles, special_functions
from .bs_closed_form import *  # noqa: F403
from .credit_instruments import *  # noqa: F403
from .errors import *  # noqa: F403
from .oracles import *  # noqa: F403
from .special_functions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (bs_closed_form, credit_instruments, errors, oracles,
                               special_functions) for name in module.__all__] + ["__version__"]
