"""Pricing library for defaultable zero-coupon bonds and European options
on them under a one-factor firm-value model with an exponential default
barrier.

Closed forms are built from power-binary prices and the image (reflection)
solution of the barrier problem; the oracles module provides independent
PDE, Monte Carlo, and quadrature verifiers for every price the library
emits.
"""

from .bs_closed_form import (
    BarrierProblemParams,
    IndicatorDirection,
    PowerBinaryParams,
    image_transform,
    power_binary_price,
    tbvp_w,
)
from .credit_instruments import (
    BondSpec,
    BoundaryResult,
    OptionKind,
    OptionSpec,
    barrier_level,
    bond_option_price,
    bond_price,
    callable_bond_price,
    early_redemption_boundary,
    exercise_value,
    option_price_paths,
    puttable_bond_price,
    survival_probability,
)
from .errors import (
    BelowBarrierError,
    DomainError,
    InvalidOptionError,
    InvalidParamsError,
    NumericalError,
    PricerError,
)
from .oracles import (
    GridSpec,
    McSpec,
    PdeSurface,
    Scheme,
    draw_verification_case,
    mc_barrier_price,
    pde_solve_tbvp,
    quadrature_green,
)
from .special_functions import (
    Correlation,
    DeltaArgs,
    MarketParams,
    binorm_cdf,
    delta,
    mu,
    norm_cdf,
    norm_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierProblemParams",
    "BelowBarrierError",
    "BondSpec",
    "BoundaryResult",
    "Correlation",
    "DeltaArgs",
    "DomainError",
    "GridSpec",
    "IndicatorDirection",
    "InvalidOptionError",
    "InvalidParamsError",
    "MarketParams",
    "McSpec",
    "NumericalError",
    "OptionKind",
    "OptionSpec",
    "PdeSurface",
    "PowerBinaryParams",
    "PricerError",
    "Scheme",
    "barrier_level",
    "binorm_cdf",
    "bond_option_price",
    "bond_price",
    "callable_bond_price",
    "delta",
    "draw_verification_case",
    "early_redemption_boundary",
    "exercise_value",
    "image_transform",
    "mc_barrier_price",
    "mu",
    "norm_cdf",
    "norm_pdf",
    "option_price_paths",
    "pde_solve_tbvp",
    "power_binary_price",
    "puttable_bond_price",
    "quadrature_green",
    "survival_probability",
    "tbvp_w",
    "__version__",
]
