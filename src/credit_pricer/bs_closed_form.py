"""Closed-form building blocks: prices of power-binary payoffs under
lognormal dynamics, the down-and-out survival weight, and the image
transform that turns free-boundary-less solutions into barrier solutions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, InvalidParamsError, NumericalError
from .special_functions import MarketParams, binorm_cdf, delta, mu, norm_cdf

__all__ = [
    "IndicatorDirection",
    "PowerBinaryParams",
    "power_binary_price",
    "tbvp_w",
    "image_transform",
]


class IndicatorDirection(enum.Enum):
    """Side of the strike indicator carried by a binary payoff."""

    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class PowerBinaryParams:
    """Terminal payoff X^beta N(delta(X^i / L, tau1, tau2, tau3)) 1{X > K}
    (direction ABOVE) or the same with 1{X < K} (direction BELOW).

    L = 0 is the dropped-probability-factor convention and is allowed only
    with i = 0. K = 0 under ABOVE drops the indicator. tau3 may be 0 at
    construction; the composed variance clock tau3 + i^2 (T - t) is checked
    at evaluation time, where it must be positive.
    """

    beta: float
    i: float
    L: float
    K: float
    tau1: float
    tau2: float
    tau3: float
    direction: IndicatorDirection = IndicatorDirection.ABOVE

    def __post_init__(self):
        for name in ("beta", "i", "L", "K", "tau1", "tau2", "tau3"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite")
        if self.L < 0.0:
            raise InvalidParamsError(f"L must be nonnegative, got {self.L}")
        if self.K < 0.0:
            raise InvalidParamsError(f"K must be nonnegative, got {self.K}")
        if self.tau3 < 0.0:
            raise InvalidParamsError(f"tau3 must be nonnegative, got {self.tau3}")
        if self.L == 0.0 and self.i != 0.0:
            raise InvalidParamsError("L = 0 is allowed only together with i = 0")
        if not isinstance(self.direction, IndicatorDirection):
            raise InvalidParamsError("direction must be an IndicatorDirection")


def power_binary_price(
    X: float,
    t: float,
    T: float,
    params: PowerBinaryParams,
    market: MarketParams,
) -> float:
    """Time-t price of the power-binary claim expiring at T.

    Parameters
    ----------
    X : float
        Current level of the lognormal underlying, positive.
    t, T : float
        Valuation time and expiry, t < T.
    params : PowerBinaryParams
        Payoff description, see the class docstring.
    market : MarketParams
        Carry structure of the underlying.

    Returns
    -------
    float
        X^beta e^{mu(beta) tau} N2(a1, a2; rho) with tau = T - t,
        a1 = delta(X^i/L, tau1 + i tau, tau2 + i beta tau, tau3 + i^2 tau),
        a2 = delta(X/K, tau, beta tau, tau) and rho = i sqrt(tau/(tau3+i^2 tau)).
        Direction BELOW prices the complementary indicator 1{X < K} through
        the identity N2(a1, -a2; -rho) = N(a1) - N2(a1, a2; rho).

    Notes
    -----
    Either orthant argument may degenerate to +inf (K = 0 drops the strike
    leg, L = 0 the probability leg), in which case the bivariate CDF is
    replaced by the exact univariate reduction. A prefactor that overflows
    a float raises NumericalError.
    """
    if not (math.isfinite(X) and X > 0.0):
        raise DomainError(f"underlying must be positive and finite, got {X}")
    tau = T - t
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"time to expiry must be positive, got {tau}")
    p = params
    clock = p.tau3 + p.i * p.i * tau
    if clock <= 0.0:
        raise DomainError(f"composed variance clock must be positive, got {clock}")

    below = p.direction is IndicatorDirection.BELOW
    if p.K == 0.0:
        if below:
            return 0.0  # 1{X < 0} carries no mass
        a2 = math.inf
    else:
        a2 = delta(X / p.K, tau, p.beta * tau, tau, market)
    if p.L == 0.0:
        a1 = math.inf
    else:
        a1 = delta(X**p.i / p.L, p.tau1 + p.i * tau, p.tau2 + p.i * p.beta * tau, clock, market)
    rho = p.i * math.sqrt(tau / clock)
    if below:
        a2 = -a2
        rho = -rho

    if a1 == math.inf and a2 == math.inf:
        orthant = 1.0
    elif a1 == math.inf:
        orthant = norm_cdf(a2)
    elif a2 == math.inf:
        orthant = norm_cdf(a1)
    else:
        orthant = binorm_cdf(a1, a2, rho)
    try:
        return X**p.beta * math.exp(mu(p.beta, market) * tau) * orthant
    except OverflowError as exc:
        raise NumericalError("power-binary price overflows a float") from exc


def tbvp_w(x: float, t: float, c: float, sigma: float, T: float) -> float:
    """Survival weight of the unit down-and-out barrier under drift carry c,
    volatility sigma and horizon T.

    Solves w_t + sigma^2 x^2 w_xx / 2 + c x w_x = 0 on x > 1 with w(1, t) = 0
    and w(x, T) = 1. The closed form is

        w(x, t) = N(d+) - x^{1 - 2c/sigma^2} N(d-),
        d+- = (+-ln x + (c - sigma^2/2)(T - t)) / (sigma sqrt(T - t)),

    the plain first-passage survival probability. w(1, t) is exactly 0 (both
    arguments coincide and the image prefactor is 1); x = +inf returns 1.
    Raises InvalidParamsError unless c, sigma, T are finite and sigma, T > 0,
    then DomainError unless x >= 1 and t < T.
    """
    if not (math.isfinite(c) and math.isfinite(sigma) and math.isfinite(T)):
        raise InvalidParamsError("barrier problem parameters must be finite")
    if sigma <= 0.0:
        raise InvalidParamsError(f"sigma must be positive, got {sigma}")
    if T <= 0.0:
        raise InvalidParamsError(f"T must be positive, got {T}")
    if math.isnan(x) or x < 1.0:
        raise DomainError(f"x must be >= 1, got {x}")
    if not (t < T):
        raise DomainError(f"t must precede the horizon {T}, got {t}")
    if x == 1.0:
        return 0.0
    if x == math.inf:
        return 1.0
    tau = T - t
    s = sigma * math.sqrt(tau)
    lx = math.log(x)
    drift = (c - 0.5 * sigma * sigma) * tau
    n_minus = norm_cdf((-lx + drift) / s)
    image = 0.0 if n_minus == 0.0 else x ** (1.0 - 2.0 * c / (sigma * sigma)) * n_minus
    return norm_cdf((lx + drift) / s) - image


def image_transform(
    u: Callable[[float, float], float],
    barrier_level: float,
    c: float,
    sigma: float,
) -> Callable[[float, float], float]:
    """Wrap a whole-line solution of the drift-c pricing PDE into one that
    vanishes on a barrier.

    Given u(x, t) defined on x > 0, returns the function

        x, t -> u(x, t) - (x/b)^{1 - 2c/sigma^2} u(b^2/x, t)

    with b = barrier_level. If u solves the PDE, so does the wrapped
    function, and it is identically zero at x = b: the classical method of
    images for equidimensional operators.
    """
    if not (math.isfinite(barrier_level) and barrier_level > 0.0):
        raise InvalidParamsError(f"barrier level must be positive, got {barrier_level}")
    if not (math.isfinite(c) and math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParamsError("c must be finite and sigma positive")
    gamma = 1.0 - 2.0 * c / (sigma * sigma)

    def barriered(x: float, t: float) -> float:
        if math.isnan(x) or x <= 0.0:
            raise DomainError(f"image transform evaluated at nonpositive x = {x}")
        return u(x, t) - (x / barrier_level) ** gamma * u(barrier_level * barrier_level / x, t)

    return barriered
