"""Closed-form building blocks: prices of power-binary payoffs under
lognormal dynamics, the down-and-out survival weight, and the image
transform that turns free-boundary-less solutions into barrier solutions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, InvalidParamsError, NumericalError
from .special_functions import MarketParams, binorm_cdf, norm_cdf

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
    at evaluation time, where it must be positive unless L = 0.
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


def _delta(ratio: float, tau1: float, tau2: float, tau3: float, market: MarketParams) -> float:
    """delta of power_binary_price on checked clocks; +inf at ratio = +inf."""
    if ratio == math.inf:
        return math.inf
    sig2 = market.sigma * market.sigma
    num = math.log(ratio) + (market.r - market.q - 0.5 * sig2) * tau1 + sig2 * tau2
    return num / (market.sigma * math.sqrt(tau3))


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
        a2 = delta(X/K, tau, beta tau, tau), rho = i sqrt(tau/(tau3+i^2 tau)),
        delta(y, s1, s2, s3) = (ln y + (r-q-sigma^2/2) s1 + sigma^2 s2)/(sigma sqrt(s3))
        and the growth exponent mu(beta) = -r + beta (r - q - sigma^2 (1 - beta)/2),
        -r at beta = 0 and at the reflection exponent 1 - 2(r - q)/sigma^2.
        BELOW prices 1{X < K} as N2(a1, -a2; -rho) = N(a1) - N2(a1, a2; rho).

    Notes
    -----
    Either orthant argument may degenerate to +inf (K = 0 drops the strike
    leg, L = 0 the probability leg); binorm_cdf then reduces exactly to the
    univariate CDF. rho, which rounds above 1 on some valid legs (i = 7,
    tau3 = 0), is clamped to [-1, 1]. Past the checks of X, tau and each
    leg's clocks, an overflow or a ratio that underflows to 0 raises
    NumericalError.
    """
    if not (math.isfinite(X) and X > 0.0):
        raise DomainError(f"underlying must be positive and finite, got {X}")
    tau = T - t
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"time to expiry must be positive, got {tau}")
    p = params
    clock = p.tau3 + p.i * p.i * tau
    # L = 0 drops the Phi factor, and the clock with it
    if clock <= 0.0 and p.L != 0.0:
        raise DomainError(f"composed variance clock must be positive, got {clock}")

    below = p.direction is IndicatorDirection.BELOW
    if below and p.K == 0.0:
        return 0.0  # 1{X < 0} carries no mass
    # each leg that stays (K != 0, L != 0) needs finite clocks
    tau1, tau2 = p.tau1 + p.i * tau, p.tau2 + p.i * p.beta * tau
    if (p.K != 0.0 and not math.isfinite(p.beta * tau) or p.L != 0.0 and not (
            math.isfinite(tau1) and math.isfinite(tau2) and math.isfinite(clock))):
        raise NumericalError("power-binary price overflows a float")
    try:
        a2 = math.inf if p.K == 0.0 else _delta(X / p.K, tau, p.beta * tau, tau, market)
        a1 = math.inf if p.L == 0.0 else _delta(X**p.i / p.L, tau1, tau2, clock, market)
        # binorm_cdf checks rho before it reduces an infinite limit: a dropped leg
        # and i = 0 (where tau/clock may overflow) pass 0, and |rho| > 1 is rounding
        rho = 0.0 if p.K == 0.0 or p.L == 0.0 or p.i == 0.0 else p.i * math.sqrt(tau / clock)
        if not -1.0 <= rho <= 1.0:
            rho = math.copysign(1.0, rho)
        orthant = binorm_cdf(a1, -a2, -rho) if below else binorm_cdf(a1, a2, rho)
        m = market  # mu(beta)
        mu = -m.r + p.beta * (m.r - m.q - 0.5 * m.sigma * m.sigma * (1.0 - p.beta))
        price = X**p.beta * math.exp(mu * tau) * orthant
    except OverflowError as exc:
        raise NumericalError("power-binary price overflows a float") from exc
    except (ArithmeticError, ValueError) as exc:  # log of an underflowed ratio, a NaN limit
        raise NumericalError(f"power-binary price leaves the float range: {exc}") from exc
    if not math.isfinite(price):  # a float * overflows without raising
        raise NumericalError("power-binary price overflows a float")
    return price


def tbvp_w(x: float, t: float, c: float, sigma: float, T: float) -> float:
    """Survival weight of the unit down-and-out barrier under drift carry c,
    volatility sigma and horizon T.

    Solves w_t + sigma^2 x^2 w_xx / 2 + c x w_x = 0 on x > 1 with w(1, t) = 0
    and w(x, T) = 1. The closed form is

        w(x, t) = N(d+) - x^{1 - 2c/sigma^2} N(d-),
        d+- = (+-ln x + (c - sigma^2/2)(T - t)) / (sigma sqrt(T - t)),

    the plain first-passage survival probability, floored at 0. w(1, t) is
    exactly 0 (both arguments coincide and the image prefactor is 1);
    x = +inf returns 1.
    Raises InvalidParamsError unless c, sigma, T are finite and sigma, T > 0,
    then DomainError unless x >= 1 and t < T, and NumericalError where the
    float arithmetic overflows or divides by zero (sigma^2 underflows).
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
    try:
        n_minus = norm_cdf((-lx + drift) / s)
        image = 0.0 if n_minus == 0.0 else x ** (1.0 - 2.0 * c / (sigma * sigma)) * n_minus
        # the difference of two nearly equal terms can round below zero
        return max(0.0, norm_cdf((lx + drift) / s) - image)
    except ArithmeticError as exc:
        raise NumericalError(f"survival weight at x={x} leaves the float range") from exc


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
    images for equidimensional operators. Raises NumericalError where the
    weight overflows or b^2/x, as b*b/x and as b*(b/x), rounds to inf or 0.
    """
    if not (math.isfinite(barrier_level) and barrier_level > 0.0):
        raise InvalidParamsError(f"barrier level must be positive, got {barrier_level}")
    if not (math.isfinite(c) and math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParamsError("c must be finite and sigma positive")
    gamma = 1.0 - 2.0 * c / (sigma * sigma)

    def barriered(x: float, t: float) -> float:
        if math.isnan(x) or x <= 0.0:
            raise DomainError(f"image transform evaluated at nonpositive x = {x}")
        try:
            direct = u(x, t)
            weight = (x / barrier_level) ** gamma
            image = barrier_level * barrier_level / x
            if image == 0.0 or image == math.inf:  # b * b left the range, b^2/x may not
                image = barrier_level * (barrier_level / x)
                if image == 0.0 or image == math.inf:
                    raise NumericalError(f"image point of x={x} leaves the float range")
            return direct - weight * u(image, t)
        except OverflowError as exc:
            raise NumericalError(f"image term at x={x} overflows a float") from exc

    return barriered
