"""Scalar probability kernels used by every closed form in the package:
univariate and bivariate standard normal CDFs, the normalized log-moneyness
term, and the growth exponent of power payoffs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParamsError

_SQRT2 = math.sqrt(2.0)
_TWOPI = 2.0 * math.pi


def _all_finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class MarketParams:
    """Flat market: short rate r, dividend yield q, lognormal volatility sigma.

    Rates are per year, sigma per square-root year. sigma must be positive;
    r and q may take either sign.
    """

    r: float
    q: float
    sigma: float

    def __post_init__(self):
        if not _all_finite(self.r, self.q, self.sigma):
            raise InvalidParamsError("market parameters must be finite")
        if self.sigma <= 0.0:
            raise InvalidParamsError(f"sigma must be positive, got {self.sigma}")


def norm_pdf(x: float) -> float:
    """Standard normal density. Infinite arguments give 0; NaN raises."""
    if math.isnan(x):
        raise DomainError("norm_pdf: NaN argument")
    if math.isinf(x):
        return 0.0
    return math.exp(-0.5 * x * x) / math.sqrt(_TWOPI)


def norm_cdf(x: float) -> float:
    """Standard normal cumulative distribution function.

    Computed through erfc, which keeps full relative accuracy deep in the
    lower tail; absolute error stays below 1e-15 everywhere. Accepts -inf
    and +inf (returning 0 and 1); NaN raises a domain error.
    """
    if math.isnan(x):
        raise DomainError("norm_cdf: NaN argument")
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return 0.5 * math.erfc(-x / _SQRT2)


# Gauss-Legendre half-rules (weights, abscissae) for the bivariate CDF,
# selected by |rho|: 6-point below 0.3, 12-point below 0.75, 20-point above.
_GL_RULES = (
    (0.3, (
        (0.1713244923791705, 0.9324695142031522),
        (0.3607615730481384, 0.6612093864662647),
        (0.4679139345726904, 0.2386191860831970),
    )),
    (0.75, (
        (0.04717533638651177, 0.9815606342467191),
        (0.1069393259953183, 0.9041172563704750),
        (0.1600783285433464, 0.7699026741943050),
        (0.2031674267230659, 0.5873179542866171),
        (0.2334925365383547, 0.3678314989981802),
        (0.2491470458134029, 0.1252334085114692),
    )),
    (1.0, (
        (0.01761400713915212, 0.9931285991850949),
        (0.04060142980038694, 0.9639719272779138),
        (0.06267204833410906, 0.9122344282513259),
        (0.08327674157670475, 0.8391169718222188),
        (0.1019301198172404, 0.7463319064601508),
        (0.1181945319615184, 0.6360536807265150),
        (0.1316886384491766, 0.5108670019508271),
        (0.1420961093183821, 0.3737060887154196),
        (0.1491729864726037, 0.2277858511416451),
        (0.1527533871307259, 0.07652652113349733),
    )),
)


def _gl_rule(rho: float):
    for bound, rule in _GL_RULES:
        if abs(rho) < bound:
            return rule
    return _GL_RULES[-1][1]


def binorm_cdf(a1: float, a2: float, rho: float) -> float:
    """Lower-orthant probability P(X <= a1, Y <= a2) of a standard bivariate
    normal pair with correlation rho.

    Parameters
    ----------
    a1, a2 : float
        Upper limits, extended reals (+-inf allowed); NaN raises DomainError.
    rho : float
        Correlation coefficient in [-1, 1]; NaN or a value outside raises
        InvalidParamsError, checked before the limits.

    Returns
    -------
    float
        Probability in [0, 1], absolute error below 1e-13.

    Notes
    -----
    Gauss-Legendre quadrature of the tetrachoric (angular) integrand for
    |rho| < 0.925, an asymptotic expansion in sqrt(1 - rho^2) plus a
    quadrature correction closer to |rho| = 1. Degenerate correlations
    rho = +-1 and infinite limits reduce exactly before any quadrature runs.
    """
    if math.isnan(rho) or abs(rho) > 1.0:
        raise InvalidParamsError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(a1) or math.isnan(a2):
        raise DomainError("binorm_cdf: NaN argument")
    if a1 == -math.inf or a2 == -math.inf:
        return 0.0
    if a1 == math.inf:
        return norm_cdf(a2)
    if a2 == math.inf:
        return norm_cdf(a1)
    if rho == 1.0:
        return norm_cdf(min(a1, a2))
    if rho == -1.0:
        return max(0.0, norm_cdf(a1) + norm_cdf(a2) - 1.0)
    if rho == 0.0:
        return norm_cdf(a1) * norm_cdf(a2)

    rule = _gl_rule(rho)
    h = -a1
    k = -a2
    hk = h * k
    bvn = 0.0
    if abs(rho) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(rho)
        for wg, xg in rule:
            for sgn in (-1.0, 1.0):
                sn = math.sin(0.5 * asr * (1.0 + sgn * xg))
                bvn += wg * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWOPI) + norm_cdf(-h) * norm_cdf(-k)
    else:
        if rho < 0.0:
            k = -k
            hk = -hk
        a_sq = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a_sq)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / a_sq + hk)
        if asr > -100.0:
            bvn = (a * math.exp(asr)
                   * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
                      + c * d * a_sq * a_sq / 5.0))
        if hk > -160.0:
            b = math.sqrt(bs)
            bvn -= (math.exp(-0.5 * hk) * math.sqrt(_TWOPI) * norm_cdf(-b / a)
                    * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
        a *= 0.5
        for wg, xg in rule:
            for sgn in (-1.0, 1.0):
                xs = (a * (1.0 + sgn * xg)) ** 2
                asr = -0.5 * (bs / xs + hk)
                if asr > -100.0:
                    rs = math.sqrt(1.0 - xs)
                    sp = 1.0 + c * xs * (1.0 + d * xs)
                    ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    bvn += a * wg * math.exp(asr) * (ep - sp)
        bvn = -bvn / _TWOPI
        if rho > 0.0:
            bvn += norm_cdf(-max(h, k))
        else:
            bvn = -bvn + max(0.0, norm_cdf(-h) - norm_cdf(-k))
    return min(1.0, max(0.0, bvn))


def delta(ratio: float, tau1: float, tau2: float, tau3: float, market: MarketParams) -> float:
    """Normalized drift-adjusted log ratio.

    Returns (ln(ratio) + (r - q - sigma^2/2) tau1 + sigma^2 tau2) divided by
    sigma sqrt(tau3). A ratio of +inf returns +inf, the convention for a
    dropped probability factor. tau1 and tau2 may be negative. Raises
    InvalidParamsError, in this order, if ratio is NaN or not positive, a
    clock is not finite, or tau3 is not positive.
    """
    if math.isnan(ratio) or ratio <= 0.0:
        raise InvalidParamsError(f"ratio must be positive, got {ratio}")
    if not _all_finite(tau1, tau2, tau3):
        raise InvalidParamsError("clock parameters must be finite")
    if tau3 <= 0.0:
        raise InvalidParamsError(f"tau3 must be positive, got {tau3}")
    if math.isinf(ratio):
        return math.inf
    m = market
    sig2 = m.sigma * m.sigma
    num = math.log(ratio) + (m.r - m.q - 0.5 * sig2) * tau1 + sig2 * tau2
    return num / (m.sigma * math.sqrt(tau3))


def mu(beta: float, market: MarketParams) -> float:
    """Per-year growth exponent of the discounted power payoff X^beta.

    mu(beta) = -r + beta (r - q - sigma^2 (1 - beta) / 2). In particular
    beta = 0 gives -r (pure discounting), beta = 1 gives -q, and the
    reflection exponent beta = 1 - 2(r - q)/sigma^2 gives -r again, which is
    what makes image terms decay at the riskless rate.
    """
    if not math.isfinite(beta):
        raise DomainError(f"mu: beta must be finite, got {beta}")
    m = market
    return -m.r + beta * (m.r - m.q - 0.5 * m.sigma * m.sigma * (1.0 - beta))
