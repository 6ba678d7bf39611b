"""Scalar probability kernels used by every closed form in the package:
the flat market, and the univariate and bivariate standard normal CDFs."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParamsError

__all__ = ["MarketParams", "norm_pdf", "norm_cdf", "binorm_cdf"]

_SQRT2 = math.sqrt(2.0)
_TWOPI = 2.0 * math.pi
_LN2 = math.log(2.0)


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
        if not (math.isfinite(self.r) and math.isfinite(self.q) and math.isfinite(self.sigma)):
            raise InvalidParamsError("market parameters must be finite")
        if self.sigma <= 0.0:
            raise InvalidParamsError(f"sigma must be positive, got {self.sigma}")


def norm_pdf(x: float) -> float:
    """Standard normal density. Infinite arguments give 0 (exp(-inf));
    NaN raises."""
    if math.isnan(x):
        raise DomainError("norm_pdf: NaN argument")
    return math.exp(-0.5 * x * x) / math.sqrt(_TWOPI)


def norm_cdf(x: float) -> float:
    """Standard normal cumulative distribution function.

    Computed through erfc, which keeps full relative accuracy deep in the
    lower tail; absolute error stays below 1e-15 everywhere. Accepts -inf
    and +inf, where erfc gives exactly 0 and 1; NaN raises a domain error.
    """
    if math.isnan(x):
        raise DomainError("norm_cdf: NaN argument")
    return 0.5 * math.erfc(-x / _SQRT2)


# Gauss-Legendre half-rules (weights, abscissae) for the bivariate CDF,
# selected by |rho|: 6-point below 0.3, 12-point below 0.75, 20-point up to
# 0.925. _orthant_tail runs the 20-point rule on its panels.
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


# The orthants of one option price share at most four rho values.
@functools.lru_cache(maxsize=8)
def _dw_nodes(rho: float):
    """(asin(rho), ((weight, sn, 1 - sn^2), ...)) over the Gauss-Legendre
    rule that |rho| < 0.925 selects, sn the sine at each node."""
    asr = math.asin(rho)
    rule = next(rule for bound, rule in _GL_RULES if abs(rho) < bound)
    sines = ((wg, math.sin(0.5 * asr * (1.0 + sgn * xg)))
             for wg, xg in rule for sgn in (-1.0, 1.0))
    return asr, tuple((wg, sn, 1.0 - sn * sn) for wg, sn in sines)


# A Drezner-Wesolowsky result below _TAIL_RATIO times the largest term it
# was formed from has lost its relative accuracy to cancellation and is
# recomputed by _orthant_tail.
_TAIL_RATIO = 1e-3
# _orthant_tail integrates where its integrand is above e^-_TAIL_LEVEL
# times its peak, on panels at most _TAIL_PANEL long.
_TAIL_LEVEL = 40.0
_TAIL_PANEL = 2.0


def _orthant_tail(a1: float, a2: float, rho: float) -> float:
    """P(X <= a1, Y <= a2) for -1 < rho < 1, to relative accuracy 1e-12
    wherever it exceeds 1e-300, as a sum of two terms that are never
    negative.

    Integrating dN2/drho (Plackett) up from rho = -1, where the orthant is
    max(0, Phi(a1) + Phi(a2) - 1), and substituting r = -cos(2 atan e^u):

        N2 = max(0, Phi(a1) - Phi(-a2)) + 1/(2 pi) int_{-inf}^{atanh rho} e^{-p-m+l(u)} du,
        l(u) = -p e^{-2u} - m e^{2u} - ln cosh u,

    with p = (a1 + a2)^2 / 8 and m = (a1 - a2)^2 / 8. l is concave, so the
    integrand has one peak; the 20-point Gauss-Legendre rule runs on each
    side of it, over the window where l is within _TAIL_LEVEL of its peak.
    """
    lo, hi = (a1, a2) if a1 <= a2 else (a2, a1)
    if lo < -40.0:
        return 0.0  # below Phi(-40), under the smallest float
    if hi > 40.0:
        return norm_cdf(lo)  # short of it by less than Phi(-40)
    base = norm_cdf(lo) - norm_cdf(-hi) if lo + hi > 0.0 else 0.0
    p = 0.125 * (a1 + a2) ** 2
    m = 0.125 * (a1 - a2) ** 2
    end = math.atanh(rho)

    # l and its derivatives; u stays in [-350, atanh(rho)], so no e^{2u} or
    # p e^{-2u} leaves the float range
    def log_f(u):
        e = math.exp(2.0 * u)
        return -p / e - m * e - math.log1p(e) + u + _LN2

    def slope(u):
        e = math.exp(2.0 * u)
        return 2.0 * p / e - 2.0 * m * e - math.tanh(u)

    def curvature(u):  # -l''(u) > 0
        e = math.exp(2.0 * u)
        return 4.0 * p / e + 4.0 * m * e + 1.0 / math.cosh(u) ** 2

    # the peak: l' falls from + to -; Newton steps of at most 2, kept inside
    # the bracket that the signs of l' give
    if slope(end) >= 0.0:
        peak = end
    else:
        u = 0.25 * math.log(p / m) if p and m else 0.5 * (math.log1p(2.0 * p) - math.log1p(2.0 * m))
        u = max(-300.0, min(u, end))
        left, right = -math.inf, end
        for _ in range(200):
            g = slope(u)
            if g > 0.0:
                left = u
            else:
                right = u
            nxt = u + max(-2.0, min(2.0, g / curvature(u)))
            if not left < nxt < right:
                nxt = 0.5 * (left + right) if left > -math.inf else u - 2.0
            if abs(nxt - u) < 1e-9 or g == 0.0:
                break
            u = nxt
        peak = u
    top = log_f(peak)
    target = top - _TAIL_LEVEL

    def reach(direction, limit):
        """Distance from the peak, at most limit, where l falls to target."""
        g = max(0.0, -direction * slope(peak))
        k = curvature(peak)
        d = min(limit, 2.0 * _TAIL_LEVEL / (g + math.sqrt(g * g + 2.0 * k * _TAIL_LEVEL)))
        for _ in range(100):
            u = peak + direction * d
            v = log_f(u)
            if v >= target:  # still inside: look further out
                if d >= limit:
                    break
                d = min(limit, 2.0 * d)
                continue
            # outside: Newton on the concave l moves in, never past target
            shorter = (target - v) / (direction * slope(u))
            d += shorter
            if -shorter < 0.02 * d:
                break
        return d

    total = 0.0
    for a, b in ((peak - reach(-1.0, peak + 350.0), peak),
                 (peak, peak + reach(1.0, end - peak) if peak < end else peak)):
        if b > a:
            panels = math.ceil((b - a) / _TAIL_PANEL)
            half = 0.5 * (b - a) / panels
            side = 0.0
            for j in range(panels):
                mid = a + half * (2 * j + 1)
                for wg, xg in _GL_RULES[-1][1]:
                    for u in (mid - half * xg, mid + half * xg):
                        # e^{l(u) - top} = e^{-p/e - m e - top} 2 e^{u} / (1 + e)
                        e = math.exp(2.0 * u)
                        side += wg * math.exp(-p / e - m * e - top) * math.sqrt(e) / (1.0 + e)
            total += half * side
    return base + math.exp(top - p - m) * total / math.pi


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
    |rho| < 0.925 (Drezner-Wesolowsky, after Genz 2004). For |rho| >= 0.925
    the result comes from _orthant_tail, which adds terms that are never
    negative. Infinite limits and rho = +-1 reduce exactly before any
    quadrature runs; rho = -1 gives Phi(lo) - Phi(-hi), lo and hi the
    smaller and larger limit, which is the tail form's limit.

    The Drezner-Wesolowsky sum subtracts nearly equal terms when rho < 0 and
    the orthant is much smaller than Phi(a1) Phi(a2). A result below 1e-3
    times that product is recomputed by _orthant_tail too. On an mpmath grid
    (rho in [-1, 1], limits down to -38) the result is then within 1e-12
    relative wherever the orthant exceeds 1e-10. Where the main scheme does
    not cancel, its few-point rules keep only the absolute spec on small
    orthants: off the grid, orthants up to about 1e-4 miss 1e-12 relative
    (4.3e-10 at 2.2e-10, rho = 0.30), and deep tails lose all relative
    accuracy. Those below 1e-4 are 13 243 of the 30 244 orthants (44%) of
    one pass over the benchmark's book of 2048 bond options. Timed on them
    (best of five passes, 2-core x86-64 host), _orthant_tail takes 13.5-14.1
    us a call and this function 3.6-4.0 us, so sending them to the tail form
    too would cost about 0.13 s a pass.
    """
    if not -1.0 <= rho <= 1.0:  # NaN too
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
        return max(0.0, norm_cdf(min(a1, a2)) - norm_cdf(-max(a1, a2)))
    if abs(rho) >= 0.925:
        return _orthant_tail(a1, a2, rho)

    h = -a1
    k = -a2
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr, terms = _dw_nodes(rho)
    bvn = 0.0
    for wg, sn, cos2 in terms:
        bvn += wg * math.exp((sn * hk - hs) / cos2)
    base = norm_cdf(-h) * norm_cdf(-k)
    bvn = bvn * asr / (2.0 * _TWOPI) + base
    if bvn < _TAIL_RATIO * base:
        return _orthant_tail(a1, a2, rho)
    return min(1.0, max(0.0, bvn))
