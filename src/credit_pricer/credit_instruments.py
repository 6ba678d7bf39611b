"""Defaultable zero-coupon bonds and European options on them under a
one-factor structural model: the firm value follows a lognormal process and
default is triggered at an exponential barrier, paying a recovery fraction
of the discounted face.

Option prices before the option expiry are computed twice at every point,
through a literal closed form and through an independent compositional
construction (power binaries plus the image transform), and the two must
agree on every call; a disagreement raises rather than returning a silently
wrong number. At the expiry the option is its exercise value, and after it
0. One record of the last option priced is kept: its boundary and
composed path, so a curve solves the boundary once, and its last point's
two paths, so a puttable or callable bond priced right after its option,
as a table row does, reuses them instead of evaluating both again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bs_closed_form import (
    IndicatorDirection,
    PowerBinaryParams,
    image_transform,
    power_binary_price,
    tbvp_w,
)
from .errors import (
    BelowBarrierError,
    DomainError,
    InvalidOptionError,
    InvalidParamsError,
    NumericalError,
)
from .special_functions import MarketParams, binorm_cdf, norm_cdf

__all__ = [
    "OptionKind",
    "BondSpec",
    "OptionSpec",
    "BoundaryResult",
    "barrier_level",
    "bond_price",
    "bond_prices",
    "survival_probability",
    "early_redemption_boundary",
    "option_price_paths",
    "bond_option_price",
    "puttable_bond_price",
    "callable_bond_price",
]

# Agreement required between the two internal option-pricing paths.
_PATH_AGREEMENT_TOL = 1e-9
# Price residual |B(K, T1) - E| at which the boundary iteration stops.
_BOUNDARY_TOL = 1e-8
_SQRT2 = math.sqrt(2.0)


class OptionKind(enum.Enum):
    PUT = "put"
    CALL = "call"


@dataclass(frozen=True)
class BondSpec:
    """Zero-coupon bond with unit face.

    T is the maturity in years. Default is triggered when the firm value
    touches b e^{-a (T - t)}: b is the barrier level at maturity and a its
    growth rate. On default the holder receives R e^{-r (T - t)}, a recovery
    fraction R of the discounted face.
    """

    T: float
    a: float
    b: float
    R: float

    def __post_init__(self):
        for name in ("T", "a", "b", "R"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite")
        if self.T <= 0.0:
            raise InvalidParamsError(f"maturity must be positive, got {self.T}")
        if self.b <= 0.0:
            raise InvalidParamsError(f"barrier level must be positive, got {self.b}")
        if not (0.0 <= self.R < 1.0):
            raise InvalidParamsError(f"recovery must lie in [0, 1), got {self.R}")


@dataclass(frozen=True)
class OptionSpec:
    """European option written on the bond: maturity T1, exercise amount E.

    The cross constraints 0 < T1 < bond.T and the strict bracket
    e^{-r(T-T1)} R < E < e^{-r(T-T1)} depend on the bond and market in force
    and are validated where those are known.
    """

    T1: float
    E: float
    kind: OptionKind

    def __post_init__(self):
        if not (math.isfinite(self.T1) and self.T1 > 0.0):
            raise InvalidParamsError(f"option maturity must be positive, got {self.T1}")
        if not (math.isfinite(self.E) and self.E > 0.0):
            raise InvalidParamsError(f"exercise amount must be positive, got {self.E}")
        if not isinstance(self.kind, OptionKind):
            raise InvalidParamsError("kind must be an OptionKind")


@dataclass(frozen=True)
class BoundaryResult:
    """Root-finding outcome for the early redemption boundary."""

    K: float
    residual: float
    iterations: int


def barrier_level(bond: BondSpec, t: float) -> float:
    """Default barrier b e^{-a (T - t)} at time t. Raises DomainError where
    t is NaN or infinite, and NumericalError where the level overflows a
    float or underflows to 0."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    try:
        lvl = bond.b * math.exp(-bond.a * (bond.T - t))
    except OverflowError:
        lvl = math.inf
    if lvl == 0.0 or lvl == math.inf:
        raise NumericalError(f"default barrier at t={t} leaves the float range")
    return lvl


def _discount(r: float, tau: float) -> float:
    """e^{-r tau}; raises NumericalError where it overflows a float."""
    try:
        return math.exp(-r * tau)
    except OverflowError as exc:
        raise NumericalError("discount factor overflows a float") from exc


def _check_time_and_barrier(V: float, t: float, bond: BondSpec) -> float:
    """Shared domain guard; returns the barrier level at t."""
    if not (math.isfinite(V) and V > 0.0):
        raise DomainError(f"firm value must be positive and finite, got {V}")
    if math.isnan(t) or t < 0.0 or t > bond.T:
        raise DomainError(f"t must lie in [0, {bond.T}], got {t}")
    lvl = barrier_level(bond, t)
    if V < lvl:
        raise BelowBarrierError(
            f"firm value {V} below default barrier {lvl} at t={t}"
        )
    return lvl


def survival_probability(V: float, t: float, bond: BondSpec, market: MarketParams) -> float:
    """Risk-neutral probability that the firm value never touches the
    default barrier before maturity, given no default so far.

    Equal to the unit-barrier survival weight at x = V / (b e^{-a(T-t)})
    under drift c = r - q - a; the exponential barrier is flattened by this
    change of scale. t = T returns the terminal data (1 above the barrier,
    0 on it). Raises below the barrier.
    """
    return _survival(V, t, _check_time_and_barrier(V, t, bond), bond, market)


def _survival(V: float, t: float, lvl: float, bond: BondSpec, market: MarketParams) -> float:
    """survival_probability at a barrier level lvl already checked at t."""
    if t == bond.T:
        return 1.0 if V > lvl else 0.0
    c = market.r - market.q - bond.a
    if not math.isfinite(c):
        raise NumericalError("carry r - q - a overflows a float")
    return tbvp_w(V / lvl, t, c, market.sigma, bond.T)


def bond_price(V: float, t: float, bond: BondSpec, market: MarketParams) -> float:
    """Price of the defaultable zero-coupon bond.

    B = e^{-r(T-t)} (R + (1 - R) W) with W the survival probability, so the
    price interpolates between the recovery floor R e^{-r(T-t)} (on the
    barrier, exactly) and the default-free discount bond e^{-r(T-t)}.
    t = T returns the terminal data: face 1 above the barrier, R on it.
    """
    return _bond(V, t, _check_time_and_barrier(V, t, bond), bond, market)


def _bond(V: float, t: float, lvl: float, bond: BondSpec, market: MarketParams) -> float:
    """bond_price at a barrier level lvl already checked at t."""
    w = _survival(V, t, lvl, bond, market)
    return _discount(market.r, bond.T - t) * (bond.R + (1.0 - bond.R) * w)


def bond_prices(V, t: float, bond: BondSpec, market: MarketParams):
    """bond_price over a 1-D array V of firm values at one time t, 0 <= t <
    T, as a float64 array. The inputs are checked once, and wherever
    bond_price raises at some element this raises the same PricerError
    subclass. Each element is within 1e-15 of bond_price's: the arithmetic
    is bond_price's, with math.log and math.erfc applied element by element
    (np.frompyfunc), and only x^gamma taken by numpy, within an ulp of
    math's. numpy loads on the first call; a float overflow inside returns
    or raises as bond_price does, whatever np.errstate is in force.
    """
    import numpy as np
    V = np.asarray(V, dtype=float)
    bad = ~(np.isfinite(V) & (V > 0.0))
    if bad.any():
        raise DomainError(f"firm value must be positive and finite, got {V[bad][0]}")
    if math.isnan(t) or t < 0.0 or t >= bond.T:
        raise DomainError(f"t must lie in [0, {bond.T}), got {t}")
    lvl = barrier_level(bond, t)
    below = V < lvl
    if below.any():
        raise BelowBarrierError(f"firm value {V[below][0]} below default barrier {lvl} at t={t}")
    c = market.r - market.q - bond.a
    if not math.isfinite(c):
        raise NumericalError("carry r - q - a overflows a float")
    with np.errstate(all="ignore"):  # Python float arithmetic: inf, no warning
        w = _survival_weights(V / lvl, bond.T - t, c, market.sigma)
        return _discount(market.r, bond.T - t) * (bond.R + (1.0 - bond.R) * w)


def _survival_weights(x, tau: float, c: float, sigma: float):
    """tbvp_w(x, T - tau, c, sigma, T) over an array x >= 1, step by step as
    tbvp_w takes it: 0 at x = 1 and 1 at x = inf before any arithmetic, and
    x^gamma only where N(d-) is not 0. It raises NumericalError where
    tbvp_w's arithmetic raises: a division by zero, or an x^gamma that
    overflows; a NaN argument of N raises DomainError, as in norm_cdf."""
    import numpy as np
    erfc = np.frompyfunc(math.erfc, 1, 1)
    w = (x == math.inf).astype(float)
    inner = (x > 1.0) & (x < math.inf)
    if not inner.any():
        return w
    xs = x[inner]

    def failed(at):
        return NumericalError(f"survival weight at x={at[0]} leaves the float range")

    s = sigma * math.sqrt(tau)
    if s == 0.0:
        raise failed(xs)
    lx = np.frompyfunc(math.log, 1, 1)(xs).astype(float)
    drift = (c - 0.5 * sigma * sigma) * tau
    d_minus, d_plus = (-lx + drift) / s, (lx + drift) / s
    if np.isnan(d_minus).any() or np.isnan(d_plus).any():
        raise DomainError("norm_cdf: NaN argument")
    n_minus = 0.5 * erfc(-d_minus / _SQRT2).astype(float)
    image = np.zeros_like(n_minus)
    live = n_minus != 0.0
    if live.any():
        if sigma * sigma == 0.0:
            raise failed(xs[live])
        gamma = 1.0 - 2.0 * c / (sigma * sigma)
        power = np.power(xs[live], gamma)
        if math.isfinite(gamma) and np.isinf(power).any():
            raise failed(xs[live][np.isinf(power)])
        image[live] = power * n_minus[live]
    # the difference of two nearly equal terms can round below zero
    w[inner] = np.maximum(0.5 * erfc(-d_plus / _SQRT2).astype(float) - image, 0.0)
    return w


def _validate_option(bond: BondSpec, option: OptionSpec, market: MarketParams) -> None:
    """Cross-parameter checks: maturity ordering and the strict E-bracket."""
    if not option.T1 < bond.T:
        raise InvalidOptionError(
            f"option maturity {option.T1} must precede bond maturity {bond.T}"
        )
    disc = _discount(market.r, bond.T - option.T1)
    lo = disc * bond.R
    if not (lo < option.E < disc):
        raise InvalidOptionError(
            f"exercise amount must satisfy {lo} < E < {disc} strictly, got {option.E}"
        )


def early_redemption_boundary(
    bond: BondSpec,
    option: OptionSpec,
    market: MarketParams,
) -> BoundaryResult:
    """Firm value K at which the bond price at T1 equals the exercise
    amount: B(K, T1) = E.

    The bond price at T1 increases strictly from R e^{-r(T-T1)} at the
    barrier to e^{-r(T-T1)} at infinity, so the strict bracket on E makes K
    exist and be unique. A bisection-safeguarded secant iteration runs on a
    bracket grown geometrically from the barrier; convergence is declared on
    the price residual |B(K, T1) - E| <= _BOUNDARY_TOL.
    """
    _validate_option(bond, option, market)
    t1 = option.T1
    lvl = lo = barrier_level(bond, t1)  # no iterate falls below it

    def f(v: float) -> float:
        return _bond(v, t1, lvl, bond, market) - option.E

    def doubled(v: float) -> float:
        v *= 2.0
        if v == math.inf:
            raise NumericalError("early redemption boundary bracket leaves the float range")
        return v

    f_lo = f(lo)  # equals R e^{-r(T-T1)} - E < 0 by the bracket check
    hi = doubled(lo)
    f_hi = f(hi)
    growth = 0
    while f_hi <= 0.0:
        hi = doubled(hi)
        f_hi = f(hi)
        growth += 1
        if growth > 200:
            raise NumericalError("failed to bracket the early redemption boundary")

    x0, f0 = lo, f_lo
    x1, f1 = hi, f_hi
    for iteration in range(1, 201):
        # secant proposal, bisection whenever it leaves the bracket
        if f1 != f0:
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            x2 = 0.5 * (lo + hi)
        if not (lo < x2 < hi):
            x2 = 0.5 * (lo + hi)
        f2 = f(x2)
        if abs(f2) <= _BOUNDARY_TOL:
            return BoundaryResult(K=x2, residual=f2, iterations=iteration)
        if f2 < 0.0:
            lo = x2
        else:
            hi = x2
        x0, f0 = x1, f1
        x1, f1 = x2, f2
    raise NumericalError("early redemption boundary iteration cap reached")


def _option_price_formula(
    V: float,
    t: float,
    lvl_t: float,
    bond: BondSpec,
    option: OptionSpec,
    market: MarketParams,
    K: float,
) -> float:
    """Literal closed form for the knockout bond option, in firm-value
    coordinates. lvl_t is the barrier level checked at t, K the early
    redemption boundary."""
    r, q, sig = market.r, market.q, market.sigma
    a = bond.a
    tau = bond.T - t
    tau1 = option.T1 - t
    lvl_t1 = barrier_level(bond, option.T1)
    s1 = sig * math.sqrt(tau1)
    s = sig * math.sqrt(tau)
    nu = r - q - a - 0.5 * sig * sig
    ln_a = math.log(V / lvl_t)
    gamma = 1.0 - 2.0 * (r - q - a) / (sig * sig)
    a_gam = (V / lvl_t) ** gamma
    rho = math.sqrt(tau1 / tau)

    b1 = (ln_a + nu * tau1) / s1
    b2 = (math.log(V / K) + (r - q - 0.5 * sig * sig) * tau1) / s1
    bt1 = (-ln_a + nu * tau1) / s1
    bt2 = (-ln_a + math.log(lvl_t1 / K) + nu * tau1) / s1
    b5 = (ln_a + math.log(K / lvl_t1) + nu * tau1) / s1
    bt5 = (math.log(K / V) + (r - q - 2.0 * a - 0.5 * sig * sig) * tau1) / s1
    d = (ln_a + nu * tau) / s
    dt = (-ln_a + nu * tau) / s

    disc1 = math.exp(-r * tau1)
    disc = math.exp(-r * tau)
    loss = (1.0 - bond.R) * disc

    if option.kind is OptionKind.PUT:
        return (
            (option.E * disc1 - bond.R * disc)
            * (norm_cdf(b1) - norm_cdf(b2) - a_gam * (norm_cdf(bt1) - norm_cdf(bt2)))
            - loss
            * (
                binorm_cdf(d, b1, rho)
                - binorm_cdf(d, b2, rho)
                - a_gam * (binorm_cdf(dt, bt1, rho) - binorm_cdf(dt, bt2, rho))
                + binorm_cdf(d, -b1, -rho)
                - binorm_cdf(d, -b5, -rho)
                - a_gam * (binorm_cdf(dt, -bt1, -rho) - binorm_cdf(dt, -bt5, -rho))
            )
        )
    return (
        (bond.R * disc - option.E * disc1) * (norm_cdf(b2) - a_gam * norm_cdf(bt2))
        + loss
        * (
            binorm_cdf(d, b2, rho)
            - a_gam * binorm_cdf(dt, bt2, rho)
            + binorm_cdf(d, -b5, -rho)
            - a_gam * binorm_cdf(dt, -bt5, -rho)
        )
    )


def _option_price_composed(
    bond: BondSpec,
    option: OptionSpec,
    market: MarketParams,
    K: float,
):
    """Compositional price of the same option, as a function of (V, t):
    decompose the exercise value at T1 into power-binary payoffs, price
    each, apply the image transform against the flattened barrier, then
    change variables back. The legs are built here, once per boundary K.

    Flattening x = V e^{a(T-t)} turns the moving barrier into the constant
    b and shifts the carry to dividend q + a; the strike in flattened
    coordinates is K e^{a(T-T1)}.
    """
    r, sig = market.r, market.sigma
    a = bond.a
    flat = MarketParams(r=r, q=market.q + a, sigma=sig)
    tau_t1 = bond.T - option.T1
    strike_x = K * math.exp(a * tau_t1)
    disc_t = math.exp(-r * tau_t1)
    gamma = 1.0 - 2.0 * (r - flat.q) / (sig * sig)

    def leg(beta, i, L, strike, direction):
        # the residual clock T - T1; the cash binary (L = 0) ignores it
        return PowerBinaryParams(beta, i, L, strike, tau_t1, 0.0, tau_t1, direction)

    above, below = IndicatorDirection.ABOVE, IndicatorDirection.BELOW
    recovery_gap = option.E - bond.R * disc_t
    loss = (1.0 - bond.R) * disc_t
    scale = bond.b ** (-gamma)

    if option.kind is OptionKind.PUT:
        legs = (
            (recovery_gap, leg(0.0, 0.0, 0.0, bond.b, above)),
            (-recovery_gap, leg(0.0, 0.0, 0.0, strike_x, above)),
            (-loss, leg(0.0, 1.0, bond.b, bond.b, above)),
            (loss, leg(0.0, 1.0, bond.b, strike_x, above)),
            (loss * scale, leg(gamma, -1.0, 1.0 / bond.b, strike_x, below)),
            (-loss * scale, leg(gamma, -1.0, 1.0 / bond.b, bond.b, below)),
        )
    else:
        legs = (
            (-recovery_gap, leg(0.0, 0.0, 0.0, strike_x, above)),
            (loss, leg(0.0, 1.0, bond.b, strike_x, above)),
            (-loss * scale, leg(gamma, -1.0, 1.0 / bond.b, strike_x, above)),
        )

    def exercise_claim(x: float, s: float) -> float:
        return sum(coef * power_binary_price(x, s, option.T1, prm, flat) for coef, prm in legs)

    knocked_out = image_transform(exercise_claim, bond.b, market.r - market.q - a, sig)
    return lambda V, t: knocked_out(V * math.exp(a * (bond.T - t)), t)


# (bond, option, market, K, composed, V, t, paths) of the last point before
# the option expiry that option_price_paths priced by both paths: the
# triple, its boundary K and composed path, the point and its two paths.
_last = None


def option_price_paths(
    V: float,
    t: float,
    bond: BondSpec,
    option: OptionSpec,
    market: MarketParams,
) -> tuple[float, float]:
    """The knockout option price by both evaluation paths, as (literal
    closed form, compositional construction), before any agreement check
    or clipping. Validates the inputs like bond_option_price.
    Domain: V >= barrier, 0 <= t <= T. Both paths are (0, 0) on the
    knockout boundary and after T1, and the exercise value at T1.
    Past those checks, either path raises only NumericalError.
    The last triple (bond, option, market) priced before T1 is kept with
    its boundary K, its composed path and the point (V, t) with its pair,
    all compared by value, so a curve over one triple solves the boundary
    once, and so do equal specs built anew. Pricing the same point again,
    as the puttable or callable bond does right after its option, returns
    the pair with no path evaluated. V and t are compared first: points of
    one curve differ there. A call that raises keeps nothing.
    """
    global _last
    last = _last  # one read, so concurrent callers each see one record
    if last is not None and last[5] == V and last[6] == t and last[:3] == (bond, option, market):
        return last[7]
    _validate_option(bond, option, market)
    lvl = _check_time_and_barrier(V, t, bond)
    if V == lvl or t > option.T1:
        return 0.0, 0.0  # knocked out, or expired
    if t == option.T1:
        b_t1 = _bond(V, t, lvl, bond, market)
        payoff = option.E - b_t1 if option.kind is OptionKind.PUT else b_t1 - option.E
        return max(payoff, 0.0), max(payoff, 0.0)
    try:
        if last is not None and last[:3] == (bond, option, market):
            K, composed = last[3:5]
        else:
            K = early_redemption_boundary(bond, option, market).K
            composed = _option_price_composed(bond, option, market, K)
        paths = _option_price_formula(V, t, lvl, bond, option, market, K), composed(V, t)
    except OverflowError as exc:
        raise NumericalError("option price overflows a float") from exc
    except NumericalError:
        raise
    except (ArithmeticError, ValueError) as exc:  # a ratio that underflowed to 0, an inf
        raise NumericalError(f"option price leaves the float range: {exc}") from exc
    _last = (bond, option, market, K, composed, V, t, paths)
    return paths


def bond_option_price(
    V: float,
    t: float,
    bond: BondSpec,
    option: OptionSpec,
    market: MarketParams,
) -> float:
    """Price of the European knockout option on the defaultable bond:
    (E - B(V, T1))^+ for a put, (B(V, T1) - E)^+ for a call, both worth 0
    the moment default knocks the bond out.

    The value is computed twice, through the literal closed form and
    through the compositional power-binary construction; a disagreement
    beyond 1e-9 raises a numerical error instead of returning either
    number. Domain: V >= barrier, 0 <= t <= T: the exercise value at T1,
    0 after it.
    """
    via_formula, via_composition = option_price_paths(V, t, bond, option, market)
    if abs(via_formula - via_composition) > _PATH_AGREEMENT_TOL * max(1.0, abs(via_formula)):
        raise NumericalError(
            "option pricing paths disagree: "
            f"formula {via_formula!r} vs composition {via_composition!r}"
        )
    # deep out of the money the raw sum cancels to a roundoff-scale
    # negative; the option contract is nonnegative everywhere
    return max(via_formula, 0.0)


def _bond_with_option(V: float, t: float, bond: BondSpec, option: OptionSpec,
                      market: MarketParams, kind: OptionKind, sign: float) -> float:
    """B + sign * (the option of the given kind) on [0, T]."""
    if option.kind is not kind:
        holder = "puttable" if kind is OptionKind.PUT else "callable"
        raise InvalidOptionError(f"{holder} bond requires a {kind.value} option spec")
    return bond_price(V, t, bond, market) + sign * bond_option_price(V, t, bond, option, market)


def puttable_bond_price(V: float, t: float, bond: BondSpec, option: OptionSpec,
                        market: MarketParams) -> float:
    """Bond plus the holder's right to redeem early at E: B + P on the
    domain 0 <= t <= T, the plain bond after T1. At t = T1 the value is
    max(B(V, T1), E), and B on the barrier, where the put is knocked out,
    as it is just before T1."""
    return _bond_with_option(V, t, bond, option, market, OptionKind.PUT, 1.0)


def callable_bond_price(V: float, t: float, bond: BondSpec, option: OptionSpec,
                        market: MarketParams) -> float:
    """Bond minus the issuer's right to call at E: B - C on the domain
    0 <= t <= T, the plain bond after T1. At t = T1 the value is
    min(B(V, T1), E)."""
    return _bond_with_option(V, t, bond, option, market, OptionKind.CALL, -1.0)
