"""Properties drawn over the whole admissible domain, and the known defects
pinned to their inputs as strict xfails: a fix turns one into an XPASS,
which fails, and the fixing change removes its marker. Mended so far: the
puttable bond's jump at T1 on the barrier, where the exercise value did not
knock out (test_puttable_bond_is_continuous_at_expiry_on_the_barrier), a
survival weight of -5e-324 (test_survival_of_a_subnormal_difference_within_bounds),
and an image point b*b/x whose b*b overflowed
(test_image_point_of_a_huge_barrier_stays_finite).

The domain is the benchmark book's (r, q, a in [-0.1, 0.2], R = 0 or up to
0.95, E strictly inside its bracket, t in [0, T1), V from the barrier to
1e4 times it), with sigma down to 0.01. No draw is filtered: the share of
draws that raise NumericalError is reported as a hypothesis event (see
pytest --hypothesis-show-statistics)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from credit_pricer import (
    BondSpec,
    GridSpec,
    MarketParams,
    NumericalError,
    OptionKind,
    OptionSpec,
    PricerError,
    barrier_level,
    bond_option_price,
    bond_price,
    bond_prices,
    callable_bond_price,
    image_transform,
    option_price_paths,
    puttable_bond_price,
    survival_probability,
    tbvp_w,
)
from credit_pricer.verification import pde_surfaces
from helpers import draws, forget_shared_work

_SETTINGS = settings(max_examples=draws(150), deadline=None, derandomize=True,
                     database=None)
_PATH_AGREEMENT_TOL = 1e-9


@st.composite
def positions(draw):
    """(V, t, bond, option, market) over the admissible domain."""
    def uniform(lo, hi):
        return draw(st.floats(lo, hi))

    r, q, a = uniform(-0.1, 0.2), uniform(-0.1, 0.2), uniform(-0.1, 0.2)
    sigma = uniform(0.01, 1.5)
    T = uniform(0.5, 5.0)
    R = draw(st.just(0.0) | st.floats(0.0, 0.95))
    T1 = T * uniform(0.1, 0.9)
    disc = math.exp(-r * (T - T1))
    E = disc * (R + (1.0 - R) * uniform(0.05, 0.95))
    kind = draw(st.sampled_from(OptionKind))
    t = T1 * draw(st.floats(0.0, 1.0, exclude_max=True))
    level = 100.0 * math.exp(-a * (T - t))
    V = level * math.exp(draw(st.just(0.0) | st.floats(0.0, math.log(1e4))))
    return (V, t, BondSpec(T=T, a=a, b=100.0, R=R), OptionSpec(T1=T1, E=E, kind=kind),
            MarketParams(r=r, q=q, sigma=sigma))


def _outcome(price, *args):
    """The price's bits, or the class and message of the PricerError it raises."""
    try:
        result = price(*args)
    except PricerError as exc:
        event(f"{price.__name__} raises {type(exc).__name__}")
        return type(exc).__name__, str(exc)
    return tuple(x.hex() for x in result) if isinstance(result, tuple) else result.hex()


def _paths_agree(V, t, bond, option, market):
    """Wherever bond_option_price returns, both paths are finite and agree."""
    try:
        bond_option_price(V, t, bond, option, market)
    except NumericalError:
        event("bond_option_price raises NumericalError")
        return True
    formula, composition = option_price_paths(V, t, bond, option, market)
    return (math.isfinite(formula) and math.isfinite(composition) and abs(formula - composition)
            <= _PATH_AGREEMENT_TOL * max(1.0, abs(formula)))


def _finite(price, *args):
    """The price, or None where it raises NumericalError."""
    try:
        return price(*args)
    except NumericalError:
        event(f"{price.__name__} raises NumericalError")
        return None


def _within(lo, price, hi):
    return price is None or lo <= price <= hi


def _cold(*specs):
    forget_shared_work()
    return specs


@_SETTINGS
@given(positions())
def test_public_pricers_return_finite_or_raise_a_pricer_error(position):
    V, t, bond, option, market = position
    put = dataclasses.replace(option, kind=OptionKind.PUT)
    call = dataclasses.replace(option, kind=OptionKind.CALL)
    prices = [
        (survival_probability, (V, t, bond, market)),
        (bond_price, (V, t, bond, market)),
        (bond_option_price, (V, t, bond, option, market)),
        (puttable_bond_price, (V, t, bond, put, market)),
        (callable_bond_price, (V, t, bond, call, market)),
    ]
    for price, args in prices:
        outcome = _outcome(price, *args)
        assert isinstance(outcome, tuple) or math.isfinite(float.fromhex(outcome)), price


@_SETTINGS
@given(positions(), st.lists(st.just(0.0) | st.floats(0.0, math.log(1e4)), min_size=1,
                             max_size=16))
def test_bond_prices_is_bond_price_element_by_element(position, logs):
    """bond_prices over the position's V and firm values from the barrier
    to 1e4 times it, at the position's t: each element within 1e-15 of
    bond_price's; where bond_price raises at some element, the same
    PricerError subclass. Under np.errstate(over="raise"), as the Monte
    Carlo pass runs its payoffs, no FloatingPointError escapes."""
    V, t, bond, _, market = position
    level = barrier_level(bond, t)
    vs = [V] + [level * math.exp(x) for x in logs]
    expected = [_outcome(bond_price, v, t, bond, market) for v in vs]
    raised = [outcome[0] for outcome in expected if isinstance(outcome, tuple)]
    with np.errstate(over="raise"):
        if raised:
            with pytest.raises(PricerError) as info:
                bond_prices(np.array(vs), t, bond, market)
            assert type(info.value).__name__ == raised[0]
            return
        prices = bond_prices(np.array(vs), t, bond, market)
    assert prices.dtype == np.float64 and prices.shape == (len(vs),)
    for price, exact in zip(prices.tolist(), expected):
        assert abs(price - float.fromhex(exact)) <= 1e-15


@_SETTINGS
@given(positions())
def test_paths_agree_wherever_the_price_returns(position):
    assert _paths_agree(*position)


@_SETTINGS
@given(positions())
def test_warm_price_has_the_cold_bits(position):
    V, t, bond, option, market = position
    cold = _outcome(option_price_paths, V, t, *_cold(bond, option, market))
    other = dataclasses.replace(
        option, kind=OptionKind.CALL if option.kind is OptionKind.PUT else OptionKind.PUT)
    _outcome(option_price_paths, V, t, bond, other, market)  # the second of the two slots
    rebuilt = (dataclasses.replace(spec) for spec in (bond, option, market))
    assert _outcome(option_price_paths, V, t, *rebuilt) == cold


@_SETTINGS
@given(positions())
def test_composite_is_the_bond_with_its_option(position):
    """The puttable bond is B + P and the callable B - C to the bit, whether
    its option's paths are priced cold or were just priced at the point."""
    V, t, bond, option, market = position
    composite, sign = ((puttable_bond_price, 1.0) if option.kind is OptionKind.PUT
                       else (callable_bond_price, -1.0))

    def bond_with_option(*args):
        return bond_price(V, t, bond, market) + sign * bond_option_price(*args)

    cold = _outcome(composite, V, t, *_cold(bond, option, market))
    assert _outcome(bond_with_option, V, t, bond, option, market) == cold
    assert _outcome(composite, V, t, bond, option, market) == cold


@_SETTINGS
@given(positions())
def test_knocked_out_on_the_barrier_before_expiry(position):
    _, t, bond, option, market = position
    lvl = barrier_level(bond, t)
    assert survival_probability(lvl, t, bond, market) == 0.0
    assert bond_price(lvl, t, bond, market) == bond.R * math.exp(-market.r * (bond.T - t))
    assert option_price_paths(lvl, t, bond, option, market) == (0.0, 0.0)


@_SETTINGS
@given(positions())
def test_knocked_out_on_the_barrier_at_expiry(position):
    _, _, bond, option, market = position
    lvl = barrier_level(bond, option.T1)
    composite = puttable_bond_price if option.kind is OptionKind.PUT else callable_bond_price
    assert bond_option_price(lvl, option.T1, bond, option, market) == 0.0
    assert (composite(lvl, option.T1, bond, option, market)
            == bond_price(lvl, option.T1, bond, market))


def _shifted(V, t, s, bond):
    """V at t moved to time s, as far above the barrier at s."""
    return barrier_level(bond, s) * (V / barrier_level(bond, t))


def _after_expiry(t, bond, option):
    """t in [0, T1) mapped onto (T1, T]; it may round to T1."""
    return bond.T - (bond.T - option.T1) * (t / option.T1)


def _exercise_payoff(V, bond, option, market):
    """The option's payoff at T1 from bond_price: 0 on the barrier."""
    if V == barrier_level(bond, option.T1):
        return 0.0
    b_t1 = bond_price(V, option.T1, bond, market)
    return max(option.E - b_t1 if option.kind is OptionKind.PUT else b_t1 - option.E, 0.0)


def _bond_plus_option(V, t, bond, option, market):
    sign = 1.0 if option.kind is OptionKind.PUT else -1.0
    return bond_price(V, t, bond, market) + sign * bond_option_price(V, t, bond, option, market)


@_SETTINGS
@given(positions())
def test_option_is_its_payoff_at_expiry_and_nothing_after(position):
    """At T1 the option price is the payoff built from bond_price, to the
    bit; on (T1, T] it is 0."""
    V, t, bond, option, market = position
    v1 = _shifted(V, t, option.T1, bond)
    assert (_outcome(bond_option_price, v1, option.T1, bond, option, market)
            == _outcome(_exercise_payoff, v1, bond, option, market))
    for s in (_after_expiry(t, bond, option), bond.T):
        if s > option.T1:
            assert bond_option_price(_shifted(V, t, s, bond), s, bond, option, market) == 0.0


@_SETTINGS
@given(positions())
def test_composite_is_the_bond_plus_or_minus_the_option(position):
    """puttable = B + P and callable = B - C to the bit, or the same error,
    at t, at T1 and after it, and at T."""
    V, t, bond, option, market = position
    composite = puttable_bond_price if option.kind is OptionKind.PUT else callable_bond_price
    for s in (t, option.T1, _after_expiry(t, bond, option), bond.T):
        v = _shifted(V, t, s, bond)
        assert (_outcome(composite, v, s, bond, option, market)
                == _outcome(_bond_plus_option, v, s, bond, option, market)), s


@_SETTINGS
@given(positions())
def test_terminal_data_at_maturity(position):
    V, t, bond, _, market = position
    V = bond.b * (V / barrier_level(bond, t))  # as far above the barrier at T
    alive = V > bond.b
    assert survival_probability(V, bond.T, bond, market) == (1.0 if alive else 0.0)
    assert bond_price(V, bond.T, bond, market) == (1.0 if alive else bond.R)


def _survival_within_bounds(V, t, bond, market):
    return _within(0.0, _finite(survival_probability, V, t, bond, market), 1.0)


@_SETTINGS
@given(positions())
def test_prices_within_their_bounds(position):
    """Survival in [0, 1]; the bond between the discounted recovery and the
    default-free bond; the put at most the discounted exercise amount; the
    call at most the bond."""
    V, t, bond, option, market = position
    disc = math.exp(-market.r * (bond.T - t))
    assert _survival_within_bounds(V, t, bond, market)
    price = _finite(bond_price, V, t, bond, market)
    assert _within(bond.R * disc, price, disc)
    put = dataclasses.replace(option, kind=OptionKind.PUT)
    e_disc = option.E * math.exp(-market.r * (option.T1 - t))
    assert _within(0.0, _finite(bond_option_price, V, t, bond, put, market), e_disc)
    call = dataclasses.replace(option, kind=OptionKind.CALL)
    if price is not None:
        assert _within(0.0, _finite(bond_option_price, V, t, bond, call, market), price)


@_SETTINGS
@given(positions())
def test_survival_bond_and_call_nondecreasing_in_firm_value(position):
    """From V to 1.01 V. Not the put: a put that knocks out on default can
    gain as V moves away from the barrier."""
    V, t, bond, option, market = position
    call = dataclasses.replace(option, kind=OptionKind.CALL)
    for price, args in ((survival_probability, (t, bond, market)),
                        (bond_price, (t, bond, market)),
                        (bond_option_price, (t, bond, call, market))):
        low, high = _finite(price, V, *args), _finite(price, 1.01 * V, *args)
        assert low is None or high is None or low <= high, price.__name__


@_SETTINGS
@given(positions())
def test_survival_weight_nondecreasing_in_x_and_t(position):
    """From x to 1.01 x, and from t halfway to T: less time to maturity
    leaves less time to default."""
    V, t, bond, _, market = position
    x = V / barrier_level(bond, t)
    args = (market.r - market.q - bond.a, market.sigma, bond.T)
    w = _finite(tbvp_w, x, t, *args)
    for later in (_finite(tbvp_w, 1.01 * x, t, *args),
                  _finite(tbvp_w, x, 0.5 * (t + bond.T), *args)):
        assert w is None or later is None or w <= later


@_SETTINGS
@given(positions(), st.integers(50, 120))
def test_pde_surfaces_share_one_grid_to_the_far_field(position, n_space):
    """The bond and survival surfaces share one x grid and the put and call
    surfaces another, wherever the option's early redemption boundary lies.
    Each runs from the barrier at 1 to a far field of at least 30 and of at
    least exp(min(700, 4 sigma sqrt(h) + max(nu, 0) h)) over its horizon h,
    nu = r - q - a - sigma^2 / 2, to rounding. The put's, which starts from
    the PDE bond at T1, ends inside the bond's."""
    _, _, bond, option, market = position
    grid = GridSpec(n_space=n_space, n_time=50)
    surfaces = _finite(pde_surfaces, bond, market, option, grid)
    if surfaces is None:
        return
    assert len(surfaces) == 4
    nu = market.r - market.q - bond.a - market.sigma**2 / 2
    for pair, h in ((("bond", "survival"), bond.T), (("put", "call"), option.T1)):
        x, other = (surfaces[key].x.tolist() for key in pair)
        assert x == other, pair
        reach = math.exp(min(700.0, 4.0 * market.sigma * math.sqrt(h) + max(nu, 0.0) * h))
        assert x[0] == 1.0 and x[-1] >= max(30.0, reach) * (1.0 - 1e-13), (pair, x[-1])
    assert surfaces["put"].x[-1] <= surfaces["bond"].x[-1]


# tbvp_w forms N(d+) - image from two terms near 1.8e-319, whose difference
# rounds to -5e-324 before the floor at 0; mpmath at 60 digits gives
# 1.76e-325, which rounds to 0.
def test_survival_of_a_subnormal_difference_within_bounds():
    bond = BondSpec(T=4.490263305757545, a=0.0, b=100.0, R=0.5)
    market = MarketParams(r=-0.1936714275900154, q=0.2, sigma=0.016604017655055835)
    assert _survival_within_bounds(100.00004943219507, 1.897097171102811, bond, market)


# The image factor x^(1 - 2c/sigma^2) is 1.336 to the power 2469, about
# e^715, and overflows, although the image term itself is below N(d+).
@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="tbvp_w overflows in its image factor at small sigma")
def test_survival_weight_with_an_overflowing_image_factor_is_finite():
    w = tbvp_w(1.336132269105638, 2.918778468077814, -0.3387434177110583,
               0.016569320620558926, 4.059178299793679)
    assert w == pytest.approx(1.985350197552656e-08, rel=1e-12)  # mpmath


def test_bond_prices_where_the_image_factor_overflows_under_a_vanishing_weight():
    """x^gamma = 5^501 overflows a float where N(d-) underflows to 0, so
    bond_price never forms it and returns 1.0; bond_prices returns the same,
    with no FloatingPointError under the Monte Carlo pass's errstate."""
    bond = BondSpec(T=2.0, a=0.0, b=100.0, R=0.5)
    market = MarketParams(r=0.0, q=0.1, sigma=0.02)
    assert bond_price(500.0, 1.0, bond, market) == 1.0
    with np.errstate(over="raise"):
        assert bond_prices(np.array([500.0]), 1.0, bond, market).tolist() == [1.0]


def test_bond_prices_raises_where_the_image_factor_overflows():
    """At the input of the strict xfail above, where x^gamma overflows
    under a nonzero N(d-), both forms raise NumericalError; the fix of
    that xfail is to price both."""
    x, t, c, sigma, T = (1.336132269105638, 2.918778468077814, -0.3387434177110583,
                         0.016569320620558926, 4.059178299793679)
    bond = BondSpec(T=T, a=0.0, b=1.0, R=0.5)  # the barrier is 1 at every t: V = x
    market = MarketParams(r=c, q=0.0, sigma=sigma)
    with pytest.raises(NumericalError):
        bond_price(x, t, bond, market)
    with np.errstate(over="raise"), pytest.raises(NumericalError):
        bond_prices(np.array([1.2, x]), t, bond, market)


# Book pool positions (perfbench/workloads.py) at which the composed path is
# NaN: loss * scale times a reflected leg overflows to inf on both sides of
# the image term, and inf - inf is NaN, which the 1e-9 check lets through.
_NAN_COMPOSED = {
    "book_1663_put": (
        483922.82648757333, 0.02008056640625,
        BondSpec(T=0.537506103515625, a=0.020429452784916063, b=100.0, R=0.7453201127786051),
        OptionSpec(T1=0.2249298095703125, E=0.8642034317644683, kind=OptionKind.PUT),
        MarketParams(r=0.16357452235213568, q=0.01282117993418283, sigma=0.05009006428551281)),
    "book_1744_put": (
        145848.82249426332, 0.2031707763671875,
        BondSpec(T=3.704254150390625, a=0.06843020654854776, b=100.0, R=0.5604310379741868),
        OptionSpec(T1=1.1595611572265625, E=0.4079115218699163, kind=OptionKind.PUT),
        MarketParams(r=0.19116185862505616, q=-0.0741695418210431, sigma=0.056328558462584624)),
}


@pytest.mark.xfail(strict=True, reason="bond_option_price accepts a NaN composed path")
@pytest.mark.parametrize("position", _NAN_COMPOSED.values(), ids=_NAN_COMPOSED.keys())
def test_nan_composed_path_is_rejected(position):
    assert _paths_agree(*position)


def test_puttable_bond_is_continuous_at_expiry_on_the_barrier():
    # the reference put at V = 100, on the barrier: just before T1 the put is
    # knocked out and the puttable bond is B = 0.6725526073797241; at T1 the
    # exercise value is knocked out too, not max(B, E) = 0.9
    bond = BondSpec(T=2.0, a=0.0, b=100.0, R=0.7)
    put = OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT)
    market = MarketParams(r=0.04, q=0.0, sigma=0.5)
    before = puttable_bond_price(100.0, put.T1 - 1e-9, bond, put, market)
    assert puttable_bond_price(100.0, put.T1, bond, put, market) == pytest.approx(before, abs=1e-6)


def test_image_point_of_a_huge_barrier_stays_finite():
    # the image point b^2 / x is 5e199, a normal float
    barriered = image_transform(lambda x, t: 1.0, 1e200, 0.04, 0.5)
    assert math.isfinite(barriered(2e200, 0.0))
