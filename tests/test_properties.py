"""Properties drawn over the whole admissible domain, and the known defects
pinned to their inputs as strict xfails: a fix turns one into an XPASS,
which fails, and the fixing change removes its marker.

The domain is the benchmark book's (r, q, a in [-0.1, 0.2], R = 0 or up to
0.95, E strictly inside its bracket, t in [0, T1), V from the barrier to
1e4 times it), with sigma down to 0.01. No draw is filtered: the share of
draws that raise NumericalError is reported as a hypothesis event (see
pytest --hypothesis-show-statistics)."""

import dataclasses
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from credit_pricer import (
    BondSpec,
    MarketParams,
    NumericalError,
    OptionKind,
    OptionSpec,
    PricerError,
    bond_option_price,
    bond_price,
    callable_bond_price,
    image_transform,
    option_price_paths,
    puttable_bond_price,
    survival_probability,
)
from credit_pricer import credit_instruments, special_functions

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
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


def _cold(*specs):
    credit_instruments._solved.cache_clear()
    special_functions._dw_nodes.cache_clear()
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


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="image_transform forms b*b, which overflows above b = 1.34e154")
def test_image_point_of_a_huge_barrier_stays_finite():
    # the image point b^2 / x is 5e199, a normal float
    barriered = image_transform(lambda x, t: 1.0, 1e200, 0.04, 0.5)
    assert math.isfinite(barriered(2e200, 0.0))
