"""The instruments' outcomes, pinned to the bit over the book domain.

About a thousand positions are drawn from a seeded random.Random, not from
hypothesis, so that an upgrade of hypothesis cannot move them. Each is
priced by seven calls, at V and at 0.999 V (below the barrier for some):
survival, bond, both option paths, the option price, the matching
composite at t and at T1, and the option price at T1, its exercise value.
A call's outcome is the float.hex of its price, or the class and message
of the PricerError it raises, and each call's outcomes feed one sha256. A
change that moves one bit of one price, or one word of one error, fails
here; a change that means to must record the new digests and say why."""

import hashlib
import math
import random

import pytest

from credit_pricer import (
    BondSpec,
    MarketParams,
    OptionKind,
    OptionSpec,
    PricerError,
    bond_option_price,
    bond_price,
    callable_bond_price,
    option_price_paths,
    puttable_bond_price,
    survival_probability,
)

_SEED = 2021
_POSITIONS = 1000


def _draw(rng):
    """(V, t, bond, option, market) over the book domain: sigma in
    [0.05, 1.5]; r, q, a in [-0.1, 0.2]; R = 0 one time in ten; E strictly
    inside its bracket; t in [0, T1); V from the barrier (one time in 64
    exactly on it) up to 1e4 times the barrier; puts and calls."""
    r, q, a = (rng.uniform(-0.1, 0.2) for _ in range(3))
    sigma = rng.uniform(0.05, 1.5)
    T = rng.uniform(0.5, 5.0)
    R = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.95)
    T1 = T * rng.uniform(0.1, 0.9)
    disc = math.exp(-r * (T - T1))
    E = disc * (R + (1.0 - R) * rng.uniform(0.05, 0.95))
    kind = OptionKind.PUT if rng.random() < 0.5 else OptionKind.CALL
    t = T1 * rng.random()
    level = 100.0 * math.exp(-a * (T - t))
    V = level if rng.random() < 1.0 / 64.0 else level * math.exp(rng.uniform(0.0, math.log(1e4)))
    return (V, t, BondSpec(T=T, a=a, b=100.0, R=R), OptionSpec(T1=T1, E=E, kind=kind),
            MarketParams(r=r, q=q, sigma=sigma))


def _calls(V, t, bond, option, market):
    composite = puttable_bond_price if option.kind is OptionKind.PUT else callable_bond_price
    return {
        "survival_probability": lambda: survival_probability(V, t, bond, market),
        "bond_price": lambda: bond_price(V, t, bond, market),
        "option_price_paths": lambda: option_price_paths(V, t, bond, option, market),
        "bond_option_price": lambda: bond_option_price(V, t, bond, option, market),
        "composite_at_t": lambda: composite(V, t, bond, option, market),
        "composite_at_T1": lambda: composite(V, option.T1, bond, option, market),
        "exercise_value": lambda: bond_option_price(V, option.T1, bond, option, market),
    }


def _outcome(call):
    try:
        result = call()
    except PricerError as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(x.hex() for x in result) if isinstance(result, tuple) else result.hex()


_DIGESTS = {
    "survival_probability":
        "9a761d4299e163f18e3e0590ef9f5fcbfee33c178f35dee3f9721cb68d19c8ec",
    "bond_price":
        "c7e08d790a830b4396f08c057e5bd9950d2779c7084f222eb34a789fce5d1fa2",
    "option_price_paths":
        "813d0e8b4314321a5925c03e007f2a13a6c1ea5d473c1c18d6f678df917a9f88",
    "bond_option_price":
        "5a99e8dfc37ef4349e0b91775bae750a3906704258297626aa2f39ce0ceaf272",
    "composite_at_t":
        "daf0effd4948362322696ea18a16bbf22f6012475b121ca210083509bc419914",
    "composite_at_T1":
        "a0fa49511605e05835a1bcf8a1488de5cbb44a9446581af90bfc886146754b20",
    "exercise_value":
        "0656e32914cf6eb5f2a61d45c15092f7736b5110c03832e1fbfa92aa3d6fc35f",
}


@pytest.fixture(scope="module")
def digests():
    rng = random.Random(_SEED)
    hashes = {name: hashlib.sha256() for name in _DIGESTS}
    for _ in range(_POSITIONS):
        V, *rest = _draw(rng)
        for v in (V, 0.999 * V):
            for name, call in _calls(v, *rest).items():
                hashes[name].update(_outcome(call).encode() + b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


@pytest.mark.parametrize("name", _DIGESTS)
def test_outcomes_keep_their_bits(name, digests):
    assert digests[name] == _DIGESTS[name]
