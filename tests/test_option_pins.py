"""Bit pins of both option-pricing paths, and checks that the work shared
between prices changes no result: the early redemption boundary, the
composed path's legs and the last point's two paths of the last (bond,
option, market) triple priced, kept by value, so equal specs built anew
share them.

The float.hex pins were recorded before that sharing was introduced, over
puts and calls at the reference parameters, the corners of the figure 3-5
grids, near and on the barrier, R = 0, q > r, a != 0 and sigma 0.05-1.5."""

import dataclasses
import itertools
import sys
import threading

import pytest

from credit_pricer import (
    BondSpec,
    MarketParams,
    OptionKind,
    OptionSpec,
    bond_option_price,
    option_price_paths,
)
from credit_pricer import credit_instruments
from helpers import forget_shared_work

# (id, (r, q, sigma), (T, a, b, R), (T1, E, kind), t, V, formula, composition)
_PINS = [
    ('reference_put', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 199.0,
     '0x1.9d784f25d744cp-6', '0x1.9d784f25d745bp-6'),
    ('fig3_put_t0.0_V139', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 139.0,
     '0x1.47b3e8c53639cp-6', '0x1.47b3e8c536396p-6'),
    ('fig3_put_t0.0_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 300.0,
     '0x1.afc33eeb6a9e4p-7', '0x1.afc33eeb6a9fbp-7'),
    ('fig3_put_t0.995_V139', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.995, 139.0,
     '0x1.a61a9b009a40fp-4', '0x1.a61a9b009a40fp-4'),
    ('fig3_put_t0.995_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.995, 300.0,
     '-0x1.86cf58336c182p-705', '0x1.28f4d364799f3p-107'),
    ('fig4_put_t0.0_V101', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 101.0,
     '0x1.56622ffeba048p-11', '0x1.56622ffeb9fc0p-11'),
    ('fig4_put_t0.0_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 300.0,
     '0x1.afc33eeb6a9e4p-7', '0x1.afc33eeb6a9fbp-7'),
    ('fig4_put_t0.5_V101', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.5, 101.0,
     '0x1.99147f6a34024p-10', '0x1.99147f6a33fc0p-10'),
    ('fig4_put_t0.5_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.5, 300.0,
     '0x1.b533263d6f9e8p-8', '0x1.b533263d6f9cap-8'),
    ('near_barrier_put', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.25, 100.00000001,
     '0x1.4f5ee295b9366p-37', '0x1.4f5f000000000p-37'),
    ('on_barrier_put', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.25, 100.0,
     '0x0.0p+0', '0x0.0p+0'),
    ('zero_recovery_put', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.0), (1.0, 0.5, 'put'), 0.3, 160.0,
     '0x1.1da2840979140p-5', '0x1.1da284097914cp-5'),
    ('q_above_r_put', (0.04, 0.1, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.1, 180.0,
     '0x1.321042440252fp-5', '0x1.3210424402528p-5'),
    ('growing_barrier_put', (0.04, 0.0, 0.5), (2.0, 0.05, 100.0, 0.7), (1.0, 0.9, 'put'), 0.2, 210.0,
     '0x1.d2e323e9edd72p-6', '0x1.d2e323e9edd7ep-6'),
    ('falling_barrier_put', (0.04, 0.0, 0.5), (2.0, -0.05, 100.0, 0.7), (1.0, 0.85, 'put'), 0.2, 150.0,
     '0x1.619fbd8f91930p-7', '0x1.619fbd8f91904p-7'),
    ('low_vol_put', (0.04, 0.0, 0.1), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 120.0,
     '0x1.2a98bc5fe1848p-8', '0x1.2a98bc5fe1842p-8'),
    ('high_vol_put', (0.04, 0.0, 1.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.8, 'put'), 0.5, 400.0,
     '0x1.7b0ddafa77503p-6', '0x1.7b0ddafa77510p-6'),
    ('far_put', (0.04, 0.0, 0.3), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.0, 5000.0,
     '0x1.5d3a2423194e2p-110', '0x1.5d2c5819a3139p-110'),
    ('near_moving_barrier_put', (0.04, 0.0, 0.5), (2.0, 0.05, 100.0, 0.7), (1.0, 0.9, 'put'), 0.2, 91.39312766643468,
     '0x1.34b90c12e586dp-27', '0x1.34b90c2800000p-27'),
    ('min_vol_put', (0.04, 0.0, 0.05), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'put'), 0.1, 110.0,
     '0x1.c187b299fa294p-11', '0x1.c187b299fa280p-11'),
    ('reference_call', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 199.0,
     '0x1.04332a207bb94p-6', '0x1.04332a207bb84p-6'),
    ('fig3_call_t0.0_V139', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 139.0,
     '0x1.64407a6d9d508p-8', '0x1.64407a6d9d4f7p-8'),
    ('fig3_call_t0.0_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 300.0,
     '0x1.0da0d7d022620p-5', '0x1.0da0d7d022618p-5'),
    ('fig3_call_t0.995_V139', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.995, 139.0,
     '0x1.11bef1c229300p-90', '0x1.11bef1c229280p-90'),
    ('fig3_call_t0.995_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.995, 300.0,
     '0x1.91932b323b460p-5', '0x1.91932b323b45dp-5'),
    ('fig4_call_t0.0_V101', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 101.0,
     '0x1.16430304b551cp-13', '0x1.16430304b55a8p-13'),
    ('fig4_call_t0.0_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 300.0,
     '0x1.0da0d7d022620p-5', '0x1.0da0d7d022618p-5'),
    ('fig4_call_t0.5_V101', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.5, 101.0,
     '0x1.c4440810a2a10p-15', '0x1.c4440810a2b88p-15'),
    ('fig4_call_t0.5_V300', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.5, 300.0,
     '0x1.32af9148c882cp-5', '0x1.32af9148c8814p-5'),
    ('near_barrier_call', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.25, 100.00000001,
     '0x1.1b356a9c7b200p-40', '0x1.1b35200000000p-40'),
    ('on_barrier_call', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.25, 100.0,
     '0x0.0p+0', '0x0.0p+0'),
    ('zero_recovery_call', (0.04, 0.0, 0.5), (2.0, 0.0, 100.0, 0.0), (1.0, 0.5, 'call'), 0.3, 160.0,
     '0x1.ec4fdd44f0578p-4', '0x1.ec4fdd44f0574p-4'),
    ('q_above_r_call', (0.04, 0.1, 0.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.1, 180.0,
     '0x1.daff74b9b57a8p-8', '0x1.daff74b9b57adp-8'),
    ('growing_barrier_call', (0.04, 0.0, 0.5), (2.0, 0.05, 100.0, 0.7), (1.0, 0.9, 'call'), 0.2, 210.0,
     '0x1.2a092fda5e4e4p-6', '0x1.2a092fda5e4ddp-6'),
    ('falling_barrier_call', (0.04, 0.0, 0.5), (2.0, -0.05, 100.0, 0.7), (1.0, 0.85, 'call'), 0.2, 150.0,
     '0x1.2d680e42961f2p-6', '0x1.2d680e42961e7p-6'),
    ('low_vol_call', (0.04, 0.0, 0.1), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 120.0,
     '0x1.65fde5c8680e4p-5', '0x1.65fde5c8680d2p-5'),
    ('high_vol_call', (0.04, 0.0, 1.5), (2.0, 0.0, 100.0, 0.7), (1.0, 0.8, 'call'), 0.5, 400.0,
     '0x1.b9cfd6781048cp-7', '0x1.b9cfd67810471p-7'),
    ('far_call', (0.04, 0.0, 0.3), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.0, 5000.0,
     '0x1.de75f292a2868p-5', '0x1.de75f292a2850p-5'),
    ('near_moving_barrier_call', (0.04, 0.0, 0.5), (2.0, 0.05, 100.0, 0.7), (1.0, 0.9, 'call'), 0.2, 91.39312766643468,
     '0x1.8d2c6062791d0p-31', '0x1.8d2c606d00000p-31'),
    ('min_vol_call', (0.04, 0.0, 0.05), (2.0, 0.0, 100.0, 0.7), (1.0, 0.9, 'call'), 0.1, 110.0,
     '0x1.b9702b9ab7c74p-5', '0x1.b9702b9ab7c73p-5'),
]

# book-pool shaped inputs where the option price overflows: at the put
# (index 99) the literal formula's (V / barrier)^gamma, at the call (index
# 1261) the composed path's leg scale b^-gamma with gamma = -242.7
_RAISING = [
    ("book_99_put", (-0.03263721557104038, 0.1685159687866016, 0.0726868998307426),
     (2.8865814208984375, 0.08142556454240835, 100.0, 0.6021543182905019),
     (0.6309661865234375, 0.727081384612381, "put"), 0.2109222412109375, 172552.95928396392),
    ("book_1261_call", (0.17696977755364765, -0.050005540451330995, 0.05060204071422254),
     (1.7364501953125, -0.08507673271214888, 100.0, 0.5402220186446617),
     (0.8108673095703125, 0.5821682813349829, "call"), 0.22265625, 5968.89262206522),
]


def _specs(market, bond, option):
    r, q, sigma = market
    T, a, b, R = bond
    T1, E, kind = option
    return (BondSpec(T=T, a=a, b=b, R=R), OptionSpec(T1=T1, E=E, kind=OptionKind(kind)),
            MarketParams(r=r, q=q, sigma=sigma))


def _hex_paths(V, t, bond, option, market):
    return tuple(x.hex() for x in option_price_paths(V, t, bond, option, market))


def _outcome(V, t, bond, option, market):
    try:
        return _hex_paths(V, t, bond, option, market)
    except Exception as exc:  # the class and message are the outcome
        return type(exc).__name__, str(exc)


def _fresh(bond, option, market):
    """Equal specs that are new objects, with the shared work emptied, so
    nothing priced before is reused."""
    forget_shared_work()
    return dataclasses.replace(bond), dataclasses.replace(option), dataclasses.replace(market)


@pytest.mark.parametrize("pin", _PINS, ids=[p[0] for p in _PINS])
def test_option_price_paths_pinned(pin):
    _, market, bond, option, t, V, formula, composition = pin
    assert _hex_paths(V, t, *_specs(market, bond, option)) == (formula, composition)


@pytest.mark.parametrize("case", _RAISING, ids=[c[0] for c in _RAISING])
def test_overflow_pinned(case):
    _, market, bond, option, t, V = case
    specs = _specs(market, bond, option)
    for _ in range(2):  # the repeat reuses whatever the first call kept
        assert _outcome(V, t, *specs) == ("NumericalError", "option price overflows a float")


def _pin(name):
    return next(p for p in _PINS if p[0] == name)


class TestSharedWork:
    """The boundary, the composed legs and the last point's two paths of
    the last triple priced are kept, compared by value, and never change a
    price."""

    def test_alternating_triples_match_fresh_calls(self):
        put = _specs(*_PINS[0][1:4])
        call = _specs(*_pin("q_above_r_call")[1:4])
        third = _specs(*_pin("growing_barrier_put")[1:4])
        points = [(0.0, 139.0), (0.3, 199.0), (0.9, 300.0), (0.5, 101.0)]
        order = (put, call, call, put, third, call)  # each switch replaces the record
        got = []
        for t, V in points:  # each call switches triple, then repeats it
            for specs in order:
                got.append(_hex_paths(V, t, *specs))
        want = []
        for t, V in points:
            for specs in order:
                want.append(_hex_paths(V, t, *_fresh(*specs)))
        assert got == want

    def test_equal_specs_built_anew_share_one_solve(self, monkeypatch):
        solve = credit_instruments.early_redemption_boundary
        solves = []
        monkeypatch.setattr(credit_instruments, "early_redemption_boundary",
                            lambda *args: solves.append(args) or solve(*args))
        _, market, bond, option, t, V, formula, composition = _PINS[0]
        specs = _fresh(*_specs(market, bond, option))
        rebuilt = _specs(market, bond, option)
        replaced = tuple(dataclasses.replace(s) for s in specs)
        for built in (specs, rebuilt, replaced):
            assert _hex_paths(V, t, *built) == (formula, composition)
        assert bond_option_price(V, t, *rebuilt) == float.fromhex(formula)
        assert len(solves) == 1

    @pytest.mark.parametrize("base", [
        _pin("reference_put"),
        _pin("zero_recovery_call"),
        # r = 0 too, so that every one of r, q, a and R is a zero
        ("zero_rate_put", (0.0, 0.0, 0.5), (2.0, 0.0, 100.0, 0.0), (1.0, 0.5, "put"), 0.3, 160.0,
         None, None),
    ], ids=lambda pin: pin[0])
    def test_signed_zeros_share_the_bits_in_either_order(self, base):
        _, (r, q, sigma), (T, a, b, R), option, t, V, formula, composition = base
        zeros = [name for name, x in (("r", r), ("q", q), ("a", a), ("R", R)) if x == 0.0]

        def variant(negative):
            x = {"r": r, "q": q, "a": a, "R": R} | dict.fromkeys(negative, -0.0)
            return _specs((x["r"], x["q"], sigma), (T, x["a"], b, x["R"]), option)

        variants = [variant(neg) for n in range(len(zeros) + 1)
                    for neg in itertools.combinations(zeros, n)]
        want = (formula, composition) if formula else _hex_paths(V, t, *_fresh(*variants[0]))
        assert all(_hex_paths(V, t, *_fresh(*specs)) == want for specs in variants)
        for first, second in itertools.permutations(variants, 2):
            assert (_hex_paths(V, t, *_fresh(*first)), _hex_paths(V, t, *second)) == (want, want)

    def test_equal_distinct_specs_give_the_same_bits(self):
        for pin in _PINS:
            _, market, bond, option, t, V, formula, composition = pin
            specs = _specs(market, bond, option)
            _hex_paths(V, t, *specs)
            assert _hex_paths(V, t, *_fresh(*specs)) == (formula, composition)
            assert _hex_paths(V, t, *specs) == (formula, composition)

    @pytest.mark.parametrize("failing, message", [
        # the boundary bracket doubles from the barrier level 1e308
        (((0.04, 0.0, 0.5), (2.0, 0.0, 1e308, 0.7), (1.0, 0.9, "put"), 0.0, 1.5e308),
         "early redemption boundary bracket leaves the float range"),
        # the composed path's legs overflow (book index 1261)
        (_RAISING[1][1:], "option price overflows a float"),
    ], ids=["boundary", "legs"])
    def test_failing_triple_fails_again_and_spoils_nothing(self, failing, message):
        market, bond, option, t, V = failing
        bad = _specs(market, bond, option)
        _, market, bond, option, t_ok, V_ok, formula, composition = _PINS[0]
        good = _specs(market, bond, option)
        assert _hex_paths(V_ok, t_ok, *good) == (formula, composition)
        for _ in range(2):
            assert _outcome(V, t, *bad) == ("NumericalError", message)
        assert _hex_paths(V_ok, t_ok, *good) == (formula, composition)
        for _ in range(2):
            assert _outcome(V, t, *bad) == ("NumericalError", message)
            assert _hex_paths(V_ok, t_ok, *_fresh(*good)) == (formula, composition)

    def test_public_price_agrees_with_pins_after_reuse(self):
        for pin in _PINS:
            _, market, bond, option, t, V, formula, _ = pin
            specs = _specs(market, bond, option)
            first = bond_option_price(V, t, *specs)
            assert bond_option_price(V, t, *specs) == first == max(float.fromhex(formula), 0.0)

    def test_threads_sharing_the_memos_get_the_pinned_bits(self):
        # more threads than cores, switching often, each alternating triples
        cases = [(_specs(*p[1:4]), p[4], p[5], (p[6], p[7])) for p in _PINS]
        wrong = []

        def work(offset):
            for k in range(3 * len(cases)):
                specs, t, V, want = cases[(offset + 7 * k) % len(cases)]
                if _hex_paths(V, t, *specs) != want:
                    wrong.append((offset, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not wrong
