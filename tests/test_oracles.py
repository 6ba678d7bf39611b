"""Tests for the three independent verifiers: the theta-scheme PDE solver,
the barrier-monitored Monte Carlo simulator, and the adaptive quadrature of
the lognormal transition integral."""

import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from credit_pricer import (
    BondSpec,
    DomainError,
    GridSpec,
    IndicatorDirection,
    InvalidParamsError,
    MarketParams,
    McSpec,
    NumericalError,
    OptionKind,
    OptionSpec,
    PowerBinaryParams,
    Scheme,
    barrier_level,
    bond_price,
    callable_bond_price,
    draw_verification_case,
    mc_barrier_price,
    mc_barrier_prices,
    pde_solve_tbvp,
    power_binary_price,
    quadrature_green,
    survival_probability,
    tbvp_w,
)
from credit_pricer.oracles import _bridge_crossed
from credit_pricer.verification import mc_checks, pde_surfaces

_REF_MARKET = MarketParams(r=0.04, q=0.0, sigma=0.5)
_LOW_VOL = MarketParams(r=0.04, q=0.0, sigma=0.05)
_FLAT = BondSpec(T=2.0, a=0.0, b=100.0, R=0.7)
_MOVING = BondSpec(T=2.0, a=0.05, b=100.0, R=0.7)


def _recovery(bond):
    return lambda t: bond.R * math.exp(-_REF_MARKET.r * (bond.T - t))


# One Monte Carlo run per case, given its McSpec.
_MC_PIN_RUNS = {
    "flat_bond": lambda mc: mc_barrier_price(
        lambda v: 1.0, _recovery(_FLAT), 2.0, 0.0, 100.0, _REF_MARKET, mc, 139.0),
    # option horizon T1 = 1 against the bond's moving barrier, anchored at T = 2
    "moving_composite": lambda mc: mc_barrier_price(
        lambda v: max(bond_price(v, 1.0, _MOVING, _REF_MARKET), 0.9), _recovery(_MOVING),
        1.0, 0.05, 100.0, _REF_MARKET, mc, 139.0, barrier_anchor=2.0),
    # most paths die at the first step
    "near_barrier": lambda mc: mc_barrier_price(
        lambda v: 1.0, _recovery(_FLAT), 2.0, 0.0, 100.0, _REF_MARKET, mc, 1.0001 * 100.0),
    # no path hits
    "unreachable": lambda mc: mc_barrier_price(
        lambda v: min(v, 200.0) / 100.0, lambda t: 0.0, 2.0, 0.0, 1e-9, _REF_MARKET,
        mc, 139.0),
    # bridge exponents on both sides of the -40 cut, some below exp's
    # underflow at about -745
    "low_vol_near": lambda mc: mc_barrier_price(
        lambda v: 1.0, _recovery(_FLAT), 2.0, 0.0, 100.0, _LOW_VOL, mc, 1.02 * 100.0),
    # every bridge exponent below -745
    "low_vol_far": lambda mc: mc_barrier_price(
        lambda v: v / 1e6, _recovery(_FLAT), 2.0, 0.0, 100.0, _LOW_VOL, mc, 1e4 * 100.0),
}

# (estimate, SE) as float.hex per (case, bridge_correction), at 20 000 paths
# x 64 steps, seed 5. The estimates were recorded from the step-by-step
# simulation loop that the whole-path first passage replaced; the SEs from
# each chunk's squared deviations about its own mean, merged by Chan, Golub
# & LeVeque's update, which agree with the SE of the same path values in
# exact rational arithmetic to 5e-16 relative.
_MC_PINS = {
    ("flat_bond", True): ("0x1.73f504bce8213p-1", "0x1.d1da8858554b8p-11"),
    ("flat_bond", False): ("0x1.7aaf60ce09bbap-1", "0x1.e57267c64cf8bp-11"),
    ("moving_composite", True): ("0x1.8850a4037b6e8p-1", "0x1.ac4b00a6ba07bp-11"),
    ("moving_composite", False): ("0x1.8ce1ac14a310bp-1", "0x1.a876274dbb535p-11"),
    ("near_barrier", True): ("0x1.4ada1be405c8ep-1", "0x1.d09ea2b3031aep-17"),
    ("near_barrier", False): ("0x1.525a4b806d9bbp-1", "0x1.cbd349d4e690dp-12"),
    ("unreachable", True): ("0x1.241ddc94f2e9bp+0", "0x1.efaf9cf14172fp-9"),
    ("unreachable", False): ("0x1.253ee58e03b17p+0", "0x1.eec10c2ebb9a9p-9"),
    # recorded from the simulation that exponentiated every bridge exponent
    ("low_vol_near", True): ("0x1.8f890f412c466p-1", "0x1.008d007833c7fp-10"),
    ("low_vol_near", False): ("0x1.9b7ed4a355efcp-1", "0x1.fc778373ab250p-11"),
    ("low_vol_far", True): ("0x1.0020613353e68p+0", "0x1.05eba124a2337p-11"),
    ("low_vol_far", False): ("0x1.004c2fccd9133p+0", "0x1.064756a34fdaep-11"),
}

# (estimate, SE) as float.hex at 40 001 paths x 50 steps, seed 5: two full
# 16 384-path chunks and a partial third, so the next chunk's normals are
# drawn while a chunk is processed. The estimates were recorded from the
# single-threaded simulation that drew every chunk in turn, the SEs as above
# (re-recorded with them).
_MC_CHUNKED_PINS = {
    ("flat_bond", True): ("0x1.73fcec1e1bc5cp-1", "0x1.4979217c9b875p-11"),
    ("flat_bond", False): ("0x1.7b853a2d0a0a7p-1", "0x1.58b2031b0ee58p-11"),
    ("moving_composite", True): ("0x1.87f94d1aeccf8p-1", "0x1.2f537ce0f0556p-11"),
    ("moving_composite", False): ("0x1.8cecbb6c1fa93p-1", "0x1.2c134576bd2fbp-11"),
}

# The two claims of verify's MC checks on one shared pass, for the default
# config (a put) and perfbench's moving-call config: (market, bond, option,
# exercise), V0 = 199.
_SHARED_CONFIGS = {
    "reference": (_REF_MARKET, _FLAT, OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT), max),
    "moving_call": (MarketParams(r=0.03, q=0.02, sigma=0.35),
                    BondSpec(T=3.0, a=0.05, b=100.0, R=0.4),
                    OptionSpec(T1=1.5, E=0.8, kind=OptionKind.CALL), min),
}


def _shared_claims(config, composite_payoff=None):
    """The bond claim and the composite claim of a config; composite_payoff
    wraps the composite's payoff when given."""
    market, bond, option, exercise = _SHARED_CONFIGS[config]

    def payoff(v):
        return exercise(bond_price(v, option.T1, bond, market), option.E)

    rebate = lambda t: bond.R * math.exp(-market.r * (bond.T - t))
    return [(lambda v: 1.0, rebate, bond.T, bond.a, bond.b, bond.T),
            (composite_payoff(payoff) if composite_payoff else payoff, rebate, option.T1,
             bond.a, bond.b, bond.T)]


def _shared_pass(config, mc, composite_payoff=None):
    return mc_barrier_prices(_shared_claims(config, composite_payoff),
                             _SHARED_CONFIGS[config][0], mc, 199.0)


# ((estimate, SE) of the bond claim, the same of the composite claim) as
# float.hex per (config, bridge_correction), at 40 001 paths x 50 steps,
# seed 5: three chunks, the last one partial. Each estimate is the one two
# separate mc_barrier_price runs gave before the claims shared a pass.
_MC_SHARED_PINS = {
    ("reference", True): (("0x1.9e518ad03944cp-1", "0x1.6539b51692387p-11"),
                          ("0x1.ab70fd2a17709p-1", "0x1.040881592bd36p-11")),
    ("reference", False): (("0x1.a4bfa251b48d8p-1", "0x1.5db19de68fc0ep-11"),
                           ("0x1.aec1afccd0d4ep-1", "0x1.eb5d87bb81d16p-12")),
    ("moving_call", True): (("0x1.7df3c7ff36c6dp-1", "0x1.4b4acc77053cdp-10"),
                            ("0x1.5ee4ec894a0eap-1", "0x1.5a1d926c2e48ep-11")),
    ("moving_call", False): (("0x1.877843d46f7a8p-1", "0x1.3ff5dce04445bp-10"),
                             ("0x1.60276d6d63eb2p-1", "0x1.515cc3eae4f75p-11")),
}


def _hexes(outcomes):
    return tuple((mean.hex(), se.hex()) for mean, se in outcomes)


# sha256 of each PdeSurface.values (float64, little-endian) of the reference
# bond, put and call on the default 801 x 800 grid. Recorded from the solver
# that rebuilt its banded matrix at every time step; the put's, with the put
# knocked out (0) at the barrier node of its terminal row.
_PDE_PINS = {
    "bond": "7f02b2ad5c5f3b525b687c71ff944040f1e98daa2227aa3fef4c983cbf264ff7",
    "survival": "53ce093279e60842e01779687740a721b9de9cf71d15040b797e3f63c516db7c",
    "put": "9d0ae75eb8189f388a3df545bb8de0a718845712c6d4cf85a1745beaea89ca5e",
    "call": "cc33ee8a38fe91abc77e7c6289fb928a2dd45804a3a4fe418d49d4c2ebbf7b1b",
}

# The same digests on two coarse grids: Crank-Nicolson 101 x 50, where the two
# Rannacher steps are a larger share of the march, and implicit Euler
# 201 x 150, which takes no half-steps. Recorded from the solver that wrote
# the Rannacher half-steps out apart from the main step.
_PDE_COARSE_PINS = {
    (101, 50, Scheme.CRANK_NICOLSON): {
        "bond": "087f8935202b87c3db55a8a008d82e4cedffd6e3b908c6cfedb843daea4860a5",
        "survival": "1b8c1c25fd125dbdc307f14dfb034f4d858c9d4874e121d72f3dbcaca62f703e",
        "put": "3d36f669b490db58ed9a5030f223ea96ac4c4e04dd518464d7d23f4798665935",
        "call": "4102a56fd4543edbcbaa22302b692af94d48aafa540fd46492f7f9c7e085745c",
    },
    (201, 150, Scheme.IMPLICIT_EULER): {
        "bond": "b6bef11a473b21e58694f55a5f2d34ee35a0c792ddc32a89d8960c514b1981fc",
        "survival": "d52a583e96a424efcf1bfa308eb9f734d2855635d26d9b4483b9dd2f5a630760",
        "put": "5d1332f841bb194233790e97eb7a0f89a48eae5a3d21ea4edfef53b8c214473c",
        "call": "5dc15ce8c5ada689721006b6dc094b249cbda6d22e7f96bd50da2f20a5cbfac8",
    },
}

# sha256 of the space-joined float.hex of quadrature_green over the first 200
# draw_verification_case draws of random.Random(2021).
_QUADRATURE_PIN = "5792a9793fd136ff27b8c5e06d150d43e15aa0f6c8b7e88108e8f229d2a55b36"


def _surface_digests(surfaces):
    return {name: hashlib.sha256(surfaces[name].values.astype("<f8").tobytes()).hexdigest()
            for name in ("bond", "survival", "put", "call")}


class TestGridSpecValidation:
    def test_floors(self):
        with pytest.raises(InvalidParamsError):
            GridSpec(n_space=49, n_time=100)
        with pytest.raises(InvalidParamsError):
            GridSpec(n_space=100, n_time=49)
        with pytest.raises(InvalidParamsError):
            GridSpec(n_space=100, n_time=100, x_max_mult=9.0)

    def test_defaults(self):
        g = GridSpec()
        assert g.n_space == 801 and g.n_time == 800
        assert g.scheme is Scheme.CRANK_NICOLSON


class TestMcSpecValidation:
    def test_floors(self):
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=999, n_steps=100)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=10_000, n_steps=49)

    def test_seed_range(self):
        McSpec(n_paths=1000, n_steps=50, seed=2**64 - 1)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=1000, n_steps=50, seed=2**64)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=1000, n_steps=50, seed=-1)


class TestPdeSolver:
    def test_zero_data_gives_zero_surface(self):
        g = GridSpec(n_space=101, n_time=100)
        s = pde_solve_tbvp(payoff=lambda x: 0.0, boundary_value=lambda t: 0.0,
                           c=0.1, sigma=0.4, r_discount=0.05, T=1.0, grid=g)
        for x in (1.0, 1.5, 4.0, 20.0):
            for t in (0.0, 0.5, 1.0):
                assert s.value(x, t) == 0.0

    def test_second_order_convergence(self):
        """Richardson measurement on the survival problem with the probe
        aligned to a grid node; both halvings should show order near 2 and
        each halving should cut the error by at least a factor 3."""
        c, sigma, T = 0.04, 0.5, 1.0
        exact = tbvp_w(1.5, 0.0, c, sigma, T)
        errors = []
        for n in (100, 200, 400):
            g = GridSpec(n_space=n + 1, n_time=n)
            s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                               c=c, sigma=sigma, r_discount=0.0,
                               T=T, grid=g, align_at=1.5)
            errors.append(abs(s.value(1.5, 0.0) - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.7 <= order <= 2.3, f"observed orders {orders}"
        for e_coarse, e_fine in zip(errors, errors[1:]):
            assert e_coarse / e_fine >= 3.0

    def test_discounted_far_field(self):
        # payoff 1 under discounting: far from the barrier the solution is
        # the discount factor itself
        g = GridSpec(n_space=201, n_time=200, x_max_mult=50.0)
        r = 0.05
        s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                           c=0.03, sigma=0.4, r_discount=r, T=2.0, grid=g)
        assert s.value(40.0, 0.0) == pytest.approx(math.exp(-2.0 * r), rel=1e-6)

    def test_implicit_euler_converges_first_order(self):
        c, sigma, T = 0.04, 0.5, 1.0
        g = GridSpec(n_space=401, n_time=400, scheme=Scheme.IMPLICIT_EULER)
        s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                           c=c, sigma=sigma, r_discount=0.0,
                           T=T, grid=g)
        exact = tbvp_w(1.5, 0.0, c, sigma, T)
        assert s.value(1.5, 0.0) == pytest.approx(exact, rel=2e-3)

    def test_nonfinite_payoff_rejected(self):
        g = GridSpec(n_space=101, n_time=100)
        with pytest.raises(InvalidParamsError):
            pde_solve_tbvp(payoff=lambda x: math.inf if x > 5.0 else 1.0,
                           boundary_value=lambda t: 0.0,
                           c=0.04, sigma=0.5, r_discount=0.0, T=1.0, grid=g)

    def test_blowup_guard(self):
        # boundary data far beyond the payoff scale trips the stability guard
        g = GridSpec(n_space=101, n_time=100)
        with pytest.raises(NumericalError):
            pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 1e12,
                           c=0.04, sigma=0.5, r_discount=0.0, T=1.0, grid=g)

    def test_surface_rejects_queries_outside_domain(self):
        g = GridSpec(n_space=101, n_time=100)
        s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                           c=0.04, sigma=0.5, r_discount=0.0, T=1.0, grid=g)
        for x, t in ((0.5, 0.0), (1e9, 0.0), (1.5, -0.1), (1.5, 1.5), (0.0, 0.0), (-1.0, 0.0)):
            with pytest.raises(DomainError):
                s.value(x, t)

    def test_reference_surfaces_pinned(self, bond, market, put_spec):
        assert _surface_digests(pde_surfaces(bond, market, put_spec, GridSpec())) == _PDE_PINS

    @pytest.mark.parametrize("n_space, n_time, scheme", list(_PDE_COARSE_PINS))
    def test_coarse_surfaces_pinned(self, bond, market, put_spec, n_space, n_time, scheme):
        grid = GridSpec(n_space=n_space, n_time=n_time, scheme=scheme)
        assert (_surface_digests(pde_surfaces(bond, market, put_spec, grid))
                == _PDE_COARSE_PINS[n_space, n_time, scheme])


class TestMcSimulator:
    def test_unreachable_barrier_prices_discount_bond(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        mc = McSpec(n_paths=1000, n_steps=50, seed=3)
        mean, se = mc_barrier_price(
            payoff=lambda v: 1.0, rebate_at_hit=lambda t: 0.0,
            T=2.0, a=0.0, b=1e-9, market=market, mc=mc, V0=100.0)
        # constant payoff and no hits: zero variance, exact discounting
        assert abs(mean - math.exp(-0.08)) <= max(3.0 * se, 1e-12)

    def test_same_seed_bit_identical(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        mc = McSpec(n_paths=4000, n_steps=64, seed=99)
        args = (lambda v: max(v - 100.0, 0.0), lambda t: 0.1,
                2.0, 0.0, 100.0, market, mc, 139.0)
        first = mc_barrier_price(*args)
        second = mc_barrier_price(*args)
        assert first == second

    def test_seed_actually_matters(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        a = mc_barrier_price(lambda v: 1.0, lambda t: 0.0, 2.0, 0.0, 100.0,
                             market, McSpec(n_paths=4000, n_steps=64, seed=1), 139.0)
        b = mc_barrier_price(lambda v: 1.0, lambda t: 0.0, 2.0, 0.0, 100.0,
                             market, McSpec(n_paths=4000, n_steps=64, seed=2), 139.0)
        assert a != b

    def test_standard_error_scaling(self):
        """SE should fall like n^(-1/2): across a decade of paths the ratio
        stays within 20% of sqrt(10)."""
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        rebate = lambda t: 0.7 * math.exp(-0.04 * (2.0 - t))
        ses = {}
        for n in (2000, 20000):
            mc = McSpec(n_paths=n, n_steps=64, seed=7)
            _, ses[n] = mc_barrier_price(lambda v: 1.0, rebate, 2.0, 0.0, 100.0,
                                         market, mc, 139.0)
        ratio = ses[2000] / ses[20000]
        assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0), f"ratio {ratio:.3f}"

    def test_start_at_or_below_barrier_rejected(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        mc = McSpec(n_paths=1000, n_steps=50)
        for v0 in (100.0, 60.0):
            with pytest.raises(DomainError):
                mc_barrier_price(lambda v: 1.0, lambda t: 0.0, 2.0, 0.0, 100.0,
                                 market, mc, v0)

    def test_bridge_correction_lowers_survival(self, bond, market):
        """Discrete monitoring misses intra-step crossings; the bridge
        correction must push the survival estimate down."""
        kw = dict(n_paths=20_000, n_steps=50, seed=11)
        naive = mc_barrier_price(lambda v: 1.0, lambda t: 0.0, bond.T, bond.a,
                                 bond.b, market, McSpec(bridge_correction=False, **kw),
                                 139.0)[0]
        bridged = mc_barrier_price(lambda v: 1.0, lambda t: 0.0, bond.T, bond.a,
                                   bond.b, market, McSpec(bridge_correction=True, **kw),
                                   139.0)[0]
        assert bridged < naive

    @pytest.mark.parametrize("case, bridge", sorted(_MC_PINS))
    def test_pinned_bits(self, case, bridge):
        """The estimate and SE to the bit. 20 000 paths fill one 16 384-path
        chunk and part of a second; no floating-point warning escapes."""
        mc = McSpec(n_paths=20_000, n_steps=64, seed=5, bridge_correction=bridge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = _MC_PIN_RUNS[case](mc)
        assert (mean.hex(), se.hex()) == _MC_PINS[case, bridge]


    @pytest.mark.parametrize("case, bridge", sorted(_MC_CHUNKED_PINS))
    def test_pinned_bits_over_three_chunks(self, case, bridge):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5, bridge_correction=bridge)
        mean, se = _MC_PIN_RUNS[case](mc)
        assert (mean.hex(), se.hex()) == _MC_CHUNKED_PINS[case, bridge]

    @pytest.mark.parametrize("config, bridge", sorted(_MC_SHARED_PINS))
    def test_shared_pass_pinned_bits(self, config, bridge):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5, bridge_correction=bridge)
        assert _hexes(_shared_pass(config, mc)) == _MC_SHARED_PINS[config, bridge]

    @pytest.mark.parametrize("config, bridge", sorted(_MC_SHARED_PINS))
    def test_shared_pass_equals_separate_runs(self, config, bridge):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5, bridge_correction=bridge)
        market = _SHARED_CONFIGS[config][0]
        alone = [mc_barrier_price(payoff, rebate, T, a, b, market, mc, 199.0,
                                  barrier_anchor=anchor)
                 for payoff, rebate, T, a, b, anchor in _shared_claims(config)]
        assert _hexes(_shared_pass(config, mc)) == _hexes(alone)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_pinned_bits_on_one_cpu(self):
        """The same bits from a process that may run on one CPU only, where
        the thread drawing normals ahead and this one take turns, and from
        one whose OpenBLAS runs one thread."""
        def run(**kwargs):
            script = (
                "from credit_pricer import McSpec\n"
                "from test_oracles import _MC_PIN_RUNS as runs, _hexes, _shared_pass\n"
                "def mc(bridge):\n"
                "    return McSpec(n_paths=40_001, n_steps=50, seed=5, bridge_correction=bridge)\n"
                "for case, bridge in " + repr(sorted(_MC_CHUNKED_PINS)) + ":\n"
                "    print(case, bridge, *_hexes([runs[case](mc(bridge))])[0])\n"
                "for config, bridge in " + repr(sorted(_MC_SHARED_PINS)) + ":\n"
                "    print(config, bridge, *sum(_hexes(_shared_pass(config, mc(bridge))), ()))\n")
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       **kwargs.pop("env", {}))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True, timeout=120, **kwargs).stdout
            return {(case, bridge == "True"): tuple(hexes)
                    for case, bridge, *hexes in (line.split() for line in out.splitlines())}

        expected = dict(_MC_CHUNKED_PINS)
        expected.update((key, sum(pins, ())) for key, pins in _MC_SHARED_PINS.items())
        cpu = min(os.sched_getaffinity(0))
        one_cpu = run(preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        one_blas_thread = run(env={"OPENBLAS_NUM_THREADS": "1"})
        assert one_cpu == expected
        assert one_blas_thread == expected

    def test_raising_payoff_leaves_no_thread(self):
        """An exception from the payoff in the second chunk, while the third
        chunk's normals are being drawn, propagates unchanged, and the
        thread that drew them has ended."""
        class Boom(Exception):
            pass

        calls = 0

        def payoff(v):
            nonlocal calls
            calls += 1
            if calls > 20_000:
                raise Boom(calls)
            return 1.0

        before = threading.active_count()
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        with pytest.raises(Boom):
            mc_barrier_price(payoff, lambda t: 0.0, 2.0, 0.0, 1e-9, _REF_MARKET, mc, 139.0)
        assert threading.active_count() == before


    def test_raising_composite_leaves_bond_claim_and_no_thread(self):
        """A composite payoff that raises in the second chunk fills its own
        slot with the exception; the bond claim runs on to its pinned bits,
        and the thread that drew the normals has ended."""
        class Boom(Exception):
            pass

        calls = 0

        def raising(payoff):
            def wrapped(v):
                nonlocal calls
                calls += 1
                # the first chunk pays 12 965 payoffs here, the first two
                # 25 923
                if calls > 20_000:
                    raise Boom(calls)
                return payoff(v)
            return wrapped

        before = threading.active_count()
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        bond_claim, composite = _shared_pass("reference", mc, raising)
        assert isinstance(composite, Boom) and composite.args == (20_001,)
        assert _hexes([bond_claim]) == _MC_SHARED_PINS["reference", True][:1]
        assert threading.active_count() == before


class TestMcChecks:
    """verify's MC checks: the bond and the composite on one shared pass."""

    _MC = McSpec(n_paths=2000, n_steps=50, seed=5)

    def test_bond_check_alone_without_option(self, bond, market):
        checks = mc_checks(bond, market, None, 199.0, self._MC)
        assert [check.name for check in checks] == ["mc_bond_within_3se"]

    def test_call_runs_the_callable_check(self):
        """A call's composite is the callable bond, paid min(B, E) at T1: each
        check measures its pinned estimate's gap in SEs, to the bit."""
        market, bond, option, _ = _SHARED_CONFIGS["moving_call"]
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        checks = mc_checks(bond, market, option, 199.0, mc)
        assert [check.name for check in checks] == ["mc_bond_within_3se",
                                                    "mc_callable_within_3se"]
        closed = [bond_price(199.0, 0.0, bond, market),
                  callable_bond_price(199.0, 0.0, bond, option, market)]
        for check, cf, (mean, se) in zip(checks, closed, _MC_SHARED_PINS["moving_call", True]):
            assert check.measured == abs(float.fromhex(mean) - cf) / float.fromhex(se)

    def test_failing_composite_payoff_fails_only_its_check(self, bond, market, put_spec,
                                                           monkeypatch):
        (bond_alone,) = mc_checks(bond, market, None, 199.0, self._MC)
        failing_at_t1 = _bond_price_raising_at(put_spec.T1, NumericalError("no price at T1"))
        monkeypatch.setattr("credit_pricer.verification.bond_price", failing_at_t1)
        bond_check, puttable_check = mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert bond_check == bond_alone
        assert puttable_check.name == "mc_puttable_within_3se"
        assert puttable_check.error == "no price at T1" and not puttable_check.ok

    def test_other_payoff_exception_propagates(self, bond, market, put_spec, monkeypatch):
        failing_at_t1 = _bond_price_raising_at(put_spec.T1, RuntimeError("not numerical"))
        monkeypatch.setattr("credit_pricer.verification.bond_price", failing_at_t1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="not numerical"):
            mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert threading.active_count() == before


def _bond_price_raising_at(t_fail, exc):
    """bond_price, except that it raises exc at time t_fail."""
    def price(v, t, *args):
        if t == t_fail:
            raise exc
        return bond_price(v, t, *args)

    return price


class TestStreamSplit:
    """After a chunk's normals, the Philox state yields the chunk's uniforms,
    and skipping their words yields the next chunk's normals: the numbers of
    one sequential Generator, from every position in Philox's 4-word
    buffer."""

    @pytest.mark.parametrize("buffer_pos", range(5))
    def test_matches_one_sequential_stream(self, buffer_pos):
        rng = random.Random(buffer_pos)
        for _ in range(6):
            seed, m, n_steps = rng.randrange(2**64), rng.randint(1, 40), rng.randint(1, 300)
            bits = np.random.Philox(seed)
            bits.random_raw(rng.randrange(64) * 4 + 4)  # a filled buffer
            state = bits.state
            state["buffer_pos"] = buffer_pos
            sequential = np.random.Philox(seed)
            sequential.state = state
            sequential = np.random.Generator(sequential)
            uniforms, normals = sequential.random((m, n_steps)), sequential.standard_normal(99)

            bits.state = state
            bits.random_raw(m * n_steps, output=False)
            snapshot = np.random.Philox(seed)
            snapshot.state = state
            assert np.array_equal(np.random.Generator(snapshot).random((m, n_steps)), uniforms)
            assert np.array_equal(np.random.Generator(bits).standard_normal(99), normals)


class TestBridgeCrossing:
    """The bridge crossing decision against u < exp(exponent), which it
    must equal to the bit for any uniform Generator.random() can return."""

    def test_zero_uniform_keeps_its_exp(self):
        exponent = np.array([-39.0, -41.0, -744.0, -746.0, -math.inf, 0.0, math.nan])
        crossed = _bridge_crossed(np.zeros_like(exponent), exponent)
        assert crossed.tolist() == [True, True, True, False, False, True, False]

    def test_smallest_nonzero_uniform(self):
        # 2^-53 lies between e^-37 and e^-36
        exponent = np.array([-36.0, -37.0, -39.0, -41.0, -746.0])
        crossed = _bridge_crossed(np.full_like(exponent, 2.0**-53), exponent)
        assert crossed.tolist() == [True, False, False, False, False]

    def test_matches_exp_everywhere(self):
        rng = np.random.Generator(np.random.Philox(11))
        u = rng.random((64, 257))
        u[::7, ::5] = 0.0
        u[1::9] = 2.0**-53
        exponent = -np.exp(rng.uniform(-5.0, 7.0, u.shape))  # -0.007 to about -1100
        exponent[::11] *= -1.0
        special = exponent[2::13, ::3]
        special[...] = rng.choice([math.inf, -math.inf, math.nan, -40.0], special.shape)
        with np.errstate(over="ignore"):
            expected = u < np.exp(exponent)
            crossed = _bridge_crossed(u, exponent)
        assert np.array_equal(crossed, expected)


class TestQuadrature:
    def test_discounted_unit_payoff(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=0.0,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        got = quadrature_green(2.0, 1.5, params, market)
        assert got == pytest.approx(math.exp(-0.06), rel=1e-12)

    def test_far_strike_empty_range(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1e15,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        assert quadrature_green(1.0, 1.0, params, market) == 0.0

    def test_pinned_bits(self):
        rng = random.Random(2021)
        hexes = []
        for _ in range(200):
            X, tau, params, market = draw_verification_case(rng)
            hexes.append(quadrature_green(X, tau, params, market).hex())
        assert hashlib.sha256(" ".join(hexes).encode()).hexdigest() == _QUADRATURE_PIN

    def test_zero_clock_step_rejected_like_closed_form(self):
        # i = 0 with tau3 = 0 leaves the composed variance clock at 0
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=1.0, K=0.0,
                                   tau1=0.0, tau2=0.0, tau3=0.0)
        with pytest.raises(DomainError) as closed_form:
            power_binary_price(1.0, 0.0, 1.0, params, market)
        with pytest.raises(DomainError) as quadrature:
            quadrature_green(1.0, 1.0, params, market)
        assert str(quadrature.value) == str(closed_form.value)

    def test_plain_binary_at_zero_clock_priced_like_quadrature(self):
        # L = 0 drops the Phi factor, so the zero clock of i = 0, tau3 = 0
        # plays no part: a plain cash binary
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1.0,
                                   tau1=0.0, tau2=0.0, tau3=0.0)
        qd = quadrature_green(1.0, 1.0, params, market)
        assert qd == pytest.approx(0.4155463020264771, rel=1e-12)
        assert power_binary_price(1.0, 0.0, 1.0, params, market) == pytest.approx(qd, rel=1e-10)

    @pytest.mark.parametrize("direction", list(IndicatorDirection))
    @pytest.mark.parametrize("i", [1.0, -1.0, 2.0, 0.5])
    def test_folded_step_priced_like_closed_form(self, i, direction):
        # tau3 = 0 makes the Phi factor a step in z, folded into the range:
        # a lower bound for i > 0, an upper one for i < 0
        market = MarketParams(r=0.04, q=0.01, sigma=0.3)
        params = PowerBinaryParams(beta=0.5, i=i, L=1.1, K=0.9, tau1=0.3, tau2=0.1,
                                   tau3=0.0, direction=direction)
        cf = power_binary_price(1.0, 0.0, 1.0, params, market)
        assert quadrature_green(1.0, 1.0, params, market) == pytest.approx(cf, abs=1e-12)

    def test_zero_strike_below_is_worthless(self):
        market = MarketParams(r=0.04, q=0.01, sigma=0.3)
        params = PowerBinaryParams(beta=0.5, i=1.0, L=1.1, K=0.0, tau1=0.3, tau2=0.1,
                                   tau3=0.0, direction=IndicatorDirection.BELOW)
        assert quadrature_green(1.0, 1.0, params, market) == 0.0
        assert power_binary_price(1.0, 0.0, 1.0, params, market) == 0.0

    def test_underflowing_strike_ratio(self):
        # K / X underflows to 0, yet ln K - ln X is finite
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1e-300,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        cf = power_binary_price(1e300, 0.0, 1.0, params, market)
        assert cf == pytest.approx(math.exp(-0.04), rel=1e-15)
        assert quadrature_green(1e300, 1.0, params, market) == pytest.approx(cf, abs=1e-6)

    def test_randomized_agreement(self):
        rng = random.Random(55)
        for _ in range(10):
            X, tau, params, market = draw_verification_case(rng)
            cf = power_binary_price(X, 0.0, tau, params, market)
            qd = quadrature_green(X, tau, params, market)
            assert cf == pytest.approx(qd, rel=1e-6)


class TestThreeWayBondAgreement:
    """All oracles against the closed-form bond at the reference parameters,
    each at its own tolerance."""

    def test_pde(self, bond, market):
        g = GridSpec(n_space=401, n_time=400)
        c = market.r - market.q - bond.a
        s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                           c=c, sigma=market.sigma, r_discount=0.0,
                           T=bond.T, grid=g)
        for v in (139.0, 199.0, 300.0):
            x = v / barrier_level(bond, 0.0)
            pde_bond = math.exp(-market.r * bond.T) * (
                bond.R + (1.0 - bond.R) * s.value(x, 0.0))
            assert pde_bond == pytest.approx(bond_price(v, 0.0, bond, market), rel=1e-3)

    def test_mc(self, bond, market):
        mc = McSpec(n_paths=20_000, n_steps=100, seed=17)
        rebate = lambda t: bond.R * math.exp(-market.r * (bond.T - t))
        mean, se = mc_barrier_price(lambda v: 1.0, rebate, bond.T, bond.a,
                                    bond.b, market, mc, 139.0)
        cf = bond_price(139.0, 0.0, bond, market)
        assert abs(mean - cf) <= 3.0 * se, f"MC {mean:.6f} +- {se:.6f} vs {cf:.6f}"

    def test_quadrature(self, bond, market):
        """The survival weight through the integral oracle: image of the
        quadrature-priced cash binary under the zero-rate carry-c market."""
        c = market.r - market.q - bond.a
        flat = MarketParams(r=0.0, q=-c, sigma=market.sigma)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1.0,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        gamma = 1.0 - 2.0 * c / (market.sigma * market.sigma)
        for v in (139.0, 199.0, 300.0):
            x = v / barrier_level(bond, 0.0)
            q_plus = quadrature_green(x, bond.T, params, flat)
            q_image = quadrature_green(1.0 / x, bond.T, params, flat)
            w_quad = q_plus - x ** gamma * q_image
            w_cf = survival_probability(v, 0.0, bond, market)
            assert w_quad == pytest.approx(w_cf, abs=1e-8)
