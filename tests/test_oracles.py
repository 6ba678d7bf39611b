"""Tests for the three independent verifiers: the theta-scheme PDE solver,
the barrier-monitored Monte Carlo simulator, and the adaptive quadrature of
the lognormal transition integral."""

import collections
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
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
    PricerError,
    barrier_level,
    bond_option_price,
    bond_price,
    bond_prices,
    callable_bond_price,
    credit_instruments,
    draw_verification_case,
    early_redemption_boundary,
    mc_barrier_price,
    norm_cdf,
    oracles,
    pde_solve_tbvp,
    power_binary_price,
    puttable_bond_price,
    quadrature_green,
    survival_probability,
    tbvp_w,
    verification,
)
from credit_pricer.cli import load_config
from credit_pricer.oracles import _bridge_crossed
from credit_pricer.verification import mc_checks, pde_checks, pde_surfaces
from helpers import forget_shared_work

_REF_MARKET = MarketParams(r=0.04, q=0.0, sigma=0.5)
_LOW_VOL = MarketParams(r=0.04, q=0.0, sigma=0.05)
_FLAT = BondSpec(T=2.0, a=0.0, b=100.0, R=0.7)
_MOVING = BondSpec(T=2.0, a=0.05, b=100.0, R=0.7)


def _recovery(bond):
    return lambda t: bond.R * math.exp(-_REF_MARKET.r * (bond.T - t))


# One Monte Carlo run per case, given its McSpec: the slot of its one claim.
_MC_PIN_RUNS = {
    "flat_bond": lambda mc: mc_barrier_price(
        [(lambda v: 1.0, _recovery(_FLAT), 2.0)], (0.0, 100.0, 2.0), _REF_MARKET, mc,
        139.0)[0],
    # option horizon T1 = 1 against the bond's moving barrier, anchored at T = 2
    "moving_composite": lambda mc: mc_barrier_price(
        [(lambda v: bond_prices(v, 1.0, _MOVING, _REF_MARKET).clip(min=0.9),
          _recovery(_MOVING), 1.0)], (0.05, 100.0, 2.0), _REF_MARKET, mc, 139.0)[0],
    # most paths die at the first step
    "near_barrier": lambda mc: mc_barrier_price(
        [(lambda v: 1.0, _recovery(_FLAT), 2.0)], (0.0, 100.0, 2.0), _REF_MARKET, mc,
        1.0001 * 100.0)[0],
    # no path hits
    "unreachable": lambda mc: mc_barrier_price(
        [(lambda v: v.clip(max=200.0) / 100.0, lambda t: 0.0, 2.0)], (0.0, 1e-9, 2.0),
        _REF_MARKET, mc, 139.0)[0],
    # bridge exponents on both sides of the -40 cut, some below exp's
    # underflow at about -745
    "low_vol_near": lambda mc: mc_barrier_price(
        [(lambda v: 1.0, _recovery(_FLAT), 2.0)], (0.0, 100.0, 2.0), _LOW_VOL, mc,
        1.02 * 100.0)[0],
    # every bridge exponent below -745
    "low_vol_far": lambda mc: mc_barrier_price(
        [(lambda v: v / 1e6, _recovery(_FLAT), 2.0)], (0.0, 100.0, 2.0), _LOW_VOL, mc,
        1e4 * 100.0)[0],
}

# (estimate, SE) as float.hex per case, at 20 000 paths x 64 steps, seed 5:
# the control-variate estimate and its residual SE, re-recorded when the
# stream became SFC64 (the layout, block by block, unchanged). The streamed
# sums agree with exact rational arithmetic on the same path values
# (test_streamed_sums_match_exact_arithmetic).
_MC_PINS = {
    "flat_bond": ("0x1.739178a4384abp-1", "0x1.825072acc4742p-11"),
    # the composite steps anchor / n_steps: T/64 to T1
    "moving_composite": ("0x1.878a4a68cfc48p-1", "0x1.23b1e7d3112fap-11"),
    "near_barrier": ("0x1.4ada1c1321871p-1", "0x1.d09c1713d46eep-17"),
    "unreachable": ("0x1.2312066c23f58p+0", "0x1.4db979fcb4a5fp-10"),
    "low_vol_near": ("0x1.8f8a84eeeac57p-1", "0x1.ec63f60f8e961p-11"),
    "low_vol_far": ("0x1.0004a8f876873p+0", "0x1.b838eb713ce1ap-12"),
}



def _capped_at(V0, cap, market, tau):
    """Black-Scholes value of min(V_tau, cap): the forward less a call."""
    sd = market.sigma * math.sqrt(tau)
    d1 = (math.log(V0 / cap) + (market.r - market.q) * tau) / sd + 0.5 * sd
    forward = V0 * math.exp(-market.q * tau)
    return forward * (1.0 - norm_cdf(d1)) + cap * math.exp(-market.r * tau) * norm_cdf(d1 - sd)


# The closed-form value of each case's claim at t = 0.
_MC_PIN_CLOSED_FORMS = {
    "flat_bond": lambda: bond_price(139.0, 0.0, _FLAT, _REF_MARKET),
    "moving_composite": lambda: puttable_bond_price(
        139.0, 0.0, _MOVING, OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT), _REF_MARKET),
    "near_barrier": lambda: bond_price(1.0001 * 100.0, 0.0, _FLAT, _REF_MARKET),
    "unreachable": lambda: _capped_at(139.0, 200.0, _REF_MARKET, 2.0) / 100.0,
    "low_vol_near": lambda: bond_price(1.02 * 100.0, 0.0, _FLAT, _LOW_VOL),
    "low_vol_far": lambda: 1e4 * 100.0 * math.exp(-_LOW_VOL.q * 2.0) / 1e6,
}

# (estimate, SE) as float.hex at 40 001 paths x 50 steps, seed 5: 39 full
# 1024-path blocks and a partial fortieth of 65 paths, each block's draws
# made while the block before is processed. Re-recorded as in _MC_PINS.
_MC_BLOCKED_PINS = {
    "flat_bond": ("0x1.74615a7d57895p-1", "0x1.10942c84bf192p-11"),
    # T/50 to T1
    "moving_composite": ("0x1.878148238e444p-1", "0x1.a05dc354ca204p-12"),
}

# The two claims of verify's MC checks on one shared pass, for the default
# config (a put) and perfbench's moving-call config: (market, bond, option,
# the bound that clips B(V, T1) to the exercise value), V0 = 199.
_SHARED_CONFIGS = {
    "reference": (_REF_MARKET, _FLAT, OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT), "min"),
    "moving_call": (MarketParams(r=0.03, q=0.02, sigma=0.35),
                    BondSpec(T=3.0, a=0.05, b=100.0, R=0.4),
                    OptionSpec(T1=1.5, E=0.8, kind=OptionKind.CALL), "max"),
}


def _shared_claims(config, composite_payoff=None):
    """The bond claim and the composite claim of a config; composite_payoff
    wraps the composite's payoff when given."""
    market, bond, option, bound = _SHARED_CONFIGS[config]

    def payoff(v):
        return bond_prices(v, option.T1, bond, market).clip(**{bound: option.E})

    rebate = lambda t: bond.R * math.exp(-market.r * (bond.T - t))
    return [(lambda v: 1.0, rebate, bond.T),
            (composite_payoff(payoff) if composite_payoff else payoff, rebate, option.T1)]


def _shared_barrier(config):
    bond = _SHARED_CONFIGS[config][1]
    return bond.a, bond.b, bond.T


def _shared_pass(config, mc, composite_payoff=None):
    return mc_barrier_price(_shared_claims(config, composite_payoff), _shared_barrier(config),
                            _SHARED_CONFIGS[config][0], mc, 199.0)


# ((estimate, SE) of the bond claim, the same of the composite claim) as
# float.hex per config, at 40 001 paths x 50 steps,
# seed 5: 40 blocks, the last one partial. The composite reads the bond
# claim's paths in steps of T/50 up to T1; both were re-recorded as in
# _MC_PINS.
_MC_SHARED_PINS = {
    "reference": (("0x1.9e4874d3cc9d9p-1", "0x1.c844636daf00cp-12"),
                  ("0x1.ab449770e1faep-1", "0x1.3108fbeca17e2p-12")),
    "moving_call": (("0x1.7d838ea162147p-1", "0x1.9013713a71deap-11"),
                    ("0x1.5eb747f2b6c51p-1", "0x1.0fc90d471e790p-12")),
}


def _hexes(outcomes):
    return tuple((mean.hex(), se.hex()) for mean, se in outcomes)


# sha256 of each PdeSurface.values (float64, little-endian) of the reference
# bond, put and call on the default 801 x 800 grid. The bond's and the
# survival's interior was recorded from the solver that rebuilt its banded
# matrix at every time step; the put's and the call's from terminal data
# read off the PDE bond surface at T1. The bond's, the survival's and the
# put's digests were re-recorded when the barrier node of the terminal row
# took the lower boundary's value, the only element that moved.
_PDE_PINS = {
    "bond": "0d93c0061e80131c1c071bac2242e4876f2f51a067d5eb633be4c5a6080d3515",
    "survival": "5fbc3226ae4f75e12417b7887c64007b6e363a9bb55eb251f5b226e01e159f97",
    "put": "a3acfa77a1e149414790b46c538ba648dab0990a96896d1ee75ed6ce488c861b",
    "call": "68419963a03f5b917efb66836e18ac1a330e2b03535d06352c3970d44e81d3d1",
}

# The same digests on two coarse grids, where the two Rannacher steps are a
# larger share of the march. The bond's and the survival's interior was
# recorded at 101 x 50 from the solver that wrote the Rannacher half-steps
# out apart from the main step, and at 201 x 150 from the solver that still
# offered implicit Euler beside Crank-Nicolson; the put's and the call's, and
# the barrier node of the terminal row, as on the default grid.
_PDE_COARSE_PINS = {
    (101, 50): {
        "bond": "3fad86309a76f285f16742dd7d3b845e2a2a2797eba80c185b5571a6e9adca6b",
        "survival": "a61cd0428ed251fd6ae3caeed093283a6bd7fba37097015f53d412445b7aa0c3",
        "put": "5df4a9574439b911bee0e3e273f91b53c69da24afcfe98376dedb7b113a785e9",
        "call": "c5e4ecea78974e3cdd0469eca22beef1cf3b64dc5f558011a3e02ca5bd22d92b",
    },
    (201, 150): {
        "bond": "d6d3de6da8ea46562d68e89c43f95629caf043e29abe8e256cd2bd31e4e2dfc1",
        "survival": "0f983aa3c821a31305c508932d77f3b9388b4e61180fe3b582233b51452b7486",
        "put": "1138105ed7536b898c15d29d37aae84c6c0ebc1aa73f0375ea35f0c88a18a39d",
        "call": "2d3f8b4e69eb2d267b84e3998d6b17506b49194d744165ad241c422c0d1eb883",
    },
}

# sha256 of the space-joined float.hex of quadrature_green over the first 200
# draw_verification_case draws of random.Random(2021).
_QUADRATURE_PIN = "5792a9793fd136ff27b8c5e06d150d43e15aa0f6c8b7e88108e8f229d2a55b36"


def _surface_digests(surfaces):
    return {name: hashlib.sha256(surfaces[name].values.astype("<f8").tobytes()).hexdigest()
            for name in ("bond", "survival", "put", "call")}


def _counted_boundary_solves(monkeypatch):
    """The (bond, option, market) of each early redemption boundary solve
    from here on, with the work shared between prices forgotten."""
    calls = []

    def counted(*args):
        calls.append(args)
        return early_redemption_boundary(*args)

    monkeypatch.setattr(credit_instruments, "early_redemption_boundary", counted)
    forget_shared_work()
    return calls


class TestGridSpecValidation:
    def test_floors(self):
        with pytest.raises(InvalidParamsError):
            GridSpec(n_space=49, n_time=100)
        with pytest.raises(InvalidParamsError):
            GridSpec(n_space=100, n_time=49)
        with pytest.raises(InvalidParamsError, match="n_space must be an integer, got 100.5"):
            GridSpec(n_space=100.5)
        with pytest.raises(InvalidParamsError, match="n_time must be an integer, got 100.0"):
            GridSpec(n_time=100.0)

    def test_defaults(self):
        g = GridSpec()
        assert g.n_space == 801 and g.n_time == 800


class TestMcSpecValidation:
    def test_floors(self):
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=999, n_steps=100)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=10_000, n_steps=49)
        with pytest.raises(InvalidParamsError, match="n_paths must be an integer, got 1000.5"):
            McSpec(n_paths=1000.5)
        with pytest.raises(InvalidParamsError, match="n_steps must be an integer, got '64'"):
            McSpec(n_steps="64")

    def test_seed_range(self):
        McSpec(n_paths=1000, n_steps=50, seed=2**64 - 1)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=1000, n_steps=50, seed=2**64)
        with pytest.raises(InvalidParamsError):
            McSpec(n_paths=1000, n_steps=50, seed=-1)
        with pytest.raises(InvalidParamsError, match="seed must be an integer, got 1.5"):
            McSpec(n_paths=1000, n_steps=50, seed=1.5)

    def test_defaults(self):
        """McSpec holds the one default path and step count; the CLI's
        default config reads them."""
        assert McSpec() == McSpec(n_paths=45_000, n_steps=200, seed=0)
        assert load_config(None).mc == McSpec(seed=1729)


def _capped_growth_reference(r, q, sigma, H):
    """E[min(V_H / V0, 1)] at 30 digits, from the formula and from
    quadrature of min(e^{m + s z}, 1) against the normal density, split at
    the kink; the two must agree to 25 digits."""
    with mpmath.workdps(30):
        r, q, sigma, H = map(mpmath.mpf, (r, q, sigma, H))
        s = sigma * mpmath.sqrt(H)
        d1 = ((r - q) * H + s * s / 2) / s
        formula = mpmath.exp((r - q) * H) * mpmath.ncdf(-d1) + mpmath.ncdf(d1 - s)
        m = (r - q - sigma * sigma / 2) * H
        kink = -m / s
        integral = (mpmath.quad(lambda z: mpmath.exp(m + s * z) * mpmath.npdf(z),
                                [-mpmath.inf, kink])
                    + mpmath.ncdf(-kink))
        assert abs(formula - integral) <= mpmath.mpf(10) ** -25 * formula
        return formula


class TestControlMean:
    """The exact mean of each claim's control against mpmath."""

    @pytest.mark.parametrize("r, q", [(0.04, 0.0), (0.0, 0.03), (0.01, 0.2), (-0.02, 0.05),
                                      (0.3, 0.0)])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("H", [1e-3, 0.1, 1.0, 5.0])
    def test_matches_30_digits(self, r, q, sigma, H):
        got = oracles._capped_growth(MarketParams(r=r, q=q, sigma=sigma), H)
        exact = _capped_growth_reference(r, q, sigma, H)
        assert math.isfinite(got)
        assert abs(got - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("r, q", [(140.0, 0.0), (0.0, -140.0), (70.0, -70.0)])
    def test_growth_near_the_float_range(self, r, q):
        """(r - q) H = 700 at H = 5: e^{(r-q)H} is near the largest float, and
        N(-d1) underflows, so the first term reads 0 and the mean is N(d2)."""
        market = MarketParams(r=r, q=q, sigma=1.5)
        got = oracles._capped_growth(market, 5.0)
        assert math.isfinite(got)
        exact = _capped_growth_reference(r, q, 1.5, 5.0)
        assert abs(got - exact) <= 1e-13 * exact


class TestPdeSolver:
    def test_zero_data_gives_zero_surface(self):
        g = GridSpec(n_space=101, n_time=100)
        s = pde_solve_tbvp(payoff=lambda x: 0.0, boundary_value=lambda t: 0.0,
                           c=0.1, sigma=0.4, r_discount=0.05, T=1.0, grid=g)
        for x in (1.0, 1.5, 4.0, 20.0):
            for t in (0.0, 0.5, 1.0):
                assert s.value(x, t) == 0.0

    def test_second_order_convergence(self):
        """Richardson measurement on the survival problem with the probe on
        a grid node (the coarsest grid's node nearest x = 1.5, which each
        halving keeps); both halvings should show order near 2 and each
        halving should cut the error by at least a factor 3."""
        c, sigma, T = 0.04, 0.5, 1.0
        errors, probe = [], None
        for n in (100, 200, 400):
            g = GridSpec(n_space=n + 1, n_time=n)
            s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                               c=c, sigma=sigma, r_discount=0.0, T=T, grid=g)
            if probe is None:
                probe = float(s.x[np.abs(s.x - 1.5).argmin()])
                exact = tbvp_w(probe, 0.0, c, sigma, T)
            errors.append(abs(s.value(probe, 0.0) - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.7 <= order <= 2.3, f"observed orders {orders}"
        for e_coarse, e_fine in zip(errors, errors[1:]):
            assert e_coarse / e_fine >= 3.0

    def test_discounted_far_field(self):
        # payoff 1 under discounting: far from the barrier the solution is
        # the discount factor itself
        g = GridSpec(n_space=201, n_time=200)
        r = 0.05
        s = pde_solve_tbvp(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0,
                           c=0.03, sigma=0.4, r_discount=r, T=2.0, grid=g)
        assert s.value(25.0, 0.0) == pytest.approx(math.exp(-2.0 * r), rel=1e-6)

    def test_rannacher_start_keeps_a_digital_monotone(self):
        """A cash digital at x = 2 on a grid whose time step is 160 times
        its diffusive one: plain Crank-Nicolson rings at the jump (rows fall
        by up to 0.45 between nodes), while the implicit half-steps leave
        every row nondecreasing in x to rounding."""
        g = GridSpec(n_space=401, n_time=50)
        s = pde_solve_tbvp(payoff=lambda x: 1.0 if x > 2.0 else 0.0,
                           boundary_value=lambda t: 0.0, c=0.04, sigma=0.5,
                           r_discount=0.0, T=1.0, grid=g)
        assert np.diff(s.values, axis=1).min() >= -1e-12

    def test_nonfinite_payoff_rejected(self):
        g = GridSpec(n_space=101, n_time=100)
        with pytest.raises(InvalidParamsError):
            pde_solve_tbvp(payoff=lambda x: math.inf if x > 5.0 else 1.0,
                           boundary_value=lambda t: 0.0,
                           c=0.04, sigma=0.5, r_discount=0.0, T=1.0, grid=g)

    @pytest.mark.parametrize("change, message", [
        (dict(sigma=0.0), "sigma must be positive, got 0.0"),
        (dict(sigma=math.inf), "sigma must be positive, got inf"),
        (dict(T=-1.0), "T must be positive, got -1.0"),
        (dict(T=math.nan), "T must be positive, got nan"),
        (dict(c=math.nan), "c and r_discount must be finite"),
        (dict(r_discount=-math.inf), "c and r_discount must be finite"),
    ], ids=["sigma_zero", "sigma_inf", "T_negative", "T_nan", "c_nan", "r_discount_inf"])
    def test_invalid_problem_rejected(self, change, message):
        problem = dict(payoff=lambda x: 1.0, boundary_value=lambda t: 0.0, c=0.04,
                       sigma=0.5, r_discount=0.0, T=1.0, grid=GridSpec(n_space=101, n_time=100))
        with pytest.raises(InvalidParamsError) as info:
            pde_solve_tbvp(**{**problem, **change})
        assert str(info.value) == message

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

    def test_surfaces_are_solved_when_called(self, bond, market, put_spec):
        """pde_surfaces returns a plain dict, and a solve that fails raises
        from the call itself."""
        grid = GridSpec(n_space=101, n_time=100)
        surfaces = pde_surfaces(bond, market, put_spec, grid)
        assert type(surfaces) is dict and list(surfaces) == ["bond", "survival", "put", "call"]
        wild = MarketParams(r=0.04, q=0.0, sigma=1e200)
        with pytest.raises(NumericalError) as info:
            pde_surfaces(bond, wild, put_spec, grid)
        assert str(info.value) == "finite-difference coefficients leave the float range"

    def test_surfaces_call_no_closed_form(self, bond, market, put_spec, monkeypatch):
        """The put and call start from the PDE bond at T1, so the surfaces
        are solved with verification's closed-form option, bond (scalar and
        array), survival and barrier level made to raise."""
        def closed_form(*args):
            raise AssertionError("pde_surfaces called a closed form")

        for name in ("bond_option_price", "bond_price", "bond_prices", "survival_probability",
                     "barrier_level"):
            monkeypatch.setattr(verification, name, closed_form)
        surfaces = pde_surfaces(bond, market, put_spec, GridSpec(n_space=101, n_time=100))
        assert list(surfaces) == ["bond", "survival", "put", "call"]

    def test_put_minus_call_starts_from_the_pde_bond(self, bond, market, put_spec):
        """On the reference put the put/call grid is the bond's and T1 a node
        of its time grid, so at T1 put - call = E - B_pde at every node above
        the barrier; on the barrier both are knocked out."""
        surfaces = pde_surfaces(bond, market, put_spec, GridSpec(n_space=101, n_time=100))
        bond_surface, put, call = surfaces["bond"], surfaces["put"], surfaces["call"]
        assert np.array_equal(put.x, bond_surface.x)
        (node,) = np.flatnonzero(bond_surface.t == put_spec.T1)
        np.testing.assert_allclose(put.values[-1, 1:] - call.values[-1, 1:],
                                   put_spec.E - bond_surface.values[node, 1:], rtol=0, atol=1e-15)
        assert put.values[-1, 0] == call.values[-1, 0] == 0.0

    def test_terminal_row_on_the_barrier_is_the_closed_forms(self, bond, market, put_spec,
                                                             call_spec):
        """Each surface's value on the barrier at its horizon is the closed
        form's terminal data there: bond R, survival 0, put and call 0."""
        surfaces = pde_surfaces(bond, market, put_spec, GridSpec(n_space=101, n_time=100))
        lvl_T, lvl_T1 = barrier_level(bond, bond.T), barrier_level(bond, put_spec.T1)
        closed_forms = {
            "bond": bond_price(lvl_T, bond.T, bond, market),
            "survival": survival_probability(lvl_T, bond.T, bond, market),
            "put": bond_option_price(lvl_T1, put_spec.T1, bond, put_spec, market),
            "call": bond_option_price(lvl_T1, put_spec.T1, bond, call_spec, market),
        }
        assert closed_forms == {"bond": bond.R, "survival": 0.0, "put": 0.0, "call": 0.0}
        for name, value in closed_forms.items():
            surface = surfaces[name]
            assert surface.value(1.0, surface.t[-1]) == value, name

    def test_pde_checks_solve_each_boundary_once(self, bond, market, put_spec, call_spec,
                                                 monkeypatch):
        """With the boundary cache cold, the put's and the call's closed forms
        each solve the early redemption boundary once, and the PDE oracle,
        whose grid takes nothing from the closed forms, never solves it."""
        calls = _counted_boundary_solves(monkeypatch)
        # counted too where verification holds its own reference to the solver
        monkeypatch.setattr(verification, "early_redemption_boundary",
                            credit_instruments.early_redemption_boundary, raising=False)
        pde_checks(bond, market, put_spec, GridSpec(n_space=101, n_time=100),
                   [139.0, 199.0, 300.0])
        assert calls == [(bond, put_spec, market), (bond, call_spec, market)]

    @pytest.mark.parametrize("n_space, n_time", list(_PDE_COARSE_PINS))
    def test_coarse_surfaces_pinned(self, bond, market, put_spec, n_space, n_time):
        grid = GridSpec(n_space=n_space, n_time=n_time)
        assert (_surface_digests(pde_surfaces(bond, market, put_spec, grid))
                == _PDE_COARSE_PINS[n_space, n_time])


class TestMcSimulator:
    def test_unreachable_barrier_prices_discount_bond(self, monkeypatch):
        """A constant payoff and no hits: every path value is the discount,
        so the cross products with the (varying) control are 0, beta is 0,
        and the estimate is the discount exactly, with SE 0."""
        claims, plain = [], oracles._Claim.result

        def result(claim):
            claims.append(claim)
            return plain(claim)

        monkeypatch.setattr(oracles._Claim, "result", result)
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        mc = McSpec(n_paths=20_000, n_steps=50, seed=3)
        ((mean, se),) = mc_barrier_price([(lambda v: 1.0, lambda t: 0.0, 2.0)],
                                         (0.0, 1e-9, 2.0), market, mc, 100.0)
        ((yy, xy, xx),) = [claim.sums for claim in claims]
        assert (yy, xy) == (0.0, 0.0) and xx > 0.0
        assert (mean, se) == (math.exp(-0.08), 0.0)

    def test_same_seed_bit_identical(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        mc = McSpec(n_paths=4000, n_steps=64, seed=99)
        args = ([(lambda v: (v - 100.0).clip(min=0.0), lambda t: 0.1, 2.0)], (0.0, 100.0, 2.0),
                market, mc, 139.0)
        first = mc_barrier_price(*args)
        second = mc_barrier_price(*args)
        assert first == second

    def test_payoff_takes_each_block_of_survivors_once(self, monkeypatch):
        """The payoff is called once per block in which some path survives
        to T, on exactly the firm values at T of that block's survivors, as
        one 1-D float64 array, and not for a block without survivors; one
        number returned for them all pays each survivor, to the bit, as the
        same number repeated does. From V0 = 101 about 1% of the paths
        survive the barrier at 100 to T = 2: here each full block of 1024
        has survivors, and the last block, one path, has none."""
        survivors, plain = [], oracles._Claim.values

        def values(claim, log_v0):
            survivors.append(np.exp(claim.logv_T[claim.first >= claim.cols]))
            return plain(claim, log_v0)

        monkeypatch.setattr(oracles._Claim, "values", values)
        calls = []

        def payoff(v):
            calls.append(v.copy())
            return 2.0

        args = ((0.0, 100.0, 2.0), _REF_MARKET, McSpec(n_paths=2049, n_steps=50, seed=5), 101.0)
        (scalar,) = mc_barrier_price([(payoff, lambda t: 0.5, 2.0)], *args)
        assert [len(v) > 0 for v in survivors] == [True, True, False]
        assert len(calls) == 2
        for v, alive in zip(calls, survivors):
            assert v.dtype == np.float64 and v.ndim == 1 and np.array_equal(v, alive)
        (repeated,) = mc_barrier_price([(lambda v: np.full(len(v), 2.0), lambda t: 0.5, 2.0)],
                                       *args)
        assert _hexes([scalar]) == _hexes([repeated])

    def test_seed_actually_matters(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        claims, barrier = [(lambda v: 1.0, lambda t: 0.0, 2.0)], (0.0, 100.0, 2.0)
        a = mc_barrier_price(claims, barrier, market, McSpec(n_paths=4000, n_steps=64, seed=1),
                             139.0)
        b = mc_barrier_price(claims, barrier, market, McSpec(n_paths=4000, n_steps=64, seed=2),
                             139.0)
        assert a != b

    def test_standard_error_scaling(self):
        """SE should fall like n^(-1/2): across a decade of paths the ratio
        stays within 20% of sqrt(10)."""
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        rebate = lambda t: 0.7 * math.exp(-0.04 * (2.0 - t))
        ses = {}
        for n in (2000, 20000):
            mc = McSpec(n_paths=n, n_steps=64, seed=7)
            ((_, ses[n]),) = mc_barrier_price([(lambda v: 1.0, rebate, 2.0)], (0.0, 100.0, 2.0),
                                              market, mc, 139.0)
        ratio = ses[2000] / ses[20000]
        assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0), f"ratio {ratio:.3f}"

    @pytest.mark.parametrize("V0, barrier", [
        (100.0, (0.0, 100.0, 2.0)),
        (60.0, (0.0, 100.0, 2.0)),
        # the log barrier at t = 0 is about 1491: its exp overflows a float
        (139.0, (-400.0, 1e300, 2.0)),
    ], ids=["at", "below", "barrier_beyond_float_range"])
    def test_start_at_or_below_barrier_rejected(self, V0, barrier):
        log_b0 = math.log(barrier[1]) - barrier[0] * barrier[2]
        with pytest.raises(DomainError) as info:
            mc_barrier_price([(lambda v: 1.0, lambda t: 0.0, 2.0)], barrier, _REF_MARKET,
                             McSpec(n_paths=1000, n_steps=50), V0)
        message = f"firm value {V0} at or below default barrier e^{log_b0} at t=0"
        assert str(info.value) == message

    @staticmethod
    def _rejected_before_any_draw(claims, barrier, market=_REF_MARKET):
        """The exception mc_barrier_price raises; no thread is left running."""
        before = threading.active_count()
        with pytest.raises(PricerError) as info:
            mc_barrier_price(claims, barrier, market, McSpec(n_paths=1000, n_steps=50), 139.0)
        assert threading.active_count() == before
        return info.value

    @pytest.mark.parametrize("change, message", [
        (dict(b=-1.0), "barrier level must be positive, got -1.0"),
        (dict(b=0.0), "barrier level must be positive, got 0.0"),
        (dict(b=math.nan), "barrier level must be positive, got nan"),
        (dict(a=math.inf), "barrier growth rate must be finite"),
        (dict(anchor=0.0), "barrier anchor must be positive, got 0.0"),
        (dict(anchor=-1.0), "barrier anchor must be positive, got -1.0"),
        (dict(anchor=math.nan), "barrier anchor must be positive, got nan"),
        (dict(anchor=math.inf), "barrier anchor must be positive, got inf"),
    ], ids=["b_negative", "b_zero", "b_nan", "a_inf", "anchor_zero", "anchor_negative",
            "anchor_nan", "anchor_inf"])
    def test_invalid_barrier_rejected(self, change, message):
        barrier = {**dict(a=0.0, b=100.0, anchor=2.0), **change}
        error = self._rejected_before_any_draw([(lambda v: 1.0, lambda t: 0.0, 1.0)],
                                               tuple(barrier.values()))
        assert isinstance(error, InvalidParamsError) and str(error) == message

    @pytest.mark.parametrize("T", [0.0, math.inf, 2.5], ids=["T_zero", "T_inf", "T_past_anchor"])
    def test_invalid_claim_rejected(self, T):
        """A claim's horizon lies in (0, anchor]; the first claim is valid."""
        claims = [(lambda v: 1.0, lambda t: 0.0, 1.0), (lambda v: 1.0, lambda t: 0.0, T)]
        error = self._rejected_before_any_draw(claims, (0.0, 100.0, 2.0))
        assert isinstance(error, InvalidParamsError)
        assert str(error) == f"horizon must be in (0, 2.0], got {T}"

    def test_overflowing_discount_rejected(self):
        """At r = -1000, e^{-r T} overflows a float for T = 2: a NumericalError
        before any draw, not a bare OverflowError."""
        error = self._rejected_before_any_draw([(lambda v: 1.0, lambda t: 0.7, 2.0)],
                                               (0.0, 100.0, 2.0),
                                               MarketParams(r=-1000.0, q=0.0, sigma=0.5))
        assert isinstance(error, NumericalError)
        assert str(error) == "discount factor to T=2.0 overflows a float"

    def test_no_claims_draw_nothing(self, monkeypatch):
        """No claims return [] once the barrier and V0 pass their checks,
        without a generator or a thread; an invalid barrier still raises."""
        monkeypatch.setattr(np.random, "SFC64", lambda seed: pytest.fail("a stream was made"))
        before = threading.active_count()
        mc = McSpec(n_paths=1000, n_steps=50)
        assert mc_barrier_price([], (0.0, 100.0, 2.0), _REF_MARKET, mc, 139.0) == []
        assert threading.active_count() == before
        with pytest.raises(DomainError):
            mc_barrier_price([], (0.0, 100.0, 2.0), _REF_MARKET, mc, 99.0)

    @pytest.mark.parametrize("a", [0.0, 0.05])
    @pytest.mark.parametrize("V0", [105.0, 139.0, 199.0])
    def test_bridge_removes_the_monitoring_bias(self, market, a, V0):
        """Discrete monitoring misses crossings within a step, which biases
        the survival claim up; the bridge test restores them, so 50 steps
        land within 3 SE of the closed form, on a flat and on a moving
        barrier (-1.9 to +0.4 SE here, where the simulation without the
        bridge read +10.4 to +26.5 SE; -0.74 and +14.5 at a = 0, V0 = 139)."""
        bond = BondSpec(T=2.0, a=a, b=100.0, R=0.7)
        mc = McSpec(n_paths=20_000, n_steps=50, seed=11)
        ((mean, se),) = mc_barrier_price(
            [(lambda v: 1.0, lambda t: 0.0, bond.T)], (bond.a, bond.b, bond.T), market, mc, V0)
        exact = math.exp(-market.r * bond.T) * survival_probability(V0, 0.0, bond, market)
        assert abs(mean - exact) <= 3.0 * se

    @pytest.mark.parametrize("case, pins", [
        *((case, _MC_PINS[case]) for case in sorted(_MC_PINS)),
        *((f"{case}_blocked", _MC_BLOCKED_PINS[case]) for case in sorted(_MC_BLOCKED_PINS))])
    def test_pinned_estimate_within_3se_of_closed_form(self, case, pins):
        """Each pinned bridged estimate lies within 3 SE of its claim's
        closed form, so the pins record a correct simulation."""
        mean, se = (float.fromhex(h) for h in pins)
        exact = _MC_PIN_CLOSED_FORMS[case.removesuffix("_blocked")]()
        assert abs(mean - exact) <= 3.0 * se

    @pytest.mark.parametrize("config", sorted(_MC_SHARED_PINS))
    def test_shared_pass_pins_within_3se_of_closed_form(self, config):
        market, bond, option, _ = _SHARED_CONFIGS[config]
        composite = puttable_bond_price if option.kind is OptionKind.PUT else callable_bond_price
        closed = [bond_price(199.0, 0.0, bond, market),
                  composite(199.0, 0.0, bond, option, market)]
        for (mean, se), exact in zip(_MC_SHARED_PINS[config], closed):
            assert abs(float.fromhex(mean) - exact) <= 3.0 * float.fromhex(se)

    @pytest.mark.parametrize("case", sorted(_MC_PINS))
    def test_pinned_bits(self, case):
        """The estimate and SE to the bit. 20 000 paths fill 19 blocks of
        1024 and part of a twentieth; no floating-point warning escapes."""
        mc = McSpec(n_paths=20_000, n_steps=64, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = _MC_PIN_RUNS[case](mc)
        assert (mean.hex(), se.hex()) == _MC_PINS[case]


    @pytest.mark.parametrize("case", sorted(_MC_BLOCKED_PINS))
    def test_pinned_bits_over_forty_blocks(self, case):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        mean, se = _MC_PIN_RUNS[case](mc)
        assert (mean.hex(), se.hex()) == _MC_BLOCKED_PINS[case]

    @pytest.mark.parametrize("config", sorted(_MC_SHARED_PINS))
    def test_shared_pass_pinned_bits(self, config):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        assert _hexes(_shared_pass(config, mc)) == _MC_SHARED_PINS[config]

    @pytest.mark.parametrize("config", sorted(_MC_SHARED_PINS))
    def test_shared_pass_equals_separate_runs(self, config):
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        market = _SHARED_CONFIGS[config][0]
        alone = [mc_barrier_price([claim], _shared_barrier(config), market, mc, 199.0)[0]
                 for claim in _shared_claims(config)]
        assert _hexes(_shared_pass(config, mc)) == _hexes(alone)

    def test_streamed_sums_match_exact_arithmetic(self, monkeypatch):
        """The estimate and SE of a shared pass over 40 blocks, streamed,
        against the same regression on the same path values and controls in
        exact rational arithmetic."""
        blocks, plain = collections.defaultdict(list), oracles._Claim.add

        def add(claim, value, control):
            blocks[claim].append((value.copy(), control.copy()))
            return plain(claim, value, control)

        monkeypatch.setattr(oracles._Claim, "add", add)
        outcomes = _shared_pass("reference", McSpec(n_paths=40_001, n_steps=50, seed=5))
        scale = 2**1074  # every float times this is an integer

        def exact(column):
            return [num * (scale // den) for num, den in map(float.as_integer_ratio, column)]

        for claim, (mean, se) in zip(blocks, outcomes):
            ys = exact(np.concatenate([value for value, _ in blocks[claim]]).tolist())
            xs = exact(np.concatenate([control for _, control in blocks[claim]]).tolist())
            n, sy, sx = len(ys), Fraction(sum(ys), scale), Fraction(sum(xs), scale)
            syy = Fraction(sum(y * y for y in ys), scale * scale) - sy * sy / n
            sxy = Fraction(sum(x * y for x, y in zip(xs, ys)), scale * scale) - sx * sy / n
            sxx = Fraction(sum(x * x for x in xs), scale * scale) - sx * sx / n
            beta = sxy / sxx
            estimate = sy / n - beta * (sx / n - Fraction(claim.control_mean))
            assert abs(Fraction(mean) - estimate) <= Fraction(1, 10**15) * estimate
            assert se == pytest.approx(math.sqrt((syy - beta * sxy) / (n - 1) / n), rel=1e-14)

    @pytest.mark.parametrize("T1, V0", [(0.7, 139.0), (0.01, 92.0)],
                             ids=["short_last_step", "shorter_than_one_step"])
    def test_horizon_off_the_grid(self, T1, V0):
        """The barrier anchored at T = 2 sets steps of T/64, so a composite to
        T1 = 0.7 ends in a step of 0.4 T/64 (to T1 = 0.01, it takes only that
        one short step). Alone it gets the same bits as beside the bond
        claim, whose paths run on to T, and it lands within 3 SE of the
        closed form; no floating-point warning escapes."""
        option = OptionSpec(T1=T1, E=0.9, kind=OptionKind.PUT)
        composite = (lambda v: bond_prices(v, T1, _MOVING, _REF_MARKET).clip(min=0.9),
                     _recovery(_MOVING), T1)
        bond_claim = (lambda v: 1.0, _recovery(_MOVING), 2.0)
        barrier = (0.05, 100.0, 2.0)
        mc = McSpec(n_paths=20_000, n_steps=64, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (alone,) = mc_barrier_price([composite], barrier, _REF_MARKET, mc, V0)
            shared = mc_barrier_price([bond_claim, composite], barrier, _REF_MARKET, mc, V0)
        assert _hexes(shared[1:]) == _hexes([alone])
        mean, se = alone
        assert abs(mean - puttable_bond_price(V0, 0.0, _MOVING, option, _REF_MARKET)) <= 3.0 * se

    @pytest.mark.parametrize("payoff, rebate", [
        (lambda v: math.inf, lambda t: 0.0),
        (lambda v: -math.inf, lambda t: 0.0),
        (lambda v: math.nan, lambda t: 0.0),
        (lambda v: 1.0, lambda t: math.nan),
    ], ids=["payoff_inf", "payoff_minus_inf", "payoff_nan", "rebate_nan"])
    def test_non_finite_path_value_fails_only_its_claim(self, payoff, rebate):
        """A payoff or rebate of inf or NaN fills its claim's slot with a
        NumericalError, as an overflow does, and warns of nothing; the other
        claim of the pass runs on to the bits it gets alone."""
        mc = McSpec(n_paths=1000, n_steps=50, seed=1)
        other, barrier = (lambda v: 1.0, lambda t: 0.5, 1.0), (0.0, 100.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failed, priced = mc_barrier_price([(payoff, rebate, 1.0), other], barrier,
                                              _REF_MARKET, mc, 199.0)
            alone = mc_barrier_price([other], barrier, _REF_MARKET, mc, 199.0)
        assert isinstance(failed, NumericalError)
        assert str(failed) == "a path value is not finite"
        assert _hexes([priced]) == _hexes(alone)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_pinned_bits_on_one_cpu(self):
        """The same bits from a process that may run on one CPU only, where
        the thread drawing ahead and this one take turns, and from
        one whose OpenBLAS runs one thread."""
        def run(**kwargs):
            script = (
                "from credit_pricer import McSpec\n"
                "from test_oracles import _MC_PIN_RUNS as runs, _hexes, _shared_pass\n"
                "mc = McSpec(n_paths=40_001, n_steps=50, seed=5)\n"
                "for case in " + repr(sorted(_MC_BLOCKED_PINS)) + ":\n"
                "    print(case, *_hexes([runs[case](mc)])[0])\n"
                "for config in " + repr(sorted(_MC_SHARED_PINS)) + ":\n"
                "    print(config, *sum(_hexes(_shared_pass(config, mc)), ()))\n")
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       **kwargs.pop("env", {}))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True, timeout=120, **kwargs).stdout
            return {case: tuple(hexes)
                    for case, *hexes in (line.split() for line in out.splitlines())}

        expected = dict(_MC_BLOCKED_PINS)
        expected.update((key, sum(pins, ())) for key, pins in _MC_SHARED_PINS.items())
        cpu = min(os.sched_getaffinity(0))
        one_cpu = run(preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        one_blas_thread = run(env={"OPENBLAS_NUM_THREADS": "1"})
        assert one_cpu == expected
        assert one_blas_thread == expected

    def test_raising_payoff_leaves_no_thread(self):
        """An exception from the payoff in the twentieth block, while the
        next block is being drawn, fills the claim's slot unchanged, and the
        thread that drew it has ended."""
        class Boom(Exception):
            pass

        calls = 0

        def payoff(v):
            nonlocal calls
            calls += 1
            if calls == 20:
                raise Boom(calls)
            return 1.0

        before = threading.active_count()
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        (outcome,) = mc_barrier_price([(payoff, lambda t: 0.0, 2.0)], (0.0, 1e-9, 2.0),
                                      _REF_MARKET, mc, 139.0)
        assert isinstance(outcome, Boom) and outcome.args == (20,)
        assert threading.active_count() == before


    def test_raising_composite_leaves_bond_claim_and_no_thread(self):
        """A composite payoff that raises in the 25th block fills its own
        slot with the exception; the bond claim runs on to its pinned bits,
        and the thread that drew the blocks has ended."""
        class Boom(Exception):
            pass

        paid = 0

        def raising(payoff):
            def wrapped(v):
                nonlocal paid
                paid += len(v)
                # the first 24 blocks pay 19 354 payoffs here, the first 25
                # 20 151
                if paid > 20_000:
                    raise Boom(paid)
                return payoff(v)
            return wrapped

        before = threading.active_count()
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        bond_claim, composite = _shared_pass("reference", mc, raising)
        assert isinstance(composite, Boom) and composite.args == (20_151,)
        assert _hexes([bond_claim]) == _MC_SHARED_PINS["reference"][:1]
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
        for check, cf, (mean, se) in zip(checks, closed, _MC_SHARED_PINS["moving_call"]):
            assert check.measured == abs(float.fromhex(mean) - cf) / float.fromhex(se)

    def test_one_pass_prices_both_claims(self, bond, market, put_spec, monkeypatch):
        """Both checks read one simulation: mc_checks makes one
        mc_barrier_price call, with the bond's claim to T and the puttable
        bond's to T1, both against the bond's barrier anchored at T."""
        calls = []

        def counted(claims, barrier, market, mc, V0):
            calls.append(([claim[2] for claim in claims], barrier))
            return mc_barrier_price(claims, barrier, market, mc, V0)

        monkeypatch.setattr(verification, "mc_barrier_price", counted)
        checks = mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert [check.ok for check in checks] == [True, True]
        assert calls == [([bond.T, put_spec.T1], (bond.a, bond.b, bond.T))]

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_zero_standard_error(self, bond, market, ulps, monkeypatch):
        """A claim whose paths all paid the same has SE 0: its gap is 0 where
        the estimate is the closed form, and a numerical failure, not a
        division by zero, where it is one ulp off."""
        price = bond_price(199.0, 0.0, bond, market)
        estimate = price if ulps == 0 else math.nextafter(price, math.inf)
        monkeypatch.setattr(verification, "mc_barrier_price",
                            lambda claims, barrier, market, mc, V0: [(estimate, 0.0)])
        [check] = mc_checks(bond, market, None, 199.0, self._MC)
        if ulps == 0:
            assert (check.ok, check.measured) == (True, 0.0)
        else:
            assert not check.ok and math.isnan(check.measured)
            assert check.error == (f"estimate {estimate!r} has zero standard error "
                                   f"and differs from the closed form {price!r}")

    def test_composite_adds_no_path_build(self, bond, market, put_spec, monkeypatch):
        """The composite claim reads the bond claim's paths: with it, the pass
        builds the paths of a block and tests them against the barrier as
        often as for the bond claim alone, once per block (39 blocks of
        1024 paths and one of 65)."""
        counts = collections.Counter()

        def counted(name, function):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(oracles, "_first_passage",
                            counted("path builds", oracles._first_passage))
        monkeypatch.setattr(oracles, "_bridge_crossed",
                            counted("crossing tests", oracles._bridge_crossed))
        mc = McSpec(n_paths=40_001, n_steps=50, seed=5)
        mc_checks(bond, market, None, 199.0, mc)
        bond_alone = dict(counts)
        counts.clear()
        mc_checks(bond, market, put_spec, 199.0, mc)
        assert dict(counts) == bond_alone == {"path builds": 40, "crossing tests": 40}

    # plain_ses: the SE of each claim, bond first, at seed 1 and 100 000 x 200
    # paths, with the plain estimator that the control variate replaced
    @pytest.mark.parametrize("path, plain_ses", [
        (None, (4.307e-4, 3.140e-4)),
        (pathlib.Path(__file__).parent.parent / "perfbench" / "reference" / "moving_call.json",
         (8.003e-4, 4.175e-4))], ids=["reference", "moving_call"])
    def test_default_paths_keep_the_plain_power(self, path, plain_ses, monkeypatch):
        """At the default path count and seed 1, each check of the default
        config and of the moving-barrier call passes with an SE at or below
        the plain estimator's at 100 000 paths."""
        ses = []

        def recorded(*args):
            outcomes = mc_barrier_price(*args)
            ses.extend(se for _, se in outcomes)
            return outcomes

        monkeypatch.setattr(verification, "mc_barrier_price", recorded)
        cfg = load_config(path and str(path))
        checks = mc_checks(cfg.bond, cfg.market, cfg.option, 199.0, replace(cfg.mc, seed=1))
        assert [check.ok for check in checks] == [True, True]
        assert len(ses) == 2
        assert all(se <= plain for se, plain in zip(ses, plain_ses))

    @pytest.mark.parametrize("n_paths", [45_000, 200_000])
    def test_memory_does_not_grow_with_paths(self, n_paths):
        """One pass of the default config's checks holds at most 16 MB at its
        traced peak, at the default path count and at 200 000 paths: the
        pass keeps one block's draws and work arrays, whatever n_paths."""
        cfg = load_config(None)
        tracemalloc.start()
        try:
            mc_checks(cfg.bond, cfg.market, cfg.option, 199.0, replace(cfg.mc, n_paths=n_paths))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_one_boundary_solve(self, bond, market, put_spec, monkeypatch):
        """With the boundary cache cold, the puttable bond's closed form solves
        the early redemption boundary once, and nothing else solves it."""
        calls = _counted_boundary_solves(monkeypatch)
        mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert calls == [(bond, put_spec, market)]

    def test_each_check_reports_its_first_failure(self, bond, put_spec):
        """At r = -1000 both closed forms and the pass overflow: the bond check
        reports the failed pass, the puttable check its closed form."""
        market = MarketParams(r=-1000.0, q=0.0, sigma=0.5)
        bond_check, puttable_check = mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert bond_check.error == "discount factor to T=2.0 overflows a float"
        assert puttable_check.error == "discount factor overflows a float"

    def test_failing_composite_payoff_fails_only_its_check(self, bond, market, put_spec,
                                                           monkeypatch):
        (bond_alone,) = mc_checks(bond, market, None, 199.0, self._MC)
        failing_at_t1 = _bond_prices_raising_at(put_spec.T1, NumericalError("no price at T1"))
        monkeypatch.setattr("credit_pricer.verification.bond_prices", failing_at_t1)
        bond_check, puttable_check = mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert bond_check == bond_alone
        assert puttable_check.name == "mc_puttable_within_3se"
        assert puttable_check.error == "no price at T1" and not puttable_check.ok

    def test_other_payoff_exception_propagates(self, bond, market, put_spec, monkeypatch):
        failing_at_t1 = _bond_prices_raising_at(put_spec.T1, RuntimeError("not numerical"))
        monkeypatch.setattr("credit_pricer.verification.bond_prices", failing_at_t1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="not numerical"):
            mc_checks(bond, market, put_spec, 199.0, self._MC)
        assert threading.active_count() == before


class TestWorstGap:
    """The worst-gap checks share one reduction over their gaps."""

    def test_nan_gap_fails_the_check(self, monkeypatch):
        """option_price_paths returns (0.0, nan), as at two book positions;
        max(worst, nan) would keep worst, and the check would pass."""
        monkeypatch.setattr(verification, "option_price_paths", lambda *args: (0.0, math.nan))
        check = verification.formula_vs_composition(24601)
        assert (check.ok, check.error) == (False, "a gap is NaN")


def _bond_prices_raising_at(t_fail, exc):
    """bond_prices, except that it raises exc at time t_fail."""
    def price(v, t, *args):
        if t == t_fail:
            raise exc
        return bond_prices(v, t, *args)

    return price


class TestStreamSplit:
    """The blocks split one SFC64 stream: each reads a full block's normals
    (a short last block, fewer), then as many uniforms, right after the
    previous block's, so the thread drawing ahead moves no number."""

    @pytest.mark.parametrize("n_paths", [1000, 1024, 1025, 2048, 3 * 1024 + 65])
    def test_matches_one_sequential_stream(self, monkeypatch, n_paths):
        blocks, plain = [], oracles._first_passage

        def first_passage(live, path, z, u, *work):
            blocks.append((z.copy(), u.copy()))
            return plain(live, path, z, u, *work)

        monkeypatch.setattr(oracles, "_first_passage", first_passage)
        mc = McSpec(n_paths=n_paths, n_steps=50, seed=n_paths)
        mc_barrier_price([(lambda v: 1.0, lambda t: 0.5, 1.0)], (0.0, 100.0, 1.0),
                         _REF_MARKET, mc, 139.0)
        full, last = divmod(n_paths, oracles._MC_BLOCK)
        assert [len(z) for z, _ in blocks] == [oracles._MC_BLOCK] * full + [last] * (last > 0)
        sequential = np.random.Generator(np.random.SFC64(mc.seed))
        for z, u in blocks:
            assert np.array_equal(z, sequential.standard_normal((len(z), 50)))
            assert np.array_equal(u, sequential.random((len(u), 50)))


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

    @pytest.mark.parametrize("X, tau, message", [
        (0.0, 1.0, "X must be positive, got 0.0"),
        (math.inf, 1.0, "X must be positive, got inf"),
        (1.0, 0.0, "tau must be positive, got 0.0"),
        (1.0, math.nan, "tau must be positive, got nan"),
    ], ids=["X_zero", "X_inf", "tau_zero", "tau_nan"])
    def test_invalid_point_rejected(self, X, tau, message):
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1.0,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        with pytest.raises(DomainError) as info:
            quadrature_green(X, tau, params, _REF_MARKET)
        assert str(info.value) == message

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
        ((mean, se),) = mc_barrier_price([(lambda v: 1.0, rebate, bond.T)],
                                         (bond.a, bond.b, bond.T), market, mc, 139.0)
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
