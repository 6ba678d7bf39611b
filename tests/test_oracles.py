"""Tests for the three independent verifiers: the theta-scheme PDE solver,
the barrier-monitored Monte Carlo simulator, and the adaptive quadrature of
the lognormal transition integral."""

import math
import random

import pytest

from credit_pricer import (
    DomainError,
    GridSpec,
    InvalidParamsError,
    MarketParams,
    McSpec,
    NumericalError,
    PowerBinaryParams,
    Scheme,
    barrier_level,
    bond_price,
    draw_verification_case,
    mc_barrier_price,
    pde_solve_tbvp,
    power_binary_price,
    quadrature_green,
    survival_probability,
    tbvp_w,
)


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
        for x, t in ((0.5, 0.0), (1e9, 0.0), (1.5, -0.1), (1.5, 1.5)):
            with pytest.raises(DomainError):
                s.value(x, t)


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
