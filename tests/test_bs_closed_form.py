"""Tests for the power-binary closed form, the barrier survival weight, and
the image transform."""

import math
import random

import pytest

from credit_pricer import (
    DomainError,
    IndicatorDirection,
    InvalidParamsError,
    MarketParams,
    NumericalError,
    PowerBinaryParams,
    delta,
    draw_verification_case,
    image_transform,
    mu,
    norm_cdf,
    power_binary_price,
    quadrature_green,
    tbvp_w,
)
from helpers import pricing_residual

# theta-scheme value of the survival weight at x=1.5, c=0.04, sigma=0.5,
# tau=1 (801x800 grid); anchors the closed form to the PDE
_W_PDE_REF = 0.5240527022743106


def _cash_binary(K, direction=IndicatorDirection.ABOVE):
    return PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=K, tau1=0.0, tau2=0.0,
                             tau3=1.0, direction=direction)


def _asset_binary(K):
    return PowerBinaryParams(beta=1.0, i=0.0, L=0.0, K=K, tau1=0.0, tau2=0.0,
                             tau3=1.0)


class TestPowerBinaryReductions:
    def test_cash_binary_is_exercise_probability(self):
        """With drift carry c and no discounting (r=0, q=-c), the unit cash
        binary struck at 1 prices to Phi(d+), the probability half of the
        survival weight."""
        c, sigma, tau = 0.03, 0.4, 1.7
        market = MarketParams(r=0.0, q=-c, sigma=sigma)
        for x in (1.05, 1.5, 2.0, 4.0):
            got = power_binary_price(x, 0.0, tau, _cash_binary(1.0), market)
            d_plus = (math.log(x) + (c - 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
            assert got == pytest.approx(norm_cdf(d_plus), rel=1e-14)

    def test_asset_minus_cash_is_vanilla_call(self):
        X, K, tau = 100.0, 95.0, 0.75
        market = MarketParams(r=0.05, q=0.01, sigma=0.3)
        s = market.sigma * math.sqrt(tau)
        d1 = (math.log(X / K) + (market.r - market.q + 0.5 * market.sigma ** 2) * tau) / s
        d2 = d1 - s
        bs_call = (X * math.exp(-market.q * tau) * norm_cdf(d1)
                   - K * math.exp(-market.r * tau) * norm_cdf(d2))
        got = (power_binary_price(X, 0.0, tau, _asset_binary(K), market)
               - K * power_binary_price(X, 0.0, tau, _cash_binary(K), market))
        assert got == pytest.approx(bs_call, rel=1e-13)

    def test_zero_strike_drops_indicator(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params_open = PowerBinaryParams(beta=0.5, i=1.0, L=0.8, K=0.0,
                                        tau1=0.4, tau2=0.1, tau3=0.4)
        params_tiny = PowerBinaryParams(beta=0.5, i=1.0, L=0.8, K=1e-12,
                                        tau1=0.4, tau2=0.1, tau3=0.4)
        a = power_binary_price(1.3, 0.0, 1.0, params_open, market)
        b = power_binary_price(1.3, 0.0, 1.0, params_tiny, market)
        assert a == pytest.approx(b, rel=1e-12)

    def test_below_with_zero_strike_is_empty(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=0.0,
                                   tau1=0.0, tau2=0.0, tau3=1.0,
                                   direction=IndicatorDirection.BELOW)
        assert power_binary_price(1.3, 0.0, 1.0, params, market) == 0.0

    @pytest.mark.parametrize("params", [
        _cash_binary(1.1),  # L = 0: the strike leg alone
        PowerBinaryParams(beta=0.5, i=1.0, L=0.8, K=0.0, tau1=0.4, tau2=0.1, tau3=0.4),
        # K = 0 with a correlation that would round to 1.0000000000000002:
        # rho is not read
        PowerBinaryParams(beta=0.0, i=7.0, L=1.0, K=0.0, tau1=0.0, tau2=0.0, tau3=0.0),
    ], ids=["cash_leg", "zero_strike", "zero_strike_i7"])
    def test_one_leg_is_the_univariate_reduction_bit_for_bit(self, params):
        X, tau = 1.2, 0.3
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        if params.L == 0.0:
            a = delta(X / params.K, tau, params.beta * tau, tau, market)
        else:
            a = delta(X**params.i / params.L, params.tau1 + params.i * tau,
                      params.tau2 + params.i * params.beta * tau,
                      params.tau3 + params.i**2 * tau, market)
        expected = X**params.beta * math.exp(mu(params.beta, market) * tau) * norm_cdf(a)
        assert power_binary_price(X, 0.0, tau, params, market).hex() == expected.hex()

    @pytest.mark.parametrize("i, direction", [(7.0, IndicatorDirection.ABOVE),
                                              (-7.0, IndicatorDirection.BELOW)])
    def test_correlation_rounding_past_one_is_clamped(self, i, direction):
        """At i = +-7, tau3 = 0, tau = 0.3 the correlation i sqrt(tau/(i^2 tau))
        rounds to +-1.0000000000000002; the leg still prices."""
        params = PowerBinaryParams(beta=0.0, i=i, L=1.0, K=1.0, tau1=0.0, tau2=0.0,
                                   tau3=0.0, direction=direction)
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        cf = power_binary_price(1.2, 0.0, 0.3, params, market)
        assert cf == pytest.approx(quadrature_green(1.2, 0.3, params, market), rel=1e-12)

    def test_pure_discount_with_no_legs(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=0.0,
                                   tau1=0.0, tau2=0.0, tau3=1.0)
        got = power_binary_price(2.0, 0.0, 1.5, params, market)
        assert got == pytest.approx(math.exp(-0.04 * 1.5), rel=1e-15)


class TestSecondOrderBinary:
    """Nested payoff X^beta Phi(delta(X/L, tau', beta tau', tau')) 1{X > K}:
    the i=1 family where the terminal payoff itself is a forward binary
    price over a later window tau'."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_matches_quadrature(self, beta):
        tau_later = 0.5
        params = PowerBinaryParams(beta=beta, i=1.0, L=0.9, K=1.0,
                                   tau1=tau_later, tau2=beta * tau_later,
                                   tau3=tau_later)
        market = MarketParams(r=0.04, q=0.01, sigma=0.45)
        cf = power_binary_price(1.2, 0.0, 1.0, params, market)
        qd = quadrature_green(1.2, 1.0, params, market)
        assert cf == pytest.approx(qd, rel=1e-9)

    def test_matches_quadrature_below(self):
        params = PowerBinaryParams(beta=0.0, i=1.0, L=0.9, K=1.1,
                                   tau1=0.5, tau2=0.0, tau3=0.5,
                                   direction=IndicatorDirection.BELOW)
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        cf = power_binary_price(1.2, 0.0, 1.0, params, market)
        qd = quadrature_green(1.2, 1.0, params, market)
        assert cf == pytest.approx(qd, rel=1e-9)


class TestRandomizedOracleAgreement:
    def test_sweep_against_quadrature(self):
        """40 admissible draws; the acceptance suite runs the full 200."""
        rng = random.Random(90125)
        worst = 0.0
        for _ in range(40):
            X, tau, params, market = draw_verification_case(rng)
            cf = power_binary_price(X, 0.0, tau, params, market)
            qd = quadrature_green(X, tau, params, market)
            err = abs(cf - qd) / max(abs(qd), 1e-12)
            worst = max(worst, err)
        assert worst <= 1e-6, f"worst relative disagreement {worst:.3e}"

    def test_direction_complement(self):
        """ABOVE plus BELOW equals the strike-free price, relative 1e-10."""
        rng = random.Random(777)
        for _ in range(50):
            X, tau, params, market = draw_verification_case(rng)
            if params.K <= 0.0:
                continue
            kw = dict(beta=params.beta, i=params.i, L=params.L,
                      tau1=params.tau1, tau2=params.tau2, tau3=params.tau3)
            above = power_binary_price(
                X, 0.0, tau,
                PowerBinaryParams(K=params.K, direction=IndicatorDirection.ABOVE, **kw),
                market)
            below = power_binary_price(
                X, 0.0, tau,
                PowerBinaryParams(K=params.K, direction=IndicatorDirection.BELOW, **kw),
                market)
            full = power_binary_price(
                X, 0.0, tau,
                PowerBinaryParams(K=0.0, direction=IndicatorDirection.ABOVE, **kw),
                market)
            assert above + below == pytest.approx(full, rel=1e-10)


class TestPowerBinaryPde:
    @pytest.mark.parametrize("params,market", [
        (PowerBinaryParams(beta=0.0, i=1.0, L=0.9, K=1.0, tau1=0.5, tau2=0.0, tau3=0.5),
         MarketParams(r=0.04, q=0.0, sigma=0.5)),
        (PowerBinaryParams(beta=1.0, i=1.0, L=1.1, K=0.8, tau1=0.3, tau2=0.3, tau3=0.3),
         MarketParams(r=0.05, q=0.02, sigma=0.4)),
        (PowerBinaryParams(beta=0.68, i=-1.0, L=1.2, K=0.9, tau1=0.5, tau2=-0.1, tau3=0.5),
         MarketParams(r=0.03, q=0.0, sigma=0.6)),
    ])
    def test_solves_pricing_equation(self, params, market):
        """Finite-difference residual of the closed form against
        u_t + sigma^2 X^2 u_XX / 2 + (r - q) X u_X - r u = 0."""
        T = 1.0

        def u(x, t):
            return power_binary_price(x, t, T, params, market)

        for X, t in ((1.1, 0.2), (1.4, 0.5), (0.9, 0.35)):
            res = pricing_residual(u, X, t, market.r - market.q, market.sigma, market.r)
            assert res <= 1e-5, f"residual {res:.3e} at X={X}, t={t}"


class TestPowerBinaryValidation:
    def test_overflow_raises_numerical_error(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=40.0, i=0.0, L=0.0, K=0.0, tau1=0.0, tau2=0.0, tau3=1.0)
        with pytest.raises(NumericalError):
            power_binary_price(1e10, 0.0, 1.0, params, market)

    @pytest.mark.parametrize("call", [
        # X^i in the probability leg
        lambda: power_binary_price(
            1e200, 0.0, 1.0,
            PowerBinaryParams(beta=0.0, i=2.0, L=1.0, K=1.0, tau1=0.5, tau2=0.0, tau3=0.5),
            MarketParams(r=0.04, q=0.0, sigma=0.5)),
        # (x/b)^gamma with gamma = 80001
        lambda: image_transform(lambda x, t: x, 1.0, -0.04, 1e-3)(1e10, 0.0),
        # z^300 in the quadrature integrand
        lambda: quadrature_green(
            20.0, 1.0,
            PowerBinaryParams(beta=300.0, i=0.0, L=0.0, K=1.0, tau1=0.0, tau2=0.0, tau3=1.0),
            MarketParams(r=0.04, q=0.0, sigma=0.5)),
    ], ids=["power_binary_price", "image_transform", "quadrature_green"])
    def test_inner_overflow_raises_numerical_error(self, call):
        """A float overflow past validation surfaces as NumericalError, never
        as a bare OverflowError."""
        with pytest.raises(NumericalError):
            call()

    @pytest.mark.parametrize("K", [0.0, 1e250], ids=["inf", "nan"])
    def test_overflowing_product_raises_numerical_error(self, K):
        """X^beta = 1e300 and e^{mu tau} = 1.1e26 are finite, and their
        product overflows without raising: to inf, or to NaN against an
        orthant that underflows to 0."""
        params = PowerBinaryParams(beta=1.5, i=0.0, L=0.0, K=K, tau1=0.0, tau2=0.0, tau3=1.0)
        with pytest.raises(NumericalError):
            power_binary_price(1e200, 0.0, 1.0, params, MarketParams(r=0.0, q=-40.0, sigma=0.1))

    def test_expired_claim_rejected(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        with pytest.raises(DomainError):
            power_binary_price(1.0, 1.0, 1.0, _cash_binary(1.0), market)
        with pytest.raises(DomainError):
            power_binary_price(1.0, 2.0, 1.0, _cash_binary(1.0), market)

    def test_nonpositive_underlying_rejected(self):
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        with pytest.raises(DomainError):
            power_binary_price(0.0, 0.0, 1.0, _cash_binary(1.0), market)
        with pytest.raises(DomainError):
            power_binary_price(-3.0, 0.0, 1.0, _cash_binary(1.0), market)

    def test_degenerate_composed_clock_rejected(self):
        # tau3 = 0 with i = 0 leaves the probability leg with no variance
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=0.0, L=0.9, K=1.0,
                                   tau1=0.0, tau2=0.0, tau3=0.0)
        with pytest.raises(DomainError):
            power_binary_price(1.2, 0.0, 1.0, params, market)

    def test_zero_level_requires_zero_power(self):
        with pytest.raises(InvalidParamsError):
            PowerBinaryParams(beta=0.0, i=1.0, L=0.0, K=1.0,
                              tau1=0.0, tau2=0.0, tau3=1.0)

    def test_negative_parameters_rejected(self):
        for bad in (dict(L=-0.5), dict(K=-1.0), dict(tau3=-0.1)):
            kw = dict(beta=0.0, i=0.0, L=0.0, K=1.0, tau1=0.0, tau2=0.0, tau3=1.0)
            kw.update(bad)
            with pytest.raises(InvalidParamsError):
                PowerBinaryParams(**kw)

    def test_direction_must_be_an_indicator_direction(self):
        with pytest.raises(InvalidParamsError) as info:
            PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1.0, tau1=0.0, tau2=0.0, tau3=1.0,
                              direction="above")
        assert str(info.value) == "direction must be an IndicatorDirection"

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(InvalidParamsError):
            PowerBinaryParams(beta=math.nan, i=0.0, L=0.0, K=1.0,
                              tau1=0.0, tau2=0.0, tau3=1.0)


class TestSurvivalWeight:
    def test_on_barrier_is_exactly_zero(self):
        assert tbvp_w(1.0, 0.0, 0.04, 0.5, 2.0) == 0.0
        assert tbvp_w(1.0, 1.999, 0.04, 0.5, 2.0) == 0.0

    def test_never_negative(self):
        # one ulp above the barrier N(d+) - image cancels to -1.57e-43
        assert tbvp_w(1.0000000000000004, 0.7415811029327684, -0.15382105541097735,
                      0.015250329128941711, 1.9712471752663296) == 0.0

    def test_far_field_limit_is_one(self):
        assert tbvp_w(math.inf, 0.0, 0.04, 0.5, 2.0) == 1.0
        assert tbvp_w(1e12, 0.0, 0.04, 0.5, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_bounds_and_monotonicity(self):
        prev = 0.0
        for k in range(1, 60):
            w = tbvp_w(1.0 + 0.05 * k, 0.3, 0.04, 0.5, 2.0)
            assert 0.0 < w < 1.0
            assert w > prev
            prev = w

    def test_against_pde_oracle(self):
        got = tbvp_w(1.5, 0.0, 0.04, 0.5, 1.0)
        assert got == pytest.approx(_W_PDE_REF, rel=1e-3)

    def test_solves_drift_equation(self):
        # no discounting term: w_t + sigma^2 x^2 w_xx / 2 + c x w_x = 0
        c, sigma, T = 0.04, 0.5, 2.0

        def u(x, t):
            return tbvp_w(x, t, c, sigma, T)

        for x, t in ((1.3, 0.5), (2.0, 1.0), (1.1, 0.1)):
            res = pricing_residual(u, x, t, c, sigma, 0.0)
            assert res <= 1e-5, f"residual {res:.3e} at x={x}, t={t}"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tbvp_w(0.9, 0.0, 0.04, 0.5, 2.0)
        with pytest.raises(DomainError):
            tbvp_w(1.5, 2.0, 0.04, 0.5, 2.0)
        with pytest.raises(DomainError):
            tbvp_w(math.nan, 0.0, 0.04, 0.5, 2.0)

    def test_problem_validation(self):
        for c, sigma, T in ((0.04, 0.0, 2.0), (0.04, 0.5, 0.0), (math.inf, 0.5, 2.0)):
            with pytest.raises(InvalidParamsError):
                tbvp_w(1.5, 0.0, c, sigma, T)
            # the problem is checked before the domain
            with pytest.raises(InvalidParamsError):
                tbvp_w(0.9, 3.0, c, sigma, T)


class TestImageTransform:
    def test_constant_annihilated_on_barrier(self):
        barriered = image_transform(lambda x, t: 7.0, 2.5, 0.04, 0.5)
        assert barriered(2.5, 0.0) == 0.0
        assert barriered(2.5, 1.3) == 0.0

    def test_reproduces_survival_weight(self):
        """Image of the plain exercise probability under the unit barrier
        equals the closed-form survival weight."""
        c, sigma, T = 0.04, 0.5, 2.0

        def u_plus(x, t):
            tau = T - t
            s = sigma * math.sqrt(tau)
            return norm_cdf((math.log(x) + (c - 0.5 * sigma * sigma) * tau) / s)

        barriered = image_transform(u_plus, 1.0, c, sigma)
        for x in (1.01, 1.3, 2.0, 5.0):
            for t in (0.0, 0.7, 1.5):
                assert barriered(x, t) == pytest.approx(tbvp_w(x, t, c, sigma, T), abs=1e-12)

    def test_annihilation_on_random_solutions(self):
        rng = random.Random(4242)
        for _ in range(25):
            X, tau, params, market = draw_verification_case(rng)
            level = X * math.exp(rng.uniform(-0.5, 0.5))

            def u(x, t, tau=tau, params=params, market=market):
                return power_binary_price(x, t, tau, params, market)

            barriered = image_transform(u, level, market.r - market.q, market.sigma)
            assert abs(barriered(level, 0.0)) <= 1e-12

    def test_preserves_pde(self):
        """If u solves the pricing equation, so does its image."""
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        params = PowerBinaryParams(beta=0.0, i=1.0, L=0.9, K=1.0,
                                   tau1=0.5, tau2=0.0, tau3=0.5)

        def u(x, t):
            return power_binary_price(x, t, 1.0, params, market)

        barriered = image_transform(u, 0.8, market.r - market.q, market.sigma)
        for x, t in ((1.0, 0.2), (1.5, 0.5)):
            res = pricing_residual(barriered, x, t, market.r - market.q,
                                   market.sigma, market.r)
            assert res <= 1e-5, f"residual {res:.3e} at x={x}, t={t}"

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParamsError):
            image_transform(lambda x, t: x, 0.0, 0.04, 0.5)
        with pytest.raises(InvalidParamsError):
            image_transform(lambda x, t: x, 1.0, 0.04, 0.0)
        barriered = image_transform(lambda x, t: x, 1.0, 0.04, 0.5)
        with pytest.raises(DomainError):
            barriered(0.0, 0.0)
        with pytest.raises(DomainError):
            barriered(-1.0, 0.0)
