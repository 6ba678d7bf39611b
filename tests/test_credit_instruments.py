"""Tests for the defaultable bond, its survival probability, the early
redemption boundary, and the knockout options and composites.

PDE reference values were produced by the banded theta-scheme oracle on an
801x800 Crank-Nicolson grid in the flattened coordinate x = V e^{a(T-t)} / b
and frozen here. Boundary references come from plain bisection on the bond
price, independent of the library's safeguarded secant."""

import math

import pytest

from credit_pricer import (
    BelowBarrierError,
    BondSpec,
    DomainError,
    IndicatorDirection,
    InvalidOptionError,
    InvalidParamsError,
    MarketParams,
    McSpec,
    NumericalError,
    OptionKind,
    OptionSpec,
    PowerBinaryParams,
    barrier_level,
    bond_option_price,
    bond_price,
    callable_bond_price,
    early_redemption_boundary,
    mc_barrier_price,
    option_price_paths,
    power_binary_price,
    puttable_bond_price,
    survival_probability,
    credit_instruments,
    verification,
)
from helpers import OVERFLOW_CONFIG, bisect, forget_shared_work, pricing_residual

# Crank-Nicolson 801x800 oracle values at the reference parameter set
_BOND_PDE_139 = 0.7261652861044696
_PUTTABLE_PDE_199 = 0.8344185976105549
_CALLABLE_PDE_300 = 0.8427422883563542

# independent bisection on bond_price(., T1) - E, interval width 1e-10
_BOUNDARY_REF = 199.10893269883803
_BOUNDARY_REF_SIGMA_03 = 146.0755726514734

# closed-form regression pins, first verified build
_SURVIVAL_139_REG = 0.2888178092255876
_PUT_199_REG = 0.025236203472889948
_CALL_300_REG = 0.03291360999089599
_PUTTABLE_199_REG = 0.8344196202238693
_CALLABLE_300_REG = 0.8427417456515123

# (survival, bond, put, call) at t = 0, pinned to the last digit
_REFERENCE_POINT_REG = {
    139.0: (0.2888178092255876, 0.7261651747177601, 0.020001389803698907,
            0.0054359721085479665),
    199.0: (0.5885931024779081, 0.8091834167509794, 0.025236203472889948,
            0.015881339206255854),
    300.0: (0.8286204083591246, 0.8756553556424083, 0.013176351282557293,
            0.03291360999089599),
}


class TestBondSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidParamsError):
            BondSpec(T=0.0, a=0.0, b=100.0, R=0.7)
        with pytest.raises(InvalidParamsError):
            BondSpec(T=2.0, a=0.0, b=0.0, R=0.7)
        with pytest.raises(InvalidParamsError):
            BondSpec(T=2.0, a=0.0, b=100.0, R=-0.1)
        with pytest.raises(InvalidParamsError):
            BondSpec(T=2.0, a=0.0, b=100.0, R=1.0)
        with pytest.raises(InvalidParamsError):
            BondSpec(T=math.inf, a=0.0, b=100.0, R=0.7)

    def test_barrier_growth_rate_sign_free(self):
        BondSpec(T=2.0, a=-0.05, b=100.0, R=0.7)
        BondSpec(T=2.0, a=0.08, b=100.0, R=0.0)


class TestOptionSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidParamsError):
            OptionSpec(T1=0.0, E=0.9, kind=OptionKind.PUT)
        with pytest.raises(InvalidParamsError):
            OptionSpec(T1=1.0, E=0.0, kind=OptionKind.PUT)
        with pytest.raises(InvalidParamsError):
            OptionSpec(T1=1.0, E=0.9, kind="put")


class TestBarrierLevel:
    def test_terminal_value_is_face_barrier(self, bond):
        assert barrier_level(bond, bond.T) == bond.b

    def test_flat_when_growth_is_zero(self, bond):
        assert barrier_level(bond, 0.0) == bond.b
        assert barrier_level(bond, 1.3) == bond.b

    def test_discounted_before_maturity(self):
        sloped = BondSpec(T=2.0, a=0.05, b=100.0, R=0.7)
        assert barrier_level(sloped, 0.0) == pytest.approx(100.0 * math.exp(-0.1), rel=1e-15)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_a_domain_error(self, bond, t):
        """On a flat barrier -a (T - t) is NaN at an infinite t as at a NaN
        one: the level is refused, not returned as NaN."""
        with pytest.raises(DomainError, match="t must be finite"):
            barrier_level(bond, t)


class TestSurvivalProbability:
    def test_zero_on_barrier(self, bond, market):
        lvl = barrier_level(bond, 0.5)
        assert survival_probability(lvl, 0.5, bond, market) == 0.0

    def test_terminal_indicator(self, bond, market):
        assert survival_probability(150.0, bond.T, bond, market) == 1.0
        assert survival_probability(bond.b, bond.T, bond, market) == 0.0

    def test_regression_value(self, bond, market):
        got = survival_probability(139.0, 0.0, bond, market)
        assert got == pytest.approx(_SURVIVAL_139_REG, rel=1e-12)

    def test_equals_first_passage_formula(self, bond, market):
        """Direct evaluation of the survival weight, written out with the
        image exponent, against the change-of-variables path in the code."""
        c = market.r - market.q - bond.a
        gamma = 1.0 - 2.0 * c / (market.sigma * market.sigma)
        for v, t in ((139.0, 0.0), (199.0, 0.5), (300.0, 1.7), (101.0, 1.0)):
            lvl = barrier_level(bond, t)
            x = v / lvl
            tau = bond.T - t
            s = market.sigma * math.sqrt(tau)
            drift = (c - 0.5 * market.sigma * market.sigma) * tau
            direct = (0.5 * math.erfc(-((math.log(x) + drift) / s) / math.sqrt(2.0))
                      - x ** gamma
                      * 0.5 * math.erfc(-((-math.log(x) + drift) / s) / math.sqrt(2.0)))
            got = survival_probability(v, t, bond, market)
            assert got == pytest.approx(direct, abs=1e-12)

    def test_bounds_and_monotonicity(self, bond, market):
        for mt in range(10):
            t = bond.T * mt / 10.0
            lvl = barrier_level(bond, t)
            prev = 0.0
            for mx in range(1, 40):
                w = survival_probability(lvl * (1.0 + 0.05 * mx), t, bond, market)
                assert 0.0 < w < 1.0
                assert w > prev
                prev = w

    def test_against_monte_carlo(self, bond, market):
        """Hit-fraction estimate with bridge correction; the barrier is flat
        so the per-step crossing probability is exact."""
        mc = McSpec(n_paths=20_000, n_steps=100, seed=20240814)
        ((mean, se),) = mc_barrier_price(
            [(lambda v: 1.0, lambda t: 0.0, bond.T)], (bond.a, bond.b, bond.T), market, mc, 139.0)
        grow = math.exp(market.r * bond.T)
        w_mc = mean * grow
        w_cf = survival_probability(139.0, 0.0, bond, market)
        assert abs(w_cf - w_mc) <= 3.0 * se * grow, (
            f"closed form {w_cf:.6f} vs MC {w_mc:.6f} +- {se * grow:.6f}")

    def test_domain_errors(self, bond, market):
        with pytest.raises(BelowBarrierError):
            survival_probability(99.0, 0.0, bond, market)
        with pytest.raises(DomainError):
            survival_probability(150.0, -0.1, bond, market)
        with pytest.raises(DomainError):
            survival_probability(150.0, 2.1, bond, market)
        with pytest.raises(BelowBarrierError):
            survival_probability(80.0, 1.0, bond, market)


class TestBondPrice:
    def test_recovery_floor_on_barrier(self, bond, market):
        lvl = barrier_level(bond, 0.5)
        disc = math.exp(-market.r * (bond.T - 0.5))
        assert bond_price(lvl, 0.5, bond, market) == pytest.approx(bond.R * disc, rel=1e-15)

    def test_default_free_limit(self, bond, market):
        disc = math.exp(-market.r * bond.T)
        assert bond_price(1e12, 0.0, bond, market) == pytest.approx(disc, rel=1e-12)

    def test_terminal_data(self, bond, market):
        assert bond_price(150.0, bond.T, bond, market) == 1.0
        assert bond_price(bond.b, bond.T, bond, market) == bond.R

    def test_against_pde_oracle(self, bond, market):
        got = bond_price(139.0, 0.0, bond, market)
        assert got == pytest.approx(_BOND_PDE_139, rel=1e-3)
        # much tighter in practice; guard against silent degradation
        assert got == pytest.approx(_BOND_PDE_139, rel=1e-5)

    def test_bounds_and_monotonicity(self, bond, market):
        for t in (0.0, 0.5, 1.0, 1.9):
            lvl = barrier_level(bond, t)
            disc = math.exp(-market.r * (bond.T - t))
            prev = 0.0
            for mx in range(1, 40):
                p = bond_price(lvl * (1.0 + 0.05 * mx), t, bond, market)
                assert bond.R * disc < p < disc
                assert p > prev
                prev = p

    def test_reduces_to_survival_weight(self, bond, market):
        # B = disc (R + (1-R) w): recover w and compare to the direct call
        v, t = 170.0, 0.3
        disc = math.exp(-market.r * (bond.T - t))
        w = (bond_price(v, t, bond, market) / disc - bond.R) / (1.0 - bond.R)
        assert w == pytest.approx(survival_probability(v, t, bond, market), abs=1e-14)


class TestEarlyRedemptionBoundary:
    def test_reference_value(self, bond, market, put_spec):
        result = early_redemption_boundary(bond, put_spec, market)
        assert result.K == pytest.approx(199.109, abs=0.01)
        assert result.K == pytest.approx(_BOUNDARY_REF, rel=1e-8)
        assert abs(result.residual) <= 1e-8
        assert result.iterations <= 200

    def test_root_property(self, bond, market, put_spec):
        K = early_redemption_boundary(bond, put_spec, market).K
        assert bond_price(K, put_spec.T1, bond, market) == pytest.approx(put_spec.E, abs=1e-8)

    def test_lower_volatility_regression(self, bond, put_spec):
        calm = MarketParams(r=0.04, q=0.0, sigma=0.3)
        result = early_redemption_boundary(bond, put_spec, calm)
        assert result.K == pytest.approx(_BOUNDARY_REF_SIGMA_03, rel=1e-8)

    def test_agrees_with_bisection_on_shifted_exercise(self, bond, market):
        spec = OptionSpec(T1=1.0, E=0.95, kind=OptionKind.PUT)
        K = early_redemption_boundary(bond, spec, market).K
        lvl = barrier_level(bond, spec.T1)
        ref = bisect(lambda v: bond_price(v, spec.T1, bond, market) - spec.E,
                     lvl * (1.0 + 1e-9), 1e4)
        assert K == pytest.approx(ref, rel=1e-7)

    def test_collapses_to_barrier_at_bracket_bottom(self, bond, market):
        disc = math.exp(-market.r * (bond.T - 1.0))
        E = disc * (bond.R + (1.0 - bond.R) * 1e-6)
        spec = OptionSpec(T1=1.0, E=E, kind=OptionKind.PUT)
        K = early_redemption_boundary(bond, spec, market).K
        lvl = barrier_level(bond, 1.0)
        assert K / lvl - 1.0 == pytest.approx(0.0, abs=1e-4)

    def test_exercise_bracket_enforced(self, bond, market):
        disc = math.exp(-market.r * (bond.T - 1.0))
        # strictly outside, and exactly on each endpoint
        for bad in (0.5, 1.0, bond.R * disc, disc):
            with pytest.raises(InvalidOptionError):
                early_redemption_boundary(
                    bond, OptionSpec(T1=1.0, E=bad, kind=OptionKind.PUT), market)

    def test_exercise_date_must_precede_maturity(self, bond, market):
        with pytest.raises(InvalidOptionError):
            early_redemption_boundary(
                bond, OptionSpec(T1=2.0, E=0.9, kind=OptionKind.PUT), market)
        with pytest.raises(InvalidOptionError):
            early_redemption_boundary(
                bond, OptionSpec(T1=2.5, E=0.9, kind=OptionKind.PUT), market)


class TestBondOptionPrice:
    def test_knockout_at_barrier(self, bond, market, put_spec, call_spec):
        lvl = barrier_level(bond, 0.4)
        assert bond_option_price(lvl, 0.4, bond, put_spec, market) == 0.0
        assert bond_option_price(lvl, 0.4, bond, call_spec, market) == 0.0

    def test_expiry_limit_is_exercise_payoff(self, bond, market, put_spec, call_spec):
        t = put_spec.T1 - 1e-9
        for v in (139.0, 300.0):
            b1 = bond_price(v, put_spec.T1, bond, market)
            p = bond_option_price(v, t, bond, put_spec, market)
            c = bond_option_price(v, t, bond, call_spec, market)
            assert p == pytest.approx(max(put_spec.E - b1, 0.0), abs=1e-6)
            assert c == pytest.approx(max(b1 - call_spec.E, 0.0), abs=1e-6)

    def test_regression_values(self, bond, market, put_spec, call_spec):
        assert bond_option_price(199.0, 0.0, bond, put_spec, market) == pytest.approx(
            _PUT_199_REG, rel=1e-10)
        assert bond_option_price(300.0, 0.0, bond, call_spec, market) == pytest.approx(
            _CALL_300_REG, rel=1e-10)

    @pytest.mark.parametrize("v", sorted(_REFERENCE_POINT_REG))
    def test_reference_point_pinned(self, v, bond, market, put_spec, call_spec):
        got = (survival_probability(v, 0.0, bond, market),
               bond_price(v, 0.0, bond, market),
               bond_option_price(v, 0.0, bond, put_spec, market),
               bond_option_price(v, 0.0, bond, call_spec, market))
        assert got == pytest.approx(_REFERENCE_POINT_REG[v], rel=1e-14, abs=0.0)

    def test_overflow_raises_numerical_error(self):
        market = MarketParams(**OVERFLOW_CONFIG["market"])
        bond = BondSpec(**OVERFLOW_CONFIG["bond"])
        terms = OVERFLOW_CONFIG["option"]
        option = OptionSpec(T1=terms["T1"], E=terms["E"], kind=OptionKind(terms["kind"]))
        (v,), (t,) = OVERFLOW_CONFIG["points"]["V"], OVERFLOW_CONFIG["points"]["t"]
        with pytest.raises(NumericalError):
            bond_option_price(v, t, bond, option, market)
        with pytest.raises(NumericalError):
            puttable_bond_price(v, t, bond, option, market)

    def test_positivity(self, bond, market, put_spec, call_spec):
        # (300, 0.99) is deep out of the money for the put just before
        # expiry, where the raw sum cancels below zero and must be clamped
        for spec in (put_spec, call_spec):
            for v in (105.0, 139.0, 199.0, 300.0, 500.0):
                for t in (0.0, 0.5, 0.9, 0.99):
                    assert bond_option_price(v, t, bond, spec, market) >= 0.0

    def test_put_call_parity_near_expiry(self, bond, market, put_spec, call_spec):
        t = put_spec.T1 - 1e-8
        for v in (139.0, 199.0, 300.0):
            p = bond_option_price(v, t, bond, put_spec, market)
            c = bond_option_price(v, t, bond, call_spec, market)
            b = bond_price(v, t, bond, market)
            assert p - c == pytest.approx(put_spec.E - b, abs=1e-6)

    def test_solves_pricing_equation(self, bond, market, put_spec, call_spec):
        for spec in (put_spec, call_spec):
            def u(x, t, spec=spec):
                return bond_option_price(x, t, bond, spec, market)

            for v, t in ((150.0, 0.3), (250.0, 0.5)):
                res = pricing_residual(u, v, t, market.r - market.q,
                                       market.sigma, market.r)
                assert res <= 1e-5, f"{spec.kind.value} residual {res:.3e} at V={v}, t={t}"

    def test_domain_errors(self, bond, market, put_spec):
        with pytest.raises(BelowBarrierError):
            bond_option_price(50.0, 0.0, bond, put_spec, market)
        # at T1 the exercise value, in the money at V = 150 below K = 199.1
        exercised = put_spec.E - bond_price(150.0, put_spec.T1, bond, market)
        assert exercised > 0.0
        assert bond_option_price(150.0, put_spec.T1, bond, put_spec, market) == exercised
        with pytest.raises(DomainError):
            bond_option_price(150.0, -0.2, bond, put_spec, market)
        with pytest.raises(DomainError):
            bond_option_price(150.0, bond.T + 0.2, bond, put_spec, market)

    def test_flattened_firm_value_overflow_is_numerical_error(self):
        """V e^{a(T-t)} overflows on the composed path, whose power binaries
        reject the infinite underlying: past its entry checks the price
        fails numerically, not as invalid input."""
        bond = BondSpec(T=60.0, a=0.5, b=100.0, R=0.4)
        put = OptionSpec(T1=30.0, E=0.18, kind=OptionKind.PUT)
        with pytest.raises(NumericalError, match="option price leaves the float range"):
            option_price_paths(1e300, 0.0, bond, put, MarketParams(r=0.04, q=0.0, sigma=0.5))

    def test_image_point_out_of_range_is_numerical_error(self, market, put_spec):
        # the reflected point b^2 / V = 1e-400 rounds to 0 in either order;
        # the user gave neither
        bond = BondSpec(T=2.0, a=0.0, b=1e-200, R=0.7)
        with pytest.raises(NumericalError) as info:
            bond_option_price(1.0, 0.0, bond, put_spec, market)
        assert str(info.value) == "image point of x=1.0 leaves the float range"

    @pytest.mark.parametrize("kind", OptionKind)
    def test_huge_barrier_prices_to_scale(self, market, kind):
        """The model depends on V / b alone: at b = 1e200, where b * b
        overflows but the image point b^2 / V = 5e199 does not, the option
        is the one at b = 100."""
        option = OptionSpec(T1=1.0, E=0.9, kind=kind)
        huge = bond_option_price(2e200, 0.0, BondSpec(T=2.0, a=0.0, b=1e200, R=0.7),
                                 option, market)
        reference = bond_option_price(200.0, 0.0, BondSpec(T=2.0, a=0.0, b=100.0, R=0.7),
                                      option, market)
        assert huge == pytest.approx(reference, rel=1e-12)


class TestExerciseValue:
    # an exercise date at or after maturity, and E above or below its
    # bracket (R e^{-r(T-T1)}, e^{-r(T-T1)}) = (0.6726, 0.9608) at T1 = 1
    @pytest.mark.parametrize("kind", OptionKind)
    @pytest.mark.parametrize("T1, E", [(2.0, 0.9), (3.0, 0.9), (1.0, 0.99), (1.0, 0.5)],
                             ids=["T1_at_T", "T1_after_T", "E_above", "E_below"])
    def test_option_that_does_not_fit_the_bond_is_rejected(self, bond, market, T1, E, kind):
        option = OptionSpec(T1=T1, E=E, kind=kind)
        with pytest.raises(InvalidOptionError) as priced:
            bond_option_price(150.0, 0.0, bond, option, market)
        with pytest.raises(InvalidOptionError) as exercised:
            bond_option_price(150.0, option.T1, bond, option, market)
        assert (type(exercised.value), str(exercised.value)) == (
            type(priced.value), str(priced.value))


@pytest.mark.parametrize("V", [0.0, -1.0, math.nan, math.inf])
def test_firm_value_must_be_positive_and_finite(V, bond, market, put_spec, call_spec):
    prices = {
        "survival": lambda t: survival_probability(V, t, bond, market),
        "bond": lambda t: bond_price(V, t, bond, market),
        "option": lambda t: bond_option_price(V, t, bond, put_spec, market),
        "puttable": lambda t: puttable_bond_price(V, t, bond, put_spec, market),
        "callable": lambda t: callable_bond_price(V, t, bond, call_spec, market),
    }
    for name, price in prices.items():
        for t in (0.0, put_spec.T1):
            with pytest.raises(DomainError) as info:
                price(t)
            assert (type(info.value), str(info.value)) == (
                DomainError, f"firm value must be positive and finite, got {V}"), name


class TestFormulaAgainstComposition:
    """The literal transcription of the put and call formulas against the
    independent construction from power binaries, the image transform, and
    the change of variables. Agreement certifies both code paths."""

    def test_randomized_sweep(self):
        check = verification.formula_vs_composition(31337)
        assert check.ok, f"worst path disagreement {check.measured:.3e}"

    def test_public_entry_cross_checks_both_paths(self, bond, market, put_spec):
        # the public function runs both and would raise NumericalError on
        # disagreement; a plain call doubles as the smoke check
        value = bond_option_price(139.0, 0.0, bond, put_spec, market)
        assert value == pytest.approx(0.020001389803698907, rel=1e-10)

    @staticmethod
    def _shift_composed_path(monkeypatch, shift):
        """Shift the composed path, with the record of the last option
        priced dropped for the test, so the shift is seen and nothing
        shifted outlives it."""
        compose = credit_instruments._option_price_composed

        def shifted(*args):
            composed = compose(*args)
            return lambda V, t: composed(V, t) + shift

        monkeypatch.setattr(credit_instruments, "_option_price_composed", shifted)
        forget_shared_work(monkeypatch)

    def test_disagreeing_paths_raise(self, bond, market, put_spec, monkeypatch):
        self._shift_composed_path(monkeypatch, 1e-6)
        with pytest.raises(NumericalError, match="^option pricing paths disagree: formula "):
            bond_option_price(139.0, 0.0, bond, put_spec, market)

    def test_paths_within_tolerance_return_the_formula(self, bond, market, put_spec,
                                                       monkeypatch):
        value = bond_option_price(139.0, 0.0, bond, put_spec, market)
        self._shift_composed_path(monkeypatch, 1e-12)
        assert bond_option_price(139.0, 0.0, bond, put_spec, market) == value


class TestLastPointPaths:
    """option_price_paths keeps the pair of the last point priced before
    T1: the composite priced right after its option evaluates neither path
    again, and any other input is priced afresh."""

    @staticmethod
    def _counted_orthants(monkeypatch):
        """The number of binorm_cdf calls from here on, in the literal
        formula and in the power binaries of the composed path."""
        from credit_pricer import bs_closed_form, special_functions
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return special_functions.binorm_cdf(*args)

        monkeypatch.setattr(credit_instruments, "binorm_cdf", counted)
        monkeypatch.setattr(bs_closed_form, "binorm_cdf", counted)
        return calls

    @staticmethod
    def _cold(price, *args):
        forget_shared_work()
        return price(*args).hex()

    def test_composite_after_its_option_evaluates_no_orthant(self, bond, market, put_spec,
                                                             call_spec, monkeypatch):
        calls = self._counted_orthants(monkeypatch)
        for spec, composite in ((put_spec, puttable_bond_price), (call_spec, callable_bond_price)):
            forget_shared_work()
            calls[0] = 0
            bond_option_price(139.0, 0.0, bond, spec, market)
            assert calls[0] > 0
            calls[0] = 0
            composite(139.0, 0.0, bond, spec, market)
            bond_option_price(139.0, 0.0, bond, spec, market)
            assert calls[0] == 0, spec.kind

    def test_other_inputs_are_priced_afresh(self, bond, market, put_spec, call_spec):
        point = (139.0, 0.0)
        other_recovery = BondSpec(T=bond.T, a=bond.a, b=bond.b, R=0.6)
        followers = [
            (bond_option_price, point, bond, call_spec),  # the call at the put's point
            (bond_option_price, (139.0, 0.25), bond, put_spec),  # the put at another t
            (bond_option_price, point, other_recovery, put_spec),  # another R
            (callable_bond_price, point, bond, call_spec),
        ]
        for price, (V, t), bnd, spec in followers:
            cold = self._cold(price, V, t, bnd, spec, market)
            bond_option_price(*point, bond, put_spec, market)
            assert price(V, t, bnd, spec, market).hex() == cold, (price.__name__, t, bnd, spec)

    def test_book_position_99_raises_on_both(self, bond, market, put_spec):
        """Book position 99: the option and its puttable bond both raise,
        after a priced point as from a cold memo."""
        overflow = MarketParams(**OVERFLOW_CONFIG["market"])
        overflow_bond = BondSpec(**OVERFLOW_CONFIG["bond"])
        terms = OVERFLOW_CONFIG["option"]
        option = OptionSpec(T1=terms["T1"], E=terms["E"], kind=OptionKind(terms["kind"]))
        (v,), (t,) = OVERFLOW_CONFIG["points"]["V"], OVERFLOW_CONFIG["points"]["t"]
        forget_shared_work()
        messages = []
        for price in (bond_option_price, puttable_bond_price, bond_option_price):
            with pytest.raises(NumericalError) as info:
                price(v, t, overflow_bond, option, overflow)
            messages.append(str(info.value))
            bond_option_price(139.0, 0.0, bond, put_spec, market)
        assert len(set(messages)) == 1

    def test_one_boundary_solve_across_points_that_keep_no_record(self, bond, market, put_spec,
                                                                   monkeypatch):
        """The reference put's boundary outlives the points that price no
        path (on the barrier, at and after T1) and a triple that raises
        (book position 99): its later points solve it no more, and every
        price has the bits of a cold call."""
        terms = OVERFLOW_CONFIG["option"]
        overflow = (BondSpec(**OVERFLOW_CONFIG["bond"]),
                    OptionSpec(T1=terms["T1"], E=terms["E"], kind=OptionKind(terms["kind"])),
                    MarketParams(**OVERFLOW_CONFIG["market"]))
        (v99,), (t99,) = OVERFLOW_CONFIG["points"]["V"], OVERFLOW_CONFIG["points"]["t"]
        reference = (bond, put_spec, market)
        row = [
            (bond_option_price, 139.0, 0.0, reference),
            (bond_option_price, 100.0, 0.25, reference),  # on the barrier
            (bond_option_price, 139.0, put_spec.T1, reference),
            (bond_option_price, 139.0, 1.5, reference),  # after T1
            (bond_option_price, v99, t99, overflow),
            (puttable_bond_price, 139.0, 0.0, reference),
            (bond_option_price, 199.0, 0.3, reference),
        ]

        def outcome(price, V, t, specs):
            try:
                return price(V, t, *specs).hex()
            except NumericalError as exc:
                return str(exc)

        cold = []
        for entry in row:
            forget_shared_work()
            cold.append(outcome(*entry))
        assert cold[4] == "option price overflows a float"

        solve = credit_instruments.early_redemption_boundary
        solves = []
        monkeypatch.setattr(credit_instruments, "early_redemption_boundary",
                            lambda *args: solves.append(args) or solve(*args))
        forget_shared_work()
        assert [outcome(*entry) for entry in row] == cold
        assert solves.count(reference) == 1


class TestIndicatorSplit:
    def test_window_priced_from_either_side(self):
        """1{b < X < s} as ABOVE(b) - ABOVE(s) or BELOW(s) - BELOW(b);
        both splits must price identically."""
        market = MarketParams(r=0.04, q=0.0, sigma=0.5)
        lo, hi = 0.8, 1.4
        kw = dict(beta=0.68, i=-1.0, L=1.1, tau1=0.5, tau2=-0.2, tau3=0.5)

        def p(K, direction):
            params = PowerBinaryParams(K=K, direction=direction, **kw)
            return power_binary_price(1.1, 0.0, 1.0, params, market)

        via_above = p(lo, IndicatorDirection.ABOVE) - p(hi, IndicatorDirection.ABOVE)
        via_below = p(hi, IndicatorDirection.BELOW) - p(lo, IndicatorDirection.BELOW)
        assert via_above == pytest.approx(via_below, rel=1e-10)


class TestComposites:
    def test_collapse_to_bond_after_exercise_date(self, bond, market, put_spec, call_spec):
        for t in (1.2, 1.7):
            b = bond_price(139.0, t, bond, market)
            assert puttable_bond_price(139.0, t, bond, put_spec, market) == b
            assert callable_bond_price(139.0, t, bond, call_spec, market) == b

    def test_exercise_date_payoff(self, bond, market, put_spec, call_spec):
        # V=139: bond below E, holder redeems / issuer leaves alone
        b_low = bond_price(139.0, 1.0, bond, market)
        assert b_low < put_spec.E
        assert puttable_bond_price(139.0, 1.0, bond, put_spec, market) == put_spec.E
        assert callable_bond_price(139.0, 1.0, bond, call_spec, market) == b_low
        # V=300: bond above E, issuer calls / holder leaves alone
        b_high = bond_price(300.0, 1.0, bond, market)
        assert b_high > call_spec.E
        assert puttable_bond_price(300.0, 1.0, bond, put_spec, market) == b_high
        assert callable_bond_price(300.0, 1.0, bond, call_spec, market) == call_spec.E

    def test_puttable_against_pde_oracle(self, bond, market, put_spec):
        got = puttable_bond_price(199.0, 0.0, bond, put_spec, market)
        assert got == pytest.approx(_PUTTABLE_PDE_199, rel=1e-3)
        assert got == pytest.approx(_PUTTABLE_199_REG, rel=1e-10)

    def test_callable_against_pde_oracle(self, bond, market, call_spec):
        got = callable_bond_price(300.0, 0.0, bond, call_spec, market)
        assert got == pytest.approx(_CALLABLE_PDE_300, rel=1e-3)
        assert got == pytest.approx(_CALLABLE_300_REG, rel=1e-10)

    def test_ordering(self, bond, market, put_spec, call_spec):
        for v in (120.0, 199.0, 350.0):
            for t in (0.0, 0.6):
                b = bond_price(v, t, bond, market)
                assert puttable_bond_price(v, t, bond, put_spec, market) >= b
                assert callable_bond_price(v, t, bond, call_spec, market) <= b

    @pytest.mark.parametrize("kind", OptionKind)
    def test_option_that_does_not_fit_the_bond_is_rejected_after_expiry(self, bond, market,
                                                                        kind):
        """After T1 the composite is the plain bond, but its option must still
        fit the bond: E = 1.5 lies above the bracket at T1 = 0.5."""
        option = OptionSpec(T1=0.5, E=1.5, kind=kind)
        price = puttable_bond_price if kind is OptionKind.PUT else callable_bond_price
        with pytest.raises(InvalidOptionError) as before:
            price(150.0, 0.0, bond, option, market)
        for t in (1.5, 2.0):
            with pytest.raises(InvalidOptionError) as after:
                price(150.0, t, bond, option, market)
            assert (type(after.value), str(after.value)) == (
                type(before.value), str(before.value))

    def test_kind_mismatch_rejected(self, bond, market, put_spec, call_spec):
        with pytest.raises(InvalidOptionError):
            puttable_bond_price(150.0, 0.0, bond, call_spec, market)
        with pytest.raises(InvalidOptionError):
            callable_bond_price(150.0, 0.0, bond, put_spec, market)
