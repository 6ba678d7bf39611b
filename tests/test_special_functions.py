"""Tests for the scalar probability kernels.

Reference values were frozen from mpmath at 30 significant digits:
univariate points via erfc, bivariate points via Plackett's identity
N2(a,b;rho) = Phi(a)Phi(b) + (2pi)^-1 int_0^rho exp(-(a^2+b^2-2abs)/(2(1-s^2)))
/ sqrt(1-s^2) ds integrated adaptively.
"""

import json
import math

import mpmath
import pytest
from binorm_reference import GRID_PATH, ORDER_AGREEMENT, orthant

from credit_pricer import (
    DomainError,
    InvalidParamsError,
    MarketParams,
    binorm_cdf,
    norm_cdf,
    norm_pdf,
)
from credit_pricer import special_functions
from credit_pricer.special_functions import _orthant_tail
from credit_pricer.verification import quadrature_sweep

# (x, Phi(x)) frozen from mpmath.erfc at dps=30
_NORM_REFS = (
    (-10.0, 7.619853024160526065973e-24),
    (-2.0, 0.02275013194817920720028),
    (-0.5, 0.3085375387259868963623),
    (0.3, 0.6179114221889526373065),
    (1.0, 0.8413447460685429485852),
    (1.959963985, 0.9750000000268815622992),
    (5.0, 0.9999997133484281208061),
    (8.0, 0.9999999999999993779039),
)

# (a1, a2, rho, N2) frozen from the Plackett integral at dps=30
_BINORM_REFS = (
    (0.3, -0.2, 0.6, 0.3527678331221393205312),
    (0.0, 0.0, 0.5, 0.3333333333333333333333),
    (1.2, -0.7, 0.25, 0.2276193059968971735473),
    (-0.4, 0.9, -0.6, 0.2142089870768082849674),
    (2.0, 1.5, 0.75, 0.9252496322449946076472),
    (0.5, 0.5, 0.95, 0.6469071953667896110843),
    (-1.0, 1.0, -0.95, 0.03052523309934676711812),
    (0.8, -2.2, 0.999, 0.0139034475134986043132),
    (1.5, 1.4, -0.9999, 0.8524361394973708742008),
    (-3.0, 2.5, 0.31, 0.001349745597329751750868),
    (4.0, -4.0, -0.5, 3.118418707083607889581e-5),
    (0.1, 0.2, 0.05, 0.3204687503998442093053),
    # the tail form's early returns: an argument below -40, one above 40
    (-41.0, 0.5, 0.95, 0.0),
    (41.0, -0.3, -0.95, 0.3820885778110473669277),
)


class TestNormCdf:
    def test_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_infinities(self):
        # erfc's limits, bit for bit: no -0.0, no value short of 1
        assert norm_cdf(math.inf).hex() == (1.0).hex()
        assert norm_cdf(-math.inf).hex() == (0.0).hex()

    def test_upper_quantile(self):
        # 1.959963985 is the two-sided 5% quantile rounded to 9 decimals
        assert norm_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
        assert norm_cdf(1.959963985) == pytest.approx(0.9750000000268816, abs=1e-15)

    @pytest.mark.parametrize("x,ref", _NORM_REFS)
    def test_frozen_values(self, x, ref):
        assert abs(norm_cdf(x) - ref) <= 1e-15 * max(1.0, ref)

    def test_absolute_accuracy_dense_grid(self):
        """Absolute error below 1e-15 against a live mpmath sweep."""
        mpmath.mp.dps = 30
        worst = 0.0
        for k in range(-320, 321):
            x = k / 40.0
            ref = float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))
            worst = max(worst, abs(norm_cdf(x) - ref))
        assert worst <= 1e-15, f"worst absolute error {worst:.3e}"

    def test_complement_identity(self):
        for k in range(-80, 81):
            x = k / 8.0
            assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-14

    def test_monotone(self):
        values = [norm_cdf(-8.0 + k / 16.0) for k in range(257)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            norm_cdf(math.nan)

    def test_deep_tail_keeps_relative_accuracy(self):
        # erfc-based evaluation: the lower tail stays far above underflow
        assert norm_cdf(-30.0) == pytest.approx(4.906713927148187e-198, rel=1e-13)


class TestNormPdf:
    def test_peak(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_infinite_argument_is_zero(self):
        assert norm_pdf(math.inf).hex() == (0.0).hex()
        assert norm_pdf(-math.inf).hex() == (0.0).hex()

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            norm_pdf(math.nan)


class TestBinormCdf:
    def test_infinite_first_limit_reduces_to_univariate(self):
        assert binorm_cdf(math.inf, 0.7, 0.5) == norm_cdf(0.7)

    def test_infinite_second_limit_reduces_to_univariate(self):
        assert binorm_cdf(-0.3, math.inf, -0.8) == norm_cdf(-0.3)

    def test_minus_infinity_is_zero(self):
        assert binorm_cdf(-math.inf, 1.0, 0.2) == 0.0
        assert binorm_cdf(1.0, -math.inf, 0.2) == 0.0

    def test_origin_independent(self):
        assert binorm_cdf(0.0, 0.0, 0.0) == 0.25

    def test_shared_nodes_change_no_result(self):
        # more rho values than the per-rho node memo keeps, in two orders
        args = [(0.4 - 0.3 * j, -1.1 + 0.2 * j, rho)
                for j in range(12) for rho in (-0.9, -0.6, -0.2, -0.0, 0.0, 0.1,
                                               0.29, 0.3, 0.5, 0.74, 0.75, 0.92)]
        fresh = []
        for a in args:
            special_functions._dw_nodes.cache_clear()
            fresh.append(binorm_cdf(*a).hex())
        forward = [binorm_cdf(*a).hex() for a in args]
        backward = [binorm_cdf(*a).hex() for a in reversed(args)][::-1]
        assert forward == backward == fresh
        assert special_functions._dw_nodes.cache_info().currsize <= 8

    def test_origin_half_correlation(self):
        # closed form 1/4 + arcsin(rho)/(2 pi) = 1/3 at rho = 1/2
        assert binorm_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_reference_point(self):
        got = binorm_cdf(0.3, -0.2, 0.6)
        assert got == pytest.approx(0.3527678331221393, abs=1e-10)

    @pytest.mark.parametrize("a1,a2,rho,ref", _BINORM_REFS)
    def test_frozen_values(self, a1, a2, rho, ref):
        assert abs(binorm_cdf(a1, a2, rho) - ref) <= 1e-12

    def test_perfect_positive_correlation(self):
        for a1, a2 in ((0.5, 1.5), (-1.0, -0.2), (2.0, 2.0), (-3.0, 4.0)):
            got = binorm_cdf(a1, a2, 1.0)
            assert got == norm_cdf(min(a1, a2))

    def test_perfect_negative_correlation(self):
        for a1, a2 in ((0.5, 1.5), (-1.0, -0.2), (2.0, 2.0), (-0.3, 0.3)):
            got = binorm_cdf(a1, a2, -1.0)
            assert got == max(0.0, norm_cdf(min(a1, a2)) - norm_cdf(-max(a1, a2)))

    def test_symmetry_in_arguments(self):
        for a1, a2, rho, _ in _BINORM_REFS:
            lhs = binorm_cdf(a1, a2, rho)
            rhs = binorm_cdf(a2, a1, rho)
            assert abs(lhs - rhs) <= 1e-12

    def test_complement_identity(self):
        """Phi(a1) - N2(a1, a2; rho) = N2(a1, -a2; -rho), the split of the
        half-plane below a1 into the two strike sides."""
        for a1, a2, rho, _ in _BINORM_REFS:
            lhs = norm_cdf(a1) - binorm_cdf(a1, a2, rho)
            rhs = binorm_cdf(a1, -a2, -rho)
            assert abs(lhs - rhs) <= 1e-11, f"({a1},{a2},{rho}): {lhs!r} vs {rhs!r}"

    def test_monotone_in_each_limit(self):
        rho = 0.4
        values = [binorm_cdf(a, 0.3, rho) for a in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(x < y for x, y in zip(values, values[1:]))
        values = [binorm_cdf(0.3, a, rho) for a in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_within_unit_interval(self):
        for a1, a2, rho, _ in _BINORM_REFS:
            got = binorm_cdf(a1, a2, rho)
            assert 0.0 <= got <= 1.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            binorm_cdf(math.nan, 0.0, 0.0)
        with pytest.raises(DomainError):
            binorm_cdf(0.0, math.nan, 0.0)

    def test_correlation_out_of_range_rejected(self):
        for rho in (1.5, -1.0000001, math.nan):
            with pytest.raises(InvalidParamsError):
                binorm_cdf(0.3, -0.2, rho)
            # the correlation is checked before the limits
            with pytest.raises(InvalidParamsError):
                binorm_cdf(math.nan, 0.0, rho)


def _grid_rows():
    return json.loads(GRID_PATH.read_text())["points"]


class TestBinormTail:
    """binorm_cdf against the mpmath grid of tests/binorm_reference.py: rho
    in [-1, 1] and limits down to -38.

    binorm_cdf runs the Drezner-Wesolowsky scheme for |rho| < 0.925 and
    the tail form for |rho| >= 0.925 and where that scheme cancels. On the
    grid it is within 1e-12 relative of the reference wherever the orthant
    exceeds 1e-10, rho = -1 included, and within the 1e-13 absolute spec
    everywhere. Below 1e-10 only the results of the tail form are relative
    to 1e-12; elsewhere the Drezner-Wesolowsky scheme keeps its absolute
    accuracy (see binorm_cdf). The tail form itself is within 1e-12
    relative wherever the orthant exceeds 1e-300.
    """

    def test_grid_against_mpmath(self):
        misses = []
        for a1, a2, rho, ref in _grid_rows():
            truth, got = float(ref), binorm_cdf(a1, a2, rho)
            assert abs(got - truth) <= 1e-13, (a1, a2, rho)
            if truth > 1e-10 and abs(got - truth) > 1e-12 * truth:
                misses.append((a1, a2, rho, got, truth))
        assert misses == []

    def test_tail_form_against_mpmath(self):
        misses = []
        for a1, a2, rho, ref in _grid_rows():
            truth = float(ref)
            if abs(rho) == 1.0 or truth <= 1e-300:
                continue
            got = _orthant_tail(a1, a2, rho)
            if abs(got - truth) > 1e-12 * truth:
                misses.append((a1, a2, rho, got, truth))
        assert misses == []

    @pytest.mark.parametrize("a1, a2, rho", [
        (-0.7168, -1.152, -0.9904),  # sharply peaked conditional integrand
        (-2.0, -2.0, -0.99),         # 5e-179, where the main scheme returns 0
        (1.0, 2.0, -0.999999),       # the conditional integrand falls off a cliff
        (-30.0, -30.0, 0.5),
    ])
    def test_reference_orders_agree(self, a1, a2, rho):
        """The reference is the same in both orders of integration, and it
        is the value the grid stores wherever the grid has the point."""
        value, gap = orthant(a1, a2, rho)
        assert gap <= ORDER_AGREEMENT
        stored = {(r[0], r[1], r[2]): r[3] for r in _grid_rows()}
        if (a1, a2, rho) in stored:
            assert mpmath.mpf(stored[a1, a2, rho]) == pytest.approx(value, rel=1e-18)

    @pytest.mark.parametrize("a1, a2, rho", [
        (-2.0, 0.0, -0.9), (-5.0, 2.0, -0.9), (-4.0, -3.0, -0.5), (-0.7168, -1.152, -0.9904),
        # a book orthant of 2.3e-220
        (-29.309, -31.659, 0.934),
        (-1.0, 0.5, 0.95), (-6.0, -7.5, 0.99), (-3.0, 2.0, -0.97), (1.5, -4.0, -0.93),
    ])
    def test_cancelling_orthants_come_from_the_tail_form(self, a1, a2, rho):
        """Where the Drezner-Wesolowsky sum cancels (rho < 0, the orthant
        far below Phi(a1) Phi(a2)), and wherever |rho| >= 0.925, binorm_cdf
        returns the tail form, within 1e-12 relative of the reference."""
        got = binorm_cdf(a1, a2, rho)
        assert got == _orthant_tail(a1, a2, rho)
        assert got == pytest.approx(float(orthant(a1, a2, rho)[0]), rel=1e-12)

    @pytest.mark.parametrize("seed", [6, 14, 17])
    def test_sweep_passes_where_the_tail_failed_it(self, seed):
        """The quadrature sweep failed at these MC seeds, each at a draw
        with rho near -0.91 where the orthant cancelled."""
        check = quadrature_sweep(seed)
        assert check.ok, check


class TestMarketParams:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidParamsError):
            MarketParams(r=0.04, q=0.0, sigma=0.0)
        with pytest.raises(InvalidParamsError):
            MarketParams(r=0.04, q=0.0, sigma=-0.2)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParamsError):
            MarketParams(r=math.inf, q=0.0, sigma=0.5)

    def test_negative_rates_allowed(self):
        m = MarketParams(r=-0.01, q=-0.02, sigma=0.5)
        assert m.r == -0.01


class TestHedgeSlackPositivity:
    def test_density_plus_weighted_cdf_positive(self):
        """phi(xi) + xi Phi(xi) > 0 on [-10, 10]. The expression is the
        slack that keeps the bond's delta strictly positive."""
        for k in range(2001):
            xi = -10.0 + k * 0.01
            g = norm_pdf(xi) + xi * norm_cdf(xi)
            assert g > 0.0, f"nonpositive at xi={xi}: {g!r}"
