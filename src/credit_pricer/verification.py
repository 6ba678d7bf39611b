"""The check battery behind the claim that the closed forms solve their
terminal boundary value problems: agreement with the Crank-Nicolson,
Monte Carlo and quadrature oracles, and the structural invariants.

Each check takes its inputs explicitly and returns a Check record; it
passes when the measured quantity does not exceed the tolerance, and a
worst gap that is NaN fails it (_worst). The PDE and Monte Carlo checks come
in groups (pde_checks, mc_checks), each solved or simulated once, before its
checks; a failed solve, or a grid short of a probe or the boundary, fails
only the checks that need it. The `verify` command and the acceptance suite
run these same functions, so both use one set of probes, draw counts and
tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .bs_closed_form import (IndicatorDirection, PowerBinaryParams, image_transform,
                             power_binary_price)
from .credit_instruments import (BondSpec, OptionKind, OptionSpec, barrier_level,
                                 bond_option_price, bond_price, callable_bond_price,
                                 early_redemption_boundary, exercise_value,
                                 option_price_paths, puttable_bond_price,
                                 survival_probability)
from .errors import DomainError, NumericalError
from .oracles import (GridSpec, McSpec, draw_verification_case,
                      mc_barrier_prices, pde_solve_tbvp, quadrature_green)
from .special_functions import MarketParams, norm_cdf, norm_pdf

__all__ = [
    "Check", "FORMULA_VS_COMPOSITION_DRAWS", "pde_surfaces", "pde_checks", "mc_checks",
    "quadrature_sweep", "quadrature_bond", "survival_shape", "bond_shape",
    "image_annihilation", "parity_at_expiry", "direction_complement",
    "hedge_positivity", "formula_vs_composition",
]

# Random option positions drawn by formula_vs_composition.
FORMULA_VS_COMPOSITION_DRAWS = 100


@dataclass(frozen=True)
class Check:
    """Outcome of one check. A NumericalError, float overflow or division by
    zero inside the check is recorded in error, with NaN measured and tol,
    and fails the check."""

    name: str
    measured: float
    tol: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.measured <= self.tol


def _run(name: str, tol: float, measure) -> Check:
    try:
        return Check(name, measure(), tol)
    except (NumericalError, ArithmeticError) as exc:
        return Check(name, math.nan, math.nan, str(exc))


def _worst(gaps) -> float:
    """The largest of gaps, or 0.0 for none. A NaN gap raises
    NumericalError, which fails the check, where max would drop it."""
    worst = 0.0
    for gap in gaps:
        if math.isnan(gap):
            raise NumericalError("a gap is NaN")
        worst = max(worst, gap)
    return worst


def _flatten(v: float, t: float, bond: BondSpec) -> float:
    return v * math.exp(bond.a * (bond.T - t)) / bond.b


def _rebate(bond: BondSpec, market: MarketParams):
    return lambda t: bond.R * math.exp(-market.r * (bond.T - t))


def _held(solve):
    """solve(), or the NumericalError or ArithmeticError it raised."""
    try:
        return solve()
    except (NumericalError, ArithmeticError) as exc:
        return exc


def _value(outcome):
    """outcome, raised again where it is an exception: inside a check's _run."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def pde_surfaces(bond: BondSpec, market: MarketParams, option: OptionSpec | None,
                 grid: GridSpec) -> dict:
    """The bond and survival problems and, when an option is given, the put
    and call problems at its T1 and E, solved on one grid in flattened
    coordinates with the barrier at 1. Keys: bond, survival, put, call."""
    c = market.r - market.q - bond.a
    if not math.isfinite(c):
        raise NumericalError("carry r - q - a overflows a float")

    def solve(payoff, boundary, r_disc, horizon, align=None):
        return pde_solve_tbvp(payoff, boundary, c, market.sigma, r_disc,
                              horizon, grid, align_at=align)

    surfaces = {
        "bond": solve(lambda x: 1.0, _rebate(bond, market), market.r, bond.T),
        "survival": solve(lambda x: 1.0, lambda t: 0.0, 0.0, bond.T),
    }
    if option is not None:
        lvl_t1 = barrier_level(bond, option.T1)
        align = _flatten(early_redemption_boundary(bond, option, market).K, option.T1, bond)
        if not 1.0 < align < grid.x_max_mult:
            raise NumericalError(f"early redemption boundary at x={align} lies outside "
                                 f"the grid (1, {grid.x_max_mult})")
        for kind in OptionKind:
            spec = replace(option, kind=kind)

            def payoff(x, spec=spec):
                return exercise_value(lvl_t1 * x, bond, spec, market)

            surfaces[kind.value] = solve(payoff, lambda t: 0.0, market.r, option.T1,
                                         align=align)
    return surfaces


def pde_checks(bond: BondSpec, market: MarketParams, option: OptionSpec | None,
               grid: GridSpec, probe_v) -> list[Check]:
    """Bond and survival and, when an option is given, the put and the call
    at its T1 and E against their pde_surfaces at the probe firm values and
    t in {0, T1/2, T1} (T1 = T/2 without an option; the options stop at
    T1/2); worst relative gap, tolerance 1e-3. A probe beyond the solved
    grid fails its check numerically."""
    surfaces = _held(lambda: pde_surfaces(bond, market, option, grid))
    t1 = option.T1 if option is not None else bond.T / 2.0
    probe_t = [0.0, t1 / 2.0, t1]

    def check(key, times, price, *specs):
        def gaps():
            surface = _value(surfaces)[key]
            for v in probe_v:
                for t in times:
                    cf = price(v, t, *specs)
                    try:
                        pde = surface.value(_flatten(v, t, bond), t)
                    except DomainError as exc:
                        raise NumericalError(f"{exc}, which ends at x={surface.x[-1]}") from exc
                    yield abs(pde - cf) / max(abs(cf), 1e-12)
        return _run(f"pde_{key}_agreement", 1e-3, lambda: _worst(gaps()))

    checks = [check("bond", probe_t, bond_price, bond, market),
              check("survival", probe_t, survival_probability, bond, market)]
    if option is not None:
        for kind in OptionKind:
            checks.append(check(kind.value, probe_t[:2], bond_option_price, bond,
                                replace(option, kind=kind), market))
    return checks


def mc_checks(bond: BondSpec, market: MarketParams, option: OptionSpec | None,
              v0: float, mc: McSpec) -> list[Check]:
    """The bond price at (v0, 0) and, when an option is given, the puttable
    (put) or callable (call) bond against one barrier-monitored simulation;
    the composite's claim runs to T1 and pays max or min of B(V, T1) and E.
    measured is each gap in standard errors, tolerance 3.

    The closed forms are priced first, so a firm value below the barrier or
    an ill-fitting option raises before any draw; then both claims share one
    pass over the random stream (mc_barrier_prices). A closed form or claim
    that fails numerically fails only its own check; other errors propagate."""
    rebate = _rebate(bond, market)
    entries = [("mc_bond_within_3se", lambda: bond_price(v0, 0.0, bond, market),
             (lambda v: 1.0, rebate, bond.T, bond.a, bond.b, bond.T))]
    if option is not None:
        if option.kind is OptionKind.PUT:
            name, composite, exercise = "mc_puttable_within_3se", puttable_bond_price, max
        else:
            name, composite, exercise = "mc_callable_within_3se", callable_bond_price, min
        entries.append((name, lambda: composite(v0, 0.0, bond, option, market), (
            lambda v: exercise(bond_price(v, option.T1, bond, market), option.E),
            rebate, option.T1, bond.a, bond.b, bond.T)))
    closed = [_held(price) for _, price, _ in entries]
    simulated = _held(lambda: mc_barrier_prices([claim for *_, claim in entries], market, mc, v0))

    def gap(k):
        if k:  # the composite reports a failed closed form first, the bond a failed pass
            _value(closed[k])
        est, se = _value(_value(simulated)[k])
        return abs(est - _value(closed[k])) / se

    return [_run(name, 3.0, lambda k=k: gap(k)) for k, (name, _, _) in enumerate(entries)]


def quadrature_sweep(seed: int) -> Check:
    """200 random power-binary prices against quadrature of the terminal
    density; worst relative gap, tolerance 1e-6."""
    def gaps():
        rng = random.Random(seed)
        for _ in range(200):
            X, tau, params, market = draw_verification_case(rng)
            cf = power_binary_price(X, 0.0, tau, params, market)
            qd = quadrature_green(X, tau, params, market)
            yield abs(cf - qd) / max(abs(cf), abs(qd), 1e-300)

    return _run("quadrature_power_binary_sweep", 1e-6, lambda: _worst(gaps()))


def quadrature_bond(bond: BondSpec, market: MarketParams, probe_v) -> Check:
    """Bond price at t = 0 rebuilt from the survival weight as the image of
    a cash binary, each leg priced by quadrature under zero rate and
    dividend -c; worst absolute gap, tolerance 1e-8."""
    def gaps():
        closed = [bond_price(v, 0.0, bond, market) for v in probe_v]  # fails first on an overflow
        c = market.r - market.q - bond.a
        drift_only = MarketParams(r=0.0, q=-c, sigma=market.sigma)
        gamma = 1.0 - 2.0 * c / (market.sigma * market.sigma)
        cash = PowerBinaryParams(beta=0.0, i=0.0, L=0.0, K=1.0, tau1=0.0, tau2=0.0, tau3=1.0)
        for v, cf in zip(probe_v, closed):
            x = _flatten(v, 0.0, bond)
            w = (quadrature_green(x, bond.T, cash, drift_only)
                 - x**gamma * quadrature_green(1.0 / x, bond.T, cash, drift_only))
            quad_bond = math.exp(-market.r * bond.T) * (bond.R + (1.0 - bond.R) * w)
            yield abs(quad_bond - cf)

    return _run("quadrature_bond_agreement", 1e-8, lambda: _worst(gaps()))


def _shape_violations(value, bounds, bond: BondSpec) -> int:
    """Count violated strict bounds lo(t) < value < hi(t) and strict
    increases in V on 20 times x 50 firm values up to 3x the barrier and
    0.95 T. Further out the survival weight saturates to 1.0 in double
    precision and a strict inequality stops being measurable."""
    violations = 0
    for mt in range(20):
        t = bond.T * mt / 20.0
        lvl = barrier_level(bond, t)
        lo, hi = bounds(t)
        prev = None
        for mx in range(1, 51):
            w = value(lvl * (1.0 + 0.04 * mx), t)
            violations += not (lo < w < hi)
            if prev is not None:
                violations += not (w > prev)
            prev = w
    return violations


def survival_shape(bond: BondSpec, market: MarketParams) -> Check:
    """0 < W < 1 and W increasing in V; measured counts violations."""
    return _run("survival_bounds_and_monotone", 0.0, lambda: _shape_violations(
        lambda v, t: survival_probability(v, t, bond, market),
        lambda t: (0.0, 1.0), bond))


def bond_shape(bond: BondSpec, market: MarketParams) -> Check:
    """R e^{-r(T-t)} < B < e^{-r(T-t)} and B increasing in V."""
    def bounds(t):
        disc = math.exp(-market.r * (bond.T - t))
        return bond.R * disc, disc

    return _run("bond_bounds_and_monotone", 0.0, lambda: _shape_violations(
        lambda v, t: bond_price(v, t, bond, market), bounds, bond))


def image_annihilation(seed: int) -> Check:
    """25 random power-binary prices barriered by the image transform
    vanish on the barrier; worst absolute value, tolerance 1e-12."""
    def gaps():
        rng = random.Random(seed)
        for _ in range(25):
            X, tau, params, mkt = draw_verification_case(rng)
            level = X * math.exp(rng.uniform(-0.5, 0.5))

            def u(x, t, tau=tau, params=params, mkt=mkt):
                return power_binary_price(x, t, tau, params, mkt)

            barriered = image_transform(u, level, mkt.r - mkt.q, mkt.sigma)
            yield abs(barriered(level, 0.0))

    return _run("image_barrier_annihilation", 1e-12, lambda: _worst(gaps()))


def parity_at_expiry(bond: BondSpec, market: MarketParams, option: OptionSpec,
                     probe_v) -> Check:
    """P - C -> E - B just before T1 for put and call at the option's T1
    and E; worst absolute gap, tolerance 1e-6."""
    def gaps():
        t = option.T1 - 1e-8
        put = replace(option, kind=OptionKind.PUT)
        call = replace(option, kind=OptionKind.CALL)
        for v in probe_v:
            p = bond_option_price(v, t, bond, put, market)
            c = bond_option_price(v, t, bond, call, market)
            b = bond_price(v, t, bond, market)
            yield abs(p - c - (option.E - b))

    return _run("put_call_parity_at_expiry", 1e-6, lambda: _worst(gaps()))


def direction_complement(seed: int) -> Check:
    """Above-strike plus below-strike legs equal the unconditional price
    over 100 random draws (those with a positive strike); worst relative
    gap, tolerance 1e-10."""
    def gaps():
        rng = random.Random(seed)
        for _ in range(100):
            X, tau, params, mkt = draw_verification_case(rng)
            if params.K <= 0.0:
                continue
            above = replace(params, direction=IndicatorDirection.ABOVE)
            below = replace(params, direction=IndicatorDirection.BELOW)
            full = replace(params, K=0.0, direction=IndicatorDirection.ABOVE)
            lhs = power_binary_price(X, 0.0, tau, above, mkt) \
                + power_binary_price(X, 0.0, tau, below, mkt)
            rhs = power_binary_price(X, 0.0, tau, full, mkt)
            yield abs(lhs - rhs) / max(abs(rhs), 1e-12)

    return _run("direction_complement_identity", 1e-10, lambda: _worst(gaps()))


def hedge_positivity() -> Check:
    """The hedge slack phi(xi) + xi Phi(xi) stays positive on [-10, 10];
    measured counts violations."""
    def measure():
        violations = 0
        for k in range(2001):
            xi = -10.0 + 20.0 * k / 2000.0
            violations += not (norm_pdf(xi) + xi * norm_cdf(xi) > 0.0)
        return violations

    return _run("hedge_ratio_positivity", 0.0, measure)


def formula_vs_composition(seed: int) -> Check:
    """The literal option formula and the compositional path over
    FORMULA_VS_COMPOSITION_DRAWS random positions; worst gap relative to
    max(1, |price|), tolerance 1e-9."""
    def gaps():
        rng = random.Random(seed)
        for _ in range(FORMULA_VS_COMPOSITION_DRAWS):
            mkt = MarketParams(r=rng.uniform(0.01, 0.08), q=rng.uniform(0.0, 0.03),
                               sigma=rng.uniform(0.2, 0.7))
            bnd = BondSpec(T=rng.uniform(1.5, 3.0), a=rng.uniform(-0.05, 0.08),
                           b=100.0, R=rng.uniform(0.0, 0.9))
            t1 = bnd.T * rng.uniform(0.3, 0.7)
            disc = math.exp(-mkt.r * (bnd.T - t1))
            e = disc * (bnd.R + (1.0 - bnd.R) * rng.uniform(0.2, 0.9))
            kind = rng.choice((OptionKind.PUT, OptionKind.CALL))
            option = OptionSpec(T1=t1, E=e, kind=kind)
            t = rng.uniform(0.0, 0.8) * t1
            v = barrier_level(bnd, t) * math.exp(rng.uniform(0.01, 1.5))
            lhs, rhs = option_price_paths(v, t, bnd, option, mkt)
            yield abs(lhs - rhs) / max(1.0, abs(lhs))

    return _run("option_formula_vs_composition", 1e-9, lambda: _worst(gaps()))
