"""Acceptance suite: seven go/no-go checks for the pricing engine.

Covers the early-redemption boundary value, closed-form agreement with the
three independent oracles (quadrature, Crank-Nicolson PDE, barrier-monitored
Monte Carlo), the structural invariant battery, the two evaluation paths of
the option formula, and the qualitative shape of the exported curves.

Each test prints exactly one PASS/FAIL line with the measured quantity and
its budget; run `pytest -s tests/test_acceptance.py` to watch them stream.
"""

import math
import time

from credit_pricer import (
    GridSpec,
    McSpec,
    bond_option_price,
    early_redemption_boundary,
    exercise_value,
    verification,
)
from credit_pricer.cli import main

_PROBE_V = (139.0, 199.0, 300.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_early_redemption_boundary(bond, put_spec, market):
    start = time.monotonic()
    res = early_redemption_boundary(bond, put_spec, market)
    elapsed = time.monotonic() - start
    err = abs(res.K - 199.109)
    ok = err <= 0.01 and elapsed < 1.0
    _report("criterion 1, early-redemption boundary", ok,
            f"K={res.K:.6f}, |K-199.109|={err:.2e} (tol 1e-2), "
            f"{elapsed:.2f}s (budget 1s)")


def test_criterion_2_quadrature_equivalence():
    start = time.monotonic()
    check = verification.quadrature_sweep(1729)
    elapsed = time.monotonic() - start
    assert check.tol == 1e-6
    ok = check.ok and elapsed < 30.0
    _report("criterion 2, closed form vs quadrature", ok,
            f"200 draws, worst rel {check.measured:.2e} (tol 1e-6), "
            f"{elapsed:.1f}s (budget 30s)")


def test_criterion_3_pde_cross_check(bond, put_spec, call_spec, market):
    """Crank-Nicolson agreement at V in {139, 199, 300}, t in {0, 0.5, T1-}.

    Bond and survival probe t=T1 as an interior grid time of their own
    problem. For the options, t=T1- is the expiry limit: the closed form
    just before T1 against the scheme's terminal condition, which the
    solver holds exactly at the nodes. Interior option probes stop at 0.5.
    """
    start = time.monotonic()
    checks = verification.pde_checks(bond, market, put_spec,
                                     GridSpec(n_space=801, n_time=800), _PROBE_V)
    assert all(check.tol == 1e-3 for check in checks)
    worst = {check.name: check.measured for check in checks}
    for spec in (put_spec, call_spec):
        expiry_gap = max(
            abs(bond_option_price(v, spec.T1 - 1e-9, bond, spec, market)
                - exercise_value(v, bond, spec, market))
            / max(abs(exercise_value(v, bond, spec, market)), 1e-12)
            for v in _PROBE_V)
        worst[f"{spec.kind.value}_expiry_limit"] = expiry_gap
    elapsed = time.monotonic() - start

    overall = max(worst.values())
    ok = overall <= 1e-3 and elapsed < 60.0
    parts = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report("criterion 3, Crank-Nicolson cross-check", ok,
            f"worst rel {overall:.2e} (tol 1e-3; {parts}), "
            f"{elapsed:.1f}s (budget 60s)")


def test_criterion_4_monte_carlo_cross_check(bond, put_spec, market):
    start = time.monotonic()
    mc = McSpec(n_paths=100000, n_steps=200, seed=1729,
                bridge_correction=True)
    bond_check, puttable_check = verification.mc_checks(bond, market, put_spec, 199.0, mc)
    elapsed = time.monotonic() - start

    assert bond_check.tol == puttable_check.tol == 3.0
    ok = bond_check.ok and puttable_check.ok and elapsed < 60.0
    _report("criterion 4, Monte-Carlo cross-check", ok,
            f"bond z={bond_check.measured:.2f}, "
            f"puttable z={puttable_check.measured:.2f} (tol 3 SE), "
            f"{elapsed:.1f}s (budget 60s)")


def test_criterion_5_invariant_suite(bond, put_spec, market):
    checks = [
        (verification.survival_shape(bond, market), 0.0),
        (verification.bond_shape(bond, market), 0.0),
        (verification.image_annihilation(1730), 1e-12),
        (verification.parity_at_expiry(bond, market, put_spec, _PROBE_V), 1e-6),
        (verification.direction_complement(1731), 1e-10),
        (verification.hedge_positivity(), 0.0),
    ]
    assert all(check.tol == tol for check, tol in checks)
    failures = [f"{check.name} {check.measured:.2e} > {tol:.0e}"
                for check, tol in checks if not check.ok]

    ok = not failures
    _report("criterion 5, invariant suite", ok,
            "6 invariants, all hold" if ok else "; ".join(failures))


def test_criterion_6_formula_vs_composition():
    """The literal option formula and the compositional path (power-binary
    legs, image transform, change of variables) must price identically."""
    start = time.monotonic()
    check = verification.formula_vs_composition(24601)
    elapsed = time.monotonic() - start
    assert check.tol == 1e-9
    assert verification.FORMULA_VS_COMPOSITION_DRAWS == 100
    _report("criterion 6, formula vs composition", check.ok,
            f"100 draws, worst rel {check.measured:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_7_curve_shapes(tmp_path, capsys):
    start = time.monotonic()

    def read_csv(figure):
        out = tmp_path / f"figure{figure}.csv"
        code = main(["curves", "--figure", str(figure), "--samples", "101",
                     "--out", str(out)])
        assert code == 0, f"curves --figure {figure} exited {code}"
        lines = out.read_text().splitlines()
        rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
        return lines[1].split(","), [list(col) for col in zip(*rows)]

    problems = []

    # bond price increases in the firm value: across series on the time
    # figure (ties allowed where the discounted face saturates near
    # maturity) and through sampled differences on the firm-value figure
    header, cols = read_csv(1)
    series = cols[1:]
    for lo, hi in zip(series, series[1:]):
        if not (all(a <= b for a, b in zip(lo, hi)) and lo[0] < hi[0]):
            problems.append("figure 1: bond not increasing across V series")
    header, cols = read_csv(2)
    if not all(b > a for a, b in zip(cols[1], cols[1][1:])):
        problems.append("figure 2: bond not increasing in V")

    header, cols = read_csv(3)
    if not all(math.isfinite(v) and v >= 0.0 for col in cols[1:] for v in col):
        problems.append("figure 3: option curves not finite nonnegative")

    # put dies on the barrier and decays for large firm values
    header, cols = read_csv(4)
    for name, col in zip(header[1:], cols[1:]):
        tail = col[75:]
        if col[0] != 0.0:
            problems.append(f"figure 4 {name}: nonzero on the barrier")
        if not max(col) > 0.0:
            problems.append(f"figure 4 {name}: degenerate curve")
        if not all(b < a for a, b in zip(tail, tail[1:])):
            problems.append(f"figure 4 {name}: tail not decreasing")

    # puttable bond increases in the firm value (ties allowed where the
    # curves sit on the exercise amount at T1 or saturate near maturity)
    header, cols = read_csv(5)
    series = cols[1:]
    for lo, hi in zip(series, series[1:]):
        if not (all(a <= b for a, b in zip(lo, hi)) and lo[0] < hi[0]):
            problems.append("figure 5: puttable not increasing across V series")
    elapsed = time.monotonic() - start

    ok = not problems
    _report("criterion 7, exported curve shapes", ok,
            f"figures 1-5, all shape conditions hold, {elapsed:.1f}s"
            if ok else "; ".join(problems))
