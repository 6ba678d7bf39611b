"""mpmath reference for the bivariate normal lower orthant, and the grid of
reference values that tests/test_special_functions.py checks binorm_cdf
against.

The orthant is the conditional integral

    N2(a1, a2; rho) = int_{-inf}^{a1} phi(x) Phi((a2 - rho x) / s) dx,
    s = sqrt(1 - rho^2),

whose integrand is log-concave and can be sharply peaked (width down to s)
or fall off a cliff of width s / |rho| where Phi's argument crosses 0. A
plain adaptive quadrature over [-inf, a1] misses such features: it was off
by 1e-5 relative at (-0.7168, -1.152, -0.9904). So the integral is split
at the peak and the cliff and at multiples of their widths on both sides,
and it is taken in both orders (over x below a1 and over y below a2), which
must agree.

    python tests/binorm_reference.py    # rewrite tests/data/binorm_grid.json
"""

import json
import math
import random
from pathlib import Path

import mpmath as mp

GRID_PATH = Path(__file__).with_name("data") / "binorm_grid.json"
DPS = 30
# both orders of integration agree to this relative gap at every grid point
ORDER_AGREEMENT = 1e-20

GRID_RHO = (-1.0, -0.999999, -0.9999, -0.999, -0.99, -0.95, -0.925, -0.92, -0.9,
            -0.8, -0.6, -0.3, -0.1, 0.0, 0.1, 0.3, 0.6, 0.8, 0.9, 0.925, 0.95, 0.99,
            0.9999, 0.999999, 1.0)
GRID_LIMITS = (-38.0, -30.0, -20.0, -12.0, -7.0, -4.0, -2.0, -1.0, -0.3, 0.0, 1.0,
               3.0, 6.0)
RANDOM_POINTS = 300


def _one_order(a1, a2, rho):
    """int_{-inf}^{a1} phi(x) Phi((a2 - rho x)/s) dx for |rho| < 1."""
    s = mp.sqrt((1 - rho) * (1 + rho))

    def log_f(x):
        return -x * x / 2 + mp.log(mp.ncdf((a2 - rho * x) / s))

    def slope(x):  # of log_f
        w = (a2 - rho * x) / s
        return -x - (rho / s) * mp.npdf(w) / mp.ncdf(w)

    def curvature(x):  # -(log_f)'' >= 1
        w = (a2 - rho * x) / s
        lam = mp.npdf(w) / mp.ncdf(w)
        return 1 + (rho / s) ** 2 * lam * (lam + w)

    # the peak of the integrand on (-inf, a1]: log_f is concave
    if slope(a1) >= 0:
        peak = a1
    else:
        lo, hi = a1 - 1, a1
        while slope(lo) < 0:
            lo = a1 - 2 * (a1 - lo)
        for _ in range(mp.mp.prec + 20):
            mid = (lo + hi) / 2
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        peak = (lo + hi) / 2
    width = 1 / mp.sqrt(curvature(peak))
    if slope(peak) > 0:
        width = min(width, 1 / slope(peak))
    # Phi's argument crosses 0 at x = a2 / rho, where the integrand can fall
    # off a cliff of width s / |rho| far from its peak
    cliff, cliff_width = a2 / rho, s / abs(rho)
    nodes = {peak + k * width for k in (-64, -16, -4, -1, 0, 1, 4, 16)}
    nodes |= {cliff + k * cliff_width for k in (-64, -16, -4, -1, 0, 1, 4, 16, 64)}
    nodes = [-mp.inf] + sorted(x for x in nodes if x < a1) + [a1]
    top = log_f(peak)
    value = mp.quad(lambda x: mp.exp(log_f(x) - top), nodes)
    return value * mp.exp(top) / mp.sqrt(2 * mp.pi)


def orthant(a1, a2, rho):
    """N2(a1, a2; rho) as an mpf at DPS digits, and the relative gap between
    the two orders of integration (0 where a closed form applies)."""
    with mp.workdps(DPS):
        a1, a2, rho = mp.mpf(a1), mp.mpf(a2), mp.mpf(rho)
        if rho == 1:
            return mp.ncdf(min(a1, a2)), 0.0
        if rho == -1:
            return max(mp.mpf(0), mp.ncdf(a1) + mp.ncdf(a2) - 1), 0.0
        if rho == 0:
            return mp.ncdf(a1) * mp.ncdf(a2), 0.0
        x = _one_order(a1, a2, rho)
        y = _one_order(a2, a1, rho)
        return x, float(abs(x - y) / x)


def grid_points():
    """The grid (every rho against every pair a1 <= a2 of GRID_LIMITS) and
    RANDOM_POINTS seeded random points, half of them with limits in
    [-9, 1] and the rest down to -38."""
    points = [(a1, a2, rho) for rho in GRID_RHO for i, a1 in enumerate(GRID_LIMITS)
              for a2 in GRID_LIMITS[i:]]
    rng = random.Random(20240611)
    for n in range(RANDOM_POINTS):
        low = -9.0 if n % 2 else -38.0
        rho = math.tanh(rng.uniform(-7.0, 7.0)) if n % 3 else rng.uniform(-1.0, 1.0)
        points.append((rng.uniform(low, 1.0), rng.uniform(low, 1.0), rho))
    return points


def main():
    rows = []
    for a1, a2, rho in grid_points():
        value, gap = orthant(a1, a2, rho)
        if gap > ORDER_AGREEMENT:
            raise SystemExit(f"orders disagree by {gap:.1e} at {(a1, a2, rho)}")
        rows.append([a1, a2, rho, mp.nstr(value, 20, min_fixed=1, max_fixed=0)])
    GRID_PATH.parent.mkdir(exist_ok=True)
    GRID_PATH.write_text(f'{{"dps": {DPS}, "points": [\n'
                         + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")


if __name__ == "__main__":
    main()
