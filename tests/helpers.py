"""Shared numerical helpers for the test suite."""

import math

_EPS = 2.220446049250313e-16

# A put from the benchmark's book pool (index 99) at which the option price
# overflows a float: small sigma, a fast-growing barrier, V far above it.
OVERFLOW_CONFIG = {
    "market": {"r": -0.03263721557104038, "q": 0.1685159687866016,
               "sigma": 0.0726868998307426},
    "bond": {"T": 2.8865814208984375, "a": 0.08142556454240835, "b": 100.0,
             "R": 0.6021543182905019},
    "option": {"T1": 0.6309661865234375, "E": 0.727081384612381, "kind": "put"},
    "points": {"V": [172552.95928396392], "t": [0.2109222412109375]},
}


def pricing_residual(u, X, t, drift_coef, sigma, r_discount):
    """Finite-difference residual of u(X, t) against the pricing equation

        u_t + sigma^2 X^2 u_XX / 2 + drift_coef X u_X - r_discount u = 0,

    normalized by the largest term. Central differences with steps tuned
    to machine epsilon: eps^(1/3) scale for first derivatives, eps^(1/4)
    for the second.
    """
    h1 = _EPS ** (1.0 / 3.0) * max(1.0, abs(X))
    h2 = _EPS ** 0.25 * max(1.0, abs(X))
    ht = _EPS ** (1.0 / 3.0) * max(1.0, abs(t))

    u0 = u(X, t)
    u_t = (u(X, t + ht) - u(X, t - ht)) / (2.0 * ht)
    u_x = (u(X + h1, t) - u(X - h1, t)) / (2.0 * h1)
    u_xx = (u(X + h2, t) - 2.0 * u(X, t) + u(X - h2, t)) / (h2 * h2)

    terms = (
        u_t,
        0.5 * sigma * sigma * X * X * u_xx,
        drift_coef * X * u_x,
        -r_discount * u0,
    )
    scale = max(abs(v) for v in terms)
    if scale == 0.0:
        return 0.0
    return abs(sum(terms)) / scale


def bisect(f, lo, hi, tol=1e-12, max_iter=200):
    """Plain bisection for a sign change on [lo, hi]; independent of the
    library's own root finder."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rel_err(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))
