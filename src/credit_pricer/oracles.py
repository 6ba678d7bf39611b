"""Independent numerical verifiers for the closed forms: a log-space
finite-difference solver for the terminal-boundary problems, a
barrier-monitored Monte Carlo simulator of the firm value, and adaptive
quadrature of the pricing integral against the lognormal density.

None of these call into the closed-form modules; agreement between the two
sides is evidence, not circularity. numpy loads on the first oracle call.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .bs_closed_form import IndicatorDirection, PowerBinaryParams
from .errors import DomainError, InvalidParamsError, NumericalError
from .special_functions import MarketParams

__all__ = ["GridSpec", "McSpec", "PdeSurface", "pde_solve_tbvp", "mc_barrier_price",
           "quadrature_green", "draw_verification_case"]


def _check_counts(spec, **floors):
    """Raise InvalidParamsError unless each named field of spec is an integer
    at or above its floor: a float count or seed fails later, as a TypeError."""
    for name, floor in floors.items():
        value = getattr(spec, name)
        try:
            operator.index(value)
        except TypeError:
            raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None
        if value < floor:
            raise InvalidParamsError(f"{name} must be >= {floor}, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Finite-difference grid: n_space log-space nodes from the barrier to
    the far field pde_solve_tbvp sizes for its problem, n_time time steps."""

    n_space: int = 801
    n_time: int = 800

    def __post_init__(self):
        _check_counts(self, n_space=50, n_time=50)


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo controls: n_paths paths of n_steps intervals of [0, anchor]
    of the pass's barrier (mc_barrier_price). The seed feeds one SFC64
    stream, read in a fixed order, so results are reproducible anywhere.
    Each claim's control variate (mc_barrier_price) lets 45 000 paths reach
    the standard errors 100 000 plain paths gave on verify's claims."""

    n_paths: int = 45_000
    n_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, n_paths=1000, n_steps=50, seed=-math.inf)  # any seed: see below
        if not (0 <= self.seed < 2**64):
            raise InvalidParamsError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class PdeSurface:
    """Solution values on the (x, t) grid, with bilinear interpolation in
    (ln x, t). x[0] is the barrier, t[-1] the terminal time."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray  # shape (len(t), len(x))

    @cached_property
    def _axes(self) -> tuple[list[float], list[float]]:
        """ln x and t as Python lists, taken once per surface for bisect."""
        import numpy as np
        return np.log(self.x).tolist(), self.t.tolist()

    def value(self, x: float, t: float) -> float:
        ys, ts = self._axes
        y = math.log(x) if x > 0.0 else -math.inf
        if not (ys[0] - 1e-12 <= y <= ys[-1] + 1e-12):
            raise DomainError(f"x={x} outside the solved domain")
        if not (ts[0] - 1e-12 <= t <= ts[-1] + 1e-12):
            raise DomainError(f"t={t} outside the solved domain")
        j = max(min(bisect_right(ys, y) - 1, len(ys) - 2), 0)
        m = max(min(bisect_right(ts, t) - 1, len(ts) - 2), 0)
        wy = (y - ys[j]) / (ys[j + 1] - ys[j])
        wt = (t - ts[m]) / (ts[m + 1] - ts[m])
        (v00, v01), (v10, v11) = self.values[m:m + 2, j:j + 2].tolist()
        return float((1 - wt) * ((1 - wy) * v00 + wy * v01) + wt * ((1 - wy) * v10 + wy * v11))


def _theta_step(n, dt, theta, lower, diag, upper):
    """One theta-step over dt of the tridiagonal system. The matrix is
    LU-factored once (LAPACK dgttrf); each step(interior, u0_old, un_old,
    u0_new, un_new) is one dgttrs solve and returns the new interior.
    Raises NumericalError where a coefficient is not finite or the matrix is
    singular. A non-finite right-hand side gives a non-finite interior,
    which the caller rejects."""
    import numpy as np
    from scipy.linalg.lapack import dgttrf, dgttrs  # scipy loads only when an oracle runs

    sub, main, sup = -theta * dt * lower, 1.0 - theta * dt * diag, -theta * dt * upper
    if not (math.isfinite(sub) and math.isfinite(main) and math.isfinite(sup)):
        raise NumericalError("finite-difference coefficients leave the float range")
    *lu, info = dgttrf(np.full(n - 1, sub), np.full(n, main), np.full(n - 1, sup))
    if info != 0:
        raise NumericalError("finite-difference step matrix is singular")
    explicit = 1.0 - theta

    def step(interior, u0_old, un_old, u0_new, un_new):
        rhs = interior * (1.0 + explicit * dt * diag)
        rhs[1:] += explicit * dt * lower * interior[:-1]
        rhs[:-1] += explicit * dt * upper * interior[1:]
        rhs[0] += explicit * dt * lower * u0_old + theta * dt * lower * u0_new
        rhs[-1] += explicit * dt * upper * un_old + theta * dt * upper * un_new
        return dgttrs(*lu, rhs, overwrite_b=True)[0]

    return step


def pde_solve_tbvp(payoff, boundary_value, c: float, sigma: float, r_discount: float, T: float,
                   grid: GridSpec) -> PdeSurface:
    """Solve u_t + (sigma^2/2) x^2 u_xx + c x u_x - r_discount u = 0 on
    x in [1, x_max], t in [0, T], with terminal data u(x, T) =
    payoff(x) for x > 1, lower Dirichlet u(1, t) = boundary_value(t) (at
    t = T too), and far-field Dirichlet u(x_max, t) = payoff(x_max)
    e^{-r_discount (T - t)}.

    The problem is posed with the barrier normalized to 1; callers with a
    barrier at level b rescale x/b before querying. Uniform grid in y = ln x
    from the barrier to ln x_max = min(700, max(ln 30, 4 sigma sqrt(T) +
    max(c - sigma^2/2, 0) T)), whatever the payoff: 4 standard deviations of
    ln x plus the upward drift, as the far field's error decays with that
    distance (Kangro & Nicolaides 2000), and at least 30 barriers.
    Crank-Nicolson, started as Rannacher (1984): the first two steps are
    four implicit half-steps, which damp terminal kinks and jumps. The
    terminal data is payoff evaluated on Python floats; the blow-up guard
    is scaled by it.
    """
    import numpy as np
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParamsError(f"sigma must be positive, got {sigma}")
    if not (math.isfinite(T) and T > 0.0):
        raise InvalidParamsError(f"T must be positive, got {T}")
    if not (math.isfinite(c) and math.isfinite(r_discount)):
        raise InvalidParamsError("c and r_discount must be finite")

    nu = c - 0.5 * sigma * sigma
    n = grid.n_space
    y_max = min(700.0, max(math.log(30.0), 4.0 * sigma * math.sqrt(T) + max(nu, 0.0) * T))
    h = y_max / (n - 1)
    x = np.exp(h * np.arange(n))

    terminal = np.array([payoff(v) for v in x.tolist()], dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise InvalidParamsError("payoff produced non-finite values on the grid")
    blowup = 1e6 * (1.0 + float(np.max(np.abs(terminal))))
    terminal[0] = boundary_value(T)  # the barrier node takes the lower boundary's data

    lower = 0.5 * sigma * sigma / (h * h) - nu / (2.0 * h)
    diag = -sigma * sigma / (h * h) - r_discount
    upper = 0.5 * sigma * sigma / (h * h) + nu / (2.0 * h)

    dt = T / grid.n_time
    times = dt * np.arange(grid.n_time + 1)
    surface = np.empty((grid.n_time + 1, n))
    surface[-1] = terminal

    def far(t):
        return terminal[-1] * math.exp(-r_discount * (T - t))

    # Rannacher start-up: each of the first two Crank-Nicolson steps is taken
    # as two implicit half-steps
    half = _theta_step(n - 2, 0.5 * dt, 1.0, lower, diag, upper)
    main = _theta_step(n - 2, dt, 0.5, lower, diag, upper)

    interior = terminal[1:-1].copy()
    u0_old, un_old = terminal[0], terminal[-1]
    for m in range(grid.n_time - 1, -1, -1):
        t_new = times[m]
        if m >= grid.n_time - 2:
            sub_steps = ((t_new + 0.5 * dt, half), (t_new, half))
        else:
            sub_steps = ((t_new, main),)
        for t_sub, step in sub_steps:
            u0_new, un_new = boundary_value(t_sub), far(t_sub)
            interior = step(interior, u0_old, un_old, u0_new, un_new)
            u0_old, un_old = u0_new, un_new
        surface[m, 0] = u0_new
        surface[m, 1:-1] = interior
        surface[m, -1] = un_new
        if not np.all(np.isfinite(interior)) or np.max(np.abs(interior)) > blowup:
            raise NumericalError("finite-difference scheme blew up")

    return PdeSurface(x=x, t=times, values=surface)


# Paths drawn and simulated together; fixed so the random stream layout,
# and therefore the estimate, depends only on (seed, n_paths, n_steps).
_MC_BLOCK = 1 << 10
# Bridge crossing exponents at or below this lose to every nonzero uniform.
_BRIDGE_EXP_CUT = -40.0


def _bridge_crossed(u, exponent, out=None):
    """u < exp(exponent) elementwise, to the bit, for uniforms u drawn by
    Generator.random(), in out when given; exponent is overwritten.

    random() returns multiples of 2^-53, so a nonzero u is at least
    2^-53 > e^-37, above exp(exponent) wherever exponent <= -40. exp,
    slowest where it underflows (below about -745, far from the barrier),
    is therefore taken only where exponent > -40 or u == 0; a zero u keeps
    its real exp, underflow to 0 included. Elsewhere the exponent stays in
    place, and at <= -40 or NaN no u >= 0 is below it: not crossed.
    """
    import numpy as np
    need = np.greater(exponent, _BRIDGE_EXP_CUT, out=out)
    need |= u == 0.0
    np.exp(exponent, out=exponent, where=need)
    return np.less(u, exponent, out=need)


def _step_terms(market, h):
    """Drift, volatility and bridge variance of ln V over a step of length h."""
    sig = market.sigma
    return (market.r - market.q - 0.5 * sig * sig) * h, sig * math.sqrt(h), sig * sig * h


def _capped_growth(market, H):
    """E[min(V_H / V0, 1)] under the simulated dynamics: e^{(r-q)H} N(-d1) +
    N(d2), d1 = ((r - q) H + sigma^2 H / 2) / (sigma sqrt(H)), d2 = d1 -
    sigma sqrt(H), N from erfc. The first term, at most 1, is taken in logs,
    and is 0 where N(-d1) underflows, so e^{(r-q)H} never overflows. Where
    sigma sqrt(H) underflows to 0, d1 is infinite: min(e^{(r-q)H}, 1)."""
    s = market.sigma * math.sqrt(H)
    growth = (market.r - market.q) * H
    d1 = growth / s + 0.5 * s if s else math.copysign(math.inf, growth)
    above = 0.5 * math.erfc(d1 / math.sqrt(2.0))
    kept = math.exp(growth + math.log(above)) if above > 0.0 else 0.0
    return kept + 0.5 * math.erfc((s - d1) / math.sqrt(2.0))


class _Claim:
    """One claim of a Monte Carlo pass: its terms, validated as
    mc_barrier_price documents them, each path's first hit and log value at
    T in the current block, and the running sums of its path values and
    controls. error holds the exception its payoff or rebate raised, or the
    NumericalError of a path value that is not finite or a sum that
    overflows a float."""

    def __init__(self, payoff, rebate_at_hit, T, anchor, dt, log_barrier, market):
        if not (0.0 < T <= anchor):
            raise InvalidParamsError(f"horizon must be in (0, {anchor}], got {T}")
        try:  # e^{-r t} for t <= T is at most max(this, 1): every discount is finite
            self.disc_T = math.exp(-market.r * T)
        except OverflowError:
            raise NumericalError(f"discount factor to T={T} overflows a float") from None
        self.payoff, self.rebate_at_hit, self.T, self.r = payoff, rebate_at_hit, T, market.r
        self.dt, self.log_barrier_T = dt, log_barrier(T)
        # full steps of the anchor's grid; a horizon off it adds a shorter
        # one: its drift, volatility and bridge variance
        full, self.short = round(T / dt), None
        if not math.isclose(full * dt, T, rel_tol=1e-9):
            full = math.floor(T / dt)
            self.short = _step_terms(market, T - full * dt)
        self.full, self.cols = full, full + (self.short is not None)
        self.control_mean = self.disc_T * _capped_growth(market, T)
        # path count; means of the values and the controls; their sums of
        # squared deviations and of cross products (yy, xy, xx)
        self.error, self.n, self.means, self.sums = None, 0, None, None

    def stop(self, step, gap, z, u, start_exponent):
        """Record each path's first hit before T from the pass's first hits
        step and log gaps; a short last step goes on from the column before
        with its own column's normals z, and tests the bridge with its u."""
        import numpy as np
        full = self.full
        if self.short is None:
            self.first = np.minimum(step, full)
            return
        drift, vol, var = self.short
        self.logv_T += z[:, full] * vol + drift
        gap_T = self.logv_T - self.log_barrier_T
        with np.errstate(over="ignore", invalid="ignore"):  # as in _first_passage
            exponent = (gap[:, full - 1] * -2.0 if full else start_exponent) * gap_T / var
            crossed = _bridge_crossed(u[:, full], exponent) | (gap_T <= 0.0)
        self.first = np.where(step < full, step, np.where(crossed, full, full + 1))

    def values(self, log_v0):
        """Discounted value of each path of the block, the rebate at its
        first hit, else the payoff at T; and each path's control
        e^{-r T} min(V_T / V0, 1), from its log value at T whether or not it
        hit (fmin reads a NaN one as V_T >= V0). The payoff is called once,
        and only where some path of the block survives to T, on the 1-D
        float64 array of the survivors' firm values at T; it returns their
        payoffs as an array of that length, or one number for them all.
        The controls overwrite the log values once the payoff has read them."""
        import numpy as np
        hit = self.first < self.cols
        value, steps, paid = np.empty(hit.size), self.first[hit], np.empty(self.cols)
        for k in np.unique(steps).tolist():
            t = (k + 1) * self.dt if k < self.full else self.T  # a short last step ends at T
            paid[k] = math.exp(-self.r * t) * self.rebate_at_hit(t)
        value[hit] = paid[steps]
        alive = ~hit
        if alive.any():
            value[alive] = np.multiply(self.payoff(np.exp(self.logv_T[alive])), self.disc_T)
        ratio = np.subtract(self.logv_T, log_v0, out=self.logv_T)
        np.exp(np.fmin(ratio, 0.0, out=ratio), out=ratio)
        return value, np.multiply(ratio, self.disc_T, out=ratio)

    def add(self, value, control):
        """Merge a block's path values and controls, both overwritten, into
        the running means and sums; the squares of the values take the one
        new block-sized array. Each column's squares and cross products
        are taken about the block's own means, each mean about the column's
        first element (so a constant column is exact), and the blocks are
        merged by the pairwise update of Chan, Golub & LeVeque (1983), so no
        sum cancels when the SE is small against the mean."""
        import numpy as np
        if not np.isfinite(value).all():
            raise NumericalError("a path value is not finite")
        m, means, dy, dx = value.size, [], value, control
        for dev in (dy, dx):  # less the first element, then less the mean of the rest
            first = float(dev[0])
            dev -= first
            shift = float(dev.sum()) / m
            means.append(first + shift)
            dev -= shift
        yy = float(np.square(dy).sum())
        xy = float(np.multiply(dx, dy, out=dy).sum())
        sums = (yy, xy, float(np.square(dx, out=dx).sum()))
        if self.n:
            w = m / (self.n + m)
            gy, gx = means[0] - self.means[0], means[1] - self.means[1]
            sums = tuple(old + new + gap * (self.n * w) for old, new, gap in
                         zip(self.sums, sums, (gy * gy, gx * gy, gx * gx)))
            means = self.means[0] + gy * w, self.means[1] + gx * w
        self.n, self.means, self.sums = self.n + m, tuple(means), sums
        if not all(map(math.isfinite, sums)):
            raise NumericalError("path value sums overflow a float")

    def result(self):
        """(estimate, SE) with the control: the mean of the values less
        beta times the control's gap to its exact mean, beta = Sxy / Sxx (0
        where Sxx = 0); the SE is the deviation of the values about that
        regression over sqrt(n)."""
        if self.error is not None:
            return self.error
        (yy, xy, xx), (mean, mean_x), n = self.sums, self.means, self.n
        beta = xy / xx if xx else 0.0
        estimate = mean - beta * (mean_x - self.control_mean)
        se = math.sqrt(max(yy - beta * xy, 0.0) / (n - 1) / n)
        if not (math.isfinite(estimate) and math.isfinite(se)):
            return NumericalError("control-variate estimate is not finite")
        return estimate, se


def _first_passage(live, path, z, u, logv, exponent, event, crossed):
    """Build a block's log paths for the live claims from its normals z, in
    steps of anchor / n_steps to the step that holds their longest horizon,
    and find each path's first hit, on the grid or by the bridge test
    against its uniforms u; then each claim takes its own first hits and
    log values at its horizon. path is the pass's (log V0, first bridge
    exponent, step terms, log barrier at each step's end); logv, exponent,
    event and crossed are work arrays, overwritten."""
    import numpy as np
    log_v0, start_exponent, (drift, vol, bar_var), log_barrier = path
    cols = max(claim.cols for claim in live)
    z, u, logv, exponent, event, crossed = (
        w[:, :cols] for w in (z, u, logv, exponent, event, crossed))
    # the running sum adds log(V0) and then one increment per step, in the
    # order of a step-by-step simulation, so paths are reproducible to the bit
    np.multiply(z, vol, out=logv)
    logv += drift
    logv[:, 0] += log_v0
    np.cumsum(logv, axis=1, out=logv)
    for claim in live:  # the log value at T, or where a short last step starts
        claim.logv_T = (logv[:, claim.full - 1].copy() if claim.full
                        else np.full(len(logv), log_v0))
    gap_next = logv  # reused in place: log distance to the barrier
    gap_next -= log_barrier[:cols]
    np.less_equal(gap_next, 0.0, out=event)
    exponent[:, 0] = start_exponent
    # past a path's first hit the gaps change sign and the exponent may
    # overflow; those steps are never read
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(gap_next[:, :-1], -2.0, out=exponent[:, 1:])
        exponent *= gap_next
        exponent /= bar_var
        event |= _bridge_crossed(u, exponent, crossed)
    step = event.argmax(axis=1)
    step[~event[np.arange(step.size), step]] = cols
    for claim in live:
        claim.stop(step, gap_next, z, u, start_exponent)


def mc_barrier_price(claims, barrier, market: MarketParams, mc: McSpec,
                     V0: float) -> list[tuple[float, float] | Exception]:
    """Simulate dV/V = (r - q) dt + sigma dW exactly from V0 and price each
    of the claims on that one simulation against barrier = (a, b, anchor),
    the level b e^{-a (anchor - t)}. A claim (payoff, rebate_at_hit, T),
    0 < T <= anchor, pays rebate_at_hit(t) the first time V touches the
    barrier and payoff(V_T) at T otherwise, both discounted at r. The
    payoff prices a block at a time: it takes the 1-D float64 array of the
    firm values at T of a block's surviving paths and returns an array of
    their payoffs, or one number for them all (_Claim.values); the rebate
    takes one float t.

    The claims share one set of log paths, n_steps intervals of [0, anchor]
    built and tested once per block up to their longest horizon
    (_first_passage). Each reads its first hit before its horizon and its
    log value there; a horizon off the grid ends in one shorter step, with
    that column's normal and uniform. So a claim gets the same bits alone as
    beside others. The within-step crossing probability of the linear
    log-barrier is always tested, exactly (its Brownian bridge is Gaussian;
    _bridge_crossed), so no step size biases the monitoring. A within-step
    hit pays at the step's right endpoint: exact whenever e^{-r t} times the
    rebate is constant, as for the recovery payment.

    Each claim has one control variate per path, x = e^{-rT} min(V_T / V0,
    1) from its log value at T, hit or not, whose exact mean is e^{-rT}
    (e^{(r-q)T} N(-d1) + N(d2)) (_capped_growth). With y the path values,
    the estimate is mean(y) - beta (mean(x) - E x), beta = Sxy / Sxx (0
    where Sxx = 0), taken from the whole pass (a bias of order 1/n_paths),
    and the SE is the sample deviation of y - beta x over sqrt(n_paths)
    (Glasserman 2003, 4.1). A constant y gives beta = 0 and SE 0 exactly.

    The barrier and V0, then each claim, are validated before any draw; no
    claims give []. Returns one slot per claim: (estimate, standard error),
    or the Exception its payoff or rebate raised, or a NumericalError where
    one of its path values is not finite, their sums overflow a float or
    its estimate is not finite.
    Such a claim is simulated no further, and the others run on; when none
    is left the pass stops.

    One SFC64 stream feeds the pass, block by block: a block's m * n_steps
    normals, then as many uniforms, then the next block's normals. A second
    thread, the only user of the stream, draws one block ahead while this
    one builds the current block's paths and payoffs. Every number keeps
    its place in the stream, so the result has the same bits however the
    two threads are scheduled; the thread has ended on return or raise.
    """
    a, b, anchor = barrier
    if not (math.isfinite(b) and b > 0.0):
        raise InvalidParamsError(f"barrier level must be positive, got {b}")
    if not math.isfinite(a):
        raise InvalidParamsError("barrier growth rate must be finite")
    if not (math.isfinite(anchor) and anchor > 0.0):
        raise InvalidParamsError(f"barrier anchor must be positive, got {anchor}")
    log_b0 = math.log(b) - a * anchor  # log barrier at t=0
    if not math.isfinite(log_b0):
        raise NumericalError("log barrier at t=0 leaves the float range")
    if not (math.isfinite(V0) and V0 > 0.0) or math.log(V0) <= log_b0:
        raise DomainError(f"firm value {V0} at or below default barrier e^{log_b0} at t=0")
    n_steps, log_v0 = mc.n_steps, math.log(V0)
    dt, log_barrier = anchor / n_steps, lambda t: log_b0 + a * t
    sims = [_Claim(*claim, anchor, dt, log_barrier, market) for claim in claims]
    if not sims:
        return []

    from concurrent.futures import ThreadPoolExecutor  # loads only when an oracle runs
    import numpy as np

    path = (log_v0, -2.0 * (log_v0 - log_b0), _step_terms(market, dt),
            log_barrier(np.arange(1, n_steps + 1) * dt))
    stream = np.random.Generator(np.random.SFC64(mc.seed))

    def draw(pair, m):
        """Fill a pair's first m rows with a block's normals, then its uniforms."""
        z, u = (w[:m] for w in pair)
        stream.standard_normal(out=z)
        stream.random(out=u)
        return z, u

    blocks = [min(_MC_BLOCK, mc.n_paths - lo) for lo in range(0, mc.n_paths, _MC_BLOCK)]
    shape = (blocks[0], n_steps)
    # two (normals, uniforms) pairs: the thread fills one while this one
    # reads the other, which is refilled only after its block is done; they
    # and _first_passage's work arrays serve every block, sparing page faults
    buffers = [(np.empty(shape), np.empty(shape)) for _ in blocks[:2]]
    work = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool))
    with ThreadPoolExecutor(max_workers=1) as ahead:
        pending = ahead.submit(draw, buffers[0], blocks[0])
        for k, m in enumerate(blocks):
            z, u = pending.result()
            if k + 1 < len(blocks):
                pending = ahead.submit(draw, buffers[(k + 1) % 2], blocks[k + 1])
            live = [sim for sim in sims if sim.error is None]
            _first_passage(live, path, z, u, *(w[:m] for w in work))
            for sim in live:
                try:
                    with np.errstate(over="raise"):
                        sim.add(*sim.values(log_v0))
                except FloatingPointError as exc:
                    sim.error = NumericalError(f"path values overflow a float: {exc}")
                except Exception as exc:
                    sim.error = exc
            if all(sim.error is not None for sim in sims):
                break
    return [sim.result() for sim in sims]


def quadrature_green(X: float, tau: float, params: PowerBinaryParams,
                     market: MarketParams) -> float:
    """Price the power-binary payoff by adaptive quadrature of the
    discounted lognormal transition density against the terminal payoff

        z^beta Phi(delta(z^i / L, tau1, tau2, tau3)) 1{z >< K},

    substituting u = ln(z / X). The integration window is centered on the
    tilted mode m + beta sigma^2 tau and spans 13 standard deviations each
    way; an empty window prices to zero. Absolute tolerance 1e-10. A float
    overflow in the integrand or the prefactor raises NumericalError.
    """
    if not (math.isfinite(X) and X > 0.0):
        raise DomainError(f"X must be positive, got {X}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError(f"tau must be positive, got {tau}")
    p = params
    r, q, sig = market.r, market.q, market.sigma
    s = sig * math.sqrt(tau)
    m_drift = (r - q - 0.5 * sig * sig) * tau
    center = m_drift + p.beta * s * s
    lo = center - 13.0 * s
    hi = center + 13.0 * s

    # indicator 1{z >< K} in u coordinates; where K / X underflows, the log
    # is taken in two parts
    if p.K > 0.0:
        u_k = math.log(p.K / X) if p.K / X > 0.0 else math.log(p.K) - math.log(X)
        if p.direction is IndicatorDirection.ABOVE:
            lo = max(lo, u_k)
        else:
            hi = min(hi, u_k)
    elif p.direction is IndicatorDirection.BELOW:
        return 0.0

    # tau3 = 0 collapses the Phi factor to a step; fold it into the range
    shift = (r - q - 0.5 * sig * sig) * p.tau1 + sig * sig * p.tau2
    if p.tau3 == 0.0 and p.L > 0.0:
        if p.i == 0.0:
            raise DomainError("composed variance clock must be positive, got 0.0")
        u_step = (math.log(p.L) - shift) / p.i - math.log(X)
        if p.i > 0.0:
            lo = max(lo, u_step)
        else:
            hi = min(hi, u_step)

    if lo >= hi:
        return 0.0

    from scipy.integrate import quad  # scipy loads only when an oracle runs

    # no Phi factor where L = 0 (which forces i = 0) or its step is folded
    log_l = math.log(p.L) if p.L > 0.0 and p.tau3 > 0.0 else None
    phi_scale = sig * math.sqrt(p.tau3)
    inv_two_pi = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(u: float) -> float:
        g = math.exp(-0.5 * ((u - m_drift) / s) ** 2) * inv_two_pi / s
        w = math.exp(p.beta * u) * g
        if log_l is None:
            return w
        arg = (p.i * (math.log(X) + u) - log_l + shift) / phi_scale
        return w * 0.5 * math.erfc(-arg / math.sqrt(2.0))

    try:
        val, abserr = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)
        if abserr > 1e-10 * max(1.0, abs(val)):
            raise NumericalError(
                f"quadrature did not converge: estimate {val!r}, error bound {abserr!r}"
            )
        return math.exp(-r * tau) * X**p.beta * val
    except OverflowError as exc:
        raise NumericalError("quadrature price overflows a float") from exc


def draw_verification_case(rng) -> tuple[float, float, PowerBinaryParams, MarketParams]:
    """One random admissible power-binary pricing case for verification
    sweeps: (X, tau, params, market) from a random.Random source.

    Scales are standardized so the price is non-degenerate: the strike sits
    within two terminal standard deviations of the spot and the level L is
    chosen so the inner normal argument lands in [-3, 3]. Degenerate cases
    (prices at the underflow floor) cannot be compared relatively by any
    quadrature with a finite window and are exercised separately as
    absolute-tolerance shortcuts.
    """
    market = MarketParams(
        r=rng.uniform(0.0, 0.1),
        q=rng.uniform(0.0, 0.05),
        sigma=rng.uniform(0.15, 0.8),
    )
    X = math.exp(rng.uniform(-1.5, 1.5))
    tau = rng.uniform(0.05, 3.0)
    beta = rng.uniform(-3.0, 3.0)
    i = rng.choice((-1.0, 0.0, 1.0, 2.0))
    s = market.sigma * math.sqrt(tau)
    K = X * math.exp(rng.uniform(-2.0, 2.0) * s) if rng.random() < 0.85 else 0.0
    if i == 0.0 and rng.random() < 0.5:
        L, tau1, tau2, tau3 = 0.0, 0.0, 0.0, 1.0
    else:
        tau1 = rng.uniform(0.0, 2.0)
        tau2 = rng.uniform(0.0, 1.0)
        tau3 = rng.uniform(0.05, 2.0)
        shift = (market.r - market.q - 0.5 * market.sigma**2) * tau1
        shift += market.sigma**2 * tau2
        w = rng.uniform(-3.0, 3.0)
        L = (X**i) * math.exp(shift - w * market.sigma * math.sqrt(tau3))
    direction = rng.choice((IndicatorDirection.ABOVE, IndicatorDirection.BELOW))
    if direction is IndicatorDirection.BELOW and K == 0.0:
        K = X
    params = PowerBinaryParams(
        beta=beta, i=i, L=L, K=K, tau1=tau1, tau2=tau2, tau3=tau3,
        direction=direction,
    )
    return X, tau, params, market
