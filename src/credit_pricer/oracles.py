"""Independent numerical verifiers for the closed forms: a log-space
finite-difference solver for the terminal-boundary problems, a
barrier-monitored Monte Carlo simulator of the firm value, and adaptive
quadrature of the pricing integral against the lognormal density.

None of these call into the closed-form modules; agreement between the two
sides is evidence, not circularity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bs_closed_form import IndicatorDirection, PowerBinaryParams
from .errors import DomainError, InvalidParamsError, NumericalError
from .special_functions import MarketParams

__all__ = [
    "Scheme",
    "GridSpec",
    "McSpec",
    "PdeSurface",
    "pde_solve_tbvp",
    "mc_barrier_price",
    "mc_barrier_prices",
    "quadrature_green",
    "draw_verification_case",
]


class Scheme(enum.Enum):
    CRANK_NICOLSON = "crank_nicolson"
    IMPLICIT_EULER = "implicit_euler"


@dataclass(frozen=True)
class GridSpec:
    """Finite-difference grid: n_space log-space nodes spanning the barrier
    up to x_max_mult times the barrier, n_time time steps."""

    n_space: int = 801
    n_time: int = 800
    x_max_mult: float = 30.0
    scheme: Scheme = Scheme.CRANK_NICOLSON

    def __post_init__(self):
        if self.n_space < 50:
            raise InvalidParamsError(f"n_space must be >= 50, got {self.n_space}")
        if self.n_time < 50:
            raise InvalidParamsError(f"n_time must be >= 50, got {self.n_time}")
        if not (math.isfinite(self.x_max_mult) and self.x_max_mult >= 10.0):
            raise InvalidParamsError(f"x_max_mult must be >= 10, got {self.x_max_mult}")
        if not isinstance(self.scheme, Scheme):
            raise InvalidParamsError("scheme must be a Scheme")


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo controls. The seed feeds a counter-based Philox
    generator, so results are reproducible across platforms."""

    n_paths: int = 100_000
    n_steps: int = 200
    seed: int = 0
    bridge_correction: bool = True

    def __post_init__(self):
        if self.n_paths < 1000:
            raise InvalidParamsError(f"n_paths must be >= 1000, got {self.n_paths}")
        if self.n_steps < 50:
            raise InvalidParamsError(f"n_steps must be >= 50, got {self.n_steps}")
        if not (0 <= self.seed < 2**64):
            raise InvalidParamsError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class PdeSurface:
    """Solution values on the (x, t) grid, with bilinear interpolation in
    (ln x, t). x[0] is the barrier, t[-1] the terminal time."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray  # shape (len(t), len(x))

    def value(self, x: float, t: float) -> float:
        y = math.log(x) if x > 0.0 else -math.inf
        ys = np.log(self.x)
        if not (ys[0] - 1e-12 <= y <= ys[-1] + 1e-12):
            raise DomainError(f"x={x} outside the solved domain")
        if not (self.t[0] - 1e-12 <= t <= self.t[-1] + 1e-12):
            raise DomainError(f"t={t} outside the solved domain")
        j = max(min(int(np.searchsorted(ys, y, side="right")) - 1, len(ys) - 2), 0)
        m = max(min(int(np.searchsorted(self.t, t, side="right")) - 1, len(self.t) - 2), 0)
        wy = (y - ys[j]) / (ys[j + 1] - ys[j])
        wt = (t - self.t[m]) / (self.t[m + 1] - self.t[m])
        v = self.values
        return float(
            (1 - wt) * ((1 - wy) * v[m, j] + wy * v[m, j + 1])
            + wt * ((1 - wy) * v[m + 1, j] + wy * v[m + 1, j + 1])
        )


def _theta_step(n, dt, theta, lower, diag, upper):
    """One theta-step over dt of the tridiagonal system. The matrix is
    LU-factored once (LAPACK dgttrf); each step(interior, u0_old, un_old,
    u0_new, un_new) is one dgttrs solve and returns the new interior.
    Raises NumericalError where a coefficient is not finite or the matrix is
    singular. A non-finite right-hand side gives a non-finite interior,
    which the caller rejects."""
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


def pde_solve_tbvp(
    payoff,
    boundary_value,
    c: float,
    sigma: float,
    r_discount: float,
    T: float,
    grid: GridSpec,
    align_at: float | None = None,
) -> PdeSurface:
    """Solve u_t + (sigma^2/2) x^2 u_xx + c x u_x - r_discount u = 0 on
    x in [1, x_max_mult], t in [0, T], with terminal data u(x, T) =
    payoff(x), lower Dirichlet u(1, t) = boundary_value(t), and far-field
    Dirichlet u(x_max, t) = payoff(x_max) e^{-r_discount (T - t)}.

    The problem is posed with the barrier normalized to 1; callers with a
    barrier at level b rescale x/b before querying. Uniform grid in
    y = ln x. Crank-Nicolson starts with four implicit half-steps to damp
    terminal discontinuities; align_at places a grid node exactly at that
    x (inside the domain) so payoff kinks do not straddle a cell.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidParamsError(f"sigma must be positive, got {sigma}")
    if not (math.isfinite(T) and T > 0.0):
        raise InvalidParamsError(f"T must be positive, got {T}")
    if not (math.isfinite(c) and math.isfinite(r_discount)):
        raise InvalidParamsError("c and r_discount must be finite")

    n = grid.n_space
    y_max = math.log(grid.x_max_mult)
    h = y_max / (n - 1)
    if align_at is not None:
        if not (1.0 < align_at < grid.x_max_mult):
            raise InvalidParamsError(
                f"align_at must lie inside (1, {grid.x_max_mult}), got {align_at}"
            )
        y_star = math.log(align_at)
        h = y_star / max(1, round(y_star / h))
    y = h * np.arange(n)
    x = np.exp(y)

    terminal = np.array([payoff(v) for v in x], dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise InvalidParamsError("payoff produced non-finite values on the grid")
    blowup = 1e6 * (1.0 + float(np.max(np.abs(terminal))))

    nu = c - 0.5 * sigma * sigma
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
    crank_nicolson = grid.scheme is Scheme.CRANK_NICOLSON
    half = _theta_step(n - 2, 0.5 * dt, 1.0, lower, diag, upper) if crank_nicolson else None
    main = _theta_step(n - 2, dt, 0.5 if crank_nicolson else 1.0, lower, diag, upper)

    interior = terminal[1:-1].copy()
    u0_old, un_old = terminal[0], terminal[-1]
    for m in range(grid.n_time - 1, -1, -1):
        t_new = times[m]
        if half is not None and m >= grid.n_time - 2:
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


# Path chunk width; fixed so the random stream layout, and therefore the
# estimate, depends only on (seed, n_paths, n_steps, bridge_correction).
_MC_CHUNK = 1 << 14
# Paths of a chunk simulated together; sized for the cache, it changes no
# result.
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
    need = np.greater(exponent, _BRIDGE_EXP_CUT, out=out)
    need |= u == 0.0
    np.exp(exponent, out=exponent, where=need)
    return np.less(u, exponent, out=need)


class _Claim:
    """One claim of a shared Monte Carlo pass: its terms, validated as
    mc_barrier_price documents them, the first passage and terminal log
    value of each path of the current chunk, and the running sums of its
    path values. error holds the exception its payoff or rebate raised, or
    the NumericalError of a path value or sum that overflows a float."""

    def __init__(self, payoff, rebate_at_hit, T, a, b, anchor, market, n_steps, V0):
        if not (math.isfinite(T) and T > 0.0):
            raise InvalidParamsError(f"horizon must be positive, got {T}")
        if not (math.isfinite(b) and b > 0.0):
            raise InvalidParamsError(f"barrier level must be positive, got {b}")
        if not math.isfinite(a):
            raise InvalidParamsError("barrier growth rate must be finite")
        anchor = T if anchor is None else anchor
        if not (math.isfinite(anchor) and anchor >= T):
            raise InvalidParamsError(f"barrier anchor must be >= horizon, got {anchor}")
        log_b0 = math.log(b) - a * anchor  # log barrier at t=0
        if not math.isfinite(log_b0):
            raise NumericalError("log barrier at t=0 leaves the float range")
        if not (math.isfinite(V0) and V0 > 0.0) or math.log(V0) <= log_b0:
            raise DomainError(f"V0 must start above the barrier {math.exp(log_b0)}")

        r, q, sig = market.r, market.q, market.sigma
        self.payoff, self.rebate_at_hit = payoff, rebate_at_hit
        self.r, self.n_steps = r, n_steps
        self.dt = dt = T / n_steps
        self.drift = (r - q - 0.5 * sig * sig) * dt
        self.vol = sig * math.sqrt(dt)
        self.bar_var = sig * sig * dt
        self.disc_T = math.exp(-r * T)
        self.log_v0 = math.log(V0)
        self.start_exponent = -2.0 * (self.log_v0 - log_b0)
        self.log_barrier = log_b0 + a * (np.arange(1, n_steps + 1) * dt)
        self.error = None
        self.n, self.total, self.m2 = 0, 0.0, 0.0

    def new_chunk(self, m):
        self.first = np.empty(m, dtype=np.intp)  # step of the first hit; n_steps if none
        self.logv_T = np.empty(m)

    def first_passage(self, rows, z, u, logv, exponent, event, crossed):
        """Build the log paths of a block of the chunk from its normals z
        and record each path's first hit; u are the block's uniforms, None
        without bridge_correction. logv, exponent, event and crossed are
        work arrays of the block's shape, overwritten."""
        # the running sum adds log(V0) and then one increment per step, in
        # the order of a step-by-step simulation, so paths are reproducible
        # to the bit
        np.multiply(z, self.vol, out=logv)
        logv += self.drift
        logv[:, 0] += self.log_v0
        np.cumsum(logv, axis=1, out=logv)
        self.logv_T[rows] = logv[:, -1]
        gap_next = logv  # reused in place: log distance to the barrier
        gap_next -= self.log_barrier
        np.less_equal(gap_next, 0.0, out=event)
        if u is not None:
            exponent[:, 0] = self.start_exponent
            # past a path's first hit the gaps change sign and the exponent
            # may overflow; those steps are never read
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(gap_next[:, :-1], -2.0, out=exponent[:, 1:])
                exponent *= gap_next
                exponent /= self.bar_var
                event |= _bridge_crossed(u, exponent, crossed)
        step = event.argmax(axis=1)
        step[~event[np.arange(step.size), step]] = self.n_steps
        self.first[rows] = step

    def values(self):
        """Discounted value of each path of the chunk: the rebate at its
        first hit, else the payoff at T."""
        first, dt = self.first, self.dt
        hit = first < self.n_steps
        value = np.empty(first.size)
        steps = first[hit]
        paid = np.empty(self.n_steps)
        for k in np.unique(steps).tolist():
            t = (k + 1) * dt
            paid[k] = math.exp(-self.r * t) * self.rebate_at_hit(t)
        value[hit] = paid[steps]
        alive = ~hit
        vt = np.exp(self.logv_T[alive])
        # the payoffs' scalar arithmetic is faster on Python floats than on
        # numpy scalars; map converts one value at a time, as a list of them
        # all (tolist) kept a freed chunk of z resident between runs
        value[alive] = self.disc_T * np.array([self.payoff(v) for v in map(float, vt)])
        return value

    def add(self, value):
        """Merge a chunk's path values into the running sums. The squares
        are taken about the chunk's own mean and the chunks merged by the
        pairwise update of Chan, Golub & LeVeque (1983), so the variance
        does not cancel when the SE is small against the mean."""
        m, total = value.size, float(value.sum())
        dev = value - total / m
        m2 = float(np.square(dev, out=dev).sum())
        if self.n:
            gap = total / m - self.total / self.n
            m2 += gap * gap * (self.n * m / (self.n + m))
        self.n, self.total, self.m2 = self.n + m, self.total + total, self.m2 + m2

    def result(self):
        if self.error is not None:
            return self.error
        n = self.n
        return self.total / n, math.sqrt(self.m2 / (n - 1) / n)


def mc_barrier_prices(claims, market: MarketParams, mc: McSpec,
                      V0: float) -> list[tuple[float, float] | Exception]:
    """Price several barrier claims on one simulation of the firm value: the
    same paths, crossing decisions and random numbers feed each claim, so
    each gets the bits mc_barrier_price gives it alone.

    A claim is (payoff, rebate_at_hit, T, a, b, anchor), the arguments of
    mc_barrier_price, with anchor None for the horizon T. Claims may differ
    in every term: each builds its own paths of n_steps intervals of [0, T]
    from the same normals and tests its own barrier with the same uniforms.
    Every claim is validated before any draw, in order. Returns one slot per
    claim: (estimate, standard error), or the Exception its payoff or
    rebate raised, or a NumericalError where one of its path values or
    their sums overflows a float. Such a claim is simulated no further, and
    the others run on; when none is left the pass stops.

    One Philox stream feeds the pass, chunk by chunk: a chunk's normals,
    then, with bridge_correction, its m * n_steps uniforms, then the next
    chunk's normals. The normals are drawn one chunk ahead on a second
    thread while this one builds the current chunk's paths and payoffs; the
    second thread keeps the stream state after a chunk's normals, for this
    thread's uniforms, and skips their words (random_raw with output=False).
    The uniforms are drawn block by block and each block serves every claim.
    Every number keeps its place in the stream, so the result has the same
    bits as a single-threaded draw however the two threads are scheduled.
    The thread has ended when the call returns or raises.
    """
    n_steps = mc.n_steps
    sims = [_Claim(*claim, market, n_steps, V0) for claim in claims]

    from concurrent.futures import ThreadPoolExecutor  # loads only when an oracle runs

    bits = np.random.Philox(mc.seed)
    normals = np.random.Generator(bits)
    uniforms = np.random.Generator(np.random.Philox(mc.seed))

    def draw(out):
        """Fill out with a chunk's normals; with bridge_correction, return
        the stream state at the chunk's uniforms and skip them."""
        normals.standard_normal(out=out)
        if not mc.bridge_correction:
            return None
        state = bits.state
        bits.random_raw(out.size, output=False)
        return state

    chunks = [min(_MC_CHUNK, mc.n_paths - lo) for lo in range(0, mc.n_paths, _MC_CHUNK)]
    # two buffers of normals: the thread fills one while this one reads the
    # other, so a buffer is refilled only after its chunk is done
    buffers = [np.empty((m, n_steps)) for m in chunks[:2]]
    # a block's uniforms and the work arrays of first_passage, reused by
    # every block and claim: fresh arrays of this size cost page faults
    shape = (min(_MC_BLOCK, chunks[0]), n_steps)
    u_work = np.empty(shape)
    work = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool),
            np.empty(shape, dtype=bool))
    with ThreadPoolExecutor(max_workers=1) as ahead:
        pending = ahead.submit(draw, buffers[0])
        for k, m in enumerate(chunks):
            uniform_state = pending.result()
            if k + 1 < len(chunks):
                pending = ahead.submit(draw, buffers[(k + 1) % 2][:chunks[k + 1]])
            z = buffers[k % 2][:m]
            live = [sim for sim in sims if sim.error is None]
            for sim in live:
                sim.new_chunk(m)
            if uniform_state is not None:
                uniforms.bit_generator.state = uniform_state
            for lo in range(0, m, _MC_BLOCK):
                rows = slice(lo, min(lo + _MC_BLOCK, m))
                width = rows.stop - lo
                # drawn block by block, these are the same numbers as one
                # (m, n_steps) draw
                u = None if uniform_state is None else uniforms.random(out=u_work[:width])
                block_work = [w[:width] for w in work]
                for sim in live:
                    sim.first_passage(rows, z[rows], u, *block_work)
            for sim in live:
                try:
                    with np.errstate(over="raise"):
                        sim.add(sim.values())
                except FloatingPointError as exc:
                    sim.error = NumericalError(f"path values overflow a float: {exc}")
                except Exception as exc:
                    sim.error = exc
            if all(sim.error is not None for sim in sims):
                break
    return [sim.result() for sim in sims]


def mc_barrier_price(
    payoff,
    rebate_at_hit,
    T: float,
    a: float,
    b: float,
    market: MarketParams,
    mc: McSpec,
    V0: float,
    barrier_anchor: float | None = None,
) -> tuple[float, float]:
    """Simulate dV/V = (r - q) dt + sigma dW exactly on n_steps intervals
    of [0, T] and price a claim that pays rebate_at_hit(t) the first time V
    touches the barrier b e^{-a (anchor - t)} and payoff(V_T) at T
    otherwise, both discounted at r. Returns (estimate, standard error).

    barrier_anchor defaults to the horizon T; pass the bond maturity when
    pricing an option-horizon claim against the bond's barrier. With
    bridge_correction the within-step crossing probability of the linear
    log-barrier is added exactly (the log-barrier's Brownian bridge is
    Gaussian), removing the discrete-monitoring bias. A within-step hit
    pays at the step's right endpoint: exact whenever e^{-r t} times the
    rebate is constant, as it is for the recovery payment. The crossing
    probability is exponentiated only where its exponent exceeds -40 or the
    uniform is 0; elsewhere no uniform can fall below it (_bridge_crossed),
    so the estimate is the one an exp at every step gives, to the bit. The
    SE is the sample standard deviation over sqrt(n_paths).

    This is the one-claim call of mc_barrier_prices, which runs one Philox
    stream for several claims and describes its layout; an exception from
    the payoff or the rebate propagates, and the drawing thread has ended.
    """
    (outcome,) = mc_barrier_prices([(payoff, rebate_at_hit, T, a, b, barrier_anchor)],
                                   market, mc, V0)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def quadrature_green(
    X: float,
    tau: float,
    params: PowerBinaryParams,
    market: MarketParams,
) -> float:
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
