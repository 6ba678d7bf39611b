"""The three benchmark workloads and the inputs they generate.

Each workload is a closed loop with one client: a request is issued only
after the previous one returned. Requests are grouped into cycles, and a
timed phase always runs whole cycles, so every run of a workload executes
the same mix of request kinds.

- book: one position per request, priced like one row of the
  price-puttable / price-callable tables. Positions come from a fixed pool
  of BOOK_POOL_SIZE draws over the admissible domain; the seed fixes the
  visiting order and the calendar shift of every cycle. Shifting T, T1 and
  t by the same dyadic amount leaves every time difference bit-identical,
  so the recorded reference prices still apply while no two requests of a
  run share a (bond, option, market) key.
- figures: one `curves --figure N` command per request, N = 1..5 per cycle.
- verify: one `verify --suite all` command per request, alternating the
  reference configuration and the moving-barrier call in
  reference/moving_call.json; the MC seed is the workload seed mod
  VERIFY_SEEDS.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

import credit_pricer as cp
from credit_pricer import cli

import gate

MOVING_CALL_CONFIG = os.path.join(gate.REFERENCE_DIR, "moving_call.json")

BOOK_POOL_SEED = 20210922
BOOK_POOL_SIZE = 2048
# Times are multiples of 2**-16 years and shifts multiples of 1/4 year, so
# T + shift, T1 + shift and t + shift are exact and every difference is
# unchanged to the bit.
_TIME_QUANTUM = 2.0 ** -16
_SHIFT_QUANTUM = 0.25
_SHIFT_SLOTS = 4096

FIGURES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Position:
    """One book entry: market, bond, option, valuation time and firm value."""

    r: float
    q: float
    sigma: float
    T: float
    a: float
    b: float
    R: float
    T1: float
    E: float
    kind: str
    t: float
    V: float


def _quantize(x: float) -> float:
    return math.floor(x / _TIME_QUANTUM) * _TIME_QUANTUM


def draw_position(rng: random.Random) -> Position:
    """Draw over the admissible domain: sigma in [0.05, 1.5]; r, q, a in
    [-0.1, 0.2]; R = 0 one time in ten; E strictly inside its bracket;
    t in [0, T1); V from the barrier (one time in 64 exactly on it) up to
    1e4 times the barrier; puts and calls."""
    r, q, a = (rng.uniform(-0.1, 0.2) for _ in range(3))
    sigma = rng.uniform(0.05, 1.5)
    T = _quantize(rng.uniform(0.5, 5.0))
    R = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.95)
    T1 = max(_quantize(T * rng.uniform(0.1, 0.9)), _TIME_QUANTUM)
    disc = math.exp(-r * (T - T1))
    E = disc * (R + (1.0 - R) * rng.uniform(0.05, 0.95))
    kind = "put" if rng.random() < 0.5 else "call"
    t = _quantize(T1 * rng.random())
    b = 100.0
    level = b * math.exp(-a * (T - t))
    V = level if rng.random() < 1.0 / 64.0 else level * math.exp(rng.uniform(0.0, math.log(1e4)))
    return Position(r, q, sigma, T, a, b, R, T1, E, kind, t, V)


def book_pool() -> list[Position]:
    rng = random.Random(BOOK_POOL_SEED)
    return [draw_position(rng) for _ in range(BOOK_POOL_SIZE)]


def price_position(p: Position, shift: float) -> tuple[float, float, float, float]:
    """One price-puttable / price-callable row: survival, bond, option and
    the composite, with every date moved by shift."""
    market = cp.MarketParams(r=p.r, q=p.q, sigma=p.sigma)
    bond = cp.BondSpec(T=p.T + shift, a=p.a, b=p.b, R=p.R)
    put = p.kind == "put"
    option = cp.OptionSpec(T1=p.T1 + shift, E=p.E,
                           kind=cp.OptionKind.PUT if put else cp.OptionKind.CALL)
    t = p.t + shift
    composite = cp.puttable_bond_price if put else cp.callable_bond_price
    return (cp.survival_probability(p.V, t, bond, market),
            cp.bond_price(p.V, t, bond, market),
            cp.bond_option_price(p.V, t, bond, option, market),
            composite(p.V, t, bond, option, market))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point in this process and capture its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class Request:
    kind: str
    index: int  # pool index (book), figure number (figures), config slot (verify)
    shift: float = 0.0


class Workload:
    """Seeded request stream, split into cycles of fixed composition."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.csv_bytes = 0  # CSV output read back by judge()

    def cycle(self, k: int) -> list[Request]:
        raise NotImplementedError

    def warmup_cycle(self) -> list[Request]:
        return self.cycle(-1)

    def load_reference(self) -> None:
        """Read the recorded outputs judge() compares against."""

    def execute(self, req: Request):
        raise NotImplementedError

    def judge(self, req: Request, result) -> gate.Verdict:
        """Verdict on what execute() returned, or on the exception it raised."""
        raise NotImplementedError


class Book(Workload):
    name = "book"

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.pool = book_pool()
        self.order = list(range(BOOK_POOL_SIZE))
        rng.shuffle(self.order)
        self.first_slot = rng.randrange(_SHIFT_SLOTS)

    def cycle(self, k: int) -> list[Request]:
        # slot k + 1 for cycle k: the warm-up (k = -1) gets its own shift too
        shift = _SHIFT_QUANTUM * ((self.first_slot + k + 1) % _SHIFT_SLOTS)
        return [Request("book", i, shift) for i in self.order]

    def load_reference(self) -> None:
        self.reference = gate.load_book_reference()

    def execute(self, req: Request):
        return price_position(self.pool[req.index], req.shift)

    def judge(self, req: Request, result) -> gate.Verdict:
        return gate.book_verdict(self.pool[req.index], result, self.reference[req.index])


class Figures(Workload):
    name = "figures"

    def cycle(self, k: int) -> list[Request]:
        return [Request("figures", n) for n in FIGURES]

    def csv_path(self, figure: int) -> str:
        return os.path.join(self.work_dir, f"figure{figure}.csv")

    def load_reference(self) -> None:
        self.reference = {n: gate.load_figure_reference(n) for n in FIGURES}

    def execute(self, req: Request):
        return run_cli(["curves", "--figure", str(req.index), "--samples", "201",
                        "--out", self.csv_path(req.index)])

    def judge(self, req: Request, result) -> gate.Verdict:
        """Reads the CSV back, then removes it so the next request of this
        figure must write its own."""
        path = self.csv_path(req.index)
        text = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
            self.csv_bytes += len(text.encode())
        if isinstance(result, BaseException):
            return gate.Verdict(False, type(result).__name__, True)
        return gate.figure_verdict(result[0], text, self.reference[req.index])


VERIFY_CONFIGS = ("reference", "moving_call")
# verify's outcome depends on the MC seed, and the reference records every
# check's status for MC seeds 0..VERIFY_SEEDS-1; a run uses seed % VERIFY_SEEDS
VERIFY_SEEDS = 20


class Verify(Workload):
    name = "verify"

    def cycle(self, k: int) -> list[Request]:
        return [Request("verify", slot) for slot in range(len(VERIFY_CONFIGS))]

    def warmup_cycle(self) -> list[Request]:
        # the PDE and quadrature suites load every lazy path verify uses;
        # a full MC warm-up would cost a whole request per configuration
        return [Request("verify-warmup", slot) for slot in range(len(VERIFY_CONFIGS))]

    def argv(self, req: Request) -> list[str]:
        argv = ["verify", "--seed", str(self.seed % VERIFY_SEEDS)]
        if VERIFY_CONFIGS[req.index] == "moving_call":
            argv += ["--config", MOVING_CALL_CONFIG]
        return argv

    def execute(self, req: Request):
        if req.kind == "verify-warmup":
            for suite in ("pde", "quadrature"):
                run_cli(self.argv(req) + ["--suite", suite])
            return None
        return run_cli(self.argv(req) + ["--suite", "all"])

    def load_reference(self) -> None:
        self.reference = gate.load_verify_reference()

    def judge(self, req: Request, result) -> gate.Verdict:
        if req.kind == "verify-warmup":
            return gate.PASS
        if isinstance(result, BaseException):
            return gate.Verdict(False, type(result).__name__, True)
        code, stdout = result
        expected = self.reference[VERIFY_CONFIGS[req.index]][str(self.seed % VERIFY_SEEDS)]
        return gate.verify_verdict(code, stdout, expected)


WORKLOADS = {w.name: w for w in (Book, Figures, Verify)}
