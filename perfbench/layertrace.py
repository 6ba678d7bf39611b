"""Per-layer tracing from outside the library.

Tracer.install() replaces each traced public function with a timing
wrapper in every credit_pricer module namespace that binds it, so calls
between modules pass through the wrapper too; uninstall() puts the
originals back. Each wrapped call is a span with a name, start, end, the
span that caused it and the request it belongs to. Self time is a span's
duration minus the time its child spans cover.

Spans are aggregated as they close. Full span records are kept in memory
for the first SPAN_REQUESTS requests only (a book request opens about 200
spans) and written out by dump().
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import credit_pricer.cli  # noqa: F401  (loads every module the tracer patches)
from credit_pricer.errors import PricerError

# (module, function) pairs the tracer wraps, innermost layer first
TRACED = (
    ("special_functions", "norm_cdf"),
    ("special_functions", "binorm_cdf"),
    ("bs_closed_form", "power_binary_price"),
    ("bs_closed_form", "tbvp_w"),
    ("credit_instruments", "survival_probability"),
    ("credit_instruments", "bond_price"),
    ("credit_instruments", "early_redemption_boundary"),
    ("credit_instruments", "bond_option_price"),
    ("credit_instruments", "puttable_bond_price"),
    ("credit_instruments", "callable_bond_price"),
    ("oracles", "mc_barrier_price"),
    ("oracles", "pde_solve_tbvp"),
    ("oracles", "quadrature_green"),
    ("cli", "main"),
)

SPAN_REQUESTS = 20


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()  # (kind, exception type) leaving the instruments layer
        self.boundary_iterations = 0
        self.mc_path_steps = 0
        self.pde_cell_steps = 0
        self.distinct_keys = 0  # summed over cycles
        self._cycle_keys: set = set()
        self._stack: list = []  # open spans: [name, start, child time, span id]
        self._originals: list = []
        self.request = -1
        self.spans: list = []  # (id, parent id, request, name, start, end)
        self._next_id = 0

    # -- request and cycle bookkeeping --------------------------------------
    def begin_request(self, index: int) -> None:
        self.request = index

    def end_cycle(self) -> None:
        self.distinct_keys += len(self._cycle_keys)
        self._cycle_keys.clear()

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "credit_pricer" or name.startswith("credit_pricer."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"credit_pricer.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    self._originals.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._originals):
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        after = {
            "credit_instruments.early_redemption_boundary": self._on_boundary,
            "oracles.mc_barrier_price": self._on_mc,
            "oracles.pde_solve_tbvp": self._on_pde,
        }.get(name)
        signature = inspect.signature(fn) if after else None
        instruments = name.startswith("credit_instruments.")
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, self._next_id]
            self._next_id += 1
            outer_instruments = instruments and not any(
                s[0].startswith("credit_instruments.") for s in stack)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if outer_instruments:
                    kind = "pricer" if isinstance(exc, PricerError) else "uncaught"
                    self.errors[(kind, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - span[1]
                self.calls[name] += 1
                self.self_s[name] += duration - span[2]
                if stack:
                    stack[-1][2] += duration
                if 0 <= self.request < SPAN_REQUESTS:
                    parent = stack[-1][3] if stack else None
                    self.spans.append((span[3], parent, self.request, name, span[1], end))
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _on_boundary(self, args, result) -> None:
        self.boundary_iterations += result.iterations
        self._cycle_keys.add((args["bond"], args["option"], args["market"]))

    def _on_mc(self, args, result) -> None:
        self.mc_path_steps += args["mc"].n_paths * args["mc"].n_steps

    def _on_pde(self, args, result) -> None:
        self.pde_cell_steps += args["grid"].n_space * args["grid"].n_time

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(tracer: Tracer, requests: int, csv_bytes: int) -> dict:
    """Per-layer metrics of a traced phase, normalised per request so that
    runs of different length compare. Values are (value, unit) pairs."""
    per = 1.0 / requests
    out = {}
    for name in ("special_functions.binorm_cdf", "special_functions.norm_cdf",
                 "bs_closed_form.power_binary_price", "bs_closed_form.tbvp_w",
                 "credit_instruments.bond_option_price",
                 "credit_instruments.early_redemption_boundary",
                 "credit_instruments.bond_price",
                 "oracles.mc_barrier_price", "oracles.pde_solve_tbvp",
                 "oracles.quadrature_green", "cli.main"):
        out[f"{name}.calls"] = (tracer.calls[name] * per, "calls/req")
        out[f"{name}.self_s"] = (tracer.self_s[name] * per, "s/req")
    solves = tracer.calls["credit_instruments.early_redemption_boundary"]
    out["credit_instruments.early_redemption_boundary.iterations"] = (
        tracer.boundary_iterations * per, "iter/req")
    out["credit_instruments.boundary_distinct_ratio"] = (
        tracer.distinct_keys / solves if solves else 0.0, "ratio")
    for kind in ("pricer", "uncaught"):
        n = sum(c for (k, _), c in tracer.errors.items() if k == kind)
        out[f"credit_instruments.errors.{kind}"] = (n * per, "errors/req")
    mc_s = tracer.self_s["oracles.mc_barrier_price"]
    out["oracles.mc.path_steps_per_s"] = (tracer.mc_path_steps / mc_s if mc_s else 0.0, "1/s")
    pde_s = tracer.self_s["oracles.pde_solve_tbvp"]
    out["oracles.pde.cell_steps_per_s"] = (tracer.pde_cell_steps / pde_s if pde_s else 0.0, "1/s")
    out["cli.csv_bytes"] = (csv_bytes * per, "bytes/req")
    return out


def errors_by_type(tracer: Tracer) -> dict[str, int]:
    return {f"{kind}.{etype}": n for (kind, etype), n in sorted(tracer.errors.items())}

