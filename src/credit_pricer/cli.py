"""Command-line surface: pricing tables, the early-redemption boundary,
figure-curve CSV export, and oracle verification.

Configuration is one JSON document with sections market/bond/option,
evaluation points, curve controls, and numerics. Every command echoes the
effective config as a single compact JSON line so a run can be reproduced
from its own output. Exit codes: 0 success, 1 verification/numerical
failure, 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import sys
from dataclasses import dataclass

from . import verification
from .credit_instruments import (
    BondSpec,
    OptionKind,
    OptionSpec,
    barrier_level,
    bond_option_price,
    bond_price,
    callable_bond_price,
    early_redemption_boundary,
    puttable_bond_price,
    survival_probability,
)
from .errors import InvalidParamsError, NumericalError, PricerError
from .oracles import GridSpec, McSpec
from .special_functions import MarketParams

__all__ = ["RunConfig", "load_config", "main"]


# Shipped default, the reference numerical experiment, and the config schema.
_DEFAULT_CONFIG = {
    "market": {"r": 0.04, "q": 0.0, "sigma": 0.5},
    "bond": {"T": 2.0, "a": 0.0, "b": 100.0, "R": 0.7},
    "option": {"kind": "put", "T1": 1.0, "E": 0.9},
    "points": {"V": [199.0], "t": [0.0]},
    "curves": {"samples": 201, "v_max_mult": 3.0, "series_V": [139.0, 199.0, 300.0],
               "series_t": [0.0, 0.5]},
    "numerics": {
        "seed": 1729,
        "grid": {"n_space": GridSpec.n_space, "n_time": GridSpec.n_time},
        "mc": {"n_paths": McSpec.n_paths, "n_steps": McSpec.n_steps},
    },
    "out": None,
}


@dataclass(frozen=True)
class RunConfig:
    """The config document as _walk returns it, every default filled in and
    typed, and the components built from it."""

    doc: dict
    market: MarketParams
    bond: BondSpec
    option: OptionSpec | None
    grid: GridSpec
    mc: McSpec

    def to_dict(self) -> dict:
        return _plain(self.doc)


def _plain(value):
    """value as JSON: tuples become lists, enum members their values, and
    null keys (an absent option or out) are dropped."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items() if v is not None}
    if isinstance(value, tuple):
        return list(value)
    return value.value if isinstance(value, enum.Enum) else value


def _is_number(value) -> bool:
    """A JSON number that a double can hold; true and false are not numbers."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


# What a key takes, by the type of its default, and its name in an error;
# the one string key, option.kind, takes an OptionKind value.
_TAKES = {
    float: (_is_number, "a number"),
    int: (lambda v: _is_number(v) and float(v).is_integer(), "an integer"),
    list: (lambda v: _is_number(v) or type(v) is list and v != [] and all(map(_is_number, v)),
           "a number or non-empty list of numbers"),
    type(None): (lambda v: v is None or type(v) is str, "a string path"),
}


def _typed(value, default, where: str):
    """value checked against what its default's type takes (_TAKES) and
    converted to that type: a tuple of floats for a list, an OptionKind for a string."""
    if isinstance(default, str):
        if str(value) not in [kind.value for kind in OptionKind]:
            raise InvalidParamsError(f"option kind must be 'put' or 'call', got '{value}'")
        return OptionKind(str(value))
    takes, name = _TAKES[type(default)]
    if not takes(value):
        raise InvalidParamsError(f"'{where}' must be {name}")
    if isinstance(default, list):
        return tuple(map(float, value)) if isinstance(value, list) else (float(value),)
    return value if default is None else type(default)(value)


def _walk(doc, schema: dict, where: str, required=()) -> dict:
    """A config section checked against its schema in _DEFAULT_CONFIG, typed and with
    defaults filled. Keys in required, and all keys of a non-null option, must be given."""
    if not isinstance(doc, dict):
        raise InvalidParamsError(f"config section '{where}' must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise InvalidParamsError(f"config section '{where}' has unknown keys {sorted(unknown)}")
    out = {}
    for key, default in schema.items():
        if key in required and key not in doc:
            raise InvalidParamsError(f"config section '{where}' is missing key '{key}'")
        name = key if where == "top level" else f"{where}.{key}"
        if key == "option":
            out[key] = None if doc.get(key) is None else _walk(doc[key], default, name, default)
        elif isinstance(default, dict):
            out[key] = _walk(doc.get(key, default), default, name)
        else:
            out[key] = _typed(doc.get(key, default), default, name)
    return out


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and build a RunConfig; every component invariant is
    re-checked by the component constructors."""
    if not isinstance(doc, dict):
        raise InvalidParamsError("config document must be a JSON object")
    cfg = _walk(doc, _DEFAULT_CONFIG, "top level", required=("market", "bond"))
    crv, num = cfg["curves"], cfg["numerics"]
    if crv["samples"] < 2:
        raise InvalidParamsError(f"curves.samples must be >= 2, got {crv['samples']}")
    if not (math.isfinite(crv["v_max_mult"]) and crv["v_max_mult"] > 1.0):
        raise InvalidParamsError(f"curves.v_max_mult must exceed 1, got {crv['v_max_mult']}")
    return RunConfig(
        cfg, MarketParams(**cfg["market"]), BondSpec(**cfg["bond"]),
        None if cfg["option"] is None else OptionSpec(**cfg["option"]),
        GridSpec(**num["grid"]), McSpec(**num["mc"], seed=num["seed"]),
    )


def load_config(path: str | None) -> RunConfig:
    """Load a config file, or the shipped default when path is None."""
    if path is None:
        return config_from_dict(_DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or too deep
            raise InvalidParamsError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def _with_overrides(config: RunConfig, args) -> RunConfig:
    """The config with flag overrides, checked again as a config file is:
    --seed, --samples and --out replace their config values."""
    doc = config.to_dict()
    if args.seed is not None:
        doc["numerics"]["seed"] = args.seed
    if args.samples is not None:
        doc["curves"]["samples"] = args.samples
    if args.out is not None:
        doc["out"] = args.out
    return config_from_dict(doc)


def _echo(config: RunConfig) -> None:
    print("config: " + json.dumps(config.to_dict(), separators=(",", ":"), sort_keys=True))


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_curves_csv(path: str, meta: dict, x_name: str, xs: list[float],
                      columns) -> list[str]:
    """One CSV: the abscissa column, then one column per curve, full double
    precision, preceded by a '#'-commented parameter echo. columns yields
    (name, ordinates) pairs, each checked before the next is priced; the
    names are returned."""
    names, ordinates = [], []
    for name, ys in columns:
        if not all(map(math.isfinite, ys)):
            raise InvalidParamsError(f"curve {name}: non-finite ordinate")
        names.append(name)
        ordinates.append(ys)
    lines = ["# parameters: " + json.dumps(meta, separators=(",", ":"), sort_keys=True),
             ",".join([x_name] + names)]
    lines += [",".join(map(_fmt, row)) for row in zip(xs, *ordinates)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return names


def _require_option(config: RunConfig) -> OptionSpec:
    if config.option is None:
        raise InvalidParamsError("this command requires an 'option' config section")
    return config.option


def _print_table(headers: list[str], rows: list[list[float]]) -> None:
    widths = [max(len(h), 14) for h in headers]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(format(v, ".10f").rjust(w) for v, w in zip(row, widths)))


# The (header, pricer) columns each price-* command adds to V, t, survival
# and bond; a header of None is the option's kind.
_PRICE_COLUMNS = {
    "price-bond": [],
    "price-option": [(None, bond_option_price)],
    "price-puttable": [("put", bond_option_price), ("puttable", puttable_bond_price)],
    "price-callable": [("call", bond_option_price), ("callable", callable_bond_price)],
}


def cmd_price(config: RunConfig, args) -> int:
    """Price table at the configured (V, t) points."""
    _echo(config)
    bond, market, points = config.bond, config.market, config.doc["points"]
    option = _require_option(config) if args.columns else config.option
    headers = ["V", "t", "survival", "bond"] + [h or option.kind.value for h, _ in args.columns]
    rows = [[v, t, survival_probability(v, t, bond, market), bond_price(v, t, bond, market)]
            + [price(v, t, bond, option, market) for _, price in args.columns]
            for v in points["V"] for t in points["t"]]
    _print_table(headers, rows)
    return 0


def cmd_boundary(config: RunConfig, args) -> int:
    _echo(config)
    option = _require_option(config)
    result = early_redemption_boundary(config.bond, option, config.market)
    print(f"early redemption boundary K = {_fmt(result.K)}")
    print(f"price residual            = {_fmt(result.residual)}")
    print(f"iterations                = {result.iterations}")
    return 0


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced abscissae from lo to hi, checked before any curve is priced."""
    xs = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    if not all(map(math.isfinite, xs)):
        raise NumericalError(f"curve abscissa from {lo!r} to {hi!r} leaves the float range")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InvalidParamsError(
            f"curve abscissa from {lo!r} to {hi!r} is not strictly increasing")
    return xs


def cmd_curves(config: RunConfig, args) -> int:
    """Sample the requested figure's curves and write one CSV."""
    bond, market, figure = config.bond, config.market, args.figure
    crv = config.doc["curves"]
    n, v_max = crv["samples"], bond.b * crv["v_max_mult"]
    option = _require_option(config) if figure > 1 else None
    # a series' column is priced when the writer draws it, after the last is checked
    if figure == 1:
        x_name, xs = "t", _linspace(0.0, bond.T, n)
        columns = ((f"bond_V{v:g}", [bond_price(v, t, bond, market) for t in xs])
                   for v in crv["series_V"])
    elif figure == 2:
        x_name, xs = "V", _linspace(barrier_level(bond, option.T1), v_max, n)
        columns = [("bond_at_T1", [bond_price(v, option.T1, bond, market) for v in xs])]
    elif figure == 3:
        # at expiry the continuous limit: the exercise value
        x_name, xs = "t", _linspace(0.0, option.T1, n)
        columns = ((f"{option.kind.value}_V{v:g}",
                    [bond_option_price(v, t, bond, option, market) for t in xs])
                   for v in crv["series_V"])
    elif figure == 4:
        for t in crv["series_t"]:
            if not 0.0 <= t < option.T1:
                raise InvalidParamsError(
                    f"curves.series_t values must lie in [0, T1) for figure 4, got {t}")
        lo = max(barrier_level(bond, t) for t in crv["series_t"])
        # a series whose barrier is lo is knocked out there: its price is 0
        x_name, xs = "V", _linspace(lo, v_max, n)
        columns = ((f"{option.kind.value}_t{t:g}",
                    [bond_option_price(v, t, bond, option, market) for v in xs])
                   for t in crv["series_t"])
    else:
        x_name, xs = "t", _linspace(0.0, bond.T, n)
        columns = ((f"puttable_V{v:g}", [puttable_bond_price(v, t, bond, option, market)
                                         for t in xs]) for v in crv["series_V"])

    out = config.doc["out"] if config.doc["out"] is not None else f"figure{figure}.csv"
    names = _write_curves_csv(out, {"figure": figure, "config": config.to_dict()},
                              x_name, xs, columns)
    _echo(config)
    print(f"wrote {out}: {', '.join(names)} ({n} samples)")
    return 0


def _verify_checks(config: RunConfig, suite: str):
    """Yield the suite's checks in order, each run when it is reached."""
    bond, market, option, doc = config.bond, config.market, config.option, config.doc
    probe_v, v0, seed = doc["curves"]["series_V"], doc["points"]["V"][0], doc["numerics"]["seed"]
    if suite in ("pde", "all"):
        yield from verification.pde_checks(bond, market, option, config.grid, probe_v)
    if suite in ("mc", "all"):
        yield from verification.mc_checks(bond, market, option, v0, config.mc)
    if suite in ("quadrature", "all"):
        yield verification.quadrature_sweep(seed)
        yield verification.quadrature_bond(bond, market, probe_v)
    if suite == "all":
        yield verification.survival_shape(bond, market)
        yield verification.bond_shape(bond, market)
        yield verification.image_annihilation(seed + 1)
        if option is not None:
            yield verification.parity_at_expiry(bond, market, option, probe_v)
        yield verification.direction_complement(seed + 2)
        yield verification.hedge_positivity()
        yield verification.formula_vs_composition(seed + 3)


def cmd_verify(config: RunConfig, args) -> int:
    _echo(config)
    checks = []
    for check in _verify_checks(config, args.suite):
        checks.append(check)
        if check.error is not None:
            print(f"FAIL  {check.name:<34} numerical failure: {check.error}")
        else:
            print(f"{'PASS' if check.ok else 'FAIL'}  {check.name:<34} "
                  f"measured={check.measured:.6e}  tol={check.tol:.6e}")
    failures = sum(not check.ok for check in checks)
    print(f"{len(checks)} checks, {failures} failed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credit-pricer",
        description="Defaultable bond and bond-option pricing under a "
                    "barrier default model, with numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path (default: built-in reference setup)")
    common.add_argument("--out", help="output path for CSV-writing commands")
    common.add_argument("--seed", type=int, help="RNG seed (wins over the config)")
    common.add_argument("--samples", type=int, help="curve samples per series")
    for name, columns in _PRICE_COLUMNS.items():
        sub.add_parser(name, parents=[common]).set_defaults(run=cmd_price, columns=columns)
    sub.add_parser("boundary", parents=[common]).set_defaults(run=cmd_boundary)
    curves = sub.add_parser("curves", parents=[common])
    curves.add_argument("--figure", type=int, required=True, choices=range(1, 6))
    curves.set_defaults(run=cmd_curves)
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--suite", default="all", choices=("all", "pde", "mc", "quadrature"))
    verify.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_with_overrides(load_config(args.config), args), args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except PricerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
