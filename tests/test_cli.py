"""Tests for the command-line surface: exit codes, config handling, seed
precedence, table and CSV output."""

import contextlib
import copy
import io
import json
import math
import pathlib
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credit_pricer import bond_price, verification
from credit_pricer.cli import _DEFAULT_CONFIG, config_from_dict, main
from helpers import OVERFLOW_CONFIG, bisect, draws

_BASE = {
    "market": {"r": 0.04, "q": 0.0, "sigma": 0.5},
    "bond": {"T": 2.0, "a": 0.0, "b": 100.0, "R": 0.7},
    "option": {"T1": 1.0, "E": 0.9, "kind": "put"},
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _echoed_config(out: str) -> dict:
    line = next(l for l in out.splitlines() if l.startswith("config: "))
    return json.loads(line[len("config: "):])


class TestExitCodes:
    def test_boundary_ok(self, capsys):
        assert main(["boundary"]) == 0

    def test_firm_value_below_barrier(self, tmp_path, capsys):
        doc = dict(_BASE, points={"V": [50.0], "t": [0.0]})
        code = main(["price-bond", "--config", _write_config(tmp_path, doc)])
        assert code == 2
        assert "below default barrier" in capsys.readouterr().err

    def test_missing_option_section(self, tmp_path, capsys):
        doc = {"market": _BASE["market"], "bond": _BASE["bond"]}
        code = main(["price-option", "--config", _write_config(tmp_path, doc)])
        assert code == 2
        assert "option" in capsys.readouterr().err

    def test_exercise_below_bracket(self, tmp_path, capsys):
        doc = dict(_BASE, option={"T1": 1.0, "E": 0.5, "kind": "put"})
        code = main(["boundary", "--config", _write_config(tmp_path, doc)])
        assert code == 2
        assert "exercise amount must satisfy" in capsys.readouterr().err

    def test_mc_suite_rejects_option_after_bond_before_drawing(self, tmp_path, capsys,
                                                               monkeypatch):
        """The option is checked against the bond, as the composite prices
        check it, before the simulator draws a number."""
        monkeypatch.setattr(verification, "mc_barrier_price",
                            lambda *args: pytest.fail("the simulator ran"))
        doc = _with("option.T1", 3.0)
        assert main(["verify", "--suite", "mc", "--config", _write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == "error: option maturity 3.0 must precede bond maturity 2.0\n"

    def test_pde_suite_rejects_option_after_bond(self, tmp_path, capsys):
        """The put and call start from the PDE bond at T1, which exists only
        over the bond's life: an option expiring after it is invalid input."""
        doc = _with("option.T1", 3.0)
        assert main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "error: option maturity 3.0 follows bond maturity 2.0\n"

    @pytest.mark.parametrize("with_option", [True, False], ids=["option", "no_option"])
    def test_mc_suite_rejects_firm_value_below_barrier_before_drawing(
            self, tmp_path, capsys, monkeypatch, with_option):
        """The bond's closed form rejects the firm value with the pricer's
        own message before the simulator draws a number."""
        monkeypatch.setattr(verification, "mc_barrier_price",
                            lambda *args: pytest.fail("the simulator ran"))
        doc = _with("points.V", [50])
        if not with_option:
            del doc["option"]
        assert main(["verify", "--suite", "mc", "--config", _write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == "error: firm value 50.0 below default barrier 100.0 at t=0.0\n"

    def test_undersized_grid_is_invalid_config(self, tmp_path, capsys):
        doc = dict(_BASE, numerics={"grid": {"n_space": 10}})
        code = main(["verify", "--suite", "pde",
                     "--config", _write_config(tmp_path, doc)])
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        doc = dict(_BASE, extra={"x": 1})
        code = main(["price-bond", "--config", _write_config(tmp_path, doc)])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        code = main(["price-option", "--config", _write_config(tmp_path, OVERFLOW_CONFIG)])
        assert code == 1
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("command", ["price-option", "price-puttable"])
    def test_underflowed_ratio_is_numerical_failure(self, tmp_path, capsys, command):
        # K / V underflows to 0 and its log is a math domain error
        doc = dict(_BASE, bond=dict(_BASE["bond"], b=1e-300),
                   points={"V": [1e30], "t": [0.0]})
        assert main([command, "--config", _write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_image_point_out_of_range_is_numerical_failure(self, tmp_path, capsys):
        # b^2 / V = 1e-400 rounds to 0 inside the composed option path
        doc = dict(_BASE, bond=dict(_BASE["bond"], b=1e-200), points={"V": [1.0], "t": [0.0]})
        assert main(["price-option", "--config", _write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: image point of x=")
        assert "underlying" not in err

    def test_huge_barrier_prices_to_scale(self, tmp_path, capsys):
        """The model depends on V / b alone: figure 3's put at b = 1e200 and
        V = 2e200, where b * b overflows, is the one at b = 100 and V = 200,
        column for column at full precision."""
        curves = []
        for b in (1e200, 100.0):
            doc = dict(_BASE, bond=dict(_BASE["bond"], b=b), curves={"series_V": [2.0 * b]})
            out = tmp_path / f"fig3_{b:g}.csv"
            assert main(["curves", "--figure", "3", "--samples", "11", "--out", str(out),
                         "--config", _write_config(tmp_path, doc)]) == 0
            rows = out.read_text().splitlines()[2:]
            curves.append([float(row.split(",")[1]) for row in rows])
        capsys.readouterr()
        huge, reference = curves
        assert len(huge) == 11
        assert huge == pytest.approx(reference, rel=1e-12)

    def test_figure4_series_t_checked_before_barrier(self, tmp_path, capsys):
        # the barrier at t = 1e4 leaves the float range; the range check wins
        doc = dict(_BASE, bond=dict(_BASE["bond"], a=0.1),
                   curves={"series_t": [0.0, 1e4]})
        out = str(tmp_path / "fig4.csv")
        code = main(["curves", "--figure", "4", "--out", out,
                     "--config", _write_config(tmp_path, doc)])
        assert code == 2
        assert ("curves.series_t values must lie in [0, T1) for figure 4"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("figure, lo", [(2, "271.8281828459045"), (4, "738.905609893065")])
    def test_barrier_above_v_max_is_checked_before_pricing(self, tmp_path, capsys, figure, lo):
        """A barrier above v_max leaves a falling abscissa, rejected before
        any point is priced (a priced point would lie below the barrier)."""
        doc = dict(_BASE, bond=dict(_BASE["bond"], a=-1.0), curves={"v_max_mult": 2.0})
        out = tmp_path / "fig.csv"
        assert main(["curves", "--figure", str(figure), "--out", str(out),
                     "--config", _write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: curve abscissa from {lo} to 200.0 is not strictly increasing\n")
        assert not out.exists()

    def test_figure5_rejects_a_call(self, tmp_path, capsys):
        doc = dict(_BASE, option=dict(_BASE["option"], kind="call"))
        out = tmp_path / "fig5.csv"
        assert main(["curves", "--figure", "5", "--out", str(out),
                     "--config", _write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: puttable bond requires a put option spec\n")
        assert not out.exists()

    def test_non_utf8_config_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"market": "\xff"}')
        assert main(["price-bond", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config is not valid JSON: 'utf-8'")

    def test_deeply_nested_config_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000)
        assert main(["price-bond", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config is not valid JSON: maximum recursion depth exceeded")

    def test_missing_config_file(self, capsys):
        assert main(["price-bond", "--config", "/nonexistent/config.json"]) == 3

    def test_unwritable_output(self, tmp_path, capsys):
        out = str(tmp_path / "missing_dir" / "fig.csv")
        assert main(["curves", "--figure", "2", "--out", out]) == 3

    def test_coarse_grid_fails_verification(self, tmp_path, capsys):
        """The legal floor (50x50) resolves the bond but not the option
        payoff kink, so the PDE suite must report failures and exit 1."""
        doc = dict(_BASE, numerics={"grid": {"n_space": 50, "n_time": 50}})
        code = main(["verify", "--suite", "pde",
                     "--config", _write_config(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestBoundaryCommand:
    def test_reference_value(self, capsys):
        assert main(["boundary"]) == 0
        out = capsys.readouterr().out
        k_line = next(l for l in out.splitlines() if l.startswith("early redemption boundary"))
        k = float(k_line.split("=")[1])
        assert k == pytest.approx(199.109, abs=0.01)

    def test_shifted_exercise_against_bisection(self, tmp_path, capsys, bond, market):
        doc = dict(_BASE, option={"T1": 1.0, "E": 0.95, "kind": "put"})
        assert main(["boundary", "--config", _write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        k_line = next(l for l in out.splitlines() if l.startswith("early redemption boundary"))
        k = float(k_line.split("=")[1])
        ref = bisect(lambda v: bond_price(v, 1.0, bond, market) - 0.95,
                     100.0 * (1.0 + 1e-9), 1e4)
        assert k == pytest.approx(ref, rel=1e-6)


class TestPriceCommands:
    def test_puttable_table(self, capsys, bond, market, put_spec):
        from credit_pricer import (bond_option_price, puttable_bond_price,
                                   survival_probability)
        assert main(["price-puttable"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = next(l for l in lines if "puttable" in l and "survival" in l)
        row = lines[lines.index(header) + 1].split()
        v, t = float(row[0]), float(row[1])
        assert (v, t) == (199.0, 0.0)
        expected = (
            survival_probability(v, t, bond, market),
            bond_price(v, t, bond, market),
            bond_option_price(v, t, bond, put_spec, market),
            puttable_bond_price(v, t, bond, put_spec, market),
        )
        for got_str, want in zip(row[2:], expected):
            assert float(got_str) == pytest.approx(want, abs=5e-10)

    @pytest.mark.parametrize("command, kind, at_expiry",
                             [("price-puttable", "put", max), ("price-callable", "call", min)])
    def test_composite_table_runs_past_expiry(self, tmp_path, capsys, command, kind,
                                              at_expiry):
        """Points before, at and after T1 = 1: at T1 the puttable bond is
        max(B, E) and the callable min(B, E); after it the option is worth 0
        and the composite is the bond."""
        doc = dict(_BASE, option=dict(_BASE["option"], kind=kind),
                   points={"V": [139.0, 199.0, 300.0], "t": [0.5, 1.0, 1.5]})
        assert main([command, "--config", _write_config(tmp_path, doc)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:]
        assert header.split() == ["V", "t", "survival", "bond", kind,
                                  command.removeprefix("price-")]
        rows = [list(map(float, row.split())) for row in rows]
        assert len(rows) == 9
        for v, t, _, bond, option, composite in rows:
            if t == 1.0:
                assert composite == at_expiry(bond, 0.9), v
            elif t == 1.5:
                assert (option, composite) == (0.0, bond), v

    def test_bond_only_needs_no_option(self, tmp_path, capsys):
        doc = {"market": _BASE["market"], "bond": _BASE["bond"],
               "points": {"V": [139.0, 199.0], "t": [0.0, 0.5]}}
        assert main(["price-bond", "--config", _write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.lstrip()[0].isdigit()]) == 4


class TestSeedPrecedence:
    def test_flag_overrides_config(self, tmp_path, capsys):
        doc = dict(_BASE, numerics={"seed": 42})
        assert main(["price-bond", "--config", _write_config(tmp_path, doc),
                     "--seed", "55"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 55

    def test_config_seed_by_default(self, capsys):
        assert main(["price-bond"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 1729

    @pytest.mark.parametrize("value", ["123", "not-a-number"])
    def test_environment_sets_no_seed(self, value, capsys, monkeypatch):
        monkeypatch.setenv("CREDIT_PRICER_SEED", value)
        assert main(["price-bond"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 1729


class TestConfigRoundTrip:
    def test_echo_reparses_identically(self, tmp_path, capsys):
        doc = dict(_BASE,
                   points={"V": [139.0, 250.0], "t": [0.0, 0.25]},
                   curves={"samples": 31, "v_max_mult": 2.5,
                           "series_V": [150.0], "series_t": [0.0]},
                   numerics={"seed": 42,
                             "grid": {"n_space": 101, "n_time": 100},
                             "mc": {"n_paths": 2000, "n_steps": 50}})
        assert main(["price-bond", "--config", _write_config(tmp_path, doc)]) == 0
        echoed = _echoed_config(capsys.readouterr().out)
        assert config_from_dict(echoed).to_dict() == echoed

    def test_echo_pinned_for_every_key(self, tmp_path, capsys):
        """Every key set away from its default, some as ints or scalars that
        the echo types, plus the three overriding flags: the exact echo line.
        A key the echo dropped would pass the re-parse test above, since the
        re-parse fills it back in with its default."""
        doc = {"market": {"r": 0.03, "q": 0.01, "sigma": 0.4},
               "bond": {"T": 2.5, "a": 0.02, "b": 90, "R": 0.6},
               "option": {"kind": "call", "T1": 1.25, "E": 0.92},
               "points": {"V": [150.0, 220], "t": 0.125},
               "curves": {"samples": 21, "v_max_mult": 2.5, "series_V": 120,
                          "series_t": [0.25, 0.5]},
               "numerics": {"seed": 7,
                            "grid": {"n_space": 201, "n_time": 150.0},
                            "mc": {"n_paths": 5000, "n_steps": 60}},
               "out": "from_config.csv"}
        assert main(["price-bond", "--config", _write_config(tmp_path, doc),
                     "--seed", "99", "--samples", "33", "--out", "flag.csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            'config: {"bond":{"R":0.6,"T":2.5,"a":0.02,"b":90.0},'
            '"curves":{"samples":33,"series_V":[120.0],"series_t":[0.25,0.5],"v_max_mult":2.5},'
            '"market":{"q":0.01,"r":0.03,"sigma":0.4},'
            '"numerics":{"grid":{"n_space":201,"n_time":150},'
            '"mc":{"n_paths":5000,"n_steps":60},'
            '"seed":99},"option":{"E":0.92,"T1":1.25,"kind":"call"},"out":"flag.csv",'
            '"points":{"V":[150.0,220.0],"t":[0.125]}}')

    def test_readme_config_is_the_default(self):
        """README's config block loads and is the shipped default apart from out."""
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(block)
        config_from_dict(doc)
        assert {k: v for k, v in doc.items() if k != "out"} == {
            k: v for k, v in _DEFAULT_CONFIG.items() if k != "out"}


class TestCurvesCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["curves", "--figure", "4", "--samples", "41",
                     "--out", str(a)]) == 0
        assert main(["curves", "--figure", "4", "--samples", "41",
                     "--out", str(b)]) == 0
        # the metadata line embeds the output path; the data must match bytewise
        data_a = a.read_bytes().split(b"\n", 1)[1]
        data_b = b.read_bytes().split(b"\n", 1)[1]
        assert data_a == data_b

    def test_csv_structure(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["curves", "--figure", "2", "--samples", "51",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# parameters: ")
        meta = json.loads(lines[0][len("# parameters: "):])
        assert meta["figure"] == 2
        # the embedded config must itself be loadable
        config_from_dict(meta["config"])
        header = lines[1].split(",")
        assert header[0] == "V"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 51
        xs = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        for r in rows:
            for cell in r:
                assert math.isfinite(float(cell))

    def test_full_precision_cells(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["curves", "--figure", "1", "--samples", "11",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        cell = lines[2].split(",")[1]
        # 17 significant digits round-trip the double exactly
        assert format(float(cell), ".17g") == cell

    def test_samples_flag_validated(self, capsys):
        """A flag is checked as the config key it overrides."""
        assert main(["curves", "--figure", "1", "--samples", "1"]) == 2
        assert capsys.readouterr().err == "error: curves.samples must be >= 2, got 1\n"


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out.splitlines()[-1]
        assert "FAIL" not in out
        # the benchmark's verify gate compares this exact list
        names = [line.split()[1] for line in out.splitlines()
                 if line.startswith(("PASS ", "FAIL "))]
        assert names == [
            "pde_bond_agreement", "pde_survival_agreement",
            "pde_put_agreement", "pde_call_agreement",
            "mc_bond_within_3se", "mc_puttable_within_3se",
            "quadrature_power_binary_sweep", "quadrature_bond_agreement",
            "survival_bounds_and_monotone", "bond_bounds_and_monotone",
            "image_barrier_annihilation", "put_call_parity_at_expiry",
            "direction_complement_identity", "hedge_ratio_positivity",
            "option_formula_vs_composition",
        ]

    def test_quadrature_suite_reports_sweep(self, capsys):
        assert main(["verify", "--suite", "quadrature"]) == 0
        out = capsys.readouterr().out
        assert "quadrature_power_binary_sweep" in out
        assert "quadrature_bond_agreement" in out


def _with(path: str, value) -> dict:
    """_BASE with the dotted key path set to value."""
    doc = copy.deepcopy(_BASE)
    *sections, key = path.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


# Configs malformed in one place, with the one error line each must give.
# The first five invite a misreading (a truncated integer, true as 1.0,
# numeric strings); the next nine are values or sections of a
# type that cannot be read at all; the rest pin the messages of other faults.
_MALFORMED = {
    "samples_2.7": (_with("curves.samples", 2.7), "'curves.samples' must be an integer"),
    "n_space_800.9": (_with("numerics.grid.n_space", 800.9),
                      "'numerics.grid.n_space' must be an integer"),
    "r_true": (_with("market.r", True), "'market.r' must be a number"),
    "sigma_string": (_with("market.sigma", "0.5"), "'market.sigma' must be a number"),
    "seed_string": (_with("numerics.seed", "12"), "'numerics.seed' must be an integer"),
    "r_abc": (_with("market.r", "abc"), "'market.r' must be a number"),
    "market_5": (dict(_BASE, market=5), "config section 'market' must be a JSON object"),
    "points_x": (dict(_BASE, points="x"), "config section 'points' must be a JSON object"),
    "samples_x": (dict(_BASE, curves={"samples": "x"}), "'curves.samples' must be an integer"),
    "n_paths_null": (dict(_BASE, numerics={"mc": {"n_paths": None}}),
                     "'numerics.mc.n_paths' must be an integer"),
    "r_null": (_with("market.r", None), "'market.r' must be a number"),
    "numerics_list": (dict(_BASE, numerics=[]),
                      "config section 'numerics' must be a JSON object"),
    "option_list": (dict(_BASE, option=[]), "config section 'option' must be a JSON object"),
    "grid_3": (dict(_BASE, numerics={"grid": 3}),
               "config section 'numerics.grid' must be a JSON object"),
    "top_level_list": ([_BASE], "config document must be a JSON object"),
    "no_market": ({"bond": _BASE["bond"]}, "config section 'top level' is missing key 'market'"),
    "no_kind": (dict(_BASE, option={"T1": 1.0, "E": 0.9}),
                "config section 'option' is missing key 'kind'"),
    "unknown_key": (_with("market.rate", 0.04), "config section 'market' has unknown keys ['rate']"),
    # each oracle has one method; the keys that chose another are unknown,
    # even at their old defaults
    "scheme_removed": (_with("numerics.grid.scheme", "crank_nicolson"),
                       "config section 'numerics.grid' has unknown keys ['scheme']"),
    "bridge_correction_removed": (_with("numerics.mc.bridge_correction", True),
                                  "config section 'numerics.mc' has unknown keys "
                                  "['bridge_correction']"),
    # the solver works out its far field; the key that set it is unknown
    "x_max_mult_removed": (_with("numerics.grid.x_max_mult", 30.0),
                           "config section 'numerics.grid' has unknown keys ['x_max_mult']"),
    "kind_5": (_with("option.kind", 5), "option kind must be 'put' or 'call', got '5'"),
    "r_inf": (_with("market.r", math.inf), "market parameters must be finite"),
    "T1_nan": (_with("option.T1", math.nan), "option maturity must be positive, got nan"),
    "samples_1": (_with("curves.samples", 1), "curves.samples must be >= 2, got 1"),
    "v_max_mult_1": (_with("curves.v_max_mult", 1), "curves.v_max_mult must exceed 1, got 1.0"),
    "V_empty": (dict(_BASE, points={"V": []}),
                "'points.V' must be a number or non-empty list of numbers"),
    "seed_negative": (_with("numerics.seed", -1), "seed must be a 64-bit unsigned integer"),
    "out_5": (dict(_BASE, out=5), "'out' must be a string path"),
}


@pytest.mark.parametrize("doc, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_config_is_invalid(doc, message, tmp_path, capsys):
    """A config malformed in one place exits 2 with the one error line for
    that fault; nothing is misread and no exception escapes main."""
    assert main(["price-option", "--config", _write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Well-typed values so extreme that a float overflows or divides by zero in
# the pricing layer, which main reports as a numerical failure.
_EXTREME = {
    "discount_overflow": (_with("market.r", -1e308), "price-option",
                          "discount factor overflows a float"),
    "bond_discount_overflow": (_with("market.r", -1e30), "price-bond",
                               "discount factor overflows a float"),
    "barrier_underflow": (_with("bond.a", 1e308), "price-bond",
                          "default barrier at t=0.0 leaves the float range"),
    "barrier_overflow": (_with("bond.a", -1e30), "price-bond",
                         "default barrier at t=0.0 leaves the float range"),
    "sigma_squared_underflow": (_with("market.sigma", 1e-300), "boundary",
                                "survival weight at x="),
    "boundary_bracket_overflow": (_with("bond.b", 1e308), "boundary",
                                  "early redemption boundary bracket leaves the float range"),
    "figure2_abscissa_overflow": (_with("bond.b", 1e308), "curves --figure 2",
                                  "curve abscissa from 1e+308 to inf leaves the float range"),
    "figure4_abscissa_overflow": (_with("bond.b", 1e308), "curves --figure 4",
                                  "curve abscissa from 1e+308 to inf leaves the float range"),
}


@pytest.mark.parametrize("doc, command, message", _EXTREME.values(), ids=_EXTREME.keys())
def test_extreme_value_is_numerical_failure(doc, command, message, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)  # where curves would write its CSV
    assert main([*command.split(), "--config", _write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")


# Values at which the PDE surfaces cannot be solved, and the reason.
_PDE_FAILURES = {
    "pde_sigma_squared_overflow": (_with("market.sigma", 1e200),
                                   "finite-difference coefficients leave the float range"),
}


@pytest.mark.parametrize("doc, message", _PDE_FAILURES.values(), ids=_PDE_FAILURES.keys())
def test_failed_pde_solve_fails_each_pde_check(doc, message, tmp_path, capsys):
    """A PDE solve that fails is reported by every check that needs its
    surfaces, and the run exits 1 with its summary."""
    assert main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()[1:]
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["FAIL", "pde_bond_agreement"], ["FAIL", "pde_survival_agreement"],
        ["FAIL", "pde_put_agreement"], ["FAIL", "pde_call_agreement"]]
    assert all(line.split(None, 2)[2] == f"numerical failure: {message}" for line in lines[:-1])
    assert lines[-1] == "4 checks, 4 failed"


def test_pde_probe_below_the_barrier_is_invalid_config(tmp_path, capsys):
    """A barrier of 1e308 lies above the default probes 139, 199 and 300:
    the bond's closed form rejects the first with the pricer's message."""
    doc = _with("bond.b", 1e308)
    assert main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: firm value 139.0 below default barrier 1e+308 at t=0.0\n"


def test_failed_pde_solve_leaves_the_battery_running(tmp_path, capsys):
    """With the PDE unsolvable, verify still runs the Monte Carlo,
    quadrature and invariant checks."""
    doc = _with("market.sigma", 1e200)
    assert main(["verify", "--config", _write_config(tmp_path, doc)]) == 1
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(checks) == 15
    assert checks[0].startswith("FAIL  pde_bond_agreement                 numerical failure: ")
    assert checks[-1].split()[1] == "option_formula_vs_composition"
    assert lines[-1].startswith("15 checks, ")


def test_extreme_value_fails_its_check(tmp_path, capsys):
    """A float overflow inside a verify check fails that check; the run
    goes on and exits 1."""
    doc = _with("market.q", 1e30)
    assert main(["verify", "--suite", "quadrature",
                 "--config", _write_config(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  quadrature_bond_agreement          numerical failure: " in out
    assert out.splitlines()[-1] == "2 checks, 1 failed"


# The reference bond with a = 354.5: e^{aT} = e^{709} is a float, but the
# probe V = 139 flattened to V e^{aT} / b is not, while its closed-form bond
# price is finite.
_FLATTENED_OVERFLOW = _with("bond.a", 354.5)


def test_overflowing_flattened_probe_fails_its_quadrature_check(tmp_path, capsys):
    """A probe whose flattened firm value overflows fails the quadrature
    bond check numerically; it is not reported as invalid input."""
    assert main(["verify", "--suite", "quadrature",
                 "--config", _write_config(tmp_path, _FLATTENED_OVERFLOW)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2:] == [
        "FAIL  quadrature_bond_agreement          numerical failure: "
        "flattened firm value of V=139.0 leaves the float range",
        "2 checks, 1 failed"]


# The smallest grid and simulation the config accepts.
_SMALL_NUMERICS = {"grid": {"n_space": 50, "n_time": 50}, "mc": {"n_paths": 1000, "n_steps": 50}}
_NO_OPTION = {key: value for key, value in _BASE.items() if key != "option"}
# Markets in which a simulated path's terminal firm value (r = 800, q = -1000)
# or the sum of the squared path values (r = q = -306, where the survivors
# pay e^{612} and the defaulted 0.7 e^{612}) overflows a float, and the Monte
# Carlo check lines each run must print. Before the mend, numpy's warning
# escaped main, or went to stderr while the bond check passed on an infinite
# standard error. At r = -306, q = 0 every path defaults in its first step and
# pays the same 0.7 e^{612}: the SE is exactly 0, and the estimate, some ulps
# off the closed form, fails with both values instead of a division by zero.
_MC_OVERFLOW = {
    "r_800_no_option": (
        dict(_NO_OPTION, market={"r": 800.0, "q": 0.0, "sigma": 0.5}, numerics=_SMALL_NUMERICS),
        ["FAIL  mc_bond_within_3se                 numerical failure: "
         "path values overflow a float: overflow encountered in exp",
         "1 checks, 1 failed"]),
    "q_minus_1000_put": (
        dict(_BASE, market={"r": 0.04, "q": -1000.0, "sigma": 0.5}, numerics=_SMALL_NUMERICS),
        ["FAIL  mc_bond_within_3se                 numerical failure: "
         "path values overflow a float: overflow encountered in exp",
         "FAIL  mc_puttable_within_3se             numerical failure: "
         "option price overflows a float",
         "2 checks, 2 failed"]),
    "r_minus_306_no_option": (
        dict(_NO_OPTION, market={"r": -306.0, "q": 0.0, "sigma": 1.0}, numerics=_SMALL_NUMERICS),
        ["FAIL  mc_bond_within_3se                 numerical failure: "
         "estimate 4.2985399246826e+265 has zero standard error "
         "and differs from the closed form 4.2985399246826376e+265",
         "1 checks, 1 failed"]),
    "r_q_minus_306_no_option": (
        dict(_NO_OPTION, market={"r": -306.0, "q": -306.0, "sigma": 1.0},
             numerics=_SMALL_NUMERICS),
        ["FAIL  mc_bond_within_3se                 numerical failure: "
         "path values overflow a float: overflow encountered in square",
         "1 checks, 1 failed"]),
}


@pytest.mark.parametrize("doc, lines", _MC_OVERFLOW.values(), ids=_MC_OVERFLOW.keys())
def test_overflowing_path_fails_its_mc_check(doc, lines, tmp_path, capsys):
    """A path value or sum that overflows fails the claim's check with a
    numerical failure, not a numpy warning, and the run exits 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--suite", "mc", "--config", _write_config(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == lines


def test_mc_start_below_a_barrier_past_the_float_range_is_invalid_config(tmp_path, capsys):
    """At a = -353 the barrier at t = 0 is e^710.6, past the float range: the
    bond's closed form fails numerically, and the simulator, which works in
    logs, rejects V0 = 199 below it as invalid input."""
    doc = dict(_NO_OPTION, bond=dict(_BASE["bond"], a=-353.0), numerics=_SMALL_NUMERICS)
    assert main(["verify", "--suite", "mc", "--config", _write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: firm value 199.0 at or below default barrier e^710.6051701859881 at t=0\n")


# Valid markets, each parameter finite, in which the carry r - q - a overflows
# (r = -q = 1e308) or a barrier growth a = 1e308 overflows the default barrier
# and the log barrier of the Monte Carlo claim.
_CARRY_OVERFLOW = {
    "carry": dict(_BASE, option=None, market={"r": 1e308, "q": -1e308, "sigma": 0.5},
                  numerics=_SMALL_NUMERICS),
    "barrier_growth": dict(_BASE, option=None, market={"r": 0.04, "q": -1e308, "sigma": 0.5},
                           bond=dict(_BASE["bond"], a=1e308), numerics=_SMALL_NUMERICS),
}


@pytest.mark.parametrize("doc", _CARRY_OVERFLOW.values(), ids=_CARRY_OVERFLOW.keys())
def test_overflowing_carry_fails_numerically(doc, tmp_path):
    """Pricing fails numerically (exit 1), and each verify suite runs to its
    summary with no warning and no message about parameters the user never
    gave."""
    code, err = _quiet_main(["price-bond"], doc, tmp_path)
    assert code == 1 and err.startswith("numerical failure: "), err
    for suite in ("pde", "mc", "quadrature", "all"):
        assert _quiet_main(["verify", "--suite", suite], doc, tmp_path) == (1, ""), suite


def test_boundary_near_the_barrier_leaves_the_grid_whole(tmp_path, capsys):
    """The early redemption boundary within half a cell of the barrier
    (sigma 0.0209 on a 50-node grid): the put's and call's grid runs to the
    far field 30, as the bond's does, and every check reaches its probes."""
    doc = dict(_BASE, market={"r": 0.0, "q": 0.0, "sigma": 0.020923387053127924},
               numerics=_SMALL_NUMERICS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "PASS  pde_bond_agreement                 measured=2.288128e-07  tol=1.000000e-03",
        "PASS  pde_survival_agreement             measured=7.627093e-07  tol=1.000000e-03",
        "PASS  pde_put_agreement                  measured=0.000000e+00  tol=1.000000e-03",
        "PASS  pde_call_agreement                 measured=2.189031e-06  tol=1.000000e-03",
        "4 checks, 0 failed"]


# Valid configs on which every PDE check passes on the default grid.
_PDE_PASSES = {
    # A volatile, long-dated bond: over its 5 years one standard deviation of
    # ln x is 0.8 sqrt(5) = 1.79, so a far field of 30 barriers lies 1.9 of
    # them out, and a grid that stopped there failed the bond, survival and
    # call checks on closed forms that are right.
    "volatile_bond": dict(_BASE, market={"r": 0.04, "q": 0.0, "sigma": 0.8},
                          bond=dict(_BASE["bond"], T=5.0, R=0.4),
                          option={"T1": 2.5, "E": 0.6, "kind": "put"}),
    # A barrier of 1e307 probed at twice it: the firm value of a far-field
    # node overflows a float, so the PDE surfaces must never form it.
    "huge_barrier": dict(_with("bond.b", 1e307), curves={"series_V": [2e307]}),
}


@pytest.mark.parametrize("doc", _PDE_PASSES.values(), ids=_PDE_PASSES.keys())
def test_pde_checks_pass(doc, tmp_path, capsys):
    """The grid reaches 4 standard deviations of ln x over each problem's
    horizon, and the put and call start from the PDE bond in flattened
    coordinates, so every PDE check passes, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lines = out.splitlines()[1:]
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["PASS", "pde_bond_agreement"], ["PASS", "pde_survival_agreement"],
        ["PASS", "pde_put_agreement"], ["PASS", "pde_call_agreement"]]
    assert lines[-1] == "4 checks, 0 failed"


# Valid configs whose PDE probes the solved grid does not reach, and the check
# lines each run must print: a barrier drift of 168 flattens the probes to
# about 1.6e146, beyond the far field.
_PROBES_BEYOND_GRID = {
    "probes_beyond_far_field": (
        dict(_NO_OPTION, market={"r": 658.3272974416138, "q": 625.1429342263227,
                                 "sigma": 0.06735836807941464},
             bond=dict(_BASE["bond"], a=168.15837788553904), numerics=_SMALL_NUMERICS),
        ["FAIL  pde_bond_agreement                 numerical failure: x=1.5978131947255549e+146 "
         "outside the solved domain, which ends at x=30.000000000000004",
         "FAIL  pde_survival_agreement             numerical failure: x=1.5978131947255549e+146 "
         "outside the solved domain, which ends at x=30.000000000000004",
         "2 checks, 2 failed"]),
}


@pytest.mark.parametrize("doc, lines", _PROBES_BEYOND_GRID.values(),
                         ids=_PROBES_BEYOND_GRID.keys())
def test_probe_beyond_the_grid_fails_its_pde_check(doc, lines, tmp_path, capsys):
    """A probe the solved surface does not reach fails its check with a
    numerical failure naming the grid's end; the run exits 1, not 2."""
    code = main(["verify", "--suite", "pde", "--config", _write_config(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == lines


def _config_paths(doc: dict, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _config_paths(value, prefix + (key,))


_PATHS = list(_config_paths(_DEFAULT_CONFIG))
_SCHEMA_KEYS = sorted({path[-1] for path in _PATHS})
_STRINGS = ["", "x", "0.5", "NaN", "put", "call"]
_ODD_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 10**400, 0, -1, 0.5,
               True, False, None, "x", "0.5", [], {}, [math.nan, 1e308], [True]]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_STRINGS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS + ["", "extra"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated_default(draw):
    """The shipped default config with up to three keys dropped, set to an
    odd value (NaN, inf, huge, bool, ...) or swapped for a random tree."""
    doc = copy.deepcopy(_DEFAULT_CONFIG)
    for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3)):
        node = doc
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        change = draw(st.sampled_from(["drop", "odd", "odd", "swap"]))
        if change == "drop":
            node.pop(path[-1], None)
        else:
            value = draw(st.sampled_from(_ODD_VALUES) if change == "odd" else _JSON)
            node[path[-1]] = copy.deepcopy(value)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A temporary directory for the fuzzed config file."""
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(doc=_JSON | _mutated_default())
def test_any_config_document_exits_cleanly(doc, fuzz_dir):
    """Whatever JSON document the config holds, main returns a documented
    exit code and reports a failure on one prefixed stderr line."""
    for argv in (["price-option"], ["boundary"], ["verify", "--suite", "quadrature"]):
        code, err = _quiet_main(argv, doc, fuzz_dir)
        assert code in (0, 1, 2, 3)
        assert err == "" or err.startswith(("error: ", "numerical failure: ", "i/o error: "))


def _quiet_main(argv, doc, directory):
    """main's exit code and stderr for argv on the config doc, written to
    directory; stdout is dropped and any warning raises."""
    path = str(directory / "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = main(argv + ["--config", path])
    return code, err.getvalue()


@st.composite
def _extreme_market(draw):
    """The reference bond on the smallest specs, with r in +-1000, sigma
    from 1e-3 to 1e2, q and a in +-1000, with or without the reference put."""
    def wide():
        return draw(st.floats(-1000.0, 1000.0))

    market = {"r": wide(), "q": wide(),
              "sigma": math.exp(draw(st.floats(math.log(1e-3), math.log(1e2))))}
    doc = dict(_BASE if draw(st.booleans()) else _NO_OPTION, market=market,
               numerics=_SMALL_NUMERICS)
    doc["bond"] = dict(doc["bond"], a=wide())
    return doc


@settings(max_examples=draws(150), deadline=None, derandomize=True, database=None)
@given(doc=_extreme_market())
@example(doc=_MC_OVERFLOW["r_800_no_option"][0])
@example(doc=_MC_OVERFLOW["q_minus_1000_put"][0])
@example(doc=_MC_OVERFLOW["r_minus_306_no_option"][0])
@example(doc=dict(_FLATTENED_OVERFLOW, numerics=_SMALL_NUMERICS))
def test_oracles_on_any_market_exit_cleanly(doc, fuzz_dir):
    """verify --suite pde, --suite mc and --suite quadrature exit 0 or 1 on
    any market, with no traceback and no warning, except where a probe or V0
    lies below the barrier or the put does not fit the bond: those exit 2."""
    for suite in ("pde", "mc", "quadrature"):
        code, err = _quiet_main(["verify", "--suite", suite], doc, fuzz_dir)
        if code == 2:
            assert err.startswith("error: ")
            assert "below default barrier" in err or "exercise amount must satisfy" in err, err
        else:
            assert code in (0, 1)
            assert err == "" or err.startswith("numerical failure: ")
