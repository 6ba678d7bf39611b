"""Tests for the command-line surface: exit codes, config handling, seed
precedence, table and CSV output."""

import json
import math

import pytest

from credit_pricer import bond_price
from credit_pricer.cli import config_from_dict, main
from helpers import OVERFLOW_CONFIG, bisect

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

    def test_missing_config_file(self, capsys):
        assert main(["price-bond", "--config", "/nonexistent/config.json"]) == 3

    def test_unwritable_output(self, tmp_path, capsys):
        out = str(tmp_path / "missing_dir" / "fig.csv")
        assert main(["curves", "--figure", "2", "--out", out]) == 3

    def test_coarse_grid_fails_verification(self, tmp_path, capsys):
        """The legal floor (50x50) resolves the bond but not the option
        payoff kink, so the PDE suite must report failures and exit 1."""
        doc = dict(_BASE, numerics={"grid": {"n_space": 50, "n_time": 50,
                                             "x_max_mult": 10.0}})
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

    def test_bond_only_needs_no_option(self, tmp_path, capsys):
        doc = {"market": _BASE["market"], "bond": _BASE["bond"],
               "points": {"V": [139.0, 199.0], "t": [0.0, 0.5]}}
        assert main(["price-bond", "--config", _write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.lstrip()[0].isdigit()]) == 4


class TestSeedPrecedence:
    def test_env_overrides_config(self, capsys, monkeypatch):
        monkeypatch.setenv("CREDIT_PRICER_SEED", "123")
        assert main(["price-bond"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 123

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CREDIT_PRICER_SEED", "123")
        assert main(["price-bond", "--seed", "55"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 55

    def test_config_seed_by_default(self, capsys):
        assert main(["price-bond"]) == 0
        cfg = _echoed_config(capsys.readouterr().out)
        assert cfg["numerics"]["seed"] == 1729

    def test_invalid_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CREDIT_PRICER_SEED", "not-a-number")
        assert main(["price-bond"]) == 2


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
        assert main(["curves", "--figure", "1", "--samples", "1"]) == 2


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
