"""End-to-end outputs of the command line, pinned: the data rows of the five
figure CSVs and the full verify battery's report on two configs. A change
that means to keep every output the same passes here unedited; one that
moves an output must record the new pin and say why."""

import hashlib
import json

import pytest

from credit_pricer.cli import main

# sha256 of every line after '# parameters:' in curves --figure N --samples
# 201 on the default config: the header and the 201 rows
_FIGURE_DIGESTS = {
    1: "8814561c9968f858fce9fd00250a851a45c01f52f85ba75510c856f1bd2ea971",
    2: "9a222401c0f73600fe622023e0e7a0a74ce74f0c45eb77267fb5835d3807a8fc",
    3: "f353dc09dbceb644e8907f9474f8fec1818a7172cacf7dcc4a7b057f2645564d",
    4: "8b1355a66701b3a8265cdc07eb74211efe9d9800149542ae67430dec6b4a4795",
    5: "c6b0eaea881d7112edf11cf8191fc07378b63a8154d3dd8a2d9e10468d4a67b6",
}

# The moving-barrier call: a = 0.05, so the flattened coordinates differ
# from the firm values, and a call, so the MC check is the callable bond.
_MOVING_CALL = {
    "market": {"r": 0.03, "q": 0.02, "sigma": 0.35},
    "bond": {"T": 3.0, "a": 0.05, "b": 100.0, "R": 0.4},
    "option": {"T1": 1.5, "E": 0.8, "kind": "call"},
}

# verify --suite all --seed 1729, everything after the config echo
_VERIFY_REPORTS = {
    "default": """\
PASS  pde_bond_agreement                 measured=1.303695e-06  tol=1.000000e-03
PASS  pde_survival_agreement             measured=4.525255e-06  tol=1.000000e-03
PASS  pde_put_agreement                  measured=5.932241e-05  tol=1.000000e-03
PASS  pde_call_agreement                 measured=4.386690e-05  tol=1.000000e-03
PASS  mc_bond_within_3se                 measured=8.757661e-01  tol=3.000000e+00
PASS  mc_puttable_within_3se             measured=8.282896e-01  tol=3.000000e+00
PASS  quadrature_power_binary_sweep      measured=9.876378e-13  tol=1.000000e-06
PASS  quadrature_bond_agreement          measured=1.110223e-16  tol=1.000000e-08
PASS  survival_bounds_and_monotone       measured=0.000000e+00  tol=0.000000e+00
PASS  bond_bounds_and_monotone           measured=0.000000e+00  tol=0.000000e+00
PASS  image_barrier_annihilation         measured=0.000000e+00  tol=1.000000e-12
PASS  put_call_parity_at_expiry          measured=3.600001e-10  tol=1.000000e-06
PASS  direction_complement_identity      measured=3.360709e-16  tol=1.000000e-10
PASS  hedge_ratio_positivity             measured=0.000000e+00  tol=0.000000e+00
PASS  option_formula_vs_composition      measured=3.781697e-16  tol=1.000000e-09
15 checks, 0 failed
""",
    "moving_call": """\
PASS  pde_bond_agreement                 measured=4.845520e-06  tol=1.000000e-03
PASS  pde_survival_agreement             measured=8.672821e-06  tol=1.000000e-03
PASS  pde_put_agreement                  measured=2.236793e-04  tol=1.000000e-03
PASS  pde_call_agreement                 measured=3.496303e-05  tol=1.000000e-03
PASS  mc_bond_within_3se                 measured=1.542350e+00  tol=3.000000e+00
PASS  mc_callable_within_3se             measured=1.067992e+00  tol=3.000000e+00
PASS  quadrature_power_binary_sweep      measured=9.876378e-13  tol=1.000000e-06
PASS  quadrature_bond_agreement          measured=0.000000e+00  tol=1.000000e-08
PASS  survival_bounds_and_monotone       measured=0.000000e+00  tol=0.000000e+00
PASS  bond_bounds_and_monotone           measured=0.000000e+00  tol=0.000000e+00
PASS  image_barrier_annihilation         measured=0.000000e+00  tol=1.000000e-12
PASS  put_call_parity_at_expiry          measured=2.400001e-10  tol=1.000000e-06
PASS  direction_complement_identity      measured=3.360709e-16  tol=1.000000e-10
PASS  hedge_ratio_positivity             measured=0.000000e+00  tol=0.000000e+00
PASS  option_formula_vs_composition      measured=3.781697e-16  tol=1.000000e-09
15 checks, 0 failed
""",
}


@pytest.mark.parametrize("figure", _FIGURE_DIGESTS)
def test_figure_rows_keep_their_bits(figure, tmp_path, capsys):
    out = tmp_path / f"figure{figure}.csv"
    assert main(["curves", "--figure", str(figure), "--samples", "201",
                 "--out", str(out)]) == 0
    parameters, rows = out.read_bytes().split(b"\n", 1)
    assert parameters.startswith(b"# parameters: ")
    assert hashlib.sha256(rows).hexdigest() == _FIGURE_DIGESTS[figure]


@pytest.mark.parametrize("name", _VERIFY_REPORTS)
def test_verify_report_is_unchanged(name, tmp_path, capsys):
    # the seed the reports were pinned at, also the shipped default
    argv = ["verify", "--suite", "all", "--seed", "1729"]
    if name == "moving_call":
        path = tmp_path / "moving_call.json"
        path.write_text(json.dumps(_MOVING_CALL))
        argv += ["--config", str(path)]
    assert main(argv) == 0
    config, report = capsys.readouterr().out.split("\n", 1)
    assert config.startswith("config: ")
    assert report == _VERIFY_REPORTS[name]
