"""Checks of how the package's modules import each other and what a
pricing command loads."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import credit_pricer
from credit_pricer import MarketParams, McSpec, PdeSurface, mc_barrier_price

# The oracles share no code with the closed forms: from those modules they
# take only the types that describe a pricing problem.
_ORACLE_IMPORTS_ALLOWED = {
    "bs_closed_form": {"IndicatorDirection", "PowerBinaryParams"},
    "special_functions": {"MarketParams"},
}


def _sibling_imports(path):
    """(module, name) per name imported from a package module; name is None
    when the whole module is imported."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("credit_pricer")):
            module = (node.module or "").removeprefix("credit_pricer").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("credit_pricer."):
                    yield alias.name.split(".")[1], None


def test_no_private_or_closed_form_imports_across_modules():
    private, oracle_leaks = [], []
    for path in sorted(pathlib.Path(credit_pricer.__file__).parent.glob("*.py")):
        for module, name in _sibling_imports(path):
            if name is not None and name.startswith("_"):
                private.append(f"{path.name}: {name} from {module}")
            allowed = _ORACLE_IMPORTS_ALLOWED.get(module)
            if path.stem == "oracles" and allowed is not None and name not in allowed:
                oracle_leaks.append(f"{name or 'the module'} from {module}")
    assert not private, f"private names imported across modules: {private}"
    assert not oracle_leaks, f"oracles import closed-form code: {oracle_leaks}"


@pytest.mark.parametrize("argv", [
    None, ["price-bond"], ["price-puttable"], ["price-callable", "--config", "call.json"],
    ["boundary"],
    *(["curves", "--figure", str(figure), "--out", f"figure{figure}.csv"]
      for figure in range(1, 6)),
], ids=lambda argv: "import" if argv is None else " ".join(argv[:3:2]))
def test_pricing_command_loads_no_numpy_or_scipy(argv, tmp_path):
    """numpy and scipy serve the oracles only: importing the package, or
    running a pricing command, loads neither."""
    (tmp_path / "call.json").write_text(json.dumps({
        "market": {"r": 0.04, "q": 0.0, "sigma": 0.5},
        "bond": {"T": 2.0, "a": 0.0, "b": 100.0, "R": 0.7},
        "option": {"T1": 1.0, "E": 0.9, "kind": "call"}}))
    src = str(pathlib.Path(credit_pricer.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = "" if argv is None else (
        f"import credit_pricer.cli\nassert credit_pricer.cli.main({argv!r}) == 0\n")
    code = ("import sys, credit_pricer\n" + run +
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def _first_oracle_calls():
    """float.hex of a small pinned Monte Carlo price, its SE, and an
    interpolation on a surface of numpy arrays; in a fresh process, the
    first oracle calls, which load numpy."""
    ((mean, se),) = mc_barrier_price(
        [(lambda v: v.clip(max=150.0) / 100.0, lambda t: 0.7, 2.0)], (0.05, 100.0, 2.0),
        MarketParams(r=0.04, q=0.01, sigma=0.5), McSpec(n_paths=1000, n_steps=50, seed=3),
        139.0)
    import numpy as np

    x = np.exp(np.linspace(0.0, np.log(30.0), 41))
    t = np.linspace(0.0, 2.0, 9)
    surface = PdeSurface(x=x, t=t, values=np.sqrt(np.add.outer(t, x)))
    return [mean.hex(), se.hex(), surface.value(2.345, 0.37).hex()]


def test_first_oracle_calls_of_a_fresh_process_give_the_same_bits(tmp_path):
    """numpy is imported inside the oracle functions; a process whose first
    oracle call loads it gets the bits of this one."""
    code = ("import sys\n"
            "from test_import_hygiene import _first_oracle_calls\n"
            "assert 'numpy' not in sys.modules\n"
            "print(*_first_oracle_calls())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                           env=env, capture_output=True, text=True, check=True).stdout
    assert fresh.split() == _first_oracle_calls()


def test_public_names():
    """The package exports each module's __all__ and nothing else."""
    assert set(credit_pricer.__all__) == {
        "BelowBarrierError", "BondSpec", "BoundaryResult", "DomainError", "GridSpec",
        "IndicatorDirection", "InvalidOptionError", "InvalidParamsError", "MarketParams",
        "McSpec", "NumericalError", "OptionKind", "OptionSpec", "PdeSurface",
        "PowerBinaryParams", "PricerError", "barrier_level", "binorm_cdf",
        "bond_option_price", "bond_price", "callable_bond_price",
        "draw_verification_case", "early_redemption_boundary", "image_transform",
        "mc_barrier_price", "norm_cdf",
        "norm_pdf", "option_price_paths", "pde_solve_tbvp", "power_binary_price",
        "puttable_bond_price", "quadrature_green", "survival_probability", "tbvp_w",
        "bond_prices", "__version__",
    }
    assert len(credit_pricer.__all__) == 36
    assert all(hasattr(credit_pricer, name) for name in credit_pricer.__all__)
