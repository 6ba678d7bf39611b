"""Checks of how the package's modules import each other and what a
pricing command loads."""

import ast
import os
import pathlib
import subprocess
import sys

import credit_pricer

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


def test_pricing_command_loads_no_scipy(tmp_path):
    """scipy serves the oracles only; a pricing command never imports it."""
    src = str(pathlib.Path(credit_pricer.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, credit_pricer.cli\n"
            "assert credit_pricer.cli.main(['price-bond']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_public_names():
    """The package exports each module's __all__ and nothing else."""
    assert set(credit_pricer.__all__) == {
        "BelowBarrierError", "BondSpec", "BoundaryResult", "DomainError", "GridSpec",
        "IndicatorDirection", "InvalidOptionError", "InvalidParamsError", "MarketParams",
        "McSpec", "NumericalError", "OptionKind", "OptionSpec", "PdeSurface",
        "PowerBinaryParams", "PricerError", "Scheme", "barrier_level", "binorm_cdf",
        "bond_option_price", "bond_price", "callable_bond_price",
        "draw_verification_case", "early_redemption_boundary", "exercise_value",
        "image_transform", "mc_barrier_price", "mc_barrier_prices", "norm_cdf",
        "norm_pdf", "option_price_paths", "pde_solve_tbvp", "power_binary_price",
        "puttable_bond_price", "quadrature_green", "survival_probability", "tbvp_w",
        "__version__",
    }
    assert len(credit_pricer.__all__) == 38
    assert all(hasattr(credit_pricer, name) for name in credit_pricer.__all__)
