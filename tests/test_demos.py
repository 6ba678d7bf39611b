"""The light demos run end to end against the public API. The two
oracle-heavy demos (reproduce_figures, verify_against_oracles) stay out:
their Monte Carlo takes seconds. The CI workflow runs them in a temporary
directory."""

import os
import runpy

import pytest

_DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["power_binary_playground.py", "price_reference_bond.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(_DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out
