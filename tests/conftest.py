"""Fixtures shared across the suite: the reference parameter set used by
the quantitative checks (r=0.04, q=0, sigma=0.5, b=100, a=0, R=0.7, T=2,
T1=1, E=0.9)."""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from credit_pricer import BondSpec, MarketParams, OptionKind, OptionSpec

_HYPOTHESIS_HOME = pytest.StashKey[str]()

# A deeper pass than tier-1's fixed draw counts: under
# pytest --hypothesis-profile=deep, each test whose count comes from
# helpers.draws runs at least this many draws.
settings.register_profile("deep", max_examples=1000)


def pytest_configure(config):
    # Even without an example database, Hypothesis caches unicode tables and
    # constants scanned from the source files on disk (from collection on);
    # give it a throwaway directory so that a test run writes no .hypothesis/.
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def market():
    return MarketParams(r=0.04, q=0.0, sigma=0.5)


@pytest.fixture(scope="session")
def bond():
    return BondSpec(T=2.0, a=0.0, b=100.0, R=0.7)


@pytest.fixture(scope="session")
def put_spec():
    return OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT)


@pytest.fixture(scope="session")
def call_spec():
    return OptionSpec(T1=1.0, E=0.9, kind=OptionKind.CALL)
