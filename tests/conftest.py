import os
import sys

import pytest
from hypothesis import settings

# the tests' helper modules, and the repository root for `scripts` and `perfbench`
sys.path[:0] = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(__file__))]

# the same examples on every run, so a failure replays as it was seen
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from adfs_lab.rng import generator  # noqa: E402
from scripts import golden  # noqa: E402


@pytest.fixture
def rng():
    return generator("tests", 0)


@pytest.fixture(scope="session")
def golden_run():
    """Every entry of `scripts/golden.py`'s cells, run once per session."""
    return golden.run()
