import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run, so a failure replays as it was seen
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from adfs_lab.rng import generator  # noqa: E402


@pytest.fixture
def rng():
    return generator("tests", 0)
