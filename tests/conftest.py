import os
import sys

import numpy as np
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


def make_rng(*tokens):
    return generator("tests", *tokens)


def assert_close(a, b, tol, msg=""):
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert dev <= tol, f"{msg} deviation {dev:.3e} > {tol:.1e}"
