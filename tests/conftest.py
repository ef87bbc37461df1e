import contextlib

import numpy as np
import pytest
from hypothesis import settings

from capbmo import content
from capbmo.content import ContentParams
from capbmo.grid import build_grid, step_function

# Generated cases are derived from each test's name, not from a random
# seed, so every run draws the same examples.
settings.register_profile(
    "capbmo", derandomize=True, max_examples=3, deadline=None, database=None
)
settings.load_profile("capbmo")


@contextlib.contextmanager
def forced_reduction(path):
    """Send every layer-cake call to one tree reduction, "dense" or "sparse"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(content, "_sparse_cheaper", lambda *args: path == "sparse")
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def unit_params():
    return ContentParams(delta=1.0)


@pytest.fixture
def grid_1d():
    return build_grid(1, 2, 4.0)


@pytest.fixture
def grid_2d():
    return build_grid(2, 2, 4.0)


def random_grid(rng, max_depth_1d=4, max_depth_2d=3):
    n = int(rng.integers(1, 3))
    depth = int(rng.integers(1, max_depth_1d if n == 1 else max_depth_2d))
    side = float(rng.choice([1.0, 2.0, 4.0]))
    return build_grid(n, depth, side)


def random_params(rng, n):
    return ContentParams(delta=float(rng.uniform(0.05, 1.0)) * n)
