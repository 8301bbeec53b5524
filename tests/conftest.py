import math

import numpy as np
import pytest

from quadmap.sampling import sample_angle_tuple


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def slope_grid():
    """403 log-spaced a from 1e-8 to pi/2. Near a = 0 the factor sin t - cos t
    of the textbook chain rule for c'(a) cancels: 13 of these points read <= 0.
    """
    return [1e-8 * (math.pi / 2 / 1e-8) ** (i / 402) for i in range(402)] + [math.pi / 2]


@pytest.fixture
def random_angles(rng):
    """A deterministic batch of valid angle tuples away from the boundary."""
    return [sample_angle_tuple(rng) for _ in range(200)]


PI = math.pi
