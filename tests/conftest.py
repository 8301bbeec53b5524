import math

import numpy as np
import pytest

from quadmap.sampling import sample_angle_tuple


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def random_angles(rng):
    """A deterministic batch of valid angle tuples away from the boundary."""
    return [sample_angle_tuple(rng) for _ in range(200)]


PI = math.pi
