"""Deterministic random angle tuples for experiments and tests."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import TWO_PI, AngleTuple, QuadrangleError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MARGIN = 0.05


def sample_angle_tuple(rng: np.random.Generator,
                       margin: float = DEFAULT_MARGIN) -> AngleTuple:
    """Draw a valid angle tuple away from the degenerate boundary.

    Four independent uniforms on (margin, pi - margin) are rescaled to sum
    2*pi; draws whose rescaled components leave the margin band are
    rejected and redrawn.  The margin must lie in [0, pi/2).
    """
    import numpy as np
    if not 0.0 <= margin < math.pi / 2:
        raise QuadrangleError(f"margin {margin} must lie in [0, pi/2)")
    lo, hi = margin, math.pi - margin
    while True:
        raw = rng.uniform(lo, hi, 4)
        scaled = raw * (TWO_PI / raw.sum())
        if np.all((scaled > lo) & (scaled < hi)):
            return AngleTuple(*scaled.tolist())


def substream(seed: int, sample_id: int) -> np.random.Generator:
    """Per-sample generator; output is independent of execution order.

    The seed must be a non-negative integer.
    """
    import numpy as np
    if not (isinstance(seed, int) and seed >= 0):
        raise QuadrangleError(f"seed {seed} must be a non-negative integer")
    return np.random.default_rng((seed, sample_id))
