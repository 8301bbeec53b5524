"""Deterministic random angle tuples for experiments and tests."""

import math

from ._pcg64 import PCG64
from .core import TWO_PI, AngleTuple, QuadrangleError

DEFAULT_MARGIN = 0.05


def sample_angle_tuple(rng, margin: float = DEFAULT_MARGIN) -> AngleTuple:
    """Draw a valid angle tuple away from the degenerate boundary.

    Four uniforms on (margin, pi - margin), one ``rng.uniform(lo, hi, 4)``,
    are rescaled to sum 2*pi; draws whose rescaled components leave the
    margin band are rejected and redrawn.  The margin must lie in [0, pi/2).
    """
    if not 0.0 <= margin < math.pi / 2:
        raise QuadrangleError(f"margin {margin} must lie in [0, pi/2)")
    lo, hi = margin, math.pi - margin
    while True:
        a, b, c, d = (float(x) for x in rng.uniform(lo, hi, 4))
        # numpy's sum order for four doubles, so numpy Generators give the same tuples
        s = TWO_PI / (((a + b) + c) + d)
        scaled = (a * s, b * s, c * s, d * s)
        if all(lo < v < hi for v in scaled):
            return AngleTuple(*scaled)


def substream(seed: int, sample_id: int) -> PCG64:
    """Per-sample generator, independent of execution order; both words must be ints >= 0."""
    return PCG64((seed, sample_id))
