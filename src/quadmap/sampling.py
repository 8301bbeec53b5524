"""Deterministic random angle tuples, one stdlib ``random.Random`` stream per sample.

Python guarantees the sequence of ``Random.random()`` for an int or str seed
across releases, so a sample's start depends only on its two seed words.
"""

import math
import random

from .core import TWO_PI, AngleTuple, QuadrangleError

DEFAULT_MARGIN = 0.05


def sample_angle_tuple(rng, margin: float = DEFAULT_MARGIN) -> AngleTuple:
    """Draw a valid angle tuple away from the degenerate boundary.

    Four uniforms on (margin, pi - margin), each ``lo + (hi - lo) * rng.random()``,
    are rescaled to sum 2*pi; draws whose rescaled components leave the
    margin band are rejected and redrawn.  The margin must lie in [0, pi/2).
    """
    if not 0.0 <= margin < math.pi / 2:
        raise QuadrangleError(f"margin {margin} must lie in [0, pi/2)")
    lo, hi = margin, math.pi - margin
    span, draw = hi - lo, rng.random
    while True:
        a, b, c, d = (lo + span * draw(), lo + span * draw(),
                      lo + span * draw(), lo + span * draw())
        s = TWO_PI / (((a + b) + c) + d)
        a, b, c, d = a * s, b * s, c * s, d * s
        if lo < a < hi and lo < b < hi and lo < c < hi and lo < d < hi:
            return AngleTuple(a, b, c, d)


def substream(seed: int, sample_id: int) -> random.Random:
    """Per-sample generator, independent of execution order; both words must be ints >= 0.

    The comma keeps the seed string injective: (1, 23) and (12, 3) differ.
    """
    for word in (seed, sample_id):
        if type(word) is not int or word < 0:
            raise QuadrangleError(f"seed word {word!r} must be a non-negative integer")
    return random.Random(f"{seed},{sample_id}")
