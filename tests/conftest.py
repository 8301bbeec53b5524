import math

import numpy as np
import pytest

import quadmap.core as core
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


# The seam for the map kernel's trigonometry: tests name the sines they want
# by role, and only kernel_sine_arguments and patch_kernel_sines know how
# core derives them.

def kernel_sine_arguments(q):
    """The arguments of the five sines of q's endpoint triangles, by role:
    with a, g, d = q[r], q[r - 2], q[r - 1] for q's canonical shift r, the
    x3 = 0 endpoint reads a, d and a + d, the x2 = 0 endpoint g, d and g + d."""
    r = core._canonical_shift(q)
    a, g, d = q[r], q[r - 2], q[r - 1]
    return {"a": a, "d": d, "a+d": a + d, "g": g, "g+d": g + d}


def drawn_kernel_sines(q, entries):
    """Sines by role from drawn (factor, offset) entries: the k-th distinct
    argument among q's roles, in role order, takes factor * sin(argument) +
    offset from the k-th entry, so roles that share an argument share a sine."""
    args = kernel_sine_arguments(q)
    values = {}
    for x in args.values():
        if x not in values:
            factor, offset = entries[len(values)]
            values[x] = factor * math.sin(x) + offset
    return {role: values[x] for role, x in args.items()}


def patch_kernel_sines(monkeypatch, q, sines):
    """Make step and the float kernel, on q, take the sines named by role in
    sines; every other sine is the real one.  Roles that share an argument
    (the square's a, d and g) must be given one value."""
    args = kernel_sine_arguments(q)
    table = {}
    for role, v in sines.items():
        old = table.setdefault(args[role], v)
        assert old is v or old == v, f"role {role} shares its argument with another sine"
    monkeypatch.setattr(core, "sin", lambda x: table.get(x, math.sin(x)))


def nudge_kernel_sines(monkeypatch, relative=None):
    """Stand in for another faithful libm: core's sine moves one ulp, or by
    the factor 1 +- relative when given, on a fixed quarter of its arguments,
    half of them up and half down.  Bits of a multiplicative hash of x's
    numeric hash, which PYTHONHASHSEED does not move, pick them; a blake2b
    byte picks as well but doubles the patched basin run's time."""
    def sin(x):
        s = math.sin(x)
        pick = hash(x) * 0x9E3779B97F4A7C15 >> 61 & 7
        if pick > 1:
            return s
        if relative is None:
            return math.nextafter(s, math.inf if pick else -math.inf)
        return s * (1.0 + relative if pick else 1.0 - relative)

    monkeypatch.setattr(core, "sin", sin)
