"""High-precision oracle for the published constants.

Each constant is recomputed at 40 digits with mpmath from its defining
formula, written out here rather than called through quadmap, and the
double-precision value in `dynamics` must be its correctly rounded double:
within half an ulp, so that a neighbouring double fails.
"""

import math

import mpmath
import pytest

from quadmap.dynamics import A_STAR, C_AT_ZERO, GENERAL_CYCLE_ANGLES


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


def assert_correctly_rounded(value, exact):
    assert abs(mpmath.mpf(value) - exact) <= math.ulp(value) / 2, (value, exact)


def c(a):
    """Trapezoid submap: c(a) = pi / (1 + sin t + cos t), t = pi / (2 + 2 cos a)."""
    t = mpmath.pi / (2 + 2 * mpmath.cos(a))
    return mpmath.pi / (1 + mpmath.sin(t) + mpmath.cos(t))


def triangle_edges(phi, psi):
    """Law of sines at perimeter 2*pi: edges opposite phi, psi and pi - phi - psi."""
    sines = (mpmath.sin(phi), mpmath.sin(psi), mpmath.sin(phi + psi))
    return tuple(2 * mpmath.pi * s / sum(sines) for s in sines)


def cycle_relations(alpha, gamma, delta):
    """The balanced edges x1, x2, x3 of a canonical state equal alpha, delta, gamma.

    The endpoint with x3 = 0 is the triangle on (alpha, delta), the one with
    x2 = 0 the triangle on (gamma, delta); balanced edges are their average.
    """
    _, first_x2, first_x1 = triangle_edges(alpha, delta)
    second_x1, second_x3, _ = triangle_edges(gamma, delta)
    return ((first_x1 + second_x1) / 2 - alpha,
            second_x3 / 2 - gamma,
            first_x2 / 2 - delta)


def test_a_star_is_the_root_of_c():
    root = mpmath.findroot(lambda a: c(a) - a, mpmath.mpf("1.48"))
    assert abs(c(root) - root) < mpmath.mpf(10) ** -35
    assert_correctly_rounded(A_STAR, root)


def test_general_cycle_solves_the_relations():
    alpha, gamma, delta = mpmath.findroot(cycle_relations, (1.5, 1.4, 1.5))
    assert max(abs(r) for r in cycle_relations(alpha, gamma, delta)) < mpmath.mpf(10) ** -35
    beta = 2 * mpmath.pi - alpha - gamma - delta
    for value, exact in zip(GENERAL_CYCLE_ANGLES.as_tuple(), (alpha, beta, gamma, delta)):
        assert_correctly_rounded(value, exact)


def test_limit_at_zero():
    # t -> pi/4 as a -> 0+, so c -> pi / (1 + sqrt 2)
    assert abs(c(mpmath.mpf(10) ** -12) - mpmath.pi / (1 + mpmath.sqrt(2))) < mpmath.mpf(10) ** -30
    assert_correctly_rounded(C_AT_ZERO, mpmath.pi / (mpmath.sqrt(2) + 1))
