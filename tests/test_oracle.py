"""High-precision oracle for the published constants.

Each constant is recomputed at 40 digits with mpmath from its defining
formula, written out here rather than called through quadmap, and the
double-precision value in `dynamics` must be its correctly rounded double:
within half an ulp, so that a neighbouring double fails.  The closed-form
slope c'(a) is held to mpmath's derivative of the same c at 50 digits, and
the published spectral radius at the square to the exact modulus of one
smooth piece of f there.
"""

import math

import mpmath
import pytest

from quadmap.dynamics import A_STAR, C_AT_ZERO, GENERAL_CYCLE_ANGLES, RHO_SQUARE
from quadmap.solvers import c_map_slope


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


def shift0_map(alpha, gamma, delta):
    """f in the (alpha, gamma, delta) chart where the canonical shift is 0.

    Its new alpha, gamma, delta are the balanced edges x1, x3, x4: the
    average of the x3 = 0 endpoint, the triangle on (alpha, delta), and the
    x2 = 0 endpoint, the triangle on (gamma, delta).
    """
    first_x4, _, first_x1 = triangle_edges(alpha, delta)
    second_x1, second_x3, second_x4 = triangle_edges(gamma, delta)
    return (first_x1 + second_x1) / 2, second_x3 / 2, (first_x4 + second_x4) / 2


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


def test_c_map_slope_matches_the_derivative_of_c(slope_grid):
    # the slope is computed without cancellation, so its relative error
    # stays within a few ulp down to a = 1e-8
    worst = 0.0
    with mpmath.workdps(50):
        for a in [*slope_grid, A_STAR]:
            exact = mpmath.diff(c, mpmath.mpf(a))
            worst = max(worst, float(abs((c_map_slope(a) - exact) / exact)))
    assert worst <= 2e-15


def test_square_spectral_radius_is_pi_sqrt2_over_4():
    # all four pair sums of the square are pi, where the canonical shift
    # switches, so f is only piecewise smooth there; relabeling conjugates
    # the pieces, so the shift-0 piece's spectrum is every piece's
    square = (mpmath.pi / 2,) * 3
    jacobian = mpmath.matrix([
        [mpmath.diff(lambda *x: shift0_map(*x)[i], square, order)
         for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for i in range(3)])
    quarter_pi = mpmath.pi / 4
    tiny = mpmath.mpf(10) ** -35
    expected = quarter_pi * mpmath.matrix([[-2, 1, -1], [0, 1, 1], [1, -2, -1]])
    assert mpmath.mnorm(jacobian - expected, 1) < tiny
    eigenvalues = sorted(mpmath.eig(jacobian)[0], key=lambda z: z.imag)
    for got, exact in zip(eigenvalues, (quarter_pi * (-1 - 1j), 0, quarter_pi * (-1 + 1j))):
        assert abs(got - exact) < tiny
    # the moduli are pi*sqrt(2)/4 twice and 0: the published 1.1107
    rho = mpmath.pi * mpmath.sqrt(2) / 4
    assert abs(max(abs(z) for z in eigenvalues) - rho) < tiny
    assert RHO_SQUARE == round(float(rho), 4) == 1.1107
