"""High-precision oracle for the published constants.

Each constant is recomputed at 40 digits with mpmath from its defining
formula, written out here rather than called through quadmap, and the
double-precision value in `dynamics` must be its correctly rounded double:
within half an ulp, so that a neighbouring double fails.  The closed-form
slope c'(a) is held to mpmath's derivative of the same c at 50 digits, and
the published spectral radius at the square to the exact moduli of the
four smooth pieces of f there.  The trapezoid 2-cycle's two smooth pieces
share one spectrum, its transverse multiplier held to 30 digits.
"""

import math

import mpmath
import pytest

from quadmap.core import rotate_labels
from quadmap.dynamics import A_STAR, C_AT_ZERO, GENERAL_CYCLE_ANGLES, RHO_SQUARE, SQUARE, step
from quadmap.solvers import ChartPoint, c_map_slope, fd_jacobian, stability_report


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


def shift_map(r, alpha, gamma, delta):
    """The smooth piece of f where the canonical shift is r, in the (alpha, gamma, delta) chart.

    The state rotated by r gets the two endpoints cycle_relations describes;
    their average, rotated back by -r, is its balanced edges, whose x1, x3, x4
    are the new alpha, gamma, delta.
    """
    q = (alpha, 2 * mpmath.pi - alpha - gamma - delta, gamma, delta)
    a, _, g, d = q[r:] + q[:r]
    first_x4, first_x2, first_x1 = triangle_edges(a, d)
    second_x1, second_x3, second_x4 = triangle_edges(g, d)
    mid = ((first_x1 + second_x1) / 2, first_x2 / 2, second_x3 / 2, (first_x4 + second_x4) / 2)
    x1, _, x3, x4 = mid[-r:] + mid[:-r]
    return x1, x3, x4


def chart_jacobian(chart_map, point):
    """The Jacobian of a map of the (alpha, gamma, delta) chart at a point, at the working precision."""
    return mpmath.matrix([
        [mpmath.diff(lambda *x: chart_map(*x)[i], point, order)
         for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for i in range(3)])


def piece_jacobian(r):
    """The shift-r piece's Jacobian at the square, at the working precision."""
    return chart_jacobian(lambda *x: shift_map(r, *x), (mpmath.pi / 2,) * 3)


def trapezoid_cycle_piece(r, alpha, gamma, delta):
    """rotate_labels(f^2, 1) near the trapezoid 2-cycle, where the first step has shift r.

    The second step's state lies off every switching surface there and takes
    shift 3; rotate_labels(q, 1) = (beta, gamma, delta, alpha) has the chart
    (beta, delta, alpha) of q.
    """
    x1, x3, x4 = shift_map(3, *shift_map(r, alpha, gamma, delta))
    return 2 * mpmath.pi - x1 - x3 - x4, x4, x1


# the four pieces' Jacobians at the square, divided by pi/4
PIECE_JACOBIANS = (
    [[-2, 1, -1], [0, 1, 1], [1, -2, -1]],
    [[-2, -1, -3], [0, -1, -1], [1, 0, 1]],
    [[0, -1, -1], [2, -1, 1], [-1, 0, -1]],
    [[0, 1, 1], [2, 1, 3], [-1, -2, -3]],
)


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
    # switches, so f is only piecewise smooth there; the four pieces have
    # four different Jacobians, and every one has the same spectrum
    quarter_pi = mpmath.pi / 4
    tiny = mpmath.mpf(10) ** -35
    rho = mpmath.pi * mpmath.sqrt(2) / 4
    for r, scaled in enumerate(PIECE_JACOBIANS):
        jacobian = piece_jacobian(r)
        assert mpmath.mnorm(jacobian - quarter_pi * mpmath.matrix(scaled), 1) < tiny
        eigenvalues = sorted(mpmath.eig(jacobian)[0], key=lambda z: z.imag)
        for got, exact in zip(eigenvalues, (quarter_pi * (-1 - 1j), 0, quarter_pi * (-1 + 1j))):
            assert abs(got - exact) < tiny
        # the moduli are pi*sqrt(2)/4 twice and 0: the published 1.1107
        assert abs(max(abs(z) for z in eigenvalues) - rho) < tiny
    assert RHO_SQUARE == round(float(rho), 4) == 1.1107


def test_central_differences_at_the_square_average_the_pieces():
    # each column of a central difference at the square averages the pieces
    # on the two sides of a switching surface; the matrix that results is
    # the mean of all four pieces, which is no piece's Jacobian
    mean = [[sum(m[i][j] for m in PIECE_JACOBIANS) / 4 for j in range(3)] for i in range(3)]
    assert mean == [[-1, 0, -1], [1, 0, 1], [0, -1, -1]]
    assert mean not in PIECE_JACOBIANS
    jacobian = stability_report(SQUARE).jacobian
    assert max(abs(jacobian[i][j] - math.pi / 4 * mean[i][j])
               for i in range(3) for j in range(3)) <= 4e-7


def test_trapezoid_cycle_has_two_pieces_with_one_spectrum():
    # the trapezoid state T = (a*, pi - a*, pi - a*, a*) has alpha + beta =
    # gamma + delta = pi, where the canonical shift switches between 0 and 1,
    # so rotate_labels(f^2, 1), which fixes T, has two smooth pieces there;
    # their Jacobians differ, and both have the transverse multiplier, the
    # in-family multiplier c'(a*) and 0 as eigenvalues
    a_star = mpmath.findroot(lambda a: c(a) - a, mpmath.mpf("1.48"))
    trapezoid = (a_star, mpmath.pi - a_star, a_star)
    tiny = mpmath.mpf(10) ** -30
    transverse = mpmath.mpf("1.1665628439204896760144925582986")
    jacobians = []
    for r in (0, 1):
        image = trapezoid_cycle_piece(r, *trapezoid)
        assert max(abs(x - t) for x, t in zip(image, trapezoid)) < mpmath.mpf(10) ** -35
        jacobian = chart_jacobian(lambda *x: trapezoid_cycle_piece(r, *x), trapezoid)
        eigenvalues = sorted(mpmath.eig(jacobian)[0], key=lambda z: -mpmath.re(z))
        for got, exact in zip(eigenvalues, (transverse, mpmath.diff(c, a_star), 0)):
            assert abs(got - exact) < tiny
        jacobians.append(jacobian)
    assert max(abs(x) for x in jacobians[0] - jacobians[1]) > 0.2
    # the package's central differences straddle the two pieces, as at the
    # square: they lie near the pieces' mean and 0.117 from either piece
    mean = (jacobians[0] + jacobians[1]) / 2

    def cycle_map(p):
        q = rotate_labels(step(step(p.as_angles())), 1)
        return ChartPoint(q[0], q[2], q[3])

    jacobian = fd_jacobian(cycle_map, ChartPoint(A_STAR, math.pi - A_STAR, A_STAR))
    assert max(abs(jacobian[i][j] - mean[i, j]) for i in range(3) for j in range(3)) <= 1e-5
