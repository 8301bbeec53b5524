import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadmap.core as core
import quadmap.solvers as solvers
from quadmap.core import (
    TWO_PI,
    AngleTuple,
    QuadrangleError,
    balanced_edges,
    canonicalize,
    rotate_labels,
)
from quadmap.dynamics import A_STAR, GENERAL_CYCLE_ANGLES, SQUARE, c_map, step
from quadmap.sampling import sample_angle_tuple, substream
from quadmap.solvers import (
    ChartPoint,
    SolverError,
    _solve3,
    c_map_slope,
    cycle_system_rhs,
    eigenvalue_moduli_3x3,
    fd_jacobian,
    solve_cycle_system,
    solve_trapezoid_fixed_point,
    stability_report,
)

PI = math.pi
PAPER_CYCLE = (
    1.54819305248669225152933985324,
    1.82405188512759300508614890573,
    1.41515953031350909799654144250,
    1.49578083925179212231325656509,
)


def chart_map(order):
    """The map applied `order` times, in the reduced chart."""
    def f(c):
        image = c.as_angles()
        for _ in range(order):
            image = step(image)
        return ChartPoint.from_angles(image)
    return f


class TestTrapezoidFixedPoint:
    def test_matches_paper_digits(self):
        fp = solve_trapezoid_fixed_point()
        assert abs(fp.attracting.solution - 1.48342158769377952440379165224) <= 1e-12
        assert fp.repelling == PI / 2

    def test_slope_near_point_eight(self):
        fp = solve_trapezoid_fixed_point()
        a, h = fp.attracting.solution, 1e-6
        slope = (c_map(a + h) - c_map(a - h)) / (2 * h)
        assert 0.75 <= slope <= 0.85

    def test_newton_lands_on_one_double_within_2_ulp(self):
        # the solve ends on the double 2 ulp below A_STAR, where c(a) - a is
        # exactly 0; the 5th step is the first at most NEWTON_TOL
        r = solve_trapezoid_fixed_point().attracting
        assert abs(r.solution - A_STAR) <= 2 * math.ulp(A_STAR)
        assert c_map(r.solution) - r.solution == 0.0
        assert r.residual_norm == 0.0
        assert type(r.iterations) is int and r.iterations == 5

    def test_budget_exit(self, monkeypatch):
        # slope 0 turns Newton into the plain iteration a <- c(a), which
        # contracts only by c'(a*) ~ 0.8 per step
        monkeypatch.setattr(solvers, "c_map_slope", lambda a: 0.0)
        with pytest.raises(SolverError, match=(
                f"above tol 1e-12 after {solvers.TRAPEZOID_MAX_ITER} iterations")):
            solve_trapezoid_fixed_point()

    @pytest.mark.parametrize("slope", [0.999, math.nan])
    def test_bracket_exit(self, monkeypatch, slope):
        monkeypatch.setattr(solvers, "c_map_slope", lambda a: slope)
        with pytest.raises(SolverError, match=r"Newton step left the bracket \(1\.4, 1\.5\)"):
            solve_trapezoid_fixed_point()


@pytest.mark.parametrize("a", [0.3, 1.0, A_STAR, 1.5])
def test_c_map_slope_matches_closed_form(a):
    # c = pi / (1 + sin t + cos t) with t = pi / (2 + 2 cos a), by the chain rule
    t = PI / (2.0 + 2.0 * math.cos(a))
    dc_dt = -PI * (math.cos(t) - math.sin(t)) / (1.0 + math.sin(t) + math.cos(t)) ** 2
    dt_da = 2.0 * PI * math.sin(a) / (2.0 + 2.0 * math.cos(a)) ** 2
    assert c_map_slope(a) == pytest.approx(dc_dt * dt_da, abs=1e-8)


class TestCMapSlope:
    def test_square_end_is_pi_squared_over_8(self):
        # c'(pi/2) = (pi/4) * (pi/2); the exact slope at the double nearest
        # pi/2 is itself 1.75 ulp below pi^2/8
        assert abs(c_map_slope(PI / 2) - PI ** 2 / 8) <= 2 * math.ulp(PI ** 2 / 8)

    def test_positive_on_a_log_grid(self, slope_grid):
        assert all(c_map_slope(a) > 0.0 for a in slope_grid)

    @pytest.mark.parametrize("a", [0.0, math.nan, PI / 2 + 1e-12])
    def test_domain_guard(self, a):
        with pytest.raises(QuadrangleError, match=r"c_map_slope requires a in \(0, pi/2\]"):
            c_map_slope(a)


class TestCycleSystem:
    def test_default_start_reaches_paper_values(self):
        r = solve_cycle_system()
        got = (r.solution.alpha, r.solution.beta, r.solution.gamma, r.solution.delta)
        for g, p in zip(got, PAPER_CYCLE):
            assert abs(g - p) < 1e-12

    def test_paper_values_near_root(self):
        p = ChartPoint(PAPER_CYCLE[0], PAPER_CYCLE[2], PAPER_CYCLE[3])
        r = cycle_system_rhs(p)
        res = (r.alpha - p.alpha, r.gamma - p.gamma, r.delta - p.delta)
        assert max(map(abs, res)) < 1e-9

    def test_rhs_is_balanced_edges_of_canonical_state(self, random_angles):
        # the relations read x1, x3, x2 of the balanced edges, bit for bit
        for q in random_angles:
            can = canonicalize(q)
            assert core._canonical_shift(can.as_tuple()) == 0
            e = balanced_edges(can)
            r = cycle_system_rhs(ChartPoint.from_angles(can))
            assert (r.alpha, r.gamma, r.delta) == (e.x1, e.x3, e.x2)

    def test_rhs_is_the_kernels_midpoint(self):
        # cycle_system_rhs restates the map's midpoint for a canonical state;
        # on seeded states of shift 0 and at the cycle it must read x1, x3, x2
        # of the float kernel bit for bit, so the two cannot drift apart
        states = [sample_angle_tuple(substream(5, i), margin=margin)
                  for margin in (0.05, 1e-3, 0.0) for i in range(3000)]
        canonical = [q for q in states if core._canonical_shift(q) == 0]
        assert len(canonical) == 2211
        for q in (*canonical, GENERAL_CYCLE_ANGLES):
            x1, x2, x3, _ = core._balanced_edge_floats(tuple(q))
            assert tuple(cycle_system_rhs(ChartPoint.from_angles(q))) == (x1, x3, x2)

    def test_provenance_counts_the_map_steps_taken(self):
        # the default start is the orbit element the provenance names:
        # starting there explicitly must reproduce the default solve
        r = solve_cycle_system()
        n = int(re.fullmatch(r"initial guess from (\d+) map iterations of a generic seed",
                             r.provenance).group(1))
        q = AngleTuple(1.2, 2.1, 1.5, TWO_PI - 4.8)
        for _ in range(n):
            q = step(q)
        start = ChartPoint.from_angles(canonicalize(q))
        explicit = solve_cycle_system(initial=start)
        assert (explicit.solution, explicit.iterations) == (r.solution, r.iterations)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("coord", range(3))
    def test_non_finite_initial_is_invalid_input(self, coord, value):
        # the start is validated before any sine is taken
        initial = [1.5, 1.4, 1.5]
        initial[coord] = value
        with pytest.raises(QuadrangleError, match="must lie strictly inside"):
            solve_cycle_system(initial=ChartPoint(*initial))

    def test_budget_met_by_the_last_step(self, monkeypatch):
        # the default solve takes 3 Newton steps; with a budget of 3 its
        # residual is first compared with NEWTON_TOL after the loop
        full = solve_cycle_system()
        assert full.iterations == 3
        monkeypatch.setattr(solvers, "CYCLE_MAX_ITER", 3)
        assert solve_cycle_system() == full

    def test_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(solvers, "CYCLE_MAX_ITER", 2)
        with pytest.raises(SolverError, match=r"above tol 1e-12 after 2 iterations$"):
            solve_cycle_system()

    def test_explicit_initial(self):
        r = solve_cycle_system(initial=ChartPoint(1.5, 1.4, 1.5))
        assert abs(r.solution.alpha - PAPER_CYCLE[0]) < 1e-10

    @pytest.mark.parametrize("initial", [(0.75, 1.45, 1.05), (2.36, 1.06, 1.98)])
    def test_newton_path_near_the_boundary(self, initial):
        # full Newton steps from these starts leave the domain; the line
        # search keeps the iterates inside and still reaches the cycle
        r = solve_cycle_system(initial=ChartPoint(*initial))
        assert abs(r.solution.alpha - PAPER_CYCLE[0]) < 1e-10

    def test_degenerate_root_is_not_returned(self):
        # the relations also vanish at (pi, pi, 0, 0), which is no
        # quadrangle; from this start descent only leads there
        with pytest.raises(SolverError):
            solve_cycle_system(initial=ChartPoint(1.59, 1.64, 0.35))

    def test_solution_is_period_two_point(self):
        from quadmap.dynamics import rotation_distance, step
        from quadmap.core import reflect_labels_angles

        q = solve_cycle_system().solution.as_angles()
        assert max(abs(a - b) for a, b in zip(
            step(q).as_tuple(), reflect_labels_angles(q).as_tuple())) < 1e-10
        assert rotation_distance(step(step(q)), q) < 1e-10


class TestFdJacobian:
    def test_identity_map(self):
        p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
        jac = fd_jacobian(lambda x: x, p)
        assert np.max(np.abs(jac - np.eye(3))) < 1e-10

    def test_double_step_contracts_at_cycle(self):
        p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
        jac = fd_jacobian(
            lambda c: ChartPoint.from_angles(step(step(c.as_angles()))), p)
        assert max(eigenvalue_moduli_3x3(jac)) < 1.0

    def test_relation_derivative_exceeds_one(self):
        p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
        jac = fd_jacobian(cycle_system_rhs, p)
        assert np.max(np.abs(jac)) > 1.0

    def test_boundary_guard(self):
        p = ChartPoint(1e-7, 2.0, 2.0)
        with pytest.raises(SolverError, match="within h of the domain boundary"):
            fd_jacobian(lambda x: x, p)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_image_raises(self, value):
        p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
        with pytest.raises(SolverError, match="Jacobian has non-finite entries"):
            fd_jacobian(lambda c: ChartPoint(value, c.gamma, c.delta), p)


class TestEigenvalueModuli:
    def test_identity(self):
        assert eigenvalue_moduli_3x3(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0))

    def test_diagonal(self):
        m = np.diag([2.0, -0.5, 0.25])
        assert eigenvalue_moduli_3x3(m) == pytest.approx((2.0, 0.5, 0.25))

    def test_rotation_scale_block(self):
        theta, s = 0.7, -1.8
        m = np.zeros((3, 3))
        m[:2, :2] = [[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]]
        m[2, 2] = s
        assert eigenvalue_moduli_3x3(m) == pytest.approx(
            (abs(s), 1.0, 1.0), abs=1e-10)

    def test_product_is_abs_determinant(self, rng):
        for _ in range(1000):
            m = rng.uniform(-1.0, 1.0, (3, 3))
            assert math.prod(eigenvalue_moduli_3x3(m)) == pytest.approx(
                abs(np.linalg.det(m)), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("roots, moduli", [
        ((1.5, -0.8, 0.3), (1.5, 0.8, 0.3)),
        ((0.9, 0.6 + 0.7j, 0.6 - 0.7j), (math.hypot(0.6, 0.7),) * 2 + (0.9,)),
    ])
    def test_companion_matrix_roots(self, roots, moduli):
        # companion matrix of the monic cubic with these roots: ones on the
        # subdiagonal, minus the coefficients (c0, c1, c2) in the last column
        coeffs = np.real(np.poly(roots))
        m = np.diag(np.ones(2), -1)
        m[:, 2] = -coeffs[:0:-1]
        assert eigenvalue_moduli_3x3(m) == pytest.approx(moduli, abs=1e-12)

    def test_against_qr_oracle(self, rng):
        worst = 0.0
        for _ in range(1000):
            m = rng.uniform(-1.0, 1.0, (3, 3))
            mine = np.array(eigenvalue_moduli_3x3(m))
            ref = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
            worst = max(worst, float(np.max(np.abs(mine - ref))))
        assert worst < 1e-8


class TestSolve3:
    def test_matches_lapack_on_well_conditioned_matrices(self, rng):
        # Q1 diag(sv) Q2 with singular values in [0.5, 2]: condition number <= 4
        worst = 0.0
        for _ in range(1000):
            q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = q1 @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q2
            b = rng.uniform(-1.0, 1.0, 3)
            ref = np.linalg.solve(a, b)
            x = np.array(_solve3(a.tolist(), b.tolist()))
            worst = max(worst, float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))))
        assert worst < 1e-12

    def test_singular_matrix_raises(self):
        a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(a), np.ones(3))
        with pytest.raises(SolverError, match="singular Newton Jacobian"):
            _solve3(a, [1.0, 1.0, 1.0])


UNIT_MATRICES = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3)).filter(lambda m: np.any(m != 0.0)).map(
    lambda m: m / np.max(np.abs(m)))


@settings(max_examples=300, deadline=None)
@given(unit=UNIT_MATRICES, exponent=st.integers(-300, 300))
def test_moduli_of_any_scaled_matrix_are_finite_and_consistent(unit, exponent):
    # entries up to 1e300 or down to 1e-300: the shift and scaling keep the
    # cubic's coefficients of order one, so nothing overflows or underflows
    scale = 10.0 ** exponent
    moduli = eigenvalue_moduli_3x3((unit * scale).tolist())
    assert all(math.isfinite(x) for x in moduli)
    # largest entry of the unit matrix is 1, so the error is absolute; numpy's
    # LU determinant divides by zero on an exactly singular matrix
    with np.errstate(divide="ignore"):
        det = np.linalg.det(unit)
    assert math.prod(x / scale for x in moduli) == pytest.approx(abs(det), abs=1e-12)
    if np.max(np.abs(np.linalg.eigvals(unit).imag)) > 1e-4:
        # a conjugate pair shares one modulus, computed once
        assert len(set(moduli)) < 3


def test_moduli_near_the_largest_double():
    # the diagonal's sum alone overflows; the power-of-two prescale does not
    m = [[1e308, 1e308, 0.0], [0.0, 1e308, 0.0], [0.0, 0.0, 1e308]]
    assert eigenvalue_moduli_3x3(m) == (1e308, 1e308, 1e308)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0)])
def test_non_finite_entry_raises(i, j, value):
    # numpy's eigvals, the oracle, refuses the matrix too
    m = [[0.5, 0.1, 0.0], [0.2, 0.9, 0.3], [0.0, 0.4, 0.7]]
    m[i][j] = value
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(np.array(m))
    with pytest.raises(SolverError, match="matrix has non-finite entries"):
        eigenvalue_moduli_3x3(m)


@pytest.mark.parametrize("q, order", [
    (SQUARE, 1), (GENERAL_CYCLE_ANGLES, 2),
], ids=["square_f", "cycle_f2"])
def test_published_spectra_match_the_qr_oracle(q, order):
    jac = stability_report(q, map_order=order).jacobian
    ref = np.sort(np.abs(np.linalg.eigvals(np.array(jac))))[::-1]
    assert np.max(np.abs(np.array(eigenvalue_moduli_3x3(jac)) - ref)) <= 1e-15


class TestStabilityReport:
    def test_square_repelling(self):
        rep = stability_report(SQUARE, map_order=1)
        assert rep.spectral_radius > 1.0
        assert rep.map_order == 1

    def test_cycle_attracting(self):
        rep = stability_report(GENERAL_CYCLE_ANGLES, map_order=2)
        assert rep.spectral_radius < 1.0
        assert rep.eigenvalue_moduli[0] == rep.spectral_radius

    def test_h_robustness(self):
        p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "FD_STEP", 1e-5)
            r5 = eigenvalue_moduli_3x3(fd_jacobian(chart_map(2), p))[0]
        r6 = eigenvalue_moduli_3x3(fd_jacobian(chart_map(2), p))[0]
        assert abs(r5 - r6) / r6 < 1e-4
        assert r6 == stability_report(GENERAL_CYCLE_ANGLES, 2).spectral_radius

    def test_map_order_guard(self):
        with pytest.raises(QuadrangleError, match="map_order must be 1 or 2"):
            stability_report(SQUARE, map_order=3)

    def test_chart_point_takes_any_angle_tuple(self):
        # a relabeled image is a plain 4-tuple: it reads as its AngleTuple,
        # and an invalid one raises AngleTuple's message
        q = rotate_labels(step(step(GENERAL_CYCLE_ANGLES)), 1)
        assert type(q) is tuple
        p = ChartPoint.from_angles(q)
        assert p == ChartPoint.from_angles(AngleTuple(*q)) == (q[0], q[2], q[3])
        assert stability_report(q).point == p
        with pytest.raises(QuadrangleError, match="angle sum 4.0 differs from 2"):
            ChartPoint.from_angles((1.0, 1.0, 1.0, 1.0))

    def test_trapezoid_cycle_spectrum(self):
        # the double step returns to a rotate-by-1 relabeling of the
        # trapezoid state; composing with that relabeling gives the honest
        # cycle linearization, whose in-family multiplier is c'(a*)
        from quadmap.dynamics import KNOWN_CYCLES

        t1, _ = KNOWN_CYCLES["trapezoid_2cycle"]
        rep = stability_report(t1, map_order=2)
        assert all(np.isfinite(rep.eigenvalue_moduli))
        jac = np.array(rep.jacobian)
        rot1 = np.array([[-1.0, -1.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        eig = np.sort(np.abs(np.linalg.eigvals(rot1 @ jac)))
        h = 1e-6
        slope = (c_map(A_STAR + h) - c_map(A_STAR - h)) / (2 * h)
        assert eig[1] == pytest.approx(slope, abs=1e-4)
        # transverse pair: one strongly contracting, one mildly expanding
        assert eig[0] < 1e-4
        assert eig[2] > 1.0

    def test_square_radius_from_the_submap_slope(self, monkeypatch):
        # the square is the trapezoid state at a = pi/2, where f^2 has the
        # in-family multiplier c'(pi/2) = pi^2/8, so rho(square, f) is its
        # root pi/(2 sqrt 2); a 1% error in fd_jacobian must show
        def gap():
            rho = stability_report(SQUARE, 1).spectral_radius
            return abs(rho - math.sqrt(c_map_slope(PI / 2)))

        assert gap() <= 1e-6
        exact = solvers.fd_jacobian
        monkeypatch.setattr(solvers, "fd_jacobian", lambda *args: tuple(
            tuple(1.01 * x for x in row) for row in exact(*args)))
        assert gap() > 1e-6

    def test_square_jacobian_rotation_symmetry(self, monkeypatch):
        # the map commutes with the rotation relabelings that fix the
        # square; canonicalization tie-breaks put a derivative kink at the
        # square, so the finite-difference commutator is O(h) rather than
        # machine precision
        monkeypatch.setattr(solvers, "FD_STEP", 1e-8)
        jac = fd_jacobian(chart_map(1), ChartPoint.from_angles(SQUARE))
        rot2 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, -1.0, -1.0]])
        assert np.max(np.abs(jac @ rot2 - rot2 @ jac)) < 5e-8
