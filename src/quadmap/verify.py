"""End-to-end verification of every published constant and claim.

Each check returns a CheckResult, its verdict as (label, value, bound) gates;
`run_all` executes the full battery.  Only check_trapezoid_fixed_point and
check_general_cycle_solution run a solver, holding it to the published table
in `dynamics`; the rest read that table.
The CLI `verify` subcommand wraps it and exits nonzero on any failure.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .core import IDENTITY, ROTATIONS, TWO_PI, balanced_edges, balanced_edges_oracle
from .core import _triangle_edges, canonicalize, realize_polygon, reflect_labels_angles
from .core import QuadrangleError, relabel_distance, rotate_labels
from .dynamics import (
    A_STAR,
    C_AT_ZERO,
    GENERAL_CYCLE_ANGLES,
    RHO_CYCLE,
    RHO_SQUARE,
    SLOPE_AT_A_STAR,
    SQUARE,
    c_map,
    iterate,
    rotation_distance,
    step,
    trapezoid_angles,
)
from .sampling import sample_angle_tuple, substream
from .solvers import (
    ChartPoint,
    SolverError,
    _cycle_residual,
    c_map_slope,
    cycle_system_rhs,
    fd_jacobian,
    solve_cycle_system,
    solve_trapezoid_fixed_point,
    stability_report,
)


class CheckResult(namedtuple("CheckResult", "name gates")):
    """A check's name and its gates, each a (label, value, bound) that holds
    when value <= bound; a strict bound b is written math.nextafter(b, 0.0)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(value <= bound for _, value, bound in self.gates)

    @property
    def detail(self) -> str:
        return "; ".join(f"{label} = {value:.17g} (bound {bound:.17g})"
                         for label, value, bound in self.gates)


def check_square_fixed_point() -> CheckResult:
    d = relabel_distance(step(SQUARE), SQUARE, IDENTITY)
    return CheckResult("square fixed point", (("sup deviation", d, 1e-12),))


def check_trapezoid_fixed_point() -> CheckResult:
    err = abs(solve_trapezoid_fixed_point().attracting.solution - A_STAR)
    return CheckResult("trapezoid fixed point a*",
                       (("|a* - paper|", err, 2 * math.ulp(A_STAR)),))


def check_slope_at_fixed_point() -> CheckResult:
    err = abs(c_map_slope(A_STAR) - SLOPE_AT_A_STAR)
    return CheckResult("submap slope at a*", (("|c'(a*) - paper|", err, 1e-3),))


def check_boundary_values() -> CheckResult:
    e1 = abs(c_map(math.pi / 2) - math.pi / 2)
    # the limit at 0 through the real map: c(a) - c(0+) is O(a^4), since
    # dc/dtheta vanishes at theta = pi/4, so a = 1e-4 already reads the limit
    e2 = abs(c_map(1e-4) - C_AT_ZERO)
    # the closed form against the full map: f^2 of the trapezoid state at a
    # relabels the one at c(a) <= pi/2, so its least angle is c(a)
    e3 = max(abs(min(step(step(trapezoid_angles(a)))) - c_map(a))
             for a in (0.01, 0.1, 0.5, 1.0, 1.4, 1.5))
    return CheckResult("submap boundary values", (
        ("|c(pi/2) - pi/2|", e1, 1e-12),
        ("limit error at 0", e2, 1e-12),
        ("|c(a) - min f^2(trapezoid)|", e3, 1e-14),
    ))


def check_general_cycle_solution() -> CheckResult:
    sol = solve_cycle_system().solution
    got = (sol.alpha, sol.beta, sol.gamma, sol.delta)
    err = max(abs(a - b) for a, b in zip(got, GENERAL_CYCLE_ANGLES))
    residual = max(map(abs, _cycle_residual(ChartPoint.from_angles(GENERAL_CYCLE_ANGLES))))
    return CheckResult("general 2-cycle angles", (
        ("max |angle - paper|", err, 1e-14),
        ("residual at paper values", residual, math.nextafter(1e-14, 0.0)),
    ))


def check_cycle_dynamics() -> CheckResult:
    q = GENERAL_CYCLE_ANGLES
    d1 = relabel_distance(step(q), reflect_labels_angles(q), IDENTITY)
    # a double step returns to a cyclic relabeling of the start; compare
    # in the rotation quotient, where the paper's quadrangles live
    d2 = rotation_distance(step(step(q)), q)
    return CheckResult("cycle mirror dynamics", (
        ("|step(q*) - mirror(q*)|", d1, 1e-14),
        ("quotient |step^2(q*) - q*|", d2, 1e-14),
    ))


def check_generic_convergence(samples: int = 100) -> CheckResult:
    # the starts of `quadmap basin --samples 100 --seed 42`, whose CSV gives
    # each orbit's class; at least 99% of them must be general_2cycle
    misses = sum(iterate(sample_angle_tuple(substream(42, i))).classification
                 != "general_2cycle" for i in range(samples))
    return CheckResult("generic convergence experiment",
                       (("orbits not general_2cycle", misses, samples // 100),))


def check_trapezoid_basin() -> CheckResult:
    others, worst = 0, 0.0
    for i in range(10):
        traj = iterate(trapezoid_angles(0.1 + 1.4 * (i + 0.5) / 10.0))
        if traj.classification == "trapezoid_2cycle":
            worst = max(worst, traj.cycle.match_distance)
        else:
            others += 1
    return CheckResult("trapezoid basin", (
        ("seeds not trapezoid_2cycle", others, 0),
        ("worst distance to displayed pair", worst, math.nextafter(1e-10, 0.0)),
    ))


def check_oracle_equivalence() -> CheckResult:
    rng = random.Random(7)
    worst_mid, worst_gap = 0.0, 0.0
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        e = balanced_edges(q)
        mid = balanced_edges_oracle(q).base
        worst_mid = max(worst_mid, relabel_distance(e, mid, IDENTITY))
        worst_gap = max(worst_gap, realize_polygon(q, e).closure_gap)
    return CheckResult("closure-oracle equivalence", (
        ("worst midpoint gap", worst_mid, 1e-10),
        ("worst closure gap", worst_gap, 1e-9),
    ))


def check_property_suite() -> CheckResult:
    rng = random.Random(11)

    # rng.uniform(a, b) is a + (b - a) * rng.random(), written out
    draw = rng.random
    span = (math.pi - 2e-6) - 1e-6
    worst = 0.0
    for _ in range(10000):
        phi = 1e-6 + span * draw()
        psi = 1e-6 + ((math.pi - phi - 1e-6) - 1e-6) * draw()
        e_phi, _, e_sum = _triangle_edges(phi, psi)
        worst = max(worst, e_phi, e_sum)
    # dividing by 2*pi is monotone, so this is the largest edge fraction,
    # the same double as the largest of the fractions
    worst /= TWO_PI

    half = math.pi / 2
    worst_half = -math.inf
    over_half_max = 0
    worst_rot = worst_refl = worst_sum = 0.0
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        e = balanced_edges(q)
        e_can = balanced_edges(canonicalize(q))
        worst_half = max(worst_half, e_can.x2, e_can.x3)
        x1, x2, x3, x4 = e
        over_half_max = max(over_half_max, (x1 > half) + (x2 > half) + (x3 > half) + (x4 > half))
        worst_sum = max(worst_sum, abs(x1 + x2 + x3 + x4 - TWO_PI))
        k = int(4 * rng.random())
        rot = balanced_edges(rotate_labels(q, k))
        worst_rot = max(worst_rot, relabel_distance(rot, e, (ROTATIONS[k],)))
        refl = balanced_edges(reflect_labels_angles(q))
        # (1, 0, 3, 2) is the edge relabeling induced by the angle mirror
        worst_refl = max(worst_refl, relabel_distance(refl, e, ((1, 0, 3, 2),)))
    return CheckResult("balanced-edge property suite", (
        # both triangle-edge fractions are < 1/2 for phi, psi > 0 with phi +
        # psi < pi: this is what keeps balanced edges inside (0, pi)
        ("largest triangle edge fraction", worst, math.nextafter(0.5, 0.0)),
        ("largest canonical x2, x3", worst_half, math.pi / 2 + 1e-12),
        ("most components > pi/2", over_half_max, 2),
        ("equivariance", max(worst_rot, worst_refl), 1e-10),
        ("|sum - 2 pi|", worst_sum, 1e-9),
    ))


def check_stability_spectra() -> CheckResult:
    rho_square = stability_report(SQUARE, map_order=1).spectral_radius
    rho_cycle = stability_report(GENERAL_CYCLE_ANGLES, map_order=2).spectral_radius
    jac = fd_jacobian(cycle_system_rhs, ChartPoint.from_angles(GENERAL_CYCLE_ANGLES))
    max_entry = float(max(abs(x) for row in jac for x in row))
    return CheckResult("stability spectra", (
        ("|rho(square, f) - paper|", abs(rho_square - RHO_SQUARE), 1e-4),
        ("|rho(cycle, f^2) - paper|", abs(rho_cycle - RHO_CYCLE), 1e-4),
        # some relation derivative exceeds 1 exactly when this is below 1
        ("1 / max |relation derivative|", 1.0 / max_entry, math.nextafter(1.0, 0.0)),
    ))


CHECKS = (
    check_square_fixed_point,
    check_trapezoid_fixed_point,
    check_slope_at_fixed_point,
    check_boundary_values,
    check_general_cycle_solution,
    check_cycle_dynamics,
    check_generic_convergence,
    check_trapezoid_basin,
    check_oracle_equivalence,
    check_property_suite,
    check_stability_spectra,
)


def run_all():
    """Every check's result, in CHECKS order.  A check that raises
    QuadrangleError or SolverError fails, under its function name, with one
    gate that names the exception; any other exception propagates."""
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except (QuadrangleError, SolverError) as exc:
            results.append(CheckResult(check.__name__, ((f"raised {exc!r}", math.inf, 0.0),)))
    return results
