"""End-to-end verification of every published constant and claim.

Each check returns a CheckResult; `run_all` executes the full battery.  Only
check_trapezoid_fixed_point and check_general_cycle_solution run a solver,
holding it to the published table in `dynamics`; the rest read that table.
The CLI `verify` subcommand wraps it and exits nonzero on any failure.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .core import IDENTITY, ROTATIONS, TWO_PI, balanced_edges, balanced_edges_oracle
from .core import _triangle_edges, canonicalize, realize_polygon, reflect_labels_angles
from .core import relabel_distance, rotate_labels
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
    c_map_slope,
    cycle_system_rhs,
    fd_jacobian,
    solve_cycle_system,
    solve_trapezoid_fixed_point,
    stability_report,
)


CheckResult = namedtuple("CheckResult", "name passed detail")


def check_square_fixed_point() -> CheckResult:
    d = relabel_distance(step(SQUARE), SQUARE, IDENTITY)
    return CheckResult("square fixed point", d <= 1e-12, f"sup deviation {d:.3e}")


def check_trapezoid_fixed_point() -> CheckResult:
    fp = solve_trapezoid_fixed_point()
    err = abs(fp.attracting.solution - A_STAR)
    return CheckResult(
        "trapezoid fixed point a*",
        err <= 2 * math.ulp(A_STAR),
        f"a* = {fp.attracting.solution!r}, |a* - paper| = {err:.3e}",
    )


def check_slope_at_fixed_point() -> CheckResult:
    slope = c_map_slope(A_STAR)
    return CheckResult(
        "submap slope at a*",
        abs(slope - SLOPE_AT_A_STAR) <= 1e-3,
        f"c'(a*) = {slope:.6f}",
    )


def check_boundary_values() -> CheckResult:
    e1 = abs(c_map(math.pi / 2) - math.pi / 2)
    # the limit at 0 through the real map: c(a) - c(0+) is O(a^4), since
    # dc/dtheta vanishes at theta = pi/4, so a = 1e-4 already reads the limit
    e2 = abs(c_map(1e-4) - C_AT_ZERO)
    # the closed form against the full map: f^2 of the trapezoid state at a
    # relabels the one at c(a) <= pi/2, so its least angle is c(a)
    e3 = max(abs(min(step(step(trapezoid_angles(a)))) - c_map(a))
             for a in (0.01, 0.1, 0.5, 1.0, 1.4, 1.5))
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-14
    return CheckResult(
        "submap boundary values",
        ok,
        f"|c(pi/2)-pi/2| = {e1:.3e}, limit error at 0 = {e2:.3e}, "
        f"|c(a) - min f^2(trapezoid)| = {e3:.3e}",
    )


def check_general_cycle_solution() -> CheckResult:
    result = solve_cycle_system()
    sol = result.solution
    got = (sol.alpha, sol.beta, sol.gamma, sol.delta)
    err = max(abs(a - b) for a, b in zip(got, GENERAL_CYCLE_ANGLES))
    p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
    r = cycle_system_rhs(p)
    residual = max(abs(r.alpha - p.alpha), abs(r.gamma - p.gamma), abs(r.delta - p.delta))
    ok = err <= 1e-14 and residual < 1e-14
    return CheckResult(
        "general 2-cycle angles",
        ok,
        f"max |angle - paper| = {err:.3e}, residual at paper values = {residual:.3e}",
    )


def check_cycle_dynamics() -> CheckResult:
    q = GENERAL_CYCLE_ANGLES
    d1 = relabel_distance(step(q), reflect_labels_angles(q), IDENTITY)
    # a double step returns to a cyclic relabeling of the start; compare
    # in the rotation quotient, where the paper's quadrangles live
    d2 = rotation_distance(step(step(q)), q)
    ok = d1 <= 1e-14 and d2 <= 1e-14
    return CheckResult(
        "cycle mirror dynamics",
        ok,
        f"|step(q*) - mirror(q*)| = {d1:.3e}, quotient |step^2(q*) - q*| = {d2:.3e}",
    )


def check_generic_convergence(samples: int = 100) -> CheckResult:
    hits = 0
    misses = []
    for i in range(samples):
        q0 = sample_angle_tuple(substream(42, i))
        traj = iterate(q0)
        if traj.classification == "general_2cycle":
            hits += 1
        else:
            misses.append((i, traj.classification))
    frac = hits / samples
    detail = f"{hits}/{samples} general_2cycle"
    if misses:
        detail += f"; counterexamples {misses[:5]}"
    return CheckResult("generic convergence experiment", frac >= 0.99, detail)


def check_trapezoid_basin() -> CheckResult:
    worst = 0.0
    for i in range(10):
        a = 0.1 + 1.4 * (i + 0.5) / 10.0
        traj = iterate(trapezoid_angles(a))
        if traj.classification != "trapezoid_2cycle":
            return CheckResult("trapezoid basin", False,
                               f"seed a={a:.3f} gave {traj.classification}")
        worst = max(worst, traj.cycle.match_distance)
    return CheckResult("trapezoid basin", worst < 1e-10,
                       f"worst distance to displayed pair {worst:.3e}")


def check_oracle_equivalence() -> CheckResult:
    rng = random.Random(7)
    worst_mid, worst_gap = 0.0, 0.0
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        e = balanced_edges(q)
        mid = balanced_edges_oracle(q).base
        worst_mid = max(worst_mid, relabel_distance(e, mid, IDENTITY))
        worst_gap = max(worst_gap, realize_polygon(q, e).closure_gap)
    ok = worst_mid <= 1e-10 and worst_gap <= 1e-9
    return CheckResult(
        "closure-oracle equivalence",
        ok,
        f"worst midpoint gap {worst_mid:.3e}, worst closure gap {worst_gap:.3e}",
    )


def check_property_suite() -> CheckResult:
    rng = random.Random(11)
    details = []
    ok = True

    worst = 0.0
    for _ in range(10000):
        phi = rng.uniform(1e-6, math.pi - 2e-6)
        psi = rng.uniform(1e-6, math.pi - phi - 1e-6)
        e_phi, _, e_sum = _triangle_edges(phi, psi)
        worst = max(worst, e_phi, e_sum)
    # dividing by 2*pi is monotone, so this is the largest edge fraction,
    # the same double as the largest of the fractions
    worst /= TWO_PI
    # both triangle-edge fractions are < 1/2 for phi, psi > 0 with phi + psi
    # < pi: this is what keeps balanced edges inside (0, pi)
    ok &= worst < 0.5
    details.append(f"triangle fraction margin to 1/2 {0.5 - worst:.3e}")

    worst_half = -math.inf
    over_half_max = 0
    worst_rot = worst_refl = worst_sum = 0.0
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        e = balanced_edges(q)
        e_can = balanced_edges(canonicalize(q))
        worst_half = max(worst_half, e_can.x2, e_can.x3)
        over_half_max = max(over_half_max, sum(1 for x in e if x > math.pi / 2))
        worst_sum = max(worst_sum, abs(e.x1 + e.x2 + e.x3 + e.x4 - TWO_PI))
        k = int(4 * rng.random())
        rot = balanced_edges(rotate_labels(q, k))
        worst_rot = max(worst_rot, relabel_distance(rot, e, (ROTATIONS[k],)))
        refl = balanced_edges(reflect_labels_angles(q))
        # (1, 0, 3, 2) is the edge relabeling induced by the angle mirror
        worst_refl = max(worst_refl, relabel_distance(refl, e, ((1, 0, 3, 2),)))
    ok &= worst_half <= math.pi / 2 + 1e-12
    ok &= over_half_max <= 2
    ok &= worst_rot <= 1e-10 and worst_refl <= 1e-10 and worst_sum <= 1e-9
    details.append(f"canonical x2,x3 excess {worst_half - math.pi / 2:.3e}")
    details.append(f"max components > pi/2: {over_half_max}")
    details.append(f"equivariance {max(worst_rot, worst_refl):.3e}, sum {worst_sum:.3e}")
    return CheckResult("balanced-edge property suite", bool(ok), "; ".join(details))


def check_stability_spectra() -> CheckResult:
    rho_square = stability_report(SQUARE, map_order=1).spectral_radius
    rho_cycle = stability_report(GENERAL_CYCLE_ANGLES, map_order=2).spectral_radius
    p = ChartPoint.from_angles(GENERAL_CYCLE_ANGLES)
    jac = fd_jacobian(cycle_system_rhs, p)
    max_entry = float(max(abs(x) for row in jac for x in row))
    ok = (abs(rho_square - RHO_SQUARE) <= 1e-4 and abs(rho_cycle - RHO_CYCLE) <= 1e-4
          and max_entry > 1.0)
    return CheckResult(
        "stability spectra",
        ok,
        f"rho(square, f) = {rho_square:.4f}, rho(cycle, f^2) = {rho_cycle:.4f}, "
        f"max |relation derivative| = {max_entry:.4f}",
    )


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
    return [check() for check in CHECKS]
