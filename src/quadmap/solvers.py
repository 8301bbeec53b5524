"""Root-finding, Jacobians and stability analysis for the quadrangle map.

State space is 3-dimensional after the angle-sum constraint; the reduced
chart uses coordinates (alpha, gamma, delta) with beta implied.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .core import TWO_PI, AngleTuple, QuadrangleError, _angles, _det3, _triangle_edges, canonicalize
from .dynamics import c_map, step

# central-difference step of every finite-difference derivative
FD_STEP = 1e-6

# bracket of the attracting trapezoid fixed point; Newton starts at its top
TRAPEZOID_BRACKET = (1.4, 1.5)

NEWTON_TOL = 1e-12        # stop of both Newton solves: trapezoid step, cycle residual
CYCLE_MAX_ITER = 100      # Newton iteration budget of the cycle solve
TRAPEZOID_MAX_ITER = 20   # Newton iteration budget of the trapezoid solve


class SolverError(RuntimeError):
    """A root-finder or linearization failed."""


SolveResult = namedtuple("SolveResult", "solution residual_norm iterations provenance")


class ChartPoint(namedtuple("ChartPoint", "alpha gamma delta")):
    """Reduced coordinates (alpha, gamma, delta); beta = 2*pi - alpha - gamma - delta."""

    __slots__ = ()

    @property
    def beta(self) -> float:
        return TWO_PI - self.alpha - self.gamma - self.delta

    def as_angles(self) -> AngleTuple:
        return AngleTuple(self.alpha, self.beta, self.gamma, self.delta)

    @staticmethod
    def from_angles(q: AngleTuple) -> "ChartPoint":
        alpha, _, gamma, delta = _angles(q)
        return ChartPoint(alpha, gamma, delta)


StabilityReport = namedtuple(
    "StabilityReport", "point map_order jacobian eigenvalue_moduli spectral_radius")


class TrapezoidFixedPoints(namedtuple("TrapezoidFixedPoints", "attracting repelling")):
    """Both fixed points of the trapezoid submap: the attracting root and pi/2."""

    __slots__ = ()


def _inside(p: ChartPoint, h: float) -> bool:
    """All four angles of p lie more than h away from 0 and pi."""
    return all(h < a < math.pi - h for a in (p.alpha, p.beta, p.gamma, p.delta))


def c_map_slope(a: float) -> float:
    """Slope c'(a) of the trapezoid submap, by the chain rule through theta(a).

    c = pi / (1 + sin(theta) + cos(theta)) with theta = pi / (2 + 2*cos(a)).
    The factor sin(theta) - cos(theta) cancels as a -> 0; it equals
    sqrt(2) * sin(theta - pi/4), and theta - pi/4 = (pi/4) * tan(a/2)^2.
    """
    if not (0.0 < a <= math.pi / 2):   # a NaN fails here too
        raise QuadrangleError("c_map_slope requires a in (0, pi/2]")
    theta = math.pi / (2.0 + 2.0 * math.cos(a))
    dtheta_da = 2.0 * math.pi * math.sin(a) / (2.0 + 2.0 * math.cos(a)) ** 2
    sin_minus_cos = math.sqrt(2.0) * math.sin(math.pi / 4.0 * math.tan(a / 2.0) ** 2)
    dc_dtheta = math.pi * sin_minus_cos / (1.0 + math.sin(theta) + math.cos(theta)) ** 2
    return dc_dtheta * dtheta_da


def solve_trapezoid_fixed_point() -> TrapezoidFixedPoints:
    """The nontrivial root of c(a) = a by Newton's method with c_map_slope from
    the top of TRAPEZOID_BRACKET until a step is at most NEWTON_TOL, plus the
    analytic fixed point pi/2.  On the bracket c' - 1 lies in [-0.45, -0.13].
    """
    lo, hi = TRAPEZOID_BRACKET
    a = hi
    provenance = f"Newton from a = {hi} in {TRAPEZOID_BRACKET}"
    for it in range(1, TRAPEZOID_MAX_ITER + 1):
        delta = (c_map(a) - a) / (1.0 - c_map_slope(a))
        a += delta
        if not lo < a < hi:   # a NaN step fails here too
            raise SolverError(f"Newton step left the bracket {TRAPEZOID_BRACKET}")
        if abs(delta) <= NEWTON_TOL:
            result = SolveResult(a, abs(c_map(a) - a), it, provenance)
            return TrapezoidFixedPoints(attracting=result, repelling=math.pi / 2.0)
    raise SolverError(f"Newton step above tol {NEWTON_TOL} after {TRAPEZOID_MAX_ITER} iterations")


def cycle_system_rhs(p: ChartPoint) -> ChartPoint:
    """Right-hand sides of the three fixed-cycle relations in the reduced chart.

    The relations express that the balanced edges x1, x2, x3 of the state
    equal alpha, delta and gamma respectively, i.e. that one step of the
    map produces the mirror relabeling of the state.
    """
    # halved endpoint sums, as balanced_edges forms them for a canonical state
    _, first_x2, first_x1 = _triangle_edges(p.alpha, p.delta)
    second_x1, second_x3, _ = _triangle_edges(p.gamma, p.delta)
    return ChartPoint((first_x1 + second_x1) / 2.0, second_x3 / 2.0, first_x2 / 2.0)


def _cycle_residual(p: ChartPoint):
    return tuple(r - x for r, x in zip(cycle_system_rhs(p), p))


def _solve3(a, b):
    """Solve a x = b for a 3x3 matrix a (rows), by Cramer's rule on core._det3."""
    cols = list(zip(*a))
    det = _det3(*cols)
    if det == 0.0:
        raise SolverError("singular Newton Jacobian")
    return [_det3(*cols[:i], b, *cols[i + 1:]) / det for i in range(3)]


def solve_cycle_system(initial: ChartPoint | None = None) -> SolveResult:
    """Damped Newton solve of the cycle relations in the reduced chart, until
    the residual sup-norm is at most NEWTON_TOL.

    Step-halving line search on the residual sup-norm, inside the domain;
    fd_jacobian supplies the Jacobian.  Beta is implied by the angle sum.
    """
    if initial is None:
        # in the canonical labeling the relations nearly hold at every other
        # element of this orbit: residual 2.6e-3 at element 51, 0.41 at 50
        q = AngleTuple(1.2, 2.1, 1.5, TWO_PI - 4.8)
        for _ in range(51):
            q = step(q)
        initial = ChartPoint.from_angles(canonicalize(q))
        provenance = "initial guess from 51 map iterations of a generic seed"
    else:
        initial.as_angles()   # the implied beta must be a valid angle too
        provenance = "caller-supplied initial guess"

    v = initial
    res = _cycle_residual(v)
    norm = max(map(abs, res))
    for it in range(1, CYCLE_MAX_ITER + 1):
        if norm <= NEWTON_TOL:
            return SolveResult(v, norm, it - 1, provenance)
        jac = fd_jacobian(cycle_system_rhs, v)
        s = _solve3([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(jac)],
                    [-r for r in res])
        lam = 1.0
        while True:
            trial = ChartPoint(*(x + lam * d for x, d in zip(v, s)))
            trial_res = _cycle_residual(trial)
            trial_norm = max(map(abs, trial_res))
            if trial_norm < norm and _inside(trial, FD_STEP):
                break
            lam *= 0.5
            if lam < 2.0 ** -20:
                raise SolverError("line search damping collapsed")
        v, res, norm = trial, trial_res, trial_norm
    if norm <= NEWTON_TOL:
        return SolveResult(v, norm, CYCLE_MAX_ITER, provenance)
    raise SolverError(f"residual {norm} above tol {NEWTON_TOL} after {CYCLE_MAX_ITER} iterations")


def fd_jacobian(chart_map: Callable[[ChartPoint], ChartPoint], p: ChartPoint) -> tuple:
    """Central-difference 3x3 Jacobian of a chart map with step FD_STEP, as three row tuples."""
    h = FD_STEP
    if not _inside(p, h):
        raise SolverError("chart point within h of the domain boundary")
    v = tuple(p)
    images = [[chart_map(ChartPoint(*(x + d * (i == j) for i, x in enumerate(v))))
               for d in (h, -h)] for j in range(3)]
    # column j is the central difference along coordinate j
    jac = tuple(zip(*([(a - b) / (2.0 * h) for a, b in zip(up, down)] for up, down in images)))
    if not all(math.isfinite(x) for row in jac for x in row):
        raise SolverError("Jacobian has non-finite entries")
    return jac


def eigenvalue_moduli_3x3(m) -> tuple:
    """Moduli of the eigenvalues of a real 3x3 matrix, sorted descending.

    Roots of the cubic y^3 + p*y + q of (u - t*I) / s, with u = m / 2^k < 2 (no
    overflow), t the mean diagonal of u, s the largest |entry| of u - t*I: three
    real roots in trigonometric form, else Cardano's root and a deflated quadratic.
    A NaN or infinite entry raises SolverError.
    """
    if not all(math.isfinite(x) for row in m for x in row):
        raise SolverError("matrix has non-finite entries")
    top = math.ldexp(1.0, math.frexp(max(abs(float(x)) for row in m for x in row))[1] - 1)
    unit = [[float(x) / top for x in row] for row in m]
    t = (unit[0][0] + unit[1][1] + unit[2][2]) / 3.0
    shifted = [[x - t * (i == j) for j, x in enumerate(r)] for i, r in enumerate(unit)]
    s = max(abs(x) for row in shifted for x in row)
    if s == 0.0:
        return (abs(t) * top,) * 3
    (a, b, c), (d, e, f), (g, h, k) = ([x / s for x in row] for row in shifted)
    p = a * e - b * d + a * k - c * g + e * k - f * h
    q = -_det3((a, d, g), (b, e, h), (c, f, k))
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc <= 0.0:   # three real roots
        m3 = max(-p / 3.0, 0.0)
        r = math.sqrt(m3)
        phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * m3) / r))) / 3.0 if r else 0.0
        moduli = [abs(t + s * 2.0 * r * math.cos(phi - TWO_PI * n / 3.0)) for n in range(3)]
    else:             # one real root y1 and a conjugate pair of product p + y1^2
        z = -q / 2.0 - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(z) ** (1.0 / 3.0), z)
        y1 = u - p / (3.0 * u)
        pair = math.hypot(t - s * y1 / 2.0, s * math.sqrt(abs(p + 0.75 * y1 * y1)))
        moduli = [abs(t + s * y1), pair, pair]
    return tuple(sorted((top * x for x in moduli), reverse=True))


def stability_report(q: AngleTuple, map_order: int = 1) -> StabilityReport:
    """Jacobian spectrum of the map (or its square) at any angle 4-tuple q, in the chart."""
    if map_order not in (1, 2):
        raise QuadrangleError("map_order must be 1 or 2")
    p = ChartPoint.from_angles(q)

    def chart_map(c: ChartPoint) -> ChartPoint:
        image = c.as_angles()
        for _ in range(map_order):
            image = step(image)
        return ChartPoint.from_angles(image)

    jac = fd_jacobian(chart_map, p)
    moduli = eigenvalue_moduli_3x3(jac)
    return StabilityReport(
        point=p,
        map_order=map_order,
        jacobian=jac,
        eigenvalue_moduli=moduli,
        spectral_radius=moduli[0],
    )
