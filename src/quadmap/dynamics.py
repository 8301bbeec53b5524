"""The edge-to-angle map on balanced quadrangles and its iteration.

The map sends a quadrangle with angles q to the quadrangle whose angles
numerically equal the balanced edge lengths of q.  Generic orbits converge
to an attracting 2-cycle; the square is a repelling fixed point, and
isosceles-trapezoid-type quadrangles form an invariant family with its own
attracting 2-cycle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    DIHEDRAL,
    ROTATIONS,
    AngleTuple,
    EdgeTuple,
    QuadrangleError,
    _balanced_edge_floats,
    balanced_edges,
    reflect_labels_angles,
    relabel_distance,
)

P_MAX = 8           # longest period the detector scans for
CONFIRMATIONS = 3   # consecutive near-recurrences required to accept a cycle
MATCH_TOL = 1e-6    # classification tolerance; known limit sets are > 0.05 apart

SQUARE = AngleTuple(math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2)

# attracting fixed point of the trapezoid submap, double-precision value
A_STAR = 1.48342158769377952440379165224

# published figures, to the digits printed: the submap slope c'(a*), and the
# spectral radii of f at the square and of f^2 at the generic 2-cycle
SLOPE_AT_A_STAR, RHO_SQUARE, RHO_CYCLE = 0.803, 1.1107, 0.9105

# one-sided limit of the trapezoid submap at a -> 0+
C_AT_ZERO = math.pi / (math.sqrt(2.0) + 1.0)

# angles of the generic attracting 2-cycle (its mirror partner is the
# reflection (alpha, delta, gamma, beta))
GENERAL_CYCLE_ANGLES = AngleTuple(
    1.54819305248669225152933985324,
    1.82405188512759300508614890573,
    1.41515953031350909799654144250,
    1.49578083925179212231325656509,
)


@dataclass(frozen=True)
class CycleInfo:
    period: int
    representative_states: tuple
    classification: str
    residual: float
    match_distance: float


@dataclass(frozen=True)
class Trajectory:
    """An orbit of the map and the cycle it settled on, if any.

    path holds the orbit as float 4-tuples, start first.  states holds the
    same orbit as frozen AngleTuples, validated by AngleTuple when first
    read and then kept.  residual is the detector's distance at exit.
    """

    path: tuple
    cycle: Optional[CycleInfo]

    @cached_property
    def states(self) -> tuple:
        return tuple(AngleTuple(*t) for t in self.path)

    @property
    def classification(self) -> str:
        return self.cycle.classification if self.cycle else "no_convergence"

    @property
    def residual(self) -> float:
        """The cycle's residual; unconverged, the least rotation_distance
        from the last state to each of the P_MAX states before it."""
        if self.cycle:
            return self.cycle.residual
        *before, last = (AngleTuple(*t) for t in self.path[-1 - P_MAX:])
        return min(rotation_distance(last, s) for s in before)


def step(q: AngleTuple) -> AngleTuple:
    """One application of the map: new angles are the balanced edge lengths of q."""
    return AngleTuple(*balanced_edges(q).as_tuple())


def c_map(a: float) -> float:
    """The trapezoid submap: base angle after a double step of the full map."""
    if not (0.0 < a <= math.pi / 2):
        raise QuadrangleError("c_map requires a in (0, pi/2]")
    theta = math.pi / (2.0 + 2.0 * math.cos(a))
    return math.pi / (1.0 + math.sin(theta) + math.cos(theta))


def trapezoid_edges(a: float) -> EdgeTuple:
    """Balanced edges of the equal-opposite-angle state with parameter a."""
    if not (0.0 < a <= math.pi / 2):
        raise QuadrangleError("trapezoid_edges requires a in (0, pi/2]")
    u = math.pi / (2.0 + 2.0 * math.cos(a))
    v = math.pi / 2.0 + math.pi * math.cos(a) / (1.0 + math.cos(a))
    return EdgeTuple(u, math.pi / 2.0, u, v)


def trapezoid_angles(a: float) -> AngleTuple:
    """The isosceles trapezoid state (a, pi-a, pi-a, a)."""
    if not (0.0 < a <= math.pi / 2):
        raise QuadrangleError("trapezoid_angles requires a in (0, pi/2]")
    return AngleTuple(a, math.pi - a, math.pi - a, a)


def trapezoid_cycle_pair():
    """The two states of the attracting 2-cycle inside the trapezoid family."""
    t1 = trapezoid_angles(A_STAR)
    u, _, _, v = trapezoid_edges(A_STAR).as_tuple()
    # step(t1) in the labeling produced by the map
    t2 = AngleTuple(v, u, math.pi / 2.0, u)
    return t1, t2


def general_cycle_pair():
    """The generic attracting 2-cycle: a state and its mirror relabeling."""
    q1 = GENERAL_CYCLE_ANGLES
    return q1, reflect_labels_angles(q1)


def dihedral_distance(p: AngleTuple, q: AngleTuple) -> float:
    """Minimum sup-norm distance over the 8 relabelings (rotations x reflection) of q."""
    return relabel_distance(p, q, DIHEDRAL)


def rotation_distance(p: AngleTuple, q: AngleTuple) -> float:
    """Minimum sup-norm distance over the 4 cyclic relabelings of q.

    This is the metric of the rotation-quotient space, where the map's
    2-cycles really have period 2: in labeled coordinates a double step
    lands on a cyclic relabeling of the starting state.  The full dihedral
    quotient would be too coarse here, because the two elements of the
    generic cycle are mirror images of each other and would collapse to
    one point.
    """
    return relabel_distance(p, q, ROTATIONS)


# the known limit sets in match order; the square comes first, since it is
# also the degenerate trapezoid case
KNOWN_CYCLES = (
    ("square_fixed", (SQUARE,)),
    ("trapezoid_2cycle", trapezoid_cycle_pair()),
    ("general_2cycle", general_cycle_pair()),
)


def _cycle_distance(reps, known):
    """Distance of detected cycle states to a known cycle, up to state order and relabeling."""
    n = len(known)
    return min(max(dihedral_distance(r, known[(i + shift) % n]) for i, r in enumerate(reps))
               for shift in range(n))


def _classify(reps):
    for name, known in KNOWN_CYCLES:
        if len(known) == len(reps):
            d = _cycle_distance(reps, known)
            if d < MATCH_TOL:
                return name, d
    return "other_cycle", math.inf


def _rotation_within(p, q, tol) -> bool:
    """rotation_distance(p, q) < tol on float 4-tuples, stopping at the first miss."""
    p0, p1, p2, p3 = p
    for i, j, k, m in ROTATIONS:
        if (abs(p0 - q[i]) < tol and abs(p1 - q[j]) < tol
                and abs(p2 - q[k]) < tol and abs(p3 - q[m]) < tol):
            return True
    return False


def iterate(q0: AngleTuple, max_iter: int = 10000, tol: float = 1e-12) -> Trajectory:
    """Iterate the map with cycle detection.

    A cycle of period p <= P_MAX is accepted after the rotation-quotient
    sup-norm between states n and n-p stays below tol for CONFIRMATIONS
    consecutive n.  Cycles are compared in the rotation quotient because a
    double step returns to a cyclic relabeling of the start, not to the
    same labeled tuple.  Non-convergence is reported via the
    classification, not an error.

    The largest angle is unchanged by relabeling and 1-Lipschitz in the
    sup norm, so |max p - max q| <= rotation_distance(p, q), in floats too
    (rounded subtraction is monotone); a pair whose peaks differ by tol or
    more is rejected without the rotation scan.  A sorted window of the
    last P_MAX peaks decides first whether any period can pass that test:
    if no window entry lies in [peak - tol, peak + tol], rounded, every
    streak is reset and the per-period loop is skipped.  This hides no
    pair: rounding is monotone, so abs(peak - w) < tol in floats implies
    peak - tol < w < peak + tol exactly, and the float w then lies between
    the two rounded bounds.

    The loop validates nothing: the kernel applies AngleTuple's range and
    sum checks to each float state.  The orbit is returned as float tuples
    (Trajectory.path); AngleTuple validates the states that the cycle
    report, Trajectory.states or Trajectory.residual build from them.
    """
    if max_iter < 1:
        raise QuadrangleError("max_iter must be >= 1")
    if not 0.0 < tol < math.inf:   # a NaN tol fails here too
        raise QuadrangleError("tol must be positive and finite")
    path = [q0.as_tuple()]
    peaks = [max(path[0])]
    window = peaks[:]   # the last P_MAX peaks, sorted
    streak = [0] * (P_MAX + 1)
    for n in range(1, max_iter + 1):
        q = _balanced_edge_floats(path[-1])
        peak = max(q)
        path.append(q)
        peaks.append(peak)
        i = bisect_left(window, peak - tol)
        if i == len(window) or window[i] > peak + tol:
            streak = [0] * (P_MAX + 1)
        else:
            for p in range(1, min(P_MAX, n) + 1):
                if abs(peak - peaks[n - p]) < tol and _rotation_within(q, path[n - p], tol):
                    streak[p] += 1
                    if streak[p] >= CONFIRMATIONS:
                        return _trajectory(path, p)
                else:
                    streak[p] = 0
        insort(window, peak)
        if n >= P_MAX:
            window.remove(peaks[n - P_MAX])
    return _trajectory(path, None)


def _trajectory(path, period):
    # iterate's API boundary: the period + 1 float states the cycle report
    # needs become AngleTuples here; cycle representatives are images under
    # the public step, checking the float kernel against it
    path = tuple(path)
    if period is None:
        return Trajectory(path, None)
    last = tuple(AngleTuple(*t) for t in path[-period - 1:])
    reps = tuple(step(s) for s in last[:-1])
    classification, match = _classify(reps)
    residual = rotation_distance(last[-1], last[0])
    cycle = CycleInfo(period, reps, classification, residual, match)
    return Trajectory(path, cycle)
