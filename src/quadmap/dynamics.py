"""The edge-to-angle map on balanced quadrangles and its iteration.

The map sends a quadrangle with angles q to the quadrangle whose angles
numerically equal the balanced edge lengths of q.  Generic orbits converge
to an attracting 2-cycle; the square is a fixed point that repels generic
starts but attracts the parallelogram line, which reaches it in one step;
isosceles trapezoids form an invariant family with an attracting 2-cycle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    read and then kept.  residual is the detector's distance at exit, on path.
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
        """The cycle's residual; unconverged, the least rotation_distance on
        path from the last state to each of the P_MAX states before it."""
        if self.cycle:
            return self.cycle.residual
        *before, last = self.path[-1 - P_MAX:]
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


def rotation_distance(p, q) -> float:
    """Minimum sup-norm distance over the 4 cyclic relabelings of q.

    This is the metric of the rotation-quotient space, where the map's
    2-cycles really have period 2: in labeled coordinates a double step
    lands on a cyclic relabeling of the starting state.  The full dihedral
    quotient would be too coarse here, because the two elements of the
    generic cycle are mirror images of each other and would collapse to
    one point.
    """
    return relabel_distance(p, q, ROTATIONS)


# the known limit sets, most common first; they lie more than 0.05 apart,
# so at most one matches within MATCH_TOL and the order changes no result
KNOWN_CYCLES = (
    ("general_2cycle", general_cycle_pair()),
    ("trapezoid_2cycle", trapezoid_cycle_pair()),
    ("square_fixed", (SQUARE,)),
)


def _cycle_distance(reps, known):
    """Distance of detected cycle states to a known cycle, up to state order and relabeling."""
    n = len(known)
    return min(max(dihedral_distance(r, known[(i + shift) % n]) for i, r in enumerate(reps))
               for shift in range(n))


def _classify(reps):
    # a cycle detected at a multiple of its period matches it repeated
    for name, known in KNOWN_CYCLES:
        if len(reps) % len(known) == 0:
            d = _cycle_distance(reps, known)
            if d < MATCH_TOL:
                return name, d
    return "other_cycle", math.inf


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
    more is rejected without the rotation scan.  An accepted streak of
    CONFIRMATIONS consecutive n covers a test point, a multiple of
    CONFIRMATIONS, so while no streak is live the loop only records states
    between test points.  At a test point, the sorted last P_MAX peaks
    show whether any period can pass the peak test: if none lies in
    [peak - tol, peak + tol], rounded, every streak is 0; otherwise the
    per-period loop replays each n since the last settled one, whose
    streaks were all 0, so it can accept only at the test point, and then
    runs at each n while a streak is live.  The window hides no pair:
    rounding is monotone, so abs(peak - w) < tol in floats implies
    peak - tol < w < peak + tol exactly, and the float w lies between the
    two rounded bounds.

    The loop validates nothing: the kernel applies AngleTuple's range and
    sum checks to each float state, and the rotation scan is
    rotation_distance(q, path[n - p]) < tol on the floats (its least
    max-difference is below tol exactly when some rotation has all four
    differences below tol).  Both residuals are measured on Trajectory.path;
    AngleTuple validates only the period states the cycle report re-steps
    and, when read, Trajectory.states.
    """
    if max_iter < 1:
        raise QuadrangleError("max_iter must be >= 1")
    if not 0.0 < tol < math.inf:   # a NaN tol fails here too
        raise QuadrangleError("tol must be positive and finite")
    q = q0.as_tuple()
    path = [q]
    peaks = [max(q)]
    streak = [0] * (P_MAX + 1)
    live = False   # some streak is nonzero
    done = 0       # the last iteration settled; streak holds its streaks
    for n in range(1, max_iter + 1):
        q = _balanced_edge_floats(q)
        a, b, c, d = q
        ab = a if a > b else b
        cd = c if c > d else d
        peak = ab if ab > cd else cd
        path.append(q)
        peaks.append(peak)
        if not live:
            if n % CONFIRMATIONS:
                continue
            window = sorted(peaks[-1 - P_MAX:-1])
            i = bisect_left(window, peak - tol)
            if i == len(window) or window[i] > peak + tol:
                done = n   # no period can pass the peak test: every streak is 0
                continue
        for m in range(done + 1, n + 1):
            live = False
            for p in range(1, min(P_MAX, m) + 1):
                if (abs(peaks[m] - peaks[m - p]) < tol
                        and rotation_distance(path[m], path[m - p]) < tol):
                    streak[p] += 1
                    live = True
                    if streak[p] >= CONFIRMATIONS:
                        return _trajectory(path, p)
                else:
                    streak[p] = 0
        done = n
    return _trajectory(path, None)


def _trajectory(path, period):
    # iterate's API boundary: the public step re-steps the period states before
    # the last; a hypothesis property, not this, holds it bitwise equal to the kernel
    path = tuple(path)
    if period is None:
        return Trajectory(path, None)
    reps = tuple(step(AngleTuple(*t)) for t in path[-1 - period:-1])
    classification, match = _classify(reps)
    residual = rotation_distance(path[-1], path[-1 - period])
    cycle = CycleInfo(period, reps, classification, residual, match)
    return Trajectory(path, cycle)
