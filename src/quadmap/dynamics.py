"""The edge-to-angle map on balanced quadrangles and its iteration.

The map sends a quadrangle with angles q to the quadrangle whose angles
numerically equal the balanced edge lengths of q.  Generic orbits converge
to an attracting 2-cycle; the square is a fixed point that repels generic
starts but attracts the parallelogram line, which reaches it in one step;
isosceles trapezoids form an invariant family with a 2-cycle that attracts
within the family only.  Across the family it is a saddle on a switching
surface: its states have two adjacent pair sums of exactly pi, where the
canonical shift switches, so f^2, relabeled back onto the cycle, has two smooth
pieces there.  Both have the moduli 1.16656... (transverse) and c'(a*) = 0.803
(in-family), and a float orbit stays on the cycle only because the kernel keeps
the trapezoid family invariant in its own arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

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
    rotate_labels,
)

P_MAX = 8           # longest period the detector scans for
CONFIRMATIONS = 3   # consecutive near-recurrences required to accept a cycle
CYCLE_TOL = 1e-12   # recurrence tolerance; looser accepts near-square transients
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


CycleInfo = namedtuple(
    "CycleInfo", "period representative_states classification residual match_distance")


class Trajectory(namedtuple("Trajectory", "path cycle")):
    """An orbit of the map and the cycle it settled on (a CycleInfo), if any.

    path holds the orbit as float 4-tuples, start first.  states holds the
    same orbit as AngleTuples, validated by AngleTuple when first read and
    then kept (no __slots__, so the cache has a __dict__).  residual is the
    detector's distance at exit, on path.
    """

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
    """One step of the map from any angle 4-tuple q: new angles are its balanced edge lengths."""
    return AngleTuple(*balanced_edges(q))


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
# so at most one matches within MATCH_TOL and the order changes no result.
# The generic 2-cycle is a state and its mirror relabeling; the trapezoid
# 2-cycle is the trapezoid state at A_STAR and its image under step, in the
# labeling the map produces
KNOWN_CYCLES = {
    "general_2cycle": (GENERAL_CYCLE_ANGLES, reflect_labels_angles(GENERAL_CYCLE_ANGLES)),
    "trapezoid_2cycle": (trapezoid_angles(A_STAR),
                         AngleTuple(*rotate_labels(trapezoid_edges(A_STAR), 3))),
    "square_fixed": (SQUARE,),
}


def _cycle_distance(reps, known):
    """Distance of detected cycle states to a known cycle, up to state order and relabeling."""
    n = len(known)
    return min(max(dihedral_distance(r, known[(i + shift) % n]) for i, r in enumerate(reps))
               for shift in range(n))


def _classify(reps):
    # a cycle detected at a multiple of its period matches it repeated
    for name, known in KNOWN_CYCLES.items():
        if len(reps) % len(known) == 0:
            d = _cycle_distance(reps, known)
            if d < MATCH_TOL:
                return name, d
    return "other_cycle", math.inf


def iterate(q0: AngleTuple, max_iter: int = 10000) -> Trajectory:
    """Iterate the map with cycle detection.

    A cycle of period p <= P_MAX is accepted after the rotation-quotient
    sup-norm between states n and n-p stays below tol = CYCLE_TOL for
    CONFIRMATIONS consecutive n.  Cycles are compared in the rotation
    quotient because a double step returns to a cyclic relabeling of the
    start, not to the same labeled tuple.  Non-convergence is reported via
    the classification, not an error.

    The largest angle is unchanged by relabeling and 1-Lipschitz in the sup
    norm, so |max p - max q| <= rotation_distance(p, q), in floats too
    (rounded subtraction is monotone): a pair whose peaks differ by tol or
    more fails without the rotation scan.  Any CONFIRMATIONS consecutive n
    hold a test point, a multiple of CONFIRMATIONS, so a period accepted at
    n recurs at the last test point.  The loop keeps the periods that recur
    there and, up to the next one, checks only those over the CONFIRMATIONS
    pairs ending at n, once all of them lie on the path.  A test point first
    compares the new peak with the last P_MAX: if none is within tol of it,
    no period recurs.

    AngleTuple validates the start, as step does.  The loop validates
    nothing: the kernel applies AngleTuple's range and sum checks to each
    float state, and the rotation scan runs on the floats (its least
    max-difference is below tol exactly when some rotation has all four
    differences below tol).  Both residuals are measured on
    Trajectory.path; AngleTuple validates only the period states the cycle
    report re-steps and, when read, Trajectory.states.
    """
    if max_iter < 1:
        raise QuadrangleError("max_iter must be >= 1")
    tol = CYCLE_TOL
    q = tuple(AngleTuple(*q0))
    path = [q]
    peaks = [max(q)]
    periods = ()   # the periods that recur at the last test point

    def recurs(m, p):
        return abs(peaks[m] - peaks[m - p]) < tol and rotation_distance(path[m], path[m - p]) < tol

    for n in range(1, max_iter + 1):
        q = _balanced_edge_floats(q)
        a, b, c, d = q
        ab = a if a > b else b
        cd = c if c > d else d
        peak = ab if ab > cd else cd
        path.append(q)
        peaks.append(peak)
        if n % CONFIRMATIONS:
            if not periods:
                continue
        else:
            for w in peaks[-1 - P_MAX:-1]:
                if abs(peak - w) < tol:
                    break
            else:
                periods = ()
                continue
            periods = [p for p in range(1, min(P_MAX, n) + 1) if recurs(n, p)]
        first = n - CONFIRMATIONS + 1
        for p in periods:
            if p <= first and all(recurs(m, p) for m in range(first, n + 1)):
                return _trajectory(path, p)
    return _trajectory(path, None)


def _trajectory(path, period):
    # iterate's API boundary: the public step checks and re-steps the period states
    # before the last; a hypothesis property, not this, holds it bitwise equal to the kernel
    path = tuple(path)
    if period is None:
        return Trajectory(path, None)
    reps = tuple(step(t) for t in path[-1 - period:-1])
    classification, match = _classify(reps)
    residual = rotation_distance(path[-1], path[-1 - period])
    cycle = CycleInfo(period, reps, classification, residual, match)
    return Trajectory(path, cycle)
