"""Convex quadrangle domain types and the balanced-edge construction.

All quadrangles have perimeter 2*pi, so edge lengths and interior angles
live on the same numeric scale.  Angles are labeled (alpha, beta, gamma,
delta) at vertices A, B, C, D in counter-clockwise order; edges
(x1, x2, x3, x4) are DA, AB, BC, CD.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import pi, sin

TWO_PI = 2.0 * pi

# sum-constraint tolerance; sits well above double accumulation error
SUM_TOL = 1e-9

# rounding slack at the degenerate boundary: a canonical pair sum may pass
# pi, and an endpoint edge pi, by this much; the sine of such a pair sum is
# then above -_EDGE_SLACK and _triangle_edges clamps it to 0
_EDGE_SLACK = 1e-12
_HI = pi + _EDGE_SLACK


class QuadrangleError(ValueError):
    """Invalid input, or an operation called outside its domain of validity."""


class _Validated:
    """Named-tuple base: as_tuple() is tuple(self), and _make (so _replace) calls cls."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_tuple(self):
        return tuple(self)


class AngleTuple(_Validated, namedtuple("AngleTuple", "alpha beta gamma delta")):
    """Interior angles (radians) at vertices A, B, C, D, counter-clockwise."""

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta):
        self = tuple.__new__(cls, (alpha, beta, gamma, delta))
        self.__post_init__()
        return self

    def __post_init__(self):
        a, b, g, d = self
        if not (0.0 < a < pi and 0.0 < b < pi and 0.0 < g < pi and 0.0 < d < pi
                and not abs(a + b + g + d - TWO_PI) > SUM_TOL):
            for name, v in zip(self._fields, self):
                if not (0.0 < v < pi):
                    raise QuadrangleError(f"{name} = {v} must lie strictly inside (0, pi)")
            raise QuadrangleError(f"angle sum {a + b + g + d} differs from 2*pi")


def _edge_error(x1, x2, x3, x4, degenerate):
    """EdgeTuple's message for the edges x1..x4, or None; the float kernel raises it too."""
    if not (0.0 <= x1 < _HI and 0.0 <= x2 < _HI and 0.0 <= x3 < _HI and 0.0 <= x4 < _HI
            if degenerate else 0.0 < x1 < pi and 0.0 < x2 < pi and 0.0 < x3 < pi and 0.0 < x4 < pi
            ) or abs(x1 + x2 + x3 + x4 - TWO_PI) > SUM_TOL:
        for i, v in enumerate((x1, x2, x3, x4), start=1):
            if not (0.0 <= v < _HI if degenerate else 0.0 < v < pi):
                return f"x{i} = {v} outside allowed edge range"
        return f"edge sum {x1 + x2 + x3 + x4} differs from 2*pi"


class EdgeTuple(_Validated, namedtuple("EdgeTuple", "x1 x2 x3 x4")):
    """Edge lengths of DA, AB, BC, CD; perimeter fixed at 2*pi.

    Zero (and pi) components only occur in degenerate endpoint tuples.
    ``degenerate=True`` is a constructor keyword that admits them; the
    record does not store it, so _make and _replace apply the strict rule.
    """

    __slots__ = ()

    def __new__(cls, x1, x2, x3, x4, degenerate=False):
        self = tuple.__new__(cls, (x1, x2, x3, x4))
        self.__post_init__(degenerate)
        return self

    def __post_init__(self, degenerate=False):
        if reason := _edge_error(*self, degenerate):
            raise QuadrangleError(reason)


class FeasibleSegment(namedtuple("FeasibleSegment", "base direction t_min t_max")):
    """The 1-parameter affine family of edge tuples closing a quadrangle.

    ``base`` is the segment midpoint; ``base + t*direction`` stays feasible
    for t in [t_min, t_max], and exactly one component vanishes at each end.
    """

    __slots__ = ()


class PlanarPolygon(namedtuple("PlanarPolygon", "vertices closure_gap")):
    """Four plane vertices realizing an (angles, edges) pair, plus closure gap."""

    __slots__ = ()


def rotate_labels(t, k):
    """Cyclic shift of a 4-tuple by k positions: (t[k], t[k+1], ...)."""
    seq = tuple(t)
    k %= 4
    return seq[k:] + seq[:k]


# relabeling groups as index tables: an entry (i, j, k, m) relabels q as
# (q[i], q[j], q[k], q[m]); ROTATIONS[k] is rotate_labels(q, k), and the
# last four DIHEDRAL entries rotate the mirror reflect_labels_angles(q)
IDENTITY = ((0, 1, 2, 3),)
ROTATIONS = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
DIHEDRAL = ROTATIONS + ((0, 3, 2, 1), (3, 2, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2))


def relabel_distance(p, q, group) -> float:
    """Minimum sup-norm distance between p and the relabelings of q in group.

    p and q are angle or edge tuples or float 4-tuples; group is an index
    table such as IDENTITY (plain sup norm), ROTATIONS or DIHEDRAL.
    """
    p0, p1, p2, p3 = p
    return min([max(abs(p0 - q[i]), abs(p1 - q[j]),
                    abs(p2 - q[k]), abs(p3 - q[m])) for i, j, k, m in group])


def reflect_labels_angles(q: AngleTuple) -> AngleTuple:
    """Mirror relabeling of angles: (alpha, beta, gamma, delta) -> (alpha, delta, gamma, beta)."""
    return AngleTuple(q.alpha, q.delta, q.gamma, q.beta)


def _canonical_shift(t):
    """First r in 0..3 whose shift (t[r], t[r+1], t[r+2], t[r+3]) of the float
    4-tuple t has delta + alpha and gamma + delta, tested in this order, at
    most pi + _EDGE_SLACK.  The rule's one definition, for every caller.
    """
    q0, q1, q2, q3 = t
    if q3 + q0 <= _HI and q2 + q3 <= _HI:
        return 0  # no rotation: (q0, q1, q2, q3)
    if q0 + q1 <= _HI and q3 + q0 <= _HI:
        return 1  # (q1, q2, q3, q0)
    if q1 + q2 <= _HI and q0 + q1 <= _HI:
        return 2  # (q2, q3, q0, q1)
    if q2 + q3 <= _HI and q1 + q2 <= _HI:
        return 3  # (q3, q0, q1, q2)
    raise QuadrangleError("no canonical labeling found; input angles inconsistent")


def canonicalize(q: AngleTuple) -> AngleTuple:
    """q rotated by the smallest cyclic shift with delta+alpha <= pi and gamma+delta <= pi.

    Returns the rotated AngleTuple; _canonical_shift gives the shift.  Such
    a shift exists when the angle sum S is at most about 2*pi + 2*_EDGE_SLACK
    (2e-12): the four adjacent pair sums satisfy s1+s3 = s2+s4 = S, so one of
    s1, s3 and one of s2, s4 is <= pi + _EDGE_SLACK, and two such sums meet
    at a vertex.  AngleTuple admits S up to SUM_TOL (1e-9) past 2*pi, and
    there the shift may not exist: README's 1.0,2.141592653839793,1.3,
    1.841592653839793 (S = 2*pi + 5e-10) raises QuadrangleError.
    """
    return AngleTuple(*rotate_labels(q, _canonical_shift(q)))


def _triangle_edges(phi, psi):
    """Edges of the perimeter-2*pi triangle with angles phi, psi, pi-phi-psi.

    Returns (2*pi*sin(phi)/D, 2*pi*sin(psi)/D, 2*pi*sin(phi+psi)/D) with D
    the sine sum: the edges opposite phi, psi and the third angle.  No
    argument checks; the Newton trial points of the cycle solver need it
    unvalidated.  _balanced_edge_floats repeats it inline; both read core.sin.
    """
    s_phi, s_psi, s_sum = sin(phi), sin(psi), sin(phi + psi)
    # degenerate boundary cases make sin() of an angle sum ~pi come out
    # as a tiny negative number; clamped before the sum, the edges add to 2*pi
    if -_EDGE_SLACK < s_sum < 0.0:
        s_sum = 0.0
    den = s_phi + s_psi + s_sum
    return TWO_PI * s_phi / den, TWO_PI * s_psi / den, TWO_PI * s_sum / den


def degenerate_edges_first(alpha, delta) -> EdgeTuple:
    """Edges of the degenerate (triangle) endpoint with x3 = 0.

    The triangle has angles alpha+delta, delta, pi-alpha-delta at the
    surviving vertices and perimeter 2*pi.
    """
    if not (0.0 < alpha < pi and 0.0 < delta < pi):
        raise QuadrangleError("alpha and delta must lie in (0, pi)")
    if alpha + delta > _HI:
        raise QuadrangleError("alpha + delta must not exceed pi")
    x4, x2, x1 = _triangle_edges(alpha, delta)
    return EdgeTuple(x1, x2, 0.0, x4, True)


def degenerate_edges_second(gamma, delta) -> EdgeTuple:
    """Edges of the degenerate (triangle) endpoint with x2 = 0."""
    if not (0.0 < gamma < pi and 0.0 < delta < pi):
        raise QuadrangleError("gamma and delta must lie in (0, pi)")
    if gamma + delta > _HI:
        raise QuadrangleError("gamma + delta must not exceed pi")
    x1, x3, x4 = _triangle_edges(gamma, delta)
    return EdgeTuple(x1, 0.0, x3, x4, True)


def balanced_edges(q: AngleTuple) -> EdgeTuple:
    """Componentwise average of the two degenerate endpoint edge tuples.

    Builds the endpoints in the canonical labeling and rotates the result
    back to the input labeling, so the construction is rotation-equivariant.
    """
    r = _canonical_shift(q)
    a, g, d = q[r], q[r - 2], q[r - 1]
    f1, f2, f3, f4 = degenerate_edges_first(a, d)
    s1, s2, s3, s4 = degenerate_edges_second(g, d)
    m1, m2, m3, m4 = (f1 + s1) / 2.0, (f2 + s2) / 2.0, (f3 + s3) / 2.0, (f4 + s4) / 2.0
    # the midpoint rotated back by r: (m1, m2, m3, m4)[-r:] + (...)[:-r]
    if r == 0:
        return EdgeTuple(m1, m2, m3, m4)
    if r == 1:
        return EdgeTuple(m4, m1, m2, m3)
    if r == 2:
        return EdgeTuple(m3, m4, m1, m2)
    return EdgeTuple(m2, m3, m4, m1)


def _balanced_edge_floats(q):
    """tuple(step(AngleTuple(*q))) on plain floats, for q a valid angle 4-tuple.

    Same operations in the same order as balanced_edges, so bitwise equal.  One pass
    after _canonical_shift: both endpoint triangles are _triangle_edges inline, from five
    sines (sin(d) serves both), and each is checked as soon as it is built, as step
    checks it.  A failed check raises _edge_error's message on the tuple step builds,
    whose 0.0 leaves the sum bitwise equal.
    """
    r = _canonical_shift(q)
    a, g, d = q[r], q[r - 2], q[r - 1]
    s_a, s_d, s_ad = sin(a), sin(d), sin(a + d)
    if -_EDGE_SLACK < s_ad < 0.0:
        s_ad = 0.0
    den = s_a + s_d + s_ad
    x4f, x2f, x1f = TWO_PI * s_a / den, TWO_PI * s_d / den, TWO_PI * s_ad / den
    if not (0.0 <= x1f < _HI and 0.0 <= x2f < _HI and 0.0 <= x4f < _HI
            and abs(x1f + x2f + x4f - TWO_PI) <= SUM_TOL):
        raise QuadrangleError(_edge_error(x1f, x2f, 0.0, x4f, True))
    s_g, s_gd = sin(g), sin(g + d)
    if -_EDGE_SLACK < s_gd < 0.0:
        s_gd = 0.0
    den = s_g + s_d + s_gd
    x1s, x3s, x4s = TWO_PI * s_g / den, TWO_PI * s_d / den, TWO_PI * s_gd / den
    if not (0.0 <= x1s < _HI and 0.0 <= x3s < _HI and 0.0 <= x4s < _HI
            and abs(x1s + x3s + x4s - TWO_PI) <= SUM_TOL):
        raise QuadrangleError(_edge_error(x1s, 0.0, x3s, x4s, True))
    # the midpoint, rotated back as balanced_edges' mid[-r:] + mid[:-r]
    m1, m2, m3, m4 = (x1f + x1s) / 2.0, (x2f + 0.0) / 2.0, (0.0 + x3s) / 2.0, (x4f + x4s) / 2.0
    if r == 0:
        o1, o2, o3, o4 = m1, m2, m3, m4
    elif r == 1:
        o1, o2, o3, o4 = m4, m1, m2, m3
    elif r == 2:
        o1, o2, o3, o4 = m3, m4, m1, m2
    else:
        o1, o2, o3, o4 = m2, m3, m4, m1
    if not (0.0 < o1 < pi and 0.0 < o2 < pi and 0.0 < o3 < pi
            and 0.0 < o4 < pi and abs(o1 + o2 + o3 + o4 - TWO_PI) <= SUM_TOL):
        raise QuadrangleError(_edge_error(o1, o2, o3, o4, False))
    return o1, o2, o3, o4


def _edge_headings(q: AngleTuple):
    # counter-clockwise walk D -> A -> B -> C -> D, initial heading 0;
    # each vertex turns left by the exterior angle pi - interior
    alpha, beta, gamma, _ = q
    h1 = 0.0
    h2 = h1 + pi - alpha
    h3 = h2 + pi - beta
    h4 = h3 + pi - gamma
    return (h1, h2, h3, h4)


def _det3(c0, c1, c2):
    """Determinant of the 3x3 matrix with columns c0, c1, c2."""
    return (c0[0] * (c1[1] * c2[2] - c1[2] * c2[1]) - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
            + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1]))


def balanced_edges_oracle(q: AngleTuple):
    """Independent check of the balanced construction via the closure system.

    Solves sum(x_i * u_i) = 0, sum(x_i) = 2*pi for its 1-dimensional affine
    solution set, clips to x_i >= 0, and returns the segment midpoint with
    the feasible segment itself.  The null direction is the closure matrix's
    unit vector of signed 3x3 cofactors; Cramer's rule, with the coordinate
    of largest null component set to 0, gives a particular solution.
    """
    cols = [(math.cos(h), math.sin(h), 1.0) for h in _edge_headings(q)]
    c0, c1, c2, c3 = cols
    # cofactor j is (-1)**j times the determinant of the columns other than j
    cof = [_det3(c1, c2, c3), -_det3(c0, c2, c3), _det3(c0, c1, c3), -_det3(c0, c1, c2)]
    # the cofactor norm is the product of the singular values; every closure
    # matrix has Frobenius norm sqrt(8), so one absolute bound fits them all
    norm = math.hypot(*cof)
    if norm < 1e-12:
        raise QuadrangleError("closure system is rank-deficient")
    size = [abs(c) for c in cof]
    k = size.index(max(size))   # the first largest |cofactor|
    r0, r1, r2 = cols[:k] + cols[k + 1:]
    det = -cof[k] if k & 1 else cof[k]   # _det3(r0, r1, r2), signed back from its cofactor
    b = (0.0, 0.0, TWO_PI)
    particular = [_det3(b, r1, r2) / det, _det3(r0, b, r2) / det, _det3(r0, r1, b) / det]
    particular.insert(k, 0.0)
    null = [c / norm for c in cof]

    t_lo, t_hi = -math.inf, math.inf
    for base_i, dir_i in zip(particular, null):
        if dir_i > 1e-14:
            t_lo = max(t_lo, -base_i / dir_i)
        elif dir_i < -1e-14:
            t_hi = min(t_hi, -base_i / dir_i)
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise QuadrangleError("feasible segment is empty or unbounded")

    t_mid = (t_lo + t_hi) / 2.0
    base = EdgeTuple(*(b + t_mid * d for b, d in zip(particular, null)))
    return base, FeasibleSegment(base, tuple(null), t_lo - t_mid, t_hi - t_mid)


def realize_polygon(q: AngleTuple, e: EdgeTuple) -> PlanarPolygon:
    """Walk the edge lengths with headings from the angles; gap is data, not an error."""
    headings = _edge_headings(q)
    x, y = 0.0, 0.0
    vertices = [(x, y)]
    for length, h in zip(e, headings):
        x += length * math.cos(h)
        y += length * math.sin(h)
        vertices.append((x, y))
    end = vertices.pop()
    gap = math.hypot(end[0] - vertices[0][0], end[1] - vertices[0][1])
    return PlanarPolygon(tuple(vertices), gap)
