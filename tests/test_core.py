import ast
import inspect
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadmap.core as core
from quadmap.core import (
    IDENTITY,
    TWO_PI,
    AngleTuple,
    EdgeTuple,
    FeasibleSegment,
    QuadrangleError,
    balanced_edges,
    balanced_edges_oracle,
    canonicalize,
    degenerate_edges_first,
    degenerate_edges_second,
    realize_polygon,
    reflect_labels_angles,
    relabel_distance,
    rotate_labels,
)
from quadmap.dynamics import step
from quadmap.sampling import sample_angle_tuple
from quadmap.solvers import stability_report

from conftest import drawn_kernel_sines, patch_kernel_sines

PI = math.pi
SQUARE = (PI / 2, PI / 2, PI / 2, PI / 2)


class TestValidation:
    def test_square_is_valid(self):
        q = AngleTuple(*SQUARE)
        assert q.as_tuple() == SQUARE

    def test_boundary_angle_rejected(self):
        with pytest.raises(QuadrangleError, match="alpha = .* must lie strictly inside"):
            AngleTuple(PI, PI / 2, PI / 2, PI)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(QuadrangleError, match="angle sum 4.0 differs from 2"):
            AngleTuple(1.0, 1.0, 1.0, 1.0)

    def test_sum_1e_8_off_is_rejected(self):
        # SUM_TOL admits rounding, not a sum 1e-8 off 2*pi, on either side
        for off in (1e-8, -1e-8):
            values = (1.0, 2.0, 1.5, TWO_PI - 4.5 + off)
            with pytest.raises(QuadrangleError, match=r"angle sum \S+ differs from 2\*pi"):
                AngleTuple(*values)
            with pytest.raises(QuadrangleError, match=r"edge sum \S+ differs from 2\*pi"):
                EdgeTuple(*values)

    def test_no_silent_renormalization(self):
        # validation must reject rather than rescale
        with pytest.raises(QuadrangleError, match="angle sum 6.0 differs from 2"):
            AngleTuple(1.5, 1.5, 1.5, 1.5)

    def test_edge_tuple_zero_needs_degenerate_flag(self):
        with pytest.raises(QuadrangleError, match="x1 = 0.0 outside allowed edge range"):
            EdgeTuple(0.0, PI / 2, PI / 2, TWO_PI - PI)
        e = EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True)
        assert e.x1 == 0.0

    def test_degenerate_is_a_keyword_not_a_field(self):
        # an endpoint is its four edges: the keyword picks the range rule
        # the constructor applies, and the record does not keep it
        e = EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True)
        assert tuple(e) == (0.0, 2.0, 2.0, TWO_PI - 4.0) == e.as_tuple()
        assert e._fields == tuple(e._asdict()) == ("x1", "x2", "x3", "x4")
        assert not hasattr(e, "degenerate")
        x1, x2, x3, x4 = e
        assert e == EdgeTuple(x1, x2, x3, x4, degenerate=True)
        with pytest.raises(ValueError, match=r"unexpected field names: \['degenerate'\]"):
            EdgeTuple(*SQUARE)._replace(degenerate=True)

    # each endpoint case names the strict rule's message; the endpoint rule,
    # which _replace cannot apply, would name x2 or the sum, or accept
    @pytest.mark.parametrize("record, changes, reason", [
        (AngleTuple(*SQUARE), {"alpha": PI}, r"alpha = 3\.14\d* must lie strictly inside"),
        (AngleTuple(*SQUARE), {"alpha": 1.0}, r"angle sum \S+ differs from 2\*pi"),
        (EdgeTuple(*SQUARE), {"x1": 0.0, "x2": PI}, r"x1 = 0\.0 outside"),
        (EdgeTuple(*SQUARE), {"x3": -0.5, "x4": PI / 2 + 0.5}, r"x3 = -0\.5 outside"),
        (EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True), {"x2": PI + 1e-6},
         r"x1 = 0\.0 outside"),
        (EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True), {"x4": 1.0},
         r"x1 = 0\.0 outside"),
        (EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True), {"degenerate": False},
         r"x1 = 0\.0 outside"),
    ], ids=["angle-range", "angle-sum", "edge-zero", "edge-negative",
            "degenerate-range", "degenerate-sum", "flag-cleared"])
    def test_replace_validates_like_the_constructor(self, record, changes, reason):
        # _replace builds through _make, which the records route through the
        # constructor without the degenerate keyword: an endpoint's _replace
        # applies the strict rule, and a degenerate change is no field to set
        values = {**record._asdict(), **changes}
        with pytest.raises(QuadrangleError, match=reason) as built:
            type(record)(**values)
        with pytest.raises(QuadrangleError) as replaced:
            record._replace(**changes)
        assert str(replaced.value) == str(built.value)

    def test_make_validates_like_the_constructor(self):
        for values in ([1.0, 1.0, 1.0, 1.0], [PI, PI / 2, PI / 2, PI / 2]):
            with pytest.raises(QuadrangleError) as built:
                AngleTuple(*values)
            with pytest.raises(QuadrangleError) as made:
                AngleTuple._make(values)
            assert str(made.value) == str(built.value)

    @pytest.mark.parametrize("record, changes", [
        (AngleTuple(*SQUARE), {"alpha": PI / 2 - 0.25, "gamma": PI / 2 + 0.25}),
        (EdgeTuple(*SQUARE), {"x1": 1.0, "x3": PI - 1.0}),
        # an endpoint whose changes meet the strict rule
        (EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True), {"x1": 0.5, "x3": 1.5}),
    ], ids=["angles", "edges", "degenerate"])
    def test_valid_replace_keeps_the_class(self, record, changes):
        new = record._replace(**changes)
        assert type(new) is type(record)
        assert new == type(record)(**{**record._asdict(), **changes})

    def test_degenerate_tuple_rejected_as_angles(self):
        e = degenerate_edges_first(PI / 2, PI / 2)
        with pytest.raises(QuadrangleError, match="must lie strictly inside"):
            AngleTuple(*e)

    def test_constructors_name_the_fields(self):
        assert str(inspect.signature(AngleTuple)) == "(alpha, beta, gamma, delta)"
        assert str(inspect.signature(EdgeTuple)) == "(x1, x2, x3, x4, degenerate=False)"

    @pytest.mark.parametrize("build", [
        lambda: AngleTuple(*SQUARE[:3]),
        lambda: AngleTuple(*SQUARE, 0.0),
        lambda: AngleTuple._make(SQUARE[:3]),
        lambda: EdgeTuple(*SQUARE[:3]),
        lambda: EdgeTuple(*SQUARE, False, 0.0),
        lambda: EdgeTuple._make((*SQUARE, False, 0.0)),
    ], ids=["angles-3", "angles-5", "angles-make-3", "edges-3", "edges-6", "edges-make-6"])
    def test_wrong_arity_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("form", ["positional", "keyword", "make", "replace"])
    @pytest.mark.parametrize("record, keywords", [
        (AngleTuple(*SQUARE), {}),
        (EdgeTuple(*SQUARE), {}),
        (EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True), {"degenerate": True}),
    ], ids=["angles", "edges", "degenerate"])
    def test_every_form_validates_once(self, monkeypatch, record, keywords, form):
        # __post_init__ is the one validator, in the class's own __dict__
        # (the layer tracer wraps it there and forwards its arguments), and
        # each build runs it once; _make and _replace pass no keyword, so
        # an endpoint built through them fails the strict rule
        cls = type(record)
        validate = vars(cls)["__post_init__"]
        seen = []
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, *args: seen.append(self) or validate(self, *args))
        build = {
            "positional": lambda: cls(*record, **keywords),
            "keyword": lambda: cls(**record._asdict(), **keywords),
            "make": lambda: cls._make(record),
            "replace": lambda: record._replace(**{cls._fields[1]: record[1]}),
        }[form]
        if keywords and form in ("make", "replace"):
            with pytest.raises(QuadrangleError, match="x1 = 0.0 outside"):
                build()
        else:
            built = build()
            assert type(built) is cls and built == record
        assert seen == [record]


# the validators as they ran before they tested acceptance first, written
# out as the reference: each component's range check in order, then the
# sum check, building the message of the first that fails
def _reference_angle_error(values):
    for name, v in zip(("alpha", "beta", "gamma", "delta"), values):
        if not (0.0 < v < PI):
            return f"{name} = {v} must lie strictly inside (0, pi)"
    s = values[0] + values[1] + values[2] + values[3]
    if abs(s - TWO_PI) > core.SUM_TOL:
        return f"angle sum {s} differs from 2*pi"


def _reference_edge_error(values, degenerate):
    for i, v in enumerate(values, start=1):
        if not (0.0 <= v < core._HI if degenerate else 0.0 < v < PI):
            return f"x{i} = {v} outside allowed edge range"
    s = values[0] + values[1] + values[2] + values[3]
    if abs(s - TWO_PI) > core.SUM_TOL:
        return f"edge sum {s} differs from 2*pi"


def _ulp_neighbours(*xs):
    return [y for x in xs for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


# components on and next to every bound either validator tests
_BOUNDS = [-0.0, *_ulp_neighbours(0.0, PI, core._HI)]
_COMPONENTS = [
    # ordinary and non-finite floats
    st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, *_BOUNDS]),
              st.floats(-0.5, 3.7), st.floats(allow_nan=True, allow_infinity=True)),
    # in range, or on a bound, so that a closed sum leaves the rest valid
    st.one_of(st.floats(0.3, 2.0), st.sampled_from(_BOUNDS)),
]
# the default SUM_TOL, and 2**-30: a float sum near 2*pi can miss it by
# exactly the latter (a multiple of its ulp), never by exactly 1e-9
_SUM_TOLS = [core.SUM_TOL, 2.0 ** -30]


@st.composite
def _records(draw):
    """(sum_tol, four components), the fourth free or closing the sum on or
    next to 2*pi or 2*pi +- sum_tol."""
    sum_tol = draw(st.sampled_from(_SUM_TOLS))
    component = draw(st.sampled_from(_COMPONENTS))
    a, b, c = draw(component), draw(component), draw(component)
    if draw(st.booleans()):
        return sum_tol, (a, b, c, draw(component))
    target = draw(st.sampled_from(_ulp_neighbours(TWO_PI - sum_tol, TWO_PI, TWO_PI + sum_tol)))
    return sum_tol, (a, b, c, target - ((a + b) + c))


def _rejection(build, values):
    """The message of the QuadrangleError build(*values) raises, or None."""
    try:
        build(*values)
    except QuadrangleError as exc:
        return str(exc)


def _assert_records_match_the_message_loop(values):
    # the float kernel raises core._edge_error's message, so it is held too
    assert _rejection(AngleTuple, values) == _reference_angle_error(values)
    for degenerate in (False, True):
        reason = _reference_edge_error(values, degenerate)
        assert core._edge_error(*values, degenerate) == reason
        assert _rejection(lambda *v: EdgeTuple(*v, degenerate=degenerate), values) == reason


@settings(max_examples=300, deadline=None)
@given(record=_records())
def test_records_accept_exactly_what_the_message_loop_accepts(record):
    sum_tol, values = record
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SUM_TOL", sum_tol)
        _assert_records_match_the_message_loop(values)


@pytest.mark.parametrize("sum_tol", _SUM_TOLS)
def test_records_on_every_bound_match_the_message_loop(monkeypatch, sum_tol):
    # each bound value in each position, the other three closing the sum on
    # or next to 2*pi or 2*pi +- sum_tol: the cases a random draw rarely hits
    monkeypatch.setattr(core, "SUM_TOL", sum_tol)
    for target in _ulp_neighbours(TWO_PI - sum_tol, TWO_PI, TWO_PI + sum_tol):
        for v in _BOUNDS:
            rest = (target - v) / 3.0
            for i in range(4):
                values = [rest] * 4
                values[i] = v
                j = 2 if i == 3 else 3   # closes the sum
                values[j] = target - sum(x for k, x in enumerate(values) if k != j)
                _assert_records_match_the_message_loop(tuple(values))


class TestCanonicalize:
    def test_square_offset_zero(self):
        assert core._canonical_shift(AngleTuple(*SQUARE).as_tuple()) == 0

    def test_rotation_needed(self):
        q = AngleTuple(2.0, 2.0, 1.0, TWO_PI - 5.0)
        can = canonicalize(q)
        # oracle: enumerate all four rotations and check both pair sums
        expected = None
        for r in range(4):
            a, b, g, d = rotate_labels(q, r)
            if d + a <= PI + 1e-9 and g + d <= PI + 1e-9:
                expected = r
                break
        assert core._canonical_shift(q.as_tuple()) == expected == 3
        assert can.as_tuple() == rotate_labels(q, 3)

    def test_boundary_pair_sum(self):
        q = AngleTuple(1.0, PI - 1.0, PI - 1.0, 1.0)
        can = canonicalize(q)
        assert core._canonical_shift(q.as_tuple()) == 0
        assert can.gamma + can.delta == pytest.approx(PI)

    def test_canonical_invariants(self, random_angles):
        for q in random_angles:
            r = canonicalize(q)
            assert r.delta + r.alpha <= PI + 1e-9
            assert r.gamma + r.delta <= PI + 1e-9
            assert r.as_tuple() == rotate_labels(q, core._canonical_shift(q.as_tuple()))


class TestDegenerateEdges:
    def test_equilateral(self):
        e = degenerate_edges_first(PI / 3, PI / 3)
        assert e.as_tuple() == pytest.approx((2 * PI / 3, 2 * PI / 3, 0.0, 2 * PI / 3))
        e = degenerate_edges_second(PI / 3, PI / 3)
        assert e.as_tuple() == pytest.approx((2 * PI / 3, 0.0, 2 * PI / 3, 2 * PI / 3))

    def test_flat_limit(self):
        e = degenerate_edges_first(PI / 2, PI / 2)
        assert e.as_tuple() == pytest.approx((0.0, PI, 0.0, PI), abs=1e-12)
        e = degenerate_edges_second(PI - 1.0, 1.0)
        assert e.as_tuple() == pytest.approx((PI, 0.0, PI, 0.0), abs=1e-12)

    def test_law_of_sines_cross_check(self):
        # triangle with angles (pi/6, pi/3, pi/2) scaled to perimeter 2*pi
        angles = (PI / 6, PI / 3, PI / 2)
        k = TWO_PI / sum(math.sin(t) for t in angles)
        sides = sorted(k * math.sin(t) for t in angles)
        e = degenerate_edges_first(PI / 2, PI / 3)
        got = sorted(x for x in e.as_tuple() if x > 0)
        assert got == pytest.approx(sides, abs=1e-12)
        assert e.as_tuple() == pytest.approx((1.32779, 2.29981, 0.0, 2.65559), abs=1e-5)

    def test_mirror_pair(self):
        a = degenerate_edges_first(PI / 2, PI / 3).as_tuple()
        b = degenerate_edges_second(PI / 2, PI / 3).as_tuple()
        assert b == pytest.approx((a[3], 0.0, a[1], a[0]), abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(QuadrangleError, match=r"alpha \+ delta must not exceed pi"):
            degenerate_edges_first(2.0, 2.0)
        with pytest.raises(QuadrangleError, match=r"gamma \+ delta must not exceed pi"):
            degenerate_edges_second(2.0, 2.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, PI, 4.0, math.nan])
    def test_arguments_outside_zero_pi_are_domain_errors(self, bad):
        for first, second in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(QuadrangleError, match=r"alpha and delta must lie in \(0, pi\)"):
                degenerate_edges_first(first, second)
            with pytest.raises(QuadrangleError, match=r"gamma and delta must lie in \(0, pi\)"):
                degenerate_edges_second(first, second)

    @pytest.mark.parametrize("excess", [1e-10, 2e-9])
    @pytest.mark.parametrize("endpoint", [degenerate_edges_first, degenerate_edges_second])
    def test_pair_sum_past_pi_is_domain_error(self, endpoint, excess):
        # the guard admits what the canonical shift admits, 1e-12 past pi;
        # further out the sine clamp cannot repair the endpoint edges
        with pytest.raises(QuadrangleError, match="must not exceed pi"):
            endpoint(PI / 2 + excess, PI / 2)

    @pytest.mark.parametrize("endpoint", [degenerate_edges_first, degenerate_edges_second])
    def test_pair_sum_within_slack_builds(self, endpoint):
        e = endpoint(PI / 2 + 5e-13, PI / 2)
        assert sum(e.as_tuple()) == pytest.approx(TWO_PI, abs=1e-12)

    def test_perimeter(self):
        e = degenerate_edges_first(0.7, 1.9)
        assert sum(e.as_tuple()) == pytest.approx(TWO_PI, abs=1e-9)


class TestBalancedEdges:
    def test_square(self):
        e = balanced_edges(AngleTuple(*SQUARE))
        assert relabel_distance(e, EdgeTuple(*SQUARE), IDENTITY) < 1e-12

    def test_trapezoid_closed_form(self):
        # two pairs of equal angles with base angle pi/3
        q = AngleTuple(PI / 3, 2 * PI / 3, 2 * PI / 3, PI / 3)
        e = balanced_edges(q)
        assert e.as_tuple() == pytest.approx((5 * PI / 6, PI / 3, PI / 2, PI / 3))

    def test_mirror_cycle_multiset(self):
        q = AngleTuple(
            1.54819305248669225152933985324,
            1.82405188512759300508614890573,
            1.41515953031350909799654144250,
            1.49578083925179212231325656509,
        )
        e = balanced_edges(q)
        assert sorted(e.as_tuple()) == pytest.approx(sorted(q.as_tuple()), abs=1e-9)

    def test_sum_conservation(self, random_angles):
        for q in random_angles:
            assert abs(sum(balanced_edges(q).as_tuple()) - TWO_PI) <= 1e-9

    def test_canonical_adjacent_edges_bounded(self, random_angles):
        for q in random_angles:
            e = balanced_edges(canonicalize(q))
            assert e.x2 <= PI / 2 + 1e-12
            assert e.x3 <= PI / 2 + 1e-12

    def test_at_most_two_long_edges(self, random_angles):
        for q in random_angles:
            longs = sum(1 for x in balanced_edges(q).as_tuple() if x > PI / 2)
            assert longs <= 2

    def test_rotation_equivariance(self, random_angles):
        for q in random_angles[:50]:
            e = balanced_edges(q)
            for k in range(4):
                rot = balanced_edges(AngleTuple(*rotate_labels(q, k)))
                rotated = EdgeTuple(*rotate_labels(e, k))
                assert relabel_distance(rot, rotated, IDENTITY) <= 1e-10

    def test_reflection_equivariance(self, random_angles):
        for q in random_angles[:50]:
            lhs = balanced_edges(reflect_labels_angles(q))
            e = balanced_edges(q)
            rhs = EdgeTuple(e.x2, e.x1, e.x4, e.x3)   # the edge mirror of the angle mirror
            assert relabel_distance(lhs, rhs, IDENTITY) <= 1e-10


def _reference_shift(t):
    # the canonical-shift rule as a loop over rotated copies: the first r
    # whose rotated d + a and g + d are both at most pi + _EDGE_SLACK
    for r in range(4):
        a, _, g, d = t[r:] + t[:r]
        if d + a <= PI + core._EDGE_SLACK and g + d <= PI + core._EDGE_SLACK:
            return r
    raise QuadrangleError("no canonical labeling found; input angles inconsistent")


def _outcome(fn, t):
    """fn(t), or the message of the QuadrangleError it raises."""
    try:
        return fn(t)
    except QuadrangleError as exc:
        return f"error: {exc}"


# the paths that used to take a plain tuple unchecked: step and balanced_edges
# returned a state for the angle sum 4, canonicalize named beta for the bad
# delta, stability_report raised AttributeError and the oracle returned a segment
@pytest.mark.parametrize("fn", [step, balanced_edges, canonicalize, balanced_edges_oracle,
                                stability_report], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("t, message", [
    ((1.0, 1.0, 1.0, 1.0), "angle sum 4.0 differs from 2*pi"),
    ((0.0, 2.0, 1.0, 3.2831853071795862), "alpha = 0.0 must lie strictly inside (0, pi)"),
], ids=["sum", "range"])
def test_plain_tuples_are_checked_as_angle_tuples(fn, t, message):
    with pytest.raises(QuadrangleError) as raised:
        fn(t)
    assert str(raised.value) == message


@settings(max_examples=300, deadline=None)
@given(record=_records())
def test_a_plain_tuple_has_the_edges_of_its_angle_tuple(record):
    # balanced_edges(t) raises AngleTuple(*t)'s message, or gives what the
    # AngleTuple gives: the same edges or the same rejection
    _, t = record
    assert _outcome(balanced_edges, t) == _outcome(lambda t: balanced_edges(AngleTuple(*t)), t)


def _partner(x, target):
    """The double y next to target - x with x + y == target in floats.

    Reachable when y lies in a finer binade than x, as for x in [2, 4), y < 2.
    """
    y = target - x
    while x + y < target:
        y = math.nextafter(y, math.inf)
    while x + y > target:
        y = math.nextafter(y, -math.inf)
    assert x + y == target
    return y


# with the other two sines of a triangle 0.5, a third sine s of this value
# gives the edge opposite it, 2*pi*s/(s + 1) with the sines added in either
# order the kernel adds them, exactly pi + _EDGE_SLACK
_AT_BOUND = 1.0000000000006368
_OUTSIDE = "outside allowed edge range"


class TestBalancedEdgeFloats:
    """The float kernel behind iterate against the validated public step."""

    @pytest.mark.parametrize("margin", [0.05, 1e-3, 0.0])
    def test_bitwise_equal_to_step(self, rng, margin):
        for _ in range(20000):
            q = sample_angle_tuple(rng, margin=margin)
            assert core._balanced_edge_floats(q.as_tuple()) == step(q).as_tuple()

    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11])
    def test_steps_next_to_the_square(self, eps):
        # shift 0 has d + a = pi + 6.7e-10 at eps = 1e-9; taken as canonical,
        # its sine is past the clamp and x1 comes out about -2.09 * eps
        q = AngleTuple(PI / 2 + eps, PI / 2 - eps, PI / 2 + eps / 3,
                       TWO_PI - (3 * PI / 2 + eps / 3))
        assert core._balanced_edge_floats(q.as_tuple()) == step(q).as_tuple()

    def test_states_near_the_square_step(self, rng):
        # log-uniform distances 1e-13...1e-3 from the square; a clamped
        # endpoint must still sum to 2*pi, or its long edges overshoot pi
        for _ in range(2000):
            s = 10.0 ** rng.uniform(-13.0, -3.0)
            a, b, g = (float(PI / 2 + s * u) for u in rng.uniform(-1.0, 1.0, 3))
            q = AngleTuple(a, b, g, TWO_PI - (a + b + g))
            assert core._balanced_edge_floats(q.as_tuple()) == step(q).as_tuple()

    def test_unrolled_shift_matches_the_loop(self, rng):
        states = []
        for margin in (0.05, 1e-3, 0.0):
            for _ in range(1000):
                t = sample_angle_tuple(rng, margin=margin).as_tuple()
                states += [rotate_labels(t, k) for k in range(4)]
        # q0 + q1 at pi + _EDGE_SLACK exactly, or one double above; an angle
        # sum off 2*pi by 5e-10, inside SUM_TOL, puts q2 + q3 on either side
        # of that bound too, so in some rotation every branch is decided by
        # a pair sum at its bound
        hi = PI + core._EDGE_SLACK
        for target in (hi, math.nextafter(hi, math.inf)):
            for q0 in (2.0, 2.2, 2.4, 2.7):
                q1 = _partner(q0, target)
                for q2 in (0.6, 1.3, 2.0):
                    for excess in (-5e-10, 0.0, 5e-10):
                        q3 = TWO_PI + excess - target - q2
                        if 0.0 < q3 < PI:
                            t = (q0, q1, q2, q3)
                            states += [rotate_labels(u, k) for u in (t, t[::-1]) for k in range(4)]
        # tuples that are no angle states reach the error in both
        bad = [(3.0, 3.0, 3.0, 3.0), (math.nan,) * 4]
        shifts = [_outcome(core._canonical_shift, t) for t in states + bad]
        assert shifts == [_outcome(_reference_shift, t) for t in states + bad]
        assert set(range(4)) <= set(shifts)
        assert shifts[-1] == shifts[-2] == "error: no canonical labeling found; " \
            "input angles inconsistent"
        for t in states:
            try:
                image = step(AngleTuple(*t)).as_tuple()
            except QuadrangleError as exc:
                # some boundary states, valid angles among them, fail step's
                # endpoint checks; the kernel must reject them too, with
                # step's message
                with pytest.raises(QuadrangleError) as kernel:
                    core._balanced_edge_floats(t)
                assert str(kernel.value) == str(exc)
            else:
                assert core._balanced_edge_floats(t) == image

    def test_no_canonical_shift_is_domain_error(self):
        with pytest.raises(QuadrangleError, match="no canonical labeling"):
            core._balanced_edge_floats((3.0, 3.0, 3.0, 3.0))

    # sines that are binary fractions, d's a power of two, make each edge,
    # and so each number a message names, exact on any libm
    @pytest.mark.parametrize("sines, sum_tol, reason", [
        # the x3 = 0 endpoint's x1 is 2*pi * 1.0 / 1.5, above pi
        ({"a": 0.25, "d": 0.25, "a+d": 1.0}, core.SUM_TOL, f"x1 = {TWO_PI / 1.5!r} {_OUTSIDE}"),
        # the x3 = 0 endpoint's x1 lands on its excluded bound pi + _EDGE_SLACK
        ({"a": 0.5, "d": 0.5, "a+d": _AT_BOUND}, core.SUM_TOL, f"x1 = {core._HI!r} {_OUTSIDE}"),
        # with no sum tolerance, the x3 = 0 endpoint misses 2*pi by rounding
        ({"a": 0.4, "d": 0.25, "a+d": 0.4, "g": 0.5, "g+d": 0.25}, 0.0, "edge sum"),
        # valid endpoints (pi, pi/2, 0, pi/2) and (pi, 0, pi/2, pi/2), both
        # exact, average to an image whose x1 is pi; rotated back, it is x2
        ({"a": 0.25, "d": 0.25, "a+d": 0.5, "g": 0.5, "g+d": 0.25}, core.SUM_TOL,
         f"x2 = {PI!r} {_OUTSIDE}"),
    ], ids=["endpoint_range", "endpoint_bound", "endpoint_sum", "image_range"])
    def test_endpoint_and_image_checks_match_step(self, monkeypatch, sines, sum_tol, reason):
        # corrupted sines feed both paths the same endpoints; the float
        # kernel must reject them where step's validated types do, with
        # step's message
        _assert_one_rejection(monkeypatch, sines, sum_tol, reason)

    @pytest.mark.parametrize("sines, sum_tol, reason", [
        ({"a": 0.25, "d": 0.25, "a+d": 0.5, "g": -0.25, "g+d": 1.0}, core.SUM_TOL,
         f"x1 = {-PI / 2!r} {_OUTSIDE}"),
        ({"a": 0.5, "d": 0.5, "a+d": 0.5, "g": _AT_BOUND, "g+d": 0.5}, core.SUM_TOL,
         f"x1 = {core._HI!r} {_OUTSIDE}"),
        # the x3 = 0 endpoint (pi, pi/2, 0, pi/2) sums to 2*pi exactly, the
        # x2 = 0 one misses it by rounding
        ({"a": 0.25, "d": 0.25, "a+d": 0.5, "g": 0.4, "g+d": 0.4}, 0.0, "edge sum"),
    ], ids=["endpoint_range", "endpoint_bound", "endpoint_sum"])
    def test_second_endpoint_checks_match_step(self, monkeypatch, sines, sum_tol, reason):
        # both paths build and check the x3 = 0 endpoint first; corrupting
        # only what the x2 = 0 endpoint reads leaves the first valid, so the
        # second endpoint's own checks must reject the corrupted edges
        _assert_one_rejection(monkeypatch, sines, sum_tol, reason)


# a state whose five kernel sine arguments are distinct doubles
_T = AngleTuple(1.0, 2.0, 1.6, TWO_PI - 4.6)


def _assert_one_rejection(monkeypatch, sines, sum_tol, reason):
    """step(_T) and the float kernel, taking the sines named by role and
    with core.SUM_TOL set to sum_tol, raise one message: reason, or for
    reason "edge sum" an edge sum that misses 2*pi."""
    patch_kernel_sines(monkeypatch, _T, sines)
    monkeypatch.setattr(core, "SUM_TOL", sum_tol)
    with pytest.raises(QuadrangleError) as by_step:
        step(_T)
    with pytest.raises(QuadrangleError) as by_kernel:
        core._balanced_edge_floats(_T.as_tuple())
    message = str(by_step.value)
    assert str(by_kernel.value) == message
    if reason == "edge sum":
        assert float(re.fullmatch(r"edge sum (\S+) differs from 2\*pi", message)[1]) != TWO_PI
    else:
        assert message == reason


# what a drawn sine is: the real sine times a factor (1, scaled, negated,
# 0, NaN or inf), plus an offset of 0 or one that lands a near-zero sine
# inside or past the clamp below 0
_SINE_ENTRIES = st.tuples(
    st.one_of(st.sampled_from([1.0, -1.0, 0.0, math.nan, math.inf, -math.inf]),
              st.floats(-3.0, 3.0)),
    st.sampled_from([0.0, 0.0, 0.0, -0.5 * core._EDGE_SLACK, -2.0 * core._EDGE_SLACK]),
)


# valid states whose canonical shifts cover 0..3, and a thin trapezoid that
# both paths reject with the real sines
_STATES = [AngleTuple(*rotate_labels(t, k)) for k in range(4) for t in (
    (1.2, 2.1, 1.5, 1.4831853071795865), SQUARE,
    (0.0001, 3.1414926535897933, 3.1414926535897933, 0.0001))]


@settings(max_examples=1000, deadline=None)
@given(q=st.sampled_from(_STATES), entries=st.lists(_SINE_ENTRIES, min_size=5, max_size=5),
       sum_tol=st.sampled_from([core.SUM_TOL, 0.0]))
def test_step_and_kernel_give_one_answer(q, entries, sum_tol):
    # both paths take the same drawn sines, one per distinct argument (the
    # square's roles share two); a zero SUM_TOL reaches the sum checks,
    # which sines alone cannot, since each endpoint is normalised by its own
    # sine sum.  step and the float kernel must return bitwise-equal images
    # or raise the same message
    def outcome(fn, arg):
        try:
            return [v.hex() for v in fn(arg)]
        except (QuadrangleError, ZeroDivisionError) as exc:   # a zero sine sum
            return f"{type(exc).__name__}: {exc}"

    with pytest.MonkeyPatch.context() as mp:
        patch_kernel_sines(mp, q, drawn_kernel_sines(q, entries))
        mp.setattr(core, "SUM_TOL", sum_tol)
        by_step = outcome(lambda s: step(s).as_tuple(), q)
        by_kernel = outcome(core._balanced_edge_floats, q.as_tuple())
    assert by_kernel == by_step


def _set_names(node):
    """The dotted names node sets, by setattr(obj, "name", ...),
    setattr("module.name", ...) or assignment."""
    if isinstance(node, ast.Call) and "setattr" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        args = node.args
        if args and isinstance(args[0], ast.Constant):
            return [str(args[0].value)]
        if len(args) > 1 and isinstance(args[1], ast.Constant):
            return [f"{ast.unparse(args[0])}.{args[1].value}"]
    return [ast.unparse(t) for t in getattr(node, "targets", ())]


def _core_names_set(source):
    return {m[2] for node in ast.walk(ast.parse(source)) for name in _set_names(node)
            if (m := re.fullmatch(r"(quadmap\.)?core\.(\w+)", name))}


_MAP_SEAMS = {"sin", "cos", "degenerate_edges_first", "degenerate_edges_second"}


def test_only_conftest_patches_core_trigonometry():
    # tests name the kernel's sines by role through conftest's seam, the one
    # place that knows how the kernel takes them; a test that patches
    # core.sin or core.cos itself pins that mechanism again.  Likewise one
    # test pins that the cycle report reads the endpoint constructors behind
    # step, and every other test reads the map through its outcomes
    for source in ('mp.setattr(core, "cos", f)', 'setattr("quadmap.core.sin", f)',
                   "quadmap.core.sin = f", 'mp.setattr(core, "degenerate_edges_second", f)'):
        assert _core_names_set(source) & _MAP_SEAMS
    assert _core_names_set('mp.setattr(core, "SUM_TOL", 0.0)') == {"SUM_TOL"}
    patching = {(path.name, name) for path in Path(__file__).parent.glob("*.py")
                for name in _core_names_set(path.read_text()) & _MAP_SEAMS}
    assert patching == {("conftest.py", "sin"), ("test_dynamics.py", "degenerate_edges_first")}


class TestOracle:
    def test_square_segment(self):
        seg = balanced_edges_oracle(AngleTuple(*SQUARE))
        # the segment alone: its base is the midpoint
        assert type(seg) is FeasibleSegment
        assert relabel_distance(seg.base, EdgeTuple(*SQUARE), IDENTITY) < 1e-10
        assert seg.t_max - seg.t_min > 0

    def test_rank_bound_lies_between_two_thin_parallelograms(self):
        # the parallelogram (t, pi - t, t, pi - t) has cofactor norm 4.0e-8 at
        # t = 1e-8, where the oracle still returns the square's edges (step
        # rejects that state, ROADMAP item 4), and is rank-deficient at 1e-13
        def thin(t):
            return (t, PI - t, t, PI - t)

        seg = balanced_edges_oracle(thin(1e-8))
        assert relabel_distance(seg.base, EdgeTuple(*SQUARE), IDENTITY) < 1e-15
        with pytest.raises(QuadrangleError, match="closure system is rank-deficient"):
            balanced_edges_oracle(thin(1e-13))

    def test_empty_segment_is_a_domain_error(self):
        # a valid state whose angle sum is 2*pi + 7.8e-10, inside SUM_TOL;
        # the oracle ignores delta, and the delta that alpha, beta and gamma
        # imply, 2*pi - alpha - beta - gamma, is -7.8e-10.  step takes it
        q = AngleTuple(2.3768932878348226, 2.355966919972474, 1.5503251001539158,
                       1.00115794730945e-14)
        with pytest.raises(QuadrangleError, match="feasible segment is empty or unbounded"):
            balanced_edges_oracle(q)
        assert type(balanced_edges(q)) is EdgeTuple

    def test_midpoint_matches_formula(self, random_angles):
        for q in random_angles:
            mid = balanced_edges_oracle(q).base
            assert relabel_distance(mid, balanced_edges(q), IDENTITY) <= 1e-10

    def test_segment_endpoints_are_triangles(self, random_angles):
        for q in random_angles[:50]:
            seg = balanced_edges_oracle(q)
            can = canonicalize(q)
            expected = {
                tuple(round(v, 8) for v in sorted(
                    degenerate_edges_first(can.alpha, can.delta).as_tuple())),
                tuple(round(v, 8) for v in sorted(
                    degenerate_edges_second(can.gamma, can.delta).as_tuple())),
            }
            got = set()
            for t in (seg.t_min, seg.t_max):
                pt = [b + t * d for b, d in zip(seg.base.as_tuple(), seg.direction)]
                zeros = [x for x in pt if abs(x) <= 1e-10]
                assert len(zeros) == 1
                got.add(tuple(round(max(v, 0.0), 8) for v in sorted(pt)))
            assert got == expected

    def test_direction_sums_to_zero(self, random_angles):
        for q in random_angles[:20]:
            seg = balanced_edges_oracle(q)
            assert abs(sum(seg.direction)) < 1e-10

    def test_oracle_takes_seven_determinants(self, monkeypatch, random_angles):
        # four cofactors and three Cramer numerators; the denominator is a cofactor
        det3, calls = core._det3, []
        monkeypatch.setattr(core, "_det3", lambda *cols: calls.append(cols) or det3(*cols))
        for q in [AngleTuple(*SQUARE)] + random_angles[:20]:
            calls.clear()
            balanced_edges_oracle(q)
            assert len(calls) == 7

    def test_oracle_is_bitwise_the_slicing_formula(self):
        # the reference writes the oracle's arithmetic with slices and splats:
        # cofactor j from the columns other than j, signed by (-1) ** j, and
        # the first largest |cofactor| by a key
        def reference(q):
            h, headings = 0.0, [0.0]
            for angle in q[:3]:
                h = h + PI - angle
                headings.append(h)
            cols = [(math.cos(h), math.sin(h), 1.0) for h in headings]
            cof = [(-1) ** j * core._det3(*cols[:j], *cols[j + 1:]) for j in range(4)]
            norm = math.hypot(*cof)
            k = max(range(4), key=lambda j: abs(cof[j]))
            rest = cols[:k] + cols[k + 1:]
            det = (-1) ** k * cof[k]
            x = [core._det3(*rest[:i], (0.0, 0.0, TWO_PI), *rest[i + 1:]) / det
                 for i in range(3)]
            particular = x[:k] + [0.0] + x[k:]
            null = [c / norm for c in cof]
            t_lo, t_hi = -math.inf, math.inf
            for base_i, dir_i in zip(particular, null):
                if dir_i > 1e-14:
                    t_lo = max(t_lo, -base_i / dir_i)
                elif dir_i < -1e-14:
                    t_hi = min(t_hi, -base_i / dir_i)
            t_mid = (t_lo + t_hi) / 2.0
            base = [b + t_mid * d for b, d in zip(particular, null)]
            return base + null + [t_lo - t_mid, t_hi - t_mid]

        rng = random.Random(7)
        for margin in (0.05, 1e-3, 0.0):
            for _ in range(1000):
                q = sample_angle_tuple(rng, margin)
                seg = balanced_edges_oracle(q)
                got = [*seg.base, *seg.direction, seg.t_min, seg.t_max]
                assert [v.hex() for v in got] == [v.hex() for v in reference(q)], q


class TestRealizePolygon:
    def test_square_closes(self):
        q = AngleTuple(*SQUARE)
        poly = realize_polygon(q, EdgeTuple(*SQUARE))
        assert poly.closure_gap < 1e-12
        assert len(poly.vertices) == 4

    def test_balanced_closes(self, random_angles):
        for q in random_angles:
            assert realize_polygon(q, balanced_edges(q)).closure_gap <= 1e-9

    def test_perturbed_edges_do_not_close(self, random_angles):
        for q in random_angles[:20]:
            e = balanced_edges(q).as_tuple()
            perturbed = EdgeTuple(e[0] + 0.1, e[1] - 0.1, e[2], e[3])
            assert realize_polygon(q, perturbed).closure_gap > 1e-3

    def test_reproduces_edge_lengths(self, random_angles):
        q = random_angles[0]
        e = balanced_edges(q)
        poly = realize_polygon(q, e)
        verts = list(poly.vertices) + [poly.vertices[0]]
        for i, (p0, p1) in enumerate(zip(verts, verts[1:])):
            length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
            assert length == pytest.approx(e.as_tuple()[i], abs=1e-9)


class TestRelabelings:
    def test_rotate(self):
        assert rotate_labels((1, 2, 3, 4), 1) == (2, 3, 4, 1)
        assert rotate_labels((1, 2, 3, 4), -1) == (4, 1, 2, 3)
        assert rotate_labels((1, 2, 3, 4), 4) == (1, 2, 3, 4)

    def test_reflect_square(self):
        q = AngleTuple(*SQUARE)
        assert reflect_labels_angles(q) == q

    def test_reflect_is_involution(self, random_angles):
        for q in random_angles[:20]:
            assert reflect_labels_angles(reflect_labels_angles(q)) == q


@given(
    phi=st.floats(min_value=1e-4, max_value=PI - 2e-4),
    frac=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_prop1_fractions_below_half(phi, frac):
    # the strict bound only degrades to rounding-level equality in the
    # degenerate limits psi -> 0 and psi -> pi - phi, kept away from here
    psi = frac * (PI - phi)
    # the edges opposite phi and the third angle, as fractions of the perimeter
    f1, f2 = (e / TWO_PI for e in core._triangle_edges(phi, psi)[0::2])
    assert f1 < 0.5
    assert f2 < 0.5


def test_prop1_fraction_values():
    f1, f2 = (e / TWO_PI for e in core._triangle_edges(PI / 3, PI / 3)[0::2])
    assert f1 == pytest.approx(1.0 / 3.0)
    assert f2 == pytest.approx(1.0 / 3.0)
