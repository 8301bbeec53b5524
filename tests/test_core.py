import math

import pytest
from hypothesis import given, settings, strategies as st

import quadmap.core as core
from quadmap.core import (
    IDENTITY,
    TWO_PI,
    AngleTuple,
    EdgeTuple,
    QuadrangleError,
    balanced_edges,
    balanced_edges_oracle,
    canonicalize,
    degenerate_edges_first,
    degenerate_edges_second,
    prop1_fractions,
    realize_polygon,
    reflect_labels_angles,
    reflect_labels_edges,
    relabel_distance,
    rotate_labels,
    validate_angles,
)
from quadmap.dynamics import step
from quadmap.sampling import sample_angle_tuple

PI = math.pi
SQUARE = (PI / 2, PI / 2, PI / 2, PI / 2)


class TestValidation:
    def test_square_is_valid(self):
        q = validate_angles(*SQUARE)
        assert q.as_tuple() == SQUARE

    def test_boundary_angle_rejected(self):
        with pytest.raises(QuadrangleError, match="alpha = .* must lie strictly inside"):
            validate_angles(PI, PI / 2, PI / 2, PI)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(QuadrangleError, match="angle sum 4.0 differs from 2"):
            validate_angles(1.0, 1.0, 1.0, 1.0)

    def test_no_silent_renormalization(self):
        # validation must reject rather than rescale
        with pytest.raises(QuadrangleError, match="angle sum 6.0 differs from 2"):
            validate_angles(1.5, 1.5, 1.5, 1.5)

    def test_edge_tuple_zero_needs_degenerate_flag(self):
        with pytest.raises(QuadrangleError, match="x1 = 0.0 outside allowed edge range"):
            EdgeTuple(0.0, PI / 2, PI / 2, TWO_PI - PI)
        e = EdgeTuple(0.0, 2.0, 2.0, TWO_PI - 4.0, degenerate=True)
        assert e.x1 == 0.0

    def test_degenerate_tuple_rejected_as_angles(self):
        e = degenerate_edges_first(PI / 2, PI / 2)
        with pytest.raises(QuadrangleError, match="must lie strictly inside"):
            validate_angles(*e.as_tuple())


class TestCanonicalize:
    def test_square_offset_zero(self):
        assert canonicalize(validate_angles(*SQUARE)).rotation_offset == 0

    def test_rotation_needed(self):
        q = validate_angles(2.0, 2.0, 1.0, TWO_PI - 5.0)
        can = canonicalize(q)
        # oracle: enumerate all four rotations and check both pair sums
        expected = None
        for r in range(4):
            a, b, g, d = rotate_labels(q, r)
            if d + a <= PI + 1e-9 and g + d <= PI + 1e-9:
                expected = r
                break
        assert can.rotation_offset == expected == 3
        assert can.rotated.as_tuple() == rotate_labels(q, 3)

    def test_boundary_pair_sum(self):
        q = validate_angles(1.0, PI - 1.0, PI - 1.0, 1.0)
        can = canonicalize(q)
        assert can.rotation_offset == 0
        assert can.rotated.gamma + can.rotated.delta == pytest.approx(PI)

    def test_canonical_invariants(self, random_angles):
        for q in random_angles:
            can = canonicalize(q)
            r = can.rotated
            assert r.delta + r.alpha <= PI + 1e-9
            assert r.gamma + r.delta <= PI + 1e-9
            assert r.as_tuple() == rotate_labels(q, can.rotation_offset)


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
        e = balanced_edges(validate_angles(*SQUARE))
        assert relabel_distance(e, EdgeTuple(*SQUARE), IDENTITY) < 1e-12

    def test_trapezoid_closed_form(self):
        # two pairs of equal angles with base angle pi/3
        q = validate_angles(PI / 3, 2 * PI / 3, 2 * PI / 3, PI / 3)
        e = balanced_edges(q)
        assert e.as_tuple() == pytest.approx((5 * PI / 6, PI / 3, PI / 2, PI / 3))

    def test_mirror_cycle_multiset(self):
        q = validate_angles(
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
            e = balanced_edges(canonicalize(q).rotated)
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
            rhs = reflect_labels_edges(balanced_edges(q))
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

    @pytest.mark.parametrize("triangle, step_reason, kernel_reason", [
        # endpoint edges -0.1 and 2*pi - 2.9 outside [0, pi]
        ((-0.1, 3.0, TWO_PI - 2.9), "x1 = .* outside allowed edge range",
         "x1 = .* outside allowed edge range"),
        # endpoint sum off 2*pi
        ((1.0, 1.0, 1.0), "edge sum 3.0 differs from 2",
         "edge sum 3.0 differs from 2"),
        # image edges 0 and pi
        ((PI, 0.0, PI), "x1 = .* outside allowed edge range",
         "x1 = .* outside allowed edge range"),
    ], ids=["endpoint_range", "endpoint_sum", "image_range"])
    def test_endpoint_and_image_checks_match_step(self, monkeypatch, triangle,
                                                  step_reason, kernel_reason):
        # a corrupted triangle kernel feeds both paths the same endpoints;
        # the float kernel must reject them for the reason step's validated
        # types do, in step's wording
        monkeypatch.setattr(core, "_triangle_edges", lambda phi, psi: triangle)
        q = validate_angles(*SQUARE)
        with pytest.raises(QuadrangleError, match=step_reason):
            step(q)
        with pytest.raises(QuadrangleError, match=kernel_reason):
            core._balanced_edge_floats(q.as_tuple())

    @pytest.mark.parametrize("triangle, step_reason, kernel_reason", [
        ((-0.1, 3.0, TWO_PI - 2.9), "x1 = -0.1 outside allowed edge range",
         "x1 = -0.1 outside allowed edge range"),
        ((1.0, 1.0, 1.0), "edge sum 3.0 differs from 2",
         "edge sum 3.0 differs from 2"),
    ], ids=["endpoint_range", "endpoint_sum"])
    def test_second_endpoint_checks_match_step(self, monkeypatch, triangle,
                                               step_reason, kernel_reason):
        # both paths build the x3 = 0 endpoint first; corrupting only the
        # second triangle call leaves it valid, so the x2 = 0 endpoint's own
        # checks must reject the corrupted edges
        original = core._triangle_edges

        def second_call_corrupted():
            calls = []

            def fake(phi, psi):
                calls.append((phi, psi))
                return triangle if len(calls) == 2 else original(phi, psi)
            return fake

        q = validate_angles(*SQUARE)
        monkeypatch.setattr(core, "_triangle_edges", second_call_corrupted())
        with pytest.raises(QuadrangleError, match=step_reason):
            step(q)
        monkeypatch.setattr(core, "_triangle_edges", second_call_corrupted())
        with pytest.raises(QuadrangleError, match=kernel_reason):
            core._balanced_edge_floats(q.as_tuple())


# edge values a triangle may come out with: inside the range, outside it,
# NaN, and the degenerate bound pi + _EDGE_SLACK with its two neighbours
_HI = PI + core._EDGE_SLACK
_EDGES = st.one_of(
    st.floats(0.0, PI),
    st.floats(-1.0, 5.0),
    st.sampled_from([0.0, PI, math.nextafter(_HI, 0.0), _HI, math.nextafter(_HI, math.inf),
                     math.nan]),
)


@st.composite
def _triangles(draw):
    """Three edges in any order: x, then y drawn alike or with x + y in
    [pi, pi + x], and z closing the sum to 2*pi, missing it by up to
    1.5 * SUM_TOL, or drawn alike."""
    x = draw(_EDGES)
    y = draw(st.one_of(_EDGES, st.floats(0.0, 1.0).map(lambda u: PI - x + u * x)))
    off = draw(st.sampled_from([0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9]))
    z = draw(st.one_of(st.just(TWO_PI - x - y), st.just(TWO_PI - x - y + off), _EDGES))
    return tuple(draw(st.permutations((x, y, z))))


# a valid endpoint with a zero edge: its image edge is 0, or pi where the
# other endpoint's edge is pi too
_DEGENERATE = st.permutations((PI, 0.0, PI)).map(tuple)


# valid states whose canonical shifts cover 0..3, and a thin trapezoid that
# both paths reject with the real triangles
_STATES = [AngleTuple(*rotate_labels(t, k)) for k in range(4) for t in (
    (1.2, 2.1, 1.5, 1.4831853071795865), SQUARE,
    (0.0001, 3.1414926535897933, 3.1414926535897933, 0.0001))]


@settings(max_examples=1000, deadline=None)
@given(q=st.sampled_from(_STATES),
       injected=st.lists(st.one_of(st.none(), _triangles(), _DEGENERATE), min_size=2, max_size=2))
def test_step_and_kernel_give_one_answer(q, injected):
    # the two _triangle_edges calls, x3 = 0 endpoint first in both paths,
    # return the drawn triples, or the real triangle where None is drawn;
    # step and the float kernel must return bitwise-equal images or raise
    # the same message
    original = core._triangle_edges

    def outcome(fn, arg):
        calls = iter(injected)

        def triangle(phi, psi):
            t = next(calls)
            return original(phi, psi) if t is None else t

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_triangle_edges", triangle)
            result = _outcome(fn, arg)
        return result if isinstance(result, str) else [v.hex() for v in result]

    assert outcome(lambda s: step(s).as_tuple(), q) == outcome(core._balanced_edge_floats,
                                                               q.as_tuple())


class TestOracle:
    def test_square_segment(self):
        mid, seg = balanced_edges_oracle(validate_angles(*SQUARE))
        assert relabel_distance(mid, EdgeTuple(*SQUARE), IDENTITY) < 1e-10
        assert seg.t_max - seg.t_min > 0

    def test_midpoint_matches_formula(self, random_angles):
        for q in random_angles:
            mid, _ = balanced_edges_oracle(q)
            assert relabel_distance(mid, balanced_edges(q), IDENTITY) <= 1e-10

    def test_segment_endpoints_are_triangles(self, random_angles):
        for q in random_angles[:50]:
            _, seg = balanced_edges_oracle(q)
            can = canonicalize(q)
            expected = {
                tuple(round(v, 8) for v in sorted(
                    degenerate_edges_first(can.rotated.alpha, can.rotated.delta).as_tuple())),
                tuple(round(v, 8) for v in sorted(
                    degenerate_edges_second(can.rotated.gamma, can.rotated.delta).as_tuple())),
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
            _, seg = balanced_edges_oracle(q)
            assert abs(sum(seg.direction)) < 1e-10


class TestRealizePolygon:
    def test_square_closes(self):
        q = validate_angles(*SQUARE)
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
        q = validate_angles(*SQUARE)
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
    f1, f2 = prop1_fractions(phi, psi)
    assert f1 < 0.5
    assert f2 < 0.5


def test_prop1_fraction_values():
    f1, f2 = prop1_fractions(PI / 3, PI / 3)
    assert f1 == pytest.approx(1.0 / 3.0)
    assert f2 == pytest.approx(1.0 / 3.0)
