import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import quadmap.core as core
from quadmap.core import (
    IDENTITY,
    TWO_PI,
    AngleTuple,
    EdgeTuple,
    QuadrangleError,
    reflect_labels_angles,
    relabel_distance,
    rotate_labels,
    validate_angles,
)
from quadmap.dynamics import (
    A_STAR,
    C_AT_ZERO,
    CONFIRMATIONS,
    GENERAL_CYCLE_ANGLES,
    P_MAX,
    SQUARE,
    CycleInfo,
    Trajectory,
    _classify,
    c_map,
    dihedral_distance,
    general_cycle_pair,
    iterate,
    rotation_distance,
    step,
    trapezoid_angles,
    trapezoid_cycle_pair,
    trapezoid_edges,
)
from quadmap.sampling import sample_angle_tuple, substream

PI = math.pi


class TestStep:
    def test_square_fixed(self):
        assert relabel_distance(step(SQUARE), SQUARE, IDENTITY) < 1e-12

    def test_general_cycle_mirror(self):
        q = GENERAL_CYCLE_ANGLES
        assert relabel_distance(step(q), reflect_labels_angles(q), IDENTITY) < 1e-9
        assert rotation_distance(step(step(q)), q) < 1e-9

    def test_trapezoid_double_step(self):
        q = trapezoid_angles(1.0)
        image = step(step(q))
        target = trapezoid_angles(c_map(1.0))
        assert rotation_distance(image, target) < 1e-12
        assert c_map(1.0) == pytest.approx(1.3225, abs=1e-4)

    def test_state_space_closure(self, rng):
        # every valid state maps to a valid state; AngleTuple construction
        # inside step re-validates
        for _ in range(10000):
            q = sample_angle_tuple(rng, margin=0.01)
            out = step(q)
            assert all(0.0 < v < PI for v in out.as_tuple())

    def test_reflection_transport(self, random_angles):
        # step(reflect(q)) equals the (beta, alpha, delta, gamma) relabeling
        # of step(q)
        for q in random_angles[:100]:
            lhs = step(reflect_labels_angles(q))
            s = step(q).as_tuple()
            rhs = AngleTuple(s[1], s[0], s[3], s[2])
            assert relabel_distance(lhs, rhs, IDENTITY) <= 1e-10


class TestCMap:
    def test_limit_at_zero(self):
        assert c_map(1e-4) == pytest.approx(PI / (math.sqrt(2) + 1), abs=1e-15)
        assert C_AT_ZERO == pytest.approx(1.3, abs=1e-2)
        with pytest.raises(QuadrangleError, match=r"c_map requires a in \(0, pi/2\]"):
            c_map(0.0)

    def test_fixed_points(self):
        assert c_map(PI / 2) == pytest.approx(PI / 2, abs=1e-12)
        assert c_map(A_STAR) == pytest.approx(A_STAR, abs=1e-12)

    def test_domain(self):
        with pytest.raises(QuadrangleError, match=r"c_map requires a in \(0, pi/2\]"):
            c_map(PI / 2 + 0.1)
        with pytest.raises(QuadrangleError, match=r"c_map requires a in \(0, pi/2\]"):
            c_map(-0.3)

    def test_monotone_increasing(self, rng):
        pairs = rng.uniform(1e-6, PI / 2, (1000, 2))
        for lo, hi in pairs:
            if lo > hi:
                lo, hi = hi, lo
            if lo < hi:
                assert c_map(lo) < c_map(hi)


class TestTrapezoidEdges:
    def test_square_case(self):
        e = trapezoid_edges(PI / 2)
        assert e.as_tuple() == pytest.approx((PI / 2,) * 4)

    def test_pi_third(self):
        e = trapezoid_edges(PI / 3)
        assert e.as_tuple() == pytest.approx((PI / 3, PI / 2, PI / 3, 5 * PI / 6))

    def test_consistency_with_balanced_edges(self, rng):
        for a in rng.uniform(0.05, PI / 2, 50):
            e = trapezoid_edges(a).as_tuple()
            got = step(trapezoid_angles(a))
            assert min(
                relabel_distance(got, EdgeTuple(*rotate_labels(e, k)), IDENTITY)
                for k in range(4)
            ) < 1e-12

    def test_domain(self):
        with pytest.raises(QuadrangleError, match=r"trapezoid_edges requires a in \(0, pi/2\]"):
            trapezoid_edges(0.0)
        with pytest.raises(QuadrangleError, match=r"trapezoid_angles requires a in \(0, pi/2\]"):
            trapezoid_angles(2.0)


class TestDihedralDistance:
    def test_identity(self):
        q = GENERAL_CYCLE_ANGLES
        assert dihedral_distance(q, q) == 0.0

    def test_rotation_invariance(self):
        q = GENERAL_CYCLE_ANGLES
        p = AngleTuple(*rotate_labels(q, 2))
        assert dihedral_distance(p, q) == 0.0
        assert rotation_distance(p, q) == 0.0

    def test_square_to_cycle(self):
        # relabelings permute components, so the sup distance to the square
        # is the largest component deviation from pi/2
        expected = max(abs(v - PI / 2) for v in GENERAL_CYCLE_ANGLES.as_tuple())
        d = dihedral_distance(SQUARE, GENERAL_CYCLE_ANGLES)
        assert d == pytest.approx(expected, abs=1e-15)
        assert d >= abs(1.82405 - PI / 2) - 1e-5

    def test_equals_brute_force_minimum(self, rng):
        for _ in range(500):
            p, q = sample_angle_tuple(rng), sample_angle_tuple(rng)
            rotations = [relabel_distance(p, AngleTuple(*rotate_labels(q, k)), IDENTITY)
                         for k in range(4)]
            mirrored = [relabel_distance(
                p, AngleTuple(*rotate_labels(reflect_labels_angles(q), k)), IDENTITY)
                        for k in range(4)]
            assert rotation_distance(p, q) == min(rotations)
            assert dihedral_distance(p, q) == min(rotations + mirrored)

    def test_mirror_pair_collapses_dihedral_not_rotation(self):
        q1, q2 = general_cycle_pair()
        assert dihedral_distance(q1, q2) == 0.0
        assert rotation_distance(q1, q2) > 0.05


class TestIterate:
    def test_square_seed(self):
        traj = iterate(SQUARE, max_iter=100)
        assert traj.cycle.period == 1
        assert traj.classification == "square_fixed"

    def test_square_accepted_at_period_two(self):
        # sample 0 of basin --margin 1.57079632679 starts within 4e-12 of the
        # square, and the detector accepts twice its period first
        q0 = sample_angle_tuple(substream(42, 0), margin=1.57079632679)
        traj = iterate(q0, max_iter=10000, tol=1e-12)
        assert traj.cycle.period == 2
        assert traj.classification == "square_fixed"
        assert traj.cycle.match_distance < 1e-11

    @pytest.mark.parametrize("name, known", [
        ("square_fixed", (SQUARE,)),
        ("trapezoid_2cycle", trapezoid_cycle_pair()),
        ("general_2cycle", general_cycle_pair()),
    ])
    def test_known_cycle_repeated_is_matched(self, name, known):
        # four states hold the cycle whole; three hold a 2-cycle partly
        assert _classify(known * (4 // len(known))) == (name, 0.0)
        expected = name if len(known) == 1 else "other_cycle"
        assert _classify((known * 3)[:3])[0] == expected

    def test_generic_seed(self):
        q0 = validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8)
        traj = iterate(q0, max_iter=10000, tol=1e-12)
        assert traj.cycle.period == 2
        assert traj.classification == "general_2cycle"
        q1, q2 = general_cycle_pair()
        r0, r1 = traj.cycle.representative_states
        assert min(dihedral_distance(r0, q1), dihedral_distance(r0, q2)) < 1e-6

    def test_trapezoid_seed(self):
        traj = iterate(trapezoid_angles(1.0), max_iter=10000, tol=1e-12)
        assert traj.cycle.period == 2
        assert traj.classification == "trapezoid_2cycle"
        t1, t2 = trapezoid_cycle_pair()
        r0, r1 = traj.cycle.representative_states
        d = min(
            max(dihedral_distance(r0, t1), dihedral_distance(r1, t2)),
            max(dihedral_distance(r0, t2), dihedral_distance(r1, t1)),
        )
        assert d < 1e-6

    def test_trajectory_consistency(self):
        q0 = validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8)
        traj = iterate(q0, max_iter=50, tol=1e-15)
        for a, b in zip(traj.states, traj.states[1:]):
            assert relabel_distance(step(a), b, IDENTITY) < 1e-12

    def test_no_convergence_classification(self):
        q0 = validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8)
        traj = iterate(q0, max_iter=5, tol=1e-12)
        assert traj.cycle is None
        assert traj.classification == "no_convergence"

    def test_cycle_residual_bound(self):
        traj = iterate(trapezoid_angles(0.8))
        reps = traj.cycle.representative_states
        q = reps[0]
        for _ in range(traj.cycle.period):
            q = step(q)
        assert rotation_distance(q, reps[0]) < 1e-11


def reference_iterate(q0, max_iter=10000, tol=1e-12):
    """Reference for iterate on the validated path: public step, the full
    rotation_distance for every period at every step, CONFIRMATIONS streaks."""
    states = [q0]
    streak = [0] * (P_MAX + 1)
    last_d = [math.inf] * (P_MAX + 1)
    for n in range(1, max_iter + 1):
        states.append(step(states[-1]))
        for p in range(1, min(P_MAX, n) + 1):
            last_d[p] = rotation_distance(states[n], states[n - p])
            streak[p] = streak[p] + 1 if last_d[p] < tol else 0
        for p in range(1, P_MAX + 1):
            if streak[p] >= CONFIRMATIONS:
                reps = tuple(states[-p:])
                classification, match = _classify(reps)
                cycle = CycleInfo(p, reps, classification, last_d[p], match)
                return Trajectory(tuple(s.as_tuple() for s in states), cycle)
    return Trajectory(tuple(s.as_tuple() for s in states), None)


def _sample_starts():
    return [sample_angle_tuple(substream(2024, i), margin=(0.05, 1e-3, 0.0)[i % 3])
            for i in range(12)]


def _reference_cases():
    starts = _sample_starts()
    cases = [pytest.param(q0, {}, id=f"sample{i}") for i, q0 in enumerate(starts)]
    cases += [pytest.param(q0, {"max_iter": 120}, id=f"sample{i}-cut120")
              for i, q0 in enumerate(starts[:4])]
    cases += [pytest.param(q0, {"tol": 1e-9}, id=f"sample{i}-tol1e-9")
              for i, q0 in enumerate(starts[:4])]
    cases += [pytest.param(trapezoid_angles(a), {}, id=f"trapezoid{a:.3f}")
              for a in (0.3, 0.8, 1.2, 1.5, PI / 2)]
    cases += [pytest.param(SQUARE, {}, id="square"),
              pytest.param(validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8),
                           {"max_iter": 50}, id="generic-cut50")]
    return cases + _parallelogram_cases() + _cut_cases() + _coarse_cases() + _extreme_cases()


def parallelogram(alpha):
    return validate_angles(alpha, PI - alpha, alpha, PI - alpha)


PARALLELOGRAM_ALPHAS = (0.05, 0.7, 2.0, PI - 0.05)


def _parallelogram_cases():
    # the square is accepted at n = 4, the earliest after one step onto it,
    # by a streak that starts at n = 2, one iteration before the first test
    # point; the square itself is accepted at n = 3
    return [pytest.param(parallelogram(a), {}, id=f"parallelogram{a:.3f}")
            for a in PARALLELOGRAM_ALPHAS]


def _cut_cases():
    # budgets that end one and two iterations before an orbit's acceptance,
    # with the streak live; the accepting n of these orbits covers every
    # residue mod CONFIRMATIONS, so the budgets end at and between test points
    starts = [(f"sample{i}", q0) for i, q0 in enumerate(_sample_starts()[:2])]
    starts += [("trapezoid0.300", trapezoid_angles(0.3)),
               (f"parallelogram{PARALLELOGRAM_ALPHAS[1]:.3f}",
                parallelogram(PARALLELOGRAM_ALPHAS[1]))]
    cases = []
    for name, q0 in starts:
        accepted = len(reference_iterate(q0).path) - 1
        cases += [pytest.param(q0, {"max_iter": accepted - k}, id=f"{name}-cut{accepted - k}")
                  for k in (1, 2)]
    return cases


COARSE_TOLS = (1e-6, 1e-3, 0.1)
# a subnormal and a tiny normal tol, at which peak +- tol rounds to peak,
# and one at which the window's bounds span every peak
EXTREME_TOLS = (5e-324, 1e-300, 1e308)


def _extreme_cases():
    # the tolerances at the edges of the peak window's rounding argument
    starts = [("sample0", sample_angle_tuple(substream(2024, 0))),
              ("trapezoid0.300", trapezoid_angles(0.3))]
    return [pytest.param(q0, {"tol": tol}, id=f"{name}-tol{tol:g}")
            for name, q0 in starts for tol in EXTREME_TOLS]


def _coarse_cases():
    # tolerances at which peak differences of order tol occur, so the peak
    # prefilter both rejects pairs and passes pairs that the rotation scan
    # then rejects
    starts = [(f"sample{i}", sample_angle_tuple(substream(2024, i))) for i in range(3)]
    starts += [(f"trapezoid{a:.3f}", trapezoid_angles(a)) for a in (0.3, 1.2)]
    return [pytest.param(q0, {"tol": tol}, id=f"{name}-tol{tol:g}")
            for name, q0 in starts for tol in COARSE_TOLS]


@pytest.mark.parametrize("q0, kwargs", _reference_cases())
def test_iterate_equals_reference_loop(q0, kwargs):
    # dataclass equality compares the floats exactly: states,
    # period, representatives, classification, residual and match distance
    assert iterate(q0, **kwargs) == reference_iterate(q0, **kwargs)


def test_coarse_cases_reach_both_sides_of_the_prefilter(monkeypatch):
    # the rotation scan only sees pairs whose peaks differ by less than tol;
    # the coarse cases must include scans that fail at a peak difference
    # above tol/2, or the bitwise comparison would not test the prefilter
    seen = []
    tol = None

    def recording(p, q):
        d = rotation_distance(p, q)
        seen.append((abs(max(p) - max(q)) / tol, d < tol))
        return d

    monkeypatch.setattr("quadmap.dynamics.rotation_distance", recording)
    for case in _coarse_cases():
        q0, kwargs = case.values
        tol = kwargs["tol"]
        iterate(q0, **kwargs)
    assert all(ratio < 1.0 for ratio, _ in seen)
    assert any(ratio > 0.5 and not hit for ratio, hit in seen)


@pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-3, 0.1])
def test_peak_difference_bounds_rotation_distance(rng, tol):
    # max is relabeling-invariant and 1-Lipschitz in the sup norm, and
    # rounded subtraction is monotone, so the bound holds in floats; iterate
    # skips the rotation scan on it, and scans the float states, on which
    # rotation_distance reads the same bits as on the AngleTuples
    pairs = [(sample_angle_tuple(rng), sample_angle_tuple(rng)) for _ in range(300)]
    for _ in range(300):
        p = sample_angle_tuple(rng, margin=0.2)
        u = rng.uniform(-tol, tol, 4)
        shifted = [v + d for v, d in zip(rotate_labels(p, int(rng.integers(4))), u - u.mean())]
        pairs.append((p, AngleTuple(*shifted)))
    for p, q in pairs:
        gap = abs(max(p.as_tuple()) - max(q.as_tuple()))
        d = rotation_distance(p, q)
        assert gap <= d
        assert rotation_distance(p.as_tuple(), q.as_tuple()) == d


def _peak_close(path, n, tol):
    # the periods whose pair at n passes the peak test, in loop order
    return [p for p in range(1, min(P_MAX, n) + 1) if abs(max(path[n]) - max(path[n - p])) < tol]


def _matches(path, n, tol):
    # the periods whose streak the reference extends at n
    return [p for p in _peak_close(path, n, tol) if rotation_distance(path[n], path[n - p]) < tol]


def _scans(monkeypatch, q0, kwargs):
    # iterate's rotation scans as (n, p) on its path, in call order; a
    # converged orbit's residual, which measures the accepting pair again,
    # is checked and dropped
    calls = []

    def recording(p, q):
        calls.append((p, q))
        return rotation_distance(p, q)

    monkeypatch.setattr("quadmap.dynamics.rotation_distance", recording)
    traj = iterate(q0, **kwargs)
    monkeypatch.undo()
    index = {id(s): n for n, s in enumerate(traj.path)}
    scans = [(index[id(p)], index[id(p)] - index[id(q)]) for p, q in calls]
    if traj.cycle:
        assert scans.pop() == (len(traj.path) - 1, traj.cycle.period)
    return traj, scans


@pytest.mark.parametrize("q0, kwargs", _reference_cases())
def test_peak_window_hides_no_pair(monkeypatch, q0, kwargs):
    # the rotation scan sees only pairs whose peaks differ by less than tol,
    # and only inside a replay that began at a test point whose peak window
    # passed, or after a scanned iteration that left a streak live.  Where
    # a streak can be accepted, the window hides no pair: every scanned
    # iteration, every test point and every iteration after a live one is
    # scanned for each period whose peaks are that close, in loop order, up
    # to the accepting pair, which is the last scan
    tol = kwargs.get("tol", 1e-12)
    traj, scans = _scans(monkeypatch, q0, kwargs)
    path, last = traj.path, len(traj.path) - 1
    assert scans == sorted(set(scans))
    scanned = {n for n, _ in scans}
    for n in range(1, last + 1):
        live = n - 1 in scanned and bool(_matches(path, n - 1, tol))
        test_point = n + -n % CONFIRMATIONS
        if n in scanned:
            assert live or (test_point <= last and _peak_close(path, test_point, tol))
        if n in scanned or live or n == test_point:
            close = _peak_close(path, n, tol)
            if traj.cycle and n == last:
                close = close[:close.index(traj.cycle.period) + 1]
            assert [p for m, p in scans if m == n] == close
    if traj.cycle:
        assert scans[-1] == (last, traj.cycle.period)


def test_cases_reach_the_replay_paths(monkeypatch):
    # the reference cases must include a replay that ends without
    # acceptance, after which the loop skips an iteration whose peaks pass
    # the peak test, and streaks that start one and two iterations before a
    # test point with no streak live and last to it, so that only the
    # replay sees their first match
    skipped_after_replay = False
    starts = set()
    for case in _reference_cases():
        q0, kwargs = case.values
        tol = kwargs.get("tol", 1e-12)
        traj, scans = _scans(monkeypatch, q0, kwargs)
        path, scanned = traj.path, {n for n, _ in scans}
        skipped_after_replay |= any(n not in scanned and _peak_close(path, n, tol)
                                    for n in range(min(scanned, default=len(path)), len(path)))
        for n in range(1, len(path)):
            if n % CONFIRMATIONS and not _matches(path, n - 1, tol):
                test_point = n + -n % CONFIRMATIONS
                if test_point < len(path) and any(
                        all(p in _matches(path, m, tol) for m in range(n, test_point + 1))
                        for p in _matches(path, n, tol)):
                    assert n in scanned
                    starts.add(n % CONFIRMATIONS)
    assert skipped_after_replay
    assert starts == {1, 2}


def test_states_are_built_on_first_access(monkeypatch):
    built = Counter()
    original = AngleTuple.__post_init__

    def counting(self):
        built["states"] += 1
        original(self)

    q0 = sample_angle_tuple(substream(2024, 1))
    monkeypatch.setattr(AngleTuple, "__post_init__", counting)
    traj = iterate(q0)
    n, p = len(traj.path) - 1, traj.cycle.period
    assert n > 100 and p == 2
    # the p states re-stepped, and the image of each public step of them
    assert built["states"] == 2 * p
    built.clear()
    states = traj.states
    assert built["states"] == n + 1
    assert traj.states is states
    assert states == tuple(AngleTuple(*t) for t in traj.path)
    assert states[0] == q0
    again = iterate(q0)
    assert again == traj and hash(again) == hash(traj)


def test_trajectory_states_are_validated_when_read():
    traj = Trajectory(((4.0, 1.0, 1.0, TWO_PI - 6.0),), None)
    with pytest.raises(QuadrangleError, match="alpha = 4.0 must lie strictly inside"):
        traj.states


@pytest.mark.parametrize("max_iter", [1, 2, P_MAX, P_MAX + 1, 300, 10000])
def test_residual_is_the_detector_distance_at_exit(monkeypatch, max_iter):
    # the basin CLI's former expression over traj.states; only the orbit
    # run to 10000 iterations converges
    q0 = sample_angle_tuple(substream(42, 0))
    traj = iterate(q0, max_iter=max_iter)
    assert (traj.cycle is None) == (max_iter < 10000)
    states = traj.states
    expected = traj.cycle.residual if traj.cycle else min(
        rotation_distance(states[-1], s) for s in states[-1 - P_MAX:-1])
    built = Counter()
    original = AngleTuple.__post_init__

    def counting(self):
        built["states"] += 1
        original(self)

    monkeypatch.setattr(AngleTuple, "__post_init__", counting)
    assert traj.residual == expected
    # both residuals are measured on the float path and build no state
    assert built["states"] == 0


def test_trajectory_states_are_frozen_angle_tuples():
    q0 = sample_angle_tuple(substream(2024, 0))
    traj = iterate(q0)
    for s in traj.states:
        assert type(s) is AngleTuple
        assert s == AngleTuple(*s.as_tuple())
        assert hash(s) == hash(AngleTuple(*s.as_tuple()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.alpha = 1.0


@pytest.mark.parametrize("sines, sum_tol, message", [
    # sin(a + d) = sin(pi) negated past the clamp: the square's first endpoint has x1 < 0
    ({math.pi: -0.5}, core.SUM_TOL, "x1 = -2.0943951023931953 outside allowed edge range"),
    # a negative tolerance fails every sum check
    ({}, -1.0, "edge sum .* differs from 2"),
], ids=["range", "sum"])
def test_iterate_still_checks_every_kernel_state(monkeypatch, sines, sum_tol, message):
    # iterate's states skip AngleTuple's checks because the float kernel
    # applies them; a kernel producing a bad edge must still raise.  Two
    # iterations cannot accept a cycle, so no re-step through step runs and
    # only the loop's kernel can raise
    monkeypatch.setattr(core, "sin", lambda x: sines.get(x, math.sin(x)))
    monkeypatch.setattr(core, "SUM_TOL", sum_tol)
    with pytest.raises(QuadrangleError, match=message):
        iterate(SQUARE, max_iter=2)


def test_loop_takes_five_sines_and_validates_nothing(monkeypatch):
    # a structure guard for iterate's hot path: each iteration takes five
    # sines, sin(d) once for both endpoint triangles, and constructs no
    # validated type; only the re-step of the cycle representatives, a fixed
    # cost, validates
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    q0 = validate_angles(1.2, 2.1, 1.5, 1.4831853071795865)
    monkeypatch.setattr(core, "sin", counting("sin", math.sin))
    monkeypatch.setattr(AngleTuple, "__post_init__", counting("angles", AngleTuple.__post_init__))
    monkeypatch.setattr(EdgeTuple, "__post_init__", counting("edges", EdgeTuple.__post_init__))
    step(q0)   # one public step: six sines, one angle and three edge tuples
    assert counts == {"sin": 6, "angles": 1, "edges": 3}
    counts.clear()
    assert iterate(q0, max_iter=40).cycle is None   # no cycle, no re-step
    assert counts == {"sin": 5 * 40}
    counts.clear()
    traj = iterate(q0)
    n, p = len(traj.path) - 1, traj.cycle.period
    assert n > 100 and p == 2
    # five sines per iteration, and p re-steps of the representatives from
    # the p states built at the boundary
    assert counts == {"sin": 5 * n + 6 * p, "angles": 2 * p, "edges": 3 * p}


def test_sampled_components_are_plain_floats(rng):
    for margin in (0.05, 1e-3, 0.0):
        q = sample_angle_tuple(rng, margin=margin)
        assert all(type(v) is float for v in q.as_tuple())


def test_representatives_show_a_corrupted_public_kernel(monkeypatch):
    # iterate's loop runs on its own float kernel; its representatives are
    # images under the public step, so a corrupted degenerate constructor
    # still shows on every classified orbit
    original = core.degenerate_edges_first

    def broken(alpha, delta):
        e = original(alpha, delta)
        return EdgeTuple(e.x1, e.x4, e.x3, e.x2, degenerate=True)

    q0 = validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8)
    assert iterate(q0).classification == "general_2cycle"
    monkeypatch.setattr(core, "degenerate_edges_first", broken)
    assert iterate(q0).classification != "general_2cycle"


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
def test_iterate_rejects_non_positive_tol(tol):
    with pytest.raises(QuadrangleError, match="tol must be positive and finite"):
        iterate(SQUARE, tol=tol)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, PI - 0.05))
def test_parallelograms_step_to_the_square(alpha):
    # all four pair sums of (alpha, pi - alpha, alpha, pi - alpha) are pi, so
    # closure forces x1 = x3 and x2 = x4 with x1 + x2 = pi: the segment is
    # (t, pi - t, t, pi - t) and its midpoint is the square.  Rounding leaves
    # up to 18 ulp of pi/2 (4.0e-15) near the ends of the range, the worst of
    # 2,000,000 samples within 0.002 of them
    q0 = parallelogram(alpha)
    assert max(abs(v - PI / 2) for v in step(q0).as_tuple()) < 4e-15
    traj = iterate(q0)
    assert traj.classification == "square_fixed"
    # accepted at period 1 by the earliest streak: from n = 1 when the start
    # is itself within tol of its image, from n = 2 otherwise
    near = rotation_distance(traj.path[1], traj.path[0]) < 1e-12
    assert len(traj.path) - 1 == (3 if near else 4)


def test_trapezoid_family_invariance(rng):
    for a in rng.uniform(0.05, PI / 2, 100):
        image = step(step(trapezoid_angles(a)))
        assert rotation_distance(image, trapezoid_angles(c_map(a))) < 1e-10


def test_mirror_seeds_stay_congruent():
    r = validate_angles(1.2, 2.1, 1.5, 2 * PI - 4.8)
    s = reflect_labels_angles(r)
    for _ in range(100):
        r, s = step(r), step(s)
        assert dihedral_distance(r, s) < 1e-8


def test_trapezoid_cycle_pair_matches_paper_digits():
    t1, t2 = trapezoid_cycle_pair()
    assert t1.as_tuple() == pytest.approx(
        (1.48342, 1.65817, 1.65817, 1.48342), abs=1e-5)
    assert t2.as_tuple() == pytest.approx(
        (PI / 2 + 0.25214, 1.44472, PI / 2, 1.44472), abs=1e-5)
