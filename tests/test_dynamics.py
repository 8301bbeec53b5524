import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import quadmap.core as core
import quadmap.dynamics as dynamics
from quadmap.core import (
    IDENTITY,
    TWO_PI,
    AngleTuple,
    EdgeTuple,
    QuadrangleError,
    reflect_labels_angles,
    relabel_distance,
    rotate_labels,
)
from quadmap.dynamics import (
    A_STAR,
    C_AT_ZERO,
    CONFIRMATIONS,
    CYCLE_TOL,
    GENERAL_CYCLE_ANGLES,
    KNOWN_CYCLES,
    P_MAX,
    SQUARE,
    CycleInfo,
    Trajectory,
    _classify,
    c_map,
    dihedral_distance,
    iterate,
    rotation_distance,
    step,
    trapezoid_angles,
    trapezoid_edges,
)
from quadmap.sampling import sample_angle_tuple, substream

from conftest import patch_kernel_sines

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
        q1, q2 = KNOWN_CYCLES["general_2cycle"]
        assert dihedral_distance(q1, q2) == 0.0
        assert rotation_distance(q1, q2) > 0.05


class TestIterate:
    def test_square_seed(self):
        traj = iterate(SQUARE, max_iter=100)
        assert traj.cycle.period == 1
        assert traj.classification == "square_fixed"

    def test_square_accepted_at_period_two(self):
        # a start within 4e-12 of the square, once drawn at --margin
        # 1.57079632679 and written out so that no stream moves it; the
        # detector accepts twice its period first
        q0 = AngleTuple(1.5707963267956973, 1.5707963267924157,
                        1.5707963267965261, 1.5707963267949472)
        traj = iterate(q0)
        assert traj.cycle.period == 2
        assert traj.classification == "square_fixed"
        assert traj.cycle.match_distance < 1e-11

    @pytest.mark.parametrize("name, known", [
        ("square_fixed", (SQUARE,)),
        ("trapezoid_2cycle", KNOWN_CYCLES["trapezoid_2cycle"]),
        ("general_2cycle", KNOWN_CYCLES["general_2cycle"]),
    ])
    def test_known_cycle_repeated_is_matched(self, name, known):
        # four states hold the cycle whole; three hold a 2-cycle partly
        assert _classify(known * (4 // len(known))) == (name, 0.0)
        expected = name if len(known) == 1 else "other_cycle"
        assert _classify((known * 3)[:3])[0] == expected

    @pytest.mark.parametrize("eps, expected", [
        (1e-7, "general_2cycle"), (1e-5, "other_cycle"), (1e-4, "other_cycle"),
    ])
    def test_match_tolerance_lies_between_1e_7_and_1e_5(self, eps, expected):
        # the generic cycle with eps added to alpha and taken from gamma,
        # paired with its mirror, lies eps from the known cycle
        a, b, g, d = GENERAL_CYCLE_ANGLES
        q = AngleTuple(a + eps, b, g - eps, d)
        name, distance = _classify((q, reflect_labels_angles(q)))
        assert name == expected
        assert distance == (pytest.approx(eps) if expected == "general_2cycle" else math.inf)

    def test_generic_seed(self):
        q0 = AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8)
        traj = iterate(q0)
        assert traj.cycle.period == 2
        assert traj.classification == "general_2cycle"
        q1, q2 = KNOWN_CYCLES["general_2cycle"]
        r0, r1 = traj.cycle.representative_states
        assert min(dihedral_distance(r0, q1), dihedral_distance(r0, q2)) < 1e-6

    def test_trapezoid_seed(self):
        traj = iterate(trapezoid_angles(1.0))
        assert traj.cycle.period == 2
        assert traj.classification == "trapezoid_2cycle"
        t1, t2 = KNOWN_CYCLES["trapezoid_2cycle"]
        r0, r1 = traj.cycle.representative_states
        d = min(
            max(dihedral_distance(r0, t1), dihedral_distance(r1, t2)),
            max(dihedral_distance(r0, t2), dihedral_distance(r1, t1)),
        )
        assert d < 1e-6

    def test_trajectory_consistency(self):
        q0 = AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8)
        # cut at 50 iterations, long before the 332 this orbit takes to its cycle
        traj = iterate(q0, max_iter=50)
        for a, b in zip(traj.states, traj.states[1:]):
            assert relabel_distance(step(a), b, IDENTITY) < 1e-12

    def test_no_convergence_classification(self):
        q0 = AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8)
        traj = iterate(q0, max_iter=5)
        assert traj.cycle is None
        assert traj.classification == "no_convergence"

    def test_cycle_residual_bound(self):
        traj = iterate(trapezoid_angles(0.8))
        reps = traj.cycle.representative_states
        q = reps[0]
        for _ in range(traj.cycle.period):
            q = step(q)
        assert rotation_distance(q, reps[0]) < 1e-11


def reference_iterate(q0, max_iter=10000, tol=CYCLE_TOL):
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
    # the known 2-cycles' states, accepted at n = 4, and the square at n = 3
    cases += [pytest.param(s, {}, id=f"{name}-{i}")
              for name, states in KNOWN_CYCLES.items() if len(states) == 2
              for i, s in enumerate(states)]
    cases += [pytest.param(SQUARE, {}, id="square"),
              pytest.param(AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8),
                           {"max_iter": 50}, id="generic-cut50")]
    return cases + _parallelogram_cases() + _cut_cases() + _coarse_cases() + _extreme_cases()


def parallelogram(alpha):
    return AngleTuple(alpha, PI - alpha, alpha, PI - alpha)


PARALLELOGRAM_ALPHAS = (0.05, 0.7, 2.0, PI - 0.05)


def _parallelogram_cases():
    # the square is accepted at n = 4, the earliest after one step onto it,
    # on pairs that recur from n = 2, one iteration before the first test
    # point; the square itself is accepted at n = 3
    return [pytest.param(parallelogram(a), {}, id=f"parallelogram{a:.3f}")
            for a in PARALLELOGRAM_ALPHAS]


# two sampled starts, written out so that their accepting n (314 and 324,
# residues 2 and 0 mod CONFIRMATIONS) does not move with the stream
CUT_SAMPLES = (
    AngleTuple(2.106549278644078, 0.702199096889269, 0.9916721929492557, 2.4827647386969827),
    AngleTuple(2.612143029372257, 2.008638508856628, 0.3339966462198956, 1.3284071227308054),
)


def _cut_cases():
    # budgets that end one and two iterations before an orbit's acceptance,
    # with its period already recurring; the accepting n of these orbits
    # covers every residue mod CONFIRMATIONS, so the budgets end at and
    # between test points
    starts = [(f"sample{i}", q0) for i, q0 in enumerate(CUT_SAMPLES)]
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
# a subnormal and a tiny normal tol, which only equal peaks pass, and one
# which every peak difference passes
EXTREME_TOLS = (5e-324, 1e-300, 1e308)


def _extreme_cases():
    # the tolerances at the two ends of the peak test
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


def iterate_case(monkeypatch, q0, kwargs):
    """iterate on a reference case, whose tol reaches it through CYCLE_TOL;
    returns the trajectory and the tol it ran at."""
    kwargs = dict(kwargs)
    tol = kwargs.pop("tol", CYCLE_TOL)
    monkeypatch.setattr(dynamics, "CYCLE_TOL", tol)
    return iterate(q0, **kwargs), tol


@pytest.mark.parametrize("q0, kwargs", _reference_cases())
def test_iterate_equals_reference_loop(monkeypatch, q0, kwargs):
    # record equality compares the floats exactly: states,
    # period, representatives, classification, residual and match distance
    traj, _ = iterate_case(monkeypatch, q0, kwargs)
    assert traj == reference_iterate(q0, **kwargs)


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
        iterate_case(monkeypatch, q0, kwargs)
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


def _recurring(path, n, tol):
    # the periods whose pair at n recurs within tol, measured directly
    return [p for p in range(1, min(P_MAX, n) + 1)
            if rotation_distance(path[n], path[n - p]) < tol]


@pytest.mark.parametrize("q0, kwargs", _reference_cases())
def test_peak_window_hides_no_pair(monkeypatch, q0, kwargs):
    # the rotation scan sees only pairs whose peaks differ by less than tol.
    # At every test point it sees each period that recurs there, so the
    # peak test at a test point hides no pair.  Between test points it sees only
    # periods that recur at the test point just before or just after
    calls = []

    def recording(p, q):
        calls.append((p, q))
        return rotation_distance(p, q)

    monkeypatch.setattr("quadmap.dynamics.rotation_distance", recording)
    traj, tol = iterate_case(monkeypatch, q0, kwargs)
    monkeypatch.undo()
    path = traj.path
    index = {id(s): n for n, s in enumerate(path)}
    scans = {(index[id(p)], index[id(p)] - index[id(q)]) for p, q in calls}
    assert all(abs(max(path[n]) - max(path[n - p])) < tol for n, p in scans)
    for t in range(CONFIRMATIONS, len(path), CONFIRMATIONS):
        assert {(t, p) for p in _recurring(path, t, tol)} <= scans
    for n, p in scans:
        if n % CONFIRMATIONS:
            near = range(n - n % CONFIRMATIONS, min(n + CONFIRMATIONS, len(path)), CONFIRMATIONS)
            assert any(p in _recurring(path, t, tol) for t in near)


def test_cases_reach_every_detector_path(monkeypatch):
    # the reference cases must accept at every residue of n mod
    # CONFIRMATIONS, so acceptance is tested at and after a test point, and
    # must hold a test point with a recurring period that is not accepted
    # within the next CONFIRMATIONS - 1 iterations, so the loop drops it
    residues = set()
    lapsed = 0
    for case in _reference_cases():
        q0, kwargs = case.values
        traj, tol = iterate_case(monkeypatch, q0, kwargs)
        last = len(traj.path) - 1
        if traj.cycle:
            residues.add(last % CONFIRMATIONS)
        end = last - 1 if traj.cycle else last
        lapsed += sum(bool(_recurring(traj.path, t, tol))
                      for t in range(CONFIRMATIONS, end - CONFIRMATIONS + 2, CONFIRMATIONS))
    assert residues == set(range(CONFIRMATIONS))
    assert lapsed > 0


def _hand_made_cycle(p, tied):
    """p valid states, no two a relabeling of each other, all with the peak
    2.5 (tied) or each with its own."""
    if tied:
        return [(2.5, 0.5 + 0.1 * i, 1.0, TWO_PI - 4.0 - 0.1 * i) for i in range(p)]
    return [(2.0 + 0.1 * i, 1.0, 1.5, TWO_PI - 4.5 - 0.1 * i) for i in range(p)]


@pytest.mark.parametrize("tied", [False, True], ids=["own-peaks", "tied-peaks"])
@pytest.mark.parametrize("p", range(1, 9))
def test_detector_accepts_every_period_up_to_eight(monkeypatch, p, tied):
    # the map replaced by one that cycles through p hand-made states.  With
    # their own peaks, only the state p iterations back passes the peak
    # prefilter, at p = 8 the window's oldest slot; with one tied peak every
    # pair passes it and the rotation scan alone decides
    states = _hand_made_cycle(p, tied)
    images = dict(zip(states, states[1:] + states[:1]))
    monkeypatch.setattr(dynamics, "_balanced_edge_floats", images.__getitem__)
    monkeypatch.setattr(dynamics, "balanced_edges", images.__getitem__)
    q0 = AngleTuple(*states[0])
    traj = iterate(q0)
    assert traj.cycle.period == p
    assert len(traj.path) - 1 == p + CONFIRMATIONS - 1
    assert traj.classification == "other_cycle"
    assert traj == reference_iterate(q0)
    # cut after one turn, the unconverged residual's window holds the start
    assert iterate(q0, max_iter=p).residual == 0.0


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
    # iterate leaves the orbit's states unbuilt; reading them builds all
    # n + 1, once
    assert built["states"] < n + 1
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
        with pytest.raises(AttributeError):
            s.alpha = 1.0


@pytest.mark.parametrize("corrupt, message", [
    # the square's pair-sum sine 3.0, its other sines 1: x1 = 2*pi * 3 / 5
    (lambda mp: patch_kernel_sines(mp, SQUARE, {"a+d": 3.0}),
     r"x1 = 3\.7\d* outside allowed edge range"),
    # a negative tolerance fails every sum check from the kernel's first
    # call on, after the start is validated
    (lambda mp: mp.setattr(dynamics, "_balanced_edge_floats", lambda q: mp.setattr(
        core, "SUM_TOL", -1.0) or core._balanced_edge_floats(q)),
     r"edge sum \S+ differs from 2\*pi"),
], ids=["range", "sum"])
def test_iterate_still_checks_every_kernel_state(monkeypatch, corrupt, message):
    # iterate's states skip AngleTuple's checks because the float kernel
    # applies them; a kernel producing a bad edge must still raise.  Two
    # iterations cannot accept a cycle, so no re-step through step runs and
    # only the loop's kernel can raise
    corrupt(monkeypatch)
    with pytest.raises(QuadrangleError, match=message):
        iterate(SQUARE, max_iter=2)


def test_loop_validates_nothing(monkeypatch):
    # iterate's hot path constructs no validated type, so what it validates
    # does not grow with the orbit: the start, and a cycle report whose cost
    # the period sets
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def validated(q0, max_iter=10000):
        counts.clear()
        traj = iterate(q0, max_iter=max_iter)
        return len(traj.path) - 1, traj.cycle and traj.cycle.period, Counter(counts)

    q0 = AngleTuple(1.2, 2.1, 1.5, 1.4831853071795865)
    monkeypatch.setattr(AngleTuple, "__post_init__", counting("angles", AngleTuple.__post_init__))
    monkeypatch.setattr(EdgeTuple, "__post_init__", counting("edges", EdgeTuple.__post_init__))
    # two cuts of one unconverged orbit
    (n1, p1, cut1), (n2, p2, cut2) = validated(q0, 40), validated(q0, 80)
    assert (n1, p1, n2, p2) == (40, None, 80, None) and cut1 == cut2
    # two orbits of 332 and 360 steps that settle on one period
    (n1, p1, one), (n2, p2, other) = validated(q0), validated(sample_angle_tuple(substream(2024, 1)))
    assert n1 != n2 and p1 == p2 == 2 and one == other


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

    q0 = AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8)
    assert iterate(q0).classification == "general_2cycle"
    monkeypatch.setattr(core, "degenerate_edges_first", broken)
    assert iterate(q0).classification != "general_2cycle"


@pytest.mark.parametrize("q0, message", [
    # the angle sum is 4, not 2*pi
    ((1.0, 1.0, 1.0, 1.0), "angle sum 4.0 differs from 2"),
    # the sum is 2*pi, but alpha = 0 and delta > pi
    ((0.0, 2.0, 1.0, 3.2831853071795862), "alpha = 0.0 must lie strictly inside"),
], ids=["sum", "range"])
def test_iterate_validates_its_start(q0, message):
    # the loop's kernel checks each image, not the start: unchecked, both
    # starts ran to a verdict (trapezoid_2cycle and general_2cycle)
    with pytest.raises(QuadrangleError, match=message) as raised:
        iterate(q0)
    with pytest.raises(QuadrangleError) as built:
        AngleTuple(*q0)
    assert str(raised.value) == str(built.value)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_iterate_takes_at_least_one_step(max_iter):
    # unguarded, an orbit of no steps would read no_convergence
    with pytest.raises(QuadrangleError, match="max_iter must be >= 1"):
        iterate(AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8), max_iter=max_iter)


def test_near_square_transients_are_not_the_square():
    # starts within 1e-10 of the square, a saddle, pass near it before
    # leaving; a looser CYCLE_TOL accepts some of them as square_fixed
    # (1e-11: 8 of these 50, 1e-10: all 50)
    for i in range(50):
        q0 = sample_angle_tuple(substream(3, i), margin=1.5707963267)
        assert iterate(q0).classification != "square_fixed", i


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
    near = rotation_distance(traj.path[1], traj.path[0]) < CYCLE_TOL
    assert len(traj.path) - 1 == (3 if near else 4)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.05, PI - 0.05), c=st.floats(0.05, PI - 0.05))
def test_kites_step_into_the_trapezoid_family(a, c):
    # a kite (a, b, c, b) steps onto an isosceles trapezoid, a cyclic
    # relabeling of (p, p, pi - p, pi - p) with p its least angle: within
    # 8.9e-16 at worst over a 301 x 301 grid of the band and 100,000 random
    # kites.  A rhombus (a = c) is a parallelogram and steps onto the square;
    # kites within about 1e-10 of one land within iterate's tol of it
    assume(abs(a - c) > 1e-6)
    b = (2 * PI - a - c) / 2   # then inside the band too
    q0 = AngleTuple(a, b, c, b)
    image = step(q0).as_tuple()
    p = min(image)
    assert rotation_distance(image, (p, p, PI - p, PI - p)) < 1e-15
    assert iterate(q0).classification == "trapezoid_2cycle"


def test_trapezoid_family_invariance(rng):
    for a in rng.uniform(0.05, PI / 2, 100):
        image = step(step(trapezoid_angles(a)))
        assert rotation_distance(image, trapezoid_angles(c_map(a))) < 1e-10


def test_mirror_seeds_stay_congruent():
    r = AngleTuple(1.2, 2.1, 1.5, 2 * PI - 4.8)
    s = reflect_labels_angles(r)
    for _ in range(100):
        r, s = step(r), step(s)
        assert dihedral_distance(r, s) < 1e-8


def test_trapezoid_cycle_pair_matches_paper_digits():
    t1, t2 = KNOWN_CYCLES["trapezoid_2cycle"]
    # t2 is step(t1) in the labeling the map produces
    u, _, _, v = trapezoid_edges(A_STAR).as_tuple()
    assert t2 == AngleTuple(v, u, PI / 2, u)
    assert t1.as_tuple() == pytest.approx(
        (1.48342, 1.65817, 1.65817, 1.48342), abs=1e-5)
    assert t2.as_tuple() == pytest.approx(
        (PI / 2 + 0.25214, 1.44472, PI / 2, 1.44472), abs=1e-5)
