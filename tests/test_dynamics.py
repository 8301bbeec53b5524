import math

import pytest

import quadmap.core as core
from quadmap.core import (
    IDENTITY,
    AngleTuple,
    EdgeTuple,
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
    DomainError,
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
        with pytest.raises(DomainError):
            c_map(0.0)

    def test_fixed_points(self):
        assert c_map(PI / 2) == pytest.approx(PI / 2, abs=1e-12)
        assert c_map(A_STAR) == pytest.approx(A_STAR, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_map(PI / 2 + 0.1)
        with pytest.raises(DomainError):
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
        with pytest.raises(DomainError):
            trapezoid_edges(0.0)
        with pytest.raises(DomainError):
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
                return Trajectory(tuple(states), cycle)
    return Trajectory(tuple(states), None)


def _reference_cases():
    starts = [sample_angle_tuple(substream(2024, i), margin=(0.05, 1e-3, 0.0)[i % 3])
              for i in range(12)]
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
    return cases


@pytest.mark.parametrize("q0, kwargs", _reference_cases())
def test_iterate_equals_reference_loop(q0, kwargs):
    # dataclass equality compares the floats exactly: states,
    # period, representatives, classification, residual and match distance
    assert iterate(q0, **kwargs) == reference_iterate(q0, **kwargs)


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
    with pytest.raises(DomainError):
        iterate(SQUARE, tol=tol)


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
