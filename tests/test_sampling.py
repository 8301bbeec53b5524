"""The per-sample streams, the sampler, and the cofactor closure oracle.

numpy is a test dependency only: ``np.linalg.svd``/``lstsq`` are the
reference for the oracle, and a numpy Generator, as the test fixtures pass,
must sample through the one method the sampler calls.
"""

import math
import random

import numpy as np
import pytest

import quadmap.core as core
from quadmap.core import AngleTuple, QuadrangleError, balanced_edges_oracle
from quadmap.sampling import sample_angle_tuple, substream

# the leading doubles of two streams, as Python's seeding of a str and its
# random() have given them since 3.2; a change to either moves the basin pins
LEADING_DOUBLES = {
    (0, 0): [0.45818644275670206, 0.863858744194739, 0.7130990624538819,
             0.2931083373273823],
    (2**64 + 3, 2**33 + 7): [0.723840157229221, 0.3480438323822177,
                             0.009684484791446568, 0.9842524955322359],
}


@pytest.mark.parametrize("words", sorted(LEADING_DOUBLES))
def test_substream_leading_doubles_are_pinned(words):
    rng = substream(*words)
    assert type(rng) is random.Random
    assert [rng.random() for _ in range(4)] == LEADING_DOUBLES[words]


@pytest.mark.parametrize("words, other", [((1, 23), (12, 3)), ((0, 2**32), (1, 0))])
def test_word_pairs_a_naive_join_merges_draw_distinct_streams(words, other):
    # "123" and seed << 32 | sample_id would seed both pairs alike
    assert substream(*words).random() != substream(*other).random()


def test_a_sample_does_not_depend_on_the_samples_drawn_before_it():
    alone = sample_angle_tuple(substream(42, 5))
    after = [sample_angle_tuple(substream(42, i)) for i in range(6)][5]
    assert alone == after


@pytest.mark.parametrize("entropy", [-1, -2**32, 1.0, True, (42, -1), (42, False), "7"])
def test_invalid_entropy_raises(entropy):
    pairs = [entropy] if isinstance(entropy, tuple) else [(entropy, 0), (0, entropy)]
    for words in pairs:
        with pytest.raises(QuadrangleError, match="seed word"):
            substream(*words)


class _Replay:
    """Hands out given doubles through ``random()``, the one method the sampler calls."""

    def __init__(self, doubles):
        self.random = iter(doubles).__next__


def test_sampled_tuples_match_a_numpy_generator():
    # a numpy Generator gives the tuple its own doubles make: the sampler
    # reads nothing from it but random()
    for seed in (1, 42, 2**64 + 3):
        for margin in (0.05, 1e-3, 0.0, 1.5):
            doubles = np.random.default_rng((seed, 5)).random(400).tolist()
            got = sample_angle_tuple(np.random.default_rng((seed, 5)), margin)
            assert got == sample_angle_tuple(_Replay(doubles), margin)


def test_the_first_accepted_draw_is_rescaled_to_sum_two_pi():
    lo, hi = 0.05, math.pi - 0.05
    u = LEADING_DOUBLES[(0, 0)]
    raw = [lo + (hi - lo) * x for x in u]
    s = core.TWO_PI / (((raw[0] + raw[1]) + raw[2]) + raw[3])
    assert tuple(sample_angle_tuple(substream(0, 0))) == tuple(x * s for x in raw)


def _svd_oracle(q):
    headings = core._edge_headings(q)
    m = np.array([np.cos(headings), np.sin(headings), np.ones(4)])
    particular, *_ = np.linalg.lstsq(m, [0.0, 0.0, core.TWO_PI], rcond=None)
    return m, particular, np.linalg.svd(m)[2][3]


def test_cofactor_oracle_agrees_with_svd():
    rng = random.Random(2024)
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        seg = balanced_edges_oracle(q)
        m, particular, null = _svd_oracle(q)
        # the same null line, up to sign, in unit length
        assert min(np.max(np.abs(np.array(seg.direction) - s * null)) for s in (1, -1)) < 1e-14
        assert all(type(v) is float for v in (*seg.direction, *seg.base.as_tuple()))
        # the midpoint solves the closure system, as the least-squares point does
        for point in (seg.base.as_tuple(), particular):
            assert np.max(np.abs(m @ point - [0.0, 0.0, core.TWO_PI])) < 1e-12


def test_rank_deficient_closure_system_raises(monkeypatch):
    monkeypatch.setattr(core, "_edge_headings", lambda q: (0.0, math.pi, 0.0, math.pi))
    with pytest.raises(QuadrangleError, match="closure system is rank-deficient"):
        balanced_edges_oracle(AngleTuple(*(4 * [math.pi / 2])))
