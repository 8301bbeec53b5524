"""The pure-Python generator and the cofactor closure oracle, against numpy.

numpy is a test dependency only: ``np.random.default_rng`` is the reference
for the generator's streams, ``np.linalg.svd``/``lstsq`` for the oracle.
"""

import math
import random

import numpy as np
import pytest

import quadmap.core as core
from quadmap._pcg64 import PCG64
from quadmap.core import AngleTuple, QuadrangleError, balanced_edges_oracle
from quadmap.sampling import sample_angle_tuple, substream

EDGE_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**128 + 5]
SAMPLE_IDS = [0, 1, 999, 2**32 - 1, 2**32, 2**33 + 7]


@pytest.mark.parametrize("entropy", EDGE_SEEDS + [[1, 2, 3, 4, 5, 6], (7, 2**40, 0)])
def test_int_and_sequence_seeds_draw_numpy_streams(entropy):
    mine, ref = PCG64(entropy), np.random.default_rng(entropy)
    got = [mine.uniform(0.05, math.pi - 0.05) for _ in range(12)]
    assert got == ref.uniform(0.05, math.pi - 0.05, 12).tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_substreams_draw_numpy_streams(seed):
    for sample_id in SAMPLE_IDS:
        mine, ref = substream(seed, sample_id), np.random.default_rng((seed, sample_id))
        assert mine.uniform(0.1, 3.0, 12) == ref.uniform(0.1, 3.0, 12).tolist()


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_mixed_uniform_and_integers_match_numpy(seed):
    # integers keeps the upper half of a 64-bit draw for its next call, and
    # a uniform draw in between leaves that half in place
    mine, ref = PCG64(seed), np.random.default_rng(seed)
    choose = random.Random(seed)
    for _ in range(20000):
        if choose.random() < 0.5:
            assert mine.uniform(1e-6, math.pi) == ref.uniform(1e-6, math.pi)
        else:
            assert mine.integers(4) == ref.integers(4)


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 3])
@pytest.mark.parametrize("size", [0, 1, 4, 12])
def test_batched_draws_equal_scalar_draws(seed, size):
    # the sized form steps a local copy of the state and stores it once; it
    # must give the scalar form's doubles and leave the stream where they do
    batched, scalar, ref = PCG64(seed), PCG64(seed), np.random.default_rng(seed)
    got = batched.uniform(0.05, math.pi - 0.05, size)
    assert type(got) is list and all(type(x) is float for x in got)
    assert got == [scalar.uniform(0.05, math.pi - 0.05) for _ in range(size)]
    assert got == ref.uniform(0.05, math.pi - 0.05, size).tolist()
    assert batched.uniform(-1.0, 1.0, 3) == scalar.uniform(-1.0, 1.0, 3) == \
        ref.uniform(-1.0, 1.0, 3).tolist()


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("size", [0, 1, 4])
def test_sized_draw_leaves_the_buffered_half(seed, size):
    # integers(4) never rejects, so its first call draws 64 bits and keeps
    # the upper half; a sized uniform draw in between must not touch it
    mine, ref = PCG64(seed), np.random.default_rng(seed)
    assert mine.integers(4) == ref.integers(4)
    half = mine._half
    assert half is not None
    assert mine.uniform(1e-6, math.pi, size) == ref.uniform(1e-6, math.pi, size).tolist()
    assert mine._half == half
    assert [mine.integers(4) for _ in range(5)] == ref.integers(4, size=5).tolist()


@pytest.mark.parametrize("n", [2, 3, 5, 1000, 2**31 + 1, 2**32 - 1])
def test_integers_match_numpy_on_other_bounds(n):
    mine, ref = PCG64(n), np.random.default_rng(n)
    assert [mine.integers(n) for _ in range(2000)] == ref.integers(n, size=2000).tolist()


@pytest.mark.parametrize("n", [1, 2**32])
def test_integers_outside_the_lemire_range_raise(n):
    with pytest.raises(QuadrangleError, match="integers bound"):
        PCG64(0).integers(n)


@pytest.mark.parametrize("entropy", [-1, -2**32, 1.0, True, (42, -1), (42, False), "7"])
def test_invalid_entropy_raises(entropy):
    with pytest.raises(QuadrangleError, match="seed word"):
        PCG64(entropy)


def test_sampled_tuples_match_a_numpy_generator():
    for seed in (1, 42, 2**64 + 3):
        mine, ref = substream(seed, 5), np.random.default_rng((seed, 5))
        for margin in (0.05, 1e-3, 0.0, 1.5):
            assert sample_angle_tuple(mine, margin) == sample_angle_tuple(ref, margin)


def _svd_oracle(q):
    headings = core._edge_headings(q)
    m = np.array([np.cos(headings), np.sin(headings), np.ones(4)])
    particular, *_ = np.linalg.lstsq(m, [0.0, 0.0, core.TWO_PI], rcond=None)
    return m, particular, np.linalg.svd(m)[2][3]


def test_cofactor_oracle_agrees_with_svd():
    rng = PCG64(2024)
    for _ in range(1000):
        q = sample_angle_tuple(rng)
        mid, seg = balanced_edges_oracle(q)
        m, particular, null = _svd_oracle(q)
        # the same null line, up to sign, in unit length
        assert min(np.max(np.abs(np.array(seg.direction) - s * null)) for s in (1, -1)) < 1e-14
        assert all(type(v) is float for v in (*seg.direction, *mid.as_tuple()))
        # the midpoint solves the closure system, as the least-squares point does
        for point in (mid.as_tuple(), particular):
            assert np.max(np.abs(m @ point - [0.0, 0.0, core.TWO_PI])) < 1e-12


def test_rank_deficient_closure_system_raises(monkeypatch):
    monkeypatch.setattr(core, "_edge_headings", lambda q: (0.0, math.pi, 0.0, math.pi))
    with pytest.raises(QuadrangleError, match="closure system is rank-deficient"):
        balanced_edges_oracle(AngleTuple(*(4 * [math.pi / 2])))
