import numpy as np

from fmlab.rng import GOLDEN, Stream, derive_sample_seed, mix64

# states whose first word is 2^64 - 1 (mix64 inverted at the top word) and 0
TOP_WORD_STATE = 0x31628AF67B2131AB
ZERO_WORD_STATE = -int(GOLDEN) % 2**64  # state + GOLDEN wraps to 0, and mix64(0) = 0


def test_mix64_reference_values():
    # SplitMix64 outputs for seed 0 (states GOLDEN, 2*GOLDEN, 3*GOLDEN)
    s = Stream(0)
    got = s.words(3)
    assert list(got) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_derived_seeds_distinct_and_stable():
    assert derive_sample_seed(0, 0) != derive_sample_seed(0, 1)
    assert derive_sample_seed(0, 5) == derive_sample_seed(0, 5)
    assert derive_sample_seed(1, 5) != derive_sample_seed(0, 5)


def test_derived_seed_stream_no_duplicates_first_million():
    states = derive_sample_seed(20260810, np.arange(1_000_000))
    assert np.unique(states).size == 1_000_000


def test_stream_replay_and_offsets():
    a = Stream(123)
    b = Stream(123)
    w1 = a.uniforms(10)
    w2 = b.uniforms(10)
    assert np.array_equal(w1, w2)
    # a block continues the stream exactly where scalar calls left off
    c = Stream(123)
    head = [c.uniforms(1)[0] for _ in range(3)]
    tail = c.uniforms(7)
    assert np.array_equal(np.concatenate([head, tail]), w1)


def test_uniforms_open_interval():
    w = Stream(7).uniforms(10_000)
    assert np.all(w > 0.0) and np.all(w < 1.0)
    assert abs(w.mean() - 0.5) < 0.02
    # the top word's midpoint 2^53 - 1/2 rounds to 2^53: clamped below 1
    assert Stream(TOP_WORD_STATE).words(1)[0] == 2**64 - 1
    assert Stream(TOP_WORD_STATE).uniforms(1)[0] == 1.0 - 2.0**-53
    assert Stream(ZERO_WORD_STATE).words(1)[0] == 0
    assert Stream(ZERO_WORD_STATE).uniforms(1)[0] == 2.0**-54


def test_mix64_is_bijective_on_samples():
    x = np.arange(1, 100_000, dtype=np.uint64)
    assert np.unique(mix64(x)).size == x.size
