import numpy as np
import pytest

from steinclt import ParameterError, RngSeed


def test_same_key_same_sequence():
    a = RngSeed(123, 4).generator().random(100)
    b = RngSeed(123, 4).generator().random(100)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = RngSeed(123, 0).generator().random(100)
    b = RngSeed(123, 1).generator().random(100)
    c = RngSeed(124, 0).generator().random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_range_validated():
    with pytest.raises(ParameterError):
        RngSeed(-1)
    with pytest.raises(ParameterError):
        RngSeed(0, 2**64)


def test_seek_lands_on_the_stream_index():
    # advance(at) is an exact seek of at uniforms: one 64-bit output per double
    plain = RngSeed(77, 3).generator().random(80)
    for at in range(64):
        sought = RngSeed(77, 3).generator()
        sought.bit_generator.advance(at)
        assert sought.random(16).tolist() == plain[at:at + 16].tolist()


@pytest.mark.parametrize("a", [2**40, 2**40 + 1, 2**50 + 3, 2**66 - 3])
def test_seek_then_draw_equals_a_longer_seek(a):
    # far into the stream, where no plain draw reaches: drawing j values
    # after advancing a leaves the generator where advancing a + j puts it,
    # and so do two advances, by a and then by j, as the sampler makes them
    for j in (1, 3, 4, 9):
        walked, jumped, stepped = (RngSeed(5).generator() for _ in range(3))
        walked.bit_generator.advance(a)
        walked.random(j)
        jumped.bit_generator.advance(a + j)
        stepped.bit_generator.advance(a)
        stepped.bit_generator.advance(j)
        tail = walked.random(8).tolist()
        assert jumped.random(8).tolist() == tail
        assert stepped.random(8).tolist() == tail


def test_streams_of_one_seed_are_uncorrelated():
    # the sample correlation of independent uniforms has standard deviation
    # 1/sqrt(m); two spawn keys of one seed stay within 5 of them
    m = 200_000
    for seed in (0, 2026):
        a, b = (RngSeed(seed, stream).generator().random(m) for stream in (0, 1))
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(m)
