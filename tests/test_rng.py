import numpy as np
import pytest

from steinclt import ParameterError, RngSeed
from steinclt.rng import _seek


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
    # every offset within a Philox block and across the first sixteen blocks
    plain = RngSeed(77, 3).generator().random(80)
    sought = RngSeed(77, 3).generator()
    for at in range(64):
        _seek(sought, at)
        assert sought.random(16).tolist() == plain[at:at + 16].tolist()


@pytest.mark.parametrize("a", [2**40, 2**40 + 1, 2**50 + 3, 2**66 - 3])
def test_seek_then_draw_equals_a_longer_seek(a):
    # far into the stream, where no plain draw reaches: drawing j values
    # after seeking a leaves the generator where seeking a + j puts it
    # (2**66 - 3 sits in block 2**64 - 1, so the walk carries into the
    # counter's second word)
    for j in (1, 3, 4, 9):
        walked, jumped = RngSeed(5).generator(), RngSeed(5).generator()
        _seek(walked, a)
        head = walked.random(j)
        _seek(jumped, a + j)
        assert walked.random(8).tolist() == jumped.random(8).tolist()
        _seek(jumped, a)
        assert jumped.random(j).tolist() == head.tolist()
