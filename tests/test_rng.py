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
