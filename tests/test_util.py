import numpy as np
import pytest

from oracles import exclusive_products_oracle
from steinclt.util import exclusive_products

# small integers and halves: every product below is exact in any order, so
# the prefix/suffix products must equal the per-k oracle with ==
EXACT = [
    [3.0, -2.0, 0.5, 4.0, -1.0],
    [3.0, 0.0, 0.5, 4.0, -1.0],  # one zero
    [3.0, 0.0, 0.5, 0.0, -1.0],  # two zeros
    [0.0, 2.0, -0.5, 3.0, 0.0],  # zeros at both ends
    [-2.0],  # a length-1 axis: the product of no entries
]


@pytest.mark.parametrize("values", EXACT)
def test_exclusive_products_match_the_per_k_oracle(values):
    values = np.array(values)
    result = exclusive_products(values)
    assert result.shape == values.shape
    assert np.all(result == exclusive_products_oracle(values))


def test_exclusive_products_over_leading_batch_axes():
    real = np.array(EXACT[:4]).reshape(2, 2, 5)
    gaussian = real + 1j * real[..., ::-1]
    for values in (real, gaussian):
        assert np.all(exclusive_products(values) == exclusive_products_oracle(values))


def test_exclusive_products_of_an_empty_axis_are_empty():
    for shape in [(0,), (3, 0)]:
        values = np.empty(shape, dtype=np.complex128)
        result = exclusive_products(values)
        assert result.shape == shape and result.dtype == values.dtype


def test_exclusive_products_leave_the_input_unmodified():
    values = np.array(EXACT[1:4]) * (1 - 0.5j)
    before = values.copy()
    exclusive_products(values)
    assert np.array_equal(values, before)
