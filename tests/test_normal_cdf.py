import json
import math
from pathlib import Path

import numpy as np
import pytest

from steinclt.normal_cdf import normal_cdf

REFERENCE = Path(__file__).parent / "data" / "normal_cdf_reference.json"


def test_against_reference_table():
    rows = json.loads(REFERENCE.read_text())["rows"]
    xs = np.array([row[0] for row in rows])
    expected = np.array([row[1] for row in rows])
    got = normal_cdf(xs)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_scalar_and_symmetry():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    for x in (0.3, 1.0, 2.7, 5.0):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)


def test_far_tails():
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0
    assert 0.0 < normal_cdf(-8.0) < 1e-14


def test_nan_gives_nan():
    assert math.isnan(normal_cdf(float("nan")))
    got = normal_cdf(np.array([np.nan, 0.0, np.nan]))
    assert np.isnan(got[0]) and np.isnan(got[2])
    assert got[1] == 0.5


def test_scalar_gives_float_and_array_keeps_shape():
    assert type(normal_cdf(0.3)) is float
    assert type(normal_cdf(np.float64(0.3))) is float
    xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    got = normal_cdf(xs)
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), normal_cdf(xs.ravel()))
    assert got[1, 2] == normal_cdf(xs[1, 2])
