import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings

from steinclt import (
    ArrayRow,
    CapacityError,
    ConstructionError,
    DiscreteCell,
    EtaAlphaFamily,
    ParameterError,
    ProductFamily,
    RademacherFamily,
    RowSpecError,
    RowValidationError,
    ShapeError,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    charfn_gap,
    eta_scale_squared,
    load_row_spec,
    serialize_family,
    serialize_row,
    validate_row,
)
from strategies import centred_rows


def test_rademacher_atoms():
    row = build_rademacher_row(1)
    assert row.n == 1
    assert np.array_equal(row.points.ravel(), [-1.0, 1.0])
    assert np.array_equal(row.probs, [0.5, 0.5])

    row = build_rademacher_row(4)
    assert row.n == 4
    assert np.array_equal(np.unique(row.points), [-0.5, 0.5])
    report = validate_row(row)
    assert report.second_moment_sum == pytest.approx(1.0, abs=1e-15)

    with pytest.raises(ParameterError):
        build_rademacher_row(0)


def test_eta_alpha_half_n1_collapses_to_coin():
    # beta = 1: the (1 - beta/k)/2 pair vanishes at k = 1 and the sqrt(k)
    # atoms merge with the +-1/s pair, leaving a plain coin with s_1 = 1.
    row = build_eta_row(0.5, 1)
    assert row.n == 1
    assert np.array_equal(row.points.ravel(), [-1.0, 1.0])
    assert np.array_equal(row.probs, [0.5, 0.5])


def test_eta_alpha_half_n2_atoms():
    # s_2^2 = 2n - H_2 = 4 - 1.5 = 2.5; cell 2 has all four atoms at
    # probability 1/4 each.
    row = build_eta_row(0.5, 2)
    assert row.meta["scale_squared"] == pytest.approx(2.5, abs=1e-14)
    s = math.sqrt(2.5)
    cell1, cell2 = row.cell(0), row.cell(1)
    assert cell1.points.ravel() == pytest.approx([-1 / s, 1 / s])
    assert cell1.probs == pytest.approx([0.5, 0.5])
    assert cell2.points.ravel() == pytest.approx(
        [-math.sqrt(2) / s, -1 / s, 1 / s, math.sqrt(2) / s]
    )
    assert cell2.probs == pytest.approx([0.25, 0.25, 0.25, 0.25])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_eta_second_moment_sum_is_one(alpha, n):
    row = build_eta_row(alpha, n)
    report = validate_row(row)
    assert report.second_moment_sum == pytest.approx(1.0, abs=1e-12)


def test_eta_parameter_validation():
    with pytest.raises(ParameterError):
        build_eta_row(0.0, 5)
    with pytest.raises(ParameterError):
        build_eta_row(1.0, 5)
    with pytest.raises(ConstructionError, match="k"):
        build_eta_row(0.7, 5)


def test_eta_shifted_start_override():
    row = build_eta_row(0.8, 20, allow_shifted_start=True)
    # beta = 4 (up to float dust in 0.8/0.2), so the correction starts at k = 4
    assert row.meta["shifted_start"] == 4
    report = validate_row(row)
    assert report.passed
    assert report.second_moment_sum == pytest.approx(1.0, abs=1e-12)
    # leading cells are plain coins; at k = 4 the +-1/s pair carries no
    # mass (beta/k = 1), from k = 5 all four atoms are present
    assert row.cell(0).atom_count == 2
    assert row.cell(3).atom_count == 2
    assert row.cell(4).atom_count == 4


def test_eta_scale_grows_monotonically():
    # increments are (1 + beta) - beta/(n+1) > 0; spot-check the closed
    # form on a dense grid up to 1e5 via one cumulative sum
    beta = 0.5 / 0.5
    n_max = 100_000
    harmonic = np.cumsum(1.0 / np.arange(1, n_max + 1))
    s2 = (1 + beta) * np.arange(1, n_max + 1) - beta * harmonic
    assert np.all(np.diff(s2) > 0)
    assert s2[-1] > 1e5
    for n in (1, 2, 10, 1000):
        assert eta_scale_squared(0.5, n) == pytest.approx(s2[n - 1], rel=1e-12)


def test_product_of_two_coins():
    row = build_product_row([build_rademacher_row(1), build_rademacher_row(1)])
    assert row.dimension == 2
    cell = row.cell(0)
    assert cell.atom_count == 4
    assert np.array_equal(
        cell.points, [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    assert cell.probs == pytest.approx([0.25] * 4)


def test_product_covariance_is_identity():
    row = build_product_row([build_rademacher_row(6), build_rademacher_row(6)])
    report = validate_row(row)
    assert report.passed
    assert report.second_moment_sum == pytest.approx(2.0, abs=1e-12)
    assert report.cov_residual < 1e-12


def test_product_shape_and_capacity_errors():
    with pytest.raises(ShapeError):
        build_product_row([build_rademacher_row(2), build_rademacher_row(3)])
    with pytest.raises(ShapeError):
        two_dim = build_product_row([build_rademacher_row(2), build_rademacher_row(2)])
        build_product_row([two_dim, build_rademacher_row(2)])
    with pytest.raises(CapacityError):
        build_product_row([build_rademacher_row(3)] * 2, atom_cap=3)


def test_validate_detects_bad_mean():
    cell = DiscreteCell(np.array([[1.0], [-1.0]]), np.array([0.6, 0.4]))
    with pytest.raises(RowValidationError, match="cell 0") as excinfo:
        ArrayRow.from_cells([cell])
    report = excinfo.value.report
    assert not report.passed
    assert report.mean_residuals[0] == pytest.approx(0.2, abs=1e-15)
    assert report.failing_cells == (0,)


def test_strict_validation_leaves_cached_row_usable():
    # validate_row only inspects: a failed strict check must not disable
    # the shared family row for later callers
    family = EtaAlphaFamily(0.5)
    row = family.row(1000)
    before, meta = dict(vars(row)), dict(row.meta)
    assert validate_row(row).passed
    assert not validate_row(row, tol_mean=1e-30, tol_cov=1e-30).passed
    assert vars(row).keys() == before.keys()
    assert all(vars(row)[key] is value for key, value in before.items())
    assert row.meta == meta
    assert charfn_gap(family.row(1000), 1.0) == charfn_gap(build_eta_row(0.5, 1000), 1.0)


def test_validate_clean_row_residuals_zero():
    report = validate_row(build_rademacher_row(10))
    assert report.passed
    assert np.max(report.prob_residuals) == 0.0
    assert np.max(report.mean_residuals) == 0.0
    assert report.cov_residual < 1e-15


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: build_rademacher_row(n),
        lambda n: build_eta_row(0.3, n),
        lambda n: build_eta_row(0.5, n),
        lambda n: build_product_row([build_rademacher_row(n), build_rademacher_row(n)]),
    ],
)
def test_builtin_rows_meet_standard_tolerances(factory):
    # dense sweep through n <= 1000: all of 1..50, then every 38th
    for n in [*range(1, 51), *range(50, 1001, 38)]:
        report = validate_row(factory(n))
        assert np.max(report.mean_residuals) < 1e-12, n
        assert report.cov_residual < 1e-10, n


def test_cell_constructor_rejects_bad_probabilities():
    with pytest.raises(ParameterError):
        DiscreteCell(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ParameterError):
        DiscreteCell(np.array([[1.0]]), np.array([1.5]))
    with pytest.raises(ShapeError):
        DiscreteCell(np.array([[1.0], [2.0]]), np.array([1.0]))


def test_row_constructor_rejects_signed_measures():
    # validate_row passes this row (masses sum to one, mean zero, unit
    # variance), but -3 is not a probability: its "transform gap" at 2 pi
    # was 7.0, outside [0, 2]
    with pytest.raises(ParameterError, match=r"\(0, 1\]"):
        ArrayRow(1, [-0.5, 0.0, 0.5], [2.0, -3.0, 2.0], [0, 3])
    with pytest.raises(ParameterError, match=r"\(0, 1\]"):
        ArrayRow(1, [-1.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0, 3])


def test_row_data_is_read_only():
    row = EtaAlphaFamily(0.5).row(6)
    for array in (row.points, row.probs, row.offsets, row.squared_norms()):
        with pytest.raises(ValueError):
            array[0] = 0.9
    with pytest.raises(ValueError):
        row.cell(1).probs[0] = 0.9
    assert EtaAlphaFamily(0.5).row(6).probs[0] == row.probs[0]
    # the caller's own arrays keep their flags
    points, probs = np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])
    offsets = np.array([0, 2])
    ArrayRow(1, points, probs, offsets)
    assert points.flags.writeable and probs.flags.writeable and offsets.flags.writeable


def test_row_fields_cannot_be_rebound():
    # a rebound field would bypass the build-time validation and, on a
    # family row, change the shared cached row
    family = EtaAlphaFamily(0.5)
    row = family.row(10)
    for name in ("dimension", "points", "probs", "offsets", "meta", "_norm2"):
        with pytest.raises(FrozenInstanceError):
            setattr(row, name, getattr(row, name))
    with pytest.raises(FrozenInstanceError):
        row.probs = np.full(row.probs.size, 0.9)
    assert family.row(10) is row
    assert charfn_gap(row, 1.0) == charfn_gap(build_eta_row(0.5, 10), 1.0)
    assert row.squared_norms() is row.squared_norms()


def test_row_roundtrip_is_bit_exact():
    row = build_eta_row(0.3, 9)
    loaded = load_row_spec(serialize_row(row))
    assert isinstance(loaded, ArrayRow)
    assert np.array_equal(loaded.points, row.points)
    assert np.array_equal(loaded.probs, row.probs)
    assert np.array_equal(loaded.offsets, row.offsets)


@settings(max_examples=60, deadline=None)
@given(centred_rows())
def test_random_row_roundtrip_is_bit_exact(row):
    loaded = load_row_spec(serialize_row(row))
    assert np.array_equal(loaded.points, row.points)
    assert np.array_equal(loaded.probs, row.probs)
    assert np.array_equal(loaded.offsets, row.offsets)


def test_family_roundtrips():
    for family in (
        RademacherFamily(),
        EtaAlphaFamily(0.5),
        EtaAlphaFamily(0.75, shifted_start=True),
        ProductFamily([RademacherFamily(), EtaAlphaFamily(0.4)]),
    ):
        loaded = load_row_spec(serialize_family(family))
        row_a, row_b = family.row(5), loaded.row(5)
        assert np.array_equal(row_a.points, row_b.points)
        assert np.array_equal(row_a.probs, row_b.probs)


def test_family_row_generation_matches_builders():
    assert np.array_equal(RademacherFamily().row(2).points, build_rademacher_row(2).points)
    assert np.array_equal(EtaAlphaFamily(0.5).row(2).points, build_eta_row(0.5, 2).points)


def test_spec_parse_errors_have_context():
    with pytest.raises(RowSpecError, match="line"):
        load_row_spec("{not json")
    with pytest.raises(RowSpecError, match="schema"):
        load_row_spec('{"schema": "other/9", "kind": "rademacher_iid"}')
    with pytest.raises(RowSpecError, match="kind"):
        load_row_spec('{"schema": "stein-clt-row/1", "kind": "mystery"}')
    with pytest.raises(RowSpecError, match=r"atoms\[0\]\.p"):
        load_row_spec(
            '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,'
            ' "cells": [{"atoms": [{"x": [1.0], "p": 1.5}]}]}'
        )


def test_spec_validation_error_names_cell():
    bad = (
        '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,'
        ' "cells": [{"atoms": [{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.4}]}]}'
    )
    with pytest.raises(RowValidationError, match="cell 0") as excinfo:
        load_row_spec(bad)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.passed


def test_explicit_family_spec():
    doc = (
        '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1, "rows": {'
        '"1": [{"atoms": [{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.5}]}],'
        '"2": [{"atoms": [{"x": [0.7071067811865476], "p": 0.5},'
        ' {"x": [-0.7071067811865476], "p": 0.5}]},'
        ' {"atoms": [{"x": [0.7071067811865476], "p": 0.5},'
        ' {"x": [-0.7071067811865476], "p": 0.5}]}]}}'
    )
    family = load_row_spec(doc)
    assert family.row(1).n == 1
    assert family.row(2).n == 2
    with pytest.raises(ConstructionError, match="n=3"):
        family.row(3)
