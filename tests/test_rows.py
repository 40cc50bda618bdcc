import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinclt import (
    ArrayRow,
    CapacityError,
    ConstructionError,
    EtaAlphaFamily,
    ExplicitFamily,
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
    infinitesimality_profile,
    l_sum,
    lindeberg_sum,
    load_row_spec,
    master_bound,
    serialize_family,
    serialize_row,
    theorem_bound_report,
    validate_row,
)
from oracles import (
    cells_doc_oracle,
    eta_row_oracle,
    product_row_oracle,
    project_oracle,
    validation_oracle,
)
from steinclt.indices import _directional_sums
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
    assert eta_scale_squared(0.5, 2) == pytest.approx(2.5, abs=1e-14)
    row = build_eta_row(0.5, 2)
    s = math.sqrt(2.5)
    (points1, probs1), (points2, probs2) = row.cell(0), row.cell(1)
    assert points1.ravel() == pytest.approx([-1 / s, 1 / s])
    assert probs1 == pytest.approx([0.5, 0.5])
    assert points2.ravel() == pytest.approx(
        [-math.sqrt(2) / s, -1 / s, 1 / s, math.sqrt(2) / s]
    )
    assert probs2 == pytest.approx([0.25, 0.25, 0.25, 0.25])


@pytest.mark.parametrize("alpha, n", [(1.0, 5), (0.5, 0), (0.5, -3), (-0.5, 4), (float("nan"), 4),
                                      (0.0, 4)])
def test_eta_scale_squared_refuses_what_the_builder_refuses(alpha, n):
    with pytest.raises(ParameterError):
        eta_scale_squared(alpha, n)
    with pytest.raises(ParameterError):
        build_eta_row(alpha, n)


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
    report = validate_row(row)
    assert report.passed
    assert report.second_moment_sum == pytest.approx(1.0, abs=1e-12)
    # leading cells are plain coins; at k = 4 the +-1/s pair carries no
    # mass (beta/k = 1), from k = 5 all four atoms are present
    assert [row.cell(k)[1].size for k in (0, 3, 4)] == [2, 2, 4]


ETA_ALPHAS = [1e-9, 0.01, 0.1, 0.25, 0.3, 0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9, 0.99]


@pytest.mark.parametrize("alpha", ETA_ALPHAS)
@pytest.mark.parametrize("shifted", [False, True])
def test_eta_row_matches_the_per_cell_definition(alpha, shifted):
    # bit for bit: plain coins, the k = beta cells whose +-1/s pair is
    # massless (alpha = 2/3, 0.75, 0.8, ...) and the four-atom cells
    for n in (1, 2, 3, 4, 5, 10, 101, 1000):
        try:
            expected = eta_row_oracle(alpha, n, shifted)
        except ConstructionError:
            with pytest.raises(ConstructionError):
                build_eta_row(alpha, n, allow_shifted_start=shifted)
            continue
        row = build_eta_row(alpha, n, allow_shifted_start=shifted)
        points, probs, offsets = expected
        assert np.array_equal(row.points, points)
        assert np.array_equal(row.probs, probs)
        assert np.array_equal(row.offsets, offsets)


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_eta_row_matches_the_per_cell_definition_at_large_n(alpha):
    row = build_eta_row(alpha, 100_000, allow_shifted_start=True)
    points, probs, offsets = eta_row_oracle(alpha, 100_000, True)
    assert np.array_equal(row.points, points) and np.array_equal(row.probs, probs)
    assert np.array_equal(row.offsets, offsets)


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
    points, probs = row.cell(0)
    assert np.array_equal(
        points, [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    assert probs == pytest.approx([0.25] * 4)


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
    # one cell of 101 x 101 = 10 201 atoms, above the 10 000 cap
    grid = np.arange(-50, 51)[:, None] / math.sqrt(850.0)  # unit variance
    wide = ArrayRow.from_cells([(grid, np.full(101, 1 / 101))])
    with pytest.raises(CapacityError, match="cell 0 would hold 10201 atoms"):
        build_product_row([wide, wide])


def random_coordinate_row(rng):
    """A standard 1-D row of 1-7 cells with 1-4 unsorted atoms each, drawn
    from a few integers so coordinates repeat within and across cells."""
    while True:
        cells = []
        for _ in range(int(rng.integers(1, 8))):
            x = rng.integers(-2, 3, int(rng.integers(1, 5))).astype(float)
            q = rng.uniform(0.1, 1.0, x.size)
            q /= q.sum()
            cells.append((x - q @ x, q))
        var = sum(q @ (x * x) for x, q in cells)
        if var > 0:
            return [(x[:, None] / math.sqrt(var), q) for x, q in cells]


def random_products(count):
    rng = np.random.default_rng(2024)
    products = []
    while len(products) < count:
        first = random_coordinate_row(rng)
        n, dim = len(first), int(rng.integers(1, 4))
        factors = [first]
        while len(factors) < dim:
            other = random_coordinate_row(rng)
            if len(other) == n:
                factors.append(other)
        try:
            products.append([ArrayRow.from_cells(cells) for cells in factors])
        except RowValidationError:
            continue
    return products


BUILTIN_PRODUCTS = [
    [build_rademacher_row(40)] * 3,
    [build_eta_row(0.3, 60), build_eta_row(0.5, 60)],
    [build_eta_row(0.8, 30, allow_shifted_start=True), build_rademacher_row(30),
     build_eta_row(0.4, 30)],
]


def test_product_rows_match_the_cell_loop_oracle():
    # the one-pass builder must reproduce the per-cell construction bit
    # for bit: same atom order, same product rounding, same offsets
    for factors in random_products(40) + BUILTIN_PRODUCTS:
        row = build_product_row(factors)
        points, probs, offsets = product_row_oracle(factors)
        assert np.array_equal(row.points, points)
        assert np.array_equal(row.probs, probs)
        assert np.array_equal(row.offsets, offsets)


def test_validate_detects_bad_mean():
    cell = (np.array([[1.0], [-1.0]]), np.array([0.6, 0.4]))
    with pytest.raises(RowValidationError, match="cell 0") as excinfo:
        ArrayRow.from_cells([cell])
    report = excinfo.value.report
    assert not report.passed
    assert report.mean_residuals[0] == pytest.approx(0.2, abs=1e-15)
    assert report.failing_cells == (0,)


def test_strict_validation_leaves_cached_row_usable():
    # validate_row only inspects: re-checking the shared family row must
    # leave it as later callers get it
    family = EtaAlphaFamily(0.5)
    row = family.row(1000)
    before = dict(vars(row))
    assert validate_row(row).passed
    assert vars(row).keys() == before.keys()
    assert all(vars(row)[key] is value for key, value in before.items())
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
        ArrayRow.from_cells([([[1.0]], [0.0])])
    with pytest.raises(ParameterError):
        ArrayRow.from_cells([([[1.0]], [1.5])])
    with pytest.raises(ShapeError):
        ArrayRow.from_cells([([[1.0], [2.0]], [1.0])])
    with pytest.raises(ShapeError):
        ArrayRow.from_cells([([[1.0], [2.0]], [1.0]), ([[1.0]], [0.5, 0.5])])


@pytest.mark.parametrize("points, probs, message", [
    ([-np.inf, np.inf], [0.5, 0.5], "coordinates must be finite"),
    ([-1.0, np.nan], [0.5, 0.5], "coordinates must be finite"),
    ([-1.0, 1.0], [0.5, np.nan], r"\(0, 1\]"),
])
def test_row_constructor_rejects_non_finite_atoms(points, probs, message):
    # one atom check for every row: before validation, and without a
    # numpy invalid-value warning
    with pytest.raises(ParameterError, match=message):
        ArrayRow(1, points, probs, [0, 2])


def test_row_constructor_rejects_signed_measures():
    # validate_row passes this row (masses sum to one, mean zero, unit
    # variance), but -3 is not a probability: its "transform gap" at 2 pi
    # was 7.0, outside [0, 2]
    with pytest.raises(ParameterError, match=r"\(0, 1\]"):
        ArrayRow(1, [-0.5, 0.0, 0.5], [2.0, -3.0, 2.0], [0, 3])
    with pytest.raises(ParameterError, match=r"\(0, 1\]"):
        ArrayRow(1, [-1.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0, 3])


COIN = ([[-1.0], [1.0]], [0.5, 0.5])


@pytest.mark.parametrize("build, error, message", [
    (lambda: ProductFamily([]), ShapeError, "at least one factor"),
    (lambda: ProductFamily([ProductFamily([RademacherFamily()] * 2)]), ShapeError,
     "factor 0 must be one-dimensional"),
    (lambda: ExplicitFamily({}), ShapeError, "at least one row"),
    (lambda: ExplicitFamily({1: ArrayRow.from_cells([COIN]),
                             2: build_product_row([build_rademacher_row(2)] * 2)}),
     ShapeError, "share one dimension"),
    (lambda: ExplicitFamily({3: build_rademacher_row(2)}), ShapeError,
     "stored under n=3 actually has 2 cells"),
    (lambda: ArrayRow(1, [-1.0, 1.0], [1.0], [0, 2]), ShapeError, "one entry per atom"),
    (lambda: ArrayRow(1, [-1.0, 1.0], [0.5, 0.5], [0, 1]), ShapeError, "span the atom arrays"),
    (lambda: ArrayRow(1, [-1.0, 1.0], [0.5, 0.5], [0, 0, 2]), ParameterError,
     "at least one atom"),
    (lambda: ArrayRow.from_cells([]), ParameterError, "at least one cell"),
    (lambda: ArrayRow.from_cells([COIN, ([[-1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])]), ShapeError,
     "share one dimension"),
    (lambda: build_product_row([]), ParameterError, "at least one coordinate row"),
], ids=["product-no-factor", "product-2d-factor", "explicit-no-row", "explicit-mixed-dims",
        "explicit-wrong-n", "points-probs-lengths", "offsets-short", "empty-cell",
        "from-no-cells", "from-mixed-dims", "product-row-no-factor"])
def test_constructors_reject_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_row_data_is_read_only():
    row = EtaAlphaFamily(0.5).row(6)
    for array in (row.points, row.probs, row.offsets):
        with pytest.raises(ValueError):
            array[0] = 0.9
    points, probs = row.cell(1)
    with pytest.raises(ValueError):
        probs[0] = 0.9
    assert np.shares_memory(points, row.points) and np.shares_memory(probs, row.probs)
    assert EtaAlphaFamily(0.5).row(6).probs[0] == row.probs[0]
    # the caller's own arrays keep their flags
    points, probs = np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])
    offsets = np.array([0, 2])
    ArrayRow(1, points, probs, offsets)
    assert points.flags.writeable and probs.flags.writeable and offsets.flags.writeable


def test_cell_index_is_checked():
    row = build_rademacher_row(3)
    assert row.cell(2)[1].size == 2
    for k in (-1, 3):
        with pytest.raises(IndexError, match=f"cell index {k} .* n=3"):
            row.cell(k)


def test_row_fields_cannot_be_rebound():
    # a rebound field would bypass the build-time validation and, on a
    # family row, change the shared cached row
    family = EtaAlphaFamily(0.5)
    row = family.row(10)
    for name in ("dimension", "points", "probs", "offsets"):
        with pytest.raises(FrozenInstanceError):
            setattr(row, name, getattr(row, name))
    with pytest.raises(FrozenInstanceError):
        row.probs = np.full(row.probs.size, 0.9)
    assert family.row(10) is row
    assert charfn_gap(row, 1.0) == charfn_gap(build_eta_row(0.5, 10), 1.0)


def test_rows_hold_only_their_data():
    # a family row is cached for the life of the process, so nothing a
    # caller derives from it may stay attached to it
    assert [f.name for f in fields(ArrayRow)] == ["dimension", "points", "probs", "offsets"]
    family = EtaAlphaFamily(0.5)
    row = family.row(40)
    before = dict(vars(row))
    eps = [0.5, 0.1]
    lindeberg = lindeberg_sum(row, eps)
    same = l_sum(row, "same", 2.0, eps)
    indep = l_sum(row, "independent", 2.0, eps)
    _directional_sums(row, np.array([[2.0], [0.5]]), eps)
    master_bound(row, 2.0, eps)
    theorem_bound_report(family, [1.0, 2.0], [10, 40], eps)
    infinitesimality_profile(row, 0.3)
    assert vars(row).keys() == before.keys()
    assert all(vars(row)[key] is value for key, value in before.items())
    # a derived array is the caller's own: writing into it moves no later sum
    row.squared_norms()[:] = 0.0
    assert lindeberg_sum(row, eps).tolist() == lindeberg.tolist()
    assert l_sum(row, "same", 2.0, eps).tolist() == same.tolist()
    assert l_sum(row, "independent", 2.0, eps).tolist() == indep.tolist()


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


NINE_COINS = build_product_row([build_rademacher_row(3)] * 9)


@settings(max_examples=60, deadline=None)
@given(st.one_of(centred_rows(), st.just(NINE_COINS)), st.data())
def test_project_batch_entries_equal_single_t_and_the_oracle(row, data):
    coords = st.one_of(st.just(0.0), st.floats(-6.0, 6.0, allow_subnormal=False))
    vector = st.lists(coords, min_size=row.dimension, max_size=row.dimension)
    batch = np.array(data.draw(st.lists(vector, max_size=5))).reshape(-1, row.dimension)
    table = row.project(batch)
    assert table.shape == (len(batch), row.total_atoms)
    # an atom range gives the same entries as the whole row
    start = data.draw(st.integers(0, row.total_atoms))
    stop = data.draw(st.integers(start, row.total_atoms))
    assert row.project(batch, start, stop).tolist() == table[:, start:stop].tolist()
    for values, t in zip(table, batch):
        single = row.project(t)
        assert single.shape == (row.total_atoms,)
        assert values.tolist() == single.tolist()
        assert single.tolist() == [project_oracle(x, t) for x in row.points]
        if row.dimension == 1:  # one product per atom, as in a matrix product
            assert single.tolist() == (row.points @ t).tolist()
    if row.dimension == 1:
        assert table.tolist() == (batch @ row.points.T).tolist()


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


ONE_ATOM = '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1, "cells": [{"atoms": [%s]}]}'
COIN_ROW = ONE_ATOM % '{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.5}'
CELLS = '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1, "cells": %s}'


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
    with pytest.raises(RowSpecError, match="document: missing required field 'schema'"):
        load_row_spec('{"kind": "rademacher_iid"}')
    with pytest.raises(RowSpecError, match=r"document\.cells\[0\]\.atoms: must be non-empty"):
        load_row_spec(ONE_ATOM % "")
    with pytest.raises(RowSpecError, match=r"document\.alpha: must lie in \(0, 1\)"):
        load_row_spec('{"schema": "stein-clt-row/1", "kind": "eta_alpha", "alpha": 1.0}')
    with pytest.raises(RowSpecError, match=r"document\.N: must be >= 1"):
        load_row_spec(COIN_ROW.replace('"N": 1', '"N": 0'))
    rows = '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1, "rows": {"%s": [%s]}}'
    coin_cell = '{"atoms": [{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.5}]}'
    with pytest.raises(RowSpecError, match=r"document\.rows: key 'one' is not an integer"):
        load_row_spec(rows % ("one", coin_cell))
    with pytest.raises(RowSpecError, match=r"document\.rows\[2\]: 1 cells listed under n=2"):
        load_row_spec(rows % ("2", coin_cell))


@pytest.mark.parametrize("doc, field", [
    ('{"schema": "stein-clt-row/1", "kind": "eta_alpha", "alpha": 0.7, "shifted_start": "false"}',
     "document.shifted_start"),
    (ONE_ATOM % '{"x": [true], "p": 1.0}', r"document.cells\[0\].atoms\[0\].x"),
    (ONE_ATOM % '{"x": [0.0], "p": true}', r"document.cells\[0\].atoms\[0\].p"),
    (ONE_ATOM % '{"x": [NaN], "p": 1.0}', r"document.cells\[0\].atoms\[0\].x"),
    (ONE_ATOM % '{"x": [-Infinity], "p": 1.0}', r"document.cells\[0\].atoms\[0\].x"),
    (COIN_ROW.replace('"N": 1', '"N": true'), "document.N"),
    ('{"schema": "stein-clt-row/1", "kind": "product", "factors": [%s]}' % COIN_ROW,
     r"document.factors\[0\]"),
    ('{"schema": "stein-clt-row/1", "kind": "product", "factors": [5]}', r"document.factors\[0\]"),
    (ONE_ATOM % ('{"x": [1%s], "p": 1.0}' % ("0" * 400)), r"document.cells\[0\].atoms\[0\].x"),
    ('{"schema": "stein-clt-row/1", "kind": "product", "factors": [{"kind": "product", '
     '"factors": [{"kind": "rademacher_iid"}, {"kind": "rademacher_iid"}]}]}',
     r"document.factors\[0\]"),
    (CELLS % "{}", "document: 'cells' must be a non-empty list"),
    (CELLS % "[]", "document: 'cells' must be a non-empty list"),
    (CELLS % "[5]", r"document.cells\[0\]: expected an object"),
    (ONE_ATOM % "5", r"document.cells\[0\].atoms\[0\]: expected an object"),
    ("[]", "top level of an array-spec document must be an object"),
], ids=["string-shifted-start", "bool-x", "bool-p", "nan-x", "inf-x", "bool-N", "row-factor",
        "number-factor", "huge-integer-x", "nested-product-factor", "object-cells", "empty-cells",
        "number-cell", "number-atom", "array-document"])
def test_spec_rejects_mistyped_fields(doc, field):
    # a JSON boolean is not a number, a string is not a boolean, a
    # non-finite coordinate (or an integer beyond the float range) is not
    # an atom, and a single row or a multivariate family is not a factor
    with pytest.raises(RowSpecError, match=field):
        load_row_spec(doc)


def test_serialized_documents_match_the_per_cell_writer():
    row = build_eta_row(0.5, 1000)
    expected = {"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,
                "cells": cells_doc_oracle(row)}
    assert serialize_row(row) == json.dumps(expected, indent=1)
    rows = {n: build_product_row([build_eta_row(0.4, n), build_rademacher_row(n)])
            for n in (3, 5)}
    expected = {"schema": "stein-clt-row/1", "kind": "explicit", "N": 2,
                "rows": {str(n): cells_doc_oracle(r) for n, r in rows.items()}}
    assert serialize_family(ExplicitFamily(rows)) == json.dumps(expected, indent=1)


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


def assert_report_matches_oracle(report, dimension, points, probs, offsets):
    expected = validation_oracle(dimension, points, probs, offsets)
    for name, value in expected.items():
        got = getattr(report, name)
        if isinstance(value, np.ndarray):
            assert got.shape == value.shape and got.tolist() == value.tolist(), name
        else:
            assert type(got) is type(value) and got == value, name


@settings(max_examples=60, deadline=None)
@given(centred_rows())
def test_validation_report_matches_the_plain_oracle(row):
    report = validate_row(row)
    assert_report_matches_oracle(report, row.dimension, row.points, row.probs, row.offsets)


@settings(max_examples=60, deadline=None)
@given(centred_rows(), st.sampled_from(["mean", "prob", "cov"]), st.data())
def test_failed_validation_report_matches_the_plain_oracle(row, fault, data):
    points, probs = row.points.copy(), row.probs.copy()
    k = data.draw(st.integers(0, row.n - 1))
    cell = slice(row.offsets[k], row.offsets[k + 1])
    if fault == "mean":
        points[cell] += data.draw(st.floats(1e-6, 1.0))
    elif fault == "prob":
        probs[cell] *= data.draw(st.floats(0.5, 0.99))
    else:
        points *= 1.1
    with pytest.raises(RowValidationError) as err:
        ArrayRow(row.dimension, points, probs, row.offsets)
    report = err.value.report
    assert not report.passed and bool(report.failing_cells) == (fault != "cov")
    assert_report_matches_oracle(report, row.dimension, points, probs, row.offsets)


# VmHWM is this process's own peak; ru_maxrss would carry the high-water
# mark of the forking test process across exec
BUILD_PEAK_CODE = """
from steinclt import EtaAlphaFamily

def status():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) * 1024 for key in ("VmHWM", "VmRSS")}

before = status()
row = EtaAlphaFamily(0.5).row(300_000)
after = status()
print((after["VmHWM"] - before["VmRSS"]) / (row.points.nbytes + row.probs.nbytes + row.offsets.nbytes))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc/self/status")
def test_building_a_row_peaks_below_three_times_its_arrays():
    package = os.path.dirname(sys.modules[ArrayRow.__module__].__file__)
    done = subprocess.run([sys.executable, "-c", BUILD_PEAK_CODE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(package)},
                          check=True, timeout=60)
    # about 2.5 on glibc; 4.4 while the builder kept its (n, 4) tables
    # alive through validation
    assert float(done.stdout) <= 3.0
