import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinclt import (
    ArrayRow,
    EtaAlphaFamily,
    ParameterError,
    RademacherFamily,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    cauchy_schwarz_domination,
    infinitesimality_profile,
    l_sum,
    lindeberg_index_estimate,
    lindeberg_sum,
    validate_row,
)


from oracles import eta_lindeberg_oracle, truncated_sum_oracle


def test_lindeberg_sum_examples():
    row = build_rademacher_row(4)  # atoms +-1/2
    assert lindeberg_sum(row, 0.6) == 0.0
    assert lindeberg_sum(row, 0.4) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ParameterError):
        lindeberg_sum(row, 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("n", [10, 1000, 10_000])
@pytest.mark.parametrize("eps", [0.011, 0.052, 0.21, 0.87])
def test_lindeberg_sum_matches_tail_count_oracle(alpha, n, eps):
    row = build_eta_row(alpha, n)
    assert lindeberg_sum(row, eps) == pytest.approx(
        eta_lindeberg_oracle(alpha, n, eps), abs=1e-10
    )


def test_lindeberg_sum_monotone_and_bounded():
    row = build_eta_row(0.5, 500)
    eps_grid = np.geomspace(1e-3, 1.0, 25)
    sums = [lindeberg_sum(row, eps) for eps in eps_grid]
    assert all(a >= b - 1e-15 for a, b in zip(sums, sums[1:]))  # non-increasing in eps
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in sums)


def test_index_estimate_rademacher_vanishes():
    # sums are exactly 0 once 1/sqrt(n) < eps for every tail n; with
    # eps >= 0.01 that needs tail n > 1e4
    estimate = lindeberg_index_estimate(
        RademacherFamily(), eps_grid=np.geomspace(1.0, 0.01, 7),
        n_grid=(100, 20_000, 50_000, 100_000), tail_window=3,
    )
    assert estimate.value == 0.0
    assert estimate.per_point.shape == (7, 4)


def test_index_estimate_eta_tracks_alpha():
    estimate = lindeberg_index_estimate(
        EtaAlphaFamily(0.5), eps_grid=(0.3, 0.1, 0.03),
        n_grid=(1000, 3000, 10_000, 30_000), tail_window=3,
    )
    assert estimate.value == pytest.approx(0.5, abs=0.05)
    assert 0.0 <= estimate.value <= 1.0


def test_index_estimate_validates_grids():
    with pytest.raises(ParameterError):
        lindeberg_index_estimate(RademacherFamily(), eps_grid=(), n_grid=(10,))
    with pytest.raises(ParameterError):
        lindeberg_index_estimate(RademacherFamily(), eps_grid=(0.1,), n_grid=(10, 10))


def test_index_estimate_value_matches_per_point_table():
    estimate = lindeberg_index_estimate(
        EtaAlphaFamily(0.4), eps_grid=(0.5, 0.1, 0.02),
        n_grid=(50, 200, 1000, 5000), tail_window=2,
    )
    recomputed = float(np.max(estimate.per_point[:, -estimate.tail_window:]))
    assert estimate.value == recomputed
    assert 0.0 <= estimate.value <= 1.0


def test_index_estimate_propagates_missing_rows():
    from steinclt import ConstructionError, ExplicitFamily, build_rademacher_row

    family = ExplicitFamily({2: build_rademacher_row(2)})
    with pytest.raises(ConstructionError, match="n=5"):
        lindeberg_index_estimate(family, eps_grid=(0.1,), n_grid=(2, 5))


def test_l_sum_examples():
    row = build_rademacher_row(25)
    assert l_sum(row, "same", 0.0) == 0.0
    assert l_sum(row, "independent", 0.0) == 0.0
    assert l_sum(row, "same", 1.0) == 0.0  # |x t| = 0.2 <= 1
    with pytest.raises(ParameterError):
        l_sum(row, "both", 1.0)


def test_l_sum_univariate_equals_lindeberg():
    rng = np.random.default_rng(21)
    for row in (build_rademacher_row(9), build_eta_row(0.4, 30)):
        for _ in range(20):
            t = rng.uniform(0.1, 20.0) * rng.choice([-1.0, 1.0])
            threshold = rng.uniform(0.05, 2.0)
            # |x t| > thr  <=>  |x| > thr/|t| in dimension one
            assert l_sum(row, "same", t, threshold) == pytest.approx(
                lindeberg_sum(row, threshold / abs(t)), abs=1e-14
            )


def test_l_sum_independent_dominated_by_max_tail():
    rng = np.random.default_rng(5)
    rows = [build_eta_row(0.5, 40),
            build_product_row([build_rademacher_row(12), build_rademacher_row(12)])]
    for row in rows:
        norm2 = row.squared_norms()
        for _ in range(25):
            t = rng.uniform(-6, 6, row.dimension)
            norm = np.linalg.norm(t)
            if norm == 0:
                continue
            value = l_sum(row, "independent", t, 1.0)
            tails = row.per_cell_sum(row.probs * (norm2 > (1.0 / norm) ** 2))
            assert value <= row.dimension * np.max(tails) + 1e-12


def test_infinitesimality_profile_examples():
    row = build_rademacher_row(100)
    max_prob, bound = infinitesimality_profile(row, 0.5)
    assert max_prob == 0.0
    assert max_prob <= bound

    row4 = build_rademacher_row(4)
    max_prob, bound = infinitesimality_profile(row4, 0.4)
    assert max_prob == 1.0
    assert bound == pytest.approx(0.4**-2 * 1.0 + 0.16, abs=1e-12)
    assert max_prob <= bound


def test_infinitesimality_bound_dominates_everywhere():
    rng = np.random.default_rng(31)
    rows = [build_eta_row(0.5, 17), build_rademacher_row(6),
            build_product_row([build_rademacher_row(8), build_rademacher_row(8)])]
    for row in rows:
        for _ in range(20):
            eps = rng.uniform(0.02, 2.0)
            max_prob, bound = infinitesimality_profile(row, eps)
            assert max_prob <= bound + 1e-14


def test_eta_family_is_infinitesimal_in_n():
    # max cell tail probability is 1/ceil(eps^2 s_n^2) once n is large
    for eps in (0.1, 0.5):
        probs = [infinitesimality_profile(build_eta_row(0.5, n), eps)[0]
                 for n in (10, 100, 2000)]
        assert probs[0] > probs[-1]
        assert probs[-1] < 0.03


def test_cauchy_schwarz_domination():
    row = build_product_row([build_rademacher_row(9), build_rademacher_row(9)])
    lhs, rhs = cauchy_schwarz_domination(row, [3.0, 0.0])
    # |3 x_1| = 1 exactly: strict inequality keeps lhs empty, while
    # |x| = sqrt(2)/3 > 1/3 counts every atom into rhs
    assert lhs == 0.0
    assert rhs == pytest.approx(2.0, abs=1e-12)

    with pytest.raises(ParameterError):
        cauchy_schwarz_domination(row, [0.0, 0.0])


def test_cauchy_schwarz_equality_in_dimension_one():
    rng = np.random.default_rng(8)
    row = build_eta_row(0.3, 25)
    for _ in range(20):
        t = rng.uniform(0.2, 15.0)
        lhs, rhs = cauchy_schwarz_domination(row, t)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_cauchy_schwarz_inequality_random():
    rng = np.random.default_rng(13)
    row = build_product_row([build_rademacher_row(10), build_eta_row(0.5, 10)])
    for _ in range(50):
        t = rng.uniform(-8, 8, 2)
        if np.linalg.norm(t) == 0:
            continue
        lhs, rhs = cauchy_schwarz_domination(row, t)
        assert lhs <= rhs + 1e-14


def test_threshold_ties_are_excluded():
    row = build_rademacher_row(25)  # |x t| = 0.2 exactly at t = 1
    assert l_sum(row, "same", 1.0, 0.2) == 0.0
    assert l_sum(row, "independent", 1.0, 0.2) == 0.0
    assert lindeberg_sum(row, 0.2) == 0.0


def test_grid_arguments_are_one_dimensional_and_positive():
    row = build_rademacher_row(4)
    assert isinstance(lindeberg_sum(row, 0.4), float)
    assert isinstance(l_sum(row, "same", 1.0, np.float64(0.4)), float)
    with pytest.raises(ParameterError):
        lindeberg_sum(row, [[0.1, 0.2]])
    with pytest.raises(ParameterError):
        lindeberg_sum(row, [0.1, 0.0])
    with pytest.raises(ParameterError):
        l_sum(row, "same", 1.0, [[0.1]])


@st.composite
def symmetric_rows(draw):
    """Explicit rows of cells with atoms +-x of equal mass, whitened so the
    cell covariances sum to the identity."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(dim, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = []
    for _ in range(n):
        pairs = int(rng.integers(1, 3))
        cells.append((rng.normal(size=(pairs, dim)), rng.dirichlet(np.ones(pairs))))
    cov = sum(np.einsum("a,ai,aj->ij", q, x, x) for x, q in cells)
    vals, vecs = np.linalg.eigh(cov)
    assume(vals.min() > 1e-3 * vals.max())
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    row = ArrayRow.from_cells(
        (np.concatenate([x @ white, -(x @ white)]), np.concatenate([q, q]) / 2)
        for x, q in cells
    )
    assert validate_row(row).passed
    return row


@st.composite
def rows_t_and_grids(draw):
    """(row, t, threshold grid, tied threshold): the grid is unsorted, has
    duplicates, and holds one threshold equal to some |<x, t>|."""
    row = draw(symmetric_rows())
    coords = st.floats(-5.0, 5.0, allow_subnormal=False)
    t = np.array(draw(st.one_of(
        st.just([0.0] * row.dimension),
        st.lists(coords, min_size=row.dimension, max_size=row.dimension),
    )))
    tie = float(np.abs(row.points @ t)[draw(st.integers(0, row.total_atoms - 1))])
    base = draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5))
    grid = draw(st.permutations(base + [tie, tie, base[0]]))
    return row, t, np.array(grid), tie


@settings(max_examples=60, deadline=None)
@given(rows_t_and_grids())
def test_l_sum_grid_matches_cell_oracle(case):
    row, t, grid, tie = case
    for copy in ("same", "independent"):
        values = l_sum(row, copy, t, grid)
        assert values.shape == grid.shape
        for threshold, value in zip(grid, values):
            assert value == l_sum(row, copy, t, threshold)
            assert abs(value - truncated_sum_oracle(row, copy, t, threshold)) <= 1e-14
        # the tied atoms are out already: one ulp higher drops nothing more
        assert l_sum(row, copy, t, tie) == l_sum(row, copy, t, np.nextafter(tie, np.inf))


@settings(max_examples=60, deadline=None)
@given(symmetric_rows(), st.data())
def test_lindeberg_sum_grid_matches_cell_oracle(row, data):
    norms = np.sqrt(row.squared_norms())
    tie = float(norms[data.draw(st.integers(0, row.total_atoms - 1))])
    base = data.draw(st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=5))
    grid = np.array(data.draw(st.permutations(base + [tie, tie, base[0]])))
    values = lindeberg_sum(row, grid)
    assert values.shape == grid.shape
    for eps, value in zip(grid, values):
        assert value == lindeberg_sum(row, eps)
        assert abs(value - truncated_sum_oracle(row, "lindeberg", None, eps)) <= 1e-14
