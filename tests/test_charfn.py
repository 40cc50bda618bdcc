from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinclt.charfn as charfn_module
import steinclt.util as util
from oracles import atom_index_oracle, cell_charfn, sample_row_sums_oracle
from steinclt import (
    ArrayRow,
    ParameterError,
    RngSeed,
    ShapeError,
    UnsupportedDimensionError,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    charfn_gap,
    empirical_charfn,
    gaussian_charfn,
    kolmogorov_mc,
    row_sum_charfn,
    sample_row_sums,
)
from steinclt.quadrature import _hermite_rule
from strategies import centred_rows

# frozen: cos(0.2)**25 and exp(-1/2) - cos(0.2)**25, mpmath 40 digits
COS25 = 0.6044904989166917
GAP25 = 0.0020401607959417024
PHI1_MINUS_HALF = 0.3413447460685429  # Phi(1) - 1/2, the coin's exact sup
# kolmogorov_mc(rademacher n=1000, 20 000 samples, RngSeed(2026)) under the
# draw contract of sample_row_sums; any change to the draws moves it
KOLMOGOROV_PINNED = 0.015099999999999947


def test_cell_charfn_examples():
    # a one-cell row's transform is its cell's transform: the +-1 coin's is cos t
    coin = ArrayRow.from_cells([([[-1.0], [1.0]], [0.5, 0.5])])
    assert row_sum_charfn(coin, 1.0) == pytest.approx(np.cos(1.0), abs=1e-15)
    assert row_sum_charfn(coin, 0.0) == 1.0
    assert abs(row_sum_charfn(coin, np.pi / 2)) <= 1e-15


def test_row_sum_charfn_is_product():
    row = build_rademacher_row(25)
    assert row_sum_charfn(row, 1.0) == pytest.approx(COS25, abs=1e-14)
    assert row_sum_charfn(row, 0.0) == 1.0
    # n = 1 two-scale row collapses to the coin
    assert row_sum_charfn(build_eta_row(0.5, 1), 2.0) == pytest.approx(
        np.cos(2.0), abs=1e-15
    )


def test_gaussian_charfn():
    assert gaussian_charfn(0.0) == 1.0
    assert gaussian_charfn([1.0, 1.0]) == pytest.approx(np.exp(-1.0), abs=1e-15)
    nodes, weights = _hermite_rule(40)
    quad = weights @ np.exp(-1j * nodes)
    assert gaussian_charfn(1.0) == pytest.approx(quad.real, abs=1e-12)


def test_charfn_gap_examples():
    row = build_rademacher_row(25)
    assert charfn_gap(row, 0.0) == 0.0
    assert charfn_gap(row, 1.0) == pytest.approx(GAP25, abs=1e-12)
    # at t = pi sqrt(n) the row transform sits at cos(pi)^n = +-1 while
    # the Gaussian transform is essentially 0
    row10 = build_rademacher_row(10)
    assert charfn_gap(row10, np.pi * np.sqrt(10)) == pytest.approx(1.0, abs=1e-9)


def test_row_transform_bounded_and_conjugate_symmetric():
    rng = np.random.default_rng(11)
    rows = [build_rademacher_row(7), build_eta_row(0.4, 6),
            build_product_row([build_rademacher_row(5), build_rademacher_row(5)])]
    for row in rows:
        for _ in range(30):
            t = rng.uniform(-8, 8, row.dimension)
            value = row_sum_charfn(row, t)
            assert abs(value) <= 1.0 + 1e-12
            assert row_sum_charfn(row, -t) == pytest.approx(np.conj(value), abs=1e-14)
            assert 0.0 <= charfn_gap(row, t) <= 2.0


@st.composite
def rows_and_batches(draw):
    """(row, (m, N) batch holding t = 0, phase budget): the budget is the
    default, two t per chunk, or one t per chunk."""
    row = draw(centred_rows())
    coords = st.floats(-6.0, 6.0, allow_subnormal=False)
    vectors = st.lists(coords, min_size=row.dimension, max_size=row.dimension)
    batch = np.array(draw(st.lists(vectors, min_size=1, max_size=7)))
    batch[draw(st.integers(0, len(batch) - 1))] = 0.0
    budget = draw(st.sampled_from([charfn_module._PHASE_BUDGET, 2 * row.total_atoms, 1]))
    return row, batch, budget


@settings(max_examples=80, deadline=None)
@given(rows_and_batches())
def test_phase_pass_matches_cell_oracle(case):
    row, batch, budget = case
    with mock.patch.object(charfn_module, "_PHASE_BUDGET", budget):
        phis = charfn_module._phase_pass(
            row, batch, lambda a, cos, sin: charfn_module._cell_transforms(row, cos, sin)
        )
        values = row_sum_charfn(row, batch)
        gaps = charfn_gap(row, batch)
    assert phis.shape == (len(batch), row.n)
    assert values.shape == gaps.shape == (len(batch),)
    for i, t in enumerate(batch):
        oracle = np.array([cell_charfn(points, probs, t) for points, probs in row.cells()])
        # phases <t, x> are summed in another order than the oracle's
        # matrix-vector product, so allow a few ulp of the largest phase
        tol = 1e-15 * (1.0 + np.max(np.abs(row.points @ t))) * row.n
        assert np.max(np.abs(phis[i] - oracle)) <= tol
        assert abs(values[i] - np.prod(oracle)) <= tol
        assert abs(gaps[i] - abs(gaussian_charfn(t) - np.prod(oracle))) <= tol
        if not np.any(t):
            assert abs(values[i] - 1.0) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batch_entries_match_single_t_calls(dim):
    rng = np.random.default_rng(dim)
    if dim == 1:
        rows = [build_rademacher_row(77), build_eta_row(0.5, 1000)]
    else:
        rows = [build_product_row([build_rademacher_row(30)] * dim),
                build_product_row([build_eta_row(0.4, 20)] * dim)]
    for row in rows:
        batch = np.vstack([np.zeros(dim), rng.uniform(-5.0, 5.0, (12, dim))])
        values, gaps = row_sum_charfn(row, batch), charfn_gap(row, batch)
        for t, value, gap in zip(batch, values, gaps):
            if dim == 1:  # one product per phase: the same bits
                assert value == row_sum_charfn(row, t)
                assert gap == charfn_gap(row, t)
            else:  # BLAS may sum <t, x> in another order
                assert abs(value - row_sum_charfn(row, t)) <= 1e-15
                assert abs(gap - charfn_gap(row, t)) <= 1e-15


def test_batch_shape_errors():
    row = build_product_row([build_rademacher_row(3), build_rademacher_row(3)])
    assert charfn_gap(row, np.empty((0, 2))).shape == (0,)
    with pytest.raises(ShapeError):
        charfn_gap(row, np.ones((3, 3)))
    with pytest.raises(ParameterError):
        row_sum_charfn(row, [[0.0, np.nan]])


def test_empirical_charfn_batch_is_one_draw():
    row = build_eta_row(0.5, 8)
    batch = np.array([[0.0], [0.7], [1.3], [-2.0]])
    seed = RngSeed(99, 3)
    values, stderr = empirical_charfn(row, batch, 5000, seed)
    assert values.dtype == np.complex128 and values.shape == stderr.shape == (4,)
    assert list(zip(values, stderr)) == [empirical_charfn(row, t, 5000, seed) for t in batch]


def test_empirical_charfn_matches_exact():
    row = build_rademacher_row(25)
    value, stderr = empirical_charfn(row, 1.0, 100_000, RngSeed(2024))
    assert stderr > 0
    assert abs(value - COS25) < 4 * stderr
    assert abs(value) <= 1.0 + 3 * stderr


def test_empirical_charfn_exact_at_zero():
    value, stderr = empirical_charfn(build_rademacher_row(5), 0.0, 1000, RngSeed(1))
    assert value == 1.0 + 0.0j
    assert stderr == 0.0


def test_empirical_charfn_deterministic():
    row = build_eta_row(0.5, 8)
    a = empirical_charfn(row, 1.3, 5000, RngSeed(99, 3))
    b = empirical_charfn(row, 1.3, 5000, RngSeed(99, 3))
    assert a == b
    c = empirical_charfn(row, 1.3, 5000, RngSeed(99, 4))
    assert a[0] != c[0]


def test_empirical_charfn_coverage():
    # error below 5 stderr in at least 99 of 100 independent streams
    row = build_rademacher_row(25)
    hits = 0
    for stream in range(100):
        value, stderr = empirical_charfn(row, 1.0, 2000, RngSeed(7, stream))
        if abs(value - COS25) < 5 * stderr:
            hits += 1
    assert hits >= 99


def test_kolmogorov_distance_of_coin():
    # the +-1 coin's exact Kolmogorov distance to N(0,1) is Phi(1) - 1/2,
    # attained one-sidedly at the jump points
    distance = kolmogorov_mc(build_rademacher_row(1), 100_000, RngSeed(5))
    assert distance == pytest.approx(PHI1_MINUS_HALF, abs=0.008)


def test_kolmogorov_large_row_is_small():
    distance = kolmogorov_mc(build_rademacher_row(10_000), 100_000, RngSeed(12))
    assert distance < 0.02


def test_kolmogorov_rejects_multivariate():
    row = build_product_row([build_rademacher_row(2), build_rademacher_row(2)])
    with pytest.raises(UnsupportedDimensionError):
        kolmogorov_mc(row, 100, RngSeed(0))


def _row_with_cells(atom_counts, dim: int, seed: int) -> ArrayRow:
    """A standard row whose cells have the given atom counts: random atoms
    and unequal masses, centred, then whitened so the covariances sum to
    the identity; a one-atom cell is the point mass at 0."""
    rng = np.random.default_rng(seed)
    cells = []
    for atoms in atom_counts:
        x = rng.normal(size=(atoms, dim))
        q = rng.uniform(0.05, 1.0, atoms)
        q /= q.sum()
        cells.append((x - q @ x, q))
    cov = sum(np.einsum("a,ai,aj->ij", q, x, x) for x, q in cells)
    vals, vecs = np.linalg.eigh(cov)
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    return ArrayRow.from_cells((x @ white, q) for x, q in cells)


@contextmanager
def _blocks_on(cores: int):
    """Every draw cut into blocks: one sample per block at least, on
    ``cores`` cores, so blocks start at offsets that are not multiples of 4."""
    with mock.patch.object(charfn_module, "_MIN_BLOCK_SAMPLES", 1), \
            mock.patch.object(util, "_cores", lambda: cores):
        yield


@settings(max_examples=60, deadline=None)
@given(centred_rows(), st.integers(1, 400), st.integers(0, 2**64 - 1), st.integers(0, 7))
def test_sample_row_sums_matches_oracle(row, samples, seed, stream):
    # no block count may change a bit
    rng_seed = RngSeed(seed, stream)
    expected = sample_row_sums_oracle(row, samples, rng_seed.generator())
    assert np.array_equal(sample_row_sums(row, samples, rng_seed), expected)
    for cores in (1, 2, 3):
        with _blocks_on(cores):
            assert np.array_equal(sample_row_sums(row, samples, rng_seed), expected)


def _assert_both_paths_match_oracle(row, samples: int, seed: RngSeed):
    """sample_row_sums equals the oracle as it stands and with every cell
    forced onto the binary search (crossover 0) or onto the counting."""
    expected = sample_row_sums_oracle(row, samples, seed.generator())
    assert np.array_equal(sample_row_sums(row, samples, seed), expected)
    for forced in (0, 10 * charfn_module._COUNTING_MAX_ATOMS):
        with mock.patch.object(charfn_module, "_COUNTING_MAX_ATOMS", forced):
            assert np.array_equal(sample_row_sums(row, samples, seed), expected)
            with _blocks_on(3):
                assert np.array_equal(sample_row_sums(row, samples, seed), expected)


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_row_sums_across_the_crossover(dim):
    cut = charfn_module._COUNTING_MAX_ATOMS
    row = _row_with_cells([1, 2, 4, 1, cut - 1, cut, cut + 1, 2 * cut, 2, 4], dim, seed=dim)
    _assert_both_paths_match_oracle(row, 3000, RngSeed(31, dim))


def test_sample_row_sums_at_the_cumulative_weights():
    # u equal to a cumulative weight passes it, u one ulp below does not,
    # and u at the last weight or above is capped at the last atom
    cut = charfn_module._COUNTING_MAX_ATOMS
    row = _row_with_cells([1, 2, 4, cut, cut + 1], 1, seed=9)
    for lo, hi in zip(row.offsets[:-1], row.offsets[1:]):
        cum = np.cumsum(row.probs[lo:hi])
        u = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, 1.0 - 2.0**-53]])
        expected = atom_index_oracle(cum, u)
        for forced in (0, 10 * cut):
            with mock.patch.object(charfn_module, "_COUNTING_MAX_ATOMS", forced):
                assert np.array_equal(charfn_module._atom_index(cum, u), expected)


def test_sample_row_sums_consumes_one_block_per_cell():
    # sample j of cell k takes uniform k*m + j of the stream, a one-atom
    # cell included, however the sample axis is cut
    row = _row_with_cells([1, 2, 1, 4, charfn_module._COUNTING_MAX_ATOMS + 1], 1, seed=5)
    m = 250
    stream = RngSeed(8).generator().random(row.n * m).reshape(row.n, m)
    expected = np.zeros((m, 1))
    for k, u in enumerate(stream):
        lo, hi = row.offsets[k], row.offsets[k + 1]
        expected += row.points[lo + atom_index_oracle(np.cumsum(row.probs[lo:hi]), u)]
    assert np.array_equal(sample_row_sums(row, m, RngSeed(8)), expected)
    with _blocks_on(3):
        assert np.array_equal(sample_row_sums(row, m, RngSeed(8)), expected)


def test_threads_follow_the_cpus_this_process_may_use(monkeypatch):
    # a 64-core host that lets the process run on one CPU gets one thread
    monkeypatch.setattr(util.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert util._thread_count(61) == 1
    # where the platform has no affinity call, the host's cores count
    monkeypatch.delattr(util.os, "sched_getaffinity")
    assert util._thread_count(61) == 61


def test_kolmogorov_value_is_pinned():
    distance = kolmogorov_mc(build_rademacher_row(1000), 20_000, RngSeed(2026))
    assert distance == KOLMOGOROV_PINNED
