import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import steinclt.charfn as charfn_module
import steinclt.util as util
from oracles import atom_index_oracle, cell_charfn, kolmogorov_oracle, rademacher_gap_closed_form
from oracles import sample_row_sums_oracle
from steinclt import (
    ArrayRow,
    EtaAlphaFamily,
    ParameterError,
    RademacherFamily,
    RowValidationError,
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
from steinclt.bounds import decomposition_check, identity_rhs, master_bound
from steinclt.quadrature import _hermite_rule
from steinclt.rows import _project
from strategies import centred_rows

# frozen: cos(0.2)**25 and exp(-1/2) - cos(0.2)**25, mpmath 40 digits
COS25 = 0.6044904989166917
GAP25 = 0.0020401607959417024
PHI1_MINUS_HALF = 0.3413447460685429  # Phi(1) - 1/2, the coin's exact sup
# kolmogorov_mc(rademacher n=1000, 20 000 samples, RngSeed(2026)) under the
# draw contract of sample_row_sums on PCG64DXSM streams; any change to the
# draws moves it
KOLMOGOROV_PINNED = 0.018006824736855498


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rounding of the n-fold cell product at large n, ROADMAP item 1")
@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_charfn_gap_keeps_relative_accuracy_at_large_n(n):
    # the product of n cell transforms cos(t/sqrt(n)) rounds to a relative
    # gap error of 4.2e-5 at n = 1e5 and 8.2e-3 at n = 1e6 at t = 0.5
    exact = rademacher_gap_closed_form(n, 0.5)
    assert charfn_gap(build_rademacher_row(n), 0.5) == pytest.approx(exact, rel=1e-10, abs=0.0)


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
        phis = charfn_module._cell_transforms(row, batch, (row.probs,), lambda phis: phis)
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
        gauss = gaussian_charfn(batch)
        for t, value, gap, g in zip(batch, values, gaps, gauss):
            # <t, x> and |t|^2 sum each t's coordinates in order: the same bits
            assert value == row_sum_charfn(row, t)
            assert gap == charfn_gap(row, t)
            assert g == gaussian_charfn(t)


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


@pytest.mark.parametrize("row", [build_rademacher_row(1000), build_eta_row(0.5, 1000)],
                         ids=["rademacher", "eta"])
def test_kolmogorov_matches_every_draw_oracle(row):
    # Phi once per distinct draw gives the every-draw formula's bits: the
    # rademacher draws take 242 distinct values (heavy ties), the eta draws
    # are all distinct
    seed = RngSeed(31)
    draws = sample_row_sums(row, 5000, seed)[:, 0]
    assert kolmogorov_mc(row, 5000, seed) == kolmogorov_oracle(draws)


@settings(max_examples=40, deadline=None)
@given(centred_rows(dim=1), st.integers(1, 3000), st.integers(0, 2**64 - 1))
def test_kolmogorov_matches_every_draw_oracle_on_random_rows(row, samples, seed):
    draws = sample_row_sums(row, samples, RngSeed(seed))[:, 0]
    assert kolmogorov_mc(row, samples, RngSeed(seed)) == kolmogorov_oracle(draws)


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
    """Every draw cut into blocks: one sample per block at least, on ``cores`` cores."""
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


def test_sample_row_sums_counts_wide_cells_without_wrapping():
    # a byte count holds the index of a 256-atom cell; 257 and 300 atoms
    # reach 256 and more, so a counted cell that wide must not count in bytes
    row = _row_with_cells([256, 2, 257, 300], 1, seed=6)
    with mock.patch.object(charfn_module, "_COUNTING_MAX_ATOMS", 640):
        expected = sample_row_sums_oracle(row, 20_000, RngSeed(3).generator())
        assert np.array_equal(sample_row_sums(row, 20_000, RngSeed(3)), expected)


@pytest.mark.parametrize("atoms", [2, 5, 64, 65, 256, 257])
def test_sample_row_sums_draws_each_atom_at_its_probability(atoms):
    # one cell, so each draw is one atom; up to _COUNTING_MAX_ATOMS = 256
    # atoms are counted and 257 searched.  Every atom's frequency is within
    # 5.5 binomial standard deviations of its probability.
    m = 200_000
    row = _row_with_cells([atoms], 1, seed=atoms)
    x, p = row.points[:, 0], row.probs
    draws = sample_row_sums(row, m, RngSeed(2027, atoms))[:, 0]
    order = np.argsort(x)
    hit = order[np.searchsorted(x[order], draws)]
    assert np.array_equal(x[hit], draws)
    counts = np.bincount(hit, minlength=atoms)
    assert np.all(np.abs(counts - m * p) <= 5.5 * np.sqrt(m * p * (1.0 - p)))


@st.composite
def tiled_cases(draw):
    """(row, (m, N) batch, t): a centred row, a third of them with one
    cell far larger than the rest, 1-6 t of |t| <= 6 and one t for the
    identity."""
    row = draw(centred_rows(large_cell=draw(st.integers(0, 2)) == 0))
    coords = st.floats(-6.0, 6.0, allow_subnormal=False)
    vectors = st.lists(coords, min_size=row.dimension, max_size=row.dimension)
    batch = np.array(draw(st.lists(vectors, min_size=1, max_size=6)))
    batch *= 6.0 / np.maximum(np.linalg.norm(batch, axis=1, keepdims=True), 6.0)
    return row, batch, batch[draw(st.integers(0, len(batch) - 1))]


@settings(max_examples=6, deadline=None)
@given(tiled_cases())
def test_tiles_never_change_a_bit(case):
    # one cell or a few atoms per tile gives the default call
    row, batch, t = case
    expected = (row_sum_charfn(row, batch), charfn_gap(row, batch), row_sum_charfn(row, t),
                identity_rhs(row, t))
    for cap in (1, 5, charfn_module._TILE_ELEMENTS):
        with mock.patch.object(charfn_module, "_TILE_ELEMENTS", cap):
            values, gaps = row_sum_charfn(row, batch), charfn_gap(row, batch)
            single, rhs = row_sum_charfn(row, t), identity_rhs(row, t)
        assert np.all(values == expected[0]) and np.all(gaps == expected[1])
        assert single == expected[2] and rhs == expected[3]


def test_tiles_hold_at_most_the_cap_unless_one_t_by_one_cell():
    row = _row_with_cells([2, 3, 40, 1, 4, 2, 2], 1, seed=3)
    sizes = np.diff(row.offsets)
    for cap in (1, 5, 8, 39, 64, 10_000):
        for rows in (1, 2, 3, 17):
            with mock.patch.object(charfn_module, "_TILE_ELEMENTS", cap):
                tiles = charfn_module._tiles(row, rows)
            covered = np.zeros((rows, row.n), dtype=int)
            for t_rows, k0, k1, width in tiles:
                covered[t_rows, k0:k1] += 1
                # the width is the one atom count of the tile's cells, else None
                assert width == (sizes[k0] if np.all(sizes[k0:k1] == sizes[k0]) else None)
                elements = len(range(rows)[t_rows]) * int(np.sum(sizes[k0:k1]))
                assert elements <= cap or (len(range(rows)[t_rows]), k1 - k0) == (1, 1)
            assert np.all(covered == 1)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(1, 40), st.just(257)), st.integers(1, 3), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_cell_sums_equal_reduceat(width, rows, cells, seed):
    # one cell width per tile: the slice adds must copy reduceat's order bit
    # for bit, so a numpy whose reduceat adds in another order fails here
    rng = np.random.default_rng(seed)
    shape = (rows, cells * width)
    terms = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape) * 10.0 ** rng.integers(-12, 13, shape)
    cuts = np.arange(0, cells * width, width)
    assert np.array_equal(charfn_module._cell_sums(terms, cuts, width),
                          np.add.reduceat(terms, cuts, axis=1))


def test_uniform_and_mixed_tiles_give_the_untiled_reduceat():
    # runs of 4- and 8-atom cells around short runs of mixed widths: at a cap
    # of 64 tiles of one width and tiles of mixed widths meet.  The second
    # row makes its 2- and 4-atom cells centrally symmetric, the 4-atom ones
    # sharing one atom, so its uniform tiles of those widths are mirrored;
    # each cap must give the same bits, zero signs included
    counts = [4] * 150 + [2, 3, 2, 5, 1, 1, 7, 9, 8] + [1] * 20 + [3, 2] * 6 + [8] * 100 + [12, 4]
    batch = np.array([[0.3, -1.2], [2.0, 0.7], [-4.5, 3.1]])
    rows = (_row_with_cells(counts, 2, seed=11),
            _mirrored_row([(c, c in (2, 4)) for c in counts], 2, seed=11))
    for mirrored, row in enumerate(rows):
        weights = (row.probs, row.probs * row.project(batch[0]))
        with mock.patch.object(charfn_module, "_TILE_ELEMENTS", 64):
            tiles = charfn_module._tiles(row, len(batch))
            assert {4, 8, None} <= {width for *_, width in tiles}
            plans = [charfn_module._parities(row, weights, k0, k1, width) for _, k0, k1, width in tiles]
            assert any(plans) == bool(mirrored)
        a = row.project(batch)
        cuts = row.offsets[:-1]
        untiled = np.stack([np.add.reduceat(w * np.cos(a), cuts, axis=1)
                            - 1j * np.add.reduceat(w * np.sin(a), cuts, axis=1) for w in weights], 1)

        def transforms():
            return charfn_module._cell_transforms(row, batch, weights, lambda *outs: np.stack(outs, 1))

        expected = transforms()
        assert np.array_equal(expected, untiled)
        for cap in (1, 5, 64, charfn_module._TILE_ELEMENTS):
            with mock.patch.object(charfn_module, "_TILE_ELEMENTS", cap):
                assert np.array_equal(transforms().view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("row", [build_rademacher_row(1001), build_eta_row(0.5, 3000),
                                 build_eta_row(0.3, 40)], ids=["rademacher", "eta-0.5", "eta-0.3"])
def test_symmetric_sorted_cells_give_exactly_real_transforms(row):
    # atoms sorted ascending in symmetric cells: each cell's sin terms cancel
    # exactly in the per-cell order, so the row transform has no imaginary part
    batch = np.array([[0.3], [1.0], [2.5], [7.0], [31.4]])
    assert np.all(row_sum_charfn(row, batch).imag == 0.0)
    assert all(row_sum_charfn(row, t).imag == 0.0 for t in batch[:, 0])


def _mirrored_cell(upper: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centrally symmetric cell of upper atoms ``upper`` and masses ``q``
    (summing to 1/2), in storage order: atom j mirrors atom W - 1 - j."""
    return np.concatenate([-upper[::-1], upper]), np.concatenate([q[::-1], q])


def _mirrored_row(cells, dim: int, seed: int, shared: bool = True) -> ArrayRow:
    """A standard row of the given (atom count, mirrored) cells.  A mirrored
    cell of 2 or 4 atoms is centrally symmetric and whitened on its upper
    atoms, so that each lower atom stays the exact negation of its mirror;
    with ``shared`` the mirrored cells of one width share their first upper
    atom, bit for bit, as eta's +-1/s_n atoms do.  Other cells are as in
    ``_row_with_cells``."""
    rng = np.random.default_rng(seed)
    drawn, first = [], {}
    for atoms, mirrored in cells:
        if mirrored:
            y = rng.normal(size=(atoms // 2, dim))
            if shared:
                y[0] = first.setdefault(atoms, y[0])
            q = rng.uniform(0.05, 1.0, atoms // 2)
            drawn.append((y, 0.5 * q / q.sum(), True))
        else:
            x = rng.normal(size=(atoms, dim))
            q = rng.uniform(0.05, 1.0, atoms)
            q /= q.sum()
            drawn.append((x - q @ x, q, False))
    # a mirrored cell's covariance is twice that of its upper half
    cov = sum((2.0 if mirrored else 1.0) * np.einsum("a,ai,aj->ij", q, x, x)
              for x, q, mirrored in drawn)
    vals, vecs = np.linalg.eigh(cov)
    white = vecs @ np.diag(vals**-0.5) @ vecs.T
    # one whitened copy per distinct atom, so shared atoms keep one bit pattern
    whitened = {}

    def whiten(x):
        return whitened.setdefault(x.tobytes(), x[None, :] @ white)[0]

    return ArrayRow.from_cells(_mirrored_cell(np.array([whiten(a) for a in x]), q)
                               if mirrored else (x @ white, q) for x, q, mirrored in drawn)


@st.composite
def mirrored_cases(draw):
    """(row, t, ray): a row in dims 1-3 of runs of mirrored 2- and 4-atom
    cells (one column shared or not) among asymmetric and mixed-width cells;
    a t of 0, +-1e-9 times a direction or of |t| up to 40, and a ray batch
    (t and 0.6 t, |t| at most 10) for the identity."""
    dim = draw(st.integers(1, 3))
    runs = draw(st.lists(st.tuples(st.sampled_from([2, 4, 3, 0]), st.integers(1, 5)),
                         min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # width 0 is a run of asymmetric cells of 2 to 5 atoms
    cells = [(int(rng.integers(2, 6)), False) if width == 0 else (width, width != 3)
             for width, n in runs for _ in range(n)]
    cells += [(4, True)] * dim
    try:
        row = _mirrored_row(cells, dim, seed, shared=draw(st.booleans()))
    except RowValidationError:
        reject()
    e = rng.normal(size=dim)
    e /= np.linalg.norm(e)
    radius = draw(st.one_of(st.just(0.0), st.just(1e-9), st.just(-1e-9), st.floats(-40.0, 40.0)))
    if draw(st.booleans()):
        # an axis direction, whose projections on mirrored atoms can cancel to 0
        e = np.eye(dim)[0] + (np.eye(dim)[-1] if dim > 1 else 0.0)
    t = radius * e
    top = t if 0.0 < np.linalg.norm(t) <= 10.0 else 10.0 * e
    return row, t, np.array([top, 0.6 * top])


def _tiny_case(radius: float):
    """A 1-D mirrored case at a radius whose |t|^2 is subnormal or 0."""
    row = _mirrored_row([(2, True), (3, False), (4, True), (4, True)], 1, 3)
    t = np.array([radius])
    return row, t, np.array([t, 0.6 * t])


def _all_bits(*values) -> list[np.ndarray]:
    """The uint64 bits of each value, complex parts apart, so zeros keep their sign."""
    return [np.atleast_1d(np.asarray(v, dtype=np.complex128)).view(np.uint64) for v in values]


@settings(max_examples=40, deadline=None)
@given(mirrored_cases())
@example(_tiny_case(3.16e-161))
@example(_tiny_case(1e-200))
@example(_tiny_case(1e-320))
def test_mirrored_tiles_give_the_general_paths_bits(case):
    # the general path is forced by a parity check that finds no mirrored
    # tile; the bits are compared as uint64, since == cannot see the sign of
    # a zero.  Small caps cut the row into tiles of one width
    row, t, ray = case
    batch = np.array([t, -t, 0.5 * t])

    def results():
        return _all_bits(row_sum_charfn(row, batch), row_sum_charfn(row, t), charfn_gap(row, batch),
                         *identity_rhs(row, t), *identity_rhs(row, ray))

    for cap in (4, 8, 64, charfn_module._TILE_ELEMENTS):
        with mock.patch.object(charfn_module, "_TILE_ELEMENTS", cap):
            mirrored = results()
            with mock.patch.object(charfn_module, "_parities", lambda *args: None):
                general = results()
        for a, b in zip(mirrored, general):
            assert np.array_equal(a, b)


def test_a_zero_phase_in_two_dimensions_leaves_an_odd_weight_to_the_general_path():
    # at t = (1, 1) the cell +-(a, -a) projects to +0 for both atoms, so an
    # odd weight (0.5, -0.5) gives sin terms +0 and -0, whose sum is +0 and
    # imaginary part -0; the upper half doubled would give -0 and +0
    a = np.sqrt(0.5)
    row = ArrayRow.from_cells([(np.array([[-a, a], [a, -a]]), [0.5, 0.5]),
                               (np.array([[-a, -a], [a, a]]), [0.5, 0.5])])
    weights = (row.probs, np.array([0.5, -0.5, 0.5, -0.5]))
    assert charfn_module._parities(row, weights, 0, 2, 2) is not None

    def transforms():
        return charfn_module._cell_transforms(row, np.array([[1.0, 1.0]]), weights,
                                              lambda *outs: np.stack(outs, 1))

    mirrored = transforms()
    with mock.patch.object(charfn_module, "_parities", lambda *args: None):
        general = transforms()
    assert np.signbit(general[0, 1, 0].imag)
    assert np.array_equal(mirrored.view(np.uint64), general.view(np.uint64))


def test_cos_is_even_and_sin_odd_bit_for_bit():
    # the mirrored tiles take cos and sin of the upper atoms' phases only,
    # so this numpy's cos(-x) must be cos(x) and sin(-x) -sin(x) in every
    # bit, over subnormals, +-0 and magnitudes from 1e-300 to 1e6, and
    # whatever the array's layout
    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float64).tiny
    x = np.concatenate([[0.0, tiny, 2.0 * tiny, 1e-300, np.pi / 2, np.pi, 1e6],
                        tiny * rng.uniform(0.0, 1.0, 500),
                        10.0 ** rng.uniform(-300.0, 6.0, 20_000), rng.uniform(0.0, 1e6, 20_000)])
    for values in (x, x[::3], x.reshape(-1, 1)):
        assert np.array_equal(np.cos(-values).view(np.uint64), np.cos(values).view(np.uint64))
        assert np.array_equal(np.sin(-values).view(np.uint64), (-np.sin(values)).view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projection_of_a_negated_atom_is_the_negated_projection(dim):
    # fl(<t, -x>) = -fl(<t, x>) bit for bit in the coordinate-order sum,
    # except that an exact 0 is +0 for both atoms (dims 2 and 3): the case
    # in which a mirrored tile with an odd weight takes the general path
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(5000, dim)) * 10.0 ** rng.integers(-8, 9, (5000, dim))
    ts = rng.normal(size=(20, dim)) * 10.0 ** rng.integers(-5, 6, (20, dim))
    if dim > 1:
        # atoms whose projections on the diagonal t cancel exactly
        x[:100, 1] = -x[:100, 0]
        x[:100, 2:] = 0.0
        ts[0] = 1.0
    a, b = _project(x, ts), _project(-x, ts)
    exact = a != 0.0
    assert np.array_equal(b[exact].view(np.uint64), (-a[exact]).view(np.uint64))
    if dim == 1:
        assert np.array_equal(b.view(np.uint64), (-a).view(np.uint64))
    else:
        zero = np.float64(0.0).view(np.uint64)
        assert (~exact).any()
        assert np.all(a[~exact].view(np.uint64) == zero) and np.all(b[~exact].view(np.uint64) == zero)


@pytest.mark.parametrize("family, share", [(EtaAlphaFamily(0.5), 0.9), (RademacherFamily(), 1.0)],
                         ids=["eta", "rademacher"])
def test_mirrored_tiles_hold_most_atoms_of_the_built_in_rows(family, share):
    # the speed of the identity and of the gap tables rests on this share:
    # at one t, with the identity's weights p (even) and p <x, t> (odd), all
    # but eta's first tile (its 2-atom cell 0 among 4-atom ones) is mirrored
    row, t = family.row(100_000), np.array([1.3])
    weights = (row.probs, row.probs * row.project(t))
    mirrored = sum(int(row.offsets[k1] - row.offsets[k0])
                   for _, k0, k1, width in charfn_module._tiles(row, 1)
                   if charfn_module._parities(row, weights, k0, k1, width))
    assert mirrored >= share * row.total_atoms


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_a_fan_out_runs_each_job_once_in_order_on_the_caller_and_its_pool(monkeypatch, cores):
    monkeypatch.setattr(util, "_cores", lambda: cores)
    caller = threading.get_ident()
    for count in (0, 1, 2, 3, 7):
        threads = util._thread_count(count)
        runs, lock, elsewhere = [], threading.Lock(), threading.Event()

        def job(j):
            with lock:
                runs.append((j, threading.get_ident()))
            if threading.get_ident() != caller:
                elsewhere.set()
            elif threads > 1:
                # hold the caller until a pool thread has run a job
                assert elsewhere.wait(10)
            return j * j

        assert util._fan_out(job, range(count)) == [j * j for j in range(count)]
        assert sorted(j for j, _ in runs) == list(range(count))
        ran_on = {ident for _, ident in runs}
        assert len(ran_on) <= threads
        assert count < 2 or caller in ran_on


def test_a_fan_out_hands_out_each_job_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a job index
    # claimed twice or skipped would show in the counts or the results
    monkeypatch.setattr(util, "_cores", lambda: 8)
    counts, lock = [0] * 3000, threading.Lock()

    def job(j):
        with lock:
            counts[j] += 1
        return j

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = util._fan_out(job, range(len(counts)))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(len(counts)))
    assert counts == [1] * len(counts)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_a_fan_out_raises_the_first_exception_of_either_share(monkeypatch, cores):
    monkeypatch.setattr(util, "_cores", lambda: cores)
    caller = threading.get_ident()

    def failing_on_caller(j):
        if threading.get_ident() == caller:
            raise ZeroDivisionError(j)
        return j

    with pytest.raises(ZeroDivisionError, match="^0$"):
        util._fan_out(failing_on_caller, range(6))
    if cores == 1:
        return
    runs, lock, elsewhere = [], threading.Lock(), threading.Event()

    def failing_on_pool(j):
        with lock:
            runs.append(j)
        if threading.get_ident() == caller:
            # wait for a pool job to raise, and for its thread to record it
            assert elsewhere.wait(10)
            time.sleep(0.05)
            return j
        elsewhere.set()
        raise ValueError(j)

    # after a job has raised no thread claims another, so each thread runs
    # its first job only
    with pytest.raises(ValueError):
        util._fan_out(failing_on_pool, range(50))
    assert 2 <= len(runs) <= util._thread_count(50)


def test_threads_are_spent_only_on_identity_rays_and_sampler_blocks(monkeypatch):
    # the transform tiles run in turn: of the exact paths only a batch of
    # identity t on two or more rays starts a pool, and none of its jobs
    # starts another; the t of one ray share one quadrature on one thread
    pools = []

    class CountingPool(util.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(threading.get_ident())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(util, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(util, "_cores", lambda: 4)
    monkeypatch.setattr(charfn_module, "_TILE_ELEMENTS", 256)
    row = build_eta_row(0.5, 3000)
    batch = np.array([[0.5], [2.0]])
    row_sum_charfn(row, batch)
    charfn_gap(row, batch)
    master_bound(row, batch, 0.1)
    decomposition_check(row, 1.0)
    decomposition_check(row, batch)
    assert pools == []
    decomposition_check(row, np.array([[0.5], [-2.0]]))
    assert pools == [threading.get_ident()]
    pools.clear()
    monkeypatch.setattr(charfn_module, "_MIN_BLOCK_SAMPLES", 1)
    sample_row_sums(row, 8, RngSeed(1))
    assert pools == [threading.get_ident()]


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
