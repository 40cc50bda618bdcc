import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinclt.util as util
from oracles import master_bound_oracle, r_factor_exp_form
from steinclt import (
    ArrayRow,
    EtaAlphaFamily,
    IdentityReport,
    ParameterError,
    ProductFamily,
    RademacherFamily,
    ShapeError,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    charfn_gap,
    decomposition_check,
    gap_table_with_lambda_f,
    gaussian_charfn,
    identity_lhs,
    identity_rhs,
    infinitesimality_profile,
    l_sum,
    lindeberg_index_estimate,
    lindeberg_sum,
    master_bound,
    theorem_bound_report,
    truncation_bound_check,
)
from steinclt.bounds import DEFAULT_BOUND_EPS_GRID, SLACK_FLOOR
from strategies import centred_rows

# frozen: e^{-1/2} - cos(1), mpmath 40 digits
LHS_COIN_T1 = 0.0662283538444937


def random_builtin_row(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return build_rademacher_row(int(rng.integers(1, 201)))
    if kind == 1:
        return build_eta_row(float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 201)))
    n = int(rng.integers(1, 60))
    return build_product_row([build_rademacher_row(n), build_rademacher_row(n)])


def test_identity_lhs_examples():
    coin = build_rademacher_row(1)
    assert identity_lhs(coin, 0.0) == 0.0
    assert identity_lhs(coin, 1.0) == pytest.approx(LHS_COIN_T1, abs=1e-14)


def test_identity_rhs_vanishes_at_t_zero():
    value, err = identity_rhs(build_rademacher_row(5), 0.0)
    assert value == 0.0
    assert err == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 25])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_identity_rademacher(n, t):
    # the exact lhs is the oracle for the quadrature rhs
    row = build_rademacher_row(n)
    lhs = identity_lhs(row, t)
    rhs, err = identity_rhs(row, t)
    assert abs(lhs - rhs) <= max(1e-6, 10 * err)
    assert abs(lhs - rhs) < 1e-9  # comfortably below the contract in practice


@pytest.mark.parametrize("alpha,n,t", [(0.5, 8, 2.0), (0.3, 8, 1.0), (0.5, 1, 1.0)])
def test_identity_eta(alpha, n, t):
    report = decomposition_check(build_eta_row(alpha, n), t)
    assert report.passed
    assert report.residual <= 1e-6


def test_identity_asymmetric_cells():
    # asymmetric cells break the even-in-sqrt(s) structure of the
    # built-in families, leaving a genuine sqrt(s) kink at the origin of
    # the s-integrand; integrate_unit works in u = sqrt(s), where it is smooth
    import steinclt as sc

    b = np.sqrt(0.5) / 2.0
    cell = (np.array([[-4 * b], [b]]), np.array([0.2, 0.8]))
    row = sc.ArrayRow.from_cells([cell, cell])
    assert sc.validate_row(row).passed
    for t in (0.5, 1.0, 2.0, 4.0):
        report = decomposition_check(row, t)
        assert report.passed
        assert report.residual < 1e-8


def test_identity_product_row():
    row = build_product_row([build_rademacher_row(4), build_rademacher_row(4)])
    report = decomposition_check(row, [1.0, -1.0])
    assert report.passed
    assert report.residual < 1e-8


def test_identity_atom_heavy_cells():
    # the phase-pass budget bounds memory whatever the cell size, so cells
    # far above build_product_row's atom cap still go through
    grid = np.linspace(-1.0, 1.0, 20001)
    points = grid * np.sqrt(0.5 / np.mean(grid * grid))
    cell = (points[:, None], np.full(grid.size, 1.0 / grid.size))
    row = ArrayRow.from_cells([cell, cell])
    for t in (0.5, 2.0, 4.0):
        report = decomposition_check(row, t)
        assert report.passed
        assert report.residual < 1e-12


@st.composite
def rows_and_t(draw):
    """(row, t) with a random asymmetric row in dims 1-3 and |t| <= 6."""
    row = draw(centred_rows())
    coords = st.floats(-6.0, 6.0, allow_subnormal=False)
    t = np.array(draw(st.lists(coords, min_size=row.dimension, max_size=row.dimension)))
    norm = float(np.linalg.norm(t))
    return row, t if norm <= 6.0 else t * (6.0 / norm)


@settings(max_examples=100, deadline=None)
@given(rows_and_t())
def test_identity_holds_on_random_rows(case):
    row, t = case
    report = decomposition_check(row, t)
    assert report.passed
    assert report.residual <= 1e-6


@settings(max_examples=100, deadline=None)
@given(rows_and_t())
def test_master_bound_holds_on_random_rows(case):
    row, t = case
    report = master_bound(row, t, (1.0, 0.5, 0.2, 0.1, 0.05, 0.01))
    assert np.all(report.slack >= 0.0) and np.all(report.passed)


def test_identity_rhs_node_chunking_is_transparent(monkeypatch):
    # force one s-node per phase-pass chunk and check it returns the same value
    import steinclt.charfn as charfn_module

    row = build_eta_row(0.5, 12)
    whole = identity_rhs(row, 1.5)
    monkeypatch.setattr(charfn_module, "_PHASE_BUDGET", 1)
    chunked = identity_rhs(row, 1.5)
    assert chunked[0] == whole[0]
    assert chunked[1] == whole[1]


def test_r_factor_from_cos_sin_matches_exp_form():
    from steinclt.bounds import _r_factor

    mags = np.concatenate([
        np.geomspace(1e-6, 1e3, 2001),
        [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), np.pi, 3 * np.pi],
    ])
    a = np.concatenate([mags, -mags, [0.0]])
    got = _r_factor(a, np.cos(a), np.sin(a))
    assert np.max(np.abs(got - r_factor_exp_form(a))) <= 1e-15
    # 2-D phase arrays, as the phase pass hands them over
    grid = a[:-1].reshape(2, -1)
    assert np.array_equal(_r_factor(grid, np.cos(grid), np.sin(grid)).ravel(),
                          _r_factor(a[:-1], np.cos(a[:-1]), np.sin(a[:-1])))


def test_identity_report_fields():
    row = build_rademacher_row(2)
    report = decomposition_check(row, 1.5)
    assert report.residual == abs(report.lhs - report.rhs)
    assert report.quadrature_error >= 0.0
    # a single t drops the batch axis, a batch keeps it
    assert np.shape(report.lhs) == np.shape(report.passed) == ()
    table = decomposition_check(row, [[1.5], [0.5]])
    assert table.lhs.shape == table.rhs.shape == table.residual.shape == (2,)
    assert table.quadrature_error.shape == table.passed.shape == (2,)
    assert decomposition_check(row, np.empty((0, 1))).lhs.shape == (0,)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 1e-6 floor of IDENTITY_TOL, ROADMAP item 1")
def test_identity_with_a_zero_rhs_fails():
    # rademacher n = 1e4 at t = 4 has a gap of 7.15e-7, under the floor, so
    # a broken rhs of 0 would still pass
    report = decomposition_check(build_rademacher_row(10_000), 4.0)
    broken = IdentityReport(report.lhs, 0.0 * report.rhs, abs(report.lhs),
                            report.quadrature_error)
    assert not broken.passed


@st.composite
def rows_and_t_batch(draw):
    """(row, batch) with a random asymmetric row in dims 1-3 and 0-5 t of |t| <= 6."""
    row = draw(centred_rows())
    coords = st.floats(-6.0, 6.0, allow_subnormal=False)
    vectors = st.lists(coords, min_size=row.dimension, max_size=row.dimension)
    batch = np.array(draw(st.lists(vectors, max_size=5))).reshape(-1, row.dimension)
    return row, batch * (6.0 / np.maximum(np.linalg.norm(batch, axis=1, keepdims=True), 6.0))


@settings(max_examples=30, deadline=None)
@given(rows_and_t_batch())
def test_identity_batch_equals_single_t_calls_at_any_thread_count(case):
    # the batch fans its t out to one thread per core; no count may change a bit
    row, batch = case
    singles = [decomposition_check(row, t) for t in batch]
    for cores in (1, 4):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "_cores", lambda: cores)
            table = decomposition_check(row, batch)
        assert table.lhs.shape == (len(batch),)
        for i, single in enumerate(singles):
            assert table.lhs[i] == single.lhs and table.rhs[i] == single.rhs
            assert table.residual[i] == single.residual
            assert table.quadrature_error[i] == single.quadrature_error
            assert table.passed[i] == single.passed


def test_truncation_bound_examples():
    row = build_rademacher_row(25)
    lhs, rhs = truncation_bound_check(row, 0.0, 0.7, 0.3, 0.2, "same")
    assert lhs == 0.0
    assert rhs == pytest.approx(0.2, abs=1e-15)  # eps * N with empty tail sum

    # |e^{i theta} - 1| = 2 |sin(theta/2)|: every atom contributes
    # 2 sin(0.1) * (1/25) at s = r = 1, t = 1
    lhs, rhs = truncation_bound_check(row, 1.0, 1.0, 1.0, 0.4, "same")
    assert lhs == pytest.approx(2 * np.sin(0.1), abs=1e-14)
    assert rhs == pytest.approx(0.4, abs=1e-15)
    assert lhs <= rhs

    lhs, _ = truncation_bound_check(row, 1.0, 0.0, 1.0, 0.4, "same")
    assert lhs == 0.0  # s = 0 kills the phase


def test_truncation_bound_randomized_both_modes():
    rng = np.random.default_rng(100)
    for _ in range(300):
        row = random_builtin_row(rng)
        t = rng.uniform(-5, 5, row.dimension)
        s, r = rng.uniform(0, 1, 2)
        eps = rng.uniform(0.01, 1.0)
        for mode in ("same", "independent"):
            lhs, rhs = truncation_bound_check(row, t, float(s), float(r), float(eps), mode)
            assert lhs <= rhs


def test_truncation_bound_independent_lhs_factorises():
    # at r = 1 the independent lhs is sum_k E|e^{-i sqrt(s) <t, X0_k>} - 1| E|X_k|^2,
    # and only sqrt(s) r enters the phase
    row = build_eta_row(0.5, 40)
    t, s = 2.3, 0.6
    factor = np.abs(np.exp(-1j * np.sqrt(s) * t * row.points[:, 0]) - 1.0)
    second = row.per_cell_sum(row.probs * row.squared_norms())
    lhs, _ = truncation_bound_check(row, t, s, 1.0, 0.1, "independent")
    assert lhs == pytest.approx(row.per_cell_sum(row.probs * factor) @ second, abs=1e-14)
    lhs_r, _ = truncation_bound_check(row, t, 1.0, np.sqrt(s), 0.1, "independent")
    assert lhs_r == pytest.approx(lhs, abs=1e-14)


def test_truncation_bound_parameter_errors():
    row = build_rademacher_row(2)
    with pytest.raises(ParameterError):
        truncation_bound_check(row, 1.0, 0.5, 0.5, 0.0, "same")
    with pytest.raises(ParameterError):
        truncation_bound_check(row, 1.0, 1.5, 0.5, 0.1, "same")
    with pytest.raises(ParameterError):
        truncation_bound_check(row, 1.0, 0.5, 0.5, 0.1, "copy")


def test_master_bound_example():
    report = master_bound(build_rademacher_row(25), 1.0, 0.4)
    assert report.lhs_gap == pytest.approx(0.0020401607959417, abs=1e-12)
    assert report.term_same == 0.0
    assert report.term_indep == 0.0
    assert report.rhs == pytest.approx(0.8, abs=1e-15)
    assert report.slack == pytest.approx(0.8 - report.lhs_gap, abs=1e-15)
    assert report.passed


def test_master_bound_t_zero():
    report = master_bound(build_rademacher_row(3), 0.0, 0.25)
    assert report.lhs_gap == 0.0
    assert report.rhs == pytest.approx(2 * 0.25, abs=1e-15)


def test_master_bound_eta_regression():
    report = master_bound(build_eta_row(0.5, 100), 2.0, 0.1)
    assert report.passed
    assert report.slack >= 0.0


def test_master_bound_randomized_never_fails():
    rng = np.random.default_rng(2000)
    for _ in range(300):
        row = random_builtin_row(rng)
        t = rng.uniform(-5, 5, row.dimension)
        eps = float(rng.uniform(0.01, 1.0))
        report = master_bound(row, t, eps)
        assert report.slack >= 0.0


TABLE_TERMS = ("eps", "lhs_gap", "term_eps", "term_same", "term_indep", "envelope",
               "rhs", "slack", "passed")


@st.composite
def rows_batches_and_grids(draw):
    """(row, (m, N) t batch, eps grid): dims 1-3, t with zero components
    and repeats, an unsorted eps grid with duplicates."""
    row = draw(centred_rows())
    coords = st.floats(-6.0, 6.0, allow_subnormal=False)
    vector = st.lists(st.one_of(st.just(0.0), coords),
                      min_size=row.dimension, max_size=row.dimension)
    batch = np.array(draw(st.lists(vector, min_size=1, max_size=4)))
    base = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4))
    return row, batch, np.array(draw(st.permutations(base + [base[0]])))


@settings(max_examples=100, deadline=None)
@given(rows_batches_and_grids())
def test_master_bound_table_matches_the_per_eps_oracle(case):
    row, batch, grid = case
    report = master_bound(row, batch, grid)
    assert report.dimension == row.dimension
    for term in TABLE_TERMS:
        table = getattr(report, term)
        assert table.shape == (len(batch), len(grid))
        for i, t in enumerate(batch):
            expected = [entry[term] for entry in master_bound_oracle(row, t, grid)]
            assert table[i].tolist() == expected, (term, i)


@settings(max_examples=50, deadline=None)
@given(rows_batches_and_grids())
def test_master_bound_drops_the_axis_of_a_single_t_or_eps(case):
    row, batch, grid = case
    full = master_bound(row, batch, grid)
    single_t = master_bound(row, batch[0], grid)
    single_eps = master_bound(row, batch, grid[0])
    one = master_bound(row, batch[0], grid[0])
    for term in TABLE_TERMS:
        assert getattr(single_t, term).shape == grid.shape
        assert getattr(single_t, term).tolist() == getattr(full, term)[0].tolist()
        assert getattr(single_eps, term).shape == (len(batch),)
        assert getattr(single_eps, term).tolist() == getattr(full, term)[:, 0].tolist()
        assert np.ndim(getattr(one, term)) == 0
        assert getattr(one, term) == getattr(full, term)[0, 0]
    if row.dimension == 1:  # a 1-D row also takes a scalar t
        assert master_bound(row, float(batch[0, 0]), grid).rhs.tolist() == single_t.rhs.tolist()


def test_master_bound_grid_entries_equal_scalar_calls():
    rng = np.random.default_rng(404)
    grid = [0.5, 0.05, 1.0, 0.5, 0.2, 0.013, 2.0]
    for _ in range(40):
        row = random_builtin_row(rng)
        t = rng.uniform(-5, 5, row.dimension)
        report = master_bound(row, t, grid)
        assert report.eps.shape == (len(grid),)
        for j, eps in enumerate(grid):
            assert report.eps[j] == eps
            scalar = master_bound(row, t, eps)
            for term in TABLE_TERMS:
                assert getattr(report, term)[j] == getattr(scalar, term), term
    row = build_rademacher_row(4)
    assert master_bound(row, 1.0, np.array([0.3])).eps[0] == 0.3
    with pytest.raises(ParameterError):
        master_bound(row, 1.0, [[0.1, 0.2]])
    with pytest.raises(ParameterError):
        master_bound(row, 1.0, [0.1, 0.0])


EPS_TAKERS = {
    "lindeberg_sum": lambda eps: lindeberg_sum(build_rademacher_row(10), eps),
    "lindeberg_index_estimate":
        lambda eps: lindeberg_index_estimate(RademacherFamily(), eps, (10, 20)),
    "master_bound": lambda eps: master_bound(build_rademacher_row(10), 1.0, eps),
    "theorem_bound_report":
        lambda eps: theorem_bound_report(RademacherFamily(), [1.0], (10, 20), eps),
    "infinitesimality_profile":
        lambda eps: infinitesimality_profile(build_rademacher_row(10), eps),
    "truncation_bound_check":
        lambda eps: truncation_bound_check(build_rademacher_row(10), 1.0, 0.5, 0.5, eps, "same"),
}
GRID_TAKERS = ("lindeberg_sum", "lindeberg_index_estimate", "master_bound",
               "theorem_bound_report")


@pytest.mark.parametrize("taker", EPS_TAKERS)
def test_every_eps_taker_keeps_one_eps_rule(taker):
    call = EPS_TAKERS[taker]
    bad = [0.0, -0.5, np.nan, -np.inf, [[0.5]]]
    if taker in GRID_TAKERS:
        bad += [[], [0.5, np.nan], [np.nan], [0.5, 0.0]]
        call([0.5, 0.2])
    else:
        bad += [[0.5, 0.2]]
    call(0.5)
    for eps in bad:
        with pytest.raises(ParameterError):
            call(eps)


def test_master_bound_rejects_an_empty_grid():
    with pytest.raises(ParameterError):
        master_bound(build_rademacher_row(10), 1.0, [])


def test_master_bound_argmin_picks_smallest_rhs():
    row = build_eta_row(0.5, 50)
    report = master_bound(row, 1.0, DEFAULT_BOUND_EPS_GRID)
    best = report.rhs[np.argmin(report.rhs)]
    for eps in (1.0, 0.5, 0.2, 0.1, 0.05):
        assert best <= master_bound(row, 1.0, eps).rhs + 1e-15
    # the first of equal minima, as min() over the per-eps reports took it
    tied = master_bound(row, [[1.0], [2.0]], [0.3, 0.3])
    assert np.argmin(tied.rhs, axis=-1).tolist() == [0, 0]


def test_theorem_report_rademacher_consistent():
    report = theorem_bound_report(
        RademacherFamily(), t_grid=[0.5, 1.0, 2.0],
        n_grid=(1000, 5000, 20_000), eps_grid=(1.0, 0.5, 0.2, 0.1, 0.05),
        tail_window=2,
    )
    # the scaled-coin family meets the CLT condition: estimated indices
    # vanish once the tail n are large enough for every threshold
    assert report.l_same_estimate == 0.0
    assert report.lindeberg_estimate == 0.0
    assert report.corollary_rhs == 0.0
    # gap tails are tiny but positive; the slack floor absorbs them
    assert report.gap_tail_max.shape == (3,)
    assert np.all(report.gap_tail_max < 1e-3)
    assert np.all(report.theorem_ok)
    assert report.flagged == ()
    assert report.lambda_f < 0.01


def test_theorem_report_eta_respects_bounds():
    report = theorem_bound_report(
        EtaAlphaFamily(0.5), t_grid=[0.5, 1.0, 2.0],
        n_grid=(300, 1000, 3000, 10_000), eps_grid=(0.3, 0.1, 0.03),
        tail_window=3,
    )
    assert report.lindeberg_estimate == pytest.approx(0.5, abs=0.05)
    assert report.corollary_rhs == pytest.approx(1.0, abs=0.1)
    assert report.theorem_ok.shape == report.corollary_ok.shape == (3,)
    assert np.all(report.theorem_ok)
    assert np.all(report.corollary_ok)
    assert np.all(report.gap_tail_max < report.corollary_rhs)
    assert 0.0 <= report.lambda_f <= 2.0


def test_lambda_f_rademacher_small_at_fixed_t():
    _, estimate = gap_table_with_lambda_f(
        RademacherFamily(), t_grid=np.arange(0.5, 5.01, 0.5),
        n_grid=(1000, 5000, 10_000), tail_window=2,
    )
    assert 0.0 <= estimate <= 2.0
    assert estimate < 0.01


def test_sup_over_t_does_not_vanish_even_when_fixed_t_gaps_do():
    # max over a grid containing pi sqrt(n) stays near 1 for every n,
    # although each fixed t eventually gives a tiny gap: the order of
    # sup and limsup matters.
    for n in (10, 50, 100):
        row = RademacherFamily().row(n)
        t_grid = [0.5, 1.0, 2.0, np.pi * np.sqrt(n)]
        assert max(charfn_gap(row, t) for t in t_grid) >= 0.999
    big = RademacherFamily().row(10_000)
    assert all(charfn_gap(big, t) < 0.01 for t in (0.5, 1.0, 2.0))


def test_lambda_f_requires_grids():
    with pytest.raises(ParameterError):
        gap_table_with_lambda_f(RademacherFamily(), t_grid=[], n_grid=(10,))


class CountingFamily(RademacherFamily):
    """Rademacher rows that count how many were built."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def _build(self, n):
        self.builds += 1
        return super()._build(n)


ESTIMATORS = {
    "lindeberg_index_estimate":
        lambda family, n_grid, w: lindeberg_index_estimate(family, (0.5, 0.1), n_grid, w),
    "gap_table_with_lambda_f":
        lambda family, n_grid, w: gap_table_with_lambda_f(family, [0.5, 1.0], n_grid, w),
    "theorem_bound_report":
        lambda family, n_grid, w: theorem_bound_report(family, [0.5, 1.0], n_grid, (0.5,), w),
}


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("n_grid, tail_window", [
    ((), 1), ((10_000, 100, 10), 1), ((10, 10), 1), ((10, 100), 0), ((10, 100), -1),
])
def test_estimators_share_one_grid_rule(estimator, n_grid, tail_window):
    family = CountingFamily()
    with pytest.raises(ParameterError):
        ESTIMATORS[estimator](family, n_grid, tail_window)
    assert family.builds == 0
    ESTIMATORS[estimator](family, (10, 100), 1)
    assert family.builds == 2


def test_theorem_report_checks_eps_before_building():
    # the index estimate keeps the same rule
    for estimator in (
        lambda family, eps_grid: theorem_bound_report(family, [0.5, 1.0], (10, 100), eps_grid),
        lambda family, eps_grid: lindeberg_index_estimate(family, eps_grid, (10, 100)),
    ):
        for eps_grid in ((), (0.5, 0.0), (-0.1,), (0.5, np.nan), (np.nan,), [[0.5]]):
            family = CountingFamily()
            with pytest.raises(ParameterError):
                estimator(family, eps_grid)
            assert family.builds == 0


def test_report_flags_are_derived_from_the_slacks():
    report = theorem_bound_report(EtaAlphaFamily(0.5), [0.5, 1.0, 2.0, 4.0], (10, 30, 100),
                                  (0.5, 0.1))
    assert np.array_equal(report.theorem_ok, report.theorem_slack >= -SLACK_FLOOR)
    assert np.array_equal(report.corollary_ok, report.corollary_slack >= -SLACK_FLOOR)
    assert report.flagged == tuple(np.flatnonzero(~report.theorem_ok))
    # a report whose theorem slacks straddle the floor flags exactly the rows below it
    slack = np.array([0.0, -2 * SLACK_FLOOR, -SLACK_FLOOR, -0.5])
    moved = dataclasses.replace(report, theorem_slack=slack)
    assert moved.theorem_ok.tolist() == [True, False, True, False]
    assert moved.flagged == (1, 3)
    assert all(type(i) is int for i in moved.flagged)


def test_report_entries_match_a_per_t_computation():
    family, t_grid, n_grid, eps_grid = EtaAlphaFamily(0.4), [0.3, 1.0, 2.5], (10, 30, 100), (0.5, 0.1)
    report = theorem_bound_report(family, t_grid, n_grid, eps_grid, tail_window=2)
    for i, t in enumerate(t_grid):
        gap_tail = max(charfn_gap(family.row(n), t) for n in n_grid[-2:])
        rhs = 2.0 * (1.0 - gaussian_charfn(t)) * (report.l_same_estimate + report.l_indep_estimate)
        assert report.gap_tail_max[i] == gap_tail
        assert report.theorem_rhs[i] == rhs
        assert report.theorem_slack[i] == rhs - gap_tail
        assert report.corollary_slack[i] == report.corollary_rhs - gap_tail
    for copy, estimate in (("same", report.l_same_estimate),
                           ("independent", report.l_indep_estimate)):
        assert estimate == max(float(np.max(l_sum(family.row(n), copy, t, eps_grid)))
                               for n in n_grid[-2:] for t in t_grid)


@pytest.mark.parametrize("tail_window", [1, 2, 5])
def test_lambda_f_and_gap_tails_read_the_tail_window(tail_window):
    family = EtaAlphaFamily(0.5)
    t_grid, n_grid = [0.5, 1.0, 2.0, 4.0], (10, 30, 100)
    window = min(tail_window, len(n_grid))
    table, lambda_f = gap_table_with_lambda_f(family, t_grid, n_grid, tail_window)
    assert table.shape == (4, 3)
    assert lambda_f == np.clip(np.max(table[:, -window:]), 0.0, 2.0)
    report = theorem_bound_report(family, t_grid, n_grid, (0.5, 0.1), tail_window)
    assert np.array_equal(report.gap_table, table)
    assert report.lambda_f == lambda_f
    assert report.gap_tail_max.shape == (4,)
    for i, gap_tail_max in enumerate(report.gap_tail_max):
        assert gap_tail_max == np.max(report.gap_table[i, -window:])


def test_scalar_t_grid_is_an_m_by_1_batch_on_1d_families():
    family, n_grid = EtaAlphaFamily(0.3), (20, 50)
    scalars = [0.5, 1.0, 3.0]
    batch = np.array(scalars)[:, None]
    table, lambda_f = gap_table_with_lambda_f(family, scalars, n_grid)
    batch_table, batch_lambda_f = gap_table_with_lambda_f(family, batch, n_grid)
    assert np.array_equal(table, batch_table) and lambda_f == batch_lambda_f
    report = theorem_bound_report(family, scalars, n_grid)
    batch_report = theorem_bound_report(family, batch, n_grid)
    assert np.array_equal(report.gap_table, batch_report.gap_table)
    assert report.theorem_slack.tolist() == batch_report.theorem_slack.tolist()


def test_t_grid_on_nd_family_must_be_a_batch():
    family = ProductFamily([RademacherFamily(), RademacherFamily()])
    for t_grid in ([0.5, 1.0], 1.0, [[0.5, 1.0, 2.0]]):
        with pytest.raises(ShapeError):
            gap_table_with_lambda_f(family, t_grid, (10, 100))
        with pytest.raises(ShapeError):
            theorem_bound_report(family, t_grid, (10, 100))
    table, _ = gap_table_with_lambda_f(family, [[0.5, 1.0]], (10, 100))
    assert table.shape == (1, 2)
