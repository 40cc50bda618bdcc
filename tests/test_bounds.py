import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import steinclt.bounds as bounds_module
import steinclt.quadrature as quadrature_module
import steinclt.util as util
from oracles import identity_by_stein_route, identity_integrand_r_form, master_bound_oracle
from steinclt import (
    ArrayRow,
    EtaAlphaFamily,
    IdentityReport,
    ParameterError,
    ProductFamily,
    RademacherFamily,
    RowValidationError,
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
    master_bound_infimum,
    row_sum_charfn,
    theorem_bound_report,
    truncation_bound_check,
)
from steinclt.bounds import DEFAULT_BOUND_EPS_GRID, SLACK_FLOOR
from steinclt.stein import hessian_closed_form, hessian_quadrature_representation
from steinclt.util import exclusive_products
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


def test_identity_holds_on_a_row_scaled_within_the_covariance_tolerance():
    # a covariance sum of (1 + 4e-11)^2, which validation accepts: without
    # the term e^{-|t|^2/2} - e^{-tau/2} the rhs misses the gap by ~1e-11
    base = build_rademacher_row(1000)
    row = ArrayRow(1, base.points * (1.0 + 4e-11), base.probs, base.offsets)
    for t in (0.5, 1.0, 2.0, 4.0):
        report = decomposition_check(row, t)
        assert report.residual <= 10.0 * report.quadrature_error + 1e-13


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
    # force one s-node per phase-pass chunk and one atom per tile, and check
    # that a single t and a ray of t return the same values
    import steinclt.charfn as charfn_module

    row = build_eta_row(0.5, 12)
    ray = [[1.5], [0.4], [0.9]]
    whole, shared = identity_rhs(row, 1.5), identity_rhs(row, ray)
    monkeypatch.setattr(charfn_module, "_PHASE_BUDGET", 1)
    monkeypatch.setattr(charfn_module, "_TILE_ELEMENTS", 1)
    chunked, chunked_ray = identity_rhs(row, 1.5), identity_rhs(row, ray)
    assert chunked[0] == whole[0]
    assert chunked[1] == whole[1]
    assert np.array_equal(chunked_ray[0], shared[0]) and np.array_equal(chunked_ray[1], shared[1])


def asymmetric_row():
    """3000 centred, asymmetric 1-D cells of 2 and 3 atoms (7500 atoms)."""
    rng = np.random.default_rng(7)
    cells = []
    for k in range(3000):
        x = rng.normal(size=(2 + k % 2, 1))
        q = rng.uniform(0.2, 1.0, x.shape[0])
        q /= q.sum()
        cells.append((x - q @ x, q))
    scale = np.sqrt(sum(float(q @ x[:, 0] ** 2) for x, q in cells))
    return ArrayRow.from_cells((x / scale, q) for x, q in cells)


def test_identity_rhs_bits_do_not_depend_on_the_chunk_size(monkeypatch):
    # 3000 asymmetric cells of 2 and 3 atoms (7500 atoms): a 30-node chunk
    # makes a (30, 3000) complex temporary of 1.4 MB and a 4-node chunk one
    # of 192 kB, on either side of the 256 KiB where numpy starts to reuse
    # temporaries, which once swapped the operands of a complex product
    import steinclt.charfn as charfn_module

    row = asymmetric_row()
    values = []
    for budget in (10**6, 2 * 10**5, 3 * 10**4):
        monkeypatch.setattr(charfn_module, "_PHASE_BUDGET", budget)
        values.append(identity_rhs(row, 1.7))
    assert values[0] == values[1] == values[2]


def test_identity_rhs_keeps_a_bounded_working_set():
    # numpy reports its buffers to tracemalloc.  On the 400k-atom eta row one
    # call must stay within four atom-sized float64 arrays (12.8 MB) besides
    # the row.  It peaks at 11.3 MB with one s-node per transform chunk and
    # psis - mu formed in place; two nodes per chunk, a kept <x, t> and a
    # separate psis - mu array peaked at 21.2 MB (numpy 2.4, x86-64)
    row = EtaAlphaFamily(0.5).row(10**5)
    identity_rhs(row, 1.3)
    tracemalloc.start()
    try:
        identity_rhs(row, 1.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * row.total_atoms * 8


@st.composite
def enumerable_rows_and_t(draw):
    """(row, t) with a random asymmetric row in dims 1-3 whose sum has at
    most 9 support points, and |t| <= 1/2.  Each cell is centred again after
    the whitening, whose rounding leaves means of a few 1e-15, so that the
    route's E X_k = 0 holds to rounding."""
    dim = draw(st.integers(1, 3))
    row = draw(centred_rows(dim=dim, max_cells=2, max_atoms=3 if dim < 3 else 2))
    row = ArrayRow.from_cells((x - p @ x, p) for x, p in row.cells())
    coords = st.floats(-0.5, 0.5, allow_subnormal=False)
    t = np.array(draw(st.lists(coords, min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(t))
    return row, t if norm <= 0.5 else t * (0.5 / norm)


def quadrature_hessian(t, x):
    return hessian_quadrature_representation(t, x)[0]


@pytest.mark.parametrize("hessian", [hessian_closed_form, quadrature_hessian])
@settings(max_examples=8, deadline=None)
@given(enumerable_rows_and_t())
def test_the_stein_route_gives_both_sides_of_the_identity(hessian, case):
    # the paper's route from the Hessian of the Stein solution to the gap,
    # by enumeration, joins the stein module to both sides of the identity
    row, t = case
    route = identity_by_stein_route(row, t, hessian)
    assert abs(route - identity_lhs(row, t)) <= 1e-15
    assert abs(route - identity_rhs(row, t)[0]) <= 1e-15


def test_the_stein_route_refuses_a_large_support():
    with pytest.raises(ValueError, match="4096"):
        identity_by_stein_route(build_rademacher_row(13), 1.0, hessian_closed_form)


def identity_integrand(row, t):
    """identity_rhs's s-integrand f, taken from its integrate_unit call."""
    seen = []

    def capture(f, *args, **kwargs):
        seen.append(f)
        return np.zeros(1), np.zeros(1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds_module, "integrate_unit", capture)
        identity_rhs(row, t)
    # a lone t is a ray of one: its integrand has one component column
    return lambda s: seen[0](s)[:, 0]


KERNEL_S = np.array([1e-12, 1e-8, 1e-4, 0.01, 0.5, 0.99])
# measured worst case over 2000 examples: 2u |f - oracle| = 4.2 eps (1 + |t|^2)
KERNEL_ULPS = 16


@settings(max_examples=100, deadline=None)
@given(rows_and_t())
def test_identity_integrand_matches_the_r_form_oracle(case):
    # the quadrature integrates 2u f(u^2), whose weight cancels the eps/u
    # rounding of psi - mu near s = 0, so that is the scale compared
    row, t = case
    f = identity_integrand(row, t)(KERNEL_S)
    oracle = np.array([identity_integrand_r_form(row, t, s) for s in KERNEL_S])
    weight = 2.0 * np.sqrt(KERNEL_S)
    tol = KERNEL_ULPS * np.finfo(float).eps * (1.0 + float(t @ t))
    assert np.max(np.abs(weight * (f - oracle))) <= tol


@pytest.mark.parametrize("row, t", [
    (build_eta_row(0.5, 1000), np.array([2.0])),
    (build_product_row([build_rademacher_row(6), build_eta_row(0.3, 6)]), np.array([1.2, -0.7])),
])
def test_identity_integrand_is_minus_twice_the_path_derivative(row, t):
    # g(s) = phi_row(sqrt(s) t) e^{-(1-s)|t|^2/2} runs from phi_Gauss(t) to phi_row(t)
    def g(s):
        return row_sum_charfn(row, np.sqrt(s) * t) * np.exp(-0.5 * (1.0 - s) * float(t @ t))

    s, h = np.array([0.05, 0.3, 0.7, 0.95]), 1e-5
    f = identity_integrand(row, t)(s)
    central = np.array([(g(v + h) - g(v - h)) / (2.0 * h) for v in s])
    assert np.max(np.abs(f + 2.0 * central)) <= 1e-8


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
def rows_and_ray_batch(draw):
    """(row, batch, order) with a random asymmetric row in dims 1-3, 1-6 t =
    r e on one random unit direction e, |r| <= 6, and a permutation of the
    batch.  Radii of mixed sign put the t on the two rays e and -e, and a
    radius 0 gives t = 0."""
    row = draw(centred_rows())
    coords = st.floats(-1.0, 1.0, allow_subnormal=False)
    e = np.array(draw(st.lists(coords, min_size=row.dimension, max_size=row.dimension)))
    assume(np.linalg.norm(e) > 0.1)
    e /= np.linalg.norm(e)
    radii = draw(st.lists(st.floats(-6.0, 6.0, allow_subnormal=False), min_size=1, max_size=6))
    order = draw(st.permutations(range(len(radii))))
    return row, np.array(radii)[:, None] * e, order


@settings(max_examples=30, deadline=None)
@given(rows_and_ray_batch())
def test_identity_rays_share_one_quadrature_at_any_thread_count_and_order(case):
    # one quadrature per ray: an entry's bits depend on its ray's t only, not
    # on the thread count or the batch order, and stay within both error
    # estimates (and the rounding of the lhs) of the single-t call
    row, batch, order = case
    tables = []
    for cores in (1, 4):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(util, "_cores", lambda: cores)
            tables.append(decomposition_check(row, batch))
    shuffled = decomposition_check(row, batch[order])
    table, eps = tables[0], np.finfo(float).eps
    for i, t in enumerate(batch):
        for other, k in ((tables[1], i), (shuffled, order.index(i))):
            assert other.lhs[k] == table.lhs[i] and other.rhs[k] == table.rhs[i]
            assert other.quadrature_error[k] == table.quadrature_error[i]
            assert other.mean_bound[k] == table.mean_bound[i]
        assert table.passed[i]
        single = decomposition_check(row, t)
        one = decomposition_check(row, t[None, :])
        assert (one.rhs[0], one.quadrature_error[0]) == (single.rhs, single.quadrature_error)
        values, errors = identity_rhs(row, t[None, :])
        assert (values[0], errors[0]) == identity_rhs(row, t)
        slack = table.quadrature_error[i] + single.quadrature_error + 16 * eps * (1 + float(t @ t))
        assert abs(table.rhs[i] - single.rhs) <= slack


def test_identity_rhs_takes_a_batch_only_on_one_ray():
    row = build_product_row([build_rademacher_row(3), build_eta_row(0.5, 3)])
    values, errors = identity_rhs(row, [[0.6, 0.8], [1.2, 1.6]])
    assert values.shape == errors.shape == (2,)
    for batch in ([[0.6, 0.8], [0.8, 0.6]], [[0.6, 0.8], [-0.6, -0.8]], [[0.6, 0.8], [0.0, 0.0]]):
        with pytest.raises(ParameterError, match="one ray"):
            identity_rhs(row, batch)
    # a lone t = 0 is a ray of one
    values, errors = identity_rhs(row, [[0.0, 0.0]])
    assert values.tolist() == [0.0] and errors.tolist() == [0.0]


@pytest.mark.parametrize("batch", [
    [[3.16e-161], [1.9e-161]],
    [[1e-200], [3e-201]],
    [[1e-320], [6e-321]],
    [[0.6e-200, 0.8e-200], [0.18e-200, 0.24e-200]],
])
def test_a_ray_whose_squared_norms_underflow_is_one_quadrature(batch, monkeypatch):
    # |t|^2 is subnormal or 0 here, so t/|t| is taken after scaling t by a
    # power of two; unscaled, the directions were off by up to 1e-3
    row = build_product_row([build_rademacher_row(3)] * len(batch[0]))
    batch = np.array(batch)
    assert [ray.tolist() for ray in bounds_module._rays(batch)] == [[0, 1]]
    calls = []
    monkeypatch.setattr(bounds_module, "integrate_unit",
                        lambda *args, **kwargs: calls.append(1) or quadrature_module.integrate_unit(*args, **kwargs))
    assert decomposition_check(row, batch).passed.all()
    assert len(calls) == 1


def test_a_long_ray_is_cut_where_the_gaussian_factor_grows_too_large():
    # one quadrature over t = 0.5 and 40 would scale the column of 0.5 by
    # e^{(40^2 - 0.5^2) / 2}, which overflows; the ray runs as two quadratures
    row = build_eta_row(0.5, 200)
    batch = np.array([[0.5], [8.0], [40.0], [-0.5], [0.0]])
    assert [ray.tolist() for ray in bounds_module._rays(batch)] == [[2], [1, 0], [3], [4]]
    report = decomposition_check(row, batch)
    assert report.passed.all()
    assert report.rhs[2] == decomposition_check(row, 40.0).rhs
    assert report.rhs[4] == decomposition_check(row, 0.0).rhs


def test_identity_rhs_forms_excl_times_psis_minus_mu_in_that_order():
    # an asymmetric 3000-cell row, where the two operand orders of the complex
    # product differ in the last bit on about a quarter of the entries: the
    # captured integrand must equal, bit for bit, an oracle that forms
    # excl * (psis - mu) in that order.  The oracle names psis - mu, so numpy
    # cannot reuse it as a temporary and swap the operands
    row = asymmetric_row()
    t = np.array([1.7])
    s = np.array([0.04, 0.3, 0.81])
    u = np.sqrt(s)
    pd = row.probs * row.project(t)
    mu, m2t = row.per_cell_sum(pd), row.per_cell_sum(row.project(t) * pd)
    phase = row.project(u[:, None] * t)

    def transform(w):
        out = np.empty((len(s), row.n), dtype=np.complex128)
        out.real = row.per_cell_sum((w * np.cos(phase)).T).T
        out.imag = -row.per_cell_sum((w * np.sin(phase)).T).T
        return out

    phis, psis = transform(row.probs), transform(pd)
    excl = exclusive_products(phis)
    moved = psis - mu
    second = excl * phis
    second *= m2t

    def oracle(product):
        sums = np.sum(product, axis=1)
        return (1j * sums / u - np.sum(second, axis=1)) * np.exp(-0.5 * (1.0 - s) * float(np.sum(m2t)))

    f = identity_integrand(row, t)(s)
    assert np.array_equal(f, oracle(np.multiply(excl, moved)))
    assert not np.array_equal(f, oracle(np.multiply(moved, excl)))


def test_identity_mean_bound_covers_cell_means_within_the_tolerance():
    # rademacher n = 1000 with every point shifted by 5e-13 validates; its
    # cell means add up to sum_k |mu_k(t)| = 1000 * 5e-13 * |t| to the residual
    base = build_rademacher_row(1000)
    row = ArrayRow(1, base.points + 5e-13, base.probs, base.offsets)
    report = decomposition_check(row, [[0.5], [1.0], [2.0]])
    assert np.allclose(report.mean_bound, [2.5e-10, 5e-10, 1e-9], rtol=1e-6)
    assert np.all(report.residual - report.mean_bound <= 10 * report.quadrature_error + 1e-13)
    assert decomposition_check(base, [[0.5], [2.0]]).mean_bound.tolist() == [0.0, 0.0]


@st.composite
def shifted_rows_and_t(draw):
    """(row, t, u): an asymmetric row in dims 1-3 whose cells are shifted by
    at most 3e-13 each, so its cell means are nonzero and still validate,
    and two random t of norm at most 4."""
    base = draw(centred_rows())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.uniform(-1.0, 1.0, (base.n, base.dimension)) * 3e-13 / np.sqrt(base.dimension)
    try:
        row = ArrayRow(base.dimension, base.points + np.repeat(shift, np.diff(base.offsets), axis=0),
                       base.probs, base.offsets)
    except RowValidationError:
        reject()
    t, u = rng.uniform(-1.0, 1.0, (2, base.dimension)) * 4.0 / np.sqrt(base.dimension)
    return row, t, u


@settings(max_examples=20, deadline=None)
@given(shifted_rows_and_t())
def test_the_mean_bound_is_the_sum_of_cell_mean_projections_per_t(case):
    # mean_bound is sum_k |<t, E X_k>| of each t itself, and the same bits
    # in a batch as in the t's single call: t and 0.5 t share a ray, -t
    # and 0 are lone t, and so is u in dims 2 and 3
    row, t, u = case
    batch = np.array([t, -t, 0.5 * t, np.zeros_like(t), u])
    report = decomposition_check(row, batch)
    eps = np.finfo(float).eps
    for i, tvec in enumerate(batch):
        d = row.project(tvec)
        cells = np.split(row.probs * d, row.offsets[1:-1])
        oracle = sum(abs(math.fsum(cell)) for cell in cells)
        rounding = 16 * eps * float(row.probs @ (np.abs(row.points) @ np.abs(tvec)))
        assert abs(report.mean_bound[i] - oracle) <= rounding
        assert report.mean_bound[i] == decomposition_check(row, tvec).mean_bound
    assert report.mean_bound[1] == report.mean_bound[0] and report.mean_bound[3] == 0.0
    assert report.mean_bound[0] > 0.0


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


@settings(max_examples=60, deadline=None)
@given(rows_and_t())
def test_master_bound_infimum_is_the_least_rhs_of_a_dense_eps_scan(case):
    # the scan holds every phase v_a, its neighbouring floats, the least
    # positive float (the limit eps -> 0+) and a log grid; the infimum's
    # suffix sums and the scan's masked sums round differently, so the
    # two minima agree to rounding of the summed weights
    row, t = case
    report = master_bound_infimum(row, t)
    v = np.abs(row.project(t))
    v = v[v > 0.0]
    scan = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf),
                           [np.nextafter(0.0, 1.0)], np.geomspace(1e-6, 20.0, 40)])
    least = np.min(master_bound(row, t, scan[scan > 0.0]).rhs)
    tol = 1e-13 * (1.0 + 2.0 * row.dimension)
    assert report.rhs <= least + tol
    assert least <= report.rhs + tol
    assert report.eps == 0.0 or report.eps in v
    # below |t| of about 1e-7 the rhs, about |t|^2, falls under the rounding
    # of the computed gap, which the strict xfail below pins
    if np.linalg.norm(t) >= 1e-4:
        assert report.slack >= 0.0 and report.passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the computed gap's rounding is not bounded, ROADMAP item 1")
def test_master_bound_infimum_holds_at_a_tiny_t():
    # at t = 1e-9 the envelope 1 - e^{-|t|^2/2} rounds to 0, so the rhs in
    # the limit eps -> 0+ is 0, while the computed gap is 2.2e-16 of rounding
    assert master_bound_infimum(build_eta_row(0.3, 7), 1e-9).passed


def test_master_bound_infimum_on_rademacher_is_two_t_over_root_n():
    # every phase is |t|/sqrt(n): below it the rhs keeps both copies' weight
    # 2, at it the tail sums vanish, leaving 2 eps N = 2 |t| / sqrt(n)
    n = 100_000
    report = master_bound_infimum(build_rademacher_row(n), [[0.5], [4.0]])
    assert report.rhs == pytest.approx([1.0 / np.sqrt(n), 8.0 / np.sqrt(n)], rel=1e-14)
    assert report.rhs.round(5).tolist() == [3.16e-3, 2.53e-2]
    assert report.eps == pytest.approx([0.5 / np.sqrt(n), 4.0 / np.sqrt(n)], rel=1e-14)
    assert report.term_same.tolist() == report.term_indep.tolist() == [0.0, 0.0]


def test_master_bound_infimum_batch_entries_equal_single_t_calls():
    row = build_product_row([build_eta_row(0.4, 6)] * 2)
    batch = np.array([[0.0, 0.0], [0.3, -1.2], [2.5, 1.0]])
    report = master_bound_infimum(row, batch)
    for i, t in enumerate(batch):
        single = master_bound_infimum(row, t)
        for term in ("eps", "lhs_gap", "term_same", "term_indep", "envelope", "rhs"):
            assert getattr(report, term)[i] == getattr(single, term), term
    # at t = 0 nothing passes any eps, and the limit eps -> 0+ gives rhs 0
    assert (report.eps[0], report.rhs[0]) == (0.0, 0.0)


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


def test_two_dim_gap_table_and_report_entries_equal_single_t_calls():
    family = ProductFamily([EtaAlphaFamily(0.4), RademacherFamily()])
    t_grid = np.random.default_rng(8).uniform(-3.0, 3.0, (4, 2))
    n_grid = (10, 20, 40)
    table, _ = gap_table_with_lambda_f(family, t_grid, n_grid)
    assert table.tolist() == [[charfn_gap(family.row(n), t) for n in n_grid] for t in t_grid]
    report = theorem_bound_report(family, t_grid, n_grid, tail_window=2)
    l_sums = report.l_same_estimate + report.l_indep_estimate
    for i, t in enumerate(t_grid):
        gap_tail = max(charfn_gap(family.row(n), t) for n in n_grid[-2:])
        theorem_rhs = 2.0 * (1.0 - gaussian_charfn(t)) * l_sums
        assert report.gap_tail_max[i] == gap_tail
        assert report.theorem_rhs[i] == theorem_rhs
        assert report.theorem_slack[i] == theorem_rhs - gap_tail
        assert report.corollary_slack[i] == report.corollary_rhs - gap_tail


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
