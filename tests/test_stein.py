import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinclt.stein as stein_module
from steinclt import (
    ConvergenceError,
    ParameterError,
    QuadratureSpec,
    integrate_unit,
    alpha_identities,
    gaussian_expectation_identity,
    gradient_finite_difference,
    gradient_reduction_residual,
    hessian_closed_form,
    hessian_difference,
    hessian_finite_difference,
    hessian_quadrature_representation,
    shift_identity_check,
    stein_check_battery,
    stein_gradient,
    stein_residual,
    stein_solution,
)

from oracles import (fd_gradient_of_solution, fd_hessian_of_solution, midpoint_solution,
                     tensor_gauss_hermite_moments)

# frozen oracle (mpmath quad to 20 digits and a 1e6-panel midpoint rule
# agree): int_0^1 (2s)^{-1} [e^{-1/2} - e^{-(1-s)/2}] ds
SOLUTION_T1_X0 = -0.17290715861252633


def test_solution_vanishes_at_t_zero():
    assert stein_solution([0.0, 0.0], [1.0, -2.0])[0] == 0.0


def test_solution_against_midpoint_oracle():
    value, _ = stein_solution([1.0], [0.0])
    assert value == pytest.approx(SOLUTION_T1_X0, abs=1e-9)
    assert value == pytest.approx(midpoint_solution(1.0, 0.0), abs=1e-7)
    off_axis, _ = stein_solution([1.5], [0.8])
    assert off_axis == pytest.approx(midpoint_solution(1.5, 0.8), abs=1e-6)


def test_solution_conjugation_symmetry():
    a, _ = stein_solution([1.3], [0.4])
    b, _ = stein_solution([-1.3], [0.4])
    assert b == pytest.approx(np.conj(a), abs=1e-15)


def test_gradient_zero_at_t_zero():
    assert np.array_equal(stein_gradient([0.0], [0.5]), [0.0 + 0.0j])


def test_gradient_matches_finite_differences():
    gradient = stein_gradient([1.0], [0.7])
    fd = gradient_finite_difference([1.0], [0.7])
    assert np.max(np.abs(gradient - fd)) < 1e-6


def test_gradient_is_parallel_to_t():
    t = np.array([2.0, -1.0, 0.5])
    gradient = stein_gradient(t, [0.3, 0.9, -1.2])
    cross = np.outer(gradient, t) - np.outer(t, gradient)
    assert np.max(np.abs(cross)) < 1e-12


# (t, x) beyond the reach of a tensor grid (60^8 points in dim 8)
HIGH_DIM_CASES = (
    ([0.9, -1.1, 0.3, 0.6], [0.4, -1.3, 0.8, 0.2]),
    ([0.5, -0.8, 0.0, 1.1, -0.3, 0.7, 0.2, -0.6],
     [1.2, 0.3, -0.9, 0.4, 0.0, -1.5, 0.7, 0.1]),
)


def test_gradient_reduction_verified_by_gauss_hermite():
    worst = max(
        gradient_reduction_residual(t, x, s, level=60)
        for t, x in (([1.0], [0.7]), ([2.0, -1.0], [0.5, 1.0]),
                     ([1.2, -0.7, 0.4], [0.3, 1.1, -0.8]), *HIGH_DIM_CASES)
        for s in (0.0, 0.25, 0.5, 0.9, 1.0)
    )
    assert worst < 1e-12


def test_hessian_closed_form_examples():
    assert np.array_equal(hessian_closed_form([0.0], [1.0]), [[0.0]])
    # x = 0: the scalar integral has antiderivative 2(1 - e^{-|t|^2/2})/|t|^2
    for t in ([1.0], [1.5, -0.5]):
        t = np.asarray(t)
        tt = float(t @ t)
        expected = np.outer(t, t) * (1.0 - np.exp(-tt / 2.0)) / tt
        result = hessian_closed_form(t, np.zeros_like(t))
        assert np.max(np.abs(result - expected)) < 1e-10
    value = hessian_closed_form([1.0], [0.0])[0, 0]
    assert value == pytest.approx(1.0 - np.exp(-0.5), abs=1e-10)


def test_hessian_matches_finite_differences():
    for t, x in (([1.0], [0.0]), ([3.0], [2.5]), ([1.0, 1.0], [0.3, -0.7]),
                 ([2.0, -1.0], [1.5, 0.5])):
        closed = hessian_closed_form(t, x)
        fd = hessian_finite_difference(t, x)
        assert np.max(np.abs(closed - fd)) < 1e-5


def test_hessian_general_representation_agrees():
    # third route: the general integral form with the 1/(1-s) factor,
    # Gaussian expectation by Gauss-Hermite instead of closed form
    from steinclt import hessian_quadrature_representation

    for t, x in (([1.0], [0.7]), ([2.0], [-1.5]), ([1.0, 1.0], [0.3, -0.7])):
        general, _ = hessian_quadrature_representation(t, x)
        closed = hessian_closed_form(t, x)
        assert np.max(np.abs(general - closed)) < 1e-8


@pytest.mark.parametrize("t, x", [([1.3], [0.4]), ([2.0, -1.0], [1.5, 0.5]),
                                  ([1.0, -0.5, 2.0], [0.3, -0.7, 1.1])])
def test_finite_differences_match_the_per_point_stencils(t, x):
    # one integral over the whole stencil against one solution per point:
    # a few ulps of the solution, divided by 2h = 2e-5 and h^2 = 1e-8
    gradient = gradient_finite_difference(t, x)
    assert np.max(np.abs(gradient - fd_gradient_of_solution(t, x))) <= 1e-10
    assert np.max(np.abs(hessian_finite_difference(t, x)
                         - fd_hessian_of_solution(t, x))) <= 1e-6


def test_hessian_general_representation_agrees_in_dim_three():
    t, x = [1.0, -0.5, 2.0], [0.3, -0.7, 1.1]
    general, error = hessian_quadrature_representation(t, x)
    closed = hessian_closed_form(t, x)
    assert np.max(np.abs(general - closed)) < 1e-8
    assert np.array_equal(general, general.T)
    # the largest entry error, each within that entry's own tolerance
    assert error <= 1e-9 * max(1.0, np.max(np.abs(general)))


@pytest.mark.parametrize("name", ["gradient_finite_difference", "hessian_finite_difference",
                                  "hessian_quadrature_representation"])
@pytest.mark.parametrize("dim", [1, 3])
def test_multi_point_checks_are_one_integral(name, dim, monkeypatch):
    calls = []

    def counted(f, *args, **kwargs):
        calls.append(f)
        return integrate_unit(f, *args, **kwargs)

    monkeypatch.setattr(stein_module, "integrate_unit", counted)
    getattr(stein_module, name)(np.linspace(0.5, 1.5, dim), np.linspace(-0.3, 0.3, dim))
    assert len(calls) == 1


def test_hessian_rank_one_structure():
    result = hessian_closed_form([1.0, 2.0], [0.4, -0.2])
    assert np.max(np.abs(result - result.T)) == 0.0
    assert np.linalg.matrix_rank(result, tol=1e-12) == 1


def test_hessian_difference_degenerate_cases():
    assert np.max(np.abs(hessian_difference([1.0], [0.7], [0.7]))) < 1e-12
    assert np.max(np.abs(hessian_difference([0.0, 0.0], [1.0, 2.0], [0.0, 0.0]))) == 0.0


def test_hessian_difference_self_consistency():
    cases = (([1.0], [1.0], [0.0]), ([2.5], [0.3], [-1.2]),
             ([1.0, -1.0], [0.5, 0.5], [1.5, -0.5]))
    for t, x, y in cases:
        direct = hessian_difference(t, x, y)
        split = hessian_closed_form(t, x) - hessian_closed_form(t, y)
        assert np.max(np.abs(direct - split)) < 1e-8


def test_gaussian_expectation_identity_degenerate_cases():
    assert np.max(np.abs(gaussian_expectation_identity([1.0], [2.0], 1.0, 40))) < 1e-12
    assert np.max(np.abs(gaussian_expectation_identity([0.0], [2.0], 0.5, 40))) < 1e-12


def test_gaussian_expectation_identity_closed_value():
    # at s=0, t=1, x=3 the closed form is -e^{-1/2} (the x-phase drops out)
    residual = gaussian_expectation_identity([1.0], [3.0], 0.0, level=60)
    assert np.max(np.abs(residual)) < 1e-10
    quad = residual[0, 0] + (-(1.0) * np.exp(-0.5))
    assert quad == pytest.approx(-np.exp(-0.5), abs=1e-10)


def test_gaussian_expectation_identity_on_s_grid():
    worst = 0.0
    for t, x in (([1.0], [3.0]), ([3.0], [1.0]), ([1.0, 1.0], [0.3, -0.7]),
                 ([2.0, -1.0], [1.5, 0.5]), ([1.2, -0.7, 0.4], [0.3, 1.1, -0.8]),
                 *HIGH_DIM_CASES):
        for s in np.linspace(0.0, 1.0, 21):
            residual = gaussian_expectation_identity(t, x, float(s), level=60)
            worst = max(worst, float(np.max(np.abs(residual))))
    assert worst < 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_moment_identities_on_an_s_grid_match_the_scalar_calls(dim):
    rng = np.random.default_rng(dim)
    t, x = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim)
    grid = np.linspace(0.0, 1.0, 21)
    second = gaussian_expectation_identity(t, x, grid)
    first = gradient_reduction_residual(t, x, grid)
    assert second.shape == (grid.size, dim, dim) and first.shape == grid.shape
    for k, s in enumerate(grid):
        assert np.array_equal(second[k], gaussian_expectation_identity(t, x, float(s)))
        assert first[k] == gradient_reduction_residual(t, x, float(s))


def test_moment_identities_reject_s_outside_the_unit_interval():
    for s in (-0.1, 1.5, np.nan, [0.5, 1.5]):
        with pytest.raises(ParameterError):
            gaussian_expectation_identity([1.0], [0.0], s)
        with pytest.raises(ParameterError):
            gradient_reduction_residual([1.0], [0.0], s)


@st.composite
def moment_inputs(draw):
    """(t, x, s, level) in dims 1-3: |t| <= 5 with zero components drawn
    often, s on [0, 1] with both endpoints drawn often."""
    dim = draw(st.integers(1, 3))
    coord = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_subnormal=False))
    t = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    x = np.array(draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False),
                               min_size=dim, max_size=dim)))
    s = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return t, x, s, draw(st.integers(1, 60))


@settings(max_examples=60, deadline=None)
@given(moment_inputs())
def test_factorised_moments_match_tensor_grid(case):
    t, x, s, level = case
    first, second = tensor_gauss_hermite_moments(t, x, s, level)
    assert np.max(np.abs(stein_module._first_moment(t, x, s, level) - first)) <= 1e-14
    assert np.max(np.abs(stein_module._second_moment(t, x, s, level) - second)) <= 1e-14


def test_alpha_identities_degenerate_cases():
    assert alpha_identities([1.5, -2.0], [3.0, 1.0], 1.0) == (0.0, 0.0)
    assert alpha_identities([1.5], [0.0], 0.3) == (0.0, 0.0)


def test_alpha_identities_random_trials():
    rng = np.random.default_rng(17)
    worst1 = worst2 = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 4))
        y = rng.uniform(-5, 5, dim)
        t = rng.uniform(-5, 5, dim)
        s = float(rng.uniform(0.0, 1.0))
        r1, r2 = alpha_identities(y, t, s)
        worst1 = max(worst1, r1)
        worst2 = max(worst2, r2)
    assert worst1 < 1e-12
    assert worst2 < 1e-12


def test_stein_residual_vanishes():
    # x = 0: -trace Hess = e^{-|t|^2/2} - 1 exactly
    assert abs(stein_residual([1.0], [0.0])) < 1e-8
    assert stein_residual([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert abs(stein_residual([1.0, 1.0], [0.3, -0.7])) < 1e-7
    worst = max(
        abs(stein_residual(t, x))
        for t, x in (([2.0], [1.5]), ([3.0], [-3.0]), ([1.0, -2.0], [0.4, 0.9]))
    )
    assert worst < 1e-7


def test_quadrature_spec_is_honoured():
    loose = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
    value, error = stein_solution([2.0], [1.0], loose)
    tight, tight_error = stein_solution([2.0], [1.0])
    assert abs(value - tight) <= max(1e-6, error + tight_error)


def test_stein_check_battery_runs_every_check_in_order():
    t, x, y = [1.2, -0.4], [0.7, -0.7], [0.1, 0.2]
    checks = stein_check_battery(t, x, y, level=40)
    assert [name for name, _, _ in checks] == [
        "gradient_fd", "hessian_fd", "stein_equation", "gaussian_moment2",
        "gaussian_moment1", "hessian_difference"]
    assert all(residual <= tol for _, residual, tol in checks)
    split = hessian_closed_form(t, x) - hessian_closed_form(t, y)
    assert checks[-1][1] == float(np.max(np.abs(hessian_difference(t, x, y) - split)))
    assert checks[2][1] == abs(stein_residual(t, x))


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_shift_identity_check_takes_the_worst_seeded_draw(dim):
    rng = np.random.default_rng(4)
    worst = [0.0, 0.0]
    for _ in range(50):
        y, t, s = rng.uniform(-5.0, 5.0, dim), rng.uniform(-5.0, 5.0, dim), rng.uniform(0.0, 1.0)
        worst = [max(w, r) for w, r in zip(worst, alpha_identities(y, t, s))]
    assert shift_identity_check(dim, 50, seed=4) == [
        ("shift_identity_scalar", worst[0], 1e-12), ("shift_identity_matrix", worst[1], 1e-12)]
    # zero draws would report both identities as holding with residual 0
    with pytest.raises(ParameterError, match="trials must be >= 1"):
        shift_identity_check(dim, 0)


# every public (t, x) function, called with an empty t
EMPTY_T_CALLS = {
    "stein_solution": lambda: stein_solution([], []),
    "stein_gradient": lambda: stein_gradient([], []),
    "gradient_finite_difference": lambda: gradient_finite_difference([], []),
    "hessian_closed_form": lambda: hessian_closed_form([], []),
    "hessian_quadrature_representation": lambda: hessian_quadrature_representation([], []),
    "hessian_finite_difference": lambda: hessian_finite_difference([], []),
    "hessian_difference": lambda: hessian_difference([], [], []),
    "gaussian_expectation_identity": lambda: gaussian_expectation_identity([], [], 0.5),
    "gradient_reduction_residual": lambda: gradient_reduction_residual([], [], 0.5),
    "alpha_identities": lambda: alpha_identities([], [], 0.5),
    "stein_residual": lambda: stein_residual([], []),
    "stein_check_battery": lambda: stein_check_battery([], [], []),
}


def test_empty_t_calls_cover_every_public_function():
    assert set(EMPTY_T_CALLS) == set(stein_module.__all__) - {"shift_identity_check"}


@pytest.mark.parametrize("name", sorted(EMPTY_T_CALLS))
def test_empty_t_is_a_parameter_error(name):
    with pytest.raises(ParameterError, match="t must have at least one component"):
        EMPTY_T_CALLS[name]()


def test_shift_identity_check_rejects_dim_zero():
    with pytest.raises(ParameterError, match="dim must be >= 1"):
        shift_identity_check(0, 10)


def test_shift_identity_check_does_not_depend_on_the_batch_size(monkeypatch):
    whole = shift_identity_check(3, 100, seed=9)
    monkeypatch.setattr(stein_module, "_SHIFT_BATCH_ENTRIES", 9 * 7)  # 7 draws a batch
    assert shift_identity_check(3, 100, seed=9) == whole


@pytest.mark.parametrize("t", [10.0, 12.0, 30.0])
def test_an_unresolved_gauss_hermite_rule_is_a_convergence_error(t):
    # the 60-point rule cannot resolve e^{-i sqrt(1-s) t z} here; the identity
    # itself holds, so this is numerical trouble, not a failed check
    with pytest.raises(ConvergenceError, match="Gauss-Hermite level 60 does not resolve") as info:
        stein_check_battery([t], [1.0], [0.2])
    assert info.value.error_bound > 1e-9


def test_a_broken_moment_identity_still_fails(monkeypatch):
    # an offset that no rule level removes is a failed check, not numerical trouble
    def broken(t, x, s, level):
        return gaussian_expectation_identity(t, x, s, level) + 1e-6

    monkeypatch.setattr(stein_module, "gaussian_expectation_identity", broken)
    checks = {name: (residual, tol) for name, residual, tol in
              stein_check_battery([1.0], [1.0], [0.2])}
    residual, tol = checks["gaussian_moment2"]
    assert residual > tol
    assert residual == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("t", [10.0, 12.0])
def test_a_finer_gauss_hermite_rule_resolves_large_t(t):
    checks = {name: (residual, tol) for name, residual, tol in
              stein_check_battery([t], [1.0], [0.2], level=120)}
    for name in ("gaussian_moment2", "gaussian_moment1"):
        assert checks[name][0] <= 1e-14


@pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 8.0])
def test_a_resolved_gauss_hermite_rule_reports_its_residual(t):
    checks = {name: (residual, tol) for name, residual, tol in
              stein_check_battery([t], [1.0], [0.2])}
    grid = np.linspace(0.0, 1.0, 21)
    moment2 = float(np.max(np.abs(gaussian_expectation_identity([t], [1.0], grid))))
    moment1 = float(np.max(gradient_reduction_residual([t], [1.0], grid)))
    assert checks["gaussian_moment2"] == (moment2, 1e-9)
    assert checks["gaussian_moment1"] == (moment1, 1e-9)
    assert all(residual <= tol for residual, tol in checks.values())


@pytest.mark.parametrize("t, x", [
    ([1e200], [1.0]),                   # |t|^2 overflows
    ([1e154], [1e300]),                 # <t, x> overflows
    ([1e10, 1e10], [1e300, -1e300]),    # <t, x> is inf - inf
], ids=["tt", "tx", "nan"])
def test_overflow_is_a_parameter_error_without_a_warning(t, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (stein_solution, stein_residual, lambda t, x: stein_check_battery(t, x, x)):
            with pytest.raises(ParameterError, match="must be finite"):
                call(t, x)
