import numpy as np
import pytest

from steinclt import (
    QuadratureSpec,
    alpha_identities,
    gaussian_expectation_identity,
    gradient_finite_difference,
    gradient_reduction_residual,
    hessian_closed_form,
    hessian_difference,
    hessian_finite_difference,
    stein_gradient,
    stein_residual,
    stein_solution,
)

from oracles import midpoint_solution

# frozen oracle (mpmath quad to 20 digits and a 1e6-panel midpoint rule
# agree): int_0^1 (2s)^{-1} [e^{-1/2} - e^{-(1-s)/2}] ds
SOLUTION_T1_X0 = -0.17290715861252633


def test_solution_vanishes_at_t_zero():
    assert stein_solution([0.0, 0.0], [1.0, -2.0]).value == 0.0


def test_solution_against_midpoint_oracle():
    value = stein_solution([1.0], [0.0]).value
    assert value == pytest.approx(SOLUTION_T1_X0, abs=1e-9)
    assert value == pytest.approx(midpoint_solution(1.0, 0.0), abs=1e-7)
    off_axis = stein_solution([1.5], [0.8]).value
    assert off_axis == pytest.approx(midpoint_solution(1.5, 0.8), abs=1e-6)


def test_solution_conjugation_symmetry():
    a = stein_solution([1.3], [0.4]).value
    b = stein_solution([-1.3], [0.4]).value
    assert b == pytest.approx(np.conj(a), abs=1e-15)


def test_gradient_zero_at_t_zero():
    assert np.array_equal(stein_gradient([0.0], [0.5]), [0.0 + 0.0j])


def test_gradient_matches_finite_differences():
    gradient = stein_gradient([1.0], [0.7])
    fd = gradient_finite_difference([1.0], [0.7], step=1e-5)
    assert np.max(np.abs(gradient - fd)) < 1e-6


def test_gradient_is_parallel_to_t():
    t = np.array([2.0, -1.0, 0.5])
    gradient = stein_gradient(t, [0.3, 0.9, -1.2])
    cross = np.outer(gradient, t) - np.outer(t, gradient)
    assert np.max(np.abs(cross)) < 1e-12


def test_gradient_reduction_verified_by_gauss_hermite():
    worst = max(
        gradient_reduction_residual(t, x, s, level=60)
        for t, x in (([1.0], [0.7]), ([2.0, -1.0], [0.5, 1.0]),
                     ([1.2, -0.7, 0.4], [0.3, 1.1, -0.8]))
        for s in (0.0, 0.25, 0.5, 0.9, 1.0)
    )
    assert worst < 1e-12


def test_hessian_closed_form_examples():
    assert np.array_equal(hessian_closed_form([0.0], [1.0]).matrix, [[0.0]])
    # x = 0: the scalar integral has antiderivative 2(1 - e^{-|t|^2/2})/|t|^2
    for t in ([1.0], [1.5, -0.5]):
        t = np.asarray(t)
        tt = float(t @ t)
        expected = np.outer(t, t) * (1.0 - np.exp(-tt / 2.0)) / tt
        result = hessian_closed_form(t, np.zeros_like(t))
        assert np.max(np.abs(result.matrix - expected)) < 1e-10
    value = hessian_closed_form([1.0], [0.0]).matrix[0, 0]
    assert value == pytest.approx(1.0 - np.exp(-0.5), abs=1e-10)


def test_hessian_matches_finite_differences():
    for t, x in (([1.0], [0.0]), ([3.0], [2.5]), ([1.0, 1.0], [0.3, -0.7]),
                 ([2.0, -1.0], [1.5, 0.5])):
        closed = hessian_closed_form(t, x).matrix
        fd = hessian_finite_difference(t, x, step=1e-4).matrix
        assert np.max(np.abs(closed - fd)) < 1e-5


def test_hessian_general_representation_agrees():
    # third route: the general integral form with the 1/(1-s) factor,
    # Gaussian expectation by Gauss-Hermite instead of closed form
    from steinclt import hessian_quadrature_representation

    for t, x in (([1.0], [0.7]), ([2.0], [-1.5]), ([1.0, 1.0], [0.3, -0.7])):
        general = hessian_quadrature_representation(t, x)
        closed = hessian_closed_form(t, x)
        assert general.method == "quadrature_representation"
        assert np.max(np.abs(general.matrix - closed.matrix)) < 1e-8


def test_hessian_rank_one_structure():
    result = hessian_closed_form([1.0, 2.0], [0.4, -0.2])
    assert result.method == "closed_form"
    assert np.max(np.abs(result.matrix - result.matrix.T)) == 0.0
    assert np.linalg.matrix_rank(result.matrix, tol=1e-12) == 1


def test_hessian_difference_degenerate_cases():
    assert np.max(np.abs(hessian_difference([1.0], [0.7], [0.7]))) < 1e-12
    assert np.max(np.abs(hessian_difference([0.0, 0.0], [1.0, 2.0], [0.0, 0.0]))) == 0.0


def test_hessian_difference_self_consistency():
    cases = (([1.0], [1.0], [0.0]), ([2.5], [0.3], [-1.2]),
             ([1.0, -1.0], [0.5, 0.5], [1.5, -0.5]))
    for t, x, y in cases:
        direct = hessian_difference(t, x, y)
        split = hessian_closed_form(t, x).matrix - hessian_closed_form(t, y).matrix
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
                 ([2.0, -1.0], [1.5, 0.5]), ([1.2, -0.7, 0.4], [0.3, 1.1, -0.8])):
        for s in np.linspace(0.0, 1.0, 21):
            residual = gaussian_expectation_identity(t, x, float(s), level=60)
            worst = max(worst, float(np.max(np.abs(residual))))
    assert worst < 1e-9


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
    result = stein_solution([2.0], [1.0], loose)
    tight = stein_solution([2.0], [1.0])
    assert abs(result.value - tight.value) <= max(1e-6, result.est_error + tight.est_error)
