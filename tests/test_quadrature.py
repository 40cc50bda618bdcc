import numpy as np
import pytest

from steinclt import (
    ConvergenceError,
    DomainError,
    ParameterError,
    QuadratureSpec,
    UnsupportedDimensionError,
    gauss_hermite_expect,
    integrate_unit,
    outer_product,
)

SQRT_SPEC = QuadratureSpec(singularity="inverse_sqrt_at_zero")


def test_constant_integrand():
    assert integrate_unit(lambda s: np.ones_like(s)) == pytest.approx(1.0, abs=1e-12)


def test_inverse_sqrt_singularity():
    # int_0^1 s^{-1/2}/2 ds = 1
    value = integrate_unit(lambda s: 0.5 / np.sqrt(s), SQRT_SPEC)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_exponential_closed_form():
    # int_0^1 exp(-(1-s)/2) ds = 2(1 - e^{-1/2}); cross-checked by a
    # 1e6-point Riemann sum when this value was frozen.
    value = integrate_unit(lambda s: np.exp(-(1.0 - s) / 2.0))
    assert value == pytest.approx(0.7869386805747332, abs=1e-10)


def test_complex_integrand_and_error_estimate():
    value, err = integrate_unit(lambda s: np.exp(1j * s), return_error=True)
    exact = (np.exp(1j) - 1.0) / 1j
    assert abs(value - exact) <= max(err, 1e-12)


def test_linearity_on_random_polynomials():
    rng = np.random.default_rng(42)
    for _ in range(25):
        coeff_f = rng.uniform(-3, 3, 5)
        coeff_g = rng.uniform(-3, 3, 5)
        a, b = rng.uniform(-2, 2, 2)
        f = lambda s: np.polyval(coeff_f, s)
        g = lambda s: np.polyval(coeff_g, s)
        combined = integrate_unit(lambda s: a * f(s) + b * g(s))
        split = a * integrate_unit(f) + b * integrate_unit(g)
        assert abs(combined - split) <= 2 * (1e-9 + 1e-9 * max(abs(combined), abs(split)))


def test_sqrt_weighted_polynomials():
    # int_0^1 s^{-1/2} s^j ds = 2/(2j+1), any polynomial through degree 6
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.uniform(-4, 4, 7)
        exact = sum(c * 2.0 / (2 * j + 1) for j, c in enumerate(coeffs))

        def f(s, coeffs=coeffs):
            powers = np.vstack([s**j for j in range(7)])
            return (coeffs @ powers) / np.sqrt(s)

        assert integrate_unit(f, SQRT_SPEC) == pytest.approx(exact, abs=1e-9)


def test_convergence_error_carries_estimate():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=3)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_unit(lambda s: np.sin(50.0 / (s + 1e-3)), spec)
    assert excinfo.value.error_bound > 0
    assert np.isfinite(abs(excinfo.value.estimate))


def test_non_finite_integrand_is_domain_error():
    with pytest.raises(DomainError):
        integrate_unit(lambda s: np.where(s > 0.5, np.inf, 1.0))


def test_bad_spec_rejected():
    with pytest.raises(ParameterError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(singularity="pole")
    with pytest.raises(ParameterError):
        QuadratureSpec(max_subdivisions=0)


def test_gauss_hermite_normalisation_and_variance():
    assert gauss_hermite_expect(lambda p: np.ones(p.shape[0]), 2) == pytest.approx(1.0)
    assert gauss_hermite_expect(lambda p: p[:, 0] ** 2, 2).real == pytest.approx(1.0)


def test_gauss_hermite_moments_through_eight():
    # E[Z^k] = 0 (odd), 1, 3, 15, 105 (even); exact for level >= 8
    expected = {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}
    for k, target in expected.items():
        value = gauss_hermite_expect(lambda p, k=k: p[:, 0] ** k, 8)
        assert value.real == pytest.approx(target, abs=1e-10 * max(1.0, target))
        assert value.imag == 0.0


def test_gauss_hermite_characteristic_function():
    value = gauss_hermite_expect(lambda p: np.exp(-1j * p[:, 0]), 40)
    assert value == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_gauss_hermite_multivariate():
    value = gauss_hermite_expect(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, 8, dim=2)
    assert value.real == pytest.approx(1.0, abs=1e-10)
    phi = gauss_hermite_expect(
        lambda p: np.exp(-1j * (p[:, 0] + p[:, 1])), 40, dim=2
    )
    assert phi == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_gauss_hermite_grid_is_read_only():
    # the grid is cached and shared, so a g that writes into it must fail
    def scribble(points):
        points[0, 0] = 1.0
        return np.ones(points.shape[0])

    with pytest.raises(ValueError):
        gauss_hermite_expect(scribble, 8, dim=2)
    assert gauss_hermite_expect(lambda p: p[:, 0] ** 2, 8, dim=2).real == pytest.approx(1.0)


def test_gauss_hermite_dimension_cap():
    with pytest.raises(UnsupportedDimensionError, match="Monte Carlo"):
        gauss_hermite_expect(lambda p: np.ones(p.shape[0]), 4, dim=5)


def test_outer_product_examples():
    assert np.array_equal(outer_product([0.0, 0.0]), np.zeros((2, 2)))
    assert np.array_equal(outer_product([1.0, 0.0]), np.array([[1, 0], [0, 0]], dtype=complex))
    t = np.array([1.0, 2.0])
    x = np.array([3.0, 4.0])
    assert (x @ outer_product(t) @ x).real == pytest.approx((x @ t) ** 2)  # 121


def test_outer_product_symmetric_psd_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform(-5, 5, rng.integers(1, 5))
        matrix = outer_product(t)
        assert np.array_equal(matrix, matrix.T)
        assert np.trace(matrix).real == pytest.approx(t @ t)
        eigenvalues = np.linalg.eigvalsh(matrix.real)
        assert np.all(eigenvalues >= -1e-12)
