import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinclt import (
    ConvergenceError,
    DomainError,
    ParameterError,
    ShapeError,
    integrate_unit,
)
from steinclt import quadrature
from steinclt.quadrature import _hermite_rule


def test_constant_integrand():
    assert integrate_unit(lambda s: np.ones_like(s)) == pytest.approx(1.0, abs=1e-12)


def test_inverse_sqrt_singularity():
    # int_0^1 s^{-1/2}/2 ds = 1
    value = integrate_unit(lambda s: 0.5 / np.sqrt(s))
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

        assert integrate_unit(f) == pytest.approx(exact, abs=1e-9)


def test_convergence_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_unit(lambda s: np.sin(50.0 / (s + 1e-3)))
    assert excinfo.value.error_bound > 0
    assert np.isfinite(abs(excinfo.value.estimate))


def test_convergence_error_on_an_array_integrand_carries_arrays(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_unit(lambda s: np.stack((np.sin(50.0 / (s + 1e-3)), np.ones_like(s)), -1))
    estimate, error = excinfo.value.estimate, excinfo.value.error_bound
    assert estimate.shape == error.shape == (2,)
    assert error[0] > 1e-9 and error[1] <= 1e-12
    assert estimate[1] == pytest.approx(1.0, abs=1e-12)


def _components(coeffs, omega, s):
    """A polynomial, an oscillatory and a 1e-12-scaled component, and
    their exact integrals over [0, 1]."""
    poly = 2.0 + np.polyval(np.append(coeffs, 0.0), s)
    wave = 2.0 + np.exp(1j * omega * s)
    tiny = 1e-12 * (2.0 + np.cos(omega * np.sqrt(s)))
    exact = (2.0 + sum(c / (len(coeffs) + 1 - j) for j, c in enumerate(coeffs)),
             2.0 + (np.exp(1j * omega) - 1.0) / (1j * omega),
             1e-12 * (2.0 + 2.0 * (np.cos(omega) + omega * np.sin(omega) - 1.0) / omega**2))
    return np.stack((poly, wave, tiny), axis=-1), exact


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       omega=st.floats(1.0, 60.0))
def test_array_components_meet_their_own_scalar_tolerance(coeffs, omega):
    # every component is held to max(1e-9, 1e-9 * |its integral|), as a
    # scalar call on it alone would be
    values, errors = integrate_unit(lambda s: _components(coeffs, omega, s)[0],
                                    return_error=True)
    _, exact = _components(coeffs, omega, 0.5)
    assert values.shape == errors.shape == (3,)
    for c in range(3):
        scalar, scalar_err = integrate_unit(lambda s: _components(coeffs, omega, s)[0][:, c],
                                            return_error=True)
        tol = max(1e-9, 1e-9 * abs(scalar))
        assert scalar_err <= tol
        assert errors[c] <= max(1e-9, 1e-9 * abs(values[c]))
        assert abs(values[c] - scalar) <= tol
        assert abs(values[c] - exact[c]) <= tol


def test_component_axes_keep_their_shape():
    def f(s):
        return np.stack((np.stack((s, s * s), -1), np.stack((np.ones_like(s), s**3), -1)), -2)

    value = integrate_unit(f)
    assert value.shape == (2, 2)
    assert np.allclose(value, [[1 / 2, 1 / 3], [1.0, 1 / 4]], atol=1e-12)
    # a 0-d result broadcasts over the nodes
    assert integrate_unit(lambda s: np.float64(1.5)) == pytest.approx(1.5, abs=1e-12)


def test_oscillatory_integrand_takes_few_rounds():
    # every panel that misses its share is bisected in the same round, so
    # the integrand is called once per round rather than once per panel
    calls = []

    def f(s):
        calls.append(s.size)
        return np.sin(50.0 / (s + 0.05))

    value, err = integrate_unit(f, return_error=True)
    assert len(calls) <= 12
    assert err <= 1e-9
    # reference: 64 equal u-panels, 40-node Gauss-Legendre on each
    nodes, weights = np.polynomial.legendre.leggauss(40)
    u = ((np.arange(64)[:, None] + 0.5 * (nodes + 1.0)) / 64).ravel()
    reference = np.sum(np.tile(weights, 64) * 2.0 * u * np.sin(50.0 / (u * u + 0.05))) / 128
    assert abs(value - reference) <= 1e-12


def _limited(s):
    """Components with closed-form integrals from 0 to b: cos 3s, an
    s^{-1/2} blow-up, an oscillation, a steep exponential and 1."""
    return np.stack((np.cos(3.0 * s), 0.5 / np.sqrt(s), np.exp(5j * s), np.exp(30.0 * s),
                     np.ones_like(s)), axis=-1)


def test_each_component_is_integrated_up_to_its_own_limit():
    upper = np.array([0.3, 0.77, 0.05, 0.4, 0.0])
    values, errors = integrate_unit(_limited, return_error=True, upper=upper)
    exact = [np.sin(0.9) / 3.0, np.sqrt(0.77), (np.exp(0.25j) - 1.0) / 5j,
             (np.exp(12.0) - 1.0) / 30.0, 0.0]
    tol = np.maximum(1e-9, 1e-9 * np.abs(exact))
    assert np.all(errors <= tol)
    assert np.all(np.abs(values - exact) <= tol)
    assert values[4] == errors[4] == 0.0
    # limits of 1 give the plain sums, bit for bit
    plain = integrate_unit(_limited, return_error=True)
    ones = integrate_unit(_limited, return_error=True, upper=np.ones(5))
    assert np.array_equal(ones[0], plain[0]) and np.array_equal(ones[1], plain[1])


def test_the_error_of_a_cut_panel_tracks_its_true_error(monkeypatch):
    # one panel, cut inside at u = sqrt(0.4): the 20-node interpolant's
    # partial integral of e^{30 s} misses by about its difference from the
    # 30-node one (the bisections that follow are checked above)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 0)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_unit(lambda s: np.exp(30.0 * s)[:, None], upper=[0.4])
    exact = (np.exp(12.0) - 1.0) / 30.0
    miss, estimate = abs(excinfo.value.estimate[0] - exact), excinfo.value.error_bound[0]
    assert 0.5 * estimate <= miss <= 2.0 * estimate


def test_upper_limits_are_checked():
    def f(s):
        return np.stack((s, s), axis=-1)

    with pytest.raises(ShapeError):
        integrate_unit(f, upper=[0.5])
    with pytest.raises(ShapeError):
        integrate_unit(f, upper=[[0.5, 0.5]])
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ParameterError):
            integrate_unit(f, upper=[0.5, bad])


def test_partial_weights_are_built_only_for_a_cut_panel():
    quadrature._interpolation_inverses.cache_clear()
    integrate_unit(lambda s: np.stack((s, s), axis=-1), upper=[1.0, 1.0])
    integrate_unit(lambda s: s)
    assert quadrature._interpolation_inverses.cache_info().currsize == 0
    assert integrate_unit(lambda s: s[:, None], upper=[0.5])[0] == pytest.approx(0.125, abs=1e-15)
    assert quadrature._interpolation_inverses.cache_info().currsize == 1


def test_non_finite_integrand_is_domain_error():
    with pytest.raises(DomainError):
        integrate_unit(lambda s: np.where(s > 0.5, np.inf, 1.0))


def test_gauss_hermite_normalisation_and_variance():
    nodes, weights = _hermite_rule(2)
    assert np.sum(weights) == pytest.approx(1.0)
    assert weights @ nodes**2 == pytest.approx(1.0)


def test_gauss_hermite_moments_through_eight():
    # E[Z^k] = 0 (odd), 1, 3, 15, 105 (even); exact for level >= 8
    expected = {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}
    nodes, weights = _hermite_rule(8)
    for k, target in expected.items():
        assert weights @ nodes**k == pytest.approx(target, abs=1e-10 * max(1.0, target))


def test_gauss_hermite_characteristic_function():
    nodes, weights = _hermite_rule(40)
    assert weights @ np.exp(-1j * nodes) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_hermite_rule_is_read_only():
    # the rule is cached and shared, so writing into it must fail
    nodes, weights = _hermite_rule(8)
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert _hermite_rule(8)[0] is nodes
    assert weights @ nodes**2 == pytest.approx(1.0)
