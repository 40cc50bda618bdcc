"""Stein-equation machinery for the Fourier test functions.

For a test function h the Gaussian-interpolation solution of

    <x, grad f(x)> - Laplacian f(x) = E[h(Z)] - h(x),   Z ~ N(0, I_N),

is f_h(x) = int_0^1 (2s)^{-1} E[h(Z) - h(sqrt(s) x + sqrt(1-s) Z)] ds
(substitute s = e^{-2u} in the Ornstein-Uhlenbeck semigroup solution to
see the sign).  Everything here specialises h to e_t(x) = exp(-i <t, x>),
for which the Gaussian expectations collapse to closed forms:

    solution:  f(x)      = int_0^1 (2s)^{-1} [ e^{-|t|^2/2}
                            - e^{-i sqrt(s) <t,x> - (1-s)|t|^2/2} ] ds
    gradient:  grad f(x) = (i t / 2) int_0^1 s^{-1/2}
                            e^{-i sqrt(s) <t,x> - (1-s)|t|^2/2} ds
    Hessian:   Hess f(x) = (t t^T / 2) int_0^1
                            e^{-i sqrt(s) <t,x> - (1-s)|t|^2/2} ds

The Hessian form is the reason this specialisation matters: the general
integral representation carries a 1/(1-s) endpoint factor that makes it
numerically treacherous for arbitrary h, while for e_t the factor
cancels exactly.  ``gaussian_expectation_identity`` certifies that
cancellation numerically, and ``alpha_identities`` checks the two
algebraic identities (complex shift alpha = y + i sqrt(1-s) t) behind it.

General bounded-C^2 test functions are deliberately out of numerical
scope here; the identity checks in the bounds module cover the one place
they matter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _hermite_grid, integrate_unit, outer_product
from .util import as_vector

__all__ = [
    "SteinEval",
    "HessianEval",
    "stein_solution",
    "stein_gradient",
    "gradient_finite_difference",
    "hessian_closed_form",
    "hessian_quadrature_representation",
    "hessian_finite_difference",
    "hessian_difference",
    "gaussian_expectation_identity",
    "gradient_reduction_residual",
    "alpha_identities",
    "stein_residual",
]


@dataclass(frozen=True)
class SteinEval:
    """Value of the solution at (t, x) with its quadrature error bound."""

    t: np.ndarray
    x: np.ndarray
    value: complex
    est_error: float


@dataclass(frozen=True)
class HessianEval:
    """Hessian at (t, x); ``matrix`` is rank one for method closed_form."""

    t: np.ndarray
    x: np.ndarray
    matrix: np.ndarray
    method: str
    est_error: float


def _pair(t, x) -> tuple[np.ndarray, np.ndarray, float, float]:
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    return t, x, float(t @ t), float(t @ x)


def stein_solution(t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> SteinEval:
    """Evaluate the solution f(x) for test function e_t.

    The integrand behaves like s^{-1/2} near 0, so the endpoint
    substitution is always applied regardless of ``spec.singularity``.
    """
    t, x, tt, a = _pair(t, x)
    limit_value = np.exp(-0.5 * tt)

    def integrand(s):
        return (0.5 / s) * (limit_value - np.exp(-1j * np.sqrt(s) * a - 0.5 * (1.0 - s) * tt))

    value, err = integrate_unit(
        integrand, replace(spec, singularity="inverse_sqrt_at_zero"), return_error=True
    )
    return SteinEval(t=t, x=x, value=complex(value), est_error=err)


def _oscillatory_integral(tt: float, a: float, spec: QuadratureSpec, *, half_power: bool):
    """int_0^1 s^{-1/2 or 0} exp(-i sqrt(s) a - (1-s) tt / 2) ds with error."""

    if half_power:

        def integrand(s):
            return np.exp(-1j * np.sqrt(s) * a - 0.5 * (1.0 - s) * tt) / np.sqrt(s)

        return integrate_unit(
            integrand, replace(spec, singularity="inverse_sqrt_at_zero"), return_error=True
        )

    def integrand(s):
        return np.exp(-1j * np.sqrt(s) * a - 0.5 * (1.0 - s) * tt)

    return integrate_unit(integrand, replace(spec, singularity="none"), return_error=True)


def stein_gradient(t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE, *, return_error: bool = False):
    """grad f(x) for test function e_t; always a complex multiple of t.

    Uses the analytically reduced integrand (the Gaussian first-moment
    expectation in closed form), leaving a single s-quadrature;
    ``gradient_reduction_residual`` verifies that reduction against
    tensor-product Gauss-Hermite.
    """
    t, x, tt, a = _pair(t, x)
    integral, err = _oscillatory_integral(tt, a, spec, half_power=True)
    gradient = 0.5j * integral * t.astype(np.complex128)
    if return_error:
        return gradient, 0.5 * err * float(np.max(np.abs(t), initial=0.0))
    return gradient


def gradient_finite_difference(
    t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE, step: float = 1e-5
) -> np.ndarray:
    """grad f(x) by central differences of the solution (step ~ 1e-5
    balances truncation against rounding at the default quadrature
    tolerance); an independent check of ``stein_gradient``."""
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    gradient = np.empty(t.size, dtype=np.complex128)
    for l in range(t.size):
        offset = np.zeros_like(x)
        offset[l] = step
        plus = stein_solution(t, x + offset, spec).value
        minus = stein_solution(t, x - offset, spec).value
        gradient[l] = (plus - minus) / (2.0 * step)
    return gradient


def hessian_quadrature_representation(
    t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE, level: int = 40
) -> HessianEval:
    """Hess f(x) through the general integral representation.

    Evaluates -int_0^1 (2(1-s))^{-1} E[e_t(sqrt(s)x + sqrt(1-s)Z)
    (Z Z^T - I)] ds entrywise, with the Gaussian expectation done by
    Gauss-Hermite quadrature rather than in closed form.  The 1/(1-s)
    endpoint factor is cancelled analytically by the expectation but not
    by its quadrature error, so this route is for cross-checking at
    moderate tolerances; production work uses ``hessian_closed_form``.
    """
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    dim = t.size
    matrix = np.empty((dim, dim), dtype=np.complex128)
    worst_err = 0.0
    for l in range(dim):
        for m in range(l, dim):
            def integrand(s, l=l, m=m):
                s = np.atleast_1d(np.asarray(s, dtype=np.float64))
                values = np.array(
                    [_second_moment(t, x, float(s_value), level)[l, m] for s_value in s]
                )
                return -values / (2.0 * (1.0 - s))

            value, err = integrate_unit(integrand, spec, return_error=True)
            matrix[l, m] = matrix[m, l] = value
            worst_err = max(worst_err, err)
    return HessianEval(
        t=t, x=x, matrix=matrix, method="quadrature_representation", est_error=worst_err
    )


def hessian_finite_difference(
    t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE, step: float = 1e-4
) -> HessianEval:
    """Hess f(x) by second central differences of the solution."""
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    dim = t.size
    matrix = np.empty((dim, dim), dtype=np.complex128)
    value = stein_solution(t, x, spec).value
    eye = step * np.eye(dim)

    def f(point):
        return stein_solution(t, point, spec).value

    for l in range(dim):
        matrix[l, l] = (f(x + eye[l]) - 2.0 * value + f(x - eye[l])) / step**2
        for m in range(l + 1, dim):
            mixed = (
                f(x + eye[l] + eye[m])
                - f(x + eye[l] - eye[m])
                - f(x - eye[l] + eye[m])
                + f(x - eye[l] - eye[m])
            ) / (4.0 * step**2)
            matrix[l, m] = matrix[m, l] = mixed
    return HessianEval(t=t, x=x, matrix=matrix, method="finite_difference", est_error=float("nan"))


def hessian_closed_form(t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> HessianEval:
    """Hess f(x) = (t t^T / 2) * scalar integral; singularity-free."""
    t, x, tt, a = _pair(t, x)
    integral, err = _oscillatory_integral(tt, a, spec, half_power=False)
    matrix = 0.5 * integral * outer_product(t)
    max_entry = float(np.max(np.abs(np.outer(t, t)), initial=0.0))
    return HessianEval(
        t=t, x=x, matrix=matrix, method="closed_form", est_error=0.5 * err * max_entry
    )


def hessian_difference(t, x, y, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """Hess f(x) - Hess f(y), evaluated as one integral.

    The integrand groups the two phases as
    e_{sqrt(s) t}(y) [e_{sqrt(s) t}(x - y) - 1], which vanishes
    identically at x = y; agreement with the difference of two
    ``hessian_closed_form`` calls is a standing self-consistency check.
    """
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    y = as_vector(y, t.size, name="y")
    tt = float(t @ t)
    ay = float(t @ y)
    dxy = float(t @ (x - y))

    def integrand(s):
        root = np.sqrt(s)
        return (
            np.exp(-1j * root * ay)
            * (np.exp(-1j * root * dxy) - 1.0)
            * np.exp(-0.5 * (1.0 - s) * tt)
        )

    integral = integrate_unit(integrand, replace(spec, singularity="none"))
    return 0.5 * integral * outer_product(t)


def _interp_phase(t: np.ndarray, x: np.ndarray, s: float, level: int):
    """Gauss-Hermite points z and weights times e_t(sqrt(s) x + sqrt(1-s) z).

    Every Gaussian moment below is a contraction of this one weighted
    phase array with the (shared, read-only) grid points.
    """
    points, weights = _hermite_grid(level, t.size)
    shift = np.sqrt(s) * float(t @ x)
    return points, weights * np.exp(-1j * (shift + np.sqrt(1.0 - s) * (points @ t)))


def _second_moment(t: np.ndarray, x: np.ndarray, s: float, level: int) -> np.ndarray:
    """E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)] by Gauss-Hermite.

    The real and imaginary parts are contracted separately: forming the
    entries as one (points x entries) complex array would double the
    peak memory of a level-60 grid.
    """
    points, phase = _interp_phase(t, x, s, level)
    moment = (points * phase.real[:, None]).T @ points
    moment = moment + 1j * ((points * phase.imag[:, None]).T @ points)
    return moment - np.sum(phase) * np.eye(t.size)


def gaussian_expectation_identity(t, x, s: float, level: int = 60) -> np.ndarray:
    """Residual of the closed-form Gaussian second-moment expectation.

    Compares E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)], computed by
    Gauss-Hermite quadrature, against the closed form
    -(1-s) t t^T exp(-i sqrt(s) <t,x> - (1-s)|t|^2/2).  The returned
    matrix is (quadrature - closed form); its max magnitude certifies
    that the 1/(1-s) factor of the general Hessian representation
    cancels for Fourier test functions.
    """
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    tt = float(t @ t)
    closed = (
        -(1.0 - s)
        * outer_product(t)
        * np.exp(-1j * np.sqrt(s) * float(t @ x) - 0.5 * (1.0 - s) * tt)
    )
    return _second_moment(t, x, s, level) - closed


def gradient_reduction_residual(t, x, s: float, level: int = 60) -> float:
    """Max residual of the closed-form Gaussian first-moment expectation.

    Checks E[e_t(sqrt(s) x + sqrt(1-s) Z) Z] against
    -i sqrt(1-s) t exp(-i sqrt(s) <t,x> - (1-s)|t|^2/2), the reduction
    used by ``stein_gradient``.
    """
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    points, phase = _interp_phase(t, x, s, level)
    quadrature = phase.real @ points + 1j * (phase.imag @ points)
    tt = float(t @ t)
    closed = (
        -1j
        * np.sqrt(1.0 - s)
        * t
        * np.exp(-1j * np.sqrt(s) * float(t @ x) - 0.5 * (1.0 - s) * tt)
    )
    return float(np.max(np.abs(quadrature - closed)))


def alpha_identities(y, t, s: float) -> tuple[float, float]:
    """Residuals of the two algebraic shift identities, exact up to rounding.

    With alpha = y + i sqrt(1-s) t (complex bilinear transpose, no
    conjugation):

      (1)  -i sqrt(1-s) <t, y> - |y|^2/2
             = -(1-s)|t|^2/2 - alpha^T alpha / 2
      (2)  y y^T - I = alpha alpha^T - i sqrt(1-s)(t alpha^T + alpha t^T)
                        - (1-s) t t^T - I
    """
    y = as_vector(y, name="y")
    t = as_vector(t, y.size, name="t")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    root = np.sqrt(1.0 - s)
    alpha = y + 1j * root * t

    lhs1 = -1j * root * float(t @ y) - 0.5 * float(y @ y)
    rhs1 = -0.5 * (1.0 - s) * float(t @ t) - 0.5 * complex(alpha @ alpha)
    residual1 = abs(lhs1 - rhs1)

    eye = np.eye(y.size)
    lhs2 = np.outer(y, y) - eye
    rhs2 = (
        np.outer(alpha, alpha)
        - 1j * root * np.outer(t, alpha)
        - 1j * root * np.outer(alpha, t)
        - (1.0 - s) * np.outer(t, t)
        - eye
    )
    residual2 = float(np.max(np.abs(lhs2 - rhs2)))
    return residual1, residual2


def stein_residual(t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """Residual of the defining equation at (t, x).

    Computes <x, grad f(x)> - trace Hess f(x) - (e^{-|t|^2/2} - e_t(x))
    from the closed-form gradient and Hessian; zero up to quadrature
    error when the machinery is consistent.
    """
    t, x, tt, a = _pair(t, x)
    gradient = stein_gradient(t, x, spec)
    hessian = hessian_closed_form(t, x, spec)
    lhs = complex(x @ gradient) - complex(np.trace(hessian.matrix))
    rhs = np.exp(-0.5 * tt) - np.exp(-1j * a)
    return lhs - rhs
