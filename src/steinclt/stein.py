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
``stein_check_battery`` and ``shift_identity_check`` run every one of
these checks against its residual ceiling; ``stein-clt stein-check``
reports them.

General bounded-C^2 test functions are deliberately out of numerical
scope here; the identity checks in the bounds module cover the one place
they matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _hermite_rule, integrate_unit, outer_product
from .util import as_vector, exclusive_products

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
    "stein_check_battery",
    "shift_identity_check",
]

# s nodes at which the Gaussian moment checks are maximised.
_CHECK_S_GRID = np.linspace(0.0, 1.0, 21)


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

    The integrand behaves like s^{-1/2} near 0; ``integrate_unit`` works
    in u = sqrt(s), where it is smooth.
    """
    t, x, tt, a = _pair(t, x)
    limit_value = np.exp(-0.5 * tt)

    def integrand(s):
        return (0.5 / s) * (limit_value - np.exp(-1j * np.sqrt(s) * a - 0.5 * (1.0 - s) * tt))

    value, err = integrate_unit(integrand, spec, return_error=True)
    return SteinEval(t=t, x=x, value=complex(value), est_error=err)


def _oscillatory_integral(tt: float, a: float, spec: QuadratureSpec, *, half_power: bool):
    """int_0^1 s^{-1/2 or 0} exp(-i sqrt(s) a - (1-s) tt / 2) ds with error."""

    def integrand(s):
        root = np.sqrt(s)
        value = np.exp(-1j * root * a - 0.5 * (1.0 - s) * tt)
        return value / root if half_power else value

    return integrate_unit(integrand, spec, return_error=True)


def stein_gradient(t, x, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """grad f(x) for test function e_t; always a complex multiple of t.

    Uses the analytically reduced integrand (the Gaussian first-moment
    expectation in closed form), leaving a single s-quadrature;
    ``gradient_reduction_residual`` verifies that reduction against
    Gauss-Hermite quadrature.
    """
    t, x, tt, a = _pair(t, x)
    integral, _ = _oscillatory_integral(tt, a, spec, half_power=True)
    return 0.5j * integral * t.astype(np.complex128)


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

    integral = integrate_unit(integrand, spec)
    return 0.5 * integral * outer_product(t)


def _hermite_factors(t: np.ndarray, x: np.ndarray, s: float, level: int):
    """Shift e^{-i sqrt(s) <t,x>} and the 1-D Gauss-Hermite factor sums
    m[k, l] = sum_j w_j z_j^k e^{-i sqrt(1-s) t_l z_j}, k = 0, 1, 2.

    The product rule's phase e^{-i sqrt(1-s) <t, z>} factorises over the
    coordinates, so every Gaussian moment below is a product of these
    sums: O(dim * level) work in any dimension, and no tensor grid.
    """
    nodes, weights = _hermite_rule(level)
    phase = weights * np.exp(-1j * np.sqrt(1.0 - s) * np.multiply.outer(t, nodes))
    shift = np.exp(-1j * np.sqrt(s) * float(t @ x))
    return shift, (phase @ np.vander(nodes, 3, increasing=True)).T


def _first_moment(t: np.ndarray, x: np.ndarray, s: float, level: int) -> np.ndarray:
    """E[e_t(sqrt(s) x + sqrt(1-s) Z) Z] by Gauss-Hermite: entry l is
    shift * m_1[l] * prod_{j != l} m_0[j]."""
    shift, (m0, m1, _) = _hermite_factors(t, x, s, level)
    return shift * m1 * exclusive_products(m0)


def _second_moment(t: np.ndarray, x: np.ndarray, s: float, level: int) -> np.ndarray:
    """E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)] by Gauss-Hermite.

    Entry (l, k) is shift * m_1[l] m_1[k] * prod_{j != l, k} m_0[j] off
    the diagonal and shift * (m_2[l] - m_0[l]) * prod_{j != l} m_0[j] on
    it; the exclusive products use no division, so a zero factor stays
    exact.
    """
    shift, (m0, m1, m2) = _hermite_factors(t, x, s, level)
    eye = np.eye(t.size, dtype=bool)
    others = exclusive_products(np.where(eye, 1.0, m0))
    return shift * others * np.where(eye, m2 - m0, np.outer(m1, m1))


def gaussian_expectation_identity(t, x, s: float, level: int = 60) -> np.ndarray:
    """Residual of the closed-form Gaussian second-moment expectation.

    Compares E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)], computed by the
    level-``level`` Gauss-Hermite product rule on R^N (summed as products
    of 1-D factors, so any N is cheap), against the closed form
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

    Checks E[e_t(sqrt(s) x + sqrt(1-s) Z) Z], by the Gauss-Hermite
    product rule summed as 1-D factors, against
    -i sqrt(1-s) t exp(-i sqrt(s) <t,x> - (1-s)|t|^2/2), the reduction
    used by ``stein_gradient``.
    """
    t = as_vector(t, name="t")
    x = as_vector(x, t.size, name="x")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    quadrature = _first_moment(t, x, s, level)
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


def stein_check_battery(
    t, x, y, spec: QuadratureSpec = DEFAULT_QUADRATURE, level: int = 60
) -> list[tuple[str, float, float]]:
    """Every Stein check at one (t, x, y) triple, as (check, residual, tolerance).

    In order: the gradient against central differences of the solution,
    the closed-form Hessian against second differences, the defining
    equation, the Gaussian second- and first-moment identities (max over
    21 equispaced s in [0, 1], level-``level`` Gauss-Hermite), and
    ``hessian_difference(t, x, y)`` against the difference of two
    closed-form Hessians.  A check passes when residual <= tolerance.
    """
    t, x, _, _ = _pair(t, x)
    closed = hessian_closed_form(t, x, spec).matrix
    gradient = gradient_finite_difference(t, x, spec) - stein_gradient(t, x, spec)
    hessian = hessian_finite_difference(t, x, spec).matrix - closed
    moment2 = max(
        float(np.max(np.abs(gaussian_expectation_identity(t, x, s, level))))
        for s in _CHECK_S_GRID
    )
    moment1 = max(gradient_reduction_residual(t, x, s, level) for s in _CHECK_S_GRID)
    split = closed - hessian_closed_form(t, y, spec).matrix
    difference = hessian_difference(t, x, y, spec) - split
    return [
        ("gradient_fd", float(np.max(np.abs(gradient))), 1e-6),
        ("hessian_fd", float(np.max(np.abs(hessian))), 1e-5),
        ("stein_equation", float(abs(stein_residual(t, x, spec))), 1e-7),
        ("gaussian_moment2", moment2, 1e-9),
        ("gaussian_moment1", moment1, 1e-9),
        ("hessian_difference", float(np.max(np.abs(difference))), 1e-8),
    ]


def shift_identity_check(dim: int, trials: int, seed: int = 0) -> list[tuple[str, float, float]]:
    """Worst ``alpha_identities`` residuals over seeded random draws.

    Each of the ``trials`` draws takes y and t uniform on [-5, 5]^dim and
    s uniform on [0, 1] from ``numpy.random.default_rng(seed)``.  Returns
    (check, residual, tolerance) for the scalar and the matrix identity.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1 (got {trials})")
    rng = np.random.default_rng(seed)
    worst1 = worst2 = 0.0
    for _ in range(trials):
        y = rng.uniform(-5.0, 5.0, dim)
        t = rng.uniform(-5.0, 5.0, dim)
        s = rng.uniform(0.0, 1.0)
        r1, r2 = alpha_identities(y, t, s)
        worst1 = max(worst1, r1)
        worst2 = max(worst2, r2)
    return [("shift_identity_scalar", worst1, 1e-12), ("shift_identity_matrix", worst2, 1e-12)]
