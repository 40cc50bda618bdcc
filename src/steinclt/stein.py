"""Stein-equation machinery for the Fourier test functions.

For a test function h the Gaussian-interpolation solution of

    <x, grad f(x)> - Laplacian f(x) = E[h(Z)] - h(x),   Z ~ N(0, I_N),

is f_h(x) = int_0^1 (2s)^{-1} E[h(Z) - h(sqrt(s) x + sqrt(1-s) Z)] ds
(substitute s = e^{-2u} in the Ornstein-Uhlenbeck semigroup solution to
see the sign).  Everything here specialises h to e_t(x) = exp(-i <t, x>),
for which the Gaussian expectations collapse to closed forms in one
kernel, K(s) = exp(-i sqrt(s) <t,x> - (1-s)|t|^2/2):

    solution:  f(x)      = int_0^1 (2s)^{-1} [ K(0) - K(s) ] ds
    gradient:  grad f(x) = (i t / 2) int_0^1 s^{-1/2} K(s) ds
    Hessian:   Hess f(x) = (t t^T / 2) int_0^1 K(s) ds

with K(0) = e^{-|t|^2/2}; the rank-one t t^T is the real
``np.outer(t, t)``, made complex by the factor it multiplies.  The
Hessian form is the reason this specialisation matters: the general
integral representation carries a 1/(1-s) endpoint factor that makes it
numerically treacherous for arbitrary h, while for e_t the factor
cancels exactly.
``gaussian_expectation_identity`` certifies that cancellation
numerically, and ``alpha_identities`` checks the two algebraic
identities (complex shift alpha = y + i sqrt(1-s) t) behind it.
``stein_check_battery`` and ``shift_identity_check`` run every one of
these checks against its residual ceiling; ``stein-clt stein-check``
reports them.  Each check is one array pass over its s grid or its
batch of random draws, or one array-valued s-integral: the
finite-difference checks integrate the solutions at their whole stencil
together.

General bounded-C^2 test functions are deliberately out of numerical
scope here; the identity checks in the bounds module cover the one place
they matter.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ParameterError
from .quadrature import _hermite_rule, integrate_unit
from .util import as_vector, exclusive_products

__all__ = [
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

# 1-D Gauss-Hermite level of every moment check (and of ``stein-check``).
DEFAULT_HERMITE_LEVEL = 60
# s nodes at which the Gaussian moment checks are maximised.
_CHECK_S_GRID = np.linspace(0.0, 1.0, 21)
# Central-difference steps: truncation against rounding at the default tolerance.
_GRADIENT_STEP = 1e-5
_HESSIAN_STEP = 1e-4
# Matrix entries (draws * dim^2) per batch of shift-identity draws.
_SHIFT_BATCH_ENTRIES = 1 << 16


def _pair(t, x, name: str = "x") -> tuple[np.ndarray, np.ndarray, float, float]:
    """(t, x) as non-empty vectors of one length, with |t|^2 and <t, x>,
    both finite: an overflow is a ParameterError, not a warning."""
    t = as_vector(t, name="t")
    if t.size == 0:
        raise ParameterError("t must have at least one component")
    x = as_vector(x, t.size, name=name)
    with np.errstate(over="ignore", invalid="ignore"):
        tt, a = float(t @ t), float(t @ x)
    if not (np.isfinite(tt) and np.isfinite(a)):
        raise ParameterError(f"|t|^2 and <t, {name}> must be finite (overflow)")
    return t, x, tt, a


def _unit_s(s) -> np.ndarray:
    """s as a float array (0-d for a scalar), every entry in [0, 1]."""
    s = np.asarray(s, dtype=np.float64)
    if not np.all((0.0 <= s) & (s <= 1.0)):
        raise ParameterError("s must lie in [0, 1]")
    return s


def _kernel(tt: float, a: float, s):
    """K(s) = exp(-i sqrt(s) a - (1-s) tt / 2) for scalar or array s, with
    tt = |t|^2 and a = <t, x>; at tt = 0 it is the bare phase
    e^{-i sqrt(s) a}."""
    return np.exp(-1j * np.sqrt(s) * a - 0.5 * (1.0 - s) * tt)


def _solution_integrand(tt: float, a):
    """s -> (2s)^{-1} (K(0) - K(s)), the solution's s-integrand, for one
    a = <t, x> or, one component each, for a 1-D array of them."""
    # K(0) by the real exponential: the complex one rounds its real part
    # differently for about 1 in 20 values of |t|^2, moving those solutions.
    limit_value = np.exp(-0.5 * tt)

    def integrand(s):
        s = s[:, None] if np.ndim(a) else s
        return (0.5 / s) * (limit_value - _kernel(tt, a, s))

    return integrand


def stein_solution(t, x) -> tuple[complex, float]:
    """The solution f(x) for test function e_t, as (value, quadrature error bound).

    The integrand behaves like s^{-1/2} near 0; ``integrate_unit`` works
    in u = sqrt(s), where it is smooth.
    """
    _, _, tt, a = _pair(t, x)
    value, err = integrate_unit(_solution_integrand(tt, a), return_error=True)
    return complex(value), err


def stein_gradient(t, x):
    """grad f(x) for test function e_t; always a complex multiple of t.

    Uses the analytically reduced integrand (the Gaussian first-moment
    expectation in closed form), leaving a single s-quadrature;
    ``gradient_reduction_residual`` verifies that reduction against
    Gauss-Hermite quadrature.
    """
    t, x, tt, a = _pair(t, x)
    integral = integrate_unit(lambda s: _kernel(tt, a, s) / np.sqrt(s))
    return 0.5j * integral * t.astype(np.complex128)


def gradient_finite_difference(t, x) -> np.ndarray:
    """grad f(x) by central differences of the solution; an independent
    check of ``stein_gradient``.  The solutions at the 2N points x +- h e_l
    are the components of one integral."""
    t, x, tt, _ = _pair(t, x)
    steps = _GRADIENT_STEP * np.eye(t.size)
    points = np.concatenate((x + steps, x - steps))
    values = integrate_unit(_solution_integrand(tt, points @ t))
    plus, minus = values.reshape(2, t.size)
    return (plus - minus) / (2.0 * _GRADIENT_STEP)


def hessian_quadrature_representation(
    t, x, level: int = DEFAULT_HERMITE_LEVEL
) -> tuple[np.ndarray, float]:
    """Hess f(x) through the general integral representation, as (matrix,
    largest entry's quadrature error bound).

    Evaluates -int_0^1 (2(1-s))^{-1} E[e_t(sqrt(s)x + sqrt(1-s)Z)
    (Z Z^T - I)] ds as one integral over the upper triangle, with the
    Gaussian expectation done by Gauss-Hermite quadrature rather than in
    closed form (one moment pass over each round's s nodes).  The 1/(1-s)
    endpoint factor is cancelled analytically by the expectation but not
    by its quadrature error, so this route is for cross-checking only;
    production work uses ``hessian_closed_form``.  At the quadrature's
    1e-9 tolerance it converges for |t| <= 6 in dimensions 1-3, within
    1e-14 of the closed form.
    """
    t, x, _, _ = _pair(t, x)
    dim = t.size
    rows, cols = np.triu_indices(dim)

    def integrand(s):
        return -_second_moment(t, x, s, level)[:, rows, cols] / (2.0 * (1.0 - s))[:, None]

    values, errors = integrate_unit(integrand, return_error=True)
    matrix = np.empty((dim, dim), dtype=np.complex128)
    matrix[rows, cols] = matrix[cols, rows] = values
    return matrix, float(np.max(errors))


def hessian_finite_difference(t, x) -> np.ndarray:
    """Hess f(x) by second central differences of the solution.

    The solutions at the whole stencil (x, x +- h e_l and the four corners
    x +- h e_l +- h e_m for l < m) are the components of one integral.
    """
    t, x, tt, _ = _pair(t, x)
    dim, step = t.size, _HESSIAN_STEP
    eye = step * np.eye(dim)
    rows, cols = np.triu_indices(dim, 1)
    el, em = eye[rows], eye[cols]
    points = np.concatenate((x[None], x + eye, x - eye, x + el + em, x + el - em,
                             x - el + em, x - el - em))
    values = integrate_unit(_solution_integrand(tt, points @ t))
    plus, minus = values[1:1 + dim], values[1 + dim:1 + 2 * dim]
    corners = values[1 + 2 * dim:].reshape(4, -1)
    matrix = np.diag((plus - 2.0 * values[0] + minus) / step**2)
    matrix[rows, cols] = matrix[cols, rows] = (
        corners[0] - corners[1] - corners[2] + corners[3]) / (4.0 * step**2)
    return matrix


def hessian_closed_form(t, x) -> np.ndarray:
    """Hess f(x) = (t t^T / 2) * scalar integral, a rank-one matrix; singularity-free."""
    t, _, tt, a = _pair(t, x)
    return 0.5 * integrate_unit(lambda s: _kernel(tt, a, s)) * np.outer(t, t)


def hessian_difference(t, x, y) -> np.ndarray:
    """Hess f(x) - Hess f(y), evaluated as one integral.

    The integrand is K at y times (e^{-i sqrt(s) <t, x - y>} - 1), which
    vanishes identically at x = y; agreement with the difference of two
    ``hessian_closed_form`` calls is a standing self-consistency check.
    """
    t, x, tt, _ = _pair(t, x)
    _, y, _, ay = _pair(t, y, name="y")
    dxy = float(t @ (x - y))
    integral = integrate_unit(lambda s: _kernel(tt, ay, s) * (_kernel(0.0, dxy, s) - 1.0))
    return 0.5 * integral * np.outer(t, t)


def _hermite_factors(t: np.ndarray, x: np.ndarray, s, level: int):
    """Shift e^{-i sqrt(s) <t,x>} and the 1-D Gauss-Hermite factor sums
    m[k, ..., l] = sum_j w_j z_j^k e^{-i sqrt(1-s) t_l z_j}, k = 0, 1, 2,
    for scalar or array s (the middle axes follow s; the shift carries
    two trailing unit axes).

    The product rule's phase e^{-i sqrt(1-s) <t, z>} factorises over the
    coordinates, so every Gaussian moment below is a product of these
    sums: O(dim * level) work per s in any dimension, and no tensor grid.
    """
    nodes, weights = _hermite_rule(level)
    s = np.asarray(s, dtype=np.float64)[..., None, None]
    phase = weights * np.exp(-1j * np.sqrt(1.0 - s) * np.multiply.outer(t, nodes))
    sums = phase @ np.vander(nodes, 3, increasing=True)
    return _kernel(0.0, float(t @ x), s), np.moveaxis(sums, -1, 0)


def _first_moment(t: np.ndarray, x: np.ndarray, s, level: int) -> np.ndarray:
    """E[e_t(sqrt(s) x + sqrt(1-s) Z) Z] by Gauss-Hermite: entry l is
    shift * m_1[l] * prod_{j != l} m_0[j]; leading axes follow s."""
    shift, (m0, m1, _) = _hermite_factors(t, x, s, level)
    return shift[..., 0] * m1 * exclusive_products(m0)


def _second_moment(t: np.ndarray, x: np.ndarray, s, level: int) -> np.ndarray:
    """E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)] by Gauss-Hermite.

    Entry (l, k) is shift * m_1[l] m_1[k] * prod_{j != l, k} m_0[j] off
    the diagonal and shift * (m_2[l] - m_0[l]) * prod_{j != l} m_0[j] on
    it; the exclusive products use no division, so a zero factor stays
    exact.  Leading axes follow s.
    """
    shift, (m0, m1, m2) = _hermite_factors(t, x, s, level)
    eye = np.eye(t.size, dtype=bool)
    others = exclusive_products(np.where(eye, 1.0, m0[..., None, :]))
    pairs = m1[..., :, None] * m1[..., None, :]
    return shift * others * np.where(eye, (m2 - m0)[..., None, :], pairs)


def gaussian_expectation_identity(t, x, s, level: int = DEFAULT_HERMITE_LEVEL) -> np.ndarray:
    """Residual of the closed-form Gaussian second-moment expectation.

    Compares E[e_t(sqrt(s) x + sqrt(1-s) Z)(Z Z^T - I)], computed by the
    level-``level`` Gauss-Hermite product rule on R^N (summed as products
    of 1-D factors, so any N is cheap), against the closed form
    -(1-s) t t^T K(s).  The returned matrix is (quadrature - closed
    form); its max magnitude certifies that the 1/(1-s) factor of the
    general Hessian representation cancels for Fourier test functions.
    For an s grid, one matrix per entry, each equal to the scalar call.
    """
    t, x, tt, a = _pair(t, x)
    s = _unit_s(s)
    grid = s[..., None, None]
    closed = -(1.0 - grid) * np.outer(t, t) * _kernel(tt, a, grid)
    return _second_moment(t, x, s, level) - closed


def gradient_reduction_residual(t, x, s, level: int = DEFAULT_HERMITE_LEVEL):
    """Max residual of the closed-form Gaussian first-moment expectation.

    Checks E[e_t(sqrt(s) x + sqrt(1-s) Z) Z], by the Gauss-Hermite
    product rule summed as 1-D factors, against -i sqrt(1-s) t K(s), the
    reduction used by ``stein_gradient``.  For an s grid, an array of
    residuals, each equal to the scalar call's float.
    """
    t, x, tt, a = _pair(t, x)
    s = _unit_s(s)
    grid = s[..., None]
    closed = -1j * np.sqrt(1.0 - grid) * t * _kernel(tt, a, grid)
    residual = np.max(np.abs(_first_moment(t, x, s, level) - closed), axis=-1)
    return float(residual) if s.ndim == 0 else residual


def _shift_residuals(y: np.ndarray, t: np.ndarray, s: np.ndarray):
    """Both ``alpha_identities`` residuals for a batch of draws: y and t
    are (m, N), s is (m,).  Each row is reduced on its own (no BLAS), so a
    draw's residuals do not depend on the batch it is in."""
    root = np.sqrt(1.0 - s)
    alpha = y + 1j * root[:, None] * t
    lhs1 = -1j * root * np.sum(t * y, axis=1) - 0.5 * np.sum(y * y, axis=1)
    rhs1 = -0.5 * (1.0 - s) * np.sum(t * t, axis=1) - 0.5 * np.sum(alpha * alpha, axis=1)

    def outer(u, v):
        return u[:, :, None] * v[:, None, :]

    eye, cross = np.eye(y.shape[1]), 1j * root[:, None, None]
    lhs2 = outer(y, y) - eye
    rhs2 = (outer(alpha, alpha) - cross * outer(t, alpha) - cross * outer(alpha, t)
            - (1.0 - s)[:, None, None] * outer(t, t) - eye)
    return np.abs(lhs1 - rhs1), np.max(np.abs(lhs2 - rhs2), axis=(1, 2))


def alpha_identities(y, t, s: float) -> tuple[float, float]:
    """Residuals of the two algebraic shift identities, exact up to rounding.

    With alpha = y + i sqrt(1-s) t (complex bilinear transpose, no
    conjugation):

      (1)  -i sqrt(1-s) <t, y> - |y|^2/2
             = -(1-s)|t|^2/2 - alpha^T alpha / 2
      (2)  y y^T - I = alpha alpha^T - i sqrt(1-s)(t alpha^T + alpha t^T)
                        - (1-s) t t^T - I
    """
    t, y, _, _ = _pair(t, y, name="y")
    residual1, residual2 = _shift_residuals(y[None], t[None], _unit_s(s).reshape(1))
    return float(residual1[0]), float(residual2[0])


def _equation_residual(x: np.ndarray, tt: float, a: float, gradient, hessian) -> complex:
    """<x, grad f(x)> - trace Hess f(x) - (K(0) - K(1)) from a gradient and
    Hessian already in hand."""
    lhs = complex(x @ gradient) - complex(np.trace(hessian))
    return lhs - (np.exp(-0.5 * tt) - _kernel(tt, a, 1.0))


def stein_residual(t, x) -> complex:
    """Residual of the defining equation at (t, x).

    Computes <x, grad f(x)> - trace Hess f(x) - (e^{-|t|^2/2} - e_t(x))
    from the closed-form gradient and Hessian; zero up to quadrature
    error when the machinery is consistent.
    """
    t, x, tt, a = _pair(t, x)
    return _equation_residual(x, tt, a, stein_gradient(t, x), hessian_closed_form(t, x))


def stein_check_battery(
    t, x, y, level: int = DEFAULT_HERMITE_LEVEL
) -> list[tuple[str, float, float]]:
    """Every Stein check at one (t, x, y) triple, as (check, residual, tolerance).

    In order: the gradient against central differences of the solution,
    the closed-form Hessian against second differences, the defining
    equation, the Gaussian second- and first-moment identities (max over
    21 equispaced s in [0, 1], level-``level`` Gauss-Hermite, one grid
    call each), and ``hessian_difference(t, x, y)`` against the
    difference of two closed-form Hessians.  The closed-form gradient
    and Hessian at (t, x) are integrated once and shared.  A check passes
    when residual <= tolerance.

    A moment check over its tolerance is checked again at level 2
    ``level``: if its residual moves by more than the tolerance, the rule
    has not resolved t (large |t|), and ConvergenceError is raised rather
    than a failed identity reported.
    """
    t, x, tt, a = _pair(t, x)
    gradient = stein_gradient(t, x)
    closed = hessian_closed_form(t, x)
    split = closed - hessian_closed_form(t, y)

    def worst(residual) -> float:
        return float(np.max(np.abs(residual)))

    def moment_check(check, identity, tol=1e-9):
        residual = identity(t, x, _CHECK_S_GRID, level)
        if not worst(residual) <= tol:  # a failure must not be the rule's own error
            moved = worst(identity(t, x, _CHECK_S_GRID, 2 * level) - residual)
            if not moved <= tol:
                raise ConvergenceError(
                    f"{check}: Gauss-Hermite level {level} does not resolve |t| = "
                    f"{np.sqrt(tt):.6g} (level {2 * level} moves the residual by "
                    f"{moved:.3e} > {tol:g})", worst(residual), moved)
        return check, worst(residual), tol

    # stein_equation takes the builtin abs(), which rounds |z| unlike np.abs
    return [
        ("gradient_fd", worst(gradient_finite_difference(t, x) - gradient), 1e-6),
        ("hessian_fd", worst(hessian_finite_difference(t, x) - closed), 1e-5),
        ("stein_equation", float(abs(_equation_residual(x, tt, a, gradient, closed))), 1e-7),
        moment_check("gaussian_moment2", gaussian_expectation_identity),
        moment_check("gaussian_moment1", gradient_reduction_residual),
        ("hessian_difference", worst(hessian_difference(t, x, y) - split), 1e-8),
    ]


def shift_identity_check(dim: int, trials: int, seed: int = 0) -> list[tuple[str, float, float]]:
    """Worst ``alpha_identities`` residuals over seeded random draws.

    Each of the ``trials`` draws takes y and t uniform on [-5, 5]^dim and
    s uniform on [0, 1] from ``numpy.random.default_rng(seed)``, in that
    order; the draws are taken and checked in array batches.
    Returns (check, residual, tolerance) for the scalar and the matrix
    identity.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1 (got {dim})")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1 (got {trials})")
    # Batches of _SHIFT_BATCH_ENTRIES keep memory flat.  Row k of one stream
    # holds draw k's doubles of uniform(-5, 5, dim) twice and uniform(0, 1):
    # Generator.uniform is low + (high - low) * u.
    rng = np.random.default_rng(seed)
    batch = max(1, _SHIFT_BATCH_ENTRIES // dim**2)
    worst1 = worst2 = 0.0
    for start in range(0, trials, batch):
        draws = rng.random((min(batch, trials - start), 2 * dim + 1))
        y = -5.0 + 10.0 * draws[:, :dim]
        t = -5.0 + 10.0 * draws[:, dim:-1]
        residual1, residual2 = _shift_residuals(y, t, draws[:, -1])
        worst1 = max(worst1, float(np.max(residual1)))
        worst2 = max(worst2, float(np.max(residual2)))
    return [("shift_identity_scalar", worst1, 1e-12), ("shift_identity_matrix", worst2, 1e-12)]
