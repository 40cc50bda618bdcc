"""The Stein-equation machinery behind the gap bounds.

For the Fourier test function e_t(x) = exp(-i<t,x>) the interpolation
solution of  <x, grad f> - Lap f = E[e_t(Z)] - e_t(x)  has closed-form
gradient and Hessian: one smooth scalar s-integral each, the Hessian a
rank-one multiple of t t^T.  That closed Hessian is the whole point --
the representation for general test functions carries a 1/(1-s) endpoint
factor that is numerically hopeless, and for e_t it cancels exactly.

Every formula is cross-checked against an independent route below:
finite differences of the solution, the Gauss-Hermite product rule on
R^N (summed as products of 1-D factors, so any dimension is cheap) for
the Gaussian-expectation reductions, and the defining equation itself.
"""

import numpy as np

from steinclt import (
    gaussian_expectation_identity,
    gradient_finite_difference,
    hessian_closed_form,
    hessian_difference,
    hessian_finite_difference,
    hessian_quadrature_representation,
    stein_gradient,
    stein_residual,
    stein_solution,
)

t, x = np.array([1.0, 1.0]), np.array([0.3, -0.7])

print("== solution, gradient, Hessian at one point ==")
value, error = stein_solution(t, x)
print(f"  f(x)        = {value:.12f}  (quadrature error bound {error:.1e})")
grad = stein_gradient(t, x)
print(f"  grad f(x)   = {np.round(grad, 10)}  (a complex multiple of t)")
hess = hessian_closed_form(t, x)
print(f"  Hess f(x)   =\n{np.round(hess, 10)}")
print(f"  rank of Hessian: {np.linalg.matrix_rank(hess, tol=1e-12)}")

print("\n== independent cross-checks ==")
fd_grad = gradient_finite_difference(t, x)
print(f"  |grad - central differences|      = {np.max(np.abs(grad - fd_grad)):.2e}")
fd_hess = hessian_finite_difference(t, x)
print(f"  |Hess - second differences|       = {np.max(np.abs(hess - fd_hess)):.2e}")
general, _ = hessian_quadrature_representation(t, x)
print(f"  |Hess - general representation|   = {np.max(np.abs(hess - general)):.2e}")
print(f"  Stein equation residual           = {abs(stein_residual(t, x)):.2e}")

diff = hessian_difference(t, x, 0.5 * x)
split = hess - hessian_closed_form(t, 0.5 * x)
print(f"  Hessian-difference self-check     = {np.max(np.abs(diff - split)):.2e}")

print("\n== the Gaussian-expectation reduction, certified by quadrature ==")
print("  E[e_t(sqrt(s)x + sqrt(1-s)Z)(Z Z^T - I)] versus the closed form")
print("  -(1-s) t t^T exp(-i sqrt(s)<t,x> - (1-s)|t|^2/2):")
grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
residuals = gaussian_expectation_identity(t, x, grid)  # one matrix per s
for s, residual in zip(grid, residuals):
    print(f"    s = {s:4}: max residual {np.max(np.abs(residual)):.2e}")
