"""Quadrature and small linear-algebra primitives.

Three tools live here:

* ``integrate_unit`` -- adaptive integration of a complex-valued function
  over [0, 1].  Each panel is estimated with a fixed-order Gauss-Legendre
  rule and the error is taken from order doubling; the worst panel is
  bisected until the global error estimate meets the tolerance.  An
  inverse-square-root endpoint singularity at 0 (integrands behaving like
  s^{-1/2}) is handled by the substitution s = u^2 before adaptation.

* ``gauss_hermite_expect`` -- tensor-product Gauss-Hermite evaluation of
  E[g(Z)] for a standard normal vector Z on R^N, with weights normalised
  so that E[1] = 1 exactly.  Each (level, dim) grid is built once and
  held in memory, read-only: level^dim * (dim + 1) * 8 bytes.

* ``outer_product`` -- the rank-one matrix t t^T, which satisfies
  <x, (t t^T) x> = <x, t>^2.

Integrands are vectorised: ``f`` receives a 1-D array of abscissae and
must return an array of the same length (scalar results broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heappop
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    UnsupportedDimensionError,
)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_unit",
    "gauss_hermite_expect",
    "outer_product",
]

# Gauss-Legendre kernel orders for the low/high panel estimates.
_GL_LOW = 10
_GL_HIGH = 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and options for ``integrate_unit``.

    singularity:
        "none" or "inverse_sqrt_at_zero".  The latter declares that
        f(s) * sqrt(s) stays bounded as s -> 0 and triggers the s = u^2
        substitution.
    max_subdivisions:
        Cap on panel bisections before giving up with ConvergenceError.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    singularity: str = "none"
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("quadrature tolerances must be positive")
        if self.singularity not in ("none", "inverse_sqrt_at_zero"):
            raise ParameterError(f"unknown singularity option {self.singularity!r}")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [-1, 1]; arrays are frozen so the cache stays safe."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _eval_panel(f: Callable, a: float, b: float) -> tuple[complex, float]:
    """Return (high-order estimate, error estimate) for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs_lo, ws_lo = _legendre_rule(_GL_LOW)
    xs_hi, ws_hi = _legendre_rule(_GL_HIGH)
    abscissae = np.concatenate((mid + half * xs_lo, mid + half * xs_hi))
    values = np.asarray(f(abscissae))
    if values.shape == ():
        values = np.broadcast_to(values, abscissae.shape)
    if not np.all(np.isfinite(values.view(np.float64) if values.dtype.kind == "c" else values)):
        raise DomainError(f"integrand returned a non-finite value on panel [{a}, {b}]")
    lo = half * np.sum(ws_lo * values[:_GL_LOW])
    hi = half * np.sum(ws_hi * values[_GL_LOW:])
    return hi, abs(hi - lo)


def integrate_unit(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    return_error: bool = False,
):
    """Integrate a complex-valued ``f`` over [0, 1].

    The estimated error of the returned value is at most
    ``max(abs_tol, rel_tol * |result|)``.  With
    ``singularity="inverse_sqrt_at_zero"`` the integral is rewritten as
    ``int_0^1 2u f(u^2) du`` first, which removes an s^{-1/2} endpoint
    blow-up; interior nodes only, so f is never evaluated at 0 or 1.

    Returns the complex estimate, or ``(estimate, error_bound)`` when
    ``return_error`` is set.  Raises ConvergenceError (carrying the best
    estimate) if the tolerance is not met within ``max_subdivisions``
    bisections, and DomainError on non-finite integrand values.
    """
    if spec.singularity == "inverse_sqrt_at_zero":
        g = lambda u: 2.0 * u * np.asarray(f(u * u))
    else:
        g = f

    # Max-heap of panels keyed by error estimate (heapq is a min-heap,
    # hence the sign flip).  Ties broken by insertion order.
    value, err = _eval_panel(g, 0.0, 1.0)
    total = value
    total_err = err
    counter = 0
    heap = [(-err, counter, 0.0, 1.0, value)]
    splits = 0

    def tolerance() -> float:
        return max(spec.abs_tol, spec.rel_tol * abs(total))

    while total_err > tolerance():
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature tolerance {tolerance():.3e} not reached after "
                f"{splits} bisections (error estimate {total_err:.3e})",
                estimate=total,
                error_bound=total_err,
            )
        neg_err, _, a, b, panel_value = heappop(heap)
        mid = 0.5 * (a + b)
        left_value, left_err = _eval_panel(g, a, mid)
        right_value, right_err = _eval_panel(g, mid, b)
        total += left_value + right_value - panel_value
        total_err += left_err + right_err - (-neg_err)
        counter += 1
        heappush(heap, (-left_err, counter, a, mid, left_value))
        counter += 1
        heappush(heap, (-right_err, counter, mid, b, right_value))
        splits += 1

    if return_error:
        return total, total_err
    return total


@lru_cache(maxsize=None)
def _hermite_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and unit-sum weights."""
    if level < 1:
        raise ParameterError("Gauss-Hermite level must be >= 1")
    nodes, weights = np.polynomial.hermite_e.hermegauss(level)
    weights = weights / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_MAX_GH_DIM = 4


@lru_cache(maxsize=2)
def _hermite_grid(level: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(level^dim, dim) points and unit-sum weights, frozen because shared.

    The cache is small: a level-60 grid in dim 4 takes 0.5 GB.
    """
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    if dim > _MAX_GH_DIM:
        raise UnsupportedDimensionError(
            f"tensor-product Gauss-Hermite supports dim <= {_MAX_GH_DIM} "
            f"(got {dim}); use Monte Carlo instead"
        )
    nodes, weights = _hermite_rule(level)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    points = np.stack([grid.ravel() for grid in grids], axis=-1)
    w = weights
    for _ in range(dim - 1):
        w = np.multiply.outer(w, weights)
    w = w.ravel()
    points.setflags(write=False)
    w.setflags(write=False)
    return points, w


def gauss_hermite_expect(
    g: Callable[[np.ndarray], np.ndarray], level: int, dim: int = 1
) -> complex:
    """E[g(Z)] for Z standard normal on R^dim, by tensor-product quadrature.

    ``g`` receives the shared read-only (M, dim) array of evaluation
    points (writing into it raises ValueError) and must return M values.
    Weights are normalised so g = 1 integrates to exactly 1.  Dimensions
    above 4 are refused (node count level^dim): use Monte Carlo for those.
    """
    points, w = _hermite_grid(level, dim)
    values = np.asarray(g(points)).reshape(points.shape[0])
    return complex(np.sum(w * values))


def outer_product(t: np.ndarray) -> np.ndarray:
    """t t^T as a complex matrix; <x, (t t^T) x> = <x, t>^2 for real x."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ParameterError("expected a 1-D vector")
    return np.outer(t, t).astype(np.complex128)
