"""Quadrature and small linear-algebra primitives.

Three tools live here:

* ``integrate_unit`` -- adaptive integration of a complex-valued function
  over [0, 1], always in u = sqrt(s): it integrates 2u f(u^2) du.  Every
  s-integrand of the package depends on s through sqrt(s), so in s it
  has a sqrt(s) kink or an s^{-1/2} blow-up at 0, while in u it is
  smooth.  Each panel is estimated with a fixed-order Gauss-Legendre
  rule and the error is taken from order doubling; the worst panel is
  bisected until the global error estimate meets the tolerance.

* ``_hermite_rule`` -- the 1-D probabilists' Gauss-Hermite rule for
  E[g(Z)], Z ~ N(0, 1), with weights normalised so that E[1] = 1
  exactly; built once per level and shared read-only.  The Gaussian
  moment checks in ``stein`` take products of 1-D sums over it, so no
  tensor grid is ever formed and any dimension is served.

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

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_unit",
    "outer_product",
]

# Gauss-Legendre kernel orders for the low/high panel estimates.
_GL_LOW = 10
_GL_HIGH = 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for ``integrate_unit``.

    max_subdivisions:
        Cap on panel bisections before giving up with ConvergenceError.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("quadrature tolerances must be positive")
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
    ``max(abs_tol, rel_tol * |result|)``.  The integral is computed as
    ``int_0^1 2u f(u^2) du``, which is smooth for integrands that are
    smooth in sqrt(s) and removes an s^{-1/2} endpoint blow-up; interior
    nodes only, so f is never evaluated at 0 or 1.

    Returns the complex estimate, or ``(estimate, error_bound)`` when
    ``return_error`` is set.  Raises ConvergenceError (carrying the best
    estimate) if the tolerance is not met within ``max_subdivisions``
    bisections, and DomainError on non-finite integrand values.
    """
    def g(u):
        return 2.0 * u * np.asarray(f(u * u))

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


def outer_product(t: np.ndarray) -> np.ndarray:
    """t t^T as a complex matrix; <x, (t t^T) x> = <x, t>^2 for real x."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ParameterError("expected a 1-D vector")
    return np.outer(t, t).astype(np.complex128)
