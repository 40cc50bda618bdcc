"""Quadrature primitives.

Two tools live here:

* ``integrate_unit`` -- adaptive integration of a complex-valued, scalar
  or array-valued function over [0, 1], always in u = sqrt(s): it
  integrates 2u f(u^2) du.  Every s-integrand of the package depends on
  s through sqrt(s), so in s it has a sqrt(s) kink or an s^{-1/2}
  blow-up at 0, while in u it is smooth.  Each panel is estimated with a
  fixed-order Gauss-Legendre rule and the error is taken from order
  doubling.  Panels are bisected in rounds, each round one vectorised
  integrand call, until every component meets its own tolerance or the
  bisections pass the fixed cap ``_MAX_SUBDIVISIONS`` = 512.

* ``_hermite_rule`` -- the 1-D probabilists' Gauss-Hermite rule for
  E[g(Z)], Z ~ N(0, 1), with weights normalised so that E[1] = 1
  exactly; built once per level and shared read-only.  The Gaussian
  moment checks in ``stein`` take products of 1-D sums over it, so no
  tensor grid is ever formed and any dimension is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_unit",
]

# Gauss-Legendre kernel orders for the low/high panel estimates.
_GL_LOW = 10
_GL_HIGH = 20
# Cap on panel bisections before ``integrate_unit`` gives up with ConvergenceError.
_MAX_SUBDIVISIONS = 512


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for ``integrate_unit``; the bisection cap is fixed at
    ``_MAX_SUBDIVISIONS`` = 512."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        # an infinite abs_tol accepts any estimate unrefined, and an infinite
        # rel_tol makes a zero total's tolerance NaN, which no panel meets
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ParameterError("quadrature tolerances must be finite and positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [-1, 1]; arrays are frozen so the cache stays safe."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panels(f: Callable, edges: np.ndarray):
    """High-order estimates and error estimates of 2u f(u^2) on the panels
    ``edges`` (one [left, right] row each), from one ``f`` call on all
    their nodes.  Returns them as (panels, components) arrays, with the
    component shape of ``f``."""
    xs_lo, ws_lo = _legendre_rule(_GL_LOW)
    xs_hi, ws_hi = _legendre_rule(_GL_HIGH)
    half = 0.5 * (edges[:, 1:] - edges[:, :1])
    mid = 0.5 * (edges[:, :1] + edges[:, 1:])
    xs = np.concatenate((xs_lo, xs_hi))
    u = (mid + half * xs).ravel()
    values = np.asarray(f(u * u))
    shape = values.shape[1:]
    values = np.broadcast_to(values, u.shape + shape).reshape(u.size, -1)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"non-finite integrand value for u in [{edges.min()}, {edges.max()}]")
    # node axis last and contiguous: each component sums as a scalar integrand would
    values = ((2.0 * u)[:, None] * values).reshape(len(edges), xs.size, -1)
    values = np.ascontiguousarray(values.swapaxes(1, 2))
    lo = half * np.sum(ws_lo * values[..., :_GL_LOW], axis=-1)
    hi = half * np.sum(ws_hi * values[..., _GL_LOW:], axis=-1)
    return hi, np.abs(hi - lo), shape


def integrate_unit(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    return_error: bool = False,
):
    """Integrate a complex-valued ``f``, scalar or array-valued, over [0, 1].

    ``f`` maps a 1-D array of s to an array whose leading axis follows s;
    trailing axes are components (a scalar integrand has none, and a 0-d
    result broadcasts).  The integral is computed as
    ``int_0^1 2u f(u^2) du``, which is smooth for integrands that are
    smooth in sqrt(s) and removes an s^{-1/2} endpoint blow-up; interior
    nodes only, so f is never evaluated at 0 or 1.

    The panels are refined in rounds, and each round evaluates the nodes
    of all its new panels in one ``f`` call.  Component c has the
    tolerance tol_c = max(abs_tol, rel_tol * |total_c|), the one a scalar
    call on it alone gets.  A panel stays when its error estimate is at
    most width * tol_c in every component; every other panel is bisected.
    The rounds stop when every component's total error estimate is at
    most its tol_c.

    Returns the estimate (a complex, or an array of the component shape),
    or ``(estimate, error_bound)`` when ``return_error`` is set.  Raises
    ConvergenceError, carrying every component's estimate and error bound,
    when a round would take the bisections past ``_MAX_SUBDIVISIONS``, and
    DomainError on non-finite integrand values.
    """
    edges = np.array([[0.0, 1.0]])
    value, err, shape = _panels(f, edges)
    splits = 0
    while True:
        total, total_err = np.sum(value, axis=0), np.sum(err, axis=0)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            break
        share = np.max(err / tol, axis=1) / (edges[:, 1] - edges[:, 0])
        split = share > 1.0
        if not np.any(split):  # every panel within its share, the sum over by rounding
            split = share == np.max(share)
        splits += np.count_nonzero(split)
        if splits > _MAX_SUBDIVISIONS:
            worst = np.argmax(total_err / tol)
            raise ConvergenceError(
                f"quadrature tolerance {tol[worst]:.3e} not reached within "
                f"{_MAX_SUBDIVISIONS} bisections (error estimate {total_err[worst]:.3e})",
                estimate=total.reshape(shape)[()],
                error_bound=total_err.reshape(shape)[()],
            )
        a, b = edges[split].T
        mid = 0.5 * (a + b)
        halves = np.column_stack((np.concatenate((a, mid)), np.concatenate((mid, b))))
        new_value, new_err, _ = _panels(f, halves)
        edges = np.concatenate((edges[~split], halves))
        value = np.concatenate((value[~split], new_value))
        err = np.concatenate((err[~split], new_err))

    total, total_err = total.reshape(shape)[()], total_err.reshape(shape)[()]
    return (total, total_err) if return_error else total


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
