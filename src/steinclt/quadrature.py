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
  bisections pass the fixed cap ``_MAX_SUBDIVISIONS`` = 512.  The
  tolerance is fixed too: max(1e-9, 1e-9 * |integral|) per component,
  the value every acceptance ceiling of ``stein`` and ``bounds`` was set
  against.  An optional ``upper`` gives each component its own upper
  limit in s; the panel holding a limit integrates the interpolant of
  its node values up to it, so components with different limits still
  share every integrand call.

* ``_hermite_rule`` -- the 1-D probabilists' Gauss-Hermite rule for
  E[g(Z)], Z ~ N(0, 1), with weights normalised so that E[1] = 1
  exactly; built once per level and shared read-only.  The Gaussian
  moment checks in ``stein`` take products of 1-D sums over it, so no
  tensor grid is ever formed and any dimension is served.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, ShapeError

__all__ = [
    "integrate_unit",
]

# Gauss-Legendre kernel orders for the low/high panel estimates.
_GL_LOW = 10
_GL_HIGH = 20
# Cap on panel bisections before ``integrate_unit`` gives up with ConvergenceError.
_MAX_SUBDIVISIONS = 512
# Absolute and relative tolerance of every ``integrate_unit`` component.
_ABS_TOL = 1e-9
_REL_TOL = 1e-9


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [-1, 1]; arrays are frozen so the cache stays safe."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def _interpolation_inverses() -> tuple[np.ndarray, np.ndarray]:
    """Inverse Legendre Vandermonde matrices of a panel's 20 high-order
    nodes and of all its 30 nodes (10 then 20, the order ``_panels``
    evaluates them in); their condition numbers are about 7.9 and 21.
    Built on first use and frozen so the cache stays safe."""
    xs_lo, _ = _legendre_rule(_GL_LOW)
    xs_hi, _ = _legendre_rule(_GL_HIGH)
    inverses = tuple(np.linalg.inv(np.polynomial.legendre.legvander(xs, xs.size - 1))
                     for xs in (xs_hi, np.concatenate((xs_lo, xs_hi))))
    for inverse in inverses:
        inverse.setflags(write=False)
    return inverses


def _partial_weights(x: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """(len(x), nodes) weights w with sum_i w_i F_i = int_{-1}^{x} p(y) dy for
    the interpolant p through the node values F_i whose inverse Legendre
    Vandermonde matrix is ``inverse``: p = sum_j c_j P_j with c = inverse @ F,
    and int_{-1}^{x} P_j = (P_{j+1}(x) - P_{j-1}(x)) / (2j + 1), or x + 1 for j = 0."""
    n = inverse.shape[0]
    legendre = np.polynomial.legendre.legvander(x, n)
    antiderivative = np.empty((x.size, n))
    antiderivative[:, 0] = x + 1.0
    antiderivative[:, 1:] = (legendre[:, 2:] - legendre[:, :-2]) / (2.0 * np.arange(1, n) + 1.0)
    return antiderivative @ inverse


def _panels(f: Callable, edges: np.ndarray, cuts: np.ndarray | None = None):
    """High-order estimates and error estimates of 2u f(u^2) on the panels
    ``edges`` (one [left, right] row each), from one ``f`` call on all
    their nodes.  Returns them as (panels, components) arrays, with the
    component shape of ``f``.  ``cuts`` holds one upper limit in u per
    component, applied as ``integrate_unit`` describes for ``upper``."""
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
    if cuts is not None and cuts.shape != values.shape[1:]:
        raise ShapeError(f"upper has {cuts.size} limits for {values.shape[1]} integrand components")
    # node axis last and contiguous: each component sums as a scalar integrand would
    values = ((2.0 * u)[:, None] * values).reshape(len(edges), xs.size, -1)
    values = np.ascontiguousarray(values.swapaxes(1, 2))
    lo = half * np.sum(ws_lo * values[..., :_GL_LOW], axis=-1)
    hi = half * np.sum(ws_hi * values[..., _GL_LOW:], axis=-1)
    err = np.abs(hi - lo)
    if cuts is None:
        return hi, err, shape
    below = edges[:, 1:] <= cuts
    hi, err = np.where(below, hi, 0.0), np.where(below, err, 0.0)
    panel, comp = np.nonzero(~below & (edges[:, :1] < cuts))
    if panel.size:
        x = (cuts[comp] - mid[panel, 0]) / half[panel, 0]
        high, both = _interpolation_inverses()
        cut20 = half[panel, 0] * np.sum(_partial_weights(x, high) * values[panel, comp, _GL_LOW:], axis=-1)
        cut30 = half[panel, 0] * np.sum(_partial_weights(x, both) * values[panel, comp], axis=-1)
        hi[panel, comp], err[panel, comp] = cut20, np.abs(cut20 - cut30)
    return hi, err, shape


def _cuts(upper) -> np.ndarray:
    """sqrt(upper), the per-component upper limits in u, after checking that
    ``upper`` is a 1-D array of limits in [0, 1]."""
    upper = np.asarray(upper, dtype=np.float64)
    if upper.ndim != 1:
        raise ShapeError("upper must be a 1-D array of per-component limits")
    if not np.all((upper >= 0.0) & (upper <= 1.0)):
        raise ParameterError("every upper limit must lie in [0, 1]")
    return np.sqrt(upper)


def integrate_unit(f: Callable[[np.ndarray], np.ndarray], *, return_error: bool = False,
                   upper=None):
    """Integrate a complex-valued ``f``, scalar or array-valued, over [0, 1].

    ``f`` maps a 1-D array of s to an array whose leading axis follows s;
    trailing axes are components (a scalar integrand has none, and a 0-d
    result broadcasts).  The integral is computed as
    ``int_0^1 2u f(u^2) du``, which is smooth for integrands that are
    smooth in sqrt(s) and removes an s^{-1/2} endpoint blow-up; interior
    nodes only, so f is never evaluated at 0 or 1.

    ``upper``, when given, is a 1-D array of per-component upper limits
    b_c in [0, 1] (one per component of the flattened component shape),
    and component c is integrated over [0, b_c] instead.  The panels
    still start as [0, 1] and are shared by every component.  A panel
    wholly below sqrt(b_c) in u gives component c its usual estimates, a
    panel wholly above gives nothing, and the panel that holds sqrt(b_c)
    gives the integral up to it of the interpolant through its 20
    high-order node values, with the difference from the same integral of
    the interpolant through all 30 of its node values (10 and 20) as its
    error.
    With ``upper=None`` every sum is the plain one, and so is a component
    whose limit is 1.

    The panels are refined in rounds, and each round evaluates the nodes
    of all its new panels in one ``f`` call.  Component c has the
    tolerance tol_c = max(1e-9, 1e-9 * |total_c|), the one a scalar call
    on it alone gets.  A panel stays when its error estimate is at
    most width * tol_c in every component; every other panel is bisected.
    The rounds stop when every component's total error estimate is at
    most its tol_c.

    Returns the estimate (a complex, or an array of the component shape),
    or ``(estimate, error_bound)`` when ``return_error`` is set.  Raises
    ConvergenceError, carrying every component's estimate and error bound,
    when a round would take the bisections past ``_MAX_SUBDIVISIONS``, and
    DomainError on non-finite integrand values.
    """
    cuts = None if upper is None else _cuts(upper)
    edges = np.array([[0.0, 1.0]])
    value, err, shape = _panels(f, edges, cuts)
    splits = 0
    while True:
        total, total_err = np.sum(value, axis=0), np.sum(err, axis=0)
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
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
        new_value, new_err, _ = _panels(f, halves, cuts)
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
