"""Truncated second-moment sums and their asymptotic indices.

For a row (X_1, ..., X_n) the *Lindeberg sum* at level eps is the exact
finite quantity

    sum_k E[|X_k|^2 ; |X_k| > eps]        (strict inequality),

and the *Lindeberg index* of a family is sup over eps of the limsup over
n of that sum: zero exactly when the classical CLT condition holds, and
up to N in general.  The *directional* variant replaces the event by
|<H_k, t>| > threshold where H is either the same cell (``copy="same"``)
or an independent copy with the same law (``copy="independent"``, where
independence factorises the expectation exactly).

Every sum here is one kernel, ``_tail_sums``: sum_a w_a [v_a > thr] over
the atoms, one strict mask per threshold for every weight vector w, with
v = |x|^2 against eps^2 for Lindeberg and v = |<x, t>| for the
directional sums, whose independent copy is the weight w = p E|X_k|^2
(cell k's second moment on each of its atoms) against w = p |x|^2 for
the same cell.  A 1-D eps or threshold grid gives an array in input
order, each entry equal to the scalar call; ``_directional_sums`` gives
both copies on a (t, threshold) table, one kernel call per t; it weighs
and projects only the candidate atoms, those whose rounding-safe bound
fl(sum_j |x_j| max_t |t_j|) on |<x, t>| over the batch exceeds the
smallest threshold (the proof is in its docstring), so atoms that can
never count, such as the +-1/s_n pair of every eta cell at the usual
thresholds, are neither scanned nor masked.

Estimators here are honest finite truncations: a limsup is reported as
the max over a trailing window of the n-grid, together with flags when
the sums are still moving (so the caller can see that the asymptotic
value may be under-resolved); the flags are whole-table array masks.
No convergence claim is made.  Every finite-grid estimator, here and in
the bounds module, checks its n grid and tail window with
``_tail_window`` before it builds a row.  Every function taking an eps
(here and in the bounds module) checks it with the one rule
``_eps_grid``: a scalar or a non-empty 1-D grid whose entries are all
> 0, so NaN fails.  A threshold of the directional sums may be any
non-NaN number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rows import ArrayRow, _project
from .util import as_vector

__all__ = [
    "DEFAULT_EPS_GRID",
    "DEFAULT_TAIL_WINDOW",
    "IndexEstimate",
    "lindeberg_sum",
    "lindeberg_index_estimate",
    "l_sum",
    "infinitesimality_profile",
]

# sup over eps is approached from small eps, hence a log grid down to 1e-3
DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1.0, 1e-3, 13))
DEFAULT_TAIL_WINDOW = 3


def _tail_window(n_grid, tail_window: int) -> tuple[tuple[int, ...], int]:
    """(n grid as ints, window): the one grid rule of every finite-grid estimator.

    A limsup over n is read as the max over the last ``window`` =
    min(tail_window, len(n_grid)) columns, which means something only on a
    non-empty, strictly increasing grid with ``tail_window >= 1``.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid:
        raise ParameterError("n grid must be non-empty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ParameterError("n grid must be strictly increasing")
    if tail_window < 1:
        raise ParameterError(f"tail_window must be >= 1, got {tail_window}")
    return n_grid, min(tail_window, len(n_grid))


def _eps_grid(eps, *, scalar: bool = False) -> np.ndarray:
    """eps as a float array: the one eps rule of every function taking eps.

    A scalar or (unless ``scalar``) a 1-D grid, non-empty, with every
    entry > 0; NaN fails the comparison, so it is refused too.
    """
    grid = np.asarray(eps, dtype=np.float64)
    if grid.ndim > (0 if scalar else 1):
        raise ParameterError("eps must be a scalar" + ("" if scalar else " or a 1-D grid"))
    if not grid.size or not np.all(grid > 0.0):
        raise ParameterError(f"eps must be positive, got {eps}")
    return grid


def _thresholds(thresholds) -> np.ndarray:
    """A scalar or 1-D grid of non-NaN thresholds as a float array."""
    grid = np.asarray(thresholds, dtype=np.float64)
    if grid.ndim > 1:
        raise ParameterError("thresholds must be a scalar or a 1-D grid")
    if np.any(np.isnan(grid)):
        raise ParameterError(f"thresholds must not be NaN, got {thresholds}")
    return grid


def _tail_sums(values: np.ndarray, weights, grid: np.ndarray) -> np.ndarray:
    """sum_a w[a] [values[a] > thr] as a (len(weights), grid.size) table, one
    strict mask per thr of a scalar or 1-D grid, shared by every weight vector w."""
    sums = np.empty((len(weights), grid.size))
    for j, thr in enumerate(grid.ravel()):
        # a mask, not an index array, which would add 8 bytes a selected atom to the peak
        past = values > thr
        for i, w in enumerate(weights):
            sums[i, j] = np.sum(np.compress(past, w))
    return sums


def _copy_weights(row: ArrayRow, copy: str) -> np.ndarray:
    """Per-atom weights: p |x|^2 for the same cell, p E|X_k|^2 for a copy of cell k."""
    weights = row.probs * row.squared_norms()
    if copy == "same":
        return weights
    if copy == "independent":
        return row.probs * np.repeat(row.per_cell_sum(weights), np.diff(row.offsets))
    raise ParameterError(f"copy must be 'same' or 'independent', got {copy!r}")


def lindeberg_sum(row: ArrayRow, eps) -> float | np.ndarray:
    """Exact sum_k E[|X_k|^2 ; |X_k| > eps] over the row's atoms, per entry of an eps grid."""
    eps = _eps_grid(eps)
    norm2 = row.squared_norms()
    sums = _tail_sums(norm2, [row.probs * norm2], eps * eps)[0]
    return float(sums[0]) if eps.ndim == 0 else sums


@dataclass
class IndexEstimate:
    """Finite-grid estimate of a sup-limsup index.

    ``per_point[i, j]`` holds the sum at (eps_grid[i], n_grid[j]);
    ``value`` is the max over eps of the max over the last
    ``tail_window`` entries of the n-grid.  ``tail_increasing`` lists,
    in grid order, the eps values whose sums strictly climb across the
    whole tail window (only when it spans more than one n; the limsup
    may be under-estimated); ``non_monotone`` lists the eps values whose
    sums both rise and fall by more than 1e-15 between neighbouring n.
    """

    value: float
    eps_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    per_point: np.ndarray
    tail_window: int
    tail_increasing: tuple[float, ...]
    non_monotone: tuple[float, ...]


def lindeberg_index_estimate(
    family,
    eps_grid=DEFAULT_EPS_GRID,
    n_grid=(10, 100, 1000, 10_000),
    tail_window: int = DEFAULT_TAIL_WINDOW,
) -> IndexEstimate:
    """Estimate the Lindeberg index of a family on finite grids."""
    n_grid, window = _tail_window(n_grid, tail_window)
    eps = np.atleast_1d(_eps_grid(eps_grid))

    per_point = np.stack([lindeberg_sum(family.row(n), eps) for n in n_grid], axis=1)
    diffs = np.diff(per_point, axis=1)
    increasing = (window > 1) & np.all(diffs[:, len(n_grid) - window:] > 0, axis=1)
    wandering = np.any(diffs > 1e-15, axis=1) & np.any(diffs < -1e-15, axis=1)
    return IndexEstimate(
        value=float(np.max(per_point[:, -window:])),
        eps_grid=tuple(eps.tolist()),
        n_grid=n_grid,
        per_point=per_point,
        tail_window=tail_window,
        tail_increasing=tuple(eps[increasing].tolist()),
        non_monotone=tuple(eps[wandering].tolist()),
    )


def l_sum(row: ArrayRow, copy: str, t, threshold=1.0) -> float | np.ndarray:
    """Directional truncated second-moment sum, per entry of a threshold grid.

    copy="same":        sum_k E[|X_k|^2 ; |<X_k, t>| > threshold]
    copy="independent": sum_k E[|X_k|^2] * P[|<X0_k, t>| > threshold]
                        with X0_k an independent copy of X_k, so the
                        expectation factorises exactly.
    """
    t = as_vector(t, row.dimension)
    grid = _thresholds(threshold)
    sums = _tail_sums(np.abs(row.project(t)), [_copy_weights(row, copy)], grid)[0]
    return float(sums[0]) if grid.ndim == 0 else sums


def _directional_sums(row: ArrayRow, batch: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Both copies' l_sum on a (t, threshold) table: two (m, k) arrays, bit for bit.

    Only candidate atoms are weighed and projected: atom a is kept iff
    fl(sum_j |x_aj| r_j) (1 + c N 2^-53) > min(thresholds), with r_j the
    largest |t_j| of the batch and c = 0, the sum formed by the projection
    rule ``_project`` of |x_a| onto r (a NaN bound keeps its atom).  No
    other atom passes any threshold at any t of the batch.  Rounding to
    nearest is monotone and odd, so |fl(t_j x_aj)| = fl(|t_j| |x_aj|) <=
    fl(r_j |x_aj|) for each j, and if |P| <= Q and |y| <= z then
    |fl(P + y)| = fl(|P + y|) <= fl(|P| + |y|) <= fl(Q + z); by induction
    over the coordinates, added in the same order on both sides, the
    computed |<x_a, t>| is at most the bound, so a bound <= min(thresholds)
    fails every strict test.  This holds with subnormals too, hence c = 0;
    a bound summed in another order would need c > 0.

    Each copy's weights are built and compressed to the candidates once,
    one copy at a time, |<x, t>| once per t of the (m, N) batch over the
    candidates, in place, and ``_tail_sums`` masks them per (t, threshold).
    Each sum is ``np.sum`` over the same compressed weight sequence as
    ``l_sum``'s, since the atoms left out are never in it.
    """
    grid = np.atleast_1d(_thresholds(thresholds))
    sums = np.empty((2, len(batch), grid.size))
    if not sums.size:
        return sums[0], sums[1]
    # candidates: atoms whose bound on |<x, t>| over the batch is not at or
    # below the smallest threshold (a NaN bound keeps its atom)
    keep = ~(_project(np.abs(row.points), np.max(np.abs(batch), axis=0)) <= grid.min())
    weights = [np.compress(keep, _copy_weights(row, copy)) for copy in ("same", "independent")]
    points = np.compress(keep, row.points, axis=0)
    del keep
    for i, t in enumerate(batch):
        values = _project(points, t)
        np.abs(values, out=values)
        sums[:, i] = _tail_sums(values, weights, grid)
    return sums[0], sums[1]


def infinitesimality_profile(row: ArrayRow, eps: float) -> tuple[float, float]:
    """(max_k P[|X_k| > eps], Chebyshev-style bound dominating it).

    The bound is eps^-2 * lindeberg_sum(row, eps^2) + eps^2, which
    controls the max cell tail probability for every row; a family is
    infinitesimal when the first component vanishes as n grows, for
    every eps.  The tail test is |x|^2 > eps^2, as in ``lindeberg_sum``,
    while eps^2 is a normal float; below that it is |x| > eps, so that
    no square underflows, and the bound is its limit inf (the Lindeberg
    sum tends to the row's second moment as eps^2 -> 0).
    """
    eps = float(_eps_grid(eps, scalar=True))
    eps2 = eps * eps
    if eps2 >= np.finfo(np.float64).tiny:
        exceeds = row.squared_norms() > eps2
        bound = lindeberg_sum(row, eps2) / eps2 + eps2
    else:
        exceeds = np.hypot.reduce(np.abs(row.points), axis=1) > eps
        bound = np.inf
    max_prob = float(np.max(row.per_cell_sum(row.probs * exceeds)))
    return max_prob, float(bound)
