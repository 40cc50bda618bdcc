"""Independent reference implementations used by the test suite.

Everything here deliberately avoids the library's own code paths
(adaptive quadrature, reduceat sums) so the tests compare two unrelated
routes to the same number: brute-force midpoint rules, closed-form tail
counts, and plain finite differences.  The exceptions keep an earlier
layout of the library's own expressions, so that a rewrite can be
checked against it bit for bit: ``master_bound_oracle`` (the per-eps
assembly of the master inequality on the single-t gap and tail sums),
``masked_sum_oracle`` (one boolean-indexed sum per threshold),
``directional_sums_oracle`` (every atom weighed and projected),
``validation_oracle`` (every temporary formed in one expression) and
``kolmogorov_oracle`` (Phi compared at every sorted draw).
"""

import math

import numpy as np

from steinclt import (
    ConstructionError,
    charfn_gap,
    eta_scale_squared,
    gaussian_charfn,
    l_sum,
    normal_cdf,
    stein_solution,
)
from steinclt.rows import DEFAULT_COV_TOL, DEFAULT_MEAN_TOL


def midpoint_solution(t: float, x: float, panels: int = 1_000_000) -> complex:
    """1-D interpolation solution by a midpoint rule in u = sqrt(s)."""
    u = (np.arange(panels) + 0.5) / panels
    s = u * u
    bracket = np.exp(-t * t / 2.0) - np.exp(-1j * u * t * x - (1.0 - s) * t * t / 2.0)
    return complex(np.sum(2.0 * u * (0.5 / s) * bracket) / panels)


def eta_lindeberg_oracle(alpha: float, n: int, eps: float) -> float:
    """Closed-form tail count for the two-scale family.

    Large atoms sqrt(k)/s_n exceed eps exactly when k > eps^2 s_n^2, each
    contributing beta/s_n^2; the +-1/s_n atoms contribute their whole
    mass (n - beta H_n)/s_n^2 when 1/s_n > eps and nothing otherwise.
    """
    beta = alpha / (1.0 - alpha)
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    s2 = (1.0 + beta) * n - beta * harmonic
    cut = eps * eps * s2
    count = n - math.floor(cut) if cut < n else 0
    big = beta * count / s2
    small = (n - beta * harmonic) / s2 if 1.0 / math.sqrt(s2) > eps else 0.0
    return big + small


def index_flags_oracle(per_point, eps_grid, window: int):
    """(tail_increasing, non_monotone) of a Lindeberg-sum table, one eps
    row at a time: strictly rising across the last ``window`` columns
    (when window > 1), and both rising and falling by more than 1e-15
    between neighbouring columns."""
    increasing, wandering = [], []
    for eps, seq in zip(eps_grid, per_point):
        steps = [b - a for a, b in zip(seq, seq[1:])]
        if window > 1 and all(step > 0 for step in steps[len(steps) - window + 1:]):
            increasing.append(eps)
        if any(step > 1e-15 for step in steps) and any(step < -1e-15 for step in steps):
            wandering.append(eps)
    return tuple(increasing), tuple(wandering)


def project_oracle(x, t) -> float:
    """<t, x> for one atom x, as Python floats added over the coordinates
    in order: the summation rule of ``ArrayRow.project``."""
    total = float(t[0]) * float(x[0])
    for tj, xj in zip(t[1:], x[1:]):
        total += float(tj) * float(xj)
    return total


def truncated_sum_oracle(row, copy: str, t, threshold: float) -> float:
    """Truncated second-moment sum, one cell and one atom at a time.

    copy="same" and copy="independent" are the directional sums over
    |<x, t>| > threshold (the independent copy weighs an exceeding atom by
    its probability times its cell's whole second moment); copy="lindeberg"
    ignores t and truncates |x| > threshold, compared as |x|^2 > threshold^2.
    """
    total = 0.0
    for points, probs in row.cells():
        norm2 = np.sum(points**2, axis=1)
        second = sum(p * q for p, q in zip(probs, norm2))
        if copy == "lindeberg":
            exceeds = norm2 > threshold * threshold
        else:
            exceeds = [abs(project_oracle(x, np.atleast_1d(t))) > threshold for x in points]
        for p, q, hit in zip(probs, norm2, exceeds):
            if hit:
                total += p * (second if copy == "independent" else q)
    return total


def masked_sum_oracle(values, weights, thr) -> float:
    """sum_a weights[a] [values[a] > thr] by boolean indexing."""
    return np.sum(weights[values > thr])


def copy_weights_oracle(row):
    """(p |x|^2, p E|X_k|^2) per atom: the weights of the same cell and of
    an independent copy of cell k, each formed in one expression."""
    same = row.probs * np.sum(row.points**2, axis=1)
    return same, row.probs * np.repeat(np.add.reduceat(same, row.offsets[:-1]), np.diff(row.offsets))


def cell_charfn(points, probs, t) -> complex:
    """Exact transform of one cell, sum_atoms p * exp(-i <t, x>), through
    one complex exp per atom rather than the library's tiled cos and sin kernel."""
    return complex(np.sum(probs * np.exp(-1j * (points @ np.atleast_1d(t)))))


def exclusive_products_oracle(values) -> np.ndarray:
    """For each k along the last axis, np.prod of the other entries, one
    k at a time (the product of no entries is 1)."""
    values = np.asarray(values)
    out = np.empty_like(values)
    for idx in np.ndindex(values.shape[:-1]):
        for k in range(values.shape[-1]):
            out[idx + (k,)] = np.prod(np.delete(values[idx], k))
    return out


def atom_index_oracle(cum, u) -> np.ndarray:
    """Inverse-transform atom of each uniform u for cumulative weights cum:
    min(searchsorted(cum, u, "right"), atoms - 1)."""
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def sample_row_sums_oracle(row, samples: int, rng) -> np.ndarray:
    """Row-sum draws by the binary-search inverse transform: one
    ``rng.random(samples)`` per cell in cell order, ``atom_index_oracle``,
    and a fancy-index gather into a running total."""
    total = np.zeros((samples, row.dimension))
    for k in range(row.n):
        lo, hi = row.offsets[k], row.offsets[k + 1]
        idx = atom_index_oracle(np.cumsum(row.probs[lo:hi]), rng.random(samples))
        total += row.points[lo + idx]
    return total


def product_row_oracle(factors):
    """(points, probs, offsets) of the coordinate product of 1-D rows, one
    cell at a time: meshgrid of the factor cells' atoms, probabilities by
    repeated outer products, then a stable lexicographic sort per cell."""
    points, probs, counts = [], [], []
    for k in range(factors[0].n):
        parts = [factor.cell(k) for factor in factors]
        grids = np.meshgrid(*[x[:, 0] for x, _ in parts], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        pr = parts[0][1]
        for _, p in parts[1:]:
            pr = np.multiply.outer(pr, p)
        order = np.lexsort(pts.T[::-1])
        points.append(pts[order])
        probs.append(pr.ravel()[order])
        counts.append(len(order))
    return np.concatenate(points), np.concatenate(probs), np.concatenate([[0], np.cumsum(counts)])


def eta_row_oracle(alpha: float, n: int, shifted_start: bool = False):
    """(points, probs, offsets) of the two-scale row, one cell at a
    time as the rows module defines it.

    With beta = alpha/(1-alpha), cell k puts mass beta/(2k) on each of
    +-sqrt(k)/s_n and (1 - beta/k)/2 on each of +-1/s_n, atoms ascending.
    Cell 1, where the pairs coincide, and (for beta > 1, shifted start
    only) every cell below ceil(beta) are plain +-1/s_n coins; a +-1/s_n
    pair of mass at most 1e-11 (k = beta up to float dust) is dropped.
    s_n^2 comes from ``eta_scale_squared``.
    """
    beta = alpha / (1.0 - alpha)
    start = 1
    if beta > 1.0:
        if not shifted_start:
            raise ConstructionError(f"alpha={alpha} needs the shifted start")
        start = math.ceil(beta - 1e-12 * beta)
    s = math.sqrt(eta_scale_squared(alpha, n, shifted_start=beta > 1.0))
    points, probs, counts = [], [], []
    for k in range(1, n + 1):
        if k == 1 or k < start:
            atoms = [(-1.0 / s, 0.5), (1.0 / s, 0.5)]
        else:
            small, big = 0.5 * (1.0 - beta / k), 0.5 * beta / k
            if small < -1e-11:
                raise ConstructionError(f"negative atom probability at k={k}")
            atoms = [(-math.sqrt(k) / s, big), (-1.0 / s, small),
                     (1.0 / s, small), (math.sqrt(k) / s, big)]
            if small <= 1e-11:
                atoms = [atoms[0], atoms[3]]
        points += [x for x, _ in atoms]
        probs += [p for _, p in atoms]
        counts.append(len(atoms))
    return np.array(points)[:, None], np.array(probs), np.concatenate([[0], np.cumsum(counts)])


def cells_doc_oracle(row) -> list:
    """The array-spec "cells" list of a row, written one cell and one atom
    at a time with float() on every coordinate and probability."""
    return [{"atoms": [{"x": [float(v) for v in x], "p": float(p)} for x, p in zip(*cell)]}
            for cell in row.cells()]


def r_factor_exp_form(a) -> np.ndarray:
    """R(a) = (1 - e^{-ia})/(ia) - 1 = int_0^1 (e^{-ira} - 1) dr through one
    complex exp, with the Taylor terms through a^4 below |a| < 1e-4."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape, dtype=np.complex128)
    big = np.abs(a) >= 1e-4
    ab = a[big]
    out[big] = (1.0 - np.exp(-1j * ab)) / (1j * ab) - 1.0
    w = -1j * a[~big]
    out[~big] = w * (1.0 / 2.0 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w / 120.0)))
    return out


def identity_integrand_r_form(row, t, s: float) -> complex:
    """The gap identity's s-integrand in its Stein form, one cell and one
    atom at a time: at u = sqrt(s),

      sum_k prod_{j!=k} phi_j(u t) [ sum_a p_a d_a^2 R(u d_a)
                                     - (phi_k(u t) - 1) m2_k ] e^{-(1-s) tau/2},

    with d_a = <x_a, t>, m2_k = sum_a p_a d_a^2, tau = sum_k m2_k, R from
    ``r_factor_exp_form`` and every exclusive product taken directly."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    u = math.sqrt(s)
    cells = list(row.cells())
    phis = [cell_charfn(points, probs, u * t) for points, probs in cells]
    total, tau = 0j, 0.0
    for k, (points, probs) in enumerate(cells):
        others = 1.0 + 0j
        for j, phi in enumerate(phis):
            if j != k:
                others *= phi
        same, m2 = 0j, 0.0
        for x, p in zip(points, probs):
            d = float(x @ t)
            same += p * d * d * complex(r_factor_exp_form(u * d))
            m2 += p * d * d
        total += others * (same - (phis[k] - 1.0) * m2)
        tau += m2
    return total * math.exp(-0.5 * (1.0 - s) * tau)


# the most support points of a row sum that identity_by_stein_route enumerates
STEIN_ROUTE_MAX_SUPPORT = 4096


def _enumerated_sum(cells, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, probs) of the sum of independent cells, one point per
    choice of an atom in each cell (equal sums are not merged)."""
    points, probs = np.zeros((1, dim)), np.ones(1)
    for x, p in cells:
        points = (points[:, None, :] + x[None, :, :]).reshape(-1, dim)
        probs = (probs[:, None] * p[None, :]).ravel()
    return points, probs


def identity_by_stein_route(row, t, hessian, nodes: int = 20) -> complex:
    """phi_Gauss(t) - phi_row(t) by the paper's Stein route, on a row whose
    sum W has at most ``STEIN_ROUTE_MAX_SUPPORT`` support points.

    The Stein equation <x, grad f> - Laplacian f = E e_t(Z) - e_t(x) gives
    phi_Gauss(t) - phi_row(t) = E[<W, grad f(W)> - Laplacian f(W)], and with
    W_k = W - X_k, independence and E X_k = 0,

      phi_Gauss(t) - phi_row(t)
        = sum_k E[ int_0^1 <X_k, Hess f(W_k + r X_k) X_k> dr ]
          - E[ tr Hess f(W) ],

    where the last term is sum_k E <X'_k, Hess f(W) X'_k>, X'_k an
    independent copy of X_k, when sum_k E[X_k X_k^T] = I.  The trace is
    taken as it is, because validation holds that sum only to 1e-10; the
    cells' means must vanish to rounding.  The laws of W and of every W_k
    are enumerated, the r-integral is a ``nodes``-point Gauss-Legendre
    rule, checked against 2 * nodes points (an AssertionError when they
    differ by more than 1e-15), and all the weighted terms are added by
    math.fsum.  ``hessian(t, x)`` returns Hess f_t(x) as an (N, N) matrix.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    cells = list(row.cells())
    support = math.prod(len(p) for _, p in cells)
    if support > STEIN_ROUTE_MAX_SUPPORT:
        raise ValueError(f"the row sum has {support} support points, "
                         f"more than {STEIN_ROUTE_MAX_SUPPORT}")
    laplacian = [-q * np.trace(hessian(t, w))
                 for w, q in zip(*_enumerated_sum(cells, row.dimension))]
    rest = [_enumerated_sum(cells[:k] + cells[k + 1:], row.dimension) for k in range(len(cells))]
    values = []
    for m in (nodes, 2 * nodes):
        r, c = np.polynomial.legendre.leggauss(m)
        r, c = 0.5 * (r + 1.0), 0.5 * c
        terms = list(laplacian)
        for (x, p), (w_points, w_probs) in zip(cells, rest):
            for xa, pa in zip(x, p):
                for w, q in zip(w_points, w_probs):
                    terms += [pa * q * cj * (xa @ hessian(t, w + rj * xa) @ xa)
                              for rj, cj in zip(r, c)]
        # every term summed in one correctly rounded pass per part
        values.append(complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)))
    assert abs(values[1] - values[0]) <= 1e-15, values
    return values[0]


def rademacher_gap_closed_form(n: int, t: float) -> float:
    """|phi_Gauss(t) - cos(t/sqrt(n))^n| for the rademacher row, as
    e^{-t^2/2} |expm1(n log1p(-2 sin^2(x/2)) + t^2/2)| with x = t/sqrt(n),
    so that a tiny gap keeps its relative accuracy."""
    x = t / math.sqrt(n)
    log_cos = math.log1p(-2.0 * math.sin(0.5 * x) ** 2)
    return math.exp(-0.5 * t * t) * abs(math.expm1(n * log_cos + 0.5 * t * t))


def fd_gradient_of_solution(t, x, step: float = 1e-5) -> np.ndarray:
    """Central differences of the Stein solution, one solution per point."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([(stein_solution(t, x + e)[0] - stein_solution(t, x - e)[0]) / (2 * step)
                     for e in step * np.eye(x.size)])


def fd_hessian_of_solution(t, x, step: float = 1e-4) -> np.ndarray:
    """Second central differences of the Stein solution."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size

    def f(point):
        return stein_solution(t, point)[0]

    matrix = np.empty((dim, dim), dtype=complex)
    eye = step * np.eye(dim)
    f0 = f(x)
    for i in range(dim):
        matrix[i, i] = (f(x + eye[i]) - 2 * f0 + f(x - eye[i])) / step**2
        for j in range(i + 1, dim):
            mixed = (
                f(x + eye[i] + eye[j])
                - f(x + eye[i] - eye[j])
                - f(x - eye[i] + eye[j])
                + f(x - eye[i] - eye[j])
            ) / (4 * step**2)
            matrix[i, j] = matrix[j, i] = mixed
    return matrix


def tensor_gauss_hermite_moments(t, x, s: float, level: int):
    """E[e_t(sqrt(s) x + sqrt(1-s) Z) Z] and E[e_t(...)(Z Z^T - I)] by
    summing over a level^dim tensor Gauss-Hermite grid point by point.

    The grid is built here from ``hermegauss`` (weights normalised to sum
    to one), so the library's 1-D factorisation of the same product rule
    is checked against the plain tensor sum.  Each entry is one pairwise
    ``np.sum`` over the grid: a BLAS contraction of the 216k terms in
    dim 3 rounds E[Z] at s = 1 to 1e-14.  The shift e^{-i sqrt(s) <t, x>}
    is one factor common to every point; it is applied once rather than
    folded into each point's angle, whose rounding (|angle| times the
    unit roundoff) would also reach 1e-14.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = t.size
    nodes, weights = np.polynomial.hermite_e.hermegauss(level)
    weights = weights / weights.sum()
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    coords = [grid.ravel() for grid in grids]
    w = weights
    for _ in range(dim - 1):
        w = np.multiply.outer(w, weights)
    phase = w.ravel() * np.exp(-1j * np.sqrt(1.0 - s) * sum(tl * z for tl, z in zip(t, coords)))
    shift = np.exp(-1j * np.sqrt(s) * float(t @ x))
    first = np.array([np.sum(phase * z) for z in coords])
    second = np.array([[np.sum(phase * zl * zk) for zk in coords] for zl in coords])
    return shift * first, shift * (second - np.sum(phase) * np.eye(dim))


def master_bound_oracle(row, t, eps_grid) -> list[dict]:
    """The master inequality at one t, one dict of terms per eps of a 1-D
    grid, by the per-eps loop that preceded the (t, eps) table: one gap
    and one ``l_sum`` grid call per copy mode, then every term of each eps
    as a plain float."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    lhs_gap = charfn_gap(row, t)
    envelope = 1.0 - gaussian_charfn(t)
    same = l_sum(row, "same", t, eps_grid).tolist()
    indep = l_sum(row, "independent", t, eps_grid).tolist()
    terms = []
    for level, term_same, term_indep in zip(np.asarray(eps_grid, dtype=float).tolist(), same, indep):
        term_eps = 2.0 * level * row.dimension
        rhs = term_eps + 2.0 * (term_same + term_indep) * envelope
        terms.append({"eps": level, "lhs_gap": lhs_gap, "term_eps": term_eps,
                      "term_same": term_same, "term_indep": term_indep, "envelope": envelope,
                      "rhs": rhs, "slack": rhs - lhs_gap, "passed": rhs - lhs_gap >= 0.0})
    return terms


def directional_sums_oracle(row, batch, thresholds):
    """Both copies' directional sums on a (t, threshold) table by the loop
    that preceded the candidate rule: weights for every atom, |<x, t>| for
    every atom of each t, and one mask-and-compress sum per (t, threshold)."""
    grid = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    same, indep = copy_weights_oracle(row)
    sums = np.empty((2, len(batch), grid.size))
    for i, t in enumerate(batch):
        values = np.abs(row.project(t))
        for j, thr in enumerate(grid):
            past = values > thr
            sums[:, i, j] = np.sum(np.compress(past, same)), np.sum(np.compress(past, indep))
    return sums[0], sums[1]


def validation_oracle(dimension, points, probs, offsets) -> dict:
    """Every field of a ValidationReport from raw row arrays, by the plain
    expressions that preceded the freed temporaries of ``validate_row``,
    under the one rule's tolerances."""
    starts = offsets[:-1]
    prob_sums = np.add.reduceat(probs, starts)
    means = np.add.reduceat(probs[:, None] * points, starts, axis=0)
    second_matrix = np.einsum("a,ai,aj->ij", probs, points, points)
    cov_residual_matrix = second_matrix - np.einsum("ki,kj->ij", means, means) - np.eye(dimension)
    prob_residuals = np.abs(prob_sums - 1.0)
    mean_residuals = np.linalg.norm(means, axis=1)
    cell_ok = (prob_residuals <= DEFAULT_MEAN_TOL) & (mean_residuals <= DEFAULT_MEAN_TOL)
    return {
        "n": len(offsets) - 1,
        "dimension": dimension,
        "prob_residuals": prob_residuals,
        "mean_residuals": mean_residuals,
        "cov_residual_matrix": cov_residual_matrix,
        "second_moment_sum": float(np.sum(probs * np.sum(points**2, axis=1))),
        "passed": (bool(np.all(cell_ok))
                   and float(np.max(np.abs(cov_residual_matrix))) <= DEFAULT_COV_TOL),
        "failing_cells": tuple(int(k) for k in np.nonzero(~cell_ok)[0]),
    }


def kolmogorov_oracle(draws: np.ndarray) -> float:
    """Kolmogorov distance of the draws' empirical CDF to N(0, 1), with
    Phi taken at every sorted draw, ties included: the largest of
    i/m - Phi(x_(i)) and Phi(x_(i)) - (i-1)/m over i = 1..m."""
    draws = np.sort(draws)
    m = draws.size
    phi = normal_cdf(draws)
    upper = np.max(np.arange(1, m + 1) / m - phi)
    lower = np.max(phi - np.arange(0, m) / m)
    return float(max(upper, lower))
