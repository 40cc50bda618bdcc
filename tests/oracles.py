"""Independent reference implementations used by the test suite.

Everything here deliberately avoids the library's own code paths
(adaptive quadrature, reduceat sums) so the tests compare two unrelated
routes to the same number: brute-force midpoint rules, closed-form tail
counts, and plain finite differences.
"""

import math

import numpy as np

from steinclt import stein_solution


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
            exceeds = np.abs(points @ np.atleast_1d(t)) > threshold
        for p, q, hit in zip(probs, norm2, exceeds):
            if hit:
                total += p * (second if copy == "independent" else q)
    return total


def cell_charfn(points, probs, t) -> complex:
    """Exact transform of one cell, sum_atoms p * exp(-i <t, x>), through
    one complex exp per atom rather than the library's phase pass."""
    return complex(np.sum(probs * np.exp(-1j * (points @ np.atleast_1d(t)))))


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


def cells_doc_oracle(row) -> list:
    """The array-spec "cells" list of a row, written one cell and one atom
    at a time with float() on every coordinate and probability."""
    return [{"atoms": [{"x": [float(v) for v in x], "p": float(p)} for x, p in zip(*cell)]}
            for cell in row.cells()]


def r_factor_exp_form(a) -> np.ndarray:
    """R(a) = (1 - e^{-ia})/(ia) - 1 through one complex exp, with the
    Taylor terms through a^4 below |a| < 1e-4 (the form the gap identity
    used before it took cos a and sin a from the phase pass)."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape, dtype=np.complex128)
    big = np.abs(a) >= 1e-4
    ab = a[big]
    out[big] = (1.0 - np.exp(-1j * ab)) / (1j * ab) - 1.0
    w = -1j * a[~big]
    out[~big] = w * (1.0 / 2.0 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w / 120.0)))
    return out


def fd_hessian_of_solution(t, x, step: float = 1e-4, spec=None) -> np.ndarray:
    """Second central differences of the Stein solution."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size

    def f(point):
        if spec is None:
            return stein_solution(t, point).value
        return stein_solution(t, point, spec).value

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
