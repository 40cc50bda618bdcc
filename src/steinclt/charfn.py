"""Characteristic functions of rows and the Gaussian limit.

Sign convention, used everywhere in this package: the Fourier transform
of a random vector H is

    phi_H(t) = E[exp(-i <t, H>)],

i.e. the test function is e_t(x) = exp(-i <t, x>).  For a finitely
supported cell the transform is an exact finite sum; for a row of
independent cells the row-sum transform is the product of the cell
transforms.  The standard normal vector has phi(t) = exp(-|t|^2 / 2).

``charfn_gap`` is the pointwise distance |phi_Gauss(t) - phi_row(t)|,
the quantity whose sup/limsup behaviour the rest of the package bounds
and estimates.  Monte Carlo counterparts (``empirical_charfn``,
``kolmogorov_mc``) provide independent cross-checks of the exact paths.

Every exact row transform comes from one phase pass, ``_phase_pass``:
for an (m, N) batch T it forms a = T x^T over all atoms and cos a,
sin a, in chunks of at most ``_PHASE_BUDGET`` (t-values x atoms)
elements, and hands each chunk to a reduction.  The cell transforms
are the per-cell sums of p cos a - i p sin a (``_cell_transforms``, the
only cell-level transform; a one-cell row gives a single cell's
transform through ``row_sum_charfn``); the gap identity of the
bounds module reduces the same chunk to its s-integrand.  The row
transform and the gap take a single t or a 2-D (m, N) batch; a batch
returns one entry per row of T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UnsupportedDimensionError
from .normal_cdf import normal_cdf
from .rng import RngSeed
from .rows import ArrayRow
from .util import as_vector

__all__ = [
    "CharfnValue",
    "row_sum_charfn",
    "gaussian_charfn",
    "charfn_gap",
    "empirical_charfn",
    "sample_row_sums",
    "kolmogorov_mc",
]


@dataclass(frozen=True)
class CharfnValue:
    """A transform value with a Monte Carlo standard error (0 if exact)."""

    value: complex
    stderr: float


# cap on (t-values x atoms) elements of each phase array in _phase_pass
_PHASE_BUDGET = 1_000_000

# sample_row_sums counts comparisons up to this many atoms per cell and
# binary-searches above: one pass per atom against a log-depth search
# (both near 6.5 ms per 1e5 draws at 64 atoms on a 2-core x86 VM)
_COUNTING_MAX_ATOMS = 64


def _as_batch(t, dim: int) -> tuple[np.ndarray, bool]:
    """(T, is_batch): a 2-D (m, N) batch as given, any other t as a (1, N) batch."""
    if np.ndim(t) != 2:
        return as_vector(t, dim)[None, :], False
    batch = np.asarray(t, dtype=np.float64)
    if batch.shape[1] != dim:
        raise ShapeError(f"t has dimension {batch.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(batch)):
        raise ParameterError("t must be finite")
    return batch, True


def _phase_pass(row: ArrayRow, batch: np.ndarray, reduce) -> np.ndarray:
    """reduce(a, cos a, sin a) over row-chunks of the batch, stacked along axis 0.

    a = T x^T holds <t, x_a> for every t of the chunk and every atom, so
    each array is (chunk x total_atoms) with chunk x total_atoms at most
    _PHASE_BUDGET (one t per chunk when a row has more atoms than that).
    """
    chunk = max(1, _PHASE_BUDGET // row.total_atoms)
    parts = []
    # an empty batch still makes one (0, atoms) pass, so the result has its shape
    for i in range(0, batch.shape[0], chunk) or (0,):
        a = batch[i:i + chunk] @ row.points.T
        parts.append(reduce(a, np.cos(a), np.sin(a)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _cell_transforms(row: ArrayRow, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Cell transforms sum_a p (cos a - i sin a), one row per t: shape (m, n)."""
    phis = np.empty((cos.shape[0], row.n), dtype=np.complex128)
    phis.real = np.add.reduceat(row.probs * cos, row.starts, axis=1)
    phis.imag = -np.add.reduceat(row.probs * sin, row.starts, axis=1)
    return phis


def row_sum_charfn(row: ArrayRow, t):
    """Exact transform of the row sum: the product of cell transforms.

    A 2-D (m, N) batch of t gives a complex array of m values.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    values = _phase_pass(
        row, batch, lambda a, cos, sin: np.prod(_cell_transforms(row, cos, sin), axis=1)
    )
    return values if is_batch else complex(values[0])


def gaussian_charfn(t) -> float:
    """Transform of the standard normal vector: exp(-|t|^2 / 2)."""
    t = as_vector(t)
    return float(np.exp(-0.5 * float(t @ t)))


def charfn_gap(row: ArrayRow, t):
    """|phi_Gauss(t) - phi_row(t)|, always in [0, 2].

    A 2-D (m, N) batch of t gives an array of m gaps.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    gauss = np.exp(-0.5 * np.sum(batch * batch, axis=1))
    gaps = np.abs(gauss - row_sum_charfn(row, batch))
    return gaps if is_batch else float(gaps[0])


def sample_row_sums(row: ArrayRow, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. realisations of the row sum; shape (samples, N).

    Each cell is sampled independently by inverse transform on its atom
    probabilities, so the draw sequence is fully determined by the
    generator state.  The draw contract, which every (seed, stream)
    keeps bit for bit: cell k consumes uniforms k*m ... (k+1)*m - 1 of
    the stream (m = samples, one ``rng.random(m)`` per cell, a one-atom
    cell included), and a uniform u picks the atom whose index is the
    count of the cell's cumulative weights cum = cumsum(p) that are
    <= u, capped at the last atom.  The sums add the cells in order.

    The count is taken by one comparison pass per atom for cells of at
    most ``_COUNTING_MAX_ATOMS`` atoms and by a binary search above;
    every p > 0, so cum is non-decreasing and both give the same index.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    total = np.zeros((samples, row.dimension))
    for k in range(row.n):
        lo, hi = row.offsets[k], row.offsets[k + 1]
        cum = np.cumsum(row.probs[lo:hi])
        u = rng.random(samples)
        if hi - lo > _COUNTING_MAX_ATOMS:
            idx = np.searchsorted(cum[:-1], u, side="right")
        else:
            idx = np.zeros(samples, dtype=np.intp)
            for c in cum[:-1]:
                idx += u >= c
        total += row.points[lo:hi].take(idx, axis=0)
    return total


def empirical_charfn(row: ArrayRow, t, samples: int, seed: RngSeed):
    """Monte Carlo transform of the row sum, with standard error.

    The result is deterministic given (seed, stream).  stderr combines
    the real and imaginary sample standard deviations in quadrature; a
    healthy run has |exact - value| below a few stderr.  A 2-D (m, N)
    batch of t gives a tuple of m values, all from one draw of the sums,
    each equal to the single-t call.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    sums = sample_row_sums(row, samples, seed.generator())
    values = []
    for tvec in batch:
        z = np.exp(-1j * (sums @ tvec))
        if samples > 1:
            var = np.var(z.real, ddof=1) + np.var(z.imag, ddof=1)
            stderr = float(np.sqrt(var / samples))
        else:
            stderr = 0.0
        values.append(CharfnValue(value=complex(np.mean(z)), stderr=stderr))
    return tuple(values) if is_batch else values[0]


def kolmogorov_mc(row: ArrayRow, samples: int, seed: RngSeed) -> float:
    """Monte Carlo Kolmogorov distance between the row sum and N(0, 1).

    One-dimensional rows only.  The empirical CDF is compared with Phi
    at both sides of every jump, which is where the supremum of
    |F_empirical - Phi| lives for discrete laws.  Diagnostic only: the
    package's quantitative statements are about transform gaps, not CDF
    distance.
    """
    if row.dimension != 1:
        raise UnsupportedDimensionError("kolmogorov_mc supports one-dimensional rows only")
    draws = np.sort(sample_row_sums(row, samples, seed.generator())[:, 0])
    m = draws.size
    phi = normal_cdf(draws)
    upper = np.max(np.arange(1, m + 1) / m - phi)
    lower = np.max(phi - np.arange(0, m) / m)
    return float(max(upper, lower))
