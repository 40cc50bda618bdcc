"""Triangular-array rows of finitely supported, mean-zero random vectors.

A *standard* row of size n consists of n independent cells; each cell is
a finitely supported distribution on R^N with mean zero, and the cell
covariances add up to the identity, so the row sum has unit covariance.
Every ``ArrayRow`` is standard by construction: building one runs
``validate_row`` once and raises RowValidationError if the row fails,
so no function taking a row has to check it again.  There is one rule,
with fixed tolerances: each cell's probability sum and mean within
``DEFAULT_MEAN_TOL``, the covariance sum within ``DEFAULT_COV_TOL`` of
the identity in every entry (docs/row-spec.md).

Rows keep their atoms in flat concatenated arrays (``points``, ``probs``
plus ``offsets`` marking cell boundaries) so that row-level reductions
stay vectorised even at n = 10^5.  They are the only form a row is
assembled in; a cell is a plain ``(points, probs)`` pair of arrays.

A row holds only its data (``points``, ``probs``, ``offsets``);
derived arrays such as ``squared_norms()`` are formed per call.  Building
a row holds few atom-sized temporaries next to the row: the builders drop
their per-cell tables before ``ArrayRow`` validates the row, and
``validate_row`` drops each atom-sized temporary (the squared norms, the
weighted points) as soon as it has been used.  In a fresh interpreter the
peak resident size while building an eta row rises by about 2.5 times its
``points``, ``probs`` and ``offsets`` bytes (2.2 times for a rademacher row).

Built-in constructions:

* ``build_rademacher_row`` -- n i.i.d. scaled coin flips +-1/sqrt(n).
* ``build_eta_row`` -- the two-scale family with parameter alpha in
  (0, 1): writing beta = alpha/(1-alpha) and
  s_n^2 = (1+beta) n - beta H_n (H_n the harmonic number), cell k puts
  mass (1 - beta/k)/2 on each of +-1/s_n and mass beta/(2k) on each of
  +-sqrt(k)/s_n.  Its Lindeberg-type index converges to alpha, so it is
  the canonical example of an array that narrowly fails the classical
  CLT condition by a prescribed amount.
* ``build_product_row`` -- coordinate-wise product of 1-D rows, giving
  multivariate rows with independent coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    ConstructionError,
    ParameterError,
    RowValidationError,
    ShapeError,
)

__all__ = [
    "ArrayRow",
    "ValidationReport",
    "validate_row",
    "build_rademacher_row",
    "build_eta_row",
    "build_product_row",
    "eta_scale_squared",
    "DEFAULT_MEAN_TOL",
    "DEFAULT_COV_TOL",
    "DEFAULT_ATOM_CAP",
]

DEFAULT_MEAN_TOL = 1e-12
DEFAULT_COV_TOL = 1e-10
DEFAULT_ATOM_CAP = 10_000


@dataclass(frozen=True)
class ArrayRow:
    """Standard row of independent cells, stored as flat concatenated atoms.

    ``offsets`` has length n+1; cell k occupies
    ``points[offsets[k]:offsets[k+1]]``.  Construction rejects empty
    cells, non-finite atom coordinates and atom probabilities outside
    (0, 1] (NaN included) with ParameterError, then validates the row
    and raises RowValidationError (carrying the ValidationReport) if it
    is not standard.  The row is read-only after construction (writing
    into ``points``, ``probs`` or ``offsets`` raises ValueError,
    rebinding a field raises ``dataclasses.FrozenInstanceError``), since
    families hand out one shared cached row.
    """

    dimension: int
    points: np.ndarray  # (total_atoms, N)
    probs: np.ndarray  # (total_atoms,)
    offsets: np.ndarray  # (n + 1,), int64

    def __post_init__(self):
        object.__setattr__(
            self, "points", np.asarray(self.points, dtype=np.float64).reshape(-1, self.dimension)
        )
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64).ravel())
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64).ravel())
        if self.points.shape[0] != self.probs.shape[0]:
            raise ShapeError("points and probs must have one entry per atom")
        if self.offsets[0] != 0 or self.offsets[-1] != self.points.shape[0]:
            raise ShapeError("offsets must span the atom arrays")
        if np.any(np.diff(self.offsets) < 1):
            raise ParameterError("every cell needs at least one atom")
        if not np.all(np.isfinite(self.points)):
            raise ParameterError("atom coordinates must be finite")
        if not np.all((self.probs > 0.0) & (self.probs <= 1.0)):
            raise ParameterError("atom probabilities must lie in (0, 1]")
        # reshape/ravel return new array objects, so the flag binds the row's
        # handles only and the caller's arrays stay writable
        for array in (self.points, self.probs, self.offsets):
            array.setflags(write=False)
        report = validate_row(self)
        if not report.passed:
            bad = ", ".join(f"cell {k}" for k in report.failing_cells) or "covariance sum"
            raise RowValidationError(
                f"row failed validation ({bad}); {report.summary()}", report=report
            )

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_atoms(self) -> int:
        return self.points.shape[0]

    def cell(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Cell k as (points, probs): read-only views of the row's arrays."""
        if not 0 <= k < self.n:
            raise IndexError(f"cell index {k} out of range for a row of n={self.n} cells")
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return self.points[lo:hi], self.probs[lo:hi]

    def cells(self):
        """Every cell's (points, probs) pair, in order."""
        for k in range(self.n):
            yield self.cell(k)

    def per_cell_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of a per-atom array (vectorised reduceat)."""
        return np.add.reduceat(values, self.offsets[:-1], axis=0)

    def project(self, t, start: int = 0, stop: int | None = None) -> np.ndarray:
        """<t, x_a> per atom a of start:stop (default all), (A,) for one t or (m, A)
        for an (m, N) batch: the one projection, adding t_j x_j in coordinate
        order so each entry needs only its t and its atom."""
        return _project(self.points[start:stop], t)

    def squared_norms(self) -> np.ndarray:
        """|x|^2 per atom, a fresh array on each call."""
        return np.sum(self.points**2, axis=1)

    @classmethod
    def from_cells(cls, cells) -> "ArrayRow":
        """Row from an iterable of (points, probs) pairs, one per cell; an
        (m, N) points array and m probabilities (a 1-D points array is one atom)."""
        cells = [(np.atleast_2d(np.asarray(x, dtype=np.float64)),
                  np.asarray(p, dtype=np.float64).ravel()) for x, p in cells]
        if not cells:
            raise ParameterError("a row needs at least one cell")
        if len({x.shape[1] for x, _ in cells}) != 1:
            raise ShapeError("all cells in a row must share one dimension")
        if any(x.shape[0] != p.size for x, p in cells):
            raise ShapeError("points and probs must have one entry per atom")
        points, probs = zip(*cells)
        offsets = np.concatenate([[0], np.cumsum([p.size for p in probs])])
        return cls(points[0].shape[1], np.concatenate(points), np.concatenate(probs), offsets)


def _project(points: np.ndarray, t) -> np.ndarray:
    """<t, x> per row x of an (A, N) points array: the rule of ``ArrayRow.project``."""
    t = np.asarray(t, dtype=np.float64)
    a = t[..., 0, None] * points[:, 0]
    for j in range(1, points.shape[1]):
        a += t[..., j, None] * points[:, j]
    return a


@dataclass
class ValidationReport:
    """Residuals of the standard-row properties for one row.

    * ``prob_residuals[k]`` -- |sum of cell k's probabilities - 1|
    * ``mean_residuals[k]`` -- Euclidean norm of cell k's mean
    * ``cov_residual_matrix`` -- sum of cell covariances minus identity
    * ``second_moment_sum`` -- sum over cells of E[|X|^2] (should be N)
    """

    n: int
    dimension: int
    prob_residuals: np.ndarray
    mean_residuals: np.ndarray
    cov_residual_matrix: np.ndarray
    second_moment_sum: float
    passed: bool
    failing_cells: tuple[int, ...]

    @property
    def cov_residual(self) -> float:
        return float(np.max(np.abs(self.cov_residual_matrix)))

    @property
    def second_moment_residual(self) -> float:
        return abs(self.second_moment_sum - self.dimension)

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"row n={self.n} N={self.dimension}: {status} "
            f"(max prob residual {np.max(self.prob_residuals):.3e}, "
            f"max mean residual {np.max(self.mean_residuals):.3e}, "
            f"cov residual {self.cov_residual:.3e}, "
            f"second-moment sum {self.second_moment_sum!r})"
        )


def validate_row(row: ArrayRow) -> ValidationReport:
    """Check the standard-row properties of ``row``: the one rule.

    A pure function: failures are reported, never raised, and the row is
    left untouched.  The report lists per-cell residuals and passes only
    if every cell's probability sum and mean are within
    ``DEFAULT_MEAN_TOL`` and every entry of the covariance sum minus the
    identity is within ``DEFAULT_COV_TOL``.  ``ArrayRow`` runs it on
    construction, so calling it on a built row only re-inspects.
    """
    # each atom-sized temporary is dropped as soon as it has been used
    norm2 = row.squared_norms()
    norm2 *= row.probs
    second_moment_sum = float(np.sum(norm2))
    del norm2
    weighted = row.probs[:, None] * row.points
    means = row.per_cell_sum(weighted)  # (n, N), per-cell sum p*x
    del weighted
    prob_sums = row.per_cell_sum(row.probs)
    second_matrix = np.einsum("a,ai,aj->ij", row.probs, row.points, row.points)
    # cell covariance subtracts mu mu^T; cells with prob sum != 1 still get
    # the plain first-moment correction, which is what the residual reports.
    cov_sum = second_matrix - np.einsum("ki,kj->ij", means, means)
    cov_residual_matrix = cov_sum - np.eye(row.dimension)

    prob_residuals = np.abs(prob_sums - 1.0)
    mean_residuals = np.linalg.norm(means, axis=1)

    cell_ok = (prob_residuals <= DEFAULT_MEAN_TOL) & (mean_residuals <= DEFAULT_MEAN_TOL)
    passed = (bool(np.all(cell_ok))
              and float(np.max(np.abs(cov_residual_matrix))) <= DEFAULT_COV_TOL)
    return ValidationReport(
        n=row.n,
        dimension=row.dimension,
        prob_residuals=prob_residuals,
        mean_residuals=mean_residuals,
        cov_residual_matrix=cov_residual_matrix,
        second_moment_sum=second_moment_sum,
        passed=passed,
        failing_cells=tuple(int(k) for k in np.nonzero(~cell_ok)[0]),
    )


def build_rademacher_row(n: int) -> ArrayRow:
    """Row of n i.i.d. cells with atoms +-1/sqrt(n), probability 1/2 each."""
    if n < 1:
        raise ParameterError(f"row size must be >= 1, got {n}")
    scale = 1.0 / math.sqrt(n)
    points = np.tile([[-scale], [scale]], (n, 1))
    probs = np.full(2 * n, 0.5)
    offsets = 2 * np.arange(n + 1, dtype=np.int64)
    return ArrayRow(1, points, probs, offsets)


def _eta_params(alpha: float, n: int) -> tuple[float, int]:
    """(beta, correction start index) for the two-scale family's row n.

    Refuses alpha outside (0, 1) and n < 1.  Float dust in alpha/(1-alpha)
    can land just past an integer; the relative backoff keeps ceil() at the
    intended start, and the builder drops the correspondingly negligible
    atom probabilities.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise ParameterError(f"row size must be >= 1, got {n}")
    beta = alpha / (1.0 - alpha)
    k0 = max(1, math.ceil(beta - 1e-12 * max(1.0, beta)))
    return beta, k0


def eta_scale_squared(alpha: float, n: int, shifted_start: bool = False) -> float:
    """Normalisation s_n^2 of the two-scale family (see module docstring)."""
    beta, k0 = _eta_params(alpha, n)
    k = np.arange(1, n + 1, dtype=np.float64)
    if shifted_start:
        return float(n + beta * np.sum(1.0 - 1.0 / k[k >= k0]))
    return float((1.0 + beta) * n - beta * np.sum(1.0 / k))


def build_eta_row(alpha: float, n: int, *, allow_shifted_start: bool = False) -> ArrayRow:
    """Row n of the two-scale family with parameter alpha.

    Cell k has atoms +-1/s_n with probability (1 - beta/k)/2 each and
    +-sqrt(k)/s_n with probability beta/(2k) each, beta = alpha/(1-alpha).
    At k = 1 the two pairs coincide and are merged into +-1/s_n with
    probability 1/2; zero-probability atoms are dropped, and atoms are
    kept sorted ascending.

    For alpha > 1/2 (beta > 1) the stated probabilities go negative for
    k < beta, so such alphas are refused unless ``allow_shifted_start``
    is set; the shifted variant uses plain +-1/s_n cells for k < ceil(beta)
    and renormalises s_n^2 accordingly (``eta_scale_squared`` with
    ``shifted_start=True``).
    """
    beta, k0 = _eta_params(alpha, n)
    if beta > 1.0 and not allow_shifted_start:
        raise ConstructionError(
            f"alpha={alpha} gives beta={beta:.6g} > 1: probability (1 - beta/k)/2 "
            "is negative at k=1; pass allow_shifted_start=True to start the "
            "two-scale correction at k = ceil(beta) instead"
        )
    if beta <= 1.0:
        k0 = 1
    s = math.sqrt(eta_scale_squared(alpha, n, shifted_start=beta > 1.0))

    # every cell as atoms (-sqrt(k), -1, 1, sqrt(k))/s, then one keep mask
    # drops the massless ones: the sqrt(k) pair of the plain +-1/s coins
    # below the correction start (k = 1 included), and the +-1/s pair at
    # k == beta up to float dust
    k = np.arange(1, n + 1, dtype=np.float64)
    plain = k < max(k0, 2)
    p_small = 0.5 * (1.0 - beta / k)
    p_big = 0.5 * beta / k
    p_small[plain] = 0.5
    cell_points = np.stack(
        [-np.sqrt(k) / s, np.full_like(k, -1.0 / s), np.full_like(k, 1.0 / s), np.sqrt(k) / s],
        axis=1,
    )
    cell_probs = np.stack([p_big, p_small, p_small, p_big], axis=1)
    small_kept = p_small > 1e-11
    keep = np.stack([~plain, small_kept, small_kept, ~plain], axis=1)

    points = cell_points[keep][:, None]
    probs = cell_probs[keep]
    offsets = np.concatenate([[0], np.cumsum(2 * small_kept + 2 * ~plain)])
    del k, plain, p_small, p_big, cell_points, cell_probs, small_kept, keep
    return ArrayRow(1, points, probs, offsets)


def build_product_row(coordinate_rows) -> ArrayRow:
    """Coordinate-wise product of 1-D rows of equal size.

    Cell k of the result is the product distribution of the k-th cells of
    the factors: atom set is the Cartesian product, probabilities
    multiply in factor order.  Each cell's atoms are sorted
    lexicographically by coordinates, ties kept in Cartesian order (last
    factor fastest).  Refuses cells that would hold more than
    ``DEFAULT_ATOM_CAP`` atoms.
    """
    factors = list(coordinate_rows)
    if not factors:
        raise ParameterError("need at least one coordinate row")
    n = factors[0].n
    for idx, factor in enumerate(factors):
        if factor.dimension != 1:
            raise ShapeError(f"coordinate row {idx} has dimension {factor.dimension}, expected 1")
        if factor.n != n:
            raise ShapeError(f"coordinate row {idx} has n={factor.n}, expected {n}")

    dim = len(factors)
    sizes = [np.diff(factor.offsets) for factor in factors]
    counts = np.prod(sizes, axis=0, dtype=np.float64)  # a float product cannot wrap around
    over = np.flatnonzero(counts > DEFAULT_ATOM_CAP)
    if over.size:
        k = int(over[0])
        count = math.prod(int(size[k]) for size in sizes)
        raise CapacityError(f"product cell {k} would hold {count} atoms (cap {DEFAULT_ATOM_CAP})")
    counts = counts.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    cell_of = np.repeat(np.arange(n), counts)
    # each atom's place in its cell, split into one atom index per factor
    # in mixed radix, last factor fastest as meshgrid(indexing="ij") orders them
    rest = np.arange(offsets[-1]) - offsets[cell_of]
    atoms = [None] * dim
    for j in reversed(range(dim)):
        size = sizes[j][cell_of]
        atoms[j] = factors[j].offsets[cell_of] + rest % size
        rest //= size
    points = np.stack([f.points[a, 0] for f, a in zip(factors, atoms)], axis=1)
    probs = factors[0].probs[atoms[0]]
    for factor, a in zip(factors[1:], atoms[1:]):
        probs = probs * factor.probs[a]
    order = np.lexsort([*points.T[::-1], cell_of])  # by cell, then x_1, ..., x_N
    return ArrayRow(dim, points[order], probs[order], offsets)
