"""Triangular-array rows of finitely supported, mean-zero random vectors.

A *standard* row of size n consists of n independent cells; each cell is
a finitely supported distribution on R^N with mean zero, and the cell
covariances add up to the identity, so the row sum has unit covariance.
Every ``ArrayRow`` is standard by construction: building one runs
``validate_row`` once and raises RowValidationError if the row fails,
so no function taking a row has to check it again.

Rows keep their atoms in flat concatenated arrays (``points``, ``probs``
plus ``offsets`` marking cell boundaries) so that row-level reductions
stay vectorised even at n = 10^5; ``cell(k)`` returns a lightweight view.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConstructionError,
    ParameterError,
    RowValidationError,
    ShapeError,
)

__all__ = [
    "DiscreteCell",
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


@dataclass
class DiscreteCell:
    """One finitely supported distribution on R^N.

    ``points`` has shape (m, N) and ``probs`` shape (m,); probabilities
    must be in (0, 1].  Whether they sum to one and the mean vanishes is
    checked when cells are assembled into an ``ArrayRow``, whose
    validation report names the failing cells.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        self.probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if self.points.shape[0] != self.probs.shape[0]:
            raise ShapeError("points and probs must have one entry per atom")
        if self.points.shape[0] == 0:
            raise ParameterError("a cell needs at least one atom")
        if not np.all(np.isfinite(self.points)):
            raise ParameterError("atom coordinates must be finite")
        if np.any(self.probs <= 0.0) or np.any(self.probs > 1.0):
            raise ParameterError("atom probabilities must lie in (0, 1]")

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def atom_count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ArrayRow:
    """Standard row of independent cells, stored as flat concatenated atoms.

    ``offsets`` has length n+1; cell k occupies
    ``points[offsets[k]:offsets[k+1]]``.  Construction rejects atom
    probabilities outside (0, 1] with ParameterError, then validates the
    row with the default tolerances and raises RowValidationError
    (carrying the ValidationReport) if it is not standard.  Atom data is
    read-only after construction (writing into ``points``, ``probs``,
    ``offsets`` or ``squared_norms()`` raises ValueError, rebinding a
    field raises ``dataclasses.FrozenInstanceError``), since families
    hand out one shared cached row.
    """

    dimension: int
    points: np.ndarray  # (total_atoms, N)
    probs: np.ndarray  # (total_atoms,)
    offsets: np.ndarray  # (n + 1,), int64
    meta: dict = field(default_factory=dict)
    _norm2: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
        if np.any(self.probs <= 0.0) or np.any(self.probs > 1.0):
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
    def starts(self) -> np.ndarray:
        return self.offsets[:-1]

    @property
    def total_atoms(self) -> int:
        return self.points.shape[0]

    def cell(self, k: int) -> DiscreteCell:
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return DiscreteCell(self.points[lo:hi], self.probs[lo:hi])

    def cells(self):
        for k in range(self.n):
            yield self.cell(k)

    def per_cell_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of a per-atom array (vectorised reduceat)."""
        return np.add.reduceat(values, self.starts, axis=0)

    def squared_norms(self) -> np.ndarray:
        """|x|^2 per atom, cached (rows are immutable after construction)."""
        if self._norm2 is None:
            norm2 = np.sum(self.points**2, axis=1)
            norm2.setflags(write=False)
            object.__setattr__(self, "_norm2", norm2)
        return self._norm2

    @classmethod
    def from_cells(cls, cells, meta: dict | None = None) -> "ArrayRow":
        cells = list(cells)
        if not cells:
            raise ParameterError("a row needs at least one cell")
        dim = cells[0].dimension
        if any(c.dimension != dim for c in cells):
            raise ShapeError("all cells in a row must share one dimension")
        offsets = np.concatenate([[0], np.cumsum([c.atom_count for c in cells])])
        return cls(
            dimension=dim,
            points=np.concatenate([c.points for c in cells], axis=0),
            probs=np.concatenate([c.probs for c in cells]),
            offsets=offsets,
            meta=meta or {},
        )


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
    tol_mean: float
    tol_cov: float
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


def validate_row(
    row: ArrayRow, tol_mean: float = DEFAULT_MEAN_TOL, tol_cov: float = DEFAULT_COV_TOL
) -> ValidationReport:
    """Check the standard-row properties of ``row`` against the tolerances.

    A pure function: failures are reported, never raised, and the row is
    left untouched.  The report lists per-cell residuals and passes only
    if probabilities, means and the covariance sum are all within
    tolerance.  ``ArrayRow`` runs it with the default tolerances on
    construction; stricter or looser calls only inspect.
    """
    starts = row.starts
    prob_sums = np.add.reduceat(row.probs, starts)
    weighted = row.probs[:, None] * row.points
    means = np.add.reduceat(weighted, starts, axis=0)  # (n, N), per-cell sum p*x
    second_matrix = np.einsum("a,ai,aj->ij", row.probs, row.points, row.points)
    # cell covariance subtracts mu mu^T; cells with prob sum != 1 still get
    # the plain first-moment correction, which is what the residual reports.
    cov_sum = second_matrix - np.einsum("ki,kj->ij", means, means)
    cov_residual_matrix = cov_sum - np.eye(row.dimension)

    prob_residuals = np.abs(prob_sums - 1.0)
    mean_residuals = np.linalg.norm(means, axis=1)
    second_moment_sum = float(np.sum(row.probs * np.sum(row.points**2, axis=1)))

    cell_ok = (prob_residuals <= tol_mean) & (mean_residuals <= tol_mean)
    passed = bool(np.all(cell_ok)) and float(np.max(np.abs(cov_residual_matrix))) <= tol_cov
    return ValidationReport(
        n=row.n,
        dimension=row.dimension,
        prob_residuals=prob_residuals,
        mean_residuals=mean_residuals,
        cov_residual_matrix=cov_residual_matrix,
        second_moment_sum=second_moment_sum,
        tol_mean=tol_mean,
        tol_cov=tol_cov,
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
    return ArrayRow(1, points, probs, offsets, meta={"family": "rademacher_iid", "n": n})


def _eta_params(alpha: float) -> tuple[float, int]:
    """(beta, correction start index) for the two-scale family.

    Float dust in alpha/(1-alpha) can land just past an integer; the
    relative backoff keeps ceil() at the intended start, and the builder
    drops the correspondingly negligible atom probabilities.
    """
    beta = alpha / (1.0 - alpha)
    k0 = max(1, math.ceil(beta - 1e-12 * max(1.0, beta)))
    return beta, k0


def eta_scale_squared(alpha: float, n: int, shifted_start: bool = False) -> float:
    """Normalisation s_n^2 of the two-scale family (see module docstring)."""
    beta, k0 = _eta_params(alpha)
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
    and renormalises s_n^2 accordingly (recorded in ``row.meta``).
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise ParameterError(f"row size must be >= 1, got {n}")
    beta, k0 = _eta_params(alpha)
    if beta > 1.0 and not allow_shifted_start:
        raise ConstructionError(
            f"alpha={alpha} gives beta={beta:.6g} > 1: probability (1 - beta/k)/2 "
            "is negative at k=1; pass allow_shifted_start=True to start the "
            "two-scale correction at k = ceil(beta) instead"
        )
    if beta <= 1.0:
        k0 = 1
    s2 = eta_scale_squared(alpha, n, shifted_start=beta > 1.0)
    s = math.sqrt(s2)

    pieces_pts: list[np.ndarray] = []
    pieces_probs: list[np.ndarray] = []
    counts: list[np.ndarray] = []

    # Cells below the correction start (k = 1 merged cell included) are
    # plain +-1/s coins.
    plain = min(max(k0, 2) - 1, n)  # number of leading two-atom cells
    if plain > 0:
        pieces_pts.append(np.tile([[-1.0 / s], [1.0 / s]], (plain, 1)))
        pieces_probs.append(np.full(2 * plain, 0.5))
        counts.append(np.full(plain, 2, dtype=np.int64))

    k = np.arange(max(k0, 2), n + 1, dtype=np.float64)
    if k.size:
        p_small = 0.5 * (1.0 - beta / k)
        p_big = 0.5 * beta / k
        if np.any(p_small < -1e-11):
            bad = int(k[np.argmax(p_small < -1e-11)])
            raise ConstructionError(f"negative atom probability at k={bad}")
        # k == beta up to float dust: the +-1/s pair carries no mass
        degenerate = p_small <= 1e-11
        four_pts = np.stack(
            [-np.sqrt(k) / s, np.full_like(k, -1.0 / s), np.full_like(k, 1.0 / s), np.sqrt(k) / s],
            axis=1,
        )
        four_probs = np.stack([p_big, p_small, p_small, p_big], axis=1)
        if np.any(degenerate):
            keep = np.repeat(~degenerate, 4)
            keep[0::4] = True
            keep[3::4] = True
            pieces_pts.append(four_pts.ravel()[keep.ravel()][:, None])
            pieces_probs.append(four_probs.ravel()[keep.ravel()])
            counts.append(np.where(degenerate, 2, 4).astype(np.int64))
        else:
            pieces_pts.append(four_pts.reshape(-1, 1))
            pieces_probs.append(four_probs.ravel())
            counts.append(np.full(k.size, 4, dtype=np.int64))

    points = np.concatenate(pieces_pts, axis=0)
    probs = np.concatenate(pieces_probs)
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    meta = {"family": "eta_alpha", "alpha": alpha, "n": n, "scale_squared": s2}
    if beta > 1.0:
        meta["shifted_start"] = k0
    return ArrayRow(1, points, probs, offsets, meta=meta)


def build_product_row(coordinate_rows, atom_cap: int = DEFAULT_ATOM_CAP) -> ArrayRow:
    """Coordinate-wise product of 1-D rows of equal size.

    Cell k of the result is the product distribution of the k-th cells of
    the factors: atom set is the Cartesian product, probabilities
    multiply.  Refuses cells whose atom count would exceed ``atom_cap``.
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
    cells = []
    for k in range(n):
        parts = [f.cell(k) for f in factors]
        count = math.prod(p.atom_count for p in parts)
        if count > atom_cap:
            raise CapacityError(
                f"product cell {k} would hold {count} atoms (cap {atom_cap})"
            )
        grids = np.meshgrid(*[p.points[:, 0] for p in parts], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        pr = parts[0].probs
        for p in parts[1:]:
            pr = np.multiply.outer(pr, p.probs)
        pr = pr.ravel()
        order = np.lexsort(pts.T[::-1])  # lexicographic by coordinates
        cells.append(DiscreteCell(pts[order], pr[order]))
    return ArrayRow.from_cells(cells, meta={"family": "product", "n": n, "dimension": dim})
