"""Exact transform-gap identity and the finite-n inequality chains.

The centrepiece is an exact identity for the gap between the Gaussian
transform and a row-sum transform: with phi_j the cell transforms,
m2_k(t) = E[<X_k, t>^2], and R(a) = (1 - e^{-ia})/(ia) - 1 the closed
form of int_0^1 (e^{-ira} - 1) dr,

  phi_Gauss(t) - phi_row(t)
    = 1/2 int_0^1 [ sum_k prod_{j!=k} phi_j(sqrt(s) t)
                      * E[<X_k,t>^2 R(sqrt(s) <t, X_k>)]
                  - sum_k prod_{j!=k} phi_j(sqrt(s) t)
                      * (phi_k(sqrt(s) t) - 1) * m2_k(t) ]
         e^{-(1-s)|t|^2/2} ds.

Both sides are computable essentially exactly for finitely supported
rows (the left side as a finite product, the right side with one smooth
s-quadrature), which makes the identity a sharp end-to-end test of the
whole Stein pipeline: its derivation uses the solution's Hessian
difference and nothing else.

From the identity, elementary truncation at a level eps > 0 gives the
finite-n master inequality

  |phi_Gauss(t) - phi_row(t)|
    <= 2 eps N + 2 (S_same + S_indep) (1 - e^{-|t|^2/2}),

with S_same / S_indep the directional truncated second-moment sums of
the indices module at threshold eps.  This holds for every row, every t
and every eps, with no tolerance; asymptotic versions (sup over t,
limsup over n) are estimated on finite grids with explicit truncation
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import charfn_gap, gaussian_charfn, row_sum_charfn
from .errors import CapacityError, ParameterError
from .indices import l_sum, lindeberg_index_estimate
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate_unit
from .rows import DEFAULT_ATOM_CAP, ArrayRow, _require_validated
from .util import as_vector, exclusive_products, lift_scalar

__all__ = [
    "IdentityReport",
    "BoundReport",
    "TBoundEntry",
    "AsymptoticReport",
    "identity_lhs",
    "identity_rhs",
    "decomposition_check",
    "truncation_bound_check",
    "master_bound",
    "master_bound_best",
    "theorem_bound_report",
    "lambda_f_estimate",
    "gap_table_with_lambda_f",
    "DEFAULT_BOUND_EPS_GRID",
    "SLACK_FLOOR",
]

IDENTITY_TOL = 1e-6
SLACK_FLOOR = 1e-3
DEFAULT_BOUND_EPS_GRID = (1.0, 0.5, 0.2, 0.1, 0.05)
# cap on (quadrature nodes x atoms) temporaries inside identity_rhs
_NODE_BUDGET = 4_000_000


def identity_lhs(row: ArrayRow, t) -> complex:
    """Exact left side: phi_Gauss(t) - phi_row(t)."""
    _require_validated(row, "identity_lhs")
    t = as_vector(t, row.dimension)
    return gaussian_charfn(t) - row_sum_charfn(row, t)


def _r_factor(a: np.ndarray) -> np.ndarray:
    """R(a) = (1 - e^{-ia})/(ia) - 1, with a series fallback near 0.

    The direct form loses relative accuracy below |a| ~ 1e-4 through
    cancellation, where the Taylor terms through a^4 are exact to well
    under double precision.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape, dtype=np.complex128)
    big = np.abs(a) >= 1e-4
    if np.any(big):
        ab = a[big]
        out[big] = (1.0 - np.exp(-1j * ab)) / (1j * ab) - 1.0
    if np.any(~big):
        w = -1j * a[~big]
        out[~big] = w * (1.0 / 2.0 + w * (1.0 / 6.0 + w * (1.0 / 24.0 + w / 120.0)))
    return out


def identity_rhs(
    row: ArrayRow, t, spec: QuadratureSpec = DEFAULT_QUADRATURE, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[complex, float]:
    """Right side of the identity, by one adaptive s-quadrature.

    The inner r-integral is the closed form R; the independent-copy term
    factorises exactly because the copy shares the cell laws.  Returns
    (value, estimated quadrature error).
    """
    _require_validated(row, "identity_rhs")
    t = as_vector(t, row.dimension)
    if int(np.max(np.diff(row.offsets))) > atom_cap:
        raise CapacityError(f"a cell exceeds the atom cap {atom_cap}")
    tt = float(t @ t)
    d = row.points @ t
    w = row.probs * d * d
    m2t = row.per_cell_sum(w)
    starts = row.starts
    probs = row.probs
    # the evaluation below builds (s-nodes x atoms) temporaries; chunk the
    # node axis so memory stays bounded for atom-heavy rows
    node_chunk = max(1, _NODE_BUDGET // max(1, row.total_atoms))

    def eval_nodes(u):
        arg = u[:, None] * d[None, :]
        phase = np.exp(-1j * arg)
        phis = np.add.reduceat(probs * phase, starts, axis=1)
        excl = exclusive_products(phis)
        same_term = np.add.reduceat(w * _r_factor(arg), starts, axis=1)
        term1 = np.sum(excl * same_term, axis=1)
        term2 = np.sum(excl * (phis - 1.0) * m2t[None, :], axis=1)
        return term1 - term2

    def integrand(s):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        u = np.sqrt(s)
        if u.size <= node_chunk:
            inner = eval_nodes(u)
        else:
            inner = np.concatenate(
                [eval_nodes(u[i:i + node_chunk]) for i in range(0, u.size, node_chunk)]
            )
        return inner * np.exp(-0.5 * (1.0 - s) * tt)

    value, err = integrate_unit(integrand, spec, return_error=True)
    return 0.5 * complex(value), 0.5 * err


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the gap identity at one (row, t)."""

    n: int
    t: np.ndarray
    lhs: complex
    rhs: complex
    residual: float
    quadrature_error: float
    passed: bool


def decomposition_check(
    row: ArrayRow, t, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> IdentityReport:
    """Exact lhs vs quadrature rhs; passes when the residual is within
    max(1e-6, 10 * quadrature error)."""
    lhs = identity_lhs(row, t)
    rhs, err = identity_rhs(row, t, spec)
    residual = abs(lhs - rhs)
    return IdentityReport(
        n=row.n,
        t=as_vector(t, row.dimension),
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        quadrature_error=err,
        passed=residual <= max(IDENTITY_TOL, 10.0 * err),
    )


def truncation_bound_check(
    row: ArrayRow, t, s: float, r: float, eps: float, copy: str
) -> tuple[float, float]:
    """(lhs, rhs) of the phase-increment truncation bound; lhs <= rhs always.

    lhs (copy="same"):        sum_k E[ |e^{-i sqrt(s) r <t, X_k>} - 1| |X_k|^2 ]
    lhs (copy="independent"): sum_k E[ |e^{-i sqrt(s) <t, X0_k>} - 1| ] E[ |X_k|^2 ]
    rhs: eps * N + 2 * (directional sum at threshold eps for that copy mode).

    The small-phase part is controlled by |e^{i theta} - 1| <= |theta|
    <= eps on the complementary event, the rest by the crude bound 2.
    """
    _require_validated(row, "truncation_bound_check")
    t = as_vector(t, row.dimension)
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not 0.0 <= s <= 1.0 or not 0.0 <= r <= 1.0:
        raise ParameterError("s and r must lie in [0, 1]")
    d = row.points @ t
    norm2 = row.squared_norms()
    if copy == "same":
        factor = np.abs(np.exp(-1j * np.sqrt(s) * r * d) - 1.0)
        lhs = float(np.sum(row.probs * factor * norm2))
    elif copy == "independent":
        factor = np.abs(np.exp(-1j * np.sqrt(s) * d) - 1.0)
        per_cell_factor = row.per_cell_sum(row.probs * factor)
        per_cell_second = row.per_cell_sum(row.probs * norm2)
        lhs = float(per_cell_factor @ per_cell_second)
    else:
        raise ParameterError(f"copy must be 'same' or 'independent', got {copy!r}")
    rhs = eps * row.dimension + 2.0 * l_sum(row, copy, t, eps)
    return lhs, rhs


@dataclass(frozen=True)
class BoundReport:
    """All terms of one master-inequality instance.

    rhs = term_eps + 2 (term_same + term_indep) * envelope, with
    term_eps = 2 eps N and envelope = 1 - e^{-|t|^2/2}; slack =
    rhs - lhs_gap must be nonnegative for every row, t and eps.
    """

    n: int
    dimension: int
    t: np.ndarray
    eps: float
    lhs_gap: float
    term_eps: float
    term_same: float
    term_indep: float
    envelope: float
    rhs: float
    slack: float
    passed: bool


def master_bound(row: ArrayRow, t, eps: float) -> BoundReport:
    """Evaluate every term of the master inequality exactly."""
    _require_validated(row, "master_bound")
    t = as_vector(t, row.dimension)
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    lhs_gap = charfn_gap(row, t)
    term_eps = 2.0 * eps * row.dimension
    term_same = l_sum(row, "same", t, eps)
    term_indep = l_sum(row, "independent", t, eps)
    envelope = 1.0 - gaussian_charfn(t)
    rhs = term_eps + 2.0 * (term_same + term_indep) * envelope
    slack = rhs - lhs_gap
    return BoundReport(
        n=row.n,
        dimension=row.dimension,
        t=t,
        eps=eps,
        lhs_gap=lhs_gap,
        term_eps=term_eps,
        term_same=term_same,
        term_indep=term_indep,
        envelope=envelope,
        rhs=rhs,
        slack=slack,
        passed=slack >= 0.0,
    )


def master_bound_best(row: ArrayRow, t, eps_grid=DEFAULT_BOUND_EPS_GRID) -> BoundReport:
    """Master bound at the eps from the grid that minimises the rhs."""
    reports = [master_bound(row, t, eps) for eps in eps_grid]
    return min(reports, key=lambda rep: rep.rhs)


@dataclass(frozen=True)
class TBoundEntry:
    """Asymptotic-bound check at one t."""

    t: np.ndarray
    gap_tail_max: float
    theorem_rhs: float
    theorem_slack: float
    theorem_ok: bool
    corollary_slack: float
    corollary_ok: bool


@dataclass(frozen=True)
class AsymptoticReport:
    """Finite-grid estimates of the asymptotic bounds, with metadata.

    All limsups are max over the trailing ``tail_window`` entries of the
    n-grid and all sups are maxima over the stated grids, so every
    number carries finite-truncation error that the grids themselves
    document.  Entries whose slack is below -slack_floor are listed in
    ``flagged``; small negative slack is expected truncation noise on an
    asymptotic statement, large negative slack indicates a bug.
    """

    family_label: str
    dimension: int
    t_grid: tuple
    n_grid: tuple[int, ...]
    eps_grid: tuple[float, ...]
    tail_window: int
    slack_floor: float
    gap_table: np.ndarray
    l_same_estimate: float
    l_indep_estimate: float
    lindeberg_estimate: float
    corollary_rhs: float
    entries: tuple[TBoundEntry, ...]
    lambda_f: float
    flagged: tuple[int, ...]


def _vector_grid(t_grid, dim: int, direction=None) -> list[np.ndarray]:
    vectors = []
    for entry in t_grid:
        if np.ndim(entry) == 0:
            vectors.append(lift_scalar(float(entry), dim, direction))
        else:
            vectors.append(as_vector(entry, dim))
    return vectors


def gap_table_with_lambda_f(
    family, t_grid, n_grid, tail_window: int = 3, direction=None
) -> tuple[np.ndarray, float]:
    """Transform gaps on the (t, n) grid and the lambda_f estimate from them.

    The table has one row per t-grid entry and one column per n-grid
    entry.  lambda_f is the max of the trailing ``tail_window`` columns,
    clamped to [0, 2]: a finite-grid truncation of sup_t limsup_n of the
    gap.  Enlarging either grid can only reveal a larger value, so treat
    the number as a lower estimate.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or not len(t_grid):
        raise ParameterError("grids must be non-empty")
    vectors = _vector_grid(t_grid, family.dimension, direction)
    window = min(max(1, tail_window), len(n_grid))
    table = np.empty((len(vectors), len(n_grid)))
    for j, n in enumerate(n_grid):
        row = family.row(n)
        for i, t in enumerate(vectors):
            table[i, j] = charfn_gap(row, t)
    lambda_f = float(min(max(np.max(table[:, -window:]), 0.0), 2.0))
    return table, lambda_f


def lambda_f_estimate(family, t_grid, n_grid, tail_window: int = 3, direction=None) -> float:
    """The lambda_f of ``gap_table_with_lambda_f``, building only the tail rows."""
    tail = tuple(n_grid)[-max(1, tail_window):]
    return gap_table_with_lambda_f(family, t_grid, tail, tail_window, direction)[1]


def theorem_bound_report(
    family,
    t_grid,
    n_grid,
    eps_grid=DEFAULT_BOUND_EPS_GRID,
    tail_window: int = 3,
    direction=None,
    slack_floor: float = SLACK_FLOOR,
) -> AsymptoticReport:
    """Check the asymptotic gap bounds for a family on finite grids.

    Per t, the gap tail-max is compared against
    2 (1 - e^{-|t|^2/2}) (L_same + L_indep), where the directional-sum
    estimates take a sup over the t- and eps-grids jointly (scaling t by
    1/eps sweeps thresholds, so the eps-grid enriches the effective
    t-grid); the uniform bound 2 * (Lindeberg index estimate) is checked
    alongside.  Violations beyond ``slack_floor`` are flagged.
    """
    n_grid = tuple(int(n) for n in n_grid)
    eps_grid = tuple(float(e) for e in eps_grid)
    if not n_grid or not len(t_grid) or not eps_grid:
        raise ParameterError("grids must be non-empty")
    vectors = _vector_grid(t_grid, family.dimension, direction)
    window = min(max(1, tail_window), len(n_grid))

    gap_table, lambda_f = gap_table_with_lambda_f(family, vectors, n_grid, tail_window)

    tail_rows = [family.row(n) for n in n_grid[-window:]]
    l_same = 0.0
    l_indep = 0.0
    for t in vectors:
        for eps in eps_grid:
            for row in tail_rows:
                l_same = max(l_same, l_sum(row, "same", t, eps))
                l_indep = max(l_indep, l_sum(row, "independent", t, eps))

    lin = lindeberg_index_estimate(family, eps_grid, n_grid, tail_window).value
    corollary_rhs = 2.0 * lin

    entries = []
    flagged = []
    for i, t in enumerate(vectors):
        gap_tail = float(np.max(gap_table[i, -window:]))
        envelope = 1.0 - gaussian_charfn(t)
        theorem_rhs = 2.0 * envelope * (l_same + l_indep)
        theorem_slack = theorem_rhs - gap_tail
        corollary_slack = corollary_rhs - gap_tail
        entry = TBoundEntry(
            t=t,
            gap_tail_max=gap_tail,
            theorem_rhs=theorem_rhs,
            theorem_slack=theorem_slack,
            theorem_ok=theorem_slack >= -slack_floor,
            corollary_slack=corollary_slack,
            corollary_ok=corollary_slack >= -slack_floor,
        )
        entries.append(entry)
        if not entry.theorem_ok:
            flagged.append(i)

    return AsymptoticReport(
        family_label=family.label,
        dimension=family.dimension,
        t_grid=tuple(vectors),
        n_grid=n_grid,
        eps_grid=eps_grid,
        tail_window=tail_window,
        slack_floor=slack_floor,
        gap_table=gap_table,
        l_same_estimate=l_same,
        l_indep_estimate=l_indep,
        lindeberg_estimate=lin,
        corollary_rhs=corollary_rhs,
        entries=tuple(entries),
        lambda_f=lambda_f,
        flagged=tuple(flagged),
    )
