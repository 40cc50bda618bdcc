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
metadata, t as an (m, N) batch and the n grid and tail window checked
by the indices module's ``_tail_window`` rule before any row is built.
Every eps here passes the indices module's one eps rule, ``_eps_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import _as_batch, _cell_transforms, _phase_pass, charfn_gap, gaussian_charfn
from .charfn import row_sum_charfn
from .errors import ParameterError, ShapeError
from .indices import DEFAULT_TAIL_WINDOW, _copy_weights, _directional_sums, _eps_grid, _tail_window
from .indices import l_sum, lindeberg_index_estimate
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate_unit
from .rows import ArrayRow
from .util import _fan_out, as_vector, exclusive_products

__all__ = [
    "IdentityReport",
    "BoundReport",
    "AsymptoticReport",
    "identity_lhs",
    "identity_rhs",
    "decomposition_check",
    "truncation_bound_check",
    "master_bound",
    "theorem_bound_report",
    "gap_table_with_lambda_f",
    "DEFAULT_BOUND_EPS_GRID",
    "SLACK_FLOOR",
]

IDENTITY_TOL = 1e-6
SLACK_FLOOR = 1e-3
DEFAULT_BOUND_EPS_GRID = (1.0, 0.5, 0.2, 0.1, 0.05)


def identity_lhs(row: ArrayRow, t) -> complex:
    """Exact left side: phi_Gauss(t) - phi_row(t)."""
    t = as_vector(t, row.dimension)
    return gaussian_charfn(t) - row_sum_charfn(row, t)


def _r_factor(a: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """R(a) = (1 - e^{-ia})/(ia) - 1 = sin a/a - 1 - i (1 - cos a)/a.

    Taken from the cos a and sin a of the phase pass; below |a| < 1e-4,
    where 1 - cos a loses relative accuracy through cancellation, the
    Taylor terms through a^4 are used instead (exact to well under double
    precision there).
    """
    small = np.abs(a) < 1e-4
    inv = 1.0 / np.where(small, 1.0, a)
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = sin * inv - 1.0
    out.imag = (cos - 1.0) * inv
    if np.any(small):
        # real temporaries: at the first u-nodes of identity_rhs most atoms
        # of a large row take this branch
        b = a[small]
        b2 = b * b
        out.real[small] = b2 * (b2 / 120.0 - 1.0 / 6.0)
        out.imag[small] = b * (b2 / 24.0 - 0.5)
    return out


def identity_rhs(
    row: ArrayRow, t, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[complex, float]:
    """Right side of the identity, by one adaptive s-quadrature.

    The inner r-integral is the closed form R; the independent-copy term
    factorises exactly because the copy shares the cell laws.  The
    s-nodes are the batch sqrt(s) t of the charfn phase pass, which also
    bounds the memory of atom-heavy rows.  Returns (value, estimated
    quadrature error).
    """
    t = as_vector(t, row.dimension)
    tt = float(t @ t)
    d = row.points @ t
    w = row.probs * d * d
    m2t = row.per_cell_sum(w)

    def eval_nodes(a, cos, sin):
        phis = _cell_transforms(row, cos, sin)
        excl = exclusive_products(phis)
        same_term = np.add.reduceat(w * _r_factor(a, cos, sin), row.starts, axis=1)
        term1 = np.sum(excl * same_term, axis=1)
        term2 = np.sum(excl * (phis - 1.0) * m2t, axis=1)
        return term1 - term2

    def integrand(s):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        inner = _phase_pass(row, np.sqrt(s)[:, None] * t, eval_nodes)
        return inner * np.exp(-0.5 * (1.0 - s) * tt)

    value, err = integrate_unit(integrand, spec, return_error=True)
    return 0.5 * complex(value), 0.5 * err


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the gap identity, one entry per t.

    Each array has the t-batch axis first; a single t drops it.  An
    entry passes when its residual |lhs - rhs| is within max(1e-6,
    10 * quadrature error).
    """

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    quadrature_error: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.residual <= np.maximum(IDENTITY_TOL, 10.0 * self.quadrature_error)


def decomposition_check(
    row: ArrayRow, t, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> IdentityReport:
    """Exact lhs vs quadrature rhs, per t of a single t or an (m, N) batch.

    Every entry is its own single-t ``identity_lhs`` and ``identity_rhs``
    call (one rhs quadrature per t, so a hard t refines only its own
    entry); a batch runs them on up to one thread per core.
    """
    batch, is_batch = _as_batch(t, row.dimension)

    def check(v):
        lhs = identity_lhs(row, v)
        rhs, err = identity_rhs(row, v, spec)
        # the builtin abs of a complex: np.abs may round |z| otherwise
        return lhs, rhs, abs(lhs - rhs), err

    entries = _fan_out(check, batch)
    # complex columns hold the float ones exactly
    lhs, rhs, residual, err = np.array(entries, dtype=np.complex128).reshape(-1, 4).T
    pick = slice(None) if is_batch else 0
    return IdentityReport(lhs[pick], rhs[pick], residual.real[pick], err.real[pick])


def truncation_bound_check(
    row: ArrayRow, t, s: float, r: float, eps: float, copy: str
) -> tuple[float, float]:
    """(lhs, rhs) of the phase-increment truncation bound; lhs <= rhs always.

    lhs: sum_a w_a |e^{-i sqrt(s) r <t, x_a>} - 1|, w_a = p_a |x_a|^2 ("same") or
         p_a E|X_k|^2 ("independent", atom a in cell k; at r = 1 this is the
         identity's sum_k E[ |e^{-i sqrt(s) <t, X0_k>} - 1| ] E[ |X_k|^2 ]).
    rhs: eps * N + 2 * (directional sum at threshold eps for that copy mode).

    The small-phase part is controlled by |e^{i theta} - 1| <= |theta|
    <= eps on the complementary event, the rest by the crude bound 2.
    """
    t = as_vector(t, row.dimension)
    eps = float(_eps_grid(eps, scalar=True))
    if not 0.0 <= s <= 1.0 or not 0.0 <= r <= 1.0:
        raise ParameterError("s and r must lie in [0, 1]")
    factor = np.abs(np.exp(-1j * np.sqrt(s) * r * (row.points @ t)) - 1.0)
    lhs = float(np.sum(_copy_weights(row, copy) * factor))
    rhs = eps * row.dimension + 2.0 * l_sum(row, copy, t, eps)
    return lhs, rhs


@dataclass(frozen=True)
class BoundReport:
    """Every term of the master inequality on a (t, eps) table.

    Each array has the t-batch axis first and the eps axis second; a
    single t drops the first and a scalar eps the second.  rhs = term_eps
    + 2 (term_same + term_indep) * envelope, with term_eps = 2 eps N and
    envelope = 1 - e^{-|t|^2/2}; slack = rhs - lhs_gap must be
    nonnegative for every row, t and eps.  The rhs-minimising eps of
    each t is at ``np.argmin(report.rhs, axis=-1)``.
    """

    dimension: int
    eps: np.ndarray
    lhs_gap: np.ndarray
    term_same: np.ndarray
    term_indep: np.ndarray
    envelope: np.ndarray

    @property
    def term_eps(self) -> np.ndarray:
        return 2.0 * self.eps * self.dimension

    @property
    def rhs(self) -> np.ndarray:
        return self.term_eps + 2.0 * (self.term_same + self.term_indep) * self.envelope

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs_gap

    @property
    def passed(self) -> np.ndarray:
        return self.slack >= 0.0


def master_bound(row: ArrayRow, t, eps) -> BoundReport:
    """Evaluate every term of the master inequality exactly, per (t, eps).

    t is a single vector (a 1-D row also takes a scalar) or an (m, N)
    batch, as for ``charfn_gap``; eps is a scalar or a 1-D grid.  Both
    tail sums of every (t, eps) come from one directional pass over the
    atoms per t, and every entry equals the single (t, eps) call.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    grid = _eps_grid(eps)
    term_same, term_indep = _directional_sums(row, batch, grid)
    # single-t calls, so every entry equals the single-t report: a batched phase
    # pass may round <t, x> otherwise in dimensions 2-3
    gap = np.array([charfn_gap(row, v) for v in batch])
    envelope = 1.0 - np.array([gaussian_charfn(v) for v in batch])

    pick = (slice(None) if is_batch else 0, slice(None) if grid.ndim else 0)

    def table(values):
        return np.broadcast_to(values, term_same.shape)[pick]

    return BoundReport(row.dimension, eps=table(grid), lhs_gap=table(gap[:, None]),
                       term_same=table(term_same), term_indep=table(term_indep),
                       envelope=table(envelope[:, None]))


@dataclass(frozen=True)
class AsymptoticReport:
    """Finite-grid estimates of the asymptotic bounds, with metadata.

    All limsups are max over the trailing ``tail_window`` entries of the
    n-grid and all sups are maxima over the stated grids, so every
    number carries finite-truncation error that the grids themselves
    document.  ``gap_tail_max``, ``theorem_rhs``, ``theorem_slack`` and
    ``corollary_slack`` hold one entry per t, in t-batch row order.  A
    check is ok when its slack is at least -``SLACK_FLOOR``, and
    ``flagged`` lists the t rows whose theorem check is not; small
    negative slack is expected truncation noise on an asymptotic
    statement, large negative slack indicates a bug.
    """

    family_label: str
    tail_window: int
    gap_table: np.ndarray
    l_same_estimate: float
    l_indep_estimate: float
    lindeberg_estimate: float
    corollary_rhs: float
    lambda_f: float
    gap_tail_max: np.ndarray
    theorem_rhs: np.ndarray
    theorem_slack: np.ndarray
    corollary_slack: np.ndarray

    @property
    def theorem_ok(self) -> np.ndarray:
        return self.theorem_slack >= -SLACK_FLOOR

    @property
    def corollary_ok(self) -> np.ndarray:
        return self.corollary_slack >= -SLACK_FLOOR

    @property
    def flagged(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.theorem_ok).tolist())


def _t_grid(t_grid, dim: int) -> np.ndarray:
    """The t grid as a non-empty (m, N) batch; a 1-D family also takes plain scalars."""
    if dim == 1 and np.ndim(t_grid) < 2:
        t_grid = np.reshape(t_grid, (-1, 1))
    batch, is_batch = _as_batch(t_grid, dim)
    if not is_batch:
        raise ShapeError(f"t grid must be an (m, {dim}) batch of vectors")
    if not batch.shape[0]:
        raise ParameterError("t grid must be non-empty")
    return batch


def gap_table_with_lambda_f(
    family, t_grid, n_grid, tail_window: int = DEFAULT_TAIL_WINDOW
) -> tuple[np.ndarray, float]:
    """Transform gaps on the (t, n) grid and the lambda_f estimate from them.

    The table has one row per t (an (m, N) batch) and one column per
    n-grid entry.  lambda_f is the max of the trailing ``tail_window``
    columns, clamped to [0, 2]: a finite-grid truncation of sup_t
    limsup_n of the gap.  Enlarging either grid can only reveal a larger
    value, so treat the number as a lower estimate.
    """
    n_grid, window = _tail_window(n_grid, tail_window)
    batch = _t_grid(t_grid, family.dimension)
    table = np.stack([charfn_gap(family.row(n), batch) for n in n_grid], axis=1)
    lambda_f = float(min(max(np.max(table[:, -window:]), 0.0), 2.0))
    return table, lambda_f


def theorem_bound_report(
    family,
    t_grid,
    n_grid,
    eps_grid=DEFAULT_BOUND_EPS_GRID,
    tail_window: int = DEFAULT_TAIL_WINDOW,
) -> AsymptoticReport:
    """Check the asymptotic gap bounds for a family on finite grids.

    For every t of the (m, N) batch at once, the gap tail-max is
    compared against 2 (1 - e^{-|t|^2/2}) (L_same + L_indep), where the
    directional-sum estimates take a sup over the t- and eps-grids
    jointly (scaling t by 1/eps sweeps thresholds, so the eps-grid
    enriches the effective t-grid); the uniform bound
    2 * (Lindeberg index estimate) is checked alongside.  The n grid,
    tail window, t grid and eps grid are all checked before any row is
    built.  Violations beyond ``SLACK_FLOOR`` are flagged.
    """
    n_grid, window = _tail_window(n_grid, tail_window)
    batch = _t_grid(t_grid, family.dimension)
    eps_grid = np.atleast_1d(_eps_grid(eps_grid))

    gap_table, lambda_f = gap_table_with_lambda_f(family, batch, n_grid, tail_window)

    # both copies' l_sum over (tail row, t, eps), each maximised
    tables = [_directional_sums(family.row(n), batch, eps_grid) for n in n_grid[-window:]]
    l_same = float(max(np.max(same) for same, _ in tables))
    l_indep = float(max(np.max(indep) for _, indep in tables))

    lin = lindeberg_index_estimate(family, eps_grid, n_grid, tail_window).value
    corollary_rhs = 2.0 * lin

    gap_tail = np.max(gap_table[:, -window:], axis=1)
    # gaussian_charfn's own t @ t per row, so the envelope matches it bit for bit
    envelope = 1.0 - np.array([gaussian_charfn(t) for t in batch])
    theorem_rhs = 2.0 * envelope * (l_same + l_indep)
    return AsymptoticReport(
        family_label=family.label,
        tail_window=tail_window,
        gap_table=gap_table,
        l_same_estimate=l_same,
        l_indep_estimate=l_indep,
        lindeberg_estimate=lin,
        corollary_rhs=corollary_rhs,
        lambda_f=lambda_f,
        gap_tail_max=gap_tail,
        theorem_rhs=theorem_rhs,
        theorem_slack=theorem_rhs - gap_tail,
        corollary_slack=corollary_rhs - gap_tail,
    )
