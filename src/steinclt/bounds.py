"""Exact transform-gap identity and the finite-n inequality chains.

The centrepiece is an exact identity for the gap between the Gaussian
transform and a row-sum transform.  With u = sqrt(s), phi_k the cell
transforms, psi_k(v) = E[<X_k, t> e^{-i <v, X_k>}], mu_k(t) = E[<X_k, t>],
m2_k(t) = E[<X_k, t>^2] and tau = sum_k m2_k(t),

  phi_Gauss(t) - phi_row(t)
    = e^{-|t|^2/2} - e^{-tau/2}
      + 1/2 int_0^1 sum_k prod_{j!=k} phi_j(u t)
         * [ i (psi_k(u t) - mu_k(t)) / u - phi_k(u t) m2_k(t) ]
         e^{-(1-s) tau/2} ds.

The integrand I(s) is exactly -2 g'(s) along the Gaussian interpolation
path g(s) = phi_row(sqrt(s) t) e^{-(1-s) tau/2}, which runs from
g(0) = e^{-tau/2} to g(1) = phi_row(t): d/ds phi_k(u t) =
-i psi_k(u t) / (2u), and a standard row has mu_k = 0.  So the
integral is the fundamental theorem of calculus along that path, with
no assumption on tau.  A standard row has tau = |t|^2 up to the
covariance rounding that validation accepts, and the first term, added
exactly, carries that difference.  The Stein form splits the bracket into
the same-copy term E[<X_k,t>^2 R(u <t, X_k>)] = i (psi_k - mu_k)/u - m2_k,
with R(a) = (1 - e^{-ia})/(ia) - 1 = int_0^1 (e^{-ira} - 1) dr, and the
independent-copy term (phi_k - 1) m2_k.  mu_k is computed, not taken as
0.  psi_k - mu_k is a difference of terms of size E|<X_k, t>|, so its
rounding, divided by u, grows like eps_machine / u near s = 0; the
quadrature integrates 2u I(u^2) in u, whose weight cancels it, and a
rounding bound for the identity must count this term.

Both sides are computable essentially exactly for finitely supported
rows (the left side as a finite product, the right side with one smooth
s-quadrature), which makes the identity a sharp end-to-end test of the
whole Stein pipeline: its derivation uses the solution's Hessian
difference and nothing else.  Along a ray t = r e the integrand of every
t is the longest t's times its own Gaussian factor, taken up to its own
upper limit in s, so ``decomposition_check`` integrates each ray of a
batch in one quadrature whose kernel nodes all its t share.

From the identity, elementary truncation at a level eps > 0 gives the
finite-n master inequality

  |phi_Gauss(t) - phi_row(t)|
    <= 2 eps N + 2 (S_same + S_indep) (1 - e^{-|t|^2/2}),

with S_same / S_indep the directional truncated second-moment sums of
the indices module at threshold eps.  This holds for every row, every t
and every eps, with no tolerance, and so at its exact infimum over eps
(``master_bound_infimum``); asymptotic versions (sup over t,
limsup over n) are estimated on finite grids with explicit truncation
metadata, t as an (m, N) batch and the n grid and tail window checked
by the indices module's ``_tail_window`` rule before any row is built.
Every eps here passes the indices module's one eps rule, ``_eps_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import _as_batch, _cell_transforms, charfn_gap, gaussian_charfn
from .charfn import row_sum_charfn
from .errors import ParameterError, ShapeError
from .indices import DEFAULT_TAIL_WINDOW, _copy_weights, _directional_sums, _eps_grid, _tail_window
from .indices import l_sum, lindeberg_index_estimate
from .quadrature import integrate_unit
from .rows import ArrayRow, _project
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
    "master_bound_infimum",
    "theorem_bound_report",
    "gap_table_with_lambda_f",
    "DEFAULT_BOUND_EPS_GRID",
    "SLACK_FLOOR",
]

IDENTITY_TOL = 1e-6
SLACK_FLOOR = 1e-3
DEFAULT_BOUND_EPS_GRID = (1.0, 0.5, 0.2, 0.1, 0.05)


def identity_lhs(row: ArrayRow, t):
    """Exact left side: phi_Gauss(t) - phi_row(t); an (m, N) batch gives m values."""
    return gaussian_charfn(t) - row_sum_charfn(row, t)


def _directions(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(|t|^2 / 4^e, t/|t|, e) per row of an (m, N) batch, e the largest
    frexp exponent of max_i |t_i| over its nonzero t (0 if none).  Each t
    is scaled by the power of two of its own max_i |t_i| before |t|^2 is
    added in coordinate order, so t/|t| neither underflows nor overflows;
    the scaling is exact, so a normal |t|^2 keeps its bits.  A t = 0 has
    direction 0 (+0.0 turns a -0.0 coordinate into +0.0)."""
    _, exps = np.frexp(np.max(np.abs(batch), axis=1))
    scaled = np.ldexp(batch, -exps[:, None])
    sq = sum((c * c for c in scaled.T), np.zeros(len(batch)))
    unit = np.divide(scaled, np.sqrt(sq)[:, None], out=np.zeros_like(batch), where=sq[:, None] > 0.0)
    nonzero = sq > 0.0
    lead = int(np.max(exps[nonzero])) if nonzero.any() else 0
    return np.ldexp(sq, 2 * (exps - lead)), unit + 0.0, lead


def identity_rhs(row: ArrayRow, t):
    """Right side of the identity for the t of one ray, by one adaptive
    s-quadrature whose kernel nodes every t shares.

    t is one vector (a ray of one) or an (m, N) batch whose t/|t| lie
    within ``_RAY_TOL`` (max-norm) of the longest t's, so a t = 0 only
    beside t = 0.  Let t_top be the longest t (the first of equal lengths)
    and b_j = |t_j|^2 / |t_top|^2, so t_j = sqrt(b_j) t_top.  At the node
    u t_j = u' t_top, u' = sqrt(b_j) u, the
    weights <x, t_j> of psi_k and mu_k(t_j) are sqrt(b_j) times t_top's,
    m2_k(t_j) and tau_j are b_j times t_top's, and phi_k is t_top's at u'.
    So the bracket of t_j at s is b_j times that of t_top at s' = b_j s,
    and e^{-(1 - s) tau_j / 2} = e^{-(1 - s') tau_top / 2} e^{(1 - b_j)
    tau_top / 2}: I_j(s) = b_j I_top(b_j s) e^{(1 - b_j) tau_top / 2}, and
    in s',

      int_0^1 I_j(s) ds = int_0^{b_j} I_top(s') e^{(1 - b_j) tau_top / 2} ds',

    with tau_top = sum_k m2_k(t_top) and b_j tau_top = tau_j.  Column j of
    the integrand is therefore t_top's integrand times e^{(1 - b_j)
    tau_top / 2}, integrated by ``integrate_unit`` up to b_j (exactly 1,
    factor and limit, for t_top whatever its |t|^2); rhs_j = value_j / 2 +
    (phi_Gauss(t_j) - e^{-b_j tau_top / 2}), and t_j keeps its own
    tolerance on its own total.  A t whose direction differs from t_top's
    by rounding is integrated at sqrt(b_j) t_top; the lhs is taken at t_j.

    Each batch of s-nodes is one ``charfn._cell_transforms`` call over
    sqrt(s) t_top, which also bounds the memory of atom-heavy rows, and
    gives each node phi_k (weights p) and psi_k (weights p <x, t_top>).
    Its reduction returns sum_k prod_{j!=k} phi_j (psi_k - mu_k) and
    sum_k prod_{j!=k} phi_j phi_k m2_k per node; the integrand divides the
    first by sqrt(s), which the reduction does not see, and takes the
    Gaussian factor at tau = sum_k m2_k, not |t|^2.  Besides the row and
    the kernel's chunks the call keeps one atom-sized array, p <x, t_top>,
    and the reduction forms psis - mu and its product with the exclusive
    products in the kernel's own psis.  Returns (values, quadrature error
    estimates): arrays of m entries, or a complex and a float for one t
    (whose ConvergenceError carries arrays of one entry).  A batch off one
    ray raises ParameterError.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    if not len(batch):
        return np.empty(0, dtype=np.complex128), np.empty(0)
    sq, unit, _ = _directions(batch)
    top = int(np.argmax(sq))
    if np.max(np.abs(unit - unit[top])) > _RAY_TOL:
        raise ParameterError("a batch of t must lie on one ray (one t/|t|, a t = 0 only beside t = 0)")
    t = batch[top]
    d = row.project(t)
    pd = row.probs * d
    mu = row.per_cell_sum(pd)
    # a real product commutes bit for bit: d * pd is pd * d
    d *= pd
    m2t = row.per_cell_sum(d)
    del d
    tau = float(np.sum(m2t))
    upper = np.divide(sq, sq[top], out=np.ones_like(sq), where=sq < sq[top])
    scale = np.exp(0.5 * (1.0 - upper) * tau)

    def eval_nodes(phis, psis):
        excl = exclusive_products(phis)
        # a complex product is not commutative bit for bit, so each one is
        # formed in place in a stated order: excl * (psis - mu), in the
        # kernel's own psis buffer, then excl * phis * m2t
        np.subtract(psis, mu, out=psis)
        np.multiply(excl, psis, out=psis)
        moved = np.sum(psis, axis=1)
        excl *= phis
        excl *= m2t
        return np.stack([moved, excl.sum(axis=1)], axis=-1)

    def integrand(s):
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        u = np.sqrt(s)
        moved, second = _cell_transforms(row, u[:, None] * t, (row.probs, pd), eval_nodes).T
        return ((1j * moved / u - second) * np.exp(-0.5 * (1.0 - s) * tau))[:, None] * scale

    value, err = integrate_unit(integrand, return_error=True, upper=upper)
    value = 0.5 * value + (gaussian_charfn(batch) - np.exp(-0.5 * upper * tau))
    return (value, 0.5 * err) if is_batch else (complex(value[0]), 0.5 * float(err[0]))


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the gap identity, one entry per t.

    Each array has the t-batch axis first; a single t drops it.  An
    entry passes when its residual |lhs - rhs| is within max(1e-6,
    10 * quadrature error).  ``mean_bound`` is sum_k |mu_k(t)|, which
    bounds what cell means within validation's tolerance add to the
    residual (it does not enter ``passed``).
    """

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    quadrature_error: np.ndarray
    mean_bound: np.ndarray = 0.0

    @property
    def passed(self) -> np.ndarray:
        return self.residual <= np.maximum(IDENTITY_TOL, 10.0 * self.quadrature_error)


# a ray's t share one quadrature while (|t_top|^2 - |t|^2) / 2, the log of the
# largest Gaussian factor e^{(1 - b) tau / 2} that a shorter t's column takes,
# stays at most this; a longer span is cut into runs, each its own quadrature
_RAY_SPAN = 64.0

# t share a ray when t/|t| lies within this (max-norm) of the ray's longest t's
# direction: a grid r e lifted per r rounds t/|t| by up to an ulp
_RAY_TOL = 4.0 * np.finfo(np.float64).eps


def _rays(batch: np.ndarray) -> list[np.ndarray]:
    """The batch's t indices, one array per quadrature, each longest first.

    t are taken in order of decreasing |t| with ties in coordinate order,
    and each joins the first ray whose longest t has a direction within
    ``_RAY_TOL`` (max-norm) of its own t/|t| (in 1-D, the same sign), or
    starts one; so the groups and their order do not depend on the
    batch's, and each t = 0 is a group of its own.  A group whose squared
    norms fall more than 2 * ``_RAY_SPAN`` below its longest starts a new
    group there.
    """
    sq, unit, lead = _directions(batch)
    # |t|^2, exact where it is a normal float
    norms = np.ldexp(sq, 2 * lead)
    heads, rays = np.empty((0, batch.shape[1])), []
    for i in np.lexsort((*batch.T[::-1], -sq)):
        nonzero = unit[i].any()
        near = np.flatnonzero(np.max(np.abs(heads - unit[i]), axis=1) <= _RAY_TOL) if nonzero else ()
        if not len(near):
            # a t = 0 gets a head that no direction comes near
            heads = np.vstack([heads, unit[i] if nonzero else np.full(len(unit[i]), np.inf)])
            rays.append([[]])
        runs = rays[near[0] if len(near) else -1]
        if runs[-1] and 0.5 * (norms[runs[-1][0]] - norms[i]) > _RAY_SPAN:
            runs.append([])
        runs[-1].append(i)
    return [np.array(run) for runs in rays for run in runs]


def decomposition_check(row: ArrayRow, t) -> IdentityReport:
    """Exact lhs vs quadrature rhs, per t of a single t or an (m, N) batch.

    The lhs is one ``identity_lhs`` call.  The rhs is one ``identity_rhs``
    quadrature per ray of t (``_rays``: the t whose t/|t| agree within
    ``_RAY_TOL``, each t = 0 alone, a ray cut where its Gaussian factors would pass
    e^{``_RAY_SPAN``}), whose kernel nodes every t of the ray shares while
    each keeps its own tolerance.  The rays run on up to one thread per
    core, the calling thread among them, each running its transform tiles
    in turn, and nothing inside a ray is spread (measured: two threads on
    one ray's nodes gained nothing on two cores).  Threads are spent here
    and on the sampler's blocks only, so a single t, or a batch on one
    ray, uses one core.  An entry's bits do not depend on the batch order
    or the thread count; the longest t of a ray equals its single-t call
    unless a shorter t's panels refine it, and every entry agrees with its
    single-t call within both error estimates.  ``mean_bound`` is
    sum_k |<t, E X_k>| per t: one per-cell sum of p x, then per t the one
    <t, x> rule over the n cell means, so no (m, n) array is formed.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    lhs = identity_lhs(row, batch)
    rays = _rays(batch)
    rhs, err = np.zeros(len(batch), np.complex128), np.zeros(len(batch))
    for ray, (values, errors) in zip(rays, _fan_out(lambda r: identity_rhs(row, batch[r]), rays)):
        rhs[ray], err[ray] = values, errors
    means = row.per_cell_sum(row.probs[:, None] * row.points)
    mean = np.array([np.sum(np.abs(_project(means, tvec))) for tvec in batch])
    # the builtin abs of a complex: np.abs may round |z| otherwise
    residual = np.array([abs(z) for z in lhs - rhs], dtype=np.float64)
    pick = slice(None) if is_batch else 0
    return IdentityReport(lhs[pick], rhs[pick], residual[pick], err[pick], mean[pick])


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
    factor = np.abs(np.exp(-1j * np.sqrt(s) * r * row.project(t)) - 1.0)
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
    each t is at ``np.argmin(report.rhs, axis=-1)``;
    ``master_bound_infimum`` gives the infimum over every eps > 0.
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

    t is one vector (a 1-D row also takes a scalar) or an (m, N) batch;
    eps is a scalar or a 1-D grid.  The gaps are one ``charfn_gap`` call,
    both tail sums one directional pass over the atoms per t, and every
    entry equals the single (t, eps) call.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    grid = _eps_grid(eps)
    term_same, term_indep = _directional_sums(row, batch, grid)
    gap, envelope = charfn_gap(row, batch), 1.0 - gaussian_charfn(batch)

    pick = (slice(None) if is_batch else 0, slice(None) if grid.ndim else 0)

    def table(values):
        return np.broadcast_to(values, term_same.shape)[pick]

    return BoundReport(row.dimension, eps=table(grid), lhs_gap=table(gap[:, None]),
                       term_same=table(term_same), term_indep=table(term_indep),
                       envelope=table(envelope[:, None]))


def master_bound_infimum(row: ArrayRow, t) -> BoundReport:
    """The master inequality at its exact infimum over eps > 0, per t.

    The rhs 2 eps N + 2 env S(eps), with S(eps) both copies' weight over
    the atoms whose phase v_a = |<x_a, t>| exceeds eps, rises linearly
    between the phases and drops at each, so its infimum is its least
    value at the positive v_a and in the limit eps -> 0+, reported as eps
    0.0.  Per t, one argsort of v over every atom, suffix sums of each
    copy's weights in that order and searchsorted(side="right") give S
    at every candidate; those sums round differently from the masked
    sums of ``master_bound``.  t is one vector or an (m, N) batch, and
    the report's arrays hold one entry per t, with no eps axis.
    """
    batch, is_batch = _as_batch(t, row.dimension)
    weights = [_copy_weights(row, copy) for copy in ("same", "independent")]
    envelope = 1.0 - gaussian_charfn(batch)
    eps, term_same, term_indep = np.empty((3, len(batch)))
    for i, (tvec, env) in enumerate(zip(batch, envelope)):
        v = np.abs(row.project(tvec))
        order = np.argsort(v)
        v = v[order]
        candidates = np.concatenate(([0.0], v))
        # each copy's weight over the sorted atoms past[c], past[c] + 1, ...,
        # those whose phase exceeds candidate c
        past = np.searchsorted(v, candidates, side="right")
        same, indep = (np.append(np.cumsum(w[order][::-1])[::-1], 0.0)[past] for w in weights)
        best = np.argmin(2.0 * candidates * row.dimension + 2.0 * (same + indep) * env)
        eps[i], term_same[i], term_indep[i] = candidates[best], same[best], indep[best]
    pick = slice(None) if is_batch else 0
    return BoundReport(row.dimension, eps=eps[pick], lhs_gap=charfn_gap(row, batch)[pick],
                       term_same=term_same[pick], term_indep=term_indep[pick],
                       envelope=envelope[pick])


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
    theorem_rhs = 2.0 * (1.0 - gaussian_charfn(batch)) * (l_same + l_indep)
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
