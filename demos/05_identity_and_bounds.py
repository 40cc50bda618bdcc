"""The exact gap identity and the finite-n inequality chain built on it.

The Gaussian/row-sum transform gap admits an *identity*: the exact gap
equals one smooth s-integral of cell-transform products (left side a
finite product, right side one quadrature), derived via the Hessian
difference of the Stein solution.  Residuals sit at the quadrature
tolerance -- this is the sharpest end-to-end check the machinery has.

Truncating the phase increments at a level eps then gives the master
inequality

  gap(t) <= 2 eps N + 2 (S_same + S_indep)(1 - e^{-|t|^2/2}),

valid for every row, every t, every eps > 0, with no tolerance.  The
slack is reported term by term; its nonnegativity over randomized
instances is an acceptance criterion.  ``master_bound`` evaluates a
whole (t, eps) table at once, so the best eps of each t is an argmin.
"""

import numpy as np

from steinclt import (
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    decomposition_check,
    master_bound,
    truncation_bound_check,
)
from steinclt.bounds import DEFAULT_BOUND_EPS_GRID

print("== the identity, checked exactly ==")
rows = [
    ("coins n=1", build_rademacher_row(1), 1.0),
    ("coins n=25", build_rademacher_row(25), 1.0),
    ("two-scale a=0.5 n=8", build_eta_row(0.5, 8), 2.0),
    ("coins x coins n=4", build_product_row([build_rademacher_row(4)] * 2), [1.0, -1.0]),
]
for label, row, t in rows:
    report = decomposition_check(row, t)
    print(f"  {label:22} t={t}: lhs={report.lhs:.8f}  residual={report.residual:.2e}"
          f"  (quad err {report.quadrature_error:.1e})")

print("\n== phase-increment truncation at level eps ==")
row = build_rademacher_row(25)
lhs, rhs = truncation_bound_check(row, 1.0, 1.0, 1.0, 0.4, "same")
print(f"  lhs = 2 sin(0.1) = {lhs:.6f}  <=  rhs = eps*N + 2*S = {rhs:.6f}")

print("\n== master inequality, term by term ==")
print(f"{'row':>22} | {'t':>4} | {'eps':>5} | {'gap':>9} | {'rhs':>7} | {'slack':>7}")
for label, row, t, eps in (
    ("coins n=25", build_rademacher_row(25), 1.0, 0.4),
    ("two-scale a=0.5 n=100", build_eta_row(0.5, 100), 2.0, 0.1),
    ("two-scale a=0.3 n=50", build_eta_row(0.3, 50), 1.0, 0.05),
):
    rep = master_bound(row, t, eps)
    print(f"{label:>22} | {t:>4} | {eps:>5} | {rep.lhs_gap:.3e} | "
          f"{rep.rhs:7.4f} | {rep.slack:7.4f}")

print("\n== the bound is free in eps; sweep and keep the best ==")
row = build_eta_row(0.5, 200)
table = master_bound(row, 1.5, DEFAULT_BOUND_EPS_GRID)
best = np.argmin(table.rhs)
print(f"  best eps on default grid: {table.eps[best]}  ->  rhs = {table.rhs[best]:.4f} "
      f"(gap = {table.lhs_gap[best]:.2e})")
