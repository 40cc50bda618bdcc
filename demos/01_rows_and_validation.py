"""Build the standard row families, validate them, and round-trip specs.

A *standard* row of size n holds n independent, mean-zero, finitely
supported random vectors whose covariances sum to the identity.  Two
built-in 1-D families matter most:

* scaled coins  +-1/sqrt(n)  -- the textbook case, CLT condition holds;
* the two-scale family (parameter alpha) -- keeps a tunable amount of
  mass on atoms of size ~sqrt(k)/s_n, so the classical CLT condition
  fails "by exactly alpha" while the array stays infinitesimal.

Products of 1-D rows give multivariate rows with independent coordinates.
A row keeps its atoms in flat arrays; each cell is a (points, probs) pair
of read-only views into them.
"""

import numpy as np

from steinclt import (
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    eta_scale_squared,
    load_row_spec,
    serialize_row,
    validate_row,
)

print("== scaled coins, n = 4 ==")
row = build_rademacher_row(4)
for k, (points, probs) in enumerate(row.cells()):
    print(f"  cell {k}: atoms {points.ravel()}, probs {probs}")
report = validate_row(row)
print(" ", report.summary())

print("\n== two-scale family, alpha = 0.5, n = 5 ==")
row = build_eta_row(0.5, 5)
print(f"  normalisation s_n^2 = {eta_scale_squared(0.5, 5):.6f}")
for k, (points, probs) in enumerate(row.cells()):
    print(f"  cell {k}: atoms {np.round(points.ravel(), 4)}, probs {probs}")
report = validate_row(row)
print(f"  second-moment sum = {report.second_moment_sum!r} (should be 1)")

print("\n== product row: coins x coins, n = 3 ==")
row = build_product_row([build_rademacher_row(3), build_rademacher_row(3)])
print(f"  dimension {row.dimension}, {row.n} cells, {row.total_atoms} atoms")
report = validate_row(row)
print(f"  covariance residual vs identity: {report.cov_residual:.2e}")

print("\n== serialisation round-trip ==")
doc = serialize_row(build_eta_row(0.3, 3))
loaded = load_row_spec(doc)
print(f"  document bytes: {len(doc)}; atoms reproduced bit-exactly:",
      np.array_equal(loaded.points, build_eta_row(0.3, 3).points))

print("\n== a defective row is reported, not hidden ==")
bad = '''{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,
 "cells": [{"atoms": [{"x": [1.0], "p": 0.6}, {"x": [-1.0], "p": 0.4}]}]}'''
try:
    load_row_spec(bad)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
