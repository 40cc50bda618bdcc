"""Monte Carlo cross-checks of the exact machinery.

Sampling is keyed by (seed, stream) pairs on a counter-based generator,
so every number below reproduces bit for bit.  The empirical transforms
come with standard errors; a healthy exact path sits within a few
standard errors of the Monte Carlo value.  A one-dimensional Kolmogorov
distance against the normal CDF is included as a classical diagnostic
(the package's quantitative statements are about transform gaps, but the
CDF picture is familiar).  Each printed check is also asserted, so the
script exits non-zero when one fails.
"""

import math

from steinclt import (
    RngSeed,
    build_eta_row,
    build_rademacher_row,
    empirical_charfn,
    kolmogorov_mc,
    row_sum_charfn,
)

print("== empirical vs exact transforms ==")
row = build_rademacher_row(25)
exact = row_sum_charfn(row, 1.0)
for samples in (1000, 10_000, 100_000):
    value, stderr = empirical_charfn(row, 1.0, samples, RngSeed(2024, 0))
    sigmas = abs(value - exact) / stderr
    print(f"  {samples:>7} samples: {value.real:+.6f}{value.imag:+.6f}i  "
          f"stderr {stderr:.2e}  ({sigmas:.2f} stderr from exact)")
    assert sigmas < 4.0, "Monte Carlo transform more than 4 stderr from the exact one"

print("\n== reproducibility: same (seed, stream) -> same bits ==")
a = empirical_charfn(row, 1.0, 5000, RngSeed(7, 3))
b = empirical_charfn(row, 1.0, 5000, RngSeed(7, 3))
c = empirical_charfn(row, 1.0, 5000, RngSeed(7, 4))
print(f"  rerun identical: {a == b};  different stream differs: {a[0] != c[0]}")
assert a == b, "a rerun of one (seed, stream) changed the estimate"
assert a[0] != c[0], "two streams gave the same estimate"

print("\n== Kolmogorov distance to the normal, by simulation ==")
print("  (the +-1 coin's exact distance is Phi(1) - 1/2 = 0.341345)")
samples = 200_000
coin = kolmogorov_mc(build_rademacher_row(1), samples, RngSeed(99))
print(f"  {'coin n=1':24}: {coin:.5f}")
# DKW: P(sup |F_m - F| > band) <= 2 exp(-2 m band^2) = 1e-6
band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * samples))
assert abs(coin - 0.5 * math.erf(1.0 / math.sqrt(2.0))) <= band, "coin outside the DKW band"
for label, row in (
    ("coins n=100", build_rademacher_row(100)),
    ("two-scale a=0.5 n=100", build_eta_row(0.5, 100)),
    ("two-scale a=0.5 n=10000", build_eta_row(0.5, 10_000)),
):
    print(f"  {label:24}: {kolmogorov_mc(row, samples, RngSeed(99)):.5f}")
