"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here, not computed: exact inequalities carry
no tolerance at all, identity and Stein-machinery residuals use the
fixed ceilings stated with each criterion, and asymptotic estimates use
the fixed grids recorded inline.
"""

import time

import numpy as np

from oracles import eta_lindeberg_oracle, fd_hessian_of_solution

from steinclt import (
    EtaAlphaFamily,
    RngSeed,
    alpha_identities,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
    charfn_gap,
    empirical_charfn,
    gaussian_expectation_identity,
    hessian_closed_form,
    hessian_difference,
    identity_lhs,
    identity_rhs,
    kolmogorov_mc,
    lindeberg_index_estimate,
    master_bound,
    stein_residual,
    truncation_bound_check,
    validate_row,
)
from steinclt.cli import execute

PHI1_MINUS_HALF = 0.3413447460685429  # exact coin sup, Phi(1) - 1/2


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status} - {detail}")


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    cases = []
    for n in (1, 2, 5, 10, 25):
        cases.append((build_rademacher_row(n), [0.5, 1.0, 2.0, 4.0]))
    for alpha in (0.3, 0.5):
        for n in (1, 4, 8):
            cases.append((build_eta_row(alpha, n), [0.5, 1.0, 2.0, 4.0]))
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    anti = np.array([1.0, -1.0]) / np.sqrt(2.0)
    for n in (2, 4):
        row = build_product_row([build_rademacher_row(n), build_rademacher_row(n)])
        cases.append((row, [m * d for m in (0.5, 1.0, 2.0, 4.0) for d in (diag, anti)]))

    worst = 0.0
    for row, t_grid in cases:
        for t in t_grid:
            lhs = identity_lhs(row, t)
            rhs, _err = identity_rhs(row, t)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(1, ok, f"identity residual max {worst:.3e} (<= 1e-6), {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-6
    assert elapsed < 60.0


def _random_row_pool(rng, max_n=200):
    pool = []
    for _ in range(30):
        pool.append(build_rademacher_row(int(rng.integers(1, max_n + 1))))
    for _ in range(40):
        pool.append(build_eta_row(float(rng.uniform(0.05, 0.5)),
                                  int(rng.integers(1, max_n + 1))))
    for _ in range(20):
        n = int(rng.integers(1, 61))
        pool.append(build_product_row([build_rademacher_row(n), build_rademacher_row(n)]))
    return pool


def _random_t(rng, dim):
    magnitude = rng.uniform(0.0, 5.0)
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.ones(dim)
        norm = np.sqrt(dim)
    return magnitude * direction / norm


def test_criterion_2_master_inequality_randomized():
    started = time.perf_counter()
    rng = np.random.default_rng(20240811)
    pool = _random_row_pool(rng)
    failures = 0
    min_slack = np.inf
    for _ in range(1000):
        row = pool[int(rng.integers(len(pool)))]
        t = _random_t(rng, row.dimension)
        eps = float(rng.uniform(0.01, 1.0))
        report = master_bound(row, t, eps)
        min_slack = min(min_slack, report.slack)
        if report.slack < 0.0:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 120.0
    _report(2, ok, f"1000 instances, min slack {min_slack:.3e}, "
                   f"{failures} failures, {elapsed:.1f}s (< 120s)")
    assert failures == 0
    assert elapsed < 120.0


def test_criterion_3_truncation_bound_randomized():
    rng = np.random.default_rng(77)
    pool = _random_row_pool(rng, max_n=120)
    failures = 0
    for _ in range(1000):
        row = pool[int(rng.integers(len(pool)))]
        t = _random_t(rng, row.dimension)
        s = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.01, 1.0))
        for mode in ("same", "independent"):
            lhs, rhs = truncation_bound_check(row, t, s, r, eps, mode)
            if lhs > rhs:
                failures += 1
    ok = failures == 0
    _report(3, ok, f"1000 instances x 2 copy modes, {failures} failures (lhs <= rhs exactly)")
    assert failures == 0


def test_criterion_4_stein_machinery():
    pairs = [
        ([1.0], [0.0]), ([1.0], [0.7]), ([3.0], [2.5]), ([2.0], [-1.5]),
        ([1.0, 1.0], [0.3, -0.7]), ([2.0, -1.0], [1.5, 0.5]),
        ([1.5, 1.5], [2.0, -2.0]),
    ]
    worst_fd = max(
        float(np.max(np.abs(fd_hessian_of_solution(t, x)
                            - hessian_closed_form(t, x))))
        for t, x in pairs
    )
    worst_diff = max(
        float(np.max(np.abs(
            hessian_difference(t, x, y)
            - (hessian_closed_form(t, x) - hessian_closed_form(t, y))
        )))
        for t, x, y in (([1.0], [1.0], [0.0]), ([2.0], [0.5], [-1.0]),
                        ([1.0, -1.0], [0.5, 0.5], [1.5, -0.5]))
    )
    worst_residual = max(abs(stein_residual(t, x)) for t, x in pairs)
    worst_gauss = max(
        float(np.max(np.abs(gaussian_expectation_identity(t, x, float(s), level=60))))
        for t, x in pairs
        for s in np.linspace(0.0, 1.0, 21)
    )
    rng = np.random.default_rng(4)
    worst_shift = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 4))
        r1, r2 = alpha_identities(rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim),
                                  float(rng.uniform(0, 1)))
        worst_shift = max(worst_shift, r1, r2)

    ok = (worst_fd < 1e-5 and worst_diff < 1e-8 and worst_residual < 1e-7
          and worst_gauss < 1e-9 and worst_shift < 1e-12)
    _report(4, ok,
            f"hessian FD {worst_fd:.2e} (<1e-5), difference {worst_diff:.2e} (<1e-8), "
            f"equation {worst_residual:.2e} (<1e-7), gaussian identity {worst_gauss:.2e} "
            f"(<1e-9), shift identities {worst_shift:.2e} (<1e-12)")
    assert worst_fd < 1e-5
    assert worst_diff < 1e-8
    assert worst_residual < 1e-7
    assert worst_gauss < 1e-9
    assert worst_shift < 1e-12


def test_criterion_5_eta_lindeberg_index():
    started = time.perf_counter()
    eps_grid = (1.0, 0.3, 0.1, 0.03, 0.01)
    n_grid = (3000, 10_000, 30_000, 100_000)
    worst_gap = 0.0
    worst_oracle = 0.0
    for alpha in (0.3, 0.5):
        estimate = lindeberg_index_estimate(
            EtaAlphaFamily(alpha), eps_grid, n_grid, tail_window=3
        )
        worst_gap = max(worst_gap, abs(estimate.value - alpha))
        # every grid point must agree with the independent tail-count oracle
        for i, eps in enumerate(eps_grid):
            for j, n in enumerate(n_grid):
                worst_oracle = max(
                    worst_oracle,
                    abs(estimate.per_point[i, j] - eta_lindeberg_oracle(alpha, n, eps)),
                )
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 0.02 and worst_oracle < 1e-9 and elapsed < 60.0
    _report(5, ok, f"|estimate - alpha| max {worst_gap:.4f} (<= 0.02), "
                   f"oracle residual {worst_oracle:.2e}, {elapsed:.1f}s (< 60s)")
    assert worst_gap <= 0.02
    assert worst_oracle < 1e-9
    assert elapsed < 60.0


def test_criterion_6_sup_gap_vs_fixed_t():
    sup_ok = True
    for n in (10, 50, 100):
        row = build_rademacher_row(n)
        t_grid = [0.5, 1.0, 2.0] + [m * np.pi * np.sqrt(n) for m in (1, 3)]
        sup_ok &= max(charfn_gap(row, t) for t in t_grid) >= 0.999
    big = build_rademacher_row(10_000)
    fixed_ok = all(charfn_gap(big, t) < 0.01 for t in (0.5, 1.0, 2.0))
    ok = sup_ok and fixed_ok
    _report(6, ok, "per-n sup over t-grid >= 0.999 while fixed-t gaps < 0.01 at n=1e4")
    assert sup_ok
    assert fixed_ok


def test_criterion_7_second_moment_sums():
    rows = []
    for n in (1, 10, 100, 1000):
        rows.append(build_rademacher_row(n))
        rows.append(build_eta_row(0.3, n))
        rows.append(build_eta_row(0.5, n))
        rows.append(build_product_row([build_rademacher_row(n), build_rademacher_row(n)]))
    worst = max(abs(validate_row(row).second_moment_sum - row.dimension) for row in rows)
    ok = worst < 1e-10
    _report(7, ok, f"second-moment sum residual max {worst:.2e} (< 1e-10) over {len(rows)} rows")
    assert worst < 1e-10


def test_criterion_8_monte_carlo_consistency():
    row = build_rademacher_row(25)
    exact = complex(np.cos(0.2) ** 25)
    hits = 0
    for stream in range(100):
        value, stderr = empirical_charfn(row, 1.0, 100_000, RngSeed(815, stream))
        if abs(value - exact) < 5 * stderr:
            hits += 1
    distance = kolmogorov_mc(build_rademacher_row(1), 1_000_000, RngSeed(815))
    kolmogorov_ok = abs(distance - PHI1_MINUS_HALF) < 0.01
    ok = hits >= 99 and kolmogorov_ok
    _report(8, ok, f"{hits}/100 streams within 5 stderr (>= 99); "
                   f"coin Kolmogorov {distance:.6f} vs {PHI1_MINUS_HALF:.6f} (+-0.01)")
    assert hits >= 99
    assert kolmogorov_ok


def test_criterion_9_cli_determinism(tmp_path):
    invocations = [
        ["charfn", "--family", "eta", "--alpha", "0.5", "--n-list", "5,25",
         "--t", "0:2:0.5", "--samples", "20000", "--seed", "42"],
        ["bound", "--family", "rademacher", "--n-list", "5,25", "--t-list",
         "0.5,1,2", "--eps-list", "0.1,0.4"],
        ["report", "--family", "eta", "--alpha", "0.3", "--t-list", "0.5,1,2",
         "--n-list", "200,1000,3000", "--format", "json"],
    ]
    identical = True
    for index, argv in enumerate(invocations):
        first = tmp_path / f"run{index}_a"
        second = tmp_path / f"run{index}_b"
        assert execute(argv + ["--output", str(first)]) == 0
        assert execute(argv + ["--output", str(second)]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    _report(9, identical, f"{len(invocations)} CLI invocations re-run byte-identically")
    assert identical
