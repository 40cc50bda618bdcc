"""Regenerate perfbench/reference.json, the values the output checks compare to.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/make_reference.py

* sweep: ``report`` and ``bound`` columns for every t of the sweep grid,
  from the CLI at the current commit.
* montecarlo/rademacher: the exact Kolmogorov distance of the n=1000 row
  sum (a binomial lattice) from N(0, 1), computed here without steinclt.
* montecarlo/eta: the CLI's estimate from 10^6 samples, with its DKW width.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run
import workloads

ETA_REF_SAMPLES = 1_000_000
ETA_REF_SEED = 2**32 + 1  # outside the workload's seed range [0, 2^31)


def cli(root: Path, work: Path, args: list[str]) -> list[dict[str, str]]:
    child = run.spawn([sys.executable, "-c", run.CLI_CODE, *args], run.child_env(root), work)
    if child.returncode != 0:
        raise SystemExit(f"stein-clt {' '.join(args)} failed:\n{child.stderr}")
    return workloads.parse_report(child.stdout)[1]


def rademacher_distance(n: int) -> float:
    """sup_x |P(S <= x) - Phi(x)| for S a sum of n coins +-1/sqrt(n)."""
    cdf_below = 0.0
    worst = 0.0
    for j in range(n + 1):
        x = (2 * j - n) / math.sqrt(n)
        pmf = math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                       - n * math.log(2.0))
        phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
        worst = max(worst, abs(cdf_below - phi), abs(cdf_below + pmf - phi))
        cdf_below += pmf
    return worst


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    grid = ",".join(repr(t) for t in workloads.SWEEP_T_GRID)
    report = cli(root, work, ["report", "--family", "eta", "--alpha", "0.5", "--t-list", grid,
                              "--n-list", workloads.SWEEP_N_LIST])
    bound = cli(root, work, ["bound", "--family", "eta", "--alpha", "0.5", "--n-list", "100000",
                             "--t-list", grid])
    key = lambda row: f"{float(row['t']):.2f}"
    sweep = {"report_gap_tail_max": {key(r): float(r["gap_tail_max"]) for r in report}}
    for column in ("eps", "gap", "term_same", "term_indep"):
        sweep[f"bound_{column}"] = {key(r): float(r[column]) for r in bound}

    eta = cli(root, work, ["kolmogorov", "--family", "eta", "--alpha", "0.5", "--n-list", "1000",
                           "--samples", str(ETA_REF_SAMPLES), "--seed", str(ETA_REF_SEED)])
    montecarlo = {
        "rademacher": {"distance": rademacher_distance(1000), "dkw_eps": 0.0,
                       "source": "exact binomial lattice, n=1000"},
        "eta": {"distance": float(eta[0]["distance"]),
                "dkw_eps": workloads.dkw_eps(ETA_REF_SAMPLES),
                "source": f"stein-clt kolmogorov, n=1000, {ETA_REF_SAMPLES} samples, "
                          f"seed {ETA_REF_SEED}"},
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"sweep": sweep, "montecarlo": montecarlo}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
