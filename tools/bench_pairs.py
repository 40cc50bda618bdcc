#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to one BENCH JSON file.

For each workload, runs ``perfbench/run.py --workload W --seed S
--seconds SEC --trace 0`` from the root of a base checkout and of a
change checkout, ``--pairs`` times with seeds ``--first-seed``,
``--first-seed + 1``, ..., the base first in even pairs and the change
first in odd ones.  Each checkout runs one untimed pass beforehand, so
both hold the same compiled files.  The file records every run, the
runner's environment line (cores, Python, numpy, BLAS and the thread
variables) from each side and, per end-to-end metric of BENCHMARK.json,
the medians of both sides, the base's quartiles and the number of pairs
in which the change was better.  Exit status 1 when any run failed or
was not correct.

    python tools/bench_pairs.py --base ../base --change . \\
        --workload montecarlo --pairs 10 --seconds 25 --first-seed 21 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """(environment line, summary object) of one perfbench run in ``root``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    env = next(line[len("# env "):] for line in out if line.startswith("# env "))
    return env, json.loads(out[-1])


def revision(root: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def summary(runs: list[dict], metric: str, better: str) -> dict:
    base = [r[metric] for r in runs if r["side"] == "base"]
    change = [r[metric] for r in runs if r["side"] == "change"]
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
    return {"base_median": statistics.median(base), "base_q1": q1, "base_q3": q3,
            "change_median": statistics.median(change),
            "ratio": statistics.median(change) / statistics.median(base),
            "change_better_pairs": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    envs = {side: run(root, args.workload[0], args.first_seed, 0)[0]
            for side, root in roots.items()}
    report = {"command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
              "revisions": {side: revision(root) for side, root in roots.items()},
              "environment": envs, "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                _, result = run(roots[side], workload, seed, args.seconds)
                ok &= result["correct"] and result["failed"] == 0
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "correct": result["correct"], "failed": result["failed"],
                             **{m: v["value"] for m, v in result["metrics"].items()}})
                print(json.dumps(runs[-1]), file=sys.stderr)
        report["workloads"][workload] = {
            "pairs": args.pairs,
            "summary": {m["name"]: summary(runs, m["name"], m["better"]) for m in metrics},
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
