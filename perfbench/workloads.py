"""The four benchmark workloads: CLI invocations drawn from a seed, and checks.

A workload is a fixed list of ``stein-clt`` invocations.  The seed draws
only the t values (inside fixed ranges), the Monte Carlo ``--seed`` and
the stein-check (t, x) pair; row sizes, grid counts and sample counts are
fixed, so the work per pass does not depend on the seed.  Each workload
puts the cost in a different layer; perfbench/README.md says which and why.
No workload reaches the lattice-resonance false convergence of the
identity quadrature (t near 2 pi k sqrt(n)): every t here is at most 4.

Every check returns a list of problems (empty when the report is right).
None is a byte compare against an older commit; tolerances are stated
next to each check.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("identity", "sweep", "montecarlo", "stein")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# identity: |lhs - rhs| recomputed from the report columns must meet this
# outright (the report's own "passed" also accepts 10 x quad_error).
IDENTITY_TOL = 1e-6
# sweep: absolute tolerance on gap and l-sum columns against reference.json.
SWEEP_TOL = 1e-9
# montecarlo: DKW band, P(sup|F_m - F| > eps) <= 2 exp(-2 m eps^2), at this
# failure probability for each of the run and the reference.
DKW_DELTA = 1e-6

SWEEP_T_GRID = tuple(round(0.25 + 0.05 * j, 2) for j in range(76))  # 0.25 .. 4.00
SWEEP_N_LIST = "1000,10000,100000,300000"
MC_SAMPLES = 100_000


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # rows the invocations build: (family, alpha or None, n)
    rows: tuple[tuple[str, float | None, int], ...]


def parse_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a CSV report into its '# key=value' header and its data rows."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


def dkw_eps(samples: int, delta: float = DKW_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def _reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(values) -> str:
    return ",".join(repr(v) for v in values)


# ---------------------------------------------------------------------------
# checks


def _check_rows(rows, expected: int) -> list[str]:
    return [] if len(rows) == expected else [f"expected {expected} rows, got {len(rows)}"]


def _check_identity(ts):
    def check(text):
        _, rows = parse_report(text)
        problems = _check_rows(rows, len(ts))
        for row in rows:
            lhs = complex(float(row["lhs_re"]), float(row["lhs_im"]))
            rhs = complex(float(row["rhs_re"]), float(row["rhs_im"]))
            if not abs(lhs - rhs) <= IDENTITY_TOL:
                problems.append(f"t={row['t']}: |lhs - rhs| = {abs(lhs - rhs):.3e} > {IDENTITY_TOL}")
            if row["passed"] != "true":
                problems.append(f"t={row['t']}: report says not passed")
        return problems

    return check


def _near(label, got, want) -> list[str]:
    if abs(float(got) - want) <= SWEEP_TOL:
        return []
    return [f"{label}: {got} differs from reference {want!r} by more than {SWEEP_TOL}"]


def _check_report(ts, ref):
    def check(text):
        _, rows = parse_report(text)
        problems = _check_rows(rows, len(ts))
        for row in rows:
            key = f"{float(row['t']):.2f}"
            if row["theorem_ok"] != "true":
                problems.append(f"t={key}: flagged theorem entry")
            problems += _near(f"report t={key} gap_tail_max", row["gap_tail_max"],
                              ref["report_gap_tail_max"][key])
        return problems

    return check


def _check_bound(ts, ref):
    def check(text):
        _, rows = parse_report(text)
        problems = _check_rows(rows, len(ts))
        for row in rows:
            key = f"{float(row['t']):.2f}"
            if row["passed"] != "true":
                problems.append(f"bound t={key}: not passed")
            if float(row["eps"]) != ref["bound_eps"][key]:
                problems.append(f"bound t={key}: eps {row['eps']} != reference {ref['bound_eps'][key]}")
            for column in ("gap", "term_same", "term_indep"):
                problems += _near(f"bound t={key} {column}", row[column], ref[f"bound_{column}"][key])
        return problems

    return check


def _check_kolmogorov(seed, reference):
    band = dkw_eps(MC_SAMPLES) + reference["dkw_eps"]

    def check(text):
        _, rows = parse_report(text)
        problems = _check_rows(rows, 1)
        for row in rows:
            if (int(row["samples"]), int(row["seed"])) != (MC_SAMPLES, seed):
                problems.append(f"samples/seed columns {row['samples']}/{row['seed']} are wrong")
            distance = float(row["distance"])
            if not abs(distance - reference["distance"]) <= band:
                problems.append(f"distance {distance} outside {reference['distance']} +- {band:.4f}")
        return problems

    return check


def _check_stein(text):
    _, rows = parse_report(text)
    problems = [] if rows else ["empty report"]
    for row in rows:
        if row["passed"] != "true":
            problems.append(f"{row['check']} t={row['t']} x={row['x']}: not passed")
    return problems


# ---------------------------------------------------------------------------
# workload construction


def build(name: str, seed: int) -> Workload:
    """The workload's invocations for this seed; the same seed gives the same inputs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "identity":
        ts = sorted(round(rng.uniform(0.5, 4.0), 3) for _ in range(4))
        args = ("identity", "--family", "eta", "--alpha", "0.5", "--n-list", "100000",
                "--t-list", _fmt(ts))
        return Workload(name, (Invocation(args, _check_identity(ts)),),
                        (("eta", 0.5, 100_000),))
    if name == "sweep":
        ref = _reference()["sweep"]
        ts = sorted(rng.sample(SWEEP_T_GRID, 8))
        report = ("report", "--family", "eta", "--alpha", "0.5", "--t-list", _fmt(ts),
                  "--n-list", SWEEP_N_LIST)
        bound = ("bound", "--family", "eta", "--alpha", "0.5", "--n-list", "100000",
                 "--t-list", _fmt(ts))
        rows = tuple(("eta", 0.5, int(n)) for n in SWEEP_N_LIST.split(","))
        return Workload(name, (Invocation(report, _check_report(ts, ref)),
                               Invocation(bound, _check_bound(ts, ref))), rows)
    if name == "montecarlo":
        ref = _reference()["montecarlo"]
        mc_seed = rng.randrange(2**31)
        common = ("--n-list", "1000", "--samples", str(MC_SAMPLES), "--seed", str(mc_seed))
        rademacher = ("kolmogorov", "--family", "rademacher") + common
        eta = ("kolmogorov", "--family", "eta", "--alpha", "0.5") + common
        return Workload(name, (Invocation(rademacher, _check_kolmogorov(mc_seed, ref["rademacher"])),
                               Invocation(eta, _check_kolmogorov(mc_seed, ref["eta"]))),
                        (("rademacher", None, 1000), ("eta", 0.5, 1000)))
    if name == "stein":
        t = round(rng.uniform(0.5, 3.0), 2)
        x = round(rng.uniform(0.0, 2.5), 2)
        dim2 = ("stein-check", "--dim", "2", "--trials", "1000")
        dim3 = ("stein-check", "--dim", "3", "--t-list", repr(t), "--x-list", repr(x),
                "--trials", "1000")
        return Workload(name, (Invocation(dim2, _check_stein), Invocation(dim3, _check_stein)), ())
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def setup_code(workload: Workload) -> str:
    """Python source for the set-up probe: import the CLI, build every row.

    It prints the path of the imported package so the caller can check
    that the checkout's sources, not an installed copy, were measured.
    """
    lines = ["import steinclt, steinclt.cli",
             "from steinclt.families import EtaAlphaFamily, RademacherFamily"]
    families = {}
    for family, alpha, n in workload.rows:
        if (family, alpha) not in families:
            families[family, alpha] = var = f"family{len(families)}"
            make = "RademacherFamily()" if family == "rademacher" else f"EtaAlphaFamily({alpha!r})"
            lines.append(f"{var} = {make}")
        lines.append(f"{families[family, alpha]}.row({n})")
    lines.append("print(steinclt.__file__)")
    return "\n".join(lines)
