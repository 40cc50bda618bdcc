"""stein-clt benchmark: run one workload's CLI invocations and report metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0

Each pass spawns the workload's ``stein-clt`` invocations one after the
other, as a user would run them, and checks every report.  Passes repeat
while the next one still fits in ``--seconds``.  With ``--trace 0`` the
result holds the end-to-end metrics (medians over passes); with
``--trace 1`` passes alternate untraced and traced (perfbench/tracer.py)
and the result holds the per-layer metrics.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The CLI runs with the environment the benchmark was given: neither
STEIN_CLT_THREADS nor any BLAS thread variable is set, so numpy and the
CLI use every core, as they do for users.  The environment is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

# The console script `stein-clt` does exactly this.
CLI_CODE = "from steinclt.cli import main; main()"
TRACER = Path(__file__).with_name("tracer.py")
SETUP_PROBES = 9
MIN_PASSES = 3
THREAD_VARS = ("STEIN_CLT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Pass:
    children: list[Child] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.children)


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], work: Path) -> Child:
    """Run one child to completion; wall from spawn to exit, rusage of that child alone.

    os.wait4 gives the child's own peak RSS.  RUSAGE_CHILDREN would give a
    running maximum over every child reaped so far.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


class Bench:
    def __init__(self, root: Path, workload: workloads.Workload, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_reports: dict[tuple[str, ...], str] = {}

    def setup_s(self) -> list[float]:
        """Fresh-interpreter set-up times: import steinclt.cli, build the rows."""
        code = workloads.setup_code(self.workload)
        expected = self.root / "src" / "steinclt" / "__init__.py"
        times = []
        for _ in range(SETUP_PROBES):
            child = spawn([sys.executable, "-c", code], self.env, self.work)
            if child.returncode != 0:
                raise SystemExit(f"set-up probe failed:\n{child.stderr}")
            if Path(child.stdout.strip()).resolve() != expected.resolve():
                raise SystemExit(f"set-up imported {child.stdout.strip()}, not {expected}")
            times.append(child.wall_s)
        return times

    def run_pass(self, traced: bool, summaries: list | None = None) -> Pass:
        """One pass over the invocations; traced ones append span summaries."""
        one = Pass()
        for index, inv in enumerate(self.workload.invocations):
            spans = self.work / f"spans{index}.json"
            spans.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(TRACER), str(spans), *inv.args]
            else:
                argv = [sys.executable, "-c", CLI_CODE, *inv.args]
            child = spawn(argv, self.env, self.work)
            one.children.append(child)
            self.check(inv, child, traced)
            if traced and spans.exists():
                with open(spans, encoding="utf-8") as fh:
                    summaries.append(tracer.summarize(json.load(fh)))
        return one

    def check(self, inv: workloads.Invocation, child: Child, traced: bool) -> None:
        """Exit code, report content, and byte-identity with the first report."""
        self.attempted += 1
        label = "stein-clt " + " ".join(inv.args) + (" [traced]" if traced else "")
        problems = []
        if child.returncode != 0:
            problems.append(f"exit code {child.returncode}: {child.stderr.strip()[-500:]}")
        else:
            problems += inv.check(child.stdout)
        first = self.first_reports.setdefault(inv.args, child.stdout)
        if child.stdout != first:
            problems.append("report differs from the first report of this run (same seed)")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def passes(self, seconds: float, traced: bool):
        """Untraced passes (or untraced/traced pairs) while the next still fits."""
        start = time.perf_counter()
        done = []
        while True:
            begin = time.perf_counter()
            if traced:
                summaries: list = []
                plain = self.run_pass(False)
                done.append((plain, self.run_pass(True, summaries), summaries))
            else:
                done.append(self.run_pass(False))
            last = time.perf_counter() - begin
            if len(done) >= (1 if traced else MIN_PASSES) and \
                    time.perf_counter() - start + last > seconds:
                return done


def describe(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.4f} ({len(values)} samples"
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return text + f"; p{pct} {q:.4f})"
    return text + "; too few for a tail percentile)"


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "steinclt" / "cli.py").is_file():
        print(f"perfbench: no steinclt sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(root, workloads.build(args.workload, args.seed), work)
        print(f"# env {environment()}")
        print(f"# workload {args.workload} seed {args.seed}: "
              f"{len(bench.workload.invocations)} invocations per pass")
        setup = bench.setup_s()
        done = bench.passes(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"# FAILED {problem}")
    failed_ratio = bench.failed / bench.attempted
    if args.trace:
        per_pass = [tracer.layer_metrics(tracer.merge(summaries), traced.wall_s, plain.wall_s)
                    for plain, traced, summaries in done]
        metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
                   for name, unit, *_ in tracer.LAYER_METRICS}
        for name, entry in metrics.items():
            print(f"{name:48s} [{entry['unit']}] {entry['value']:.6g}")
    else:
        series = {
            "wall_s": ([p.wall_s for p in done], "s"),
            "cpu_s": ([p.cpu_s for p in done], "s"),
            "peak_rss_mb": ([p.peak_rss_mb for p in done], "MB"),
            "setup_s": (setup, "s"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            print(f"{name:12s} [{unit}] {describe(values)}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"{'failed_ratio':12s} [1] {failed_ratio:g} ({bench.failed} of {bench.attempted} invocations)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
