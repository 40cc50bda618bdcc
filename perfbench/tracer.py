"""Layer tracing for steinclt, installed from outside the package.

The tracer wraps the public functions of every ``steinclt`` module and
installs each wrapper on every module namespace that holds the original
(``bounds.l_sum``, ``cli.l_sum`` and ``indices.l_sum`` all get the same
wrapper), so calls are seen however the caller imported the name.  Each
call records a span: name, thread id, parent span, start, end and a few
work counters.  Spans stay in memory; ``summarize`` turns them into the
per-layer metrics listed in ``LAYER_METRICS``.

Run as a script it is a traced ``stein-clt``: it takes the path for the
span file and then ordinary CLI arguments, writes the report exactly
where the untraced CLI would, and writes the spans when the run ends::

    PYTHONPATH=src python3 perfbench/tracer.py spans.json identity --family eta --alpha 0.5 --n-list 1000 --t-list 2
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

MODULES = (
    "bounds", "charfn", "cli", "families", "indices", "normal_cdf",
    "quadrature", "rng", "rows", "stein", "util",
)

# Public helpers left unwrapped: their time belongs to the caller's metric
# (the transform kernel of row_sum_charfn, the erf kernels of normal_cdf),
# or they are argument coercions called thousands of times per run.
UNWRAPPED = frozenset({
    "charfn.row_cell_charfns",
    "normal_cdf.erf",
    "normal_cdf.erfc",
    "util.as_vector",
})

# Span names that differ from <module>.<function>.
SPAN_NAMES = {
    "rows.build_eta_row": "rows.build_row",
    "rows.build_rademacher_row": "rows.build_row",
    "rows.build_product_row": "rows.build_row",
}

# Work counters recorded at call time, from the bound arguments.
COUNTERS = {
    "bounds.identity_rhs": lambda a: {"atoms": a["row"].total_atoms},
    "charfn.row_sum_charfn": lambda a: {"atom_evals": a["row"].total_atoms},
    "charfn.sample_row_sums": lambda a: {"draws": a["samples"] * a["row"].n},
    "indices.l_sum": lambda a: {"atoms_scanned": a["row"].total_atoms},
    "quadrature.gauss_hermite_expect": lambda a: {"points": a["level"] ** a["dim"]},
    "normal_cdf.normal_cdf": lambda a: {"points": _size(a["x"])},
    # ArrayFamily.row: a hit is a row already in the family's cache
    "families.row": lambda a: {"cache_hits": int(a["n"] in a["self"]._cache)},
}

# Per-layer metrics: (name, unit, better, what it should move).  BENCHMARK.json
# lists the same names, units and directions under "per_layer".
LAYER_METRICS = (
    ("bounds.identity_rhs.self_s", "s", "lower", "wall_s, cpu_s, peak_rss_mb on identity"),
    ("bounds.identity_rhs.atom_nodes", "count", "lower", "wall_s, cpu_s, peak_rss_mb on identity"),
    ("bounds.identity_rhs.atom_nodes_per_s", "1/s", "higher", "wall_s, cpu_s, peak_rss_mb on identity"),
    ("bounds.master_bound.calls", "count", "lower", "wall_s on sweep; flat on montecarlo, stein"),
    ("bounds.theorem_bound_report.self_s", "s", "lower", "wall_s on sweep; flat on montecarlo, stein"),
    ("quadrature.integrate_unit.calls", "count", "lower", "wall_s on identity, stein"),
    ("quadrature.integrate_unit.nodes", "count", "lower", "wall_s on identity"),
    ("quadrature.integrate_unit.nodes_per_integral", "count", "lower", "wall_s on identity"),
    ("quadrature.integrate_unit.self_s", "s", "lower", "wall_s on identity, stein"),
    ("quadrature.integrate_unit.failures", "count", "lower", "failed invocations on identity, stein"),
    ("quadrature.gauss_hermite_expect.calls", "count", "lower", "wall_s, cpu_s on stein; flat on sweep, montecarlo"),
    ("quadrature.gauss_hermite_expect.points", "count", "lower", "wall_s, cpu_s on stein; flat on sweep, montecarlo"),
    ("quadrature.gauss_hermite_expect.points_per_s", "1/s", "higher", "wall_s, cpu_s on stein; flat on sweep, montecarlo"),
    ("quadrature.gauss_hermite_expect.self_s", "s", "lower", "wall_s, cpu_s on stein; flat on sweep, montecarlo"),
    ("charfn.row_sum_charfn.calls", "count", "lower", "wall_s on sweep"),
    ("charfn.row_sum_charfn.atom_evals", "count", "lower", "wall_s on sweep"),
    ("charfn.row_sum_charfn.atom_evals_per_s", "1/s", "higher", "wall_s on sweep"),
    ("charfn.row_sum_charfn.self_s", "s", "lower", "wall_s on sweep"),
    ("charfn.charfn_gap.calls", "count", "lower", "wall_s on sweep"),
    ("charfn.sample_row_sums.draws", "count", "lower", "wall_s, cpu_s on montecarlo; flat on stein"),
    ("charfn.sample_row_sums.draws_per_s", "1/s", "higher", "wall_s, cpu_s on montecarlo; flat on stein"),
    ("charfn.sample_row_sums.self_s", "s", "lower", "wall_s, cpu_s on montecarlo; flat on stein"),
    ("indices.l_sum.calls", "count", "lower", "wall_s on sweep; absent elsewhere"),
    ("indices.l_sum.atoms_scanned", "count", "lower", "wall_s on sweep; absent elsewhere"),
    ("indices.l_sum.self_s", "s", "lower", "wall_s on sweep; absent elsewhere"),
    ("indices.lindeberg_sum.calls", "count", "lower", "wall_s on sweep; absent elsewhere"),
    ("indices.lindeberg_sum.self_s", "s", "lower", "wall_s on sweep; absent elsewhere"),
    ("util.exclusive_products.self_s", "s", "lower", "wall_s on identity"),
    ("normal_cdf.normal_cdf.points", "count", "lower", "wall_s on montecarlo"),
    ("normal_cdf.normal_cdf.self_s", "s", "lower", "wall_s on montecarlo"),
    ("stein.gaussian_expectation_identity.self_s", "s", "lower", "wall_s, cpu_s on stein"),
    ("stein.gradient_reduction_residual.self_s", "s", "lower", "wall_s, cpu_s on stein"),
    ("stein.stein_solution.calls", "count", "lower", "wall_s, cpu_s on stein"),
    ("families.row.calls", "count", "lower", "setup_s on all; wall_s on sweep"),
    ("families.row.cache_hits", "count", "higher", "setup_s on all; wall_s on sweep"),
    ("rows.build_row.self_s", "s", "lower", "setup_s on all; wall_s on sweep"),
    ("rows.validate_row.self_s", "s", "lower", "setup_s on all; wall_s on sweep"),
    ("rng.generator.calls", "count", "lower", "wall_s on montecarlo"),
    ("cli.execute.self_s", "s", "lower", "wall_s on all"),
    ("trace.coverage", "1", "higher", "none: share of traced wall time inside layer spans"),
    ("trace.overhead", "1", "lower", "none: traced pass wall over untraced pass wall"),
)

# Span record fields.
ID, NAME, TID, PARENT, START, END, IS_CALL, COUNTS = range(8)


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Collects spans from wrapped steinclt functions; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def open(self, name: str, is_call: bool = True, counts: dict | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span hangs under the span the main
            # thread has open: the CLI fans cases out from inside execute.
            try:
                parent = self._main_stack[-1] if stack is not self._main_stack else None
            except IndexError:
                parent = None
        record = [next(self._ids), name, threading.get_ident(),
                  None if parent is None else parent[ID],
                  time.perf_counter(), None, is_call, counts or {}]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        integrand_arg = name == "quadrature.integrate_unit"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            record = tracer.open(name, True, counts)
            if integrand_arg:
                args = (tracer._traced_integrand(args[0], record),) + args[1:]
            try:
                return fn(*args, **kwargs)
            except tracer._convergence_error:
                record[COUNTS]["failures"] = record[COUNTS].get("failures", 0) + 1
                raise
            finally:
                tracer.close(record)

        return traced

    def _traced_integrand(self, f, quad_record: list):
        """Wrap the callback given to integrate_unit.

        Integrand time is charged to the function that supplied the
        integrand (the span around integrate_unit), so integrate_unit's
        self time is the adaptive loop alone.  Nodes are counted on both.
        """
        stack = self._stack()  # quad_record is on top
        caller = stack[-2] if len(stack) >= 2 else None
        caller_name = caller[NAME] if caller is not None else "quadrature.integrand"

        def integrand(s):
            nodes = _size(s)
            quad_record[COUNTS]["nodes"] = quad_record[COUNTS].get("nodes", 0) + nodes
            if caller is not None:
                caller[COUNTS]["nodes"] = caller[COUNTS].get("nodes", 0) + nodes
            record = self.open(caller_name, False)
            try:
                return f(s)
            finally:
                self.close(record)

        return integrand

    def install(self) -> None:
        """Wrap every traced function in every steinclt namespace holding it."""
        package = importlib.import_module("steinclt")
        self._convergence_error = importlib.import_module("steinclt.errors").ConvergenceError
        modules = {short: importlib.import_module(f"steinclt.{short}") for short in MODULES}
        namespaces = [package, *modules.values()]
        targets = []
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    targets.append((obj, SPAN_NAMES.get(name, name)))
        targets.append((modules["cli"].execute, "cli.execute"))
        for obj, name in targets:
            wrapper = self.wrap(obj, name)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is obj:
                        self._patch(namespace, attr, wrapper)
        # methods: ArrayFamily.row serves every family; RngSeed.generator every stream
        families, rng = modules["families"], modules["rng"]
        self._patch(families.ArrayFamily, "row",
                    self.wrap(families.ArrayFamily.row, "families.row"))
        self._patch(rng.RngSeed, "generator",
                    self.wrap(rng.RngSeed.generator, "rng.generator"))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans) -> dict:
    """Per-name totals of one traced process.

    Returns ``{"names": {name: {"calls", "self_s", "incl_s", <counters>}},
    "covered_s": float}``.  Self time is a span's duration minus the union
    of its child spans (children on worker threads included, so a parent
    waiting on its workers is not charged for the wait); integrand spans
    count toward their owner's self time but not its calls.
    """
    children: dict[int, list] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append(record)
    names: dict[str, dict] = {}
    for record in spans:
        entry = names.setdefault(record[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        duration = record[END] - record[START]
        kids = [(max(k[START], record[START]), min(k[END], record[END]))
                for k in children.get(record[ID], ())]
        entry["self_s"] += duration - _union_length(kids)
        if record[IS_CALL]:
            entry["calls"] += 1
            entry["incl_s"] += duration
        counts = record[COUNTS]
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
        if record[IS_CALL] and "atoms" in counts:
            entry["atom_nodes"] = entry.get("atom_nodes", 0) + counts["atoms"] * counts.get("nodes", 0)
    covered = _union_length([(r[START], r[END]) for r in spans])
    return {"names": names, "covered_s": covered}


def merge(summaries) -> dict:
    """Sum per-process summaries (one per CLI invocation of a pass)."""
    names: dict[str, dict] = {}
    covered = 0.0
    for summary in summaries:
        covered += summary["covered_s"]
        for name, entry in summary["names"].items():
            target = names.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return {"names": names, "covered_s": covered}


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every LAYER_METRICS value for one traced pass; 0 where a layer never ran."""

    def get(name, key):
        return float(summary["names"].get(name, {}).get(key, 0))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for metric, *_ in LAYER_METRICS:
        layer, _, quantity = metric.rpartition(".")
        if layer == "trace":
            continue
        if quantity.endswith("_per_s"):
            out[metric] = ratio(get(layer, quantity[: -len("_per_s")]), get(layer, "incl_s"))
        elif quantity == "nodes_per_integral":
            out[metric] = ratio(get(layer, "nodes"), get(layer, "calls"))
        else:
            out[metric] = get(layer, quantity)
    out["trace.coverage"] = ratio(summary["covered_s"], traced_wall)
    out["trace.overhead"] = ratio(traced_wall, untraced_wall)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_PATH CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("steinclt.cli")
    try:
        return cli.execute(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
