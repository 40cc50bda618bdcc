"""Command-line driver: grid sweeps over the library with CSV/JSON reports.

Subcommands map one-to-one onto library operations:

  validate     row validation residuals
  charfn       exact (and optionally Monte Carlo) row-sum transforms
  gap          pointwise transform gap vs the Gaussian limit
  lindeberg    Lindeberg sums over an (eps, n) grid + index estimate
  l-sum        directional truncated second-moment sums
  identity     exact-identity residuals (lhs vs quadrature rhs)
  stein-check  Stein machinery verification battery
  bound        master-inequality terms and slack
  report       asymptotic bound report (gap tails vs theorem/corollary rhs)
  kolmogorov   Monte Carlo Kolmogorov distance diagnostic (N = 1)

Each command parses, lifts scalar t along --direction, loops over
library calls and writes a report.  A grid axis (--n/--t/--eps/--x) is
one option with an alias --<axis>-list; each takes ``start:stop:step``
(inclusive), a comma list or one value, and repeats concatenate.  n
must be integral, and --n with a --spec row is a usage error.  Reports
embed the resolved configuration and tool version and contain no
timestamps, so identical argv (and seed) produce byte-identical files.
Exit codes: 0 all checks passed, 1 check failure, 2 usage/parse error,
3 quadrature convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import (
    DEFAULT_BOUND_EPS_GRID,
    SLACK_FLOOR,
    decomposition_check,
    master_bound,
    theorem_bound_report,
)
from .charfn import charfn_gap, empirical_charfn, kolmogorov_mc, row_sum_charfn
from .errors import (
    ConvergenceError,
    RowSpecError,
    RowValidationError,
    SteinCltError,
)
from .families import ArrayFamily, EtaAlphaFamily, ProductFamily, RademacherFamily, load_row_spec
from .indices import DEFAULT_EPS_GRID, DEFAULT_TAIL_WINDOW, _directional_sums, _tail_window
from .indices import l_sum  # noqa: F401  unused here; perfbench's tracer test wraps cli.l_sum
from .indices import lindeberg_index_estimate, lindeberg_sum
from .quadrature import QuadratureSpec
from .rng import RngSeed
from .rows import ArrayRow, validate_row
from .stein import DEFAULT_HERMITE_LEVEL, shift_identity_check, stein_check_battery
from .util import lift_scalar

REPORT_SCHEMA = "stein-clt-report/1"
TOOL = f"stein-clt/{__version__}"


# ---------------------------------------------------------------------------
# grid and argument plumbing

# a start:stop:step grid is expanded into a list; more points is a usage error
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(text: str, cast):
    """'a:b:step' (inclusive range), 'x,y,z', or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid {text!r} is not start:stop:step")
        start, stop, step = _finite(text, parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        count = np.floor((stop - start) / step + 1e-9) + 1
        if count > _MAX_GRID_POINTS:  # an overflowed, infinite count included
            raise argparse.ArgumentTypeError(
                f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        values = [start + i * step for i in range(int(max(count, 0)))]
    else:
        values = _finite(text, [p for p in text.split(",") if p.strip()])
    if not values:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    return [cast(value) for value in values]


def _finite(text: str, parts) -> list[float]:
    """The numbers of grid ``text`` as floats; inf and NaN are usage errors."""
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"grid {text!r} has a non-finite value")
    return values


def _whole(value: float) -> int:
    """Cast for the n axis: an integer-valued float, else a usage error."""
    if not float(value).is_integer():
        raise argparse.ArgumentTypeError(f"n grid values must be integers (got {value!r})")
    return int(value)


def _vector(text: str) -> list[float]:
    """A comma-separated vector, as given to --direction."""
    return [float(p) for p in text.split(",")]


def _grid_option(parser, name, cast):
    def grid(text):
        return _parse_grid(text, cast)

    parser.add_argument(f"--{name}", f"--{name}-list", action="extend", type=grid,
                        metavar="GRID", default=None,
                        help=f"{name} grid: start:stop:step (inclusive), a comma list or "
                             "one value; repeats concatenate")


def _collect_grid(args, name: str, default=None):
    values = getattr(args, name)
    if values is None:
        if default is None:
            raise SteinCltError(f"missing required grid --{name}")
        values = list(default)
    return values


def _n_grid(args) -> list[int]:
    return sorted(set(_collect_grid(args, "n")))


def _source_options(parser):
    parser.add_argument("--spec", metavar="PATH", help="array-spec JSON document")
    parser.add_argument("--family", choices=["rademacher", "eta", "product"],
                        help="built-in family")
    parser.add_argument("--alpha", type=float, help="alpha for the eta family")
    parser.add_argument("--shifted-start", action="store_true",
                        help="allow alpha > 1/2 via the shifted-start variant")
    parser.add_argument("--dim", type=int, default=2,
                        help="dimension for --family product (default 2)")
    parser.add_argument("--base", choices=["rademacher", "eta"], default="rademacher",
                        help="coordinate family for --family product")
    parser.add_argument("--direction", type=_vector, default=None,
                        help="comma-separated direction for scalar t on N-dim rows")


def _resolve_source(args):
    """Return an ArrayRow or ArrayFamily from --spec/--family options."""
    if args.spec and args.family:
        raise SteinCltError("give either --spec or --family, not both")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            source = load_row_spec(fh.read())
        if isinstance(source, ArrayRow) and args.n is not None:
            raise SteinCltError("--n sweeps a family; a --spec row has a fixed n")
        return source
    if args.family == "rademacher":
        return RademacherFamily()
    if args.family == "eta":
        if args.alpha is None:
            raise SteinCltError("--family eta requires --alpha")
        return EtaAlphaFamily(args.alpha, shifted_start=args.shifted_start)
    if args.family == "product":
        if args.base == "eta":
            if args.alpha is None:
                raise SteinCltError("--base eta requires --alpha")
            base = lambda: EtaAlphaFamily(args.alpha, shifted_start=args.shifted_start)
        else:
            base = RademacherFamily
        return ProductFamily([base() for _ in range(args.dim)])
    raise SteinCltError("no input: give --spec or --family")


def _rows_for(args) -> list[tuple[int, ArrayRow]]:
    source = _resolve_source(args)
    if isinstance(source, ArrayRow):
        return [(source.n, source)]
    return [(n, source.row(n)) for n in _n_grid(args)]


def _family_only(source) -> ArrayFamily:
    if isinstance(source, ArrayRow):
        raise SteinCltError("this command needs a family (sweeps n); got a single row")
    return source


def _t_batch(args, dim, default=None):
    """The t grid as its scalar values and as one (m, N) batch of vectors."""
    t_values = _collect_grid(args, "t", default)
    return t_values, np.array([lift_scalar(t, dim, args.direction) for t in t_values])


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _seed(args) -> RngSeed:
    return RngSeed(args.seed, args.stream)


# ---------------------------------------------------------------------------
# report writing (deterministic: no timestamps, repr floats, sorted keys)

def _format_cell(value) -> str:
    value = _jsonable(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _write_report(args, command: str, columns, rows, metadata) -> None:
    config = _jsonable({key: value for key, value in vars(args).items()
                        if key not in ("func", "output")})
    if args.format == "csv":
        buffer = io.StringIO()
        buffer.write(f"# schema={REPORT_SCHEMA}\n")
        buffer.write(f"# tool={TOOL}\n")
        buffer.write(f"# command={command}\n")
        buffer.write(f"# config={json.dumps(config, sort_keys=True, separators=(',', ':'))}\n")
        for key in sorted(metadata):
            buffer.write(f"# {key}={_format_cell(metadata[key])}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        text = buffer.getvalue()
    else:
        document = {
            "schema": REPORT_SCHEMA,
            "tool": TOOL,
            "command": command,
            "config": config,
            "metadata": _jsonable(metadata),
            "columns": list(columns),
            "rows": [_jsonable(list(row)) for row in rows],
        }
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns process exit code)

def _cmd_validate(args) -> int:
    # every row passed validate_row with these tolerances when it was built
    out = []
    for n, row in _rows_for(args):
        report = validate_row(row)
        out.append([
            n, row.n, float(np.max(report.prob_residuals)),
            float(np.max(report.mean_residuals)), report.cov_residual,
            report.second_moment_sum, report.second_moment_residual, report.passed,
        ])
    _write_report(args, "validate",
                  ["n", "cells", "max_prob_residual", "max_mean_residual",
                   "cov_residual", "second_moment_sum", "second_moment_residual",
                   "passed"],
                  out, {})
    return 0


def _cmd_charfn(args) -> int:
    seed = _seed(args)
    out = []
    for n, row in _rows_for(args):
        t_values, batch = _t_batch(args, row.dimension)
        exact = row_sum_charfn(row, batch)
        if args.samples:
            values, stderr = empirical_charfn(row, batch, args.samples, seed)
            mc = zip(values.real, values.imag, stderr)
        else:
            mc = [(None, None, None)] * len(t_values)
        for tval, value, columns in zip(t_values, exact, mc):
            out.append([n, tval, value.real, value.imag, *columns])
    _write_report(args, "charfn",
                  ["n", "t", "exact_re", "exact_im", "mc_re", "mc_im", "mc_stderr"],
                  out, {})
    return 0


def _cmd_gap(args) -> int:
    out = []
    for n, row in _rows_for(args):
        t_values, batch = _t_batch(args, row.dimension)
        out.extend([n, tval, gap] for tval, gap in zip(t_values, charfn_gap(row, batch)))
    _write_report(args, "gap", ["n", "t", "gap"], out, {})
    return 0


def _cmd_lindeberg(args) -> int:
    source = _resolve_source(args)
    eps_grid = _collect_grid(args, "eps", default=DEFAULT_EPS_GRID)
    out = []
    metadata = {}
    if isinstance(source, ArrayRow):
        _tail_window([source.n], args.tail_window)
        sums = lindeberg_sum(source, eps_grid)
        out = [[eps, source.n, value] for eps, value in zip(eps_grid, sums.tolist())]
        metadata["max_sum"] = max(row[2] for row in out)
    else:
        estimate = lindeberg_index_estimate(source, eps_grid, _n_grid(args), args.tail_window)
        for i, eps in enumerate(estimate.eps_grid):
            for j, n in enumerate(estimate.n_grid):
                out.append([eps, n, float(estimate.per_point[i, j])])
        metadata["index_estimate"] = estimate.value
        metadata["tail_window"] = estimate.tail_window
        metadata["tail_increasing_eps"] = ",".join(repr(e) for e in estimate.tail_increasing)
        metadata["non_monotone_eps"] = ",".join(repr(e) for e in estimate.non_monotone)
    _write_report(args, "lindeberg", ["eps", "n", "lindeberg_sum"], out, metadata)
    return 0


def _cmd_l_sum(args) -> int:
    thresholds = _collect_grid(args, "eps", default=[1.0])
    out = []
    for n, row in _rows_for(args):
        t_values, batch = _t_batch(args, row.dimension)
        same, indep = _directional_sums(row, batch, thresholds)
        for tval, same_t, indep_t in zip(t_values, same.tolist(), indep.tolist()):
            for threshold, value_same, value_indep in zip(thresholds, same_t, indep_t):
                out.append([n, tval, threshold, "same", value_same])
                out.append([n, tval, threshold, "independent", value_indep])
    _write_report(args, "l-sum", ["n", "t", "threshold", "mode", "value"], out, {})
    return 0


def _cmd_identity(args) -> int:
    spec = _quad_spec(args)
    out = []
    all_ok = True
    for n, row in _rows_for(args):
        t_values, batch = _t_batch(args, row.dimension)
        rep = decomposition_check(row, batch, spec)
        table = (rep.lhs.real, rep.lhs.imag, rep.rhs.real, rep.rhs.imag, rep.residual,
                 rep.quadrature_error, rep.passed)
        all_ok &= bool(np.all(table[-1]))
        out.extend([n, tval, *cells] for tval, *cells in zip(t_values, *table))
    _write_report(args, "identity",
                  ["n", "t", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                   "residual", "quad_error", "passed"],
                  out, {})
    return 0 if all_ok else 1


def _cmd_bound(args) -> int:
    eps_grid = _collect_grid(args, "eps", default=DEFAULT_BOUND_EPS_GRID)
    out = []
    all_ok = True
    for n, row in _rows_for(args):
        t_values, batch = _t_batch(args, row.dimension)
        rep = master_bound(row, batch, eps_grid)
        table = (rep.eps, rep.lhs_gap, rep.term_eps, rep.term_same, rep.term_indep,
                 rep.envelope, rep.rhs, rep.slack, rep.passed)
        if args.eps is None:  # the rhs-minimising eps of each t
            best = np.argmin(rep.rhs, axis=1)[:, None]
            table = tuple(np.take_along_axis(column, best, axis=1) for column in table)
        all_ok &= bool(np.all(table[-1]))
        for tval, *entries in zip(t_values, *table):
            out.extend([n, tval, *cells] for cells in zip(*entries))
    _write_report(args, "bound",
                  ["n", "t", "eps", "gap", "term_eps", "term_same", "term_indep",
                   "envelope", "rhs", "slack", "passed"],
                  out, {})
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    family = _family_only(_resolve_source(args))
    t_values, batch = _t_batch(args, family.dimension)
    eps_grid = _collect_grid(args, "eps", default=DEFAULT_BOUND_EPS_GRID)
    report = theorem_bound_report(family, batch, _n_grid(args), eps_grid, args.tail_window)
    columns = (report.gap_tail_max, report.theorem_rhs, report.theorem_slack,
               report.theorem_ok, report.corollary_slack, report.corollary_ok)
    out = [[tval, gap, rhs, slack, ok, report.corollary_rhs, cor_slack, cor_ok]
           for tval, gap, rhs, slack, ok, cor_slack, cor_ok in zip(t_values, *columns)]
    metadata = {
        "family": report.family_label,
        "l_same_estimate": report.l_same_estimate,
        "l_indep_estimate": report.l_indep_estimate,
        "lindeberg_estimate": report.lindeberg_estimate,
        "lambda_f_estimate": report.lambda_f,
        "tail_window": report.tail_window,
        "slack_floor": SLACK_FLOOR,
        "truncation_note": "sup/limsup estimated on finite grids; see config",
    }
    _write_report(args, "report",
                  ["t", "gap_tail_max", "theorem_rhs", "theorem_slack", "theorem_ok",
                   "corollary_rhs", "corollary_slack", "corollary_ok"],
                  out, metadata)
    return 0 if not report.flagged else 1


def _cmd_kolmogorov(args) -> int:
    seed = _seed(args)
    out = []
    for n, row in _rows_for(args):
        out.append([n, args.samples, args.seed, args.stream,
                    kolmogorov_mc(row, args.samples, seed)])
    _write_report(args, "kolmogorov",
                  ["n", "samples", "seed", "stream", "distance"], out, {})
    return 0


def _cmd_stein_check(args) -> int:
    dim = args.dim
    if dim < 1:
        raise SteinCltError(f"--dim must be >= 1 (got {dim})")
    if args.trials < 1:
        raise SteinCltError(f"--trials must be >= 1 (got {args.trials})")
    spec = _quad_spec(args)
    t_values, t_batch = _t_batch(args, dim, default=[1.0, 2.0, 3.0])
    x_values = _collect_grid(args, "x", default=[0.0, 0.7, 2.5])
    x_dir = [1.0] + [-1.0] * (dim - 1)  # off the default t diagonal
    checks = []
    for tval, tvec in zip(t_values, t_batch):
        for xval in x_values:
            xvec = lift_scalar(xval, dim, x_dir)
            yvec = lift_scalar(xval * 0.5 - 0.3, dim, args.direction)
            checks.extend((tval, xval, *check) for check in
                          stein_check_battery(tvec, xvec, yvec, spec, args.level))
    checks.extend((None, None, *check)
                  for check in shift_identity_check(dim, args.trials, args.seed))
    rows = [[check, dim, tval, xval, residual, tol, residual <= tol]
            for tval, xval, check, residual, tol in checks]
    _write_report(args, "stein-check",
                  ["check", "dim", "t", "x", "residual", "tolerance", "passed"],
                  rows, {"trials": args.trials, "level": args.level})
    return 0 if all(row[-1] for row in rows) else 1


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(parser, *, grids=(), source=True, quad=False, mc=False):
    if source:
        _source_options(parser)
    for grid in grids:
        _grid_option(parser, grid, _whole if grid == "n" else float)
    if quad:
        parser.add_argument("--abs-tol", type=float, default=1e-9)
        parser.add_argument("--rel-tol", type=float, default=1e-9)
    if mc:
        parser.add_argument("--samples", type=int, default=0 if mc == "optional" else 100_000)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stein-clt",
        description="Transform-gap CLT toolkit: exact identities, finite-n bounds "
                    "and index estimates for triangular arrays.",
    )
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check standard-row properties")
    _add_common(p, grids=("n",))
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("charfn", help="exact/Monte Carlo row-sum transforms")
    _add_common(p, grids=("n", "t"), mc="optional")
    p.set_defaults(func=_cmd_charfn)

    p = sub.add_parser("gap", help="pointwise transform gap vs Gaussian")
    _add_common(p, grids=("n", "t"))
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("lindeberg", help="Lindeberg sums and index estimate")
    _add_common(p, grids=("n", "eps"))
    p.add_argument("--tail-window", type=int, default=DEFAULT_TAIL_WINDOW)
    p.set_defaults(func=_cmd_lindeberg)

    p = sub.add_parser("l-sum", help="directional truncated second-moment sums")
    _add_common(p, grids=("n", "t", "eps"))
    p.set_defaults(func=_cmd_l_sum)

    p = sub.add_parser("identity", help="exact identity residuals")
    _add_common(p, grids=("n", "t"), quad=True)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("stein-check", help="Stein machinery verification battery")
    _add_common(p, grids=("t", "x"), source=False, quad=True)
    p.add_argument("--dim", type=int, default=1,
                   help="dimension of t and x (any N >= 1: the Gaussian moment checks "
                        "multiply 1-D Gauss-Hermite sums, O(N * level) each)")
    p.add_argument("--level", type=int, default=DEFAULT_HERMITE_LEVEL, help="1-D Gauss-Hermite level")
    p.add_argument("--trials", type=int, default=10_000,
                   help="random draws for the shift identities (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direction", type=_vector, default=None,
                   help="comma-separated direction for t and the Hessian-difference point")
    p.set_defaults(func=_cmd_stein_check)

    p = sub.add_parser("bound", help="master-inequality terms and slack")
    _add_common(p, grids=("n", "t", "eps"))
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("report", help="asymptotic bound report for a family")
    _add_common(p, grids=("n", "t", "eps"))
    p.add_argument("--tail-window", type=int, default=DEFAULT_TAIL_WINDOW)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("kolmogorov", help="Monte Carlo Kolmogorov diagnostic (N=1)")
    _add_common(p, grids=("n",), mc=True)
    p.set_defaults(func=_cmd_kolmogorov)

    return parser


def execute(argv=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"stein-clt: quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except RowValidationError as exc:
        print(f"stein-clt: {exc}", file=sys.stderr)
        return 1 if args.command == "validate" else 2
    except (RowSpecError, SteinCltError, OSError, ValueError) as exc:
        print(f"stein-clt: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(execute())


if __name__ == "__main__":
    main()
