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
  lambda-f     transform-gap sup/limsup estimate
  kolmogorov   Monte Carlo Kolmogorov distance diagnostic (N = 1)

Grids use ``start:stop:step`` (inclusive) via --t/--n/--eps or comma
lists via --t-list/--n-list/--eps-list.  Reports embed the full resolved
configuration and tool version and contain no timestamps, so identical
argv (and seed) produce byte-identical files.  Exit codes: 0 all checks
passed, 1 check failure, 2 usage/parse error, 3 quadrature convergence
failure.

The environment variable STEIN_CLT_THREADS caps grid-cell parallelism
(default: machine parallelism).  Cells are pure and results are emitted
in sorted grid order, so the thread count never changes the output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .bounds import (
    DEFAULT_BOUND_EPS_GRID,
    decomposition_check,
    gap_table_with_lambda_f,
    master_bound,
    master_bound_best,
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
from .indices import DEFAULT_EPS_GRID, l_sum, lindeberg_index_estimate, lindeberg_sum
from .quadrature import QuadratureSpec
from .rng import RngSeed
from .rows import ArrayRow, validate_row
from .stein import (
    alpha_identities,
    gaussian_expectation_identity,
    gradient_finite_difference,
    gradient_reduction_residual,
    hessian_closed_form,
    hessian_difference,
    hessian_finite_difference,
    stein_gradient,
    stein_residual,
)
from .util import lift_scalar

REPORT_SCHEMA = "stein-clt-report/1"
TOOL = f"stein-clt/{__version__}"


# ---------------------------------------------------------------------------
# grid and argument plumbing

def _parse_grid(text: str, cast):
    """'a:b:step' (inclusive range), 'x,y,z', or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("grid step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
        return [cast(start + i * step) for i in range(count)]
    if "," in text:
        return [cast(float(p)) for p in text.split(",") if p.strip()]
    return [cast(float(text))]


def _grid_option(parser, name, help_text, cast=float):
    parser.add_argument(f"--{name}", metavar="GRID", default=None,
                        help=f"{help_text} (start:stop:step or single value)")
    parser.add_argument(f"--{name}-list", metavar="LIST", default=None,
                        help=f"{help_text} (comma-separated list)")


def _collect_grid(args, name: str, cast=float, default=None):
    values = []
    spec = getattr(args, name.replace("-", "_"))
    listed = getattr(args, f"{name.replace('-', '_')}_list")
    if spec is not None:
        values.extend(_parse_grid(spec, cast))
    if listed is not None:
        values.extend(cast(float(p)) for p in listed.split(",") if p.strip())
    if not values:
        if default is None:
            raise SteinCltError(f"missing required grid --{name}")
        values = list(default)
    return values


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
    parser.add_argument("--direction", default=None,
                        help="comma-separated direction for scalar t on N-dim rows")


def _resolve_source(args):
    """Return an ArrayRow or ArrayFamily from --spec/--family options."""
    if args.spec and args.family:
        raise SteinCltError("give either --spec or --family, not both")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return load_row_spec(fh.read())
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


def _rows_for(args, source) -> list[tuple[int, ArrayRow]]:
    if isinstance(source, ArrayRow):
        return [(source.n, source)]
    n_grid = sorted(set(_collect_grid(args, "n", int)))
    return [(n, source.row(n)) for n in n_grid]


def _family_only(source) -> ArrayFamily:
    if isinstance(source, ArrayRow):
        raise SteinCltError("this command needs a family (sweeps n); got a single row")
    return source


def _direction(args, dim):
    if args.direction is None:
        return None
    return [float(p) for p in args.direction.split(",")]


def _t_vectors(args, dim, default=None):
    values = _collect_grid(args, "t", float, default=default)
    direction = _direction(args, dim)
    return [(tval, lift_scalar(tval, dim, direction)) for tval in values]


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _seed(args) -> RngSeed:
    return RngSeed(args.seed, args.stream)


def _thread_count() -> int:
    env = os.environ.get("STEIN_CLT_THREADS")
    if env is not None:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pmap(fn, items):
    """Order-preserving map, threaded when STEIN_CLT_THREADS allows."""
    items = list(items)
    workers = min(_thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# report writing (deterministic: no timestamps, repr floats, sorted keys)

_CONFIG_SKIP = {"func", "output"}


def _config_dict(args) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in _CONFIG_SKIP or callable(value):
            continue
        config[key] = value
    return config


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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
    if args.format == "csv":
        buffer = io.StringIO()
        buffer.write(f"# schema={REPORT_SCHEMA}\n")
        buffer.write(f"# tool={TOOL}\n")
        buffer.write(f"# command={command}\n")
        config = json.dumps(_jsonable(_config_dict(args)), sort_keys=True,
                            separators=(",", ":"))
        buffer.write(f"# config={config}\n")
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
            "config": _jsonable(_config_dict(args)),
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
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    out = []
    all_ok = True
    for n, row in rows:
        report = validate_row(row)
        all_ok &= report.passed
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
    return 0 if all_ok else 1


def _cmd_charfn(args) -> int:
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    seed = _seed(args)
    out = []
    for n, row in rows:
        for tval, tvec in _t_vectors(args, row.dimension):
            exact = row_sum_charfn(row, tvec)
            if args.samples:
                mc = empirical_charfn(row, tvec, args.samples, seed)
                out.append([n, tval, exact.real, exact.imag,
                            mc.value.real, mc.value.imag, mc.stderr])
            else:
                out.append([n, tval, exact.real, exact.imag, None, None, None])
    _write_report(args, "charfn",
                  ["n", "t", "exact_re", "exact_im", "mc_re", "mc_im", "mc_stderr"],
                  out, {})
    return 0


def _cmd_gap(args) -> int:
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    out = []
    for n, row in rows:
        for tval, tvec in _t_vectors(args, row.dimension):
            out.append([n, tval, charfn_gap(row, tvec)])
    _write_report(args, "gap", ["n", "t", "gap"], out, {})
    return 0


def _cmd_lindeberg(args) -> int:
    source = _resolve_source(args)
    eps_grid = _collect_grid(args, "eps", float, default=DEFAULT_EPS_GRID)
    out = []
    metadata = {}
    if isinstance(source, ArrayRow):
        for eps in eps_grid:
            out.append([eps, source.n, lindeberg_sum(source, eps)])
        metadata["max_sum"] = max(row[2] for row in out)
    else:
        n_grid = sorted(set(_collect_grid(args, "n", int)))
        estimate = lindeberg_index_estimate(source, eps_grid, n_grid, args.tail_window)
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
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    thresholds = _collect_grid(args, "eps", float, default=[1.0])
    out = []
    for n, row in rows:
        for tval, tvec in _t_vectors(args, row.dimension):
            for threshold in thresholds:
                for mode in ("same", "independent"):
                    out.append([n, tval, threshold, mode,
                                l_sum(row, mode, tvec, threshold)])
    _write_report(args, "l-sum", ["n", "t", "threshold", "mode", "value"], out, {})
    return 0


def _cmd_identity(args) -> int:
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    spec = _quad_spec(args)
    cases = [(n, row, tval, tvec)
             for n, row in rows
             for tval, tvec in _t_vectors(args, row.dimension)]
    reports = _pmap(lambda case: decomposition_check(case[1], case[3], spec), cases)
    out = []
    all_ok = True
    for (n, _row, tval, _tvec), rep in zip(cases, reports):
        all_ok &= rep.passed
        out.append([n, tval, rep.lhs.real, rep.lhs.imag, rep.rhs.real, rep.rhs.imag,
                    rep.residual, rep.quadrature_error, rep.passed])
    _write_report(args, "identity",
                  ["n", "t", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                   "residual", "quad_error", "passed"],
                  out, {})
    return 0 if all_ok else 1


def _cmd_bound(args) -> int:
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    eps_grid = _collect_grid(args, "eps", float, default=None) \
        if (args.eps or args.eps_list) else None
    out = []
    all_ok = True
    for n, row in rows:
        for tval, tvec in _t_vectors(args, row.dimension):
            if eps_grid is None:
                reports = [master_bound_best(row, tvec)]
            else:
                reports = [master_bound(row, tvec, eps) for eps in eps_grid]
            for rep in reports:
                all_ok &= rep.passed
                out.append([n, tval, rep.eps, rep.lhs_gap, rep.term_eps, rep.term_same,
                            rep.term_indep, rep.envelope, rep.rhs, rep.slack, rep.passed])
    _write_report(args, "bound",
                  ["n", "t", "eps", "gap", "term_eps", "term_same", "term_indep",
                   "envelope", "rhs", "slack", "passed"],
                  out, {})
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    family = _family_only(_resolve_source(args))
    t_values = _collect_grid(args, "t", float)
    n_grid = sorted(set(_collect_grid(args, "n", int)))
    eps_grid = _collect_grid(args, "eps", float, default=DEFAULT_BOUND_EPS_GRID)
    report = theorem_bound_report(
        family, t_values, n_grid, eps_grid,
        tail_window=args.tail_window, direction=_direction(args, family.dimension),
    )
    out = []
    for tval, entry in zip(t_values, report.entries):
        out.append([tval, entry.gap_tail_max, entry.theorem_rhs, entry.theorem_slack,
                    entry.theorem_ok, report.corollary_rhs, entry.corollary_slack,
                    entry.corollary_ok])
    metadata = {
        "family": report.family_label,
        "l_same_estimate": report.l_same_estimate,
        "l_indep_estimate": report.l_indep_estimate,
        "lindeberg_estimate": report.lindeberg_estimate,
        "lambda_f_estimate": report.lambda_f,
        "tail_window": report.tail_window,
        "slack_floor": report.slack_floor,
        "truncation_note": "sup/limsup estimated on finite grids; see config",
    }
    _write_report(args, "report",
                  ["t", "gap_tail_max", "theorem_rhs", "theorem_slack", "theorem_ok",
                   "corollary_rhs", "corollary_slack", "corollary_ok"],
                  out, metadata)
    return 0 if not report.flagged else 1


def _cmd_lambda_f(args) -> int:
    family = _family_only(_resolve_source(args))
    t_values = _collect_grid(args, "t", float)
    n_grid = sorted(set(_collect_grid(args, "n", int)))
    table, lambda_f = gap_table_with_lambda_f(
        family, t_values, n_grid, args.tail_window, _direction(args, family.dimension)
    )
    out = [[n, tval, table[i, j]]
           for j, n in enumerate(n_grid) for i, tval in enumerate(t_values)]
    metadata = {
        "lambda_f_estimate": lambda_f,
        "tail_window": args.tail_window,
        "truncation_note": "sup/limsup estimated on finite grids; see config",
    }
    _write_report(args, "lambda-f", ["n", "t", "gap"], out, metadata)
    return 0


def _cmd_kolmogorov(args) -> int:
    source = _resolve_source(args)
    rows = _rows_for(args, source)
    seed = _seed(args)
    out = []
    for n, row in rows:
        out.append([n, args.samples, args.seed, args.stream,
                    kolmogorov_mc(row, args.samples, seed)])
    _write_report(args, "kolmogorov",
                  ["n", "samples", "seed", "stream", "distance"], out, {})
    return 0


def _cmd_stein_check(args) -> int:
    spec = _quad_spec(args)
    dim = args.dim
    t_values = _collect_grid(args, "t", float, default=[1.0, 2.0, 3.0])
    x_values = _collect_grid(args, "x", float, default=[0.0, 0.7, 2.5])
    t_dir = _direction(args, dim)
    x_dir = ([1.0] + [-1.0] * (dim - 1)) if dim > 1 else None
    rows = []
    all_ok = True

    def record(check, tval, xval, residual, tol):
        nonlocal all_ok
        ok = residual <= tol
        all_ok &= ok
        rows.append([check, dim, tval, xval, residual, tol, ok])

    s_grid = np.linspace(0.0, 1.0, 21)
    for tval in t_values:
        tvec = lift_scalar(tval, dim, t_dir)
        for xval in x_values:
            xvec = lift_scalar(xval, dim, x_dir)
            fd_grad = gradient_finite_difference(tvec, xvec, spec)
            record("gradient_fd", tval, xval,
                   float(np.max(np.abs(fd_grad - stein_gradient(tvec, xvec, spec)))), 1e-6)
            fd_hess = hessian_finite_difference(tvec, xvec, spec)
            closed = hessian_closed_form(tvec, xvec, spec)
            record("hessian_fd", tval, xval,
                   float(np.max(np.abs(fd_hess.matrix - closed.matrix))), 1e-5)
            record("stein_equation", tval, xval,
                   abs(stein_residual(tvec, xvec, spec)), 1e-7)
            moment2 = max(
                float(np.max(np.abs(gaussian_expectation_identity(tvec, xvec, s, args.level))))
                for s in s_grid
            )
            record("gaussian_moment2", tval, xval, moment2, 1e-9)
            moment1 = max(
                gradient_reduction_residual(tvec, xvec, s, args.level) for s in s_grid
            )
            record("gaussian_moment1", tval, xval, moment1, 1e-9)
    # Hessian-difference self consistency over (t, x, y) triples
    for tval in t_values:
        tvec = lift_scalar(tval, dim, t_dir)
        for xval in x_values:
            xvec = lift_scalar(xval, dim, x_dir)
            yvec = lift_scalar(xval * 0.5 - 0.3, dim, t_dir)
            direct = hessian_difference(tvec, xvec, yvec, spec)
            split = hessian_closed_form(tvec, xvec, spec).matrix \
                - hessian_closed_form(tvec, yvec, spec).matrix
            record("hessian_difference", tval, xval,
                   float(np.max(np.abs(direct - split))), 1e-8)
    # algebraic shift identities on seeded random draws
    rng = np.random.default_rng(args.seed)
    worst1 = worst2 = 0.0
    for _ in range(args.trials):
        y = rng.uniform(-5.0, 5.0, dim)
        t = rng.uniform(-5.0, 5.0, dim)
        s = rng.uniform(0.0, 1.0)
        r1, r2 = alpha_identities(y, t, s)
        worst1 = max(worst1, r1)
        worst2 = max(worst2, r2)
    record("shift_identity_scalar", None, None, worst1, 1e-12)
    record("shift_identity_matrix", None, None, worst2, 1e-12)

    _write_report(args, "stein-check",
                  ["check", "dim", "t", "x", "residual", "tolerance", "passed"],
                  rows, {"trials": args.trials, "level": args.level})
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(parser, *, grids=(), source=True, quad=False, mc=False):
    if source:
        _source_options(parser)
    for grid in grids:
        caster = int if grid == "n" else float
        _grid_option(parser, grid, f"{grid} grid", caster)
    if quad:
        parser.add_argument("--abs-tol", type=float, default=1e-9)
        parser.add_argument("--rel-tol", type=float, default=1e-9)
    if mc:
        parser.add_argument("--samples", type=int, default=0 if mc == "optional" else 100_000)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--tail-window", type=int, default=3)
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
    p.set_defaults(func=_cmd_lindeberg)

    p = sub.add_parser("l-sum", help="directional truncated second-moment sums")
    _add_common(p, grids=("n", "t", "eps"))
    p.set_defaults(func=_cmd_l_sum)

    p = sub.add_parser("identity", help="exact identity residuals")
    _add_common(p, grids=("n", "t"), quad=True)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("stein-check", help="Stein machinery verification battery")
    _add_common(p, grids=("t", "x"), source=False, quad=True)
    p.add_argument("--dim", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--level", type=int, default=60, help="Gauss-Hermite level")
    p.add_argument("--trials", type=int, default=10_000,
                   help="random draws for the shift identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direction", default=None)
    p.set_defaults(func=_cmd_stein_check)

    p = sub.add_parser("bound", help="master-inequality terms and slack")
    _add_common(p, grids=("n", "t", "eps"))
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("report", help="asymptotic bound report for a family")
    _add_common(p, grids=("n", "t", "eps"))
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lambda-f", help="transform-gap sup/limsup estimate")
    _add_common(p, grids=("n", "t"))
    p.set_defaults(func=_cmd_lambda_f)

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
