import csv
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from steinclt import (
    EtaAlphaFamily,
    RademacherFamily,
    RngSeed,
    build_product_row,
    build_rademacher_row,
    decomposition_check,
    empirical_charfn,
    gap_table_with_lambda_f,
    row_sum_charfn,
    shift_identity_check,
    stein_check_battery,
)
import steinclt.bounds as bounds_module
from steinclt import quadrature
from steinclt.cli import TOOL, _parse_grid, _t_batch, build_parser, execute

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOOD_ROW = ('{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,'
            ' "cells": [{"atoms": [{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.5}]}]}')
SOURCE_COMMANDS = [["validate"], ["charfn", "--t", "1"], ["gap", "--t", "1"],
                   ["lindeberg"], ["l-sum", "--t", "1"], ["identity", "--t", "1"],
                   ["bound", "--t", "1"], ["report", "--t", "1"],
                   ["kolmogorov", "--samples", "100"]]


def run(argv, capsys):
    code = execute(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))


def test_grid_syntax():
    assert _parse_grid("0:4:0.25", float) == pytest.approx(
        [0.25 * i for i in range(17)]
    )
    assert _parse_grid("1,2,3", float) == [1.0, 2.0, 3.0]
    assert _parse_grid("25", int) == [25]


def test_bound_example(capsys):
    code, out, _ = run(
        ["bound", "--family", "rademacher", "--n", "25", "--t", "1", "--eps", "0.4"],
        capsys,
    )
    assert code == 0
    header, row = csv_rows(out)
    record = dict(zip(header, row))
    assert float(record["slack"]) == pytest.approx(0.798, abs=0.002)
    assert record["passed"] == "true"
    assert "# schema=stein-clt-report/1" in out


def test_identity_example(capsys):
    code, out, _ = run(
        ["identity", "--family", "eta", "--alpha", "0.5", "--n", "8", "--t", "2"],
        capsys,
    )
    assert code == 0
    header, row = csv_rows(out)
    record = dict(zip(header, row))
    assert float(record["residual"]) < 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="false convergence at a lattice resonance, ROADMAP item 3")
@pytest.mark.parametrize("n, t", [
    # t = 100 pi = pi sqrt(n): the row transform returns to modulus 1 at s = 1
    ("10000", "314.1592653589793"),
    # pi sqrt(1000) = 99.35: the spike sits inside the interval, at u = 0.9935
    ("1000", "100"),
])
def test_identity_at_a_lattice_resonance_is_not_misreported_as_broken(n, t, capsys):
    # the single-panel rule misses the spike; the identity holds, so the run
    # must pass (exit 0) or own up to numerical failure (exit 3), not exit 1
    code, _, _ = run(["identity", "--family", "rademacher", "--n", n, "--t", t], capsys)
    assert code in (0, 3)


def test_validate_bad_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad_row.json"
    bad.write_text(
        '{"schema": "stein-clt-row/1", "kind": "explicit", "N": 1,'
        ' "cells": [{"atoms": [{"x": [1.0], "p": 0.5}, {"x": [-1.0], "p": 0.4}]}]}'
    )
    code, _, err = run(["validate", "--spec", str(bad)], capsys)
    assert code == 1
    assert "failed validation" in err


def test_validate_good_spec(tmp_path, capsys):
    good = tmp_path / "row.json"
    good.write_text(GOOD_ROW)
    code, out, _ = run(["validate", "--spec", str(good)], capsys)
    assert code == 0
    header, row = csv_rows(out)
    assert dict(zip(header, row))["passed"] == "true"


@pytest.mark.parametrize("axis", ["n", "t", "eps"])
def test_grid_axis_is_one_option_with_a_list_alias(axis):
    parser = build_parser()
    args = parser.parse_args(["l-sum", f"--{axis}", "1", f"--{axis}-list", "2,3",
                              f"--{axis}", "4:6:2"])
    assert getattr(args, axis) == [1, 2, 3, 4, 6]
    assert not hasattr(args, f"{axis}_list")
    spelled = parser.parse_args(["l-sum", f"--{axis}-list", "1:3:1"])
    assert getattr(spelled, axis) == [1, 2, 3]


def test_stein_check_x_axis_is_one_option():
    args = build_parser().parse_args(["stein-check", "--x-list", "0.5", "--x", "1,2"])
    assert args.x == [0.5, 1.0, 2.0]
    assert not hasattr(args, "x_list")


@pytest.mark.parametrize("n, t, message", [
    ("2.5", "1", "n grid values must be integers"),
    ("1,2.5", "1", "n grid values must be integers"),
    ("1:2:0.5", "1", "n grid values must be integers"),
    ("5", "1:2", "is not start:stop:step"),
    ("5", ",", "is empty"),
    ("10", "0:1e308:1e-10", "has more than 1000000 points"),
    ("10", "0:1e9:1", "has more than 1000000 points"),
    ("10", "1e308:-1e308:1", "is empty"),
    ("5", "0:1:0", "grid step must be positive"),
])
def test_bad_grid_is_a_usage_error(n, t, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        execute(["gap", "--family", "rademacher", "--n", n, "--t", t])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["gap", "--family", "rademacher", "--n", "5", "--t", "1", "--direction", "0"],
     "direction must be nonzero"),
    (["gap", "--family", "product", "--n", "5", "--t", "1", "--direction", "nan,1"],
     "direction must be finite"),
    (["gap", "--spec", "ROW", "--family", "rademacher", "--t", "1"], "not both"),
    (["gap", "--family", "product", "--base", "eta", "--n", "5", "--t", "1"],
     "--base eta requires --alpha"),
    (["report", "--spec", "ROW", "--t", "1"], "needs a family"),
    (["kolmogorov", "--family", "rademacher", "--n", "5", "--samples", "0"],
     "samples must be >= 1"),
    (["stein-check", "--level", "0"], "Gauss-Hermite level must be >= 1"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_bad_argument_is_a_usage_error(argv, message, tmp_path, capsys):
    spec = tmp_path / "row.json"
    spec.write_text(GOOD_ROW)
    code, out, err = run([str(spec) if arg == "ROW" else arg for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["gap", "--family", "rademacher", "--n", "10", "--t-list", "0:inf:1"],
    ["gap", "--family", "rademacher", "--n", "10", "--t-list", "nan:1:0.5"],
    ["gap", "--family", "rademacher", "--n", "10", "--t-list", "0:1:inf"],
    ["gap", "--family", "rademacher", "--n", "inf", "--t", "1"],
    ["l-sum", "--family", "rademacher", "--n", "10", "--t", "1", "--eps", "nan"],
    ["l-sum", "--family", "rademacher", "--n", "10", "--t", "1", "--eps", "nan",
     "--format", "json"],
    ["l-sum", "--family", "rademacher", "--n", "10", "--t", "1", "--eps-list", "0.5,inf"],
    ["lindeberg", "--family", "rademacher", "--n", "10", "--eps", "inf"],
    ["stein-check", "--x=-inf"],
], ids=lambda argv: " ".join(argv[-3:]))
def test_non_finite_grid_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        execute(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has a non-finite value" in captured.err


@pytest.mark.parametrize("command", SOURCE_COMMANDS, ids=lambda argv: argv[0])
def test_single_row_source_rejects_an_n_grid(command, tmp_path, capsys):
    spec = tmp_path / "row.json"
    spec.write_text(GOOD_ROW)
    code, out, err = run(command + ["--spec", str(spec), "--n", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "--spec row has a fixed n" in err


@pytest.mark.parametrize("command", SOURCE_COMMANDS, ids=lambda argv: argv[0])
def test_family_spec_takes_an_n_grid(command, tmp_path, capsys):
    spec = tmp_path / "rad.json"
    spec.write_text('{"schema": "stein-clt-row/1", "kind": "rademacher_iid"}')
    code, out, err = run(command + ["--spec", str(spec), "--n", "10"], capsys)
    assert (code, err) == (0, "")
    _, expected, _ = run(command + ["--family", "rademacher", "--n", "10"], capsys)
    assert csv_rows(out) == csv_rows(expected)


@pytest.mark.parametrize("window", ["0", "-5"])
def test_single_row_lindeberg_checks_the_tail_window(window, tmp_path, capsys):
    spec = tmp_path / "row.json"
    spec.write_text(GOOD_ROW)
    code, out, err = run(["lindeberg", "--spec", str(spec), "--tail-window", window], capsys)
    assert code == 2
    assert out == ""
    assert "tail_window must be >= 1" in err
    assert run(["lindeberg", "--spec", str(spec), "--tail-window", "1"], capsys)[0] == 0


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("stein-clt ")]
    assert len(lines) >= 8
    (tmp_path / "my_row.json").write_text(GOOD_ROW)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(shlex.split(line)[1:], capsys)
        assert (line, code, err) == (line, 0, "")
        assert "# schema=stein-clt-report/1" in out


def test_usage_errors_exit_two(capsys):
    assert run(["gap", "--family", "eta", "--n", "5", "--t", "1"], capsys)[0] == 2
    assert run(["gap", "--t", "1"], capsys)[0] == 2  # no source
    assert run(["gap", "--family", "rademacher", "--t", "1"], capsys)[0] == 2  # no n
    with pytest.raises(SystemExit) as excinfo:
        execute(["no-such-command"])
    assert excinfo.value.code == 2


def test_tail_window_only_on_commands_that_read_it(capsys):
    with pytest.raises(SystemExit) as excinfo:
        execute(["gap", "--family", "rademacher", "--n", "5", "--t", "1",
                 "--tail-window", "3"])
    assert excinfo.value.code == 2
    common = ["--family", "rademacher", "--n-list", "10,20", "--tail-window", "1"]
    for argv in (["lindeberg", "--eps", "0.5"], ["report", "--t", "1"]):
        code, out, _ = run(argv + common, capsys)
        assert code == 0
        assert '"tail_window":1' in out


@pytest.mark.parametrize("command", [["lindeberg", "--eps", "0.5"], ["report", "--t", "1"],
                                     ["report", "--t", "1", "--format", "json"]])
@pytest.mark.parametrize("window", ["0", "-5"])
def test_tail_window_below_one_exits_two(command, window, capsys):
    code, out, err = run(command + ["--family", "rademacher", "--n-list", "10,20,30",
                                    "--tail-window", window], capsys)
    assert code == 2
    assert out == ""
    assert "tail_window must be >= 1" in err


def test_malformed_spec_exits_two(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{not json")
    code, _, err = run(["validate", "--spec", str(doc)], capsys)
    assert code == 2
    assert "line" in err


def test_spec_with_an_oversized_integer_exits_two(tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text(GOOD_ROW.replace('"x": [1.0]', '"x": [1' + "0" * 400 + ']'))
    code, out, err = run(["validate", "--spec", str(doc)], capsys)
    assert (code, out) == (2, "")
    assert "document.cells[0].atoms[0].x" in err


@pytest.mark.parametrize("family, label", [
    (["rademacher"], "rademacher_iid"),
    (["product"], "product(rademacher_iid, rademacher_iid)"),
    (["eta", "--alpha", "0.5"], "eta_alpha(alpha=0.5)"),
], ids=["rademacher", "product", "eta"])
def test_a_row_too_large_to_index_exits_two(family, label, capsys):
    # n = 1e19 overflows the atom count: the family refuses it, naming
    # itself and n, before anything is allocated
    code, out, err = run(["gap", "--family", *family, "--n", "1e19", "--t", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"stein-clt: {label}: n=10000000000000000000 is too large")
    assert err.count("\n") == 1


def test_a_row_too_large_to_allocate_exits_two(monkeypatch, capsys):
    # the allocation is refused by a stub: a real one could be granted and the
    # process then killed by the kernel
    def refuse(self, n):
        raise MemoryError(f"Unable to allocate the atoms of n={n}")

    monkeypatch.setattr(RademacherFamily, "_build", refuse)
    code, out, err = run(["gap", "--family", "rademacher", "--n", "3e9", "--t", "1"], capsys)
    assert (code, out, err) == (2, "", "stein-clt: Unable to allocate the atoms of n=3000000000\n")


def test_convergence_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 0)
    code, _, err = run(["identity", "--family", "rademacher", "--n", "25", "--t", "12"], capsys)
    assert code == 3
    assert "converge" in err


@pytest.mark.parametrize("tolerance", ["--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("command", [
    ["identity", "--family", "rademacher", "--n", "5", "--t", "0"],
    ["stein-check", "--trials", "10"],
])
def test_infinite_quadrature_tolerance_is_a_usage_error(command, tolerance, capsys):
    # the quadrature tolerance is fixed: no value of either option, finite
    # or not, is accepted
    for value in ("inf", "1e-9"):
        with pytest.raises(SystemExit) as excinfo:
            execute(command + [tolerance, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {tolerance} {value}" in captured.err


def test_reports_are_byte_identical(tmp_path):
    argv = ["charfn", "--family", "eta", "--alpha", "0.5", "--n-list", "5,10",
            "--t", "0:2:0.5", "--samples", "5000", "--seed", "11"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert execute(argv + ["--output", str(out1)]) == 0
    assert execute(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_charfn_samples_rows_equal_single_t_calls(capsys):
    t_values = [0.0, 0.5, 1.25, 3.0]
    code, out, _ = run(
        ["charfn", "--family", "eta", "--alpha", "0.5", "--n-list", "6,9",
         "--t-list", ",".join(map(str, t_values)), "--samples", "3000",
         "--seed", "5", "--stream", "2"],
        capsys,
    )
    assert code == 0
    header, *rows = csv_rows(out)
    assert len(rows) == 2 * len(t_values)
    family = EtaAlphaFamily(0.5)
    for record in (dict(zip(header, row)) for row in rows):
        row, t = family.row(int(record["n"])), float(record["t"])
        exact = row_sum_charfn(row, t)
        value, stderr = empirical_charfn(row, t, 3000, RngSeed(5, 2))
        assert [float(record[k]) for k in ("exact_re", "exact_im")] == [exact.real, exact.imag]
        assert [float(record[k]) for k in ("mc_re", "mc_im", "mc_stderr")] == [
            value.real, value.imag, stderr]


def test_json_format(capsys):
    code, out, _ = run(
        ["gap", "--family", "rademacher", "--n", "9", "--t-list", "1,2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == "stein-clt-report/1"
    assert document["columns"] == ["n", "t", "gap"]
    assert len(document["rows"]) == 2
    assert document["config"]["command"] == "gap"


def test_lindeberg_report_metadata(capsys):
    code, out, _ = run(
        ["lindeberg", "--family", "eta", "--alpha", "0.5",
         "--n-list", "1000,3000,10000", "--eps-list", "0.3,0.1,0.03"],
        capsys,
    )
    assert code == 0
    meta = dict(
        line[2:].split("=", 1) for line in out.splitlines()
        if line.startswith("# ") and "=" in line
    )
    assert float(meta["index_estimate"]) == pytest.approx(0.5, abs=0.05)


def test_stein_check_small_battery(capsys):
    code, out, _ = run(
        ["stein-check", "--t-list", "1", "--x-list", "0.7", "--trials", "200",
         "--level", "40"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(out)
    header, data = rows[0], rows[1:]
    assert all(dict(zip(header, row))["passed"] == "true" for row in data)
    checks = {dict(zip(header, row))["check"] for row in data}
    assert {"gradient_fd", "hessian_fd", "stein_equation", "gaussian_moment2",
            "hessian_difference", "shift_identity_scalar"} <= checks


def test_stein_check_any_dimension(capsys):
    code, out, _ = run(
        ["stein-check", "--dim", "8", "--t-list", "1.7", "--x-list", "1.3",
         "--trials", "200"],
        capsys,
    )
    assert code == 0
    header, *data = csv_rows(out)
    rows = [dict(zip(header, row)) for row in data]
    assert {row["check"] for row in rows} >= {"gaussian_moment1", "gaussian_moment2"}
    assert all(row["dim"] == "8" and row["passed"] == "true" for row in rows)
    assert run(["stein-check", "--dim", "0"], capsys)[0] == 2


def test_stein_check_rows_come_from_the_library(capsys):
    code, out, _ = run(["stein-check", "--dim", "2", "--t", "1.3", "--x", "0.7",
                        "--direction", "1,2", "--trials", "30", "--seed", "5",
                        "--level", "40"], capsys)
    assert code == 0
    header, *data = csv_rows(out)
    unit = np.array([1.0, 2.0]) / np.sqrt(5.0)
    x = 0.7 * (np.array([1.0, -1.0]) / np.sqrt(2.0))
    expected = stein_check_battery(1.3 * unit, x, (0.7 * 0.5 - 0.3) * unit, level=40)
    expected += shift_identity_check(2, 30, seed=5)
    assert [(row[0], row[4], row[5]) for row in data] == [
        (check, repr(residual), repr(tol)) for check, residual, tol in expected]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_stein_check_needs_trials(trials, capsys):
    # zero draws would report the shift identities as passed with residual 0
    code, out, err = run(["stein-check", "--t-list", "1", "--x-list", "0.7",
                          "--trials", trials], capsys)
    assert code == 2
    assert out == ""
    assert "--trials must be >= 1" in err


def test_l_sum_command(capsys):
    code, out, _ = run(
        ["l-sum", "--family", "rademacher", "--n", "25", "--t", "1",
         "--eps-list", "0.1,1"],
        capsys,
    )
    assert code == 0
    rows = csv_rows(out)
    data = rows[1:]
    assert len(data) == 4  # 2 thresholds x 2 modes
    # |x t| = 0.2: above threshold 0.1 everything counts, above 1 nothing
    by_key = {(row[2], row[3]): float(row[4]) for row in data}
    assert by_key[("1.0", "same")] == 0.0
    assert by_key[("0.1", "same")] == pytest.approx(1.0, abs=1e-12)


def test_report_metadata_carries_lambda_f(capsys):
    # the lambda_f estimate of the gap table over the family's n grid
    argv = ["--family", "rademacher", "--n-list", "100,1000,5000", "--t", "0.5:2:0.5"]
    code, out, _ = run(["report"] + argv, capsys)
    assert code == 0
    meta = dict(
        line[2:].split("=", 1) for line in out.splitlines()
        if line.startswith("# ") and "=" in line
    )
    _, lambda_f = gap_table_with_lambda_f(RademacherFamily(), np.arange(0.5, 2.01, 0.5)[:, None],
                                          [100, 1000, 5000])
    assert meta["lambda_f_estimate"] == repr(lambda_f)
    assert 0.0 <= lambda_f <= 2.0
    assert "truncation_note" in meta
    # no separate lambda-f command: its table was the gap command over the n grid
    with pytest.raises(SystemExit) as excinfo:
        execute(["lambda-f"] + argv)
    assert excinfo.value.code == 2


def test_kolmogorov_command(capsys):
    code, out, _ = run(
        ["kolmogorov", "--family", "rademacher", "--n", "1",
         "--samples", "50000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    header, row = csv_rows(out)
    assert float(dict(zip(header, row))["distance"]) == pytest.approx(0.3413, abs=0.02)


def test_product_family_cli(capsys):
    code, out, _ = run(
        ["gap", "--family", "product", "--dim", "2", "--n", "4", "--t-list", "1,2"],
        capsys,
    )
    assert code == 0
    assert len(csv_rows(out)) == 3  # header + 2 rows


def test_a_product_family_builds_each_coordinate_row_once(capsys, monkeypatch):
    built, build = [], RademacherFamily._build
    monkeypatch.setattr(RademacherFamily, "_build", lambda self, n: built.append(n) or build(self, n))
    code, _, _ = run(["gap", "--family", "product", "--dim", "3", "--n", "5,10", "--t", "1"], capsys)
    assert code == 0 and built == [5, 10]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        execute(["--version"])
    assert excinfo.value.code == 0


def assert_reports_pinned(name, capsys):
    cases = json.loads((ROOT / "tests" / "data" / name).read_text())
    for case in cases:
        code, out, err = run(case["argv"], capsys)
        assert (code, err) == (0, "")
        assert out == case["stdout"].replace("stein-clt/0.1.0", TOOL), case["argv"]


def test_bound_and_l_sum_reports_are_pinned(capsys):
    # reports of an eta row and a dim-3 product row (off-diagonal direction)
    # written by the per-(t, eps) assembly that preceded the master-bound
    # table; the table must reproduce them byte for byte.  The dim-3 bound
    # entries were re-written when <t, x> took the in-order projection.
    assert_reports_pinned("bound_and_l_sum_reports.json", capsys)


def test_bound_eps_infimum_prints_one_row_per_n_and_t(capsys):
    argv = ["bound", "--family", "rademacher", "--n", "1000,100000", "--t", "0.5,4"]
    code, out, _ = run(argv + ["--eps-infimum"], capsys)
    assert code == 0
    header, *data = csv_rows(out)
    assert header == ["n", "t", "eps", "gap", "term_eps", "term_same", "term_indep",
                      "envelope", "rhs", "slack", "passed"]
    assert [row[:2] for row in data] == [["1000", "0.5"], ["1000", "4.0"],
                                         ["100000", "0.5"], ["100000", "4.0"]]
    for n, t, eps, *_, rhs, _, passed in data:
        assert float(rhs) == pytest.approx(2.0 * float(t) / np.sqrt(int(n)), rel=1e-14)
        assert float(eps) == pytest.approx(float(t) / np.sqrt(int(n)), rel=1e-14)
        assert passed == "true"
    assert '"eps_infimum":true' in out
    # the option adds no config key when absent, so grid reports keep their bytes
    code, out, _ = run(argv, capsys)
    assert code == 0 and "eps_infimum" not in out


def test_bound_eps_infimum_with_an_eps_grid_is_a_usage_error(capsys):
    code, out, err = run(["bound", "--family", "rademacher", "--n", "10", "--t", "1",
                          "--eps", "0.1", "--eps-infimum"], capsys)
    assert (code, out) == (2, "")
    assert "--eps-infimum" in err


def test_identity_and_charfn_reports_are_pinned(capsys):
    # written by the per-(n, t) identity cases and the per-t Monte Carlo
    # records that preceded the identity table and the (value, stderr)
    # arrays: rows in dims 1-3, a 13-point t range along a direction and
    # one sample.  A residual taken with np.abs moves the dim-3 one by an ulp.
    # The dims 2-3 entries were re-written when <t, x> took the in-order projection.
    assert_reports_pinned("identity_and_charfn_reports.json", capsys)


RADIAL_GRID = ["identity", "--family", "product", "--dim", "2", "--n-list", "8",
               "--t-list", "0.1:2.5:0.2", "--direction", "1,-0.5"]


def test_a_radial_grid_runs_one_quadrature(monkeypatch, capsys):
    # the grid's t lifted along one direction differ in t/|t| by up to an
    # ulp, and still share one ray and one quadrature
    calls = []
    monkeypatch.setattr(bounds_module, "integrate_unit",
                        lambda *args, **kwargs: calls.append(1) or quadrature.integrate_unit(*args, **kwargs))
    code, out, _ = run(RADIAL_GRID, capsys)
    assert code == 0 and len(csv_rows(out)) == 14
    assert len(calls) == 1


def test_a_radial_grid_agrees_with_its_single_t_calls():
    # each entry of the one-ray batch is within both error estimates and the
    # rounding of the lift of its single-t call
    row = build_product_row([build_rademacher_row(8)] * 2)
    _, batch = _t_batch(build_parser().parse_args(RADIAL_GRID), 2)
    assert len(bounds_module._rays(batch)) == 1
    table, eps = decomposition_check(row, batch), np.finfo(float).eps
    for i, t in enumerate(batch):
        single = decomposition_check(row, t)
        slack = table.quadrature_error[i] + single.quadrature_error + 16 * eps * (1 + float(t @ t))
        assert abs(table.rhs[i] - single.rhs) <= slack


@pytest.mark.parametrize("t", ["10", "12", "30"])
def test_stein_check_unresolved_rule_is_a_convergence_failure(t, capsys):
    code, out, err = run(["stein-check", "--t", t, "--x", "1", "--trials", "10"], capsys)
    assert (code, out) == (3, "")
    assert "Gauss-Hermite level 60 does not resolve" in err


def test_stein_check_resolved_rules_still_pass(capsys):
    code, out, _ = run(["stein-check", "--t", "1,2,3,8", "--x", "1", "--trials", "10"], capsys)
    assert code == 0
    header, *data = csv_rows(out)
    assert len(data) == 4 * 6 + 2
    assert all(dict(zip(header, row))["passed"] == "true" for row in data)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stein_check_overflow_is_a_usage_error(fmt, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["stein-check", "--t", "1e200", "--x", "1", "--trials", "10",
                              "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert "must be finite" in err


def _schema_rows():
    """{command: metadata keys listed in its row of docs/report-schema.md}."""
    rows = {}
    for line in (ROOT / "docs" / "report-schema.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 2 and cells[1].startswith("`") and "metadata:" in cells[2]:
            listed = cells[2].split("metadata:", 1)[1]
            rows[cells[1].strip("`")] = {part.split("`")[0] for part in listed.split("`")[1::2]}
    return rows


def test_every_metadata_key_is_documented(tmp_path, capsys):
    spec = tmp_path / "row.json"
    spec.write_text(GOOD_ROW)
    rad = ["--family", "rademacher", "--n", "5,10"]
    commands = [["validate", *rad], ["charfn", *rad, "--t", "1"], ["gap", *rad, "--t", "1"],
                ["lindeberg", *rad], ["lindeberg", "--spec", str(spec)],
                ["l-sum", *rad, "--t", "1"], ["identity", *rad, "--t", "1"],
                ["stein-check", "--t", "1", "--x", "1", "--trials", "10"],
                ["bound", *rad, "--t", "1"], ["report", *rad, "--t", "1"],
                ["kolmogorov", "--family", "rademacher", "--n", "5", "--samples", "100"]]
    documented = _schema_rows()
    seen = set()
    for argv in commands:
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        keys = {line[2:].split("=", 1)[0] for line in out.splitlines() if line.startswith("# ")}
        extra = keys - {"schema", "tool", "command", "config"}
        assert extra <= documented.get(argv[0], set()), (argv, extra)
        seen |= extra
    assert {"family", "truncation_note", "max_sum"} <= seen
