"""Tests of the repository tools under tools/."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")


def paired_runs(base, change):
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        runs += [{"pair": pair, "side": "base", "m": b}, {"pair": pair, "side": "change", "m": c}]
    return runs


def test_bench_pairs_summary_counts_ties_for_neither_side():
    runs = paired_runs([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 5.0, 4.0])
    assert bench_pairs.summary(runs, "m", "lower")["change_better_pairs"] == 1
    assert bench_pairs.summary(runs, "m", "higher")["change_better_pairs"] == 1


def test_bench_pairs_summary_quartiles_medians_and_ratio():
    result = bench_pairs.summary(paired_runs([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 4.0, 6.0]), "m", "lower")
    # the inclusive method; the exclusive one would give 1.25 and 3.75
    assert (result["base_q1"], result["base_q3"]) == (1.75, 3.25)
    assert (result["base_median"], result["change_median"]) == (2.5, 3.0)
    assert result["ratio"] == 3.0 / 2.5
    assert result["change_better_pairs"] == 0


def test_bench_pairs_refuses_a_single_pair(tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--base", str(tmp_path), "--change", str(tmp_path), "--workload", "sweep",
                          "--pairs", "1", "--seconds", "0", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()
