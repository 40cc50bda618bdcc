"""Self-tests of the benchmark harness.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_integrand_nodes_one_panel(traced):
    from steinclt import quadrature

    value = quadrature.integrate_unit(lambda s: s**3 + 2.0 * s)
    assert abs(value - 1.25) < 1e-12
    entry = tracer.summarize(traced.spans)["names"]["quadrature.integrate_unit"]
    assert entry["calls"] == 1
    assert entry["nodes"] == 30


def test_atom_nodes_is_nodes_times_atoms(traced):
    from steinclt import bounds, families

    row = families.EtaAlphaFamily(0.5).row(50)
    bounds.identity_rhs(row, 1.0)
    names = tracer.summarize(traced.spans)["names"]
    nodes = names["quadrature.integrate_unit"]["nodes"]
    assert nodes > 0 and nodes % 30 == 0
    assert names["bounds.identity_rhs"]["nodes"] == nodes
    assert names["bounds.identity_rhs"]["atom_nodes"] == nodes * row.total_atoms
    assert names["families.row"]["calls"] == 1


def test_wrappers_reach_every_importing_namespace(traced):
    from steinclt import bounds, cli, indices

    assert bounds.l_sum is cli.l_sum is indices.l_sum
    assert bounds.exclusive_products.__wrapped__.__module__ == "steinclt.util"


def test_uninstall_restores_originals():
    from steinclt import bounds

    original = bounds.l_sum
    t = tracer.Tracer()
    t.install()
    assert bounds.l_sum is not original
    t.uninstall()
    assert bounds.l_sum is original


def test_self_time_subtracts_union_of_children():
    # parent [0, 10] on the main thread; two workers overlap on [2, 8]
    spans = [
        [0, "cli.execute", 1, None, 0.0, 10.0, True, {}],
        [1, "bounds.identity_rhs", 2, 0, 2.0, 7.0, True, {"atoms": 4, "nodes": 30}],
        [2, "bounds.identity_rhs", 3, 0, 3.0, 8.0, True, {"atoms": 4, "nodes": 30}],
        [3, "util.exclusive_products", 2, 1, 4.0, 5.0, True, {}],
    ]
    summary = tracer.summarize(spans)
    names = summary["names"]
    assert names["cli.execute"]["self_s"] == pytest.approx(4.0)
    assert names["bounds.identity_rhs"]["self_s"] == pytest.approx(9.0)
    assert names["bounds.identity_rhs"]["atom_nodes"] == 240
    assert summary["covered_s"] == pytest.approx(10.0)


def test_peak_rss_is_per_child(tmp_path):
    env = run.child_env(ROOT)
    big = run.spawn([sys.executable, "-c", "b = b'x' * (200 << 20)"], env, tmp_path)
    small = run.spawn([sys.executable, "-c", "pass"], env, tmp_path)
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < big.peak_rss_mb - 150


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_inputs(name):
    args = lambda seed: [inv.args for inv in workloads.build(name, seed).invocations]
    assert args(3) == args(3)
    assert args(3) != args(4)
    assert workloads.build(name, 3).rows == workloads.build(name, 4).rows


def test_seeded_values_stay_in_range():
    for seed in range(50):
        identity = workloads.build("identity", seed).invocations[0].args
        ts = [float(t) for t in identity[-1].split(",")]
        assert len(ts) == 4 and all(0.5 <= t <= 4.0 for t in ts)
        sweep = workloads.build("sweep", seed).invocations[0].args
        ts = [float(t) for t in sweep[sweep.index("--t-list") + 1].split(",")]
        assert len(set(ts)) == 8 and all(t in workloads.SWEEP_T_GRID for t in ts)


def test_benchmark_json_lists_the_layer_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [entry[:3] for entry in tracer.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_report_parser():
    text = "# schema=x\n# config={\"a\":1}\nn,t,passed\n1,0.5,true\n"
    meta, rows = workloads.parse_report(text)
    assert meta == {"schema": "x", "config": '{"a":1}'}
    assert rows == [{"n": "1", "t": "0.5", "passed": "true"}]
