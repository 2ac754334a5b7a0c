"""The benchmark's own tests: determinism, the output checks and the
result contract.

    python3 -m pytest perfbench -q        (about half a minute)

The simulated-time metrics and every per-layer count must repeat byte for
byte: across runs, across ``PYTHONHASHSEED`` values and between traced
and untraced runs.  At ``BENCH_sim_core.json``'s params the counts of
``sim-micro-mdcc`` must match its committed ``results.mdcc``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import simwork  # noqa: E402
import tcpwork  # noqa: E402
from common import END_TO_END, CheckFailed  # noqa: E402
from tracing import LAYERS, PER_LAYER, read_spans  # noqa: E402

#: a smaller window so the determinism tests stay quick.
SMALL = dict(simwork.PARAMS, clients=10, items=200, warmup_ms=2_000.0, measure_ms=6_000.0, drain_ms=5_000.0)
#: per-layer metrics that are counts or ratios of counts (the rest are times).
COUNTS = [
    name
    for name, unit in PER_LAYER
    if unit in ("count", "share", "B") and name != "trace.attributed_share"
]


def deterministic_view(workload: str, seed: int = 3) -> str:
    """Simulated results plus every per-layer count of a traced run."""
    report = simwork.run_traced(workload, seed, None, SMALL)
    counts = {name: report["metrics"][name] for name in COUNTS}
    return json.dumps({"result": report["result"], "counts": counts}, sort_keys=True)


def _view_in_subprocess(workload: str, hash_seed: str) -> str:
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); import test_perfbench as t; "
        f"print(t.deterministic_view({workload!r}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("workload", sorted(simwork.WORKLOADS))
def test_counts_repeat_across_runs_and_hash_seeds(workload):
    here = deterministic_view(workload)
    assert _view_in_subprocess(workload, "0") == here
    assert _view_in_subprocess(workload, "4242") == here


@pytest.mark.parametrize("workload", sorted(simwork.WORKLOADS))
def test_traced_run_equals_untraced_run(workload):
    _setup_s, _drive_s, untraced = simwork._window(workload, 5, SMALL)
    traced = simwork.run_traced(workload, 5, None, SMALL)["result"]
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)


def test_micro_counts_match_committed_bench_baseline():
    with open(os.path.join(ROOT, "BENCH_sim_core.json"), encoding="utf-8") as handle:
        baseline = json.load(handle)
    params = baseline["params"]
    for key in ("clients", "items", "min_stock", "max_stock", "partitions_per_table", "warmup_ms", "measure_ms"):
        assert simwork.PARAMS[key] == params[key]
    _setup_s, _drive_s, result = simwork._window("sim-micro-mdcc", baseline["seed"], simwork.PARAMS)
    expected = baseline["results"]["mdcc"]
    assert result["events"] == expected["events"] == 141_856
    assert result["messages"] == expected["messages"]["sent"] == 122_604
    assert result["messages_per_type"] == expected["messages"]["per_type"]
    assert (result["commits"], result["aborts"]) == (expected["commits"], expected["aborts"]) == (1_895, 0)


def test_a_lost_update_fails_the_output_check():
    cluster, bench, pool = simwork.setup("sim-micro-mdcc", 3, SMALL)
    simwork.drive(pool, SMALL)
    simwork.check("sim-micro-mdcc", cluster, bench)
    bench.ledger.record_delta("items", "item:000007", "stock", -1)  # a commit the replicas lost
    with pytest.raises(CheckFailed, match="item:000007"):
        simwork.check("sim-micro-mdcc", cluster, bench)


def test_tcp_round_reads_back_every_replica(monkeypatch):
    report = tcpwork._round(3, 20)
    assert report["tally"] == {"attempted": 40, "committed": 40, "failed": 0}
    checked = tcpwork._check

    async def with_a_lost_update(client, bench, topology):
        bench.ledger.record_delta("items", "item:000007", "stock", -1)
        await checked(client, bench, topology)

    monkeypatch.setattr(tcpwork, "_check", with_a_lost_update)
    monkeypatch.setattr(tcpwork, "CHECK_TIMEOUT_S", 0.2)
    with pytest.raises(CheckFailed, match="item:000007"):
        tcpwork._round(3, 20)


def test_self_times_in_the_spans_file_match_the_summary(tmp_path):
    path = str(tmp_path / "spans.bin")
    report = simwork.run_traced("sim-tpcw-multi", 3, path, SMALL)
    spans = read_spans(path)
    child = [0] * spans["count"]
    for index in range(spans["count"]):
        parent = spans["parent"][index]
        if parent >= 0:
            child[parent] += spans["end_ns"][index] - spans["start_ns"][index]
    self_ns = dict.fromkeys(LAYERS, 0)
    for index in range(spans["count"]):
        layer = spans["layers"][spans["wrapper"][index]]
        self_ns[layer] += spans["end_ns"][index] - spans["start_ns"][index] - child[index]
    metrics = report["metrics"]
    assert metrics["trace.spans"] == spans["count"]
    assert self_ns["core.master"] / 1e9 == pytest.approx(metrics["core.master.self_s"], abs=1e-9)
    assert self_ns["sim.core"] / 1e9 == pytest.approx(metrics["sim.core.self_s"], abs=1e-9)
    assert metrics["core.master.self_s"] > 0
    assert metrics["transport.tcp.send_self_s"] == metrics["transport.codec.bytes_per_commit"] == 0


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(simwork.WORKLOADS) | {"tcp-micro-mdcc"}


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-micro-mdcc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
