"""The simulated workloads: the paper's five data centers on the simulator.

One *window* is what ``repro run`` does for one figure point: build the
cluster, populate it, run the closed-loop clients through warmup and the
measurement window, drain in-flight messages, then audit.  A run repeats
the window with the same seed until ``--seconds`` of wall time are used
(at least :data:`MIN_WINDOWS` times): every repetition must reproduce the
same simulated results, and the wall-clock metrics are medians over them.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, Dict, Optional, Tuple

from common import CheckFailed, latency_summary, median, peak_rss_mb
from repro.api import ClusterSpec, build_cluster
from repro.db.checkers import check_constraints, check_replica_convergence
from repro.workloads.generator import ClientPool
from repro.workloads.micro import ITEMS_TABLE, MicroBenchmark
from repro.workloads.tpcw import TPCWBenchmark
from tracing import Recorder, merge_summaries, per_layer_metrics

#: the shape of ``BENCH_sim_core.json``'s params, shared by both workloads.
PARAMS = {
    "clients": 20,
    "items": 500,
    "min_stock": 500,
    "max_stock": 1_000,
    "partitions_per_table": 2,
    "warmup_ms": 5_000.0,
    "measure_ms": 20_000.0,
    "drain_ms": 10_000.0,
}

#: workload -> (protocol, workload class, audited table)
WORKLOADS = {
    "sim-micro-mdcc": ("mdcc", MicroBenchmark, ITEMS_TABLE),
    "sim-tpcw-multi": ("multi", TPCWBenchmark, "item"),
}

MIN_WINDOWS = 3


def setup(workload: str, seed: int, params: Dict = PARAMS, wrap: Optional[Callable] = None):
    """Build and populate the cluster and create the clients."""
    protocol, bench_class, _table = WORKLOADS[workload]
    cluster = build_cluster(
        ClusterSpec(
            protocol=protocol,
            seed=seed,
            partitions_per_table=params["partitions_per_table"],
        )
    )
    bench = bench_class(
        num_items=params["items"],
        min_stock=params["min_stock"],
        max_stock=params["max_stock"],
    )
    bench.populate(cluster)
    factory = bench.transaction(cluster)
    pool = ClientPool(
        cluster,
        num_clients=params["clients"],
        transaction_factory=wrap(factory) if wrap is not None else factory,
    )
    return cluster, bench, pool


def drive(pool: ClientPool, params: Dict = PARAMS):
    stats = pool.run(warmup_ms=params["warmup_ms"], measure_ms=params["measure_ms"])
    pool.drain(params["drain_ms"])
    return stats


def check(workload: str, cluster, bench) -> None:
    """Ledger audit (no lost update), stock >= 0 and replica convergence."""
    table = WORKLOADS[workload][2]
    keys = [f"item:{i:06d}" for i in range(bench.num_items)]
    problems = bench.ledger.audit(cluster)
    problems += [f"constraint violated: {v}" for v in check_constraints(cluster, table, keys)]
    problems += [f"replicas diverge: {d}" for d in check_replica_convergence(cluster, table, keys)]
    if problems:
        shown = "; ".join(problems[:5])
        raise CheckFailed(f"{workload}: {len(problems)} problems, e.g. {shown}")


def outcome(cluster, stats, params: Dict = PARAMS) -> Dict[str, object]:
    """The simulated-time results: a pure function of the seed."""
    counters = stats.counters
    attempted = sum(
        counters.get(name)
        for name in ("write_commits", "write_aborts", "read_commits", "read_aborts")
    )
    committed = counters.get("write_commits") + counters.get("read_commits")
    latency = latency_summary(stats.write_latencies.values)
    network = cluster.network.stats
    return {
        "commit_p50_ms": latency["p50"],
        "commit_p99_ms": latency["tail"],
        "tail_fraction": latency["tail_fraction"],
        "commit_samples": latency["samples"],
        "commits_per_s": stats.throughput_tps(),
        "commit_share": committed / attempted,
        "attempted": attempted,
        "commits": stats.commits,
        "aborts": stats.aborts,
        "events": cluster.sim.events_processed,
        "messages": network.messages_sent,
        "messages_per_type": dict(sorted(network.per_type.items())),
    }


def _window(workload: str, seed: int, params: Dict) -> Tuple[float, float, Dict]:
    """One timed window: (setup_s, drive_s, simulated results).  Nothing
    of the cluster outlives it, so windows do not add up in memory."""
    gc.collect()
    started = time.perf_counter()
    cluster, bench, pool = setup(workload, seed, params)
    ready = time.perf_counter()
    stats = drive(pool, params)
    done = time.perf_counter()
    check(workload, cluster, bench)
    return ready - started, done - ready, outcome(cluster, stats, params)


def _same(first: Dict, again: Dict, what: str) -> None:
    if json.dumps(first, sort_keys=True) != json.dumps(again, sort_keys=True):
        raise CheckFailed(f"{what} changed the simulated results at the same seed")


def run(workload: str, seed: int, seconds: float, start_up_s: float) -> Dict[str, object]:
    """The untraced run: the end-to-end metrics."""
    setups, drives = [], []
    first = None
    started = time.perf_counter()
    while len(drives) < MIN_WINDOWS or time.perf_counter() - started < seconds:
        setup_s, drive_s, result = _window(workload, seed, PARAMS)
        if first is None:
            first = result
        else:
            _same(first, result, "repeating the window")
        setups.append(setup_s)
        drives.append(drive_s)
    metrics = {
        "setup_s": start_up_s + median(setups),
        "drive_wall_s": median(drives),
        "peak_rss_mb": peak_rss_mb(),
        "commit_p50_ms": first["commit_p50_ms"],
        "commit_p99_ms": first["commit_p99_ms"],
        "commits_per_s": first["commits_per_s"],
        "commit_share": first["commit_share"],
    }
    notes = {
        "windows": len(drives),
        "tail_percentile": first["tail_fraction"],
        "commit_samples": first["commit_samples"],
        "commits": first["commits"],
        "aborts": first["aborts"],
        "events": first["events"],
        "messages": first["messages"],
    }
    return {"metrics": metrics, "attempted": first["attempted"], "failed": 0, "notes": notes}


def run_traced(workload: str, seed: int, spans_path: Optional[str], params: Dict = PARAMS) -> Dict[str, object]:
    """The traced run: one untraced window as the overhead base, then
    one window with every layer wrapped.  Both must agree exactly."""
    _setup_s, untraced_s, plain = _window(workload, seed, params)
    recorder = Recorder()
    recorder.install()
    try:
        gc.collect()
        cluster, bench, pool = setup(workload, seed, params, recorder.wrap_steps)
        recorder.reset()  # spans of building and populating are not the drive
        started = time.perf_counter()
        stats = drive(pool, params)
        traced_s = time.perf_counter() - started
    finally:
        recorder.unwrap()
    check(workload, cluster, bench)
    traced = outcome(cluster, stats, params)
    _same(plain, traced, "tracing")
    if spans_path:
        recorder.dump(spans_path)
    metrics = per_layer_metrics(
        merge_summaries([recorder.summary()]),
        events=cluster.sim.events_processed,
        untraced_drive_s=untraced_s,
        traced_drive_s=traced_s,
        busy_s=traced_s,
    )
    return {
        "metrics": metrics,
        "attempted": traced["attempted"],
        "failed": 0,
        "notes": {"spans": metrics["trace.spans"]},
        "result": traced,
    }
