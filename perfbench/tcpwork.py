"""The TCP workload: MDCC as real processes on loopback.

Two data centers, one ``repro serve`` process each, and this process as
the driver: one closed-loop client per data center running the micro
buy transaction (the workload's own generator, stepped over asyncio).

A run repeats rounds until ``--seconds`` have passed (at least
:data:`MIN_ROUNDS`).  Each round picks free ports, spawns and
preloads the servers, waits until every server answers ``@ctrl ping``,
lets every client finish :data:`WARMUP_TXNS` transactions (so dial
backoff and first-use costs land in ``setup_s``), then measures a fixed
batch of :data:`BATCH_TXNS` transactions per client.  The round ends with the output check -- every
item read back at every data center must equal its preloaded stock minus
the decrements of committed transactions -- and a clean server shutdown.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import OUT_DIR, CheckFailed, latency_summary, median, peak_rss_mb
from repro.metrics import CounterSet
from repro.protocols.base import get_protocol
from repro.db.client import Transaction
from repro.sim.rng import RngRegistry
from repro.transport.runner import spawn_server_processes, terminate_servers
from repro.transport.tcp import AsyncioTcpTransport
from repro.transport.topology import make_local_topology
from repro.workloads.micro import ITEMS_TABLE, MicroBenchmark
from tracing import LagSampler, Recorder, merge_summaries, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

DATACENTERS = ("us-west", "us-east")
PROTOCOL = "mdcc"
ITEMS = 200
MIN_STOCK, MAX_STOCK = 500, 1_000
#: a run repeats rounds until ``--seconds`` have passed, at least this often.
MIN_ROUNDS = 3
#: transactions each client completes before the clock starts.
WARMUP_TXNS = 20
#: the measured batch: transactions per client per round.
BATCH_TXNS = 600
TX_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 30.0
CHECK_TIMEOUT_S = 10.0


class _Session:
    """The one thing the workload's transaction generator needs from a
    cluster: ``begin(client)``."""

    def __init__(self, commutative: bool) -> None:
        self.commutative = commutative

    def begin(self, client) -> Transaction:
        return Transaction(client, commutative=self.commutative)


def _bridge(future) -> "asyncio.Future":
    """A transport future as an awaitable of the running loop."""
    result = asyncio.get_running_loop().create_future()

    def on_done(done) -> None:
        if result.done():
            return
        try:
            result.set_result(done.result())
        except Exception as exc:  # noqa: BLE001 - re-raised at the await
            result.set_exception(exc)

    future.add_done_callback(on_done)
    return result


async def _transaction(generator):
    """Run one transaction generator to its return value."""
    value = None
    try:
        while True:
            future = generator.send(value)
            value = await asyncio.wait_for(_bridge(future), TX_TIMEOUT_S)
    except StopIteration as stop:
        return stop.value
    finally:
        generator.close()


async def _client(factory, client, rng, count: int, latencies: List[float], tally: Dict[str, int]) -> None:
    for _ in range(count):
        started = time.perf_counter()
        tally["attempted"] += 1
        try:
            committed, _is_write, _name = await _transaction(factory(client, rng))
        except asyncio.TimeoutError:
            tally["failed"] += 1
            continue
        if committed:
            tally["committed"] += 1
            latencies.append((time.perf_counter() - started) * 1000.0)


def _free_ports(count: int) -> List[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def _wait_ready(transport: AsyncioTcpTransport, topology) -> None:
    """Every server listens and answers ``@ctrl ping``."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    for node_id, address in sorted(topology.nodes.items()):
        while True:
            try:
                _reader, writer = await asyncio.open_connection(address.host, address.port)
            except OSError:
                if time.monotonic() > deadline:
                    raise CheckFailed(f"{node_id} never listened on {address.port}") from None
                await asyncio.sleep(0.005)
                continue
            writer.close()
            await writer.wait_closed()
            break
        reply = await transport.ctrl(node_id, {"op": "ping"}, timeout_s=READY_TIMEOUT_S)
        if not reply.get("ok"):
            raise CheckFailed(f"{node_id} answered ping with {reply}")


async def _mark(transport: AsyncioTcpTransport, topology, mark: str) -> None:
    """Bracket the traced window on every server (see serve.py)."""
    for node_id in sorted(topology.nodes):
        await transport.ctrl(node_id, {"op": "ping", "mark": mark}, timeout_s=READY_TIMEOUT_S)


async def _check(client, bench: MicroBenchmark, topology) -> None:
    """Read every item back at every data center: stock must equal the
    preload minus the committed decrements, and stay >= 0."""
    expected = {key: bench.ledger.expected(ITEMS_TABLE, key, "stock") for key in topology.item_keys()}
    pending = [(key, dc) for key in sorted(expected) for dc in DATACENTERS]
    deadline = time.monotonic() + CHECK_TIMEOUT_S
    while True:
        replies = await asyncio.gather(
            *(_bridge(client.read(ITEMS_TABLE, key, dc=dc)) for key, dc in pending)
        )
        wrong = [
            (key, dc, reply.value)
            for (key, dc), reply in zip(pending, replies)
            if not reply.exists or reply.value.get("stock") != expected[key] or expected[key] < 0
        ]
        if not wrong:
            return
        if time.monotonic() > deadline:
            key, dc, value = wrong[0]
            raise CheckFailed(
                f"{len(wrong)} item replicas wrong, e.g. {key} at {dc}: "
                f"expected stock {expected[key]}, read {value}"
            )
        pending = [(key, dc) for key, dc, _value in wrong]
        await asyncio.sleep(0.05)


async def _drive(topology, per_client: int, started: float, recorder: Optional[Recorder]) -> Dict:
    descriptor = get_protocol(topology.protocol)
    placement = topology.build_placement()
    config = topology.build_config()
    transport = AsyncioTcpTransport(topology, local_dc=DATACENTERS[0], listen=None)
    bench = MicroBenchmark(num_items=ITEMS, min_stock=MIN_STOCK, max_stock=MAX_STOCK)
    for key, stock in topology.preload_plan():
        bench.ledger.track(ITEMS_TABLE, key, "stock", stock)
    factory = bench.transaction(
        _Session(descriptor.supports_commutative and config.commutative_enabled)
    )
    if recorder is not None:
        factory = recorder.wrap_steps(factory)
    rngs = RngRegistry(seed=topology.seed)
    clients = [
        descriptor.make_client(
            transport,
            f"app-{dc}-bench{index + 1}",
            dc,
            placement=placement,
            config=config,
            counters=CounterSet(),
        )
        for index, dc in enumerate(DATACENTERS)
    ]
    client_rngs = [rngs.stream(f"workload.client.{index}") for index in range(len(clients))]
    sampler = LagSampler(recorder.lag_ms) if recorder is not None else None
    trace: Dict[str, object] = {}
    try:
        await _wait_ready(transport, topology)
        if recorder is not None:
            await _mark(transport, topology, "start")
            recorder.reset()
            sampler.start()
            cpu_started = time.process_time()
        warm: Dict[str, int] = {"attempted": 0, "committed": 0, "failed": 0}
        await asyncio.gather(
            *(_client(factory, c, r, WARMUP_TXNS, [], warm) for c, r in zip(clients, client_rngs))
        )
        if warm["failed"]:
            raise CheckFailed(f"{warm['failed']} warmup transactions timed out")
        measure_started = time.perf_counter()
        latencies: List[float] = []
        tally: Dict[str, int] = {"attempted": 0, "committed": 0, "failed": 0}
        await asyncio.gather(
            *(_client(factory, c, r, per_client, latencies, tally) for c, r in zip(clients, client_rngs))
        )
        measured = time.perf_counter()
        if recorder is not None:
            await sampler.stop()
            trace = {
                "summary": recorder.summary(),
                "spans": len(recorder.span_start),
                "cpu_s": time.process_time() - cpu_started,
            }
            await _mark(transport, topology, "end")
        await _check(clients[0], bench, topology)
    finally:
        for node_id in sorted(topology.nodes):
            try:
                await transport.ctrl(node_id, {"op": "shutdown"}, timeout_s=5.0)
            except asyncio.TimeoutError:
                pass
        await transport.close()
    return {
        "setup_s": measure_started - started,
        "drive_s": measured - measure_started,
        "latencies": latencies,
        "tally": tally,
        "trace": trace,
    }


def _launch_traced(path: str, topology, summaries: Dict[str, str]) -> Dict[str, subprocess.Popen]:
    """The servers through this benchmark's launcher, which wraps the
    layers and then calls ``serve_node``."""
    processes = {}
    for node_id in sorted(topology.nodes):
        summaries[node_id] = os.path.join(OUT_DIR, f"server-{node_id}.json")
        processes[node_id] = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "serve.py"),
                "--topology",
                path,
                "--node",
                node_id,
                "--summary",
                summaries[node_id],
                "--spans",
                os.path.join(OUT_DIR, f"spans-tcp-micro-mdcc-{node_id}.bin"),
            ]
        )
    return processes


def _round(seed: int, per_client: int, recorder: Optional[Recorder] = None) -> Dict:
    """One round: servers up, warmup, the measured batch, check, shutdown."""
    started = time.perf_counter()
    topology = make_local_topology(
        datacenters=DATACENTERS,
        protocol=PROTOCOL,
        partitions_per_table=1,
        seed=seed,
        codec="json",
        ports=_free_ports(len(DATACENTERS)),
        items=ITEMS,
        min_stock=MIN_STOCK,
        max_stock=MAX_STOCK,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"topology-{os.getpid()}.json")
    topology.dump(path)
    summaries: Dict[str, str] = {}
    if recorder is None:
        processes = spawn_server_processes(path, topology)
    else:
        processes = _launch_traced(path, topology, summaries)
    try:
        report = asyncio.run(_drive(topology, per_client, started, recorder))
    except BaseException:
        for process in processes.values():
            process.kill()
            process.wait()
        raise
    finally:
        os.remove(path)
    killed = terminate_servers(processes)
    if killed:
        raise CheckFailed(f"servers had to be killed: {killed}")
    report["server_summaries"] = summaries
    return report


def run(seed: int, seconds: float, start_up_s: float) -> Dict[str, object]:
    """The untraced run: the end-to-end metrics, each the median over
    the rounds (a round disturbed by the host shows in one round only)."""
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds.append(_round(seed, BATCH_TXNS))
    latency = [latency_summary(r["latencies"]) for r in rounds]
    attempted = sum(r["tally"]["attempted"] for r in rounds)
    committed = sum(r["tally"]["committed"] for r in rounds)
    failed = sum(r["tally"]["failed"] for r in rounds)
    metrics = {
        "setup_s": start_up_s + median([r["setup_s"] for r in rounds]),
        "drive_wall_s": median([r["drive_s"] for r in rounds]),
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
        "commit_p50_ms": median([summary["p50"] for summary in latency]),
        "commit_p99_ms": median([summary["tail"] for summary in latency]),
        "commits_per_s": median([r["tally"]["committed"] / r["drive_s"] for r in rounds]),
        "commit_share": committed / attempted,
    }
    notes = {
        "rounds": len(rounds),
        "txns_per_client_per_round": BATCH_TXNS,
        "tail_percentile": min(summary["tail_fraction"] for summary in latency),
        "commit_samples_per_round": min(summary["samples"] for summary in latency),
        "failed": failed,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


def run_traced(seed: int, spans_path: Optional[str]) -> Dict[str, object]:
    """One untraced round as the overhead base, then one traced round
    with the driver and both servers wrapped."""
    plain = _round(seed, BATCH_TXNS)
    recorder = Recorder()
    recorder.install()
    try:
        traced = _round(seed, BATCH_TXNS, recorder)
    finally:
        recorder.unwrap()
    if spans_path:
        recorder.dump(spans_path, traced["trace"]["spans"])
    summaries = [traced["trace"]["summary"]]
    busy_s = traced["trace"]["cpu_s"]
    for path in traced["server_summaries"].values():
        with open(path, "r", encoding="utf-8") as handle:
            server = json.load(handle)
        summaries.append(server["trace"])
        busy_s += server["cpu_s"]
    metrics = per_layer_metrics(
        merge_summaries(summaries),
        events=0,
        untraced_drive_s=plain["drive_s"],
        traced_drive_s=traced["drive_s"],
        busy_s=busy_s,
    )
    tally = traced["tally"]
    return {
        "metrics": metrics,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "notes": {"spans": metrics["trace.spans"]},
    }
