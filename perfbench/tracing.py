"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps public entry points of each
layer (class methods and module functions) for the length of a traced
run and puts the originals back afterwards.  Every wrapped call records
a span -- layer, start, end, parent span and, when its arguments carry
one, the transaction id -- into flat arrays held in memory.  The arrays
are written out once, when the run ends (:meth:`Recorder.dump`).

A layer's *self time* is the time inside its wrapped calls minus the
time inside wrapped calls they make.  Calls nest on one stack because
every wrapped function is synchronous: simulator callbacks and asyncio
callbacks both run to completion before the next one starts.

The end-to-end metrics are always measured with no wrapper installed;
these numbers come from a separate traced run.
"""

from __future__ import annotations

import array
import asyncio
import json
import os
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.metrics import percentile

#: message types broken out under ``sim.network.msgs_per_commit.<type>``;
#: anything else is counted under ``.other``.
MESSAGE_TYPES = (
    "ProposeFast",
    "FastReply",
    "Visibility",
    "ReadRequest",
    "ReadReply",
    "ProposeClassic",
    "OptionOutcome",
    "MPhase1a",
    "MPhase1b",
    "MPhase2a",
    "MPhase2b",
    "StartRecovery",
    "CatchUp",
)

#: the layers time is attributed to, named after the ``src/repro`` modules.
LAYERS = (
    "sim.core",
    "sim.network",
    "transport.base",
    "transport.codec",
    "transport.tcp",
    "core.coordinator",
    "core.storage_node",
    "core.master",
    "core.state",
    "storage",
    "db.client",
    "workloads",
)


def _message_txid(message) -> Optional[str]:
    txid = getattr(message, "txid", None)
    if txid is None:
        option = getattr(message, "option", None)
        txid = getattr(option, "txid", None)
    return txid if isinstance(txid, str) else None


class Recorder:
    """Spans and counts of one process, plus the wrappers that make them."""

    def __init__(self) -> None:
        self.wrapped: List[str] = []  # wrapper id -> "Owner.attr"
        self.wrapper_layer: List[int] = []  # wrapper id -> layer index
        self.self_ns: List[int] = []  # wrapper id -> self time
        self.calls: List[int] = []  # wrapper id -> call count
        self.span_wrapper = array.array("i")
        self.span_parent = array.array("i")
        self.span_tx = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.txids: List[str] = []
        self._txid_index: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._undo: List[tuple] = []
        self._readers: "weakref.WeakSet" = weakref.WeakSet()
        self.lag_ms: List[float] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        tag: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
        outermost_only: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag(args, kwargs)`` returns the call's txid (or None) and may
        count things; ``on_return(result, args)`` sees the result.  With
        ``outermost_only`` a recursive function records only its outermost
        call (the codec walks nested values through its own module name).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        owner_name = owner.__name__.rsplit(".", 1)[-1]
        wid = self._register(f"{owner_name}.{attr}", layer)
        wrapper = self._spanned(original, wid, tag, on_return, outermost_only)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _register(self, name: str, layer: str) -> int:
        wid = len(self.wrapped)
        self.wrapped.append(name)
        self.wrapper_layer.append(LAYERS.index(layer))
        self.self_ns.append(0)
        self.calls.append(0)
        return wid

    def _spanned(
        self,
        original: Callable,
        wid: int,
        tag: Optional[Callable] = None,
        on_return: Optional[Callable] = None,
        outermost_only: bool = False,
    ) -> Callable:
        self_ns = self.self_ns
        calls = self.calls
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        wrappers, parents, txs = self.span_wrapper, self.span_parent, self.span_tx
        intern = self._intern
        now = time.perf_counter_ns
        active = [False]

        def wrapper(*args, **kwargs):
            if outermost_only:
                if active[0]:
                    return original(*args, **kwargs)
                active[0] = True
            index = len(starts)
            wrappers.append(wid)
            parents.append(stack[-1][0] if stack else -1)
            txs.append(intern(tag(args, kwargs)) if tag is not None else -1)
            ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = now()
            starts.append(start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = now()
                ends[index] = end
                stack.pop()
                elapsed = end - start
                self_ns[wid] += elapsed - frame[1]
                calls[wid] += 1
                if stack:
                    stack[-1][1] += elapsed
                if outermost_only:
                    active[0] = False
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    def reset(self) -> None:
        """Forget every span and count so far (keeps the wrappers).
        Only between wrapped calls: an open span would lose its slot."""
        if self._stack:
            raise RuntimeError("reset inside a wrapped call")
        for column in (
            self.span_wrapper,
            self.span_parent,
            self.span_tx,
            self.span_start,
            self.span_end,
        ):
            del column[:]
        for wid in range(len(self.wrapped)):
            self.self_ns[wid] = 0
            self.calls[wid] = 0
        self.txids.clear()
        self._txid_index.clear()
        self.counts.clear()
        self.lag_ms.clear()

    def unwrap(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _intern(self, txid: Optional[str]) -> int:
        if txid is None:
            return -1
        index = self._txid_index.get(txid)
        if index is None:
            index = self._txid_index[txid] = len(self.txids)
            self.txids.append(txid)
        return index

    def wrap_steps(self, factory: Callable) -> Callable:
        """A workload transaction factory whose generator steps are spans
        of the ``workloads`` layer (the workload's own code between the
        calls it makes into the database library)."""
        step = self._spanned(lambda fn, *args: fn(*args), self._register("workload.step", "workloads"))

        class _Steps:
            def __init__(self, generator) -> None:
                self.generator = generator

            def __iter__(self):
                return self

            def __next__(self):
                return step(self.generator.send, None)

            def send(self, value):
                return step(self.generator.send, value)

            def throw(self, *exc):
                return step(self.generator.throw, *exc)

            def close(self):
                self.generator.close()

        def steps(*args):
            return _Steps(factory(*args))

        return steps

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        from repro.core import coordinator, master, state, storage_node
        from repro.core.options import OptionStatus
        from repro.db import client
        from repro.sim import core as sim_core
        from repro.sim import network
        from repro.storage import record, store, wal
        from repro.transport import base, codec, tcp

        counts = self.counts
        readers = self._readers

        def message_at(position: int, prefix: str):
            def tag(args, kwargs):
                message = args[position]
                counts[prefix + message.__class__.__name__] += 1
                return _message_txid(message)

            return tag

        def handler_tag(args, kwargs):
            return _message_txid(args[1])

        def option_tag(args, kwargs):
            return getattr(args[1], "txid", None)

        self.wrap(sim_core.Simulator, "run", "sim.core")
        self.wrap(network.Network, "send", "sim.network", tag=message_at(3, "sim.msg."))
        self.wrap(base.Node, "on_message", "transport.base", tag=handler_tag)

        for cls, layer, prefix in (
            (coordinator.MDCCCoordinator, "core.coordinator", "handle_"),
            (storage_node.MDCCStorageNode, "core.storage_node", "handle_"),
            (master.MasterRole, "core.master", "on_"),
        ):
            for attr in sorted(vars(cls)):
                if attr.startswith(prefix) and callable(vars(cls)[attr]):
                    self.wrap(cls, attr, layer, tag=handler_tag)
        self.wrap(coordinator.MDCCCoordinator, "read", "core.coordinator")
        self.wrap(coordinator.MDCCCoordinator, "commit", "core.coordinator")

        def decided(result, args):
            counts["options.proposed"] += 1
            if result is OptionStatus.ACCEPTED:
                counts["options.accepted"] += 1

        self.wrap(state.RecordState, "decide", "core.state", tag=option_tag, on_return=decided)
        for attr in ("accept_fast", "apply_visibility"):
            self.wrap(state.RecordState, attr, "core.state", tag=option_tag)
        for attr in ("adopt", "catch_up", "refresh_base"):
            self.wrap(state.RecordState, attr, "core.state")

        self.wrap(wal.WriteAheadLog, "append", "storage", tag=lambda a, k: k.get("txid"))
        self.wrap(store.RecordStore, "record", "storage")
        self.wrap(store.RecordStore, "read", "storage")
        for attr in ("commit_value", "commit_delta", "commit_delete", "catch_up", "snapshot"):
            self.wrap(record.Record, attr, "storage")

        def read_tag(args, kwargs):
            if args[0] not in readers:
                readers.add(args[0])
                counts["read_tx"] += 1
            return None

        def committed(result, args):
            is_write = bool(args[0].writeset)

            def on_outcome(future) -> None:
                try:
                    outcome = future.result()
                except Exception:  # noqa: BLE001 - the program reports it to its caller
                    return
                if not is_write:
                    return
                if outcome.committed:
                    counts["write_tx.committed"] += 1
                    if outcome.fast_path:
                        counts["write_tx.fast_path"] += 1

            result.add_done_callback(on_outcome)

        self.wrap(client.Transaction, "read", "db.client", tag=read_tag)
        self.wrap(client.Transaction, "commit", "db.client", on_return=committed)
        for attr in ("write", "insert", "delete", "update_attr"):
            self.wrap(client.Transaction, attr, "db.client")

        def frame_bytes(result, args):
            counts["frame.bytes"] += len(result) + 4  # plus the length prefix

        self.wrap(codec, "encode", "transport.codec", outermost_only=True)
        self.wrap(codec, "decode", "transport.codec", outermost_only=True)
        self.wrap(codec, "encode_frame_payload", "transport.codec", on_return=frame_bytes)
        self.wrap(codec, "decode_frame_payload", "transport.codec")
        self.wrap(tcp.AsyncioTcpTransport, "send", "transport.tcp", tag=message_at(3, "tcp.msg."))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Per-wrapper self time and calls plus the counts: the part of a
        process's trace that merges across processes by addition."""
        return {
            "self_s": {
                name: self.self_ns[wid] / 1e9 for wid, name in enumerate(self.wrapped)
            },
            "layer_of": {
                name: LAYERS[self.wrapper_layer[wid]] for wid, name in enumerate(self.wrapped)
            },
            "calls": {name: self.calls[wid] for wid, name in enumerate(self.wrapped)},
            "counts": dict(self.counts),
            "lag_ms": list(self.lag_ms),
            "spans": len(self.span_start),
        }

    def dump(self, path: str, count: Optional[int] = None) -> None:
        """Write the first ``count`` spans (default all): one JSON header
        line, then the arrays in the order the header's ``arrays`` lists
        (native byte order)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        count = len(self.span_start) if count is None else count
        header = {
            "wrapped": self.wrapped,
            "layers": [LAYERS[index] for index in self.wrapper_layer],
            "txids": self.txids,
            "count": count,
            "arrays": [
                ["wrapper", "i"],
                ["parent", "i"],
                ["txid", "i"],
                ["start_ns", "q"],
                ["end_ns", "q"],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.span_wrapper,
                self.span_parent,
                self.span_tx,
                self.span_start,
                self.span_end,
            ):
                column[:count].tofile(handle)


def read_spans(path: str) -> Dict[str, object]:
    """Load a file written by :meth:`Recorder.dump`: the header plus one
    array per column, keyed by the header's column names."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        for name, typecode in header["arrays"]:
            column = array.array(typecode)
            column.fromfile(handle, header["count"])
            header[name] = column
    return header


class LagSampler:
    """Event-loop lag: how late a periodic timer wakes up, in ms."""

    #: the timer period; lag is how much later than this each wake-up is.
    INTERVAL_S = 0.005

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.INTERVAL_S)
            self.samples.append((loop.time() - before - self.INTERVAL_S) * 1000.0)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    [
        ("trace.write_commits", "count"),
        ("trace.spans", "count"),
        ("trace.untraced_drive_wall_s", "s"),
        ("trace.traced_drive_wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.attributed_share", "share"),
        ("sim.core.events_per_commit", "count"),
        ("sim.core.self_s", "s"),
        ("sim.network.msgs_per_commit", "count"),
    ]
    + [(f"sim.network.msgs_per_commit.{name}", "count") for name in MESSAGE_TYPES]
    + [
        ("sim.network.msgs_per_commit.other", "count"),
        ("sim.network.send_self_s", "s"),
        ("transport.base.dispatch_self_s", "s"),
        ("core.coordinator.self_s", "s"),
        ("core.coordinator.fast_path_share", "share"),
        ("core.storage_node.self_s", "s"),
        ("core.storage_node.handled_per_commit", "count"),
        ("core.state.self_s", "s"),
        ("core.state.option_accept_share", "share"),
        ("core.master.self_s", "s"),
        ("core.master.msgs_per_commit", "count"),
        ("core.master.recoveries_per_commit", "count"),
        ("storage.wal.appends_per_commit", "count"),
        ("storage.self_s", "s"),
        ("db.reads.read_msgs_per_read_tx", "count"),
        ("db.client.self_s", "s"),
        ("workloads.self_s", "s"),
        ("transport.codec.encode_us_per_frame", "us"),
        ("transport.codec.decode_us_per_frame", "us"),
        ("transport.codec.bytes_per_commit", "B"),
        ("transport.tcp.frames_per_commit", "count"),
        ("transport.tcp.send_self_s", "s"),
        ("transport.tcp.loop_lag_p99_ms", "ms"),
    ]
)


def merge_summaries(summaries: List[Dict[str, object]]) -> Dict[str, object]:
    """Add up the traces of several processes (driver and servers)."""
    merged: Dict[str, object] = {
        "self_s": Counter(),
        "calls": Counter(),
        "counts": Counter(),
        "layer_of": {},
        "lag_p99_ms": [],
        "spans": 0,
    }
    for summary in summaries:
        merged["self_s"].update(summary["self_s"])
        merged["calls"].update(summary["calls"])
        merged["counts"].update(summary["counts"])
        merged["layer_of"].update(summary["layer_of"])
        merged["spans"] += summary["spans"]
        if summary["lag_ms"]:
            merged["lag_p99_ms"].append(percentile(sorted(summary["lag_ms"]), 0.99))
    return merged


def per_layer_metrics(
    merged: Dict[str, object],
    *,
    events: int,
    untraced_drive_s: float,
    traced_drive_s: float,
    busy_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a merged trace.

    Per-commit ratios divide by the committed write transactions of the
    whole traced drive (``trace.write_commits``), warmup included.
    ``busy_s`` is the time the layer self times are held against: the
    traced drive's wall time on the simulator, the CPU time of every
    process on TCP.
    """
    self_s: Counter = merged["self_s"]
    calls: Counter = merged["calls"]
    counts: Counter = merged["counts"]
    layer_of: Dict[str, str] = merged["layer_of"]
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    for name, seconds in self_s.items():
        layer_self[layer_of[name]] += seconds
        layer_calls[layer_of[name]] += calls[name]
    commits = counts["write_tx.committed"]
    if commits <= 0:
        raise ValueError("the traced run committed no write transaction")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sim_msgs = {name[len("sim.msg."):]: n for name, n in counts.items() if name.startswith("sim.msg.")}
    frames_out = calls["codec.encode_frame_payload"]
    frames_in = calls["codec.decode_frame_payload"]
    metrics: Dict[str, float] = {
        "trace.write_commits": commits,
        "trace.spans": merged["spans"],
        "trace.untraced_drive_wall_s": untraced_drive_s,
        "trace.traced_drive_wall_s": traced_drive_s,
        "trace.overhead_ratio": ratio(traced_drive_s, untraced_drive_s),
        "trace.attributed_share": ratio(sum(layer_self.values()), busy_s),
        "sim.core.events_per_commit": events / commits,
        "sim.core.self_s": layer_self["sim.core"],
        "sim.network.msgs_per_commit": sum(sim_msgs.values()) / commits,
    }
    for name in MESSAGE_TYPES:
        metrics[f"sim.network.msgs_per_commit.{name}"] = sim_msgs.get(name, 0) / commits
    metrics["sim.network.msgs_per_commit.other"] = (
        sum(n for name, n in sim_msgs.items() if name not in MESSAGE_TYPES) / commits
    )
    metrics.update(
        {
            "sim.network.send_self_s": layer_self["sim.network"],
            "transport.base.dispatch_self_s": layer_self["transport.base"],
            "core.coordinator.self_s": layer_self["core.coordinator"],
            "core.coordinator.fast_path_share": ratio(counts["write_tx.fast_path"], commits),
            "core.storage_node.self_s": layer_self["core.storage_node"],
            "core.storage_node.handled_per_commit": layer_calls["core.storage_node"] / commits,
            "core.state.self_s": layer_self["core.state"],
            "core.state.option_accept_share": ratio(
                counts["options.accepted"], counts["options.proposed"]
            ),
            "core.master.self_s": layer_self["core.master"],
            "core.master.msgs_per_commit": layer_calls["core.master"] / commits,
            "core.master.recoveries_per_commit": calls["MasterRole.on_start_recovery"] / commits,
            "storage.wal.appends_per_commit": calls["WriteAheadLog.append"] / commits,
            "storage.self_s": layer_self["storage"],
            "db.reads.read_msgs_per_read_tx": ratio(
                counts["sim.msg.ReadRequest"] + counts["tcp.msg.ReadRequest"], counts["read_tx"]
            ),
            "db.client.self_s": layer_self["db.client"],
            "workloads.self_s": layer_self["workloads"],
            "transport.codec.encode_us_per_frame": ratio(
                self_s["codec.encode"] + self_s["codec.encode_frame_payload"], frames_out
            )
            * 1e6,
            "transport.codec.decode_us_per_frame": ratio(
                self_s["codec.decode"] + self_s["codec.decode_frame_payload"], frames_in
            )
            * 1e6,
            "transport.codec.bytes_per_commit": counts["frame.bytes"] / commits,
            "transport.tcp.frames_per_commit": frames_out / commits,
            "transport.tcp.send_self_s": layer_self["transport.tcp"],
            "transport.tcp.loop_lag_p99_ms": max(merged["lag_p99_ms"], default=0.0),
        }
    )
    if [name for name, _unit in PER_LAYER] != list(metrics):
        raise RuntimeError("per-layer metrics drifted from PER_LAYER")
    return metrics
