"""Asyncio TCP transport: one OS process per node, real sockets, wall clocks.

Frames are ``4-byte big-endian length | codec tag | payload`` (see
:mod:`repro.transport.codec`); an envelope carries ``src``/``src_dc``/
``dst`` plus the encoded message.  Routing, in order:

1. **local** — the destination is hosted by this transport: dispatch on
   the next loop tick;
2. **learned** — a peer we have heard from: reply down the connection its
   frame arrived on (this is how storage nodes answer driver
   coordinators, which have no listening address);
3. **topology** — a configured server address: lazily dial with
   exponential backoff, queueing frames per destination until the
   connection lands.

A framing-layer **nemesis** applies per-(src DC, dst DC) link faults —
drop / extra delay / duplicate — on the outbound path, so the PR 2 chaos
schedules drive real processes the same way they drive the simulator.
Control frames addressed to ``@ctrl`` administer a remote transport:
``shutdown``, ``set_link``, ``heal``, ``ping``.

Each connection, dialed or accepted, is one :class:`_Link` protocol.
Outbound frames collect in the link's outbox and go out in one socket
write per link per loop tick; inbound bytes are split into frames as
they arrive.  A message handed to :meth:`AsyncioTcpTransport.send` again
(broadcast fan-out) is transformed only once.

Time here is wall-clock (``time.monotonic``), still reported in
milliseconds so protocol timeouts keep their configured meaning.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import struct
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, cast

from collections import deque

from repro.trace import runtime as trace_runtime
from repro.transport import codec as wire
from repro.transport.base import Node, Transport, TransportError
from repro.transport.topology import Topology

__all__ = ["AsyncioTcpTransport", "LinkFault", "CTRL_DST"]

CTRL_DST = "@ctrl"
_CTRL_REPLY = "@ctrl-reply"

_LEN = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024

#: dial retry/backoff schedule (seconds): fast first attempts for a
#: cluster that is still starting up, then a steady 1 s cadence.
_BACKOFF_S = (0.05, 0.1, 0.2, 0.4, 0.8)
_BACKOFF_MAX_S = 1.0
_DIAL_GIVE_UP_S = 30.0


@dataclass(frozen=True)
class LinkFault:
    """Outbound fault policy for one (src DC, dst DC) link."""

    drop_rate: float = 0.0
    extra_latency_ms: float = 0.0
    duplicate: bool = False


class AsyncioTcpTransport(Transport):
    """A per-process transport hosting one or more local nodes.

    Must be created (and used) inside a running asyncio event loop; all
    protocol callbacks execute on that loop, preserving the single-threaded
    execution model roles were written under.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        local_dc: str,
        listen: Optional[Tuple[str, int]] = None,
        codec: Optional[str] = None,
        nemesis_seed: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.local_dc = local_dc
        self._listen = listen
        self._codec, warning = wire.resolve_codec(codec or topology.codec)
        if warning:
            print(f"[transport] {warning}", file=sys.stderr)
        #: the codec actually framing the wire (may differ from the
        #: topology's request when msgpack degraded to JSON)
        self.codec_name = self._codec.name
        self._loop = asyncio.get_event_loop()
        self._t0 = time.monotonic()
        self._nodes: Dict[str, Node] = {}
        #: configured peers we dialed: node_id -> link
        self._dialed: Dict[str, _Link] = {}
        #: peers learned from inbound frames: node_id -> (link, src_dc)
        self._learned: Dict[str, Tuple[_Link, str]] = {}
        #: every open connection, dialed or accepted
        self._links: Set[_Link] = set()
        #: links with frames waiting for this tick's flush
        self._dirty: List[_Link] = []
        self._queues: Dict[str, Deque[bytes]] = {}
        self._dial_tasks: Dict[str, asyncio.Task] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: the last message sent off-process and its transformed form
        self._last_message: object = None
        self._last_encoded: Any = None
        self._faults: Dict[Tuple[str, str], LinkFault] = {}
        self._nemesis_rng = random.Random(
            topology.seed if nemesis_seed is None else nemesis_seed
        )
        self._ctrl_seq = itertools.count(1)
        self._ctrl_waiters: Dict[int, asyncio.Future] = {}
        self._closed = False
        self.shutdown_requested = asyncio.Event()
        self.stats = {"sent": 0, "received": 0, "dropped": 0, "duplicated": 0}

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def schedule(
        self, delay_ms: float, callback: Callable, *args: Any
    ) -> asyncio.TimerHandle:
        if delay_ms < 0:
            raise TransportError(f"negative delay: {delay_ms}")
        return self._loop.call_later(delay_ms / 1000.0, callback, *args)

    def register(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise TransportError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node

    def deregister(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)

    def base_rtt(self, dc_a: str, dc_b: str) -> float:
        # Advisory only (read-strategy ordering); reuse the evaluation's
        # EC2 distance table when it knows both regions.
        from repro.sim.network import DEFAULT_RTT_MATRIX

        if dc_a == dc_b:
            return 0.0
        return DEFAULT_RTT_MATRIX.get(frozenset((dc_a, dc_b)), 1.0)

    def send(self, src_id: str, dst_id: str, message: object) -> None:
        if self._closed:
            return
        ctx = trace_runtime.current_context()
        if dst_id in self._nodes:
            # Same process: skip framing and nemesis (intra-DC loopback).
            # The ambient trace context is gone by the time call_soon runs
            # the handler, so carry it explicitly.
            if ctx is not None:
                self._loop.call_soon(
                    self._dispatch_traced, dst_id, message, src_id, ctx
                )
            else:
                self._loop.call_soon(self._dispatch, dst_id, message, src_id)
            return
        dst_dc = self.topology.dc_of(dst_id)
        if dst_dc is None and dst_id in self._learned:
            dst_dc = self._learned[dst_id][1]
        src_dc = self._nodes[src_id].dc if src_id in self._nodes else self.local_dc
        # Broadcast fan-out hands the same frozen message to every peer:
        # transform it once.
        if message is not self._last_message:
            self._last_encoded = wire.encode(message)
            self._last_message = message
        envelope: Dict[str, Any] = {
            "src": src_id,
            "src_dc": src_dc,
            "dst": dst_id,
            "msg": self._last_encoded,
        }
        if ctx is not None:
            envelope["trace"] = [ctx[0], ctx[1]]
        frame = self._frame(envelope)
        fault = self._faults.get((src_dc, dst_dc)) if dst_dc else None
        if fault is not None:
            if fault.drop_rate and self._nemesis_rng.random() < fault.drop_rate:
                self.stats["dropped"] += 1
                return
            copies = 2 if fault.duplicate else 1
            if fault.duplicate:
                self.stats["duplicated"] += 1
            if fault.extra_latency_ms > 0:
                for _ in range(copies):
                    self._loop.call_later(
                        fault.extra_latency_ms / 1000.0, self._transmit, dst_id, frame
                    )
                return
            for _ in range(copies):
                self._transmit(dst_id, frame)
            return
        self._transmit(dst_id, frame)

    def broadcast(self, src_id: str, dst_ids: Iterable[str], message: object) -> int:
        count = 0
        for dst_id in dst_ids:
            self.send(src_id, dst_id, message)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the listening socket (server processes only)."""
        if self._listen is not None:
            host, port = self._listen
            self._server = await self._loop.create_server(
                lambda: _Link(self), host, port
            )

    async def close(self) -> None:
        """Graceful shutdown: send what is queued, stop dialing, close
        every connection."""
        self._closed = True
        for task in self._dial_tasks.values():
            task.cancel()
        if self._server is not None:
            self._server.close()
        links = list(self._links)
        for link in links:
            # Writes the link's outbox first, so acks queued this tick
            # (the shutdown ack too) still go out.
            link.close()
        for link in links:
            await link.lost.wait()
        if self._server is not None:
            await self._server.wait_closed()
        self._queues.clear()

    # ------------------------------------------------------------------
    # Nemesis
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        src_dc: str,
        dst_dc: str,
        *,
        drop_rate: float = 0.0,
        extra_latency_ms: float = 0.0,
        duplicate: bool = False,
    ) -> None:
        """Fault every outbound frame from ``src_dc`` to ``dst_dc``.

        Only frames *sent by this process* are affected; the driver pushes
        the same fault to the relevant server processes over ``@ctrl``.
        """
        self._faults[(src_dc, dst_dc)] = LinkFault(
            drop_rate=drop_rate,
            extra_latency_ms=extra_latency_ms,
            duplicate=duplicate,
        )

    def clear_link_fault(self, src_dc: str, dst_dc: str) -> None:
        self._faults.pop((src_dc, dst_dc), None)

    def heal_all(self) -> None:
        self._faults.clear()

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    async def ctrl(
        self, dst_id: str, op: Dict[str, Any], timeout_s: float = 10.0
    ) -> Dict[str, Any]:
        """Send a control op to ``dst_id``'s transport; await its ack."""
        req_id = next(self._ctrl_seq)
        waiter: asyncio.Future = self._loop.create_future()
        self._ctrl_waiters[req_id] = waiter
        envelope = {
            "src": f"ctrl-{id(self)}",
            "src_dc": self.local_dc,
            "dst": CTRL_DST,
            "msg": {**op, "req_id": req_id},
        }
        try:
            self._transmit(dst_id, self._frame(envelope))
            return await asyncio.wait_for(waiter, timeout_s)
        finally:
            self._ctrl_waiters.pop(req_id, None)

    def _handle_ctrl(self, envelope: Dict[str, Any], link: _Link) -> None:
        op = envelope["msg"]
        kind = op.get("op")
        result: Dict[str, Any] = {"req_id": op.get("req_id"), "ok": True}
        if kind == "shutdown":
            self.shutdown_requested.set()
        elif kind == "set_link":
            self.set_link_fault(
                op["src_dc"],
                op["dst_dc"],
                drop_rate=float(op.get("drop_rate", 0.0)),
                extra_latency_ms=float(op.get("extra_latency_ms", 0.0)),
                duplicate=bool(op.get("duplicate", False)),
            )
        elif kind == "heal":
            self.heal_all()
        elif kind == "ping":
            result["now_ms"] = self.now
            result["stats"] = dict(self.stats)
        else:
            result["ok"] = False
            result["error"] = f"unknown ctrl op {kind!r}"
        reply = {
            "src": envelope["dst"],
            "src_dc": self.local_dc,
            "dst": _CTRL_REPLY,
            "msg": result,
        }
        self._enqueue(link, self._frame(reply))

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _frame(self, envelope: Dict[str, Any]) -> bytes:
        payload = wire.encode_frame_payload(envelope, self._codec)
        return _LEN.pack(len(payload)) + payload

    def _enqueue(self, link: _Link, frame: bytes) -> None:
        """Queue ``frame`` on ``link``; the tick's first frame schedules
        the flush that writes every link's outbox at once."""
        if link.closing:
            return
        if not link.outbox:
            if not self._dirty:
                self._loop.call_soon(self._flush)
            self._dirty.append(link)
        link.outbox.append(frame)

    def _flush(self) -> None:
        dirty, self._dirty = self._dirty, []
        for link in dirty:
            link.flush()

    def _transmit(self, dst_id: str, frame: bytes) -> None:
        learned = self._learned.get(dst_id)
        link = learned[0] if learned is not None and not learned[0].closing else None
        if link is None:
            link = self._dialed.get(dst_id)
        if link is not None and not link.closing:
            self._enqueue(link, frame)
            self.stats["sent"] += 1
            return
        if dst_id in self.topology.nodes:
            self._queues.setdefault(dst_id, deque()).append(frame)
            if dst_id not in self._dial_tasks or self._dial_tasks[dst_id].done():
                self._dial_tasks[dst_id] = self._loop.create_task(self._dial(dst_id))
            return
        # No route at all: a driver that disconnected, or a typo'd id.
        self.stats["dropped"] += 1

    async def _dial(self, dst_id: str) -> None:
        address = self.topology.nodes[dst_id]
        deadline = time.monotonic() + _DIAL_GIVE_UP_S
        attempt = 0
        while not self._closed:
            try:
                _sock, link = await self._loop.create_connection(
                    lambda: _Link(self), address.host, address.port
                )
            except (ConnectionError, OSError):
                if time.monotonic() > deadline:
                    dropped = len(self._queues.pop(dst_id, ()))
                    print(
                        f"[transport] giving up dialing {dst_id} at "
                        f"{address.host}:{address.port} ({dropped} frames dropped)",
                        file=sys.stderr,
                    )
                    return
                backoff = _BACKOFF_S[attempt] if attempt < len(_BACKOFF_S) else _BACKOFF_MAX_S
                attempt += 1
                await asyncio.sleep(backoff)
                continue
            # Replies from the peer come back on this same connection.
            self._dialed[dst_id] = link
            for frame in self._queues.pop(dst_id, ()):
                self._enqueue(link, frame)
                self.stats["sent"] += 1
            return

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _on_frame(self, payload: bytes, link: _Link) -> None:
        try:
            envelope = wire.decode_frame_payload(payload)
        except wire.CodecError as exc:
            print(f"[transport] undecodable frame: {exc}", file=sys.stderr)
            return
        self.stats["received"] += 1
        src = envelope.get("src", "")
        dst = envelope.get("dst", "")
        if src and not src.startswith("ctrl-"):
            self._learned[src] = (link, envelope.get("src_dc", ""))
        if dst == CTRL_DST:
            self._handle_ctrl(envelope, link)
            return
        if dst == _CTRL_REPLY:
            waiter = self._ctrl_waiters.get(envelope["msg"].get("req_id"))
            if waiter is not None and not waiter.done():
                waiter.set_result(envelope["msg"])
            return
        try:
            message = wire.decode(envelope["msg"])
        except wire.CodecError as exc:
            print(f"[transport] undecodable message for {dst}: {exc}", file=sys.stderr)
            return
        trace = envelope.get("trace")
        if trace is not None:
            self._dispatch_traced(dst, message, src, (trace[0], trace[1]))
        else:
            self._dispatch(dst, message, src)

    def _on_bad_frame(self, link: _Link, length: int) -> None:
        """A length prefix over the limit: the stream cannot be resynced,
        so that one connection goes; every other peer keeps its own."""
        print(
            f"[transport] frame of {length} bytes exceeds the "
            f"{_MAX_FRAME}-byte limit; closing that connection",
            file=sys.stderr,
        )
        self.stats["dropped"] += 1
        link.close()

    def _link_made(self, link: _Link) -> None:
        self._links.add(link)

    def _link_lost(self, link: _Link) -> None:
        self._links.discard(link)
        for peer in [p for p, (other, _dc) in self._learned.items() if other is link]:
            del self._learned[peer]
        for peer in [p for p, other in self._dialed.items() if other is link]:
            del self._dialed[peer]

    def _dispatch_traced(
        self, dst_id: str, message: object, src_id: str, ctx: Tuple[str, str]
    ) -> None:
        """Deliver with the sender's trace context as the ambient context,
        so spans opened by the handler stitch across the wire."""
        previous = trace_runtime.set_context(ctx)
        try:
            self._dispatch(dst_id, message, src_id)
        finally:
            trace_runtime.reset_context(previous)

    def _dispatch(self, dst_id: str, message: object, src_id: str) -> None:
        node = self._nodes.get(dst_id)
        if node is None:
            self.stats["dropped"] += 1
            return
        try:
            node.on_message(message, src_id)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
            print(
                f"[transport] handler error on {dst_id} for "
                f"{type(message).__name__}: {exc!r}",
                file=sys.stderr,
            )


class _Link(asyncio.Protocol):
    """One TCP connection, dialed or accepted.

    Inbound, it splits the byte stream into frames and hands each
    payload to its owner; outbound, it holds the owner's frames for this
    loop tick and writes them with one call.
    """

    def __init__(self, owner: AsyncioTcpTransport) -> None:
        self._owner = owner
        self._sock: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: bytes the buffer must hold before the next frame is complete
        self._need = _LEN.size
        self.outbox: List[bytes] = []
        self.closing = False
        self.lost = asyncio.Event()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._sock = cast(asyncio.Transport, transport)
        self._owner._link_made(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            buffer += data
            if len(buffer) < self._need:
                return
            data = bytes(buffer)
            buffer.clear()
        size = len(data)
        offset = 0
        on_frame = self._owner._on_frame
        while size - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(data, offset)
            if length > _MAX_FRAME:
                self._owner._on_bad_frame(self, length)
                return
            start = offset + _LEN.size
            if size - start < length:
                self._need = _LEN.size + length
                break
            offset = start + length
            on_frame(data[start:offset], self)
            if self.closing:
                return
        else:
            self._need = _LEN.size
        if offset < size:
            buffer += data[offset:]

    def flush(self) -> None:
        frames, self.outbox = self.outbox, []
        if self._sock is not None and not self.closing and frames:
            self._sock.write(frames[0] if len(frames) == 1 else b"".join(frames))

    def close(self) -> None:
        """Write what is queued, then close; ``lost`` resolves once the
        connection is gone."""
        if not self.closing:
            self.flush()
            self.closing = True
            if self._sock is not None:
                self._sock.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closing = True
        self.outbox = []
        self._owner._link_lost(self)
        self.lost.set()
