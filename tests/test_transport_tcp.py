"""The asyncio TCP backend, end to end.

Spawns real ``repro serve`` subprocesses (one OS process per storage
node) on freshly-bound loopback ports, drives the micro workload over
the wire, and checks the issue's acceptance bar: transactions commit
across process boundaries, shutdown is clean (no orphans), and the PR 2
flaky-wan chaos schedule — replayed through the framing-layer nemesis —
leaves zero post-heal invariant violations.
"""

import asyncio
import socket

import pytest

from repro.core.messages import ReadRequest
from repro.transport import codec
from repro.transport.base import TransportError
from repro.transport.runner import run_flaky_wan_parity, run_tcp_workload
from repro.transport.tcp import _LEN, _MAX_FRAME, AsyncioTcpTransport, _Link
from repro.transport.topology import Topology, make_local_topology


def _free_ports(count):
    """Bind-then-release ``count`` distinct loopback ports."""
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def _write_topology(tmp_path, **kwargs):
    kwargs.setdefault("ports", _free_ports(3 * kwargs.get("partitions_per_table", 1)))
    topology = make_local_topology(**kwargs)
    path = tmp_path / "topology.json"
    topology.dump(str(path))
    return str(path), topology


# ----------------------------------------------------------------------
# Topology files
# ----------------------------------------------------------------------
def test_topology_round_trips(tmp_path):
    path, topology = _write_topology(tmp_path, items=30, seed=9)
    loaded = Topology.load(path)
    assert loaded.as_dict() == topology.as_dict()
    assert len(loaded.nodes) == 3
    assert loaded.item_keys()[0] == "item:000000"


def test_topology_preload_is_deterministic(tmp_path):
    path, _ = _write_topology(tmp_path, items=50, seed=11)
    first = Topology.load(path).preload_plan()
    second = Topology.load(path).preload_plan()
    assert first == second
    assert all(100 <= stock <= 200 for _key, stock in first)


def test_topology_preload_splits_by_placement(tmp_path):
    path, topology = _write_topology(tmp_path, items=30, partitions_per_table=2)
    placement = topology.build_placement()
    plan = dict(topology.preload_plan())
    per_node = {
        node_id: dict(topology.local_records(node_id, placement))
        for node_id in topology.nodes
    }
    # every key lands on exactly one partition per DC, with the same stock
    for node_id, records in per_node.items():
        for key, stock in records.items():
            assert plan[key] == stock
    us_west = [n for n in topology.nodes if "us-west" in n]
    covered = set()
    for node_id in us_west:
        covered.update(per_node[node_id])
    assert covered == set(plan)


def test_topology_rejects_non_mdcc_protocols():
    with pytest.raises(TransportError, match="MDCC variants"):
        make_local_topology(protocol="twopc")


# ----------------------------------------------------------------------
# Framing and write coalescing (no subprocesses, no sockets)
# ----------------------------------------------------------------------
class _StubOwner:
    """Stands in for the transport a link reports to."""

    def __init__(self):
        self.envelopes = []
        self.bad = []

    def _on_frame(self, payload, link):
        self.envelopes.append(codec.decode_frame_payload(payload))

    def _on_bad_frame(self, link, length):
        self.bad.append(length)
        link.close()

    def _link_made(self, link):
        pass

    def _link_lost(self, link):
        pass


class _FakeSocket(asyncio.Transport):
    """Records writes; closing reports the loss the way asyncio does."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.writes = []
        self.closed = False
        protocol.connection_made(self)

    def write(self, data):
        assert not self.closed, "write after close"
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closed

    def close(self):
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(self.protocol.connection_lost, None)


def _envelope(index, size=0):
    return {
        "src": f"peer-{index}",
        "src_dc": "us-east",
        "dst": "store-us-west-p0",
        "msg": codec.encode(ReadRequest(table="items", key="k" * size, request_id=index)),
    }


def _frame(envelope):
    payload = codec.encode_frame_payload(envelope, codec.JsonCodec())
    return _LEN.pack(len(payload)) + payload


#: mixed sizes: empty keys, short ones, and frames of a few kilobytes
ENVELOPES = [_envelope(i, size) for i, size in enumerate((0, 3, 700, 0, 3000, 1))]
STREAM = b"".join(_frame(envelope) for envelope in ENVELOPES)


def _feed(chunks):
    owner = _StubOwner()
    link = _Link(owner)
    for chunk in chunks:
        link.data_received(chunk)
    return owner


def test_link_reassembles_frames_split_at_every_offset():
    for cut in range(len(STREAM) + 1):
        owner = _feed([STREAM[:cut], STREAM[cut:]])
        assert owner.envelopes == ENVELOPES, f"cut at byte {cut}"
        assert owner.bad == []


def test_link_reassembles_byte_by_byte_and_in_one_chunk():
    small = b"".join(_frame(envelope) for envelope in ENVELOPES[:4])
    assert _feed([small[i : i + 1] for i in range(len(small))]).envelopes == ENVELOPES[:4]
    many = [_envelope(i) for i in range(200)]
    assert _feed([b"".join(_frame(e) for e in many)]).envelopes == many


def test_link_reassembles_a_frame_spanning_many_reads():
    big = [_envelope(0, 200_000), _envelope(1)]
    stream = b"".join(_frame(e) for e in big)
    chunks = [stream[i : i + 4096] for i in range(0, len(stream), 4096)]
    assert _feed(chunks).envelopes == big


def _live_transport():
    return AsyncioTcpTransport(make_local_topology(items=1), local_dc="us-west")


def _accept(transport, peer):
    """An accepted connection on which ``peer`` has introduced itself."""
    link = _Link(transport)
    sock = _FakeSocket(link)
    link.data_received(_frame({**_envelope(0), "src": peer, "dst": "nobody"}))
    return link, sock


def test_oversized_frame_closes_only_that_connection(capsys):
    async def scenario():
        transport = _live_transport()
        bad_link, bad_sock = _accept(transport, "peer-bad")
        good_link, good_sock = _accept(transport, "peer-good")
        dropped = transport.stats["dropped"]
        bad_link.data_received(_LEN.pack(_MAX_FRAME + 1) + b"J{}")
        await asyncio.sleep(0)
        assert bad_sock.closed and not good_sock.closed
        assert transport.stats["dropped"] == dropped + 1
        # the process keeps serving its other peer, and forgets the bad one
        good_link.data_received(_frame({**_envelope(5), "src": "peer-good", "dst": "nobody"}))
        assert transport.stats["received"] == 3
        assert "peer-bad" not in transport._learned
        assert "peer-good" in transport._learned
        await transport.close()

    asyncio.run(scenario())
    assert "exceeds" in capsys.readouterr().err


def test_sends_in_one_tick_coalesce_into_one_write():
    async def scenario():
        transport = _live_transport()
        _link, sock = _accept(transport, "app-us-east-1")
        messages = [ReadRequest(table="items", key=f"k{i}", request_id=i) for i in range(6)]
        for message in messages:
            transport.send("store-us-west-p0", "app-us-east-1", message)
        assert sock.writes == []  # nothing leaves before the tick ends
        await asyncio.sleep(0)
        assert len(sock.writes) == 1
        owner = _feed(sock.writes)
        assert [codec.decode(e["msg"]) for e in owner.envelopes] == messages
        await transport.close()

    asyncio.run(scenario())


def test_close_flushes_the_outbox_first():
    async def scenario():
        transport = _live_transport()
        _link, sock = _accept(transport, "app-us-east-1")
        for i in range(3):
            transport.send("store-us-west-p0", "app-us-east-1", ReadRequest("items", "k", i))
        await transport.close()
        assert sock.closed
        assert len(sock.writes) == 1
        assert [e["msg"]["f"]["request_id"] for e in _feed(sock.writes).envelopes] == [0, 1, 2]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Live cluster smoke
# ----------------------------------------------------------------------
def test_tcp_cluster_commits_across_processes(tmp_path):
    path, _ = _write_topology(tmp_path, items=30, seed=5)
    result = run_tcp_workload(
        path, clients=2, transactions_per_client=3, spawn_servers=True
    )
    assert result["transport"] == "tcp"
    assert result["committed"] >= 1
    assert result["committed"] + result["aborted"] + result["timeouts"] == 6
    assert result["servers_killed"] == [], "servers did not shut down cleanly"
    assert result["frames"]["sent"] > 0 and result["frames"]["received"] > 0


@pytest.mark.parametrize("protocol", ["fast", "multi"])
def test_tcp_variants_commit(tmp_path, protocol):
    path, _ = _write_topology(tmp_path, items=30, seed=5, protocol=protocol)
    result = run_tcp_workload(
        path, clients=2, transactions_per_client=2, spawn_servers=True
    )
    assert result["protocol"] == protocol
    assert result["committed"] >= 1
    assert result["servers_killed"] == []


# ----------------------------------------------------------------------
# Chaos parity: flaky-wan over the real backend
# ----------------------------------------------------------------------
def test_flaky_wan_parity_no_post_heal_violations(tmp_path):
    path, _ = _write_topology(tmp_path, items=40, seed=7)
    result = run_flaky_wan_parity(path, clients=3, chaos_s=2.0)
    assert result["schedule"] == "flaky-wan"
    assert result["committed"] >= 1, "chaos throttled the workload to zero commits"
    assert result["violations"] == []
    assert result["clean"] is True
    assert result["servers_killed"] == []
    # the nemesis actually bit: frames were dropped at the framing layer
    assert result["frames"]["dropped"] > 0
