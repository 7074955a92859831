"""Per-layer micro-calls: one public function of one module, timed alone.

Layer = module name.  Inputs are shaped like the packets of the
workload being traced (scalar ``%d`` waves, 32-packet ``%d %s`` bursts,
MiB-sized ``%alf`` arrays), so a number here can be multiplied by how
often a wave of that workload passes through the layer.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, Tuple

import numpy as np

from harness import median, now
from repro.core.batching import PacketBuffer, decode_batch, encode_batch
from repro.core.chunking import reassemble, split_packet
from repro.core.commnode import NodeCore
from repro.core.packet import Packet
from repro.core.protocol import FIRST_APP_TAG, make_endpoint_report, make_new_stream
from repro.core.routing import RoutingTable
from repro.core.stream_manager import StreamManager
from repro.filters import SFILTER_WAITFORALL, TFILTER_SUM, default_registry
from repro.transport.channel import Channel, Inbox
from repro.transport.eventloop import EventLoop
from repro.transport.tcp import TcpListener, tcp_connect_retry

MIB = 1 << 20
STREAM_ID = 7
FANOUT = 4
PING_BYTES = 64
BULK_FRAME = 64 << 10


def per_call(fn: Callable[[], object], budget: float = 0.03, batches: int = 5) -> float:
    """Median seconds per call of *fn* over *batches* equal time slots.

    Bounded by time, not by count: a call that suddenly stalls (a
    missed loop wake-up costs 50 ms) cannot stretch a probe to minutes.
    The clock is read once per *k* calls, *k* growing until a read
    costs under a sixteenth of a slot.
    """
    slot = budget / batches
    k = 1
    samples = []
    for _ in range(batches):
        n = 0
        t0 = t = now()
        while t - t0 < slot:
            for _ in range(k):
                fn()
            n += k
            t_prev, t = t, now()
            if t - t_prev < slot / 16:
                k *= 2
        samples.append((t - t0) / n)
    return median(samples)


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / seconds / 1e6


# -- packet shapes ------------------------------------------------------------


def small_packet(workload: str, rank: int = 0, value: int = 12345) -> Packet:
    """The packet a back-end or the front-end sends most often in *workload*."""
    if workload == "mcast_colocated":
        return Packet(STREAM_ID, FIRST_APP_TAG, "%d %s", (value, "m" * 1024), origin_rank=rank)
    return Packet(STREAM_ID, FIRST_APP_TAG, "%d", (value,), origin_rank=rank)


def frame_packets(workload: str) -> int:
    """Packets per message where *workload* batches (1 where it cannot)."""
    return 32 if workload in ("mcast_colocated", "stream_process") else 1


def array_packet(nbytes: int, rank: int = 0) -> Packet:
    arr = np.arange(nbytes // 8, dtype=np.float64) % 1024
    arr.setflags(write=False)
    return Packet(STREAM_ID, FIRST_APP_TAG, "%alf", (arr,), origin_rank=rank)


# -- core.packet, core.batching, core.routing, core.chunking -------------------


def probe_packet(workload: str) -> Dict[str, float]:
    template = small_packet(workload)
    fmt, values = template.fmt.canonical, template.unpack()
    wire = template.to_bytes()
    big_wire = array_packet(4 * MIB).to_bytes()
    lazy = per_call(lambda: Packet.lazy_from_wire(wire))
    return {
        "core.packet.encode_us": per_call(
            lambda: Packet(STREAM_ID, FIRST_APP_TAG, fmt, values).to_bytes()) * 1e6,
        "core.packet.lazy_decode_us": lazy * 1e6,
        "core.packet.unpack_us": per_call(
            lambda: Packet.lazy_from_wire(wire).unpack()) * 1e6,
        "core.packet.array_view_mb_per_s": _mb_per_s(
            4 * MIB, per_call(lambda: Packet.lazy_from_wire(big_wire).array(0))),
    }


def probe_batching(workload: str) -> Dict[str, float]:
    n = frame_packets(workload)
    frame = encode_batch([small_packet(workload, rank=r) for r in range(n)])

    packets = decode_batch(frame)

    def rebatch():
        buf = PacketBuffer(1)
        for packet in packets:
            buf.add(packet)
        buf.encode()

    return {
        "core.batching.unbatch_us_per_pkt": per_call(lambda: decode_batch(frame)) / n * 1e6,
        "core.batching.rebatch_us_per_pkt": per_call(rebatch) / n * 1e6,
    }


def probe_routing() -> Dict[str, float]:
    table = RoutingTable()
    for link in range(FANOUT):
        table.add_report(link + 1, range(link * 16, link * 16 + 16))
    everyone = frozenset(range(64))
    return {"core.routing.route_us": per_call(lambda: table.links_for(everyone)) * 1e6}


def probe_chunking() -> Dict[str, float]:
    whole = array_packet(4 * MIB)
    chunks = split_packet(whole, MIB, 0)
    return {
        "core.chunking.split_mb_per_s": _mb_per_s(
            4 * MIB, per_call(lambda: split_packet(whole, MIB, 0))),
        "core.chunking.reassemble_mb_per_s": _mb_per_s(
            4 * MIB, per_call(lambda: reassemble(chunks))),
    }


# -- filters, core.stream_manager ----------------------------------------------


def probe_filters() -> Dict[str, float]:
    registry = default_registry()
    total = registry.get_transform(TFILTER_SUM)
    scalars = [Packet(STREAM_ID, FIRST_APP_TAG, "%d", (r,), origin_rank=r) for r in range(FANOUT)]
    arrays = [array_packet(MIB, r) for r in range(FANOUT)]
    links = list(range(1, FANOUT + 1))

    def waitforall():
        sync = registry.make_sync(SFILTER_WAITFORALL, links)
        for link, packet in zip(links, scalars):
            sync.push(link, packet)

    make_only = per_call(lambda: registry.make_sync(SFILTER_WAITFORALL, links))
    return {
        "filters.transform.sum_scalar_us": per_call(
            lambda: total(scalars, total.make_state())) * 1e6,
        "filters.transform.sum_array_mb_per_s": _mb_per_s(
            FANOUT * MIB, per_call(lambda: total(arrays, total.make_state()))),
        "filters.sync.waitforall_us": max(per_call(waitforall) - make_only, 0.0) * 1e6,
    }


def probe_stream_manager() -> Dict[str, float]:
    registry = default_registry()
    links = list(range(1, FANOUT + 1))
    manager = StreamManager.create(
        STREAM_ID, list(range(FANOUT)), links, registry,
        SFILTER_WAITFORALL, TFILTER_SUM,
    )
    scalar_wires = [
        Packet(STREAM_ID, FIRST_APP_TAG, "%d", (r,), origin_rank=r).to_bytes()
        for r in range(FANOUT)
    ]
    array_wires = [array_packet(MIB, r).to_bytes() for r in range(FANOUT)]

    def wave(wires):
        out = []
        for link, wire in zip(links, wires):
            out = manager.push_upstream(link, Packet.lazy_from_wire(wire))
        if len(out) != 1:
            raise RuntimeError(f"stream manager released {len(out)} packets for one wave")

    return {
        "core.stream_manager.wave_us": per_call(lambda: wave(scalar_wires)) * 1e6,
        "core.stream_manager.bulk_mb_per_s": _mb_per_s(
            FANOUT * MIB, per_call(lambda: wave(array_wires))),
    }


# -- core.commnode: one NodeCore between null links ----------------------------


class _CountingEnd:
    """A link end that swallows frames (the hop under test is local)."""

    closed = False
    transport_kind = "channel"

    def __init__(self, link_id: int):
        self.link_id = link_id
        self.frames = 0

    def send(self, payload) -> None:
        self.frames += 1

    def close(self) -> None:
        self.closed = True


def probe_commnode(workload: str) -> Dict[str, float]:
    parent = _CountingEnd(100)
    core = NodeCore("bench-hop", default_registry(), expected_ranks=FANOUT, parent=parent)
    children = [_CountingEnd(link) for link in range(1, FANOUT + 1)]
    for rank, end in enumerate(children):
        core.add_child(end)
        core.handle_payload(end.link_id, encode_batch([make_endpoint_report([rank])]))
    core.handle_payload(parent.link_id, encode_batch([
        make_new_stream(STREAM_ID, list(range(FANOUT)), SFILTER_WAITFORALL, TFILTER_SUM)
    ]))
    core.flush()
    up = [
        bytes(encode_batch([Packet(STREAM_ID, FIRST_APP_TAG, "%d", (r,), origin_rank=r)]))
        for r in range(FANOUT)
    ]
    n_down = frame_packets(workload) if workload == "mcast_colocated" else 1
    down = bytes(encode_batch([small_packet(workload) for _ in range(n_down)]))

    def hop():
        before = parent.frames
        for end, frame in zip(children, up):
            core.handle_payload(end.link_id, frame)
        core.flush()
        if parent.frames != before + 1:
            raise RuntimeError("comm node did not forward exactly one reduced frame")

    def fanout():
        before = children[-1].frames
        core.handle_payload(parent.link_id, down)
        core.flush()
        if children[-1].frames != before + 1:
            raise RuntimeError("comm node did not fan the frame out")

    return {
        "core.commnode.hop_us": per_call(hop) * 1e6,
        "core.commnode.fanout_us": per_call(fanout) * 1e6,
    }


# -- transports: echo and one-way frames through each link kind's ends ---------
#
# Every kind is reduced to (send_a, recv_a, close): the far end echoes
# each frame back, except frames of BULK_FRAME bytes, which it only
# counts, acknowledging the last of a burst.


def _echo_policy(burst: int) -> Callable[[bytes], object]:
    """What the far end answers: the frame itself, or for bulk frames
    nothing until the last of a burst, then one ``ack``."""
    seen = 0

    def reply(payload):
        nonlocal seen
        if len(payload) != BULK_FRAME:
            return payload
        seen += 1
        return None if seen % burst else b"ack"

    return reply


def _echo_server(inbox: Inbox, end, burst: int) -> threading.Thread:
    reply = _echo_policy(burst)

    def serve():
        while True:
            _link, payload = inbox.get()
            if payload is None:
                return
            answer = reply(payload)
            if answer is not None:
                end.send(answer)

    thread = threading.Thread(target=serve, name="bench-echo", daemon=True)
    thread.start()
    return thread


def _measure_link(send, recv, burst: int) -> Tuple[float, float]:
    ping = b"p" * PING_BYTES
    bulk = b"b" * BULK_FRAME

    def pingpong():
        send(ping)
        recv()

    def one_way():
        for _ in range(burst):
            send(bulk)
        recv()

    return per_call(pingpong) * 1e6, _mb_per_s(burst * BULK_FRAME, per_call(one_way, batches=3))


def _inbox_recv(inbox: Inbox) -> Callable[[], bytes]:
    def recv():
        _link, payload = inbox.get(timeout=10)
        if payload is None:
            raise RuntimeError("link closed during the transport probe")
        return payload

    return recv


def probe_channel(burst: int) -> Tuple[float, float]:
    inbox_a, inbox_b = Inbox(), Inbox()
    channel = Channel(inbox_a, inbox_b)
    server = _echo_server(inbox_b, channel.end_b, burst)
    try:
        return _measure_link(channel.end_a.send, _inbox_recv(inbox_a), burst)
    finally:
        channel.end_a.close()
        server.join(5)


def probe_socket(shm: bool, burst: int) -> Tuple[float, float]:
    """Loopback TCP ends, or the shm rings the same connect negotiates."""
    inbox_a, inbox_b = Inbox(), Inbox()
    listener = TcpListener(inbox_b)
    made = {}
    connector = threading.Thread(
        target=lambda: made.update(end=tcp_connect_retry(listener.address, inbox_a, shm=shm)),
        name="bench-connect",
    )
    connector.start()
    end_b = listener.accept(timeout=10)
    connector.join(10)
    end_a = made["end"]
    server = _echo_server(inbox_b, end_b, burst)
    try:
        if shm and end_a.transport_kind != "shm":
            raise RuntimeError("shm upgrade was refused")
        return _measure_link(end_a.send, _inbox_recv(inbox_a), burst)
    finally:
        end_a.close()
        server.join(5)
        end_b.close()
        listener.close()


class _ProbeCore(NodeCore):
    """A hosted core that hands every frame to a callback instead of
    unbatching it: the inproc link needs a loop and two cores to exist."""

    def __init__(self, name: str, on_frame):
        super().__init__(name, default_registry(), expected_ranks=0)
        self._on_frame = on_frame

    def handle_payload(self, link_id, payload):
        if payload is not None:
            self._on_frame(payload)


def probe_inproc(burst: int) -> Tuple[float, float]:
    loop = EventLoop()
    replies: "queue.Queue[bytes]" = queue.Queue()
    reply = _echo_policy(burst)

    def echo(payload):
        answer = reply(payload)
        if answer is not None:
            end_b.send(answer)

    core_a = _ProbeCore("bench-inproc-a", replies.put)
    core_b = _ProbeCore("bench-inproc-b", echo)
    end_a, end_b = loop.add_inproc_pair(core_a, core_b)
    loop.bind(core_a)
    loop.bind(core_b)
    thread = threading.Thread(target=loop.run, name="bench-inproc-loop", daemon=True)
    thread.start()
    try:
        return _measure_link(end_a.send, lambda: replies.get(timeout=10), burst)
    finally:
        core_a.shutting_down = core_b.shutting_down = True
        loop.wake()
        thread.join(5)


def probe_transports() -> Dict[str, float]:
    out: Dict[str, float] = {}
    burst = 16  # 1 MiB per burst: under every kind's send-queue bound
    for kind, probe in (
        ("inproc", lambda: probe_inproc(burst)),
        ("tcp", lambda: probe_socket(False, burst)),
        ("shm", lambda: probe_socket(True, burst)),
        ("channel", lambda: probe_channel(burst)),
    ):
        ping_us, mb_s = probe()
        out[f"transport.{kind}.pingpong_us"] = ping_us
        out[f"transport.{kind}.mb_per_s"] = mb_s
    return out


def run_all(workload: str) -> Dict[str, float]:
    """Every micro-call, on inputs shaped like *workload*'s packets."""
    out: Dict[str, float] = {}
    out.update(probe_packet(workload))
    out.update(probe_batching(workload))
    out.update(probe_routing())
    out.update(probe_chunking())
    out.update(probe_filters())
    out.update(probe_stream_manager())
    out.update(probe_commnode(workload))
    out.update(probe_transports())
    return out
