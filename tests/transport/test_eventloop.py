"""Tests for the selector-driven event loop (one I/O thread per node).

Covers the PR's acceptance points: a comm node with many links runs on
exactly one thread, wide fan-in relays correctly, bounded send queues
produce observable lossless backpressure, TimeOut-stream deadlines are
honoured without busy-spinning, and abrupt peer death mid-frame tears
the link down cleanly instead of wedging the loop.
"""

import random
import socket
import statistics
import struct
import threading
import time

import pytest

from repro.core.batching import decode_batch, encode_batch
from repro.core.commnode import NodeCore, NodeHost
from repro.core.packet import Packet
from repro.core.protocol import (
    make_endpoint_report,
    make_new_stream,
    make_shutdown,
)
from repro.filters.registry import (
    SFILTER_TIMEOUT,
    SFILTER_WAITFORALL,
    TFILTER_SUM,
    default_registry,
)
from repro.transport.eventloop import EventLoop, SendQueueFull

_LEN = struct.Struct(">I")
RECV_TIMEOUT = 10.0


def send_frame(sock, packets):
    """Write one framed batch message to a raw socket."""
    payload = encode_batch(packets)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _read_exact(sock, n, deadline):
    buf = b""
    while len(buf) < n:
        sock.settimeout(max(deadline - time.monotonic(), 0.01))
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed while reading frame")
        buf += chunk
    return buf


def recv_frames(sock, n, timeout=RECV_TIMEOUT):
    """Read *n* raw framed payloads from a socket."""
    deadline = time.monotonic() + timeout
    frames = []
    for _ in range(n):
        (length,) = _LEN.unpack(_read_exact(sock, _LEN.size, deadline))
        frames.append(_read_exact(sock, length, deadline))
    return frames


def recv_packets(sock, n, timeout=RECV_TIMEOUT):
    """Read batch frames off a socket until *n* packets have arrived."""
    deadline = time.monotonic() + timeout
    packets = []
    while len(packets) < n:
        (frame,) = recv_frames(sock, 1, timeout=deadline - time.monotonic())
        packets.extend(decode_batch(frame))
    return packets


def make_node(n_children, expected_ranks=None, name="node"):
    """A comm node on its own host loop over raw socketpairs.

    Returns ``(node, parent_sock, child_socks)`` — our test-side ends.
    """
    parent_ours, parent_theirs = socket.socketpair()
    host = NodeHost(f"commnode-{name}")
    node = host.add_node(
        name,
        default_registry(),
        expected_ranks if expected_ranks is not None else n_children,
        host.loop.add_socket(parent_theirs),
    )
    child_socks = []
    for _ in range(n_children):
        ours, theirs = socket.socketpair()
        node.core.add_child(host.loop.add_socket(theirs))
        child_socks.append(ours)
    return node, parent_ours, child_socks


def stop_node(node, parent_sock, child_socks):
    try:
        send_frame(parent_sock, [make_shutdown()])
    except OSError:
        pass
    node.join(timeout=5)
    for s in child_socks:
        s.close()
    parent_sock.close()
    assert not node.is_alive()


class TestSingleThread:
    def test_16_children_one_io_thread(self):
        """A comm node with 17 links (parent + 16 children) adds ONE thread."""
        before = set(threading.enumerate())
        node, parent, children = make_node(16)
        node.start()
        try:
            added = [t for t in threading.enumerate() if t not in before]
            assert added == [node.host]
            # The node is live: aggregate endpoint reports from all 16
            # children into one report at the parent.
            for i, sock in enumerate(children):
                send_frame(sock, [make_endpoint_report([i])])
            (report,) = recv_packets(parent, 1)
            (ranks,) = report.unpack()
            assert tuple(ranks) == tuple(range(16))
            assert [t for t in threading.enumerate() if t not in before] == [node.host]
        finally:
            stop_node(node, parent, children)

    def test_shutdown_reaches_children(self):
        node, parent, children = make_node(2)
        node.start()
        send_frame(parent, [make_shutdown()])
        for sock in children:
            (pkt,) = recv_packets(sock, 1)
            assert pkt.tag == make_shutdown().tag
        node.join(timeout=5)
        assert not node.is_alive()
        for s in children:
            s.close()
        parent.close()


class TestWideFanIn:
    def test_64_links_relay_up(self):
        """64 children funnel packets through one selector thread."""
        node, parent, children = make_node(64)
        node.start()
        try:
            for i, sock in enumerate(children):
                # Unknown stream: the node relays upstream unchanged.
                send_frame(sock, [Packet(77, 100, "%d", (i,), origin_rank=i)])
            packets = recv_packets(parent, 64)
            values = sorted(p.unpack()[0] for p in packets)
            assert values == list(range(64))
            assert node.loop.metrics.counters()["frames_in"].value >= 64
        finally:
            stop_node(node, parent, children)

    def test_fanin_batches_into_fewer_messages(self):
        """Bursty fan-in leaves as fewer, larger upstream messages."""
        node, parent, children = make_node(32)
        node.start()
        try:
            for i, sock in enumerate(children):
                send_frame(sock, [Packet(77, 100, "%d", (i,), origin_rank=i)])
            recv_packets(parent, 32)
            # Adaptive flushing must have coalesced at least some of
            # the 32 inbound packets into shared upstream messages.
            assert node.core.metrics.counters()["messages_sent"].value < 32
        finally:
            stop_node(node, parent, children)


class TestBackpressure:
    def test_send_queue_bound_raises(self):
        loop = EventLoop()
        a, b = socket.socketpair()
        # Tiny kernel buffers so the opportunistic inline write cannot
        # swallow the whole payload: a remainder must stay queued.
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        link = loop.add_socket(a, max_send_bytes=1024)
        try:
            link.send(b"x" * (256 * 1024))  # empty queue accepts any one payload
            assert link.send_capacity() < 1024
            with pytest.raises(SendQueueFull):
                link.send(b"x" * 600)
        finally:
            b.close()
            loop.close()

    def test_flush_defers_then_recovers(self):
        """NodeCore.flush parks packets on a full link, then retries."""
        loop = EventLoop()
        a, b = socket.socketpair()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        link = loop.add_socket(a, max_send_bytes=2048)
        core = NodeCore("bp", default_registry(), 1)
        core.add_child(link)
        # Pre-fill the send queue past the kernel buffers (the inline
        # write takes a few KB; the rest stays queued) and queue a
        # downstream flood behind it.
        prefill = b"y" * (256 * 1024)
        link.send(prefill)
        core._handle_data_down(Packet(9, 100, "%s", ("z" * 600,)))
        core.flush()
        assert core.metrics.counters()["send_queue_full"].value == 1
        assert core.has_pending_output  # parked, not dropped
        assert core.metrics.counters()["messages_dropped_on_close"].value == 0
        # Start the loop: the queue drains into the socket, the parked
        # buffer flushes on the next idle pass — lossless backpressure.
        loop.bind(core)
        t = threading.Thread(target=loop.run, daemon=True)
        t.start()
        try:
            raw, batch = recv_frames(b, 2)
            assert raw == prefill
            (pkt,) = decode_batch(batch)
            assert pkt.unpack() == ("z" * 600,)
        finally:
            core.shutting_down = True
            loop.wake()
            t.join(timeout=5)
            b.close()
        assert not t.is_alive()
        assert not core.has_pending_output

    def test_oversized_message_still_leaves_empty_queue(self):
        """One message bigger than the bound departs when the queue is empty."""
        loop = EventLoop()
        a, b = socket.socketpair()
        link = loop.add_socket(a, max_send_bytes=1024)
        core = NodeCore("big", default_registry(), 1)
        core.add_child(link)
        core._handle_data_down(Packet(9, 100, "%s", ("w" * 5000,)))
        core.flush()
        assert core.metrics.counters()["send_queue_full"].value == 0
        assert not core.has_pending_output
        loop.bind(core)
        t = threading.Thread(target=loop.run, daemon=True)
        t.start()
        try:
            (pkt,) = recv_packets(b, 1)
            assert pkt.unpack() == ("w" * 5000,)
        finally:
            core.shutting_down = True
            loop.wake()
            t.join(timeout=5)
            b.close()


class TestTimeOutDeadline:
    def test_partial_wave_releases_on_deadline_without_spin(self):
        """A TimeOut stream fires at its deadline; the loop sleeps, not spins."""
        node, parent, children = make_node(2)
        node.start()
        try:
            for i, sock in enumerate(children):
                send_frame(sock, [make_endpoint_report([i])])
            recv_packets(parent, 1)  # aggregated endpoint report
            sync_timeout = 0.25
            send_frame(
                parent,
                [make_new_stream(5, [0, 1], SFILTER_TIMEOUT, TFILTER_SUM, sync_timeout)],
            )
            # The data frame below travels on a different socket than the
            # new_stream above; wait until the stream is registered so the
            # packet isn't relayed as unknown-stream traffic.
            reg_deadline = time.monotonic() + RECV_TIMEOUT
            while 5 not in node.core._stream_specs:
                assert time.monotonic() < reg_deadline, "stream never registered"
                time.sleep(0.002)
            iters_before = node.loop.iterations
            start = time.monotonic()
            # Only child 0 contributes, so the wave can never complete:
            # the TimeOut criterion must release it at the deadline.
            send_frame(children[0], [Packet(5, 100, "%d", (3,), origin_rank=0)])
            (pkt,) = recv_packets(parent, 1)
            elapsed = time.monotonic() - start
            assert pkt.unpack() == (3,)
            # Never early (the wave clock starts at/after `start`), and
            # not meaningfully late either.
            assert elapsed >= sync_timeout - 0.01
            assert elapsed < sync_timeout + 0.5
            # The loop slept until the deadline: a 2 ms poll would need
            # ~125 iterations to cross 0.25 s.
            assert node.loop.iterations - iters_before < 40
        finally:
            stop_node(node, parent, children)


class TestWakeup:
    def test_concurrent_wakes_never_strand_the_flag(self):
        """wake() from two threads must keep working afterwards.

        A wake that lands while the loop is draining its wake pipe used
        to leave the coalescing flag set over an empty pipe: every later
        wake() was skipped and the loop advanced only on IDLE_TIMEOUT.
        """
        loop = EventLoop()
        core = NodeCore("wake", default_registry(), 0)
        loop.bind(core)
        t = threading.Thread(target=loop.run, daemon=True)
        t.start()
        stop = time.monotonic() + 0.5

        def hammer(seed):
            rng = random.Random(seed)
            while time.monotonic() < stop:
                loop.wake()
                time.sleep(rng.uniform(0, 0.0005))

        hammers = [threading.Thread(target=hammer, args=(i,)) for i in range(2)]
        try:
            for h in hammers:
                h.start()
            for h in hammers:
                h.join(timeout=5)
                assert not h.is_alive()
            latencies = []
            for _ in range(9):
                seen = loop.iterations
                start = time.monotonic()
                loop.wake()
                while loop.iterations == seen:
                    assert time.monotonic() - start < 1.0, "loop stopped iterating"
                    time.sleep(0.0002)
                latencies.append(time.monotonic() - start)
            # A working wake interrupts select in well under a millisecond;
            # a stranded flag makes each one wait out the 50 ms idle cap.
            assert statistics.median(latencies) < EventLoop.IDLE_TIMEOUT / 5
        finally:
            core.shutting_down = True
            loop.wake()
            t.join(timeout=5)
        assert not t.is_alive()


class TestAbruptClose:
    def test_peer_dies_mid_frame(self):
        """EOF halfway through a frame drops the link, not the node."""
        node, parent, children = make_node(2)
        node.start()
        try:
            dying, surviving = children
            # A frame header promising 100 bytes, but only 10 arrive.
            dying.sendall(_LEN.pack(100) + b"0123456789")
            time.sleep(0.05)
            dying.close()
            deadline = time.monotonic() + 5
            while len(node.core.children) != 1:
                assert time.monotonic() < deadline, "dead link never removed"
                time.sleep(0.01)
            # The surviving link still relays.
            send_frame(surviving, [Packet(7, 100, "%d", (42,))])
            (pkt,) = recv_packets(parent, 1)
            assert pkt.unpack() == (42,)
        finally:
            stop_node(node, parent, [s for s in children if s.fileno() != -1])

    def test_oversized_frame_header_closes_link(self):
        node, parent, children = make_node(1)
        node.start()
        try:
            children[0].sendall(_LEN.pack((1 << 30) + 1))
            # The node closes the poisoned link; we observe EOF.
            children[0].settimeout(5)
            assert children[0].recv(1) == b""
            deadline = time.monotonic() + 5
            while len(node.core.children) != 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            stop_node(node, parent, children)


class TestMalformedBatch:
    """Bytes from a peer are untrusted: a frame that is not a batch
    must cost the sender its link — not the node, and not the other
    cores that share the node's loop."""

    @pytest.mark.parametrize("kind", ["tcp", "inproc"])
    def test_junk_frame_kills_the_link_not_the_loop(self, kind):
        junk = b"\xff\xff\xff\xff junk"
        host = NodeHost("commnode-shared")
        loop = host.loop
        registry = default_registry()

        def add(name, n_socket_children):
            ours, theirs = socket.socketpair()
            node = host.add_node(name, registry, 2, loop.add_socket(theirs))
            socks = []
            for _ in range(n_socket_children):
                c_ours, c_theirs = socket.socketpair()
                node.core.add_child(loop.add_socket(c_theirs, core=node.core))
                socks.append(c_ours)
            return node, ours, socks

        bystander, by_parent, by_children = add("bystander", 2)
        if kind == "tcp":
            victim, v_parent, (bad, good) = add("victim", 2)
            send_bad = lambda payload: bad.sendall(_LEN.pack(len(payload)) + payload)
            to_close = [bad, good]
        else:
            # The misbehaving child is a colocated core: an inproc edge.
            victim, v_parent, (good,) = add("victim", 1)
            up, down = loop.add_inproc_pair(victim.core)
            host.add_node("bad", registry, 1, down)
            victim.core.add_child(up)
            send_bad = down.send
            to_close = [good]
        victim.core.configure_failure(policy="degrade")
        victim.start()
        try:
            send_bad(encode_batch([make_endpoint_report([0])]))
            send_frame(good, [make_endpoint_report([1])])
            for rank, sock in zip((2, 3), by_children):
                send_frame(sock, [make_endpoint_report([rank])])
            recv_packets(v_parent, 1)
            recv_packets(by_parent, 1)
            send_frame(v_parent, [make_new_stream(5, [0, 1], SFILTER_WAITFORALL, TFILTER_SUM)])
            send_frame(by_parent, [make_new_stream(6, [2, 3], SFILTER_WAITFORALL, TFILTER_SUM)])
            deadline = time.monotonic() + RECV_TIMEOUT
            while 5 not in victim.core._stream_specs or 6 not in bystander.core._stream_specs:
                assert time.monotonic() < deadline, "streams never registered"
                time.sleep(0.002)

            send_bad(junk)

            # The other core on the loop still completes its SUM wave.
            for rank, sock in zip((2, 3), by_children):
                send_frame(sock, [Packet(6, 100, "%d", (rank,), origin_rank=rank)])
            (total,) = recv_packets(by_parent, 1)
            assert total.unpack() == (5,)
            # The bad link is closed, counted and reported once; the
            # stream stays a spec and the survivor reduces alone.
            while len(victim.core.children) != 1:
                assert time.monotonic() < deadline, "poisoned link never removed"
                time.sleep(0.002)
            rejected = victim.core.metrics.counters()[f'frames_rejected{{kind="{kind}"}}']
            assert rejected.value == 1
            assert 5 in victim.core._stream_specs
            if kind == "tcp":
                bad.settimeout(5)
                while bad.recv(4096):  # the stream announcement, then EOF
                    pass
            send_frame(good, [Packet(5, 100, "%d", (7,), origin_rank=1)])
            packets = recv_packets(v_parent, 2)  # RANKS_CHANGED, then the wave
            assert packets[-1].unpack() == (7,)
            assert host.is_alive()
        finally:
            for sock in (v_parent, by_parent):
                try:
                    send_frame(sock, [make_shutdown()])
                except OSError:
                    pass
            host.join(timeout=5)
            for sock in [v_parent, by_parent, *by_children, *to_close]:
                sock.close()
            assert not host.is_alive()
