"""Shared-memory ring transport: SPSC rings, negotiation, channel ends.

The rings carry exactly the framed batches TCP does, so these tests
exercise the transport contract directly: framing round-trips across
wraparound, full-ring stall/credit flow control, orderly close flags,
the hello-extension negotiation (ACK, NAK, transparent TCP fallback),
and the passive :class:`ShmChannelEnd` used by front-/back-ends.
"""

import socket
import threading
import time

import pytest

from repro.transport.channel import Inbox
from repro.transport.shm import (
    DEFAULT_CAPACITY,
    ShmChannelEnd,
    ShmRing,
    accept_shm_offer,
    live_segments,
    offer_shm,
    shm_available,
)
from repro.transport.tcp import TcpListener, tcp_connect_retry, tcp_dial

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def make_pair(capacity=4096):
    """A producer-view and consumer-view of one fresh ring."""
    producer = ShmRing.create(capacity)
    consumer = ShmRing.attach(producer.name, capacity)
    return producer, consumer


def destroy(*rings):
    for ring in rings:
        ring.close()
        ring.unlink()


class TestShmRing:
    def test_write_read_round_trip(self):
        prod, cons = make_pair()
        try:
            for payload in (b"a", b"hello world", b"\x00" * 100):
                written, was_empty = prod.try_write(payload)
                assert written
            frames, _ = cons.read_frames()
            assert frames == [b"a", b"hello world", b"\x00" * 100]
        finally:
            destroy(prod, cons)

    def test_first_write_reports_empty_transition(self):
        prod, cons = make_pair()
        try:
            _, was_empty = prod.try_write(b"x")
            assert was_empty  # doorbell needed: consumer may sleep
            _, was_empty = prod.try_write(b"y")
            assert not was_empty  # already signalled
        finally:
            destroy(prod, cons)

    def test_wraparound_preserves_frames(self):
        prod, cons = make_pair(capacity=256)
        try:
            # Drive the cursors far past one lap with odd-sized frames
            # so splits land at every offset.
            sent, received = [], []
            for i in range(200):
                payload = bytes([i % 251]) * (17 + i % 57)
                while not prod.try_write(payload)[0]:
                    received.extend(cons.read_frames()[0])
                sent.append(payload)
            while len(received) < len(sent):
                frames, _ = cons.read_frames()
                assert frames, "ring drained early"
                received.extend(frames)
            assert received == sent
        finally:
            destroy(prod, cons)

    def test_ring_fills_completely(self):
        # Monotonic cursors waste no slot: capacity bytes all usable.
        prod, cons = make_pair(capacity=128)
        try:
            written, _ = prod.try_write(b"x" * 124)  # 4 len + 124 = 128
            assert written
            assert not prod.try_write(b"y")[0]  # zero bytes free
            frames, _ = cons.read_frames()
            assert frames == [b"x" * 124]
            assert prod.try_write(b"y")[0]
        finally:
            destroy(prod, cons)

    def test_oversized_frame_raises(self):
        prod, cons = make_pair(capacity=128)
        try:
            with pytest.raises(ValueError):
                prod.try_write(b"z" * 125)  # can never fit: fail loudly
        finally:
            destroy(prod, cons)

    def test_stall_and_credit(self):
        prod, cons = make_pair(capacity=128)
        try:
            assert prod.try_write(b"x" * 124)[0]
            assert not prod.try_write(b"x" * 124)[0]  # stalled flag set
            frames, credit_due = cons.read_frames()
            assert frames and credit_due  # consumer owes a doorbell
            _, credit_due = cons.read_frames()
            assert not credit_due  # only once per stall
        finally:
            destroy(prod, cons)

    def test_orderly_close_flag(self):
        prod, cons = make_pair()
        try:
            prod.try_write(b"last")
            prod.mark_closed()
            assert cons.peer_closed
            frames, _ = cons.read_frames()
            assert frames == [b"last"]  # close never loses queued data
        finally:
            destroy(prod, cons)

    def test_attach_validates_capacity(self):
        prod = ShmRing.create(256)
        try:
            with pytest.raises(ValueError):
                ShmRing.attach(prod.name, 1 << 20)
        finally:
            destroy(prod)

    def test_live_segments_drains_after_cleanup(self):
        prod, cons = make_pair()
        assert prod.name in live_segments()
        destroy(prod, cons)
        assert prod.name not in live_segments()


def release(frames):
    """Drop ring-aliasing views so the segment can unmap cleanly."""
    for f in frames:
        if type(f) is memoryview:
            f.release()
    frames.clear()


class TestZeroCopyRead:
    def test_inplace_frames_alias_ring_memory(self):
        prod, cons = make_pair()
        try:
            for payload in (b"a" * 10, b"b" * 20):
                assert prod.try_write(payload)[0]
            frames = cons.read_frames_inplace()
            assert [bytes(f) for f in frames] == [b"a" * 10, b"b" * 20]
            # Contiguous frames are memoryviews straight into the ring.
            assert all(type(f) is memoryview for f in frames)
            release(frames)
        finally:
            cons.commit_read()
            destroy(prod, cons)

    def test_head_unpublished_until_commit(self):
        prod, cons = make_pair(capacity=128)
        try:
            assert prod.try_write(b"x" * 60)[0]
            frames = cons.read_frames_inplace()
            assert len(frames) == 1
            # The producer still sees a nearly-full ring: the consumed
            # bytes stay reserved until commit_read publishes the head.
            assert not prod.try_write(b"y" * 100)[0]
            release(frames)
            cons.commit_read()
            assert prod.try_write(b"y" * 100)[0]
        finally:
            destroy(prod, cons)

    def test_commit_reports_credit_after_stall(self):
        prod, cons = make_pair(capacity=128)
        try:
            assert prod.try_write(b"x" * 124)[0]
            assert not prod.try_write(b"x" * 124)[0]  # producer stalls
            release(cons.read_frames_inplace())
            assert cons.commit_read()  # freed a stalled producer
            assert not cons.commit_read()  # only once per stall
        finally:
            destroy(prod, cons)

    def test_wrapping_frame_stitched_to_bytes(self):
        prod, cons = make_pair(capacity=256)
        try:
            wrapped = 0
            for i in range(60):
                payload = bytes([i]) * 37
                while not prod.try_write(payload)[0]:
                    release(cons.read_frames_inplace())
                    cons.commit_read()
                frames = cons.read_frames_inplace()
                for f in frames:
                    assert bytes(f) == bytes([bytes(f)[0]]) * 37
                    if type(f) is bytes:
                        wrapped += 1
                release(frames)
                cons.commit_read()
            assert wrapped  # the wrap point was exercised
        finally:
            destroy(prod, cons)

    def test_interleaves_with_copying_read_after_commit(self):
        prod, cons = make_pair()
        try:
            prod.try_write(b"one")
            views = cons.read_frames_inplace()
            assert [bytes(v) for v in views] == [b"one"]
            release(views)
            cons.commit_read()
            prod.try_write(b"two")
            frames, _ = cons.read_frames()
            assert frames == [b"two"]
        finally:
            destroy(prod, cons)


class TestZeroCopyEndToEnd:
    """Inbound shm frames reach the comm node without leaving the ring."""

    def test_chunked_wave_over_shm_counts_zero_copy_frames(self):
        from repro.core import Network
        from repro.filters import TFILTER_SUM
        from repro.topology import balanced_tree

        # Every link co-located → negotiated up to shared memory.
        net = Network(balanced_tree(2, 2, hosts=["h0"]), transport="process")
        try:
            stats = net.stats()
            assert stats["0:front-end"]['links{kind="shm"}'] == 2

            st = net.new_stream(
                net.get_broadcast_communicator(),
                transform=TFILTER_SUM,
                chunk_bytes=2048,
            )
            payload = tuple(float(i % 89) for i in range(1024))
            st.send("%d", 0)
            for rank in sorted(net.backends):
                _, bstream = net.backends[rank].recv(timeout=20.0)
                bstream.send("%alf", payload)
            result = st.recv(timeout=20.0)
            assert result.values == (tuple(v * 4 for v in payload),)

            # The comm nodes' event loops delivered ring frames as
            # aliasing memoryviews, not copies.
            stats = net.stats()
            zero_copy = sum(
                entry.get("loop_shm_frames_zero_copy", 0)
                for key, entry in stats.items()
                if isinstance(entry, dict) and key not in ("recovery", "meta")
            )
            assert zero_copy > 0
        finally:
            net.shutdown()


class TestNegotiation:
    def test_offer_accepted_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.update(pair=offer_shm(a, 7, 4096))
            )
            t.start()
            # Acceptor: consume the flagged hello, then the offer.
            hello = int.from_bytes(b.recv(4), "big")
            assert hello & 0x8000_0000
            acc = accept_shm_offer(b)
            t.join()
            tx, rx = result["pair"]
            atx, arx = acc
            # Cross-wiring: connector tx is acceptor rx.
            tx.try_write(b"ping")
            assert arx.read_frames()[0] == [b"ping"]
            atx.try_write(b"pong")
            assert rx.read_frames()[0] == [b"pong"]
            destroy(tx, rx, atx, arx)
        finally:
            a.close()
            b.close()

    def test_offer_refused_falls_back(self):
        a, b = socket.socketpair()
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.update(pair=offer_shm(a, 7, 4096))
            )
            t.start()
            b.recv(4)
            assert accept_shm_offer(b, allow=False) is None
            t.join()
            assert result["pair"] is None  # connector degraded to TCP
            assert live_segments() == []  # offered rings were destroyed
        finally:
            a.close()
            b.close()

    def test_listener_upgrade_end_to_end(self):
        inbox = Inbox()
        listener = TcpListener(inbox)
        try:
            peer_inbox = Inbox()
            result = {}

            def connect():
                result["end"] = tcp_connect_retry(
                    listener.address, peer_inbox, shm=True
                )

            t = threading.Thread(target=connect)
            t.start()
            server_end = listener.accept(timeout=10)
            t.join()
            client_end = result["end"]
            assert server_end.transport_kind == "shm"
            assert client_end.transport_kind == "shm"
            client_end.send(b"up")
            link_id, payload = inbox.get(timeout=5)
            assert payload == b"up"
            server_end.send(b"down")
            _, payload = peer_inbox.get(timeout=5)
            assert payload == b"down"
            client_end.close()
            # Server side observes the death as a None delivery.
            _, payload = inbox.get(timeout=5)
            assert payload is None
            server_end.close()
        finally:
            listener.close()
        deadline = time.monotonic() + 5
        while live_segments() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert live_segments() == []

    def test_plain_connect_unaffected(self):
        inbox = Inbox()
        listener = TcpListener(inbox)
        try:
            peer_inbox = Inbox()
            result = {}
            t = threading.Thread(
                target=lambda: result.update(
                    end=tcp_connect_retry(listener.address, peer_inbox)
                )
            )
            t.start()
            server_end = listener.accept(timeout=10)
            t.join()
            assert server_end.transport_kind == "tcp"
            assert result["end"].transport_kind == "tcp"
            result["end"].close()
            server_end.close()
        finally:
            listener.close()

    def test_connect_ex_refused_by_accept_socket(self):
        # accept_socket(allow_shm=False) (event-loop path without shm)
        # NAKs the offer; the connector must come out with a plain TCP
        # socket.
        inbox = Inbox()
        listener = TcpListener(inbox)
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.update(
                    pair=tcp_dial(listener.address, attempts=1, shm=True)
                )
            )
            t.start()
            sock, refused = listener.accept_socket(timeout=10, allow_shm=False)
            t.join()
            assert refused is None
            conn_sock, rings = result["pair"]
            assert rings is None
            conn_sock.close()
            sock.close()
            assert live_segments() == []
        finally:
            listener.close()


class TestShmChannelEnd:
    def make_ends(self):
        a, b = socket.socketpair()
        a.setblocking(False)
        b.setblocking(False)
        # Build both directions by hand: two rings, crossed.
        r1 = ShmRing.create(1 << 16)
        r2 = ShmRing.create(1 << 16)
        left_inbox, right_inbox = Inbox(), Inbox()
        left = ShmChannelEnd(
            a,
            ShmRing.attach(r1.name, 1 << 16),
            ShmRing.attach(r2.name, 1 << 16),
            1,
            left_inbox,
        )
        right = ShmChannelEnd(b, r2, r1, 2, right_inbox)
        return left, right, left_inbox, right_inbox

    def test_bidirectional_traffic(self):
        left, right, left_inbox, right_inbox = self.make_ends()
        left.send(b"to-right")
        _, payload = right_inbox.get(timeout=5)
        assert payload == b"to-right"
        right.send(b"to-left")
        _, payload = left_inbox.get(timeout=5)
        assert payload == b"to-left"
        left.close()
        _, payload = right_inbox.get(timeout=5)
        assert payload is None
        right.close()
        deadline = time.monotonic() + 5
        while live_segments() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert live_segments() == []

    def test_burst_larger_than_ring(self):
        # 2 MiB of frames through 64 KiB rings: the sender must block
        # on ring space and the reader's credits must keep it moving.
        left, right, _, right_inbox = self.make_ends()
        payload = b"q" * 8192
        n = 256

        def pump():
            for _ in range(n):
                left.send(payload)

        t = threading.Thread(target=pump)
        t.start()
        got = 0
        while got < n:
            _, frame = right_inbox.get(timeout=10)
            assert frame == payload
            got += 1
        t.join()
        left.close()
        right.close()
