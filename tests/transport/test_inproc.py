"""Tests for the in-process transport (colocated comm-node links).

An :class:`InprocLink` pair moves framed batches between two cores on
ONE shared event loop by deque hand-off — no sockets, no syscalls.
These tests pin down the ChannelEnd contract (send/capacity/backlog),
the sender-side backpressure bound, EOF ordering (frames before
``None``), and that a multi-core loop delivers each end's traffic to
the core that owns it.
"""

import struct
import threading
import time

import pytest

from repro.transport.eventloop import SEND_QUEUE_MAX_BYTES, EventLoop, SendQueueFull

_LEN = struct.Struct(">I")
RECV_TIMEOUT = 10.0


class RecorderCore:
    """A minimal NodeCore stand-in: records every delivered payload."""

    def __init__(self, name="core"):
        self.name = name
        self.inbox = _FakeInbox()
        self.crashed = False
        self.shutting_down = False
        self.extra_metrics = []
        self.received = []
        self.closed_links = []

    # -- surface the loop touches -----------------------------------------
    def handle_payload(self, link_id, payload):
        if payload is None:
            self.closed_links.append(link_id)
        else:
            self.received.append((link_id, payload))

    def admit_pending_children(self):
        pass

    def poll_streams(self):
        pass

    def heartbeat_tick(self):
        pass

    def next_wakeup_deadline(self):
        return None

    def maybe_flush(self):
        pass

    def flush(self):
        pass

    def close_all(self):
        pass


class _FakeInbox:
    def __init__(self):
        self.on_deliver = None

    def get_nowait(self):
        import queue

        raise queue.Empty

    def empty(self):
        return True


def wait_until(pred, timeout=RECV_TIMEOUT):
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


@pytest.fixture
def loop():
    lp = EventLoop()
    yield lp
    # Finish every bound core so run() exits, then join.
    for core in lp.cores:
        core.shutting_down = True
    lp.wake()
    if lp.thread_id is not None:
        for _ in range(1000):
            if not any(
                t.name == "test-loop" for t in threading.enumerate()
            ):
                break
            time.sleep(0.005)
    else:
        lp.close()


def start(loop):
    threading.Thread(target=loop.run, name="test-loop", daemon=True).start()


class TestPairSemantics:
    def test_send_delivers_to_peer_core(self, loop):
        a_core, b_core = RecorderCore("a"), RecorderCore("b")
        end_a, end_b = loop.add_inproc_pair(core_a=a_core, core_b=b_core)
        loop.bind(a_core)
        loop.bind(b_core)
        start(loop)
        end_a.send(b"hello")
        end_b.send(b"reply")
        assert wait_until(lambda: b_core.received and a_core.received)
        assert b_core.received == [(end_b.link_id, b"hello")]
        assert a_core.received == [(end_a.link_id, b"reply")]

    def test_transport_kind_and_metrics(self, loop):
        end_a, end_b = loop.add_inproc_pair()
        assert end_a.transport_kind == "inproc"
        m = end_a.link_metrics()
        assert m["kind"] == "inproc" and m["send_backlog_bytes"] == 0
        end_a.send(b"xyzzy")
        assert end_a.send_backlog == len(b"xyzzy") + _LEN.size

    def test_non_bytes_payload_rejected(self, loop):
        end_a, _ = loop.add_inproc_pair()
        with pytest.raises(TypeError):
            end_a.send("not bytes")

    def test_send_on_closed_end_raises(self, loop):
        end_a, _ = loop.add_inproc_pair()
        end_a.close()
        with pytest.raises(ConnectionError):
            end_a.send(b"x")

    def test_send_to_closed_peer_raises(self, loop):
        end_a, end_b = loop.add_inproc_pair()
        end_b.close()
        with pytest.raises(ConnectionError):
            end_a.send(b"x")


class TestBackpressure:
    def test_empty_backlog_accepts_any_single_frame(self, loop):
        end_a, _ = loop.add_inproc_pair(max_send_bytes=16)
        end_a.send(b"y" * 1000)  # oversized but backlog was empty

    def test_full_backlog_refuses(self, loop):
        end_a, _ = loop.add_inproc_pair(max_send_bytes=64)
        end_a.send(b"y" * 100)  # fills past the bound
        with pytest.raises(SendQueueFull):
            end_a.send(b"z")

    def test_capacity_tracks_peer_backlog(self, loop):
        end_a, _ = loop.add_inproc_pair()
        assert end_a.send_capacity() == SEND_QUEUE_MAX_BYTES
        end_a.send(b"q" * 100)
        assert (
            end_a.send_capacity()
            == SEND_QUEUE_MAX_BYTES - 100 - _LEN.size
        )

    def test_drain_restores_capacity(self, loop):
        a_core, b_core = RecorderCore("a"), RecorderCore("b")
        end_a, _ = loop.add_inproc_pair(
            core_a=a_core, core_b=b_core, max_send_bytes=256
        )
        loop.bind(a_core)
        loop.bind(b_core)
        end_a.send(b"y" * 300)
        assert end_a.send_capacity() == 0
        start(loop)
        assert wait_until(lambda: end_a.send_capacity() == 256)


class TestEofOrdering:
    def test_frames_then_none(self, loop):
        a_core, b_core = RecorderCore("a"), RecorderCore("b")
        end_a, end_b = loop.add_inproc_pair(core_a=a_core, core_b=b_core)
        loop.bind(a_core)
        loop.bind(b_core)
        # Queue frames, then close, all before the loop ever runs: the
        # peer must still see every frame before the EOF.
        end_a.send(b"one")
        end_a.send(b"two")
        end_a.close()
        start(loop)
        assert wait_until(lambda: b_core.closed_links)
        assert b_core.received == [
            (end_b.link_id, b"one"),
            (end_b.link_id, b"two"),
        ]
        assert b_core.closed_links == [end_b.link_id]

    def test_cross_thread_send_wakes_loop(self, loop):
        a_core, b_core = RecorderCore("a"), RecorderCore("b")
        end_a, _ = loop.add_inproc_pair(core_a=a_core, core_b=b_core)
        loop.bind(a_core)
        loop.bind(b_core)
        start(loop)
        time.sleep(0.05)  # let the loop park in select()
        t0 = time.monotonic()
        end_a.send(b"ping")
        assert wait_until(lambda: b_core.received, timeout=2.0)
        # Delivery must come from the wakeup, not the idle timeout.
        assert time.monotonic() - t0 < 1.0
