"""One contract for every link kind an event loop owns, and for the
passive ends made of the same classes.

``SelectorLink`` (tcp), ``ShmLink`` (shm) and ``InprocLink`` (inproc)
differ in what carries the bytes and in nothing a ``NodeCore`` or the
loop may rely on.  The first test drives a pair of each kind on a live
loop through what the ``LoopLink`` protocol promises: FIFO delivery, the
bounded send queue, data-then-EOF, idempotent ``close`` and a loop left
with no links and no backlog.  Kind-specific behaviour (ring wrap-around,
doorbell credit, mid-frame EOF, zero-copy views) is tested next to each
kind.

A passive end (front-end, back-end) is the tcp or shm link class read by
its own thread into an ``Inbox``.  The second test holds a pair of each
to what their owners rely on: FIFO delivery, a blocking ``send`` that
never refuses (``SendQueueFull``) however far the peer's reader is
behind, data-then-EOF, idempotent ``close``, and a reader thread that
ends with the link.
"""

import socket
import sys
import threading
import time

import pytest

from repro.transport.channel import Inbox
from repro.transport.eventloop import SEND_QUEUE_MAX_BYTES, EventLoop, SendQueueFull
from repro.transport.shm import DEFAULT_CAPACITY, ShmRing, shm_available
from repro.transport.tcp import _passive_end

from .test_inproc import RecorderCore, wait_until

BOUND = 1024
BIG = 8192  # one payload several times the bound
RING = 1 << 16


def tcp_pair(loop, core_a, core_b):
    a, b = socket.socketpair()
    for sock in (a, b):
        # Tiny kernel buffers, so a few BIG payloads leave a remainder
        # in the send queue instead of vanishing into the socket.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    return (
        loop.add_socket(a, max_send_bytes=BOUND, core=core_a),
        loop.add_socket(b, max_send_bytes=BOUND, core=core_b),
    )


def shm_pair(loop, core_a, core_b):
    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    a, b = socket.socketpair()
    ab, ba = ShmRing.create(RING), ShmRing.create(RING)
    return (
        loop.add_shm_link(
            a, ab, ShmRing.attach(ba.name, RING), max_send_bytes=BOUND, core=core_a
        ),
        loop.add_shm_link(
            b, ba, ShmRing.attach(ab.name, RING), max_send_bytes=BOUND, core=core_b
        ),
    )


def inproc_pair(loop, core_a, core_b):
    return loop.add_inproc_pair(core_a, core_b, max_send_bytes=BOUND)


PAIRS = {"tcp": tcp_pair, "shm": shm_pair, "inproc": inproc_pair}


class ReplyingCore(RecorderCore):
    """Records a copy of every frame (a frame may alias the link's
    buffer and is only valid until ``handle_payload`` returns), then
    runs ``on_frame(payload)`` on the loop thread."""

    on_frame = None

    def handle_payload(self, link_id, payload):
        if payload is not None:
            payload = bytes(payload)
        super().handle_payload(link_id, payload)
        if payload is not None and self.on_frame is not None:
            self.on_frame(payload)


def payloads_of(core):
    return [payload for _, payload in core.received]


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_loop_link_contract(kind):
    loop = EventLoop()
    core_a, core_b = ReplyingCore("a"), ReplyingCore("b")
    end_a, end_b = PAIRS[kind](loop, core_a, core_b)
    loop.bind(core_a)
    loop.bind(core_b)
    gauges = lambda: loop.metrics.snapshot()["gauges"]
    thread = threading.Thread(target=loop.run, name="contract-loop", daemon=True)
    try:
        for end in (end_a, end_b):
            assert end.transport_kind == kind
            assert end.link_metrics()["kind"] == kind
        assert gauges()["links_registered"] == 2

        # -- the send bound, with nothing draining yet --------------------
        # An empty queue accepts any single payload, however oversize;
        # keep sending until the medium stops absorbing them.
        assert end_a.send_capacity() == BOUND
        sent = []
        while not end_a.send_backlog:
            assert len(sent) < 64, "link never queued anything"
            sent.append(bytes([len(sent)]) * BIG)
            end_a.send(sent[-1])
        # A non-empty queue refuses what would pass the bound, and
        # send_capacity() said so first.
        capacity = end_a.send_capacity()
        assert capacity < BOUND
        assert end_a.link_metrics()["send_backlog_bytes"] == end_a.send_backlog
        assert gauges()["send_backlog_bytes"] == end_a.send_backlog
        with pytest.raises(SendQueueFull):
            end_a.send(b"z" * (capacity + 1))
        with pytest.raises(TypeError):
            end_a.send("not bytes")

        # -- FIFO delivery once the loop runs -----------------------------
        thread.start()
        assert wait_until(lambda: len(core_b.received) == len(sent))
        assert payloads_of(core_b) == sent
        assert {link_id for link_id, _ in core_b.received} == {end_b.link_id}
        assert wait_until(lambda: gauges()["send_backlog_bytes"] == 0)
        assert end_a.send_capacity() == BOUND
        # Both directions, sent from another thread than the loop's.
        for i in range(50):
            end_b.send(b"%03d" % i * (1 + i % 7))
            assert wait_until(lambda: end_b.send_capacity() == BOUND)
        assert wait_until(lambda: len(core_a.received) == 50)
        assert payloads_of(core_a) == [b"%03d" % i * (1 + i % 7) for i in range(50)]

        # -- data, then EOF ------------------------------------------------
        # A core that answers and hangs up inside one callback (the
        # SHUTDOWN broadcast does this): both frames, then the None.
        def farewell(payload):
            if payload == b"bye?":
                end_b.send(b"bye")
                end_b.send(b"bye!")
                end_b.close()

        core_b.on_frame = farewell
        end_a.send(b"bye?")
        assert wait_until(lambda: core_a.closed_links)
        assert payloads_of(core_a)[-2:] == [b"bye", b"bye!"]
        assert core_a.closed_links == [end_a.link_id]

        # -- close is idempotent and leaves nothing behind ----------------
        assert end_a.closed and end_b.closed
        end_a.close()
        end_b.close()
        assert core_b.closed_links == []  # a local close is not an EOF
        with pytest.raises(ConnectionError):
            end_a.send(b"late")
        assert gauges()["links_registered"] == 0
        assert gauges()["send_backlog_bytes"] == 0
    finally:
        core_a.shutting_down = core_b.shutting_down = True
        loop.wake()
        if thread.ident is None:
            loop.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def passive_pair(kind):
    """Two passive ends of *kind* over one socketpair, one inbox each."""
    a, b = socket.socketpair()
    rings_a = rings_b = None
    if kind == "shm":
        if not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        ab, ba = ShmRing.create(DEFAULT_CAPACITY), ShmRing.create(DEFAULT_CAPACITY)
        rings_a = (ab, ShmRing.attach(ba.name, DEFAULT_CAPACITY))
        rings_b = (ba, ShmRing.attach(ab.name, DEFAULT_CAPACITY))
    inbox_a, inbox_b = Inbox(), Inbox()
    return _passive_end(a, rings_a, inbox_a), _passive_end(b, rings_b, inbox_b), inbox_a, inbox_b


def received(inbox, n):
    """The next *n* payloads on *inbox*, as bytes (none may be EOF)."""
    out = []
    for _ in range(n):
        _, payload = inbox.get(timeout=10)
        assert payload is not None, f"EOF after {len(out)} of {n} frames"
        out.append(bytes(payload))
    return out


@pytest.mark.parametrize("kind", ["tcp", "shm"])
def test_passive_end_contract(kind):
    end_a, end_b, inbox_a, inbox_b = passive_pair(kind)
    readers = {f"{kind}-reader-{end.link_id}" for end in (end_a, end_b)}
    alive = lambda: {t.name for t in threading.enumerate()} & readers
    try:
        assert alive() == readers  # one reader thread per end
        for end in (end_a, end_b):
            assert end.transport_kind == kind
            assert end.link_metrics()["kind"] == kind
            assert end.send_capacity() == end.max_send_bytes  # nothing queues

        # -- FIFO, both directions ----------------------------------------
        msgs = [b"%03d" % i * (1 + i % 7) for i in range(50)]
        for msg in msgs:
            end_a.send(msg)
            end_b.send(msg[::-1])
        assert received(inbox_b, 50) == msgs
        assert received(inbox_a, 50) == [msg[::-1] for msg in msgs]
        with pytest.raises(TypeError):
            end_a.send("not bytes")

        # -- a send blocks, never refuses, while the peer's reader is paused
        # More than a loop link's whole send-queue bound: the medium
        # (socket buffers, ring) fills and the sender waits on it.
        end_b.pause_reading()
        frames = [bytes([i]) * (64 << 10) for i in range(SEND_QUEUE_MAX_BYTES // (64 << 10) + 16)]
        sent, errors = [], []

        def pump():
            try:
                for frame in frames:
                    end_a.send(frame)
                    sent.append(len(frame))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        sender = threading.Thread(target=pump, name="contract-sender", daemon=True)
        sender.start()

        def stalled():
            before = len(sent)
            time.sleep(0.1)
            return len(sent) == before

        assert wait_until(stalled)
        assert sender.is_alive() and len(sent) < len(frames) and not errors
        end_b.resume_reading()
        sender.join(timeout=30)
        assert not sender.is_alive() and not errors
        assert received(inbox_b, len(frames)) == frames

        # -- data, then EOF ------------------------------------------------
        end_b.send(b"bye")
        end_b.send(b"bye!")
        end_b.close()
        assert received(inbox_a, 2) == [b"bye", b"bye!"]
        assert inbox_a.get(timeout=10) == (end_a.link_id, None)
        assert end_a.closed  # the peer's EOF ended it
        # A local close ends the owner's deliveries too, with one None.
        assert inbox_b.get(timeout=10) == (end_b.link_id, None)

        # -- close is idempotent; the reader threads are gone -------------
        end_a.close()
        end_b.close()
        with pytest.raises(ConnectionError):
            end_a.send(b"late")
        assert wait_until(lambda: not alive())
        assert inbox_a.empty() and inbox_b.empty()
    finally:
        end_a.close()
        end_b.close()


@pytest.mark.parametrize("kind", ["tcp", "shm"])
def test_passive_sends_from_many_threads_stay_whole_and_ordered(kind):
    """More senders than cores on one passive end, switching threads
    every few microseconds: each frame arrives once, whole, and every
    sender's frames in its own order."""
    end_a, end_b, _inbox_a, inbox_b = passive_pair(kind)
    senders, per_sender = 4, 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def pump(t):
            for i in range(per_sender):
                end_a.send(b"%d:%d:" % (t, i) + b"x" * (i % 300))

        threads = [threading.Thread(target=pump, args=(t,)) for t in range(senders)]
        for thread in threads:
            thread.start()
        got = received(inbox_b, senders * per_sender)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        end_a.close()
        end_b.close()
    order = {t: [] for t in range(senders)}
    for frame in got:
        t, i, pad = frame.split(b":", 2)
        assert pad == b"x" * (int(i) % 300)
        order[int(t)].append(int(i))
    assert all(seq == list(range(per_sender)) for seq in order.values())
