"""Shared-memory ring transport for co-located links.

MRNet's links are TCP connections, but a link whose two endpoints run
on the *same host* pays the full loopback stack — two syscalls per
frame on the read side alone — for bytes that never leave the machine.
Topology-aware systems (Karonis et al.'s multilevel collectives) treat
intra-host edges as a different, cheaper medium; this module is that
medium for the process runtime.

Design
------

Each upgraded link owns **two single-producer/single-consumer byte
rings** in POSIX shared memory (``multiprocessing.shared_memory``),
one per direction, carrying exactly the same 4-byte-length-framed
packet batches as the TCP transport — so
:func:`repro.core.batching.decode_batch` and ``Packet.lazy_from_wire``
work unchanged on frames read in place out of the ring (no copy out
of shared memory unless a frame wraps the ring edge).

Ring layout (``HEADER`` = 64 bytes, then ``capacity`` data bytes)::

    [0:8)   tail   u64 LE  monotonic bytes written (producer-owned)
    [8:16)  head   u64 LE  monotonic bytes read    (consumer-owned)
    [16]    closed         either side marks an orderly close
    [17]    stalled        producer found no room; consumer credits

Cursors are monotonic, so ``tail - head`` is the exact occupancy and
the ring may be filled completely (no wasted slot).  The producer
writes data before publishing ``tail``; the consumer reads data before
publishing ``head`` — each cursor has exactly one writer, which is the
whole SPSC correctness argument.

The TCP socket the link was negotiated on is kept as a **doorbell**:
one byte is sent when a write makes the ring non-empty (the consumer
may be asleep in ``select``) and when the consumer frees space for a
stalled producer.  Reusing the socket means liveness is unchanged —
kill or sever the peer and the doorbell socket reports EOF through
exactly the same code paths a TCP link would, so the fault-tolerance
machinery (heartbeats, degrade/repair policies) needs no new cases.

Negotiation rides the existing link hello (see
:class:`repro.transport.tcp.TcpListener`): a connector that wants the
upgrade sets the high bit of its hello id and follows it with a JSON
offer naming the two segments; the acceptor attaches and answers one
``ACK`` byte, or ``NAK`` — in which case both sides silently fall back
to plain TCP on the already-connected socket.  Failure anywhere
(segment creation, attach, an old peer) degrades to TCP, never to an
error.
"""

from __future__ import annotations

import collections
import json
import select
import selectors
import socket
import struct
import threading
import time
from typing import List, Optional, Tuple

from .channel import Inbox
from .eventloop import SEND_QUEUE_MAX_BYTES, LoopLink
from .tcp import HELLO_SHM_FLAG, _PassiveLoop, _recv_exact

__all__ = [
    "ShmRing",
    "ShmLink",
    "PassiveShmLink",
    "offer_shm",
    "accept_shm_offer",
    "shm_available",
    "live_segments",
    "DEFAULT_CAPACITY",
]

_LEN = struct.Struct(">I")
_U64 = struct.Struct("<Q")

#: Per-direction ring size.  Must exceed the largest single frame a
#: node can emit (the adaptive flush bound is 64 KiB; oversized lone
#: packets are rare and still fit with room to spare).
DEFAULT_CAPACITY = 1 << 20

_ACK = b"\x06"
_NAK = b"\x15"
_MAX_OFFER = 4096

# Names of shared-memory segments this process currently has mapped.
# The pytest leak guard asserts this drains to empty after each test,
# turning a forgotten close()/unlink() into a hard failure instead of
# an interpreter-exit ResourceWarning nobody reads.
_live_lock = threading.Lock()
_live_segments: set = set()
# Segments *created* by this process — attaches to these must not
# unregister from the resource tracker (the creator's unlink() will,
# and a double-unregister makes the tracker daemon print a KeyError).
_created_names: set = set()


def live_segments() -> List[str]:
    """Names of shm segments currently open in this process (leak guard)."""
    with _live_lock:
        return sorted(_live_segments)


def shm_available() -> bool:
    """True when POSIX shared memory works here (it may not in
    minimal containers without /dev/shm)."""
    try:
        ring = ShmRing.create(4096)
    except Exception:
        return False
    ring.close()
    ring.unlink()
    return True


def _untrack(shm) -> None:
    """Detach *shm* from the resource tracker (attach side only).

    ``SharedMemory(name=...)`` registers even non-creating attaches
    with the tracker (bpo-39959), so both processes would try to
    unlink at exit and the second would warn.  The creator stays
    registered — if it dies without cleanup, its tracker still
    reclaims the segment.
    """
    with _live_lock:
        # Note shm.name (no leading slash), not the raw _name.
        if shm.name in _created_names:
            return  # same-process attach: creator's unlink unregisters
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class ShmRing:
    """One direction of a co-located link: an SPSC byte ring in shm.

    One process is the producer (:meth:`try_write`), the other the
    consumer (:meth:`read_frames_inplace`, then :meth:`commit_read`);
    each instance is used in a single role.  Frames are
    4-byte-length-prefixed byte strings, identical to the TCP wire
    framing.
    """

    HEADER = 64

    def __init__(self, shm, capacity: int, created: bool):
        self._shm = shm
        self._buf = shm.buf
        self.capacity = capacity
        self.name = shm.name
        self._created = created
        self._open = True
        self._tail = _U64.unpack_from(self._buf, 0)[0]  # producer cursor
        self._head = _U64.unpack_from(self._buf, 8)[0]  # consumer cursor

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        """Create a fresh ring segment (the connector does this)."""
        from multiprocessing.shared_memory import SharedMemory

        if capacity <= cls.HEADER:
            raise ValueError("ring capacity too small")
        shm = SharedMemory(create=True, size=cls.HEADER + capacity)
        shm.buf[: cls.HEADER] = b"\0" * cls.HEADER
        with _live_lock:
            _live_segments.add(shm.name)
            _created_names.add(shm.name)
        return cls(shm, capacity, created=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        """Map an existing ring by name (the acceptor does this)."""
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(name=name)
        _untrack(shm)
        if shm.size < cls.HEADER + capacity:
            shm.close()
            raise ValueError(f"segment {name} smaller than offered capacity")
        with _live_lock:
            _live_segments.add(shm.name)
        return cls(shm, capacity, created=False)

    # -- producer side ------------------------------------------------------

    def try_write(self, payload) -> Tuple[bool, bool]:
        """Append one framed *payload* if it fits.

        Returns ``(written, was_empty)``.  ``was_empty`` means the
        consumer may be asleep and needs a doorbell.  A refusal sets
        the ``stalled`` flag so the consumer knows to send a credit
        doorbell once it frees space.  Frames larger than the ring can
        never fit and raise ``ValueError``.
        """
        buf = self._buf
        cap = self.capacity
        n = len(payload)
        need = 4 + n
        if need > cap:
            raise ValueError(
                f"frame of {n} bytes exceeds shm ring capacity {cap}"
            )
        tail = self._tail
        head = _U64.unpack_from(buf, 8)[0]
        if need > cap - (tail - head):
            buf[17] = 1  # stalled: consumer credits when space frees
            return False, False
        base = self.HEADER
        pos = tail % cap
        if pos + 4 <= cap:
            _LEN.pack_into(buf, base + pos, n)
        else:
            pre = _LEN.pack(n)
            k = cap - pos
            buf[base + pos : base + cap] = pre[:k]
            buf[base : base + 4 - k] = pre[k:]
        pos = (pos + 4) % cap
        if n:
            if pos + n <= cap:
                buf[base + pos : base + pos + n] = payload
            else:
                k = cap - pos
                view = memoryview(payload)
                buf[base + pos : base + cap] = view[:k]
                buf[base : base + n - k] = view[k:]
        was_empty = head == tail
        self._tail = tail + need
        _U64.pack_into(buf, 0, self._tail)  # publish after the data
        return True, was_empty

    # -- consumer side ------------------------------------------------------

    def read_frames_inplace(self) -> List[object]:
        """Drain complete frames **without copying them out of the ring**.

        Frames that sit contiguously in the ring come back as
        ``memoryview`` slices aliasing shared memory directly — zero
        copies; frames that wrap the ring edge are stitched into
        ``bytes`` (rare: only the frame straddling the wrap point).
        The consumer cursor is advanced privately but **not
        published**: the producer still sees the old head, so the
        aliased bytes cannot be overwritten until the caller finishes
        with the views and calls :meth:`commit_read`.
        """
        buf = self._buf
        cap = self.capacity
        base = self.HEADER
        head = self._head
        frames: List[object] = []
        while True:
            tail = _U64.unpack_from(buf, 0)[0]
            if head == tail:
                break
            pos = head % cap
            if pos + 4 <= cap:
                (n,) = _LEN.unpack_from(buf, base + pos)
            else:
                k = cap - pos
                (n,) = _LEN.unpack(
                    bytes(buf[base + pos : base + cap])
                    + bytes(buf[base : base + 4 - k])
                )
            if tail - head < 4 + n:  # defensive: producer publishes last
                break
            pos = (pos + 4) % cap
            if pos + n <= cap:
                frames.append(buf[base + pos : base + pos + n])
            else:
                k = cap - pos
                frames.append(
                    bytes(buf[base + pos : base + cap])
                    + bytes(buf[base : base + n - k])
                )
            head += 4 + n
        self._head = head
        return frames

    def commit_read(self) -> bool:
        """Publish the consumer cursor after an in-place read.

        Returns True when the commit freed space a stalled producer is
        waiting on (the caller owes it a credit doorbell).  Callers
        must drop every ``memoryview`` obtained from
        :meth:`read_frames_inplace` (or copy what they keep) before the
        producer can reuse the bytes — i.e. before calling this.
        """
        buf = self._buf
        if self._head == _U64.unpack_from(buf, 8)[0]:
            return False
        _U64.pack_into(buf, 8, self._head)
        if buf[17]:
            buf[17] = 0
            return True
        return False

    @property
    def readable(self) -> bool:
        """True when at least one unread byte is in the ring."""
        if not self._open:
            return False
        return _U64.unpack_from(self._buf, 0)[0] != self._head

    # -- lifecycle ----------------------------------------------------------

    def mark_closed(self) -> None:
        """Set the shared orderly-close flag (peer sees it on drain)."""
        try:
            self._buf[16] = 1
        except (ValueError, TypeError):
            pass

    @property
    def peer_closed(self) -> bool:
        try:
            return bool(self._buf[16])
        except (ValueError, TypeError):
            return True

    def close(self) -> None:
        """Unmap the segment (idempotent)."""
        if not self._open:
            return
        self._open = False
        with _live_lock:
            _live_segments.discard(self.name)
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exported view
            pass

    def unlink(self) -> None:
        """Remove the segment name (idempotent; either side may call).

        Both ends of a dead link unlink so the segment cannot outlive
        a SIGKILLed creator.  The attach side was already unregistered
        from the resource tracker (see :func:`_untrack`), so it skips
        ``SharedMemory.unlink``'s second unregister; the creator side
        unregisters even when the peer removed the file first.
        """
        with _live_lock:
            _created_names.discard(self.name)
        if self._created:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                # The peer unlinked first; the file is gone but our
                # tracker registration is not — drop it or the tracker
                # warns about a "leaked" segment at interpreter exit.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(
                        self._shm._name, "shared_memory"
                    )
                except Exception:
                    pass
            except OSError:
                pass
        else:
            try:
                from multiprocessing.shared_memory import _posixshmem

                _posixshmem.shm_unlink(self._shm._name)
            except (ImportError, FileNotFoundError, OSError):
                pass


# -- negotiation ------------------------------------------------------------


def offer_shm(
    sock: socket.socket, link_id: int, capacity: int = DEFAULT_CAPACITY
) -> Optional[Tuple[ShmRing, ShmRing]]:
    """Offer a shared-memory upgrade on a just-connected socket.

    Sends the flagged hello plus the segment offer and waits for the
    acceptor's verdict.  Returns ``(tx, rx)`` rings on ACK; on NAK —
    or if this host cannot create segments at all — sends/settles a
    plain hello and returns ``None`` so the caller proceeds over TCP.
    """
    tx = rx = None
    try:
        tx = ShmRing.create(capacity)
        rx = ShmRing.create(capacity)
    except Exception:
        if tx is not None:
            _destroy(tx)
        sock.sendall(_LEN.pack(link_id))
        return None
    offer = json.dumps(
        {"tx": tx.name, "rx": rx.name, "cap": capacity}
    ).encode("ascii")
    try:
        sock.sendall(
            _LEN.pack(link_id | HELLO_SHM_FLAG) + _LEN.pack(len(offer)) + offer
        )
        verdict = _recv_exact(sock, 1)
    except OSError:
        _destroy(tx, rx)
        raise
    if verdict == _ACK:
        return tx, rx
    _destroy(tx, rx)
    return None


def accept_shm_offer(
    sock: socket.socket, allow: bool = True
) -> Optional[Tuple[ShmRing, ShmRing]]:
    """Consume the offer frame following a flagged hello; ACK or NAK.

    Returns the acceptor-perspective ``(tx, rx)`` rings on success
    (the connector's ``rx`` is our ``tx``), or ``None`` after a NAK —
    the socket then simply stays a plain TCP link, which is the
    transparent-fallback contract.
    """
    (n,) = _LEN.unpack(_recv_exact(sock, 4))
    if n > _MAX_OFFER:
        raise ConnectionError(f"oversized shm offer ({n} bytes)")
    doc = json.loads(_recv_exact(sock, n))
    pair = None
    if allow:
        rx = tx = None
        try:
            capacity = int(doc["cap"])
            rx = ShmRing.attach(doc["tx"], capacity)
            tx = ShmRing.attach(doc["rx"], capacity)
            pair = (tx, rx)
        except Exception:
            if rx is not None:
                rx.close()
            pair = None
    sock.sendall(_ACK if pair else _NAK)
    return pair


def _destroy(*rings: ShmRing) -> None:
    for ring in rings:
        ring.close()
        # Both sides of a link unlink: if the creator was SIGKILLed its
        # segments must not outlive the link, and a double unlink is a
        # caught FileNotFoundError.  Existing mappings stay valid, so a
        # peer still draining is unaffected.
        ring.unlink()


# -- link ends over a ring pair ---------------------------------------------


class ShmLink(LoopLink):
    """A co-located link driven by the event loop over shared memory.

    A ring each way, and the negotiation socket kept as a doorbell (see
    the module docstring).  No thread: the doorbell socket is what the
    selector watches, and the rings are polled on every loop pass
    besides — doorbells are an optimization, not the only wakeup path.
    When the transmit ring is full the frame is parked in a bounded
    overflow deque (``SendQueueFull`` past the bound, exactly like the
    TCP send queue) and pumped into the ring as credit doorbells arrive.
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "shm"

    __slots__ = (
        "_sock", "_tx", "_rx", "_out", "_out_nbytes",
        "_c_writes", "_c_bytes_out", "_c_zero_copy",
    )

    def __init__(
        self,
        loop,
        sock: socket.socket,
        tx: ShmRing,
        rx: ShmRing,
        link_id: int,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        super().__init__(loop, link_id, max_send_bytes)
        # A TCP doorbell was born Nagle-off in the handshake (tcp._nodelay).
        sock.setblocking(False)
        self._sock = sock
        self._tx = tx
        self._rx = rx
        self._out: collections.deque = collections.deque()
        self._out_nbytes = 0
        self._c_writes = loop.metrics.counter("writes")
        self._c_bytes_out = loop.metrics.counter("bytes_out")
        self._c_zero_copy = loop.metrics.counter("shm_frames_zero_copy")

    @property
    def selectable(self) -> socket.socket:
        return self._sock

    @property
    def send_backlog(self) -> int:
        """Bytes parked beyond the ring (overflow deque)."""
        return self._out_nbytes

    def send(self, payload) -> None:
        """Write one framed payload into the ring, or park it.

        The fast path is a single ``try_write`` into shared memory —
        no syscall at all unless the ring was empty (doorbell).
        """
        size = self._admit(payload, self._out_nbytes)
        if not self._out and self._write(payload):
            return
        # Ring full: try_write set the stalled flag, so the peer sends
        # a credit doorbell once it drains; the loop pumps us then.
        self._out.append(payload if isinstance(payload, bytes) else bytes(payload))
        self._out_nbytes += size

    def _write(self, payload) -> bool:
        try:
            ok, was_empty = self._tx.try_write(payload)
        except ValueError as exc:
            # Released mapping (concurrent close) or a frame larger
            # than the ring: either way this link cannot carry it.
            raise ConnectionError(str(exc)) from exc
        if ok:
            self._c_writes.value += 1
            self._c_bytes_out.value += len(payload) + _LEN.size
            if was_empty:
                self._doorbell()
        return ok

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.forget(self)
        self._hang_up()
        self._release_rings()

    def _hang_up(self) -> None:
        """Tell the peer: the close flag for its drain, EOF on the doorbell."""
        self._tx.mark_closed()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _release_rings(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        _destroy(self._tx, self._rx)

    # -- loop-facing ------------------------------------------------------

    def on_events(self, mask: int) -> bool:
        """Readable doorbell: one poll answers wakeups and credits."""
        eof = self._drain_doorbell()
        worked = self.poll()
        if eof and not self._closed:
            self._dead()
            return True
        return worked

    def poll(self) -> bool:
        """Pump parked writes and deliver inbound frames."""
        if self._closed:
            return False
        worked = bool(self._out) and self._pump()
        worked |= self._receive()
        if self._closed:
            return True  # the core hung up: rings are gone
        rx = self._rx
        if rx.peer_closed and not rx.readable:
            self._dead()
            worked = True
        return worked

    def drain(self, deadline: float) -> None:
        """Parked frames enter the ring as the peer makes room; poll
        briefly rather than arming the selector."""
        clock = self._loop.clock
        while self._out and not self._closed and clock() < deadline:
            if not self._pump():
                time.sleep(0.005)

    def _receive(self) -> bool:
        """Deliver every frame in the receive ring; True if any.

        Zero-copy: frames arrive as memoryviews aliasing the ring.
        Anything the core keeps past delivery parks through a
        materialize() guard (batching buffers, sync queues, chunk
        queues), so afterwards the consumer cursor can be published and
        the bytes recycled.  Frames consumed inline never get copied
        out of shared memory.
        """
        rx = self._rx
        if self._closed or not rx.readable:
            return False
        frames = rx.read_frames_inplace()
        deliver = self._loop.deliver
        for frame in frames:
            if type(frame) is memoryview:
                self._c_zero_copy.value += 1
            deliver(self, frame)
        if not self._closed and rx.commit_read():
            self._doorbell()
        return bool(frames)

    def _pump(self) -> bool:
        """Move parked frames from the overflow deque into the ring."""
        out = self._out
        wrote = False
        while out:
            try:
                if not self._write(out[0]):
                    break
            except ConnectionError:
                self._dead()
                return True
            self._out_nbytes -= len(out.popleft()) + _LEN.size
            wrote = True
        return wrote

    def _dead(self) -> None:
        """EOF / ring failure: deliver what the peer managed to write,
        then report the death."""
        self._receive()
        self._loop.link_dead(self)

    def _doorbell(self) -> None:
        try:
            self._sock.send(b"\x01")
        except (BlockingIOError, InterruptedError):
            pass  # socket buffer full: doorbells are already pending
        except OSError:
            pass  # dying link: the doorbell's reader surfaces it via EOF

    def _drain_doorbell(self) -> bool:
        """Swallow pending doorbell bytes; True on EOF (peer death,
        exactly as for a TCP link).  Any byte may be a wakeup (ring
        went non-empty) or a credit (a stalled write can now retry)."""
        while True:
            try:
                data = self._sock.recv(4096)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                return True
            if not data:
                return True
            if len(data) < 4096:
                return False


class PassiveShmLink(ShmLink):
    """A passive end over a ring pair: the loop's link, on its own thread.

    The reader thread selects on the doorbell, waking at least every
    50 ms (the loop's own safety timeout), and runs the inherited
    ``on_events`` or ``poll``; the ring views they deliver are copied
    before they reach the owner's inbox.  ``send`` writes the frame
    into the ring on the caller's thread and, on a full ring, waits for
    a credit doorbell up to :attr:`SEND_TIMEOUT`: it never parks a
    frame, so ``SendQueueFull`` cannot happen.
    """

    #: A send blocked this long on a full ring means the peer stopped
    #: draining entirely; surface it as a dead link, like a TCP send
    #: that never completes.
    SEND_TIMEOUT = 30.0

    __slots__ = ("_send_lock", "_space")

    def __init__(
        self,
        sock: socket.socket,
        tx: ShmRing,
        rx: ShmRing,
        link_id: int,
        inbox: Inbox,
    ):
        super().__init__(_PassiveLoop(inbox), sock, tx, rx, link_id)
        self._send_lock = threading.Lock()
        # Set after every reader pass: any doorbell may be the credit
        # a blocked sender is waiting on.
        self._space = threading.Event()
        self._loop.start(self, self._serve, "shm-reader")

    def pause_reading(self) -> None:
        """Stall the reader thread before its next pass (fault injection)."""
        self._loop.reading.clear()

    def resume_reading(self) -> None:
        self._loop.reading.set()

    def send(self, payload) -> None:
        deadline = time.monotonic() + self.SEND_TIMEOUT
        with self._send_lock:
            while True:
                self._admit(payload, 0)  # ConnectionError once closed
                if self._write(payload):
                    return
                # Ring full: the peer credits us once it drains (the
                # stalled flag is set); the short wait is the safety
                # net against a lost credit.
                self._space.clear()
                self._space.wait(0.05)
                if time.monotonic() > deadline:
                    raise ConnectionError(
                        f"shm link {self.link_id}: send timed out "
                        f"(peer not draining)"
                    )

    def close(self) -> None:
        if self._closed:
            return
        # The reader thread may be inside the rings right now: it
        # releases them on its way out.
        self._closed = True
        self._hang_up()
        self._loop.forget(self)
        self._space.set()

    def _serve(self) -> None:
        sock, reading, rx = self._sock, self._loop.reading, self._rx
        try:
            while not self._closed:
                reading.wait()
                # A frame written while the last pass held the ring found
                # it non-empty and rang no bell: look before sleeping.
                try:
                    ready = select.select([sock], [], [], 0 if rx.readable else 0.05)[0]
                except (OSError, ValueError):
                    ready = True  # on_events reads a broken doorbell as EOF
                if ready:
                    self.on_events(selectors.EVENT_READ)
                else:
                    self.poll()
                self._space.set()
        finally:
            self._release_rings()
