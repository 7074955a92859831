"""Selector-driven event loop for comm-node processes.

One internal process owns many links — its parent, every child, plus
in-process channels under the threaded runtime — and multiplexes them
on a single ``selectors.DefaultSelector`` thread, mirroring how the
real ``mrnet_commnode`` drives its socket set with ``select``.  One
loop can host *many* NodeCores (``bind`` is additive): every link
records the core its frames belong to and the loop's timers take the
minimum deadline across hosted cores.

The loop does not know what a link is made of.  Every loop-owned link
(:class:`SelectorLink` here, :class:`~repro.transport.shm.ShmLink`,
:class:`~repro.transport.inproc.InprocLink`) is a :class:`LoopLink`:
the ``ChannelEnd`` surface a :class:`~repro.core.commnode.NodeCore`
sends through, plus four things the loop calls:

``selectable``
    the socket to register for read events, or ``None``;
``on_events(mask)``
    that socket is ready: do the I/O, return True if anything moved;
``poll()``
    the link asked for a turn with ``mark_ready`` — for this pass, or
    for every pass when its medium has no readiness edge to report
    (shm rings): move what is pending, return True if anything moved;
``drain(deadline)``
    the owning core is shutting down: bounded last chance to push
    queued output before ``close()``.

The passive ends of the front-end and back-ends are these same
classes, each read by its own thread and calling a stand-in for the
loop (:mod:`repro.transport.tcp`), so every medium has one reader and
one writer.

Links call back into :meth:`EventLoop.deliver` (one inbound frame),
:meth:`~EventLoop.link_dead` (peer gone, after everything it sent was
delivered), :meth:`~EventLoop.want_write` and
:meth:`~EventLoop.mark_ready`, and ``forget`` themselves in
``close()``.  In return the loop guarantees that ``on_events``,
``poll`` and ``drain`` run on the loop thread only, that a link marked
ready is polled before the loop next sleeps (frames a poll delivers may
mark further links: the pass repeats until none is left, so a colocated
wave crosses every inproc hop in one iteration), and that frames reach
``core.handle_payload`` in arrival order followed by a single ``None``.
Who owns a delivered frame is told by its type: ``bytes`` or a
*read-only* ``memoryview`` is a buffer the link allocated for that one
frame and never touches again — the receiver may keep it; a *writable*
``memoryview`` aliases the link's receive memory (shm rings), is valid
until ``handle_payload`` returns, and a core copies what it keeps
(:meth:`~repro.core.packet.Packet.materialize`).

Time-based work (TimeOut synchronization filters, heartbeats, the
adaptive flush window) is scheduled by deadline: the selector sleeps
until the earliest one instead of spinning on a short poll.  While
inbound events keep arriving, output buffers accumulate up to the
size/delay bounds of :mod:`repro.core.batching`; the moment the loop
would go idle everything flushes, so light traffic never waits on a
batching timer.

Backpressure: each link's send queue is bounded
(``SEND_QUEUE_MAX_BYTES``).  ``send_capacity()`` lets
``NodeCore.flush`` *check before encoding* and keep packets parked in
their ``PacketBuffer`` (counted in the ``send_queue_full`` stat)
rather than buffering unboundedly toward a slow consumer.
"""

from __future__ import annotations

import collections
import errno
import itertools
import logging
import queue
import selectors
import socket
import struct
import threading
import time
from typing import Deque, Dict, List, Optional

import numpy as np

from ..core.packet import PacketDecodeError
from ..obs.metrics import MetricsRegistry

__all__ = [
    "EventLoop",
    "LoopLink",
    "SelectorLink",
    "SendQueueFull",
    "SEND_QUEUE_MAX_BYTES",
]

log = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
_MAX_FRAME = 1 << 30
# One sendmsg call gathers at most this many buffers (IOV_MAX safety).
_SENDMSG_MAX_BUFFERS = 128

SEND_QUEUE_MAX_BYTES = 4 << 20

_link_lock = threading.Lock()
_next_link_id = 1_000_000  # distinct range from in-memory channels


def _alloc_link_id() -> int:
    global _next_link_id
    with _link_lock:
        _next_link_id += 1
        return _next_link_id


class SendQueueFull(RuntimeError):
    """A bounded per-link send queue refused a payload.

    Deliberately *not* a ``ConnectionError``: the link is healthy,
    just congested — callers should keep the data and retry, not drop
    it or tear the link down.
    """


class LoopLink:
    """What every link owned by an :class:`EventLoop` shares.

    Subclasses provide ``transport_kind``, ``send``, ``send_backlog``
    and ``close``, and override whichever of the loop-facing defaults
    below their medium needs (see the module docstring).
    """

    __slots__ = ("link_id", "max_send_bytes", "core", "_loop", "_closed")

    #: Socket the loop registers for read events; ``None`` for none.
    selectable = None

    def __init__(self, loop: "EventLoop", link_id: int, max_send_bytes: int):
        self.link_id = link_id
        self.max_send_bytes = max_send_bytes
        #: Hosted NodeCore inbound frames belong to.
        self.core = None
        self._loop = loop
        self._closed = False

    def _admit(self, payload, backlog: int) -> int:
        """The send rule of every kind; returns the framed size.

        An empty queue accepts any single payload (so a message larger
        than the bound can still leave); a non-empty one refuses
        payloads that would exceed ``max_send_bytes``.
        """
        if self._closed:
            raise ConnectionError(f"link {self.link_id} is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("channel payloads must be bytes")
        size = len(payload) + _LEN.size
        if backlog and backlog + size > self.max_send_bytes:
            raise SendQueueFull(
                f"link {self.link_id}: send queue holds {backlog} bytes, "
                f"refusing {size - _LEN.size} more (bound {self.max_send_bytes})"
            )
        return size

    def send_capacity(self) -> int:
        """Bytes the send queue can still accept without refusing.

        An empty queue reports its full bound; callers compare the
        encoded message size against this *before* encoding, which is
        how ``NodeCore.flush`` applies backpressure losslessly.
        """
        backlog = self.send_backlog
        if backlog == 0:
            return self.max_send_bytes
        return max(0, self.max_send_bytes - backlog)

    def link_metrics(self) -> dict:
        """Point-in-time transport numbers for this link (JSON-able)."""
        return {
            "link_id": self.link_id,
            "kind": self.transport_kind,
            "send_backlog_bytes": self.send_backlog,
            "closed": self._closed,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def on_events(self, mask: int) -> bool:
        return False

    def poll(self) -> bool:
        return False

    def drain(self, deadline: float) -> None:
        pass

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.link_id}, "
            f"backlog={self.send_backlog}B{', closed' if self._closed else ''})"
        )


class SelectorLink(LoopLink):
    """One non-blocking framed TCP socket.

    Read with one ``recv`` per readiness event, big frames straight
    into their own buffer (see :meth:`_read`), and written through a
    bounded send queue with vectored ``sendmsg`` writes — no
    frame-join copy, no per-link thread.
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "tcp"

    #: Bytes the first ``recv`` of a read asks for: one read per
    #: readiness event has to take a whole burst of frames.
    _recv_chunk = 1 << 18

    __slots__ = (
        "_sock", "_out", "_out_nbytes", "_rbuf", "_frame", "_filled", "_writing",
        "_c_writes", "_c_bytes_out",
    )

    def __init__(
        self,
        loop: "EventLoop",
        sock: socket.socket,
        link_id: int,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        super().__init__(loop, link_id, max_send_bytes)
        sock.setblocking(False)
        self._sock = sock
        self._out: Deque[memoryview] = collections.deque()
        self._out_nbytes = 0
        self._rbuf = b""
        self._frame: Optional[memoryview] = None  # frame being received
        self._filled = 0
        self._writing = False  # write interest armed (or requested)
        self._c_writes = loop.metrics.counter("writes")
        self._c_bytes_out = loop.metrics.counter("bytes_out")

    @property
    def selectable(self) -> socket.socket:
        return self._sock

    @property
    def send_backlog(self) -> int:
        """Bytes currently queued toward the socket."""
        return self._out_nbytes

    def send(self, payload: bytes) -> None:
        """Queue one framed payload for non-blocking transmission.

        When the queue is empty and we are on the loop thread, the
        frame is written to the socket *inline* (optimistic vectored
        send).  The common case — an uncongested link — then costs one
        ``sendmsg`` and never touches the selector; write interest is
        registered only for whatever the kernel would not take.
        """
        size = self._admit(payload, self._out_nbytes)
        self._out.append(memoryview(_LEN.pack(size - _LEN.size)))
        self._out.append(memoryview(payload))
        self._out_nbytes += size
        if self._out_nbytes == size and self._loop.on_thread():
            try:
                self._pump()
            except OSError:
                # Leave the frames queued; the selector's write/read
                # handling will surface the dead link.
                pass
            if not self._out:
                return
        if not self._writing:
            self._writing = True
            self._loop.want_write(self)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.forget(self)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # -- loop-facing ------------------------------------------------------

    def on_events(self, mask: int) -> bool:
        worked = bool(mask & selectors.EVENT_READ) and self._read()
        if mask & selectors.EVENT_WRITE and not self._closed:
            self._write()
        return worked

    def drain(self, deadline: float) -> None:
        """Blocking best-effort flush: the SHUTDOWN broadcast is queued
        right before the loop exits; give the socket a bounded window
        to take it."""
        if self._closed or not self._out:
            return
        try:
            self._sock.setblocking(True)
            self._sock.settimeout(max(deadline - self._loop.clock(), 0.01))
            self._pump()
        except OSError:
            pass

    def _read(self) -> bool:
        """One ``recv`` per readiness event.

        Frames complete in what it returned are sliced out as
        ``bytes``.  One that is not gets a buffer of exactly its size:
        the prefix already read moves there once, later events
        ``recv_into`` the remainder in place, and the whole is
        delivered as a read-only view this link never touches again —
        the receiver owns it.
        """
        frame = self._frame
        try:
            if frame is None:
                data = self._sock.recv(self._recv_chunk)
            else:
                data = self._sock.recv_into(frame[self._filled :])
        except BlockingIOError:
            return False
        except OSError:
            data = None
        if not data:
            self._loop.link_dead(self)
            return True
        if frame is not None:
            self._filled += data
            if self._filled == len(frame):
                self._frame = None
                self._loop.deliver(self, frame.toreadonly())
            return True
        if self._rbuf:  # the split 4-byte header of the last read
            data = self._rbuf + data
        offset = 0
        size = len(data)
        deliver = self._loop.deliver
        while size - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(data, offset)
            if length > _MAX_FRAME:
                log.warning(
                    "link %d: oversized frame (%d bytes); closing",
                    self.link_id,
                    length,
                )
                self._loop.link_dead(self)
                return True
            start = offset + _LEN.size
            offset = start + length
            if size < offset:
                # np.empty: bytearray(length) would zero-fill first.
                self._frame = frame = memoryview(np.empty(length, np.uint8))
                self._filled = size - start
                frame[: self._filled] = memoryview(data)[start:]
                offset = size
                break
            deliver(self, data[start:offset])
        self._rbuf = data[offset:]
        return True

    def _write(self) -> None:
        try:
            self._pump()
        except OSError as exc:
            if exc.errno not in (errno.EAGAIN, errno.EWOULDBLOCK):
                self._loop.link_dead(self)
            return
        if not self._out and self._writing:
            self._writing = False
            self._loop.want_write(self, False)

    def _pump(self) -> None:
        """Vectored non-blocking writes until the queue or socket is done."""
        out = self._out
        while out:
            bufs = list(itertools.islice(out, _SENDMSG_MAX_BUFFERS))
            try:
                sent = self._sock.sendmsg(bufs)
            except BlockingIOError:
                return
            self._c_writes.value += 1
            self._c_bytes_out.value += sent
            self._out_nbytes -= sent
            while sent:
                head = out[0]
                if sent >= len(head):
                    sent -= len(head)
                    out.popleft()
                else:
                    out[0] = head[sent:]
                    sent = 0


class _Acceptor:
    """Selector entry for a listening socket.

    Late children — back-end leaf attaches during recursive
    instantiation, repair reconnects — are accepted on the loop
    thread and admitted as links without a dedicated accept thread.
    """

    __slots__ = ("loop", "listener", "remaining", "allow_shm", "core")

    def __init__(self, loop, listener, remaining, allow_shm, core):
        self.loop = loop
        self.listener = listener
        self.remaining = remaining
        self.allow_shm = allow_shm
        self.core = core  # admitting NodeCore; the loop default if None

    def on_events(self, mask: int) -> bool:
        """Readable listener: accept + hello + (maybe) shm upgrade."""
        loop = self.loop
        try:
            sock, pair = self.listener.accept_socket(
                timeout=5.0, allow_shm=self.allow_shm
            )
        except (OSError, ConnectionError, ValueError) as exc:
            log.warning("acceptor: failed to admit connection: %s", exc)
            return False
        core = self.core if self.core is not None else loop.core
        if pair is not None:
            link = loop.add_shm_link(sock, pair[0], pair[1], core=core)
        else:
            link = loop.add_socket(sock, core=core)
        core.add_child(link)
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining <= 0:
                try:
                    loop._selector.unregister(self.listener._server)
                except (KeyError, ValueError, OSError):  # pragma: no cover
                    pass
        return True


#: Selector entry for the wake pipe: anything with ``on_events``.
_WakeEntry = collections.namedtuple("_WakeEntry", "on_events")


class EventLoop:
    """One selector multiplexing all of a node's links and timers.

    Usage::

        loop = EventLoop()
        parent = loop.add_socket(parent_sock)        # SelectorLink
        core = NodeCore(..., parent=parent, inbox=loop_inbox)
        for sock in child_socks:
            core.add_child(loop.add_socket(sock))
        loop.bind(core)
        loop.run()        # until core.shutting_down

    ``iterations`` counts selector wakeups — tests use it to prove the
    loop sleeps until real deadlines instead of spinning.
    """

    # Safety cap on one select sleep: bounds the damage of any missed
    # wakeup to 50 ms without ever busy-waiting.
    IDLE_TIMEOUT = 0.05

    def __init__(self, clock=None):
        self.clock = clock or time.monotonic
        #: First bound core (single-node back-compat alias).
        self.core = None
        #: Every core hosted on this loop, in bind order.
        self.cores: List = []
        self._finished: set = set()  # id(core) of cores already torn down
        self.iterations = 0
        #: Thread running :meth:`run` (``None`` until it starts).
        self.thread_id: Optional[int] = None
        # Transport registry; the hot read/write paths bump pre-bound
        # counters (links bind the write-side ones by name).
        self.metrics = MetricsRegistry()
        self._c_frames_in = self.metrics.counter("frames_in", "Framed messages delivered by links")
        self._c_bytes_in = self.metrics.counter("bytes_in", "Framed bytes delivered by links")
        self.metrics.counter("writes", "sendmsg calls / ring writes issued")
        self.metrics.counter("bytes_out", "Bytes written to sockets and rings")
        self._c_wakeups = self.metrics.counter("wakeups", "Wakeup-pipe interrupts handled")
        self.metrics.counter(
            "shm_frames_zero_copy",
            "Inbound shm frames delivered as ring-aliasing memoryviews "
            "(no copy out of shared memory)",
        )
        self.metrics.gauge("links_registered", "Links currently owned by this loop", fn=lambda: len(self._links))
        self.metrics.gauge(
            "send_backlog_bytes",
            "Bytes parked in all link send queues",
            fn=lambda: sum(l.send_backlog for l in self._links.values()),
        )
        self.metrics.gauge(
            "cores_hosted",
            "NodeCores multiplexed onto this loop (1 solo, >1 colocated)",
            fn=lambda: len(self.cores),
        )
        self._selector = selectors.DefaultSelector()
        self._links: Dict[int, LoopLink] = {}
        # Links that asked for a poll() since the last pass; appended
        # off-thread only under the GIL followed by a wake.
        self._ready: List[LoopLink] = []
        # Links polled on every pass: their medium has no readiness
        # edge a selector or a sender could report reliably.
        self._resident: List[LoopLink] = []
        self._wake_lock = threading.Lock()
        self._wake_pending = False
        self._deferred_writes: List[LoopLink] = []
        self._pending_adoptions: List[tuple] = []
        wake_recv, wake_send = socket.socketpair()
        wake_recv.setblocking(False)
        wake_send.setblocking(False)
        self._wake_recv = wake_recv
        self._wake_send = wake_send
        self._selector.register(
            wake_recv, selectors.EVENT_READ, _WakeEntry(self._on_wakeup)
        )

    # -- wiring -----------------------------------------------------------

    def _register(self, link: LoopLink, core) -> LoopLink:
        """Own *link*: deliver its frames to *core* (default: the first
        bound core; links made before ``bind`` are claimed by it)."""
        link.core = core if core is not None else self.core
        self._links[link.link_id] = link
        if link.selectable is not None:
            self._selector.register(link.selectable, selectors.EVENT_READ, link)
        return link

    def add_socket(
        self,
        sock: socket.socket,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
        core=None,
    ) -> SelectorLink:
        """Register a connected socket; returns its ChannelEnd-like link."""
        return self._register(
            SelectorLink(self, sock, _alloc_link_id(), max_send_bytes), core
        )

    def add_shm_link(
        self,
        sock: socket.socket,
        tx,
        rx,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
        core=None,
    ):
        """Register a negotiated shared-memory link (see
        :func:`repro.transport.shm.offer_shm`); *sock* becomes its
        doorbell."""
        from .shm import ShmLink

        link = ShmLink(self, sock, tx, rx, _alloc_link_id(), max_send_bytes)
        # Rings have no readiness edge a selector could report reliably.
        self.mark_ready(link, every_pass=True)
        return self._register(link, core)

    def add_inproc_pair(
        self, core_a=None, core_b=None, max_send_bytes: int = SEND_QUEUE_MAX_BYTES
    ):
        """Create a same-loop in-process link pair (colocated edge).

        Returns ``(end_a, end_b)`` — two
        :class:`~repro.transport.inproc.InprocLink` ends whose sends
        are deque appends delivered on the next loop iteration.  Both
        ends live on *this* loop; *core_a* / *core_b* are the hosted
        cores each end delivers to.
        """
        from .inproc import InprocLink

        a = InprocLink(self, _alloc_link_id(), max_send_bytes)
        b = InprocLink(self, _alloc_link_id(), max_send_bytes)
        a.peer, b.peer = b, a
        return self._register(a, core_a), self._register(b, core_b)

    def add_acceptor(
        self,
        listener,
        remaining: Optional[int] = None,
        allow_shm: bool = True,
        core=None,
    ) -> None:
        """Accept inbound connections on the loop thread.

        Each accepted connection (hello consumed, shm negotiation
        honored when *allow_shm*) becomes a child link via
        ``core.add_child``.  With *remaining* set, the listener is
        unregistered after that many accepts (it stays open — the
        owner closes it); ``None`` accepts forever, which is what
        repair reconnection wants.
        """
        self._selector.register(
            listener._server,
            selectors.EVENT_READ,
            _Acceptor(self, listener, remaining, allow_shm, core),
        )

    def adopt_socket(
        self, sock: socket.socket, core=None, adopted: bool = True
    ) -> None:
        """Hand this loop a new *child* socket from another thread.

        Tree repair: the recovery coordinator connects an orphan to
        this node and delivers the adopter-side socket here.  Selector
        registration and ``core.add_child`` happen on the loop thread
        (selector sets are not safe to mutate mid-``select``), at the
        next wakeup.  ``adopted=False`` marks a voluntary join (not an
        orphan repair), so adoption accounting stays truthful.
        """
        with self._wake_lock:
            self._pending_adoptions.append((sock, core, adopted))
        self.wake()

    def bind(self, core) -> None:
        """Attach a NodeCore this loop drives; hooks its inbox wakeup.

        Additive: a colocated loop hosts many cores, one ``bind`` each.
        The first bound core stays reachable as ``loop.core`` and
        claims any links registered before binding.  Also registers
        this loop's transport metrics as an extra snapshot provider on
        the core (series gain a ``loop_`` prefix), so one
        ``STATS_SNAPSHOT`` reply carries both layers.
        """
        if self.core is None:
            self.core = core
            for link in self._links.values():
                if link.core is None:
                    link.core = core
        self.cores.append(core)
        core.inbox.on_deliver = self.wake
        extra = getattr(core, "extra_metrics", None)
        if extra is not None:
            extra.append(self._prefixed_snapshot)

    def core_finished(self, core) -> bool:
        """True once *core* has been torn down by this loop."""
        return id(core) in self._finished

    def _prefixed_snapshot(self) -> dict:
        """This loop's registry snapshot with every key ``loop_``-prefixed."""
        snap = self.metrics.snapshot()
        return {
            kind: {f"loop_{key}": value for key, value in series.items()}
            for kind, series in snap.items()
        }

    def on_thread(self) -> bool:
        """True on the loop thread (or before the loop runs at all)."""
        return self.thread_id is None or threading.get_ident() == self.thread_id

    def wake(self) -> None:
        """Interrupt a blocked ``select`` (thread-safe, coalescing)."""
        with self._wake_lock:
            if self._wake_pending:
                return
            self._wake_pending = True
        try:
            self._wake_send.send(b"\0")
        except (BlockingIOError, OSError):  # pragma: no cover - full pipe
            pass

    # -- what links call --------------------------------------------------

    def deliver(self, link: LoopLink, frame) -> None:
        """Hand one inbound frame (``None``: EOF) to the link's core.

        The only route from a link into a NodeCore.
        """
        if frame is not None:
            if link._closed:
                return  # closed while an earlier frame of this read was handled
            self._c_frames_in.value += 1
            self._c_bytes_in.value += len(frame) + _LEN.size
        try:
            link.core.handle_payload(link.link_id, frame)
        except PacketDecodeError as exc:
            # Bytes from a peer are untrusted: a frame that is not a
            # batch costs the sender its link, not this node its loop.
            self.metrics.counter(
                "frames_rejected",
                "Inbound frames refused as malformed (the link is closed)",
                kind=link.transport_kind,
            ).value += 1
            log.warning("link %d: malformed frame (%s); closing", link.link_id, exc)
            self.link_dead(link)

    def link_dead(self, link: LoopLink) -> None:
        """*link* lost its peer (EOF, error, poisoned frame): close it
        and tell its core.  The link has already delivered every frame
        the peer managed to send."""
        link.close()
        self.deliver(link, None)

    def want_write(self, link: LoopLink, on: bool = True) -> None:
        """Arm (or, from the loop thread, disarm) write-readiness events
        for ``link.selectable``.  Arming is thread-safe: the selector
        set is not safe to mutate mid-select, so other threads defer it
        to the loop thread."""
        if on and not self.on_thread():
            with self._wake_lock:
                self._deferred_writes.append(link)
            self.wake()
        elif not link.closed:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
            self._selector.modify(link.selectable, events, link)

    def mark_ready(self, link: LoopLink, every_pass: bool = False) -> None:
        """Have ``link.poll()`` called on the next pass over ready links
        (thread-safe), or with *every_pass* on all of them until the
        link is forgotten."""
        if every_pass:
            self._resident.append(link)
            return
        self._ready.append(link)
        if not self.on_thread():
            self.wake()

    def forget(self, link: LoopLink) -> None:
        """Stop owning *link* (it is closing)."""
        self._links.pop(link.link_id, None)
        if link in self._resident:
            self._resident.remove(link)
        if link.selectable is not None:
            try:
                self._selector.unregister(link.selectable)
            except (KeyError, ValueError, OSError):
                pass

    # -- the loop ---------------------------------------------------------

    def run(self) -> None:
        """Drive every bound core until all have shut down or crashed."""
        if not self.cores:
            raise RuntimeError("EventLoop.run before bind(core)")
        self.thread_id = threading.get_ident()
        busy = False
        try:
            while True:
                active = [c for c in self.cores if id(c) not in self._finished]
                if not active:
                    break
                self.iterations += 1
                timeout = (
                    0.0 if busy or self._ready else self._select_timeout(active)
                )
                worked = False
                for key, mask in self._selector.select(timeout):
                    worked |= key.data.on_events(mask)
                for link in tuple(self._resident):
                    worked |= link.poll()
                # A poll's deliveries can mark further links (a reduction
                # hop forwarding to its colocated parent), so the ready
                # list is re-swapped until a pass marks nothing: one
                # iteration moves a whole colocated wave as far as it goes.
                while self._ready:
                    ready, self._ready = self._ready, []
                    for link in ready:
                        worked |= link.poll()
                for core in active:
                    if core.crashed or core.shutting_down:
                        continue
                    core.admit_pending_children()
                    worked |= self._drain_inbox(core)
                    # O(active) tick: poll_streams walks only the
                    # core's armed-deadline set (empty for idle cores),
                    # so thousands of idle streams cost nothing here.
                    core.poll_streams()
                    core.heartbeat_tick()
                for core in active:
                    if core.crashed or core.shutting_down:
                        # A finished core's inproc ends propagate EOF to
                        # colocated peers through the ready list, so
                        # survivors keep running on this same loop.
                        self._finish_core(core)
                    elif worked:
                        core.maybe_flush()
                    else:
                        # Going idle: ship everything, batching window over.
                        core.flush()
                busy = worked
        finally:
            for core in self.cores:
                self._finish_core(core)
            self._shutdown_selector()

    def _finish_core(self, core) -> None:
        """Tear down one hosted core (idempotent).

        A crashed core dies abruptly — no flush, no goodbye; peers
        find out via EOF exactly like a SIGKILLed process.  A cleanly
        shutting-down core flushes, gets a bounded window to drain its
        links' send queues, then closes its ends.
        """
        if id(core) in self._finished:
            return
        self._finished.add(id(core))
        if not core.crashed:
            core.flush()
            deadline = self.clock() + 1.0
            for link in [l for l in self._links.values() if l.core is core]:
                link.drain(deadline)
        core.close_all()
        # Safety net: loop links still recorded against this core that
        # close_all didn't know about (e.g. never attached).
        for link in [l for l in self._links.values() if l.core is core]:
            link.close()
        if core.inbox.on_deliver is self.wake:
            core.inbox.on_deliver = None

    def _select_timeout(self, cores=None) -> float:
        deadline = None
        for core in cores if cores is not None else self.cores:
            # next_timeout_deadline is a heap peek over armed
            # deadlines — O(1) per core, not O(streams).
            for candidate in (
                core.next_timeout_deadline(),
                core.next_flush_deadline,  # property
                core.next_heartbeat_deadline(),
            ):
                if candidate is not None and (
                    deadline is None or candidate < deadline
                ):
                    deadline = candidate
        if deadline is None:
            return self.IDLE_TIMEOUT
        return min(max(deadline - self.clock(), 0.0), self.IDLE_TIMEOUT)

    def _on_wakeup(self, mask: int) -> bool:
        self._c_wakeups.value += 1
        # Drain before clearing the flag.  recv releases the GIL: with
        # the flag cleared first, a wake() landing mid-drain sets it and
        # sends a byte this drain then swallows, leaving the flag set
        # over an empty pipe so every later wake() is skipped.  A wake()
        # that sees the flag still set skips its byte, which is safe:
        # its work is queued and this iteration drains it below.
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        with self._wake_lock:
            self._wake_pending = False
            deferred, self._deferred_writes = self._deferred_writes, []
            adoptions, self._pending_adoptions = self._pending_adoptions, []
        for link in deferred:
            self.want_write(link)
        for sock, core, adopted in adoptions:
            core = core if core is not None else self.core
            # Admitted (and counted) by this iteration's core tick.
            core.offer_child(self.add_socket(sock, core=core), adopted)
        return False

    def _drain_inbox(self, core=None) -> bool:
        """Dispatch in-process channel deliveries queued on the inbox."""
        core = core if core is not None else self.core
        worked = False
        while not (core.shutting_down or core.crashed):
            try:
                link_id, payload = core.inbox.get_nowait()
            except queue.Empty:
                break
            core.handle_payload(link_id, payload)
            worked = True
        return worked

    def close(self) -> None:
        """Tear down a loop that never ran (failed or abandoned startup).

        ``run`` owns teardown once started; this frees the selector and
        wake pipe of a loop whose thread was never launched, so
        construction failures don't leak fds.
        """
        if self.thread_id is not None:
            return
        self._shutdown_selector()

    def _shutdown_selector(self) -> None:
        for link in list(self._links.values()):
            link.close()
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError, OSError):  # pragma: no cover
            pass
        self._wake_recv.close()
        self._wake_send.close()
        self._selector.close()
        for core in self.cores:
            if core.inbox.on_deliver is self.wake:
                core.inbox.on_deliver = None
