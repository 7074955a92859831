"""Selector-driven event loop for comm-node processes.

One internal process owns many links — its parent, every child, plus
in-process channels under the threaded runtime.  The original runtime
spent one reader thread per TCP link and drove :class:`NodeCore` from
a polled ``queue.Queue``; this module replaces all of that with a
single ``selectors.DefaultSelector`` loop per process, mirroring how
the real ``mrnet_commnode`` multiplexes its socket set with
``select``:

* every TCP link is a non-blocking socket registered with the
  selector (:class:`SelectorLink`), read incrementally into a frame
  reassembly buffer and written through a bounded send queue with
  vectored ``sendmsg`` writes — no frame-join copy, no per-link
  thread;
* in-process :class:`~repro.transport.channel.Channel` deliveries
  interrupt the selector through a wakeup socketpair hooked onto the
  node's :class:`~repro.transport.channel.Inbox`;
* time-based work (TimeOut synchronization filters, the adaptive
  flush window) is scheduled by deadline: the selector sleeps exactly
  until the earliest one instead of spinning on a short poll.

The loop applies the adaptive flush policy (see
:mod:`repro.core.batching`): while inbound events keep arriving,
output buffers are allowed to accumulate up to the size/delay bounds
so bursty fan-in produces genuinely larger upstream messages; the
moment the loop would go idle, everything flushes, so light traffic
never waits on a batching timer.

Backpressure: each link's send queue is bounded
(``SEND_QUEUE_MAX_BYTES``).  :meth:`SelectorLink.send_capacity` lets
``NodeCore.flush`` *check before encoding* and keep packets parked in
their ``PacketBuffer`` (counted in the ``send_queue_full`` stat)
rather than buffering unboundedly toward a slow consumer.

Colocation: one loop can host *many* NodeCores (``bind`` is additive).
Every link records its owning core (``link._core``), the loop's timers
take the minimum deadline across hosted cores, and links between two
hosted cores can be :class:`~repro.transport.inproc.InprocLink` pairs
(see :meth:`EventLoop.add_inproc_pair`) — a send is then a deque
append, no syscall at all.  CPU-heavy filter transforms can be
sharded to a :class:`~repro.transport.workers.FilterWorkerPool`
(``workers=N``) so one big ndarray reduction never stalls colocated
siblings; completions are re-entered on the loop thread.
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

from ..obs.metrics import MetricsRegistry, StatsView
from .tcp import _alloc_link_id

__all__ = [
    "EventLoop",
    "SelectorLink",
    "ShmLink",
    "SendQueueFull",
    "SEND_QUEUE_MAX_BYTES",
]

log = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
_MAX_FRAME = 1 << 30
_RECV_CHUNK = 1 << 18
# One sendmsg call gathers at most this many buffers (IOV_MAX safety).
_SENDMSG_MAX_BUFFERS = 128

SEND_QUEUE_MAX_BYTES = 4 << 20


class SendQueueFull(RuntimeError):
    """A bounded per-link send queue refused a payload.

    Deliberately *not* a ``ConnectionError``: the link is healthy,
    just congested — callers should keep the data and retry, not drop
    it or tear the link down.
    """


class SelectorLink:
    """One non-blocking socket owned by an :class:`EventLoop`.

    Presents the ``ChannelEnd`` interface (``link_id`` / ``send`` /
    ``close`` / ``closed``) so a :class:`~repro.core.commnode.NodeCore`
    can use it as a parent or child link unchanged.
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "tcp"
    #: Dispatch flag for the loop: False = framed socket reads.
    _shm = False
    #: Dispatch flag: True only for same-loop InprocLink pairs.
    _inproc = False

    __slots__ = (
        "link_id",
        "max_send_bytes",
        "_loop",
        "_core",
        "_sock",
        "_out",
        "_out_nbytes",
        "_rbuf",
        "_closed",
        "_writing",
    )

    def __init__(
        self,
        loop: "EventLoop",
        sock: socket.socket,
        link_id: int,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        sock.setblocking(False)
        self.link_id = link_id
        self.max_send_bytes = max_send_bytes
        self._loop = loop
        self._core = None  # owning NodeCore; claimed at bind if unset
        self._sock = sock
        self._out: Deque[memoryview] = collections.deque()
        self._out_nbytes = 0
        self._rbuf = bytearray()
        self._closed = False
        self._writing = False

    # -- ChannelEnd interface ---------------------------------------------

    def send(self, payload: bytes) -> None:
        """Queue one framed payload for non-blocking transmission.

        An empty queue accepts any single payload (so a message larger
        than the bound can still leave); a non-empty queue refuses
        payloads that would exceed ``max_send_bytes`` with
        :class:`SendQueueFull`.

        When the queue is empty and we are on the loop thread, the
        frame is written to the socket *inline* (optimistic vectored
        send).  The common case — an uncongested link — then costs one
        ``sendmsg`` and never touches the selector; write interest is
        registered only for whatever the kernel would not take.
        """
        if self._closed:
            raise ConnectionError(f"link {self.link_id} is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("channel payloads must be bytes")
        n = len(payload)
        if self._out_nbytes and self._out_nbytes + n + _LEN.size > self.max_send_bytes:
            raise SendQueueFull(
                f"link {self.link_id}: send queue holds {self._out_nbytes} "
                f"bytes, refusing {n} more (bound {self.max_send_bytes})"
            )
        self._out.append(memoryview(_LEN.pack(n)))
        self._out.append(memoryview(payload))
        self._out_nbytes += n + _LEN.size
        loop = self._loop
        if self._out_nbytes == n + _LEN.size and (
            loop._thread_id is None or threading.get_ident() == loop._thread_id
        ):
            try:
                loop._pump_out(self)
            except OSError:
                # Leave the frames queued; the selector's write/read
                # handling will surface the dead link.
                pass
            if not self._out:
                return
        loop._request_write(self)

    def send_capacity(self) -> int:
        """Bytes the send queue can still accept without refusing.

        An empty queue reports its full bound; callers compare the
        encoded message size against this *before* encoding, which is
        how ``NodeCore.flush`` applies backpressure losslessly.
        """
        if self._out_nbytes == 0:
            return self.max_send_bytes
        return max(0, self.max_send_bytes - self._out_nbytes)

    @property
    def send_backlog(self) -> int:
        """Bytes currently queued toward the socket."""
        return self._out_nbytes

    def link_metrics(self) -> dict:
        """Point-in-time transport numbers for this link (JSON-able)."""
        return {
            "link_id": self.link_id,
            "send_backlog_bytes": self._out_nbytes,
            "closed": self._closed,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop._forget(self)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"SelectorLink(id={self.link_id}, backlog={self._out_nbytes}B"
            f"{', closed' if self._closed else ''})"
        )


class ShmLink:
    """A co-located link driven by the event loop over shared memory.

    Payload frames move through a pair of SPSC rings (see
    :mod:`repro.transport.shm`); the TCP socket the link was
    negotiated on stays registered with the selector purely as a
    *doorbell* — one byte wakes the consumer when the ring goes
    non-empty, one byte credits a stalled producer when space frees,
    and EOF reports peer death through the same selector path a TCP
    link would use.

    Presents the same ``ChannelEnd`` interface as
    :class:`SelectorLink`.  When the transmit ring is full the frame
    is parked in a bounded overflow deque (``SendQueueFull`` past the
    bound, exactly like the TCP send queue) and pumped into the ring
    as credit doorbells arrive.
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "shm"
    #: Dispatch flag for the loop: True = ring reads, doorbell socket.
    _shm = True
    #: Dispatch flag: True only for same-loop InprocLink pairs.
    _inproc = False

    __slots__ = (
        "link_id",
        "max_send_bytes",
        "_loop",
        "_core",
        "_sock",
        "_tx",
        "_rx",
        "_owner",
        "_out",
        "_out_nbytes",
        "_closed",
        "_writing",
    )

    def __init__(
        self,
        loop: "EventLoop",
        sock: socket.socket,
        tx,
        rx,
        link_id: int,
        owner: bool = False,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # e.g. a socketpair doorbell in tests
        sock.setblocking(False)
        self.link_id = link_id
        self.max_send_bytes = max_send_bytes
        self._loop = loop
        self._core = None  # owning NodeCore; claimed at bind if unset
        self._sock = sock
        self._tx = tx
        self._rx = rx
        self._owner = owner
        self._out: Deque[bytes] = collections.deque()
        self._out_nbytes = 0
        self._closed = False
        self._writing = False  # parity with SelectorLink; never selector-armed

    # -- ChannelEnd interface ---------------------------------------------

    def send(self, payload) -> None:
        """Write one framed payload into the ring, or park it.

        The fast path is a single ``try_write`` into shared memory —
        no syscall at all unless the ring was empty (doorbell).  A
        full ring parks the frame in the overflow deque; the bound
        semantics mirror :meth:`SelectorLink.send` (an empty queue
        accepts any single payload).
        """
        if self._closed:
            raise ConnectionError(f"link {self.link_id} is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("channel payloads must be bytes")
        n = len(payload)
        if self._out_nbytes and self._out_nbytes + n + _LEN.size > self.max_send_bytes:
            raise SendQueueFull(
                f"link {self.link_id}: send queue holds {self._out_nbytes} "
                f"bytes, refusing {n} more (bound {self.max_send_bytes})"
            )
        if not self._out:
            try:
                ok, was_empty = self._tx.try_write(payload)
            except ValueError as exc:
                # Released mapping (concurrent close) or a frame larger
                # than the ring: either way this link cannot carry it.
                raise ConnectionError(str(exc)) from exc
            if ok:
                loop = self._loop
                loop._c_writes.value += 1
                loop._c_bytes_out.value += n + _LEN.size
                if was_empty:
                    self._doorbell()
                return
        # Ring full: try_write set the stalled flag, so the peer sends
        # a credit doorbell once it drains; the loop pumps us then.
        self._out.append(payload if isinstance(payload, bytes) else bytes(payload))
        self._out_nbytes += n + _LEN.size

    def send_capacity(self) -> int:
        """Bytes the overflow queue can still accept without refusing."""
        if self._out_nbytes == 0:
            return self.max_send_bytes
        return max(0, self.max_send_bytes - self._out_nbytes)

    @property
    def send_backlog(self) -> int:
        """Bytes parked beyond the ring (overflow deque)."""
        return self._out_nbytes

    def link_metrics(self) -> dict:
        """Point-in-time transport numbers for this link (JSON-able)."""
        return {
            "link_id": self.link_id,
            "kind": "shm",
            "send_backlog_bytes": self._out_nbytes,
            "closed": self._closed,
        }

    def _doorbell(self) -> None:
        try:
            self._sock.send(b"\x01")
        except (BlockingIOError, InterruptedError):
            pass  # socket buffer full: doorbells are already pending
        except OSError:
            pass  # dying link: the selector surfaces it via EOF

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop._forget(self)
        self._tx.mark_closed()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._release_rings()

    def _release_rings(self) -> None:
        for ring in (self._tx, self._rx):
            ring.close()
            # Both sides unlink (double unlink is caught): segments
            # must not outlive the link when the creator was killed.
            ring.unlink()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"ShmLink(id={self.link_id}, backlog={self._out_nbytes}B"
            f"{', closed' if self._closed else ''})"
        )


class _Acceptor:
    """Selector registration for a listening socket.

    Late children — back-end leaf attaches during recursive
    instantiation, repair reconnects — are accepted on the loop
    thread and admitted as links without a dedicated accept thread.
    """

    __slots__ = ("listener", "remaining", "allow_shm", "core")

    def __init__(
        self, listener, remaining: Optional[int], allow_shm: bool, core=None
    ):
        self.listener = listener
        self.remaining = remaining
        self.allow_shm = allow_shm
        self.core = core  # admitting NodeCore; the loop default if None


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

    def __init__(self, clock=None, workers: int = 0):
        self.clock = clock or time.monotonic
        #: First bound core (single-node back-compat alias).
        self.core = None
        #: Every core hosted on this loop, in bind order.
        self.cores: List = []
        self._finished: set = set()  # id(core) of cores already torn down
        self.iterations = 0
        # Typed transport registry behind the legacy ``stats`` mapping;
        # the hot read/write paths bump pre-bound counters.
        self.metrics = MetricsRegistry()
        self._c_frames_in = self.metrics.counter("frames_in", "Framed messages read off sockets")
        self._c_bytes_in = self.metrics.counter("bytes_in", "Bytes read off sockets")
        self._c_writes = self.metrics.counter("writes", "sendmsg calls issued")
        self._c_bytes_out = self.metrics.counter("bytes_out", "Bytes written to sockets")
        self._c_wakeups = self.metrics.counter("wakeups", "Wakeup-pipe interrupts handled")
        self._c_shm_zero_copy = self.metrics.counter(
            "shm_frames_zero_copy",
            "Inbound shm frames delivered as ring-aliasing memoryviews "
            "(no copy out of shared memory)",
        )
        self.metrics.gauge("links_registered", "Sockets currently owned by this loop", fn=lambda: len(self._links))
        self.metrics.gauge(
            "send_backlog_bytes",
            "Bytes parked in all link send queues",
            fn=lambda: sum(l._out_nbytes for l in self._links.values()),
        )
        self.metrics.gauge(
            "cores_hosted",
            "NodeCores multiplexed onto this loop (1 solo, >1 colocated)",
            fn=lambda: len(self.cores),
        )
        self.metrics.gauge(
            "threads_per_node",
            "Steady-state OS threads (loop + filter workers) per hosted node",
            fn=lambda: (1 + (self.worker_pool.n_workers if self.worker_pool else 0))
            / max(1, len(self.cores)),
        )
        #: Optional pool CPU-heavy filter transforms are sharded to.
        self.worker_pool = None
        if workers:
            from .workers import FilterWorkerPool

            self.worker_pool = FilterWorkerPool(
                workers, wake=self.wake, registry=self.metrics
            )
        self.stats = StatsView(self.metrics)
        self._selector = selectors.DefaultSelector()
        self._links: Dict[int, SelectorLink] = {}
        # Shm links are additionally kept here: their rings are polled
        # once per iteration (doorbells are an optimization, not the
        # only wakeup path).
        self._shm_links: Dict[int, "ShmLink"] = {}
        # Inproc links whose receive deque went non-empty (or whose
        # peer closed) since the last drain; single-thread list, only
        # ever appended off-thread under the GIL followed by a wake.
        self._inproc_ready: List = []
        self._thread_id: Optional[int] = None
        self._wake_lock = threading.Lock()
        self._wake_pending = False
        self._deferred_writes: List[SelectorLink] = []
        self._pending_adoptions: List[tuple] = []
        wake_recv, wake_send = socket.socketpair()
        wake_recv.setblocking(False)
        wake_send.setblocking(False)
        self._wake_recv = wake_recv
        self._wake_send = wake_send
        self._selector.register(wake_recv, selectors.EVENT_READ, None)

    # -- wiring -----------------------------------------------------------

    def add_socket(
        self,
        sock: socket.socket,
        max_send_bytes: Optional[int] = None,
        core=None,
    ) -> SelectorLink:
        """Register a connected socket; returns its ChannelEnd-like link.

        *core* names the hosted NodeCore inbound frames belong to; it
        defaults to the loop's first bound core (links created before
        ``bind`` are claimed by the first core bound).
        """
        if max_send_bytes is None:
            max_send_bytes = SEND_QUEUE_MAX_BYTES
        link = SelectorLink(self, sock, _alloc_link_id(), max_send_bytes)
        link._core = core if core is not None else self.core
        self._links[link.link_id] = link
        self._selector.register(sock, selectors.EVENT_READ, link)
        return link

    def add_shm_link(
        self,
        sock: socket.socket,
        tx,
        rx,
        owner: bool = False,
        max_send_bytes: Optional[int] = None,
        core=None,
    ) -> "ShmLink":
        """Register a negotiated shared-memory link (see
        :func:`repro.transport.shm.offer_shm`); *sock* becomes its
        doorbell.  ``owner=True`` on the side that created the
        segments — it unlinks them at close."""
        if max_send_bytes is None:
            max_send_bytes = SEND_QUEUE_MAX_BYTES
        link = ShmLink(self, sock, tx, rx, _alloc_link_id(), owner, max_send_bytes)
        link._core = core if core is not None else self.core
        self._links[link.link_id] = link
        self._shm_links[link.link_id] = link
        self._selector.register(sock, selectors.EVENT_READ, link)
        return link

    def add_inproc_pair(self, core_a=None, core_b=None, max_send_bytes=None):
        """Create a same-loop in-process link pair (colocated edge).

        Returns ``(end_a, end_b)`` — two
        :class:`~repro.transport.inproc.InprocLink` ends whose sends
        are deque appends delivered on the next loop iteration.  Both
        ends live on *this* loop; *core_a* / *core_b* are the hosted
        cores each end delivers to (claimable later via ``_core``).
        """
        from .inproc import InprocLink

        if max_send_bytes is None:
            max_send_bytes = SEND_QUEUE_MAX_BYTES
        a = InprocLink(self, _alloc_link_id(), max_send_bytes)
        b = InprocLink(self, _alloc_link_id(), max_send_bytes)
        a._peer, b._peer = b, a
        a._core, b._core = core_a, core_b
        self._links[a.link_id] = a
        self._links[b.link_id] = b
        return a, b

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
            _Acceptor(listener, remaining, allow_shm, core),
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
                if link._core is None:
                    link._core = core
        self.cores.append(core)
        core.inbox.on_deliver = self.wake
        if self.worker_pool is not None and getattr(core, "worker_pool", 1) is None:
            core.worker_pool = self.worker_pool
            core.drain_worker_completions = self._drain_completions
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

    # -- write-interest management ----------------------------------------

    def _request_write(self, link: SelectorLink) -> None:
        if link._writing or link._closed:
            return
        if self._thread_id is None or threading.get_ident() == self._thread_id:
            self._enable_write(link)
        else:
            # Another thread queued data: the selector set is not safe
            # to mutate mid-select, so defer to the loop thread.
            with self._wake_lock:
                self._deferred_writes.append(link)
            self.wake()

    def _enable_write(self, link: SelectorLink) -> None:
        if link._writing or link._closed:
            return
        link._writing = True
        self._selector.modify(
            link._sock, selectors.EVENT_READ | selectors.EVENT_WRITE, link
        )

    def _disable_write(self, link: SelectorLink) -> None:
        if not link._writing or link._closed:
            return
        link._writing = False
        self._selector.modify(link._sock, selectors.EVENT_READ, link)

    def _forget(self, link: SelectorLink) -> None:
        self._links.pop(link.link_id, None)
        self._shm_links.pop(link.link_id, None)
        sock = getattr(link, "_sock", None)  # InprocLink has none
        if sock is None:
            return
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass

    # -- the loop ---------------------------------------------------------

    def run(self) -> None:
        """Drive every bound core until all have shut down or crashed."""
        if not self.cores:
            raise RuntimeError("EventLoop.run before bind(core)")
        self._thread_id = threading.get_ident()
        busy = False
        try:
            while True:
                active = [c for c in self.cores if id(c) not in self._finished]
                if not active:
                    break
                self.iterations += 1
                timeout = (
                    0.0
                    if busy or self._inproc_ready
                    else self._select_timeout(active)
                )
                events = self._selector.select(timeout)
                worked = False
                for key, mask in events:
                    link = key.data
                    if link is None:
                        self._on_wakeup()
                        continue
                    if isinstance(link, _Acceptor):
                        worked |= self._handle_accept(link)
                        continue
                    if link._shm:
                        if mask & selectors.EVENT_READ:
                            worked |= self._handle_doorbell(link)
                        continue
                    if mask & selectors.EVENT_READ:
                        worked |= self._handle_read(link)
                    if mask & selectors.EVENT_WRITE and not link._closed:
                        self._handle_write(link)
                for link in list(self._shm_links.values()):
                    worked |= self._poll_shm(link)
                worked |= self._drain_inproc()
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
                worked |= self._drain_completions() > 0
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
        socket send queues, then closes its ends.
        """
        if id(core) in self._finished:
            return
        self._finished.add(id(core))
        if core.crashed:
            core.close_all()
        else:
            core.flush()
            self._drain_outbound(
                [
                    l
                    for l in self._links.values()
                    if l._core is core and not l._inproc
                ]
            )
            core.close_all()
        # Safety net: loop links still recorded against this core that
        # close_all didn't know about (e.g. never attached).
        for link in [l for l in list(self._links.values()) if l._core is core]:
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

    def _on_wakeup(self) -> None:
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
            self._enable_write(link)
        for sock, core, adopted in adoptions:
            core = core if core is not None else self.core
            link = self.add_socket(sock, core=core)
            core.add_child(link)
            if adopted:
                core.stats["orphans_adopted"] += 1
            log.info(
                "%s: adopted orphan socket as link %d",
                core.name,
                link.link_id,
            )

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

    # -- in-process links (colocated peers) --------------------------------

    def _note_inproc(self, link) -> None:
        """Mark an inproc end ready (frames queued or peer closed)."""
        if link._pending:
            return
        link._pending = True
        self._inproc_ready.append(link)
        if self._thread_id is not None and threading.get_ident() != self._thread_id:
            self.wake()

    def _drain_inproc(self) -> bool:
        """Deliver queued inproc frames (and EOFs) to their cores.

        Delivery can enqueue more inproc traffic (a reduction hop
        forwarding to its colocated parent), so the ready list is
        re-swapped until a pass produces nothing — one loop iteration
        moves a whole colocated wave as far as it can go.
        """
        worked = False
        while self._inproc_ready:
            ready, self._inproc_ready = self._inproc_ready, []
            for link in ready:
                link._pending = False
                if link._closed:
                    link._rx.clear()
                    link._rx_nbytes = 0
                    continue
                core = link._core if link._core is not None else self.core
                dead = core is None or id(core) in self._finished
                rx = link._rx
                while rx:
                    frame = rx.popleft()
                    link._rx_nbytes -= len(frame) + _LEN.size
                    if dead:
                        continue
                    self._c_frames_in.value += 1
                    self._c_bytes_in.value += len(frame) + _LEN.size
                    core.handle_payload(link.link_id, frame)
                    worked = True
                if link._peer_closed and not link._closed:
                    link._closed = True
                    self._forget(link)
                    if not dead:
                        core.handle_payload(link.link_id, None)
                        worked = True
        return worked

    def _drain_completions(self) -> int:
        """Run parked worker-pool completions on the loop thread."""
        pool = self.worker_pool
        if pool is None:
            return 0
        return pool.drain_completed()

    # -- socket reads -----------------------------------------------------

    def _handle_read(self, link: SelectorLink) -> bool:
        try:
            data = link._sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return False
        except OSError:
            data = b""
        if not data:
            self._link_dead(link)
            return True
        self._c_bytes_in.value += len(data)
        core = link._core if link._core is not None else self.core
        rbuf = link._rbuf
        rbuf += data
        offset = 0
        view = memoryview(rbuf)
        try:
            while len(rbuf) - offset >= _LEN.size:
                (length,) = _LEN.unpack_from(rbuf, offset)
                if length > _MAX_FRAME:
                    log.warning(
                        "link %d: oversized frame (%d bytes); closing",
                        link.link_id,
                        length,
                    )
                    self._link_dead(link)
                    return True
                end = offset + _LEN.size + length
                if len(rbuf) < end:
                    break
                frame = bytes(view[offset + _LEN.size : end])
                offset = end
                core.handle_payload(link.link_id, frame)
                self._c_frames_in.value += 1
        finally:
            view.release()
            if offset:
                del rbuf[:offset]
        return True

    # -- shared-memory links ----------------------------------------------

    def _handle_accept(self, acc: _Acceptor) -> bool:
        """Readable listener: accept + hello + (maybe) shm upgrade."""
        try:
            sock, pair = acc.listener.accept_socket_ex(
                timeout=5.0, allow_shm=acc.allow_shm
            )
        except (OSError, ConnectionError, ValueError) as exc:
            log.warning("acceptor: failed to admit connection: %s", exc)
            return False
        core = acc.core if acc.core is not None else self.core
        if pair is not None:
            link = self.add_shm_link(sock, pair[0], pair[1], core=core)
        else:
            link = self.add_socket(sock, core=core)
        core.add_child(link)
        if acc.remaining is not None:
            acc.remaining -= 1
            if acc.remaining <= 0:
                try:
                    self._selector.unregister(acc.listener._server)
                except (KeyError, ValueError, OSError):  # pragma: no cover
                    pass
        return True

    def _handle_doorbell(self, link: "ShmLink") -> bool:
        """Readable doorbell socket: drain bytes, then poll the rings.

        Any byte may be a wakeup (ring went non-empty) or a credit (a
        stalled write can now retry); both are answered by one poll.
        EOF is peer death, exactly as for a TCP link.
        """
        eof = False
        while True:
            try:
                data = link._sock.recv(4096)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                data = b""
            if not data:
                eof = True
                break
            if len(data) < 4096:
                break
        worked = self._poll_shm(link)
        if eof and not link._closed:
            self._shm_dead(link)
            return True
        return worked

    def _poll_shm(self, link: "ShmLink") -> bool:
        """Pump parked writes and drain inbound frames for one link."""
        if link._closed:
            return False
        worked = False
        if link._out:
            worked |= self._pump_shm(link)
            if link._closed:
                return True
        rx = link._rx
        if rx.readable:
            # Zero-copy drain: frames arrive as memoryviews aliasing
            # the ring.  Anything the core keeps past this call parks
            # through a materialize() guard (batching buffers, sync
            # queues, chunk queues), so after delivery the consumer
            # cursor can be published and the bytes recycled.  Frames
            # consumed inline never get copied out of shared memory.
            frames = rx.read_frames_inplace()
            core = link._core if link._core is not None else self.core
            for frame in frames:
                self._c_frames_in.value += 1
                self._c_bytes_in.value += len(frame) + _LEN.size
                if type(frame) is memoryview:
                    self._c_shm_zero_copy.value += 1
                core.handle_payload(link.link_id, frame)
            if rx.commit_read():
                link._doorbell()
            worked |= bool(frames)
        if rx.peer_closed and not rx.readable and not link._closed:
            self._shm_dead(link)
            worked = True
        return worked

    def _pump_shm(self, link: "ShmLink") -> bool:
        """Move parked frames from the overflow deque into the ring."""
        out = link._out
        wrote = False
        while out:
            payload = out[0]
            try:
                ok, was_empty = link._tx.try_write(payload)
            except ValueError:
                self._shm_dead(link)
                return True
            if not ok:
                break
            out.popleft()
            link._out_nbytes -= len(payload) + _LEN.size
            self._c_writes.value += 1
            self._c_bytes_out.value += len(payload) + _LEN.size
            wrote = True
            if was_empty:
                link._doorbell()
        return wrote

    def _shm_dead(self, link: "ShmLink") -> None:
        """EOF / ring failure on a co-located link: deliver what the
        peer managed to write, then report the death to the core."""
        self._forget(link)
        core = link._core if link._core is not None else self.core
        if not link._closed:
            link._closed = True
            try:
                frames, _ = link._rx.read_frames()
            except Exception:
                frames = []
            for frame in frames:
                self._c_frames_in.value += 1
                self._c_bytes_in.value += len(frame) + _LEN.size
                core.handle_payload(link.link_id, frame)
            try:
                link._sock.close()
            except OSError:  # pragma: no cover
                pass
            link._release_rings()
        core.handle_payload(link.link_id, None)

    def _link_dead(self, link: SelectorLink) -> None:
        """EOF / error on a socket: unregister and tell the core."""
        self._forget(link)
        if not link._closed:
            link._closed = True
            try:
                link._sock.close()
            except OSError:  # pragma: no cover
                pass
        core = link._core if link._core is not None else self.core
        core.handle_payload(link.link_id, None)

    # -- socket writes ----------------------------------------------------

    def _handle_write(self, link: SelectorLink) -> None:
        try:
            self._pump_out(link)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            if getattr(exc, "errno", None) in (errno.EAGAIN, errno.EWOULDBLOCK):
                return
            self._link_dead(link)
            return
        if not link._out:
            self._disable_write(link)

    def _pump_out(self, link: SelectorLink) -> None:
        """Vectored non-blocking writes until the queue or socket is done."""
        out = link._out
        while out:
            bufs = list(itertools.islice(out, _SENDMSG_MAX_BUFFERS))
            try:
                sent = link._sock.sendmsg(bufs)
            except BlockingIOError:
                return
            self._c_writes.value += 1
            self._c_bytes_out.value += sent
            link._out_nbytes -= sent
            while sent:
                head = out[0]
                if sent >= len(head):
                    sent -= len(head)
                    out.popleft()
                else:
                    out[0] = head[sent:]
                    sent = 0

    def _drain_outbound(self, links=None, timeout: float = 1.0) -> None:
        """Best-effort blocking flush of send queues at shutdown.

        The SHUTDOWN broadcast to children is queued right before the
        loop exits; give the sockets a bounded window to take it.
        *links* restricts the drain to one core's ends (colocated
        loops tear cores down one at a time).
        """
        deadline = self.clock() + timeout
        for link in list(self._links.values()) if links is None else links:
            if link._inproc:
                continue  # peer frames are already in its deque
            if link._closed or not link._out:
                continue
            if link._shm:
                # Parked frames drain into the ring as the peer makes
                # room; briefly poll rather than arming the selector.
                while link._out and not link._closed and self.clock() < deadline:
                    if not self._pump_shm(link):
                        time.sleep(0.005)
                continue
            try:
                link._sock.setblocking(True)
                link._sock.settimeout(max(deadline - self.clock(), 0.01))
                self._pump_out(link)
            except OSError:
                pass

    def close(self) -> None:
        """Tear down a loop that never ran (failed or abandoned startup).

        ``run`` owns teardown once started; this frees the selector,
        wake pipe and worker pool of a loop whose thread was never
        launched, so construction failures don't leak fds or threads.
        """
        if self._thread_id is not None:
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
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
        for core in self.cores:
            if core.inbox.on_deliver is self.wake:
                core.inbox.on_deliver = None
        if self.core is not None and self.core.inbox.on_deliver is self.wake:
            self.core.inbox.on_deliver = None
