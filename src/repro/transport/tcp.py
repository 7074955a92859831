"""TCP transport: the link handshake, and passive ends over sockets.

Every TCP link in the system is born in :func:`tcp_dial` or
:meth:`TcpListener.accept_socket` (4-byte big-endian length-framed
packet batches follow the hello), and every connected socket is then
read and written by one class,
:class:`~repro.transport.eventloop.SelectorLink`.

The front-end and the back-ends are *passive* — driven by tool threads,
not by a loop — but their links are still the loop link of their
medium: :class:`PassiveSelectorLink`, or
:class:`~repro.transport.shm.PassiveShmLink` over negotiated rings,
each read by its own thread into the owner's
:class:`~repro.transport.channel.Inbox`.  :func:`_passive_end` makes
them; :func:`tcp_pair`, :meth:`TcpListener.accept` and
:func:`tcp_connect_retry` wrap it.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Callable, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .channel import Inbox
from .eventloop import SelectorLink, _alloc_link_id

__all__ = [
    "PassiveSelectorLink",
    "TcpListener",
    "tcp_pair",
    "tcp_dial",
    "tcp_connect_retry",
    "HELLO_SHM_FLAG",
]

_LEN = struct.Struct(">I")

#: High bit of the connection hello: the connector is offering a
#: shared-memory upgrade and a JSON offer frame follows (see
#: :mod:`repro.transport.shm`).  Link ids never reach this bit.
HELLO_SHM_FLAG = 0x8000_0000


class _PassiveLoop:
    """What a passive end's link calls in place of an ``EventLoop``.

    ``deliver`` puts a frame on the owner's inbox; ``link_dead`` closes
    the link; ``forget`` (the link is closing) releases a paused
    reader.  ``start`` runs the link's reader thread, which calls
    ``serve`` until the link is closed and then queues the one ``None``
    the owner sees last.  Between reads the thread waits on
    :attr:`reading` (``pause_reading`` clears it).
    """

    def __init__(self, inbox: Inbox):
        self.inbox = inbox
        self.metrics = MetricsRegistry()  # the counters link constructors bind
        self.reading = threading.Event()
        self.reading.set()

    def start(self, link, serve: Callable[[], None], name: str) -> None:
        def run():
            try:
                serve()
            finally:
                self.inbox._deliver(link.link_id, None)

        threading.Thread(
            target=run, name=f"{name}-{link.link_id}", daemon=True
        ).start()

    def deliver(self, link, frame) -> None:
        # A writable view aliases ring memory the link recycles, and an
        # inbox consumer keeps what it is given.
        if type(frame) is memoryview and not frame.readonly:
            frame = bytes(frame)
        self.inbox._deliver(link.link_id, frame)

    def link_dead(self, link) -> None:
        link.close()

    def forget(self, link) -> None:
        self.reading.set()  # a paused reader must see the link close


class PassiveSelectorLink(SelectorLink):
    """A passive end over a socket: the loop's link, on its own thread.

    The reader thread calls the inherited ``_read`` on the socket, now
    blocking, until the link closes.  ``send`` writes the whole frame
    through the inherited ``_pump`` on the caller's thread, so it
    returns once the frame is on the wire, never queues (``send_backlog``
    is 0, so ``SendQueueFull`` cannot happen), and raises
    ``ConnectionError`` on a dead socket.
    """

    __slots__ = ("_send_lock",)

    #: Frames never wait in a queue: ``send`` blocks until written.
    send_backlog = 0

    #: A blocking reader needs no big first read (larger frames take the
    #: exact-size path), and an idle one waits in ``recv`` holding this
    #: buffer: at 256 B it comes from Python's small-object allocator.
    #: The loop's 256 KiB cost 136 idle ends 4.7 MB more RSS (C-heap
    #: arenas) and 20 us more per 64 B round trip (2-CPU Linux VM).
    _recv_chunk = 256

    def __init__(self, sock: socket.socket, link_id: int, inbox: Inbox):
        super().__init__(_PassiveLoop(inbox), sock, link_id)
        sock.setblocking(True)
        self._send_lock = threading.Lock()
        self._loop.start(self, self._serve, "tcp-reader")

    def pause_reading(self) -> None:
        """Stall the reader thread before its next read (fault injection)."""
        self._loop.reading.clear()

    def resume_reading(self) -> None:
        self._loop.reading.set()

    def send(self, payload) -> None:
        with self._send_lock:
            size = self._admit(payload, 0)
            self._out.append(memoryview(_LEN.pack(size - _LEN.size)))
            self._out.append(memoryview(payload))
            self._out_nbytes += size
            try:
                self._pump()
            except OSError as exc:
                # The reader finds the same dead socket and ends the
                # link after the frames the peer got out.
                self._out.clear()
                self._out_nbytes = 0
                raise ConnectionError(str(exc)) from exc

    def _serve(self) -> None:
        reading = self._loop.reading
        while not self._closed:
            reading.wait()
            self._read()


def tcp_pair(inbox_a: Inbox, inbox_b: Inbox) -> Tuple[SelectorLink, SelectorLink]:
    """A connected pair of passive TCP ends, one per inbox."""
    sock_a, sock_b = socket.socketpair()
    return _passive_end(sock_a, None, inbox_a), _passive_end(sock_b, None, inbox_b)


def _nodelay(sock: socket.socket) -> None:
    """Turn Nagle off on a freshly born TCP link.

    Every TCP link in the system comes out of :func:`_dial_once` or
    :meth:`TcpListener.accept_socket`, and both call this first.  The
    overlay batches packets itself (``PacketBuffer``, ``BackEnd.flush``),
    so kernel coalescing only adds delay: with Nagle on, a small frame
    written while the previous one is unacknowledged waits for the
    peer's delayed ACK, about 40 ms on Linux loopback.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _passive_end(sock: socket.socket, rings, inbox: Inbox):
    """The one constructor of passive ends: a
    :class:`~repro.transport.shm.PassiveShmLink` over negotiated
    ``(tx, rx)`` rings, else a :class:`PassiveSelectorLink`; either
    delivers into *inbox* under a fresh local link id."""
    if rings is not None:
        from .shm import PassiveShmLink

        return PassiveShmLink(sock, rings[0], rings[1], _alloc_link_id(), inbox)
    return PassiveSelectorLink(sock, _alloc_link_id(), inbox)


class TcpListener:
    """Accepts connections, producing passive ends for a local inbox."""

    def __init__(self, inbox: Inbox, host: str = "127.0.0.1", port: int = 0):
        self._inbox = inbox
        self._server = socket.create_server((host, port))
        self.address = self._server.getsockname()

    def accept(self, timeout: Optional[float] = None):
        """Accept one connection, assigning it a fresh *local* link id.

        Link ids are local names for connections (routing tables and
        buffers key on them), so the two ends of one socket may use
        different ids.  The connector's hello id is consumed from the
        wire but deliberately not reused: distinct processes allocate
        ids independently, so trusting the remote id could collide
        with this process's existing links.

        A connector offering the shared-memory upgrade (see
        :mod:`repro.transport.shm`) gets it here: the returned end is
        then a :class:`~repro.transport.shm.PassiveShmLink` — same
        interface, same inbox deliveries.
        """
        return _passive_end(*self.accept_socket(timeout), self._inbox)

    def accept_socket(
        self, timeout: Optional[float] = None, allow_shm: bool = True
    ):
        """Accept one connection; returns ``(socket, shm_rings_or_None)``.

        Consumes the hello but starts no reader thread — event loops
        register the socket themselves.  When the connector offered a
        shared-memory upgrade the negotiation completes here: the
        second element is the acceptor-side ``(tx, rx)`` ring pair on
        success, ``None`` after a plain hello or a NAK
        (``allow_shm=False`` refuses every offer, so the connector
        transparently stays on TCP).
        """
        self._server.settimeout(timeout)
        sock, _ = self._server.accept()
        _nodelay(sock)
        # Bound the hello exchange so a half-open connector cannot
        # wedge the accept loop.
        sock.settimeout(timeout if timeout else 30.0)
        (hello,) = _LEN.unpack(_recv_exact(sock, _LEN.size))  # see accept()
        pair = None
        if hello & HELLO_SHM_FLAG:
            from .shm import accept_shm_offer

            pair = accept_shm_offer(sock, allow=allow_shm)
        sock.settimeout(None)
        return sock, pair

    def close(self) -> None:
        self._server.close()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """The next *n* handshake bytes (blocking, bounded by the socket's
    timeout)."""
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("peer closed during link handshake")
        data += chunk
    return data


def _dial_once(address, timeout, shm: bool, capacity: Optional[int]):
    # Listeners bind IPv4 literals: connect without create_connection's
    # getaddrinfo, which imports the idna codec in every forked child.
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    pair = None
    try:
        sock.settimeout(timeout)
        sock.connect(address)
        _nodelay(sock)
        if shm:
            from .shm import DEFAULT_CAPACITY, offer_shm

            # Bound the negotiation round-trip too, not just connect.
            sock.settimeout(timeout if timeout else 30.0)
            pair = offer_shm(
                sock, _alloc_link_id(), capacity or DEFAULT_CAPACITY
            )
        else:
            sock.sendall(_LEN.pack(_alloc_link_id()))
        sock.settimeout(None)
    except BaseException:
        sock.close()
        raise
    return sock, pair


def tcp_dial(
    address: Tuple[str, int],
    attempts: int = 5,
    timeout: Optional[float] = 5.0,
    base: float = 0.1,
    cap: float = 2.0,
    sleep: Callable[[float], None] = time.sleep,
    shm: bool = False,
    capacity: Optional[int] = None,
):
    """Connect to a :class:`TcpListener`; ``(socket, shm_rings_or_None)``.

    Performs the hello handshake but starts no reader thread; pair the
    socket with an event loop.  With ``shm=True`` the hello offers the
    shared-memory upgrade: the second element is the connector-side
    ``(tx, rx)`` ring pair when the acceptor took it, else ``None``
    (an ordinary framed TCP link — transparent fallback).

    Retries with capped exponential backoff (``attempts=1`` is a single
    try).  The common failure is a peer that is not listening *yet* —
    launch races during §2.5 instantiation — so short per-attempt
    timeouts and jittered backoff converge fast when it comes up, and
    a final failure raises
    :class:`~repro.core.failure.InstantiationError` naming the
    unreachable address and attempt count instead of a bare ``OSError``.
    """
    from ..core.failure import InstantiationError, backoff_delays

    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delays = backoff_delays(attempts, base=base, cap=cap)
    last: Optional[Exception] = None
    for k in range(attempts):
        try:
            return _dial_once(address, timeout, shm, capacity)
        except OSError as exc:
            last = exc
            if k < len(delays):
                sleep(delays[k])
    raise InstantiationError(address, attempts, str(last))


def tcp_connect_retry(address: Tuple[str, int], inbox: Inbox, **kwargs):
    """:func:`tcp_dial` (same arguments), wrapped in a passive end.

    With ``shm=True`` the connect offers the shared-memory upgrade;
    the returned end is then a
    :class:`~repro.transport.shm.PassiveShmLink` when the peer accepts,
    else a plain :class:`PassiveSelectorLink`.
    """
    return _passive_end(*tcp_dial(address, **kwargs), inbox)
