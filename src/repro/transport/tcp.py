"""TCP transport: channel ends over real sockets.

Real MRNet links are TCP connections.  This module provides
:class:`TcpChannelEnd` objects that are drop-in compatible with
:class:`~repro.transport.channel.ChannelEnd` — they ``send`` byte
payloads and deliver inbound payloads into an
:class:`~repro.transport.channel.Inbox` — but move the bytes through a
socket with a 4-byte big-endian length frame.

Use :func:`tcp_pair` for an in-process connected pair (tests, single
host), or :class:`TcpListener` + :func:`tcp_connect_retry` for
genuinely separate endpoints (e.g. one process tree per terminal on
localhost); both are the raw handshake (:func:`tcp_dial`,
:meth:`TcpListener.accept_socket`) plus this module's passive end.
Each end runs a small reader thread that feeds its inbox, mirroring
how a comm node's event loop owns its socket set — and its receive
rule: a payload is what one ``recv`` returned, or a read-only view of
an exact-size buffer the rest was received into; either way the inbox
consumer owns it.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Callable, Optional, Tuple

import numpy as np

from .channel import Inbox

__all__ = [
    "TcpChannelEnd",
    "TcpListener",
    "tcp_pair",
    "tcp_dial",
    "tcp_connect_retry",
    "HELLO_SHM_FLAG",
]

_LEN = struct.Struct(">I")
_MAX_FRAME = 1 << 30
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: High bit of the connection hello: the connector is offering a
#: shared-memory upgrade and a JSON offer frame follows (see
#: :mod:`repro.transport.shm`).  Link ids never reach this bit.
HELLO_SHM_FLAG = 0x8000_0000


def sendmsg_all(sock: socket.socket, buffers) -> None:
    """Write *buffers* to a blocking socket as one vectored send.

    ``sendmsg`` gathers the length prefix and payload frames straight
    from their owning buffers — no join copy.  Short writes (small
    ``SO_SNDBUF``) are continued from the partial offset.
    """
    if _HAS_SENDMSG:
        # Common case: the whole frame fits the socket buffer in one
        # vectored write — no memoryview wrapping, no continuation.
        sent = sock.sendmsg(buffers)
        total = 0
        for b in buffers:
            total += len(b)
        if sent == total:
            return
        views = [memoryview(b) for b in buffers if len(b)]
    else:  # pragma: no cover - non-POSIX fallback
        sock.sendall(b"".join(buffers))
        return
    while sent:
        if sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        else:
            views[0] = views[0][sent:]
            sent = 0
    while views:
        sent = sock.sendmsg(views)
        while sent:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0


class TcpChannelEnd:
    """One end of a TCP link, presenting the ChannelEnd interface.

    Keeps plain-int transport counters (frames/bytes in each
    direction), exposed via :meth:`link_metrics` — integer adds on the
    send/read paths, no registry lookups on the hot path.
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "tcp"

    def __init__(self, sock: socket.socket, link_id: int, inbox: Inbox):
        self.link_id = link_id
        self._sock = sock
        self._inbox = inbox
        self._send_lock = threading.Lock()
        self._closed = False
        self.frames_out = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.bytes_in = 0
        # Cleared to stall the reader between frames (fault injection:
        # a consumer that stops draining, so peer send queues back up).
        self._reading = threading.Event()
        self._reading.set()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"tcp-reader-{link_id}", daemon=True
        )
        self._reader.start()

    def pause_reading(self) -> None:
        """Stall the reader thread before its next frame (fault injection)."""
        self._reading.clear()

    def resume_reading(self) -> None:
        self._reading.set()

    def send(self, payload: bytes) -> None:
        if self._closed:
            raise ConnectionError(f"tcp link {self.link_id} is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("channel payloads must be bytes")
        # Vectored write: the kernel gathers prefix + payload, so the
        # frame is never joined into a transient Python bytes object.
        with self._send_lock:
            try:
                sendmsg_all(self._sock, (_LEN.pack(len(payload)), payload))
                self.frames_out += 1
                self.bytes_out += len(payload) + _LEN.size
            except OSError as exc:
                self._closed = True
                raise ConnectionError(str(exc)) from exc

    def link_metrics(self) -> dict:
        """Point-in-time transport numbers for this link (JSON-able)."""
        return {
            "link_id": self.link_id,
            "frames_in": self.frames_in,
            "bytes_in": self.bytes_in,
            "frames_out": self.frames_out,
            "bytes_out": self.bytes_out,
            "closed": self._closed,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            # Release a paused reader (fault injection) so it observes
            # the dead socket and exits instead of waiting forever.
            self._reading.set()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- reader -----------------------------------------------------------

    def _read_exact(self, n: int):
        """The next *n* bytes, or ``None`` at EOF.

        Same rule as ``SelectorLink._read``: what one ``recv`` returned
        when that is all of them, else a read-only view of an
        exact-size buffer the remainder was received into.
        """
        try:
            chunk = self._sock.recv(n)
            filled = got = len(chunk)
            if filled == n:
                return chunk
            # np.empty: bytearray(n) would zero-fill first.
            view = memoryview(np.empty(n, np.uint8))
            view[:filled] = chunk
            while got and filled < n:
                got = self._sock.recv_into(view[filled:])
                filled += got
        except OSError:
            return None
        return view.toreadonly() if filled == n else None

    def _read_loop(self) -> None:
        while True:
            self._reading.wait()
            header = self._read_exact(_LEN.size)
            if header is None:
                break
            (length,) = _LEN.unpack(header)
            if length > _MAX_FRAME:
                break
            payload = self._read_exact(length)
            if payload is None:
                break
            self.frames_in += 1
            self.bytes_in += length + _LEN.size
            self._inbox._deliver(self.link_id, payload)
        self._closed = True
        self._inbox._deliver(self.link_id, None)


_link_lock = threading.Lock()
_next_link_id = 1_000_000  # distinct range from in-memory channels


def _alloc_link_id() -> int:
    global _next_link_id
    with _link_lock:
        _next_link_id += 1
        return _next_link_id


def tcp_pair(inbox_a: Inbox, inbox_b: Inbox) -> Tuple[TcpChannelEnd, TcpChannelEnd]:
    """A connected pair of TCP ends sharing one link id."""
    sock_a, sock_b = socket.socketpair()
    link_id = _alloc_link_id()
    return (
        TcpChannelEnd(sock_a, link_id, inbox_a),
        TcpChannelEnd(sock_b, link_id, inbox_b),
    )


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
    """Wrap a handshaken socket in this module's reader-thread end (a
    :class:`~repro.transport.shm.ShmChannelEnd` over negotiated rings)."""
    if rings is not None:
        from .shm import ShmChannelEnd

        return ShmChannelEnd(sock, rings[0], rings[1], _alloc_link_id(), inbox)
    return TcpChannelEnd(sock, _alloc_link_id(), inbox)


class TcpListener:
    """Accepts connections, producing TcpChannelEnds for a local inbox."""

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
        then a :class:`~repro.transport.shm.ShmChannelEnd` — same
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
        raw = b""
        while len(raw) < _LEN.size:
            chunk = sock.recv(_LEN.size - len(raw))
            if not chunk:
                raise ConnectionError("peer closed during link handshake")
            raw += chunk
        (hello,) = _LEN.unpack(raw)  # hello id consumed; see accept()
        pair = None
        if hello & HELLO_SHM_FLAG:
            from .shm import accept_shm_offer

            pair = accept_shm_offer(sock, allow=allow_shm)
        sock.settimeout(None)
        return sock, pair

    def close(self) -> None:
        self._server.close()


def _dial_once(address, timeout, shm: bool, capacity: Optional[int]):
    sock = socket.create_connection(address, timeout=timeout)
    pair = None
    try:
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
    :class:`~repro.transport.shm.ShmChannelEnd` when the peer accepts,
    else a plain :class:`TcpChannelEnd`.
    """
    return _passive_end(*tcp_dial(address, **kwargs), inbox)
