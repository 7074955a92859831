"""In-process transport for colocated comm nodes.

When two comm nodes share one event loop (one host group of a
``colocate=True`` :class:`~repro.core.network.Network`), a link between them
never needs a socket, a ring, or even a lock: a send is a deque append
on the receiving end, and delivery happens on the very next loop
iteration.  :class:`InprocLink` is that hand-off — already-framed
batches move by reference, no syscalls, no copies.

Both ends of a pair MUST be owned by the *same* :class:`EventLoop`
(see :meth:`EventLoop.add_inproc_pair`): the deques are unlocked
single-thread structures.  Sends from other threads are still safe
only because the queuing side touches nothing but the peer's deque
under the GIL and then goes through the loop's thread-safe ``wake``;
the read side runs exclusively on the loop thread.

The ``ChannelEnd`` surface matches :class:`SelectorLink` — ``send`` /
``send_capacity`` / ``send_backlog`` / ``close`` / ``closed`` — so
``NodeCore`` backpressure and loss accounting apply unchanged, with
the same framing overhead constant (4 bytes/frame) counted against
``max_send_bytes``.
"""

from __future__ import annotations

import collections
import struct
from typing import Deque, Optional

from .eventloop import SEND_QUEUE_MAX_BYTES, SendQueueFull

__all__ = ["InprocLink"]

_LEN = struct.Struct(">I")


class InprocLink:
    """One end of a same-loop, same-process link pair.

    ``_rx`` holds frames the *peer* queued for this end; the owning
    loop drains it via ``_drain_inproc`` and delivers each frame to
    this end's bound core.  Backpressure is enforced at the sender
    against the receiver's undrained backlog, mirroring the TCP send
    queue bound (an empty backlog accepts any single frame).
    """

    #: Transport classification for the obs ``links{kind=...}`` census.
    transport_kind = "inproc"
    #: Dispatch flags for the loop (no socket, no ring).
    _shm = False
    _inproc = True

    __slots__ = (
        "link_id",
        "max_send_bytes",
        "_loop",
        "_core",
        "_peer",
        "_rx",
        "_rx_nbytes",
        "_closed",
        "_peer_closed",
        "_pending",
    )

    def __init__(
        self,
        loop,
        link_id: int,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        self.link_id = link_id
        self.max_send_bytes = max_send_bytes
        self._loop = loop
        self._core = None  # owning NodeCore; set by the loop/builder
        self._peer: Optional["InprocLink"] = None
        self._rx: Deque[bytes] = collections.deque()
        self._rx_nbytes = 0
        self._closed = False
        self._peer_closed = False
        self._pending = False  # parked on the loop's ready list

    # -- ChannelEnd interface ---------------------------------------------

    def send(self, payload) -> None:
        """Hand one framed payload to the peer's receive deque.

        No syscall, no copy for ``bytes`` payloads; ``memoryview`` /
        ``bytearray`` payloads are snapshotted (the sender may recycle
        the buffer).  Bound semantics mirror
        :meth:`SelectorLink.send`: an empty peer backlog accepts any
        single payload, a non-empty one refuses overflow with
        :class:`SendQueueFull`.
        """
        if self._closed:
            raise ConnectionError(f"link {self.link_id} is closed")
        peer = self._peer
        if peer is None or peer._closed or self._peer_closed:
            raise ConnectionError(f"link {self.link_id}: peer is closed")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError("channel payloads must be bytes")
        n = len(payload)
        if peer._rx_nbytes and peer._rx_nbytes + n + _LEN.size > self.max_send_bytes:
            raise SendQueueFull(
                f"link {self.link_id}: peer holds {peer._rx_nbytes} "
                f"undrained bytes, refusing {n} more (bound {self.max_send_bytes})"
            )
        peer._rx.append(payload if isinstance(payload, bytes) else bytes(payload))
        peer._rx_nbytes += n + _LEN.size
        peer._loop._note_inproc(peer)

    def send_capacity(self) -> int:
        """Bytes the peer's undrained backlog can still accept."""
        peer = self._peer
        if peer is None or peer._rx_nbytes == 0:
            return self.max_send_bytes
        return max(0, self.max_send_bytes - peer._rx_nbytes)

    @property
    def send_backlog(self) -> int:
        """Bytes queued toward the peer and not yet drained."""
        peer = self._peer
        return 0 if peer is None else peer._rx_nbytes

    # The loop's send_backlog_bytes gauge sums ``_out_nbytes`` over its
    # links; a property satisfies that through __slots__.
    @property
    def _out_nbytes(self) -> int:
        return self.send_backlog

    def link_metrics(self) -> dict:
        """Point-in-time transport numbers for this link (JSON-able)."""
        return {
            "link_id": self.link_id,
            "kind": "inproc",
            "send_backlog_bytes": self.send_backlog,
            "closed": self._closed,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop._forget(self)
        peer = self._peer
        if peer is not None and not peer._closed:
            # EOF propagation: the peer's loop delivers its remaining
            # frames, then a ``None`` payload — same order a TCP FIN
            # after in-flight data would produce.
            peer._peer_closed = True
            peer._loop._note_inproc(peer)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"InprocLink(id={self.link_id}, backlog={self.send_backlog}B"
            f"{', closed' if self._closed else ''})"
        )
