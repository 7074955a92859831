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
under the GIL and then goes through the loop's thread-safe
``mark_ready``; the read side runs exclusively on the loop thread.

``NodeCore`` backpressure and loss accounting apply unchanged, with
the same framing overhead constant (4 bytes/frame) counted against
``max_send_bytes`` as on a socket.
"""

from __future__ import annotations

import collections
import struct
from typing import Deque, Optional

from .eventloop import SEND_QUEUE_MAX_BYTES, LoopLink

__all__ = ["InprocLink"]

_LEN = struct.Struct(">I")


class InprocLink(LoopLink):
    """One end of a same-loop, same-process link pair.

    ``_rx`` holds frames the *peer* queued for this end; :meth:`poll`
    delivers them to this end's core.  Backpressure is enforced at the
    sender against the receiver's undrained backlog.
    """

    transport_kind = "inproc"

    __slots__ = ("peer", "_rx", "_rx_nbytes", "_peer_closed", "_marked")

    def __init__(
        self,
        loop,
        link_id: int,
        max_send_bytes: int = SEND_QUEUE_MAX_BYTES,
    ):
        super().__init__(loop, link_id, max_send_bytes)
        self.peer: Optional["InprocLink"] = None
        self._rx: Deque[bytes] = collections.deque()
        self._rx_nbytes = 0
        self._peer_closed = False
        self._marked = False  # on the loop's ready list

    @property
    def send_backlog(self) -> int:
        """Bytes queued toward the peer and not yet delivered."""
        return self.peer._rx_nbytes

    def send(self, payload) -> None:
        """Hand one framed payload to the peer's receive deque.

        No syscall, no copy for ``bytes`` payloads; ``memoryview`` /
        ``bytearray`` payloads are snapshotted (the sender may recycle
        the buffer).
        """
        peer = self.peer
        if self._peer_closed:
            raise ConnectionError(f"link {self.link_id}: peer is closed")
        size = self._admit(payload, peer._rx_nbytes)
        peer._rx.append(payload if isinstance(payload, bytes) else bytes(payload))
        peer._rx_nbytes += size
        peer._mark()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.forget(self)
        peer = self.peer
        if not peer._closed:
            # EOF propagation: the peer delivers its remaining frames,
            # then a ``None`` payload — same order a TCP FIN after
            # in-flight data would produce.
            peer._peer_closed = True
            peer._mark()

    def drop_undelivered(self) -> None:
        """Discard what this end sent and the peer has not yet been
        delivered (fault injection: an abrupt loss, so a following
        ``close()`` reaches the peer as a bare EOF)."""
        self.peer._rx.clear()
        self.peer._rx_nbytes = 0

    # -- loop-facing ------------------------------------------------------

    def _mark(self) -> None:
        if not self._marked:
            self._marked = True
            self._loop.mark_ready(self)

    def poll(self) -> bool:
        """Deliver queued frames, then the peer's EOF if it closed."""
        self._marked = False
        rx = self._rx
        if self._closed:
            rx.clear()
            self._rx_nbytes = 0
            return False
        worked = bool(rx)
        deliver = self._loop.deliver
        while rx:
            frame = rx.popleft()
            self._rx_nbytes -= len(frame) + _LEN.size
            deliver(self, frame)
        if self._peer_closed and not self._closed:
            self._loop.link_dead(self)
            worked = True
        return worked
