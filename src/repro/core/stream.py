"""Front-end stream handles (paper §2.1–2.2).

"A stream is a logical channel that connects the front-end to the
end-points of a communicator.  All tool-level communication via MRNet
uses streams."  A :class:`Stream` is the front-end's handle: ``send``
multicasts downstream to the stream's communicator; ``recv`` blocks
for the next aggregated upstream packet.

The front-end is single-threaded by design (tool front-ends drive
MRNet from their event loop), so ``recv`` pumps the network while it
waits; packets for *other* streams arriving meanwhile are queued on
those streams, supporting the paper's "multiple simultaneous,
asynchronous collective communication operations".

Streams created with ``chunk_bytes`` split large array sends into
pipeline fragments (see :mod:`repro.core.chunking`) so multi-level
trees overlap their hops; streams created with a reduce-to-all wave
pattern additionally broadcast each reduced wave back down to every
back-end, and :meth:`Stream.allreduce` receives the front-end's copy.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Tuple

from .chunking import SendWindow
from .communicator import Communicator
from .packet import Packet
from .protocol import FIRST_APP_TAG, WAVE_REDUCE, WAVE_REDUCE_TO_ALL

__all__ = ["Stream", "StreamClosed"]


class StreamClosed(RuntimeError):
    """Raised when using a stream after it was closed."""


class Stream:
    """A logical data channel between the front-end and a communicator.

    ``chunk_bytes`` (``None`` disables chunking — byte-exact legacy
    behaviour) and ``pattern`` (a wave pattern from
    :mod:`repro.core.protocol`) are fixed at creation by
    :meth:`repro.core.network.Network.new_stream`.
    """

    def __init__(
        self,
        network,
        stream_id: int,
        communicator: Communicator,
        chunk_bytes: Optional[int] = None,
        pattern: int = WAVE_REDUCE,
    ):
        self._network = network
        self.stream_id = stream_id
        self.communicator = communicator
        self.chunk_bytes = chunk_bytes
        self.pattern = pattern
        self.closed = False
        # Wave ids for front-end-originated fragments; nothing is
        # recorded, so downstream fragments are never replayed.
        self._window = SendWindow()

    # -- sending -------------------------------------------------------------

    def send(self, fmt: str, *values: Any, tag: int = FIRST_APP_TAG) -> None:
        """Multicast a packet downstream to every stream end-point.

        Mirrors Figure 2's ``stream->send("%d", FLOAT_MAX_INIT)``.
        Array payloads above the stream's ``chunk_bytes`` are split
        into pipeline fragments that multicast hop-overlapped.
        """
        self._check_open()
        # copy=False: every fragment is encoded (PacketBuffer.add) and
        # flushed before _send_downstream returns.
        packet = Packet(self.stream_id, tag, fmt, values, copy=False)
        self._send_maybe_chunked(packet)

    def send_packet(self, packet: Packet) -> None:
        """Multicast a pre-built packet (must carry this stream's id)."""
        self._check_open()
        if packet.stream_id != self.stream_id:
            raise ValueError(
                f"packet stream id {packet.stream_id} != {self.stream_id}"
            )
        self._send_maybe_chunked(packet)

    def _send_maybe_chunked(self, packet: Packet) -> None:
        for out in self._window.split(packet, self.chunk_bytes) or (packet,):
            self._network._send_downstream(out)

    # -- receiving ---------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Packet:
        """Block for the next upstream (aggregated) packet on this stream.

        Raises ``TimeoutError`` if *timeout* seconds elapse first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        return self._network._recv_on_stream(self.stream_id, deadline)

    def recv_values(self, timeout: Optional[float] = None) -> Tuple[Any, ...]:
        """Like :meth:`recv` but returns the packet's values directly."""
        return self.recv(timeout).unpack()

    def try_recv(self) -> Optional[Packet]:
        """Non-blocking receive: the next packet, or ``None``."""
        return self._network._try_recv_on_stream(self.stream_id)

    # -- collectives ---------------------------------------------------------

    def allreduce(self, timeout: Optional[float] = None) -> Tuple[Any, ...]:
        """Receive the next reduce-to-all result at the front-end.

        Valid only on streams created with the ``WAVE_REDUCE_TO_ALL``
        pattern: every back-end
        contribution wave is reduced up the tree, and the result is
        both delivered here and broadcast back down the same stream to
        every back-end — the MPI ``Allreduce`` shape mapped onto the
        overlay (Träff's pipelined reduce-to-all).  Returns the reduced
        packet's values; raises ``TimeoutError`` after *timeout*
        seconds and ``StreamClosed`` on a plain-reduction stream.
        """
        if self.pattern != WAVE_REDUCE_TO_ALL:
            raise StreamClosed(
                f"stream {self.stream_id} is not a reduce-to-all stream "
                f"(pattern={self.pattern})"
            )
        return self.recv_values(timeout)

    def scan(self, timeout: Optional[float] = None) -> Tuple[Any, ...]:
        """Receive the next prefix-scan result as a flat array.

        Convenience receive for ``TFILTER_SCAN`` streams: strips the
        filter's internal already-scanned flag and returns the running
        per-rank prefix values in back-end rank order (the tree
        formulation of ``MPI_Scan``).  On non-scan streams it simply
        returns the packet's values unchanged.
        """
        values = self.recv_values(timeout)
        if len(values) == 2 and values[0] == 1 and isinstance(values[1], tuple):
            return values[1]
        return values

    # -- delivery sinks ------------------------------------------------------

    def set_sink(self, sink) -> None:
        """Deliver this stream's results to *sink* instead of queuing.

        *sink* is called with each fully reassembled upstream
        :class:`Packet`, synchronously on the pumping thread.  While a
        sink is installed :meth:`recv`/:meth:`try_recv` see nothing;
        already-queued packets are flushed through the sink on
        installation.  The serving gateway uses this to demultiplex a
        shared stream across many client sessions.
        """
        self._check_open()
        self._network.set_stream_sink(self.stream_id, sink)

    def clear_sink(self) -> None:
        """Remove the delivery sink; results queue for ``recv`` again."""
        self._network.clear_stream_sink(self.stream_id)

    def set_wave_hooks(self, on_membership_change=None):
        """Install front-end hooks for this stream.

        ``on_membership_change(stream_id, epoch)`` fires on every
        change of the tree's membership, wherever it happened, with the
        new tree epoch (:attr:`membership_epoch`), synchronously on the
        pumping thread.  Pass ``None`` to leave the hook unchanged; use
        :meth:`clear_wave_hooks` to remove it.
        """
        core = self._network._core
        if self.stream_id not in core.streams and self.stream_id not in core._stream_specs:
            raise StreamClosed(
                f"stream {self.stream_id} has no front-end manager"
            )
        if on_membership_change is not None:
            core.membership_hooks[self.stream_id] = on_membership_change

    def clear_wave_hooks(self) -> None:
        """Remove any hooks installed by :meth:`set_wave_hooks`."""
        self._network._core.membership_hooks.pop(self.stream_id, None)

    @property
    def membership_epoch(self) -> int:
        """The tree's membership epoch, as the front-end stamped it.

        Starts at 0 and moves by one on every membership change
        anywhere in the tree — a death, an adoption, a join or a
        leave — whether or not it touched this stream's ranks.  Lets a
        tool correlate an aggregate with the log entry
        (:meth:`Network.recovery_events`) that was current.
        """
        return self._network._core.tree_epoch

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Tear the stream down across the network (idempotent)."""
        if not self.closed:
            self.closed = True
            self._network._close_stream(self.stream_id)

    def _check_open(self) -> None:
        if self.closed:
            raise StreamClosed(f"stream {self.stream_id} is closed")

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"Stream(id={self.stream_id}, endpoints={len(self.communicator)}, "
            f"{state})"
        )
