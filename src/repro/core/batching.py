"""Packet batching/unbatching (Figure 3, outermost layer).

"Data packets are batched into packet buffers, which logically
represent a series of communications destined for the same process, to
allow for fewer larger messages to be sent over busy connections,
reducing overall communication costs." (paper §2.3)

A :class:`PacketBuffer` accumulates packets bound for one neighbour and
encodes them into a single framed message:

.. code-block:: text

   uint32 packet_count | (uint32 length | packet bytes) ...

Packets are held *by reference* until :meth:`PacketBuffer.encode` is
called, so fan-out to several children never copies payloads (the
zero-copy path the paper calls out).

Unbatching is *lazy* by default: :func:`decode_batch` validates the
framing eagerly (counts, lengths, no trailing bytes) but yields
:meth:`~repro.core.packet.Packet.lazy_from_wire` packets whose payload
stays an undecoded ``memoryview`` slice of the inbound message.  A
relay hop that re-batches such a packet forwards the original frame
bytes untouched — no field decode, no validation, no re-encode.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from .packet import Packet, PacketDecodeError

__all__ = [
    "PacketBuffer",
    "encode_batch",
    "decode_batch",
    "FLUSH_MAX_PACKETS",
    "FLUSH_MAX_BYTES",
    "FLUSH_MAX_DELAY",
]

_U32 = struct.Struct(">I")

# Adaptive flush policy knobs (see docs/architecture.md).  A node's
# output buffers are transmitted when any of these trips: the buffer
# holds FLUSH_MAX_PACKETS packets or FLUSH_MAX_BYTES payload bytes, or
# FLUSH_MAX_DELAY seconds have passed since the first packet queued
# after the previous flush.  Event loops additionally flush whenever
# they are about to go idle, so the delay is only ever paid under
# sustained load — exactly when batching into "fewer larger messages
# over busy connections" (§2.3) pays for itself.
FLUSH_MAX_PACKETS = 128
FLUSH_MAX_BYTES = 1 << 16
FLUSH_MAX_DELAY = 0.001


def encode_batch(packets: Iterable[Packet]) -> bytes:
    """Encode an iterable of packets into one framed message.

    Uses :meth:`Packet.encoded_view`, so an undecoded lazy packet
    contributes its slice of the inbound message and an array packet
    the frame its values were cast into, neither through a private
    ``bytes`` copy: this join is the one copy a packet's bytes take on
    the way out.
    """
    bodies = [p.encoded_view() for p in packets]
    parts = [_U32.pack(len(bodies))]
    for body in bodies:
        parts.append(_U32.pack(len(body)))
        parts.append(body)
    return b"".join(parts)


def decode_batch(data: bytes | memoryview, *, lazy: bool = True) -> List[Packet]:
    """Decode a framed message back into its packets.

    Framing (count, per-packet lengths, trailing bytes) is validated
    eagerly either way.  With ``lazy=True`` (the default) each packet
    is a header-only :meth:`Packet.lazy_from_wire` over a zero-copy
    slice of *data*; its field values decode on first access, and a
    truncated/corrupt *body* raises :class:`PacketDecodeError` at that
    point instead of here.  ``lazy=False`` restores eager full decode.
    """
    view = memoryview(data)
    try:
        (count,) = _U32.unpack_from(view, 0)
    except struct.error as exc:
        raise PacketDecodeError("truncated batch header") from exc
    offset = _U32.size
    packets: List[Packet] = []
    for _ in range(count):
        try:
            (length,) = _U32.unpack_from(view, offset)
        except struct.error as exc:
            raise PacketDecodeError("truncated packet frame") from exc
        offset += _U32.size
        end = offset + length
        if end > len(view):
            raise PacketDecodeError("truncated packet body")
        if lazy:
            packets.append(Packet.lazy_from_wire(view[offset:end]))
        else:
            packet, consumed = Packet.decode_from(view[offset:end], 0)
            if consumed != length:
                raise PacketDecodeError("packet frame length mismatch")
            packets.append(packet)
        offset = end
    if offset != len(view):
        raise PacketDecodeError(f"{len(view) - offset} trailing bytes after batch")
    return packets


class PacketBuffer:
    """Accumulates packets destined for one neighbouring process.

    ``max_packets``/``max_bytes`` bound how much a buffer may hold
    before :meth:`should_flush` reports it is ready to send; a comm
    node flushes all buffers at the end of each processing round
    regardless, so these are upper bounds, not delays.

    Byte accounting uses :attr:`Packet.nbytes`, which for an undecoded
    lazy packet is the length of its wire frame — tracking size never
    forces a decode or an eager encode of a lazy packet.
    """

    __slots__ = ("destination", "max_packets", "max_bytes", "_packets", "_nbytes")

    def __init__(self, destination: object, max_packets: int = 128, max_bytes: int = 1 << 20):
        if max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.destination = destination
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self._packets: List[Packet] = []
        self._nbytes = 0

    def add(self, packet: Packet) -> None:
        """Append *packet* (by reference) to the buffer.

        The buffer may outlive the receive cycle that produced the
        packet, so a packet borrowing zero-copy shm ring memory is
        materialised here (a no-op for owned frames).
        """
        self._packets.append(packet.materialize())
        self._nbytes += packet.nbytes

    def extend(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.add(packet)

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def nbytes(self) -> int:
        """Total payload bytes currently buffered."""
        return self._nbytes

    def should_flush(self) -> bool:
        """True once the buffer hit its packet- or byte-count bound."""
        return len(self._packets) >= self.max_packets or self._nbytes >= self.max_bytes

    def drain(self) -> List[Packet]:
        """Remove and return the buffered packets (no encoding)."""
        packets, self._packets = self._packets, []
        self._nbytes = 0
        return packets

    def requeue(self, packets: List[Packet]) -> None:
        """Put drained packets back at the *front* of the buffer.

        Used when a send attempt fails recoverably (e.g. the link's
        bounded send queue is full) so backpressure never reorders or
        drops packets.
        """
        self._packets[:0] = packets
        self._nbytes += sum(p.nbytes for p in packets)

    def encode(self) -> bytes:
        """Encode and clear the buffer; returns the framed message."""
        return encode_batch(self.drain())
