"""Chunked-wave framing: split big payloads into pipeline fragments.

A data packet whose numeric array payload exceeds a stream's
``chunk_bytes`` threshold is carried as ``n_chunks`` sub-packets on the
same stream, tagged :data:`~repro.core.protocol.TAG_CHUNK`.  Each chunk
prefixes the original field values with the framing fields of
:data:`CHUNK_PREFIX_FMT`::

    (wave_id, chunk_index, n_chunks, original_tag, *sliced values)

Scalar (and string) fields are replicated into every chunk; numeric
array fields are sliced into ``n_chunks`` contiguous ranges.  The
original packet's tag rides along as ``original_tag`` so reassembly is
lossless; ``wave_id`` is a per-sender sequence number used to detect
wave restarts after a mid-wave fault.

Chunking is what lets a depth-*d* tree overlap its hops: hop *k*
reduces chunk *i* while hop *k−1* is still reducing chunk *i+1*
(Träff's pipelined collectives, arXiv:2109.12626).  The codec is pure —
splitting then reassembling reproduces the original packet's values
exactly.

The wave ids also number every link's fragments, and the two halves
of that link protocol are written once, here: :class:`SendWindow`
(used by ``Stream``, ``BackEndStream`` and ``StreamManager``) and
:class:`ReceiveWindow` (``StreamManager`` keys it by child link and
drops duplicates; ``BackEnd`` and the front-end key it by ``(stream,
origin)`` and only reassemble).  A live link neither loses nor
reorders a frame, so nothing is acknowledged or re-requested: only a
repair replays, onto a new link, and history exists under
``policy="repair"`` alone.  Policy — when to split, when to record,
when to filter per fragment, when a wave counts as aggregated — stays
in those callers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .formats import FormatString, TypeCode, parse_format
from .packet import NATIVE_DTYPE, Packet
from .protocol import TAG_CHUNK

__all__ = [
    "CHUNK_PREFIX_FMT",
    "N_PREFIX_FIELDS",
    "chunkable_bytes",
    "split_packet",
    "wrap_chunk",
    "is_chunk",
    "chunk_meta",
    "strip_chunk",
    "reassemble",
    "ChunkReassembler",
    "SendWindow",
    "ReceiveWindow",
    "HISTORY_MAX_WAVES",
    "HISTORY_MAX_BYTES",
]

#: Framing fields prepended to every chunk's value tuple:
#: wave id, chunk index, chunk count, original application tag.
CHUNK_PREFIX_FMT = "%ud %ud %ud %d"

#: Number of framing fields in :data:`CHUNK_PREFIX_FMT`.
N_PREFIX_FIELDS = 4

#: Send-window bound, in output waves.  Deep enough to cover the waves
#: a parent can plausibly lose between heartbeat detection and repair;
#: shallow enough that history stays a rounding error next to the
#: parked fragments themselves.
HISTORY_MAX_WAVES = 8

#: Send-window bound, in encoded payload bytes.  Mirrors the
#: transport's per-link send-queue ceiling
#: (:data:`repro.transport.eventloop.SEND_QUEUE_MAX_BYTES`) so a
#: stream can never pin more memory in history than one link may
#: queue under backpressure.  The wave being recorded is never
#: evicted, so one wave larger than this is still held whole.
HISTORY_MAX_BYTES = 4 << 20


def _sliceable(spec) -> bool:
    """True for fields that chunking may slice (numeric arrays)."""
    return spec.is_array and spec.code is not TypeCode.STRING


def chunkable_bytes(packet: Packet) -> int:
    """Total payload bytes held in *packet*'s numeric array fields.

    This — not the full frame size — is what chunking divides: scalars
    and strings replicate into every fragment.  Returns 0 for packets
    with no numeric array field, which are never split.
    """
    total = 0
    fmt = packet.fmt
    values = packet.raw_values
    for spec, value in zip(fmt.fields, values):
        if _sliceable(spec):
            total += len(value) * NATIVE_DTYPE[spec.code].itemsize
    return total


def split_packet(
    packet: Packet, chunk_bytes: int, wave_id: int
) -> Optional[List[Packet]]:
    """Split *packet* into ``TAG_CHUNK`` fragments of ≈``chunk_bytes``.

    Returns ``None`` when the packet should travel whole: chunking
    disabled (``chunk_bytes`` falsy), no numeric array payload, or the
    payload already fits in one chunk.  Otherwise returns the ordered
    fragment list; ``reassemble`` of that list reproduces the original
    values exactly.
    """
    if not chunk_bytes:
        return None
    total = chunkable_bytes(packet)
    if total <= chunk_bytes:
        return None
    n_chunks = -(-total // int(chunk_bytes))  # ceil division
    fmt = packet.fmt
    chunk_fmt = parse_format(f"{CHUNK_PREFIX_FMT} {fmt.canonical}")
    values = packet.raw_values
    chunks: List[Packet] = []
    for i in range(n_chunks):
        sliced = []
        for spec, value in zip(fmt.fields, values):
            if _sliceable(spec):
                length = len(value)
                sliced.append(value[i * length // n_chunks : (i + 1) * length // n_chunks])
            else:
                sliced.append(value)
        chunks.append(
            Packet.trusted(
                packet.stream_id,
                TAG_CHUNK,
                chunk_fmt,
                (wave_id, i, n_chunks, packet.tag, *sliced),
                packet.origin_rank,
            )
        )
    return chunks


def wrap_chunk(packet: Packet, wave_id: int, index: int, n_chunks: int) -> Packet:
    """Re-frame a whole packet as fragment *index* of an output wave.

    The incremental (chunkwise) pipeline uses this to forward each
    partial filter result upstream immediately: the filter's output for
    one aligned chunk becomes one ``TAG_CHUNK`` fragment of the node's
    own output wave, keeping the payload pipelined hop after hop.
    """
    fmt = packet.fmt
    chunk_fmt = parse_format(f"{CHUNK_PREFIX_FMT} {fmt.canonical}")
    return Packet.trusted(
        packet.stream_id,
        TAG_CHUNK,
        chunk_fmt,
        (wave_id, index, n_chunks, packet.tag, *packet.raw_values),
        packet.origin_rank,
    )


def is_chunk(packet: Packet) -> bool:
    """True if *packet* is a pipeline fragment (cheap header test)."""
    return packet.tag == TAG_CHUNK


def chunk_meta(packet: Packet) -> Tuple[int, int, int, int]:
    """A chunk's ``(wave_id, chunk_index, n_chunks, original_tag)``."""
    raw = packet.raw_values
    return raw[0], raw[1], raw[2], raw[3]


def strip_chunk(packet: Packet) -> Packet:
    """Peel the framing off one chunk, restoring the original format.

    The result carries the original tag and a payload whose array
    fields hold just this fragment's slice — the unit incremental
    (chunkwise) filters operate on.
    """
    fmt = packet.fmt
    inner_fmt = parse_format(
        " ".join(spec.spec for spec in fmt.fields[N_PREFIX_FIELDS:])
    )
    raw = packet.raw_values
    return Packet.trusted(
        packet.stream_id,
        raw[3],
        inner_fmt,
        raw[N_PREFIX_FIELDS:],
        packet.origin_rank,
    )


def reassemble(chunks: Sequence[Packet]) -> Packet:
    """Rebuild the original whole packet from its ordered fragments.

    Scalars come from the first fragment; numeric array slices are
    concatenated in index order.  The inverse of :func:`split_packet`:
    the rebuilt packet's values equal the original's.
    """
    if not chunks:
        raise ValueError("cannot reassemble an empty chunk list")
    first = chunks[0]
    if len(chunks) == 1:
        return strip_chunk(first)
    inner_fmt = parse_format(
        " ".join(spec.spec for spec in first.fmt.fields[N_PREFIX_FIELDS:])
    )
    orig_tag = first.raw_values[3]
    out = []
    for field_idx, spec in enumerate(inner_fmt.fields):
        raw_idx = N_PREFIX_FIELDS + field_idx
        if _sliceable(spec):
            parts = [c.raw_values[raw_idx] for c in chunks]
            if all(isinstance(p, np.ndarray) for p in parts):
                joined = np.concatenate(parts)
                joined.setflags(write=False)
                out.append(joined)
            else:
                merged: Tuple = ()
                for p in parts:
                    merged += tuple(p)
                out.append(merged)
        else:
            out.append(first.raw_values[raw_idx])
    return Packet.trusted(
        first.stream_id, orig_tag, inner_fmt, tuple(out), first.origin_rank
    )


class ChunkReassembler:
    """Accumulate one sender's in-order fragments into whole packets.

    One instance per (link, stream) — fragment order is guaranteed only
    per sender.  Feed every ``TAG_CHUNK`` packet to :meth:`add`; a
    completed whole packet comes back on the final fragment, ``None``
    otherwise.  A fragment that restarts the sequence (``chunk_index``
    0 with a partial set pending, a new ``wave_id``, or an index gap)
    silently discards the stale partial wave — exactly the recovery
    behaviour a mid-wave sender fault requires — and the discard is
    visible via :attr:`discarded_waves`.
    """

    __slots__ = ("_chunks", "_wave_id", "discarded_waves")

    def __init__(self):
        self._chunks: List[Packet] = []  # the next index is their count
        self._wave_id: Optional[int] = None  # meaningful while buffering
        self.discarded_waves = 0

    @property
    def pending(self) -> int:
        """Fragments of the in-progress wave buffered so far."""
        return len(self._chunks)

    def add(self, packet: Packet) -> Optional[Packet]:
        """Feed one fragment; return the whole packet when complete."""
        wave_id, index, n_chunks, _tag = chunk_meta(packet)
        if self._chunks and (wave_id != self._wave_id or index != len(self._chunks)):
            self.discard()
        if index != len(self._chunks):
            # An out-of-sequence fragment with nothing buffered: a tail
            # from a wave whose start we never saw.  Drop it.
            return None
        self._wave_id = wave_id
        # Buffered fragments outlive the receive cycle: own the bytes.
        self._chunks.append(packet.materialize())
        if len(self._chunks) == n_chunks:
            whole = reassemble(self._chunks)
            self._chunks = []
            return whole
        return None

    def discard(self) -> None:
        """Drop the in-progress partial wave (sender fault/restart)."""
        if self._chunks:
            self.discarded_waves += 1
        self._chunks = []


class SendWindow:
    """Send half of the link protocol: sequence, split, bounded replay.

    One per sending stream handle.  :meth:`split` stamps the next wave
    id on a packet's fragments; :meth:`record` parks a sent fragment in
    the history (the newest waves within both bounds, never fewer than
    the wave being recorded); :meth:`resend_since` is the replay onto
    a repaired link.  Wave ids also advance without a send
    (:attr:`wave` is bumped on an aborted wave), so gaps are normal and
    a resender silently skips what has aged out.
    """

    __slots__ = ("wave", "_history", "_bytes", "waves_replayed", "chunks_replayed")

    def __init__(self):
        self.wave = 0  # id the next output wave will carry
        # ``(wave_id, [fragments])``, oldest first.
        self._history: Deque[Tuple[int, List[Packet]]] = deque()
        self._bytes = 0
        self.waves_replayed = 0
        self.chunks_replayed = 0

    def split(self, packet: Packet, chunk_bytes: int) -> Optional[List[Packet]]:
        """*packet* as fragments of the next wave; ``None``: send whole."""
        chunks = split_packet(packet, chunk_bytes, self.wave)
        if chunks is not None:
            self.wave += 1
        return chunks

    def record(self, chunk: Packet) -> None:
        """Park a fragment this sender built as its frame alone: a replay
        sends the same bytes, and the bytes counted are the bytes held.
        Older waves are evicted past either bound, never this one."""
        wave_id = chunk_meta(chunk)[0]
        chunk = Packet.lazy_from_wire(chunk.encoded_view())
        history = self._history
        if history and history[-1][0] == wave_id:
            history[-1][1].append(chunk)
        else:
            history.append((wave_id, [chunk]))
        self._bytes += chunk.nbytes
        while len(history) > 1 and (
            len(history) > HISTORY_MAX_WAVES or self._bytes > HISTORY_MAX_BYTES
        ):
            _seq, chunks = history.popleft()
            self._bytes -= sum(c.nbytes for c in chunks)

    def resend_since(self, wave_seq: int = -1) -> List[Packet]:
        """Fragments of every buffered wave newer than *wave_seq*, in
        emission order; waves already aged out are skipped silently."""
        out: List[Packet] = []
        for seq, chunks in self._history:
            if seq > wave_seq:
                out.extend(chunks)
                self.waves_replayed += 1
        self.chunks_replayed += len(out)
        return out


class ReceiveWindow:
    """Receive half of the link protocol, keyed by sender.

    :meth:`add` is reassembly alone (one :class:`ChunkReassembler` per
    key, made on first use).  Callers that also drop duplicates pass
    every fragment through :meth:`admit` first and report each wave the
    aligner released with :meth:`release`.  Two marks per key:

    * the last ``(wave, index)`` admitted — a link delivers a sender's
      fragments in order, so anything at or below it is a duplicate (a
      repaired sender's replay overlapping what the link already
      carried) and is refused;
    * the *watermark* — what deposits ship — the highest wave
      **aggregated**, so a wave parked waiting for its siblings is
      below no watermark and its sender still replays it.
    """

    def __init__(self):
        self._reassemblers: Dict[object, ChunkReassembler] = {}
        self._admitted: Dict[object, Tuple[int, float]] = {}
        #: Highest wave id aggregated per key (absent: none yet).
        self.watermarks: Dict[object, int] = {}
        self.duplicates_dropped = 0
        self.discarded_waves = 0

    def admit(self, key: object, packet: Packet) -> bool:
        """Sequence gate for one arriving fragment: ``False`` for a
        duplicate, a fragment at or below the last one admitted."""
        mark = chunk_meta(packet)[:2]
        if mark <= self._admitted.get(key, (-1, 0)):
            self.duplicates_dropped += 1
            return False
        self._admitted[key] = mark
        return True

    def release(self, key: object, wave_id: int) -> None:
        """The aligner released *key*'s wave *wave_id* into a filter."""
        if wave_id > self.watermarks.get(key, -1):
            self.watermarks[key] = wave_id

    def seed_watermark(self, key: object, wave_id: int) -> None:
        """Start *key* past waves a previous receiver already aggregated:
        every fragment of them is a duplicate here."""
        if wave_id > self.watermarks.get(key, -1):
            self.watermarks[key] = wave_id
        whole = (wave_id, float("inf"))
        if whole > self._admitted.get(key, (-1, 0)):
            self._admitted[key] = whole

    def add(self, key: object, packet: Packet) -> Optional[Packet]:
        """Feed one fragment to *key*'s reassembler; whole packet or ``None``."""
        ra = self._reassemblers.get(key)
        if ra is None:
            ra = self._reassemblers[key] = ChunkReassembler()
        before = ra.discarded_waves
        whole = ra.add(packet)
        self.discarded_waves += ra.discarded_waves - before
        return whole

    @property
    def pending(self) -> int:
        """Fragments buffered in partial waves across every key."""
        return sum(ra.pending for ra in self._reassemblers.values())

    def __len__(self) -> int:
        return len(self._reassemblers)

    def drop(self, key: object) -> None:
        """Forget a sender (its link died or was handed over)."""
        for table in (self._reassemblers, self._admitted, self.watermarks):
            table.pop(key, None)

    def drop_stream(self, stream_id: int) -> None:
        """Forget every ``(stream_id, origin)`` key (stream closed)."""
        for key in [k for k in self._reassemblers if k[0] == stream_id]:
            self.drop(key)
