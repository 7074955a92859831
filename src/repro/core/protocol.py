"""Wire protocol constants and control-message helpers.

MRNet multiplexes everything over the tree links.  We reserve stream
id 0 as the *control stream*; packets on it drive network life-cycle:

* ``TAG_ENDPOINT_REPORT`` (upstream) — "the root of that sub-tree
  sends a report to its parent containing the end-points accessible
  via that sub-tree" (§2.5).  Payload ``"%aud"``: back-end ranks.
* ``TAG_NEW_STREAM`` (downstream) — stream creation announcement.
  Payload ``"%ud %aud %d %d %lf %d %d %d"``: stream id, endpoint
  ranks, synchronization filter id, upstream transformation filter id,
  synchronization timeout (seconds; meaningful for TimeOut sync),
  downstream transformation filter id, chunk size in bytes (0 =
  chunking disabled), and wave pattern (see *Chunked waves* below).
* ``TAG_NEW_STREAMS`` (downstream) — *batched* stream creation: one
  packet announces many streams in a single control wave.  Payload
  ``"%s"``: a JSON document with ``"g"`` (deduplicated communicator
  rank lists) and ``"s"`` (per-stream field tuples referencing a
  group by index), so a thousand streams over one communicator ship
  its rank list once.  Nodes register the announcements *lazily* and
  instantiate a stream's filter state on its first data packet.
* ``TAG_CLOSE_STREAM`` (downstream) — payload ``"%ud"``: stream id.
* ``TAG_SHUTDOWN`` (downstream) — tears the tree down.
* ``TAG_HEARTBEAT`` (both directions) — liveness probe, consumed at
  the first hop; payload ``"%ud"``: a per-sender sequence number.
  Heartbeats let a node detect a *wedged* peer — one whose TCP
  connection is still open but whose loop stopped processing — which
  EOF detection alone can never see.
* ``TAG_RANKS_CHANGED`` (upstream) — a stream's wave membership
  changed at some node (a child link died or an orphan was adopted).
  Payload ``"%ud %ud %aud %aud"``: stream id, the emitting node's
  membership epoch after the change, ranks lost, ranks gained.  The
  front-end surfaces these so a tool can distinguish "sum over 1023
  ranks" from "sum over 1024".
* ``TAG_STATS_REQUEST`` (downstream) — the front-end asks every
  internal node for its metrics registry.  Payload ``"%ud"``: a
  request id echoed in replies, letting the front-end discard stale
  replies from an earlier gather.
* ``TAG_STATS_REPLY`` (upstream) — one node's answer.  Payload
  ``"%ud %s"``: the echoed request id and a JSON document in the
  ``mrnet.stats/3`` schema (see :mod:`repro.obs.snapshot`).  Replies
  are relayed hop by hop toward the root on the ordinary upstream
  control path, through the same packet buffers that batch tool data.
* ``TAG_ADDR_REPORT`` (upstream) — parallel recursive instantiation
  (paper §2.5, mode 1): an internal process announces its listener
  address to the front-end so back-end attach points can be resolved
  without the launcher reading each child's stdout.  Payload
  ``"%s %s %ud"``: the node's topology label, listener host, listener
  port.  Reports relay hop by hop like any upstream control packet.
* ``TAG_JOIN`` (upstream) — elastic membership: a back-end attached to
  a *running* network asks to enter existing streams at the next
  wave-epoch boundary.  Payload ``"%ud %aud"``: the joining rank and
  the stream ids it enters.  Every node on the path to the root adds
  the rank to those streams' endpoint sets, splices the carrying link
  in with joining (grace) semantics, fires ``RanksChanged`` with the
  rank *gained*, and relays the packet upward.
* ``TAG_LEAVE`` (upstream) — a back-end detaches voluntarily.  Payload
  ``"%ud"``: the leaving rank.  Nodes retire the rank from every
  stream at a wave-epoch boundary (queued contributions still ride
  along — leaving drains, it does not abort), fire ``RanksChanged``
  with the rank *lost*, and treat the subsequent link EOF as announced
  rather than as a failure.
* ``TAG_WAVE_ACK`` (downstream, link-local) — crash-consistent waves:
  a parent acknowledges consumption of a child's output wave so the
  child can prune its bounded retransmit history.  Payload
  ``"%ud %ud"``: stream id, highest consumed wave sequence.
* ``TAG_WAVE_NACK`` (downstream, link-local) — a parent observed a gap
  in a child's wave sequence and asks for retransmission.  Payload
  ``"%ud %ud"``: stream id, first missing wave sequence.  The child
  re-sends whatever its bounded history still holds from that
  sequence on; sequences aged out of the history are simply skipped
  (the parent's reassembler realigns on the next complete wave).
* ``TAG_CHECKPOINT`` (upstream, one hop) — watermark deposit, sent
  under repair right behind the outputs of every released wave that
  moved a watermark.  Payload ``"%ud %ud %s"``: stream id, the
  sender's output-wave sequence at capture time, and a JSON document
  holding the sender's per-source wave watermarks.  The parent
  *stores* the deposit (it does not relay it); if the sender later
  dies and its orphans re-home here, the stored watermarks seed
  duplicate suppression.

Application packets use non-negative tags; tags below
``FIRST_APP_TAG`` are reserved for the protocol.

Chunked waves
-------------

Data-stream payloads above a stream's ``chunk_bytes`` threshold travel
as *pipeline fragments*: sub-packets on the same (non-control) stream
carrying the reserved ``TAG_CHUNK`` tag.  A chunk's value tuple is the
original packet's values with array fields sliced, prefixed by the
framing fields of :data:`~repro.core.chunking.CHUNK_PREFIX_FMT`::

    (wave_id, chunk_index, n_chunks, original_tag, *sliced values)

``TAG_CHUNK`` is negative but never a *control* tag: control detection
is ``stream_id == CONTROL_STREAM_ID``, so chunks route through the
ordinary data plane.  See :mod:`repro.core.chunking` for the codec.

``TAG_NEW_STREAM`` carries two trailing fields for this machinery:
``chunk_bytes`` (0 disables chunking) and ``wave_pattern`` (one of
:data:`WAVE_REDUCE`, :data:`WAVE_REDUCE_TO_ALL`).
Parsers pad defaults for the historical six-field announcement so
mixed-version trees interoperate.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

from .packet import Packet

__all__ = [
    "CONTROL_STREAM_ID",
    "FIRST_STREAM_ID",
    "TAG_ENDPOINT_REPORT",
    "TAG_NEW_STREAM",
    "TAG_CLOSE_STREAM",
    "TAG_SHUTDOWN",
    "TAG_HEARTBEAT",
    "TAG_RANKS_CHANGED",
    "TAG_STATS_REQUEST",
    "TAG_STATS_REPLY",
    "TAG_ADDR_REPORT",
    "TAG_JOIN",
    "TAG_LEAVE",
    "TAG_WAVE_ACK",
    "TAG_WAVE_NACK",
    "TAG_CHECKPOINT",
    "TAG_NEW_STREAMS",
    "TAG_CHUNK",
    "FIRST_APP_TAG",
    "WAVE_REDUCE",
    "WAVE_REDUCE_TO_ALL",
    "WAVE_PATTERNS",
    "FMT_ENDPOINT_REPORT",
    "FMT_NEW_STREAM",
    "FMT_CLOSE_STREAM",
    "FMT_HEARTBEAT",
    "FMT_RANKS_CHANGED",
    "FMT_STATS_REQUEST",
    "FMT_STATS_REPLY",
    "FMT_ADDR_REPORT",
    "FMT_JOIN",
    "FMT_LEAVE",
    "FMT_WAVE_ACK",
    "FMT_WAVE_NACK",
    "FMT_CHECKPOINT",
    "FMT_NEW_STREAMS",
    "make_endpoint_report",
    "make_new_stream",
    "make_close_stream",
    "make_shutdown",
    "make_heartbeat",
    "make_ranks_changed",
    "make_stats_request",
    "make_stats_reply",
    "make_addr_report",
    "make_join",
    "make_leave",
    "make_wave_ack",
    "make_wave_nack",
    "make_checkpoint",
    "make_new_streams",
    "parse_new_stream",
    "parse_new_streams",
    "parse_ranks_changed",
    "parse_stats_request",
    "parse_stats_reply",
    "parse_addr_report",
    "parse_join",
    "parse_leave",
    "parse_wave_ack",
    "parse_wave_nack",
    "parse_checkpoint",
]

CONTROL_STREAM_ID = 0
FIRST_STREAM_ID = 1

TAG_ENDPOINT_REPORT = -1
TAG_NEW_STREAM = -2
TAG_CLOSE_STREAM = -3
TAG_SHUTDOWN = -4
TAG_HEARTBEAT = -5
TAG_RANKS_CHANGED = -6
TAG_STATS_REQUEST = -7
TAG_STATS_REPLY = -8
TAG_ADDR_REPORT = -9
TAG_JOIN = -10
TAG_LEAVE = -11
TAG_WAVE_ACK = -12
TAG_WAVE_NACK = -13
TAG_CHECKPOINT = -14
TAG_NEW_STREAMS = -15

#: Reserved tag marking a pipeline fragment on a *data* stream.  Not a
#: control tag — chunks never ride stream 0 — but kept below
#: ``FIRST_APP_TAG`` so it can never collide with an application tag.
TAG_CHUNK = -16

FIRST_APP_TAG = 100

#: Wave patterns (``TAG_NEW_STREAM`` trailing field).  ``WAVE_REDUCE``
#: is the classic upstream reduction; ``WAVE_REDUCE_TO_ALL`` turns the
#: reduced result around at the root and broadcasts it back down the
#: same stream.
WAVE_REDUCE = 0
WAVE_REDUCE_TO_ALL = 1
WAVE_PATTERNS = (WAVE_REDUCE, WAVE_REDUCE_TO_ALL)

FMT_ENDPOINT_REPORT = "%aud"
FMT_NEW_STREAM = "%ud %aud %d %d %lf %d %d %d"
FMT_CLOSE_STREAM = "%ud"
FMT_SHUTDOWN = "%d"
FMT_HEARTBEAT = "%ud"
FMT_RANKS_CHANGED = "%ud %ud %aud %aud"
FMT_STATS_REQUEST = "%ud"
FMT_STATS_REPLY = "%ud %s"
FMT_ADDR_REPORT = "%s %s %ud"
FMT_JOIN = "%ud %aud"
FMT_LEAVE = "%ud"
FMT_WAVE_ACK = "%ud %ud"
FMT_WAVE_NACK = "%ud %ud"
FMT_CHECKPOINT = "%ud %ud %s"
FMT_NEW_STREAMS = "%s"


def make_endpoint_report(ranks: Sequence[int]) -> Packet:
    """Build an upstream endpoint report for *ranks*."""
    return Packet(
        CONTROL_STREAM_ID, TAG_ENDPOINT_REPORT, FMT_ENDPOINT_REPORT, (tuple(ranks),)
    )


def make_new_stream(
    stream_id: int,
    endpoints: Sequence[int],
    sync_filter_id: int,
    transform_filter_id: int,
    sync_timeout: float = 0.0,
    down_transform_filter_id: int = 0,
    chunk_bytes: int = 0,
    wave_pattern: int = WAVE_REDUCE,
) -> Packet:
    """Build the downstream stream-creation announcement.

    ``chunk_bytes`` of 0 disables chunking for the stream;
    ``wave_pattern`` is one of :data:`WAVE_PATTERNS`.
    """
    return Packet(
        CONTROL_STREAM_ID,
        TAG_NEW_STREAM,
        FMT_NEW_STREAM,
        (
            stream_id,
            tuple(endpoints),
            sync_filter_id,
            transform_filter_id,
            float(sync_timeout),
            down_transform_filter_id,
            int(chunk_bytes),
            int(wave_pattern),
        ),
    )


def parse_new_stream(
    packet: Packet,
) -> Tuple[int, Tuple[int, ...], int, int, float, int, int, int]:
    """Unpack a ``TAG_NEW_STREAM`` control packet.

    Tolerates the historical six-field announcement (pre-chunking
    peers) by padding ``chunk_bytes=0`` / ``wave_pattern=WAVE_REDUCE``.
    """
    fields = packet.unpack()
    stream_id, endpoints, sync_id, trans_id, timeout, down_id = fields[:6]
    chunk_bytes = fields[6] if len(fields) > 6 else 0
    wave_pattern = fields[7] if len(fields) > 7 else WAVE_REDUCE
    return (
        stream_id,
        endpoints,
        sync_id,
        trans_id,
        timeout,
        down_id,
        chunk_bytes,
        wave_pattern,
    )


def make_new_streams(
    groups: Sequence[Sequence[int]],
    streams: Sequence[Tuple[int, int, int, int, float, int, int, int]],
) -> Packet:
    """Build a *batched* downstream stream-creation announcement.

    One ``TAG_NEW_STREAMS`` packet announces many streams in a single
    control wave (the many-stream fast path behind
    ``Network.new_streams``).  *groups* is the deduplicated list of
    communicator endpoint sets (sorted rank sequences); each entry of
    *streams* is ``(stream_id, group_index, sync_filter_id,
    transform_filter_id, sync_timeout, down_transform_filter_id,
    chunk_bytes, wave_pattern)`` — the ``TAG_NEW_STREAM`` fields with
    the endpoint array replaced by an index into *groups*, so N
    streams over one communicator ship its rank list once.
    """
    doc = {
        "g": [list(g) for g in groups],
        "s": [list(s) for s in streams],
    }
    return Packet(
        CONTROL_STREAM_ID,
        TAG_NEW_STREAMS,
        FMT_NEW_STREAMS,
        (json.dumps(doc, separators=(",", ":")),),
    )


def parse_new_streams(
    packet: Packet,
) -> Tuple[
    List[Tuple[int, ...]],
    List[Tuple[int, int, int, int, float, int, int, int]],
]:
    """Unpack a ``TAG_NEW_STREAMS`` packet → (groups, stream specs)."""
    (blob,) = packet.unpack()
    doc = json.loads(blob)
    groups = [tuple(int(r) for r in g) for g in doc["g"]]
    streams = [
        (
            int(s[0]),
            int(s[1]),
            int(s[2]),
            int(s[3]),
            float(s[4]),
            int(s[5]),
            int(s[6]),
            int(s[7]),
        )
        for s in doc["s"]
    ]
    return groups, streams


def make_close_stream(stream_id: int) -> Packet:
    return Packet(CONTROL_STREAM_ID, TAG_CLOSE_STREAM, FMT_CLOSE_STREAM, (stream_id,))


def make_shutdown() -> Packet:
    return Packet(CONTROL_STREAM_ID, TAG_SHUTDOWN, FMT_SHUTDOWN, (0,))


def make_heartbeat(seq: int) -> Packet:
    """Build a liveness probe (consumed at the receiving hop)."""
    return Packet(CONTROL_STREAM_ID, TAG_HEARTBEAT, FMT_HEARTBEAT, (seq,))


def make_ranks_changed(
    stream_id: int,
    epoch: int,
    lost: Sequence[int] = (),
    gained: Sequence[int] = (),
) -> Packet:
    """Build the upstream wave-membership-change notification."""
    return Packet(
        CONTROL_STREAM_ID,
        TAG_RANKS_CHANGED,
        FMT_RANKS_CHANGED,
        (stream_id, epoch, tuple(lost), tuple(gained)),
    )


def parse_ranks_changed(
    packet: Packet,
) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """Unpack a ``TAG_RANKS_CHANGED`` control packet."""
    stream_id, epoch, lost, gained = packet.unpack()
    return stream_id, epoch, tuple(lost), tuple(gained)


def make_stats_request(request_id: int) -> Packet:
    """Build the downstream metrics-gather broadcast."""
    return Packet(
        CONTROL_STREAM_ID, TAG_STATS_REQUEST, FMT_STATS_REQUEST, (request_id,)
    )


def parse_stats_request(packet: Packet) -> int:
    """Unpack a ``TAG_STATS_REQUEST`` control packet → request id."""
    (request_id,) = packet.unpack()
    return request_id


def make_stats_reply(request_id: int, payload: str) -> Packet:
    """Build one node's upstream metrics reply.

    *payload* is the ``mrnet.stats/3`` JSON produced by
    :func:`repro.obs.snapshot.dumps_snapshot`.
    """
    return Packet(
        CONTROL_STREAM_ID, TAG_STATS_REPLY, FMT_STATS_REPLY, (request_id, payload)
    )


def parse_stats_reply(packet: Packet) -> Tuple[int, str]:
    """Unpack a ``TAG_STATS_REPLY`` control packet → (request id, JSON)."""
    request_id, payload = packet.unpack()
    return request_id, payload


def make_addr_report(label: str, host: str, port: int) -> Packet:
    """Build an internal node's upstream listener-address announcement."""
    return Packet(
        CONTROL_STREAM_ID, TAG_ADDR_REPORT, FMT_ADDR_REPORT, (label, host, port)
    )


def parse_addr_report(packet: Packet) -> Tuple[str, str, int]:
    """Unpack a ``TAG_ADDR_REPORT`` control packet → (label, host, port)."""
    label, host, port = packet.unpack()
    return label, host, port


def make_join(rank: int, stream_ids: Sequence[int]) -> Packet:
    """Build a joining back-end's upstream membership announcement."""
    return Packet(
        CONTROL_STREAM_ID, TAG_JOIN, FMT_JOIN, (rank, tuple(stream_ids))
    )


def parse_join(packet: Packet) -> Tuple[int, Tuple[int, ...]]:
    """Unpack a ``TAG_JOIN`` control packet → (rank, stream ids)."""
    rank, stream_ids = packet.unpack()
    return rank, tuple(stream_ids)


def make_leave(rank: int) -> Packet:
    """Build a leaving back-end's upstream detach announcement."""
    return Packet(CONTROL_STREAM_ID, TAG_LEAVE, FMT_LEAVE, (rank,))


def parse_leave(packet: Packet) -> int:
    """Unpack a ``TAG_LEAVE`` control packet → leaving rank."""
    (rank,) = packet.unpack()
    return rank


def make_wave_ack(stream_id: int, wave_seq: int) -> Packet:
    """Build a parent's downstream wave-consumption acknowledgement."""
    return Packet(CONTROL_STREAM_ID, TAG_WAVE_ACK, FMT_WAVE_ACK, (stream_id, wave_seq))


def parse_wave_ack(packet: Packet) -> Tuple[int, int]:
    """Unpack a ``TAG_WAVE_ACK`` control packet → (stream id, wave seq)."""
    stream_id, wave_seq = packet.unpack()
    return stream_id, wave_seq


def make_wave_nack(stream_id: int, wave_seq: int) -> Packet:
    """Build a parent's downstream retransmission request."""
    return Packet(
        CONTROL_STREAM_ID, TAG_WAVE_NACK, FMT_WAVE_NACK, (stream_id, wave_seq)
    )


def parse_wave_nack(packet: Packet) -> Tuple[int, int]:
    """Unpack a ``TAG_WAVE_NACK`` control packet → (stream id, wave seq)."""
    stream_id, wave_seq = packet.unpack()
    return stream_id, wave_seq


def make_checkpoint(stream_id: int, wave_seq: int, state_json: str) -> Packet:
    """Build a node's watermark deposit for its parent."""
    return Packet(
        CONTROL_STREAM_ID,
        TAG_CHECKPOINT,
        FMT_CHECKPOINT,
        (stream_id, wave_seq, state_json),
    )


def parse_checkpoint(packet: Packet) -> Tuple[int, int, str]:
    """Unpack a ``TAG_CHECKPOINT`` packet → (stream id, wave seq, JSON)."""
    stream_id, wave_seq, state_json = packet.unpack()
    return stream_id, wave_seq, state_json
