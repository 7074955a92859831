"""Wire protocol constants and control-message helpers.

MRNet multiplexes everything over the tree links.  We reserve stream
id 0 as the *control stream*; packets on it drive network life-cycle.
Each control tag has exactly one wire format, declared in
:data:`CONTROL_FORMATS`; :func:`check_control` holds an inbound
control packet to it before any handler reads a field, and a packet
with an unknown tag or another format raises
:class:`~repro.core.packet.PacketDecodeError`.  The tags, fields in
order:

* ``TAG_ENDPOINT_REPORT`` (upstream) — "the root of that sub-tree
  sends a report to its parent containing the end-points accessible
  via that sub-tree" (§2.5): the back-end ranks.
* ``TAG_NEW_STREAMS`` (downstream) — stream creation announcement,
  the one way a stream is opened: one packet announces one or many
  streams in a single control wave.  Its one string is a JSON
  document with ``"g"`` (deduplicated communicator rank lists) and
  ``"s"`` (per-stream field tuples: stream id, index of its group in
  ``"g"``, synchronization filter id, upstream transformation filter
  id, synchronization timeout in seconds, downstream transformation
  filter id, chunk size in bytes with 0 disabling chunking, and wave
  pattern — see *Chunked waves* below), so a thousand streams over
  one communicator ship its rank list once.  Nodes hold each
  announcement as a *spec* and build a stream's filter state on its
  first data packet (or a ``TAG_JOIN`` naming it).
* ``TAG_CLOSE_STREAM`` (downstream) — stream id.
* ``TAG_SHUTDOWN`` (downstream) — tears the tree down.
* ``TAG_HEARTBEAT`` (both directions) — liveness probe, consumed at
  the first hop: a per-sender sequence number.  Heartbeats let a node
  detect a *wedged* peer — one whose TCP connection is still open but
  whose loop stopped processing — which EOF detection alone can never
  see.
* ``TAG_RANKS_CHANGED`` (upstream, then flooded back down by the
  front-end) — the tree's membership changed at some node (a child
  link died or an orphan was adopted): the tree epoch, ranks lost,
  ranks gained.  The node whose routing changed sends one, stream or
  no stream, with epoch 0; each hop forwards it once; the front-end
  stamps the next tree epoch on it, logs it and floods the stamped
  copy down.  A tool can then tell "sum over 1023 ranks" from "sum
  over 1024".
* ``TAG_STATS_REQUEST`` (downstream) — the front-end asks every
  internal node for its metrics registry: a request id echoed in
  replies, letting the front-end discard stale replies from an
  earlier gather.
* ``TAG_STATS_REPLY`` (upstream) — one node's answer: the echoed
  request id and a JSON document in the ``mrnet.stats/3`` schema (see
  :mod:`repro.obs.snapshot`).  Each hop relays replies toward the
  root through the same packet buffers that batch tool data.
* ``TAG_ADDR_REPORT`` (upstream) — parallel recursive instantiation
  (paper §2.5, mode 1): an internal process announces its listener
  address to the front-end so back-end attach points can be resolved
  without the launcher reading each child's stdout: the node's
  topology label, listener host, listener port.  Reports relay hop by
  hop toward the root.
* ``TAG_JOIN`` (upstream) — elastic membership: a back-end attached to
  a *running* network asks to enter existing streams at the next
  wave-epoch boundary: the joining rank and the stream ids it enters.
  Every node on the path to the root adds the rank to those streams'
  endpoint sets, splices the carrying link in with joining (grace)
  semantics and relays the packet upward; the front-end logs the rank
  *gained*.
* ``TAG_LEAVE`` (upstream) — a back-end detaches voluntarily: the
  leaving rank.  Nodes retire the rank from every stream at a
  wave-epoch boundary (queued contributions still ride along — leaving
  drains, it does not abort) and treat the subsequent link EOF as
  announced rather than as a failure; the front-end logs the rank
  *lost*.  A peer speaks only for ranks behind its own link: a
  leave naming any other rank changes nothing.
* ``TAG_CHECKPOINT`` (upstream, one hop) — watermark deposit, sent
  under repair right behind the outputs of every released wave that
  moved a watermark: stream id, the sender's output-wave sequence at
  capture time, and a JSON document holding the sender's per-source
  wave watermarks.  The parent *stores* the deposit (it does not relay
  it); if the sender later dies and its orphans re-home here, the
  stored watermarks seed duplicate suppression.

No tag acknowledges or re-requests a wave: a live link neither loses
nor reorders a frame, so a repair's replay onto the new link, the
deposit and duplicate drop are the whole link protocol (see
:mod:`repro.core.chunking`).  Retired tag numbers (-2, -12, -13) are
refused like any unknown control tag.

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

A stream's ``chunk_bytes`` (0 disables chunking) and ``wave_pattern``
(one of :data:`WAVE_REDUCE`, :data:`WAVE_REDUCE_TO_ALL`) ride its
``TAG_NEW_STREAMS`` field tuple.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

from .packet import Packet, PacketDecodeError

__all__ = [
    "CONTROL_STREAM_ID",
    "FIRST_STREAM_ID",
    "TAG_ENDPOINT_REPORT",
    "TAG_CLOSE_STREAM",
    "TAG_SHUTDOWN",
    "TAG_HEARTBEAT",
    "TAG_RANKS_CHANGED",
    "TAG_STATS_REQUEST",
    "TAG_STATS_REPLY",
    "TAG_ADDR_REPORT",
    "TAG_JOIN",
    "TAG_LEAVE",
    "TAG_CHECKPOINT",
    "TAG_NEW_STREAMS",
    "TAG_CHUNK",
    "FIRST_APP_TAG",
    "WAVE_REDUCE",
    "WAVE_REDUCE_TO_ALL",
    "WAVE_PATTERNS",
    "CONTROL_FORMATS",
    "check_control",
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
    "make_checkpoint",
    "make_new_streams",
    "parse_new_streams",
]

CONTROL_STREAM_ID = 0
FIRST_STREAM_ID = 1

TAG_ENDPOINT_REPORT = -1
TAG_CLOSE_STREAM = -3
TAG_SHUTDOWN = -4
TAG_HEARTBEAT = -5
TAG_RANKS_CHANGED = -6
TAG_STATS_REQUEST = -7
TAG_STATS_REPLY = -8
TAG_ADDR_REPORT = -9
TAG_JOIN = -10
TAG_LEAVE = -11
TAG_CHECKPOINT = -14
TAG_NEW_STREAMS = -15

#: Reserved tag marking a pipeline fragment on a *data* stream.  Not a
#: control tag — chunks never ride stream 0 — but kept below
#: ``FIRST_APP_TAG`` so it can never collide with an application tag.
TAG_CHUNK = -16

FIRST_APP_TAG = 100

#: Wave patterns (a ``TAG_NEW_STREAMS`` stream field).  ``WAVE_REDUCE``
#: is the classic upstream reduction; ``WAVE_REDUCE_TO_ALL`` turns the
#: reduced result around at the root and broadcasts it back down the
#: same stream.
WAVE_REDUCE = 0
WAVE_REDUCE_TO_ALL = 1
WAVE_PATTERNS = (WAVE_REDUCE, WAVE_REDUCE_TO_ALL)

#: The one wire format of every control tag.  The ``make_*`` builders
#: stamp packets with it and :func:`check_control` holds inbound
#: control packets to it.
CONTROL_FORMATS = {
    TAG_ENDPOINT_REPORT: "%aud",
    TAG_CLOSE_STREAM: "%ud",
    TAG_SHUTDOWN: "%d",
    TAG_HEARTBEAT: "%ud",
    TAG_RANKS_CHANGED: "%ud %aud %aud",
    TAG_STATS_REQUEST: "%ud",
    TAG_STATS_REPLY: "%ud %s",
    TAG_ADDR_REPORT: "%s %s %ud",
    TAG_JOIN: "%ud %aud",
    TAG_LEAVE: "%ud",
    TAG_CHECKPOINT: "%ud %ud %s",
    TAG_NEW_STREAMS: "%s",
}


def check_control(packet: Packet) -> None:
    """Raise :class:`PacketDecodeError` unless *packet* carries a known
    control tag in that tag's format (see :data:`CONTROL_FORMATS`) and
    a body that decodes.

    The body is decoded even where a hop only relays the packet, so a
    corrupt one costs the link it arrived on, not a relay further up.
    """
    fmt = CONTROL_FORMATS.get(packet.tag)
    if fmt is None:
        raise PacketDecodeError(f"unknown control tag {packet.tag}")
    if packet.fmt != fmt:
        raise PacketDecodeError(
            f"control tag {packet.tag} sent as {packet.fmt.canonical!r}, "
            f"not {fmt!r}"
        )
    packet.raw_values  # decodes the body now


def _control(tag: int, *values) -> Packet:
    return Packet(CONTROL_STREAM_ID, tag, CONTROL_FORMATS[tag], values)


def make_endpoint_report(ranks: Sequence[int]) -> Packet:
    """Build an upstream endpoint report for *ranks*."""
    return _control(TAG_ENDPOINT_REPORT, tuple(ranks))


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
    """Build a ``TAG_NEW_STREAMS`` announcement of one stream.

    ``chunk_bytes`` of 0 disables chunking for the stream;
    ``wave_pattern`` is one of :data:`WAVE_PATTERNS`.
    """
    return make_new_streams(
        [endpoints],
        [(stream_id, 0, sync_filter_id, transform_filter_id,
          float(sync_timeout), down_transform_filter_id, int(chunk_bytes),
          int(wave_pattern))],
    )


def make_new_streams(
    groups: Sequence[Sequence[int]],
    streams: Sequence[Tuple[int, int, int, int, float, int, int, int]],
) -> Packet:
    """Build the downstream stream-creation announcement.

    One ``TAG_NEW_STREAMS`` packet announces any number of streams in
    a single control wave.  *groups* is the deduplicated list of
    communicator endpoint sets (sorted rank sequences); each entry of
    *streams* is ``(stream_id, group_index, sync_filter_id,
    transform_filter_id, sync_timeout, down_transform_filter_id,
    chunk_bytes, wave_pattern)``, so N streams over one communicator
    ship its rank list once.
    """
    doc = {
        "g": [list(g) for g in groups],
        "s": [list(s) for s in streams],
    }
    return _control(TAG_NEW_STREAMS, json.dumps(doc, separators=(",", ":")))


_SPEC_TYPES = (int, int, int, int, float, int, int, int)


def parse_new_streams(
    packet: Packet,
) -> Tuple[
    List[Tuple[int, ...]],
    List[Tuple[int, int, int, int, float, int, int, int]],
]:
    """Unpack a ``TAG_NEW_STREAMS`` packet → (groups, stream specs).

    A document that is not JSON, lacks a key, has a spec of the wrong
    length or field type, or indexes a group that is not there raises
    :class:`PacketDecodeError`.
    """
    (blob,) = packet.unpack()
    try:
        doc = json.loads(blob)
        groups = [tuple(int(r) for r in g) for g in doc["g"]]
        streams = []
        for s in doc["s"]:
            if len(s) != len(_SPEC_TYPES) or not 0 <= s[1] < len(groups):
                raise ValueError(f"bad stream spec {s!r}")
            streams.append(tuple(t(v) for t, v in zip(_SPEC_TYPES, s)))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise PacketDecodeError(f"bad TAG_NEW_STREAMS document: {exc}") from exc
    return groups, streams


def make_close_stream(stream_id: int) -> Packet:
    return _control(TAG_CLOSE_STREAM, stream_id)


def make_shutdown() -> Packet:
    return _control(TAG_SHUTDOWN, 0)


def make_heartbeat(seq: int) -> Packet:
    """Build a liveness probe (consumed at the receiving hop)."""
    return _control(TAG_HEARTBEAT, seq)


def make_ranks_changed(
    epoch: int, lost: Sequence[int] = (), gained: Sequence[int] = ()
) -> Packet:
    """Build a membership-change report (epoch 0 until the root stamps it)."""
    return _control(TAG_RANKS_CHANGED, epoch, tuple(lost), tuple(gained))


def make_stats_request(request_id: int) -> Packet:
    """Build the downstream metrics-gather broadcast."""
    return _control(TAG_STATS_REQUEST, request_id)


def make_stats_reply(request_id: int, payload: str) -> Packet:
    """Build one node's upstream metrics reply.

    *payload* is the ``mrnet.stats/3`` JSON produced by
    :func:`repro.obs.snapshot.dumps_snapshot`.
    """
    return _control(TAG_STATS_REPLY, request_id, payload)


def make_addr_report(label: str, host: str, port: int) -> Packet:
    """Build an internal node's upstream listener-address announcement."""
    return _control(TAG_ADDR_REPORT, label, host, port)


def make_join(rank: int, stream_ids: Sequence[int]) -> Packet:
    """Build a joining back-end's upstream membership announcement."""
    return _control(TAG_JOIN, rank, tuple(stream_ids))


def make_leave(rank: int) -> Packet:
    """Build a leaving back-end's upstream detach announcement."""
    return _control(TAG_LEAVE, rank)


def make_checkpoint(stream_id: int, wave_seq: int, state_json: str) -> Packet:
    """Build a node's watermark deposit for its parent."""
    return _control(TAG_CHECKPOINT, stream_id, wave_seq, state_json)
