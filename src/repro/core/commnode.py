"""Internal processes (``mrnet_commnode``) and the shared node core.

An internal process "implements logical channels for the flow of
control messages and data between the tool's components and performs
data aggregation or reduction operations as appropriate" (§2.3).  The
functional layers of Figure 3 map onto :class:`NodeCore` methods:

* packet batching/unbatching — :mod:`repro.core.batching`, applied at
  :meth:`NodeCore._flush` / :meth:`NodeCore.handle_payload`;
* demultiplexing by stream id — :meth:`NodeCore.dispatch`;
* packet synchronization + data-specific aggregation — delegated to
  the stream's :class:`~repro.core.stream_manager.StreamManager`;
* re-batching toward the parent — the parent :class:`PacketBuffer`.

Packets are "manipulated by reference whenever possible": a packet
fanned out to several children is appended to each child's buffer as
the same object, and its encoded bytes are produced once
(``Packet.to_bytes`` caches).  Inbound packets arrive *lazy*
(:meth:`~repro.core.packet.Packet.lazy_from_wire`): only the 12-byte
header is parsed, so a hop that merely relays — unknown stream,
downstream flood, ``TFILTER_NULL`` — forwards the original wire frame
without ever decoding or re-validating field values.  The
``packets_relayed_zero_copy`` stat counts packets that left this node
on that fast path.

:class:`NodeHost` is a daemon thread running one
:class:`~repro.transport.eventloop.EventLoop` — a ``selectors`` loop
multiplexing every socket its nodes own plus a wakeup for in-process
channel deliveries — and :class:`CommNode` is the handle of one
:class:`NodeCore` on it: one I/O thread per host, however many links
or nodes.  The tool front-end reuses :class:`NodeCore` directly (see
:mod:`repro.core.network`) and pumps it from API calls instead of a
thread.

Many-stream scaling: every stream is announced by a
``TAG_NEW_STREAMS`` packet and held as a lightweight, immutable
*spec* until it is needed.  A spec becomes a full
:class:`StreamManager` on the stream's first data packet, built over
the links its endpoints route through then, or on a ``TAG_JOIN``
naming it — built *before* the joiner is routed, so the manager
splices the new link in with joining semantics.  A death, a leave or
an adoption leaves every spec a spec: membership is a fact about the
tree, reported once per change (``TAG_RANKS_CHANGED``) by the node
whose routing changed, whatever streams exist.  The per-tick work
(:meth:`NodeCore.poll_streams` / :meth:`NodeCore.next_timeout_deadline`)
is O(active): only streams whose TimeOut filter currently holds an
armed deadline are tracked (an active-set plus a lazy-deletion
deadline heap), so thousands of idle streams cost a node nothing per
tick.

Output buffering is adaptive (§2.3's "fewer larger messages over busy
connections"): ``flush()`` force-drains every buffer, while
``maybe_flush()`` lets buffers accumulate until a size bound
(``FLUSH_MAX_PACKETS``/``FLUSH_MAX_BYTES``) or a short time window
(``FLUSH_MAX_DELAY``) trips.  Links with bounded send queues are never
overfilled: when a link reports insufficient ``send_capacity``, its
packets stay parked in their ``PacketBuffer`` and the ``send_queue_full``
stat counts the deferral.  A link that turns out to be *dead* at flush
time drops its packets with accounting (``messages_dropped_on_close``),
logs once, and propagates the closure through ``_handle_link_closed``
so waiting streams release instead of hanging.
"""

from __future__ import annotations

import heapq
import json
import logging
import random
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from ..filters.registry import FilterRegistry
from .batching import (
    FLUSH_MAX_BYTES,
    FLUSH_MAX_DELAY,
    FLUSH_MAX_PACKETS,
    PacketBuffer,
    decode_batch,
    encode_batch,
)
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..obs.snapshot import dumps_snapshot
from ..topology.placement import LINK_KINDS
from ..transport.channel import ChannelEnd, Inbox
from ..transport.eventloop import EventLoop, LoopLink, SendQueueFull
from .failure import DEGRADE, HB_JITTER, HB_MISS_THRESHOLD, REPAIR
from .packet import Packet, PacketDecodeError
from .protocol import (
    CONTROL_STREAM_ID,
    TAG_ADDR_REPORT,
    TAG_CHECKPOINT,
    TAG_CLOSE_STREAM,
    TAG_ENDPOINT_REPORT,
    TAG_HEARTBEAT,
    TAG_JOIN,
    TAG_LEAVE,
    TAG_NEW_STREAMS,
    TAG_RANKS_CHANGED,
    TAG_SHUTDOWN,
    TAG_STATS_REPLY,
    TAG_STATS_REQUEST,
    check_control,
    make_checkpoint,
    make_endpoint_report,
    make_heartbeat,
    make_ranks_changed,
    make_shutdown,
    make_stats_reply,
    parse_new_streams,
)
from .routing import RoutingTable
from .stream_manager import StreamManager

__all__ = ["NodeCore", "CommNode", "NodeHost"]

log = logging.getLogger(__name__)


def _rank_key(ranks) -> str:
    """Canonical checkpoint key for a set of back-end ranks.

    Link ids are process-local, so checkpoint maps are re-keyed by the
    rank set behind each link before shipping — the one identity that
    survives a node's death and re-parenting.
    """
    return ",".join(map(str, sorted(ranks)))


class NodeCore:
    """Protocol engine shared by internal processes and the front-end.

    Parameters
    ----------
    name:
        Diagnostic name (the topology label, e.g. ``"node01:0"``).
    registry:
        The network's shared filter registry.
    expected_ranks:
        Number of back-end ranks that must report through this node
        before it sends its own endpoint report upstream (§2.5).
    parent:
        Channel end toward the parent, or ``None`` at the front-end.
    clock:
        Time source for synchronization filters.
    """

    def __init__(
        self,
        name: str,
        registry: FilterRegistry,
        expected_ranks: int,
        parent: Optional[ChannelEnd] = None,
        clock: Callable[[], float] = time.monotonic,
        inbox: Optional[Inbox] = None,
    ):
        self.name = name
        self.registry = registry
        self.expected_ranks = expected_ranks
        self.parent = parent
        self.clock = clock
        self.inbox = inbox if inbox is not None else Inbox()
        self.children: Dict[int, ChannelEnd] = {}
        self.routing = RoutingTable()
        self.streams: Dict[int, StreamManager] = {}
        # Announced streams not yet materialized: stream id -> spec
        # dict (endpoint frozenset + filter ids + chunk/pattern
        # parameters).  A spec never changes, so its endpoint set is
        # the interned CommGroup's own, and 5000 specs over one
        # communicator hold a single rank set.
        self._stream_specs: Dict[int, dict] = {}
        # O(active) tick state: only streams whose TimeOut filter holds
        # an armed deadline appear here.  ``_armed_deadlines`` records
        # the deadline each heap entry was pushed for — mismatched heap
        # heads are stale and lazily discarded.
        self._active_streams: Dict[int, StreamManager] = {}
        self._armed_deadlines: Dict[int, float] = {}
        self._deadline_heap: List[Tuple[float, int]] = []
        self._timed_stream_count = 0
        self.reported_ranks: set[int] = set()
        self.sent_report = False
        self.shutting_down = False
        self.flush_max_delay = FLUSH_MAX_DELAY
        self._flush_deadline: Optional[float] = None
        self._drop_logged: set[int] = set()
        self._parent_buffer: Optional[PacketBuffer] = None
        if parent is not None:
            self._parent_buffer = self._make_buffer(parent.link_id)
        self._child_buffers: Dict[int, PacketBuffer] = {}
        # -- fault-tolerance state (see repro.core.failure) -----------
        # ``policy`` governs what link death means; a positive
        # ``heartbeat_interval`` enables liveness probing; ``recovery``
        # aggregates stats and brokers adoption network-wide;
        # ``repair_fn`` (orphans only) produces a replacement parent
        # end; ``topo_key`` names this process slot for the coordinator.
        self.policy = DEGRADE
        self.heartbeat_interval = 0.0
        self.recovery = None
        self.repair_fn: Optional[Callable[[], Optional[ChannelEnd]]] = None
        self.topo_key = None
        self.crashed = False  # abrupt kill (fault injection): no goodbye
        self.wedged = False  # alive at TCP level, processing nothing
        self._last_seen: Dict[int, float] = {}
        self._hb_peers: set[int] = set()  # links whose peer heartbeats
        self._hb_seq = 0
        self._last_beat: Optional[float] = None
        self._pending_children: List[Tuple[ChannelEnd, bool]] = []
        self._pending_lock = threading.Lock()
        # -- elastic membership + crash-consistent waves ---------------
        # Links whose subtree announced a graceful TAG_LEAVE: their
        # eventual EOF is expected, not a failure.
        self._announced_leaving: set[int] = set()
        # Links this node closed itself (a malformed frame, a missed
        # liveness deadline): their ends' later deliveries are stale.
        self._cut_links: set[int] = set()
        # Child watermark deposits, keyed by (child link id, stream id):
        # the most recent TAG_CHECKPOINT document each child shipped.
        # Consulted when adopting that child's orphans after it dies.
        self._checkpoints: Dict[Tuple[int, int], dict] = {}
        # True when this node ships a deposit behind every released
        # wave that moved a watermark (repair policy, below a parent).
        self._deposits = False
        # Deterministic per-node jitter source for heartbeat de-sync:
        # seeded from the node name (not the salted builtin hash) so a
        # topology probes on the same staggered schedule every run.
        self._hb_rng = random.Random(zlib.crc32(name.encode()))
        self._hb_interval = self.heartbeat_interval
        # -- observability (see repro.obs) ----------------------------
        # Hot-path sites bump pre-bound Counter objects (one attribute
        # add); readers go through ``self.metrics.counters()``.
        # ``packets_relayed_zero_copy`` counts packets appended to an
        # outbound buffer while still undecoded lazy wire frames: the
        # §2.3 forward-by-reference fast path, taken by pure relays
        # (no stream manager), downstream floods, and TFILTER_NULL
        # streams.  Each such packet is re-sent as its original bytes
        # without any field decode, validation, or re-encode.
        # ``send_queue_full`` counts flushes deferred by a bounded link
        # send queue (backpressure, lossless); ``messages_dropped_on_close``
        # counts packets dropped because their link was already dead.
        self.metrics = MetricsRegistry()
        _c = self.metrics.counter
        self._c_packets_up = _c("packets_up", "Data packets received from children")
        self._c_packets_down = _c("packets_down", "Data packets received from the parent")
        self._c_messages_in = _c("messages_in", "Framed messages received")
        self._c_packets_in = _c("packets_in", "Packets decoded from inbound messages")
        self._c_messages_sent = _c("messages_sent", "Framed messages transmitted")
        self._c_waves_aggregated = _c("waves_aggregated", "Synchronization waves released and aggregated")
        self._c_relayed_zero_copy = _c("packets_relayed_zero_copy", "Packets forwarded without decoding (lazy fast path)")
        self._c_send_queue_full = _c("send_queue_full", "Flushes deferred by link backpressure")
        self._c_dropped_on_close = _c("messages_dropped_on_close", "Packets dropped because their link was dead")
        self._c_heartbeats_sent = _c("heartbeats_sent", "Liveness probes emitted")
        self._c_heartbeats_missed = _c("heartbeats_missed", "Liveness deadlines expired (peer declared dead)")
        self._c_orphans_adopted = _c("orphans_adopted", "Orphan child links adopted during repair")
        self._c_waves_reconfigured = _c("waves_reconfigured", "Stream membership changes (links dropped/spliced)")
        self._c_stats_replies_relayed = _c("stats_replies_relayed", "STATS_SNAPSHOT replies answered or relayed upstream")
        self._c_members_joined = _c("members_joined", "Back-end ranks spliced in via TAG_JOIN")
        self._c_members_left = _c("members_left", "Back-end ranks retired via TAG_LEAVE")
        self._c_checkpoint_bytes = _c("checkpoint_bytes", "Bytes of TAG_CHECKPOINT state shipped to the parent")
        self._h_flush_batch = self.metrics.histogram(
            "flush_batch_packets",
            "Packets per flushed outbound message (adaptive batching)",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.metrics.gauge("streams_open", "Streams with live state at this node", fn=lambda: len(self.streams) + len(self._stream_specs))
        self.metrics.gauge("children_connected", "Downstream links currently attached", fn=lambda: len(self.children))
        # Per-transport link census: every ChannelEnd-like object
        # advertises a ``transport_kind`` class attribute ("channel",
        # "tcp", "shm" or "inproc"); snapshots then show which links
        # negotiated the shared-memory upgrade, fell back to TCP, or
        # collapsed to a same-loop in-process hand-off.
        for _kind in LINK_KINDS:
            self.metrics.gauge(
                "links",
                "Attached links (parent + children) by transport kind",
                fn=(lambda k=_kind: self._count_transport(k)),
                kind=_kind,
            )
        #: Extra snapshot providers merged into :meth:`metrics_snapshot`
        #: (the event loop registers its transport registry here).
        self.extra_metrics: List[Callable[[], dict]] = []
        #: Rank used in STATS_SNAPSHOT identities; the network assigns
        #: 0 to the front-end and 1..N to comm nodes.
        self.obs_rank = -1
        #: Optional :class:`repro.obs.tracing.TraceRecorder`.  ``None``
        #: (the default) disables every tracing hook; sites guard with
        #: a single ``is not None`` test.
        self.tracer = None

    # -- wiring -----------------------------------------------------------

    @staticmethod
    def _make_buffer(link_id: int) -> PacketBuffer:
        return PacketBuffer(
            link_id, max_packets=FLUSH_MAX_PACKETS, max_bytes=FLUSH_MAX_BYTES
        )

    def add_child(self, end: ChannelEnd) -> None:
        """Attach a downstream connection (to a child node or back-end)."""
        self.children[end.link_id] = end
        self._child_buffers[end.link_id] = self._make_buffer(end.link_id)
        self._last_seen[end.link_id] = self.clock()

    def configure_failure(
        self,
        policy: str = DEGRADE,
        heartbeat_interval: float = 0.0,
        recovery=None,
        topo_key=None,
        repair_fn: Optional[Callable[[], Optional[ChannelEnd]]] = None,
    ) -> None:
        """Install this node's fault-tolerance configuration."""
        self.policy = policy
        self.heartbeat_interval = heartbeat_interval
        self.recovery = recovery
        self.topo_key = topo_key
        self.repair_fn = repair_fn
        self._deposits = policy == REPAIR and self.parent is not None
        self._hb_interval = self._draw_hb_interval()

    # -- adoption admission (tree repair) ---------------------------------

    def offer_child(self, end: ChannelEnd, adopted: bool = True) -> None:
        """Queue a new child connection for admission (thread-safe).

        Used by the recovery coordinator to hand an orphan's uplink to
        its adopting ancestor, and by off-thread acceptors (concurrent
        back-end attaches) to hand over fresh links: the attachment
        itself happens on the owner's own processing thread (see
        :meth:`admit_pending_children`), never concurrently with it.
        ``adopted=False`` marks an ordinary first-time connection so it
        is not counted as an orphan adoption.
        """
        with self._pending_lock:
            self._pending_children.append((end, adopted))
        wake = self.inbox.on_deliver
        if wake is not None:
            wake()

    def admit_pending_children(self) -> None:
        """Attach any queued adoptions (called from the owning loop)."""
        if not self._pending_children:
            return
        with self._pending_lock:
            pending, self._pending_children = self._pending_children, []
        for end, adopted in pending:
            self.add_child(end)
            if adopted:
                self._c_orphans_adopted.value += 1
                log.info(
                    "%s: adopted orphan link %d", self.name, end.link_id
                )

    @property
    def parent_link_id(self) -> Optional[int]:
        return self.parent.link_id if self.parent is not None else None

    @property
    def ready(self) -> bool:
        """All expected back-end ranks have reported through this node."""
        return len(self.reported_ranks) >= self.expected_ranks

    # -- observability -----------------------------------------------------

    @property
    def obs_identity(self) -> str:
        """The ``rank:hostname`` key this node reports under."""
        return f"{self.obs_rank}:{self.name}"

    def _count_transport(self, kind: str) -> int:
        """Live links (parent + children) using transport *kind*."""
        count = sum(
            1
            for end in self.children.values()
            if getattr(end, "transport_kind", "channel") == kind
        )
        if self.parent is not None:
            if getattr(self.parent, "transport_kind", "channel") == kind:
                count += 1
        return count

    def metrics_snapshot(self) -> dict:
        """This process's full metrics snapshot (JSON-able).

        Merges the node registry with every provider in
        :attr:`extra_metrics` (the event loop contributes its
        ``loop_*`` transport series this way).  The result is the
        ``metrics`` document carried in ``STATS_SNAPSHOT`` replies —
        see :meth:`repro.obs.metrics.MetricsRegistry.snapshot` for the
        shape.
        """
        snap = self.metrics.snapshot()
        for provider in self.extra_metrics:
            try:
                extra = provider()
            except Exception:  # a broken provider must not break gathers
                continue
            for kind in ("counters", "gauges", "histograms"):
                snap[kind].update(extra.get(kind, {}))
        return snap

    # -- inbound ------------------------------------------------------------

    def handle_payload(self, link_id: int, payload: Optional[bytes]) -> None:
        """Unbatch one inbound message and dispatch its packets.

        Every driver (loop links, a loop's inbox, the front-end's pump)
        delivers here, so a malformed frame is refused here: it costs
        its sender the link, never this node its loop.
        """
        if self.wedged:
            # Fault injection: the process is "alive" at the transport
            # level but its loop no longer makes progress.  Dropping
            # input (rather than pausing the thread) keeps the wedge
            # deterministic and lets heartbeat deadlines catch it.
            return
        # Attach adopted orphans first so a report travelling through a
        # brand-new link never beats the link's own admission.
        if self._pending_children:
            self.admit_pending_children()
        if link_id in self._cut_links:
            # This node closed the link itself: whatever its end still
            # delivers, its own EOF included, is stale.
            return
        if payload is None:
            self._handle_link_closed(link_id)
            return
        # Any traffic counts as liveness — probes only matter on links
        # that would otherwise be silent (see heartbeat_tick).
        self._last_seen[link_id] = self.clock()
        self._c_messages_in.value += 1
        try:
            tracer = self.tracer
            if tracer is None:
                self._dispatch_batch(link_id, decode_batch(payload))
                return
            # Tracing attached: one recv span per message (the unbatch)
            # and one demux span covering the dispatch loop.  Spans are
            # per-message, not per-packet — the recorder costs two clock
            # reads per span, which is negligible per message but would
            # dominate the §4.2.1 relay path if paid per packet.
            t0 = tracer.span_start()
            packets = list(decode_batch(payload))
            tracer.span_end("recv", t0, detail=f"link={link_id}")
            t0 = tracer.span_start()
            self._dispatch_batch(link_id, packets)
            if packets:
                tracer.span_end(
                    "demux", t0, packets[0].stream_id, detail=f"n={len(packets)}"
                )
        except PacketDecodeError as exc:
            # Packets before it in the message were already dispatched.
            end = self._cut_link(link_id)
            self.metrics.counter(
                "frames_rejected",
                "Inbound frames refused as malformed (the link is closed)",
                kind=getattr(end, "transport_kind", "channel"),
            ).value += 1
            log.warning("%s: link %d sent a malformed frame (%s); closed", self.name, link_id, exc)

    def _cut_link(self, link_id: int) -> Optional[ChannelEnd]:
        """Close *link_id* from this side and handle it as dead, once;
        returns the end that was closed."""
        self._cut_links.add(link_id)
        end = self.parent if link_id == self.parent_link_id else self.children.get(link_id)
        if end is not None:
            try:
                end.close()
            except Exception:
                pass
        self._handle_link_closed(link_id)
        return end

    def _dispatch_batch(self, link_id: int, packets) -> None:
        """Dispatch one inbound message's packets.

        Inlines the §4.2.1 relay fast path: a data packet arriving
        from a child for a stream this node holds no state on goes
        straight to the parent buffer.  Counting rides local
        accumulators folded into the registry once per message, so
        per-packet instrumentation cost is two integer adds and one
        slot read (the inline ``Packet.values_decoded`` check); the hop
        is held under a per-packet budget by ``benchmarks/test_budgets.py``.
        """
        n = 0
        if self.parent is not None and link_id == self.parent_link_id:
            for packet in packets:
                n += 1
                self.dispatch(link_id, packet)
        else:
            streams = self.streams
            specs = self._stream_specs
            pbuf = self._parent_buffer
            up = 0
            for packet in packets:
                sid = packet.stream_id
                if (
                    sid == CONTROL_STREAM_ID
                    or pbuf is None
                    or sid in streams
                    or (specs and sid in specs)
                ):
                    n += 1
                    self.dispatch(link_id, packet)
                else:
                    # Packets from decode_batch are lazy wire frames by
                    # construction and nothing on this path touches
                    # their values, so every one counts as a zero-copy
                    # relay — no per-packet values_decoded check.
                    up += 1
                    pbuf.add(packet)
            if up:
                self._c_packets_up.value += up
                self._c_relayed_zero_copy.value += up
                self._note_pending()
            n += up
        self._c_packets_in.value += n

    def dispatch(self, link_id: int, packet: Packet) -> None:
        """Demultiplex one packet (Figure 3's demux layer).  Control
        packets are checked against their tag's format; data is not."""
        from_parent = self.parent is not None and link_id == self.parent_link_id
        if packet.stream_id == CONTROL_STREAM_ID:
            check_control(packet)
            if packet.tag == TAG_HEARTBEAT:
                # Consumed at the first hop; never forwarded.  Remember
                # that this peer speaks heartbeats: only such links are
                # subject to liveness deadlines (a peer that never
                # probes — e.g. a passive tool thread — is not falsely
                # declared dead for being quiet).
                self._hb_peers.add(link_id)
                return
            if from_parent:
                self.handle_control_down(packet)
            else:
                self.handle_control_up(link_id, packet)
            # Control traffic (stream creation/closure, shutdown,
            # endpoint reports) is latency-sensitive: expire the
            # adaptive flush window so the next maybe_flush ships it
            # without waiting out FLUSH_MAX_DELAY.
            self._note_urgent()
            return
        if from_parent:
            self._handle_data_down(packet)
        else:
            self._handle_data_up(link_id, packet)

    # -- control ----------------------------------------------------------

    def handle_control_up(self, link_id: int, packet: Packet) -> None:
        if packet.tag == TAG_ENDPOINT_REPORT:
            (ranks,) = packet.unpack()
            # Tree repair: a report reaching a node whose census is
            # complete is an adopted orphan announcing its subtree; the
            # ranks it brings that no link routes here are gained.
            gained = set(ranks) - self.routing.all_ranks() if self.ready else ()
            self.routing.add_report(link_id, ranks)
            self.reported_ranks.update(ranks)
            if self.ready and not self.sent_report and self.parent is not None:
                self.sent_report = True
                self._queue_up(make_endpoint_report(sorted(self.reported_ranks)))
            # Splice the link into every live stream whose endpoints
            # meet the reported ranks, with *joining* wave semantics.
            for manager in self.streams.values():
                ours = manager.endpoints & frozenset(ranks)
                if ours and link_id not in manager.child_links:
                    manager.add_link(link_id)
                    self._seed_from_checkpoints(manager, link_id, ours)
                    self._membership_changed(manager, recovery=True)
            if gained:
                self._report_membership(gained=gained)
        elif packet.tag == TAG_RANKS_CHANGED:
            # One change below, on its way to the front-end: each hop
            # routes by it, so a later death here names only the ranks
            # still behind the link.
            _epoch, lost, gained = packet.unpack()
            self.routing.remove_ranks(link_id, lost)
            self.routing.add_report(link_id, gained)
            if self.parent is None:
                self._note_membership(lost, gained)
            else:
                self._queue_up(packet)
        elif packet.tag == TAG_STATS_REPLY:
            # A descendant's metrics snapshot travelling to the root
            # (the front-end overrides _note_stats_reply to collect it).
            self._c_stats_replies_relayed.value += 1
            if self.parent is None:
                self._note_stats_reply(packet)
            else:
                self._queue_up(packet)
        elif packet.tag == TAG_ADDR_REPORT:
            # Recursive instantiation: a descendant announcing its
            # listener address to the front-end (which overrides
            # _note_addr_report to record it).
            if self.parent is None:
                self._note_addr_report(packet)
            else:
                self._queue_up(packet)
        elif packet.tag == TAG_JOIN:
            self._handle_join(link_id, packet)
        elif packet.tag == TAG_LEAVE:
            self._handle_leave(link_id, packet)
        elif packet.tag == TAG_CHECKPOINT:
            # One-hop watermark deposit from a child: store the latest
            # document per (child link, stream); never relayed.  A
            # deposit for a stream closed here (it crossed the close on
            # the wire) is dropped, or it would outlive its stream.
            stream_id, _out_wave, payload = packet.unpack()
            if stream_id not in self.streams and stream_id not in self._stream_specs:
                return
            try:
                doc = json.loads(payload)
            except (ValueError, RecursionError):
                doc = None
            if isinstance(doc, dict) and isinstance(doc.get("watermarks"), dict):
                self._checkpoints[(link_id, stream_id)] = doc
        else:
            raise PacketDecodeError(f"control tag {packet.tag} from a child")

    def _handle_join(self, link_id: int, packet: Packet) -> None:
        """Splice a joining back-end rank into this hop (``TAG_JOIN``).

        The join packet doubles as the §2.5 endpoint report for
        elastic membership: it installs routing for the new rank and
        enters it into the named streams with *joining* wave semantics
        (an in-flight wave completes over the old membership), then
        continues toward the front-end so every ancestor splices too.
        """
        rank, stream_ids = packet.unpack()
        # Build the named streams over the old routes first, so each
        # splices the joiner's link in with joining semantics.
        managers = [m for m in map(self.stream_state, stream_ids) if m is not None]
        self.routing.add_report(link_id, [rank])
        if rank not in self.reported_ranks:
            self.reported_ranks.add(rank)
            # The subtree grew: readiness stays an exact census.
            self.expected_ranks += 1
        self._c_members_joined.value += 1
        if self.recovery is not None and self.parent is None:
            self.recovery.bump("members_joined")
        for manager in managers:
            manager.add_endpoints([rank])
            spliced = link_id not in manager.child_links
            if spliced:
                manager.add_link(link_id)
            self._membership_changed(manager, relinked=spliced)
        if self.parent is not None:
            self._queue_up(packet)
        else:
            self._note_membership((), (rank,))

    def _handle_leave(self, link_id: int, packet: Packet) -> None:
        """Retire a departing back-end rank (``TAG_LEAVE``) at this hop.

        The departing back-end flushed before announcing, so queued
        contributions still ride; waves stop requiring the rank from
        the next epoch, and when the whole subtree behind *link_id* is
        the leaver the link is marked announced-leaving — its eventual
        EOF is handled as an expected departure, not a failure.
        """
        (rank,) = packet.unpack()
        if rank not in self.routing.ranks_behind(link_id):
            # A peer speaks only for the ranks behind its own link.
            return
        if rank in self.reported_ranks:
            self.reported_ranks.discard(rank)
            self.expected_ranks = max(self.expected_ranks - 1, 0)
        self._c_members_left.value += 1
        if self.recovery is not None and self.parent is None:
            self.recovery.bump("members_left")
        if self.parent is not None:
            self._queue_up(packet)
        else:
            self._note_membership((rank,), (), failed=False)
        retire_link = self.routing.ranks_behind(link_id) <= {rank}
        if retire_link:
            self._announced_leaving.add(link_id)
        for manager in self.streams.values():
            if rank not in manager.endpoints:
                continue
            manager.remove_endpoints([rank])
            retired = retire_link and link_id in manager.child_links
            if retired:
                manager.retire_link(link_id)
            self._membership_changed(manager, relinked=retired)
        self.routing.remove_rank(rank)

    def _membership_changed(self, manager, relinked=True, recovery=False) -> None:
        """Bookkeeping after *manager*'s membership changed.

        The callers decide what changed (splice, retire, drop) and
        whether it counts network-wide; they share this: count a
        reconfiguration when a link was involved, re-arm a TimeOut
        deadline.  The change itself is reported once per tree, not
        per stream (:meth:`_report_membership`).
        """
        if relinked:
            self._c_waves_reconfigured.value += 1
            if recovery and self.recovery is not None:
                self.recovery.bump("waves_reconfigured")
        if manager.sync_timed:
            self._note_stream_activity(manager)

    def _seed_from_checkpoints(self, manager, link_id: int, ranks) -> None:
        """Apply a dead child's checkpoint to a freshly adopted link.

        Orphans replay their output history after repair;
        the dedup watermark their dead parent had reached — deposited
        here via ``TAG_CHECKPOINT`` and keyed by rank set — makes that
        replay duplicate-free for waves the dead node had already
        forwarded upstream.
        """
        key = _rank_key(ranks)
        for (from_link, sid), doc in list(self._checkpoints.items()):
            if sid != manager.stream_id or from_link in self.children:
                continue  # only a *dead* depositor's state is authoritative
            wm = doc.get("watermarks", {}).get(key)
            if isinstance(wm, int):
                manager.seed_watermark(link_id, wm)

    def handle_control_down(self, packet: Packet) -> None:
        if packet.tag == TAG_NEW_STREAMS:
            # Register every announced stream as a spec and forward the
            # whole packet once down every link any announced group
            # routes through — one control wave for N streams.
            groups, specs = parse_new_streams(packet)
            reg = self.registry
            for _sid, _gidx, sync_id, trans_id, _timeout, down_id, *_ in specs:
                # An announced stream must name filters this node can build.
                if not (reg.is_sync(sync_id) and reg.is_transform(trans_id)
                        and (down_id == 0 or reg.is_transform(down_id))):
                    raise PacketDecodeError(f"unknown filters {(sync_id, trans_id, down_id)}")
            interned = []
            fanout: set = set()
            for ranks in groups:
                grp = self.routing.group(frozenset(ranks))
                interned.append(grp)
                fanout.update(self.routing.links_for_group(grp))
            for stream_id, gidx, *params in specs:
                self._stream_specs[stream_id] = {
                    "endpoints": interned[gidx].endpoints,
                    # sync, transform, timeout, down, chunk, pattern
                    "params": params,
                }
            for link in fanout:
                self._queue_down(link, packet)
        elif packet.tag == TAG_CLOSE_STREAM:
            (stream_id,) = packet.unpack()
            spec = self._stream_specs.pop(stream_id, None)
            for key in [k for k in self._checkpoints if k[1] == stream_id]:
                del self._checkpoints[key]
            manager = self._discard_stream(stream_id)
            if manager is not None:
                self._queue_outputs(manager, manager.flush_upstream())
                manager.close()
                for link in manager.child_links:
                    self._queue_down(link, packet)
            elif spec is not None:
                # Never materialized here: close the announcement along
                # the group's current routes.
                for link in self.routing.links_for(spec["endpoints"]):
                    self._queue_down(link, packet)
        elif packet.tag == TAG_SHUTDOWN:
            self.shutting_down = True
            for link in list(self.children):
                self._queue_down(link, packet)
        elif packet.tag == TAG_STATS_REQUEST:
            # Metrics gather: answer with this node's registry, then
            # keep flooding the request toward the leaves.  The
            # front-end never answers itself over the wire (the network
            # reads its registry locally); back-ends consume the
            # request silently, so only internal nodes reply.
            if self.parent is not None:
                (request_id,) = packet.unpack()
                payload = dumps_snapshot(
                    self.obs_identity, self.obs_rank, self.metrics_snapshot()
                )
                self._c_stats_replies_relayed.value += 1
                self._queue_up(make_stats_reply(request_id, payload))
            for link in list(self.children):
                self._queue_down(link, packet)
        elif packet.tag == TAG_RANKS_CHANGED:
            # A change the front-end stamped: flood it so surviving
            # back-ends observe it too.
            for link in list(self.children):
                self._queue_down(link, packet)
        else:
            raise PacketDecodeError(f"control tag {packet.tag} from the parent")

    # -- stream bookkeeping (lazy materialization + O(active) ticks) -------

    def _materialize_stream(self, stream_id: int) -> Optional[StreamManager]:
        """Turn an announced stream's spec into a live manager over the
        links its endpoints route through now."""
        spec = self._stream_specs.pop(stream_id, None)
        if spec is None:
            return None
        endpoints = spec["endpoints"]
        sync_id, trans_id, timeout, down_id, chunk_bytes, wave_pattern = spec["params"]
        manager = StreamManager.create(
            stream_id,
            endpoints,
            self.routing.links_for(endpoints),
            self.registry,
            sync_id,
            trans_id,
            sync_timeout=timeout,
            down_transform_filter_id=down_id,
            clock=self.clock,
            owner=self,
            chunk_bytes=chunk_bytes,
            wave_pattern=wave_pattern,
        )
        self.streams[stream_id] = manager
        # Only repair re-homes a link, so only repair replays: outside
        # it no fragment is kept.
        manager.keep_history = self._deposits
        if manager.sync_timed:
            self._timed_stream_count += 1
        return manager

    def _discard_stream(self, stream_id: int) -> Optional[StreamManager]:
        """Forget a stream's live state (close path); returns the manager."""
        manager = self.streams.pop(stream_id, None)
        if manager is not None and manager.sync_timed:
            self._timed_stream_count -= 1
        self._active_streams.pop(stream_id, None)
        self._armed_deadlines.pop(stream_id, None)
        return manager

    def stream_state(self, stream_id: int) -> Optional[StreamManager]:
        """The stream's manager, materializing a lazy announcement.

        Use instead of ``streams.get`` when the caller needs live
        state for a stream that may still be a spec (a join naming
        it).
        """
        manager = self.streams.get(stream_id)
        if manager is None and self._stream_specs:
            manager = self._materialize_stream(stream_id)
        return manager

    def _note_stream_activity(self, manager: StreamManager) -> None:
        """Track a TimeOut stream's armed deadline (O(active) ticks).

        Call after any operation that may arm, move, or clear the
        stream's synchronization deadline.  Disarms that slip through
        (a wave released elsewhere) self-heal: the stale heap entry
        triggers at most one spurious wakeup whose ``poll_streams``
        re-evaluates the stream and clears it.
        """
        sid = manager.stream_id
        deadline = manager.next_deadline()
        if deadline is None:
            if sid in self._active_streams:
                del self._active_streams[sid]
                self._armed_deadlines.pop(sid, None)
            return
        self._active_streams[sid] = manager
        if self._armed_deadlines.get(sid) != deadline:
            self._armed_deadlines[sid] = deadline
            heapq.heappush(self._deadline_heap, (deadline, sid))

    # -- data ------------------------------------------------------------

    def _handle_data_up(self, link_id: int, packet: Packet) -> None:
        self._c_packets_up.value += 1
        manager = self.streams.get(packet.stream_id)
        if manager is None:
            if self._stream_specs:
                # First data packet of an announced stream.
                manager = self._materialize_stream(packet.stream_id)
            if manager is None:
                # Stream unknown here (e.g. point-to-point pass-through):
                # forward unchanged, preserving MRNet's negligible-overhead
                # relay behaviour (§4.2.1).
                self._queue_up(packet)
                return
        if manager.passthrough:
            # DONTWAIT + null transform: the wave machinery is an
            # identity function, so relay directly (§4.2.1).
            if not manager.closed:
                self._queue_up(packet)
            return
        outputs = manager.push_upstream(link_id, packet)
        if outputs:
            self._c_waves_aggregated.value += 1
            self._queue_outputs(manager, outputs)
        if manager.sync_timed:
            self._note_stream_activity(manager)

    def _handle_data_down(self, packet: Packet) -> None:
        self._c_packets_down.value += 1
        manager = self.streams.get(packet.stream_id)
        if manager is None:
            if self._stream_specs:
                manager = self._materialize_stream(packet.stream_id)
            if manager is None:
                # No stream state: flood to all children.
                for link in list(self.children):
                    self._queue_down(link, packet)
                return
        for out in manager.transform_downstream(packet):
            for link in manager.child_links:
                self._queue_down(link, out)

    def poll_streams(self) -> None:
        """Drive time-based synchronization criteria (TimeOut filters).

        O(active): only streams with an armed deadline are visited —
        idle streams, however many thousands exist, cost nothing per
        tick.  (Only TimeOut filters ever release output from a poll;
        WaitForAll/DontWait streams release on push alone.)
        """
        active = self._active_streams
        if not active:
            return
        for sid in list(active):
            manager = active[sid]
            self._queue_outputs(manager, manager.poll_upstream())
            self._note_stream_activity(manager)

    def _handle_link_closed(self, link_id: int) -> None:
        self._note_urgent()
        self._last_seen.pop(link_id, None)
        self._hb_peers.discard(link_id)
        if self.parent is not None and link_id == self.parent_link_id:
            if self.policy == REPAIR and self.repair_fn is not None:
                if self._repair_parent():
                    return
            # Parent vanished and no repair: treat as shutdown.
            self.shutting_down = True
            for link in list(self.children):
                self._queue_down(link, make_shutdown())
            return
        announced = link_id in self._announced_leaving
        self._announced_leaving.discard(link_id)
        if announced:
            # Graceful leave: endpoints and routing were already
            # retired by the TAG_LEAVE handler, so this EOF is just the
            # link winding down — drop its state deposits too (a leaver
            # must never seed a future adoption).
            for key in [k for k in self._checkpoints if k[0] == link_id]:
                self._checkpoints.pop(key, None)
        self.children.pop(link_id, None)
        buf = self._child_buffers.pop(link_id, None)
        if buf is not None:
            # Packets still parked for the dead link (e.g. held back by
            # backpressure) are lost; account for them the same way a
            # failed flush would.
            self._drop_buffer(link_id, buf)
        # A rank an adopted orphan already re-reported on another link
        # is not lost.
        lost = self.routing.remove_link(link_id) - self.routing.all_ranks()
        for manager in self.streams.values():
            if link_id in manager.child_links:
                self._queue_outputs(manager, manager.drop_link(link_id))
                self._membership_changed(manager, recovery=not announced)
        if lost and not announced:
            self._report_membership(lost=lost)

    def _repair_parent(self) -> bool:
        """Replace a dead parent link via the recovery coordinator.

        Returns ``True`` if a new parent end was installed.  Pending
        upstream packets carry over to the new link, and the node
        re-sends its endpoint report — the §2.5 protocol doubling as
        the repair announcement that rebuilds routing and wave
        membership at the adopter.
        """
        try:
            new_parent = self.repair_fn()
        except Exception:  # repair must never take the node down
            log.exception("%s: parent repair attempt raised", self.name)
            new_parent = None
        if new_parent is None:
            log.warning("%s: parent died and repair failed; shutting down", self.name)
            return False
        old_buffer = self._parent_buffer
        self.parent = new_parent
        self._parent_buffer = self._make_buffer(new_parent.link_id)
        self._last_seen[new_parent.link_id] = self.clock()
        # The report MUST precede any carried-over wave data on the new
        # link: it is what splices this link into the adopter's stream
        # managers — data arriving first would hit an unknown child.
        ranks = self.routing.all_ranks() or self.reported_ranks
        self._queue_up(make_endpoint_report(sorted(ranks)))
        # Crash-consistent waves: replay the output history before the
        # carried-over (never-sent) packets.  The adopter's mark on the
        # new link (seeded from our dead parent's deposit) drops what
        # the dead parent had aggregated, and admits each fragment
        # once: a history fragment also in the old buffer comes again
        # below the last one admitted and is dropped.
        for manager in self.streams.values():
            for pkt in manager.resend_since():
                self._queue_up(pkt)
        if old_buffer is not None:
            for pkt in old_buffer.drain():
                self._parent_buffer.add(pkt)
        self._note_urgent()
        log.info(
            "%s: parent link repaired -> link %d", self.name, new_parent.link_id
        )
        return True

    def _queue_outputs(self, manager: StreamManager, outputs) -> None:
        """Queue *manager*'s upstream outputs, then their deposit.

        Under repair, a release that moved a watermark is followed by
        one ``TAG_CHECKPOINT`` carrying the stream's per-child
        watermarks, queued *behind* the outputs in the same parent
        buffer: one flush carries both, so the parent never holds a
        deposit ahead of the outputs it covers (a replay dropped for a
        wave whose output never arrived would lose the wave) nor
        behind them (a replay taken for a wave it already has would
        count the wave twice).
        """
        for out in outputs:
            self._queue_up(out)
        if self._deposits and manager.deposit_due:
            manager.deposit_due = False
            doc = manager.checkpoint_state()
            doc["watermarks"] = self._rekey_by_ranks(doc["watermarks"])
            payload = json.dumps(doc, separators=(",", ":"))
            self._c_checkpoint_bytes.value += len(payload)
            self._queue_up(make_checkpoint(manager.stream_id, doc["out_wave"], payload))

    def _rekey_by_ranks(self, by_link: dict) -> dict:
        """Re-key a per-link map by the rank set behind each link.

        Entries for links with no known ranks (nothing reported yet)
        are dropped — they could never be matched at the parent.
        """
        out = {}
        for link, value in by_link.items():
            ranks = self.routing.ranks_behind(link)
            if ranks:
                out[_rank_key(ranks)] = value
        return out

    # -- membership-change notification -----------------------------------

    def _report_membership(self, lost=(), gained=()) -> None:
        """Report one change of this node's routing toward the root."""
        lost, gained = tuple(sorted(lost)), tuple(sorted(gained))
        if self.parent is None:
            self._note_membership(lost, gained)
        else:
            self._queue_up(make_ranks_changed(0, lost, gained))

    def _note_membership(self, lost, gained, failed=True) -> None:
        """Root-level sink for membership changes (*failed*: a loss
        was involuntary); the front-end overrides this to stamp, log
        and flood them."""

    def _note_stats_reply(self, packet: Packet) -> None:
        """Root-level sink for ``TAG_STATS_REPLY`` packets; the
        front-end overrides this to collect gathered snapshots."""

    def _note_addr_report(self, packet: Packet) -> None:
        """Root-level sink for ``TAG_ADDR_REPORT`` packets; the
        front-end overrides this to record listener addresses during
        recursive instantiation."""

    # -- liveness (heartbeats) ---------------------------------------------

    def heartbeat_tick(self) -> None:
        """Emit due probes and enforce liveness deadlines.

        Called periodically by whichever loop drives this core.  A
        no-op unless ``heartbeat_interval`` is positive.  Only
        links whose peer has *ever* sent a probe are subject to the
        silence deadline, so a heartbeat-enabled node interoperates with
        passive peers (the tool's back-end thread, a front-end pumped
        only by API calls) without false positives.

        Probe emission is jittered: each node draws its next interval
        from ``interval * [1-HB_JITTER, 1+HB_JITTER]`` with a
        deterministic per-node generator, de-syncing the probe bursts
        of a large colocated tree.  The *detection* deadline is never
        jittered, so liveness semantics are unchanged.
        """
        if (
            self.heartbeat_interval <= 0
            or self.shutting_down
            or self.crashed
            or self.wedged
        ):
            # A wedged node must also stop probing: its links stay
            # open, so silent probes are the only way peers notice.
            return
        now = self.clock()
        if self._last_beat is None or now - self._last_beat >= self._hb_interval:
            self._last_beat = now
            self._hb_interval = self._draw_hb_interval()
            self._hb_seq += 1
            probe = make_heartbeat(self._hb_seq)
            if self.parent is not None:
                self._queue_up(probe)
                self._c_heartbeats_sent.value += 1
            for link in list(self.children):
                self._queue_down(link, probe)
                self._c_heartbeats_sent.value += 1
            self._note_urgent()
        deadline = self.heartbeat_interval * HB_MISS_THRESHOLD
        for link_id in list(self._hb_peers):
            last = self._last_seen.get(link_id)
            if last is None or now - last < deadline:
                continue
            self._c_heartbeats_missed.value += 1
            if self.recovery is not None:
                self.recovery.bump("heartbeats_missed")
            log.warning(
                "%s: link %s silent for %.2fs (deadline %.2fs); declaring dead",
                self.name,
                "parent" if link_id == self.parent_link_id else link_id,
                now - last,
                deadline,
            )
            self._cut_link(link_id)

    def _draw_hb_interval(self) -> float:
        """Next probe interval: base interval with deterministic jitter."""
        interval = self.heartbeat_interval
        return interval * (1.0 - HB_JITTER + 2.0 * HB_JITTER * self._hb_rng.random())

    def next_heartbeat_deadline(self) -> Optional[float]:
        """Earliest clock time :meth:`heartbeat_tick` has work to do
        (probe emission or a liveness deadline)."""
        if self.heartbeat_interval <= 0 or self.shutting_down:
            return None
        if self._last_beat is None:
            return self.clock()
        soonest = self._last_beat + self._hb_interval
        deadline = self.heartbeat_interval * HB_MISS_THRESHOLD
        for link_id in self._hb_peers:
            last = self._last_seen.get(link_id)
            if last is None:
                continue
            check = last + deadline
            if check < soonest:
                soonest = check
        return soonest

    # -- outbound ----------------------------------------------------------

    def _queue_up(self, packet: Packet) -> None:
        if self._parent_buffer is not None:
            # Inline Packet.values_decoded: the relay path runs this
            # per packet, and the slot read is ~3x cheaper than the
            # property call.
            if packet._values is None:
                self._c_relayed_zero_copy.value += 1
            self._parent_buffer.add(packet)
            self._note_pending()
        else:
            self.deliver_local(packet)

    def _queue_down(self, link_id: int, packet: Packet) -> None:
        buf = self._child_buffers.get(link_id)
        if buf is not None:
            if packet._values is None:
                self._c_relayed_zero_copy.value += 1
            buf.add(packet)
            self._note_pending()

    def _note_pending(self) -> None:
        """Arm the adaptive flush window on the first packet queued."""
        if self._flush_deadline is None:
            self._flush_deadline = self.clock() + self.flush_max_delay

    def _note_urgent(self) -> None:
        """Expire the flush window: pending output should go now."""
        self._flush_deadline = self.clock()

    def deliver_local(self, packet: Packet) -> None:
        """Upstream output at the tree root; overridden by the front-end."""
        raise NotImplementedError(
            "root NodeCore must override deliver_local"
        )  # pragma: no cover

    def flush(self) -> None:
        """Encode and transmit all non-empty output buffers (forced)."""
        if self._parent_buffer is not None and len(self._parent_buffer):
            self._flush_buffer(self.parent_link_id, self.parent, self._parent_buffer)
        for link_id, buf in list(self._child_buffers.items()):
            if len(buf):
                self._flush_buffer(link_id, self.children.get(link_id), buf)
        if not self.has_pending_output:
            self._flush_deadline = None

    def maybe_flush(self) -> None:
        """Adaptive flush: transmit only what the policy says is due.

        Buffers past their size bound go immediately; everything goes
        once the time window armed by the first queued packet expires.
        Event loops call this while busy and :meth:`flush` when idle.
        """
        if (
            self._flush_deadline is not None
            and self.clock() >= self._flush_deadline
        ):
            self.flush()
            return
        if (
            self._parent_buffer is not None
            and self._parent_buffer.should_flush()
        ):
            self._flush_buffer(self.parent_link_id, self.parent, self._parent_buffer)
        for link_id, buf in list(self._child_buffers.items()):
            if buf.should_flush():
                self._flush_buffer(link_id, self.children.get(link_id), buf)
        if not self.has_pending_output:
            self._flush_deadline = None

    def _flush_buffer(
        self, link_id: Optional[int], end: Optional[ChannelEnd], buf: PacketBuffer
    ) -> None:
        """Transmit one buffer with backpressure and loss accounting."""
        if end is None:
            # Link already torn down; nothing left to notify.
            self._drop_buffer(link_id, buf)
            return
        if getattr(end, "closed", False):
            self._drop_buffer(link_id, buf)
            if link_id is not None:
                self._handle_link_closed(link_id)
            return
        capacity = getattr(end, "send_capacity", None)
        if capacity is not None:
            # Framing overhead: 4-byte count plus 4 bytes per packet.
            needed = buf.nbytes + 4 * (len(buf) + 1)
            # An *empty* send queue accepts any single message (else an
            # oversized batch could never leave); a non-empty queue
            # defers anything it cannot fit.
            if needed > capacity() and getattr(end, "send_backlog", 1) > 0:
                self._c_send_queue_full.value += 1
                return  # backpressure: packets stay buffered, retried later
        packets = buf.drain()
        tracer = self.tracer
        if tracer is None:
            data = encode_batch(packets)
            t0 = 0.0
        else:
            # The rebatch stage (Figure 3): queued packets become one
            # outbound framed message.  Timed here — at the encode —
            # rather than per buffered packet, so tracing costs two
            # spans per flush instead of one per relayed packet.
            t0 = tracer.span_start()
            data = encode_batch(packets)
            tracer.span_end(
                "rebatch", t0, detail=f"link={link_id} n={len(packets)}"
            )
            t0 = tracer.span_start()
        try:
            end.send(data)
            self._c_messages_sent.value += 1
            self._h_flush_batch.observe(len(packets))
            if tracer is not None:
                tracer.span_end("send", t0, detail=f"link={link_id} n={len(packets)}")
        except SendQueueFull:
            # Bound hit despite the capacity check (concurrent writer):
            # keep the packets, count the deferral.
            buf.requeue(packets)
            self._c_send_queue_full.value += 1
        except ConnectionError:
            self._drop_packets(link_id, len(packets))
            if link_id is not None:
                self._handle_link_closed(link_id)

    def _drop_buffer(self, link_id: Optional[int], buf: PacketBuffer) -> None:
        self._drop_packets(link_id, len(buf.drain()))

    def _drop_packets(self, link_id: Optional[int], count: int) -> None:
        if not count:
            return
        self._c_dropped_on_close.value += count
        key = -1 if link_id is None else link_id
        if key not in self._drop_logged:
            self._drop_logged.add(key)
            log.warning(
                "%s: link %s closed; dropped %d queued packet(s)",
                self.name,
                "parent" if link_id == self.parent_link_id else link_id,
                count,
            )

    @property
    def has_pending_output(self) -> bool:
        """True while any output buffer still holds packets."""
        if self._parent_buffer is not None and len(self._parent_buffer):
            return True
        return any(len(b) for b in self._child_buffers.values())

    def close_all(self) -> None:
        """Close every channel this node owns an end of."""
        if self.parent is not None:
            self.parent.close()
        for end in self.children.values():
            end.close()

    @property
    def has_timeout_streams(self) -> bool:
        """True when any live stream needs time-based polling.

        Maintained as a counter at stream install/discard — O(1), not
        a scan over every manager.
        """
        return self._timed_stream_count > 0

    def next_timeout_deadline(self) -> Optional[float]:
        """Earliest clock time a TimeOut stream could release a wave.

        ``None`` when no stream holds a timed wave — the caller may
        then block indefinitely on I/O.  This is what replaced the old
        2 ms ``TIMEOUT_POLL`` spin: loops sleep until this instant.

        Served from a lazy-deletion heap: superseded entries (whose
        recorded deadline no longer matches the stream's armed one)
        are popped on encounter, so the amortized cost is O(log
        active) instead of a scan over every open stream.
        """
        heap = self._deadline_heap
        armed = self._armed_deadlines
        while heap:
            deadline, sid = heap[0]
            if armed.get(sid) != deadline:
                heapq.heappop(heap)  # stale: disarmed or re-armed later
                continue
            return deadline
        return None

    def next_wakeup_deadline(self) -> Optional[float]:
        """Earliest clock time *any* timed concern needs this core.

        The one deadline a driving loop asks for: TimeOut streams, the
        adaptive flush window and heartbeat emission/deadlines, so
        drivers cannot silently diverge on when a silent peer is
        declared dead.  ``None``: nothing is timed, block on I/O.
        """
        deadline = self.next_timeout_deadline()
        for other in (self._flush_deadline, self.next_heartbeat_deadline()):
            if other is not None and (deadline is None or other < deadline):
                deadline = other
        return deadline


class NodeHost(threading.Thread):
    """One thread, one event loop, one or more comm-node cores.

    The host group of :func:`repro.topology.plan_placement` made
    concrete for thread-hosted trees: every core added before
    :meth:`start` is driven by the same selector
    :class:`~repro.transport.eventloop.EventLoop`, which owns the
    sockets and inproc ends handed to it plus each core's in-process
    inbox.  A solo node is a host with one core; ``colocate=True`` is
    one host with all of them.
    """

    def __init__(self, name: str, clock: Callable[[], float] = time.monotonic):
        super().__init__(name=name, daemon=True)
        self.loop = EventLoop(clock=clock)

    def add_node(
        self,
        name: str,
        registry: FilterRegistry,
        expected_ranks: int,
        parent: ChannelEnd,
        inbox: Optional[Inbox] = None,
    ) -> "CommNode":
        """Create a core under *parent* on this loop (before start)."""
        core = NodeCore(
            name, registry, expected_ranks, parent, self.loop.clock, inbox
        )
        if isinstance(parent, LoopLink):
            # A socket or inproc end this loop owns was made before the
            # core it delivers to existed.
            parent.core = core
        self.loop.bind(core)
        return CommNode(self, core)

    def run(self) -> None:
        self.loop.run()

    def close(self) -> None:
        """Free loop resources if the host thread never started."""
        if self.ident is None:
            self.loop.close()


class CommNode:
    """An internal process: one :class:`NodeCore` on a :class:`NodeHost`.

    The handle the network, fault injector and recovery coordinator
    drive.  ``start`` launches the host thread once, however many
    nodes share it; ``is_alive``/``join`` track *this* core's lifetime
    on the loop, not the host thread's.
    """

    def __init__(self, host: NodeHost, core: NodeCore):
        self.host = host
        self.core = core
        self.loop = host.loop

    def start(self) -> None:
        try:
            self.host.start()
        except RuntimeError:
            pass  # a node sharing the host already started it

    def is_alive(self) -> bool:
        return self.host.is_alive() and not self.loop.core_finished(self.core)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until the loop has torn this core down."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(0.002)

    def kill(self) -> None:
        """Crash this node abruptly (fault injection).

        Unlike shutdown there is no goodbye broadcast: the loop tears
        the core down and closes its ends, so peers see EOF (or, for a
        wedged node, heartbeat silence) exactly as they would for a
        killed OS process.  Nodes sharing the host live on.
        """
        self.core.crashed = True
        self.loop.wake()
