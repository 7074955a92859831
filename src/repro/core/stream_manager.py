"""Stream managers: per-stream control flow inside a process (§2.3).

"Internal processes use a stream manager object to manage control flow
and route packets.  When a stream is established, an internal process
creates a new stream manager and initializes it with the set of
end-points to be associated with the stream and the filter(s) to be
used on data packets sent on the stream."

A :class:`StreamManager` owns, for one stream at one process:

* the stream's endpoint set (back-end ranks);
* the child links relevant to the stream (its "children nodes");
* one synchronization-filter instance over those links;
* the upstream transformation filter plus its per-node state;
* optionally a downstream transformation filter plus state.

The upstream path is ``push_upstream`` (packet in, zero or more
aggregated packets out); downstream fan-out is resolved by the node's
routing table, with ``transform_downstream`` applied first when a
downstream filter is bound.

Lazy-packet invariant: synchronization filters never inspect payloads
(they queue and release whole packets), and the null transformation
filter passes packets through by reference, so a ``TFILTER_NULL``
stream propagates undecoded lazy wire packets end-to-end — the node
relays the original frame bytes without ever touching field values.
Any value-inspecting filter (sum, concat, ...) triggers the deferred
decode on first access via ``Packet.raw_values``.

Chunked waves (pipelined collectives)
-------------------------------------

Streams created with ``chunk_bytes > 0`` carry large array payloads as
``TAG_CHUNK`` pipeline fragments (see :mod:`repro.core.chunking`).
When the upstream transform is *chunkwise* (element-wise reductions:
min/max/sum/avg) and the synchronizer is Wait-For-All, the manager
runs the filter **incrementally**: one fragment from every child —
heads aligned on ``(chunk_index, n_chunks)`` — triggers a partial
filter invocation whose single output is immediately re-framed as a
fragment of this node's own output wave and forwarded.  Hop *k* thus
reduces chunk *i* while hop *k−1* reduces chunk *i+1*, which is what
flattens Figure 7c's latency-vs-depth curve (Träff, arXiv:2109.12626).

For every other configuration (non-chunkwise filters, TimeOut/DontWait
sync) fragments are reassembled per child link before entering the
classic synchronization path, so chunked and whole-wave results are
byte-identical by construction.  A child that dies mid-wave leaves a
truncated fragment sequence; the manager discards the poisoned
partial wave at every affected level (``chunk_waves_aborted``) and
realigns on the next wave boundary, under the bumped membership epoch.

Crash-consistent waves (elastic robustness)
-------------------------------------------

Chunk framing already carries a per-stream monotonic output wave id in
every fragment prefix, so crash consistency rides the existing wire
format.  On the *send* side the manager keeps a bounded history of its
own emitted waves (:data:`HISTORY_MAX_WAVES` waves /
:data:`HISTORY_MAX_BYTES` bytes, mirroring the transport send-queue
bound); after a parent repair the node replays the un-ACKed suffix via
:meth:`StreamManager.resend_since`, and ``TAG_WAVE_ACK`` from the
parent prunes it.  On the *receive* side a per-child-link high
watermark of completed input waves drops duplicate retransmissions and
turns a fresh gap into a single ``TAG_WAVE_NACK`` toward that child.
Watermarks and resumable filter state (``checkpoint_state``) are
shipped one hop up in periodic ``TAG_CHECKPOINT`` packets so an
adopter can seed dedup for children it inherits from a dead node.
Output wave ids deliberately bump on aborts without emitting, so gaps
are *normal*; a NACK is sent at most once per (link, expected-seq) and
a resender silently skips seqs its history has already aged out.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Sequence

from ..filters.base import FunctionFilter
from ..filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_TIMEOUT,
    SFILTER_WAITFORALL,
    TFILTER_NULL,
    FilterRegistry,
)
from ..filters.sync import SynchronizationFilter, WaitForAllFilter
from ..obs.metrics import MetricsRegistry
from .chunking import (
    ChunkReassembler,
    chunk_meta,
    is_chunk,
    reassemble,
    split_packet,
    strip_chunk,
    wrap_chunk,
)
from .packet import Packet
from .protocol import WAVE_REDUCE

__all__ = [
    "StreamManager",
    "CHUNK_BYTE_BUCKETS",
    "HISTORY_MAX_WAVES",
    "HISTORY_MAX_BYTES",
    "ACK_STRIDE",
]

log = logging.getLogger(__name__)

#: Power-of-two byte buckets for the per-stream ``chunk_bytes``
#: histogram (1 KiB .. 16 MiB covers every sane fragment size).
CHUNK_BYTE_BUCKETS = tuple(1 << p for p in range(10, 25))

#: Retransmit-history bound, in output waves.  Deep enough to cover
#: the waves a parent can plausibly lose between heartbeat detection
#: and repair; shallow enough that history stays a rounding error
#: next to the chunk queues themselves.
HISTORY_MAX_WAVES = 8

#: Retransmit-history bound, in encoded payload bytes.  Mirrors the
#: transport's per-link send-queue ceiling
#: (:data:`repro.transport.eventloop.SEND_QUEUE_MAX_BYTES`) so a
#: stream can never pin more memory in history than one link may
#: queue under backpressure.
HISTORY_MAX_BYTES = 4 << 20

#: Completed input waves between ``TAG_WAVE_ACK`` emissions toward a
#: child — the child prunes its history up to the ACKed seq.
ACK_STRIDE = 4


class StreamManager:
    """Per-stream packet processing at one tree node.

    When *owner* (the hosting :class:`~repro.core.commnode.NodeCore`)
    is given, the manager binds per-stream labelled instruments into
    the owner's metrics registry — ``waves_released{stream,filter}``
    and the ``wave_latency_seconds{stream}`` histogram — and emits
    ``sync_wait`` / ``filter`` trace spans whenever the owner has a
    tracer attached.  Wave latency is measured from the first packet
    that opens a wave to the instant the synchronization filter
    releases it: exactly the Figure 3 synchronization-layer dwell the
    paper's wave experiments time externally.
    """

    def __init__(
        self,
        stream_id: int,
        endpoints: Sequence[int],
        child_links: Sequence[int],
        sync_filter: SynchronizationFilter,
        transform: FunctionFilter,
        down_transform: Optional[FunctionFilter] = None,
        clock: Optional[Callable[[], float]] = None,
        owner=None,
        chunk_bytes: int = 0,
        wave_pattern: int = WAVE_REDUCE,
    ):
        self.stream_id = stream_id
        self.endpoints: FrozenSet[int] = frozenset(endpoints)
        self.child_links = list(child_links)
        self.sync = sync_filter
        # True when the synchronization criterion has a time component
        # (it overrides ``next_deadline``).  The owning node only
        # tracks such streams in its O(active) deadline machinery —
        # untimed streams never enter the per-tick poll set.
        self.sync_timed = (
            type(sync_filter).next_deadline
            is not SynchronizationFilter.next_deadline
        )
        self.transform = transform
        self.chunk_bytes = int(chunk_bytes or 0)
        self.wave_pattern = wave_pattern
        # Incremental (per-chunk) filtering needs a reduction that
        # commutes with slicing and alignment semantics with no time
        # component; everything else reassembles fragments first.
        self.incremental = (
            self.chunk_bytes > 0
            and getattr(transform, "chunkwise", False)
            and isinstance(sync_filter, WaitForAllFilter)
        )
        self.transform_state = transform.make_state()
        # Generic hint for filters that need their fan-in (e.g. the
        # Performance Data Aggregation filter aligns one queue per child).
        self.transform_state.setdefault("n_children", len(self.child_links))
        self.down_transform = down_transform
        self.down_state = down_transform.make_state() if down_transform else None
        self.closed = False
        # Bumped on every wave-membership change (a child link dropped
        # or adopted); lets tools correlate aggregates with the rank
        # set that produced them (see TAG_RANKS_CHANGED).
        self.membership_epoch = 0
        # Front-end hooks (both optional, invoked synchronously on the
        # owner's pump thread): ``on_wave_complete(stream_id, epoch)``
        # fires each time the synchronization filter releases a wave,
        # ``on_membership_change(stream_id, epoch)`` each time the
        # membership epoch bumps.  The serving gateway
        # (:mod:`repro.gateway`) uses them to stamp completion epochs
        # and eagerly invalidate coalesced results.
        self.on_wave_complete: Optional[Callable[[int, int], None]] = None
        self.on_membership_change: Optional[Callable[[int, int], None]] = None
        # Pure pass-through streams (DONTWAIT sync, null transform, no
        # downstream filter) take the §4.2.1 negligible-overhead relay
        # path: the node forwards each packet without running the wave
        # machinery at all.  Set by :meth:`create` from the filter ids.
        self.passthrough = False
        # -- observability --------------------------------------------
        self._owner = owner
        self._clock = clock or (owner.clock if owner is not None else time.monotonic)
        registry = owner.metrics if owner is not None else MetricsRegistry()
        self._c_waves_released = registry.counter(
            "waves_released",
            "Waves released by this stream's synchronization filter",
            stream=stream_id,
            filter=transform.name,
        )
        self._h_wave_latency = registry.histogram(
            "wave_latency_seconds",
            "First packet in to wave released (sync-layer dwell)",
            stream=stream_id,
        )
        registry.gauge(
            "membership_epoch",
            "Wave-membership generation for this stream (bumps on every "
            "child link drop or adoption; see TAG_RANKS_CHANGED)",
            fn=lambda: self.membership_epoch,
            stream=stream_id,
        )
        # Armed by the first packet that opens a wave; cleared when a
        # wave releases.  One attribute test per pushed packet, one
        # clock read per wave — cheap enough to stay always-on.
        self._wave_t0: Optional[float] = None
        # -- chunked-wave state ----------------------------------------
        # Per-link fragment reassembly for the non-incremental path
        # (created lazily; also catches fragments on streams whose own
        # chunk_bytes is 0, e.g. from a newer peer).
        self._reassemblers: Dict[object, ChunkReassembler] = {}
        # Incremental mode: every data packet (fragment or whole) rides
        # a per-link FIFO; release happens on aligned heads.
        self._chunk_queues: Dict[object, Deque[Packet]] = (
            {c: deque() for c in self.child_links} if self.incremental else {}
        )
        self._chunk_joining: set = set()
        self._chunk_leaving: set = set()  # lame-duck links (TAG_LEAVE)
        self._wave_links: List[object] = []  # fixed participant set mid-wave
        self._wave_pos = 0  # next expected chunk index (0 = at a boundary)
        self._wave_n = 0  # fragment count of the in-flight aligned wave
        self._out_wave = 0  # this node's output wave sequence number
        self._fill_t0: Optional[float] = None  # first fragment of a wave
        if self.chunk_bytes > 0:
            registry.gauge(
                "chunks_in_flight",
                "Pipeline fragments currently buffered for this stream "
                "(aligned-release queues plus per-link reassembly)",
                fn=self._count_chunks_in_flight,
                stream=stream_id,
            )
            self._h_chunk_bytes = registry.histogram(
                "chunk_bytes",
                "Encoded size of pipeline fragments received on this stream",
                stream=stream_id,
                buckets=CHUNK_BYTE_BUCKETS,
            )
            self._c_chunk_aborts = registry.counter(
                "chunk_waves_aborted",
                "Partial chunked waves discarded (mid-wave fault or "
                "fragment-sequence restart)",
                stream=stream_id,
            )
        else:
            self._h_chunk_bytes = None
            self._c_chunk_aborts = None
        # -- crash-consistent waves ------------------------------------
        # Bounded replay history of this node's own emitted output
        # waves: deque of ``(wave_id, [chunk packets])``, oldest first.
        self._out_history: Deque = deque()
        self._history_bytes = 0
        # Per-child-link high watermark of *completed* input waves
        # (the link delivered a wave's final fragment).  Anything at
        # or below the watermark is a duplicate retransmission.
        self._in_high: Dict[object, int] = {}
        self._ack_low: Dict[object, int] = {}  # last wave ACKed per link
        self._nacked: Dict[object, int] = {}  # highest seq NACKed per link
        # Owner-installed control emitters, ``fn(link_id, stream_id,
        # wave_seq)``; ``None`` (back-end-less unit tests, front-end)
        # disables ACK/NACK emission without disabling the watermarks.
        self.ack_hook: Optional[Callable[[object, int, int], None]] = None
        self.nack_hook: Optional[Callable[[object, int, int], None]] = None
        # True once the transform state has been mutated by a released
        # wave; guards checkpoint restoration (an adopter only inherits
        # a dead node's filter state while its own is still pristine).
        self._state_dirty = False
        self._c_waves_recovered = registry.counter(
            "waves_recovered",
            "Output waves replayed from the retransmit history after a "
            "parent repair or TAG_WAVE_NACK",
            stream=stream_id,
        )
        self._c_chunks_retx = registry.counter(
            "chunks_retransmitted",
            "Pipeline fragments replayed from the retransmit history",
            stream=stream_id,
        )

    @classmethod
    def create(
        cls,
        stream_id: int,
        endpoints: Sequence[int],
        child_links: Sequence[int],
        registry: FilterRegistry,
        sync_filter_id: int,
        transform_filter_id: int,
        sync_timeout: float = 0.0,
        down_transform_filter_id: int = 0,
        clock: Callable[[], float] = None,
        owner=None,
        chunk_bytes: int = 0,
        wave_pattern: int = WAVE_REDUCE,
    ) -> "StreamManager":
        """Instantiate filters from registry ids (the NEW_STREAM path)."""
        clock = clock or time.monotonic
        kwargs = {}
        if sync_filter_id == SFILTER_TIMEOUT:
            kwargs["timeout"] = sync_timeout if sync_timeout > 0 else 0.05
        sync = registry.make_sync(sync_filter_id, child_links, clock=clock, **kwargs)
        transform = registry.get_transform(transform_filter_id)
        down = (
            registry.get_transform(down_transform_filter_id)
            if down_transform_filter_id
            else None
        )
        manager = cls(
            stream_id, endpoints, child_links, sync, transform, down,
            clock=clock, owner=owner,
            chunk_bytes=chunk_bytes, wave_pattern=wave_pattern,
        )
        manager.passthrough = (
            sync_filter_id == SFILTER_DONTWAIT
            and transform_filter_id == TFILTER_NULL
            and down_transform_filter_id == 0
        )
        return manager

    # -- upstream ----------------------------------------------------------

    def push_upstream(self, link_id: int, packet: Packet) -> List[Packet]:
        """Process one packet arriving from a child; return outputs."""
        if self.closed:
            return []
        if is_chunk(packet) and not self._admit_chunk(link_id, packet):
            return []
        if self.incremental:
            return self._push_incremental(link_id, packet)
        if is_chunk(packet):
            # Non-incremental configuration: rebuild the whole packet
            # from this child's fragment sequence, then run the classic
            # wave path — chunked and whole-wave results are identical
            # by construction.
            if self._h_chunk_bytes is not None:
                self._h_chunk_bytes.observe(packet.nbytes)
            ra = self._reassemblers.get(link_id)
            if ra is None:
                ra = self._reassemblers[link_id] = ChunkReassembler()
            discarded = ra.discarded_waves
            whole = ra.add(packet)
            if ra.discarded_waves != discarded and self._c_chunk_aborts is not None:
                self._c_chunk_aborts.value += ra.discarded_waves - discarded
            if whole is None:
                return []
            packet = whole
        if self._wave_t0 is None:
            self._wave_t0 = self._clock()
        # The sync filter may park the packet across receive cycles.
        waves = self.sync.push(link_id, packet.materialize())
        return self._emit_up(self._run_waves(waves))

    def _admit_chunk(self, link_id: object, packet: Packet) -> bool:
        """Sequence gate for one arriving fragment (crash consistency).

        Returns ``False`` for duplicates (wave id at or below the
        link's completed-wave watermark — a retransmission overlap
        after repair).  A fresh gap at a wave boundary emits one
        ``TAG_WAVE_NACK`` toward the child via :attr:`nack_hook`; gaps
        are otherwise *normal* (aborted waves consume ids silently),
        so the NACK fires at most once per (link, expected-seq) and
        recovery degrades to realignment when history has aged out.
        """
        wave_id, index, n, _tag = chunk_meta(packet)
        high = self._in_high.get(link_id, -1)
        if wave_id <= high:
            log.debug(
                "stream %d: dropping duplicate chunk wave=%d idx=%d from %r",
                self.stream_id, wave_id, index, link_id,
            )
            return False
        if index == 0 and self.nack_hook is not None:
            expected = high + 1
            if wave_id > expected and expected > self._nacked.get(link_id, -1):
                self._nacked[link_id] = expected
                self.nack_hook(link_id, self.stream_id, expected)
        if index + 1 == n:
            self._in_high[link_id] = wave_id
            if (
                self.ack_hook is not None
                and wave_id - self._ack_low.get(link_id, -1) >= ACK_STRIDE
            ):
                self._ack_low[link_id] = wave_id
                self.ack_hook(link_id, self.stream_id, wave_id)
        return True

    def watermark(self, link_id: object) -> int:
        """Highest completed input wave id seen on *link_id* (-1: none)."""
        return self._in_high.get(link_id, -1)

    def seed_watermark(self, link_id: object, wave_id: int) -> None:
        """Pre-set a link's dedup watermark from a checkpoint.

        Called when adopting an orphan whose dead parent had already
        completed waves up to *wave_id*: the orphan's post-repair
        replay of those waves must be dropped, not re-aggregated.
        """
        if wave_id > self._in_high.get(link_id, -1):
            self._in_high[link_id] = wave_id

    def poll_upstream(self) -> List[Packet]:
        """Re-check time-based synchronization criteria."""
        if self.closed:
            return []
        if self.incremental:
            return []  # no time-based criterion in aligned-chunk mode
        return self._emit_up(self._run_waves(self.sync.poll()))

    def _note_wave_released(self) -> None:
        """Count a released wave and fire the front-end completion hook."""
        self._c_waves_released.value += 1
        if self.on_wave_complete is not None:
            self.on_wave_complete(self.stream_id, self.membership_epoch)

    def _bump_epoch(self) -> None:
        """Advance the membership epoch and fire the change hook."""
        self.membership_epoch += 1
        if self.on_membership_change is not None:
            self.on_membership_change(self.stream_id, self.membership_epoch)

    def drop_link(self, link_id: int) -> List[Packet]:
        """A child link closed: discard its state, realign the rest.

        Classic path: the dead child's backlog is released through the
        filter best-effort.  Incremental path: its buffered fragments
        are unusable partial state — they are discarded, and if the
        child was mid-wave the whole in-flight wave is aborted (every
        sibling's fragments for it are dropped too), so the next wave
        realigns cleanly under the bumped membership epoch.
        """
        self._bump_epoch()
        self._in_high.pop(link_id, None)
        self._ack_low.pop(link_id, None)
        self._nacked.pop(link_id, None)
        if self.incremental:
            q = self._chunk_queues.pop(link_id, None)
            self._chunk_joining.discard(link_id)
            self._chunk_leaving.discard(link_id)
            self.sync.remove_child(link_id)
            if link_id in self.child_links:
                self.child_links.remove(link_id)
            if self._wave_pos > 0 and link_id in self._wave_links:
                self._abort_wave()
            elif q and self._c_chunk_aborts is not None and any(
                is_chunk(p) for p in q
            ):
                self._c_chunk_aborts.value += 1
            return self._release_aligned()
        self._reassemblers.pop(link_id, None)
        backlog = self.sync.remove_child(link_id)
        if link_id in self.child_links:
            self.child_links.remove(link_id)
        out: List[Packet] = []
        if backlog:
            backlog = [p for p in backlog if not is_chunk(p)]
            if backlog:
                out.extend(self.transform(backlog, self.transform_state))
        out.extend(self._run_waves(self.sync.poll()))
        return self._emit_up(out)

    def add_link(self, link_id: int) -> None:
        """Adopt a child link mid-stream (tree repair).

        The link joins wave alignment with *joining* semantics: an
        in-flight wave completes over the pre-adoption membership; the
        new link participates from the next wave boundary onward.
        """
        if link_id in self.child_links:
            return
        self.child_links.append(link_id)
        self.sync.add_child(link_id, joining=True)
        if self.incremental:
            self._chunk_queues[link_id] = deque()
            self._chunk_joining.add(link_id)
        self._bump_epoch()

    def retire_link(self, link_id: int) -> None:
        """Lame-duck a child link that announced a graceful leave.

        The departing subtree flushed before sending ``TAG_LEAVE``, so
        its already-queued contributions still ride the next waves —
        but completeness criteria stop *requiring* the link, and the
        eventual EOF is expected rather than a failure.  Contrast
        :meth:`drop_link`, which is the abrupt-death path.
        """
        if link_id not in self.child_links:
            return
        self._bump_epoch()
        self.sync.retire_child(link_id)
        if self.incremental:
            self._chunk_leaving.add(link_id)

    def add_endpoints(self, ranks: Sequence[int]) -> None:
        """Splice joining back-end ranks into the endpoint set (TAG_JOIN).

        Bumps the membership epoch even when the join rides an already
        known child link (the splice point is deeper in the tree): any
        change to *who* a wave covers is a new membership generation.
        """
        grown = self.endpoints | frozenset(ranks)
        if grown != self.endpoints:
            self.endpoints = grown
            self._bump_epoch()

    def remove_endpoints(self, ranks: Sequence[int]) -> None:
        """Retire departed back-end ranks (TAG_LEAVE or degrade)."""
        shrunk = self.endpoints - frozenset(ranks)
        if shrunk != self.endpoints:
            self.endpoints = shrunk
            self._bump_epoch()

    def flush_upstream(self) -> List[Packet]:
        """Stream teardown: push every held packet through the filter.

        Fragments of incomplete waves are discarded (a partial array
        slice is not a usable contribution); whole packets flush
        positionally like the classic path.
        """
        if not self.incremental:
            return self._emit_up(self._run_waves(self.sync.flush()))
        if self._wave_pos > 0:
            self._abort_wave()
        waves: List[List[Packet]] = []
        while True:
            wave = []
            for q in self._chunk_queues.values():
                while q and is_chunk(q[0]):
                    q.popleft()  # orphan fragments: discard
                if q:
                    wave.append(q.popleft())
            if not wave:
                break
            waves.append(wave)
        return self._emit_up(self._run_waves(waves))

    # -- incremental (per-chunk) pipeline ---------------------------------

    def _push_incremental(self, link_id: int, packet: Packet) -> List[Packet]:
        """Queue one arrival and release every aligned fragment."""
        q = self._chunk_queues.get(link_id)
        if q is None:
            raise KeyError(f"unknown child {link_id!r}")
        if is_chunk(packet) and self._h_chunk_bytes is not None:
            self._h_chunk_bytes.observe(packet.nbytes)
        q.append(packet)
        now = self._clock()
        if self._wave_t0 is None:
            self._wave_t0 = now
        if self._fill_t0 is None:
            self._fill_t0 = now
        out = self._release_aligned()
        if q and q[-1] is packet:
            # Not consumed this cycle: the fragment parks until its
            # siblings arrive, so it must own its bytes (zero-copy shm
            # frames alias ring memory that is about to be recycled).
            packet.materialize()
        return out

    def _release_aligned(self) -> List[Packet]:
        """Drain every releasable aligned fragment / whole wave."""
        out: List[Packet] = []
        while True:
            released = self._try_release()
            if released is None:
                return out
            out.extend(released)

    def _participants(self) -> Optional[List[object]]:
        """Links taking part in the next wave, or ``None`` if not ready.

        Mirrors Wait-For-All membership: every non-joining link must
        have a packet queued; joining links ride along only if they
        already have one.
        """
        required = [
            lid
            for lid in self._chunk_queues
            if lid not in self._chunk_joining
            and lid not in self._chunk_leaving
        ]
        if not required:
            return None
        if any(not self._chunk_queues[lid] for lid in required):
            return None
        return [lid for lid, q in self._chunk_queues.items() if q]

    def _try_release(self) -> Optional[List[Packet]]:
        if self._wave_pos > 0:
            return self._release_next_chunk()
        # At a wave boundary: first drop stale fragment tails left by
        # an aborted wave (a fragment sequence must start at index 0).
        for q in self._chunk_queues.values():
            while q and is_chunk(q[0]) and chunk_meta(q[0])[1] != 0:
                q.popleft()
        links = self._participants()
        if links is None:
            return None
        heads = [self._chunk_queues[lid][0] for lid in links]
        if all(is_chunk(h) for h in heads):
            counts = {chunk_meta(h)[2] for h in heads}
            if len(counts) == 1:
                # Uniformly fragmented: open an aligned incremental wave.
                self._wave_links = links
                self._wave_n = counts.pop()
                self._wave_pos = 0
                return self._release_next_chunk()
        return self._release_reassembled(links)

    def _release_next_chunk(self) -> Optional[List[Packet]]:
        """Release fragment ``_wave_pos`` of the in-flight aligned wave."""
        index, n = self._wave_pos, self._wave_n
        inner: List[Packet] = []
        for lid in self._wave_links:
            q = self._chunk_queues.get(lid)
            if q is None:  # participant vanished: drop_link aborts first
                self._abort_wave()
                return []
            if not q:
                return None  # wait for this link's fragment
            head = q[0]
            if not is_chunk(head) or chunk_meta(head)[1:3] != (index, n):
                # Truncated/restarted sequence (mid-wave fault below us):
                # poison the whole in-flight wave and realign.
                self._abort_wave()
                return []
            inner.append(strip_chunk(head))
        for lid in self._wave_links:
            self._chunk_queues[lid].popleft()
        tracer = self._owner.tracer if self._owner is not None else None
        if tracer is None:
            outputs = self.transform(inner, self.transform_state)
        else:
            t0 = tracer.span_start()
            outputs = self.transform(inner, self.transform_state)
            tracer.span_end(
                "filter", t0, self.stream_id, detail=f"{self.transform.name}#{index}"
            )
        if index == 0 and tracer is not None and self._fill_t0 is not None:
            # The pipeline is primed: first partial result leaves while
            # later fragments are still arriving (Figure 3 hop overlap).
            tracer.span(
                "pipeline_fill",
                self._fill_t0,
                self._clock(),
                self.stream_id,
                detail=f"n={n}",
            )
        self._state_dirty = True
        out = self._record_out(
            [wrap_chunk(p, self._out_wave, index, n) for p in outputs]
        )
        if index + 1 >= n:
            released = self._clock()
            if self._wave_t0 is not None:
                self._h_wave_latency.observe(released - self._wave_t0)
                self._wave_t0 = None
            self._note_wave_released()
            self._out_wave += 1
            self._wave_pos = 0
            self._wave_n = 0
            self._wave_links = []
            self._fill_t0 = None
            self._chunk_joining.clear()
        else:
            self._wave_pos = index + 1
        return out

    def _release_reassembled(self, links: List[object]) -> Optional[List[Packet]]:
        """Boundary fallback: mixed whole/fragment (or unevenly
        fragmented) heads.  Wait until every participant has one
        complete unit queued, rebuild the fragmented ones, and run the
        classic whole-wave path."""
        units: List[Packet] = []
        consume: List[int] = []
        for lid in links:
            q = self._chunk_queues[lid]
            unit = None
            while q:
                head = q[0]
                if not is_chunk(head):
                    unit = head
                    consume.append(1)
                    break
                wave_id, _index, n, _tag = chunk_meta(head)
                # Queues are FIFO, so any already-arrived fragment that
                # breaks the sequence means the sender restarted — the
                # partial prefix can never complete.  Drop it eagerly
                # (waiting on it would deadlock behind a finished new
                # wave) and re-examine the new head.
                broken_at = None
                for pos in range(1, min(n, len(q))):
                    p = q[pos]
                    if not is_chunk(p) or chunk_meta(p)[:2] != (wave_id, pos):
                        broken_at = pos
                        break
                if broken_at is not None:
                    for _ in range(broken_at):
                        q.popleft()
                    if self._c_chunk_aborts is not None:
                        self._c_chunk_aborts.value += 1
                    continue
                if len(q) < n:
                    return None  # complete set not yet arrived
                unit = reassemble([q[pos] for pos in range(n)])
                consume.append(n)
                break
            if unit is None:
                return None
            units.append(unit)
        for lid, count in zip(links, consume):
            q = self._chunk_queues[lid]
            for _ in range(count):
                q.popleft()
        self._chunk_joining.clear()
        self._fill_t0 = None
        return self._emit_up(self._run_waves([units]))

    def _abort_wave(self) -> None:
        """Poison the in-flight aligned wave: drop every participant's
        remaining fragments for it and realign at the next boundary."""
        if self._c_chunk_aborts is not None:
            self._c_chunk_aborts.value += 1
        for q in self._chunk_queues.values():
            while q and is_chunk(q[0]) and chunk_meta(q[0])[1] != 0:
                q.popleft()
        self._wave_pos = 0
        self._wave_n = 0
        self._wave_links = []
        self._wave_t0 = None
        self._fill_t0 = None
        # The node's own output sequence restarts too: bump the output
        # wave id so downstream reassembly discards the truncated wave.
        self._out_wave += 1

    def _emit_up(self, packets: List[Packet]) -> List[Packet]:
        """Split oversized whole outputs so upstream hops stay pipelined."""
        if not self.chunk_bytes:
            return packets
        out: List[Packet] = []
        for p in packets:
            if is_chunk(p):
                out.append(p)
                continue
            chunks = split_packet(p, self.chunk_bytes, self._out_wave)
            if chunks is None:
                out.append(p)
            else:
                self._out_wave += 1
                out.extend(chunks)
        return self._record_out(out)

    def _record_out(self, packets: List[Packet]) -> List[Packet]:
        """Append emitted fragments to the bounded retransmit history.

        Fragments are grouped by their output wave id; whole (unchunked)
        packets carry no wire sequence number and are not replayable.
        Packets are materialized before parking — a zero-copy shm frame
        aliases ring memory that the transport recycles after send.
        """
        for p in packets:
            if not is_chunk(p):
                continue
            wave_id = chunk_meta(p)[0]
            if self._out_history and self._out_history[-1][0] == wave_id:
                self._out_history[-1][1].append(p.materialize())
            else:
                self._out_history.append((wave_id, [p.materialize()]))
            self._history_bytes += p.nbytes
        while self._out_history and (
            len(self._out_history) > HISTORY_MAX_WAVES
            or self._history_bytes > HISTORY_MAX_BYTES
        ):
            _seq, chunks = self._out_history.popleft()
            self._history_bytes -= sum(c.nbytes for c in chunks)
        return packets

    def ack_output(self, wave_seq: int) -> None:
        """``TAG_WAVE_ACK``: the parent delivered through *wave_seq*.

        Prunes the retransmit history up to and including that wave.
        """
        while self._out_history and self._out_history[0][0] <= wave_seq:
            _seq, chunks = self._out_history.popleft()
            self._history_bytes -= sum(c.nbytes for c in chunks)

    def resend_since(self, wave_seq: int = -1) -> List[Packet]:
        """Replay every buffered output wave newer than *wave_seq*.

        The post-repair resend path (and the ``TAG_WAVE_NACK``
        handler): returns the fragments in original emission order for
        the owner to queue upstream.  Waves the bounded history has
        already aged out are silently skipped — the parent's
        reassembler realigns on the next boundary and the loss shows
        up in ``chunk_waves_aborted`` there instead.
        """
        out: List[Packet] = []
        waves = 0
        for seq, chunks in self._out_history:
            if seq <= wave_seq:
                continue
            out.extend(chunks)
            waves += 1
        if waves:
            self._c_waves_recovered.value += waves
            self._c_chunks_retx.value += len(out)
        return out

    def checkpoint_state(self) -> dict:
        """This node's resumable per-stream state (``TAG_CHECKPOINT``).

        ``watermarks`` is keyed by child link id — the owner translates
        link identities into rank sets before shipping, since a link id
        is meaningless outside this process.  ``transform`` (and
        ``sync``, when contributions are parked) appear only when the
        filter's state serializes cleanly; checkpointing is always
        best-effort and never fails the data path.
        """
        doc = {
            "out_wave": self._out_wave,
            "epoch": self.membership_epoch,
            "watermarks": dict(self._in_high),
        }
        try:
            doc["transform"] = self.transform.get_state(self.transform_state)
        except Exception as exc:  # noqa: BLE001 - best-effort by design
            log.debug(
                "stream %d: transform state not checkpointable: %s",
                self.stream_id, exc,
            )
        if self.sync.pending:
            try:
                doc["sync"] = self.sync.get_state()
            except Exception as exc:  # noqa: BLE001
                log.debug(
                    "stream %d: sync state not checkpointable: %s",
                    self.stream_id, exc,
                )
        return doc

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a dead node's :meth:`checkpoint_state` filter state.

        Applied only while this node's own transform state is pristine
        (no wave has released here yet): an adopter that has already
        aggregated waves owns its state, and a stale checkpoint must
        not clobber it.  Watermark seeding is separate — see
        :meth:`seed_watermark`, keyed by the adopter's own link ids.
        """
        transform = snapshot.get("transform")
        if transform is None or self._state_dirty:
            return
        try:
            self.transform.set_state(self.transform_state, transform)
            self.transform_state.setdefault(
                "n_children", len(self.child_links)
            )
        except Exception as exc:  # noqa: BLE001
            log.debug(
                "stream %d: checkpoint restore skipped: %s",
                self.stream_id, exc,
            )

    def _count_chunks_in_flight(self) -> int:
        n = sum(
            1 for q in self._chunk_queues.values() for p in q if is_chunk(p)
        )
        n += sum(ra.pending for ra in self._reassemblers.values())
        return n

    def _run_waves(self, waves) -> List[Packet]:
        out: List[Packet] = []
        tracer = self._owner.tracer if self._owner is not None else None
        for wave in waves:
            self._state_dirty = True
            released = self._clock()
            if self._wave_t0 is not None:
                self._h_wave_latency.observe(released - self._wave_t0)
                if tracer is not None:
                    tracer.span(
                        "sync_wait",
                        self._wave_t0,
                        released,
                        self.stream_id,
                        detail=self.sync.name,
                    )
                self._wave_t0 = None
            if tracer is None:
                out.extend(self.transform(wave, self.transform_state))
            else:
                t0 = tracer.span_start()
                out.extend(self.transform(wave, self.transform_state))
                tracer.span_end(
                    "filter", t0, self.stream_id, detail=self.transform.name
                )
            self._note_wave_released()
        return out

    # -- downstream --------------------------------------------------------

    def transform_downstream(self, packet: Packet) -> List[Packet]:
        """Apply the downstream transformation filter, if bound.

        Downstream flows have no synchronization stage (§2.3: "First,
        synchronization filters are not supported for downstream data
        flows").
        """
        if self.down_transform is None:
            return [packet]
        return self.down_transform([packet], self.down_state)

    # -- misc -----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Packets currently held back (sync filter, chunk queues and
        per-link fragment reassembly)."""
        if self.incremental:
            return sum(len(q) for q in self._chunk_queues.values())
        return self.sync.pending + sum(
            ra.pending for ra in self._reassemblers.values()
        )

    def next_deadline(self) -> Optional[float]:
        """Earliest clock time a time-based criterion could fire."""
        if self.closed:
            return None
        return self.sync.next_deadline()

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"StreamManager(stream={self.stream_id}, "
            f"endpoints={sorted(self.endpoints)}, links={self.child_links}, "
            f"sync={self.sync.name}, transform={self.transform.name})"
        )
