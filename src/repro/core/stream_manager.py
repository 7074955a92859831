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

Wave state has three owners
---------------------------

* The **aligner** — the stream's synchronization filter
  (:mod:`repro.filters.sync`) — holds the per-link FIFOs of parked
  units and the joining/leaving sets.  Whole packets and pipeline
  fragments park in the same queues; every wave leaves via ``pop_wave``.
* The **send half** (:class:`~repro.core.chunking.SendWindow`) holds
  this node's output wave counter and, under repair
  (``keep_history``), its bounded retransmit history.
* The **receive half** (:class:`~repro.core.chunking.ReceiveWindow`,
  keyed by child link) holds fragment reassembly, duplicate drop (a
  fragment at or below the last one admitted on its link), and the
  watermark of *aggregated* waves that ``checkpoint_state`` ships.  A
  link's watermark advances when the aligner *releases* its wave into
  the filter, not when the last fragment arrives, so a wave parked
  behind a slow sibling when this node dies is still in its sender's
  history and below no watermark an adopter could seed.  A release
  that moved a watermark sets ``deposit_due``; under repair the owner
  ships the deposit right behind that release's outputs.

Chunked waves (pipelined collectives)
-------------------------------------

Streams created with ``chunk_bytes > 0`` carry large array payloads as
``TAG_CHUNK`` fragments.  When the transform is *chunkwise* (min/max/
sum/avg) and the synchronizer is Wait-For-All, the filter runs
**incrementally**: once the head of every participating link is the
same ``(chunk_index, n_chunks)`` the heads are popped — restricted to
the links that opened the wave — into a partial filter invocation
whose output is re-framed as a fragment of this node's own output wave
and forwarded.  Hop *k* thus reduces chunk *i* while hop *k−1* reduces
chunk *i+1*, which flattens Figure 7c's latency-vs-depth curve (Träff,
arXiv:2109.12626).  Mixed or unevenly fragmented heads, and every small
packet on such a stream, take the boundary fallback: complete fragment
runs are rebuilt in place and a classic whole wave is popped.  Every
other configuration reassembles fragments per link before they park,
so chunked and whole-wave results are identical by construction.  A
child that dies mid-wave poisons only the in-flight wave
(``chunk_waves_aborted``); the next one realigns over the
survivors, and the output wave id bumps without emitting, so
gaps in wave ids are *normal* to every receiver.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..filters.base import FunctionFilter
from ..filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_TIMEOUT,
    TFILTER_NULL,
    FilterRegistry,
)
from ..filters.sync import SynchronizationFilter, WaitForAllFilter
from ..obs.metrics import MetricsRegistry
from .chunking import (
    ReceiveWindow,
    SendWindow,
    chunk_meta,
    is_chunk,
    reassemble,
    strip_chunk,
    wrap_chunk,
)
from .packet import Packet
from .protocol import WAVE_REDUCE

__all__ = ["StreamManager", "CHUNK_BYTE_BUCKETS"]

#: Power-of-two byte buckets for the per-stream ``chunk_bytes``
#: histogram (1 KiB .. 16 MiB covers every sane fragment size).
CHUNK_BYTE_BUCKETS = tuple(1 << p for p in range(10, 25))


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
        # How many times this node re-shaped the stream's wave (a link
        # dropped, adopted or retired; endpoints spliced).  Local: the
        # tree's membership epoch is stamped at the front-end (see
        # TAG_RANKS_CHANGED).
        self.membership_epoch = 0
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
            "Times this node re-shaped the stream's wave (a child link "
            "dropped, adopted or retired; endpoints spliced)",
            fn=lambda: self.membership_epoch,
            stream=stream_id,
        )
        # Armed by the first packet that opens a wave; cleared when a
        # wave releases.  One attribute test per pushed packet, one
        # clock read per wave — cheap enough to stay always-on.
        self._wave_t0: Optional[float] = None
        # -- wave state: the aligner is ``self.sync``; the two halves of
        # the link protocol (the receive half also catches fragments on
        # streams whose own chunk_bytes is 0, e.g. from a newer peer).
        self._out = SendWindow()
        self._in = ReceiveWindow()
        # Record sent fragments for replay; the owner clears it off repair.
        self.keep_history = True
        # Cursor of the in-flight aligned fragmented wave.
        self._wave_links: List[object] = []  # fixed participant set mid-wave
        self._wave_pos = 0  # next expected chunk index (0 = at a boundary)
        self._wave_n = 0  # fragment count of the in-flight aligned wave
        # Sequenced whole units parked in the aligner, ``id(unit) ->
        # (link, wave id)``: a reassembled wave counts as aggregated —
        # its watermark moves — when the aligner releases it, not before.
        self._sequenced: Dict[int, Tuple[object, int]] = {}
        if self.chunk_bytes > 0:
            registry.gauge(
                "chunks_in_flight",
                "Pipeline fragments currently buffered for this stream "
                "(aligned-release queues plus per-link reassembly)",
                fn=self._count_chunks_in_flight,
                stream=stream_id,
            )
            registry.gauge(
                "history_bytes", "Fragment bytes held for replay (repair only)",
                fn=lambda: self._out._bytes, stream=stream_id,
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
        # Set when a released wave moved a watermark; the owner clears
        # it when it queues the deposit behind that wave's outputs.
        self.deposit_due = False
        self._c_waves_recovered = registry.counter(
            "waves_recovered",
            "Output waves replayed from the retransmit history onto a "
            "repaired parent link",
            stream=stream_id,
        )
        self._c_chunks_retx = registry.counter(
            "chunks_retransmitted",
            "Pipeline fragments replayed from the retransmit history "
            "onto a repaired parent link",
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
        """Instantiate filters from registry ids (a stream spec's fields)."""
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
        if is_chunk(packet):
            # Sequence gate: a replay overlapping what the link already
            # carried is dropped (see ReceiveWindow.admit).
            if not self._in.admit(link_id, packet):
                return []
            if self._h_chunk_bytes is not None:
                self._h_chunk_bytes.observe(packet.nbytes)
            if not self.incremental:
                # Rebuild the whole packet from this child's fragment
                # sequence, then run the classic wave path — chunked
                # and whole-wave results are identical by construction.
                wave_id = chunk_meta(packet)[0]
                aborted = self._in.discarded_waves
                packet = self._in.add(link_id, packet)
                if self._c_chunk_aborts is not None:
                    self._c_chunk_aborts.value += self._in.discarded_waves - aborted
                if packet is None:
                    return []
                self._sequenced[id(packet)] = (link_id, wave_id)
        if self._wave_t0 is None:
            self._wave_t0 = self._clock()
        if not self.incremental:
            # The sync filter may park the packet across receive cycles.
            waves = self.sync.push(link_id, packet.materialize())
            return self._emit_up(self._run_waves(waves))
        q = self.sync.queue(link_id)
        q.append(packet)
        out = self._release_aligned()
        if q and q[-1] is packet:
            # Not consumed this cycle: the fragment parks until its
            # siblings arrive, so it must own its bytes (zero-copy shm
            # frames alias ring memory that is about to be recycled).
            packet.materialize()
        return out

    def watermark(self, link_id: object) -> int:
        """Highest input wave id aggregated from *link_id* (-1: none)."""
        return self._in.watermarks.get(link_id, -1)

    def seed_watermark(self, link_id: object, wave_id: int) -> None:
        """Pre-set a link's dedup watermark from a checkpoint.

        Called when adopting an orphan whose dead parent had already
        aggregated waves up to *wave_id*: the orphan's post-repair
        replay of those waves must be dropped, not re-aggregated.
        """
        self._in.seed_watermark(link_id, wave_id)

    def poll_upstream(self) -> List[Packet]:
        """Re-check time-based synchronization criteria."""
        return [] if self.closed else self._release()

    def _release(self) -> List[Packet]:
        """Everything the aligner can release right now, filtered."""
        if self.incremental:
            return self._release_aligned()
        return self._emit_up(self._run_waves(self.sync.poll()))

    def _note_aggregated(self, link_id: object, wave_id: int) -> None:
        """*link_id*'s wave left the aligner: its watermark moves up."""
        self.deposit_due = True
        self._in.release(link_id, wave_id)

    def drop_link(self, link_id: int) -> List[Packet]:
        """A child link closed: discard its state, realign the rest.

        The dead child's whole-packet backlog is released through the
        filter best-effort.  Its parked fragments are unusable partial
        state — they are discarded, and if the child was taking part in
        the in-flight fragmented wave that wave is aborted (every
        sibling's fragments for it are dropped too), so the next wave
        realigns cleanly over the survivors.
        """
        self.membership_epoch += 1
        self._in.drop(link_id)
        backlog = self.sync.remove_child(link_id)
        if link_id in self.child_links:
            self.child_links.remove(link_id)
        whole = [p for p in backlog if not is_chunk(p)]
        for p in whole:
            self._sequenced.pop(id(p), None)
        if self._wave_pos > 0 and link_id in self._wave_links:
            self._abort_wave()
        elif len(whole) < len(backlog) and self._c_chunk_aborts is not None:
            self._c_chunk_aborts.value += 1
        out: List[Packet] = []
        if whole:
            out = self._emit_up(list(self.transform(whole, self.transform_state)))
        return out + self._release()

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
        self.membership_epoch += 1

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
        self.membership_epoch += 1
        self.sync.retire_child(link_id)

    def add_endpoints(self, ranks: Sequence[int]) -> None:
        """Splice joining back-end ranks into the endpoint set (TAG_JOIN).

        Counts a re-shape even when the join rides an already known
        child link (the splice point is deeper in the tree): any change
        to *who* a wave covers is a new generation of the wave.
        """
        grown = self.endpoints | frozenset(ranks)
        if grown != self.endpoints:
            self.endpoints = grown
            self.membership_epoch += 1

    def remove_endpoints(self, ranks: Sequence[int]) -> None:
        """Retire departed back-end ranks (TAG_LEAVE or degrade)."""
        shrunk = self.endpoints - frozenset(ranks)
        if shrunk != self.endpoints:
            self.endpoints = shrunk
            self.membership_epoch += 1

    def flush_upstream(self) -> List[Packet]:
        """Stream teardown: push every held packet through the filter.

        Whole packets flush positionally (the i-th remaining unit of
        each child forms wave i); fragments of incomplete waves are
        discarded — a partial array slice is not a usable contribution.
        """
        if self._wave_pos > 0:
            self._abort_wave()
        waves = (
            [p for p in wave if not is_chunk(p)] for wave in self.sync.flush()
        )
        return self._emit_up(self._run_waves([w for w in waves if w]))

    # -- incremental (per-chunk) pipeline ---------------------------------

    def _release_aligned(self) -> List[Packet]:
        """Drain every releasable aligned fragment / whole wave."""
        out: List[Packet] = []
        while True:
            released = self._try_release()
            if released is None:
                return out
            out.extend(released)

    def _drop_stale_tails(self) -> None:
        """Drop head fragments left by an aborted wave (a fragment
        sequence must start at index 0)."""
        for lid in self.child_links:
            q = self.sync.queue(lid)
            while q and is_chunk(q[0]) and chunk_meta(q[0])[1] != 0:
                q.popleft()

    def _try_release(self) -> Optional[List[Packet]]:
        if self._wave_pos > 0:
            return self._release_next_chunk()
        self._drop_stale_tails()
        heads = self.sync.heads()
        if heads is None:
            return None
        if all(is_chunk(h) for h in heads.values()):
            counts = {chunk_meta(h)[2] for h in heads.values()}
            if len(counts) == 1:
                # Uniformly fragmented: open an aligned incremental wave
                # over exactly the links that have a head now.
                self._wave_links = list(heads)
                self._wave_n = counts.pop()
                return self._release_next_chunk()
        return self._release_reassembled(list(heads))

    def _release_next_chunk(self) -> Optional[List[Packet]]:
        """Release fragment ``_wave_pos`` of the in-flight aligned wave."""
        index, n = self._wave_pos, self._wave_n
        for lid in self._wave_links:
            q = self.sync.queue(lid)
            if not q:
                return None  # wait for this link's fragment
            if not is_chunk(q[0]) or chunk_meta(q[0])[1:3] != (index, n):
                # Truncated/restarted sequence (mid-wave fault below us):
                # poison the whole in-flight wave and realign.
                self._abort_wave()
                return []
        last = index + 1 >= n
        heads = self.sync.pop_wave(self._wave_links, graduate=last)
        tracer = self._owner.tracer if self._owner is not None else None
        outputs = self._filter(
            [strip_chunk(head) for head in heads], tracer, f"#{index}"
        )
        if index == 0 and tracer is not None and self._wave_t0 is not None:
            # The pipeline is primed: first partial result leaves while
            # later fragments are still arriving (Figure 3 hop overlap).
            tracer.span(
                "pipeline_fill",
                self._wave_t0,
                self._clock(),
                self.stream_id,
                detail=f"n={n}",
            )
        out = [wrap_chunk(p, self._out.wave, index, n) for p in outputs]
        if self.keep_history:
            for p in out:
                self._out.record(p)
        if last:
            if self._wave_t0 is not None:
                self._h_wave_latency.observe(self._clock() - self._wave_t0)
                self._wave_t0 = None
            self._c_waves_released.value += 1
            for lid, head in zip(self._wave_links, heads):
                self._note_aggregated(lid, chunk_meta(head)[0])
            self._out.wave += 1
            self._wave_pos = 0
            self._wave_n = 0
            self._wave_links = []
        else:
            self._wave_pos = index + 1
        return out

    def _release_reassembled(self, links: List[object]) -> Optional[List[Packet]]:
        """Boundary fallback: mixed whole/fragment (or unevenly
        fragmented) heads.  Wait until every participant has one
        complete unit queued, the fragmented ones rebuilt in place,
        then pop a classic whole wave."""
        for lid in links:
            if not self._whole_head(lid):
                return None
        return self._emit_up(self._run_waves([self.sync.pop_wave(links)]))

    def _whole_head(self, link_id: object) -> bool:
        """Make *link_id*'s head unit whole, rebuilding a complete
        fragment run in place; ``False`` while the run is still arriving."""
        q = self.sync.queue(link_id)
        while q and is_chunk(q[0]):
            wave_id, _index, n, _tag = chunk_meta(q[0])
            have = min(n, len(q))
            run = 1
            while (
                run < have
                and is_chunk(q[run])
                and chunk_meta(q[run])[:2] == (wave_id, run)
            ):
                run += 1
            if run < have:
                # Queues are FIFO, so an already-arrived fragment that
                # breaks the sequence means the sender restarted — the
                # partial prefix can never complete.  Drop it eagerly
                # (waiting on it would deadlock behind a finished new
                # wave) and re-examine the new head.
                for _ in range(run):
                    q.popleft()
                if self._c_chunk_aborts is not None:
                    self._c_chunk_aborts.value += 1
            elif run < n:
                return False  # complete set not yet arrived
            else:
                whole = reassemble([q.popleft() for _ in range(n)])
                self._sequenced[id(whole)] = (link_id, wave_id)
                q.appendleft(whole)
        return bool(q)

    def _abort_wave(self) -> None:
        """Poison the in-flight aligned wave: drop every participant's
        remaining fragments for it and realign at the next boundary."""
        if self._c_chunk_aborts is not None:
            self._c_chunk_aborts.value += 1
        self._drop_stale_tails()
        self._wave_pos = 0
        self._wave_n = 0
        self._wave_links = []
        self._wave_t0 = None
        # The node's own output sequence restarts too: bump the output
        # wave id so downstream reassembly discards the truncated wave.
        self._out.wave += 1

    def _emit_up(self, packets: List[Packet]) -> List[Packet]:
        """Split oversized whole outputs so upstream hops stay pipelined,
        recording the fragments in the send window (whole packets carry
        no wire sequence number and are not replayable)."""
        if not self.chunk_bytes:
            return packets
        out: List[Packet] = []
        for p in packets:
            chunks = self._out.split(p, self.chunk_bytes)
            if chunks is None:
                out.append(p)
                continue
            if self.keep_history:
                for chunk in chunks:
                    self._out.record(chunk)
            out.extend(chunks)
        return out

    def resend_since(self, wave_seq: int = -1) -> List[Packet]:
        """Replay every buffered output wave newer than *wave_seq*.

        The post-repair resend path: returns the fragments in original
        emission order for the owner to queue onto the new parent link.
        Waves the bounded history has already aged out are silently
        skipped — the parent's reassembler realigns on the next
        boundary and the loss shows up in ``chunk_waves_aborted`` there
        instead.
        """
        out = self._out.resend_since(wave_seq)
        self._c_waves_recovered.value = self._out.waves_replayed
        self._c_chunks_retx.value = self._out.chunks_replayed
        return out

    def checkpoint_state(self) -> dict:
        """This node's per-stream deposit (``TAG_CHECKPOINT``).

        ``watermarks`` is keyed by child link id — the owner translates
        link identities into rank sets before shipping, since a link id
        is meaningless outside this process.  Units parked in the
        aligner are not shipped: the sequenced ones are below no
        watermark, so their senders replay them.
        """
        return {
            "out_wave": self._out.wave,
            "watermarks": dict(self._in.watermarks),
        }

    def _count_chunks_in_flight(self) -> int:
        parked = sum(
            is_chunk(p) for lid in self.child_links for p in self.sync.queue(lid)
        )
        return parked + self._in.pending

    def _run_waves(self, waves) -> List[Packet]:
        out: List[Packet] = []
        tracer = self._owner.tracer if self._owner is not None else None
        for wave in waves:
            if self._sequenced:
                for p in wave:
                    sequenced = self._sequenced.pop(id(p), None)
                    if sequenced is not None:
                        self._note_aggregated(*sequenced)
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
            out.extend(self._filter(wave, tracer))
            self._c_waves_released.value += 1
        return out

    def _filter(self, wave, tracer, part: str = ""):
        """Run the upstream transform on *wave* (one ``filter`` span)."""
        if tracer is None:
            return self.transform(wave, self.transform_state)
        t0 = tracer.span_start()
        outputs = self.transform(wave, self.transform_state)
        tracer.span_end(
            "filter", t0, self.stream_id, detail=self.transform.name + part
        )
        return outputs

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
        """Units currently held back (parked in the aligner, plus
        fragments in per-link reassembly)."""
        return self.sync.pending + self._in.pending

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
