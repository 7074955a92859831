"""Tool back-ends (paper §2.2, Figure 2's ``back_end_main``).

A :class:`BackEnd` is the leaf-side library: it connects to the MRNet
tree (``MR_Network::init_backend``), receives packets with a
*stream-anonymous* ``recv`` that returns both the data and a stream
handle, and sends packets upstream on those handles.

Back-ends are passive objects: they process their inbox from whichever
thread calls :meth:`recv`/:meth:`poll`, so a test or example can drive
hundreds of back-ends from one thread (the GIL would serialise
per-back-end threads anyway — see DESIGN.md).
"""

from __future__ import annotations

import queue
import time
from collections import deque
from typing import Any, Dict, Optional, Tuple

from ..transport.channel import ChannelEnd, Inbox
from ..transport.eventloop import SendQueueFull
from .batching import decode_batch, encode_batch
from .chunking import ReceiveWindow, SendWindow
from .failure import RanksChanged
from .packet import Packet, PacketDecodeError
from .protocol import (
    CONTROL_STREAM_ID,
    FIRST_APP_TAG,
    TAG_CHUNK,
    TAG_CLOSE_STREAM,
    TAG_NEW_STREAMS,
    TAG_RANKS_CHANGED,
    TAG_SHUTDOWN,
    check_control,
    make_endpoint_report,
    make_join,
    make_leave,
    parse_new_streams,
)

__all__ = ["BackEnd", "BackEndStream", "NetworkShutdown"]


class NetworkShutdown(ConnectionError):
    """Raised by back-end operations after the network shut down."""


class BackEndStream:
    """Back-end-side handle for one stream.

    ``chunk_bytes`` is learned from the stream's NEW_STREAMS
    announcement: when set, array payloads above the threshold leave as
    pipeline fragments, each in its own transport frame so upstream
    hops can start reducing before the last fragment is even sent.
    """

    def __init__(self, backend: "BackEnd", stream_id: int, chunk_bytes: int = 0):
        self._backend = backend
        self.stream_id = stream_id
        self.chunk_bytes = chunk_bytes
        self.closed = False
        # Send half of the link protocol (crash consistency): fragment
        # wave ids plus the bounded replay history (repair only),
        # replayed onto the new parent link after a repair.
        self._window = SendWindow()

    def send(
        self, fmt: str, *values: Any, tag: int = FIRST_APP_TAG, flush: bool = True
    ) -> None:
        """Send a packet upstream toward the front-end.

        With ``flush=False`` the packet is buffered locally (MRNet's
        ``Stream::Send``/``Stream::Flush`` split): a later
        :meth:`BackEnd.flush` ships everything buffered as one batched
        message, one syscall instead of one per packet.
        """
        if self.closed:
            raise NetworkShutdown(f"stream {self.stream_id} is closed")
        # copy=False: ndarray values are cast into the frame(s) straight
        # from the caller's array, before this returns either way.
        packet = Packet(
            self.stream_id, tag, fmt, values, self._backend.rank, copy=False
        )
        self._send_maybe_chunked(packet, buffered=not flush)

    def send_packet(self, packet: Packet) -> None:
        if self.closed:
            raise NetworkShutdown(f"stream {self.stream_id} is closed")
        if packet.stream_id != self.stream_id:
            raise ValueError("packet stream id mismatch")
        self._send_maybe_chunked(packet, buffered=False)

    def _send_maybe_chunked(self, packet: Packet, buffered: bool) -> None:
        send = self._backend._buffer_upstream if buffered else self._backend._send_upstream
        chunks = self._window.split(packet, self.chunk_bytes)
        if chunks is None:
            send(packet)
            return
        for chunk in chunks:
            # One frame per fragment: the parent starts on fragment 0
            # while we are still encoding the rest.  Under repair a
            # fragment is recorded only *after* its send succeeded, so a
            # repair that fires mid-wave replays exactly the sent prefix
            # and the retry of the failing fragment continues the sequence.
            send(chunk)
            if self._backend.repair_fn is not None:
                self._window.record(chunk)

    def __repr__(self) -> str:
        return f"BackEndStream(id={self.stream_id}, rank={self._backend.rank})"


class BackEnd:
    """One tool back-end attached to a leaf slot of the MRNet tree."""

    def __init__(self, rank: int, name: str, parent: ChannelEnd, inbox: Inbox):
        self.rank = rank
        self.name = name
        self._parent = parent
        self._inbox = inbox
        self._streams: Dict[int, BackEndStream] = {}
        # Down-broadcast (reduce-to-all) fragments are reassembled into
        # whole packets before delivery, keyed (stream, origin) since
        # fragment order is only guaranteed per sender.
        self._down = ReceiveWindow()
        self._pending: deque[Tuple[Packet, BackEndStream]] = deque()
        self._out: list[Packet] = []
        self.connected = False
        self.shut_down = False
        # Tree repair (repair policy only): invoked when the parent
        # link dies without a preceding SHUTDOWN; returns a new parent
        # ChannelEnd toward a live ancestor, or None to give up.
        self.repair_fn = None
        self.reconnects = 0
        self._repairing = False
        # True after a voluntary leave(): the detach was announced, so
        # teardown is expected rather than a network failure.
        self.left = False
        # Parent links this back-end closed for a malformed frame.
        self._cut_links: set[int] = set()
        # Fragments replayed from stream histories after a repair.
        self.chunks_retransmitted = 0
        # The front-end's stamped TAG_RANKS_CHANGED flood, oldest
        # first: one entry per membership change of the tree, so
        # surviving back-ends observe peers joining, leaving, dying.
        self.membership_events: list[RanksChanged] = []

    # -- lifecycle ------------------------------------------------------------

    def connect(self) -> None:
        """Join the network: report this end-point upstream (§2.5)."""
        if not self.connected:
            self.connected = True
            self._send_raw(make_endpoint_report([self.rank]))

    def join(self, stream_ids=()) -> None:
        """Join a *running* network as a brand-new rank.

        Where :meth:`connect` replays the instantiation-time §2.5
        end-point report for a topology-reserved leaf, ``join``
        announces a rank the topology never knew: every ancestor hop
        splices this back-end into its routing table and into the
        listed streams with joining (grace) semantics, so the rank's
        contributions enter reductions at the next wave-epoch boundary.
        """
        if not self.connected:
            self.connected = True
            self._send_raw(make_join(self.rank, sorted(stream_ids)))

    def register_stream(self, stream_id: int, chunk_bytes: int = 0) -> BackEndStream:
        """Get or create a stream's handle; an existing one adopts the knob.

        Called for every NEW_STREAMS announcement naming this rank
        (a handle synthesised by racing data just adopts the knob), and
        by the front-end to pre-seed a joining back-end, which missed
        the broadcasts that created the streams it is entering.
        """
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = self._streams[stream_id] = BackEndStream(
                self, stream_id, chunk_bytes=chunk_bytes
            )
        else:
            stream.chunk_bytes = chunk_bytes
        return stream

    # -- receiving ---------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[Tuple[Packet, BackEndStream]]:
        """Stream-anonymous receive (Figure 2's ``MR_Stream::recv``).

        Returns ``(packet, stream)`` for the next data packet, or
        ``None`` once the network has shut down.  Raises
        ``TimeoutError`` if *timeout* elapses with no packet.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._pending:
                return self._pending.popleft()
            if self.shut_down:
                return None
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"back-end {self.rank} recv timed out"
                    )
            try:
                link_id, payload = self._inbox.get(timeout=remaining)
            except queue.Empty:
                raise TimeoutError(f"back-end {self.rank} recv timed out") from None
            self._ingest(link_id, payload)

    def poll(self) -> Optional[Tuple[Packet, BackEndStream]]:
        """Non-blocking receive; drains the inbox, returns next packet or None."""
        while True:
            if self._pending:
                return self._pending.popleft()
            if self.shut_down:
                return None
            try:
                link_id, payload = self._inbox.get_nowait()
            except queue.Empty:
                return None
            self._ingest(link_id, payload)

    def get_stream(self, stream_id: int) -> BackEndStream:
        """The handle for a stream already announced to this back-end."""
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(
                f"stream {stream_id} unknown at back-end {self.rank}"
            ) from None

    @property
    def stream_ids(self) -> Tuple[int, ...]:
        return tuple(self._streams)

    # -- internals ------------------------------------------------------------

    def _ingest(self, link_id: int, payload: Optional[bytes]) -> None:
        if link_id in self._cut_links:
            return  # a parent cut for a malformed frame: all of it is stale
        if payload is not None:
            try:
                self._dispatch(payload)
                return
            except PacketDecodeError:
                # Bytes from the parent are untrusted too: a malformed
                # frame ends the link as its EOF would, never the
                # tool's recv().  Packets before it were delivered.
                self._cut_links.add(link_id)
                if link_id == self._parent.link_id:
                    self._parent.close()
        if link_id != self._parent.link_id:
            # A link that is no longer our parent — a stale delivery
            # from before a repair.  Ignore it.
            return
        # Parent link died.  An orderly teardown announces itself
        # with TAG_SHUTDOWN first, so an unannounced EOF (or a cut)
        # here means the parent *crashed* or misbehaved — reconnect to
        # a live ancestor if a repair path was configured.
        if not self.shut_down and self._repair_parent():
            return
        self._mark_shutdown()

    def _dispatch(self, payload) -> None:
        for packet in decode_batch(payload):
            if packet.stream_id == CONTROL_STREAM_ID:
                self._handle_control(packet)
            else:
                stream = self._streams.get(packet.stream_id)
                if stream is None:
                    # Data raced ahead of NEW_STREAMS (cannot happen on
                    # FIFO links, but stay safe): synthesise the handle.
                    stream = self.register_stream(packet.stream_id)
                if packet.tag == TAG_CHUNK:
                    packet = self._down.add(
                        (packet.stream_id, packet.origin_rank), packet
                    )
                    if packet is None:
                        continue
                self._pending.append((packet.materialize(), stream))

    def _handle_control(self, packet: Packet) -> None:
        check_control(packet)
        if packet.tag == TAG_NEW_STREAMS:
            # Register a handle for every announced stream whose
            # (deduplicated) endpoint group contains this rank.
            groups, specs = parse_new_streams(packet)
            for stream_id, gidx, _sync, _trans, _timeout, _down, chunk_bytes, _pattern in specs:
                if self.rank in groups[gidx]:
                    self.register_stream(stream_id, chunk_bytes or 0)
        elif packet.tag == TAG_CLOSE_STREAM:
            (stream_id,) = packet.unpack()
            stream = self._streams.pop(stream_id, None)
            if stream is not None:
                stream.closed = True
            self._down.drop_stream(stream_id)
        elif packet.tag == TAG_SHUTDOWN:
            self._mark_shutdown()
        elif packet.tag == TAG_RANKS_CHANGED:
            self.membership_events.append(RanksChanged(*packet.unpack()))
        # Other control traffic (e.g. TAG_HEARTBEAT probes from a
        # liveness-enabled parent) is consumed silently: back-ends are
        # passive and answer liveness with their data traffic.

    def _repair_parent(self) -> bool:
        """Reconnect to a live ancestor after an unannounced EOF."""
        if self.repair_fn is None or self._repairing:
            return False
        self._repairing = True
        try:
            try:
                new_parent = self.repair_fn()
            except Exception:
                new_parent = None
            if new_parent is None:
                return False
            self._parent = new_parent
            self.reconnects += 1
            try:
                # Re-announce this end-point through the new edge: the
                # adopter's routing table and stream membership update
                # from this report (the §2.5 protocol reused for repair).
                self._send_raw(make_endpoint_report([self.rank]))
            except NetworkShutdown:
                return False
            # Crash-consistent waves: replay every fragment wave
            # history holds, after the report (report-before-data
            # invariant).  The new parent's dedup watermark — seeded
            # from our dead parent's checkpoint when one exists — drops
            # whatever the old parent already forwarded upstream.
            self._replay()
            return True
        finally:
            self._repairing = False

    def _replay(self) -> None:
        """Best-effort re-send of every stream's buffered fragment waves."""
        for stream in self._streams.values():
            for chunk in stream._window.resend_since():
                try:
                    self._send_raw(chunk)
                except (NetworkShutdown, ConnectionError):
                    return
                self.chunks_retransmitted += 1

    def leave(self) -> None:
        """Gracefully detach from a running network (elastic membership).

        Flushes any locally buffered sends, announces ``TAG_LEAVE`` so
        every ancestor retires this rank at a wave-epoch boundary
        (queued contributions still ride the next waves), then closes
        the uplink.  The back-end is unusable afterwards; unlike a
        crash, no repair or degrade accounting fires anywhere — the
        EOF that follows the announcement is expected.
        """
        if self.left or self.shut_down:
            self.left = True
            return
        self.left = True
        try:
            self.flush()
        except (NetworkShutdown, ConnectionError):
            pass
        if self.connected:
            try:
                self._send_raw(make_leave(self.rank))
            except (NetworkShutdown, ConnectionError):
                pass
        self._mark_shutdown()

    def _mark_shutdown(self) -> None:
        self.shut_down = True
        for stream in self._streams.values():
            stream.closed = True
        # Release the uplink eagerly: a shared-memory end holds kernel
        # segments that only disappear when some process closes them,
        # and after SHUTDOWN nobody else will.
        try:
            self._parent.close()
        except Exception:
            pass

    def _send_upstream(self, packet: Packet) -> None:
        self._check_sendable()
        self._send_raw(packet)

    def _buffer_upstream(self, packet: Packet) -> None:
        self._check_sendable()
        packet.encoded_view()  # the wire snapshot, taken before send() returns
        self._out.append(packet)

    def flush(self) -> None:
        """Ship all packets buffered by ``send(..., flush=False)``.

        Everything buffered since the last flush leaves as one batched
        message regardless of stream, preserving per-stream FIFO order.
        """
        if not self._out:
            return
        packets, self._out = self._out, []
        self._send_batch(packets)

    def _check_sendable(self) -> None:
        if self.shut_down:
            raise NetworkShutdown(f"back-end {self.rank}: network is down")
        if not self.connected:
            raise NetworkShutdown(
                f"back-end {self.rank} must connect() before sending"
            )

    def _send_raw(self, packet: Packet) -> None:
        self._send_batch([packet])

    def _send_batch(self, packets: list[Packet]) -> None:
        try:
            self._parent.send(encode_batch(packets))
            return
        except SendQueueFull as exc:
            # The payload outgrew the link's bounded send queue.  With
            # chunking enabled oversized sends are split before they get
            # here, so point at the knob instead of just failing.
            raise SendQueueFull(
                f"{exc}; payload too large for the uplink's send-queue "
                f"bound — create the stream with chunk_bytes=<n> to split "
                f"large sends into pipeline fragments"
            ) from exc
        except ConnectionError:
            pass
        # The EOF that announces a crashed parent can be queued behind
        # data, so the first sign of death may be this send failing.
        # Repair (if configured) and retry the batch once on the new
        # edge before declaring the network down.
        if not self.shut_down and not self._repairing and self._repair_parent():
            try:
                self._parent.send(encode_batch(packets))
                return
            except ConnectionError:
                pass
        self._mark_shutdown()
        raise NetworkShutdown(
            f"back-end {self.rank}: connection closed"
        ) from None

    def __repr__(self) -> str:
        return f"BackEnd(rank={self.rank}, name={self.name!r})"
