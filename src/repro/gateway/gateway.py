"""The front-end serving gateway.

One :class:`Gateway` owns a front-end :class:`repro.core.Network` and
multiplexes many independent client sessions onto shared streams
(ROADMAP item 4; the paper's Figure 9 workload).  The division of
labour:

* **client threads** call :meth:`GatewaySession.submit` — admission
  control, cache lookup, and coalescing joins happen right there
  under the gateway lock, O(1), no tree traffic.  Leaders (queries
  that need a wave) are queued per-session.
* **the driver thread** — the network's sole owner — drains leaders
  round-robin across sessions (one wave per session per round: a
  firehose client cannot starve a trickle client), issues each as a
  multicast on the stream for its config, pumps the network, and
  fans completed waves out through the delivery sink installed with
  :meth:`repro.core.stream.Stream.set_sink`.

Wave↔result matching needs no sequence numbers: under Wait-For-All
synchronization the root releases exactly one aggregate per issued
wave in FIFO order per stream, so a per-stream deque of in-flight
entries pairs them up.  The stream's ``on_membership_change`` hook
reports every tree-epoch change, so results that straddle a join,
leave or death anywhere in the tree are delivered to their waiters
but never cached (see :mod:`repro.gateway.coalesce`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.network import NetworkDownError
from ..core.packet import Packet
from ..transport.eventloop import SendQueueFull
from .admission import AdmissionController, GatewayError, Overloaded, TokenBucket
from .coalesce import CoalescingCache, InflightEntry
from .query import Query
from .session import GatewaySession, Ticket

__all__ = ["Gateway", "PeriodicPoller"]


class Gateway:
    """Serve many client sessions over one front-end network.

    Parameters
    ----------
    network:
        A ready :class:`repro.core.Network`.  The gateway's driver
        thread becomes its sole pumper; don't call blocking receives
        on it concurrently (use :meth:`paused` for maintenance).
    rate, burst:
        Token-bucket admission: sustained waves/second and burst
        allowance.  ``rate=None`` (default) disables rate limiting.
    max_pending:
        Bound on queued-but-unissued leader queries; submissions past
        it shed with ``Overloaded("queue")``.
    max_inflight:
        How many waves may be outstanding in the tree at once; extra
        leaders wait in the submit queue (pacing, not shedding).
    cache_ttl:
        Result-cache lifetime in seconds; 0 disables result caching
        (in-flight coalescing still works).
    autostart:
        Start the driver thread immediately (default).  Pass False in
        tests that drive :meth:`step` by hand.
    """

    DRIVER_WAIT = 0.002  # max blocking wait per pump when idle (seconds)

    def __init__(
        self,
        network,
        *,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_pending: int = 1024,
        max_inflight: int = 64,
        cache_ttl: float = 0.5,
        autostart: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.network = network
        self._clock = clock
        self.admission = AdmissionController(
            max_pending, TokenBucket(rate, burst, clock) if rate else None
        )
        self.cache = CoalescingCache(cache_ttl, clock)
        self.max_inflight = max_inflight

        self._lock = threading.RLock()
        self._pause_lock = threading.Lock()
        self._sessions: Dict[int, GatewaySession] = {}
        self._session_seq = 0
        # Round-robin submit queues: session id -> deque of (ticket,
        # entry) leaders awaiting issue.  OrderedDict + rotation gives
        # each session at most one issued wave per drain round.
        self._ready: "OrderedDict[int, Deque[Tuple[Ticket, InflightEntry]]]" = (
            OrderedDict()
        )
        self._pending_leaders = 0
        # Streams by config, and in-flight entries FIFO per stream id.
        self._streams: Dict[Tuple, object] = {}
        self._fifo: Dict[int, Deque[InflightEntry]] = {}
        self._inflight = 0
        self._epochs: Dict[Tuple, int] = {}  # stream_key -> current epoch
        # Streams whose next wave release is the post-epoch-bump grace
        # wave (delivered but never cached; see _on_result).
        self._grace: set = set()
        self._pollers: List[PeriodicPoller] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

        self._init_metrics()
        if autostart:
            self.start()

    # -- observability -----------------------------------------------------

    def _init_metrics(self) -> None:
        m = self.network._core.metrics
        self._g_sessions = m.gauge(
            "gateway_sessions", "open client sessions",
            fn=lambda: len(self._sessions),
        )
        self._g_pending = m.gauge(
            "gateway_pending", "queued leader queries awaiting issue",
            fn=lambda: self._pending_leaders,
        )
        self._g_inflight = m.gauge(
            "gateway_inflight", "waves outstanding in the tree",
            fn=lambda: self._inflight,
        )
        self._c_queries = m.counter("gateway_queries", "queries submitted")
        self._c_coalesced = m.counter(
            "queries_coalesced", "queries that rode another query's wave"
        )
        self._c_cache_hits = m.counter(
            "gateway_cache_hits", "queries served from the TTL result cache"
        )
        self._c_waves = m.counter(
            "gateway_waves", "reduction waves issued by the gateway"
        )
        self._c_poller_ticks = m.counter(
            "gateway_poller_ticks",
            "periodic-poller ticks fanned out to subscribers",
        )
        self._c_invalidated = m.counter(
            "gateway_entries_invalidated",
            "cached/in-flight results dropped on membership change",
        )
        self._c_shed = {
            reason: m.counter(
                "queries_shed", "queries rejected by admission control",
                reason=reason,
            )
            for reason in ("queue", "rate", "backpressure")
        }
        self._h_service = m.histogram(
            "gateway_service_seconds", "submit-to-completion latency"
        )

    def _trace_shed(self, t0: float, reason: str) -> None:
        tracer = self.network._core.tracer
        if tracer is not None:
            tracer.span_end("gateway_admission", t0, detail=f"shed:{reason}")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the driver thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._drive, name="gateway-driver", daemon=True
        )
        self._thread.start()

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop the driver and detach from the network (idempotent).

        Outstanding tickets are completed with
        ``GatewayError("gateway closed")``; the network itself is NOT
        shut down — the caller owns it.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(join_timeout)
        with self._lock:
            orphans: List[Ticket] = []
            for q in self._ready.values():
                orphans.extend(t for t, _ in q)
            self._ready.clear()
            self._pending_leaders = 0
            for fifo in self._fifo.values():
                for entry in fifo:
                    orphans.extend(self.cache.abort(entry))
            self._fifo.clear()
            self._inflight = 0
            streams = list(self._streams.values())
            self._streams.clear()
        err = GatewayError("gateway closed")
        for ticket in orphans:
            ticket._complete(error=err)
        for stream in streams:
            try:
                stream.clear_sink()
                stream.clear_wave_hooks()
            except Exception:
                pass

    @contextmanager
    def paused(self):
        """Park the driver thread for exclusive access to the network.

        While held, the driver is blocked *between* loop iterations,
        so the caller may safely pump the network itself (membership
        changes, direct stream use) or pre-queue submissions that all
        coalesce before any wave is issued.
        """
        self._pause_lock.acquire()
        try:
            yield self
        finally:
            self._pause_lock.release()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sessions ----------------------------------------------------------

    def session(self, name: Optional[str] = None) -> GatewaySession:
        """Open a new client session."""
        with self._lock:
            self._session_seq += 1
            sid = self._session_seq
            s = GatewaySession(self, name or f"session-{sid}")
            s._sid = sid
            self._sessions[sid] = s
            return s

    def _drop_session(self, session: GatewaySession) -> None:
        with self._lock:
            self._sessions.pop(getattr(session, "_sid", -1), None)
            # Leaders already queued still issue: their entry may have
            # followers from other sessions riding along.

    # -- submit path (any thread) -----------------------------------------

    def _submit(
        self, session: GatewaySession, query: Query, admitted: bool = False
    ) -> Ticket:
        tracer = self.network._core.tracer
        t0 = tracer.span_start() if tracer is not None else 0.0
        ticket = Ticket(query, session)
        # Count the ticket as outstanding BEFORE any completion can
        # fire (a cache hit completes synchronously below).
        with session._cv:
            session._outstanding += 1
        with self._lock:
            self._c_queries.value += 1
            epoch = self._epochs.get(query.stream_key, 0)
            key = query.cache_key(epoch)
            result, hit = self.cache.lookup(key)
            if hit:
                self._c_cache_hits.value += 1
                ticket.coalesced = True
                ticket.epoch = epoch
            elif self.cache.join(key, ticket):
                self._c_coalesced.value += 1
                ticket.coalesced = True
            else:
                # Leader: pays admission, will cost one wave.
                if not admitted:
                    try:
                        self.admission.admit(self._pending_leaders)
                    except Overloaded as exc:
                        self._c_shed[exc.reason].value += 1
                        self._trace_shed(t0, exc.reason)
                        with session._cv:
                            session._outstanding -= 1
                        raise
                    if tracer is not None:
                        tracer.span_end("gateway_admission", t0, detail="admit")
                entry = self.cache.open(key, ticket, epoch)
                sid = getattr(session, "_sid", 0)
                q = self._ready.get(sid)
                if q is None:
                    q = self._ready[sid] = deque()
                q.append((ticket, entry))
                self._pending_leaders += 1
        if hit:
            # Complete outside the lock: the callback touches session
            # state and may wake asyncio loops.
            ticket._complete(result=result)
        return ticket

    # -- driver loop (one thread) -----------------------------------------

    def _drive(self) -> None:
        while not self._stop.is_set():
            with self._pause_lock:
                try:
                    self.step()
                except NetworkDownError:
                    # The caller shut the network down first; park
                    # until close() completes the orphan tickets.
                    return
                except Exception:
                    if self._stop.is_set():
                        return
                    raise

    def step(self, max_wait: Optional[float] = None) -> bool:
        """One scheduler round: tick pollers, issue leaders, pump.

        Called in a loop by the driver thread; callable directly in
        tests (with ``autostart=False``) for deterministic stepping.
        Returns True if any wave was issued or traffic processed.
        """
        worked = self._tick_pollers()
        worked |= self._issue_round()
        wait = self.DRIVER_WAIT if max_wait is None else max_wait
        worked |= self.network.pump_once(wait)
        self.cache.expire()
        return worked

    def _issue_round(self) -> bool:
        """Issue up to one queued leader per session, round-robin."""
        issued = False
        while True:
            with self._lock:
                if self._inflight >= self.max_inflight or not self._ready:
                    return issued
                batch = []
                for sid in list(self._ready):
                    if self._inflight + len(batch) >= self.max_inflight:
                        break
                    q = self._ready[sid]
                    batch.append(q.popleft())
                    if not q:
                        del self._ready[sid]
                    else:
                        self._ready.move_to_end(sid)  # rotate fairness
                self._pending_leaders -= len(batch)
            if not batch:
                return issued
            for ticket, entry in batch:
                self._issue(ticket, entry)
                issued = True

    def _issue(self, ticket: Ticket, entry: InflightEntry) -> None:
        query = ticket.query
        try:
            stream = self._stream_for(query)
            packet = Packet(stream.stream_id, query.tag, query.fmt, query.values)
            stream.send_packet(packet)
        except SendQueueFull:
            exc = Overloaded("backpressure", retry_after=self.DRIVER_WAIT)
            self._c_shed["backpressure"].value += 1
            for waiter in self.cache.abort(entry):
                waiter._complete(error=exc)
            return
        except Exception as e:
            err = GatewayError(f"wave issue failed: {e!r}")
            for waiter in self.cache.abort(entry):
                waiter._complete(error=err)
            return
        with self._lock:
            self._c_waves.value += 1
            self._inflight += 1
            self._fifo.setdefault(stream.stream_id, deque()).append(entry)

    def _stream_for(self, query: Query):
        """Get or lazily create the shared stream for a query's config."""
        stream = self._streams.get(query.stream_key)
        if stream is not None:
            return stream
        net = self.network
        if query.ranks is None:
            comm = net.get_broadcast_communicator()
        else:
            comm = net.new_communicator(sorted(query.ranks))
        stream = net.new_stream(
            comm,
            transform=query.transform,
            sync=query.sync,
            sync_timeout=query.sync_timeout,
            pattern=query.pattern,
        )
        skey = query.stream_key
        stream.set_sink(
            lambda packet, _sid=stream.stream_id: self._on_result(_sid, packet)
        )
        stream.set_wave_hooks(
            on_membership_change=(
                lambda _stream_id, epoch, _k=skey: self._on_epoch(_k, epoch)
            )
        )
        with self._lock:
            self._streams[skey] = stream
            self._epochs.setdefault(skey, stream.membership_epoch)
        return stream

    # -- completion path (driver thread, via sink) ------------------------

    def _on_result(self, stream_id: int, packet: Packet) -> None:
        with self._lock:
            fifo = self._fifo.get(stream_id)
            if not fifo:
                return  # late wave after close/abort: drop
            entry = fifo.popleft()
            self._inflight -= 1
            skey = entry.key[0]
            current = self._epochs.get(skey, entry.epoch)
            # A result is cacheable only if (a) the membership it was
            # issued under is still current AND (b) it is not the
            # grace wave — the first release after an epoch bump,
            # which the synchronization filters may complete without
            # the joiner's contribution (joining-exemption semantics).
            # Any release clears the exemption tree-wide, so grace
            # lasts exactly one wave.
            fresh = current == entry.epoch and skey not in self._grace
            self._grace.discard(skey)
            if not fresh:
                self._c_invalidated.value += 1
        values = packet.unpack()
        waiters = self.cache.complete(entry, values, cacheable=fresh)
        now = self._clock()
        for ticket in waiters:
            ticket.epoch = entry.epoch
            self._h_service.observe(now - ticket.submitted_at)
            ticket._complete(result=values)

    def _on_epoch(self, stream_key: Tuple, epoch: int) -> None:
        """Stream hook: the tree's membership changed."""
        with self._lock:
            self._epochs[stream_key] = epoch
            self._grace.add(stream_key)
        dropped = self.cache.drop_stale(stream_key, epoch)
        if dropped:
            self._c_invalidated.value += dropped

    # -- pollers -----------------------------------------------------------

    def periodic(self, query: Query, period: float) -> "PeriodicPoller":
        """Register a recurring query; returns its poller handle.

        Every *period* seconds the gateway submits *query* once per
        subscribed session; identical submissions in the same tick
        coalesce onto ONE wave whose result every subscriber receives
        (the EMPOWER aggregation-poller shape).
        """
        poller = PeriodicPoller(self, query, period, self._clock)
        with self._lock:
            self._pollers.append(poller)
        return poller

    def _tick_pollers(self) -> bool:
        now = self._clock()
        fired = False
        with self._lock:
            due = [p for p in self._pollers if p.active and p.next_due <= now]
        for poller in due:
            fired |= poller._fire(now)
        return fired

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Point-in-time gateway counters (a convenience snapshot)."""
        base = {
            "sessions": len(self._sessions),
            "pending": self._pending_leaders,
            "inflight": self._inflight,
            "queries": self._c_queries.value,
            "coalesced": self._c_coalesced.value,
            "cache_hits": self._c_cache_hits.value,
            "waves": self._c_waves.value,
            "poller_ticks": self._c_poller_ticks.value,
            "invalidated": self._c_invalidated.value,
        }
        for reason, c in self._c_shed.items():
            base[f"shed_{reason}"] = c.value
        return base


class PeriodicPoller:
    """A recurring query fanned out to subscriber sessions.

    Created via :meth:`Gateway.periodic`.  Subscribers receive one
    completed ticket per period on their normal ``poll``/``recv``
    path; all subscribers in a period share one wave.
    """

    def __init__(self, gateway: Gateway, query: Query, period: float, clock):
        if period <= 0:
            raise ValueError("period must be positive")
        self.gateway = gateway
        self.query = query
        self.period = period
        self.active = True
        self._clock = clock
        self.next_due = clock()  # first tick fires immediately
        self._subscribers: List[GatewaySession] = []
        self._lock = threading.Lock()

    def subscribe(self, session: GatewaySession) -> None:
        """Add *session* to the fan-out list (idempotent)."""
        with self._lock:
            if session not in self._subscribers:
                self._subscribers.append(session)

    def unsubscribe(self, session: GatewaySession) -> None:
        """Remove *session* (idempotent)."""
        with self._lock:
            if session in self._subscribers:
                self._subscribers.remove(session)

    def stop(self) -> None:
        """Deactivate; no further waves fire."""
        self.active = False

    def _fire(self, now: float) -> bool:
        self.next_due = now + self.period
        with self._lock:
            subscribers = [s for s in self._subscribers if not s.closed]
        if not subscribers:
            return False
        for session in subscribers:
            # Pollers bypass admission: their cadence was provisioned
            # at registration, and every tick costs at most one wave.
            self.gateway._submit(session, self.query, admitted=True)
        self.gateway._c_poller_ticks.value += 1
        return True
