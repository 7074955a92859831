"""Synchronization filters (paper §2.4).

Synchronization filters "organise data packets from downstream nodes
into synchronized waves of data packets".  They receive packets one at
a time and output nothing until their synchronization criterion fires.
MRNet ships three modes, all reproduced here:

* **Wait For All** — hold packets until one has arrived from *every*
  child of the node, then release one aligned wave (one packet per
  child, FIFO within a child).
* **Time Out** — release a wave when every child has contributed *or*
  a timeout elapses since the wave's first packet, whichever is first.
* **Do Not Wait** — release packets immediately as singleton waves.

Synchronization filters are type-independent: they never inspect
packet payloads.  The paper notes users may add new synchronization
modes; subclass :class:`SynchronizationFilter` and register it (see
:mod:`repro.filters.registry`).

Timeouts need a time source.  To work identically under the threaded
runtime (wall clock) and the discrete-event simulator (virtual clock),
filters take a ``clock`` callable returning the current time in
seconds; it defaults to :func:`time.monotonic`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..core.packet import Packet

__all__ = [
    "Wave",
    "SynchronizationFilter",
    "WaitForAllFilter",
    "TimeOutFilter",
    "DoNotWaitFilter",
]

Wave = List[Packet]


class SynchronizationFilter:
    """Base class: per-child FIFO queues plus a release criterion.

    Subclasses implement :meth:`_ready_waves`, which inspects the
    queues and pops zero or more complete waves.

    Parameters
    ----------
    children:
        The identities of the node's downstream connections.  A wave
        aligns one packet from each.  The set may grow via
        :meth:`add_child` during network construction.
    clock:
        Time source used by time-based criteria.
    """

    name = "sync-base"

    def __init__(
        self,
        children: Sequence[object] = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        self._queues: Dict[object, Deque[Packet]] = {c: deque() for c in children}
        self._clock = clock
        # Children adopted mid-stream (tree repair): they join the
        # *next* wave, so an in-flight wave still completes over the
        # pre-adoption membership instead of blocking on a child that
        # never saw the wave's multicast.  A joining child graduates
        # to full membership when it contributes its first packet or
        # when any wave releases, whichever happens first.
        self._joining: set = set()
        # Children that announced a graceful leave (TAG_LEAVE): their
        # queued contributions still ride, but waves stop *requiring*
        # them.  Unlike ``_joining`` the exemption is permanent — it
        # ends only when the link actually closes and is removed.
        self._leaving: set = set()

    # -- membership -------------------------------------------------------

    @property
    def children(self) -> List[object]:
        return list(self._queues)

    def add_child(self, child: object, joining: bool = False) -> None:
        """Register a new downstream connection.

        With ``joining=True`` (an orphan adopted while waves may be in
        flight) the child is exempt from wave-completeness checks
        until it first contributes or a wave releases.
        """
        if child in self._queues:
            return
        self._queues[child] = deque()
        if joining:
            self._joining.add(child)

    def remove_child(self, child: object) -> List[Packet]:
        """Drop a connection (e.g. a closed child); return its backlog."""
        backlog = self._queues.pop(child, deque())
        self._joining.discard(child)
        self._leaving.discard(child)
        return list(backlog)

    def retire_child(self, child: object) -> None:
        """Lame-duck a child that announced a graceful leave.

        The child's already-queued packets still participate in waves,
        but completeness criteria stop waiting on it — the departing
        back-end will send nothing further, and blocking every wave
        until its EOF arrives would stall the stream for the detection
        window.  The exemption persists until :meth:`remove_child`.
        """
        if child in self._queues:
            self._leaving.add(child)

    # -- data path ---------------------------------------------------------

    def push(self, child: object, packet: Packet) -> List[Wave]:
        """Offer one packet from *child*; return any waves now complete."""
        if child not in self._queues:
            raise KeyError(f"unknown child {child!r}")
        self._joining.discard(child)  # first contribution: full member
        self._queues[child].append(packet)
        return self._ready_waves()

    def poll(self) -> List[Wave]:
        """Re-evaluate time-based criteria without new input."""
        return self._ready_waves()

    def flush(self) -> List[Wave]:
        """Release everything still queued as best-effort waves.

        Used at stream shutdown so no packet is ever silently dropped.
        Packets are grouped positionally: the i-th remaining packet of
        each child forms wave i.
        """
        waves: List[Wave] = []
        while any(self._queues.values()):
            wave = [q.popleft() for q in self._queues.values() if q]
            waves.append(wave)
        self._reset_criterion()
        return waves

    @property
    def pending(self) -> int:
        """Number of packets currently held back."""
        return sum(len(q) for q in self._queues.values())

    # -- parked units (the fragment pipeline) ------------------------------

    def queue(self, child: object) -> Deque[Packet]:
        """*child*'s FIFO of parked units, oldest first.

        A pipeline fragment is a unit like any other, but whether it
        may leave depends on how its siblings' heads are framed: the
        stream manager appends it here without evaluating the criterion
        (the joining grace ends at a wave boundary, not at a first
        fragment), decides from :meth:`heads`, trims stale fragments,
        and pops whole waves through :meth:`pop_wave`.
        """
        return self._queues[child]

    def heads(self) -> Optional[Dict[object, Packet]]:
        """What :meth:`pop_wave` would release, without popping:
        ``{child: head unit}``, or ``None`` while a full member's queue
        is empty."""
        ready = self._ready()
        return {c: q[0] for c, q in self._queues.items() if q} if ready else None

    def next_deadline(self) -> Optional[float]:
        """Clock time at which :meth:`poll` could release a wave.

        ``None`` for criteria with no time component.  Event loops use
        this to sleep exactly until the earliest release instead of
        polling on a fixed short interval.
        """
        return None

    # -- criterion ----------------------------------------------------------

    def _ready_waves(self) -> List[Wave]:
        raise NotImplementedError

    def _reset_criterion(self) -> None:
        """Hook for subclasses holding extra criterion state."""

    def _ready(self) -> bool:
        """True once every *full* member has a unit queued (joining and
        leaving children never block)."""
        queues = self._queues
        if self._joining or self._leaving:
            exempt = self._joining | self._leaving
            required = [q for c, q in queues.items() if c not in exempt]
            return bool(required) and all(required)
        return bool(queues) and all(queues.values())

    def pop_wave(
        self, members: Optional[Sequence[object]] = None, graduate: bool = True
    ) -> Optional[Wave]:
        """Pop one unit per contributing child once every full member's
        queue is non-empty (any queued unit of a joining or leaving
        child rides along).

        *members* restricts the pop to the children of an in-flight
        fragmented wave, whose membership was fixed at its first
        fragment: a child adopted since keeps waiting for the boundary.
        ``graduate=False`` keeps the joining grace open between the
        fragments of one wave.
        """
        if members is not None:
            queues = [self._queues[c] for c in members]
            if not all(queues):
                return None
            wave = [q.popleft() for q in queues]
        elif self._ready():
            wave = [q.popleft() for q in self._queues.values() if q]
        else:
            return None
        if graduate:
            # A released wave ends the joining grace period: from the
            # next wave on, adopted children are full members.
            self._joining.clear()
        return wave

    def _full_waves(self) -> List[Wave]:
        """Pop every wave whose full members have all contributed."""
        waves: List[Wave] = []
        while True:
            wave = self.pop_wave()
            if wave is None:
                return waves
            waves.append(wave)


class WaitForAllFilter(SynchronizationFilter):
    """Release a wave only when every child has contributed a packet."""

    name = "sync-wait-for-all"

    _ready_waves = SynchronizationFilter._full_waves


class TimeOutFilter(SynchronizationFilter):
    """Release a full wave, or a partial one after *timeout* seconds.

    "wait a specified time or until a packet has arrived from every
    child (whichever occurs first)".  The timer starts when the first
    packet of a prospective wave arrives and resets after each release.
    """

    name = "sync-timeout"

    def __init__(
        self,
        children: Sequence[object] = (),
        timeout: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        super().__init__(children, clock)
        self.timeout = timeout
        self._wave_started: Optional[float] = None

    def push(self, child: object, packet: Packet) -> List[Wave]:
        if self._wave_started is None and self.pending == 0:
            self._wave_started = self._clock()
        return super().push(child, packet)

    def _reset_criterion(self) -> None:
        self._wave_started = None

    def next_deadline(self) -> Optional[float]:
        if self._wave_started is None or not self.pending:
            return None
        return self._wave_started + self.timeout

    def _ready_waves(self) -> List[Wave]:
        waves = self._full_waves()
        if waves:
            # Completed waves consume the timer; restart it if packets
            # toward the next wave are already queued.
            self._wave_started = self._clock() if self.pending else None
        if (
            self._wave_started is not None
            and self.pending
            and self._clock() - self._wave_started >= self.timeout
        ):
            waves.append(self.pop_wave([c for c, q in self._queues.items() if q]))
            self._wave_started = self._clock() if self.pending else None
        return waves


class DoNotWaitFilter(SynchronizationFilter):
    """Pass every packet through immediately as a singleton wave."""

    name = "sync-do-not-wait"

    def push(self, child: object, packet: Packet) -> List[Wave]:
        # Nothing is ever held back, so skip the queue round-trip (an
        # append + pop + full scan of every child queue per packet —
        # measurable on the relay hot path).
        if child not in self._queues:
            raise KeyError(f"unknown child {child!r}")
        return [[packet]]

    def _ready_waves(self) -> List[Wave]:
        waves: List[Wave] = []
        for q in self._queues.values():
            while q:
                waves.append([q.popleft()])
        return waves
