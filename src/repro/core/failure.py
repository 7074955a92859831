"""Fault-tolerance layer: policies, liveness, and tree repair.

The paper defers "recovery mechanisms for failures of tool or MRNet
processes" to future work (§6); this module supplies them for the
reproduction's runtimes.  Three pieces:

**Failure policy** — every :class:`~repro.core.network.Network` runs
under one of three policies:

* ``fail_fast`` — the first observed failure (a dead link, a lost
  rank set) poisons the network: the next front-end API call raises
  :class:`NetworkDownError` carrying the root cause.
* ``degrade`` (default) — failures shrink the tree: dead subtrees are
  dropped from routing, in-flight waves reconfigure to complete over
  the surviving rank set, and the front-end is notified through
  ``RANKS_CHANGED`` events.  This matches the pre-existing behaviour
  for child-link death and keeps it for internal-node death.
* ``repair`` — like ``degrade``, but orphaned processes additionally
  reconnect to their grandparent (the dual-path idea of Träff's
  two-tree reductions applied to the control tree): the network heals
  back to full membership instead of shrinking permanently.

**Heartbeats** — EOF detection only catches *closed* connections.  A
wedged peer — alive at the TCP level but no longer processing — is
caught by lightweight liveness probes (``TAG_HEARTBEAT``) multiplexed
through each node's existing event loop, governed by a
:class:`HeartbeatConfig` (probe interval + miss threshold).

**RecoveryCoordinator** — the thread-hosted runtimes (``local`` and
``tcp`` transports) keep every process in one address space, so
repair is brokered by a per-network coordinator: an orphan asks it
for a new parent, the coordinator walks up the topology to the
nearest live ancestor, manufactures a fresh edge, and hands each side
over.  The edge is chosen by the adopter, not by the network's
transport: a loop-hosted adopter always gets a socketpair (its end
registered on its loop, the orphan's a passive end), the passive
front-end an in-process channel, and an out-of-process adopter a TCP
dial to its listener.  The orphan then re-reports its endpoint set
through the new edge, which is what updates routing tables and wave
membership at the adopter — the same §2.5 report protocol used at
startup, reused for repair.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = [
    "FAIL_FAST",
    "DEGRADE",
    "REPAIR",
    "POLICIES",
    "HeartbeatConfig",
    "RanksChanged",
    "InstantiationError",
    "backoff_delays",
    "RecoveryCoordinator",
]

FAIL_FAST = "fail_fast"
DEGRADE = "degrade"
REPAIR = "repair"
POLICIES = (FAIL_FAST, DEGRADE, REPAIR)


class InstantiationError(ConnectionError):
    """Tree instantiation could not reach a peer after bounded retries."""

    def __init__(self, address, attempts: int, last_error: Optional[str] = None):
        detail = f" ({last_error})" if last_error else ""
        super().__init__(
            f"unreachable MRNet process at {address[0]}:{address[1]} "
            f"after {attempts} connect attempt(s){detail}"
        )
        self.address = tuple(address)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class HeartbeatConfig:
    """Liveness probing knobs.

    ``interval`` seconds between probes (``<= 0`` disables heartbeats
    entirely — the default — so steady-state overhead is zero unless a
    tool opts in).  A peer is declared dead after ``miss_threshold``
    consecutive intervals with *no* traffic of any kind: data packets
    count as liveness, so probes only flow on otherwise-idle links.
    """

    interval: float = 0.0
    miss_threshold: int = 3
    #: Fractional probe-emission jitter: each node draws its next probe
    #: interval uniformly from ``interval * [1 - jitter, 1 + jitter]``
    #: (deterministically, seeded by the node name) so a large tree's
    #: probes de-synchronize instead of bursting in lockstep.  Jitter
    #: never affects the *detection* deadline below.
    jitter: float = 0.2

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    @property
    def deadline(self) -> float:
        """Silence longer than this declares the peer dead.

        Computed from the nominal interval: with jitter ``j <= 0.5``
        and ``miss_threshold >= 2`` a live peer's probes always arrive
        inside the deadline.
        """
        return self.interval * max(self.miss_threshold, 1)


@dataclass(frozen=True)
class RanksChanged:
    """One wave-membership change observed by the front-end."""

    stream_id: int
    epoch: int
    lost: Tuple[int, ...]
    gained: Tuple[int, ...]


def backoff_delays(
    attempts: int,
    base: float = 0.1,
    cap: float = 2.0,
    jitter: float = 0.5,
    rng=None,
) -> List[float]:
    """Capped exponential backoff with deterministic jitter.

    Returns ``attempts - 1`` sleep durations (no sleep after the last
    try).  Delay *k* is ``min(cap, base * 2**k)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` using
    *rng* (an object with ``uniform``; defaults to a fixed-seed
    ``random.Random`` so retry schedules are reproducible).
    """
    if rng is None:
        import random

        rng = random.Random(0xB0FF)
    delays = []
    for k in range(max(attempts - 1, 0)):
        d = min(cap, base * (2.0**k))
        delays.append(d * rng.uniform(1.0 - jitter, 1.0 + jitter))
    return delays


@dataclass
class _Member:
    """One registered process slot of a thread-hosted network."""

    key: tuple  # topology (host, index)
    kind: str  # "frontend" | "commnode" | "backend" | "remote"
    parent_key: Optional[tuple]
    core: object = None  # NodeCore (frontend/commnode)
    commnode: object = None  # CommNode handle (commnode only)
    slot: object = None  # _LeafSlot (backend only)
    addr: object = None  # (host, port) listener address (remote only)
    proc: object = None  # Popen-like handle (remote only)


class RecoveryCoordinator:
    """Brokers orphan adoption and aggregates recovery statistics.

    One instance per thread-hosted :class:`Network`.  All methods are
    thread-safe: orphans call :meth:`adopt` from comm-node loop
    threads or the tool thread (back-ends), concurrently with the
    front-end pumping.
    """

    def __init__(self, transport: str = "local", clock: Callable[[], float] = time.monotonic):
        self.transport = transport
        self.clock = clock
        self._lock = threading.Lock()
        self._members: Dict[tuple, _Member] = {}
        self._failed_nodes: set = set()
        # Typed registry (see repro.obs.metrics); bump()/snapshot()
        # keep their historical plain-dict API on top of it.
        self.metrics = MetricsRegistry()
        for name, help_text in (
            ("nodes_failed", "Distinct processes declared failed"),
            ("orphans_adopted", "Orphan adoptions brokered network-wide"),
            ("waves_reconfigured", "Stream membership changes network-wide"),
            ("heartbeats_missed", "Liveness deadlines expired network-wide"),
            ("members_joined", "Back-ends that joined the running network"),
            ("members_left", "Back-ends that left the running network"),
        ):
            self.metrics.counter(name, help_text)

    # -- registration (Network construction) -------------------------------

    def register(self, member: _Member) -> None:
        with self._lock:
            self._members[member.key] = member

    def register_frontend(self, key: tuple, core) -> None:
        self.register(_Member(key, "frontend", None, core=core))

    def register_commnode(self, key: tuple, parent_key: tuple, commnode) -> None:
        self.register(
            _Member(key, "commnode", parent_key, core=commnode.core, commnode=commnode)
        )

    def register_backend(self, key: tuple, parent_key: tuple, slot) -> None:
        self.register(_Member(key, "backend", parent_key, slot=slot))

    def register_remote(
        self, key: tuple, parent_key: Optional[tuple], addr, proc=None
    ) -> None:
        """Register an out-of-process comm node by its listener address.

        ``transport="process"`` trees keep their internal nodes in
        separate OS processes; the coordinator tracks them by address
        (and optionally a Popen-like handle for liveness) so orphaned
        back-ends — which always live in the front-end process — can
        still walk to a live ancestor and reconnect over TCP.
        """
        self.register(_Member(key, "remote", parent_key, addr=addr, proc=proc))

    def members(self, kind: Optional[str] = None) -> List[_Member]:
        """Snapshot of registered members, optionally one *kind*."""
        with self._lock:
            return [
                m for m in self._members.values()
                if kind is None or m.kind == kind
            ]

    def member(self, key: tuple) -> Optional[_Member]:
        """The registered member under *key*, if any."""
        with self._lock:
            return self._members.get(key)

    def unregister(self, key: tuple) -> None:
        """Forget a member slot (e.g. a back-end re-homed elsewhere)."""
        with self._lock:
            self._members.pop(key, None)

    # -- stats -------------------------------------------------------------

    def bump(self, counter: str, n: int = 1) -> None:
        """Add *n* to the named recovery counter (thread-safe)."""
        with self._lock:
            self.metrics.counter(counter).value += n

    def note_node_failure(self, key: Optional[tuple]) -> None:
        """Record one failed process (idempotent per topology key)."""
        with self._lock:
            if key in self._failed_nodes:
                return
            self._failed_nodes.add(key)
            self.metrics.counter("nodes_failed").value += 1

    def snapshot(self) -> Dict[str, int]:
        """Plain ``name -> count`` dump of the recovery counters."""
        with self._lock:
            return {k: c.value for k, c in self.metrics.counters().items()}

    # -- liveness ----------------------------------------------------------

    def _alive(self, member: _Member) -> bool:
        if member.kind == "frontend":
            return True
        if member.kind == "commnode":
            core = member.core
            return not (
                getattr(core, "crashed", False) or getattr(core, "shutting_down", False)
            )
        if member.kind == "remote":
            proc = member.proc
            return proc is None or proc.poll() is None
        backend = getattr(member.slot, "backend", None)
        return backend is not None and not backend.shut_down

    def live_internal(self) -> int:
        """Internal processes that would answer a request right now.

        The ``STATS_SNAPSHOT`` gather's census, on every transport:
        members whose thread or OS process is gone, or that are wedged
        (a wedged node drops input by definition), are not waited for.
        An out-of-process member whose handle belongs to another
        process (a forked grandchild) is presumed alive.
        """
        with self._lock:
            return sum(
                1
                for m in self._members.values()
                if m.kind in ("commnode", "remote")
                and self._alive(m)
                and not getattr(m.core, "wedged", False)
                and (m.commnode is None or m.commnode.is_alive())
            )

    def live_ancestor(self, orphan_key: tuple) -> Optional[_Member]:
        """The nearest live proper ancestor of *orphan_key* (grandparent
        first, walking toward the root)."""
        with self._lock:
            member = self._members.get(orphan_key)
            while member is not None and member.parent_key is not None:
                parent = self._members.get(member.parent_key)
                if parent is None:
                    return None
                if parent is not member and self._alive(parent):
                    return parent
                member = parent
        return None

    # -- adoption ----------------------------------------------------------

    def adopt(self, orphan_key: tuple, orphan_inbox) -> Optional[object]:
        """Attach the orphan under its nearest live ancestor.

        Returns the orphan's new parent :class:`ChannelEnd` (or an
        object presenting that interface), or ``None`` when no live
        ancestor exists / the transport cannot be repaired.  The
        *adopter* side is delivered thread-safely: an in-process
        channel end is offered to the ancestor core's admission queue;
        a socket is handed to the ancestor's event loop.

        The caller must follow up by sending its endpoint report
        through the returned end — that report is what re-populates
        routing and stream membership at the adopter.
        """
        # live_ancestor takes the lock itself; walk outside any edge setup.
        dead_parent = None
        with self._lock:
            me = self._members.get(orphan_key)
            if me is not None:
                dead_parent = me.parent_key
        ancestor = self.live_ancestor(orphan_key)
        if ancestor is None:
            return None
        end = self._make_edge(ancestor, orphan_inbox)
        if end is None:
            return None
        if dead_parent is not None:
            self.note_node_failure(dead_parent)
        self.bump("orphans_adopted")
        with self._lock:
            me = self._members.get(orphan_key)
            if me is not None:
                me.parent_key = ancestor.key
        return end

    # -- voluntary joins ----------------------------------------------------

    def choose_adopter(self, exclude: Iterable[tuple] = ()) -> Optional[_Member]:
        """Pick a parent for a *joining* back-end (coordinator's choice).

        Prefers the live registered comm node with the fewest children
        (spreading join load across the tree); falls back to the
        front-end when no comm node is live.  Remote (out-of-process)
        members are chosen by address the same way, with an unknown
        child count treated as infinite only relative to in-process
        candidates.  *exclude* names member keys that must not be
        chosen — ``Network.rebalance()`` passes the hot node it is
        evacuating so the mover cannot re-adopt its own evacuee.
        """
        excluded = set(exclude)
        with self._lock:
            best = None
            best_load = None
            frontend = None
            for member in self._members.values():
                if member.kind == "frontend":
                    frontend = member
                    continue
                if member.kind not in ("commnode", "remote"):
                    continue
                if member.key in excluded:
                    continue
                if not self._alive(member):
                    continue
                core = member.core
                load = (
                    len(getattr(core, "children", ()))
                    if core is not None
                    else 1 << 20
                )
                if best is None or load < best_load:
                    best, best_load = member, load
            return best or frontend

    def make_join_edge(self, member: _Member, joiner_inbox) -> Optional[object]:
        """Manufacture the joining back-end's parent edge under *member*.

        Unlike :meth:`adopt` this is a voluntary join, not a repair —
        the adopter's admission must not count it as an orphan
        adoption.
        """
        return self._make_edge(member, joiner_inbox, adopted=False)

    def _make_edge(
        self, ancestor: _Member, orphan_inbox, adopted: bool = True
    ) -> Optional[object]:
        """Manufacture one parent↔child edge toward *ancestor*."""
        if ancestor.kind == "remote":
            # Out-of-process adopter: dial its listener; its event
            # loop's acceptor admits the connection as a child link.
            from ..transport.tcp import tcp_connect_retry

            try:
                return tcp_connect_retry(
                    ancestor.addr, orphan_inbox, attempts=3, timeout=5.0
                )
            except (OSError, ConnectionError, InstantiationError):
                return None
        core = ancestor.core
        loop = getattr(ancestor.commnode, "loop", None) if ancestor.commnode else None
        if loop is not None:
            # Selector-driven adopter: give it a raw socket; the loop
            # registers it and attaches the child on its own thread.
            import socket as socket_mod

            from ..transport.tcp import _passive_end

            sock_parent, sock_child = socket_mod.socketpair()
            # Name the adopting core explicitly: a colocated loop hosts
            # many cores and must not default to the first bound one.
            loop.adopt_socket(sock_parent, core=core, adopted=adopted)
            return _passive_end(sock_child, None, orphan_inbox)
        # Inbox-driven adopter (the front-end):
        # build an in-process channel and queue the parent end for
        # admission at the adopter's next processing step.
        from ..transport.channel import Channel

        channel = Channel(core.inbox, orphan_inbox)
        # end_a sends toward the orphan (the adopter's child end);
        # end_b sends toward the adopter (the orphan's parent end).
        core.offer_child(channel.end_a, adopted=adopted)
        return channel.end_b

    def __repr__(self) -> str:
        return (
            f"RecoveryCoordinator(members={len(self._members)}, "
            f"stats={self.snapshot()})"
        )
