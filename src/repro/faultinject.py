"""Deterministic fault injection for thread-hosted MRNet networks.

The paper defers process-failure recovery to future work (§6); the
reproduction implements it (see :mod:`repro.core.failure`), which
means it must also be able to *cause* failures on demand.  This
module is that harness.  It deliberately reaches through the public
``Network`` object into the runtime's internals — the entire point is
to break the system in ways the API never would:

* **kill** an internal process abruptly (no shutdown broadcast, ends
  closed — peers see raw EOF, exactly like a SIGKILLed
  ``mrnet_commnode``);
* **wedge** an internal process: its loop keeps the TCP connections
  open but processes nothing, the failure mode only heartbeats can
  detect;
* **sever** one link mid-frame: a partial length-prefixed frame is
  written and the socket killed, exercising the receivers' frame
  reassembly against truncation;
* **kill a back-end** (closes its parent link from the leaf side);
* **stall a consumer**: pause a back-end's reader thread so the
  sending comm node's bounded queue backs up (backpressure, the
  ``send_queue_full`` path);
* **send a malformed packet** from a back-end: a well-framed control
  packet in the wrong format, which must cost that back-end its link
  and nothing else.

Every primitive records what it did in :attr:`FaultInjector.log`, and
:class:`FaultSchedule` drives primitives from a *seeded* plan, so a
chaos run is reproducible from ``(topology, seed)`` alone.

Only thread-hosted transports (``local``/``tcp``) are supported for
in-process primitives; ``kill_process(i)`` covers the process
transport by SIGKILLing the i-th spawned ``mrnet_commnode``.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .core.batching import encode_batch
from .core.packet import Packet
from .core.protocol import CONTROL_STREAM_ID, TAG_JOIN

__all__ = ["FaultInjector", "FaultEvent", "FaultSchedule"]

_LEN = struct.Struct(">I")


class FaultInjector:
    """Break one thread-hosted :class:`~repro.core.network.Network`."""

    def __init__(self, network, clock: Callable[[], float] = time.monotonic):
        self.network = network
        self.clock = clock
        self.log: List[Tuple[str, object]] = []

    # -- targeting ---------------------------------------------------------

    def commnode(self, which: Union[int, str]):
        """A comm node by position (build order) or topology label."""
        nodes = self.network._commnodes
        if isinstance(which, int):
            return nodes[which]
        for node in nodes:
            if node.core.name == which:
                return node
        raise KeyError(f"no comm node {which!r}")

    def commnode_labels(self) -> List[str]:
        return [node.core.name for node in self.network._commnodes]

    # -- process faults ----------------------------------------------------

    def kill_commnode(self, which: Union[int, str]) -> None:
        """Crash an internal node: loop exits, ends close, no goodbye."""
        node = self.commnode(which)
        self.log.append(("kill_commnode", node.core.name))
        node.kill()

    def wedge_commnode(self, which: Union[int, str]) -> None:
        """Freeze an internal node's processing while its links stay up."""
        node = self.commnode(which)
        self.log.append(("wedge_commnode", node.core.name))
        node.core.wedged = True

    def unwedge_commnode(self, which: Union[int, str]) -> None:
        node = self.commnode(which)
        self.log.append(("unwedge_commnode", node.core.name))
        node.core.wedged = False

    def kill_backend(self, rank: int) -> None:
        """Kill a back-end: its parent link dies from the leaf side."""
        slot = self.network._slots[rank]
        self.log.append(("kill_backend", rank))
        if slot.backend is not None:
            slot.backend.shut_down = True
        if slot.parent_end is not None:
            slot.parent_end.close()

    def send_malformed(self, rank: int) -> None:
        """Have back-end *rank* send ``TAG_JOIN`` as ``"%d"``, which
        its parent must refuse by closing that one link."""
        backend = self.network._slots[rank].backend
        self.log.append(("send_malformed", rank))
        bad = Packet(CONTROL_STREAM_ID, TAG_JOIN, "%d", (rank,))
        try:
            backend._parent.send(encode_batch([bad]))
        except ConnectionError:
            pass  # already cut off

    def kill_process(self, index: int) -> None:
        """SIGKILL the index-th spawned process (process transport)."""
        proc = self.network._procs[index]
        self.log.append(("kill_process", index))
        proc.kill()

    # -- link faults -------------------------------------------------------

    def sever_link(
        self, which: Union[int, str], child_index: int = 0, mid_frame: bool = True
    ) -> int:
        """Cut one of a comm node's child links; returns the link id.

        With ``mid_frame=True`` (and a raw socket under the link) a
        truncated frame — a length prefix promising more bytes than
        will ever arrive — is written first, so the receiver's
        reassembly sees EOF inside a frame and must discard the
        partial data rather than deliver garbage.
        """
        core = self.commnode(which).core
        link_ids = list(core.children)
        link_id = link_ids[child_index]
        end = core.children[link_id]
        sock = getattr(end, "_sock", None)
        if mid_frame and sock is not None:
            try:
                sock.send(_LEN.pack(1 << 20) + b"truncated")
            except OSError:
                pass
        elif mid_frame and hasattr(end, "drop_undelivered"):
            # Co-located (in-process) links have no wire to truncate;
            # the equivalent abrupt loss is dropping whatever the peer
            # had queued but not yet consumed, so close() delivers a
            # bare EOF instead of the usual drain-then-EOF goodbye.
            end.drop_undelivered()
        self.log.append(("sever_link", (core.name, link_id)))
        end.close()
        return link_id

    # -- consumer faults ---------------------------------------------------

    def stall_backend(self, rank: int) -> None:
        """Pause a back-end's reader thread: frames pile up in the
        socket or ring until the sending node's bounded queue pushes
        back."""
        slot = self.network._slots[rank]
        end = slot.parent_end
        if not hasattr(end, "pause_reading"):
            raise TypeError(
                f"back-end {rank}'s parent link ({type(end).__name__}) "
                "has no reader thread to stall (tcp and process transports only)"
            )
        self.log.append(("stall_backend", rank))
        end.pause_reading()

    def resume_backend(self, rank: int) -> None:
        slot = self.network._slots[rank]
        self.log.append(("resume_backend", rank))
        slot.parent_end.resume_reading()

    # -- heartbeat faults --------------------------------------------------

    def drop_heartbeats(self, which: Union[int, str]) -> None:
        """Suppress a node's probes without touching its data path.

        The peer's liveness deadline only fires on *total* silence, so
        dropping probes alone is only fatal on otherwise-idle links —
        exactly the distinction the tests need to exercise.
        """
        core = self.commnode(which).core
        self.log.append(("drop_heartbeats", core.name))
        core.heartbeat_tick = lambda: None  # type: ignore[method-assign]


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: fire *action(*args)* at ``at`` seconds."""

    at: float
    action: str
    args: Tuple = ()


@dataclass
class FaultSchedule:
    """A seeded, time-ordered fault plan driven by the test's loop.

    Usage::

        inj = FaultInjector(net)
        sched = FaultSchedule.random(inj, seed=7, horizon=0.5)
        sched.arm()
        while not sched.done:
            sched.poll()          # fires everything now due
            ... drive the tool ...

    ``poll`` is pull-based on purpose: no timer threads, so a virtual
    clock works and two runs with one seed produce identical traces.
    """

    injector: FaultInjector
    events: List[FaultEvent]
    fired: List[FaultEvent] = field(default_factory=list)
    _t0: Optional[float] = None

    def arm(self) -> None:
        self._t0 = self.injector.clock()

    @property
    def done(self) -> bool:
        return len(self.fired) == len(self.events)

    def poll(self) -> List[FaultEvent]:
        """Fire every event whose time has come; returns those fired."""
        if self._t0 is None:
            raise RuntimeError("FaultSchedule.poll before arm()")
        now = self.injector.clock() - self._t0
        newly = []
        for event in self.events:
            if event in self.fired or event.at > now:
                continue
            getattr(self.injector, event.action)(*event.args)
            self.fired.append(event)
            newly.append(event)
        return newly

    @classmethod
    def random(
        cls,
        injector: FaultInjector,
        seed: int,
        n_faults: int = 1,
        horizon: float = 0.5,
        actions: Sequence[str] = ("kill_commnode",),
    ) -> "FaultSchedule":
        """A reproducible plan: times and targets (a back-end rank for
        ``send_malformed``, else a comm-node label) drawn from *seed*."""
        rng = random.Random(seed)
        labels = injector.commnode_labels()
        if not labels:
            raise ValueError("network has no internal nodes to break")
        events = []
        targets = list(labels)
        ranks = sorted(injector.network._slots)
        for _ in range(n_faults):
            action = rng.choice(list(actions))
            pool = ranks if action == "send_malformed" else targets
            if not pool:
                break
            target = pool.pop(rng.randrange(len(pool)))
            events.append(FaultEvent(rng.uniform(0.0, horizon), action, (target,)))
        events.sort(key=lambda e: e.at)
        return cls(injector, events)
