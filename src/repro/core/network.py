"""The front-end Network object and tree instantiation (paper §2.2, §2.5).

``Network`` is the tool front-end's entry point, mirroring Figure 2's
``front_end_main``::

    net = Network(config_file)                     # or a TopologySpec
    comm = net.get_broadcast_communicator()
    stream = net.new_stream(comm, transform=TFILTER_MAX, ...)
    stream.send("%d", FLOAT_MAX_INIT)
    (result,) = stream.recv_values()

Instantiation builds the whole process tree from the topology: one
:class:`~repro.core.commnode.CommNode` per internal slot, one
:class:`~repro.core.backend.BackEnd` per leaf slot, and along every
edge the link kind :func:`repro.topology.plan_placement` chose for it.
That plan — node → host group, edge → link kind — is computed once
per network and walked by both builders.  Back-end ranks are the
leaves' left-to-right positions.

Two instantiation modes (paper §2.5):

* **Mode 1** (``auto_backends=True``, default): MRNet "creates the
  internal and back-end processes" — every back-end object is built
  and connected immediately; reach them via :attr:`Network.backends`.
* **Mode 2** (``auto_backends=False``): only the internal tree is
  created; a process-management system starts the tool back-ends,
  modelled by calling :meth:`Network.attach_backend` later with "the
  information needed to connect to the MRNet internal process tree"
  already wired into the reserved leaf slot.

The front-end is passive: API calls pump its :class:`NodeCore`.  All
front-end methods must be called from one thread.
"""

from __future__ import annotations

import json
import os
import queue
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..filters.registry import (
    SFILTER_WAITFORALL,
    TFILTER_NULL,
    FilterRegistry,
    default_registry,
)
from ..obs.metrics import prometheus_text
from ..obs.snapshot import STATS_SCHEMA, loads_snapshot
from ..obs.tracing import TraceRecorder, to_chrome_trace
from ..topology.parser import parse_config, parse_config_file
from ..topology.placement import TRANSPORTS, plan_placement
from ..topology.spec import TopologyNode, TopologySpec
from ..transport.channel import Channel, ChannelEnd, Inbox
from .backend import BackEnd
from .commnode import CommNode, NodeCore, NodeHost
from .communicator import Communicator
from .failure import (
    DEGRADE,
    FAIL_FAST,
    POLICIES,
    REPAIR,
    HeartbeatConfig,
    RanksChanged,
    RecoveryCoordinator,
)
from .chunking import ReceiveWindow
from .packet import Packet
from .protocol import (
    FIRST_STREAM_ID,
    TAG_CHUNK,
    WAVE_PATTERNS,
    WAVE_REDUCE,
    WAVE_REDUCE_TO_ALL,
    make_close_stream,
    make_new_stream,
    make_new_streams,
    make_shutdown,
    make_stats_request,
    parse_addr_report,
    parse_leave,
    parse_ranks_changed,
    parse_stats_reply,
)
from .stream import Stream

__all__ = ["Network", "NetworkError", "NetworkDownError"]


class NetworkError(RuntimeError):
    """Raised for network life-cycle errors."""


class NetworkDownError(NetworkError):
    """The network is unusable: shut down, or poisoned under
    ``fail_fast`` by an observed failure.

    ``cause`` carries a description of the *first* root-cause failure
    (e.g. which link died), so a tool's error report can name the
    culprit rather than the symptom.
    """

    def __init__(self, message: str, cause: Optional[str] = None):
        if cause:
            message = f"{message} (first failure: {cause})"
        super().__init__(message)
        self.cause = cause


class _FrontEndCore(NodeCore):
    """The root NodeCore: upstream outputs land in per-stream queues."""

    def __init__(self, registry: FilterRegistry, expected_ranks: int, clock):
        super().__init__("front-end", registry, expected_ranks, None, clock)
        self.obs_rank = 0
        self.stream_queues: Dict[int, Deque[Packet]] = {}
        self.default_queue: Deque[Packet] = deque()
        # Optional per-stream delivery sinks: when a callable is
        # registered for a stream, reassembled upstream packets are
        # handed to it instead of the delivery queue.  The serving
        # gateway (:mod:`repro.gateway`) uses this to demultiplex
        # shared-stream results to client sessions without a second
        # copy through the queue.
        self.delivery_sinks: Dict[int, Callable[[Packet], None]] = {}
        # Fault-tolerance bookkeeping surfaced through the Network API:
        # RANKS_CHANGED notifications (see Network.recovery_events) and
        # the first observed failure (fail_fast poisoning).
        self.recovery_events: List[RanksChanged] = []
        self.first_failure: Optional[str] = None
        # Ranks that announced a voluntary TAG_LEAVE: their lost
        # events are expected departures, not failures.
        self._left_ranks: set = set()
        # In-flight STATS_SNAPSHOT gathers: request id -> {node: metrics}.
        self.stats_replies: Dict[int, Dict[str, dict]] = {}
        # Recursive instantiation: internal nodes announce their
        # listener addresses up the tree (label -> (host, port)).
        self.addr_reports: Dict[str, Tuple[str, int]] = {}
        # Per-(stream, origin) fragment reassembly for local delivery:
        # chunked results are rebuilt into whole packets before a tool
        # ever sees them, keyed by origin because fragments relayed
        # from distinct back-ends may interleave at the root.
        self.reassembly = ReceiveWindow()

    def _note_addr_report(self, packet: Packet) -> None:
        label, host, port = parse_addr_report(packet)
        self.addr_reports[label] = (host, port)

    def deliver_local(self, packet: Packet) -> None:
        """Root upstream sink: route to the stream's delivery queue.

        Reduce-to-all streams turn every arriving result around here —
        broadcast back down the same stream, fragment by fragment, so
        the down-multicast pipelines just like the up-reduction did.
        Fragments are also reassembled into whole packets for the
        tool-facing delivery queue.
        """
        manager = self.streams.get(packet.stream_id)
        if manager is not None and manager.wave_pattern == WAVE_REDUCE_TO_ALL:
            self._handle_data_down(packet)
        if packet.tag == TAG_CHUNK:
            packet = self.reassembly.add(
                (packet.stream_id, packet.origin_rank), packet
            )
            if packet is None:
                return
        sink = self.delivery_sinks.get(packet.stream_id)
        if sink is not None:
            sink(packet.materialize())
            return
        self.stream_queues.get(packet.stream_id, self.default_queue).append(
            packet.materialize()
        )

    def _handle_leave(self, link_id: int, packet: Packet) -> None:
        # Record the voluntary departure before any lost event for
        # this rank (the handler's own, or a descendant's riding the
        # same link) is processed.
        self._left_ranks.add(parse_leave(packet))
        super()._handle_leave(link_id, packet)

    def _note_ranks_changed(self, packet: Packet) -> None:
        stream_id, epoch, lost, gained = parse_ranks_changed(packet)
        self.recovery_events.append(RanksChanged(stream_id, epoch, lost, gained))
        # A rank that rejoins sheds its "left" marker: a later loss of
        # the reused rank is a failure again.
        self._left_ranks.difference_update(gained)
        failed = [r for r in lost if r not in self._left_ranks]
        if failed:
            # Deep failures reach the root only as membership loss
            # (their EOF happened hops away); under fail_fast this is
            # the poisoning signal.  A voluntary TAG_LEAVE always
            # precedes its own lost event, so clean departures never
            # land here.
            self._note_failure(f"ranks {failed} lost from stream {stream_id}")
        # Membership changes fire both directions: besides surfacing
        # the event to the tool, flood it back down so surviving
        # back-ends observe joins/leaves/failures too (they record
        # them in ``BackEnd.membership_events``).
        self.handle_control_down(packet)

    def _note_stats_reply(self, packet: Packet) -> None:
        request_id, payload = parse_stats_reply(packet)
        doc = loads_snapshot(payload)
        if doc is None:
            return
        bucket = self.stats_replies.get(request_id)
        if bucket is not None:
            bucket[str(doc["node"])] = doc["metrics"]

    def _note_failure(self, description: str) -> None:
        if self.first_failure is None:
            self.first_failure = description

    def _handle_link_closed(self, link_id: int) -> None:
        if link_id not in self._announced_leaving:
            # A voluntary leave's EOF is expected, not a failure — it
            # must not poison a fail_fast network.
            self._note_failure(f"link {link_id} closed at front-end")
        super()._handle_link_closed(link_id)


class _LeafSlot:
    """A reserved attachment point for one back-end (mode 2 support).

    With in-process transports the channel to the parent is pre-wired
    (``parent_end``); with the process transport only the parent's TCP
    address is known and the connection is made at attach time.
    """

    def __init__(
        self,
        rank: int,
        label: str,
        parent_end: Optional[ChannelEnd] = None,
        inbox: Optional[Inbox] = None,
        parent_addr: Optional[tuple] = None,
        shm: bool = False,
    ):
        self.rank = rank
        self.label = label
        self.parent_end = parent_end
        self.inbox = inbox
        self.parent_addr = parent_addr
        self.shm = shm  # offer the shared-memory upgrade at attach
        self.backend: Optional[BackEnd] = None
        self.topo_key: Optional[tuple] = None  # set for thread-hosted nets
        self.claimed = False  # attach_backend in flight (thread safety)

    def connect(self) -> tuple:
        """Materialize (parent_end, inbox) for this slot.

        TCP attachment retries with capped exponential backoff: one
        long blocking connect would stall the whole instantiation on a
        parent that is still coming up, and a parent that never comes
        up surfaces as an
        :class:`~repro.core.failure.InstantiationError` naming the
        unreachable address instead of a bare socket timeout.
        """
        if self.parent_end is not None:
            return self.parent_end, self.inbox
        from ..transport.tcp import tcp_connect_retry

        self.inbox = Inbox()
        self.parent_end = tcp_connect_retry(
            self.parent_addr, self.inbox, attempts=6, timeout=5.0,
            shm=self.shm,
        )
        return self.parent_end, self.inbox


class Network:
    """A live MRNet network instantiation rooted at this front-end."""

    PUMP_QUANTUM = 0.005

    def __init__(
        self,
        topology: TopologySpec | str | Path,
        registry: Optional[FilterRegistry] = None,
        auto_backends: bool = True,
        startup_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        transport: str = "local",
        filter_specs: Optional[List[tuple]] = None,
        policy: str = DEGRADE,
        heartbeat_interval: float = 0.0,
        heartbeat_miss_threshold: int = 3,
        checkpoint_interval: float = 0.0,
        colocate: bool = False,
    ):
        """Instantiate the network.

        ``transport`` and ``colocate`` are the two placement choices;
        :func:`repro.topology.plan_placement` turns them, with the
        topology's hosts, into a host group per internal node and a
        link kind per edge, and the builders walk that plan:

        * ``"local"`` (default) — every internal node is a loop thread
          of this process, edges are in-process mailboxes;
        * ``"tcp"`` — the same threads, framed loopback sockets;
        * ``"process"`` — each internal process is a separate
          ``mrnet_commnode`` OS process (the paper's architecture).
          The front-end starts its direct children and hands each its
          whole subtree; every process then forks its own children, so
          the tree builds in O(depth) spawn rounds (§2.5, Figure 5)
          and back-end attach points arrive via ``TAG_ADDR_REPORT``
          control packets.  Edges are TCP, except that an edge whose
          two processes share a *topology host* offers the
          shared-memory ring transport (:mod:`repro.transport.shm`;
          refusal or failure falls back to TCP) — with the default
          generators every process gets its own synthetic host, so
          nothing upgrades unless the topology expresses co-location.
          Custom filters must be supplied as ``filter_specs=[(path,
          func_name[, fmt]), ...]`` so every process loads them in the
          same order (the shared-object shipping model of §2.4); they
          are also loaded into this front-end's registry, ids assigned
          in list order.

        ``colocate=True`` hosts every internal process of a
        ``transport="local"`` tree on ONE shared selector loop (a
        single ``colocated-host`` thread) instead of one thread per
        comm node; comm-to-comm edges become in-process
        :class:`~repro.transport.inproc.InprocLink` hand-offs.  For
        ``transport="process"`` it instead packs each chain of
        same-host internal nodes into one ``mrnet_commnode`` process.

        ``policy`` selects what a process failure means (see
        :mod:`repro.core.failure`): ``"fail_fast"`` poisons the
        network on the first failure, ``"degrade"`` (default) shrinks
        the tree and reconfigures in-flight waves over the survivors,
        ``"repair"`` additionally re-attaches orphans to their
        grandparent.  Repair covers every transport: thread-hosted
        trees (including ``colocate=True``) heal through the
        in-process recovery coordinator, while ``transport="process"``
        internal nodes receive their ancestor addresses at spawn time
        and re-dial the nearest live one on parent death.
        ``heartbeat_interval`` > 0 enables liveness probes between
        internal processes with the given period;
        ``heartbeat_miss_threshold`` intervals of total silence
        declare a peer dead.  ``checkpoint_interval`` > 0 makes every
        internal node periodically deposit per-stream filter-state
        checkpoints with its parent (see ``docs/fault_tolerance.md``),
        so an adopter can resume a dead node's partial reductions.
        """
        if transport not in TRANSPORTS:
            raise NetworkError(f"unknown transport {transport!r}")
        if policy not in POLICIES:
            raise NetworkError(f"unknown failure policy {policy!r}")
        if colocate and transport == "tcp":
            raise NetworkError(
                "colocate=True requires transport 'local' or 'process': "
                "thread-hosted TCP nodes already share the front-end "
                "address space via channels"
            )
        self.colocate = colocate
        self.transport = transport
        self.policy = policy
        self._startup_timeout = startup_timeout
        self.heartbeat = HeartbeatConfig(
            interval=heartbeat_interval, miss_threshold=heartbeat_miss_threshold
        )
        if checkpoint_interval < 0:
            raise NetworkError("checkpoint_interval must be >= 0")
        self.checkpoint_interval = checkpoint_interval
        self.topology = self._resolve_topology(topology)
        self._plan = plan_placement(self.topology, transport, colocate)
        self.registry = registry if registry is not None else default_registry()
        self.filter_specs = [tuple(s) for s in (filter_specs or [])]
        self.filter_ids: List[int] = []
        for spec in self.filter_specs:
            path, func = spec[0], spec[1]
            fmt = spec[2] if len(spec) > 2 else None
            self.filter_ids.append(
                self.registry.load_filter_func(path, func, fmt)
            )
        self._clock = clock
        leaves = self.topology.leaves()
        self._core = _FrontEndCore(self.registry, len(leaves), clock)
        self._commnodes: List[CommNode] = []
        self._hosts: List[NodeHost] = []  # loop threads, one per host group
        self._procs: List = []  # subprocess.Popen, process transport only
        self._listener = None
        self._slots: Dict[int, _LeafSlot] = {}
        self._next_stream_id = FIRST_STREAM_ID
        self._streams: Dict[int, Stream] = {}
        self._down = False
        # Process-transport repair: orphans whose nearest live
        # ancestor is the front-end re-dial our listener; the pump
        # then polls it for late accepts (set after startup so the
        # bootstrap accepts stay blocking and counted).
        self._accept_repairs = transport == "process" and policy == REPAIR
        # attach_backend claim serialization (mode-2 callers may race
        # from several threads); the pump itself stays single-threaded.
        self._attach_lock = threading.Lock()
        self._home_thread = threading.get_ident()
        self._tracers: List[TraceRecorder] = []
        self._stats_seq = 0
        # Every transport gets a per-network recovery coordinator:
        # stats aggregation always, adoption brokering under the
        # repair policy, and parent selection for elastic joins.  The
        # process transport's internal nodes live in other address
        # spaces, so they are registered by listener address
        # (``register_remote``) and repaired by re-dialing; back-ends
        # always live in this process either way.
        self._recovery: Optional[RecoveryCoordinator] = RecoveryCoordinator(
            transport=transport, clock=clock
        )
        self._recovery.register_frontend(self.topology.root.key, self._core)
        # The front-end never emits probes itself (it is pumped only by
        # API calls, so probe cadence could not be guaranteed); it still
        # consumes probes from children and reacts to EOFs.
        self._core.configure_failure(
            policy=policy, recovery=self._recovery, topo_key=self.topology.root.key
        )
        try:
            if transport == "process":
                self._build_tree_recursive(leaves)
            else:
                self._build_tree(leaves)
            # Observability identities: the front-end is rank 0, comm
            # nodes take 1..N in construction order (process transport:
            # breadth-first, shipped in the subtree specs).
            self._core.obs_rank = 0
            for i, node in enumerate(self._commnodes, start=1):
                node.core.obs_rank = i
            for node in self._commnodes:
                node.start()
            if auto_backends:
                if transport == "process" and len(self._slots) > 1:
                    self._attach_all_backends()
                else:
                    for rank in sorted(self._slots):
                        self.attach_backend(rank)
                self.wait_for_ready(startup_timeout)
        except BaseException:
            # Failed startup must not leak threads/processes/sockets —
            # and a later shutdown() call on the half-built network
            # must be a safe no-op.
            try:
                self.shutdown(join_timeout=1.0)
            except Exception:
                pass
            raise

    # -- construction -----------------------------------------------------

    @staticmethod
    def _resolve_topology(topology) -> TopologySpec:
        if isinstance(topology, TopologySpec):
            return topology
        text = str(topology)
        if "=>" in text:
            return parse_config(text)
        return parse_config_file(text)

    def _build_tree(self, leaves: List[TopologyNode]) -> None:
        """Thread-hosted instantiation: walk the placement plan.

        Every host group becomes one :class:`NodeHost` loop thread (a
        solo node is a host with one core; ``colocate=True`` is one
        host with all of them, so the steady-state thread census for
        the whole tree is one thread), and every edge is made of what
        the plan says.  The front-end and the back-ends
        are passive — pumped by API calls, not by a loop — so their
        ends receive into inboxes.
        """
        plan = self._plan
        rank_of = {leaf.key: i for i, leaf in enumerate(leaves)}
        cores: Dict[Tuple[str, int], NodeCore] = {self.topology.root.key: self._core}
        hosts: Dict[int, NodeHost] = {}

        def host_of(node: TopologyNode) -> Optional[NodeHost]:
            """The loop thread of *node*'s group (None: a passive process)."""
            group = plan.group_of.get(node.key)
            if group is None:
                return None
            if group not in hosts:
                hosts[group] = NodeHost(
                    "colocated-host" if self.colocate else f"commnode-{node.label}",
                    clock=self._clock,
                )
                self._hosts.append(hosts[group])
            return hosts[group]

        for node in self.topology.nodes():  # preorder: parents first
            if node.is_leaf:
                continue
            parent_core = cores[node.key]
            parent_host = host_of(node)
            for child in node.children:
                host = host_of(child)
                inbox = Inbox()
                parent_side, child_side = self._make_edge(
                    plan.kind_of[child.key], parent_core, parent_host, inbox, host
                )
                parent_core.add_child(parent_side)
                if child.is_leaf:
                    rank = rank_of[child.key]
                    slot = self._slots[rank] = _LeafSlot(
                        rank, child.label, child_side, inbox
                    )
                    slot.topo_key = child.key
                    self._recovery.register_backend(child.key, node.key, slot)
                    continue
                comm = host.add_node(
                    child.label,
                    self.registry,
                    sum(1 for n in _iter_subtree(child) if n.is_leaf),
                    child_side,
                    inbox,
                )
                cores[child.key] = comm.core
                self._commnodes.append(comm)
                # Orphans repair through the coordinator (grandparent
                # lookup and edge construction happen there).
                comm.core.configure_failure(
                    policy=self.policy,
                    heartbeat=self.heartbeat,
                    recovery=self._recovery,
                    topo_key=child.key,
                    repair_fn=(
                        self._make_repair_fn(child.key, inbox)
                        if self.policy == REPAIR
                        else None
                    ),
                    checkpoint_interval=self.checkpoint_interval,
                )
                self._recovery.register_commnode(child.key, node.key, comm)

    @staticmethod
    def _make_edge(
        kind: str,
        parent_core: NodeCore,
        parent_host: Optional[NodeHost],
        child_inbox: Inbox,
        child_host: Optional[NodeHost],
    ) -> tuple:
        """One in-process edge of *kind*: ``(parent_side, child_side)``.

        A side whose process runs on a loop (``*_host`` given) is
        owned by that loop; a passive side receives into its inbox.
        """
        if kind == "channel":
            channel = Channel(parent_core.inbox, child_inbox)
            # end_a sends toward the child; it is the parent's end.
            return channel.end_a, channel.end_b
        if kind == "inproc":
            return child_host.loop.add_inproc_pair(parent_core)
        import socket

        from ..transport.tcp import _passive_end

        sock_parent, sock_child = socket.socketpair()
        if parent_host is not None:
            parent_side = parent_host.loop.add_socket(sock_parent, core=parent_core)
        else:
            parent_side = _passive_end(sock_parent, None, parent_core.inbox)
        if child_host is not None:
            child_side = child_host.loop.add_socket(sock_child)
        else:
            child_side = _passive_end(sock_child, None, child_inbox)
        return parent_side, child_side

    def _make_repair_fn(self, key: tuple, inbox: Inbox):
        """An orphan's path back into the tree: adopt via coordinator."""
        recovery = self._recovery

        def repair():
            return recovery.adopt(key, inbox)

        return repair

    def _build_tree_recursive(self, leaves: List[TopologyNode]) -> None:
        """Parallel recursive instantiation (paper §2.5, Figure 5).

        The front-end launches only the root's direct internal
        children, handing each its *entire subtree* — placement plan
        included — as a JSON spec on the command line; every internal
        process then creates its own children concurrently
        (``mrnet_commnode --subtree``), so the tree builds in O(depth)
        sequential spawn rounds, not O(internal nodes).

        Grandchildren are other processes' children, so every internal
        node announces ``label host port`` up the data plane via
        ``TAG_ADDR_REPORT``; instantiation completes when all
        announcements arrived, and back-end slots aim at their
        parent's announced address.
        """
        import subprocess
        import sys

        from ..mrnet_commnode import RecursiveOpts, subtree_spec
        from ..transport.tcp import TcpListener

        rank_of = {leaf.key: i for i, leaf in enumerate(leaves)}
        self._listener = TcpListener(self._core.inbox)
        root = self.topology.root

        plan = self._plan
        # Breadth-first observability ranks.
        obs_rank: Dict[tuple, int] = {}
        expected_labels = set()
        bfs: Deque[TopologyNode] = deque([root])
        while bfs:
            node = bfs.popleft()
            for child in node.children:
                if not child.is_leaf:
                    obs_rank[child.key] = len(obs_rank) + 1
                    expected_labels.add(child.label)
                    bfs.append(child)

        opts = RecursiveOpts(
            filter_specs=self.filter_specs,
            heartbeat=self.heartbeat,
            repair=self.policy == REPAIR,
            checkpoint_interval=self.checkpoint_interval,
        )
        direct_internal = [c for c in root.children if not c.is_leaf]
        for child in direct_internal:
            cmd = [
                sys.executable,
                "-m",
                "repro.mrnet_commnode",
                "--parent",
                f"127.0.0.1:{self._listener.address[1]}",
                "--subtree",
                json.dumps(
                    subtree_spec(child, obs_rank, plan), separators=(",", ":")
                ),
            ] + opts.command_line()
            # stderr goes to a file, shared with every process this one
            # forks: a file never fills up and blocks a chatty child the
            # way an undrained pipe would, and it keeps the last words
            # _proc_diagnostics quotes.
            log = tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
            except BaseException:
                log.close()
                raise
            proc.label = child.label
            proc.stderr_log = log
            self._procs.append(proc)

        # Accept the root's direct internal children as they dial in.
        for _ in direct_internal:
            try:
                end = self._listener.accept(timeout=self._startup_timeout)
            except Exception as exc:
                raise NetworkError(
                    f"recursive instantiation: a root child never "
                    f"connected ({exc}; {self._proc_diagnostics()})"
                ) from None
            self._core.add_child(end)

        # Pump until every internal node announced its listener.
        deadline = time.monotonic() + self._startup_timeout
        while not expected_labels <= self._core.addr_reports.keys():
            dead = [p for p in self._procs if p.poll() is not None]
            if dead:
                raise NetworkError(
                    "recursive instantiation: child process died before "
                    f"the tree was up ({self._proc_diagnostics()})"
                )
            if time.monotonic() > deadline:
                missing = sorted(
                    expected_labels - self._core.addr_reports.keys()
                )
                raise NetworkError(
                    f"recursive instantiation timed out: no address "
                    f"report from {missing} ({self._proc_diagnostics()})"
                )
            self._pump(self._pump_quantum())

        # Every internal node joins the coordinator's member registry
        # by its announced address, so orphaned back-ends can walk to
        # a live ancestor and elastic joins can pick an out-of-process
        # parent.  A Popen handle exists only for the front-end's own
        # children (deeper processes are theirs); the nodes a direct
        # child hosts in its group share its handle.
        proc_of_group = {
            plan.group_of[child.key]: proc
            for child, proc in zip(direct_internal, self._procs)
        }
        for node in self.topology.internal_nodes():
            self._recovery.register_remote(
                node.key,
                self.topology.parent_of(node).key,
                self._core.addr_reports[node.label],
                proc=proc_of_group.get(plan.group_of[node.key]),
            )

        # Back-end slots aim at their parent's announced address and
        # offer the shared-memory upgrade where the plan says so.
        for leaf in leaves:
            parent = self.topology.parent_of(leaf)
            if parent is root:
                addr = self._listener.address
            else:
                addr = self._core.addr_reports[parent.label]
            slot = self._slots[rank_of[leaf.key]] = _LeafSlot(
                rank_of[leaf.key],
                leaf.label,
                parent_addr=addr,
                shm=plan.kind_of[leaf.key] == "shm",
            )
            slot.topo_key = leaf.key
            self._recovery.register_backend(leaf.key, parent.key, slot)

    def _proc_diagnostics(self) -> str:
        """One line of post-mortem per spawned child process."""
        parts = []
        for proc in self._procs:
            code = proc.poll()
            state = "alive" if code is None else f"exit={code}"
            tail = _last_lines(proc.stderr_log, 3)
            if tail:
                state += " | " + " / ".join(tail)
            parts.append(f"{proc.label}: {state}")
        return "; ".join(parts) if parts else "no children spawned"

    def _connect_accept_root_leaf(self, slot: _LeafSlot) -> tuple:
        """Connect a front-end-parented back-end, accepting in parallel.

        The accept must overlap the connect: a shared-memory offer
        blocks the connector until the acceptor answers, so a serial
        connect-then-accept would deadlock.  The accepted end is
        admitted immediately on the front-end's home thread, otherwise
        parked for the next pump (NodeCore admission is
        single-threaded).
        """
        box: Dict[str, object] = {}

        def do_accept():
            try:
                box["end"] = self._listener.accept(timeout=30)
            except Exception as exc:
                box["err"] = exc

        acceptor = threading.Thread(
            target=do_accept, name=f"accept-rank{slot.rank}", daemon=True
        )
        acceptor.start()
        try:
            parent_end, inbox = slot.connect()
        finally:
            acceptor.join(timeout=35.0)
        end = box.get("end")
        if end is None:
            raise NetworkError(
                f"front-end accept for back-end rank {slot.rank} failed: "
                f"{box.get('err')!r}"
            )
        if threading.get_ident() == self._home_thread:
            self._core.add_child(end)
        else:
            self._core.offer_child(end, adopted=False)
        return parent_end, inbox

    # -- back-end management ------------------------------------------------

    def attach_backend(self, rank: Optional[int] = None) -> BackEnd:
        """Create and connect a back-end (mode 2 API + elastic joins).

        With *rank* naming a reserved leaf slot, this is the classic
        mode-2 attach: the back-end connects through the slot wired at
        instantiation.  With ``rank=None`` (or a rank the topology
        never reserved) the back-end *joins the running network*
        elastically: the recovery coordinator picks a parent (the live
        comm node with the fewest children, or the front-end), a fresh
        edge is manufactured, and the back-end announces itself with a
        ``TAG_JOIN`` control packet that doubles as its §2.5 endpoint
        report — every ancestor splices the new rank into routing and
        into the currently open streams at a wave-epoch boundary, and
        ``RanksChanged`` events fire both up (to the tool) and down
        (to the surviving back-ends).

        Thread-safe: concurrent callers attaching *different* ranks
        proceed in parallel (each slot is claimed under a lock), which
        is how a process-management system would bring up many tool
        back-ends at once.  Attaching the same rank twice raises.
        """
        if rank is None or rank not in self._slots:
            return self._attach_joining(rank)
        slot = self._slots[rank]
        with self._attach_lock:
            if slot.backend is not None or slot.claimed:
                raise NetworkError(f"back-end rank {rank} already attached")
            slot.claimed = True
        try:
            root_leaf = (
                self.transport == "process"
                and self._listener is not None
                and slot.parent_addr == self._listener.address
            )
            if root_leaf:
                # A back-end parented directly by the front-end:
                # complete the TCP accept on our own listener while
                # the connect is in flight.
                parent_end, inbox = self._connect_accept_root_leaf(slot)
            else:
                parent_end, inbox = slot.connect()
            backend = BackEnd(rank, slot.label, parent_end, inbox)
            if (
                self.policy == REPAIR
                and self._recovery is not None
                and slot.topo_key is not None
            ):
                backend.repair_fn = self._make_repair_fn(slot.topo_key, inbox)
            backend.connect()
        except BaseException:
            with self._attach_lock:
                slot.claimed = False
            raise
        slot.backend = backend
        return backend

    def _attach_joining(
        self, rank: Optional[int], exclude: tuple = ()
    ) -> BackEnd:
        """Join a brand-new back-end rank to the *running* network.

        See :meth:`attach_backend`; this is the elastic-membership
        path for ranks the topology never reserved.  *exclude* lists
        coordinator member keys that must not be chosen as the parent
        (used by :meth:`rebalance` to move a back-end *off* a node).
        """
        self._check_up()
        if not self._core.ready:
            raise NetworkError(
                f"cannot join rank {rank}: network is not ready yet "
                "(elastic joins extend a running network)"
            )
        with self._attach_lock:
            if rank is None:
                used = set(self._slots) | set(self._core.reported_ranks)
                rank = max(used, default=-1) + 1
            elif rank in self._slots or rank in self._core.reported_ranks:
                raise NetworkError(f"back-end rank {rank} already attached")
            slot = _LeafSlot(rank, f"joined:{rank}")
            slot.claimed = True
            self._slots[rank] = slot
        try:
            parent_end, inbox, parent_key = self._make_join_parent(
                slot, exclude=exclude
            )
            backend = BackEnd(rank, slot.label, parent_end, inbox)
            stream_ids = sorted(self._streams)
            for sid in stream_ids:
                # Pre-seed the stream handles the join enters: the
                # joiner missed the NEW_STREAM broadcast, but this
                # front-end knows every open stream's parameters.
                backend.register_stream(
                    sid, chunk_bytes=self._streams[sid].chunk_bytes or 0
                )
            topo_key = ("joined", rank)
            slot.topo_key = topo_key
            if self._recovery is not None:
                self._recovery.register_backend(topo_key, parent_key, slot)
                if self.policy == REPAIR:
                    backend.repair_fn = self._make_repair_fn(topo_key, inbox)
            backend.join(stream_ids)
        except BaseException:
            with self._attach_lock:
                self._slots.pop(rank, None)
            raise
        slot.backend = backend
        slot.parent_end = parent_end
        slot.inbox = inbox
        return backend

    def _make_join_parent(self, slot: _LeafSlot, exclude: tuple = ()) -> tuple:
        """Manufacture a joining back-end's uplink; returns
        ``(parent_end, inbox, parent_topo_key)``.

        Thread-hosted transports always go through the coordinator
        (in-process or socketpair edge to the least-loaded live comm
        node).  The process transport dials a live ``mrnet_commnode``
        listener under the repair policy (they keep accepting); in any
        other case — or when that dial fails — it falls back to the
        front-end's own listener.
        """
        recovery = self._recovery
        dialable = self.transport != "process" or self.policy == REPAIR
        if recovery is not None and dialable:
            member = recovery.choose_adopter(exclude=exclude)
            if member is not None:
                inbox = Inbox()
                end = recovery.make_join_edge(member, inbox)
                if end is not None:
                    return end, inbox, member.key
        if self.transport == "process" and self._listener is not None:
            slot.parent_addr = self._listener.address
            end, inbox = self._connect_accept_root_leaf(slot)
            return end, inbox, self.topology.root.key
        raise NetworkError(
            f"no live parent available for joining rank {slot.rank}"
        )

    def _attach_all_backends(self) -> None:
        """Mode-1 attach, concurrently (paper §2.5, Figure 5).

        Every leaf's TCP connect — and optional shared-memory upgrade
        handshake — runs in its own worker; the serial loop pays one
        connection round-trip per back-end, which dominates start-up
        once the internal tree builds in O(depth).
        """
        from concurrent.futures import ThreadPoolExecutor

        ranks = sorted(self._slots)
        with ThreadPoolExecutor(
            max_workers=min(32, len(ranks)), thread_name_prefix="attach"
        ) as pool:
            futures = [(r, pool.submit(self.attach_backend, r)) for r in ranks]
            for _rank, fut in futures:
                fut.result()

    def rebalance(
        self,
        max_moves: int = 1,
        load_fn: Optional[Callable[[NodeCore], float]] = None,
        settle_timeout: float = 10.0,
    ) -> List[dict]:
        """Re-home back-ends off hot internal nodes (ROADMAP item 2).

        Sensor → actuator pass over the running tree: per-node load is
        read from the in-process metrics registries (default:
        ``packets_up``, the data packets a comm node has received from
        its children), and the most-loaded comm node with at least one
        directly attached back-end is *evacuated* one back-end at a
        time using the elastic-membership machinery — the back-end
        announces a graceful ``TAG_LEAVE``, and the same rank rejoins
        under the least-loaded parent, with the hot node excluded from
        adopter choice.  Open streams follow automatically: the leave
        retires the rank at a wave-epoch boundary and the join splices
        it back in, so waves never stall mid-move.

        Stops early when the tree is already balanced (the hottest
        candidate is no hotter than the best alternative parent).
        Returns one record per move: ``{"rank", "from", "to",
        "backend"}`` — callers must use the returned (new)
        :class:`BackEnd` objects; the old handles are detached.

        *load_fn* overrides the sensor (a callable on a
        :class:`NodeCore` returning a number).  Requires a
        thread-hosted transport (the process transport would need
        remote actuation of ``leave()``).
        """
        self._check_up()
        if self.transport == "process":
            raise NetworkError(
                "rebalance() requires a thread-hosted transport: process-"
                "transport back-end leave/rejoin is driven by the tool"
            )
        if self._recovery is None:
            raise NetworkError("rebalance() requires the recovery coordinator")
        if load_fn is None:
            def load_fn(core):
                return core.metrics.counter("packets_up").value
        recovery = self._recovery
        moves: List[dict] = []
        for _ in range(max_moves):
            loads: Dict[tuple, float] = {}
            for member in recovery.members("commnode"):
                core = member.core
                if core is None or core.crashed or core.shutting_down:
                    continue
                loads[member.key] = load_fn(core)
            if not loads:
                break
            # Movable back-ends grouped under their current parents.
            children: Dict[tuple, List] = {}
            for member in recovery.members("backend"):
                slot = member.slot
                backend = getattr(slot, "backend", None)
                if backend is None or backend.shut_down or backend.left:
                    continue
                children.setdefault(member.parent_key, []).append(member)
            candidates = [k for k in loads if children.get(k)]
            if not candidates:
                break
            hot_key = max(candidates, key=lambda k: loads[k])
            coolest = min(
                (loads[k] for k in loads if k != hot_key), default=0.0
            )
            if loads[hot_key] <= coolest:
                break  # already balanced
            victim = min(children[hot_key], key=lambda m: m.slot.rank)
            rank = victim.slot.rank
            victim.slot.backend.leave()
            deadline = self._clock() + settle_timeout
            while rank in self._core.reported_ranks:
                if self._clock() > deadline:
                    raise NetworkError(
                        f"rebalance: rank {rank} leave did not settle "
                        f"within {settle_timeout}s"
                    )
                self._pump(self._pump_quantum())
            with self._attach_lock:
                self._slots.pop(rank, None)
            recovery.unregister(victim.key)
            backend = self._attach_joining(rank, exclude=(hot_key,))
            new_member = recovery.member(("joined", rank))
            moves.append(
                {
                    "rank": rank,
                    "from": hot_key,
                    "to": new_member.parent_key if new_member else None,
                    "backend": backend,
                }
            )
        return moves

    @property
    def backends(self) -> Dict[int, BackEnd]:
        """Attached back-ends by rank (complete in mode 1)."""
        return {
            rank: slot.backend
            for rank, slot in self._slots.items()
            if slot.backend is not None
        }

    def wait_for_ready(self, timeout: float = 30.0) -> None:
        """Pump until every back-end's endpoint report arrived (§2.5)."""
        deadline = self._clock() + timeout
        while not self._core.ready:
            if self._clock() > deadline:
                raise NetworkError(
                    f"network start-up timed out: "
                    f"{len(self._core.reported_ranks)}/"
                    f"{self._core.expected_ranks} back-ends reported"
                )
            self._pump(self._pump_quantum())

    @property
    def ready(self) -> bool:
        """True once every expected back-end has reported in."""
        return self._core.ready

    @property
    def endpoints(self) -> frozenset:
        """Ranks of all reported back-ends."""
        return frozenset(self._core.reported_ranks)

    @property
    def num_internal_nodes(self) -> int:
        """Comm nodes between the front-end and the leaves."""
        return len(self._commnodes)

    # -- communicators & streams ----------------------------------------------

    def get_broadcast_communicator(self) -> Communicator:
        """A communicator over every available end-point (Figure 2)."""
        self._check_up()
        if not self._core.ready:
            raise NetworkError("network is not ready yet")
        return Communicator(self, self._core.reported_ranks)

    def new_communicator(self, ranks: Iterable[int]) -> Communicator:
        """A communicator over an arbitrary subset of end-points."""
        self._check_up()
        return Communicator(self, ranks)

    def new_stream(
        self,
        communicator: Communicator,
        transform: int = TFILTER_NULL,
        sync: int = SFILTER_WAITFORALL,
        sync_timeout: float = 0.0,
        down_transform: int = 0,
        chunk_bytes: Optional[int] = None,
        pattern: int = WAVE_REDUCE,
    ) -> Stream:
        """Create a stream over *communicator* with the given filters.

        ``transform``/``sync`` are filter ids from this network's
        registry (built-ins or ``load_filter_func`` results).

        ``chunk_bytes`` enables pipelined waves: array payloads larger
        than this many bytes travel as chunk fragments, and chunkwise
        reductions (min/max/sum/avg under Wait-For-All) run
        incrementally per fragment at every hop.  ``None`` (default)
        preserves whole-wave behaviour byte-exactly.  ``pattern``
        selects the wave pattern: ``WAVE_REDUCE`` (classic reduction)
        or ``WAVE_REDUCE_TO_ALL`` (result also broadcast back down to
        all back-ends; see :meth:`Stream.allreduce`).
        """
        self._check_up()
        if communicator.network is not self:
            raise NetworkError("communicator belongs to a different network")
        if not self.registry.is_transform(transform):
            raise NetworkError(f"unknown transformation filter id {transform}")
        if not self.registry.is_sync(sync):
            raise NetworkError(f"unknown synchronization filter id {sync}")
        if down_transform and not self.registry.is_transform(down_transform):
            raise NetworkError(f"unknown downstream filter id {down_transform}")
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise NetworkError("chunk_bytes must be positive (or None)")
        if pattern not in WAVE_PATTERNS:
            raise NetworkError(f"unknown wave pattern {pattern}")
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        self._core.stream_queues[stream_id] = deque()
        packet = make_new_stream(
            stream_id,
            sorted(communicator.ranks),
            sync,
            transform,
            sync_timeout,
            down_transform,
            chunk_bytes=chunk_bytes or 0,
            wave_pattern=pattern,
        )
        self._core.handle_control_down(packet)
        self._core.flush()
        stream = Stream(
            self, stream_id, communicator, chunk_bytes=chunk_bytes, pattern=pattern
        )
        self._streams[stream_id] = stream
        return stream

    def new_streams(
        self,
        specs: Iterable[tuple],
    ) -> List[Stream]:
        """Create many streams with ONE downstream control wave.

        *specs* is an iterable of ``(communicator, kwargs)`` pairs —
        each ``kwargs`` dict accepts exactly the keyword arguments of
        :meth:`new_stream` (``transform``, ``sync``, ``sync_timeout``,
        ``down_transform``, ``chunk_bytes``, ``pattern``) — or bare
        ``communicator`` objects for all-default streams.

        This is the many-stream fast path (ROADMAP item 2): instead of
        one ``TAG_NEW_STREAM`` control packet per stream, the batch is
        announced in a single ``TAG_NEW_STREAMS`` packet whose
        endpoint sets are deduplicated into interned
        :class:`~repro.core.routing.CommGroup` references.  Each comm
        node registers lightweight stream *specs* and materializes the
        full :class:`StreamManager` lazily on the first data packet,
        so creating 5000 streams over one communicator costs one
        control wave plus O(1) bookkeeping per stream per node.
        """
        pairs: List[tuple] = []
        for spec in specs:
            if isinstance(spec, Communicator):
                comm, kwargs = spec, {}
            else:
                comm, kwargs = spec
            pairs.append((comm, dict(kwargs or {})))
        self._check_up()
        parsed: List[tuple] = []
        for comm, kwargs in pairs:
            if comm.network is not self:
                raise NetworkError("communicator belongs to a different network")
            unknown = set(kwargs) - {
                "transform", "sync", "sync_timeout",
                "down_transform", "chunk_bytes", "pattern",
            }
            if unknown:
                raise NetworkError(
                    f"unknown stream option(s) {sorted(unknown)}"
                )
            transform = kwargs.get("transform", TFILTER_NULL)
            sync = kwargs.get("sync", SFILTER_WAITFORALL)
            sync_timeout = kwargs.get("sync_timeout", 0.0)
            down_transform = kwargs.get("down_transform", 0)
            chunk_bytes = kwargs.get("chunk_bytes")
            pattern = kwargs.get("pattern", WAVE_REDUCE)
            if not self.registry.is_transform(transform):
                raise NetworkError(f"unknown transformation filter id {transform}")
            if not self.registry.is_sync(sync):
                raise NetworkError(f"unknown synchronization filter id {sync}")
            if down_transform and not self.registry.is_transform(down_transform):
                raise NetworkError(f"unknown downstream filter id {down_transform}")
            if chunk_bytes is not None and chunk_bytes <= 0:
                raise NetworkError("chunk_bytes must be positive (or None)")
            if pattern not in WAVE_PATTERNS:
                raise NetworkError(f"unknown wave pattern {pattern}")
            parsed.append(
                (comm, transform, sync, sync_timeout, down_transform,
                 chunk_bytes, pattern)
            )
        # Deduplicate endpoint sets: wire specs reference groups by
        # index, mirroring the CommGroup interning every node performs.
        group_index: Dict[frozenset, int] = {}
        groups: List[tuple] = []
        wire_specs: List[tuple] = []
        streams: List[Stream] = []
        for comm, transform, sync, sync_timeout, down, chunk, pattern in parsed:
            key = frozenset(comm.ranks)
            gidx = group_index.get(key)
            if gidx is None:
                gidx = group_index[key] = len(groups)
                groups.append(tuple(sorted(key)))
            stream_id = self._next_stream_id
            self._next_stream_id += 1
            self._core.stream_queues[stream_id] = deque()
            wire_specs.append(
                (stream_id, gidx, sync, transform, sync_timeout,
                 down, chunk or 0, pattern)
            )
            stream = Stream(
                self, stream_id, comm, chunk_bytes=chunk, pattern=pattern
            )
            self._streams[stream_id] = stream
            streams.append(stream)
        if wire_specs:
            packet = make_new_streams(groups, wire_specs)
            self._core.handle_control_down(packet)
            self._core.flush()
        return streams

    def load_filter_func(self, module_path: str, func_name: str, fmt=None) -> int:
        """Register a custom filter network-wide (paper's load_filterFunc)."""
        return self.registry.load_filter_func(module_path, func_name, fmt)

    # -- stream plumbing (called by Stream) -------------------------------

    def _send_downstream(self, packet: Packet) -> None:
        self._check_up()
        self._core._handle_data_down(packet)
        self._core.flush()

    def _recv_on_stream(self, stream_id: int, deadline: Optional[float]) -> Packet:
        q = self._core.stream_queues.get(stream_id)
        if q is None:
            raise NetworkError(f"stream {stream_id} has no delivery queue")
        while True:
            if q:
                return q.popleft()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"recv on stream {stream_id} timed out")
            remaining = None if deadline is None else deadline - time.monotonic()
            self._pump(self._pump_quantum(remaining))

    def _try_recv_on_stream(self, stream_id: int) -> Optional[Packet]:
        self._pump(0.0)
        q = self._core.stream_queues.get(stream_id)
        if q:
            return q.popleft()
        return None

    def recv(self, timeout: Optional[float] = None) -> Tuple[Packet, Stream]:
        """Stream-anonymous front-end receive: next packet on any stream."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for stream_id, q in self._core.stream_queues.items():
                if q:
                    return q.popleft(), self._streams[stream_id]
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("front-end recv timed out")
            remaining = None if deadline is None else deadline - time.monotonic()
            self._pump(self._pump_quantum(remaining))

    # -- observability -----------------------------------------------------

    @staticmethod
    def _flatten_snapshot(snapshot: dict) -> Dict[str, object]:
        """One process's typed snapshot as a flat series dict.

        Counters and gauges become ``series-key -> number`` entries
        (the historical ``stats()`` value shape); histograms, which
        have structure, are grouped under a single ``"histograms"``
        key.  See ``docs/observability.md`` for the full schema.
        """
        flat: Dict[str, object] = dict(snapshot.get("counters", {}))
        flat.update(snapshot.get("gauges", {}))
        histograms = snapshot.get("histograms", {})
        if histograms:
            flat["histograms"] = dict(histograms)
        return flat

    def _gather_snapshots(self, timeout: float, meta: dict) -> Dict[str, dict]:
        """Broadcast a STATS_SNAPSHOT request and pump until all
        expected replies arrive (or *timeout* elapses).

        Returns ``node-identity -> metrics snapshot`` for every reply
        received; *meta* is updated in place with gather accounting.
        """
        self._stats_seq += 1
        request_id = self._stats_seq
        # Dead, shutting-down and wedged internal processes cannot
        # answer; waiting for one would cost the full timeout.
        expected = self._recovery.live_internal()
        meta.update(gathered=True, expected=expected, request_id=request_id)
        replies = self._core.stats_replies.setdefault(request_id, {})
        try:
            self._core.handle_control_down(make_stats_request(request_id))
            self._core.flush()
            deadline = self._clock() + timeout
            while len(replies) < expected:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._pump(min(self._pump_quantum(remaining), remaining))
        finally:
            self._core.stats_replies.pop(request_id, None)
        meta["replies"] = len(replies)
        return replies

    def _collect_snapshots(
        self, gather: bool, timeout: float
    ) -> Tuple[Dict[str, dict], dict]:
        """Per-process typed snapshots plus gather metadata.

        The front-end is always read locally.  Internal nodes are
        gathered over the wire via ``STATS_SNAPSHOT`` when *gather* is
        true and the network is up; thread-hosted nodes that did not
        reply (or when not gathering) are read from their in-process
        registries, except crashed ones — a dead node's counters are
        deliberately absent, exactly as they would be with real
        separate processes.
        """
        meta = {
            "schema": STATS_SCHEMA,
            "transport": self.transport,
            "policy": self.policy,
            "gathered": False,
            "expected": 0,
            "replies": 0,
        }
        snapshots: Dict[str, dict] = {
            self._core.obs_identity: self._core.metrics_snapshot()
        }
        if gather and not self._down:
            try:
                snapshots.update(self._gather_snapshots(timeout, meta))
            except Exception:
                pass  # degraded tree mid-repair: fall back to local reads
        for node in self._commnodes:
            core = node.core
            if core.obs_identity in snapshots or core.crashed:
                continue
            snapshots[core.obs_identity] = core.metrics_snapshot()
        return snapshots, meta

    def stats(self, gather: bool = True, timeout: float = 0.5) -> Dict[str, dict]:
        """Per-process metric series, gathered through the tree.

        With ``gather=True`` (default) the front-end broadcasts a
        ``STATS_SNAPSHOT`` request down the control stream; every live
        internal node replies with its serialized registry, relayed up
        through the same links and packet buffers that carry tool
        data.  Thread-hosted nodes that cannot answer over the wire
        are read locally; crashed nodes are absent.  ``gather=False``
        skips the wire round-trip entirely (thread-hosted registries
        are read in-process; process-transport internals then do not
        appear).

        Returns one entry per process keyed ``"rank:hostname"``
        (``"0:front-end"``, then comm nodes in construction order).
        Each value maps counter and gauge series keys — plain names,
        or ``name{label="v"}`` for labelled series such as per-stream
        wave counters — to numbers, with histogram series grouped
        under the value's ``"histograms"`` key.  Two reserved
        top-level keys: ``"recovery"`` (network-wide recovery
        counters) and ``"meta"`` (schema/gather accounting).

        The bare-label aliases deprecated in PR 4 (``"front-end"``,
        topology labels) are gone; key on ``rank:hostname``.
        """
        snapshots, meta = self._collect_snapshots(gather, timeout)
        out: Dict[str, dict] = {
            key: self._flatten_snapshot(snap) for key, snap in snapshots.items()
        }
        if self._recovery is not None:
            # Network-wide recovery counters (nodes_failed,
            # orphans_adopted, waves_reconfigured, heartbeats_missed)
            # under a reserved pseudo-process key.
            out["recovery"] = self._recovery.snapshot()
        out["meta"] = meta
        return out

    def stats_json(self, gather: bool = True, timeout: float = 0.5) -> str:
        """The full typed snapshot set as one JSON document.

        Unlike :meth:`stats` this keeps the registry shape —
        ``{"meta": {...}, "processes": {identity: {"counters": ...,
        "gauges": ..., "histograms": ...}}, "recovery": {...}}`` — and
        carries no deprecated aliases.
        """
        snapshots, meta = self._collect_snapshots(gather, timeout)
        doc = {"meta": meta, "processes": snapshots}
        if self._recovery is not None:
            doc["recovery"] = self._recovery.snapshot()
        return json.dumps(doc)

    def stats_prometheus(self, gather: bool = True, timeout: float = 0.5) -> str:
        """Every process's metrics as Prometheus exposition text.

        Series gain a ``process`` label carrying the ``rank:hostname``
        identity; recovery counters appear under process
        ``"recovery"``.  Histograms are exported cumulatively with the
        standard ``_bucket``/``_sum``/``_count`` series.
        """
        snapshots, meta = self._collect_snapshots(gather, timeout)
        processes: Dict[str, dict] = dict(snapshots)
        if self._recovery is not None:
            processes["recovery"] = {"counters": self._recovery.snapshot()}
        return prometheus_text(processes)

    def start_trace(self, maxlen: int = 100_000) -> None:
        """Attach a Figure 3 span recorder to every thread-hosted process.

        Each recorder shares its core's clock so all spans land on one
        time base; rings are bounded at *maxlen* spans per process.
        Restarting an active trace raises — call :meth:`stop_trace`
        first.  Process transport is rejected (the span rings would
        live in other address spaces).
        """
        if self.transport == "process":
            raise NetworkError(
                "tracing requires a thread-hosted transport ('local' or 'tcp')"
            )
        if self._tracers and any(
            core.tracer is not None
            for core in [self._core] + [n.core for n in self._commnodes]
        ):
            raise NetworkError("trace already active; call stop_trace() first")
        self._tracers = []
        for core in [self._core] + [node.core for node in self._commnodes]:
            recorder = TraceRecorder(
                core.obs_identity, maxlen=maxlen, clock=core.clock
            )
            core.tracer = recorder
            self._tracers.append(recorder)

    def stop_trace(self) -> None:
        """Detach all span recorders (recorded spans stay exportable)."""
        for core in [self._core] + [node.core for node in self._commnodes]:
            core.tracer = None

    def trace_chrome_json(self) -> str:
        """The recorded trace as Chrome/Perfetto trace-event JSON.

        Same format as
        :meth:`repro.sim.trace.SimTrace.to_chrome_trace`, so a live
        run and a simulated run load side by side in one Perfetto
        session.  Raises unless :meth:`start_trace` ran first.
        """
        if not self._tracers:
            raise NetworkError("no trace recorded: call start_trace() first")
        return to_chrome_trace(self._tracers)

    def write_trace(self, path) -> Path:
        """Write :meth:`trace_chrome_json` to *path*; returns the Path."""
        target = Path(path)
        target.write_text(self.trace_chrome_json())
        return target

    def recovery_events(self) -> List[RanksChanged]:
        """Wave-membership changes observed by the front-end so far.

        Each entry records one stream's epoch bump with the ranks lost
        (a subtree died) or gained (an orphan was adopted back).  The
        list is cumulative; pending inbound traffic is drained first so
        the answer is current.
        """
        self.flush()
        return list(self._core.recovery_events)

    def unexpected_packets(self) -> List[Packet]:
        """Drain packets that arrived for unknown streams (diagnostics)."""
        out = list(self._core.default_queue)
        self._core.default_queue.clear()
        return out

    def _close_stream(self, stream_id: int) -> None:
        if self._down:
            return
        self._core.handle_control_down(make_close_stream(stream_id))
        self._core.reassembly.drop_stream(stream_id)
        self._core.stream_queues.pop(stream_id, None)
        self._core.delivery_sinks.pop(stream_id, None)
        self._streams.pop(stream_id, None)
        self._core.flush()

    # -- pumping ----------------------------------------------------------

    def _pump_quantum(self, remaining: Optional[float] = None) -> float:
        """How long one blocking pump may wait.

        Sleeps up to ``PUMP_QUANTUM`` but never past the next
        TimeOut-stream deadline held at the front-end (so partial
        waves release on time, without a short fixed poll) nor past
        *remaining* (a caller's own deadline).  Any inbound delivery
        interrupts the wait regardless.
        """
        quantum = self.PUMP_QUANTUM
        deadline = self._core.next_timeout_deadline()
        if deadline is not None:
            quantum = min(quantum, max(deadline - self._clock(), 0.0))
        if remaining is not None:
            quantum = min(quantum, max(remaining, 0.0))
        return quantum

    def _poll_repair_accepts(self) -> None:
        """Admit orphans re-dialing the front-end (process + repair).

        A ``transport="process"`` orphan whose nearest live ancestor
        is the front-end reconnects to our listener; nobody blocks in
        ``accept`` after startup, so the pump polls non-blockingly.
        The orphan's endpoint report follows on the new link and
        splices it into routing and stream membership.
        """
        if self._listener is None:
            return
        if any(s.claimed and s.backend is None for s in self._slots.values()):
            # A back-end attach is mid-connect on this listener; its
            # own acceptor must win that connection, not the pump.
            return
        while True:
            try:
                end = self._listener.accept(timeout=0)
            except (OSError, ValueError, ConnectionError):
                return
            self._core.add_child(end)

    def _pump(self, timeout: float) -> bool:
        """Process inbound traffic for up to one blocking receive."""
        worked = False
        # Attach any orphan adopted by the front-end since the last
        # pump, *before* draining the inbox: its endpoint report may
        # already be queued behind the admission.
        self._core.admit_pending_children()
        if self._accept_repairs:
            self._poll_repair_accepts()
        if timeout > 0:
            try:
                link_id, payload = self._core.inbox.get(timeout=timeout)
                self._core.handle_payload(link_id, payload)
                worked = True
            except queue.Empty:
                pass
        while True:
            try:
                link_id, payload = self._core.inbox.get_nowait()
            except queue.Empty:
                break
            self._core.handle_payload(link_id, payload)
            worked = True
        self._core.poll_streams()
        self._core.flush()
        return worked

    def flush(self) -> None:
        """Drain pending inbound traffic without blocking."""
        self._pump(0.0)

    def pump_once(self, max_wait: float = 0.0) -> bool:
        """Run one bounded pump cycle; returns True if any work was done.

        The front-end is passive — it only makes progress while some
        caller pumps it.  Driver threads (the serving gateway's, for
        example) call this in a loop instead of blocking in a recv:
        each call waits at most *max_wait* (capped by the pump quantum
        and any pending TimeOut-stream deadline) for inbound traffic,
        then drains everything that arrived and fires stream hooks.
        """
        self._check_up()
        return self._pump(self._pump_quantum(max_wait))

    # -- delivery sinks ----------------------------------------------------

    def set_stream_sink(
        self, stream_id: int, sink: Callable[[Packet], None]
    ) -> None:
        """Route a stream's upstream results to *sink* instead of its queue.

        The sink runs synchronously on whatever thread pumps the
        network, receiving each fully reassembled :class:`Packet`.
        While a sink is installed, ``Stream.recv`` on that stream sees
        nothing — the sink owns delivery.  Packets already queued
        before installation are flushed through the sink first so no
        result is stranded.
        """
        core = self._core
        core.delivery_sinks[stream_id] = sink
        backlog = core.stream_queues.get(stream_id)
        while backlog:
            sink(backlog.popleft())

    def clear_stream_sink(self, stream_id: int) -> None:
        """Remove a stream's delivery sink; results queue normally again."""
        self._core.delivery_sinks.pop(stream_id, None)

    # -- lifecycle --------------------------------------------------------

    def _check_up(self) -> None:
        if self._down:
            raise NetworkDownError("network has been shut down")
        if self.policy == FAIL_FAST and self._core.first_failure is not None:
            raise NetworkDownError(
                "network poisoned under fail_fast policy",
                cause=self._core.first_failure,
            )

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Tear down the tree: broadcast shutdown, join internal threads.

        Idempotent and hang-proof: safe to call twice, safe after a
        failed startup (every step tolerates half-built state), and a
        comm node that ignores the SHUTDOWN broadcast — wedged, or its
        link already dead — is force-killed after ``join_timeout``
        rather than hanging the caller.
        """
        if getattr(self, "_down", False):
            return
        self._down = True
        core = getattr(self, "_core", None)
        if core is not None:
            try:
                core.handle_control_down(make_shutdown())
                core.flush()
            except Exception:
                pass  # half-built tree: some links may be dead already
        for host in getattr(self, "_hosts", ()):
            # A loop ends once every core it hosts has finished.
            if host.is_alive():
                host.join(timeout=join_timeout)
            if host.is_alive():
                # The goodbye never reached a node (wedged, dead
                # link): crash it out so shutdown always terminates.
                for core in host.loop.cores:
                    core.crashed = True
                host.loop.wake()
                host.join(timeout=1.0)
            # Never started (failed startup): release its selector.
            host.close()
        for proc in getattr(self, "_procs", ()):
            try:
                proc.wait(timeout=join_timeout)
            except Exception:
                proc.kill()
            proc.stderr_log.close()
        if core is not None:
            # Release the front-end's own link ends: shared-memory
            # children hold kernel segments that survive until every
            # attached process closes them.
            try:
                core.close_all()
            except Exception:
                pass
        listener = getattr(self, "_listener", None)
        if listener is not None:
            try:
                listener.close()
            except Exception:
                pass
        # Wake any passive back-end that never polls again.
        for slot in getattr(self, "_slots", {}).values():
            if slot.backend is not None:
                try:
                    slot.backend.poll()
                except Exception:
                    pass

    @property
    def is_down(self) -> bool:
        """True after :meth:`shutdown` or a fail-fast teardown."""
        return self._down

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "down" if self._down else ("ready" if self._core.ready else "starting")
        return (
            f"Network(backends={self._core.expected_ranks}, "
            f"internal={len(self._commnodes)}, {state})"
        )


def _last_lines(log, n: int, window: int = 4096) -> List[str]:
    """The last *n* non-empty lines of a child's stderr file.

    ``pread`` leaves the file offset alone: the children append through
    the same open file.
    """
    size = os.fstat(log.fileno()).st_size
    tail = os.pread(log.fileno(), window, max(size - window, 0))
    lines = tail.decode("utf-8", "replace").splitlines()
    return [line.rstrip() for line in lines if line.strip()][-n:]


def _iter_subtree(node: TopologyNode):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.children)
