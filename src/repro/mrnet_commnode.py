"""The ``mrnet_commnode`` program: an internal process as a real OS
process.

"MRNet has two main components: libmrnet, a library that is linked
into a tool's front-end and back-end components, and mrnet_commnode, a
program that runs on intermediate nodes interposed between the
front-end and back-ends." (§2)

The default runtime hosts internal processes as threads, which is
convenient but GIL-bound.  This module is the faithful alternative:
each internal process is a separate Python process connected to its
parent and children over TCP, exactly like the original program — the
codec, batching, synchronization and filter work all run outside the
front-end's interpreter.

**Recursive instantiation** (paper §2.5 / Figure 5): every comm-node
process is an ``os.fork()`` of an interpreter that already imported
this package (:func:`fork_subtree`) — the front-end forks its direct
internal children, each of those its own.  A process receives its
whole *subtree* specification — which carries the placement plan
(:func:`repro.topology.plan_placement`): every node's host group and
the link kind of its uplink — and forks its off-group internal
children first, so the tree builds itself in O(depth) fork rounds, none
of which starts an interpreter.  Internal children in the *same* group
are hosted on this process's event loop behind in-process links
(``Network(colocate=True)``; without it every group has one member).
Every hosted node announces its listener address to the front-end with
a ``TAG_ADDR_REPORT`` control packet relayed up the data plane, so
back-end leaf slots learn where to attach, and leaf-child connections
are accepted *lazily* by the event loop while the rest of the tree is
still booting.  The program can also be started by hand, under a
front-end that is already listening::

   python -m repro.mrnet_commnode --parent HOST:PORT --subtree JSON \
          [--filter /path/to/module.py:func_name] ...

An uplink the plan marks ``"shm"`` (both endpoints share a topology
host) offers the shared-memory ring transport
(:mod:`repro.transport.shm`) during the connection hello — refusal or
failure falls back to plain TCP transparently.

The process multiplexes all of its sockets through one ``selectors``
loop on the main thread — no per-link reader threads, non-blocking
vectored writes, and timer deadlines instead of polling.

Custom filters cross the process boundary the same way real MRNet
ships shared objects: as a file path + function name, loaded on every
process in the same order so registry ids agree network-wide (a
forked process executes each module again, as a fresh one would).
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .core.commnode import NodeCore
from .core.failure import REPAIR
from .core.protocol import make_addr_report
from .filters.loader import forget_modules
from .filters.registry import default_registry
from .transport.channel import Inbox
from .transport.tcp import TcpListener

__all__ = [
    "fork_subtree",
    "main",
    "parse_filter_spec",
    "run_commnode_recursive",
    "subtree_spec",
    "RecursiveOpts",
]


def parse_filter_spec(spec: str) -> Tuple[str, str, Optional[str]]:
    """Parse ``path:func`` or ``path:func:fmt`` (fmt may contain spaces
    if the caller quotes; colons inside paths are not supported)."""
    parts = spec.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], None
    if len(parts) == 3:
        return parts[0], parts[1], parts[2] or None
    raise ValueError(f"malformed filter spec {spec!r} (want path:func[:fmt])")


def _parse_host_port(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"malformed address {text!r} (want host:port)")
    return host, int(port)


# -- recursive instantiation (paper §2.5 mode 1, Figure 5) ------------------
#
# Subtree spec wire format (JSON): every node is an object with
#   "l": "host:index" topology label
#   "r": observability rank          (internal nodes only)
#   "g": host-group id               (internal nodes only)
#   "k": link kind of the uplink     (internal nodes only)
#   "c": [child specs...]            (present iff internal)
# A leaf entry carries only "l" — its back-end attaches later, so the
# node just counts it toward the lazy accept budget.


def subtree_spec(node, obs_rank, plan) -> dict:
    """Serialize a topology node's subtree for recursive spawning.

    *obs_rank* maps internal-node keys to observability ranks (the
    front-end numbers them breadth-first); *plan* is the network's
    :class:`~repro.topology.Placement`, shipped node by node so no
    process re-derives it.
    """
    if node.is_leaf:
        return {"l": node.label}
    return {
        "l": node.label,
        "r": obs_rank[node.key],
        "g": plan.group_of[node.key],
        "k": plan.kind_of[node.key],
        "c": [subtree_spec(c, obs_rank, plan) for c in node.children],
    }


def _count_leaves(spec: dict) -> int:
    kids = spec.get("c")
    if not kids:
        return 1
    return sum(_count_leaves(k) for k in kids)


@dataclass
class RecursiveOpts:
    """Everything a subtree spawn must inherit from its parent."""

    # (path, func, fmt) triples, fmt None when the filter names none.
    filter_specs: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    heartbeat_interval: float = 0.0  # liveness probe period; 0 disables
    accept_timeout: float = 60.0
    repair: bool = False  # re-dial a live ancestor when the parent dies


def _repair_fn_eventloop(loop, ancestors, accept_timeout: float):
    """Parent-repair closure for selector-driven bodies.

    *ancestors* is the proper-ancestor address chain root-first and
    excluding the (now dead) parent; the orphan re-dials the nearest
    live entry — grandparent first, front-end last — so adoption
    needs no coordinator round-trip.
    """
    from .transport.tcp import tcp_dial

    def repair():
        for addr in reversed(ancestors):
            try:
                sock, _ = tcp_dial(
                    addr, attempts=3, timeout=min(accept_timeout, 5.0)
                )
            except Exception:
                continue
            return loop.add_socket(sock)
        return None

    return repair


class _ForkChild:
    """A ``Popen``-shaped handle for an ``os.fork()`` child."""

    def __init__(self, pid: int, label: str):
        self.pid = pid
        self.label = label
        self.stderr_log = None  # the file its stderr goes to, if the caller keeps it
        self._status: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self._status is not None:
            return self._status
        try:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            self._status = 0
            return self._status
        if pid == 0:
            return None
        self._status = os.waitstatus_to_exitcode(status)
        return self._status

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.poll() is None:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"fork child {self.label} did not exit")
            time.sleep(0.01)
        return self._status

    def kill(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def fork_subtree(
    spec: dict,
    parent_addr: Tuple[str, int],
    opts: RecursiveOpts,
    ancestors: tuple,
    log_fd: int,
) -> _ForkChild:
    """Fork a process that runs :func:`run_commnode_recursive` on *spec*.

    The child is a copy of this already-initialized interpreter, so it
    starts in milliseconds where a fresh one would spend hundreds
    importing.  The caller may have threads of its own: the child
    touches only the arguments and the objects it creates, and the
    process-wide state it shares with the caller (link ids, the shm
    segment census, the filter loader's cache) is fork-safe or reset
    for it.  Its stderr is *log_fd*, its stdout ``/dev/null``.
    """
    pid = os.fork()
    if pid:
        return _ForkChild(pid, spec["l"])
    code = 1
    try:
        # Nothing from before the fork may be finalized here: a socket
        # object collected in this copy would close an fd number this
        # process has reused by then.
        gc.freeze()
        os.dup2(log_fd, 2)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        # New objects: an inherited one may hold a lock that another
        # thread of the parent held at the fork.
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, closefd=False)
        # Every other inherited fd is the caller's: its links and
        # listeners, a test runner's saved stdout pipe, other children's
        # logs, the shm resource tracker's pipe.  Holding one keeps its
        # peer or reader from ever seeing EOF.
        for name in os.listdir("/dev/fd"):
            if int(name) not in (0, 1, 2, log_fd):
                try:
                    os.close(int(name))
                except OSError:
                    pass  # the directory's own fd, gone once listed
        if faulthandler.is_enabled():  # its file was one of them
            faulthandler.enable(sys.stderr)
        tracker = sys.modules.get("multiprocessing.resource_tracker")
        if tracker is not None:
            # A tracker of its own, started on first use: the caller's
            # lock may be held by a thread that did not fork, and an shm
            # attach unregisters from its own process's tracker.
            tracker._resource_tracker.__init__()
        # An asyncio loop of the caller's may have aimed signal wake-ups
        # at one of those sockets; its fd number is about to be reused.
        signal.set_wakeup_fd(-1)
        forget_modules()
        code = run_commnode_recursive(spec, parent_addr, opts, ancestors)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reap(handles, timeout: float = 5.0) -> None:
    """Collect spawned children; force-kill any that outlive *timeout*."""
    for handle in handles:
        try:
            handle.wait(timeout=timeout)
        except Exception:
            handle.kill()
            try:
                handle.wait(timeout=1.0)
            except Exception:
                pass


@dataclass
class _Hosted:
    """One node of this process's host group (preorder; [0] is its root)."""

    spec: dict
    parent: Optional["_Hosted"]  # hosting member above, None at the group root
    listener: TcpListener
    remote: list  # internal child specs placed in other groups: forked
    n_leaves: int
    # Full proper-ancestor address chain, root first: what this node's
    # forked children re-dial under repair.
    ancestors: tuple
    core: Optional[NodeCore] = None


def _enlist(spec: dict, parent: Optional[_Hosted], ancestors: tuple, out: list) -> None:
    """Open a listener for *spec* and every same-group internal descendant."""
    children = spec.get("c", [])
    internal = [c for c in children if "c" in c]
    member = _Hosted(
        spec, parent, TcpListener(Inbox()),
        remote=[c for c in internal if c["g"] != spec["g"]],
        n_leaves=len(children) - len(internal),
        ancestors=ancestors,
    )
    out.append(member)
    for child in internal:
        if child["g"] == spec["g"]:
            _enlist(child, member, ancestors + (member.listener.address,), out)


def run_commnode_recursive(
    spec: dict,
    parent_addr: Tuple[str, int],
    opts: RecursiveOpts,
    ancestors: tuple = (),
) -> int:
    """Instantiate this node *and its whole subtree* (paper mode 1).

    *ancestors* is this node's proper-ancestor address chain, root
    first and excluding its parent (repair re-dials the nearest live
    one).  Ordering is the heart of the O(depth) claim:

    1. open a listener for this node and for every same-group internal
       descendant it hosts (a group of one without ``colocate``);
    2. fork every off-group internal child immediately — the next tree
       level boots in parallel with everything below, and the fork
       happens before this process has a loop or a second thread;
    3. connect upward (offering the shared-memory upgrade when the plan
       marks the uplink ``"shm"``; the offer blocks until the parent
       answers, which is why it comes after the forks);
    4. build one core per hosted node on ONE event loop, in-process
       links between them;
    5. accept the children forked in step 2 and announce each hosted
       node's ``label host port`` upstream via ``TAG_ADDR_REPORT`` so
       the front-end can aim back-end attaches at leaf parents;
    6. run the loop, accepting leaf (back-end) connections lazily.

    The rest of the tree cannot tell a hosted group apart from N
    separate processes, except that it costs one thread instead of N.
    """
    from .transport.eventloop import EventLoop
    from .transport.tcp import tcp_dial

    registry = default_registry()
    for path, func, fmt in opts.filter_specs:
        registry.load_filter_func(path, func, fmt)

    group: List[_Hosted] = []
    handles: list = []
    try:
        _enlist(spec, None, ancestors + (parent_addr,), group)
        for member in group:
            handles += [
                fork_subtree(
                    child, member.listener.address, opts, member.ancestors,
                    log_fd=2,
                )
                for child in member.remote
            ]

        sock, pair = tcp_dial(
            parent_addr, attempts=6, timeout=opts.accept_timeout,
            shm=spec["k"] == "shm",
        )
        loop = EventLoop()
        if pair is not None:
            uplink = loop.add_shm_link(sock, pair[0], pair[1])
        else:
            uplink = loop.add_socket(sock)

        for member in group:
            repair_fn = None
            if member.parent is not None:
                down, uplink = loop.add_inproc_pair(member.parent.core)
                member.parent.core.add_child(down)
            elif opts.repair and ancestors:
                # Only the group root can outlive its parent: a hosted
                # member's parent shares this process.
                repair_fn = _repair_fn_eventloop(
                    loop, ancestors, opts.accept_timeout
                )
            core = member.core = _recursive_core(
                member.spec, registry, uplink, opts, repair_fn
            )
            uplink.core = core  # made before the core it delivers to
            loop.bind(core)

        for member in group:
            core = member.core
            for _ in member.remote:
                sock_c, pair_c = member.listener.accept_socket(
                    timeout=opts.accept_timeout
                )
                if pair_c is not None:
                    end = loop.add_shm_link(sock_c, pair_c[0], pair_c[1], core=core)
                else:
                    end = loop.add_socket(sock_c, core=core)
                core.add_child(end)
            core._queue_up(
                make_addr_report(
                    member.spec["l"], "127.0.0.1", member.listener.address[1]
                )
            )
            # Back-ends attach whenever the front-end reaches them; the
            # loop accepts them without blocking the rest of the
            # subtree.  Under repair, accept forever: re-dialing
            # orphans and elastic joiners arrive long after the leaf
            # budget is spent.
            if opts.repair or member.n_leaves:
                loop.add_acceptor(
                    member.listener,
                    remaining=None if opts.repair else member.n_leaves,
                    core=core,
                )
        loop.run()
        return 0
    finally:
        for member in group:
            member.listener.close()
        _reap(handles)


def _recursive_core(spec, registry, parent_end, opts, repair_fn) -> NodeCore:
    core = NodeCore(spec["l"], registry, _count_leaves(spec), parent=parent_end)
    core.obs_rank = int(spec.get("r", -1))
    kwargs = {"heartbeat_interval": opts.heartbeat_interval}
    if opts.repair:
        # Keyed on the network's policy, not on whether this node can
        # re-dial: the front-end's own children have no ancestor to
        # re-home onto, yet their deposits are what it seeds from.
        kwargs["policy"] = REPAIR
        kwargs["repair_fn"] = repair_fn
    core.configure_failure(**kwargs)
    return core


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrnet_commnode",
        description="MRNet internal process (runs between front-end and "
        "back-ends).",
    )
    parser.add_argument(
        "--parent", required=True, help="parent address, host:port"
    )
    parser.add_argument(
        "--subtree", required=True, metavar="JSON",
        help="this node's whole subtree spec, placement plan included "
        "(the node hosts its same-group internal children and forks the "
        "others)",
    )
    parser.add_argument(
        "--filter", action="append", default=[], metavar="PATH:FUNC[:FMT]",
        help="custom filter to load (repeatable; order defines ids)",
    )
    parser.add_argument("--accept-timeout", type=float, default=60.0)
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.0,
        help="liveness probe period in seconds (0 disables heartbeats)",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="repair policy: survive a dead parent by re-dialing a "
        "live ancestor, and keep accepting connections so orphaned "
        "descendants and joining back-ends can attach",
    )
    args = parser.parse_args(argv)

    try:
        specs = [parse_filter_spec(s) for s in args.filter]
        parent_addr = _parse_host_port(args.parent)
        spec = json.loads(args.subtree)
    except ValueError as exc:
        parser.error(str(exc))
    opts = RecursiveOpts(
        filter_specs=specs,
        heartbeat_interval=args.heartbeat_interval,
        accept_timeout=args.accept_timeout,
        repair=args.repair,
    )
    # A process started from a command line is a direct child of the
    # front-end: it has no proper ancestors besides its parent.
    return run_commnode_recursive(spec, parent_addr, opts)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
