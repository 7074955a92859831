"""Placement: where each process runs and what each edge is made of (§2.6).

The paper decides what an edge is made of from where its two
processes sit.  :func:`plan_placement` is the one place this
reproduction makes that decision: it maps a topology plus the two
runtime choices a tool makes (``transport`` and ``colocate``) to

* *node → host group* — the loop (a thread of the front-end process,
  or an ``mrnet_commnode`` OS process) that runs each internal node.
  The front-end and the back-ends are passive: the tool's own threads
  drive them, so they belong to no group;
* *edge → link kind* — ``"channel"`` (in-process mailboxes),
  ``"inproc"`` (both ends on one loop: a deque hand-off), ``"tcp"``
  (framed bytes over a socket) or ``"shm"`` (shared-memory rings,
  offered when two processes share a topology host; the negotiation
  may still fall back to TCP, which the ``links{kind=...}`` gauges
  report).

Every builder walks the returned :class:`Placement`; nothing else
compares hosts.

===========================  ==============================  =============================================
``transport``, ``colocate``  host groups                     link kinds
===========================  ==============================  =============================================
``"local"``, ``False``       a loop thread per node          ``channel`` everywhere
``"local"``, ``True``        ONE loop thread                 ``inproc`` comm↔comm, ``channel`` elsewhere
``"tcp"``, ``False``         a loop thread per node          ``tcp`` (socketpairs) everywhere
``"process"``, ``False``     an OS process per node          ``shm`` on same-host edges, ``tcp`` elsewhere
``"process"``, ``True``      an OS process per same-host     ``inproc`` inside a group, then as above
                             chain of internal nodes
===========================  ==============================  =============================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from .spec import TopologyError, TopologySpec

__all__ = ["LINK_KINDS", "TRANSPORTS", "Placement", "plan_placement"]

LINK_KINDS = ("channel", "tcp", "shm", "inproc")
TRANSPORTS = ("local", "tcp", "process")

Key = Tuple[str, int]


@dataclass(frozen=True)
class Placement:
    """The plan for one (topology, transport, colocate) triple.

    ``group_of`` maps each internal node's key to its host-group id
    (ids are dense, in preorder of first use); ``kind_of`` maps each
    non-root node's key to the link kind of the edge to its parent.
    """

    group_of: Dict[Key, int]
    kind_of: Dict[Key, str]


def plan_placement(
    spec: TopologySpec, transport: str = "local", colocate: bool = False
) -> Placement:
    """Classify every node and edge of *spec* for one runtime choice."""
    if transport not in TRANSPORTS:
        raise TopologyError(f"unknown transport {transport!r}")
    next_group = itertools.count()
    # Thread-hosted colocation puts every internal node on one loop;
    # process colocation grows a group along same-host internal edges.
    shared = next(next_group) if colocate and transport != "process" else None
    group_of: Dict[Key, int] = {}
    kind_of: Dict[Key, str] = {}
    for node in spec.nodes():  # preorder: a parent is placed before its children
        parent_group = group_of.get(node.key)  # None at the front-end
        for child in node.children:
            same_host = node.host == child.host
            if not child.is_leaf:
                if shared is not None:
                    group_of[child.key] = shared
                elif colocate and parent_group is not None and same_host:
                    group_of[child.key] = parent_group
                else:
                    group_of[child.key] = next(next_group)
            if parent_group is not None and group_of.get(child.key) == parent_group:
                kind = "inproc"
            elif transport == "local":
                kind = "channel"
            elif transport == "process" and same_host:
                kind = "shm"
            else:
                kind = "tcp"
            kind_of[child.key] = kind
    return Placement(group_of, kind_of)
