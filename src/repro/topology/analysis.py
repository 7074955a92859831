"""Structural analysis of topologies (supports §2.6's layout discussion).

Pure structure here (fan-outs, levels, balance, graph export); the
LogP *cost* analysis of Figure 4 lives in :mod:`repro.sim.logp` which
consumes these metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from .placement import plan_placement
from .spec import TopologyNode, TopologySpec

__all__ = [
    "TopologyStats",
    "analyze",
    "to_networkx",
    "is_balanced",
    "levels",
    "link_transports",
]


@dataclass(frozen=True)
class TopologyStats:
    """Summary statistics of one process tree."""

    num_processes: int
    num_backends: int
    num_internal: int
    depth: int
    max_fanout: int
    root_fanout: int
    balanced: bool
    fanout_histogram: Dict[int, int]

    def describe(self) -> str:
        kind = "balanced" if self.balanced else "unbalanced"
        return (
            f"{self.num_processes} processes ({self.num_backends} back-ends, "
            f"{self.num_internal} internal), depth {self.depth}, "
            f"max fan-out {self.max_fanout}, {kind}"
        )


def levels(spec: TopologySpec) -> List[List[TopologyNode]]:
    """Nodes grouped by distance from the root (level 0 = front-end)."""
    out: List[List[TopologyNode]] = [[spec.root]]
    frontier = [spec.root]
    while True:
        nxt = [c for n in frontier for c in n.children]
        if not nxt:
            return out
        out.append(nxt)
        frontier = nxt


def is_balanced(spec: TopologySpec) -> bool:
    """True when every leaf sits at the same depth and every internal
    node at the same level has the same fan-out."""
    leaf_depths = {spec.level_of(leaf) for leaf in spec.leaves()}
    if len(leaf_depths) > 1:
        return False
    for level_nodes in levels(spec):
        fanouts = {len(n.children) for n in level_nodes if n.children}
        if len(fanouts) > 1:
            return False
    return True


def analyze(spec: TopologySpec) -> TopologyStats:
    """Compute :class:`TopologyStats` for *spec*."""
    fanouts = Counter(len(n.children) for n in spec.nodes() if n.children)
    return TopologyStats(
        num_processes=len(spec),
        num_backends=spec.num_backends,
        num_internal=spec.num_internal,
        depth=spec.depth,
        max_fanout=spec.max_fanout,
        root_fanout=len(spec.root.children),
        balanced=is_balanced(spec),
        fanout_histogram=dict(sorted(fanouts.items())),
    )


def link_transports(
    spec: TopologySpec, transport: str = "process", colocate: bool = False
) -> Dict[tuple, str]:
    """Every tree edge's planned link kind, keyed by labels.

    A ``(parent_label, child_label) -> kind`` view of
    :func:`~repro.topology.placement.plan_placement` — the plan the
    runtime builds from — for display and analysis.
    """
    kind_of = plan_placement(spec, transport, colocate).kind_of
    return {
        (node.label, child.label): kind_of[child.key]
        for node in spec.nodes()
        for child in node.children
    }


def to_networkx(spec: TopologySpec):
    """Export the tree as a :class:`networkx.DiGraph` (edges parent→child).

    Node names are ``host:index`` labels; node attributes record
    ``host``, ``index``, ``level`` and ``role`` (frontend / internal /
    backend).
    """
    import networkx as nx

    g = nx.DiGraph()
    for node in spec.nodes():
        if node is spec.root:
            role = "frontend"
        elif node.is_leaf:
            role = "backend"
        else:
            role = "internal"
        g.add_node(
            node.label,
            host=node.host,
            index=node.index,
            level=spec.level_of(node),
            role=role,
        )
        for child in node.children:
            g.add_edge(node.label, child.label)
    return g
