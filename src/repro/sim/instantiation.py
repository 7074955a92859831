"""Simulated tool instantiation (Figure 7a, §2.5 mode 1).

"the front-end consults the configuration and uses rsh or ssh to
create internal processes for the first level of the communication
tree ... Each internal node establishes its children processes and
their respective connections sequentially.  However, since the various
processes are expected to run on different compute nodes, sub-trees in
different branches of the network are created concurrently."

The model: launching one child occupies the parent for ``rsh_cost``
(serialized per parent), the child is alive ``boot_delay`` after its
launch completes and immediately begins launching its own children.
Once a subtree is fully alive its root reports upward (endpoint
report, one small message per edge).  Instantiation latency is the
time until the front-end has every subtree's report.

With a flat topology the front-end launches every back-end itself —
N·rsh_cost of pure serialization, the paper's rapidly-growing "Flat"
curve; multi-level trees parallelize launches across subtrees so the
curve flattens to roughly (critical-path fan-outs)·rsh_cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..core.failure import backoff_delays
from ..topology.spec import TopologyNode, TopologySpec
from .cluster import BLUE_PACIFIC, ClusterParams
from .engine import FifoResource, Simulator
from .logp import message_cost

__all__ = ["InstantiationResult", "simulate_instantiation"]

_REPORT_BYTES = 64


@dataclass
class InstantiationResult:
    """Outcome of one simulated mode-1 instantiation."""

    latency: float
    processes: int
    launches_on_critical_path: int
    events: int
    launch_failures: int = 0


def simulate_instantiation(
    spec: TopologySpec,
    params: ClusterParams = BLUE_PACIFIC,
    launch_failure_rate: float = 0.0,
    launch_attempts: int = 5,
    seed: int = 0,
) -> InstantiationResult:
    """Simulate creating the whole MRNet process tree.

    ``launch_failure_rate`` models flaky process creation (the runtime
    counterpart is :func:`~repro.transport.tcp.tcp_dial`):
    each launch attempt independently fails with that probability on a
    ``seed``-determined schedule, and the launcher retries with the
    same capped-backoff policy the real transport uses, up to
    ``launch_attempts`` tries.  A slot that exhausts its attempts
    still comes up on one final forced try (mode-1 instantiation has
    no partial-tree semantics) — the cost model simply charges the
    full retry schedule.
    """
    sim = Simulator()
    launchers: Dict[tuple, FifoResource] = {
        node.key: FifoResource() for node in spec.nodes()
    }
    report_cost = message_cost(params.logp, _REPORT_BYTES)
    rng = random.Random(seed)
    failures = 0

    alive_at: Dict[tuple, float] = {spec.root.key: 0.0}
    reported_at: Dict[tuple, float] = {}
    critical_launches: Dict[tuple, int] = {spec.root.key: 0}

    def launch_cost() -> float:
        """One child's launcher occupancy including seeded retries."""
        nonlocal failures
        if launch_failure_rate <= 0.0:
            return params.rsh_cost
        cost = params.rsh_cost
        delays = backoff_delays(launch_attempts, rng=rng)
        for delay in delays:
            if rng.random() >= launch_failure_rate:
                return cost
            failures += 1
            cost += delay + params.rsh_cost
        return cost

    # Launch times resolve bottom-up deterministically; a DES is still
    # used so launcher serialization and report messages share one
    # timeline (and so the engine is exercised at full scale).
    def launch_children(node: TopologyNode) -> None:
        parent_ready = alive_at[node.key]
        launcher = launchers[node.key]
        for child in node.children:
            _, launch_done = launcher.occupy(parent_ready, launch_cost())
            child_alive = launch_done + params.boot_delay
            alive_at[child.key] = child_alive
            critical_launches[child.key] = critical_launches[node.key] + int(
                round((launch_done - parent_ready) / params.rsh_cost)
            )
            launch_children(child)

    launch_children(spec.root)

    # Reports: a leaf reports when alive; an interior node reports when
    # every child's report has arrived (paper: the sub-tree root reports
    # the endpoints reachable through it).
    def report_time(node: TopologyNode) -> float:
        if node.key in reported_at:
            return reported_at[node.key]
        if node.is_leaf:
            t = alive_at[node.key]
        else:
            t = alive_at[node.key]
            for child in node.children:
                t = max(t, report_time(child) + report_cost)
        reported_at[node.key] = t
        return t

    done = report_time(spec.root)
    sim.at(done, lambda: None)
    sim.run()

    return InstantiationResult(
        latency=done,
        processes=len(spec),
        launches_on_critical_path=max(critical_launches.values()),
        events=sim.events_run,
        launch_failures=failures,
    )
