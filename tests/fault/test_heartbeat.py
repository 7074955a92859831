"""Liveness probing: wedged-but-connected peers must be detected.

A crashed process closes its sockets — EOF is the detector.  A
*wedged* process keeps its connections open and processes nothing;
only the heartbeat deadline catches that.  Probing is strictly
pairwise-consensual: a node applies the silence deadline only to
links whose peer has itself probed, so passive peers (back-ends, the
front-end) are never falsely declared dead.
"""

import time

import pytest

from repro.core import DEGRADE, Network
from repro.core.failure import HB_JITTER, HB_MISS_THRESHOLD
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0
INTERVAL = 0.05


def heartbeat_net(shutdown_nets, depth=3, fanout=2, interval=INTERVAL, **kwargs):
    net = Network(
        balanced_tree(fanout, depth),
        transport="tcp",
        heartbeat_interval=interval,
        **kwargs,
    )
    shutdown_nets.append(net)
    return net


class TestWedgeDetection:
    def test_wedged_node_declared_dead_by_parent(self, shutdown_nets):
        """Depth-3 tree so comm nodes probe each other; wedging a
        level-2 node leaves its sockets open, yet its parent's
        deadline fires and the front-end learns which ranks died.

        The 0.6 s deadline (3 x 0.2 s) is one a healthy node's loop
        meets on a busy two-CPU machine; at 3 x 0.05 s healthy links
        were declared dead about two runs in ten."""
        interval = 0.2
        net = heartbeat_net(shutdown_nets, interval=interval)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)

        # Let probes establish the mutual-monitoring sets.
        time.sleep(4 * interval)
        inj = FaultInjector(net)
        # Last-built comm node is on the deepest internal level; its
        # parent is another comm node (not the passive front-end).
        label = inj.commnode_labels()[-1]
        inj.wedge_commnode(label)

        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=8.0,
        ), "wedged node was never declared dead"
        lost = set()
        for event in net.recovery_events():
            lost.update(event.lost)
        assert len(lost) == 2  # the wedged node's two back-ends
        missed = sum(
            s.get("heartbeats_missed", 0)
            for name, s in net.stats().items()
            if name != "recovery"
        )
        assert missed >= 1
        # Survivors keep working.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)

    def test_wedged_node_stops_probing(self, shutdown_nets):
        net = heartbeat_net(shutdown_nets, depth=2)
        time.sleep(4 * INTERVAL)
        inj = FaultInjector(net)
        core = inj.commnode(0).core
        inj.wedge_commnode(0)
        sent = core.metrics.counters()["heartbeats_sent"].value
        time.sleep(4 * INTERVAL)
        assert core.metrics.counters()["heartbeats_sent"].value == sent


class TestHeartbeatJitter:
    def test_probe_schedules_stay_in_band_and_desync(self, shutdown_nets):
        """Probe emission is jittered ±20% around the base interval
        with a name-seeded generator: every draw stays inside the
        band, and distinct nodes draw distinct schedules, so a large
        tree's probe bursts never align into a thundering herd.  The
        *detection* deadline is never jittered."""
        net = heartbeat_net(shutdown_nets, depth=3)
        assert HB_JITTER == pytest.approx(0.2)
        assert HB_MISS_THRESHOLD * net.heartbeat_interval == pytest.approx(3 * INTERVAL)

        schedules = []
        for node in net._commnodes:
            seq = tuple(node.core._draw_hb_interval() for _ in range(8))
            for interval in seq:
                assert 0.8 * INTERVAL - 1e-9 <= interval <= 1.2 * INTERVAL + 1e-9
            schedules.append(seq)
        # De-sync: six nodes, six different schedules (per-name seeds
        # are deterministic across runs but never shared across nodes).
        assert len(set(schedules)) == len(schedules)


class TestNoFalsePositives:
    def test_passive_peers_survive_long_silence(self, shutdown_nets):
        """Back-ends and the front-end never probe, so an idle network
        with heartbeats on must not declare anyone dead."""
        net = heartbeat_net(shutdown_nets, depth=2)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
        # Far past the deadline (3 * INTERVAL) with all tool threads idle.
        time.sleep(10 * INTERVAL)
        assert net.stats()["recovery"]["heartbeats_missed"] == 0
        assert not any(e.lost for e in net.recovery_events())
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

    def test_heartbeats_disabled_by_default(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        assert net.heartbeat_interval == 0
        time.sleep(0.2)
        assert all(
            s.get("heartbeats_sent", 0) == 0
            for name, s in net.stats().items()
            if name != "recovery"
        )
