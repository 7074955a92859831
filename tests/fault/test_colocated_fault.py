"""Fault suite over the colocated runtime (one loop, inproc links).

A colocated tree keeps every comm node on ONE shared event loop, with
comm-to-comm edges on in-process deque links.  Failure semantics must
be indistinguishable from the one-thread-per-node runtime: a killed
core's links EOF (frames before ``None``), survivors on the SAME loop
keep running, waves shrink under ``degrade``, orphans re-attach under
``repair``, and ``fail_fast`` poisons the front-end.
"""

import time

import pytest

from repro.core import DEGRADE, FAIL_FAST, REPAIR, Network, NetworkDownError
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, poll_backends, wait_until

WAVE_TIMEOUT = 10.0


def inproc_commnodes(net):
    """The colocated comm nodes whose PARENT edge is an inproc link."""
    return [
        n for n in net._commnodes
        if n.core.parent.transport_kind == "inproc"
    ]


class TestDegradeColocated:
    def test_inproc_parented_kill_shrinks_waves(self, shutdown_nets):
        net = Network(balanced_tree(2, 3), colocate=True, policy=DEGRADE)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)

        # Kill a depth-2 node: its parent edge is an InprocLink, so the
        # EOF travels by deque hand-off inside the shared loop.
        victims = inproc_commnodes(net)
        assert victims, "depth-3 colocated tree must have inproc edges"
        FaultInjector(net).kill_commnode(victims[0].core.name)
        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=5.0,
        )
        # Two leaves gone, the shared loop keeps the survivors running.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)
        assert net.stats()["recovery"]["orphans_adopted"] == 0
        # The loop itself is still alive: the host thread hosts the
        # survivors even though one core finished.
        assert victims[0].host.is_alive()
        assert not victims[0].is_alive()

    def test_root_child_kill_drops_whole_subtree(self, shutdown_nets):
        net = Network(balanced_tree(2, 3), colocate=True, policy=DEGRADE)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)
        FaultInjector(net).kill_commnode(0)
        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=5.0,
        )
        # A root child covers half the leaves; killing it must also
        # tear down its colocated descendants (EOF over inproc).
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)


class TestRepairColocated:
    def test_orphaned_comm_nodes_readopted(self, shutdown_nets):
        """Kill a root child: its two colocated children observe the
        EOF over their INPROC parent links, adopt to the front-end,
        and full-membership waves resume — all on the shared loop."""
        net = Network(balanced_tree(2, 3), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)
        epoch_before = stream.membership_epoch

        stream.send("%d", 0)
        net.flush()
        time.sleep(0.2)
        FaultInjector(net).kill_commnode(0)

        deadline = time.monotonic() + WAVE_TIMEOUT
        replied = set()
        wave2 = None
        while time.monotonic() < deadline:
            poll_backends(net, replied)
            try:
                wave2 = stream.recv(timeout=0.05)
                break
            except TimeoutError:
                continue
        assert wave2 is not None, "in-flight wave never completed"
        assert 4 <= wave2.values[0] <= 8
        assert stream.membership_epoch > epoch_before

        # The victim's comm-node children (inproc-parented) re-attach.
        assert wait_until(
            lambda: net.stats()["recovery"]["orphans_adopted"] >= 2,
            net=net,
            timeout=5.0,
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)


class TestInprocLinkFaults:
    INTERVAL = 0.05

    def test_sever_inproc_link_drops_subtree(self, shutdown_nets):
        """``sever_link`` on an in-process link: the peer's undrained
        frames are discarded (a bare EOF, the deque equivalent of a
        mid-frame TCP truncation) and the subtree behind the link is
        lost, shrinking waves under ``degrade``."""
        net = Network(balanced_tree(2, 3), colocate=True, policy=DEGRADE)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)

        inj = FaultInjector(net)
        core = inj.commnode(0).core
        end = core.children[next(iter(core.children))]
        assert end.transport_kind == "inproc", (
            "root child's comm children must hang off inproc links"
        )
        inj.sever_link(0, child_index=0, mid_frame=True)
        assert ("sever_link", (core.name, end.link_id)) in inj.log
        assert end.closed

        # An inproc link has no reader to surface the EOF on the
        # severing side; like a TCP half-close, the cut is discovered
        # on the next downstream send — the broadcast of this wave.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)
        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=5.0,
        )

    def test_drop_heartbeats_detected_on_shared_loop(self, shutdown_nets):
        """``drop_heartbeats`` on a colocated core: the node keeps
        processing but falls silent, so on an otherwise-idle network
        its parent's liveness deadline fires — over an inproc link."""
        net = Network(
            balanced_tree(2, 3),
            colocate=True,
            policy=DEGRADE,
            heartbeat_interval=self.INTERVAL,
        )
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)

        # Let probes establish the mutual-monitoring sets first.
        time.sleep(4 * self.INTERVAL)
        inj = FaultInjector(net)
        label = inj.commnode_labels()[-1]  # deepest: commnode-parented
        inj.drop_heartbeats(label)

        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=8.0,
        ), "silenced colocated node was never declared dead"
        lost = set()
        for event in net.recovery_events():
            lost.update(event.lost)
        assert len(lost) == 2  # the silenced node's two back-ends
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)


class TestFailFastColocated:
    def test_first_failure_poisons_the_network(self, shutdown_nets):
        net = Network(balanced_tree(2, 3), colocate=True, policy=FAIL_FAST)
        shutdown_nets.append(net)
        FaultInjector(net).kill_commnode(0)
        assert wait_until(
            lambda: net._core.first_failure is not None, net=net, timeout=5.0
        )
        with pytest.raises(NetworkDownError) as exc:
            net.new_stream(net.get_broadcast_communicator())
        assert exc.value.cause is not None
