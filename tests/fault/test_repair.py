"""Tree repair under the ``repair`` policy (and its policy siblings).

The acceptance scenario: a fan-out-4, depth-2 TCP tree loses one
internal node mid-stream.  The in-flight Wait-For-All wave must
complete over the survivors within seconds, the front-end must learn
which ranks left (RANKS_CHANGED), the orphaned back-ends must be
re-adopted by a live ancestor, and the next wave must again cover the
full rank set.
"""

import time

import pytest

from repro.core import DEGRADE, FAIL_FAST, REPAIR, Network, NetworkDownError
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, poll_backends, wait_until

WAVE_TIMEOUT = 10.0


class TestRepairPolicy:
    def test_orphans_readopted_and_waves_recover(self, shutdown_nets):
        """Kill one comm node mid-wave: survivors finish the wave, the
        orphans reconnect, and full-membership waves resume."""
        net = Network(balanced_tree(4, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )

        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (16,)
        epoch_before = stream.membership_epoch

        # Wave 2: broadcast, let it reach the leaves, then kill the
        # first comm node (orphaning ranks 0-3) before anyone replies.
        stream.send("%d", 0)
        net.flush()
        time.sleep(0.2)
        FaultInjector(net).kill_commnode(0)

        t0 = time.monotonic()
        deadline = t0 + WAVE_TIMEOUT
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
        # The acceptance bound: the wave completes over survivors
        # within 5 seconds of the kill.  At minimum the 12 survivor
        # ranks contribute; orphans that reconnect fast enough to
        # re-send their reply may push the sum as high as 16.
        assert time.monotonic() - t0 < 5.0
        assert 12 <= wave2.values[0] <= 16
        assert stream.membership_epoch > epoch_before

        # The front-end was told which ranks vanished.
        lost = [e for e in net.recovery_events() if e.lost]
        assert lost and lost[0].epoch > epoch_before
        assert set(lost[0].lost) == {0, 1, 2, 3}

        # Orphans reconnect to a live ancestor (driven by their polls).
        assert wait_until(
            lambda: net.stats()["recovery"]["orphans_adopted"] >= 4,
            net=net,
            timeout=5.0,
        )
        recovery = net.stats()["recovery"]
        assert recovery["orphans_adopted"] >= 4
        assert recovery["nodes_failed"] == 1
        gained = set()
        for event in net.recovery_events():
            gained.update(event.gained)
        assert gained == {0, 1, 2, 3}

        # Post-repair wave covers the full rank set again.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (16,)
        assert sum(be.reconnects for be in net.backends.values()) == 4

    def test_process_transport_repairs_orphans(self, shutdown_nets):
        """Repair now covers real ``mrnet_commnode`` processes: SIGKILL
        one internal process and its orphaned back-ends re-home onto a
        live ancestor, restoring full wave coverage."""
        net = Network(balanced_tree(2, 2), transport="process", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        FaultInjector(net).kill_process(0)

        # Survivor waves may run short while the orphans re-home (the
        # repair fires from their polls); within the acceptance bound
        # a wave must cover the full rank set again.
        deadline = time.monotonic() + WAVE_TIMEOUT
        full = None
        while time.monotonic() < deadline:
            try:
                wave = drive_wave(net, stream, 2.0)
            except TimeoutError:
                continue
            if wave.values == (4,):
                full = wave
                break
        assert full is not None, "waves never recovered full membership"
        assert sum(be.reconnects for be in net.backends.values()) == 2


class TestDegradePolicy:
    def test_waves_shrink_but_network_survives(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=DEGRADE)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        FaultInjector(net).kill_commnode(0)
        assert wait_until(
            lambda: any(e.lost for e in net.recovery_events()),
            net=net,
            timeout=5.0,
        )
        # No adoption under degrade: the subtree is simply gone.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (2,)
        assert net.stats()["recovery"]["orphans_adopted"] == 0


class TestFailFastPolicy:
    def test_first_failure_poisons_the_network(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=FAIL_FAST)
        shutdown_nets.append(net)
        FaultInjector(net).kill_commnode(0)
        assert wait_until(
            lambda: net._core.first_failure is not None, net=net, timeout=5.0
        )
        with pytest.raises(NetworkDownError) as exc:
            net.new_stream(net.get_broadcast_communicator())
        assert exc.value.cause is not None
