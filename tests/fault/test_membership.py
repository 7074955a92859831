"""Elastic membership: back-ends join and leave a *running* network.

A brand-new rank joins via :meth:`Network.attach_backend` with no
reserved slot: the recovery coordinator picks a live parent, and the
``TAG_JOIN`` announcement — the §2.5 endpoint report reused for
elastic membership — splices the rank into routing and open streams
at every ancestor, entering waves at an epoch boundary.  A back-end
leaves via :meth:`BackEnd.leave`: it flushes, announces ``TAG_LEAVE``,
and its EOF is an expected departure, never failure-accounted.

The churn invariant (the tentpole's acceptance): waves flowing while
members come and go must never *tear* — every aggregate the front-end
releases is an exact per-member sum for a membership the stream
actually held, never a double-count and never a silent partial.
"""

import time

import pytest

from repro.core import REPAIR, Network, NetworkError
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0


def waves_until_sum(net, stream, want, allowed, timeout=WAVE_TIMEOUT):
    """Drive waves until one sums to *want*; every observed wave must
    stay inside *allowed* (the torn-epoch assertion).  Returns the
    sums seen, ending with *want*."""
    deadline = time.monotonic() + timeout
    seen = []
    while time.monotonic() < deadline:
        try:
            wave = drive_wave(net, stream, 2.0)
        except TimeoutError:
            continue
        total = wave.values[0]
        seen.append(total)
        assert total in allowed, (
            f"torn wave: sum {total} matches no valid membership "
            f"{sorted(allowed)} (history: {seen})"
        )
        if total == want:
            return seen
    raise AssertionError(f"waves never reached sum {want}; saw {seen}")


def assert_heard_once(net, stream, changes, exclude):
    """Every back-end but *exclude* logged exactly *changes* (as
    ``(lost, gained)`` pairs), one entry per change, with the tree
    epochs the front-end stamped on them."""
    survivors = [be for rank, be in net.backends.items() if rank != exclude]
    assert wait_until(
        lambda: all(len(be.membership_events) >= len(changes) for be in survivors),
        net=net,
        timeout=5.0,
    ), "a surviving back-end never heard the change"
    drive_wave(net, stream, WAVE_TIMEOUT)  # anything trailing has landed
    stamped = [e.epoch for e in net.recovery_events()]
    for be in survivors:
        assert [(e.lost, e.gained) for e in be.membership_events] == changes
        assert [e.epoch for e in be.membership_events] == stamped


class TestJoin:
    @pytest.mark.parametrize("mode", ["tcp", "colocated", "process"])
    def test_new_rank_joins_running_network(self, shutdown_nets, mode):
        kwargs = {"colocate": True} if mode == "colocated" else {"transport": mode}
        net = Network(balanced_tree(2, 2), policy=REPAIR, **kwargs)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        joiner = net.attach_backend()
        assert joiner.rank == 4
        assert joiner.connected
        assert 4 in net.backends

        # The joined rank receives broadcasts and contributes to waves.
        waves_until_sum(net, stream, 5, allowed={4, 5})

        # Every ancestor spliced it in; the front-end fired the gained
        # event and counted the join.
        gained = set()
        for event in net.recovery_events():
            gained.update(event.gained)
        assert 4 in gained
        assert net.stats()["recovery"]["members_joined"] >= 1
        # One join is one change: each survivor hears it exactly once.
        assert_heard_once(net, stream, [((), (4,))], exclude=4)

    def test_explicit_unreserved_rank_and_duplicate_rejected(
        self, shutdown_nets
    ):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        joiner = net.attach_backend(7)
        assert joiner.rank == 7
        waves_until_sum(net, stream, 5, allowed={4, 5})
        with pytest.raises(NetworkError):
            net.attach_backend(7)

        # RanksChanged flooded DOWN too: surviving back-ends hear about
        # the new member on their control stream.
        assert wait_until(
            lambda: any(
                any(7 in event.gained for event in be.membership_events)
                for rank, be in net.backends.items()
                if rank != 7
            ),
            net=net,
            timeout=5.0,
        ), "no existing back-end ever heard the join"


class TestLeave:
    def test_leave_shrinks_without_failure_accounting(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        net.backends[3].leave()
        assert net.backends[3].left
        assert net.backends[3].shut_down

        waves_until_sum(net, stream, 3, allowed={3, 4})

        # A leave is an announced departure: membership shrinks and the
        # lost event fires, but nothing is failure-accounted and no
        # orphan needed adopting.
        lost = set()
        for event in net.recovery_events():
            lost.update(event.lost)
        assert lost == {3}
        recovery = net.stats()["recovery"]
        assert recovery["members_left"] >= 1
        assert recovery["nodes_failed"] == 0
        assert recovery["orphans_adopted"] == 0

    def test_survivors_hear_the_departure(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
        net.backends[0].leave()
        waves_until_sum(net, stream, 3, allowed={3, 4})
        assert wait_until(
            lambda: any(
                any(0 in event.lost for event in be.membership_events)
                for rank, be in net.backends.items()
                if rank != 0
            ),
            net=net,
            timeout=5.0,
        ), "no surviving back-end ever heard the leave"
        # One leave is one change: each survivor hears it exactly once.
        assert_heard_once(net, stream, [((0,), ())], exclude=0)


class TestChurn:
    def test_waves_never_tear_while_members_come_and_go(self, shutdown_nets):
        """Interleave joins and leaves with continuously flowing waves:
        every aggregate must match an exact membership (8 or 9 here) —
        the scaled-down version of the 16-join/16-leave acceptance run
        (the full-size churn lives in the nightly chaos soak)."""
        net = Network(balanced_tree(2, 3), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)
        epoch0 = stream.membership_epoch

        allowed = {8, 9}
        net.attach_backend()
        waves_until_sum(net, stream, 9, allowed)
        net.backends[0].leave()
        waves_until_sum(net, stream, 8, allowed)
        net.attach_backend()
        waves_until_sum(net, stream, 9, allowed)
        net.backends[1].leave()
        waves_until_sum(net, stream, 8, allowed)

        assert stream.membership_epoch > epoch0
        recovery = net.stats()["recovery"]
        assert recovery["members_joined"] >= 2
        assert recovery["members_left"] >= 2
        assert recovery["nodes_failed"] == 0
        assert not net.unexpected_packets()
