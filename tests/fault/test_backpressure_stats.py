"""Bounded-send-queue and link-death accounting (the PR 2 data-plane
hardening, exercised here through real failures).

``send_queue_full`` counts lossless backpressure deferrals: a flush
parked because the link's bounded send queue lacked capacity.
``messages_dropped_on_close`` counts packets discarded because their
link was already dead at flush time.  Closure must propagate — a
stream waiting on a dead child releases instead of hanging.
"""

import socket
import time

import pytest

from repro.core import Network
from repro.core.commnode import NodeCore
from repro.core.protocol import make_endpoint_report, make_new_stream
from repro.core.packet import Packet
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.filters.registry import (
    SFILTER_WAITFORALL,
    TFILTER_SUM as TF_SUM,
    default_registry,
)
from repro.topology import balanced_tree
from repro.transport.channel import Channel, Inbox

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0


def build_core(n_children=2):
    registry = default_registry()
    parent_inbox, node_inbox = Inbox(), Inbox()
    parent_ch = Channel(parent_inbox, node_inbox)
    core = NodeCore(
        "drop-test", registry, n_children, parent=parent_ch.end_b, inbox=node_inbox
    )
    child_ends, child_links = [], []
    for _ in range(n_children):
        ci = Inbox()
        ch = Channel(node_inbox, ci)
        core.add_child(ch.end_a)
        child_ends.append(ch.end_b)  # the child's end (closable)
        child_links.append(ch.link_id)
    return core, parent_inbox, child_ends, child_links, parent_ch


class TestDropOnClose:
    def test_packets_to_dead_link_dropped_with_accounting(self):
        """Queue a multicast toward a child, kill the child before the
        flush: the packets are dropped (counted), the closure
        propagates, and the waiting wave releases over the survivor."""
        core, parent_inbox, child_ends, child_links, parent_ch = build_core()
        for i, link in enumerate(child_links):
            core.dispatch(link, make_endpoint_report([i]))
        core.dispatch(
            parent_ch.end_b.link_id,
            make_new_stream(1, [0, 1], SFILTER_WAITFORALL, TF_SUM),
        )
        # Multicast queued to both children; child 0 dies mid-multicast.
        core.dispatch(parent_ch.end_b.link_id, Packet(1, 100, "%d", (7,)))
        child_ends[0].close()
        core.flush()
        assert core.metrics.counters()["messages_dropped_on_close"].value >= 1
        # Closure propagated into the stream: the wave must now release
        # on the survivor's contribution alone.
        core.dispatch(child_links[1], Packet(1, 100, "%d", (5,), origin_rank=1))
        core.flush()
        got = []
        while not parent_inbox.empty():
            _, payload = parent_inbox.get_nowait()
            if payload is not None:
                from repro.core.batching import decode_batch

                got.extend(decode_batch(payload))
        sums = [p for p in got if p.stream_id == 1]
        assert sums and sums[-1].values == (5,)


class TestBackpressure:
    def test_send_queue_full_then_lossless_drain(self, shutdown_nets):
        """A stalled consumer backs the bounded queue up (deferrals
        counted, nothing lost); resuming drains every packet."""
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        inj = FaultInjector(net)
        core = inj.commnode(0).core
        # Shrink the bounded send queues *and* the kernel socket
        # buffers, so a handful of packets is enough to back the
        # stalled links up (no need to move megabytes).
        for end in core.children.values():
            end.max_send_bytes = 1 << 14
            end._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        inj.stall_backend(0)
        inj.stall_backend(1)

        blob = "x" * 8192
        n_sent = 12
        # One packet per flush cycle: coalescing them into a single
        # batch would be accepted wholesale (an empty queue takes any
        # one message), never exercising the deferral path.
        for _ in range(n_sent):
            stream.send("%s", blob)
            net.flush()
            time.sleep(0.02)
        assert wait_until(
            lambda: core.metrics.counters()["send_queue_full"].value >= 1,
            net=net,
            poll=False,
            timeout=5.0,
        ), "backpressure deferral never counted"
        before_drop = core.metrics.counters()["messages_dropped_on_close"].value

        inj.resume_backend(0)
        inj.resume_backend(1)
        # Lossless: both stalled back-ends eventually see all packets.
        received = {0: 0, 1: 0}
        deadline = time.monotonic() + WAVE_TIMEOUT
        while time.monotonic() < deadline and any(
            v < n_sent for v in received.values()
        ):
            for rank in (0, 1):
                got = net.backends[rank].poll()
                if got is not None:
                    received[rank] += 1
        assert received == {0: n_sent, 1: n_sent}
        assert core.metrics.counters()["messages_dropped_on_close"].value == before_drop

    def test_parked_packets_dropped_when_stalled_leaf_dies(self, shutdown_nets):
        """Packets parked by backpressure are dropped with accounting
        when their link dies instead of wedging the node."""
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        inj = FaultInjector(net)
        core = inj.commnode(0).core
        for end in core.children.values():
            end.max_send_bytes = 1 << 14
            end._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        inj.stall_backend(0)
        blob = "x" * 8192
        for _ in range(12):
            stream.send("%s", blob)
            net.flush()
            time.sleep(0.02)
        assert wait_until(
            lambda: core.metrics.counters()["send_queue_full"].value >= 1,
            net=net,
            poll=False,
            timeout=5.0,
        )
        inj.kill_backend(0)
        assert wait_until(
            lambda: core.metrics.counters()["messages_dropped_on_close"].value >= 1,
            net=net,
            poll=False,
            timeout=5.0,
        ), "parked packets never dropped after link death"
        # The node is still healthy: a wave over the survivors works.
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (3,)
