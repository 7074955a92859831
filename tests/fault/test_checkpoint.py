"""Watermark deposits: the crash-consistency backbone.

Under ``repair`` every comm node ships a ``TAG_CHECKPOINT`` deposit to
its parent right behind the outputs of each released wave that moved
a watermark: the output wave sequence and the per-child dedup
watermarks (re-keyed by rank set).  When the depositor dies, the
parent seeds the adopted orphans' links from that deposit — replayed
waves the dead node had already forwarded are dropped.

This file covers the pieces in isolation: watermark seeding
monotonicity, the "watermarked means aggregated" rule, the deposit's
place on the wire, and the deposit flow itself.
"""

import json
import time

import numpy as np
import pytest

from repro.core import DEGRADE, REPAIR, Network
from repro.core.batching import decode_batch, encode_batch
from repro.core.chunking import chunk_meta, reassemble, split_packet
from repro.core.commnode import NodeCore
from repro.core.packet import Packet
from repro.core.protocol import (
    TAG_CHECKPOINT,
    make_endpoint_report,
    make_new_stream,
)
from repro.core.stream_manager import StreamManager
from repro.filters import TFILTER_CONCAT, TFILTER_SUM
from repro.filters.registry import SFILTER_WAITFORALL, default_registry
from repro.topology import balanced_tree
from repro.transport.channel import Channel, Inbox

WAVE_TIMEOUT = 10.0


def apkt(values, stream=5, origin=0):
    return Packet(stream, 0, "%alf", (tuple(values),), origin_rank=origin)


@pytest.fixture
def registry():
    return default_registry()


class TestWatermarks:
    def test_seed_is_monotonic(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        assert mgr.watermark(10) == -1
        mgr.seed_watermark(10, 5)
        assert mgr.watermark(10) == 5
        mgr.seed_watermark(10, 3)  # stale seed must never move it back
        assert mgr.watermark(10) == 5
        assert mgr.watermark(11) == -1

    def test_checkpoint_carries_watermarks_and_out_wave(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        mgr.seed_watermark(10, 2)
        doc = mgr.checkpoint_state()
        assert doc["watermarks"] == {10: 2}
        assert doc["out_wave"] == 0


class TestWatermarkedMeansAggregated:
    """A wave that arrived but is still parked behind a sibling is not
    below the watermark, so its sender's post-repair replay is taken —
    the repaired wave equals the fault-free one (12.0, not 9.0)."""

    N_ELEMS = 1024
    CHUNK = 2048  # 4 fragments per contribution

    def fragments(self, value, wave=0):
        whole = Packet(5, 100, "%alf", (np.full(self.N_ELEMS, value),))
        return split_packet(whole, self.CHUNK, wave)

    def manager(self, registry, transform, ranks, links):
        return StreamManager.create(
            5, ranks, links, registry, SFILTER_WAITFORALL, transform,
            chunk_bytes=self.CHUNK,
        )

    @pytest.mark.parametrize(
        "transform", [TFILTER_SUM, TFILTER_CONCAT], ids=["incremental", "reassembled"]
    )
    def test_parked_wave_is_replayed_to_the_adopter(self, registry, transform):
        # The depositor: A's wave 0 fully arrived on link 10, B's (link
        # 11) has not, so nothing was aggregated when it checkpoints.
        depositor = self.manager(registry, transform, [0, 1], [10, 11])
        for frag in self.fragments(3.0):
            assert depositor.push_upstream(10, frag) == []
        doc = depositor.checkpoint_state()
        assert doc["watermarks"] == {} and "sync" not in doc

        # The adopter loses the depositor (link 30), adopts A and B on
        # fresh links seeded from the deposit, and keeps C (link 31).
        adopter = self.manager(registry, transform, [0, 1, 2], [30, 31])
        assert adopter.drop_link(30) == []
        for new_link, old_link in ((20, 10), (21, 11)):
            adopter.add_link(new_link)
            if old_link in doc["watermarks"]:
                adopter.seed_watermark(new_link, doc["watermarks"][old_link])
        out = []
        for link, value in ((20, 3.0), (21, 4.0), (31, 5.0)):  # A replays
            for frag in self.fragments(value):
                out += adopter.push_upstream(link, frag)
        (result,) = reassemble(out).raw_values
        assert float(np.sum(result)) / self.N_ELEMS == 12.0
        assert adopter.pending == 0
        # Now they are aggregated, and say so.
        assert adopter.checkpoint_state()["watermarks"] == {20: 0, 21: 0, 31: 0}


class TestDepositOrder:
    """The deposit rides *behind* the wave it covers.

    A deposit ahead of the last output fragment would let an adopter
    drop a replay whose contribution never arrived if the node died
    between the two frames; one behind a later wave would let that
    wave's replay through twice.  Both ride in one parent frame."""

    N_ELEMS = 1024
    CHUNK = 2048  # 4 fragments per contribution

    def test_deposit_follows_the_last_output_fragment(self):
        parent_inbox, node_inbox = Inbox(), Inbox()
        core = NodeCore(
            "depositor", default_registry(), 2,
            parent=Channel(parent_inbox, node_inbox).end_b, inbox=node_inbox,
        )
        links = []
        for _ in range(2):
            ch = Channel(node_inbox, Inbox())
            core.add_child(ch.end_a)
            links.append(ch.link_id)
        core.configure_failure(policy=REPAIR)
        for rank, link in enumerate(links):
            core.dispatch(link, make_endpoint_report([rank]))
        core.handle_control_down(make_new_stream(
            5, [0, 1], SFILTER_WAITFORALL, TFILTER_SUM, chunk_bytes=self.CHUNK,
        ))
        core.flush()
        while not parent_inbox.empty():
            parent_inbox.get_nowait()

        frames = []  # one list of packets per flush toward the parent
        for wave in range(2):
            frags = [
                split_packet(apkt(np.full(self.N_ELEMS, 1.0 + rank)), self.CHUNK, wave)
                for rank in range(2)
            ]
            for index in range(4):
                for rank, link in enumerate(links):
                    core.handle_payload(link, encode_batch([frags[rank][index]]))
                    core.flush()
                    frame = []
                    while not parent_inbox.empty():
                        frame += decode_batch(parent_inbox.get_nowait()[1])
                    frames.append(frame)

        deposits = []
        for frame in frames:
            for pos, packet in enumerate(frame):
                if packet.tag != TAG_CHECKPOINT:
                    continue
                # Right behind the released wave's last output fragment,
                # in the same frame.
                assert pos > 0
                wave_id, index, n, _tag = chunk_meta(frame[pos - 1])
                assert index == n - 1
                stream_id, out_wave, payload = packet.unpack()
                assert (stream_id, out_wave) == (5, wave_id + 1)
                deposits.append(json.loads(payload)["watermarks"])
        # One deposit per released wave, none before the first one.
        assert deposits == [{"0": 0, "1": 0}, {"0": 1, "1": 1}]


class _FullEnd:
    """A parent end whose send queue never has room: every flush toward
    it is deferred, so released fragments stay in the parent buffer."""

    send_backlog = 1
    closed = False

    def __init__(self, link_id):
        self.link_id = link_id

    def send_capacity(self):
        return 0

    def close(self):
        pass


class TestEachFragmentAdmittedOnce:
    """A repaired node replays its history and then carries over its old
    parent buffer, so a fragment released but not yet flushed reaches
    the adopter twice.  The adopter admits each fragment once."""

    N_ELEMS = 1024
    CHUNK = 2048  # 4 fragments per contribution

    def fragments(self, value, origin):
        whole = apkt(np.full(self.N_ELEMS, value), origin=origin)
        return split_packet(whole, self.CHUNK, 0)

    def orphan_output(self):
        """Fragments a backpressured node sends its adopter when its
        parent dies after it released 2 of 4 fragments per child."""
        node_inbox, adopter_inbox = Inbox(), Inbox()
        full = _FullEnd(Channel(Inbox(), node_inbox).link_id)
        core = NodeCore("orphan", default_registry(), 2, parent=full, inbox=node_inbox)
        links = []
        for _ in range(2):
            ch = Channel(node_inbox, Inbox())
            core.add_child(ch.end_a)
            links.append(ch.link_id)
        adopter = Channel(adopter_inbox, node_inbox)
        core.configure_failure(policy=REPAIR, repair_fn=lambda: adopter.end_b)
        for rank, link in enumerate(links):
            core.dispatch(link, make_endpoint_report([rank]))
        core.handle_control_down(make_new_stream(
            5, [0, 1], SFILTER_WAITFORALL, TFILTER_SUM, chunk_bytes=self.CHUNK,
        ))
        frags = [self.fragments(1.0 + rank, rank) for rank in range(2)]

        def deliver(indices):
            for index in indices:
                for rank, link in enumerate(links):
                    core.handle_payload(link, encode_batch([frags[rank][index]]))
            core.flush()

        deliver(range(2))
        core.handle_payload(full.link_id, None)  # the parent's EOF
        deliver(range(2, 4))
        sent = []
        while not adopter_inbox.empty():
            sent += decode_batch(adopter_inbox.get_nowait()[1])
        return [p for p in sent if p.stream_id == 5]

    def test_adopter_drops_the_carried_over_duplicates(self, registry):
        sent = self.orphan_output()
        assert [chunk_meta(p)[:2] for p in sent] == [
            (0, 0), (0, 1), (0, 0), (0, 1), (0, 2), (0, 3)
        ]
        adopter = StreamManager.create(
            5, [0, 1, 2], [7, 8], registry, SFILTER_WAITFORALL, TFILTER_SUM,
            chunk_bytes=self.CHUNK,
        )
        out = []
        for frag in self.fragments(5.0, 2):  # a sibling's whole wave
            out += adopter.push_upstream(8, frag)
        for frag in sent:
            out += adopter.push_upstream(7, frag)
        assert adopter._c_chunk_aborts.value == 0
        assert adopter._in.duplicates_dropped == 2
        assert [chunk_meta(p)[:2] for p in out] == [(0, i) for i in range(4)]
        (result,) = reassemble(out).raw_values
        assert np.array_equal(result, np.full(self.N_ELEMS, 8.0))


def array_wave(net, st):
    """One SUM wave of all-ones arrays; returns its element 0."""
    st.send("%d", 0)
    for rank in sorted(net.backends):
        _, bstream = net.backends[rank].recv(timeout=WAVE_TIMEOUT)
        bstream.send("%alf", (1.0,) * 1024)  # 4 fragments of 2 KiB
    (result,) = st.recv(timeout=WAVE_TIMEOUT).values
    return result[0]


def deposited(net, st):
    return any(sid == st.stream_id for (_link, sid) in net._core._checkpoints)


def checkpoint_bytes(net):
    return sum(
        s.get("checkpoint_bytes", 0)
        for name, s in net.stats().items()
        if name != "recovery"
    )


class TestCheckpointFlow:
    def test_deposits_reach_the_parent(self, shutdown_nets):
        """Under repair every comm node ships a deposit behind each
        released chunked wave; the front-end holds its children's
        latest documents as soon as the wave is in, and the shipped
        bytes are accounted."""
        net = Network(balanced_tree(2, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        st = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM,
            chunk_bytes=2048,
        )
        assert array_wave(net, st) == 4.0
        assert deposited(net, st)
        assert checkpoint_bytes(net) > 0

    def test_closed_streams_leave_no_deposits(self, shutdown_nets):
        """A stream's deposits go with it: closing it drops what the
        parent holds, and a deposit that crosses the close on the wire
        is refused rather than stored for a stream that is gone."""
        net = Network(balanced_tree(2, 2), policy=REPAIR)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        for _ in range(20):
            st = net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=2048)
            assert array_wave(net, st) == 4.0
            assert deposited(net, st)
            st.close()
        time.sleep(0.1)  # deposits already on their way up land now
        net.flush()
        assert not net._core._checkpoints

    def test_no_deposits_when_disabled(self, shutdown_nets):
        """No deposits under ``degrade``, and none on an unchunked
        stream under ``repair``: whole packets move no watermark."""
        for policy, chunk_bytes in ((DEGRADE, 2048), (REPAIR, None)):
            net = Network(balanced_tree(2, 2), transport="tcp", policy=policy)
            shutdown_nets.append(net)
            st = net.new_stream(
                net.get_broadcast_communicator(), transform=TFILTER_SUM,
                chunk_bytes=chunk_bytes,
            )
            assert array_wave(net, st) == 4.0
            time.sleep(0.1)
            net.flush()
            assert not net._core._checkpoints
            assert checkpoint_bytes(net) == 0
