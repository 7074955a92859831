"""Filter-state checkpoints: the crash-consistency backbone.

Comm nodes with ``checkpoint_interval`` set periodically ship a
``TAG_CHECKPOINT`` deposit per stream to their parent: the output wave
sequence, per-child dedup watermarks (re-keyed by rank set), and the
serialized transform filter state.  When the depositor dies, the
parent seeds the adopted orphans' links from that deposit — replayed
waves the dead node had already forwarded are dropped, and a partial
reduction resumes instead of silently restarting.

This file covers the pieces in isolation: the ``get_state`` /
``set_state`` round-trips (scalar state, bounded deques of arrays),
the pristine-only restore rule, watermark seeding monotonicity, the
"watermarked means aggregated" rule, and the deposit flow itself.
"""

import time

import numpy as np
import pytest

from repro.core import REPAIR, Network
from repro.core.chunking import reassemble, split_packet
from repro.core.packet import Packet
from repro.core.stream_manager import StreamManager
from repro.filters import TFILTER_CONCAT, TFILTER_SUM, window_filter
from repro.filters.base import FilterState, make_filter
from repro.filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_WAITFORALL,
    default_registry,
)
from repro.topology import balanced_tree

from .conftest import drive_wave, wait_until

WAVE_TIMEOUT = 10.0


def ipkt(v, stream=5, origin=0):
    return Packet(stream, 0, "%d", (v,), origin_rank=origin)


def apkt(values, stream=5, origin=0):
    return Packet(stream, 0, "%alf", (tuple(values),), origin_rank=origin)


@pytest.fixture
def registry():
    return default_registry()


def running_sum_manager(registry, links=(10,)):
    """A manager whose transform carries scalar state across waves."""

    def running_sum(packets, state):
        state["acc"] = state.get("acc", 0) + sum(p.values[0] for p in packets)
        return [packets[0].replace(values=(state["acc"],))]

    fid = registry.register_transform(make_filter(running_sum, "rsum"))
    return StreamManager.create(
        5, [0], list(links), registry, SFILTER_DONTWAIT, fid
    )


class TestFilterStateRoundTrip:
    def test_scalar_transform_state_resumes(self, registry):
        mgr1 = running_sum_manager(registry)
        assert mgr1.push_upstream(10, ipkt(5))[0].values == (5,)
        assert mgr1.push_upstream(10, ipkt(2))[0].values == (7,)
        doc = mgr1.checkpoint_state()
        assert doc["transform"]["acc"] == 7

        # A pristine adopter resumes the partial reduction exactly.
        mgr2 = running_sum_manager(registry)
        mgr2.restore_state(doc)
        assert mgr2.push_upstream(10, ipkt(1))[0].values == (8,)

    def test_dirty_adopter_refuses_stale_state(self, registry):
        mgr1 = running_sum_manager(registry)
        mgr1.push_upstream(10, ipkt(100))
        doc = mgr1.checkpoint_state()

        mgr2 = running_sum_manager(registry)
        mgr2.push_upstream(10, ipkt(3))  # mgr2 owns its state now
        mgr2.restore_state(doc)  # must be a no-op
        assert mgr2.push_upstream(10, ipkt(4))[0].values == (7,)

    def test_window_deque_of_arrays_roundtrips(self):
        """The window filter's state — a bounded deque of numpy arrays
        — survives the JSON-able snapshot encoding byte-for-byte."""
        state = FilterState()
        window_filter([apkt([1.0, 2.0])], state)
        window_filter([apkt([3.0, 4.0])], state)
        snapshot = window_filter.get_state(state)

        restored = FilterState()
        window_filter.set_state(restored, snapshot)
        assert restored["window"].maxlen == state["window"].maxlen
        # Identical continuation: the next wave's smoothed output is
        # the same whether or not the node died in between.
        (a,) = window_filter([apkt([5.0, 6.0])], state)
        (b,) = window_filter([apkt([5.0, 6.0])], restored)
        assert a.values == b.values


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
        assert doc["epoch"] == mgr.membership_epoch


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


class TestCheckpointFlow:
    def test_deposits_reach_the_parent(self, shutdown_nets):
        """With ``checkpoint_interval`` set, every comm node ships
        per-stream deposits upstream; the front-end holds its
        children's latest documents and the shipped bytes are
        accounted."""
        net = Network(
            balanced_tree(2, 2),
            transport="tcp",
            policy=REPAIR,
            checkpoint_interval=0.02,
        )
        shutdown_nets.append(net)
        st = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, st, WAVE_TIMEOUT).values == (4,)

        assert wait_until(
            lambda: any(
                sid == st.stream_id for (_link, sid) in net._core._checkpoints
            ),
            net=net,
            timeout=WAVE_TIMEOUT,
            poll=False,
        ), "no checkpoint deposit ever reached the front-end"
        shipped = sum(
            s.get("checkpoint_bytes", 0)
            for name, s in net.stats().items()
            if name != "recovery"
        )
        assert shipped > 0

    def test_closed_streams_leave_no_deposits(self, shutdown_nets):
        """A stream's deposits go with it: closing it drops what the
        parent holds, and a deposit that crosses the close on the wire
        is refused rather than stored for a stream that is gone."""
        net = Network(balanced_tree(2, 2), checkpoint_interval=0.01)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        for _ in range(20):
            st = net.new_stream(comm, transform=TFILTER_SUM)
            assert drive_wave(net, st, WAVE_TIMEOUT).values == (4,)
            assert wait_until(
                lambda: any(sid == st.stream_id for _link, sid in net._core._checkpoints),
                net=net,
                timeout=WAVE_TIMEOUT,
                poll=False,
            )
            st.close()
        time.sleep(0.1)  # deposits already on their way up land now
        net.flush()
        assert not net._core._checkpoints

    def test_no_deposits_when_disabled(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="tcp")
        shutdown_nets.append(net)
        st = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, st, WAVE_TIMEOUT).values == (4,)
        time.sleep(0.1)
        net.flush()
        assert not net._core._checkpoints
        assert all(
            s.get("checkpoint_bytes", 0) == 0
            for name, s in net.stats().items()
            if name != "recovery"
        )
