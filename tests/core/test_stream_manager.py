"""Tests for per-node stream managers."""

import numpy as np
import pytest

from repro.core.chunking import chunk_meta, reassemble, split_packet
from repro.core.packet import Packet
from repro.core.stream_manager import StreamManager
from repro.filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_TIMEOUT,
    SFILTER_WAITFORALL,
    TFILTER_CONCAT,
    TFILTER_NULL,
    TFILTER_SUM,
    default_registry,
)


def ipkt(v, stream=5, origin=0):
    return Packet(stream, 0, "%d", (v,), origin_rank=origin)


@pytest.fixture
def registry():
    return default_registry()


class TestUpstream:
    def test_wait_for_all_plus_sum(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        assert mgr.push_upstream(10, ipkt(3)) == []
        out = mgr.push_upstream(11, ipkt(4))
        assert len(out) == 1 and out[0].values == (7,)

    def test_do_not_wait_null_passthrough(self, registry):
        mgr = StreamManager.create(
            5, [0], [10], registry, SFILTER_DONTWAIT, TFILTER_NULL
        )
        out = mgr.push_upstream(10, ipkt(9))
        assert [p.values for p in out] == [(9,)]

    def test_timeout_sync_uses_param(self, registry):
        clock_value = [0.0]
        mgr = StreamManager.create(
            5,
            [0, 1],
            [10, 11],
            registry,
            SFILTER_TIMEOUT,
            TFILTER_SUM,
            sync_timeout=2.0,
            clock=lambda: clock_value[0],
        )
        mgr.push_upstream(10, ipkt(1))
        assert mgr.poll_upstream() == []
        clock_value[0] = 2.5
        out = mgr.poll_upstream()
        assert len(out) == 1 and out[0].values == (1,)

    def test_state_persists_across_waves(self, registry):
        from repro.filters.base import make_filter

        def running_sum(packets, state):
            state["acc"] = state.get("acc", 0) + sum(p.values[0] for p in packets)
            return [packets[0].replace(values=(state["acc"],))]

        fid = registry.register_transform(make_filter(running_sum, "rsum"))
        mgr = StreamManager.create(5, [0], [10], registry, SFILTER_DONTWAIT, fid)
        assert mgr.push_upstream(10, ipkt(5))[0].values == (5,)
        assert mgr.push_upstream(10, ipkt(2))[0].values == (7,)

    def test_closed_manager_drops(self, registry):
        mgr = StreamManager.create(
            5, [0], [10], registry, SFILTER_DONTWAIT, TFILTER_NULL
        )
        mgr.close()
        assert mgr.push_upstream(10, ipkt(1)) == []
        assert mgr.poll_upstream() == []

    def test_flush_pushes_partial_waves_through_filter(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        mgr.push_upstream(10, ipkt(3))
        out = mgr.flush_upstream()
        assert len(out) == 1 and out[0].values == (3,)

    def test_drop_link_releases_backlog_and_unblocks(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        mgr.push_upstream(10, ipkt(3))
        out = mgr.drop_link(10)
        assert out and out[0].values == (3,)
        assert 10 not in mgr.child_links
        # Remaining child completes waves alone now.
        out = mgr.push_upstream(11, ipkt(4))
        assert out and out[0].values == (4,)

    def test_pending_counts(self, registry):
        mgr = StreamManager.create(
            5, [0, 1], [10, 11], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        mgr.push_upstream(10, ipkt(3))
        assert mgr.pending == 1


class TestDownstream:
    def test_no_downstream_filter_is_identity(self, registry):
        mgr = StreamManager.create(
            5, [0], [10], registry, SFILTER_WAITFORALL, TFILTER_NULL
        )
        p = ipkt(1)
        assert mgr.transform_downstream(p) == [p]

    def test_downstream_filter_applied(self, registry):
        from repro.filters.base import make_filter

        def double(packets, state):
            return [p.replace(values=(p.values[0] * 2,)) for p in packets]

        fid = registry.register_transform(make_filter(double, "double"))
        mgr = StreamManager.create(
            5,
            [0],
            [10],
            registry,
            SFILTER_WAITFORALL,
            TFILTER_NULL,
            down_transform_filter_id=fid,
        )
        out = mgr.transform_downstream(ipkt(21))
        assert out[0].values == (42,)


class TestCreation:
    def test_concat_manager(self, registry):
        mgr = StreamManager.create(
            7, [0, 1, 2], [10, 11, 12], registry, SFILTER_WAITFORALL, TFILTER_CONCAT
        )
        mgr.push_upstream(10, ipkt(1, stream=7))
        mgr.push_upstream(11, ipkt(2, stream=7))
        out = mgr.push_upstream(12, ipkt(3, stream=7))
        assert out[0].values == ((1, 2, 3),)

    def test_endpoints_frozen(self, registry):
        mgr = StreamManager.create(
            5, [3, 1], [10], registry, SFILTER_WAITFORALL, TFILTER_NULL
        )
        assert mgr.endpoints == frozenset({1, 3})

    def test_repr(self, registry):
        mgr = StreamManager.create(
            5, [0], [10], registry, SFILTER_WAITFORALL, TFILTER_SUM
        )
        assert "stream=5" in repr(mgr) and "sum" in repr(mgr)


# -- one aligner: the same membership outcomes for whole packets and for
# -- pipeline fragments (both park in the stream's synchronization filter)

N_ELEMS = 1024
CHUNK = 2048  # 8 KiB of float64 per contribution -> 4 fragments


@pytest.fixture(params=[False, True], ids=["whole", "fragments"])
def framing(request, registry):
    return Framing(registry, fragments=request.param)


class Framing:
    """Contributions and results as whole packets or as fragment waves."""

    def __init__(self, registry, fragments):
        self.registry = registry
        self.fragments = fragments

    def manager(self, links):
        return StreamManager.create(
            5, list(range(len(links))), links, self.registry,
            SFILTER_WAITFORALL, TFILTER_SUM,
            chunk_bytes=CHUNK if self.fragments else 0,
        )

    def units(self, value, wave):
        """One link's contribution to its *wave*-th wave, in wire order."""
        whole = Packet(5, 100, "%alf", (np.full(N_ELEMS, float(value)),))
        return split_packet(whole, CHUNK, wave) if self.fragments else [whole]

    def push(self, mgr, link, value, wave=0, part=slice(None)):
        out = []
        for unit in self.units(value, wave)[part]:
            out += mgr.push_upstream(link, unit)
        return out

    def values(self, outputs):
        """The value of every *complete* wave in *outputs*, in order."""
        if not self.fragments:
            return [float(p.raw_values[0][0]) for p in outputs]
        waves = {}
        for p in outputs:
            waves.setdefault(chunk_meta(p)[0], []).append(p)
        return [
            float(reassemble(chunks).raw_values[0][0])
            for chunks in waves.values()
            if len(chunks) == chunk_meta(chunks[0])[2]
        ]


class TestAlignerMembership:
    def test_link_adopted_mid_wave_joins_at_the_next_boundary(self, framing):
        mgr = framing.manager([10, 11])
        framing.push(mgr, 10, 1.0)
        # Mid-wave: all but the last of link 11's units are in.
        out = framing.push(mgr, 11, 2.0, part=slice(0, -1))
        mgr.add_link(12)
        assert mgr.membership_epoch == 1
        # The in-flight wave completes over the pre-adoption membership.
        out += framing.push(mgr, 11, 2.0, part=slice(-1, None))
        assert framing.values(out) == [3.0]
        # From the next boundary on the adopted link is a full member.
        out = framing.push(mgr, 10, 1.0, wave=1) + framing.push(mgr, 11, 2.0, wave=1)
        assert framing.values(out) == [] and mgr.pending > 0
        out += framing.push(mgr, 12, 4.0)
        assert framing.values(out) == [7.0]
        assert mgr.pending == 0

    def test_retiring_link_is_not_required_but_its_queued_units_ride(self, framing):
        mgr = framing.manager([10, 11])
        assert framing.push(mgr, 11, 2.0) == []
        mgr.retire_link(11)
        assert mgr.membership_epoch == 1
        assert framing.values(framing.push(mgr, 10, 1.0)) == [3.0]
        # Later waves no longer wait for the lame duck.
        assert framing.values(framing.push(mgr, 10, 5.0, wave=1)) == [5.0]
        assert 11 in mgr.child_links  # still attached until its EOF

    def test_dropped_link_mid_wave_costs_at_most_the_in_flight_wave(self, framing):
        mgr = framing.manager([10, 11, 12])
        out = []
        for wave in (0, 1):
            out += framing.push(mgr, 10, 1.0 + wave, wave)
            out += framing.push(mgr, 11, 2.0 + wave, wave)
        # Link 12 dies having sent half of wave 0 (nothing, when whole).
        out += framing.push(mgr, 12, 4.0, part=slice(0, -2))
        assert framing.values(out) == []
        out += mgr.drop_link(12)
        assert mgr.membership_epoch == 1  # bumped exactly once
        assert mgr.child_links == [10, 11]
        # A fragmented wave already half released is poisoned and aborted
        # (its truncated output never completes); a wave of whole packets
        # simply completes over the survivors.  Either way the wave queued
        # behind it is intact and nothing else is lost.
        aborted = mgr._c_chunk_aborts.value if framing.fragments else 0
        assert aborted == (1 if framing.fragments else 0)
        assert framing.values(out) == ([5.0] if framing.fragments else [3.0, 5.0])
        assert mgr.pending == 0
        assert framing.values(
            framing.push(mgr, 10, 1.0, wave=2) + framing.push(mgr, 11, 1.0, wave=2)
        ) == [2.0]

    def test_watermark_advances_on_release_not_on_arrival(self, registry):
        framing = Framing(registry, fragments=True)
        mgr = framing.manager([10, 11])
        acks = []
        mgr.ack_hook = lambda link, sid, seq: acks.append((link, seq))
        for wave in range(4):
            framing.push(mgr, 10, 1.0, wave)  # all parked: 11 is silent
        assert mgr.watermark(10) == -1 and acks == []
        for wave in range(4):
            framing.push(mgr, 11, 1.0, wave)
        assert (mgr.watermark(10), mgr.watermark(11)) == (3, 3)
        assert sorted(acks) == [(10, 3), (11, 3)]
