"""STATS_SNAPSHOT gather tests: key schema, wire pull path, and
behaviour under an in-flight wave and a mid-run node kill."""

import json
import re
import time

import pytest

from repro.core import REPAIR, Network
from repro.faultinject import FaultInjector
from repro.filters.registry import SFILTER_WAITFORALL, TFILTER_SUM
from repro.obs.snapshot import STATS_SCHEMA
from repro.topology import balanced_tree

from ..fault.conftest import drive_wave, shutdown_nets, wait_until  # noqa: F401

TOPO = "fe:0 => cn:0 cn:1 ; cn:0 => be:0 be:1 ; cn:1 => be:2 be:3 ;"

RANK_KEY = re.compile(r"^\d+:")


def _process_keys(stats):
    """The uniform ``rank:hostname`` process keys of a stats() result."""
    return {k for k in stats if RANK_KEY.match(k)}


def _new_sum_stream(net):
    return net.new_stream(
        net.get_broadcast_communicator(),
        transform=TFILTER_SUM,
        sync=SFILTER_WAITFORALL,
    )


class TestStatsKeys:
    def test_uniform_rank_keys_without_deprecated_aliases(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        s = net.stats()

        keys = _process_keys(s)
        assert "0:front-end" in keys
        assert len(keys) == 3  # front-end + two comm nodes

        # The bare-label aliases deprecated in PR 4 were removed one
        # release later: processes appear ONLY under rank:hostname.
        assert "front-end" not in s
        for identity in keys:
            bare = identity.split(":", 1)[1]
            assert bare not in s

    def test_meta_block(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        meta = net.stats()["meta"]
        assert meta["schema"] == STATS_SCHEMA
        assert meta["transport"] == "local"
        assert meta["gathered"] is True
        assert meta["replies"] == meta["expected"] == 2

    def test_gather_false_skips_the_wire(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        s = net.stats(gather=False)
        meta = s["meta"]
        assert meta["gathered"] is False and meta["replies"] == 0
        # Thread-hosted registries are still readable in-process.
        assert len(_process_keys(s)) == 3

    def test_per_stream_series_and_histograms(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        stream = _new_sum_stream(net)
        assert drive_wave(net, stream, value=2).values == (8,)

        s = net.stats()
        sid = stream.stream_id
        for key in _process_keys(s) - {"0:front-end"}:
            proc = s[key]
            assert proc[f'waves_released{{filter="sum",stream="{sid}"}}'] == 1
            assert proc[f'membership_epoch{{stream="{sid}"}}'] == 0
            hists = proc["histograms"]
            assert f'wave_latency_seconds{{stream="{sid}"}}' in hists
            assert hists["flush_batch_packets"]["count"] > 0


class TestGatherDuringWave:
    def test_snapshot_completes_while_wave_waits(self, shutdown_nets):
        """A WaitForAll wave parked in the sync filters must not block
        the control-stream gather (the pull path and the data path are
        independent, §2.3)."""
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        stream = _new_sum_stream(net)

        stream.send("%d", 0)
        net.flush()
        # One backend per comm node replies; each comm node's
        # Wait-For-All filter now holds a half wave.
        for rank in (0, 2):
            be = net.backends[rank]
            pkt, bstream = be.recv(timeout=5)
            bstream.send("%d", 10, tag=pkt.tag)
            be.flush()

        s = net.stats()
        assert s["meta"]["replies"] == s["meta"]["expected"] == 2
        sid = stream.stream_id
        wave_key = f'waves_released{{filter="sum",stream="{sid}"}}'
        for key in _process_keys(s) - {"0:front-end"}:
            assert s[key][wave_key] == 0  # still waiting, not disturbed

        # The gather did not consume or release the wave: finish it.
        for rank in (1, 3):
            be = net.backends[rank]
            pkt, bstream = be.recv(timeout=5)
            bstream.send("%d", 10, tag=pkt.tag)
            be.flush()
        assert stream.recv(timeout=5).values == (40,)
        s = net.stats()
        for key in _process_keys(s) - {"0:front-end"}:
            assert s[key][wave_key] == 1


class TestGatherAcrossFailure:
    def test_dead_node_absent_survivors_labelled(self, shutdown_nets):
        """Kill a comm node under the repair policy: its identity
        disappears from stats() (a dead process has no counters) while
        every survivor still reports, per-stream labels intact."""
        net = Network(balanced_tree(4, 2), transport="tcp", policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream).values == (16,)

        before = _process_keys(net.stats())
        assert len(before) == 5  # front-end + four comm nodes

        FaultInjector(net).kill_commnode(0)
        assert wait_until(
            lambda: net.stats()["recovery"]["orphans_adopted"] >= 4,
            net=net,
            timeout=5.0,
        )

        s = net.stats()
        after = _process_keys(s)
        dead = before - after
        assert len(dead) == 1, f"exactly one identity should vanish: {dead}"
        assert s["meta"]["replies"] == s["meta"]["expected"] == 3

        sid = stream.stream_id
        epoch_key = f'membership_epoch{{stream="{sid}"}}'
        survivors = after - {"0:front-end"}
        assert len(survivors) == 3
        for key in survivors:
            assert epoch_key in s[key]
        # Somebody's wave membership changed: the adopter (or the
        # front-end, if it adopted the orphans directly) bumped.
        epochs = [s[key].get(epoch_key, 0) for key in after]
        assert max(epochs) > 0


class TestStatsExports:
    def test_stats_json_document_shape(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        stream = _new_sum_stream(net)
        drive_wave(net, stream)

        doc = json.loads(net.stats_json())
        assert doc["meta"]["schema"] == STATS_SCHEMA
        procs = doc["processes"]
        assert set(procs) == _process_keys(net.stats())
        for snap in procs.values():
            assert set(snap) == {"counters", "gauges", "histograms"}
        assert "recovery" in doc

    def test_stats_prometheus_exposition(self, shutdown_nets):
        net = Network(TOPO, transport="local")
        shutdown_nets.append(net)
        stream = _new_sum_stream(net)
        drive_wave(net, stream)

        text = net.stats_prometheus()
        assert '# TYPE mrnet_packets_in counter' in text
        assert 'process="0:front-end"' in text
        # Per-stream labels survive into the exposition, merged with
        # the process label.
        assert f'stream="{stream.stream_id}"' in text
        assert 'mrnet_wave_latency_seconds_bucket' in text
        assert 'le="+Inf"' in text
        assert 'process="recovery"' in text


class TestProcessTransportGather:
    def test_wire_gather_reaches_separate_processes(self, shutdown_nets):
        """On the process transport the wire pull is the *only* way to
        see internal-node counters; gather=False shows just the
        front-end."""
        net = Network(balanced_tree(2, 2), transport="process")
        shutdown_nets.append(net)

        local = net.stats(gather=False)
        assert _process_keys(local) == {"0:front-end"}

        s = net.stats(timeout=10.0)
        meta = s["meta"]
        assert meta["gathered"] is True
        assert meta["replies"] == meta["expected"] == 2
        keys = _process_keys(s)
        assert len(keys) == 3
        for key in keys - {"0:front-end"}:
            assert s[key]["packets_in"] >= 0

    def test_gather_does_not_wait_for_a_dead_process(self, shutdown_nets):
        """A killed root child drops out of the gather census: the next
        gather hears from the survivor and returns, instead of waiting
        out its whole timeout for a process that cannot answer."""
        net = Network(balanced_tree(2, 2), transport="process")
        shutdown_nets.append(net)
        healthy = net.stats(timeout=10.0)["meta"]["expected"]

        net._procs[0].kill()
        net._procs[0].wait(timeout=5)

        timeout = 4.0
        t0 = time.monotonic()
        meta = net.stats(timeout=timeout)["meta"]
        assert time.monotonic() - t0 < timeout / 2
        assert meta["expected"] == healthy - 1
        assert meta["replies"] == meta["expected"]

