"""End-to-end tests for pipelined (chunked) collectives.

Covers the PR's acceptance bars directly:

* chunked and unchunked streams produce **identical** results for every
  built-in numeric filter (min/max/sum/avg/concat/scan);
* ``chunk_bytes=None`` reproduces the legacy whole-packet behaviour
  (single packet, original tag, no chunk machinery engaged);
* reduce-to-all streams deliver the reduced wave both to
  the front-end (``Stream.allreduce``) and to every back-end;
* the windowed-aggregation filter smooths across waves.
"""

import numpy as np
import pytest

from repro.core import FormatError, Network, NetworkError, StreamClosed
from repro.core.chunking import split_packet
from repro.core.packet import Packet
from repro.core.protocol import TAG_CHUNK, WAVE_REDUCE, WAVE_REDUCE_TO_ALL
from repro.filters import (
    TFILTER_AVG,
    TFILTER_CONCAT,
    TFILTER_MAX,
    TFILTER_MIN,
    TFILTER_SCAN,
    TFILTER_SUM,
    TFILTER_WINDOW,
)
from repro.topology import balanced_tree, flat_topology

RECV_TIMEOUT = 10.0
N_ELEMS = 4096  # 32 KiB of float64 per rank — far above chunk_bytes below
CHUNK_BYTES = 4096


@pytest.fixture
def net():
    network = Network(balanced_tree(2, 3))  # 8 back-ends, depth 3
    yield network
    network.shutdown()


def rank_array(rank, n=N_ELEMS):
    """A deterministic per-rank float array (varied enough for min/max)."""
    base = np.arange(n, dtype=np.float64)
    return tuple(((base * (rank + 1)) % 257 - 128.0).tolist())


def run_wave(net, stream, fmt="%alf", payload=rank_array):
    """Kick one wave and have every back-end contribute *payload(rank)*."""
    stream.send("%d", 0)
    for rank in sorted(net.backends):
        packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
        s.send(fmt, payload(rank))
    return stream.recv(timeout=RECV_TIMEOUT)


class TestChunkedEquivalence:
    """Chunked == unchunked for every built-in filter (acceptance bar)."""

    @pytest.mark.parametrize(
        "tfilter",
        [TFILTER_MIN, TFILTER_MAX, TFILTER_SUM, TFILTER_AVG, TFILTER_CONCAT],
        ids=["min", "max", "sum", "avg", "concat"],
    )
    def test_numeric_filters_identical(self, net, tfilter):
        comm = net.get_broadcast_communicator()
        whole = net.new_stream(comm, transform=tfilter)
        chunked = net.new_stream(comm, transform=tfilter, chunk_bytes=CHUNK_BYTES)

        p_whole = run_wave(net, whole)
        p_chunked = run_wave(net, chunked)

        # Headers differ (stream ids), but the aggregate must match
        # field-for-field, bit-for-bit.
        assert p_chunked.fmt.canonical == p_whole.fmt.canonical
        assert p_chunked.values == p_whole.values
        assert p_chunked.tag == p_whole.tag

    def test_scan_identical_and_correct(self, net):
        comm = net.get_broadcast_communicator()
        whole = net.new_stream(comm, transform=TFILTER_SCAN)
        chunked = net.new_stream(comm, transform=TFILTER_SCAN, chunk_bytes=CHUNK_BYTES)

        n = 512
        payload = lambda rank: rank_array(rank, n)

        whole.send("%d", 0)
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            s.send("%alf", payload(rank))
        v_whole = whole.scan(timeout=RECV_TIMEOUT)

        chunked.send("%d", 0)
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            s.send("%alf", payload(rank))
        v_chunked = chunked.scan(timeout=RECV_TIMEOUT)

        assert v_chunked == v_whole
        # And both equal the reference prefix sum over rank-ordered input.
        flat = np.concatenate([np.asarray(payload(r)) for r in sorted(net.backends)])
        ref = np.cumsum(flat)
        assert np.allclose(np.asarray(v_whole), ref)

    def test_multiple_chunked_waves_stay_ordered(self, net):
        """Back-to-back chunked waves don't bleed into each other."""
        comm = net.get_broadcast_communicator()
        st = net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=CHUNK_BYTES)
        for round_no in range(3):
            payload = lambda rank: rank_array(rank + round_no * 10)
            result = run_wave(net, st, payload=payload)
            expect = np.sum(
                [np.asarray(payload(r)) for r in sorted(net.backends)], axis=0
            )
            assert np.allclose(np.asarray(result.values[0]), expect)


class TestChunkBytesNone:
    """chunk_bytes=None must reproduce today's behaviour exactly."""

    def test_backends_see_one_whole_packet(self, net):
        comm = net.get_broadcast_communicator()
        st = net.new_stream(comm, transform=TFILTER_SUM)
        assert st.chunk_bytes is None

        big = tuple(float(i) for i in range(N_ELEMS))
        st.send("%alf", big, tag=777)
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            # One packet, original tag — never TAG_CHUNK fragments.
            assert packet.tag == 777
            assert packet.tag != TAG_CHUNK
            assert packet.values == (big,)
            s.send("%d", rank)
        st.recv(timeout=RECV_TIMEOUT)

    def test_manager_runs_unchunked(self, net):
        comm = net.get_broadcast_communicator()
        st = net.new_stream(comm, transform=TFILTER_SUM)
        manager = net._core.stream_state(st.stream_id)
        assert manager.chunk_bytes == 0
        assert not manager.incremental
        assert manager._count_chunks_in_flight() == 0

    def test_invalid_chunk_bytes_rejected(self, net):
        comm = net.get_broadcast_communicator()
        with pytest.raises(NetworkError):
            net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=0)
        with pytest.raises(NetworkError):
            net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=-1)
        with pytest.raises(NetworkError):
            net.new_stream(comm, transform=TFILTER_SUM, pattern=99)
        with pytest.raises(NetworkError, match="unknown wave pattern 2"):
            net.new_stream(comm, transform=TFILTER_SUM, pattern=2)  # was dual-root


class TestReduceToAll:
    def test_allreduce_reaches_frontend_and_backends(self, net):
        comm = net.get_broadcast_communicator()
        st = net.new_stream(
            comm,
            transform=TFILTER_SUM,
            chunk_bytes=CHUNK_BYTES,
            pattern=WAVE_REDUCE_TO_ALL,
        )
        st.send("%d", 0)
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            s.send("%alf", rank_array(rank))

        expect = np.sum(
            [np.asarray(rank_array(r)) for r in sorted(net.backends)], axis=0
        )
        (fe_values,) = st.allreduce(timeout=RECV_TIMEOUT)
        assert np.allclose(np.asarray(fe_values), expect)

        # Every back-end receives the identical broadcast copy.
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            assert s.stream_id == st.stream_id
            (be_values,) = packet.values
            assert be_values == fe_values

    def test_allreduce_unchunked_also_works(self, net):
        comm = net.get_broadcast_communicator()
        st = net.new_stream(comm, transform=TFILTER_SUM, pattern=WAVE_REDUCE_TO_ALL)
        st.send("%d", 0)
        for rank in sorted(net.backends):
            packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            s.send("%d", rank)
        n = len(net.backends)
        assert st.allreduce(timeout=RECV_TIMEOUT) == (n * (n - 1) // 2,)
        for rank in sorted(net.backends):
            packet, _ = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            assert packet.values == (n * (n - 1) // 2,)

    def test_allreduce_rejected_on_plain_stream(self, net):
        comm = net.get_broadcast_communicator()
        st = net.new_stream(comm, transform=TFILTER_SUM)
        assert st.pattern == WAVE_REDUCE
        with pytest.raises(StreamClosed):
            st.allreduce(timeout=1)


class TestFrontEndReassemblyPruned:
    def test_closing_a_stream_drops_its_partial_waves(self, net):
        """A gateway that opens and closes chunked streams must not keep
        one reassembler (and its buffered fragments) per stream ever."""
        comm = net.get_broadcast_communicator()
        for _ in range(5):
            st = net.new_stream(comm, transform=TFILTER_SUM, chunk_bytes=CHUNK_BYTES)
            whole = Packet(st.stream_id, 100, "%alf", (rank_array(0),))
            for frag in split_packet(whole, CHUNK_BYTES, 0)[:3]:
                net._core.deliver_local(frag)  # a wave cut short at the root
            assert net._core.reassembly.pending == 3
            st.close()
            assert len(net._core.reassembly) == 0


class TestWindowFilter:
    def test_windowed_mean_across_waves(self):
        # Flat topology: the filter's sliding window lives only at the
        # front-end, so the smoothed series is directly checkable.
        net = Network(flat_topology(8))
        try:
            comm = net.get_broadcast_communicator()
            st = net.new_stream(comm, transform=TFILTER_WINDOW)
            n_ranks = len(net.backends)
            wave_totals = []
            for round_no in range(6):
                st.send("%d", 0)
                for rank in sorted(net.backends):
                    packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                    s.send("%lf", float(round_no * 100))
                wave_totals.append(round_no * 100.0 * n_ranks)
                (smoothed,) = st.recv_values(timeout=RECV_TIMEOUT)
                window = wave_totals[-4:]  # default window = 4 waves
                assert smoothed == pytest.approx(sum(window) / len(window))
        finally:
            net.shutdown()

    def test_windowed_mean_of_arrays(self):
        net = Network(flat_topology(4))
        try:
            comm = net.get_broadcast_communicator()
            st = net.new_stream(comm, transform=TFILTER_WINDOW)
            sums = []
            for round_no in range(5):
                st.send("%d", 0)
                for rank in sorted(net.backends):
                    packet, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
                    s.send("%alf", (float(round_no), float(rank)))
                sums.append(np.array([round_no * 4.0, 0.0 + 1 + 2 + 3]))
                (smoothed,) = st.recv_values(timeout=RECV_TIMEOUT)
                window = sums[-4:]
                expect = np.mean(window, axis=0)
                assert np.allclose(np.asarray(smoothed), expect)
        finally:
            net.shutdown()


class TestSendSnapshotsNdarrays:
    """``send`` takes its one copy of an ndarray — cast straight into
    the wire frame(s) — before it returns: mutating the array
    afterwards cannot change what arrives, chunked or whole, flushed or
    buffered, upstream or downstream."""

    @pytest.mark.parametrize("chunk_bytes", [None, CHUNK_BYTES])
    @pytest.mark.parametrize("flush", [True, False])
    def test_backend_send(self, net, chunk_bytes, flush):
        stream = net.new_stream(
            net.get_broadcast_communicator(),
            transform=TFILTER_SUM,
            chunk_bytes=chunk_bytes,
        )
        stream.send("%d", 0)
        sources = []
        for rank in sorted(net.backends):
            _, s = net.backends[rank].recv(timeout=RECV_TIMEOUT)
            arr = np.array(rank_array(rank), dtype=np.float64)
            s.send("%alf", arr, flush=flush)
            before = arr.copy()
            arr[:] = -1.0
            sources.append(before)
        for backend in net.backends.values():
            backend.flush()
        result = stream.recv(timeout=RECV_TIMEOUT)
        assert np.array_equal(result.array(0), np.sum(sources, axis=0))

    @pytest.mark.parametrize("chunk_bytes", [None, CHUNK_BYTES])
    def test_frontend_send(self, net, chunk_bytes):
        stream = net.new_stream(
            net.get_broadcast_communicator(), chunk_bytes=chunk_bytes
        )
        arr = np.arange(N_ELEMS, dtype=np.int64)
        stream.send("%ald", arr[::-1])  # a strided view of the caller's array
        arr[:] = 7
        for backend in net.backends.values():
            packet, _ = backend.recv(timeout=RECV_TIMEOUT)
            assert np.array_equal(packet.array(0), np.arange(N_ELEMS)[::-1])

    def test_send_validates_in_place(self, net):
        stream = net.new_stream(net.get_broadcast_communicator())
        with pytest.raises(FormatError):
            stream.send("%ad", np.array([2**31], dtype=np.int64))
        with pytest.raises(FormatError):
            stream.send("%ad", np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(FormatError):
            stream.send("%ad", np.zeros(4, dtype=np.float64))
