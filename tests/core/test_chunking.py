"""Unit tests for the chunked-wave framing codec (repro.core.chunking)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.chunking import (
    ACK_STRIDE,
    CHUNK_PREFIX_FMT,
    HISTORY_MAX_BYTES,
    HISTORY_MAX_WAVES,
    ChunkReassembler,
    ReceiveWindow,
    SendWindow,
    chunk_meta,
    chunkable_bytes,
    is_chunk,
    reassemble,
    split_packet,
    strip_chunk,
    wrap_chunk,
)
from repro.core.packet import Packet
from repro.core.protocol import TAG_CHUNK


def make_packet(n=1000, fmt="%alf", tag=105, origin=3):
    values = (tuple(float(i) for i in range(n)),)
    return Packet(9, tag, fmt, values, origin_rank=origin)


class TestSplit:
    def test_small_payload_travels_whole(self):
        p = make_packet(4)
        assert split_packet(p, 1 << 20, 0) is None

    def test_disabled_chunking_returns_none(self):
        assert split_packet(make_packet(), 0, 0) is None
        assert split_packet(make_packet(), None, 0) is None

    def test_no_array_payload_never_splits(self):
        p = Packet(9, 100, "%d %s", (1, "x" * 10000))
        assert chunkable_bytes(p) == 0
        assert split_packet(p, 16, 0) is None

    def test_split_fragments_are_chunks(self):
        p = make_packet(1000)  # 8000 payload bytes
        chunks = split_packet(p, 1024, wave_id=5)
        assert chunks is not None and len(chunks) == 8
        for i, c in enumerate(chunks):
            assert is_chunk(c)
            assert c.tag == TAG_CHUNK
            assert c.stream_id == p.stream_id
            assert c.origin_rank == p.origin_rank
            assert chunk_meta(c) == (5, i, 8, p.tag)

    def test_roundtrip_byte_identity(self):
        """split → wire → reassemble reproduces the original exactly."""
        p = make_packet(1000)
        chunks = split_packet(p, 1024, 0)
        # Simulate the wire hop for every fragment.
        wired = [Packet.from_bytes(c.to_bytes()) for c in chunks]
        whole = reassemble(wired)
        assert whole.stream_id == p.stream_id
        assert whole.tag == p.tag
        assert whole.origin_rank == p.origin_rank
        assert whole.values == p.values
        assert whole.to_bytes() == p.to_bytes()

    def test_scalars_replicate_arrays_slice(self):
        arr = tuple(range(100))
        p = Packet(9, 100, "%d %aud %s", (7, arr, "label"))
        chunks = split_packet(p, 128, 0)
        assert chunks is not None and len(chunks) > 1
        for c in chunks:
            inner = strip_chunk(c)
            assert inner.values[0] == 7
            assert inner.values[2] == "label"
        whole = reassemble(chunks)
        assert whole.values == p.values

    def test_uneven_division_loses_nothing(self):
        p = make_packet(997)  # prime length: uneven slices
        chunks = split_packet(p, 1000, 0)
        sizes = [len(strip_chunk(c).values[0]) for c in chunks]
        assert sum(sizes) == 997
        assert reassemble(chunks).values == p.values


class TestStripWrap:
    def test_strip_restores_format_and_tag(self):
        p = make_packet(1000, tag=321)
        c = split_packet(p, 1024, 0)[3]
        inner = strip_chunk(c)
        assert inner.tag == 321
        assert inner.fmt.canonical == p.fmt.canonical

    def test_wrap_reframes_whole_packet(self):
        p = make_packet(100)
        c = wrap_chunk(p, wave_id=2, index=1, n_chunks=4)
        assert is_chunk(c)
        assert chunk_meta(c) == (2, 1, 4, p.tag)
        back = strip_chunk(c)
        assert back.values == p.values
        assert back.tag == p.tag


class TestReassembler:
    def test_in_order_completion(self):
        p = make_packet(1000)
        ra = ChunkReassembler()
        outs = [ra.add(c) for c in split_packet(p, 1024, 0)]
        assert outs[:-1] == [None] * 7
        assert outs[-1].values == p.values
        assert ra.pending == 0
        assert ra.discarded_waves == 0

    def test_restart_discards_stale_partial(self):
        p = make_packet(1000)
        first = split_packet(p, 1024, wave_id=0)
        second = split_packet(p, 1024, wave_id=1)
        ra = ChunkReassembler()
        for c in first[:3]:  # truncated wave (sender died mid-wave)
            assert ra.add(c) is None
        out = None
        for c in second:
            out = ra.add(c)
        assert out is not None and out.values == p.values
        assert ra.discarded_waves == 1

    def test_orphan_tail_dropped(self):
        p = make_packet(1000)
        chunks = split_packet(p, 1024, 0)
        ra = ChunkReassembler()
        assert ra.add(chunks[5]) is None  # start never seen
        assert ra.pending == 0

    def test_empty_reassemble_raises(self):
        with pytest.raises(ValueError):
            reassemble([])


class TestPrefixFormat:
    def test_prefix_field_count_matches(self):
        from repro.core.formats import parse_format

        assert len(parse_format(CHUNK_PREFIX_FMT).fields) == 4

    def test_int_array_dtype_survives(self):
        arr = np.arange(500, dtype=np.int64)
        p = Packet(9, 100, "%ald", (arr,))
        chunks = split_packet(p, 512, 0)
        wired = [Packet.from_bytes(c.to_bytes()) for c in chunks]
        whole = reassemble(wired)
        assert whole.values == (tuple(range(500)),)


# -- the link protocol's two halves, alone: no threads, no sleeps ---------


def wave_of(wave_id, n_elems=1000, chunk_bytes=2048):
    """The fragments of one sender wave (4 fragments by default)."""
    return split_packet(make_packet(n_elems), chunk_bytes, wave_id)


def history_of(window):
    return [seq for seq, _chunks in window._history]


class TestSendWindow:
    def test_split_numbers_waves_and_skips_small_packets(self):
        w = SendWindow()
        assert w.split(make_packet(4), 2048) is None and w.wave == 0
        assert w.split(make_packet(1000), 0) is None and w.wave == 0
        for expect in (0, 1):
            chunks = w.split(make_packet(1000), 2048)
            assert {chunk_meta(c)[0] for c in chunks} == {expect}
        assert w.wave == 2

    @pytest.mark.parametrize(
        "n_waves, n_elems, chunk_bytes, kept",
        [
            # Wave bound: the oldest waves go first, one whole wave at a time.
            (HISTORY_MAX_WAVES + 3, 1000, 2048, HISTORY_MAX_WAVES),
            # Byte bound: ~1 MiB waves, so only 3 fit under 4 MiB.
            (6, 1 << 17, 1 << 18, 3),
        ],
        ids=["waves", "bytes"],
    )
    def test_history_never_exceeds_either_bound(
        self, n_waves, n_elems, chunk_bytes, kept
    ):
        w = SendWindow()
        for _ in range(n_waves):
            for chunk in w.split(make_packet(n_elems), chunk_bytes):
                w.record(chunk)
                assert len(w._history) <= HISTORY_MAX_WAVES
                assert w._bytes <= HISTORY_MAX_BYTES
        assert history_of(w) == list(range(n_waves - kept, n_waves))
        assert w._bytes == sum(c.nbytes for _s, cs in w._history for c in cs)

    def test_ack_is_cumulative_and_a_stale_ack_is_a_noop(self):
        w = SendWindow()
        for _ in range(5):
            for chunk in w.split(make_packet(1000), 2048):
                w.record(chunk)
        w.ack(2)
        assert history_of(w) == [3, 4]
        w.ack(0)  # reordered / duplicate ACK for an older wave
        w.ack(2)
        assert history_of(w) == [3, 4]
        w.ack(99)
        assert history_of(w) == [] and w._bytes == 0

    def test_resend_skips_aged_out_waves_and_counts_replays(self):
        w = SendWindow()
        n = HISTORY_MAX_WAVES + 2  # waves 0 and 1 age out
        for _ in range(n):
            for chunk in w.split(make_packet(1000), 2048):
                w.record(chunk)
        replay = w.resend_since(-1)  # asks for everything; gets what is left
        assert [chunk_meta(c)[:2] for c in replay] == [
            (seq, i) for seq in range(2, n) for i in range(4)
        ]
        assert (w.waves_replayed, w.chunks_replayed) == (HISTORY_MAX_WAVES, len(replay))
        assert len(w.resend_since(n - 2)) == 4  # just the newest wave
        assert w.resend_since(n) == []
        assert w.waves_replayed == HISTORY_MAX_WAVES + 1

    @pytest.mark.parametrize("sender", ["node output", "back-end split"])
    def test_history_pins_only_the_bytes_it_counts(self, sender):
        """A recorded fragment keeps its frame and nothing else: not the
        reduced array behind a node's output, nor the caller's array a
        back-end's fragments slice.  Both senders drop those once sent."""
        w = SendWindow()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
            if sender == "node output":  # a filter's result, re-framed
                whole = Packet.trusted(9, 105, "%alf", (data,), 3)
                chunks = [wrap_chunk(whole, w.wave, 0, 1)]
            else:  # BackEndStream.send: the caller's array by reference
                whole = Packet(9, 105, "%alf", (data,), 3, copy=False)
                chunks = w.split(whole, 1 << 18)
            for chunk in chunks:
                chunk.encoded_view()  # the send encodes it
                w.record(chunk)
            del data, whole, chunks, chunk
            gc.collect()
            pinned = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert w._bytes > 1 << 20
        assert abs(pinned - w._bytes) < 64 << 10, (pinned, w._bytes)
        replay = w.resend_since(-1)
        assert np.array_equal(
            reassemble(replay).raw_values[0], np.arange(1 << 17, dtype=np.float64)
        )

    def test_aborted_wave_leaves_a_gap_not_an_entry(self):
        w = SendWindow()
        w.record(w.split(make_packet(1000), 2048)[0])
        w.wave += 1  # a wave aborted before emitting anything
        w.record(w.split(make_packet(1000), 2048)[0])
        assert history_of(w) == [0, 2]


class TestReceiveWindow:
    def feed(self, window, key, chunks):
        """Admit then reassemble; returns (wholes, nacks)."""
        wholes, nacks = [], []
        for chunk in chunks:
            accept, nack = window.admit(key, chunk)
            if nack is not None:
                nacks.append(nack)
            if accept:
                whole = window.add(key, chunk)
                if whole is not None:
                    wholes.append(whole)
        return wholes, nacks

    def test_in_order_waves_pass_and_watermark_follows_release(self):
        w = ReceiveWindow()
        wholes, nacks = self.feed(w, "a", wave_of(0) + wave_of(1))
        assert len(wholes) == 2 and nacks == []
        # Arrived is not aggregated: nothing is watermarked (or ACKed)
        # until the aligner reports the release.
        assert w.watermarks == {}
        assert w.release("a", 0) is None
        assert w.watermarks == {"a": 0}

    @pytest.mark.parametrize("replayed", [0, 1], ids=["aggregated", "parked"])
    def test_duplicate_wave_dropped_and_counted(self, replayed):
        w = ReceiveWindow()
        self.feed(w, "a", wave_of(0) + wave_of(1))
        w.release("a", 0)  # wave 1 still parked in the aligner
        wholes, nacks = self.feed(w, "a", wave_of(replayed))
        assert wholes == [] and nacks == []
        assert w.duplicates_dropped == 4
        assert w.pending == 0

    def test_gap_yields_one_nack_however_many_fragments_follow(self):
        w = ReceiveWindow()
        self.feed(w, "a", wave_of(0))
        wholes, nacks = self.feed(w, "a", wave_of(3) + wave_of(4))
        assert nacks == [1]  # once per (key, expected)
        assert len(wholes) == 2  # gaps are normal: later waves still pass
        # A second gap further on is a new (key, expected) pair.
        assert self.feed(w, "a", wave_of(7))[1] == [5]
        # Another sender has its own sequence space.
        assert self.feed(w, "b", wave_of(2))[1] == [0]

    def test_replay_after_nack_is_deduplicated_per_wave(self):
        w = ReceiveWindow()
        self.feed(w, "a", wave_of(0))
        self.feed(w, "a", wave_of(3))  # NACK(1) went out
        wholes, nacks = self.feed(w, "a", wave_of(3) + wave_of(4))
        assert len(wholes) == 1 and nacks == []  # 3 again: dropped; 4: new
        assert w.duplicates_dropped == 4

    def test_mid_sequence_restart_discards_the_partial_wave_once(self):
        w = ReceiveWindow()
        wholes, _ = self.feed(w, "a", wave_of(0)[:2] + wave_of(1))
        assert len(wholes) == 1 and w.discarded_waves == 1
        wholes, _ = self.feed(w, "a", wave_of(2))
        assert len(wholes) == 1 and w.discarded_waves == 1

    def test_ack_every_stride_of_aggregated_waves(self):
        w = ReceiveWindow()
        acks = [w.release("a", seq) for seq in range(2 * ACK_STRIDE)]
        assert [a for a in acks if a is not None] == [
            ACK_STRIDE - 1, 2 * ACK_STRIDE - 1
        ]

    def test_seeded_watermark_is_monotonic_and_drops_the_prefix(self):
        w = ReceiveWindow()
        w.seed_watermark("a", 5)
        w.seed_watermark("a", 3)  # a stale seed never moves it back
        assert w.watermarks == {"a": 5}
        wholes, nacks = self.feed(w, "a", wave_of(5) + wave_of(6))
        assert len(wholes) == 1 and nacks == []

    def test_drop_and_drop_stream_prune_every_table(self):
        w = ReceiveWindow()
        for key in [(7, 0), (7, 1), (8, 0)]:
            w.admit(key, wave_of(0)[0])
            w.add(key, wave_of(0)[0])
        assert len(w) == 3 and w.pending == 3
        w.drop_stream(7)
        assert len(w) == 1 and w.pending == 1
        w.release((8, 0), 0)
        w.drop((8, 0))
        assert len(w) == 0 and w.watermarks == {}
        # A dropped key starts from scratch: wave 0 is new again.
        assert w.admit((8, 0), wave_of(0)[0]) == (True, None)
