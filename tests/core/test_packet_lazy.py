"""Tests for the zero-copy lazy data plane.

Covers the three new packet constructors (`lazy_from_wire`, `trusted`,
and eager `decode_from(trusted=...)`), codec edge cases on both the
eager and lazy paths, the round-trip identity property, and the relay
fast path through a comm node (asserted via the
``packets_relayed_zero_copy`` stat counter).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import PacketBuffer, decode_batch, encode_batch
from repro.core.commnode import NodeCore
from repro.core.packet import _NUMPY_THRESHOLD, Packet, PacketDecodeError
from repro.core.protocol import CONTROL_STREAM_ID, make_new_stream
from repro.filters.registry import (
    SFILTER_DONTWAIT,
    TFILTER_NULL,
    default_registry,
)
from repro.transport.channel import Channel, Inbox

_HEADER = struct.Struct(">IiI")
_U32 = struct.Struct(">I")


# -- edge-case corpus, exercised on both decode paths ---------------------

EDGE_PACKETS = [
    # empty arrays of every base kind
    Packet(1, 1, "%ad %af %as %ac", ((), (), (), ())),
    # arrays straddling the numpy threshold
    Packet(1, 2, "%ad", (tuple(range(_NUMPY_THRESHOLD - 1)),)),
    Packet(1, 3, "%ad", (tuple(range(_NUMPY_THRESHOLD)),)),
    Packet(1, 4, "%ad", (tuple(range(_NUMPY_THRESHOLD + 1)),)),
    Packet(1, 5, "%alf", (tuple(float(i) for i in range(_NUMPY_THRESHOLD * 3)),)),
    # multi-byte UTF-8, scalar and array
    Packet(1, 6, "%s", ("héllo ✓ 日本語 𝄞",)),
    Packet(1, 7, "%as", (("", "é", "日本", "𝄞𝄞"),)),
    # blobs, including NUL and high bytes
    Packet(1, 8, "%b", (b"\x00\xff\x7f binary",)),
    Packet(1, 9, "%b %d", (b"", -7)),
    # a mixed kitchen-sink packet
    Packet(
        3,
        -5,
        "%c %ud %uld %f %b %aud %as",
        (255, 2**32 - 1, 2**64 - 1, 0.5, b"xy", (0, 2**32 - 1), ("a", "ß")),
        origin_rank=42,
    ),
]


@pytest.mark.parametrize("p", EDGE_PACKETS, ids=lambda p: f"tag{p.tag}")
def test_edge_cases_eager_and_lazy_agree(p):
    frame = p.to_bytes()
    eager = Packet.from_bytes(frame)
    lazy = Packet.lazy_from_wire(frame)
    assert eager == p
    assert lazy == p
    assert lazy.values == eager.values


@pytest.mark.parametrize("p", EDGE_PACKETS, ids=lambda p: f"tag{p.tag}")
def test_lazy_roundtrip_identity(p):
    frame = p.to_bytes()
    assert Packet.lazy_from_wire(frame).to_bytes() == frame


# -- the round-trip property, over arbitrary well-typed packets -----------

_field = st.sampled_from(
    [
        ("%d", st.integers(-(2**31), 2**31 - 1)),
        ("%uld", st.integers(0, 2**64 - 1)),
        ("%lf", st.floats(allow_nan=False, width=64)),
        ("%s", st.text(max_size=30)),
        ("%b", st.binary(max_size=30)),
        ("%ad", st.lists(st.integers(-(2**31), 2**31 - 1), max_size=100)),
        ("%alf", st.lists(st.floats(allow_nan=False, width=64), max_size=100)),
        ("%as", st.lists(st.text(max_size=10), max_size=5)),
    ]
)


@st.composite
def packets(draw):
    fields = draw(st.lists(_field, min_size=1, max_size=5))
    fmt = " ".join(spec for spec, _ in fields)
    values = tuple(draw(strategy) for _, strategy in fields)
    return Packet(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(-(2**31), 2**31 - 1)),
        fmt,
        values,
        origin_rank=draw(st.integers(0, 2**32 - 1)),
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(packets())
    def test_lazy_identity_and_value_equality(self, p):
        frame = p.to_bytes()
        lazy = Packet.lazy_from_wire(frame)
        # identity BEFORE any decode
        assert lazy.to_bytes() == frame
        # and still after values were forced
        eager = Packet.from_bytes(frame)
        assert lazy.values == eager.values
        assert lazy.to_bytes() == frame

    @settings(max_examples=50, deadline=None)
    @given(st.lists(packets(), max_size=8))
    def test_batch_relay_is_byte_identical(self, ps):
        payload = encode_batch(ps)
        relayed = encode_batch(decode_batch(payload))
        assert relayed == payload


class TestLazyDecode:
    def test_header_only_parse(self):
        p = Packet(7, -3, "%d %s", (1, "x"), origin_rank=9)
        lazy = Packet.lazy_from_wire(p.to_bytes())
        assert (lazy.stream_id, lazy.tag, lazy.origin_rank) == (7, -3, 9)
        assert not lazy.values_decoded
        # fmt access parses the format but still not the values
        assert lazy.fmt.canonical == "%d %s"
        assert not lazy.values_decoded
        assert lazy.values == (1, "x")
        assert lazy.values_decoded

    def test_nbytes_does_not_decode(self):
        p = Packet(1, 2, "%ad", (tuple(range(100)),))
        lazy = Packet.lazy_from_wire(p.to_bytes())
        assert lazy.nbytes == len(p.to_bytes())
        assert not lazy.values_decoded

    def test_encoded_view_is_zero_copy(self):
        frame = Packet(1, 2, "%d", (5,)).to_bytes()
        view = memoryview(frame)
        lazy = Packet.lazy_from_wire(view)
        assert lazy.encoded_view() is view
        assert not lazy.values_decoded

    def test_non_canonical_format_relays_byte_identically(self):
        """A frame with non-canonical fmt text must relay bit-exact."""
        fmt_text = b"  %d   %s "  # decodes fine, but not canonical
        body = struct.pack(">i", 42) + _U32.pack(1) + b"z"
        frame = (
            _HEADER.pack(5, 6, 7) + _U32.pack(len(fmt_text)) + fmt_text + body
        )
        lazy = Packet.lazy_from_wire(frame)
        assert lazy.to_bytes() == frame
        assert lazy.values == (42, "z")
        # the eager path canonicalises instead
        assert Packet.from_bytes(frame).to_bytes() != frame

    def test_header_truncation_raises_immediately(self):
        with pytest.raises(PacketDecodeError):
            Packet.lazy_from_wire(b"\x00\x01")

    def test_body_truncation_raises_on_access(self):
        data = Packet(0, 0, "%d %s", (1, "hello world")).to_bytes()
        for cut in (13, 16, len(data) // 2, len(data) - 1):
            lazy = Packet.lazy_from_wire(data[:cut])
            with pytest.raises(PacketDecodeError):
                lazy.values

    def test_truncated_large_array_raises_on_access(self):
        data = Packet(0, 0, "%alf", (tuple(float(i) for i in range(500)),)).to_bytes()
        lazy = Packet.lazy_from_wire(data[: len(data) - 8])
        with pytest.raises(PacketDecodeError):
            lazy.values

    def test_trailing_garbage_raises_on_access(self):
        lazy = Packet.lazy_from_wire(Packet(0, 0, "%d", (1,)).to_bytes() + b"xx")
        with pytest.raises(PacketDecodeError):
            lazy.values

    def test_batch_framing_still_validated_eagerly(self):
        payload = encode_batch([Packet(0, 0, "%d", (1,))])
        with pytest.raises(PacketDecodeError):
            decode_batch(payload[:-3])
        with pytest.raises(PacketDecodeError):
            decode_batch(payload + b"zz")
        with pytest.raises(PacketDecodeError):
            decode_batch(b"")

    def test_eager_decode_batch_mode(self):
        ps = [Packet(0, i, "%d", (i,)) for i in range(3)]
        out = decode_batch(encode_batch(ps), lazy=False)
        assert out == ps
        assert all(p.values_decoded for p in out)


class TestTrustedConstructor:
    def test_skips_normalisation(self):
        # the validating constructor would reject this out-of-range int
        with pytest.raises(Exception):
            Packet(0, 0, "%d", (2**40,))
        p = Packet.trusted(0, 0, "%d", (7,))
        assert p.values == (7,)
        assert p.to_bytes() == Packet(0, 0, "%d", (7,)).to_bytes()

    def test_carries_ndarray_fields(self):
        arr = np.arange(200, dtype=np.int64)
        arr.setflags(write=False)
        p = Packet.trusted(1, 2, "%ald", (arr,))
        assert isinstance(p.raw_values[0], np.ndarray)
        assert p.values == (tuple(range(200)),)
        assert Packet.from_bytes(p.to_bytes()).values == p.values

    def test_decode_from_untrusted_revalidates(self):
        p = Packet(1, 2, "%d %as", (5, ("a", "b")))
        blob = p.to_bytes()
        q, end = Packet.decode_from(blob, 0, trusted=False)
        assert q == p and end == len(blob)


class TestNdarrayBackedFields:
    def test_large_wire_array_decodes_to_readonly_view(self):
        p = Packet(1, 0, "%alf", (tuple(float(i) for i in range(1000)),))
        lazy = Packet.lazy_from_wire(p.to_bytes())
        raw = lazy.raw_values[0]
        assert isinstance(raw, np.ndarray)
        assert not raw.flags.writeable
        assert len(raw) == 1000
        # public access materialises a plain tuple and caches it
        assert lazy.values[0] == tuple(float(i) for i in range(1000))
        assert lazy.values is lazy.values

    def test_small_wire_array_stays_tuple(self):
        p = Packet(1, 0, "%ad", ((1, 2, 3),))
        lazy = Packet.lazy_from_wire(p.to_bytes())
        assert isinstance(lazy.raw_values[0], tuple)

    def test_array_accessor(self):
        vals = tuple(float(i) for i in range(300))
        lazy = Packet.lazy_from_wire(Packet(1, 0, "%alf", (vals,)).to_bytes())
        arr = lazy.array(0)
        assert isinstance(arr, np.ndarray)
        assert float(arr.sum()) == sum(vals)
        with pytest.raises(Exception):
            Packet(1, 0, "%s", ("x",)).array(0)

    def test_ndarray_equality_and_hash_match_eager(self):
        vals = tuple(range(500))
        frame = Packet(1, 0, "%aud", (vals,)).to_bytes()
        lazy, eager = Packet.lazy_from_wire(frame), Packet.from_bytes(frame)
        assert lazy == eager
        assert hash(lazy) == hash(eager)


class TestRelayFastPath:
    def _build_relay(self):
        registry = default_registry()
        parent_inbox, node_inbox = Inbox(), Inbox()
        up = Channel(parent_inbox, node_inbox)
        core = NodeCore("relay", registry, 1, parent=up.end_b, inbox=node_inbox)
        child_inbox = Inbox()
        down = Channel(node_inbox, child_inbox)
        core.add_child(down.end_a)
        return core, parent_inbox, child_inbox, down.link_id

    def test_unknown_stream_relays_without_decoding(self):
        core, parent_inbox, _, child_link = self._build_relay()
        payload = encode_batch(
            [Packet(99, 5, "%alf %s", (tuple(map(float, range(200))), "x"), 3)]
        )
        core.handle_payload(child_link, payload)
        assert core.metrics.counters()["packets_relayed_zero_copy"].value == 1
        # the buffered packet is still an undecoded wire frame
        (buffered,) = core._parent_buffer._packets
        assert not buffered.values_decoded
        core.flush()
        _, sent = parent_inbox.get_nowait()
        assert sent == payload  # byte-identical relay

    def test_downstream_flood_relays_without_decoding(self):
        core, _, child_inbox, _ = self._build_relay()
        payload = encode_batch([Packet(42, 1, "%d", (5,), 0)])
        core.handle_payload(core.parent_link_id, payload)
        assert core.metrics.counters()["packets_relayed_zero_copy"].value == 1
        core.flush()
        _, sent = child_inbox.get_nowait()
        assert sent == payload

    def test_null_filter_stream_stays_lazy(self):
        core, parent_inbox, _, child_link = self._build_relay()
        new_stream = make_new_stream(
            7, [0], sync_filter_id=SFILTER_DONTWAIT, transform_filter_id=TFILTER_NULL
        )
        core.routing.add_report(child_link, [0])
        core.handle_control_down(new_stream)
        data = encode_batch([Packet(7, 1, "%ad", (tuple(range(100)),), 0)])
        core.handle_payload(child_link, data)
        assert core.metrics.counters()["packets_relayed_zero_copy"].value == 1
        core.flush()
        deliveries = []
        while not parent_inbox.empty():
            _, sent = parent_inbox.get_nowait()
            deliveries.extend(decode_batch(sent))
        data_pkts = [p for p in deliveries if p.stream_id == 7]
        assert len(data_pkts) == 1
        assert data_pkts[0].values == (tuple(range(100)),)

    def test_aggregating_stream_is_not_zero_copy(self):
        from repro.filters.registry import SFILTER_WAITFORALL, TFILTER_SUM

        core, parent_inbox, _, child_link = self._build_relay()
        new_stream = make_new_stream(
            7, [0], sync_filter_id=SFILTER_WAITFORALL, transform_filter_id=TFILTER_SUM
        )
        core.routing.add_report(child_link, [0])
        core.handle_control_down(new_stream)
        data = encode_batch([Packet(7, 1, "%d", (5,), 0)])
        core.handle_payload(child_link, data)
        assert core.metrics.counters()["packets_relayed_zero_copy"].value == 0


class TestPacketBufferLazy:
    def test_add_does_not_force_decode_or_encode(self):
        frame = Packet(1, 2, "%ad", (tuple(range(500)),)).to_bytes()
        lazy = Packet.lazy_from_wire(frame)
        buf = PacketBuffer("x")
        buf.add(lazy)
        assert buf.nbytes == len(frame)
        assert not lazy.values_decoded
