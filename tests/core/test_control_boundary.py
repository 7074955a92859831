"""Bytes from a peer are untrusted: the control-plane boundary.

A node holds every inbound control packet to its tag's one format
(``CONTROL_FORMATS``) before any handler reads it.  Whatever a peer
sends, ``NodeCore.handle_payload`` raises nothing: a malformed frame
closes exactly the sender's link, once, and counts one
``frames_rejected``; a well-formed packet that names nothing known is
a no-op.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import decode_batch, encode_batch
from repro.core.commnode import NodeCore
from repro.core.network import _FrontEndCore
from repro.core import protocol
from repro.core.packet import Packet, PacketDecodeError
from repro.core.protocol import (
    CONTROL_FORMATS,
    CONTROL_STREAM_ID,
    TAG_CHECKPOINT,
    TAG_CLOSE_STREAM,
    TAG_ENDPOINT_REPORT,
    TAG_JOIN,
    TAG_LEAVE,
    TAG_NEW_STREAMS,
    TAG_STATS_REQUEST,
    make_checkpoint,
    make_close_stream,
    make_endpoint_report,
    make_leave,
    make_new_stream,
    make_new_streams,
    make_ranks_changed,
    make_stats_reply,
)
from repro.filters.registry import (
    SFILTER_WAITFORALL,
    TFILTER_SUM,
    default_registry,
)
from repro.transport.channel import Channel, Inbox

#: The tag number a retired single-stream announcement used: now an
#: unknown control tag like any other.
RETIRED_TAG = -2

#: The numbers the retired wave ACK and NACK used, by their old names:
#: unknown control tags too.
RETIRED = {RETIRED_TAG: "RETIRED_TAG", -12: "TAG_WAVE_ACK", -13: "TAG_WAVE_NACK"}

#: Ranks behind each child link of the test node.
BEHIND = ([0, 1], [2, 3])
STREAM = 5


def build_node(core_cls=NodeCore):
    """A node with two children (ranks 0,1 and 2,3) and one SUM stream
    over all four; the front-end class gets no parent."""
    registry = default_registry()
    inbox = Inbox()
    if core_cls is NodeCore:
        parent_ch = Channel(Inbox(), inbox)
        core = NodeCore("boundary", registry, 4, parent=parent_ch.end_b, inbox=inbox)
    else:
        core = core_cls(registry, 4, clock=lambda: 0.0)
        inbox = core.inbox
    links = []
    for ranks in BEHIND:
        ch = Channel(inbox, Inbox())
        core.add_child(ch.end_a)
        links.append(ch.link_id)
        core.handle_payload(ch.link_id, encode_batch([make_endpoint_report(ranks)]))
    core.handle_control_down(
        make_new_stream(STREAM, [0, 1, 2, 3], SFILTER_WAITFORALL, TFILTER_SUM)
    )
    core.stream_state(STREAM)
    core.flush()
    return core, links


def rejected(core):
    return sum(
        c.value
        for name, c in core.metrics.counters().items()
        if name.startswith("frames_rejected")
    )


def link_alive(core, link):
    if core.parent is not None and link == core.parent_link_id:
        return not core.parent.closed
    return link in core.children


def side_link(core, links, side):
    return core.parent_link_id if side == "parent" else links[0]


# -- the probe: wrong-shape control packets, 21 of which used to escape ---

_SHAPES = {"json": ("%s", ("not json",)), "int": ("%d", (7,)), "pair": ("%s %s", ("a", "b"))}

PROBE = [
    (TAG_ENDPOINT_REPORT, "int", "child"),
    (TAG_ENDPOINT_REPORT, "pair", "child"),
    (RETIRED_TAG, "json", "parent"),
    (RETIRED_TAG, "int", "parent"),
    (RETIRED_TAG, "pair", "parent"),
    (TAG_CLOSE_STREAM, "pair", "parent"),
    (TAG_STATS_REQUEST, "json", "parent"),
    (TAG_STATS_REQUEST, "pair", "parent"),
    (TAG_JOIN, "json", "child"),
    (TAG_JOIN, "int", "child"),
    (TAG_LEAVE, "pair", "child"),
    (-12, "json", "parent"),
    (-12, "int", "parent"),
    (-12, "pair", "parent"),
    (-13, "json", "parent"),
    (-13, "int", "parent"),
    (-13, "pair", "parent"),
    (TAG_CHECKPOINT, "json", "child"),
    (TAG_CHECKPOINT, "int", "child"),
    (TAG_CHECKPOINT, "pair", "child"),
    (TAG_NEW_STREAMS, "json", "parent"),
    (TAG_NEW_STREAMS, "int", "parent"),
    (TAG_NEW_STREAMS, "pair", "parent"),
]


_TAG_NAMES = {v: k for k, v in vars(protocol).items() if k.startswith("TAG_")}
_TAG_NAMES.update(RETIRED)


@pytest.mark.parametrize(
    "tag,shape,side", PROBE, ids=[f"{_TAG_NAMES[t]}-{sh}-{si}" for t, sh, si in PROBE]
)
def test_wrong_shape_costs_exactly_its_own_link(tag, shape, side):
    core, links = build_node()
    link = side_link(core, links, side)
    fmt, values = _SHAPES[shape]
    core.handle_payload(link, encode_batch([Packet(CONTROL_STREAM_ID, tag, fmt, values)]))
    core.flush()
    assert rejected(core) == 1
    assert not link_alive(core, link)
    others = [l for l in [core.parent_link_id, *links] if l != link]
    assert all(link_alive(core, l) for l in others)
    # The end's own EOF (a passive reader queues one when it exits)
    # and any frame behind the bad one are stale: nothing more happens.
    epoch = core.streams[STREAM].membership_epoch if STREAM in core.streams else None
    core.handle_payload(link, None)
    core.handle_payload(link, encode_batch([make_endpoint_report([9])]))
    assert rejected(core) == 1
    if epoch is not None:
        assert core.streams[STREAM].membership_epoch == epoch


def test_bad_frame_from_a_child_degrades_the_stream():
    """The sender's ranks leave the stream; the survivors reduce."""
    core, links = build_node()
    core.handle_payload(
        links[0], encode_batch([Packet(CONTROL_STREAM_ID, TAG_JOIN, "%d", (0,))])
    )
    manager = core.streams[STREAM]
    assert manager.child_links == [links[1]]
    assert manager.membership_epoch == 1
    core.handle_payload(
        links[1], encode_batch([Packet(STREAM, 100, "%d", (5,), origin_rank=2)])
    )
    (wave,) = [p for p in core._parent_buffer.drain() if p.stream_id == STREAM]
    assert wave.unpack() == (5,)


def test_bad_frame_from_the_parent_shuts_an_unrepaired_node_down():
    core, _links = build_node()
    core.handle_payload(
        core.parent_link_id,
        encode_batch([Packet(CONTROL_STREAM_ID, TAG_CLOSE_STREAM, "%d", (1,))]),
    )
    assert core.shutting_down
    assert rejected(core) == 1


def test_packets_before_the_bad_one_are_dispatched():
    core, links = build_node()
    bad = Packet(CONTROL_STREAM_ID, TAG_LEAVE, "%s", ("x",))
    good = Packet(STREAM, 100, "%d", (4,), origin_rank=0)
    core.handle_payload(links[0], encode_batch([good, bad]))
    assert rejected(core) == 1
    assert core.metrics.counters()["packets_up"].value == 1


@pytest.mark.parametrize("tag", [-99, -16, -13, -12, 3])
def test_unknown_control_tag_is_malformed(tag):
    core, links = build_node()
    core.handle_payload(links[1], encode_batch([Packet(CONTROL_STREAM_ID, tag, "%d", (0,))]))
    assert rejected(core) == 1
    assert not link_alive(core, links[1])


@pytest.mark.parametrize("side,packet", [
    ("child", make_stats_reply(1, "xy")),  # relayed upward undecoded
    ("parent", make_new_streams([[0]], [])),
])
def test_corrupt_body_costs_the_first_hop_link(side, packet):
    """A string that is not UTF-8 is caught where it enters, even on a
    packet this hop would only relay."""
    core, links = build_node()
    link = side_link(core, links, side)
    frame = bytearray(packet.to_bytes())
    frame[-1] = 0x80
    core.handle_payload(link, encode_batch([Packet.lazy_from_wire(bytes(frame))]))
    assert rejected(core) == 1
    assert not link_alive(core, link)
    assert not core._parent_buffer or all(
        p.tag != packet.tag for p in core._parent_buffer.drain()
    )


def test_six_field_new_stream_is_rejected():
    core, _links = build_node()
    legacy = Packet(
        CONTROL_STREAM_ID, RETIRED_TAG, "%ud %aud %d %d %lf %d",
        (7, (0, 1), SFILTER_WAITFORALL, TFILTER_SUM, 0.0, 0),
    )
    core.handle_payload(core.parent_link_id, encode_batch([legacy]))
    assert 7 not in core.streams
    assert rejected(core) == 1


def test_unknown_filter_in_an_announcement_is_malformed():
    core, _links = build_node()
    core.handle_payload(
        core.parent_link_id,
        encode_batch([make_new_stream(7, [0, 1], SFILTER_WAITFORALL, 9999)]),
    )
    assert 7 not in core._stream_specs
    assert rejected(core) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"g": [[0, 1]], "s": [[7, 1, 0, 0, 0.0, 0, 0, 0]]},  # group out of range
        {"g": [[0, 1]], "s": [[7, 0, 0]]},  # short spec
        {"g": [[0, 1]]},  # no specs
        {"g": [[0, 1]], "s": [[7, 0, "x", 0, 0.0, 0, 0, 0]]},  # field type
        [1, 2],
    ],
)
def test_new_streams_document_shape_is_checked(doc):
    core, _links = build_node()
    packet = Packet(CONTROL_STREAM_ID, TAG_NEW_STREAMS, "%s", (json.dumps(doc),))
    core.handle_payload(core.parent_link_id, encode_batch([packet]))
    assert rejected(core) == 1
    assert 7 not in core._stream_specs


# -- well-formed packets that name nothing known stay no-ops ----------------


@pytest.mark.parametrize(
    "side,packet",
    [
        ("parent", make_new_streams([], [])),
        ("parent", make_ranks_changed(1, lost=[77])),
        ("parent", make_close_stream(77)),
        ("child", make_leave(42)),
        ("child", make_checkpoint(77, 1, "{}")),
        ("child", make_checkpoint(STREAM, 1, "not json")),
    ],
)
def test_well_formed_but_unknown_is_a_no_op(side, packet):
    core, links = build_node()
    link = side_link(core, links, side)
    core.handle_payload(link, encode_batch([packet]))
    core.flush()
    assert rejected(core) == 0
    assert all(link_alive(core, l) for l in [core.parent_link_id, *links])
    assert core.streams[STREAM].endpoints == frozenset({0, 1, 2, 3})
    assert not core._checkpoints


def test_close_of_a_closed_stream_is_a_no_op():
    core, links = build_node()
    for _ in range(2):
        core.handle_payload(core.parent_link_id, encode_batch([make_close_stream(STREAM)]))
    assert STREAM not in core.streams
    assert rejected(core) == 0
    assert all(link_alive(core, l) for l in [core.parent_link_id, *links])


# -- a peer speaks only for the ranks behind its own link --------------------


@pytest.mark.parametrize("core_cls", [NodeCore, _FrontEndCore])
def test_leave_for_a_rank_behind_another_link_is_ignored(core_cls):
    core, links = build_node(core_cls)
    sent_up = len(core._parent_buffer) if core._parent_buffer is not None else 0
    core.handle_payload(links[0], encode_batch([make_leave(3)]))
    assert core.streams[STREAM].endpoints == frozenset({0, 1, 2, 3})
    assert core.routing.ranks_behind(links[1]) == {2, 3}
    assert core.reported_ranks == {0, 1, 2, 3}
    assert core.metrics.counters()["members_left"].value == 0
    if core._parent_buffer is not None:
        assert len(core._parent_buffer) == sent_up  # not relayed
    else:
        assert not core.recovery_events  # no departure logged
    # The rank's own link may still announce it.
    core.handle_payload(links[1], encode_batch([make_leave(3)]))
    assert core.streams[STREAM].endpoints == frozenset({0, 1, 2})


# -- fuzz ---------------------------------------------------------------------

_FUZZ_FORMATS = sorted(set(CONTROL_FORMATS.values())) + [
    "%s %s", "%lf", "%ad", "%ud %ud %ud", "%c", "%ald %s",
]

_docs = st.sampled_from(
    [
        json.dumps({"g": [[0, 1, 2, 3]], "s": [[9, 0, SFILTER_WAITFORALL, TFILTER_SUM, 0.0, 0, 0, 0]]}),
        json.dumps({"g": [[0]], "s": [[9, 0, 0, 0, 0.0, 0, 0, 0]]}),
        json.dumps({"watermarks": {"0,1": 3}, "out_wave": 1}),
        json.dumps({"watermarks": [1]}),
        json.dumps({"schema": "mrnet.stats/3", "node": "x", "rank": 1, "metrics": {}}),
        "[" * 5000,
        "{}",
    ]
)
_small_ud = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
_field = {
    "c": st.characters(max_codepoint=127),
    "d": st.integers(-(2**31), 2**31 - 1),
    "ud": _small_ud,
    "ld": st.integers(-(2**63), 2**63 - 1),
    "uld": st.integers(0, 2**64 - 1),
    "f": st.floats(width=32),
    "lf": st.floats(),
    "s": st.one_of(st.text(max_size=20), _docs),
}


@st.composite
def control_packets(draw):
    tag = draw(
        st.one_of(
            st.sampled_from(sorted(CONTROL_FORMATS)),
            st.integers(-(2**31), -1),
            st.integers(0, 200),
        )
    )
    fmt = draw(st.sampled_from(_FUZZ_FORMATS))
    values = []
    for spec in fmt.split():
        code = spec[1:]
        if code.startswith("a"):
            values.append(tuple(draw(st.lists(_field[code[1:]], max_size=4))))
        else:
            values.append(draw(_field[code]))
    return Packet(CONTROL_STREAM_ID, tag, fmt, values)


@settings(max_examples=300, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.sampled_from(["parent", "child"]), st.lists(control_packets(), min_size=1, max_size=3)),
        min_size=1,
        max_size=4,
    )
)
def test_fuzz_control_never_escapes(events):
    core, links = build_node()
    for side, packets in events:
        link = side_link(core, links, side)
        alive = link_alive(core, link)
        before = rejected(core)
        core.handle_payload(link, encode_batch(packets))
        core.flush()
        delta = rejected(core) - before
        if alive:
            assert delta in (0, 1)
            assert link_alive(core, link) == (delta == 0)
        else:
            assert delta == 0


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_fuzz_random_bytes_raise_only_decode_errors(data):
    try:
        for packet in decode_batch(data):
            packet.fmt, packet.values
    except PacketDecodeError:
        pass
    try:
        packet = Packet.lazy_from_wire(data)
        packet.fmt, packet.values
    except PacketDecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(packet=control_packets(), data=st.data())
def test_fuzz_mutated_frames_raise_only_decode_errors(packet, data):
    """Bit flips and truncations of real frames reach deeper than
    random bytes: a valid header, then a damaged format or body."""
    frame = bytearray(encode_batch([packet]))
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(frame) - 1))
        frame[pos] = data.draw(st.integers(0, 255))
    frame = bytes(frame[: data.draw(st.integers(0, len(frame)))])
    try:
        for p in decode_batch(frame):
            p.fmt, p.values
    except PacketDecodeError:
        pass
