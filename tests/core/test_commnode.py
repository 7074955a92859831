"""Unit tests for NodeCore — the comm-node protocol engine, driven
directly (no threads), so every control path is observable."""

import pytest

from repro.core.batching import decode_batch, encode_batch
from repro.core.commnode import NodeCore
from repro.core.packet import Packet
from repro.core.protocol import (
    CONTROL_STREAM_ID,
    TAG_ENDPOINT_REPORT,
    TAG_SHUTDOWN,
    make_close_stream,
    make_endpoint_report,
    make_new_stream,
    make_shutdown,
)
from repro.filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_WAITFORALL,
    TFILTER_NULL,
    TFILTER_SUM,
    default_registry,
)
from repro.transport.channel import Channel, Inbox


def build_node(n_children=2, with_parent=True, expected=None):
    """A NodeCore wired to inbox-stub parent/children.

    Returns (core, parent_inbox, [child_inboxes], parent_child_end,
    [child ends the node sends down on])."""
    registry = default_registry()
    parent_inbox = Inbox()
    node_inbox = Inbox()
    parent_end = None
    if with_parent:
        ch = Channel(parent_inbox, node_inbox)
        parent_end = ch.end_b  # node's end toward the parent
    core = NodeCore(
        "test-node",
        registry,
        expected if expected is not None else n_children,
        parent=parent_end,
        inbox=node_inbox,
    )
    child_inboxes, child_links = [], []
    for _ in range(n_children):
        ci = Inbox()
        ch = Channel(node_inbox, ci)
        core.add_child(ch.end_a)
        child_inboxes.append(ci)
        child_links.append(ch.link_id)
    return core, parent_inbox, child_inboxes, child_links


def drain(inbox):
    """All packets delivered to an inbox, flattened."""
    out = []
    while not inbox.empty():
        _, payload = inbox.get_nowait()
        if payload is not None:
            out.extend(decode_batch(payload))
        else:
            out.append(None)
    return out


class TestEndpointReports:
    def test_aggregates_and_forwards_when_complete(self):
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.flush()
        assert drain(parent_inbox) == []  # not complete yet
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        core.flush()
        (report,) = drain(parent_inbox)
        assert report.tag == TAG_ENDPOINT_REPORT
        assert report.values == ((0, 1, 2, 3),)
        assert core.ready

    def test_report_sent_once(self):
        core, parent_inbox, _, links = build_node(n_children=1, expected=1)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.flush()
        assert len(drain(parent_inbox)) == 1
        core.dispatch(links[0], make_endpoint_report([0]))
        core.flush()
        assert drain(parent_inbox) == []

    def test_routing_learned_per_link(self):
        core, _, _, links = build_node(n_children=2, expected=2)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.dispatch(links[1], make_endpoint_report([1]))
        assert core.routing.ranks_behind(links[0]) == {0}
        assert core.routing.link_of(1) == links[1]


class TestStreamLifecycle:
    def setup_streams(self, core, links, endpoints=(0, 1), transform=TFILTER_SUM):
        core.dispatch(links[0], make_endpoint_report([0]))
        core.dispatch(links[1], make_endpoint_report([1]))
        core.handle_control_down(
            make_new_stream(5, endpoints, SFILTER_WAITFORALL, transform)
        )

    def test_new_stream_creates_manager_and_forwards(self):
        core, _, child_inboxes, links = build_node(n_children=2, expected=2)
        self.setup_streams(core, links)
        assert core.stream_state(5).child_links == links
        core.flush()
        for ci in child_inboxes:
            pkts = drain(ci)
            assert len(pkts) == 1 and pkts[0].tag != 0
            assert pkts[0].stream_id == CONTROL_STREAM_ID

    def test_new_stream_forwards_only_to_relevant_links(self):
        core, _, child_inboxes, links = build_node(n_children=2, expected=2)
        self.setup_streams(core, links, endpoints=(0,))
        core.flush()
        assert len(drain(child_inboxes[0])) == 1
        assert drain(child_inboxes[1]) == []

    def test_upstream_aggregation(self):
        core, parent_inbox, _, links = build_node(n_children=2, expected=2)
        self.setup_streams(core, links)
        drain(parent_inbox)
        core.dispatch(links[0], Packet(5, 0, "%d", (3,)))
        core.flush()
        assert [p for p in drain(parent_inbox) if p.stream_id == 5] == []
        core.dispatch(links[1], Packet(5, 0, "%d", (4,)))
        core.flush()
        outs = [p for p in drain(parent_inbox) if p.stream_id == 5]
        assert len(outs) == 1 and outs[0].values == (7,)
        assert core.metrics.counters()["waves_aggregated"].value == 1

    def test_downstream_fanout_by_reference(self):
        core, _, child_inboxes, links = build_node(n_children=2, expected=2)
        self.setup_streams(core, links, transform=TFILTER_NULL)
        core.flush()
        for ci in child_inboxes:
            drain(ci)
        pkt = Packet(5, 200, "%s", ("to-all",))
        core.dispatch(core.parent_link_id, pkt)
        core.flush()
        for ci in child_inboxes:
            (got,) = drain(ci)
            assert got == pkt

    def test_close_stream_flushes_partials_upstream(self):
        core, parent_inbox, child_inboxes, links = build_node(2, expected=2)
        self.setup_streams(core, links)
        drain(parent_inbox)
        core.dispatch(links[0], Packet(5, 0, "%d", (9,)))
        core.handle_control_down(make_close_stream(5))
        core.flush()
        outs = [p for p in drain(parent_inbox) if p.stream_id == 5]
        assert len(outs) == 1 and outs[0].values == (9,)
        assert 5 not in core.streams
        # Close propagated to children that had the stream.
        for ci in child_inboxes:
            tags = [p.tag for p in drain(ci) if p.stream_id == CONTROL_STREAM_ID]
            assert tags.count(-3) == 1  # TAG_CLOSE_STREAM

    def test_unknown_stream_data_forwards_raw(self):
        core, parent_inbox, child_inboxes, links = build_node(2, expected=2)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.dispatch(links[1], make_endpoint_report([1]))
        drain(parent_inbox)
        # Upstream data on a stream this node never heard of.
        core.dispatch(links[0], Packet(99, 7, "%d", (1,)))
        core.flush()
        (fwd,) = [p for p in drain(parent_inbox) if p.stream_id == 99]
        assert fwd.values == (1,)
        # Downstream data on unknown stream floods to all children.
        core.dispatch(core.parent_link_id, Packet(98, 7, "%d", (2,)))
        core.flush()
        for ci in child_inboxes:
            assert any(p.stream_id == 98 for p in drain(ci))


class TestShutdownAndFailures:
    def test_shutdown_propagates_and_stops(self):
        core, _, child_inboxes, links = build_node(2, expected=2)
        core.handle_control_down(make_shutdown())
        core.flush()
        assert core.shutting_down
        for ci in child_inboxes:
            assert any(p.tag == TAG_SHUTDOWN for p in drain(ci))

    def test_parent_link_death_triggers_shutdown(self):
        core, _, child_inboxes, links = build_node(2, expected=2)
        core.handle_payload(core.parent_link_id, None)  # parent closed
        core.flush()
        assert core.shutting_down
        for ci in child_inboxes:
            assert any(
                p is not None and p.tag == TAG_SHUTDOWN for p in drain(ci)
            )

    def test_child_link_death_releases_backlog(self):
        """A dead child must not wedge Wait-For-All streams."""
        core, parent_inbox, _, links = build_node(2, expected=2)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.dispatch(links[1], make_endpoint_report([1]))
        core.handle_control_down(
            make_new_stream(5, (0, 1), SFILTER_WAITFORALL, TFILTER_SUM)
        )
        drain(parent_inbox)
        core.dispatch(links[0], Packet(5, 0, "%d", (3,)))
        # Child 1 dies before contributing.
        core.handle_payload(links[1], None)
        core.flush()
        outs = [p for p in drain(parent_inbox) if p.stream_id == 5]
        assert len(outs) == 1 and outs[0].values == (3,)
        # Routing forgot the dead link; the stream keeps working with
        # the survivor alone.
        assert links[1] not in core.routing.links
        core.dispatch(links[0], Packet(5, 0, "%d", (4,)))
        core.flush()
        outs = [p for p in drain(parent_inbox) if p.stream_id == 5]
        assert len(outs) == 1 and outs[0].values == (4,)

    def test_flush_skips_closed_channels(self):
        core, parent_inbox, _, links = build_node(1, expected=1)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.parent.close()
        core.flush()  # must not raise
        # Both the close notice and nothing else.
        msgs = drain(parent_inbox)
        assert all(m is None or isinstance(m, Packet) for m in msgs)


class TestStats:
    def test_counters(self):
        core, parent_inbox, _, links = build_node(2, expected=2)
        core.dispatch(links[0], make_endpoint_report([0]))
        core.dispatch(links[1], make_endpoint_report([1]))
        core.handle_control_down(
            make_new_stream(5, (0, 1), SFILTER_DONTWAIT, TFILTER_NULL)
        )
        core.dispatch(links[0], Packet(5, 0, "%d", (1,)))
        core.dispatch(core.parent_link_id, Packet(5, 0, "%d", (2,)))
        core.flush()
        assert core.metrics.counters()["packets_up"].value == 1
        assert core.metrics.counters()["packets_down"].value == 1
        assert core.metrics.counters()["messages_sent"].value >= 1

    def test_batched_payload_roundtrip(self):
        """handle_payload unbatches multi-packet messages."""
        core, parent_inbox, _, links = build_node(1, expected=1)
        core.dispatch(links[0], make_endpoint_report([0]))
        drain(parent_inbox)
        payload = encode_batch(
            [Packet(77, i, "%d", (i,)) for i in range(5)]
        )
        core.handle_payload(links[0], payload)
        core.flush()
        outs = [p for p in drain(parent_inbox) if p.stream_id == 77]
        assert [p.values[0] for p in outs] == [0, 1, 2, 3, 4]
