"""Property tests: NodeCore invariants under random event sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import decode_batch, encode_batch
from repro.core.commnode import NodeCore
from repro.core.packet import Packet
from repro.core.protocol import (
    CONTROL_STREAM_ID,
    make_endpoint_report,
    make_new_stream,
)
from repro.filters.registry import (
    SFILTER_DONTWAIT,
    SFILTER_WAITFORALL,
    TFILTER_NULL,
    TFILTER_SUM,
    default_registry,
)
from repro.transport.channel import Channel, Inbox


def build_node(n_children):
    registry = default_registry()
    parent_inbox = Inbox()
    node_inbox = Inbox()
    parent_ch = Channel(parent_inbox, node_inbox)
    core = NodeCore(
        "prop-node", registry, n_children, parent=parent_ch.end_b,
        inbox=node_inbox,
    )
    child_inboxes, links = [], []
    for _ in range(n_children):
        ci = Inbox()
        ch = Channel(node_inbox, ci)
        core.add_child(ch.end_a)
        child_inboxes.append(ci)
        links.append(ch.link_id)
    return core, parent_inbox, child_inboxes, links


def drain_packets(inbox):
    out = []
    while not inbox.empty():
        _, payload = inbox.get_nowait()
        if payload is not None:
            out.extend(decode_batch(payload))
    return out


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        n_children=st.integers(1, 5),
        sends=st.lists(
            st.tuples(st.integers(0, 4), st.integers(-100, 100)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_passthrough_conserves_packets(self, n_children, sends):
        """DoNotWait + null filter: every upstream packet in comes out
        toward the parent, in per-child order, none invented."""
        core, parent_inbox, _, links = build_node(n_children)
        for i, link in enumerate(links):
            core.dispatch(link, make_endpoint_report([i]))
        core.handle_control_down(
            make_new_stream(7, range(n_children), SFILTER_DONTWAIT, TFILTER_NULL)
        )
        core.flush()
        drain_packets(parent_inbox)  # discard the endpoint report

        per_child_sent = {link: [] for link in links}
        for child_idx, value in sends:
            link = links[child_idx % n_children]
            core.dispatch(link, Packet(7, 0, "%d", (value,)))
            per_child_sent[link].append(value)
        core.flush()
        out = [p for p in drain_packets(parent_inbox) if p.stream_id == 7]
        assert len(out) == len(sends)
        assert sorted(p.values[0] for p in out) == sorted(
            v for _, v in sends
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n_children=st.integers(2, 4),
        rounds=st.integers(1, 8),
        values=st.data(),
    )
    def test_sum_reduction_conserves_total(self, n_children, rounds, values):
        """Wait-For-All + sum: total over all waves equals total sent,
        however the per-child interleaving goes."""
        core, parent_inbox, _, links = build_node(n_children)
        for i, link in enumerate(links):
            core.dispatch(link, make_endpoint_report([i]))
        core.handle_control_down(
            make_new_stream(9, range(n_children), SFILTER_WAITFORALL, TFILTER_SUM)
        )
        core.flush()
        drain_packets(parent_inbox)

        # Each child sends `rounds` packets, interleaved in a random
        # global order drawn by hypothesis.
        pending = []
        total = 0
        for link in links:
            for _ in range(rounds):
                v = values.draw(st.integers(-1000, 1000))
                total += v
                pending.append((link, v))
        order = values.draw(st.permutations(pending))
        for link, v in order:
            core.dispatch(link, Packet(9, 0, "%d", (v,)))
        core.flush()
        out = [p for p in drain_packets(parent_inbox) if p.stream_id == 9]
        assert len(out) == rounds  # one aggregate per complete wave
        assert sum(p.values[0] for p in out) == total

    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.sampled_from(["report", "data", "close-child", "unknown-ctrl"]),
            max_size=25,
        )
    )
    def test_arbitrary_event_order_never_crashes(self, events):
        """Whatever order reports / data / closures arrive in, the node
        stays consistent and raises nothing."""
        core, parent_inbox, _, links = build_node(3)
        next_rank = 0
        open_links = list(links)
        for event in events:
            if not open_links:
                break
            link = open_links[next_rank % len(open_links)]
            if event == "report":
                core.dispatch(link, make_endpoint_report([next_rank]))
                next_rank += 1
            elif event == "data":
                core.dispatch(link, Packet(42, 1, "%d", (next_rank,)))
            elif event == "close-child":
                core.handle_payload(link, None)
                open_links.remove(link)
            else:
                # An unknown control tag is a malformed frame: it costs
                # the sender its link and nothing else.
                core.handle_payload(
                    link, encode_batch([Packet(CONTROL_STREAM_ID, -99, "%d", (0,))])
                )
                assert link not in core.children
                open_links.remove(link)
            core.flush()
        # Terminal state is coherent.
        assert set(core.routing.links) <= set(links)
        assert not core.shutting_down
