"""Many-stream runtime at one NodeCore: batched lazy stream specs
(``TAG_NEW_STREAMS``) sharing one endpoint set, materialized by data or
a join naming them — never by a death, a leave or an adoption, which
the node reports once — and the O(active) tick machinery that keeps
thousands of idle streams free."""

import time

from repro.core.packet import Packet
from repro.core.protocol import (
    TAG_JOIN,
    TAG_LEAVE,
    TAG_NEW_STREAMS,
    TAG_RANKS_CHANGED,
    WAVE_REDUCE,
    make_close_stream,
    make_endpoint_report,
    make_join,
    make_leave,
    make_new_stream,
    make_new_streams,
    make_ranks_changed,
)
from repro.filters.registry import (
    SFILTER_TIMEOUT,
    SFILTER_WAITFORALL,
    TFILTER_SUM,
)
from repro.transport.channel import Channel, Inbox

from .test_commnode import build_node, drain


def announce(core, n_streams, group=(0, 1, 2, 3), first_sid=1):
    """One TAG_NEW_STREAMS wave registering *n_streams* lazy specs."""
    specs = [
        (sid, 0, SFILTER_WAITFORALL, TFILTER_SUM, 0.0, 0, 0, WAVE_REDUCE)
        for sid in range(first_sid, first_sid + n_streams)
    ]
    core.handle_control_down(make_new_streams([list(group)], specs))
    core.flush()
    return [s[0] for s in specs]


def data_up(sid, value):
    return Packet(sid, 1, "%d", (value,))


class TestBulkAnnouncement:
    def test_registers_lazy_specs_without_managers(self):
        core, _, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        sids = announce(core, 100)
        assert set(core._stream_specs) == set(sids)
        assert core.streams == {}

    def test_forwards_whole_batch_once_per_routed_link(self):
        core, _, child_inboxes, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        # 50 streams over a group routed through link 0 only: child 0
        # sees ONE announcement packet, child 1 sees nothing.
        announce(core, 50, group=(0, 1))
        left = drain(child_inboxes[0])
        assert [p.tag for p in left] == [TAG_NEW_STREAMS]
        assert drain(child_inboxes[1]) == []

    def test_first_data_up_materializes_and_aggregates(self):
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        (sid,) = announce(core, 1)
        drain(parent_inbox)

        core.dispatch(links[0], data_up(sid, 5))
        # First data packet flipped the spec into a full manager.
        assert sid in core.streams
        assert sid not in core._stream_specs
        core.flush()
        assert drain(parent_inbox) == []  # WaitForAll still holding
        core.dispatch(links[1], data_up(sid, 7))
        core.flush()
        (wave,) = drain(parent_inbox)
        assert wave.stream_id == sid
        assert wave.values == (12,)

    def test_first_data_down_materializes_and_routes(self):
        core, parent_inbox, child_inboxes, links = build_node(
            n_children=2, expected=4
        )
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        (sid,) = announce(core, 1)
        for inbox in child_inboxes:
            drain(inbox)

        core.dispatch(core.parent_link_id, Packet(sid, 1, "%d", (0,)))
        core.flush()
        assert sid in core.streams
        for inbox in child_inboxes:
            (pkt,) = drain(inbox)
            assert pkt.stream_id == sid

    def test_close_of_pending_spec_forwards_and_drops(self):
        core, _, child_inboxes, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        (sid,) = announce(core, 1, group=(2, 3))
        drain(child_inboxes[1])

        core.handle_control_down(make_close_stream(sid))
        core.flush()
        assert sid not in core._stream_specs
        assert sid not in core.streams
        (pkt,) = drain(child_inboxes[1])  # closed along the group route
        assert pkt.values == (sid,)
        assert drain(child_inboxes[0]) == []


class TestSpecEndpointSharing:
    def test_specs_over_one_group_share_one_frozenset(self):
        core, _, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        announce(core, 50)
        sets = [spec["endpoints"] for spec in core._stream_specs.values()]
        assert len({id(s) for s in sets}) == 1  # ONE rank set, 50 specs
        grp = core.routing.group(frozenset([0, 1, 2, 3]))
        assert sets[0] is grp.endpoints

    def test_leave_keeps_every_spec_a_spec(self):
        """A leave re-routes the node but builds no manager; the
        TAG_LEAVE itself goes up once and no hop adds a report."""
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        sids = announce(core, 50) + announce(core, 10, group=(0, 1), first_sid=100)
        drain(parent_inbox)

        core.dispatch(links[1], make_leave(3))
        assert core.streams == {}
        assert set(core._stream_specs) == set(sids)
        assert core.routing.ranks_behind(links[1]) == {2}
        core.flush()
        assert [p.tag for p in drain(parent_inbox)] == [TAG_LEAVE]
        sets = [spec["endpoints"] for spec in core._stream_specs.values()]
        assert len({id(s) for s in sets}) == 2  # one shared set per group

    def test_join_extends_a_pending_spec(self):
        """A join naming a spec materializes it before the new link is
        routed, so the manager splices the link in; the TAG_JOIN goes
        up once and no hop adds a report."""
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        sid, other = announce(core, 2)
        drain(parent_inbox)
        core.dispatch(links[1], make_join(9, [sid]))
        assert sid not in core._stream_specs
        assert core.streams[sid].endpoints == frozenset([0, 1, 2, 3, 9])
        assert core.streams[sid].membership_epoch == 1
        core.flush()
        assert [p.tag for p in drain(parent_inbox)] == [TAG_JOIN]
        # A stream the join does not name stays a spec.
        assert other in core._stream_specs

    def test_child_death_keeps_specs_and_reports_once(self):
        """A dead child's ranks leave the routes, every spec stays a
        spec, and exactly one TAG_RANKS_CHANGED (epoch 0, the lost
        ranks) leaves the node, however many streams cover them."""
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        over_all = announce(core, 20)
        (over_left,) = announce(core, 1, group=(0, 1), first_sid=100)
        drain(parent_inbox)

        core.handle_payload(links[1], None)
        assert core.streams == {}
        assert set(core._stream_specs) == {*over_all, over_left}
        assert core.routing.links_for(frozenset([0, 1, 2, 3])) == [links[0]]
        core.flush()
        (event,) = drain(parent_inbox)
        assert event.tag == TAG_RANKS_CHANGED
        assert event.values == (0, (2, 3), ())
        # The first data packet builds the manager over the survivors.
        core.dispatch(links[0], data_up(over_all[0], 5))
        core.flush()
        (wave,) = drain(parent_inbox)
        assert wave.values == (5,)

    def test_a_rank_is_reported_lost_once(self):
        """A loss reported up a link leaves that link's routes, so the
        link's own death later names only the ranks still behind it."""
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        core.dispatch(links[1], make_ranks_changed(0, [2]))
        core.handle_payload(links[1], None)
        core.flush()
        reports = [p for p in drain(parent_inbox) if p.tag == TAG_RANKS_CHANGED]
        assert [p.values for p in reports] == [(0, (2,), ()), (0, (3,), ())]

    def test_adopted_orphan_is_reported_gained_once(self):
        """An endpoint report on a new link after the census is
        complete is an adoption: one report names the ranks gained."""
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        announce(core, 20)
        core.handle_payload(links[1], None)
        core.flush()
        drain(parent_inbox)

        ch = Channel(core.inbox, Inbox())
        core.add_child(ch.end_a)
        core.dispatch(ch.link_id, make_endpoint_report([2, 3]))
        core.flush()
        (event,) = drain(parent_inbox)
        assert event.tag == TAG_RANKS_CHANGED
        assert event.values == (0, (), (2, 3))
        assert core.streams == {}


class TestOActiveTicks:
    def test_idle_streams_never_enter_the_active_set(self):
        core, _, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        for sid in range(1, 101):
            core.handle_control_down(
                make_new_stream(sid, [0, 1, 2, 3], SFILTER_WAITFORALL,
                                TFILTER_SUM)
            )
            core.stream_state(sid)
        assert len(core.streams) == 100
        assert core._active_streams == {}
        assert core.next_timeout_deadline() is None
        assert not core.has_timeout_streams
        # A half-finished WaitForAll wave still arms nothing: only
        # TimeOut filters have deadlines.
        core.dispatch(links[0], data_up(1, 5))
        assert core._active_streams == {}
        assert core.next_timeout_deadline() is None

    def test_timeout_stream_arms_then_disarms(self):
        core, parent_inbox, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        sid = 7
        core.handle_control_down(
            make_new_stream(sid, [0, 1, 2, 3], SFILTER_TIMEOUT, TFILTER_SUM,
                            sync_timeout=0.02)
        )
        core.stream_state(sid)
        assert core.has_timeout_streams
        # No wave in flight yet: nothing armed, loops may sleep forever.
        assert core.next_timeout_deadline() is None

        core.dispatch(links[0], data_up(sid, 3))
        core.flush()
        drain(parent_inbox)
        assert sid in core._active_streams
        deadline = core.next_timeout_deadline()
        assert deadline is not None and deadline > time.monotonic() - 1.0

        time.sleep(0.03)
        core.poll_streams()
        core.flush()
        (wave,) = drain(parent_inbox)
        assert wave.values == (3,)  # partial wave released on timeout
        assert core._active_streams == {}
        assert core.next_timeout_deadline() is None

    def test_discard_clears_armed_state(self):
        core, _, _, links = build_node(n_children=2, expected=4)
        core.dispatch(links[0], make_endpoint_report([0, 1]))
        core.dispatch(links[1], make_endpoint_report([2, 3]))
        sid = 3
        core.handle_control_down(
            make_new_stream(sid, [0, 1, 2, 3], SFILTER_TIMEOUT, TFILTER_SUM,
                            sync_timeout=5.0)
        )
        core.dispatch(links[0], data_up(sid, 1))
        assert sid in core._active_streams
        core.handle_control_down(make_close_stream(sid))
        assert sid not in core._active_streams
        assert not core.has_timeout_streams
        assert core.next_timeout_deadline() is None
