"""Tests for protocol control packets and the routing table."""

import pytest

from repro.core.packet import Packet, PacketDecodeError
from repro.core.protocol import (
    CONTROL_STREAM_ID,
    TAG_ENDPOINT_REPORT,
    check_control,
    make_close_stream,
    make_endpoint_report,
    make_new_stream,
    make_shutdown,
)
from repro.core.protocol import (
    TAG_NEW_STREAMS,
    make_new_streams,
    parse_new_streams,
)
from repro.core.routing import RoutingTable


class TestControlPackets:
    def test_endpoint_report(self):
        p = make_endpoint_report([3, 1, 2])
        assert p.stream_id == CONTROL_STREAM_ID
        assert p.tag == TAG_ENDPOINT_REPORT
        assert p.values == ((3, 1, 2),)
        assert Packet.from_bytes(p.to_bytes()) == p

    def test_new_stream_roundtrip(self):
        p = make_new_stream(7, [0, 1, 2], 100, 3, sync_timeout=0.25,
                            down_transform_filter_id=5, chunk_bytes=4096,
                            wave_pattern=1)
        assert p.tag == TAG_NEW_STREAMS
        groups, specs = parse_new_streams(Packet.from_bytes(p.to_bytes()))
        assert groups == [(0, 1, 2)]
        assert specs == [(7, 0, 100, 3, 0.25, 5, 4096, 1)]

    def test_six_field_new_stream_rejected(self):
        """A stream is announced one way; a six-field packet under the
        retired single-stream tag (-2) is an unknown tag, refused."""
        check_control(Packet.from_bytes(make_new_stream(7, [0, 1], 100, 3).to_bytes()))
        p = Packet(
            CONTROL_STREAM_ID, -2, "%ud %aud %d %d %lf %d",
            (7, (0, 1), 100, 3, 0.0, 0),
        )
        with pytest.raises(PacketDecodeError):
            check_control(Packet.from_bytes(p.to_bytes()))

    def test_close_and_shutdown(self):
        assert make_close_stream(9).values == (9,)
        assert make_shutdown().stream_id == CONTROL_STREAM_ID

    def test_new_streams_batch_roundtrip(self):
        """TAG_NEW_STREAMS ships N specs + deduplicated groups once."""
        groups = [(0, 1, 2, 3), (0, 2)]
        specs = [
            (7, 0, 100, 3, 0.25, 5, 4096, 1),
            (8, 0, 100, 0, 0.0, 0, 0, 0),
            (9, 1, 101, 3, 1.5, 0, 0, 0),
        ]
        p = make_new_streams(groups, specs)
        assert p.stream_id == CONTROL_STREAM_ID
        assert p.tag == TAG_NEW_STREAMS
        got_groups, got_specs = parse_new_streams(
            Packet.from_bytes(p.to_bytes())
        )
        assert got_groups == [(0, 1, 2, 3), (0, 2)]
        assert got_specs == specs


class TestRoutingTable:
    def test_add_and_query(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        rt.add_report(11, [2, 3])
        assert rt.ranks_behind(10) == {0, 1}
        assert rt.all_ranks() == {0, 1, 2, 3}
        assert rt.link_of(2) == 11

    def test_links_for_intersection(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        rt.add_report(11, [2, 3])
        rt.add_report(12, [4])
        assert rt.links_for({1, 4}) == [10, 12]
        assert rt.links_for({2}) == [11]
        assert rt.links_for({99}) == []

    def test_links_for_rank_ordered(self):
        """Links come back ordered by smallest reachable rank, not by
        report arrival order — this keeps concatenation rank-ordered."""
        rt = RoutingTable()
        rt.add_report(20, [4, 5])
        rt.add_report(21, [0, 1])
        rt.add_report(22, [2, 3])
        assert rt.links_for({0, 1, 2, 3, 4, 5}) == [21, 22, 20]

    def test_incremental_reports_merge(self):
        rt = RoutingTable()
        rt.add_report(10, [0])
        rt.add_report(10, [1])
        assert rt.ranks_behind(10) == {0, 1}
        assert len(rt) == 1

    def test_remove_link(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        assert rt.remove_link(10) == {0, 1}
        assert rt.links_for({0}) == []
        assert rt.remove_link(10) == set()

    def test_link_of_unknown_rank(self):
        with pytest.raises(KeyError):
            RoutingTable().link_of(0)

    def test_links_property(self):
        rt = RoutingTable()
        rt.add_report(5, [0])
        rt.add_report(6, [1])
        assert set(rt.links) == {5, 6}


class TestGroupRouteCache:
    """The epoch-keyed CommGroup cache must be invisible: cached
    lookups byte-identical to the uncached intersection scan through
    every kind of topology churn (the PR acceptance invariant)."""

    GROUPS = [
        frozenset({0, 1, 2, 3, 4, 5}),
        frozenset({0, 5}),
        frozenset({2}),
        frozenset({1, 3}),
        frozenset({7, 8}),  # partially / wholly unroutable
    ]

    def assert_cache_transparent(self, rt):
        for eps in self.GROUPS:
            assert rt.links_for(eps) == rt._compute_links(eps), (
                f"cached routes diverged for {sorted(eps)} "
                f"at epoch {rt.epoch}"
            )

    def test_cached_routes_identical_through_churn(self):
        rt = RoutingTable()
        mutations = [
            lambda: rt.add_report(10, [0, 1]),
            lambda: rt.add_report(11, [2, 3]),
            lambda: rt.add_report(12, [4, 5]),
            lambda: rt.add_report(10, [7]),     # incremental merge
            lambda: rt.remove_rank(3),          # graceful leave
            lambda: rt.remove_link(11),         # link death
            lambda: rt.add_report(13, [2, 3]),  # repair elsewhere
            lambda: rt.remove_rank(0),
            lambda: rt.add_report(10, [0]),     # rejoin
        ]
        self.assert_cache_transparent(rt)  # empty-table baseline
        for mutate in mutations:
            mutate()
            self.assert_cache_transparent(rt)
            # Double-read at the same epoch serves the cache; it must
            # still match (and not have been corrupted by the caller's
            # mutable copy).
            first = rt.links_for(self.GROUPS[0])
            first.append(999)
            assert 999 not in rt.links_for(self.GROUPS[0])

    def test_epoch_bumps_only_on_real_change(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        epoch = rt.epoch
        rt.add_report(10, [0, 1])  # no new ranks
        assert rt.epoch == epoch
        rt.remove_rank(99)         # unknown rank
        assert rt.epoch == epoch
        rt.remove_link(99)         # unknown link
        assert rt.epoch == epoch
        rt.add_report(10, [2])
        assert rt.epoch == epoch + 1

    def test_group_interning_shares_one_object(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        a = rt.group({0, 1})
        b = rt.group(frozenset({0, 1}))
        assert a is b
        assert a.endpoints == frozenset({0, 1})

    def test_stale_group_recomputes_lazily(self):
        rt = RoutingTable()
        rt.add_report(10, [0, 1])
        grp = rt.group({0, 1, 2})
        assert rt.links_for_group(grp) == [10]
        rt.add_report(11, [2])
        # The epoch moved; the next lookup recomputes transparently.
        assert grp._routes_epoch != rt.epoch
        assert rt.links_for_group(grp) == [10, 11]
        assert grp._routes_epoch == rt.epoch

    def test_reverse_index_consistent_through_churn(self):
        """link_of answers from the O(1) reverse index; it must agree
        with a scan over the reach sets after every mutation."""
        rt = RoutingTable()

        def assert_index_matches_scan():
            scan = {}
            for link, ranks in rt._reach.items():
                for r in ranks:
                    scan.setdefault(r, set()).add(link)
            for rank, links in scan.items():
                assert rt.link_of(rank) in links
            for rank in {0, 1, 2, 3, 4} - set(scan):
                with pytest.raises(KeyError):
                    rt.link_of(rank)

        rt.add_report(10, [0, 1])
        assert_index_matches_scan()
        rt.add_report(11, [2, 3])
        assert_index_matches_scan()
        rt.remove_link(10)
        assert_index_matches_scan()
        rt.remove_rank(2)
        assert_index_matches_scan()
        rt.add_report(12, [0, 2])
        assert_index_matches_scan()
