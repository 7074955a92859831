"""Coalescing × elasticity: epochs must re-key or invalidate results.

The satellite bar from ISSUE 9: cached and in-flight coalesced
results must stay correct when a back-end joins or leaves mid-wave.
The mechanism under test: the stream's membership epoch is part of
every cache key, the stream's ``on_membership_change`` hook (fired
by the front-end on every tree-epoch change) updates the gateway's
epoch view, and a wave that completes
under a different epoch than it was issued under is delivered to its
waiters but never cached.
"""

import time

import pytest

from repro.core import Network
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.gateway import BackendResponder, Gateway, Query
from repro.topology import balanced_tree

from .conftest import RECV_TIMEOUT, wait_until


def sum_query(value):
    return Query("%d", (value,), transform=TFILTER_SUM)


def wait_membership(gw, net, pred):
    """Pump (via paused windows) until a recovery event satisfies *pred*."""

    def check():
        with gw.paused():
            return any(pred(ev) for ev in net.recovery_events())

    assert wait_until(check), "membership change never reached the root"


class TestJoinRekeysCache:
    def test_cached_result_not_served_across_join(self, served_net):
        """A sum cached over N ranks must not satisfy a query over N+1."""
        net, responder = served_net
        n = len(net.backends)
        gw = Gateway(net, cache_ttl=60.0)  # cache would serve stale forever
        try:
            session = gw.session()
            r1 = session.submit(sum_query(5)).result(timeout=RECV_TIMEOUT)
            assert r1 == (5 * n,)
            with gw.paused():
                joiner = net.attach_backend()
                responder.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            # First post-join wave is the GRACE wave: the sync filters
            # may release it without the joiner's first contribution,
            # so its value is either sum — but it is never cached.
            grace = session.submit(sum_query(5)).result(timeout=RECV_TIMEOUT)
            assert grace in ((5 * n,), (5 * (n + 1),))
            # From the second post-join wave the joiner is required.
            r2 = session.submit(sum_query(5)).result(timeout=RECV_TIMEOUT)
            assert r2 == (5 * (n + 1),)
            stats = gw.stats()
            assert stats["cache_hits"] == 0, "stale epoch served from cache"
            assert stats["waves"] == 3
            assert stats["invalidated"] >= 1
            # The settled post-join result IS cacheable.
            hit = session.submit(sum_query(5)).result(timeout=RECV_TIMEOUT)
            assert hit == r2
            assert gw.stats()["cache_hits"] == 1
            assert gw.stats()["waves"] == 3
        finally:
            gw.close()

    def test_leave_rekeys_cache_too(self, served_net):
        net, responder = served_net
        n = len(net.backends)
        gw = Gateway(net, cache_ttl=60.0)
        try:
            session = gw.session()
            # Warm-up wave first, so the stream exists before the join.
            r0 = session.submit(sum_query(3)).result(timeout=RECV_TIMEOUT)
            assert r0 == (3 * n,)
            with gw.paused():
                joiner = net.attach_backend()
                responder.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            session.submit(sum_query(3)).result(timeout=RECV_TIMEOUT)  # grace
            r1 = session.submit(sum_query(3)).result(timeout=RECV_TIMEOUT)
            assert r1 == (3 * (n + 1),)
            responder.remove(joiner)
            with gw.paused():
                joiner.leave()
            wait_membership(gw, net, lambda ev: joiner.rank in ev.lost)
            # First post-leave wave is again a grace wave — value
            # indeterminate while queued contributions drain, and
            # never cached.
            session.submit(sum_query(3)).result(timeout=RECV_TIMEOUT)
            r2 = session.submit(sum_query(3)).result(timeout=RECV_TIMEOUT)
            assert r2 == (3 * n,)
            assert gw.stats()["cache_hits"] == 0
        finally:
            gw.close()


class TestEpochChangeMidWave:
    def test_join_mid_wave_result_delivered_not_cached(self, served_net):
        """A wave straddling a join completes over the OLD membership
        (PR 8's joining-grace semantics), is delivered to every
        coalesced waiter, but must NOT enter the result cache — the
        next identical query pays a fresh wave over the new ranks."""
        net, responder = served_net
        n = len(net.backends)
        # Drive rank 0 by hand so the wave can be held open: the
        # responder answers every rank except 0.
        held = net.backends[0]
        others = {r: be for r, be in net.backends.items() if r != 0}
        responder.stop()
        slow = BackendResponder(others)
        gw = Gateway(net, cache_ttl=60.0)
        try:
            sessions = [gw.session(f"s{i}") for i in range(5)]
            with gw.paused():
                tickets = [s.submit(sum_query(4)) for s in sessions]
            # Wave is now in flight, waiting on rank 0's contribution.
            assert wait_until(lambda: gw.stats()["inflight"] == 1)
            with gw.paused():
                joiner = net.attach_backend()
                slow.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            assert not tickets[0].done(), "wave completed while held open"
            # Release rank 0: the in-flight wave completes over the
            # pre-join membership.
            packet, stream = held.recv(timeout=RECV_TIMEOUT)
            stream.send(packet.fmt.canonical, *packet.unpack())
            for ticket in tickets:
                assert ticket.result(timeout=RECV_TIMEOUT) == (4 * n,)
            stats = gw.stats()
            assert stats["waves"] == 1
            assert stats["coalesced"] == len(sessions) - 1
            assert stats["invalidated"] >= 1
            # The epoch-straddling result was NOT cached: the same
            # query now costs a fresh wave over n+1 ranks.  Rank 0 is
            # still hand-driven.
            follow_up = sessions[0].submit(sum_query(4))
            packet, stream = held.recv(timeout=RECV_TIMEOUT)
            stream.send(packet.fmt.canonical, *packet.unpack())
            assert follow_up.result(timeout=RECV_TIMEOUT) == (4 * (n + 1),)
            assert gw.stats()["cache_hits"] == 0
            assert gw.stats()["waves"] == 2
        finally:
            gw.close()
            slow.stop()

    def test_leave_settles_to_shrunk_membership(self, served_net):
        """Waves issued across a leave boundary are grace waves (never
        cached, value indeterminate while queued contributions drain);
        the stream settles to the shrunk membership within one wave."""
        net, responder = served_net
        n = len(net.backends)
        gw = Gateway(net, cache_ttl=0.0)
        try:
            session = gw.session()
            # Warm-up wave so the stream (and its membership events)
            # exist before the join.
            r0 = session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT)
            assert r0 == (2 * n,)
            with gw.paused():
                joiner = net.attach_backend()
                responder.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT)  # grace
            r1 = session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT)
            assert r1 == (2 * (n + 1),)
            responder.remove(joiner)
            with gw.paused():
                joiner.leave()
            wait_membership(gw, net, lambda ev: joiner.rank in ev.lost)
            session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT)  # grace
            r2 = session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT)
            assert r2 == (2 * n,)
        finally:
            gw.close()


class TestEpochBookkeeping:
    def test_gateway_tracks_stream_epoch(self, served_net):
        net, responder = served_net
        gw = Gateway(net, cache_ttl=0.0)
        try:
            session = gw.session()
            ticket = session.submit(sum_query(1))
            ticket.result(timeout=RECV_TIMEOUT)
            assert ticket.epoch == 0
            with gw.paused():
                joiner = net.attach_backend()
                responder.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            later = session.submit(sum_query(1))
            later.result(timeout=RECV_TIMEOUT)
            assert later.epoch is not None and later.epoch > ticket.epoch
        finally:
            gw.close()

    def test_invalidation_counter_in_network_stats(self, served_net):
        net, responder = served_net
        gw = Gateway(net, cache_ttl=60.0)
        try:
            session = gw.session()
            session.submit(sum_query(9)).result(timeout=RECV_TIMEOUT)
            with gw.paused():
                joiner = net.attach_backend()
                responder.add(joiner)
            wait_membership(gw, net, lambda ev: joiner.rank in ev.gained)
            snapshot = net.stats()["0:front-end"]
            assert snapshot["gateway_entries_invalidated"] >= 1
        finally:
            gw.close()


class TestDeepDeath:
    def test_deep_kill_drops_the_cached_entry(self):
        """A comm node two hops below the root dies: the root's own
        manager drops no link, yet the membership changed, so the
        cached sum must go and the next query pays a fresh wave."""
        net = Network(balanced_tree(2, 3), colocate=True)
        responder = BackendResponder(net.backends)
        gw = Gateway(net, cache_ttl=60.0)
        try:
            session = gw.session()
            assert session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT) == (16,)
            before = gw.stats()["invalidated"]
            victim = next(n for n in net._commnodes if n.core.reported_ranks == {0, 1})
            with gw.paused():
                FaultInjector(net).kill_commnode(victim.core.name)
            wait_membership(gw, net, lambda ev: ev.lost == (0, 1))
            assert gw.stats()["invalidated"] == before + 1
            assert session.submit(sum_query(2)).result(timeout=RECV_TIMEOUT) == (12,)
            assert gw.stats()["cache_hits"] == 0
        finally:
            gw.close()
            responder.stop()
            net.shutdown()
