"""End-to-end many-stream runtime: bulk ``Network.new_streams()``
with lazy per-node materialization, one lifecycle for both ways to
open a stream, cached group routing under live membership churn, and
``Network.rebalance()`` re-homing back-ends off hot subtrees with the
elastic-membership machinery."""

import os
import signal
import time

import pytest

from repro.core import DEGRADE, FAIL_FAST, REPAIR, Network
from repro.core.network import NetworkDownError, NetworkError
from repro.faultinject import FaultInjector
from repro.filters import TFILTER_SUM
from repro.topology import balanced_tree

from ..fault.conftest import drive_wave, shutdown_nets, wait_until  # noqa: F401
from ..fault.test_membership import waves_until_sum

WAVE_TIMEOUT = 10.0


def internal_cores(net):
    return [node.core for node in net._commnodes]


class TestBulkStreams:
    def test_bulk_creation_is_lazy_until_first_wave(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        streams = net.new_streams(
            [(comm, {"transform": TFILTER_SUM}) for _ in range(20)]
        )
        assert len(streams) == 20
        assert len({s.stream_id for s in streams}) == 20

        # The whole batch is announced but NO manager exists anywhere
        # until a stream carries data.
        last = streams[-1].stream_id
        assert wait_until(
            lambda: all(
                last in core._stream_specs or last in core.streams
                for core in internal_cores(net)
            ),
            net=net,
            poll=False,
            timeout=5.0,
        )
        for core in internal_cores(net):
            assert core.streams == {}
            assert len(core._stream_specs) == 20

        # Touch three streams: exactly those materialize, per node.
        for stream in streams[:3]:
            assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
        touched = {s.stream_id for s in streams[:3]}
        for core in internal_cores(net):
            assert set(core.streams) == touched
            assert len(core._stream_specs) == 17

        # Closing works on both materialized and still-lazy streams.
        for stream in streams:
            stream.close()
        assert wait_until(
            lambda: all(
                not core.streams and not core._stream_specs
                for core in internal_cores(net)
            ),
            net=net,
            poll=False,
            timeout=5.0,
        ), "close did not reach every node for every stream"

    def test_backends_learn_bulk_streams_after_poll(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        streams = net.new_streams([comm, comm])  # bare-communicator form
        want = {s.stream_id for s in streams}

        def all_know():
            for be in net.backends.values():
                while be.poll():
                    pass
            return all(
                want <= set(be.stream_ids) for be in net.backends.values()
            )

        assert wait_until(all_know, net=net, poll=False, timeout=5.0)
        # The handles are live: a back-end can send unprompted.
        be = net.backends[0]
        be.get_stream(streams[0].stream_id)

    def test_bulk_streams_survive_membership_churn(self, shutdown_nets):
        """A stream created in bulk but never touched must still see
        the post-churn membership when it finally materializes."""
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        lazy, eager = net.new_streams(
            [(comm, {"transform": TFILTER_SUM}) for _ in range(2)]
        )
        assert drive_wave(net, eager, WAVE_TIMEOUT).values == (4,)

        net.backends[3].leave()
        waves_until_sum(net, eager, 3, allowed={3, 4})

        # First wave on the lazy stream: materializes against the
        # SHRUNK membership, so it completes with three members.
        assert drive_wave(net, lazy, WAVE_TIMEOUT).values == (3,)

    def test_closed_streams_are_released_and_joins_skip_them(self, shutdown_nets):
        """Closing a stream frees its front-end handle, delivery queue
        and sink, and a back-end that joins later enters open streams
        only."""
        net = Network(balanced_tree(2, 2), colocate=True)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        for _ in range(500):
            with net.new_stream(comm, transform=TFILTER_SUM) as stream:
                stream.set_sink(lambda packet: None)
        keeper = net.new_stream(comm, transform=TFILTER_SUM)

        assert set(net._streams) == {keeper.stream_id}
        assert set(net._core.stream_queues) == {keeper.stream_id}
        assert net._core.delivery_sinks == {}

        joiner = net.attach_backend()
        assert joiner.stream_ids == (keeper.stream_id,)
        waves_until_sum(net, keeper, 5, allowed={4, 5})

    def test_new_streams_validation(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), colocate=True)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        with pytest.raises(NetworkError, match="unknown stream option"):
            net.new_streams([(comm, {"bogus": 1})])
        with pytest.raises(NetworkError, match="transformation filter"):
            net.new_streams([(comm, {"transform": 424242})])
        # A failed batch creates nothing.
        assert net.new_streams([]) == []


RUNTIMES = {"local": {}, "colocated": {"colocate": True}, "tcp": {"transport": "tcp"}}

OPENERS = {
    "new_stream": lambda net, comm: net.new_stream(comm, transform=TFILTER_SUM),
    "new_streams": lambda net, comm: net.new_streams(
        [(comm, {"transform": TFILTER_SUM})]
    )[0],
}


def open_then_kill_deep(policy, runtime, opener, shutdown_nets):
    """An 8-rank depth-3 tree with one SUM stream that has carried no
    data yet, and the depth-2 comm node above ranks 0 and 1 killed —
    its parent has seen the death before the stream's first wave."""
    net = Network(balanced_tree(2, 3), policy=policy, **RUNTIMES[runtime])
    shutdown_nets.append(net)
    stream = OPENERS[opener](net, net.get_broadcast_communicator())
    net.flush()
    cores = {frozenset(n.core.reported_ranks): n.core for n in net._commnodes}
    parent = cores[frozenset({0, 1, 2, 3})]
    FaultInjector(net).kill_commnode(cores[frozenset({0, 1})].name)
    assert wait_until(lambda: len(parent.children) == 1, poll=False)
    return net, stream


@pytest.mark.parametrize("opener", sorted(OPENERS))
@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
class TestDeathBeforeTheFirstWave:
    """Both ways to open a stream live one lifecycle: a comm node that
    dies before the stream's first wave is reported all the same."""

    def test_degrade_reports_the_lost_ranks(self, runtime, opener, shutdown_nets):
        net, stream = open_then_kill_deep(DEGRADE, runtime, opener, shutdown_nets)
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)
        assert wait_until(lambda: net.recovery_events(), net=net, poll=False)
        assert [e.lost for e in net.recovery_events()] == [(0, 1)]
        # The death was two hops away, yet the tool sees a new epoch.
        assert stream.membership_epoch == 1

    def test_fail_fast_surfaces_within_two_waves(self, runtime, opener, shutdown_nets):
        net, stream = open_then_kill_deep(FAIL_FAST, runtime, opener, shutdown_nets)
        with pytest.raises(NetworkDownError):
            for _ in range(2):
                drive_wave(net, stream, WAVE_TIMEOUT)
        assert [e.lost for e in net._core.recovery_events] == [(0, 1)]


def forked_pid(net, label):
    """The pid of the process hosting comm node *label* on a process
    tree whose own launcher forked it: a child of one of the
    front-end's processes, found by the listener port it announced."""
    port = net._core.addr_reports[label][1]
    with open("/proc/net/tcp") as table:
        rows = [line.split() for line in list(table)[1:]]
    sockets = {
        f"socket:[{row[9]}]"
        for row in rows
        if row[3] == "0A" and int(row[1].rsplit(":", 1)[1], 16) == port
    }
    for proc in net._procs:
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as kids:
            for pid in kids.read().split():
                fds = f"/proc/{pid}/fd"
                if any(os.readlink(f"{fds}/{fd}") in sockets for fd in os.listdir(fds)):
                    return int(pid)
    raise LookupError(f"no process listens for {label}")


def kill_deep_then_open(policy, runtime, shutdown_nets):
    """An 8-rank depth-3 tree with no stream open; the depth-2 comm
    node above ranks 0 and 1 is killed, and one SUM stream opens only
    once that node's parent has seen the death (the front-end has not
    been pumped since)."""
    kwargs = {"transport": "process"} if runtime == "process" else RUNTIMES[runtime]
    net = Network(balanced_tree(2, 3), policy=policy, **kwargs)
    shutdown_nets.append(net)
    topo = net.topology
    leaf = next(n for n in topo.leaves() if n.label == net._slots[0].label)
    victim = topo.parent_of(leaf)
    if runtime == "process":
        pid = forked_pid(net, victim.label)
        os.kill(pid, signal.SIGKILL)
        # The kernel closes the victim's sockets as it dies; its
        # parent's loop reads the EOF at once.
        assert wait_until(lambda: not os.path.exists(f"/proc/{pid}/fd/0"), poll=False)
        time.sleep(0.5)
    else:
        parent = topo.parent_of(victim)
        cores = {n.core.name: n.core for n in net._commnodes}
        FaultInjector(net).kill_commnode(victim.label)
        assert wait_until(lambda: len(cores[parent.label].children) == 1, poll=False)
    return net, net.new_stream(net.get_broadcast_communicator(), transform=TFILTER_SUM)


@pytest.mark.parametrize("runtime", [*sorted(RUNTIMES), "process"])
class TestDeathWithNoStreamOpen:
    """Membership is a fact about the tree: a death is reported by the
    node that saw it whether or not any stream exists."""

    def test_degrade_logs_the_loss_once(self, runtime, shutdown_nets):
        net, stream = kill_deep_then_open(DEGRADE, runtime, shutdown_nets)
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (6,)
        assert wait_until(lambda: net.recovery_events(), net=net, poll=False)
        assert [(e.lost, e.gained) for e in net.recovery_events()] == [((0, 1), ())]
        assert stream.membership_epoch == 1

    def test_fail_fast_surfaces_within_two_waves(self, runtime, shutdown_nets):
        net, stream = kill_deep_then_open(FAIL_FAST, runtime, shutdown_nets)
        with pytest.raises(NetworkDownError):
            for _ in range(2):
                drive_wave(net, stream, WAVE_TIMEOUT)
        assert [e.lost for e in net._core.recovery_events] == [(0, 1)]


class TestOneEntryPerChange:
    def test_join_leave_and_death_are_one_entry_each(self, shutdown_nets):
        """Three open streams, yet each change is one log entry, each
        stream's epoch moves by one per change, and the epochs the
        front-end stamps strictly increase."""
        net = Network(balanced_tree(2, 3), colocate=True)
        shutdown_nets.append(net)
        comm = net.get_broadcast_communicator()
        streams = [net.new_stream(comm, transform=TFILTER_SUM) for _ in range(3)]
        for stream in streams:
            assert drive_wave(net, stream, WAVE_TIMEOUT).values == (8,)

        joiner = net.attach_backend()
        waves_until_sum(net, streams[0], 9, allowed={8, 9})
        assert len(net.recovery_events()) == 1
        assert [s.membership_epoch for s in streams] == [1, 1, 1]

        joiner.leave()
        waves_until_sum(net, streams[0], 8, allowed={8, 9})
        assert len(net.recovery_events()) == 2
        assert [s.membership_epoch for s in streams] == [2, 2, 2]

        victim = next(n for n in net._commnodes if n.core.reported_ranks == {6, 7})
        FaultInjector(net).kill_commnode(victim.core.name)
        assert wait_until(lambda: len(net.recovery_events()) == 3, net=net)
        events = net.recovery_events()
        assert [(e.lost, e.gained) for e in events] == [
            ((), (joiner.rank,)),
            ((joiner.rank,), ()),
            ((6, 7), ()),
        ]
        assert [e.epoch for e in events] == [1, 2, 3]
        assert [s.membership_epoch for s in streams] == [3, 3, 3]


class TestCachedRoutesUnderChurn:
    def test_cached_routes_match_uncached_at_every_core(self, shutdown_nets):
        """Live-network version of the cache-transparency invariant:
        after every membership event, every internal node's cached
        ``links_for`` must equal the uncached intersection scan."""
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )

        def assert_caches_transparent():
            for core in internal_cores(net):
                rt = core.routing
                for eps in (
                    frozenset(rt.all_ranks()),
                    frozenset({0}),
                    frozenset({0, 99}),
                ):
                    assert rt.links_for(eps) == rt._compute_links(eps), (
                        f"cache diverged at {core.name} epoch {rt.epoch}"
                    )

        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
        assert_caches_transparent()

        net.attach_backend()
        waves_until_sum(net, stream, 5, allowed={4, 5})
        assert_caches_transparent()

        net.backends[0].leave()
        waves_until_sum(net, stream, 4, allowed={4, 5})
        assert_caches_transparent()


class TestRebalance:
    def test_moves_backend_off_the_hot_node(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)

        # Force a synthetic hot spot on a comm node that actually
        # parents back-ends (depth-1 nodes here).
        parent_keys = {
            m.parent_key for m in net._recovery.members("backend")
        }
        hot_key = sorted(parent_keys)[0]
        hot_core = net._recovery.member(hot_key).core

        moves = net.rebalance(
            load_fn=lambda core: 1000.0 if core is hot_core else 0.0
        )
        assert len(moves) == 1
        (move,) = moves
        assert move["from"] == hot_key
        assert move["to"] != hot_key
        rank = move["rank"]
        # The returned handle replaces the detached one.
        assert net.backends[rank] is move["backend"]
        assert move["backend"].connected

        # Waves keep flowing over the full membership; the re-joined
        # rank re-enters at a wave-epoch boundary, so a transitional
        # 3-sum is legal but it must settle back to 4.
        waves_until_sum(net, stream, 4, allowed={3, 4})
        recovery = net.stats()["recovery"]
        assert recovery["members_left"] >= 1
        assert recovery["members_joined"] >= 1
        assert recovery["nodes_failed"] == 0

    def test_balanced_tree_is_left_alone(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        # Uniform load: the hottest candidate is no hotter than the
        # best alternative, so the actuator never fires.
        assert net.rebalance(load_fn=lambda core: 1.0) == []
        assert sorted(net.backends) == [0, 1, 2, 3]

    def test_requires_thread_hosted_transport(self, shutdown_nets):
        net = Network(balanced_tree(2, 2), transport="process")
        shutdown_nets.append(net)
        with pytest.raises(NetworkError, match="process"):
            net.rebalance()

    def test_repeated_rebalance_converges(self, shutdown_nets):
        """A standing hot spot is drained one back-end per move and
        the loop stops when the node has nothing left to give."""
        net = Network(balanced_tree(2, 2), colocate=True, policy=REPAIR)
        shutdown_nets.append(net)
        stream = net.new_stream(
            net.get_broadcast_communicator(), transform=TFILTER_SUM
        )
        assert drive_wave(net, stream, WAVE_TIMEOUT).values == (4,)
        hot_key = sorted(
            {m.parent_key for m in net._recovery.members("backend")}
        )[0]
        hot_core = net._recovery.member(hot_key).core
        moves = net.rebalance(
            max_moves=5,
            load_fn=lambda core: 1000.0 if core is hot_core else 0.0,
        )
        # Both of the hot node's back-ends moved away, then the
        # candidate pool emptied and the loop stopped early.
        assert 1 <= len(moves) <= 2
        assert all(m["from"] == hot_key for m in moves)
        waves_until_sum(net, stream, 4, allowed={2, 3, 4})
